//! The scalar BNL kernels, as they stood before the signature-filtered
//! `Window` replaced them in `skymr_baselines::{bnl, mr_bnl}`: every
//! candidate pair goes straight to `dominates` / `compare`. Moved here,
//! not rewritten — the property tests hold the windowed kernels to these.

use skymr_baselines::mr_bnl::{cell_may_dominate, CellSkylines};
use skymr_common::dominance::{compare, dominates, DomOrdering};
use skymr_common::Tuple;

/// Single joint dominance check for the window update. Returns what to do
/// with the incoming tuple relative to one window entry.
fn window_step(window: &mut Vec<(usize, Tuple)>, i: &mut usize, t: &Tuple) -> bool {
    match compare(&window[*i].1, t) {
        DomOrdering::Dominates => false,
        DomOrdering::DominatedBy => {
            window.swap_remove(*i);
            true
        }
        DomOrdering::Incomparable => {
            *i += 1;
            true
        }
    }
}

pub fn bnl_skyline(tuples: &[Tuple]) -> Vec<Tuple> {
    let mut window: Vec<(usize, Tuple)> = Vec::with_capacity(tuples.len().min(64));
    'next: for t in tuples {
        let mut i = 0;
        while i < window.len() {
            if !window_step(&mut window, &mut i, t) {
                continue 'next;
            }
        }
        window.push((0, t.clone()));
    }
    let mut skyline: Vec<Tuple> = window.into_iter().map(|(_, t)| t).collect();
    skyline.sort_by_key(|t| t.id);
    skyline
}

pub fn bnl_skyline_windowed(tuples: &[Tuple], window_capacity: usize) -> Vec<Tuple> {
    assert!(window_capacity > 0, "window capacity must be at least 1");
    let mut skyline: Vec<Tuple> = Vec::new();
    let mut input: Vec<Tuple> = tuples.to_vec();
    while !input.is_empty() {
        let mut window: Vec<(usize, Tuple)> = Vec::new();
        let mut overflow: Vec<Tuple> = Vec::new();
        let mut first_spill: Option<usize> = None;
        'next: for (pos, t) in input.iter().enumerate() {
            let mut i = 0;
            while i < window.len() {
                if !window_step(&mut window, &mut i, t) {
                    continue 'next;
                }
            }
            if window.len() < window_capacity {
                window.push((pos, t.clone()));
            } else {
                first_spill.get_or_insert(pos);
                overflow.push(t.clone());
            }
        }
        let confirm_before = first_spill.unwrap_or(usize::MAX);
        let mut carried: Vec<Tuple> = Vec::new();
        for (pos, t) in window {
            if pos < confirm_before {
                skyline.push(t);
            } else {
                carried.push(t);
            }
        }
        carried.extend(overflow);
        input = carried;
    }
    skyline.sort_by_key(|t| t.id);
    skyline
}

pub fn eliminate_across_cells(cells: &mut CellSkylines) {
    let codes: Vec<u32> = cells.keys().copied().collect();
    for &b in &codes {
        let Some(mut sb) = cells.remove(&b) else {
            continue;
        };
        for (&a, sa) in cells.iter() {
            if !cell_may_dominate(a, b) {
                continue;
            }
            sb.retain(|t| !sa.iter().any(|ta| dominates(ta, t)));
            if sb.is_empty() {
                break;
            }
        }
        if !sb.is_empty() {
            cells.insert(b, sb);
        }
    }
}
