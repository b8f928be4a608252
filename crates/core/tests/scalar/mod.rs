//! The scalar local-skyline kernels, as they stood before the
//! signature-filtered `Window` replaced them in `skymr::local` and the
//! MR-GPMRS reducer: every candidate pair goes straight to `dominates` /
//! `compare`. Moved here, not rewritten — the property tests hold the
//! windowed kernels to these on output order and on both comparison
//! counters.

use std::collections::BTreeMap;

use skymr::gpsrs::PartitionSkylines;
use skymr::groups::GroupPlan;
use skymr::local::{CmpStats, LocalAlgo};
use skymr::Grid;
use skymr_common::dominance::{compare, dominates, DomOrdering};
use skymr_common::Tuple;

pub type LocalSkylines = BTreeMap<u32, Vec<Tuple>>;

/// Algorithm 4 (`InsertTuple`): BNL window update of a local skyline.
pub fn insert_tuple(s: &mut Vec<Tuple>, t: Tuple, stats: &mut CmpStats) -> bool {
    let mut i = 0;
    while i < s.len() {
        stats.tuple_cmps += 1;
        match compare(&s[i], &t) {
            DomOrdering::Dominates => return false,
            DomOrdering::DominatedBy => {
                s.swap_remove(i);
            }
            DomOrdering::Incomparable => i += 1,
        }
    }
    s.push(t);
    true
}

pub fn insert_into_partition(
    skylines: &mut LocalSkylines,
    partition: u32,
    t: Tuple,
    stats: &mut CmpStats,
) {
    insert_tuple(skylines.entry(partition).or_default(), t, stats);
}

/// Algorithm 5 (`ComparePartitions`) for one partition `p` against
/// `others`, decoding both partitions' coordinates per pair.
pub fn compare_partitions<'a>(
    grid: &Grid,
    p: u32,
    sp: &mut Vec<Tuple>,
    others: impl Iterator<Item = (u32, &'a [Tuple])>,
    stats: &mut CmpStats,
) {
    let p_coords = grid.coords_of(p as usize);
    for (q, sq) in others {
        if q == p {
            continue;
        }
        let q_coords = grid.coords_of(q as usize);
        // q ∈ ADR(p) ⟺ q.c ≤ p.c componentwise.
        if !q_coords.iter().zip(p_coords.iter()).all(|(&b, &a)| b <= a) {
            continue;
        }
        stats.partition_cmps += 1;
        sp.retain(|t| {
            for tq in sq {
                stats.tuple_cmps += 1;
                if dominates(tq, t) {
                    return false;
                }
            }
            true
        });
        if sp.is_empty() {
            break;
        }
    }
}

pub fn compare_all_partitions(grid: &Grid, skylines: &mut LocalSkylines, stats: &mut CmpStats) {
    let partitions: Vec<u32> = skylines.keys().copied().collect();
    for &p in &partitions {
        let Some(mut sp) = skylines.remove(&p) else {
            continue;
        };
        compare_partitions(
            grid,
            p,
            &mut sp,
            skylines.iter().map(|(&q, sq)| (q, sq.as_slice())),
            stats,
        );
        if !sp.is_empty() {
            skylines.insert(p, sp);
        }
    }
}

const WINDOW_CAPACITY_HINT: usize = 64;

pub fn local_skyline(mut tuples: Vec<Tuple>, algo: LocalAlgo, stats: &mut CmpStats) -> Vec<Tuple> {
    let window_hint = tuples.len().min(WINDOW_CAPACITY_HINT);
    match algo {
        LocalAlgo::Bnl => {
            let mut window = Vec::with_capacity(window_hint);
            for t in tuples {
                insert_tuple(&mut window, t, stats);
            }
            window
        }
        LocalAlgo::Sfs => {
            tuples.sort_by(|a, b| {
                a.score_entropy()
                    .total_cmp(&b.score_entropy())
                    .then(a.id.cmp(&b.id))
            });
            let mut window: Vec<Tuple> = Vec::with_capacity(window_hint);
            'next: for t in tuples {
                for w in &window {
                    stats.tuple_cmps += 1;
                    if dominates(w, &t) {
                        continue 'next;
                    }
                }
                window.push(t);
            }
            window
        }
        LocalAlgo::Dnc => dnc_local(&mut tuples, 0, stats),
    }
}

fn dnc_local(tuples: &mut Vec<Tuple>, depth: usize, stats: &mut CmpStats) -> Vec<Tuple> {
    const BASE_CASE: usize = 48;
    if tuples.is_empty() {
        return Vec::new();
    }
    let dim = tuples[0].dim();
    if tuples.len() <= BASE_CASE || depth >= 2 * dim {
        return local_skyline(std::mem::take(tuples), LocalAlgo::Bnl, stats);
    }
    let split_dim = depth % dim;
    let mid = tuples.len() / 2;
    tuples.select_nth_unstable_by(mid, |a, b| {
        a.values[split_dim]
            .total_cmp(&b.values[split_dim])
            .then(a.id.cmp(&b.id))
    });
    let mut upper = tuples.split_off(mid);
    let mut sky_lower = dnc_local(tuples, depth + 1, stats);
    let sky_upper = dnc_local(&mut upper, depth + 1, stats);
    let boundary = sky_lower
        .iter()
        .map(|t| t.values[split_dim])
        .fold(f64::NEG_INFINITY, f64::max);
    let survivors: Vec<Tuple> = sky_upper
        .into_iter()
        .filter(|u| {
            !sky_lower.iter().any(|l| {
                stats.tuple_cmps += 1;
                dominates(l, u)
            })
        })
        .collect();
    sky_lower.retain(|l| {
        l.values[split_dim] < boundary
            || !survivors.iter().any(|u| {
                stats.tuple_cmps += 1;
                dominates(u, l)
            })
    });
    sky_lower.extend(survivors);
    sky_lower
}

/// Algorithm 9 lines 9–10: every partition of `skylines` against the raw
/// unions in `sources` plus the other partitions of `skylines`.
pub fn compare_against_sources(
    grid: &Grid,
    skylines: &mut LocalSkylines,
    sources: &LocalSkylines,
    stats: &mut CmpStats,
) {
    let finalized: Vec<u32> = skylines.keys().copied().collect();
    for p in finalized {
        let Some(mut sp) = skylines.remove(&p) else {
            continue;
        };
        compare_partitions(
            grid,
            p,
            &mut sp,
            sources
                .iter()
                .map(|(&q, s)| (q, s.as_slice()))
                .chain(skylines.iter().map(|(&q, s)| (q, s.as_slice()))),
            stats,
        );
        if !sp.is_empty() {
            skylines.insert(p, sp);
        }
    }
}

/// The MR-GPMRS reducer body (Algorithm 9) for one bucket: the designated
/// partitions' per-mapper pieces are merged with `InsertTuple`, the rest
/// stay raw unions and serve as comparison sources. Returns the bucket's
/// output in emission order.
pub fn gpmrs_reduce(
    grid: &Grid,
    plan: &GroupPlan,
    bucket_index: usize,
    values: Vec<PartitionSkylines>,
    stats: &mut CmpStats,
) -> Vec<Tuple> {
    let mut sources: LocalSkylines = BTreeMap::new();
    for payload in values {
        for (p, tuples) in payload {
            sources.entry(p).or_default().extend(tuples);
        }
    }
    let designated: Vec<u32> = sources
        .keys()
        .copied()
        .filter(|p| plan.designated.get(p) == Some(&bucket_index))
        .collect();
    let mut skylines = LocalSkylines::new();
    for p in designated {
        let Some(tuples) = sources.remove(&p) else {
            continue;
        };
        for t in tuples {
            insert_into_partition(&mut skylines, p, t, stats);
        }
    }
    compare_against_sources(grid, &mut skylines, &sources, stats);
    skylines.into_values().flatten().collect()
}
