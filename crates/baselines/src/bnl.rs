//! Block-Nested-Loops skyline (Börzsönyi, Kossmann, Stocker — ICDE 2001).
//!
//! BNL streams the input past a *window* of incomparable tuples: an
//! incoming tuple dominated by the window is dropped, window tuples it
//! dominates are evicted, and otherwise it joins the window. With an
//! unbounded window one pass suffices; the original algorithm bounds the
//! window and spills to an overflow file, confirming a window tuple as
//! skyline once it has been compared against every tuple after it —
//! [`bnl_skyline_windowed`] reproduces that multi-pass behaviour in memory.

use std::borrow::Borrow;

use skymr_common::dominance::Window;
use skymr_common::Tuple;

/// BNL with an unbounded window: the skyline in one pass, sorted by id.
///
/// ```
/// use skymr_baselines::bnl_skyline;
/// use skymr_common::Tuple;
///
/// let tuples = vec![
///     Tuple::new(0, vec![0.2, 0.8]),
///     Tuple::new(1, vec![0.8, 0.2]),
///     Tuple::new(2, vec![0.9, 0.9]), // dominated by both
/// ];
/// let ids: Vec<u64> = bnl_skyline(&tuples).iter().map(|t| t.id).collect();
/// assert_eq!(ids, vec![0, 1]);
/// ```
pub fn bnl_skyline(tuples: &[Tuple]) -> Vec<Tuple> {
    // The window borrows from the input; only the survivors are cloned.
    let mut window: Window<&Tuple> = Window::with_capacity(tuples.len().min(64));
    let mut examined = 0;
    for t in tuples {
        window.insert(t, &mut examined);
    }
    let mut skyline: Vec<Tuple> = window.into_iter().cloned().collect();
    skyline.sort_by_key(|t| t.id);
    skyline
}

/// A window entry of the bounded BNL: a tuple of the current pass and its
/// position in that pass's input.
struct Entered<'a> {
    pos: usize,
    tuple: &'a Tuple,
}

impl Borrow<Tuple> for Entered<'_> {
    fn borrow(&self) -> &Tuple {
        self.tuple
    }
}

/// The original bounded-window BNL: at most `window_capacity` tuples are
/// held; the rest spill to an overflow buffer processed in further passes.
///
/// A window tuple is *confirmed* (emitted as skyline) at the end of a pass
/// only if it entered the window before the first overflow spill of that
/// pass — only then has it been compared against every remaining tuple.
/// Unconfirmed window tuples rejoin the overflow for the next pass.
///
/// # Panics
///
/// Panics if `window_capacity == 0`.
pub fn bnl_skyline_windowed(tuples: &[Tuple], window_capacity: usize) -> Vec<Tuple> {
    assert!(window_capacity > 0, "window capacity must be at least 1");
    let mut skyline: Vec<Tuple> = Vec::new();
    let mut input: Vec<Tuple> = tuples.to_vec();
    let mut examined = 0;
    while !input.is_empty() {
        let mut window: Window<Entered<'_>> = Window::default();
        let mut overflow: Vec<Tuple> = Vec::new();
        let mut first_spill: Option<usize> = None;
        for (pos, tuple) in input.iter().enumerate() {
            if !window.admit(tuple, &mut examined) {
                continue;
            }
            if window.len() < window_capacity {
                window.push(Entered { pos, tuple });
            } else {
                first_spill.get_or_insert(pos);
                overflow.push(tuple.clone());
            }
        }
        let confirm_before = first_spill.unwrap_or(usize::MAX);
        let mut carried: Vec<Tuple> = Vec::new();
        for Entered { pos, tuple } in window {
            if pos < confirm_before {
                skyline.push(tuple.clone());
            } else {
                carried.push(tuple.clone());
            }
        }
        // Unconfirmed window tuples go first: they have already survived
        // this pass's comparisons and tend to be strong dominators.
        carried.extend(overflow);
        input = carried;
    }
    skyline.sort_by_key(|t| t.id);
    skyline
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_datagen::{generate, Distribution};

    fn t(id: u64, vals: &[f64]) -> Tuple {
        Tuple::new(id, vals.to_vec())
    }

    #[test]
    fn trivial_cases() {
        assert!(bnl_skyline(&[]).is_empty());
        let one = vec![t(3, &[0.5, 0.5])];
        assert_eq!(bnl_skyline(&one), one);
    }

    #[test]
    fn drops_dominated_and_evicts() {
        let input = vec![t(0, &[0.5, 0.5]), t(1, &[0.1, 0.1]), t(2, &[0.6, 0.6])];
        let sky = bnl_skyline(&input);
        assert_eq!(sky.iter().map(|x| x.id).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn keeps_incomparable_chain() {
        let input: Vec<Tuple> = (0..10)
            .map(|i| t(i, &[i as f64 / 10.0, (9 - i) as f64 / 10.0]))
            .collect();
        assert_eq!(bnl_skyline(&input).len(), 10);
    }

    #[test]
    fn windowed_matches_unbounded_on_random_data() {
        for dist in [Distribution::Independent, Distribution::Anticorrelated] {
            let ds = generate(dist, 3, 500, 77);
            let full = bnl_skyline(ds.tuples());
            for cap in [1, 2, 7, 32, 1000] {
                assert_eq!(
                    bnl_skyline_windowed(ds.tuples(), cap),
                    full,
                    "window {cap} broke BNL on {dist:?}"
                );
            }
        }
    }

    #[test]
    fn windowed_handles_all_dominated_by_first() {
        let mut input = vec![t(0, &[0.01, 0.01])];
        for i in 1..100 {
            input.push(t(i, &[0.5 + (i as f64 % 7.0) / 100.0, 0.5]));
        }
        assert_eq!(bnl_skyline_windowed(&input, 3).len(), 1);
    }

    #[test]
    fn duplicates_survive_in_both_variants() {
        let input = vec![t(0, &[0.2, 0.2]), t(1, &[0.2, 0.2])];
        assert_eq!(bnl_skyline(&input).len(), 2);
        assert_eq!(bnl_skyline_windowed(&input, 1).len(), 2);
    }

    #[test]
    #[should_panic(expected = "window capacity")]
    fn zero_window_rejected() {
        bnl_skyline_windowed(&[], 0);
    }
}
