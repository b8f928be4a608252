//! Divide-and-conquer skyline (Börzsönyi, Kossmann, Stocker — ICDE 2001).
//!
//! The second algorithm of the original skyline paper: split the input at
//! the median of one dimension, compute both halves' skylines recursively,
//! then *merge* — remove from the worse half every tuple dominated by the
//! better half, recursing on a different dimension. Asymptotically
//! `O(n · log^{d−2} n)` for `d ≥ 3`; in practice it shines when skylines
//! are large (anti-correlated data), exactly the regime where the window
//! algorithms degrade — which is why it is a useful *local* skyline
//! routine for the paper's mappers ("it is still interesting to optimize
//! the local skyline computations", Section 8).

use skymr_common::dominance::dominates;
use skymr_common::Tuple;

/// Below this size, plain BNL beats the recursion overhead.
const BASE_CASE: usize = 64;

/// Computes the skyline with divide and conquer, sorted by id.
///
/// ```
/// use skymr_baselines::{bnl_skyline, dnc_skyline};
/// use skymr_common::Tuple;
///
/// let tuples: Vec<Tuple> = (0..200)
///     .map(|i| Tuple::new(i, vec![(i as f64) / 200.0, ((199 - i) as f64) / 200.0]))
///     .collect();
/// assert_eq!(dnc_skyline(&tuples), bnl_skyline(&tuples));
/// ```
pub fn dnc_skyline(tuples: &[Tuple]) -> Vec<Tuple> {
    if tuples.is_empty() {
        return Vec::new();
    }
    let dim = tuples[0].dim();
    let mut work: Vec<Tuple> = tuples.to_vec();
    let mut skyline = skyline_rec(&mut work, dim, 0);
    skyline.sort_by_key(|t| t.id);
    skyline
}

/// BNL for the recursion base case (no counters needed here).
fn bnl_base(tuples: &mut Vec<Tuple>) -> Vec<Tuple> {
    let mut window: Vec<Tuple> = Vec::new();
    'next: for t in tuples.drain(..) {
        let mut i = 0;
        while i < window.len() {
            if dominates(&window[i], &t) {
                continue 'next;
            }
            if dominates(&t, &window[i]) {
                window.swap_remove(i);
            } else {
                i += 1;
            }
        }
        window.push(t);
    }
    window
}

/// Recursive skyline: split at the median of dimension `split_dim`.
fn skyline_rec(tuples: &mut Vec<Tuple>, dim: usize, depth: usize) -> Vec<Tuple> {
    if tuples.len() <= BASE_CASE || depth >= 2 * dim {
        return bnl_base(tuples);
    }
    let split_dim = depth % dim; // dim == 0 takes the depth >= 2*dim base case above

    // Median split by the current dimension (ties broken by id so the
    // split is deterministic and both halves are strictly smaller).
    let mid = tuples.len() / 2;
    tuples.select_nth_unstable_by(mid, |a, b| {
        a.values[split_dim]
            .total_cmp(&b.values[split_dim])
            .then(a.id.cmp(&b.id))
    });
    let mut upper: Vec<Tuple> = tuples.split_off(mid);
    let lower = tuples;

    let mut sky_lower = skyline_rec(lower, dim, depth + 1);
    let sky_upper = skyline_rec(&mut upper, dim, depth + 1);

    // Merge: tuples of the upper half (worse on split_dim) survive only if
    // not dominated by the lower half's skyline. Lower-half skyline tuples
    // can never be dominated by upper-half tuples on a median split only
    // when values differ; with ties broken by id a lower tuple may still
    // be dominated by an equal-valued upper one is impossible (equal
    // vectors do not dominate). A dominator of a lower tuple in the upper
    // half would need split-dim value <= the lower tuple's, which the
    // median split permits only for equal split-dim values; handle that
    // exactly by checking both directions on equal-boundary values.
    let boundary = sky_lower
        .iter()
        .map(|t| t.values[split_dim])
        .fold(f64::NEG_INFINITY, f64::max);
    let survivors: Vec<Tuple> = sky_upper
        .into_iter()
        .filter(|u| !sky_lower.iter().any(|l| dominates(l, u)))
        .collect();
    // Symmetric sweep for lower tuples on the equal-value boundary.
    sky_lower
        .retain(|l| l.values[split_dim] < boundary || !survivors.iter().any(|u| dominates(u, l)));
    sky_lower.extend(survivors);
    sky_lower
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;
    use skymr_datagen::{generate, Distribution};

    #[test]
    fn trivial_cases() {
        assert!(dnc_skyline(&[]).is_empty());
        let one = vec![Tuple::new(0, vec![0.5, 0.5])];
        assert_eq!(dnc_skyline(&one), one);
    }

    #[test]
    fn matches_bnl_on_all_distributions() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::Anticorrelated,
            Distribution::Clustered { clusters: 3 },
        ] {
            for dim in [1usize, 2, 3, 5, 8] {
                let ds = generate(dist, dim, 700, 91);
                assert_eq!(
                    dnc_skyline(ds.tuples()),
                    bnl_skyline(ds.tuples()),
                    "D&C disagrees with BNL on {dist:?} d={dim}"
                );
            }
        }
    }

    #[test]
    fn handles_duplicate_values_on_split_dimension() {
        // Many tuples sharing the same value on dimension 0 stress the
        // median-split boundary handling.
        let mut tuples = Vec::new();
        for i in 0..300u64 {
            tuples.push(Tuple::new(i, vec![0.5, (i as f64 % 97.0) / 100.0, 0.3]));
        }
        tuples.push(Tuple::new(300, vec![0.5, 0.0, 0.29]));
        assert_eq!(dnc_skyline(&tuples), bnl_skyline(&tuples));
    }

    #[test]
    fn handles_all_identical_tuples() {
        let tuples: Vec<Tuple> = (0..200).map(|i| Tuple::new(i, vec![0.4, 0.4])).collect();
        let sky = dnc_skyline(&tuples);
        assert_eq!(sky.len(), 200, "identical tuples never dominate each other");
    }

    #[test]
    fn large_anticorrelated_input() {
        let ds = generate(Distribution::Anticorrelated, 4, 5_000, 92);
        assert_eq!(dnc_skyline(ds.tuples()), bnl_skyline(ds.tuples()));
    }

    #[test]
    fn base_case_boundary() {
        for n in [BASE_CASE - 1, BASE_CASE, BASE_CASE + 1, 2 * BASE_CASE + 1] {
            let ds = generate(Distribution::Independent, 3, n, 93);
            assert_eq!(
                dnc_skyline(ds.tuples()),
                bnl_skyline(ds.tuples()),
                "failed at n={n}"
            );
        }
    }
}
