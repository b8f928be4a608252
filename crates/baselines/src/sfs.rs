//! Sort-Filter-Skyline (Chomicki, Godfrey, Gryz, Liang — ICDE 2003).
//!
//! SFS presorts the input by a *monotone scoring function* — if `a`
//! dominates `b` then `score(a) < score(b)` — so a tuple can only be
//! dominated by tuples *before* it in sorted order. One filtering pass
//! against the accumulated window then suffices, and window tuples are
//! never evicted (every inserted tuple is already confirmed skyline).

use skymr_common::dominance::dominates;
use skymr_common::Tuple;

/// The monotone presorting score.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SfsOrder {
    /// Sum of dimension values (simple, fast).
    Sum,
    /// The entropy score `Σ ln(1 + v_k)` recommended by the SFS paper for
    /// better filtering selectivity.
    #[default]
    Entropy,
}

impl SfsOrder {
    fn score(&self, t: &Tuple) -> f64 {
        match self {
            SfsOrder::Sum => t.score_sum(),
            SfsOrder::Entropy => t.score_entropy(),
        }
    }
}

/// Computes the skyline with SFS, sorted by tuple id.
pub fn sfs_skyline(tuples: &[Tuple], order: SfsOrder) -> Vec<Tuple> {
    sfs_skyline_counted(tuples, order, &mut 0)
}

/// [`sfs_skyline`], adding the pairs examined to `examined`.
pub(crate) fn sfs_skyline_counted(
    tuples: &[Tuple],
    order: SfsOrder,
    examined: &mut u64,
) -> Vec<Tuple> {
    let mut sorted: Vec<&Tuple> = tuples.iter().collect();
    // Ties broken by id for determinism; score is NaN-free on valid data.
    sorted.sort_by(|a, b| {
        order
            .score(a)
            .total_cmp(&order.score(b))
            .then(a.id.cmp(&b.id))
    });
    let mut window: Vec<Tuple> = Vec::new();
    'next: for t in sorted {
        for w in &window {
            *examined += 1;
            if dominates(w, t) {
                continue 'next;
            }
            debug_assert!(
                !dominates(t, w),
                "monotone order violated: later tuple dominates earlier window tuple"
            );
        }
        window.push(t.clone());
    }
    window.sort_by_key(|t| t.id);
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;
    use skymr_datagen::{generate, Distribution};

    #[test]
    fn trivial_cases() {
        assert!(sfs_skyline(&[], SfsOrder::Entropy).is_empty());
        let one = vec![Tuple::new(1, vec![0.4, 0.6])];
        assert_eq!(sfs_skyline(&one, SfsOrder::Sum), one);
    }

    #[test]
    fn matches_bnl_on_all_distributions_and_orders() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::Anticorrelated,
            Distribution::Clustered { clusters: 2 },
        ] {
            for dim in [2, 4] {
                let ds = generate(dist, dim, 400, 55);
                let oracle = bnl_skyline(ds.tuples());
                for order in [SfsOrder::Sum, SfsOrder::Entropy] {
                    assert_eq!(
                        sfs_skyline(ds.tuples(), order),
                        oracle,
                        "SFS({order:?}) disagrees with BNL on {dist:?} d={dim}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_is_never_evicted() {
        // Structural property of SFS: output size equals window size, and
        // the presort guarantees no false insertions — verified indirectly
        // by the debug_assert in the implementation plus oracle agreement.
        let ds = generate(Distribution::Anticorrelated, 3, 300, 56);
        let sky = sfs_skyline(ds.tuples(), SfsOrder::Entropy);
        assert_eq!(sky, bnl_skyline(ds.tuples()));
    }

    #[test]
    fn duplicates_survive() {
        let input = vec![Tuple::new(0, vec![0.3, 0.3]), Tuple::new(1, vec![0.3, 0.3])];
        assert_eq!(sfs_skyline(&input, SfsOrder::Entropy).len(), 2);
    }
}
