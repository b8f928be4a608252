//! Property tests for the foundation types: dominance must be a strict
//! partial order, the joint comparison must agree with the directional
//! checks, the cell-signature test must never rule out a dominating pair,
//! and the bitset must behave like a set of integers.

use proptest::prelude::*;

use skymr_common::dominance::{compare, dominates, CellQuantizer, DomOrdering};
use skymr_common::{BitGrid, Tuple};

fn arb_tuple(dim: usize) -> impl Strategy<Value = Tuple> {
    proptest::collection::vec(0.0f64..1.0, dim).prop_map(|v| Tuple::new(0, v))
}

/// Dimensionalities around every layout edge of the signature: one 63-bit
/// field, the everyday range, the last width with a coordinate bit (32),
/// and the disabled filter (33 and up, past the 64 bits of the word).
const SIGNATURE_DIMS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 32, 33, 64, 65];

/// One coordinate for the signature properties: the unit interval salted
/// with exact level boundaries `k/2^b`, a coarse lattice (ties), the edges
/// of the domain, values outside it, and both infinities.
fn arb_coord(dim: usize) -> impl Strategy<Value = f64> {
    let levels = CellQuantizer::new(dim).max_level() + 1;
    (0u8..14, 0.0f64..1.0, any::<u64>()).prop_map(move |(kind, unit, k)| match kind {
        0 | 1 => (k % levels) as f64 / levels as f64,
        2 => (k % 4) as f64 / 4.0,
        3 => 0.0,
        4 => 1.0 - f64::EPSILON / 2.0,
        5 => -unit,
        6 => 1.0 + 3.0 * unit,
        7 => f64::INFINITY,
        8 => f64::NEG_INFINITY,
        _ => unit,
    })
}

/// A pair of rows of one of [`SIGNATURE_DIMS`], built coordinate by
/// coordinate so that dominating, dominated, equal and incomparable pairs
/// all turn up often: `b[k]` repeats `a[k]`, is no better than it, or is
/// drawn afresh.
fn arb_row_pair() -> impl Strategy<Value = (Tuple, Tuple)> {
    (0..SIGNATURE_DIMS.len()).prop_flat_map(|i| {
        let dim = SIGNATURE_DIMS[i];
        proptest::collection::vec((arb_coord(dim), arb_coord(dim), 0u8..4), dim).prop_map(
            |coords| {
                let a: Vec<f64> = coords.iter().map(|&(a, _, _)| a).collect();
                let b: Vec<f64> = coords
                    .iter()
                    .map(|&(a, fresh, mode)| match mode {
                        0 | 1 => a,
                        2 => a.max(fresh),
                        _ => fresh,
                    })
                    .collect();
                (Tuple::new(0, a), Tuple::new(1, b))
            },
        )
    })
}

proptest! {
    // 14 dimensionalities × 9 kinds of coordinate: the default 64 cases
    // leave most combinations unvisited.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn signature_test_is_a_necessary_condition_for_dominance((a, b) in arb_row_pair()) {
        let q = CellQuantizer::new(a.dim());
        let (sa, sb) = (q.signature(&a.values), q.signature(&b.values));
        if dominates(&a, &b) {
            prop_assert!(q.le(sa, sb), "{a:?} ≺ {b:?} but the signatures rule it out");
        }
        if dominates(&b, &a) {
            prop_assert!(q.le(sb, sa), "{b:?} ≺ {a:?} but the signatures rule it out");
        }
        if compare(&a, &b) != DomOrdering::Incomparable {
            prop_assert!(q.le(sa, sb) || q.le(sb, sa));
        }
        // The underlying fact: quantisation is monotone per coordinate.
        if a.values.iter().zip(b.values.iter()).all(|(x, y)| x <= y) {
            prop_assert!(q.le(sa, sb));
        }
        if a.dim() > 32 {
            prop_assert!(sa == 0 && q.le(sa, sb) && q.le(sb, sa), "filter must be disabled");
        }
    }
}

proptest! {
    #[test]
    fn dominance_is_irreflexive(t in arb_tuple(4)) {
        prop_assert!(!dominates(&t, &t));
    }

    #[test]
    fn dominance_is_antisymmetric(a in arb_tuple(4), b in arb_tuple(4)) {
        prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
    }

    #[test]
    fn dominance_is_transitive(a in arb_tuple(3), b in arb_tuple(3), c in arb_tuple(3)) {
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    #[test]
    fn compare_agrees_with_dominates(a in arb_tuple(5), b in arb_tuple(5)) {
        let expected = match (dominates(&a, &b), dominates(&b, &a)) {
            (true, false) => DomOrdering::Dominates,
            (false, true) => DomOrdering::DominatedBy,
            (false, false) => DomOrdering::Incomparable,
            (true, true) => unreachable!("antisymmetry violated"),
        };
        prop_assert_eq!(compare(&a, &b), expected);
    }

    #[test]
    fn componentwise_shift_dominates(t in arb_tuple(4), shift in 1e-6f64..0.1) {
        let better = Tuple::new(
            1,
            t.values.iter().map(|v| (v - shift).max(0.0)).collect::<Vec<_>>(),
        );
        if better.values.iter().zip(t.values.iter()).any(|(b, o)| b < o) {
            prop_assert!(dominates(&better, &t));
        }
    }

    #[test]
    fn bitgrid_behaves_like_a_set(
        len in 1usize..500,
        ops in proptest::collection::vec((0usize..500, any::<bool>()), 0..100),
    ) {
        let mut bits = BitGrid::zeros(len);
        let mut reference = std::collections::BTreeSet::new();
        for (idx, set) in ops {
            let idx = idx % len;
            if set {
                bits.set(idx);
                reference.insert(idx);
            } else {
                bits.clear(idx);
                reference.remove(&idx);
            }
        }
        prop_assert_eq!(bits.count_ones(), reference.len());
        prop_assert_eq!(bits.iter_ones().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(bits.highest_one(), reference.iter().next_back().copied());
        prop_assert_eq!(bits.is_zero(), reference.is_empty());
    }

    #[test]
    fn bitgrid_set_get_roundtrip(
        len in 1usize..400,
        indices in proptest::collection::vec(0usize..400, 0..80),
    ) {
        // set(i) makes get(i) true without disturbing any other bit, and
        // clear(i) undoes exactly that.
        let mut bits = BitGrid::zeros(len);
        for i in indices {
            let i = i % len;
            let before: Vec<bool> = (0..len).map(|j| bits.get(j)).collect();
            bits.set(i);
            prop_assert!(bits.get(i));
            for j in (0..len).filter(|&j| j != i) {
                prop_assert_eq!(bits.get(j), before[j], "set({}) disturbed bit {}", i, j);
            }
            bits.clear(i);
            prop_assert!(!bits.get(i));
            for j in (0..len).filter(|&j| j != i) {
                prop_assert_eq!(bits.get(j), before[j], "clear({}) disturbed bit {}", i, j);
            }
            if before[i] {
                bits.set(i);
            }
        }
    }

    #[test]
    fn bitgrid_or_is_union(
        len in 1usize..300,
        a in proptest::collection::vec(0usize..300, 0..50),
        b in proptest::collection::vec(0usize..300, 0..50),
    ) {
        let mut ga = BitGrid::zeros(len);
        let mut gb = BitGrid::zeros(len);
        let mut union = std::collections::BTreeSet::new();
        for i in a {
            ga.set(i % len);
            union.insert(i % len);
        }
        for i in b {
            gb.set(i % len);
            union.insert(i % len);
        }
        ga.or_assign(&gb);
        prop_assert_eq!(ga.iter_ones().collect::<Vec<_>>(), union.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn bitgrid_and_is_intersection(
        len in 1usize..300,
        a in proptest::collection::vec(0usize..300, 0..50),
        b in proptest::collection::vec(0usize..300, 0..50),
    ) {
        let mut ga = BitGrid::zeros(len);
        let mut gb = BitGrid::zeros(len);
        let sa: std::collections::BTreeSet<usize> = a.into_iter().map(|i| i % len).collect();
        let sb: std::collections::BTreeSet<usize> = b.into_iter().map(|i| i % len).collect();
        for &i in &sa {
            ga.set(i);
        }
        for &i in &sb {
            gb.set(i);
        }
        prop_assert_eq!(ga.intersects(&gb), sa.intersection(&sb).next().is_some());
        ga.and_assign(&gb);
        prop_assert_eq!(
            ga.iter_ones().collect::<Vec<_>>(),
            sa.intersection(&sb).copied().collect::<Vec<_>>()
        );
    }
}
