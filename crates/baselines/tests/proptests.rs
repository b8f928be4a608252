//! Property tests holding the signature-filtered BNL kernels to their
//! scalar predecessors (`scalar/mod.rs`).

use proptest::prelude::*;

use skymr_baselines::mr_bnl::{cell_code, eliminate_across_cells, CellSkylines};
use skymr_baselines::{bnl_skyline, bnl_skyline_windowed};
use skymr_common::Tuple;
use skymr_datagen::{generate, Distribution};

mod scalar;

/// Rows from the three paper distributions at 1–6 dimensions, in the plain
/// shape or a degenerate one: empty, every row equal, every row twice, or
/// snapped to a coarse lattice (ties on every dimension, many equal rows).
fn arb_rows() -> impl Strategy<Value = Vec<Tuple>> {
    (0usize..3, 1usize..=6, 1usize..220, any::<u64>(), 0u8..8).prop_map(
        |(dist, dim, card, seed, shape)| {
            let dist = [
                Distribution::Independent,
                Distribution::Correlated,
                Distribution::Anticorrelated,
            ][dist];
            let mut rows: Vec<Vec<f64>> = generate(dist, dim, card, seed)
                .tuples()
                .iter()
                .map(|t| t.values.to_vec())
                .collect();
            match shape {
                0 => rows.clear(),
                1 => rows = vec![rows[0].clone(); card],
                2 => rows.extend(rows.clone()),
                3 => rows
                    .iter_mut()
                    .flatten()
                    .for_each(|v| *v = (*v * 4.0).floor() / 4.0),
                _ => {}
            }
            rows.into_iter()
                .enumerate()
                .map(|(i, v)| Tuple::new(i as u64, v))
                .collect()
        },
    )
}

proptest! {
    #[test]
    fn windowed_bnl_equals_scalar(rows in arb_rows(), capacity in 1usize..40) {
        prop_assert_eq!(bnl_skyline(&rows), scalar::bnl_skyline(&rows));
        prop_assert_eq!(
            bnl_skyline_windowed(&rows, capacity),
            scalar::bnl_skyline_windowed(&rows, capacity)
        );
    }

    #[test]
    fn windowed_cell_elimination_equals_scalar(rows in arb_rows()) {
        // Per-cell inputs are left raw (not skylines), so pruning has
        // work to do inside and across cells; order within a cell is kept.
        let mut cells = CellSkylines::new();
        for t in rows {
            cells.entry(cell_code(&t)).or_default().push(t);
        }
        let mut reference = cells.clone();
        eliminate_across_cells(&mut cells);
        scalar::eliminate_across_cells(&mut reference);
        prop_assert_eq!(cells, reference);
    }
}
