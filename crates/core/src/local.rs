//! Per-partition local skylines: `InsertTuple` (Algorithm 4) and
//! `ComparePartitions` (Algorithm 5).
//!
//! Both MR-GPSRS and MR-GPMRS maintain, per grid partition, the skyline of
//! the tuples seen so far ([`insert_into_partition`], a BNL-style
//! [`Window`] update) and then eliminate *false positives* — local skyline
//! tuples dominated by a tuple of another partition — by comparing each
//! partition only against the partitions in its anti-dominating region
//! ([`eliminate_false_positives`]).
//!
//! The ADR test runs at both granularities with the same primitive
//! ([`CellQuantizer::le`] over packed cell coordinates): per partition
//! pair on the job's grid, and per tuple pair on the fine virtual grid
//! inside [`Window`].
//!
//! The module also tracks the two comparison counts the paper's cost model
//! and Figure 11 are about: partition-wise comparisons (executions of
//! Algorithm 5's line 3 body, one per `(p, p_i ∈ ADR(p))` pair) and
//! tuple-wise candidate pairs.

use std::collections::BTreeMap;

use skymr_common::dominance::{compare, CellQuantizer, DomOrdering, Window};
use skymr_common::Tuple;

use crate::grid::Grid;

/// Comparison-work tally for one task (mapper or reducer).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CmpStats {
    /// Partition-wise comparisons: pairs `(p, p_i)` with `p_i ∈ ADR(p)`
    /// whose skylines were compared (the paper's κ unit).
    pub partition_cmps: u64,
    /// Candidate pairs examined: every (window tuple, tuple) pair a
    /// dominance scan visited, whether the cell signatures settled it or
    /// the full dominance test ran.
    pub tuple_cmps: u64,
}

impl CmpStats {
    /// Accumulates another tally into this one.
    pub fn absorb(&mut self, other: CmpStats) {
        self.partition_cmps += other.partition_cmps;
        self.tuple_cmps += other.tuple_cmps;
    }

    /// Every comparison counted — the work a task charges to the
    /// simulated clock.
    pub fn total(&self) -> u64 {
        self.partition_cmps + self.tuple_cmps
    }
}

/// The local skylines of one task, keyed by partition index.
///
/// A `BTreeMap` keeps partition order deterministic, which in turn makes
/// emitted MapReduce values — and therefore the whole pipeline — exactly
/// reproducible across runs and retries.
pub type LocalSkylines = BTreeMap<u32, Window>;

/// Inserts `t` into the local skyline of its grid partition (Algorithm 4),
/// respecting the bitstring filter the caller applied (Algorithm 3 / 8,
/// lines 2–8).
pub fn insert_into_partition(
    skylines: &mut LocalSkylines,
    partition: u32,
    t: Tuple,
    stats: &mut CmpStats,
) {
    skylines
        .entry(partition)
        .or_default()
        .insert(t, &mut stats.tuple_cmps);
}

/// Algorithm 5 (`ComparePartitions`) for every partition of `skylines`:
/// removes from partition `p`'s local skyline every tuple dominated by a
/// tuple of another partition in `ADR(p)` — first the ADR partitions of
/// `sources` (comparison-only skylines that are not themselves pruned),
/// then those of `skylines`, each in key order. Partitions emptied by the
/// comparison are dropped from the map.
///
/// Each partition's cell coordinates are packed once, so the ADR test
/// `q.c ≤ p.c` is one integer comparison per partition pair.
///
/// # Panics
///
/// Panics if a cell coordinate of `grid` does not fit the packed layout.
/// That takes more than 2^32 cells, which `u32` partition keys cannot
/// address in the first place.
pub fn eliminate_false_positives(
    grid: &Grid,
    skylines: &mut LocalSkylines,
    sources: &LocalSkylines,
    stats: &mut CmpStats,
) {
    let quantizer = CellQuantizer::new(grid.dim());
    assert!(
        grid.ppd() as u64 - 1 <= quantizer.max_level(),
        "grid cell coordinates overflow the packed ADR test"
    );
    let mut coords = vec![0usize; grid.dim()];
    let mut cell = |p: u32| {
        grid.coords_into(p as usize, &mut coords);
        quantizer.pack(coords.iter().map(|&c| c as u64))
    };
    let sources: Vec<(u32, u64, &Window)> =
        sources.iter().map(|(&q, sq)| (q, cell(q), sq)).collect();
    let mut own: Vec<(u32, u64, Window)> = std::mem::take(skylines)
        .into_iter()
        .map(|(p, sp)| (p, cell(p), sp))
        .collect();
    for i in 0..own.len() {
        // q ∈ ADR(p) has q.c ≤ p.c, hence a smaller column-major index:
        // p's own-side ADR lies entirely in the prefix already swept, where
        // an empty window is one this sweep emptied.
        let (swept, rest) = own.split_at_mut(i);
        let (p, p_cell, sp) = &mut rest[0];
        let swept = swept
            .iter()
            .filter(|(_, _, sq)| !sq.is_empty())
            .map(|(q, q_cell, sq)| (*q, *q_cell, sq));
        let adr = sources
            .iter()
            .copied()
            .chain(swept)
            .filter(|&(q, q_cell, _)| q != *p && quantizer.le(q_cell, *p_cell));
        for (_, _, sq) in adr {
            stats.partition_cmps += 1;
            sp.prune_by(sq, &mut stats.tuple_cmps);
            if sp.is_empty() {
                break;
            }
        }
    }
    *skylines = own
        .into_iter()
        .filter(|(_, _, sp)| !sp.is_empty())
        .map(|(p, _, sp)| (p, sp))
        .collect();
}

/// [`eliminate_false_positives`] with no outside sources: every partition
/// of `skylines` against all the others (Algorithm 3 lines 9–10 and
/// Algorithm 6 lines 7–8).
pub fn compare_all_partitions(grid: &Grid, skylines: &mut LocalSkylines, stats: &mut CmpStats) {
    eliminate_false_positives(grid, skylines, &LocalSkylines::new(), stats);
}

/// Computes the skyline of `tuples` with plain BNL over [`compare`],
/// sorted by id — the reference used by unit tests in this crate (the full
/// baseline lives in `skymr-baselines`). Deliberately independent of the
/// signature-filtered windows it is used to check.
pub fn bnl_reference(tuples: &[Tuple]) -> Vec<Tuple> {
    let mut skyline: Vec<Tuple> = Vec::new();
    'next: for t in tuples {
        let mut i = 0;
        while i < skyline.len() {
            match compare(&skyline[i], t) {
                DomOrdering::Dominates => continue 'next,
                DomOrdering::DominatedBy => {
                    skyline.swap_remove(i);
                }
                DomOrdering::Incomparable => i += 1,
            }
        }
        skyline.push(t.clone());
    }
    skyline.sort_by_key(|t| t.id);
    skyline
}

/// The algorithm a mapper uses for its per-partition local skylines.
///
/// The paper leaves single-node skyline computation as future work ("it is
/// still interesting to optimize the local skyline computations and
/// explore how such optimizations would affect the overall performance");
/// this knob makes that exploration a configuration change. BNL streams
/// (constant state per partition, no buffering); the sort-based kernels
/// buffer the split and pay a sort for a strictly filter-only pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalAlgo {
    /// Streaming block-nested-loops window (the paper's `InsertTuple`).
    #[default]
    Bnl,
    /// Sort-filter-skyline: presort by the entropy score, filter once;
    /// window tuples are never evicted.
    Sfs,
    /// Divide and conquer on the buffered partition contents.
    Dnc,
}

/// Initial window reservation for the local-skyline kernels: generous for
/// the per-partition skylines the grid produces, small enough that tiny
/// partitions don't pay for it.
const WINDOW_CAPACITY_HINT: usize = 64;

/// Computes one partition's local skyline with the chosen kernel,
/// counting candidate pairs into `stats`.
pub fn local_skyline(tuples: Vec<Tuple>, algo: LocalAlgo, stats: &mut CmpStats) -> Vec<Tuple> {
    local_window(tuples, algo, stats).into_vec()
}

/// [`local_skyline`] as a signed [`Window`], ready to join a
/// [`LocalSkylines`] map.
pub(crate) fn local_window(
    mut tuples: Vec<Tuple>,
    algo: LocalAlgo,
    stats: &mut CmpStats,
) -> Window {
    // The window can only hold incomparable tuples, so it is bounded by
    // the input; cap the hint so huge splits don't over-reserve.
    let window_hint = tuples.len().min(WINDOW_CAPACITY_HINT);
    match algo {
        LocalAlgo::Bnl => {
            let mut window = Window::with_capacity(window_hint);
            for t in tuples {
                window.insert(t, &mut stats.tuple_cmps);
            }
            window
        }
        LocalAlgo::Sfs => {
            tuples.sort_by(|a, b| {
                a.score_entropy()
                    .total_cmp(&b.score_entropy())
                    .then(a.id.cmp(&b.id))
            });
            let mut window = Window::with_capacity(window_hint);
            for t in tuples {
                if !window.dominates(&t, &mut stats.tuple_cmps) {
                    window.push(t);
                }
            }
            window
        }
        LocalAlgo::Dnc => dnc_local(&mut tuples, 0, stats),
    }
}

/// Median-split divide and conquer over one partition's tuples.
fn dnc_local(tuples: &mut Vec<Tuple>, depth: usize, stats: &mut CmpStats) -> Window {
    const BASE_CASE: usize = 48;
    if tuples.is_empty() {
        return Window::default();
    }
    let dim = tuples[0].dim();
    if tuples.len() <= BASE_CASE || depth >= 2 * dim {
        return local_window(std::mem::take(tuples), LocalAlgo::Bnl, stats);
    }
    let split_dim = depth % dim; // dim == 0 hits the base case above (depth >= 2 * dim)
    let mid = tuples.len() / 2;
    tuples.select_nth_unstable_by(mid, |a, b| {
        a.values[split_dim]
            .total_cmp(&b.values[split_dim])
            .then(a.id.cmp(&b.id))
    });
    let mut upper = tuples.split_off(mid);
    let mut sky_lower = dnc_local(tuples, depth + 1, stats);
    let mut survivors = dnc_local(&mut upper, depth + 1, stats);
    let boundary = sky_lower
        .as_slice()
        .iter()
        .map(|t| t.values[split_dim])
        .fold(f64::NEG_INFINITY, f64::max);
    survivors.prune_by(&sky_lower, &mut stats.tuple_cmps);
    sky_lower.retain(|l| {
        l.values[split_dim] < boundary || !survivors.dominates(l, &mut stats.tuple_cmps)
    });
    sky_lower.extend(survivors);
    sky_lower
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64, vals: &[f64]) -> Tuple {
        Tuple::new(id, vals.to_vec())
    }

    fn window(tuples: Vec<Tuple>) -> Window {
        Window::from(tuples)
    }

    #[test]
    fn insert_keeps_incomparable_tuples() {
        let mut s = Window::default();
        let mut cmps = 0;
        assert!(s.insert(t(0, &[0.1, 0.9]), &mut cmps));
        assert!(s.insert(t(1, &[0.9, 0.1]), &mut cmps));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn insert_rejects_dominated_tuple() {
        let mut s = window(vec![t(0, &[0.1, 0.1])]);
        let mut cmps = 0;
        assert!(!s.insert(t(1, &[0.5, 0.5]), &mut cmps));
        assert_eq!(s.len(), 1);
        assert_eq!(cmps, 1);
    }

    #[test]
    fn insert_evicts_dominated_window_tuples() {
        let mut s = window(vec![t(0, &[0.5, 0.5]), t(1, &[0.4, 0.9])]);
        let mut cmps = 0;
        assert!(s.insert(t(2, &[0.1, 0.1]), &mut cmps));
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_slice()[0].id, 2);
    }

    #[test]
    fn insert_keeps_duplicates() {
        // Equal vectors do not dominate each other (Definition 1 requires a
        // strictly better dimension), so both stay — consistent with BNL.
        let mut s = window(vec![t(0, &[0.3, 0.3])]);
        let mut cmps = 0;
        assert!(s.insert(t(1, &[0.3, 0.3]), &mut cmps));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn bnl_reference_small_case() {
        let tuples = vec![
            t(0, &[0.2, 0.8]),
            t(1, &[0.8, 0.2]),
            t(2, &[0.5, 0.5]),
            t(3, &[0.9, 0.9]),
            t(4, &[0.1, 0.9]),
        ];
        let sky = bnl_reference(&tuples);
        let ids: Vec<u64> = sky.iter().map(|x| x.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 4]);
    }

    #[test]
    fn compare_partitions_removes_false_positives() {
        let grid = Grid::new(2, 3).unwrap();
        // p4 (center) vs p0 (origin): p0's tuple dominates one of p4's.
        let p0 = grid.index_of(&[0, 0]) as u32;
        let p4 = grid.index_of(&[1, 1]) as u32;
        let sources = LocalSkylines::from([(p0, window(vec![t(0, &[0.1, 0.4])]))]);
        let mut skylines =
            LocalSkylines::from([(p4, window(vec![t(1, &[0.4, 0.5]), t(2, &[0.6, 0.35])]))]);
        let mut stats = CmpStats::default();
        eliminate_false_positives(&grid, &mut skylines, &sources, &mut stats);
        // t1 = (0.4,0.5) is dominated by (0.1,0.4); t2 = (0.6,0.35) is not.
        let s4 = skylines[&p4].as_slice();
        assert_eq!(s4.len(), 1);
        assert_eq!(s4[0].id, 2);
        assert_eq!(stats.partition_cmps, 1);
        assert_eq!(stats.tuple_cmps, 2);
    }

    #[test]
    fn compare_partitions_skips_non_adr_partitions() {
        let grid = Grid::new(2, 3).unwrap();
        let p4 = grid.index_of(&[1, 1]) as u32;
        let p2 = grid.index_of(&[2, 0]) as u32; // not in ADR(p4)
        let sources = LocalSkylines::from([(p2, window(vec![t(0, &[0.7, 0.01])]))]);
        let mut skylines = LocalSkylines::from([(p4, window(vec![t(1, &[0.4, 0.4])]))]);
        let mut stats = CmpStats::default();
        eliminate_false_positives(&grid, &mut skylines, &sources, &mut stats);
        assert_eq!(
            skylines[&p4].len(),
            1,
            "non-ADR partition must not affect p4"
        );
        assert_eq!(stats.partition_cmps, 0, "non-ADR pairs are not counted");
    }

    #[test]
    fn partitions_emptied_by_the_sweep_are_not_compared_against() {
        // p0 empties p1; p3 then has ADR {p0, p1} but only p0 is left.
        let grid = Grid::new(2, 2).unwrap();
        let [p0, p1, p3] = [[0, 0], [1, 0], [1, 1]].map(|c| grid.index_of(&c) as u32);
        let mut skylines = LocalSkylines::from([
            (p0, window(vec![t(0, &[0.1, 0.1])])),
            (p1, window(vec![t(1, &[0.6, 0.2])])),
            (p3, window(vec![t(2, &[0.7, 0.05 + 0.5])])),
        ]);
        let mut stats = CmpStats::default();
        compare_all_partitions(&grid, &mut skylines, &mut stats);
        assert_eq!(skylines.keys().copied().collect::<Vec<_>>(), vec![p0]);
        assert_eq!(
            stats.partition_cmps, 2,
            "p1 vs p0, p3 vs p0 — never p3 vs p1"
        );
    }

    #[test]
    fn packed_adr_test_covers_every_addressable_grid() {
        // Any grid whose cells fit `u32` keys fits the packed layout: the
        // largest such PPD per dimensionality stays within the field.
        for dim in 1..=64usize {
            let mut ppd = 1u64;
            while (ppd + 1)
                .checked_pow(dim as u32)
                .is_some_and(|n| n <= 1 << 32)
            {
                ppd += 1;
            }
            assert!(
                ppd - 1 <= CellQuantizer::new(dim).max_level(),
                "d = {dim}, ppd = {ppd}"
            );
        }
    }

    #[test]
    fn compare_all_drops_emptied_partitions() {
        let grid = Grid::new(2, 2).unwrap();
        let mut skylines = LocalSkylines::new();
        skylines.insert(
            grid.index_of(&[0, 0]) as u32,
            window(vec![t(0, &[0.05, 0.05])]),
        );
        // Partition (1,1): its only tuple is dominated by p0's.
        skylines.insert(
            grid.index_of(&[1, 1]) as u32,
            window(vec![t(1, &[0.8, 0.8])]),
        );
        let mut stats = CmpStats::default();
        compare_all_partitions(&grid, &mut skylines, &mut stats);
        assert_eq!(skylines.len(), 1);
        assert!(skylines.contains_key(&(grid.index_of(&[0, 0]) as u32)));
    }

    #[test]
    fn compare_all_matches_global_bnl() {
        // Partition-aware elimination must agree with a flat BNL skyline.
        let grid = Grid::new(2, 4).unwrap();
        let tuples: Vec<Tuple> = (0..200)
            .map(|i| {
                let a = ((i * 37) % 199) as f64 / 199.0;
                let b = ((i * 83) % 197) as f64 / 197.0;
                t(i as u64, &[a, b])
            })
            .collect();
        let mut skylines = LocalSkylines::new();
        let mut stats = CmpStats::default();
        for tup in &tuples {
            let p = grid.partition_of(tup) as u32;
            insert_into_partition(&mut skylines, p, tup.clone(), &mut stats);
        }
        compare_all_partitions(&grid, &mut skylines, &mut stats);
        let mut got: Vec<Tuple> = skylines.into_values().flatten().collect();
        got.sort_by_key(|x| x.id);
        assert_eq!(got, bnl_reference(&tuples));
        assert!(stats.partition_cmps > 0);
        assert!(stats.tuple_cmps > 0);
    }

    #[test]
    fn all_local_kernels_agree_with_bnl() {
        let tuples: Vec<Tuple> = (0..300)
            .map(|i| {
                let a = ((i * 37) % 199) as f64 / 199.0;
                let b = ((i * 83) % 197) as f64 / 197.0;
                let c = ((i * 11) % 193) as f64 / 193.0;
                t(i as u64, &[a, b, c])
            })
            .collect();
        let expected = bnl_reference(&tuples);
        for algo in [LocalAlgo::Bnl, LocalAlgo::Sfs, LocalAlgo::Dnc] {
            let mut stats = CmpStats::default();
            let mut got = local_skyline(tuples.clone(), algo, &mut stats);
            got.sort_by_key(|x| x.id);
            assert_eq!(got, expected, "{algo:?} kernel disagrees with BNL");
            assert!(stats.tuple_cmps > 0, "{algo:?} counted no comparisons");
        }
    }

    #[test]
    fn local_kernels_handle_duplicates_and_empties() {
        for algo in [LocalAlgo::Bnl, LocalAlgo::Sfs, LocalAlgo::Dnc] {
            let mut stats = CmpStats::default();
            assert!(local_skyline(vec![], algo, &mut stats).is_empty());
            let dupes = vec![t(0, &[0.3, 0.3]), t(1, &[0.3, 0.3]), t(2, &[0.5, 0.5])];
            let got = local_skyline(dupes, algo, &mut stats);
            assert_eq!(got.len(), 2, "{algo:?} mishandled duplicates");
        }
    }

    #[test]
    fn cmp_stats_absorb_adds() {
        let mut a = CmpStats {
            partition_cmps: 1,
            tuple_cmps: 10,
        };
        a.absorb(CmpStats {
            partition_cmps: 2,
            tuple_cmps: 5,
        });
        assert_eq!(
            a,
            CmpStats {
                partition_cmps: 3,
                tuple_cmps: 15
            }
        );
    }
}
