//! MR-BNL (Zhang, Zhou, Guan — DASFAA 2011 workshops).
//!
//! Two MapReduce phases, as in the original:
//!
//! 1. **Partition + local skylines.** Each dimension is split into two
//!    halves at the midpoint, giving `2^d` cells identified by a bit code
//!    (bit `k` set ⇔ the tuple is in the upper half of dimension `k`).
//!    Mappers tag every tuple with its cell code — shuffling the *entire
//!    dataset* — and the reducers (one per cell, up to the slot count)
//!    compute a BNL local skyline per cell in parallel.
//! 2. **Global merge.** A second job with a **single reducer** merges all
//!    local skylines, skipping cell pairs whose codes rule out dominance
//!    (cell `A` can contain dominators of cell `B` only if `A`'s code is
//!    bitwise ≤ `B`'s).
//!
//! Unlike the paper's bitstring, the cell codes say nothing about which
//! cells are *occupied*, so no data is pruned before the shuffle — the
//! distinction the paper's related-work section draws ("merely codes for
//! data partitions but not for data contents"), and the reason MR-BNL
//! ships the whole dataset where MR-GPSRS ships only local skylines.

use std::collections::BTreeMap;

use skymr_common::dominance::{compare, DomOrdering, Window};
use skymr_common::{dataset::canonicalize, Dataset, Tuple};
use skymr_mapreduce::{
    map_fn, reduce_fn, run_job, run_job_from, Emitter, FnSplits, JobConfig, MapFactory, MapTask,
    ModuloPartitioner, OutputCollector, PipelineMetrics, ReduceFactory, ReduceTask,
    SingleReducerPartitioner,
};

use crate::config::{BaselineConfig, BaselineRun};

/// Per-cell local skylines keyed by the `2^d` cell code.
pub type CellSkylines = BTreeMap<u32, Vec<Tuple>>;

/// A `(cell, local skyline)` pair as shuffled by the merge phase.
pub type CellEntry = (u32, Vec<Tuple>);

/// The 2-halves cell code of a tuple: bit `k` set iff `values[k] ≥ 0.5`.
pub fn cell_code(t: &Tuple) -> u32 {
    let mut code = 0u32;
    for (k, &v) in t.values.iter().enumerate() {
        if v >= 0.5 {
            code |= 1 << k;
        }
    }
    code
}

/// `true` iff cell `a` may contain tuples dominating tuples of cell `b`.
pub fn cell_may_dominate(a: u32, b: u32) -> bool {
    a != b && a & !b == 0
}

/// Scalar BNL window insert of MR-Angle and SKY-MR, which have not moved
/// to the signature-filtered [`Window`] that MR-BNL's reducers use.
/// Returns the pairs examined.
pub(crate) fn window_insert(window: &mut Vec<Tuple>, t: Tuple) -> u64 {
    let mut examined = 0;
    let mut i = 0;
    while i < window.len() {
        examined += 1;
        match compare(&window[i], &t) {
            DomOrdering::Dominates => return examined,
            DomOrdering::DominatedBy => {
                window.swap_remove(i);
            }
            DomOrdering::Incomparable => i += 1,
        }
    }
    window.push(t);
    examined
}

/// Cross-cell false-positive elimination with cell-code skipping: remove
/// from each cell every tuple dominated by another cell's skyline,
/// skipping pairs whose codes rule dominance out.
///
/// This is **not** what Zhang et al.'s MR-BNL does — their merge is a
/// plain BNL over all local skylines (the flags are "merely codes for data
/// partitions but not for data contents", as the paper's related-work
/// section puts it). It is kept as the [`MergeStrategy::CellCodePruning`]
/// ablation variant, quantifying how much a content-aware merge would have
/// helped the baseline.
pub fn eliminate_across_cells(cells: &mut CellSkylines) {
    let mut windows: BTreeMap<u32, Window> = std::mem::take(cells)
        .into_iter()
        .map(|(code, tuples)| (code, Window::from(tuples)))
        .collect();
    eliminate_across_windows(&mut windows);
    *cells = windows
        .into_iter()
        .map(|(code, window)| (code, window.into_vec()))
        .collect();
}

/// [`eliminate_across_cells`] over signed windows; returns the pairs
/// examined.
fn eliminate_across_windows(cells: &mut BTreeMap<u32, Window>) -> u64 {
    let codes: Vec<u32> = cells.keys().copied().collect();
    let mut examined = 0;
    for &b in &codes {
        let Some(mut sb) = cells.remove(&b) else {
            continue;
        };
        for (&a, sa) in cells.iter() {
            if !cell_may_dominate(a, b) {
                continue;
            }
            sb.prune_by(sa, &mut examined);
            if sb.is_empty() {
                break;
            }
        }
        if !sb.is_empty() {
            cells.insert(b, sb);
        }
    }
    examined
}

// ---------------------------------------------------------------------
// Phase 1: partition every tuple to its cell, local skyline per cell.
// ---------------------------------------------------------------------

/// Phase-1 mapper: tags every tuple with its cell code.
pub fn partition_map() -> impl MapFactory<Task = impl MapTask<In = Tuple, K = u32, V = Tuple>> {
    map_fn(|t: &Tuple, out: &mut Emitter<u32, Tuple>| out.emit(cell_code(t), t.clone()))
}

/// Phase-1 reducer: BNL local skyline per cell.
pub fn local_skyline_reduce(
) -> impl ReduceFactory<Task = impl ReduceTask<K = u32, V = Tuple, Out = CellEntry>> {
    reduce_fn(|key: u32, values: Vec<Tuple>, out| {
        let mut window = Window::default();
        let mut examined = 0;
        for t in values {
            window.insert(t, &mut examined);
        }
        out.charge(examined);
        out.collect((key, window.into_vec()));
    })
}

// ---------------------------------------------------------------------
// Phase 2: single-reducer global merge.
// ---------------------------------------------------------------------

/// Phase-2 mapper: forwards `(cell, local skyline)` entries to the single
/// merge reducer.
pub fn forward_map() -> impl MapFactory<Task = impl MapTask<In = CellEntry, K = u8, V = CellEntry>>
{
    map_fn(|entry: &CellEntry, out: &mut Emitter<u8, CellEntry>| out.emit(0, entry.clone()))
}

/// How the single merge reducer combines the per-cell local skylines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeStrategy {
    /// Plain BNL over all local skylines — Zhang et al.'s MR-BNL. The
    /// merge cost grows with the square of the combined skyline size,
    /// which is what makes the baseline fail to terminate on
    /// high-dimensional anti-correlated data in the paper's experiments.
    #[default]
    PlainBnl,
    /// Cell-code-aware merge (ablation): per-cell windows, cross-cell
    /// elimination only between code-comparable cells.
    CellCodePruning,
}

/// Phase-2 reducer: the single-reducer merge under `strategy`.
pub fn merge_reduce(
    strategy: MergeStrategy,
) -> impl ReduceFactory<Task = impl ReduceTask<K = u8, V = CellEntry, Out = Tuple>> {
    reduce_fn(
        move |_: u8, values: Vec<CellEntry>, out: &mut OutputCollector<Tuple>| {
            let mut examined = 0;
            match strategy {
                MergeStrategy::PlainBnl => {
                    let mut window = Window::default();
                    for (_, tuples) in values {
                        for t in tuples {
                            window.insert(t, &mut examined);
                        }
                    }
                    for t in window {
                        out.collect(t);
                    }
                }
                MergeStrategy::CellCodePruning => {
                    let mut cells: BTreeMap<u32, Window> = BTreeMap::new();
                    for (code, tuples) in values {
                        let window = cells.entry(code).or_default();
                        for t in tuples {
                            window.insert(t, &mut examined);
                        }
                    }
                    examined += eliminate_across_windows(&mut cells);
                    for window in cells.into_values() {
                        for t in window {
                            out.collect(t);
                        }
                    }
                }
            }
            out.charge(examined);
        },
    )
}

/// Number of phase-1 reducers: one per cell, capped by the cluster's
/// reduce slots.
pub(crate) fn phase1_reducers(dim: usize, reduce_slots: usize) -> usize {
    let cells = 1usize.checked_shl(dim as u32).unwrap_or(usize::MAX);
    cells.min(reduce_slots).max(1)
}

/// Runs the two-phase MR-BNL pipeline with the faithful plain-BNL merge.
pub fn mr_bnl(dataset: &Dataset, config: &BaselineConfig) -> skymr_common::Result<BaselineRun> {
    mr_bnl_with_strategy(dataset, config, MergeStrategy::PlainBnl)
}

/// Runs MR-BNL with an explicit merge strategy (ablations).
pub fn mr_bnl_with_strategy(
    dataset: &Dataset,
    config: &BaselineConfig,
    strategy: MergeStrategy,
) -> skymr_common::Result<BaselineRun> {
    config.validate()?;
    // Split `i` is cloned out of the dataset inside the map attempt that
    // runs it and dropped with it: the driver copies nothing, and only the
    // in-flight splits are resident beside the dataset.
    let m = config.mappers;
    let lens = (0..m).map(|i| dataset.split_part(i, m).len()).collect();
    let splits = FnSplits::new(lens, |i| dataset.split_part(i, m).cloned().collect());
    let mut metrics = PipelineMetrics::new();
    let ft = &config.fault_tolerance;

    // Phase 1: shuffle all tuples to per-cell reducers.
    let r1 = phase1_reducers(dataset.dim(), config.cluster.reduce_slots);
    let job1 = JobConfig::new("mr-bnl-local", r1).with_fault_tolerance(ft);
    let outcome1 = metrics.track(run_job_from(
        &config.cluster,
        &job1,
        &splits,
        &partition_map(),
        &local_skyline_reduce(),
        &ModuloPartitioner,
    ))?;

    // Phase 2: single-reducer merge. Each phase-1 reducer's output plays
    // the role of one input split (one HDFS file per reducer).
    let splits2: Vec<Vec<CellEntry>> = outcome1.outputs;
    let job2 = JobConfig::new("mr-bnl-merge", 1).with_fault_tolerance(ft);
    let outcome2 = metrics.track(run_job(
        &config.cluster,
        &job2,
        &splits2,
        &forward_map(),
        &merge_reduce(strategy),
        &SingleReducerPartitioner,
    ))?;

    Ok(BaselineRun {
        skyline: canonicalize(outcome2.into_flat_output()),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;
    use skymr_datagen::{generate, Distribution};

    #[test]
    fn cell_code_splits_at_midpoint() {
        assert_eq!(cell_code(&Tuple::new(0, vec![0.1, 0.1])), 0b00);
        assert_eq!(cell_code(&Tuple::new(0, vec![0.9, 0.1])), 0b01);
        assert_eq!(cell_code(&Tuple::new(0, vec![0.1, 0.9])), 0b10);
        assert_eq!(cell_code(&Tuple::new(0, vec![0.5, 0.5])), 0b11);
    }

    #[test]
    fn cell_dominance_codes() {
        assert!(cell_may_dominate(0b00, 0b11));
        assert!(cell_may_dominate(0b00, 0b01));
        assert!(cell_may_dominate(0b01, 0b11));
        assert!(
            !cell_may_dominate(0b01, 0b10),
            "disjoint halves cannot dominate"
        );
        assert!(!cell_may_dominate(0b11, 0b00));
        assert!(
            !cell_may_dominate(0b01, 0b01),
            "a cell does not dominate itself"
        );
    }

    #[test]
    fn phase1_reducer_count_is_capped() {
        assert_eq!(phase1_reducers(2, 13), 4);
        assert_eq!(phase1_reducers(6, 13), 13);
        assert_eq!(phase1_reducers(1, 13), 2);
    }

    #[test]
    fn matches_bnl_oracle() {
        for dist in [
            Distribution::Independent,
            Distribution::Anticorrelated,
            Distribution::Correlated,
        ] {
            for dim in [2, 3, 6] {
                let ds = generate(dist, dim, 400, 61);
                let run = mr_bnl(&ds, &BaselineConfig::test()).unwrap();
                assert_eq!(
                    run.skyline,
                    bnl_skyline(ds.tuples()),
                    "MR-BNL wrong on {dist:?} d={dim}"
                );
            }
        }
    }

    #[test]
    fn runs_two_jobs_and_shuffles_whole_dataset() {
        let ds = generate(Distribution::Independent, 3, 500, 65);
        let run = mr_bnl(&ds, &BaselineConfig::test()).unwrap();
        assert_eq!(run.metrics.jobs.len(), 2);
        assert_eq!(run.metrics.jobs[0].name, "mr-bnl-local");
        assert_eq!(run.metrics.jobs[1].name, "mr-bnl-merge");
        // Phase 1 ships every input tuple through the shuffle.
        assert_eq!(run.metrics.jobs[0].map_output_records, ds.len() as u64);
    }

    #[test]
    fn merge_strategies_agree() {
        for dist in [Distribution::Independent, Distribution::Anticorrelated] {
            let ds = generate(dist, 4, 400, 64);
            let plain = mr_bnl_with_strategy(&ds, &BaselineConfig::test(), MergeStrategy::PlainBnl)
                .unwrap();
            let pruned =
                mr_bnl_with_strategy(&ds, &BaselineConfig::test(), MergeStrategy::CellCodePruning)
                    .unwrap();
            assert_eq!(
                plain.skyline_ids(),
                pruned.skyline_ids(),
                "strategies differ on {dist:?}"
            );
        }
    }

    #[test]
    fn invariant_to_mapper_count() {
        let ds = generate(Distribution::Anticorrelated, 3, 300, 62);
        let base = mr_bnl(&ds, &BaselineConfig::test().with_mappers(1)).unwrap();
        for m in [2, 4, 7] {
            let run = mr_bnl(&ds, &BaselineConfig::test().with_mappers(m)).unwrap();
            assert_eq!(run.skyline_ids(), base.skyline_ids());
        }
    }

    #[test]
    fn empty_input() {
        let ds = Dataset::new(2, vec![]).unwrap();
        assert!(mr_bnl(&ds, &BaselineConfig::test())
            .unwrap()
            .skyline
            .is_empty());
    }

    #[test]
    fn survives_injected_failures() {
        let ds = generate(Distribution::Independent, 3, 200, 63);
        let clean = mr_bnl(&ds, &BaselineConfig::test()).unwrap();
        let mut config = BaselineConfig::test();
        config.fault_tolerance =
            skymr_mapreduce::FaultTolerance::with_plan(skymr_mapreduce::FaultPlan::fail_maps([0]));
        let failed = mr_bnl(&ds, &config).unwrap();
        assert_eq!(failed.skyline_ids(), clean.skyline_ids());
        assert_eq!(failed.metrics.jobs[0].map_retries, 1);
    }
}
