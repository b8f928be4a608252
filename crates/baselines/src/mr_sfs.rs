//! MR-SFS (Zhang, Zhou, Guan — DASFAA 2011 workshops).
//!
//! The same two-phase pipeline as [`crate::mr_bnl`](mod@crate::mr_bnl) — shuffle every tuple
//! to its `2^d` midpoint cell, local skylines in parallel reducers, then a
//! single-reducer merge — but the phase-1 reducers compute their local
//! skylines with Sort-Filter-Skyline: buffer, presort by the entropy
//! score, filter in one pass. The buffering and sorting make it strictly
//! more expensive than MR-BNL on the same inputs, which is why the paper
//! drops it from the comparison plots; it is included here for
//! completeness.

use skymr_common::{dataset::canonicalize, Dataset, Tuple};
use skymr_mapreduce::{
    reduce_fn, run_job, run_job_from, JobConfig, ModuloPartitioner, PipelineMetrics, RoundRobin,
    SingleReducerPartitioner,
};

use crate::config::{BaselineConfig, BaselineRun};
use crate::mr_bnl::{
    forward_map, merge_reduce, partition_map, phase1_reducers, CellEntry, MergeStrategy,
};
use crate::sfs::{sfs_skyline_counted, SfsOrder};

/// Runs the two-phase MR-SFS pipeline.
pub fn mr_sfs(dataset: &Dataset, config: &BaselineConfig) -> skymr_common::Result<BaselineRun> {
    config.validate()?;
    let splits = RoundRobin::new(dataset.tuples(), config.mappers);
    let mut metrics = PipelineMetrics::new();
    let ft = &config.fault_tolerance;

    let r1 = phase1_reducers(dataset.dim(), config.cluster.reduce_slots);
    let job1 = JobConfig::new("mr-sfs-local", r1).with_fault_tolerance(ft);
    let outcome1 = metrics.track(run_job_from(
        &config.cluster,
        &job1,
        &splits,
        &partition_map(),
        // SFS local skyline per cell.
        &reduce_fn(|key: u32, values: Vec<Tuple>, out| {
            let mut examined = 0;
            let skyline = sfs_skyline_counted(&values, SfsOrder::Entropy, &mut examined);
            out.charge(examined);
            out.collect((key, skyline));
        }),
        &ModuloPartitioner,
    ))?;

    let splits2: Vec<Vec<CellEntry>> = outcome1.outputs;
    let job2 = JobConfig::new("mr-sfs-merge", 1).with_fault_tolerance(ft);
    let outcome2 = metrics.track(run_job(
        &config.cluster,
        &job2,
        &splits2,
        &forward_map(),
        &merge_reduce(MergeStrategy::PlainBnl),
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
    fn matches_bnl_oracle() {
        for dist in [Distribution::Independent, Distribution::Anticorrelated] {
            for dim in [2, 4] {
                let ds = generate(dist, dim, 350, 71);
                let run = mr_sfs(&ds, &BaselineConfig::test()).unwrap();
                assert_eq!(
                    run.skyline,
                    bnl_skyline(ds.tuples()),
                    "MR-SFS wrong on {dist:?} d={dim}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_mr_bnl() {
        let ds = generate(Distribution::Clustered { clusters: 3 }, 3, 400, 72);
        let a = mr_sfs(&ds, &BaselineConfig::test()).unwrap();
        let b = crate::mr_bnl::mr_bnl(&ds, &BaselineConfig::test()).unwrap();
        assert_eq!(a.skyline_ids(), b.skyline_ids());
    }

    #[test]
    fn runs_two_jobs() {
        let ds = generate(Distribution::Independent, 3, 300, 73);
        let run = mr_sfs(&ds, &BaselineConfig::test()).unwrap();
        let names: Vec<&str> = run.metrics.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, vec!["mr-sfs-local", "mr-sfs-merge"]);
    }

    #[test]
    fn empty_input() {
        let ds = Dataset::new(3, vec![]).unwrap();
        assert!(mr_sfs(&ds, &BaselineConfig::test())
            .unwrap()
            .skyline
            .is_empty());
    }
}
