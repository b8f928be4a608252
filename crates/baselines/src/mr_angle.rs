//! MR-Angle (Chen, Hwang, Wu — IPDPS workshops 2012), built on the angular
//! partitioning of Vlachou, Doulkeridis, Kotidis (SIGMOD 2008).
//!
//! The data space is mapped to hyperspherical coordinates around the
//! origin; the `d−1` angular coordinates are partitioned into a grid of
//! angular cells. Because skyline tuples concentrate near the origin, each
//! angular cell's local skyline is a good filter regardless of radius.
//!
//! Two MapReduce phases: mappers tag every tuple with its angular cell
//! (shuffling the whole dataset) and parallel reducers compute a BNL local
//! skyline per cell; then a second job's **single reducer** merges
//! everything with plain BNL — angular cells give no dominance ordering
//! between cells, so no cross-cell pruning is possible (the structural
//! weakness the paper's experiments expose at high dimensionality).
//!
//! Cells here are equi-angle (the original paper proposes equi-volume
//! splits; equi-angle is the common simplification and keeps the partition
//! function cheap — the difference only shifts load balance, not
//! correctness).

use std::f64::consts::FRAC_PI_2;

use skymr_common::{dataset::canonicalize, Dataset, Tuple};
use skymr_mapreduce::{
    map_fn, reduce_fn, run_job, Emitter, JobConfig, ModuloPartitioner, PipelineMetrics,
    SingleReducerPartitioner,
};

use crate::config::{BaselineConfig, BaselineRun};
use crate::mr_bnl::{forward_map, window_insert, CellEntry};

/// Per-angle split counts for a `dim`-dimensional space targeting roughly
/// `target` angular cells: a uniform `⌈target^(1/(d−1))⌉` splits per angle.
pub fn angle_splits(dim: usize, target: usize) -> Vec<usize> {
    assert!(dim >= 1);
    if dim == 1 {
        return Vec::new();
    }
    let angles = dim - 1;
    let per_angle = (target.max(1) as f64).powf(1.0 / angles as f64).ceil() as usize;
    vec![per_angle.max(1); angles]
}

/// The angular cell of a tuple.
///
/// Angle `φ_i = atan2(‖(x_{i+1}, …, x_d)‖, x_i) ∈ [0, π/2]` (all values are
/// non-negative); each is cut into `splits[i]` equal intervals.
pub fn angular_partition(t: &Tuple, splits: &[usize]) -> u32 {
    let d = t.dim();
    debug_assert_eq!(splits.len(), d.saturating_sub(1));
    let mut id = 0usize;
    let mut stride = 1usize;
    for (i, &k) in splits.iter().enumerate() {
        let tail: f64 = t.values[i + 1..].iter().map(|v| v * v).sum::<f64>().sqrt();
        let phi = tail.atan2(t.values[i]); // in [0, π/2]
        let cell = ((phi / FRAC_PI_2) * k as f64) as usize;
        id += cell.min(k - 1) * stride;
        stride *= k;
    }
    id as u32
}

/// Runs the two-phase MR-Angle pipeline with `config.angular_partitions`
/// target cells.
pub fn mr_angle(dataset: &Dataset, config: &BaselineConfig) -> skymr_common::Result<BaselineRun> {
    config.validate()?;
    let splits = dataset.split(config.mappers);
    let mut metrics = PipelineMetrics::new();
    let ft = &config.fault_tolerance;

    let angle_config = angle_splits(dataset.dim(), config.angular_partitions);
    let cells: usize = angle_config.iter().product::<usize>().max(1);
    let r1 = cells.min(config.cluster.reduce_slots).max(1);
    let job1 = JobConfig::new("mr-angle-local", r1).with_fault_tolerance(ft);
    let outcome1 = metrics.track(run_job(
        &config.cluster,
        &job1,
        &splits,
        // Tag every tuple with its angular cell …
        &map_fn(|t: &Tuple, out: &mut Emitter<u32, Tuple>| {
            out.emit(angular_partition(t, &angle_config), t.clone());
        }),
        // … and compute a BNL local skyline per cell.
        &reduce_fn(|key: u32, values: Vec<Tuple>, out| {
            let mut window = Vec::new();
            for t in values {
                out.charge(window_insert(&mut window, t));
            }
            out.collect((key, window));
        }),
        &ModuloPartitioner,
    ))?;

    let splits2: Vec<Vec<CellEntry>> = outcome1.outputs;
    let job2 = JobConfig::new("mr-angle-merge", 1).with_fault_tolerance(ft);
    let outcome2 = metrics.track(run_job(
        &config.cluster,
        &job2,
        &splits2,
        &forward_map(),
        // Plain BNL over all local skylines.
        &reduce_fn(|_: u8, values: Vec<CellEntry>, out| {
            let mut window: Vec<Tuple> = Vec::new();
            for (_, tuples) in values {
                for t in tuples {
                    out.charge(window_insert(&mut window, t));
                }
            }
            for t in window {
                out.collect(t);
            }
        }),
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
    fn angle_splits_shape() {
        assert!(angle_splits(1, 8).is_empty());
        assert_eq!(angle_splits(2, 8), vec![8]);
        assert_eq!(angle_splits(3, 9), vec![3, 3]);
        assert_eq!(angle_splits(4, 8), vec![2, 2, 2]);
    }

    #[test]
    fn angular_partition_separates_axes() {
        // Near the x-axis: φ ≈ 0 (cell 0); near the y-axis: φ ≈ π/2 (last).
        let splits = vec![4];
        let near_x = Tuple::new(0, vec![0.9, 0.01]);
        let near_y = Tuple::new(1, vec![0.01, 0.9]);
        assert_eq!(angular_partition(&near_x, &splits), 0);
        assert_eq!(angular_partition(&near_y, &splits), 3);
        let diagonal = Tuple::new(2, vec![0.5, 0.5]);
        let c = angular_partition(&diagonal, &splits);
        assert!(c == 1 || c == 2, "diagonal lands mid-range, got {c}");
    }

    #[test]
    fn angular_partition_is_total_and_in_range() {
        let ds = generate(Distribution::Independent, 4, 500, 81);
        let splits = angle_splits(4, 27);
        let max: usize = splits.iter().product();
        for t in ds.tuples() {
            assert!((angular_partition(t, &splits) as usize) < max);
        }
    }

    #[test]
    fn matches_bnl_oracle() {
        for dist in [Distribution::Independent, Distribution::Anticorrelated] {
            for dim in [2, 3, 5] {
                let ds = generate(dist, dim, 400, 82);
                let run = mr_angle(&ds, &BaselineConfig::test()).unwrap();
                assert_eq!(
                    run.skyline,
                    bnl_skyline(ds.tuples()),
                    "MR-Angle wrong on {dist:?} d={dim}"
                );
            }
        }
    }

    #[test]
    fn runs_two_jobs_and_shuffles_whole_dataset() {
        let ds = generate(Distribution::Independent, 3, 300, 85);
        let run = mr_angle(&ds, &BaselineConfig::test()).unwrap();
        let names: Vec<&str> = run.metrics.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, vec!["mr-angle-local", "mr-angle-merge"]);
        assert_eq!(run.metrics.jobs[0].map_output_records, ds.len() as u64);
    }

    #[test]
    fn one_dimensional_data_works() {
        let ds = generate(Distribution::Independent, 1, 100, 83);
        let run = mr_angle(&ds, &BaselineConfig::test()).unwrap();
        assert_eq!(run.skyline, bnl_skyline(ds.tuples()));
        assert_eq!(run.skyline.len(), 1);
    }

    #[test]
    fn invariant_to_partition_target() {
        let ds = generate(Distribution::Anticorrelated, 3, 300, 84);
        let base = bnl_skyline(ds.tuples());
        for target in [1, 4, 16, 64] {
            let mut config = BaselineConfig::test();
            config.angular_partitions = target;
            assert_eq!(
                mr_angle(&ds, &config).unwrap().skyline,
                base,
                "target {target} broke MR-Angle"
            );
        }
    }
}
