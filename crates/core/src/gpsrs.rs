//! MR-GPSRS: Grid Partitioning based Single-Reducer Skyline computation
//! (paper Section 4, Algorithms 3–6, Figure 4).
//!
//! Mappers receive disjoint subsets of `R` plus the global bitstring
//! (distributed-cache broadcast). Each mapper drops tuples whose partition
//! was pruned, maintains a BNL-style local skyline per surviving partition
//! (`InsertTuple`), removes cross-partition false positives
//! (`ComparePartitions` over anti-dominating regions), and emits its
//! partition-organized local skyline. A **single reducer** merges the
//! per-partition skylines from all mappers and repeats the false-positive
//! elimination globally, producing the exact global skyline.

use std::sync::Arc;

use skymr_common::dataset::canonicalize;
use skymr_common::{Counters, Dataset, Tuple};
use skymr_mapreduce::{
    run_job, ByteSized, Emitter, JobConfig, MapFactory, MapTask, OutputCollector, PipelineMetrics,
    ReduceFactory, ReduceTask, SingleReducerPartitioner, TaskContext,
};

use crate::bitstring::job::generate_bitstring;
use crate::bitstring::Bitstring;
use crate::checkpoint::BitstringStage;
use crate::config::SkylineConfig;
use crate::grid::Grid;
use crate::local::{
    compare_all_partitions, insert_into_partition, local_window, CmpStats, LocalAlgo, LocalSkylines,
};
use crate::result::{RunInfo, SkylineRun};

/// A mapper's emitted value: its local skyline, organized per partition
/// (the paper's `S`, a set of `S_{p_j}` for non-empty partitions).
pub type PartitionSkylines = Vec<(u32, Vec<Tuple>)>;

pub(crate) fn skylines_to_payload(skylines: LocalSkylines) -> PartitionSkylines {
    skylines
        .into_iter()
        .map(|(p, window)| (p, window.into_vec()))
        .collect()
}

pub(crate) fn record_task_stats(counters: &Counters, side: &str, stats: CmpStats) {
    counters.add(&format!("{side}.partition_cmps"), stats.partition_cmps);
    counters.add(&format!("{side}.tuple_cmps"), stats.tuple_cmps);
    counters.record_max(&format!("{side}.partition_cmps.max"), stats.partition_cmps);
    counters.record_max(&format!("{side}.tuple_cmps.max"), stats.tuple_cmps);
}

/// Map side of MR-GPSRS (Algorithm 3). Shared across both this algorithm
/// and MR-GPMRS, whose map phase is identical up to output routing.
#[derive(Debug)]
pub struct GpsrsMapFactory {
    bitstring: Arc<Bitstring>,
    local_algo: LocalAlgo,
}

impl GpsrsMapFactory {
    /// A factory shipping `bitstring` to every mapper, computing local
    /// skylines with `local_algo`.
    pub fn new(bitstring: Arc<Bitstring>, local_algo: LocalAlgo) -> Self {
        Self {
            bitstring,
            local_algo,
        }
    }
}

/// Per-split mapper state.
#[derive(Debug)]
pub struct GpsrsMapTask {
    bitstring: Arc<Bitstring>,
    local_algo: LocalAlgo,
    /// Incrementally maintained windows (BNL kernel).
    skylines: LocalSkylines,
    /// Buffered partition contents (sort-based kernels).
    buffers: std::collections::BTreeMap<u32, Vec<Tuple>>,
    stats: CmpStats,
    /// Tuples dropped because their partition's bit was pruned (the
    /// dominating-region test, Equation 2).
    dr_pruned: u64,
    counters: Counters,
}

impl GpsrsMapTask {
    pub(crate) fn new(
        bitstring: Arc<Bitstring>,
        counters: Counters,
        local_algo: LocalAlgo,
    ) -> Self {
        Self {
            bitstring,
            local_algo,
            skylines: LocalSkylines::new(),
            buffers: Default::default(),
            stats: CmpStats::default(),
            dr_pruned: 0,
            counters,
        }
    }

    /// Algorithm 3 lines 2–8: filter through the bitstring and update the
    /// partition's local skyline (streaming for BNL; buffered for the
    /// sort-based kernels).
    pub(crate) fn consume(&mut self, t: &Tuple) {
        let p = self.bitstring.grid().partition_of(t);
        if !self.bitstring.is_set(p) {
            self.dr_pruned += 1;
            return;
        }
        match self.local_algo {
            LocalAlgo::Bnl => {
                insert_into_partition(&mut self.skylines, p as u32, t.clone(), &mut self.stats);
            }
            LocalAlgo::Sfs | LocalAlgo::Dnc => {
                self.buffers.entry(p as u32).or_default().push(t.clone());
            }
        }
    }

    /// Algorithm 3 lines 9–10: per-partition skylines (for buffered
    /// kernels) and cross-partition false-positive elimination. Returns
    /// the local skyline and the comparisons the whole split cost.
    pub(crate) fn finalize(&mut self) -> (LocalSkylines, CmpStats) {
        for (p, tuples) in std::mem::take(&mut self.buffers) {
            let skyline = local_window(tuples, self.local_algo, &mut self.stats);
            if !skyline.is_empty() {
                self.skylines.insert(p, skyline);
            }
        }
        let grid = *self.bitstring.grid();
        let before: u64 = self.skylines.values().map(|s| s.len() as u64).sum();
        compare_all_partitions(&grid, &mut self.skylines, &mut self.stats);
        let after: u64 = self.skylines.values().map(|s| s.len() as u64).sum();
        record_task_stats(&self.counters, "map", self.stats);
        self.counters.add("map.dr_pruned_tuples", self.dr_pruned);
        self.counters
            .add("map.adr_removed_tuples", before.saturating_sub(after));
        (std::mem::take(&mut self.skylines), self.stats)
    }
}

impl MapTask for GpsrsMapTask {
    type In = Tuple;
    type K = u8;
    type V = PartitionSkylines;

    fn map(&mut self, input: &Tuple, _out: &mut Emitter<u8, PartitionSkylines>) {
        self.consume(input);
    }

    fn finish(&mut self, out: &mut Emitter<u8, PartitionSkylines>) {
        let (skylines, stats) = self.finalize();
        out.charge(stats.total());
        out.emit(0, skylines_to_payload(skylines));
    }
}

impl MapFactory for GpsrsMapFactory {
    type Task = GpsrsMapTask;
    fn create(&self, ctx: &TaskContext) -> GpsrsMapTask {
        GpsrsMapTask::new(
            Arc::clone(&self.bitstring),
            ctx.counters.clone(),
            self.local_algo,
        )
    }
}

/// Reduce side of MR-GPSRS (Algorithm 6): merge all mappers' local
/// skylines per partition, then eliminate false positives globally.
#[derive(Debug)]
pub struct GpsrsReduceFactory {
    grid: Grid,
}

impl GpsrsReduceFactory {
    /// A factory for the single global-merge reducer.
    pub fn new(grid: Grid) -> Self {
        Self { grid }
    }
}

/// The single reducer's state.
#[derive(Debug)]
pub struct GpsrsReduceTask {
    grid: Grid,
    counters: Counters,
}

impl ReduceTask for GpsrsReduceTask {
    type K = u8;
    type V = PartitionSkylines;
    type Out = Tuple;

    // xtask: hot
    fn reduce(
        &mut self,
        _key: u8,
        values: Vec<PartitionSkylines>,
        out: &mut OutputCollector<Tuple>,
    ) {
        let mut stats = CmpStats::default();
        let mut skylines = LocalSkylines::new();
        // Lines 1–6: merge the k per-partition arrays with InsertTuple.
        for payload in values {
            for (p, tuples) in payload {
                for t in tuples {
                    insert_into_partition(&mut skylines, p, t, &mut stats);
                }
            }
        }
        // Lines 7–8: global ComparePartitions sweep.
        let before: u64 = skylines.values().map(|s| s.len() as u64).sum();
        compare_all_partitions(&self.grid, &mut skylines, &mut stats);
        let after: u64 = skylines.values().map(|s| s.len() as u64).sum();
        record_task_stats(&self.counters, "reduce", stats);
        out.charge(stats.total());
        self.counters
            .add("reduce.adr_removed_tuples", before.saturating_sub(after));
        // Line 9: output the union.
        for tuples in skylines.into_values() {
            for t in tuples {
                out.collect(t);
            }
        }
    }
}

impl ReduceFactory for GpsrsReduceFactory {
    type Task = GpsrsReduceTask;
    fn create(&self, ctx: &TaskContext) -> GpsrsReduceTask {
        GpsrsReduceTask {
            grid: self.grid,
            counters: ctx.counters.clone(),
        }
    }
}

/// Runs the full MR-GPSRS pipeline: bitstring generation job followed by
/// the single-reducer skyline job (runtime includes both, as in the
/// paper's experiments).
///
/// ```
/// use skymr::{mr_gpsrs, SkylineConfig};
/// use skymr_datagen::{generate, Distribution};
///
/// let data = generate(Distribution::Independent, 3, 2_000, 5);
/// let run = mr_gpsrs(&data, &SkylineConfig::test()).unwrap();
/// assert!(!run.skyline.is_empty());
/// assert_eq!(run.metrics.jobs.len(), 2); // bitstring job + skyline job
/// ```
pub fn mr_gpsrs(dataset: &Dataset, config: &SkylineConfig) -> skymr_common::Result<SkylineRun> {
    config.validate()?;
    // The whole two-job pipeline runs under one algorithm-level span.
    let _scope = config
        .telemetry
        .as_ref()
        .map(|c| c.scope("algo", "mr-gpsrs"));
    let splits = dataset.split(config.mappers);
    let mut metrics = PipelineMetrics::new();
    let mut counters = std::collections::BTreeMap::new();
    let mut runner = config.checkpoint.runner()?;

    let BitstringStage {
        bitstring,
        info: bs_info,
    } = runner.stage("bitstring", &mut metrics, |metrics| {
        let (bitstring, info, bs_metrics) =
            generate_bitstring(&splits, dataset.dim(), dataset.len(), config)?;
        metrics.push(bs_metrics);
        Ok(BitstringStage { bitstring, info })
    })?;

    let grid = *bitstring.grid();
    let bitstring = Arc::new(bitstring);
    let job_config = JobConfig::new("gpsrs", 1)
        .with_cache_bytes(bitstring.bits().byte_size())
        .with_fault_tolerance(&config.fault_tolerance)
        .with_collector(config.telemetry.clone());
    let skyline = runner.stage("gpsrs", &mut metrics, |metrics| {
        let outcome = metrics.track(run_job(
            &config.cluster,
            &job_config,
            &splits,
            &GpsrsMapFactory::new(Arc::clone(&bitstring), config.local_algo),
            &GpsrsReduceFactory::new(grid),
            &SingleReducerPartitioner,
        ))?;
        for (k, v) in outcome.counters.snapshot() {
            counters.insert(format!("gpsrs.{k}"), v);
        }
        Ok(canonicalize(outcome.into_flat_output()))
    })?;
    if cfg!(debug_assertions) {
        if let Err(v) = skymr_mapreduce::analysis::check_skyline(&skyline) {
            panic!("mr_gpsrs produced a non-skyline: {v}");
        }
    }
    Ok(SkylineRun {
        skyline,
        metrics,
        counters,
        info: RunInfo {
            ppd: bs_info.ppd,
            partitions: grid.num_partitions(),
            non_empty_partitions: bs_info.non_empty,
            surviving_partitions: bs_info.surviving,
            independent_groups: 0,
            buckets: 1,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::bnl_reference;
    use skymr_datagen::{generate, Distribution};

    #[test]
    fn matches_bnl_oracle_on_independent_data() {
        let ds = generate(Distribution::Independent, 3, 800, 4);
        let run = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(run.skyline, bnl_reference(ds.tuples()));
        assert!(!run.skyline.is_empty());
    }

    #[test]
    fn matches_bnl_oracle_on_anticorrelated_data() {
        let ds = generate(Distribution::Anticorrelated, 4, 600, 5);
        let run = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(run.skyline, bnl_reference(ds.tuples()));
        // Anti-correlated skylines are a sizable fraction of the input.
        assert!(run.skyline.len() > ds.len() / 50);
    }

    #[test]
    fn result_is_invariant_to_mapper_count() {
        let ds = generate(Distribution::Correlated, 3, 500, 6);
        let base = mr_gpsrs(&ds, &SkylineConfig::test().with_mappers(1)).unwrap();
        for m in [2, 5, 9] {
            let run = mr_gpsrs(&ds, &SkylineConfig::test().with_mappers(m)).unwrap();
            assert_eq!(
                run.skyline_ids(),
                base.skyline_ids(),
                "mismatch with {m} mappers"
            );
        }
    }

    #[test]
    fn result_is_invariant_to_ppd() {
        let ds = generate(Distribution::Independent, 2, 400, 7);
        let base = bnl_reference(ds.tuples());
        for ppd in [1, 2, 4, 8, 16] {
            let run = mr_gpsrs(&ds, &SkylineConfig::test().with_ppd(ppd)).unwrap();
            assert_eq!(run.skyline, base, "mismatch with PPD {ppd}");
        }
    }

    #[test]
    fn all_local_kernels_give_identical_results() {
        let ds = generate(Distribution::Anticorrelated, 4, 700, 11);
        let base = bnl_reference(ds.tuples());
        for algo in [LocalAlgo::Bnl, LocalAlgo::Sfs, LocalAlgo::Dnc] {
            let mut config = SkylineConfig::test();
            config.local_algo = algo;
            let run = mr_gpsrs(&ds, &config).unwrap();
            assert_eq!(
                run.skyline, base,
                "{algo:?} local kernel changed the skyline"
            );
        }
    }

    #[test]
    fn auto_ppd_policy_works_end_to_end() {
        let ds = generate(Distribution::Independent, 3, 700, 8);
        let mut config = SkylineConfig::test();
        config.ppd = crate::config::PpdPolicy::auto();
        let run = mr_gpsrs(&ds, &config).unwrap();
        assert_eq!(run.skyline, bnl_reference(ds.tuples()));
        assert!(run.info.ppd >= 2);
    }

    #[test]
    fn pipeline_has_two_jobs_and_counters() {
        let ds = generate(Distribution::Independent, 3, 300, 9);
        let run = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(run.metrics.jobs.len(), 2);
        assert_eq!(run.metrics.jobs[0].name, "bitstring");
        assert_eq!(run.metrics.jobs[1].name, "gpsrs");
        assert!(run.counters.contains_key("gpsrs.map.tuple_cmps"));
        assert!(run.counters.contains_key("gpsrs.reduce.tuple_cmps"));
        // The bitstring was broadcast to mappers.
        assert!(run.metrics.jobs[1].cache_bytes > 0);
    }

    #[test]
    fn empty_dataset_yields_empty_skyline() {
        let ds = Dataset::new(3, vec![]).unwrap();
        let run = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert!(run.skyline.is_empty());
    }

    #[test]
    fn single_tuple_is_its_own_skyline() {
        let ds = Dataset::new(2, vec![Tuple::new(7, vec![0.3, 0.4])]).unwrap();
        let run = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(run.skyline_ids(), vec![7]);
    }

    #[test]
    fn duplicates_all_survive() {
        let ds = Dataset::new(
            2,
            vec![
                Tuple::new(0, vec![0.2, 0.2]),
                Tuple::new(1, vec![0.2, 0.2]),
                Tuple::new(2, vec![0.8, 0.8]),
            ],
        )
        .unwrap();
        let run = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(run.skyline_ids(), vec![0, 1]);
    }

    #[test]
    fn survives_injected_failures() {
        let ds = generate(Distribution::Independent, 3, 400, 10);
        let clean = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        let mut config = SkylineConfig::test();
        config.fault_tolerance = skymr_mapreduce::FaultTolerance::with_plan(
            skymr_mapreduce::FaultPlan::fail_maps([0, 1]).for_job("gpsrs"),
        );
        let failed = mr_gpsrs(&ds, &config).unwrap();
        assert_eq!(failed.skyline_ids(), clean.skyline_ids());
        assert_eq!(failed.metrics.jobs[1].map_retries, 2);
        assert_eq!(
            failed.metrics.jobs[0].map_retries, 0,
            "plan is scoped to the gpsrs job"
        );
    }
}
