//! MR-GPMRS: Grid Partitioning based Multiple-Reducer Skyline computation
//! (paper Section 5, Algorithms 8–9, Figure 5).
//!
//! The map phase is MR-GPSRS's (per-partition local skylines plus
//! false-positive elimination) with different output routing: every mapper
//! deterministically derives the same [`GroupPlan`] from the global
//! bitstring — independent partition groups (Algorithm 7), merged into at
//! most `r` buckets (Section 5.4.1) — splits its local skyline along the
//! buckets' partition sets, and emits one payload per bucket. Reducer `j`
//! then owns an ADR-closed set of partitions: by Lemma 2 it can finalize
//! their skylines *without coordination*, and multiple reducers emit
//! disjoint parts of the global skyline in parallel. Partitions replicated
//! across buckets are output only by their designated bucket
//! (Section 5.4.2), so the union over reducers is exact and duplicate-free.

use std::sync::Arc;

use skymr_common::dataset::canonicalize;
use skymr_common::dominance::Window;
use skymr_common::{Counters, Dataset, Tuple};
use skymr_mapreduce::{
    run_job, ByteSized, Emitter, JobConfig, MapFactory, MapTask, ModuloPartitioner,
    OutputCollector, PipelineMetrics, ReduceFactory, ReduceTask, TaskContext,
};

use crate::bitstring::job::generate_bitstring;
use crate::bitstring::Bitstring;
use crate::checkpoint::BitstringStage;
use crate::config::SkylineConfig;
use crate::gpsrs::{record_task_stats, GpsrsMapTask, PartitionSkylines};
use crate::groups::{plan_groups, GroupPlan};
use crate::local::{eliminate_false_positives, insert_into_partition, CmpStats, LocalSkylines};
use crate::result::{RunInfo, SkylineRun};

/// Map side of MR-GPMRS (Algorithm 8).
#[derive(Debug)]
pub struct GpmrsMapFactory {
    bitstring: Arc<Bitstring>,
    plan: Arc<GroupPlan>,
    local_algo: crate::local::LocalAlgo,
}

impl GpmrsMapFactory {
    /// A factory shipping the bitstring and the (deterministically derived)
    /// group plan to every mapper.
    pub fn new(
        bitstring: Arc<Bitstring>,
        plan: Arc<GroupPlan>,
        local_algo: crate::local::LocalAlgo,
    ) -> Self {
        Self {
            bitstring,
            plan,
            local_algo,
        }
    }
}

/// Per-split mapper state: the shared GPSRS local-skyline logic plus the
/// group plan used to route output.
#[derive(Debug)]
pub struct GpmrsMapTask {
    inner: GpsrsMapTask,
    plan: Arc<GroupPlan>,
}

impl MapTask for GpmrsMapTask {
    type In = Tuple;
    type K = u32;
    type V = PartitionSkylines;

    fn map(&mut self, input: &Tuple, _out: &mut Emitter<u32, PartitionSkylines>) {
        self.inner.consume(input);
    }

    fn finish(&mut self, out: &mut Emitter<u32, PartitionSkylines>) {
        // Algorithm 8 lines 9–10 (false-positive elimination) …
        let (skylines, stats) = self.inner.finalize();
        out.charge(stats.total());
        // … lines 11–19: split the local skyline along the bucket partition
        // sets and send each piece to its reducer. A partition lying in
        // several buckets is replicated, exactly as the paper requires:
        // its skyline moves into the last bucket holding it and only the
        // earlier, genuinely replicated copies are cloned.
        let buckets = &self.plan.buckets;
        let mut pending: Vec<(u32, Option<usize>, Vec<Tuple>)> = skylines
            .into_iter()
            .map(|(p, window)| {
                let last = buckets.iter().rposition(|b| b.partitions.contains(&p));
                (p, last, window.into_vec())
            })
            .collect();
        for (bucket_index, bucket) in buckets.iter().enumerate() {
            let payload: PartitionSkylines = pending
                .iter_mut()
                .filter(|(p, _, _)| bucket.partitions.contains(p))
                .map(|(p, last, s)| {
                    let tuples = if *last == Some(bucket_index) {
                        std::mem::take(s)
                    } else {
                        s.clone()
                    };
                    (*p, tuples)
                })
                .collect();
            // Empty payloads are still emitted: every reducer must hear
            // from every mapper so merge order stays deterministic.
            out.emit(bucket_index as u32, payload);
        }
    }
}

impl MapFactory for GpmrsMapFactory {
    type Task = GpmrsMapTask;
    fn create(&self, ctx: &TaskContext) -> GpmrsMapTask {
        GpmrsMapTask {
            inner: GpsrsMapTask::new(
                Arc::clone(&self.bitstring),
                ctx.counters.clone(),
                self.local_algo,
            ),
            plan: Arc::clone(&self.plan),
        }
    }
}

/// Reduce side of MR-GPMRS (Algorithm 9): finalize one bucket's partitions
/// independently and output only designated partitions.
#[derive(Debug)]
pub struct GpmrsReduceFactory {
    bitstring: Arc<Bitstring>,
    plan: Arc<GroupPlan>,
}

impl GpmrsReduceFactory {
    /// A factory over the shared bitstring and plan.
    pub fn new(bitstring: Arc<Bitstring>, plan: Arc<GroupPlan>) -> Self {
        Self { bitstring, plan }
    }
}

/// Reducer state for one bucket.
#[derive(Debug)]
pub struct GpmrsReduceTask {
    bitstring: Arc<Bitstring>,
    plan: Arc<GroupPlan>,
    counters: Counters,
}

impl ReduceTask for GpmrsReduceTask {
    type K = u32;
    type V = PartitionSkylines;
    type Out = Tuple;

    // xtask: hot
    fn reduce(
        &mut self,
        key: u32,
        values: Vec<PartitionSkylines>,
        out: &mut OutputCollector<Tuple>,
    ) {
        let bucket_index = key as usize;
        let grid = *self.bitstring.grid();
        let mut stats = CmpStats::default();
        // Section 5.4.2: a reducer "only computes and outputs the local
        // skyline for a replicated partition if it receives the designation
        // notification". Partitions designated elsewhere serve purely as
        // *comparison sources* here, so their per-mapper pieces are
        // concatenated without the quadratic merge — a tuple dominated
        // within such a concatenation can only ever remove tuples its own
        // dominator would remove too, so using the raw union is sound.
        let mut sources: std::collections::BTreeMap<u32, Vec<Tuple>> =
            std::collections::BTreeMap::new();
        for payload in values {
            for (p, tuples) in payload {
                debug_assert!(
                    self.plan.buckets[bucket_index].partitions.contains(&p),
                    "partition {p} routed to wrong bucket {bucket_index}"
                );
                sources.entry(p).or_default().extend(tuples);
            }
        }
        // Lines 1–8 for the designated partitions only: merge the
        // per-mapper local skylines with InsertTuple. Designated entries
        // are *moved* out of `sources` rather than cloned: the merged
        // skyline eliminates everything the raw union would (a dropped
        // union tuple's dominator survives the merge, and dominance is
        // transitive), so the union is not needed afterwards.
        let designated: Vec<u32> = sources
            .keys()
            .copied()
            .filter(|p| self.plan.designated.get(p) == Some(&bucket_index))
            .collect();
        let mut skylines = LocalSkylines::new();
        for p in designated {
            let Some(tuples) = sources.remove(&p) else {
                continue;
            };
            for t in tuples {
                insert_into_partition(&mut skylines, p, t, &mut stats);
            }
        }
        // Lines 9–10: false-positive elimination for designated partitions
        // against every partition of the bucket — the raw unions still in
        // `sources` plus the other designated partitions' merged skylines.
        // Every designated partition's surviving ADR lies inside its own
        // independent group, hence inside this bucket (Lemma 2) — no other
        // data is needed.
        let sources: LocalSkylines = sources
            .into_iter()
            .map(|(q, tuples)| (q, Window::from(tuples)))
            .collect();
        eliminate_false_positives(&grid, &mut skylines, &sources, &mut stats);
        record_task_stats(&self.counters, "reduce", stats);
        out.charge(stats.total());
        // Per-bucket (partition-group) comparison counts: each bucket is an
        // ADR-closed set of partitions, so these expose the per-group
        // balance the merge policy aimed for.
        self.counters.add(
            &format!("reduce.bucket.{bucket_index}.partition_cmps"),
            stats.partition_cmps,
        );
        self.counters.add(
            &format!("reduce.bucket.{bucket_index}.tuple_cmps"),
            stats.tuple_cmps,
        );
        self.counters.add(
            &format!("reduce.bucket.{bucket_index}.designated_partitions"),
            skylines.len() as u64,
        );
        // Line 11: emit the finalized designated partitions.
        for tuples in skylines.into_values() {
            for t in tuples {
                out.collect(t);
            }
        }
    }
}

impl ReduceFactory for GpmrsReduceFactory {
    type Task = GpmrsReduceTask;
    fn create(&self, ctx: &TaskContext) -> GpmrsReduceTask {
        GpmrsReduceTask {
            bitstring: Arc::clone(&self.bitstring),
            plan: Arc::clone(&self.plan),
            counters: ctx.counters.clone(),
        }
    }
}

/// Runs the full MR-GPMRS pipeline: bitstring generation job followed by
/// the multi-reducer skyline job.
pub fn mr_gpmrs(dataset: &Dataset, config: &SkylineConfig) -> skymr_common::Result<SkylineRun> {
    config.validate()?;
    // The whole two-job pipeline runs under one algorithm-level span.
    let _scope = config
        .telemetry
        .as_ref()
        .map(|c| c.scope("algo", "mr-gpmrs"));
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
    let plan = plan_groups(&bitstring, config.reducers, config.merge_policy);
    let mut info = RunInfo {
        ppd: bs_info.ppd,
        partitions: grid.num_partitions(),
        non_empty_partitions: bs_info.non_empty,
        surviving_partitions: bs_info.surviving,
        independent_groups: plan.groups.len(),
        buckets: plan.num_buckets(),
    };

    if plan.num_buckets() == 0 {
        // Empty input: nothing survived the bitstring job.
        return Ok(SkylineRun {
            skyline: Vec::new(),
            metrics,
            counters,
            info,
        });
    }

    let bitstring = Arc::new(bitstring);
    let plan = Arc::new(plan);
    let job_config = JobConfig::new("gpmrs", plan.num_buckets())
        .with_cache_bytes(bitstring.bits().byte_size())
        .with_fault_tolerance(&config.fault_tolerance)
        .with_collector(config.telemetry.clone());
    let skyline = runner.stage("gpmrs", &mut metrics, |metrics| {
        let outcome = metrics.track(run_job(
            &config.cluster,
            &job_config,
            &splits,
            &GpmrsMapFactory::new(Arc::clone(&bitstring), Arc::clone(&plan), config.local_algo),
            &GpmrsReduceFactory::new(Arc::clone(&bitstring), Arc::clone(&plan)),
            &ModuloPartitioner,
        ))?;
        for (k, v) in outcome.counters.snapshot() {
            counters.insert(format!("gpmrs.{k}"), v);
        }
        Ok(canonicalize(outcome.into_flat_output()))
    })?;
    info.buckets = plan.num_buckets();
    if cfg!(debug_assertions) {
        if let Err(v) = skymr_mapreduce::analysis::check_skyline(&skyline) {
            panic!("mr_gpmrs produced a non-skyline: {v}");
        }
    }
    Ok(SkylineRun {
        skyline,
        metrics,
        counters,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpsrs::mr_gpsrs;
    use crate::groups::MergePolicy;
    use crate::local::bnl_reference;
    use skymr_datagen::{generate, Distribution};

    #[test]
    fn matches_bnl_oracle_on_all_distributions() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::Anticorrelated,
            Distribution::Clustered { clusters: 3 },
        ] {
            let ds = generate(dist, 3, 600, 21);
            let run = mr_gpmrs(&ds, &SkylineConfig::test()).unwrap();
            assert_eq!(
                run.skyline,
                bnl_reference(ds.tuples()),
                "mismatch on {dist:?}"
            );
        }
    }

    #[test]
    fn agrees_with_gpsrs() {
        let ds = generate(Distribution::Anticorrelated, 5, 800, 22);
        let config = SkylineConfig::test();
        let srs = mr_gpsrs(&ds, &config).unwrap();
        let mrs = mr_gpmrs(&ds, &config).unwrap();
        assert_eq!(srs.skyline_ids(), mrs.skyline_ids());
    }

    #[test]
    fn invariant_to_reducer_count() {
        let ds = generate(Distribution::Anticorrelated, 3, 500, 23);
        let base = mr_gpmrs(&ds, &SkylineConfig::test().with_reducers(1)).unwrap();
        for r in [2, 3, 5, 8, 17] {
            let run = mr_gpmrs(&ds, &SkylineConfig::test().with_reducers(r)).unwrap();
            assert_eq!(
                run.skyline_ids(),
                base.skyline_ids(),
                "mismatch with {r} reducers"
            );
            assert!(run.info.buckets <= r);
        }
    }

    #[test]
    fn invariant_to_merge_policy() {
        let ds = generate(Distribution::Independent, 4, 700, 24);
        let mut comp = SkylineConfig::test().with_reducers(2);
        comp.merge_policy = MergePolicy::ComputationCost;
        let mut comm = SkylineConfig::test().with_reducers(2);
        comm.merge_policy = MergePolicy::CommunicationCost;
        let a = mr_gpmrs(&ds, &comp).unwrap();
        let b = mr_gpmrs(&ds, &comm).unwrap();
        assert_eq!(a.skyline_ids(), b.skyline_ids());
    }

    #[test]
    fn no_duplicate_output_despite_replication() {
        // Plans routinely replicate partitions across buckets; designation
        // must keep the output exactly-once.
        let ds = generate(Distribution::Anticorrelated, 2, 900, 25);
        let run = mr_gpmrs(&ds, &SkylineConfig::test().with_reducers(4).with_ppd(6)).unwrap();
        let mut ids = run.skyline_ids();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate tuples in skyline output");
        assert_eq!(run.skyline, bnl_reference(ds.tuples()));
    }

    #[test]
    fn reports_group_structure() {
        let ds = generate(Distribution::Independent, 3, 400, 26);
        let run = mr_gpmrs(&ds, &SkylineConfig::test().with_reducers(3)).unwrap();
        assert!(run.info.independent_groups >= 1);
        assert!(run.info.buckets >= 1 && run.info.buckets <= 3);
        assert!(run.info.surviving_partitions <= run.info.non_empty_partitions);
    }

    #[test]
    fn empty_dataset_is_fine() {
        let ds = Dataset::new(4, vec![]).unwrap();
        let run = mr_gpmrs(&ds, &SkylineConfig::test()).unwrap();
        assert!(run.skyline.is_empty());
        assert_eq!(run.info.independent_groups, 0);
    }

    #[test]
    fn survives_injected_failures_on_both_phases() {
        let ds = generate(Distribution::Anticorrelated, 3, 400, 27);
        let clean = mr_gpmrs(&ds, &SkylineConfig::test()).unwrap();
        let mut config = SkylineConfig::test();
        config.fault_tolerance = skymr_mapreduce::FaultTolerance::with_plan(
            skymr_mapreduce::FaultPlan::fail_maps([1])
                .with_reduce_fault(0, skymr_mapreduce::TaskFault::lost(1))
                .for_job("gpmrs"),
        );
        let failed = mr_gpmrs(&ds, &config).unwrap();
        assert_eq!(failed.skyline_ids(), clean.skyline_ids());
        assert_eq!(failed.metrics.jobs[1].map_retries, 1);
        assert_eq!(failed.metrics.jobs[1].reduce_retries, 1);
    }

    #[test]
    fn auto_ppd_policy_works_end_to_end() {
        let ds = generate(Distribution::Anticorrelated, 3, 600, 28);
        let mut config = SkylineConfig::test();
        config.ppd = crate::config::PpdPolicy::auto();
        let run = mr_gpmrs(&ds, &config).unwrap();
        assert_eq!(run.skyline, bnl_reference(ds.tuples()));
    }

    #[test]
    fn more_reducers_spread_shuffle_bytes() {
        let ds = generate(Distribution::Anticorrelated, 4, 1500, 29);
        let one = mr_gpmrs(&ds, &SkylineConfig::test().with_reducers(1).with_ppd(4)).unwrap();
        let four = mr_gpmrs(&ds, &SkylineConfig::test().with_reducers(4).with_ppd(4)).unwrap();
        // Replication can only add bytes …
        assert!(four.metrics.jobs[1].shuffle_bytes >= one.metrics.jobs[1].shuffle_bytes);
        // … but spreads them across reducers.
        assert!(four.metrics.jobs[1].per_reducer_bytes.len() > 1);
    }
}
