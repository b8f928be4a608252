//! The five workloads: what each one generates, how its cluster is
//! configured, and what one operation does.
//!
//! Every configuration is built field by field here. Nothing follows the
//! host (`host_threads` is pinned, not `nproc`) or the environment
//! ([`StorageConfig::with_env_overrides`] is never applied), so two runs of
//! one commit differ only by `--seed`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use skymr::bitstring::job::generate_bitstring;
use skymr::gpmrs::{GpmrsMapFactory, GpmrsReduceFactory};
use skymr::gpsrs::{GpsrsMapFactory, GpsrsReduceFactory};
use skymr::groups::plan_groups;
use skymr::{mr_gpmrs, mr_gpsrs, PpdPolicy, RunInfo, SkylineConfig, SkylineRun};
use skymr_baselines::{mr_bnl, sfs_skyline, BaselineConfig, BaselineRun, SfsOrder};
use skymr_common::dataset::canonicalize;
use skymr_common::{ByteSized, Dataset, Tuple};
use skymr_datagen::{generate, Distribution};
use skymr_mapreduce::telemetry::export::chrome_trace;
use skymr_mapreduce::{
    run_job, ClusterConfig, Collector, FaultTolerance, JobConfig, JobMetrics, ModuloPartitioner,
    PipelineMetrics, SingleReducerPartitioner, StorageConfig,
};

use crate::spans::{Recorder, SpanId};
use crate::Result;

/// Host threads every engine run uses. Fixed rather than following `nproc`
/// so results from two hosts differ by hardware only; the value is printed
/// with every result.
pub const HOST_THREADS: usize = 2;

/// The paper testbed's thirteen nodes, one map and one reduce slot each.
pub const CLUSTER_SLOTS: usize = 13;

/// Environment variables that would silently turn the in-memory workloads
/// into spill runs; the benchmark refuses to start when either is set.
pub const FORBIDDEN_ENV: [&str; 2] = ["SKYMR_MEMORY_BUDGET", "SKYMR_SPILL_DIR"];

/// Which pipeline one operation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `skymr::mr_gpsrs`.
    Gpsrs,
    /// `skymr::mr_gpmrs`.
    Gpmrs,
    /// `skymr_baselines::mr_bnl`.
    MrBnl,
}

/// One workload's declaration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Input distribution.
    pub dist: Distribution,
    /// Input dimensionality.
    pub dim: usize,
    /// Input cardinality at full scale.
    pub card: usize,
    /// The pipeline one operation runs.
    pub algo: Algo,
    /// Input splits.
    pub mappers: usize,
    /// Reducers offered to MR-GPMRS.
    pub reducers: usize,
    /// Per-map-task output budget; `Some` turns the storage plane on.
    pub memory_budget: Option<u64>,
    /// Attach a `Collector` to every operation, then finish and export it.
    pub telemetry: bool,
    /// Pin the grid's partitions per dimension instead of letting the
    /// Section 3.3 heuristic choose.
    pub fixed_ppd: Option<usize>,
}

/// The five workloads, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "anti6d_gpsrs",
        why: "200k x 6-d anti-correlated through MR-GPSRS: kernel-bound, the single reducer's compare_all_partitions is a serial tail; codec and storage idle (13 large records)",
        dist: Distribution::Anticorrelated,
        dim: 6,
        card: 200_000,
        algo: Algo::Gpsrs,
        mappers: CLUSTER_SLOTS,
        reducers: CLUSTER_SLOTS,
        memory_budget: None,
        telemetry: false,
        fixed_ppd: None,
    },
    Workload {
        name: "anti6d_gpmrs",
        why: "same dataset through MR-GPMRS: same kernels, 3.4x the shuffle bytes in a few large frames, parallel reducer buckets; shows load balance and communication-for-parallelism trades",
        dist: Distribution::Anticorrelated,
        dim: 6,
        card: 200_000,
        algo: Algo::Gpmrs,
        mappers: CLUSTER_SLOTS,
        reducers: CLUSTER_SLOTS,
        memory_budget: None,
        telemetry: false,
        fixed_ppd: None,
    },
    Workload {
        name: "indep3d_shuffle",
        why: "1M x 3-d independent through in-memory MR-BNL: kernel idle (skyline under 100 tuples); the per-record emit/route/encode/CRC/decode/group path does the work on a million tiny records",
        dist: Distribution::Independent,
        dim: 3,
        card: 1_000_000,
        algo: Algo::MrBnl,
        mappers: CLUSTER_SLOTS,
        reducers: CLUSTER_SLOTS,
        memory_budget: None,
        telemetry: false,
        fixed_ppd: None,
    },
    Workload {
        name: "indep3d_spill",
        why: "same dataset and pipeline under a 1 MiB map-output budget: sort, segment write, frame verify and multi-pass external merge dominate; the gap to indep3d_shuffle isolates the storage plane",
        dist: Distribution::Independent,
        dim: 3,
        card: 1_000_000,
        algo: Algo::MrBnl,
        mappers: CLUSTER_SLOTS,
        reducers: CLUSTER_SLOTS,
        memory_budget: Some(1 << 20),
        telemetry: false,
        fixed_ppd: None,
    },
    Workload {
        name: "small_jobs",
        why: "2k x 4-d anti-correlated MR-GPMRS jobs with a Collector, finished and exported: fixed per-job cost (pool start, job set-up, metrics and trace assembly); data-volume changes predict no move",
        dist: Distribution::Anticorrelated,
        dim: 4,
        card: 2_000,
        algo: Algo::Gpmrs,
        mappers: 4,
        reducers: 5,
        memory_budget: None,
        telemetry: true,
        // On 2k tuples the heuristic flips between PPD 2 and 6 with the
        // seed (one seed in seven leaves a corner cell of the 2-grid
        // empty), which makes the job 2.3x slower and hides the fixed cost
        // this workload exists to show.
        fixed_ppd: Some(2),
    },
];

impl Workload {
    /// The grid-pipeline configuration of this workload on `cluster`.
    pub fn grid_config(&self, cluster: ClusterConfig) -> SkylineConfig {
        SkylineConfig {
            mappers: self.mappers,
            reducers: self.reducers,
            ppd: self
                .fixed_ppd
                .map_or_else(PpdPolicy::auto, PpdPolicy::Fixed),
            cluster,
            ..SkylineConfig::default()
        }
    }
}

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input scale: full size, or the 1/50 smoke size the tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The declared cardinalities.
    Full,
    /// 1/50 of the declared cardinalities, for tests.
    Smoke,
}

impl Scale {
    /// Scales a full-size count down for smoke runs (never below 100).
    pub fn apply(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => (full / 50).max(100),
        }
    }
}

/// The hermetic cluster: paper shape and cost constants, pinned host
/// threads, storage defaults with spill files under `scratch`.
pub fn cluster(memory_budget: Option<u64>, scratch: &Path) -> ClusterConfig {
    ClusterConfig {
        nodes: CLUSTER_SLOTS,
        map_slots: CLUSTER_SLOTS,
        reduce_slots: CLUSTER_SLOTS,
        host_threads: HOST_THREADS,
        storage: StorageConfig {
            memory_budget,
            spill_dir: Some(scratch.to_path_buf()),
            merge_fan_in: 8,
            ..StorageConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// How an instance drives its pipeline.
#[derive(Debug, Clone)]
enum Driver {
    Grid(SkylineConfig),
    Baseline(BaselineConfig),
}

/// A generated dataset plus the configuration its operations run under.
#[derive(Debug)]
pub struct Instance {
    /// The workload this instance belongs to.
    pub workload: &'static Workload,
    /// The generated input.
    pub data: Dataset,
    driver: Driver,
}

/// What one operation returned, as far as the benchmark reads it.
#[derive(Debug)]
pub struct OpOutput {
    /// The skyline, sorted by id.
    pub skyline: Vec<Tuple>,
    /// Per-job engine metrics.
    pub jobs: Vec<JobMetrics>,
    /// The skyline job's counters (`gpsrs.*` / `gpmrs.*`); empty for MR-BNL.
    pub counters: BTreeMap<String, u64>,
    /// Grid facts (PPD, surviving partitions); `None` for MR-BNL.
    pub info: Option<RunInfo>,
}

impl OpOutput {
    /// Σ `shuffle_bytes` over the pipeline's jobs.
    pub fn shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle_bytes).sum()
    }
}

impl From<BaselineRun> for OpOutput {
    fn from(run: BaselineRun) -> Self {
        Self {
            skyline: run.skyline,
            jobs: run.metrics.jobs,
            counters: BTreeMap::new(),
            info: None,
        }
    }
}

impl From<SkylineRun> for OpOutput {
    fn from(run: SkylineRun) -> Self {
        Self {
            skyline: run.skyline,
            jobs: run.metrics.jobs,
            counters: run.counters,
            info: Some(run.info),
        }
    }
}

/// FNV-1a over the skyline's ids in order — the id-digest operations are
/// compared by.
pub fn id_digest(skyline: &[Tuple]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for t in skyline {
        for byte in t.id.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// The centralized oracle: SFS over the raw tuples, sorted by id. Shares
/// only the dominance test with the pipelines under test.
pub fn oracle(data: &Dataset) -> Vec<Tuple> {
    sfs_skyline(data.tuples(), SfsOrder::Entropy)
}

impl Instance {
    /// Generates the workload's input from `seed` and builds its
    /// configuration; spill files and temp files go under `scratch`.
    pub fn build(workload: &'static Workload, scale: Scale, seed: u64, scratch: &Path) -> Self {
        let data = generate(
            workload.dist,
            workload.dim,
            scale.apply(workload.card),
            seed,
        );
        Self::with_data(workload, scale, data, scratch)
    }

    /// [`build`](Self::build) over an already generated dataset. The
    /// memory budget shrinks with the input, so a smoke run spills in the
    /// same pattern as a full one.
    pub fn with_data(
        workload: &'static Workload,
        scale: Scale,
        data: Dataset,
        scratch: &Path,
    ) -> Self {
        let budget = workload
            .memory_budget
            .map(|bytes| scale.apply(bytes as usize) as u64);
        let cluster = cluster(budget, scratch);
        let driver = match workload.algo {
            Algo::Gpsrs | Algo::Gpmrs => Driver::Grid(workload.grid_config(cluster)),
            Algo::MrBnl => Driver::Baseline(BaselineConfig {
                mappers: workload.mappers,
                angular_partitions: CLUSTER_SLOTS,
                cluster,
                fault_tolerance: FaultTolerance::none(),
            }),
        };
        Self {
            workload,
            data,
            driver,
        }
    }

    /// The grid configuration, for workloads that run a grid pipeline.
    pub fn grid_config(&self) -> Option<&SkylineConfig> {
        match &self.driver {
            Driver::Grid(c) => Some(c),
            Driver::Baseline(_) => None,
        }
    }

    /// One operation, exactly as a user of the crates would call it.
    pub fn run_op(&self) -> Result<OpOutput> {
        match &self.driver {
            Driver::Baseline(config) => Ok(mr_bnl(&self.data, config)?.into()),
            Driver::Grid(config) => {
                let run = if self.workload.telemetry {
                    let collector = Collector::new();
                    let config = config.clone().with_telemetry(Some(collector.clone()));
                    let run = mr_gpmrs(&self.data, &config)?;
                    black_box(chrome_trace(&collector.finish()));
                    run
                } else if self.workload.algo == Algo::Gpsrs {
                    mr_gpsrs(&self.data, config)?
                } else {
                    mr_gpmrs(&self.data, config)?
                };
                Ok(run.into())
            }
        }
    }

    /// The same operation re-driven stage by stage through the public
    /// functions the pipeline itself calls, one span per stage under a
    /// `bench.pipeline` span. Returns the output and the pipeline span.
    pub fn staged_op(&self, rec: &mut Recorder, op: u64) -> Result<(OpOutput, SpanId)> {
        let root = rec.open("bench.pipeline", None, op);
        let output = match &self.driver {
            Driver::Baseline(config) => self.staged_mr_bnl(config, rec, root, op),
            Driver::Grid(config) => self.staged_grid(config, rec, root, op),
        };
        rec.close(root);
        Ok((output?, root))
    }

    /// MR-BNL's phase-1 reducer count comes from a `pub(crate)` function,
    /// so its stages cannot be rebuilt from public items: the public call
    /// is timed whole and split by the `host_wall` each job reports. The
    /// two job spans are laid end to end against the end of the call (the
    /// driver's split runs first; its canonicalize of a tiny skyline takes
    /// microseconds), so split and canonicalize land in
    /// `bench.pipeline_self_s`.
    fn staged_mr_bnl(
        &self,
        config: &BaselineConfig,
        rec: &mut Recorder,
        root: SpanId,
        op: u64,
    ) -> Result<OpOutput> {
        let run = mr_bnl(&self.data, config)?;
        let mut end = rec.now();
        let names = ["baselines.mr_bnl.local_job", "baselines.mr_bnl.merge_job"];
        for (job, name) in run.metrics.jobs.iter().zip(names).rev() {
            let start = end.saturating_sub(job.host_wall);
            rec.record(name, Some(root), op, start, end);
            end = start;
        }
        Ok(run.into())
    }

    /// `mr_gpsrs` / `mr_gpmrs`, stage by stage (checkpointing is off in
    /// every workload, so the `Runner` the drivers wrap their stages in
    /// adds nothing to re-drive).
    fn staged_grid(
        &self,
        config: &SkylineConfig,
        rec: &mut Recorder,
        root: SpanId,
        op: u64,
    ) -> Result<OpOutput> {
        let parent = Some(root);
        let collector = self.workload.telemetry.then(Collector::new);
        let config = config.clone().with_telemetry(collector.clone());
        let gpsrs = self.workload.algo == Algo::Gpsrs;
        let scope = collector
            .as_ref()
            .map(|c| c.scope("algo", if gpsrs { "mr-gpsrs" } else { "mr-gpmrs" }));

        let (splits, _) = rec.time("common.dataset.split", parent, op, || {
            self.data.split(config.mappers)
        });
        let mut metrics = PipelineMetrics::new();
        let (bitstring, _) = rec.time("core.bitstring.job", parent, op, || {
            generate_bitstring(&splits, self.data.dim(), self.data.len(), &config)
        });
        let (bitstring, bs_info, bs_metrics) = bitstring?;
        metrics.push(bs_metrics);
        let grid = *bitstring.grid();
        let bitstring = Arc::new(bitstring);
        let mut info = RunInfo {
            ppd: bs_info.ppd,
            partitions: grid.num_partitions(),
            non_empty_partitions: bs_info.non_empty,
            surviving_partitions: bs_info.surviving,
            independent_groups: 0,
            buckets: 1,
        };
        let job_config = |name: &str, reducers: usize| {
            JobConfig::new(name, reducers)
                .with_cache_bytes(bitstring.bits().byte_size())
                .with_fault_tolerance(&config.fault_tolerance)
                .with_collector(config.telemetry.clone())
        };

        let (outcome, prefix) = if gpsrs {
            let job = job_config("gpsrs", 1);
            let (outcome, _) = rec.time("core.skyline_job", parent, op, || {
                run_job(
                    &config.cluster,
                    &job,
                    &splits,
                    &GpsrsMapFactory::new(Arc::clone(&bitstring), config.local_algo),
                    &GpsrsReduceFactory::new(grid),
                    &SingleReducerPartitioner,
                )
            });
            (outcome, "gpsrs")
        } else {
            let (plan, _) = rec.time("core.groups.plan", parent, op, || {
                plan_groups(&bitstring, config.reducers, config.merge_policy)
            });
            info.independent_groups = plan.groups.len();
            info.buckets = plan.num_buckets();
            let plan = Arc::new(plan);
            let job = job_config("gpmrs", plan.num_buckets());
            let (outcome, _) = rec.time("core.skyline_job", parent, op, || {
                run_job(
                    &config.cluster,
                    &job,
                    &splits,
                    &GpmrsMapFactory::new(
                        Arc::clone(&bitstring),
                        Arc::clone(&plan),
                        config.local_algo,
                    ),
                    &GpmrsReduceFactory::new(Arc::clone(&bitstring), Arc::clone(&plan)),
                    &ModuloPartitioner,
                )
            });
            (outcome, "gpmrs")
        };
        let outcome = metrics.track(outcome)?;
        let counters = outcome
            .counters
            .snapshot()
            .into_iter()
            .map(|(k, v)| (format!("{prefix}.{k}"), v))
            .collect();
        let (skyline, _) = rec.time("common.dataset.canonicalize", parent, op, || {
            canonicalize(outcome.into_flat_output())
        });
        drop(scope);
        if let Some(collector) = &collector {
            let (doc, _) = rec.time("telemetry.finish", parent, op, || collector.finish());
            rec.time("telemetry.export_chrome", parent, op, || {
                black_box(chrome_trace(&doc));
            });
        }
        Ok(OpOutput {
            skyline,
            jobs: metrics.jobs,
            counters,
            info: Some(info),
        })
    }
}

/// The scratch directory of this process: `out/tmp-<pid>` under the
/// benchmark package, created on first use and removed on drop.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
}

/// The benchmark's output directory (`benchmark/out`).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Scratch {
    /// Creates `benchmark/out/tmp-<pid>`.
    pub fn create() -> Result<Self> {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_findable() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(WORKLOADS.iter().skip(i + 1).all(|o| o.name != w.name));
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn cluster_is_hermetic() {
        let dir = Path::new("/nonexistent/scratch");
        let c = cluster(Some(1 << 20), dir);
        assert_eq!(c.host_threads, HOST_THREADS);
        assert_eq!((c.nodes, c.map_slots, c.reduce_slots), (13, 13, 13));
        assert_eq!(c.storage.memory_budget, Some(1 << 20));
        assert_eq!(c.storage.spill_dir.as_deref(), Some(dir));
        assert_eq!(c.storage.merge_fan_in, 8);
        assert!(cluster(None, dir).storage.memory_budget.is_none());
    }

    #[test]
    fn id_digest_depends_on_ids_and_order() {
        let t = |id| Tuple::new(id, vec![0.5]);
        assert_eq!(id_digest(&[t(1), t(2)]), id_digest(&[t(1), t(2)]));
        assert_ne!(id_digest(&[t(1), t(2)]), id_digest(&[t(2), t(1)]));
        assert_ne!(id_digest(&[t(1)]), id_digest(&[]));
    }

    #[test]
    fn staged_and_direct_operations_agree_with_the_oracle() {
        let scratch = Scratch::create().expect("scratch dir");
        for workload in &WORKLOADS {
            let inst = Instance::build(workload, Scale::Smoke, 7, scratch.path());
            let want = id_digest(&oracle(&inst.data));
            let direct = inst.run_op().expect("direct op");
            let mut rec = Recorder::new();
            let (staged, root) = inst.staged_op(&mut rec, 0).expect("staged op");
            assert_eq!(id_digest(&direct.skyline), want, "{}", workload.name);
            assert_eq!(id_digest(&staged.skyline), want, "{}", workload.name);
            assert_eq!(staged.shuffle_bytes(), direct.shuffle_bytes());
            assert_eq!(staged.counters, direct.counters);
            // Children plus self account for the pipeline span exactly.
            assert_eq!(
                rec.covered_by_children(root) + rec.self_time(root),
                rec.dur(root)
            );
            assert!(rec.covered_by_children(root) <= rec.dur(root));
        }
    }
}
