//! `mapreduce.sched` probe: the 120-job, three-tenant submission set of
//! `examples/load_generator.rs`, replayed under FIFO, fair-share and
//! priority scheduling.
//!
//! The executor is off every workload's path today (`run_job` does not go
//! through it); the probe pins its cost and its admission decisions so the
//! roadmap's "make `run_job` the N = 1 case of the executor loop" starts
//! from a baseline. Task durations are the example's modelled ones, so the
//! completed/rejected counts repeat exactly.

use std::path::Path;
use std::time::Duration;

use skymr_common::{Error, Tuple};
use skymr_datagen::{stream, Distribution};
use skymr_mapreduce::{
    run_job_from, AdmissionConfig, ClusterConfig, ClusterExecutor, Emitter, FairShareScheduler,
    FifoScheduler, FnSplits, HashPartitioner, JobConfig, JobMetrics, JobSpec, MapFactory, MapTask,
    OutputCollector, PriorityScheduler, ReduceFactory, ReduceTask, Reservation, Scheduler,
    TaskContext,
};

use crate::probes::Ctx;
use crate::workloads::{cluster, HOST_THREADS};
use crate::Result;

/// Coarse grid histogram map: every tuple lands in one of `4^dim` cells.
#[derive(Debug)]
struct CellCount;

impl MapTask for CellCount {
    type In = Tuple;
    type K = u64;
    type V = u64;

    fn map(&mut self, t: &Tuple, out: &mut Emitter<u64, u64>) {
        let mut cell = 0u64;
        for v in t.values.iter() {
            cell = cell * 4 + ((v * 4.0) as u64).min(3);
        }
        out.emit(cell, 1);
    }
}

impl MapFactory for CellCount {
    type Task = CellCount;
    fn create(&self, _: &TaskContext) -> CellCount {
        CellCount
    }
}

/// Sums the per-cell counts.
#[derive(Debug)]
struct SumCells;

impl ReduceTask for SumCells {
    type K = u64;
    type V = u64;
    type Out = (u64, u64);

    fn reduce(&mut self, cell: u64, counts: Vec<u64>, out: &mut OutputCollector<(u64, u64)>) {
        out.collect((cell, counts.iter().sum()));
    }
}

impl ReduceFactory for SumCells {
    type Task = SumCells;
    fn create(&self, _: &TaskContext) -> SumCells {
        SumCells
    }
}

const TENANTS: [&str; 3] = ["analytics", "batch", "ops"];
const JOBS: usize = 120;
const SPLITS: usize = 3;

/// One job's seeded recipe, as in the example.
#[derive(Debug, Clone, Copy)]
struct Recipe {
    index: usize,
    cardinality: usize,
    seed: u64,
}

fn recipe(index: usize) -> Recipe {
    Recipe {
        index,
        cardinality: 600 + (index % 5) * 600,
        seed: 0xBEEF + index as u64,
    }
}

type PlaneOutput = std::result::Result<(Vec<(u64, u64)>, Vec<JobMetrics>), Error>;

/// The data plane of one job: seeded streamed splits, one MapReduce job,
/// and the example's modelled task durations in place of measured ones.
fn plane(recipe: Recipe, cluster: &ClusterConfig) -> PlaneOutput {
    let chunk = recipe.cardinality.div_ceil(SPLITS);
    let lens: Vec<usize> = (0..SPLITS)
        .map(|s| chunk.min(recipe.cardinality - (s * chunk).min(recipe.cardinality)))
        .filter(|&len| len > 0)
        .collect();
    let source = FnSplits::new(lens, move |s| {
        stream(
            Distribution::Independent,
            3,
            recipe.cardinality,
            recipe.seed,
        )
        .chunks(chunk)
        .nth(s)
        .expect("split index within the declared shape")
    });
    let outcome = run_job_from(
        cluster,
        &JobConfig::new(format!("cells-{}", recipe.index), 2),
        &source,
        &CellCount,
        &SumCells,
        &HashPartitioner,
    )
    .map_err(Error::from)?;
    let mut metrics = outcome.metrics.clone();
    let per_map = Duration::from_micros((chunk * 40) as u64);
    let per_reduce = Duration::from_micros((recipe.cardinality * 5 / 2) as u64);
    metrics.map_task_durations.fill(per_map);
    metrics.reduce_task_durations.fill(per_reduce);
    let mut cells = outcome.into_flat_output();
    cells.sort_unstable();
    Ok((cells, vec![metrics]))
}

/// The example's small pool (4 map / 2 reduce slots, test cost constants),
/// rebuilt hermetically.
fn pool(scratch: &Path) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        map_slots: 4,
        reduce_slots: 2,
        network_bytes_per_sec: 1e9,
        job_startup: Duration::from_millis(1),
        task_overhead: Duration::from_micros(1),
        host_threads: HOST_THREADS,
        heartbeat_timeout: Duration::from_millis(2),
        progress_timeout: Duration::from_millis(5),
        ..cluster(None, scratch)
    }
}

/// `(completed, rejected)` of one policy's replay.
fn run_policy(policy: impl Scheduler + 'static, scratch: &Path) -> Result<(u64, u64)> {
    let mut executor = ClusterExecutor::new(pool(scratch))
        .with_admission(AdmissionConfig::with_queue_depth(16).with_memory_capacity(1 << 20))
        .with_scheduler(policy);
    for index in 0..JOBS {
        let recipe = recipe(index);
        let wave = (index as u64 / 8) * 10;
        let mut spec = JobSpec::new(format!("cells-{index:03}"), TENANTS[index % TENANTS.len()])
            .arriving_at(Duration::from_millis(wave))
            .with_priority(if index % TENANTS.len() == 2 { 5 } else { 0 })
            .with_reservation(Reservation::minimal().with_memory((recipe.cardinality * 24) as u64))
            .with_speculation(index % 4 == 0);
        if index % 9 == 0 {
            spec = spec.with_deadline(Duration::from_millis(wave + 150));
        }
        executor.submit(spec, move |cluster: &ClusterConfig| plane(recipe, cluster))?;
    }
    let report = executor.run();
    let accounted = report.completed + report.rejected + report.cancelled + report.failed;
    if accounted != JOBS as u64 {
        return Err(format!("mapreduce.sched: {accounted} of {JOBS} jobs accounted for").into());
    }
    Ok((report.completed, report.rejected))
}

/// Replays the submission set under the three schedulers: jobs completed
/// per host second, and the completed / rejected counts summed over them.
pub fn sched_probe(ctx: &mut Ctx<'_>) -> Result<()> {
    let scratch = ctx.scratch.to_path_buf();
    let (counts, took) = ctx.time("mapreduce.sched.executor", || {
        Ok::<_, Box<dyn std::error::Error>>([
            run_policy(FifoScheduler, &scratch)?,
            run_policy(FairShareScheduler, &scratch)?,
            run_policy(PriorityScheduler, &scratch)?,
        ])
    });
    let counts = counts?;
    let completed: u64 = counts.iter().map(|(c, _)| c).sum();
    let rejected: u64 = counts.iter().map(|(_, r)| r).sum();
    let v = &mut *ctx.values;
    v.set(
        "mapreduce.sched.executor_jobs_per_s",
        completed as f64 / took.as_secs_f64().max(f64::MIN_POSITIVE),
    );
    v.set("mapreduce.sched.completed", completed as f64);
    v.set("mapreduce.sched.rejected", rejected as f64);
    Ok(())
}
