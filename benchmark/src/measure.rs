//! One measured run of one workload, in this process: the untraced run that
//! yields the end-to-end metrics, or the traced run that yields the
//! per-layer ones.
//!
//! Closed loop, one client, one load-generating thread: the next operation
//! starts when the previous one returns. Timing is host wall-clock taken
//! from outside the program; `sim_runtime` is never read.

use std::time::{Duration, Instant};

use skymr_common::ByteSized;
use skymr_datagen::generate;

use crate::probes::{self, Ctx};
use crate::sched_probe::sched_probe;
use crate::spans::Recorder;
use crate::spec::{Values, END_TO_END, OP_P99, PER_LAYER};
use crate::stats::{median, median_secs, percentile, supports_percentile};
use crate::workloads::{
    id_digest, oracle, out_dir, Instance, OpOutput, Scale, Scratch, Workload, FORBIDDEN_ENV,
    HOST_THREADS,
};
use crate::Result;

const MIB: f64 = 1024.0 * 1024.0;

/// Fewest set-ups per untraced run; `setup_s` is the median over them.
const SETUP_REPEATS: usize = 3;
/// A full-scale workload whose set-up takes milliseconds repeats it, up to
/// this many times or until [`SETUP_WINDOW`] has passed, so the median is
/// steady.
const MAX_SETUP_REPEATS: usize = 100;
const SETUP_WINDOW: Duration = Duration::from_secs(1);
/// Fewest timed operations (or traced pairs) per run, however short
/// `--seconds` is.
const MIN_OPS: usize = 3;

/// The one place wall time bounds a loop: the contract fixes a run's length
/// in seconds, not in operations. Behind a type so that no wall-clock value
/// sits in a branch head, which `cargo xtask flow` (it scans this
/// directory) rejects outside harness paths.
#[derive(Debug)]
struct Deadline {
    started: Instant,
    limit: Duration,
}

impl Deadline {
    fn after(limit: Duration) -> Self {
        Self {
            started: Instant::now(),
            limit,
        }
    }

    fn passed(&self) -> bool {
        self.started.elapsed() >= self.limit
    }
}

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: &'static Workload,
    /// Dataset seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
}

/// One run's result: the four keys of the driver contract plus the notes
/// the human-readable report prints.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every operation and probe produced the oracle's answer.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned `Err` or a skyline other than the oracle's.
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
    /// The oracle's id-digest for this seed.
    pub digest: u64,
    /// `op_p99_s`, when the run has the samples to support it.
    pub op_p99_s: Option<f64>,
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Runs the workload as `args` describes. (Not plain `run`: a free fn of
/// that name here makes the xtask name resolver drop call edges in the
/// engine crates, and six audited waivers there go stale.)
pub fn run_workload(args: &RunArgs) -> Result<RunResult> {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: it would turn in-memory workloads into spill runs; unset it"
            )
            .into());
        }
    }
    let scratch = Scratch::create()?;
    if args.trace {
        traced(args, &scratch)
    } else {
        untraced(args, &scratch)
    }
}

/// `(digest, shuffle bytes)` of an operation, or `None` if it failed.
type OpRecord = Option<(u64, u64)>;

fn record(op: &Result<OpOutput>) -> OpRecord {
    op.as_ref()
        .ok()
        .map(|out| (id_digest(&out.skyline), out.shuffle_bytes()))
}

fn untraced(args: &RunArgs, scratch: &Scratch) -> Result<RunResult> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    let window = match args.scale {
        Scale::Full => SETUP_WINDOW,
        Scale::Smoke => Duration::ZERO,
    };
    let window = Deadline::after(window);
    while setups.len() < SETUP_REPEATS || (setups.len() < MAX_SETUP_REPEATS && !window.passed()) {
        // Free the previous instance first, so repeated set-up does not
        // raise the peak RSS the workload is charged with.
        drop(state.take());
        let started = Instant::now();
        let inst = Instance::build(args.workload, args.scale, args.seed, scratch.path());
        let warm = record(&inst.run_op());
        setups.push(started.elapsed());
        state = Some((inst, warm));
    }
    let Some((inst, warm)) = state else {
        return Err("no set-up ran".into());
    };

    let mut samples = Vec::new();
    let mut records: Vec<OpRecord> = Vec::new();
    let deadline = Deadline::after(Duration::from_secs_f64(args.seconds));
    while samples.len() < MIN_OPS || !deadline.passed() {
        let started = Instant::now();
        let op = inst.run_op();
        samples.push(started.elapsed().as_secs_f64());
        records.push(record(&op));
    }
    let rss = peak_rss_mib()?;

    let want = id_digest(&oracle(&inst.data));
    let failed = records
        .iter()
        .filter(|r| r.map(|(digest, _)| digest) != Some(want))
        .count();
    let shuffle = records.iter().flatten().map(|(_, bytes)| *bytes).max();
    let shuffle_repeats = records
        .iter()
        .flatten()
        .all(|(_, bytes)| Some(*bytes) == shuffle);

    let total: f64 = samples.iter().sum();
    let mut values = Values::default();
    values.set("op_p50_s", median(&samples).unwrap_or(0.0));
    values.set(
        "tuples_per_s",
        (inst.data.len() * samples.len()) as f64 / total.max(f64::MIN_POSITIVE),
    );
    values.set("shuffle_mib", shuffle.unwrap_or(0) as f64 / MIB);
    values.set("peak_rss_mib", rss);
    values.set("setup_s", median_secs(&setups));
    Ok(RunResult {
        correct: failed == 0 && shuffle_repeats && warm.map(|(digest, _)| digest) == Some(want),
        attempted: samples.len() as u64,
        failed: failed as u64,
        metrics: values.in_order(&END_TO_END)?,
        digest: want,
        op_p99_s: supports_percentile(samples.len(), 99.0)
            .then(|| percentile(&samples, 99.0))
            .flatten(),
    })
}

/// Median duration, over operations, of the spans called `name`.
fn span_median(rec: &Recorder, name: &str) -> f64 {
    let durs: Vec<Duration> = rec
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(crate::spans::Span::dur)
        .collect();
    median_secs(&durs)
}

fn traced(args: &RunArgs, scratch: &Scratch) -> Result<RunResult> {
    let w = args.workload;
    let card = args.scale.apply(w.card);
    let mut generates = Vec::with_capacity(SETUP_REPEATS);
    let mut data = None;
    for _ in 0..SETUP_REPEATS {
        drop(data.take());
        let started = Instant::now();
        let generated = generate(w.dist, w.dim, card, args.seed);
        generates.push(started.elapsed());
        data = Some(generated);
    }
    let Some(data) = data else {
        return Err("no dataset was generated".into());
    };
    let inst = Instance::with_data(w, args.scale, data, scratch.path());
    let warm = record(&inst.run_op());

    // Untraced and staged operations alternate, so both see the same
    // machine state and their ratio is the tracing overhead.
    let mut rec = Recorder::new();
    let mut plain_samples = Vec::new();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut roots = Vec::new();
    let mut last_staged = None;
    let deadline = Deadline::after(Duration::from_secs_f64(args.seconds / 2.0));
    while roots.len() < MIN_OPS || !deadline.passed() {
        let started = Instant::now();
        let op = inst.run_op();
        plain_samples.push(started.elapsed().as_secs_f64());
        records.push(record(&op));

        // A staged operation that errors ends the run: the per-layer
        // numbers of a failing pipeline mean nothing.
        let (out, root) = inst.staged_op(&mut rec, roots.len() as u64)?;
        records.push(Some((id_digest(&out.skyline), out.shuffle_bytes())));
        roots.push(root);
        last_staged = Some(out);
    }
    let Some(staged) = last_staged else {
        return Err("no staged operation ran".into());
    };

    let mut values = Values::default();
    let pipeline: Vec<Duration> = roots.iter().map(|&r| rec.dur(r)).collect();
    let selfs: Vec<Duration> = roots.iter().map(|&r| rec.self_time(r)).collect();
    let pipeline_s = median_secs(&pipeline);
    values.set("bench.pipeline_s", pipeline_s);
    values.set("bench.pipeline_self_s", median_secs(&selfs));
    values.set(
        "bench.trace_overhead_frac",
        pipeline_s / median(&plain_samples).unwrap_or(0.0).max(f64::MIN_POSITIVE) - 1.0,
    );
    for (metric, span) in [
        ("common.dataset.split_s", "common.dataset.split"),
        ("core.bitstring.job_s", "core.bitstring.job"),
        ("core.groups.plan_s", "core.groups.plan"),
        ("core.skyline_job_s", "core.skyline_job"),
        ("baselines.mr_bnl.local_job_s", "baselines.mr_bnl.local_job"),
        ("baselines.mr_bnl.merge_job_s", "baselines.mr_bnl.merge_job"),
        (
            "common.dataset.canonicalize_s",
            "common.dataset.canonicalize",
        ),
    ] {
        values.set(metric, span_median(&rec, span));
    }

    // Counts read at the same boundary, from what the staged run returned.
    let input_wire: u64 = inst.data.tuples().iter().map(ByteSized::byte_size).sum();
    let widest = staged.jobs.iter().max_by_key(|j| j.shuffle_bytes);
    values.set(
        "mapreduce.job.map_output_records",
        staged
            .jobs
            .iter()
            .map(|j| j.map_output_records)
            .sum::<u64>() as f64,
    );
    values.set(
        "mapreduce.job.shuffle_ratio",
        staged.shuffle_bytes() as f64 / (input_wire as f64).max(1.0),
    );
    values.set(
        "mapreduce.job.max_reducer_share",
        widest.map_or(0.0, |j| {
            j.per_reducer_bytes.iter().copied().max().unwrap_or(0) as f64
                / (j.shuffle_bytes as f64).max(1.0)
        }),
    );
    values.set(
        "mapreduce.storage.spill_files",
        staged.jobs.iter().map(|j| j.spill_files).sum::<u64>() as f64,
    );
    values.set(
        "mapreduce.storage.spilled_mib",
        staged.jobs.iter().map(|j| j.spilled_bytes).sum::<u64>() as f64 / MIB,
    );
    values.set(
        "mapreduce.storage.merge_passes",
        staged.jobs.iter().map(|j| j.merge_passes).sum::<u64>() as f64,
    );
    let counter = |suffix: &str| {
        staged
            .counters
            .iter()
            .find(|(k, _)| k.ends_with(suffix))
            .map_or(0.0, |(_, v)| *v as f64)
    };
    values.set(
        "core.cost.map_partition_cmps",
        counter(".map.partition_cmps"),
    );
    values.set(
        "core.cost.reduce_partition_cmps",
        counter(".reduce.partition_cmps"),
    );
    values.set(
        "core.cost.dr_pruned_tuples",
        counter(".map.dr_pruned_tuples"),
    );
    values.set(
        "core.bitstring.ppd",
        staged.info.as_ref().map_or(0.0, |i| i.ppd as f64),
    );
    values.set(
        "core.bitstring.surviving_partitions",
        staged
            .info
            .as_ref()
            .map_or(0.0, |i| i.surviving_partitions as f64),
    );

    let generate_s = median_secs(&generates);
    values.set("datagen.generate_s", generate_s);
    values.set(
        "datagen.tuples_per_s",
        card as f64 / generate_s.max(f64::MIN_POSITIVE),
    );

    // Per-layer probes, each under its own span.
    let probes_span = rec.open("bench.probes", None, 0);
    let mut ctx = Ctx {
        rec: &mut rec,
        parent: probes_span,
        scratch: scratch.path(),
        scale: args.scale,
        values: &mut values,
    };
    let local_skyline = probes::core_local(&inst, &mut ctx)?;
    let cell_skyline = probes::bnl_cell_kernel(&inst, &mut ctx);
    probes::dominance_compare(&inst, &mut ctx);
    let pairs = probes::first_split_pairs(&inst);
    probes::bytes_probe(&pairs, &mut ctx)?;
    probes::job_probe(&inst, &mut ctx)?;
    probes::storage_probe(&pairs, &mut ctx)?;
    sched_probe(&mut ctx)?;
    probes::telemetry_probe(args.seed, &mut ctx)?;
    rec.close(probes_span);

    let want = id_digest(&oracle(&inst.data));
    let failed = records
        .iter()
        .filter(|r| r.map(|(digest, _)| digest) != Some(want))
        .count();
    let kernels_agree = id_digest(&local_skyline) == want && id_digest(&cell_skyline) == want;

    std::fs::create_dir_all(out_dir())?;
    std::fs::write(
        out_dir().join(format!("trace-{}.json", w.name)),
        rec.chrome_trace(),
    )?;

    Ok(RunResult {
        correct: failed == 0 && kernels_agree && warm.map(|(digest, _)| digest) == Some(want),
        attempted: records.len() as u64,
        failed: failed as u64,
        metrics: values.in_order(&PER_LAYER)?,
        digest: want,
        op_p99_s: None,
    })
}

/// The header line a run prints before its result.
pub fn describe(args: &RunArgs, result: &RunResult) -> String {
    let w = args.workload;
    let mut line = format!(
        "workload={} seed={} card={} dim={} host_threads={HOST_THREADS} samples={} digest={:016x}",
        w.name,
        args.seed,
        args.scale.apply(w.card),
        w.dim,
        result.attempted,
        result.digest,
    );
    if let Some(p99) = result.op_p99_s {
        line.push_str(&format!(" {}={p99} {}", OP_P99.name, OP_P99.unit));
    }
    line
}
