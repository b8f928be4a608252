//! The job's one clock: prices every task from what it counted, lays the
//! job out once on the simulated cluster, and draws the trace from that
//! layout.
//!
//! The driver's stages (`job.rs`) establish *facts* — record, byte and
//! comparison counts per task, attempt histories, which outputs were lost
//! and re-executed — and put them in a [`JobRecord`]. Everything timed is
//! derived here, after the fact, on the driver thread. A task's price is
//! one ordered list of terms built from its [`TaskModel`]: a launch, each
//! failed attempt and the backoff after it, then a launch and the committed
//! attempt with its spill and merge parts, priced with the
//! [`skymr_telemetry::model`] cost table and the cluster's hardware rates.
//! Everything else folds over that list: the waves `JobRecord::steps`
//! hands the executor's loop ([`crate::sched`]) — the map and reduce
//! phases and the map re-executions alike — the wasted and backoff time,
//! the speculative backups (planned and won on model ticks), the
//! registry's attempt and retry counts, and the spans [`JobRecord::emit`]
//! draws with one cursor. A job is its phases: one ordered list of waits
//! and waves, each step one phase. [`JobRecord::timeline`] runs the steps
//! with this job alone; `Job::close` reads every simulated time of
//! [`crate::cluster::JobMetrics`] off its log, `emit` draws the log one
//! phase at a time, and a multi-tenant
//! [`ClusterExecutor`](crate::sched::ClusterExecutor) replays the same
//! steps. No host clock is involved, so the metrics and the exports are
//! byte-identical across runs, host thread counts and schedule shakes.

use std::time::Duration;

use skymr_telemetry::model;
use skymr_telemetry::registry::TICK_BUCKETS;
use skymr_telemetry::{ArgValue, Collector, JobTrace, MetricsRegistry, Span, Ticks};

use crate::cluster::{ClusterConfig, Placement};
use crate::fault::{FailureCause, RetryPolicy, TaskKind};
use crate::sched::{run_alone, Slot, Step, Wave};
use crate::storage::MergeStats;

/// Lane 0 of every job: startup, broadcast, and shuffle-wide spans.
pub const DRIVER_LANE: u64 = 0;

/// The lane of `kind`'s slot `slot`: the map slots follow the driver
/// lane, the reduce slots follow the map slots.
fn slot_lane(cluster: &ClusterConfig, kind: TaskKind, slot: usize) -> u64 {
    let first = match kind {
        TaskKind::Map => 1,
        TaskKind::Reduce => 1 + cluster.map_slots,
    };
    (first + slot) as u64
}

fn network_lane(cluster: &ClusterConfig, node: usize) -> u64 {
    1 + (cluster.map_slots + cluster.reduce_slots + node) as u64
}

pub(crate) fn ticks_of(d: Duration) -> Ticks {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

pub(crate) fn from_ticks(t: Ticks) -> Duration {
    Duration::from_micros(t)
}

/// How one failed attempt failed (the deterministic projection of
/// [`FailureCause`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Ran to completion, output discarded — costs a full attempt.
    LostOutput,
    /// Crashed mid-task — costs roughly half the attempt's input scan and
    /// charged work, with nothing emitted.
    Panic,
    /// Its storage plane failed (host I/O, or spilled bytes failing their
    /// frame check) — priced like a mid-task crash.
    Storage,
    /// Made no progress; killed after the carried timeout (model ticks).
    /// The cost is the timeout itself, never scaled by a straggler factor —
    /// a wedged attempt does no work to slow down.
    Hang(Ticks),
}

impl FailKind {
    /// Projects an execution failure cause onto the model vocabulary.
    pub(crate) fn from_cause(cause: &FailureCause) -> Self {
        match cause {
            FailureCause::LostOutput => FailKind::LostOutput,
            FailureCause::Panic { .. } => FailKind::Panic,
            FailureCause::Storage { .. } => FailKind::Storage,
            FailureCause::Hang { timeout } => FailKind::Hang(ticks_of(*timeout)),
            FailureCause::Cancelled { .. } => unreachable!(
                "run_attempts never fails an attempt as cancelled: only the executor's \
                 cancel_job builds a cancellation, and it goes into a JobError"
            ),
        }
    }

    fn label(self) -> &'static str {
        match self {
            FailKind::LostOutput => "lost_output",
            FailKind::Panic => "panic",
            FailKind::Storage => "storage",
            FailKind::Hang(_) => "hang",
        }
    }
}

/// One shuffle partition whose fetched frame failed checksum verification,
/// as resolved by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptEvent {
    /// Producing map task.
    pub map: usize,
    /// Fetching reducer.
    pub reducer: usize,
    /// Fetch attempts that delivered corrupted bytes (1 = transient,
    /// recovered by re-fetch; 2 = at-rest, escalated to map re-execution).
    pub fetches: u32,
}

/// A speculative backup attempt, planned on model ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backup {
    /// When the backup launched: the phase's median task duration.
    pub launch: Ticks,
    /// When it commits: one launch overhead and one clean attempt later.
    pub finish: Ticks,
    /// `true` iff the backup commits before the straggling original
    /// (ties go to the original).
    pub wins: bool,
}

/// The deterministic facts about one task: what it counted and its attempt
/// history. Everything the clock needs, nothing measured.
#[derive(Debug, Clone, Default)]
pub struct TaskModel {
    /// Input records consumed (map: split length; reduce: values).
    pub records_in: u64,
    /// Distinct input keys the committed attempt streamed (reduce only; 0
    /// for map tasks and for a reducer that never succeeded).
    pub keys_in: u64,
    /// Output records emitted.
    pub records_out: u64,
    /// Bytes through the task (map: emitted shuffle bytes; reduce: shuffle
    /// bytes consumed).
    pub bytes: u64,
    /// Work units the committed attempt charged through
    /// [`Emitter::charge`](crate::Emitter::charge) /
    /// [`OutputCollector::charge`](crate::OutputCollector::charge) — for
    /// the skyline algorithms, dominance comparisons.
    pub work: u64,
    /// Failed attempts, in order. The committed attempt follows them.
    pub failures: Vec<FailKind>,
    /// `true` iff the task exhausted its attempt budget: its last attempt is
    /// the one it was denied, priced at zero output but not counted.
    pub denied: bool,
    /// Straggler slowdown from the fault plan (deterministic).
    pub slowdown: f64,
    /// On-disk bytes of each spill segment the task wrote (map tasks in
    /// spill mode; empty otherwise). Recorded by the writer, never measured.
    pub spills: Vec<u64>,
    /// External-merge cascade cost (reduce tasks in spill mode; `None`
    /// otherwise) — the closed-form accounting from the runs' sizes.
    pub merge: Option<MergeStats>,
    /// The speculative backup the task was given, if any.
    pub backup: Option<Backup>,
}

/// The steps of a job, in the order they run ([`JobRecord::steps`]): the
/// waits pass on no slot and are drawn on the driver lane, the waves run
/// on the slots. [`JobRecord::timeline`] logs one [`Wave`] per phase,
/// indexed by the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Job startup, then the cache broadcast (a wait).
    Setup,
    /// Every map task's attempts, on the map slots.
    Map,
    /// Producers of lost shuffle partitions, re-executed.
    Recovery,
    /// The heartbeat timeout that detects the lost nodes (a wait), waited
    /// out once when a map output died with its node.
    Heartbeat,
    /// Map outputs that died with their node, re-executed on the
    /// surviving map slots.
    Reexec,
    /// Producers of partitions found corrupt at rest, re-executed on the
    /// surviving map slots before the shuffle barrier lifts.
    Rotten,
    /// Shuffle transfers, stalls and re-fetches (a wait).
    Shuffle,
    /// Every reduce task's attempts, on the surviving reduce slots.
    Reduce,
}

impl Phase {
    const ALL: [Phase; 8] = [
        Phase::Setup,
        Phase::Map,
        Phase::Recovery,
        Phase::Heartbeat,
        Phase::Reexec,
        Phase::Rotten,
        Phase::Shuffle,
        Phase::Reduce,
    ];

    /// How the phase is drawn: the key its span ids and a wave's occupancy
    /// counter hang off (a wait's span name), the category, and the label
    /// after a task's `map[i]`.
    fn drawn(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Phase::Setup => ("startup", "driver", ""),
            Phase::Map => ("map", "map", ""),
            Phase::Recovery => ("recovery", "map", " (recovery)"),
            Phase::Heartbeat => ("heartbeat", "driver", ""),
            Phase::Reexec => ("reexec", "reexec", " (re-exec)"),
            Phase::Rotten => ("rotten", "reexec", " (re-exec)"),
            Phase::Shuffle => ("shuffle", "driver", ""),
            Phase::Reduce => ("reduce", "reduce", ""),
        }
    }

    /// The slot pool a wave runs on.
    fn kind(self) -> TaskKind {
        match self {
            Phase::Reduce => TaskKind::Reduce,
            _ => TaskKind::Map,
        }
    }
}

/// Everything the job driver establishes about one job. The driver's
/// stages fill the record in as they run (`job.rs`), so an aborted job
/// still hands over whatever its finished stages established.
#[derive(Debug)]
pub struct JobRecord<'a> {
    /// Job name.
    pub name: &'a str,
    /// The cluster the job ran on.
    pub cluster: &'a ClusterConfig,
    /// Distributed-cache bytes broadcast before the job.
    pub cache_bytes: u64,
    /// Broadcast transfers executed (1 + injected failures).
    pub broadcast_attempts: u32,
    /// Modeled broadcast charge.
    pub broadcast_time: Duration,
    /// Modeled shuffle time: bottleneck-node transfer, partition stalls
    /// and corrupt re-fetches.
    pub shuffle_time: Duration,
    /// The part of `shuffle_time` spent after the transfers: transient
    /// node partitions and corrupt re-fetches.
    pub shuffle_stall: Duration,
    /// Shuffle bytes routed to each reducer.
    pub per_reducer_bytes: Vec<u64>,
    /// Per reducer, as the shuffle was priced
    /// ([`ClusterConfig::shuffle_time`]): the node whose downlink carries
    /// its fetch, and the bytes fetched.
    pub fetches: Vec<(usize, u64)>,
    /// Per-map-task facts.
    pub map: Vec<TaskModel>,
    /// Per-reduce-task facts.
    pub reduce: Vec<TaskModel>,
    /// Map tasks re-executed, in phase order: each with its
    /// [`Phase::Recovery`], [`Phase::Reexec`] or [`Phase::Rotten`] wave,
    /// its index, and the facts of its own re-execution.
    pub(crate) reruns: Vec<(Phase, usize, TaskModel)>,
    /// Lost `(map_task, reducer)` shuffle partitions.
    pub lost: Vec<(usize, usize)>,
    /// Shuffle partitions whose frames failed checksum verification, in
    /// `(map, reducer)` order.
    pub corrupt: Vec<CorruptEvent>,
    /// Records skipped by the skip-bad-records policy, as
    /// `(map_task, record)` pairs in increasing order.
    pub skipped: Vec<(usize, usize)>,
    /// Nodes lost at the shuffle barrier this job, in resolution order.
    pub node_losses: Vec<usize>,
    /// Nodes blacklisted by the end of the job.
    pub nodes_blacklisted: u64,
    /// Map slots still schedulable once the map phase's dead and
    /// blacklisted nodes are gone.
    pub surviving_map_slots: usize,
    /// Reduce slots still schedulable, likewise.
    pub surviving_reduce_slots: usize,
    /// Snapshot of the job's user counters (already sorted).
    pub user_counters: Vec<(String, u64)>,
}

/// A task is a straggler, and gets a speculative backup, when its attempts
/// run past this multiple of its phase's median (Hadoop's default).
const STRAGGLER_FACTOR: f64 = 3.0;

/// Phases with fewer tasks never speculate: a median over one task is
/// meaningless.
const MIN_SPECULATIVE_PHASE: usize = 2;

impl JobRecord<'_> {
    fn overhead(&self) -> Ticks {
        ticks_of(self.cluster.task_overhead)
    }

    /// The task's price: its [`Term`]s in slot order, each handed to
    /// `term`. Each retry is a launch, the failed attempt (priced by its
    /// [`FailKind`]) and the backoff after it; then come a launch, the last
    /// attempt and its parts — compute, then the storage I/O on the
    /// configured disk. A straggler's slowdown stretches a full attempt,
    /// compute and I/O alike.
    fn terms<'t>(&self, task: &'t TaskModel, mut term: impl FnMut(Term<'t>)) {
        let overhead = self.overhead();
        let cpu = model::attempt_ticks(task.records_in, task.records_out, task.bytes, task.work);
        let io = |bytes, seeks| ticks_of(self.cluster.storage.io_time(bytes, seeks));
        let merge = |m: &MergeStats| io(m.bytes_read + m.bytes_written, m.seeks);
        let spills: Ticks = task.spills.iter().map(|&b| io(b, 1)).sum();
        let clean = cpu + spills + task.merge.map_or(0, |m| merge(&m));
        let full = model::scaled(clean, task.slowdown);
        let half = model::attempt_ticks(task.records_in / 2, 0, 0, task.work / 2);
        for (k, &kind) in task.failures.iter().enumerate() {
            let ticks = match kind {
                FailKind::LostOutput => full,
                FailKind::Panic | FailKind::Storage => model::scaled(half, task.slowdown),
                FailKind::Hang(timeout) => timeout,
            };
            let backoff = ticks_of(RetryPolicy::backoff_after(k as u32));
            term(Term::Launch(overhead));
            term(Term::Failed(k, kind, ticks));
            term(Term::Backoff(k, backoff));
        }
        let k = task.failures.len();
        term(Term::Launch(overhead));
        term(if task.denied {
            Term::Denied(k, full)
        } else {
            Term::Committed(k, full)
        });
        term(Term::Compute(cpu));
        for (k, &bytes) in task.spills.iter().enumerate() {
            term(Term::Spill(k, bytes, io(bytes, 1)));
        }
        if let Some(m) = &task.merge {
            term(Term::Merge(m, merge(m)));
        }
    }

    /// The sums the clock and the registry read off the task's terms.
    fn price(&self, task: &TaskModel) -> Price {
        let mut price = Price::default();
        self.terms(task, |term| match term {
            Term::Launch(ticks) | Term::Denied(_, ticks) => price.run += ticks,
            Term::Failed(_, _, ticks) => {
                price.run += ticks;
                price.lost += ticks;
                price.attempts += 1;
            }
            Term::Committed(_, ticks) => {
                price.run += ticks;
                price.attempts += 1;
            }
            Term::Backoff(_, ticks) => {
                price.run += ticks;
                price.backoff += ticks;
            }
            Term::Compute(ticks) | Term::Spill(_, _, ticks) | Term::Merge(_, ticks) => {
                price.clean += ticks;
            }
        });
        // Placement charges the first launch.
        price.run -= self.overhead();
        price
    }

    /// Ticks the task holds its slot on the timeline after its first
    /// launch: its own attempts, or — when a speculative backup beat them
    /// — up to the moment the backup commits and the original is killed.
    pub fn slot_ticks(&self, task: &TaskModel) -> Ticks {
        match task.backup {
            Some(backup) if backup.wins => backup.finish,
            _ => self.price(task).run,
        }
    }

    /// Slot ticks of the task that produced no surviving output: failed
    /// attempts, and the losing half of a speculative pair — the killed
    /// original's run, or the backup's until the original committed.
    fn wasted_ticks(&self, task: &TaskModel, price: &Price) -> Ticks {
        let speculation = match task.backup {
            Some(backup) if backup.wins => backup.finish,
            Some(backup) => price.run.min(backup.finish).saturating_sub(backup.launch),
            None => 0,
        };
        price.lost + speculation
    }

    /// Plans the phase's speculative backups on model ticks, records them on
    /// the tasks, and returns which tasks get one and whether it wins. A task
    /// whose attempts run past [`STRAGGLER_FACTOR`] × the phase median is
    /// backed up at the median mark; the backup wins iff it commits strictly
    /// before the original would have.
    pub(crate) fn plan_backups(&mut self, kind: TaskKind) -> Vec<(usize, bool)> {
        let mut tasks = std::mem::take(self.phase_mut(kind));
        let prices: Vec<Price> = tasks.iter().map(|t| self.price(t)).collect();
        let ticks: Vec<Ticks> = prices.iter().map(|p| p.run).collect();
        let launch = model::median(&ticks);
        let threshold = model::scaled(launch, STRAGGLER_FACTOR);
        let mut planned = Vec::new();
        if tasks.len() >= MIN_SPECULATIVE_PHASE && launch > 0 {
            for (i, task) in tasks.iter_mut().enumerate() {
                let finish = model::backup_finish(launch, prices[i].clean, self.overhead());
                if ticks[i] > threshold {
                    let wins = finish < ticks[i];
                    task.backup = Some(Backup {
                        launch,
                        finish,
                        wins,
                    });
                    planned.push((i, wins));
                }
            }
        }
        *self.phase_mut(kind) = tasks;
        planned
    }

    fn phase_mut(&mut self, kind: TaskKind) -> &mut Vec<TaskModel> {
        match kind {
            TaskKind::Map => &mut self.map,
            TaskKind::Reduce => &mut self.reduce,
        }
    }

    /// The tasks of wave `phase`, as `(task index, task)` pairs in wave
    /// order (none for a wait).
    fn tasks(&self, phase: Phase) -> Vec<(usize, &TaskModel)> {
        match phase {
            Phase::Map => self.map.iter().enumerate().collect(),
            Phase::Reduce => self.reduce.iter().enumerate().collect(),
            _ => {
                let rerun = self.reruns.iter().filter(|(p, ..)| *p == phase);
                rerun.map(|(_, i, task)| (*i, task)).collect()
            }
        }
    }

    /// Every task the job ran: the map and reduce phases' and the
    /// re-executions'.
    fn every_task(&self) -> impl Iterator<Item = &TaskModel> {
        let reruns = self.reruns.iter().map(|(.., task)| task);
        self.map.iter().chain(&self.reduce).chain(reruns)
    }

    /// The job's priced steps, one per [`Phase`] in order. A wave's task
    /// costs its terms, cut short by a winning backup; the re-executions
    /// after the heartbeat run on the surviving slots.
    pub(crate) fn steps(&self) -> Vec<Step> {
        let cluster = self.cluster;
        let step = |phase| {
            let cap = match phase {
                Phase::Setup => {
                    let setup = ticks_of(cluster.job_startup) + ticks_of(self.broadcast_time);
                    return Step::Wait(setup);
                }
                // Every loss lands at the shuffle barrier, and the
                // tracker-expiry check sweeps every node together: one
                // timeout detects them all. Only a re-execution waits on it
                // (the reducers are homed over the surviving nodes).
                Phase::Heartbeat if self.tasks(Phase::Reexec).is_empty() => return Step::Wait(0),
                Phase::Heartbeat => return Step::Wait(ticks_of(cluster.heartbeat_timeout)),
                Phase::Shuffle => return Step::Wait(ticks_of(self.shuffle_time)),
                Phase::Map | Phase::Recovery => cluster.map_slots,
                Phase::Reexec | Phase::Rotten => self.surviving_map_slots,
                Phase::Reduce => self.surviving_reduce_slots,
            };
            let cost = |(_, task)| self.overhead() + self.slot_ticks(task);
            let tasks = self.tasks(phase).into_iter().map(cost).collect();
            Step::Wave {
                kind: phase.kind(),
                cap,
                tasks,
            }
        };
        Phase::ALL.into_iter().map(step).collect()
    }

    /// Lays the job out on the simulated cluster: its steps run through the
    /// executor's loop with this job alone. The log holds one wave per
    /// `Phase`, indexed by it, in absolute ticks — the only place wave
    /// start and end times are computed, and the single source of every
    /// simulated time the engine reports or draws.
    pub fn timeline(&self) -> Vec<Wave> {
        run_alone(self.cluster, self.steps())
    }

    /// Slot ticks that produced no surviving output, across every task.
    pub(crate) fn wasted(&self) -> Ticks {
        let wasted = |task| self.wasted_ticks(task, &self.price(task));
        self.every_task().map(wasted).sum()
    }

    /// Retry backoff charged across every task.
    pub(crate) fn backoff(&self) -> Ticks {
        self.every_task().map(|task| self.price(task).backoff).sum()
    }

    /// Builds the job's metrics registry — the structured source of truth
    /// the legacy `JobMetrics` count fields are derived from.
    pub fn build_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for task in &self.map {
            reg.add("map.records_in", task.records_in);
            reg.add("map.records_out", task.records_out);
            reg.add("map.bytes_out", task.bytes);
            reg.add("map.work", task.work);
            // Storage-plane counters exist only for jobs that spilled, so
            // unspilled registries (and their exports) carry none.
            if !task.spills.is_empty() {
                reg.add("storage.spill_files", task.spills.len() as u64);
                reg.add("storage.spilled_bytes", task.spills.iter().sum());
                reg.add("storage.seeks", task.spills.len() as u64);
            }
            reg.record("map.task_ticks", TICK_BUCKETS, self.slot_ticks(task));
        }
        // Failures fold over every map wave; a re-execution adds nothing
        // else, since the phase already counted the output it commits.
        let reruns = || self.reruns.iter().map(|(.., task)| task);
        for kind in self.map.iter().chain(reruns()).flat_map(|t| &t.failures) {
            reg.add(&format!("map.failures.{}", kind.label()), 1);
        }
        for task in &self.reduce {
            reg.add("reduce.records_in", task.records_in);
            reg.add("reduce.input_keys", task.keys_in);
            reg.add("reduce.records_out", task.records_out);
            reg.add("reduce.bytes_in", task.bytes);
            reg.add("reduce.work", task.work);
            for &kind in &task.failures {
                reg.add(&format!("reduce.failures.{}", kind.label()), 1);
            }
            if let Some(m) = &task.merge {
                reg.add("storage.merge_runs", m.runs);
                reg.add("storage.merge_passes", m.passes);
                reg.add("storage.merge_bytes_read", m.bytes_read);
                reg.add("storage.merge_bytes_written", m.bytes_written);
                reg.add("storage.seeks", m.seeks);
            }
            reg.record("reduce.task_ticks", TICK_BUCKETS, self.slot_ticks(task));
        }
        let wins = |tasks: &[TaskModel]| {
            let won = |t: &&TaskModel| t.backup.is_some_and(|b| b.wins);
            tasks.iter().filter(won).count() as u64
        };
        let (map_wins, reduce_wins) = (wins(&self.map), wins(&self.reduce));
        // Attempts: the failed and committed terms of every wave, and the
        // backups. A retry is an attempt that is none of a task's first, a
        // backup, or the re-execution of an output lost with its node.
        let tried = |t: &TaskModel| self.price(t).attempts;
        let backups = |tasks: &[TaskModel]| tasks.iter().filter(|t| t.backup.is_some()).count();
        let map_tried: u64 = self.map.iter().chain(reruns()).map(tried).sum();
        let reduce_tried: u64 = self.reduce.iter().map(tried).sum();
        let map_attempts = map_tried + backups(&self.map) as u64;
        let reduce_attempts = reduce_tried + backups(&self.reduce) as u64;
        let reexecuted = self.tasks(Phase::Reexec).len() as u64;
        let map_firsts = self.map.len() as u64 + reexecuted;
        let reduce_firsts = self.reduce.len() as u64;
        reg.add("map.attempts", map_attempts);
        reg.add("map.retries", map_tried.saturating_sub(map_firsts));
        reg.add("reduce.attempts", reduce_attempts);
        reg.add("reduce.retries", reduce_tried.saturating_sub(reduce_firsts));
        reg.add("task.attempts", map_attempts + reduce_attempts);
        reg.add("map.speculative_wins", map_wins);
        reg.add("reduce.speculative_wins", reduce_wins);
        reg.add("task.speculative_wins", map_wins + reduce_wins);
        let recovered = self.tasks(Phase::Recovery).len() as u64;
        reg.add("map.recovery_tasks", recovered);
        reg.add("shuffle.lost_partitions", self.lost.len() as u64);
        reg.add("shuffle.corrupt_partitions", self.corrupt.len() as u64);
        for c in &self.corrupt {
            reg.add("shuffle.corrupt_fetches", u64::from(c.fetches));
        }
        reg.add("map.records_skipped", self.skipped.len() as u64);
        reg.add("node.lost", self.node_losses.len() as u64);
        reg.add("map.reexecuted", reexecuted);
        reg.add("node.blacklisted", self.nodes_blacklisted);
        reg.add("shuffle.bytes", self.per_reducer_bytes.iter().sum());
        reg.add("broadcast.bytes", self.cache_bytes);
        reg.add("broadcast.attempts", u64::from(self.broadcast_attempts));
        reg.set_gauge("cluster.nodes", self.cluster.nodes as i64);
        reg.set_gauge("cluster.map_slots", self.cluster.map_slots as i64);
        reg.set_gauge("cluster.reduce_slots", self.cluster.reduce_slots as i64);
        for (key, value) in &self.user_counters {
            reg.add(&format!("user.{key}"), *value);
        }
        reg
    }

    /// Draws the job's [`timeline`](Self::timeline) log as spans, one
    /// phase at a time, and commits them, `registry` attached, to
    /// `collector`, whose model clock advances by the total. A wave draws
    /// its tasks on their slots; a wait draws one driver-lane span.
    pub fn emit(&self, log: &[Wave], collector: &Collector, registry: MetricsRegistry) {
        let mut job = JobTrace::new(self.name);
        *job.registry_mut() = registry;
        let cluster = self.cluster;
        job.name_lane(DRIVER_LANE, "driver");
        // With a placement, slot lanes carry their home node so node-loss
        // instants can be read against the lanes they hit.
        let home = |slot| match &cluster.placement {
            Some(_) => format!(" @n{}", Placement::node_of_slot(slot, cluster.nodes.max(1))),
            None => String::new(),
        };
        let (map, reduce) = (TaskKind::Map, TaskKind::Reduce);
        for (kind, slots) in [(map, cluster.map_slots), (reduce, cluster.reduce_slots)] {
            for slot in 0..slots {
                let name = format!("{} slot {slot}{}", kind.name(), home(slot));
                job.name_lane(slot_lane(cluster, kind, slot), name);
            }
        }

        let driver =
            |tag, cat, at, dur| Span::new(&[self.name, tag], tag, cat, DRIVER_LANE, at, dur);
        for (phase, wave) in Phase::ALL.into_iter().zip(log) {
            let (tag, cat, _) = phase.drawn();
            let wait = || driver(tag, cat, wave.start, wave.span());
            match phase {
                // Startup, then the cache broadcast.
                Phase::Setup => {
                    let startup = ticks_of(cluster.job_startup);
                    job.span(driver(tag, cat, 0, startup).with_arg("job", self.name));
                    let broadcast = wave.span() - startup;
                    if broadcast > 0 {
                        let span = driver("broadcast", cat, startup, broadcast);
                        let span = span.with_arg("bytes", self.cache_bytes);
                        job.span(span.with_arg("transfers", u64::from(self.broadcast_attempts)));
                    }
                }
                // Each loss lands at the shuffle barrier, `at_tick` into the
                // map wave. The heartbeat wait detects them, and a
                // `node-loss` instant per loss marks where it ends: the
                // invalidated map tasks re-run from there.
                Phase::Heartbeat => {
                    let at_tick = log[Phase::Map as usize].span();
                    for &node in &self.node_losses {
                        let args = [("node", node as u64), ("at_tick", at_tick)];
                        fault_instant(&mut job, "node-loss", DRIVER_LANE, wave.end, &args);
                    }
                    if wave.span() > 0 {
                        job.span(wait().with_arg("losses", self.node_losses.len() as u64));
                    }
                }
                // Reducers pull their partitions over their home node's
                // downlink, transfers on one node are sequential, and the
                // stalls (node partitions, corrupt re-fetches) close the
                // phase — the transfers and stalls the shuffle was priced
                // from.
                Phase::Shuffle if wave.span() > 0 => {
                    job.span(wait());
                    self.emit_fetches(&mut job, wave.start);
                    let stall = ticks_of(self.shuffle_stall);
                    if stall > 0 {
                        let at = wave.end.saturating_sub(stall);
                        job.span(driver("shuffle stall", "shuffle", at, stall));
                    }
                }
                Phase::Shuffle => {}
                // Skip-bad-records outcomes: one instant per skipped record
                // at the map phase start (the narrowing happened inside the
                // map wave).
                Phase::Map => {
                    for &(task, record) in &self.skipped {
                        let args = [("task", task as u64), ("record", record as u64)];
                        let at = wave.start;
                        fault_instant(&mut job, "skip-record", DRIVER_LANE, at, &args);
                    }
                    self.emit_wave(&mut job, phase, wave);
                }
                // Corrupted partition fetches: one instant per partition
                // whose frame failed checksum verification, where the scan
                // found it — ahead of the producers it sends back.
                Phase::Rotten => {
                    for c in &self.corrupt {
                        let (map, reducer) = (c.map as u64, c.reducer as u64);
                        let fetches = u64::from(c.fetches);
                        let args = [("map", map), ("reducer", reducer), ("fetches", fetches)];
                        let at = wave.start;
                        fault_instant(&mut job, "fault:corrupt", DRIVER_LANE, at, &args);
                    }
                    self.emit_wave(&mut job, phase, wave);
                }
                Phase::Recovery | Phase::Reexec | Phase::Reduce => {
                    self.emit_wave(&mut job, phase, wave);
                }
            }
        }

        job.set_total(log[Phase::Reduce as usize].end);
        collector.commit(job);
    }

    /// The shuffle's transfers from `start`: one span per reducer's fetch
    /// on its node's downlink lane, each node's back to back.
    fn emit_fetches(&self, job: &mut JobTrace, start: Ticks) {
        let cluster = self.cluster;
        // Per-node download cursor and whether the lane is named yet.
        let mut node_state: Vec<(Ticks, bool)> = vec![(start, false); cluster.nodes.max(1)];
        for (j, &(node, bytes)) in self.fetches.iter().enumerate() {
            let dur = ticks_of(cluster.fetch_time(bytes));
            let Some((cursor, named)) = node_state.get_mut(node).filter(|_| dur > 0) else {
                continue;
            };
            let lane = network_lane(cluster, node);
            if !*named {
                job.name_lane(lane, format!("node {node} downlink"));
                *named = true;
            }
            let path = [self.name, "shuffle", &j.to_string()];
            let name = format!("shuffle→reduce[{j}]");
            let span = Span::new(&path, name, "shuffle", lane, *cursor, dur);
            job.span(span.with_arg("bytes", bytes).with_arg("reducer", j as u64));
            *cursor += dur;
        }
    }

    /// One placed wave — its tasks in wave order — plus its slot-occupancy
    /// counter.
    fn emit_wave(&self, job: &mut JobTrace, phase: Phase, wave: &Wave) {
        let mut occupancy: Vec<(Ticks, i64)> = Vec::new();
        for ((i, task), p) in self.tasks(phase).into_iter().zip(&wave.slots) {
            self.emit_task(job, phase, i, task, p);
            occupancy.push((p.start, 1));
            occupancy.push((p.end, -1));
        }
        emit_occupancy(job, &format!("{} running", phase.drawn().0), occupancy);
    }

    /// One task's span with nested attempt children, fault instants,
    /// backoff gaps, and the speculative backup if it had one.
    fn emit_task(
        &self,
        job: &mut JobTrace,
        phase: Phase,
        index: usize,
        task: &TaskModel,
        &Slot { slot, start, end }: &Slot,
    ) {
        let (kind, (key, cat, label)) = (phase.kind(), phase.drawn());
        let lane = slot_lane(self.cluster, kind, slot);
        let idx = index.to_string();
        let task_id = job.id(&[key, &idx]);
        let name = format!("{}[{index}]{label}", kind.name());
        let span = Span::new(&[self.name, key, &idx], name, cat, lane, start, end - start)
            .with_arg("records_in", task.records_in)
            .with_arg("records_out", task.records_out)
            .with_arg("bytes", task.bytes)
            .with_arg("work", task.work)
            .with_arg("attempts", task.failures.len() as u64 + 1)
            .with_arg("slowdown_pct", (task.slowdown.max(1.0) * 100.0) as u64);
        job.span(span);
        // Children are clipped to the task span: when a backup wins, the
        // original is killed at `end` and what it had left never ran.
        let nest = |job: &mut JobTrace, mut span: Span| {
            if span.start < end {
                span.dur = span.dur.min(end - span.start);
                job.span(span.with_parent(task_id));
            }
        };
        // A child of kind `tag` (and ordinal `k`, if it has one).
        let part = |tag: &str, k: &str, name: String, cat: &str, at: Ticks, dur: Ticks| {
            Span::new(&[self.name, key, &idx, tag, k], name, cat, lane, at, dur)
        };
        let attempt = |k: usize, at, dur, outcome: &str| {
            let (id, name) = (k.to_string(), format!("attempt {k}"));
            part("attempt", &id, name, "attempt", at, dur).with_arg("outcome", outcome)
        };
        let wins = task.backup.is_some_and(|b| b.wins);
        let (committed, backed) = if wins {
            ("killed", "winner")
        } else {
            ("winner", "killed")
        };
        if let Some(backup) = task.backup {
            // The backup launches at the median mark of the task's own run;
            // whichever attempt loses is killed when the other commits.
            let launched = start + self.overhead() + backup.launch;
            let ran = backup.finish - backup.launch;
            let span = part("backup", "", "backup".to_owned(), "attempt", launched, ran);
            nest(job, span.with_arg("outcome", backed));
        }
        // One cursor walks the slot; the last attempt's parts walk inside it.
        let mut cursor = start;
        self.terms(task, |term| match term {
            // A launch gap, or the last attempt's compute ahead of its
            // storage-plane children (spill mode only): each spill file it
            // wrote, then the reduce-side merge cascade.
            Term::Launch(ticks) | Term::Compute(ticks) => cursor += ticks,
            Term::Failed(k, kind, ticks) => {
                nest(job, attempt(k, cursor, ticks, kind.label()));
                cursor += ticks;
                // A hung attempt is killed by the progress-timeout detector:
                // its instant carries the timeout, so the kill is auditable.
                let args = [("task", index as u64), ("attempt", k as u64)];
                let fault = format!("fault:{}", kind.label());
                match kind {
                    _ if cursor > end => {}
                    FailKind::Hang(timeout) => {
                        let args = [args[0], args[1], ("timeout_ticks", timeout)];
                        fault_instant(job, "hang-kill", lane, cursor, &args);
                    }
                    _ => fault_instant(job, &fault, lane, cursor, &args),
                }
            }
            Term::Backoff(k, ticks) => {
                if ticks > 0 {
                    let (id, name) = (k.to_string(), "backoff".to_owned());
                    nest(job, part("backoff", &id, name, "backoff", cursor, ticks));
                }
                cursor += ticks;
            }
            Term::Committed(k, ticks) => nest(job, attempt(k, cursor, ticks, committed)),
            Term::Denied(k, ticks) => nest(job, attempt(k, cursor, ticks, "denied")),
            Term::Spill(k, bytes, ticks) => {
                let (id, name) = (k.to_string(), format!("spill[{k}]"));
                let span = part("spill", &id, name, "storage", cursor, ticks);
                nest(job, span.with_arg("bytes", bytes));
                cursor += ticks;
            }
            Term::Merge(m, ticks) => {
                let span = part("merge", "", "merge".to_owned(), "storage", cursor, ticks)
                    .with_arg("runs", m.runs)
                    .with_arg("passes", m.passes)
                    .with_arg("bytes_read", m.bytes_read)
                    .with_arg("bytes_written", m.bytes_written);
                nest(job, span);
            }
        });
    }
}

/// One term of a task's price, in slot order ([`JobRecord::terms`]): a
/// launch overhead; failed attempt `k`, its kind and the backoff after it;
/// the committed attempt `k`, or the one an aborted task was denied (priced,
/// not counted); then the last attempt's parts, which lie inside it and sum
/// to its price at full speed — its compute, spill file `k` of so many
/// on-disk bytes, and its external-merge cascade.
enum Term<'t> {
    Launch(Ticks),
    Failed(usize, FailKind, Ticks),
    Backoff(usize, Ticks),
    Committed(usize, Ticks),
    Denied(usize, Ticks),
    Compute(Ticks),
    Spill(usize, u64, Ticks),
    Merge(&'t MergeStats, Ticks),
}

/// The sums of a task's terms.
#[derive(Default)]
struct Price {
    /// Launches, attempts and backoffs after the first launch.
    run: Ticks,
    /// The failed attempts.
    lost: Ticks,
    /// The backoffs.
    backoff: Ticks,
    /// The last attempt's parts: a full attempt at full speed, what a
    /// backup costs.
    clean: Ticks,
    /// The failed and committed attempts.
    attempts: u64,
}

/// One `fault`-category instant with integer arguments.
fn fault_instant(job: &mut JobTrace, name: &str, lane: u64, at: Ticks, args: &[(&str, u64)]) {
    let arg = |&(key, value): &(&str, u64)| (key.to_owned(), ArgValue::U64(value));
    job.instant(name, "fault", lane, at, args.iter().map(arg).collect());
}

/// Turns start/end deltas into counter samples (a stacked-area track in
/// the viewer), one per tick. Ends sort before starts at the same tick so
/// the count never over-shoots.
fn emit_occupancy(job: &mut JobTrace, name: &str, mut deltas: Vec<(Ticks, i64)>) {
    deltas.sort_unstable();
    let mut running: i64 = 0;
    for (i, &(tick, delta)) in deltas.iter().enumerate() {
        running += delta;
        if deltas.get(i + 1).map_or(true, |&(next, _)| next != tick) {
            job.counter(name, tick, "tasks", running.max(0) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_telemetry::EventKind;

    fn test_record<'a>(cluster: &'a ClusterConfig, per_reducer_bytes: &[u64]) -> JobRecord<'a> {
        JobRecord {
            name: "wc",
            cluster,
            cache_bytes: 0,
            broadcast_attempts: 1,
            broadcast_time: Duration::ZERO,
            shuffle_time: Duration::from_micros(40),
            shuffle_stall: Duration::ZERO,
            per_reducer_bytes: per_reducer_bytes.to_vec(),
            fetches: per_reducer_bytes
                .iter()
                .enumerate()
                .map(|(j, &b)| (j % cluster.nodes.max(1), b))
                .collect(),
            map: vec![
                TaskModel {
                    records_in: 10,
                    records_out: 8,
                    bytes: 256,
                    failures: vec![FailKind::LostOutput],
                    slowdown: 1.0,
                    ..Default::default()
                },
                TaskModel {
                    records_in: 6,
                    records_out: 6,
                    bytes: 128,
                    slowdown: 1.0,
                    ..Default::default()
                },
            ],
            reduce: vec![TaskModel {
                records_in: 14,
                keys_in: 5,
                records_out: 5,
                bytes: 384,
                slowdown: 1.0,
                ..Default::default()
            }],
            reruns: Vec::new(),
            lost: Vec::new(),
            corrupt: Vec::new(),
            skipped: Vec::new(),
            node_losses: Vec::new(),
            nodes_blacklisted: 0,
            surviving_map_slots: cluster.map_slots,
            surviving_reduce_slots: cluster.reduce_slots,
            user_counters: vec![("gpsrs.map.tuple_cmps".to_owned(), 99)],
        }
    }

    #[test]
    fn registry_derives_phase_counters() {
        let cluster = ClusterConfig::test();
        let rec = test_record(&cluster, &[384]);
        let reg = rec.build_registry();
        assert_eq!(reg.counter("map.records_out"), 14);
        assert_eq!(reg.counter("reduce.input_keys"), 5);
        assert_eq!(reg.counter("map.failures.lost_output"), 1);
        assert_eq!(reg.counter("task.attempts"), 4);
        assert_eq!(reg.counter("user.gpsrs.map.tuple_cmps"), 99);
        assert_eq!(reg.gauge("cluster.map_slots"), Some(4));
        let hist = reg.histogram("map.task_ticks").expect("map histogram");
        assert_eq!(hist.count(), 2);
    }

    #[test]
    fn emit_lays_out_phases_in_order_with_attempt_children() {
        let cluster = ClusterConfig::test();
        let rec = test_record(&cluster, &[384]);
        let collector = Collector::new();
        let registry = rec.build_registry();
        rec.emit(&rec.timeline(), &collector, registry);
        let doc = collector.finish();

        let span = |name: &str| {
            doc.events
                .iter()
                .find(|e| e.kind == EventKind::Complete && e.name == name)
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let startup = span("startup");
        let map0 = span("map[0]");
        let reduce0 = span("reduce[0]");
        assert!(map0.ts >= startup.ts + startup.dur);
        assert!(reduce0.ts >= map0.ts + map0.dur);
        // The shuffle wait is drawn on the driver lane, up to the reduces.
        let shuffle = span("shuffle");
        assert_eq!(
            (shuffle.tid, shuffle.cat.as_str(), shuffle.dur),
            (DRIVER_LANE, "driver", ticks_of(rec.shuffle_time))
        );
        assert_eq!(shuffle.ts + shuffle.dur, reduce0.ts);
        // map[0]: one failed + one winning attempt; map[1] and reduce[0]:
        // one winning attempt each.
        let attempts = doc
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Complete && e.cat == "attempt")
            .count();
        assert_eq!(attempts, 4, "2 + 1 + 1 attempts across tasks");
        assert!(doc
            .events
            .iter()
            .any(|e| e.kind == EventKind::Instant && e.name == "fault:lost_output"));
        assert!(doc
            .events
            .iter()
            .any(|e| e.kind == EventKind::Counter && e.name == "map running"));
    }

    #[test]
    fn data_integrity_events_reach_instants_and_counters() {
        let cluster = ClusterConfig::test();
        let mut rec = test_record(&cluster, &[384]);
        rec.corrupt = vec![
            CorruptEvent {
                map: 0,
                reducer: 0,
                fetches: 1,
            },
            CorruptEvent {
                map: 1,
                reducer: 0,
                fetches: 2,
            },
        ];
        rec.skipped = vec![(1, 3)];
        rec.map[0].failures = vec![FailKind::Hang(5000)];

        let reg = rec.build_registry();
        assert_eq!(reg.counter("shuffle.corrupt_partitions"), 2);
        assert_eq!(reg.counter("shuffle.corrupt_fetches"), 3);
        assert_eq!(reg.counter("map.records_skipped"), 1);
        assert_eq!(reg.counter("map.failures.hang"), 1);

        let collector = Collector::new();
        rec.emit(&rec.timeline(), &collector, reg);
        let doc = collector.finish();
        let instants = |name: &str| {
            doc.events
                .iter()
                .filter(|e| e.kind == EventKind::Instant && e.name == name)
                .count()
        };
        assert_eq!(instants("fault:corrupt"), 2);
        assert_eq!(instants("skip-record"), 1);
        assert_eq!(instants("hang-kill"), 1);
        assert_eq!(instants("fault:hang"), 0, "hangs emit hang-kill instead");
        // The hung attempt's span charges exactly the carried timeout.
        let hung = doc
            .events
            .iter()
            .find(|e| e.kind == EventKind::Complete && e.cat == "attempt" && e.name == "attempt 0")
            .expect("hung attempt span");
        assert_eq!(hung.dur, 5000);
    }

    #[test]
    fn storage_plane_reaches_spans_and_counters() {
        let cluster = ClusterConfig::test();
        let mut rec = test_record(&cluster, &[384]);
        rec.map[0].spills = vec![4096, 2048];
        rec.reduce[0].merge = Some(MergeStats {
            runs: 2,
            passes: 1,
            bytes_read: 6144,
            bytes_written: 0,
            seeks: 2,
        });

        let reg = rec.build_registry();
        assert_eq!(reg.counter("storage.spill_files"), 2);
        assert_eq!(reg.counter("storage.spilled_bytes"), 6144);
        assert_eq!(reg.counter("storage.merge_passes"), 1);
        assert_eq!(reg.counter("storage.merge_bytes_read"), 6144);
        assert_eq!(
            reg.counter("storage.seeks"),
            4,
            "2 spill creates + 2 merge opens"
        );

        let collector = Collector::new();
        rec.emit(&rec.timeline(), &collector, reg);
        let doc = collector.finish();
        let storage: Vec<_> = doc
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Complete && e.cat == "storage")
            .collect();
        assert_eq!(storage.len(), 3, "two spills + one merge");
        assert!(storage.iter().any(|e| e.name == "spill[1]"));
        assert!(storage.iter().any(|e| e.name == "merge"));
        // Storage children stay inside their parent task span.
        let span = |name: &str| {
            doc.events
                .iter()
                .find(|e| e.kind == EventKind::Complete && e.name == name)
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let map0 = span("map[0]");
        let spill1 = span("spill[1]");
        assert!(spill1.ts >= map0.ts);
        assert!(spill1.ts + spill1.dur <= map0.ts + map0.dur);
        let reduce0 = span("reduce[0]");
        let merge = span("merge");
        assert!(merge.ts >= reduce0.ts);
        assert!(merge.ts + merge.dur <= reduce0.ts + reduce0.dur);
    }

    #[test]
    fn unspilled_records_emit_no_storage_artifacts() {
        let cluster = ClusterConfig::test();
        let rec = test_record(&cluster, &[384]);
        let reg = rec.build_registry();
        assert_eq!(reg.counter("storage.spill_files"), 0);
        let collector = Collector::new();
        rec.emit(&rec.timeline(), &collector, reg);
        let doc = collector.finish();
        assert!(doc.events.iter().all(|e| e.cat != "storage"));
    }

    /// A record of `n` identical clean map tasks on the test cluster.
    fn uniform_record(cluster: &ClusterConfig, n: usize) -> JobRecord<'_> {
        let mut rec = test_record(cluster, &[]);
        let task = TaskModel {
            records_in: 1_000,
            records_out: 100,
            bytes: 4_096,
            work: 1_000_000,
            slowdown: 1.0,
            ..Default::default()
        };
        rec.map = vec![task; n];
        rec.reduce = Vec::new();
        rec
    }

    /// The job's simulated runtime: where its reduce wave ends.
    fn total(rec: &JobRecord<'_>) -> Ticks {
        rec.timeline()[Phase::Reduce as usize].end
    }

    #[test]
    fn timeline_phases_add_up_to_the_total() {
        let cluster = ClusterConfig::test();
        let mut rec = test_record(&cluster, &[384]);
        // Each re-execution runs clean: the phase's model less its failures.
        let rerun = |phase, i: usize| {
            let task = TaskModel {
                failures: Vec::new(),
                ..rec.map[i].clone()
            };
            (phase, i, task)
        };
        let reruns = vec![
            rerun(Phase::Recovery, 1),
            rerun(Phase::Reexec, 0),
            rerun(Phase::Rotten, 0),
            rerun(Phase::Rotten, 1),
        ];
        rec.reruns = reruns;
        rec.node_losses = vec![2, 3];
        rec.surviving_map_slots = 1;
        let log = rec.timeline();
        // One wave per phase, back to back from tick 0 to the total.
        assert_eq!(log.len(), Phase::ALL.len());
        assert_eq!(log[0].start, 0);
        for pair in log.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        let span = |phase: Phase| log[phase as usize].span();
        assert_eq!(total(&rec), Phase::ALL.into_iter().map(span).sum());
        assert_eq!(
            span(Phase::Heartbeat),
            2_000,
            "one heartbeat timeout for both losses"
        );
        // Two rotten producers on the one surviving slot run back to back.
        let clean: Vec<Ticks> = rec.map.iter().map(|m| rec.price(m).clean).collect();
        assert_eq!(
            span(Phase::Rotten),
            clean[0] + clean[1] + 2 * rec.overhead()
        );
        // Only the failed attempt is waste.
        assert_eq!(rec.wasted(), clean[0]);
        assert_eq!(rec.backoff(), ticks_of(RetryPolicy::backoff_after(0)));
    }

    #[test]
    fn the_heartbeat_wait_is_drawn_on_the_driver_lane() {
        let cluster = ClusterConfig::test();
        let mut rec = test_record(&cluster, &[384]);
        rec.node_losses = vec![1, 2];
        rec.reruns = vec![(Phase::Reexec, 0, rec.map[0].clone())];
        let t = rec.timeline();
        let at = |phase: Phase| &t[phase as usize];
        let collector = Collector::new();
        rec.emit(&t, &collector, rec.build_registry());
        let doc = collector.finish();
        let heartbeat = doc
            .events
            .iter()
            .find(|e| e.kind == EventKind::Complete && e.name == "heartbeat")
            .expect("the heartbeat wait is drawn");
        assert_eq!(
            (heartbeat.tid, heartbeat.cat.as_str()),
            (DRIVER_LANE, "driver")
        );
        assert_eq!(heartbeat.ts, at(Phase::Recovery).end);
        assert_eq!(heartbeat.ts + heartbeat.dur, at(Phase::Reexec).start);
        assert_eq!(heartbeat.dur, at(Phase::Heartbeat).span());
        let losses = heartbeat.args.iter().find(|(k, _)| k == "losses");
        assert_eq!(losses.map(|(_, v)| v), Some(&ArgValue::U64(2)));
        // Each loss is detected where the wait ends, in resolution order.
        let instants: Vec<_> = doc
            .events
            .iter()
            .filter(|e| e.name == "node-loss")
            .collect();
        assert_eq!(instants.len(), 2);
        for (instant, node) in instants.into_iter().zip([1, 2]) {
            assert_eq!(instant.ts, heartbeat.ts + heartbeat.dur);
            let args = [
                ("node".to_owned(), ArgValue::U64(node)),
                ("at_tick".to_owned(), ArgValue::U64(at(Phase::Map).span())),
            ];
            assert_eq!(instant.args, args);
        }
    }

    #[test]
    fn sim_runtime_strictly_increases_with_charged_work() {
        let cluster = ClusterConfig::test();
        let mut rec = uniform_record(&cluster, 3);
        let mut last = total(&rec);
        // One tick's worth of comparisons at a time, on the critical path.
        let tick = 1_000_000 / model::PS_PER_COMPARISON + 1;
        for _ in 0..5 {
            rec.map[1].work += tick;
            let now = total(&rec);
            assert!(now > last, "{now} after {last}");
            last = now;
        }
    }

    #[test]
    fn a_straggler_slows_work_and_io_alike() {
        let cluster = ClusterConfig::test();
        let mut rec = uniform_record(&cluster, 1);
        rec.map[0].spills = vec![1 << 20, 1 << 19];
        let clean = rec.price(&rec.map[0]).clean;
        let cpu = model::attempt_ticks(1_000, 100, 4_096, 1_000_000);
        assert!(clean > cpu, "spill I/O is priced");
        rec.map[0].slowdown = 4.0;
        assert_eq!(
            rec.price(&rec.map[0]).clean,
            clean,
            "a backup runs at full speed"
        );
        assert_eq!(rec.slot_ticks(&rec.map[0]), 4 * clean);
    }

    #[test]
    fn backoff_follows_every_failure_and_launches_are_charged() {
        let cluster = ClusterConfig::test();
        let mut rec = uniform_record(&cluster, 1);
        let clean = rec.price(&rec.map[0]).clean;
        rec.map[0].failures = vec![FailKind::LostOutput, FailKind::Hang(700)];
        // 100 ms then 200 ms of backoff; two extra launches.
        let price = rec.price(&rec.map[0]);
        assert_eq!(price.backoff, 300_000);
        assert_eq!(
            rec.slot_ticks(&rec.map[0]),
            clean + (clean + 700) + 300_000 + 2 * rec.overhead()
        );
        assert_eq!(rec.wasted_ticks(&rec.map[0], &price), clean + 700);
    }

    #[test]
    fn a_backup_wins_iff_it_commits_strictly_before_the_original() {
        let cluster = ClusterConfig::test();
        let overhead = ticks_of(cluster.task_overhead);
        let backoff = ticks_of(RetryPolicy::backoff_after(0));
        // Tasks well past the 100 ms backoff, so that a hung attempt and
        // the backoff after it can sit exactly on the tie.
        let mut rec = uniform_record(&cluster, 3);
        for task in &mut rec.map {
            task.work = 20_000_000;
        }
        let clean = rec.price(&rec.map[0]).clean;
        assert!(clean > backoff);
        // A phase of one task never speculates; neither does a balanced one.
        assert!(uniform_record(&cluster, 1)
            .plan_backups(TaskKind::Map)
            .is_empty());
        assert!(rec.plan_backups(TaskKind::Map).is_empty());
        // Task 2 is three times heavier, so that its stretched run clears
        // the 3× straggler bar. Stretch it by a hung attempt until its run
        // (hang, backoff, relaunch, heavy attempt) is exactly the backup's
        // finish: median + heavy + overhead. A tie goes to the original;
        // one tick more and the backup wins.
        rec.map[2].work = 60_000_000;
        let heavy = rec.price(&rec.map[2]).clean;
        let finish = model::backup_finish(clean, heavy, overhead);
        let tie = finish - heavy - overhead - backoff;
        for (hang, wins) in [(tie, false), (tie + 1, true)] {
            rec.map[2].failures = vec![FailKind::Hang(hang)];
            rec.map[2].backup = None;
            assert_eq!(rec.plan_backups(TaskKind::Map), vec![(2, wins)]);
            let backup = rec.map[2].backup.expect("task 2 is backed up");
            assert_eq!((backup.launch, backup.wins), (clean, wins), "hang {hang}");
            // Either way the slot is held until the backup's finish: at
            // the tie the original commits on that very tick.
            assert_eq!(rec.slot_ticks(&rec.map[2]), finish);
            // The loser's slot time is waste on top of the hung attempt:
            // the killed original's whole run, or the backup's full run.
            let loser = if wins { finish } else { heavy + overhead };
            let price = rec.price(&rec.map[2]);
            assert_eq!(rec.wasted_ticks(&rec.map[2], &price), hang + loser);
        }
        let reg = rec.build_registry();
        assert_eq!(reg.counter("map.speculative_wins"), 1);
        assert_eq!(reg.counter("task.speculative_wins"), 1);
    }

    #[test]
    fn emission_is_deterministic() {
        let cluster = ClusterConfig::test();
        let rec = test_record(&cluster, &[384]);
        let run = || {
            let collector = Collector::new();
            rec.emit(&rec.timeline(), &collector, rec.build_registry());
            skymr_telemetry::export::chrome_trace(&collector.finish())
        };
        assert_eq!(run(), run());
    }
}
