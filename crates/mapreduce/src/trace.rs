//! The job's one clock: prices every task from what it counted, lays the
//! job out once on the simulated cluster, and draws the trace from that
//! layout.
//!
//! The driver's stages (`job.rs`) establish *facts* — record, byte and
//! comparison counts per task, attempt histories, which outputs were lost
//! and re-executed — and put them in a [`JobRecord`]. Everything timed is
//! derived here, after the fact, on the driver thread:
//! [`TaskModel`] prices a task's attempts with the
//! [`skymr_telemetry::model`] cost table and the cluster's configured
//! hardware rates, [`JobRecord::timeline`] places the priced tasks wave by
//! wave with [`skymr_telemetry::place`], and both consumers read that one
//! [`Timeline`]: `Job::close` takes `sim_runtime` and every phase duration
//! of [`crate::cluster::JobMetrics`] off it, [`JobRecord::emit`] draws its
//! spans from it. No host clock is involved, so the metrics and the
//! exports are byte-identical across runs, host thread counts and schedule
//! shakes — speculative runs included: backups are planned and won on
//! model ticks ([`JobRecord::plan_backups`]).

use std::time::Duration;

use skymr_telemetry::model;
use skymr_telemetry::place::{place, Placement as Slot};
use skymr_telemetry::registry::TICK_BUCKETS;
use skymr_telemetry::{ArgValue, Collector, JobTrace, MetricsRegistry, Span, Ticks};

use crate::cluster::{ClusterConfig, Placement};
use crate::fault::{FailureCause, RetryPolicy, SpeculationPolicy, TaskKind};
use crate::storage::MergeStats;

/// Lane 0 of every job: startup, broadcast, and shuffle-wide spans.
pub const DRIVER_LANE: u64 = 0;

fn map_lane(slot: usize) -> u64 {
    1 + slot as u64
}

fn reduce_lane(cluster: &ClusterConfig, slot: usize) -> u64 {
    1 + (cluster.map_slots + slot) as u64
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

/// One node loss as resolved by the driver on the map wave's timeline:
/// when the node died and when the heartbeat detector declared it dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLossEvent {
    /// The node that died.
    pub node: usize,
    /// Model tick (within the map phase) the node went down.
    pub at_tick: Ticks,
    /// Model tick the heartbeat timeout expired and recovery began.
    pub detect_tick: Ticks,
    /// Slot ticks of the in-flight map attempts that died with the node.
    pub wasted: Ticks,
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
    /// Made no progress; killed after the carried timeout (model ticks).
    /// The cost is the timeout itself, never scaled by a straggler factor —
    /// a wedged attempt does no work to slow down.
    Hang(Ticks),
    /// Stopped by the scheduler (deadline or preemption budget). Costs
    /// nothing here: the multi-tenant executor charges the elapsed slot
    /// time to the job's `wasted_task_time` at the moment of the kill, so
    /// the model would double-count it.
    Cancelled,
}

impl FailKind {
    /// Projects an execution failure cause onto the model vocabulary.
    pub fn from_cause(cause: &FailureCause) -> Self {
        match cause {
            FailureCause::LostOutput => FailKind::LostOutput,
            FailureCause::Panic { .. } => FailKind::Panic,
            FailureCause::Hang { timeout } => FailKind::Hang(ticks_of(*timeout)),
            FailureCause::Cancelled { .. } => FailKind::Cancelled,
        }
    }

    fn label(self) -> &'static str {
        match self {
            FailKind::LostOutput => "lost_output",
            FailKind::Panic => "panic",
            FailKind::Hang(_) => "hang",
            FailKind::Cancelled => "cancelled",
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
    /// `true` iff the corruption escalated to re-executing the producer.
    pub reexecuted: bool,
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
    /// Distinct input keys (reduce only; 0 for map tasks).
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
    /// Failed attempts, in order. The winning attempt follows them (a task
    /// that exhausted its budget is priced with the attempt it was denied,
    /// at zero output — partial metrics of an aborted job).
    pub failures: Vec<FailKind>,
    /// Straggler slowdown from the fault plan (deterministic).
    pub slowdown: f64,
    /// On-disk bytes of each spill segment the task wrote (map tasks in
    /// spill mode; empty otherwise). Pure manifest facts, never measured.
    pub spills: Vec<u64>,
    /// External-merge cascade cost (reduce tasks in spill mode; `None`
    /// otherwise) — the closed-form accounting from the run manifests.
    pub merge: Option<MergeStats>,
    /// The speculative backup the task was given, if any.
    pub backup: Option<Backup>,
}

/// One wave of tasks placed on slots: placements are relative to `start`.
#[derive(Debug, Clone, Default)]
pub struct Wave {
    /// Tick the wave's first task may launch.
    pub start: Ticks,
    /// Tick the wave's last task finishes (`start` for an empty wave).
    pub end: Ticks,
    /// Where each task landed, indexed like the wave's task list.
    pub slots: Vec<Slot>,
}

impl Wave {
    /// The wave's makespan.
    pub fn span(&self) -> Ticks {
        self.end - self.start
    }
}

/// A job laid out on the simulated cluster, start to finish — the single
/// source of every simulated time the engine reports or draws.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Job startup: `[0, startup)`.
    pub startup: Ticks,
    /// Cache broadcast, right after startup.
    pub broadcast: Ticks,
    /// Every map task's attempts, on the map slots.
    pub map: Wave,
    /// Producers of lost shuffle partitions, re-executed.
    pub recovery: Wave,
    /// Heartbeat timeouts waited out before node-loss recovery starts.
    pub heartbeat: Ticks,
    /// Map outputs that died with their node, re-executed on the
    /// surviving map slots.
    pub reexec: Wave,
    /// Producers of partitions found corrupt at rest, re-executed on the
    /// surviving map slots before the shuffle barrier lifts.
    pub corrupt: Wave,
    /// Shuffle transfers, stalls and re-fetches, right after `corrupt`.
    pub shuffle: Ticks,
    /// Every reduce task's attempts, on the surviving reduce slots.
    pub reduce: Wave,
    /// Slot ticks that produced no surviving output.
    pub wasted: Ticks,
    /// Retry backoff charged across all tasks.
    pub backoff: Ticks,
}

impl Timeline {
    /// The job's simulated runtime.
    pub fn total(&self) -> Ticks {
        self.reduce.end
    }

    /// Map phase as `JobMetrics` reports it: the map wave plus both
    /// map-output recovery waves and the heartbeat wait.
    pub fn map_phase(&self) -> Ticks {
        self.reexec.end - self.map.start
    }

    /// Node-loss detection plus re-execution (folded into the map phase).
    pub fn reexecution(&self) -> Ticks {
        self.reexec.end - self.recovery.end
    }

    /// Shuffle as `JobMetrics` reports it: the at-rest-corruption wave
    /// plus transfers, stalls and re-fetches.
    pub fn shuffle_phase(&self) -> Ticks {
        self.reduce.start - self.reexec.end
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
    /// The job's retry policy (deterministic backoff schedule).
    pub retry: &'a RetryPolicy,
    /// Distributed-cache bytes broadcast before the job.
    pub cache_bytes: u64,
    /// Broadcast transfers executed (1 + injected failures).
    pub broadcast_attempts: u32,
    /// Modeled broadcast charge.
    pub broadcast_time: Duration,
    /// Modeled shuffle time: bottleneck-node transfer, partition stalls
    /// and corrupt re-fetches.
    pub shuffle_time: Duration,
    /// Shuffle bytes routed to each reducer.
    pub per_reducer_bytes: Vec<u64>,
    /// Per-map-task facts.
    pub map: Vec<TaskModel>,
    /// Per-reduce-task facts.
    pub reduce: Vec<TaskModel>,
    /// Map tasks re-executed in the lost-partition recovery wave.
    pub recovery: Vec<usize>,
    /// Lost `(map_task, reducer)` shuffle partitions.
    pub lost: Vec<(usize, usize)>,
    /// Shuffle partitions whose frames failed checksum verification, in
    /// `(map, reducer)` order.
    pub corrupt: Vec<CorruptEvent>,
    /// Map tasks re-executed because a partition of theirs was corrupt at
    /// rest.
    pub rotten: Vec<usize>,
    /// Records skipped by the skip-bad-records policy, as
    /// `(map_task, record)` pairs in increasing order.
    pub skipped: Vec<(usize, usize)>,
    /// Node losses resolved this job, in event order.
    pub node_losses: Vec<NodeLossEvent>,
    /// Map tasks re-executed because their home node died (completed
    /// outputs invalidated or in-flight attempts killed).
    pub reexecuted: Vec<usize>,
    /// Completed map outputs invalidated by node loss (the subset of
    /// `reexecuted` whose attempt had already finished).
    pub maps_reexecuted: u64,
    /// Nodes blacklisted by the end of the job.
    pub nodes_blacklisted: u64,
    /// Map slots still schedulable once the map phase's dead and
    /// blacklisted nodes are gone.
    pub surviving_map_slots: usize,
    /// Reduce slots still schedulable, likewise.
    pub surviving_reduce_slots: usize,
    /// Map attempts executed (recovery waves and backups included).
    pub map_attempts: u64,
    /// Failed-and-retried map executions.
    pub map_retries: u64,
    /// Reduce attempts executed.
    pub reduce_attempts: u64,
    /// Failed-and-retried reduce executions.
    pub reduce_retries: u64,
    /// Snapshot of the job's user counters (already sorted).
    pub user_counters: Vec<(String, u64)>,
}

impl JobRecord<'_> {
    fn overhead(&self) -> Ticks {
        ticks_of(self.cluster.task_overhead)
    }

    /// CPU ticks of one full, unslowed attempt of `task`.
    fn cpu_ticks(&self, task: &TaskModel) -> Ticks {
        model::attempt_ticks(task.records_in, task.records_out, task.bytes, task.work)
    }

    /// Ticks of the storage-plane I/O one full attempt performs: a create
    /// per spill file written plus the external-merge cascade, on the
    /// configured disk. Zero unless the job ran under a memory budget.
    fn io_ticks(&self, bytes: u64, seeks: u64) -> Ticks {
        ticks_of(self.cluster.storage.io_time(bytes, seeks))
    }

    /// One full attempt at full speed: what a re-execution or a backup
    /// costs.
    fn clean_ticks(&self, task: &TaskModel) -> Ticks {
        let spills: Ticks = task.spills.iter().map(|&b| self.io_ticks(b, 1)).sum();
        let merge = task.merge.as_ref().map_or(0, |m| {
            self.io_ticks(m.bytes_read + m.bytes_written, m.seeks)
        });
        self.cpu_ticks(task) + spills + merge
    }

    /// The committed attempt: a full attempt under the task's straggler
    /// slowdown, which stretches compute and I/O alike.
    fn winner_ticks(&self, task: &TaskModel) -> Ticks {
        model::scaled(self.clean_ticks(task), task.slowdown)
    }

    fn failure_ticks(&self, task: &TaskModel, kind: FailKind) -> Ticks {
        match kind {
            FailKind::LostOutput => self.winner_ticks(task),
            FailKind::Panic => model::scaled(
                model::attempt_ticks(task.records_in / 2, 0, 0, task.work / 2),
                task.slowdown,
            ),
            FailKind::Hang(timeout) => timeout,
            FailKind::Cancelled => 0,
        }
    }

    fn lost_ticks(&self, task: &TaskModel) -> Ticks {
        let lost = |&kind| self.failure_ticks(task, kind);
        task.failures.iter().map(lost).sum()
    }

    fn backoff_ticks(&self, task: &TaskModel) -> Ticks {
        let after = |k| ticks_of(self.retry.backoff_after(k as u32));
        (0..task.failures.len()).map(after).sum()
    }

    /// Ticks the task's own attempts occupy its slot: every attempt, the
    /// backoff gaps between them, and the extra launch overheads of
    /// retries. (The first attempt's launch overhead is charged by
    /// placement.)
    fn attempts_ticks(&self, task: &TaskModel) -> Ticks {
        self.winner_ticks(task)
            + self.lost_ticks(task)
            + self.backoff_ticks(task)
            + self.overhead() * task.failures.len() as u64
    }

    /// Ticks the task holds its slot on the timeline: its own attempts,
    /// or — when a speculative backup beat them — up to the moment the
    /// backup commits and the original is killed.
    pub fn slot_ticks(&self, task: &TaskModel) -> Ticks {
        match task.backup {
            Some(backup) if backup.wins => backup.finish,
            _ => self.attempts_ticks(task),
        }
    }

    /// Slot ticks of the task that produced no surviving output: failed
    /// attempts, and the losing half of a speculative pair — the killed
    /// original's whole run, or the backup's run from its launch until
    /// the original committed (or to completion, whichever came first).
    fn wasted_ticks(&self, task: &TaskModel) -> Ticks {
        let speculation = match task.backup {
            Some(backup) if backup.wins => backup.finish,
            Some(backup) => self
                .attempts_ticks(task)
                .min(backup.finish)
                .saturating_sub(backup.launch),
            None => 0,
        };
        self.lost_ticks(task) + speculation
    }

    /// Plans the phase's speculative backups on model ticks, records them
    /// on the tasks and counts them as attempts; returns the tasks to back
    /// up and whether each backup wins. Any task whose attempts run longer
    /// than `policy.slowdown_threshold` × the phase median gets a backup
    /// launched at the median mark; it wins iff it commits strictly before
    /// the original would have.
    pub(crate) fn plan_backups(
        &mut self,
        kind: TaskKind,
        policy: &SpeculationPolicy,
    ) -> Vec<(usize, bool)> {
        let mut tasks = std::mem::take(self.phase_mut(kind));
        let ticks: Vec<Ticks> = tasks.iter().map(|t| self.attempts_ticks(t)).collect();
        let launch = model::median(&ticks);
        let threshold = model::scaled(launch, policy.slowdown_threshold);
        let mut planned = Vec::new();
        if tasks.len() >= policy.min_phase_tasks && launch > 0 {
            for (i, task) in tasks.iter_mut().enumerate() {
                let finish = model::backup_finish(launch, self.clean_ticks(task), self.overhead());
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
        match kind {
            TaskKind::Map => self.map_attempts += planned.len() as u64,
            TaskKind::Reduce => self.reduce_attempts += planned.len() as u64,
        }
        planned
    }

    fn phase_mut(&mut self, kind: TaskKind) -> &mut Vec<TaskModel> {
        match kind {
            TaskKind::Map => &mut self.map,
            TaskKind::Reduce => &mut self.reduce,
        }
    }

    /// Lays the job out on the simulated cluster: startup → broadcast →
    /// map wave → lost-partition wave → heartbeat wait + node-loss wave →
    /// at-rest-corruption wave → shuffle → reduce wave. The only place
    /// wave start and end times are computed.
    pub fn timeline(&self) -> Timeline {
        let cluster = self.cluster;
        // A phase wave places every task's slot time; a re-execution wave
        // one clean attempt per task.
        let held = |tasks: &[TaskModel]| tasks.iter().map(|t| self.slot_ticks(t)).collect();
        let rerun = |wave: &[usize]| {
            let clean = |&i: &usize| self.map.get(i).map_or(0, |t| self.clean_ticks(t));
            wave.iter().map(clean).collect()
        };
        let lay = |start, ticks: Vec<Ticks>, slots| {
            let (placed, makespan) = place(&ticks, slots, self.overhead());
            Wave {
                start,
                end: start + makespan,
                slots: placed,
            }
        };
        let (map_slots, reduce_slots) = (self.surviving_map_slots, self.surviving_reduce_slots);
        let startup = ticks_of(cluster.job_startup);
        let broadcast = ticks_of(self.broadcast_time);
        let map = lay(startup + broadcast, held(&self.map), cluster.map_slots);
        let recovery = lay(map.end, rerun(&self.recovery), cluster.map_slots);
        let heartbeat = ticks_of(cluster.heartbeat_timeout) * self.node_losses.len() as u64;
        let reexec = lay(recovery.end + heartbeat, rerun(&self.reexecuted), map_slots);
        let corrupt = lay(reexec.end, rerun(&self.rotten), map_slots);
        let shuffle = ticks_of(self.shuffle_time);
        let reduce = lay(corrupt.end + shuffle, held(&self.reduce), reduce_slots);
        let tasks = || self.map.iter().chain(&self.reduce);
        let killed: Ticks = self.node_losses.iter().map(|l| l.wasted).sum();
        Timeline {
            startup,
            broadcast,
            map,
            recovery,
            heartbeat,
            reexec,
            corrupt,
            shuffle,
            reduce,
            wasted: tasks().map(|t| self.wasted_ticks(t)).sum::<Ticks>() + killed,
            backoff: tasks().map(|t| self.backoff_ticks(t)).sum(),
        }
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
            for &kind in &task.failures {
                reg.add(&format!("map.failures.{}", kind.label()), 1);
            }
            // Storage-plane counters exist only for jobs that spilled, so
            // unspilled registries (and their exports) carry none.
            if !task.spills.is_empty() {
                reg.add("storage.spill_files", task.spills.len() as u64);
                reg.add("storage.spilled_bytes", task.spills.iter().sum());
                reg.add("storage.seeks", task.spills.len() as u64);
            }
            reg.record("map.task_ticks", TICK_BUCKETS, self.slot_ticks(task));
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
        reg.add("map.attempts", self.map_attempts);
        reg.add("map.retries", self.map_retries);
        reg.add("reduce.attempts", self.reduce_attempts);
        reg.add("reduce.retries", self.reduce_retries);
        reg.add("task.attempts", self.map_attempts + self.reduce_attempts);
        reg.add("map.speculative_wins", map_wins);
        reg.add("reduce.speculative_wins", reduce_wins);
        reg.add("task.speculative_wins", map_wins + reduce_wins);
        reg.add("map.recovery_tasks", self.recovery.len() as u64);
        reg.add("shuffle.lost_partitions", self.lost.len() as u64);
        reg.add("shuffle.corrupt_partitions", self.corrupt.len() as u64);
        for c in &self.corrupt {
            reg.add("shuffle.corrupt_fetches", u64::from(c.fetches));
        }
        reg.add("map.records_skipped", self.skipped.len() as u64);
        reg.add("node.lost", self.node_losses.len() as u64);
        reg.add("map.reexecuted", self.maps_reexecuted);
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

    /// Draws the job's [`Timeline`] as spans and commits them (with
    /// `registry` attached) to `collector`, advancing the pipeline model
    /// clock by the timeline's total, which it returns.
    pub fn emit(&self, collector: &Collector, registry: MetricsRegistry) -> Ticks {
        let timeline = self.timeline();
        let mut job = JobTrace::new(self.name);
        *job.registry_mut() = registry;
        let cluster = self.cluster;
        job.name_lane(DRIVER_LANE, "driver");
        // With a placement, slot lanes carry their home node so node-loss
        // instants can be read against the lanes they hit.
        let placed_nodes = cluster.placement.as_ref().map(|_| cluster.nodes.max(1));
        let home = |slot| match placed_nodes {
            Some(n) => format!(" @n{}", Placement::node_of_slot(slot, n)),
            None => String::new(),
        };
        for slot in 0..cluster.map_slots {
            job.name_lane(map_lane(slot), format!("map slot {slot}{}", home(slot)));
        }
        for slot in 0..cluster.reduce_slots {
            let name = format!("reduce slot {slot}{}", home(slot));
            job.name_lane(reduce_lane(cluster, slot), name);
        }

        // Driver lane: startup, then the cache broadcast.
        let driver =
            |tag, at, dur| Span::new(&[self.name, tag], tag, "driver", DRIVER_LANE, at, dur);
        job.span(driver("startup", 0, timeline.startup).with_arg("job", self.name));
        if timeline.broadcast > 0 {
            let span = driver("broadcast", timeline.startup, timeline.broadcast);
            let span = span.with_arg("bytes", self.cache_bytes);
            job.span(span.with_arg("transfers", u64::from(self.broadcast_attempts)));
        }

        self.emit_wave(&mut job, "map", &self.map, &timeline.map, map_lane);

        // Skip-bad-records outcomes: one instant per skipped record, at
        // the map phase start (the narrowing happened inside the map wave).
        let at = timeline.map.start;
        for &(task, record) in &self.skipped {
            let args = [("task", task as u64), ("record", record as u64)];
            fault_instant(&mut job, "skip-record", DRIVER_LANE, at, &args);
        }
        // Each loss fires a `node-loss` instant when detected; the
        // invalidated map tasks re-run after the heartbeat timeouts expire.
        for loss in &self.node_losses {
            let at = timeline.map.start.saturating_add(loss.detect_tick);
            let args = [("node", loss.node as u64), ("at_tick", loss.at_tick)];
            fault_instant(&mut job, "node-loss", DRIVER_LANE, at, &args);
        }
        // The three re-execution waves: one clean attempt per task.
        let reruns = [
            (&self.recovery, &timeline.recovery, "recovery", "map"),
            (&self.reexecuted, &timeline.reexec, "re-exec", "reexec"),
            (&self.rotten, &timeline.corrupt, "re-exec", "reexec"),
        ];
        for (wave_no, (tasks, wave, label, cat)) in reruns.into_iter().enumerate() {
            for (&i, p) in tasks.iter().zip(&wave.slots) {
                let path = [self.name, "map-rerun", &wave_no.to_string(), &i.to_string()];
                let name = format!("map[{i}] ({label})");
                let (at, dur) = (wave.start + p.start, p.end - p.start);
                let span = Span::new(&path, name, cat, map_lane(p.slot), at, dur);
                job.span(span.with_arg("rerun_task", i as u64));
            }
        }

        // Corrupted partition fetches: one instant per partition whose
        // frame failed checksum verification, when the scan found it.
        for c in &self.corrupt {
            let fetches = ("fetches", u64::from(c.fetches));
            let args = [
                ("map", c.map as u64),
                ("reducer", c.reducer as u64),
                fetches,
            ];
            fault_instant(
                &mut job,
                "fault:corrupt",
                DRIVER_LANE,
                timeline.reexec.end,
                &args,
            );
        }
        // Shuffle: reducers pull their partitions; reducer j's transfer
        // lands on node j % nodes, transfers on one node are sequential,
        // and the phase ends at the bottleneck node's finish — the same
        // accounting as `ClusterConfig::shuffle_time`.
        if timeline.shuffle > 0 {
            let nodes = cluster.nodes.max(1);
            // Per-node download cursor and whether the lane is named yet.
            let mut node_state: Vec<(Ticks, bool)> = vec![(timeline.corrupt.end, false); nodes];
            for (j, &bytes) in self.per_reducer_bytes.iter().enumerate() {
                let node = j % nodes; // nodes is .max(1) two lines up, so the remainder cannot panic
                let secs = bytes as f64 * cluster.remote_fraction() / cluster.network_bytes_per_sec;
                let dur = ticks_of(Duration::from_secs_f64(secs));
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

        let lane = |slot| reduce_lane(cluster, slot);
        self.emit_wave(&mut job, "reduce", &self.reduce, &timeline.reduce, lane);

        job.set_total(timeline.total());
        collector.commit(job);
        timeline.total()
    }

    /// One placed wave of a phase's tasks plus its slot-occupancy counter.
    fn emit_wave(
        &self,
        job: &mut JobTrace,
        phase: &str,
        tasks: &[TaskModel],
        wave: &Wave,
        lane: impl Fn(usize) -> u64,
    ) {
        let mut occupancy: Vec<(Ticks, i64)> = Vec::new();
        for (i, (task, p)) in tasks.iter().zip(&wave.slots).enumerate() {
            self.emit_task(job, phase, i, task, lane(p.slot), wave.start + p.start);
            occupancy.push((wave.start + p.start, 1));
            occupancy.push((wave.start + p.end, -1));
        }
        emit_occupancy(job, &format!("{phase} running"), occupancy);
    }

    /// One task's span with nested attempt children, fault instants,
    /// backoff gaps, and the speculative backup if it had one.
    fn emit_task(
        &self,
        job: &mut JobTrace,
        phase: &str,
        index: usize,
        task: &TaskModel,
        lane: u64,
        start: Ticks,
    ) {
        let overhead = self.overhead();
        let idx = index.to_string();
        let task_id = job.id(&[phase, &idx]);
        let end = start + overhead + self.slot_ticks(task);
        let name = format!("{phase}[{index}]");
        let span = Span::new(
            &[self.name, phase, &idx],
            name,
            phase,
            lane,
            start,
            end - start,
        )
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
            Span::new(&[self.name, phase, &idx, tag, k], name, cat, lane, at, dur)
        };
        let attempt = |k: usize, at: Ticks, dur: Ticks, outcome: &str| {
            let span = part(
                "attempt",
                &k.to_string(),
                format!("attempt {k}"),
                "attempt",
                at,
                dur,
            );
            span.with_arg("outcome", outcome)
        };
        let wins = task.backup.is_some_and(|b| b.wins);
        if let Some(backup) = task.backup {
            // The backup launches at the median mark of the task's own
            // run; whichever attempt loses is killed when the other
            // commits.
            let launched = start + overhead + backup.launch;
            let ran = backup.finish - backup.launch;
            let outcome = if wins { "winner" } else { "killed" };
            let span = part("backup", "", "backup".to_owned(), "attempt", launched, ran);
            nest(job, span.with_arg("outcome", outcome));
        }
        let mut cursor = start;
        for (k, &kind) in task.failures.iter().enumerate() {
            cursor += overhead;
            let ticks = self.failure_ticks(task, kind);
            nest(job, attempt(k, cursor, ticks, kind.label()));
            cursor += ticks;
            if cursor > end {
                break;
            }
            // A hung attempt is killed by the progress-timeout detector,
            // not observed failing; its instant carries the timeout so the
            // kill decision is auditable from the trace alone.
            let args = [("task", index as u64), ("attempt", k as u64)];
            match kind {
                FailKind::Hang(timeout) => {
                    let args = [args[0], args[1], ("timeout_ticks", timeout)];
                    fault_instant(job, "hang-kill", lane, cursor, &args);
                }
                _ => fault_instant(job, &format!("fault:{}", kind.label()), lane, cursor, &args),
            }
            let backoff = ticks_of(self.retry.backoff_after(k as u32));
            if backoff > 0 {
                let name = "backoff".to_owned();
                nest(
                    job,
                    part("backoff", &k.to_string(), name, "backoff", cursor, backoff),
                );
                cursor += backoff;
            }
        }
        cursor += overhead;
        let outcome = if wins { "killed" } else { "winner" };
        let last = attempt(
            task.failures.len(),
            cursor,
            self.winner_ticks(task),
            outcome,
        );
        nest(job, last);
        // Storage-plane children (spill mode only), inside the committed
        // attempt after its compute: each spill file it wrote, then the
        // reduce-side merge cascade.
        cursor += self.cpu_ticks(task);
        for (k, &bytes) in task.spills.iter().enumerate() {
            let ticks = self.io_ticks(bytes, 1);
            let span = part(
                "spill",
                &k.to_string(),
                format!("spill[{k}]"),
                "storage",
                cursor,
                ticks,
            );
            nest(job, span.with_arg("bytes", bytes));
            cursor += ticks;
        }
        if let Some(m) = &task.merge {
            let ticks = self.io_ticks(m.bytes_read + m.bytes_written, m.seeks);
            let span = part("merge", "", "merge".to_owned(), "storage", cursor, ticks)
                .with_arg("runs", m.runs)
                .with_arg("passes", m.passes)
                .with_arg("bytes_read", m.bytes_read)
                .with_arg("bytes_written", m.bytes_written);
            nest(job, span);
        }
    }
}

/// One `fault`-category instant with integer arguments.
fn fault_instant(job: &mut JobTrace, name: &str, lane: u64, at: Ticks, args: &[(&str, u64)]) {
    let arg = |&(key, value): &(&str, u64)| (key.to_owned(), ArgValue::U64(value));
    job.instant(name, "fault", lane, at, args.iter().map(arg).collect());
}

/// Turns start/end deltas into counter samples (a stacked-area track in
/// the viewer). Ends sort before starts at the same tick so the count
/// never over-shoots.
fn emit_occupancy(job: &mut JobTrace, name: &str, mut deltas: Vec<(Ticks, i64)>) {
    deltas.sort_unstable();
    let mut running: i64 = 0;
    let mut iter = deltas.into_iter().peekable();
    while let Some((tick, delta)) = iter.next() {
        running += delta;
        while let Some(&(next_tick, next_delta)) = iter.peek() {
            if next_tick != tick {
                break;
            }
            running += next_delta;
            iter.next();
        }
        job.counter(name, tick, "tasks", running.max(0) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_telemetry::EventKind;

    fn test_record<'a>(
        cluster: &'a ClusterConfig,
        retry: &'a RetryPolicy,
        per_reducer_bytes: &[u64],
    ) -> JobRecord<'a> {
        JobRecord {
            name: "wc",
            cluster,
            retry,
            cache_bytes: 0,
            broadcast_attempts: 1,
            broadcast_time: Duration::ZERO,
            shuffle_time: Duration::from_micros(40),
            per_reducer_bytes: per_reducer_bytes.to_vec(),
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
            recovery: Vec::new(),
            lost: Vec::new(),
            corrupt: Vec::new(),
            rotten: Vec::new(),
            skipped: Vec::new(),
            node_losses: Vec::new(),
            reexecuted: Vec::new(),
            maps_reexecuted: 0,
            nodes_blacklisted: 0,
            surviving_map_slots: cluster.map_slots,
            surviving_reduce_slots: cluster.reduce_slots,
            map_attempts: 3,
            map_retries: 1,
            reduce_attempts: 1,
            reduce_retries: 0,
            user_counters: vec![("gpsrs.map.tuple_cmps".to_owned(), 99)],
        }
    }

    #[test]
    fn registry_derives_phase_counters() {
        let cluster = ClusterConfig::test();
        let retry = RetryPolicy::new();
        let rec = test_record(&cluster, &retry, &[384]);
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
        let retry = RetryPolicy::new();
        let rec = test_record(&cluster, &retry, &[384]);
        let collector = Collector::new();
        let registry = rec.build_registry();
        rec.emit(&collector, registry);
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
        let retry = RetryPolicy::new();
        let mut rec = test_record(&cluster, &retry, &[384]);
        rec.corrupt = vec![
            CorruptEvent {
                map: 0,
                reducer: 0,
                fetches: 1,
                reexecuted: false,
            },
            CorruptEvent {
                map: 1,
                reducer: 0,
                fetches: 2,
                reexecuted: true,
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
        rec.emit(&collector, reg);
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
        let retry = RetryPolicy::new();
        let mut rec = test_record(&cluster, &retry, &[384]);
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
        rec.emit(&collector, reg);
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
        let retry = RetryPolicy::new();
        let rec = test_record(&cluster, &retry, &[384]);
        let reg = rec.build_registry();
        assert_eq!(reg.counter("storage.spill_files"), 0);
        let collector = Collector::new();
        rec.emit(&collector, reg);
        let doc = collector.finish();
        assert!(doc.events.iter().all(|e| e.cat != "storage"));
    }

    /// A record of `n` identical clean map tasks on the test cluster.
    fn uniform_record<'a>(
        cluster: &'a ClusterConfig,
        retry: &'a RetryPolicy,
        n: usize,
    ) -> JobRecord<'a> {
        let mut rec = test_record(cluster, retry, &[]);
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

    #[test]
    fn timeline_phases_add_up_to_the_total() {
        let cluster = ClusterConfig::test();
        let retry = RetryPolicy::new();
        let mut rec = test_record(&cluster, &retry, &[384]);
        rec.recovery = vec![1];
        rec.reexecuted = vec![0];
        rec.rotten = vec![0, 1];
        rec.node_losses = vec![NodeLossEvent {
            node: 2,
            at_tick: 5,
            detect_tick: 2_005,
            wasted: 3,
        }];
        rec.surviving_map_slots = 1;
        let t = rec.timeline();
        assert_eq!(
            t.total(),
            t.startup + t.broadcast + t.map_phase() + t.shuffle_phase() + t.reduce.span()
        );
        assert_eq!(t.heartbeat, 2_000, "one heartbeat timeout per loss");
        assert_eq!(t.reexecution(), t.heartbeat + t.reexec.span());
        assert_eq!(t.shuffle_phase(), t.corrupt.span() + t.shuffle);
        // Two rotten producers on the one surviving slot run back to back.
        let clean: Vec<Ticks> = rec.map.iter().map(|m| rec.clean_ticks(m)).collect();
        assert_eq!(t.corrupt.span(), clean[0] + clean[1] + 2 * rec.overhead());
        // The killed in-flight attempt joins the failed attempt's waste.
        assert_eq!(t.wasted, rec.winner_ticks(&rec.map[0]) + 3);
        assert_eq!(t.backoff, ticks_of(retry.backoff_after(0)));
    }

    #[test]
    fn sim_runtime_strictly_increases_with_charged_work() {
        let cluster = ClusterConfig::test();
        let retry = RetryPolicy::new();
        let mut rec = uniform_record(&cluster, &retry, 3);
        let mut last = rec.timeline().total();
        // One tick's worth of comparisons at a time, on the critical path.
        let tick = 1_000_000 / model::PS_PER_COMPARISON + 1;
        for _ in 0..5 {
            rec.map[1].work += tick;
            let total = rec.timeline().total();
            assert!(total > last, "{total} after {last}");
            last = total;
        }
    }

    #[test]
    fn a_straggler_slows_work_and_io_alike() {
        let cluster = ClusterConfig::test();
        let retry = RetryPolicy::new();
        let mut rec = uniform_record(&cluster, &retry, 1);
        rec.map[0].spills = vec![1 << 20, 1 << 19];
        let clean = rec.clean_ticks(&rec.map[0]);
        assert!(clean > rec.cpu_ticks(&rec.map[0]), "spill I/O is priced");
        rec.map[0].slowdown = 4.0;
        assert_eq!(rec.winner_ticks(&rec.map[0]), 4 * clean);
        assert_eq!(rec.slot_ticks(&rec.map[0]), 4 * clean);
    }

    #[test]
    fn backoff_follows_every_failure_and_launches_are_charged() {
        let cluster = ClusterConfig::test();
        let retry = RetryPolicy::new();
        let mut rec = uniform_record(&cluster, &retry, 1);
        let clean = rec.clean_ticks(&rec.map[0]);
        rec.map[0].failures = vec![FailKind::LostOutput, FailKind::Hang(700)];
        // 100 ms then 200 ms of backoff; two extra launches.
        assert_eq!(rec.backoff_ticks(&rec.map[0]), 300_000);
        assert_eq!(
            rec.slot_ticks(&rec.map[0]),
            clean + (clean + 700) + 300_000 + 2 * rec.overhead()
        );
        assert_eq!(rec.wasted_ticks(&rec.map[0]), clean + 700);
    }

    #[test]
    fn a_backup_wins_iff_it_commits_strictly_before_the_original() {
        let cluster = ClusterConfig::test();
        // No backoff and a low straggler bar, so that a candidate can sit
        // exactly on the tie.
        let retry = RetryPolicy {
            backoff_base: Duration::ZERO,
            ..RetryPolicy::new()
        };
        let policy = SpeculationPolicy::new().with_threshold(1.5);
        let overhead = ticks_of(cluster.task_overhead);
        let mut rec = uniform_record(&cluster, &retry, 3);
        let clean = rec.clean_ticks(&rec.map[0]);
        // A phase of one task never speculates; neither does a balanced one.
        assert!(uniform_record(&cluster, &retry, 1)
            .plan_backups(TaskKind::Map, &policy)
            .is_empty());
        assert!(rec.plan_backups(TaskKind::Map, &policy).is_empty());
        // Stretch task 2 by a hung attempt until its run is exactly the
        // backup's finish: median + clean + overhead. A tie goes to the
        // original; one tick more and the backup wins.
        let finish = model::backup_finish(clean, clean, overhead);
        let tie = finish - clean - overhead;
        for (hang, wins) in [(tie, false), (tie + 1, true)] {
            rec.map[2].failures = vec![FailKind::Hang(hang)];
            rec.map[2].backup = None;
            assert_eq!(rec.plan_backups(TaskKind::Map, &policy), vec![(2, wins)]);
            let backup = rec.map[2].backup.expect("task 2 is backed up");
            assert_eq!((backup.launch, backup.wins), (clean, wins), "hang {hang}");
            // Either way the slot is held until the backup's finish: at
            // the tie the original commits on that very tick.
            assert_eq!(rec.slot_ticks(&rec.map[2]), finish);
            // The loser's slot time is waste on top of the hung attempt:
            // the killed original's whole run, or the backup's full run.
            let loser = if wins { finish } else { clean + overhead };
            assert_eq!(rec.wasted_ticks(&rec.map[2]), hang + loser);
        }
        let reg = rec.build_registry();
        assert_eq!(reg.counter("map.speculative_wins"), 1);
        assert_eq!(reg.counter("task.speculative_wins"), 1);
    }

    #[test]
    fn emission_is_deterministic() {
        let cluster = ClusterConfig::test();
        let retry = RetryPolicy::new();
        let rec = test_record(&cluster, &retry, &[384]);
        let run = || {
            let collector = Collector::new();
            rec.emit(&collector, rec.build_registry());
            skymr_telemetry::export::chrome_trace(&collector.finish())
        };
        assert_eq!(run(), run());
    }
}
