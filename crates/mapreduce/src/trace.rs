//! Driver-side trace assembly: turns one finished job's execution record
//! into deterministic spans and a metrics registry.
//!
//! Span assembly happens *after* the phases complete, on the driver
//! thread — worker threads never touch the collector, so recording can't
//! perturb scheduling and UDFs can't observe ambient time. Exported span
//! times come from the deterministic model timebase
//! ([`skymr_telemetry::model`]): a pure function of record counts, byte
//! counts, the configured cluster `Duration`s, and the fault plan. The
//! engine's *measured* durations stay in [`crate::cluster::JobMetrics`];
//! they never reach an export, which is what makes traces byte-identical
//! across host thread counts and schedule shakes.
//!
//! The one exception is speculative execution: which tasks get backups
//! (and who wins) depends on measured host durations, so traces of
//! speculative runs carry the outcome only as registry counters and make
//! no byte-identity promise (see DESIGN.md §8).

use std::time::Duration;

use skymr_telemetry::model;
use skymr_telemetry::place::place;
use skymr_telemetry::registry::TICK_BUCKETS;
use skymr_telemetry::{ArgValue, Collector, JobTrace, MetricsRegistry, Span, Ticks};

use crate::cluster::{ClusterConfig, Placement};
use crate::fault::{FailureCause, RetryPolicy};
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

/// One node loss as resolved by the driver on the model-tick timeline:
/// when the node died and when the heartbeat detector declared it dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeLossEvent {
    /// The node that died.
    pub node: usize,
    /// Model tick (within the map phase) the node went down.
    pub at_tick: Ticks,
    /// Model tick the heartbeat timeout expired and recovery began.
    pub detect_tick: Ticks,
}

/// How one failed attempt failed (the deterministic projection of
/// [`FailureCause`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// Ran to completion, output discarded — costs a full attempt.
    LostOutput,
    /// Crashed mid-task — costs roughly half the input scan.
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

/// The deterministic facts about one task: its I/O volume and its attempt
/// history. Everything the model timebase needs, nothing measured.
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
    /// Failed attempts, in order. The winning attempt follows them.
    pub failures: Vec<FailKind>,
    /// Straggler slowdown from the fault plan (deterministic).
    pub slowdown: f64,
    /// On-disk bytes of each spill segment the task wrote (map tasks in
    /// spill mode; empty otherwise). Pure manifest facts, never measured.
    pub spills: Vec<u64>,
    /// External-merge cascade cost (reduce tasks in spill mode; `None`
    /// otherwise) — the closed-form accounting from the run manifests.
    pub merge: Option<MergeStats>,
}

impl TaskModel {
    fn winner_ticks(&self) -> Ticks {
        model::scaled(
            model::attempt_ticks(self.records_in, self.records_out, self.bytes),
            self.slowdown,
        )
    }

    fn failure_ticks(&self, kind: FailKind) -> Ticks {
        match kind {
            FailKind::LostOutput => self.winner_ticks(),
            // The injected crash fires halfway through the input, before
            // any output is emitted.
            FailKind::Panic => model::scaled(
                model::attempt_ticks(self.records_in / 2, 0, 0),
                self.slowdown,
            ),
            // A hung attempt occupies its slot for the full progress
            // timeout before the tracker kills it.
            FailKind::Hang(timeout) => timeout,
            // Elapsed slot time is charged by the executor at kill time.
            FailKind::Cancelled => 0,
        }
    }

    /// Model ticks of the task's storage-plane I/O: one charge per spill
    /// file written plus the external-merge cascade. Zero unless the job
    /// ran under a memory budget, which keeps unspilled traces
    /// byte-identical to the pre-storage-plane engine.
    fn storage_ticks(&self) -> Ticks {
        let mut total = 0;
        for &bytes in &self.spills {
            total += model::storage_ticks(bytes, 1);
        }
        if let Some(m) = &self.merge {
            total += model::storage_ticks(m.bytes_read + m.bytes_written, m.seeks);
        }
        total
    }

    /// Total model ticks the task occupies its slot: all attempts,
    /// backoff gaps, the extra launch overheads of retries, and (spill
    /// mode) the storage-plane I/O. (The first attempt's launch overhead
    /// is charged by placement.)
    pub(crate) fn total_ticks(&self, retry: &RetryPolicy, overhead: Ticks) -> Ticks {
        let mut total =
            self.winner_ticks() + self.storage_ticks() + overhead * self.failures.len() as u64;
        for (k, &kind) in self.failures.iter().enumerate() {
            total += self.failure_ticks(kind);
            total += ticks_of(retry.backoff_after(k as u32));
        }
        total
    }
}

/// Everything the job driver establishes about one job — the
/// deterministic half of its books. The driver's stages fill the record in
/// as they run (`job.rs`), so an aborted job still hands over whatever its
/// finished stages established.
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
    /// Modeled shuffle transfer time (bottleneck node).
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
    /// Final phase-level attempt count (includes recovery and backups).
    pub map_attempts: u64,
    /// Failed-and-retried map executions.
    pub map_retries: u64,
    /// Final reduce attempt count.
    pub reduce_attempts: u64,
    /// Failed-and-retried reduce executions.
    pub reduce_retries: u64,
    /// Map-side speculative wins (measured decision; counters only).
    pub map_spec_wins: u64,
    /// Reduce-side speculative wins.
    pub reduce_spec_wins: u64,
    /// Snapshot of the job's user counters (already sorted).
    pub user_counters: Vec<(String, u64)>,
}

impl JobRecord<'_> {
    /// Builds the job's metrics registry — the structured source of truth
    /// the legacy `JobMetrics` count fields are derived from.
    pub fn build_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let overhead = ticks_of(self.cluster.task_overhead);
        for task in &self.map {
            reg.add("map.records_in", task.records_in);
            reg.add("map.records_out", task.records_out);
            reg.add("map.bytes_out", task.bytes);
            for &kind in &task.failures {
                reg.add(&format!("map.failures.{}", kind.label()), 1);
            }
            // Storage-plane counters exist only for jobs that spilled, so
            // unspilled registries (and their exports) stay byte-identical.
            if !task.spills.is_empty() {
                reg.add("storage.spill_files", task.spills.len() as u64);
                reg.add("storage.spilled_bytes", task.spills.iter().sum());
                reg.add("storage.seeks", task.spills.len() as u64);
            }
            reg.record(
                "map.task_ticks",
                TICK_BUCKETS,
                task.total_ticks(self.retry, overhead),
            );
        }
        for task in &self.reduce {
            reg.add("reduce.records_in", task.records_in);
            reg.add("reduce.input_keys", task.keys_in);
            reg.add("reduce.records_out", task.records_out);
            reg.add("reduce.bytes_in", task.bytes);
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
            reg.record(
                "reduce.task_ticks",
                TICK_BUCKETS,
                task.total_ticks(self.retry, overhead),
            );
        }
        reg.add("map.attempts", self.map_attempts);
        reg.add("map.retries", self.map_retries);
        reg.add("reduce.attempts", self.reduce_attempts);
        reg.add("reduce.retries", self.reduce_retries);
        reg.add("task.attempts", self.map_attempts + self.reduce_attempts);
        reg.add("map.speculative_wins", self.map_spec_wins);
        reg.add("reduce.speculative_wins", self.reduce_spec_wins);
        reg.add(
            "task.speculative_wins",
            self.map_spec_wins + self.reduce_spec_wins,
        );
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

    /// Assembles the job's span timeline and commits it (with `registry`
    /// attached) to `collector`, advancing the pipeline model clock.
    pub fn emit(&self, collector: &Collector, registry: MetricsRegistry) {
        let mut job = JobTrace::new(self.name);
        *job.registry_mut() = registry;
        let cluster = self.cluster;
        job.name_lane(DRIVER_LANE, "driver");
        // With a placement, slot lanes carry their home node so node-loss
        // instants can be read against the lanes they hit. Unplaced
        // clusters keep the historical names (byte-identity).
        let placed_nodes = cluster.placement.as_ref().map(|_| cluster.nodes.max(1));
        for slot in 0..cluster.map_slots {
            let name = match placed_nodes {
                Some(n) => format!("map slot {slot} @n{}", Placement::node_of_slot(slot, n)),
                None => format!("map slot {slot}"),
            };
            job.name_lane(map_lane(slot), name);
        }
        for slot in 0..cluster.reduce_slots {
            let name = match placed_nodes {
                Some(n) => format!("reduce slot {slot} @n{}", Placement::node_of_slot(slot, n)),
                None => format!("reduce slot {slot}"),
            };
            job.name_lane(reduce_lane(cluster, slot), name);
        }

        // Driver lane: startup, then the cache broadcast.
        let startup = ticks_of(cluster.job_startup);
        let broadcast = ticks_of(self.broadcast_time);
        job.span(
            Span::new(
                &[self.name, "startup"],
                "startup",
                "driver",
                DRIVER_LANE,
                0,
                startup,
            )
            .with_arg("job", self.name),
        );
        if broadcast > 0 {
            job.span(
                Span::new(
                    &[self.name, "broadcast"],
                    "broadcast",
                    "driver",
                    DRIVER_LANE,
                    startup,
                    broadcast,
                )
                .with_arg("bytes", self.cache_bytes)
                .with_arg("transfers", u64::from(self.broadcast_attempts)),
            );
        }

        // Map wave.
        let overhead = ticks_of(cluster.task_overhead);
        let map_start = startup + broadcast;
        let map_ticks: Vec<Ticks> = self
            .map
            .iter()
            .map(|t| t.total_ticks(self.retry, overhead))
            .collect();
        let (placed, map_makespan) = place(&map_ticks, cluster.map_slots, overhead);
        let mut occupancy: Vec<(Ticks, i64)> = Vec::new();
        for (i, (task, p)) in self.map.iter().zip(&placed).enumerate() {
            let lane = map_lane(p.slot);
            self.emit_task(
                &mut job,
                "map",
                i,
                task,
                lane,
                map_start + p.start,
                overhead,
            );
            occupancy.push((map_start + p.start, 1));
            occupancy.push((map_start + p.end, -1));
        }
        emit_occupancy(&mut job, "map running", occupancy);

        // Skip-bad-records outcomes: one instant per skipped record, at
        // the map phase start (the narrowing happened inside the map wave).
        for &(task, record) in &self.skipped {
            job.instant(
                "skip-record",
                "fault",
                DRIVER_LANE,
                map_start,
                vec![
                    ("task".to_owned(), ArgValue::U64(task as u64)),
                    ("record".to_owned(), ArgValue::U64(record as u64)),
                ],
            );
        }

        // Lost-partition recovery wave: affected map tasks re-execute in a
        // second wave, one clean attempt each.
        let recovery_ticks: Vec<Ticks> = self
            .recovery
            .iter()
            .map(|&i| self.map.get(i).map_or(0, TaskModel::winner_ticks))
            .collect();
        let (replaced, recovery_makespan) = place(&recovery_ticks, cluster.map_slots, overhead);
        let recovery_start = map_start + map_makespan;
        for (&i, p) in self.recovery.iter().zip(&replaced) {
            job.span(
                Span::new(
                    &[self.name, "map-recovery", &i.to_string()],
                    format!("map[{i}] (recovery)"),
                    "map",
                    map_lane(p.slot),
                    recovery_start + p.start,
                    p.end - p.start,
                )
                .with_arg("recovered_task", i as u64),
            );
        }

        // Node-loss re-execution wave: each loss fires a `node-loss`
        // instant when detected, then the invalidated map tasks re-run
        // (one clean attempt each) after the heartbeat timeouts expire.
        let heartbeat = ticks_of(cluster.heartbeat_timeout);
        let heartbeat_total = heartbeat * self.node_losses.len() as u64;
        for loss in &self.node_losses {
            job.instant(
                "node-loss",
                "fault",
                DRIVER_LANE,
                map_start.saturating_add(loss.detect_tick),
                vec![
                    ("node".to_owned(), ArgValue::U64(loss.node as u64)),
                    ("at_tick".to_owned(), ArgValue::U64(loss.at_tick)),
                ],
            );
        }
        let reexec_ticks: Vec<Ticks> = self
            .reexecuted
            .iter()
            .map(|&i| self.map.get(i).map_or(0, TaskModel::winner_ticks))
            .collect();
        let (replaced, reexec_makespan) = place(&reexec_ticks, cluster.map_slots, overhead);
        let reexec_start = recovery_start + recovery_makespan + heartbeat_total;
        for (&i, p) in self.reexecuted.iter().zip(&replaced) {
            job.span(
                Span::new(
                    &[self.name, "map-reexec", &i.to_string()],
                    format!("map[{i}] (re-exec)"),
                    "reexec",
                    map_lane(p.slot),
                    reexec_start + p.start,
                    p.end - p.start,
                )
                .with_arg("reexecuted_task", i as u64),
            );
        }
        let reexec_shift = if self.reexecuted.is_empty() && self.node_losses.is_empty() {
            0
        } else {
            heartbeat_total + reexec_makespan
        };

        // Shuffle: reducers pull their partitions; reducer j's transfer
        // lands on node j % nodes, transfers on one node are sequential,
        // and the phase ends at the bottleneck node's finish — the same
        // accounting as `ClusterConfig::shuffle_time`.
        let shuffle_start = recovery_start + recovery_makespan + reexec_shift;
        // Corrupted partition fetches: one instant per partition whose
        // frame failed checksum verification, at the shuffle start (the
        // re-fetch/re-execution cost is already folded into
        // `shuffle_time` and the re-exec accounting).
        for c in &self.corrupt {
            job.instant(
                "fault:corrupt",
                "fault",
                DRIVER_LANE,
                shuffle_start,
                vec![
                    ("map".to_owned(), ArgValue::U64(c.map as u64)),
                    ("reducer".to_owned(), ArgValue::U64(c.reducer as u64)),
                    ("fetches".to_owned(), ArgValue::U64(u64::from(c.fetches))),
                ],
            );
        }
        let shuffle = ticks_of(self.shuffle_time);
        if shuffle > 0 {
            let nodes = cluster.nodes.max(1);
            // Per-node download cursor and whether the lane is named yet.
            let mut node_state: Vec<(Ticks, bool)> = vec![(shuffle_start, false); nodes];
            for (j, &bytes) in self.per_reducer_bytes.iter().enumerate() {
                let node = j % nodes; // xtask: allow(panic-reachability) — nodes is .max(1) two lines up, so the remainder cannot panic
                let secs = bytes as f64 * cluster.remote_fraction() / cluster.network_bytes_per_sec;
                let dur = ticks_of(Duration::from_secs_f64(secs));
                if dur == 0 {
                    continue;
                }
                let Some((cursor, named)) = node_state.get_mut(node) else {
                    continue;
                };
                if !*named {
                    job.name_lane(network_lane(cluster, node), format!("node {node} downlink"));
                    *named = true;
                }
                job.span(
                    Span::new(
                        &[self.name, "shuffle", &j.to_string()],
                        format!("shuffle→reduce[{j}]"),
                        "shuffle",
                        network_lane(cluster, node),
                        *cursor,
                        dur,
                    )
                    .with_arg("bytes", bytes)
                    .with_arg("reducer", j as u64),
                );
                *cursor += dur;
            }
        }

        // Reduce wave.
        let reduce_start = shuffle_start + shuffle;
        let reduce_ticks: Vec<Ticks> = self
            .reduce
            .iter()
            .map(|t| t.total_ticks(self.retry, overhead))
            .collect();
        let (placed, reduce_makespan) = place(&reduce_ticks, cluster.reduce_slots, overhead);
        let mut occupancy: Vec<(Ticks, i64)> = Vec::new();
        for (j, (task, p)) in self.reduce.iter().zip(&placed).enumerate() {
            let lane = reduce_lane(cluster, p.slot);
            self.emit_task(
                &mut job,
                "reduce",
                j,
                task,
                lane,
                reduce_start + p.start,
                overhead,
            );
            occupancy.push((reduce_start + p.start, 1));
            occupancy.push((reduce_start + p.end, -1));
        }
        emit_occupancy(&mut job, "reduce running", occupancy);

        job.set_total(reduce_start + reduce_makespan);
        collector.commit(job);
    }

    /// One task's span with nested attempt children, fault instants, and
    /// backoff gaps.
    #[allow(clippy::too_many_arguments)]
    fn emit_task(
        &self,
        job: &mut JobTrace,
        phase: &str,
        index: usize,
        task: &TaskModel,
        lane: u64,
        start: Ticks,
        overhead: Ticks,
    ) {
        let idx = index.to_string();
        let task_id = job.id(&[phase, &idx]);
        let total = overhead + task.total_ticks(self.retry, overhead);
        job.span(
            Span::new(
                &[self.name, phase, &idx],
                format!("{phase}[{index}]"),
                phase,
                lane,
                start,
                total,
            )
            .with_arg("records_in", task.records_in)
            .with_arg("records_out", task.records_out)
            .with_arg("bytes", task.bytes)
            .with_arg("attempts", task.failures.len() as u64 + 1)
            .with_arg("slowdown_pct", (task.slowdown.max(1.0) * 100.0) as u64),
        );
        let mut cursor = start;
        let winner = task.failures.len() as u32;
        for (k, &kind) in task.failures.iter().enumerate() {
            cursor += overhead;
            let ticks = task.failure_ticks(kind);
            let attempt = k.to_string();
            job.span(
                Span::new(
                    &[self.name, phase, &idx, "attempt", &attempt],
                    format!("attempt {k}"),
                    "attempt",
                    lane,
                    cursor,
                    ticks,
                )
                .with_parent(task_id)
                .with_arg("outcome", kind.label()),
            );
            cursor += ticks;
            // A hung attempt is killed by the progress-timeout detector,
            // not observed failing; its instant carries the timeout so the
            // kill decision is auditable from the trace alone.
            if let FailKind::Hang(timeout) = kind {
                job.instant(
                    "hang-kill",
                    "fault",
                    lane,
                    cursor,
                    vec![
                        ("task".to_owned(), ArgValue::U64(index as u64)),
                        ("attempt".to_owned(), ArgValue::U64(k as u64)),
                        ("timeout_ticks".to_owned(), ArgValue::U64(timeout)),
                    ],
                );
            } else {
                job.instant(
                    format!("fault:{}", kind.label()),
                    "fault",
                    lane,
                    cursor,
                    vec![
                        ("task".to_owned(), ArgValue::U64(index as u64)),
                        ("attempt".to_owned(), ArgValue::U64(k as u64)),
                    ],
                );
            }
            let backoff = ticks_of(self.retry.backoff_after(k as u32));
            if backoff > 0 {
                job.span(
                    Span::new(
                        &[self.name, phase, &idx, "backoff", &attempt],
                        "backoff",
                        "backoff",
                        lane,
                        cursor,
                        backoff,
                    )
                    .with_parent(task_id),
                );
                cursor += backoff;
            }
        }
        cursor += overhead;
        let attempt = winner.to_string();
        job.span(
            Span::new(
                &[self.name, phase, &idx, "attempt", &attempt],
                format!("attempt {winner}"),
                "attempt",
                lane,
                cursor,
                task.winner_ticks(),
            )
            .with_parent(task_id)
            .with_arg("outcome", "winner"),
        );
        cursor += task.winner_ticks();
        // Storage-plane children (spill mode only): each spill file the
        // winning attempt wrote, then the reduce-side merge cascade. Their
        // ticks are exactly what `storage_ticks` folded into the task
        // span's total, so the children stay inside the parent.
        for (k, &bytes) in task.spills.iter().enumerate() {
            let ticks = model::storage_ticks(bytes, 1);
            job.span(
                Span::new(
                    &[self.name, phase, &idx, "spill", &k.to_string()],
                    format!("spill[{k}]"),
                    "storage",
                    lane,
                    cursor,
                    ticks,
                )
                .with_parent(task_id)
                .with_arg("bytes", bytes),
            );
            cursor += ticks;
        }
        if let Some(m) = &task.merge {
            let ticks = model::storage_ticks(m.bytes_read + m.bytes_written, m.seeks);
            job.span(
                Span::new(
                    &[self.name, phase, &idx, "merge"],
                    "merge",
                    "storage",
                    lane,
                    cursor,
                    ticks,
                )
                .with_parent(task_id)
                .with_arg("runs", m.runs)
                .with_arg("passes", m.passes)
                .with_arg("bytes_read", m.bytes_read)
                .with_arg("bytes_written", m.bytes_written),
            );
        }
    }
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
            skipped: Vec::new(),
            node_losses: Vec::new(),
            reexecuted: Vec::new(),
            maps_reexecuted: 0,
            nodes_blacklisted: 0,
            map_attempts: 3,
            map_retries: 1,
            reduce_attempts: 1,
            reduce_retries: 0,
            map_spec_wins: 0,
            reduce_spec_wins: 0,
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
