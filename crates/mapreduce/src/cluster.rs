//! The simulated cluster: topology, placement, cost constants, and
//! per-job metrics.

use std::time::Duration;

use crate::fault::TaskKind;
use crate::storage::StorageConfig;

/// Deterministic assignment of tasks and attempts to home nodes.
///
/// Hadoop materializes map outputs on the local disk of the machine that
/// ran the task, so losing a *machine* invalidates the outputs stored
/// there. To model that, every task (and every retry attempt) gets a home
/// node derived purely from `(seed, job, kind, index[, attempt])` over the
/// list of currently-alive nodes — never from where the LPT schedule put
/// the attempt, so a home survives re-placement. The same seed always
/// produces the same task→node map, making node-loss recovery replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Seed from which every assignment is derived.
    pub seed: u64,
}

/// Hash salt for task-level home assignment (distinct from the fault
/// plan's salts in `fault/plan.rs`).
const PLACE_TASK_SALT: u64 = 0x9C0D_E001;
/// Hash salt for per-attempt home assignment.
const PLACE_ATTEMPT_SALT: u64 = 0x9C0D_E002;

impl Placement {
    /// A placement derived from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// The node that hosts slot `slot`: slots map round-robin onto nodes,
    /// so removing a node from scheduling removes `slots/nodes` slots.
    pub fn node_of_slot(slot: usize, nodes: usize) -> usize {
        slot % nodes.max(1) // `.max(1)` keeps the divisor nonzero
    }

    /// Home node of a task's *materialized output* — attempt-independent,
    /// so re-executions land the replacement output on the same home and
    /// the expected re-execution count is a pure function of the plan.
    pub fn task_home(&self, job: &str, kind: TaskKind, index: usize, alive: &[usize]) -> usize {
        let h = crate::fault::plan::decision(
            self.seed,
            job,
            PLACE_TASK_SALT,
            kind as u64,
            index as u64,
        );
        pick(alive, h)
    }

    /// Home node of one *attempt* of a task — used to attribute failed
    /// attempts to nodes for blacklisting.
    pub fn attempt_home(
        &self,
        job: &str,
        kind: TaskKind,
        index: usize,
        attempt: u32,
        alive: &[usize],
    ) -> usize {
        let mixed = crate::fault::plan::decision(
            self.seed,
            job,
            PLACE_ATTEMPT_SALT,
            index as u64,
            u64::from(attempt),
        );
        let h = match kind {
            TaskKind::Map => mixed,
            TaskKind::Reduce => mixed.rotate_left(17),
        };
        pick(alive, h)
    }
}

/// Picks a node from the alive list by hash; falls back to node 0 when the
/// list is empty (the engine clamps the alive set to at least one node).
fn pick(alive: &[usize], hash: u64) -> usize {
    if alive.is_empty() {
        return 0;
    }
    let i = (hash % alive.len() as u64) as usize; // invariant: guarded by the is_empty early return above
    alive[i]
}

/// Describes the (simulated) cluster a job runs on.
///
/// Defaults mirror the paper's testbed (Section 7.1): thirteen commodity
/// machines connected by a 100 Mbit/s LAN, one map slot and one reduce slot
/// per machine, Hadoop 1.1.0. Job-startup and per-task overheads give the
/// algorithms the fixed-cost floor the paper's runtime plots show at small
/// inputs; they are set to roughly one eighth of typical Hadoop-1 values
/// because the default benchmark scale runs at a comparable fraction of the
/// paper's cardinalities — a scale model that keeps the compute-to-overhead
/// *ratios*, and therefore the relative shapes of the runtime curves,
/// intact (see DESIGN.md).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker machines.
    pub nodes: usize,
    /// Cluster-wide concurrent map task slots.
    pub map_slots: usize,
    /// Cluster-wide concurrent reduce task slots.
    pub reduce_slots: usize,
    /// Link bandwidth per node, bytes/second (100 Mbit/s = 12.5 MB/s).
    pub network_bytes_per_sec: f64,
    /// Fixed job launch overhead (job setup, scheduling, HDFS round trips).
    pub job_startup: Duration,
    /// Per-task launch overhead (Hadoop-1 spawns a JVM per task).
    pub task_overhead: Duration,
    /// Maximum OS threads used to execute tasks concurrently. This only
    /// bounds host parallelism; the simulated clock never sees it.
    pub host_threads: usize,
    /// Deterministic task→node placement. `None` (the default) keeps the
    /// pre-placement behaviour: nodes stay a pure cost-model scalar and
    /// node-scoped fault events are ignored.
    pub placement: Option<Placement>,
    /// How long the job tracker waits after a node's last heartbeat before
    /// declaring it dead. Charged to the simulated clock once per lost
    /// node, before re-execution of its map outputs begins.
    pub heartbeat_timeout: Duration,
    /// How long an attempt may go without reporting progress before the
    /// tracker kills it (Hadoop's `mapred.task.timeout`). A hung attempt
    /// occupies its slot for exactly this long on the simulated clock,
    /// then fails and retries.
    pub progress_timeout: Duration,
    /// Hadoop-style `SkipBadRecords`: when a map task exhausts its retry
    /// budget panicking on the same input record, the engine narrows to
    /// that record, skips it, and completes the job `degraded` instead of
    /// aborting. Off by default — skipping changes the job's output.
    pub skip_bad_records: bool,
    /// Out-of-core storage plane: per-task memory budget, spill
    /// directory, and the disk cost model. Inert until a budget is set
    /// (see [`StorageConfig`]).
    pub storage: StorageConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 13,
            map_slots: 13,
            reduce_slots: 13,
            network_bytes_per_sec: 12.5e6,
            job_startup: Duration::from_secs(2),
            task_overhead: Duration::from_millis(200),
            host_threads: std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get),
            placement: None,
            heartbeat_timeout: Duration::from_secs(30),
            progress_timeout: Duration::from_secs(600),
            skip_bad_records: false,
            storage: StorageConfig::default().with_env_overrides(),
        }
    }
}

impl ClusterConfig {
    /// A small, fast configuration for unit tests: tiny fixed overheads so
    /// tests run in milliseconds while the accounting stays observable.
    pub fn test() -> Self {
        Self {
            nodes: 4,
            map_slots: 4,
            reduce_slots: 4,
            network_bytes_per_sec: 1e9,
            job_startup: Duration::from_micros(10),
            task_overhead: Duration::from_micros(1),
            host_threads: 4,
            placement: None,
            heartbeat_timeout: Duration::from_millis(2),
            progress_timeout: Duration::from_millis(5),
            skip_bad_records: false,
            storage: StorageConfig::test().with_env_overrides(),
        }
    }

    /// The same test cluster with a seeded task→node placement — the entry
    /// point for node-level chaos tests.
    pub fn test_placed(seed: u64) -> Self {
        Self {
            placement: Some(Placement::new(seed)),
            ..Self::test()
        }
    }

    /// Fraction of shuffle bytes that crosses the network. With `p`
    /// reducers spread over `nodes` machines, a map output lands on the
    /// mapper's own machine with probability `1/nodes`.
    pub fn remote_fraction(&self) -> f64 {
        if self.nodes <= 1 {
            0.0
        } else {
            (self.nodes as f64 - 1.0) / self.nodes as f64
        }
    }

    /// Time to broadcast `bytes` of distributed-cache data to every node.
    /// The source's uplink is the bottleneck: it must push one copy per
    /// other node over its single link.
    pub fn broadcast_time(&self, bytes: u64) -> Duration {
        let secs =
            bytes as f64 * (self.nodes.saturating_sub(1)) as f64 / self.network_bytes_per_sec;
        Duration::from_secs_f64(secs)
    }

    /// Time for reducers to pull their shuffle inputs. Reducers are placed
    /// round-robin on nodes; each node's downlink carries the bytes of the
    /// reducers it hosts, in parallel with other nodes.
    pub fn shuffle_time(&self, per_reducer_bytes: &[u64]) -> Duration {
        if per_reducer_bytes.is_empty() {
            return Duration::ZERO;
        }
        let node_count = self.nodes.max(1);
        let mut per_node = vec![0u64; node_count];
        for (r, &b) in per_reducer_bytes.iter().enumerate() {
            per_node[r % node_count] += b; // node_count = nodes.max(1) >= 1 and r % node_count < per_node.len()
        }
        let bottleneck = per_node.into_iter().max().unwrap_or(0);
        Duration::from_secs_f64(
            bottleneck as f64 * self.remote_fraction() / self.network_bytes_per_sec,
        )
    }

    /// Shuffle time from a real [`Placement`]: `remote_per_node[n]` is the
    /// byte total that reducers homed on node `n` must pull from *other*
    /// nodes (buckets whose producing map task is homed elsewhere). The
    /// bottleneck downlink carries exactly those bytes — no
    /// [`remote_fraction`](Self::remote_fraction) estimate. The closed-form
    /// [`shuffle_time`](Self::shuffle_time) remains the documented
    /// fallback when `placement` is `None`.
    pub fn shuffle_time_placed(&self, remote_per_node: &[u64]) -> Duration {
        let bottleneck = remote_per_node.iter().copied().max().unwrap_or(0);
        Duration::from_secs_f64(bottleneck as f64 / self.network_bytes_per_sec)
    }
}

/// Metrics for one executed MapReduce job.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Job name (for reports).
    pub name: String,
    /// Number of map tasks (input splits).
    pub map_tasks: usize,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Modeled map-phase duration (makespan over map slots).
    pub map_phase: Duration,
    /// Modeled reduce-phase duration (makespan over reduce slots).
    pub reduce_phase: Duration,
    /// Total intermediate bytes emitted by mappers.
    pub shuffle_bytes: u64,
    /// Per-reducer shuffle bytes.
    pub per_reducer_bytes: Vec<u64>,
    /// Modeled shuffle transfer time.
    pub shuffle_time: Duration,
    /// Distributed-cache bytes broadcast to all nodes.
    pub cache_bytes: u64,
    /// Modeled cache broadcast time.
    pub broadcast_time: Duration,
    /// Fixed job startup charge.
    pub startup_time: Duration,
    /// Simulated end-to-end job runtime.
    pub sim_runtime: Duration,
    /// Real wall-clock time spent executing the job on the host.
    pub host_wall: Duration,
    /// Records emitted by all mappers.
    pub map_output_records: u64,
    /// Distinct keys seen by all reducers.
    pub reduce_input_keys: u64,
    /// Output records produced by all reducers.
    pub output_records: u64,
    /// Map task executions that were failed and retried (failure injection).
    pub map_retries: u64,
    /// Reduce task executions that were failed and retried.
    pub reduce_retries: u64,
    /// Total task attempts executed, across both phases: regular attempts,
    /// retries, lost-partition re-executions, and speculative backups.
    pub attempts: u64,
    /// Simulated task time that produced no surviving output: failed
    /// attempts (straggler slowdown included) and losing halves of
    /// speculative task pairs.
    pub wasted_task_time: Duration,
    /// Speculative backup attempts that beat their straggling original.
    pub speculative_wins: u64,
    /// Total retry backoff charged to the simulated clock.
    pub backoff_time: Duration,
    /// Modeled per-map-task durations as placed on the cluster: the
    /// committed attempt priced from its counted work, scaled by any
    /// straggler slowdown, plus lost attempts, backoff, and extra
    /// per-attempt overheads.
    pub map_task_durations: Vec<Duration>,
    /// Modeled per-reduce-task durations (see `map_task_durations`).
    pub reduce_task_durations: Vec<Duration>,
    /// Nodes lost (declared dead) during this job.
    pub nodes_lost: u64,
    /// Completed map tasks whose materialized outputs were invalidated by
    /// a node loss and had to re-execute before the shuffle could finish.
    pub maps_reexecuted: u64,
    /// Simulated time spent detecting node losses (heartbeat timeouts) and
    /// re-executing invalidated map tasks. Folded into `map_phase`.
    pub reexecution_time: Duration,
    /// Nodes removed from scheduling by the blacklist policy.
    pub nodes_blacklisted: u64,
    /// Shuffle fetches whose frame failed checksum verification (each is
    /// either re-fetched or escalated to a map re-execution).
    pub corrupt_fetches: u64,
    /// Input records skipped by the skip-bad-records policy.
    pub records_skipped: u64,
    /// Spill segments written by map tasks (out-of-core mode).
    pub spill_files: u64,
    /// On-disk bytes written by map-side spills.
    pub spilled_bytes: u64,
    /// External-merge passes executed on the reduce side (intermediate
    /// cascade passes plus final streaming passes over disk runs).
    pub merge_passes: u64,
    /// `true` iff the job completed by skipping poisoned records — its
    /// output is the fault-free output of the input minus the skipped
    /// records, not of the full input.
    pub degraded: bool,
    /// Simulated time the job sat in the executor's admission queue before
    /// its first task was placed. Zero for jobs run outside a
    /// [`sched::ClusterExecutor`](crate::sched::ClusterExecutor) (a
    /// dedicated cluster never queues).
    pub queue_wait_time: Duration,
    /// Task attempts killed by the scheduler to make room for a
    /// higher-priority job. Each one's elapsed slot time is charged to
    /// `wasted_task_time` and the task re-enters the retry/backoff ladder.
    pub preemptions: u64,
}

impl JobMetrics {
    /// All-zero metrics for a job of the given shape — the starting point
    /// for partial metrics when a job aborts before a phase completes.
    pub fn empty(name: &str, map_tasks: usize, reduce_tasks: usize) -> Self {
        Self {
            name: name.to_owned(),
            map_tasks,
            reduce_tasks,
            map_phase: Duration::ZERO,
            reduce_phase: Duration::ZERO,
            shuffle_bytes: 0,
            per_reducer_bytes: Vec::new(),
            shuffle_time: Duration::ZERO,
            cache_bytes: 0,
            broadcast_time: Duration::ZERO,
            startup_time: Duration::ZERO,
            sim_runtime: Duration::ZERO,
            host_wall: Duration::ZERO,
            map_output_records: 0,
            reduce_input_keys: 0,
            output_records: 0,
            map_retries: 0,
            reduce_retries: 0,
            attempts: 0,
            wasted_task_time: Duration::ZERO,
            speculative_wins: 0,
            backoff_time: Duration::ZERO,
            map_task_durations: Vec::new(),
            reduce_task_durations: Vec::new(),
            nodes_lost: 0,
            maps_reexecuted: 0,
            reexecution_time: Duration::ZERO,
            nodes_blacklisted: 0,
            corrupt_fetches: 0,
            records_skipped: 0,
            spill_files: 0,
            spilled_bytes: 0,
            merge_passes: 0,
            degraded: false,
            queue_wait_time: Duration::ZERO,
            preemptions: 0,
        }
    }

    /// The busiest reducer's modeled compute duration — the bottleneck the
    /// paper attributes MR-GPSRS's degradation to.
    pub fn max_reduce_task(&self) -> Duration {
        self.reduce_task_durations
            .iter()
            .copied()
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// This job's row for the telemetry phase table
    /// ([`skymr_telemetry::phase_table`]).
    pub fn phase_summary(&self) -> skymr_telemetry::JobPhaseSummary {
        skymr_telemetry::JobPhaseSummary {
            job: self.name.clone(),
            map_tasks: self.map_tasks,
            reduce_tasks: self.reduce_tasks,
            overhead: self.startup_time + self.broadcast_time,
            map: self.map_phase,
            shuffle: self.shuffle_time,
            reduce: self.reduce_phase,
            total: self.sim_runtime,
            attempts: self.attempts,
            retries: self.map_retries + self.reduce_retries,
            speculative_wins: self.speculative_wins,
            wasted: self.wasted_task_time,
            queued: self.queue_wait_time,
            preemptions: self.preemptions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    /// A wave's makespan and per-slot loads under the engine's one list
    /// scheduler, in the `Duration` terms `JobMetrics` reports.
    fn slot_loads(durations: &[Duration], slots: usize, overhead: Duration) -> Vec<Duration> {
        use crate::trace::{from_ticks, ticks_of};
        let ticks: Vec<u64> = durations.iter().map(|d| ticks_of(*d)).collect();
        let (placed, _) = skymr_telemetry::place::place(&ticks, slots, ticks_of(overhead));
        let mut loads = vec![Duration::ZERO; slots];
        for p in placed {
            loads[p.slot] = loads[p.slot].max(from_ticks(p.end));
        }
        loads
    }

    fn makespan(durations: &[Duration], slots: usize, overhead: Duration) -> Duration {
        let loads = slot_loads(durations, slots, overhead);
        loads.into_iter().max().unwrap_or(Duration::ZERO)
    }

    #[test]
    fn default_mirrors_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.nodes, 13);
        assert_eq!(c.map_slots, 13);
        assert!((c.network_bytes_per_sec - 12.5e6).abs() < 1.0);
    }

    #[test]
    fn makespan_single_slot_is_sum() {
        let d = [ms(10), ms(20), ms(30)];
        assert_eq!(makespan(&d, 1, Duration::ZERO), ms(60));
    }

    #[test]
    fn makespan_many_slots_is_max() {
        let d = [ms(10), ms(20), ms(30)];
        assert_eq!(makespan(&d, 3, Duration::ZERO), ms(30));
        assert_eq!(makespan(&d, 10, Duration::ZERO), ms(30));
    }

    #[test]
    fn makespan_balances_with_lpt() {
        // LPT on 2 slots: 30 | 20+10 -> makespan 30.
        let d = [ms(10), ms(20), ms(30)];
        assert_eq!(makespan(&d, 2, Duration::ZERO), ms(30));
        // 4 tasks of 10 on 2 slots -> 20.
        let d = [ms(10); 4];
        assert_eq!(makespan(&d, 2, Duration::ZERO), ms(20));
    }

    #[test]
    fn makespan_charges_per_task_overhead() {
        let d = [ms(10), ms(10)];
        assert_eq!(makespan(&d, 1, ms(5)), ms(30));
        assert_eq!(makespan(&d, 2, ms(5)), ms(15));
    }

    #[test]
    fn makespan_empty_phase_is_zero() {
        assert_eq!(makespan(&[], 4, ms(5)), Duration::ZERO);
    }

    /// Regression test (telemetry PR): the makespan can never beat the
    /// perfectly balanced schedule — `makespan >= busy_time / slots`,
    /// where busy time is the total slot time the phase consumes
    /// (durations plus one launch overhead per task). Checked as
    /// `makespan * slots >= sum(durations) + n * overhead` to stay in
    /// integer arithmetic.
    #[test]
    fn makespan_is_at_least_busy_time_over_slots() {
        let cases: Vec<(Vec<Duration>, usize, Duration)> = vec![
            (vec![ms(10), ms(20), ms(30)], 2, ms(5)),
            (vec![ms(1); 17], 4, ms(3)),
            (vec![ms(40), ms(1), ms(1), ms(1)], 3, Duration::ZERO),
            (vec![], 3, ms(7)),
            ((1..50).map(ms).collect(), 13, ms(2)),
        ];
        for (durations, slots, overhead) in cases {
            let span = makespan(&durations, slots, overhead);
            let busy: Duration =
                durations.iter().sum::<Duration>() + overhead * durations.len() as u32;
            assert!(
                span * slots as u32 >= busy,
                "makespan {span:?} on {slots} slots under-counts busy time {busy:?}"
            );
        }
    }

    /// `makespan` is exactly the maximum of `slot_loads`, and the loads
    /// conserve total busy time.
    #[test]
    fn slot_loads_conserve_busy_time() {
        let d = [ms(10), ms(20), ms(30), ms(7), ms(3)];
        let loads = slot_loads(&d, 3, ms(5));
        assert_eq!(loads.len(), 3);
        assert_eq!(loads.iter().copied().max(), Some(makespan(&d, 3, ms(5))));
        let total: Duration = loads.iter().sum();
        assert_eq!(total, d.iter().sum::<Duration>() + ms(5) * d.len() as u32);
    }

    #[test]
    fn phase_summary_maps_metric_fields() {
        let mut m = JobMetrics::empty("wc", 3, 2);
        m.map_phase = ms(10);
        m.shuffle_time = ms(2);
        m.reduce_phase = ms(4);
        m.startup_time = ms(1);
        m.broadcast_time = ms(1);
        m.sim_runtime = ms(18);
        m.attempts = 5;
        m.map_retries = 1;
        m.reduce_retries = 1;
        let row = m.phase_summary();
        assert_eq!(row.job, "wc");
        assert_eq!(row.overhead, ms(2));
        assert_eq!(row.retries, 2);
        assert_eq!(row.total, ms(18));
    }

    #[test]
    fn broadcast_scales_with_nodes_and_bytes() {
        let mut c = ClusterConfig::test();
        c.nodes = 5;
        c.network_bytes_per_sec = 1000.0;
        // 1000 bytes to 4 other nodes over a 1000 B/s uplink = 4 s.
        assert_eq!(c.broadcast_time(1000), Duration::from_secs(4));
        c.nodes = 1;
        assert_eq!(c.broadcast_time(1000), Duration::ZERO);
    }

    #[test]
    fn shuffle_time_bottleneck_is_busiest_node() {
        let mut c = ClusterConfig::test();
        c.nodes = 2;
        c.network_bytes_per_sec = 1000.0;
        // Reducers 0 and 2 land on node 0 (2000 bytes), reducer 1 on node 1.
        let t = c.shuffle_time(&[1000, 500, 1000]);
        let expected = 2000.0 * 0.5 / 1000.0;
        assert!((t.as_secs_f64() - expected).abs() < 1e-9);
    }

    #[test]
    fn shuffle_time_zero_for_single_node() {
        let mut c = ClusterConfig::test();
        c.nodes = 1;
        assert_eq!(c.shuffle_time(&[1_000_000]), Duration::ZERO);
    }

    #[test]
    fn placement_homes_are_deterministic_and_in_range() {
        let p = Placement::new(0xFEED);
        let alive: Vec<usize> = (0..4).collect();
        for i in 0..32 {
            let home = p.task_home("wc", TaskKind::Map, i, &alive);
            assert!(home < 4);
            assert_eq!(home, p.task_home("wc", TaskKind::Map, i, &alive));
        }
        // A different seed must disagree somewhere over 32 tasks.
        let q = Placement::new(0xFEED + 1);
        assert!((0..32).any(|i| {
            p.task_home("wc", TaskKind::Map, i, &alive)
                != q.task_home("wc", TaskKind::Map, i, &alive)
        }));
    }

    #[test]
    fn placement_respects_the_alive_list() {
        let p = Placement::new(7);
        // With node 2 dead, no task may be homed there.
        let alive = [0usize, 1, 3];
        for i in 0..64 {
            assert_ne!(p.task_home("wc", TaskKind::Map, i, &alive), 2);
            assert_ne!(p.attempt_home("wc", TaskKind::Reduce, i, 1, &alive), 2);
        }
    }

    #[test]
    fn slots_map_round_robin_onto_nodes() {
        assert_eq!(Placement::node_of_slot(0, 4), 0);
        assert_eq!(Placement::node_of_slot(5, 4), 1);
        assert_eq!(Placement::node_of_slot(3, 0), 0);
    }

    #[test]
    fn placed_shuffle_charges_only_remote_bytes() {
        let mut c = ClusterConfig::test();
        c.network_bytes_per_sec = 1000.0;
        // Busiest node pulls 2000 remote bytes -> 2 s, no remote_fraction.
        let t = c.shuffle_time_placed(&[2000, 500]);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(c.shuffle_time_placed(&[]), Duration::ZERO);
    }

    #[test]
    fn remote_fraction_bounds() {
        let mut c = ClusterConfig::test();
        c.nodes = 1;
        assert_eq!(c.remote_fraction(), 0.0);
        c.nodes = 13;
        assert!((c.remote_fraction() - 12.0 / 13.0).abs() < 1e-12);
    }
}
