//! The job driver: map phase → shuffle → reduce phase, with Hadoop-style
//! fault tolerance (bounded retries, backoff, speculative execution).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use skymr_common::bytes::{encode_pairs_into, PAIRS_OVERHEAD};
use skymr_common::{decode_pairs, Counters, Wire};

use crate::cluster::{ClusterConfig, JobMetrics, Placement};
use crate::combiner::{Combiner, NoCombiner};
use crate::fault::{
    run_attempts, AttemptFailure, BlacklistPolicy, CorruptFetch, FailureCause, FaultPlan,
    FaultTolerance, Inject, JobError, RetryPolicy, SpeculationPolicy, TaskExecution, TaskFault,
    TaskKind,
};
use crate::partitioner::Partitioner;
use crate::pool::run_indexed;
use crate::splits::{SliceSplits, SplitSource};
use crate::storage::{
    merge::{cascade_stats, external_merge, KWayMerge, MergeStats, RunSource},
    segment::{flip_bit, verify_frames, write_segment, Segment, StorageError},
    SpillSession,
};
use crate::task::{
    Emitter, MapFactory, MapTask, OutputCollector, ReduceFactory, ReduceTask, TaskContext,
};
use crate::trace::{
    from_ticks, ticks_of, CorruptEvent, FailKind, JobRecord, NodeLossEvent, TaskModel,
};
use skymr_telemetry::{Collector, MetricsRegistry};

/// Per-job configuration.
#[derive(Debug, Clone)]
pub struct JobConfig {
    /// Job name, used in metrics and reports.
    pub name: String,
    /// Number of reduce tasks.
    pub num_reducers: usize,
    /// Bytes of read-only data broadcast to every node before the job
    /// starts (the Hadoop Distributed Cache; the paper ships the global
    /// bitstring this way). Charged to the simulated clock.
    pub cache_bytes: u64,
    /// Fault-injection plan (empty by default).
    pub faults: FaultPlan,
    /// Retry budget and backoff for failed task attempts.
    pub retry: RetryPolicy,
    /// Speculative execution of straggling tasks (off by default).
    pub speculation: Option<SpeculationPolicy>,
    /// Node blacklisting (off by default; needs a cluster [`Placement`]).
    pub blacklist: Option<BlacklistPolicy>,
    /// Telemetry collector the job commits its trace to (off by default).
    /// The metrics registry is built either way; the collector only adds
    /// the span timeline.
    pub collector: Option<Collector>,
}

impl JobConfig {
    /// A job with the given name and reducer count, no cache, no faults,
    /// and the default retry budget.
    pub fn new(name: impl Into<String>, num_reducers: usize) -> Self {
        Self {
            name: name.into(),
            num_reducers,
            cache_bytes: 0,
            faults: FaultPlan::none(),
            retry: RetryPolicy::new(),
            speculation: None,
            blacklist: None,
            collector: None,
        }
    }

    /// Sets the distributed-cache byte charge.
    pub fn with_cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Sets the fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables speculative execution.
    pub fn with_speculation(mut self, speculation: SpeculationPolicy) -> Self {
        self.speculation = Some(speculation);
        self
    }

    /// Enables node blacklisting.
    pub fn with_blacklist(mut self, blacklist: BlacklistPolicy) -> Self {
        self.blacklist = Some(blacklist);
        self
    }

    /// Applies a bundled [`FaultTolerance`] configuration (plan, retry
    /// policy, speculation, and blacklisting in one go — what the
    /// algorithm configs carry).
    pub fn with_fault_tolerance(mut self, ft: &FaultTolerance) -> Self {
        self.faults = ft.plan.clone();
        self.retry = ft.retry.clone();
        self.speculation = ft.speculation.clone();
        self.blacklist = ft.blacklist;
        self
    }

    /// Attaches a telemetry collector: the job commits its span timeline
    /// there on success. `None` leaves tracing off (the default).
    pub fn with_collector(mut self, collector: Option<Collector>) -> Self {
        self.collector = collector;
        self
    }
}

/// Result of a job: per-reducer outputs plus metrics and counters.
#[derive(Debug)]
pub struct JobOutcome<Out> {
    /// Output records, indexed by reducer.
    pub outputs: Vec<Vec<Out>>,
    /// Simulated execution metrics (plus the host-measured `host_wall`).
    pub metrics: JobMetrics,
    /// Job counters populated by tasks.
    pub counters: Counters,
    /// The job's metrics registry — the structured source the countable
    /// [`JobMetrics`] fields are derived from.
    pub registry: MetricsRegistry,
}

impl<Out> JobOutcome<Out> {
    /// Flattens per-reducer outputs into one vector (reducer order).
    pub fn into_flat_output(self) -> Vec<Out> {
        self.outputs.into_iter().flatten().collect()
    }
}

/// One map task's partitioned output at rest: the spill segments it wrote
/// (in spill order) plus the in-memory tail batch. Under a memory budget
/// the tail goes to disk too and `tail` stays empty; without one nothing
/// spills and `segments` stays empty.
struct MapResult<K> {
    segments: Vec<Segment>,
    /// The unspilled tail as it crosses the shuffle: per reducer, the
    /// checksummed frame of its key-sorted bucket and its record count.
    tail: Vec<(Vec<u8>, u64)>,
    /// Wire-size accounting per reducer ([`skymr_common::ByteSized`]) —
    /// the same whether a pair sits in a segment or in the tail, so the
    /// shuffle traffic model never notices spilling.
    bucket_bytes: Vec<u64>,
    records: u64,
    /// Work the attempt charged ([`Emitter::charge`]).
    work: u64,
    /// The attempt's own counters.
    counters: Counters,
    /// Debug builds: pairs per key, tallied in [`Job::route`] before
    /// anything is encoded — the shuffle invariant's mapper side.
    emitted: BTreeMap<K, u64>,
}

/// One reduce attempt's output.
struct ReduceResult<Out> {
    records: Vec<Out>,
    /// Work the attempt charged ([`OutputCollector::charge`]).
    work: u64,
    /// The attempt's own counters.
    counters: Counters,
}

/// One fetched shuffle partition at rest. Every reduce attempt opens its
/// partitions afresh — a frame is CRC-checked and decoded, a spill
/// partition gets a chunked reader — so retries and speculative backups
/// replay from the same bytes and no input is ever cloned or handed off.
enum Fetched {
    /// The frame its map attempt encoded for a bucket that never spilled.
    Frame(Vec<u8>),
    /// One partition of a spill segment.
    Spill { segment: Segment, part: usize },
}

/// One reducer's input: its fetched partitions in run priority order (map
/// index, then spill sequence, the unspilled tail last) plus the facts
/// the model reads off them.
#[derive(Default)]
struct ReduceInput {
    parts: Vec<Fetched>,
    /// Values across all partitions.
    records: u64,
    /// Distinct keys — a by-product of the first attempt that streams
    /// every group; [`Job::keys_in`] counts on demand before that.
    keys: OnceLock<u64>,
    /// Closed-form merge-cascade cost of the disk runs (jobs under a
    /// memory budget only) — a pure function of the manifests, identical
    /// for every attempt of the reducer.
    merge: Option<MergeStats>,
}

impl ReduceInput {
    /// Opens every partition as a merge run.
    fn open<K: Wire, V: Wire>(&self) -> Vec<RunSource<K, V>> {
        let open = |p: &Fetched| {
            match p {
                Fetched::Frame(frame) => match decode_pairs(frame) {
                    Ok(pairs) => RunSource::Mem(pairs),
                    // Injected corruption only ever touches a delivered copy.
                    Err(e) => {
                        unreachable!("a frame at rest since its map attempt always verifies: {e}")
                    }
                },
                Fetched::Spill { segment, part } => RunSource::Disk {
                    segment: segment.clone(),
                    part: *part,
                },
            }
        };
        self.parts.iter().map(open).collect()
    }
}

impl<K> AsRef<Counters> for MapResult<K> {
    fn as_ref(&self) -> &Counters {
        &self.counters
    }
}

impl<Out> AsRef<Counters> for ReduceResult<Out> {
    fn as_ref(&self) -> &Counters {
        &self.counters
    }
}

/// One task's execution with the fault it ran under.
type Exec<T> = (TaskExecution<T>, TaskFault);

/// Attempts executed and failures retried by a phase's first pass
/// through the retry ladder.
fn tally<T>(execs: &[Exec<T>]) -> (u64, u64) {
    let attempts = execs.iter().map(|(e, _)| u64::from(e.attempts)).sum();
    let retries = execs.iter().map(|(e, _)| u64::from(e.retries())).sum();
    (attempts, retries)
}

/// What the stages hand down the line — the driver's mutable state: the
/// [`JobRecord`] of facts they accumulate into (everything timed is derived
/// from it, [`JobRecord::timeline`]), the map outputs until fetch consumes
/// them, and the node failure-domain state.
struct Run<'a, K> {
    record: JobRecord<'a>,
    /// Materialized map outputs: patched by the re-execution waves,
    /// consumed by fetch.
    outputs: Vec<MapResult<K>>,
    /// Attempts each map task has used — the attempt number its next
    /// re-execution runs under.
    attempts: Vec<u32>,
    /// Records retired by the skip protocol, per map task.
    skips: Vec<BTreeSet<usize>>,
    all_nodes: Vec<usize>,
    /// Home node of each map task's materialized output (placed clusters).
    map_homes: Vec<usize>,
    dead: BTreeSet<usize>,
    strikes: BTreeMap<usize, u32>,
    blacklisted: BTreeSet<usize>,
}

impl<K> Run<'_, K> {
    fn survivors(&self) -> Vec<usize> {
        let alive = |n: &usize| !self.dead.contains(n);
        self.all_nodes.iter().copied().filter(alive).collect()
    }

    /// Slots of `total` still schedulable once dead and blacklisted nodes
    /// are gone: each slot lives on node `slot % nodes`
    /// ([`Placement::node_of_slot`]). At least one slot always survives so
    /// the job can limp home rather than deadlock.
    fn surviving_slots(&self, total: usize) -> usize {
        let node = |s: usize| Placement::node_of_slot(s, self.all_nodes.len());
        let gone = |n: usize| self.dead.contains(&n) || self.blacklisted.contains(&n);
        (0..total).filter(|&s| !gone(node(s))).count().max(1)
    }
}

/// The winning values of a phase whose failures already aborted the job.
fn winners<T>(execs: &mut [Exec<T>]) -> Vec<T> {
    let win = |(exec, _): &mut Exec<T>| match exec.value.take() {
        Some(value) => value,
        None => unreachable!("task failures abort the job before their phase's values are read"),
    };
    execs.iter_mut().map(win).collect()
}

fn fail_kinds<T>(exec: &TaskExecution<T>) -> Vec<FailKind> {
    let kind = |f: &AttemptFailure| FailKind::from_cause(&f.cause);
    exec.failures.iter().map(kind).collect()
}

/// A storage-plane failure inside a task attempt. Unwinding *is* the
/// recovery path: `run_attempts` catches the panic per attempt and the
/// retry ladder replays the task.
fn storage_fault(doing: &str, e: StorageError) -> ! {
    panic!("storage plane: {doing} failed: {e}")
}

/// Nodes whose strike count has reached the blacklist budget.
fn over_budget(strikes: &BTreeMap<usize, u32>, policy: &BlacklistPolicy) -> BTreeSet<usize> {
    strikes
        .iter()
        .filter(|&(_, &count)| count >= policy.max_failures.max(1))
        .map(|(&node, _)| node)
        .collect()
}

/// Runs one MapReduce job (no combiner).
///
/// `splits` is the pre-split input `R_1, …, R_m` — one map task per split,
/// exactly as the paper's job flows show (Figures 3–5). The reduce phase
/// runs `config.num_reducers` tasks; keys are routed by `partitioner`,
/// sorted, and grouped.
///
/// Task attempts that fail (injected via [`JobConfig::faults`] or a
/// genuinely panicking UDF) are retried under [`JobConfig::retry`]; a task
/// that exhausts its budget aborts the job with a structured [`JobError`]
/// carrying the attempt history and partial metrics.
///
/// ```
/// use skymr_mapreduce::*;
///
/// // Word count: the canonical MapReduce example, as two closures.
/// # fn main() -> Result<(), JobError> {
/// let splits = vec![vec!["a b a".to_string()], vec!["b".to_string()]];
/// let outcome = run_job(
///     &ClusterConfig::test(),
///     &JobConfig::new("wc", 2),
///     &splits,
///     &map_fn(|line: &String, out| {
///         for word in line.split_whitespace() {
///             out.emit(word.to_string(), 1u64);
///         }
///     }),
///     &reduce_fn(|word, counts: Vec<u64>, out| out.collect((word, counts.iter().sum::<u64>()))),
///     &HashPartitioner,
/// )?;
/// let mut counts = outcome.into_flat_output();
/// counts.sort();
/// assert_eq!(counts, vec![("a".to_string(), 2), ("b".to_string(), 2)]);
/// # Ok(())
/// # }
/// ```
pub fn run_job<In, K, V, Out, MF, RF, P>(
    cluster: &ClusterConfig,
    config: &JobConfig,
    splits: &[Vec<In>],
    map_factory: &MF,
    reduce_factory: &RF,
    partitioner: &P,
) -> Result<JobOutcome<Out>, JobError>
where
    In: Send + Sync,
    K: crate::task::JobKey,
    V: crate::task::JobValue + Clone,
    Out: Send,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
{
    let source = SliceSplits::new(splits);
    run_job_from(
        cluster,
        config,
        &source,
        map_factory,
        reduce_factory,
        partitioner,
    )
}

/// [`run_job`], but fed from a [`SplitSource`] instead of materialized
/// `Vec` splits: each map attempt materializes only its own split, for
/// only as long as it runs. This is how queued jobs under the
/// [`sched`](crate::sched) executor avoid pinning their whole input in
/// RAM while they wait, and how datasets larger than memory stream in
/// from a seeded [`FnSplits`](crate::splits::FnSplits) recipe.
pub fn run_job_from<In, K, V, Out, S, MF, RF, P>(
    cluster: &ClusterConfig,
    config: &JobConfig,
    source: &S,
    map_factory: &MF,
    reduce_factory: &RF,
    partitioner: &P,
) -> Result<JobOutcome<Out>, JobError>
where
    In: Send + Sync,
    K: crate::task::JobKey,
    V: crate::task::JobValue + Clone,
    Out: Send,
    S: SplitSource<In>,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
{
    run_job_with_combiner_from(
        cluster,
        config,
        source,
        map_factory,
        reduce_factory,
        partitioner,
        &NoCombiner,
    )
}

/// The fully general driver: [`SplitSource`] input plus a map-side
/// [`Combiner`] applied to each map task's output before the shuffle.
/// Everything else delegates here.
///
/// The body is the job's table of contents (DESIGN.md §3): each stage is
/// one [`Job`] method, the stages accumulate the job's deterministic facts
/// into one [`JobRecord`], and every exit — success or abort — reports
/// them through [`Job::close`].
pub fn run_job_with_combiner_from<In, K, V, Out, S, MF, RF, P, C>(
    cluster: &ClusterConfig,
    config: &JobConfig,
    source: &S,
    map_factory: &MF,
    reduce_factory: &RF,
    partitioner: &P,
    combiner: &C,
) -> Result<JobOutcome<Out>, JobError>
where
    In: Send + Sync,
    K: crate::task::JobKey,
    V: crate::task::JobValue + Clone,
    Out: Send,
    S: SplitSource<In>,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
    C: Combiner<K, V>,
{
    assert!(config.num_reducers > 0, "a job needs at least one reducer");
    // Input: the context every stage shares. With a memory budget set, map
    // output spills to sorted on-disk segments; the session owns the job's
    // spill directory and removes it on every exit path. Failing to create
    // it is an environment fault the job cannot work around.
    let job = Job {
        cluster,
        config,
        source,
        map_factory,
        reduce_factory,
        partitioner,
        combiner,
        counters: Counters::new(),
        started: Instant::now(), // xtask: allow(clock-discipline) — feeds only metrics.host_wall (advisory); sim_runtime is derived from the cluster cost model
        #[expect(
            clippy::expect_used,
            reason = "an unusable spill root is an environment fault with no in-job recovery"
        )]
        spill: cluster.storage.enabled().then(|| {
            SpillSession::create(&cluster.storage, &config.name)
                .expect("storage plane: cannot create spill directory")
        }),
    };
    let mut run = job.start();
    // Map: every split through the attempt ladder, the skip-bad-records
    // protocol, and speculation.
    job.map_stage(&mut run)?;
    // Map-output recovery: lost partitions and dead nodes re-execute their
    // producers before the shuffle can start.
    job.recover_map_outputs(&mut run);
    // Fetch/verify: every partition crosses to its reducer as checksummed
    // bytes; corruption re-fetches or re-executes the producer.
    let inputs = job.fetch(&mut run);
    // Reduce: each attempt merges its reducer's runs and streams the
    // groups through the UDF.
    let outputs = job.reduce_stage(&inputs, &mut run)?;
    // Commit: registry, trace, metrics.
    Ok(job.commit(run, outputs))
}

/// One job in flight: the read-only context every stage shares. The
/// stages are its methods, in execution order.
struct Job<'a, S, MF, RF, P, C> {
    cluster: &'a ClusterConfig,
    config: &'a JobConfig,
    source: &'a S,
    map_factory: &'a MF,
    reduce_factory: &'a RF,
    partitioner: &'a P,
    combiner: &'a C,
    counters: Counters,
    started: Instant,
    /// The job's spill directory, present iff a memory budget is set.
    spill: Option<SpillSession>,
}

impl<'a, In, K, V, Out, S, MF, RF, P, C> Job<'a, S, MF, RF, P, C>
where
    In: Send + Sync,
    K: crate::task::JobKey,
    V: crate::task::JobValue,
    Out: Send,
    S: SplitSource<In>,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
    C: Combiner<K, V>,
{
    /// The state the stages start from. The cache broadcast happens before
    /// any task launches (failed transfers are re-sent in full, multiplying
    /// the charge), and with a placement every map task's materialized
    /// output has a home node — a pure hash of (seed, job, kind, index),
    /// never the slot the LPT schedule put it on.
    fn start(&self) -> Run<'a, K> {
        let config = self.config;
        let transfers = config.faults.broadcast_failures_for(&config.name) + 1;
        let all_nodes: Vec<usize> = (0..self.cluster.nodes.max(1)).collect();
        let home = |p: &Placement, i| p.task_home(&config.name, TaskKind::Map, i, &all_nodes);
        let map_homes = match &self.cluster.placement {
            Some(p) => (0..self.source.num_splits()).map(|i| home(p, i)).collect(),
            None => Vec::new(),
        };
        let record = JobRecord {
            name: &config.name,
            cluster: self.cluster,
            retry: &config.retry,
            cache_bytes: config.cache_bytes,
            broadcast_attempts: transfers,
            broadcast_time: self.cluster.broadcast_time(config.cache_bytes) * transfers,
            shuffle_time: Duration::ZERO,
            per_reducer_bytes: Vec::new(),
            map: Vec::new(),
            reduce: Vec::new(),
            recovery: Vec::new(),
            lost: Vec::new(),
            corrupt: Vec::new(),
            rotten: Vec::new(),
            skipped: Vec::new(),
            node_losses: Vec::new(),
            reexecuted: Vec::new(),
            maps_reexecuted: 0,
            nodes_blacklisted: 0,
            surviving_map_slots: self.cluster.map_slots,
            surviving_reduce_slots: self.cluster.reduce_slots,
            map_attempts: 0,
            map_retries: 0,
            reduce_attempts: 0,
            reduce_retries: 0,
            user_counters: Vec::new(),
        };
        Run {
            record,
            outputs: Vec::new(),
            attempts: Vec::new(),
            skips: Vec::new(),
            all_nodes,
            map_homes,
            dead: BTreeSet::new(),
            strikes: BTreeMap::new(),
            blacklisted: BTreeSet::new(),
        }
    }

    /// The context of one attempt, with counters of its own: the engine
    /// folds them into the job's only for the attempt whose output is
    /// committed ([`Self::settle`]).
    fn task_context(&self, task_index: usize, num_tasks: usize, attempt: u32) -> TaskContext {
        TaskContext {
            task_index,
            num_tasks,
            num_reducers: self.config.num_reducers,
            attempt,
            counters: Counters::new(),
        }
    }

    /// The tail both phases share once every task has been through the
    /// retry ladder. Backups: planned on model ticks
    /// ([`JobRecord::plan_backups`]), then really re-executed — at full
    /// speed, under the next attempt number — which is what proves under
    /// test that UDFs are pure, since a winning backup's value is the one
    /// committed. Counters: the committed attempts' are folded into the
    /// job's — Hadoop's semantics: a failed attempt, a discarded
    /// `LostOutput` run, a backup and a re-execution never count twice, so
    /// user counters under any fault plan equal the clean run's. Returns
    /// the first task that exhausted its budget, if any.
    fn settle<T: Send + AsRef<Counters>>(
        &self,
        kind: TaskKind,
        execs: &mut [Exec<T>],
        record: &mut JobRecord<'a>,
        rerun: impl Fn(usize, u32) -> T + Sync,
    ) -> Option<usize> {
        let failed = execs.iter().position(|(e, _)| !e.succeeded());
        if let (None, Some(spec)) = (failed, &self.config.speculation) {
            let planned = record.plan_backups(kind, spec);
            let next: Vec<u32> = planned.iter().map(|&(i, _)| execs[i].0.attempts).collect();
            let backups = run_indexed(planned.len(), self.cluster.host_threads, |c| {
                rerun(planned[c].0, next[c])
            });
            for (&(i, wins), value) in planned.iter().zip(backups) {
                if wins {
                    execs[i].0.value = Some(value);
                }
            }
        }
        for value in execs.iter().filter_map(|(e, _)| e.value.as_ref()) {
            self.counters.absorb(value.as_ref());
        }
        failed
    }

    // ---- Map -------------------------------------------------------------

    /// Groups one batch of emitted pairs per key, applies the combiner,
    /// and partitions the result, counting it into `result` — the shared
    /// kernel of the unspilled tail and of each spill (spilling combines
    /// per spill batch, exactly as Hadoop runs the combiner on each
    /// spill). The key-sorted order keeps the pipeline deterministic.
    fn route(&self, pairs: Vec<(K, V)>, result: &mut MapResult<K>) -> Vec<Vec<(K, V)>> {
        let r = self.config.num_reducers;
        let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
        for (k, v) in pairs {
            grouped.entry(k).or_default().push(v);
        }
        let mut buckets: Vec<Vec<(K, V)>> = (0..r).map(|_| Vec::new()).collect();
        for (k, vs) in grouped {
            let combined = self.combiner.combine(&k, vs);
            let dest = self.partitioner.partition(&k, r);
            assert!(dest < r, "partitioner returned reducer {dest} of {r}");
            if cfg!(debug_assertions) {
                *result.emitted.entry(k.clone()).or_insert(0) += combined.len() as u64;
            }
            for v in combined {
                result.records += 1;
                result.bucket_bytes[dest] += k.byte_size() + v.byte_size();
                buckets[dest].push((k.clone(), v));
            }
        }
        buckets
    }

    fn map_attempt(
        &self,
        i: usize,
        attempt: u32,
        inject: Inject,
        skips: &BTreeSet<usize>,
        progress: &AtomicUsize,
    ) -> MapResult<K> {
        let ctx = self.task_context(i, self.source.num_splits(), attempt);
        let mut task = self.map_factory.create(&ctx);
        let mut emitter = Emitter::new();
        // Materialized for this attempt only; dropped once it is mapped.
        let loaded = self.source.load(i);
        let split: &[In] = &loaded;
        let mut result = MapResult {
            segments: Vec::new(),
            tail: Vec::new(),
            bucket_bytes: vec![0u64; self.config.num_reducers],
            records: 0,
            work: 0,
            counters: ctx.counters.clone(),
            emitted: BTreeMap::new(),
        };
        // Routes the buffered pairs into one more spill segment.
        let spill =
            |session: &SpillSession, emitter: &mut Emitter<K, V>, result: &mut MapResult<K>| {
                let (pairs, _) = emitter.drain();
                let buckets = self.route(pairs, result);
                let path = session.segment_path(i, attempt);
                let segment = write_segment(path, &buckets, self.cluster.storage.io_chunk)
                    .unwrap_or_else(|e| storage_fault("spill write", e));
                result.segments.push(segment);
            };
        let crash = || -> ! {
            crate::pool::raise_injected_panic(format!(
                "[fault-injection] map task {i} attempt {attempt} crashed mid-task"
            ))
        };
        // An injected mid-task crash fires halfway through the split — the
        // attempt genuinely unwinds with part of its work done.
        let crash_at = match inject {
            Inject::MidTaskPanic => Some(split.len() / 2),
            Inject::None => None,
        };
        if crash_at.is_some() && split.is_empty() {
            crash();
        }
        // Scripted poison records: the UDF deterministically dies on these
        // on every attempt, so only the skip-bad-records protocol can get
        // the task past them.
        let poison = self.config.faults.poison_records_for(&self.config.name, i);
        // The spill trigger compares the emitter's wire-size accounting
        // against the budget — a pure function of the emitted data, so
        // spill points are identical on every host and every replay.
        let budget = self.spill.as_ref().zip(self.cluster.storage.memory_budget);
        for (n, record) in split.iter().enumerate() {
            // The tracker's per-attempt progress report: if this attempt
            // dies, record `n` is the suspect the skip protocol narrows to.
            progress.store(n, Ordering::Relaxed);
            if crash_at == Some(n) {
                crash();
            }
            if skips.contains(&n) {
                continue;
            }
            if poison.contains(&n) {
                crate::pool::raise_injected_panic(format!(
                    "[fault-injection] map task {i} attempt {attempt} poisoned at record {n}"
                ));
            }
            task.map(record, &mut emitter);
            if let Some((session, budget)) = budget {
                if emitter.buffered_bytes() >= budget {
                    spill(session, &mut emitter, &mut result);
                }
            }
        }
        task.finish(&mut emitter);
        drop(loaded);
        result.work = emitter.work();
        match budget {
            // The tail batch always goes to disk too — with a budget set,
            // map RAM never holds the task's full output.
            Some((session, _)) if !emitter.is_empty() => spill(session, &mut emitter, &mut result),
            Some(_) => {}
            // The unspilled tail leaves the attempt as it crosses the
            // shuffle: one checksummed frame per reducer, in a buffer
            // reserved exactly from the wire size `route` just counted.
            None => {
                let (pairs, _) = emitter.into_parts();
                let buckets = self.route(pairs, &mut result);
                let sized = buckets.into_iter().zip(&result.bucket_bytes);
                let frame = |(bucket, &bytes): (Vec<(K, V)>, &u64)| {
                    let mut frame = Vec::with_capacity(bytes as usize + PAIRS_OVERHEAD);
                    encode_pairs_into(&bucket, &mut frame);
                    debug_assert_eq!(frame.len(), frame.capacity(), "ByteSized ≠ Wire length");
                    (frame, bucket.len() as u64)
                };
                result.tail = sized.map(frame).collect();
            }
        }
        result
    }

    /// A clean replay of map task `i` (speculative backups and the
    /// re-execution waves): no injection, the task's skip set honoured.
    fn replay_map(&self, i: usize, attempt: u32, skips: &BTreeSet<usize>) -> MapResult<K> {
        let progress = AtomicUsize::new(usize::MAX);
        self.map_attempt(i, attempt, Inject::None, skips, &progress)
    }

    /// One map task through the retry ladder, then Hadoop's
    /// skip-bad-records protocol: when the budget exhausts with a panic,
    /// the tracker's last progress report names the suspect record; it
    /// enters the skip set and the task re-runs without it. Scripted
    /// attempt failures were consumed by the first round, so later rounds
    /// face only the data. Each round retires one record, bounding the
    /// loop by the split length.
    fn run_map_task(&self, i: usize) -> (Exec<MapResult<K>>, BTreeSet<usize>) {
        let (config, cluster) = (self.config, self.cluster);
        let fault = config.faults.task_fault(&config.name, TaskKind::Map, i);
        let split_len = self.source.split_len(i);
        let mut skips: BTreeSet<usize> = BTreeSet::new();
        let progress = AtomicUsize::new(usize::MAX);
        let round = |fault: &TaskFault, skips: &BTreeSet<usize>| {
            progress.store(usize::MAX, Ordering::Relaxed);
            run_attempts(
                fault,
                &config.retry,
                cluster.progress_timeout,
                |attempt, inject| self.map_attempt(i, attempt, inject, skips, &progress),
            )
        };
        let mut exec = round(&fault, &skips);
        let mut round_fault = fault;
        round_fault.failures = 0;
        for _round in 0..split_len {
            if exec.succeeded() || !cluster.skip_bad_records {
                break;
            }
            // Only a panicking attempt names a record; lost outputs and
            // hangs are the node's fault, not the data's.
            let panicked = matches!(
                exec.failures.last().map(|f| &f.cause),
                Some(FailureCause::Panic { .. })
            );
            let suspect = progress.load(Ordering::Relaxed);
            if !panicked || suspect >= split_len || !skips.insert(suspect) {
                break;
            }
            let next = round(&round_fault, &skips);
            exec.attempts += next.attempts;
            exec.failures.extend(next.failures);
            exec.value = next.value;
            if next.payload.is_some() {
                exec.payload = next.payload;
            }
        }
        ((exec, fault), skips)
    }

    fn map_stage(&self, run: &mut Run<'a, K>) -> Result<(), JobError> {
        let cluster = self.cluster;
        let m = self.source.num_splits();
        let (mut execs, skips): (Vec<_>, Vec<BTreeSet<usize>>) =
            run_indexed(m, cluster.host_threads, |i| self.run_map_task(i))
                .into_iter()
                .unzip();
        // Records retired by the skip protocol, as (task, record) pairs —
        // the job completes without them and reports itself degraded.
        run.record.skipped = skips
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.iter().map(move |&n| (i, n)))
            .collect();
        // Per-task facts for the clock. Split lengths are model
        // facts the source reports without materializing records. UDFs are
        // pure, so whichever attempt ends up backing the shuffle (a
        // speculative backup, a re-execution) reproduces the output facts
        // byte for byte; a task that never succeeded contributes only its
        // failures.
        let disk_bytes = |o: &MapResult<K>| o.segments.iter().map(Segment::disk_bytes).collect();
        let model = |(i, (exec, fault)): (usize, &Exec<MapResult<K>>)| {
            let output = exec.value.as_ref();
            TaskModel {
                records_in: self.source.split_len(i) as u64,
                keys_in: 0,
                records_out: output.map_or(0, |o| o.records),
                bytes: output.map_or(0, |o| o.bucket_bytes.iter().sum()),
                work: output.map_or(0, |o| o.work),
                failures: fail_kinds(exec),
                slowdown: fault.slowdown,
                spills: output.map_or_else(Vec::new, disk_bytes),
                merge: None,
                backup: None,
            }
        };
        run.record.map = execs.iter().enumerate().map(model).collect();
        (run.record.map_attempts, run.record.map_retries) = tally(&execs);
        self.strike_nodes(TaskKind::Map, &execs, run);
        let rerun = |i, attempt| self.replay_map(i, attempt, &skips[i]);
        let failed = self.settle(TaskKind::Map, &mut execs, &mut run.record, rerun);
        if let Some(index) = failed {
            return Err(self.fail(TaskKind::Map, index, execs.swap_remove(index).0, run));
        }
        run.attempts = execs.iter().map(|(exec, _)| exec.attempts).collect();
        run.outputs = winners(&mut execs);
        run.skips = skips;
        Ok(())
    }

    /// Blacklist pass: attributes the phase's failed attempts to the nodes
    /// they ran on; nodes over the strike budget leave scheduling for the
    /// rest of the job.
    fn strike_nodes<T>(&self, kind: TaskKind, execs: &[Exec<T>], run: &mut Run<'a, K>) {
        let (Some(placement), Some(policy)) = (&self.cluster.placement, &self.config.blacklist)
        else {
            return;
        };
        for (i, (exec, _)) in execs.iter().enumerate() {
            for f in &exec.failures {
                let node =
                    placement.attempt_home(&self.config.name, kind, i, f.attempt, &run.all_nodes);
                *run.strikes.entry(node).or_insert(0) += 1;
            }
        }
        run.blacklisted = over_budget(&run.strikes, policy);
        run.record.nodes_blacklisted = run.blacklisted.len() as u64;
    }

    // ---- Map-output recovery ---------------------------------------------

    /// Re-executes `tasks` — one clean attempt each, skip sets honoured —
    /// and replaces their materialized outputs wholesale (byte-identical
    /// because UDFs are pure, so the tasks' models stand). Serves the
    /// lost-partition, node-loss, and at-rest-corruption waves; the caller
    /// names the wave in the record and the timeline prices it.
    fn rerun_maps(&self, tasks: &[usize], run: &mut Run<'a, K>) {
        let (attempts, skips) = (&run.attempts, &run.skips);
        let reruns = run_indexed(tasks.len(), self.cluster.host_threads, |c| {
            let i = tasks[c];
            self.replay_map(i, attempts[i], &skips[i])
        });
        run.record.map_attempts += tasks.len() as u64;
        for (&i, result) in tasks.iter().zip(reruns) {
            run.outputs[i] = result;
        }
    }

    fn recover_map_outputs(&self, run: &mut Run<'a, K>) {
        let (cluster, config) = (self.cluster, self.config);
        // Lost shuffle partitions: the affected map tasks re-execute
        // (their inputs are replayable) in a second wave.
        let (m, r) = (self.source.num_splits(), config.num_reducers);
        run.record.lost = config.faults.lost_partitions_for(&config.name, m, r);
        let affected: BTreeSet<usize> = run.record.lost.iter().map(|&(i, _)| i).collect();
        let affected: Vec<usize> = affected.into_iter().collect();
        self.rerun_maps(&affected, run);
        run.record.map_retries += affected.len() as u64;
        run.record.recovery = affected;

        self.resolve_node_losses(run);
        // Dead and blacklisted nodes took their slots with them: whatever
        // re-executes from here on runs on what survived.
        run.record.surviving_map_slots = run.surviving_slots(cluster.map_slots);
    }

    /// Node losses are resolved against the map wave of the job's
    /// timeline: completed map outputs on a dead node are invalidated and
    /// re-execute before the shuffle can finish, in-flight attempts die
    /// and retry, and the timeline charges the heartbeat timeout plus the
    /// re-execution wave (folded into the map phase).
    fn resolve_node_losses(&self, run: &mut Run<'a, K>) {
        let (cluster, config) = (self.cluster, self.config);
        let Some(placement) = &cluster.placement else {
            return;
        };
        let losses = config.faults.node_losses_for(&config.name, cluster.nodes);
        if losses.is_empty() {
            return;
        }
        let map_wave = JobRecord::timeline(&run.record).map;
        let heartbeat = ticks_of(cluster.heartbeat_timeout);
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        for loss in &losses {
            run.dead.insert(loss.node);
            // Losses past the end of the map phase land at the shuffle
            // barrier — the moment the missing outputs are discovered.
            let at = loss.at_tick.min(map_wave.end - map_wave.start);
            let mut wasted = 0;
            for (i, p) in map_wave.slots.iter().enumerate() {
                if run.map_homes[i] != loss.node {
                    continue;
                }
                if p.end <= at {
                    // Completed: the materialized output is gone.
                    run.record.maps_reexecuted += 1;
                    affected.insert(i);
                } else if p.start < at {
                    // In-flight: the attempt dies with the node.
                    run.record.map_retries += 1;
                    wasted += at - p.start;
                    affected.insert(i);
                }
                // Pending tasks simply launch on a surviving node.
            }
            // Detection is charged once per loss, unconditionally: the
            // tracker waits out the heartbeat timeout before declaring
            // the node dead and rescheduling its work.
            run.record.node_losses.push(NodeLossEvent {
                node: loss.node,
                at_tick: at,
                detect_tick: at.saturating_add(heartbeat),
                wasted,
            });
        }
        let affected: Vec<usize> = affected.into_iter().collect();
        // Replacement outputs materialize on surviving nodes.
        let survivors = run.survivors();
        for &i in &affected {
            run.map_homes[i] = placement.task_home(&config.name, TaskKind::Map, i, &survivors);
        }
        self.rerun_maps(&affected, run);
        run.record.reexecuted = affected;
    }

    // ---- Fetch/verify ----------------------------------------------------

    /// Delivers one corrupted copy of partition `j` of a map output and
    /// requires verification to reject it; returns the partition's bytes
    /// at rest (what each failed fetch re-transfers). A frame is flipped
    /// in a scratch copy. A spill partition is flipped on disk, and the
    /// clean re-fetch is modeled by flipping the same bit back (XOR
    /// restores the byte).
    fn deliver_corrupt_copy(
        &self,
        frame: Option<&[u8]>,
        segments: &[Segment],
        j: usize,
        bit_seed: u64,
    ) -> u64 {
        if let Some(frame) = frame {
            let bit = bit_seed % (frame.len() as u64 * 8);
            let byte = (bit / 8) as usize;
            let mut bad = frame.to_vec();
            bad[byte] ^= 1 << (bit % 8);
            assert!(
                decode_pairs::<K, V>(&bad).is_err(),
                "a single-bit flip must never pass frame verification"
            );
            return frame.len() as u64;
        }
        let holds_bytes = |s: &&Segment| s.parts.get(j).is_some_and(|p| p.len > 0);
        if let Some(seg) = segments.iter().find(holds_bytes) {
            let meta = &seg.parts[j];
            #[expect(
                clippy::expect_used,
                reason = "scripted-fault machinery; a failing injection must abort the experiment loudly"
            )]
            flip_bit(&seg.path, meta.offset, meta.len, bit_seed)
                .expect("storage plane: corruption injection failed");
            #[expect(
                clippy::expect_used,
                reason = "asserts the CRC invariant the chaos test exists to prove"
            )]
            let err = verify_frames(seg, j)
                .expect_err("a flipped bit must never pass frame verification");
            let restored = flip_bit(&seg.path, meta.offset, meta.len, bit_seed);
            #[expect(
                clippy::expect_used,
                reason = "scripted-fault machinery; a failing restore must abort the experiment loudly"
            )]
            restored.expect("storage plane: corruption restore failed");
            assert!(err.is_corruption(), "flip must read as corruption: {err}");
        }
        let part_len = |s: &Segment| s.parts.get(j).map(|p| p.len);
        segments.iter().filter_map(part_len).sum()
    }

    /// The shuffle-phase integrity scan: every frame of every partition of
    /// every spill segment is checksum-verified at rest before any merge
    /// opens it — one pool task per map output, and the lowest-indexed
    /// failing (map, spill, reducer) stops the job, whatever the timing.
    fn scan_spills(&self, outputs: &[MapResult<K>]) {
        let spills: Vec<&[Segment]> = outputs.iter().map(|o| &o.segments[..]).collect();
        let scan = |i: usize| {
            for (s, seg) in spills[i].iter().enumerate() {
                for j in 0..self.config.num_reducers {
                    if let Err(e) = verify_frames(seg, j) {
                        return Some((s, j, e));
                    }
                }
            }
            None
        };
        let scanned = run_indexed(spills.len(), self.cluster.host_threads, scan);
        for (i, bad) in scanned.into_iter().enumerate() {
            if let Some((s, j, e)) = bad {
                let unit = format!("integrity scan of map {i} spill {s} partition {j}");
                storage_fault(&unit, e)
            }
        }
    }

    fn fetch(&self, run: &mut Run<'a, K>) -> Vec<ReduceInput> {
        let (cluster, config) = (self.cluster, self.config);
        let (m, r) = (self.source.num_splits(), config.num_reducers);
        // With a placement, reducers get homes too (over surviving nodes),
        // and only buckets whose producing map task is homed elsewhere
        // cross the network; without one, the closed-form remote fraction
        // applies.
        let survivors = run.survivors();
        let reducer_homes: Option<Vec<usize>> = cluster.placement.as_ref().map(|p| {
            (0..r)
                .map(|j| p.task_home(&config.name, TaskKind::Reduce, j, &survivors))
                .collect()
        });
        // Partition fetches whose frames arrive corrupted, keyed by
        // (map, reducer). One bad fetch is transient: the reducer
        // re-fetches and the second copy verifies. Two bad fetches mean
        // the materialized map output itself is rotten: the producer
        // re-executes before anything below consumes it, in a wave of its
        // own ahead of the shuffle, where the corruption was found.
        let corrupt_plan: BTreeMap<(usize, usize), CorruptFetch> = config
            .faults
            .corrupt_fetches_for(&config.name, m, r)
            .into_iter()
            .map(|c| ((c.map, c.reducer), c))
            .collect();
        let at_rest = corrupt_plan.values().filter(|c| c.fetches >= 2);
        let rotten: BTreeSet<usize> = at_rest.map(|c| c.map).collect();
        let rotten: Vec<usize> = rotten.into_iter().collect();
        self.rerun_maps(&rotten, run);
        run.record.map_retries += rotten.len() as u64;
        run.record.rotten = rotten;

        let mut remote_per_node = vec![0u64; run.all_nodes.len()];
        let mut per_reducer_bytes = vec![0u64; r];
        let mut inputs: Vec<ReduceInput> = (0..r).map(|_| ReduceInput::default()).collect();
        // Debug builds fold the mapper-side per-key tallies so the shuffle
        // can be checked as an exact partition of the map output below.
        let mut emitted: BTreeMap<K, u64> = BTreeMap::new();
        let mut produced = 0u64;
        let mut refetch_bytes = 0u64;
        for (i, result) in run.outputs.iter_mut().enumerate() {
            produced += result.records;
            for (k, n) in std::mem::take(&mut result.emitted) {
                *emitted.entry(k).or_insert(0) += n;
            }
            let mut tail = std::mem::take(&mut result.tail).into_iter();
            for (j, input) in inputs.iter_mut().enumerate() {
                per_reducer_bytes[j] += result.bucket_bytes[j];
                if let Some(homes) = &reducer_homes {
                    if run.map_homes[i] != homes[j] {
                        remote_per_node[homes[j]] += result.bucket_bytes[j];
                    }
                }
                // Every partition crosses the shuffle boundary as
                // checksummed bytes: the unspilled tail as the frame its
                // map attempt encoded (fetch only moves it), so the codec
                // is load-bearing even when nothing spills.
                let frame = tail.next().map(|(frame, records)| {
                    input.records += records;
                    frame
                });
                if let Some(c) = corrupt_plan.get(&(i, j)) {
                    // At-rest corruption (two bad fetches) already
                    // escalated to re-executing the producer above, so the
                    // bytes in hand are clean either way.
                    let failed = c.fetches.min(2);
                    let segments = &result.segments;
                    let at_rest =
                        self.deliver_corrupt_copy(frame.as_deref(), segments, j, c.bit_seed);
                    refetch_bytes += at_rest * u64::from(failed);
                    run.record.corrupt.push(CorruptEvent {
                        map: i,
                        reducer: j,
                        fetches: failed,
                        reexecuted: c.fetches >= 2,
                    });
                }
                for seg in &result.segments {
                    if let Some(p) = seg.parts.get(j).filter(|p| p.records > 0) {
                        input.records += p.records;
                        input.parts.push(Fetched::Spill {
                            segment: seg.clone(),
                            part: j,
                        });
                    }
                }
                input.parts.extend(frame.map(Fetched::Frame));
            }
        }
        let outputs = std::mem::take(&mut run.outputs);
        if self.spill.is_some() {
            self.scan_spills(&outputs);
            let disk_len = |p: &Fetched| match p {
                Fetched::Spill { segment, part } => segment.parts.get(*part).map(|m| m.len),
                Fetched::Frame(_) => None,
            };
            for input in &mut inputs {
                let run_bytes: Vec<u64> = input.parts.iter().filter_map(disk_len).collect();
                input.merge = Some(cascade_stats(&run_bytes, cluster.storage.merge_fan_in));
            }
        }
        if cfg!(debug_assertions) {
            let runs: Vec<Vec<RunSource<K, V>>> = inputs.iter().map(ReduceInput::open).collect();
            crate::analysis::assert_shuffle_invariants(&emitted, produced, runs);
        }

        // Transient node partitions stall the shuffle barrier for their
        // duration (model ticks). Corrupted fetches charge the same way:
        // each failed fetch re-transfers its whole partition (always
        // remote — the local copy is the bad one).
        let stalls = match &cluster.placement {
            Some(_) => config
                .faults
                .node_partitions_for(&config.name, cluster.nodes),
            None => Vec::new(),
        };
        let partition_stall = Duration::from_micros(stalls.iter().map(|p| p.for_ticks).sum());
        let refetch_stall =
            Duration::from_secs_f64(refetch_bytes as f64 / cluster.network_bytes_per_sec);
        let transfer = match reducer_homes {
            Some(_) => self.cluster.shuffle_time_placed(&remote_per_node),
            None => self.cluster.shuffle_time(&per_reducer_bytes),
        };
        run.record.shuffle_time = transfer + partition_stall + refetch_stall;
        run.record.per_reducer_bytes = per_reducer_bytes;
        inputs
    }

    // ---- Reduce ----------------------------------------------------------

    /// Distinct keys in a reducer's input. Free once any attempt has
    /// streamed every group; before that (an injected mid-task crash
    /// needs the midpoint up front, an abort reports the figure without a
    /// finished attempt) one counting pass over the runs supplies it.
    fn keys_in(&self, input: &ReduceInput) -> u64 {
        *input.keys.get_or_init(|| {
            let mut merge = KWayMerge::<K, V>::open(input.open())
                .unwrap_or_else(|e| storage_fault("opening runs to count keys", e));
            let mut keys = 0u64;
            while let Some(_group) = merge
                .next_group()
                .unwrap_or_else(|e| storage_fault("counting merge", e))
            {
                keys += 1;
            }
            keys
        })
    }

    /// The one reduce-attempt body: open the reducer's runs, merge them
    /// (cascading through disk first when more spill runs than the fan-in
    /// are open), and stream `(key, values)` groups through the UDF in
    /// key order, values in run priority order.
    fn reduce_attempt(
        &self,
        j: usize,
        input: &ReduceInput,
        attempt: u32,
        inject: Inject,
    ) -> ReduceResult<Out> {
        let ctx = self.task_context(j, self.config.num_reducers, attempt);
        let mut task = self.reduce_factory.create(&ctx);
        let mut out = OutputCollector::new();
        let crash = || -> ! {
            crate::pool::raise_injected_panic(format!(
                "[fault-injection] reduce task {j} attempt {attempt} crashed mid-task"
            ))
        };
        // An injected mid-task crash fires halfway through the key groups.
        let crash_at = match inject {
            Inject::MidTaskPanic => Some(self.keys_in(input) / 2),
            Inject::None => None,
        };
        if crash_at.is_some() && self.keys_in(input) == 0 {
            crash();
        }
        let storage = &self.cluster.storage;
        let mut merge = match &self.spill {
            // Disk runs exist only under a budget, and so does the session
            // their cascade writes into; memory runs never cascade.
            Some(session) => external_merge(
                session,
                j,
                input.open(),
                storage.merge_fan_in,
                storage.io_chunk,
            )
            .map(|(merge, ran)| {
                // What fetch priced is what ran (under a budget every run
                // is a disk run: the map tail spills too).
                let facts = |m: MergeStats| (m.runs, m.passes, m.seeks);
                debug_assert_eq!(input.merge.map(facts), Some(facts(ran)));
                merge
            }),
            None => KWayMerge::open(input.open()),
        }
        .unwrap_or_else(|e| storage_fault("external merge", e));
        let mut keys = 0u64;
        while let Some((k, vs)) = merge
            .next_group()
            .unwrap_or_else(|e| storage_fault("merge read", e))
        {
            if crash_at == Some(keys) {
                crash();
            }
            keys += 1;
            task.reduce(k, vs, &mut out);
        }
        let counted = *input.keys.get_or_init(|| keys);
        debug_assert_eq!(
            counted, keys,
            "reducer {j}: counted and streamed groups disagree"
        );
        task.finish(&mut out);
        let (records, work) = out.into_parts();
        ReduceResult {
            records,
            work,
            counters: ctx.counters,
        }
    }

    fn reduce_stage(
        &self,
        inputs: &[ReduceInput],
        run: &mut Run<'a, K>,
    ) -> Result<Vec<Vec<Out>>, JobError> {
        let (cluster, config) = (self.cluster, self.config);
        let r = config.num_reducers;
        let mut execs: Vec<Exec<ReduceResult<Out>>> = run_indexed(r, cluster.host_threads, |j| {
            let fault = config.faults.task_fault(&config.name, TaskKind::Reduce, j);
            let exec = run_attempts(
                &fault,
                &config.retry,
                cluster.progress_timeout,
                |attempt, inject| self.reduce_attempt(j, &inputs[j], attempt, inject),
            );
            (exec, fault)
        });

        let model = |j: usize| {
            let ((exec, fault), input) = (&execs[j], &inputs[j]);
            let output = exec.value.as_ref();
            TaskModel {
                records_in: input.records,
                keys_in: self.keys_in(input),
                records_out: output.map_or(0, |o| o.records.len() as u64),
                bytes: run.record.per_reducer_bytes[j],
                work: output.map_or(0, |o| o.work),
                failures: fail_kinds(exec),
                slowdown: fault.slowdown,
                spills: Vec::new(),
                // The external-merge cascade's disk traffic: a closed-form
                // cost every attempt of the reducer incurs identically.
                merge: input.merge,
                backup: None,
            }
        };
        run.record.reduce = (0..r).map(model).collect();
        (run.record.reduce_attempts, run.record.reduce_retries) = tally(&execs);
        // Dead and blacklisted nodes took their slots with them: the
        // reduce phase runs on what survived the map side. (This phase's
        // own strikes only reach the final blacklist count.)
        run.record.surviving_reduce_slots = run.surviving_slots(cluster.reduce_slots);
        self.strike_nodes(TaskKind::Reduce, &execs, run);
        let rerun = |j, attempt| self.reduce_attempt(j, &inputs[j], attempt, Inject::None);
        let failed = self.settle(TaskKind::Reduce, &mut execs, &mut run.record, rerun);
        if let Some(index) = failed {
            return Err(self.fail(TaskKind::Reduce, index, execs.swap_remove(index).0, run));
        }
        let records = |result: ReduceResult<Out>| result.records;
        Ok(winners(&mut execs).into_iter().map(records).collect())
    }

    // ---- Commit ----------------------------------------------------------

    /// The one place a [`JobMetrics`] is built, for the success exit and
    /// both abort exits alike: lays the record out on its timeline and
    /// reads every simulated time off it, derives the registry from the
    /// record, and reads the countable fields off the registry (they are a
    /// facade over its counters), so an abort reports every fact the
    /// stages before it established.
    fn close(&self, run: &mut Run<'a, K>) -> (MetricsRegistry, JobMetrics) {
        let record = &mut run.record;
        record.user_counters = self.counters.snapshot().into_iter().collect();
        let timeline = JobRecord::timeline(record);
        let registry = JobRecord::build_registry(record);
        let durations = |tasks: &[TaskModel]| -> Vec<Duration> {
            let held = |t| from_ticks(record.slot_ticks(t));
            tasks.iter().map(held).collect()
        };
        let metrics = JobMetrics {
            name: self.config.name.clone(),
            map_tasks: self.source.num_splits(),
            reduce_tasks: self.config.num_reducers,
            map_phase: from_ticks(timeline.map_phase()),
            reduce_phase: from_ticks(timeline.reduce.span()),
            shuffle_bytes: registry.counter("shuffle.bytes"),
            per_reducer_bytes: record.per_reducer_bytes.clone(),
            shuffle_time: from_ticks(timeline.shuffle_phase()),
            cache_bytes: record.cache_bytes,
            broadcast_time: from_ticks(timeline.broadcast),
            startup_time: from_ticks(timeline.startup),
            sim_runtime: from_ticks(timeline.total()),
            host_wall: self.started.elapsed(),
            map_output_records: registry.counter("map.records_out"),
            reduce_input_keys: registry.counter("reduce.input_keys"),
            output_records: registry.counter("reduce.records_out"),
            map_retries: registry.counter("map.retries"),
            reduce_retries: registry.counter("reduce.retries"),
            attempts: registry.counter("task.attempts"),
            wasted_task_time: from_ticks(timeline.wasted),
            speculative_wins: registry.counter("task.speculative_wins"),
            backoff_time: from_ticks(timeline.backoff),
            nodes_lost: registry.counter("node.lost"),
            maps_reexecuted: registry.counter("map.reexecuted"),
            reexecution_time: from_ticks(timeline.reexecution()),
            nodes_blacklisted: registry.counter("node.blacklisted"),
            corrupt_fetches: registry.counter("shuffle.corrupt_fetches"),
            records_skipped: registry.counter("map.records_skipped"),
            spill_files: registry.counter("storage.spill_files"),
            spilled_bytes: registry.counter("storage.spilled_bytes"),
            merge_passes: registry.counter("storage.merge_passes"),
            degraded: registry.counter("map.records_skipped") > 0,
            map_task_durations: durations(&record.map),
            reduce_task_durations: durations(&record.reduce),
            // Scheduling charges belong to the executor a job ran under,
            // not to the job itself; `sched::ClusterExecutor` fills them in.
            queue_wait_time: Duration::ZERO,
            preemptions: 0,
        };
        (registry, metrics)
    }

    /// The abort exit: task `index` of phase `task` exhausted its budget.
    fn fail<T>(
        &self,
        task: TaskKind,
        index: usize,
        exec: TaskExecution<T>,
        run: &mut Run<'a, K>,
    ) -> JobError {
        JobError {
            job: self.config.name.clone(),
            task,
            index,
            attempts: exec.attempts,
            history: exec.failures,
            counters: self.counters.clone(),
            metrics: Box::new(self.close(run).1),
            payload: exec.payload,
        }
    }

    /// The success exit: the registry is built either way; the span
    /// timeline is emitted only if a collector is attached.
    fn commit(&self, mut run: Run<'a, K>, outputs: Vec<Vec<Out>>) -> JobOutcome<Out> {
        let (registry, metrics) = self.close(&mut run);
        if let Some(collector) = &self.config.collector {
            let drawn = JobRecord::emit(&run.record, collector, registry.clone());
            debug_assert_eq!(
                drawn,
                ticks_of(metrics.sim_runtime),
                "the trace and the metrics disagree about the job's length"
            );
        }
        JobOutcome {
            outputs,
            metrics,
            counters: self.counters.clone(),
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::partitioner::{HashPartitioner, ModuloPartitioner};
    use crate::task::{map_fn, reduce_fn};

    /// Word-count: the canonical MapReduce smoke test.
    struct WcMap;
    struct WcMapTask;
    impl MapTask for WcMapTask {
        type In = String;
        type K = String;
        type V = u64;
        fn map(&mut self, input: &String, out: &mut Emitter<String, u64>) {
            for word in input.split_whitespace() {
                out.emit(word.to_owned(), 1);
            }
        }
    }
    impl MapFactory for WcMap {
        type Task = WcMapTask;
        fn create(&self, _ctx: &TaskContext) -> WcMapTask {
            WcMapTask
        }
    }

    /// Sums each word's counts, tallies every group it is handed in the
    /// `wc.groups` counter, and charges one unit of work per value.
    struct WcReduce;
    struct WcReduceTask {
        counters: Counters,
    }
    impl ReduceTask for WcReduceTask {
        type K = String;
        type V = u64;
        type Out = (String, u64);
        fn reduce(
            &mut self,
            key: String,
            values: Vec<u64>,
            out: &mut OutputCollector<(String, u64)>,
        ) {
            self.counters.add("wc.groups", 1);
            out.charge(values.len() as u64);
            out.collect((key, values.iter().sum()));
        }
    }
    impl ReduceFactory for WcReduce {
        type Task = WcReduceTask;
        fn create(&self, ctx: &TaskContext) -> WcReduceTask {
            WcReduceTask {
                counters: ctx.counters.clone(),
            }
        }
    }

    fn word_count_config(
        splits: &[Vec<String>],
        config: &JobConfig,
    ) -> Result<JobOutcome<(String, u64)>, JobError> {
        let cluster = ClusterConfig::test();
        run_job(
            &cluster,
            config,
            splits,
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
    }

    fn word_count(
        splits: &[Vec<String>],
        reducers: usize,
        faults: FaultPlan,
    ) -> JobOutcome<(String, u64)> {
        let config = JobConfig::new("wc", reducers).with_faults(faults);
        word_count_config(splits, &config).expect("word count must not abort")
    }

    fn splits() -> Vec<Vec<String>> {
        vec![
            vec!["a b a".into(), "c".into()],
            vec!["b b".into()],
            vec!["a c".into()],
        ]
    }

    fn sorted_counts(outcome: JobOutcome<(String, u64)>) -> Vec<(String, u64)> {
        let mut v = outcome.into_flat_output();
        v.sort();
        v
    }

    fn expected_counts() -> Vec<(String, u64)> {
        vec![
            ("a".to_string(), 3),
            ("b".to_string(), 3),
            ("c".to_string(), 2),
        ]
    }

    #[test]
    fn word_count_single_reducer() {
        let out = word_count(&splits(), 1, FaultPlan::none());
        assert_eq!(out.metrics.map_tasks, 3);
        assert_eq!(out.metrics.reduce_tasks, 1);
        assert_eq!(out.metrics.map_output_records, 8);
        assert_eq!(out.metrics.attempts, 4, "3 map + 1 reduce attempts");
        assert_eq!(out.metrics.wasted_task_time, Duration::ZERO);
        assert_eq!(out.metrics.backoff_time, Duration::ZERO);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn word_count_multiple_reducers_same_answer() {
        for r in [2, 3, 7] {
            let out = word_count(&splits(), r, FaultPlan::none());
            assert_eq!(
                sorted_counts(out),
                expected_counts(),
                "wrong counts with {r} reducers"
            );
        }
    }

    #[test]
    fn shuffle_bytes_are_positive_and_distributed() {
        let out = word_count(&splits(), 2, FaultPlan::none());
        assert!(out.metrics.shuffle_bytes > 0);
        assert_eq!(out.metrics.per_reducer_bytes.len(), 2);
        assert_eq!(
            out.metrics.per_reducer_bytes.iter().sum::<u64>(),
            out.metrics.shuffle_bytes
        );
    }

    #[test]
    fn map_failures_are_retried_without_changing_output() {
        let out = word_count(&splits(), 2, FaultPlan::fail_maps([0, 2]));
        assert_eq!(out.metrics.map_retries, 2);
        assert_eq!(out.metrics.reduce_retries, 0);
        assert_eq!(out.metrics.attempts, 7, "5 map + 2 reduce attempts");
        assert!(out.metrics.wasted_task_time > Duration::ZERO);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn reduce_failures_are_retried_without_changing_output() {
        let out = word_count(&splits(), 3, FaultPlan::fail_reduces([1]));
        assert_eq!(out.metrics.reduce_retries, 1);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn repeated_failures_of_one_task_are_survived() {
        let plan = FaultPlan::none().with_map_fault(1, TaskFault::lost(3));
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.map_retries, 3);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn mid_task_panics_are_caught_and_retried() {
        let plan = FaultPlan::none()
            .with_map_fault(0, TaskFault::panics(2))
            .with_reduce_fault(0, TaskFault::panics(1));
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.map_retries, 2);
        assert_eq!(out.metrics.reduce_retries, 1);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    /// Regression test for the pre-fault-layer accounting bug: the failed
    /// attempt's duration used to be discarded (`let _lost = ...`), so a
    /// retried job could report the same phase time as a clean one. Lost
    /// attempts and backoff are now charged to the simulated clock.
    #[test]
    fn failed_attempts_are_charged_to_the_simulated_clock() {
        let clean = word_count(&splits(), 2, FaultPlan::none());
        let faulty = word_count(&splits(), 2, FaultPlan::fail_maps([0, 1, 2]));
        assert!(
            faulty.metrics.sim_runtime >= clean.metrics.sim_runtime,
            "lost attempts must not make the job faster: {:?} < {:?}",
            faulty.metrics.sim_runtime,
            clean.metrics.sim_runtime
        );
        assert!(faulty.metrics.backoff_time > Duration::ZERO);
        assert!(faulty.metrics.wasted_task_time > Duration::ZERO);
        // Every map task waited out one 100 ms backoff before its retry, so
        // the phase is strictly dominated by it (clean tasks take µs here).
        assert!(faulty.metrics.map_phase >= Duration::from_millis(100));
        assert!(faulty.metrics.sim_runtime > clean.metrics.sim_runtime);
    }

    #[test]
    fn straggler_slowdown_stretches_the_phase() {
        let clean = word_count(&splits(), 2, FaultPlan::none());
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::straggler(50.0));
        let slow = word_count(&splits(), 2, plan);
        assert!(
            slow.metrics.map_phase > clean.metrics.map_phase,
            "a 50x straggler must dominate the map makespan"
        );
        assert_eq!(sorted_counts(slow), expected_counts());
    }

    #[test]
    fn speculation_rescues_a_straggler() {
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::straggler(1000.0));
        let config = JobConfig::new("wc", 2)
            .with_faults(plan.clone())
            .with_speculation(SpeculationPolicy::new());
        let speculative = word_count_config(&splits(), &config).expect("job must succeed");
        let plain = word_count(&splits(), 2, plan);
        assert_eq!(speculative.metrics.speculative_wins, 1);
        assert!(speculative.metrics.wasted_task_time > Duration::ZERO);
        assert!(
            speculative.metrics.map_phase < plain.metrics.map_phase,
            "the backup must beat a 1000x straggler"
        );
        assert_eq!(sorted_counts(speculative), expected_counts());
    }

    /// The countable `JobMetrics` fields are a facade over the registry.
    #[test]
    fn registry_backs_the_job_metrics_facade() {
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::lost(2));
        let out = word_count(&splits(), 2, plan);
        let reg = &out.registry;
        assert_eq!(
            reg.counter("map.records_out"),
            out.metrics.map_output_records
        );
        assert_eq!(
            reg.counter("reduce.input_keys"),
            out.metrics.reduce_input_keys
        );
        assert_eq!(
            reg.counter("reduce.records_out"),
            out.metrics.output_records
        );
        assert_eq!(reg.counter("map.retries"), out.metrics.map_retries);
        assert_eq!(reg.counter("task.attempts"), out.metrics.attempts);
        assert_eq!(reg.counter("map.failures.lost_output"), 2);
        let (hist_count, _) = reg
            .histogram("map.task_ticks")
            .map(|h| (h.count(), h.sum()))
            .expect("map task histogram present");
        assert_eq!(hist_count, 3, "one histogram sample per map task");
        assert_eq!(
            reg.gauge("cluster.map_slots"),
            Some(i64::try_from(ClusterConfig::test().map_slots).expect("slots fit"))
        );
    }

    /// With a collector attached, the job emits a span timeline whose
    /// exported bytes are identical run to run.
    #[test]
    fn collector_receives_spans_for_every_task() {
        let render = || {
            let collector = Collector::new();
            let config = JobConfig::new("wc", 2).with_collector(Some(collector.clone()));
            word_count_config(&splits(), &config).expect("job must succeed");
            skymr_telemetry::export::chrome_trace(&collector.finish())
        };
        let trace = render();
        // (No shuffle spans here: the test cluster's shuffle of a few
        // dozen bytes rounds to zero model ticks.)
        for needle in [
            "\"map[0]\"",
            "\"map[1]\"",
            "\"map[2]\"",
            "\"reduce[0]\"",
            "\"reduce[1]\"",
        ] {
            assert!(trace.contains(needle), "trace must contain {needle}");
        }
        assert_eq!(trace, render(), "trace bytes must be reproducible");
    }

    /// Reduce-side mirror of [`speculation_rescues_a_straggler`]: a backup
    /// attempt beats a straggling reducer, and the *losing* attempt's time
    /// is charged to `wasted_task_time` rather than discarded.
    #[test]
    fn reduce_speculation_charges_the_losing_attempt_as_waste() {
        // Three reducers so the phase median is an un-faulted task (with
        // two, the median *is* the straggler and nothing speculates).
        let plan = FaultPlan::none().with_reduce_fault(0, TaskFault::straggler(1000.0));
        let config = JobConfig::new("wc", 3)
            .with_faults(plan.clone())
            .with_speculation(SpeculationPolicy::new());
        let speculative = word_count_config(&splits(), &config).expect("job must succeed");
        let plain = word_count(&splits(), 3, plan);
        assert_eq!(speculative.registry.counter("map.speculative_wins"), 0);
        assert_eq!(speculative.registry.counter("reduce.speculative_wins"), 1);
        assert_eq!(speculative.metrics.speculative_wins, 1);
        assert!(
            speculative.metrics.wasted_task_time > Duration::ZERO,
            "the losing reduce attempt's time must be charged as waste"
        );
        assert!(
            speculative.metrics.reduce_phase < plain.metrics.reduce_phase,
            "the backup must beat a 1000x straggling reducer"
        );
        assert_eq!(sorted_counts(speculative), expected_counts());
    }

    #[test]
    fn lost_partitions_are_regenerated() {
        let plan = FaultPlan::none()
            .with_lost_partition(0, 0)
            .with_lost_partition(2, 1);
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.map_retries, 2, "two map tasks re-executed");
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn broadcast_failures_multiply_the_broadcast_charge() {
        let mut cluster = ClusterConfig::test();
        cluster.nodes = 4;
        cluster.network_bytes_per_sec = 1e6;
        let base = JobConfig::new("wc", 1).with_cache_bytes(1_000_000);
        let clean = run_job(
            &cluster,
            &base,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("clean run");
        let flaky = base.with_faults(FaultPlan::none().with_broadcast_failures(2));
        let retried = run_job(
            &cluster,
            &flaky,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("retried run");
        assert_eq!(
            retried.metrics.broadcast_time,
            clean.metrics.broadcast_time * 3
        );
        assert!(retried.metrics.sim_runtime > clean.metrics.sim_runtime);
    }

    #[test]
    fn exhausted_map_retries_return_structured_error() {
        let plan = FaultPlan::none().with_map_fault(
            1,
            TaskFault {
                failures: u32::MAX,
                kind: FaultKind::MidTaskPanic,
                slowdown: 1.0,
            },
        );
        let config = JobConfig::new("wc", 2)
            .with_faults(plan)
            .with_retry(RetryPolicy::new().with_max_attempts(3));
        let err = word_count_config(&splits(), &config).expect_err("job must abort");
        assert_eq!(err.task, TaskKind::Map);
        assert_eq!(err.index, 1);
        assert_eq!(err.attempts, 3);
        assert_eq!(err.history.len(), 3, "full attempt history");
        assert!(err.died_panicking());
        assert!(err.to_string().contains("map task 1"));
        // Partial metrics still account for the doomed task's attempts.
        assert!(err.metrics.attempts >= 3);
        assert!(err.metrics.sim_runtime > Duration::ZERO);
    }

    #[test]
    fn exhausted_reduce_retries_return_structured_error() {
        let plan = FaultPlan::none().with_reduce_fault(0, TaskFault::lost(u32::MAX));
        let config = JobConfig::new("wc", 1)
            .with_faults(plan)
            .with_retry(RetryPolicy::new().with_max_attempts(2));
        let err = word_count_config(&splits(), &config).expect_err("job must abort");
        assert_eq!(err.task, TaskKind::Reduce);
        assert_eq!(err.index, 0);
        assert_eq!(err.attempts, 2);
        assert!(!err.died_panicking(), "lost output is not a panic");
        // The map phase completed; its metrics survive in the error.
        assert_eq!(err.metrics.map_tasks, 3);
        assert!(err.metrics.map_phase > Duration::ZERO);
        assert!(err.metrics.shuffle_bytes > 0);
    }

    /// A genuine (uninjected) reduce-side panic gets the whole retry budget
    /// whether or not speculation is on, as map tasks always have: every
    /// attempt re-opens its input from bytes.
    #[test]
    fn genuine_reduce_panic_is_retried_with_speculation_off() {
        struct FlakyReduce;
        impl ReduceFactory for FlakyReduce {
            type Task = WcReduceTask;
            fn create(&self, ctx: &TaskContext) -> WcReduceTask {
                assert!(ctx.attempt > 0, "every reducer's first attempt is broken");
                WcReduce.create(ctx)
            }
        }
        let cluster = ClusterConfig::test();
        let config = JobConfig::new("wc", 2);
        assert!(config.speculation.is_none());
        let (splits, map) = (splits(), &WcMap);
        let flaky = run_job(
            &cluster,
            &config,
            &splits,
            map,
            &FlakyReduce,
            &HashPartitioner,
        )
        .expect("the second attempt completes");
        let clean = word_count(&splits, 2, FaultPlan::none());
        assert_eq!(flaky.metrics.reduce_retries, 2, "one retry per reducer");
        assert_eq!(flaky.counters.snapshot(), clean.counters.snapshot());
        assert_eq!(sorted_counts(flaky), sorted_counts(clean));
    }

    /// A genuinely broken UDF (panics on every attempt, nothing injected)
    /// becomes a structured error once the budget is gone — the original
    /// payload stays available for callers that want to re-raise it.
    #[test]
    fn genuine_udf_panic_exhausts_budget_then_surfaces_payload() {
        struct BadMap;
        struct BadMapTask;
        impl MapTask for BadMapTask {
            type In = u32;
            type K = u32;
            type V = u32;
            fn map(&mut self, input: &u32, _out: &mut Emitter<u32, u32>) {
                if *input == 3 {
                    panic!("record 3 is poison");
                }
            }
        }
        impl MapFactory for BadMap {
            type Task = BadMapTask;
            fn create(&self, _: &TaskContext) -> BadMapTask {
                BadMapTask
            }
        }
        let splits: Vec<Vec<u32>> = vec![vec![1, 2], vec![3, 4]];
        let cluster = ClusterConfig::test();
        let config = JobConfig::new("bad", 1).with_retry(RetryPolicy::new().with_max_attempts(2));
        let err = run_job(
            &cluster,
            &config,
            &splits,
            &BadMap,
            &WcReduceLike,
            &ModuloPartitioner,
        )
        .expect_err("poison record must abort the job");
        assert_eq!((err.task, err.index, err.attempts), (TaskKind::Map, 1, 2));
        assert!(err.last_cause().contains("record 3 is poison"));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| err.resume_panic()))
            .expect_err("resume_panic re-raises");
        assert_eq!(
            unwound.downcast_ref::<&str>().copied(),
            Some("record 3 is poison")
        );
    }

    #[test]
    fn seeded_chaos_does_not_change_the_output() {
        let clean = sorted_counts(word_count(&splits(), 2, FaultPlan::none()));
        for seed in 0..8 {
            let out = word_count(&splits(), 2, FaultPlan::seeded(seed));
            assert_eq!(sorted_counts(out), clean, "seed {seed} changed the output");
        }
    }

    /// A closure-built job is the trait-built job: the word count written
    /// with `map_fn` and a closure factory returning a `reduce_fn` reports
    /// what `WcMap` / `WcReduce` report — output, registry, user counters,
    /// every metric but `host_wall`, and the Chrome-trace bytes — clean and
    /// under a seeded fault plan, in memory and spilling under 1 KiB, on one
    /// host thread and on four.
    #[test]
    fn closure_built_word_count_equals_the_struct_quads() {
        let map = map_fn(|line: &String, out: &mut Emitter<String, u64>| {
            for word in line.split_whitespace() {
                out.emit(word.to_owned(), 1);
            }
        });
        let reduce = |ctx: &TaskContext| {
            let counters = ctx.counters.clone();
            reduce_fn(move |key: String, values: Vec<u64>, out| {
                counters.add("wc.groups", 1);
                out.charge(values.len() as u64);
                out.collect((key, values.iter().sum::<u64>()));
            })
        };
        let mut reports = Vec::new();
        for plan in [FaultPlan::none(), FaultPlan::seeded(0x5EED)] {
            for (budget, host_threads) in [(None, 1), (None, 4), (Some(1024), 1), (Some(1024), 4)] {
                let mut cluster = ClusterConfig::test();
                (cluster.storage.memory_budget, cluster.host_threads) = (budget, host_threads);
                let run = |closures: bool| {
                    let collector = Collector::new();
                    let config = JobConfig::new("wc", 3)
                        .with_faults(plan.clone())
                        .with_collector(Some(collector.clone()));
                    let outcome = match closures {
                        true => run_job(
                            &cluster,
                            &config,
                            &splits(),
                            &map,
                            &reduce,
                            &HashPartitioner,
                        ),
                        false => run_job(
                            &cluster,
                            &config,
                            &splits(),
                            &WcMap,
                            &WcReduce,
                            &HashPartitioner,
                        ),
                    }
                    .expect("the word count survives its plan");
                    let mut metrics = outcome.metrics.clone();
                    metrics.host_wall = Duration::ZERO;
                    let trace = skymr_telemetry::export::chrome_trace(&collector.finish());
                    let facts = (format!("{metrics:?}"), outcome.registry.clone(), trace);
                    (
                        facts,
                        outcome.counters.snapshot(),
                        outcome.into_flat_output(),
                    )
                };
                let (closures, structs) = (run(true), run(false));
                assert_eq!(
                    closures, structs,
                    "{budget:?} budget, {host_threads} thread(s)"
                );
                reports.push(closures.0);
            }
        }
        assert_ne!(reports[0], reports[4], "the seeded plan injected nothing");
    }

    #[test]
    fn sim_runtime_includes_all_components() {
        let out = word_count(&splits(), 1, FaultPlan::none());
        let m = &out.metrics;
        assert_eq!(
            m.sim_runtime,
            m.startup_time + m.broadcast_time + m.map_phase + m.shuffle_time + m.reduce_phase
        );
        assert!(m.map_phase > Duration::ZERO);
    }

    #[test]
    fn cache_bytes_charge_broadcast() {
        let cluster = ClusterConfig::test();
        let config = JobConfig::new("wc", 1).with_cache_bytes(1_000_000);
        let out = run_job(
            &cluster,
            &config,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("job must succeed");
        assert_eq!(out.metrics.cache_bytes, 1_000_000);
        assert!(out.metrics.broadcast_time > Duration::ZERO);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let empty: Vec<Vec<String>> = vec![vec![], vec![]];
        let out = word_count(&empty, 2, FaultPlan::none());
        assert_eq!(out.metrics.map_output_records, 0);
        assert!(out.into_flat_output().is_empty());
    }

    #[test]
    fn combiner_cuts_shuffle_without_changing_results() {
        use crate::combiner::FoldCombiner;
        let cluster = ClusterConfig::test();
        let config = JobConfig::new("wc", 2);
        let plain = run_job(
            &cluster,
            &config,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("plain run");
        let combined = run_job_with_combiner_from(
            &cluster,
            &config,
            &SliceSplits::new(&splits()),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
            &FoldCombiner::new(|a: u64, b: u64| a + b),
        )
        .expect("combined run");
        // Split 0 holds "a b a" + "c": the duplicate 'a' combines away.
        assert!(combined.metrics.map_output_records < plain.metrics.map_output_records);
        assert!(combined.metrics.shuffle_bytes < plain.metrics.shuffle_bytes);
        let mut a = plain.into_flat_output();
        let mut b = combined.into_flat_output();
        a.sort();
        b.sort();
        assert_eq!(a, b, "combiner changed the job result");
    }

    #[test]
    fn keys_arrive_sorted_at_reducers() {
        struct OrderMap;
        struct OrderMapTask;
        impl MapTask for OrderMapTask {
            type In = u32;
            type K = u32;
            type V = u32;
            fn map(&mut self, input: &u32, out: &mut Emitter<u32, u32>) {
                out.emit(*input, *input);
            }
        }
        impl MapFactory for OrderMap {
            type Task = OrderMapTask;
            fn create(&self, _: &TaskContext) -> OrderMapTask {
                OrderMapTask
            }
        }
        struct OrderReduce;
        struct OrderReduceTask {
            last: Option<u32>,
        }
        impl ReduceTask for OrderReduceTask {
            type K = u32;
            type V = u32;
            type Out = u32;
            fn reduce(&mut self, key: u32, _values: Vec<u32>, out: &mut OutputCollector<u32>) {
                if let Some(last) = self.last {
                    assert!(key > last, "keys not sorted: {key} after {last}");
                }
                self.last = Some(key);
                out.collect(key);
            }
        }
        impl ReduceFactory for OrderReduce {
            type Task = OrderReduceTask;
            fn create(&self, _: &TaskContext) -> OrderReduceTask {
                OrderReduceTask { last: None }
            }
        }
        let splits: Vec<Vec<u32>> = vec![vec![5, 3, 9], vec![1, 7, 3]];
        let cluster = ClusterConfig::test();
        let out = run_job(
            &cluster,
            &JobConfig::new("order", 2),
            &splits,
            &OrderMap,
            &OrderReduce,
            &ModuloPartitioner,
        )
        .expect("job must succeed");
        let mut keys = out.into_flat_output();
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn counters_flow_from_tasks_to_outcome() {
        struct CountingMap;
        struct CountingMapTask {
            counters: Counters,
        }
        impl MapTask for CountingMapTask {
            type In = u32;
            type K = u32;
            type V = u32;
            fn map(&mut self, input: &u32, out: &mut Emitter<u32, u32>) {
                self.counters.add("records", 1);
                out.emit(*input % 2, *input);
            }
        }
        impl MapFactory for CountingMap {
            type Task = CountingMapTask;
            fn create(&self, ctx: &TaskContext) -> CountingMapTask {
                CountingMapTask {
                    counters: ctx.counters.clone(),
                }
            }
        }
        let splits: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![4, 5]];
        let cluster = ClusterConfig::test();
        let out = run_job(
            &cluster,
            &JobConfig::new("count", 1),
            &splits,
            &CountingMap,
            &WcReduceLike,
            &ModuloPartitioner,
        )
        .expect("job must succeed");
        assert_eq!(out.counters.get("records"), 5);
    }

    fn word_count_on(
        cluster: &ClusterConfig,
        config: &JobConfig,
    ) -> Result<JobOutcome<(String, u64)>, JobError> {
        run_job(
            cluster,
            config,
            &splits(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        )
    }

    #[test]
    fn transient_corruption_is_detected_refetched_and_output_preserving() {
        // A link slow enough that one frame takes whole ticks to re-fetch.
        let mut cluster = ClusterConfig::test();
        cluster.network_bytes_per_sec = 1e6;
        let run = |plan| word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan));
        let clean = run(FaultPlan::none()).expect("clean run");
        let plan = FaultPlan::none().with_corrupt_shuffle(0, 0, 1);
        let out = run(plan).expect("re-fetch recovers");
        assert_eq!(
            out.metrics.corrupt_fetches, 1,
            "one bad fetch, one re-fetch"
        );
        assert_eq!(out.registry.counter("shuffle.corrupt_partitions"), 1);
        assert_eq!(out.registry.counter("shuffle.corrupt_fetches"), 1);
        assert!(
            out.metrics.shuffle_time > clean.metrics.shuffle_time,
            "the re-fetched frame must cost shuffle time"
        );
        assert!(!out.metrics.degraded, "corruption recovery loses nothing");
        assert_eq!(out.metrics.map_retries, 0, "no re-execution for transient");
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn at_rest_corruption_reexecutes_the_producing_map() {
        let plan = FaultPlan::none().with_corrupt_shuffle(1, 0, 2);
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.corrupt_fetches, 2, "both fetches were bad");
        assert_eq!(
            out.metrics.map_retries, 1,
            "the producer re-executed once the re-fetch failed too"
        );
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn hung_attempts_are_killed_by_the_progress_timeout_and_retried() {
        let cluster = ClusterConfig::test();
        let plan = FaultPlan::none().with_map_fault(0, TaskFault::hangs(2));
        let config = JobConfig::new("wc", 2).with_faults(plan);
        let out = word_count_on(&cluster, &config).expect("job must survive hangs");
        assert_eq!(out.metrics.map_retries, 2);
        assert_eq!(out.registry.counter("map.failures.hang"), 2);
        assert!(
            out.metrics.wasted_task_time >= cluster.progress_timeout * 2,
            "each kill charges the full progress timeout"
        );
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn poison_record_without_skip_policy_aborts_the_job() {
        let plan = FaultPlan::none().with_poison_record(1, 0);
        let config = JobConfig::new("wc", 2)
            .with_faults(plan)
            .with_retry(RetryPolicy::new().with_max_attempts(3));
        let err = word_count_config(&splits(), &config).expect_err("poison must abort");
        assert_eq!((err.task, err.index, err.attempts), (TaskKind::Map, 1, 3));
        assert!(err.last_cause().contains("poisoned at record 0"));
        assert!(!err.metrics.degraded);
    }

    #[test]
    fn skip_bad_records_narrows_to_the_poison_and_completes_degraded() {
        let mut cluster = ClusterConfig::test();
        cluster.skip_bad_records = true;
        // Poison split 1's only record ("b b"); the surviving input is
        // exactly splits 0 and 2.
        let plan = FaultPlan::none().with_poison_record(1, 0);
        let config = JobConfig::new("wc", 2).with_faults(plan);
        let out = word_count_on(&cluster, &config).expect("skip policy must rescue the job");
        assert!(out.metrics.degraded);
        assert_eq!(out.metrics.records_skipped, 1);
        assert_eq!(out.registry.counter("map.records_skipped"), 1);
        // Budget exhausted once (4 attempts), then one clean skip round.
        assert_eq!(out.metrics.map_retries, 4);
        let reduced: Vec<Vec<String>> = vec![splits()[0].clone(), Vec::new(), splits()[2].clone()];
        let baseline = word_count(&reduced, 2, FaultPlan::none());
        assert_eq!(
            sorted_counts(out),
            sorted_counts(baseline),
            "output must equal the fault-free run minus the poisoned record"
        );
    }

    #[test]
    fn seeded_data_chaos_preserves_output_and_is_replayable() {
        let clean = sorted_counts(word_count(&splits(), 2, FaultPlan::none()));
        for seed in 0..6 {
            let run = || word_count(&splits(), 2, FaultPlan::chaos_data(seed));
            let a = run();
            let b = run();
            assert_eq!(a.metrics.corrupt_fetches, b.metrics.corrupt_fetches);
            assert_eq!(sorted_counts(a), clean, "seed {seed} changed the output");
            assert_eq!(sorted_counts(b), clean, "seed {seed} changed the output");
        }
    }

    #[test]
    fn node_loss_reexecutes_completed_maps_without_changing_output() {
        let cluster = ClusterConfig::test_placed(0xBEEF);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("job must survive a node loss")
        };
        let clean = run(FaultPlan::none());
        assert_eq!(clean.metrics.nodes_lost, 0);
        assert_eq!(clean.metrics.reexecution_time, Duration::ZERO);
        // Kill the node that homes map task 0's output, far past the map
        // phase: its completed output is invalidated and must re-execute.
        let placement = Placement::new(0xBEEF);
        let alive: Vec<usize> = (0..cluster.nodes).collect();
        let victim = placement.task_home("wc", TaskKind::Map, 0, &alive);
        let faulty = run(FaultPlan::none().with_node_loss(victim, u64::MAX / 2));
        assert_eq!(faulty.metrics.nodes_lost, 1);
        assert!(faulty.metrics.maps_reexecuted >= 1, "map 0 lived there");
        assert!(faulty.metrics.reexecution_time >= cluster.heartbeat_timeout);
        assert!(
            faulty.metrics.sim_runtime > clean.metrics.sim_runtime,
            "detection + re-execution must cost simulated time"
        );
        assert_eq!(faulty.registry.counter("node.lost"), 1);
        assert_eq!(
            faulty.registry.counter("map.reexecuted"),
            faulty.metrics.maps_reexecuted
        );
        assert_eq!(sorted_counts(faulty), sorted_counts(clean));
    }

    #[test]
    fn node_events_are_inert_without_a_placement() {
        let plan = FaultPlan::none()
            .with_node_loss(0, 0)
            .with_node_partition(1, 0, 500);
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.nodes_lost, 0);
        assert_eq!(out.metrics.maps_reexecuted, 0);
        assert_eq!(out.metrics.reexecution_time, Duration::ZERO);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn node_partition_stalls_the_shuffle() {
        let cluster = ClusterConfig::test_placed(3);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("job must survive a partition")
        };
        let clean = run(FaultPlan::none());
        let stalled = run(FaultPlan::none().with_node_partition(0, 0, 700));
        assert_eq!(
            stalled.metrics.shuffle_time,
            clean.metrics.shuffle_time + Duration::from_micros(700),
            "the partition window stalls the shuffle barrier"
        );
        assert_eq!(sorted_counts(stalled), sorted_counts(clean));
    }

    #[test]
    fn failing_nodes_are_blacklisted() {
        let cluster = ClusterConfig::test_placed(9);
        let plan = FaultPlan::none()
            .with_map_fault(0, TaskFault::lost(2))
            .with_map_fault(1, TaskFault::lost(1));
        let config = JobConfig::new("wc", 2)
            .with_faults(plan)
            .with_blacklist(BlacklistPolicy::new().with_max_failures(1));
        let out = word_count_on(&cluster, &config).expect("job must succeed");
        assert!(out.metrics.nodes_blacklisted >= 1, "strikes were recorded");
        assert_eq!(
            out.registry.counter("node.blacklisted"),
            out.metrics.nodes_blacklisted
        );
        // A reduce-phase abort reports the blacklist the map phase already
        // established (it used to report zero), plus its own strikes.
        let doomed = config
            .clone()
            .with_faults(
                config
                    .faults
                    .clone()
                    .with_reduce_fault(0, TaskFault::lost(u32::MAX)),
            )
            .with_retry(RetryPolicy::new().with_max_attempts(3));
        let err = word_count_on(&cluster, &doomed).expect_err("reduce 0 must abort the job");
        assert_eq!((err.task, err.index), (TaskKind::Reduce, 0));
        assert!(err.metrics.nodes_blacklisted >= out.metrics.nodes_blacklisted);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn node_chaos_is_replayable_and_output_preserving() {
        let cluster = ClusterConfig::test_placed(11);
        let run = |seed: u64| {
            let config = JobConfig::new("wc", 2).with_faults(FaultPlan::chaos_nodes(seed));
            word_count_on(&cluster, &config).expect("chaos run must succeed")
        };
        for seed in 0..6 {
            let a = run(seed);
            let b = run(seed);
            assert_eq!(a.metrics.nodes_lost, b.metrics.nodes_lost);
            assert_eq!(a.metrics.maps_reexecuted, b.metrics.maps_reexecuted);
            assert_eq!(a.metrics.sim_runtime, b.metrics.sim_runtime);
            assert_eq!(sorted_counts(a), expected_counts(), "seed {seed}");
            assert_eq!(sorted_counts(b), expected_counts(), "seed {seed}");
        }
    }

    /// Test cluster with the out-of-core plane forced on: a `budget`-byte
    /// map output buffer spills (almost) every emitted pair.
    fn spill_cluster(budget: u64) -> ClusterConfig {
        let mut cluster = ClusterConfig::test();
        cluster.storage.memory_budget = Some(budget);
        cluster
    }

    #[test]
    fn spill_mode_is_output_identical_and_reports_storage_metrics() {
        let clean = word_count(&splits(), 2, FaultPlan::none());
        let cluster = spill_cluster(1);
        let out = word_count_on(&cluster, &JobConfig::new("wc", 2)).expect("spill run");
        assert!(out.metrics.spill_files > 0, "a 1-byte budget must spill");
        assert!(out.metrics.spilled_bytes > 0);
        assert!(out.metrics.merge_passes >= 1, "disk runs need a final pass");
        assert_eq!(
            out.registry.counter("storage.spill_files"),
            out.metrics.spill_files
        );
        assert_eq!(
            out.registry.counter("storage.spilled_bytes"),
            out.metrics.spilled_bytes
        );
        assert_eq!(
            out.registry.counter("storage.merge_passes"),
            out.metrics.merge_passes
        );
        // The shuffle model accounts wire bytes, not the representation.
        assert_eq!(out.metrics.shuffle_bytes, clean.metrics.shuffle_bytes);
        assert_eq!(
            out.metrics.reduce_input_keys,
            clean.metrics.reduce_input_keys
        );
        // A clean in-memory run reports no storage traffic at all.
        assert_eq!(clean.metrics.spill_files, 0);
        assert_eq!(clean.metrics.spilled_bytes, 0);
        assert_eq!(clean.metrics.merge_passes, 0);
        assert_eq!(sorted_counts(out), sorted_counts(clean));

        // Memory runs never cascade: with more map tasks than the merge
        // fan-in and no budget there is no pass, no file, and not even a
        // spill directory — while the same job under a budget cascades.
        let spill_root =
            std::env::temp_dir().join(format!("skymr-job-test-{}-unspilled", std::process::id()));
        let mut narrow = ClusterConfig::test();
        narrow.storage.merge_fan_in = 2;
        narrow.storage.spill_dir = Some(spill_root.clone());
        let unspilled = word_count_on(&narrow, &JobConfig::new("wc", 1)).expect("memory run");
        assert_eq!(
            unspilled.metrics.map_tasks, 3,
            "three runs over a fan-in of two"
        );
        assert_eq!(unspilled.metrics.spill_files, 0);
        assert_eq!(unspilled.metrics.merge_passes, 0);
        assert!(
            !spill_root.exists(),
            "an unspilled job creates no spill directory"
        );
        narrow.storage.memory_budget = Some(1);
        let cascaded = word_count_on(&narrow, &JobConfig::new("wc", 1)).expect("spill run");
        assert!(
            cascaded.metrics.merge_passes >= 2,
            "disk runs over the fan-in cascade"
        );
        assert_eq!(sorted_counts(cascaded), sorted_counts(unspilled));
        std::fs::remove_dir_all(&spill_root).expect("the budgeted run created the spill root");

        // A map-phase abort still reports the segments its surviving map
        // tasks wrote (it used to report zero).
        let doomed = JobConfig::new("wc", 2)
            .with_faults(FaultPlan::none().with_map_fault(1, TaskFault::lost(u32::MAX)))
            .with_retry(RetryPolicy::new().with_max_attempts(2));
        let err = word_count_on(&cluster, &doomed).expect_err("map 1 must abort the job");
        assert_eq!((err.task, err.index), (TaskKind::Map, 1));
        assert!(err.metrics.spill_files > 0 && err.metrics.spilled_bytes > 0);
        assert_eq!(err.metrics.map_output_records, 6, "splits 0 and 2 finished");
    }

    /// The in-memory engine is the zero-disk case of the storage plane:
    /// under every fault the recovery ladder knows, a job with no budget
    /// and one whose every pair spills run the same reduce path, and must
    /// agree on outputs, user counters, `reduce_input_keys`, and every
    /// registry counter that is not storage traffic.
    #[test]
    fn spill_mode_survives_faults_and_chaos() {
        /// (case, plan, speculate, expected (map, reduce) retries)
        type Case = (String, FaultPlan, bool, Option<(u64, u64)>);
        let placed = ClusterConfig::test_placed(0xBEEF);
        let alive: Vec<usize> = (0..placed.nodes).collect();
        let victim = Placement::new(0xBEEF).task_home("wc", TaskKind::Map, 0, &alive);
        let none = FaultPlan::none;
        let mut cases: Vec<Case> = vec![
            ("fault-free".into(), none(), false, Some((0, 0))),
            (
                "failed maps".into(),
                FaultPlan::fail_maps([0, 2]),
                false,
                Some((2, 0)),
            ),
            (
                "scheduled reduce retry".into(),
                FaultPlan::fail_reduces([1]),
                false,
                Some((0, 1)),
            ),
            (
                "reduce mid-task panics".into(),
                none()
                    .with_reduce_fault(0, TaskFault::panics(1))
                    .with_reduce_fault(1, TaskFault::panics(2))
                    .with_reduce_fault(2, TaskFault::panics(1)),
                false,
                Some((0, 4)),
            ),
            (
                "speculation".into(),
                none().with_reduce_fault(0, TaskFault::straggler(1000.0)),
                true,
                None,
            ),
            (
                "lost partition".into(),
                none().with_lost_partition(0, 0),
                false,
                Some((1, 0)),
            ),
            (
                "corrupt fetch x1".into(),
                none().with_corrupt_shuffle(0, 0, 1),
                false,
                Some((0, 0)),
            ),
            (
                "corrupt fetch x2".into(),
                none().with_corrupt_shuffle(1, 0, 2),
                false,
                Some((1, 0)),
            ),
            (
                "node loss".into(),
                none().with_node_loss(victim, u64::MAX / 2),
                false,
                Some((0, 0)),
            ),
        ];
        for seed in 0..4 {
            cases.push((
                format!("chaos seed {seed}"),
                FaultPlan::seeded(seed),
                false,
                None,
            ));
        }
        let engine_counters = |out: &JobOutcome<(String, u64)>| -> Vec<(String, u64)> {
            let counters = out.registry.counters();
            let engine = counters.filter(|(name, _)| !name.starts_with("storage."));
            engine.map(|(name, v)| (name.to_owned(), v)).collect()
        };
        for (case, plan, speculate, retries) in cases {
            let run = |budget: Option<u64>| {
                let mut cluster = placed.clone();
                cluster.storage.memory_budget = budget;
                let mut config = JobConfig::new("wc", 3).with_faults(plan.clone());
                if speculate {
                    config = config.with_speculation(SpeculationPolicy::new());
                }
                word_count_on(&cluster, &config).expect("the job must survive")
            };
            let (memory, spilled) = (run(None), run(Some(1)));
            assert_eq!(memory.metrics.spill_files, 0, "{case}");
            assert!(spilled.metrics.spill_files > 0, "{case}");
            assert_eq!(
                memory.metrics.reduce_input_keys, spilled.metrics.reduce_input_keys,
                "{case}"
            );
            assert_eq!(memory.metrics.reduce_input_keys, 3, "{case}");
            assert_eq!(
                memory.counters.snapshot(),
                spilled.counters.snapshot(),
                "{case}"
            );
            if !speculate {
                // Spill I/O is part of a task's priced duration, so a
                // budget can move a task across the backup threshold.
                assert_eq!(
                    engine_counters(&memory),
                    engine_counters(&spilled),
                    "{case}"
                );
            }
            if let Some(expected) = retries {
                let got = |out: &JobOutcome<(String, u64)>| {
                    (out.metrics.map_retries, out.metrics.reduce_retries)
                };
                assert_eq!(
                    (got(&memory), got(&spilled)),
                    (expected, expected),
                    "{case}"
                );
            }
            if case == "node loss" {
                assert!(
                    memory.metrics.maps_reexecuted >= 1,
                    "map 0 lived on the victim"
                );
            }
            assert_eq!(sorted_counts(memory), expected_counts(), "{case}");
            assert_eq!(sorted_counts(spilled), expected_counts(), "{case}");
        }
    }

    /// Spill-mode corruption physically bit-flips the on-disk segment; the
    /// CRC scan must catch it and route into the re-fetch → re-exec ladder.
    #[test]
    fn spill_segment_corruption_routes_into_the_recovery_ladder() {
        let cluster = spill_cluster(1);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("spill run must survive")
        };
        // Transient: the first fetch hits the flipped bit, the re-fetch
        // (bit restored — a clean replica) passes the scan.
        let transient = run(FaultPlan::none().with_corrupt_shuffle(0, 0, 1));
        assert_eq!(transient.metrics.corrupt_fetches, 1);
        assert_eq!(transient.registry.counter("shuffle.corrupt_partitions"), 1);
        assert_eq!(transient.metrics.map_retries, 0);
        assert_eq!(sorted_counts(transient), expected_counts());
        // At rest: both fetches fail the scan, the producing map re-executes
        // and rewrites its segments.
        let at_rest = run(FaultPlan::none().with_corrupt_shuffle(1, 0, 2));
        assert_eq!(at_rest.metrics.corrupt_fetches, 2);
        assert_eq!(at_rest.metrics.map_retries, 1);
        assert_eq!(sorted_counts(at_rest), expected_counts());
    }

    /// Every file in every job-run directory under a spill root.
    fn files_under(root: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut files = Vec::new();
        for session in std::fs::read_dir(root).expect("spill root") {
            for file in std::fs::read_dir(session.expect("entry").path()).expect("session") {
                files.push(file.expect("entry").path());
            }
        }
        files
    }

    /// A word-count mapper that, once its split is mapped and spilled,
    /// flips a bit in chosen spill segments of its own — at-rest corruption
    /// the fault plan knows nothing about, so no recovery is scheduled and
    /// only the integrity scan stands between it and the reducers.
    struct Sabotage {
        root: std::path::PathBuf,
        /// (map task, spill sequence) pairs to corrupt.
        targets: Vec<(usize, usize)>,
        /// (map, spill, partition) actually corrupted.
        hit: parking_lot::Mutex<Vec<(usize, usize, usize)>>,
    }
    struct SaboteurTask<'a> {
        plan: &'a Sabotage,
        map: usize,
    }
    impl MapTask for SaboteurTask<'_> {
        type In = String;
        type K = String;
        type V = u64;
        fn map(&mut self, input: &String, out: &mut Emitter<String, u64>) {
            WcMapTask.map(input, out);
        }
        fn finish(&mut self, _out: &mut Emitter<String, u64>) {
            // This task's segments, in spill order (the session's
            // sequence number is the last `-`-separated field).
            let prefix = format!("mrtmp.wc-m{}-a0-", self.map);
            let mut mine: Vec<(u64, std::path::PathBuf)> = Vec::new();
            for path in files_under(&self.plan.root) {
                let name = path.file_name().and_then(|n| n.to_str()).expect("name");
                let seq = name
                    .strip_prefix(&prefix)
                    .and_then(|n| n.strip_suffix(".seg"));
                if let Some(seq) = seq {
                    mine.push((seq.parse().expect("sequence number"), path));
                }
            }
            mine.sort();
            for &(_, spill) in self.plan.targets.iter().filter(|t| t.0 == self.map) {
                let seg = Segment::read_manifest(&mine[spill].1).expect("manifest");
                let part = seg.parts.iter().position(|p| p.len > 0).expect("bytes");
                let meta = &seg.parts[part];
                flip_bit(&seg.path, meta.offset, meta.len, 0xBAD5EED).expect("flip");
                self.plan.hit.lock().push((self.map, spill, part));
            }
        }
    }
    struct Saboteur<'a>(&'a Sabotage);
    impl<'a> MapFactory for Saboteur<'a> {
        type Task = SaboteurTask<'a>;
        fn create(&self, ctx: &TaskContext) -> SaboteurTask<'a> {
            SaboteurTask {
                plan: self.0,
                map: ctx.task_index,
            }
        }
    }

    /// Two spill partitions rot on disk behind the plan's back. The pooled
    /// scan must stop the job before any merge opens them, and name the
    /// lowest-indexed one — the same message whatever the thread count.
    #[test]
    fn the_pooled_integrity_scan_names_the_lowest_corrupt_partition() {
        let message = |host_threads: usize| {
            let root = std::env::temp_dir().join(format!(
                "skymr-scan-test-{}-{host_threads}",
                std::process::id()
            ));
            std::fs::create_dir_all(&root).expect("spill root");
            let mut cluster = spill_cluster(1);
            cluster.host_threads = host_threads;
            cluster.storage.spill_dir = Some(root.clone());
            let plan = Sabotage {
                root: root.clone(),
                targets: vec![(2, 0), (0, 1)],
                hit: parking_lot::Mutex::new(Vec::new()),
            };
            let job = || {
                let config = JobConfig::new("wc", 2);
                let factory = Saboteur(&plan);
                run_job(
                    &cluster,
                    &config,
                    &splits(),
                    &factory,
                    &WcReduce,
                    &HashPartitioner,
                )
            };
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
                .expect_err("rotten spill data must never reach a merge");
            let _ = std::fs::remove_dir_all(&root);
            let mut hit = plan.hit.lock().clone();
            hit.sort_unstable();
            assert_eq!(hit.len(), 2, "both partitions were corrupted");
            assert_eq!((hit[0].0, hit[0].1), (0, 1));
            let (map, spill, part) = hit[0];
            let text = panic.downcast_ref::<String>().expect("message").clone();
            let unit = format!("integrity scan of map {map} spill {spill} partition {part} failed");
            assert!(text.starts_with("storage plane: "), "{text}");
            assert!(text.contains(&unit), "{text}");
            assert!(text.contains("spill data corrupt"), "{text}");
            text
        };
        assert_eq!(message(1), message(4));
    }

    /// Frames sit at rest from the end of their map attempt; scripted
    /// corruption — transient or escalated — only ever touches a delivered
    /// copy, so every reduce attempt (retries included) still opens clean
    /// frames and `ReduceInput::open` stays unreachable-on-error.
    #[test]
    fn injected_corruption_never_touches_a_frame_at_rest() {
        let mut plan = FaultPlan::fail_reduces([0, 1]);
        for (map, reducer, fetches) in [(0, 0, 1), (1, 1, 2), (2, 0, 1), (2, 1, 2)] {
            plan = plan.with_corrupt_shuffle(map, reducer, fetches);
        }
        let out = word_count(&splits(), 2, plan);
        assert_eq!(out.metrics.corrupt_fetches, 6);
        assert_eq!(
            out.metrics.reduce_retries, 2,
            "each reducer reopened its frames"
        );
        assert_eq!(sorted_counts(out), expected_counts());
    }

    /// The trace and the metrics are read off one timeline, so the drawn
    /// job is exactly as long as the reported one — in every mode that
    /// adds a wave or takes slots away.
    #[test]
    fn the_trace_is_as_long_as_sim_runtime_in_every_mode() {
        let placed = ClusterConfig::test_placed(0xBEEF);
        let alive: Vec<usize> = (0..placed.nodes).collect();
        let victim = Placement::new(0xBEEF).task_home("wc", TaskKind::Map, 0, &alive);
        let none = FaultPlan::none;
        let cases: Vec<(&str, ClusterConfig, FaultPlan)> = vec![
            ("clean", ClusterConfig::test(), none()),
            (
                "lost partition",
                ClusterConfig::test(),
                none().with_lost_partition(0, 0),
            ),
            (
                "node loss",
                placed.clone(),
                none().with_node_loss(victim, u64::MAX / 2),
            ),
            (
                "corrupt x1",
                ClusterConfig::test(),
                none().with_corrupt_shuffle(0, 0, 1),
            ),
            (
                "corrupt x2",
                ClusterConfig::test(),
                none().with_corrupt_shuffle(1, 0, 2),
            ),
            ("memory budget", spill_cluster(1), none()),
        ];
        let mut runtimes = BTreeMap::new();
        for (case, cluster, plan) in cases {
            let collector = Collector::new();
            let config = JobConfig::new("wc", 3)
                .with_faults(plan)
                .with_collector(Some(collector.clone()));
            let out = word_count_on(&cluster, &config).expect("the job must survive");
            let m = &out.metrics;
            assert_eq!(collector.cursor(), ticks_of(m.sim_runtime), "{case}");
            assert_eq!(
                m.sim_runtime,
                m.startup_time + m.broadcast_time + m.map_phase + m.shuffle_time + m.reduce_phase,
                "{case}"
            );
            let trace = skymr_telemetry::export::chrome_trace(&collector.finish());
            assert_eq!(
                trace.contains("(re-exec)"),
                matches!(case, "node loss" | "corrupt x2"),
                "{case}: every re-execution wave is drawn"
            );
            runtimes.insert(case, m.sim_runtime);
        }
        for case in ["lost partition", "node loss", "corrupt x2", "memory budget"] {
            assert!(runtimes[case] > runtimes["clean"], "{case} costs time");
        }
    }

    #[test]
    fn spill_runs_emit_storage_spans_reproducibly() {
        let cluster = spill_cluster(1);
        let render = || {
            let collector = Collector::new();
            let config = JobConfig::new("wc", 2).with_collector(Some(collector.clone()));
            word_count_on(&cluster, &config).expect("job must succeed");
            skymr_telemetry::export::chrome_trace(&collector.finish())
        };
        let trace = render();
        assert!(trace.contains("\"spill[0]\""), "spill span missing");
        assert!(trace.contains("\"merge\""), "merge span missing");
        assert_eq!(trace, render(), "spill trace bytes must be reproducible");
    }

    /// Four maps of six lines: under a 1-byte budget every line is a spill.
    fn many_spills() -> Vec<Vec<String>> {
        let line = |m: usize, w: usize| format!("w{} w{}", (m + w) % 5, w % 3);
        (0..4)
            .map(|m| (0..6).map(|w| line(m, w)).collect())
            .collect()
    }

    /// From 9 to 64 disk runs at fan-in 8 one cascade level reaches the
    /// final pass, so no spilled byte is rewritten twice — re-merging a
    /// prefix rewrote 8 + 15 run-units from 16 runs up — and outside the
    /// storage plane the budget changes nothing.
    #[test]
    fn a_one_level_cascade_rewrites_no_spilled_byte_twice() {
        let run = |budget: Option<u64>| {
            let mut cluster = ClusterConfig::test();
            cluster.storage.memory_budget = budget;
            assert_eq!(cluster.storage.merge_fan_in, 8);
            run_job(
                &cluster,
                &JobConfig::new("wc", 1),
                &many_spills(),
                &WcMap,
                &WcReduce,
                &HashPartitioner,
            )
            .expect("job")
        };
        let (memory, spilled) = (run(None), run(Some(1)));
        let counter = |name: &str| spilled.registry.counter(name);
        let runs = counter("storage.merge_runs");
        assert!((16..=64).contains(&runs), "{runs} disk runs");
        assert_eq!(spilled.metrics.merge_passes, (runs - 8).div_ceil(7) + 1);
        let rewritten = counter("storage.merge_bytes_written");
        assert!(0 < rewritten && rewritten <= counter("storage.spilled_bytes"));
        // Disk traffic is priced into task durations, so the phases and
        // what is summed from them move with the budget; nothing else may.
        let engine_facts = |m: &JobMetrics| {
            let mut m = m.clone();
            (m.spill_files, m.spilled_bytes, m.merge_passes) = (0, 0, 0);
            let phases = [&mut m.map_phase, &mut m.reduce_phase];
            for time in phases
                .into_iter()
                .chain([&mut m.sim_runtime, &mut m.host_wall])
            {
                *time = Duration::ZERO;
            }
            (m.map_task_durations, m.reduce_task_durations) = (Vec::new(), Vec::new());
            format!("{m:?}")
        };
        assert_eq!(
            engine_facts(&spilled.metrics),
            engine_facts(&memory.metrics)
        );
        assert_eq!(spilled.counters.snapshot(), memory.counters.snapshot());
        assert_eq!(sorted_counts(spilled), sorted_counts(memory));
    }

    /// Word-count reducers that take a census of the `.run` files under the
    /// spill root when an attempt starts (`false`) and when it has streamed
    /// its last group (`true`); reducer 0's first attempt panics mid-stream.
    struct Census {
        root: std::path::PathBuf,
        seen: parking_lot::Mutex<Vec<(bool, usize)>>,
    }
    impl Census {
        fn take(&self, streaming: bool) {
            let is_run = |path: &std::path::PathBuf| {
                let name = path.file_name().expect("name");
                name.to_string_lossy().contains(".run")
            };
            let runs = files_under(&self.root).iter().filter(|p| is_run(p)).count();
            self.seen.lock().push((streaming, runs));
        }
    }
    struct CensusTask<'a> {
        census: &'a Census,
        doomed: bool,
        inner: WcReduceTask,
    }
    impl ReduceTask for CensusTask<'_> {
        type K = String;
        type V = u64;
        type Out = (String, u64);
        fn reduce(
            &mut self,
            key: String,
            values: Vec<u64>,
            out: &mut OutputCollector<(String, u64)>,
        ) {
            assert!(!self.doomed, "census: reducer 0 fails its first attempt");
            self.inner.reduce(key, values, out);
        }
        fn finish(&mut self, _out: &mut OutputCollector<(String, u64)>) {
            self.census.take(true);
        }
    }
    impl<'a> ReduceFactory for &'a Census {
        type Task = CensusTask<'a>;
        fn create(&self, ctx: &TaskContext) -> CensusTask<'a> {
            self.take(false);
            CensusTask {
                census: self,
                doomed: ctx.task_index == 0 && ctx.attempt == 0,
                inner: WcReduce.create(ctx),
            }
        }
    }

    /// An attempt's intermediate merge runs live exactly as long as the
    /// merge that reads them: none is left when the next attempt or the
    /// next reducer starts, whether the attempt finished or panicked.
    #[test]
    fn intermediate_merge_runs_do_not_outlive_their_attempt() {
        let root = std::env::temp_dir().join(format!("skymr-census-{}", std::process::id()));
        let mut cluster = spill_cluster(1);
        cluster.host_threads = 1;
        cluster.storage.merge_fan_in = 2;
        cluster.storage.spill_dir = Some(root.clone());
        let census = Census {
            root: root.clone(),
            seen: parking_lot::Mutex::new(Vec::new()),
        };
        let config = JobConfig::new("wc", 2);
        let (splits, map) = (many_spills(), &WcMap);
        let out =
            run_job(&cluster, &config, &splits, map, &&census, &HashPartitioner).expect("job");
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(out.metrics.reduce_retries, 1, "the panic was retried");
        let seen = census.seen.into_inner();
        let starting: Vec<usize> = seen.iter().filter(|s| !s.0).map(|s| s.1).collect();
        assert_eq!(
            starting,
            [0, 0, 0],
            "two attempts of reducer 0, one of reducer 1"
        );
        let streaming: Vec<usize> = seen.iter().filter(|s| s.0).map(|s| s.1).collect();
        assert_eq!(streaming.len(), 2);
        assert!(
            streaming.iter().all(|&runs| runs > 0),
            "both reducers cascaded: {streaming:?}"
        );
    }

    struct WcReduceLike;
    struct WcReduceLikeTask;
    impl ReduceTask for WcReduceLikeTask {
        type K = u32;
        type V = u32;
        type Out = u32;
        fn reduce(&mut self, _key: u32, values: Vec<u32>, out: &mut OutputCollector<u32>) {
            out.collect(values.into_iter().sum());
        }
    }
    impl ReduceFactory for WcReduceLike {
        type Task = WcReduceLikeTask;
        fn create(&self, _: &TaskContext) -> WcReduceLikeTask {
            WcReduceLikeTask
        }
    }
}
