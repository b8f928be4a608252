//! The job driver: map phase → shuffle → reduce phase, with Hadoop-style
//! fault tolerance (bounded retries, backoff, speculative execution).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use skymr_common::bytes::{frame_encoded_pairs_into, PAIRS_OVERHEAD};
use skymr_common::{decode_pairs, Counters, Wire};

use crate::cluster::{ClusterConfig, JobMetrics, Placement};
use crate::fault::{
    run_attempts, AttemptFailure, BlacklistPolicy, CorruptFetch, FailureCause, FaultPlan,
    FaultTolerance, Inject, JobError, TaskExecution, TaskFault, TaskKind,
};
use crate::partitioner::Partitioner;
use crate::pool::run_indexed;
use crate::sched::Wave;
use crate::splits::SplitSource;
use crate::storage::{
    merge::{cascade_stats, external_merge, KWayMerge, MergeStats, RunSource},
    segment::{Segment, SegmentWriter, StorageError},
    SpillSession,
};
use crate::task::{
    Emitter, JobKey, JobValue, MapFactory, MapTask, OutputCollector, ReduceFactory, ReduceTask,
    TaskContext,
};
use crate::trace::{from_ticks, ticks_of, CorruptEvent, FailKind, JobRecord, Phase, TaskModel};
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
    /// Injected faults, retry budget, speculation and blacklisting
    /// (benign by default).
    pub fault_tolerance: FaultTolerance,
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
            fault_tolerance: FaultTolerance::none(),
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
        self.fault_tolerance.plan = faults;
        self
    }

    /// Sets the fault-tolerance configuration (what the algorithm configs
    /// carry).
    pub fn with_fault_tolerance(mut self, ft: &FaultTolerance) -> Self {
        self.fault_tolerance = ft.clone();
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

impl<K: JobKey> MapResult<K> {
    fn new(reducers: usize, counters: Counters) -> Self {
        Self {
            segments: Vec::new(),
            tail: Vec::new(),
            bucket_bytes: vec![0; reducers],
            records: 0,
            work: 0,
            counters,
            emitted: BTreeMap::new(),
        }
    }

    /// Groups one batch of emitted pairs per key and partitions the
    /// groups, counting them in — the shared kernel of the unspilled tail
    /// and of each spill. Returns, per reducer, its groups' pair positions
    /// in `emitter`: keys ascending, emission order within a key, so the
    /// pipeline is deterministic and each bucket is what grouping the
    /// pairs in a `BTreeMap` would give.
    fn route<V: JobValue>(
        &mut self,
        emitter: &Emitter<K, V>,
        partitioner: &impl Partitioner<K>,
    ) -> Vec<Vec<Vec<usize>>> {
        let r = self.bucket_bytes.len();
        let mut buckets: Vec<Vec<Vec<usize>>> = (0..r).map(|_| Vec::new()).collect();
        for (k, pairs) in emitter.grouped() {
            let dest = partitioner.partition(k, r);
            assert!(dest < r, "partitioner returned reducer {dest} of {r}");
            if cfg!(debug_assertions) {
                *self.emitted.entry(k.clone()).or_insert(0) += pairs.len() as u64;
            }
            self.records += pairs.len() as u64;
            let bytes = emitter.encodings(&pairs).map(|pair| pair.len() as u64);
            self.bucket_bytes[dest] += bytes.sum::<u64>();
            buckets[dest].push(pairs);
        }
        buckets
    }

    /// Routes the buffered pairs into one more spill segment at `path`,
    /// copied from the emitter's buffer pair by pair, and empties the
    /// buffer.
    fn spill<V: JobValue>(
        &mut self,
        emitter: &mut Emitter<K, V>,
        partitioner: &impl Partitioner<K>,
        path: std::path::PathBuf,
        io_chunk: usize,
    ) -> Result<(), StorageError> {
        let buckets = self.route(emitter, partitioner);
        let mut w = SegmentWriter::<K, V>::create(path, io_chunk)?;
        for bucket in &buckets {
            for pair in emitter.encodings(bucket.iter().flatten()) {
                w.push_encoded(pair)?;
            }
            w.end_partition()?;
        }
        self.segments.push(w.finish()?);
        emitter.clear();
        Ok(())
    }

    /// The unspilled tail as it leaves the attempt to cross the shuffle:
    /// one checksummed frame per reducer, copied from the emitter's buffer
    /// into a frame reserved exactly from the wire size `route` counted.
    fn frame_tail<V: JobValue>(
        &mut self,
        emitter: &Emitter<K, V>,
        partitioner: &impl Partitioner<K>,
    ) {
        let buckets = self.route(emitter, partitioner);
        let frame = |(bucket, &bytes): (&Vec<Vec<usize>>, &u64)| {
            let records = bucket.iter().map(Vec::len).sum();
            let mut frame = Vec::with_capacity(bytes as usize + PAIRS_OVERHEAD);
            let pairs = emitter.encodings(bucket.iter().flatten());
            frame_encoded_pairs_into(records, pairs, &mut frame);
            debug_assert_eq!(frame.len(), frame.capacity(), "frame outgrew its reserve");
            (frame, records as u64)
        };
        self.tail = buckets.iter().zip(&self.bucket_bytes).map(frame).collect();
    }
}

/// One reduce attempt's output.
struct ReduceResult<Out> {
    records: Vec<Out>,
    /// Distinct keys the attempt streamed through the UDF.
    keys: u64,
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
    /// Closed-form merge-cascade cost of the disk runs (jobs under a
    /// memory budget only) — a pure function of the segments, identical
    /// for every attempt of the reducer.
    merge: Option<MergeStats>,
}

impl ReduceInput {
    /// Opens every partition as a merge run: a frame is CRC-checked and
    /// decoded, a spill partition is read (and checked) by the merge.
    fn open<K: Wire, V: Wire>(&self) -> Result<Vec<RunSource<K, V>>, StorageError> {
        let open = |p: &Fetched| match p {
            Fetched::Frame(frame) => decode_pairs(frame)
                .map(RunSource::Mem)
                .map_err(|e| StorageError::frame("decode fetched frame", e)),
            Fetched::Spill { segment, part } => Ok(RunSource::Disk {
                segment: segment.clone(),
                part: *part,
            }),
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

/// What the stages hand down the line — the driver's mutable state: the
/// [`JobRecord`] of facts they accumulate into (everything timed is derived
/// from it, [`JobRecord::timeline`]), the map outputs until fetch consumes
/// them, and the node failure-domain state.
struct Run<'a, K> {
    record: JobRecord<'a>,
    /// Materialized map outputs: patched by the re-execution waves,
    /// consumed by fetch.
    outputs: Vec<MapResult<K>>,
    /// Records retired by the skip protocol, per map task.
    skips: Vec<BTreeSet<usize>>,
    all_nodes: Vec<usize>,
    /// Home node of each map task's materialized output (placed clusters).
    map_homes: Vec<usize>,
    strikes: BTreeMap<usize, u32>,
    blacklisted: BTreeSet<usize>,
}

impl<K> Run<'_, K> {
    fn survivors(&self) -> Vec<usize> {
        let alive = |n: &usize| !self.record.node_losses.contains(n);
        self.all_nodes.iter().copied().filter(alive).collect()
    }

    /// Slots of `total` still schedulable once dead and blacklisted nodes
    /// are gone: each slot lives on node `slot % nodes`
    /// ([`Placement::node_of_slot`]). At least one slot always survives so
    /// the job can limp home rather than deadlock.
    fn surviving_slots(&self, total: usize) -> usize {
        let node = |s: usize| Placement::node_of_slot(s, self.all_nodes.len());
        let dead = &self.record.node_losses;
        let gone = |n: usize| dead.contains(&n) || self.blacklisted.contains(&n);
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

/// Attempts map task `i` ran so far, in the map wave and in every
/// re-execution, backups included: a re-execution numbers on from there.
fn attempts_ran(record: &JobRecord<'_>, i: usize) -> u32 {
    let reruns = record
        .reruns
        .iter()
        .filter(|(_, j, _)| *j == i)
        .map(|(.., task)| task);
    let ran = |task: &TaskModel| task.failures.len() as u32 + 1 + u32::from(task.backup.is_some());
    std::iter::once(&record.map[i]).chain(reruns).map(ran).sum()
}

fn fail_kinds<T>(exec: &TaskExecution<T>) -> Vec<FailKind> {
    let kind = |f: &AttemptFailure| FailKind::from_cause(&f.cause);
    exec.failures.iter().map(kind).collect()
}

/// Nodes whose strike count has reached the blacklist budget.
fn over_budget(strikes: &BTreeMap<usize, u32>, policy: &BlacklistPolicy) -> BTreeSet<usize> {
    strikes
        .iter()
        .filter(|&(_, &count)| count >= policy.max_failures.max(1))
        .map(|(&node, _)| node)
        .collect()
}

/// Runs one MapReduce job.
///
/// `splits` is the pre-split input `R_1, …, R_m` — one map task per split,
/// exactly as the paper's job flows show (Figures 3–5). The reduce phase
/// runs `config.num_reducers` tasks; keys are routed by `partitioner`,
/// sorted, and grouped.
///
/// Task attempts that fail (injected by [`JobConfig::fault_tolerance`]'s
/// plan, a genuinely panicking UDF, or a failing spill read or write) are
/// retried under its retry budget; a task that exhausts its budget aborts
/// the job with a structured [`JobError`] carrying the attempt history and
/// partial metrics.
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
    K: JobKey,
    V: JobValue + Clone,
    Out: Send,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
{
    run_job_from(
        cluster,
        config,
        &splits,
        map_factory,
        reduce_factory,
        partitioner,
    )
}

/// [`run_job`], but fed from any [`SplitSource`]: each map attempt asks
/// for its own split only while it runs. A
/// [`RoundRobin`](crate::splits::RoundRobin) source lends a dataset's rows
/// in place, so the pipelines over a `Dataset` copy no input; a seeded
/// [`FnSplits`](crate::splits::FnSplits) recipe regenerates each split on
/// demand, which is how queued jobs under the [`sched`](crate::sched)
/// executor avoid pinning their whole input in RAM while they wait, and
/// how datasets larger than memory stream in.
///
/// This is the general driver; [`run_job`] delegates here. The body is
/// the job's table of contents (DESIGN.md §3): each stage is one `Job`
/// method, the stages accumulate the job's deterministic facts into one
/// [`JobRecord`], and every exit — success or abort — reports them
/// through `Job::close`.
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
    K: JobKey,
    V: JobValue + Clone,
    Out: Send,
    S: SplitSource<In>,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
{
    assert!(config.num_reducers > 0, "a job needs at least one reducer");
    // Input: the context every stage shares. With a memory budget set, map
    // output spills to sorted on-disk segments; the session owns the job's
    // spill directory, which the first spill creates, and removes it on
    // every exit path.
    let job = Job {
        cluster,
        config,
        source,
        map_factory,
        reduce_factory,
        partitioner,
        counters: Counters::new(),
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds only metrics.host_wall (advisory); sim_runtime is derived from the cluster cost model"
        )]
        started: Instant::now(),
        spill: cluster
            .storage
            .enabled()
            .then(|| SpillSession::new(&cluster.storage, &config.name)),
    };
    let mut run = job.start();
    // Map: every split through the attempt ladder, the skip-bad-records
    // protocol, and speculation.
    job.map_stage(&mut run)?;
    // Map-output recovery: lost partitions and dead nodes re-execute their
    // producers before the shuffle can start.
    job.recover_map_outputs(&mut run)?;
    // Fetch: every partition crosses to its reducer as checksummed bytes;
    // corruption re-fetches or re-executes the producer.
    let inputs = job.fetch(&mut run)?;
    // Reduce: each attempt merges its reducer's runs and streams the
    // groups through the UDF.
    let outputs = job.reduce_stage(&inputs, &mut run)?;
    // Commit: registry, trace, metrics.
    Ok(job.commit(run, outputs))
}

/// One job in flight: the read-only context every stage shares. The
/// stages are its methods, in execution order.
struct Job<'a, In, MF, RF, P> {
    cluster: &'a ClusterConfig,
    config: &'a JobConfig,
    /// Behind `dyn`: the source is consulted once per task, and one driver
    /// instance per job type serves every kind of source.
    source: &'a dyn SplitSource<In>,
    map_factory: &'a MF,
    reduce_factory: &'a RF,
    partitioner: &'a P,
    counters: Counters,
    started: Instant,
    /// The job's spill directory, present iff a memory budget is set.
    spill: Option<SpillSession>,
}

impl<'a, In, K, V, Out, MF, RF, P> Job<'a, In, MF, RF, P>
where
    In: Send + Sync,
    K: JobKey,
    V: JobValue,
    Out: Send,
    MF: MapFactory,
    MF::Task: MapTask<In = In, K = K, V = V>,
    RF: ReduceFactory,
    RF::Task: ReduceTask<K = K, V = V, Out = Out>,
    P: Partitioner<K>,
{
    /// The state the stages start from. The cache broadcast happens before
    /// any task launches (failed transfers are re-sent in full, multiplying
    /// the charge), and with a placement every map task's materialized
    /// output has a home node — a pure hash of (seed, job, kind, index),
    /// never the slot the LPT schedule put it on.
    fn start(&self) -> Run<'a, K> {
        let (config, ft) = (self.config, &self.config.fault_tolerance);
        let transfers = ft.plan.broadcast_failures_for(&config.name) + 1;
        let all_nodes: Vec<usize> = (0..self.cluster.nodes.max(1)).collect();
        let home = |p: &Placement, i| p.task_home(&config.name, TaskKind::Map, i, &all_nodes);
        let map_homes = match &self.cluster.placement {
            Some(p) => (0..self.source.num_splits()).map(|i| home(p, i)).collect(),
            None => Vec::new(),
        };
        let record = JobRecord {
            name: &config.name,
            cluster: self.cluster,
            cache_bytes: config.cache_bytes,
            broadcast_attempts: transfers,
            broadcast_time: self.cluster.broadcast_time(config.cache_bytes) * transfers,
            shuffle_time: Duration::ZERO,
            shuffle_stall: Duration::ZERO,
            per_reducer_bytes: Vec::new(),
            fetches: Vec::new(),
            map: Vec::new(),
            reduce: Vec::new(),
            reruns: Vec::new(),
            lost: Vec::new(),
            corrupt: Vec::new(),
            skipped: Vec::new(),
            node_losses: Vec::new(),
            nodes_blacklisted: 0,
            surviving_map_slots: self.cluster.map_slots,
            surviving_reduce_slots: self.cluster.reduce_slots,
            user_counters: Vec::new(),
        };
        Run {
            record,
            outputs: Vec::new(),
            skips: Vec::new(),
            all_nodes,
            map_homes,
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
    /// user counters under any fault plan equal the clean run's. A backup
    /// whose storage plane fails commits nothing: the original's output,
    /// complete and identical, stands. Returns the lowest-indexed task
    /// that exhausted its budget, if any, whatever the thread count.
    fn settle<T: Send + AsRef<Counters>>(
        &self,
        kind: TaskKind,
        execs: &mut [Exec<T>],
        record: &mut JobRecord<'a>,
        rerun: impl Fn(usize, u32) -> Result<T, StorageError> + Sync,
    ) -> Option<usize> {
        let failed = execs.iter().position(|(e, _)| !e.succeeded());
        if failed.is_none() && self.config.fault_tolerance.speculation {
            let planned = record.plan_backups(kind);
            let next: Vec<u32> = planned.iter().map(|&(i, _)| execs[i].0.attempts).collect();
            let backups = run_indexed(planned.len(), self.cluster.host_threads, |c| {
                rerun(planned[c].0, next[c])
            });
            for (&(i, wins), value) in planned.iter().zip(backups) {
                if let (true, Ok(value)) = (wins, value) {
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

    fn map_attempt(
        &self,
        i: usize,
        attempt: u32,
        inject: Inject,
        skips: &BTreeSet<usize>,
        progress: &AtomicUsize,
    ) -> Result<MapResult<K>, StorageError> {
        let ctx = self.task_context(i, self.source.num_splits(), attempt);
        let mut task = self.map_factory.create(&ctx);
        let mut emitter = Emitter::new();
        // Read in place from a lending source; an on-demand one's records
        // live for this attempt only and are dropped once it is mapped.
        let split = self.source.load(i);
        let mut result = MapResult::new(self.config.num_reducers, ctx.counters.clone());
        let spill =
            |session: &SpillSession, emitter: &mut Emitter<K, V>, result: &mut MapResult<K>| {
                let path = session.segment_path(i, attempt)?;
                let io_chunk = self.cluster.storage.io_chunk;
                result.spill(emitter, self.partitioner, path, io_chunk)
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
        let ft = &self.config.fault_tolerance;
        let poison = ft.plan.poison_records_for(&self.config.name, i);
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
                    spill(session, &mut emitter, &mut result)?;
                }
            }
        }
        task.finish(&mut emitter);
        drop(split);
        result.work = emitter.work();
        match budget {
            // The tail batch always goes to disk too — with a budget set,
            // map RAM never holds the task's full output.
            Some((session, _)) if !emitter.is_empty() => spill(session, &mut emitter, &mut result)?,
            Some(_) => {}
            None => result.frame_tail(&emitter, self.partitioner),
        }
        Ok(result)
    }

    /// One map task through the retry ladder, then Hadoop's
    /// skip-bad-records protocol: when the budget exhausts with a panic,
    /// the tracker's last progress report names the suspect record; it
    /// enters the skip set and the task re-runs without it. Scripted
    /// attempt failures were consumed by the first round, so later rounds
    /// face only the data. Each round retires one record, bounding the
    /// loop by the split length. A storage failure names no record: the
    /// spill that failed holds whatever the buffer held.
    fn run_map_task(&self, i: usize) -> (Exec<MapResult<K>>, BTreeSet<usize>) {
        let (config, cluster, ft) = (self.config, self.cluster, &self.config.fault_tolerance);
        let fault = ft.plan.task_fault(&config.name, TaskKind::Map, i);
        let split_len = self.source.split_len(i);
        let mut skips: BTreeSet<usize> = BTreeSet::new();
        let progress = AtomicUsize::new(usize::MAX);
        let round = |first, fault: &TaskFault, skips: &BTreeSet<usize>| {
            progress.store(usize::MAX, Ordering::Relaxed);
            run_attempts(
                first,
                fault,
                &ft.retry,
                cluster.progress_timeout,
                |attempt, inject| self.map_attempt(i, attempt, inject, skips, &progress),
            )
        };
        let mut exec = round(0, &fault, &skips);
        let mut round_fault = fault;
        round_fault.failures = 0;
        for _round in 0..split_len {
            if exec.succeeded() || !cluster.skip_bad_records {
                break;
            }
            // Only a panicking attempt names a record; lost outputs, hangs
            // and storage failures are the host's fault, not the data's.
            let panicked = matches!(
                exec.failures.last().map(|f| &f.cause),
                Some(FailureCause::Panic { .. })
            );
            let suspect = progress.load(Ordering::Relaxed);
            if !panicked || suspect >= split_len || !skips.insert(suspect) {
                break;
            }
            let next = round(exec.attempts, &round_fault, &skips);
            exec.attempts += next.attempts;
            exec.failures.extend(next.failures);
            exec.value = next.value;
            if next.payload.is_some() {
                exec.payload = next.payload;
            }
        }
        ((exec, fault), skips)
    }

    /// The facts the clock reads off map task `i`'s execution, whichever
    /// wave ran it. Split lengths are model facts the source reports
    /// without materializing records; a task that never succeeded
    /// contributes only its failures.
    fn map_model(&self, i: usize, (exec, fault): &Exec<MapResult<K>>) -> TaskModel {
        let output = exec.value.as_ref();
        let disk_bytes = |o: &MapResult<K>| o.segments.iter().map(Segment::disk_bytes).collect();
        TaskModel {
            records_in: self.source.split_len(i) as u64,
            keys_in: 0,
            records_out: output.map_or(0, |o| o.records),
            bytes: output.map_or(0, |o| o.bucket_bytes.iter().sum()),
            work: output.map_or(0, |o| o.work),
            failures: fail_kinds(exec),
            denied: output.is_none(),
            slowdown: fault.slowdown,
            spills: output.map_or_else(Vec::new, disk_bytes),
            merge: None,
            backup: None,
        }
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
        let model = |(i, exec)| self.map_model(i, exec);
        run.record.map = execs.iter().enumerate().map(model).collect();
        self.strike_nodes(TaskKind::Map, &execs, run);
        // A backup runs clean, its skip set honoured; no skip protocol
        // reads its progress.
        let progress = AtomicUsize::new(usize::MAX);
        let rerun = |i, a| self.map_attempt(i, a, Inject::None, &skips[i], &progress);
        let failed = self.settle(TaskKind::Map, &mut execs, &mut run.record, rerun);
        if let Some(index) = failed {
            return Err(self.fail(TaskKind::Map, index, execs.swap_remove(index).0, run));
        }
        run.outputs = winners(&mut execs);
        run.skips = skips;
        Ok(())
    }

    /// Blacklist pass: attributes the phase's failed attempts to the nodes
    /// they ran on; nodes over the strike budget leave scheduling for the
    /// rest of the job.
    fn strike_nodes<T>(&self, kind: TaskKind, execs: &[Exec<T>], run: &mut Run<'a, K>) {
        let ft = &self.config.fault_tolerance;
        let (Some(placement), Some(policy)) = (&self.cluster.placement, &ft.blacklist) else {
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

    /// Re-executes `tasks` through the retry ladder — no injection, skip
    /// sets honoured — and replaces their materialized outputs wholesale
    /// (byte-identical because UDFs are pure). Serves the lost-partition,
    /// node-loss, and at-rest-corruption waves: each re-execution's own
    /// model goes into the record's reruns under `phase`, where the
    /// timeline prices, counts and draws it like a phase task. The
    /// lowest-indexed task that exhausts its budget aborts the job.
    fn rerun_maps(
        &self,
        tasks: &BTreeSet<usize>,
        run: &mut Run<'a, K>,
        phase: Phase,
    ) -> Result<(), JobError> {
        let tasks: Vec<usize> = tasks.iter().copied().collect();
        let (record, skips) = (&run.record, &run.skips);
        let reruns = run_indexed(tasks.len(), self.cluster.host_threads, |c| {
            let i = tasks[c];
            let first = attempts_ran(record, i);
            let progress = AtomicUsize::new(usize::MAX);
            let replay = |a, inject| self.map_attempt(i, a, inject, &skips[i], &progress);
            let ft = &self.config.fault_tolerance;
            let (retry, timeout) = (&ft.retry, self.cluster.progress_timeout);
            let fault = TaskFault::none();
            (run_attempts(first, &fault, retry, timeout, replay), fault)
        });
        let model = |(&i, exec)| (phase, i, self.map_model(i, exec));
        let models = tasks.iter().zip(&reruns).map(model);
        run.record.reruns.extend(models);
        for (&i, (mut exec, _)) in tasks.iter().zip(reruns) {
            match exec.value.take() {
                Some(output) => run.outputs[i] = output,
                None => return Err(self.fail(TaskKind::Map, i, exec, run)),
            }
        }
        Ok(())
    }

    fn recover_map_outputs(&self, run: &mut Run<'a, K>) -> Result<(), JobError> {
        let (cluster, config) = (self.cluster, self.config);
        // Lost shuffle partitions: the affected map tasks re-execute
        // (their inputs are replayable) in a second wave.
        let (m, r) = (self.source.num_splits(), config.num_reducers);
        let plan = &config.fault_tolerance.plan;
        run.record.lost = plan.lost_partitions_for(&config.name, m, r);
        let affected: BTreeSet<usize> = run.record.lost.iter().map(|&(i, _)| i).collect();
        self.rerun_maps(&affected, run, Phase::Recovery)?;

        self.resolve_node_losses(run)?;
        // Dead and blacklisted nodes took their slots with them: whatever
        // re-executes from here on runs on what survived.
        run.record.surviving_map_slots = run.surviving_slots(cluster.map_slots);
        Ok(())
    }

    /// Node losses land at the shuffle barrier, once every map task has
    /// committed: the map outputs homed on a lost node are gone and
    /// re-execute on the surviving nodes, where their replacements
    /// materialize. The timeline charges the heartbeat wait before that
    /// wave (folded into the map phase).
    fn resolve_node_losses(&self, run: &mut Run<'a, K>) -> Result<(), JobError> {
        let (cluster, config) = (self.cluster, self.config);
        let Some(placement) = &cluster.placement else {
            return Ok(());
        };
        let plan = &config.fault_tolerance.plan;
        run.record.node_losses = plan.node_losses_for(&config.name, cluster.nodes);
        let lost = |&i: &usize| run.record.node_losses.contains(&run.map_homes[i]);
        let affected: BTreeSet<usize> = (0..run.map_homes.len()).filter(lost).collect();
        let survivors = run.survivors();
        for &i in &affected {
            run.map_homes[i] = placement.task_home(&config.name, TaskKind::Map, i, &survivors);
        }
        self.rerun_maps(&affected, run, Phase::Reexec)
    }

    // ---- Fetch -----------------------------------------------------------

    fn fetch(&self, run: &mut Run<'a, K>) -> Result<Vec<ReduceInput>, JobError> {
        let (cluster, config) = (self.cluster, self.config);
        let (m, r) = (self.source.num_splits(), config.num_reducers);
        // With a placement, reducers get homes too (over surviving nodes),
        // and only buckets whose producing map task is homed elsewhere
        // cross the network; without one, reducers sit round-robin on the
        // nodes and the closed-form remote fraction applies.
        let survivors = run.survivors();
        let homes: Vec<usize> = match &cluster.placement {
            Some(p) => (0..r)
                .map(|j| p.task_home(&config.name, TaskKind::Reduce, j, &survivors))
                .collect(),
            None => (0..r).map(|j| j % cluster.nodes.max(1)).collect(),
        };
        // Partition fetches whose frames arrive corrupted, keyed by
        // (map, reducer). One bad fetch is transient: the reducer
        // re-fetches and the second copy verifies. Two bad fetches mean
        // the materialized map output itself is rotten: the producer
        // re-executes before anything below consumes it, in a wave of its
        // own ahead of the shuffle, where the corruption was found.
        let corrupt_plan: BTreeMap<(usize, usize), CorruptFetch> = config
            .fault_tolerance
            .plan
            .corrupt_fetches_for(&config.name, m, r)
            .into_iter()
            .map(|c| ((c.map, c.reducer), c))
            .collect();
        let at_rest = corrupt_plan.values().filter(|c| c.fetches >= 2);
        let rotten: BTreeSet<usize> = at_rest.map(|c| c.map).collect();
        self.rerun_maps(&rotten, run, Phase::Rotten)?;

        // Bytes each reducer's fetch carries to its home.
        let mut fetched = vec![0u64; r];
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
                if cluster.placement.is_none() || run.map_homes[i] != homes[j] {
                    fetched[j] += result.bucket_bytes[j];
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
                    // Each failed fetch re-transfers the partition's bytes
                    // at rest. At-rest corruption (two bad fetches) already
                    // escalated to re-executing the producer above, so the
                    // bytes in hand are clean either way.
                    let failed = c.fetches.min(2);
                    let part_len = |s: &Segment| s.parts.get(j).map(|p| p.len);
                    let spilled: u64 = result.segments.iter().filter_map(part_len).sum();
                    let bytes = frame.as_ref().map_or(spilled, |f| f.len() as u64);
                    refetch_bytes += bytes * u64::from(failed);
                    run.record.corrupt.push(CorruptEvent {
                        map: i,
                        reducer: j,
                        fetches: failed,
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
        run.outputs.clear();
        if self.spill.is_some() {
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
            // A run that cannot be read is left to the reduce attempt that
            // reads it, so debug and release builds end a fault alike.
            let runs: Result<Vec<Vec<RunSource<K, V>>>, _> =
                inputs.iter().map(ReduceInput::open).collect();
            if let Ok(runs) = runs {
                crate::analysis::assert_shuffle_invariants(&emitted, produced, runs);
            }
        }

        // Transfers first: each reducer's fetch over its home node's
        // downlink, the busiest downlink setting the pace. Then the stalls:
        // transient node partitions for their duration (model ticks), and
        // each failed fetch re-transferring its whole partition (always
        // remote — the local copy is the bad one).
        let fetches: Vec<(usize, u64)> = homes.into_iter().zip(fetched).collect();
        let transfer = cluster.shuffle_time(&fetches);
        let stalls = match &cluster.placement {
            Some(_) => config
                .fault_tolerance
                .plan
                .node_partitions_for(&config.name, cluster.nodes),
            None => Vec::new(),
        };
        let partition_stall = Duration::from_micros(stalls.iter().map(|p| p.for_ticks).sum());
        let refetch_stall =
            Duration::from_secs_f64(refetch_bytes as f64 / cluster.network_bytes_per_sec);
        run.record.shuffle_stall = partition_stall + refetch_stall;
        run.record.shuffle_time = transfer + run.record.shuffle_stall;
        run.record.per_reducer_bytes = per_reducer_bytes;
        run.record.fetches = fetches;
        Ok(inputs)
    }

    // ---- Reduce ----------------------------------------------------------

    /// The one reduce-attempt body: open the reducer's runs, merge them
    /// (cascading through disk first when more spill runs than the fan-in
    /// are open), and stream `(key, values)` groups through the UDF in
    /// key order, values in run priority order. Every spilled byte is
    /// CRC-checked here, by the merge that reads it.
    fn reduce_attempt(
        &self,
        j: usize,
        input: &ReduceInput,
        attempt: u32,
        inject: Inject,
    ) -> Result<ReduceResult<Out>, StorageError> {
        let ctx = self.task_context(j, self.config.num_reducers, attempt);
        let mut task = self.reduce_factory.create(&ctx);
        let mut out = OutputCollector::default();
        let crash = || -> ! {
            crate::pool::raise_injected_panic(format!(
                "[fault-injection] reduce task {j} attempt {attempt} crashed mid-task"
            ))
        };
        // An injected mid-task crash fires at the group that crosses the
        // input's middle record.
        let crash_at = match inject {
            Inject::MidTaskPanic => Some(input.records / 2),
            Inject::None => None,
        };
        if crash_at.is_some() && input.records == 0 {
            crash();
        }
        let storage = &self.cluster.storage;
        let runs = input.open()?;
        let mut merge = match &self.spill {
            // Disk runs exist only under a budget, and so does the session
            // their cascade writes into; memory runs never cascade.
            Some(session) => {
                external_merge(session, j, runs, storage.merge_fan_in, storage.io_chunk).map(
                    |(merge, ran)| {
                        // What fetch priced is what ran (under a budget every run
                        // is a disk run: the map tail spills too).
                        let facts = |m: MergeStats| (m.runs, m.passes, m.seeks);
                        debug_assert_eq!(input.merge.map(facts), Some(facts(ran)));
                        merge
                    },
                )
            }
            None => KWayMerge::open(runs),
        }?;
        let (mut keys, mut streamed) = (0u64, 0u64);
        while let Some((k, vs)) = merge.next_group()? {
            streamed += vs.len() as u64;
            if crash_at.is_some_and(|middle| streamed > middle) {
                crash();
            }
            keys += 1;
            task.reduce(k, vs, &mut out);
        }
        task.finish(&mut out);
        let (records, work) = out.into_parts();
        Ok(ReduceResult {
            records,
            keys,
            work,
            counters: ctx.counters,
        })
    }

    fn reduce_stage(
        &self,
        inputs: &[ReduceInput],
        run: &mut Run<'a, K>,
    ) -> Result<Vec<Vec<Out>>, JobError> {
        let (cluster, config) = (self.cluster, self.config);
        let r = config.num_reducers;
        let mut execs: Vec<Exec<ReduceResult<Out>>> = run_indexed(r, cluster.host_threads, |j| {
            let ft = &config.fault_tolerance;
            let fault = ft.plan.task_fault(&config.name, TaskKind::Reduce, j);
            let exec = run_attempts(
                0,
                &fault,
                &ft.retry,
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
                keys_in: output.map_or(0, |o| o.keys),
                records_out: output.map_or(0, |o| o.records.len() as u64),
                bytes: run.record.per_reducer_bytes[j],
                work: output.map_or(0, |o| o.work),
                failures: fail_kinds(exec),
                denied: output.is_none(),
                slowdown: fault.slowdown,
                spills: Vec::new(),
                // The external-merge cascade's disk traffic: a closed-form
                // cost every attempt of the reducer incurs identically.
                merge: input.merge,
                backup: None,
            }
        };
        run.record.reduce = (0..r).map(model).collect();
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
    /// reads every simulated time off its log, derives the registry from
    /// the record, and reads the countable fields off the registry (they
    /// are a facade over its counters), so an abort reports every fact the
    /// stages before it established. The log is returned for the trace to
    /// be drawn from.
    fn close(&self, run: &mut Run<'a, K>) -> (MetricsRegistry, JobMetrics, Vec<Wave>) {
        let record = &mut run.record;
        record.user_counters = self.counters.snapshot().into_iter().collect();
        let log = JobRecord::timeline(record);
        let registry = JobRecord::build_registry(record);
        let at = |phase: Phase| &log[phase as usize];
        // The map phase ends with the node-loss wave, where the shuffle
        // phase starts: the at-rest-corruption wave is the shuffle's.
        let (map, reexec, reduce) = (at(Phase::Map), at(Phase::Reexec), at(Phase::Reduce));
        let startup = ticks_of(self.cluster.job_startup);
        let durations = |tasks: &[TaskModel]| -> Vec<Duration> {
            let held = |t| from_ticks(record.slot_ticks(t));
            tasks.iter().map(held).collect()
        };
        let metrics = JobMetrics {
            name: self.config.name.clone(),
            map_tasks: self.source.num_splits(),
            reduce_tasks: self.config.num_reducers,
            map_phase: from_ticks(reexec.end - map.start),
            reduce_phase: from_ticks(reduce.span()),
            shuffle_bytes: registry.counter("shuffle.bytes"),
            per_reducer_bytes: record.per_reducer_bytes.clone(),
            shuffle_time: from_ticks(reduce.start - reexec.end),
            cache_bytes: record.cache_bytes,
            broadcast_time: from_ticks(at(Phase::Setup).span() - startup),
            startup_time: from_ticks(startup),
            sim_runtime: from_ticks(reduce.end),
            host_wall: self.started.elapsed(),
            map_output_records: registry.counter("map.records_out"),
            reduce_input_keys: registry.counter("reduce.input_keys"),
            output_records: registry.counter("reduce.records_out"),
            map_retries: registry.counter("map.retries"),
            reduce_retries: registry.counter("reduce.retries"),
            attempts: registry.counter("task.attempts"),
            wasted_task_time: from_ticks(record.wasted()),
            speculative_wins: registry.counter("task.speculative_wins"),
            backoff_time: from_ticks(record.backoff()),
            nodes_lost: registry.counter("node.lost"),
            maps_reexecuted: registry.counter("map.reexecuted"),
            reexecution_time: from_ticks(reexec.end - at(Phase::Recovery).end),
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
            steps: record.steps(),
        };
        (registry, metrics, log)
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
        let (registry, metrics, log) = self.close(&mut run);
        if let Some(collector) = &self.config.collector {
            JobRecord::emit(&run.record, &log, collector, registry.clone());
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
    use crate::fault::{FaultKind, RetryPolicy};
    use crate::partitioner::{HashPartitioner, ModuloPartitioner};
    use crate::storage::segment::tests::rot;
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
            .with_fault_tolerance(&FaultTolerance::with_plan(plan.clone()).with_speculation());
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
            .with_fault_tolerance(&FaultTolerance::with_plan(plan.clone()).with_speculation());
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
        let config = JobConfig::new("wc", 2).with_fault_tolerance(
            &FaultTolerance::with_plan(plan).with_retry(RetryPolicy::new().with_max_attempts(3)),
        );
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
        let config = JobConfig::new("wc", 1).with_fault_tolerance(
            &FaultTolerance::with_plan(plan).with_retry(RetryPolicy::new().with_max_attempts(2)),
        );
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
        assert!(!config.fault_tolerance.speculation);
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
        let retry = RetryPolicy::new().with_max_attempts(2);
        let config = JobConfig::new("bad", 1).with_fault_tolerance(&FaultTolerance {
            retry,
            ..FaultTolerance::none()
        });
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
        let config = JobConfig::new("wc", 2).with_fault_tolerance(
            &FaultTolerance::with_plan(plan).with_retry(RetryPolicy::new().with_max_attempts(3)),
        );
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
        let faulty = run(FaultPlan::none().with_node_loss(victim));
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

    /// A loss that homed no map output re-executes nothing, so nothing
    /// waits on the heartbeat — the reducers are homed over the survivors —
    /// yet the loss is counted and drawn where the map wave ends.
    #[test]
    fn a_loss_that_homes_no_map_output_waits_out_no_heartbeat() {
        use skymr_telemetry::EventKind;
        let cluster = ClusterConfig::test_placed(0xBEEF);
        let placement = Placement::new(0xBEEF);
        let alive: Vec<usize> = (0..cluster.nodes).collect();
        let home = |i| placement.task_home("wc", TaskKind::Map, i, &alive);
        let homes: BTreeSet<usize> = (0..splits().len()).map(home).collect();
        let idle = alive.into_iter().find(|n| !homes.contains(n));
        let idle = idle.expect("some node homes no map output");
        let collector = Collector::new();
        let config = JobConfig::new("wc", 2)
            .with_faults(FaultPlan::none().with_node_loss(idle))
            .with_collector(Some(collector.clone()));
        let out = word_count_on(&cluster, &config).expect("job must survive a node loss");
        assert_eq!(out.metrics.nodes_lost, 1);
        assert_eq!(out.metrics.maps_reexecuted, 0);
        assert_eq!(out.metrics.reexecution_time, Duration::ZERO);
        let doc = collector.finish();
        assert!(doc.events.iter().all(|e| e.name != "heartbeat"));
        let complete = |e: &&skymr_telemetry::TraceEvent| e.kind == EventKind::Complete;
        let maps = doc
            .events
            .iter()
            .filter(complete)
            .filter(|e| e.cat == "map");
        let map_end = maps.map(|e| e.ts + e.dur).max();
        let losses: Vec<_> = doc
            .events
            .iter()
            .filter(|e| e.name == "node-loss")
            .collect();
        assert_eq!(losses.len(), 1, "the loss is drawn");
        assert_eq!(Some(losses[0].ts), map_end);
        assert_eq!(sorted_counts(out), expected_counts());
    }

    #[test]
    fn node_events_are_inert_without_a_placement() {
        let plan = FaultPlan::none()
            .with_node_loss(0)
            .with_node_partition(1, 500);
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
        let stalled = run(FaultPlan::none().with_node_partition(0, 700));
        assert_eq!(
            stalled.metrics.shuffle_time,
            clean.metrics.shuffle_time + Duration::from_micros(700),
            "the partition window stalls the shuffle barrier"
        );
        assert_eq!(sorted_counts(stalled), sorted_counts(clean));
    }

    /// The trace draws the shuffle the model charged: each reducer's fetch
    /// on its placed home's downlink, then one stall span for the node
    /// partition and the corrupt re-fetches — so the busiest downlink plus
    /// the stall ends where the reduce wave starts.
    #[test]
    fn the_trace_draws_the_shuffle_the_model_charged() {
        use skymr_telemetry::EventKind;
        let mut cluster = ClusterConfig::test_placed(0xBEEF);
        cluster.network_bytes_per_sec = 1e4;
        let mut plan = FaultPlan::none().with_node_partition(0, 700);
        for reducer in 0..3 {
            plan = plan.with_corrupt_shuffle(0, reducer, 1);
        }
        let collector = Collector::new();
        let config = JobConfig::new("wc", 3)
            .with_faults(plan)
            .with_collector(Some(collector.clone()));
        let job = run_job(
            &cluster,
            &config,
            &many_spills(),
            &WcMap,
            &WcReduce,
            &HashPartitioner,
        );
        job.expect("the job must survive");
        let doc = collector.finish();
        let spans = |cat: &'static str| {
            let complete = move |e: &&skymr_telemetry::TraceEvent| {
                e.kind == EventKind::Complete && e.cat == cat
            };
            doc.events.iter().filter(complete)
        };
        let reduce_start = spans("reduce").map(|e| e.ts).min().expect("reduce spans");
        let stall = spans("shuffle")
            .find(|e| e.name == "shuffle stall")
            .expect("the stall is drawn");
        assert!(stall.dur > 700, "the partition and the re-fetch both stall");
        assert_eq!(stall.ts + stall.dur, reduce_start);
        // Per downlink: where its last transfer ends, and how many it drew.
        let mut lanes: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for e in spans("shuffle").filter(|e| e.name.starts_with("shuffle→")) {
            let (end, count) = lanes.entry(e.tid).or_default();
            *end = (*end).max(e.ts + e.dur);
            *count += 1;
        }
        let &(end, count) = lanes.values().max().expect("transfers are drawn");
        let drawn = end + stall.dur;
        assert!(
            drawn.abs_diff(reduce_start) <= count + 1,
            "busiest downlink ends at {end}, plus a {}-tick stall, against a reduce start of {reduce_start}",
            stall.dur
        );
    }

    #[test]
    fn failing_nodes_are_blacklisted() {
        let cluster = ClusterConfig::test_placed(9);
        let plan = FaultPlan::none()
            .with_map_fault(0, TaskFault::lost(2))
            .with_map_fault(1, TaskFault::lost(1));
        let config = JobConfig::new("wc", 2).with_fault_tolerance(
            &FaultTolerance::with_plan(plan)
                .with_blacklist(BlacklistPolicy::new().with_max_failures(1)),
        );
        let out = word_count_on(&cluster, &config).expect("job must succeed");
        assert!(out.metrics.nodes_blacklisted >= 1, "strikes were recorded");
        assert_eq!(
            out.registry.counter("node.blacklisted"),
            out.metrics.nodes_blacklisted
        );
        // A reduce-phase abort reports the blacklist the map phase already
        // established (it used to report zero), plus its own strikes.
        let mut doomed = config.clone();
        let ft = &mut doomed.fault_tolerance;
        ft.plan = std::mem::take(&mut ft.plan).with_reduce_fault(0, TaskFault::lost(u32::MAX));
        ft.retry = RetryPolicy::new().with_max_attempts(3);
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
        // The clean baseline stays in memory whatever budget the
        // environment sets for the rest of the suite.
        let mut in_memory = ClusterConfig::test();
        in_memory.storage.memory_budget = None;
        let clean = word_count_on(&in_memory, &JobConfig::new("wc", 2)).expect("clean run");
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
        let mut narrow = in_memory.clone();
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
        let doomed = JobConfig::new("wc", 2).with_fault_tolerance(
            &FaultTolerance::with_plan(
                FaultPlan::none().with_map_fault(1, TaskFault::lost(u32::MAX)),
            )
            .with_retry(RetryPolicy::new().with_max_attempts(2)),
        );
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
                none().with_node_loss(victim),
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
                config.fault_tolerance.speculation = speculate;
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

    /// Spill-mode corruption is priced from the spilled partition's bytes
    /// and routes into the re-fetch → re-exec ladder.
    #[test]
    fn spill_segment_corruption_routes_into_the_recovery_ladder() {
        let cluster = spill_cluster(1);
        let run = |plan: FaultPlan| {
            word_count_on(&cluster, &JobConfig::new("wc", 2).with_faults(plan))
                .expect("spill run must survive")
        };
        // Transient: the first fetch delivers corrupted bytes, the re-fetch
        // reads the untouched segment.
        let transient = run(FaultPlan::none().with_corrupt_shuffle(0, 0, 1));
        assert_eq!(transient.metrics.corrupt_fetches, 1);
        assert_eq!(transient.registry.counter("shuffle.corrupt_partitions"), 1);
        assert_eq!(transient.metrics.map_retries, 0);
        assert_eq!(sorted_counts(transient), expected_counts());
        // At rest: both fetches fail, the producing map re-executes and
        // rewrites its segments.
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
    /// flips a bit in the first frame of chosen spill segments of its own —
    /// at-rest corruption the fault plan knows nothing about, so no
    /// recovery is scheduled and only the reducers' frame checks stand
    /// between it and the UDF.
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
                // Partitions lie in reducer order, so the file's first
                // frame belongs to the lowest partition holding bytes; its
                // own keys say which one that is.
                let path = &mine[spill].1;
                let bytes = std::fs::read(path).expect("segment bytes");
                let header = bytes[..4].try_into().expect("frame header");
                let len = u32::from_le_bytes(header) as usize + skymr_common::bytes::FRAME_OVERHEAD;
                let pairs: Vec<(String, u64)> = decode_pairs(&bytes[..len]).expect("first frame");
                let part = HashPartitioner.partition(&pairs[0].0, 2);
                rot(path, 0, len as u64, 0xBAD5EED);
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

    /// A spill root of the test's own, under the OS temp directory.
    fn test_root(tag: &str, host_threads: usize) -> std::path::PathBuf {
        let pid = std::process::id();
        std::env::temp_dir().join(format!("skymr-{tag}-{pid}-{host_threads}"))
    }

    /// What an aborted job's error says, for comparing thread counts. The
    /// spill path an I/O error names differs run to run, so it is cut.
    fn failure_of(err: &JobError) -> (TaskKind, usize, u32, String) {
        let mut cause = err.last_cause();
        let tmp = std::env::temp_dir().to_string_lossy().into_owned();
        if let Some(at) = cause.find(&tmp) {
            let end = cause[at..].find("): ").map_or(cause.len(), |n| at + n);
            cause.replace_range(at..end, "<path>");
        }
        (err.task, err.index, err.attempts, cause)
    }

    /// Two spill partitions rot on disk behind the plan's back. No
    /// recovery is scheduled for them: every attempt of a reducer that
    /// reads one fails its frame check, and the job ends on the
    /// lowest-indexed failing reducer — the same error whatever the
    /// thread count, and no panic.
    #[test]
    fn rotten_spill_data_fails_the_lowest_reducer_that_reads_it() {
        let failure = |host_threads: usize| {
            let root = test_root("rot-test", host_threads);
            std::fs::create_dir_all(&root).expect("spill root");
            let mut cluster = spill_cluster(1);
            cluster.host_threads = host_threads;
            cluster.storage.spill_dir = Some(root.clone());
            let plan = Sabotage {
                root: root.clone(),
                targets: vec![(2, 0), (0, 1)],
                hit: parking_lot::Mutex::new(Vec::new()),
            };
            let config = JobConfig::new("wc", 2);
            let factory = Saboteur(&plan);
            let job = run_job(
                &cluster,
                &config,
                &splits(),
                &factory,
                &WcReduce,
                &HashPartitioner,
            );
            let _ = std::fs::remove_dir_all(&root);
            let err = job.expect_err("rotten spill data must fail its reducer");
            let hit = plan.hit.lock().clone();
            assert_eq!(hit.len(), 2, "both partitions were corrupted");
            let lowest = hit.iter().map(|&(_, _, part)| part).min();
            assert_eq!((err.task, Some(err.index)), (TaskKind::Reduce, lowest));
            assert_eq!(err.attempts, config.fault_tolerance.retry.attempt_budget());
            assert!(err.last_cause().starts_with("spill data corrupt"), "{err}");
            assert!(err.payload.is_none(), "a storage failure is not a panic");
            failure_of(&err)
        };
        assert_eq!(failure(1), failure(4));
    }

    /// A spill root that is a regular file: the first spill of every map
    /// task fails, and the job ends on map task 0 with the I/O error — the
    /// same error whatever the thread count.
    #[test]
    fn an_unusable_spill_root_fails_the_first_spilling_map_task() {
        let failure = |host_threads: usize| {
            let root = test_root("root-file-test", host_threads);
            std::fs::write(&root, b"not a directory").expect("root file");
            let mut cluster = spill_cluster(1);
            cluster.host_threads = host_threads;
            cluster.storage.spill_dir = Some(root.clone());
            let job = word_count_on(&cluster, &JobConfig::new("wc", 2));
            std::fs::remove_file(&root).expect("root file");
            let err = job.expect_err("no spill can land");
            assert_eq!((err.task, err.index), (TaskKind::Map, 0));
            assert!(err.last_cause().starts_with("storage I/O"), "{err}");
            let root = root.to_string_lossy();
            assert!(err.last_cause().contains(&*root), "names the path: {err}");
            let failure = failure_of(&err);
            let common: skymr_common::Error = err.into();
            assert!(common.to_string().contains("storage I/O"), "{common}");
            failure
        };
        assert_eq!(failure(1), failure(4));
    }

    /// Word count whose map task 0, on its first attempt, replaces the
    /// job's spill directory with a regular file right after its first
    /// spill: a spill directory gone bad under a running job.
    struct Evict<'a> {
        root: &'a std::path::Path,
        map: usize,
        attempt: u32,
        mapped: usize,
    }
    impl MapTask for Evict<'_> {
        type In = String;
        type K = String;
        type V = u64;
        fn map(&mut self, input: &String, out: &mut Emitter<String, u64>) {
            if (self.map, self.attempt, self.mapped) == (0, 0, 1) {
                for session in std::fs::read_dir(self.root).expect("spill root") {
                    let dir = session.expect("entry").path();
                    std::fs::remove_dir_all(&dir).expect("spill dir");
                    std::fs::write(&dir, b"evicted").expect("a file in its place");
                }
            }
            self.mapped += 1;
            WcMapTask.map(input, out);
        }
    }

    /// A storage failure names no record: with skip-bad-records on, a spill
    /// directory gone bad fails map task 0 through its retry budget and
    /// the job aborts with nothing skipped.
    #[test]
    fn a_storage_failure_never_retires_a_record() {
        let root = test_root("evict-test", 1);
        std::fs::create_dir_all(&root).expect("spill root");
        let mut cluster = spill_cluster(1);
        cluster.host_threads = 1;
        cluster.skip_bad_records = true;
        cluster.storage.spill_dir = Some(root.clone());
        let config = JobConfig::new("wc", 2);
        let factory = |ctx: &TaskContext| Evict {
            root: &root,
            map: ctx.task_index,
            attempt: ctx.attempt,
            mapped: 0,
        };
        let job = run_job(
            &cluster,
            &config,
            &splits(),
            &factory,
            &WcReduce,
            &HashPartitioner,
        );
        let _ = std::fs::remove_dir_all(&root);
        let err = job.expect_err("the spill directory is gone");
        assert_eq!((err.task, err.index), (TaskKind::Map, 0));
        assert!(
            err.attempts <= config.fault_tolerance.retry.attempt_budget(),
            "{err}"
        );
        assert_eq!(err.metrics.records_skipped, 0, "no record was to blame");
        assert!(err.last_cause().starts_with("storage I/O"), "{err}");
    }

    /// One tenant's job hits an unusable spill root; it fails alone and
    /// the healthy tenant's job completes with its output intact.
    #[test]
    fn a_storage_failure_is_isolated_to_its_own_tenant() {
        use crate::sched::{ClusterExecutor, JobSpec};
        let root = test_root("tenant-root-file", 1);
        std::fs::write(&root, b"not a directory").expect("root file");
        let mut exec = ClusterExecutor::new(ClusterConfig::test());
        let word_count_plane = |cluster: &ClusterConfig| -> Result<_, skymr_common::Error> {
            let out = word_count_on(cluster, &JobConfig::new("wc", 2))?;
            let metrics = out.metrics.clone();
            Ok((sorted_counts(out), vec![metrics]))
        };
        let bad_root = root.clone();
        let bad = exec
            .submit(
                JobSpec::new("spills", "a"),
                move |cluster: &ClusterConfig| {
                    let mut cluster = cluster.clone();
                    cluster.storage.memory_budget = Some(1);
                    cluster.storage.spill_dir = Some(bad_root);
                    word_count_plane(&cluster)
                },
            )
            .expect("submitted");
        let good = exec
            .submit(JobSpec::new("in-memory", "b"), word_count_plane)
            .expect("submitted");
        let report = exec.run();
        std::fs::remove_file(&root).expect("root file");
        assert_eq!((report.failed, report.completed), (1, 1));
        match exec.take(bad) {
            crate::sched::JobCompletion::Failed(e) => {
                assert!(e.to_string().contains("storage I/O"), "{e}");
            }
            other => panic!("the spilling tenant must fail: {other:?}"),
        }
        assert_eq!(exec.take(good).unwrap().output, expected_counts());
    }

    /// Frames sit at rest from the end of their map attempt; scripted
    /// corruption — transient or escalated — is a priced fetch, never a
    /// change to them, so every reduce attempt (retries included) still
    /// opens clean frames.
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

    /// Attempt spans (`attempt k` and speculative `backup`) in a trace.
    fn attempts_drawn(doc: &skymr_telemetry::TraceDocument) -> u64 {
        let attempt = |e: &&skymr_telemetry::TraceEvent| e.cat == "attempt";
        doc.events.iter().filter(attempt).count() as u64
    }

    /// Checks that every task span of `doc` is exactly its terms: from the
    /// span's start, a launch gap of `overhead` before each attempt child,
    /// the backoff children between them, back to back to the span's end
    /// (where a backup wins, the original's children are clipped there).
    /// A lost output costs a full attempt, so each `lost_output` child is
    /// as long as its task's committed attempt unless a backup won. Returns
    /// whether a backup won anywhere.
    fn assert_spans_are_their_terms(doc: &skymr_telemetry::TraceDocument, overhead: u64) -> bool {
        use skymr_telemetry::{ArgValue, EventKind, TraceEvent};
        let arg = |e: &TraceEvent, key: &str| {
            let (_, value) = e.args.iter().find(|(k, _)| k == key)?;
            Some(value.clone())
        };
        let outcome = |e: &TraceEvent| match arg(e, "outcome") {
            Some(ArgValue::Str(s)) => s,
            _ => String::new(),
        };
        let mut backup_won = false;
        let tasks = doc.events.iter().filter(|e| {
            e.kind == EventKind::Complete && ["map", "reduce", "reexec"].contains(&e.cat.as_str())
        });
        for task in tasks {
            let id = arg(task, "span_id");
            let mut children: Vec<&TraceEvent> = doc
                .events
                .iter()
                .filter(|e| arg(e, "parent_id") == id)
                .collect();
            let won = |e: &&TraceEvent| e.name == "backup" && outcome(e) == "winner";
            backup_won |= children.iter().any(won);
            children.retain(|e| e.cat == "backoff" || (e.cat == "attempt" && e.name != "backup"));
            children.sort_by_key(|e| e.ts);
            let mut cursor = task.ts;
            for child in &children {
                let gap = if child.cat == "attempt" { overhead } else { 0 };
                assert_eq!(
                    child.ts,
                    cursor + gap,
                    "{}: {} starts",
                    task.name,
                    child.name
                );
                cursor = child.ts + child.dur;
            }
            assert_eq!(
                cursor,
                task.ts + task.dur,
                "{}: its terms end it",
                task.name
            );
            // A winning backup kills the committed attempt: it is drawn
            // `killed` and clipped, and nothing is compared.
            let Some(committed) = children.iter().find(|e| outcome(e) == "winner") else {
                continue;
            };
            for lost in children.iter().filter(|e| outcome(e) == "lost_output") {
                let name = (&task.name, &lost.name);
                assert_eq!(lost.dur, committed.dur, "{name:?} is a full attempt");
            }
        }
        backup_won
    }

    /// Checks that every fault instant of `doc` sits where its cause does:
    /// each `node-loss` instant at the start of the `(re-exec)` wave it
    /// causes, and each `hang-kill` instant at the end of a hung attempt
    /// span on its lane that is exactly `progress_timeout` long. Returns
    /// how many instants were checked.
    fn assert_fault_instants_are_causal(
        doc: &skymr_telemetry::TraceDocument,
        progress_timeout: Duration,
    ) -> usize {
        use skymr_telemetry::{ArgValue, EventKind, TraceEvent};
        let instants = |name: &'static str| {
            let named = move |e: &&TraceEvent| e.kind == EventKind::Instant && e.name == name;
            doc.events.iter().filter(named)
        };
        let reexec = doc.events.iter().filter(|e| e.name.ends_with(" (re-exec)"));
        let wave_start = reexec.map(|e| e.ts).min();
        for loss in instants("node-loss") {
            assert_eq!(Some(loss.ts), wave_start, "node-loss at the re-exec wave");
        }
        let timeout = ticks_of(progress_timeout);
        let hung = Some(ArgValue::Str("hang".to_owned()));
        for kill in instants("hang-kill") {
            let ends_here = |e: &&TraceEvent| {
                let outcome = e.args.iter().find(|(k, _)| k == "outcome");
                e.cat == "attempt"
                    && e.tid == kill.tid
                    && e.ts + e.dur == kill.ts
                    && outcome.map(|(_, v)| v.clone()) == hung
            };
            let attempt = doc.events.iter().find(ends_here);
            let attempt =
                attempt.unwrap_or_else(|| panic!("hang-kill at {} ends no attempt", kill.ts));
            assert_eq!(
                attempt.dur, timeout,
                "a hung attempt lasts progress_timeout"
            );
        }
        instants("node-loss").count() + instants("hang-kill").count()
    }

    /// Checks that the driver-lane and slot-lane spans of `doc`'s one job
    /// cover `[0, total]` with no gap: every phase is drawn, a wait on the
    /// driver lane and a wave on the slots.
    fn assert_spans_cover(
        doc: &skymr_telemetry::TraceDocument,
        total: u64,
        cluster: &ClusterConfig,
        case: &str,
    ) {
        use skymr_telemetry::EventKind;
        let lanes = 1 + cluster.map_slots + cluster.reduce_slots;
        let mut spans: Vec<(u64, u64)> = doc
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Complete && e.tid < lanes as u64)
            .map(|e| (e.ts, e.ts + e.dur))
            .collect();
        spans.sort_unstable();
        let covered = spans.into_iter().fold(0, |reached, (start, end)| {
            assert!(
                start <= reached,
                "{case}: nothing drawn in [{reached}, {start})"
            );
            reached.max(end)
        });
        assert_eq!(covered, total, "{case}: the spans cover the job");
    }

    /// The trace and the metrics are read off one timeline, so the drawn
    /// job is exactly as long as the reported one, draws every attempt it
    /// counts, draws each task as exactly its priced terms and each fault
    /// instant where its cause is — in every mode that adds a wave,
    /// retries a task or takes slots away.
    #[test]
    fn the_trace_is_as_long_as_sim_runtime_in_every_mode() {
        let placed = ClusterConfig::test_placed(0xBEEF);
        let alive: Vec<usize> = (0..placed.nodes).collect();
        let victim = Placement::new(0xBEEF).task_home("wc", TaskKind::Map, 0, &alive);
        let wc = |plan| JobConfig::new("wc", 3).with_faults(plan);
        let none = FaultPlan::none;
        let straggler = none().with_map_fault(0, TaskFault::straggler(1000.0));
        let cases: Vec<(&str, ClusterConfig, JobConfig)> = vec![
            ("clean", ClusterConfig::test(), wc(none())),
            (
                "lost partition",
                ClusterConfig::test(),
                wc(none().with_lost_partition(0, 0)),
            ),
            (
                "node loss",
                placed.clone(),
                wc(none().with_node_loss(victim)),
            ),
            (
                "reduce retry",
                ClusterConfig::test(),
                wc(none().with_reduce_fault(0, TaskFault::lost(1))),
            ),
            (
                "hang",
                ClusterConfig::test(),
                wc(none().with_map_fault(0, TaskFault::hangs(1))),
            ),
            (
                "corrupt x1",
                ClusterConfig::test(),
                wc(none().with_corrupt_shuffle(0, 0, 1)),
            ),
            (
                "corrupt x2",
                ClusterConfig::test(),
                wc(none().with_corrupt_shuffle(1, 0, 2)),
            ),
            ("memory budget", spill_cluster(1), wc(none())),
            (
                "seeded chaos",
                ClusterConfig::test(),
                wc(FaultPlan::seeded(23)),
            ),
            (
                "speculative",
                ClusterConfig::test(),
                JobConfig::new("wc", 3)
                    .with_fault_tolerance(&FaultTolerance::with_plan(straggler).with_speculation()),
            ),
        ];
        let mut runtimes = BTreeMap::new();
        for (case, mut cluster, config) in cases {
            // A network slow enough that every shuffle lasts ticks.
            cluster.network_bytes_per_sec = 1e6;
            let collector = Collector::new();
            let config = config.with_collector(Some(collector.clone()));
            let out = word_count_on(&cluster, &config).expect("the job must survive");
            let m = &out.metrics;
            assert_eq!(collector.cursor(), ticks_of(m.sim_runtime), "{case}");
            assert_eq!(
                m.sim_runtime,
                m.startup_time + m.broadcast_time + m.map_phase + m.shuffle_time + m.reduce_phase,
                "{case}"
            );
            let doc = collector.finish();
            let counted = out.registry.counter("task.attempts");
            assert_eq!(attempts_drawn(&doc), counted, "{case}: attempts drawn");
            if case == "reduce retry" {
                assert_eq!(m.reduce_retries, 1, "{case}");
            }
            let causal = assert_fault_instants_are_causal(&doc, cluster.progress_timeout);
            if ["node loss", "hang"].contains(&case) {
                assert!(causal > 0, "{case}: its fault instant is drawn");
            }
            let overhead = ticks_of(cluster.task_overhead);
            if !assert_spans_are_their_terms(&doc, overhead) {
                let backoff = doc.events.iter().filter(|e| e.cat == "backoff");
                let drawn: u64 = backoff.map(|e| e.dur).sum();
                assert_eq!(drawn, ticks_of(m.backoff_time), "{case}: backoff drawn");
            }
            assert_spans_cover(&doc, ticks_of(m.sim_runtime), &cluster, case);
            let trace = skymr_telemetry::export::chrome_trace(&doc);
            assert_eq!(
                trace.contains("(re-exec)"),
                case == "node loss" || case == "corrupt x2",
                "{case}: every re-execution wave is drawn"
            );
            runtimes.insert(case, m.sim_runtime);
        }
        let costly = [
            "lost partition",
            "node loss",
            "reduce retry",
            "hang",
            "corrupt x2",
            "memory budget",
        ];
        for case in costly {
            assert!(runtimes[case] > runtimes["clean"], "{case} costs time");
        }
    }

    /// A re-execution is priced, counted and drawn like any map task: map
    /// 0 loses a partition, and its re-execution's first attempt (attempt
    /// 1 — the map wave ran attempt 0) panics.
    #[test]
    fn a_failing_re_execution_is_priced_counted_and_drawn() {
        /// Word count whose attempt `panics_on` panics on its first record.
        struct FlakyWc {
            panics_on: u32,
        }
        struct FlakyWcTask {
            panics: bool,
        }
        impl MapTask for FlakyWcTask {
            type In = String;
            type K = String;
            type V = u64;
            fn map(&mut self, input: &String, out: &mut Emitter<String, u64>) {
                if self.panics {
                    panic!("the re-execution's first attempt fails");
                }
                WcMapTask.map(input, out);
            }
        }
        impl MapFactory for FlakyWc {
            type Task = FlakyWcTask;
            fn create(&self, ctx: &TaskContext) -> FlakyWcTask {
                FlakyWcTask {
                    panics: ctx.attempt == self.panics_on,
                }
            }
        }
        let cluster = ClusterConfig::test();
        let run = |panics_on| {
            let collector = Collector::new();
            let config = JobConfig::new("wc", 2)
                .with_faults(FaultPlan::none().with_lost_partition(0, 0))
                .with_collector(Some(collector.clone()));
            let map = FlakyWc { panics_on };
            let out = run_job(
                &cluster,
                &config,
                &splits(),
                &map,
                &WcReduce,
                &HashPartitioner,
            )
            .expect("the job must survive");
            assert_eq!(collector.cursor(), ticks_of(out.metrics.sim_runtime));
            (out, collector.finish())
        };
        let (clean, _) = run(u32::MAX);
        let (flaky, doc) = run(1);

        // A panic is priced as half of map 0's two records, with no work.
        let failure = skymr_telemetry::model::attempt_ticks(1, 0, 0, 0);
        let backoff = ticks_of(RetryPolicy::backoff_after(0));
        let grew = |f: fn(&JobMetrics) -> Duration| {
            ticks_of(f(&flaky.metrics)) - ticks_of(f(&clean.metrics))
        };
        let overhead = ticks_of(cluster.task_overhead);
        assert_eq!(grew(|m| m.sim_runtime), failure + backoff + overhead);
        assert_eq!(grew(|m| m.wasted_task_time), failure);
        assert_eq!(grew(|m| m.backoff_time), backoff);
        assert_eq!(flaky.registry.counter("map.failures.panic"), 1);
        assert_eq!(flaky.metrics.attempts, clean.metrics.attempts + 1);
        assert_eq!(
            attempts_drawn(&doc),
            flaky.registry.counter("task.attempts")
        );

        // Under the re-execution's span: the panicking attempt, then the
        // winner.
        let complete = |name: &str| {
            let named = |e: &&skymr_telemetry::TraceEvent| e.name == name && e.dur > 0;
            doc.events.iter().filter(named).collect::<Vec<_>>()
        };
        let arg = |e: &skymr_telemetry::TraceEvent, key: &str| {
            let (_, value) = e.args.iter().find(|(k, _)| k == key)?;
            Some(value.clone())
        };
        let recovery = complete("map[0] (recovery)");
        assert_eq!(recovery.len(), 1, "one re-execution span");
        let parent = arg(recovery[0], "span_id");
        let outcome = |name: &str| {
            let child = complete(name)
                .into_iter()
                .find(|e| arg(e, "parent_id") == parent);
            child.and_then(|e| arg(e, "outcome"))
        };
        let label = |s: &str| Some(skymr_telemetry::ArgValue::Str(s.to_owned()));
        assert_eq!(outcome("attempt 0"), label("panic"));
        assert_eq!(outcome("attempt 1"), label("winner"));
        assert_eq!(sorted_counts(flaky), sorted_counts(clean));
    }

    /// Word count whose factory records the attempt number of each map 0
    /// attempt it creates.
    struct AttemptCensus(parking_lot::Mutex<Vec<u32>>);
    impl MapFactory for AttemptCensus {
        type Task = WcMapTask;
        fn create(&self, ctx: &TaskContext) -> WcMapTask {
            if ctx.task_index == 0 {
                self.0.lock().push(ctx.attempt);
            }
            WcMapTask
        }
    }

    /// A task re-executed in two waves numbers its attempts on across
    /// them: map 0 loses a partition and its home node is lost after the
    /// map wave, so it runs in the map wave, the lost-partition wave and
    /// the node-loss wave, and its UDF sees a new attempt number each time.
    #[test]
    fn a_task_re_executed_twice_never_repeats_an_attempt_number() {
        let cluster = ClusterConfig::test_placed(0xBEEF);
        let alive: Vec<usize> = (0..cluster.nodes).collect();
        let victim = Placement::new(0xBEEF).task_home("wc", TaskKind::Map, 0, &alive);
        let plan = FaultPlan::none()
            .with_lost_partition(0, 0)
            .with_node_loss(victim);
        let config = JobConfig::new("wc", 2).with_faults(plan);
        let census = AttemptCensus(parking_lot::Mutex::new(Vec::new()));
        let out = run_job(
            &cluster,
            &config,
            &splits(),
            &census,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("the job must survive");
        assert_eq!(out.registry.counter("map.recovery_tasks"), 1);
        assert!(out.metrics.maps_reexecuted >= 1, "map 0 lived there");
        let seen = census.0.into_inner();
        assert_eq!(seen, vec![0, 1, 2], "one attempt number per wave");
        assert_eq!(sorted_counts(out), expected_counts());
    }

    /// The skip-bad-records rounds of a map task number their attempts on
    /// from the rounds before: map 0 exhausts its budget on a poisoned
    /// record, and the round that skips it runs the next attempt number.
    #[test]
    fn skip_rounds_number_their_attempts_on() {
        let mut cluster = ClusterConfig::test();
        cluster.skip_bad_records = true;
        let plan = FaultPlan::none().with_poison_record(0, 1);
        let config = JobConfig::new("wc", 2).with_faults(plan);
        let census = AttemptCensus(parking_lot::Mutex::new(Vec::new()));
        let out = run_job(
            &cluster,
            &config,
            &splits()[..2],
            &census,
            &WcReduce,
            &HashPartitioner,
        )
        .expect("the skip round completes the task");
        assert_eq!(out.metrics.records_skipped, 1);
        let seen = census.0.into_inner();
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "strictly increasing");
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
            m.steps = Vec::new();
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

    // ---- The map-output buffer against the typed reference -------------

    /// A deterministic scramble (no RNG in unit tests).
    fn mix(i: u64, salt: u64) -> u64 {
        (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17
    }

    /// Fills an emitter with `pairs` (through `emit` and `emit_ref` in
    /// turn) and requires the tail frames and a spill segment built from
    /// it to equal, byte for byte, `encode_pairs` and `write_segment` over
    /// the typed pairs grouped in a `BTreeMap` and partitioned per key.
    fn assert_routes_like_the_reference<K: JobKey, V: JobValue + Clone>(
        pairs: &[(K, V)],
        reducers: usize,
        partitioner: &impl Partitioner<K>,
        io_chunk: usize,
        session: &SpillSession,
        tag: &str,
    ) {
        let fill = || {
            let mut emitter = Emitter::new();
            for (n, (k, v)) in pairs.iter().enumerate() {
                if n % 2 == 0 {
                    emitter.emit(k.clone(), v.clone());
                } else {
                    emitter.emit_ref(k.clone(), v);
                }
            }
            emitter
        };
        let mut grouped: BTreeMap<K, Vec<V>> = BTreeMap::new();
        for (k, v) in pairs {
            grouped.entry(k.clone()).or_default().push(v.clone());
        }
        let mut buckets: Vec<Vec<(K, V)>> = (0..reducers).map(|_| Vec::new()).collect();
        for (k, vs) in grouped {
            let dest = partitioner.partition(&k, reducers);
            buckets[dest].extend(vs.into_iter().map(|v| (k.clone(), v)));
        }
        let wire = |bucket: &Vec<(K, V)>| -> u64 {
            bucket
                .iter()
                .map(|(k, v)| k.byte_size() + v.byte_size())
                .sum()
        };
        let bucket_bytes: Vec<u64> = buckets.iter().map(wire).collect();

        let mut framed = MapResult::new(reducers, Counters::new());
        framed.frame_tail(&fill(), partitioner);
        let frames: Vec<(Vec<u8>, u64)> = buckets
            .iter()
            .map(|b| (skymr_common::encode_pairs(b), b.len() as u64))
            .collect();
        assert!(framed.tail == frames, "{tag}: frames differ");
        assert_eq!(framed.bucket_bytes, bucket_bytes, "{tag}: frame bytes");
        assert_eq!(framed.records, pairs.len() as u64, "{tag}: records");

        let mut spilled = MapResult::new(reducers, Counters::new());
        let mut emitter = fill();
        let path = session.dir().join(format!("{tag}.seg"));
        spilled
            .spill(&mut emitter, partitioner, path, io_chunk)
            .expect("spill");
        assert!(emitter.is_empty(), "{tag}: a spill empties the buffer");
        let path = session.dir().join(format!("{tag}-reference.seg"));
        let reference = crate::storage::segment::write_segment(path, &buckets, io_chunk)
            .expect("reference segment");
        let [segment] = &spilled.segments[..] else {
            panic!("{tag}: one spill writes one segment")
        };
        let read = |path: &std::path::Path| std::fs::read(path).expect("segment bytes");
        assert_eq!(segment.parts, reference.parts, "{tag}: partition directory");
        assert!(
            read(&segment.path) == read(&reference.path),
            "{tag}: segment bytes"
        );
        assert_eq!(spilled.bucket_bytes, bucket_bytes, "{tag}: spill bytes");
    }

    #[test]
    fn map_output_buffer_frames_and_spills_the_bytes_of_the_typed_reference() {
        use skymr_common::Tuple;
        let session =
            SpillSession::create(&crate::StorageConfig::test(), "emitter-bytes").expect("session");
        let tuple = |i: u64| Tuple::new(i, vec![(i % 16) as f64 / 16.0, 0.5, 1.0 / 3.0]);
        // Keys from a sparse set (0, 7, …, 28), so some reducers get
        // nothing; many pairs per key, so keys repeat across the batch.
        let key = |i: u64| (mix(i, 1) % 5 * 7) as u32;
        let word = |i: u64| format!("w{}", mix(i, 2) % 11);
        let n = 300;
        let u32_tuple: Vec<(u32, Tuple)> = (0..n).map(|i| (key(i), tuple(i))).collect();
        let u32_tuples: Vec<(u32, Vec<Tuple>)> = (0..n)
            .map(|i| (key(i), (0..mix(i, 3) % 4).map(|j| tuple(i + j)).collect()))
            .collect();
        let string_u64: Vec<(String, u64)> = (0..n).map(|i| (word(i), mix(i, 4))).collect();
        let string_tuple: Vec<(String, Tuple)> = (0..n).map(|i| (word(i), tuple(i))).collect();
        for reducers in 1..=16 {
            // 64 bytes of payload is two or three pairs: every non-empty
            // partition above that spans several frames.
            for io_chunk in [64, 1 << 16] {
                let tag = |what: &str| format!("{what}-r{reducers}-c{io_chunk}");
                let modulo = &ModuloPartitioner;
                let s = &session;
                assert_routes_like_the_reference(
                    &u32_tuple,
                    reducers,
                    modulo,
                    io_chunk,
                    s,
                    &tag("u32-tuple"),
                );
                assert_routes_like_the_reference(
                    &u32_tuples,
                    reducers,
                    modulo,
                    io_chunk,
                    s,
                    &tag("u32-tuples"),
                );
                let hash = &HashPartitioner;
                assert_routes_like_the_reference(
                    &string_u64,
                    reducers,
                    hash,
                    io_chunk,
                    s,
                    &tag("string-u64"),
                );
                assert_routes_like_the_reference(
                    &string_tuple,
                    reducers,
                    hash,
                    io_chunk,
                    s,
                    &tag("string-tuple"),
                );
                let empty: Vec<(u32, u64)> = Vec::new();
                assert_routes_like_the_reference(
                    &empty,
                    reducers,
                    modulo,
                    io_chunk,
                    s,
                    &tag("empty"),
                );
            }
        }
        // The small chunk did split partitions into several frames.
        let mut spilled = MapResult::new(3, Counters::new());
        let mut emitter = Emitter::new();
        for (k, v) in &u32_tuple {
            emitter.emit_ref(*k, v);
        }
        let path = session.dir().join("frames.seg");
        spilled
            .spill(&mut emitter, &ModuloPartitioner, path, 64)
            .expect("spill");
        assert!(spilled.segments[0].parts.iter().any(|p| p.frames > 1));
    }
}
