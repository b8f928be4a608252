//! Map and reduce task traits, factories, and output collectors.
//!
//! A map task's [`Emitter`] is its serialized map-output buffer: `emit`
//! encodes the pair onto one byte buffer and keeps only the key and where
//! the encoding starts, so what crosses to the shuffle is bytes, never the
//! values a UDF emitted. [`Emitter::emit_ref`] lets a UDF that forwards its input
//! record emit it without a clone.
//!
//! A job is two functions. A stateful task keeps its struct and its
//! [`MapTask`] / [`ReduceTask`] impl, and its factory is a closure
//! `|ctx: &TaskContext| task` at the `run_job` call site. A stateless one
//! needs no struct at all: [`map_fn`] and [`reduce_fn`] wrap a closure as
//! a task that is its own factory.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use skymr_common::{ByteSized, Counters, Wire};

/// Marker bounds for shuffle keys.
///
/// Keys must be orderable (the engine sorts keys before the reduce phase,
/// like Hadoop's sort-merge shuffle), hashable (for the default
/// [`crate::HashPartitioner`]), byte-sized (for traffic accounting),
/// wire-encodable (map-output partitions travel as checksummed frames),
/// and debug-printable (so [`crate::analysis`] invariant diagnostics can
/// name the offending key).
pub trait JobKey:
    Clone + Send + Ord + std::hash::Hash + std::fmt::Debug + ByteSized + Wire + 'static
{
}
impl<T: Clone + Send + Ord + std::hash::Hash + std::fmt::Debug + ByteSized + Wire + 'static> JobKey
    for T
{
}

/// Marker bounds for shuffle values. Like keys, values cross the shuffle
/// inside checksummed frames, so they must be wire-encodable.
pub trait JobValue: Send + ByteSized + Wire + 'static {}
impl<T: Send + ByteSized + Wire + 'static> JobValue for T {}

/// Per-task context handed to factories: which task this is, the job shape,
/// and the attempt's counters.
#[derive(Clone, Debug)]
pub struct TaskContext {
    /// Index of this task within its phase (0-based).
    pub task_index: usize,
    /// Number of tasks in this phase.
    pub num_tasks: usize,
    /// Number of reducers in the job.
    pub num_reducers: usize,
    /// Attempt number (0 on first execution; >0 after injected failures).
    pub attempt: u32,
    /// This attempt's counters (Hadoop-style): the engine folds them into
    /// the job's only if this attempt's output is the one committed, so a
    /// failed attempt, a losing backup, and a re-execution never count twice.
    pub counters: Counters,
}

/// A map task: one instance per input split.
///
/// Mirrors Hadoop's `Mapper`: the factory call is `setup`, [`MapTask::map`]
/// is invoked once per record of the split, and [`MapTask::finish`] is
/// `cleanup` — the place where the paper's algorithms emit their local
/// skylines after the whole split has been consumed (Algorithms 1, 3, 8).
pub trait MapTask: Send {
    /// Input record type.
    type In: Send + Sync;
    /// Output key type.
    type K: JobKey;
    /// Output value type.
    type V: JobValue;

    /// Processes one input record.
    fn map(&mut self, input: &Self::In, out: &mut Emitter<Self::K, Self::V>);

    /// Called once after the last record of the split.
    fn finish(&mut self, _out: &mut Emitter<Self::K, Self::V>) {}
}

/// Creates a [`MapTask`] per split. Factories are shared across worker
/// threads, so they carry the job's read-only state (e.g. the global
/// bitstring distributed via the cache).
pub trait MapFactory: Sync {
    /// The task type this factory creates.
    type Task: MapTask;
    /// Creates the task for the split described by `ctx`.
    fn create(&self, ctx: &TaskContext) -> Self::Task;
}

/// A reduce task: one instance per reducer.
///
/// [`ReduceTask::reduce`] is invoked once per distinct key (keys arrive in
/// sorted order) with all values grouped under that key, matching
/// `Reduce(k2, list(v2)) → list(k3, v3)` from the paper's Section 2.1.
pub trait ReduceTask: Send {
    /// Input key type (the map output key).
    type K: JobKey;
    /// Input value type (the map output value).
    type V: JobValue;
    /// Final output record type.
    type Out: Send;

    /// Processes one key group.
    fn reduce(&mut self, key: Self::K, values: Vec<Self::V>, out: &mut OutputCollector<Self::Out>);

    /// Called once after the last key group.
    fn finish(&mut self, _out: &mut OutputCollector<Self::Out>) {}
}

/// Creates a [`ReduceTask`] per reducer.
pub trait ReduceFactory: Sync {
    /// The task type this factory creates.
    type Task: ReduceTask;
    /// Creates the task for the reducer described by `ctx`.
    fn create(&self, ctx: &TaskContext) -> Self::Task;
}

impl<F: Fn(&TaskContext) -> T + Sync, T: MapTask> MapFactory for F {
    type Task = T;
    fn create(&self, ctx: &TaskContext) -> T {
        self(ctx)
    }
}

impl<F: Fn(&TaskContext) -> T + Sync, T: ReduceTask> ReduceFactory for F {
    type Task = T;
    fn create(&self, ctx: &TaskContext) -> T {
        self(ctx)
    }
}

/// A per-record map closure that is both task and factory; see [`map_fn`].
#[derive(Debug)]
pub struct MapFn<F, In, K, V>(F, PhantomData<fn(In, K, V)>);

/// Wraps `f(record, out)` as a map task with no `finish`. Every split
/// runs its own clone of `f`, so state it captures by value starts afresh
/// per split, as a Hadoop `Mapper` instance would.
pub fn map_fn<F: FnMut(&In, &mut Emitter<K, V>), In, K, V>(f: F) -> MapFn<F, In, K, V> {
    MapFn(f, PhantomData)
}

impl<F, In: Send + Sync, K: JobKey, V: JobValue> MapTask for MapFn<F, In, K, V>
where
    F: FnMut(&In, &mut Emitter<K, V>) + Send,
{
    type In = In;
    type K = K;
    type V = V;
    fn map(&mut self, input: &In, out: &mut Emitter<K, V>) {
        (self.0)(input, out);
    }
}

impl<F: Clone + Sync, In, K, V> MapFactory for MapFn<F, In, K, V>
where
    Self: MapTask,
{
    type Task = Self;
    fn create(&self, _: &TaskContext) -> Self {
        MapFn(self.0.clone(), PhantomData)
    }
}

/// A per-group reduce closure that is both task and factory; see
/// [`reduce_fn`].
#[derive(Debug)]
pub struct ReduceFn<F, K, V, Out>(F, PhantomData<fn(K, V) -> Out>);

/// Wraps `f(key, values, out)` as a reduce task with no `finish`; every
/// reducer runs its own clone of `f`.
pub fn reduce_fn<F: FnMut(K, Vec<V>, &mut OutputCollector<Out>), K, V, Out>(
    f: F,
) -> ReduceFn<F, K, V, Out> {
    ReduceFn(f, PhantomData)
}

impl<F, K: JobKey, V: JobValue, Out: Send> ReduceTask for ReduceFn<F, K, V, Out>
where
    F: FnMut(K, Vec<V>, &mut OutputCollector<Out>) + Send,
{
    type K = K;
    type V = V;
    type Out = Out;
    fn reduce(&mut self, key: K, values: Vec<V>, out: &mut OutputCollector<Out>) {
        (self.0)(key, values, out);
    }
}

impl<F: Clone + Sync, K, V, Out> ReduceFactory for ReduceFn<F, K, V, Out>
where
    Self: ReduceTask,
{
    type Task = Self;
    fn create(&self, _: &TaskContext) -> Self {
        ReduceFn(self.0.clone(), PhantomData)
    }
}

/// A map attempt's output buffer, as Hadoop's map-output buffer is: each
/// emitted pair is encoded on the spot onto one byte buffer, and only its
/// key and where its encoding starts are kept, so no value outlives the
/// call. The buffer's length is the wire-size accounting the
/// shuffle-traffic model and the spill trigger read; frames and spill
/// segments are copies of its pairs' bytes. Also counts the work the
/// attempt charges to the simulated clock.
#[derive(Debug)]
pub struct Emitter<K, V> {
    /// The pairs' wire encodings, back to back in emission order.
    bytes: Vec<u8>,
    /// Per pair in emission order, its key and where its encoding starts
    /// in `bytes`; it ends where the next pair's starts.
    index: Vec<(K, usize)>,
    work: u64,
    _value: PhantomData<fn(&V)>,
}

impl<K: Wire + ByteSized, V: Wire + ByteSized> Emitter<K, V> {
    pub(crate) fn new() -> Self {
        Self {
            bytes: Vec::new(),
            index: Vec::new(),
            work: 0,
            _value: PhantomData,
        }
    }

    /// Charges `units` of UDF work — dominance comparisons, for the
    /// skyline algorithms — to this attempt. The simulated clock prices
    /// the attempt from what it counted (records, bytes, charged work),
    /// never from host time; a failed attempt's charge dies with it.
    pub fn charge(&mut self, units: u64) {
        self.work += units;
    }

    pub(crate) fn work(&self) -> u64 {
        self.work
    }

    /// Emits one intermediate pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.emit_ref(key, &value);
    }

    /// Emits one intermediate pair whose value the caller keeps: the value
    /// is encoded, never cloned, so a map UDF that forwards its input
    /// record pays for its bytes only.
    pub fn emit_ref(&mut self, key: K, value: &V) {
        let size = (key.byte_size() + value.byte_size()) as usize;
        if self.bytes.capacity() - self.bytes.len() < size {
            self.grow(size);
        }
        let start = self.bytes.len();
        key.wire_encode(&mut self.bytes);
        value.wire_encode(&mut self.bytes);
        debug_assert_eq!(self.bytes.len() - start, size, "ByteSized ≠ Wire length");
        self.index.push((key, start));
    }

    /// Doubles the byte buffer, or more if `more` bytes need it, with a
    /// fresh allocation and a copy instead of `realloc`. Map attempts keep
    /// dropping multi-MiB buffers and growing new ones; grown by `realloc`,
    /// glibc put some of them in the main thread's arena, whose freed space
    /// then stayed resident (`malloc_stats()` on `indep3d_shuffle`: main
    /// arena 70.7 MB for 53.5 MB in use, peak RSS +17 MiB). Fresh
    /// allocations stay in the worker thread's own arena.
    #[cold]
    fn grow(&mut self, more: usize) {
        let capacity = (2 * self.bytes.capacity()).max(self.bytes.len() + more);
        let mut grown = Vec::with_capacity(capacity);
        grown.extend_from_slice(&self.bytes);
        self.bytes = grown;
    }

    /// Number of pairs emitted so far.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` iff nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Wire size of the currently buffered pairs — the value the
    /// out-of-core engine compares against the memory budget (a pure
    /// function of the emitted data, never host memory).
    pub(crate) fn buffered_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The buffered pairs grouped by key: per key, ascending, the
    /// positions of its pairs in emission order — what grouping the pairs
    /// in a `BTreeMap` would give, by position.
    pub(crate) fn grouped(&self) -> BTreeMap<&K, Vec<usize>>
    where
        K: Ord,
    {
        let mut groups: BTreeMap<&K, Vec<usize>> = BTreeMap::new();
        for (n, (key, _)) in self.index.iter().enumerate() {
            groups.entry(key).or_default().push(n);
        }
        groups
    }

    /// The encodings of the pairs at `positions` (as [`Self::grouped`]
    /// hands them out), in that order.
    pub(crate) fn encodings<'a>(
        &'a self,
        positions: impl IntoIterator<Item = &'a usize> + 'a,
    ) -> impl Iterator<Item = &'a [u8]> + 'a {
        positions.into_iter().map(|&n| {
            let end = self
                .index
                .get(n + 1)
                .map_or(self.bytes.len(), |&(_, at)| at);
            &self.bytes[self.index[n].1..end]
        })
    }

    /// Empties the buffer once its pairs have spilled, keeping both
    /// allocations for the next batch. The emitter itself never touches
    /// disk (it is called from UDF bodies); the job driver spills.
    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.index.clear();
    }
}

/// Collects final output records from a reduce task, plus the work the
/// attempt charges to the simulated clock.
#[derive(Debug)]
pub struct OutputCollector<T> {
    records: Vec<T>,
    work: u64,
}

/// An empty collector: the engine makes one per reduce attempt, and a test
/// can drive a [`ReduceTask`] directly with one.
impl<T> Default for OutputCollector<T> {
    fn default() -> Self {
        Self {
            records: Vec::new(),
            work: 0,
        }
    }
}

impl<T> OutputCollector<T> {
    /// Charges `units` of UDF work to this attempt (see
    /// [`Emitter::charge`]).
    pub fn charge(&mut self, units: u64) {
        self.work += units;
    }

    /// Emits one output record.
    pub fn collect(&mut self, record: T) {
        // Output size is unknown a priori; amortized doubling is the
        // collector's contract.
        self.records.push(record);
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` iff nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The collected records and the charged work.
    pub(crate) fn into_parts(self) -> (Vec<T>, u64) {
        (self.records, self.work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_tracks_pairs_and_bytes() {
        let mut e: Emitter<u32, u64> = Emitter::new();
        assert!(e.is_empty());
        e.emit(2, 20);
        e.emit_ref(1, &10);
        e.charge(5);
        assert_eq!((e.len(), e.work()), (2, 5));
        assert_eq!(e.buffered_bytes(), 2 * (4 + 8));
        let groups: Vec<_> = e.grouped().into_iter().collect();
        assert_eq!(groups, vec![(&1, vec![1]), (&2, vec![0])]);
        let pairs: Vec<_> = e
            .encodings(&[1, 0, 1])
            .map(|pair| {
                let mut r = skymr_common::WireCursor::new(pair);
                (u32::wire_decode(&mut r), u64::wire_decode(&mut r))
            })
            .collect();
        let (one, two) = ((Some(1), Some(10)), (Some(2), Some(20)));
        assert_eq!(pairs, vec![one, two, one]);
        e.clear();
        assert!(e.is_empty());
        assert_eq!(e.buffered_bytes(), 0);
    }

    #[test]
    fn output_collector_preserves_order() {
        let mut c: OutputCollector<&'static str> = OutputCollector::default();
        c.collect("a");
        c.collect("b");
        c.charge(3);
        c.charge(4);
        assert_eq!(c.len(), 2);
        assert_eq!(c.into_parts(), (vec!["a", "b"], 7));
    }
}
