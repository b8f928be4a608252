//! The §6 cost model prices a kernel by its comparisons alone, so no
//! kernel may allocate per tuple. This binary checks that on the code that
//! runs: a counting `#[global_allocator]` (in its own test binary, so no
//! production build carries it) counts this thread's allocations, and every
//! hot entry point must allocate as often in one call at input size `n` as
//! at `4n`. Inputs are shaped so the output is the same size at both — a
//! fixed skyline first, then tuples it dominates — so what is left to grow
//! with `n` is an allocation inside a loop.
//!
//! The dominance, grid and bitstring kernels are also pinned exactly: on
//! fixed inputs, `kernel_counts_are_exact` asserts each call's comparisons,
//! output and allocations as literals, so one extra comparison or allocation
//! fails it where a timing would blur it.
//!
//! Counts are per thread, so tests running in parallel do not see each
//! other's allocations. The one row that runs a whole job also counts the
//! engine's worker threads, through a sink its map task sets on them.
//! `realloc` counts as an allocation: a `Vec` growing inside a loop is
//! exactly what the check is for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use skymr::gpmrs::GpmrsReduceFactory;
use skymr::gpsrs::{GpsrsReduceFactory, PartitionSkylines};
use skymr::groups::plan_groups;
use skymr::local::{
    compare_all_partitions, eliminate_false_positives, insert_into_partition, local_skyline,
    CmpStats, LocalSkylines,
};
use skymr::{Bitstring, Grid, LocalAlgo, MergePolicy};
use skymr_baselines::bnl_skyline;
use skymr_common::bytes::encode_pairs_into;
use skymr_common::dominance::{compare, CellQuantizer, Window};
use skymr_common::{
    crc32c_update, dominates, encode_pairs, frame_decode, frame_encode, BitGrid, Tuple, Wire,
};
use skymr_datagen::{generate, Distribution};
use skymr_mapreduce::storage::segment::SegmentWriter;
use skymr_mapreduce::storage::{KWayMerge, RunSource};
use skymr_mapreduce::{
    reduce_fn, run_job_from, ClusterConfig, Counters, Emitter, JobConfig, MapTask, OutputCollector,
    ReduceFactory, ReduceTask, RoundRobin, SingleReducerPartitioner, TaskContext,
};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Set on an engine worker thread while a row's map task runs there:
    /// that thread's allocations also count into the row's total.
    static SINK: Cell<Option<&'static AtomicU64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = SINK.try_with(|s| s.get().map(|sink| sink.fetch_add(1, Ordering::Relaxed)));
}

// SAFETY: every method forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread; its result is dropped afterwards.
fn allocs<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = black_box(f());
    let count = ALLOCS.with(Cell::get) - before;
    drop(out);
    count
}

/// Input size of the tuple-count rows: large enough that both `n` and `4n`
/// take std's heap path for sort scratch (small slices sort on the stack).
const N: usize = 256;

/// Asserts that `per_call(n)` — the allocations of one call at size `n`,
/// set-up excluded — is the same at `n` and `4n`; returns that count.
fn assert_flat(entry: &str, n: usize, mut per_call: impl FnMut(usize) -> u64) -> u64 {
    let (small, large) = (per_call(n), per_call(4 * n));
    assert_eq!(
        small,
        large,
        "{entry}: {small} allocations at n = {n}, {large} at n = {}",
        4 * n
    );
    small
}

/// The three skyline tuples every tuple-count row starts with, one per
/// non-dominated cell of a 2-d grid with 2 partitions per dimension.
const SKYLINE: [[f64; 2]; 3] = [[0.3, 0.3], [0.1, 0.9], [0.9, 0.1]];

/// `n` tuples: the three of [`SKYLINE`], then tuples each dominated by one
/// of them and lying in its grid cell, so every window rejects them on
/// arrival and the skyline stays three tuples at every `n`.
fn skyline_then_dominated(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|j| {
            let [x, y] = SKYLINE[j % 3];
            let values = if j < 3 {
                vec![x, y]
            } else {
                vec![x + 0.05, y + 0.01 * (j % 5 + 1) as f64]
            };
            Tuple::new(j as u64, values)
        })
        .collect()
}

/// `n` pairwise-incomparable tuples on the segment from `(x0, y1)` down to
/// `(x1, y0)`.
fn antichain(n: usize, (x0, x1): (f64, f64), (y0, y1): (f64, f64)) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let f = (i as f64 + 0.5) / n as f64;
            Tuple::new(i as u64, vec![x0 + f * (x1 - x0), y1 - f * (y1 - y0)])
        })
        .collect()
}

fn grid() -> Grid {
    Grid::new(2, 2).unwrap()
}

/// [`skyline_then_dominated`] as two mappers' payloads: contiguous halves,
/// so the first mapper carries every skyline tuple ahead of what they
/// dominate. Only partitions `keep` accepts are included.
fn payloads(n: usize, keep: impl Fn(u32) -> bool) -> Vec<PartitionSkylines> {
    let grid = grid();
    let tuples = skyline_then_dominated(n);
    tuples
        .chunks(n.div_ceil(2))
        .map(|half| {
            let mut by_partition: BTreeMap<u32, Vec<Tuple>> = BTreeMap::new();
            for t in half {
                let p = grid.partition_of(t) as u32;
                if keep(p) {
                    by_partition.entry(p).or_default().push(t.clone());
                }
            }
            by_partition.into_iter().collect()
        })
        .collect()
}

fn context() -> TaskContext {
    TaskContext {
        task_index: 0,
        num_tasks: 1,
        num_reducers: 1,
        attempt: 0,
        counters: Counters::new(),
    }
}

/// A fresh spill file path for one storage row.
fn spill_path(row: &str, n: usize) -> PathBuf {
    std::env::temp_dir().join(format!("skymr-alloc-{}-{row}-{n}.seg", std::process::id()))
}

/// `n` sorted `(key, value)` pairs with fixed-width encodings, so every
/// full spill frame holds the same number of pairs.
fn pairs(n: usize) -> Vec<(u32, u64)> {
    (0..n as u32).map(|k| (k / 4, u64::from(k) * 7)).collect()
}

// ---------------------------------------------------------------------
// Dominance tests and the tuple-level ADR test (common::dominance).
// `n` is the dimensionality for the per-pair kernels.
// ---------------------------------------------------------------------

#[test]
fn dominance_dominates() {
    let count = assert_flat("dominates", 64, |d| {
        let (a, b) = (Tuple::new(0, vec![0.1; d]), Tuple::new(1, vec![0.2; d]));
        allocs(|| dominates(&a, &b))
    });
    assert_eq!(count, 0);
}

#[test]
fn dominance_compare() {
    let count = assert_flat("compare", 64, |d| {
        let (a, b) = (Tuple::new(0, vec![0.1; d]), Tuple::new(1, vec![0.2; d]));
        allocs(|| compare(&a, &b))
    });
    assert_eq!(count, 0);
}

#[test]
fn dominance_signature() {
    // d ≤ 32 keeps the signature filter enabled at both sizes.
    let count = assert_flat("CellQuantizer::signature", 8, |d| {
        let q = CellQuantizer::new(d);
        let values = vec![0.4; d];
        allocs(|| q.signature(&values))
    });
    assert_eq!(count, 0);
}

#[test]
fn window_insert() {
    // One insert scans a window of `n` tuples and appends: the new tuple is
    // incomparable with all of them, and the window has room for it.
    let count = assert_flat("Window::insert", N, |n| {
        let mut window = Window::with_capacity(n + 1);
        window.extend(antichain(n, (0.1, 0.9), (0.1, 0.9)));
        let t = Tuple::new(n as u64, vec![0.05, 0.95]);
        let mut examined = 0;
        let count = allocs(|| window.insert(t, &mut examined));
        assert_eq!((window.len(), examined), (n + 1, n as u64));
        count
    });
    assert_eq!(count, 0);
}

#[test]
fn window_prune_by() {
    // Nothing on the line x + y = 1.4 dominates anything on x + y = 1.
    let count = assert_flat("Window::prune_by", N, |n| {
        let mut own = Window::from(antichain(n, (0.1, 0.9), (0.1, 0.9)));
        let other = Window::from(antichain(n, (0.5, 0.9), (0.5, 0.9)));
        let mut examined = 0;
        let count = allocs(|| own.prune_by(&other, &mut examined));
        assert_eq!(own.len(), n);
        count
    });
    assert_eq!(count, 0);
}

// ---------------------------------------------------------------------
// Local-skyline kernels (Algorithms 4–5), core::local.
// ---------------------------------------------------------------------

#[test]
fn local_insert_into_partition() {
    // `n` partitions; the target's window holds `n` tuples with room for one
    // more, and the inserted tuple is incomparable with all of them.
    let count = assert_flat("insert_into_partition", N, |n| {
        let mut skylines = LocalSkylines::new();
        for p in 0..n as u32 {
            let mut window = Window::with_capacity(n + 1);
            window.extend(antichain(n, (0.1, 0.9), (0.1, 0.9)));
            skylines.insert(p, window);
        }
        let t = Tuple::new(n as u64, vec![0.05, 0.95]);
        let mut stats = CmpStats::default();
        let target = n as u32 / 2;
        let count = allocs(|| insert_into_partition(&mut skylines, target, t, &mut stats));
        assert_eq!(skylines[&target].len(), n + 1);
        count
    });
    assert_eq!(count, 0);
}

#[test]
fn local_skyline_streaming_kernels() {
    for algo in [LocalAlgo::Bnl, LocalAlgo::Sfs] {
        assert_flat(&format!("local_skyline({algo:?})"), N, |n| {
            let tuples = skyline_then_dominated(n);
            let mut stats = CmpStats::default();
            allocs(|| {
                let sky = local_skyline(tuples, algo, &mut stats);
                assert_eq!(sky.len(), SKYLINE.len());
            })
        });
    }
}

/// `LocalAlgo::Dnc` is the one entry whose count grows with `n`, by design:
/// every internal node of the recursion splits its tuples (`split_off`, one
/// allocation) and every leaf reserves its window (two), so one call makes
/// `3 · leaves − 1` allocations. A node is a leaf at 48 tuples or at depth
/// `2d`, so per tuple that is at most 3/24, and for fixed `d` the leaf count
/// is bounded (16 for `d = 2`). Pinned at the measured counts so a new
/// allocation per tuple still shows.
#[test]
fn local_skyline_dnc_grows_with_its_leaves() {
    let counts = [N, 4 * N].map(|n| {
        let tuples = skyline_then_dominated(n);
        let mut stats = CmpStats::default();
        allocs(|| local_skyline(tuples, LocalAlgo::Dnc, &mut stats))
    });
    assert_eq!(
        counts,
        DNC_ALLOCS,
        "Dnc allocations at n = {N} and {}",
        4 * N
    );
}

/// Measured allocation counts of one `LocalAlgo::Dnc` call at `n = 256`
/// (8 leaves) and `n = 1024` (16 leaves, the depth cap for `d = 2`).
const DNC_ALLOCS: [u64; 2] = [23, 47];

#[test]
fn local_eliminate_false_positives() {
    // Cell (0,1) lies in the ADR of cell (1,1); their antichains of `n`
    // tuples each are placed so that neither prunes the other.
    let grid = grid();
    assert_flat("eliminate_false_positives", N, |n| {
        let mut skylines = LocalSkylines::from([
            (
                grid.index_of(&[0, 1]) as u32,
                Window::from(antichain(n, (0.05, 0.45), (0.9, 0.99))),
            ),
            (
                grid.index_of(&[1, 1]) as u32,
                Window::from(antichain(n, (0.55, 0.95), (0.55, 0.85))),
            ),
        ]);
        let mut stats = CmpStats::default();
        let count = allocs(|| {
            eliminate_false_positives(&grid, &mut skylines, &LocalSkylines::new(), &mut stats);
        });
        assert_eq!(stats.partition_cmps, 1);
        assert_eq!(skylines.values().map(Window::len).sum::<usize>(), 2 * n);
        count
    });
}

// ---------------------------------------------------------------------
// BNL baseline, grid assignment, bitstring union.
// ---------------------------------------------------------------------

#[test]
fn bnl_skyline_window() {
    assert_flat("bnl_skyline", N, |n| {
        let tuples = skyline_then_dominated(n);
        allocs(|| assert_eq!(bnl_skyline(&tuples).len(), SKYLINE.len()))
    });
}

#[test]
fn grid_partition_of() {
    // `n` is the dimensionality; 2^16 partitions still fit the index.
    let count = assert_flat("Grid::partition_of", 4, |d| {
        let grid = Grid::new(d, 2).unwrap();
        let t = Tuple::new(0, vec![0.7; d]);
        allocs(|| grid.partition_of(&t))
    });
    assert_eq!(count, 0);
}

#[test]
fn bitgrid_or_assign() {
    let count = assert_flat("BitGrid::or_assign", N * 64, |bits| {
        let mut a = BitGrid::zeros(bits);
        let mut b = BitGrid::zeros(bits);
        b.set(bits - 1);
        allocs(|| a.or_assign(&b))
    });
    assert_eq!(count, 0);
}

// ---------------------------------------------------------------------
// Shuffle-frame codec (common::bytes); `n` is a byte or pair count.
// ---------------------------------------------------------------------

#[test]
fn codec_crc32c_update() {
    let count = assert_flat("crc32c_update", 64 * N, |n| {
        let data = vec![0xA5u8; n];
        allocs(|| crc32c_update(0, &data))
    });
    assert_eq!(count, 0);
}

#[test]
fn codec_frame_encode() {
    // One exact reservation per frame, never a growth per byte.
    let count = assert_flat("frame_encode", 64 * N, |n| {
        let payload = vec![0xA5u8; n];
        let mut out = Vec::new();
        allocs(|| frame_encode(&payload, &mut out))
    });
    assert_eq!(count, 1);
}

#[test]
fn codec_frame_decode() {
    let count = assert_flat("frame_decode", 64 * N, |n| {
        let mut frame = Vec::new();
        frame_encode(&vec![0xA5u8; n], &mut frame);
        allocs(|| frame_decode(&frame).map(|(payload, _)| payload.len()))
    });
    assert_eq!(count, 0);
}

#[test]
fn codec_encode_pairs_into() {
    // The documented contract: a caller that reserves the frame's size
    // never sees the buffer grow.
    let count = assert_flat("encode_pairs_into", N, |n| {
        let pairs = pairs(n);
        let mut out = Vec::with_capacity(encode_pairs(&pairs).len());
        allocs(|| encode_pairs_into(&pairs, &mut out))
    });
    assert_eq!(count, 0);
}

// ---------------------------------------------------------------------
// Out-of-core storage plane (mapreduce::storage); `n` is a pair count.
// ---------------------------------------------------------------------

/// Spill frame payload size for the storage rows: `n` and `4n` pairs span
/// many frames, all full ones the same size.
const IO_CHUNK: usize = 1024;

#[test]
fn storage_segment_writer_push() {
    // `n` pushes, frame flushes included: nothing per record.
    let count = assert_flat("SegmentWriter::push", 16 * N, |n| {
        let path = spill_path("push", n);
        let pairs = pairs(n);
        let mut writer = SegmentWriter::create(path.clone(), IO_CHUNK).unwrap();
        let count = allocs(|| {
            for (k, v) in &pairs {
                writer.push(k, v).unwrap();
            }
        });
        drop(writer);
        std::fs::remove_file(&path).ok();
        count
    });
    assert_eq!(count, 0);
}

#[test]
fn storage_segment_writer_push_encoded() {
    // The spill path of the map-output buffer: `n` pre-encoded pairs
    // appended, frame flushes included, nothing per record.
    let count = assert_flat("SegmentWriter::push_encoded", 16 * N, |n| {
        let path = spill_path("push-encoded", n);
        let mut encoded = Vec::new();
        for (k, v) in pairs(n) {
            k.wire_encode(&mut encoded);
            v.wire_encode(&mut encoded);
        }
        let mut writer = SegmentWriter::<u32, u64>::create(path.clone(), IO_CHUNK).unwrap();
        let count = allocs(|| {
            for pair in encoded.chunks_exact(12) {
                writer.push_encoded(pair).unwrap();
            }
        });
        drop(writer);
        std::fs::remove_file(&path).ok();
        count
    });
    assert_eq!(count, 0);
}

#[test]
fn storage_kway_merge_next_pair() {
    // Four sorted in-memory runs of `n / 4` pairs, drained through the
    // merge step. (A disk run adds its reader's decode, once per io-chunk.)
    let count = assert_flat("KWayMerge::next_pair", 16 * N, |n| {
        let runs = (0..4)
            .map(|r| RunSource::Mem(pairs(n).into_iter().skip(r).step_by(4).collect()))
            .collect();
        let mut merge: KWayMerge<u32, u64> = KWayMerge::open(runs).unwrap();
        let mut drained = 0;
        let count = allocs(|| {
            while merge.next_pair().unwrap().is_some() {
                drained += 1;
            }
        });
        assert_eq!(drained, n);
        count
    });
    assert_eq!(count, 0);
}

// ---------------------------------------------------------------------
// The engine's map attempt, on its worker threads.
// ---------------------------------------------------------------------

/// Allocations the `map_attempt_reads_split_in_place` job's map tasks make
/// from their creation to their `finish`, over all worker threads.
static ATTEMPT_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A map task that emits nothing and counts its attempt's allocations:
/// created (by the factory below) before the attempt loads its split,
/// finished after the last record.
struct SilentMap;

impl MapTask for SilentMap {
    type In = Tuple;
    type K = u8;
    type V = u8;

    fn map(&mut self, _: &Tuple, _: &mut Emitter<u8, u8>) {}

    fn finish(&mut self, _: &mut Emitter<u8, u8>) {
        SINK.with(|s| s.set(None));
    }
}

#[test]
fn map_attempt_reads_split_in_place() {
    let cluster = ClusterConfig::test();
    let config = JobConfig::new("lend", 1);
    let count = assert_flat("map attempt over RoundRobin", N, |n| {
        let rows = skyline_then_dominated(n);
        ATTEMPT_ALLOCS.store(0, Ordering::Relaxed);
        let outcome = run_job_from(
            &cluster,
            &config,
            &RoundRobin::new(&rows, 4),
            &|_: &TaskContext| {
                SINK.with(|s| s.set(Some(&ATTEMPT_ALLOCS)));
                SilentMap
            },
            &reduce_fn(|_: u8, _: Vec<u8>, _: &mut OutputCollector<()>| {}),
            &SingleReducerPartitioner,
        )
        .expect("a fault-free job succeeds");
        assert_eq!(outcome.metrics.map_tasks, 4);
        ATTEMPT_ALLOCS.load(Ordering::Relaxed)
    });
    assert!(count > 0, "the sink saw no map attempt");
}

// ---------------------------------------------------------------------
// The paper's reducers (Algorithms 6 and 9), driven directly.
// ---------------------------------------------------------------------

#[test]
fn gpsrs_reduce() {
    assert_flat("GpsrsReduceTask::reduce", N, |n| {
        let mut task = GpsrsReduceFactory::new(grid()).create(&context());
        let values = payloads(n, |_| true);
        let mut out = OutputCollector::default();
        let count = allocs(|| task.reduce(0, values, &mut out));
        assert_eq!(out.len(), SKYLINE.len());
        count
    });
}

#[test]
fn gpmrs_reduce() {
    // Two buckets share partition (0,0): each bucket's reducer finalizes
    // its designated partitions, one of them against (0,0) as a
    // comparison-only source.
    let grid = grid();
    let bitstring = Bitstring::from_tuples(grid, &skyline_then_dominated(3));
    let plan = plan_groups(&bitstring, 2, MergePolicy::ComputationCost);
    let shared = grid.index_of(&[0, 0]) as u32;
    assert_eq!(plan.num_buckets(), 2);
    assert!(plan.buckets.iter().all(|b| b.partitions.contains(&shared)));
    let (bitstring, plan) = (Arc::new(bitstring), Arc::new(plan));
    let mut outputs = 0;
    for (key, bucket) in plan.buckets.iter().enumerate() {
        assert_flat(&format!("GpmrsReduceTask::reduce (bucket {key})"), N, |n| {
            let factory = GpmrsReduceFactory::new(Arc::clone(&bitstring), Arc::clone(&plan));
            let mut task = factory.create(&context());
            let values = payloads(n, |p| bucket.partitions.contains(&p));
            let mut out = OutputCollector::default();
            let count = allocs(|| task.reduce(key as u32, values, &mut out));
            if n == N {
                outputs += out.len();
            }
            count
        });
    }
    assert_eq!(outputs, SKYLINE.len());
}

// ---------------------------------------------------------------------
// Exact counts of the dominance, grid and bitstring kernels on fixed
// inputs: the regression gate for those kernels, in place of timing them.
// ---------------------------------------------------------------------

/// 2,000 × 4-d tuples at seed 41, on a grid of 4 partitions per dimension
/// (4⁴ = 256 partitions, the middle of the paper's recommended PPD range).
const KERNEL_TUPLES: usize = 2_000;
const KERNEL_DIM: usize = 4;
const KERNEL_SEED: u64 = 41;
const KERNEL_PPD: usize = 4;

/// What one kernel call counted: its comparisons where it counts them, its
/// output (a skyline size, an XOR of partition indices, or a number of set
/// bits), and its allocations.
#[derive(Debug, PartialEq)]
struct Counts {
    cmps: Option<CmpStats>,
    output: u64,
    allocs: u64,
}

/// One call of each kernel, measured; the same in debug and release builds.
/// A change that moves a count on purpose pastes in the table the failing
/// test prints.
#[rustfmt::skip]
const KERNEL_COUNTS: [(&str, Counts); 11] = [
    ("local_skyline_bnl/correlated", Counts { cmps: Some(CmpStats { partition_cmps: 0, tuple_cmps: 2095 }), output: 5, allocs: 2 }),
    ("grid_assign/correlated", Counts { cmps: None, output: 245, allocs: 0 }),
    ("bitgrid_assign/correlated", Counts { cmps: None, output: 46, allocs: 1 }),
    ("local_skyline_bnl/independent", Counts { cmps: Some(CmpStats { partition_cmps: 0, tuple_cmps: 30300 }), output: 87, allocs: 4 }),
    ("grid_assign/independent", Counts { cmps: None, output: 81, allocs: 0 }),
    ("bitgrid_assign/independent", Counts { cmps: None, output: 256, allocs: 1 }),
    ("local_skyline_bnl/anticorrelated", Counts { cmps: Some(CmpStats { partition_cmps: 0, tuple_cmps: 404746 }), output: 550, allocs: 10 }),
    ("grid_assign/anticorrelated", Counts { cmps: None, output: 162, allocs: 0 }),
    ("bitgrid_assign/anticorrelated", Counts { cmps: None, output: 187, allocs: 1 }),
    ("compare_all_partitions/anticorrelated", Counts { cmps: Some(CmpStats { partition_cmps: 1342, tuple_cmps: 20710 }), output: 550, allocs: 15 }),
    ("bitgrid_or_assign/merge", Counts { cmps: None, output: 120, allocs: 1 }),
];

/// Runs each kernel once on the fixed inputs, set-up excluded.
fn kernel_counts() -> Vec<(String, Counts)> {
    let grid = Grid::new(KERNEL_DIM, KERNEL_PPD).unwrap();
    let mut rows = Vec::new();
    for (dist, label) in [
        (Distribution::Correlated, "correlated"),
        (Distribution::Independent, "independent"),
        (Distribution::Anticorrelated, "anticorrelated"),
    ] {
        let ds = generate(dist, KERNEL_DIM, KERNEL_TUPLES, KERNEL_SEED);
        let tuples = ds.tuples().to_vec();
        let (mut stats, mut size) = (CmpStats::default(), 0);
        let count = allocs(|| size = local_skyline(tuples, LocalAlgo::Bnl, &mut stats).len());
        rows.push((
            format!("local_skyline_bnl/{label}"),
            Counts {
                cmps: Some(stats),
                output: size as u64,
                allocs: count,
            },
        ));
        // The MR-GPMRS map side: every tuple to its grid partition.
        let mut acc = 0;
        let count = allocs(|| {
            for t in ds.tuples() {
                acc ^= grid.partition_of(t);
            }
        });
        rows.push((
            format!("grid_assign/{label}"),
            Counts {
                cmps: None,
                output: acc as u64,
                allocs: count,
            },
        ));
        // Its reduce side: the partition hits folded into a bitstring.
        let mut ones = 0;
        let count = allocs(|| {
            let mut bits = BitGrid::zeros(grid.num_partitions());
            for t in ds.tuples() {
                bits.set(grid.partition_of(t));
            }
            ones = bits.count_ones();
        });
        rows.push((
            format!("bitgrid_assign/{label}"),
            Counts {
                cmps: None,
                output: ones as u64,
                allocs: count,
            },
        ));
    }
    // Algorithm 5 over one mapper's windows of the anti-correlated data.
    let mut skylines = LocalSkylines::new();
    for t in generate(
        Distribution::Anticorrelated,
        KERNEL_DIM,
        KERNEL_TUPLES,
        KERNEL_SEED,
    )
    .tuples()
    {
        let p = grid.partition_of(t) as u32;
        insert_into_partition(&mut skylines, p, t.clone(), &mut CmpStats::default());
    }
    let mut stats = CmpStats::default();
    let count = allocs(|| compare_all_partitions(&grid, &mut skylines, &mut stats));
    rows.push((
        "compare_all_partitions/anticorrelated".to_owned(),
        Counts {
            cmps: Some(stats),
            output: skylines.values().map(Window::len).sum::<usize>() as u64,
            allocs: count,
        },
    ));
    // The MR-GPMRS reducers' bitstring merge, on fixed bit patterns.
    let (mut lhs, mut rhs) = (
        BitGrid::zeros(grid.num_partitions()),
        BitGrid::zeros(grid.num_partitions()),
    );
    (0..lhs.len()).step_by(3).for_each(|i| lhs.set(i));
    (0..rhs.len()).step_by(5).for_each(|i| rhs.set(i));
    let mut ones = 0;
    let count = allocs(|| {
        let mut merged = lhs.clone();
        merged.or_assign(&rhs);
        ones = merged.count_ones();
    });
    rows.push((
        "bitgrid_or_assign/merge".to_owned(),
        Counts {
            cmps: None,
            output: ones as u64,
            allocs: count,
        },
    ));
    rows
}

#[test]
fn kernel_counts_are_exact() {
    let measured = kernel_counts();
    let pinned: Vec<(String, &Counts)> = KERNEL_COUNTS
        .iter()
        .map(|(label, counts)| ((*label).to_owned(), counts))
        .collect();
    let same = measured.len() == pinned.len()
        && measured
            .iter()
            .zip(&pinned)
            .all(|(m, p)| m.0 == p.0 && m.1 == *p.1);
    if !same {
        let table: String = measured
            .iter()
            .map(|row| format!("    {row:?},\n"))
            .collect();
        panic!("kernel counts differ from KERNEL_COUNTS; measured:\n{table}");
    }
}
