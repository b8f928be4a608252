//! Kernel micro-benchmark with a machine-readable baseline.
//!
//! Times the BNL local-skyline kernel and the cross-partition
//! `ComparePartitions` sweep — the paper's §6 cost-model bottleneck — and
//! the grid/bitstring assignment kernels (§4's per-tuple partition mapping
//! and the `BitGrid` merge the MR-GPMRS reducers hammer) on correlated,
//! independent, and anti-correlated data, then writes the
//! per-distribution means to `BENCH_dominance.json` at the repo root
//! (override the destination with `SKYMR_BENCH_OUT`, which
//! `cargo xtask bench-gate` uses for its sample runs). CI smoke-runs
//! this bench and checks the document parses, and `bench-gate` compares
//! fresh medians against the committed baseline.
//!
//! Only series that `benchmark/`'s probes do not already measure live
//! here. The single-pair `dominates` / `compare` timings (5–14 ns, under
//! `bench-gate`'s 30 ns absolute floor, so they could never fail) are the
//! `common.dominance.compare_ns` probe; `crc32c`, `frame_encode` and
//! `frame_decode` are `common.bytes.{crc32c,encode,decode}_mib_per_s`.

use criterion::{black_box, BatchSize, BenchmarkId, Criterion};
use skymr::grid::Grid;
use skymr::local::{
    compare_all_partitions, insert_into_partition, local_skyline, CmpStats, LocalAlgo,
    LocalSkylines,
};
use skymr_bench::{render_kernel_bench_json, KernelTiming};
use skymr_common::bitgrid::BitGrid;
use skymr_datagen::{generate, Distribution};

/// Dataset size for the BNL kernel runs: large enough that window
/// scanning dominates, small enough for a CI smoke run.
const KERNEL_TUPLES: usize = 2_000;
const DIM: usize = 4;
const SEED: u64 = 41;

/// Partitions per dimension for the grid-assignment kernels — the
/// midpoint of the paper's recommended 2‥6 range, giving `4⁴ = 256`
/// partitions at `DIM = 4`.
const PPD: usize = 4;

const DISTRIBUTIONS: [(Distribution, &str); 3] = [
    (Distribution::Correlated, "correlated"),
    (Distribution::Independent, "independent"),
    (Distribution::Anticorrelated, "anticorrelated"),
];

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance");
    for (dist, label) in DISTRIBUTIONS {
        let ds = generate(dist, DIM, KERNEL_TUPLES, SEED);
        group.bench_with_input(
            BenchmarkId::new("local_skyline_bnl", label),
            &dist,
            |bench, _| {
                bench.iter(|| {
                    let mut stats = CmpStats::default();
                    black_box(local_skyline(
                        ds.tuples().to_vec(),
                        LocalAlgo::Bnl,
                        &mut stats,
                    ))
                });
            },
        );
        // The MR-GPMRS map side: every tuple maps to its grid partition
        // (the paper's §4 bitstring-generation inner loop).
        let grid = Grid::new(DIM, PPD).expect("valid grid");
        group.bench_with_input(BenchmarkId::new("grid_assign", label), &dist, |bench, _| {
            bench.iter(|| {
                let mut acc = 0usize;
                for t in ds.tuples() {
                    acc ^= grid.partition_of(black_box(t));
                }
                acc
            });
        });
        // The reduce side of the same loop: fold the per-tuple partition
        // hits into a `BitGrid` bitstring.
        group.bench_with_input(
            BenchmarkId::new("bitgrid_assign", label),
            &dist,
            |bench, _| {
                bench.iter(|| {
                    let mut bits = BitGrid::zeros(grid.num_partitions());
                    for t in ds.tuples() {
                        bits.set(grid.partition_of(black_box(t)));
                    }
                    bits.count_ones()
                });
            },
        );
    }
    // Algorithm 5 over a mapper's per-partition windows: the packed
    // partition-pair ADR test plus the signature-filtered prune. Anti-
    // correlated data leaves the most partitions occupied and the most
    // false positives to remove; building the windows is set-up.
    let grid = Grid::new(DIM, PPD).expect("valid grid");
    let mut windows = LocalSkylines::new();
    for t in generate(Distribution::Anticorrelated, DIM, KERNEL_TUPLES, SEED).tuples() {
        let p = grid.partition_of(t) as u32;
        insert_into_partition(&mut windows, p, t.clone(), &mut CmpStats::default());
    }
    group.bench_function("compare_all_partitions/anticorrelated", |bench| {
        bench.iter_batched(
            || windows.clone(),
            |mut skylines| {
                let mut stats = CmpStats::default();
                compare_all_partitions(&grid, &mut skylines, &mut stats);
                (skylines, stats)
            },
            BatchSize::SmallInput,
        );
    });
    // The bitstring merge the MR-GPMRS reducers hammer: OR-fold of
    // per-mapper bitstrings. Data-independent, so a single series.
    let words = grid.num_partitions();
    let mut lhs = BitGrid::zeros(words);
    let mut rhs = BitGrid::zeros(words);
    for i in (0..words).step_by(3) {
        lhs.set(i);
    }
    for i in (0..words).step_by(5) {
        rhs.set(i);
    }
    group.bench_function("bitgrid_or_assign/merge", |bench| {
        bench.iter(|| {
            let mut acc = black_box(&lhs).clone();
            acc.or_assign(black_box(&rhs));
            acc.count_ones()
        });
    });
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_kernels(&mut criterion);

    let rows: Vec<KernelTiming> = criterion::take_measurements()
        .into_iter()
        .map(|m| KernelTiming {
            label: m.label,
            mean_ns: m.mean_ns,
            iters: m.iters,
        })
        .collect();
    // `cargo xtask bench-gate` points each sample run at a scratch file;
    // a plain `cargo bench` refreshes the committed baseline in place.
    let path = std::env::var("SKYMR_BENCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dominance.json").to_owned()
    });
    std::fs::write(&path, render_kernel_bench_json("dominance", &rows))
        .expect("write the kernel bench export");
    println!("wrote {path} ({} results)", rows.len());
}
