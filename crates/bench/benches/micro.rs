//! Criterion micro-benchmarks for the hot kernels: tuple dominance, BNL
//! window insertion, bitstring generation and pruning, independent-group
//! generation, and the end-to-end pipelines at small scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use skymr::bitstring::Bitstring;
use skymr::groups::{generate_independent_groups, plan_groups, MergePolicy};
use skymr::local::{local_skyline, CmpStats, LocalAlgo};
use skymr::skyband::band_insert;
use skymr::{mr_gpmrs, mr_gpsrs, Countstring, Grid, SkylineConfig};
use skymr_baselines::{
    bnl_skyline, dnc_skyline, mr_bnl, sfs_skyline, BaselineConfig, SfsOrder, SkyQuadtree,
};
use skymr_common::dominance::{compare, dominates, Window};
use skymr_datagen::{generate, Distribution};

fn bench_dominance(c: &mut Criterion) {
    let mut group = c.benchmark_group("dominance");
    for dim in [2usize, 8, 16] {
        let ds = generate(Distribution::Independent, dim, 2, 7);
        let a = &ds.tuples()[0];
        let b = &ds.tuples()[1];
        group.bench_with_input(BenchmarkId::new("dominates", dim), &dim, |bench, _| {
            bench.iter(|| dominates(black_box(a), black_box(b)));
        });
        group.bench_with_input(BenchmarkId::new("compare", dim), &dim, |bench, _| {
            bench.iter(|| compare(black_box(a), black_box(b)));
        });
    }
    group.finish();
}

fn bench_bnl_window(c: &mut Criterion) {
    let mut group = c.benchmark_group("bnl_insert");
    for (dist, label) in [
        (Distribution::Independent, "independent"),
        (Distribution::Anticorrelated, "anticorrelated"),
    ] {
        let ds = generate(dist, 5, 2_000, 11);
        group.bench_function(BenchmarkId::new("window_2000", label), |bench| {
            bench.iter(|| {
                let mut window = Window::default();
                let mut examined = 0;
                for t in ds.tuples() {
                    window.insert(t.clone(), &mut examined);
                }
                black_box(window.len())
            });
        });
    }
    group.finish();
}

fn bench_centralized(c: &mut Criterion) {
    let mut group = c.benchmark_group("centralized");
    let ds = generate(Distribution::Anticorrelated, 4, 2_000, 13);
    group.bench_function("bnl_2000x4d", |b| {
        b.iter(|| black_box(bnl_skyline(ds.tuples())));
    });
    group.bench_function("sfs_2000x4d", |b| {
        b.iter(|| black_box(sfs_skyline(ds.tuples(), SfsOrder::Entropy)));
    });
    group.bench_function("dnc_2000x4d", |b| {
        b.iter(|| black_box(dnc_skyline(ds.tuples())));
    });
    group.finish();
}

fn bench_local_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_kernels");
    let ds = generate(Distribution::Anticorrelated, 4, 3_000, 29);
    for algo in [LocalAlgo::Bnl, LocalAlgo::Sfs, LocalAlgo::Dnc] {
        group.bench_function(format!("{algo:?}_3000x4d"), |b| {
            b.iter(|| {
                let mut stats = CmpStats::default();
                black_box(local_skyline(ds.tuples().to_vec(), algo, &mut stats))
            });
        });
    }
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions");
    let ds = generate(Distribution::Anticorrelated, 4, 3_000, 31);
    group.bench_function("band_insert_k4_3000", |b| {
        b.iter(|| {
            let mut window = Vec::new();
            for t in ds.tuples() {
                band_insert(&mut window, t.clone(), 4);
            }
            black_box(window.len())
        });
    });
    let grid = Grid::new(4, 6).unwrap();
    group.bench_function("countstring_build_prune", |b| {
        b.iter(|| {
            let mut cs = Countstring::from_tuples(grid, ds.tuples());
            cs.prune_dominated(4);
            black_box(cs.active_count())
        });
    });
    group.bench_function("sky_quadtree_build_500", |b| {
        b.iter(|| black_box(SkyQuadtree::build(4, &ds.tuples()[..500], 16)));
    });
    group.finish();
}

fn bench_bitstring(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitstring");
    let ds = generate(Distribution::Independent, 4, 20_000, 17);
    let grid = Grid::new(4, 8).unwrap();
    group.bench_function("generate_20k_8ppd_4d", |b| {
        b.iter(|| black_box(Bitstring::from_tuples(grid, ds.tuples())));
    });
    let bs = Bitstring::from_tuples(grid, ds.tuples());
    group.bench_function("prune_prefix_or", |b| {
        b.iter_batched(
            || bs.clone(),
            |mut bs| {
                bs.prune_dominated();
                black_box(bs)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.bench_function("prune_naive", |b| {
        b.iter_batched(
            || bs.clone(),
            |mut bs| {
                bs.prune_dominated_naive();
                black_box(bs)
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_groups(c: &mut Criterion) {
    let mut group = c.benchmark_group("groups");
    let ds = generate(Distribution::Anticorrelated, 4, 20_000, 19);
    let grid = Grid::new(4, 6).unwrap();
    let mut bs = Bitstring::from_tuples(grid, ds.tuples());
    bs.prune_dominated();
    group.bench_function("generate_independent_groups", |b| {
        b.iter(|| black_box(generate_independent_groups(&bs)));
    });
    group.bench_function("plan_groups_13r", |b| {
        b.iter(|| black_box(plan_groups(&bs, 13, MergePolicy::ComputationCost)));
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let ds = generate(Distribution::Anticorrelated, 4, 3_000, 23);
    let config = SkylineConfig::test();
    group.bench_function("mr_gpsrs_3k", |b| {
        b.iter(|| black_box(mr_gpsrs(&ds, &config).unwrap()));
    });
    group.bench_function("mr_gpmrs_3k", |b| {
        b.iter(|| black_box(mr_gpmrs(&ds, &config).unwrap()));
    });
    let bconfig = BaselineConfig::test();
    group.bench_function("mr_bnl_3k", |b| b.iter(|| black_box(mr_bnl(&ds, &bconfig))));
    group.finish();
}

criterion_group!(
    benches,
    bench_dominance,
    bench_bnl_window,
    bench_centralized,
    bench_local_kernels,
    bench_bitstring,
    bench_groups,
    bench_extensions,
    bench_end_to_end
);
criterion_main!(benches);
