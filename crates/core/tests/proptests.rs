//! Property tests for the paper's core machinery: grid geometry,
//! bitstring pruning, independent groups, the cost model, and the
//! signature-filtered local-skyline kernels against their scalar
//! predecessors.

use proptest::prelude::*;

use skymr::bitstring::job::generate_bitstring;
use skymr::bitstring::Bitstring;
use skymr::cost::{kappa_mapper, kappa_reducer, kappa_surface, rho_dom, rho_rem};
use skymr::gpsrs::PartitionSkylines;
use skymr::groups::{generate_independent_groups, plan_groups, MergePolicy};
use skymr::local::{
    bnl_reference, compare_all_partitions, eliminate_false_positives, insert_into_partition,
    local_skyline, CmpStats, LocalAlgo, LocalSkylines,
};
use skymr::{mr_gpmrs, Grid, SkylineConfig};
use skymr_common::dataset::canonicalize;
use skymr_common::dominance::{dominates, Window};
use skymr_common::{BitGrid, Dataset, Tuple};
use skymr_datagen::{generate, Distribution};

mod scalar;

/// A random small grid (d, n) with n^d capped to keep cases fast.
fn arb_grid() -> impl Strategy<Value = Grid> {
    (1usize..=4, 1usize..=5)
        .prop_filter("cap partitions", |(d, n)| n.pow(*d as u32) <= 700)
        .prop_map(|(d, n)| Grid::new(d, n).expect("valid grid"))
}

/// A random bit pattern over a grid.
fn arb_bitstring() -> impl Strategy<Value = Bitstring> {
    arb_grid().prop_flat_map(|grid| {
        proptest::collection::vec(any::<bool>(), grid.num_partitions()).prop_map(move |flags| {
            let mut bits = BitGrid::zeros(grid.num_partitions());
            for (i, f) in flags.iter().enumerate() {
                if *f {
                    bits.set(i);
                }
            }
            Bitstring::from_parts(grid, bits)
        })
    })
}

proptest! {
    #[test]
    fn grid_index_coordinate_roundtrip(grid in arb_grid()) {
        for i in 0..grid.num_partitions() {
            prop_assert_eq!(grid.index_of(&grid.coords_of(i)), i);
        }
    }

    #[test]
    fn adr_and_dr_are_dual(grid in arb_grid()) {
        for p in 0..grid.num_partitions() {
            for q in grid.dr(p) {
                // q is dominated by p, so p is an anti-dominator of q …
                prop_assert!(grid.in_adr(q, p), "p={p} q={q}: DR/ADR duality broken");
                // … and the dominance predicate agrees.
                prop_assert!(grid.partition_dominates(p, q));
            }
            for q in grid.adr(p) {
                prop_assert!(!grid.partition_dominates(p, q), "ADR member dominated by p");
            }
        }
    }

    #[test]
    fn adr_size_matches_iterator(grid in arb_grid()) {
        for p in 0..grid.num_partitions() {
            prop_assert_eq!(grid.adr_size(p), grid.adr(p).count() as u64);
        }
    }

    #[test]
    fn partition_of_respects_cell_bounds(grid in arb_grid(), raw in proptest::collection::vec(0.0f64..1.0, 1..=4)) {
        if raw.len() != grid.dim() {
            return Ok(());
        }
        let t = Tuple::new(0, raw);
        let p = grid.partition_of(&t);
        let coords = grid.coords_of(p);
        let w = 1.0 / grid.ppd() as f64;
        for (k, &c) in coords.iter().enumerate() {
            prop_assert!(t.values[k] >= c as f64 * w - 1e-12);
            prop_assert!(t.values[k] < (c + 1) as f64 * w + 1e-12);
        }
    }

    #[test]
    fn prune_fast_equals_naive(bs in arb_bitstring()) {
        let mut fast = bs.clone();
        let mut naive = bs;
        fast.prune_dominated();
        naive.prune_dominated_naive();
        prop_assert_eq!(fast, naive);
    }

    #[test]
    fn pruning_never_removes_undominated_partitions(bs in arb_bitstring()) {
        let mut pruned = bs.clone();
        pruned.prune_dominated();
        let grid = *bs.grid();
        for p in 0..grid.num_partitions() {
            let dominated = bs
                .iter_set()
                .any(|q| grid.partition_dominates(q, p));
            if bs.is_set(p) {
                prop_assert_eq!(
                    pruned.is_set(p),
                    !dominated,
                    "partition {} wrongly pruned/kept", p
                );
            } else {
                prop_assert!(!pruned.is_set(p));
            }
        }
    }

    #[test]
    fn pruned_partitions_never_hold_skyline_points(
        dim in 2usize..=4,
        ppd in 2usize..=4,
        raw in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 4), 1..120),
    ) {
        // Lemma 1 soundness on real data, not just bit patterns: build the
        // occupancy bitstring of a random 2–4d dataset, prune it with the
        // DR/ADR rule (Equation 2), and check that no tuple of the true
        // skyline lives in a pruned partition — pruning may only discard
        // regions that provably contain dominated tuples.
        let grid = Grid::new(dim, ppd).expect("valid grid");
        let tuples: Vec<Tuple> = raw
            .iter()
            .enumerate()
            .map(|(id, row)| Tuple::new(id as u64, row[..dim].to_vec()))
            .collect();
        let mut bits = BitGrid::zeros(grid.num_partitions());
        for t in &tuples {
            bits.set(grid.partition_of(t));
        }
        let mut bs = Bitstring::from_parts(grid, bits);
        bs.prune_dominated();
        for t in bnl_reference(&tuples) {
            let p = grid.partition_of(&t);
            prop_assert!(
                bs.is_set(p),
                "skyline tuple {} sits in pruned partition {}", t.id, p
            );
        }
    }

    #[test]
    fn groups_cover_and_are_adr_closed(bs in arb_bitstring()) {
        let mut pruned = bs;
        pruned.prune_dominated();
        let grid = *pruned.grid();
        let groups = generate_independent_groups(&pruned);
        let surviving: std::collections::BTreeSet<u32> =
            pruned.iter_set().map(|p| p as u32).collect();
        let covered: std::collections::BTreeSet<u32> =
            groups.iter().flat_map(|g| g.partitions.iter().copied()).collect();
        prop_assert_eq!(&covered, &surviving);
        for g in &groups {
            let members: std::collections::BTreeSet<u32> =
                g.partitions.iter().copied().collect();
            for &p in &g.partitions {
                for q in grid.adr(p as usize) {
                    if pruned.is_set(q) {
                        prop_assert!(members.contains(&(q as u32)));
                    }
                }
            }
        }
    }

    #[test]
    fn plans_designate_every_partition_once(
        bs in arb_bitstring(),
        reducers in 1usize..6,
        comm in any::<bool>(),
    ) {
        let mut pruned = bs;
        pruned.prune_dominated();
        let policy = if comm { MergePolicy::CommunicationCost } else { MergePolicy::ComputationCost };
        let plan = plan_groups(&pruned, reducers, policy);
        let surviving: std::collections::BTreeSet<u32> =
            pruned.iter_set().map(|p| p as u32).collect();
        prop_assert_eq!(
            plan.designated.keys().copied().collect::<std::collections::BTreeSet<u32>>(),
            surviving
        );
        for (&p, &b) in &plan.designated {
            prop_assert!(b < plan.num_buckets());
            prop_assert!(plan.buckets[b].partitions.contains(&p));
        }
        // Every group lands in exactly one bucket.
        let mut assigned = std::collections::BTreeSet::new();
        for bucket in &plan.buckets {
            for &gi in &bucket.group_indices {
                prop_assert!(assigned.insert(gi));
            }
        }
        prop_assert_eq!(assigned.len(), plan.groups.len());
    }

    #[test]
    fn local_skyline_machinery_equals_flat_bnl(
        rows in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 0..150),
        ppd in 1usize..5,
    ) {
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .enumerate()
            .map(|(i, v)| Tuple::new(i as u64, v))
            .collect();
        let grid = Grid::new(3, ppd).expect("valid grid");
        let mut skylines = LocalSkylines::new();
        let mut stats = CmpStats::default();
        for t in &tuples {
            let p = grid.partition_of(t) as u32;
            insert_into_partition(&mut skylines, p, t.clone(), &mut stats);
        }
        compare_all_partitions(&grid, &mut skylines, &mut stats);
        let mut got: Vec<Tuple> = skylines.into_values().flatten().collect();
        got.sort_by_key(|t| t.id);
        prop_assert_eq!(got, bnl_reference(&tuples));
    }

    #[test]
    fn window_is_always_an_antichain(
        rows in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 2), 0..100),
    ) {
        let mut window = Window::default();
        let mut examined = 0;
        for (i, v) in rows.into_iter().enumerate() {
            window.insert(Tuple::new(i as u64, v), &mut examined);
            for a in &window {
                for b in &window {
                    prop_assert!(!dominates(a, b), "window holds a dominated tuple");
                }
            }
        }
    }

    #[test]
    fn cost_model_identities(n in 1u64..8, d in 1u32..6) {
        // ρ_rem counts the union of the d origin surfaces.
        let grid = Grid::new(d as usize, n as usize).expect("valid grid");
        let on_surface = (0..grid.num_partitions())
            .filter(|&p| grid.coords_of(p).contains(&0))
            .count() as u64;
        prop_assert_eq!(rho_rem(n, d), on_surface);
        // κ_mapper sums ρ_dom over exactly those partitions.
        let brute: u128 = (0..grid.num_partitions())
            .filter(|&p| grid.coords_of(p).contains(&0))
            .map(|p| {
                let coords: Vec<u64> =
                    grid.coords_of(p).iter().map(|&c| c as u64 + 1).collect();
                rho_dom(&coords)
            })
            .sum();
        prop_assert_eq!(kappa_mapper(n, d), brute);
        // κ_reducer is the first surface and at least every later one.
        for j in 1..=d {
            prop_assert!(kappa_surface(n, d, j) <= kappa_reducer(n, d));
        }
    }
}

/// Inputs for the kernel-parity properties: `(d, rows)` from the three
/// paper distributions at 1–6 dimensions, in the plain shape or one of the
/// degenerate ones — empty, every row equal, every row twice, or snapped to
/// a coarse lattice (ties on every dimension, many equal rows).
fn arb_rows() -> impl Strategy<Value = (usize, Vec<Tuple>)> {
    (0usize..3, 1usize..=6, 1usize..220, any::<u64>(), 0u8..8).prop_map(
        |(dist, dim, card, seed, shape)| {
            let dist = [
                Distribution::Independent,
                Distribution::Correlated,
                Distribution::Anticorrelated,
            ][dist];
            let mut rows: Vec<Vec<f64>> = generate(dist, dim, card, seed)
                .tuples()
                .iter()
                .map(|t| t.values.to_vec())
                .collect();
            match shape {
                0 => rows.clear(),
                1 => rows = vec![rows[0].clone(); card],
                2 => rows.extend(rows.clone()),
                3 => rows
                    .iter_mut()
                    .flatten()
                    .for_each(|v| *v = (*v * 4.0).floor() / 4.0),
                _ => {}
            }
            let tuples = rows
                .into_iter()
                .enumerate()
                .map(|(i, v)| Tuple::new(i as u64, v))
                .collect();
            (dim, tuples)
        },
    )
}

/// A windowed task state with the signatures dropped, for comparison with
/// the scalar one — partition by partition, in window order.
fn unsigned(skylines: &LocalSkylines) -> scalar::LocalSkylines {
    skylines
        .iter()
        .map(|(&p, window)| (p, window.as_slice().to_vec()))
        .collect()
}

proptest! {
    #[test]
    fn windowed_insert_and_compare_equal_scalar((dim, rows) in arb_rows(), ppd in 1usize..5) {
        let grid = Grid::new(dim, ppd).expect("valid grid");
        let (mut windowed, mut reference) = (LocalSkylines::new(), scalar::LocalSkylines::new());
        let (mut stats, mut want) = (CmpStats::default(), CmpStats::default());
        for t in &rows {
            let p = grid.partition_of(t) as u32;
            insert_into_partition(&mut windowed, p, t.clone(), &mut stats);
            scalar::insert_into_partition(&mut reference, p, t.clone(), &mut want);
        }
        prop_assert_eq!(unsigned(&windowed), reference.clone());
        prop_assert_eq!(stats, want);
        compare_all_partitions(&grid, &mut windowed, &mut stats);
        scalar::compare_all_partitions(&grid, &mut reference, &mut want);
        prop_assert_eq!(unsigned(&windowed), reference);
        prop_assert_eq!(stats, want);
    }

    #[test]
    fn windowed_local_kernels_equal_scalar((_, rows) in arb_rows()) {
        for algo in [LocalAlgo::Bnl, LocalAlgo::Sfs, LocalAlgo::Dnc] {
            let (mut stats, mut want) = (CmpStats::default(), CmpStats::default());
            let got = local_skyline(rows.clone(), algo, &mut stats);
            let reference = scalar::local_skyline(rows.clone(), algo, &mut want);
            prop_assert_eq!(got, reference, "{:?} output or order differs", algo);
            prop_assert_eq!(stats, want, "{:?} counters differ", algo);
        }
    }

    #[test]
    fn windowed_compare_against_sources_equals_scalar(
        (dim, rows) in arb_rows(),
        ppd in 1usize..5,
    ) {
        // Odd partitions are raw comparison sources (unions, not skylines),
        // even ones are merged and pruned — the MR-GPMRS reducer's shape.
        let grid = Grid::new(dim, ppd).expect("valid grid");
        let (mut windowed, mut reference) = (LocalSkylines::new(), scalar::LocalSkylines::new());
        let mut sources = scalar::LocalSkylines::new();
        let (mut stats, mut want) = (CmpStats::default(), CmpStats::default());
        for t in &rows {
            let p = grid.partition_of(t) as u32;
            if p % 2 == 1 {
                sources.entry(p).or_default().push(t.clone());
            } else {
                insert_into_partition(&mut windowed, p, t.clone(), &mut stats);
                scalar::insert_into_partition(&mut reference, p, t.clone(), &mut want);
            }
        }
        let signed_sources: LocalSkylines = sources
            .iter()
            .map(|(&q, tuples)| (q, Window::from(tuples.clone())))
            .collect();
        eliminate_false_positives(&grid, &mut windowed, &signed_sources, &mut stats);
        scalar::compare_against_sources(&grid, &mut reference, &sources, &mut want);
        prop_assert_eq!(unsigned(&windowed), reference);
        prop_assert_eq!(stats, want);
    }
}

proptest! {
    // Each case runs the bitstring job twice and the skyline job once.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gpmrs_job_counters_equal_scalar_replay(
        (dim, rows) in arb_rows(),
        reducers in 1usize..5,
        ppd in 1usize..4,
    ) {
        let data = Dataset::new(dim, rows).expect("rows lie in the unit cube");
        let config = SkylineConfig::test().with_reducers(reducers).with_ppd(ppd);
        let run = mr_gpmrs(&data, &config).expect("pipeline runs");

        // Algorithms 8–9 replayed outside the engine with the scalar kernels.
        let splits = data.split(config.mappers);
        let (bitstring, _, _) =
            generate_bitstring(&splits, dim, data.len(), &config).expect("bitstring job runs");
        let grid = *bitstring.grid();
        let plan = plan_groups(&bitstring, config.reducers, config.merge_policy);
        let mut map_stats = CmpStats::default();
        let mut inbox: Vec<Vec<PartitionSkylines>> = vec![Vec::new(); plan.num_buckets()];
        for split in &splits {
            let mut skylines = scalar::LocalSkylines::new();
            for t in split {
                let p = grid.partition_of(t);
                if bitstring.is_set(p) {
                    scalar::insert_into_partition(&mut skylines, p as u32, t.clone(), &mut map_stats);
                }
            }
            scalar::compare_all_partitions(&grid, &mut skylines, &mut map_stats);
            for (bucket, values) in plan.buckets.iter().zip(inbox.iter_mut()) {
                values.push(
                    skylines
                        .iter()
                        .filter(|(p, _)| bucket.partitions.contains(p))
                        .map(|(&p, s)| (p, s.clone()))
                        .collect(),
                );
            }
        }
        let counter = |key: &str| run.counters.get(key).copied().unwrap_or(0);
        let mut reduce_stats = CmpStats::default();
        let mut skyline = Vec::new();
        for (bucket_index, values) in inbox.into_iter().enumerate() {
            let mut stats = CmpStats::default();
            skyline.extend(scalar::gpmrs_reduce(&grid, &plan, bucket_index, values, &mut stats));
            prop_assert_eq!(
                counter(&format!("gpmrs.reduce.bucket.{bucket_index}.tuple_cmps")),
                stats.tuple_cmps
            );
            prop_assert_eq!(
                counter(&format!("gpmrs.reduce.bucket.{bucket_index}.partition_cmps")),
                stats.partition_cmps
            );
            reduce_stats.absorb(stats);
        }
        prop_assert_eq!(run.skyline, canonicalize(skyline));
        prop_assert_eq!(counter("gpmrs.map.tuple_cmps"), map_stats.tuple_cmps);
        prop_assert_eq!(counter("gpmrs.map.partition_cmps"), map_stats.partition_cmps);
        prop_assert_eq!(counter("gpmrs.reduce.tuple_cmps"), reduce_stats.tuple_cmps);
        prop_assert_eq!(counter("gpmrs.reduce.partition_cmps"), reduce_stats.partition_cmps);
    }
}
