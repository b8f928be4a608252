//! Dynamic analysis for the engine: invariant checkers wired into the job
//! driver in debug builds, and a *schedule shaker* that reruns a job under
//! many seeded thread-count/ordering configurations to prove its output
//! does not depend on the execution schedule.
//!
//! # Invariants
//!
//! * **Shuffle is a partition of mapper output** — every key/value pair a
//!   mapper emits reaches exactly one reducer, none are dropped or
//!   duplicated ([`check_shuffle_partition`]).
//! * **Reducer input groups are key-disjoint** — no key is handed to two
//!   reduce tasks ([`check_groups_disjoint`]).
//! * **A skyline is dominance-free** — no output tuple dominates another
//!   ([`check_antichain`] for the generic relation, [`check_skyline`] for
//!   the workspace's [`Tuple`] dominance).
//!
//! [`run_job`](crate::run_job) checks the first two after its fetch stage
//! in debug builds (`debug_assertions`), over the runs it is about to hand
//! to the reducers — in memory or spilled — so every unit/integration
//! test run exercises them for free; release benchmarks pay nothing. A
//! spilled run that cannot be read is left to the reduce attempt that
//! reads it, as in a release build.
//!
//! # The schedule shaker
//!
//! The engine's claim is that its output is a pure function of the input:
//! thread counts, slot counts, and split order only move the simulated
//! clock, never the answer. [`schedule_shake`] makes that claim testable:
//! it derives `n` [`ShakeCase`]s from one seed (each case fixes a host
//! thread count, slot counts, and a permutation seed), runs the caller's
//! job closure once per case, and demands byte-identical output from every
//! run. Anything schedule-dependent — a `HashMap` iteration order leaking
//! into output, a reduction merged in arrival order, a data race — shows
//! up as a [`ScheduleDivergence`] naming the first diverging case.

use std::collections::BTreeMap;
use std::fmt;

use skymr_common::dominance::dominates;
use skymr_common::{Tuple, Wire};

use crate::cluster::{ClusterConfig, Placement};
use crate::storage::{segment::PartitionReader, RunSource, StorageError};

// ---------------------------------------------------------------------
// Invariant checkers.
// ---------------------------------------------------------------------

/// A violated engine invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant failed, e.g. `shuffle-partition`.
    pub invariant: &'static str,
    /// Human-readable specifics (offending key, counts, indices).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invariant `{}` violated: {}",
            self.invariant, self.detail
        )
    }
}

/// Result type of the invariant checkers.
pub type InvariantResult = Result<(), Violation>;

/// Checks that the reducer input `groups` are key-disjoint: every key is
/// owned by at most one reduce task.
pub fn check_groups_disjoint<K: Ord + Clone + fmt::Debug, V>(
    groups: &[BTreeMap<K, Vec<V>>],
) -> InvariantResult {
    let mut owner: BTreeMap<&K, usize> = BTreeMap::new();
    for (j, group) in groups.iter().enumerate() {
        for k in group.keys() {
            if let Some(&prev) = owner.get(k) {
                return Err(Violation {
                    invariant: "groups-disjoint",
                    detail: format!("key {k:?} routed to both reducer {prev} and reducer {j}"),
                });
            }
            owner.insert(k, j);
        }
    }
    Ok(())
}

/// Checks that the shuffle partitioned the mapper output: the per-key pair
/// counts `emitted` by the map phase equal the per-key counts across the
/// reducer input `groups` (nothing dropped, nothing duplicated), and the
/// groups are key-disjoint.
pub fn check_shuffle_partition<K: Ord + Clone + fmt::Debug, V>(
    emitted: &BTreeMap<K, u64>,
    groups: &[BTreeMap<K, Vec<V>>],
) -> InvariantResult {
    check_groups_disjoint(groups)?;
    let mut received: BTreeMap<&K, u64> = BTreeMap::new();
    for group in groups {
        for (k, vs) in group {
            *received.entry(k).or_insert(0) += vs.len() as u64;
        }
    }
    for (k, &sent) in emitted {
        let got = received.remove(k).unwrap_or(0);
        if got != sent {
            return Err(Violation {
                invariant: "shuffle-partition",
                detail: format!("key {k:?}: mappers emitted {sent} pair(s), reducers got {got}"),
            });
        }
    }
    if let Some((k, got)) = received.into_iter().next() {
        return Err(Violation {
            invariant: "shuffle-partition",
            detail: format!("key {k:?}: reducers got {got} pair(s) the mappers never emitted"),
        });
    }
    Ok(())
}

/// Checks that `items` form an antichain under `relation`: no element is
/// related to (dominates) another. `O(n²)` — debug/test use only.
pub fn check_antichain<T, F>(items: &[T], relation: F) -> InvariantResult
where
    F: Fn(&T, &T) -> bool,
{
    for (i, a) in items.iter().enumerate() {
        for (j, b) in items.iter().enumerate() {
            if i != j && relation(a, b) {
                return Err(Violation {
                    invariant: "antichain",
                    detail: format!("element {i} dominates element {j}"),
                });
            }
        }
    }
    Ok(())
}

/// Checks that a computed skyline is dominance-free under the workspace's
/// tuple dominance relation.
pub fn check_skyline(skyline: &[Tuple]) -> InvariantResult {
    check_antichain(skyline, dominates).map_err(|v| Violation {
        invariant: "skyline-dominance-free",
        detail: v.detail,
    })
}

/// Debug-build hook used by the job driver after fetch, over the runs
/// actually handed to the reducers. Every run — memory or disk — must
/// account for its share of the `produced` map output records (for a disk
/// run that is its segment's recorded count, so a dropped, duplicated, or
/// mis-sized spill partition shows up before it is read), and every run —
/// a decoded frame or a spill partition streamed off disk — is checked
/// pair by pair against the per-key counts the mappers `emitted` (tallied
/// in `route`, before anything was encoded or written), and for
/// key-disjointness across reducers. Panics with the violation. A disk
/// run that fails to read stops the pair-by-pair check without a verdict:
/// the storage failure belongs to the reduce attempt that reads the run.
pub(crate) fn assert_shuffle_invariants<K: Wire + Ord + Clone + fmt::Debug, V: Wire>(
    emitted: &BTreeMap<K, u64>,
    produced: u64,
    inputs: Vec<Vec<RunSource<K, V>>>,
) {
    let delivered: u64 = inputs.iter().flatten().map(RunSource::records).sum();
    if delivered != produced {
        let v = Violation {
            invariant: "shuffle-partition",
            detail: format!("mappers produced {produced} record(s), reducer runs hold {delivered}"),
        };
        panic!("{v}");
    }
    let group_of = |runs: Vec<RunSource<K, V>>| {
        let mut group: BTreeMap<K, Vec<()>> = BTreeMap::new();
        for run in runs {
            tally_run(run, &mut group)?;
        }
        Ok::<_, StorageError>(group)
    };
    let Ok(groups) = inputs
        .into_iter()
        .map(group_of)
        .collect::<Result<Vec<_>, _>>()
    else {
        return;
    };
    if let Err(v) = check_shuffle_partition(emitted, &groups) {
        panic!("{v}");
    }
}

/// Adds one run's pairs to its reducer's per-key tally: a memory run pair
/// by pair, a disk run streamed off its segment one chunk at a time.
fn tally_run<K: Wire + Ord, V: Wire>(
    run: RunSource<K, V>,
    group: &mut BTreeMap<K, Vec<()>>,
) -> Result<(), StorageError> {
    match run {
        RunSource::Mem(pairs) => {
            for (k, _) in pairs {
                group.entry(k).or_default().push(());
            }
        }
        RunSource::Disk { segment, part } => {
            let mut reader = PartitionReader::<K, V>::open(&segment, part)?;
            while let Some((k, _)) = reader.next_pair()? {
                group.entry(k).or_default().push(());
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The schedule shaker.
// ---------------------------------------------------------------------

/// One execution configuration the shaker runs a job under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShakeCase {
    /// Case number (0-based).
    pub index: usize,
    /// Host threads executing tasks concurrently (1–8).
    pub host_threads: usize,
    /// Simulated concurrent map slots (1–6).
    pub map_slots: usize,
    /// Simulated concurrent reduce slots (1–6).
    pub reduce_slots: usize,
    /// Seed for input-order permutations via [`ShakeCase::permute`].
    pub shuffle_seed: u64,
    /// Seed for the case's task [`Placement`]: where tasks live on the
    /// simulated nodes must never leak into job output either.
    pub placement_seed: u64,
}

impl ShakeCase {
    /// `base` with this case's thread and slot counts applied, plus a
    /// case-seeded [`Placement`] so node assignment varies across cases.
    pub fn cluster(&self, base: &ClusterConfig) -> ClusterConfig {
        let mut c = base.clone();
        c.host_threads = self.host_threads;
        c.map_slots = self.map_slots;
        c.reduce_slots = self.reduce_slots;
        c.placement = Some(Placement::new(self.placement_seed));
        c
    }

    /// Permutes `items` with a Fisher–Yates shuffle driven by this case's
    /// seed — reorder splits or input records to vary task/arrival order.
    pub fn permute<T>(&self, items: &mut [T]) {
        let mut state = self.shuffle_seed;
        for i in (1..items.len()).rev() {
            let j = (splitmix64(&mut state) as usize) % (i + 1);
            items.swap(i, j);
        }
    }
}

/// Derives `n` distinct-looking [`ShakeCase`]s from `seed`. Case 0 always
/// pins `host_threads = 1` (the fully serial schedule) so every shake
/// compares concurrent schedules against a serial baseline.
pub fn shake_cases(n: usize, seed: u64) -> Vec<ShakeCase> {
    let mut state = seed;
    (0..n)
        .map(|index| ShakeCase {
            index,
            host_threads: if index == 0 {
                1
            } else {
                1 + (splitmix64(&mut state) as usize) % 8
            },
            map_slots: 1 + (splitmix64(&mut state) as usize) % 6,
            reduce_slots: 1 + (splitmix64(&mut state) as usize) % 6,
            shuffle_seed: splitmix64(&mut state),
            placement_seed: splitmix64(&mut state),
        })
        .collect()
}

/// How a shake failed: some case produced different bytes than case 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleDivergence {
    /// The case whose output diverged from case 0's.
    pub case: ShakeCase,
    /// First byte offset at which the outputs differ, or the shorter
    /// output's length if one is a prefix of the other.
    pub first_difference: usize,
    /// Output lengths of (baseline, diverged case).
    pub lengths: (usize, usize),
}

impl fmt::Display for ScheduleDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule-dependent output: case {} ({} host threads, {}x{} slots, seed {:#x}) \
             diverged from the serial baseline at byte {} (lengths {} vs {})",
            self.case.index,
            self.case.host_threads,
            self.case.map_slots,
            self.case.reduce_slots,
            self.case.shuffle_seed,
            self.first_difference,
            self.lengths.0,
            self.lengths.1,
        )
    }
}

/// A successful shake: every case produced byte-identical output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShakeReport {
    /// The configurations that were run.
    pub cases: Vec<ShakeCase>,
    /// Length in bytes of the (common) output.
    pub output_len: usize,
}

/// Runs `run` once per seeded case and verifies all outputs are
/// byte-identical. The closure should serialize the job's *sorted* logical
/// output (e.g. skyline tuples ordered by id) — not metrics or timings,
/// which legitimately vary with the schedule.
///
/// Returns the report on success, or the first divergence found.
///
/// # Panics
///
/// Panics if `n == 0` — a shake needs at least the serial baseline.
pub fn schedule_shake<F>(n: usize, seed: u64, mut run: F) -> Result<ShakeReport, ScheduleDivergence>
where
    F: FnMut(&ShakeCase) -> Vec<u8>,
{
    assert!(n > 0, "schedule_shake needs at least one case");
    let cases = shake_cases(n, seed);
    let baseline = run(&cases[0]);
    for case in &cases[1..] {
        let output = run(case);
        if output != baseline {
            let first_difference = baseline
                .iter()
                .zip(output.iter())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| baseline.len().min(output.len()));
            return Err(ScheduleDivergence {
                case: case.clone(),
                first_difference,
                lengths: (baseline.len(), output.len()),
            });
        }
    }
    Ok(ShakeReport {
        cases,
        output_len: baseline.len(),
    })
}

/// [`schedule_shake`], but panics with the divergence report — the form
/// tests use.
pub fn assert_schedule_independent<F>(n: usize, seed: u64, run: F) -> ShakeReport
where
    F: FnMut(&ShakeCase) -> Vec<u8>,
{
    match schedule_shake(n, seed, run) {
        Ok(report) => report,
        Err(div) => panic!("{div}"),
    }
}

/// SplitMix64 — the workspace's standard seed-expansion step. Local copy
/// so the engine crate stays dependency-free; the sequence is fixed by the
/// algorithm, not by this implementation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups_of(pairs: &[&[(u32, u32)]]) -> Vec<BTreeMap<u32, Vec<u32>>> {
        pairs
            .iter()
            .map(|g| {
                let mut m: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
                for &(k, v) in *g {
                    m.entry(k).or_default().push(v);
                }
                m
            })
            .collect()
    }

    fn emitted_of(pairs: &[(u32, u64)]) -> BTreeMap<u32, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn consistent_shuffle_passes() {
        let groups = groups_of(&[&[(1, 10), (1, 11)], &[(2, 20)]]);
        let emitted = emitted_of(&[(1, 2), (2, 1)]);
        assert_eq!(check_shuffle_partition(&emitted, &groups), Ok(()));
    }

    #[test]
    fn dropped_pair_is_reported() {
        let groups = groups_of(&[&[(1, 10)]]);
        let emitted = emitted_of(&[(1, 2)]);
        let err = check_shuffle_partition(&emitted, &groups).unwrap_err();
        assert_eq!(err.invariant, "shuffle-partition");
        assert!(err.detail.contains("emitted 2"), "{}", err.detail);
    }

    #[test]
    fn conjured_key_is_reported() {
        let groups = groups_of(&[&[(1, 10)], &[(9, 90)]]);
        let emitted = emitted_of(&[(1, 1)]);
        let err = check_shuffle_partition(&emitted, &groups).unwrap_err();
        assert!(err.detail.contains("never emitted"), "{}", err.detail);
    }

    #[test]
    fn double_routed_key_is_reported() {
        let groups = groups_of(&[&[(1, 10)], &[(1, 11)]]);
        let emitted = emitted_of(&[(1, 2)]);
        let err = check_shuffle_partition(&emitted, &groups).unwrap_err();
        assert_eq!(err.invariant, "groups-disjoint");
        assert!(err.detail.contains("reducer 0"), "{}", err.detail);
    }

    #[test]
    fn antichain_accepts_incomparable_and_rejects_dominated() {
        // "a dominates b" as strict divisibility: a < b and a | b.
        let rel = |a: &u32, b: &u32| a != b && b % a == 0;
        assert_eq!(check_antichain(&[4, 6, 9], rel), Ok(()));
        let err = check_antichain(&[3, 4, 12], rel).unwrap_err();
        assert!(err.detail.contains("dominates"));
    }

    #[test]
    fn skyline_checker_uses_tuple_dominance() {
        let free = vec![Tuple::new(0, vec![0.1, 0.9]), Tuple::new(1, vec![0.9, 0.1])];
        assert_eq!(check_skyline(&free), Ok(()));
        let broken = vec![Tuple::new(0, vec![0.1, 0.1]), Tuple::new(1, vec![0.5, 0.5])];
        let err = check_skyline(&broken).unwrap_err();
        assert_eq!(err.invariant, "skyline-dominance-free");
    }

    #[test]
    fn cases_are_deterministic_per_seed_and_serial_first() {
        let a = shake_cases(8, 42);
        let b = shake_cases(8, 42);
        assert_eq!(a, b);
        assert_eq!(a[0].host_threads, 1, "case 0 is the serial baseline");
        let c = shake_cases(8, 43);
        assert_ne!(a, c, "different seeds explore different schedules");
        assert!(a.iter().all(|c| (1..=8).contains(&c.host_threads)));
        assert!(a.iter().any(|c| c.host_threads > 1));
    }

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let case = &shake_cases(2, 7)[1];
        let mut v1: Vec<u32> = (0..50).collect();
        let mut v2: Vec<u32> = (0..50).collect();
        case.permute(&mut v1);
        case.permute(&mut v2);
        assert_eq!(v1, v2, "same seed, same permutation");
        let mut sorted = v1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>(), "a permutation");
        assert_ne!(v1, sorted, "50 elements virtually never map to identity");
    }

    #[test]
    fn shake_accepts_schedule_independent_runs() {
        let report = schedule_shake(8, 99, |_case| b"stable output".to_vec())
            .expect("identical outputs must pass");
        assert_eq!(report.cases.len(), 8);
        assert_eq!(report.output_len, 13);
    }

    #[test]
    fn shake_reports_the_first_diverging_case() {
        let err = schedule_shake(8, 99, |case| {
            if case.index == 3 {
                b"stable outpuX".to_vec()
            } else {
                b"stable output".to_vec()
            }
        })
        .unwrap_err();
        assert_eq!(err.case.index, 3);
        assert_eq!(err.first_difference, 12);
        assert_eq!(err.lengths, (13, 13));
        assert!(err.to_string().contains("case 3"));
    }

    #[test]
    fn shake_flags_length_divergence_at_prefix_end() {
        let err = schedule_shake(2, 1, |case| vec![7; 4 + case.index]).unwrap_err();
        assert_eq!(err.first_difference, 4);
        assert_eq!(err.lengths, (4, 5));
    }

    #[test]
    #[should_panic(expected = "schedule-dependent output")]
    fn assert_form_panics_on_divergence() {
        assert_schedule_independent(4, 5, |case| vec![case.host_threads as u8]);
    }

    #[test]
    fn cluster_override_keeps_other_fields() {
        let base = ClusterConfig::test();
        let case = ShakeCase {
            index: 1,
            host_threads: 7,
            map_slots: 2,
            reduce_slots: 3,
            shuffle_seed: 0,
            placement_seed: 0xA11CE,
        };
        let c = case.cluster(&base);
        assert_eq!(c.host_threads, 7);
        assert_eq!(c.map_slots, 2);
        assert_eq!(c.reduce_slots, 3);
        assert_eq!(c.placement, Some(Placement::new(0xA11CE)));
        assert_eq!(c.nodes, base.nodes);
        assert_eq!(c.job_startup, base.job_startup);
    }

    #[test]
    fn cases_vary_the_placement_seed() {
        let cases = shake_cases(8, 42);
        let seeds: std::collections::BTreeSet<u64> =
            cases.iter().map(|c| c.placement_seed).collect();
        assert!(seeds.len() > 1, "placement seeds must vary across cases");
    }
}
