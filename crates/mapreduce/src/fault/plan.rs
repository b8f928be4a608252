//! The deterministic fault model: which task attempts fail, how, and how
//! slowly straggling tasks run.
//!
//! A [`FaultPlan`] is a *pure description*: the engine resolves it per task
//! with [`FaultPlan::task_fault`] and the resolution depends only on the
//! plan, the job name, the task kind, and the task index — never on wall
//! clock, thread schedule, or execution order. Seeded plans
//! ([`FaultPlan::seeded`] / [`FaultPlan::chaos`]) expand a single `u64`
//! seed through SplitMix64, so any chaotic schedule is replayable from one
//! number.

use std::collections::{BTreeMap, BTreeSet};

/// Which phase a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskKind {
    /// A map task (one per input split).
    Map,
    /// A reduce task (one per reducer).
    Reduce,
}

impl TaskKind {
    /// Lower-case name, used in diagnostics and [`skymr_common::Error`].
    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Map => "map",
            TaskKind::Reduce => "reduce",
        }
    }
}

impl std::fmt::Display for TaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How an injected attempt failure manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultKind {
    /// The attempt runs to completion, then its output is lost (simulated
    /// node failure after the task finished) — the pre-existing behaviour
    /// of the old `FailurePlan`.
    #[default]
    LostOutput,
    /// The attempt panics halfway through its input (simulated mid-task
    /// crash). The panic is caught per-attempt in the worker pool and
    /// converted into a task failure, so sibling tasks are unaffected.
    MidTaskPanic,
    /// The attempt stops making progress forever (a wedged JVM, a stuck
    /// NFS mount). It never runs; the progress-timeout detector kills it
    /// after [`crate::ClusterConfig::progress_timeout`] on the simulated
    /// clock, and the retry path takes over.
    Hang,
}

/// The injected faults of a single task, resolved from a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskFault {
    /// How many leading attempts fail (0 = healthy task). Bounded at run
    /// time by the job's retry budget.
    pub failures: u32,
    /// How those attempts fail.
    pub kind: FaultKind,
    /// Straggler slowdown factor applied to the *modeled* duration of
    /// every regular attempt of this task (`1.0` = healthy node). A
    /// speculative backup attempt runs at full speed.
    pub slowdown: f64,
}

impl TaskFault {
    /// A healthy task: no failures, no slowdown.
    pub fn none() -> Self {
        Self {
            failures: 0,
            kind: FaultKind::LostOutput,
            slowdown: 1.0,
        }
    }

    /// `n` lost-output failures.
    pub fn lost(n: u32) -> Self {
        Self {
            failures: n,
            ..Self::none()
        }
    }

    /// `n` mid-task panics.
    pub fn panics(n: u32) -> Self {
        Self {
            failures: n,
            kind: FaultKind::MidTaskPanic,
            slowdown: 1.0,
        }
    }

    /// `n` hung attempts (killed by the progress timeout).
    pub fn hangs(n: u32) -> Self {
        Self {
            failures: n,
            kind: FaultKind::Hang,
            slowdown: 1.0,
        }
    }

    /// A straggler running `factor`× slower than a healthy node.
    pub fn straggler(factor: f64) -> Self {
        Self {
            slowdown: factor.max(1.0),
            ..Self::none()
        }
    }

    /// `true` iff the task is completely healthy.
    pub fn is_none(&self) -> bool {
        self.failures == 0 && self.slowdown <= 1.0
    }
}

impl Default for TaskFault {
    fn default() -> Self {
        Self::none()
    }
}

/// A node unreachable for a bounded window (a network partition). The
/// node's materialized outputs survive, but the shuffle stalls for the
/// window's duration while reducers wait to pull from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NodePartition {
    /// How long the node stays unreachable, in model ticks.
    pub for_ticks: u64,
    /// The partitioned node.
    pub node: usize,
}

/// Hash salt for seeded node-loss decisions.
const NODE_LOSS_SALT: u64 = 0x4E0D_E001;
/// Hash salt for seeded node-partition decisions.
const NODE_PART_SALT: u64 = 0x4E0D_E002;
/// Hash salt for seeded shuffle-frame corruption decisions (and the bit
/// position the flip lands on).
const CORRUPT_SALT: u64 = 0xDA7A_0001;

/// One shuffle partition whose fetched frame bytes arrive corrupted, as
/// resolved from a [`FaultPlan`].
///
/// `fetches` is how many consecutive fetch attempts deliver a corrupted
/// frame: `1` models a transient transfer error (the re-fetch succeeds);
/// `2` or more models at-rest corruption of the materialized map output —
/// the re-fetch fails too, and the engine re-executes the producing map
/// task. The corruption is modelled, not performed: each failed fetch
/// re-transfers the partition's bytes, and that a corrupted frame fails
/// its CRC32C check is the codec's own tested property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptFetch {
    /// Producing map task.
    pub map: usize,
    /// Fetching reducer.
    pub reducer: usize,
    /// Consecutive fetch attempts that deliver corrupted bytes.
    pub fetches: u32,
}

/// Fault rates for seeded plans, in permille (0–1000) so profiles stay
/// `Eq`-comparable and platform-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Chance a task has injected attempt failures at all.
    pub task_fault_permille: u32,
    /// Faulty tasks fail `1..=max_failures_per_task` attempts (uniform).
    pub max_failures_per_task: u32,
    /// Of the faulty tasks, the fraction that crash mid-task instead of
    /// losing their finished output.
    pub mid_task_permille: u32,
    /// Chance a task runs on a straggling node.
    pub straggler_permille: u32,
    /// Slowdown factor of straggling nodes.
    pub straggler_slowdown: f64,
    /// Chance each (map task, reducer) shuffle partition is lost after the
    /// map phase, forcing a re-execution of that map task.
    pub lost_partition_permille: u32,
    /// Chance the distributed-cache broadcast fails (and is re-charged).
    pub broadcast_fail_permille: u32,
    /// Chance each node dies during the job (requires a
    /// [`Placement`](crate::Placement) on the cluster to have any effect).
    /// Zero in [`FaultProfile::default`], so pre-existing seeded plans
    /// replay bit-for-bit.
    pub node_loss_permille: u32,
    /// Chance each node suffers a transient network partition that stalls
    /// the shuffle. Zero in the default profile.
    pub node_partition_permille: u32,
    /// Chance each (map task, reducer) shuffle frame arrives corrupted at
    /// the fetching reducer (checksum verification catches it). Zero in
    /// the default profile, so pre-existing seeded plans replay
    /// bit-for-bit.
    pub corrupt_shuffle_permille: u32,
    /// Of the faulty tasks, the fraction whose failed attempts *hang*
    /// (no progress until the progress-timeout kill) instead of failing
    /// per their drawn kind. Zero in the default profile.
    pub hang_permille: u32,
}

impl Default for FaultProfile {
    /// A moderately hostile cluster: roughly a quarter of tasks fail once
    /// or twice, stragglers run 8× slow, and a few shuffle partitions and
    /// broadcasts are lost. Failure counts stay below the default retry
    /// budget, so jobs always recover.
    fn default() -> Self {
        Self {
            task_fault_permille: 250,
            max_failures_per_task: 2,
            mid_task_permille: 500,
            straggler_permille: 150,
            straggler_slowdown: 8.0,
            lost_partition_permille: 50,
            broadcast_fail_permille: 200,
            node_loss_permille: 0,
            node_partition_permille: 0,
            corrupt_shuffle_permille: 0,
            hang_permille: 0,
        }
    }
}

impl FaultProfile {
    /// A node-hostile cluster: machines die and partition, but task-level
    /// faults are rare — the profile behind [`FaultPlan::chaos_nodes`],
    /// aimed at exercising map-output re-execution rather than retries.
    pub fn nodes() -> Self {
        Self {
            task_fault_permille: 50,
            max_failures_per_task: 1,
            mid_task_permille: 500,
            straggler_permille: 0,
            straggler_slowdown: 1.0,
            lost_partition_permille: 0,
            broadcast_fail_permille: 0,
            node_loss_permille: 400,
            node_partition_permille: 200,
            corrupt_shuffle_permille: 0,
            hang_permille: 0,
        }
    }

    /// A data-hostile cluster: shuffle frames arrive corrupted and task
    /// attempts wedge, but machines stay up — the profile behind
    /// [`FaultPlan::chaos_data`], aimed at exercising checksum
    /// verification, re-fetch, map re-execution, and the progress-timeout
    /// kill path.
    pub fn data() -> Self {
        Self {
            task_fault_permille: 150,
            max_failures_per_task: 1,
            mid_task_permille: 500,
            straggler_permille: 0,
            straggler_slowdown: 1.0,
            lost_partition_permille: 0,
            broadcast_fail_permille: 0,
            node_loss_permille: 0,
            node_partition_permille: 0,
            corrupt_shuffle_permille: 250,
            hang_permille: 400,
        }
    }
}

/// Seeded (random but replayable) fault generation.
#[derive(Debug, Clone, PartialEq)]
pub struct SeededFaults {
    /// The master seed every decision derives from.
    pub seed: u64,
    /// The fault rates.
    pub profile: FaultProfile,
}

/// A deterministic fault-injection plan for one job (or a whole pipeline
/// of jobs — per-job decisions are salted with the job name).
///
/// Generalizes the old `FailurePlan` (which could only discard a task's
/// first completed attempt): scripted per-task faults with repeat counts,
/// mid-task panics, straggler slowdowns, lost shuffle partitions, failed
/// cache broadcasts, and a seeded random layer on top.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scripted per-map-task faults (override the seeded layer).
    pub map_faults: BTreeMap<usize, TaskFault>,
    /// Scripted per-reduce-task faults (override the seeded layer).
    pub reduce_faults: BTreeMap<usize, TaskFault>,
    /// Scripted lost shuffle partitions, as `(map task, reducer)` pairs.
    pub lost_partitions: BTreeSet<(usize, usize)>,
    /// Scripted corrupted shuffle fetches: `(map task, reducer)` → how
    /// many consecutive fetches deliver corrupted frame bytes.
    pub corrupt_shuffle: BTreeMap<(usize, usize), u32>,
    /// Scripted poisoned input records, as `(map task, record index)`
    /// pairs: the mapper's UDF deterministically panics on that record,
    /// on every attempt. Scripted-only — a poisoned record changes the
    /// job's output under skip-bad-records, so it never rides the seeded
    /// layer.
    pub poison_records: BTreeSet<(usize, usize)>,
    /// Scripted failed broadcast attempts before the cache lands.
    pub broadcast_failures: u32,
    /// Scripted node deaths, by node (ignored unless the cluster has a
    /// placement). Every loss lands at the shuffle barrier.
    pub node_losses: BTreeSet<usize>,
    /// Scripted transient node partitions.
    pub node_partitions: Vec<NodePartition>,
    /// Seeded random faults layered under the scripted ones.
    pub seeded: Option<SeededFaults>,
    /// Restrict the whole plan to jobs with this exact name (`None` = the
    /// plan applies to every job it is handed to).
    pub job_filter: Option<String>,
}

impl FaultPlan {
    /// A plan with no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Loses the first completed attempt of the given map tasks — the old
    /// `FailurePlan::fail_maps` semantics.
    pub fn fail_maps(indices: impl IntoIterator<Item = usize>) -> Self {
        Self {
            map_faults: indices
                .into_iter()
                .map(|i| (i, TaskFault::lost(1)))
                .collect(),
            ..Self::default()
        }
    }

    /// Loses the first completed attempt of the given reduce tasks.
    pub fn fail_reduces(indices: impl IntoIterator<Item = usize>) -> Self {
        Self {
            reduce_faults: indices
                .into_iter()
                .map(|i| (i, TaskFault::lost(1)))
                .collect(),
            ..Self::default()
        }
    }

    /// A seeded random plan with the default [`FaultProfile`].
    pub fn seeded(seed: u64) -> Self {
        Self::chaos(seed, FaultProfile::default())
    }

    /// A seeded random plan with explicit rates.
    pub fn chaos(seed: u64, profile: FaultProfile) -> Self {
        Self {
            seeded: Some(SeededFaults { seed, profile }),
            ..Self::default()
        }
    }

    /// A seeded node-hostile plan ([`FaultProfile::nodes`]): machines die
    /// and partition, forcing map-output re-execution and shuffle stalls.
    pub fn chaos_nodes(seed: u64) -> Self {
        Self::chaos(seed, FaultProfile::nodes())
    }

    /// A seeded data-hostile plan ([`FaultProfile::data`]): shuffle frames
    /// corrupt in flight and at rest, and task attempts hang until the
    /// progress timeout kills them.
    pub fn chaos_data(seed: u64) -> Self {
        Self::chaos(seed, FaultProfile::data())
    }

    /// Adds a scripted fault for map task `index`.
    pub fn with_map_fault(mut self, index: usize, fault: TaskFault) -> Self {
        self.map_faults.insert(index, fault);
        self
    }

    /// Adds a scripted fault for reduce task `index`.
    pub fn with_reduce_fault(mut self, index: usize, fault: TaskFault) -> Self {
        self.reduce_faults.insert(index, fault);
        self
    }

    /// Loses the shuffle partition from map task `map_index` to reducer
    /// `reducer` after the map phase completes.
    pub fn with_lost_partition(mut self, map_index: usize, reducer: usize) -> Self {
        self.lost_partitions.insert((map_index, reducer));
        self
    }

    /// Corrupts the shuffle frame from map task `map_index` to reducer
    /// `reducer` for `fetches` consecutive fetch attempts: `1` is a
    /// transient transfer error (the re-fetch succeeds), `2` or more is
    /// at-rest corruption (the producing map task re-executes).
    pub fn with_corrupt_shuffle(mut self, map_index: usize, reducer: usize, fetches: u32) -> Self {
        self.corrupt_shuffle.insert((map_index, reducer), fetches);
        self
    }

    /// Poisons record `record` of map task `map_index`'s split: the UDF
    /// deterministically panics there on every attempt. Without
    /// skip-bad-records the task exhausts its retry budget and the job
    /// aborts; with it, the engine narrows to the record and skips it.
    pub fn with_poison_record(mut self, map_index: usize, record: usize) -> Self {
        self.poison_records.insert((map_index, record));
        self
    }

    /// Fails the distributed-cache broadcast `n` times before it succeeds.
    pub fn with_broadcast_failures(mut self, n: u32) -> Self {
        self.broadcast_failures = n;
        self
    }

    /// Kills `node` at the job's shuffle barrier, once every map task has
    /// committed: the map outputs homed there are gone and re-execute on
    /// the surviving nodes after the heartbeat timeout. Only effective when
    /// the cluster has a [`Placement`](crate::Placement).
    pub fn with_node_loss(mut self, node: usize) -> Self {
        self.node_losses.insert(node);
        self
    }

    /// Makes `node` unreachable for `for_ticks` model ticks, stalling the
    /// shuffle by the window's duration.
    pub fn with_node_partition(mut self, node: usize, for_ticks: u64) -> Self {
        self.node_partitions.push(NodePartition { for_ticks, node });
        self
    }

    /// Restricts the plan to jobs named `job` (pipelines run several jobs
    /// through one config; this targets a single stage).
    pub fn for_job(mut self, job: impl Into<String>) -> Self {
        self.job_filter = Some(job.into());
        self
    }

    /// `true` iff the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.map_faults.is_empty()
            && self.reduce_faults.is_empty()
            && self.lost_partitions.is_empty()
            && self.corrupt_shuffle.is_empty()
            && self.poison_records.is_empty()
            && self.broadcast_failures == 0
            && self.node_losses.is_empty()
            && self.node_partitions.is_empty()
            && self.seeded.is_none()
    }

    fn applies_to(&self, job: &str) -> bool {
        self.job_filter.as_deref().map_or(true, |f| f == job)
    }

    /// Resolves the fault of one task. Scripted faults win over the seeded
    /// layer; healthy tasks get [`TaskFault::none`].
    pub fn task_fault(&self, job: &str, kind: TaskKind, index: usize) -> TaskFault {
        if !self.applies_to(job) {
            return TaskFault::none();
        }
        let scripted = match kind {
            TaskKind::Map => self.map_faults.get(&index),
            TaskKind::Reduce => self.reduce_faults.get(&index),
        };
        if let Some(fault) = scripted {
            return *fault;
        }
        let Some(seeded) = &self.seeded else {
            return TaskFault::none();
        };
        derive_task_fault(seeded, job, kind, index)
    }

    /// All lost shuffle partitions of a job with `m` map and `r` reduce
    /// tasks (scripted pairs out of range are ignored).
    pub fn lost_partitions_for(&self, job: &str, m: usize, r: usize) -> Vec<(usize, usize)> {
        if !self.applies_to(job) {
            return Vec::new();
        }
        let mut lost: BTreeSet<(usize, usize)> = self
            .lost_partitions
            .iter()
            .copied()
            .filter(|&(i, j)| i < m && j < r)
            .collect();
        if let Some(seeded) = &self.seeded {
            let rate = seeded.profile.lost_partition_permille;
            for i in 0..m {
                for j in 0..r {
                    let h = decision(seeded.seed, job, 0xC4A5, i as u64, j as u64);
                    if permille(h) < rate {
                        lost.insert((i, j));
                    }
                }
            }
        }
        lost.into_iter().collect()
    }

    /// All corrupted shuffle fetches of a job with `m` map and `r` reduce
    /// tasks: scripted entries (which override the seeded layer per
    /// partition) plus seeded draws, sorted by `(map, reducer)`.
    pub fn corrupt_fetches_for(&self, job: &str, m: usize, r: usize) -> Vec<CorruptFetch> {
        if !self.applies_to(job) {
            return Vec::new();
        }
        let mut by_key: BTreeMap<(usize, usize), u32> = BTreeMap::new();
        if let Some(seeded) = &self.seeded {
            let rate = seeded.profile.corrupt_shuffle_permille;
            if rate > 0 {
                for i in 0..m {
                    for j in 0..r {
                        let h = decision(seeded.seed, job, CORRUPT_SALT, i as u64, j as u64);
                        if permille(h) < rate {
                            let (_, count_draw) = next(h);
                            by_key.insert((i, j), 1 + (count_draw % 2) as u32);
                        }
                    }
                }
            }
        }
        for (&(i, j), &fetches) in &self.corrupt_shuffle {
            if i < m && j < r && fetches > 0 {
                by_key.insert((i, j), fetches);
            }
        }
        by_key
            .into_iter()
            .map(|((map, reducer), fetches)| CorruptFetch {
                map,
                reducer,
                fetches,
            })
            .collect()
    }

    /// The poisoned record indices of map task `map_index`'s split, in
    /// increasing order (scripted-only; the seeded layer never poisons).
    pub fn poison_records_for(&self, job: &str, map_index: usize) -> Vec<usize> {
        if !self.applies_to(job) {
            return Vec::new();
        }
        self.poison_records
            .iter()
            .filter(|&&(i, _)| i == map_index)
            .map(|&(_, record)| record)
            .collect()
    }

    /// The nodes a job on a cluster with `nodes` machines loses, in the
    /// order they are resolved: the seeded losses in the order of their
    /// draws, then the scripted ones in node order, truncated so at least
    /// one node always survives. A scripted node is never drawn too.
    pub fn node_losses_for(&self, job: &str, nodes: usize) -> Vec<usize> {
        if !self.applies_to(job) || nodes == 0 {
            return Vec::new();
        }
        let mut drawn: Vec<(u64, usize)> = Vec::new();
        if let Some(seeded) = &self.seeded {
            let rate = seeded.profile.node_loss_permille;
            for node in (0..nodes).filter(|n| !self.node_losses.contains(n)) {
                let h = decision(seeded.seed, job, NODE_LOSS_SALT, node as u64, 0);
                if permille(h) < rate {
                    drawn.push((splitmix64_once(h) & ((1u64 << 40) - 1), node));
                }
            }
        }
        drawn.sort_unstable();
        let scripted = self.node_losses.range(..nodes).copied();
        let mut losses: Vec<usize> = drawn
            .into_iter()
            .map(|(_, node)| node)
            .chain(scripted)
            .collect();
        losses.truncate(nodes - 1);
        losses
    }

    /// All transient node partitions of a job, scripted plus seeded,
    /// sorted by `(for_ticks, node)`.
    pub fn node_partitions_for(&self, job: &str, nodes: usize) -> Vec<NodePartition> {
        if !self.applies_to(job) || nodes == 0 {
            return Vec::new();
        }
        let mut parts: Vec<NodePartition> = self
            .node_partitions
            .iter()
            .copied()
            .filter(|p| p.node < nodes)
            .collect();
        if let Some(seeded) = &self.seeded {
            let rate = seeded.profile.node_partition_permille;
            for node in 0..nodes {
                let h = decision(seeded.seed, job, NODE_PART_SALT, node as u64, 0);
                if permille(h) < rate {
                    // The first draw was the window's start, which nothing
                    // prices; the length is the draw after it.
                    let (h, _) = next(h);
                    let (_, len_draw) = next(h);
                    parts.push(NodePartition {
                        for_ticks: 500 + len_draw % 4500,
                        node,
                    });
                }
            }
        }
        parts.sort_unstable();
        parts
    }

    /// How many times the distributed-cache broadcast fails for `job`.
    pub fn broadcast_failures_for(&self, job: &str) -> u32 {
        if !self.applies_to(job) {
            return 0;
        }
        let mut n = self.broadcast_failures;
        if let Some(seeded) = &self.seeded {
            let h = decision(seeded.seed, job, 0xB04D, 0, 0);
            if permille(h) < seeded.profile.broadcast_fail_permille {
                n += 1 + (splitmix64_once(h) % 2) as u32;
            }
        }
        n
    }
}

fn derive_task_fault(seeded: &SeededFaults, job: &str, kind: TaskKind, index: usize) -> TaskFault {
    let p = &seeded.profile;
    let salt = match kind {
        TaskKind::Map => 0x5EED_0001,
        TaskKind::Reduce => 0x5EED_0002,
    };
    let h = decision(seeded.seed, job, salt, index as u64, 0);
    let (h, fail_draw) = next(h);
    let (h, count_draw) = next(h);
    let (h, kind_draw) = next(h);
    let (h, straggle_draw) = next(h);
    // The hang draw extends the chain *after* every pre-existing draw, so
    // profiles with `hang_permille: 0` replay pinned seeds bit-for-bit.
    let (_, hang_draw) = next(h);
    let failures = if permille(fail_draw) < p.task_fault_permille {
        let span = u64::from(p.max_failures_per_task.max(1));
        1 + (count_draw % span) as u32 // invariant: span is clamped to >= 1 above
    } else {
        0
    };
    let kind = if permille(hang_draw) < p.hang_permille {
        FaultKind::Hang
    } else if permille(kind_draw) < p.mid_task_permille {
        FaultKind::MidTaskPanic
    } else {
        FaultKind::LostOutput
    };
    let slowdown = if permille(straggle_draw) < p.straggler_permille {
        p.straggler_slowdown.max(1.0)
    } else {
        1.0
    };
    TaskFault {
        failures,
        kind,
        slowdown,
    }
}

/// FNV-1a over the job name, folded with the structured coordinates, then
/// finalized with one SplitMix64 round — a pure function of its inputs,
/// identical on every platform and run. Shared with the placement model
/// in `cluster.rs`, which derives task→node homes the same way.
pub(crate) fn decision(seed: u64, job: &str, salt: u64, a: u64, b: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for byte in job.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for word in [seed, salt, a, b] {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64_once(h)
}

fn next(state: u64) -> (u64, u64) {
    let out = splitmix64_once(state);
    (state.wrapping_add(0x9E37_79B9_7F4A_7C15), out)
}

fn permille(h: u64) -> u32 {
    (h % 1000) as u32
}

/// One SplitMix64 finalization round.
fn splitmix64_once(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::seeded(1).is_empty());
        assert!(!FaultPlan::none().with_broadcast_failures(1).is_empty());
    }

    #[test]
    fn scripted_constructors_mirror_the_old_failure_plan() {
        let p = FaultPlan::fail_maps([0, 2]);
        assert_eq!(p.task_fault("j", TaskKind::Map, 0), TaskFault::lost(1));
        assert_eq!(p.task_fault("j", TaskKind::Map, 1), TaskFault::none());
        assert_eq!(p.task_fault("j", TaskKind::Map, 2), TaskFault::lost(1));
        assert_eq!(p.task_fault("j", TaskKind::Reduce, 0), TaskFault::none());
        let p = FaultPlan::fail_reduces([1]);
        assert_eq!(p.task_fault("j", TaskKind::Reduce, 1), TaskFault::lost(1));
        assert!(!p.is_empty());
    }

    #[test]
    fn job_filter_gates_every_channel() {
        let p = FaultPlan::fail_maps([0])
            .with_lost_partition(0, 0)
            .with_broadcast_failures(2)
            .for_job("skyline");
        assert_eq!(
            p.task_fault("skyline", TaskKind::Map, 0),
            TaskFault::lost(1)
        );
        assert_eq!(
            p.task_fault("bitstring", TaskKind::Map, 0),
            TaskFault::none()
        );
        assert_eq!(p.lost_partitions_for("skyline", 2, 2), vec![(0, 0)]);
        assert!(p.lost_partitions_for("bitstring", 2, 2).is_empty());
        assert_eq!(p.broadcast_failures_for("skyline"), 2);
        assert_eq!(p.broadcast_failures_for("bitstring"), 0);
    }

    #[test]
    fn scripted_faults_override_the_seeded_layer() {
        let mut p = FaultPlan::seeded(7);
        p.map_faults.insert(3, TaskFault::panics(2));
        assert_eq!(p.task_fault("j", TaskKind::Map, 3), TaskFault::panics(2));
    }

    #[test]
    fn seeded_resolution_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let c = FaultPlan::seeded(43);
        let faults = |p: &FaultPlan| -> Vec<TaskFault> {
            (0..64)
                .map(|i| p.task_fault("wc", TaskKind::Map, i))
                .collect()
        };
        assert_eq!(faults(&a), faults(&b), "same seed, same plan");
        assert_ne!(faults(&a), faults(&c), "different seeds diverge");
        assert_eq!(
            a.lost_partitions_for("wc", 8, 8),
            b.lost_partitions_for("wc", 8, 8)
        );
        assert_eq!(
            a.broadcast_failures_for("wc"),
            b.broadcast_failures_for("wc")
        );
    }

    #[test]
    fn seeded_faults_vary_across_jobs_tasks_and_kinds() {
        let p = FaultPlan::seeded(11);
        let per_job: Vec<TaskFault> = (0..64)
            .map(|i| p.task_fault("a", TaskKind::Map, i))
            .collect();
        let other_job: Vec<TaskFault> = (0..64)
            .map(|i| p.task_fault("b", TaskKind::Map, i))
            .collect();
        assert_ne!(per_job, other_job, "job name salts the decisions");
        let reduces: Vec<TaskFault> = (0..64)
            .map(|i| p.task_fault("a", TaskKind::Reduce, i))
            .collect();
        assert_ne!(per_job, reduces, "task kind salts the decisions");
    }

    #[test]
    fn seeded_rates_are_respected_in_aggregate() {
        let p = FaultPlan::seeded(5);
        let profile = FaultProfile::default();
        let mut faulty = 0usize;
        let mut over_budget = 0usize;
        for i in 0..2000 {
            let f = p.task_fault("rates", TaskKind::Map, i);
            if f.failures > 0 {
                faulty += 1;
            }
            if f.failures > profile.max_failures_per_task {
                over_budget += 1;
            }
        }
        assert_eq!(over_budget, 0, "failure counts bounded by the profile");
        // 25% ± a generous tolerance over 2000 draws.
        assert!((300..700).contains(&faulty), "faulty tasks: {faulty}");
    }

    #[test]
    fn lost_partitions_respect_bounds() {
        let p = FaultPlan::none()
            .with_lost_partition(5, 0)
            .with_lost_partition(0, 9);
        assert!(p.lost_partitions_for("j", 3, 3).is_empty());
        let p = FaultPlan::none().with_lost_partition(1, 2);
        assert_eq!(p.lost_partitions_for("j", 2, 3), vec![(1, 2)]);
    }

    #[test]
    fn node_losses_dedupe_sort_and_keep_a_survivor() {
        let p = FaultPlan::none()
            .with_node_loss(2)
            .with_node_loss(0)
            .with_node_loss(2); // a node dies once
        assert_eq!(p.node_losses_for("j", 4), vec![0, 2]);
        // Out-of-range nodes are ignored; a 1-node cluster never loses it.
        assert!(p.node_losses_for("j", 1).is_empty());
        // Losing every node is truncated to leave one alive.
        let all = FaultPlan::none()
            .with_node_loss(0)
            .with_node_loss(1)
            .with_node_loss(2);
        assert_eq!(all.node_losses_for("j", 3), vec![0, 1]);
        // Seeded losses resolve first; a scripted node is never drawn.
        let mixed = FaultPlan::chaos_nodes(0).with_node_loss(0);
        assert_eq!(mixed.node_losses_for("skyline", 16), [10, 11, 15, 5, 2, 0]);
    }

    /// The lost nodes and their order, and the partition windows'
    /// lengths, pinned for seeds 0–63 on clusters of 1–16 nodes: FNV-1a
    /// over each loss list's length and nodes (two jobs, and a scripted
    /// node added to every plan, which resolves after the seeded ones), and
    /// over the partitions' `(node, for_ticks)` pairs in node order. A few
    /// rows are spelled out.
    #[test]
    fn seeded_node_events_are_pinned() {
        let fnv = |h: u64, words: &[u64]| {
            let step = |h: u64, &w: &u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            words.iter().fold(h, step)
        };
        let list = |losses: Vec<usize>| -> Vec<u64> {
            let nodes = losses.iter().map(|&n| n as u64);
            std::iter::once(losses.len() as u64).chain(nodes).collect()
        };
        let mut digests = [0xcbf2_9ce4_8422_2325; 4];
        for seed in 0..64u64 {
            for nodes in 1..=16usize {
                let plan = FaultPlan::chaos_nodes(seed);
                let scripted = plan.clone().with_node_loss(seed as usize % nodes);
                let losses = [
                    plan.node_losses_for("skyline", nodes),
                    plan.node_losses_for("bitstring-ppd", nodes),
                    scripted.node_losses_for("skyline", nodes),
                ];
                for (digest, losses) in digests.iter_mut().zip(losses) {
                    *digest = fnv(*digest, &list(losses));
                }
                let parts = plan.node_partitions_for("skyline", nodes);
                let mut windows: Vec<[u64; 2]> =
                    parts.iter().map(|p| [p.node as u64, p.for_ticks]).collect();
                windows.sort_unstable();
                digests[3] = fnv(digests[3], windows.as_flattened());
            }
        }
        let pinned = [
            0x241a_2dba_403a_6101,
            0x4186_e9ef_8f22_1f9b,
            0x50b2_fb18_48dc_7641,
            0xb271_2e7c_5c63_ecad,
        ];
        assert_eq!(digests, pinned);
        let row = |job, seed| FaultPlan::chaos_nodes(seed).node_losses_for(job, 16);
        assert_eq!(row("skyline", 0), [10, 11, 0, 15, 5, 2]);
        assert_eq!(row("skyline", 1), [1, 13, 9, 0, 4, 11, 5, 3]);
        assert_eq!(row("skyline", 2), [12, 4, 14, 10, 1, 13, 6]);
        assert_eq!(row("bitstring-ppd", 0), [12, 4]);
        assert_eq!(row("bitstring-ppd", 1), [1, 4, 5]);
        assert_eq!(row("bitstring-ppd", 2), [10, 2, 12]);
    }

    #[test]
    fn seeded_node_events_are_deterministic_and_late() {
        let a = FaultPlan::chaos_nodes(9);
        let b = FaultPlan::chaos_nodes(9);
        assert_eq!(a.node_losses_for("j", 8), b.node_losses_for("j", 8));
        assert_eq!(a.node_partitions_for("j", 8), b.node_partitions_for("j", 8));
        // The default profile stays node-fault free so pinned seeds replay
        // identically.
        assert!(FaultPlan::seeded(9).node_losses_for("j", 8).is_empty());
        assert!(FaultPlan::seeded(9).node_partitions_for("j", 8).is_empty());
        // Over many seeds the nodes() profile actually kills machines.
        let hits: usize = (0..32)
            .map(|s| FaultPlan::chaos_nodes(s).node_losses_for("j", 8).len())
            .sum();
        assert!(hits > 0, "chaos_nodes never killed a node over 32 seeds");
    }

    #[test]
    fn node_events_respect_the_job_filter() {
        let p = FaultPlan::none().with_node_loss(1).for_job("skyline");
        assert_eq!(p.node_losses_for("skyline", 4).len(), 1);
        assert!(p.node_losses_for("bitstring", 4).is_empty());
        let p = FaultPlan::none()
            .with_node_partition(1, 10)
            .for_job("skyline");
        assert_eq!(p.node_partitions_for("skyline", 4).len(), 1);
        assert!(p.node_partitions_for("bitstring", 4).is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn corrupt_fetches_respect_bounds_filter_and_determinism() {
        let p = FaultPlan::none()
            .with_corrupt_shuffle(1, 0, 1)
            .with_corrupt_shuffle(9, 9, 2)
            .for_job("skyline");
        let hits = p.corrupt_fetches_for("skyline", 3, 3);
        assert_eq!(hits.len(), 1, "out-of-range partitions are ignored");
        assert_eq!((hits[0].map, hits[0].reducer, hits[0].fetches), (1, 0, 1));
        assert!(p.corrupt_fetches_for("bitstring", 3, 3).is_empty());
        assert_eq!(hits, p.corrupt_fetches_for("skyline", 3, 3));
        assert!(!FaultPlan::none().with_corrupt_shuffle(0, 0, 1).is_empty());
        // Zero-fetch entries are inert.
        assert!(FaultPlan::none()
            .with_corrupt_shuffle(0, 0, 0)
            .corrupt_fetches_for("j", 2, 2)
            .is_empty());
    }

    #[test]
    fn seeded_corruption_is_replayable_and_rate_bounded() {
        let a = FaultPlan::chaos_data(21);
        let b = FaultPlan::chaos_data(21);
        assert_eq!(
            a.corrupt_fetches_for("j", 8, 8),
            b.corrupt_fetches_for("j", 8, 8)
        );
        // The default profile keeps corruption off, so pinned seeds replay.
        assert!(FaultPlan::seeded(21)
            .corrupt_fetches_for("j", 8, 8)
            .is_empty());
        // ~25% of 64 partitions, generous tolerance; every draw has a
        // valid fetch count.
        let hits = a.corrupt_fetches_for("j", 8, 8);
        assert!((4..30).contains(&hits.len()), "hits: {}", hits.len());
        assert!(hits.iter().all(|c| (1..=2).contains(&c.fetches)));
        // Hang draws appear under the data profile but never under the
        // default one (replay compatibility).
        let hangs = (0..256)
            .filter(|&i| a.task_fault("j", TaskKind::Map, i).kind == FaultKind::Hang)
            .count();
        assert!(hangs > 0, "data profile never drew a hang over 256 tasks");
        assert!((0..256).all(|i| {
            FaultPlan::seeded(21).task_fault("j", TaskKind::Map, i).kind != FaultKind::Hang
        }));
    }

    #[test]
    fn poison_records_are_scripted_per_task_and_filtered() {
        let p = FaultPlan::none()
            .with_poison_record(1, 3)
            .with_poison_record(1, 0)
            .with_poison_record(2, 5)
            .for_job("skyline");
        assert_eq!(p.poison_records_for("skyline", 1), vec![0, 3]);
        assert_eq!(p.poison_records_for("skyline", 2), vec![5]);
        assert!(p.poison_records_for("skyline", 0).is_empty());
        assert!(p.poison_records_for("bitstring", 1).is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn hang_builder_sets_the_kind() {
        let f = TaskFault::hangs(2);
        assert_eq!(f.failures, 2);
        assert_eq!(f.kind, FaultKind::Hang);
        assert!(!f.is_none());
    }

    #[test]
    fn straggler_builder_clamps_to_at_least_one() {
        assert_eq!(TaskFault::straggler(0.25).slowdown, 1.0);
        assert_eq!(TaskFault::straggler(4.0).slowdown, 4.0);
    }
}
