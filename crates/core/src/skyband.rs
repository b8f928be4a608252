//! k-skyband computation in MapReduce — an extension of the paper's
//! framework (`k = 1` is exactly the skyline).
//!
//! The *k-skyband* of `R` is the set of tuples dominated by fewer than `k`
//! others; it underlies top-k variants of every skyline application. The
//! paper's machinery generalizes cleanly:
//!
//! * the **bitstring** becomes a [`Countstring`]: per-partition *tuple
//!   counts* instead of occupancy bits. A partition `p` can be pruned when
//!   the total count of partitions that dominate it reaches `k` — every
//!   tuple of those partitions dominates every tuple of `p` (Lemma 1), so
//!   each of `p`'s tuples already has ≥ k dominators.
//! * mappers keep a **BNL-k window** per partition: a tuple is discarded
//!   once it has accumulated `k` observed dominators; window tuples track
//!   a (possibly under-counted) dominator tally.
//! * a single reducer merges the windows and **re-counts exactly** over
//!   the retained candidates, using anti-dominating regions to limit the
//!   partition pairs inspected, and outputs tuples with fewer than `k`
//!   candidate dominators.
//!
//! **Why re-counting over retained candidates is exact** (the witness
//! theorem): consider any tuple `x` with dominator set `D` inside one
//! mapper's split, and suppose some `y ∈ D` was discarded. Pick the
//! discarded `y ∈ D` with the smallest observed count; `y` had ≥ k
//! dominators, all of which dominate `x` too (transitivity) and all of
//! which have strictly smaller dominator sets than `y` — so by minimality
//! they were all retained. Hence the retained candidates of every split
//! contain at least `min(|D|, k)` dominators of `x`, and the reducer's
//! threshold test `count < k` over all candidates agrees with the truth.

use std::collections::BTreeMap;

use skymr_common::dominance::dominates;
use skymr_common::{dataset::canonicalize, ByteSized, Counters, Dataset, Tuple, Wire, WireCursor};
use skymr_mapreduce::{
    reduce_fn, run_job_from, Emitter, JobConfig, JobKey, JobMetrics, MapTask, OutputCollector,
    PipelineMetrics, RoundRobin, SingleReducerPartitioner, SplitSource, TaskContext,
};

use crate::config::{PpdPolicy, SkylineConfig};
use crate::grid::Grid;
use crate::groups::GroupPlan;
use crate::result::{RunInfo, SkylineRun};

// ---------------------------------------------------------------------
// Countstring: the counting generalization of the bitstring.
// ---------------------------------------------------------------------

/// Per-partition tuple counts over a grid, with `k`-dominance pruning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Countstring {
    grid: Grid,
    counts: Vec<u64>,
    /// Partitions pruned by the k-dominated-count rule (empty until
    /// [`Countstring::prune_dominated`] runs).
    pruned: Vec<bool>,
}

impl Countstring {
    /// An all-zero countstring for `grid`.
    pub fn empty(grid: Grid) -> Self {
        Self {
            grid,
            counts: vec![0; grid.num_partitions()],
            pruned: vec![false; grid.num_partitions()],
        }
    }

    /// Counts a subset of tuples (the mapper of the countstring job).
    pub fn from_tuples<'a>(grid: Grid, tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut cs = Self::empty(grid);
        for t in tuples {
            cs.counts[grid.partition_of(t)] += 1;
        }
        cs
    }

    /// The grid this countstring describes.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// Tuple count of partition `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Merges another local countstring (element-wise addition — the
    /// counting analogue of the bitwise OR).
    pub fn merge(&mut self, other: &Countstring) {
        assert_eq!(
            self.grid, other.grid,
            "cannot merge countstrings of different grids"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Marks every partition whose dominating partitions hold at least `k`
    /// tuples in total. Runs in `O(n^d · d)` via d-dimensional prefix
    /// sums: the dominated-by count of `p` is the box sum of counts over
    /// `[0, p.c − 1]` componentwise.
    pub fn prune_dominated(&mut self, k: u64) {
        let dim = self.grid.dim();
        let n = self.grid.ppd();
        let np = self.counts.len();
        if n < 2 {
            return;
        }
        // prefix[c] = Σ counts over all q with q.c <= c (componentwise).
        let mut prefix: Vec<u64> = self.counts.clone();
        let mut stride = 1usize;
        for _ in 0..dim {
            for idx in 0..np {
                // n >= 2 (early return above) and stride >= 1, so the
                // division cannot panic, and a nonzero coordinate implies
                // idx >= stride.
                let coord = (idx / stride) % n;
                if coord >= 1 {
                    let below = prefix[idx - stride];
                    prefix[idx] = prefix[idx].saturating_add(below);
                }
            }
            stride *= n;
        }
        let mut one_offset = 0usize;
        let mut s = 1usize;
        for _ in 0..dim {
            one_offset += s;
            s *= n;
        }
        for idx in 0..np {
            // All coordinates >= 1?
            let mut rest = idx;
            let mut all_ge1 = true;
            for _ in 0..dim {
                let coord = rest % n; // n >= 2 above
                if coord == 0 {
                    all_ge1 = false;
                    break;
                }
                rest /= n;
            }
            if all_ge1 {
                // All coordinates >= 1 implies idx >= one_offset, the
                // offset of (1,…,1).
                let dominators = prefix[idx - one_offset];
                if dominators >= k {
                    self.pruned[idx] = true;
                }
            }
        }
    }

    /// `true` iff partition `i` holds tuples and is not pruned.
    pub fn is_active(&self, i: usize) -> bool {
        self.counts[i] > 0 && !self.pruned[i]
    }

    /// Number of active partitions.
    pub fn active_count(&self) -> usize {
        (0..self.counts.len())
            .filter(|&i| self.is_active(i))
            .count()
    }

    /// Number of non-empty partitions.
    pub fn non_empty_count(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }
}

impl ByteSized for Countstring {
    fn byte_size(&self) -> u64 {
        // Exactly the `Wire` encoding below — the engine reserves each
        // shuffle frame from this figure: dim and ppd, then two
        // length-prefixed vectors.
        8 + self.counts.byte_size() + self.pruned.byte_size()
    }
}

impl Wire for Countstring {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        (self.grid.dim() as u32).wire_encode(out);
        (self.grid.ppd() as u32).wire_encode(out);
        self.counts.wire_encode(out);
        self.pruned.wire_encode(out);
    }

    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let dim = u32::wire_decode(r)? as usize;
        let ppd = u32::wire_decode(r)? as usize;
        let grid = Grid::new(dim, ppd).ok()?;
        let counts = Vec::<u64>::wire_decode(r)?;
        let pruned = Vec::<bool>::wire_decode(r)?;
        if counts.len() != grid.num_partitions() || pruned.len() != grid.num_partitions() {
            return None;
        }
        Some(Self {
            grid,
            counts,
            pruned,
        })
    }
}

// ---------------------------------------------------------------------
// BNL-k window.
// ---------------------------------------------------------------------

/// A window entry: the tuple plus its observed dominator tally.
pub type BandEntry = (Tuple, u32);

/// Inserts `t` into a BNL-k window: discarded once `k` dominators have
/// been observed; evicts entries whose tally reaches `k`. Returns the
/// window entries examined.
pub fn band_insert(window: &mut Vec<BandEntry>, t: Tuple, k: u32) -> u64 {
    let mut incoming_count = 0u32;
    let mut examined = 0;
    let mut i = 0;
    while i < window.len() {
        examined += 1;
        if dominates(&window[i].0, &t) {
            incoming_count += 1;
            if incoming_count >= k {
                return examined;
            }
        }
        if dominates(&t, &window[i].0) {
            window[i].1 += 1;
            if window[i].1 >= k {
                window.swap_remove(i);
                continue;
            }
        }
        i += 1;
    }
    window.push((t, incoming_count));
    examined
}

/// Centralized k-skyband by exhaustive counting — the oracle for tests
/// and the reference the MapReduce pipeline is verified against.
pub fn skyband_reference(tuples: &[Tuple], k: u32) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = tuples
        .iter()
        .filter(|t| {
            let dominators = tuples.iter().filter(|o| dominates(o, t)).count();
            (dominators as u32) < k
        })
        .cloned()
        .collect();
    out.sort_by_key(|t| t.id);
    out
}

// ---------------------------------------------------------------------
// MapReduce jobs.
// ---------------------------------------------------------------------

/// The countstring job's mapper: per-partition counts of its split.
struct CountMapTask {
    grid: Grid,
    local: Countstring,
}

impl MapTask for CountMapTask {
    type In = Tuple;
    type K = u8;
    type V = Countstring;

    fn map(&mut self, input: &Tuple, _out: &mut Emitter<u8, Countstring>) {
        let p = self.grid.partition_of(input);
        self.local.counts[p] += 1;
    }

    fn finish(&mut self, out: &mut Emitter<u8, Countstring>) {
        out.emit(
            0,
            std::mem::replace(&mut self.local, Countstring::empty(self.grid)),
        );
    }
}

/// Runs the countstring job. `Some(k)` marks k-dominated partitions
/// pruned; `None` skips pruning (top-k dominating needs raw counts —
/// every tuple is a potential dominated target).
pub(crate) fn run_countstring_job(
    config: &SkylineConfig,
    splits: &dyn SplitSource<Tuple>,
    grid: Grid,
    prune_k: Option<u64>,
) -> skymr_common::Result<(Countstring, JobMetrics)> {
    let job = JobConfig::new("countstring", 1)
        .with_fault_tolerance(&config.fault_tolerance)
        .with_collector(config.telemetry.clone());
    let outcome = run_job_from(
        &config.cluster,
        &job,
        &splits,
        &|_: &TaskContext| CountMapTask {
            grid,
            local: Countstring::empty(grid),
        },
        &reduce_fn(|_: u8, values: Vec<Countstring>, out| {
            let mut merged = Countstring::empty(grid);
            for local in &values {
                merged.merge(local);
            }
            if let Some(k) = prune_k {
                merged.prune_dominated(k);
            }
            out.collect(merged);
        }),
        &SingleReducerPartitioner,
    )?;
    let metrics = outcome.metrics.clone();
    let cs = outcome
        .into_flat_output()
        .into_iter()
        .next()
        .unwrap_or_else(|| Countstring::empty(grid));
    Ok((cs, metrics))
}

/// A mapper's emitted value: per-partition BNL-k windows.
pub type BandPayload = Vec<(u32, Vec<BandEntry>)>;

/// The band jobs' mapper state: a BNL-k window per active partition. The
/// single-reducer job ships the whole split to its reducer and tallies its
/// candidates; the multi-reducer job wraps it in [`BandMultiMapTask`].
struct BandMapTask<'a> {
    countstring: &'a Countstring,
    k: u32,
    windows: BTreeMap<u32, Vec<BandEntry>>,
    counters: Counters,
}

impl BandMapTask<'_> {
    /// The map body of both band jobs: a tuple of an active partition
    /// enters that partition's window.
    fn consume<K: JobKey>(&mut self, input: &Tuple, out: &mut Emitter<K, BandPayload>) {
        let p = self.countstring.grid().partition_of(input);
        if self.countstring.is_active(p) {
            let window = self.windows.entry(p as u32).or_default();
            out.charge(band_insert(window, input.clone(), self.k));
        }
    }
}

impl MapTask for BandMapTask<'_> {
    type In = Tuple;
    type K = u8;
    type V = BandPayload;

    fn map(&mut self, input: &Tuple, out: &mut Emitter<u8, BandPayload>) {
        self.consume(input, out);
    }

    fn finish(&mut self, out: &mut Emitter<u8, BandPayload>) {
        self.counters.add(
            "band.map.candidates",
            self.windows.values().map(|w| w.len() as u64).sum(),
        );
        let payload: BandPayload = std::mem::take(&mut self.windows).into_iter().collect();
        out.emit(0, payload);
    }
}

/// The multi-reducer band mapper (the MR-GPMRS topology generalized to
/// bands): the same windows, split along the bucket partition sets.
struct BandMultiMapTask<'a> {
    inner: BandMapTask<'a>,
    plan: &'a GroupPlan,
}

impl MapTask for BandMultiMapTask<'_> {
    type In = Tuple;
    type K = u32;
    type V = BandPayload;

    fn map(&mut self, input: &Tuple, out: &mut Emitter<u32, BandPayload>) {
        self.inner.consume(input, out);
    }

    fn finish(&mut self, out: &mut Emitter<u32, BandPayload>) {
        // Split the per-partition windows along the bucket partition sets
        // (replication included), exactly like MR-GPMRS's Algorithm 8.
        for (bucket_index, bucket) in self.plan.buckets.iter().enumerate() {
            let payload: BandPayload = self
                .inner
                .windows
                .iter()
                .filter(|(p, _)| bucket.partitions.contains(p))
                .map(|(p, w)| (*p, w.clone()))
                .collect();
            out.emit(bucket_index as u32, payload);
        }
    }
}

/// The reduce body of both band jobs: the exact re-count of every
/// candidate in a partition for which `designated` holds — the
/// single-reducer job designates every partition.
fn recount_band(
    grid: Grid,
    k: u32,
    values: Vec<BandPayload>,
    designated: impl Fn(u32) -> bool,
    out: &mut OutputCollector<Tuple>,
) {
    // Union of candidates per partition (tallies are re-derived).
    let mut candidates: BTreeMap<u32, Vec<Tuple>> = BTreeMap::new();
    for payload in values {
        for (p, window) in payload {
            candidates
                .entry(p)
                .or_default()
                .extend(window.into_iter().map(|(t, _)| t));
        }
    }
    // Exact re-count per tuple over candidates in the partition itself
    // and its anti-dominating region (dominators live nowhere else).
    let mut p_coords = vec![0usize; grid.dim()];
    let mut q_coords = vec![0usize; grid.dim()];
    for (&p, tuples) in &candidates {
        if !designated(p) {
            continue;
        }
        grid.coords_into(p as usize, &mut p_coords);
        for t in tuples {
            let mut count = 0u32;
            'outer: for (&q, others) in &candidates {
                out.charge(1);
                grid.coords_into(q as usize, &mut q_coords);
                let relevant =
                    q == p || q_coords.iter().zip(p_coords.iter()).all(|(&b, &a)| b <= a);
                if !relevant {
                    continue;
                }
                for o in others {
                    out.charge(1);
                    if dominates(o, t) {
                        count += 1;
                        if count >= k {
                            break 'outer;
                        }
                    }
                }
            }
            if count < k {
                out.collect(t.clone());
            }
        }
    }
}

/// The grid the countstring pipelines (k-skyband, top-k dominating)
/// count on: the largest PPD `ppd` allows. The Section 3.3 heuristic
/// targets occupancy, which counts also capture; its candidate rule is
/// reused here on the fixed-size path.
pub(crate) fn count_grid(
    cardinality: usize,
    dim: usize,
    ppd: &PpdPolicy,
) -> skymr_common::Result<Grid> {
    Grid::new(dim, *ppd.ppds(cardinality, dim).end())
}

/// Runs the k-skyband pipeline: countstring job, then a single-reducer
/// band job (the MR-GPSRS topology generalized to `k ≥ 1`).
///
/// ```
/// use skymr::{mr_skyband, SkylineConfig};
/// use skymr_datagen::{generate, Distribution};
///
/// let data = generate(Distribution::Independent, 3, 2_000, 1);
/// let config = SkylineConfig::test();
/// let skyline = mr_skyband(&data, 1, &config).unwrap(); // k = 1 is the skyline
/// let band3 = mr_skyband(&data, 3, &config).unwrap();
/// assert!(band3.skyline.len() >= skyline.skyline.len());
/// ```
///
/// # Errors
///
/// Fails on invalid configuration or `k == 0`.
pub fn mr_skyband(
    dataset: &Dataset,
    k: u32,
    config: &SkylineConfig,
) -> skymr_common::Result<SkylineRun> {
    config.validate()?;
    if k == 0 {
        return Err(skymr_common::Error::InvalidConfig(
            "k must be at least 1".into(),
        ));
    }
    let grid = count_grid(dataset.len(), dataset.dim(), &config.ppd)?;
    let splits = RoundRobin::new(dataset.tuples(), config.mappers);
    let mut metrics = PipelineMetrics::new();

    let (countstring, cs_metrics) = run_countstring_job(config, &splits, grid, Some(k as u64))?;
    metrics.push(cs_metrics);
    let info = RunInfo {
        ppd: grid.ppd(),
        partitions: grid.num_partitions(),
        non_empty_partitions: countstring.non_empty_count(),
        surviving_partitions: countstring.active_count(),
        independent_groups: 0,
        buckets: 1,
    };

    let job = JobConfig::new("skyband", 1)
        .with_cache_bytes(countstring.byte_size())
        .with_fault_tolerance(&config.fault_tolerance)
        .with_collector(config.telemetry.clone());
    let outcome = metrics.track(run_job_from(
        &config.cluster,
        &job,
        &splits,
        &|ctx: &TaskContext| BandMapTask {
            countstring: &countstring,
            k,
            windows: BTreeMap::new(),
            counters: ctx.counters.clone(),
        },
        &reduce_fn(|_: u8, values, out| recount_band(grid, k, values, |_| true, out)),
        &SingleReducerPartitioner,
    ))?;
    let mut counters = BTreeMap::new();
    for (key, v) in outcome.counters.snapshot() {
        counters.insert(format!("skyband.{key}"), v);
    }

    Ok(SkylineRun {
        skyline: canonicalize(outcome.into_flat_output()),
        metrics,
        counters,
        info,
    })
}

/// Runs the multi-reducer k-skyband pipeline: countstring job, independent
/// partition groups over the *active* partitions, then `config.reducers`
/// reducers finalizing their designated partitions in parallel (the
/// MR-GPMRS topology generalized to `k ≥ 1`).
///
/// Exactness note: a designated partition's candidate dominators live in
/// active partitions of its anti-dominating region, which are inside its
/// own independent group and therefore inside its bucket; the witness
/// theorem (module docs) covers dominators lost to pruning and windows.
///
/// # Errors
///
/// Fails on invalid configuration or `k == 0`.
pub fn mr_skyband_multi(
    dataset: &Dataset,
    k: u32,
    config: &SkylineConfig,
) -> skymr_common::Result<SkylineRun> {
    config.validate()?;
    if k == 0 {
        return Err(skymr_common::Error::InvalidConfig(
            "k must be at least 1".into(),
        ));
    }
    let grid = count_grid(dataset.len(), dataset.dim(), &config.ppd)?;
    let splits = RoundRobin::new(dataset.tuples(), config.mappers);
    let mut metrics = PipelineMetrics::new();

    let (countstring, cs_metrics) = run_countstring_job(config, &splits, grid, Some(k as u64))?;
    metrics.push(cs_metrics);

    // Independent groups over the active partitions: the bitstring of the
    // active set feeds the unchanged group machinery.
    let mut active_bits = skymr_common::BitGrid::zeros(grid.num_partitions());
    for i in 0..grid.num_partitions() {
        if countstring.is_active(i) {
            active_bits.set(i);
        }
    }
    let active = crate::bitstring::Bitstring::from_parts(grid, active_bits);
    let plan = crate::groups::plan_groups(&active, config.reducers, config.merge_policy);
    let info = RunInfo {
        ppd: grid.ppd(),
        partitions: grid.num_partitions(),
        non_empty_partitions: countstring.non_empty_count(),
        surviving_partitions: countstring.active_count(),
        independent_groups: plan.groups.len(),
        buckets: plan.num_buckets(),
    };
    if plan.num_buckets() == 0 {
        return Ok(SkylineRun {
            skyline: Vec::new(),
            metrics,
            counters: BTreeMap::new(),
            info,
        });
    }

    let job = JobConfig::new("skyband-multi", plan.num_buckets())
        .with_cache_bytes(countstring.byte_size())
        .with_fault_tolerance(&config.fault_tolerance)
        .with_collector(config.telemetry.clone());
    // Section 5.4.2 generalized: reducer `key` re-counts only the
    // partitions designated to it; every candidate dominator of such a
    // partition lives in its own group, hence in this bucket.
    let outcome = metrics.track(run_job_from(
        &config.cluster,
        &job,
        &splits,
        &|ctx: &TaskContext| BandMultiMapTask {
            inner: BandMapTask {
                countstring: &countstring,
                k,
                windows: BTreeMap::new(),
                counters: ctx.counters.clone(),
            },
            plan: &plan,
        },
        &reduce_fn(|key: u32, values, out| {
            let mine = |p| plan.designated.get(&p) == Some(&(key as usize));
            recount_band(grid, k, values, mine, out);
        }),
        &skymr_mapreduce::ModuloPartitioner,
    ))?;
    let mut counters = BTreeMap::new();
    for (key, v) in outcome.counters.snapshot() {
        counters.insert(format!("skyband.{key}"), v);
    }

    Ok(SkylineRun {
        skyline: canonicalize(outcome.into_flat_output()),
        metrics,
        counters,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_datagen::{generate, Distribution};

    fn t(id: u64, vals: &[f64]) -> Tuple {
        Tuple::new(id, vals.to_vec())
    }

    /// The engine reserves each shuffle frame exactly from `byte_size()`.
    #[test]
    fn countstring_byte_size_is_its_encoded_length() {
        let tuples = [t(0, &[0.1, 0.9]), t(1, &[0.6, 0.6]), t(2, &[0.7, 0.2])];
        for ppd in [1, 2, 5] {
            let grid = Grid::new(2, ppd).unwrap();
            for cs in [
                Countstring::empty(grid),
                Countstring::from_tuples(grid, &tuples),
            ] {
                let mut bytes = Vec::new();
                cs.wire_encode(&mut bytes);
                assert_eq!(cs.byte_size(), bytes.len() as u64, "ppd {ppd}");
                let decoded = Countstring::wire_decode(&mut WireCursor::new(&bytes));
                assert_eq!(decoded.map(|d| d.byte_size()), Some(cs.byte_size()));
            }
        }
    }

    #[test]
    fn reference_band_known_case() {
        // Chain a ≺ b ≺ c: dominator counts 0, 1, 2.
        let tuples = vec![t(0, &[0.1, 0.1]), t(1, &[0.2, 0.2]), t(2, &[0.3, 0.3])];
        assert_eq!(skyband_reference(&tuples, 1).len(), 1);
        assert_eq!(skyband_reference(&tuples, 2).len(), 2);
        assert_eq!(skyband_reference(&tuples, 3).len(), 3);
    }

    #[test]
    fn band_insert_discards_after_k_dominators() {
        let mut window = Vec::new();
        band_insert(&mut window, t(0, &[0.1, 0.1]), 2);
        band_insert(&mut window, t(1, &[0.15, 0.15]), 2);
        // Dominated by both -> not inserted at k=2.
        band_insert(&mut window, t(2, &[0.2, 0.2]), 2);
        assert_eq!(window.len(), 2);
        // At k=3 it would be kept.
        let mut window = Vec::new();
        band_insert(&mut window, t(0, &[0.1, 0.1]), 3);
        band_insert(&mut window, t(1, &[0.15, 0.15]), 3);
        band_insert(&mut window, t(2, &[0.2, 0.2]), 3);
        assert_eq!(window.len(), 3);
    }

    #[test]
    fn band_insert_evicts_when_tally_reaches_k() {
        let mut window = Vec::new();
        band_insert(&mut window, t(0, &[0.5, 0.5]), 2);
        band_insert(&mut window, t(1, &[0.3, 0.3]), 2); // 1 dominator of t0
        assert_eq!(window.len(), 2);
        band_insert(&mut window, t(2, &[0.2, 0.2]), 2); // 2nd dominator: evict t0
        assert!(
            !window.iter().any(|(t, _)| t.id == 0),
            "t0 should be evicted at k=2"
        );
    }

    #[test]
    fn countstring_counts_and_merges() {
        let grid = Grid::new(2, 3).unwrap();
        let a = Countstring::from_tuples(grid, &[t(0, &[0.1, 0.1]), t(1, &[0.15, 0.12])]);
        let mut b = Countstring::from_tuples(grid, &[t(2, &[0.9, 0.9])]);
        b.merge(&a);
        assert_eq!(b.count(0), 2);
        assert_eq!(b.count(8), 1);
        assert_eq!(b.non_empty_count(), 2);
    }

    #[test]
    fn countstring_pruning_respects_k() {
        let grid = Grid::new(2, 3).unwrap();
        // Two tuples in partition 0 dominate partition 8 (far corner).
        let mut cs = Countstring::from_tuples(
            grid,
            &[t(0, &[0.1, 0.1]), t(1, &[0.2, 0.2]), t(2, &[0.9, 0.9])],
        );
        let mut cs1 = cs.clone();
        cs1.prune_dominated(1);
        assert!(!cs1.is_active(8), "k=1: one dominating tuple suffices");
        let mut cs2 = cs.clone();
        cs2.prune_dominated(2);
        assert!(!cs2.is_active(8), "k=2: two dominating tuples exist");
        cs.prune_dominated(3);
        assert!(
            cs.is_active(8),
            "k=3: only two dominating tuples, must survive"
        );
    }

    #[test]
    fn matches_reference_across_k() {
        let ds = generate(Distribution::Anticorrelated, 3, 400, 161);
        for k in [1u32, 2, 3, 5, 10] {
            let run = mr_skyband(&ds, k, &SkylineConfig::test()).unwrap();
            assert_eq!(
                run.skyline,
                skyband_reference(ds.tuples(), k),
                "k-skyband mismatch at k={k}"
            );
        }
    }

    #[test]
    fn k1_equals_skyline() {
        let ds = generate(Distribution::Independent, 4, 500, 162);
        let band = mr_skyband(&ds, 1, &SkylineConfig::test()).unwrap();
        let sky = crate::gpsrs::mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(band.skyline_ids(), sky.skyline_ids());
    }

    #[test]
    fn band_grows_with_k() {
        let ds = generate(Distribution::Independent, 3, 400, 163);
        let mut last = 0usize;
        for k in [1u32, 2, 4, 8] {
            let run = mr_skyband(&ds, k, &SkylineConfig::test()).unwrap();
            assert!(run.skyline.len() >= last, "band must be monotone in k");
            last = run.skyline.len();
        }
        assert!(
            last > mr_skyband(&ds, 1, &SkylineConfig::test())
                .unwrap()
                .skyline
                .len()
        );
    }

    #[test]
    fn invariant_to_job_shape() {
        let ds = generate(Distribution::Clustered { clusters: 3 }, 3, 300, 164);
        let oracle = skyband_reference(ds.tuples(), 3);
        for mappers in [1usize, 2, 5] {
            for ppd in [1usize, 2, 4] {
                let config = SkylineConfig::test().with_mappers(mappers).with_ppd(ppd);
                let run = mr_skyband(&ds, 3, &config).unwrap();
                assert_eq!(run.skyline, oracle, "m={mappers} ppd={ppd} broke the band");
            }
        }
    }

    #[test]
    fn duplicates_count_as_dominators_of_no_one() {
        // Equal tuples never dominate each other: all three stay at k=1.
        let ds = Dataset::new(
            2,
            vec![t(0, &[0.4, 0.4]), t(1, &[0.4, 0.4]), t(2, &[0.4, 0.4])],
        )
        .unwrap();
        let run = mr_skyband(&ds, 1, &SkylineConfig::test()).unwrap();
        assert_eq!(run.skyline.len(), 3);
    }

    #[test]
    fn rejects_k_zero_and_empty_input_is_fine() {
        let ds = generate(Distribution::Independent, 2, 50, 165);
        assert!(mr_skyband(&ds, 0, &SkylineConfig::test()).is_err());
        let empty = Dataset::new(2, vec![]).unwrap();
        assert!(mr_skyband(&empty, 2, &SkylineConfig::test())
            .unwrap()
            .skyline
            .is_empty());
    }

    #[test]
    fn survives_injected_failures() {
        let ds = generate(Distribution::Anticorrelated, 3, 300, 166);
        let clean = mr_skyband(&ds, 2, &SkylineConfig::test()).unwrap();
        let mut config = SkylineConfig::test();
        config.fault_tolerance =
            skymr_mapreduce::FaultTolerance::with_plan(skymr_mapreduce::FaultPlan::fail_maps([
                0, 1,
            ]));
        let failed = mr_skyband(&ds, 2, &config).unwrap();
        assert_eq!(failed.skyline_ids(), clean.skyline_ids());
    }

    #[test]
    fn multi_reducer_matches_single_and_reference() {
        let ds = generate(Distribution::Anticorrelated, 3, 500, 167);
        for k in [1u32, 2, 4] {
            let oracle = skyband_reference(ds.tuples(), k);
            for reducers in [1usize, 2, 4, 7] {
                let config = SkylineConfig::test().with_reducers(reducers);
                let run = mr_skyband_multi(&ds, k, &config).unwrap();
                assert_eq!(
                    run.skyline, oracle,
                    "multi band wrong at k={k} r={reducers}"
                );
                assert!(run.info.buckets <= reducers);
            }
        }
    }

    #[test]
    fn multi_reducer_reports_group_structure_and_dedups() {
        let ds = generate(Distribution::Anticorrelated, 2, 800, 168);
        let config = SkylineConfig::test().with_reducers(4).with_ppd(6);
        let run = mr_skyband_multi(&ds, 3, &config).unwrap();
        assert!(run.info.independent_groups >= 1);
        let mut ids = run.skyline_ids();
        let n = ids.len();
        ids.dedup();
        assert_eq!(
            ids.len(),
            n,
            "replicated partitions must be output exactly once"
        );
        assert_eq!(run.skyline, skyband_reference(ds.tuples(), 3));
    }

    #[test]
    fn multi_reducer_empty_input() {
        let empty = Dataset::new(3, vec![]).unwrap();
        let run = mr_skyband_multi(&empty, 2, &SkylineConfig::test()).unwrap();
        assert!(run.skyline.is_empty());
        assert_eq!(run.info.buckets, 0);
    }
}
