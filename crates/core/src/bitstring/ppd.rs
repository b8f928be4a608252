//! PPD auto-selection (paper Section 3.3).
//!
//! The ideal partitions-per-dimension value balances partition-dominance
//! pruning against per-partition tuple work. The paper's heuristic extends
//! the bitstring job: every mapper builds one local bitstring per candidate
//! PPD `j ∈ 2..=n_m` (with `n_m = ⌈c^(1/d)⌉`); the reducer merges them per
//! candidate, estimates tuples-per-partition as `TPP_e = c/ρ_j` from the
//! non-empty count `ρ_j`, and picks the candidate whose estimate is closest
//! to the uniform-assumption target `c/j^d` (Equations 3–4).
//!
//! **Engineering caps.** On low-dimensional, high-cardinality data
//! `n_m = c^(1/d)` makes mappers materialize hundreds of megabytes of
//! candidate bitstrings, so the candidate list is capped by `max_ppd` and
//! by `j^d ≤ max_partitions` (see `PpdPolicy::auto` and DESIGN.md). The
//! caps only ever shrink the candidate set; the selection rule is the
//! paper's.

use skymr_common::{BitGrid, Counters, Error, Tuple};
use skymr_mapreduce::{
    run_job, ClusterConfig, Collector, Emitter, FaultTolerance, JobConfig, JobMetrics, MapTask,
    OutputCollector, ReduceTask, SingleReducerPartitioner, TaskContext,
};

use crate::bitstring::job::BitstringInfo;
use crate::bitstring::Bitstring;
use crate::grid::Grid;

/// The candidate PPDs `2..=n_m` for a dataset of `cardinality` tuples in
/// `dim` dimensions, capped by `max_ppd` and `max_partitions`.
pub fn candidate_ppds(
    cardinality: usize,
    dim: usize,
    max_ppd: usize,
    max_partitions: usize,
) -> Vec<usize> {
    let nm_real = (cardinality.max(1) as f64).powf(1.0 / dim as f64).floor() as usize;
    let mut nm = nm_real.clamp(2, max_ppd.max(2));
    // Shrink until the largest candidate grid fits the partition budget.
    while nm > 2
        && nm
            .checked_pow(dim as u32)
            .map_or(true, |p| p > max_partitions)
    {
        nm -= 1;
    }
    (2..=nm).collect()
}

/// Mapper: one local bitstring per candidate PPD, emitted keyed by the
/// candidate index.
struct MultiPpdMapTask {
    grids: Vec<Grid>,
    locals: Vec<BitGrid>,
    counters: Counters,
}

impl MapTask for MultiPpdMapTask {
    type In = Tuple;
    type K = u32;
    type V = BitGrid;

    fn map(&mut self, input: &Tuple, _out: &mut Emitter<u32, BitGrid>) {
        for (grid, local) in self.grids.iter().zip(self.locals.iter_mut()) {
            local.set(grid.partition_of(input));
        }
    }

    fn finish(&mut self, out: &mut Emitter<u32, BitGrid>) {
        // Grid-cell occupancy of the finest candidate grid — the same
        // signal the fixed-PPD mapper records, on the grid that resolves
        // skew best.
        if let Some(local) = self.locals.last() {
            self.counters
                .add("map.local_partitions_set", local.count_ones() as u64);
        }
        for (j, local) in self.locals.drain(..).enumerate() {
            out.emit(j as u32, local);
        }
    }
}

/// Selection output: the winning candidate and its bitstring.
#[derive(Debug, Clone)]
pub struct PpdSelection {
    /// The chosen PPD.
    pub ppd: usize,
    /// Non-empty partition count `ρ` of the winning grid before pruning.
    pub non_empty: u64,
    /// The winning grid's (pruned) bit pattern.
    pub bits: BitGrid,
}

/// Reducer: merges per-candidate bitstrings, scores each candidate, and
/// outputs the winner's (pruned) bitstring.
struct MultiPpdReduceTask {
    grids: Vec<Grid>,
    cardinality: usize,
    prune: bool,
    merged: Vec<Option<BitGrid>>,
    counters: Counters,
}

impl ReduceTask for MultiPpdReduceTask {
    type K = u32;
    type V = BitGrid;
    type Out = PpdSelection;

    fn reduce(&mut self, key: u32, values: Vec<BitGrid>, _out: &mut OutputCollector<PpdSelection>) {
        let slot = &mut self.merged[key as usize];
        for local in values {
            match slot {
                Some(acc) => acc.or_assign(&local),
                None => *slot = Some(local),
            }
        }
    }

    fn finish(&mut self, out: &mut OutputCollector<PpdSelection>) {
        // Score every candidate: |c/ρ_j − c/j^d|, smaller is better.
        // Ties break toward the *larger* grid: on near-uniform data every
        // fully occupied candidate scores ~0 (ρ_j = j^d), and among those
        // the finest grid prunes strictly more while being equally
        // consistent with the uniform assumption.
        let c = self.cardinality as f64;
        let mut best: Option<(f64, usize)> = None;
        for (j, slot) in self.merged.iter().enumerate() {
            let Some(bits) = slot else { continue };
            let rho = bits.count_ones();
            if rho == 0 {
                continue;
            }
            let grid = &self.grids[j];
            let target = c / grid.num_partitions() as f64;
            let estimate = c / rho as f64;
            let score = (estimate - target).abs();
            if best.map_or(true, |(s, _)| score <= s) {
                best = Some((score, j));
            }
        }
        let Some((_, j)) = best else { return };
        let grid = self.grids[j];
        // The winner was scored above, so its slot is occupied.
        let Some(bits) = self.merged[j].take() else {
            return;
        };
        let non_empty = bits.count_ones() as u64;
        let mut bs = Bitstring::from_parts(grid, bits);
        if self.prune {
            bs.prune_dominated();
        }
        // Same occupancy / DR-pruning story the fixed-PPD reducer records,
        // plus the PPD the selection settled on.
        let surviving = bs.count_set() as u64;
        self.counters.add("reduce.selected_ppd", grid.ppd() as u64);
        self.counters.add("reduce.non_empty_partitions", non_empty);
        self.counters.add("reduce.surviving_partitions", surviving);
        self.counters.add(
            "reduce.dr_pruned_partitions",
            non_empty.saturating_sub(surviving),
        );
        out.collect(PpdSelection {
            ppd: grid.ppd(),
            non_empty,
            bits: bs.bits().clone(),
        });
    }
}

/// Runs the multi-PPD bitstring job and returns the winning bitstring.
#[allow(clippy::too_many_arguments)]
pub fn run_ppd_selection_job(
    cluster: &ClusterConfig,
    splits: &[Vec<Tuple>],
    dim: usize,
    cardinality: usize,
    max_ppd: usize,
    max_partitions: usize,
    prune: bool,
    ft: &FaultTolerance,
    telemetry: Option<&Collector>,
) -> skymr_common::Result<(Bitstring, BitstringInfo, JobMetrics)> {
    let candidates = candidate_ppds(cardinality, dim, max_ppd, max_partitions);
    let grids: Vec<Grid> = candidates
        .iter()
        .map(|&n| Grid::new(dim, n))
        .collect::<Result<_, _>>()?;
    if grids.is_empty() {
        return Err(Error::InvalidConfig("no PPD candidates".into()));
    }
    let config = JobConfig::new("bitstring-ppd", 1)
        .with_fault_tolerance(ft)
        .with_collector(telemetry.cloned());
    let outcome = run_job(
        cluster,
        &config,
        splits,
        &|ctx: &TaskContext| MultiPpdMapTask {
            locals: grids
                .iter()
                .map(|g| BitGrid::zeros(g.num_partitions()))
                .collect(),
            grids: grids.clone(),
            counters: ctx.counters.clone(),
        },
        &|ctx: &TaskContext| MultiPpdReduceTask {
            merged: vec![None; grids.len()],
            grids: grids.clone(),
            cardinality,
            prune,
            counters: ctx.counters.clone(),
        },
        &SingleReducerPartitioner,
    )?;
    let metrics = outcome.metrics.clone();
    let selection = outcome.into_flat_output().into_iter().next();
    let (grid, bits, non_empty) = match selection {
        Some(sel) => {
            let grid = grids
                .iter()
                .copied()
                .find(|g| g.ppd() == sel.ppd)
                .ok_or_else(|| {
                    Error::InvalidConfig(format!("selected PPD {} is not a candidate", sel.ppd))
                })?;
            (grid, sel.bits, sel.non_empty as usize)
        }
        // Empty input: fall back to the smallest candidate grid.
        None => (grids[0], BitGrid::zeros(grids[0].num_partitions()), 0),
    };
    let bs = Bitstring::from_parts(grid, bits);
    let info = BitstringInfo {
        ppd: grid.ppd(),
        non_empty,
        surviving: bs.count_set(),
    };
    Ok((bs, info, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_follow_root_rule() {
        // c = 10_000, d = 2 -> nm = 100, capped at 32.
        assert_eq!(
            candidate_ppds(10_000, 2, 32, 1 << 18),
            (2..=32).collect::<Vec<_>>()
        );
        // c = 10_000, d = 4 -> nm = 10.
        assert_eq!(
            candidate_ppds(10_000, 4, 32, 1 << 18),
            (2..=10).collect::<Vec<_>>()
        );
        // Tiny cardinality still yields the minimal candidate.
        assert_eq!(candidate_ppds(3, 5, 32, 1 << 18), vec![2]);
    }

    #[test]
    fn candidates_respect_partition_budget() {
        // d = 8: j^8 <= 4096 forces j <= 2.
        assert_eq!(candidate_ppds(1_000_000, 8, 32, 4096), vec![2]);
        // d = 4: j^4 <= 10_000 allows j up to 10.
        let c = candidate_ppds(1_000_000, 4, 32, 10_000);
        assert_eq!(*c.last().unwrap(), 10);
    }

    #[test]
    fn selection_runs_and_picks_a_candidate() {
        use skymr_datagen::{generate, Distribution};
        let ds = generate(Distribution::Independent, 2, 2_000, 1);
        let (bs, info, metrics) = run_ppd_selection_job(
            &ClusterConfig::test(),
            &ds.split(4),
            2,
            ds.len(),
            16,
            1 << 16,
            true,
            &FaultTolerance::none(),
            None,
        )
        .unwrap();
        assert!(info.ppd >= 2 && info.ppd <= 16);
        assert_eq!(bs.grid().ppd(), info.ppd);
        assert!(info.non_empty > 0);
        assert!(info.surviving <= info.non_empty);
        assert_eq!(metrics.reduce_tasks, 1);
        // The shuffle carried one bitstring per candidate per mapper.
        assert_eq!(metrics.map_output_records, 4 * 15);
    }

    #[test]
    fn selection_prefers_tpp_match() {
        // With c = 4096 in 2-D, the target TPP for grid j is c/j²; a
        // uniform-ish dataset should make the reducer pick a mid-size grid
        // where occupancy ρ_j tracks j² closely. We only assert the scoring
        // is sane: the winner's |c/ρ − c/j²| is minimal among candidates.
        use skymr_datagen::{generate, Distribution};
        let ds = generate(Distribution::Independent, 2, 4_096, 9);
        let candidates = candidate_ppds(ds.len(), 2, 16, 1 << 16);
        let cluster = ClusterConfig::test();
        let ft = FaultTolerance::none();
        let (bs, _, _) = run_ppd_selection_job(
            &cluster,
            &ds.split(2),
            2,
            ds.len(),
            16,
            1 << 16,
            false,
            &ft,
            None,
        )
        .unwrap();
        // Recompute every candidate's score locally.
        let c = ds.len() as f64;
        let mut best = f64::INFINITY;
        let mut best_ppd = 0;
        for &j in &candidates {
            let grid = Grid::new(2, j).unwrap();
            let local = Bitstring::from_tuples(grid, ds.tuples());
            let rho = local.count_set() as f64;
            let score = (c / rho - c / grid.num_partitions() as f64).abs();
            if score <= best {
                best = score;
                best_ppd = j;
            }
        }
        assert_eq!(bs.grid().ppd(), best_ppd);
    }

    #[test]
    fn empty_input_falls_back_gracefully() {
        let splits: Vec<Vec<Tuple>> = vec![vec![]];
        let ft = FaultTolerance::none();
        let (bs, info, _) = run_ppd_selection_job(
            &ClusterConfig::test(),
            &splits,
            3,
            0,
            8,
            1 << 12,
            true,
            &ft,
            None,
        )
        .unwrap();
        assert_eq!(info.non_empty, 0);
        assert_eq!(bs.count_set(), 0);
    }
}
