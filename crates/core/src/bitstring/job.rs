//! The bitstring-generation MapReduce job (paper Algorithms 1 and 2,
//! Figure 3) and the shared driver used by both skyline algorithms.

use skymr_common::{BitGrid, Counters, Tuple};
use skymr_mapreduce::{
    reduce_fn, run_job, ClusterConfig, Collector, Emitter, FaultTolerance, JobConfig, JobMetrics,
    MapTask, SingleReducerPartitioner, TaskContext,
};

use crate::bitstring::ppd::run_ppd_selection_job;
use crate::bitstring::Bitstring;
use crate::config::{PpdPolicy, SkylineConfig};
use crate::grid::Grid;

/// What the bitstring pre-job learned about the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstringInfo {
    /// PPD of the grid that was (chosen and) used.
    pub ppd: usize,
    /// Non-empty partitions before pruning (the paper's `ρ`).
    pub non_empty: usize,
    /// Partitions surviving dominance pruning (Equation 2).
    pub surviving: usize,
}

/// Mapper (Algorithm 1): builds the split's local bitstring `BS_{R_i}`
/// and emits it once the split is exhausted.
struct BitstringMapTask {
    grid: Grid,
    local: BitGrid,
    counters: Counters,
}

impl MapTask for BitstringMapTask {
    type In = Tuple;
    type K = u8;
    type V = BitGrid;

    fn map(&mut self, input: &Tuple, _out: &mut Emitter<u8, BitGrid>) {
        self.local.set(self.grid.partition_of(input));
    }

    fn finish(&mut self, out: &mut Emitter<u8, BitGrid>) {
        // Grid-cell occupancy of this split's local bitstring.
        self.counters
            .add("map.local_partitions_set", self.local.count_ones() as u64);
        out.emit(0, std::mem::replace(&mut self.local, BitGrid::zeros(0)));
    }
}

/// Reducer output: the global bitstring plus its pre-pruning occupancy.
#[derive(Debug, Clone)]
pub struct BitstringJobOutput {
    /// The (pruned) global bitstring's bit pattern.
    pub bits: BitGrid,
    /// Non-empty partition count before pruning.
    pub non_empty: u64,
}

/// Runs the bitstring-generation job for a fixed grid.
///
/// Fails with [`skymr_common::Error::JobFailed`] when a task exhausts the
/// retry budget of `ft`.
pub fn run_bitstring_job(
    cluster: &ClusterConfig,
    splits: &[Vec<Tuple>],
    grid: Grid,
    prune: bool,
    ft: &FaultTolerance,
    telemetry: Option<&Collector>,
) -> skymr_common::Result<(Bitstring, BitstringInfo, JobMetrics)> {
    let config = JobConfig::new("bitstring", 1)
        .with_fault_tolerance(ft)
        .with_collector(telemetry.cloned());
    let outcome = run_job(
        cluster,
        &config,
        splits,
        &|ctx: &TaskContext| BitstringMapTask {
            grid,
            local: BitGrid::zeros(grid.num_partitions()),
            counters: ctx.counters.clone(),
        },
        // Reducer (Algorithm 2): ORs all local bitstrings and prunes
        // dominated partitions.
        &|ctx: &TaskContext| {
            let counters = ctx.counters.clone();
            reduce_fn(move |_: u8, values: Vec<BitGrid>, out| {
                let mut merged = BitGrid::zeros(grid.num_partitions());
                for local in &values {
                    merged.or_assign(local);
                }
                let non_empty = merged.count_ones() as u64;
                let mut bs = Bitstring::from_parts(grid, merged);
                if prune {
                    bs.prune_dominated();
                }
                // Occupancy and DR-pruning effect of the merged global
                // bitstring (Equation 2): non-empty cells, survivors, and
                // cells pruned.
                let surviving = bs.count_set() as u64;
                counters.add("reduce.non_empty_partitions", non_empty);
                counters.add("reduce.surviving_partitions", surviving);
                counters.add(
                    "reduce.dr_pruned_partitions",
                    non_empty.saturating_sub(surviving),
                );
                out.collect(BitstringJobOutput {
                    bits: bs.bits().clone(),
                    non_empty,
                });
            })
        },
        &SingleReducerPartitioner,
    )?;
    let metrics = outcome.metrics.clone();
    let output = outcome
        .into_flat_output()
        .into_iter()
        .next()
        .unwrap_or_else(|| BitstringJobOutput {
            bits: BitGrid::zeros(grid.num_partitions()),
            non_empty: 0,
        });
    let bs = Bitstring::from_parts(grid, output.bits);
    let info = BitstringInfo {
        ppd: grid.ppd(),
        non_empty: output.non_empty as usize,
        surviving: bs.count_set(),
    };
    Ok((bs, info, metrics))
}

/// Runs whichever bitstring pre-job the configuration asks for: the fixed-
/// PPD job (Algorithms 1–2) or the Section 3.3 multi-PPD selection job.
///
/// `dim`/`cardinality` describe the full dataset the splits were cut from.
pub fn generate_bitstring(
    splits: &[Vec<Tuple>],
    dim: usize,
    cardinality: usize,
    config: &SkylineConfig,
) -> skymr_common::Result<(Bitstring, BitstringInfo, JobMetrics)> {
    match config.ppd {
        PpdPolicy::Fixed(n) => {
            let grid = Grid::new(dim, n)?;
            run_bitstring_job(
                &config.cluster,
                splits,
                grid,
                config.prune_bitstring,
                &config.fault_tolerance,
                config.telemetry.as_ref(),
            )
        }
        PpdPolicy::Auto {
            max_ppd,
            max_partitions,
        } => run_ppd_selection_job(
            &config.cluster,
            splits,
            dim,
            cardinality,
            max_ppd,
            max_partitions,
            config.prune_bitstring,
            &config.fault_tolerance,
            config.telemetry.as_ref(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_common::Dataset;
    use skymr_mapreduce::FaultPlan;

    fn dataset() -> Dataset {
        // 3×3 grid occupancy mirroring Figure 2: partitions 1,2,3,4,6.
        let tuples = vec![
            Tuple::new(0, vec![0.4, 0.1]),   // (1,0) -> 1
            Tuple::new(1, vec![0.8, 0.2]),   // (2,0) -> 2
            Tuple::new(2, vec![0.1, 0.5]),   // (0,1) -> 3
            Tuple::new(3, vec![0.5, 0.5]),   // (1,1) -> 4
            Tuple::new(4, vec![0.2, 0.9]),   // (0,2) -> 6
            Tuple::new(5, vec![0.45, 0.15]), // (1,0) -> 1 again
        ];
        Dataset::new(2, tuples).unwrap()
    }

    #[test]
    fn job_reproduces_figure2_bitstring() {
        let ds = dataset();
        let grid = Grid::new(2, 3).unwrap();
        let (bs, info, metrics) = run_bitstring_job(
            &ClusterConfig::test(),
            &ds.split(3),
            grid,
            false,
            &FaultTolerance::none(),
            None,
        )
        .unwrap();
        let rendered: String = (0..9)
            .map(|i| if bs.is_set(i) { '1' } else { '0' })
            .collect();
        assert_eq!(rendered, "011110100");
        assert_eq!(info.non_empty, 5);
        assert_eq!(info.surviving, 5);
        assert_eq!(metrics.map_tasks, 3);
        assert_eq!(metrics.reduce_tasks, 1);
    }

    #[test]
    fn pruning_runs_in_reducer() {
        // Add a far-corner tuple dominated by partition 4's contents.
        let mut tuples = dataset().into_tuples();
        tuples.push(Tuple::new(6, vec![0.95, 0.95])); // (2,2) -> 8
        let ds = Dataset::new(2, tuples).unwrap();
        let grid = Grid::new(2, 3).unwrap();
        let (bs, info, _) = run_bitstring_job(
            &ClusterConfig::test(),
            &ds.split(2),
            grid,
            true,
            &FaultTolerance::none(),
            None,
        )
        .unwrap();
        assert!(
            !bs.is_set(8),
            "partition 8 is dominated by partition 4 and must be pruned"
        );
        assert_eq!(info.non_empty, 6);
        assert_eq!(info.surviving, 5);
    }

    #[test]
    fn job_is_split_invariant() {
        let ds = dataset();
        let grid = Grid::new(2, 3).unwrap();
        let cluster = ClusterConfig::test();
        let ft = FaultTolerance::none();
        let (a, _, _) = run_bitstring_job(&cluster, &ds.split(1), grid, true, &ft, None).unwrap();
        let (b, _, _) = run_bitstring_job(&cluster, &ds.split(5), grid, true, &ft, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input_yields_empty_bitstring() {
        let grid = Grid::new(2, 3).unwrap();
        let splits: Vec<Vec<Tuple>> = vec![vec![], vec![]];
        let (bs, info, _) = run_bitstring_job(
            &ClusterConfig::test(),
            &splits,
            grid,
            true,
            &FaultTolerance::none(),
            None,
        )
        .unwrap();
        assert_eq!(bs.count_set(), 0);
        assert_eq!(info.non_empty, 0);
    }

    #[test]
    fn generate_bitstring_respects_fixed_policy() {
        let ds = dataset();
        let config = SkylineConfig::test().with_ppd(2);
        let (bs, info, _) = generate_bitstring(&ds.split(2), ds.dim(), ds.len(), &config).unwrap();
        assert_eq!(bs.grid().ppd(), 2);
        assert_eq!(info.ppd, 2);
    }

    #[test]
    fn job_survives_injected_map_failures() {
        let ds = dataset();
        let grid = Grid::new(2, 3).unwrap();
        let ft = FaultTolerance::with_plan(FaultPlan::fail_maps([0]));
        let (bs, _, metrics) =
            run_bitstring_job(&ClusterConfig::test(), &ds.split(3), grid, false, &ft, None)
                .unwrap();
        assert_eq!(metrics.map_retries, 1);
        assert_eq!(bs.count_set(), 5);
    }
}
