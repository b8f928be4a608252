//! MR-Bitmap (Zhang, Zhou, Guan — DASFAA 2011 workshops), built on the
//! bitmap skyline algorithm of Tan, Eng, Ooi (VLDB 2001).
//!
//! The bitmap algorithm decides dominance with bit-slice arithmetic: with
//! tuples numbered `0..n`, keep for every dimension `i` and every distinct
//! value rank `r` the bitmap `LE_i[r]` of tuples whose dimension-`i` value
//! ranks ≤ `r`. A tuple `p` with ranks `(r_1, …, r_d)` is dominated iff
//!
//! ```text
//! (⋂_i LE_i[r_i])  ∩  (⋃_i LE_i[r_i − 1])  ≠ ∅
//! ```
//!
//! — the left side is "every tuple ≤ p on all dimensions", the right side
//! "strictly better somewhere"; their intersection is exactly the set of
//! dominators. The structure only fits dimensions with a **limited number
//! of distinct values**, which is why the paper excludes MR-Bitmap from
//! its experiments on continuous domains ("we skip MR-Bitmap because it
//! cannot apply to the continuous numeric data domains"). This module
//! implements it anyway, together with a [`discretize`] substrate, so the
//! excluded comparison can be reproduced on its own terms.
//!
//! Two MapReduce phases: per-dimension reducers build the bit slices in
//! parallel; a second job evaluates every tuple against the broadcast
//! slices, using **multiple reducers** (the capability the paper credits
//! MR-Bitmap with).

use std::collections::BTreeMap;

use skymr_common::{dataset::canonicalize, BitGrid, Dataset, Tuple};
use skymr_mapreduce::{
    map_fn, reduce_fn, run_job, ByteSized, Emitter, JobConfig, ModuloPartitioner, PipelineMetrics,
};

use crate::config::{BaselineConfig, BaselineRun};

/// Snaps every value onto a `k`-value grid per dimension
/// (`v ↦ (⌊v·k⌋ + ½)/k`), producing the limited-distinct-value datasets
/// MR-Bitmap requires. Note the result is a *different* dataset: its
/// skyline is the skyline of the discretized tuples.
///
/// ```
/// use skymr_baselines::discretize;
/// use skymr_common::{Dataset, Tuple};
///
/// let ds = Dataset::new(1, vec![Tuple::new(0, vec![0.13]), Tuple::new(1, vec![0.11])]).unwrap();
/// let d = discretize(&ds, 4);
/// // Both values land on the same of the 4 grid points: 0.125.
/// assert_eq!(d.tuples()[0].values[0], d.tuples()[1].values[0]);
/// ```
pub fn discretize(dataset: &Dataset, k: usize) -> Dataset {
    assert!(k >= 1, "need at least one distinct value per dimension");
    let tuples = dataset
        .tuples()
        .iter()
        .map(|t| {
            let values: Vec<f64> = t
                .values
                .iter()
                .map(|&v| (((v * k as f64).floor()).min(k as f64 - 1.0) + 0.5) / k as f64)
                .collect();
            Tuple::new(t.id, values)
        })
        .collect();
    Dataset::new_unchecked(dataset.dim(), tuples)
}

/// The bit slices of one dimension.
#[derive(Debug, Clone)]
pub struct DimSlices {
    /// Sorted distinct values of the dimension.
    pub values: Vec<f64>,
    /// `le[r]` = bitmap of tuples whose value ranks ≤ `r`.
    pub le: Vec<BitGrid>,
}

impl DimSlices {
    /// The rank of `v` in this dimension.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not one of the dimension's distinct values (every
    /// phase-2 tuple went through phase 1, so this indicates corruption).
    pub fn rank_of(&self, v: f64) -> usize {
        self.values
            .binary_search_by(|probe| probe.total_cmp(&v))
            .expect("value seen in phase 2 but not in phase 1")
    }
}

impl ByteSized for DimSlices {
    fn byte_size(&self) -> u64 {
        self.values.byte_size() + self.le.iter().map(ByteSized::byte_size).sum::<u64>()
    }
}

/// The full bitmap index over all dimensions.
#[derive(Debug)]
pub struct BitmapIndex {
    /// Number of indexed tuples.
    pub num_tuples: usize,
    /// Per-dimension slices.
    pub dims: Vec<DimSlices>,
}

impl BitmapIndex {
    /// `true` iff tuple number `index` with the given (discretized) values
    /// is dominated by some other indexed tuple.
    pub fn is_dominated(&self, values: &[f64]) -> bool {
        debug_assert_eq!(values.len(), self.dims.len());
        let mut all_le: Option<BitGrid> = None;
        let mut any_lt = BitGrid::zeros(self.num_tuples);
        for (dim, &v) in self.dims.iter().zip(values.iter()) {
            let r = dim.rank_of(v);
            match &mut all_le {
                None => all_le = Some(dim.le[r].clone()),
                Some(acc) => acc.and_assign(&dim.le[r]),
            }
            if r > 0 {
                any_lt.or_assign(&dim.le[r - 1]);
            }
        }
        all_le.is_some_and(|a| a.intersects(&any_lt))
    }

    /// Total broadcast size of the index.
    pub fn byte_size(&self) -> u64 {
        self.dims.iter().map(ByteSized::byte_size).sum()
    }
}

/// Runs the two-phase MR-Bitmap pipeline on a limited-distinct-value
/// dataset (pass continuous data through [`discretize`] first; the result
/// is the skyline of the *discretized* tuples).
pub fn mr_bitmap(dataset: &Dataset, config: &BaselineConfig) -> skymr_common::Result<BaselineRun> {
    config.validate()?;
    let indexed: Vec<(u32, Tuple)> = dataset
        .tuples()
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.clone()))
        .collect();
    let splits: Vec<Vec<(u32, Tuple)>> = {
        let mut s: Vec<Vec<(u32, Tuple)>> = (0..config.mappers).map(|_| Vec::new()).collect();
        for (i, item) in indexed.into_iter().enumerate() {
            s[i % config.mappers].push(item); // mappers > 0 validated above; i % mappers < s.len()
        }
        s
    };
    let mut metrics = PipelineMetrics::new();
    let ft = &config.fault_tolerance;

    // Phase 1: per-dimension slice construction. Mappers emit
    // `(dimension, (tuple index, value))`; reducer `dim` builds that
    // dimension's slices.
    let r1 = dataset.dim().min(config.cluster.reduce_slots).max(1);
    let job1 = JobConfig::new("mr-bitmap-slices", r1).with_fault_tolerance(ft);
    let outcome1 = metrics.track(run_job(
        &config.cluster,
        &job1,
        &splits,
        &map_fn(
            |(i, t): &(u32, Tuple), out: &mut Emitter<u32, (u32, f64)>| {
                for (dim, &v) in t.values.iter().enumerate() {
                    out.emit(dim as u32, (*i, v));
                }
            },
        ),
        &reduce_fn(|dim: u32, values: Vec<(u32, f64)>, out| {
            let mut distinct: Vec<f64> = values.iter().map(|&(_, v)| v).collect();
            distinct.sort_by(f64::total_cmp);
            distinct.dedup();
            // One bitmap per rank: tuples with value rank <= r.
            let mut le: Vec<BitGrid> = (0..distinct.len())
                .map(|_| BitGrid::zeros(dataset.len()))
                .collect();
            for &(index, v) in &values {
                let r = distinct
                    .binary_search_by(|probe| probe.total_cmp(&v))
                    .expect("distinct list covers all values");
                le[r].set(index as usize);
            }
            // Make the slices cumulative.
            for r in 1..le.len() {
                let (head, tail) = le.split_at_mut(r);
                tail[0].or_assign(&head[r - 1]);
            }
            out.collect((
                dim,
                DimSlices {
                    values: distinct,
                    le,
                },
            ));
        }),
        &ModuloPartitioner,
    ))?;

    let mut dims: BTreeMap<u32, DimSlices> = BTreeMap::new();
    for (dim, slices) in outcome1.into_flat_output() {
        dims.insert(dim, slices);
    }
    let index = BitmapIndex {
        num_tuples: dataset.len(),
        dims: dims.into_values().collect(),
    };

    // Phase 2: parallel evaluation of every tuple against the broadcast
    // index.
    let r2 = config.cluster.reduce_slots.max(1);
    let job2 = JobConfig::new("mr-bitmap-eval", r2)
        .with_cache_bytes(index.byte_size())
        .with_fault_tolerance(ft);
    let outcome2 = metrics.track(run_job(
        &config.cluster,
        &job2,
        &splits,
        &map_fn(|(i, t): &(u32, Tuple), out: &mut Emitter<u32, Tuple>| {
            out.emit_ref(*i, t);
        }),
        &reduce_fn(|_: u32, values: Vec<Tuple>, out| {
            for t in values {
                if !index.is_dominated(&t.values) {
                    out.collect(t);
                }
            }
        }),
        &ModuloPartitioner,
    ))?;

    Ok(BaselineRun {
        skyline: canonicalize(outcome2.into_flat_output()),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;
    use skymr_datagen::{generate, Distribution};

    fn discretized(dist: Distribution, dim: usize, card: usize, k: usize, seed: u64) -> Dataset {
        discretize(&generate(dist, dim, card, seed), k)
    }

    #[test]
    fn discretize_limits_distinct_values() {
        let ds = discretized(Distribution::Independent, 3, 500, 8, 141);
        for d in 0..3 {
            let mut vals: Vec<u64> = ds
                .tuples()
                .iter()
                .map(|t| (t.values[d] * 1e9) as u64)
                .collect();
            vals.sort_unstable();
            vals.dedup();
            assert!(
                vals.len() <= 8,
                "dimension {d} has {} distinct values",
                vals.len()
            );
        }
        // Values stay inside [0,1).
        for t in ds.tuples() {
            assert!(t.values.iter().all(|v| (0.0..1.0).contains(v)));
        }
    }

    #[test]
    fn matches_bnl_oracle_on_discretized_data() {
        for dist in [Distribution::Independent, Distribution::Anticorrelated] {
            for (dim, k) in [(2usize, 4usize), (3, 8), (5, 6)] {
                let ds = discretized(dist, dim, 400, k, 142);
                let run = mr_bitmap(&ds, &BaselineConfig::test()).unwrap();
                assert_eq!(
                    run.skyline,
                    bnl_skyline(ds.tuples()),
                    "MR-Bitmap wrong on {dist:?} d={dim} k={k}"
                );
            }
        }
    }

    #[test]
    fn index_classifies_simple_cases() {
        let ds = Dataset::new(
            2,
            vec![
                Tuple::new(0, vec![0.1, 0.1]),
                Tuple::new(1, vec![0.3, 0.3]),  // dominated by 0
                Tuple::new(2, vec![0.1, 0.1]),  // duplicate of 0: not dominated
                Tuple::new(3, vec![0.05, 0.9]), // incomparable
            ],
        )
        .unwrap();
        let run = mr_bitmap(&ds, &BaselineConfig::test()).unwrap();
        assert_eq!(run.skyline_ids(), vec![0, 2, 3]);
    }

    #[test]
    fn duplicates_are_kept() {
        let ds = Dataset::new(
            1,
            vec![
                Tuple::new(0, vec![0.25]),
                Tuple::new(1, vec![0.25]),
                Tuple::new(2, vec![0.75]),
            ],
        )
        .unwrap();
        let run = mr_bitmap(&ds, &BaselineConfig::test()).unwrap();
        assert_eq!(run.skyline_ids(), vec![0, 1]);
    }

    #[test]
    fn runs_two_jobs_and_charges_index_broadcast() {
        let ds = discretized(Distribution::Independent, 3, 300, 8, 143);
        let run = mr_bitmap(&ds, &BaselineConfig::test()).unwrap();
        assert_eq!(run.metrics.jobs.len(), 2);
        assert_eq!(run.metrics.jobs[0].name, "mr-bitmap-slices");
        assert_eq!(run.metrics.jobs[1].name, "mr-bitmap-eval");
        assert!(
            run.metrics.jobs[1].cache_bytes > 0,
            "the bitmap index must be broadcast"
        );
    }

    #[test]
    fn invariant_to_job_shape() {
        let ds = discretized(Distribution::Anticorrelated, 3, 400, 6, 144);
        let oracle = bnl_skyline(ds.tuples());
        for mappers in [1usize, 3, 8] {
            let config = BaselineConfig::test().with_mappers(mappers);
            assert_eq!(mr_bitmap(&ds, &config).unwrap().skyline, oracle);
        }
    }

    #[test]
    fn empty_input() {
        let ds = Dataset::new(2, vec![]).unwrap();
        assert!(mr_bitmap(&ds, &BaselineConfig::test())
            .unwrap()
            .skyline
            .is_empty());
    }

    #[test]
    fn survives_injected_failures() {
        let ds = discretized(Distribution::Independent, 3, 250, 8, 145);
        let clean = mr_bitmap(&ds, &BaselineConfig::test()).unwrap();
        let mut config = BaselineConfig::test();
        config.fault_tolerance =
            skymr_mapreduce::FaultTolerance::with_plan(skymr_mapreduce::FaultPlan::fail_maps([0]));
        let failed = mr_bitmap(&ds, &config).unwrap();
        assert_eq!(failed.skyline_ids(), clean.skyline_ids());
        // Both jobs share the plan, so each charges one map retry.
        assert_eq!(failed.metrics.jobs[0].map_retries, 1);
        assert_eq!(failed.metrics.jobs[1].map_retries, 1);
    }
}
