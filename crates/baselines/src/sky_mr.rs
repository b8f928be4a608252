//! SKY-MR (Park, Min, Shim — PVLDB 2013), the sample-based competitor the
//! paper's related-work section discusses.
//!
//! Before MapReduce starts, SKY-MR draws a random **sample** of the
//! dataset and builds a [`SkyQuadtree`] whose dominated leaves are marked
//! pruned ("to identify dominated sampled regions"). The tree — like the
//! paper's bitstring — is broadcast to every mapper, which then
//!
//! 1. discards tuples falling in pruned leaves (they are dominated by a
//!    sample tuple, which is itself part of the dataset),
//! 2. maintains a BNL local skyline per surviving leaf, and
//! 3. routes each leaf's local skyline to the reducer owning the leaf,
//!    replicating it additionally to the reducers owning leaves whose
//!    region it may dominate.
//!
//! Reducers then finalize their leaves **in parallel** — SKY-MR is, like
//! MR-GPMRS, a multi-reducer algorithm; the contrast the paper draws is
//! that its pruning structure needs an up-front sampling pass over the
//! data, where the bitstring is computed *by* MapReduce.

use std::collections::BTreeMap;

use skymr_common::dominance::dominates;
use skymr_common::{dataset::canonicalize, Dataset, Tuple};
use skymr_mapreduce::{
    map_fn, reduce_fn, run_job, ClusterConfig, Emitter, FaultTolerance, JobConfig, MapTask,
    ModuloPartitioner, PipelineMetrics, TaskContext,
};

use crate::config::{validate_mappers, BaselineRun};
use crate::mr_bnl::window_insert;
use crate::quadtree::SkyQuadtree;

/// Configuration for SKY-MR.
#[derive(Debug, Clone)]
pub struct SkyMrConfig {
    /// Number of mappers (input splits).
    pub mappers: usize,
    /// Number of reducers (leaf owners).
    pub reducers: usize,
    /// Sample size for the sky-quadtree (drawn deterministically from the
    /// dataset).
    pub sample_size: usize,
    /// Maximum sample tuples per quadtree leaf before splitting.
    pub split_threshold: usize,
    /// The simulated cluster.
    pub cluster: ClusterConfig,
    /// Fault injection, retry budget, and speculation for both jobs.
    pub fault_tolerance: FaultTolerance,
}

impl Default for SkyMrConfig {
    fn default() -> Self {
        let cluster = ClusterConfig::default();
        Self {
            mappers: cluster.map_slots,
            reducers: cluster.reduce_slots,
            sample_size: 1_000,
            split_threshold: 24,
            cluster,
            fault_tolerance: FaultTolerance::none(),
        }
    }
}

impl SkyMrConfig {
    /// Small, fast configuration for tests.
    pub fn test() -> Self {
        Self {
            mappers: 4,
            reducers: 4,
            sample_size: 100,
            split_threshold: 8,
            cluster: ClusterConfig::test(),
            fault_tolerance: FaultTolerance::none(),
        }
    }
}

/// The shared, broadcast planning state derived from the sample.
#[derive(Debug)]
pub struct SkyMrPlan {
    /// The sky-quadtree.
    pub tree: SkyQuadtree,
    /// For every leaf: the reducer that owns (finalizes) it.
    owners: Vec<usize>,
    /// For every leaf `l`: the reducers that need `l`'s local skyline as a
    /// comparison source or target (owner of `l` plus owners of every leaf
    /// `b` with `l ∈ ADR(b)`), deduplicated and sorted.
    destinations: Vec<Vec<usize>>,
    /// ADR leaf lists per leaf.
    adr: Vec<Vec<usize>>,
}

impl SkyMrPlan {
    /// Derives the plan from a sample.
    pub fn build(dim: usize, sample: &[Tuple], split_threshold: usize, reducers: usize) -> Self {
        assert!(reducers > 0, "a plan needs at least one reducer");
        let tree = SkyQuadtree::build(dim, sample, split_threshold);
        let n = tree.num_leaves();
        let owners: Vec<usize> = (0..n).map(|l| l % reducers).collect(); // reducers > 0 asserted at entry
        let adr: Vec<Vec<usize>> = (0..n).map(|l| tree.adr_leaves(l)).collect();
        let mut destinations: Vec<Vec<usize>> = (0..n).map(|l| vec![owners[l]]).collect();
        for (b, sources) in adr.iter().enumerate() {
            for &l in sources {
                destinations[l].push(owners[b]);
            }
        }
        for d in &mut destinations {
            d.sort_unstable();
            d.dedup();
        }
        Self {
            tree,
            owners,
            destinations,
            adr,
        }
    }

    /// The reducer owning leaf `l`.
    pub fn owner(&self, leaf: usize) -> usize {
        self.owners[leaf]
    }

    /// Approximate broadcast size of the plan (tree boxes + tables).
    pub fn cache_bytes(&self) -> u64 {
        let per_leaf = (2 * self.tree.dim() * 8 + 16) as u64;
        self.tree.num_leaves() as u64 * per_leaf
    }
}

/// A mapper's emitted value: `(leaf, local skyline)` pairs.
pub type LeafPayload = Vec<(u32, Vec<Tuple>)>;

/// Map side: quadtree filter + per-leaf local skylines.
struct SkyMrMapTask<'a> {
    plan: &'a SkyMrPlan,
    leaves: BTreeMap<u32, Vec<Tuple>>,
}

impl MapTask for SkyMrMapTask<'_> {
    type In = Tuple;
    type K = u32;
    type V = LeafPayload;

    fn map(&mut self, input: &Tuple, out: &mut Emitter<u32, LeafPayload>) {
        if let Some(leaf) = self.plan.tree.locate(input) {
            let window = self.leaves.entry(leaf as u32).or_default();
            out.charge(window_insert(window, input.clone()));
        }
    }

    fn finish(&mut self, out: &mut Emitter<u32, LeafPayload>) {
        // Group the local skylines by destination reducer.
        let mut per_reducer: BTreeMap<usize, LeafPayload> = BTreeMap::new();
        for (&leaf, skyline) in &self.leaves {
            for &dest in &self.plan.destinations[leaf as usize] {
                per_reducer
                    .entry(dest)
                    .or_default()
                    .push((leaf, skyline.clone()));
            }
        }
        for (dest, payload) in per_reducer {
            out.emit(dest as u32, payload);
        }
    }
}

/// Draws a deterministic sample of `size` tuples (evenly strided — the
/// datasets in this workspace are generated in random order, so a stride
/// is an unbiased sample, and determinism keeps runs reproducible).
pub fn stride_sample(dataset: &Dataset, size: usize) -> Vec<Tuple> {
    if size == 0 || dataset.is_empty() {
        return Vec::new();
    }
    let stride = (dataset.len() / size.min(dataset.len())).max(1);
    dataset
        .tuples()
        .iter()
        .step_by(stride)
        .take(size)
        .cloned()
        .collect()
}

/// Runs SKY-MR end to end as a two-job pipeline: a sampling job that draws
/// the sample and builds the sky-quadtree plan (so the pruning structure's
/// cost is on the clock, comparable to the paper's bitstring job), then
/// the skyline job. The plan is broadcast like a distributed-cache file.
pub fn sky_mr(dataset: &Dataset, config: &SkyMrConfig) -> skymr_common::Result<BaselineRun> {
    validate_mappers(config.mappers)?;
    let mut metrics = PipelineMetrics::new();
    let ft = &config.fault_tolerance;
    let splits = dataset.split(config.mappers);
    let dim = dataset.dim().max(1);
    let reducers = config.reducers.max(1);
    let split_threshold = config.split_threshold.max(1);

    // Job 1: sample + plan construction.
    let stride = if config.sample_size == 0 {
        usize::MAX
    } else {
        (dataset.len() / config.sample_size.min(dataset.len().max(1))).max(1) // sample_size != 0 in this branch and .min(len.max(1)) keeps it >= 1
    };
    let sample_job = JobConfig::new("sky-mr-sample", 1).with_fault_tolerance(ft);
    let outcome1 = metrics.track(run_job(
        &config.cluster,
        &sample_job,
        &splits,
        // Every `stride`-th tuple of each split goes to the single reducer,
        // which builds the sky-quadtree plan from the sample.
        &map_fn({
            let mut seen = 0usize;
            move |t: &Tuple, out: &mut Emitter<u8, Tuple>| {
                if seen % stride == 0 {
                    out.emit(0, t.clone());
                }
                seen += 1;
            }
        }),
        &reduce_fn(|_: u8, sample: Vec<Tuple>, out| {
            out.collect(SkyMrPlan::build(dim, &sample, split_threshold, reducers));
        }),
        &skymr_mapreduce::SingleReducerPartitioner,
    ))?;
    let plan = outcome1
        .into_flat_output()
        .into_iter()
        .next()
        .unwrap_or_else(|| SkyMrPlan::build(dim, &[], split_threshold, reducers));

    // Job 2: the skyline computation.
    let job = JobConfig::new("sky-mr", reducers)
        .with_cache_bytes(plan.cache_bytes())
        .with_fault_tolerance(ft);
    let outcome = metrics.track(run_job(
        &config.cluster,
        &job,
        &splits,
        &|_: &TaskContext| SkyMrMapTask {
            plan: &plan,
            leaves: BTreeMap::new(),
        },
        // Finalize the owned leaves against their ADR sources.
        &reduce_fn(|key: u32, values: Vec<LeafPayload>, out| {
            let me = key as usize;
            // Collect per-leaf unions; merge (BNL) only the leaves this
            // reducer owns, concatenate the rest (sources).
            let mut owned: BTreeMap<u32, Vec<Tuple>> = BTreeMap::new();
            let mut sources: BTreeMap<u32, Vec<Tuple>> = BTreeMap::new();
            for payload in values {
                for (leaf, tuples) in payload {
                    if plan.owner(leaf as usize) == me {
                        let window = owned.entry(leaf).or_default();
                        for t in tuples {
                            out.charge(window_insert(window, t));
                        }
                    } else {
                        sources.entry(leaf).or_default().extend(tuples);
                    }
                }
            }
            // Finalize each owned leaf against its ADR leaves (owned ones
            // use their merged windows; foreign ones their concatenations).
            let leaf_ids: Vec<u32> = owned.keys().copied().collect();
            for leaf in leaf_ids {
                let mut window = owned.remove(&leaf).expect("listed leaf present");
                for &a in &plan.adr[leaf as usize] {
                    let a = a as u32;
                    let dominators: Option<&[Tuple]> = owned
                        .get(&a)
                        .map(Vec::as_slice)
                        .or_else(|| sources.get(&a).map(Vec::as_slice));
                    if let Some(dominators) = dominators {
                        window.retain(|t| {
                            let hit = dominators.iter().position(|d| dominates(d, t));
                            out.charge(hit.map_or(dominators.len(), |i| i + 1) as u64);
                            hit.is_none()
                        });
                        if window.is_empty() {
                            break;
                        }
                    }
                }
                for t in &window {
                    out.collect(t.clone());
                }
                owned.insert(leaf, window);
            }
        }),
        &ModuloPartitioner,
    ))?;
    Ok(BaselineRun {
        skyline: canonicalize(outcome.into_flat_output()),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bnl::bnl_skyline;
    use skymr_datagen::{generate, Distribution};

    #[test]
    fn matches_bnl_oracle_across_distributions() {
        for dist in [
            Distribution::Independent,
            Distribution::Correlated,
            Distribution::Anticorrelated,
            Distribution::Clustered { clusters: 3 },
        ] {
            for dim in [2usize, 3, 5] {
                let ds = generate(dist, dim, 600, 131);
                let run = sky_mr(&ds, &SkyMrConfig::test()).unwrap();
                assert_eq!(
                    run.skyline,
                    bnl_skyline(ds.tuples()),
                    "SKY-MR wrong on {dist:?} d={dim}"
                );
            }
        }
    }

    #[test]
    fn invariant_to_job_shape() {
        let ds = generate(Distribution::Anticorrelated, 3, 500, 132);
        let oracle = bnl_skyline(ds.tuples());
        for mappers in [1usize, 3, 8] {
            for reducers in [1usize, 2, 5] {
                let config = SkyMrConfig {
                    mappers,
                    reducers,
                    ..SkyMrConfig::test()
                };
                assert_eq!(
                    sky_mr(&ds, &config).unwrap().skyline,
                    oracle,
                    "m={mappers} r={reducers} broke SKY-MR"
                );
            }
        }
    }

    #[test]
    fn invariant_to_sample_size() {
        let ds = generate(Distribution::Independent, 3, 700, 133);
        let oracle = bnl_skyline(ds.tuples());
        for sample_size in [0usize, 1, 10, 100, 700] {
            let config = SkyMrConfig {
                sample_size,
                ..SkyMrConfig::test()
            };
            assert_eq!(
                sky_mr(&ds, &config).unwrap().skyline,
                oracle,
                "sample_size={sample_size} broke SKY-MR"
            );
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty = Dataset::new(2, vec![]).unwrap();
        assert!(sky_mr(&empty, &SkyMrConfig::test())
            .unwrap()
            .skyline
            .is_empty());
        let one = Dataset::new(2, vec![Tuple::new(5, vec![0.2, 0.8])]).unwrap();
        assert_eq!(
            sky_mr(&one, &SkyMrConfig::test()).unwrap().skyline_ids(),
            vec![5]
        );
    }

    #[test]
    fn survives_injected_failures() {
        let ds = generate(Distribution::Anticorrelated, 3, 400, 134);
        let clean = sky_mr(&ds, &SkyMrConfig::test()).unwrap();
        let mut config = SkyMrConfig::test();
        config.fault_tolerance = FaultTolerance::with_plan(
            skymr_mapreduce::FaultPlan::fail_maps([0])
                .with_reduce_fault(1, skymr_mapreduce::TaskFault::lost(1))
                .for_job("sky-mr"),
        );
        let failed = sky_mr(&ds, &config).unwrap();
        assert_eq!(failed.skyline_ids(), clean.skyline_ids());
        assert_eq!(failed.metrics.jobs.len(), 2, "sampling job + skyline job");
        assert_eq!(failed.metrics.jobs[1].map_retries, 1);
        assert_eq!(failed.metrics.jobs[1].reduce_retries, 1);
    }

    #[test]
    fn stride_sample_is_deterministic_subset() {
        let ds = generate(Distribution::Independent, 2, 1_000, 135);
        let a = stride_sample(&ds, 100);
        let b = stride_sample(&ds, 100);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let ids: std::collections::BTreeSet<u64> = ds.tuples().iter().map(|t| t.id).collect();
        assert!(
            a.iter().all(|t| ids.contains(&t.id)),
            "sample must be a subset of the data"
        );
    }
}
