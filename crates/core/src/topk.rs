//! Top-k dominating queries in MapReduce — a second extension of the
//! paper's framework.
//!
//! The *top-k dominating* query (Yiu & Mamoulis) ranks tuples by their
//! **dominance score** `score(t) = |{x ∈ R : t ≺ x}|` and returns the `k`
//! highest scorers: an absolute, scale-free notion of "most broadly
//! superior" tuples that, unlike the skyline, has a controllable output
//! size.
//!
//! The [`Countstring`] makes this cheap to bound. For a tuple in grid
//! partition `p`:
//!
//! * every tuple of every partition in `DR(p)` is dominated for sure —
//!   a **lower bound** `Σ counts(DR(p))`;
//! * further dominated tuples can only sit in the *ambiguous shell*
//!   `A(p)`: partitions `≥ p` componentwise that are not in `DR(p)`
//!   (including `p` itself) — adding their counts (minus the tuple
//!   itself) gives an **upper bound**.
//!
//! Both bounds depend only on the partition, so the driver derives from
//! the countstring alone a global candidate set: sort partitions by lower
//! bound, accumulate counts until `k` tuples are covered — the k-th best
//! lower bound is a score threshold `T` — and keep every partition whose
//! upper bound reaches `T`. Only candidate partitions can contain top-k
//! scorers.
//!
//! The scoring job then routes every tuple `x` to the reducers of the
//! candidate partitions in whose ambiguous shell `x`'s cell lies (its
//! guaranteed `DR` contribution needs no data movement at all), and each
//! reducer scores its candidate partition's tuples exactly. The driver
//! merges the per-reducer rankings into the global top-k.

use skymr_common::dominance::dominates;
use skymr_common::{Dataset, Tuple};
use skymr_mapreduce::{
    map_fn, reduce_fn, run_job_from, Emitter, JobConfig, ModuloPartitioner, PipelineMetrics,
    RoundRobin,
};

use crate::config::SkylineConfig;
use crate::result::RunInfo;
use crate::skyband::Countstring;

/// Result of a top-k dominating query.
#[derive(Debug)]
pub struct TopKRun {
    /// The top `k` tuples with their exact dominance scores, ordered by
    /// score descending (ties broken by ascending id).
    pub ranked: Vec<(Tuple, u64)>,
    /// Per-job metrics.
    pub metrics: PipelineMetrics,
    /// Structural run facts (groups/buckets unused here).
    pub info: RunInfo,
}

/// Reference implementation by exhaustive counting: the test oracle.
pub fn top_k_dominating_reference(tuples: &[Tuple], k: usize) -> Vec<(Tuple, u64)> {
    let mut scored: Vec<(Tuple, u64)> = tuples
        .iter()
        .map(|t| {
            let score = tuples.iter().filter(|x| dominates(t, x)).count() as u64;
            (t.clone(), score)
        })
        .collect();
    scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.id.cmp(&b.0.id)));
    scored.truncate(k);
    scored
}

/// The driver-side plan derived from the countstring.
#[derive(Debug)]
pub struct TopKPlan {
    /// Candidate partitions (sorted ascending) that may hold top-k scorers.
    pub candidates: Vec<u32>,
    /// Guaranteed (DR) score contribution per candidate.
    pub dr_sums: Vec<u64>,
    /// The lower-bound threshold the candidates cleared.
    pub threshold: u64,
}

impl TopKPlan {
    /// Builds the candidate plan from partition counts.
    pub fn build(countstring: &Countstring, k: usize) -> Self {
        let grid = countstring.grid();
        let np = grid.num_partitions();
        // Lower bound per partition: Σ counts over DR(p); ambiguous-shell
        // mass: Σ counts over {q ≥ p componentwise} \ DR(p).
        let mut lower = vec![0u64; np];
        let mut shell = vec![0u64; np];
        let mut p_coords = vec![0usize; grid.dim()];
        let mut q_coords = vec![0usize; grid.dim()];
        for p in 0..np {
            if countstring.count(p) == 0 {
                continue;
            }
            grid.coords_into(p, &mut p_coords);
            for q in 0..np {
                if countstring.count(q) == 0 {
                    continue;
                }
                grid.coords_into(q, &mut q_coords);
                let ge = q_coords.iter().zip(p_coords.iter()).all(|(&b, &a)| b >= a);
                if !ge {
                    continue;
                }
                let strictly = q_coords.iter().zip(p_coords.iter()).all(|(&b, &a)| b > a);
                if strictly {
                    lower[p] += countstring.count(q);
                } else {
                    shell[p] += countstring.count(q);
                }
            }
        }
        // Threshold: the k-th best lower bound over tuples (all tuples of
        // a partition share its bounds).
        let mut by_lower: Vec<usize> = (0..np).filter(|&p| countstring.count(p) > 0).collect();
        by_lower.sort_by_key(|&p| std::cmp::Reverse(lower[p]));
        let mut covered = 0u64;
        let mut threshold = 0u64;
        for &p in &by_lower {
            covered += countstring.count(p);
            if covered >= k as u64 {
                threshold = lower[p];
                break;
            }
        }
        // Candidates: partitions whose upper bound reaches the threshold.
        // The shell mass includes the scoring tuple itself, so the true
        // upper bound is `lower + shell − 1 ≥ threshold`, i.e. strictly
        // greater without the self-term.
        let candidates: Vec<u32> = (0..np)
            .filter(|&p| countstring.count(p) > 0 && lower[p] + shell[p] > threshold)
            .map(|p| p as u32)
            .collect();
        let dr_sums = candidates.iter().map(|&p| lower[p as usize]).collect();
        Self {
            candidates,
            dr_sums,
            threshold,
        }
    }

    /// `true` iff cell `c` lies in the ambiguous shell of candidate `q`:
    /// `q ≤ c` componentwise with equality somewhere.
    fn in_shell(&self, q_coords: &[usize], c_coords: &[usize]) -> bool {
        let mut all_ge = true;
        let mut any_eq = false;
        for (&c, &q) in c_coords.iter().zip(q_coords.iter()) {
            if c < q {
                all_ge = false;
                break;
            }
            if c == q {
                any_eq = true;
            }
        }
        all_ge && any_eq
    }
}

/// Runs the top-k dominating pipeline: countstring job, driver-side
/// candidate bounding, then a parallel scoring job (one reducer key per
/// candidate partition).
///
/// ```
/// use skymr::topk::mr_top_k_dominating;
/// use skymr::SkylineConfig;
/// use skymr_datagen::{generate, Distribution};
///
/// let data = generate(Distribution::Independent, 3, 1_000, 3);
/// let run = mr_top_k_dominating(&data, 5, &SkylineConfig::test()).unwrap();
/// assert_eq!(run.ranked.len(), 5);
/// assert!(run.ranked.windows(2).all(|w| w[0].1 >= w[1].1), "sorted by score");
/// ```
///
/// # Errors
///
/// Fails on invalid configuration or `k == 0`.
pub fn mr_top_k_dominating(
    dataset: &Dataset,
    k: usize,
    config: &SkylineConfig,
) -> skymr_common::Result<TopKRun> {
    config.validate()?;
    if k == 0 {
        return Err(skymr_common::Error::InvalidConfig(
            "k must be at least 1".into(),
        ));
    }
    // `Dataset::new_unchecked` admits d = 0; count on a 1-d grid then.
    let grid = crate::skyband::count_grid(dataset.len(), dataset.dim().max(1), &config.ppd)?;
    let splits = RoundRobin::new(dataset.tuples(), config.mappers);
    let mut metrics = PipelineMetrics::new();

    // Job 1: countstring (no k-pruning — every tuple is a potential
    // dominated target, so nothing may be dropped).
    let (countstring, cs_metrics) =
        crate::skyband::run_countstring_job(config, &splits, grid, None)?;
    metrics.push(cs_metrics);

    let plan = TopKPlan::build(&countstring, k);
    let info = RunInfo {
        ppd: grid.ppd(),
        partitions: grid.num_partitions(),
        non_empty_partitions: countstring.non_empty_count(),
        surviving_partitions: plan.candidates.len(),
        independent_groups: 0,
        buckets: plan.candidates.len().min(config.reducers),
    };
    if plan.candidates.is_empty() {
        return Ok(TopKRun {
            ranked: Vec::new(),
            metrics,
            info,
        });
    }

    // Job 2: score the candidates.
    let reducers = plan
        .candidates
        .len()
        .min(config.cluster.reduce_slots)
        .max(1);
    let job = JobConfig::new("topk-dominating", reducers)
        .with_cache_bytes(skymr_mapreduce::ByteSized::byte_size(&countstring))
        .with_fault_tolerance(&config.fault_tolerance)
        .with_collector(config.telemetry.clone());
    let candidate_coords: Vec<Vec<usize>> = plan
        .candidates
        .iter()
        .map(|&q| grid.coords_of(q as usize))
        .collect();
    let (plan, candidate_coords) = (&plan, &candidate_coords);
    let mut cell_buf = vec![0usize; grid.dim()];
    let outcome = metrics.track(run_job_from(
        &config.cluster,
        &job,
        &splits,
        // Route every tuple to each candidate whose ambiguous shell holds
        // its cell.
        &map_fn(move |input: &Tuple, out: &mut Emitter<u32, Tuple>| {
            grid.coords_into(grid.partition_of(input), &mut cell_buf);
            for (ci, qc) in candidate_coords.iter().enumerate() {
                if plan.in_shell(qc, &cell_buf) {
                    out.emit_ref(ci as u32, input);
                }
            }
        }),
        &reduce_fn(|key: u32, values: Vec<Tuple>, out| {
            let candidate = plan.candidates[key as usize] as usize;
            let dr_sum = plan.dr_sums[key as usize];
            // Scorers: the received tuples whose own cell IS the candidate
            // partition; every received tuple is a potential target.
            let mut ranked: Vec<(Tuple, u64)> = values
                .iter()
                .filter(|t| grid.partition_of(t) == candidate)
                .map(|t| {
                    let shell_score = values.iter().filter(|x| dominates(t, x)).count() as u64;
                    (t.clone(), dr_sum + shell_score)
                })
                .collect();
            out.charge(ranked.len() as u64 * values.len() as u64);
            // Only this reducer's local top-k can matter globally.
            ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.id.cmp(&b.0.id)));
            ranked.truncate(k);
            for entry in ranked {
                out.collect(entry);
            }
        }),
        &ModuloPartitioner,
    ))?;

    let mut ranked = outcome.into_flat_output();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.id.cmp(&b.0.id)));
    ranked.truncate(k);
    Ok(TopKRun {
        ranked,
        metrics,
        info,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_datagen::{generate, Distribution};

    #[test]
    fn reference_orders_by_score() {
        let tuples = vec![
            Tuple::new(0, vec![0.1, 0.1]), // dominates 1, 2
            Tuple::new(1, vec![0.5, 0.5]), // dominates 2
            Tuple::new(2, vec![0.9, 0.9]),
            Tuple::new(3, vec![0.05, 0.95]), // dominates nobody
        ];
        let top = top_k_dominating_reference(&tuples, 2);
        assert_eq!(top[0].0.id, 0);
        assert_eq!(top[0].1, 2);
        assert_eq!(top[1].0.id, 1);
        assert_eq!(top[1].1, 1);
    }

    #[test]
    fn matches_reference_across_distributions() {
        for dist in [
            Distribution::Independent,
            Distribution::Anticorrelated,
            Distribution::Correlated,
        ] {
            let ds = generate(dist, 3, 500, 171);
            for k in [1usize, 5, 20] {
                let run = mr_top_k_dominating(&ds, k, &SkylineConfig::test()).unwrap();
                let oracle = top_k_dominating_reference(ds.tuples(), k);
                assert_eq!(
                    run.ranked, oracle,
                    "top-{k} dominating mismatch on {dist:?}"
                );
            }
        }
    }

    #[test]
    fn invariant_to_job_shape() {
        let ds = generate(Distribution::Independent, 2, 400, 172);
        let oracle = top_k_dominating_reference(ds.tuples(), 10);
        for mappers in [1usize, 3, 7] {
            for ppd in [1usize, 2, 5] {
                let config = SkylineConfig::test().with_mappers(mappers).with_ppd(ppd);
                let run = mr_top_k_dominating(&ds, 10, &config).unwrap();
                assert_eq!(run.ranked, oracle, "m={mappers} ppd={ppd} broke top-k");
            }
        }
    }

    #[test]
    fn k_larger_than_dataset_returns_everything_ranked() {
        let ds = generate(Distribution::Independent, 2, 30, 173);
        let run = mr_top_k_dominating(&ds, 100, &SkylineConfig::test()).unwrap();
        assert_eq!(run.ranked.len(), 30);
        assert_eq!(run.ranked, top_k_dominating_reference(ds.tuples(), 100));
    }

    #[test]
    fn candidate_bounding_actually_prunes() {
        // Clustered data: most partitions can be ruled out by bounds.
        let ds = generate(Distribution::Independent, 2, 3_000, 174);
        let config = SkylineConfig::test().with_ppd(8);
        let run = mr_top_k_dominating(&ds, 3, &config).unwrap();
        assert!(
            run.info.surviving_partitions < run.info.non_empty_partitions,
            "bounding should exclude some partitions ({} vs {})",
            run.info.surviving_partitions,
            run.info.non_empty_partitions
        );
        assert_eq!(run.ranked, top_k_dominating_reference(ds.tuples(), 3));
    }

    #[test]
    fn rejects_k_zero_and_handles_empty() {
        let ds = generate(Distribution::Independent, 2, 10, 175);
        assert!(mr_top_k_dominating(&ds, 0, &SkylineConfig::test()).is_err());
        let empty = Dataset::new(2, vec![]).unwrap();
        let run = mr_top_k_dominating(&empty, 4, &SkylineConfig::test()).unwrap();
        assert!(run.ranked.is_empty());
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Identical tuples share scores; ties break by ascending id.
        let ds = Dataset::new(
            2,
            vec![
                Tuple::new(5, vec![0.2, 0.2]),
                Tuple::new(1, vec![0.2, 0.2]),
                Tuple::new(9, vec![0.8, 0.8]),
            ],
        )
        .unwrap();
        let run = mr_top_k_dominating(&ds, 2, &SkylineConfig::test()).unwrap();
        assert_eq!(run.ranked[0].0.id, 1);
        assert_eq!(run.ranked[1].0.id, 5);
        assert_eq!(run.ranked[0].1, 1);
    }
}
