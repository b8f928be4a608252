//! A hybrid MR-GPSRS/MR-GPMRS planner (paper Section 8, future work).
//!
//! The paper's experiments show MR-GPMRS winning when a large fraction of
//! tuples are in the skyline and MR-GPSRS winning when the fraction is
//! small, and its conclusion calls for "a hybrid method … able to switch
//! between the two algorithms automatically". The bitstring the pre-job
//! already computes is a free signal for that switch: the fraction of
//! non-empty partitions that *survive* dominance pruning upper-bounds the
//! skyline's spread across the data space. Dominated partitions hold no
//! skyline tuples, so when most non-empty partitions are pruned the
//! skyline is confined to a thin boundary and a single reducer suffices;
//! when most survive, the final merge is the bottleneck and multiple
//! reducers pay off.

use skymr_common::Dataset;
use skymr_mapreduce::RoundRobin;

use crate::bitstring::Bitstring;
use crate::config::SkylineConfig;
use crate::gpmrs::mr_gpmrs;
use crate::gpsrs::mr_gpsrs;
use crate::result::SkylineRun;

/// The planner's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HybridChoice {
    /// Run MR-GPSRS (small expected skyline).
    SingleReducer,
    /// Run MR-GPMRS with this many reducers.
    MultiReducer {
        /// Reducer count to use.
        reducers: usize,
    },
}

/// Decides between the two algorithms from bitstring statistics.
///
/// `survival_threshold` is the surviving/non-empty partition ratio above
/// which multiple reducers are used; the paper's crossovers (Figures 7–9)
/// correspond to roughly one third of non-empty partitions surviving.
pub fn choose(
    bitstring: &Bitstring,
    non_empty: usize,
    config: &SkylineConfig,
    survival_threshold: f64,
) -> HybridChoice {
    if non_empty == 0 {
        return HybridChoice::SingleReducer;
    }
    let surviving = bitstring.count_set();
    let ratio = surviving as f64 / non_empty as f64;
    if ratio > survival_threshold && config.reducers > 1 {
        HybridChoice::MultiReducer {
            reducers: config.reducers,
        }
    } else {
        HybridChoice::SingleReducer
    }
}

/// Default survival-ratio threshold (see [`choose`]).
pub const DEFAULT_SURVIVAL_THRESHOLD: f64 = 0.35;

/// Runs the hybrid pipeline: one bitstring probe job on a coarse grid,
/// then whichever skyline algorithm the probe favours.
///
/// The probe reuses the configured PPD policy; its cost is not double
/// counted because the chosen algorithm re-runs its own bitstring job
/// (conservative — a production system would reuse the probe's bitstring,
/// and `choose` is public precisely so callers can do that).
pub fn mr_hybrid(dataset: &Dataset, config: &SkylineConfig) -> skymr_common::Result<SkylineRun> {
    config.validate()?;
    let splits = RoundRobin::new(dataset.tuples(), config.mappers);
    let (bitstring, info, _probe_metrics) =
        crate::bitstring::job::generate_bitstring(&splits, dataset.dim(), dataset.len(), config)?;
    match choose(
        &bitstring,
        info.non_empty,
        config,
        DEFAULT_SURVIVAL_THRESHOLD,
    ) {
        HybridChoice::SingleReducer => mr_gpsrs(dataset, config),
        HybridChoice::MultiReducer { reducers } => {
            let config = config.clone().with_reducers(reducers);
            mr_gpmrs(dataset, &config)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::bnl_reference;
    use skymr_datagen::{generate, Distribution};

    fn probe(ds: &Dataset, config: &SkylineConfig) -> (Bitstring, usize) {
        let splits = ds.split(config.mappers);
        let (bs, info, _) =
            crate::bitstring::job::generate_bitstring(&splits, ds.dim(), ds.len(), config).unwrap();
        (bs, info.non_empty)
    }

    #[test]
    fn correlated_data_prefers_single_reducer() {
        let ds = generate(Distribution::Correlated, 3, 2000, 31);
        let config = SkylineConfig::test().with_ppd(4);
        let (bs, non_empty) = probe(&ds, &config);
        assert_eq!(
            choose(&bs, non_empty, &config, DEFAULT_SURVIVAL_THRESHOLD),
            HybridChoice::SingleReducer
        );
    }

    #[test]
    fn anticorrelated_high_dim_prefers_multi_reducer() {
        let ds = generate(Distribution::Anticorrelated, 6, 2000, 32);
        let config = SkylineConfig::test().with_ppd(2);
        let (bs, non_empty) = probe(&ds, &config);
        assert_eq!(
            choose(&bs, non_empty, &config, DEFAULT_SURVIVAL_THRESHOLD),
            HybridChoice::MultiReducer {
                reducers: config.reducers
            }
        );
    }

    #[test]
    fn single_reducer_config_never_chooses_multi() {
        let ds = generate(Distribution::Anticorrelated, 6, 1000, 33);
        let config = SkylineConfig::test().with_ppd(2).with_reducers(1);
        let (bs, non_empty) = probe(&ds, &config);
        assert_eq!(
            choose(&bs, non_empty, &config, DEFAULT_SURVIVAL_THRESHOLD),
            HybridChoice::SingleReducer
        );
    }

    #[test]
    fn empty_input_chooses_single_reducer() {
        let ds = Dataset::new(2, vec![]).unwrap();
        let config = SkylineConfig::test();
        let (bs, non_empty) = probe(&ds, &config);
        assert_eq!(
            choose(&bs, non_empty, &config, 0.5),
            HybridChoice::SingleReducer
        );
    }

    #[test]
    fn hybrid_produces_the_exact_skyline_either_way() {
        for dist in [Distribution::Correlated, Distribution::Anticorrelated] {
            let ds = generate(dist, 4, 800, 34);
            let run = mr_hybrid(&ds, &SkylineConfig::test()).unwrap();
            assert_eq!(
                run.skyline,
                bnl_reference(ds.tuples()),
                "hybrid wrong on {dist:?}"
            );
        }
    }
}
