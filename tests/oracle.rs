//! Cross-crate oracle tests: every MapReduce skyline algorithm in the
//! workspace must return exactly the centralized BNL skyline, across
//! distributions, dimensionalities, and degenerate inputs.

use skymr::SkylineConfig;
use skymr_common::{Dataset, Tuple};
use skymr_integration_tests::{assert_all_agree, scenario, ALL_DISTRIBUTIONS};

#[test]
fn all_algorithms_agree_across_distributions() {
    for dist in ALL_DISTRIBUTIONS {
        let data = scenario(dist, 3, 500, 101);
        assert_all_agree(&data, &SkylineConfig::test(), &format!("{dist:?} d=3"));
    }
}

#[test]
fn all_algorithms_agree_across_dimensionalities() {
    for dim in [1usize, 2, 4, 6, 8] {
        let data = scenario(skymr_datagen::Distribution::Anticorrelated, dim, 300, 102);
        assert_all_agree(
            &data,
            &SkylineConfig::test(),
            &format!("anticorrelated d={dim}"),
        );
    }
}

#[test]
fn all_algorithms_agree_on_small_cardinalities() {
    for card in [1usize, 2, 3, 10, 50] {
        let data = scenario(skymr_datagen::Distribution::Independent, 3, card, 103);
        assert_all_agree(
            &data,
            &SkylineConfig::test(),
            &format!("independent c={card}"),
        );
    }
}

#[test]
fn all_algorithms_agree_with_auto_ppd() {
    let mut config = SkylineConfig::test();
    config.ppd = skymr::PpdPolicy::auto();
    let data = scenario(skymr_datagen::Distribution::Anticorrelated, 4, 700, 104);
    assert_all_agree(&data, &config, "auto PPD");
}

#[test]
fn all_algorithms_handle_identical_tuples() {
    // Every tuple equal: all are skyline (no strict dominance anywhere).
    let tuples: Vec<Tuple> = (0..40).map(|i| Tuple::new(i, vec![0.25, 0.75])).collect();
    let data = Dataset::new(2, tuples).unwrap();
    assert_all_agree(&data, &SkylineConfig::test(), "identical tuples");
}

#[test]
fn all_algorithms_handle_single_dominator() {
    // One tuple dominates everything else.
    let mut tuples = vec![Tuple::new(0, vec![0.001, 0.001, 0.001])];
    for i in 1..200u64 {
        let f = 0.2 + (i as f64 % 61.0) / 100.0;
        tuples.push(Tuple::new(i, vec![f, 0.9 - f / 2.0, 0.5]));
    }
    let data = Dataset::new(3, tuples).unwrap();
    assert_all_agree(&data, &SkylineConfig::test(), "single dominator");
}

#[test]
fn mr_bitmap_matches_oracle_on_its_own_domain() {
    // MR-Bitmap answers for limited-distinct-value data; compare on the
    // discretized dataset (its own domain), across distributions.
    use skymr_baselines::{bnl_skyline, discretize, mr_bitmap, BaselineConfig};
    for dist in ALL_DISTRIBUTIONS {
        let data = discretize(&scenario(dist, 3, 400, 105), 8);
        let run = mr_bitmap(&data, &BaselineConfig::test()).unwrap();
        let oracle: Vec<u64> = bnl_skyline(data.tuples()).iter().map(|t| t.id).collect();
        assert_eq!(run.skyline_ids(), oracle, "MR-Bitmap disagrees on {dist:?}");
    }
}

#[test]
fn all_algorithms_handle_boundary_values() {
    // Values at 0.0 and just below 1.0, plus cell-boundary values that
    // exercise the half-open grid cells.
    let tuples = vec![
        Tuple::new(0, vec![0.0, 1.0 - 1e-9]),
        Tuple::new(1, vec![1.0 - 1e-9, 0.0]),
        Tuple::new(2, vec![1.0 / 3.0, 1.0 / 3.0]),
        Tuple::new(3, vec![2.0 / 3.0, 2.0 / 3.0]),
        Tuple::new(4, vec![0.0, 0.0]),
        Tuple::new(5, vec![0.5, 0.5]),
    ];
    let data = Dataset::new(2, tuples).unwrap();
    assert_all_agree(&data, &SkylineConfig::test(), "boundary values");
}

/// The oracles must decide dominance with `dominates` / `compare` alone:
/// they are what the signature-filtered `Window` kernels are checked
/// against, so they must not come to share its code.
#[test]
fn oracles_stay_independent_of_the_signature_filter() {
    let local = include_str!("../crates/core/src/local.rs");
    let start = local
        .find("pub fn bnl_reference")
        .expect("local.rs defines bnl_reference");
    let len = local[start..].find("\n}\n").expect("fn body closes");
    let oracles = [
        ("sfs.rs", include_str!("../crates/baselines/src/sfs.rs")),
        (
            "analysis.rs (check_skyline)",
            include_str!("../crates/mapreduce/src/analysis.rs"),
        ),
        ("local.rs::bnl_reference", &local[start..start + len]),
    ];
    for (name, source) in oracles {
        assert!(
            source.contains("dominates") || source.contains("compare("),
            "{name} no longer tests dominance directly"
        );
        for filtered in ["Window", "CellQuantizer", "signature", "prune_by"] {
            assert!(
                !source.contains(filtered),
                "{name} references `{filtered}`: oracles must bypass the cell-signature prefilter"
            );
        }
    }
}
