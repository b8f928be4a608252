//! Laptop picker: raw, mixed-direction attributes end to end.
//!
//! ```text
//! cargo run -p skymr-examples --release --bin laptop_picker
//! ```
//!
//! Real catalogues don't come normalized into `[0,1)` with
//! smaller-is-better semantics: prices are minimized, battery life and
//! benchmark scores maximized, each in its own units. This example runs
//! the full adoption path: fit a [`skymr_datagen::Normalizer`] on raw
//! rows, compute the skyline with MR-GPMRS, then widen to the 3-skyband
//! (`skymr::mr_skyband`) — the "shortlist plus close runners-up" query —
//! and print everything back in original units.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skymr::{mr_gpmrs, mr_skyband, SkylineConfig};
use skymr_datagen::{Direction, Normalizer};

const COLUMNS: [(&str, Direction); 4] = [
    ("price_eur", Direction::Minimize),
    ("weight_kg", Direction::Minimize),
    ("battery_h", Direction::Maximize),
    ("cpu_score", Direction::Maximize),
];

fn synthesize_catalogue(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            // Faster CPUs cost more and drain batteries; light laptops cost
            // extra too — the trade-offs that make skylines interesting.
            let cpu: f64 = rng.gen_range(2_000.0..18_000.0);
            let weight = rng.gen_range(0.9..2.8);
            let price = (300.0
                + cpu / 18_000.0 * 1_600.0
                + (2.8 - weight) * 400.0
                + rng.gen_range(-150.0..150.0))
            .max(250.0);
            let battery =
                (22.0 - cpu / 18_000.0 * 10.0 + rng.gen_range(-4.0..4.0)).clamp(3.0, 24.0);
            vec![price, weight, battery, cpu]
        })
        .collect()
}

fn main() {
    let rows = synthesize_catalogue(10_000, 23);
    let normalizer = Normalizer::fit(&COLUMNS, &rows).expect("consistent rows");
    let data = normalizer
        .to_dataset(&rows)
        .expect("normalized rows fit the data space");

    let config = SkylineConfig::default();
    let skyline = mr_gpmrs(&data, &config).expect("valid configuration");
    let band = mr_skyband(&data, 3, &config).expect("valid configuration");

    println!(
        "{} laptops -> {} on the skyline, {} in the 3-skyband",
        rows.len(),
        skyline.skyline.len(),
        band.skyline.len()
    );
    println!(
        "simulated runtimes: skyline {:.2?}, 3-skyband {:.2?}",
        skyline.metrics.sim_runtime(),
        band.metrics.sim_runtime()
    );
    println!();
    println!(
        "{:>9} {:>9} {:>10} {:>10}   tier",
        "price", "weight", "battery", "cpu"
    );
    let skyline_ids: std::collections::BTreeSet<u64> = skyline.skyline_ids().into_iter().collect();
    let mut entries: Vec<_> = band.skyline.iter().collect();
    entries.sort_by(|a, b| normalizer.to_raw_row(a)[0].total_cmp(&normalizer.to_raw_row(b)[0]));
    for t in entries.iter().take(15) {
        let raw = normalizer.to_raw_row(t);
        let tier = if skyline_ids.contains(&t.id) {
            "skyline"
        } else {
            "runner-up"
        };
        println!(
            "{:>8.0}€ {:>8.2}kg {:>9.1}h {:>10.0}   {tier}",
            raw[0], raw[1], raw[2], raw[3]
        );
    }
    if band.skyline.len() > 15 {
        println!("… and {} more", band.skyline.len() - 15);
    }

    // The skyline is always contained in every k-skyband.
    assert!(skyline
        .skyline_ids()
        .iter()
        .all(|id| band.skyline_ids().contains(id)));
}
