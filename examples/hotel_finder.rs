//! Hotel finder: the classic skyline motivation, end to end.
//!
//! ```text
//! cargo run -p skymr-examples --release --bin hotel_finder
//! ```
//!
//! A booking site wants every hotel that is not worse than some other
//! hotel in *all* of: price, distance to the beach, (inverted) rating, and
//! (inverted) review count. Exactly the multi-criteria decision problem
//! skyline queries answer — no weighting needed, the skyline is every
//! hotel a rational customer could prefer.
//!
//! The example synthesizes a hotel catalogue with realistic correlations
//! (beach-front hotels cost more — anti-correlated price/distance),
//! normalizes everything into the `[0,1)` smaller-is-better space, runs
//! both of the paper's algorithms, and prints the winning hotels with
//! their original units.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skymr::{mr_gpmrs, mr_gpsrs, SkylineConfig};
use skymr_common::{Dataset, Tuple};

/// A hotel in original units.
#[derive(Debug, Clone)]
struct Hotel {
    name: String,
    price_eur: f64, // 40 .. 500, lower better
    beach_km: f64,  // 0 .. 20, lower better
    rating: f64,    // 1 .. 5 stars, higher better
    reviews: u32,   // 0 .. 5000, higher better
}

fn synthesize_hotels(n: usize, seed: u64) -> Vec<Hotel> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            // Beach proximity drives price (anti-correlation): the closer,
            // the pricier, plus noise.
            let beach_km: f64 = rng.gen_range(0.0..20.0);
            let price_eur =
                (460.0 - beach_km * 20.0 + rng.gen_range(-60.0..60.0)).clamp(40.0, 499.0);
            // Ratings weakly track price; reviews are independent.
            let rating = (2.0 + price_eur / 200.0 + rng.gen_range(-1.0..1.0)).clamp(1.0, 5.0);
            let reviews = rng.gen_range(0..5_000);
            Hotel {
                name: format!("Hotel #{i:04}"),
                price_eur,
                beach_km,
                rating,
                reviews,
            }
        })
        .collect()
}

/// Normalizes a hotel into `[0,1)^4` where smaller is better on every
/// dimension (ratings and review counts are inverted).
fn to_tuple(id: u64, h: &Hotel) -> Tuple {
    let clamp = |v: f64| v.clamp(0.0, 1.0 - 1e-9);
    Tuple::new(
        id,
        vec![
            clamp(h.price_eur / 500.0),
            clamp(h.beach_km / 20.0),
            clamp(1.0 - (h.rating - 1.0) / 4.0),
            clamp(1.0 - h.reviews as f64 / 5_000.0),
        ],
    )
}

fn main() {
    let hotels = synthesize_hotels(30_000, 7);
    let tuples: Vec<Tuple> = hotels
        .iter()
        .enumerate()
        .map(|(i, h)| to_tuple(i as u64, h))
        .collect();
    let data = Dataset::new(4, tuples).expect("normalized into [0,1)");

    let config = SkylineConfig::default();
    let multi = mr_gpmrs(&data, &config).expect("valid configuration");
    let single = mr_gpsrs(&data, &config).expect("valid configuration");
    assert_eq!(
        multi.skyline_ids(),
        single.skyline_ids(),
        "both algorithms must return the same skyline"
    );

    println!(
        "{} hotels -> {} skyline hotels (no hotel beats them on every criterion)",
        hotels.len(),
        multi.skyline.len()
    );
    println!(
        "MR-GPMRS simulated runtime {:.2?} vs MR-GPSRS {:.2?}",
        multi.metrics.sim_runtime(),
        single.metrics.sim_runtime()
    );
    println!();
    println!(
        "{:<12} {:>9} {:>9} {:>7} {:>8}",
        "hotel", "price", "beach", "rating", "reviews"
    );
    let mut sample: Vec<&Tuple> = multi.skyline.iter().collect();
    sample.sort_by(|a, b| a.values[0].total_cmp(&b.values[0]));
    for t in sample.iter().take(12) {
        let h = &hotels[t.id as usize];
        println!(
            "{:<12} {:>8.0}€ {:>7.1}km {:>6.1}★ {:>8}",
            h.name, h.price_eur, h.beach_km, h.rating, h.reviews
        );
    }
    if multi.skyline.len() > 12 {
        println!("… and {} more", multi.skyline.len() - 12);
    }
}
