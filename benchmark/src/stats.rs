//! Order statistics over timing samples.

use std::time::Duration;

/// Median of `samples` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted.get(mid).copied()
    } else {
        Some((sorted.get(mid - 1)? + sorted.get(mid)?) / 2.0)
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Whether `n` samples support the `p`-th percentile: the metrics guide
/// asks for at least ten samples beyond the reported percentile.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p / 100.0) >= 10.0
}

/// Median of a list of durations in seconds; 0 when empty.
pub fn median_secs(durations: &[Duration]) -> f64 {
    let secs: Vec<f64> = durations.iter().map(Duration::as_secs_f64).collect();
    median(&secs).unwrap_or(0.0)
}

/// `|a − b|` as a share of `a`; 0 when both are 0, infinite when only `a`
/// is.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        ((b - a) / a).abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 99.0), None);
        // Order of the input does not matter.
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), Some(5.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(!supports_percentile(48, 99.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(1000, 99.0));
        assert!(supports_percentile(20, 50.0));
    }

    #[test]
    fn rel_diff_is_relative_to_the_first_value() {
        assert_eq!(rel_diff(2.0, 2.0), 0.0);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!((rel_diff(2.0, 2.1) - 0.05).abs() < 1e-12);
        assert!((rel_diff(2.0, 1.9) - 0.05).abs() < 1e-12);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
