//! The metrics registry: typed counters, gauges, and fixed-bucket
//! histograms.
//!
//! The registry is the structured replacement for the ad-hoc count fields
//! that used to live only on `JobMetrics`; the engine now populates a
//! registry per job and derives the legacy fields from it (the
//! compatibility facade). Everything is deterministic by construction:
//! `BTreeMap` storage, `u64` histogram bounds, integer values throughout.

use std::collections::BTreeMap;

use crate::span::Ticks;

/// Default histogram bounds for per-task model durations, in ticks
/// (microseconds): powers of four from 64 µs to ~17 s, plus an implicit
/// overflow bucket. Integer bounds keep bucketing and export byte-stable.
pub const TICK_BUCKETS: &[u64] = &[
    64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216,
];

/// A fixed-bucket histogram over `u64` samples.
///
/// Bucket `i` counts samples `v <= bounds[i]` (first matching bound); one
/// implicit overflow bucket counts everything above the last bound.
/// `record` followed by `merge` is associative and commutative (it is
/// element-wise addition), which the engine relies on to fold per-task
/// histograms in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
}

impl Histogram {
    /// An empty histogram with the given upper bounds (must be strictly
    /// increasing; an overflow bucket is added implicitly).
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds another histogram with identical bounds into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bounds differ — merging histograms of different
    /// shapes is a programming error, not a data condition.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds must match");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// `(upper_bound, count)` pairs; the overflow bucket has bound `None`.
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.bounds
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(self.counts.iter().copied())
    }
}

/// A per-job metrics registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the named counter (created at zero).
    pub fn add(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += by;
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to an absolute level.
    pub fn set_gauge(&mut self, name: &str, value: i64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current gauge level, if set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records a sample into the named histogram, creating it with
    /// `bounds` on first use.
    pub fn record(&mut self, name: &str, bounds: &[u64], value: Ticks) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(bounds))
            .record(value);
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into this registry: counters add, gauges take
    /// `other`'s value, histograms merge.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> + '_ {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, sorted by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("map.records_out"), 0);
        r.add("map.records_out", 3);
        r.add("map.records_out", 4);
        assert_eq!(r.counter("map.records_out"), 7);
    }

    #[test]
    fn gauges_hold_the_last_level() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("cluster.map_slots", 13);
        r.set_gauge("cluster.map_slots", 4);
        assert_eq!(r.gauge("cluster.map_slots"), Some(4));
        assert_eq!(r.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_by_first_matching_bound() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [0, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![2, 2, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5222);
    }

    #[test]
    fn registry_merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsRegistry::new();
        a.add("x", 1);
        a.record("h", &[10], 5);
        let mut b = MetricsRegistry::new();
        b.add("x", 2);
        b.add("y", 3);
        b.record("h", &[10], 50);
        b.set_gauge("g", -1);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 3);
        assert_eq!(a.gauge("g"), Some(-1));
        let h = a.histogram("h").expect("merged histogram");
        assert_eq!(h.count(), 2);
    }

    fn from_samples(samples: &[u64]) -> Histogram {
        let mut h = Histogram::new(TICK_BUCKETS);
        for &s in samples {
            h.record(s);
        }
        h
    }

    proptest! {
        /// `record`/`merge` is commutative: folding A into B equals
        /// folding B into A.
        #[test]
        fn histogram_merge_is_commutative(
            xs in proptest::collection::vec(0u64..1 << 28, 0..40),
            ys in proptest::collection::vec(0u64..1 << 28, 0..40),
        ) {
            let mut ab = from_samples(&xs);
            ab.merge(&from_samples(&ys));
            let mut ba = from_samples(&ys);
            ba.merge(&from_samples(&xs));
            prop_assert_eq!(ab, ba);
        }

        /// `merge` is associative: (A + B) + C equals A + (B + C).
        #[test]
        fn histogram_merge_is_associative(
            xs in proptest::collection::vec(0u64..1 << 28, 0..30),
            ys in proptest::collection::vec(0u64..1 << 28, 0..30),
            zs in proptest::collection::vec(0u64..1 << 28, 0..30),
        ) {
            let (a, b, c) = (from_samples(&xs), from_samples(&ys), from_samples(&zs));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        /// Merging is equivalent to recording the concatenated sample
        /// stream in any order.
        #[test]
        fn merge_equals_recording_everything(
            xs in proptest::collection::vec(0u64..1 << 28, 0..40),
            ys in proptest::collection::vec(0u64..1 << 28, 0..40),
        ) {
            let mut merged = from_samples(&xs);
            merged.merge(&from_samples(&ys));
            let mut all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
            all.reverse();
            prop_assert_eq!(merged, from_samples(&all));
        }
    }
}
