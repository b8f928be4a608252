//! Named counters shared by tasks of a MapReduce job.
//!
//! Hadoop exposes job counters; the engine mirrors that so the cost-model
//! validation (paper Section 7.5) can record how many partition-wise and
//! tuple-wise dominance comparisons each mapper and reducer executed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// One named counter: its value, and whether it aggregates as a maximum
/// ([`Counters::record_max`]) rather than a sum.
#[derive(Debug)]
struct Slot {
    value: Arc<AtomicU64>,
    max: bool,
}

/// A set of named monotonically increasing counters.
///
/// Counter handles are cheap `Arc<AtomicU64>` clones; taking a handle once
/// and bumping it in a hot loop avoids the map lookup per increment.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    inner: Arc<Mutex<BTreeMap<String, Slot>>>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, name: &str, max: bool) -> Arc<AtomicU64> {
        let mut map = self.inner.lock();
        if !map.contains_key(name) {
            let value = Arc::new(AtomicU64::new(0));
            map.insert(name.to_owned(), Slot { value, max });
        }
        let slot = map.get_mut(name).expect("present or just inserted");
        slot.max |= max;
        Arc::clone(&slot.value)
    }

    /// Returns the counter named `name`, creating it at zero if absent.
    pub fn handle(&self, name: &str) -> Arc<AtomicU64> {
        self.slot(name, false)
    }

    /// Adds `delta` to the counter named `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.handle(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Records `value` into the counter named `name` if it exceeds the
    /// current value — a max-aggregation used for "busiest task" metrics
    /// (Figure 11 reports the mapper/reducer with the most comparisons).
    pub fn record_max(&self, name: &str, value: u64) {
        self.slot(name, true).fetch_max(value, Ordering::Relaxed);
    }

    /// Folds `other` into `self`: sums add, maxima ([`Self::record_max`])
    /// take the larger. This is how the engine commits one task attempt's
    /// counters to its job's — once, for the attempt whose output counts.
    pub fn absorb(&self, other: &Counters) {
        let read = |(name, slot): (&String, &Slot)| {
            (name.clone(), slot.value.load(Ordering::Relaxed), slot.max)
        };
        let entries: Vec<(String, u64, bool)> = other.inner.lock().iter().map(read).collect();
        for (name, value, max) in entries {
            if max {
                self.record_max(&name, value);
            } else {
                self.add(&name, value);
            }
        }
    }

    /// Current value of the counter named `name` (0 if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        let map = self.inner.lock();
        map.get(name).map_or(0, |c| c.value.load(Ordering::Relaxed))
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        let map = self.inner.lock();
        map.iter()
            .map(|(k, v)| (k.clone(), v.value.load(Ordering::Relaxed)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero() {
        let c = Counters::new();
        assert_eq!(c.get("anything"), 0);
    }

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        c.add("x", 3);
        c.add("x", 4);
        c.add("y", 1);
        assert_eq!(c.get("x"), 7);
        assert_eq!(c.get("y"), 1);
    }

    #[test]
    fn handle_is_stable() {
        let c = Counters::new();
        let h1 = c.handle("h");
        let h2 = c.handle("h");
        h1.fetch_add(2, Ordering::Relaxed);
        assert_eq!(h2.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn record_max_keeps_largest() {
        let c = Counters::new();
        c.record_max("m", 5);
        c.record_max("m", 3);
        c.record_max("m", 9);
        assert_eq!(c.get("m"), 9);
    }

    #[test]
    fn absorb_sums_counts_and_maxes_maxima() {
        let job = Counters::new();
        for (cmps, busiest) in [(5, 5), (3, 3)] {
            let attempt = Counters::new();
            attempt.add("cmps", cmps);
            attempt.record_max("cmps.max", busiest);
            job.absorb(&attempt);
        }
        assert_eq!((job.get("cmps"), job.get("cmps.max")), (8, 5));
        // The max marker travels: a job folded into a pipeline keeps it.
        let pipeline = Counters::new();
        pipeline.record_max("cmps.max", 4);
        pipeline.absorb(&job);
        assert_eq!(pipeline.get("cmps.max"), 5);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let c = Counters::new();
        c.add("b", 2);
        c.add("a", 1);
        let snap = c.snapshot();
        let keys: Vec<&String> = snap.keys().collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn clones_share_state() {
        let c = Counters::new();
        let c2 = c.clone();
        c.add("shared", 1);
        c2.add("shared", 2);
        assert_eq!(c.get("shared"), 3);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let c = Counters::new();
        let h = c.handle("hot");
        #[expect(
            clippy::disallowed_methods,
            reason = "skymr_common sits below the pool; this test needs raw contention on one handle"
        )]
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(c.get("hot"), 4000);
    }
}
