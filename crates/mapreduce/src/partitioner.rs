//! Routing of intermediate keys to reducers.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Decides which reducer receives a given intermediate key.
pub trait Partitioner<K>: Sync {
    /// Returns the reducer index for `key`; must lie in `0..num_reducers`.
    fn partition(&self, key: &K, num_reducers: usize) -> usize;
}

/// Hadoop's default: `hash(key) mod r`.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, num_reducers: usize) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % num_reducers as u64) as usize // invariant: run_job asserts num_reducers > 0 before any partition call
    }
}

/// Routes everything to reducer 0 — the single-reducer topology used by the
/// bitstring-generation job, MR-GPSRS, MR-BNL, and MR-Angle.
#[derive(Debug, Default, Clone, Copy)]
pub struct SingleReducerPartitioner;

impl<K> Partitioner<K> for SingleReducerPartitioner {
    fn partition(&self, _key: &K, num_reducers: usize) -> usize {
        debug_assert_eq!(
            num_reducers, 1,
            "SingleReducerPartitioner expects one reducer"
        );
        0
    }
}

/// Routes an integer key `k` to reducer `k mod r` — the round-robin group
/// distribution of MR-GPMRS (paper Algorithm 8 line 18: `Output(i % r + 1, …)`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ModuloPartitioner;

macro_rules! impl_modulo {
    ($($t:ty),*) => {
        $(impl Partitioner<$t> for ModuloPartitioner {
            fn partition(&self, key: &$t, num_reducers: usize) -> usize {
                (*key as usize) % num_reducers
            }
        })*
    };
}

impl_modulo!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let p = HashPartitioner;
        for k in 0u64..100 {
            let r = p.partition(&k, 7);
            assert!(r < 7);
            assert_eq!(r, p.partition(&k, 7));
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = HashPartitioner;
        let mut seen = std::collections::BTreeSet::new();
        for k in 0u64..64 {
            seen.insert(p.partition(&k, 8));
        }
        assert!(seen.len() > 1, "all keys routed to one reducer");
    }

    #[test]
    fn single_reducer_partitioner_always_zero() {
        let p = SingleReducerPartitioner;
        assert_eq!(Partitioner::<u32>::partition(&p, &99, 1), 0);
    }

    #[test]
    fn modulo_partitioner_wraps() {
        let p = ModuloPartitioner;
        assert_eq!(p.partition(&0u32, 4), 0);
        assert_eq!(p.partition(&5u32, 4), 1);
        assert_eq!(p.partition(&7u32, 4), 3);
    }
}
