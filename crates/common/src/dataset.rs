//! Datasets: a homogeneous collection of tuples plus split helpers.

use crate::error::{Error, Result};
use crate::tuple::Tuple;

/// A set `R` of `d`-dimensional tuples.
///
/// The MapReduce drivers split a dataset into `m` disjoint subsets
/// `R_1, …, R_m` — one per mapper — exactly as the paper's Figure 3 and
/// Figure 4 describe. Splitting is round-robin by position so that every
/// split sees a representative sample of the input (Hadoop's block splits of
/// a randomly ordered file have the same property).
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    tuples: Vec<Tuple>,
}

impl Dataset {
    /// Creates a dataset after validating that every tuple has dimensionality
    /// `dim` and values within `[0,1)`.
    pub fn new(dim: usize, tuples: Vec<Tuple>) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidDimension(dim));
        }
        for t in &tuples {
            if t.dim() != dim {
                return Err(Error::DimensionMismatch {
                    expected: dim,
                    got: t.dim(),
                    tuple_id: t.id,
                });
            }
            if t.values
                .iter()
                .any(|v| !(0.0..1.0).contains(v) || v.is_nan())
            {
                return Err(Error::ValueOutOfRange { tuple_id: t.id });
            }
        }
        Ok(Self { dim, tuples })
    }

    /// Creates a dataset without validation. Intended for generators that
    /// guarantee the invariants by construction.
    pub fn new_unchecked(dim: usize, tuples: Vec<Tuple>) -> Self {
        debug_assert!(tuples.iter().all(|t| t.dim() == dim));
        Self { dim, tuples }
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Cardinality `c = |R|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` iff the dataset holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Borrows the tuples.
    #[inline]
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consumes the dataset, returning its tuples.
    pub fn into_tuples(self) -> Vec<Tuple> {
        self.tuples
    }

    /// Subset `i` of the round-robin split into `m`: tuples `i`, `i + m`,
    /// `i + 2m`, … — the one assignment rule behind [`Self::split`] and
    /// behind jobs that load split `i` only while a map attempt runs it.
    /// The iterator knows its length, so a split's size costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn split_part(&self, i: usize, m: usize) -> impl ExactSizeIterator<Item = &Tuple> {
        assert!(m > 0, "cannot split into zero subsets");
        self.tuples.iter().skip(i).step_by(m)
    }

    /// Splits the dataset into `m` disjoint subsets by round-robin
    /// assignment. Subsets differ in size by at most one tuple.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn split(&self, m: usize) -> Vec<Vec<Tuple>> {
        assert!(m > 0, "cannot split into zero subsets");
        // One pass in dataset order, not `m` strided `split_part` passes
        // (measured 1.7× slower on 1M × 3-d, m = 13); `split_part` sizes
        // the subsets, and a test pins that both assign alike.
        let sized = |i| Vec::with_capacity(self.split_part(i, m).len());
        let mut splits: Vec<Vec<Tuple>> = (0..m).map(sized).collect();
        for (i, t) in self.tuples.iter().enumerate() {
            splits[i % m].push(t.clone()); // i % m < m == splits.len(), m > 0 asserted above
        }
        splits
    }

    /// Returns the ids of all tuples, sorted — the canonical form used to
    /// compare skyline results across algorithms.
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.tuples.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Projects the dataset onto a subset of dimensions (*subspace*
    /// skyline queries run any algorithm on the projection; tuple ids are
    /// preserved so answers join back to the full tuples).
    ///
    /// ```
    /// use skymr_common::{Dataset, Tuple};
    ///
    /// let ds = Dataset::new(3, vec![Tuple::new(7, vec![0.1, 0.5, 0.9])]).unwrap();
    /// let sub = ds.project(&[2, 0]).unwrap();
    /// assert_eq!(sub.dim(), 2);
    /// assert_eq!(&sub.tuples()[0].values[..], &[0.9, 0.1]);
    /// assert_eq!(sub.tuples()[0].id, 7);
    /// ```
    ///
    /// # Errors
    ///
    /// Fails when `dims` is empty, repeats a dimension, or references a
    /// dimension the dataset does not have.
    pub fn project(&self, dims: &[usize]) -> Result<Self> {
        if dims.is_empty() {
            return Err(Error::InvalidDimension(0));
        }
        let mut seen = vec![false; self.dim];
        for &d in dims {
            if d >= self.dim {
                return Err(Error::InvalidConfig(format!(
                    "projection dimension {d} out of range 0..{}",
                    self.dim
                )));
            }
            if seen[d] {
                return Err(Error::InvalidConfig(format!(
                    "projection repeats dimension {d}"
                )));
            }
            seen[d] = true;
        }
        let tuples = self
            .tuples
            .iter()
            .map(|t| {
                Tuple::new(
                    t.id,
                    dims.iter().map(|&d| t.values[d]).collect::<Vec<f64>>(),
                )
            })
            .collect();
        Ok(Self {
            dim: dims.len(),
            tuples,
        })
    }
}

/// Sorts a skyline (or any tuple list) by id — canonical order for result
/// comparison across algorithms and runs.
pub fn canonicalize(mut tuples: Vec<Tuple>) -> Vec<Tuple> {
    tuples.sort_by_key(|t| t.id);
    tuples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(n: usize, d: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(i as u64, vec![(i as f64 / n as f64).min(0.999); d]))
            .collect()
    }

    #[test]
    fn new_validates_dimensions() {
        let mut ts = tuples(3, 2);
        ts.push(Tuple::new(99, vec![0.1, 0.2, 0.3]));
        let err = Dataset::new(2, ts).unwrap_err();
        assert!(matches!(err, Error::DimensionMismatch { tuple_id: 99, .. }));
    }

    #[test]
    fn new_rejects_out_of_range_values() {
        let ts = vec![Tuple::new(0, vec![1.0, 0.5])];
        assert!(matches!(
            Dataset::new(2, ts).unwrap_err(),
            Error::ValueOutOfRange { tuple_id: 0 }
        ));
        let ts = vec![Tuple::new(1, vec![-0.1, 0.5])];
        assert!(Dataset::new(2, ts).is_err());
        let ts = vec![Tuple::new(2, vec![f64::NAN, 0.5])];
        assert!(Dataset::new(2, ts).is_err());
    }

    #[test]
    fn new_rejects_zero_dimension() {
        assert!(matches!(
            Dataset::new(0, vec![]).unwrap_err(),
            Error::InvalidDimension(0)
        ));
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let ds = Dataset::new(3, tuples(10, 3)).unwrap();
        let splits = ds.split(3);
        assert_eq!(splits.len(), 3);
        assert_eq!(splits.iter().map(Vec::len).sum::<usize>(), 10);
        assert_eq!(splits[0].len(), 4);
        assert_eq!(splits[1].len(), 3);
        let mut all: Vec<u64> = splits.iter().flatten().map(|t| t.id).collect();
        all.sort_unstable();
        assert_eq!(all, ds.sorted_ids());
    }

    #[test]
    fn split_part_is_the_rule_split_follows() {
        for (n, m) in [(0, 3), (1, 1), (2, 5), (10, 3), (13, 13), (40, 7)] {
            let ds = Dataset::new(2, tuples(n, 2)).unwrap();
            let splits = ds.split(m);
            assert_eq!(splits.len(), m);
            for (i, split) in splits.iter().enumerate() {
                let part = ds.split_part(i, m);
                assert_eq!(part.len(), split.len(), "n={n} m={m} part {i}");
                assert!(part.eq(split.iter()), "n={n} m={m} part {i}");
                assert_eq!(split.capacity(), split.len(), "sized exactly");
            }
        }
    }

    #[test]
    fn split_handles_more_splits_than_tuples() {
        let ds = Dataset::new(2, tuples(2, 2)).unwrap();
        let splits = ds.split(5);
        assert_eq!(splits.len(), 5);
        assert_eq!(splits.iter().filter(|s| s.is_empty()).count(), 3);
    }

    #[test]
    fn project_selects_and_reorders_dimensions() {
        let ds = Dataset::new(3, tuples(5, 3)).unwrap();
        let sub = ds.project(&[1]).unwrap();
        assert_eq!(sub.dim(), 1);
        assert_eq!(sub.len(), 5);
        assert_eq!(sub.sorted_ids(), ds.sorted_ids());
        let swapped = ds.project(&[2, 1, 0]).unwrap();
        assert_eq!(swapped.dim(), 3);
    }

    #[test]
    fn project_validates_dimensions() {
        let ds = Dataset::new(2, tuples(3, 2)).unwrap();
        assert!(ds.project(&[]).is_err());
        assert!(ds.project(&[2]).is_err());
        assert!(ds.project(&[0, 0]).is_err());
    }

    #[test]
    fn canonicalize_sorts_by_id() {
        let out = canonicalize(vec![Tuple::new(5, vec![0.1]), Tuple::new(2, vec![0.2])]);
        assert_eq!(out.iter().map(|t| t.id).collect::<Vec<_>>(), vec![2, 5]);
    }
}
