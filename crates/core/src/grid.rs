//! The `n × n` grid partitioning of the data space (paper Section 3.1).
//!
//! A [`Grid`] divides `[0,1)^d` into `n` half-open cells per dimension —
//! `n` is the paper's *partitions per dimension* (PPD) — for `n^d`
//! partitions in total. Partitions are indexed in **column-major** order
//! (dimension 0 varies fastest), matching the paper's Figure 2: in the 3×3
//! example the non-empty partitions {1,2,3,4,6} render as the bitstring
//! `011110100`.
//!
//! # Geometry and dominance
//!
//! A partition with per-dimension cell coordinates `c` covers
//! `[c_k·w, (c_k+1)·w)` on dimension `k`, where `w = 1/n`. Its *minimum
//! corner* is `c·w` and its *maximum corner* is `(c+1)·w`.
//!
//! * **Partition dominance** (Definition 2): `p ≺ q` iff `p.max ≺ q.min`.
//!   Because cells are half-open, this reduces to
//!   `p.c_k + 1 ≤ q.c_k` on every dimension — and then *every* tuple of `p`
//!   strictly dominates *every* tuple of `q` (Lemma 1) with no strictness
//!   side condition.
//! * **Dominating region** `DR(p)` (Definition 3): all `q` with
//!   `q.c ≥ p.c + 1` componentwise.
//! * **Anti-dominating region** `ADR(p)` (Definition 4): all `q ≠ p` with
//!   `q.c ≤ p.c` componentwise. A literal corner-point reading of
//!   Definition 4 (`q.min ≺ p.max`) would also admit partitions with some
//!   `q.c_k = p.c_k + 1` when another dimension block ties — but no tuple in
//!   such a `q` can dominate a tuple in `p`, because on dimension `k` every
//!   tuple of `q` is at least `p`'s cell upper bound. The componentwise-`≤`
//!   form is exactly the "may contain a dominating tuple" set and matches
//!   the paper's worked example (`ADR(p4) = {p0, p1, p3}` in Figure 2); a
//!   property test in this module verifies it against brute force over
//!   tuples.

use skymr_common::{Error, Result, Tuple};

/// An `n^d` grid over `[0,1)^d`. Cheap to copy; carries no per-partition
/// state (that lives in [`crate::Bitstring`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid {
    dim: usize,
    ppd: usize,
    num_partitions: usize,
}

impl Grid {
    /// Creates a grid with `ppd` cells per dimension over a `dim`-D space.
    ///
    /// Fails when `dim == 0`, `ppd == 0`, or `ppd^dim` overflows the
    /// addressable partition count.
    pub fn new(dim: usize, ppd: usize) -> Result<Self> {
        if dim == 0 {
            return Err(Error::InvalidDimension(dim));
        }
        if ppd == 0 {
            return Err(Error::InvalidConfig("PPD must be at least 1".into()));
        }
        let mut num = 1usize;
        for _ in 0..dim {
            num = num
                .checked_mul(ppd)
                .ok_or_else(|| Error::InvalidConfig(format!("{ppd}^{dim} partitions overflow")))?;
        }
        Ok(Self {
            dim,
            ppd,
            num_partitions: num,
        })
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Partitions per dimension `n`.
    #[inline]
    pub fn ppd(&self) -> usize {
        self.ppd
    }

    /// Total number of partitions `n^d`.
    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// The column-major index of the partition containing `t`.
    ///
    /// Values are clamped into the last cell defensively (the data-space
    /// invariant `v < 1` already guarantees `cell < n` for valid data).
    #[inline]
    pub fn partition_of(&self, t: &Tuple) -> usize {
        debug_assert_eq!(t.dim(), self.dim);
        let n = self.ppd;
        let mut index = 0usize;
        let mut stride = 1usize;
        for &v in t.values.iter() {
            let cell = ((v * n as f64) as usize).min(n - 1);
            index += cell * stride;
            stride *= n;
        }
        index
    }

    /// Writes the cell coordinates of partition `index` into `coords`.
    ///
    /// # Panics
    ///
    /// Panics if `coords.len() != d` or `index` is out of range.
    #[inline]
    pub fn coords_into(&self, index: usize, coords: &mut [usize]) {
        assert!(index < self.num_partitions, "partition index out of range");
        assert_eq!(coords.len(), self.dim);
        let mut rest = index;
        for c in coords.iter_mut() {
            *c = rest % self.ppd; // Grid::new rejects ppd == 0
            rest /= self.ppd;
        }
    }

    /// The cell coordinates of partition `index` (allocating convenience
    /// wrapper over [`Grid::coords_into`]).
    pub fn coords_of(&self, index: usize) -> Vec<usize> {
        let mut coords = vec![0; self.dim];
        self.coords_into(index, &mut coords);
        coords
    }

    /// The column-major index of the partition at `coords`.
    #[inline]
    pub fn index_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dim);
        let mut index = 0usize;
        let mut stride = 1usize;
        for &c in coords {
            debug_assert!(c < self.ppd);
            index += c * stride;
            stride *= self.ppd;
        }
        index
    }

    /// Partition dominance `p ≺ q` (Definition 2): true iff every tuple of
    /// `p` is guaranteed to dominate every tuple of `q` (Lemma 1).
    pub fn partition_dominates(&self, p: usize, q: usize) -> bool {
        let mut cp = vec![0; self.dim];
        let mut cq = vec![0; self.dim];
        self.coords_into(p, &mut cp);
        self.coords_into(q, &mut cq);
        cp.iter().zip(cq.iter()).all(|(&a, &b)| a < b)
    }

    /// `true` iff `q ∈ ADR(p)`: `q` may contain a tuple dominating a tuple
    /// of `p`.
    pub fn in_adr(&self, p: usize, q: usize) -> bool {
        if p == q {
            return false;
        }
        let mut cp = vec![0; self.dim];
        let mut cq = vec![0; self.dim];
        self.coords_into(p, &mut cp);
        self.coords_into(q, &mut cq);
        cq.iter().zip(cp.iter()).all(|(&b, &a)| b <= a)
    }

    /// Iterates over `ADR(p)` in increasing index order.
    pub fn adr(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        BoxIter::new(
            self,
            self.coords_of(p).into_iter().map(|c| (0, c)).collect(),
        )
        .filter(move |&q| q != p)
    }

    /// Iterates over `DR(p)` in increasing index order.
    pub fn dr(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        let coords = self.coords_of(p);
        let ranges: Vec<(usize, usize)> = coords
            .into_iter()
            .map(|c| (c + 1, self.ppd.saturating_sub(1)))
            .collect();
        BoxIter::new(self, ranges)
    }

    /// `|ADR(p)| = Π (c_k + 1) − 1` — the paper's `ρ_dom` (Equation 6),
    /// the number of partition-wise comparisons partition `p` requires.
    pub fn adr_size(&self, p: usize) -> u64 {
        let coords = self.coords_of(p);
        coords.iter().map(|&c| (c + 1) as u64).product::<u64>() - 1
    }
}

/// Odometer iterator over an axis-aligned box of cell coordinates,
/// `lo_k ..= hi_k` per dimension, yielding column-major indexes in
/// increasing order. Empty if any `lo_k > hi_k`.
struct BoxIter<'g> {
    grid: &'g Grid,
    ranges: Vec<(usize, usize)>,
    current: Vec<usize>,
    done: bool,
}

impl<'g> BoxIter<'g> {
    fn new(grid: &'g Grid, ranges: Vec<(usize, usize)>) -> Self {
        let done = ranges.iter().any(|&(lo, hi)| lo > hi || hi >= grid.ppd);
        let current = ranges.iter().map(|&(lo, _)| lo).collect();
        Self {
            grid,
            ranges,
            current,
            done,
        }
    }
}

impl Iterator for BoxIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        let index = self.grid.index_of(&self.current);
        // Advance the odometer, least-significant dimension first, so
        // produced indexes are strictly increasing (column-major order).
        let mut k = 0;
        loop {
            if k == self.current.len() {
                self.done = true;
                break;
            }
            if self.current[k] < self.ranges[k].1 {
                self.current[k] += 1;
                break;
            }
            self.current[k] = self.ranges[k].0;
            k += 1;
        }
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_common::dominance::dominates;

    fn grid3x3() -> Grid {
        Grid::new(2, 3).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Grid::new(0, 3).is_err());
        assert!(Grid::new(2, 0).is_err());
        assert!(Grid::new(64, 1024).is_err(), "overflow must be caught");
        let g = Grid::new(3, 4).unwrap();
        assert_eq!(g.num_partitions(), 64);
    }

    #[test]
    fn column_major_indexing_matches_figure2() {
        let g = grid3x3();
        // Figure 2: p4 is the center cell (coords (1,1)).
        assert_eq!(g.index_of(&[1, 1]), 4);
        assert_eq!(g.coords_of(4), vec![1, 1]);
        assert_eq!(g.index_of(&[0, 2]), 6);
        assert_eq!(g.coords_of(6), vec![0, 2]);
        assert_eq!(g.index_of(&[2, 0]), 2);
    }

    #[test]
    fn partition_of_locates_cells() {
        let g = grid3x3();
        assert_eq!(g.partition_of(&Tuple::new(0, vec![0.0, 0.0])), 0);
        assert_eq!(g.partition_of(&Tuple::new(0, vec![0.5, 0.5])), 4);
        assert_eq!(g.partition_of(&Tuple::new(0, vec![0.99, 0.99])), 8);
        // Cell boundaries belong to the upper cell (half-open cells).
        assert_eq!(g.partition_of(&Tuple::new(0, vec![1.0 / 3.0, 0.0])), 1);
    }

    #[test]
    fn roundtrip_index_coords() {
        let g = Grid::new(3, 4).unwrap();
        for i in 0..g.num_partitions() {
            assert_eq!(g.index_of(&g.coords_of(i)), i);
        }
    }

    #[test]
    fn figure2_dominating_region_of_center() {
        let g = grid3x3();
        // Paper: DR(p4) = {p8}.
        let dr: Vec<usize> = g.dr(4).collect();
        assert_eq!(dr, vec![8]);
        assert!(g.partition_dominates(4, 8));
        assert!(!g.partition_dominates(4, 5));
        assert!(!g.partition_dominates(4, 7));
        assert!(!g.partition_dominates(4, 4));
    }

    #[test]
    fn figure2_anti_dominating_region_of_center() {
        let g = grid3x3();
        // Paper: ADR(p4) = {p0, p1, p3}.
        let adr: Vec<usize> = g.adr(4).collect();
        assert_eq!(adr, vec![0, 1, 3]);
        assert!(g.in_adr(4, 0));
        assert!(g.in_adr(4, 3));
        assert!(!g.in_adr(4, 2), "p2 must not be in ADR(p4)");
        assert!(!g.in_adr(4, 4), "a partition is not in its own ADR");
        assert!(!g.in_adr(4, 8));
    }

    #[test]
    fn corner_partitions() {
        let g = grid3x3();
        // Origin partition: dominates everything with all coords >= 1.
        let dr0: Vec<usize> = g.dr(0).collect();
        assert_eq!(dr0, vec![4, 5, 7, 8]);
        assert_eq!(g.adr(0).count(), 0);
        // Far corner: every other partition is in its ADR; it dominates
        // nothing.
        assert_eq!(g.dr(8).count(), 0);
        assert_eq!(g.adr(8).count(), 8);
    }

    #[test]
    fn adr_size_matches_enumeration() {
        let g = Grid::new(3, 3).unwrap();
        for p in 0..g.num_partitions() {
            assert_eq!(
                g.adr_size(p),
                g.adr(p).count() as u64,
                "ADR size mismatch at {p}"
            );
        }
    }

    #[test]
    fn adr_size_formula_example() {
        // Section 6's running example: the partition with 1-based grid
        // coordinates (1,3) performs 1×3−1 = 2 partition-wise comparisons.
        let g = grid3x3();
        assert_eq!(g.adr_size(g.index_of(&[0, 2])), 2);
        assert_eq!(g.adr_size(0), 0);
        assert_eq!(g.adr_size(8), 8);
    }

    #[test]
    fn dr_iteration_order_is_increasing() {
        let g = Grid::new(3, 3).unwrap();
        for p in 0..g.num_partitions() {
            let dr: Vec<usize> = g.dr(p).collect();
            assert!(
                dr.windows(2).all(|w| w[0] < w[1]),
                "DR({p}) not sorted: {dr:?}"
            );
            let adr: Vec<usize> = g.adr(p).collect();
            assert!(
                adr.windows(2).all(|w| w[0] < w[1]),
                "ADR({p}) not sorted: {adr:?}"
            );
        }
    }

    #[test]
    fn dominance_lemma1_holds_for_sampled_tuples() {
        // If p ≺ q then any tuple of p dominates any tuple of q — sample
        // tuples at cell corners and centers.
        let g = Grid::new(2, 4).unwrap();
        let w = 0.25;
        let tuples_in = |idx: usize| {
            let c = g.coords_of(idx);
            vec![
                Tuple::new(0, vec![c[0] as f64 * w, c[1] as f64 * w]),
                Tuple::new(
                    1,
                    vec![c[0] as f64 * w + w / 2.0, c[1] as f64 * w + w / 2.0],
                ),
                Tuple::new(
                    2,
                    vec![c[0] as f64 * w + w * 0.99, c[1] as f64 * w + w * 0.99],
                ),
            ]
        };
        for p in 0..16 {
            for q in 0..16 {
                if g.partition_dominates(p, q) {
                    for tp in tuples_in(p) {
                        for tq in tuples_in(q) {
                            assert!(
                                dominates(&tp, &tq),
                                "Lemma 1 violated: p{p} ≺ p{q} but {tp:?} does not dominate {tq:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn adr_is_exactly_the_may_dominate_set() {
        // q ∈ ADR(p) iff there exist tuples tq ∈ q, tp ∈ p with tq ≺ tp.
        // For q ∉ ADR(p) ∪ {p}, even the best corner of q must fail to
        // dominate the worst corner of p.
        let g = Grid::new(2, 3).unwrap();
        let w = 1.0 / 3.0;
        for p in 0..9 {
            let cp = g.coords_of(p);
            for q in 0..9 {
                if q == p {
                    continue;
                }
                let cq = g.coords_of(q);
                let q_best = Tuple::new(0, vec![cq[0] as f64 * w, cq[1] as f64 * w]);
                let p_worst = Tuple::new(
                    1,
                    vec![(cp[0] + 1) as f64 * w - 1e-9, (cp[1] + 1) as f64 * w - 1e-9],
                );
                let possible = dominates(&q_best, &p_worst);
                assert_eq!(
                    g.in_adr(p, q),
                    possible,
                    "ADR mismatch: p={p} q={q} possible={possible}"
                );
            }
        }
    }

    #[test]
    fn one_dimensional_grid() {
        let g = Grid::new(1, 5).unwrap();
        assert_eq!(g.num_partitions(), 5);
        assert_eq!(g.partition_of(&Tuple::new(0, vec![0.41])), 2);
        assert!(g.partition_dominates(1, 3));
        assert!(!g.partition_dominates(1, 1));
        let adr: Vec<usize> = g.adr(3).collect();
        assert_eq!(adr, vec![0, 1, 2]);
        let dr: Vec<usize> = g.dr(2).collect();
        assert_eq!(dr, vec![3, 4]);
    }

    #[test]
    fn high_dimensional_grid_small_ppd() {
        let g = Grid::new(8, 2).unwrap();
        assert_eq!(g.num_partitions(), 256);
        // Origin dominates only the far corner (needs +1 on all dims).
        let dr: Vec<usize> = g.dr(0).collect();
        assert_eq!(dr, vec![255]);
        assert_eq!(g.adr(255).count(), 255);
    }

    #[test]
    fn ppd_one_has_single_partition() {
        let g = Grid::new(3, 1).unwrap();
        assert_eq!(g.num_partitions(), 1);
        assert_eq!(g.partition_of(&Tuple::new(0, vec![0.9, 0.1, 0.5])), 0);
        assert_eq!(g.adr(0).count(), 0);
        assert_eq!(g.dr(0).count(), 0);
    }
}
