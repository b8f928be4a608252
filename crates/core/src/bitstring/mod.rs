//! The bitstring representation of a grid partitioning (paper Section 3.2).
//!
//! A [`Bitstring`] pairs a [`Grid`] with a [`BitGrid`] whose bit `i` says
//! whether partition `p_i` is non-empty (Equation 1). After the MapReduce
//! generation job merges all local bitstrings, [`Bitstring::prune_dominated`]
//! clears every partition that lies in some non-empty partition's
//! dominating region (Equation 2), so dominated partitions — and all their
//! tuples — never reach the skyline computation.

pub mod job;
pub mod ppd;

use skymr_common::{BitGrid, Tuple};

use crate::grid::Grid;

/// A grid plus the non-empty/surviving flags of its partitions.
///
/// ```
/// use skymr::{Bitstring, Grid};
/// use skymr_common::Tuple;
///
/// // The paper's Figure 2: a 3×3 grid whose non-empty partitions
/// // {1,2,3,4,6} render as the column-major bitstring 011110100.
/// let grid = Grid::new(2, 3).unwrap();
/// let tuples = [
///     Tuple::new(0, vec![0.4, 0.1]),
///     Tuple::new(1, vec![0.8, 0.2]),
///     Tuple::new(2, vec![0.1, 0.5]),
///     Tuple::new(3, vec![0.5, 0.5]),
///     Tuple::new(4, vec![0.2, 0.9]),
/// ];
/// let bs = Bitstring::from_tuples(grid, &tuples);
/// let rendered: String = (0..9).map(|i| if bs.is_set(i) { '1' } else { '0' }).collect();
/// assert_eq!(rendered, "011110100");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitstring {
    grid: Grid,
    bits: BitGrid,
}

impl Bitstring {
    /// An all-zero bitstring for `grid`.
    pub fn empty(grid: Grid) -> Self {
        Self {
            bits: BitGrid::zeros(grid.num_partitions()),
            grid,
        }
    }

    /// Builds a local bitstring from a subset of tuples — the mapper of the
    /// bitstring-generation job (Algorithm 1).
    pub fn from_tuples<'a>(grid: Grid, tuples: impl IntoIterator<Item = &'a Tuple>) -> Self {
        let mut bs = Self::empty(grid);
        for t in tuples {
            bs.bits.set(grid.partition_of(t));
        }
        bs
    }

    /// Reconstructs a bitstring from its parts (used when the bit pattern
    /// travelled through the MapReduce shuffle detached from its grid).
    pub fn from_parts(grid: Grid, bits: BitGrid) -> Self {
        assert_eq!(
            bits.len(),
            grid.num_partitions(),
            "bit pattern does not fit grid"
        );
        Self { grid, bits }
    }

    /// The underlying grid.
    #[inline]
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The raw bit pattern.
    #[inline]
    pub fn bits(&self) -> &BitGrid {
        &self.bits
    }

    /// `true` iff partition `i` is flagged (non-empty, and — after pruning —
    /// not dominated).
    #[inline]
    pub fn is_set(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Number of flagged partitions (the paper's `ρ`).
    pub fn count_set(&self) -> usize {
        self.bits.count_ones()
    }

    /// Merges another local bitstring (bitwise OR — Algorithm 2, line 3).
    pub fn merge(&mut self, other: &Bitstring) {
        assert_eq!(
            self.grid, other.grid,
            "cannot merge bitstrings of different grids"
        );
        self.bits.or_assign(&other.bits);
    }

    /// Clears every partition dominated by some non-empty partition
    /// (Equation 2, Algorithm 2 lines 4–7).
    ///
    /// Runs in `O(n^d · d)` via a d-dimensional prefix-OR: partition `q` is
    /// dominated iff some non-empty `p` satisfies `p.c ≤ q.c − 1`
    /// componentwise, i.e. iff the prefix-OR of the non-empty flags is set
    /// at `q.c − (1,…,1)`. Equivalent to the naive
    /// [`Bitstring::prune_dominated_naive`] sweep (property-tested), which
    /// is `O(n^d · |DR|)`.
    pub fn prune_dominated(&mut self) {
        let n = self.grid.ppd();
        let d = self.grid.dim();
        let np = self.grid.num_partitions();
        if n < 2 {
            return; // No partition can dominate another.
        }
        // reach[c] := OR of non-empty over all p with p.c <= c.
        let mut reach: Vec<bool> = (0..np).map(|i| self.bits.get(i)).collect();
        let mut stride = 1usize;
        for _ in 0..d {
            for idx in 0..np {
                // Cell coordinate on this dimension: n >= 2 (early return
                // above) and stride >= 1, so the division cannot panic, and
                // a nonzero coordinate implies idx >= stride.
                let coord = (idx / stride) % n;
                if coord >= 1 {
                    reach[idx] |= reach[idx - stride];
                }
            }
            stride *= n;
        }
        // offset of (1,1,…,1) in column-major indexing.
        let mut one_offset = 0usize;
        let mut s = 1usize;
        for _ in 0..d {
            one_offset += s;
            s *= n;
        }
        let mut coords = vec![0usize; d];
        for q in 0..np {
            if !self.bits.get(q) {
                continue;
            }
            self.grid.coords_into(q, &mut coords);
            if coords.iter().all(|&c| c >= 1) {
                // Every coordinate >= 1 implies q >= one_offset, the offset
                // of (1,…,1).
                let dominated = reach[q - one_offset];
                if dominated {
                    self.bits.clear(q);
                }
            }
        }
    }

    /// Reference implementation of Equation 2: for every non-empty `p`,
    /// clear all of `DR(p)`. Quadratic; kept for testing and tiny grids.
    pub fn prune_dominated_naive(&mut self) {
        let non_empty: Vec<usize> = self.bits.iter_ones().collect();
        for &p in &non_empty {
            for q in self.grid.dr(p) {
                if self.bits.get(q) {
                    self.bits.clear(q);
                }
            }
        }
    }

    /// Iterates over flagged partition indexes in increasing order.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(d: usize, n: usize) -> Grid {
        Grid::new(d, n).unwrap()
    }

    #[test]
    fn from_tuples_flags_occupied_partitions() {
        let g = grid(2, 3);
        let tuples = vec![
            Tuple::new(0, vec![0.1, 0.1]),   // partition 0
            Tuple::new(1, vec![0.5, 0.5]),   // partition 4
            Tuple::new(2, vec![0.55, 0.45]), // partition 4 again
        ];
        let bs = Bitstring::from_tuples(g, &tuples);
        assert!(bs.is_set(0) && bs.is_set(4));
        assert_eq!(bs.count_set(), 2);
    }

    #[test]
    fn merge_is_bitwise_or() {
        let g = grid(2, 3);
        let mut a = Bitstring::from_tuples(g, &[Tuple::new(0, vec![0.1, 0.1])]);
        let b = Bitstring::from_tuples(g, &[Tuple::new(1, vec![0.9, 0.9])]);
        a.merge(&b);
        assert!(a.is_set(0) && a.is_set(8));
    }

    #[test]
    fn figure2_prune_example() {
        // Figure 2 / Section 6: with non-empty {p1,p2,p3,p4,p6} in the 3×3
        // grid, p4 (center) has DR {p8} — p8 is empty, so pruning keeps all
        // five partitions.
        let g = grid(2, 3);
        let mut bs = Bitstring::empty(g);
        for i in [1, 2, 3, 4, 6] {
            let mut b = bs.bits().clone();
            b.set(i);
            bs = Bitstring::from_parts(g, b);
        }
        let mut pruned = bs.clone();
        pruned.prune_dominated();
        assert_eq!(pruned, bs);
    }

    #[test]
    fn full_grid_prunes_to_origin_surfaces() {
        // Section 6: on a fully occupied 3×3 grid, pruning leaves the two
        // origin-side surfaces (5 partitions: p0,p1,p2,p3,p6 in the paper's
        // labeling); the inner 2×2 block {p4,p5,p7,p8} is dominated by p0.
        let g = grid(2, 3);
        let mut bits = BitGrid::zeros(9);
        for i in 0..9 {
            bits.set(i);
        }
        let mut bs = Bitstring::from_parts(g, bits);
        bs.prune_dominated();
        let survivors: Vec<usize> = bs.iter_set().collect();
        assert_eq!(survivors, vec![0, 1, 2, 3, 6]);
        assert_eq!(survivors.len() as u64, crate::cost::rho_rem(3, 2));
    }

    #[test]
    fn prune_fast_equals_naive_on_dense_grids() {
        for (d, n) in [(1, 5), (2, 4), (3, 3), (4, 2)] {
            let g = grid(d, n);
            // Deterministic pseudo-random occupancy.
            let mut bits = BitGrid::zeros(g.num_partitions());
            let mut state = 0x9e3779b97f4a7c15u64;
            for i in 0..g.num_partitions() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 62 != 0 {
                    bits.set(i);
                }
            }
            let mut fast = Bitstring::from_parts(g, bits.clone());
            let mut naive = Bitstring::from_parts(g, bits);
            fast.prune_dominated();
            naive.prune_dominated_naive();
            assert_eq!(fast, naive, "prune mismatch d={d} n={n}");
        }
    }

    #[test]
    fn prune_noop_on_single_cell_grid() {
        let g = grid(3, 1);
        let mut bs = Bitstring::from_tuples(g, &[Tuple::new(0, vec![0.5, 0.5, 0.5])]);
        bs.prune_dominated();
        assert_eq!(bs.count_set(), 1);
    }

    #[test]
    fn origin_partition_survives_and_dominates_interior() {
        let g = grid(2, 4);
        let tuples = vec![
            Tuple::new(0, vec![0.1, 0.1]),  // (0,0)
            Tuple::new(1, vec![0.6, 0.6]),  // (2,2) — dominated by (0,0)
            Tuple::new(2, vec![0.9, 0.05]), // (3,0) — same row block, survives
        ];
        let mut bs = Bitstring::from_tuples(g, &tuples);
        bs.prune_dominated();
        assert!(bs.is_set(g.index_of(&[0, 0])));
        assert!(
            !bs.is_set(g.index_of(&[2, 2])),
            "interior partition must be pruned"
        );
        assert!(
            bs.is_set(g.index_of(&[3, 0])),
            "same-block partitions cannot be pruned"
        );
    }

    #[test]
    fn pruning_is_idempotent() {
        let g = grid(3, 3);
        let tuples: Vec<Tuple> = (0..50)
            .map(|i| {
                let f = i as f64 / 50.0;
                Tuple::new(i, vec![f, (f * 7.0) % 1.0, (f * 13.0) % 1.0])
            })
            .collect();
        let mut bs = Bitstring::from_tuples(g, &tuples);
        bs.prune_dominated();
        let once = bs.clone();
        bs.prune_dominated();
        assert_eq!(bs, once);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_parts_validates_length() {
        let g = grid(2, 3);
        Bitstring::from_parts(g, BitGrid::zeros(8));
    }
}
