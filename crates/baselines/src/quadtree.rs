//! The sky-quadtree substrate for SKY-MR (Park, Min, Shim — PVLDB 2013).
//!
//! A *sky-quadtree* is a quadtree built over a small random **sample** of
//! the dataset: each node covers an axis-aligned box and splits at its
//! midpoint into `2^d` children until a leaf holds at most `split_threshold`
//! sample tuples. After building, leaves wholly dominated by a sample
//! skyline tuple are marked *pruned* — any real tuple falling there is
//! dominated by that sample tuple and can be discarded by the mappers
//! before any comparison, the same early-pruning idea as the paper's
//! bitstring but driven by a sample instead of a full pre-job.
//!
//! Leaves play the role the grid partitions play for MR-GPMRS: each
//! surviving leaf is a unit of reducer parallelism, and a leaf's
//! *anti-dominating* leaves (those whose region may contain dominators)
//! determine which candidate tuples must be replicated to finalize it.

use skymr_common::dominance::dominates;
use skymr_common::Tuple;

/// Maximum tree depth; beyond this, leaves simply keep their samples
/// (guards against degenerate duplicate-heavy samples).
const MAX_DEPTH: usize = 12;

/// One node of the sky-quadtree.
#[derive(Debug, Clone)]
struct Node {
    /// Lower corner of the region.
    lo: Vec<f64>,
    /// Upper corner of the region (exclusive).
    hi: Vec<f64>,
    /// Child node indexes (`2^d` of them) or empty for a leaf.
    children: Vec<usize>,
    /// For leaves: the stable leaf id; `usize::MAX` for internal nodes.
    leaf_id: usize,
    /// For leaves: whether the whole region is dominated by a sample
    /// skyline tuple.
    pruned: bool,
}

/// A sky-quadtree over `[0,1)^d`.
#[derive(Debug, Clone)]
pub struct SkyQuadtree {
    dim: usize,
    nodes: Vec<Node>,
    /// Leaf-id → node index.
    leaves: Vec<usize>,
}

impl SkyQuadtree {
    /// Builds the tree from a sample: split until ≤ `split_threshold`
    /// sample tuples per leaf, then prune leaves dominated by the sample's
    /// skyline.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `split_threshold == 0`.
    pub fn build(dim: usize, sample: &[Tuple], split_threshold: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(split_threshold > 0, "split threshold must be positive");
        let mut tree = Self {
            dim,
            nodes: Vec::new(),
            leaves: Vec::new(),
        };
        let root_items: Vec<&Tuple> = sample.iter().collect();
        tree.subdivide(
            vec![0.0; dim],
            vec![1.0; dim],
            &root_items,
            split_threshold,
            0,
        );
        // Prune leaves dominated by the sample skyline: a leaf is pruned
        // iff some sample skyline tuple dominates its lower corner (then
        // every point of the region is dominated).
        let sample_skyline: Vec<&Tuple> = sample
            .iter()
            .filter(|t| !sample.iter().any(|o| dominates(o, t)))
            .collect();
        for &node_idx in &tree.leaves {
            let corner = Tuple::new(u64::MAX, tree.nodes[node_idx].lo.clone());
            if sample_skyline.iter().any(|s| dominates(s, &corner)) {
                tree.nodes[node_idx].pruned = true;
            }
        }
        tree
    }

    fn subdivide(
        &mut self,
        lo: Vec<f64>,
        hi: Vec<f64>,
        items: &[&Tuple],
        split_threshold: usize,
        depth: usize,
    ) -> usize {
        let node_idx = self.nodes.len();
        self.nodes.push(Node {
            lo: lo.clone(),
            hi: hi.clone(),
            children: Vec::new(),
            leaf_id: usize::MAX,
            pruned: false,
        });
        if items.len() <= split_threshold || depth >= MAX_DEPTH {
            let leaf_id = self.leaves.len();
            self.nodes[node_idx].leaf_id = leaf_id;
            self.leaves.push(node_idx);
            return node_idx;
        }
        let mid: Vec<f64> = lo
            .iter()
            .zip(hi.iter())
            .map(|(&a, &b)| (a + b) / 2.0)
            .collect();
        let mut buckets: Vec<Vec<&Tuple>> = vec![Vec::new(); 1 << self.dim];
        for &t in items {
            let mut code = 0usize;
            for (k, (&v, &m)) in t.values.iter().zip(mid.iter()).enumerate() {
                if v >= m {
                    code |= 1 << k;
                }
            }
            buckets[code].push(t);
        }
        let mut children = Vec::with_capacity(1 << self.dim);
        for (code, bucket) in buckets.iter().enumerate() {
            let mut clo = lo.clone();
            let mut chi = hi.clone();
            for k in 0..self.dim {
                if code & (1 << k) != 0 {
                    clo[k] = mid[k];
                } else {
                    chi[k] = mid[k];
                }
            }
            children.push(self.subdivide(clo, chi, bucket, split_threshold, depth + 1));
        }
        self.nodes[node_idx].children = children;
        node_idx
    }

    /// Dimensionality of the tree's space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of leaves (pruned and surviving).
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Number of leaves that survived sample-skyline pruning.
    pub fn surviving_leaves(&self) -> usize {
        self.leaves
            .iter()
            .filter(|&&n| !self.nodes[n].pruned)
            .count()
    }

    /// The leaf id containing `t`, or `None` if the leaf is pruned (the
    /// tuple is provably dominated and can be discarded).
    pub fn locate(&self, t: &Tuple) -> Option<usize> {
        debug_assert_eq!(t.dim(), self.dim);
        let mut node = 0usize;
        loop {
            let n = &self.nodes[node];
            if n.children.is_empty() {
                return if n.pruned { None } else { Some(n.leaf_id) };
            }
            let mut code = 0usize;
            for k in 0..self.dim {
                let mid = (n.lo[k] + n.hi[k]) / 2.0;
                if t.values[k] >= mid {
                    code |= 1 << k;
                }
            }
            node = n.children[code];
        }
    }

    /// `true` iff leaf `a`'s region may contain a tuple dominating a tuple
    /// of leaf `b`'s region: `a.lo` must dominate-or-equal `b.hi` on no
    /// dimension reversed — i.e. `a.lo < b.hi` on every dimension and the
    /// two leaves differ.
    pub fn leaf_may_dominate(&self, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        let na = &self.nodes[self.leaves[a]];
        let nb = &self.nodes[self.leaves[b]];
        na.lo.iter().zip(nb.hi.iter()).all(|(&alo, &bhi)| alo < bhi)
    }

    /// The anti-dominating leaf set of leaf `b`: every surviving leaf that
    /// may contain dominators of `b`'s tuples.
    pub fn adr_leaves(&self, b: usize) -> Vec<usize> {
        (0..self.leaves.len())
            .filter(|&a| !self.nodes[self.leaves[a]].pruned && self.leaf_may_dominate(a, b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_datagen::{generate, Distribution};

    fn sample(dist: Distribution, dim: usize, n: usize) -> Vec<Tuple> {
        generate(dist, dim, n, 99).into_tuples()
    }

    #[test]
    fn single_leaf_for_tiny_samples() {
        let tree = SkyQuadtree::build(2, &sample(Distribution::Independent, 2, 3), 10);
        assert_eq!(tree.num_leaves(), 1);
        assert_eq!(tree.surviving_leaves(), 1);
    }

    #[test]
    fn splits_until_threshold() {
        let s = sample(Distribution::Independent, 2, 200);
        let tree = SkyQuadtree::build(2, &s, 10);
        assert!(
            tree.num_leaves() > 4,
            "200 samples at threshold 10 must split"
        );
    }

    #[test]
    fn locate_is_total_over_surviving_space() {
        let s = sample(Distribution::Independent, 3, 150);
        let tree = SkyQuadtree::build(3, &s, 8);
        let data = generate(Distribution::Independent, 3, 1_000, 7);
        for t in data.tuples() {
            if let Some(leaf) = tree.locate(t) {
                assert!(leaf < tree.num_leaves());
            }
        }
    }

    #[test]
    fn pruned_leaves_only_contain_dominated_tuples() {
        let s = sample(Distribution::Independent, 2, 300);
        let tree = SkyQuadtree::build(2, &s, 8);
        let sample_skyline: Vec<&Tuple> = s
            .iter()
            .filter(|t| !s.iter().any(|o| dominates(o, t)))
            .collect();
        let data = generate(Distribution::Independent, 2, 2_000, 13);
        for t in data.tuples() {
            if tree.locate(t).is_none() {
                assert!(
                    sample_skyline.iter().any(|sky| dominates(sky, t)),
                    "tuple {t:?} discarded by a pruned leaf but not dominated by the sample"
                );
            }
        }
    }

    #[test]
    fn prunes_something_on_clustered_far_data() {
        // A sample with an origin point and mass in the far corner must
        // prune the far leaves.
        let mut s = vec![Tuple::new(0, vec![0.01, 0.01])];
        for i in 1..200u64 {
            let f = 0.7 + ((i * 7) % 29) as f64 / 100.0;
            s.push(Tuple::new(i, vec![f, f]));
        }
        let tree = SkyQuadtree::build(2, &s, 8);
        assert!(
            tree.surviving_leaves() < tree.num_leaves(),
            "no leaf pruned despite an origin dominator"
        );
    }

    #[test]
    fn leaf_dominance_is_irreflexive_and_geometric() {
        let s = sample(Distribution::Independent, 2, 300);
        let tree = SkyQuadtree::build(2, &s, 8);
        for b in 0..tree.num_leaves() {
            assert!(!tree.leaf_may_dominate(b, b));
        }
        // The leaf containing the origin may dominate every other leaf.
        let origin_leaf = tree.locate(&Tuple::new(0, vec![1e-6, 1e-6]));
        if let Some(a) = origin_leaf {
            for b in 0..tree.num_leaves() {
                if a != b {
                    assert!(
                        tree.leaf_may_dominate(a, b),
                        "origin leaf must threaten every leaf"
                    );
                }
            }
        }
    }

    #[test]
    fn adr_leaves_cover_actual_dominators() {
        // If a tuple in leaf A dominates a tuple in leaf B, then A must be
        // in B's ADR leaf set.
        let s = sample(Distribution::Anticorrelated, 2, 200);
        let tree = SkyQuadtree::build(2, &s, 8);
        let data = generate(Distribution::Anticorrelated, 2, 800, 17);
        let located: Vec<(usize, &Tuple)> = data
            .tuples()
            .iter()
            .filter_map(|t| tree.locate(t).map(|l| (l, t)))
            .collect();
        for &(la, ta) in &located {
            for &(lb, tb) in &located {
                if la != lb && dominates(ta, tb) {
                    assert!(
                        tree.adr_leaves(lb).contains(&la),
                        "dominator leaf {la} missing from ADR({lb})"
                    );
                }
            }
        }
    }

    #[test]
    fn duplicate_heavy_sample_terminates() {
        let s: Vec<Tuple> = (0..500).map(|i| Tuple::new(i, vec![0.3, 0.7])).collect();
        let tree = SkyQuadtree::build(2, &s, 4);
        assert!(tree.num_leaves() >= 1);
        assert!(tree.locate(&Tuple::new(0, vec![0.3, 0.7])).is_some());
    }
}
