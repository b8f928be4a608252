//! Tuple dominance (paper Definition 1).
//!
//! Tuple `ri` dominates `rj` (`ri ≺ rj`) iff `ri` is not worse than `rj` on
//! every dimension and strictly better on at least one. Smaller is better.
//!
//! # Tuple-level ADR test
//!
//! The paper decides most dominance questions from cell coordinates alone:
//! `q` can hold a dominator of `p` only if `q.c ≤ p.c` componentwise
//! (Definition 4). [`CellQuantizer`] applies the same test per tuple pair
//! on a fine virtual grid: a tuple's cell coordinates are packed into one
//! `u64` *signature*, and `a ≺ b` implies `sig(a) ≤ sig(b)` field by field
//! because quantisation is monotone. A failed signature test therefore
//! *proves* "cannot dominate"; a pair that passes still goes through
//! [`dominates`] / [`compare`]. [`Window`] keeps the signatures in a dense
//! array beside its tuples, so a dominance scan touches tuple memory only
//! for the pairs the signatures cannot rule out. The filter is sound for
//! every non-NaN `f64` (values outside `[0,1)` clamp monotonically, `±∞`
//! saturate); NaN has no place in a dominance order and stays outside the
//! domain, as everywhere else in the workspace (`Dataset::new` rejects it).

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::tuple::Tuple;

/// Outcome of comparing two tuples for dominance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomOrdering {
    /// The left tuple dominates the right one (`a ≺ b`).
    Dominates,
    /// The left tuple is dominated by the right one (`b ≺ a`).
    DominatedBy,
    /// Neither dominates the other (including equal value vectors).
    Incomparable,
}

/// Returns `true` iff `a ≺ b` (Definition 1): `a` is ≤ `b` on all dimensions
/// and < on at least one.
///
/// ```
/// use skymr_common::{dominance::dominates, Tuple};
///
/// let cheap_near = Tuple::new(0, vec![0.2, 0.1]);
/// let pricey_far = Tuple::new(1, vec![0.8, 0.9]);
/// let pricey_near = Tuple::new(2, vec![0.8, 0.1]);
/// assert!(dominates(&cheap_near, &pricey_far));
/// assert!(dominates(&cheap_near, &pricey_near)); // ties on one dimension still dominate
/// assert!(!dominates(&pricey_near, &cheap_near));
/// ```
///
/// # Panics
///
/// Debug-asserts that the tuples share the same dimensionality.
#[inline]
pub fn dominates(a: &Tuple, b: &Tuple) -> bool {
    debug_assert_eq!(a.dim(), b.dim(), "dominance requires equal dimensionality");
    let mut strictly_better = false;
    for (&av, &bv) in a.values.iter().zip(b.values.iter()) {
        if av > bv {
            return false;
        }
        if av < bv {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Performs a single pass that classifies the pair in both directions.
///
/// One joint pass is what the BNL window check needs (paper Algorithm 4
/// tests both `t' ≺ t` and `t ≺ t'`); it costs roughly half of two separate
/// [`dominates`] calls.
#[inline]
pub fn compare(a: &Tuple, b: &Tuple) -> DomOrdering {
    debug_assert_eq!(a.dim(), b.dim(), "dominance requires equal dimensionality");
    let mut a_better = false;
    let mut b_better = false;
    for (&av, &bv) in a.values.iter().zip(b.values.iter()) {
        if av < bv {
            a_better = true;
        } else if bv < av {
            b_better = true;
        }
        if a_better && b_better {
            return DomOrdering::Incomparable;
        }
    }
    match (a_better, b_better) {
        (true, false) => DomOrdering::Dominates,
        (false, true) => DomOrdering::DominatedBy,
        _ => DomOrdering::Incomparable,
    }
}

/// Quantiser for the tuple-level ADR test: maps a `d`-dimensional point to
/// its cell on a `2^b`-per-dimension grid and packs the `d` cell
/// coordinates into one `u64`, `64/d` bits per field — `b = 64/d − 1`
/// coordinate bits below one always-clear *guard* bit.
///
/// The guard bits make "every field of `a` ≤ the same field of `b`" one
/// subtraction ([`CellQuantizer::le`]). For `d > 32` there is no room for
/// a coordinate bit: every signature is 0 and the test always passes.
///
/// ```
/// use skymr_common::dominance::CellQuantizer;
///
/// let q = CellQuantizer::new(2);
/// let a = q.signature(&[0.2, 0.1]);
/// let b = q.signature(&[0.8, 0.9]);
/// let c = q.signature(&[0.9, 0.0]);
/// assert!(q.le(a, b)); // (0.2, 0.1) may dominate (0.8, 0.9) — ask `dominates`
/// assert!(!q.le(b, a)); // the reverse is ruled out without touching the tuples
/// assert!(!q.le(a, c) && !q.le(c, a)); // incomparable: two integer tests
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CellQuantizer {
    /// Bits per field, guard bit included.
    width: u32,
    /// `2^b`: a value's cell coordinate is `floor(v · 2^b)`, clamped.
    scale: f64,
    /// The highest cell coordinate, `2^b − 1`.
    max_level: u64,
    /// The guard bit of every field; 0 when the filter is disabled.
    guard: u64,
}

impl CellQuantizer {
    /// The quantiser for `dim`-dimensional points. `dim == 0` and
    /// `dim > 32` give the disabled filter (all signatures 0).
    pub fn new(dim: usize) -> Self {
        let dims = u32::try_from(dim).unwrap_or(0);
        let width = u64::BITS.checked_div(dims).unwrap_or(0);
        if width < 2 {
            return Self::default();
        }
        let bits = width - 1;
        let mut guard = 0u64;
        for k in 0..dims {
            guard |= 1 << (k * width + bits);
        }
        Self {
            width,
            scale: (1u64 << bits) as f64,
            max_level: (1 << bits) - 1,
            guard,
        }
    }

    /// The highest cell coordinate a field can hold (`2^b − 1`).
    #[inline]
    pub fn max_level(&self) -> u64 {
        self.max_level
    }

    /// Packs one cell coordinate per dimension, dimension 0 in the lowest
    /// field. Coordinates must not exceed [`CellQuantizer::max_level`].
    #[inline]
    pub fn pack(&self, levels: impl IntoIterator<Item = u64>) -> u64 {
        let mut packed = 0u64;
        let mut shift = 0u32;
        for level in levels {
            debug_assert!(
                level <= self.max_level,
                "cell coordinate overflows its field"
            );
            packed |= level << shift;
            shift += self.width;
        }
        packed
    }

    /// The signature of a point: its packed cell coordinates,
    /// `floor(v · 2^b)` clamped into `0 ..= 2^b − 1` per dimension. The
    /// map is monotone in every `v`, so `a[k] ≤ b[k]` for all `k` implies
    /// `le(signature(a), signature(b))`.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no value is NaN (see the module docs).
    #[inline]
    pub fn signature(&self, values: &[f64]) -> u64 {
        debug_assert!(
            values.iter().all(|v| !v.is_nan()),
            "NaN is outside the dominance domain"
        );
        if self.max_level == 0 {
            return 0;
        }
        // `as u64` saturates: negatives and −∞ land on 0, +∞ on u64::MAX.
        self.pack(
            values
                .iter()
                .map(|&v| ((v * self.scale) as u64).min(self.max_level)),
        )
    }

    /// `true` iff every field of `a` is ≤ the same field of `b`. Setting
    /// `b`'s guard bits keeps each field's subtraction from borrowing out
    /// of the field; a guard bit survives exactly when its field of `b` is
    /// ≥ that of `a`.
    #[inline]
    pub fn le(&self, a: u64, b: u64) -> bool {
        ((b | self.guard) - a) & self.guard == self.guard
    }
}

/// A BNL window: tuples plus their [`CellQuantizer`] signatures in a dense
/// parallel array, so dominance scans run over the signatures and touch a
/// tuple only when its signature cannot rule the pair out.
///
/// `T` is whatever carries the tuple — an owned [`Tuple`] (the default), a
/// `&Tuple` into the caller's input, or a caller's record borrowing as
/// one. All tuples of one window must share a dimensionality; the
/// quantiser is chosen from the first tuple to enter. Scans add the number
/// of *candidate pairs examined* (signature tests, whether or not the
/// tuples were then compared) to the `examined` tally.
#[derive(Debug, Clone)]
pub struct Window<T = Tuple> {
    items: Vec<T>,
    sigs: Vec<u64>,
    quantizer: CellQuantizer,
}

impl<T> Default for Window<T> {
    fn default() -> Self {
        Self {
            items: Vec::new(),
            sigs: Vec::new(),
            quantizer: CellQuantizer::default(),
        }
    }
}

impl<T: Borrow<Tuple>> Window<T> {
    /// An empty window with room for `capacity` tuples.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            items: Vec::with_capacity(capacity),
            sigs: Vec::with_capacity(capacity),
            quantizer: CellQuantizer::default(),
        }
    }

    /// Number of tuples held.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` iff the window holds no tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The tuples in window order.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// The tuples in window order, dropping the signatures.
    pub fn into_vec(self) -> Vec<T> {
        self.items
    }

    fn signature_of(&mut self, t: &Tuple) -> u64 {
        if self.items.is_empty() {
            self.quantizer = CellQuantizer::new(t.dim());
        }
        self.quantizer.signature(&t.values)
    }

    /// Appends `t` without any dominance test.
    pub fn push(&mut self, t: T) {
        let sig = self.signature_of(t.borrow());
        self.push_signed(t, sig);
    }

    fn push_signed(&mut self, t: T, sig: u64) {
        // Amortized window growth: the skyline size is data-dependent, and
        // callers pre-size when a bound is known. `sigs` grows in lockstep.
        self.items.push(t);
        self.sigs.push(sig);
    }

    /// Algorithm 4 (`InsertTuple`): adds `t` unless a window tuple
    /// dominates it, evicting the window tuples `t` dominates. Returns
    /// `true` iff `t` was inserted.
    pub fn insert(&mut self, t: T, examined: &mut u64) -> bool {
        let sig = self.signature_of(t.borrow());
        let admitted = self.admit_signed(t.borrow(), sig, examined);
        if admitted {
            self.push_signed(t, sig);
        }
        admitted
    }

    /// Algorithm 4 without the final append, for callers that bound the
    /// window: evicts the window tuples `t` dominates and returns `true`
    /// iff no window tuple dominates `t`.
    pub fn admit(&mut self, t: &Tuple, examined: &mut u64) -> bool {
        let sig = self.signature_of(t);
        self.admit_signed(t, sig, examined)
    }

    /// Each window tuple is examined once; the joint [`compare`] runs only
    /// when one direction's signature test passes.
    #[inline]
    fn admit_signed(&mut self, t: &Tuple, sig: u64, examined: &mut u64) -> bool {
        let q = self.quantizer;
        let mut scanned = 0u64;
        let mut i = 0;
        while i < self.sigs.len() {
            scanned += 1;
            let s = self.sigs[i];
            if q.le(s, sig) | q.le(sig, s) {
                match compare(self.items[i].borrow(), t) {
                    // A window tuple dominates t: t is discarded. No
                    // earlier eviction can have happened (the window was a
                    // skyline and dominance is transitive).
                    DomOrdering::Dominates => {
                        *examined += scanned;
                        return false;
                    }
                    DomOrdering::DominatedBy => {
                        self.items.swap_remove(i);
                        self.sigs.swap_remove(i);
                        continue;
                    }
                    DomOrdering::Incomparable => {}
                }
            }
            i += 1;
        }
        *examined += scanned;
        true
    }

    /// `true` iff some window tuple dominates `t`; the scan stops at the
    /// first dominator.
    pub fn dominates(&self, t: &Tuple, examined: &mut u64) -> bool {
        self.dominates_signed(t, self.quantizer.signature(&t.values), examined)
    }

    fn dominates_signed(&self, t: &Tuple, sig: u64, examined: &mut u64) -> bool {
        let q = self.quantizer;
        for (i, &s) in self.sigs.iter().enumerate() {
            if q.le(s, sig) && dominates(self.items[i].borrow(), t) {
                *examined += i as u64 + 1;
                return true;
            }
        }
        *examined += self.sigs.len() as u64;
        false
    }

    /// Algorithm 5's inner step: removes every tuple some tuple of `other`
    /// dominates, keeping the survivors' order.
    pub fn prune_by<U: Borrow<Tuple>>(&mut self, other: &Window<U>, examined: &mut u64) {
        self.retain_signed(|t, sig| !other.dominates_signed(t.borrow(), sig, examined));
    }

    /// Keeps the tuples `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.retain_signed(|t, _| keep(t));
    }

    fn retain_signed(&mut self, mut keep: impl FnMut(&T, u64) -> bool) {
        let mut kept = 0;
        for i in 0..self.items.len() {
            if keep(&self.items[i], self.sigs[i]) {
                self.items.swap(kept, i);
                self.sigs.swap(kept, i);
                kept += 1;
            }
        }
        self.items.truncate(kept);
        self.sigs.truncate(kept);
    }
}

impl<T: Borrow<Tuple>> Extend<T> for Window<T> {
    /// Appends every tuple without any dominance test.
    fn extend<I: IntoIterator<Item = T>>(&mut self, tuples: I) {
        for t in tuples {
            self.push(t);
        }
    }
}

impl<T: Borrow<Tuple>> From<Vec<T>> for Window<T> {
    /// Adopts `items` as they are (no dominance test) and signs them.
    fn from(items: Vec<T>) -> Self {
        let quantizer = CellQuantizer::new(items.first().map_or(0, |t| t.borrow().dim()));
        let sigs = items
            .iter()
            .map(|t| quantizer.signature(&t.borrow().values))
            .collect();
        Self {
            items,
            sigs,
            quantizer,
        }
    }
}

impl<T> IntoIterator for Window<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Window<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

/// Like [`dominates`] but bumps `counter` by one — used by the cost-model
/// validation (paper Section 7.5 / Figure 11) to count tuple-dominance
/// checks executed by mappers and reducers.
#[inline]
pub fn dominates_counted(a: &Tuple, b: &Tuple, counter: &AtomicU64) -> bool {
    counter.fetch_add(1, Ordering::Relaxed);
    dominates(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[f64]) -> Tuple {
        Tuple::new(0, vals.to_vec())
    }

    #[test]
    fn strictly_smaller_dominates() {
        assert!(dominates(&t(&[0.1, 0.1]), &t(&[0.2, 0.2])));
    }

    #[test]
    fn equal_on_some_dims_still_dominates() {
        assert!(dominates(&t(&[0.1, 0.2]), &t(&[0.1, 0.3])));
    }

    #[test]
    fn equal_tuples_do_not_dominate() {
        assert!(!dominates(&t(&[0.1, 0.2]), &t(&[0.1, 0.2])));
    }

    #[test]
    fn incomparable_tuples_do_not_dominate() {
        assert!(!dominates(&t(&[0.1, 0.9]), &t(&[0.9, 0.1])));
        assert!(!dominates(&t(&[0.9, 0.1]), &t(&[0.1, 0.9])));
    }

    #[test]
    fn dominance_is_antisymmetric() {
        let a = t(&[0.1, 0.1]);
        let b = t(&[0.2, 0.2]);
        assert!(dominates(&a, &b));
        assert!(!dominates(&b, &a));
    }

    #[test]
    fn compare_matches_directional_checks() {
        let a = t(&[0.1, 0.5]);
        let b = t(&[0.2, 0.6]);
        assert_eq!(compare(&a, &b), DomOrdering::Dominates);
        assert_eq!(compare(&b, &a), DomOrdering::DominatedBy);
        let c = t(&[0.9, 0.1]);
        assert_eq!(compare(&a, &c), DomOrdering::Incomparable);
        assert_eq!(compare(&a, &a), DomOrdering::Incomparable);
    }

    #[test]
    fn counted_variant_counts() {
        let counter = AtomicU64::new(0);
        let a = t(&[0.1]);
        let b = t(&[0.2]);
        assert!(dominates_counted(&a, &b, &counter));
        assert!(!dominates_counted(&b, &a, &counter));
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn single_dimension_dominance() {
        assert!(dominates(&t(&[0.0]), &t(&[0.5])));
        assert!(!dominates(&t(&[0.5]), &t(&[0.0])));
    }

    #[test]
    fn signature_fields_follow_the_level_boundaries() {
        // d = 6: ten bits per field, nine of them coordinate bits.
        let q = CellQuantizer::new(6);
        assert_eq!(q.max_level(), 511);
        let level = |v: f64| q.signature(&[v, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(level(0.0), 0);
        assert_eq!(level(1.0 / 512.0 - f64::EPSILON), 0);
        assert_eq!(level(1.0 / 512.0), 1);
        assert_eq!(level(1.0 - f64::EPSILON), 511);
        // Fields sit ten bits apart, dimension 0 lowest.
        assert_eq!(q.signature(&[0.0, 0.5, 0.0, 0.0, 0.0, 0.0]), 256 << 10);
        assert_eq!(q.pack([1, 2, 3, 0, 0, 0]), 1 | 2 << 10 | 3 << 20);
    }

    #[test]
    fn signature_clamps_values_outside_the_unit_interval() {
        let q = CellQuantizer::new(2);
        let top = q.max_level();
        assert_eq!(q.signature(&[-3.0, 1.0]), top << 32);
        assert_eq!(q.signature(&[f64::NEG_INFINITY, f64::INFINITY]), top << 32);
        assert_eq!(q.signature(&[-0.0, 7.5]), top << 32);
        // One 63-bit field: 2^63 itself does not fit and saturates.
        let q1 = CellQuantizer::new(1);
        assert_eq!(q1.signature(&[1.0]), q1.max_level());
        assert_eq!(q1.max_level(), (1 << 63) - 1);
    }

    #[test]
    fn le_is_componentwise_with_no_borrow_between_fields() {
        let q = CellQuantizer::new(3);
        let (lo, hi) = (q.pack([1, 5, 2]), q.pack([1, 6, 2]));
        assert!(q.le(lo, hi) && !q.le(hi, lo));
        assert!(q.le(lo, lo));
        // A smaller low field must not mask a larger field above it.
        assert!(!q.le(q.pack([0, 1, 0]), q.pack([q.max_level(), 0, 0])));
        assert!(!q.le(q.pack([0, 0, 1]), q.pack([q.max_level(), q.max_level(), 0])));
    }

    #[test]
    fn filter_is_disabled_without_room_for_a_coordinate_bit() {
        assert_eq!(CellQuantizer::new(32).max_level(), 1);
        for dim in [0, 33, 64, 65, 1000] {
            let q = CellQuantizer::new(dim);
            assert_eq!(q.max_level(), 0);
            assert_eq!(q.signature(&vec![0.9; dim]), 0);
            assert!(q.le(0, 0));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN is outside the dominance domain")]
    fn nan_is_rejected_in_debug_builds() {
        CellQuantizer::new(2).signature(&[0.5, f64::NAN]);
    }

    #[test]
    fn window_counts_every_pair_it_scans() {
        let mut w: Window = Window::default();
        let mut examined = 0;
        assert!(w.insert(t(&[0.1, 0.9]), &mut examined));
        assert!(w.insert(t(&[0.9, 0.1]), &mut examined)); // signatures settle it: still a pair
        assert_eq!(examined, 1);
        assert!(!w.insert(t(&[0.95, 0.95]), &mut examined)); // first window tuple dominates
        assert_eq!(examined, 2);
        assert!(w.insert(t(&[0.05, 0.05]), &mut examined)); // evicts both
        assert_eq!((examined, w.len()), (4, 1));
    }

    #[test]
    fn window_over_borrowed_tuples_and_unfiltered_construction() {
        let rows = [t(&[0.5, 0.5]), t(&[0.6, 0.6]), t(&[0.2, 0.9])];
        // `From` / `push` / `extend` adopt tuples as they are …
        let mut raw: Window<&Tuple> = Window::from(vec![&rows[0]]);
        raw.extend(&rows[1..]);
        assert_eq!(raw.len(), 3);
        // … `admit` evicts but leaves the append to the caller …
        let mut w: Window<&Tuple> = Window::from(vec![&rows[1]]);
        let mut examined = 0;
        assert!(w.admit(&rows[0], &mut examined));
        assert!(w.is_empty());
        // … and `prune_by` / `dominates` / `retain` never add.
        let mut pruned: Window = Window::from(rows.to_vec());
        pruned.prune_by(&Window::from(vec![&rows[0]]), &mut examined);
        assert_eq!(pruned.as_slice(), [rows[0].clone(), rows[2].clone()]);
        assert!(pruned.dominates(&rows[1], &mut examined));
        pruned.retain(|t| t.values[0] < 0.3);
        assert_eq!(pruned.into_vec(), vec![rows[2].clone()]);
    }
}
