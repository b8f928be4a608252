//! A compact bitset sized for grid partitionings.
//!
//! The paper represents the `n^d` grid partitions as a bitstring `BS_R`
//! where bit `i` says whether partition `p_i` is non-empty (Equation 1) and,
//! after pruning, whether it survives partition dominance (Equation 2).
//! [`BitGrid`] is that bitstring: a plain `u64`-backed bitset with the
//! operations the algorithms need — set/clear/test, bitwise OR (the reducer
//! of the bitstring-generation job merges local bitstrings with `∨`),
//! population count, and forward/backward iteration over set bits (the
//! independent-group generation scans for the *largest* set index).

const WORD_BITS: usize = 64;

/// A fixed-length bitset backed by `u64` words.
#[derive(Clone, PartialEq, Eq)]
pub struct BitGrid {
    len: usize,
    words: Vec<u64>,
}

impl BitGrid {
    /// Creates a bitset of `len` bits, all zero.
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the bitset has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i` to 1.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS); // i < len asserted above, so i/WORD_BITS < words.len()
    }

    /// Clears bit `i` to 0.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS)); // i < len asserted above, so i/WORD_BITS < words.len()
    }

    /// Returns bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0 // i < len asserted above, so i/WORD_BITS < words.len()
    }

    /// In-place bitwise OR with another bitset of the same length.
    ///
    /// This is the merge step of the bitstring-generation reducer
    /// (`BS_R = BS_R1 ∨ BS_R2 ∨ … ∨ BS_Rm`, paper Algorithm 2 line 3).
    pub fn or_assign(&mut self, other: &BitGrid) {
        assert_eq!(self.len, other.len, "BitGrid length mismatch in OR");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// In-place bitwise AND with another bitset of the same length (used
    /// by the bitmap skyline algorithm's slice intersection).
    pub fn and_assign(&mut self, other: &BitGrid) {
        assert_eq!(self.len, other.len, "BitGrid length mismatch in AND");
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
    }

    /// `true` iff the two bitsets share at least one set bit.
    pub fn intersects(&self, other: &BitGrid) -> bool {
        assert_eq!(self.len, other.len, "BitGrid length mismatch in intersects");
        self.words
            .iter()
            .zip(other.words.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Number of set bits (the paper's `ρ`, the count of non-empty
    /// partitions, used by the PPD-selection heuristic in Section 3.3).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` iff no bit is set (the `while BS_R ≠ 0` loop guard of
    /// Algorithm 7).
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the indexes of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * WORD_BITS + bit)
            })
        })
    }

    /// Index of the highest set bit, if any — the "partition with the
    /// largest index" seed scan of Algorithm 7.
    pub fn highest_one(&self) -> Option<usize> {
        for (wi, &word) in self.words.iter().enumerate().rev() {
            if word != 0 {
                return Some(wi * WORD_BITS + (WORD_BITS - 1 - word.leading_zeros() as usize));
            }
        }
        None
    }

    /// Byte size of the packed representation (used for shuffle-traffic
    /// accounting when bitstrings move between mappers and the reducer).
    pub fn packed_bytes(&self) -> u64 {
        (self.words.len() * 8) as u64
    }

    /// The backing words, least-significant bit first (for the wire
    /// codec in [`crate::bytes`]).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bitset from its wire representation. `None` when the
    /// word count disagrees with the bit length or a padding bit beyond
    /// `len` is set (the encoder never produces either).
    pub(crate) fn from_words(len: usize, words: Vec<u64>) -> Option<Self> {
        if words.len() != len.div_ceil(WORD_BITS) {
            return None;
        }
        if let Some(&last) = words.last() {
            let used = len - (words.len() - 1) * WORD_BITS;
            if used < WORD_BITS && last >> used != 0 {
                return None;
            }
        }
        Some(Self { len, words })
    }
}

impl std::fmt::Debug for BitGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BitGrid[{}]{{", self.len)?;
        let mut first = true;
        for i in self.iter_ones() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_zero() {
        let b = BitGrid::zeros(100);
        assert_eq!(b.len(), 100);
        assert!(b.is_zero());
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(99));
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = BitGrid::zeros(130);
        for i in [0, 63, 64, 65, 129] {
            b.set(i);
            assert!(b.get(i), "bit {i} should be set");
        }
        assert_eq!(b.count_ones(), 5);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn or_assign_merges() {
        let mut a = BitGrid::zeros(70);
        let mut b = BitGrid::zeros(70);
        a.set(1);
        b.set(69);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(69));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn or_assign_rejects_length_mismatch() {
        let mut a = BitGrid::zeros(10);
        let b = BitGrid::zeros(11);
        a.or_assign(&b);
    }

    #[test]
    fn and_assign_intersects() {
        let mut a = BitGrid::zeros(70);
        let mut b = BitGrid::zeros(70);
        a.set(1);
        a.set(69);
        b.set(69);
        assert!(a.intersects(&b));
        a.and_assign(&b);
        assert!(!a.get(1) && a.get(69));
        b.clear(69);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn iter_ones_is_sorted_and_complete() {
        let mut b = BitGrid::zeros(200);
        let set = [3usize, 64, 65, 127, 128, 199];
        for &i in &set {
            b.set(i);
        }
        let got: Vec<usize> = b.iter_ones().collect();
        assert_eq!(got, set);
    }

    #[test]
    fn highest_one_finds_max() {
        let mut b = BitGrid::zeros(300);
        assert_eq!(b.highest_one(), None);
        b.set(5);
        assert_eq!(b.highest_one(), Some(5));
        b.set(255);
        assert_eq!(b.highest_one(), Some(255));
        b.set(299);
        assert_eq!(b.highest_one(), Some(299));
        b.clear(299);
        assert_eq!(b.highest_one(), Some(255));
    }

    #[test]
    fn figure2_bitstring_example() {
        // Paper Figure 2: 3x3 grid, non-empty partitions {1,2,3,4,6} give
        // the column-major bitstring 011110100 (bit 0 is leftmost).
        let mut b = BitGrid::zeros(9);
        for i in [1, 2, 3, 4, 6] {
            b.set(i);
        }
        let rendered: String = (0..9).map(|i| if b.get(i) { '1' } else { '0' }).collect();
        assert_eq!(rendered, "011110100");
    }

    #[test]
    fn out_of_range_panics() {
        let b = BitGrid::zeros(8);
        assert!(std::panic::catch_unwind(|| b.get(8)).is_err());
    }

    #[test]
    fn packed_bytes_rounds_up_to_words() {
        assert_eq!(BitGrid::zeros(1).packed_bytes(), 8);
        assert_eq!(BitGrid::zeros(64).packed_bytes(), 8);
        assert_eq!(BitGrid::zeros(65).packed_bytes(), 16);
    }
}
