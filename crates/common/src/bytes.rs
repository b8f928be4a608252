//! Byte-size accounting and the checksummed wire codec.
//!
//! The MapReduce engine charges shuffle and distributed-cache traffic to a
//! simulated cluster clock (the paper's testbed moved data over a
//! 100 Mbit/s LAN, and the communication overhead of MR-GPMRS is one of the
//! effects its evaluation studies). [`ByteSized`] reports how many bytes a
//! value would occupy in a compact on-the-wire encoding.
//!
//! [`Wire`] is that encoding made real: a deterministic little-endian
//! byte codec for every type that crosses a shuffle boundary. Encoded
//! pairs travel inside CRC32C-checksummed, length-prefixed *frames*
//! ([`frame_encode`] / [`frame_decode_exact`]), so a reducer fetching a
//! map-output partition verifies its integrity before consuming a single
//! record — the data-plane half of the engine's fault story.
//!
//! The CRC32C kernel is slice-by-8 (eight compile-time tables, safe code,
//! the byte-at-a-time definition's values), and encoders write header,
//! payload and trailer into *one* buffer ([`frame_begin`] / [`frame_end`]
//! back-patch length and checksum). The layout below is frozen by
//! golden-bytes tests here and in `mapreduce::storage::segment`.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +----------------+------------------+----------------------------+
//! | len: u32       | payload: len B   | crc: u32                   |
//! +----------------+------------------+----------------------------+
//!                                       CRC32C over len ‖ payload
//! ```
//!
//! The checksum covers the length prefix as well as the payload, so any
//! single-bit flip anywhere in a frame — header, body, or trailer — is
//! caught by [`frame_decode_exact`] (bit flips that shrink the length
//! leave trailing bytes, which full-consumption decoding rejects).

use crate::bitgrid::BitGrid;
use crate::tuple::Tuple;

/// Size of a value in a compact wire encoding, in bytes.
pub trait ByteSized {
    /// Encoded size in bytes.
    fn byte_size(&self) -> u64;
}

macro_rules! fixed_size {
    ($($t:ty => $n:expr),* $(,)?) => {
        $(impl ByteSized for $t {
            #[inline]
            fn byte_size(&self) -> u64 { $n }
        })*
    };
}

fixed_size!(u8 => 1, u16 => 2, u32 => 4, u64 => 8, usize => 8, f32 => 4, f64 => 8, i32 => 4, i64 => 8, bool => 1, () => 0);

impl<T: ByteSized> ByteSized for Vec<T> {
    fn byte_size(&self) -> u64 {
        // 4-byte length prefix, like a Hadoop Writable collection.
        4 + self.iter().map(ByteSized::byte_size).sum::<u64>()
    }
}

impl<T: ByteSized> ByteSized for Box<[T]> {
    fn byte_size(&self) -> u64 {
        4 + self.iter().map(ByteSized::byte_size).sum::<u64>()
    }
}

impl<A: ByteSized, B: ByteSized> ByteSized for (A, B) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size()
    }
}

impl<A: ByteSized, B: ByteSized, C: ByteSized> ByteSized for (A, B, C) {
    fn byte_size(&self) -> u64 {
        self.0.byte_size() + self.1.byte_size() + self.2.byte_size()
    }
}

impl<T: ByteSized> ByteSized for Option<T> {
    fn byte_size(&self) -> u64 {
        1 + self.as_ref().map_or(0, ByteSized::byte_size)
    }
}

impl ByteSized for Tuple {
    fn byte_size(&self) -> u64 {
        // id + length prefix + one f64 per dimension.
        8 + 4 + 8 * self.values.len() as u64
    }
}

impl ByteSized for BitGrid {
    fn byte_size(&self) -> u64 {
        4 + self.packed_bytes()
    }
}

impl ByteSized for String {
    fn byte_size(&self) -> u64 {
        4 + self.len() as u64
    }
}

// ---------------------------------------------------------------------
// CRC32C (Castagnoli).
// ---------------------------------------------------------------------

/// The reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed) — the
/// CRC32C variant Hadoop uses for its checksummed file and shuffle
/// streams, hand-rolled here so the workspace stays dependency-free.
const CRC32C_POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables for [`crc32c_update`], built at compile time:
/// `[0]` is the classic byte-at-a-time table, `[k][b]` the CRC of byte `b`
/// followed by `k` zero bytes, so eight lookups fold an 8-byte stride.
const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32C_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut n = 256;
    while n < 8 * 256 {
        let prev = tables[n / 256 - 1][n % 256];
        tables[n / 256][n % 256] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
        n += 1;
    }
    tables
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// Folds `data` into a running CRC32C state, eight bytes per step with a
/// byte-wise tail.
///
/// `crc32c_update(crc32c_update(0, a), b)` equals `crc32c` of `a ‖ b`,
/// so framed streams can be checksummed incrementally without
/// concatenating buffers.
#[inline]
pub fn crc32c_update(crc: u32, data: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut c = !crc;
    let mut strides = data.chunks_exact(8);
    for s in &mut strides {
        let lo = c ^ u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        let hi = u32::from_le_bytes([s[4], s[5], s[6], s[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in strides.remainder() {
        c = t[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The CRC32C checksum of `data`.
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_update(0, data)
}

// ---------------------------------------------------------------------
// Checksummed frames.
// ---------------------------------------------------------------------

/// Bytes a frame adds around its payload (u32 length + u32 CRC).
pub const FRAME_OVERHEAD: usize = 8;

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame its header announces.
    Truncated {
        /// Bytes the header claims the frame needs.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The stored checksum disagrees with the recomputed one — the frame
    /// was corrupted in flight or at rest.
    Corrupt {
        /// CRC32C recomputed over the received header and payload.
        expected: u32,
        /// CRC32C stored in the frame trailer.
        got: u32,
    },
    /// Bytes remain after the frame a full-consumption decode expected
    /// to be alone in the buffer.
    TrailingBytes {
        /// Number of unconsumed bytes.
        got: usize,
    },
    /// The payload verified but its contents did not parse as the
    /// expected record stream.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "frame truncated: header needs {needed} bytes, got {got}")
            }
            FrameError::Corrupt { expected, got } => write!(
                f,
                "frame checksum mismatch: computed {expected:#010x}, stored {got:#010x}"
            ),
            FrameError::TrailingBytes { got } => {
                write!(f, "{got} trailing byte(s) after the frame")
            }
            FrameError::Malformed => write!(f, "frame payload is not a valid record stream"),
        }
    }
}

impl std::error::Error for FrameError {}

/// A length as its u32 wire prefix — loud at the encoder, never wrapped.
fn wire_len(len: usize) -> u32 {
    u32::try_from(len).expect("frame payload exceeds u32::MAX bytes")
}

/// Opens a frame at the end of `out` and returns its start offset for
/// [`frame_end`]; the caller appends the payload straight onto `out`.
pub fn frame_begin(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    start
}

/// Seals the frame opened at `start`: back-patches the length prefix and
/// appends the CRC32C of header ‖ payload.
pub fn frame_end(out: &mut Vec<u8>, start: usize) {
    let frame = &mut out[start..];
    let len = wire_len(frame.len() - 4);
    frame[..4].copy_from_slice(&len.to_le_bytes());
    let crc = crc32c(frame);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Appends one checksummed frame wrapping `payload` onto `out`.
pub fn frame_encode(payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(payload.len() + FRAME_OVERHEAD);
    let start = frame_begin(out);
    out.extend_from_slice(payload);
    frame_end(out, start);
}

/// Decodes and verifies one frame from the front of `buf`, returning the
/// payload and the unconsumed remainder.
pub fn frame_decode(buf: &[u8]) -> Result<(&[u8], &[u8]), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated {
            needed: FRAME_OVERHEAD,
            got: buf.len(),
        });
    }
    let header: [u8; 4] = buf[..4].try_into().expect("4-byte slice");
    let len = u32::from_le_bytes(header) as usize;
    let needed = len + FRAME_OVERHEAD;
    if buf.len() < needed {
        return Err(FrameError::Truncated {
            needed,
            got: buf.len(),
        });
    }
    let payload = &buf[4..4 + len]; // in bounds: `buf.len() >= needed = len + FRAME_OVERHEAD` was checked above
    let stored = u32::from_le_bytes(buf[4 + len..needed].try_into().expect("4-byte slice")); // same bounds invariant; the trailer is exactly the 4 bytes at `4 + len..needed`
    let expected = crc32c_update(crc32c(&header), payload);
    if expected != stored {
        return Err(FrameError::Corrupt {
            expected,
            got: stored,
        });
    }
    Ok((payload, &buf[needed..]))
}

/// Decodes exactly one frame filling the whole buffer.
///
/// This is the shuffle-fetch entry point: a partition travels as one
/// frame, so trailing bytes are as much a corruption signal as a bad
/// checksum (a bit flip that shrinks the length prefix leaves them).
pub fn frame_decode_exact(buf: &[u8]) -> Result<&[u8], FrameError> {
    let (payload, rest) = frame_decode(buf)?;
    if !rest.is_empty() {
        return Err(FrameError::TrailingBytes { got: rest.len() });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Wire: the deterministic byte codec behind the frames.
// ---------------------------------------------------------------------

/// Cursor over an encoded byte stream for [`Wire::wire_decode`].
#[derive(Debug)]
pub struct WireCursor<'a> {
    buf: &'a [u8],
}

impl<'a> WireCursor<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// `true` iff every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The pre-sizing rule of every length-prefixed decoder: the `declared`
    /// count, capped by what the bytes left could hold at `min_size` encoded
    /// bytes each — exact for well-formed input, O(input) for hostile bytes.
    pub fn capacity_for(&self, declared: usize, min_size: usize) -> usize {
        let left = self.buf.len();
        declared.min(left.checked_div(min_size).unwrap_or(left))
    }

    /// Consumes the next `n` bytes, or `None` if fewer remain.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }
}

/// A value with a deterministic little-endian wire encoding.
///
/// Every key and value type crossing a shuffle boundary implements
/// `Wire`; the engine encodes map-output partitions through it into
/// checksummed frames and decodes them on the reduce side, so the codec
/// is load-bearing — a round-trip bug changes job output, not just a
/// byte count. Encodings mirror the [`ByteSized`] accounting (length
/// prefixes are u32, integers are fixed-width little-endian).
pub trait Wire: Sized {
    /// A lower bound on any value's encoded bytes, the divisor of
    /// [`WireCursor::capacity_for`]; too small only loosens that bound.
    const MIN_SIZE: usize = 1;

    /// Appends this value's encoding onto `out`.
    fn wire_encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the cursor; `None` on any structural
    /// mismatch (truncation, invalid length, bad tag).
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self>;
}

macro_rules! wire_int {
    ($($t:ty),* $(,)?) => {
        $(impl Wire for $t {
            const MIN_SIZE: usize = std::mem::size_of::<$t>();
            #[inline]
            fn wire_encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
                r.array().map(<$t>::from_le_bytes)
            }
        })*
    };
}

wire_int!(u8, u16, u32, u64, i32, i64, f32, f64);

impl Wire for usize {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        (*self as u64).wire_encode(out);
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        usize::try_from(u64::wire_decode(r)?).ok()
    }
}

impl Wire for bool {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        match u8::wire_decode(r)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for () {
    const MIN_SIZE: usize = 0;
    fn wire_encode(&self, _out: &mut Vec<u8>) {}
    fn wire_decode(_r: &mut WireCursor<'_>) -> Option<Self> {
        Some(())
    }
}

impl Wire for String {
    const MIN_SIZE: usize = 4;
    fn wire_encode(&self, out: &mut Vec<u8>) {
        wire_len(self.len()).wire_encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let len = u32::wire_decode(r)? as usize;
        String::from_utf8(r.take(len)?.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_SIZE: usize = 4;
    fn wire_encode(&self, out: &mut Vec<u8>) {
        wire_len(self.len()).wire_encode(out);
        for item in self {
            item.wire_encode(out);
        }
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let len = u32::wire_decode(r)? as usize;
        let mut items = Vec::with_capacity(r.capacity_for(len, T::MIN_SIZE));
        for _ in 0..len {
            items.push(T::wire_decode(r)?);
        }
        Some(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_SIZE: usize = A::MIN_SIZE + B::MIN_SIZE;
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        Some((A::wire_decode(r)?, B::wire_decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN_SIZE: usize = A::MIN_SIZE + B::MIN_SIZE + C::MIN_SIZE;
    fn wire_encode(&self, out: &mut Vec<u8>) {
        self.0.wire_encode(out);
        self.1.wire_encode(out);
        self.2.wire_encode(out);
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        Some((A::wire_decode(r)?, B::wire_decode(r)?, C::wire_decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_encode(out);
            }
        }
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        match u8::wire_decode(r)? {
            0 => Some(None),
            1 => Some(Some(T::wire_decode(r)?)),
            _ => None,
        }
    }
}

/// Decodes `count` little-endian 8-byte words from one bounds-checked
/// `take` into one exactly-sized allocation.
fn take_words<T>(r: &mut WireCursor<'_>, count: usize, word: fn([u8; 8]) -> T) -> Option<Vec<T>> {
    let words = r.take(count.checked_mul(8)?)?.chunks_exact(8);
    Some(
        words
            .map(|w| word(w.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

impl Wire for Tuple {
    const MIN_SIZE: usize = 12;
    fn wire_encode(&self, out: &mut Vec<u8>) {
        out.reserve(12 + 8 * self.values.len());
        self.id.wire_encode(out);
        wire_len(self.values.len()).wire_encode(out);
        out.extend(self.values.iter().flat_map(|v| v.to_le_bytes()));
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let id = u64::wire_decode(r)?;
        let dim = u32::wire_decode(r)? as usize;
        Some(Tuple::new(id, take_words(r, dim, f64::from_le_bytes)?))
    }
}

impl Wire for BitGrid {
    const MIN_SIZE: usize = 4;
    fn wire_encode(&self, out: &mut Vec<u8>) {
        wire_len(self.len()).wire_encode(out);
        for word in self.words() {
            word.wire_encode(out);
        }
    }
    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let len = u32::wire_decode(r)? as usize;
        BitGrid::from_words(len, take_words(r, len.div_ceil(64), u64::from_le_bytes)?)
    }
}

// ---------------------------------------------------------------------
// Framed pair streams: the shuffle-partition unit.
// ---------------------------------------------------------------------

/// Bytes a partition frame adds to its pairs' encodings (with the count).
pub const PAIRS_OVERHEAD: usize = FRAME_OVERHEAD + 4;

/// Appends a shuffle partition — a batch of key/value pairs — onto `out`
/// as one checksummed frame around `[count: u32][pair encodings…]`, each
/// byte written once. A caller that reserves the pairs' wire size plus
/// [`PAIRS_OVERHEAD`] never sees `out` grow.
pub fn encode_pairs_into<K: Wire, V: Wire>(pairs: &[(K, V)], out: &mut Vec<u8>) {
    let start = frame_begin(out);
    wire_len(pairs.len()).wire_encode(out);
    for (k, v) in pairs {
        k.wire_encode(out);
        v.wire_encode(out);
    }
    frame_end(out, start);
}

/// [`encode_pairs_into`] a buffer of its own. Empty partitions encode to
/// a valid (count 0) frame.
pub fn encode_pairs<K: Wire, V: Wire>(pairs: &[(K, V)]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_pairs_into(pairs, &mut out);
    out
}

/// Verifies and decodes one partition frame produced by [`encode_pairs`].
pub fn decode_pairs<K: Wire, V: Wire>(frame: &[u8]) -> Result<Vec<(K, V)>, FrameError> {
    let payload = frame_decode_exact(frame)?;
    let mut r = WireCursor::new(payload);
    let count = u32::wire_decode(&mut r).ok_or(FrameError::Malformed)? as usize;
    let mut pairs = Vec::with_capacity(r.capacity_for(count, K::MIN_SIZE + V::MIN_SIZE));
    for _ in 0..count {
        let k = K::wire_decode(&mut r).ok_or(FrameError::Malformed)?;
        let v = V::wire_decode(&mut r).ok_or(FrameError::Malformed)?;
        pairs.push((k, v));
    }
    if !r.is_empty() {
        return Err(FrameError::Malformed);
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_have_fixed_sizes() {
        assert_eq!(1u8.byte_size(), 1);
        assert_eq!(1u32.byte_size(), 4);
        assert_eq!(1.0f64.byte_size(), 8);
        assert_eq!(().byte_size(), 0);
    }

    #[test]
    fn vec_adds_length_prefix() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(v.byte_size(), 4 + 24);
        let empty: Vec<u64> = vec![];
        assert_eq!(empty.byte_size(), 4);
    }

    #[test]
    fn tuple_size_scales_with_dimensionality() {
        let t2 = Tuple::new(0, vec![0.0, 0.0]);
        let t5 = Tuple::new(0, vec![0.0; 5]);
        assert_eq!(t2.byte_size(), 8 + 4 + 16);
        assert_eq!(t5.byte_size(), 8 + 4 + 40);
    }

    #[test]
    fn nested_collections_compose() {
        let v: Vec<Vec<u8>> = vec![vec![1, 2], vec![3]];
        assert_eq!(v.byte_size(), 4 + (4 + 2) + (4 + 1));
    }

    #[test]
    fn option_charges_tag_byte() {
        assert_eq!(None::<u64>.byte_size(), 1);
        assert_eq!(Some(1u64).byte_size(), 9);
    }

    #[test]
    fn bitgrid_charges_packed_words() {
        let b = BitGrid::zeros(128);
        assert_eq!(b.byte_size(), 4 + 16);
    }

    // -----------------------------------------------------------------
    // CRC32C.
    // -----------------------------------------------------------------

    #[test]
    fn crc32c_matches_published_check_values() {
        // RFC 3720 appendix B.4 test vectors for CRC32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn crc32c_update_chains_like_concatenation() {
        let whole = crc32c(b"hello world");
        let chained = crc32c_update(crc32c(b"hello "), b"world");
        assert_eq!(whole, chained);
    }

    #[test]
    fn crc32c_equals_the_reference_at_every_short_length_and_split() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let whole = crc32c_reference(0, &data[..len]);
            assert_eq!(crc32c(&data[..len]), whole, "length {len}");
            for cut in 0..=len {
                let chained = crc32c_update(crc32c(&data[..cut]), &data[cut..len]);
                assert_eq!(chained, whole, "length {len} split at {cut}");
            }
        }
    }

    #[test]
    fn an_over_long_collection_fails_loudly_at_the_encoder() {
        // Zero-sized elements make a 2^32-element collection free to build.
        let too_long = vec![(); u32::MAX as usize + 1];
        let encode = || too_long.wire_encode(&mut Vec::new());
        let panic = std::panic::catch_unwind(encode).expect_err("must not write a wrapped count");
        let message = panic.downcast_ref::<String>().expect("panic message");
        assert!(message.contains("exceeds u32::MAX"), "{message}");
    }

    #[test]
    fn a_hostile_count_reserves_no_more_than_the_input_could_hold() {
        // 12 payload bytes declaring 2^32 - 1 pairs of at least 16 bytes.
        let mut payload = u32::MAX.to_le_bytes().to_vec();
        payload.extend_from_slice(&[0u8; 8]);
        let mut r = WireCursor::new(&payload);
        let declared = u32::wire_decode(&mut r).expect("count") as usize;
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.capacity_for(declared, <(u32, Tuple)>::MIN_SIZE), 0);
        assert_eq!(r.capacity_for(3, 2), 3, "a well-formed count is exact");
        assert_eq!(r.capacity_for(declared, 0), 8, "zero-sized elements");
        let mut frame = Vec::new();
        frame_encode(&payload, &mut frame);
        assert_eq!(
            decode_pairs::<u32, Tuple>(&frame),
            Err(FrameError::Malformed)
        );
        // One partition above the old 65,536-pair clamp decodes into one
        // exact allocation.
        let big: Vec<(u32, u64)> = (0..70_000u32).map(|i| (i, u64::from(i))).collect();
        let decoded = decode_pairs::<u32, u64>(&encode_pairs(&big)).expect("decodes");
        assert_eq!(decoded.capacity(), big.len());
        assert_eq!(decoded, big);
    }

    /// The byte-at-a-time definition the slice-by-8 kernel must equal.
    fn crc32c_reference(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &byte in data {
            c ^= u32::from(byte);
            for _ in 0..8 {
                c = (c >> 1) ^ (CRC32C_POLY & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    // -----------------------------------------------------------------
    // Frames.
    // -----------------------------------------------------------------

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire format is frozen by test, not by intent: these constants
    /// were captured from the encoders as of commit 3b5523e (before the
    /// single-buffer encoders and the slice-by-8 CRC), and every later
    /// encoder must reproduce them byte for byte.
    #[test]
    fn frames_match_golden_bytes_captured_at_the_parent() {
        let partition: Vec<(u32, Tuple)> = vec![
            (0, Tuple::new(7, vec![0.25, 0.5, 0.125])),
            (0, Tuple::new(u64::MAX, vec![0.0, 0.999])),
            (5, Tuple::new(42, Vec::<f64>::new())),
            (u32::MAX, Tuple::new(1, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6])),
        ];
        let golden = "9c0000000400000000000000070000000000000003000000000000000000d03f\
             000000000000e03f000000000000c03f00000000ffffffffffffffff02000000\
             00000000000000002b8716d9cef7ef3f050000002a0000000000000000000000\
             ffffffff0100000000000000060000009a9999999999b93f9a9999999999c93f\
             333333333333d33f9a9999999999d93f000000000000e03f333333333333e33f\
             dba1c081";
        assert_eq!(hex(&encode_pairs(&partition)), golden);
        let mut reserved = Vec::with_capacity(golden.len() / 2);
        encode_pairs_into(&partition, &mut reserved);
        assert_eq!(hex(&reserved), golden);
        assert_eq!(reserved.len(), reserved.capacity(), "exact reserve");
        let wire: u64 = partition.iter().map(ByteSized::byte_size).sum();
        assert_eq!(reserved.len(), wire as usize + PAIRS_OVERHEAD);

        let cell: Vec<(u8, (u32, Vec<Tuple>))> = vec![(
            0,
            (
                3,
                vec![
                    Tuple::new(9, vec![0.75, 0.0625]),
                    Tuple::new(10, vec![0.5, 0.5]),
                ],
            ),
        )];
        assert_eq!(
            hex(&encode_pairs(&cell)),
            "4500000001000000000300000002000000090000000000000002000000000000\
             000000e83f000000000000b03f0a0000000000000002000000000000000000e0\
             3f000000000000e03ffc68e480"
        );

        let mut grid = BitGrid::zeros(130);
        grid.set(0);
        grid.set(64);
        grid.set(129);
        let mut payload = Vec::new();
        grid.wire_encode(&mut payload);
        let mut frame = Vec::new();
        frame_encode(&payload, &mut frame);
        assert_eq!(
            hex(&frame),
            "1c00000082000000010000000000000001000000000000000200000000000000\
             7b0e6af4"
        );
    }

    #[test]
    fn frame_roundtrip_including_empty_payload() {
        for payload in [&b""[..], b"x", b"some longer payload bytes"] {
            let mut frame = Vec::new();
            frame_encode(payload, &mut frame);
            assert_eq!(frame.len(), payload.len() + FRAME_OVERHEAD);
            assert_eq!(frame_decode_exact(&frame).unwrap(), payload);
        }
    }

    #[test]
    fn frame_decode_streams_multiple_frames() {
        let mut buf = Vec::new();
        frame_encode(b"first", &mut buf);
        frame_encode(b"second", &mut buf);
        let (a, rest) = frame_decode(&buf).unwrap();
        assert_eq!(a, b"first");
        let (b, rest) = frame_decode(rest).unwrap();
        assert_eq!(b, b"second");
        assert!(rest.is_empty());
        assert!(matches!(
            frame_decode_exact(&buf),
            Err(FrameError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn frame_rejects_truncation_and_corruption() {
        let mut frame = Vec::new();
        frame_encode(b"payload", &mut frame);
        assert!(matches!(
            frame_decode(&frame[..frame.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(
            frame_decode(&[1, 0]),
            Err(FrameError::Truncated { .. })
        ));
        let mut bad = frame.clone();
        bad[5] ^= 0x10;
        assert!(matches!(
            frame_decode(&bad),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn pair_stream_roundtrip_and_empty_partition() {
        let pairs: Vec<(u32, String)> = vec![(7, "alpha".into()), (9, String::new())];
        let frame = encode_pairs(&pairs);
        assert_eq!(decode_pairs::<u32, String>(&frame).unwrap(), pairs);
        let empty: Vec<(u32, String)> = Vec::new();
        let frame = encode_pairs(&empty);
        assert_eq!(decode_pairs::<u32, String>(&frame).unwrap(), empty);
    }

    #[test]
    fn wire_roundtrips_every_builtin() {
        fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
            let mut bytes = Vec::new();
            v.wire_encode(&mut bytes);
            let mut r = WireCursor::new(&bytes);
            assert_eq!(T::wire_decode(&mut r), Some(v));
            assert!(r.is_empty(), "decoder left unconsumed bytes");
        }
        roundtrip(0xABu8);
        roundtrip(0xABCDu16);
        roundtrip(0xDEAD_BEEFu32);
        roundtrip(u64::MAX);
        roundtrip(-5i32);
        roundtrip(-5i64);
        roundtrip(1.5f32);
        roundtrip(0.123_456_789f64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(());
        roundtrip(String::from("héllo"));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip((1u8, 2u16));
        roundtrip((1u8, 2u16, 3u32));
        roundtrip(Some(7u64));
        roundtrip(None::<u64>);
        roundtrip(Tuple::new(42, vec![0.1, 0.2, 0.3]));
        let mut grid = BitGrid::zeros(130);
        grid.set(0);
        grid.set(64);
        grid.set(129);
        roundtrip(grid);
        roundtrip(vec![(3u32, vec![Tuple::new(1, vec![0.5])])]);
    }

    #[test]
    fn wire_decode_rejects_malformed_streams() {
        let mut r = WireCursor::new(&[1, 0, 0]);
        assert_eq!(u32::wire_decode(&mut r), None);
        let mut r = WireCursor::new(&[2u8]);
        assert_eq!(bool::wire_decode(&mut r), None, "bad bool tag");
        // A BitGrid with a set padding bit cannot come from the encoder.
        let mut bytes = Vec::new();
        1u32.wire_encode(&mut bytes);
        u64::MAX.wire_encode(&mut bytes);
        let mut r = WireCursor::new(&bytes);
        assert_eq!(BitGrid::wire_decode(&mut r), None);
    }

    mod codec_properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_tuple() -> impl Strategy<Value = Tuple> {
            (any::<u64>(), proptest::collection::vec(0.0f64..1.0, 0..6))
                .prop_map(|(id, values)| Tuple::new(id, values))
        }

        /// `byte_size()` is the encoded length, and `MIN_SIZE` bounds it.
        fn sized<T: Wire + ByteSized>(v: &T) {
            let mut bytes = Vec::new();
            v.wire_encode(&mut bytes);
            assert_eq!(v.byte_size(), bytes.len() as u64);
            assert!(bytes.len() >= T::MIN_SIZE, "MIN_SIZE is a lower bound");
        }

        /// Decodes a `T` from the front of arbitrary bytes.
        fn probe<T: Wire>(bytes: &[u8]) -> Option<T> {
            T::wire_decode(&mut WireCursor::new(bytes))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn pair_frames_roundtrip(
                pairs in proptest::collection::vec((any::<u32>(), arb_tuple()), 0..24)
            ) {
                let frame = encode_pairs(&pairs);
                let decoded = decode_pairs::<u32, Tuple>(&frame).expect("clean frame decodes");
                prop_assert_eq!(decoded, pairs);
            }

            #[test]
            fn slice_by_8_crc_equals_the_reference_and_chains_at_every_split(
                data in proptest::collection::vec(any::<u8>(), 0..300),
                seed in any::<u32>()
            ) {
                let whole = crc32c_reference(seed, &data);
                prop_assert_eq!(crc32c_update(seed, &data), whole);
                for cut in 0..=data.len() {
                    let (a, b) = data.split_at(cut);
                    prop_assert_eq!(crc32c_update(crc32c_update(seed, a), b), whole, "split {}", cut);
                }
            }

            /// The exact frame reserve relies on `byte_size()` being the
            /// encoded length, for every `Wire + ByteSized` type here.
            #[test]
            fn byte_size_is_the_encoded_length(
                ints in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>(), any::<i32>(), any::<i64>()),
                rest in (any::<f32>(), any::<f64>(), any::<usize>(), any::<bool>()),
                text in proptest::collection::vec(any::<u8>(), 0..12),
                tuples in proptest::collection::vec(arb_tuple(), 0..5),
                options in proptest::collection::vec((any::<bool>(), any::<u64>()), 0..5),
                bits in 0usize..200
            ) {
                let (a, b, c, d, e, f) = ints;
                sized(&a);
                sized(&b);
                sized(&c);
                sized(&d);
                sized(&e);
                sized(&f);
                let (g, h, i, j) = rest;
                sized(&g);
                sized(&h);
                sized(&i);
                sized(&j);
                sized(&());
                let text = String::from_utf8_lossy(&text).into_owned();
                let options: Vec<(u32, Option<u64>)> =
                    options.into_iter().map(|(some, v)| (c, some.then_some(v))).collect();
                sized(&text);
                sized(&tuples);
                sized(&options);
                sized(&(c, tuples.clone()));
                sized(&(a, (c, tuples), text));
                sized(&None::<Tuple>);
                let mut grid = BitGrid::zeros(bits);
                (0..bits).step_by(7).for_each(|k| grid.set(k));
                sized(&grid);
            }

            /// Hostile input: no decoder panics, and nothing a decoder
            /// returns holds more than a constant multiple of the input.
            #[test]
            fn arbitrary_bytes_never_panic_and_never_over_reserve(
                noise in proptest::collection::vec(any::<u8>(), 0..96),
                pairs in proptest::collection::vec((any::<u32>(), arb_tuple()), 0..6),
                mode in 0u8..3,
                at in any::<usize>()
            ) {
                // Raw noise; noise wrapped in a valid frame, so the payload
                // parsers (not just the checksum) face it; or a well-formed
                // partition payload with one byte overwritten, re-framed.
                let valid = encode_pairs(&pairs);
                let mut bytes = valid[4..valid.len() - 4].to_vec();
                let at = at % bytes.len();
                bytes[at] = noise.first().copied().unwrap_or(0xFF);
                if mode < 2 {
                    bytes = noise;
                }
                let mut input = bytes.clone();
                if mode > 0 {
                    input.clear();
                    frame_encode(&bytes, &mut input);
                }
                let _ = frame_decode(&input);
                if let Ok(pairs) = decode_pairs::<u32, Tuple>(&input) {
                    prop_assert!(pairs.capacity() * <(u32, Tuple)>::MIN_SIZE <= input.len());
                }
                probe::<u8>(&bytes);
                probe::<u16>(&bytes);
                probe::<u32>(&bytes);
                probe::<u64>(&bytes);
                probe::<i32>(&bytes);
                probe::<i64>(&bytes);
                probe::<f32>(&bytes);
                probe::<f64>(&bytes);
                probe::<usize>(&bytes);
                probe::<bool>(&bytes);
                probe::<()>(&bytes);
                probe::<String>(&bytes);
                probe::<Option<Tuple>>(&bytes);
                probe::<(u8, u16, u32)>(&bytes);
                probe::<Tuple>(&bytes);
                probe::<BitGrid>(&bytes);
                if let Some(items) = probe::<Vec<(u32, Tuple)>>(&bytes) {
                    prop_assert!(items.capacity() * <(u32, Tuple)>::MIN_SIZE <= bytes.len());
                }
                if let Some(items) = probe::<Vec<Vec<u8>>>(&bytes) {
                    prop_assert!(items.capacity() * 4 <= bytes.len());
                }
            }

            #[test]
            fn any_single_bit_flip_is_caught(
                pairs in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8),
                bit_seed in any::<u64>()
            ) {
                let frame = encode_pairs(&pairs);
                let bit = (bit_seed % (frame.len() as u64 * 8)) as usize;
                let mut corrupted = frame.clone();
                corrupted[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(
                    decode_pairs::<u32, u64>(&corrupted).is_err(),
                    "bit {} flip went undetected", bit
                );
            }
        }
    }
}
