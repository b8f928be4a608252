//! Spill segments: sorted, partitioned map output on disk.
//!
//! A segment is one spill of one map attempt. Its partitions are laid
//! out contiguously in reducer order; each partition is a sequence of
//! checksummed frames (the PR 8 shuffle codec, [`skymr_common::bytes`]),
//! every frame wrapping roughly [`super::StorageConfig::io_chunk`] bytes
//! of encoded key/value pairs. Readers therefore verify and buffer one
//! bounded chunk at a time — memory stays O(io_chunk), not O(partition).
//!
//! A spill is one file. Each partition's byte range, frame count, record
//! count and wire size live on the in-memory [`Segment`] the writer
//! returns, which is all a reader needs to locate a partition without
//! scanning — as Hadoop keeps a spill's partition index in memory and
//! writes `spill<N>.out.index` only when its index cache overflows.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use skymr_common::bytes::{decode_pairs, frame_begin, frame_end, FrameError, Wire, FRAME_OVERHEAD};
use skymr_common::ByteSized;

/// A storage-plane failure: host I/O or frame verification.
#[derive(Debug)]
pub enum StorageError {
    /// The host filesystem failed underneath the storage plane.
    Io {
        /// What the plane was doing.
        context: &'static str,
        /// The file or directory it was doing it to.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// A frame failed checksum or structural verification — the spill
    /// data was corrupted at rest.
    Frame {
        /// What the plane was doing.
        context: &'static str,
        /// The verification failure.
        source: FrameError,
    },
}

impl StorageError {
    pub(crate) fn io(context: &'static str, path: &Path, source: std::io::Error) -> Self {
        let path = path.to_path_buf();
        Self::Io {
            context,
            path,
            source,
        }
    }

    pub(crate) fn frame(context: &'static str, source: FrameError) -> Self {
        Self::Frame { context, source }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io {
                context,
                path,
                source,
            } => write!(f, "storage I/O ({context} {}): {source}", path.display()),
            Self::Frame { context, source } => {
                write!(f, "spill data corrupt ({context}): {source}")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Byte range and accounting of one partition within a segment file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMeta {
    /// Byte offset of the partition's first frame within the file.
    pub offset: u64,
    /// Total on-disk bytes of the partition (all frames, headers and
    /// checksums included).
    pub len: u64,
    /// Number of frames in the partition.
    pub frames: u32,
    /// Number of key/value pairs in the partition.
    pub records: u64,
}

/// One spill file: its path plus the partition directory, kept in memory.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The `.seg` file.
    pub path: PathBuf,
    /// Partition directory, indexed by reducer.
    pub parts: Vec<PartitionMeta>,
}

impl Segment {
    /// Total on-disk bytes across all partitions.
    pub fn disk_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.len).sum()
    }

    /// Opens the file at partition `part`'s first frame: the one lookup,
    /// open and seek behind every read of a partition.
    pub fn open_partition(
        &self,
        part: usize,
    ) -> Result<(BufReader<File>, &PartitionMeta), StorageError> {
        let meta = self.parts.get(part).ok_or(StorageError::Frame {
            context: "open partition",
            source: FrameError::Malformed,
        })?;
        let io = |context| move |e| StorageError::io(context, &self.path, e);
        let file = File::open(&self.path).map_err(io("open segment"))?;
        let mut file = BufReader::new(file);
        file.seek(SeekFrom::Start(meta.offset))
            .map_err(io("seek partition"))?;
        Ok((file, meta))
    }
}

/// Streaming writer for one segment: partitions are written in order,
/// pairs within a partition in (already sorted) caller order, chunked
/// into checksummed frames of roughly `io_chunk` payload bytes.
#[derive(Debug)]
pub struct SegmentWriter<K, V> {
    file: BufWriter<File>,
    path: PathBuf,
    io_chunk: usize,
    parts: Vec<PartitionMeta>,
    offset: u64,
    /// The current chunk, assembled in place as the frame it is written
    /// as: length prefix and pair count (both back-patched at flush), then
    /// pair encodings; the checksum is appended at flush. Reused across
    /// chunks and partitions.
    frame: Vec<u8>,
    chunk_pairs: u32,
    cur: PartitionMeta,
    _kv: PhantomData<(K, V)>,
}

impl<K: Wire + ByteSized, V: Wire + ByteSized> SegmentWriter<K, V> {
    /// Opens `path` for writing.
    pub fn create(path: PathBuf, io_chunk: usize) -> Result<Self, StorageError> {
        let file = File::create(&path).map_err(|e| StorageError::io("create segment", &path, e))?;
        let mut frame = Vec::with_capacity(io_chunk + 1024);
        frame_begin(&mut frame);
        frame.extend_from_slice(&[0u8; 4]);
        Ok(Self {
            file: BufWriter::new(file),
            path,
            io_chunk: io_chunk.max(1),
            parts: Vec::new(),
            offset: 0,
            frame,
            chunk_pairs: 0,
            cur: empty_meta(0),
            _kv: PhantomData,
        })
    }

    /// Appends one pair to the current partition, flushing a frame when
    /// the chunk budget fills. Per-record work is bounds checks and buffer
    /// extends into pre-reserved scratch buffers, no allocation
    /// (`tests/alloc.rs`); the frame flush runs once per `io_chunk` bytes.
    pub fn push(&mut self, k: &K, v: &V) -> Result<(), StorageError> {
        let start = self.frame.len();
        k.wire_encode(&mut self.frame);
        v.wire_encode(&mut self.frame);
        debug_assert_eq!(
            (self.frame.len() - start) as u64,
            k.byte_size() + v.byte_size(),
            "ByteSized ≠ Wire length"
        );
        self.pushed()
    }

    /// [`Self::push`] for a pair already encoded: `pair` is one key's
    /// `Wire` encoding followed by its value's, as a map attempt's output
    /// buffer holds them, and lands in the segment byte for byte as
    /// `push` would have written it.
    pub fn push_encoded(&mut self, pair: &[u8]) -> Result<(), StorageError> {
        self.frame.extend_from_slice(pair);
        self.pushed()
    }

    /// Counts the pair just appended to the chunk and flushes the chunk
    /// once it reaches the budget.
    fn pushed(&mut self) -> Result<(), StorageError> {
        self.chunk_pairs += 1;
        self.cur.records += 1;
        if self.frame.len() - COUNT_AT >= self.io_chunk {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Closes the current partition: flushes its tail chunk and records
    /// its directory entry. Partitions must be closed in reducer order;
    /// an empty partition yields a zero-length byte range (no frames).
    pub fn end_partition(&mut self) -> Result<(), StorageError> {
        if self.chunk_pairs > 0 {
            self.flush_chunk()?;
        }
        let next = empty_meta(self.offset);
        self.parts.push(std::mem::replace(&mut self.cur, next));
        Ok(())
    }

    /// Flushes the file and returns the segment.
    pub fn finish(mut self) -> Result<Segment, StorageError> {
        self.file
            .flush()
            .map_err(|e| StorageError::io("flush segment", &self.path, e))?;
        Ok(Segment {
            path: self.path,
            parts: self.parts,
        })
    }

    fn flush_chunk(&mut self) -> Result<(), StorageError> {
        self.frame[COUNT_AT..][..4].copy_from_slice(&self.chunk_pairs.to_le_bytes());
        frame_end(&mut self.frame, 0);
        self.file
            .write_all(&self.frame)
            .map_err(|e| StorageError::io("write segment frame", &self.path, e))?;
        self.offset += self.frame.len() as u64;
        self.cur.len += self.frame.len() as u64;
        self.cur.frames += 1;
        self.frame.truncate(COUNT_AT + 4);
        self.chunk_pairs = 0;
        Ok(())
    }
}

/// Offset of the u32 pair count within a chunk's frame: right after the
/// u32 length prefix, where the payload starts.
const COUNT_AT: usize = 4;

fn empty_meta(offset: u64) -> PartitionMeta {
    PartitionMeta {
        offset,
        len: 0,
        frames: 0,
        records: 0,
    }
}

/// Writes a fully materialized, already sorted+partitioned map output as
/// one segment (the common spill path: sort/partition in memory under
/// the budget, stream to disk).
pub fn write_segment<K: Wire + ByteSized, V: Wire + ByteSized>(
    path: PathBuf,
    parts: &[Vec<(K, V)>],
    io_chunk: usize,
) -> Result<Segment, StorageError> {
    let mut w = SegmentWriter::create(path, io_chunk)?;
    for pairs in parts {
        for (k, v) in pairs {
            w.push(k, v)?;
        }
        w.end_partition()?;
    }
    w.finish()
}

/// Streams one partition of a segment: frames are read, checksum-verified
/// and decoded one at a time, so peak memory is one chunk.
#[derive(Debug)]
pub struct PartitionReader<K, V> {
    file: BufReader<File>,
    /// The segment file, named in I/O errors.
    path: PathBuf,
    /// On-disk bytes of the partition not yet consumed.
    remaining: u64,
    /// Reused frame buffer.
    framed: Vec<u8>,
    /// Decoded pairs of the current chunk.
    chunk: std::vec::IntoIter<(K, V)>,
}

impl<K: Wire, V: Wire> PartitionReader<K, V> {
    /// Opens partition `part` of `segment` (one seek).
    pub fn open(segment: &Segment, part: usize) -> Result<Self, StorageError> {
        let (file, meta) = segment.open_partition(part)?;
        Ok(Self {
            file,
            path: segment.path.clone(),
            remaining: meta.len,
            framed: Vec::new(),
            chunk: Vec::new().into_iter(),
        })
    }

    /// Yields the next pair, or `None` at end of partition.
    ///
    /// # Errors
    ///
    /// Host I/O failures ([`StorageError::Io`]) and checksum/structure
    /// corruption ([`StorageError::Frame`]).
    pub fn next_pair(&mut self) -> Result<Option<(K, V)>, StorageError> {
        loop {
            if let Some(pair) = self.chunk.next() {
                return Ok(Some(pair));
            }
            if self.remaining == 0 {
                return Ok(None);
            }
            self.refill()?;
        }
    }

    /// Reads and verifies the next frame — header, payload, checksum,
    /// bounded by the partition bytes remaining — and decodes its pairs.
    fn refill(&mut self) -> Result<(), StorageError> {
        let (path, remaining) = (&self.path, self.remaining);
        let truncated = |needed: u64| StorageError::Frame {
            context: "read frame",
            source: FrameError::Truncated {
                needed: needed as usize,
                got: remaining as usize,
            },
        };
        // Bytes that end before the partition's recorded length are at-rest
        // corruption (truncation), not a host I/O fault — route them into
        // the recovery ladder like a checksum mismatch.
        let eof_is_truncation = |needed: u64| {
            move |e: std::io::Error| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => truncated(needed),
                _ => StorageError::io("read frame", path, e),
            }
        };
        let overhead = FRAME_OVERHEAD as u64;
        if remaining < 4 {
            return Err(truncated(overhead));
        }
        let mut header = [0u8; 4];
        let read = self.file.read_exact(&mut header);
        read.map_err(eof_is_truncation(overhead))?;
        // From here on the frame's full length is known, and is what a
        // short partition falls short of.
        let total = u64::from(u32::from_le_bytes(header)) + overhead;
        if remaining < total {
            return Err(truncated(total));
        }
        self.framed.clear();
        self.framed.extend_from_slice(&header);
        self.framed.resize(total as usize, 0);
        let read = self.file.read_exact(&mut self.framed[4..]);
        read.map_err(eof_is_truncation(total))?;
        self.remaining -= total;
        let pairs =
            decode_pairs::<K, V>(&self.framed).map_err(|e| StorageError::frame("read chunk", e))?;
        self.chunk = pairs.into_iter();
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use skymr_common::bytes::PAIRS_OVERHEAD;

    /// Flips bit `seed % (len·8)` of the byte range `offset..offset +
    /// len` of the file at `path`: bytes rotting at rest behind the
    /// engine's back. Rotting the same range with the same seed again
    /// restores the file.
    pub(crate) fn rot(path: &Path, offset: u64, len: u64, seed: u64) {
        let mut bytes = std::fs::read(path).expect("file to rot");
        let bit = seed % (len * 8);
        bytes[(offset + bit / 8) as usize] ^= 1 << (bit % 8);
        std::fs::write(path, bytes).expect("rotted file");
    }

    /// Every pair of partition `part`, streamed through a
    /// [`PartitionReader`] — which CRC-checks each frame it reads.
    fn read_all<K: Wire, V: Wire>(
        segment: &Segment,
        part: usize,
    ) -> Result<Vec<(K, V)>, StorageError> {
        let mut reader = PartitionReader::open(segment, part)?;
        let mut pairs = Vec::new();
        while let Some(pair) = reader.next_pair()? {
            pairs.push(pair);
        }
        Ok(pairs)
    }

    /// A directory of the test's own, removed with its files on drop:
    /// tests run in parallel, so a shared one could vanish under a sibling.
    fn tmp() -> crate::storage::SpillSession {
        let storage = crate::storage::StorageConfig::default();
        crate::storage::SpillSession::create(&storage, "segtest").expect("test dir")
    }

    fn sample_parts() -> Vec<Vec<(u64, String)>> {
        vec![
            (0..500u64).map(|i| (i, format!("v{i}"))).collect(),
            Vec::new(),
            (0..3u64).map(|i| (i * 7, "x".repeat(i as usize))).collect(),
        ]
    }

    #[test]
    fn segment_round_trips_all_partitions() {
        let parts = sample_parts();
        let dir = tmp();
        let seg = write_segment(dir.dir().join("round.seg"), &parts, 256).expect("write");
        assert_eq!(seg.parts.len(), 3);
        assert_eq!(seg.parts[0].records, 500);
        assert!(seg.parts[0].frames > 1, "chunking must split 500 pairs");
        assert_eq!(seg.parts[1].records, 0);
        assert_eq!(seg.parts[1].len, 0);
        for (j, expect) in parts.iter().enumerate() {
            let got: Vec<(u64, String)> = read_all(&seg, j).expect("read");
            assert_eq!(&got, expect, "partition {j}");
        }
    }

    /// The on-disk format is frozen by test: the file's bytes and the
    /// partition directory were captured from the writer as of commit
    /// 3b5523e (two buffers per chunk, byte-at-a-time CRC) and the
    /// single-buffer writer must reproduce them — same chunk boundaries,
    /// same frames, same directory.
    #[test]
    fn segment_and_partition_directory_match_golden_bytes_captured_at_the_parent() {
        use skymr_common::Tuple;
        let tuple = |i: u32| Tuple::new(u64::from(i), vec![f64::from(i) / 16.0, 0.5]);
        let parts: Vec<Vec<(u32, Tuple)>> = vec![
            (0..9u32).map(|i| (i / 3, tuple(i))).collect(),
            vec![(7, Tuple::new(100, vec![0.875, 0.125]))],
        ];
        let dir = tmp();
        let seg = write_segment(dir.dir().join("golden.seg"), &parts, 96).expect("write");
        let hex = |bytes: Vec<u8>| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        assert_eq!(
            hex(std::fs::read(&seg.path).expect("segment")),
            "6400000003000000000000000000000000000000020000000000000000000000\
             000000000000e03f00000000010000000000000002000000000000000000b03f\
             000000000000e03f00000000020000000000000002000000000000000000c03f\
             000000000000e03f924aafc06400000003000000010000000300000000000000\
             02000000000000000000c83f000000000000e03f010000000400000000000000\
             02000000000000000000d03f000000000000e03f010000000500000000000000\
             02000000000000000000d43f000000000000e03fec21fb046400000003000000\
             02000000060000000000000002000000000000000000d83f000000000000e03f\
             02000000070000000000000002000000000000000000dc3f000000000000e03f\
             02000000080000000000000002000000000000000000e03f000000000000e03f\
             2a1085fb24000000010000000700000064000000000000000200000000000000\
             0000ec3f000000000000c03f82140f23"
        );
        let meta = |offset, len, frames, records| PartitionMeta {
            offset,
            len,
            frames,
            records,
        };
        assert_eq!(seg.parts, [meta(0, 324, 3, 9), meta(324, 44, 1, 1)]);
        for (j, pairs) in parts.iter().enumerate() {
            assert_eq!(&read_all::<u32, Tuple>(&seg, j).expect("read"), pairs);
        }
    }

    #[test]
    fn wire_bytes_match_bytesized_accounting() {
        let parts = sample_parts();
        let dir = tmp();
        let seg = write_segment(dir.dir().join("acct.seg"), &parts, 256).expect("write");
        for (j, pairs) in parts.iter().enumerate() {
            let expect: u64 = pairs
                .iter()
                .map(|(k, v)| k.byte_size() + v.byte_size())
                .sum();
            let framing = u64::from(seg.parts[j].frames) * PAIRS_OVERHEAD as u64;
            assert_eq!(seg.parts[j].len, expect + framing, "partition {j}");
        }
    }

    #[test]
    fn flipped_bit_fails_verification_and_restores() {
        let parts = sample_parts();
        let dir = tmp();
        let seg = write_segment(dir.dir().join("flip.seg"), &parts, 256).expect("write");
        let meta = seg.parts[0].clone();
        rot(&seg.path, meta.offset, meta.len, 0xBADC0DE);
        let err = read_all::<u64, String>(&seg, 0).expect_err("must detect corruption");
        assert!(matches!(err, StorageError::Frame { .. }), "{err}");
        // Untouched partitions still read.
        assert_eq!(read_all(&seg, 2).expect("partition 2 clean"), parts[2]);
        // Flip back: everything reads again.
        rot(&seg.path, meta.offset, meta.len, 0xBADC0DE);
        assert_eq!(read_all(&seg, 0).expect("restored"), parts[0]);
    }

    proptest! {
        /// Any single-bit flip anywhere in a multi-frame partition fails
        /// the reader's frame check — an error, never a panic and never a
        /// silently wrong pair.
        #[test]
        fn any_bit_flip_in_a_partition_fails_the_reader(
            pairs in proptest::collection::vec((any::<u64>(), any::<u64>()), 20..120),
            seed in any::<u64>(),
        ) {
            let dir = tmp();
            let parts = vec![Vec::new(), pairs];
            let seg = write_segment(dir.dir().join("prop.seg"), &parts, 64).expect("write");
            let meta = &seg.parts[1];
            prop_assert!(meta.frames > 1, "{} frame(s)", meta.frames);
            rot(&seg.path, meta.offset, meta.len, seed);
            let read = std::panic::catch_unwind(|| read_all::<u64, u64>(&seg, 1));
            let read = read.map_err(|_| "the reader panicked");
            prop_assert!(
                matches!(read, Ok(Err(StorageError::Frame { .. }))),
                "{:?}", read
            );
        }
    }

    #[test]
    fn truncated_segment_is_a_frame_error_not_a_panic() {
        let dir = tmp();
        let seg = write_segment(dir.dir().join("trunc.seg"), &sample_parts(), 256).expect("write");
        let full = std::fs::read(&seg.path).expect("read");
        std::fs::write(&seg.path, &full[..full.len() - 3]).expect("truncate");
        let mut r: PartitionReader<u64, String> = PartitionReader::open(&seg, 2).expect("open");
        let err = loop {
            match r.next_pair() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("truncation not detected"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, StorageError::Frame { .. }), "{err}");
    }

    /// A partition that ends inside a frame falls short of that frame's
    /// full length, not of the length prefix it already read.
    #[test]
    fn a_frame_past_its_partition_needs_its_full_length() {
        let dir = tmp();
        let mut seg =
            write_segment(dir.dir().join("short.seg"), &sample_parts(), 256).expect("write");
        let bytes = std::fs::read(&seg.path).expect("read");
        let prefix: [u8; 4] = bytes[..4].try_into().expect("a length prefix");
        let total = u32::from_le_bytes(prefix) as usize + FRAME_OVERHEAD;
        seg.parts[0].len = 10;
        let mut r: PartitionReader<u64, String> = PartitionReader::open(&seg, 0).expect("open");
        let err = r
            .next_pair()
            .expect_err("the frame runs past the partition");
        let StorageError::Frame {
            source: FrameError::Truncated { needed, got },
            ..
        } = err
        else {
            panic!("not a truncation: {err}");
        };
        assert_eq!((needed, got), (total, 10));
    }

    /// A host I/O failure names the file it failed on.
    #[test]
    fn io_errors_name_their_path() {
        let dir = tmp();
        let path = dir.dir().join("missing").join("x.seg");
        let err = write_segment(path.clone(), &sample_parts(), 256).expect_err("no such directory");
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        let shown = err.to_string();
        assert!(shown.starts_with("storage I/O (create segment "), "{shown}");
        assert!(shown.contains(&*path.to_string_lossy()), "{shown}");
    }
}
