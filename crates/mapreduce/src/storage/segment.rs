//! Spill segments: sorted, partitioned map output on disk.
//!
//! A segment is one spill of one map attempt. Its partitions are laid
//! out contiguously in reducer order; each partition is a sequence of
//! checksummed frames (the PR 8 shuffle codec, [`skymr_common::bytes`]),
//! every frame wrapping roughly [`super::StorageConfig::io_chunk`] bytes
//! of encoded key/value pairs. Readers therefore verify and buffer one
//! bounded chunk at a time — memory stays O(io_chunk), not O(partition).
//!
//! Alongside `<segment>.seg` the writer persists `<segment>.seg.manifest`
//! (itself one checksummed frame) recording each partition's byte range,
//! frame count, record count, and wire size, so a reader can locate a
//! partition without scanning and tooling can audit spill files offline.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use skymr_common::bytes::{
    decode_pairs, frame_begin, frame_decode_exact, frame_encode, frame_end, FrameError, Wire,
    WireCursor, FRAME_OVERHEAD,
};
use skymr_common::ByteSized;

/// A storage-plane failure: host I/O or frame verification.
#[derive(Debug)]
pub enum StorageError {
    /// The host filesystem failed underneath the storage plane.
    Io {
        /// What the plane was doing.
        context: &'static str,
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
    pub(crate) fn io(context: &'static str, source: std::io::Error) -> Self {
        Self::Io { context, source }
    }

    pub(crate) fn frame(context: &'static str, source: FrameError) -> Self {
        Self::Frame { context, source }
    }

    /// `true` iff this is data corruption (checksum/structure), which the
    /// engine routes into the re-fetch → re-execute recovery ladder
    /// rather than the generic retry path.
    pub fn is_corruption(&self) -> bool {
        matches!(self, Self::Frame { .. })
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { context, source } => write!(f, "storage I/O ({context}): {source}"),
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
    /// Wire-size accounting of the pairs ([`ByteSized`]) — the same
    /// figure the in-memory engine charges the shuffle model, kept so
    /// spilling never changes simulated network accounting.
    pub wire_bytes: u64,
}

/// One spill file: its path plus per-partition manifest.
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

    /// Path of the segment's manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        manifest_path_for(&self.path)
    }

    /// Reloads a segment's manifest from disk (tooling and tests; the
    /// engine keeps manifests in memory).
    pub fn read_manifest(seg_path: &Path) -> Result<Self, StorageError> {
        let bytes = std::fs::read(manifest_path_for(seg_path))
            .map_err(|e| StorageError::io("read manifest", e))?;
        let payload = frame_decode_exact(&bytes).map_err(|e| StorageError::frame("manifest", e))?;
        let mut r = WireCursor::new(payload);
        let parse = |r: &mut WireCursor<'_>| -> Option<Vec<PartitionMeta>> {
            let count = u32::wire_decode(r)? as usize;
            // 36 = the encoded size of one entry below (8 + 8 + 4 + 8 + 8).
            let mut parts = Vec::with_capacity(r.capacity_for(count, 36));
            for _ in 0..count {
                parts.push(PartitionMeta {
                    offset: u64::wire_decode(r)?,
                    len: u64::wire_decode(r)?,
                    frames: u32::wire_decode(r)?,
                    records: u64::wire_decode(r)?,
                    wire_bytes: u64::wire_decode(r)?,
                });
            }
            r.is_empty().then_some(parts)
        };
        let parts = parse(&mut r).ok_or(StorageError::Frame {
            context: "manifest",
            source: FrameError::Malformed,
        })?;
        Ok(Self {
            path: seg_path.to_owned(),
            parts,
        })
    }

    fn write_manifest(&self) -> Result<(), StorageError> {
        let mut payload = Vec::new();
        (self.parts.len() as u32).wire_encode(&mut payload);
        for p in &self.parts {
            p.offset.wire_encode(&mut payload);
            p.len.wire_encode(&mut payload);
            p.frames.wire_encode(&mut payload);
            p.records.wire_encode(&mut payload);
            p.wire_bytes.wire_encode(&mut payload);
        }
        let mut framed = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
        frame_encode(&payload, &mut framed);
        std::fs::write(self.manifest_path(), framed)
            .map_err(|e| StorageError::io("write manifest", e))
    }
}

pub(super) fn manifest_path_for(seg_path: &Path) -> PathBuf {
    let mut os = seg_path.as_os_str().to_owned();
    os.push(".manifest");
    PathBuf::from(os)
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
        let file = File::create(&path).map_err(|e| StorageError::io("create segment", e))?;
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
    /// the chunk budget fills. Registered hot: per-record work is bounds
    /// checks and buffer extends into pre-reserved scratch buffers; the
    /// frame flush runs once per `io_chunk` bytes.
    // xtask: hot
    pub fn push(&mut self, k: &K, v: &V) -> Result<(), StorageError> {
        k.wire_encode(&mut self.frame);
        v.wire_encode(&mut self.frame);
        self.chunk_pairs += 1;
        self.cur.records += 1;
        self.cur.wire_bytes += k.byte_size() + v.byte_size();
        if self.frame.len() - COUNT_AT >= self.io_chunk {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// Closes the current partition: flushes its tail chunk and records
    /// its manifest entry. Partitions must be closed in reducer order;
    /// an empty partition yields a zero-length byte range (no frames).
    pub fn end_partition(&mut self) -> Result<(), StorageError> {
        if self.chunk_pairs > 0 {
            self.flush_chunk()?;
        }
        let next = empty_meta(self.offset);
        self.parts.push(std::mem::replace(&mut self.cur, next));
        Ok(())
    }

    /// Flushes the file, writes the manifest, and returns the segment.
    pub fn finish(mut self) -> Result<Segment, StorageError> {
        self.file
            .flush()
            .map_err(|e| StorageError::io("flush segment", e))?;
        let segment = Segment {
            path: self.path,
            parts: self.parts,
        };
        segment.write_manifest()?;
        Ok(segment)
    }

    fn flush_chunk(&mut self) -> Result<(), StorageError> {
        self.frame[COUNT_AT..][..4].copy_from_slice(&self.chunk_pairs.to_le_bytes());
        frame_end(&mut self.frame, 0);
        self.file
            .write_all(&self.frame)
            .map_err(|e| StorageError::io("write segment frame", e))?;
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
        wire_bytes: 0,
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
        let meta = segment.parts.get(part).ok_or(StorageError::Frame {
            context: "open partition",
            source: FrameError::Malformed,
        })?;
        let file = File::open(&segment.path).map_err(|e| StorageError::io("open segment", e))?;
        let mut file = BufReader::new(file);
        file.seek(SeekFrom::Start(meta.offset))
            .map_err(|e| StorageError::io("seek partition", e))?;
        Ok(Self {
            file,
            remaining: meta.len,
            framed: Vec::new(),
            chunk: Vec::new().into_iter(),
        })
    }

    /// Yields the next pair, or `None` at end of partition.
    ///
    /// # Errors
    ///
    /// Host I/O failures and checksum/structure corruption
    /// ([`StorageError::is_corruption`]).
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

    /// Reads and verifies the next frame, decoding its pairs.
    fn refill(&mut self) -> Result<(), StorageError> {
        read_frame(&mut self.file, &mut self.remaining, &mut self.framed)?;
        let pairs =
            decode_pairs::<K, V>(&self.framed).map_err(|e| StorageError::frame("read chunk", e))?;
        self.chunk = pairs.into_iter();
        Ok(())
    }
}

/// Reads one full frame (header, payload, checksum) from `file` into
/// `framed`, bounded by `remaining` partition bytes.
fn read_frame(
    file: &mut BufReader<File>,
    remaining: &mut u64,
    framed: &mut Vec<u8>,
) -> Result<(), StorageError> {
    let truncated = |got: u64| StorageError::Frame {
        context: "read frame",
        source: FrameError::Truncated {
            needed: FRAME_OVERHEAD,
            got: got as usize,
        },
    };
    // A file shorter than its manifest claims is at-rest corruption
    // (truncation), not a host I/O fault — route it into the recovery
    // ladder like a checksum mismatch.
    let eof_is_truncation = |got: u64| {
        move |e: std::io::Error| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                truncated(got)
            } else {
                StorageError::io("read frame", e)
            }
        }
    };
    if *remaining < 4 {
        return Err(truncated(*remaining));
    }
    let mut header = [0u8; 4];
    file.read_exact(&mut header)
        .map_err(eof_is_truncation(*remaining))?;
    let len = u32::from_le_bytes(header) as u64;
    let total = len + FRAME_OVERHEAD as u64;
    if *remaining < total {
        return Err(truncated(*remaining));
    }
    framed.clear();
    framed.extend_from_slice(&header);
    framed.resize(total as usize, 0);
    file.read_exact(&mut framed[4..])
        .map_err(eof_is_truncation(*remaining))?;
    *remaining -= total;
    Ok(())
}

/// Checksum-verifies every frame of one partition without decoding pairs —
/// the shuffle-phase integrity scan that decides whether a partition
/// enters the re-fetch → re-execute ladder. Registered hot: the inner
/// loop is the CRC32C kernel over reused buffers.
pub fn verify_frames(segment: &Segment, part: usize) -> Result<(), StorageError> {
    let meta = segment.parts.get(part).ok_or(StorageError::Frame {
        context: "verify partition",
        source: FrameError::Malformed,
    })?;
    let file = File::open(&segment.path).map_err(|e| StorageError::io("open segment", e))?;
    let mut file = BufReader::new(file);
    file.seek(SeekFrom::Start(meta.offset))
        .map_err(|e| StorageError::io("seek partition", e))?;
    let mut remaining = meta.len;
    let mut framed = Vec::new();
    let mut frames = 0u32;
    while remaining > 0 {
        read_frame(&mut file, &mut remaining, &mut framed)?;
        frame_decode_exact(&framed).map_err(|e| StorageError::frame("verify frame", e))?;
        frames += 1;
    }
    if frames != meta.frames {
        return Err(StorageError::Frame {
            context: "verify partition",
            source: FrameError::Malformed,
        });
    }
    Ok(())
}

/// Flips one deterministic bit inside a byte range of a file — the
/// at-rest corruption injection used by the fault plan and the chaos
/// suite. The bit index is `bit_seed % (len * 8)` over the range, exactly
/// mirroring the in-memory shuffle-frame injection. Returns the absolute
/// byte offset flipped; calling again with the same arguments restores
/// the original byte (XOR is an involution), which is how a transient
/// fault's clean re-fetch is modeled.
pub fn flip_bit(path: &Path, offset: u64, len: u64, bit_seed: u64) -> Result<u64, StorageError> {
    assert!(len > 0, "cannot corrupt an empty byte range");
    let bit = bit_seed % (len * 8);
    let at = offset + bit / 8;
    let mask = 1u8 << (bit % 8);
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| StorageError::io("open for corruption", e))?;
    file.seek(SeekFrom::Start(at))
        .map_err(|e| StorageError::io("seek for corruption", e))?;
    let mut byte = [0u8; 1];
    file.read_exact(&mut byte)
        .map_err(|e| StorageError::io("read for corruption", e))?;
    byte[0] ^= mask;
    file.seek(SeekFrom::Start(at))
        .map_err(|e| StorageError::io("seek for corruption", e))?;
    file.write_all(&byte)
        .map_err(|e| StorageError::io("write corruption", e))?;
    Ok(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skymr-segtest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("test dir");
        dir.join(name)
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
        let seg = write_segment(tmp("round.seg"), &parts, 256).expect("write");
        assert_eq!(seg.parts.len(), 3);
        assert_eq!(seg.parts[0].records, 500);
        assert!(seg.parts[0].frames > 1, "chunking must split 500 pairs");
        assert_eq!(seg.parts[1].records, 0);
        assert_eq!(seg.parts[1].len, 0);
        for (j, expect) in parts.iter().enumerate() {
            let mut r: PartitionReader<u64, String> = PartitionReader::open(&seg, j).expect("open");
            let mut got = Vec::new();
            while let Some(pair) = r.next_pair().expect("read") {
                got.push(pair);
            }
            assert_eq!(&got, expect, "partition {j}");
            verify_frames(&seg, j).expect("verify");
        }
    }

    /// The on-disk format is frozen by test: file and manifest bytes were
    /// captured from the writer as of commit 3b5523e (two buffers per
    /// chunk, byte-at-a-time CRC) and the single-buffer writer must
    /// reproduce them — same chunk boundaries, same frames, same manifest.
    #[test]
    fn segment_and_manifest_match_golden_bytes_captured_at_the_parent() {
        use skymr_common::Tuple;
        let tuple = |i: u32| Tuple::new(u64::from(i), vec![f64::from(i) / 16.0, 0.5]);
        let parts: Vec<Vec<(u32, Tuple)>> = vec![
            (0..9u32).map(|i| (i / 3, tuple(i))).collect(),
            vec![(7, Tuple::new(100, vec![0.875, 0.125]))],
        ];
        let seg = write_segment(tmp("golden.seg"), &parts, 96).expect("write");
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
        assert_eq!(
            hex(std::fs::read(seg.manifest_path()).expect("manifest")),
            "4c00000002000000000000000000000044010000000000000300000009000000\
             00000000200100000000000044010000000000002c0000000000000001000000\
             0100000000000000200000000000000072760a5b"
        );
        let meta = |offset, len, frames, records, wire_bytes| PartitionMeta {
            offset,
            len,
            frames,
            records,
            wire_bytes,
        };
        assert_eq!(
            seg.parts,
            [meta(0, 324, 3, 9, 288), meta(324, 44, 1, 1, 32)]
        );
        for j in 0..2 {
            verify_frames(&seg, j).expect("verify");
        }
    }

    #[test]
    fn manifest_round_trips() {
        let seg = write_segment(tmp("mani.seg"), &sample_parts(), 128).expect("write");
        let loaded = Segment::read_manifest(&seg.path).expect("manifest");
        assert_eq!(loaded.parts, seg.parts);
    }

    #[test]
    fn wire_bytes_match_bytesized_accounting() {
        let parts = sample_parts();
        let seg = write_segment(tmp("acct.seg"), &parts, 256).expect("write");
        for (j, pairs) in parts.iter().enumerate() {
            let expect: u64 = pairs
                .iter()
                .map(|(k, v)| k.byte_size() + v.byte_size())
                .sum();
            assert_eq!(seg.parts[j].wire_bytes, expect, "partition {j}");
        }
    }

    #[test]
    fn flipped_bit_fails_verification_and_restores() {
        let parts = sample_parts();
        let seg = write_segment(tmp("flip.seg"), &parts, 256).expect("write");
        let meta = seg.parts[0].clone();
        flip_bit(&seg.path, meta.offset, meta.len, 0xBADC0DE).expect("flip");
        let err = verify_frames(&seg, 0).expect_err("must detect corruption");
        assert!(err.is_corruption(), "{err}");
        // Reading routes the same detection through the decode path.
        let mut r: PartitionReader<u64, String> = PartitionReader::open(&seg, 0).expect("open");
        let read_err = loop {
            match r.next_pair() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("corruption not detected by reader"),
                Err(e) => break e,
            }
        };
        assert!(read_err.is_corruption());
        // Untouched partitions still verify.
        verify_frames(&seg, 2).expect("partition 2 clean");
        // Flip back: everything verifies again.
        flip_bit(&seg.path, meta.offset, meta.len, 0xBADC0DE).expect("restore");
        verify_frames(&seg, 0).expect("restored");
    }

    #[test]
    fn truncated_segment_is_corruption_not_panic() {
        let seg = write_segment(tmp("trunc.seg"), &sample_parts(), 256).expect("write");
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
        assert!(err.is_corruption(), "{err}");
    }
}
