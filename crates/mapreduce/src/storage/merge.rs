//! K-way merge: feeds every reducer from its runs in streaming sorted
//! order.
//!
//! A reducer's input is a list of *runs* — pairs sorted by key, values in
//! map-emission order. A run is either in memory (the decoded frame of a
//! map bucket that never spilled) or one partition of an on-disk spill
//! segment; the merge does not care which. It consumes runs in a fixed
//! priority order (map index, then spill sequence) and breaks key ties by
//! run priority, so the `(key, value-list)` stream a reducer sees is
//! byte-for-byte what appending the runs into a `BTreeMap` in priority
//! order would group (the reference the property tests compare against):
//! spilling is a memory-footprint change, never an output change.
//!
//! Disk runs each hold an open file, so when more of them than the
//! configured fan-in (Hadoop's `io.sort.factor`) feed one reducer,
//! intermediate passes merge a prefix of the list into a new on-disk run
//! (prepended, preserving global priority order) until one final
//! streaming pass suffices — the classic external merge-sort cascade,
//! with every pass's bytes and seeks charged to the disk cost model.
//! Memory runs hold no handle and never count against the fan-in: a job
//! that never spilled merges all its runs in one pass and touches no disk.

use skymr_common::{ByteSized, Wire};

use super::segment::{PartitionReader, Segment, SegmentWriter, StorageError};
use super::SpillSession;

/// One input run for the merge, in priority order.
#[derive(Debug)]
pub enum RunSource<K, V> {
    /// An in-memory run (the decoded frame of a map bucket that never
    /// spilled), already sorted by key.
    Mem(Vec<(K, V)>),
    /// One partition of an on-disk spill segment.
    Disk {
        /// The spill segment.
        segment: Segment,
        /// Partition (reducer) index within the segment.
        part: usize,
    },
}

impl<K, V> RunSource<K, V> {
    /// Pairs in the run (for a disk run a manifest fact — nothing is read).
    pub(crate) fn records(&self) -> u64 {
        match self {
            RunSource::Mem(pairs) => pairs.len() as u64,
            RunSource::Disk { segment, part } => segment.parts.get(*part).map_or(0, |m| m.records),
        }
    }

    fn disk_bytes(&self) -> u64 {
        match self {
            RunSource::Mem(_) => 0,
            RunSource::Disk { segment, part } => segment.parts.get(*part).map_or(0, |m| m.len),
        }
    }

    fn is_disk(&self) -> bool {
        matches!(self, RunSource::Disk { .. })
    }
}

/// Cost accounting for one reducer's external merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Input runs presented to the merge.
    pub runs: u64,
    /// Merge passes executed: every intermediate cascade pass, plus the
    /// final streaming pass whenever at least one disk run feeds it.
    pub passes: u64,
    /// Disk bytes read across all passes.
    pub bytes_read: u64,
    /// Disk bytes written by intermediate passes.
    pub bytes_written: u64,
    /// File opens (modeled seeks) across all passes.
    pub seeks: u64,
}

/// One open run: a pulled head plus its source.
#[derive(Debug)]
struct RunState<K, V> {
    head: Option<(K, V)>,
    source: OpenRun<K, V>,
    exhausted: bool,
}

#[derive(Debug)]
enum OpenRun<K, V> {
    Mem(std::vec::IntoIter<(K, V)>),
    Disk(PartitionReader<K, V>),
}

/// What [`KWayMerge::advance`] observed: the registered-hot buffer-only
/// step either produces a pair, asks the (cold) caller to refill a run
/// from its chunk reader, or reports exhaustion.
enum Step<K, V> {
    Pair(K, V),
    Refill(usize),
    Done,
}

/// Streaming k-way merge over open runs, stable by run priority.
#[derive(Debug)]
pub struct KWayMerge<K, V> {
    runs: Vec<RunState<K, V>>,
    /// Lookahead pair for group assembly.
    peeked: Option<(K, V)>,
}

impl<K: Wire + Ord, V: Wire> KWayMerge<K, V> {
    /// Opens every source (one seek per disk run).
    pub fn open(sources: Vec<RunSource<K, V>>) -> Result<Self, StorageError> {
        let mut runs = Vec::with_capacity(sources.len());
        for s in sources {
            let source = match s {
                RunSource::Mem(pairs) => OpenRun::Mem(pairs.into_iter()),
                RunSource::Disk { segment, part } => {
                    OpenRun::Disk(PartitionReader::open(&segment, part)?)
                }
            };
            runs.push(RunState {
                head: None,
                source,
                exhausted: false,
            });
        }
        Ok(Self { runs, peeked: None })
    }

    /// The buffer-only merge step. Registered hot: a linear scan over at
    /// most `fan_in` run heads, no allocation; chunk decoding happens in
    /// the caller via [`Self::refill`], amortized once per io-chunk.
    // xtask: hot
    fn advance(&mut self) -> Step<K, V> {
        let mut best: Option<usize> = None;
        for (i, r) in self.runs.iter().enumerate() {
            if r.head.is_none() {
                if !r.exhausted {
                    return Step::Refill(i);
                }
                continue;
            }
            // Strict `<` keeps the earliest run on ties: run order is the
            // grouping order the in-memory engine produces.
            best = match best {
                None => Some(i),
                Some(b) if key_of(&self.runs[i]) < key_of(&self.runs[b]) => Some(i),
                keep => keep,
            };
        }
        match best {
            Some(i) => {
                let (k, v) = take_head(&mut self.runs[i]);
                Step::Pair(k, v)
            }
            None => Step::Done,
        }
    }

    /// Pulls the next head of run `i` from its source.
    fn refill(&mut self, i: usize) -> Result<(), StorageError> {
        let r = &mut self.runs[i];
        r.head = match &mut r.source {
            OpenRun::Mem(iter) => iter.next(),
            OpenRun::Disk(reader) => reader.next_pair()?,
        };
        r.exhausted = r.head.is_none();
        Ok(())
    }

    /// Yields the next pair in merged order.
    pub fn next_pair(&mut self) -> Result<Option<(K, V)>, StorageError> {
        if let Some(pair) = self.peeked.take() {
            return Ok(Some(pair));
        }
        loop {
            match self.advance() {
                Step::Pair(k, v) => return Ok(Some((k, v))),
                Step::Done => return Ok(None),
                Step::Refill(i) => self.refill(i)?,
            }
        }
    }

    /// Yields the next `(key, values)` group — the reducer input unit,
    /// keys in sorted order, values in engine grouping order.
    pub fn next_group(&mut self) -> Result<Option<(K, Vec<V>)>, StorageError> {
        let Some((key, first)) = self.next_pair()? else {
            return Ok(None);
        };
        let mut values = vec![first];
        loop {
            match self.next_pair()? {
                Some((k, v)) if k == key => values.push(v),
                Some(pair) => {
                    self.peeked = Some(pair);
                    break;
                }
                None => break,
            }
        }
        Ok(Some((key, values)))
    }
}

fn key_of<K, V>(r: &RunState<K, V>) -> &K {
    match &r.head {
        Some((k, _)) => k,
        // advance() only compares runs whose head it just observed as
        // present; the head cannot disappear between those two reads.
        None => unreachable!("compared run has no head"),
    }
}

fn take_head<K, V>(r: &mut RunState<K, V>) -> (K, V) {
    match r.head.take() {
        Some(pair) => pair,
        None => unreachable!("selected run has no head"),
    }
}

/// Cascades `sources` down to at most `fan_in` disk runs (writing
/// intermediate merged runs into the spill session), then returns the
/// final streaming merge plus the full cost accounting. Only disk runs
/// count against the fan-in; a memory run inside a merged prefix rides
/// along, and a list with no more than `fan_in` disk runs never touches
/// the session.
pub fn external_merge<K: Wire + Ord + ByteSized, V: Wire + ByteSized>(
    session: &SpillSession,
    reduce: usize,
    mut sources: Vec<RunSource<K, V>>,
    fan_in: usize,
    io_chunk: usize,
) -> Result<(KWayMerge<K, V>, MergeStats), StorageError> {
    let fan_in = fan_in.max(2);
    let mut stats = MergeStats {
        runs: sources.len() as u64,
        ..MergeStats::default()
    };
    let mut pass = 0u64;
    while let Some(cut) = cascade_cut(&sources, fan_in) {
        let batch: Vec<RunSource<K, V>> = sources.drain(..cut).collect();
        stats.bytes_read += batch.iter().map(RunSource::disk_bytes).sum::<u64>();
        stats.seeks += batch.iter().filter(|s| s.is_disk()).count() as u64 + 1;
        let path = session.merge_run_path(reduce, pass);
        let mut merged = KWayMerge::open(batch)?;
        let mut w: SegmentWriter<K, V> = SegmentWriter::create(path, io_chunk)?;
        while let Some((k, v)) = merged.next_pair()? {
            w.push(&k, &v)?;
        }
        w.end_partition()?;
        let segment = w.finish()?;
        stats.bytes_written += segment.disk_bytes();
        stats.passes += 1;
        pass += 1;
        // Prepend: the merged run carries the lowest-priority-index pairs
        // and is itself stable, so putting it first preserves the global
        // grouping order.
        sources.insert(0, RunSource::Disk { segment, part: 0 });
    }
    stats.bytes_read += sources.iter().map(RunSource::disk_bytes).sum::<u64>();
    let disk_runs = sources.iter().filter(|s| s.is_disk()).count() as u64;
    stats.seeks += disk_runs;
    if disk_runs > 0 {
        stats.passes += 1;
    }
    Ok((KWayMerge::open(sources)?, stats))
}

/// Where the next cascade pass cuts `sources`: the end of the shortest
/// prefix holding `fan_in` disk runs, or `None` once no more than `fan_in`
/// remain. Merging a prefix (never a gapped selection) is what keeps
/// priority order intact; memory runs inside it ride along.
fn cascade_cut<K, V>(sources: &[RunSource<K, V>], fan_in: usize) -> Option<usize> {
    let disk_runs = sources.iter().enumerate().filter(|(_, s)| s.is_disk());
    let mut ends = disk_runs.map(|(i, _)| i + 1).skip(fan_in - 1);
    let cut = ends.next()?;
    ends.next().map(|_| cut)
}

/// The cost accounting [`external_merge`] will produce for all-disk runs
/// of the given on-disk sizes, computed without touching the disk — a
/// pure function of the manifests and the fan-in, which is what the
/// simulated clock and the trace model charge (attempt replays re-run
/// the same merge; the model charges it once).
pub fn cascade_stats(run_bytes: &[u64], fan_in: usize) -> MergeStats {
    let fan_in = fan_in.max(2);
    let mut stats = MergeStats {
        runs: run_bytes.len() as u64,
        ..MergeStats::default()
    };
    let mut sizes: std::collections::VecDeque<u64> = run_bytes.iter().copied().collect();
    while sizes.len() > fan_in {
        let mut merged = 0u64;
        for _ in 0..fan_in {
            let b = sizes.pop_front().unwrap_or(0);
            stats.bytes_read += b;
            merged += b;
        }
        stats.seeks += fan_in as u64 + 1;
        // Re-framing overhead differs slightly between input and output
        // chunking; the model charges the payload volume.
        stats.bytes_written += merged;
        stats.passes += 1;
        sizes.push_front(merged);
    }
    stats.bytes_read += sizes.iter().sum::<u64>();
    let final_runs = sizes.len() as u64;
    if final_runs > 0 {
        stats.seeks += final_runs;
        stats.passes += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::super::{segment::write_segment, SpillSession, StorageConfig};
    use super::*;

    /// Deterministic pseudo-random keyed pairs (no RNG in unit tests).
    fn scramble(n: u64, salt: u64) -> Vec<(u64, u64)> {
        let mut pairs: Vec<(u64, u64)> = (0..n)
            .map(|i| {
                let h = (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h % 17, i)
            })
            .collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs
    }

    /// The reference grouping: append runs in priority order into a
    /// BTreeMap.
    fn reference_groups(runs: &[Vec<(u64, u64)>]) -> BTreeMap<u64, Vec<u64>> {
        let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for run in runs {
            for (k, v) in run {
                groups.entry(*k).or_default().push(*v);
            }
        }
        groups
    }

    fn drain_groups(mut m: KWayMerge<u64, u64>) -> BTreeMap<u64, Vec<u64>> {
        let mut got = BTreeMap::new();
        let mut last = None;
        while let Some((k, vs)) = m.next_group().expect("merge") {
            assert!(last.map_or(true, |l| l < k), "keys must arrive sorted");
            last = Some(k);
            assert!(got.insert(k, vs).is_none(), "key {k} grouped twice");
        }
        got
    }

    #[test]
    fn merge_equals_in_memory_grouping_across_mixed_runs() {
        let session = SpillSession::create(&StorageConfig::test(), "merge-mixed").expect("session");
        let runs: Vec<Vec<(u64, u64)>> = (0..7).map(|s| scramble(40 + s * 13, s)).collect();
        let mut sources = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            if i % 2 == 0 {
                let seg = write_segment(
                    session.dir().join(format!("run{i}.seg")),
                    std::slice::from_ref(run),
                    128,
                )
                .expect("write");
                sources.push(RunSource::Disk {
                    segment: seg,
                    part: 0,
                });
            } else {
                sources.push(RunSource::Mem(run.clone()));
            }
        }
        let (merge, stats) = external_merge(&session, 0, sources, 3, 128).expect("external merge");
        assert_eq!(stats.runs, 7);
        assert!(stats.passes >= 2, "7 runs over fan-in 3 must cascade");
        assert!(stats.bytes_written > 0);
        assert_eq!(drain_groups(merge), reference_groups(&runs));
    }

    #[test]
    fn single_memory_run_needs_no_disk_pass() {
        let session = SpillSession::create(&StorageConfig::test(), "merge-mem").expect("session");
        let run = scramble(25, 3);
        let (merge, stats) =
            external_merge(&session, 0, vec![RunSource::Mem(run.clone())], 8, 128).expect("merge");
        assert_eq!(stats.passes, 0);
        assert_eq!(stats.bytes_read, 0);
        assert_eq!(drain_groups(merge), reference_groups(&[run]));
        // Nor do many: only disk runs count against the fan-in, so five
        // memory runs over a fan-in of two have nothing to cascade.
        let runs: Vec<Vec<(u64, u64)>> = (0..5).map(|s| scramble(25 + s, s)).collect();
        let sources = runs.iter().cloned().map(RunSource::Mem).collect();
        let (merge, stats) = external_merge(&session, 0, sources, 2, 128).expect("merge");
        assert_eq!((stats.runs, stats.passes, stats.seeks), (5, 0, 0));
        let written = std::fs::read_dir(session.dir()).expect("spill dir").count();
        assert_eq!(written, 0, "no intermediate run may be written");
        assert_eq!(drain_groups(merge), reference_groups(&runs));
    }

    #[test]
    fn tie_break_preserves_run_priority_order() {
        // Same key everywhere: values must come out strictly in run order.
        let runs: Vec<Vec<(u64, u64)>> =
            (0..5).map(|r| vec![(1, r * 10), (1, r * 10 + 1)]).collect();
        let session = SpillSession::create(&StorageConfig::test(), "merge-tie").expect("session");
        let mut sources = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            let seg = write_segment(
                session.dir().join(format!("tie{i}.seg")),
                std::slice::from_ref(run),
                64,
            )
            .expect("write");
            sources.push(RunSource::Disk {
                segment: seg,
                part: 0,
            });
        }
        let (merge, _) = external_merge(&session, 0, sources, 2, 64).expect("merge");
        let groups = drain_groups(merge);
        assert_eq!(groups[&1], vec![0, 1, 10, 11, 20, 21, 30, 31, 40, 41]);
    }

    #[test]
    fn empty_sources_merge_to_nothing() {
        let session = SpillSession::create(&StorageConfig::test(), "merge-empty").expect("session");
        let (merge, stats) =
            external_merge::<u64, u64>(&session, 0, Vec::new(), 4, 64).expect("merge");
        assert_eq!(stats.passes, 0);
        assert!(drain_groups(merge).is_empty());
    }
}
