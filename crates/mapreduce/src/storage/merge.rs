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
//! spilling is a memory-footprint change, never an output change. Because
//! every run is sorted, a key's pairs in one run are one block, and
//! [`KWayMerge::next_group`] assembles a group by draining the smallest
//! head key's block from each run in priority order: one scan of the run
//! heads per group rather than per pair, and the same grouping.
//!
//! Disk runs each hold an open file, so when more of them than the
//! configured fan-in (Hadoop's `io.sort.factor`) feed one reducer,
//! intermediate passes merge groups of them into new on-disk runs until one
//! final streaming pass suffices — the classic external merge-sort cascade,
//! with every pass's bytes and seeks charged to the disk cost model.
//! `cascade_plan` alone says which runs a pass merges; [`external_merge`]
//! executes it and [`cascade_stats`] prices it. Groups are *contiguous* and
//! a merged run takes its group's place, so priority order survives. A
//! level that can reach the fan-in `f` (`n ≤ f²` runs) removes exactly
//! `n − f`: a short first group (Hadoop's `Merger.getPassFactor`), then
//! full groups of `f`, and the runs left over go to the final pass
//! unmerged, so no byte is rewritten twice. (Re-merging a growing prefix,
//! as this module once did, takes as many passes but rewrites the early
//! runs in each: O(n²/f) run-units against at most `n` per level.)
//! Memory runs hold no handle and never count against the fan-in: one
//! between two disk runs of a group rides along, and a job that never
//! spilled merges all its runs in one pass and touches no disk.

use std::path::PathBuf;

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
    /// Pairs in the run (for a disk run read off its [`Segment`] — no
    /// file is touched).
    pub(crate) fn records(&self) -> u64 {
        match self {
            RunSource::Mem(pairs) => pairs.len() as u64,
            RunSource::Disk { segment, part } => segment.parts.get(*part).map_or(0, |m| m.records),
        }
    }

    /// On-disk bytes of a disk run (read off its [`Segment`]); `None` for a
    /// memory run.
    fn disk_bytes(&self) -> Option<u64> {
        match self {
            RunSource::Mem(_) => None,
            RunSource::Disk { segment, part } => segment.parts.get(*part).map(|m| m.len),
        }
    }
}

/// Cost accounting for one reducer's external merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Input runs presented to the merge.
    pub runs: u64,
    /// Merge passes: one per intermediate merge (one group of runs read,
    /// one run written), plus the final streaming pass whenever at least
    /// one disk run feeds it.
    pub passes: u64,
    /// Disk bytes read across all passes.
    pub bytes_read: u64,
    /// Disk bytes written by intermediate passes.
    pub bytes_written: u64,
    /// File opens (modeled seeks) across all passes.
    pub seeks: u64,
}

/// An intermediate merge run, removed when its only reader is done with
/// it — best-effort, like the session's own cleanup.
#[derive(Debug)]
struct TempRun(PathBuf);

impl Drop for TempRun {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
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

/// What [`KWayMerge::advance`] observed: the allocation-free buffer-only
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
    /// Guards of the intermediate runs it reads: they go when it does.
    temps: Vec<Option<TempRun>>,
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
        Ok(Self {
            runs,
            temps: Vec::new(),
        })
    }

    /// The buffer-only merge step: a linear scan over at most `fan_in`
    /// run heads, no allocation (`tests/alloc.rs`); chunk decoding happens
    /// in the caller via [`Self::refill`], amortized once per io-chunk.
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

    /// Whether run `i` has a head, pulling one from its source first if
    /// it has none yet; `false` once the run is exhausted.
    fn pull(&mut self, i: usize) -> Result<bool, StorageError> {
        if self.runs[i].head.is_none() && !self.runs[i].exhausted {
            self.refill(i)?;
        }
        Ok(self.runs[i].head.is_some())
    }

    /// Yields the next pair in merged order.
    pub fn next_pair(&mut self) -> Result<Option<(K, V)>, StorageError> {
        loop {
            match self.advance() {
                Step::Pair(k, v) => return Ok(Some((k, v))),
                Step::Done => return Ok(None),
                Step::Refill(i) => self.refill(i)?,
            }
        }
    }

    /// Yields the next `(key, values)` group — the reducer input unit,
    /// keys in sorted order, values in engine grouping order. Each run is
    /// sorted, so a key's pairs in one run form one block: the group is
    /// the smallest head key's block from every run that has it, drained
    /// in run priority order. That is one scan of the heads per group, not
    /// per pair, and the grouping [`Self::next_pair`] would produce.
    pub fn next_group(&mut self) -> Result<Option<(K, Vec<V>)>, StorageError> {
        // The first run holding the smallest head key: strict `<` keeps
        // the earliest on ties, and every run before it is past the key.
        let mut first: Option<usize> = None;
        for i in 0..self.runs.len() {
            if self.pull(i)?
                && first.map_or(true, |f| key_of(&self.runs[i]) < key_of(&self.runs[f]))
            {
                first = Some(i);
            }
        }
        let Some(first) = first else {
            return Ok(None);
        };
        let (key, value) = take_head(&mut self.runs[first]);
        let mut values = vec![value];
        for i in first..self.runs.len() {
            while self.pull(i)? && *key_of(&self.runs[i]) == key {
                values.push(take_head(&mut self.runs[i]).1);
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

/// Which runs each intermediate pass merges, for `disk_runs` disk runs
/// over `fan_in` (below 2 behaves as 2): per level, the sizes of its
/// groups, consecutive from the front of the list as the level before left
/// it (each group collapsed to one run in place); runs past the last group
/// are not touched. After the last level at most `fan_in` runs remain.
fn cascade_plan(disk_runs: usize, fan_in: usize) -> Vec<Vec<usize>> {
    let f = fan_in.max(2);
    let (mut n, mut levels) = (disk_runs, Vec::new());
    while n > f {
        // A level leaves `f` runs if it can (n ≤ f²), else the ⌈n/f⌉ of
        // merging everything. A group of g removes g − 1 runs, so removing
        // exactly n − left takes `full` groups of f plus one for the
        // remainder — first, so every later pass is full.
        let left = f.max(n.div_ceil(f));
        let (full, rem) = ((n - left) / (f - 1), (n - left) % (f - 1));
        let mut level = vec![f; full];
        level.splice(..0, (rem > 0).then_some(rem + 1));
        levels.push(level);
        n = left;
    }
    levels
}

/// Walks [`cascade_plan`] over `runs` (`disk_bytes` is `None` for a memory
/// run) and accounts for it: each group — first disk run to last, memory
/// runs between them riding along — becomes `merge(group, pass)` in place,
/// and what is left is charged the final streaming pass.
fn cascade<T, E>(
    mut runs: Vec<T>,
    fan_in: usize,
    disk_bytes: impl Fn(&T) -> Option<u64>,
    mut merge: impl FnMut(Vec<T>, u64) -> Result<T, E>,
) -> Result<(Vec<T>, MergeStats), E> {
    let mut stats = MergeStats {
        runs: runs.len() as u64,
        ..MergeStats::default()
    };
    let disk_runs = runs.iter().filter_map(&disk_bytes).count();
    let is_mem = |run: &T| disk_bytes(run).is_none();
    for level in cascade_plan(disk_runs, fan_in) {
        let mut next = Vec::with_capacity(runs.len());
        let mut rest = runs.into_iter().peekable();
        for size in level {
            next.extend(std::iter::from_fn(|| rest.next_if(is_mem)));
            let (mut group, mut opened) = (Vec::with_capacity(size), 0);
            while opened < size {
                let Some(run) = rest.next() else { break };
                if let Some(bytes) = disk_bytes(&run) {
                    stats.bytes_read += bytes;
                    opened += 1;
                }
                group.push(run);
            }
            let merged = merge(group, stats.passes)?;
            stats.bytes_written += disk_bytes(&merged).unwrap_or(0);
            stats.seeks += opened as u64 + 1;
            stats.passes += 1;
            next.push(merged);
        }
        next.extend(rest);
        runs = next;
    }
    let left: Vec<u64> = runs.iter().filter_map(&disk_bytes).collect();
    stats.bytes_read += left.iter().sum::<u64>();
    stats.seeks += left.len() as u64;
    stats.passes += u64::from(!left.is_empty());
    Ok((runs, stats))
}

/// Cascades `sources` down to at most `fan_in` disk runs (intermediate
/// merged runs live in the spill session until the merge that reads them is
/// done), then returns the final streaming merge plus the full cost
/// accounting. Only disk runs count against the fan-in, and a list with no
/// more than `fan_in` of them never touches the session.
pub fn external_merge<K: Wire + Ord + ByteSized, V: Wire + ByteSized>(
    session: &SpillSession,
    reduce: usize,
    sources: Vec<RunSource<K, V>>,
    fan_in: usize,
    io_chunk: usize,
) -> Result<(KWayMerge<K, V>, MergeStats), StorageError> {
    // A run the cascade wrote travels with the guard of its file, so the
    // file goes when the merge that read it does.
    let runs = sources.into_iter().map(|s| (s, None)).collect();
    let merge_group = |group: Vec<(RunSource<K, V>, Option<TempRun>)>, pass| {
        // Guarded before the first byte: a failed pass cleans up too.
        let out = TempRun(session.merge_run_path(reduce, pass));
        let mut w: SegmentWriter<K, V> = SegmentWriter::create(out.0.clone(), io_chunk)?;
        let (group, _read): (Vec<_>, Vec<_>) = group.into_iter().unzip();
        let mut merged = KWayMerge::open(group)?;
        while let Some((k, v)) = merged.next_pair()? {
            w.push(&k, &v)?;
        }
        w.end_partition()?;
        let segment = w.finish()?;
        Ok((RunSource::Disk { segment, part: 0 }, Some(out)))
    };
    let (left, stats) = cascade(runs, fan_in, |(s, _)| s.disk_bytes(), merge_group)?;
    let (sources, temps) = left.into_iter().unzip();
    let mut merge = KWayMerge::open(sources)?;
    merge.temps = temps;
    Ok((merge, stats))
}

/// The cost accounting [`external_merge`] produces for all-disk runs of
/// the given on-disk sizes: the same walk over the sizes alone, which
/// is what the simulated clock and the trace model charge (attempt replays
/// re-run the same merge; the model charges it once). `runs`, `passes` and
/// `seeks` are the executed ones exactly. A merged run is charged its
/// inputs' bytes; the executed one re-frames them, so executed bytes differ
/// by at most one frame's framing (`FRAME_OVERHEAD` + 4) per `io_chunk`
/// moved, plus one per run tail a pass covers.
pub fn cascade_stats(run_bytes: &[u64], fan_in: usize) -> MergeStats {
    let sum = |group: Vec<u64>, _| Ok::<u64, std::convert::Infallible>(group.iter().sum());
    let Ok((_, stats)) = cascade(run_bytes.to_vec(), fan_in, |bytes| Some(*bytes), sum);
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

    /// `next_group` drains each run's block of the smallest key in run
    /// priority order; interleaved with `next_pair` calls it must still
    /// yield exactly the pairs and groups the reference stream does: the
    /// runs grouped in a `BTreeMap`, flattened, a group taking the rest of
    /// its key's pairs.
    #[test]
    fn next_group_drains_blocks_like_the_reference_across_interleaved_pairs() {
        let session =
            SpillSession::create(&StorageConfig::test(), "merge-blocks").expect("session");
        // Keys 0..17 in every run, so each key's group spans runs.
        let runs: Vec<Vec<(u64, u64)>> = (0..9).map(|s| scramble(30 + s * 7, s)).collect();
        for pattern in 0..6u64 {
            let mut sources = Vec::new();
            for (i, run) in runs.iter().enumerate() {
                if (i as u64 + pattern) % 3 == 0 {
                    sources.push(RunSource::Mem(run.clone()));
                } else {
                    let path = session.dir().join(format!("blocks-{pattern}-{i}.seg"));
                    let segment =
                        write_segment(path, std::slice::from_ref(run), 64).expect("write");
                    sources.push(RunSource::Disk { segment, part: 0 });
                }
            }
            let mut merge = KWayMerge::open(sources).expect("open");
            let mut expect: std::collections::VecDeque<(u64, u64)> = reference_groups(&runs)
                .into_iter()
                .flat_map(|(k, vs)| vs.into_iter().map(move |v| (k, v)))
                .collect();
            let mut step = 0u64;
            loop {
                // A deterministic mix of single pairs and groups.
                step += 1;
                if (step * 7 + pattern) % 5 < 2 {
                    let got = merge.next_pair().expect("pair");
                    assert_eq!(got, expect.pop_front(), "pattern {pattern} step {step}");
                    continue;
                }
                let Some((key, values)) = merge.next_group().expect("group") else {
                    assert!(expect.is_empty(), "pattern {pattern}: pairs left over");
                    break;
                };
                let mut want = Vec::new();
                while let Some(&(_, v)) = expect.front().filter(|(k, _)| *k == key) {
                    want.push(v);
                    expect.pop_front();
                }
                assert_eq!(values, want, "pattern {pattern} step {step} key {key}");
            }
            assert_eq!(merge.next_pair().expect("pair"), None);
        }
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

    /// `n` all-disk runs of about `len` pairs each, written into `session`.
    fn disk_runs(session: &SpillSession, n: u64, len: u64, io_chunk: usize) -> Sources {
        let runs: Vec<Vec<(u64, u64)>> = (0..n).map(|s| scramble(len + s % 3, s)).collect();
        let on_disk = |run| {
            let path = session.segment_path(0, 0).expect("segment path");
            let segment = write_segment(path, std::slice::from_ref(run), io_chunk).expect("write");
            RunSource::Disk { segment, part: 0 }
        };
        (runs.iter().map(on_disk).collect(), runs)
    }
    type Sources = (Vec<RunSource<u64, u64>>, Vec<Vec<(u64, u64)>>);

    /// The session directory's files, counted as (`.seg` files, `.run`
    /// files, anything else).
    fn files(session: &SpillSession) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for entry in std::fs::read_dir(session.dir()).expect("spill dir") {
            let name = entry
                .expect("entry")
                .file_name()
                .into_string()
                .expect("utf-8");
            match name.rsplit_once('.').map(|(_, ext)| ext) {
                Some("seg") => counts.0 += 1,
                Some("run") => counts.1 += 1,
                _ => counts.2 += 1,
            }
        }
        counts
    }

    /// The plan's invariants, checked by running it over unit-weight runs:
    /// group sizes, the runs left, the number of merges and the run-units
    /// rewritten, for every run count and fan-in a job could plausibly see.
    #[test]
    fn plan_properties_hold_exhaustively() {
        for f in 2..=16usize {
            for n in 0..=300usize {
                let plan = cascade_plan(n, f);
                // Original runs behind each run of the current list.
                let mut units = vec![1usize; n];
                let (mut merges, mut rewritten) = (0, 0);
                for level in &plan {
                    assert!(level.iter().all(|g| (2..=f).contains(g)), "n={n} f={f}");
                    let grouped: usize = level.iter().sum();
                    assert!(grouped <= units.len(), "n={n} f={f}: groups are disjoint");
                    let mut rest = units.as_slice();
                    let mut next = Vec::new();
                    for &g in level {
                        let (group, tail) = rest.split_at(g);
                        next.push(group.iter().sum());
                        rest = tail;
                    }
                    next.extend_from_slice(rest);
                    assert!(next.len() < units.len(), "n={n} f={f}: a level must shrink");
                    merges += level.len();
                    rewritten += units[..grouped].iter().sum::<usize>();
                    units = next;
                }
                assert_eq!(units.iter().sum::<usize>(), n, "no run lost or duplicated");
                assert!(units.len() <= f, "n={n} f={f}: {units:?}");
                if n <= f {
                    assert!(plan.is_empty(), "n={n} f={f}: nothing to cascade");
                } else if n <= f * f {
                    assert_eq!(plan.len(), 1, "n={n} f={f}: one level suffices");
                    assert_eq!(merges, (n - f).div_ceil(f - 1), "n={n} f={f}");
                    assert_eq!(units.len(), f, "n={n} f={f}: the final pass is full");
                    assert!(rewritten <= n, "n={n} f={f}: no unit rewritten twice");
                }
                let mut log = 0; // ⌈log_f n⌉
                while f.pow(log) < n {
                    log += 1;
                }
                assert!(rewritten <= n * log as usize, "n={n} f={f}: {rewritten}");
            }
        }
        for n in 0..=40 {
            assert_eq!(cascade_plan(n, 0), cascade_plan(n, 2));
            assert_eq!(cascade_plan(n, 1), cascade_plan(n, 2));
        }
        // 47 spill runs over 8: 45 run-units rewritten where the prefix
        // re-merge rewrote 8 + 15 + 22 + 29 + 36 + 43 = 153.
        assert_eq!(cascade_plan(47, 8), [[5, 8, 8, 8, 8, 8]]);
        assert_eq!(cascade_plan(11, 3), [vec![2, 3, 3, 3], vec![2]]);
    }

    #[test]
    fn intermediate_runs_are_removed_once_their_reader_is_done() {
        let session = SpillSession::create(&StorageConfig::test(), "merge-tmp").expect("session");
        let (sources, runs) = disk_runs(&session, 11, 30, 64);
        // Level one writes four runs; level two reads (and retires) two.
        let (merge, stats) = external_merge(&session, 0, sources, 3, 64).expect("merge");
        assert_eq!((stats.passes, stats.seeks), (6, 3 + 4 + 4 + 4 + 3 + 3));
        // One file per segment and one per live run, and nothing else.
        assert_eq!(files(&session), (11, 3, 0));
        assert_eq!(drain_groups(merge), reference_groups(&runs));
        assert_eq!(files(&session), (11, 0, 0), "map output is not ours");

        // A pass that fails takes what the cascade wrote with it.
        let (sources, _) = disk_runs(&session, 11, 30, 64);
        let RunSource::Disk { segment, .. } = &sources[10] else {
            unreachable!("all-disk sources")
        };
        let meta = &segment.parts[0];
        super::super::segment::tests::rot(&segment.path, meta.offset, meta.len, 7);
        let err = external_merge(&session, 0, sources, 3, 64).expect_err("corrupt input");
        assert!(matches!(err, StorageError::Frame { .. }), "{err}");
        assert_eq!(files(&session), (22, 0, 0));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Around memory runs every group is still one contiguous stretch
        /// of the list, from a disk run to a disk run, holding 2..=f of
        /// them; nothing is reordered, and at most f disk runs remain.
        #[test]
        fn cascade_groups_stay_contiguous_around_memory_runs(
            disk in proptest::collection::vec(proptest::any::<bool>(), 0..80),
            fan_in in 0usize..7,
        ) {
            // (first position, one past the last, disk runs inside)
            let runs: Vec<(usize, usize, u64)> =
                disk.iter().enumerate().map(|(i, &d)| (i, i + 1, u64::from(d))).collect();
            let f = fan_in.max(2);
            let disk_runs = |r: &(usize, usize, u64)| (r.2 > 0).then_some(r.2);
            let (runs, stats) = cascade(runs, fan_in, disk_runs, |group, pass| {
                let (first, last) = (group[0], group[group.len() - 1]);
                assert!(first.2 > 0 && last.2 > 0, "a group starts and ends on disk");
                assert!(group.windows(2).all(|w| w[0].1 == w[1].0), "contiguous");
                let inside = group.iter().filter(|r| r.2 > 0).count();
                assert!((2..=f).contains(&inside), "{inside} disk runs over {f}");
                assert!(pass < disk.len() as u64);
                Ok::<_, std::convert::Infallible>((first.0, last.1, group.iter().map(|r| r.2).sum()))
            })
            .expect("infallible");
            assert!(runs.windows(2).all(|w| w[0].1 == w[1].0), "order and coverage kept");
            assert_eq!(runs.iter().map(|r| r.1 - r.0).sum::<usize>(), disk.len());
            assert!(runs.iter().filter(|r| r.2 > 0).count() <= f);
            assert!(runs.iter().all(|r| r.2 > 0 || r.1 - r.0 == 1), "memory runs stay apart");
            // Weighing a run by the disk runs behind it, the bytes written
            // count run-units rewritten, and nothing else saw memory runs.
            let all_disk = vec![1; disk.iter().filter(|d| **d).count()];
            let priced = cascade_stats(&all_disk, fan_in);
            assert_eq!(MergeStats { runs: priced.runs, ..stats }, priced);
            assert_eq!(stats.runs, disk.len() as u64);
        }

        /// What `cascade_stats` prices from the segments' sizes is what
        /// `external_merge` does: runs, passes and seeks exactly, bytes up
        /// to the re-framing of merged runs — one frame's framing per
        /// `io_chunk` moved, plus one per run tail a pass covers.
        #[test]
        fn executed_stats_match_the_priced_cascade(
            n in 0u64..40,
            len in 1u64..60,
            fan_in in 0usize..7,
            io_chunk in 32usize..300,
        ) {
            let session = SpillSession::create(&StorageConfig::test(), "merge-model").expect("session");
            let (sources, runs) = disk_runs(&session, n, len, io_chunk);
            let sizes: Vec<u64> = sources.iter().filter_map(RunSource::disk_bytes).collect();
            let priced = cascade_stats(&sizes, fan_in);
            let (merge, ran) = external_merge(&session, 0, sources, fan_in, io_chunk).expect("merge");
            assert_eq!((ran.runs, ran.passes, ran.seeks), (priced.runs, priced.passes, priced.seeks));
            let levels = cascade_plan(sizes.len(), fan_in).len() as u64 + 1;
            let framing = (skymr_common::bytes::FRAME_OVERHEAD + 4) as u64;
            let tails = priced.seeks.max(n * levels);
            for (ran, priced) in [(ran.bytes_read, priced.bytes_read), (ran.bytes_written, priced.bytes_written)] {
                let frames = ran.max(priced) / io_chunk as u64 + tails;
                assert!(ran.abs_diff(priced) <= framing * frames, "{ran} vs {priced}");
            }
            assert_eq!(drain_groups(merge), reference_groups(&runs));
        }
    }
}
