//! Property tests for the out-of-core storage plane: the wire codec must
//! round-trip arbitrary tuples and pairs, and the external merge must be
//! observationally identical to the in-memory grouping it replaces.

use std::collections::BTreeMap;

use proptest::prelude::*;

use skymr_common::bytes::{decode_pairs, encode_pairs, Wire, WireCursor};
use skymr_common::Tuple;
use skymr_mapreduce::storage::merge::{external_merge, KWayMerge, RunSource};
use skymr_mapreduce::storage::segment::write_segment;
use skymr_mapreduce::storage::{SpillSession, StorageConfig};

/// Tuples with 1..=8 dimensions of finite unit-interval values — the shape
/// every skyline job shuffles.
fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (any::<u64>(), proptest::collection::vec(0.0f64..1.0, 1..=8))
        .prop_map(|(id, values)| Tuple::new(id, values))
}

/// The in-memory engine's grouping: runs visited in priority order, pairs
/// appended under their key. The k-way merge (ascending keys, earliest-run
/// tie-break) must reproduce exactly this per-key value order.
fn reference_groups(runs: &[Vec<(u16, u64)>]) -> Vec<(u16, Vec<u64>)> {
    let mut grouped: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
    for run in runs {
        for &(k, v) in run {
            grouped.entry(k).or_default().push(v);
        }
    }
    grouped.into_iter().collect()
}

/// Random sorted runs: each inner batch is key-sorted (stably, so a key's
/// values keep their emission order within the run). Up to 30 of them, so
/// the smaller fan-ins below need a second cascade level (`n > f²`).
fn arb_runs() -> impl Strategy<Value = Vec<Vec<(u16, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u16..12, any::<u64>()), 0..40),
        0..30,
    )
    .prop_map(|mut runs| {
        for run in &mut runs {
            run.sort_by_key(|&(k, _)| k);
        }
        runs
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tuple_wire_round_trips(tuple in arb_tuple()) {
        let mut buf = Vec::new();
        tuple.wire_encode(&mut buf);
        let mut cursor = WireCursor::new(&buf);
        let back = Tuple::wire_decode(&mut cursor).expect("decode");
        prop_assert_eq!(back, tuple);
        prop_assert!(cursor.is_empty(), "decode must consume the encoding");
    }

    #[test]
    fn pair_codec_round_trips(
        pairs in proptest::collection::vec((any::<u64>(), arb_tuple()), 0..50)
    ) {
        let frame = encode_pairs(&pairs);
        let back: Vec<(u64, Tuple)> = decode_pairs(&frame).expect("decode");
        prop_assert_eq!(back, pairs);
    }

    /// The external merge over on-disk runs yields exactly the groups (and
    /// per-key value order) of the in-memory engine, for any run shapes and
    /// any fan-in — including fan-ins small enough to force cascades of
    /// several levels through intermediate disk runs, with memory runs
    /// inside and between the merged groups (a set mask bit is a disk run;
    /// or-ing two masks makes most cases mostly disk).
    #[test]
    fn external_merge_matches_in_memory_grouping(
        runs in arb_runs(),
        fan_in in 2usize..6,
        disk_mask in (any::<u32>(), any::<u32>()).prop_map(|(a, b)| a | b),
    ) {
        let session =
            SpillSession::create(&StorageConfig::test(), "prop").expect("spill session");
        let mut sources: Vec<RunSource<u16, u64>> = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            // Mix disk and in-memory runs: both cross the same merge.
            if disk_mask & (1 << (i % 32)) != 0 {
                let segment = write_segment(
                    session.segment_path(i, 0).expect("segment path"),
                    std::slice::from_ref(run),
                    256,
                )
                .expect("write run");
                sources.push(RunSource::Disk { segment, part: 0 });
            } else {
                sources.push(RunSource::Mem(run.clone()));
            }
        }
        let (mut merge, stats) =
            external_merge(&session, 0, sources, fan_in, 256).expect("merge");
        let mut got: Vec<(u16, Vec<u64>)> = Vec::new();
        while let Some(group) = merge.next_group().expect("group") {
            got.push(group);
        }
        prop_assert_eq!(got, reference_groups(&runs));
        prop_assert_eq!(stats.runs, runs.len() as u64, "stats count presented runs");
    }

    /// Pair-by-pair streaming (the shuffle counting pass) agrees with the
    /// flattened reference as well.
    #[test]
    fn kway_merge_streams_pairs_in_reference_order(runs in arb_runs()) {
        let sources: Vec<RunSource<u16, u64>> =
            runs.iter().map(|r| RunSource::Mem(r.clone())).collect();
        let mut merge = KWayMerge::open(sources).expect("open");
        let mut got: Vec<(u16, u64)> = Vec::new();
        while let Some(pair) = merge.next_pair().expect("pair") {
            got.push(pair);
        }
        let want: Vec<(u16, u64)> = reference_groups(&runs)
            .into_iter()
            .flat_map(|(k, vs)| vs.into_iter().map(move |v| (k, v)))
            .collect();
        prop_assert_eq!(got, want);
    }
}
