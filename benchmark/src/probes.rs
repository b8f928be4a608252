//! Per-layer probes: each times one layer's public functions in isolation
//! on the workload's own data, inside a span named after the layer.
//!
//! A probe answers "how fast is this layer alone on this input"; the staged
//! pipeline in [`crate::workloads`] answers "how much of the operation is
//! it". Every probe also checks what it computed (round trips, totals,
//! skylines), so a layer that gets faster by getting wrong fails the run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use skymr::bitstring::job::generate_bitstring;
use skymr::local::{compare_all_partitions, insert_into_partition, CmpStats, LocalSkylines};
use skymr::mr_gpmrs;
use skymr_baselines::bnl_skyline;
use skymr_baselines::mr_bnl::{cell_code, eliminate_across_cells, CellSkylines};
use skymr_common::bytes::{crc32c, decode_pairs, encode_pairs};
use skymr_common::dataset::canonicalize;
use skymr_common::dominance::{compare, DomOrdering};
use skymr_common::Tuple;
use skymr_mapreduce::storage::merge::external_merge;
use skymr_mapreduce::storage::segment::{write_segment, PartitionReader};
use skymr_mapreduce::storage::{RunSource, SpillSession};
use skymr_mapreduce::telemetry::export::{chrome_trace, jsonl};
use skymr_mapreduce::{
    run_job, Collector, Emitter, JobConfig, MapFactory, MapTask, ModuloPartitioner,
    OutputCollector, ReduceFactory, ReduceTask, TaskContext,
};

use crate::spans::{Recorder, SpanId};
use crate::spec::Values;
use crate::stats::{median, median_secs};
use crate::workloads::{cluster, find, Instance, Scale};
use crate::Result;

const MIB: f64 = 1024.0 * 1024.0;

/// Shared probe context: where spans go, where temp files go, how big.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The span store.
    pub rec: &'a mut Recorder,
    /// The `bench.probes` span every probe span hangs under.
    pub parent: SpanId,
    /// Temp-file directory.
    pub scratch: &'a Path,
    /// Probe sizing.
    pub scale: Scale,
    /// Where the probes put their metrics.
    pub values: &'a mut Values,
}

impl Ctx<'_> {
    /// Runs `f` inside a span under the probes span; returns its duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let (value, id) = self.rec.time(name, Some(self.parent), 0, f);
        (value, self.rec.dur(id))
    }
}

fn fail<T>(what: impl Into<String>) -> Result<T> {
    Err(what.into().into())
}

// ---------------------------------------------------------------------
// core.local: Algorithms 3–6 replayed single-threaded.
// ---------------------------------------------------------------------

/// Replays MR-GPSRS's map and reduce kernels on one thread, outside the
/// engine, over the same splits and bitstring the pipeline would use: the
/// map kernel is Σ over splits of Algorithm 3 (filter, `InsertTuple`,
/// `ComparePartitions`), the reduce kernel Algorithm 6 (merge with
/// `InsertTuple`, global `ComparePartitions`). Returns the skyline the
/// replay produced, sorted by id.
pub fn core_local(inst: &Instance, ctx: &mut Ctx<'_>) -> Result<Vec<Tuple>> {
    let config = inst.workload.grid_config(cluster(None, ctx.scratch));
    let splits = inst.data.split(config.mappers);
    let (bitstring, _, _) = generate_bitstring(&splits, inst.data.dim(), inst.data.len(), &config)?;
    let grid = *bitstring.grid();

    let mut map_stats = CmpStats::default();
    let (payloads, map_kernel) = ctx.time("core.local.map_kernel", || {
        let mut payloads: Vec<LocalSkylines> = Vec::with_capacity(splits.len());
        for split in &splits {
            let mut skylines = LocalSkylines::new();
            for t in split {
                let p = grid.partition_of(t);
                if bitstring.is_set(p) {
                    insert_into_partition(&mut skylines, p as u32, t.clone(), &mut map_stats);
                }
            }
            compare_all_partitions(&grid, &mut skylines, &mut map_stats);
            payloads.push(skylines);
        }
        payloads
    });

    let mut reduce_stats = CmpStats::default();
    let (merged, reduce_kernel) = ctx.time("core.local.reduce_kernel", || {
        let mut skylines = LocalSkylines::new();
        for payload in payloads {
            for (p, tuples) in payload {
                for t in tuples {
                    insert_into_partition(&mut skylines, p, t, &mut reduce_stats);
                }
            }
        }
        compare_all_partitions(&grid, &mut skylines, &mut reduce_stats);
        skylines
    });

    let cmps = map_stats.tuple_cmps + reduce_stats.tuple_cmps;
    let kernel_s = (map_kernel + reduce_kernel).as_secs_f64();
    let v = &mut *ctx.values;
    v.set("core.local.map_kernel_s", map_kernel.as_secs_f64());
    v.set("core.local.reduce_kernel_s", reduce_kernel.as_secs_f64());
    v.set("core.local.map_tuple_cmps", map_stats.tuple_cmps as f64);
    v.set(
        "core.local.reduce_tuple_cmps",
        reduce_stats.tuple_cmps as f64,
    );
    v.set(
        "core.local.cmps_per_s",
        cmps as f64 / kernel_s.max(f64::MIN_POSITIVE),
    );
    Ok(canonicalize(merged.into_values().flatten().collect()))
}

// ---------------------------------------------------------------------
// baselines.bnl: MR-BNL's kernels without the engine.
// ---------------------------------------------------------------------

/// `bnl_skyline` per `cell_code` cell plus `eliminate_across_cells`:
/// returns the skyline, sorted by id.
pub fn bnl_cell_kernel(inst: &Instance, ctx: &mut Ctx<'_>) -> Vec<Tuple> {
    let mut cells: BTreeMap<u32, Vec<Tuple>> = BTreeMap::new();
    for t in inst.data.tuples() {
        cells.entry(cell_code(t)).or_default().push(t.clone());
    }
    let (skylines, took) = ctx.time("baselines.bnl.cell_kernel", || {
        let mut skylines: CellSkylines = cells
            .iter()
            .map(|(&code, tuples)| (code, bnl_skyline(tuples)))
            .collect();
        eliminate_across_cells(&mut skylines);
        skylines
    });
    ctx.values
        .set("baselines.bnl.cell_kernel_s", took.as_secs_f64());
    canonicalize(skylines.into_values().flatten().collect())
}

// ---------------------------------------------------------------------
// common.dominance
// ---------------------------------------------------------------------

/// Nanoseconds per `compare` call over the first 4096 tuples pairwise.
pub fn dominance_compare(inst: &Instance, ctx: &mut Ctx<'_>) {
    let tuples = inst.data.tuples();
    let head = tuples.get(..ctx.scale.apply(4096)).unwrap_or(tuples);
    let (dominating, took) = ctx.time("common.dominance.compare", || {
        let mut dominating = 0u64;
        for a in head {
            for b in head {
                if compare(black_box(a), black_box(b)) == DomOrdering::Dominates {
                    dominating += 1;
                }
            }
        }
        dominating
    });
    black_box(dominating);
    let calls = (head.len() * head.len()).max(1);
    ctx.values.set(
        "common.dominance.compare_ns",
        took.as_secs_f64() * 1e9 / calls as f64,
    );
}

// ---------------------------------------------------------------------
// common.bytes
// ---------------------------------------------------------------------

/// The codec probe's input: the first split as keyed shuffle pairs.
pub fn first_split_pairs(inst: &Instance) -> Vec<(u32, Tuple)> {
    inst.data
        .tuples()
        .iter()
        .step_by(inst.workload.mappers)
        .map(|t| ((t.id & 63) as u32, t.clone()))
        .collect()
}

const CODEC_REPEATS: usize = 5;

/// Codec throughput over one frame holding `pairs`, in MiB of frame per
/// second: `encode_pairs` (wire encode + frame + CRC), `decode_pairs`
/// (frame verify + wire decode), `crc32c` over the frame.
pub fn bytes_probe(pairs: &[(u32, Tuple)], ctx: &mut Ctx<'_>) -> Result<()> {
    let mut frame = Vec::new();
    let (mut enc, mut dec, mut crc) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..CODEC_REPEATS {
        let (encoded, took) = ctx.time("common.bytes.encode", || encode_pairs(black_box(pairs)));
        enc.push(took);
        frame = encoded;
        let (decoded, took) = ctx.time("common.bytes.decode", || {
            decode_pairs::<u32, Tuple>(black_box(&frame))
        });
        dec.push(took);
        if decoded? != pairs {
            return fail("common.bytes: decode(encode(pairs)) != pairs");
        }
        let (sum, took) = ctx.time("common.bytes.crc32c", || crc32c(black_box(&frame)));
        crc.push(took);
        black_box(sum);
    }
    let mib = frame.len() as f64 / MIB;
    let rate = |times: &[Duration]| mib / median_secs(times).max(f64::MIN_POSITIVE);
    let v = &mut *ctx.values;
    v.set("common.bytes.encode_mib_per_s", rate(&enc));
    v.set("common.bytes.decode_mib_per_s", rate(&dec));
    v.set("common.bytes.crc32c_mib_per_s", rate(&crc));
    v.set(
        "common.bytes.wire_bytes_per_tuple",
        frame.len() as f64 / pairs.len().max(1) as f64,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// mapreduce.job: the engine with no kernel.
// ---------------------------------------------------------------------

/// Identity map: every tuple is emitted once under one of 64 keys.
#[derive(Debug)]
pub struct NullMap;

impl MapTask for NullMap {
    type In = Tuple;
    type K = u32;
    type V = Tuple;

    fn map(&mut self, input: &Tuple, out: &mut Emitter<u32, Tuple>) {
        out.emit((input.id & 63) as u32, input.clone());
    }
}

impl MapFactory for NullMap {
    type Task = NullMap;
    fn create(&self, _ctx: &TaskContext) -> NullMap {
        NullMap
    }
}

/// Counting reduce: one `(key, number of values)` record per key.
#[derive(Debug)]
pub struct CountReduce;

impl ReduceTask for CountReduce {
    type K = u32;
    type V = Tuple;
    type Out = (u32, u64);

    fn reduce(&mut self, key: u32, values: Vec<Tuple>, out: &mut OutputCollector<(u32, u64)>) {
        out.collect((key, values.len() as u64));
    }
}

impl ReduceFactory for CountReduce {
    type Task = CountReduce;
    fn create(&self, _ctx: &TaskContext) -> CountReduce {
        CountReduce
    }
}

const NULL_JOB_REPEATS: usize = 3;

/// Engine-only timings: the identity job over the workload's input and
/// cluster, then the same job over thirteen empty splits.
pub fn job_probe(inst: &Instance, ctx: &mut Ctx<'_>) -> Result<()> {
    let cluster = cluster(None, ctx.scratch);
    let reducers = cluster.reduce_slots;
    let splits = inst.data.split(inst.workload.mappers);
    let mut walls = Vec::new();
    for _ in 0..NULL_JOB_REPEATS {
        let config = JobConfig::new("null", reducers);
        let (outcome, took) = ctx.time("mapreduce.job.null_job", || {
            run_job(
                &cluster,
                &config,
                &splits,
                &NullMap,
                &CountReduce,
                &ModuloPartitioner,
            )
        });
        walls.push(took);
        let counted: u64 = outcome?.into_flat_output().iter().map(|(_, n)| n).sum();
        if counted != inst.data.len() as u64 {
            return fail(format!(
                "mapreduce.job: null job counted {counted} of {} records",
                inst.data.len()
            ));
        }
    }
    let null_job_s = median_secs(&walls);

    let empty: Vec<Vec<Tuple>> = vec![Vec::new(); cluster.map_slots];
    let mut empties = Vec::new();
    for _ in 0..ctx.scale.apply(200) {
        let config = JobConfig::new("empty", reducers);
        let (outcome, took) = ctx.time("mapreduce.job.empty_job", || {
            run_job(
                &cluster,
                &config,
                &empty,
                &NullMap,
                &CountReduce,
                &ModuloPartitioner,
            )
        });
        empties.push(took);
        if !outcome?.into_flat_output().is_empty() {
            return fail("mapreduce.job: empty job produced output");
        }
    }
    let v = &mut *ctx.values;
    v.set("mapreduce.job.null_job_s", null_job_s);
    v.set(
        "mapreduce.job.null_records_per_s",
        inst.data.len() as f64 / null_job_s.max(f64::MIN_POSITIVE),
    );
    v.set("mapreduce.job.empty_job_us", median_secs(&empties) * 1e6);
    Ok(())
}

// ---------------------------------------------------------------------
// mapreduce.storage
// ---------------------------------------------------------------------

const SEGMENT_PARTS: usize = 13;
const MERGE_RUNS: usize = 39;
const MERGE_FAN_IN: usize = 8;
const SEGMENT_REPEATS: usize = 3;

/// Storage-plane timings over `pairs`: `write_segment` of thirteen sorted
/// partitions and `PartitionReader` over all of them (disk MiB per second),
/// then `external_merge` of 39 one-partition runs at fan-in 8, drained.
pub fn storage_probe(pairs: &[(u32, Tuple)], ctx: &mut Ctx<'_>) -> Result<()> {
    let storage = cluster(None, ctx.scratch).storage;
    let mut parts: Vec<Vec<(u32, Tuple)>> = vec![Vec::new(); SEGMENT_PARTS];
    for (slot, pair) in (0..SEGMENT_PARTS).cycle().zip(pairs) {
        if let Some(part) = parts.get_mut(slot) {
            part.push(pair.clone());
        }
    }
    for part in &mut parts {
        part.sort_by_key(|(k, _)| *k);
    }

    let (mut writes, mut reads) = (Vec::new(), Vec::new());
    let mut disk_mib = 0.0;
    for round in 0..SEGMENT_REPEATS {
        let path = ctx.scratch.join(format!("probe-{round}.seg"));
        let (segment, took) = ctx.time("mapreduce.storage.segment_write", || {
            write_segment(path, &parts, storage.io_chunk)
        });
        let segment = segment?;
        writes.push(took);
        disk_mib = segment.disk_bytes() as f64 / MIB;
        let (read, took) = ctx.time("mapreduce.storage.segment_read", || {
            let mut records = 0usize;
            for part in 0..SEGMENT_PARTS {
                let mut reader = PartitionReader::<u32, Tuple>::open(&segment, part)?;
                while let Some(pair) = reader.next_pair()? {
                    black_box(&pair);
                    records += 1;
                }
            }
            Ok::<usize, skymr_mapreduce::storage::StorageError>(records)
        });
        reads.push(took);
        if read? != pairs.len() {
            return fail("mapreduce.storage: segment read lost records");
        }
    }

    let run_len = pairs.len().div_ceil(MERGE_RUNS).max(1);
    let mut sources: Vec<RunSource<u32, Tuple>> = Vec::with_capacity(MERGE_RUNS);
    for (i, chunk) in pairs.chunks(run_len).enumerate() {
        let mut run = chunk.to_vec();
        run.sort_by_key(|(k, _)| *k);
        let path = ctx.scratch.join(format!("probe-run-{i}.seg"));
        let segment = write_segment(path, &[run], storage.io_chunk)?;
        sources.push(RunSource::Disk { segment, part: 0 });
    }
    let session = SpillSession::create(&storage, "probe")?;
    let (merged, took) = ctx.time("mapreduce.storage.external_merge", || {
        let (mut merge, stats) =
            external_merge(&session, 0, sources, MERGE_FAN_IN, storage.io_chunk)?;
        let mut records = 0usize;
        while let Some((key, values)) = merge.next_group()? {
            black_box(key);
            records += values.len();
        }
        Ok::<_, skymr_mapreduce::storage::StorageError>((records, stats))
    });
    let (records, stats) = merged?;
    if records != pairs.len() {
        return fail("mapreduce.storage: external merge lost records");
    }
    let rate = |times: &[Duration]| disk_mib / median_secs(times).max(f64::MIN_POSITIVE);
    let v = &mut *ctx.values;
    v.set("mapreduce.storage.segment_write_mib_per_s", rate(&writes));
    v.set("mapreduce.storage.segment_read_mib_per_s", rate(&reads));
    v.set("mapreduce.storage.external_merge_s", took.as_secs_f64());
    v.set(
        "mapreduce.storage.merge_rewritten_mib",
        stats.bytes_written as f64 / MIB,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// telemetry
// ---------------------------------------------------------------------

/// Telemetry cost: the `small_jobs` operation with and without a
/// `Collector`, alternating, on that workload's dataset for `seed`. The
/// overhead is (job with a collector + finish + Chrome export) ÷ (job
/// without) − 1.
pub fn telemetry_probe(seed: u64, ctx: &mut Ctx<'_>) -> Result<()> {
    let Some(workload) = find("small_jobs") else {
        return fail("telemetry: the small_jobs workload is gone");
    };
    let inst = Instance::build(workload, ctx.scale, seed, ctx.scratch);
    let Some(plain) = inst.grid_config() else {
        return fail("telemetry: small_jobs is not a grid workload");
    };
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let (mut finish, mut chrome, mut lines) = (Vec::new(), Vec::new(), Vec::new());
    let mut trace_bytes = 0usize;
    for _ in 0..ctx.scale.apply(200) {
        let (run, took) = ctx.time("telemetry.job_without_collector", || {
            mr_gpmrs(&inst.data, plain)
        });
        let bare = run?;
        without.push(took.as_secs_f64());

        let collector = Collector::new();
        let traced = plain.clone().with_telemetry(Some(collector.clone()));
        let (run, job_took) = ctx.time("telemetry.job_with_collector", || {
            mr_gpmrs(&inst.data, &traced)
        });
        if run?.skyline_ids() != bare.skyline_ids() {
            return fail("telemetry: the collector changed the skyline");
        }
        let (doc, finish_took) = ctx.time("telemetry.finish", || collector.finish());
        finish.push(finish_took);
        let (text, chrome_took) = ctx.time("telemetry.export_chrome", || chrome_trace(&doc));
        chrome.push(chrome_took);
        with.push((job_took + finish_took + chrome_took).as_secs_f64());
        trace_bytes = text.len();
        let (text, took) = ctx.time("telemetry.export_jsonl", || jsonl(&doc));
        lines.push(took);
        black_box(text);
    }
    let base = median(&without).unwrap_or(0.0).max(f64::MIN_POSITIVE);
    let v = &mut *ctx.values;
    v.set("telemetry.finish_us", median_secs(&finish) * 1e6);
    v.set("telemetry.export_chrome_us", median_secs(&chrome) * 1e6);
    v.set("telemetry.export_jsonl_us", median_secs(&lines) * 1e6);
    v.set("telemetry.trace_bytes", trace_bytes as f64);
    v.set(
        "telemetry.collector_overhead_frac",
        median(&with).unwrap_or(0.0) / base - 1.0,
    );
    Ok(())
}
