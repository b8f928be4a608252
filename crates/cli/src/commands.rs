//! The CLI subcommand implementations.

use skymr::bitstring::job::generate_bitstring;
use skymr::groups::plan_groups;
use skymr::{mr_gpmrs, mr_gpsrs, mr_hybrid, mr_skyband, PpdPolicy, SkylineConfig};
use skymr_baselines::{
    bnl_skyline, discretize, dnc_skyline, mr_angle, mr_bitmap, mr_bnl, mr_sfs, sfs_skyline, sky_mr,
    BaselineConfig, SfsOrder, SkyMrConfig,
};
use skymr_common::{Dataset, Tuple};
use skymr_datagen::{generate as gen_data, io, Distribution};
use skymr_mapreduce::telemetry::export::{chrome_trace, jsonl};
use skymr_mapreduce::telemetry::json;
use skymr_mapreduce::{
    BlacklistPolicy, Collector, FaultPlan, FaultTolerance, PipelineMetrics, Placement, RoundRobin,
};

use crate::args::Args;
use crate::trace_schema;

fn parse_distribution(args: &Args) -> Result<Distribution, String> {
    match args.require("dist")? {
        "independent" => Ok(Distribution::Independent),
        "correlated" => Ok(Distribution::Correlated),
        "anticorrelated" => Ok(Distribution::Anticorrelated),
        "clustered" => {
            let clusters = args.get_parsed("clusters", 4usize)?;
            Ok(Distribution::Clustered { clusters })
        }
        other => Err(format!(
            "unknown distribution {other:?} (independent|correlated|anticorrelated|clustered)"
        )),
    }
}

/// Loads `--input FILE` (binary or CSV, auto-detected by magic bytes), or
/// generates from `--dist/--dim/--card/--seed`; `--dims i,j,…` projects
/// the result onto a subspace (subspace skyline queries).
fn load_dataset(args: &Args) -> Result<Dataset, String> {
    let data = if let Some(path) = args.get("input") {
        let raw = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        if raw.starts_with(b"SKYMR") {
            io::decode_binary(raw.into()).map_err(|e| format!("cannot parse {path}: {e}"))?
        } else {
            io::read_csv(path).map_err(|e| format!("cannot read {path}: {e}"))?
        }
    } else {
        let dist = parse_distribution(args)?;
        let dim = args.get_parsed("dim", 0usize)?;
        let card = args.get_parsed("card", 0usize)?;
        if dim == 0 || card == 0 {
            return Err("without --input, --dim and --card are required".into());
        }
        let seed = args.get_parsed("seed", 42u64)?;
        gen_data(dist, dim, card, seed)
    };
    let data = if let Some(spec) = args.get("dims") {
        let dims: Vec<usize> = spec
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|e| format!("bad --dims entry {s:?}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let projected = data.project(&dims).map_err(|e| e.to_string())?;
        println!("projected onto dimensions {dims:?} (subspace query)");
        projected
    } else {
        data
    };
    match (args.get("lo"), args.get("hi")) {
        (None, None) => Ok(data),
        (lo, hi) => {
            let parse = |spec: Option<&str>, default: f64| -> Result<Vec<f64>, String> {
                match spec {
                    None => Ok(vec![default; data.dim()]),
                    Some(s) => s
                        .split(',')
                        .map(|v| {
                            v.trim()
                                .parse()
                                .map_err(|e| format!("bad bound {v:?}: {e}"))
                        })
                        .collect(),
                }
            };
            let constraint = skymr::Constraint::new(parse(lo, 0.0)?, parse(hi, 1.0)?)
                .map_err(|e| e.to_string())?;
            let filtered = constraint.filter(&data);
            println!(
                "constrained to the given range box: {} of {} tuples remain",
                filtered.len(),
                data.len()
            );
            Ok(filtered)
        }
    }
}

fn parse_ppd(args: &Args) -> Result<PpdPolicy, String> {
    match args.get("ppd") {
        None | Some("auto") => Ok(PpdPolicy::auto()),
        Some(v) => {
            let n: usize = v.parse().map_err(|e| format!("bad --ppd: {e}"))?;
            Ok(PpdPolicy::Fixed(n))
        }
    }
}

/// The configuration every MapReduce `--algo` runs under, parsed once
/// before any data is loaded: mappers and reducers, the grid knobs, the
/// checkpoint controls, and the engine's flags — one simulated cluster
/// (storage plane, node placement, skip-bad-records) and one fault
/// tolerance. The baselines and SKY-MR take the same cluster and fault
/// tolerance.
fn skyline_config(args: &Args) -> Result<SkylineConfig, String> {
    let mut config = SkylineConfig::default();
    config.mappers = args.get_parsed("mappers", config.mappers)?;
    config.reducers = args.get_parsed("reducers", config.reducers)?;
    config.ppd = parse_ppd(args)?;
    config.local_algo = match args.get("local") {
        None | Some("bnl") => skymr::LocalAlgo::Bnl,
        Some("sfs") => skymr::LocalAlgo::Sfs,
        Some("dnc") => skymr::LocalAlgo::Dnc,
        Some(other) => return Err(format!("unknown local kernel {other:?} (bnl|sfs|dnc)")),
    };
    if args.get("chaos-nodes").is_some() && args.get("chaos-corrupt").is_some() {
        let both = "--chaos-nodes and --chaos-corrupt cannot be combined";
        return Err(format!("{both}: a fault plan holds one seeded layer"));
    }
    // Node-hostile chaos: a seeded placement plus a node-loss/partition
    // fault plan, with Hadoop-style blacklisting. The skyline must come out
    // byte-identical regardless (pair with --verify to check).
    if let Some(seed) = args.get("chaos-nodes") {
        let seed: u64 = seed
            .parse()
            .map_err(|e| format!("bad --chaos-nodes seed: {e}"))?;
        config.cluster.placement = Some(Placement::new(seed));
        config.fault_tolerance = FaultTolerance::with_plan(FaultPlan::chaos_nodes(seed))
            .with_blacklist(BlacklistPolicy::new());
    }
    // Data-plane chaos: seeded shuffle-frame corruption and hung attempts.
    // The frame CRC plus the progress timeout must recover to a
    // byte-identical skyline (pair with --verify to check).
    if let Some(seed) = args.get("chaos-corrupt") {
        let seed: u64 = seed
            .parse()
            .map_err(|e| format!("bad --chaos-corrupt seed: {e}"))?;
        config.fault_tolerance.plan = FaultPlan::chaos_data(seed);
    }
    // A scripted poison record `MAP:RECORD`, layered onto whichever plan
    // is set: that map task panics deterministically on that record every
    // attempt; pair with --skip-bad-records to complete (degraded) instead
    // of aborting.
    if let Some(spec) = args.get("poison") {
        let (m, n) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad --poison {spec:?}, expected MAP:RECORD"))?;
        let m: usize = m.parse().map_err(|e| format!("bad --poison map: {e}"))?;
        let n: usize = n.parse().map_err(|e| format!("bad --poison record: {e}"))?;
        let plan = &mut config.fault_tolerance.plan;
        *plan = std::mem::take(plan).with_poison_record(m, n);
    }
    config.cluster.skip_bad_records = args.has_flag("skip-bad-records");
    // The out-of-core storage plane: SIZE takes `k`/`m`/`g` suffixes
    // (powers of 1024).
    if let Some(v) = args.get("memory-budget") {
        let bytes =
            skymr_mapreduce::parse_byte_size(v).map_err(|e| format!("bad --memory-budget: {e}"))?;
        config.cluster.storage.memory_budget = Some(bytes);
    }
    if let Some(dir) = args.get("spill-dir") {
        config.cluster.storage.spill_dir = Some(dir.into());
    }
    if let Some(path) = args.get("checkpoint") {
        config.checkpoint.file = Some(path.into());
    }
    config.checkpoint.resume = args.has_flag("resume");
    if args.get("kill-after").is_some() {
        config.checkpoint.kill_after = Some(args.get_parsed("kill-after", 0usize)?);
    }
    Ok(config)
}

fn print_metrics(metrics: &PipelineMetrics) {
    for job in &metrics.jobs {
        println!(
            "  job {:<18} sim {:>8.2?}  map {:>8.2?}  shuffle {:>7} KiB / {:>7.2?}  reduce {:>8.2?}",
            job.name,
            job.sim_runtime,
            job.map_phase,
            job.shuffle_bytes / 1024,
            job.shuffle_time,
            job.reduce_phase
        );
        if job.nodes_lost > 0 || job.maps_reexecuted > 0 || job.nodes_blacklisted > 0 {
            println!(
                "      node faults: {} lost, {} blacklisted; {} maps re-executed ({:.2?})",
                job.nodes_lost, job.nodes_blacklisted, job.maps_reexecuted, job.reexecution_time
            );
        }
        let retries = job.map_retries + job.reduce_retries;
        if retries > 0 || !job.wasted_task_time.is_zero() || !job.backoff_time.is_zero() {
            println!(
                "      retries: {} map, {} reduce; {:.2?} wasted, {:.2?} backoff",
                job.map_retries, job.reduce_retries, job.wasted_task_time, job.backoff_time
            );
        }
        if job.spill_files > 0 {
            println!(
                "      storage: {} spill files ({} KiB) merged in {} passes",
                job.spill_files,
                job.spilled_bytes / 1024,
                job.merge_passes
            );
        }
        if job.corrupt_fetches > 0 || job.records_skipped > 0 {
            println!(
                "      data faults: {} corrupt fetches re-fetched, {} bad records skipped{}",
                job.corrupt_fetches,
                job.records_skipped,
                if job.degraded {
                    " (degraded output)"
                } else {
                    ""
                }
            );
        }
        if !job.queue_wait_time.is_zero() || job.preemptions > 0 {
            println!(
                "      scheduling: queued {:.2?}, {} preemptions, {:.2?} wasted",
                job.queue_wait_time, job.preemptions, job.wasted_task_time
            );
        }
    }
    println!(
        "  total simulated runtime {:.2?}   (host wall {:.2?})",
        metrics.sim_runtime(),
        metrics.host_wall()
    );
}

fn write_skyline(args: &Args, skyline: &[Tuple], dim: usize) -> Result<(), String> {
    if let Some(path) = args.get("out") {
        let ds = Dataset::new_unchecked(dim, skyline.to_vec());
        write_whole(path, |tmp| io::write_csv(&ds, tmp))?;
        println!("wrote skyline to {path}");
    }
    Ok(())
}

/// Writes `path` as `<path>.tmp` renamed into place, so that a failed write
/// leaves no partial file that reads like a result. The temporary file is
/// removed on failure.
fn write_whole(path: &str, write: impl FnOnce(&str) -> std::io::Result<()>) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    write(&tmp)
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot write {path}: {e}")
        })
}

const GENERATE_OPTS: &[&str] = &["dist", "dim", "card", "seed", "clusters", "out", "format"];
const RUN_OPTS: &[&str] = &[
    "algo",
    "input",
    "dist",
    "dim",
    "card",
    "seed",
    "clusters",
    "mappers",
    "reducers",
    "ppd",
    "out",
    "distinct",
    "verify",
    "k",
    "dims",
    "lo",
    "hi",
    "local",
    "trace",
    "chaos-nodes",
    "chaos-corrupt",
    "poison",
    "skip-bad-records",
    "checkpoint",
    "resume",
    "kill-after",
    "memory-budget",
    "spill-dir",
];
const PLAN_OPTS: &[&str] = &[
    "input", "dist", "dim", "card", "seed", "clusters", "ppd", "reducers", "dims", "lo", "hi",
];
const INFO_OPTS: &[&str] = &[
    "input", "dist", "dim", "card", "seed", "clusters", "dims", "lo", "hi",
];

/// `skymr-cli generate`
pub fn generate(args: &Args) -> Result<(), String> {
    args.reject_unknown(GENERATE_OPTS)?;
    let dist = parse_distribution(args)?;
    let dim = args.get_parsed("dim", 0usize)?;
    let card = args.get_parsed("card", 0usize)?;
    if dim == 0 || card == 0 {
        return Err("--dim and --card are required".into());
    }
    let seed = args.get_parsed("seed", 42u64)?;
    let out = args.require("out")?;
    let ds = gen_data(dist, dim, card, seed);
    match args.get("format").unwrap_or("csv") {
        "csv" => write_whole(out, |tmp| io::write_csv(&ds, tmp))?,
        "binary" | "bin" => write_whole(out, |tmp| io::write_binary(&ds, tmp))?,
        other => return Err(format!("unknown format {other:?} (csv|binary)")),
    }
    println!(
        "wrote {} {}-dimensional {} tuples to {out}",
        ds.len(),
        ds.dim(),
        dist.name()
    );
    Ok(())
}

/// `run`'s algorithms, each with what it honours, in [`COLUMNS`] order:
/// it runs on the MapReduce engine; it records spans for `--trace`; it
/// checkpoints its pipeline; it answers the plain skyline `--verify`
/// checks (mr-bitmap answers for the discretized dataset, skyband for
/// k ≥ 1 bands, topk ranks). `--mappers`/`--reducers` suit them all.
const ALGOS: &[(&str, [bool; 4])] = &[
    ("gpsrs", [true, true, true, true]),
    ("gpmrs", [true, true, true, true]),
    ("hybrid", [true, true, true, true]),
    ("skyband", [true, true, false, false]),
    ("topk", [true, true, false, false]),
    ("mr-bnl", [true, false, false, true]),
    ("mr-sfs", [true, false, false, true]),
    ("mr-angle", [true, false, false, true]),
    ("sky-mr", [true, false, false, true]),
    ("mr-bitmap", [true, false, false, false]),
    ("bnl", [false, false, false, true]),
    ("sfs", [false, false, false, true]),
    ("dnc", [false, false, false, true]),
];

/// The flags each column of [`ALGOS`] governs, what they do, and what an
/// algorithm without the column does instead.
const COLUMNS: [(&[&str], &str, &str); 4] = [
    (
        &[
            "chaos-nodes",
            "chaos-corrupt",
            "poison",
            "skip-bad-records",
            "memory-budget",
            "spill-dir",
        ],
        "configures the MapReduce engine",
        "runs without it",
    ),
    (&["trace"], "records spans", "records none"),
    (
        &["checkpoint", "resume", "kill-after"],
        "drives pipeline checkpoints",
        "keeps none",
    ),
    (
        &["verify"],
        "checks against the BNL oracle",
        "answers another query",
    ),
];

/// Refuses a flag `algo` cannot honour, naming the algorithms that can.
fn check_flags(args: &Args, (algo, honours): &(&str, [bool; 4])) -> Result<(), String> {
    for (c, (flags, what, none)) in COLUMNS.iter().enumerate() {
        let given = args.supplied_keys().find(|key| flags.contains(key));
        if let (Some(flag), false) = (given, honours[c]) {
            let able: Vec<&str> = ALGOS.iter().filter(|a| a.1[c]).map(|a| a.0).collect();
            let able = able.join(", ");
            return Err(format!("--{flag} {what} only for {able}; {algo} {none}"));
        }
    }
    Ok(())
}

/// `skymr-cli run`
pub fn run(args: &Args) -> Result<(), String> {
    args.reject_unknown(RUN_OPTS)?;
    let algo = args.require("algo")?;
    let row = ALGOS.iter().find(|(name, _)| *name == algo);
    let row = row.ok_or_else(|| format!("unknown algorithm {algo:?}"))?;
    // Every flag is checked before the data is loaded or generated.
    check_flags(args, row)?;
    // With --trace, the MapReduce algorithms record their span timelines
    // into this collector; it is exported after the run completes.
    let collector = args.get("trace").map(|_| Collector::new());
    let config = skyline_config(args)?.with_telemetry(collector.clone());
    let baseline = BaselineConfig {
        mappers: config.mappers,
        cluster: config.cluster.clone(),
        fault_tolerance: config.fault_tolerance.clone(),
        ..BaselineConfig::default()
    };
    let data = load_dataset(args)?;
    println!("dataset: {} tuples, {} dimensions", data.len(), data.dim());
    let (skyline, metrics): (Vec<Tuple>, Option<PipelineMetrics>) = match algo {
        "gpsrs" => {
            let run = mr_gpsrs(&data, &config).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "gpmrs" => {
            let run = mr_gpmrs(&data, &config).map_err(|e| e.to_string())?;
            println!(
                "grid: PPD {}, {} surviving of {} non-empty partitions, {} groups -> {} buckets",
                run.info.ppd,
                run.info.surviving_partitions,
                run.info.non_empty_partitions,
                run.info.independent_groups,
                run.info.buckets
            );
            (run.skyline, Some(run.metrics))
        }
        "hybrid" => {
            let run = mr_hybrid(&data, &config).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "skyband" => {
            let k = args.get_parsed("k", 2u32)?;
            println!("note: computing the {k}-skyband (tuples dominated by fewer than {k} others)");
            let run = mr_skyband(&data, k, &config).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "topk" => {
            let k = args.get_parsed("k", 10usize)?;
            let run = skymr::mr_top_k_dominating(&data, k, &config).map_err(|e| e.to_string())?;
            println!("top-{k} dominating tuples (score = tuples dominated):");
            for (t, score) in &run.ranked {
                println!("  #{:<8} score {score}", t.id);
            }
            (
                run.ranked.into_iter().map(|(t, _)| t).collect(),
                Some(run.metrics),
            )
        }
        "mr-bnl" => {
            let run = mr_bnl(&data, &baseline).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "mr-sfs" => {
            let run = mr_sfs(&data, &baseline).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "mr-angle" => {
            let run = mr_angle(&data, &baseline).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "sky-mr" => {
            let config = SkyMrConfig {
                mappers: config.mappers,
                reducers: config.reducers,
                cluster: config.cluster,
                fault_tolerance: config.fault_tolerance,
                ..SkyMrConfig::default()
            };
            let run = sky_mr(&data, &config).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "mr-bitmap" => {
            let distinct = args.get_parsed("distinct", 16usize)?;
            let discretized = discretize(&data, distinct);
            println!("note: mr-bitmap runs on data discretized to {distinct} values/dimension");
            let run = mr_bitmap(&discretized, &baseline).map_err(|e| e.to_string())?;
            (run.skyline, Some(run.metrics))
        }
        "bnl" => (bnl_skyline(data.tuples()), None),
        "sfs" => (sfs_skyline(data.tuples(), SfsOrder::Entropy), None),
        "dnc" => (dnc_skyline(data.tuples()), None),
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    println!(
        "skyline: {} of {} tuples ({:.2}%)",
        skyline.len(),
        data.len(),
        100.0 * skyline.len() as f64 / data.len().max(1) as f64
    );
    if let Some(metrics) = &metrics {
        print_metrics(metrics);
        if collector.is_some() {
            println!("{}", metrics.phase_table());
        }
    }
    if let (Some(collector), Some(path)) = (&collector, args.get("trace")) {
        let doc = collector.finish();
        // A `.jsonl` extension selects line-delimited export; anything else
        // gets the Chrome trace_event JSON Perfetto loads directly.
        let body = if path.ends_with(".jsonl") {
            jsonl(&doc)
        } else {
            chrome_trace(&doc)
        };
        write_whole(path, |tmp| std::fs::write(tmp, body))?;
        println!("wrote trace ({} events) to {path}", doc.events.len());
    }
    if args.has_flag("verify") {
        let oracle = bnl_skyline(data.tuples());
        let mut got: Vec<u64> = skyline.iter().map(|t| t.id).collect();
        got.sort_unstable();
        let want: Vec<u64> = oracle.iter().map(|t| t.id).collect();
        if got == want {
            println!("verify: OK — matches the centralized BNL oracle");
        } else {
            return Err(format!(
                "verify FAILED: got {} tuples, oracle has {}",
                got.len(),
                want.len()
            ));
        }
    }
    write_skyline(args, &skyline, data.dim())
}

/// `skymr-cli plan`
pub fn plan(args: &Args) -> Result<(), String> {
    args.reject_unknown(PLAN_OPTS)?;
    let data = load_dataset(args)?;
    let config = SkylineConfig {
        ppd: parse_ppd(args)?,
        ..SkylineConfig::default()
    };
    let reducers = args.get_parsed("reducers", config.reducers)?;
    let splits = RoundRobin::new(data.tuples(), config.mappers);
    let (bitstring, info, _) =
        generate_bitstring(&splits, data.dim(), data.len(), &config).map_err(|e| e.to_string())?;
    println!(
        "dataset   : {} tuples, {} dimensions",
        data.len(),
        data.dim()
    );
    println!(
        "grid      : PPD {} -> {} partitions ({} non-empty, {} after pruning)",
        info.ppd,
        bitstring.grid().num_partitions(),
        info.non_empty,
        info.surviving
    );
    let plan = plan_groups(&bitstring, reducers, config.merge_policy);
    println!(
        "groups    : {} independent partition groups",
        plan.groups.len()
    );
    println!(
        "buckets   : {} (of {} requested reducers)",
        plan.num_buckets(),
        reducers
    );
    for (i, bucket) in plan.buckets.iter().enumerate() {
        println!(
            "  bucket {i}: {} partitions ({} groups, cost {})",
            bucket.partitions.len(),
            bucket.group_indices.len(),
            bucket.cost
        );
    }
    let replicated = plan
        .buckets
        .iter()
        .map(|b| b.partitions.len())
        .sum::<usize>()
        .saturating_sub(info.surviving);
    println!("replicated partition copies across buckets: {replicated}");
    Ok(())
}

/// One complete span pulled out of a trace file.
struct SpanRow {
    pid: u64,
    cat: String,
    dur: u64,
    end: u64,
}

/// Pulls the fields the summary needs out of one event object.
fn classify_event(
    event: &json::Value,
    names: &mut std::collections::BTreeMap<u64, String>,
    spans: &mut Vec<SpanRow>,
) {
    let pid = event.get("pid").and_then(json::Value::as_u64).unwrap_or(0);
    let ph = event.get("ph").and_then(json::Value::as_str).unwrap_or("");
    match ph {
        "M" if event.get("name").and_then(json::Value::as_str) == Some("process_name") => {
            if let Some(name) = event
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(json::Value::as_str)
            {
                names.insert(pid, name.to_string());
            }
        }
        "X" => {
            let ts = event.get("ts").and_then(json::Value::as_u64).unwrap_or(0);
            let dur = event.get("dur").and_then(json::Value::as_u64).unwrap_or(0);
            spans.push(SpanRow {
                pid,
                cat: event
                    .get("cat")
                    .and_then(json::Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                dur,
                end: ts + dur,
            });
        }
        _ => {}
    }
}

/// How many registry counters `skymr-cli trace` prints per job.
const SHOWN: usize = 24;

/// `skymr-cli trace` — check a trace file written by `run --trace` against
/// the exporters' schema, then summarize it. A trace that breaks the schema
/// is an error listing every violation.
pub fn trace(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[])?;
    let path = args
        .positional
        .first()
        .ok_or("usage: skymr-cli trace FILE")?;
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let trace = trace_schema::read(path, &raw).map_err(|errors| {
        format!(
            "{path}: {} trace schema violation(s)\n  {}",
            errors.len(),
            errors.join("\n  ")
        )
    })?;

    let mut names: std::collections::BTreeMap<u64, String> = std::collections::BTreeMap::new();
    let mut spans: Vec<SpanRow> = Vec::new();
    for event in &trace.events {
        classify_event(event, &mut names, &mut spans);
    }

    println!("trace      : {path}");
    println!(
        "schema     : OK ({} events, {} registries)",
        trace.events.len(),
        trace.registries.len()
    );
    println!("spans      : {}", spans.len());
    for (pid, name) in &names {
        let mut by_cat: std::collections::BTreeMap<&str, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut makespan = 0u64;
        for s in spans.iter().filter(|s| s.pid == *pid) {
            let entry = by_cat.entry(s.cat.as_str()).or_default();
            entry.0 += 1;
            entry.1 += s.dur;
            makespan = makespan.max(s.end);
        }
        if by_cat.is_empty() {
            continue;
        }
        println!("process {pid} ({name}): finishes at {makespan} ticks");
        for (cat, (count, total)) in by_cat {
            println!("  {cat:<12} {count:>5} spans, {total:>12} ticks total");
        }
    }
    for reg in &trace.registries {
        let job = reg.get("job").and_then(json::Value::as_str).unwrap_or("?");
        let counters: Vec<(&str, u64)> = reg
            .get("counters")
            .and_then(json::Value::as_object)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.as_str(), v.as_u64()?)))
            .collect();
        println!("registry {job}: {} counters", counters.len());
        for (k, v) in counters.iter().take(SHOWN) {
            println!("  {k:<44} {v}");
        }
        if counters.len() > SHOWN {
            println!("  … and {} more", counters.len() - SHOWN);
        }
    }
    Ok(())
}

/// `skymr-cli info`
pub fn info(args: &Args) -> Result<(), String> {
    args.reject_unknown(INFO_OPTS)?;
    let data = load_dataset(args)?;
    println!("tuples     : {}", data.len());
    println!("dimensions : {}", data.dim());
    if data.is_empty() {
        return Ok(());
    }
    for d in 0..data.dim() {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for t in data.tuples() {
            let v = t.values[d];
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        println!(
            "  dim {d}: min {min:.4}  mean {:.4}  max {max:.4}",
            sum / data.len() as f64
        );
    }
    let skyline = bnl_skyline(data.tuples());
    println!(
        "skyline    : {} tuples ({:.2}%)",
        skyline.len(),
        100.0 * skyline.len() as f64 / data.len() as f64
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn run_all_algorithms_on_generated_data() {
        for algo in [
            "gpsrs",
            "gpmrs",
            "hybrid",
            "mr-bnl",
            "mr-sfs",
            "mr-angle",
            "sky-mr",
            "mr-bitmap",
            "bnl",
            "sfs",
            "dnc",
        ] {
            let a = args(&format!(
                "run --algo {algo} --dist independent --dim 3 --card 200 --seed 5 --mappers 2 --reducers 2"
            ));
            run(&a).unwrap_or_else(|e| panic!("{algo} failed: {e}"));
        }
    }

    #[test]
    fn run_skyband_with_k() {
        let a = args("run --algo skyband --k 3 --dist independent --dim 3 --card 200");
        run(&a).unwrap();
    }

    #[test]
    fn run_topk_dominating() {
        let a = args("run --algo topk --k 5 --dist anticorrelated --dim 3 --card 200");
        run(&a).unwrap();
    }

    #[test]
    fn run_with_each_local_kernel() {
        for kernel in ["bnl", "sfs", "dnc"] {
            let a = args(&format!(
                "run --algo gpsrs --dist anticorrelated --dim 3 --card 200 --local {kernel} --verify"
            ));
            run(&a).unwrap_or_else(|e| panic!("kernel {kernel} failed: {e}"));
        }
        let a = args("run --algo gpsrs --dist independent --dim 2 --card 50 --local nope");
        assert!(run(&a).is_err());
    }

    #[test]
    fn run_constrained_skyline() {
        let a = args(
            "run --algo gpmrs --dist anticorrelated --dim 2 --card 300 --lo 0.2,0.1 --hi 0.9,0.8 --verify",
        );
        run(&a).unwrap();
        // --hi alone defaults the lower bounds to zero.
        let a = args("run --algo bnl --dist independent --dim 2 --card 100 --hi 0.5,0.5");
        run(&a).unwrap();
    }

    #[test]
    fn run_subspace_projection() {
        let a =
            args("run --algo gpmrs --dist anticorrelated --dim 5 --card 200 --dims 0,2,4 --verify");
        run(&a).unwrap();
        let a = args("run --algo bnl --dist independent --dim 3 --card 50 --dims 9");
        assert!(run(&a).is_err(), "out-of-range projection must fail");
    }

    #[test]
    fn run_with_verify_flag_checks_oracle() {
        let a = args("run --algo gpmrs --dist anticorrelated --dim 3 --card 300 --verify");
        run(&a).unwrap();
    }

    #[test]
    fn run_rejects_unknown_algorithm_and_options() {
        let a = args("run --algo nope --dist independent --dim 2 --card 10");
        assert!(run(&a).is_err());
        let a = args("run --algo bnl --dist independent --dim 2 --card 10 --bogus 1");
        assert!(run(&a).unwrap_err().contains("--bogus"));
    }

    #[test]
    fn run_rejects_trace_for_algorithms_without_spans() {
        // The unwritable path shows the run never got as far as exporting.
        for algo in [
            "mr-bnl",
            "mr-sfs",
            "mr-angle",
            "sky-mr",
            "mr-bitmap",
            "bnl",
            "sfs",
            "dnc",
        ] {
            let a = args(&format!(
                "run --algo {algo} --dist anticorrelated --dim 3 --card 200 \
                 --trace /nonexistent-dir/x.json"
            ));
            assert_eq!(
                run(&a).unwrap_err(),
                format!(
                    "--trace records spans only for gpsrs, gpmrs, hybrid, skyband, topk; \
                     {algo} records none"
                )
            );
        }
    }

    #[test]
    fn generate_binary_and_reload() {
        let path = std::env::temp_dir().join(format!("skymr-cli-bin-{}.bin", std::process::id()));
        let a = args(&format!(
            "generate --dist independent --dim 3 --card 80 --format binary --out {}",
            path.display()
        ));
        generate(&a).unwrap();
        let a = args(&format!(
            "run --algo gpsrs --input {} --verify",
            path.display()
        ));
        run(&a).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_and_reload_roundtrip() {
        let path = std::env::temp_dir().join(format!("skymr-cli-test-{}.csv", std::process::id()));
        let a = args(&format!(
            "generate --dist anticorrelated --dim 3 --card 100 --seed 9 --out {}",
            path.display()
        ));
        generate(&a).unwrap();
        let a = args(&format!("info --input {}", path.display()));
        info(&a).unwrap();
        let a = args(&format!("run --algo gpmrs --input {}", path.display()));
        run(&a).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_writes_and_summarizes_traces() {
        for ext in ["json", "jsonl"] {
            let path =
                std::env::temp_dir().join(format!("skymr-cli-trace-{}.{ext}", std::process::id()));
            let a = args(&format!(
                "run --algo gpmrs --dist anticorrelated --dim 3 --card 300 --seed 7 \
                 --mappers 3 --reducers 2 --ppd 3 --trace {}",
                path.display()
            ));
            run(&a).unwrap();
            let a = args(&format!("trace {}", path.display()));
            trace(&a).unwrap_or_else(|e| panic!("summarizing .{ext} failed: {e}"));
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn trace_rejects_garbage() {
        let path = std::env::temp_dir().join(format!("skymr-cli-bad-{}.json", std::process::id()));
        std::fs::write(&path, "not json").unwrap();
        let a = args(&format!("trace {}", path.display()));
        assert!(trace(&a).is_err());
        // Well-formed JSON that breaks the schema: a complete span
        // without a duration.
        std::fs::write(
            &path,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"name\":\"x\",\"cat\":\"map\",\"ph\":\"X\",\"ts\":0,\
             \"pid\":1,\"tid\":1,\"args\":{}}],\"registries\":[]}",
        )
        .unwrap();
        let err = trace(&a).expect_err("a span without dur is rejected");
        assert!(err.contains("\"dur\""), "{err}");
        std::fs::remove_file(path).ok();
        let a = args("trace");
        assert!(trace(&a).is_err(), "missing file argument must fail");
    }

    #[test]
    fn run_with_node_chaos_still_verifies() {
        // A handful of seeds so at least one actually loses a node; every
        // run must still match the BNL oracle.
        for seed in 0..4 {
            let a = args(&format!(
                "run --algo gpmrs --dist anticorrelated --dim 3 --card 300 \
                 --mappers 4 --reducers 2 --chaos-nodes {seed} --verify"
            ));
            run(&a).unwrap_or_else(|e| panic!("chaos seed {seed} failed: {e}"));
        }
    }

    #[test]
    fn run_with_data_chaos_still_verifies() {
        // Seeded shuffle corruption and hangs must be invisible in the
        // output: every seed still matches the BNL oracle.
        for seed in 0..4 {
            let a = args(&format!(
                "run --algo gpmrs --dist anticorrelated --dim 3 --card 300 \
                 --mappers 4 --reducers 2 --chaos-corrupt {seed} --verify"
            ));
            run(&a).unwrap_or_else(|e| panic!("data chaos seed {seed} failed: {e}"));
        }
    }

    #[test]
    fn run_poison_record_needs_skip_bad_records() {
        // Without the skip policy the poisoned record aborts the job …
        let base = "run --algo gpsrs --dist independent --dim 3 --card 200 --seed 5 \
                    --mappers 2 --reducers 2 --poison 0:3";
        let err = run(&args(base)).expect_err("poison without skip must abort");
        assert!(err.contains("poisoned"), "unexpected error: {err}");
        // … with it, the job completes degraded, skipping exactly one record.
        run(&args(&format!("{base} --skip-bad-records"))).unwrap();
        // Malformed specs are rejected up front.
        let bad = args("run --algo gpsrs --dist independent --dim 2 --card 50 --poison nope");
        assert!(run(&bad).unwrap_err().contains("MAP:RECORD"));
    }

    #[test]
    fn run_kill_and_resume_via_flags() {
        let path = std::env::temp_dir().join(format!("skymr-cli-ckpt-{}.json", std::process::id()));
        let base = format!(
            "run --algo gpsrs --dist anticorrelated --dim 3 --card 300 --seed 11 \
             --checkpoint {}",
            path.display()
        );
        let killed = run(&args(&format!("{base} --kill-after 1")))
            .expect_err("the kill-point must abort the run");
        assert!(killed.contains("killed"), "unexpected error: {killed}");
        run(&args(&format!("{base} --resume --verify"))).unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_spilling_under_a_memory_budget_still_verifies() {
        // A 1 KiB budget forces every MapReduce algorithm out of core; the
        // skyline must stay byte-identical to the in-memory oracle.
        for algo in ["gpsrs", "gpmrs", "mr-bnl", "mr-angle"] {
            let a = args(&format!(
                "run --algo {algo} --dist anticorrelated --dim 3 --card 300 --seed 5 \
                 --mappers 3 --reducers 2 --memory-budget 1k --verify"
            ));
            run(&a).unwrap_or_else(|e| panic!("{algo} spill run failed: {e}"));
        }
        let bad =
            args("run --algo gpsrs --dist independent --dim 2 --card 50 --memory-budget nope");
        assert!(run(&bad).unwrap_err().contains("--memory-budget"));
    }

    #[test]
    fn run_spilling_into_an_explicit_spill_dir() {
        let dir = std::env::temp_dir().join(format!("skymr-cli-spill-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = args(&format!(
            "run --algo gpmrs --dist anticorrelated --dim 3 --card 300 --seed 7 \
             --memory-budget 512 --spill-dir {} --verify",
            dir.display()
        ));
        run(&a).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_reports_structure() {
        let a = args("plan --dist anticorrelated --dim 3 --card 500 --ppd 4 --reducers 3");
        plan(&a).unwrap();
    }

    #[test]
    fn load_requires_input_or_shape() {
        let a = args("info --dist independent");
        assert!(info(&a).is_err());
    }

    #[test]
    fn clustered_distribution_parses() {
        let a = args("info --dist clustered --clusters 2 --dim 2 --card 50");
        info(&a).unwrap();
    }
}
