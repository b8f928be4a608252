//! Telemetry export determinism: the traced MR-GPMRS pipeline must emit
//! byte-identical Chrome-trace JSON and JSONL exports regardless of host
//! thread count or schedule shaking, and the trace must actually contain
//! the spans and pruning counters the evaluation story depends on.

use skymr::{mr_gpmrs, SkylineConfig};
use skymr_datagen::Distribution;
use skymr_integration_tests::scenario;
use skymr_mapreduce::telemetry::export::{chrome_trace, jsonl};
use skymr_mapreduce::telemetry::json;
use skymr_mapreduce::{Collector, FaultPlan, FaultTolerance, SpeculationPolicy, TaskFault};

/// Shape of one traced run, for cross-run comparison.
struct TracedRun {
    chrome: String,
    jsonl: String,
    map_tasks: usize,
    reduce_tasks: usize,
}

/// Runs a seeded MR-GPMRS pipeline with scripted faults, a straggler and
/// speculation on (backups are planned and won on model ticks, so they
/// are part of the byte-identity promise) under `host_threads`.
fn traced_gpmrs(host_threads: usize) -> TracedRun {
    let data = scenario(Distribution::Anticorrelated, 4, 700, 401);
    let collector = Collector::new();
    let mut config = SkylineConfig::default()
        .with_mappers(4)
        .with_reducers(5)
        .with_fault_tolerance(
            FaultTolerance::with_plan(
                FaultPlan::fail_maps([1])
                    .with_map_fault(2, TaskFault::straggler(50.0))
                    .with_reduce_fault(0, TaskFault::lost(1))
                    .for_job("gpmrs"),
            )
            .with_speculation(SpeculationPolicy::new()),
        )
        .with_telemetry(Some(collector.clone()));
    config.cluster.host_threads = host_threads;
    let run = mr_gpmrs(&data, &config).expect("traced run succeeds");
    let doc = collector.finish();
    TracedRun {
        chrome: chrome_trace(&doc),
        jsonl: jsonl(&doc),
        map_tasks: run.metrics.jobs[1].map_tasks,
        reduce_tasks: run.metrics.jobs[1].reduce_tasks,
    }
}

#[test]
fn exports_are_byte_identical_across_host_thread_counts() {
    let single = traced_gpmrs(1);
    let parallel = traced_gpmrs(4);
    assert_eq!(
        single.chrome, parallel.chrome,
        "Chrome trace depends on host thread count"
    );
    assert_eq!(
        single.jsonl, parallel.jsonl,
        "JSONL export depends on host thread count"
    );
    // And re-running the same configuration is also byte-stable.
    let again = traced_gpmrs(4);
    assert_eq!(parallel.chrome, again.chrome);
    assert_eq!(parallel.jsonl, again.jsonl);
}

#[test]
fn trace_contains_spans_for_every_task_and_the_pruning_counters() {
    let run = traced_gpmrs(2);
    assert!(run.map_tasks >= 4 && run.reduce_tasks >= 2);
    let doc = json::parse(&run.chrome).expect("chrome export is valid JSON");
    let names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array")
        .iter()
        .filter_map(|e| e.get("name").and_then(json::Value::as_str))
        .collect();
    // Map, shuffle, reduce, and attempt spans for every task of the
    // skyline job (the bitstring job emits its own; name collisions
    // across jobs don't matter for presence checks).
    for i in 0..run.map_tasks {
        let name = format!("map[{i}]");
        assert!(names.contains(&name.as_str()), "missing {name}");
    }
    for j in 0..run.reduce_tasks {
        let reduce = format!("reduce[{j}]");
        let shuffle = format!("shuffle→reduce[{j}]");
        assert!(names.contains(&reduce.as_str()), "missing {reduce}");
        assert!(names.contains(&shuffle.as_str()), "missing {shuffle}");
    }
    let attempts = names.iter().filter(|n| n.starts_with("attempt ")).count();
    assert!(
        attempts >= run.map_tasks + run.reduce_tasks,
        "every task should have at least a winning attempt span \
         ({attempts} attempt spans for {} tasks)",
        run.map_tasks + run.reduce_tasks
    );
    // The scripted faults show up as instant markers, the straggler's
    // speculative backup as an attempt span of its own.
    assert!(names.contains(&"fault:panic") || names.contains(&"fault:lost_output"));
    assert!(names.contains(&"backup"), "missing the backup attempt span");

    // Per-partition pruning counters ride along in the registries: the
    // bitstring job exposes DR partition pruning, the skyline job exposes
    // the mappers' DR/ADR tuple pruning and per-bucket comparison counts.
    let registries = doc
        .get("registries")
        .and_then(json::Value::as_array)
        .expect("registries array");
    let counters_of = |job: &str| -> Vec<String> {
        registries
            .iter()
            .find(|r| r.get("job").and_then(json::Value::as_str) == Some(job))
            .and_then(|r| r.get("counters"))
            .and_then(json::Value::as_object)
            .map(|members| members.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    };
    // SkylineConfig::default() auto-selects the PPD, so the pre-job is the
    // multi-candidate selection job.
    let bitstring = counters_of("bitstring-ppd");
    for needle in [
        "user.reduce.dr_pruned_partitions",
        "user.map.local_partitions_set",
    ] {
        assert!(
            bitstring.contains(&needle.to_owned()),
            "bitstring-ppd registry lacks {needle}: {bitstring:?}"
        );
    }
    let gpmrs = counters_of("gpmrs");
    for needle in [
        "user.map.dr_pruned_tuples",
        "user.map.adr_removed_tuples",
        "user.reduce.bucket.0.partition_cmps",
    ] {
        assert!(
            gpmrs.contains(&needle.to_owned()),
            "gpmrs registry lacks {needle}: {gpmrs:?}"
        );
    }
}

#[test]
fn jsonl_round_trips_through_the_parser() {
    let run = traced_gpmrs(2);
    let mut events = 0usize;
    let mut registries = 0usize;
    for line in run.jsonl.lines() {
        let v = json::parse(line).expect("every JSONL line parses");
        match v.get("type").and_then(json::Value::as_str) {
            Some("event") => events += 1,
            Some("registry") => registries += 1,
            other => panic!("unexpected record type {other:?}"),
        }
    }
    assert!(events > 0);
    assert_eq!(registries, 2, "one registry per pipeline job");
}
