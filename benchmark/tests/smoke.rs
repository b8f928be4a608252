//! Smoke scale (1/50 cardinality): all five workloads through the real
//! binary, end to end and traced, via the `run` and `trace` commands.

use std::path::PathBuf;
use std::process::Command;

use skymr_benchmark::spec::{Metric, END_TO_END, PER_LAYER};
use skymr_benchmark::workloads::{out_dir, WORKLOADS};
use skymr_mapreduce::telemetry::json::{self, Value};

const BIN: &str = env!("CARGO_BIN_EXE_skymr-benchmark");

/// Runs `command --smoke --out FILE` and returns the parsed results file.
fn results_of(command: &str) -> Value {
    std::fs::create_dir_all(out_dir()).expect("out dir");
    let file: PathBuf = out_dir().join(format!("smoke-{command}-{}.json", std::process::id()));
    let output = Command::new(BIN)
        .args([command, "--smoke", "--seed", "7", "--out"])
        .arg(&file)
        .env_remove("SKYMR_MEMORY_BUDGET")
        .env_remove("SKYMR_SPILL_DIR")
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{command} --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(stdout.contains("failed_ops"), "no report table:\n{stdout}");
    let text = std::fs::read_to_string(&file).expect("results file");
    let _ = std::fs::remove_file(&file);
    json::parse(&text).expect("results file is JSON")
}

/// Asserts that every workload's result carries exactly `declared`, in
/// order and with the declared units, and that nothing failed. Returns
/// the value of `metric` per workload.
fn assert_declared(doc: &Value, declared: &[Metric], metric: &str) -> Vec<f64> {
    let results = doc.get("results").expect("results object");
    WORKLOADS
        .iter()
        .map(|w| {
            let result = results
                .get(w.name)
                .unwrap_or_else(|| panic!("no result for {}", w.name));
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{}",
                w.name
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{}",
                w.name
            );
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{}: metrics is not an object", w.name)
            };
            let got: Vec<(&str, Option<&str>)> = metrics
                .iter()
                .map(|(name, m)| (name.as_str(), m.get("unit").and_then(Value::as_str)))
                .collect();
            let want: Vec<(&str, Option<&str>)> =
                declared.iter().map(|m| (m.name, Some(m.unit))).collect();
            assert_eq!(got, want, "{}", w.name);
            result
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{}: no {metric}", w.name))
        })
        .collect()
}

#[test]
fn run_emits_every_end_to_end_metric_and_none_is_zero() {
    let doc = results_of("run");
    assert_eq!(doc.get("host_threads").and_then(Value::as_u64), Some(2));
    for m in &END_TO_END {
        for value in assert_declared(&doc, &END_TO_END, m.name) {
            assert!(value > 0.0, "{} must never be 0", m.name);
        }
    }
}

#[test]
fn trace_emits_every_per_layer_metric_and_writes_the_span_files() {
    let doc = results_of("trace");
    let spills = assert_declared(&doc, &PER_LAYER, "mapreduce.storage.spill_files");
    for (w, spill_files) in WORKLOADS.iter().zip(spills) {
        // Storage is inert everywhere but on the spill workload.
        assert_eq!(spill_files > 0.0, w.memory_budget.is_some(), "{}", w.name);

        let path = out_dir().join(format!("trace-{}.json", w.name));
        let trace = json::parse(&std::fs::read_to_string(&path).expect("span file"))
            .expect("span file is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        let named = |name: &str| {
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(name))
        };
        assert!(
            named("bench.pipeline") && named("bench.probes"),
            "{}",
            w.name
        );
    }
}

#[test]
fn spill_environment_overrides_are_refused() {
    let output = Command::new(BIN)
        .args([
            "--workload",
            "small_jobs",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .arg("--smoke")
        .env("SKYMR_MEMORY_BUDGET", "1m")
        .output()
        .expect("benchmark binary runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&output.stderr).contains("SKYMR_MEMORY_BUDGET"));
}
