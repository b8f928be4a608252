//! Result encoding, and the `run` / `trace` / `check` commands that drive
//! one child process per workload and report what the children measured.

use std::process::{Command, Stdio};

use skymr_mapreduce::telemetry::json::{self, Value};

use crate::measure::RunResult;
use crate::spec::{self, OP_P99};
use crate::stats::rel_diff;
use crate::workloads::{Workload, HOST_THREADS, WORKLOADS};
use crate::Result;

/// The result line of the driver contract: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(result: &RunResult) -> Result<String> {
    let mut metrics = Vec::with_capacity(result.metrics.len());
    for (name, value, unit) in &result.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}").into());
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    ))
}

/// Reads a child's standard output back: `key=value` notes from the header
/// line, the result from the last line.
pub fn parse_output(stdout: &str) -> Result<RunResult> {
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let doc = json::parse(last).map_err(|e| format!("result line is not JSON: {e:?}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("result has no {key}"));
    let Value::Object(members) = field("metrics")? else {
        return Err("metrics is not an object".into());
    };
    let mut metrics = Vec::with_capacity(members.len());
    for (name, m) in members {
        let value = m.get("value").and_then(Value::as_f64);
        let unit = m.get("unit").and_then(Value::as_str);
        let (Some(value), Some(unit)) = (value, unit) else {
            return Err(format!("metric {name} lacks value or unit").into());
        };
        metrics.push((name.clone(), value, unit.to_owned()));
    }
    let note = |key: &str| {
        stdout
            .lines()
            .flat_map(str::split_whitespace)
            .find_map(|token| token.strip_prefix(key)?.strip_prefix('='))
    };
    Ok(RunResult {
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: field("attempted")?
            .as_u64()
            .ok_or("attempted is not a count")?,
        failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
        metrics,
        digest: note("digest")
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or("the run printed no digest")?,
        op_p99_s: note(OP_P99.name).and_then(|v| v.parse().ok()),
    })
}

/// Options shared by the parent commands.
#[derive(Debug, Clone)]
pub struct Options {
    /// Dataset seed.
    pub seed: u64,
    /// Timed-loop length handed to each child.
    pub seconds: f64,
    /// Restrict to one workload.
    pub workload: Option<&'static Workload>,
    /// Run at smoke scale.
    pub smoke: bool,
    /// Also write the results as JSON to this file.
    pub out: Option<String>,
}

impl Options {
    fn workloads(&self) -> Vec<&'static Workload> {
        self.workload
            .map_or_else(|| WORKLOADS.iter().collect(), |w| vec![w])
    }
}

/// Runs one workload in a child process of this executable, so its peak
/// RSS is its own, and returns what it measured.
fn child(opts: &Options, workload: &Workload, trace: bool) -> Result<RunResult> {
    let mut command = Command::new(std::env::current_exe()?);
    command
        .args(["--workload", workload.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command.output()?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace={trace}) exited with {}",
            workload.name, output.status
        )
        .into());
    }
    parse_output(&String::from_utf8(output.stdout)?)
}

fn print_rows(workload: &Workload, result: &RunResult) {
    let rows = result
        .metrics
        .iter()
        .map(|(name, value, unit)| (name.as_str(), *value, unit.as_str()))
        .chain(result.op_p99_s.map(|v| (OP_P99.name, v, OP_P99.unit)));
    for (name, value, unit) in rows {
        println!("{:<16} {:<44} {:>18.6} {unit}", workload.name, name, value);
    }
    println!(
        "{:<16} {:<44} {:>18} count of {}",
        workload.name, "failed_ops", result.failed, result.attempted
    );
}

/// `run` (end-to-end metrics) and `trace` (per-layer metrics plus the span
/// file): one child per workload. Returns whether every output was correct.
pub fn run_all(opts: &Options, trace: bool) -> Result<bool> {
    println!(
        "seed={} seconds={} host_threads={HOST_THREADS} scale={}",
        opts.seed,
        opts.seconds,
        if opts.smoke { "smoke" } else { "full" }
    );
    println!("{:<16} {:<44} {:>18} unit", "workload", "metric", "value");
    let mut all_correct = true;
    let mut entries = Vec::new();
    for workload in opts.workloads() {
        let result = child(opts, workload, trace)?;
        print_rows(workload, &result);
        all_correct &= result.correct && result.failed == 0;
        entries.push(format!("\"{}\": {}", workload.name, result_json(&result)?));
    }
    if let Some(path) = &opts.out {
        std::fs::write(
            path,
            format!(
                "{{\"seed\": {}, \"seconds\": {}, \"host_threads\": {HOST_THREADS}, \"results\": {{\n{}\n}}}}\n",
                opts.seed,
                opts.seconds,
                entries.join(",\n")
            ),
        )?;
    }
    if !all_correct {
        println!("FAILED: some operation did not produce the oracle's skyline");
    }
    Ok(all_correct)
}

/// One full set: every workload untraced and traced, in the given order.
fn full_set(
    opts: &Options,
    order: &[&'static Workload],
) -> Result<Vec<(&'static str, RunResult, RunResult)>> {
    order
        .iter()
        .map(|w| Ok((w.name, child(opts, w, false)?, child(opts, w, true)?)))
        .collect()
}

/// The A/A tool: two full sets of the same code with the workload order
/// alternated, compared metric by metric. End-to-end metrics must agree
/// within their bounds, exact metrics exactly; workloads sharing a dataset
/// must share a digest. Returns whether everything held.
pub fn check(opts: &Options) -> Result<bool> {
    let forward = opts.workloads();
    let backward: Vec<_> = forward.iter().rev().copied().collect();
    let first = full_set(opts, &forward)?;
    let second = full_set(opts, &backward)?;

    let mut ok = true;
    println!(
        "{:<16} {:<44} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (name, plain_a, traced_a) in &first {
        let Some((_, plain_b, traced_b)) = second.iter().find(|(n, _, _)| n == name) else {
            return Err(format!("second set lacks {name}").into());
        };
        for run in [plain_a, plain_b, traced_a, traced_b] {
            if !run.correct || run.failed != 0 {
                println!("{name:<16} VIOLATION: incorrect output or failed operations");
                ok = false;
            }
        }
        let pairs = plain_a
            .metrics
            .iter()
            .zip(&plain_b.metrics)
            .chain(traced_a.metrics.iter().zip(&traced_b.metrics));
        for ((metric, a, _), (other, b, _)) in pairs {
            if metric != other {
                return Err(format!("{name}: sets disagree on metric order").into());
            }
            let Some(declared) = spec::find(metric) else {
                return Err(format!("{name}: undeclared metric {metric}").into());
            };
            let diff = rel_diff(*a, *b);
            let (bound, held) = if declared.exact {
                ("exact".to_owned(), a == b)
            } else if declared.bound > 0.0 {
                (format!("{:.3}", declared.bound), diff <= declared.bound)
            } else {
                ("-".to_owned(), true)
            };
            println!(
                "{name:<16} {metric:<44} {a:>16.6} {b:>16.6} {diff:>9.4} {bound:>7}{}",
                if held { "" } else { "  VIOLATION" }
            );
            ok &= held;
        }
    }
    for (a, b) in [
        ("anti6d_gpsrs", "anti6d_gpmrs"),
        ("indep3d_shuffle", "indep3d_spill"),
    ] {
        let digest = |name: &str| {
            first
                .iter()
                .find(|(n, _, _)| *n == name)
                .map(|r| r.1.digest)
        };
        if let (Some(da), Some(db)) = (digest(a), digest(b)) {
            let held = da == db;
            println!(
                "digest {a} = {da:016x}, {b} = {db:016x}{}",
                if held { "" } else { "  VIOLATION" }
            );
            ok &= held;
        }
    }
    println!("{}", if ok { "check: OK" } else { "check: FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                ("op_p50_s".to_owned(), 1.203_456_789, "s".to_owned()),
                ("shuffle_mib".to_owned(), 5.5, "MiB".to_owned()),
            ],
            digest: 0xDEAD_BEEF_0000_0001,
            op_p99_s: Some(0.0034),
        }
    }

    #[test]
    fn result_line_round_trips_through_the_header_and_last_line() {
        let result = sample();
        let stdout = format!(
            "workload=x seed=1 digest={:016x} op_p99_s=0.0034 s\n{}\n",
            result.digest,
            result_json(&result).expect("finite")
        );
        assert_eq!(parse_output(&stdout).expect("parses"), result);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let doc = json::parse(&result_json(&sample()).expect("finite")).expect("JSON");
        let Value::Object(members) = doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn non_finite_values_are_refused() {
        let mut result = sample();
        result.metrics[0].1 = f64::NAN;
        assert!(result_json(&result).is_err());
    }
}
