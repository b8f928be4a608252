//! `cargo xtask bench-gate` — a perf-regression gate over the committed
//! kernel benchmark baselines.
//!
//! The bench binaries (e.g. `crates/bench/benches/dominance.rs`) export
//! machine-readable timings as `BENCH_*.json` at the repo root; those
//! files are committed, so the tree always carries the last blessed
//! numbers. This task re-runs each registered bench `RUNS` times, takes
//! the **median** per label (robust to a single noisy run), and compares
//! it against the committed mean with a noise-aware threshold:
//!
//! ```text
//! regressed  ⇔  median − baseline > max(REL_SLACK · baseline,
//!                                        NOISE_K · 1.4826 · MAD(samples),
//!                                        ABS_FLOOR_NS)
//! ```
//!
//! The relative slack absorbs machine-to-machine drift, the MAD term
//! widens the gate exactly when this machine's own samples scatter (a
//! noisy kernel cannot produce a confident verdict), and the absolute
//! floor keeps single-digit-nanosecond kernels from failing on timer
//! granularity. Regressions are reported as `file:line` diagnostics
//! pointing into the baseline document and fail the task; CI runs this
//! advisory on PRs and enforced on `main`. `--update-baseline` rewrites
//! the baselines from the same median-of-runs instead of gating.

use std::path::Path;
use std::process::{Command, ExitCode};

/// Bench targets under the gate: bench name → committed baseline file at
/// the repo root. All targets live in the `skymr-bench` package.
const BENCHES: &[(&str, &str)] = &[("dominance", "BENCH_dominance.json")];

/// Repeated runs per bench; the median is compared, so one outlier run
/// cannot fail (or sneak past) the gate.
const RUNS: usize = 3;
/// Relative slack: a kernel may drift this fraction over its baseline
/// before the gate considers it regressed (absorbs host differences).
const REL_SLACK: f64 = 0.5;
/// Noise multiplier on the MAD-estimated standard deviation of this
/// machine's own samples.
const NOISE_K: f64 = 4.0;
/// MAD → standard-deviation scale factor for normal noise.
const MAD_SCALE: f64 = 1.4826;
/// Absolute floor in nanoseconds: below this, timer granularity owns the
/// signal and no verdict is meaningful.
const ABS_FLOOR_NS: f64 = 30.0;

// ---------------------------------------------------------------------
// Baseline document parsing.
// ---------------------------------------------------------------------

/// One `{label, mean_ns, iters}` row of a `BENCH_*.json` document, with
/// the 1-based line it was parsed from (for `file:line` diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub label: String,
    pub mean_ns: f64,
    pub iters: u64,
    pub line: usize,
}

/// Pulls the JSON string value for `key` out of a single-row line. The
/// documents are rendered one row per line by `render_kernel_bench_json`,
/// so per-line field extraction is exact for this schema.
fn field_str(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => out.push(chars.next()?),
            c => out.push(c),
        }
    }
    None
}

/// Pulls the JSON numeric value for `key` out of a single-row line.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a `BENCH_*.json` document into rows. Errors name the offending
/// line so a corrupted baseline is itself a `file:line` diagnostic.
pub fn parse_baseline(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if !line.contains("\"label\"") {
            continue;
        }
        let label =
            field_str(line, "label").ok_or_else(|| format!("line {}: bad `label`", i + 1))?;
        let mean_ns =
            field_num(line, "mean_ns").ok_or_else(|| format!("line {}: bad `mean_ns`", i + 1))?;
        let iters =
            field_num(line, "iters").ok_or_else(|| format!("line {}: bad `iters`", i + 1))?;
        rows.push(Row {
            label,
            mean_ns,
            iters: iters as u64,
            line: i + 1,
        });
    }
    if rows.is_empty() {
        return Err("no benchmark rows found".into());
    }
    Ok(rows)
}

/// Renders rows back into the committed document shape (same as the bench
/// binaries' `render_kernel_bench_json`, so `--update-baseline` output is
/// byte-compatible with a fresh bench export).
pub fn render_baseline(bench: &str, rows: &[Row]) -> String {
    let mut out = format!("{{\"bench\":\"{bench}\",\"results\":[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let label = r.label.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!(
            "\n{{\"label\":\"{label}\",\"mean_ns\":{:.1},\"iters\":{}}}",
            r.mean_ns, r.iters
        ));
    }
    out.push_str("\n]}\n");
    out
}

// ---------------------------------------------------------------------
// The gate rule.
// ---------------------------------------------------------------------

/// Median of a non-empty sample set.
fn median(samples: &[f64]) -> f64 {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
fn mad(samples: &[f64], med: f64) -> f64 {
    let devs: Vec<f64> = samples.iter().map(|x| (x - med).abs()).collect();
    median(&devs)
}

/// One label's gate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub label: String,
    /// Committed baseline mean (ns).
    pub baseline_ns: f64,
    /// Median of this gate's sample runs (ns).
    pub observed_ns: f64,
    /// Allowed excess over the baseline (ns).
    pub threshold_ns: f64,
    /// Baseline document line for `file:line` diagnostics.
    pub line: usize,
    pub regressed: bool,
}

/// Compares `runs` (one row set per repeated bench run) against the
/// committed `baseline`. Errors when the label sets disagree — a renamed
/// or added kernel means the baseline must be re-blessed, not gated.
pub fn gate(baseline: &[Row], runs: &[Vec<Row>]) -> Result<Vec<Verdict>, String> {
    if runs.is_empty() {
        return Err("no sample runs".into());
    }
    for b in baseline {
        if runs.iter().any(|r| !r.iter().any(|s| s.label == b.label)) {
            return Err(format!(
                "baseline label `{}` missing from a sample run — \
                 re-bless with `cargo xtask bench-gate --update-baseline`",
                b.label
            ));
        }
    }
    for r in runs.iter().flatten() {
        if !baseline.iter().any(|b| b.label == r.label) {
            return Err(format!(
                "new benchmark `{}` has no committed baseline — \
                 re-bless with `cargo xtask bench-gate --update-baseline`",
                r.label
            ));
        }
    }
    let mut out = Vec::with_capacity(baseline.len());
    for b in baseline {
        let samples: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.iter().filter(|s| s.label == b.label))
            .map(|s| s.mean_ns)
            .collect();
        let observed = median(&samples);
        let noise = NOISE_K * MAD_SCALE * mad(&samples, observed);
        let threshold = (REL_SLACK * b.mean_ns).max(noise).max(ABS_FLOOR_NS);
        out.push(Verdict {
            label: b.label.clone(),
            baseline_ns: b.mean_ns,
            observed_ns: observed,
            threshold_ns: threshold,
            line: b.line,
            regressed: observed - b.mean_ns > threshold,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------

fn workspace_root() -> Option<&'static Path> {
    // crates/xtask -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.parent()
}

/// Runs one bench target once, exporting its rows via `SKYMR_BENCH_OUT`.
fn run_bench_once(root: &Path, bench: &str, run_idx: usize) -> Result<Vec<Row>, String> {
    let out_path = std::env::temp_dir().join(format!(
        "skymr-bench-gate-{}-{bench}-{run_idx}.json",
        std::process::id()
    ));
    let status = Command::new("cargo")
        .args(["bench", "-p", "skymr-bench", "--bench", bench])
        .env("SKYMR_BENCH_OUT", &out_path)
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot spawn cargo bench: {e}"))?;
    if !status.success() {
        return Err(format!("`cargo bench --bench {bench}` failed: {status}"));
    }
    let text = std::fs::read_to_string(&out_path)
        .map_err(|e| format!("bench wrote no export at {}: {e}", out_path.display()))?;
    std::fs::remove_file(&out_path).ok();
    parse_baseline(&text).map_err(|e| format!("bench export: {e}"))
}

/// Entry point for `cargo xtask bench-gate`.
pub fn run(args: &[String]) -> ExitCode {
    let mut update = false;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--update-baseline" => update = true,
            "--bench" => match it.next() {
                Some(v) => only = Some(v.clone()),
                None => {
                    eprintln!("xtask bench-gate: --bench needs a value");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("xtask bench-gate: unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = workspace_root() else {
        eprintln!("xtask: cannot locate the workspace root");
        return ExitCode::from(2);
    };

    let mut failed = false;
    let mut gated = 0usize;
    for &(bench, baseline_file) in BENCHES {
        if only.as_deref().is_some_and(|o| o != bench) {
            continue;
        }
        gated += 1;
        println!("bench-gate: running `{bench}` ×{RUNS}…");
        let mut runs = Vec::with_capacity(RUNS);
        for i in 0..RUNS {
            match run_bench_once(root, bench, i) {
                Ok(rows) => runs.push(rows),
                Err(e) => {
                    eprintln!("bench-gate: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }

        if update {
            // Median-of-runs becomes the new blessed baseline, in the
            // first run's row order (= bench execution order).
            let rows: Vec<Row> = runs[0]
                .iter()
                .map(|r| {
                    let samples: Vec<f64> = runs
                        .iter()
                        .flat_map(|run| run.iter().filter(|s| s.label == r.label))
                        .map(|s| s.mean_ns)
                        .collect();
                    Row {
                        mean_ns: median(&samples),
                        ..r.clone()
                    }
                })
                .collect();
            let path = root.join(baseline_file);
            if let Err(e) = std::fs::write(&path, render_baseline(bench, &rows)) {
                eprintln!("bench-gate: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "bench-gate: blessed {baseline_file} ({} labels, median of {RUNS} runs)",
                rows.len()
            );
            continue;
        }

        let path = root.join(baseline_file);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!(
                    "bench-gate: cannot read {baseline_file}: {e} \
                     (bless one with --update-baseline)"
                );
                return ExitCode::FAILURE;
            }
        };
        let baseline = match parse_baseline(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{baseline_file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let verdicts = match gate(&baseline, &runs) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bench-gate: {e}");
                return ExitCode::FAILURE;
            }
        };
        for v in &verdicts {
            if v.regressed {
                failed = true;
                println!(
                    "{baseline_file}:{}: [bench-gate] `{}` regressed: {:.1}ns vs \
                     baseline {:.1}ns (allowed +{:.1}ns)",
                    v.line, v.label, v.observed_ns, v.baseline_ns, v.threshold_ns
                );
            } else {
                println!(
                    "bench-gate: ok `{}` {:.1}ns vs {:.1}ns (+{:.1}ns allowed)",
                    v.label, v.observed_ns, v.baseline_ns, v.threshold_ns
                );
            }
        }
    }
    if gated == 0 {
        eprintln!("bench-gate: no bench matched");
        return ExitCode::from(2);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("bench-gate: OK");
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, mean_ns: f64, line: usize) -> Row {
        Row {
            label: label.into(),
            mean_ns,
            iters: 20,
            line,
        }
    }

    #[test]
    fn parse_and_render_round_trip() {
        let text = render_baseline(
            "dominance",
            &[row("dominance/dominates/correlated", 12.0, 2)],
        );
        let rows = parse_baseline(&text).expect("parses");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].label, "dominance/dominates/correlated");
        assert_eq!(rows[0].mean_ns, 12.0);
        assert_eq!(rows[0].iters, 20);
        assert_eq!(rows[0].line, 2, "rows start on line 2 of the document");
        assert_eq!(text, render_baseline("dominance", &rows));
    }

    #[test]
    fn committed_baseline_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dominance.json");
        let text = std::fs::read_to_string(path).expect("committed baseline exists");
        let rows = parse_baseline(&text).expect("committed baseline parses");
        assert!(rows.len() >= 9, "expected all kernel series, got {rows:?}");
        let mut labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), rows.len(), "labels are unique");
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 9.0], 2.0), 1.0);
    }

    #[test]
    fn stable_timings_pass() {
        let baseline = vec![row("k/a", 1000.0, 2), row("k/b", 50_000.0, 3)];
        let runs = vec![
            vec![row("k/a", 1040.0, 0), row("k/b", 51_000.0, 0)],
            vec![row("k/a", 980.0, 0), row("k/b", 49_500.0, 0)],
            vec![row("k/a", 1010.0, 0), row("k/b", 50_200.0, 0)],
        ];
        let verdicts = gate(&baseline, &runs).expect("gates");
        assert!(verdicts.iter().all(|v| !v.regressed), "{verdicts:?}");
    }

    #[test]
    fn injected_2x_slowdown_fails_with_baseline_line() {
        let baseline = vec![row("k/a", 1000.0, 2), row("k/b", 50_000.0, 3)];
        // `k/b` runs ≥2× its baseline, consistently (tight samples keep
        // the MAD term from widening the gate).
        let runs = vec![
            vec![row("k/a", 1000.0, 0), row("k/b", 104_000.0, 0)],
            vec![row("k/a", 990.0, 0), row("k/b", 103_000.0, 0)],
            vec![row("k/a", 1010.0, 0), row("k/b", 104_500.0, 0)],
        ];
        let verdicts = gate(&baseline, &runs).expect("gates");
        let bad: Vec<&Verdict> = verdicts.iter().filter(|v| v.regressed).collect();
        assert_eq!(bad.len(), 1, "{verdicts:?}");
        assert_eq!(bad[0].label, "k/b");
        assert_eq!(bad[0].line, 3, "diagnostic points into the baseline file");
    }

    #[test]
    fn tampered_baseline_fails() {
        // Someone edits the committed mean down to make a kernel look
        // fast; honest re-runs now exceed it and the gate trips.
        let tampered = vec![row("k/a", 100.0, 2)];
        let runs = vec![
            vec![row("k/a", 1000.0, 0)],
            vec![row("k/a", 1005.0, 0)],
            vec![row("k/a", 995.0, 0)],
        ];
        let verdicts = gate(&tampered, &runs).expect("gates");
        assert!(verdicts[0].regressed);
        assert_eq!(verdicts[0].line, 2);
    }

    #[test]
    fn noisy_samples_widen_the_gate() {
        let baseline = vec![row("k/a", 1000.0, 2)];
        // Median 1400 is +40% (within REL_SLACK anyway), but with huge
        // scatter even a larger excursion is absorbed by the MAD term.
        let runs = vec![
            vec![row("k/a", 400.0, 0)],
            vec![row("k/a", 1400.0, 0)],
            vec![row("k/a", 2400.0, 0)],
        ];
        let verdicts = gate(&baseline, &runs).expect("gates");
        assert!(!verdicts[0].regressed, "{verdicts:?}");
        assert!(verdicts[0].threshold_ns > 5000.0, "{verdicts:?}");
    }

    #[test]
    fn timer_granularity_floor_protects_tiny_kernels() {
        let baseline = vec![row("k/tiny", 5.0, 2)];
        let runs = vec![
            vec![row("k/tiny", 25.0, 0)],
            vec![row("k/tiny", 25.0, 0)],
            vec![row("k/tiny", 25.0, 0)],
        ];
        // 5× the baseline, but under the absolute floor: no verdict.
        let verdicts = gate(&baseline, &runs).expect("gates");
        assert!(!verdicts[0].regressed, "{verdicts:?}");
    }

    #[test]
    fn label_set_mismatch_is_an_error() {
        let baseline = vec![row("k/a", 1000.0, 2)];
        let runs = vec![vec![row("k/a", 1000.0, 0), row("k/new", 5.0, 0)]];
        let err = gate(&baseline, &runs).expect_err("new label must error");
        assert!(err.contains("k/new"), "{err}");
        let baseline = vec![row("k/a", 1000.0, 2), row("k/gone", 1.0, 3)];
        let runs = vec![vec![row("k/a", 1000.0, 0)]];
        let err = gate(&baseline, &runs).expect_err("missing label must error");
        assert!(err.contains("k/gone"), "{err}");
    }
}
