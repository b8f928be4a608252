//! `cargo xtask` — repo-specific developer tasks.
//!
//! * `bench-gate` — run the criterion benches and compare medians
//!   against the committed `BENCH_*.json` baselines with a noise-aware
//!   (MAD-scaled) threshold; fails on regressions.
//! * `trace-schema` — validate a `--trace` export (Chrome JSON or JSONL)
//!   against the telemetry exporters' documented shape; CI runs it on a
//!   freshly produced trace.
//!
//! The workspace's static policies are stock clippy (`clippy.toml` and
//! crate-level denies); the allocation-per-call check on the hot kernels
//! is the `tests/alloc.rs` integration test (DESIGN §7).
//!
//! Wired up as a cargo alias in `.cargo/config.toml`, so it runs as
//! `cargo xtask bench-gate`.

use std::process::ExitCode;

mod bench_gate;
mod trace_schema;

const USAGE: &str = "\
usage: cargo xtask <task> [options]

tasks:
  bench-gate re-run the criterion benches and compare against the
             committed BENCH_*.json baselines (median-of-samples with a
             MAD-scaled noise threshold); non-zero exit on regression
  trace-schema <file>
             validate a trace written by `skymr-cli run --trace`
             (Chrome trace_event JSON, or JSONL if the file ends
             in .jsonl)
  help       show this message

options (bench-gate):
  --update-baseline             rewrite the BENCH_*.json baselines from
                                this run instead of gating against them
  --bench <name>                gate only the named bench target
                                (default: all registered targets)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (task, rest) = match args.split_first() {
        Some((t, rest)) => (t.as_str(), rest),
        None => ("help", &[][..]),
    };
    match task {
        "bench-gate" => bench_gate::run(rest),
        "trace-schema" => trace_schema::run(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("xtask: unknown task `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
