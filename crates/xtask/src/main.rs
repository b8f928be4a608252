//! `cargo xtask` — repo-specific developer tasks.
//!
//! * `analyze` — the one static-analysis entry point: three rules on a
//!   shared token-level stack (a lossless hand-rolled lexer in `lexer.rs`,
//!   a lightweight item/impl parser in `parse.rs`, a workspace symbol
//!   graph in `analyze/resolve.rs`) — `udf-determinism` (mapper/reducer/
//!   combiner bodies are pure functions of their input),
//!   `hot-path-alloc` (no allocation, clone, unsized push or hash map in a
//!   loop reachable from the hot-entry registry) and `clock-discipline`
//!   (wall-clock readings stay advisory) — plus `stale-waiver` for an
//!   `xtask: allow(...)` comment that suppresses nothing. Everything stock
//!   tooling can state is in `clippy.toml` and crate-level denies instead.
//! * `bench-gate` — run the criterion benches and compare medians
//!   against the committed `BENCH_*.json` baselines with a noise-aware
//!   (MAD-scaled) threshold; fails on regressions.
//! * `trace-schema` — validate a `--trace` export (Chrome JSON or JSONL)
//!   against the telemetry exporters' documented shape; CI runs it on a
//!   freshly produced trace.
//!
//! Wired up as a cargo alias in `.cargo/config.toml`, so it runs as
//! `cargo xtask analyze`.

use std::process::ExitCode;

mod analyze;
mod bench_gate;
mod lexer;
mod parse;
#[cfg(test)]
mod roundtrip;
mod trace_schema;

const USAGE: &str = "\
usage: cargo xtask <task> [options]

tasks:
  analyze    run the static rules over the workspace sources:
             udf-determinism (map/reduce/combiner bodies are pure),
             hot-path-alloc (no allocation, clone, unsized push or hash
             map in a loop reachable from the hot entry registry),
             clock-discipline (wall-clock values stay advisory-only),
             stale-waiver (an `xtask: allow(...)` that suppresses nothing)
  bench-gate re-run the criterion benches and compare against the
             committed BENCH_*.json baselines (median-of-samples with a
             MAD-scaled noise threshold); non-zero exit on regression
  trace-schema <file>
             validate a trace written by `skymr-cli run --trace`
             (Chrome trace_event JSON, or JSONL if the file ends
             in .jsonl)
  help       show this message

options (analyze):
  --format <text|json|github>   diagnostic output format (default: text)

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
        "analyze" => match analyze::parse_format(rest) {
            Ok(format) => analyze::run(format),
            Err(msg) => {
                eprintln!("xtask analyze: {msg}\n\n{USAGE}");
                ExitCode::from(2)
            }
        },
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
