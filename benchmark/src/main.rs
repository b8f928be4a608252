//! Command line of the benchmark.
//!
//! ```text
//! skymr-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, result on the last line
//! skymr-benchmark run   [--seed N] [--seconds S] [--workload NAME] [--out FILE]
//! skymr-benchmark trace [--seed N] [--seconds S] [--workload NAME] [--out FILE]
//! skymr-benchmark check [--seed N] [--seconds S]
//! ```
//!
//! `--smoke` runs any of them at 1/50 cardinality (tests).

use std::process::ExitCode;

use skymr_benchmark::measure::{self, RunArgs};
use skymr_benchmark::report::{self, Options};
use skymr_benchmark::workloads::{self, Scale};
use skymr_benchmark::Result;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: skymr-benchmark [run|trace|check] [--workload NAME] [--seed N] [--seconds S] \
         [--trace 0|1] [--out FILE] [--smoke]\nworkloads: {}",
        names.join(", ")
    )
}

fn real_main() -> Result<bool> {
    let mut args = std::env::args().skip(1).peekable();
    let command = args.next_if(|a| !a.starts_with("--"));
    let (mut seed, mut seconds, mut trace, mut smoke) = (42u64, None, false, false);
    let (mut workload, mut out) = (None, None);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::find(&value)
                        .ok_or_else(|| format!("unknown workload {value}\n{}", usage()))?,
                );
            }
            "--seed" => seed = value.parse()?,
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => trace = value == "1",
            "--out" => out = Some(value),
            _ => return Err(format!("unknown option {flag}\n{}", usage()).into()),
        }
    }
    let seconds = seconds.unwrap_or(if smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }

    let Some(command) = command else {
        let workload = workload.ok_or_else(|| format!("--workload is required\n{}", usage()))?;
        let run = RunArgs {
            workload,
            seed,
            seconds,
            trace,
            scale: if smoke { Scale::Smoke } else { Scale::Full },
        };
        let result = measure::run_workload(&run)?;
        let line = report::result_json(&result)?;
        println!("{}", measure::describe(&run, &result));
        println!("{line}");
        return Ok(true);
    };
    let opts = Options {
        seed,
        seconds,
        workload,
        smoke,
        out,
    };
    match command.as_str() {
        "run" => report::run_all(&opts, false),
        "trace" => report::run_all(&opts, true),
        "check" => report::check(&opts),
        _ => Err(format!("unknown command {command}\n{}", usage()).into()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("skymr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
