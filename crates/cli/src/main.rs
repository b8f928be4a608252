//! `skymr-cli` — generate workloads, run skyline algorithms, inspect plans.
//!
//! ```text
//! skymr-cli generate --dist anticorrelated --dim 5 --card 50000 --out data.csv
//! skymr-cli run --algo gpmrs --input data.csv --reducers 13
//! skymr-cli run --algo mr-bnl --dist independent --dim 8 --card 20000
//! skymr-cli plan --input data.csv --ppd 4 --reducers 8
//! skymr-cli info --input data.csv
//! ```
//!
//! Every subcommand prints a human-readable report; `run` can also write
//! the skyline as CSV with `--out`.

mod args;
mod commands;
mod trace_schema;

use std::process::ExitCode;

use args::Args;

const USAGE: &str = "\
skymr-cli — skyline computation in (simulated) MapReduce

USAGE:
    skymr-cli <COMMAND> [OPTIONS]

COMMANDS:
    generate   Generate a synthetic dataset and write it to a file
               --dist independent|correlated|anticorrelated|clustered
               --dim N --card N [--seed N] [--clusters N] --out FILE
               [--format csv|binary   (default csv; inputs auto-detect)]
    run        Run a skyline algorithm
               --algo gpsrs|gpmrs|hybrid|skyband|topk|mr-bnl|mr-sfs|
                      mr-angle|sky-mr|mr-bitmap|bnl|sfs|dnc
               [--k N          (skyband depth, default 2; topk size, default 10)]
               (--input FILE | --dist … --dim N --card N [--seed N])
               [--mappers N] [--reducers N] [--ppd auto|N] [--out FILE]
               [--distinct N   (mr-bitmap: discretization levels, default 16)]
               [--verify       (check the result against the BNL oracle)]
               [--dims i,j,…   (project onto a subspace before running)]
               [--lo a,b,… --hi a,b,…  (constrained skyline: range box)]
               [--local bnl|sfs|dnc    (mapper local-skyline kernel)]
               [--trace FILE   (write the span timeline: Chrome trace_event
                                JSON for Perfetto, or JSONL if FILE ends
                                in .jsonl; MapReduce algorithms only)]
    trace      Check a trace file written by `run --trace` against the
               exporters' schema, then summarize it; any violation is an
               error that lists them all
               FILE   (either export format is accepted)
    plan       Show the bitstring and independent-group structure
               (--input FILE | --dist … --dim N --card N [--seed N])
               [--ppd auto|N] [--reducers N]
    info       Dataset statistics
               (--input FILE | --dist … --dim N --card N [--seed N])
    help       Show this message
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_deref() {
        Some("generate") => commands::generate(&args),
        Some("run") => commands::run(&args),
        Some("plan") => commands::plan(&args),
        Some("info") => commands::info(&args),
        Some("trace") => commands::trace(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
