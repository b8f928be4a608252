//! End-to-end checks of the `skymr-cli` binary: exit status and stderr.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Zero mappers is a configuration error for every MapReduce baseline, as
/// it is for the paper's algorithms: exit 1 with the structured message,
/// never a panic (exit 101).
#[test]
fn baselines_reject_zero_mappers_with_an_error() {
    for algo in [
        "mr-bnl",
        "mr-angle",
        "mr-sfs",
        "sky-mr",
        "mr-bitmap",
        "gpsrs",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_skymr-cli"))
            .args(["run", "--algo", algo, "--dist", "independent", "--dim", "3"])
            .args(["--card", "200", "--seed", "5", "--mappers", "0"])
            .output()
            .expect("the CLI binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{algo}: {stderr}");
        assert_eq!(
            stderr, "error: invalid configuration: mappers must be >= 1\n",
            "{algo}"
        );
    }
}

/// A scratch directory of one test's own, emptied first.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skymr-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// `skymr-cli` with `args`, every file it writes capped at `kib` KiB by
/// the shell's `ulimit -f`. `SIGXFSZ` is ignored, so a write past the cap
/// fails with `EFBIG` — a real host fault, with no injection.
fn limited(kib: u64, args: &[&str]) -> Output {
    let script = format!("ulimit -f {kib}; trap '' XFSZ; exec \"$0\" \"$@\"");
    Command::new("bash")
        .args(["-c", &script, env!("CARGO_BIN_EXE_skymr-cli")])
        .args(args)
        .output()
        .expect("bash runs the CLI")
}

fn words(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// `base` followed by `extra`.
fn with<'a>(base: &[&'a str], extra: &[&'a str]) -> Vec<&'a str> {
    [base, extra].concat()
}

fn cli(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_skymr-cli"))
        .args(args)
        .output();
    out.expect("the CLI binary runs")
}

/// `--poison` layers onto the node-chaos plan, blacklist and all, instead
/// of replacing it; `--chaos-nodes` with `--chaos-corrupt` is refused with
/// an error naming both, since a fault plan holds one seeded layer.
#[test]
fn node_chaos_keeps_its_plan_beside_the_data_fault_flags() {
    let run = words(
        "run --algo gpmrs --dist anticorrelated --dim 4 --card 2000 --seed 7 \
         --mappers 4 --reducers 5 --chaos-nodes 1",
    );
    let both = cli(&with(&run, &["--poison", "1:5", "--skip-bad-records"]));
    let stdout = String::from_utf8_lossy(&both.stdout);
    assert_eq!(both.status.code(), Some(0), "{both:?}");
    assert!(stdout.contains("node faults: 3 lost"), "{stdout}");
    assert!(stdout.contains("1 bad records skipped"), "{stdout}");

    let refused = cli(&with(&run, &["--chaos-corrupt", "2"]));
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert_eq!(refused.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    for flag in ["--chaos-nodes", "--chaos-corrupt"] {
        assert!(stderr.contains(flag), "{stderr}");
    }
    let stdout = String::from_utf8_lossy(&refused.stdout);
    assert!(
        !stdout.contains("dataset:"),
        "refused before loading: {stdout}"
    );
}

/// The engine flags reach the baselines: node chaos re-executes MR-BNL's
/// map outputs, and the skyline still verifies.
#[test]
fn mr_bnl_runs_under_node_chaos() {
    let run = words(
        "run --algo mr-bnl --dist anticorrelated --dim 4 --card 2000 --seed 7 \
         --mappers 4 --chaos-nodes 7 --verify",
    );
    let out = cli(&run);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.contains("node faults:"), "{stdout}");
    assert!(stdout.contains("verify: OK"), "{stdout}");
}

/// The engine flags reach SKY-MR: a memory budget spills its jobs.
#[test]
fn sky_mr_spills_under_a_memory_budget() {
    let run = words(
        "run --algo sky-mr --dist anticorrelated --dim 4 --card 2000 --seed 7 \
         --mappers 4 --memory-budget 1k",
    );
    let out = cli(&run);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.contains("storage:"), "{stdout}");
}

/// A flag the chosen algorithm cannot honour is an error, raised before
/// the data is generated: a checkpoint for a pipeline that keeps none,
/// the engine's flags for a centralized algorithm, and `--verify` for an
/// answer the BNL oracle does not check.
#[test]
fn a_flag_the_algorithm_cannot_honour_is_refused_before_loading() {
    let dir = scratch("refused");
    let ckpt = dir.join("k.ckpt").to_string_lossy().into_owned();
    let data = "--dist anticorrelated --dim 4 --card 2000 --seed 7";
    for (algo, flags) in [
        ("skyband", vec!["--checkpoint", &ckpt, "--kill-after", "1"]),
        ("bnl", vec!["--memory-budget", "1k"]),
        ("dnc", vec!["--chaos-nodes", "7"]),
        ("topk", vec!["--verify"]),
    ] {
        let run = format!("run --algo {algo} {data}");
        let run = with(&words(&run), &flags);
        let out = cli(&run);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{algo}: {stderr}");
        let named = format!("error: {} ", flags[0]);
        assert!(stderr.starts_with(&named), "{algo}: {stderr}");
        assert!(stderr.contains(&format!("; {algo} ")), "{algo}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("dataset:"), "{algo}: {stdout}");
    }
    assert!(!Path::new(&ckpt).exists(), "no checkpoint written");
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}

/// `run` names the retry cost by default: each job of a data-chaos run
/// reports its retries, the task time they wasted (the hung attempts'
/// progress timeouts) and the backoff.
#[test]
fn the_default_report_names_the_retry_cost() {
    let run = words(
        "run --algo gpmrs --dist anticorrelated --dim 4 --card 2000 --seed 7 \
         --mappers 4 --reducers 5 --chaos-corrupt 2",
    );
    let out = cli(&run);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let lines: Vec<&str> = stdout.lines().filter(|l| l.contains("retries:")).collect();
    assert_eq!(
        lines,
        [
            "      retries: 0 map, 1 reduce; 600.00s wasted, 100.00ms backoff",
            "      retries: 3 map, 1 reduce; 600.00s wasted, 200.00ms backoff",
        ],
        "{stdout}"
    );
    let clean = cli(&run[..run.len() - 2]);
    assert!(!String::from_utf8_lossy(&clean.stdout).contains("retries:"));
}

/// A checkpoint write that fails (here: a zero file-size limit) leaves the
/// previous checkpoint byte for byte, and a later resume completes it to
/// the fresh run's output.
#[test]
fn a_failed_checkpoint_write_keeps_the_previous_checkpoint() {
    let dir = scratch("checkpoint");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (ckpt, fresh, resumed) = (path("k.ckpt"), path("fresh.csv"), path("resumed.csv"));
    let run = words("run --algo gpsrs --dist anticorrelated --dim 4 --card 5000 --seed 7");

    let killed = cli(&with(&run, &["--checkpoint", &ckpt, "--kill-after", "1"]));
    assert_eq!(killed.status.code(), Some(1), "the kill ends the run");
    let kept = std::fs::read(&ckpt).expect("the kill leaves a checkpoint");

    let denied = limited(0, &with(&run, &["--checkpoint", &ckpt, "--resume"]));
    let stderr = String::from_utf8_lossy(&denied.stderr);
    assert_eq!(denied.status.code(), Some(1), "{stderr}");
    let expected = format!("error: cannot write checkpoint {ckpt}: ");
    assert!(stderr.starts_with(&expected), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert_eq!(
        std::fs::read(&ckpt).ok(),
        Some(kept),
        "the checkpoint is intact"
    );
    assert!(
        !Path::new(&format!("{ckpt}.tmp")).exists(),
        "no temporary file left"
    );

    let resume = cli(&with(
        &run,
        &["--checkpoint", &ckpt, "--resume", "--out", &resumed],
    ));
    assert_eq!(resume.status.code(), Some(0), "{resume:?}");
    assert_eq!(cli(&with(&run, &["--out", &fresh])).status.code(), Some(0));
    let read = |p: &str| std::fs::read(p).expect("a skyline file");
    assert_eq!(
        read(&resumed),
        read(&fresh),
        "the resume matches a fresh run"
    );
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}

/// A `generate --out` that cannot finish its file (here: a 1 KiB file-size
/// limit) leaves neither a partial file nor its temporary, in either
/// format.
#[test]
fn a_failed_generate_leaves_no_partial_file() {
    let dir = scratch("generate");
    let generate = words("generate --dist independent --dim 4 --card 2000 --seed 7");
    for format in ["csv", "binary"] {
        let out = dir
            .join(format!("d.{format}"))
            .to_string_lossy()
            .into_owned();
        let ran = limited(1, &with(&generate, &["--format", format, "--out", &out]));
        let stderr = String::from_utf8_lossy(&ran.stderr);
        assert_eq!(ran.status.code(), Some(1), "{format}: {stderr}");
        let expected = format!("error: cannot write {out}: ");
        assert!(stderr.starts_with(&expected), "{format}: {stderr}");
        assert!(!Path::new(&out).exists(), "{format}: no partial file");
        let tmp = format!("{out}.tmp");
        assert!(!Path::new(&tmp).exists(), "{format}: no temporary file");
    }
    std::fs::remove_dir_all(&dir).expect("scratch directory");
}

/// Every file the run writes — spill segments, merge runs, the checkpoint,
/// the skyline, the trace — capped at N KiB, for N from 0 up to the
/// largest of them: the run completes with the unconstrained skyline and
/// trace, or exits 1 with one `error:` line naming what it was doing and
/// to which path, never a panic, and leaves no file in part. Either
/// way the spill root is left empty, and a checkpoint left behind resumes
/// to the unconstrained output. (Default thread count.)
#[test]
fn every_file_size_limit_ends_in_the_fresh_output_or_one_error() {
    for algo in ["gpsrs", "gpmrs"] {
        let dir = scratch(&format!("sweep-{algo}"));
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let (spill, ckpt, out) = (path("spill"), path("k.ckpt"), path("out.csv"));
        let trace = path("t.json");
        std::fs::create_dir(&spill).expect("spill root");
        let run = format!(
            "run --algo {algo} --dist anticorrelated --dim 4 --card 2000 --seed 7 \
             --memory-budget 1k"
        );
        let run = with(
            &words(&run),
            &["--spill-dir", &spill, "--checkpoint", &ckpt],
        );
        let clear = || {
            let _ = std::fs::remove_file(&ckpt);
            let _ = std::fs::remove_file(&out);
            let _ = std::fs::remove_file(&trace);
        };
        let outputs = ["--out", &out, "--trace", &trace];

        assert_eq!(cli(&with(&run, &outputs)).status.code(), Some(0));
        let fresh = std::fs::read(&out).expect("the unconstrained skyline");
        let fresh_trace = std::fs::read(&trace).expect("the unconstrained trace");
        let largest = fresh
            .len()
            .max(fresh_trace.len())
            .max(std::fs::metadata(&ckpt).expect("checkpoint").len() as usize);
        let mut completed = None;
        for kib in 0..=(largest as u64 / 1024 + 64) {
            clear();
            let ran = limited(kib, &with(&run, &outputs));
            let stderr = String::from_utf8_lossy(&ran.stderr);
            let at = format!("{algo}, {kib} KiB");
            assert!(!stderr.contains("panicked at"), "{at}: {stderr}");
            let left = std::fs::read_dir(&spill).expect("spill root").count();
            assert_eq!(left, 0, "{at}: the spill root is left empty");
            let tmp = format!("{ckpt}.tmp");
            assert!(
                !Path::new(&tmp).exists(),
                "{at}: no temporary checkpoint left"
            );
            if ran.status.success() {
                assert_eq!(std::fs::read(&out).ok().as_ref(), Some(&fresh), "{at}");
                let traced = std::fs::read(&trace).ok();
                assert_eq!(traced.as_ref(), Some(&fresh_trace), "{at}: trace");
                completed = Some(kib);
                break;
            }
            assert_eq!(ran.status.code(), Some(1), "{at}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{at}: {stderr}");
            let operation = stderr.contains("storage I/O (") || stderr.contains("cannot write");
            assert!(stderr.starts_with("error: ") && operation, "{at}: {stderr}");
            assert!(
                stderr.contains(&*dir.to_string_lossy()),
                "{at}: names the path: {stderr}"
            );
            assert!(!Path::new(&out).exists(), "{at}: no partial skyline");
            let tmp = format!("{out}.tmp");
            assert!(!Path::new(&tmp).exists(), "{at}: no temporary skyline");
            // The trace is written before the skyline: a cap between their
            // sizes leaves it whole.
            if let Ok(traced) = std::fs::read(&trace) {
                assert!(traced == fresh_trace, "{at}: no partial trace");
            }
            let tmp = format!("{trace}.tmp");
            assert!(!Path::new(&tmp).exists(), "{at}: no temporary trace");
            if Path::new(&ckpt).exists() {
                let _ = std::fs::remove_file(&out);
                let resumed = cli(&with(&run, &["--resume", "--out", &out]));
                assert_eq!(resumed.status.code(), Some(0), "{at}: {resumed:?}");
                assert_eq!(
                    std::fs::read(&out).ok().as_ref(),
                    Some(&fresh),
                    "{at}: resumed"
                );
            }
        }
        let kib = completed.expect("a limit above every file completes the run");
        assert!(
            kib * 1024 >= largest as u64,
            "{algo}: completed under {kib} KiB"
        );
        std::fs::remove_dir_all(&dir).expect("scratch directory");
    }
}
