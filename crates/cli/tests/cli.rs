//! End-to-end checks of the `skymr-cli` binary: exit status and stderr.

use std::process::Command;

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
