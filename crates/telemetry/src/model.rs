//! The CPU cost table: what one task attempt costs on the simulated clock.
//!
//! Every simulated time in the workspace — `sim_runtime`, the phase
//! durations, the trace spans, the durations the multi-tenant executor
//! replays — is a pure function of what a job *counted*: records in and
//! out, bytes serialised, and the dominance comparisons its UDFs charged
//! (the paper's §6 prices a job the same way, as κ_mapper / κ_reducer
//! comparisons plus the bytes each reducer receives). This module holds the
//! per-unit CPU prices. Hardware rates live with the hardware:
//! `ClusterConfig::network_bytes_per_sec`,
//! `StorageConfig::{disk_bytes_per_sec, disk_seek}`.
//!
//! The prices are constants, in picoseconds per unit so that sub-tick
//! costs add up before they round. Each is a host-measured rate of this
//! workspace's own code on the 2-core reference host the committed figure
//! tables were captured on, taken as is: the figure scale already runs
//! fewer units, so — unlike `ClusterConfig::default`'s fixed overheads,
//! which are Hadoop-1's divided by eight — per-unit prices are not scaled
//! (EXPERIMENTS.md "Calibration" has the fit and what it does not
//! reproduce).
//!
//! * [`PS_PER_COMPARISON`] — 8.7 ns per candidate pair of the scalar BNL
//!   window scan the parent's figure tables were captured with: the
//!   figure ISSUE 15 fitted to the 200k × 6-d anti-correlated reference
//!   row (MR-GPSRS 6.53 s, MR-GPMRS 5.90 s measured; 6.84 s and 5.93 s
//!   priced). The benchmark's single-threaded kernel replay of the same
//!   255.6 M pairs (`core.local.cmps_per_s`, 1.36e8 before PR 14's
//!   prefilter) gives 7.4 ns; inside a two-thread job the scan ran slower.
//! * [`PS_PER_BYTE`] — the benchmark's `common.bytes.*_mib_per_s` probes:
//!   encode 268–330 MiB/s plus CRC32C 352–381 MiB/s on the map side,
//!   CRC32C plus decode 250–301 MiB/s on the reduce side: 5.4–6.5 ns per
//!   byte either way.
//! * [`PS_PER_RECORD_IN`] / [`PS_PER_RECORD_OUT`] — what is left of the
//!   benchmark's `mapreduce.job.null_job_s` probe after the codec's share:
//!   a million 40-byte tuples through map → route → frame → merge →
//!   reduce with an empty UDF in 0.29 s on two threads is at most 0.58
//!   CPU-seconds, 0.44 s of them codec by the rates above; the remaining
//!   0.14 s spread over the three record hand-offs (map in, map out,
//!   reduce in) is ≈ 45 ns each. Both probe sets were read at commit
//!   `72e9563`. Later host-side codec speed-ups (slice-by-8 CRC32C,
//!   single-buffer encoders) deliberately do **not** refit these three
//!   constants: they price the 2014 cluster, which a faster host does not
//!   move; the refit belongs to the wire-format change that regenerates
//!   `bench_results/`.
//! * [`ATTEMPT_BASE_TICKS`] — the benchmark's `mapreduce.job.empty_job_us`
//!   probe: 26 attempts over empty splits in ≈ 260 µs on two threads,
//!   ≈ 20 µs each. (Launching the attempt is `ClusterConfig::task_overhead`,
//!   charged by placement.)

use crate::span::Ticks;

/// Fixed set-up cost of every attempt, in ticks.
pub const ATTEMPT_BASE_TICKS: Ticks = 20;

/// Picoseconds per input record consumed.
pub const PS_PER_RECORD_IN: u64 = 45_000;

/// Picoseconds per output record emitted.
pub const PS_PER_RECORD_OUT: u64 = 45_000;

/// Picoseconds per byte serialised and checksummed (map side) or
/// verified and decoded (reduce side).
pub const PS_PER_BYTE: u64 = 6_000;

/// Picoseconds per unit of charged work — one candidate pair of a
/// dominance scan (`Emitter::charge` / `OutputCollector::charge`).
pub const PS_PER_COMPARISON: u64 = 8_700;

const PS_PER_TICK: u64 = 1_000_000;

/// Model cost of one full, unslowed task attempt.
pub fn attempt_ticks(records_in: u64, records_out: u64, bytes: u64, work: u64) -> Ticks {
    let ps = records_in
        .saturating_mul(PS_PER_RECORD_IN)
        .saturating_add(records_out.saturating_mul(PS_PER_RECORD_OUT))
        .saturating_add(bytes.saturating_mul(PS_PER_BYTE))
        .saturating_add(work.saturating_mul(PS_PER_COMPARISON));
    ATTEMPT_BASE_TICKS + ps / PS_PER_TICK
}

/// Applies a straggler slowdown factor to a model duration. The factor
/// comes from the (deterministic) fault plan; the multiply rounds down,
/// and factors below 1 are clamped to 1.
pub fn scaled(ticks: Ticks, slowdown: f64) -> Ticks {
    let factor = if slowdown > 1.0 { slowdown } else { 1.0 };
    // f64 arithmetic on identical inputs is bit-stable; the cast truncates.
    (ticks as f64 * factor) as Ticks
}

/// The upper median of a phase's task durations — the mark at which
/// speculative backups launch. Zero for an empty phase.
pub fn median(ticks: &[Ticks]) -> Ticks {
    let mut sorted = ticks.to_vec();
    sorted.sort_unstable();
    sorted.get(sorted.len() / 2).copied().unwrap_or(0)
}

/// When a backup launched at the phase median commits: its clean attempt
/// plus one launch overhead after the launch mark.
pub fn backup_finish(median: Ticks, clean: Ticks, overhead: Ticks) -> Ticks {
    median + clean + overhead
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attempt_cost_is_linear_in_inputs() {
        let base = attempt_ticks(0, 0, 0, 0);
        assert_eq!(base, ATTEMPT_BASE_TICKS);
        let per = |ps: u64| 1_000_000 * ps / PS_PER_TICK;
        assert_eq!(
            attempt_ticks(1_000_000, 0, 0, 0),
            base + per(PS_PER_RECORD_IN)
        );
        assert_eq!(
            attempt_ticks(0, 1_000_000, 0, 0),
            base + per(PS_PER_RECORD_OUT)
        );
        assert_eq!(attempt_ticks(0, 0, 1_000_000, 0), base + per(PS_PER_BYTE));
        assert_eq!(
            attempt_ticks(0, 0, 0, 1_000_000),
            base + per(PS_PER_COMPARISON)
        );
        // Sub-tick costs accumulate before rounding.
        assert_eq!(attempt_ticks(1, 1, 1, 1), base);
        assert_eq!(
            attempt_ticks(u64::MAX, 0, 0, u64::MAX),
            base + u64::MAX / PS_PER_TICK
        );
    }

    #[test]
    fn slowdown_clamps_below_one_and_truncates() {
        assert_eq!(scaled(100, 0.5), 100);
        assert_eq!(scaled(100, 1.0), 100);
        assert_eq!(scaled(100, 2.5), 250);
        assert_eq!(scaled(3, 1.5), 4);
    }

    #[test]
    fn median_is_the_upper_middle() {
        assert_eq!(median(&[]), 0);
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[30, 10]), 30);
        assert_eq!(median(&[30, 10, 20]), 20);
    }
}
