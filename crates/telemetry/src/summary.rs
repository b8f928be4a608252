//! The plain-text per-job phase summary table.
//!
//! This is the human-facing exporter: one row per job with its phase
//! breakdown and fault-tolerance story, in the same model time as the
//! Chrome/JSONL exports.

use std::time::Duration;

/// One job's row in the phase table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobPhaseSummary {
    /// Job name.
    pub job: String,
    /// Map task count.
    pub map_tasks: usize,
    /// Reduce task count.
    pub reduce_tasks: usize,
    /// Startup plus broadcast charge.
    pub overhead: Duration,
    /// Map-phase makespan.
    pub map: Duration,
    /// Shuffle transfer time.
    pub shuffle: Duration,
    /// Reduce-phase makespan.
    pub reduce: Duration,
    /// End-to-end simulated runtime.
    pub total: Duration,
    /// Task attempts executed (including retries and backups).
    pub attempts: u64,
    /// Failed-and-retried attempts.
    pub retries: u64,
    /// Speculative backups that beat their original.
    pub speculative_wins: u64,
    /// Simulated task time that produced no surviving output.
    pub wasted: Duration,
    /// Simulated time spent waiting in an executor's admission queue.
    pub queued: Duration,
    /// Task attempts preempted by the scheduler for higher-priority work.
    pub preemptions: u64,
}

/// Renders a duration compactly: `1.234s`, `56.7ms`, `890us`.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
    } else if us >= 1_000 {
        format!("{}.{}ms", us / 1_000, (us % 1_000) / 100)
    } else {
        format!("{us}us")
    }
}

/// Renders the phase table. Never panics — zero-task jobs, zero
/// durations, and an empty row set all render (the empty set renders as
/// just the header).
pub fn phase_table(rows: &[JobPhaseSummary]) -> String {
    let headers = [
        "job",
        "tasks",
        "overhead",
        "map",
        "shuffle",
        "reduce",
        "total",
        "attempts",
        "retries",
        "spec wins",
        "wasted",
        "queued",
        "preempt",
    ];
    let mut cells: Vec<Vec<String>> = vec![headers.iter().map(|&h| h.to_owned()).collect()];
    for row in rows {
        cells.push(vec![
            row.job.clone(),
            format!("{}m/{}r", row.map_tasks, row.reduce_tasks),
            fmt_duration(row.overhead),
            fmt_duration(row.map),
            fmt_duration(row.shuffle),
            fmt_duration(row.reduce),
            fmt_duration(row.total),
            row.attempts.to_string(),
            row.retries.to_string(),
            row.speculative_wins.to_string(),
            fmt_duration(row.wasted),
            fmt_duration(row.queued),
            row.preemptions.to_string(),
        ]);
    }
    let mut widths = vec![0usize; headers.len()];
    for row in &cells {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    for (i, row) in cells.iter().enumerate() {
        for (j, (cell, width)) in row.iter().zip(&widths).enumerate() {
            if j > 0 {
                out.push_str("  ");
            }
            if j == 0 {
                // Left-align the job name, right-align numbers.
                out.push_str(&format!("{cell:<width$}"));
            } else {
                out.push_str(&format!("{cell:>width$}"));
            }
        }
        out.push('\n');
        if i == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn durations_format_with_unit_scaling() {
        assert_eq!(fmt_duration(Duration::from_micros(890)), "890us");
        assert_eq!(fmt_duration(Duration::from_micros(56_700)), "56.7ms");
        assert_eq!(fmt_duration(Duration::from_micros(1_234_000)), "1.234s");
        assert_eq!(fmt_duration(Duration::ZERO), "0us");
    }

    #[test]
    fn table_renders_rows_with_aligned_columns() {
        let rows = vec![
            JobPhaseSummary {
                job: "bitstring".to_owned(),
                map_tasks: 4,
                reduce_tasks: 1,
                overhead: ms(2),
                map: ms(10),
                shuffle: ms(1),
                reduce: ms(3),
                total: ms(16),
                attempts: 5,
                ..Default::default()
            },
            JobPhaseSummary {
                job: "gpmrs".to_owned(),
                map_tasks: 4,
                reduce_tasks: 8,
                total: ms(40),
                ..Default::default()
            },
        ];
        let table = phase_table(&rows);
        assert!(table.contains("bitstring"));
        assert!(table.contains("4m/8r"));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "header, rule, two rows");
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    fn zero_reducer_and_empty_rows_render_without_panicking() {
        let degenerate = JobPhaseSummary {
            job: "empty".to_owned(),
            map_tasks: 0,
            reduce_tasks: 0,
            ..Default::default()
        };
        let table = phase_table(&[degenerate]);
        assert!(table.contains("0m/0r"));
        let header_only = phase_table(&[]);
        assert!(header_only.contains("job"));
    }
}
