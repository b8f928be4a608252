//! The plain-text per-job phase summary table.
//!
//! This is the human-facing exporter: one row per job with its phase
//! breakdown and fault-tolerance story, in the same model time as the
//! Chrome/JSONL exports, read straight off each job's [`JobMetrics`].

use std::time::Duration;

use crate::cluster::JobMetrics;

/// Renders a duration compactly: `1.234s`, `56.7ms`, `890us`.
fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{}.{:03}s", us / 1_000_000, (us % 1_000_000) / 1_000)
    } else if us >= 1_000 {
        format!("{}.{}ms", us / 1_000, (us % 1_000) / 100)
    } else {
        format!("{us}us")
    }
}

/// Renders the phase table of `jobs`. Never panics — zero-task jobs, zero
/// durations, and an empty job list all render (the empty list renders as
/// just the header).
pub(crate) fn phase_table(jobs: &[JobMetrics]) -> String {
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
    for job in jobs {
        cells.push(vec![
            job.name.clone(),
            format!("{}m/{}r", job.map_tasks, job.reduce_tasks),
            fmt_duration(job.startup_time + job.broadcast_time),
            fmt_duration(job.map_phase),
            fmt_duration(job.shuffle_time),
            fmt_duration(job.reduce_phase),
            fmt_duration(job.sim_runtime),
            job.attempts.to_string(),
            (job.map_retries + job.reduce_retries).to_string(),
            job.speculative_wins.to_string(),
            fmt_duration(job.wasted_task_time),
            fmt_duration(job.queue_wait_time),
            job.preemptions.to_string(),
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
            // Left-align the job name, right-align numbers.
            match j {
                0 => out.push_str(&format!("{cell:<width$}")),
                _ => out.push_str(&format!("  {cell:>width$}")),
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
        let mut bitstring = JobMetrics::empty("bitstring", 4, 1);
        bitstring.startup_time = ms(1);
        bitstring.broadcast_time = ms(2);
        bitstring.map_phase = ms(10);
        bitstring.sim_runtime = ms(16);
        bitstring.attempts = 7;
        bitstring.map_retries = 2;
        bitstring.reduce_retries = 1;
        let table = phase_table(&[bitstring, JobMetrics::empty("gpmrs", 4, 8)]);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "header, rule, two rows");
        assert!(lines[1].starts_with('-'));
        assert!(lines.iter().all(|l| l.len() == lines[1].len()), "{table}");
        let row: Vec<&str> = lines[2].split_whitespace().collect();
        // The overhead cell is startup + broadcast, the retries cell is
        // map + reduce retries.
        assert_eq!(
            row,
            [
                "bitstring",
                "4m/1r",
                "3.0ms",
                "10.0ms",
                "0us",
                "0us",
                "16.0ms",
                "7",
                "3",
                "0",
                "0us",
                "0us",
                "0"
            ]
        );
        assert!(lines[3].starts_with("gpmrs") && lines[3].contains("4m/8r"));
    }

    #[test]
    fn zero_reducer_and_empty_rows_render_without_panicking() {
        let table = phase_table(&[JobMetrics::empty("empty", 0, 0)]);
        assert!(table.contains("0m/0r"));
        let header_only = phase_table(&[]);
        assert_eq!(header_only.lines().count(), 2);
        assert!(header_only.starts_with("job"));
    }
}
