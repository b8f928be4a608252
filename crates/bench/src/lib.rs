//! Shared harness for the figure-reproduction binaries.
//!
//! The paper's evaluation (Section 7) consists of five figures; each has a
//! binary in `src/bin/` that sweeps the same parameters, runs the same
//! algorithm set, and prints the same series the paper plots — the
//! *simulated* cluster runtime standing in for the paper's measured Hadoop
//! runtime (see `skymr-mapreduce`). Results are printed as aligned tables
//! and written as CSV under `bench_results/`.
//!
//! Scale profiles (`--scale quick|paper-shape|full`) trade fidelity for
//! wall-clock time; `paper-shape` (the default) keeps the paper's
//! dimensionality sweeps but reduces cardinalities so a laptop regenerates
//! every figure in minutes. Like the paper — where MR-BNL, MR-Angle, and
//! sometimes MR-GPSRS "cannot terminate in a reasonable period of time" at
//! high dimensionality — the harness stops extending a series once an
//! algorithm exceeds its per-run wall-clock budget and reports `DNF`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use skymr::{mr_gpmrs, mr_gpsrs, PpdPolicy, SkylineConfig};
use skymr_baselines::{mr_angle, mr_bnl, BaselineConfig};
use skymr_common::Dataset;
use skymr_datagen::{generate, Distribution};
use skymr_mapreduce::telemetry::export::json_escape;
use skymr_mapreduce::telemetry::JobPhaseSummary;
use skymr_mapreduce::JobMetrics;

/// Benchmark scale profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast smoke scale (CI).
    Quick,
    /// Default: the paper's sweeps at reduced cardinality (minutes).
    PaperShape,
    /// The paper's own cardinalities (hours; needs a beefy machine).
    Full,
}

impl Scale {
    /// Parses `--scale` command-line values.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper-shape" | "default" => Some(Scale::PaperShape),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The low / high cardinalities playing the paper's 1×10⁵ / 2×10⁶
    /// roles.
    pub fn cardinalities(&self) -> (usize, usize) {
        match self {
            Scale::Quick => (2_000, 8_000),
            Scale::PaperShape => (10_000, 40_000),
            Scale::Full => (100_000, 2_000_000),
        }
    }

    /// The cardinality sweep for Figure 9 (paper: 1×10⁵ … 3×10⁶).
    pub fn cardinality_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1_000, 3_000, 6_000, 10_000],
            Scale::PaperShape => vec![5_000, 15_000, 30_000, 60_000, 100_000],
            Scale::Full => vec![100_000, 500_000, 1_000_000, 2_000_000, 3_000_000],
        }
    }

    /// Per-run host wall-clock budget before a series is marked DNF.
    ///
    /// Note MR-GPMRS deliberately trades *aggregate* work for parallelism
    /// (replicated partitions are re-merged on several reducers), so its
    /// host cost exceeds its simulated cluster runtime by up to the slot
    /// count; budgets are sized so that only genuinely runaway runs — the
    /// paper's "cannot terminate in a reasonable period of time" cases —
    /// get cut.
    pub fn dnf_budget(&self) -> Duration {
        match self {
            Scale::Quick => Duration::from_secs(10),
            Scale::PaperShape => Duration::from_secs(240),
            Scale::Full => Duration::from_secs(3_600),
        }
    }
}

/// Parsed command-line options shared by all figure binaries.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Scale profile.
    pub scale: Scale,
    /// Output directory for CSV files.
    pub out_dir: PathBuf,
    /// Seed for dataset generation.
    pub seed: u64,
}

impl HarnessOptions {
    /// Parses `std::env::args()`: `--scale <s>`, `--out <dir>`,
    /// `--seed <n>`.
    pub fn from_args() -> Self {
        let mut opts = Self {
            scale: Scale::PaperShape,
            out_dir: PathBuf::from("bench_results"),
            seed: 42,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    opts.scale = Scale::parse(&args[i])
                        .unwrap_or_else(|| panic!("unknown scale {:?}", args[i]));
                }
                "--out" => {
                    i += 1;
                    opts.out_dir = PathBuf::from(&args[i]);
                }
                "--seed" => {
                    i += 1;
                    opts.seed = args[i].parse().expect("--seed takes an integer");
                }
                other => panic!("unknown option {other} (try --scale quick|paper-shape|full)"),
            }
            i += 1;
        }
        opts
    }
}

/// The algorithms the paper plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The paper's multi-reducer algorithm.
    MrGpmrs,
    /// The paper's single-reducer algorithm.
    MrGpsrs,
    /// Zhang et al.'s baseline.
    MrBnl,
    /// Chen et al.'s baseline.
    MrAngle,
}

impl Algo {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::MrGpmrs => "MR-GPMRS",
            Algo::MrGpsrs => "MR-GPSRS",
            Algo::MrBnl => "MR-BNL",
            Algo::MrAngle => "MR-Angle",
        }
    }

    /// All four, in the paper's legend order.
    pub fn all() -> [Algo; 4] {
        [Algo::MrGpsrs, Algo::MrGpmrs, Algo::MrBnl, Algo::MrAngle]
    }
}

/// One measured data point.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Simulated cluster runtime (the paper's y-axis).
    pub sim_runtime: Duration,
    /// Host wall-clock cost of producing it.
    pub host_wall: Duration,
    /// Skyline size (sanity/reporting).
    pub skyline_size: usize,
    /// Merged job counters.
    pub counters: BTreeMap<String, u64>,
    /// PPD the grid algorithms used (0 for baselines).
    pub ppd: usize,
    /// Per-job phase breakdown (map / shuffle / reduce / overhead), in
    /// pipeline order.
    pub phases: Vec<JobPhaseSummary>,
}

/// Per-job phase rows for a finished pipeline.
fn phase_rows(metrics: &skymr_mapreduce::PipelineMetrics) -> Vec<JobPhaseSummary> {
    metrics.jobs.iter().map(JobMetrics::phase_summary).collect()
}

/// Runs one algorithm on one dataset with paper-default parameters.
pub fn run_algo(algo: Algo, dataset: &Dataset, reducers: usize) -> Measurement {
    let skyline_cfg = || SkylineConfig {
        reducers,
        ppd: PpdPolicy::auto(),
        ..SkylineConfig::default()
    };
    match algo {
        Algo::MrGpsrs => {
            let run = mr_gpsrs(dataset, &skyline_cfg()).expect("valid config");
            Measurement {
                sim_runtime: run.metrics.sim_runtime(),
                host_wall: run.metrics.host_wall(),
                skyline_size: run.skyline.len(),
                phases: phase_rows(&run.metrics),
                counters: run.counters,
                ppd: run.info.ppd,
            }
        }
        Algo::MrGpmrs => {
            let run = mr_gpmrs(dataset, &skyline_cfg()).expect("valid config");
            Measurement {
                sim_runtime: run.metrics.sim_runtime(),
                host_wall: run.metrics.host_wall(),
                skyline_size: run.skyline.len(),
                phases: phase_rows(&run.metrics),
                counters: run.counters,
                ppd: run.info.ppd,
            }
        }
        Algo::MrBnl => {
            let run = mr_bnl(dataset, &BaselineConfig::default()).expect("fault-free run");
            Measurement {
                sim_runtime: run.metrics.sim_runtime(),
                host_wall: run.metrics.host_wall(),
                skyline_size: run.skyline.len(),
                phases: phase_rows(&run.metrics),
                counters: BTreeMap::new(),
                ppd: 0,
            }
        }
        Algo::MrAngle => {
            let run = mr_angle(dataset, &BaselineConfig::default()).expect("fault-free run");
            Measurement {
                sim_runtime: run.metrics.sim_runtime(),
                host_wall: run.metrics.host_wall(),
                skyline_size: run.skyline.len(),
                phases: phase_rows(&run.metrics),
                counters: BTreeMap::new(),
                ppd: 0,
            }
        }
    }
}

/// A results table: one row per x-value, one column per series, `None`
/// where the series did not finish (DNF).
#[derive(Debug)]
pub struct Table {
    /// Table title (figure name).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Series (column) names.
    pub series: Vec<String>,
    /// Rows: x value and one optional cell per series.
    pub rows: Vec<(String, Vec<Option<f64>>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, series: Vec<String>) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            series,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, x: impl Into<String>, cells: Vec<Option<f64>>) {
        assert_eq!(cells.len(), self.series.len());
        self.rows.push((x.into(), cells));
    }

    /// Renders the table for the terminal, with a sparkline per series so
    /// the figure's *shape* is visible at a glance. All series share one
    /// scale (like the paper's shared y-axis); `×` marks DNF cells.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let widths: Vec<usize> = std::iter::once(self.x_label.len().max(8))
            .chain(self.series.iter().map(|s| s.len().max(10)))
            .collect();
        out.push_str(&format!("{:>w$}", self.x_label, w = widths[0]));
        for (s, w) in self.series.iter().zip(widths.iter().skip(1)) {
            out.push_str(&format!("  {s:>w$}"));
        }
        out.push('\n');
        for (x, cells) in &self.rows {
            out.push_str(&format!("{x:>w$}", w = widths[0]));
            for (cell, w) in cells.iter().zip(widths.iter().skip(1)) {
                match cell {
                    Some(v) => out.push_str(&format!("  {v:>w$.2}")),
                    None => out.push_str(&format!("  {:>w$}", "DNF")),
                }
            }
            out.push('\n');
        }
        if self.rows.len() >= 3 {
            let all: Vec<f64> = self
                .rows
                .iter()
                .flat_map(|(_, cells)| cells.iter().flatten().copied())
                .collect();
            if let (Some(&min), Some(&max)) = (
                all.iter().min_by(|a, b| a.total_cmp(b)),
                all.iter().max_by(|a, b| a.total_cmp(b)),
            ) {
                out.push('\n');
                let name_w = self.series.iter().map(String::len).max().unwrap_or(0);
                for (si, name) in self.series.iter().enumerate() {
                    let spark: String = self
                        .rows
                        .iter()
                        .map(|(_, cells)| match cells[si] {
                            Some(v) => sparkline_char(v, min, max),
                            None => '×',
                        })
                        .collect();
                    out.push_str(&format!("{name:>name_w$}  {spark}\n"));
                }
            }
        }
        out
    }

    /// Writes the table as CSV into `dir/<file>`.
    pub fn write_csv(&self, dir: &std::path::Path, file: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file);
        let mut f = std::fs::File::create(&path)?;
        write!(f, "{}", self.x_label)?;
        for s in &self.series {
            write!(f, ",{s}")?;
        }
        writeln!(f)?;
        for (x, cells) in &self.rows {
            write!(f, "{x}")?;
            for cell in cells {
                match cell {
                    Some(v) => write!(f, ",{v}")?,
                    None => write!(f, ",")?,
                }
            }
            writeln!(f)?;
        }
        Ok(path)
    }
}

/// One block character of an 8-level sparkline, `v` scaled into
/// `[min, max]`.
fn sparkline_char(v: f64, min: f64, max: f64) -> char {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if max <= min {
        return LEVELS[0];
    }
    let t = ((v - min) / (max - min)).clamp(0.0, 1.0);
    LEVELS[((t * 7.0).round() as usize).min(7)]
}

/// Tracks which algorithms have blown the wall-clock budget in a sweep and
/// should be skipped from then on (printed as DNF) — mirroring the paper's
/// "cannot terminate in a reasonable period of time" curves.
#[derive(Debug, Default)]
pub struct DnfTracker {
    dead: std::collections::HashSet<Algo>,
}

impl DnfTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` iff the algorithm already exceeded its budget earlier in the
    /// sweep.
    pub fn is_dnf(&self, algo: Algo) -> bool {
        self.dead.contains(&algo)
    }

    /// Records a finished run; marks the algorithm DNF for the rest of the
    /// sweep if it exceeded `budget`.
    pub fn record(&mut self, algo: Algo, host_wall: Duration, budget: Duration) {
        if host_wall > budget {
            self.dead.insert(algo);
        }
    }
}

/// Accumulates per-run phase breakdowns for one figure and writes them as
/// a JSON sidecar next to the CSV, so plots of *where time goes* (map vs.
/// shuffle vs. reduce vs. bitstring overhead) can be regenerated without
/// re-running the sweep.
#[derive(Debug, Default)]
pub struct PhaseLog {
    entries: Vec<(String, Measurement)>,
}

fn push_json_duration(out: &mut String, key: &str, d: Duration) {
    out.push_str(&format!("\"{key}\":{}", d.as_micros()));
}

impl PhaseLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finished run under a label like `"MR-GPMRS dim=4"`.
    pub fn record(&mut self, label: impl Into<String>, m: &Measurement) {
        self.entries.push((label.into(), m.clone()));
    }

    /// Renders the log as a JSON document of model outputs only (all
    /// durations in integer microseconds of simulated time; key order
    /// fixed), so the file is byte-identical across runs and hosts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"runs\":[\n");
        for (i, (label, m)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!("{{\"label\":\"{}\",", json_escape(label)));
            push_json_duration(&mut out, "sim_runtime_us", m.sim_runtime);
            out.push_str(&format!(
                ",\"skyline_size\":{},\"ppd\":{},\"phases\":[",
                m.skyline_size, m.ppd
            ));
            for (j, p) in m.phases.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"job\":\"{}\",\"map_tasks\":{},\"reduce_tasks\":{},",
                    json_escape(&p.job),
                    p.map_tasks,
                    p.reduce_tasks
                ));
                for (key, d) in [
                    ("overhead_us", p.overhead),
                    ("map_us", p.map),
                    ("shuffle_us", p.shuffle),
                    ("reduce_us", p.reduce),
                    ("total_us", p.total),
                    ("wasted_us", p.wasted),
                ] {
                    push_json_duration(&mut out, key, d);
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"attempts\":{},\"retries\":{},\"speculative_wins\":{}}}",
                    p.attempts, p.retries, p.speculative_wins
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }

    /// Writes the log as JSON into `dir/<file>`.
    pub fn write_json(&self, dir: &std::path::Path, file: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file);
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

/// One kernel timing row for [`render_kernel_bench_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTiming {
    /// Benchmark label, `kernel/distribution` by convention.
    pub label: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub mean_ns: f64,
    /// Number of timed iterations behind the mean.
    pub iters: u64,
}

/// Renders kernel micro-benchmark timings as the repo's
/// `BENCH_dominance.json` document: the bench name plus one
/// `{label, mean_ns, iters}` object per row, in run order.
pub fn render_kernel_bench_json(bench: &str, rows: &[KernelTiming]) -> String {
    let mut out = format!("{{\"bench\":\"{}\",\"results\":[", json_escape(bench));
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"label\":\"{}\",\"mean_ns\":{:.1},\"iters\":{}}}",
            json_escape(&r.label),
            r.mean_ns,
            r.iters
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Generates (and memoizes per process) a dataset.
pub fn dataset(dist: Distribution, dim: usize, card: usize, seed: u64) -> Dataset {
    generate(dist, dim, card, seed ^ ((dim as u64) << 32) ^ card as u64)
}

/// Runs one sweep cell with DNF handling; returns the simulated runtime in
/// seconds, and records the run's phase breakdown under `label` when a log
/// is supplied.
pub fn measure_cell_logged(
    algo: Algo,
    ds: &Dataset,
    reducers: usize,
    tracker: &mut DnfTracker,
    budget: Duration,
    label: &str,
    log: Option<&mut PhaseLog>,
) -> Option<f64> {
    if tracker.is_dnf(algo) {
        return None;
    }
    let m = run_algo(algo, ds, reducers);
    tracker.record(algo, m.host_wall, budget);
    if let Some(log) = log {
        log.record(label, &m);
    }
    Some(m.sim_runtime.as_secs_f64())
}

/// Runs one sweep cell with DNF handling; returns the simulated runtime in
/// seconds.
pub fn measure_cell(
    algo: Algo,
    ds: &Dataset,
    reducers: usize,
    tracker: &mut DnfTracker,
    budget: Duration,
) -> Option<f64> {
    measure_cell_logged(algo, ds, reducers, tracker, budget, "", None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper-shape"), Some(Scale::PaperShape));
        assert_eq!(Scale::parse("default"), Some(Scale::PaperShape));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Quick.cardinalities().1 < Scale::PaperShape.cardinalities().1);
        assert!(Scale::PaperShape.cardinalities().1 < Scale::Full.cardinalities().1);
    }

    #[test]
    fn table_renders_and_writes_csv() {
        let mut t = Table::new("fig", "dim", vec!["A".into(), "B".into()]);
        t.push_row("2", vec![Some(1.5), None]);
        t.push_row("3", vec![Some(2.5), Some(3.0)]);
        let text = t.render();
        assert!(text.contains("DNF"));
        assert!(text.contains("2.50"));
        let dir = std::env::temp_dir().join(format!("skymr-bench-test-{}", std::process::id()));
        let path = t.write_csv(&dir, "t.csv").unwrap();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.starts_with("dim,A,B\n"));
        assert!(contents.contains("2,1.5,\n"));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn sparklines_render_for_long_tables() {
        let mut t = Table::new("fig", "dim", vec!["A".into(), "B".into()]);
        for (i, a) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            t.push_row(
                (i + 2).to_string(),
                vec![Some(*a), if i == 3 { None } else { Some(1.0) }],
            );
        }
        let text = t.render();
        assert!(
            text.contains('█'),
            "max cell should render as a full block:\n{text}"
        );
        assert!(
            text.contains('▁'),
            "min cell should render as the lowest block:\n{text}"
        );
        assert!(text.contains('×'), "DNF cells should render as ×:\n{text}");
    }

    #[test]
    fn sparkline_char_scales() {
        assert_eq!(sparkline_char(0.0, 0.0, 1.0), '▁');
        assert_eq!(sparkline_char(1.0, 0.0, 1.0), '█');
        assert_eq!(
            sparkline_char(5.0, 5.0, 5.0),
            '▁',
            "degenerate range is flat"
        );
    }

    #[test]
    fn dnf_tracker_latches() {
        let mut tr = DnfTracker::new();
        assert!(!tr.is_dnf(Algo::MrBnl));
        tr.record(Algo::MrBnl, Duration::from_secs(10), Duration::from_secs(1));
        assert!(tr.is_dnf(Algo::MrBnl));
        assert!(!tr.is_dnf(Algo::MrGpmrs));
    }

    #[test]
    fn run_algo_smoke_all_algorithms() {
        let ds = dataset(Distribution::Independent, 3, 300, 1);
        let mut sizes = std::collections::HashSet::new();
        for algo in Algo::all() {
            let m = run_algo(algo, &ds, 4);
            assert!(m.sim_runtime > Duration::ZERO);
            assert!(!m.phases.is_empty(), "{algo:?} reports no phase rows");
            sizes.insert(m.skyline_size);
        }
        assert_eq!(sizes.len(), 1, "algorithms disagree on skyline size");
    }

    // The qualitative claims EXPERIMENTS.md makes per figure, at quick
    // scale. They are assertable because the simulated clock is a pure
    // function of what each job counted: these numbers never move.

    fn secs(m: &Measurement) -> f64 {
        m.sim_runtime.as_secs_f64()
    }

    /// Within 1 % of the two-job floor: 2 s startup plus a 0.2 s launch
    /// per phase, twice.
    fn within_floor(s: f64) -> bool {
        (4.8..4.8 * 1.01).contains(&s)
    }

    /// Figure 8 (anti-correlated, high cardinality): the grid algorithms
    /// in front from d = 6, MR-GPMRS ahead of MR-GPSRS, and no series
    /// falls while the comparisons on its critical path grow.
    #[test]
    fn fig8_quick_scale_keeps_its_shape() {
        let (_, card) = Scale::Quick.cardinalities();
        let dims = [4usize, 6, 8];
        let mut series: Vec<Vec<Measurement>> = Algo::all().iter().map(|_| Vec::new()).collect();
        for dim in dims {
            let ds = dataset(Distribution::Anticorrelated, dim, card, 42);
            for (column, algo) in series.iter_mut().zip(Algo::all()) {
                column.push(run_algo(algo, &ds, 13));
            }
        }
        let [gpsrs, gpmrs, bnl, angle] = &series[..] else {
            unreachable!("four algorithms");
        };
        for (i, dim) in dims.iter().enumerate().filter(|(_, &d)| d >= 6) {
            assert!(secs(&gpmrs[i]) <= secs(&gpsrs[i]), "d={dim}");
            for baseline in [bnl, angle] {
                assert!(secs(&baseline[i]) > secs(&gpsrs[i]), "d={dim}");
            }
        }
        // The busiest mapper's and the busiest reducer's counted
        // comparisons (`*.max` user counters) bound the critical path.
        let critical = |m: &Measurement, job: &str| -> (u64, u64) {
            let side = |side: &str| -> u64 {
                ["partition_cmps.max", "tuple_cmps.max"]
                    .iter()
                    .map(|c| m.counters[&format!("{job}.{side}.{c}")])
                    .sum()
            };
            (side("map"), side("reduce"))
        };
        for (column, job) in [(gpsrs, "gpsrs"), (gpmrs, "gpmrs")] {
            for (pair, dim) in column.windows(2).zip(&dims[1..]) {
                let (before, after) = (critical(&pair[0], job), critical(&pair[1], job));
                if after.0 >= before.0 && after.1 >= before.1 {
                    assert!(secs(&pair[1]) >= secs(&pair[0]), "{job} fell at d={dim}");
                }
            }
        }
        // The baselines' single merge reducer only ever sees more, and
        // longer, tuples as d grows.
        for (column, name) in [(bnl, "MR-BNL"), (angle, "MR-Angle")] {
            for (pair, dim) in column.windows(2).zip(&dims[1..]) {
                assert!(secs(&pair[1]) >= secs(&pair[0]), "{name} fell at d={dim}");
            }
        }
    }

    /// Figure 7 (independent): every curve within the floor at d ≤ 4.
    #[test]
    fn fig7_quick_scale_keeps_its_shape() {
        let (_, card) = Scale::Quick.cardinalities();
        for dim in [2usize, 4] {
            let ds = dataset(Distribution::Independent, dim, card, 42);
            for algo in Algo::all() {
                let s = secs(&run_algo(algo, &ds, 13));
                assert!(within_floor(s), "{} d={dim}: {s}", algo.name());
            }
        }
    }

    /// Figure 10 (8-d): on anti-correlated data five reducers beat one; on
    /// independent data the whole sweep stays within the floor.
    #[test]
    fn fig10_quick_scale_keeps_its_shape() {
        let (_, card) = Scale::Quick.cardinalities();
        let anti = dataset(Distribution::Anticorrelated, 8, card, 42);
        let one = secs(&run_algo(Algo::MrGpsrs, &anti, 1));
        let five = secs(&run_algo(Algo::MrGpmrs, &anti, 5));
        assert!(five < one, "{five} vs {one}");
        let indep = dataset(Distribution::Independent, 8, card, 42);
        assert!(within_floor(secs(&run_algo(Algo::MrGpsrs, &indep, 1))));
        for reducers in [3, 5, 9, 13, 17] {
            let s = secs(&run_algo(Algo::MrGpmrs, &indep, reducers));
            assert!(within_floor(s), "independent r={reducers}: {s}");
        }
    }

    #[test]
    fn kernel_bench_json_is_valid_and_ordered() {
        use skymr_mapreduce::telemetry::json;

        let rows = vec![
            KernelTiming {
                label: "dominates/independent".into(),
                mean_ns: 41.26,
                iters: 20,
            },
            KernelTiming {
                label: "local_skyline_bnl/anticorrelated".into(),
                mean_ns: 1.5e6,
                iters: 20,
            },
        ];
        let text = render_kernel_bench_json("dominance", &rows);
        let doc = json::parse(&text).expect("kernel bench renders valid JSON");
        assert_eq!(
            doc.get("bench").and_then(json::Value::as_str),
            Some("dominance")
        );
        let results = doc
            .get("results")
            .and_then(json::Value::as_array)
            .expect("results array");
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("label").and_then(json::Value::as_str),
            Some("dominates/independent")
        );
        assert_eq!(
            results[0].get("mean_ns").and_then(json::Value::as_f64),
            Some(41.3)
        );
        assert_eq!(
            results[1].get("iters").and_then(json::Value::as_u64),
            Some(20)
        );
        // Byte-reproducible for identical timings.
        assert_eq!(text, render_kernel_bench_json("dominance", &rows));
    }

    #[test]
    fn phase_log_json_is_valid_and_carries_the_breakdown() {
        use skymr_mapreduce::telemetry::json;

        let ds = dataset(Distribution::Independent, 3, 300, 1);
        let mut log = PhaseLog::new();
        log.record("MR-GPMRS dim=3", &run_algo(Algo::MrGpmrs, &ds, 4));
        let text = log.to_json();
        let doc = json::parse(&text).expect("phase log renders valid JSON");
        let runs = doc
            .get("runs")
            .and_then(json::Value::as_array)
            .expect("runs array");
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(
            run.get("label").and_then(json::Value::as_str),
            Some("MR-GPMRS dim=3")
        );
        assert!(run
            .get("sim_runtime_us")
            .and_then(json::Value::as_u64)
            .is_some());
        let phases = run
            .get("phases")
            .and_then(json::Value::as_array)
            .expect("phases array");
        // MR-GPMRS is a two-job pipeline: bitstring then gpmrs.
        assert!(phases.len() >= 2, "{text}");
        for p in phases {
            for key in ["job", "map_us", "shuffle_us", "reduce_us", "total_us"] {
                assert!(p.get(key).is_some(), "phase row missing {key}: {text}");
            }
        }
        // Byte-reproducible, like the engine exporters.
        assert_eq!(text, log.to_json());
    }
}
