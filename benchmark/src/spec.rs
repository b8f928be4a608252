//! The metrics the benchmark declares, mirrored by `BENCHMARK.json` (a
//! test keeps the two in step).

use std::collections::BTreeMap;

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Lower => "lower",
            Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name; per-layer names start with `crate.module`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement. For ledger counts (`*.ppd`, partition
    /// counts) the direction is nominal: they are pinned, not optimised.
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change counts as a regression.
    pub bound: f64,
    /// The value is a pure function of the seed: two runs of one commit
    /// must agree exactly.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

/// What a user of the system sees, per workload.
pub const END_TO_END: [Metric; 5] = [
    e2e("op_p50_s", "s", Lower, 0.20),
    e2e("tuples_per_s", "tuples/s", Higher, 0.20),
    Metric {
        exact: true,
        ..e2e("shuffle_mib", "MiB", Lower, 0.20)
    },
    e2e("peak_rss_mib", "MiB", Lower, 0.20),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The 99th percentile of one operation: printed by `run` for workloads
/// with at least 1000 samples (`small_jobs`), not part of the gated set.
pub const OP_P99: Metric = timed("op_p99_s", "s", Lower);

/// Single-layer numbers from the traced run.
pub const PER_LAYER: [Metric; 49] = [
    // Staged pipeline: one span per public call, parent `bench.pipeline`.
    timed("bench.pipeline_s", "s", Lower),
    timed("common.dataset.split_s", "s", Lower),
    timed("core.bitstring.job_s", "s", Lower),
    timed("core.groups.plan_s", "s", Lower),
    timed("core.skyline_job_s", "s", Lower),
    timed("baselines.mr_bnl.local_job_s", "s", Lower),
    timed("baselines.mr_bnl.merge_job_s", "s", Lower),
    timed("common.dataset.canonicalize_s", "s", Lower),
    timed("bench.pipeline_self_s", "s", Lower),
    timed("bench.trace_overhead_frac", "frac", Lower),
    // core.local: Algorithms 3-6 replayed single-threaded.
    timed("core.local.map_kernel_s", "s", Lower),
    timed("core.local.reduce_kernel_s", "s", Lower),
    count("core.local.map_tuple_cmps", "count", Lower),
    count("core.local.reduce_tuple_cmps", "count", Lower),
    timed("core.local.cmps_per_s", "1/s", Higher),
    // baselines.bnl
    timed("baselines.bnl.cell_kernel_s", "s", Lower),
    // common.dominance
    timed("common.dominance.compare_ns", "ns", Lower),
    // common.bytes
    timed("common.bytes.encode_mib_per_s", "MiB/s", Higher),
    timed("common.bytes.decode_mib_per_s", "MiB/s", Higher),
    timed("common.bytes.crc32c_mib_per_s", "MiB/s", Higher),
    count("common.bytes.wire_bytes_per_tuple", "B", Lower),
    // mapreduce.job
    timed("mapreduce.job.null_job_s", "s", Lower),
    timed("mapreduce.job.null_records_per_s", "1/s", Higher),
    timed("mapreduce.job.empty_job_us", "us", Lower),
    count("mapreduce.job.map_output_records", "count", Lower),
    count("mapreduce.job.shuffle_ratio", "ratio", Lower),
    count("mapreduce.job.max_reducer_share", "ratio", Lower),
    // mapreduce.storage
    timed("mapreduce.storage.segment_write_mib_per_s", "MiB/s", Higher),
    timed("mapreduce.storage.segment_read_mib_per_s", "MiB/s", Higher),
    timed("mapreduce.storage.external_merge_s", "s", Lower),
    count("mapreduce.storage.spill_files", "count", Lower),
    count("mapreduce.storage.spilled_mib", "MiB", Lower),
    count("mapreduce.storage.merge_passes", "count", Lower),
    count("mapreduce.storage.merge_rewritten_mib", "MiB", Lower),
    // mapreduce.sched
    timed("mapreduce.sched.executor_jobs_per_s", "1/s", Higher),
    count("mapreduce.sched.completed", "count", Higher),
    count("mapreduce.sched.rejected", "count", Lower),
    // telemetry
    timed("telemetry.finish_us", "us", Lower),
    timed("telemetry.export_chrome_us", "us", Lower),
    timed("telemetry.export_jsonl_us", "us", Lower),
    count("telemetry.trace_bytes", "B", Lower),
    timed("telemetry.collector_overhead_frac", "frac", Lower),
    // datagen
    timed("datagen.generate_s", "s", Lower),
    timed("datagen.tuples_per_s", "tuples/s", Higher),
    // Cost-model ledger (paper section 6) from the skyline job's counters.
    count("core.cost.map_partition_cmps", "count", Lower),
    count("core.cost.reduce_partition_cmps", "count", Lower),
    count("core.cost.dr_pruned_tuples", "count", Higher),
    count("core.bitstring.ppd", "count", Lower),
    count("core.bitstring.surviving_partitions", "count", Lower),
];

/// Looks a declared metric up by name.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Collects measured values by metric name, then orders them as declared.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Sets (or replaces) the value of `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every declared metric in order; a metric no code set is an error,
    /// so a declared-but-forgotten metric cannot pass silently.
    pub fn in_order(&self, declared: &[Metric]) -> crate::Result<Vec<(String, f64, String)>> {
        declared
            .iter()
            .map(|m| {
                let value = self
                    .0
                    .get(m.name)
                    .ok_or_else(|| format!("metric {} was declared but not measured", m.name))?;
                Ok((m.name.to_owned(), *value, m.unit.to_owned()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use skymr_mapreduce::telemetry::json::{self, Value};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "bad workload name {:?}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = find("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    fn members<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("missing string {key}"))
    }

    #[test]
    fn benchmark_json_declares_exactly_these_sets() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");

        let declared: Vec<(&str, &str)> = members(&doc, "workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(declared, ours);

        let e2e: Vec<(&str, &str, &str, Option<f64>)> = members(&doc, "end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let ours: Vec<(&str, &str, &str, Option<f64>)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str(), Some(m.bound)))
            .collect();
        assert_eq!(e2e, ours);

        let layers: Vec<(&str, &str, &str)> = members(&doc, "per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(&str, &str, &str)> = PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better.as_str()))
            .collect();
        assert_eq!(layers, ours);

        let paths: Vec<Option<&str>> = members(&doc, "paths").iter().map(Value::as_str).collect();
        assert_eq!(paths, [Some("benchmark")]);
    }
}
