//! Determinism and fault-tolerance tests: the MapReduce contract says a
//! failed task is simply re-executed, which is only sound because every
//! task in this workspace is deterministic. These tests run the full
//! pipelines repeatedly, with and without injected failures, and demand
//! bit-identical skylines.

use std::collections::BTreeMap;
use std::time::Duration;

use skymr::{mr_gpmrs, mr_gpsrs, SkylineConfig, SkylineRun};
use skymr_baselines::mr_bnl::{forward_map, local_skyline_reduce, merge_reduce, partition_map};
use skymr_baselines::{mr_angle, mr_bnl, BaselineConfig, MergeStrategy};
use skymr_common::dataset::canonicalize;
use skymr_common::Dataset;
use skymr_datagen::Distribution;
use skymr_integration_tests::scenario;
use skymr_mapreduce::telemetry::export::{chrome_trace, jsonl};
use skymr_mapreduce::{
    run_job, run_job_from, ClusterConfig, Collector, FaultPlan, FaultTolerance, FnSplits,
    JobConfig, JobMetrics, ModuloPartitioner, Placement, SingleReducerPartitioner,
    SpeculationPolicy, TaskFault,
};

#[test]
fn repeated_runs_are_identical() {
    let data = scenario(Distribution::Anticorrelated, 4, 600, 301);
    let config = SkylineConfig::test();
    let first = mr_gpmrs(&data, &config).unwrap();
    for _ in 0..3 {
        let again = mr_gpmrs(&data, &config).unwrap();
        assert_eq!(again.skyline, first.skyline);
        assert_eq!(again.info.independent_groups, first.info.independent_groups);
    }
}

#[test]
fn gpsrs_identical_under_every_single_map_failure() {
    let data = scenario(Distribution::Independent, 3, 400, 302);
    let clean = mr_gpsrs(&data, &SkylineConfig::test()).unwrap();
    for failed_task in 0..4 {
        let mut config = SkylineConfig::test();
        config.fault_tolerance = FaultTolerance::with_plan(FaultPlan::fail_maps([failed_task]));
        let run = mr_gpsrs(&data, &config).unwrap();
        assert_eq!(
            run.skyline, clean.skyline,
            "map task {failed_task} retry changed the result"
        );
        assert_eq!(run.metrics.jobs[1].map_retries, 1);
    }
}

#[test]
fn gpmrs_identical_under_reduce_failures() {
    let data = scenario(Distribution::Anticorrelated, 3, 500, 303);
    let clean = mr_gpmrs(&data, &SkylineConfig::test()).unwrap();
    for failed in 0..clean.info.buckets {
        let mut config = SkylineConfig::test();
        config.fault_tolerance = FaultTolerance::with_plan(FaultPlan::fail_reduces([failed]));
        let run = mr_gpmrs(&data, &config).unwrap();
        assert_eq!(
            run.skyline, clean.skyline,
            "reduce task {failed} retry changed the result"
        );
        assert_eq!(run.metrics.jobs[1].reduce_retries, 1);
    }
}

#[test]
fn gpmrs_identical_under_combined_failures() {
    let data = scenario(Distribution::Anticorrelated, 4, 500, 304);
    let clean = mr_gpmrs(&data, &SkylineConfig::test()).unwrap();
    let mut config = SkylineConfig::test();
    config.fault_tolerance = FaultTolerance::with_plan(
        FaultPlan::fail_maps([0, 1, 2, 3])
            .with_reduce_fault(0, TaskFault::lost(1))
            .for_job("gpmrs"),
    );
    let run = mr_gpmrs(&data, &config).unwrap();
    assert_eq!(run.skyline, clean.skyline);
    assert_eq!(run.metrics.jobs[1].map_retries, 4);
}

#[test]
fn baselines_identical_under_failures() {
    let data = scenario(Distribution::Independent, 3, 300, 305);
    let mut config = BaselineConfig::test();
    config.fault_tolerance = FaultTolerance::with_plan(FaultPlan::fail_maps([0, 2]));
    assert_eq!(
        mr_bnl(&data, &config).unwrap().skyline_ids(),
        mr_bnl(&data, &BaselineConfig::test())
            .unwrap()
            .skyline_ids()
    );
    assert_eq!(
        mr_angle(&data, &config).unwrap().skyline_ids(),
        mr_angle(&data, &BaselineConfig::test())
            .unwrap()
            .skyline_ids()
    );
}

#[test]
fn split_count_does_not_affect_any_algorithm() {
    let data = scenario(Distribution::Clustered { clusters: 4 }, 3, 450, 306);
    let reference = mr_gpmrs(&data, &SkylineConfig::test().with_mappers(1)).unwrap();
    for mappers in [2usize, 3, 7, 16] {
        let run = mr_gpmrs(&data, &SkylineConfig::test().with_mappers(mappers)).unwrap();
        assert_eq!(
            run.skyline, reference.skyline,
            "{mappers} mappers changed the skyline"
        );
    }
}

#[test]
fn spilling_is_invisible_in_every_algorithm_output() {
    // Forcing the out-of-core storage plane on (a 512-byte budget makes
    // everything spill) must not change a single output tuple for any
    // algorithm, while the metrics prove the spill/merge path really ran.
    // A budget comfortably above the dataset's serialized size must also
    // leave the output untouched.
    let data = scenario(Distribution::Anticorrelated, 3, 400, 308);
    let mem_gpsrs = mr_gpsrs(&data, &SkylineConfig::test()).unwrap();
    let mem_gpmrs = mr_gpmrs(&data, &SkylineConfig::test()).unwrap();
    let mem_bnl = mr_bnl(&data, &BaselineConfig::test()).unwrap();
    let mem_angle = mr_angle(&data, &BaselineConfig::test()).unwrap();

    for budget in [512u64, 8 << 20] {
        let config = SkylineConfig::test().with_memory_budget(Some(budget));
        let bconfig = BaselineConfig::test().with_memory_budget(Some(budget));
        let gpsrs = mr_gpsrs(&data, &config).unwrap();
        let gpmrs = mr_gpmrs(&data, &config).unwrap();
        let bnl = mr_bnl(&data, &bconfig).unwrap();
        let angle = mr_angle(&data, &bconfig).unwrap();
        assert_eq!(gpsrs.skyline, mem_gpsrs.skyline, "budget {budget}");
        assert_eq!(gpmrs.skyline, mem_gpmrs.skyline, "budget {budget}");
        assert_eq!(bnl.skyline, mem_bnl.skyline, "budget {budget}");
        assert_eq!(angle.skyline, mem_angle.skyline, "budget {budget}");

        // Every job that spilled must also have merged, and the tight
        // budget must actually exercise the path in every pipeline.
        for run_jobs in [
            &gpsrs.metrics.jobs,
            &gpmrs.metrics.jobs,
            &bnl.metrics.jobs,
            &angle.metrics.jobs,
        ] {
            for job in run_jobs {
                if job.spill_files > 0 {
                    assert!(
                        job.merge_passes >= 1,
                        "job `{}` spilled without merging",
                        job.name
                    );
                    assert!(job.spilled_bytes > 0, "job `{}`", job.name);
                }
            }
            if budget == 512 {
                assert!(
                    run_jobs.iter().map(|j| j.spill_files).sum::<u64>() > 0,
                    "a 512-byte budget must force spills"
                );
            }
        }
    }
}

#[test]
fn spilled_runs_are_identical_under_failures() {
    // Spilling composed with task retries: a re-executed map rebuilds its
    // spill segments from scratch, and the output must not move.
    let data = scenario(Distribution::Independent, 3, 400, 309);
    let clean = mr_gpsrs(&data, &SkylineConfig::test()).unwrap();
    let mut config = SkylineConfig::test().with_memory_budget(Some(512));
    config.fault_tolerance = FaultTolerance::with_plan(FaultPlan::fail_maps([0, 2]));
    let run = mr_gpsrs(&data, &config).unwrap();
    assert_eq!(run.skyline, clean.skyline);
    assert_eq!(run.metrics.jobs[1].map_retries, 2);
    assert!(run.metrics.jobs[1].spill_files > 0);
}

#[test]
fn comparison_counters_are_deterministic() {
    // The cost-model validation (Figure 11) relies on reproducible counts.
    let data = scenario(Distribution::Independent, 4, 500, 307);
    let config = SkylineConfig::test();
    let a = mr_gpmrs(&data, &config).unwrap();
    let b = mr_gpmrs(&data, &config).unwrap();
    assert_eq!(
        a.counters["gpmrs.map.partition_cmps"],
        b.counters["gpmrs.map.partition_cmps"]
    );
    assert_eq!(
        a.counters["gpmrs.reduce.partition_cmps.max"],
        b.counters["gpmrs.reduce.partition_cmps.max"]
    );
}

/// One engine mode of the byte-identity matrix: a fault-tolerance setup
/// plus what it needs of the cluster.
struct Mode {
    name: &'static str,
    fault_tolerance: FaultTolerance,
    placement: Option<Placement>,
    memory_budget: Option<u64>,
}

fn matrix() -> Vec<Mode> {
    let mode = |name, fault_tolerance| Mode {
        name,
        fault_tolerance,
        placement: None,
        memory_budget: None,
    };
    let stragglers = FaultPlan::none()
        .with_map_fault(0, TaskFault::straggler(50.0))
        .with_reduce_fault(0, TaskFault::straggler(50.0));
    vec![
        mode("clean", FaultTolerance::none()),
        mode(
            "seeded",
            FaultTolerance::with_plan(FaultPlan::seeded(0x5EED)),
        ),
        mode(
            "speculation",
            FaultTolerance::with_plan(stragglers).with_speculation(SpeculationPolicy::new()),
        ),
        Mode {
            placement: Some(Placement::new(0xBEEF)),
            // Node 1 dies at the shuffle barrier of every job.
            ..mode(
                "node loss",
                FaultTolerance::with_plan(FaultPlan::none().with_node_loss(1, u64::MAX / 2)),
            )
        },
        mode(
            "corrupt x2",
            FaultTolerance::with_plan(FaultPlan::none().with_corrupt_shuffle(1, 0, 2)),
        ),
        Mode {
            memory_budget: Some(64 << 10),
            ..mode("64 KiB budget", FaultTolerance::none())
        },
    ]
}

fn cluster_for(mode: &Mode, host_threads: usize) -> ClusterConfig {
    let mut cluster = ClusterConfig::test();
    cluster.host_threads = host_threads;
    cluster.placement = mode.placement;
    if mode.memory_budget.is_some() {
        cluster.storage.memory_budget = mode.memory_budget;
    }
    cluster
}

/// Every `JobMetrics` field except the host-measured one.
fn metrics_bytes(jobs: &[JobMetrics]) -> String {
    let mut out = String::new();
    for job in jobs {
        let mut job = job.clone();
        job.host_wall = Duration::ZERO;
        out.push_str(&format!("{job:?}\n"));
    }
    out
}

/// Everything a traced core pipeline reports: metrics, user counters, and
/// both trace exports (which carry the per-job registries).
fn traced(
    algo: fn(&Dataset, &SkylineConfig) -> skymr_common::Result<SkylineRun>,
    data: &Dataset,
    mode: &Mode,
    host_threads: usize,
) -> String {
    let collector = Collector::new();
    let mut config = SkylineConfig::test()
        .with_fault_tolerance(mode.fault_tolerance.clone())
        .with_telemetry(Some(collector.clone()));
    config.cluster = cluster_for(mode, host_threads);
    let run = algo(data, &config).expect("the pipeline survives its mode");
    let doc = collector.finish();
    format!(
        "{}{:?}\n{}{}",
        metrics_bytes(&run.metrics.jobs),
        run.counters,
        chrome_trace(&doc),
        jsonl(&doc)
    )
}

fn baseline(
    algo: fn(&Dataset, &BaselineConfig) -> skymr_common::Result<skymr_baselines::BaselineRun>,
    data: &Dataset,
    mode: &Mode,
    host_threads: usize,
) -> String {
    let mut config = BaselineConfig::test().with_fault_tolerance(mode.fault_tolerance.clone());
    config.cluster = cluster_for(mode, host_threads);
    let run = algo(data, &config).expect("the pipeline survives its mode");
    metrics_bytes(&run.metrics.jobs)
}

/// The headline determinism claim: for the four paper algorithms, in
/// every engine mode — speculation included — every simulated number, the
/// registry and both trace exports are byte-identical run to run and
/// across host thread counts.
#[test]
fn metrics_and_exports_are_byte_identical_in_every_mode() {
    type Pipeline<'a> = (&'a str, Box<dyn Fn(&Mode, usize) -> String + 'a>);
    let data = scenario(Distribution::Anticorrelated, 4, 600, 310);
    let data = &data;
    let pipelines: Vec<Pipeline<'_>> = vec![
        ("MR-GPSRS", Box::new(|m, t| traced(mr_gpsrs, data, m, t))),
        ("MR-GPMRS", Box::new(|m, t| traced(mr_gpmrs, data, m, t))),
        ("MR-BNL", Box::new(|m, t| baseline(mr_bnl, data, m, t))),
        ("MR-Angle", Box::new(|m, t| baseline(mr_angle, data, m, t))),
    ];
    let modes = matrix();
    for (name, run) in &pipelines {
        let mut per_mode = BTreeMap::new();
        for mode in &modes {
            let reference = run(mode, 1);
            for host_threads in [1, 4] {
                for repeat in 0..3 {
                    assert!(
                        run(mode, host_threads) == reference,
                        "{name}, {}: run {repeat} on {host_threads} host thread(s) differs",
                        mode.name
                    );
                }
            }
            per_mode.insert(mode.name, reference);
        }
        // The modes are not vacuous: each prices the job differently (the
        // budget mode by spilling in every job — CI's forced-spill run
        // makes the clean mode spill too, so it is not compared to that).
        for mode in modes.iter().filter(|m| m.name != "clean") {
            let marked = match mode.memory_budget {
                Some(_) => !per_mode[mode.name].contains("spill_files: 0"),
                None => per_mode[mode.name] != per_mode["clean"],
            };
            assert!(
                marked,
                "{name}: mode {} left no mark on the metrics",
                mode.name
            );
        }
    }
}

/// MR-BNL's phase-1 job clones split `i` out of the dataset inside the map
/// attempt that runs it instead of materializing `Dataset::split` up
/// front. That is a memory-footprint change only: the pipeline assembled
/// here over materialized splits — same factories, same job names — must
/// report the same skyline, the same registry and every `JobMetrics` field
/// but `host_wall`, clean and under a seeded fault plan (where retries,
/// lost partitions and re-execution waves reload the lazy splits).
#[test]
fn mr_bnl_over_lazy_splits_equals_mr_bnl_over_materialized_splits() {
    let data = scenario(Distribution::Independent, 3, 900, 311);
    let mappers = 5;
    let plans = [
        FaultTolerance::none(),
        FaultTolerance::with_plan(FaultPlan::seeded(0x5EED)),
    ];
    let mut reports = Vec::new();
    for (ft, host_threads) in plans.iter().flat_map(|ft| [(ft, 1), (ft, 4)]) {
        let mut config = BaselineConfig::test()
            .with_mappers(mappers)
            .with_fault_tolerance(ft.clone());
        config.cluster.host_threads = host_threads;
        let lazy = mr_bnl(&data, &config).expect("the pipeline survives its plan");

        let splits = data.split(mappers);
        let reducers = lazy.metrics.jobs[0].reduce_tasks;
        let job1 = JobConfig::new("mr-bnl-local", reducers).with_fault_tolerance(ft);
        let local = |lazily: bool| {
            let lens = splits.iter().map(Vec::len).collect();
            let source = FnSplits::new(lens, |i| data.split_part(i, mappers).cloned().collect());
            let (cluster, map, reduce) =
                (&config.cluster, &partition_map(), &local_skyline_reduce());
            match lazily {
                true => run_job_from(cluster, &job1, &source, map, reduce, &ModuloPartitioner),
                false => run_job(cluster, &job1, &splits, map, reduce, &ModuloPartitioner),
            }
            .expect("phase 1 survives its plan")
        };
        let (streamed, local) = (local(true), local(false));
        assert_eq!(streamed.outputs, local.outputs);
        assert_eq!(streamed.registry, local.registry);
        assert_eq!(streamed.counters.snapshot(), local.counters.snapshot());

        let job2 = JobConfig::new("mr-bnl-merge", 1).with_fault_tolerance(ft);
        let merge = run_job(
            &config.cluster,
            &job2,
            &local.outputs,
            &forward_map(),
            &merge_reduce(MergeStrategy::PlainBnl),
            &SingleReducerPartitioner,
        )
        .expect("phase 2 survives its plan");
        let materialized = [local.metrics, merge.metrics.clone()];
        assert_eq!(
            metrics_bytes(&lazy.metrics.jobs),
            metrics_bytes(&materialized),
            "{host_threads} host thread(s)"
        );
        assert_eq!(
            metrics_bytes(&[streamed.metrics]),
            metrics_bytes(&materialized[..1])
        );
        assert_eq!(lazy.skyline, canonicalize(merge.into_flat_output()));
        reports.push(metrics_bytes(&lazy.metrics.jobs));
    }
    assert_ne!(reports[0], reports[2], "the seeded plan injected nothing");
}

/// User counters count each task once, whatever happened to its attempts:
/// a failed attempt, a `LostOutput` run to completion, a speculative
/// backup and a re-execution wave all leave them equal to the clean run's.
#[test]
fn user_counters_count_committed_attempts_only() {
    let data = scenario(Distribution::Anticorrelated, 4, 4_000, 311);
    let counters = |mode: &Mode| {
        let mut config = SkylineConfig::test().with_fault_tolerance(mode.fault_tolerance.clone());
        config.cluster = cluster_for(mode, 2);
        let run = mr_gpmrs(&data, &config).expect("the pipeline survives its mode");
        (run.counters, run.metrics.jobs)
    };
    let mode = |name, fault_tolerance| Mode {
        name,
        fault_tolerance,
        placement: None,
        memory_budget: None,
    };
    let (clean, _) = counters(&mode("clean", FaultTolerance::none()));
    assert!(clean["gpmrs.map.tuple_cmps"] > 0 && clean["gpmrs.reduce.tuple_cmps"] > 0);
    let scripted = FaultPlan::fail_maps([1]).with_reduce_fault(0, TaskFault::lost(1));
    let mut modes = vec![mode("scripted", FaultTolerance::with_plan(scripted))];
    modes.extend(matrix().into_iter().filter(|m| m.name != "clean"));
    for mode in &modes {
        let (faulty, jobs) = counters(mode);
        assert_eq!(faulty, clean, "{}", mode.name);
        let attempts: u64 = jobs.iter().map(|j| j.attempts).sum();
        let tasks: usize = jobs.iter().map(|j| j.map_tasks + j.reduce_tasks).sum();
        if mode.memory_budget.is_none() {
            assert!(
                attempts > tasks as u64,
                "{}: no attempt beyond the first",
                mode.name
            );
        }
    }
}
