//! Chaos harness for the fault-tolerance layer: every pipeline must
//! produce byte-identical output under seeded random fault plans —
//! repeated per-attempt failures, mid-task panics, lost shuffle
//! partitions, failed broadcasts, stragglers — and a task that can never
//! succeed must surface as a structured [`skymr_common::Error::JobFailed`],
//! not a panic. The byte-identity table re-executes every public pipeline
//! under seeded faults and speculation, in memory and spilled — the
//! dynamic check of the MapReduce contract that map and reduce are
//! functions of their input alone.

use std::collections::BTreeMap;

use proptest::prelude::*;

use skymr::{
    mr_constrained_gpmrs, mr_constrained_gpsrs, mr_gpmrs, mr_gpsrs, mr_hybrid, mr_skyband,
    mr_skyband_multi, mr_top_k_dominating, Constraint, SkylineConfig, SkylineRun,
};
use skymr_baselines::{
    discretize, mr_angle, mr_bitmap, mr_bnl, mr_sfs, sky_mr, BaselineConfig, BaselineRun,
    SkyMrConfig,
};
use skymr_common::{Dataset, Error, Tuple};
use skymr_datagen::Distribution;
use skymr_integration_tests::scenario;
use skymr_mapreduce::analysis::{assert_schedule_independent, ShakeCase};
use skymr_mapreduce::telemetry::export::chrome_trace;
use skymr_mapreduce::{
    run_job, ClusterConfig, Collector, Emitter, FaultPlan, FaultProfile, FaultTolerance,
    HashPartitioner, JobConfig, JobMetrics, MapFactory, MapTask, OutputCollector, Placement,
    ReduceFactory, ReduceTask, RetryPolicy, TaskContext, TaskFault, TaskKind,
};

/// Fixed seeds locked as a regression suite. Each one exercised a distinct
/// mix of fault kinds when the suite was written; keeping them pinned means
/// a future engine change replays the exact same fault schedules.
const REGRESSION_SEEDS: [u64; 4] = [0xC0FFEE, 0x5EED_0001, 42, 0xDEAD_BEEF];

fn chaos_data() -> Dataset {
    scenario(Distribution::Anticorrelated, 3, 400, 701)
}

/// Serializes the id-sorted skyline to a canonical byte string so the
/// "byte-identical" claim is literal, not just `Vec<u64>` id equality.
fn tuple_bytes(tuples: &[Tuple]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for t in tuples {
        bytes.extend_from_slice(&t.id.to_le_bytes());
        for v in &t.values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes
}

/// Every per-job retry/attempt invariant the chaos runs must respect:
/// retries stay within the per-task budget, and the attempt ledger never
/// undercounts the tasks that ran.
fn assert_retry_bounds(jobs: &[JobMetrics], budget: u64) {
    for job in jobs {
        let tasks = (job.map_tasks + job.reduce_tasks) as u64;
        assert!(
            job.map_retries <= job.map_tasks as u64 * budget,
            "job `{}`: {} map retries exceed the budget for {} tasks",
            job.name,
            job.map_retries,
            job.map_tasks
        );
        assert!(
            job.reduce_retries <= job.reduce_tasks as u64 * budget,
            "job `{}`: {} reduce retries exceed the budget for {} tasks",
            job.name,
            job.reduce_retries,
            job.reduce_tasks
        );
        assert!(
            job.attempts >= tasks,
            "job `{}`: {} attempts cannot cover {} tasks",
            job.name,
            job.attempts,
            tasks
        );
        if job.map_retries + job.reduce_retries > 0 {
            assert!(
                job.attempts > tasks,
                "job `{}`: retries happened but attempts == tasks",
                job.name
            );
        }
    }
}

fn run_core<F>(data: &Dataset, ft: FaultTolerance, algo: F) -> SkylineRun
where
    F: Fn(&Dataset, &SkylineConfig) -> skymr_common::Result<SkylineRun>,
{
    let config = SkylineConfig::test().with_fault_tolerance(ft);
    algo(data, &config).expect("chaos faults are always recoverable within the retry budget")
}

/// What a pipeline reports that no fault may move: its output as bytes and
/// its user counters (the core pipelines'; the rest report none), plus the
/// per-job metrics the retry bounds are checked on.
struct Report {
    output: Vec<u8>,
    counters: BTreeMap<String, u64>,
    jobs: Vec<JobMetrics>,
}

fn skyline_report(run: SkylineRun) -> Report {
    Report {
        output: tuple_bytes(&run.skyline),
        counters: run.counters,
        jobs: run.metrics.jobs,
    }
}

fn baseline_report(run: BaselineRun) -> Report {
    Report {
        output: tuple_bytes(&run.skyline),
        counters: BTreeMap::new(),
        jobs: run.metrics.jobs,
    }
}

/// The engine a table row runs on: a fault tolerance and a memory budget.
type Engine = (FaultTolerance, Option<u64>);

fn core_config((ft, budget): &Engine) -> SkylineConfig {
    SkylineConfig::test()
        .with_fault_tolerance(ft.clone())
        .with_memory_budget(*budget)
}

fn baseline_config((ft, budget): &Engine) -> BaselineConfig {
    BaselineConfig::test()
        .with_fault_tolerance(ft.clone())
        .with_memory_budget(*budget)
}

type Pipeline = fn(&Dataset, &Engine) -> skymr_common::Result<Report>;

/// Every public pipeline; MR-Bitmap runs on its own (discretized) domain.
fn pipelines() -> [(&'static str, Pipeline); 13] {
    fn constraint() -> Constraint {
        Constraint::new(vec![0.0; 3], vec![0.7; 3]).expect("a non-empty box")
    }
    [
        ("MR-GPSRS", |d, e| {
            mr_gpsrs(d, &core_config(e)).map(skyline_report)
        }),
        ("MR-GPMRS", |d, e| {
            mr_gpmrs(d, &core_config(e)).map(skyline_report)
        }),
        ("hybrid", |d, e| {
            mr_hybrid(d, &core_config(e)).map(skyline_report)
        }),
        ("2-skyband", |d, e| {
            mr_skyband(d, 2, &core_config(e)).map(skyline_report)
        }),
        ("2-skyband multi", |d, e| {
            mr_skyband_multi(d, 2, &core_config(e)).map(skyline_report)
        }),
        ("constrained MR-GPSRS", |d, e| {
            mr_constrained_gpsrs(d, &constraint(), &core_config(e)).map(skyline_report)
        }),
        ("constrained MR-GPMRS", |d, e| {
            mr_constrained_gpmrs(d, &constraint(), &core_config(e)).map(skyline_report)
        }),
        ("top-5 dominating", |d, e| {
            let run = mr_top_k_dominating(d, 5, &core_config(e))?;
            let (tuples, scores): (Vec<Tuple>, Vec<u64>) = run.ranked.into_iter().unzip();
            let mut output = tuple_bytes(&tuples);
            output.extend(scores.iter().flat_map(|s| s.to_le_bytes()));
            let jobs = run.metrics.jobs;
            Ok(Report {
                output,
                counters: BTreeMap::new(),
                jobs,
            })
        }),
        ("MR-BNL", |d, e| {
            mr_bnl(d, &baseline_config(e)).map(baseline_report)
        }),
        ("MR-Angle", |d, e| {
            mr_angle(d, &baseline_config(e)).map(baseline_report)
        }),
        ("MR-SFS", |d, e| {
            mr_sfs(d, &baseline_config(e)).map(baseline_report)
        }),
        ("MR-Bitmap", |d, e| {
            mr_bitmap(&discretize(d, 8), &baseline_config(e)).map(baseline_report)
        }),
        ("SKY-MR", |d, e| {
            let BaselineConfig {
                cluster,
                fault_tolerance,
                ..
            } = baseline_config(e);
            let config = SkyMrConfig {
                cluster,
                fault_tolerance,
                ..SkyMrConfig::test()
            };
            sky_mr(d, &config).map(baseline_report)
        }),
    ]
}

/// The byte-identity table: every pipeline, under every plan of `plans`
/// and every budget of `budgets`, reproduces its fault-free in-memory
/// output and user counters byte for byte, within the retry bounds.
/// Returns the spill files the faulty runs wrote.
fn assert_every_pipeline_reproduces(
    plans: &[(String, FaultTolerance)],
    budgets: &[Option<u64>],
) -> u64 {
    let data = chaos_data();
    let budget = RetryPolicy::new().max_attempts as u64;
    let mut spill_files = 0;
    for (name, run) in pipelines() {
        let clean = run(&data, &(FaultTolerance::none(), None)).expect("the clean run succeeds");
        for (label, ft) in plans {
            for memory in budgets {
                let faulty = run(&data, &(ft.clone(), *memory))
                    .expect("chaos faults are always recoverable within the retry budget");
                let case = format!("{name} under {label}, budget {memory:?}");
                assert!(faulty.output == clean.output, "{case}: output diverged");
                assert_eq!(faulty.counters, clean.counters, "{case}: user counters");
                assert_retry_bounds(&faulty.jobs, budget);
                spill_files += faulty.jobs.iter().map(|j| j.spill_files).sum::<u64>();
            }
        }
    }
    spill_files
}

fn seeded_plans(
    seeds: &[u64],
    plan: impl Fn(u64) -> FaultPlan,
    what: &str,
) -> Vec<(String, FaultTolerance)> {
    let ft = |seed| FaultTolerance::with_plan(plan(seed));
    let label = |seed| format!("{what} seed {seed:#x}");
    seeds.iter().map(|&seed| (label(seed), ft(seed))).collect()
}

#[test]
fn fixed_seed_chaos_preserves_every_algorithm_output() {
    let plans = seeded_plans(&REGRESSION_SEEDS, FaultPlan::seeded, "chaos");
    assert_every_pipeline_reproduces(&plans, &[None]);
}

#[test]
fn chaos_with_speculation_preserves_every_algorithm_output() {
    // Speculative backups race the original attempt; the deterministic
    // winner rule must keep the output stable, and stragglers in the
    // profile give speculation real work to do.
    let chaos = |seed| FaultPlan::chaos(seed, FaultProfile::default());
    let plans = seeded_plans(&[0xBACC_0FF5, 7], chaos, "speculative chaos");
    let plans: Vec<_> = plans
        .into_iter()
        .map(|(label, ft)| (label, ft.with_speculation()))
        .collect();
    assert_every_pipeline_reproduces(&plans, &[None, Some(SPILL_BUDGET)]);
}

#[test]
fn chaos_metrics_record_recovery_work() {
    // At least one of the pinned seeds must actually injure the pipeline;
    // a chaos suite whose plans never fire tests nothing.
    let data = chaos_data();
    let mut total_retries = 0u64;
    for seed in REGRESSION_SEEDS {
        let ft = FaultTolerance::with_plan(FaultPlan::seeded(seed));
        let run = run_core(&data, ft, mr_gpmrs);
        for job in &run.metrics.jobs {
            total_retries += job.map_retries + job.reduce_retries;
            if job.map_retries + job.reduce_retries > 0 {
                assert!(
                    job.wasted_task_time > std::time::Duration::ZERO,
                    "job `{}` retried but recorded no wasted task time",
                    job.name
                );
            }
        }
    }
    assert!(
        total_retries > 0,
        "no regression seed injected a single recoverable fault"
    );
}

#[test]
fn chaos_output_is_schedule_independent() {
    // A fixed fault plan replayed under shaken schedules (thread counts,
    // slot counts, input permutations) must not leak scheduling order
    // into the output.
    let data = scenario(Distribution::Clustered { clusters: 3 }, 3, 300, 702);
    let run_case = |case: &ShakeCase| -> Vec<u8> {
        let mut tuples = data.tuples().to_vec();
        case.permute(&mut tuples);
        let shuffled = Dataset::new(data.dim(), tuples).expect("permutation preserves validity");
        let mut config = SkylineConfig::test()
            .with_mappers(1 + case.map_slots)
            .with_reducers(case.reduce_slots)
            .with_fault_tolerance(FaultTolerance::with_plan(FaultPlan::seeded(0xC0FFEE)));
        config.cluster = case.cluster(&config.cluster);
        let run = mr_gpmrs(&shuffled, &config).expect("chaos faults are recoverable");
        tuple_bytes(&run.skyline)
    };
    let report = assert_schedule_independent(6, 0xC4A0_5EED, run_case);
    assert_eq!(report.cases.len(), 6);
    assert!(report.output_len > 0);
}

// ---------------------------------------------------------------------------
// Node-level failure domains: node loss, re-execution, checkpoint/resume.
// ---------------------------------------------------------------------------

#[test]
fn node_loss_reexecutes_maps_and_preserves_the_skyline() {
    // Kill the node hosting map task 0's output after the map phase
    // finishes: the completed output is invalidated, the map re-executes,
    // and the skyline still comes out byte-identical to the fault-free run
    // — with the loss and the re-execution visible in the exported trace.
    let data = chaos_data();
    let clean = run_core(&data, FaultTolerance::none(), mr_gpsrs);

    let seed = 0xD00D_u64;
    let cluster = ClusterConfig::test_placed(seed);
    let alive: Vec<usize> = (0..cluster.nodes).collect();
    let victim = Placement::new(seed).task_home("gpsrs", TaskKind::Map, 0, &alive);
    let plan = FaultPlan::none().with_node_loss(victim).for_job("gpsrs");

    let collector = Collector::new();
    let mut config = SkylineConfig::test()
        .with_fault_tolerance(FaultTolerance::with_plan(plan))
        .with_telemetry(Some(collector.clone()));
    config.cluster = cluster;
    let run = mr_gpsrs(&data, &config).expect("a node loss is recoverable");

    assert_eq!(
        tuple_bytes(&run.skyline),
        tuple_bytes(&clean.skyline),
        "MR-GPSRS diverged under a node loss"
    );
    let job = &run.metrics.jobs[1];
    assert_eq!(job.nodes_lost, 1);
    assert!(job.maps_reexecuted > 0, "the lost output must re-execute");
    assert!(
        job.reexecution_time >= config.cluster.heartbeat_timeout,
        "re-execution time must include the loss-detection timeout"
    );
    assert_eq!(run.metrics.jobs[0].nodes_lost, 0, "plan is job-scoped");

    let trace = chrome_trace(&collector.finish());
    assert!(
        trace.contains("node-loss"),
        "the trace must carry the node-loss instant"
    );
    assert!(
        trace.contains("(re-exec)"),
        "the trace must carry the re-execution spans"
    );
}

#[test]
fn crash_between_jobs_then_resume_matches_the_fresh_run() {
    // A driver killed after the bitstring job resumes from its checkpoint
    // file, replays the bitstring stage without re-running it, survives a
    // node loss in the skyline job, and produces the same bytes a fresh
    // fault-free run does.
    let data = chaos_data();
    let fresh = run_core(&data, FaultTolerance::none(), mr_gpsrs);

    let path = std::env::temp_dir().join(format!("skymr-chaos-resume-{}.ckpt", std::process::id()));
    let err = mr_gpsrs(
        &data,
        &SkylineConfig::test()
            .with_checkpoint_file(&path)
            .with_kill_after(1),
    )
    .expect_err("the kill-point fires between the two jobs");
    assert!(matches!(err, Error::PipelineKilled { after_jobs: 1 }));

    let seed = 0xBEEF_u64;
    let alive: Vec<usize> = (0..ClusterConfig::test().nodes).collect();
    let victim = Placement::new(seed).task_home("gpsrs", TaskKind::Map, 1, &alive);
    let mut config = SkylineConfig::test()
        .with_checkpoint_file(&path)
        .with_resume(true)
        .with_fault_tolerance(FaultTolerance::with_plan(
            FaultPlan::none().with_node_loss(victim).for_job("gpsrs"),
        ));
    config.cluster = ClusterConfig::test_placed(seed);
    let resumed = mr_gpsrs(&data, &config).expect("resume + node loss is recoverable");
    std::fs::remove_file(&path).ok();

    assert_eq!(
        tuple_bytes(&resumed.skyline),
        tuple_bytes(&fresh.skyline),
        "crash-and-resume diverged from the fresh run"
    );
    assert_eq!(resumed.metrics.jobs.len(), 2);
    assert_eq!(
        resumed.metrics.jobs[0].map_tasks, 0,
        "the bitstring stage must replay from the checkpoint, not re-run"
    );
    assert_eq!(resumed.metrics.jobs[1].nodes_lost, 1);
    assert!(resumed.metrics.jobs[1].maps_reexecuted > 0);
}

#[test]
fn seeded_node_chaos_preserves_core_algorithm_output() {
    // Seeded node-hostile plans (losses + partitions + occasional task
    // faults) across a seed sweep: both grid algorithms must reproduce
    // their fault-free bytes, and at least one seed must actually kill a
    // node so the sweep tests what it claims to.
    let data = chaos_data();
    let clean_gpsrs = run_core(&data, FaultTolerance::none(), mr_gpsrs);
    let clean_gpmrs = run_core(&data, FaultTolerance::none(), mr_gpmrs);
    let mut nodes_lost = 0u64;
    for seed in 0..8u64 {
        let mut config = SkylineConfig::test()
            .with_fault_tolerance(FaultTolerance::with_plan(FaultPlan::chaos_nodes(seed)));
        config.cluster = ClusterConfig::test_placed(seed);
        let gpsrs = mr_gpsrs(&data, &config).expect("node chaos is recoverable");
        let gpmrs = mr_gpmrs(&data, &config).expect("node chaos is recoverable");
        assert_eq!(
            tuple_bytes(&gpsrs.skyline),
            tuple_bytes(&clean_gpsrs.skyline),
            "MR-GPSRS diverged under node chaos seed {seed}"
        );
        assert_eq!(
            tuple_bytes(&gpmrs.skyline),
            tuple_bytes(&clean_gpmrs.skyline),
            "MR-GPMRS diverged under node chaos seed {seed}"
        );
        nodes_lost += gpsrs
            .metrics
            .jobs
            .iter()
            .chain(&gpmrs.metrics.jobs)
            .map(|j| j.nodes_lost)
            .sum::<u64>();
    }
    assert!(nodes_lost > 0, "no chaos seed lost a single node");
}

// ---------------------------------------------------------------------------
// Data-plane failure domains: shuffle corruption, hangs, poison records.
// ---------------------------------------------------------------------------

#[test]
fn seeded_data_chaos_preserves_every_algorithm_output() {
    // Seeded data-plane plans (shuffle-frame corruption + hung attempts)
    // across every pipeline: the CRC re-fetch/re-execute ladder and the
    // progress timeout must keep every output byte-identical.
    let plans = seeded_plans(&[0, 1, 2, 0xDA7A], FaultPlan::chaos_data, "data chaos");
    assert_every_pipeline_reproduces(&plans, &[None, Some(SPILL_BUDGET)]);
}

#[test]
fn data_chaos_metrics_record_corruption_and_hang_recovery() {
    // The sweep must actually injure the data plane: corrupt fetches and
    // killed attempts have to show up in the ledger, and none of it may
    // degrade the output.
    let data = chaos_data();
    let mut corrupt_fetches = 0u64;
    let mut retries = 0u64;
    for seed in 0..8u64 {
        let ft = FaultTolerance::with_plan(FaultPlan::chaos_data(seed));
        let run = run_core(&data, ft, mr_gpmrs);
        for job in &run.metrics.jobs {
            corrupt_fetches += job.corrupt_fetches;
            retries += job.map_retries + job.reduce_retries;
            assert!(!job.degraded, "data chaos must never degrade the output");
            assert_eq!(job.records_skipped, 0, "nothing was poisoned");
        }
    }
    assert!(
        corrupt_fetches > 0,
        "no data-chaos seed corrupted a single shuffle fetch"
    );
    assert!(
        retries > 0,
        "no data-chaos seed forced a retry (hangs and at-rest corruption both should)"
    );
}

#[test]
fn data_plane_faults_are_visible_in_trace_and_metrics() {
    // One scripted plan exercising the whole recovery ladder: a transient
    // corrupt fetch (re-fetched), an at-rest one (producer re-executed), a
    // hung attempt (killed by the progress timeout), and a poisoned record
    // (narrowed to and skipped). Every event must surface as its pinned
    // trace instant and in JobMetrics.
    let data = chaos_data();
    let collector = Collector::new();
    let plan = FaultPlan::none()
        .with_corrupt_shuffle(0, 0, 1)
        .with_corrupt_shuffle(1, 0, 2)
        .with_map_fault(2, TaskFault::hangs(1))
        .with_poison_record(3, 0)
        .for_job("gpsrs");
    let config = SkylineConfig::test()
        .with_fault_tolerance(FaultTolerance::with_plan(plan))
        .with_skip_bad_records(true)
        .with_telemetry(Some(collector.clone()));
    let run = mr_gpsrs(&data, &config).expect("the whole ladder is recoverable");

    let job = run.metrics.job("gpsrs").expect("skyline job ran");
    assert_eq!(job.corrupt_fetches, 3, "1 transient + 2 at-rest fetches");
    assert_eq!(job.records_skipped, 1);
    assert!(job.degraded, "a skipped record degrades the job");
    assert!(
        job.map_retries >= 2,
        "the hang and the re-execution both retry"
    );
    let bitstring = run.metrics.job("bitstring").expect("pre-job ran");
    assert!(!bitstring.degraded, "the plan is scoped to the skyline job");

    let trace = chrome_trace(&collector.finish());
    for instant in ["fault:corrupt", "hang-kill", "skip-record"] {
        assert!(
            trace.contains(instant),
            "the trace must carry the {instant} instant"
        );
    }
}

#[test]
fn poison_with_skip_matches_the_fault_free_run_minus_the_poisoned_record() {
    // Hadoop's SkipBadRecords semantics, end to end: the degraded output is
    // exactly the fault-free output of the dataset with the poisoned record
    // removed — for both grid algorithms.
    let data = chaos_data();
    let mappers = SkylineConfig::test().mappers;
    let poisoned_id = data.split(mappers)[1][5].id;
    let reduced = Dataset::new(
        data.dim(),
        data.tuples()
            .iter()
            .filter(|t| t.id != poisoned_id)
            .cloned()
            .collect(),
    )
    .expect("removing one tuple keeps the dataset valid");

    let ft = FaultTolerance::with_plan(FaultPlan::none().with_poison_record(1, 5));
    for algo in [mr_gpsrs, mr_gpmrs] {
        let expected = run_core(&reduced, FaultTolerance::none(), algo);
        let config = SkylineConfig::test()
            .with_fault_tolerance(ft.clone())
            .with_skip_bad_records(true);
        let run = algo(&data, &config).expect("skip-bad-records completes the job");
        assert_eq!(
            tuple_bytes(&run.skyline),
            tuple_bytes(&expected.skyline),
            "degraded output must equal the fault-free run minus the poisoned record"
        );
        for job in &run.metrics.jobs {
            assert!(job.degraded, "job `{}` must be marked degraded", job.name);
            assert_eq!(
                job.records_skipped, 1,
                "job `{}` skips exactly the poisoned record",
                job.name
            );
        }
    }
}

#[test]
fn poison_without_skip_policy_aborts_with_a_structured_error() {
    let data = chaos_data();
    let ft = FaultTolerance::with_plan(FaultPlan::none().with_poison_record(0, 0));
    let config = SkylineConfig::test().with_fault_tolerance(ft);
    let err = mr_gpsrs(&data, &config).expect_err("a poisoned record with no skip policy is fatal");
    match err {
        Error::JobFailed { task, message, .. } => {
            assert_eq!(task, "map");
            assert!(
                message.contains("poisoned at record 0"),
                "the cause must name the record: {message}"
            );
        }
        other => panic!("expected Error::JobFailed, got {other:?}"),
    }
}

#[test]
fn skip_bad_records_is_schedule_independent() {
    // The poisoned (map, record) coordinate must name the same tuple in
    // every case, so the input and mapper count stay fixed while slot and
    // thread counts shake — the skipped set, and therefore the output,
    // cannot depend on scheduling.
    let data = scenario(Distribution::Clustered { clusters: 3 }, 3, 300, 705);
    let run_case = |case: &ShakeCase| -> Vec<u8> {
        let mut config = SkylineConfig::test()
            .with_reducers(case.reduce_slots)
            .with_fault_tolerance(FaultTolerance::with_plan(
                FaultPlan::none().with_poison_record(0, 3),
            ))
            .with_skip_bad_records(true);
        config.cluster = case.cluster(&config.cluster);
        let run = mr_gpmrs(&data, &config).expect("skip-bad-records completes the job");
        assert!(run
            .metrics
            .jobs
            .iter()
            .all(|j| j.records_skipped == 1 && j.degraded));
        tuple_bytes(&run.skyline)
    };
    let report = assert_schedule_independent(8, 0xDA7A_5EED, run_case);
    assert_eq!(report.cases.len(), 8);
    assert!(report.output_len > 0);
}

#[test]
fn data_chaos_output_is_schedule_independent() {
    // A fixed data-plane fault plan replayed under shaken schedules: seeded
    // corruption and hangs must not leak scheduling order into the output.
    let data = scenario(Distribution::Clustered { clusters: 3 }, 3, 300, 706);
    let run_case = |case: &ShakeCase| -> Vec<u8> {
        let mut tuples = data.tuples().to_vec();
        case.permute(&mut tuples);
        let shuffled = Dataset::new(data.dim(), tuples).expect("permutation preserves validity");
        let mut config = SkylineConfig::test()
            .with_mappers(1 + case.map_slots)
            .with_reducers(case.reduce_slots)
            .with_fault_tolerance(FaultTolerance::with_plan(FaultPlan::chaos_data(0xDA7A)));
        config.cluster = case.cluster(&config.cluster);
        let run = mr_gpmrs(&shuffled, &config).expect("data chaos is recoverable");
        tuple_bytes(&run.skyline)
    };
    let report = assert_schedule_independent(8, 0xDA7A_C4A0, run_case);
    assert_eq!(report.cases.len(), 8);
    assert!(report.output_len > 0);
}

// ---------------------------------------------------------------------------
// Out-of-core storage plane: spilled runs under the same chaos.
// ---------------------------------------------------------------------------

/// A per-slot budget small enough that every scenario in this file spills:
/// the serialized shuffle output of even one map task exceeds 1 KiB.
const SPILL_BUDGET: u64 = 1024;

#[test]
fn spilled_chaos_preserves_every_algorithm_output() {
    // Seeded fault plans replayed with the storage plane forced on: the
    // spilled runs must reproduce the *in-memory* fault-free bytes, so
    // spilling composes with the whole recovery ladder instead of adding a
    // second source of nondeterminism.
    let plans = seeded_plans(&REGRESSION_SEEDS, FaultPlan::seeded, "chaos");
    assert!(
        assert_every_pipeline_reproduces(&plans, &[Some(SPILL_BUDGET)]) > 0,
        "the budget never forced a spill — the sweep tested nothing"
    );
}

#[test]
fn corrupt_spilled_segments_route_into_the_recovery_ladder() {
    // With the storage plane on, reducer input lives in on-disk spill
    // segments, and the corruption plan's bad fetches re-transfer their
    // partitions' bytes; the files are never written. A
    // transient hit must heal via a clean re-fetch; an at-rest hit must
    // escalate to re-executing the producing map — and the skyline must
    // still come out byte-identical to the fault-free in-memory run.
    let data = chaos_data();
    let clean = run_core(&data, FaultTolerance::none(), mr_gpsrs);

    let collector = Collector::new();
    let plan = FaultPlan::none()
        .with_corrupt_shuffle(0, 0, 1) // transient: the second fetch is clean
        .with_corrupt_shuffle(1, 0, 2) // at-rest: both fetches fail, map re-runs
        .for_job("gpsrs");
    let config = SkylineConfig::test()
        .with_fault_tolerance(FaultTolerance::with_plan(plan))
        .with_memory_budget(Some(SPILL_BUDGET))
        .with_telemetry(Some(collector.clone()));
    let run = mr_gpsrs(&data, &config).expect("segment corruption is recoverable");

    assert_eq!(
        tuple_bytes(&run.skyline),
        tuple_bytes(&clean.skyline),
        "MR-GPSRS diverged under spilled-segment corruption"
    );
    let job = run.metrics.job("gpsrs").expect("skyline job ran");
    assert!(job.spill_files > 0, "the budget must actually force spills");
    assert!(job.merge_passes >= 1, "spilled runs must externally merge");
    assert_eq!(job.corrupt_fetches, 3, "1 transient + 2 at-rest fetches");
    assert!(
        job.map_retries >= 1,
        "the at-rest corruption must re-execute its producer"
    );

    let trace = chrome_trace(&collector.finish());
    for needle in ["\"spill[0]\"", "\"merge\"", "fault:corrupt"] {
        assert!(trace.contains(needle), "the trace must carry {needle}");
    }
}

#[test]
fn spilled_chaos_output_is_schedule_independent() {
    // The fixed fault plan from `chaos_output_is_schedule_independent`,
    // replayed with every schedule shaken *and* the storage plane on:
    // spill-file boundaries and merge order must not leak scheduling
    // order into the output.
    let data = scenario(Distribution::Clustered { clusters: 3 }, 3, 300, 707);
    let run_case = |case: &ShakeCase| -> Vec<u8> {
        let mut tuples = data.tuples().to_vec();
        case.permute(&mut tuples);
        let shuffled = Dataset::new(data.dim(), tuples).expect("permutation preserves validity");
        let mut config = SkylineConfig::test()
            .with_mappers(1 + case.map_slots)
            .with_reducers(case.reduce_slots)
            .with_fault_tolerance(FaultTolerance::with_plan(FaultPlan::seeded(0xC0FFEE)));
        config.cluster = case.cluster(&config.cluster);
        config.cluster.storage.memory_budget = Some(SPILL_BUDGET);
        let run = mr_gpmrs(&shuffled, &config).expect("spilled chaos is recoverable");
        assert!(
            run.metrics.jobs.iter().map(|j| j.spill_files).sum::<u64>() > 0,
            "every shaken case must spill"
        );
        tuple_bytes(&run.skyline)
    };
    let report = assert_schedule_independent(6, 0x5B11_5EED, run_case);
    assert_eq!(report.cases.len(), 6);
    assert!(report.output_len > 0);
}

// ---------------------------------------------------------------------------
// Exhausted retries: structured errors, never panics.
// ---------------------------------------------------------------------------

struct SumMap;
struct SumMapTask;
impl MapTask for SumMapTask {
    type In = (u16, u32);
    type K = u16;
    type V = u64;
    fn map(&mut self, input: &(u16, u32), out: &mut Emitter<u16, u64>) {
        out.emit(input.0, input.1 as u64);
    }
}
impl MapFactory for SumMap {
    type Task = SumMapTask;
    fn create(&self, _: &TaskContext) -> SumMapTask {
        SumMapTask
    }
}

struct SumReduce;
struct SumReduceTask;
impl ReduceTask for SumReduceTask {
    type K = u16;
    type V = u64;
    type Out = (u16, u64);
    fn reduce(&mut self, key: u16, values: Vec<u64>, out: &mut OutputCollector<(u16, u64)>) {
        out.collect((key, values.into_iter().sum()));
    }
}
impl ReduceFactory for SumReduce {
    type Task = SumReduceTask;
    fn create(&self, _: &TaskContext) -> SumReduceTask {
        SumReduceTask
    }
}

fn doomed_splits() -> Vec<Vec<(u16, u32)>> {
    vec![vec![(1, 10), (2, 20)], vec![(1, 5)]]
}

#[test]
fn exhausted_lost_output_retries_yield_a_structured_job_error() {
    let config = JobConfig::new("doomed", 1)
        .with_faults(FaultPlan::none().with_map_fault(0, TaskFault::lost(10)));
    let err = run_job(
        &ClusterConfig::test(),
        &config,
        &doomed_splits(),
        &SumMap,
        &SumReduce,
        &HashPartitioner,
    )
    .expect_err("a task that always loses its output must abort the job");
    let budget = RetryPolicy::new().max_attempts;
    assert_eq!(err.job, "doomed");
    assert_eq!(err.task, TaskKind::Map);
    assert_eq!(err.index, 0);
    assert_eq!(err.attempts, budget);
    assert_eq!(
        err.history.len(),
        budget as usize,
        "every failed attempt must be recorded in order"
    );
    for (i, failure) in err.history.iter().enumerate() {
        assert_eq!(failure.attempt, i as u32);
    }
    assert!(err.payload.is_none(), "output loss is not a panic");
    assert_eq!(err.metrics.map_tasks, 2);
}

#[test]
fn exhausted_mid_task_panics_are_caught_not_propagated() {
    // The panic boundary is per attempt: even when every attempt panics,
    // run_job returns Err — it never unwinds into the caller.
    let config = JobConfig::new("doomed-panic", 1)
        .with_faults(FaultPlan::none().with_map_fault(1, TaskFault::panics(10)));
    let err = run_job(
        &ClusterConfig::test(),
        &config,
        &doomed_splits(),
        &SumMap,
        &SumReduce,
        &HashPartitioner,
    )
    .expect_err("a task that always panics must abort the job, not unwind");
    assert_eq!(err.task, TaskKind::Map);
    assert_eq!(err.index, 1);
    assert_eq!(err.attempts, RetryPolicy::new().max_attempts);
    assert!(
        err.payload.is_some(),
        "the last panic payload must be preserved for diagnostics"
    );
    assert!(!err.last_cause().is_empty());
}

#[test]
fn pipeline_abort_surfaces_as_job_failed_error() {
    // Satellite (c): at the pipeline level, the engine's JobError arrives
    // as the crate-level Error::JobFailed with the task coordinates intact,
    // and the pipeline chain aborts instead of running later jobs on
    // garbage input.
    let data = chaos_data();
    let ft = FaultTolerance::with_plan(
        FaultPlan::none()
            .with_map_fault(0, TaskFault::lost(10))
            .for_job("gpsrs"),
    );
    let config = SkylineConfig::test().with_fault_tolerance(ft);
    let err = mr_gpsrs(&data, &config).expect_err("the skyline job cannot finish");
    match err {
        Error::JobFailed {
            job,
            task,
            index,
            attempts,
            ..
        } => {
            assert_eq!(job, "gpsrs");
            assert_eq!(task, "map");
            assert_eq!(index, 0);
            assert_eq!(attempts, RetryPolicy::new().max_attempts);
        }
        other => panic!("expected Error::JobFailed, got {other:?}"),
    }

    let bft = FaultTolerance::with_plan(
        FaultPlan::none()
            .with_reduce_fault(0, TaskFault::panics(10))
            .for_job("mr-bnl-merge"),
    );
    let bconfig = BaselineConfig::test().with_fault_tolerance(bft);
    let err = mr_bnl(&data, &bconfig).expect_err("the merge job cannot finish");
    assert!(
        matches!(err, Error::JobFailed { ref task, .. } if task == "reduce"),
        "expected a reduce-phase JobFailed, got {err:?}"
    );
}

#[test]
fn tight_retry_budget_fails_what_a_default_budget_recovers() {
    // Three losses are recoverable under the default four-attempt budget
    // but fatal under a two-attempt budget — the bound is real, not
    // decorative.
    let data = chaos_data();
    let plan = FaultPlan::none()
        .with_map_fault(0, TaskFault::lost(3))
        .for_job("gpsrs");
    let lenient =
        SkylineConfig::test().with_fault_tolerance(FaultTolerance::with_plan(plan.clone()));
    let strict = SkylineConfig::test().with_fault_tolerance(
        FaultTolerance::with_plan(plan).with_retry(RetryPolicy::new().with_max_attempts(2)),
    );
    let ok = mr_gpsrs(&data, &lenient).expect("three losses fit in four attempts");
    assert!(!ok.skyline.is_empty());
    let err = mr_gpsrs(&data, &strict).expect_err("three losses exceed two attempts");
    assert!(matches!(err, Error::JobFailed { attempts: 2, .. }));
}

// ---------------------------------------------------------------------------
// Seeded property sweep.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_fault_plans_never_change_the_skyline(seed in any::<u64>()) {
        let data = scenario(Distribution::Independent, 3, 250, 703);
        let clean = match mr_gpmrs(&data, &SkylineConfig::test()) {
            Ok(run) => run,
            Err(err) => return Err(format!("fault-free run aborted: {err}")),
        };
        let ft = FaultTolerance::with_plan(FaultPlan::seeded(seed));
        let config = SkylineConfig::test().with_fault_tolerance(ft.clone());
        let chaotic = match mr_gpmrs(&data, &config) {
            Ok(run) => run,
            Err(err) => return Err(format!("seeded faults must stay recoverable: {err}")),
        };
        prop_assert_eq!(tuple_bytes(&chaotic.skyline), tuple_bytes(&clean.skyline));

        let bclean = match mr_bnl(&data, &BaselineConfig::test()) {
            Ok(run) => run,
            Err(err) => return Err(format!("fault-free run aborted: {err}")),
        };
        let bconfig = BaselineConfig::test().with_fault_tolerance(ft);
        let bchaotic = match mr_bnl(&data, &bconfig) {
            Ok(run) => run,
            Err(err) => return Err(format!("seeded faults must stay recoverable: {err}")),
        };
        prop_assert_eq!(tuple_bytes(&bchaotic.skyline), tuple_bytes(&bclean.skyline));

        let budget = RetryPolicy::new().max_attempts as u64;
        assert_retry_bounds(&chaotic.metrics.jobs, budget);
        assert_retry_bounds(&bchaotic.metrics.jobs, budget);
    }

    #[test]
    fn node_losses_reexecute_exactly_the_lost_completed_maps(seed in any::<u64>()) {
        // Seeded node losses fire after the map phase completes, so the
        // exact re-execution bill has a closed form: every map task whose
        // home node is on the job's loss list runs again, no more and no
        // less. The detection timeout also makes lossy runs strictly
        // slower on the simulated clock than the fault-free run.
        let data = scenario(Distribution::Independent, 3, 250, 704);
        let clean = match mr_gpmrs(&data, &SkylineConfig::test()) {
            Ok(run) => run,
            Err(err) => return Err(format!("fault-free run aborted: {err}")),
        };
        let plan = FaultPlan::chaos_nodes(seed);
        let mut config = SkylineConfig::test()
            .with_fault_tolerance(FaultTolerance::with_plan(plan.clone()));
        config.cluster = ClusterConfig::test_placed(seed);
        let nodes = config.cluster.nodes;
        let placement = Placement::new(seed);
        let alive: Vec<usize> = (0..nodes).collect();
        let chaotic = match mr_gpmrs(&data, &config) {
            Ok(run) => run,
            Err(err) => return Err(format!("node chaos must stay recoverable: {err}")),
        };
        prop_assert_eq!(tuple_bytes(&chaotic.skyline), tuple_bytes(&clean.skyline));

        let mut total_losses = 0u64;
        for job in &chaotic.metrics.jobs {
            let losses = plan.node_losses_for(&job.name, nodes);
            let expected = (0..job.map_tasks)
                .filter(|&i| {
                    let home = placement.task_home(&job.name, TaskKind::Map, i, &alive);
                    losses.contains(&home)
                })
                .count() as u64;
            prop_assert_eq!(job.nodes_lost, losses.len() as u64, "job {}", job.name);
            prop_assert_eq!(job.maps_reexecuted, expected, "job {}", job.name);
            total_losses += losses.len() as u64;
        }
        if total_losses > 0 {
            prop_assert!(
                chaotic.metrics.sim_runtime() >= clean.metrics.sim_runtime(),
                "losing nodes must never make the simulated run faster"
            );
        }
    }
}
