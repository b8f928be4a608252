//! Cluster tuning: when do multiple reducers pay off?
//!
//! ```text
//! cargo run -p skymr-examples --release --bin cluster_tuning
//! ```
//!
//! The paper's headline finding is that MR-GPMRS wins when a large
//! fraction of tuples is in the skyline, while MR-GPSRS wins when the
//! fraction is small — and its future-work section asks for an automatic
//! switch. This example sweeps the reducer count on two contrasting
//! workloads (like the paper's Figure 10), prints the runtime curves, and
//! shows what the [`skymr::hybrid`] planner would have picked from the
//! bitstring statistics alone.

use std::sync::Arc;
use std::time::Duration;

use skymr::bitstring::job::generate_bitstring;
use skymr::hybrid::{choose, HybridChoice, DEFAULT_SURVIVAL_THRESHOLD};
use skymr::{mr_gpmrs, mr_gpsrs, SkylineConfig};
use skymr_common::Dataset;
use skymr_datagen::{generate, Distribution};
use skymr_mapreduce::{
    AdmissionConfig, BlacklistPolicy, ClusterConfig, ClusterExecutor, FaultPlan, FaultProfile,
    FaultTolerance, JobCompletion, JobSpec, PipelineMetrics, Placement, PriorityScheduler,
    SpeculationPolicy,
};

fn sweep(name: &str, data: &Dataset) {
    println!("--- {name}: {} tuples, {} dims ---", data.len(), data.dim());
    let mut best: Option<(usize, f64)> = None;
    for reducers in [1usize, 2, 5, 9, 13, 17] {
        let config = SkylineConfig::default().with_reducers(reducers);
        let run = if reducers == 1 {
            mr_gpsrs(data, &config).expect("valid configuration")
        } else {
            mr_gpmrs(data, &config).expect("valid configuration")
        };
        let secs = run.metrics.sim_runtime().as_secs_f64();
        let algo = if reducers == 1 {
            "MR-GPSRS"
        } else {
            "MR-GPMRS"
        };
        println!(
            "  {algo:<9} reducers={reducers:>2}  runtime {secs:>7.2}s  skyline {}",
            run.skyline.len()
        );
        if best.map_or(true, |(_, b)| secs < b) {
            best = Some((reducers, secs));
        }
    }
    let (best_r, best_s) = best.expect("at least one configuration ran");
    println!("  -> best observed: {best_r} reducer(s) at {best_s:.2}s");

    // What would the hybrid planner have chosen, from the bitstring alone?
    let config = SkylineConfig::default();
    let splits = data.split(config.mappers);
    let (bitstring, info, _) =
        generate_bitstring(&splits, data.dim(), data.len(), &config).expect("valid configuration");
    let choice = choose(
        &bitstring,
        info.non_empty,
        &config,
        DEFAULT_SURVIVAL_THRESHOLD,
    );
    let survival = info.surviving as f64 / info.non_empty.max(1) as f64;
    let survival_pct = survival * 100.0;
    match choice {
        HybridChoice::SingleReducer => {
            println!("  -> hybrid planner: single reducer (partition survival {survival_pct:.0}%)");
        }
        HybridChoice::MultiReducer { reducers } => println!(
            "  -> hybrid planner: {reducers} reducers (partition survival {survival_pct:.0}%)"
        ),
    }
    println!();
}

/// How does an unreliable cluster change the picture? Replay the same
/// workload under a seeded fault plan (task failures, mid-task panics,
/// stragglers) with speculative execution on, and show what recovery cost.
fn fault_sweep(name: &str, data: &Dataset) {
    println!("--- {name}, unreliable cluster (seeded faults + speculation) ---");
    let clean = mr_gpmrs(data, &SkylineConfig::default()).expect("fault-free run");
    let config = SkylineConfig::default().with_fault_tolerance(
        FaultTolerance::with_plan(FaultPlan::seeded(0xC0FFEE))
            .with_speculation(SpeculationPolicy::new()),
    );
    let run = mr_gpmrs(data, &config).expect("seeded faults stay within the retry budget");
    assert_eq!(
        run.skyline.len(),
        clean.skyline.len(),
        "re-execution must not change the answer"
    );
    // One row per job: phase breakdown plus the fault-tolerance story
    // (attempts, retries, speculative wins, wasted task time).
    for line in run.metrics.phase_table().lines() {
        println!("  {line}");
    }
    let clean_s = clean.metrics.sim_runtime().as_secs_f64();
    let faulty_s = run.metrics.sim_runtime().as_secs_f64();
    println!("  -> same skyline; runtime {clean_s:.2}s clean vs {faulty_s:.2}s under faults");
    println!();
}

/// Whole machines fail too: place tasks on nodes, kill some of them
/// mid-run, and show the node-level recovery bill — nodes lost, completed
/// map outputs re-executed, and nodes the blacklist took out of scheduling.
fn node_chaos_sweep(name: &str, data: &Dataset) {
    println!("--- {name}, node failures (placement + loss + blacklist) ---");
    let clean = mr_gpmrs(data, &SkylineConfig::default()).expect("fault-free run");
    let seed = 0xC0FFEE;
    // Node-hostile chaos, but with enough task-level faults on top that
    // the one-strike blacklist below has something to bench.
    let profile = FaultProfile {
        task_fault_permille: 400,
        ..FaultProfile::nodes()
    };
    let mut config = SkylineConfig::default().with_fault_tolerance(
        FaultTolerance::with_plan(FaultPlan::chaos(seed, profile))
            .with_blacklist(BlacklistPolicy::new().with_max_failures(1)),
    );
    config.cluster.placement = Some(Placement::new(seed));
    let run = mr_gpmrs(data, &config).expect("node losses stay recoverable");
    assert_eq!(
        run.skyline.len(),
        clean.skyline.len(),
        "node-loss recovery must not change the answer"
    );
    for job in &run.metrics.jobs {
        println!(
            "  {:<13} nodes lost {:>2}  blacklisted {:>2}  maps re-executed {:>2}  recovery {:>8.2?}",
            job.name, job.nodes_lost, job.nodes_blacklisted, job.maps_reexecuted, job.reexecution_time
        );
    }
    let clean_s = clean.metrics.sim_runtime().as_secs_f64();
    let faulty_s = run.metrics.sim_runtime().as_secs_f64();
    println!("  -> same skyline; runtime {clean_s:.2}s clean vs {faulty_s:.2}s with node loss");
    println!();
}

/// Tuning the cluster also means sharing it: run the same MR-GPMRS
/// pipeline for three tenants at once on one small slot pool, then drop a
/// high-priority job on top mid-run and watch the executor preempt the
/// background work to make room. The phase table's `queued`/`preempt`
/// columns carry the bill.
fn tenancy_sweep(name: &str, data: &Dataset) {
    println!("--- {name}, three tenants sharing one cluster (priority + preemption) ---");
    let data = Arc::new(data.clone());
    let mut executor = ClusterExecutor::new(ClusterConfig::test())
        .with_admission(AdmissionConfig::with_queue_depth(8))
        .with_scheduler(PriorityScheduler);

    // The data plane every tenant runs: the full two-job MR-GPMRS
    // pipeline, its task durations priced from the work it counted.
    let plane = |data: Arc<Dataset>| {
        move |cluster: &ClusterConfig| {
            let mut config = SkylineConfig::test();
            config.cluster = cluster.clone();
            let run = mr_gpmrs(&data, &config)?;
            Ok((run.skyline.len(), run.metrics.jobs.clone()))
        }
    };

    let mut handles = Vec::new();
    for (i, tenant) in ["analytics", "batch", "ops"].into_iter().enumerate() {
        let spec = JobSpec::new(format!("gpmrs-{tenant}"), tenant)
            .arriving_at(Duration::from_micros(100 * i as u64));
        let handle = executor
            .submit(spec, plane(Arc::clone(&data)))
            .expect("minimal reservations are statically feasible");
        handles.push((tenant.to_string(), handle));
    }
    // The urgent job arrives while all slots are busy with background
    // work: under the priority policy it preempts running attempts
    // instead of waiting its turn.
    let urgent = JobSpec::new("gpmrs-urgent", "ops")
        .arriving_at(Duration::from_micros(700))
        .with_priority(9);
    let handle = executor
        .submit(urgent, plane(Arc::clone(&data)))
        .expect("minimal reservations are statically feasible");
    handles.push(("ops (urgent)".to_string(), handle));

    let report = executor.run();
    print!("{}", report.render());

    let mut metrics = PipelineMetrics::new();
    for (who, handle) in handles {
        let outcome = executor.take(handle);
        assert!(
            matches!(outcome, JobCompletion::Finished(_)),
            "every tenant's pipeline must finish: {who}"
        );
        if let JobCompletion::Finished(outcome) = outcome {
            metrics.jobs.extend(outcome.jobs);
        }
    }
    for line in metrics.phase_table().lines() {
        println!("  {line}");
    }
    println!();
}

fn main() {
    // Small skyline: independent, low dimensionality. Extra reducers are
    // pure overhead here.
    let easy = generate(Distribution::Independent, 3, 40_000, 3);
    sweep("independent 3-d (small skyline)", &easy);

    // Huge skyline: anti-correlated, higher dimensionality. The single
    // reducer becomes the bottleneck; parallel reducers pay off.
    let hard = generate(Distribution::Anticorrelated, 7, 40_000, 3);
    sweep("anti-correlated 7-d (large skyline)", &hard);

    // Tuning is not only about reducer counts: on a flaky cluster the
    // retry/speculation machinery adds recovery work to the makespan.
    fault_sweep("anti-correlated 7-d", &hard);

    // And sometimes whole nodes go away, taking their finished map
    // outputs with them.
    node_chaos_sweep("anti-correlated 7-d", &hard);

    // Finally, the cluster is rarely yours alone: share it across tenants
    // and see what admission, queueing, and preemption cost each of them.
    tenancy_sweep("independent 3-d", &easy);
}

#[cfg(test)]
mod tests {
    use skymr_mapreduce::{JobMetrics, PipelineMetrics};

    #[test]
    fn phase_table_renders_for_a_map_only_job() {
        // A job with zero reducers (map-only, like a pure sampling pass)
        // must still produce a printable row — no division by the reducer
        // count anywhere in the renderer.
        let mut metrics = PipelineMetrics::new();
        metrics.push(JobMetrics::empty("map-only", 4, 0));
        let table = metrics.phase_table();
        assert!(table.contains("map-only"));
        assert!(table.contains("4m/0r"));
    }
}
