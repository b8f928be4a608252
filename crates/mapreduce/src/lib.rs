//! An in-process MapReduce engine with a simulated cluster clock.
//!
//! This crate is the reproduction's stand-in for the Hadoop 1.1.0 cluster
//! used in the paper's evaluation (13 commodity machines on a 100 Mbit/s
//! LAN). It executes map and reduce tasks on bounded thread pools and prices
//! the job on a *simulated clock* that never reads the host's:
//!
//! * **compute** — each task is priced from what it counted: records in
//!   and out, bytes serialised, and the work its UDF charged
//!   ([`Emitter::charge`] — dominance comparisons, the paper's §6 cost
//!   unit), by the cost table in [`telemetry::model`]. A phase's duration
//!   is the makespan of placing those task prices onto the configured
//!   number of task slots (LPT list scheduling), which mirrors how Hadoop
//!   schedules a wave of tasks onto a fixed slot pool;
//! * **communication** — shuffle traffic, distributed-cache broadcast, and
//!   job startup are charged analytically from byte counts
//!   ([`skymr_common::ByteSized`]) and the configured link bandwidth.
//!
//! One function lays the whole job out ([`trace::JobRecord::timeline`]);
//! the metrics and the trace are both read off it, so every simulated
//! number is byte-identical across runs, hosts and host thread counts.
//!
//! The resulting [`JobMetrics::sim_runtime`] plays the role of the paper's
//! measured "runtime" (Section 7.1: elapsed time from computation start to
//! the global skyline being fully output). Because both the single-reducer
//! bottleneck of MR-GPSRS and the replication overhead of MR-GPMRS flow
//! through the same accounting, the trade-offs the paper measures emerge
//! from mechanics rather than hardcoded constants.
//!
//! # Programming model
//!
//! The API mirrors Hadoop's: a [`MapTask`] is created per input split by a
//! [`MapFactory`] (setup), receives every record of its split
//! ([`MapTask::map`]), and may emit trailing output when the split is
//! exhausted ([`MapTask::finish`] — Hadoop's `cleanup`, which the paper's
//! algorithms use to emit local skylines). Emitted pairs are routed to
//! reducers by a [`Partitioner`], grouped and key-sorted, and handed to
//! [`ReduceTask::reduce`] once per distinct key. Jobs can be chained; a
//! [`pipeline::PipelineMetrics`] accumulates per-job metrics. A factory is
//! usually a closure `|ctx: &TaskContext| task`, and a stateless UDF is a
//! [`map_fn`] / [`reduce_fn`] closure (see [`task`]).
//!
//! A read-only job-wide value (the paper's Hadoop *Distributed Cache*, used
//! to ship the global bitstring to every node) is modelled by capturing it
//! in the factories and declaring its byte size in
//! [`JobConfig::cache_bytes`] so the broadcast is charged to the clock.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod analysis;
pub mod cluster;
pub mod fault;
pub mod job;
pub mod partitioner;
pub mod pipeline;
pub mod pool;
pub mod sched;
pub mod splits;
pub mod storage;
mod summary;
pub mod task;
pub mod trace;

pub use analysis::{assert_schedule_independent, schedule_shake, ShakeCase, ShakeReport};
pub use cluster::{ClusterConfig, JobMetrics, Placement};
pub use fault::{
    BlacklistPolicy, CorruptFetch, FaultKind, FaultPlan, FaultProfile, FaultTolerance, JobError,
    NodePartition, RetryPolicy, TaskFault, TaskKind,
};
pub use job::{run_job, run_job_from, JobConfig, JobOutcome};
pub use partitioner::{HashPartitioner, ModuloPartitioner, Partitioner, SingleReducerPartitioner};
pub use pipeline::{Checkpoint, JobSnapshot, PipelineMetrics, Runner};
pub use sched::{
    AdmissionConfig, ClusterExecutor, FairShareScheduler, FifoScheduler, JobCompletion, JobHandle,
    JobSpec, PriorityScheduler, Reservation, SchedOutcome, SchedReport, Scheduler, TenantStats,
};
pub use splits::{FnSplits, RoundRobin, SplitData, SplitSource};
pub use storage::{parse_byte_size, StorageConfig};
pub use task::{
    map_fn, reduce_fn, Emitter, JobKey, JobValue, MapFactory, MapFn, MapTask, OutputCollector,
    ReduceFactory, ReduceFn, ReduceTask, TaskContext,
};

pub use skymr_common::{ByteSized, Counters};

/// The telemetry subsystem (re-exported so downstream crates need no
/// direct dependency): span tracing, metrics registry, exporters.
pub use skymr_telemetry as telemetry;
pub use skymr_telemetry::{Collector, MetricsRegistry, TraceDocument};

/// How the executor loop places one wave run alone: longest task first,
/// ties on the lower index, onto the lowest-indexed free slot, each task
/// charged the launch overhead inside its span.
#[cfg(test)]
mod place {
    #[cfg(test)]
    mod tests {
        use crate::fault::TaskKind;
        use crate::sched::{run_alone, Step, Wave};
        use crate::ClusterConfig;

        /// Runs `ticks` (each plus `overhead`) as one wave on `slots` map
        /// slots and returns its log and span.
        fn place(ticks: &[u64], slots: usize, overhead: u64) -> (Wave, u64) {
            let cluster = ClusterConfig {
                map_slots: slots,
                ..ClusterConfig::test()
            };
            let tasks = ticks.iter().map(|t| t + overhead).collect();
            let step = Step::Wave {
                kind: TaskKind::Map,
                cap: slots,
                tasks,
            };
            let wave = run_alone(&cluster, vec![step]).swap_remove(0);
            let span = wave.span();
            (wave, span)
        }

        #[test]
        fn empty_phase_places_nothing() {
            // A job cannot start without a map slot, so the empty wave runs
            // on one.
            let (w, makespan) = place(&[], 1, 5);
            assert!(w.slots.is_empty());
            assert_eq!(makespan, 0);
        }

        #[test]
        fn single_slot_is_sequential_longest_first() {
            let (w, makespan) = place(&[10, 30, 20], 1, 0);
            assert_eq!(makespan, 60);
            // LPT order: task 1 (30), task 2 (20), task 0 (10).
            assert_eq!((w.slots[1].start, w.slots[1].end), (0, 30));
            assert_eq!((w.slots[2].start, w.slots[2].end), (30, 50));
            assert_eq!((w.slots[0].start, w.slots[0].end), (50, 60));
        }

        #[test]
        fn lpt_balances_two_slots() {
            let (w, makespan) = place(&[10, 20, 30], 2, 0);
            assert_eq!(makespan, 30);
            assert_eq!(w.slots[2].slot, 0);
            assert_eq!(w.slots[1].slot, 1);
            assert_eq!(w.slots[0].slot, 1);
            assert_eq!(w.slots[0].start, 20);
        }

        #[test]
        fn overhead_is_charged_inside_the_span() {
            let (w, makespan) = place(&[10, 10], 1, 5);
            assert_eq!(makespan, 30);
            assert_eq!(w.slots[0].end - w.slots[0].start, 15);
        }

        #[test]
        fn ties_break_on_task_then_slot_index() {
            let (w, _) = place(&[10, 10, 10], 3, 0);
            assert_eq!(w.slots[0].slot, 0);
            assert_eq!(w.slots[1].slot, 1);
            assert_eq!(w.slots[2].slot, 2);
        }

        #[test]
        fn matches_engine_makespan_semantics() {
            let (_, m) = place(&[10_000, 20_000, 30_000], 2, 0);
            assert_eq!(m, 30_000);
            let (_, m) = place(&[10_000; 4], 2, 0);
            assert_eq!(m, 20_000);
            let (_, m) = place(&[10_000, 10_000], 2, 5_000);
            assert_eq!(m, 15_000);
        }
    }
}
