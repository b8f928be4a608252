//! Job scheduling: one simulated cluster, one event loop, one or many
//! jobs.
//!
//! [`run_job`](crate::run_job) owns its whole cluster for exactly one job,
//! and lays that job out with this module's loop run for it alone. The
//! same loop gives the production shape: a [`ClusterExecutor`] accepts
//! job submissions from many tenants, pushes them through admission
//! control ([`AdmissionConfig`]: bounded queue, slot/memory reservations
//! checked against capacity, deterministic rejection via
//! [`skymr_common::Error::AdmissionRejected`]), and interleaves the
//! admitted jobs' tasks over the cluster's shared map/reduce slot pools
//! under a pluggable [`Scheduler`] policy — FIFO, least-served
//! fair-share across tenants, or priority with preemption.
//!
//! # Two planes, one clock
//!
//! Each submission carries a *data plane*: a closure that computes the
//! job's actual bytes (typically via [`run_job`](crate::run_job) or a
//! whole skyline pipeline) and reports, in each
//! [`JobMetrics`](crate::JobMetrics), the job's priced steps: waits, and
//! capped waves of tasks. The executor runs that closure
//! lazily — at the simulated instant the scheduler first grants the job a
//! slot, never while it is only queued — so a queued job pins no input
//! and a job cancelled before its start never executes at all (with
//! [`FnSplits`](crate::splits::FnSplits) sources even running jobs
//! materialize one split at a time).
//!
//! The *control plane* is a single-threaded discrete-event loop over
//! those steps — the workspace's one list scheduler: tasks from all
//! admitted jobs compete for the shared slot pools, each wave's longest
//! task first onto the lowest-indexed free slot, queue waits accrue on
//! the simulated clock, deadlines cancel, and preemptions kill and
//! re-queue attempts through the same
//! [`RetryPolicy`](crate::RetryPolicy) backoff a recoverable fault would
//! use. Because the simulation consumes only
//! model facts — never host time, thread interleavings, or submission
//! call order (jobs are ranked by arrival tick, tenant, and name) — every
//! output byte and every `sched.*` counter is a pure function of the
//! submission set, pinned by `schedule_shake` in the test suite.
//!
//! # Isolation
//!
//! Fault plans, blacklists, and telemetry stay per-job: each data plane
//! runs with its own [`JobConfig`](crate::JobConfig), so one tenant's
//! chaos seed or poisoned records cannot perturb a co-tenant's bytes.
//! The executor's own telemetry (schema-pinned `queued` spans, `preempt`
//! instants, `sched.*` counters) describes only the scheduling layer.

mod admission;
mod executor;
mod scheduler;

pub use admission::{AdmissionConfig, Reservation};
pub use executor::{
    run_alone, ClusterExecutor, JobCompletion, JobHandle, JobSchedStats, JobSpec, SchedOutcome,
    SchedReport, Slot, Step, TenantStats, Wave,
};
pub use scheduler::{
    AttemptView, CandidateView, FairShareScheduler, FifoScheduler, PriorityScheduler, Scheduler,
};
