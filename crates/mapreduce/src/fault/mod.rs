//! Deterministic fault tolerance: fault injection, bounded retries with
//! exponential backoff, and speculative execution.
//!
//! The paper sells MapReduce for skyline computation on "scalability and
//! fault-tolerance" (Section 1); this module is the engine's recovery
//! story. It has three deliberately separated layers:
//!
//! * **What goes wrong** — a [`FaultPlan`] describes injected faults:
//!   repeated per-attempt task failures ([`TaskFault`], either
//!   [`FaultKind::LostOutput`] or a genuine caught-per-attempt
//!   [`FaultKind::MidTaskPanic`]), straggler slowdowns, lost shuffle
//!   partitions, and failed cache broadcasts. Plans are scripted per task
//!   or derived from a single `u64` seed ([`FaultPlan::seeded`]), so any
//!   chaotic schedule is replayable.
//! * **How the engine recovers** — a [`RetryPolicy`] bounds attempts per
//!   task and charges Hadoop's exponential backoff to the simulated clock;
//!   the per-task loop lives in [`run_attempts`]. Every spill write and spill
//!   read happens inside a task attempt, and a failing one (host I/O, or
//!   spilled bytes that fail their frame check) is an ordinary attempt
//!   failure, [`FailureCause::Storage`]: retried, priced like a mid-task
//!   crash, and never blamed on a record. A task that exhausts its
//!   budget surfaces as a structured [`JobError`] from
//!   [`crate::job::run_job`], never as a panic escaping the engine.
//!   [`FaultTolerance::speculation`] adds Hadoop-style backup attempts for
//!   stragglers, with a deterministic winner rule.
//! * **What it costs** — every failed attempt, backoff interval, straggler
//!   slowdown, re-execution, and speculative loser is folded into
//!   [`crate::cluster::JobMetrics`] (`attempts`, `wasted_task_time`,
//!   `speculative_wins`, `backoff_time`, and the phase durations), so
//!   recovery work is visible in `sim_runtime` exactly like the paper's
//!   overhead accounting demands.
//!
//! Because UDFs are pure functions of their input, recovery never changes
//! a job's *output* — the chaos suite (`tests/chaos.rs`) re-executes every
//! algorithm under seeded faults and speculation and asserts byte-identical
//! results and user counters against the fault-free run.

mod error;
mod exec;
pub(crate) mod plan;
mod retry;

pub use error::JobError;
pub use exec::{run_attempts, AttemptFailure, FailureCause, Inject, TaskExecution};
pub use plan::{
    CorruptFetch, FaultKind, FaultPlan, FaultProfile, NodePartition, SeededFaults, TaskFault,
    TaskKind,
};
pub use retry::{BlacklistPolicy, FaultTolerance, RetryPolicy};
