//! The per-task retry executor: runs attempts under a fault plan until one
//! succeeds or the retry budget is exhausted.

use std::time::Duration;

use crate::pool::catch_attempt;
use crate::storage::StorageError;

use super::plan::{FaultKind, TaskFault};
use super::retry::RetryPolicy;

/// Injection directive handed to each task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Inject {
    /// Run normally.
    #[default]
    None,
    /// Panic partway through the input (the attempt must genuinely unwind,
    /// exercising the catch-per-attempt path in the pool).
    MidTaskPanic,
}

/// Why one attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureCause {
    /// The attempt ran to completion but its output was lost (simulated
    /// node failure after the task finished).
    LostOutput,
    /// The attempt panicked (injected mid-task crash or a genuine UDF bug).
    Panic {
        /// Best-effort text of the panic payload.
        message: String,
    },
    /// A storage-plane read or write of the attempt failed: host I/O (a
    /// spill directory it cannot use, a full disk) or spilled bytes that
    /// fail their frame check. The data is not to blame, so the
    /// skip-bad-records protocol never fires on it.
    Storage {
        /// The [`StorageError`], naming the operation that failed.
        message: String,
    },
    /// The attempt made no progress and was killed by the progress-timeout
    /// detector after `timeout` of simulated time.
    Hang {
        /// The progress timeout that was waited out before the kill.
        timeout: Duration,
    },
    /// The attempt was stopped by the scheduler rather than by a fault:
    /// its job's deadline expired, or a preemption storm exhausted the
    /// re-queue budget. The work it had done is charged to
    /// `wasted_task_time`; no output survives.
    Cancelled {
        /// Why the scheduler stopped it (deadline, preemption budget).
        reason: String,
    },
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::LostOutput => f.write_str("output lost after completion"),
            FailureCause::Panic { message } => write!(f, "panicked: {message}"),
            FailureCause::Storage { message } => f.write_str(message),
            FailureCause::Hang { timeout } => {
                write!(f, "made no progress for {timeout:?}; killed")
            }
            FailureCause::Cancelled { reason } => {
                write!(f, "cancelled by the scheduler: {reason}")
            }
        }
    }
}

/// One failed attempt in a task's history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptFailure {
    /// 0-based attempt number.
    pub attempt: u32,
    /// How it failed.
    pub cause: FailureCause,
}

/// The outcome of executing one task under the retry scheduler: what
/// happened, attempt by attempt. What it cost on the simulated clock is
/// priced from this history by [`crate::trace::TaskModel`].
pub struct TaskExecution<T> {
    /// Output of the successful attempt (`None` = budget exhausted).
    pub value: Option<T>,
    /// Attempts actually executed (≥ 1).
    pub attempts: u32,
    /// Every failed attempt, in order.
    pub failures: Vec<AttemptFailure>,
    /// Original payload of the last panic, if any — re-raised or attached
    /// to the `JobError` when the task ultimately fails.
    pub payload: Option<Box<dyn std::any::Any + Send>>,
}

impl<T> std::fmt::Debug for TaskExecution<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskExecution")
            .field("succeeded", &self.succeeded())
            .field("attempts", &self.attempts)
            .field("failures", &self.failures)
            .finish_non_exhaustive()
    }
}

impl<T> TaskExecution<T> {
    /// `true` iff the task ultimately succeeded.
    pub fn succeeded(&self) -> bool {
        self.value.is_some()
    }
}

/// Runs one task under `fault` and `policy` until an attempt succeeds or
/// the budget runs out. Attempts are numbered on from `first`, the number
/// of attempts the task already ran (in earlier skip rounds or waves), so
/// no two attempts of a task share a number; `attempts` and the fault's
/// schedule count this call's attempts only.
///
/// * The first `fault.failures` attempts fail: a [`FaultKind::LostOutput`]
///   attempt runs to completion and its output is discarded; a
///   [`FaultKind::MidTaskPanic`] attempt receives [`Inject::MidTaskPanic`]
///   and is expected to genuinely panic, which is caught per-attempt (the
///   pool and sibling tasks never observe it).
/// * Genuine (uninjected) panics from the UDF are caught the same way and
///   consume budget like injected ones, so a deterministic always-failing
///   task degrades into a structured failure, never a job-wide unwind.
/// * An attempt whose storage plane fails returns the [`StorageError`];
///   it is recorded as [`FailureCause::Storage`] and retried like any
///   other failure, with no panic payload.
/// * A [`FaultKind::Hang`] attempt never runs at all: the progress-timeout
///   detector waits out `hang_timeout` of simulated time and kills it
///   before the retry launches.
pub fn run_attempts<T>(
    first: u32,
    fault: &TaskFault,
    policy: &RetryPolicy,
    hang_timeout: Duration,
    mut run: impl FnMut(u32, Inject) -> Result<T, StorageError>,
) -> TaskExecution<T> {
    let cap = policy.attempt_budget();
    let mut failures = Vec::new();
    let mut payload = None;
    for k in 0..cap {
        let (attempt, scheduled) = (first + k, k < fault.failures);
        if scheduled && fault.kind == FaultKind::Hang {
            // The attempt is wedged: nothing executes, the slot sits idle
            // until the detector declares it dead on the model clock.
            failures.push(AttemptFailure {
                attempt,
                cause: FailureCause::Hang {
                    timeout: hang_timeout,
                },
            });
            continue;
        }
        let inject = if scheduled && fault.kind == FaultKind::MidTaskPanic {
            Inject::MidTaskPanic
        } else {
            Inject::None
        };
        match catch_attempt(|| run(attempt, inject)) {
            Ok(Ok(value)) if !scheduled => {
                return TaskExecution {
                    value: Some(value),
                    attempts: k + 1,
                    failures,
                    payload,
                };
            }
            // Scheduled lost-output failure: the work happened, the
            // result is gone.
            Ok(Ok(_)) => failures.push(AttemptFailure {
                attempt,
                cause: FailureCause::LostOutput,
            }),
            Ok(Err(e)) => failures.push(AttemptFailure {
                attempt,
                cause: FailureCause::Storage {
                    message: e.to_string(),
                },
            }),
            Err(caught) => {
                failures.push(AttemptFailure {
                    attempt,
                    cause: FailureCause::Panic {
                        message: caught.message,
                    },
                });
                payload = Some(caught.payload);
            }
        }
    }
    TaskExecution {
        value: None,
        attempts: cap,
        failures,
        payload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Progress timeout used by the tests — deliberately distinctive so
    /// assertions can recognize it in the charged durations.
    const HANG: Duration = Duration::from_millis(7);

    #[test]
    fn hung_attempts_never_run_and_charge_the_timeout() {
        let calls = AtomicU32::new(0);
        let exec = run_attempts(
            0,
            &TaskFault::hangs(2),
            &RetryPolicy::new(),
            HANG,
            |a, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(a)
            },
        );
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "only the post-hang retry actually executes"
        );
        assert_eq!(exec.value, Some(2));
        assert_eq!(exec.attempts, 3);
        assert_eq!(exec.failures.len(), 2);
        assert!(exec
            .failures
            .iter()
            .all(|f| f.cause == FailureCause::Hang { timeout: HANG }));
        assert!(exec.payload.is_none(), "a hang carries no panic payload");
    }

    #[test]
    fn hangs_beyond_budget_exhaust_the_task_without_running_it() {
        let calls = AtomicU32::new(0);
        let exec = run_attempts(
            0,
            &TaskFault::hangs(10),
            &RetryPolicy::new().with_max_attempts(2),
            HANG,
            |_, _| {
                calls.fetch_add(1, Ordering::Relaxed);
                Ok(1)
            },
        );
        assert!(!exec.succeeded());
        assert_eq!(calls.load(Ordering::Relaxed), 0, "every attempt hung");
        assert_eq!(exec.attempts, 2);
        assert_eq!(exec.failures.len(), 2);
    }

    #[test]
    fn healthy_task_runs_once_with_no_overheads() {
        let exec = run_attempts(0, &TaskFault::none(), &RetryPolicy::new(), HANG, |a, i| {
            assert_eq!((a, i), (0, Inject::None));
            Ok(7)
        });
        assert_eq!(exec.value, Some(7));
        assert_eq!(exec.attempts, 1);
        assert!(exec.failures.is_empty());
    }

    #[test]
    fn lost_output_failures_burn_attempts_then_succeed() {
        let calls = AtomicU32::new(0);
        let exec = run_attempts(0, &TaskFault::lost(2), &RetryPolicy::new(), HANG, |a, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(a)
        });
        assert_eq!(
            calls.load(Ordering::Relaxed),
            3,
            "lost attempts still run fully"
        );
        assert_eq!(exec.value, Some(2));
        assert_eq!(exec.attempts, 3);
        assert_eq!(exec.failures.len(), 2);
        assert!(exec
            .failures
            .iter()
            .all(|f| f.cause == FailureCause::LostOutput));
    }

    #[test]
    fn mid_task_panics_are_caught_and_retried() {
        let exec = run_attempts(
            0,
            &TaskFault::panics(1),
            &RetryPolicy::new(),
            HANG,
            |a, inject| {
                if inject == Inject::MidTaskPanic {
                    panic!("injected crash on attempt {a}");
                }
                Ok("ok")
            },
        );
        assert_eq!(exec.value, Some("ok"));
        assert_eq!(exec.attempts, 2);
        assert_eq!(
            exec.failures[0].cause,
            FailureCause::Panic {
                message: "injected crash on attempt 0".into()
            }
        );
        assert!(exec.payload.is_some(), "original payload retained");
    }

    #[test]
    fn exhausted_budget_reports_structured_failure() {
        let exec = run_attempts(
            0,
            &TaskFault::none(),
            &RetryPolicy::new().with_max_attempts(3),
            HANG,
            |_, _| -> Result<u32, StorageError> { panic!("always broken") },
        );
        assert!(!exec.succeeded());
        assert_eq!(exec.attempts, 3);
        assert_eq!(exec.failures.len(), 3);
        assert!(exec.payload.is_some());
    }

    #[test]
    fn injected_failures_beyond_budget_exhaust_the_task() {
        let exec = run_attempts(
            0,
            &TaskFault::lost(10),
            &RetryPolicy::new().with_max_attempts(2),
            HANG,
            |_, _| Ok(1),
        );
        assert!(!exec.succeeded());
        assert_eq!(exec.attempts, 2);
        assert_eq!(exec.failures.len(), 2);
        assert!(
            exec.payload.is_none(),
            "lost output carries no panic payload"
        );
    }

    #[test]
    fn storage_failures_are_retried_without_a_payload() {
        let exec = run_attempts(0, &TaskFault::none(), &RetryPolicy::new(), HANG, |a, _| {
            if a == 0 {
                let gone = std::io::Error::from(std::io::ErrorKind::NotFound);
                let path = std::path::Path::new("gone.seg");
                return Err(StorageError::io("create segment", path, gone));
            }
            Ok(a)
        });
        assert_eq!(exec.value, Some(1));
        assert_eq!(exec.attempts, 2);
        let cause = &exec.failures[0].cause;
        assert!(matches!(cause, FailureCause::Storage { .. }), "{cause:?}");
        assert!(
            cause
                .to_string()
                .starts_with("storage I/O (create segment gone.seg)"),
            "{cause}"
        );
        assert!(exec.payload.is_none(), "a storage failure is not a panic");
    }
}
