//! Structured job failure: what failed, how often, and what the job had
//! done up to that point.

use skymr_common::Counters;

use crate::cluster::JobMetrics;

use super::exec::{AttemptFailure, FailureCause};
use super::plan::TaskKind;

/// A MapReduce job aborted: one task exhausted its retry budget (or could
/// not be replayed).
///
/// Carries the failed task's identity, its full attempt history, the
/// counters of every task attempt committed before the abort, and partial metrics
/// covering the work the job completed before aborting — enough for a
/// caller to report *and* for the simulated clock to stay honest about the
/// time the failed run consumed.
pub struct JobError {
    /// Name of the job that aborted.
    pub job: String,
    /// Phase of the failed task.
    pub task: TaskKind,
    /// Index of the failed task within its phase.
    pub index: usize,
    /// How many attempts were executed before giving up.
    pub attempts: u32,
    /// Every failed attempt of the failed task, in order.
    pub history: Vec<AttemptFailure>,
    /// Counters of the task attempts committed before the abort (partial).
    pub counters: Counters,
    /// Metrics of the work completed before the abort (boxed to keep the
    /// error small on the `Result` fast path).
    pub metrics: Box<JobMetrics>,
    /// Original payload of the last panic, if the task died panicking.
    pub payload: Option<Box<dyn std::any::Any + Send>>,
}

impl JobError {
    /// Cause of the final failed attempt, as text.
    pub fn last_cause(&self) -> String {
        self.history
            .last()
            .map_or_else(|| "unknown".to_owned(), |f| f.cause.to_string())
    }

    /// `true` iff the task ultimately died panicking (as opposed to losing
    /// its output).
    pub fn died_panicking(&self) -> bool {
        matches!(
            self.history.last().map(|f| &f.cause),
            Some(FailureCause::Panic { .. })
        )
    }

    /// Re-raises the original panic payload if the task died panicking;
    /// panics with the error's own message otherwise. This is the escape
    /// hatch for callers that want pre-fault-tolerance semantics (a UDF
    /// panic unwinding out of the job), preserving the exact payload.
    pub fn resume_panic(self) -> ! {
        match self.payload {
            Some(payload) => std::panic::resume_unwind(payload),
            None => panic!("{self}"),
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job `{}` aborted: {} task {} failed {} attempt(s); last: {}",
            self.job,
            self.task,
            self.index,
            self.attempts,
            self.last_cause()
        )
    }
}

impl std::fmt::Debug for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobError")
            .field("job", &self.job)
            .field("task", &self.task)
            .field("index", &self.index)
            .field("attempts", &self.attempts)
            .field("history", &self.history)
            .field("has_payload", &self.payload.is_some())
            .finish_non_exhaustive()
    }
}

impl std::error::Error for JobError {}

impl From<JobError> for skymr_common::Error {
    fn from(err: JobError) -> Self {
        skymr_common::Error::JobFailed {
            job: err.job.clone(),
            task: err.task.name().to_owned(),
            index: err.index,
            attempts: err.attempts,
            message: err.last_cause(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: Option<Box<dyn std::any::Any + Send>>) -> JobError {
        let metrics = JobMetrics::empty("wc", 2, 1);
        JobError {
            job: "wc".into(),
            task: TaskKind::Map,
            index: 1,
            attempts: 4,
            history: vec![AttemptFailure {
                attempt: 3,
                cause: FailureCause::Panic {
                    message: "bad record".into(),
                },
            }],
            counters: Counters::new(),
            metrics: Box::new(metrics),
            payload,
        }
    }

    #[test]
    fn display_names_task_and_attempts() {
        let s = sample(None).to_string();
        assert!(s.contains("`wc`"), "{s}");
        assert!(s.contains("map task 1"), "{s}");
        assert!(s.contains("4 attempt(s)"), "{s}");
        assert!(s.contains("bad record"), "{s}");
    }

    #[test]
    fn converts_to_workspace_error() {
        let err: skymr_common::Error = sample(None).into();
        match err {
            skymr_common::Error::JobFailed {
                job,
                task,
                index,
                attempts,
                message,
            } => {
                assert_eq!((job.as_str(), task.as_str()), ("wc", "map"));
                assert_eq!((index, attempts), (1, 4));
                assert!(message.contains("bad record"));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn resume_panic_re_raises_the_original_payload() {
        let err = sample(Some(Box::new(99_u8)));
        assert!(err.died_panicking());
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| err.resume_panic()));
        let payload = outcome.expect_err("must unwind");
        assert_eq!(payload.downcast_ref::<u8>(), Some(&99));
    }

    #[test]
    fn debug_omits_the_payload_body() {
        let dbg = format!("{:?}", sample(Some(Box::new(1_u8))));
        assert!(dbg.contains("has_payload: true"), "{dbg}");
    }
}
