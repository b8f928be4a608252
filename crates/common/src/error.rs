//! Workspace error type.

use std::fmt;

/// Result alias using [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by validation and configuration across the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// Dimensionality must be at least 1.
    InvalidDimension(usize),
    /// A tuple's dimensionality disagreed with its dataset.
    DimensionMismatch {
        /// The dataset's dimensionality.
        expected: usize,
        /// The offending tuple's dimensionality.
        got: usize,
        /// The offending tuple's id.
        tuple_id: u64,
    },
    /// A tuple value fell outside the `[0,1)` data space (or was NaN).
    ValueOutOfRange {
        /// The offending tuple's id.
        tuple_id: u64,
    },
    /// A configuration parameter was invalid.
    InvalidConfig(String),
    /// A MapReduce job exhausted the retry budget of one of its tasks and
    /// aborted (fault-injection or a genuinely failing UDF). Carries the
    /// pipeline-level summary of the engine's structured `JobError`; the
    /// task kind is `"map"` or `"reduce"`.
    JobFailed {
        /// Name of the job that aborted.
        job: String,
        /// `"map"` or `"reduce"`.
        task: String,
        /// Index of the failed task within its phase.
        index: usize,
        /// How many attempts were made before giving up.
        attempts: u32,
        /// Cause of the final failed attempt.
        message: String,
    },
    /// A pipeline runner hit its configured kill-point (chaos testing's
    /// deterministic stand-in for a driver crash between chained jobs).
    /// The checkpoint taken after `after_jobs` completed jobs survives and
    /// can seed a resumed run.
    PipelineKilled {
        /// How many jobs had completed (and checkpointed) before the kill.
        after_jobs: usize,
    },
    /// A multi-tenant executor refused to queue a job submission: the
    /// admission queue was at capacity, or the job's slot/memory
    /// reservation cannot be satisfied by the cluster it was submitted to.
    /// Rejection is deterministic — the same submission set against the
    /// same cluster produces the same rejections on every run.
    AdmissionRejected {
        /// Name of the rejected job.
        job: String,
        /// Tenant that submitted it.
        tenant: String,
        /// Why admission refused it (queue depth, reservation vs capacity).
        reason: String,
    },
    /// A checkpoint file failed its integrity check — a snapshot frame's
    /// CRC32C no longer matches what was recorded at write time (bit rot at
    /// rest), or the file cannot be read or is not a checkpoint. Unlike a
    /// *stale* checkpoint (job-name mismatch, which silently falls back to
    /// execution), rot is surfaced: resuming from a damaged file aborts so
    /// the operator can discard it deliberately.
    CheckpointCorrupt {
        /// Name of the job whose snapshot failed verification, or
        /// `"<document>"` when the file as a whole failed.
        job: String,
        /// What failed to verify.
        detail: String,
    },
    /// A pipeline runner could not write its checkpoint file; the run
    /// stops rather than leave a checkpoint a later resume cannot use.
    CheckpointWrite {
        /// The checkpoint file.
        path: std::path::PathBuf,
        /// The host I/O error.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidDimension(d) => write!(f, "invalid dimensionality {d}; must be >= 1"),
            Error::DimensionMismatch {
                expected,
                got,
                tuple_id,
            } => {
                write!(
                    f,
                    "tuple {tuple_id} has {got} dimensions, dataset expects {expected}"
                )
            }
            Error::ValueOutOfRange { tuple_id } => {
                write!(f, "tuple {tuple_id} has a value outside [0,1) (or NaN)")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::JobFailed {
                job,
                task,
                index,
                attempts,
                message,
            } => write!(
                f,
                "job `{job}` aborted: {task} task {index} failed {attempts} attempt(s); last: {message}"
            ),
            Error::PipelineKilled { after_jobs } => write!(
                f,
                "pipeline killed after {after_jobs} completed job(s); checkpoint available for resume"
            ),
            Error::AdmissionRejected {
                job,
                tenant,
                reason,
            } => write!(
                f,
                "job `{job}` (tenant `{tenant}`) rejected at admission: {reason}"
            ),
            Error::CheckpointCorrupt { job, detail } => write!(
                f,
                "checkpoint for job `{job}` failed verification: {detail}"
            ),
            Error::CheckpointWrite { path, detail } => {
                write!(f, "cannot write checkpoint {}: {detail}", path.display())
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert!(Error::InvalidDimension(0).to_string().contains(">= 1"));
        let e = Error::DimensionMismatch {
            expected: 3,
            got: 2,
            tuple_id: 7,
        };
        let s = e.to_string();
        assert!(s.contains('7') && s.contains('3') && s.contains('2'));
        assert!(Error::ValueOutOfRange { tuple_id: 1 }
            .to_string()
            .contains("[0,1)"));
        assert!(Error::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
        let rejected = Error::AdmissionRejected {
            job: "gpsrs-42".into(),
            tenant: "analytics".into(),
            reason: "admission queue full (8 of 8)".into(),
        }
        .to_string();
        assert!(
            rejected.contains("gpsrs-42")
                && rejected.contains("analytics")
                && rejected.contains("queue full")
        );
        let killed = Error::PipelineKilled { after_jobs: 1 }.to_string();
        assert!(killed.contains('1') && killed.contains("resume"));
        let rotted = Error::CheckpointCorrupt {
            job: "bitstring".into(),
            detail: "payload CRC32C mismatch".into(),
        }
        .to_string();
        assert!(rotted.contains("bitstring") && rotted.contains("CRC32C"));
    }
}
