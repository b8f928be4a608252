//! Retry, blacklisting and the fault-tolerance bundle a job runs under.

use std::time::Duration;

use super::plan::FaultPlan;

/// Backoff charged after a task's first failed attempt (Hadoop's 100 ms).
const BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Upper bound on a single backoff interval.
const BACKOFF_CAP: Duration = Duration::from_secs(10);

/// Bounded retries with Hadoop's exponential backoff.
///
/// A task is attempted up to `max_attempts` times; each failed attempt that
/// is followed by another one charges [`RetryPolicy::backoff_after`] of idle
/// time to the simulated clock (the slot waits before relaunching, as a
/// real scheduler would to avoid hammering a flaky node).
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts allowed per task (including the first). Clamped to
    /// at least 1 at resolution time.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// Hadoop's default of 4 attempts.
    pub fn new() -> Self {
        Self { max_attempts: 4 }
    }

    /// Sets the attempt budget (clamped to at least 1).
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Effective attempt budget (never 0).
    pub fn attempt_budget(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Backoff charged after failed attempt number `attempt` (0-based),
    /// before attempt `attempt + 1` launches: 100 ms, doubling, capped at
    /// 10 s.
    pub fn backoff_after(attempt: u32) -> Duration {
        let factor = 2.0_f64.powi(attempt.min(62) as i32);
        BACKOFF_BASE.mul_f64(factor).min(BACKOFF_CAP)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Node blacklisting (Hadoop's per-node failure tracker).
///
/// Failed attempts are attributed to their home node via the cluster's
/// [`Placement`](crate::Placement); a node that accumulates `max_failures`
/// of them is removed from scheduling — its slots leave the pool, shrinking
/// effective parallelism for the rest of the job. No effect without a
/// placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlacklistPolicy {
    /// Failed attempts on one node before it is blacklisted.
    pub max_failures: u32,
}

impl BlacklistPolicy {
    /// Hadoop-flavoured default: three strikes.
    pub fn new() -> Self {
        Self { max_failures: 3 }
    }

    /// Sets the strike budget (clamped to at least 1).
    pub fn with_max_failures(mut self, max_failures: u32) -> Self {
        self.max_failures = max_failures.max(1);
        self
    }
}

impl Default for BlacklistPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// The full fault-tolerance configuration of a job or pipeline: what to
/// inject ([`FaultPlan`]), how to recover ([`RetryPolicy`]), whether to
/// launch backup attempts for stragglers, and whether to blacklist nodes.
#[derive(Debug, Clone, Default)]
pub struct FaultTolerance {
    /// Injected faults (empty by default).
    pub plan: FaultPlan,
    /// Retry budget.
    pub retry: RetryPolicy,
    /// Speculative execution of straggling tasks (off by default): after a
    /// phase's regular attempts, a task running past 3× the phase median
    /// is re-run as a full-speed backup (`JobRecord::plan_backups`).
    pub speculation: bool,
    /// Node blacklisting (off by default; needs a cluster placement).
    pub blacklist: Option<BlacklistPolicy>,
}

impl FaultTolerance {
    /// No injected faults, default retries, no speculation.
    pub fn none() -> Self {
        Self::default()
    }

    /// Injects `plan` under the default retry budget.
    pub fn with_plan(plan: FaultPlan) -> Self {
        Self {
            plan,
            ..Self::default()
        }
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables speculative execution.
    pub fn with_speculation(mut self) -> Self {
        self.speculation = true;
        self
    }

    /// Enables node blacklisting.
    pub fn with_blacklist(mut self, blacklist: BlacklistPolicy) -> Self {
        self.blacklist = Some(blacklist);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(RetryPolicy::backoff_after(0), Duration::from_millis(100));
        assert_eq!(RetryPolicy::backoff_after(1), Duration::from_millis(200));
        assert_eq!(RetryPolicy::backoff_after(2), Duration::from_millis(400));
        assert_eq!(
            RetryPolicy::backoff_after(30),
            Duration::from_secs(10),
            "capped"
        );
    }

    #[test]
    fn attempt_budget_never_zero() {
        assert_eq!(RetryPolicy::new().with_max_attempts(0).attempt_budget(), 1);
        assert_eq!(RetryPolicy { max_attempts: 0 }.attempt_budget(), 1);
        assert_eq!(RetryPolicy::new().attempt_budget(), 4);
    }

    #[test]
    fn fault_tolerance_default_is_benign() {
        let ft = FaultTolerance::none();
        assert!(ft.plan.is_empty());
        assert_eq!(ft.retry.max_attempts, 4);
        assert!(!ft.speculation);
        assert!(ft.blacklist.is_none());
    }

    #[test]
    fn blacklist_strike_budget_clamps() {
        assert_eq!(BlacklistPolicy::new().max_failures, 3);
        assert_eq!(BlacklistPolicy::new().with_max_failures(0).max_failures, 1);
        let ft = FaultTolerance::none().with_blacklist(BlacklistPolicy::new());
        assert!(ft.blacklist.is_some());
    }
}
