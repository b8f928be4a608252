//! Pluggable scheduling policies over the shared slot pools.
//!
//! The [`ClusterExecutor`](super::ClusterExecutor) owns the mechanics —
//! slot accounting, the event clock, preemption kill/re-queue — and asks
//! a [`Scheduler`] only the two policy questions: *which queued job gets
//! the next free slot* ([`Scheduler::pick`]) and *which running attempt,
//! if any, should be evicted for a queued job that cannot otherwise run*
//! ([`Scheduler::preempt`]).
//!
//! Every policy here is a pure function of the view it is handed, and
//! every comparison bottoms out in the executor's canonical job rank
//! ([`CandidateView::seq`]) — never submission call order, never map
//! iteration order — so a policy decision is reproducible across worker
//! counts and submission interleavings.

/// A job eligible for the slot being offered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateView {
    /// Canonical job rank: jobs sorted by (arrival, tenant, name,
    /// submission index). All tie-breaks bottom out here.
    pub seq: usize,
    /// Arrival time on the simulated clock, in ticks.
    pub arrival: u64,
    /// Scheduling priority; larger is more urgent. Only
    /// [`PriorityScheduler`] consults it.
    pub priority: i32,
    /// Slot-ticks already charged to the owning tenant, including
    /// commitments of currently running attempts.
    pub tenant_used: u64,
}

/// A running attempt, offered to [`Scheduler::preempt`] as a potential
/// victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptView {
    /// Canonical rank of the job the attempt belongs to.
    pub seq: usize,
    /// The job's scheduling priority.
    pub priority: i32,
    /// Task index within its wave.
    pub task_index: usize,
    /// Whether this is a speculative backup of a still-running original.
    /// Backups are always preferred as victims: killing one wastes work
    /// but never loses a task.
    pub speculative: bool,
}

/// A scheduling policy.
///
/// Implementations must be deterministic: the same view must always
/// yield the same decision. Policies carry `&mut self` so stateful
/// disciplines (round-robin cursors, decaying usage) are possible, but
/// any such state must itself derive only from the views seen so far.
pub trait Scheduler: std::fmt::Debug + Send {
    /// Policy name, used in reports and telemetry.
    fn name(&self) -> &'static str;

    /// Picks the candidate to grant the free slot, as an index into
    /// `candidates` (the jobs with a runnable task for the slot's pool,
    /// in canonical rank order), or `None` to leave the slot idle.
    fn pick(&mut self, candidates: &[CandidateView]) -> Option<usize>;

    /// Given a queued job that found no free slot, picks a running
    /// attempt to evict for it, as an index into `running`, or `None`
    /// to let the job wait. `running` holds only attempts on slots of
    /// the kind the claimant needs, in canonical order.
    fn preempt(&mut self, claimant: &CandidateView, running: &[AttemptView]) -> Option<usize> {
        let _ = (claimant, running);
        None
    }
}

/// First-in, first-out: jobs run in arrival order, ties broken by
/// canonical rank. The baseline policy — no fairness, no preemption.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick(&mut self, candidates: &[CandidateView]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.arrival, c.seq))
            .map(|(i, _)| i)
    }
}

/// Fair share across tenants.
///
/// Each free slot goes to the candidate whose tenant has consumed the
/// fewest slot-ticks, ties broken in FIFO order. Usage includes the
/// committed ticks of running attempts, which is what prevents a tenant
/// with many short tasks from starving one with few long tasks.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairShareScheduler;

impl Scheduler for FairShareScheduler {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn pick(&mut self, candidates: &[CandidateView]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.tenant_used, c.arrival, c.seq))
            .map(|(i, _)| i)
    }
}

/// Strict priority with preemption.
///
/// Slots go to the highest-priority candidate (FIFO within a priority
/// band). A queued job that finds every slot busy may evict a running
/// attempt of strictly lower priority. Victim choice is deterministic
/// and minimises lost work: speculative backups first (killing one loses
/// nothing), then the lowest-priority, youngest-ranked, highest-indexed
/// attempt.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityScheduler;

impl Scheduler for PriorityScheduler {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn pick(&mut self, candidates: &[CandidateView]) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (std::cmp::Reverse(c.priority), c.arrival, c.seq))
            .map(|(i, _)| i)
    }

    fn preempt(&mut self, claimant: &CandidateView, running: &[AttemptView]) -> Option<usize> {
        running
            .iter()
            .enumerate()
            .filter(|(_, a)| a.priority < claimant.priority)
            .min_by_key(|(_, a)| {
                // Speculative backups are free kills; among regular
                // attempts, evict the least important job's newest work.
                (
                    !a.speculative,
                    a.priority,
                    std::cmp::Reverse(a.seq),
                    std::cmp::Reverse(a.task_index),
                )
            })
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(seq: usize, arrival: u64, priority: i32, used: u64) -> CandidateView {
        CandidateView {
            seq,
            arrival,
            priority,
            tenant_used: used,
        }
    }

    #[test]
    fn fifo_orders_by_arrival_then_rank() {
        let cs = [cand(2, 10, 0, 0), cand(0, 5, 0, 0), cand(1, 5, 0, 0)];
        assert_eq!(FifoScheduler.pick(&cs), Some(1));
        assert_eq!(FifoScheduler.pick(&[]), None);
    }

    #[test]
    fn fair_share_favors_the_most_underserved_tenant_per_weight() {
        // Every tenant weighs the same: the least-served one wins.
        let cs = [cand(0, 0, 0, 300), cand(1, 0, 0, 150)];
        assert_eq!(FairShareScheduler.pick(&cs), Some(1));
        // Exact ties fall back to FIFO order.
        let tie = [cand(1, 7, 0, 100), cand(0, 3, 0, 100)];
        assert_eq!(FairShareScheduler.pick(&tie), Some(1));
    }

    #[test]
    fn priority_picks_highest_band_then_fifo() {
        let cs = [cand(0, 0, 1, 0), cand(1, 9, 5, 0), cand(2, 4, 5, 0)];
        assert_eq!(PriorityScheduler.pick(&cs), Some(2));
    }

    #[test]
    fn preemption_prefers_speculative_then_lowest_priority_newest_work() {
        let attempt = |seq, priority, task_index, speculative| AttemptView {
            seq,
            priority,
            task_index,
            speculative,
        };
        let claimant = cand(9, 0, 5, 0);
        // A speculative backup beats an even lower-priority regular attempt.
        let running = [
            attempt(0, 1, 0, false),
            attempt(1, 3, 2, true),
            attempt(2, 3, 1, false),
        ];
        assert_eq!(PriorityScheduler.preempt(&claimant, &running), Some(1));
        // No backup: lowest priority first, then newest rank and task.
        let running = [
            attempt(0, 1, 0, false),
            attempt(1, 1, 2, false),
            attempt(2, 3, 1, false),
        ];
        assert_eq!(PriorityScheduler.preempt(&claimant, &running), Some(1));
        // Equal-or-higher priority attempts are never victims.
        let running = [attempt(0, 5, 0, false), attempt(1, 7, 1, false)];
        assert_eq!(PriorityScheduler.preempt(&claimant, &running), None);
        // FIFO and fair-share never preempt at all (default impl).
        assert_eq!(FifoScheduler.preempt(&claimant, &running), None);
        assert_eq!(FairShareScheduler.preempt(&claimant, &running), None);
    }
}
