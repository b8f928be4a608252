//! Deterministic LPT placement of model task durations onto slots — the
//! workspace's one list scheduler.
//!
//! Longest-processing-time-first list scheduling in integer ticks. It
//! returns the makespan (what a wave of tasks costs on the simulated
//! clock) together with the *placement* — which slot each task landed on
//! and when it started — so the trace draws exactly the schedule the
//! clock charged. Ties break on the lowest task index and lowest slot
//! index, making the layout a pure function of the input durations.

use crate::span::Ticks;

/// Where one task landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Slot (lane) index in `0..slots`.
    pub slot: usize,
    /// Start tick of the task's span (includes the per-task overhead).
    pub start: Ticks,
    /// End tick (`start + overhead + duration`).
    pub end: Ticks,
}

/// Places `ticks[i] + overhead` onto `slots` lanes with LPT list
/// scheduling. Returns per-task placements (indexed like `ticks`) and the
/// makespan.
///
/// # Panics
///
/// Panics if `slots == 0` and there is at least one task to place.
pub fn place(ticks: &[Ticks], slots: usize, overhead: Ticks) -> (Vec<Placement>, Ticks) {
    if ticks.is_empty() {
        return (Vec::new(), 0);
    }
    assert!(slots > 0, "placement requires at least one slot");
    let mut order: Vec<usize> = (0..ticks.len()).collect();
    // Longest first; ties on the lower task index.
    order.sort_by_key(|&i| (std::cmp::Reverse(ticks[i]), i));
    let mut loads = vec![0u64; slots];
    let mut placements = vec![
        Placement {
            slot: 0,
            start: 0,
            end: 0
        };
        ticks.len()
    ];
    for i in order {
        let slot = loads
            .iter()
            .enumerate()
            .min_by_key(|&(s, &load)| (load, s))
            .map_or(0, |(s, _)| s);
        let start = loads[slot];
        let end = start + overhead + ticks[i];
        placements[i] = Placement { slot, start, end };
        loads[slot] = end;
    }
    let makespan = loads.into_iter().max().unwrap_or(0);
    (placements, makespan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_phase_places_nothing() {
        let (p, makespan) = place(&[], 0, 5);
        assert!(p.is_empty());
        assert_eq!(makespan, 0);
    }

    #[test]
    fn single_slot_is_sequential_longest_first() {
        let (p, makespan) = place(&[10, 30, 20], 1, 0);
        assert_eq!(makespan, 60);
        // LPT order: task 1 (30), task 2 (20), task 0 (10).
        assert_eq!((p[1].start, p[1].end), (0, 30));
        assert_eq!((p[2].start, p[2].end), (30, 50));
        assert_eq!((p[0].start, p[0].end), (50, 60));
    }

    #[test]
    fn lpt_balances_two_slots() {
        let (p, makespan) = place(&[10, 20, 30], 2, 0);
        assert_eq!(makespan, 30);
        assert_eq!(p[2].slot, 0);
        assert_eq!(p[1].slot, 1);
        assert_eq!(p[0].slot, 1);
        assert_eq!(p[0].start, 20);
    }

    #[test]
    fn overhead_is_charged_inside_the_span() {
        let (p, makespan) = place(&[10, 10], 1, 5);
        assert_eq!(makespan, 30);
        assert_eq!(p[0].end - p[0].start, 15);
    }

    #[test]
    fn ties_break_on_task_then_slot_index() {
        let (p, _) = place(&[10, 10, 10], 3, 0);
        assert_eq!(p[0].slot, 0);
        assert_eq!(p[1].slot, 1);
        assert_eq!(p[2].slot, 2);
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
