//! Admission control: decide *whether* a job may enter the cluster at
//! all, before any scheduling policy decides *when* it runs.
//!
//! The controller enforces two independent limits, both deterministic
//! functions of the submission set:
//!
//! * **static feasibility** — a job whose [`Reservation`] demands more
//!   map/reduce slots than the [`ClusterConfig`] owns, or more memory
//!   than the configured capacity, can never run and is rejected
//!   synchronously at submit time;
//! * **load shedding** — a bounded admission queue and a cluster-wide
//!   memory ledger. When the queue is full or reserved memory would
//!   exceed capacity, the job is rejected with a structured
//!   [`Error::AdmissionRejected`] naming the job, tenant, and the exact
//!   limit that fired, so callers can back off or re-submit instead of
//!   parsing strings.
//!
//! Rejection is graceful degradation, not failure: an overloaded cluster
//! keeps completing admitted work at full speed and sheds the excess
//! predictably rather than thrashing.

use skymr_common::Error;

use crate::cluster::ClusterConfig;

/// Resources a job asks the cluster to set aside for it.
///
/// Slots are a *feasibility* requirement (the job's waves need at least
/// this many concurrent slots to make progress), checked against cluster
/// capacity at submit time. Memory is a *reservation*: held from
/// admission until the job leaves the cluster, counted against
/// [`AdmissionConfig::memory_capacity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Minimum concurrent map slots the job requires.
    pub map_slots: usize,
    /// Minimum concurrent reduce slots the job requires.
    pub reduce_slots: usize,
    /// Memory held for the job while queued or running, in bytes.
    pub memory_bytes: u64,
}

impl Default for Reservation {
    fn default() -> Self {
        Self {
            map_slots: 1,
            reduce_slots: 0,
            memory_bytes: 0,
        }
    }
}

impl Reservation {
    /// A reservation demanding nothing beyond one map slot.
    pub fn minimal() -> Self {
        Self::default()
    }

    /// Sets the memory reservation.
    pub fn with_memory(mut self, bytes: u64) -> Self {
        self.memory_bytes = bytes;
        self
    }

    /// Sets the slot requirements.
    pub fn with_slots(mut self, map: usize, reduce: usize) -> Self {
        self.map_slots = map;
        self.reduce_slots = reduce;
        self
    }
}

/// Limits a [`ClusterExecutor`](super::ClusterExecutor) admits jobs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum jobs waiting for their first slot. Submissions beyond
    /// this are rejected, not blocked.
    pub max_queued: usize,
    /// Cluster-wide memory available for [`Reservation::memory_bytes`].
    /// `None` leaves memory unmetered.
    pub memory_capacity: Option<u64>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            max_queued: 16,
            memory_capacity: None,
        }
    }
}

impl AdmissionConfig {
    /// A config bounding only the queue depth.
    pub fn with_queue_depth(max_queued: usize) -> Self {
        Self {
            max_queued,
            ..Self::default()
        }
    }

    /// Sets the cluster-wide memory capacity.
    pub fn with_memory_capacity(mut self, bytes: u64) -> Self {
        self.memory_capacity = Some(bytes);
        self
    }
}

/// The admission state machine: a queue-depth counter plus a memory
/// ledger.
///
/// The lifecycle per job is `admit` (queued, memory reserved) →
/// [`start`](Self::start) (left the queue; memory stays reserved) →
/// [`release`](Self::release) (finished, cancelled, or failed; memory
/// returned). A job rejected by [`admit`](Self::admit) holds nothing and
/// needs no release.
#[derive(Debug, Clone)]
pub(crate) struct AdmissionController {
    config: AdmissionConfig,
    queued: usize,
    reserved_memory: u64,
}

impl Default for AdmissionController {
    fn default() -> Self {
        Self::new(AdmissionConfig::default())
    }
}

impl AdmissionController {
    /// Creates a controller with the given limits.
    pub(crate) fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            queued: 0,
            reserved_memory: 0,
        }
    }

    /// Checks the limits that do not depend on current load: a
    /// reservation no cluster of this shape could ever satisfy is
    /// rejected here, synchronously at submit time.
    pub(crate) fn check_static(
        &self,
        job: &str,
        tenant: &str,
        reservation: &Reservation,
        cluster: &ClusterConfig,
    ) -> Result<(), Error> {
        let reject = |reason: String| Error::AdmissionRejected {
            job: job.to_owned(),
            tenant: tenant.to_owned(),
            reason,
        };
        if reservation.map_slots > cluster.map_slots {
            return Err(reject(format!(
                "reserves {} map slots but the cluster has {}",
                reservation.map_slots, cluster.map_slots
            )));
        }
        if reservation.reduce_slots > cluster.reduce_slots {
            return Err(reject(format!(
                "reserves {} reduce slots but the cluster has {}",
                reservation.reduce_slots, cluster.reduce_slots
            )));
        }
        if let Some(capacity) = self.config.memory_capacity {
            if reservation.memory_bytes > capacity {
                return Err(reject(format!(
                    "reserves {} bytes of memory but the cluster has {capacity}",
                    reservation.memory_bytes
                )));
            }
        }
        Ok(())
    }

    /// Attempts to admit a job against the current load: bounded queue
    /// depth and the memory ledger. On success the job occupies a queue
    /// slot and its memory is reserved.
    pub(crate) fn admit(
        &mut self,
        job: &str,
        tenant: &str,
        reservation: &Reservation,
    ) -> Result<(), Error> {
        let reject = |reason: String| Error::AdmissionRejected {
            job: job.to_owned(),
            tenant: tenant.to_owned(),
            reason,
        };
        if self.queued >= self.config.max_queued {
            return Err(reject(format!(
                "admission queue full ({} of {})",
                self.queued, self.config.max_queued
            )));
        }
        if let Some(capacity) = self.config.memory_capacity {
            let after = self
                .reserved_memory
                .saturating_add(reservation.memory_bytes);
            if after > capacity {
                return Err(reject(format!(
                    "memory reservation of {} bytes exceeds remaining capacity ({} of {capacity} reserved)",
                    reservation.memory_bytes, self.reserved_memory
                )));
            }
        }
        self.queued += 1;
        self.reserved_memory = self
            .reserved_memory
            .saturating_add(reservation.memory_bytes);
        Ok(())
    }

    /// Marks an admitted job as running: it leaves the queue but keeps
    /// its memory reservation.
    pub(crate) fn start(&mut self) {
        debug_assert!(self.queued > 0, "start() without a queued job");
        self.queued = self.queued.saturating_sub(1);
    }

    /// Returns a job's resources once it leaves the cluster. `started`
    /// says whether [`start`](Self::start) was already called for it (a
    /// job cancelled while still queued must also free its queue slot).
    pub(crate) fn release(&mut self, reservation: &Reservation, started: bool) {
        if !started {
            self.queued = self.queued.saturating_sub(1);
        }
        self.reserved_memory = self
            .reserved_memory
            .saturating_sub(reservation.memory_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infeasible_reservations_are_rejected_statically() {
        let cluster = ClusterConfig {
            map_slots: 4,
            reduce_slots: 2,
            ..ClusterConfig::default()
        };
        let ctl = AdmissionController::default();
        let too_many_maps = Reservation::default().with_slots(5, 0);
        let err = ctl
            .check_static("j", "t", &too_many_maps, &cluster)
            .unwrap_err();
        assert!(
            matches!(err, Error::AdmissionRejected { ref reason, .. } if reason.contains("map slots"))
        );
        let too_many_reduces = Reservation::default().with_slots(1, 3);
        assert!(ctl
            .check_static("j", "t", &too_many_reduces, &cluster)
            .is_err());
        assert!(ctl
            .check_static("j", "t", &Reservation::default().with_slots(4, 2), &cluster)
            .is_ok());
    }

    #[test]
    fn queue_depth_bounds_admission_and_releases_free_slots() {
        let mut ctl = AdmissionController::new(AdmissionConfig::with_queue_depth(2));
        let res = Reservation::default();
        ctl.admit("a", "t", &res).unwrap();
        ctl.admit("b", "t", &res).unwrap();
        let err = ctl.admit("c", "t", &res).unwrap_err();
        assert!(matches!(err, Error::AdmissionRejected { ref reason, .. }
            if reason == "admission queue full (2 of 2)"));
        // A job starting frees a queue slot even before it finishes.
        ctl.start();
        ctl.admit("c", "t", &res).unwrap();
        // One queued job cancelled, one running job finished: all state returns.
        ctl.release(&res, false);
        ctl.release(&res, false);
        ctl.release(&res, true);
        assert_eq!((ctl.queued, ctl.reserved_memory), (0, 0));
    }

    #[test]
    fn memory_ledger_rejects_past_capacity_and_refunds_on_release() {
        let cfg = AdmissionConfig::with_queue_depth(8).with_memory_capacity(100);
        let mut ctl = AdmissionController::new(cfg);
        let big = Reservation::default().with_memory(60);
        ctl.admit("a", "t", &big).unwrap();
        let err = ctl.admit("b", "t", &big).unwrap_err();
        assert!(matches!(err, Error::AdmissionRejected { ref reason, .. }
            if reason.contains("exceeds remaining capacity")));
        ctl.release(&big, false);
        ctl.admit("b", "t", &big).unwrap();
        assert_eq!(ctl.reserved_memory, 60);
        // Statically impossible regardless of load.
        let never = Reservation::default().with_memory(101);
        let cluster = ClusterConfig::default();
        assert!(ctl.check_static("c", "t", &never, &cluster).is_err());
    }
}
