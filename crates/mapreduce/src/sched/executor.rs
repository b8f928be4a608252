//! The multi-tenant cluster executor: a deterministic discrete-event
//! simulation that interleaves many jobs' tasks over shared slot pools.
//!
//! See the [module docs](super) for the two-plane architecture. The short
//! version: each submitted job carries a *data plane* closure (typically a
//! [`run_job`](crate::run_job) call) that is executed lazily, at the
//! simulated instant the scheduler first grants the job a slot. The
//! closure returns the job's output bytes plus the [`JobMetrics`] of the
//! MapReduce jobs it ran; the executor then replays those metrics' modeled
//! per-task durations as *control-plane* events competing for the shared
//! map/reduce slots. Queue waits, deadlines, and preemptions all happen on
//! the simulated clock, so every byte and every `sched.*` counter is a
//! pure function of the submission set.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::time::Duration;

use skymr_common::{Counters, Error};
use skymr_telemetry::{Collector, JobTrace, MetricsRegistry, Span};

use crate::cluster::{ClusterConfig, JobMetrics};
use crate::fault::{AttemptFailure, FailureCause, JobError, RetryPolicy, TaskKind};
use crate::trace::{from_ticks, ticks_of};

use super::admission::{AdmissionConfig, AdmissionController, Reservation};
use super::scheduler::{AttemptView, CandidateView, FifoScheduler, SchedView, Scheduler};

/// Type-erased data plane: computes the job's output and reports the
/// modeled metrics of the MapReduce jobs it ran.
type Plane =
    Box<dyn FnOnce(&ClusterConfig) -> Result<(Box<dyn Any + Send>, Vec<JobMetrics>), Error> + Send>;

/// Everything the scheduler needs to know about a job besides its data
/// plane: identity, tenancy, timing, and resource demands.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Job name. Should be unique per executor run: the canonical job
    /// order (which all scheduling tie-breaks bottom out in) is
    /// (arrival, tenant, name), falling back to submission order only
    /// for exact duplicates.
    pub name: String,
    /// Owning tenant, the unit of fair-share accounting.
    pub tenant: String,
    /// Scheduling priority; larger is more urgent. Consulted only by
    /// [`PriorityScheduler`](super::PriorityScheduler).
    pub priority: i32,
    /// Fair-share weight of this job's demand (≥ 1; 0 is clamped).
    pub weight: u64,
    /// When the job arrives, on the simulated clock.
    pub arrival: Duration,
    /// Resources the job asks the admission controller to set aside.
    pub reservation: Reservation,
    /// Absolute simulated-clock deadline. A job not finished by this
    /// instant is cancelled — cleanly, with partial metrics — whether it
    /// is still queued or already running.
    pub deadline: Option<Duration>,
    /// Retry policy governing the backoff a preempted task attempt pays
    /// before re-queueing, and how many attempts it gets in total.
    pub retry: RetryPolicy,
    /// Launch speculative backup attempts on otherwise-idle slots. A
    /// backup duplicates a running attempt; it is the preferred
    /// preemption victim (killing it loses no task) and keeps the task
    /// alive if the original is preempted.
    pub speculate: bool,
}

impl JobSpec {
    /// A spec with neutral scheduling parameters: priority 0, weight 1,
    /// arrival at time zero, a minimal reservation, no deadline.
    pub fn new(name: impl Into<String>, tenant: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tenant: tenant.into(),
            priority: 0,
            weight: 1,
            arrival: Duration::ZERO,
            reservation: Reservation::default(),
            deadline: None,
            retry: RetryPolicy::new(),
            speculate: false,
        }
    }

    /// Sets the simulated arrival time.
    pub fn arriving_at(mut self, arrival: Duration) -> Self {
        self.arrival = arrival;
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the fair-share weight.
    pub fn with_weight(mut self, weight: u64) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the resource reservation.
    pub fn with_reservation(mut self, reservation: Reservation) -> Self {
        self.reservation = reservation;
        self
    }

    /// Sets an absolute simulated-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the retry policy used for preempted attempts.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Enables speculative backup attempts.
    pub fn with_speculation(mut self, speculate: bool) -> Self {
        self.speculate = speculate;
        self
    }
}

/// Claim ticket for a submitted job's result, redeemed with
/// [`ClusterExecutor::take`] after [`ClusterExecutor::run`].
#[derive(Debug)]
pub struct JobHandle<T> {
    submit_idx: usize,
    _marker: PhantomData<fn() -> T>,
}

/// Scheduling facts about one completed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSchedStats {
    /// Simulated arrival time.
    pub arrival: Duration,
    /// When the scheduler first granted the job a slot.
    pub started: Duration,
    /// When the job's last task completed.
    pub finished: Duration,
    /// Time spent in the admission queue (`started - arrival`).
    pub queue_wait: Duration,
    /// Task attempts of this job killed by preemption.
    pub preemptions: u64,
    /// Slot time consumed by killed attempts (preemptions plus losing
    /// speculative duplicates).
    pub wasted: Duration,
    /// Total slot-ticks the job consumed across all attempts.
    pub slot_ticks: u64,
}

/// A finished job: its output, the per-MapReduce-job metrics its data
/// plane reported (with `jobs[0]` patched to carry the scheduling story:
/// queue wait, preemptions, preemption-wasted time), and the scheduling
/// stats.
#[derive(Debug)]
pub struct SchedOutcome<T> {
    /// The data plane's output value.
    pub output: T,
    /// Metrics of the MapReduce jobs the plane ran, in execution order.
    pub jobs: Vec<JobMetrics>,
    /// Scheduling facts for the job as a whole.
    pub stats: JobSchedStats,
}

/// Terminal state of a submitted job.
#[derive(Debug)]
pub enum JobCompletion<T> {
    /// The job ran to completion.
    Finished(SchedOutcome<T>),
    /// Admission control turned the job away (queue full or memory
    /// exhausted); its data plane never ran. Always
    /// [`Error::AdmissionRejected`].
    Rejected(Error),
    /// The scheduler cancelled the job — deadline expiry, preemption
    /// retry budget exhaustion, or executor drain — with partial metrics
    /// and a [`FailureCause::Cancelled`] attempt history.
    Cancelled(Box<JobError>),
    /// The job's own data plane failed (e.g. a fault plan exhausted a
    /// task's retries). Other jobs are unaffected.
    Failed(Error),
}

impl<T> JobCompletion<T> {
    /// `true` iff the job finished.
    pub fn is_finished(&self) -> bool {
        matches!(self, Self::Finished(_))
    }

    /// `true` iff admission control rejected the job.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Self::Rejected(_))
    }

    /// `true` iff the scheduler cancelled the job.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, Self::Cancelled(_))
    }

    /// Converts to a `Result`, folding every non-finished state into its
    /// [`Error`].
    pub fn outcome(self) -> Result<SchedOutcome<T>, Error> {
        match self {
            Self::Finished(outcome) => Ok(outcome),
            Self::Rejected(e) | Self::Failed(e) => Err(e),
            Self::Cancelled(e) => Err((*e).into()),
        }
    }

    /// The outcome, panicking (with the underlying error) on any
    /// non-finished state.
    pub fn unwrap(self) -> SchedOutcome<T> {
        match self {
            Self::Finished(outcome) => outcome,
            Self::Rejected(e) | Self::Failed(e) => panic!("job did not finish: {e}"),
            Self::Cancelled(e) => panic!("job did not finish: {e}"),
        }
    }
}

/// Per-tenant aggregate in a [`SchedReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Jobs submitted by the tenant (admitted or rejected).
    pub jobs: u64,
    /// Slot-ticks charged to the tenant (completed attempts at full
    /// duration, killed attempts at elapsed duration).
    pub slot_ticks: u64,
    /// Total simulated time the tenant's jobs spent queued.
    pub queue_wait: Duration,
}

/// What happened across one [`ClusterExecutor::run`].
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Name of the scheduling policy that ran.
    pub policy: &'static str,
    /// Jobs submitted (accepted by the static feasibility check).
    pub submitted: u64,
    /// Jobs admitted to the queue.
    pub admitted: u64,
    /// Jobs rejected at arrival (queue full or memory exhausted).
    pub rejected: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Jobs cancelled by the scheduler (deadlines, preemption budget).
    pub cancelled: u64,
    /// Jobs whose own data plane failed.
    pub failed: u64,
    /// Task attempts killed by preemption, across all jobs.
    pub preemptions: u64,
    /// Simulated instant the last job reached a terminal state.
    pub makespan: Duration,
    /// Per-tenant aggregates, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
    /// The `sched.*` counters, exactly as committed to telemetry.
    pub registry: MetricsRegistry,
}

impl SchedReport {
    /// Renders the report as human-readable text (one header line plus
    /// one line per tenant).
    pub fn render(&self) -> String {
        let mut out = format!(
            "policy={} submitted={} admitted={} rejected={} completed={} \
             cancelled={} failed={} preemptions={} makespan={:?}\n",
            self.policy,
            self.submitted,
            self.admitted,
            self.rejected,
            self.completed,
            self.cancelled,
            self.failed,
            self.preemptions,
            self.makespan,
        );
        for (tenant, stats) in &self.tenants {
            out.push_str(&format!(
                "  tenant {tenant}: jobs={} slot_ticks={} queue_wait={:?}\n",
                stats.jobs, stats.slot_ticks, stats.queue_wait
            ));
        }
        out
    }
}

enum RawCompletion {
    Finished {
        output: Box<dyn Any + Send>,
        jobs: Vec<JobMetrics>,
        stats: JobSchedStats,
    },
    Rejected(Error),
    Cancelled(Box<JobError>),
    Failed(Error),
}

struct Submission {
    spec: JobSpec,
    plane: Plane,
}

/// Runs many jobs over one simulated cluster's shared slot pools.
///
/// Lifecycle: configure (scheduler, admission limits, telemetry), then
/// [`submit`](Self::submit) jobs, then [`run`](Self::run) once, then
/// [`take`](Self::take) each handle's [`JobCompletion`]. `submit` rejects
/// statically infeasible reservations synchronously; load-dependent
/// rejections surface through the handle after `run`.
pub struct ClusterExecutor {
    cluster: ClusterConfig,
    admission: AdmissionController,
    scheduler: Box<dyn Scheduler>,
    collector: Option<Collector>,
    submissions: Vec<Submission>,
    results: Vec<Option<RawCompletion>>,
    ran: bool,
}

impl std::fmt::Debug for ClusterExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterExecutor")
            .field("policy", &self.scheduler.name())
            .field("submissions", &self.submissions.len())
            .field("ran", &self.ran)
            .finish_non_exhaustive()
    }
}

impl ClusterExecutor {
    /// An executor over the given cluster, with FIFO scheduling and
    /// default admission limits.
    pub fn new(cluster: ClusterConfig) -> Self {
        Self {
            cluster,
            admission: AdmissionController::default(),
            scheduler: Box::new(FifoScheduler),
            collector: None,
            submissions: Vec::new(),
            results: Vec::new(),
            ran: false,
        }
    }

    /// Replaces the scheduling policy.
    pub fn with_scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Box::new(scheduler);
        self
    }

    /// Replaces the admission limits.
    pub fn with_admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = AdmissionController::new(config);
        self
    }

    /// Attaches a telemetry collector; the executor commits one
    /// "scheduler" job trace (queued spans, preempt instants, `sched.*`
    /// counters) on [`run`](Self::run).
    pub fn with_collector(mut self, collector: Collector) -> Self {
        self.collector = Some(collector);
        self
    }

    /// The cluster the executor schedules over.
    pub fn cluster(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// Submits a job. The plane closure receives the shared cluster
    /// config and must return the job's output plus the [`JobMetrics`]
    /// of every MapReduce job it ran; it is invoked lazily, at the
    /// simulated instant the job first receives a slot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AdmissionRejected`] synchronously for
    /// reservations no cluster of this shape can satisfy. Load-dependent
    /// rejection (queue depth, memory ledger) is decided during
    /// [`run`](Self::run) and surfaces through the handle instead.
    pub fn submit<T, F>(&mut self, spec: JobSpec, plane: F) -> Result<JobHandle<T>, Error>
    where
        T: Send + 'static,
        F: FnOnce(&ClusterConfig) -> Result<(T, Vec<JobMetrics>), Error> + Send + 'static,
    {
        assert!(!self.ran, "submit() after run()");
        self.admission
            .check_static(&spec.name, &spec.tenant, &spec.reservation, &self.cluster)?;
        let erased: Plane = Box::new(move |cluster| {
            plane(cluster).map(|(out, jobs)| (Box::new(out) as Box<dyn Any + Send>, jobs))
        });
        let submit_idx = self.submissions.len();
        self.submissions.push(Submission {
            spec,
            plane: erased,
        });
        self.results.push(None);
        Ok(JobHandle {
            submit_idx,
            _marker: PhantomData,
        })
    }

    /// Redeems a handle for its job's terminal state. Call after
    /// [`run`](Self::run); each handle can be taken once.
    ///
    /// # Panics
    ///
    /// Panics if `run` has not been called, the handle was already
    /// taken, or `T` does not match the submitted plane's output type.
    pub fn take<T: Send + 'static>(&mut self, handle: JobHandle<T>) -> JobCompletion<T> {
        assert!(self.ran, "take() before run()");
        let Some(raw) = self.results[handle.submit_idx].take() else {
            panic!("job result already taken")
        };
        match raw {
            RawCompletion::Finished {
                output,
                jobs,
                stats,
            } => {
                let Ok(output) = output.downcast::<T>() else {
                    panic!("JobHandle output type mismatch")
                };
                JobCompletion::Finished(SchedOutcome {
                    output: *output,
                    jobs,
                    stats,
                })
            }
            RawCompletion::Rejected(e) => JobCompletion::Rejected(e),
            RawCompletion::Cancelled(e) => JobCompletion::Cancelled(e),
            RawCompletion::Failed(e) => JobCompletion::Failed(e),
        }
    }

    /// Runs every submitted job to a terminal state and returns the
    /// run's [`SchedReport`]. Deterministic: the report and every job's
    /// bytes depend only on the submission set, not on submission call
    /// order or host parallelism.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn run(&mut self) -> SchedReport {
        assert!(!self.ran, "run() called twice");
        self.ran = true;

        // Canonical job order: all scheduling tie-breaks bottom out in
        // this rank, which is why permuting submit() calls cannot change
        // any output byte.
        let mut order: Vec<usize> = (0..self.submissions.len()).collect();
        order.sort_by(|&a, &b| {
            let (sa, sb) = (&self.submissions[a].spec, &self.submissions[b].spec);
            (ticks_of(sa.arrival), &sa.tenant, &sa.name, a).cmp(&(
                ticks_of(sb.arrival),
                &sb.tenant,
                &sb.name,
                b,
            ))
        });
        let mut drained: Vec<Option<Submission>> = std::mem::take(&mut self.submissions)
            .into_iter()
            .map(Some)
            .collect();
        let mut sims: Vec<Sim> = Vec::with_capacity(order.len());
        for &idx in &order {
            let Some(Submission { spec, plane }) = drained[idx].take() else {
                unreachable!("`order` is a permutation, so each index drains exactly once")
            };
            sims.push(Sim::new(spec, plane, idx));
        }

        let mut engine = Engine {
            cluster: self.cluster.clone(),
            admission: self.admission.clone(),
            sims,
            running: Vec::new(),
            events: BTreeSet::new(),
            next_attempt_id: 0,
            tenant_charged: BTreeMap::new(),
            tenant_wait: BTreeMap::new(),
            tenant_jobs: BTreeMap::new(),
            admitted: 0,
            rejected: 0,
            completed: 0,
            cancelled: 0,
            failed: 0,
            preemptions: 0,
            queue_wait_ticks: 0,
            slot_ticks: 0,
            preempt_log: Vec::new(),
            makespan: 0,
        };
        for sim in &engine.sims {
            engine.events.insert(sim.arrival);
            if let Some(d) = sim.deadline {
                engine.events.insert(d);
            }
        }
        while let Some(now) = engine.events.pop_first() {
            engine.process_completions(now);
            engine.process_shuffles(now);
            engine.process_deadlines(now);
            engine.process_arrivals(now);
            engine.dispatch(self.scheduler.as_mut(), now);
        }
        // A scheduler that refuses to pick can leave admitted jobs
        // stranded; drain them as cancellations so every handle resolves.
        let makespan = engine.makespan;
        for j in 0..engine.sims.len() {
            if !matches!(engine.sims[j].state, SimState::Terminal) {
                engine.cancel_job(
                    j,
                    makespan,
                    "executor drained its event queue with the job still waiting",
                );
            }
        }

        let report = engine.build_report(self.scheduler.name());
        engine.commit_results(&mut self.results);
        if let Some(collector) = &self.collector {
            engine.emit_trace(collector, &report.registry);
        }
        report
    }
}

// ---------------------------------------------------------------------
// The discrete-event simulation.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimState {
    /// Not yet arrived on the simulated clock.
    Future,
    /// Admitted, waiting for the scheduler's first grant.
    Queued,
    /// Data plane has run; tasks are competing for slots.
    Running,
    /// Finished, rejected, cancelled, or failed.
    Terminal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Map,
    Shuffle,
    Reduce,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Pending { ready: u64, attempt: u32 },
    Running,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct TaskCell {
    state: TaskState,
    backup: bool,
}

#[derive(Debug, Clone)]
struct Stage {
    map: Vec<u64>,
    shuffle: u64,
    reduce: Vec<u64>,
}

struct Sim {
    spec: JobSpec,
    submit_idx: usize,
    arrival: u64,
    deadline: Option<u64>,
    plane: Option<Plane>,
    state: SimState,
    output: Option<Box<dyn Any + Send>>,
    jobs: Vec<JobMetrics>,
    stages: Vec<Stage>,
    stage: usize,
    phase: Phase,
    shuffle_end: u64,
    tasks: Vec<TaskCell>,
    remaining: usize,
    started_at: u64,
    /// Queue wait in ticks, recorded at the first grant (or at
    /// cancellation for jobs that never start). `None` until then.
    queued_wait: Option<u64>,
    preemptions: u64,
    wasted_ticks: u64,
    slot_ticks: u64,
    result: Option<RawCompletion>,
}

impl Sim {
    fn new(spec: JobSpec, plane: Plane, submit_idx: usize) -> Self {
        let arrival = ticks_of(spec.arrival);
        let deadline = spec.deadline.map(ticks_of);
        Self {
            spec,
            submit_idx,
            arrival,
            deadline,
            plane: Some(plane),
            state: SimState::Future,
            output: None,
            jobs: Vec::new(),
            stages: Vec::new(),
            stage: 0,
            phase: Phase::Map,
            shuffle_end: 0,
            tasks: Vec::new(),
            remaining: 0,
            started_at: 0,
            queued_wait: None,
            preemptions: 0,
            wasted_ticks: 0,
            slot_ticks: 0,
            result: None,
        }
    }

    fn ready_task(&self, kind: TaskKind, now: u64) -> Option<usize> {
        let phase_kind = match self.phase {
            Phase::Map => TaskKind::Map,
            Phase::Reduce => TaskKind::Reduce,
            Phase::Shuffle => return None,
        };
        if self.state != SimState::Running || phase_kind != kind {
            return None;
        }
        self.tasks
            .iter()
            .position(|t| matches!(t.state, TaskState::Pending { ready, .. } if ready <= now))
    }

    fn task_ticks(&self, kind: TaskKind, task: usize) -> u64 {
        let stage = &self.stages[self.stage];
        match kind {
            TaskKind::Map => stage.map[task],
            TaskKind::Reduce => stage.reduce[task],
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    id: u64,
    job: usize,
    kind: TaskKind,
    task: usize,
    attempt_no: u32,
    speculative: bool,
    started: u64,
    ticks: u64,
    finish: u64,
}

struct PreemptEvent {
    at: u64,
    job: String,
    task: u64,
    attempt: u64,
}

/// Builds the stage ladder from a plane's reported metrics. Startup and
/// broadcast charges are folded into each stage's first task so a job
/// granted its first slot immediately occupies it (a deliberate modeling
/// simplification: setup rides on the slot rather than on a separate
/// driver lane).
fn build_stages(jobs: &[JobMetrics]) -> Vec<Stage> {
    jobs.iter()
        .filter_map(|m| {
            let mut map: Vec<u64> = m.map_task_durations.iter().map(|d| ticks_of(*d)).collect();
            let mut reduce: Vec<u64> = m
                .reduce_task_durations
                .iter()
                .map(|d| ticks_of(*d))
                .collect();
            let lead = ticks_of(m.startup_time).saturating_add(ticks_of(m.broadcast_time));
            if lead > 0 {
                if let Some(first) = map.first_mut() {
                    *first += lead;
                } else if let Some(first) = reduce.first_mut() {
                    *first += lead;
                }
            }
            if map.is_empty() && reduce.is_empty() {
                None
            } else {
                Some(Stage {
                    map,
                    shuffle: ticks_of(m.shuffle_time),
                    reduce,
                })
            }
        })
        .collect()
}

struct Engine {
    cluster: ClusterConfig,
    admission: AdmissionController,
    sims: Vec<Sim>,
    running: Vec<Attempt>,
    events: BTreeSet<u64>,
    next_attempt_id: u64,
    tenant_charged: BTreeMap<String, u64>,
    tenant_wait: BTreeMap<String, u64>,
    tenant_jobs: BTreeMap<String, u64>,
    admitted: u64,
    rejected: u64,
    completed: u64,
    cancelled: u64,
    failed: u64,
    preemptions: u64,
    queue_wait_ticks: u64,
    slot_ticks: u64,
    preempt_log: Vec<PreemptEvent>,
    makespan: u64,
}

impl Engine {
    fn pool(&self, kind: TaskKind) -> usize {
        match kind {
            TaskKind::Map => self.cluster.map_slots,
            TaskKind::Reduce => self.cluster.reduce_slots,
        }
    }

    fn free_slots(&self, kind: TaskKind) -> usize {
        let busy = self.running.iter().filter(|a| a.kind == kind).count();
        self.pool(kind).saturating_sub(busy)
    }

    /// Charges slot-ticks to a job and its tenant.
    fn charge(&mut self, job: usize, ticks: u64) {
        self.sims[job].slot_ticks += ticks;
        let tenant = self.sims[job].spec.tenant.clone();
        *self.tenant_charged.entry(tenant).or_insert(0) += ticks;
        self.slot_ticks += ticks;
    }

    /// Removes a running attempt, charging its elapsed slot time and
    /// adding it to the job's wasted total.
    fn kill_attempt(&mut self, running_idx: usize, now: u64) -> Attempt {
        let a = self.running.remove(running_idx);
        let elapsed = now.saturating_sub(a.started);
        self.charge(a.job, elapsed);
        self.sims[a.job].wasted_ticks += elapsed;
        if a.speculative {
            self.sims[a.job].tasks[a.task].backup = false;
        }
        a
    }

    // --- per-tick phases -------------------------------------------------

    fn process_completions(&mut self, now: u64) {
        let mut done: Vec<Attempt> = Vec::new();
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].finish == now {
                done.push(self.running.remove(i));
            } else {
                i += 1;
            }
        }
        done.sort_by_key(|a| (a.job, a.kind, a.task, a.speculative, a.id));
        for a in done {
            self.complete_attempt(a, now);
        }
    }

    fn complete_attempt(&mut self, a: Attempt, now: u64) {
        self.charge(a.job, a.ticks);
        let sim = &mut self.sims[a.job];
        if sim.state != SimState::Running {
            return;
        }
        if a.speculative {
            sim.tasks[a.task].backup = false;
        }
        match sim.tasks[a.task].state {
            TaskState::Done => {
                // A duplicate finished in the same tick as the winner:
                // its full duration is wasted work.
                sim.wasted_ticks += a.ticks;
                return;
            }
            TaskState::Pending { .. } | TaskState::Running => {
                sim.tasks[a.task].state = TaskState::Done;
                sim.remaining -= 1;
            }
        }
        // Kill losing duplicates of the now-complete task.
        while let Some(idx) = self
            .running
            .iter()
            .position(|r| r.job == a.job && r.kind == a.kind && r.task == a.task)
        {
            self.kill_attempt(idx, now);
        }
        if self.sims[a.job].remaining == 0 {
            self.advance_phase(a.job, now);
        }
    }

    fn process_shuffles(&mut self, now: u64) {
        for j in 0..self.sims.len() {
            if self.sims[j].state == SimState::Running
                && self.sims[j].phase == Phase::Shuffle
                && self.sims[j].shuffle_end == now
            {
                self.enter_reduce(j, now);
            }
        }
    }

    fn process_deadlines(&mut self, now: u64) {
        for j in 0..self.sims.len() {
            let sim = &self.sims[j];
            if sim.deadline == Some(now)
                && matches!(sim.state, SimState::Queued | SimState::Running)
            {
                self.cancel_job(j, now, "deadline expired");
            }
        }
    }

    fn process_arrivals(&mut self, now: u64) {
        for j in 0..self.sims.len() {
            if self.sims[j].arrival != now || self.sims[j].state != SimState::Future {
                continue;
            }
            let (name, tenant, reservation) = {
                let s = &self.sims[j].spec;
                (s.name.clone(), s.tenant.clone(), s.reservation)
            };
            *self.tenant_jobs.entry(tenant.clone()).or_insert(0) += 1;
            match self.admission.admit(&name, &tenant, &reservation) {
                Ok(()) => {
                    self.sims[j].state = SimState::Queued;
                    self.admitted += 1;
                }
                Err(e) => {
                    self.sims[j].state = SimState::Terminal;
                    self.sims[j].result = Some(RawCompletion::Rejected(e));
                    self.rejected += 1;
                    self.makespan = self.makespan.max(now);
                }
            }
        }
    }

    // --- job lifecycle ---------------------------------------------------

    /// Runs a queued job's data plane and enters its first stage. The
    /// plane executes *now* on the host, at the simulated instant of the
    /// first grant — a queued job has never run it.
    fn start_job(&mut self, j: usize, now: u64) {
        debug_assert_eq!(self.sims[j].state, SimState::Queued);
        self.admission.start();
        let wait = now.saturating_sub(self.sims[j].arrival);
        self.queue_wait_ticks += wait;
        let tenant = self.sims[j].spec.tenant.clone();
        *self.tenant_wait.entry(tenant).or_insert(0) += wait;
        self.sims[j].started_at = now;
        self.sims[j].queued_wait = Some(wait);
        let Some(plane) = self.sims[j].plane.take() else {
            unreachable!("start_job runs once per job: only Queued jobs reach it")
        };
        match plane(&self.cluster) {
            Ok((output, jobs)) => {
                self.sims[j].stages = build_stages(&jobs);
                self.sims[j].output = Some(output);
                self.sims[j].jobs = jobs;
                self.sims[j].state = SimState::Running;
                self.sims[j].stage = 0;
                self.enter_stage(j, now);
            }
            Err(e) => {
                self.sims[j].state = SimState::Terminal;
                self.sims[j].result = Some(RawCompletion::Failed(e));
                self.failed += 1;
                let reservation = self.sims[j].spec.reservation;
                self.admission.release(&reservation, true);
                self.makespan = self.makespan.max(now);
            }
        }
    }

    /// Positions the job at the first schedulable point of `sim.stage`
    /// (or finishes it if no stages remain).
    fn enter_stage(&mut self, j: usize, now: u64) {
        loop {
            if self.sims[j].stage >= self.sims[j].stages.len() {
                self.finish_job(j, now);
                return;
            }
            let stage = self.sims[j].stages[self.sims[j].stage].clone();
            if !stage.map.is_empty() {
                self.sims[j].phase = Phase::Map;
                self.sims[j].tasks = stage
                    .map
                    .iter()
                    .map(|_| TaskCell {
                        state: TaskState::Pending {
                            ready: now,
                            attempt: 0,
                        },
                        backup: false,
                    })
                    .collect();
                self.sims[j].remaining = stage.map.len();
                return;
            }
            if !stage.reduce.is_empty() {
                if stage.shuffle > 0 {
                    self.sims[j].phase = Phase::Shuffle;
                    self.sims[j].shuffle_end = now + stage.shuffle;
                    self.events.insert(self.sims[j].shuffle_end);
                } else {
                    self.enter_reduce(j, now);
                }
                return;
            }
            self.sims[j].stage += 1;
        }
    }

    fn enter_reduce(&mut self, j: usize, now: u64) {
        let stage = self.sims[j].stages[self.sims[j].stage].clone();
        self.sims[j].phase = Phase::Reduce;
        self.sims[j].tasks = stage
            .reduce
            .iter()
            .map(|_| TaskCell {
                state: TaskState::Pending {
                    ready: now,
                    attempt: 0,
                },
                backup: false,
            })
            .collect();
        self.sims[j].remaining = stage.reduce.len();
    }

    fn advance_phase(&mut self, j: usize, now: u64) {
        match self.sims[j].phase {
            Phase::Map => {
                let stage = self.sims[j].stages[self.sims[j].stage].clone();
                if stage.reduce.is_empty() {
                    self.sims[j].stage += 1;
                    self.enter_stage(j, now);
                } else if stage.shuffle > 0 {
                    self.sims[j].phase = Phase::Shuffle;
                    self.sims[j].shuffle_end = now + stage.shuffle;
                    self.events.insert(self.sims[j].shuffle_end);
                } else {
                    self.enter_reduce(j, now);
                }
            }
            Phase::Reduce => {
                self.sims[j].stage += 1;
                self.enter_stage(j, now);
            }
            Phase::Shuffle => unreachable!("shuffle has no tasks to complete"),
        }
    }

    fn finish_job(&mut self, j: usize, now: u64) {
        let sim = &mut self.sims[j];
        sim.state = SimState::Terminal;
        let stats = JobSchedStats {
            arrival: from_ticks(sim.arrival),
            started: from_ticks(sim.started_at),
            finished: from_ticks(now),
            queue_wait: from_ticks(sim.started_at.saturating_sub(sim.arrival)),
            preemptions: sim.preemptions,
            wasted: from_ticks(sim.wasted_ticks),
            slot_ticks: sim.slot_ticks,
        };
        let mut jobs = std::mem::take(&mut sim.jobs);
        if let Some(first) = jobs.first_mut() {
            first.queue_wait_time = stats.queue_wait;
            first.preemptions = stats.preemptions;
            first.wasted_task_time += stats.wasted;
        }
        let Some(output) = sim.output.take() else {
            unreachable!("a job only finishes after its plane succeeded")
        };
        sim.result = Some(RawCompletion::Finished {
            output,
            jobs,
            stats,
        });
        let reservation = sim.spec.reservation;
        self.completed += 1;
        self.admission.release(&reservation, true);
        self.makespan = self.makespan.max(now);
    }

    fn cancel_job(&mut self, j: usize, now: u64, reason: &str) {
        let started = self.sims[j].state == SimState::Running;
        // Account queue wait for jobs cancelled before their first grant.
        if self.sims[j].state == SimState::Queued {
            let wait = now.saturating_sub(self.sims[j].arrival);
            self.queue_wait_ticks += wait;
            self.sims[j].queued_wait = Some(wait);
            let tenant = self.sims[j].spec.tenant.clone();
            *self.tenant_wait.entry(tenant).or_insert(0) += wait;
        }
        // Kill anything still on a slot, charging elapsed time.
        let killed: Vec<Attempt> = {
            let mut out = Vec::new();
            while let Some(idx) = self.running.iter().position(|a| a.job == j) {
                out.push(self.kill_attempt(idx, now));
            }
            out
        };
        let sim = &mut self.sims[j];
        sim.state = SimState::Terminal;
        let (task, index, attempts) = killed.first().map_or((TaskKind::Map, 0, 0), |a| {
            (a.kind, a.task, a.attempt_no + 1)
        });
        let metrics = if started {
            let mut m = sim
                .jobs
                .first()
                .cloned()
                .unwrap_or_else(|| JobMetrics::empty(&sim.spec.name, 0, 0));
            m.queue_wait_time = from_ticks(sim.started_at.saturating_sub(sim.arrival));
            m.preemptions = sim.preemptions;
            m.wasted_task_time += from_ticks(sim.wasted_ticks);
            m
        } else {
            JobMetrics::empty(&sim.spec.name, 0, 0)
        };
        let err = JobError {
            job: sim.spec.name.clone(),
            task,
            index,
            attempts,
            history: vec![AttemptFailure {
                attempt: attempts.saturating_sub(1),
                cause: FailureCause::Cancelled {
                    reason: reason.to_owned(),
                },
            }],
            counters: Counters::new(),
            metrics: Box::new(metrics),
            payload: None,
        };
        sim.result = Some(RawCompletion::Cancelled(Box::new(err)));
        let reservation = sim.spec.reservation;
        self.cancelled += 1;
        // A cancelled job was always admitted (deadlines fire only for
        // Queued/Running jobs): free its queue slot and memory.
        self.admission.release(&reservation, started);
        self.makespan = self.makespan.max(now);
    }

    // --- dispatch --------------------------------------------------------

    fn dispatch(&mut self, scheduler: &mut dyn Scheduler, now: u64) {
        loop {
            let mut progress = false;
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                // Regular fill: offer each free slot to the policy.
                while self.free_slots(kind) > 0 {
                    let Some(j) = self.pick_candidate(scheduler, kind, now) else {
                        break;
                    };
                    self.grant(j, kind, now);
                    progress = true;
                }
                // Speculation: duplicate running attempts of opted-in
                // jobs onto otherwise-idle slots.
                while self.free_slots(kind) > 0 {
                    if !self.launch_backup(kind, now) {
                        break;
                    }
                    progress = true;
                }
                // Preemption: a starved candidate may evict lower-value
                // running work, if the policy allows it.
                while self.free_slots(kind) == 0 {
                    if !self.try_preempt(scheduler, kind, now) {
                        break;
                    }
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
    }

    fn pick_candidate(
        &mut self,
        scheduler: &mut dyn Scheduler,
        kind: TaskKind,
        now: u64,
    ) -> Option<usize> {
        let cands = candidate_views(&self.sims, &self.running, &self.tenant_charged, kind, now);
        if cands.is_empty() {
            return None;
        }
        let view = SchedView {
            now,
            kind,
            candidates: &cands,
        };
        scheduler.pick(&view).map(|i| cands[i].seq)
    }

    fn grant(&mut self, j: usize, kind: TaskKind, now: u64) {
        if self.sims[j].state == SimState::Queued {
            self.start_job(j, now);
        }
        if self.sims[j].state != SimState::Running {
            return;
        }
        let Some(task) = self.sims[j].ready_task(kind, now) else {
            return;
        };
        let TaskState::Pending {
            attempt: attempt_no,
            ..
        } = self.sims[j].tasks[task].state
        else {
            unreachable!("ready_task returned a non-pending task");
        };
        self.sims[j].tasks[task].state = TaskState::Running;
        let ticks = self.sims[j].task_ticks(kind, task);
        self.place(j, kind, task, attempt_no, false, now, ticks);
    }

    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        job: usize,
        kind: TaskKind,
        task: usize,
        attempt_no: u32,
        speculative: bool,
        now: u64,
        ticks: u64,
    ) {
        let id = self.next_attempt_id;
        self.next_attempt_id += 1;
        let finish = now + ticks;
        self.running.push(Attempt {
            id,
            job,
            kind,
            task,
            attempt_no,
            speculative,
            started: now,
            ticks,
            finish,
        });
        self.events.insert(finish);
    }

    fn launch_backup(&mut self, kind: TaskKind, now: u64) -> bool {
        // Candidate backups: running, non-speculative attempts of
        // speculate-enabled jobs with no dispatchable pending work and no
        // existing backup for the task. Longest remaining first.
        let pick = self
            .running
            .iter()
            .filter(|a| {
                let sim = &self.sims[a.job];
                a.kind == kind
                    && !a.speculative
                    && sim.spec.speculate
                    && sim.state == SimState::Running
                    && sim.ready_task(kind, now).is_none()
                    && !sim.tasks[a.task].backup
            })
            .max_by_key(|a| {
                (
                    a.finish.saturating_sub(now),
                    std::cmp::Reverse(a.job),
                    std::cmp::Reverse(a.task),
                )
            })
            .map(|a| (a.job, a.task, a.attempt_no));
        let Some((job, task, attempt_no)) = pick else {
            return false;
        };
        self.sims[job].tasks[task].backup = true;
        let ticks = self.sims[job].task_ticks(kind, task);
        self.place(job, kind, task, attempt_no, true, now, ticks);
        true
    }

    fn try_preempt(&mut self, scheduler: &mut dyn Scheduler, kind: TaskKind, now: u64) -> bool {
        let claimant = {
            let cands = candidate_views(&self.sims, &self.running, &self.tenant_charged, kind, now);
            if cands.is_empty() {
                return false;
            }
            let view = SchedView {
                now,
                kind,
                candidates: &cands,
            };
            let Some(i) = scheduler.pick(&view) else {
                return false;
            };
            cands[i].clone_owned()
        };
        let victim_idx = {
            let (views, indices) = attempt_views(&self.sims, &self.running, kind, now);
            if views.is_empty() {
                return false;
            }
            let claimant_view = claimant.as_view();
            match scheduler.preempt(&claimant_view, &views) {
                Some(i) => indices[i],
                None => return false,
            }
        };
        self.preempt_attempt(victim_idx, now);
        self.grant(claimant.seq, kind, now);
        true
    }

    fn preempt_attempt(&mut self, running_idx: usize, now: u64) {
        let a = self.kill_attempt(running_idx, now);
        self.sims[a.job].preemptions += 1;
        self.preemptions += 1;
        self.preempt_log.push(PreemptEvent {
            at: now,
            job: self.sims[a.job].spec.name.clone(),
            task: a.task as u64,
            attempt: a.attempt_no as u64,
        });
        if a.speculative {
            // Killing a backup loses nothing: the original still runs.
            return;
        }
        let has_other_attempt = self
            .running
            .iter()
            .any(|r| r.job == a.job && r.kind == a.kind && r.task == a.task);
        if has_other_attempt {
            // A backup survives and becomes the primary attempt.
            return;
        }
        let next_attempt = a.attempt_no + 1;
        let budget = self.sims[a.job].spec.retry.max_attempts.max(1);
        if next_attempt >= budget {
            self.cancel_job(a.job, now, "preemption exhausted the task retry budget");
            return;
        }
        let backoff = ticks_of(self.sims[a.job].spec.retry.backoff_after(a.attempt_no));
        let ready = now + backoff;
        self.sims[a.job].tasks[a.task].state = TaskState::Pending {
            ready,
            attempt: next_attempt,
        };
        self.events.insert(ready);
    }

    // --- reporting -------------------------------------------------------

    fn build_report(&self, policy: &'static str) -> SchedReport {
        let mut registry = MetricsRegistry::new();
        registry.add("sched.submitted", self.sims.len() as u64);
        registry.add("sched.admitted", self.admitted);
        registry.add("sched.rejected", self.rejected);
        registry.add("sched.completed", self.completed);
        registry.add("sched.cancelled", self.cancelled);
        registry.add("sched.failed", self.failed);
        registry.add("sched.preemptions", self.preemptions);
        registry.add("sched.queue_wait_ticks", self.queue_wait_ticks);
        registry.add("sched.slot_ticks", self.slot_ticks);
        let mut tenants = BTreeMap::new();
        for (tenant, &jobs) in &self.tenant_jobs {
            let slot_ticks = self.tenant_charged.get(tenant).copied().unwrap_or(0);
            let wait = self.tenant_wait.get(tenant).copied().unwrap_or(0);
            registry.add(&format!("sched.tenant.{tenant}.jobs"), jobs);
            registry.add(&format!("sched.tenant.{tenant}.slot_ticks"), slot_ticks);
            registry.add(&format!("sched.tenant.{tenant}.queue_wait_ticks"), wait);
            tenants.insert(
                tenant.clone(),
                TenantStats {
                    jobs,
                    slot_ticks,
                    queue_wait: from_ticks(wait),
                },
            );
        }
        SchedReport {
            policy,
            submitted: self.sims.len() as u64,
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.completed,
            cancelled: self.cancelled,
            failed: self.failed,
            preemptions: self.preemptions,
            makespan: from_ticks(self.makespan),
            tenants,
            registry,
        }
    }

    fn commit_results(&mut self, results: &mut [Option<RawCompletion>]) {
        for sim in &mut self.sims {
            let Some(result) = sim.result.take() else {
                unreachable!("run() drains stranded jobs, so every sim is terminal")
            };
            results[sim.submit_idx] = Some(result);
        }
    }

    /// Emits the scheduler's own job trace: one `queued` span per
    /// admitted job on lane 0, one `preempt` instant per kill, the
    /// `sched.*` registry, and a total of the run's makespan.
    fn emit_trace(&self, collector: &Collector, registry: &MetricsRegistry) {
        let mut trace = JobTrace::new("scheduler");
        trace.name_lane(0, "scheduler");
        for sim in &self.sims {
            // Every admitted job gets a queued span (zero-length for jobs
            // granted a slot the instant they arrive); rejected jobs were
            // never queued and get none.
            let Some(wait) = sim.queued_wait else {
                continue;
            };
            trace.span(
                Span::new(
                    &["scheduler", "queued", &sim.spec.name],
                    "queued",
                    "sched",
                    0,
                    sim.arrival,
                    wait,
                )
                .with_arg("job", sim.spec.name.as_str())
                .with_arg("tenant", sim.spec.tenant.as_str()),
            );
        }
        for e in &self.preempt_log {
            trace.instant(
                "preempt",
                "sched",
                0,
                e.at,
                vec![
                    ("job".to_owned(), e.job.as_str().into()),
                    ("task".to_owned(), e.task.into()),
                    ("attempt".to_owned(), e.attempt.into()),
                ],
            );
        }
        trace.registry_mut().merge(registry);
        trace.set_total(self.makespan);
        collector.commit(trace);
    }
}

impl<'a> CandidateView<'a> {
    fn clone_owned(&self) -> OwnedCandidate {
        OwnedCandidate {
            seq: self.seq,
            name: self.name.to_owned(),
            tenant: self.tenant.to_owned(),
            arrival: self.arrival,
            priority: self.priority,
            weight: self.weight,
            tenant_used: self.tenant_used,
        }
    }
}

struct OwnedCandidate {
    seq: usize,
    name: String,
    tenant: String,
    arrival: u64,
    priority: i32,
    weight: u64,
    tenant_used: u64,
}

impl OwnedCandidate {
    fn as_view(&self) -> CandidateView<'_> {
        CandidateView {
            seq: self.seq,
            name: &self.name,
            tenant: &self.tenant,
            arrival: self.arrival,
            priority: self.priority,
            weight: self.weight,
            tenant_used: self.tenant_used,
        }
    }
}

/// Builds the policy's view of the schedulable jobs, in canonical order.
/// Tenant usage shown to the policy is charged slot-ticks plus the full
/// committed duration of running attempts — commitments are what stop a
/// tenant with many short tasks from starving one with few long tasks.
fn candidate_views<'a>(
    sims: &'a [Sim],
    running: &[Attempt],
    charged: &BTreeMap<String, u64>,
    kind: TaskKind,
    now: u64,
) -> Vec<CandidateView<'a>> {
    let mut used: BTreeMap<&str, u64> = BTreeMap::new();
    for (tenant, &ticks) in charged {
        used.insert(tenant.as_str(), ticks);
    }
    for a in running {
        *used.entry(sims[a.job].spec.tenant.as_str()).or_insert(0) += a.ticks;
    }
    sims.iter()
        .enumerate()
        .filter(|(_, sim)| match sim.state {
            // An unstarted job's task shape is unknown until its plane
            // runs; it bids for a map slot (jobs here always map first).
            SimState::Queued => kind == TaskKind::Map,
            SimState::Running => sim.ready_task(kind, now).is_some(),
            _ => false,
        })
        .map(|(seq, sim)| CandidateView {
            seq,
            name: &sim.spec.name,
            tenant: &sim.spec.tenant,
            arrival: sim.arrival,
            priority: sim.spec.priority,
            weight: sim.spec.weight.max(1),
            tenant_used: used.get(sim.spec.tenant.as_str()).copied().unwrap_or(0),
        })
        .collect()
}

/// Builds the policy's view of running attempts of the given kind, in
/// canonical order, alongside each view's index into `running`.
fn attempt_views<'a>(
    sims: &'a [Sim],
    running: &[Attempt],
    kind: TaskKind,
    now: u64,
) -> (Vec<AttemptView<'a>>, Vec<usize>) {
    let mut order: Vec<usize> = (0..running.len())
        .filter(|&i| running[i].kind == kind)
        .collect();
    order.sort_by_key(|&i| {
        (
            running[i].job,
            running[i].task,
            running[i].speculative,
            running[i].id,
        )
    });
    let views = order
        .iter()
        .map(|&i| {
            let a = &running[i];
            let sim = &sims[a.job];
            AttemptView {
                seq: a.job,
                name: &sim.spec.name,
                tenant: &sim.spec.tenant,
                priority: sim.spec.priority,
                kind: a.kind,
                task_index: a.task,
                attempt: a.attempt_no,
                speculative: a.speculative,
                started: a.started,
                remaining: a.finish.saturating_sub(now),
            }
        })
        .collect();
    (views, order)
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    use super::super::scheduler::{FairShareScheduler, PriorityScheduler};
    use super::*;

    fn small_cluster(map_slots: usize, reduce_slots: usize) -> ClusterConfig {
        ClusterConfig {
            map_slots,
            reduce_slots,
            ..ClusterConfig::default()
        }
    }

    fn metrics(name: &str, map_ms: &[u64], shuffle_ms: u64, reduce_ms: &[u64]) -> JobMetrics {
        let mut m = JobMetrics::empty(name, map_ms.len(), reduce_ms.len());
        m.map_task_durations = map_ms.iter().map(|&v| Duration::from_millis(v)).collect();
        m.reduce_task_durations = reduce_ms
            .iter()
            .map(|&v| Duration::from_millis(v))
            .collect();
        m.shuffle_time = Duration::from_millis(shuffle_ms);
        m
    }

    /// A plane returning `value` with one map-only job of the given task
    /// durations.
    fn map_plane(
        value: u64,
        map_ms: Vec<u64>,
    ) -> impl FnOnce(&ClusterConfig) -> Result<(u64, Vec<JobMetrics>), Error> {
        move |_| Ok((value, vec![metrics("p", &map_ms, 0, &[])]))
    }

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn fifo_serializes_contending_jobs_and_accrues_queue_wait() {
        let mut exec = ClusterExecutor::new(small_cluster(1, 1));
        let ha = exec
            .submit(JobSpec::new("a", "t"), map_plane(1, vec![10]))
            .unwrap();
        let hb = exec
            .submit(JobSpec::new("b", "t"), map_plane(2, vec![10]))
            .unwrap();
        let report = exec.run();
        assert_eq!(report.policy, "fifo");
        assert_eq!((report.completed, report.rejected), (2, 0));
        assert_eq!(report.makespan, ms(20));
        let a = exec.take(ha).unwrap();
        assert_eq!((a.output, a.stats.queue_wait), (1, ms(0)));
        let b = exec.take(hb).unwrap();
        assert_eq!(b.output, 2);
        assert_eq!(b.stats.queue_wait, ms(10));
        assert_eq!(b.jobs[0].queue_wait_time, ms(10));
        assert_eq!(report.registry.counter("sched.queue_wait_ticks"), 10_000);
    }

    #[test]
    fn full_queue_rejects_without_running_the_plane() {
        let mut exec = ClusterExecutor::new(small_cluster(1, 1))
            .with_admission(AdmissionConfig::with_queue_depth(1));
        let ran = Arc::new(AtomicBool::new(false));
        let ran_b = Arc::clone(&ran);
        let ha = exec
            .submit(JobSpec::new("a", "t"), map_plane(1, vec![5]))
            .unwrap();
        let hb = exec
            .submit(JobSpec::new("b", "t"), move |_: &ClusterConfig| {
                ran_b.store(true, Ordering::SeqCst);
                Ok((2u64, vec![metrics("p", &[5], 0, &[])]))
            })
            .unwrap();
        let report = exec.run();
        assert_eq!(
            (report.admitted, report.rejected, report.completed),
            (1, 1, 1)
        );
        assert!(exec.take(ha).is_finished());
        match exec.take(hb) {
            JobCompletion::Rejected(Error::AdmissionRejected {
                job,
                tenant,
                reason,
            }) => {
                assert_eq!((job.as_str(), tenant.as_str()), ("b", "t"));
                assert!(reason.contains("queue full"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(!ran.load(Ordering::SeqCst), "rejected plane must never run");
    }

    #[test]
    fn infeasible_reservation_is_rejected_at_submit() {
        let mut exec = ClusterExecutor::new(small_cluster(2, 1));
        let spec =
            JobSpec::new("big", "t").with_reservation(Reservation::default().with_slots(3, 0));
        let err = exec.submit(spec, map_plane(0, vec![1])).unwrap_err();
        assert!(matches!(err, Error::AdmissionRejected { .. }));
    }

    #[test]
    fn deadline_cancels_a_queued_job_without_running_its_plane() {
        let mut exec = ClusterExecutor::new(small_cluster(1, 1));
        let ran = Arc::new(AtomicBool::new(false));
        let ran_b = Arc::clone(&ran);
        let ha = exec
            .submit(JobSpec::new("a", "t"), map_plane(1, vec![20]))
            .unwrap();
        let hb = exec
            .submit(
                JobSpec::new("b", "t").with_deadline(ms(5)),
                move |_: &ClusterConfig| {
                    ran_b.store(true, Ordering::SeqCst);
                    Ok((2u64, vec![metrics("p", &[5], 0, &[])]))
                },
            )
            .unwrap();
        let report = exec.run();
        assert_eq!((report.completed, report.cancelled), (1, 1));
        assert!(exec.take(ha).is_finished());
        match exec.take(hb) {
            JobCompletion::Cancelled(err) => {
                assert!(
                    err.last_cause().contains("deadline"),
                    "{}",
                    err.last_cause()
                );
                assert_eq!(
                    err.metrics.map_tasks, 0,
                    "partial metrics for a never-run job"
                );
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        assert!(
            !ran.load(Ordering::SeqCst),
            "cancelled-in-queue plane must never run"
        );
        // The 5 ms spent queued still shows up in the tenant's wait.
        assert_eq!(report.tenants["t"].queue_wait, ms(5));
    }

    #[test]
    fn priority_preempts_and_requeues_through_backoff() {
        let mut exec = ClusterExecutor::new(small_cluster(1, 1)).with_scheduler(PriorityScheduler);
        let ha = exec
            .submit(JobSpec::new("low", "t"), map_plane(1, vec![20]))
            .unwrap();
        let hb = exec
            .submit(
                JobSpec::new("high", "t")
                    .with_priority(5)
                    .arriving_at(ms(1)),
                map_plane(2, vec![5]),
            )
            .unwrap();
        let report = exec.run();
        assert_eq!(report.preemptions, 1);
        assert_eq!(report.completed, 2);
        let high = exec.take(hb).unwrap();
        assert_eq!(
            high.stats.finished,
            ms(6),
            "high runs immediately after preempting"
        );
        let low = exec.take(ha).unwrap();
        assert_eq!(low.stats.preemptions, 1);
        assert_eq!(
            low.stats.wasted,
            ms(1),
            "1 ms of the killed attempt is wasted"
        );
        assert_eq!(low.jobs[0].preemptions, 1);
        assert_eq!(low.jobs[0].wasted_task_time, ms(1));
        // Re-queued at 1 ms + backoff_after(0) = 100 ms, reruns in full.
        assert_eq!(low.stats.finished, ms(121));
        assert_eq!(report.makespan, ms(121));
    }

    #[test]
    fn preemption_kills_speculative_backups_first() {
        let mut exec = ClusterExecutor::new(small_cluster(2, 1)).with_scheduler(PriorityScheduler);
        let ha = exec
            .submit(
                JobSpec::new("spec", "t").with_speculation(true),
                map_plane(1, vec![20]),
            )
            .unwrap();
        let hb = exec
            .submit(
                JobSpec::new("high", "t")
                    .with_priority(5)
                    .arriving_at(ms(1)),
                map_plane(2, vec![5]),
            )
            .unwrap();
        let report = exec.run();
        assert_eq!(report.preemptions, 1);
        let a = exec.take(ha).unwrap();
        // The backup died; the original was untouched and finishes on time.
        assert_eq!(a.stats.finished, ms(20));
        assert_eq!(a.stats.preemptions, 1);
        assert!(exec.take(hb).is_finished());
    }

    #[test]
    fn fair_share_splits_slot_ticks_evenly_between_equal_tenants() {
        let mut exec = ClusterExecutor::new(small_cluster(2, 1)).with_scheduler(FairShareScheduler);
        let mut handles = Vec::new();
        for tenant in ["x", "y"] {
            for i in 0..3 {
                let spec = JobSpec::new(format!("{tenant}-{i}"), tenant);
                handles.push(exec.submit(spec, map_plane(0, vec![10])).unwrap());
            }
        }
        let report = exec.run();
        assert_eq!(report.completed, 6);
        let x = report.tenants["x"].slot_ticks;
        let y = report.tenants["y"].slot_ticks;
        assert_eq!(x, y, "equal demand, equal weight: equal slot-ticks");
        // Conservation: tenant charges add up to the global total, which
        // equals the sum of per-job consumption.
        let per_job: u64 = handles
            .into_iter()
            .map(|h| exec.take(h).unwrap().stats.slot_ticks)
            .sum();
        assert_eq!(x + y, report.registry.counter("sched.slot_ticks"));
        assert_eq!(x + y, per_job);
    }

    #[test]
    fn stages_run_map_shuffle_reduce_in_sequence() {
        let mut exec = ClusterExecutor::new(small_cluster(2, 1));
        let h = exec
            .submit(JobSpec::new("j", "t"), |_: &ClusterConfig| {
                Ok(((), vec![metrics("s1", &[5, 5], 2, &[3])]))
            })
            .unwrap();
        let report = exec.run();
        // Map makespan 5 (two tasks, two slots), shuffle 2, reduce 3.
        assert_eq!(report.makespan, ms(10));
        assert_eq!(exec.take(h).unwrap().stats.finished, ms(10));
    }

    #[test]
    fn plane_failure_is_isolated_to_its_own_job() {
        let mut exec = ClusterExecutor::new(small_cluster(1, 1));
        let ha = exec
            .submit(
                JobSpec::new("bad", "t"),
                |_: &ClusterConfig| -> Result<(u64, Vec<JobMetrics>), Error> {
                    Err(Error::AdmissionRejected {
                        job: "bad".into(),
                        tenant: "t".into(),
                        reason: "stand-in data-plane failure".into(),
                    })
                },
            )
            .unwrap();
        let hb = exec
            .submit(JobSpec::new("good", "t"), map_plane(7, vec![5]))
            .unwrap();
        let report = exec.run();
        assert_eq!((report.failed, report.completed), (1, 1));
        assert!(matches!(exec.take(ha), JobCompletion::Failed(_)));
        assert_eq!(exec.take(hb).unwrap().output, 7);
    }

    #[test]
    fn submission_order_does_not_change_the_schedule() {
        let build = |order: &[usize]| {
            let specs = [("a", "x", 0u64, 7u64), ("b", "y", 2, 5), ("c", "x", 4, 9)];
            let mut exec =
                ClusterExecutor::new(small_cluster(1, 1)).with_scheduler(FairShareScheduler);
            let mut handles: Vec<Option<JobHandle<u64>>> = (0..3).map(|_| None).collect();
            for &i in order {
                let (name, tenant, arrival_ms, task_ms) = specs[i];
                let spec = JobSpec::new(name, tenant).arriving_at(ms(arrival_ms));
                handles[i] = Some(
                    exec.submit(spec, map_plane(i as u64, vec![task_ms]))
                        .unwrap(),
                );
            }
            let report = exec.run();
            let mut fingerprint = format!("{report:?}");
            for h in handles.into_iter().map(Option::unwrap) {
                let o = exec.take(h).unwrap();
                fingerprint.push_str(&format!("{:?}|{:?};", o.stats, o.output));
            }
            fingerprint
        };
        let base = build(&[0, 1, 2]);
        assert_eq!(base, build(&[2, 0, 1]));
        assert_eq!(base, build(&[1, 2, 0]));
    }

    #[test]
    fn telemetry_emits_queued_spans_and_sched_counters() {
        use skymr_telemetry::EventKind;
        let collector = Collector::new();
        let mut exec = ClusterExecutor::new(small_cluster(1, 1)).with_collector(collector.clone());
        let _ha = exec
            .submit(JobSpec::new("a", "t"), map_plane(1, vec![10]))
            .unwrap();
        let _hb = exec
            .submit(JobSpec::new("b", "t"), map_plane(2, vec![10]))
            .unwrap();
        exec.run();
        let doc = collector.finish();
        let queued: Vec<_> = doc
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Complete && e.name == "queued")
            .collect();
        assert_eq!(queued.len(), 2, "one queued span per admitted job");
        assert!(queued.iter().all(|e| e.cat == "sched"));
        let (_, registry) = &doc.registries[0];
        assert_eq!(registry.counter("sched.completed"), 2);
        assert_eq!(registry.counter("sched.tenant.t.slot_ticks"), 20_000);
    }
}
