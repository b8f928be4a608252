//! The cluster executor: the workspace's one list scheduler, a
//! deterministic discrete-event loop that runs jobs' priced steps over
//! shared slot pools.
//!
//! See the [module docs](super) for the two-plane architecture. The short
//! version: each submitted job carries a *data plane* closure (typically a
//! [`run_job`](crate::run_job) call) that is executed lazily, at the
//! simulated instant the scheduler first grants the job a slot. The
//! closure returns the job's output bytes plus the [`JobMetrics`] of the
//! MapReduce jobs it ran, each carrying the job's priced steps: waits, and
//! waves of tasks dispatched longest-first onto the lowest-indexed free
//! slot. The loop replays those steps as *control-plane* events competing
//! for the shared map/reduce slots. Queue waits, deadlines, and
//! preemptions all happen on the simulated clock, so every byte and every
//! `sched.*` counter is a pure function of the submission set. A job run
//! alone — what [`JobRecord::timeline`](crate::trace::JobRecord::timeline)
//! does — is the same loop with one job.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;
use std::time::Duration;

use skymr_common::{Counters, Error};
use skymr_telemetry::{Collector, JobTrace, MetricsRegistry, Span, Ticks};

use crate::cluster::{ClusterConfig, JobMetrics};
use crate::fault::{AttemptFailure, FailureCause, JobError, RetryPolicy, TaskKind};
use crate::trace::{from_ticks, ticks_of};

use super::admission::{AdmissionConfig, AdmissionController, Reservation};
use super::scheduler::{AttemptView, CandidateView, FifoScheduler, Scheduler};

/// Type-erased data plane: computes the job's output and reports the
/// modeled metrics of the MapReduce jobs it ran.
type Plane =
    Box<dyn FnOnce(&ClusterConfig) -> Result<(Box<dyn Any + Send>, Vec<JobMetrics>), Error> + Send>;

/// A job's terminal state before [`ClusterExecutor::take`] restores its
/// output type.
type Erased = JobCompletion<Box<dyn Any + Send>>;

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
    /// When the job arrives, on the simulated clock.
    pub arrival: Duration,
    /// Resources the job asks the admission controller to set aside.
    pub reservation: Reservation,
    /// Absolute simulated-clock deadline. A job not finished by this
    /// instant is cancelled — cleanly, with partial metrics — whether it
    /// is still queued or already running.
    pub deadline: Option<Duration>,
    /// Launch speculative backup attempts on otherwise-idle slots. A
    /// backup duplicates a running attempt; it is the preferred
    /// preemption victim (killing it loses no task) and keeps the task
    /// alive if the original is preempted.
    pub speculate: bool,
}

impl JobSpec {
    /// A spec with neutral scheduling parameters: priority 0, arrival at
    /// time zero, a minimal reservation, no deadline.
    pub fn new(name: impl Into<String>, tenant: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tenant: tenant.into(),
            priority: 0,
            arrival: Duration::ZERO,
            reservation: Reservation::default(),
            deadline: None,
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
    /// (all the slot time the job consumed counted as
    /// `wasted_task_time`) and a [`FailureCause::Cancelled`] attempt
    /// history.
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
    results: Vec<Option<Erased>>,
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
        let Some(erased) = self.results[handle.submit_idx].take() else {
            panic!("job result already taken")
        };
        match erased {
            JobCompletion::Finished(SchedOutcome {
                output,
                jobs,
                stats,
            }) => {
                let Ok(output) = output.downcast::<T>() else {
                    panic!("JobHandle output type mismatch")
                };
                JobCompletion::Finished(SchedOutcome {
                    output: *output,
                    jobs,
                    stats,
                })
            }
            JobCompletion::Rejected(e) => JobCompletion::Rejected(e),
            JobCompletion::Cancelled(e) => JobCompletion::Cancelled(e),
            JobCompletion::Failed(e) => JobCompletion::Failed(e),
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
            sims.push(Sim::new(spec, Some(plane), idx));
        }

        let mut engine = Engine::new(&self.cluster, self.admission.clone(), sims);
        engine.run(self.scheduler.as_mut());
        let report = engine.build_report(self.scheduler.name());
        engine.commit_results(&mut self.results);
        if let Some(collector) = &self.collector {
            engine.emit_trace(collector, &report.registry);
        }
        report
    }
}

/// Runs one job's steps alone through the executor's loop — FIFO,
/// default admission, arriving at tick 0 — and returns its event log, one
/// entry per step. [`JobRecord::timeline`](crate::trace::JobRecord::timeline)
/// is this call.
///
/// # Panics
///
/// Panics if the job cannot finish: the cluster has no map slot to start
/// it on, or a wave has tasks and no slot to run them on.
pub fn run_alone(cluster: &ClusterConfig, steps: Vec<Step>) -> Vec<Wave> {
    let mut sim = Sim::new(JobSpec::new("", ""), None, 0);
    sim.steps = steps;
    sim.output = Some(Box::new(()));
    let mut engine = Engine::new(cluster, AdmissionController::default(), vec![sim]);
    engine.run(&mut FifoScheduler);
    let sim = engine.sims.swap_remove(0);
    assert!(
        matches!(sim.result, Some(JobCompletion::Finished(_))),
        "a job alone on the cluster finishes unless it has no slot to run on"
    );
    sim.log
}

// ---------------------------------------------------------------------
// The discrete-event simulation.
// ---------------------------------------------------------------------

/// One step of a job's priced plan; a job runs its steps in order.
#[derive(Debug, Clone)]
pub enum Step {
    /// Time that passes on no slot: startup and broadcast, heartbeat
    /// timeouts, the shuffle.
    Wait(Ticks),
    /// Tasks on `kind` slots, at most `cap` at once, each dispatched
    /// longest first onto the lowest-indexed free slot.
    Wave {
        /// The slot pool the tasks run on.
        kind: TaskKind,
        /// Most of the wave's tasks that may run at once.
        cap: usize,
        /// Each task's whole slot time, launch overhead included.
        tasks: Vec<Ticks>,
    },
}

/// Where one task of a wave ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Slot {
    /// Slot index within its pool.
    pub slot: usize,
    /// Tick the task launched.
    pub start: Ticks,
    /// Tick it committed.
    pub end: Ticks,
}

/// The event log of one step: when it began and ended and, for a wave,
/// where each task ran (indexed like the wave's tasks).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wave {
    /// Tick the step began.
    pub start: Ticks,
    /// Tick it ended (`start` for an empty step).
    pub end: Ticks,
    /// Each task's committed run; empty for a wait.
    pub slots: Vec<Slot>,
}

impl Wave {
    /// The step's length.
    pub fn span(&self) -> Ticks {
        self.end - self.start
    }
}

impl JobMetrics {
    /// A job priced by hand, for data planes that model their jobs instead
    /// of running them: map tasks of the given slot times, a shuffle wait,
    /// then reduce tasks, each wave as wide as the cluster allows. The
    /// steps the executor replays are built here, so these metrics price
    /// the job the same way a [`run_job`](crate::run_job) result does.
    pub fn priced(name: &str, map: &[Duration], shuffle: Duration, reduce: &[Duration]) -> Self {
        let mut m = Self::empty(name, map.len(), reduce.len());
        m.map_task_durations = map.to_vec();
        m.reduce_task_durations = reduce.to_vec();
        m.shuffle_time = shuffle;
        let wave = |kind, durations: &[Duration]| Step::Wave {
            kind,
            cap: usize::MAX,
            tasks: durations.iter().map(|d| ticks_of(*d)).collect(),
        };
        m.steps = vec![wave(TaskKind::Map, map)];
        if !reduce.is_empty() {
            m.steps.push(Step::Wait(ticks_of(shuffle)));
            m.steps.push(wave(TaskKind::Reduce, reduce));
        }
        m
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SimState {
    /// Not yet arrived on the simulated clock.
    Future,
    /// Admitted, waiting for the scheduler's first grant.
    Queued,
    /// Started: running its steps.
    Running,
    /// Finished, rejected, cancelled, or failed.
    Terminal,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Pending { ready: u64, attempt: u32 },
    Running,
    Done,
}

/// One job's facts. The report, the `sched.*` counters and fair share's
/// tenant usage are all folds over these.
struct Sim {
    spec: JobSpec,
    submit_idx: usize,
    arrival: u64,
    deadline: Option<u64>,
    plane: Option<Plane>,
    state: SimState,
    output: Option<Box<dyn Any + Send>>,
    jobs: Vec<JobMetrics>,
    steps: Vec<Step>,
    /// Index of the running step.
    step: usize,
    /// One entry per step.
    log: Vec<Wave>,
    /// When the running wait ends.
    wait_until: Option<u64>,
    /// The running wave's tasks.
    tasks: Vec<TaskState>,
    /// Queue wait in ticks, recorded at the first grant (or at
    /// cancellation for jobs that never start). `None` until then, and
    /// for a job rejected at arrival.
    queued_wait: Option<u64>,
    preemptions: u64,
    wasted_ticks: u64,
    /// Slot-ticks charged to the job: completed attempts at full
    /// duration, killed attempts at elapsed duration.
    slot_ticks: u64,
    result: Option<Erased>,
}

impl Sim {
    fn new(spec: JobSpec, plane: Option<Plane>, submit_idx: usize) -> Self {
        let arrival = ticks_of(spec.arrival);
        let deadline = spec.deadline.map(ticks_of);
        Self {
            spec,
            submit_idx,
            arrival,
            deadline,
            plane,
            state: SimState::Future,
            output: None,
            jobs: Vec::new(),
            steps: Vec::new(),
            step: 0,
            log: Vec::new(),
            wait_until: None,
            tasks: Vec::new(),
            queued_wait: None,
            preemptions: 0,
            wasted_ticks: 0,
            slot_ticks: 0,
            result: None,
        }
    }

    /// The running step, if it is a wave of `kind`: its cap and task costs.
    fn wave(&self, kind: TaskKind) -> Option<(usize, &[Ticks])> {
        match self.steps.get(self.step) {
            Some(Step::Wave {
                kind: k,
                cap,
                tasks,
            }) if *k == kind => Some((*cap, tasks)),
            _ => None,
        }
    }

    /// Writes the job's scheduling story into `m`: queue wait,
    /// preemptions, and the slot time it wasted.
    fn patch_story(&self, m: &mut JobMetrics) {
        m.queue_wait_time = from_ticks(self.queued_wait.unwrap_or(0));
        m.preemptions = self.preemptions;
        m.wasted_task_time += from_ticks(self.wasted_ticks);
    }
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    id: u64,
    job: usize,
    kind: TaskKind,
    task: usize,
    slot: usize,
    attempt_no: u32,
    speculative: bool,
    started: u64,
    finish: u64,
}

impl Attempt {
    /// The attempt's whole modeled slot time.
    fn ticks(&self) -> u64 {
        self.finish - self.started
    }
}

struct PreemptEvent {
    at: u64,
    job: String,
    task: u64,
    attempt: u64,
}

struct Engine<'a> {
    cluster: &'a ClusterConfig,
    admission: AdmissionController,
    sims: Vec<Sim>,
    running: Vec<Attempt>,
    events: BTreeSet<u64>,
    next_attempt_id: u64,
    preempt_log: Vec<PreemptEvent>,
    makespan: u64,
}

impl<'a> Engine<'a> {
    fn new(cluster: &'a ClusterConfig, admission: AdmissionController, sims: Vec<Sim>) -> Self {
        let mut events = BTreeSet::new();
        for sim in &sims {
            events.insert(sim.arrival);
            if let Some(d) = sim.deadline {
                events.insert(d);
            }
        }
        Self {
            cluster,
            admission,
            sims,
            running: Vec::new(),
            events,
            next_attempt_id: 0,
            preempt_log: Vec::new(),
            makespan: 0,
        }
    }

    /// Runs the event loop until every job is terminal.
    fn run(&mut self, scheduler: &mut dyn Scheduler) {
        while let Some(now) = self.events.pop_first() {
            self.process_completions(now);
            self.process_deadlines(now);
            self.process_arrivals(now);
            self.dispatch(scheduler, now);
        }
        // A scheduler that refuses to pick can leave admitted jobs
        // stranded; drain them as cancellations so every handle resolves.
        let makespan = self.makespan;
        for j in 0..self.sims.len() {
            if self.sims[j].state != SimState::Terminal {
                self.cancel_job(
                    j,
                    makespan,
                    "executor drained its event queue with the job still waiting",
                );
            }
        }
    }

    fn pool(&self, kind: TaskKind) -> usize {
        match kind {
            TaskKind::Map => self.cluster.map_slots,
            TaskKind::Reduce => self.cluster.reduce_slots,
        }
    }

    /// Whether an attempt holds its slot at `now`. One that ends at `now`
    /// has already handed it on, so a zero-tick task leaves its slot free.
    fn holds(a: &Attempt, now: u64) -> bool {
        a.finish > now
    }

    /// The lowest-indexed `kind` slot free at `now`.
    fn free_slot(&self, kind: TaskKind, now: u64) -> Option<usize> {
        let taken = |s| {
            self.running
                .iter()
                .any(|a| a.kind == kind && a.slot == s && Self::holds(a, now))
        };
        (0..self.pool(kind)).find(|&s| !taken(s))
    }

    /// Whether job `j` is running a `kind` wave and holds fewer of its
    /// slots than the wave's cap.
    fn has_room(&self, j: usize, kind: TaskKind, now: u64) -> bool {
        let sim = &self.sims[j];
        let Some((cap, _)) = sim.wave(kind) else {
            return false;
        };
        let held = self
            .running
            .iter()
            .filter(|a| a.job == j && a.kind == kind && Self::holds(a, now));
        sim.state == SimState::Running && held.count() < cap
    }

    /// Job `j`'s next task for a free `kind` slot: the longest ready task
    /// of its running wave, ties on the lower index.
    fn ready_task(&self, j: usize, kind: TaskKind, now: u64) -> Option<usize> {
        if !self.has_room(j, kind, now) {
            return None;
        }
        let sim = &self.sims[j];
        let (_, costs) = sim.wave(kind)?;
        let ready = |(_, t): &(usize, &TaskState)| matches!(t, TaskState::Pending { ready, .. } if *ready <= now);
        sim.tasks
            .iter()
            .enumerate()
            .filter(ready)
            .max_by_key(|&(i, _)| (costs[i], std::cmp::Reverse(i)))
            .map(|(i, _)| i)
    }

    /// Removes a running attempt, charging its elapsed slot time to the
    /// job as waste.
    fn kill_attempt(&mut self, running_idx: usize, now: u64) -> Attempt {
        let a = self.running.remove(running_idx);
        let elapsed = now.saturating_sub(a.started);
        let sim = &mut self.sims[a.job];
        sim.slot_ticks += elapsed;
        sim.wasted_ticks += elapsed;
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
        for j in 0..self.sims.len() {
            if self.sims[j].state == SimState::Running && self.sims[j].wait_until == Some(now) {
                self.sims[j].wait_until = None;
                self.complete_step(j, now);
            }
        }
    }

    fn complete_attempt(&mut self, a: Attempt, now: u64) {
        let sim = &mut self.sims[a.job];
        sim.slot_ticks += a.ticks();
        if sim.state != SimState::Running {
            return;
        }
        if sim.tasks[a.task] == TaskState::Done {
            // A duplicate finished in the same tick as the winner: its
            // full duration is wasted work.
            sim.wasted_ticks += a.ticks();
            return;
        }
        sim.tasks[a.task] = TaskState::Done;
        sim.log[sim.step].slots[a.task] = Slot {
            slot: a.slot,
            start: a.started,
            end: now,
        };
        // Kill losing duplicates of the now-complete task.
        while let Some(idx) = self
            .running
            .iter()
            .position(|r| r.job == a.job && r.kind == a.kind && r.task == a.task)
        {
            self.kill_attempt(idx, now);
        }
        if self.sims[a.job].tasks.iter().all(|t| *t == TaskState::Done) {
            self.complete_step(a.job, now);
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
            let spec = &self.sims[j].spec;
            match self
                .admission
                .admit(&spec.name, &spec.tenant, &spec.reservation)
            {
                Ok(()) => self.sims[j].state = SimState::Queued,
                Err(e) => self.end_job(j, now, JobCompletion::Rejected(e)),
            }
        }
    }

    // --- job lifecycle ---------------------------------------------------

    /// Runs a queued job's data plane, if it has one, and enters its first
    /// step. The plane executes *now* on the host, at the simulated
    /// instant of the first grant — a queued job has never run it.
    fn start_job(&mut self, j: usize, now: u64) {
        debug_assert_eq!(self.sims[j].state, SimState::Queued);
        self.admission.start();
        let sim = &mut self.sims[j];
        sim.state = SimState::Running;
        sim.queued_wait = Some(now.saturating_sub(sim.arrival));
        if let Some(plane) = sim.plane.take() {
            match plane(self.cluster) {
                Ok((output, jobs)) => {
                    sim.steps = jobs.iter().flat_map(|m| m.steps.iter().cloned()).collect();
                    sim.output = Some(output);
                    sim.jobs = jobs;
                }
                Err(e) => return self.end_job(j, now, JobCompletion::Failed(e)),
            }
        }
        // The job starts on the map slot it was granted: a leading wait
        // (startup and broadcast) holds that slot, or every queued job
        // would start in the same tick.
        if let Some(&Step::Wait(lead)) = sim.steps.first() {
            if lead > 0 {
                sim.steps[0] = Step::Wave {
                    kind: TaskKind::Map,
                    cap: 1,
                    tasks: vec![lead],
                };
            }
        }
        sim.log = vec![Wave::default(); sim.steps.len()];
        self.enter_step(j, now);
    }

    /// Begins the job's step `sim.step` at `now`, passing over empty
    /// ones; a job past its last step finishes.
    fn enter_step(&mut self, j: usize, now: u64) {
        let sim = &mut self.sims[j];
        while let Some(step) = sim.steps.get(sim.step) {
            let log = &mut sim.log[sim.step];
            (log.start, log.end) = (now, now);
            match step {
                Step::Wait(ticks) if *ticks > 0 => {
                    sim.wait_until = Some(now + ticks);
                    self.events.insert(now + ticks);
                    return;
                }
                Step::Wave { tasks, .. } if !tasks.is_empty() => {
                    let pending = TaskState::Pending {
                        ready: now,
                        attempt: 0,
                    };
                    sim.tasks = vec![pending; tasks.len()];
                    log.slots = vec![Slot::default(); tasks.len()];
                    return;
                }
                _ => sim.step += 1,
            }
        }
        let wait = sim.queued_wait.unwrap_or(0);
        let stats = JobSchedStats {
            arrival: from_ticks(sim.arrival),
            started: from_ticks(sim.arrival + wait),
            finished: from_ticks(now),
            queue_wait: from_ticks(wait),
            preemptions: sim.preemptions,
            wasted: from_ticks(sim.wasted_ticks),
            slot_ticks: sim.slot_ticks,
        };
        let mut jobs = std::mem::take(&mut sim.jobs);
        if let Some(first) = jobs.first_mut() {
            sim.patch_story(first);
        }
        let Some(output) = sim.output.take() else {
            unreachable!("a job only finishes after its plane succeeded")
        };
        let outcome = SchedOutcome {
            output,
            jobs,
            stats,
        };
        self.end_job(j, now, JobCompletion::Finished(outcome));
    }

    /// Ends the job's running step at `now` and begins the next.
    fn complete_step(&mut self, j: usize, now: u64) {
        let sim = &mut self.sims[j];
        sim.log[sim.step].end = now;
        sim.step += 1;
        self.enter_step(j, now);
    }

    fn cancel_job(&mut self, j: usize, now: u64, reason: &str) {
        let sim = &mut self.sims[j];
        // A job cancelled before its first grant waited until now.
        sim.queued_wait
            .get_or_insert_with(|| now.saturating_sub(sim.arrival));
        // Kill anything still on a slot, charging elapsed time.
        let mut first_killed = None;
        while let Some(idx) = self.running.iter().position(|a| a.job == j) {
            let a = self.kill_attempt(idx, now);
            first_killed.get_or_insert(a);
        }
        // No output of a cancelled job survives: all its slot time is waste.
        let sim = &mut self.sims[j];
        sim.wasted_ticks = sim.slot_ticks;
        let (task, index, attempts) = first_killed.map_or((TaskKind::Map, 0, 0), |a| {
            (a.kind, a.task, a.attempt_no + 1)
        });
        let mut metrics = sim
            .jobs
            .first()
            .cloned()
            .unwrap_or_else(|| JobMetrics::empty(&sim.spec.name, 0, 0));
        sim.patch_story(&mut metrics);
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
        self.end_job(j, now, JobCompletion::Cancelled(Box::new(err)));
    }

    /// The one way a job ends — rejected at arrival, plane failed,
    /// cancelled, or finished: stores its result, returns what admission
    /// holds for it, and advances the makespan.
    fn end_job(&mut self, j: usize, now: u64, result: Erased) {
        let sim = &mut self.sims[j];
        // A job rejected at arrival holds nothing.
        if sim.state != SimState::Future {
            let started = sim.state == SimState::Running;
            self.admission.release(&sim.spec.reservation, started);
        }
        sim.state = SimState::Terminal;
        sim.result = Some(result);
        self.makespan = self.makespan.max(now);
    }

    // --- dispatch --------------------------------------------------------

    fn dispatch(&mut self, scheduler: &mut dyn Scheduler, now: u64) {
        loop {
            let mut progress = false;
            for kind in [TaskKind::Map, TaskKind::Reduce] {
                // Regular fill: offer each free slot to the policy.
                while self.free_slot(kind, now).is_some() {
                    let Some(c) = self.pick(scheduler, kind, now) else {
                        break;
                    };
                    self.grant(c.seq, kind, now);
                    progress = true;
                }
                // Speculation: duplicate running attempts of opted-in
                // jobs onto otherwise-idle slots.
                while self.free_slot(kind, now).is_some() {
                    if !self.launch_backup(kind, now) {
                        break;
                    }
                    progress = true;
                }
                // Preemption: a starved candidate may evict lower-value
                // running work, if the policy allows it.
                while self.free_slot(kind, now).is_none() {
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

    /// The candidate the policy picks for a free `kind` slot, if any.
    fn pick(
        &self,
        scheduler: &mut dyn Scheduler,
        kind: TaskKind,
        now: u64,
    ) -> Option<CandidateView> {
        let cands = self.candidate_views(kind, now);
        if cands.is_empty() {
            return None;
        }
        scheduler.pick(&cands).map(|i| cands[i].clone())
    }

    fn grant(&mut self, j: usize, kind: TaskKind, now: u64) {
        if self.sims[j].state == SimState::Queued {
            self.start_job(j, now);
        }
        let Some(task) = self.ready_task(j, kind, now) else {
            return;
        };
        let TaskState::Pending {
            attempt: attempt_no,
            ..
        } = self.sims[j].tasks[task]
        else {
            unreachable!("ready_task returned a non-pending task");
        };
        self.sims[j].tasks[task] = TaskState::Running;
        self.launch(j, kind, task, attempt_no, false, now);
    }

    /// Puts an attempt of the job's task on the lowest-indexed free slot.
    fn launch(
        &mut self,
        job: usize,
        kind: TaskKind,
        task: usize,
        attempt_no: u32,
        speculative: bool,
        now: u64,
    ) {
        let Some(slot) = self.free_slot(kind, now) else {
            unreachable!("attempts launch only onto a free slot")
        };
        let ticks = self.sims[job]
            .wave(kind)
            .map_or(0, |(_, costs)| costs[task]);
        let id = self.next_attempt_id;
        self.next_attempt_id += 1;
        let finish = now + ticks;
        self.running.push(Attempt {
            id,
            job,
            kind,
            task,
            slot,
            attempt_no,
            speculative,
            started: now,
            finish,
        });
        self.events.insert(finish);
    }

    fn launch_backup(&mut self, kind: TaskKind, now: u64) -> bool {
        // Candidate backups: running, non-speculative attempts of
        // speculate-enabled jobs with room in their wave, no dispatchable
        // pending work and no existing backup for the task. Longest
        // remaining first.
        let has_backup = |a: &Attempt| {
            self.running
                .iter()
                .any(|r| r.speculative && r.job == a.job && r.kind == kind && r.task == a.task)
        };
        let pick = self
            .running
            .iter()
            .filter(|a| {
                a.kind == kind
                    && !a.speculative
                    && Self::holds(a, now)
                    && self.sims[a.job].spec.speculate
                    && self.has_room(a.job, kind, now)
                    && self.ready_task(a.job, kind, now).is_none()
                    && !has_backup(a)
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
        self.launch(job, kind, task, attempt_no, true, now);
        true
    }

    fn try_preempt(&mut self, scheduler: &mut dyn Scheduler, kind: TaskKind, now: u64) -> bool {
        let Some(claimant) = self.pick(scheduler, kind, now) else {
            return false;
        };
        let (views, indices) = self.attempt_views(kind, now);
        let Some(victim) = scheduler.preempt(&claimant, &views).map(|i| indices[i]) else {
            return false;
        };
        self.preempt_attempt(victim, now);
        self.grant(claimant.seq, kind, now);
        true
    }

    fn preempt_attempt(&mut self, running_idx: usize, now: u64) {
        let a = self.kill_attempt(running_idx, now);
        self.sims[a.job].preemptions += 1;
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
        // A preempted attempt pays Hadoop's backoff and counts against the
        // default attempt budget, as a failed one would.
        let budget = RetryPolicy::new().attempt_budget();
        if next_attempt >= budget {
            self.cancel_job(a.job, now, "preemption exhausted the task retry budget");
            return;
        }
        let backoff = ticks_of(RetryPolicy::backoff_after(a.attempt_no));
        let ready = now + backoff;
        self.sims[a.job].tasks[a.task] = TaskState::Pending {
            ready,
            attempt: next_attempt,
        };
        self.events.insert(ready);
    }

    /// The policy's view of the schedulable jobs, in canonical order.
    /// Tenant usage shown to the policy is charged slot-ticks plus the
    /// full committed duration of running attempts — commitments are what
    /// stop a tenant with many short tasks from starving one with few long
    /// tasks.
    fn candidate_views(&self, kind: TaskKind, now: u64) -> Vec<CandidateView> {
        let used = |tenant: &str| -> u64 {
            let of_tenant = |j: usize| self.sims[j].spec.tenant == tenant;
            let charged = (0..self.sims.len()).filter(|&j| of_tenant(j));
            let committed = self.running.iter().filter(|a| of_tenant(a.job));
            charged.map(|j| self.sims[j].slot_ticks).sum::<u64>()
                + committed.map(Attempt::ticks).sum::<u64>()
        };
        self.sims
            .iter()
            .enumerate()
            .filter(|&(j, sim)| match sim.state {
                // An unstarted job's task shape is unknown until its plane
                // runs; it bids for a map slot (jobs here always map first).
                SimState::Queued => kind == TaskKind::Map,
                SimState::Running => self.ready_task(j, kind, now).is_some(),
                _ => false,
            })
            .map(|(seq, sim)| CandidateView {
                seq,
                arrival: sim.arrival,
                priority: sim.spec.priority,
                tenant_used: used(&sim.spec.tenant),
            })
            .collect()
    }

    /// The policy's view of the attempts holding `kind` slots, in
    /// canonical order, alongside each view's index into `running`.
    fn attempt_views(&self, kind: TaskKind, now: u64) -> (Vec<AttemptView>, Vec<usize>) {
        let running = &self.running;
        let mut order: Vec<usize> = (0..running.len())
            .filter(|&i| running[i].kind == kind && Self::holds(&running[i], now))
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
            .map(|&i| AttemptView {
                seq: running[i].job,
                priority: self.sims[running[i].job].spec.priority,
                task_index: running[i].task,
                speculative: running[i].speculative,
            })
            .collect();
        (views, order)
    }

    // --- reporting -------------------------------------------------------

    /// Folds the jobs' facts into the report and its `sched.*` counters.
    fn build_report(&self, policy: &'static str) -> SchedReport {
        let mut r = SchedReport {
            policy,
            submitted: self.sims.len() as u64,
            admitted: 0,
            rejected: 0,
            completed: 0,
            cancelled: 0,
            failed: 0,
            preemptions: 0,
            makespan: from_ticks(self.makespan),
            tenants: BTreeMap::new(),
            registry: MetricsRegistry::new(),
        };
        let (mut queue_wait_ticks, mut slot_ticks) = (0, 0);
        for sim in &self.sims {
            match sim.result {
                Some(JobCompletion::Finished(_)) => r.completed += 1,
                Some(JobCompletion::Rejected(_)) => r.rejected += 1,
                Some(JobCompletion::Cancelled(_)) => r.cancelled += 1,
                Some(JobCompletion::Failed(_)) => r.failed += 1,
                None => unreachable!("run() drains stranded jobs, so every sim is terminal"),
            }
            let wait = sim.queued_wait.unwrap_or(0);
            r.preemptions += sim.preemptions;
            queue_wait_ticks += wait;
            slot_ticks += sim.slot_ticks;
            let t = r.tenants.entry(sim.spec.tenant.clone()).or_default();
            t.jobs += 1;
            t.slot_ticks += sim.slot_ticks;
            t.queue_wait += from_ticks(wait);
        }
        r.admitted = r.submitted - r.rejected;
        let registry = &mut r.registry;
        registry.add("sched.submitted", r.submitted);
        registry.add("sched.admitted", r.admitted);
        registry.add("sched.rejected", r.rejected);
        registry.add("sched.completed", r.completed);
        registry.add("sched.cancelled", r.cancelled);
        registry.add("sched.failed", r.failed);
        registry.add("sched.preemptions", r.preemptions);
        registry.add("sched.queue_wait_ticks", queue_wait_ticks);
        registry.add("sched.slot_ticks", slot_ticks);
        for (tenant, t) in &r.tenants {
            registry.add(&format!("sched.tenant.{tenant}.jobs"), t.jobs);
            registry.add(&format!("sched.tenant.{tenant}.slot_ticks"), t.slot_ticks);
            let wait = ticks_of(t.queue_wait);
            registry.add(&format!("sched.tenant.{tenant}.queue_wait_ticks"), wait);
        }
        r
    }

    fn commit_results(&mut self, results: &mut [Option<Erased>]) {
        for sim in &mut self.sims {
            results[sim.submit_idx] = sim.result.take();
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
        let ms =
            |v: &[u64]| -> Vec<Duration> { v.iter().map(|&v| Duration::from_millis(v)).collect() };
        JobMetrics::priced(
            name,
            &ms(map_ms),
            Duration::from_millis(shuffle_ms),
            &ms(reduce_ms),
        )
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
        assert_eq!(x, y, "equal demand: equal slot-ticks");
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
