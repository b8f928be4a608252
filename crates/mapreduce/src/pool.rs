//! A minimal work-stealing-free slot pool for executing indexed tasks.
//!
//! The engine needs deterministic result placement (results indexed by
//! task id), which a hand-rolled pool over `std::thread::scope` provides
//! with no surprises about task placement. It takes no timings: simulated
//! time is priced from what tasks count ([`crate::trace`]), never from how
//! long the host took to run them.
//!
//! This module is the **only** place in the workspace allowed to spawn
//! threads (clippy's `disallowed_methods` list in `clippy.toml` enforces it,
//! `std::thread::scope` included): funnelling every worker through
//! one pool keeps panic propagation and the schedule-shaker's thread-count
//! sweeps ([`crate::analysis`]) in one auditable spot.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Once;

use parking_lot::Mutex;

use placement::Spread;

/// Which CPU each worker of a phase runs on.
///
/// A new thread starts on the CPU of the thread that spawned it and stays
/// there until the kernel's load balancer moves it. A phase here lasts
/// milliseconds to tens of milliseconds — the order of the balancer's own
/// reaction time — and in a container whose cpuset has
/// `sched_load_balance` switched off there is no balancer at all: every
/// worker then shares the caller's CPU and the phase runs serially however
/// many `threads` it was given. (Measured on a 2-CPU host whose supervisor
/// toggles that flag with load: the same 2-thread job took 0.27 s with it
/// on and 0.32 s with it off, run after run.) So worker `k` binds itself
/// to the `k`-th CPU of the caller's affinity mask, counted from the CPU
/// the caller is on, wrapping round when there are more workers than CPUs.
/// The binding ends with the worker, at the end of the phase; the calling
/// thread's own mask is never touched. The price: a worker bound to a CPU
/// that another process is using waits for it instead of being moved, and
/// a task that opened a phase of its own (none does) would hand its one
/// CPU down to it.
#[cfg(target_os = "linux")]
mod placement {
    /// `cpu_set_t` of glibc and musl: one bit per CPU, 1024 CPUs.
    type CpuSet = [u64; 16];
    const CPU_SET_BYTES: usize = 16 * 8;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_getcpu() -> i32;
    }

    /// The CPU the calling thread is running on.
    pub(super) fn current_cpu() -> Option<usize> {
        // SAFETY: the call takes no arguments and only reads kernel state.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// The CPUs the calling thread may use, the one it is on first.
    #[derive(Debug)]
    pub(super) struct Spread {
        cpus: Vec<usize>,
    }

    impl Spread {
        /// `None` when the mask cannot be read (more than 1024 CPUs, a
        /// seccomp filter) or holds a single CPU: workers then run where
        /// the kernel puts them.
        pub(super) fn from_caller() -> Option<Self> {
            let mut allowed: CpuSet = [0; 16];
            // SAFETY: pid 0 is the calling thread, and `allowed` is a live,
            // writable buffer of exactly the `CPU_SET_BYTES` passed as its
            // size; the call requires nothing else of its arguments.
            if unsafe { sched_getaffinity(0, CPU_SET_BYTES, &mut allowed) } != 0 {
                return None;
            }
            let mut cpus: Vec<usize> = allowed
                .iter()
                .enumerate()
                .flat_map(|(i, word)| {
                    (0..64)
                        .filter(move |bit| word >> bit & 1 == 1)
                        .map(move |bit| i * 64 + bit)
                })
                .collect();
            if cpus.len() < 2 {
                return None;
            }
            let here = current_cpu();
            let caller = cpus.iter().position(|&cpu| Some(cpu) == here);
            cpus.rotate_left(caller.unwrap_or(0));
            Some(Self { cpus })
        }

        /// The CPUs, in worker order.
        #[cfg(test)]
        pub(super) fn cpus(&self) -> &[usize] {
            &self.cpus
        }

        /// Called first thing by worker `k` of the phase, on its own
        /// thread. A failed call leaves the thread where it is — the
        /// behaviour without this module.
        pub(super) fn bind_worker(&self, k: usize) {
            let Some(&cpu) = self.cpus.iter().cycle().nth(k) else {
                return;
            };
            let mut only: CpuSet = [0; 16];
            let Some(word) = only.get_mut(cpu / 64) else {
                return;
            };
            *word = 1 << (cpu % 64);
            // SAFETY: pid 0 is the calling thread, and `only` is a live
            // buffer of exactly the `CPU_SET_BYTES` passed as its size,
            // which the call only reads. Its one set bit was read out of
            // the mask this thread inherited from the caller, so the call
            // asks for no CPU the thread was not already allowed.
            unsafe {
                sched_setaffinity(0, CPU_SET_BYTES, &only);
            }
        }
    }
}

/// Nothing to bind with outside Linux: workers run where the OS puts them.
#[cfg(not(target_os = "linux"))]
mod placement {
    #[derive(Debug)]
    pub(super) struct Spread;

    impl Spread {
        pub(super) fn from_caller() -> Option<Self> {
            None
        }

        pub(super) fn bind_worker(&self, _k: usize) {}
    }
}

/// Runs `num_tasks` closures concurrently on at most `threads` workers.
///
/// `run(task_index)` is invoked exactly once per index (unless a task
/// panics). Returns the results in task-index order regardless of which
/// worker executed which task.
///
/// # Panics
///
/// Re-raises the **first** task panic *with its original payload*, so a
/// panicking map/reduce task fails the job with the task's own message
/// rather than a generic pool error. Later panics (tasks already running on
/// other workers when the first one fired) are dropped; remaining queued
/// tasks are drained without executing. Result slots written by tasks that
/// completed before the panic are discarded wholesale — no partially
/// poisoned output can escape because the panic is re-raised before the
/// results vector is returned.
pub fn run_indexed<T, F>(num_tasks: usize, threads: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    assert!(threads > 0, "pool requires at least one thread");
    if num_tasks == 0 {
        // Nothing to run: not worth a worker thread (the empty
        // re-execution waves of a clean job come through here).
        return Vec::new();
    }
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..num_tasks).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let panic_slot: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    let workers = threads.min(num_tasks);
    let spread = (workers > 1).then(Spread::from_caller).flatten();
    let worker = |k: usize| {
        if let Some(spread) = &spread {
            spread.bind_worker(k);
        }
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= num_tasks {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| run(i))) {
                Ok(value) => results.lock()[i] = Some(value),
                Err(payload) => {
                    let mut slot = panic_slot.lock();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    // Drain remaining work so other workers exit quickly.
                    next.store(num_tasks, Ordering::Relaxed);
                    break;
                }
            }
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the single audited spawn site: every worker of every phase starts here"
    )]
    std::thread::scope(|s| {
        // Joined by handle, not left to the scope: the scope only waits for
        // the closures to return, and a phase that starts while the last
        // phase's threads are still tearing down cannot reuse their malloc
        // arenas — each such overlap strands the memory those arenas cache
        // (measured: +15 MiB peak RSS per occurrence on a 200k-tuple job).
        let worker = &worker;
        let handles: Vec<_> = (0..workers).map(|k| s.spawn(move || worker(k))).collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });

    if let Some(payload) = panic_slot.into_inner() {
        resume_unwind(payload);
    }

    results
        .into_inner()
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("task {i} never executed")))
        .collect()
}

/// A panic captured from one task *attempt* by [`catch_attempt`].
///
/// Keeps both a human-readable message (extracted when the payload is the
/// usual `&str` / `String`) and the original payload, so the fault layer
/// can re-raise the exact panic once a task's retry budget is exhausted.
pub struct CaughtPanic {
    /// Best-effort textual form of the panic payload.
    pub message: String,
    /// The original payload, untouched.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl std::fmt::Debug for CaughtPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaughtPanic")
            .field("message", &self.message)
            .finish_non_exhaustive()
    }
}

thread_local! {
    /// True while the current thread is unwinding from a *deliberately
    /// injected* panic — the global hook stays silent for those.
    static QUIET_PANIC: Cell<bool> = const { Cell::new(false) };
}
static QUIET_HOOK: Once = Once::new();

/// Raises a deliberately injected panic without letting the global panic
/// hook print a message and backtrace to stderr: injected mid-task crashes
/// are expected control flow for the fault layer, not bugs worth a stderr
/// dump on every chaos run. Genuine UDF panics are unaffected — the hook
/// only goes quiet for panics raised through this function, and
/// [`catch_attempt`] re-arms printing as soon as the attempt is caught.
pub fn raise_injected_panic(message: String) -> ! {
    QUIET_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET_PANIC.with(Cell::get) {
                previous(info);
            }
        }));
    });
    QUIET_PANIC.with(|flag| flag.set(true));
    std::panic::panic_any(message)
}

/// Runs one task attempt, converting a panic into an `Err(CaughtPanic)`
/// instead of unwinding into the pool.
///
/// This is the fault-tolerance boundary the retry scheduler builds on: a
/// UDF panic caught here becomes a *task failure* (retried under the job's
/// [`crate::fault::RetryPolicy`]) rather than a job abort, so one crashing
/// attempt no longer poisons sibling tasks running on the same pool. The
/// catch lives next to [`run_indexed`] because together they define the
/// pool's complete panic story: caught per-attempt here, first-payload
/// re-raised there if a panic escapes anyway.
pub fn catch_attempt<T>(run: impl FnOnce() -> T) -> Result<T, CaughtPanic> {
    let caught = catch_unwind(AssertUnwindSafe(run));
    QUIET_PANIC.with(|flag| flag.set(false));
    match caught {
        Ok(value) => Ok(value),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(CaughtPanic { message, payload })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_task_exactly_once() {
        let calls = AtomicU64::new(0);
        let results = run_indexed(100, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 2
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_in_task_order_despite_concurrency() {
        let results = run_indexed(50, 8, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i
        });
        assert_eq!(results, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_fine() {
        let results: Vec<()> = run_indexed(0, 4, |_| ());
        assert!(results.is_empty());
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let results = run_indexed(2, 16, |i| i + 1);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn single_thread_runs_sequentially() {
        let seen = Mutex::new(BTreeSet::new());
        run_indexed(10, 1, |i| {
            seen.lock().insert(i);
        });
        assert_eq!(seen.into_inner().len(), 10);
    }

    /// Two tasks held at a barrier are on two workers at once; with two
    /// CPUs to use, binding puts them on different ones. (Nothing to check
    /// on one CPU, where there is no `Spread`, or where the sandbox refuses
    /// `sched_setaffinity` and the workers keep the caller's whole mask.)
    #[cfg(target_os = "linux")]
    #[test]
    fn concurrent_workers_run_on_distinct_cpus() {
        let Some(spread) = Spread::from_caller() else {
            return;
        };
        let both_running = std::sync::Barrier::new(2);
        let seen = run_indexed(2, 2, |_| {
            both_running.wait();
            let bound = Spread::from_caller().is_none();
            (placement::current_cpu(), bound)
        });
        let cpus: Vec<usize> = seen
            .iter()
            .filter_map(|(cpu, bound)| cpu.filter(|_| *bound))
            .collect();
        if let [first, second] = cpus[..] {
            assert_ne!(first, second, "workers share a CPU");
            assert!(spread.cpus().contains(&first) && spread.cpus().contains(&second));
        }
    }

    /// The binding is the worker's, not the caller's: after a phase the
    /// calling thread may still use every CPU it could before.
    #[cfg(target_os = "linux")]
    #[test]
    fn caller_keeps_its_affinity_mask() {
        let allowed = || {
            Spread::from_caller().map(|spread| {
                let mut cpus = spread.cpus().to_vec();
                cpus.sort_unstable();
                cpus
            })
        };
        let before = allowed();
        run_indexed(8, 4, |i| i);
        assert_eq!(allowed(), before);
    }

    #[test]
    fn task_panic_propagates() {
        let outcome = catch_unwind(|| {
            run_indexed(4, 2, |i| {
                if i == 2 {
                    panic!("boom in task");
                }
                i
            })
        });
        assert!(outcome.is_err());
    }

    /// Regression test: a panicking task must surface its *original*
    /// payload (message intact), and tasks that completed before the panic
    /// must not leak partially filled results — the call either returns a
    /// complete result vector or unwinds.
    #[test]
    fn task_panic_keeps_original_payload_and_poisons_nothing() {
        let completed = AtomicU64::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(16, 3, |i| {
                if i == 5 {
                    panic!("map task 5 exploded on split 5");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = outcome.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("payload must be the original panic message");
        assert_eq!(msg, "map task 5 exploded on split 5");
        // Some tasks finished before the panic, yet none of their slots
        // escaped: the unwind happened instead of a partial return.
        assert!(completed.load(Ordering::Relaxed) < 16);
    }

    /// Regression test (fault-tolerance layer): with retries enabled the
    /// per-attempt catch turns a panic on attempt 0 into an `Err`, so the
    /// pool never sees it and sibling tasks run to completion untouched.
    #[test]
    fn caught_attempt_panic_does_not_poison_siblings() {
        let completed = AtomicU64::new(0);
        let results = run_indexed(16, 3, |i| {
            let first = catch_attempt(|| {
                if i == 5 {
                    panic!("map task 5 exploded on attempt 0");
                }
                i
            });
            match first {
                Ok(v) => {
                    completed.fetch_add(1, Ordering::Relaxed);
                    v
                }
                // Retry: attempt 1 of the flaky task succeeds.
                Err(caught) => {
                    assert_eq!(caught.message, "map task 5 exploded on attempt 0");
                    completed.fetch_add(1, Ordering::Relaxed);
                    i
                }
            }
        });
        assert_eq!(
            completed.load(Ordering::Relaxed),
            16,
            "no sibling was poisoned"
        );
        assert_eq!(results, (0..16).collect::<Vec<_>>());
    }

    /// The payload captured by `catch_attempt` is the *original* one, so
    /// re-raising it after an exhausted retry budget surfaces the exact
    /// panic the UDF threw.
    #[test]
    fn caught_attempt_preserves_original_payload() {
        let err =
            catch_attempt(|| -> () { std::panic::panic_any(42_u64) }).expect_err("must catch");
        assert_eq!(err.message, "non-string panic payload");
        assert_eq!(err.payload.downcast_ref::<u64>(), Some(&42));
        let outcome = catch_unwind(AssertUnwindSafe(|| resume_unwind(err.payload)));
        let payload = outcome.expect_err("resume re-raises");
        assert_eq!(payload.downcast_ref::<u64>(), Some(&42));
    }

    /// When several tasks panic, the first observed payload wins and the
    /// pool still unwinds exactly once.
    #[test]
    fn first_of_many_panics_wins() {
        let outcome = catch_unwind(|| {
            run_indexed(8, 1, |i| {
                panic!("task {i} failed");
            })
        });
        let payload = outcome.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted panic payload is a String");
        // Single-threaded pool: task 0 is deterministically first.
        assert_eq!(msg, "task 0 failed");
    }
}
