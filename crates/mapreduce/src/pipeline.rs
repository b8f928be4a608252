//! Metrics aggregation and checkpoint/resume for chained jobs.
//!
//! The paper's skyline algorithms are two-job pipelines: the bitstring
//! generation job followed by the skyline computation job ("For MR-GPSRS
//! and MR-GPMRS algorithms, we include the time cost of the bitstring
//! generation in the runtime", Section 7.1). [`PipelineMetrics`] holds the
//! per-job metrics of such a chain and exposes the end-to-end simulated
//! runtime the benchmarks report.
//!
//! [`Runner`] adds Hadoop-JobControl-style durability to such chains: after
//! each job completes, its forward-flowing output is snapshotted into a
//! [`Checkpoint`] (in memory, and optionally to a file of CRC32C frames). A chain
//! killed between jobs — simulated deterministically with
//! [`Runner::with_kill_after`] — can be restarted from the last completed
//! job with [`Runner::resume`]; because UDFs are pure, the resumed chain
//! produces byte-identical outputs to an uninterrupted run.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::Duration;

use skymr_common::bytes::{frame_begin, frame_decode, frame_end};
use skymr_common::{Error, Wire, WireCursor};

use crate::cluster::JobMetrics;
use crate::fault::JobError;
use crate::job::JobOutcome;
use crate::sched::Step;
use crate::trace::ticks_of;

/// Metrics of a chain of MapReduce jobs executed one after another.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Per-job metrics in execution order.
    pub jobs: Vec<JobMetrics>,
}

impl PipelineMetrics {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a job's metrics.
    pub fn push(&mut self, metrics: JobMetrics) {
        self.jobs.push(metrics);
    }

    /// Folds one job of a chain into the pipeline and propagates failure —
    /// the chain-abort policy in one place.
    ///
    /// On success the job's metrics are recorded and the outcome handed
    /// back; on failure the *partial* metrics carried by the [`JobError`]
    /// are recorded (so the time the doomed job consumed stays visible in
    /// [`PipelineMetrics::sim_runtime`]) and the error is returned for the
    /// caller to bubble up, cleanly aborting the remaining jobs:
    ///
    /// ```ignore
    /// let first = metrics.track(run_job(...))?;   // chain stops here on failure
    /// let second = metrics.track(run_job(...))?;  // never runs after an abort
    /// ```
    pub fn track<Out>(
        &mut self,
        result: Result<JobOutcome<Out>, JobError>,
    ) -> Result<JobOutcome<Out>, JobError> {
        match &result {
            Ok(outcome) => self.push(outcome.metrics.clone()),
            Err(err) => self.push((*err.metrics).clone()),
        }
        result
    }

    /// End-to-end simulated runtime: jobs run back to back.
    pub fn sim_runtime(&self) -> Duration {
        self.jobs.iter().map(|j| j.sim_runtime).sum()
    }

    /// Total host wall-clock time actually spent executing.
    pub fn host_wall(&self) -> Duration {
        self.jobs.iter().map(|j| j.host_wall).sum()
    }

    /// Total bytes shuffled across all jobs.
    pub fn shuffle_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle_bytes).sum()
    }

    /// Looks up a job's metrics by name.
    pub fn job(&self, name: &str) -> Option<&JobMetrics> {
        self.jobs.iter().find(|j| j.name == name)
    }

    /// Renders the per-phase breakdown of every job in the chain as an
    /// aligned text table: one row per job with its phases and its
    /// fault-tolerance story, in model time.
    pub fn phase_table(&self) -> String {
        crate::summary::phase_table(&self.jobs)
    }
}

/// One completed job's checkpoint entry: the `Wire`-encoded
/// forward-flowing value plus the simulated time the job cost (restored
/// into the pipeline clock on resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSnapshot {
    /// The stage name (must match the [`Runner::stage`] call on resume).
    pub name: String,
    /// The stage value's [`Wire`] encoding.
    pub payload: Vec<u8>,
    /// The job's simulated runtime when it originally ran.
    pub sim_runtime: Duration,
}

/// The durable state of a (partially) completed pipeline: one
/// [`JobSnapshot`] per finished job, in chain order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Snapshots of completed jobs, in execution order.
    pub jobs: Vec<JobSnapshot>,
}

/// The first bytes of every checkpoint file.
const MAGIC: &[u8; 8] = b"SKYMRCKP";
/// The file format's version, written after [`MAGIC`].
const VERSION: u32 = 3;

impl Checkpoint {
    /// Renders the checkpoint file: the magic `SKYMRCKP` and a `u32`
    /// version (3), then one CRC32C frame (the shuffle's, [`frame_begin`])
    /// per snapshot holding its name, its simulated µs and its payload.
    /// Equal checkpoints render to equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        VERSION.wire_encode(&mut out);
        for job in &self.jobs {
            let start = frame_begin(&mut out);
            job.name.wire_encode(&mut out);
            u64::try_from(job.sim_runtime.as_micros())
                .unwrap_or(u64::MAX)
                .wire_encode(&mut out);
            out.extend_from_slice(&job.payload);
            frame_end(&mut out, start);
        }
        out
    }

    /// Parses and verifies a file rendered by [`to_bytes`](Self::to_bytes).
    ///
    /// A frame that fails its CRC32C check is [`Error::CheckpointCorrupt`]
    /// naming the damaged snapshot by the name it claims (`#k`, its
    /// position, when even that is unreadable); a bad magic or version —
    /// an older JSON checkpoint included — is reported under the
    /// pseudo-job `"<document>"`. Nothing is reserved beyond the input.
    pub fn from_bytes(bytes: &[u8]) -> skymr_common::Result<Self> {
        let corrupt = |job: &str, detail: String| Error::CheckpointCorrupt {
            job: job.into(),
            detail,
        };
        let mut r = WireCursor::new(bytes);
        let (magic, version) = (r.take(MAGIC.len()), u32::wire_decode(&mut r));
        if magic != Some(MAGIC.as_slice()) || version != Some(VERSION) {
            let detail = format!("not a version-{VERSION} checkpoint file");
            return Err(corrupt("<document>", detail));
        }
        let mut rest = r.take(r.remaining()).unwrap_or_default();
        let mut jobs = Vec::new();
        while !rest.is_empty() {
            let k = jobs.len();
            let (frame, tail) = frame_decode(rest).map_err(|e| {
                let mut claimed = WireCursor::new(rest.get(4..).unwrap_or_default());
                corrupt(
                    &String::wire_decode(&mut claimed).unwrap_or_else(|| format!("#{k}")),
                    format!("snapshot {k} failed its CRC32C frame check: {e}"),
                )
            })?;
            let mut r = WireCursor::new(frame);
            let (name, sim_us) = <(String, u64)>::wire_decode(&mut r)
                .ok_or_else(|| corrupt(&format!("#{k}"), "snapshot frame holds no name".into()))?;
            jobs.push(JobSnapshot {
                name,
                payload: r.take(r.remaining()).unwrap_or_default().to_vec(),
                sim_runtime: Duration::from_micros(sim_us),
            });
            rest = tail;
        }
        Ok(Self { jobs })
    }

    /// Loads and verifies a checkpoint file written by a [`Runner`] with
    /// [`with_checkpoint_file`](Runner::with_checkpoint_file).
    ///
    /// `Ok(None)` when the file does not exist (a fresh run is the correct
    /// fallback); [`Error::CheckpointCorrupt`] when it cannot be read or
    /// fails verification — damage is surfaced, never silently re-run over.
    pub fn load(path: impl AsRef<Path>) -> skymr_common::Result<Option<Self>> {
        let path = path.as_ref();
        match std::fs::read(path) {
            Ok(bytes) => Self::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Error::CheckpointCorrupt {
                job: "<document>".into(),
                detail: format!("cannot read {}: {e}", path.display()),
            }),
        }
    }
}

/// Executes a chain of jobs with per-job checkpointing, deterministic
/// kill-points for chaos tests, and resume-from-checkpoint.
///
/// Drivers wrap each job in [`stage`](Self::stage); the runner either
/// replays the stage from a restored snapshot (skipping execution) or runs
/// it and snapshots the result. See the crate's chaos suite for the
/// end-to-end kill → resume → byte-identical-output property.
#[derive(Debug, Default)]
pub struct Runner {
    /// Restored snapshots not yet consumed by stages, in chain order.
    pending: VecDeque<JobSnapshot>,
    /// Snapshots of every stage completed (restored or executed) this run.
    completed: Vec<JobSnapshot>,
    /// Deterministic chaos kill-point: entering stage `n` (0-based count of
    /// completed stages) fails with [`Error::PipelineKilled`].
    kill_after: Option<usize>,
    /// Checkpoint file rewritten after every completed stage.
    file: Option<PathBuf>,
}

impl Runner {
    /// A fresh runner: no restored state, no kill-point, no file.
    pub fn new() -> Self {
        Self::default()
    }

    /// A runner that resumes from `checkpoint`: stages matching the
    /// checkpointed names replay their snapshotted values instead of
    /// executing.
    pub fn resume(checkpoint: Checkpoint) -> Self {
        Self {
            pending: checkpoint.jobs.into(),
            ..Self::default()
        }
    }

    /// Kills the chain (with [`Error::PipelineKilled`]) when a stage is
    /// entered after `n` stages have completed — the deterministic stand-in
    /// for a driver crash between jobs.
    pub fn with_kill_after(mut self, n: usize) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Also persists the checkpoint to `path` (rewritten after every
    /// completed stage) so a later process can [`Checkpoint::load`] it.
    pub fn with_checkpoint_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.file = Some(path.into());
        self
    }

    /// The checkpoint of everything completed so far.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            jobs: self.completed.clone(),
        }
    }

    /// Runs (or replays) one job of the chain.
    ///
    /// If the next restored snapshot matches `name` and its payload decodes
    /// to exactly one `T`, that value is returned without executing `run`;
    /// a stub [`JobMetrics`] carrying the snapshotted `sim_runtime`, as its
    /// `sim_runtime` and as one wait for an executor to replay, keeps the
    /// pipeline clock truthful. (A replayed stage re-runs no tasks, so it
    /// contributes no counters.) Otherwise `run` executes, and on success
    /// its value is snapshotted. A name mismatch, an undecodable payload or
    /// one with trailing bytes discards the rest of the restored state and
    /// falls back to executing — a stale checkpoint can slow a chain down
    /// but never corrupt it.
    ///
    /// # Errors
    ///
    /// `run`'s error; [`Error::CheckpointWrite`] when a configured
    /// checkpoint file cannot be written.
    pub fn stage<T, F>(
        &mut self,
        name: &str,
        metrics: &mut PipelineMetrics,
        run: F,
    ) -> skymr_common::Result<T>
    where
        T: Wire,
        F: FnOnce(&mut PipelineMetrics) -> skymr_common::Result<T>,
    {
        if self.kill_after == Some(self.completed.len()) {
            return Err(Error::PipelineKilled {
                after_jobs: self.completed.len(),
            });
        }
        if let Some(front) = self.pending.front() {
            let mut r = WireCursor::new(&front.payload);
            let restored = (front.name == name)
                .then(|| T::wire_decode(&mut r))
                .flatten()
                .filter(|_| r.is_empty());
            match (restored, self.pending.pop_front()) {
                (Some(value), Some(snap)) => {
                    let mut stub = JobMetrics::empty(name, 0, 0);
                    stub.sim_runtime = snap.sim_runtime;
                    stub.steps = vec![Step::Wait(ticks_of(snap.sim_runtime))];
                    metrics.push(stub);
                    self.completed.push(snap);
                    self.persist()?;
                    return Ok(value);
                }
                _ => self.pending.clear(),
            }
        }
        let value = run(metrics)?;
        let sim_runtime = metrics
            .jobs
            .last()
            .map_or(Duration::ZERO, |j| j.sim_runtime);
        let mut payload = Vec::new();
        value.wire_encode(&mut payload);
        self.completed.push(JobSnapshot {
            name: name.to_owned(),
            payload,
            sim_runtime,
        });
        self.persist()?;
        Ok(value)
    }

    /// Rewrites the checkpoint file, when one is configured: the bytes go
    /// to `<path>.tmp` beside it, which is then renamed over `<path>`, so
    /// a failed write or a killed process leaves the previous checkpoint
    /// whole. Nothing is fsynced: durability across power loss is not
    /// claimed.
    fn persist(&self) -> skymr_common::Result<()> {
        let Some(path) = &self.file else {
            return Ok(());
        };
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let renamed = std::fs::write(&tmp, self.checkpoint().to_bytes())
            .and_then(|()| std::fs::rename(&tmp, path));
        renamed.map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            let (path, detail) = (path.clone(), e.to_string());
            Error::CheckpointWrite { path, detail }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skymr_common::Tuple;

    fn dummy(name: &str, sim_ms: u64, bytes: u64) -> JobMetrics {
        let mut m = JobMetrics::empty(name, 1, 1);
        m.shuffle_bytes = bytes;
        m.per_reducer_bytes = vec![bytes];
        m.sim_runtime = Duration::from_millis(sim_ms);
        m.host_wall = Duration::from_millis(1);
        m
    }

    #[test]
    fn sums_runtimes_and_bytes() {
        let mut p = PipelineMetrics::new();
        p.push(dummy("bitstring", 10, 100));
        p.push(dummy("skyline", 25, 900));
        assert_eq!(p.sim_runtime(), Duration::from_millis(35));
        assert_eq!(p.shuffle_bytes(), 1000);
        assert_eq!(p.host_wall(), Duration::from_millis(2));
    }

    #[test]
    fn job_lookup_by_name() {
        let mut p = PipelineMetrics::new();
        p.push(dummy("bitstring", 10, 100));
        assert!(p.job("bitstring").is_some());
        assert!(p.job("missing").is_none());
    }

    #[test]
    fn empty_pipeline_is_zero() {
        let p = PipelineMetrics::new();
        assert_eq!(p.sim_runtime(), Duration::ZERO);
        assert_eq!(p.shuffle_bytes(), 0);
    }

    #[test]
    fn track_records_success_and_failure_alike() {
        use crate::fault::TaskKind;

        let mut p = PipelineMetrics::new();
        let ok: Result<JobOutcome<u32>, JobError> = Ok(JobOutcome {
            outputs: vec![vec![1]],
            metrics: dummy("first", 10, 5),
            counters: skymr_common::Counters::new(),
            registry: skymr_telemetry::MetricsRegistry::new(),
        });
        assert!(p.track(ok).is_ok());

        let mut partial = dummy("second", 25, 0);
        partial.map_retries = 3;
        let err: Result<JobOutcome<u32>, JobError> = Err(JobError {
            job: "second".into(),
            task: TaskKind::Map,
            index: 0,
            attempts: 4,
            history: Vec::new(),
            counters: skymr_common::Counters::new(),
            metrics: Box::new(partial),
            payload: None,
        });
        let propagated = p.track(err).expect_err("failure must propagate");
        assert_eq!(propagated.job, "second");
        // Both jobs' time is on the pipeline clock, abort included.
        assert_eq!(p.jobs.len(), 2);
        assert_eq!(p.sim_runtime(), Duration::from_millis(35));
        assert_eq!(p.job("second").map(|j| j.map_retries), Some(3));
    }

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(1, vec![0.25, 0.75]),
            Tuple::new(2, vec![0.5, 0.125]),
        ]
    }

    fn wire<T: Wire>(value: &T) -> Vec<u8> {
        let mut out = Vec::new();
        value.wire_encode(&mut out);
        out
    }

    /// Resumes a `Vec<Tuple>` stage named `first` from `payload`; `None`
    /// when the stage executed instead of replaying.
    fn replay(payload: Vec<u8>) -> Option<Vec<Tuple>> {
        let mut runner = Runner::resume(Checkpoint {
            jobs: vec![JobSnapshot {
                name: "first".into(),
                payload,
                sim_runtime: Duration::from_millis(3),
            }],
        });
        let mut ran = false;
        let value = runner
            .stage("first", &mut PipelineMetrics::new(), |_| {
                ran = true;
                Ok(Vec::new())
            })
            .expect("stage runs or replays");
        (!ran).then_some(value)
    }

    /// Two snapshots, as a two-job skyline chain leaves them.
    fn two_jobs() -> Checkpoint {
        Checkpoint {
            jobs: vec![
                JobSnapshot {
                    name: "bitstring".into(),
                    payload: vec![0x00, 0xff, 0x10],
                    sim_runtime: Duration::from_micros(1234),
                },
                JobSnapshot {
                    name: "gpsrs".into(),
                    payload: wire(&tuples()),
                    sim_runtime: Duration::from_millis(9),
                },
            ],
        }
    }

    #[test]
    fn tuple_snapshot_round_trips() {
        let original = tuples();
        let bytes = wire(&original);
        assert_eq!(replay(bytes.clone()), Some(original));
        assert_eq!(replay(wire(&Vec::<Tuple>::new())), Some(Vec::new()));
        // Truncated and over-long payloads re-run, they are not mis-decoded.
        assert_eq!(replay(bytes[..bytes.len() - 1].to_vec()), None);
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(replay(padded), None);
    }

    #[test]
    fn tuple_snapshot_rejects_headers_its_bytes_cannot_hold() {
        // One tuple of u32::MAX dimensions carrying only its id, then
        // u32::MAX tuples declared and one present: sized from the header,
        // either reservation alone would abort. Both re-run.
        let mut huge_dim = wire(&1u32);
        huge_dim.extend(wire(&(7u64, u32::MAX)));
        assert_eq!(replay(huge_dim), None);
        let mut huge_count = wire(&u32::MAX);
        huge_count.extend(wire(&tuples()[0]));
        assert_eq!(replay(huge_count), None);
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let cp = two_jobs();
        let bytes = cp.to_bytes();
        assert_eq!(Checkpoint::from_bytes(&bytes).as_ref(), Ok(&cp));
        // Deterministic rendering (the chaos suite diffs checkpoint files).
        assert_eq!(bytes, cp.clone().to_bytes());
        let empty = Checkpoint::default();
        assert_eq!(Checkpoint::from_bytes(&empty.to_bytes()), Ok(empty));
        // The JSON format this one replaced is not read, nor is garbage.
        for foreign in [
            br#"{"version":2,"jobs":[]}"#.as_slice(),
            b"not a checkpoint",
            b"",
        ] {
            assert!(matches!(
                Checkpoint::from_bytes(foreign),
                Err(Error::CheckpointCorrupt { job, .. }) if job == "<document>"
            ));
        }
        let mut future = bytes;
        future[8] += 1;
        assert!(Checkpoint::from_bytes(&future).is_err(), "unknown version");
    }

    #[test]
    fn bit_rotted_checkpoint_is_rejected_with_a_structured_error() {
        let bytes = two_jobs().to_bytes();
        // Flip the last payload bit of the second snapshot: what at-rest
        // corruption of the file looks like.
        let mut rotted = bytes.clone();
        let at = rotted.len() - 5;
        rotted[at] ^= 1;
        match Checkpoint::from_bytes(&rotted) {
            Err(Error::CheckpointCorrupt { job, detail }) => {
                assert_eq!(job, "gpsrs");
                assert!(
                    detail.contains("CRC32C"),
                    "detail names the check: {detail}"
                );
            }
            other => panic!("bit rot must be CheckpointCorrupt, got {other:?}"),
        }
        // Tampering with a stored CRC, or cutting the file short, is
        // caught the same way.
        let mut bad_crc = bytes.clone();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0x80;
        assert!(matches!(
            Checkpoint::from_bytes(&bad_crc),
            Err(Error::CheckpointCorrupt { job, .. }) if job == "gpsrs"
        ));
        assert!(matches!(
            Checkpoint::from_bytes(&bytes[..bytes.len() - 1]),
            Err(Error::CheckpointCorrupt { .. })
        ));
    }

    #[test]
    fn every_bit_flip_of_a_checkpoint_file_is_caught() {
        let bytes = two_jobs().to_bytes();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let result = Checkpoint::from_bytes(&flipped);
            assert!(
                matches!(result, Err(Error::CheckpointCorrupt { .. })),
                "bit {bit}: {result:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Hostile input: the checkpoint decoder never panics, and what it
        /// returns holds at most a constant multiple of the input.
        #[test]
        fn arbitrary_bytes_never_panic_and_never_over_reserve(
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            mode in 0u8..3,
            at in proptest::prelude::any::<usize>()
        ) {
            // Raw noise; noise in a valid frame behind a valid header, so
            // the snapshot parser (not just the checksum) faces it; or a
            // valid file with one byte overwritten.
            let valid = two_jobs().to_bytes();
            let input = match mode {
                0 => noise,
                1 => {
                    let mut bytes = valid[..12].to_vec();
                    skymr_common::frame_encode(&noise, &mut bytes);
                    bytes
                }
                _ => {
                    let mut bytes = valid;
                    let at = at % bytes.len();
                    bytes[at] = noise.first().copied().unwrap_or(0xFF);
                    bytes
                }
            };
            if let Ok(cp) = Checkpoint::from_bytes(&input) {
                let held = cp.jobs.capacity() * size_of::<JobSnapshot>()
                    + cp.jobs.iter().map(|j| j.name.capacity() + j.payload.capacity()).sum::<usize>();
                proptest::prop_assert!(held <= 16 * input.len());
            }
        }
    }

    #[test]
    fn runner_checkpoints_and_replays_stages() {
        let mut metrics = PipelineMetrics::new();
        let mut runner = Runner::new();
        let mut ran = 0;
        let first = runner
            .stage("first", &mut metrics, |m| {
                ran += 1;
                m.push(dummy("first", 10, 100));
                Ok(tuples())
            })
            .expect("stage runs");
        assert_eq!((ran, first.len()), (1, 2));

        // Resume from the checkpoint: the stage replays without executing,
        // and the stub metrics restore the snapshotted clock.
        let mut metrics2 = PipelineMetrics::new();
        let mut resumed = Runner::resume(runner.checkpoint());
        let replayed = resumed
            .stage("first", &mut metrics2, |_| {
                ran += 1;
                Ok(Vec::<Tuple>::new())
            })
            .expect("replay succeeds");
        assert_eq!(ran, 1, "replayed stage must not execute");
        assert_eq!(replayed, first);
        assert_eq!(metrics2.sim_runtime(), Duration::from_millis(10));
        // A second, never-checkpointed stage executes normally.
        let second = resumed
            .stage("second", &mut metrics2, |m| {
                ran += 1;
                m.push(dummy("second", 5, 0));
                Ok(Vec::<Tuple>::new())
            })
            .expect("fresh stage runs");
        assert_eq!((ran, second.len()), (2, 0));
        assert_eq!(resumed.checkpoint().jobs.len(), 2);
    }

    #[test]
    fn runner_kill_point_is_deterministic() {
        let mut metrics = PipelineMetrics::new();
        let mut runner = Runner::new().with_kill_after(1);
        runner
            .stage("first", &mut metrics, |_| Ok(tuples()))
            .expect("stage before the kill-point runs");
        let err = runner
            .stage("second", &mut metrics, |_| Ok(Vec::<Tuple>::new()))
            .expect_err("kill-point fires");
        assert_eq!(err, Error::PipelineKilled { after_jobs: 1 });
        // The checkpoint of the completed prefix survives the kill.
        assert_eq!(runner.checkpoint().jobs.len(), 1);
    }

    #[test]
    fn stale_checkpoint_falls_back_to_execution() {
        // Name mismatch: restored state is discarded, the stage runs.
        let cp = Checkpoint {
            jobs: vec![JobSnapshot {
                name: "other".into(),
                payload: wire(&tuples()),
                sim_runtime: Duration::from_millis(3),
            }],
        };
        let mut metrics = PipelineMetrics::new();
        let mut runner = Runner::resume(cp);
        let mut ran = false;
        runner
            .stage("first", &mut metrics, |_| {
                ran = true;
                Ok(tuples())
            })
            .expect("mismatched stage re-runs");
        assert!(ran, "stale checkpoint must not replay");

        // Undecodable payload: likewise discarded.
        assert_eq!(replay(vec![1, 2, 3]), None);
    }

    #[test]
    fn checkpoint_file_persists_and_loads() {
        let path =
            std::env::temp_dir().join(format!("skymr-checkpoint-test-{}", std::process::id()));
        let mut metrics = PipelineMetrics::new();
        let mut runner = Runner::new().with_checkpoint_file(&path);
        runner
            .stage("first", &mut metrics, |m| {
                m.push(dummy("first", 10, 100));
                Ok(tuples())
            })
            .expect("stage runs");
        let loaded = Checkpoint::load(&path)
            .expect("file verifies")
            .expect("file exists");
        assert_eq!(loaded, runner.checkpoint());
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            Checkpoint::load(&path),
            Ok(None),
            "a missing file is a fresh run, not an error"
        );
    }

    #[test]
    fn checkpoint_io_errors_are_reported() {
        let missing =
            std::env::temp_dir().join(format!("skymr-no-such-dir-{}", std::process::id()));
        let path = missing.join("checkpoint");
        let mut runner = Runner::new().with_checkpoint_file(&path);
        let err = runner
            .stage("first", &mut PipelineMetrics::new(), |_| Ok(tuples()))
            .expect_err("an unwritable checkpoint fails the stage");
        assert!(
            matches!(&err, Error::CheckpointWrite { path: p, .. } if *p == path),
            "{err:?}"
        );
        // A directory is not a missing file: loading it is an error.
        assert!(matches!(
            Checkpoint::load(std::env::temp_dir()),
            Err(Error::CheckpointCorrupt { job, .. }) if job == "<document>"
        ));
    }
}
