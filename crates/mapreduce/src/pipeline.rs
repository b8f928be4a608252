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
//! [`Checkpoint`] (in memory, and optionally to a JSON file). A chain
//! killed between jobs — simulated deterministically with
//! [`Runner::with_kill_after`] — can be restarted from the last completed
//! job with [`Runner::resume`]; because UDFs are pure, the resumed chain
//! produces byte-identical outputs to an uninterrupted run.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Duration;

use skymr_common::{crc32c, Error, Tuple, Wire, WireCursor};

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
    /// aligned text table (see [`skymr_telemetry::phase_table`]).
    pub fn phase_table(&self) -> String {
        let rows: Vec<_> = self.jobs.iter().map(JobMetrics::phase_summary).collect();
        skymr_telemetry::phase_table(&rows)
    }
}

/// A value that can cross a pipeline checkpoint: encoded to bytes after
/// its job completes, decoded when a killed chain resumes. Encodings must
/// be self-contained and deterministic (byte-identical for equal values) —
/// the chaos suite diffs checkpoint files across runs.
pub trait Snapshot {
    /// Serializes the value. Must be deterministic.
    fn encode(&self) -> Vec<u8>;
    /// Recovers a value from [`encode`](Self::encode)'s output; `None` on
    /// any structural mismatch (a corrupt or foreign payload).
    fn decode(bytes: &[u8]) -> Option<Self>
    where
        Self: Sized;
}

/// Tuples are the forward-flowing value of every skyline job, so the
/// canonical snapshot payload is a tuple list: `[count, dim]` header then
/// `id` + `dim` values per tuple, all little-endian fixed-width.
impl Snapshot for Vec<Tuple> {
    fn encode(&self) -> Vec<u8> {
        let dim = self.first().map_or(0, Tuple::dim);
        let mut out = Vec::with_capacity(16 + self.len() * (8 + dim * 8));
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        out.extend_from_slice(&(dim as u64).to_le_bytes());
        for t in self {
            out.extend_from_slice(&t.id.to_le_bytes());
            for v in t.values.iter() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Reservations are capped by what the remaining bytes can hold
    /// ([`WireCursor::capacity_for`]), so a header that declares more than
    /// the payload carries costs O(payload) before it is rejected.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut r = WireCursor::new(bytes);
        let count = usize::try_from(u64::wire_decode(&mut r)?).ok()?;
        let dim = usize::try_from(u64::wire_decode(&mut r)?).ok()?;
        let tuple_bytes = dim.saturating_add(1).saturating_mul(8);
        let mut tuples = Vec::with_capacity(r.capacity_for(count, tuple_bytes));
        for _ in 0..count {
            let id = u64::wire_decode(&mut r)?;
            let mut values = Vec::with_capacity(r.capacity_for(dim, 8));
            for _ in 0..dim {
                values.push(f64::wire_decode(&mut r)?);
            }
            tuples.push(Tuple::new(id, values));
        }
        r.is_empty().then_some(tuples)
    }
}

/// One completed job's checkpoint entry: the encoded forward-flowing value
/// plus the simulated time the job cost (restored into the pipeline clock
/// on resume).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSnapshot {
    /// The stage name (must match the [`Runner::stage`] call on resume).
    pub name: String,
    /// The stage value, encoded via [`Snapshot::encode`].
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

impl Checkpoint {
    /// Renders the checkpoint as versioned JSON. Each payload is
    /// hex-encoded and accompanied by its CRC32C (the shuffle-frame
    /// checksum, [`skymr_common::crc32c`]), so bit rot at rest is caught at
    /// parse time. The format is deterministic: equal checkpoints render to
    /// equal bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":2,\"jobs\":[");
        for (i, job) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            for c in job.name.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push_str("\",\"payload\":\"");
            for b in &job.payload {
                out.push_str(&format!("{b:02x}"));
            }
            out.push_str(&format!("\",\"crc\":{}", crc32c(&job.payload)));
            out.push_str(&format!(
                ",\"sim_us\":{}}}",
                u64::try_from(job.sim_runtime.as_micros()).unwrap_or(u64::MAX)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses and verifies a checkpoint rendered by
    /// [`to_json`](Self::to_json).
    ///
    /// Every snapshot payload is checked against its recorded CRC32C; a
    /// mismatch — a bit-rotted file — is a structured
    /// [`Error::CheckpointCorrupt`] naming the damaged job, never a silent
    /// fallback. Unreadable documents and unknown versions are reported the
    /// same way under the pseudo-job `"<document>"`.
    pub fn from_json(text: &str) -> skymr_common::Result<Self> {
        fn corrupt(job: &str, detail: impl Into<String>) -> Error {
            Error::CheckpointCorrupt {
                job: job.into(),
                detail: detail.into(),
            }
        }
        let value = skymr_telemetry::json::parse(text)
            .map_err(|_| corrupt("<document>", "not valid JSON"))?;
        let version = value
            .get("version")
            .and_then(skymr_telemetry::json::Value::as_u64)
            .ok_or_else(|| corrupt("<document>", "missing version field"))?;
        if version != 2 {
            return Err(corrupt(
                "<document>",
                format!("unsupported checkpoint version {version} (expected 2)"),
            ));
        }
        let entries = value
            .get("jobs")
            .and_then(skymr_telemetry::json::Value::as_array)
            .ok_or_else(|| corrupt("<document>", "missing jobs array"))?;
        let mut jobs = Vec::new();
        for job in entries {
            let name = job
                .get("name")
                .and_then(skymr_telemetry::json::Value::as_str)
                .ok_or_else(|| corrupt("<document>", "snapshot without a name"))?
                .to_owned();
            let hex = job
                .get("payload")
                .and_then(skymr_telemetry::json::Value::as_str)
                .ok_or_else(|| corrupt(&name, "snapshot without a payload"))?;
            if hex.len() % 2 != 0 {
                return Err(corrupt(&name, "payload hex has odd length"));
            }
            let mut payload = Vec::with_capacity(hex.len() / 2);
            for i in (0..hex.len()).step_by(2) {
                let pair = hex.get(i..i + 2).unwrap_or_default();
                payload.push(
                    u8::from_str_radix(pair, 16)
                        .map_err(|_| corrupt(&name, format!("non-hex payload byte `{pair}`")))?,
                );
            }
            let recorded = job
                .get("crc")
                .and_then(skymr_telemetry::json::Value::as_u64)
                .ok_or_else(|| corrupt(&name, "snapshot without a crc"))?;
            let actual = u64::from(crc32c(&payload));
            if actual != recorded {
                return Err(corrupt(
                    &name,
                    format!(
                        "payload CRC32C {actual:#010x} != recorded {recorded:#010x}; \
                         the snapshot bit-rotted at rest"
                    ),
                ));
            }
            let sim_us = job
                .get("sim_us")
                .and_then(skymr_telemetry::json::Value::as_u64)
                .ok_or_else(|| corrupt(&name, "snapshot without sim_us"))?;
            jobs.push(JobSnapshot {
                name,
                payload,
                sim_runtime: Duration::from_micros(sim_us),
            });
        }
        Ok(Self { jobs })
    }

    /// Loads and verifies a checkpoint file written by a [`Runner`] with
    /// [`with_checkpoint_file`](Runner::with_checkpoint_file).
    ///
    /// `Ok(None)` when the file does not exist (a fresh run is the correct
    /// fallback); [`Error::CheckpointCorrupt`] when it exists but fails
    /// verification — damage is surfaced, never silently re-run over.
    pub fn load(path: impl AsRef<std::path::Path>) -> skymr_common::Result<Option<Self>> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text).map(Some),
            Err(_) => Ok(None),
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
    /// If the next restored snapshot matches `name`, its value is decoded
    /// and returned without executing `run`; a stub [`JobMetrics`] carrying
    /// the snapshotted `sim_runtime`, as its `sim_runtime` and as one wait
    /// for an executor to replay, keeps the pipeline clock truthful. (A
    /// replayed stage re-runs no tasks, so it contributes no counters.)
    /// Otherwise `run` executes, and on success its value is snapshotted
    /// (and persisted, when a checkpoint file is configured). A name
    /// mismatch or undecodable payload discards the rest of the restored
    /// state and falls back to executing — a stale checkpoint can slow a
    /// chain down but never corrupt it.
    pub fn stage<T, F>(
        &mut self,
        name: &str,
        metrics: &mut PipelineMetrics,
        run: F,
    ) -> skymr_common::Result<T>
    where
        T: Snapshot,
        F: FnOnce(&mut PipelineMetrics) -> skymr_common::Result<T>,
    {
        if self.kill_after == Some(self.completed.len()) {
            return Err(Error::PipelineKilled {
                after_jobs: self.completed.len(),
            });
        }
        if let Some(front) = self.pending.front() {
            if front.name == name {
                if let Some(value) = T::decode(&front.payload) {
                    if let Some(snap) = self.pending.pop_front() {
                        let mut stub = JobMetrics::empty(name, 0, 0);
                        stub.sim_runtime = snap.sim_runtime;
                        stub.steps = vec![Step::Wait(ticks_of(snap.sim_runtime))];
                        metrics.push(stub);
                        self.completed.push(snap);
                        self.persist();
                        return Ok(value);
                    }
                }
            }
            self.pending.clear();
        }
        let value = run(metrics)?;
        let sim_runtime = metrics
            .jobs
            .last()
            .map_or(Duration::ZERO, |j| j.sim_runtime);
        self.completed.push(JobSnapshot {
            name: name.to_owned(),
            payload: value.encode(),
            sim_runtime,
        });
        self.persist();
        Ok(value)
    }

    /// Best-effort checkpoint-file write; the in-memory checkpoint is the
    /// source of truth, and a resume from a missing file simply re-runs.
    fn persist(&self) {
        if let Some(path) = &self.file {
            let _ = std::fs::write(path, self.checkpoint().to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn tuple_snapshot_round_trips() {
        let original = tuples();
        let bytes = original.encode();
        assert_eq!(Vec::<Tuple>::decode(&bytes).as_ref(), Some(&original));
        // Deterministic: equal values, equal bytes.
        assert_eq!(bytes, original.encode());
        // Empty list round-trips too.
        let empty: Vec<Tuple> = Vec::new();
        assert_eq!(Vec::<Tuple>::decode(&empty.encode()), Some(Vec::new()));
        // Truncated and over-long payloads are rejected, not mis-decoded.
        assert!(Vec::<Tuple>::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes;
        padded.push(0);
        assert!(Vec::<Tuple>::decode(&padded).is_none());
    }

    #[test]
    fn tuple_snapshot_rejects_headers_its_bytes_cannot_hold() {
        // One tuple of 2^60 dimensions, carrying only its id: sized from
        // the header, the value reservation alone overflows.
        let mut huge_dim = Vec::new();
        for field in [1u64, 1 << 60, 7] {
            huge_dim.extend_from_slice(&field.to_le_bytes());
        }
        assert_eq!(huge_dim.len(), 24);
        assert!(Vec::<Tuple>::decode(&huge_dim).is_none());
        // 2^20 tuples declared, none present.
        let mut huge_count = Vec::new();
        for field in [1u64 << 20, 2] {
            huge_count.extend_from_slice(&field.to_le_bytes());
        }
        assert!(Vec::<Tuple>::decode(&huge_count).is_none());
    }

    #[test]
    fn checkpoint_json_round_trips() {
        let cp = Checkpoint {
            jobs: vec![
                JobSnapshot {
                    name: "bitstring".into(),
                    payload: vec![0x00, 0xff, 0x10],
                    sim_runtime: Duration::from_micros(1234),
                },
                JobSnapshot {
                    name: "gpsrs".into(),
                    payload: tuples().encode(),
                    sim_runtime: Duration::from_millis(9),
                },
            ],
        };
        let json = cp.to_json();
        assert_eq!(Checkpoint::from_json(&json).as_ref(), Ok(&cp));
        // Deterministic rendering (the chaos suite diffs checkpoint files).
        assert_eq!(json, cp.clone().to_json());
        assert!(Checkpoint::from_json("{\"version\":1,\"jobs\":[]}").is_err());
        assert!(Checkpoint::from_json("not json").is_err());
    }

    #[test]
    fn bit_rotted_checkpoint_is_rejected_with_a_structured_error() {
        let cp = Checkpoint {
            jobs: vec![JobSnapshot {
                name: "gpsrs".into(),
                payload: tuples().encode(),
                sim_runtime: Duration::from_millis(9),
            }],
        };
        let json = cp.to_json();
        // Flip one payload bit by swapping a hex digit in place — exactly
        // what at-rest corruption of the file looks like.
        let start = json.find("\"payload\":\"").expect("payload field") + 11;
        let byte = json.as_bytes()[start];
        let flipped = if byte == b'0' { '1' } else { '0' };
        let mut rotted = json.clone();
        rotted.replace_range(start..start + 1, &flipped.to_string());
        match Checkpoint::from_json(&rotted) {
            Err(Error::CheckpointCorrupt { job, detail }) => {
                assert_eq!(job, "gpsrs");
                assert!(
                    detail.contains("CRC32C"),
                    "detail names the check: {detail}"
                );
            }
            other => panic!("bit rot must be CheckpointCorrupt, got {other:?}"),
        }
        // Tampering with the recorded CRC itself is caught the same way.
        let with_bad_crc = json.replace("\"crc\":", "\"crc\":1");
        assert!(matches!(
            Checkpoint::from_json(&with_bad_crc),
            Err(Error::CheckpointCorrupt { .. })
        ));
        // A missing crc field (e.g. a hand-edited file) is also rejected.
        let cut = json.find(",\"sim_us\"").expect("sim_us field");
        let crc_start = json.find("\"crc\":").expect("crc field") - 1;
        let mut without_crc = json.clone();
        without_crc.replace_range(crc_start..cut, "");
        assert!(matches!(
            Checkpoint::from_json(&without_crc),
            Err(Error::CheckpointCorrupt { .. })
        ));
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
                Ok(Vec::new())
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
                Ok(Vec::new())
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
            .stage("second", &mut metrics, |_| Ok(Vec::new()))
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
                payload: tuples().encode(),
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

        // Corrupt payload: likewise discarded.
        let cp = Checkpoint {
            jobs: vec![JobSnapshot {
                name: "first".into(),
                payload: vec![1, 2, 3],
                sim_runtime: Duration::ZERO,
            }],
        };
        let mut runner = Runner::resume(cp);
        let mut ran = false;
        runner
            .stage("first", &mut PipelineMetrics::new(), |_| {
                ran = true;
                Ok(tuples())
            })
            .expect("corrupt stage re-runs");
        assert!(ran, "undecodable payload must not replay");
    }

    #[test]
    fn checkpoint_file_persists_and_loads() {
        let path =
            std::env::temp_dir().join(format!("skymr-checkpoint-test-{}.json", std::process::id()));
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
}
