//! Out-of-core storage plane: spill-to-disk map output and external merge.
//!
//! Hadoop's map tasks buffer output in a fixed-size memory buffer
//! (`io.sort.mb`) and *spill* sorted, partitioned runs to local disk when
//! it fills; the reduce side fetches the spilled partitions and feeds the
//! reducer through a k-way external merge (`io.sort.factor`). This module
//! reproduces that storage plane for the simulated cluster:
//!
//! * [`StorageConfig`] — the per-task memory budget and spill directory,
//!   carried on [`crate::ClusterConfig`]. Spilling engages iff a budget is
//!   set; the trigger is a pure function of the configured budget and the
//!   wire-size accounting of the emitted pairs (never host memory), so
//!   spill points are byte-for-byte reproducible across runs and hosts.
//! * [`segment`] — sorted spill files (`mrtmp.<job>-m<i>-…​.seg`, the
//!   shape of the exemplar MapReduce implementation's `mrtmp.<job>-<map>-
//!   <reduce>` intermediates) written as chunked CRC32C frames with a
//!   per-partition manifest, and a streaming, checksum-verifying reader.
//! * [`merge`] — the reduce-side k-way external merge over disk and
//!   in-memory runs, with multi-pass merging when the run count exceeds
//!   the configured fan-in.
//!
//! Disk traffic is charged to the *simulated* clock through
//! [`StorageConfig::io_time`] (a bandwidth + seek model, mirroring the
//! network cost model) and surfaced as `storage.*` registry counters,
//! `spill_files` / `spilled_bytes` / `merge_passes` job metrics, and
//! `spill[i]` / `merge` trace spans.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

pub mod merge;
pub mod segment;

pub use merge::{KWayMerge, MergeStats, RunSource};
pub use segment::{PartitionMeta, Segment, StorageError};

/// Memory-budget and disk-model knobs for the out-of-core storage plane.
///
/// Part of [`crate::ClusterConfig`]; the plane is inert (byte-identical
/// to the all-in-memory engine) until [`memory_budget`](Self::memory_budget)
/// is set.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Per-map-task output buffer budget in bytes (Hadoop's `io.sort.mb`).
    /// When the wire size of buffered map output reaches the budget, the
    /// buffer is sorted, partitioned, and spilled to disk. `None` (the
    /// default) keeps every intermediate in memory.
    pub memory_budget: Option<u64>,
    /// Directory for spill files. `None` uses the OS temp directory; the
    /// engine creates (and removes) a unique per-job-run subdirectory
    /// either way.
    pub spill_dir: Option<PathBuf>,
    /// Maximum runs merged per external-merge pass (Hadoop's
    /// `io.sort.factor`). Run counts above this trigger intermediate
    /// merge passes that write merged runs back to disk.
    pub merge_fan_in: usize,
    /// Modeled local-disk sequential bandwidth, bytes/second. Spill
    /// writes and merge reads are charged at this rate on the simulated
    /// clock.
    pub disk_bytes_per_sec: f64,
    /// Modeled per-file-open seek charge.
    pub disk_seek: Duration,
    /// Target spill-frame chunk size in bytes: each on-disk frame wraps
    /// roughly this much encoded payload, so readers verify and buffer
    /// one bounded chunk at a time.
    pub io_chunk: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        Self {
            memory_budget: None,
            spill_dir: None,
            merge_fan_in: 8,
            // A commodity 2012 SATA disk, to match the paper-era testbed
            // the rest of ClusterConfig::default models.
            disk_bytes_per_sec: 60e6,
            disk_seek: Duration::from_millis(8),
            io_chunk: 64 * 1024,
        }
    }
}

impl StorageConfig {
    /// Fast disk model for unit tests (mirrors [`crate::ClusterConfig::test`]).
    pub fn test() -> Self {
        Self {
            disk_bytes_per_sec: 1e9,
            disk_seek: Duration::from_micros(2),
            ..Self::default()
        }
    }

    /// Applies the `SKYMR_MEMORY_BUDGET` / `SKYMR_SPILL_DIR` environment
    /// overrides, used by CI to force every job in a test suite into
    /// spill mode without touching each call site. Driver-side only —
    /// UDFs never observe the environment.
    ///
    /// # Panics
    ///
    /// On a `SKYMR_MEMORY_BUDGET` that is not a byte size: a suite asked
    /// to spill must not quietly run in memory instead.
    pub fn with_env_overrides(self) -> Self {
        let var = |name| std::env::var(name).ok();
        self.with_overrides(var("SKYMR_MEMORY_BUDGET"), var("SKYMR_SPILL_DIR"))
            .unwrap_or_else(|e| panic!("storage plane: {e}"))
    }

    /// [`Self::with_env_overrides`] over the two variables' values; an
    /// empty value counts as unset.
    fn with_overrides(
        mut self,
        budget: Option<String>,
        spill_dir: Option<String>,
    ) -> Result<Self, String> {
        if let Some(v) = budget.filter(|v| !v.is_empty()) {
            let bytes = parse_byte_size(&v).map_err(|e| format!("SKYMR_MEMORY_BUDGET: {e}"))?;
            self.memory_budget = Some(bytes);
        }
        if let Some(dir) = spill_dir.filter(|d| !d.is_empty()) {
            self.spill_dir = Some(PathBuf::from(dir));
        }
        Ok(self)
    }

    /// `true` iff map output spills to disk.
    pub fn enabled(&self) -> bool {
        self.memory_budget.is_some()
    }

    /// Simulated time to move `bytes` over the disk with `seeks` head
    /// repositionings — the storage analogue of the network cost model.
    pub fn io_time(&self, bytes: u64, seeks: u64) -> Duration {
        let transfer = bytes as f64 / self.disk_bytes_per_sec;
        Duration::from_secs_f64(transfer)
            + self.disk_seek * u32::try_from(seeks).unwrap_or(u32::MAX)
    }
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix (powers of
/// 1024): `"1m"` → 1 MiB. Shared by the `--memory-budget` CLI option and
/// the `SKYMR_MEMORY_BUDGET` override.
pub fn parse_byte_size(s: &str) -> Result<u64, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, shift) = match t.strip_suffix(['k', 'm', 'g']) {
        Some(head) => {
            let shift = match t.as_bytes()[t.len() - 1] {
                b'k' => 10,
                b'm' => 20,
                _ => 30,
            };
            (head, shift)
        }
        None => (t.as_str(), 0u32),
    };
    let n: u64 = digits
        .trim()
        .parse()
        .map_err(|e| format!("bad byte size {s:?}: {e}"))?;
    n.checked_shl(shift)
        .filter(|v| *v >> shift == n)
        .ok_or_else(|| format!("byte size {s:?} overflows u64"))
}

/// Process-wide counter distinguishing concurrent job runs' spill
/// directories (the directory name also carries the process id, so
/// parallel test processes sharing a spill root never collide).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// One job run's spill directory: created on first use, removed on drop
/// (including early error returns — the session is owned by the job
/// runner). All segment and merge-run files of the job live here.
#[derive(Debug)]
pub struct SpillSession {
    dir: PathBuf,
    job: String,
    seq: AtomicU64,
}

impl SpillSession {
    /// Creates the unique spill directory for one job run.
    pub fn create(config: &StorageConfig, job_name: &str) -> Result<Self, StorageError> {
        let root = config.spill_dir.clone().unwrap_or_else(std::env::temp_dir);
        let run = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let job = sanitize(job_name);
        let dir = root.join(format!(
            "skymr-spill-{pid}-{run}-{job}",
            pid = std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::io("create spill dir", e))?;
        Ok(Self {
            dir,
            job,
            seq: AtomicU64::new(0),
        })
    }

    /// The session's spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path for the next spill segment of map task `map`, attempt
    /// `attempt` (`mrtmp.<job>-m<map>-a<attempt>-<uniq>.seg`, following
    /// the exemplar's `mrtmp.<job>-<map>-<reduce>` naming). The session
    /// counter keeps paths unique even when a task re-executes with a
    /// repeated attempt number (node-loss and corrupt-escalation waves).
    pub fn segment_path(&self, map: usize, attempt: u32) -> PathBuf {
        let uniq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.dir
            .join(format!("mrtmp.{}-m{map}-a{attempt}-{uniq}.seg", self.job))
    }

    /// Path for an intermediate merge run of reducer `reduce`.
    pub fn merge_run_path(&self, reduce: usize, pass: u64) -> PathBuf {
        let uniq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.dir
            .join(format!("mrtmp.{}-r{reduce}-p{pass}-{uniq}.run", self.job))
    }
}

impl Drop for SpillSession {
    fn drop(&mut self) {
        // Best-effort cleanup; a leftover directory is a nuisance, not a
        // correctness problem.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Restricts a job name to filesystem-safe characters.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_byte_size_handles_suffixes() {
        assert_eq!(parse_byte_size("512"), Ok(512));
        assert_eq!(parse_byte_size("4k"), Ok(4096));
        assert_eq!(parse_byte_size("2M"), Ok(2 << 20));
        assert_eq!(parse_byte_size(" 1g "), Ok(1 << 30));
        assert!(parse_byte_size("x").is_err());
        assert!(parse_byte_size("99999999999999999999g").is_err());
    }

    #[test]
    fn malformed_budget_override_is_an_error_and_empty_is_unset() {
        let over = |budget: &str, dir: &str| {
            StorageConfig::test().with_overrides(Some(budget.into()), Some(dir.into()))
        };
        let err = over("1kb", "").expect_err("1kb is not a byte size");
        assert!(
            err.starts_with("SKYMR_MEMORY_BUDGET: bad byte size \"1kb\""),
            "{err}"
        );
        let unset = over("", "").expect("empty values are unset");
        assert_eq!((unset.memory_budget, unset.spill_dir), (None, None));
        let set = over("1k", "/tmp/x").expect("well-formed");
        assert_eq!(set.memory_budget, Some(1024));
        assert_eq!(set.spill_dir, Some(PathBuf::from("/tmp/x")));
        let none = StorageConfig::test()
            .with_overrides(None, None)
            .expect("unset");
        assert_eq!(none.memory_budget, None);
    }

    #[test]
    fn io_time_charges_bandwidth_and_seeks() {
        let mut cfg = StorageConfig::test();
        cfg.disk_bytes_per_sec = 1000.0;
        cfg.disk_seek = Duration::from_millis(1);
        let t = cfg.io_time(2000, 3);
        assert_eq!(t, Duration::from_secs(2) + Duration::from_millis(3));
    }

    #[test]
    fn disabled_by_default() {
        assert!(!StorageConfig::default().enabled());
        let cfg = StorageConfig {
            memory_budget: Some(1 << 20),
            ..Default::default()
        };
        assert!(cfg.enabled());
    }

    #[test]
    fn session_creates_and_removes_its_directory() {
        let cfg = StorageConfig::test();
        let session = SpillSession::create(&cfg, "wc phase/1").expect("session");
        let dir = session.dir().to_owned();
        assert!(dir.exists());
        let seg = session.segment_path(3, 1);
        let name = seg.file_name().and_then(|n| n.to_str()).expect("name");
        assert!(name.starts_with("mrtmp.wc-phase-1-m3-a1-"), "{name}");
        drop(session);
        assert!(!dir.exists());
    }

    #[test]
    fn segment_paths_are_unique_per_call() {
        let session = SpillSession::create(&StorageConfig::test(), "j").expect("session");
        assert_ne!(session.segment_path(0, 0), session.segment_path(0, 0));
    }
}
