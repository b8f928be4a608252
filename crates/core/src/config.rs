//! Configuration for the skyline pipelines.

use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::time::Duration;

use skymr_common::{Dataset, Error, Result};
use skymr_mapreduce::{Checkpoint, ClusterConfig, Collector, FaultTolerance, Runner};

use crate::bitstring::ppd::candidate_ppds;
use crate::checkpoint::BitstringStage;
use crate::groups::MergePolicy;
use crate::local::LocalAlgo;

/// Pipeline checkpoint/resume controls (all off by default).
///
/// The drivers run their two-job chains through a
/// [`Runner`]; these knobs decide whether the runner persists checkpoints
/// to a file, resumes from one, and/or kills itself at a deterministic
/// point for chaos testing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Checkpoint file, rewritten after every completed job (and read back
    /// on resume). `None` keeps checkpoints in memory only.
    pub file: Option<PathBuf>,
    /// Resume from `file` when it holds a valid checkpoint. A missing file
    /// falls back to a fresh run; a file that cannot be read or fails its
    /// CRC32C frame verification aborts with
    /// [`Error::CheckpointCorrupt`] instead — bit rot
    /// is surfaced, never silently re-run over.
    pub resume: bool,
    /// Chaos kill-point: abort with
    /// [`Error::PipelineKilled`] when entering the
    /// stage after this many completed jobs.
    pub kill_after: Option<usize>,
}

impl CheckpointConfig {
    /// Builds the [`Runner`] these controls describe for a run over
    /// `dataset` under `ppd`. A restored bitstring snapshot whose grid
    /// that run could not build is stale: it and every later snapshot are
    /// dropped, so those stages execute again.
    ///
    /// # Errors
    ///
    /// [`Error::CheckpointCorrupt`] when resuming from a checkpoint file
    /// that cannot be read or fails CRC32C verification.
    pub(crate) fn runner(&self, dataset: &Dataset, ppd: &PpdPolicy) -> Result<Runner> {
        let mut runner = match (self.resume, self.file.as_deref()) {
            (true, Some(path)) => Checkpoint::load(path)?.map_or_else(Runner::new, |mut cp| {
                let stale = cp.jobs.iter().position(|s| {
                    s.name == "bitstring" && !BitstringStage::fits(&s.payload, dataset, ppd)
                });
                cp.jobs.truncate(stale.unwrap_or(cp.jobs.len()));
                Runner::resume(cp)
            }),
            _ => Runner::new(),
        };
        if let Some(n) = self.kill_after {
            runner = runner.with_kill_after(n);
        }
        if let Some(path) = &self.file {
            runner = runner.with_checkpoint_file(path);
        }
        Ok(runner)
    }
}

/// How the grid's partitions-per-dimension (PPD) value is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum PpdPolicy {
    /// Use exactly this PPD.
    Fixed(usize),
    /// The paper's Section 3.3 heuristic: mappers emit one bitstring per
    /// candidate PPD `j ∈ 2..=n_m`, the reducer counts non-empty partitions
    /// `ρ_j` per candidate, and the candidate minimizing
    /// `|c/ρ_j − c/j^d|` wins.
    Auto {
        /// Hard cap on the candidate PPD (`n_m = min(⌈c^(1/d)⌉, max_ppd)`);
        /// keeps mapper-side bitstring memory bounded on large cardinality /
        /// low dimensionality inputs where `c^(1/d)` explodes.
        max_ppd: usize,
        /// Hard cap on `j^d` per candidate bitstring, for the same reason.
        max_partitions: usize,
    },
}

impl PpdPolicy {
    /// The paper's heuristic with engineering caps suitable for this
    /// simulation (documented in DESIGN.md).
    pub fn auto() -> Self {
        PpdPolicy::Auto {
            max_ppd: 32,
            max_partitions: 1 << 18,
        }
    }

    /// The PPDs a run over `cardinality` tuples in `dim` dimensions may
    /// use: the fixed value, or the Section 3.3 candidates.
    pub(crate) fn ppds(&self, cardinality: usize, dim: usize) -> RangeInclusive<usize> {
        match *self {
            PpdPolicy::Fixed(n) => n..=n,
            PpdPolicy::Auto {
                max_ppd,
                max_partitions,
            } => {
                let candidates = candidate_ppds(cardinality, dim, max_ppd, max_partitions);
                2..=candidates.last().copied().unwrap_or(2)
            }
        }
    }
}

/// Configuration shared by MR-GPSRS, MR-GPMRS, and the baselines' drivers.
#[derive(Debug, Clone)]
pub struct SkylineConfig {
    /// Number of mappers `m` (input splits).
    pub mappers: usize,
    /// Number of reducers for MR-GPMRS (the paper defaults to one per
    /// cluster node). MR-GPSRS always uses a single reducer.
    pub reducers: usize,
    /// Grid PPD selection.
    pub ppd: PpdPolicy,
    /// How independent groups are merged when there are more groups than
    /// reducers (paper Section 5.4.1).
    pub merge_policy: MergePolicy,
    /// Whether to prune dominated partitions from the bitstring
    /// (Equation 2). Disabled only by the ablation benchmarks.
    pub prune_bitstring: bool,
    /// The local-skyline kernel mappers run per partition (the paper's
    /// future-work knob; BNL is the paper's own choice).
    pub local_algo: LocalAlgo,
    /// The simulated cluster.
    pub cluster: ClusterConfig,
    /// Fault injection, retry budget, and speculation for the pipeline's
    /// jobs (benign by default).
    pub fault_tolerance: FaultTolerance,
    /// Optional span collector: when set, every job in the pipeline emits
    /// its deterministic span timeline (and metrics registry) into it.
    /// `None` costs nothing — registries are still built per job.
    pub telemetry: Option<Collector>,
    /// Pipeline checkpoint/resume controls (off by default).
    pub checkpoint: CheckpointConfig,
}

impl Default for SkylineConfig {
    fn default() -> Self {
        let cluster = ClusterConfig::default();
        Self {
            mappers: cluster.map_slots,
            reducers: cluster.reduce_slots,
            ppd: PpdPolicy::auto(),
            merge_policy: MergePolicy::ComputationCost,
            prune_bitstring: true,
            local_algo: LocalAlgo::Bnl,
            cluster,
            fault_tolerance: FaultTolerance::none(),
            telemetry: None,
            checkpoint: CheckpointConfig::default(),
        }
    }
}

impl SkylineConfig {
    /// Small, fast configuration for tests: 4-node cluster with negligible
    /// simulated overheads and a fixed 3-PPD grid.
    pub fn test() -> Self {
        Self {
            mappers: 4,
            reducers: 4,
            ppd: PpdPolicy::Fixed(3),
            merge_policy: MergePolicy::ComputationCost,
            prune_bitstring: true,
            local_algo: LocalAlgo::Bnl,
            cluster: ClusterConfig::test(),
            fault_tolerance: FaultTolerance::none(),
            telemetry: None,
            checkpoint: CheckpointConfig::default(),
        }
    }

    /// Sets a fixed PPD.
    pub fn with_ppd(mut self, ppd: usize) -> Self {
        self.ppd = PpdPolicy::Fixed(ppd);
        self
    }

    /// Sets the mapper count.
    pub fn with_mappers(mut self, mappers: usize) -> Self {
        self.mappers = mappers;
        self
    }

    /// Sets the reducer count (MR-GPMRS).
    pub fn with_reducers(mut self, reducers: usize) -> Self {
        self.reducers = reducers;
        self
    }

    /// Sets the fault-tolerance configuration.
    pub fn with_fault_tolerance(mut self, ft: FaultTolerance) -> Self {
        self.fault_tolerance = ft;
        self
    }

    /// Enables (or disables) Hadoop-style skip-bad-records recovery on the
    /// simulated cluster: a record that deterministically fails its task is
    /// narrowed to and skipped, and the job completes with
    /// `degraded: true` instead of aborting. Off by default — skipping
    /// changes the job's output.
    pub fn with_skip_bad_records(mut self, skip: bool) -> Self {
        self.cluster.skip_bad_records = skip;
        self
    }

    /// Sets the simulated-clock progress timeout after which a hung
    /// attempt is killed and retried.
    pub fn with_progress_timeout(mut self, timeout: Duration) -> Self {
        self.cluster.progress_timeout = timeout;
        self
    }

    /// Caps each map task's output buffer at `bytes`, spilling sorted runs
    /// to disk and external-merging them on the reduce side (the
    /// out-of-core storage plane). `None` keeps all intermediates in
    /// memory.
    pub fn with_memory_budget(mut self, bytes: Option<u64>) -> Self {
        self.cluster.storage.memory_budget = bytes;
        self
    }

    /// Directory for spill files (default: the OS temp directory). Only
    /// meaningful together with [`Self::with_memory_budget`].
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cluster.storage.spill_dir = Some(dir.into());
        self
    }

    /// Attaches (or detaches) a span collector for the pipeline's jobs.
    pub fn with_telemetry(mut self, collector: Option<Collector>) -> Self {
        self.telemetry = collector;
        self
    }

    /// Persists pipeline checkpoints to `path` after every completed job.
    pub fn with_checkpoint_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint.file = Some(path.into());
        self
    }

    /// Resumes from the checkpoint file (no-op without one, or when the
    /// file is missing or stale).
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.checkpoint.resume = resume;
        self
    }

    /// Chaos kill-point: the pipeline aborts with
    /// [`Error::PipelineKilled`] when entering the
    /// job after `n` completed jobs.
    pub fn with_kill_after(mut self, n: usize) -> Self {
        self.checkpoint.kill_after = Some(n);
        self
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.mappers == 0 {
            return Err(Error::InvalidConfig("mappers must be >= 1".into()));
        }
        if self.reducers == 0 {
            return Err(Error::InvalidConfig("reducers must be >= 1".into()));
        }
        match self.ppd {
            PpdPolicy::Fixed(0) => Err(Error::InvalidConfig("fixed PPD must be >= 1".into())),
            PpdPolicy::Auto {
                max_ppd,
                max_partitions,
            } if max_ppd < 2 || max_partitions < 4 => {
                Err(Error::InvalidConfig("auto PPD caps too small".into()))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mirrors_cluster_shape() {
        let c = SkylineConfig::default();
        assert_eq!(c.mappers, 13);
        assert_eq!(c.reducers, 13);
        assert!(c.prune_bitstring);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_update_fields() {
        let c = SkylineConfig::test()
            .with_ppd(5)
            .with_mappers(2)
            .with_reducers(3)
            .with_skip_bad_records(true)
            .with_progress_timeout(Duration::from_millis(9))
            .with_memory_budget(Some(1 << 20))
            .with_spill_dir("/tmp/spills");
        assert_eq!(c.ppd, PpdPolicy::Fixed(5));
        assert_eq!(c.mappers, 2);
        assert_eq!(c.reducers, 3);
        assert!(c.cluster.skip_bad_records);
        assert_eq!(c.cluster.progress_timeout, Duration::from_millis(9));
        assert_eq!(c.cluster.storage.memory_budget, Some(1 << 20));
        assert_eq!(
            c.cluster.storage.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/spills"))
        );
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = SkylineConfig::test();
        c.mappers = 0;
        assert!(c.validate().is_err());
        let mut c = SkylineConfig::test();
        c.reducers = 0;
        assert!(c.validate().is_err());
        let mut c = SkylineConfig::test();
        c.ppd = PpdPolicy::Fixed(0);
        assert!(c.validate().is_err());
        let mut c = SkylineConfig::test();
        c.ppd = PpdPolicy::Auto {
            max_ppd: 1,
            max_partitions: 100,
        };
        assert!(c.validate().is_err());
    }
}
