//! Shared configuration and result types for the baseline drivers.

use skymr_common::{Error, Result, Tuple};
use skymr_mapreduce::{ClusterConfig, FaultTolerance, PipelineMetrics};

/// Configuration for the MapReduce baselines.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Number of mappers (input splits).
    pub mappers: usize,
    /// Number of angular partitions for MR-Angle (ignored by MR-BNL /
    /// MR-SFS, whose cell count is fixed at `2^d` by construction).
    pub angular_partitions: usize,
    /// The simulated cluster.
    pub cluster: ClusterConfig,
    /// Fault injection, retry budget, and speculation for the pipeline's
    /// jobs (benign by default).
    pub fault_tolerance: FaultTolerance,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        let cluster = ClusterConfig::default();
        Self {
            mappers: cluster.map_slots,
            angular_partitions: cluster.nodes,
            cluster,
            fault_tolerance: FaultTolerance::none(),
        }
    }
}

impl BaselineConfig {
    /// Small, fast configuration for tests.
    pub fn test() -> Self {
        Self {
            mappers: 4,
            angular_partitions: 4,
            cluster: ClusterConfig::test(),
            fault_tolerance: FaultTolerance::none(),
        }
    }

    /// Sets the mapper count.
    pub fn with_mappers(mut self, mappers: usize) -> Self {
        self.mappers = mappers;
        self
    }

    /// Sets the fault-tolerance configuration.
    pub fn with_fault_tolerance(mut self, ft: FaultTolerance) -> Self {
        self.fault_tolerance = ft;
        self
    }

    /// Sets (or clears) the per-slot memory budget; `Some` turns the
    /// out-of-core storage plane on for every job in the pipeline.
    pub fn with_memory_budget(mut self, bytes: Option<u64>) -> Self {
        self.cluster.storage.memory_budget = bytes;
        self
    }

    /// Sets the directory spill files are created under.
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.cluster.storage.spill_dir = Some(dir.into());
        self
    }

    /// Rejects a configuration no baseline pipeline can run, before any
    /// input is split.
    pub fn validate(&self) -> Result<()> {
        validate_mappers(self.mappers)
    }
}

/// Every baseline splits its input among at least one mapper.
pub(crate) fn validate_mappers(mappers: usize) -> Result<()> {
    match mappers {
        0 => Err(Error::InvalidConfig("mappers must be >= 1".into())),
        _ => Ok(()),
    }
}

/// Result of one baseline MapReduce run.
#[derive(Debug)]
pub struct BaselineRun {
    /// The global skyline, sorted by tuple id.
    pub skyline: Vec<Tuple>,
    /// Per-job metrics (baselines are single-job pipelines).
    pub metrics: PipelineMetrics,
}

impl BaselineRun {
    /// The skyline tuple ids, sorted — the canonical comparison form.
    pub fn skyline_ids(&self) -> Vec<u64> {
        self.skyline.iter().map(|t| t.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_cluster_shape() {
        let c = BaselineConfig::default();
        assert_eq!(c.mappers, 13);
        assert_eq!(c.angular_partitions, 13);
        assert!(c.fault_tolerance.plan.is_empty());
    }

    #[test]
    fn builder_sets_mappers() {
        assert_eq!(BaselineConfig::test().with_mappers(7).mappers, 7);
    }

    #[test]
    fn builders_set_storage_plane() {
        let c = BaselineConfig::test()
            .with_memory_budget(Some(1 << 20))
            .with_spill_dir("/tmp/spills");
        assert_eq!(c.cluster.storage.memory_budget, Some(1 << 20));
        assert_eq!(
            c.cluster.storage.spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/spills"))
        );
        assert!(BaselineConfig::test()
            .cluster
            .storage
            .memory_budget
            .is_none());
    }
}
