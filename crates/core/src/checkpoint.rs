//! Checkpoint/resume wiring for the two-job skyline drivers.
//!
//! The engine's [`Runner`](skymr_mapreduce::Runner) snapshots each stage's
//! forward-flowing value via [`Snapshot`]. For the skyline pipelines those
//! values are the bitstring pre-job's result ([`BitstringStage`], encoded
//! here) and the final tuple list (covered by the engine's
//! `impl Snapshot for Vec<Tuple>`). With both in place, a driver killed
//! between the bitstring job and the skyline job resumes from the
//! checkpoint without re-running the pre-job — and the chaos suite asserts
//! the resumed skyline is byte-identical to a fresh run's.

use skymr_common::{BitGrid, Dataset};
use skymr_mapreduce::Snapshot;

use crate::bitstring::job::BitstringInfo;
use crate::bitstring::Bitstring;
use crate::config::PpdPolicy;
use crate::grid::Grid;

/// The bitstring pre-job's forward-flowing value: the (pruned) global
/// bitstring plus what the job learned about the data. This is exactly
/// what the skyline job needs, so it is what crosses a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitstringStage {
    /// The global bitstring (grid + bit pattern).
    pub bitstring: Bitstring,
    /// PPD/occupancy statistics reported in [`crate::result::RunInfo`].
    pub info: BitstringInfo,
}

impl BitstringStage {
    /// Whether a snapshot payload's grid is one a run over `dataset` under
    /// `ppd` could build: the dataset's dimensionality and a PPD the policy
    /// allows. Reads the header alone, so a grid no run would build is
    /// turned away before anything is allocated for it.
    pub(crate) fn fits(payload: &[u8], dataset: &Dataset, ppd: &PpdPolicy) -> bool {
        let field = |k: usize| {
            let bytes = payload.get(k * 8..k * 8 + 8)?.try_into().ok()?;
            usize::try_from(u64::from_le_bytes(bytes)).ok()
        };
        field(0) == Some(dataset.dim())
            && field(1).is_some_and(|p| ppd.ppds(dataset.len(), dataset.dim()).contains(&p))
    }
}

/// Layout (all `u64` little-endian): grid dim and PPD, the three
/// [`BitstringInfo`] statistics, the bit count, then one index per set
/// bit in ascending order. Set-bit indices rather than raw words keep the
/// encoding independent of [`BitGrid`]'s internal packing.
impl Snapshot for BitstringStage {
    fn encode(&self) -> Vec<u8> {
        let grid = self.bitstring.grid();
        let bits = self.bitstring.bits();
        let mut out = Vec::with_capacity(56 + bits.count_ones() * 8);
        for field in [
            grid.dim() as u64,
            grid.ppd() as u64,
            self.info.ppd as u64,
            self.info.non_empty as u64,
            self.info.surviving as u64,
            bits.len() as u64,
            bits.count_ones() as u64,
        ] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        for i in bits.iter_ones() {
            out.extend_from_slice(&(i as u64).to_le_bytes());
        }
        out
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut fields = [0u64; 7];
        if bytes.len() < 56 {
            return None;
        }
        for (k, field) in fields.iter_mut().enumerate() {
            *field = u64::from_le_bytes(bytes.get(k * 8..k * 8 + 8)?.try_into().ok()?);
        }
        let [dim, grid_ppd, info_ppd, non_empty, surviving, bit_len, ones] = fields;
        let grid = Grid::new(usize::try_from(dim).ok()?, usize::try_from(grid_ppd).ok()?).ok()?;
        if grid.num_partitions() as u64 != bit_len {
            return None;
        }
        let ones = usize::try_from(ones).ok()?;
        if bytes.len() != 56 + ones * 8 {
            return None;
        }
        let mut bits = BitGrid::zeros(grid.num_partitions());
        for k in 0..ones {
            let at = 56 + k * 8;
            let i = u64::from_le_bytes(bytes.get(at..at + 8)?.try_into().ok()?);
            let i = usize::try_from(i).ok()?;
            if i >= bits.len() {
                return None;
            }
            bits.set(i);
        }
        Some(Self {
            bitstring: Bitstring::from_parts(grid, bits),
            info: BitstringInfo {
                ppd: usize::try_from(info_ppd).ok()?,
                non_empty: usize::try_from(non_empty).ok()?,
                surviving: usize::try_from(surviving).ok()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SkylineConfig;
    use crate::gpsrs::mr_gpsrs;
    use skymr_common::Error;
    use skymr_datagen::{generate, Distribution};

    fn stage() -> BitstringStage {
        let grid = Grid::new(2, 3).unwrap();
        let mut bits = BitGrid::zeros(9);
        for i in [1, 2, 3, 4, 6] {
            bits.set(i);
        }
        BitstringStage {
            bitstring: Bitstring::from_parts(grid, bits),
            info: BitstringInfo {
                ppd: 3,
                non_empty: 5,
                surviving: 5,
            },
        }
    }

    #[test]
    fn bitstring_stage_round_trips() {
        let original = stage();
        let bytes = original.encode();
        assert_eq!(BitstringStage::decode(&bytes).as_ref(), Some(&original));
        assert_eq!(bytes, original.encode(), "encoding must be deterministic");
        // Truncation, padding, and out-of-range bits are all rejected.
        assert!(BitstringStage::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 8]);
        assert!(BitstringStage::decode(&padded).is_none());
        let mut bad = bytes;
        let at = bad.len() - 8;
        bad[at..].copy_from_slice(&99u64.to_le_bytes());
        assert!(BitstringStage::decode(&bad).is_none());
    }

    #[test]
    fn killed_pipeline_resumes_to_the_same_skyline() {
        let ds = generate(Distribution::Anticorrelated, 3, 500, 31);
        let fresh = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();

        let path = std::env::temp_dir().join(format!(
            "skymr-core-resume-test-{}.json",
            std::process::id()
        ));
        let killed = mr_gpsrs(
            &ds,
            &SkylineConfig::test()
                .with_checkpoint_file(&path)
                .with_kill_after(1),
        )
        .expect_err("the kill-point must fire between the two jobs");
        assert_eq!(killed, Error::PipelineKilled { after_jobs: 1 });

        let resumed = mr_gpsrs(
            &ds,
            &SkylineConfig::test()
                .with_checkpoint_file(&path)
                .with_resume(true),
        )
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(resumed.skyline, fresh.skyline);
        // The pipeline shape survives the resume: two jobs, same names.
        assert_eq!(resumed.metrics.jobs.len(), 2);
        assert_eq!(resumed.metrics.jobs[0].name, "bitstring");
        assert_eq!(resumed.metrics.jobs[1].name, "gpsrs");
        // The replayed bitstring stage ran no tasks this time around.
        assert_eq!(resumed.metrics.jobs[0].map_tasks, 0);
        assert_eq!(resumed.info.ppd, fresh.info.ppd);
        assert_eq!(
            resumed.info.surviving_partitions,
            fresh.info.surviving_partitions
        );
    }

    #[test]
    fn a_grid_the_run_could_not_build_falls_back_to_execution() {
        use skymr_mapreduce::{Checkpoint, JobSnapshot};
        // 56 bytes with an intact CRC: dim 1, PPD 2^40, 2^40 bits, none
        // set. Decoding it would ask for 2^40 bits.
        let mut payload = Vec::new();
        for field in [1u64, 1 << 40, 1 << 40, 0, 0, 1 << 40, 0] {
            payload.extend_from_slice(&field.to_le_bytes());
        }
        assert_eq!(payload.len(), 56);
        let checkpoint = Checkpoint {
            jobs: vec![JobSnapshot {
                name: "bitstring".into(),
                payload,
                sim_runtime: std::time::Duration::from_millis(1),
            }],
        };
        // A 3-d run rejects the grid's dimensionality, a 1-d run its PPD.
        for dim in [3, 1] {
            let ds = generate(Distribution::Independent, dim, 500, 11);
            let fresh = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
            let path = std::env::temp_dir().join(format!(
                "skymr-core-huge-grid-test-{}-{dim}.json",
                std::process::id()
            ));
            std::fs::write(&path, checkpoint.to_json()).unwrap();
            let resumed = mr_gpsrs(
                &ds,
                &SkylineConfig::test()
                    .with_checkpoint_file(&path)
                    .with_resume(true),
            );
            let _ = std::fs::remove_file(&path);
            let resumed = resumed.unwrap();
            assert_eq!(resumed.skyline, fresh.skyline);
            // The bitstring stage ran again instead of replaying.
            assert!(resumed.metrics.jobs[0].map_tasks > 0);
        }
    }

    #[test]
    fn resuming_from_a_bit_rotted_checkpoint_aborts_with_a_structured_error() {
        let ds = generate(Distribution::Independent, 2, 200, 7);
        let path =
            std::env::temp_dir().join(format!("skymr-core-rot-test-{}.json", std::process::id()));
        mr_gpsrs(
            &ds,
            &SkylineConfig::test()
                .with_checkpoint_file(&path)
                .with_kill_after(1),
        )
        .expect_err("kill-point fires");

        // Rot one payload bit in the file: swap the first hex digit of the
        // bitstring snapshot's payload.
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.find("\"payload\":\"").unwrap() + 11;
        let swapped = if text.as_bytes()[at] == b'0' {
            "1"
        } else {
            "0"
        };
        let mut rotted = text;
        rotted.replace_range(at..at + 1, swapped);
        std::fs::write(&path, rotted).unwrap();

        let err = mr_gpsrs(
            &ds,
            &SkylineConfig::test()
                .with_checkpoint_file(&path)
                .with_resume(true),
        )
        .expect_err("rot must abort the resume, not silently re-run");
        let _ = std::fs::remove_file(&path);
        match err {
            Error::CheckpointCorrupt { job, detail } => {
                assert_eq!(job, "bitstring");
                assert!(
                    detail.contains("CRC32C"),
                    "detail names the check: {detail}"
                );
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }
    }
}
