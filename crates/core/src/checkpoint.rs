//! Checkpoint/resume wiring for the two-job skyline drivers.
//!
//! The engine's [`Runner`](skymr_mapreduce::Runner) snapshots each stage's
//! forward-flowing value through its [`Wire`] encoding. For the skyline
//! pipelines those values are the bitstring pre-job's result
//! ([`BitstringStage`], encoded here) and the final tuple list. With both
//! in place, a driver killed between the bitstring job and the skyline job
//! resumes from the checkpoint without re-running the pre-job — and the
//! chaos suite asserts the resumed skyline is byte-identical to a fresh
//! run's.

use skymr_common::{BitGrid, Dataset, Wire, WireCursor};

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
        let mut r = WireCursor::new(payload);
        usize::wire_decode(&mut r) == Some(dataset.dim())
            && usize::wire_decode(&mut r)
                .is_some_and(|p| ppd.ppds(dataset.len(), dataset.dim()).contains(&p))
    }
}

/// Layout: grid dim and PPD (the header a resume checks first),
/// the three [`BitstringInfo`] statistics, then the bit pattern.
impl Wire for BitstringStage {
    fn wire_encode(&self, out: &mut Vec<u8>) {
        let grid = self.bitstring.grid();
        for field in [
            grid.dim(),
            grid.ppd(),
            self.info.ppd,
            self.info.non_empty,
            self.info.surviving,
        ] {
            field.wire_encode(out);
        }
        self.bitstring.bits().wire_encode(out);
    }

    fn wire_decode(r: &mut WireCursor<'_>) -> Option<Self> {
        let grid = Grid::new(usize::wire_decode(r)?, usize::wire_decode(r)?).ok()?;
        let info = BitstringInfo {
            ppd: usize::wire_decode(r)?,
            non_empty: usize::wire_decode(r)?,
            surviving: usize::wire_decode(r)?,
        };
        let bits = BitGrid::wire_decode(r)?;
        (bits.len() == grid.num_partitions()).then(|| Self {
            bitstring: Bitstring::from_parts(grid, bits),
            info,
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

    fn decode(bytes: &[u8]) -> Option<BitstringStage> {
        let mut r = WireCursor::new(bytes);
        BitstringStage::wire_decode(&mut r).filter(|_| r.is_empty())
    }

    #[test]
    fn bitstring_stage_round_trips() {
        let original = stage();
        let mut bytes = Vec::new();
        original.wire_encode(&mut bytes);
        assert_eq!(decode(&bytes).as_ref(), Some(&original));
        let mut again = Vec::new();
        original.wire_encode(&mut again);
        assert_eq!(bytes, again, "encoding must be deterministic");
        // Truncation, padding, a bit pattern of the wrong length, and a
        // set bit past the grid are all rejected.
        assert!(decode(&bytes[..bytes.len() - 1]).is_none());
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0; 8]);
        assert!(decode(&padded).is_none());
        let mut wrong_len = bytes.clone();
        wrong_len[40] = 10;
        assert!(decode(&wrong_len).is_none());
        let mut past_end = bytes;
        past_end[45] |= 0x80;
        assert!(decode(&past_end).is_none());
    }

    #[test]
    fn killed_pipeline_resumes_to_the_same_skyline() {
        let ds = generate(Distribution::Anticorrelated, 3, 500, 31);
        let fresh = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();

        let path = std::env::temp_dir().join(format!(
            "skymr-core-resume-test-{}.ckpt",
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
        // 56 bytes in a frame with an intact CRC: dim 1, PPD 2^40, then
        // fields no run would write. `fits` turns it away from the header.
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
                "skymr-core-huge-grid-test-{}-{dim}.ckpt",
                std::process::id()
            ));
            std::fs::write(&path, checkpoint.to_bytes()).unwrap();
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
            std::env::temp_dir().join(format!("skymr-core-rot-test-{}.ckpt", std::process::id()));
        mr_gpsrs(
            &ds,
            &SkylineConfig::test()
                .with_checkpoint_file(&path)
                .with_kill_after(1),
        )
        .expect_err("kill-point fires");

        // Rot one bit of the bitstring snapshot's payload: past the file
        // header (12 bytes), the frame length (4), the name (4 + 9) and
        // the simulated µs (8).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[37] ^= 1;
        std::fs::write(&path, bytes).unwrap();

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

    #[test]
    fn checkpoint_io_errors_fail_the_run() {
        let ds = generate(Distribution::Independent, 2, 200, 7);
        let missing = std::env::temp_dir()
            .join(format!("skymr-core-no-dir-{}", std::process::id()))
            .join("checkpoint");
        let err = mr_gpsrs(&ds, &SkylineConfig::test().with_checkpoint_file(&missing))
            .expect_err("a checkpoint that cannot be written fails the run");
        assert!(
            matches!(&err, Error::CheckpointWrite { path, .. } if *path == missing),
            "{err:?}"
        );
        // A directory given to resume from is an error, not a fresh run.
        let err = mr_gpsrs(
            &ds,
            &SkylineConfig::test()
                .with_checkpoint_file(std::env::temp_dir())
                .with_resume(true),
        )
        .expect_err("an unreadable checkpoint aborts the resume");
        assert!(
            matches!(&err, Error::CheckpointCorrupt { job, .. } if job == "<document>"),
            "{err:?}"
        );
    }
}
