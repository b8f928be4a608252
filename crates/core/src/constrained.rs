//! Constrained skyline queries in MapReduce (the query class of the
//! paper's reference \[5\], Chen, Cui, Lu — TKDE 2011).
//!
//! A *constrained* skyline restricts both candidates and dominators to an
//! axis-aligned range [`Constraint`]: "the best hotels **under €150 within
//! 2 km**". Tuples outside the box neither appear in the answer nor
//! disqualify tuples inside it, so the query is exactly the skyline of the
//! box's contents — but shipping the whole dataset to find it would waste
//! the very pruning this paper is about.
//!
//! The grid machinery adapts directly: mappers drop out-of-box tuples on
//! contact (before any window work), the bitstring job runs on the
//! filtered stream — so partition-dominance pruning operates *within the
//! constrained region* — and both MR-GPSRS and MR-GPMRS run unchanged on
//! top. The constraint travels to the mappers like the bitstring does, as
//! broadcast state.

use skymr_common::{Dataset, Error, Result, Tuple};

use crate::config::SkylineConfig;
use crate::gpmrs::mr_gpmrs;
use crate::gpsrs::mr_gpsrs;
use crate::result::SkylineRun;

/// An axis-aligned range constraint: `lo[k] ≤ value[k] < hi[k]` per
/// dimension.
///
/// ```
/// use skymr::{mr_constrained_gpmrs, Constraint, SkylineConfig};
/// use skymr_datagen::{generate, Distribution};
///
/// let data = generate(Distribution::Anticorrelated, 2, 2_000, 9);
/// // "Best options with both criteria under 0.6."
/// let c = Constraint::new(vec![0.0, 0.0], vec![0.6, 0.6]).unwrap();
/// let run = mr_constrained_gpmrs(&data, &c, &SkylineConfig::test()).unwrap();
/// assert!(run.skyline.iter().all(|t| c.contains(t)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Constraint {
    /// Creates a constraint box; bounds are clamped into `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Fails when the bounds' dimensionalities differ, are empty, or some
    /// `lo[k] ≥ hi[k]` (an empty box).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self> {
        if lo.is_empty() || lo.len() != hi.len() {
            return Err(Error::InvalidConfig(
                "constraint bounds must have equal, nonzero dimensionality".into(),
            ));
        }
        let lo: Vec<f64> = lo.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
        let hi: Vec<f64> = hi.into_iter().map(|v| v.clamp(0.0, 1.0)).collect();
        if lo.iter().zip(hi.iter()).any(|(&a, &b)| a >= b) {
            return Err(Error::InvalidConfig(
                "constraint box is empty on some dimension".into(),
            ));
        }
        Ok(Self { lo, hi })
    }

    /// The unconstrained box over a `dim`-dimensional space.
    pub fn unbounded(dim: usize) -> Self {
        Self {
            lo: vec![0.0; dim],
            hi: vec![1.0; dim],
        }
    }

    /// Dimensionality of the box.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// `true` iff `t` lies inside the box.
    pub fn contains(&self, t: &Tuple) -> bool {
        debug_assert_eq!(t.dim(), self.dim());
        t.values
            .iter()
            .zip(self.lo.iter().zip(self.hi.iter()))
            .all(|(&v, (&lo, &hi))| v >= lo && v < hi)
    }

    /// Filters a dataset down to the box contents (the reference path used
    /// by tests; the MapReduce path filters inside the mappers instead).
    pub fn filter(&self, dataset: &Dataset) -> Dataset {
        let tuples = dataset
            .tuples()
            .iter()
            .filter(|t| self.contains(t))
            .cloned()
            .collect::<Vec<_>>();
        Dataset::new_unchecked(dataset.dim(), tuples)
    }
}

/// Runs the constrained skyline with the single-reducer pipeline.
///
/// # Errors
///
/// Fails when the constraint's dimensionality disagrees with the dataset
/// or the configuration is invalid.
pub fn mr_constrained_gpsrs(
    dataset: &Dataset,
    constraint: &Constraint,
    config: &SkylineConfig,
) -> Result<SkylineRun> {
    check_dims(dataset, constraint)?;
    // Mapper-side filtering: the constraint is applied before any window
    // work, and the bitstring job sees only in-box tuples, so partition
    // pruning happens within the constrained region. (Splitting after the
    // filter is equivalent to filtering inside each mapper: both give
    // every mapper the in-box subset of its share.)
    mr_gpsrs(&constraint.filter(dataset), config)
}

/// Runs the constrained skyline with the multi-reducer pipeline.
///
/// # Errors
///
/// See [`mr_constrained_gpsrs`].
pub fn mr_constrained_gpmrs(
    dataset: &Dataset,
    constraint: &Constraint,
    config: &SkylineConfig,
) -> Result<SkylineRun> {
    check_dims(dataset, constraint)?;
    mr_gpmrs(&constraint.filter(dataset), config)
}

fn check_dims(dataset: &Dataset, constraint: &Constraint) -> Result<()> {
    if dataset.dim() != constraint.dim() {
        return Err(Error::DimensionMismatch {
            expected: dataset.dim(),
            got: constraint.dim(),
            tuple_id: u64::MAX,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local::bnl_reference;
    use skymr_datagen::{generate, Distribution};

    fn constraint(lo: &[f64], hi: &[f64]) -> Constraint {
        Constraint::new(lo.to_vec(), hi.to_vec()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Constraint::new(vec![], vec![]).is_err());
        assert!(Constraint::new(vec![0.1], vec![0.5, 0.6]).is_err());
        assert!(Constraint::new(vec![0.5, 0.2], vec![0.5, 0.8]).is_err());
        assert!(
            Constraint::new(vec![-1.0, 0.0], vec![0.5, 2.0]).is_ok(),
            "bounds clamp"
        );
    }

    #[test]
    fn contains_respects_half_open_box() {
        let c = constraint(&[0.2, 0.2], &[0.6, 0.6]);
        assert!(c.contains(&Tuple::new(0, vec![0.2, 0.5])));
        assert!(!c.contains(&Tuple::new(0, vec![0.6, 0.5])));
        assert!(!c.contains(&Tuple::new(0, vec![0.1, 0.5])));
    }

    #[test]
    fn constrained_skyline_equals_oracle_on_filtered_data() {
        let ds = generate(Distribution::Anticorrelated, 3, 800, 191);
        let c = constraint(&[0.1, 0.0, 0.2], &[0.9, 0.7, 1.0]);
        let oracle = bnl_reference(c.filter(&ds).tuples());
        let config = SkylineConfig::test();
        let a = mr_constrained_gpsrs(&ds, &c, &config).unwrap();
        let b = mr_constrained_gpmrs(&ds, &c, &config).unwrap();
        assert_eq!(a.skyline, oracle);
        assert_eq!(b.skyline, oracle);
        assert!(!oracle.is_empty(), "scenario should have in-box tuples");
    }

    #[test]
    fn constraint_can_add_tuples_to_the_answer() {
        // A tuple dominated only by out-of-box tuples enters the
        // constrained skyline: the query is not a subset relationship.
        let ds = Dataset::new(
            2,
            vec![
                Tuple::new(0, vec![0.05, 0.05]), // dominator, outside the box
                Tuple::new(1, vec![0.5, 0.5]),   // inside, dominated only by 0
            ],
        )
        .unwrap();
        let c = constraint(&[0.3, 0.3], &[1.0, 1.0]);
        let run = mr_constrained_gpsrs(&ds, &c, &SkylineConfig::test()).unwrap();
        assert_eq!(run.skyline_ids(), vec![1]);
        // Unconstrained, tuple 1 is dominated away.
        let full = mr_gpsrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(full.skyline_ids(), vec![0]);
    }

    #[test]
    fn unbounded_constraint_is_the_plain_skyline() {
        let ds = generate(Distribution::Independent, 3, 400, 192);
        let c = Constraint::unbounded(3);
        let constrained = mr_constrained_gpmrs(&ds, &c, &SkylineConfig::test()).unwrap();
        let plain = mr_gpmrs(&ds, &SkylineConfig::test()).unwrap();
        assert_eq!(constrained.skyline_ids(), plain.skyline_ids());
    }

    #[test]
    fn empty_box_contents_yield_empty_skyline() {
        let ds = generate(Distribution::Correlated, 2, 200, 193);
        // A thin box in a far corner unlikely to contain correlated data.
        let c = constraint(&[0.0, 0.98], &[0.02, 1.0]);
        let run = mr_constrained_gpsrs(&ds, &c, &SkylineConfig::test()).unwrap();
        assert_eq!(run.skyline, bnl_reference(c.filter(&ds).tuples()));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let ds = generate(Distribution::Independent, 3, 50, 194);
        let c = constraint(&[0.0, 0.0], &[1.0, 1.0]);
        assert!(mr_constrained_gpsrs(&ds, &c, &SkylineConfig::test()).is_err());
    }
}
