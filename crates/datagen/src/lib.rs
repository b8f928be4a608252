//! Synthetic data generators for skyline benchmarks.
//!
//! The paper evaluates on "synthetic data sets of independent and
//! anti-correlated distributions … generated according to the existing
//! methods \[4\]" (Börzsönyi, Kossmann, Stocker: *The Skyline Operator*,
//! ICDE 2001). This crate implements those generators plus the correlated
//! and clustered distributions commonly used alongside them:
//!
//! * [`Distribution::Independent`] — every dimension i.i.d. uniform on
//!   `[0,1)`; skylines stay small and grow slowly with dimensionality.
//! * [`Distribution::Anticorrelated`] — points scattered around the
//!   hyperplane `Σ x_k = d/2`: a tuple good in one dimension tends to be bad
//!   in the others, so a large fraction of tuples enters the skyline. This
//!   is the regime where the paper's MR-GPMRS shines.
//! * [`Distribution::Correlated`] — all dimensions track a common base
//!   value; tiny skylines.
//! * [`Distribution::Clustered`] — Gaussian blobs around random centers
//!   (not used by the paper's plots; handy for examples and robustness
//!   tests).
//!
//! All generators are deterministic given `(distribution, dim, cardinality,
//! seed)` and produce values strictly inside `[0,1)` where **smaller is
//! better**.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod distributions;
pub mod io;
pub mod normalize;

pub use distributions::{generate, stream, Distribution, TupleStream};
pub use normalize::{Direction, Normalizer};
