//! Baseline skyline algorithms the paper compares against.
//!
//! * [`bnl`] — centralized Block-Nested-Loops (Börzsönyi et al., ICDE
//!   2001), both with an unbounded window and with the original bounded-
//!   window multi-pass behaviour. Also the *oracle* every MapReduce
//!   algorithm in this workspace is tested against.
//! * [`sfs`] — centralized Sort-Filter-Skyline (Chomicki et al., ICDE
//!   2003): presort by a monotone score, then a single filtering pass.
//! * [`dnc`] — centralized divide-and-conquer skyline (Börzsönyi et al.'s
//!   second algorithm), strong on large (anti-correlated) skylines.
//! * [`sky_mr`](mod@sky_mr) — SKY-MR (Park et al., PVLDB 2013): a sample-built
//!   [`quadtree`] ("sky-quadtree") prunes dominated regions up front and
//!   its leaves drive multi-reducer parallelism; the sample-based
//!   competitor the paper's related-work section contrasts the bitstring
//!   against.
//! * [`mr_bnl`](mod@mr_bnl) — MR-BNL (Zhang et al., DASFAA 2011 workshops): each
//!   dimension split into two halves (2^d cells), BNL local skylines on the
//!   mappers, single merging reducer with cell-code pruning.
//! * [`mr_sfs`](mod@mr_sfs) — MR-SFS (same partitioning, SFS local skylines). The
//!   paper omits it from plots as strictly slower than MR-BNL; included for
//!   completeness.
//! * [`mr_angle`](mod@mr_angle) — MR-Angle (Chen et al., IPDPS workshops 2012 /
//!   Vlachou et al., SIGMOD 2008): angular partitioning of the data space,
//!   BNL local skylines per angular partition, single merging reducer.
//!
//! The MapReduce baselines run on the same simulated cluster engine as
//! MR-GPSRS/MR-GPMRS, so their simulated runtimes are directly comparable.
//! Deliberately, none of them benefits from the paper's bitstring: that is
//! the contribution under evaluation.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bnl;
pub mod config;
pub mod dnc;
pub mod mr_angle;
pub mod mr_bitmap;
pub mod mr_bnl;
pub mod mr_sfs;
pub mod quadtree;
pub mod sfs;
pub mod sky_mr;

pub use bnl::{bnl_skyline, bnl_skyline_windowed};
pub use config::{BaselineConfig, BaselineRun};
pub use dnc::dnc_skyline;
pub use mr_angle::mr_angle;
pub use mr_bitmap::{discretize, mr_bitmap};
pub use mr_bnl::{mr_bnl, mr_bnl_with_strategy, MergeStrategy};
pub use mr_sfs::mr_sfs;
pub use quadtree::SkyQuadtree;
pub use sfs::{sfs_skyline, SfsOrder};
pub use sky_mr::{sky_mr, SkyMrConfig};
