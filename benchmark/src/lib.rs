//! The repo benchmark: five host-wall workloads over the skyline pipelines,
//! a per-layer probe set, and a traced run. See `README.md` beside this
//! crate for every metric's definition and how the layers map onto the
//! end-to-end numbers.
//!
//! The crate only *calls* the workspace's public functions and times them
//! from outside; it changes nothing it measures.

#![warn(missing_docs)]

pub mod measure;
pub mod probes;
pub mod report;
pub mod sched_probe;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;

/// The benchmark's error type: any failure ends the run with a message and
/// a non-zero exit, never a result line.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;
