//! Deterministic telemetry for the simulated MapReduce engine.
//!
//! The engine's evaluation story (the paper's Sections 6–7) is entirely
//! about *where time goes* — map vs. shuffle vs. reduce, bitstring-job
//! overhead, per-partition pruning effectiveness. This crate provides the
//! measurement substrate:
//!
//! * a **span tree** ([`Span`], [`SpanGuard`], [`Collector`]) keyed to the
//!   *simulated* cluster clock — never the host's wall clock — with stable
//!   span IDs derived from `(job, phase, task, attempt)`;
//! * a **metrics registry** ([`MetricsRegistry`]) with typed counters,
//!   gauges, and fixed-bucket histograms (integer bucket boundaries only);
//! * **exporters**: Chrome `trace_event` JSON (loadable in Perfetto /
//!   `chrome://tracing`), machine-readable JSONL, and a plain-text
//!   per-job phase summary table.
//!
//! # Determinism rules
//!
//! Everything that reaches an export must be a pure function of the job's
//! *logical* execution: record, byte and charged-work counts, configured
//! `Duration` constants, and the deterministic fault plan. Concretely:
//!
//! 1. **No wall-clock reads.** Span times are model ticks (microseconds on
//!    the simulated clock) computed by [`model`], never `Instant::now()`.
//! 2. **No hash-iteration ordering.** Every map in this crate is a
//!    `BTreeMap`; exporters additionally sort events by a total order.
//! 3. **No floats in bucket boundaries or exported values.** Histogram
//!    bounds are `u64`; exported numbers are integers.
//!
//! Under those rules the same seeded job produces *byte-identical* exports
//! regardless of host thread count or schedule shaking — speculative runs
//! included: backups are planned and won on model ticks.

#![forbid(unsafe_code)]

pub mod collector;
pub mod export;
pub mod json;
pub mod model;
pub mod place;
pub mod registry;
pub mod span;
pub mod summary;

pub use collector::{Collector, JobTrace, SpanGuard, TraceDocument};
pub use registry::{Histogram, MetricsRegistry};
pub use span::{span_id, ArgValue, EventKind, Span, Ticks, TraceEvent};
pub use summary::{phase_table, JobPhaseSummary};
