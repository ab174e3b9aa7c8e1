//! # wacs-obs — the workspace observability layer
//!
//! A dependency-free metrics registry shared by the simulator and the
//! real-socket paths: counters, gauges and log-linear histograms with a
//! bounded relative error on quantile estimates. Everything is designed
//! around one invariant:
//!
//! > **Determinism.** Under the simulator, every recorded value derives
//! > from `SimTime` (integer nanoseconds) — never from the wall clock —
//! > so two runs with identical seeds produce byte-identical
//! > [`RegistrySnapshot::to_json`] output.
//!
//! To keep the dependency graph acyclic (`netsim` records into the
//! registry), this crate knows nothing about `netsim`: histograms record
//! raw `u64` nanosecond durations, and callers pass
//! `SimTime::as_nanos()` (sim paths) or a monotonic-clock delta (real
//! paths, where determinism is not expected).
//!
//! ## Shape
//!
//! * [`Registry`] — a cloneable handle to a named-metric table.
//!   `counter`/`gauge`/`histogram` are get-or-create: threading the same
//!   registry through many components aggregates naturally.
//! * [`Histogram`] — log-linear buckets (16 per octave): quantile
//!   estimates are within **6.25%** relative error of a true recorded
//!   value. Sums saturate; the top bucket absorbs arbitrarily large
//!   values instead of overflowing.
//! * [`RegistrySnapshot`] — a point-in-time copy. Snapshots merge
//!   commutatively (`merge(a,b) == merge(b,a)`) and serialize to a
//!   stable, integer-only JSON document (BTreeMap key order).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod hist;
pub mod json;
pub mod registry;
pub mod snapshot;

pub use hist::{HistogramCore, HistogramSnapshot};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use snapshot::RegistrySnapshot;
