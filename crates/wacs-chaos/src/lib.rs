//! `wacs-chaos` — deterministic real-path chaos layer.
//!
//! Everything upstream of this crate exercises the relay stack either
//! cleanly (liveness tests, the gated benchmark) or in virtual time (`netsim`).
//! This crate injects *socket-level* faults into the real-socket path
//! and measures how long the stack takes to recover:
//!
//! * [`profile`] — fault classes and the seeded, pure decision
//!   procedure ([`ChaosProfile::decide`] is a function of
//!   `(seed, leg, seq)` only);
//! * [`interpose`] — the in-process TCP "netem": a [`ChaosInterposer`]
//!   implements `nexus_proxy::DialInterposer` and splices a fault pump
//!   into any dialed stream (mid-stream RST, stalls, throttles,
//!   connect blackholes, delayed FIN, split/merged writes);
//! * [`invariants`] — post-recovery checkers: byte-exact payloads,
//!   relay/admission accounting back to zero, monotone fleet
//!   generations;
//! * [`orchestrator`] — scenario runner: per-class echo drills over a
//!   real firewalled world, plus rolling restarts of the outer-shard
//!   fleet mid-striped-transfer and inner-daemon kill/restart under
//!   live load. Records `wacs.chaos.recovery_ns.<class>` histograms.
//!
//! Determinism contract: decision-side counters land in a *drill
//! registry* that is byte-identical across same-seed runs (ci.sh runs
//! the `chaos_drill` bin twice and diffs); wall-clock recovery
//! histograms land in a separate timing registry that feeds the
//! per-cell recovery percentiles ([`CellOutcome`]) only.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod interpose;
pub mod invariants;
pub mod orchestrator;
pub mod profile;

pub use interpose::{pace_until, ChaosInterposer};
pub use invariants::{fnv64, wait_quiesced, InvariantLedger};
pub use orchestrator::{CellOutcome, ChaosSuite, SuiteConfig};
pub use profile::{ChaosProfile, FaultClass, FaultParams, FaultPlan, FaultRule};
