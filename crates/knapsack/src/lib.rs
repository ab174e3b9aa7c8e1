//! `knapsack` — the paper's workload: 0-1 knapsack by branch-and-bound
//! with master-slave self-scheduling (§4.3-4.4).
//!
//! Layers:
//!
//! * [`instance`] — problem generators, including the paper's
//!   normalized no-pruning instance;
//! * [`node`] / [`seq`] — the one branch loop and the sequential
//!   solver (the speedup baseline);
//! * [`dp`] — dynamic-programming ground truth for validation;
//! * `sched` — the master-slave self-scheduling algorithm itself, as
//!   a sans-IO core: every decision (batching, steal service, surplus
//!   returns, the finish rule, at-least-once recovery) and the one
//!   message vocabulary with its wire encoding;
//! * [`par`] — a driver running that core over `gridmpi` (real threads
//!   and sockets, through the Nexus Proxy where configured);
//! * [`sim`] — a driver running the same core as `netsim` actors in
//!   virtual time, which regenerates Tables 4-6;
//! * [`stats`] — per-rank statistics and the Tables 5/6 summaries;
//! * [`fileformat`] — the instance data file the master reads (staged
//!   via GASS in the RMF deployment).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod dp;
pub mod fileformat;
pub mod instance;
pub mod node;
pub mod par;
mod sched;
pub mod seq;
pub mod sim;
pub mod stats;

pub use instance::{Instance, Item};
pub use node::{BranchCounters, Node};
pub use par::run as par_run;
pub use sched::ParParams;
pub use seq::{solve as seq_solve, SolveMode};
pub use stats::{GroupSummary, RankStats, RunResult};
