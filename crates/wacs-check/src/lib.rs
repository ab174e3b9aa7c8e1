//! `wacs-check` — exhaustive model checking for the workspace's
//! liveness and concurrency state machines.
//!
//! Where `xtask lint` reasons about the *source* (token-level rules,
//! the static lock-order graph), this crate reasons about the
//! *semantics*: it drives the real production types — and faithful
//! abstractions where the real code is I/O-bound — through **every**
//! reachable state under bounded interleaving, and checks safety
//! invariants in each one. Violations come back as minimal
//! replayable action traces (see EXPERIMENTS.md for how to read
//! them).
//!
//! Models and their headline invariants:
//!
//! * [`heartbeat`] — `HeartbeatMonitor`: `last_seen` monotone under
//!   stale deliveries; `expired` definitionally consistent.
//! * [`breaker`] — `CircuitBreaker`: never closes without a
//!   half-open probe; trips exactly at the threshold; cooldown
//!   gates the probe.
//! * [`admission`] — `AdmissionGate`: capacity conservation (ghost
//!   releases are no-ops); bounds respected; no admission after
//!   drain.
//!
//!   (Those three machines are owned by `nexus_proxy::core`'s
//!   `OuterCore`, which both the real and the sim outer server run:
//!   the monitor, breaker and gate verified here are the ones
//!   production executes.)
//! * [`servers`] — `OuterCore` + `InnerCore` themselves, wired by a
//!   nondeterministic network: admission slots match live peers
//!   (released exactly once, zero at quiescence), nothing relays to an
//!   unauthorized endpoint, no redirect to self, a shipped bind
//!   generation is never ahead of its table, installed map
//!   generations are monotone.
//! * [`channel`] — the `wacs_sync` bounded channel's monitor
//!   discipline: no lost wakeups (wedge-freedom) under the
//!   notify-one-on-every-operation protocol.
//! * [`lockpair`] — nested `OrderedMutex` acquisition: one global
//!   nesting order is deadlock-free across all interleavings
//!   (verified with the sleep-set DFS engine).
//! * [`shard`] — the outer-fleet `ShardMap`: total ownership, the
//!   failover ladder is a permutation, breaker-driven descent lands
//!   on the shrunken-map owner, redirects converge in one hop, and
//!   installs are strictly generation-monotone.
//! * [`stripe`] — striped-transfer reassembly (`Reassembler`): under
//!   every arrival interleaving, completion is reported exactly once
//!   iff every offset is covered, duplicates are absorbed without
//!   state change, corrupted duplicates are typed `Conflict` errors,
//!   and a whole-stripe failover replay converges.
//! * [`chaos`] — the chaos layer's retry/recovery discipline against
//!   the real `wacs_chaos::ChaosProfile` schedule: fault decisions
//!   are pure and periodic, recovery samples are recorded exactly
//!   once per failure episode, and the retry budget converges under
//!   the worst-case schedule plus bounded spurious failures.
//!
//! Two of these invariants began life as counterexamples: the
//! breaker's stale-success close and the admission gate's
//! ghost-release capacity leak were found by these models, fixed in
//! `nexus_proxy::liveness`, and pinned there by regression tests.
//! The buggy variants live on in this crate's test suite as
//! spec-level models the checker must still catch.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod admission;
pub mod breaker;
pub mod channel;
pub mod chaos;
pub mod explore;
pub mod heartbeat;
pub mod lockpair;
pub mod servers;
pub mod shard;
pub mod stripe;

pub use explore::{explore_bfs, explore_dfs_sleep, Counterexample, Model, Report};

/// Run every model at the smoke (`deep = false`, < 30 s total, CI
/// tier) or deep (`deep = true`) bound. Callers treat a report with
/// a violation or `exhausted == false` as failure.
pub fn run_all(deep: bool) -> Vec<Report> {
    vec![
        heartbeat::verify(deep),
        breaker::verify(deep),
        admission::verify(deep),
        channel::verify(deep),
        lockpair::verify(deep),
        shard::verify(deep),
        stripe::verify(deep),
        chaos::verify(deep),
        servers::verify(deep),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_tier_is_exhaustive_and_clean() {
        for r in run_all(false) {
            assert!(r.ok(), "{r}");
        }
    }
}
