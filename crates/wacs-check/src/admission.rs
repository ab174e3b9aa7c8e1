//! Model of [`nexus_proxy::liveness::AdmissionGate`].
//!
//! Drives the *real* gate through every interleaving of admissions,
//! releases (including ghost releases with no matching admission),
//! and drain, against an independently maintained mirror of what was
//! actually admitted. Invariants:
//!
//! * Conservation: the gate's fingerprint (total + per-peer counts)
//!   equals the mirror exactly — a ghost release must be a pure
//!   no-op. (This caught the capacity-leak bug now fixed and
//!   documented on `AdmissionGate::release`.)
//! * Bounds: `total <= max_total`, every per-peer count
//!   `<= max_per_peer`.
//! * Drain is sticky, and **no connection is ever admitted after
//!   drain began** — the headline shutdown invariant.
//!
//! Production runs this very machine: the outer server's sans-IO core
//! (`nexus_proxy::core::OuterCore`) owns one for the relay admission,
//! and both the real and the sim driver step that core.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use nexus_proxy::liveness::{AdmissionGate, AdmissionLimits};

use crate::explore::{explore_bfs, Model, Report};

const PEERS: [&str; 2] = ["a", "b"];

/// The real gate, made hashable through its canonical fingerprint.
#[derive(Clone)]
pub struct GateWrap(AdmissionGate);

impl PartialEq for GateWrap {
    fn eq(&self, other: &Self) -> bool {
        self.0.fingerprint() == other.0.fingerprint()
    }
}
impl Eq for GateWrap {}
impl Hash for GateWrap {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.0.fingerprint().hash(h);
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
pub struct AdmState {
    gate: GateWrap,
    /// Ground truth: successful admissions minus matched releases.
    mirror: BTreeMap<&'static str, u32>,
    /// Have we ever called `begin_drain`?
    drain_called: bool,
    /// Set when `try_admit` succeeds after `drain_called`.
    admitted_after_drain: bool,
}

#[derive(Clone, Debug)]
pub enum AdmAction {
    Admit(&'static str),
    Release(&'static str),
    Drain,
}

pub struct AdmissionModel {
    pub limits: AdmissionLimits,
    /// Cap on total admit *attempts*, to bound the action alphabet.
    pub max_ops: u32,
}

impl AdmissionModel {
    pub fn smoke() -> Self {
        AdmissionModel {
            limits: AdmissionLimits {
                max_total: 3,
                max_per_peer: 2,
            },
            max_ops: 5,
        }
    }

    pub fn deep() -> Self {
        AdmissionModel {
            limits: AdmissionLimits {
                max_total: 5,
                max_per_peer: 3,
            },
            max_ops: 8,
        }
    }
}

impl Model for AdmissionModel {
    type State = AdmState;
    type Action = AdmAction;

    fn name(&self) -> &'static str {
        "admission"
    }

    fn initial(&self) -> AdmState {
        AdmState {
            gate: GateWrap(AdmissionGate::new(self.limits)),
            mirror: BTreeMap::new(),
            drain_called: false,
            admitted_after_drain: false,
        }
    }

    fn actions(&self, s: &AdmState, out: &mut Vec<AdmAction>) {
        for p in PEERS {
            out.push(AdmAction::Admit(p));
            // Releases are always enabled — including ghost releases
            // for peers with nothing admitted.
            out.push(AdmAction::Release(p));
        }
        if !s.drain_called {
            out.push(AdmAction::Drain);
        }
    }

    fn apply(&self, s: &AdmState, a: &AdmAction) -> AdmState {
        let mut t = s.clone();
        match a {
            AdmAction::Admit(p) => {
                if t.gate.0.try_admit(p).is_ok() {
                    *t.mirror.entry(p).or_insert(0) += 1;
                    if t.drain_called {
                        t.admitted_after_drain = true;
                    }
                }
            }
            AdmAction::Release(p) => {
                t.gate.0.release(p);
                if let Some(n) = t.mirror.get_mut(p) {
                    *n -= 1;
                    if *n == 0 {
                        t.mirror.remove(p);
                    }
                }
            }
            AdmAction::Drain => {
                t.gate.0.begin_drain();
                t.drain_called = true;
            }
        }
        t
    }

    fn invariant(&self, s: &AdmState) -> Result<(), String> {
        let (total, draining, peers) = s.gate.0.fingerprint();
        let mirror_total: u32 = s.mirror.values().sum();
        let per_peer_sum: u32 = peers.iter().map(|(_, n)| *n).sum();
        if total != per_peer_sum {
            return Err(format!(
                "total {total} != per-peer sum {per_peer_sum} (capacity drift)"
            ));
        }
        if total != mirror_total {
            return Err(format!(
                "gate total {total} != actually-admitted {mirror_total} (capacity leak)"
            ));
        }
        for (p, n) in &peers {
            let m = s.mirror.get(p.as_str()).copied().unwrap_or(0);
            if *n != m {
                return Err(format!("gate counts {n} for {p}, mirror says {m}"));
            }
            if *n > self.limits.max_per_peer {
                return Err(format!(
                    "per-peer bound exceeded: {p} at {n} > {}",
                    self.limits.max_per_peer
                ));
            }
        }
        if total > self.limits.max_total {
            return Err(format!(
                "total bound exceeded: {total} > {}",
                self.limits.max_total
            ));
        }
        if s.drain_called && !draining {
            return Err("drain is not sticky: gate stopped draining".to_string());
        }
        if s.admitted_after_drain {
            return Err("connection admitted after drain began".to_string());
        }
        Ok(())
    }
}

/// Depth-bounds the raw model so exploration terminates: every trace
/// of `max_ops` operations over two peers is covered.
pub struct BoundedAdmission {
    inner: AdmissionModel,
}

impl Model for BoundedAdmission {
    type State = (AdmState, u32);
    type Action = AdmAction;

    fn name(&self) -> &'static str {
        "admission"
    }
    fn initial(&self) -> (AdmState, u32) {
        (self.inner.initial(), 0)
    }
    fn actions(&self, s: &(AdmState, u32), out: &mut Vec<AdmAction>) {
        if s.1 < self.inner.max_ops {
            self.inner.actions(&s.0, out);
        }
    }
    fn apply(&self, s: &(AdmState, u32), a: &AdmAction) -> (AdmState, u32) {
        (self.inner.apply(&s.0, a), s.1 + 1)
    }
    fn invariant(&self, s: &(AdmState, u32)) -> Result<(), String> {
        self.inner.invariant(&s.0)
    }
}

pub fn verify(deep: bool) -> Report {
    let inner = if deep {
        AdmissionModel::deep()
    } else {
        AdmissionModel::smoke()
    };
    explore_bfs(&BoundedAdmission { inner }, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_bfs;

    #[test]
    fn real_gate_holds_all_invariants_exhaustively() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        assert!(r.states > 50, "state space suspiciously small: {r}");
    }

    /// Spec-level reimplementation of the pre-fix `release`: the
    /// total was decremented even when the peer had nothing admitted.
    struct BuggyGateModel;

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct BuggyState {
        total: u32,
        per_peer: BTreeMap<&'static str, u32>,
        ops: u32,
    }

    impl Model for BuggyGateModel {
        type State = BuggyState;
        type Action = AdmAction;

        fn name(&self) -> &'static str {
            "admission-buggy"
        }
        fn initial(&self) -> BuggyState {
            BuggyState {
                total: 0,
                per_peer: BTreeMap::new(),
                ops: 0,
            }
        }
        fn actions(&self, s: &BuggyState, out: &mut Vec<AdmAction>) {
            if s.ops < 3 {
                for p in PEERS {
                    out.push(AdmAction::Admit(p));
                    out.push(AdmAction::Release(p));
                }
            }
        }
        fn apply(&self, s: &BuggyState, a: &AdmAction) -> BuggyState {
            let mut t = s.clone();
            t.ops += 1;
            match a {
                AdmAction::Admit(p) => {
                    if t.total < 3 {
                        t.total += 1;
                        *t.per_peer.entry(p).or_insert(0) += 1;
                    }
                }
                AdmAction::Release(p) => {
                    // The bug: total decremented unconditionally.
                    t.total = t.total.saturating_sub(1);
                    if let Some(n) = t.per_peer.get_mut(p) {
                        *n -= 1;
                        if *n == 0 {
                            t.per_peer.remove(p);
                        }
                    }
                }
                AdmAction::Drain => {}
            }
            t
        }
        fn invariant(&self, s: &BuggyState) -> Result<(), String> {
            let sum: u32 = s.per_peer.values().sum();
            if s.total != sum {
                Err(format!(
                    "total {} != per-peer sum {} (capacity drift)",
                    s.total, sum
                ))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn checker_finds_the_ghost_release_bug_minimally() {
        let r = explore_bfs(&BuggyGateModel, 100_000);
        let cx = r.violation.expect("bug must be found");
        // A bare ghost Release saturates total at 0 harmlessly; the
        // minimal violating trace is Admit("a") then a ghost
        // Release("b"), which drifts total below the per-peer sum.
        assert_eq!(cx.trace.len(), 2, "{:?}", cx.trace);
        assert!(cx.reason.contains("capacity drift"));
    }
}
