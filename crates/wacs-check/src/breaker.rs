//! Model of [`nexus_proxy::liveness::CircuitBreaker`].
//!
//! The real production type is driven through every interleaving of
//! clock ticks, `allow` probes, and (possibly stale) dial outcomes.
//! The state carries a one-step history variable — the breaker state,
//! `opened_at`, and failure run *before* the last action — so the
//! invariant can judge every transition against the allowlist:
//!
//! * `Open -> Closed` is forbidden outright: the breaker never closes
//!   without a half-open probe. (This is the invariant that caught
//!   the stale-success bug now fixed and documented on
//!   `CircuitBreaker::on_success`.)
//! * `Open -> HalfOpen` only via an admitted `allow` after the
//!   cooldown has elapsed.
//! * `Closed -> Open` only when a failure completes the threshold run.
//! * `HalfOpen` resolves only via the probe outcome: success closes,
//!   failure re-opens (restarting the cooldown).
//! * `allow` must admit exactly when Closed, or Open-with-elapsed-
//!   cooldown; it must hold dials while a probe is in flight.
//!
//! Production runs this very machine: the outer server's sans-IO core
//! (`nexus_proxy::core::OuterCore`) owns one for the inner-leg (WAN)
//! dials and the heartbeat dial, and both the real and the sim driver
//! step that core.

use std::time::Duration;

use nexus_proxy::liveness::{BreakerConfig, BreakerState, CircuitBreaker};

use crate::explore::{explore_bfs, Model, Report};

/// What the last action was, for the transition judgement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum LastAct {
    None,
    Tick,
    AllowTrue,
    AllowFalse,
    Success,
    Fail,
}

#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BrState {
    brk: CircuitBreaker,
    clock: u64,
    /// Mirror of the consecutive-failure run while Closed (the real
    /// counter is private; the mirror lets the invariant check trip
    /// timing).
    fails: u32,
    // One-step history.
    before: BreakerState,
    before_opened: u64,
    before_fails: u32,
    last: LastAct,
}

#[derive(Clone, Debug)]
pub enum BrAction {
    Tick,
    Allow,
    Success,
    Fail,
}

pub struct BreakerModel {
    pub horizon: u64,
    pub threshold: u32,
    pub cooldown_ticks: u64,
}

impl BreakerModel {
    pub fn smoke() -> Self {
        BreakerModel {
            horizon: 6,
            threshold: 2,
            cooldown_ticks: 2,
        }
    }

    pub fn deep() -> Self {
        BreakerModel {
            horizon: 10,
            threshold: 3,
            cooldown_ticks: 3,
        }
    }
}

impl Model for BreakerModel {
    type State = BrState;
    type Action = BrAction;

    fn name(&self) -> &'static str {
        "breaker"
    }

    fn initial(&self) -> BrState {
        let brk = CircuitBreaker::new(BreakerConfig {
            threshold: self.threshold,
            cooldown: Duration::from_nanos(self.cooldown_ticks),
        });
        BrState {
            before: brk.state(),
            before_opened: brk.opened_at(),
            before_fails: 0,
            brk,
            clock: 0,
            fails: 0,
            last: LastAct::None,
        }
    }

    fn actions(&self, s: &BrState, out: &mut Vec<BrAction>) {
        if s.clock < self.horizon {
            out.push(BrAction::Tick);
        }
        out.push(BrAction::Allow);
        // Dial outcomes can arrive in any state — including a stale
        // success landing while Open (the race the fix closes).
        out.push(BrAction::Success);
        out.push(BrAction::Fail);
    }

    fn apply(&self, s: &BrState, a: &BrAction) -> BrState {
        let mut t = s.clone();
        t.before = s.brk.state();
        t.before_opened = s.brk.opened_at();
        t.before_fails = s.fails;
        match a {
            BrAction::Tick => {
                t.clock += 1;
                t.last = LastAct::Tick;
            }
            BrAction::Allow => {
                let admitted = t.brk.allow(t.clock);
                t.last = if admitted {
                    LastAct::AllowTrue
                } else {
                    LastAct::AllowFalse
                };
            }
            BrAction::Success => {
                t.brk.on_success();
                if t.brk.state() == BreakerState::Closed {
                    t.fails = 0;
                }
                t.last = LastAct::Success;
            }
            BrAction::Fail => {
                t.brk.on_failure(t.clock);
                t.fails = match s.brk.state() {
                    BreakerState::Closed => s.fails + 1,
                    _ => 0,
                };
                t.last = LastAct::Fail;
            }
        }
        t
    }

    fn invariant(&self, s: &BrState) -> Result<(), String> {
        use BreakerState::{Closed, HalfOpen, Open};
        let after = s.brk.state();
        let cooled = s.clock.saturating_sub(s.before_opened) >= self.cooldown_ticks;
        match (s.before, after) {
            (Open, Closed) => {
                return Err("breaker closed without a half-open probe".to_string());
            }
            (Open, HalfOpen) => {
                if s.last != LastAct::AllowTrue {
                    return Err(format!(
                        "Open -> HalfOpen via {:?}, not an admitted allow",
                        s.last
                    ));
                }
                if !cooled {
                    return Err(format!(
                        "half-open probe admitted {} tick(s) into a {}-tick cooldown",
                        s.clock.saturating_sub(s.before_opened),
                        self.cooldown_ticks
                    ));
                }
            }
            (Closed, Open) if s.last != LastAct::Fail || s.before_fails + 1 < self.threshold => {
                return Err(format!(
                    "breaker tripped after {} failure(s), threshold {}",
                    s.before_fails + 1,
                    self.threshold
                ));
            }
            (Closed, HalfOpen) => {
                return Err("Closed -> HalfOpen is not a legal transition".to_string());
            }
            (HalfOpen, Closed) if s.last != LastAct::Success => {
                return Err(format!("probe closed the breaker via {:?}", s.last));
            }
            (HalfOpen, Open) if s.last != LastAct::Fail => {
                return Err(format!("probe re-opened the breaker via {:?}", s.last));
            }
            _ => {}
        }
        // `allow` admission must match the spec exactly: after an
        // admitted allow the state is Closed (was closed) or HalfOpen
        // (was open past cooldown) — never Open.
        match s.last {
            LastAct::AllowTrue if after == Open => {
                return Err("allow admitted a dial while Open".to_string());
            }
            LastAct::AllowFalse => {
                if s.before == Closed {
                    return Err("allow refused a dial while Closed".to_string());
                }
                if s.before == Open && cooled {
                    return Err("allow refused the probe after cooldown elapsed".to_string());
                }
            }
            _ => {}
        }
        Ok(())
    }
}

pub fn verify(deep: bool) -> Report {
    let m = if deep {
        BreakerModel::deep()
    } else {
        BreakerModel::smoke()
    };
    explore_bfs(&m, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_bfs;

    #[test]
    fn real_breaker_holds_all_invariants_exhaustively() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        assert!(r.states > 50, "state space suspiciously small: {r}");
    }

    /// Spec-level reimplementation with the pre-fix bug:
    /// `on_success` snapped straight to Closed regardless of state,
    /// so a stale success from a dial admitted before the trip
    /// short-circuited the half-open probe.
    struct BuggyBreakerModel;

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    struct BuggyState {
        state: BreakerState,
        fails: u32,
        before: BreakerState,
    }

    #[derive(Clone, Debug)]
    enum BuggyAction {
        Success,
        Fail,
    }

    impl Model for BuggyBreakerModel {
        type State = BuggyState;
        type Action = BuggyAction;

        fn name(&self) -> &'static str {
            "breaker-buggy"
        }
        fn initial(&self) -> BuggyState {
            BuggyState {
                state: BreakerState::Closed,
                fails: 0,
                before: BreakerState::Closed,
            }
        }
        fn actions(&self, _s: &BuggyState, out: &mut Vec<BuggyAction>) {
            out.push(BuggyAction::Success);
            out.push(BuggyAction::Fail);
        }
        fn apply(&self, s: &BuggyState, a: &BuggyAction) -> BuggyState {
            let mut t = *s;
            t.before = s.state;
            match a {
                // The bug: unconditional close.
                BuggyAction::Success => {
                    t.state = BreakerState::Closed;
                    t.fails = 0;
                }
                BuggyAction::Fail => {
                    if s.state == BreakerState::Closed {
                        t.fails = s.fails + 1;
                        if t.fails >= 2 {
                            t.state = BreakerState::Open;
                        }
                    }
                }
            }
            t
        }
        fn invariant(&self, s: &BuggyState) -> Result<(), String> {
            if s.before == BreakerState::Open && s.state == BreakerState::Closed {
                Err("breaker closed without a half-open probe".to_string())
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn checker_finds_the_stale_success_bug_minimally() {
        let r = explore_bfs(&BuggyBreakerModel, 100_000);
        let cx = r.violation.expect("bug must be found");
        // Minimal: Fail, Fail (trip), stale Success.
        assert_eq!(cx.trace.len(), 3, "{:?}", cx.trace);
        assert!(cx.reason.contains("without a half-open probe"));
    }
}
