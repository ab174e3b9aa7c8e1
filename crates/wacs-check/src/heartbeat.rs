//! Model of [`nexus_proxy::liveness::HeartbeatMonitor`].
//!
//! Drives the *real* production type through every interleaving of
//! clock ticks, (possibly stale) proof-of-life deliveries, and ping
//! sequencing, up to a bounded horizon.
//!
//! Invariants:
//! * `last_seen` is monotone — a stale observation (delivery of an
//!   old frame after a newer one) never moves it backwards.
//! * `last_seen` never exceeds the clock (no proof of life from the
//!   future).
//! * `expired(now)` agrees with the definitional
//!   `now - last_seen > timeout` at every reachable state.
//! * ping sequence numbers are strictly increasing within the bound.
//!
//! Production runs this very machine: the outer server's sans-IO core
//! (`nexus_proxy::core::OuterCore`) owns one for the dead-peer
//! verdict of the heartbeat session, and both the real and the sim
//! driver step that core.

use std::time::Duration;

use nexus_proxy::liveness::{HeartbeatConfig, HeartbeatMonitor};

use crate::explore::{explore_bfs, Model, Report};

#[derive(Clone, PartialEq, Eq, Hash)]
pub struct HbState {
    mon: HeartbeatMonitor,
    clock: u64,
    /// `last_seen` of the *previous* state — the history variable the
    /// monotonicity invariant compares against.
    prev_seen: u64,
    pings: u32,
    prev_seq: u32,
}

#[derive(Clone, Debug)]
pub enum HbAction {
    /// Advance the wall clock one tick.
    Tick,
    /// Deliver proof of life that was generated at time `at`
    /// (`at <= clock`, so stale deliveries are exercised).
    Observe { at: u64 },
    /// Emit a ping (exercises `next_seq`).
    Ping,
}

pub struct HeartbeatModel {
    pub horizon: u64,
    pub timeout_ticks: u64,
    pub max_pings: u32,
}

impl HeartbeatModel {
    pub fn smoke() -> Self {
        HeartbeatModel {
            horizon: 5,
            timeout_ticks: 2,
            max_pings: 2,
        }
    }

    pub fn deep() -> Self {
        HeartbeatModel {
            horizon: 9,
            timeout_ticks: 3,
            max_pings: 3,
        }
    }
}

impl Model for HeartbeatModel {
    type State = HbState;
    type Action = HbAction;

    fn name(&self) -> &'static str {
        "heartbeat"
    }

    fn initial(&self) -> HbState {
        let cfg = HeartbeatConfig {
            interval: Duration::from_nanos(1),
            timeout: Duration::from_nanos(self.timeout_ticks),
        };
        HbState {
            mon: HeartbeatMonitor::new(cfg, 0),
            clock: 0,
            prev_seen: 0,
            pings: 0,
            prev_seq: 0,
        }
    }

    fn actions(&self, s: &HbState, out: &mut Vec<HbAction>) {
        if s.clock < self.horizon {
            out.push(HbAction::Tick);
        }
        for at in 0..=s.clock {
            out.push(HbAction::Observe { at });
        }
        if s.pings < self.max_pings {
            out.push(HbAction::Ping);
        }
    }

    fn apply(&self, s: &HbState, a: &HbAction) -> HbState {
        let mut t = s.clone();
        t.prev_seen = s.mon.last_seen();
        t.prev_seq = 0;
        match a {
            HbAction::Tick => t.clock += 1,
            HbAction::Observe { at } => t.mon.observe(*at),
            HbAction::Ping => {
                t.prev_seq = t.mon.next_seq();
                t.pings += 1;
            }
        }
        t
    }

    fn invariant(&self, s: &HbState) -> Result<(), String> {
        let seen = s.mon.last_seen();
        if seen < s.prev_seen {
            return Err(format!(
                "last_seen moved backwards: {} -> {} (stale observation accepted)",
                s.prev_seen, seen
            ));
        }
        if seen > s.clock {
            return Err(format!(
                "last_seen {} is ahead of the clock {}",
                seen, s.clock
            ));
        }
        let def = s.clock.saturating_sub(seen) > self.timeout_ticks;
        if s.mon.expired(s.clock) != def {
            return Err(format!(
                "expired({}) = {} but now-last_seen = {} vs timeout {}",
                s.clock,
                s.mon.expired(s.clock),
                s.clock.saturating_sub(seen),
                self.timeout_ticks
            ));
        }
        if s.prev_seq != 0 && s.prev_seq != s.pings {
            return Err(format!(
                "ping seq {} does not match ping count {}",
                s.prev_seq, s.pings
            ));
        }
        Ok(())
    }
}

pub fn verify(deep: bool) -> Report {
    let m = if deep {
        HeartbeatModel::deep()
    } else {
        HeartbeatModel::smoke()
    };
    explore_bfs(&m, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore_bfs;

    #[test]
    fn real_monitor_holds_all_invariants_exhaustively() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        assert!(r.states > 100, "state space suspiciously small: {r}");
    }

    /// Spec-level reimplementation with the classic bug: `observe`
    /// assigns instead of taking the max, so a stale delivery rewinds
    /// `last_seen`. The checker must find it with a minimal trace.
    struct BuggyMonitorModel;

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct BuggyState {
        last_seen: u64,
        clock: u64,
        prev_seen: u64,
    }

    #[derive(Clone, Debug)]
    enum BuggyAction {
        Tick,
        Observe { at: u64 },
    }

    impl Model for BuggyMonitorModel {
        type State = BuggyState;
        type Action = BuggyAction;

        fn name(&self) -> &'static str {
            "heartbeat-buggy"
        }
        fn initial(&self) -> BuggyState {
            BuggyState {
                last_seen: 0,
                clock: 0,
                prev_seen: 0,
            }
        }
        fn actions(&self, s: &BuggyState, out: &mut Vec<BuggyAction>) {
            if s.clock < 4 {
                out.push(BuggyAction::Tick);
            }
            for at in 0..=s.clock {
                out.push(BuggyAction::Observe { at });
            }
        }
        fn apply(&self, s: &BuggyState, a: &BuggyAction) -> BuggyState {
            let mut t = s.clone();
            t.prev_seen = s.last_seen;
            match a {
                BuggyAction::Tick => t.clock += 1,
                // The bug: plain assignment, not `max`.
                BuggyAction::Observe { at } => t.last_seen = *at,
            }
            t
        }
        fn invariant(&self, s: &BuggyState) -> Result<(), String> {
            if s.last_seen < s.prev_seen {
                Err(format!(
                    "last_seen moved backwards: {} -> {}",
                    s.prev_seen, s.last_seen
                ))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn checker_finds_the_stale_observation_bug_minimally() {
        let r = explore_bfs(&BuggyMonitorModel, 100_000);
        let cx = r.violation.expect("bug must be found");
        // Minimal: Tick, Observe{1}, Observe{0}.
        assert_eq!(cx.trace.len(), 3, "{:?}", cx.trace);
        assert!(cx.reason.contains("moved backwards"));
    }
}
