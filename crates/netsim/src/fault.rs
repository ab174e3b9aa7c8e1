//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded script of adverse conditions installed
//! into a [`crate::engine::Simulator`] before (or between) runs:
//!
//! * **probabilistic chunk drops** — each link traversal loses the
//!   chunk with probability `p`, optionally restricted to inter-site
//!   (WAN) links;
//! * **process crash/restart** — an actor is killed abruptly at a
//!   scheduled instant ([`crate::engine::Simulator::kill_actor`]
//!   semantics: listeners vanish, flows reset) and optionally revived
//!   in the same slot from a factory closure after a delay.
//!
//! Dropped chunks are retransmitted end-to-end by the sim-TCP layer
//! after [`RetransmitPolicy::rto`]; after
//! [`RetransmitPolicy::max_attempts`] consecutive losses of the same
//! chunk the transport gives up and severs the flow with
//! [`crate::flow::CloseReason::Lost`], which is the application's cue
//! to reconnect. Loss therefore manifests as *delay* below the
//! exhaustion threshold and as a typed flow error above it — never as
//! silent message disappearance on a live flow.
//!
//! Fault randomness draws from a private [`SimRng`] stream forked from
//! the plan seed, so installing a plan does not perturb the world's
//! main RNG stream: a faulted run stays a pure function of
//! `(topology, actors, seed, plan)`.

use crate::actor::{Actor, ActorId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Recreates a crashed actor for in-place restart (same `ActorId`,
/// fresh state — a process supervisor respawning a daemon).
pub type RestartFactory = Box<dyn FnMut() -> Box<dyn Actor>>;

/// Transport-level recovery knobs for dropped chunks.
#[derive(Debug, Clone, Copy)]
pub struct RetransmitPolicy {
    /// Delay before a lost chunk is resent from the source.
    pub rto: SimDuration,
    /// Consecutive losses of one chunk tolerated before the transport
    /// gives up and severs the flow.
    pub max_attempts: u32,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            rto: SimDuration::from_millis(150),
            max_attempts: 6,
        }
    }
}

/// Per-traversal chunk loss.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DropSpec {
    pub probability: f64,
    /// Restrict losses to links whose endpoints are in different sites.
    pub wan_only: bool,
}

struct CrashSpec {
    actor: ActorId,
    at: SimDuration,
    restart: Option<(SimDuration, RestartFactory)>,
}

/// A seeded script of faults. Times are offsets from the moment the
/// plan is installed. Builder-style: chain the methods, then pass to
/// [`crate::engine::Simulator::install_faults`].
pub struct FaultPlan {
    seed: u64,
    drop: Option<DropSpec>,
    crashes: Vec<CrashSpec>,
    retransmit: RetransmitPolicy,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop: None,
            crashes: Vec::new(),
            retransmit: RetransmitPolicy::default(),
        }
    }

    /// Drop each chunk with `probability` per link traversal. With
    /// `wan_only`, only inter-site links lose traffic.
    #[must_use]
    pub fn drop_messages(mut self, probability: f64, wan_only: bool) -> Self {
        assert!((0.0..=1.0).contains(&probability), "bad drop probability");
        self.drop = Some(DropSpec {
            probability,
            wan_only,
        });
        self
    }

    /// Kill `actor` abruptly at offset `at` (no restart).
    #[must_use]
    pub fn crash(mut self, actor: ActorId, at: SimDuration) -> Self {
        self.crashes.push(CrashSpec {
            actor,
            at,
            restart: None,
        });
        self
    }

    /// Kill `actor` at offset `at` and revive it in the same slot
    /// `after` later, constructing the fresh instance with `factory`.
    #[must_use]
    pub fn crash_restart(
        mut self,
        actor: ActorId,
        at: SimDuration,
        after: SimDuration,
        factory: impl FnMut() -> Box<dyn Actor> + 'static,
    ) -> Self {
        self.crashes.push(CrashSpec {
            actor,
            at,
            restart: Some((after, Box::new(factory))),
        });
        self
    }

    /// Override the transport retransmit policy.
    #[must_use]
    pub fn retransmit(mut self, rto: SimDuration, max_attempts: u32) -> Self {
        self.retransmit = RetransmitPolicy { rto, max_attempts };
        self
    }

    /// Split into the engine-resident pieces: scheduled crashes and the
    /// steady-state [`FaultState`]. `now` anchors the plan's offsets.
    pub(crate) fn into_parts(self, now: SimTime) -> (Vec<ScheduledCrash>, FaultState) {
        let crashes = self
            .crashes
            .into_iter()
            .map(|c| ScheduledCrash {
                actor: c.actor,
                at: now + c.at,
                restart: c.restart,
            })
            .collect();
        let state = FaultState {
            rng: SimRng::seed_from_u64(self.seed).fork(0xFA17),
            drop: self.drop,
            retransmit: self.retransmit,
        };
        (crashes, state)
    }
}

pub(crate) struct ScheduledCrash {
    pub actor: ActorId,
    pub at: SimTime,
    pub restart: Option<(SimDuration, RestartFactory)>,
}

/// Installed fault state, consulted by the engine per chunk-hop.
pub(crate) struct FaultState {
    rng: SimRng,
    drop: Option<DropSpec>,
    pub(crate) retransmit: RetransmitPolicy,
}

impl FaultState {
    /// Is a chunk crossing a link (`inter_site`: between two sites)
    /// lost on this traversal?
    pub(crate) fn drops_chunk(&mut self, inter_site: bool) -> bool {
        self.drop
            .is_some_and(|d| (!d.wan_only || inter_site) && self.rng.f64() < d.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_only_drop_spares_lan_links() {
        let (_, mut fs) = FaultPlan::new(3)
            .drop_messages(1.0, true)
            .into_parts(SimTime::ZERO);
        assert!(!fs.drops_chunk(false));
        assert!(fs.drops_chunk(true));
    }

    #[test]
    fn drop_stream_is_deterministic_per_seed() {
        let fates = |seed| {
            let (_, mut fs) = FaultPlan::new(seed)
                .drop_messages(0.5, false)
                .into_parts(SimTime::ZERO);
            (0..64)
                .map(|_| fs.drops_chunk(false))
                .collect::<Vec<bool>>()
        };
        assert_eq!(fates(9), fates(9));
        assert_ne!(fates(9), fates(10));
    }
}
