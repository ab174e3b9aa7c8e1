//! Fault classes and the seeded, deterministic decision procedure.
//!
//! A [`ChaosProfile`] is a list of [`FaultRule`]s. Every time the
//! interposer wraps a connection it asks the profile to *decide* the
//! fault for that connection, keyed by `(leg, seq)` where `seq` is the
//! per-leg dial counter. The decision derives from a fresh [`SimRng`]
//! seeded by `mix(profile.seed, leg, seq)` — no shared mutable RNG —
//! so the plan for the N-th dial on a leg is a pure function of the
//! profile, immune to thread interleaving. That is what lets the
//! ci.sh determinism gate diff two same-seed runs byte-for-byte.

use netsim::SimRng;
use nexus_proxy::DialLeg;
use std::time::Duration;

/// The socket-fault classes the chaos layer injects (DESIGN.md §6f).
/// The first six are interposer faults on a wrapped stream; the last
/// two are orchestrator scenarios (process restarts), named here so
/// metric keys and bench cells share one vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Abrupt mid-stream kill: both directions reset at a byte offset.
    Rst,
    /// Partial-write stall: forwarding pauses at a byte offset, then
    /// resumes — the half-written frame sits on the wire meanwhile.
    Stall,
    /// Byte-rate throttle: deadline-paced trickle forwarding.
    Throttle,
    /// Connect blackhole: the dial "succeeds" into a void — surfaced
    /// to the caller as a timed-out connect.
    Blackhole,
    /// Delayed FIN: EOF propagation is held back for a while.
    DelayedFin,
    /// Split/merged writes: payload re-segmented at RNG boundaries.
    SplitMerge,
    /// Rolling restart of the outer-shard fleet (orchestrator).
    RollingRestart,
    /// Inner-daemon kill + restart under live load (orchestrator).
    InnerRestart,
}

impl FaultClass {
    /// Stable lower-snake name (metric keys, bench cell names).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Rst => "rst",
            FaultClass::Stall => "stall",
            FaultClass::Throttle => "throttle",
            FaultClass::Blackhole => "blackhole",
            FaultClass::DelayedFin => "delayed_fin",
            FaultClass::SplitMerge => "split_merge",
            FaultClass::RollingRestart => "rolling_restart",
            FaultClass::InnerRestart => "inner_restart",
        }
    }

    /// The classes an interposer can inject on a wrapped stream.
    pub const INTERPOSED: &'static [FaultClass] = &[
        FaultClass::Rst,
        FaultClass::Stall,
        FaultClass::Throttle,
        FaultClass::Blackhole,
        FaultClass::DelayedFin,
        FaultClass::SplitMerge,
    ];

    /// Every class, interposer and orchestrator alike.
    pub const ALL: &'static [FaultClass] = &[
        FaultClass::Rst,
        FaultClass::Stall,
        FaultClass::Throttle,
        FaultClass::Blackhole,
        FaultClass::DelayedFin,
        FaultClass::SplitMerge,
        FaultClass::RollingRestart,
        FaultClass::InnerRestart,
    ];
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Knob ranges for one rule; concrete values are drawn per connection
/// from the decision RNG.
#[derive(Debug, Clone, Copy)]
pub struct FaultParams {
    /// Inclusive byte-offset range in which a `Rst`/`Stall` triggers.
    pub cut_range: (u64, u64),
    /// Stall duration (`Stall`).
    pub stall: Duration,
    /// Forwarding rate in bytes/second (`Throttle`).
    pub rate: u64,
    /// EOF hold-back (`DelayedFin`).
    pub fin_delay: Duration,
    /// Max forwarded segment size (`SplitMerge` re-segmentation).
    pub max_seg: usize,
}

impl Default for FaultParams {
    fn default() -> Self {
        FaultParams {
            cut_range: (512, 4096),
            stall: Duration::from_millis(60),
            rate: 256 * 1024,
            fin_delay: Duration::from_millis(40),
            max_seg: 7,
        }
    }
}

/// One deterministic trigger: connections `seq` on `leg` with
/// `seq % period == phase` get `class` faults with `params`.
#[derive(Debug, Clone)]
pub struct FaultRule {
    pub leg: DialLeg,
    pub class: FaultClass,
    pub period: u64,
    pub phase: u64,
    pub params: FaultParams,
}

impl FaultRule {
    /// Fault every `period`-th connection on `leg`, starting with the
    /// first (`phase` 0), with default params.
    pub fn every(leg: DialLeg, class: FaultClass, period: u64) -> FaultRule {
        FaultRule {
            leg,
            class,
            period: period.max(1),
            phase: 0,
            params: FaultParams::default(),
        }
    }

    #[must_use]
    pub fn with_params(mut self, params: FaultParams) -> FaultRule {
        self.params = params;
        self
    }
}

/// The concrete plan for one wrapped connection, already drawn.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    pub class: FaultClass,
    /// Byte offset (per direction) where `Rst`/`Stall` trigger.
    pub cut_at: u64,
    pub stall: Duration,
    pub rate: u64,
    pub fin_delay: Duration,
    pub max_seg: usize,
    /// Seed for the per-direction segmentation RNG (`SplitMerge`).
    pub seg_seed: u64,
}

/// A seeded fault profile: the single source of chaos decisions.
#[derive(Debug, Clone, Default)]
pub struct ChaosProfile {
    pub seed: u64,
    pub rules: Vec<FaultRule>,
}

/// Stable index of a leg for seed mixing.
fn leg_index(leg: DialLeg) -> u64 {
    DialLeg::ALL.iter().position(|l| *l == leg).unwrap_or(0) as u64
}

/// SplitMix64-style avalanche, so nearby `(leg, seq)` pairs land on
/// unrelated streams.
fn mix(seed: u64, leg: u64, seq: u64) -> u64 {
    let mut z =
        seed ^ leg.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ seq.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaosProfile {
    pub fn new(seed: u64) -> ChaosProfile {
        ChaosProfile {
            seed,
            rules: Vec::new(),
        }
    }

    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> ChaosProfile {
        self.rules.push(rule);
        self
    }

    /// Decide the fault plan for the `seq`-th dial on `leg`. `None`
    /// means the connection passes through clean. Pure: the same
    /// `(profile, leg, seq)` always yields the same plan.
    pub fn decide(&self, leg: DialLeg, seq: u64) -> Option<FaultPlan> {
        let rule = self
            .rules
            .iter()
            .find(|r| r.leg == leg && seq % r.period == r.phase % r.period)?;
        let mut rng = SimRng::seed_from_u64(mix(self.seed, leg_index(leg), seq));
        let (lo, hi) = rule.params.cut_range;
        let cut_at = rng.range_inclusive(lo.min(hi), hi.max(lo));
        Some(FaultPlan {
            class: rule.class,
            cut_at,
            stall: rule.params.stall,
            rate: rule.params.rate.max(1),
            fin_delay: rule.params.fin_delay,
            max_seg: rule.params.max_seg.max(1),
            seg_seed: rng.next_u64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_leg_and_seq() {
        let p = ChaosProfile::new(0xc0ffee).with_rule(FaultRule::every(
            DialLeg::ClientCtrl,
            FaultClass::Rst,
            2,
        ));
        for seq in 0..32 {
            let a = p
                .decide(DialLeg::ClientCtrl, seq)
                .map(|f| (f.cut_at, f.seg_seed));
            let b = p
                .decide(DialLeg::ClientCtrl, seq)
                .map(|f| (f.cut_at, f.seg_seed));
            assert_eq!(a, b);
            assert_eq!(a.is_some(), seq % 2 == 0);
        }
        assert!(p.decide(DialLeg::Heartbeat, 0).is_none());
    }

    #[test]
    fn different_seeds_draw_different_cut_offsets() {
        let mk = |seed| {
            ChaosProfile::new(seed).with_rule(FaultRule::every(
                DialLeg::ClientData,
                FaultClass::Stall,
                1,
            ))
        };
        let cuts: Vec<u64> = (0..4u64)
            .map(|s| mk(s).decide(DialLeg::ClientData, 0).unwrap().cut_at)
            .collect();
        let mut uniq = cuts.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 1, "cut offsets did not vary: {cuts:?}");
    }

    #[test]
    fn class_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = FaultClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultClass::ALL.len());
    }
}
