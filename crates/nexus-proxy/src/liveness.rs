//! Liveness, admission control and graceful degradation primitives.
//!
//! The relay is a long-lived user-level daemon that every WAN flow
//! funnels through; in production terms it must survive peer death,
//! half-open TCP connections and overload. This module holds the
//! *pure* state machines behind that survival story:
//!
//! * [`HeartbeatMonitor`] — dead-peer detection on the outer↔inner
//!   control channel (Ping/Pong frames, `protocol::Msg::Ping`);
//! * [`CircuitBreaker`] — WAN-leg dial protection: open after N
//!   consecutive failures, half-open probe after a cooldown, close on
//!   success;
//! * [`AdmissionGate`] — bounded admission: max total and per-peer
//!   relays, refusing with a typed `Busy` instead of silently
//!   accepting work the server cannot finish.
//!
//! Every machine is parameterized by a caller-supplied clock (`u64`
//! nanoseconds). The servers' sans-IO core (`crate::core`) owns one of
//! each, so the real drivers (wall clock) and the simulator (virtual
//! time) run the *same* transitions `wacs-check` verifies.

use std::collections::HashMap;
use std::time::Duration;

/// Heartbeat tuning for the outer↔inner control channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeartbeatConfig {
    /// How often the outer server pings the inner server.
    pub interval: Duration,
    /// Silence longer than this declares the peer dead.
    pub timeout: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(250),
            timeout: Duration::from_secs(1),
        }
    }
}

/// Tracks liveness of one peer from observed traffic timestamps.
///
/// The owner feeds it `observe(now)` whenever proof of life arrives
/// (a Pong, or any frame) and polls `expired(now)` from its ping
/// timer; `next_seq()` numbers outgoing pings so stale pongs can be
/// told apart in traces.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeartbeatMonitor {
    cfg: HeartbeatConfig,
    last_seen: u64,
    seq: u32,
}

impl HeartbeatMonitor {
    pub fn new(cfg: HeartbeatConfig, now: u64) -> Self {
        HeartbeatMonitor {
            cfg,
            last_seen: now,
            seq: 0,
        }
    }

    pub fn config(&self) -> HeartbeatConfig {
        self.cfg
    }

    /// Record proof of life at `now`.
    pub fn observe(&mut self, now: u64) {
        self.last_seen = self.last_seen.max(now);
    }

    /// Timestamp of the latest observed proof of life (monotone: a
    /// late-arriving stale observation never moves it backwards —
    /// verified exhaustively by `wacs-check`).
    pub fn last_seen(&self) -> u64 {
        self.last_seen
    }

    /// Has the peer been silent longer than the timeout?
    pub fn expired(&self, now: u64) -> bool {
        now.saturating_sub(self.last_seen) > self.cfg.timeout.as_nanos() as u64
    }

    /// Sequence number for the next outgoing ping.
    pub fn next_seq(&mut self) -> u32 {
        self.seq = self.seq.wrapping_add(1);
        self.seq
    }
}

/// Circuit-breaker states, exported so observers can mirror them into
/// a gauge (`0` closed, `1` open, `2` half-open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Dials flow freely; consecutive failures are counted.
    Closed,
    /// Dials are refused locally until the cooldown elapses.
    Open,
    /// One probe dial is in flight; its outcome decides the state.
    HalfOpen,
}

impl BreakerState {
    /// Gauge encoding (0 closed / 1 open / 2 half-open).
    pub fn as_gauge(self) -> i64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub threshold: u32,
    /// How long an open breaker refuses dials before probing.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            cooldown: Duration::from_millis(500),
        }
    }
}

/// A WAN-leg circuit breaker (pure: the outer server's core owns one
/// for its inner-leg dials, `ShardRouter` one per shard).
///
/// Transitions: `Closed --N failures--> Open --cooldown--> HalfOpen`;
/// a half-open probe success closes the breaker, a failure re-opens
/// it (restarting the cooldown).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: u64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Instant the breaker last tripped open (meaningful while the
    /// state is `Open`/`HalfOpen`); exposed for the model checker's
    /// cooldown invariant.
    pub fn opened_at(&self) -> u64 {
        self.opened_at
    }

    /// May a dial proceed at `now`? An open breaker whose cooldown has
    /// elapsed transitions to half-open and admits exactly one probe.
    pub fn allow(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now.saturating_sub(self.opened_at) >= self.cfg.cooldown.as_nanos() as u64 {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // The probe is already in flight; hold further dials.
            BreakerState::HalfOpen => false,
        }
    }

    /// A dial succeeded. In `Closed` this resets the failure run; a
    /// `HalfOpen` probe success closes the breaker. A success arriving
    /// while `Open` is *stale* — the dial was admitted before the trip
    /// and its late outcome must not close the breaker without a
    /// half-open probe (found by the `wacs-check` breaker model:
    /// `[Dial, Dial, Fail, Fail → Open, stale Success → Closed]`; the
    /// outer server's inner-leg dials really do race like this, one
    /// per rendezvous port in flight).
    pub fn on_success(&mut self) {
        match self.state {
            BreakerState::Closed => self.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                self.state = BreakerState::Closed;
                self.consecutive_failures = 0;
            }
            BreakerState::Open => {}
        }
    }

    /// A dial failed at `now`. Returns `true` if this failure tripped
    /// (or re-tripped) the breaker open.
    pub fn on_failure(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                // Failed probe: back to open, cooldown restarts.
                self.state = BreakerState::Open;
                self.opened_at = now;
                true
            }
            BreakerState::Open => false,
        }
    }
}

/// Admission refusal, distinguishing the bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionReject {
    /// The server-wide concurrent-relay cap is reached.
    Total { limit: u32 },
    /// This peer's concurrent-relay cap is reached.
    PerPeer { peer: String, limit: u32 },
    /// The server is draining for shutdown; no new admissions.
    Draining,
}

impl std::fmt::Display for AdmissionReject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionReject::Total { limit } => {
                write!(f, "relay busy: server-wide limit {limit} reached")
            }
            AdmissionReject::PerPeer { peer, limit } => {
                write!(f, "relay busy: per-peer limit {limit} reached for {peer}")
            }
            AdmissionReject::Draining => write!(f, "relay draining: no new admissions"),
        }
    }
}

/// Admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Maximum concurrent relays server-wide.
    pub max_total: u32,
    /// Maximum concurrent relays per peer key.
    pub max_per_peer: u32,
}

impl Default for AdmissionLimits {
    fn default() -> Self {
        AdmissionLimits {
            max_total: 256,
            max_per_peer: 64,
        }
    }
}

/// Bounded admission: a counting gate over (total, per-peer) relays.
/// Pure bookkeeping — the owner wraps it in a lock and must pair every
/// successful `try_admit` with exactly one `release`.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    limits: AdmissionLimits,
    total: u32,
    per_peer: HashMap<String, u32>,
    draining: bool,
}

impl AdmissionGate {
    pub fn new(limits: AdmissionLimits) -> Self {
        AdmissionGate {
            limits,
            total: 0,
            per_peer: HashMap::new(),
            draining: false,
        }
    }

    pub fn active(&self) -> u32 {
        self.total
    }

    /// Is the gate refusing all new work for shutdown?
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// Refuse every future `try_admit` with [`AdmissionReject::Draining`].
    /// Releases still proceed so in-flight relays can finish.
    pub fn begin_drain(&mut self) {
        self.draining = true;
    }

    /// Canonical snapshot of the bookkeeping — `(total, draining,
    /// sorted per-peer counts)` — used by the model checker to hash
    /// and compare states, and by its core invariant: `total` must
    /// always equal the sum of the per-peer counts.
    pub fn fingerprint(&self) -> (u32, bool, Vec<(String, u32)>) {
        let mut peers: Vec<(String, u32)> =
            self.per_peer.iter().map(|(k, v)| (k.clone(), *v)).collect();
        peers.sort();
        (self.total, self.draining, peers)
    }

    /// Admit one relay for `peer`, or refuse with the bound that hit.
    pub fn try_admit(&mut self, peer: &str) -> Result<(), AdmissionReject> {
        if self.draining {
            return Err(AdmissionReject::Draining);
        }
        if self.total >= self.limits.max_total {
            return Err(AdmissionReject::Total {
                limit: self.limits.max_total,
            });
        }
        let n = self.per_peer.get(peer).copied().unwrap_or(0);
        if n >= self.limits.max_per_peer {
            return Err(AdmissionReject::PerPeer {
                peer: peer.to_string(),
                limit: self.limits.max_per_peer,
            });
        }
        self.total += 1;
        self.per_peer.insert(peer.to_string(), n + 1);
        Ok(())
    }

    /// Release one previously admitted relay for `peer`. A release
    /// with no matching admission is a pure no-op: decrementing
    /// `total` for an unknown peer while other relays are active
    /// leaks capacity (`total` drifts below the per-peer sum and
    /// frees slots that are still occupied) — found by the
    /// `wacs-check` admission model via `[Admit("a"),
    /// Release("b")]` and pinned below.
    pub fn release(&mut self, peer: &str) {
        match self.per_peer.get_mut(peer) {
            Some(n) if *n > 1 => {
                *n -= 1;
                self.total = self.total.saturating_sub(1);
            }
            Some(_) => {
                self.per_peer.remove(peer);
                self.total = self.total.saturating_sub(1);
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn breaker(threshold: u32, cooldown_ms: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            threshold,
            cooldown: Duration::from_millis(cooldown_ms),
        })
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes_after_cooldown() {
        let mut b = breaker(3, 100);
        assert!(b.allow(0));
        assert!(!b.on_failure(0));
        assert!(!b.on_failure(MS));
        assert!(b.on_failure(2 * MS), "third failure must trip");
        assert_eq!(b.state(), BreakerState::Open);
        // Refused during cooldown.
        assert!(!b.allow(50 * MS));
        // Cooldown elapsed: exactly one probe.
        assert!(b.allow(103 * MS));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(104 * MS), "only one probe at a time");
        // Probe success closes.
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(105 * MS));
    }

    #[test]
    fn failed_probe_reopens_with_fresh_cooldown() {
        let mut b = breaker(1, 100);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(101 * MS)); // half-open probe
        assert!(b.on_failure(101 * MS)); // probe fails: re-open
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(150 * MS), "cooldown restarted at 101ms");
        assert!(b.allow(202 * MS));
    }

    #[test]
    fn success_resets_the_failure_run() {
        let mut b = breaker(3, 100);
        b.on_failure(0);
        b.on_failure(0);
        b.on_success();
        b.on_failure(0);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Closed, "run was reset");
    }

    #[test]
    fn heartbeat_expiry_tracks_last_observation() {
        let cfg = HeartbeatConfig {
            interval: Duration::from_millis(10),
            timeout: Duration::from_millis(30),
        };
        let mut m = HeartbeatMonitor::new(cfg, 0);
        assert!(!m.expired(30 * MS));
        assert!(m.expired(31 * MS));
        m.observe(25 * MS);
        assert!(!m.expired(55 * MS));
        assert!(m.expired(56 * MS));
        // Observations never move liveness backwards.
        m.observe(10 * MS);
        assert!(!m.expired(55 * MS));
        assert_eq!(m.next_seq(), 1);
        assert_eq!(m.next_seq(), 2);
    }

    #[test]
    fn admission_enforces_both_bounds_and_releases() {
        let mut g = AdmissionGate::new(AdmissionLimits {
            max_total: 3,
            max_per_peer: 2,
        });
        assert!(g.try_admit("a").is_ok());
        assert!(g.try_admit("a").is_ok());
        assert_eq!(
            g.try_admit("a"),
            Err(AdmissionReject::PerPeer {
                peer: "a".into(),
                limit: 2
            })
        );
        assert!(g.try_admit("b").is_ok());
        assert_eq!(g.try_admit("c"), Err(AdmissionReject::Total { limit: 3 }));
        assert_eq!(g.active(), 3);
        g.release("a");
        assert!(g.try_admit("c").is_ok());
        g.release("c");
        g.release("b");
        g.release("a");
        assert_eq!(g.active(), 0);
        // Releasing an unknown peer is a no-op, not an underflow.
        g.release("ghost");
        assert_eq!(g.active(), 0);
    }

    /// Counterexample replay (wacs-check admission model): a ghost
    /// release while another peer is active must not leak capacity.
    /// Pre-fix, `release("b")` decremented `total` unconditionally,
    /// leaving `total = 0` with peer `a` still admitted — the per-peer
    /// sum and `total` diverged and a stuck peer could free slots it
    /// never held.
    #[test]
    fn ghost_release_with_active_peers_does_not_leak_capacity() {
        let mut g = AdmissionGate::new(AdmissionLimits {
            max_total: 1,
            max_per_peer: 1,
        });
        assert!(g.try_admit("a").is_ok());
        g.release("b"); // trace step 2: release of a never-admitted peer
        let (total, _, peers) = g.fingerprint();
        let sum: u32 = peers.iter().map(|(_, n)| n).sum();
        assert_eq!(total, sum, "total must track the per-peer sum");
        assert_eq!(g.active(), 1, "peer a is still admitted");
        // The leaked slot must not admit a second relay past the cap.
        assert_eq!(g.try_admit("c"), Err(AdmissionReject::Total { limit: 1 }));
    }

    /// Counterexample replay (wacs-check breaker model): a stale
    /// success from a dial admitted *before* the breaker tripped must
    /// not close it without a half-open probe. Pre-fix trace:
    /// allow, allow (two dials in flight), fail, fail (trips open at
    /// threshold 2), then the surviving dial reports success →
    /// breaker snapped Open→Closed with the WAN leg still dark.
    #[test]
    fn stale_success_does_not_close_an_open_breaker() {
        let mut b = breaker(2, 100);
        assert!(b.allow(0));
        assert!(b.allow(0)); // two concurrent dials admitted while Closed
        assert!(!b.on_failure(0));
        assert!(b.on_failure(0), "second failure trips the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        b.on_success(); // the other dial's late success arrives
        assert_eq!(
            b.state(),
            BreakerState::Open,
            "only a half-open probe may close the breaker"
        );
        // The legitimate path still works: cooldown, probe, close.
        assert!(b.allow(101 * MS));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn drain_refuses_new_admissions_but_allows_releases() {
        let mut g = AdmissionGate::new(AdmissionLimits {
            max_total: 4,
            max_per_peer: 4,
        });
        assert!(g.try_admit("a").is_ok());
        g.begin_drain();
        assert!(g.draining());
        assert_eq!(g.try_admit("b"), Err(AdmissionReject::Draining));
        g.release("a");
        assert_eq!(g.active(), 0);
        assert_eq!(g.try_admit("a"), Err(AdmissionReject::Draining));
    }
}
