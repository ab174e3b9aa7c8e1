//! Sharded outer-server fleet: rendezvous hashing of bind keys onto a
//! set of outer instances, plus the breaker-driven failover router.
//!
//! The paper deploys exactly one outer proxy — its single point of
//! failure and its scalability wall. This module spreads rendezvous
//! state over N outer servers with **highest-random-weight (HRW)
//! hashing**: every `(member, key)` pair gets a pseudo-random 64-bit
//! weight, and the member with the highest weight *owns* the key. Two
//! properties make HRW the right fit here:
//!
//! * **No coordination.** Clients, inner servers, and every outer
//!   shard compute ownership locally from the shared [`ShardMap`];
//!   there is no directory service to keep consistent.
//! * **A built-in failover ladder.** Sorting members by descending
//!   weight for a key yields a per-key permutation ([`ShardMap::ladder`]);
//!   when the owner is unreachable the next rung is exactly the member
//!   that *would* own the key if the owner left the map. Failing over
//!   down the ladder therefore agrees with a recomputed ownership —
//!   no rehash storms, no split ownership.
//!
//! Liveness is judged by the PR 5 [`CircuitBreaker`]: the
//! [`ShardRouter`] pairs the map with one breaker per shard and walks
//! the ladder skipping shards whose breaker refuses. Like the rest of
//! `liveness.rs`, everything here is pure (callers pass `now`), so
//! `wacs-check` can drive the exact production code through every
//! bounded interleaving (see `wacs-check/src/shard.rs`).
//!
//! Maps are **generation-counted**: [`ShardMap::install`] only accepts
//! strictly newer generations, mirroring the BindSync discipline, so a
//! replaced shard that re-announces an old map cannot roll anyone back.

use crate::liveness::{BreakerConfig, BreakerState, CircuitBreaker};
use wacs_obs::{Counter, Gauge, Registry};

/// `splitmix64` finalizer: a cheap, well-distributed 64-bit mixer.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, then mixed — the stable key/identity hash.
/// (std's `DefaultHasher` is randomly seeded per process; ownership
/// must agree across *processes*, so we hash explicitly.)
fn stable_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Stable identity tag for a fleet member (hash its address bytes).
pub fn member_tag(bytes: &[u8]) -> u64 {
    stable_hash(bytes)
}

/// The canonical bind key: the client's private `host:port` endpoint.
/// Both sides of every lookup (client bind, outer redirect, inner
/// authorization) must derive the key the same way.
pub fn bind_key(host: &str, port: u16) -> Vec<u8> {
    let mut k = Vec::with_capacity(host.len() + 6);
    k.extend_from_slice(host.as_bytes());
    k.push(b':');
    k.extend_from_slice(&port.to_be_bytes());
    k
}

/// Routing verdict for one shard receiving a request for `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoute {
    /// This shard owns the key: serve it.
    Own,
    /// Another shard owns the key: answer with a redirect to it.
    Redirect(usize),
}

/// Generation-counted membership map: who is in the fleet, and which
/// member owns which key. Members are identified by stable 64-bit
/// tags ([`member_tag`]); address books live with the callers (real
/// path: `(host, ctrl_port)`, sim: `(NodeId, port)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    generation: u64,
    tags: Vec<u64>,
}

impl ShardMap {
    pub fn new(generation: u64, tags: Vec<u64>) -> Self {
        ShardMap { generation, tags }
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn len(&self) -> usize {
        self.tags.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    pub fn tags(&self) -> &[u64] {
        &self.tags
    }

    /// HRW weight of member `i` for `key_hash` (pre-hashed key).
    fn weight(&self, i: usize, key_hash: u64) -> u64 {
        mix64(self.tags[i].wrapping_add(key_hash).rotate_left(17) ^ self.tags[i])
    }

    /// The member owning `key`: highest weight, ties to the lowest
    /// index (total as long as the map is non-empty).
    pub fn owner(&self, key: &[u8]) -> Option<usize> {
        self.owner_among(key, |_| true)
    }

    /// The owner of `key` restricted to members where `live(i)` —
    /// i.e. ownership as it *would* be if the dead members left the
    /// map. Failover down [`ShardMap::ladder`] lands on exactly this
    /// member (the invariant `wacs-check` exhausts).
    pub fn owner_among(&self, key: &[u8], live: impl Fn(usize) -> bool) -> Option<usize> {
        let kh = stable_hash(key);
        let mut best: Option<(u64, usize)> = None;
        for i in 0..self.tags.len() {
            if !live(i) {
                continue;
            }
            let w = self.weight(i, kh);
            let better = match best {
                None => true,
                Some((bw, _)) => w > bw,
            };
            if better {
                best = Some((w, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Every member ordered by descending weight for `key` (ties to
    /// the lowest index): the failover ladder. `ladder(key)[0]` is the
    /// owner; a permutation of `0..len`.
    pub fn ladder(&self, key: &[u8]) -> Vec<usize> {
        let kh = stable_hash(key);
        let mut order: Vec<usize> = (0..self.tags.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(self.weight(i, kh)), i));
        order
    }

    /// How shard `self_idx` must answer a request for `key`: serve it
    /// or redirect to the owner. `None` when the map is empty or
    /// `self_idx` is not a member (a misconfigured shard must refuse,
    /// not guess).
    pub fn route(&self, self_idx: usize, key: &[u8]) -> Option<ShardRoute> {
        if self_idx >= self.tags.len() {
            return None;
        }
        let owner = self.owner(key)?;
        Some(if owner == self_idx {
            ShardRoute::Own
        } else {
            ShardRoute::Redirect(owner)
        })
    }

    /// Install a newer map. Generations are strictly monotone — a
    /// stale or equal generation is ignored (`false`), the BindSync
    /// discipline applied to membership.
    pub fn install(&mut self, generation: u64, tags: Vec<u64>) -> bool {
        if generation <= self.generation {
            return false;
        }
        self.generation = generation;
        self.tags = tags;
        true
    }
}

/// Client-side shard selection: the [`ShardMap`] plus one
/// [`CircuitBreaker`] per member. Pure — callers pass `now` in
/// nanoseconds (wall clock on the real path, virtual time in the sim),
/// so the machine is deterministic and exhaustively checkable.
#[derive(Debug)]
pub struct ShardRouter {
    map: ShardMap,
    cfg: BreakerConfig,
    breakers: Vec<CircuitBreaker>,
}

impl ShardRouter {
    pub fn new(map: ShardMap, cfg: BreakerConfig) -> Self {
        let breakers = (0..map.len()).map(|_| CircuitBreaker::new(cfg)).collect();
        ShardRouter { map, cfg, breakers }
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// First rung of `key`'s ladder, not among `tried`, whose breaker
    /// admits a dial at `now`. `None` means every remaining shard is
    /// breaker-open.
    pub fn route(&mut self, key: &[u8], now: u64, tried: &[usize]) -> Option<usize> {
        let ladder = self.map.ladder(key);
        ladder
            .into_iter()
            .find(|i| !tried.contains(i) && self.breakers[*i].allow(now))
    }

    pub fn on_success(&mut self, idx: usize) {
        if let Some(b) = self.breakers.get_mut(idx) {
            b.on_success();
        }
    }

    pub fn on_failure(&mut self, idx: usize, now: u64) {
        if let Some(b) = self.breakers.get_mut(idx) {
            b.on_failure(now);
        }
    }

    pub fn breaker_state(&self, idx: usize) -> Option<BreakerState> {
        self.breakers.get(idx).map(CircuitBreaker::state)
    }

    /// Install a newer map (see [`ShardMap::install`]). Members whose
    /// tag changed are *replacements*: their breaker history belongs
    /// to the old instance and is reset; surviving members keep
    /// theirs. `false` = stale generation, nothing changes.
    pub fn install(&mut self, generation: u64, tags: Vec<u64>) -> bool {
        let old = self.map.tags().to_vec();
        if !self.map.install(generation, tags) {
            return false;
        }
        let mut breakers = Vec::with_capacity(self.map.len());
        for (i, &tag) in self.map.tags().iter().enumerate() {
            if old.get(i) == Some(&tag) {
                breakers.push(self.breakers[i].clone());
            } else {
                breakers.push(CircuitBreaker::new(self.cfg));
            }
        }
        self.breakers = breakers;
        true
    }
}

/// Fleet counters, shared by whichever roles participate (outer
/// shards count redirects sent, clients count redirects followed and
/// failovers, inner servers count map syncs applied). Cloning aliases
/// the handles.
#[derive(Clone)]
pub(crate) struct ShardStats {
    /// BindReqs answered with a `Redirect` frame (outer, not owner).
    pub redirects_sent: Counter,
    /// `Redirect` frames obeyed by a client (re-dial to the owner).
    pub redirects_followed: Counter,
    /// Ladder descents past an unavailable shard (dial failure or
    /// breaker-open skip) on the client side.
    pub failovers: Counter,
    /// Generation-counted `ShardSync` frames: applied on the inner
    /// server (stale ones are dropped and *not* counted), sent on an
    /// outer shard.
    pub map_syncs: Counter,
    /// BindReqs this shard served as owner.
    pub binds_owned: Counter,
    /// Highest shard-map generation installed so far.
    pub map_generation: Gauge,
}

impl ShardStats {
    /// Register the instrument set under `wacs.shard.*` in `registry`.
    pub(crate) fn in_registry(registry: &Registry) -> Self {
        let c = |name: &str| registry.counter(&format!("wacs.shard.{name}"));
        ShardStats {
            redirects_sent: c("redirects_sent"),
            redirects_followed: c("redirects_followed"),
            failovers: c("failovers"),
            map_syncs: c("map_syncs"),
            binds_owned: c("binds_owned"),
            map_generation: registry.gauge("wacs.shard.map_generation"),
        }
    }
}

/// Watches a stream of observed map generations and records any
/// regression — the chaos invariant checker's view of "breaker and
/// `ShardMap` generations stay monotone across restarts". Thread-safe
/// so concurrent observers (heartbeat syncers, chaos probes) can share
/// one witness.
#[derive(Debug, Default)]
pub struct GenerationWitness {
    state: wacs_sync::Mutex<(u64, u64)>, // (highest seen, regressions)
}

impl GenerationWitness {
    pub fn new() -> GenerationWitness {
        GenerationWitness::default()
    }

    /// Record one observation. Returns `false` — and counts a
    /// regression — when `generation` is older than something already
    /// seen. Equal generations are fine (re-announcements happen on
    /// every heartbeat reconnect).
    pub fn observe(&self, generation: u64) -> bool {
        let mut st = self.state.lock();
        if generation < st.0 {
            st.1 += 1;
            return false;
        }
        st.0 = generation;
        true
    }

    /// Highest generation observed so far.
    pub fn high_water(&self) -> u64 {
        self.state.lock().0
    }

    /// Observations that went backwards (must stay 0).
    pub fn regressions(&self) -> u64 {
        self.state.lock().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn map4() -> ShardMap {
        let tags = (0..4u16)
            .map(|i| member_tag(format!("outer{i}:7000").as_bytes()))
            .collect();
        ShardMap::new(1, tags)
    }

    #[test]
    fn ownership_is_deterministic_and_total() {
        let m = map4();
        for i in 0..64u16 {
            let key = bind_key("rwcp-sun", 40000 + i);
            let a = m.owner(&key).unwrap();
            let b = m.owner(&key).unwrap();
            assert_eq!(a, b);
            assert!(a < 4);
        }
        assert_eq!(ShardMap::new(0, vec![]).owner(b"k"), None);
    }

    #[test]
    fn keys_spread_over_the_fleet() {
        let m = map4();
        let mut hits = [0usize; 4];
        for i in 0..256u16 {
            let key = bind_key("rwcp-sun", i);
            hits[m.owner(&key).unwrap()] += 1;
        }
        // HRW over 256 keys: every shard owns a meaningful share.
        for (i, &h) in hits.iter().enumerate() {
            assert!(h >= 16, "shard {i} owns only {h}/256 keys: {hits:?}");
        }
    }

    #[test]
    fn ladder_is_a_permutation_headed_by_the_owner() {
        let m = map4();
        for i in 0..64u16 {
            let key = bind_key("etl-sun", 5000 + i);
            let ladder = m.ladder(&key);
            let mut sorted = ladder.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "not a permutation: {ladder:?}");
            assert_eq!(ladder[0], m.owner(&key).unwrap());
        }
    }

    /// The HRW property the failover design leans on: kill any prefix
    /// of the ladder and recomputed ownership among the survivors is
    /// exactly the next rung.
    #[test]
    fn failover_agrees_with_recomputed_ownership() {
        let m = map4();
        for i in 0..64u16 {
            let key = bind_key("compas0", i);
            let ladder = m.ladder(&key);
            for dead_prefix in 0..ladder.len() {
                let dead = &ladder[..dead_prefix];
                let survivor = m.owner_among(&key, |i| !dead.contains(&i));
                assert_eq!(survivor, ladder.get(dead_prefix).copied());
            }
        }
    }

    #[test]
    fn route_redirects_non_owners_exactly() {
        let m = map4();
        let key = bind_key("rwcp-sun", 40001);
        let owner = m.owner(&key).unwrap();
        for s in 0..4 {
            match m.route(s, &key).unwrap() {
                ShardRoute::Own => assert_eq!(s, owner),
                ShardRoute::Redirect(o) => {
                    assert_eq!(o, owner);
                    assert_ne!(s, owner);
                }
            }
        }
        // A non-member must refuse to guess.
        assert_eq!(m.route(4, &key), None);
    }

    #[test]
    fn install_is_generation_monotone() {
        let mut m = map4();
        let newer = vec![member_tag(b"x:1"), member_tag(b"y:2")];
        assert!(!m.install(1, newer.clone())); // equal: refused
        assert!(!m.install(0, newer.clone())); // older: refused
        assert_eq!(m.len(), 4);
        assert!(m.install(2, newer));
        assert_eq!((m.generation(), m.len()), (2, 2));
    }

    #[test]
    fn router_walks_the_ladder_past_open_breakers() {
        let cfg = BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_secs(5),
        };
        let mut r = ShardRouter::new(map4(), cfg);
        let key = bind_key("rwcp-sun", 40007);
        let ladder = r.map().ladder(&key);
        assert_eq!(r.route(&key, 0, &[]), Some(ladder[0]));
        // Trip the owner's breaker: the router moves to rung 1.
        r.on_failure(ladder[0], 0);
        r.on_failure(ladder[0], 1);
        assert_eq!(r.route(&key, 2, &[]), Some(ladder[1]));
        // Trip rung 1 too: rung 2.
        r.on_failure(ladder[1], 2);
        r.on_failure(ladder[1], 3);
        assert_eq!(r.route(&key, 4, &[]), Some(ladder[2]));
        // A rung this operation already dialed is passed over.
        assert_eq!(r.route(&key, 4, &[ladder[2]]), Some(ladder[3]));
        // After the cooldown the owner is probed again (half-open).
        let later = Duration::from_secs(6).as_nanos() as u64;
        assert_eq!(r.route(&key, later, &[]), Some(ladder[0]));
    }

    #[test]
    fn router_reports_all_open_as_none() {
        let cfg = BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_secs(5),
        };
        let mut r = ShardRouter::new(map4(), cfg);
        let key = bind_key("rwcp-sun", 1);
        for i in 0..4 {
            r.on_failure(i, 0);
        }
        assert_eq!(r.route(&key, 1, &[]), None);
    }

    #[test]
    fn router_install_resets_only_replaced_breakers() {
        let cfg = BreakerConfig {
            threshold: 1,
            cooldown: Duration::from_secs(5),
        };
        let mut r = ShardRouter::new(map4(), cfg);
        r.on_failure(0, 0);
        r.on_failure(1, 0);
        assert_eq!(r.breaker_state(0), Some(BreakerState::Open));
        // Replace member 1, keep the rest.
        let mut tags = r.map().tags().to_vec();
        tags[1] = member_tag(b"replacement:7000");
        assert!(r.install(2, tags));
        assert_eq!(r.breaker_state(0), Some(BreakerState::Open));
        assert_eq!(r.breaker_state(1), Some(BreakerState::Closed));
    }

    #[test]
    fn stats_register_under_wacs_shard() {
        let reg = Registry::new();
        let s = ShardStats::in_registry(&reg);
        s.redirects_sent.inc();
        s.map_generation.set(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("wacs.shard.redirects_sent"), Some(&1));
        assert_eq!(snap.gauges.get("wacs.shard.map_generation"), Some(&3));
    }
}
