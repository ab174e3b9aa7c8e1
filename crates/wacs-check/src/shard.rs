//! Model of the sharded outer-server fleet's routing discipline
//! (`nexus_proxy::shard::ShardMap`, DESIGN.md §6d).
//!
//! The real code is pure, so the model drives it directly: a universe
//! of candidate shards under reconfiguration (membership changes bump
//! the generation), crash/recovery toggles, and a client that installs
//! fleet maps asynchronously. In **every** reachable state, for a set
//! of probe bind keys, the checker demands:
//!
//! * **Total ownership** — a non-empty map owns every key, and the
//!   owner is in bounds.
//! * **Ladder shape** — `ladder(key)` is a permutation of the member
//!   indices whose first entry is the owner.
//! * **Failover consistency** — `owner_among(key, live)` (ownership
//!   as if the dead members had left) is exactly the first live rung
//!   of the ladder: breaker-driven descent lands where a shrunken map
//!   would have pointed.
//! * **One-hop convergence** — a non-owner redirects to the owner,
//!   the owner serves, and nobody redirects to themselves; following
//!   one redirect always terminates.
//! * **Install monotonicity** — the client's installed generation
//!   never runs ahead of the fleet's, never moves backwards, and
//!   `install` accepts exactly the strictly-newer generations.
//! * **Client convergence** — one bind run through the production
//!   `ClientCore` over the client's (possibly stale) map, the shards
//!   answering by `ShardMap::route` over the fleet's current map and
//!   dead ones failing the dial, ends within `len + 1` dials and one
//!   redirect; at a live shard that serves it whenever the client's
//!   map is current and a live member exists; otherwise at a serving
//!   shard or a typed refusal — never in a loop.

use crate::explore::{explore_bfs, Model, Report};
use nexus_proxy::core::{shard_map, ClientCore, HostId, Outcome, Step};
use nexus_proxy::{BreakerConfig, CtrlMsg, ShardMap, ShardRoute};

/// Candidate shard universe (membership masks fit in a `u8`).
const UNIVERSE: usize = 3;

/// Probe private endpoints bound through the map in every state.
/// Distinct names so the HRW weights differ per key.
const BINDS: [(&str, u16); 4] = [
    ("etl-sun", 7000),
    ("rwcp-sun", 7001),
    ("c2", 9),
    ("d", 1024),
];

/// Control endpoint of candidate shard `i`.
fn endpoint(i: usize) -> (String, u16) {
    (format!("outer{i}"), 4097)
}

/// Control endpoints of a membership mask, in map order.
fn endpoints(members: u8) -> Vec<(String, u16)> {
    member_bits(members).into_iter().map(endpoint).collect()
}

/// Build the real [`ShardMap`] for a membership mask, as every party
/// that holds the member list does.
fn map_of(gen: u8, members: u8) -> ShardMap {
    shard_map(u64::from(gen), &endpoints(members))
}

/// `live` closure over map indices for a membership + alive mask pair
/// (map index `idx` is the `idx`-th set bit of `members`).
fn member_bits(members: u8) -> Vec<usize> {
    (0..UNIVERSE).filter(|i| members & (1 << i) != 0).collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShState {
    /// Fleet-map generation (bumped by every reconfiguration).
    gen: u8,
    /// Current membership, as a bitmask over the candidate universe.
    members: u8,
    /// Which candidates are up (crash/recovery; orthogonal to
    /// membership — the map does not shrink when a shard dies).
    alive: u8,
    /// Client's installed map.
    client_gen: u8,
    client_members: u8,
    /// History variable for the monotonicity invariant.
    prev_client_gen: u8,
}

#[derive(Clone, Debug)]
pub enum ShAction {
    /// Operator reconfigures the fleet to a new membership mask.
    Reconfigure(u8),
    /// Candidate shard `i` crashes or recovers.
    ToggleAlive(usize),
    /// The client hears the current map (a relayed `ShardSync`).
    ClientSync,
}

pub struct ShardModel {
    /// Reconfiguration budget (bounds the state space).
    pub max_gen: u8,
}

impl ShardModel {
    pub fn smoke() -> Self {
        ShardModel { max_gen: 3 }
    }

    pub fn deep() -> Self {
        ShardModel { max_gen: 5 }
    }
}

impl Model for ShardModel {
    type State = ShState;
    type Action = ShAction;

    fn name(&self) -> &'static str {
        "shard"
    }

    fn initial(&self) -> ShState {
        ShState {
            gen: 1,
            members: 0b111,
            alive: 0b111,
            client_gen: 1,
            client_members: 0b111,
            prev_client_gen: 1,
        }
    }

    fn actions(&self, s: &ShState, out: &mut Vec<ShAction>) {
        if s.gen < self.max_gen {
            for m in 1..(1u8 << UNIVERSE) {
                if m != s.members {
                    out.push(ShAction::Reconfigure(m));
                }
            }
        }
        for i in 0..UNIVERSE {
            out.push(ShAction::ToggleAlive(i));
        }
        if s.client_gen < s.gen {
            out.push(ShAction::ClientSync);
        }
    }

    fn apply(&self, s: &ShState, a: &ShAction) -> ShState {
        let mut t = *s;
        t.prev_client_gen = s.client_gen;
        match a {
            ShAction::Reconfigure(m) => {
                t.gen += 1;
                t.members = *m;
            }
            ShAction::ToggleAlive(i) => {
                t.alive ^= 1 << i;
            }
            ShAction::ClientSync => {
                // Drive the real install: it must accept exactly the
                // strictly-newer generation.
                let mut cm = map_of(s.client_gen, s.client_members);
                let next = map_of(s.gen, s.members);
                if cm.install(next.generation(), next.tags().to_vec()) {
                    t.client_gen = s.gen;
                    t.client_members = s.members;
                }
            }
        }
        t
    }

    fn invariant(&self, s: &ShState) -> Result<(), String> {
        let map = map_of(s.gen, s.members);
        let bits = member_bits(s.members);
        let n = bits.len();
        for (host, port) in BINDS {
            client_bind_converges(s, &map, (host.to_string(), port))?;
            let key = &host.to_string().shard_key(port);
            // Total ownership.
            let Some(owner) = map.owner(key) else {
                return Err(format!("non-empty map owns nobody for {key:?}"));
            };
            if owner >= n {
                return Err(format!("owner {owner} out of bounds (len {n})"));
            }
            // Ladder: a permutation of 0..n led by the owner.
            let ladder = map.ladder(key);
            let mut sorted = ladder.clone();
            sorted.sort_unstable();
            if sorted != (0..n).collect::<Vec<_>>() {
                return Err(format!("ladder {ladder:?} is not a permutation of 0..{n}"));
            }
            if ladder[0] != owner {
                return Err(format!(
                    "ladder head {} is not the owner {owner}",
                    ladder[0]
                ));
            }
            // Failover consistency: first live rung == shrunken-map owner.
            let live = |idx: usize| s.alive & (1 << bits[idx]) != 0;
            let first_live = ladder.iter().copied().find(|&i| live(i));
            if map.owner_among(key, live) != first_live {
                return Err(format!(
                    "owner_among {:?} disagrees with first live rung {first_live:?}",
                    map.owner_among(key, live)
                ));
            }
            // One-hop convergence, no self-redirect.
            for idx in 0..n {
                match map.route(idx, key) {
                    Some(ShardRoute::Own) if idx == owner => {}
                    Some(ShardRoute::Redirect(to)) if idx != owner => {
                        if to == idx {
                            return Err(format!("shard {idx} redirects to itself"));
                        }
                        if to != owner {
                            return Err(format!("shard {idx} redirects to non-owner {to}"));
                        }
                        if map.route(to, key) != Some(ShardRoute::Own) {
                            return Err(format!("redirect target {to} does not serve"));
                        }
                    }
                    other => {
                        return Err(format!("member {idx} routed {other:?} (owner {owner})"));
                    }
                }
            }
        }
        // Non-members must refuse, not guess.
        if map
            .route(n, &BINDS[0].0.to_string().shard_key(BINDS[0].1))
            .is_some()
        {
            return Err("out-of-map shard answered a route".into());
        }
        // Install monotonicity (client side).
        if s.client_gen > s.gen {
            return Err(format!(
                "client generation {} ahead of fleet generation {}",
                s.client_gen, s.gen
            ));
        }
        if s.client_gen < s.prev_client_gen {
            return Err(format!(
                "client generation moved backwards: {} -> {}",
                s.prev_client_gen, s.client_gen
            ));
        }
        // A stale or equal generation must be refused outright.
        let mut cm = map_of(s.client_gen, s.client_members);
        let same_tags = cm.tags().to_vec();
        if cm.install(u64::from(s.client_gen), same_tags) {
            return Err("install accepted an equal generation".into());
        }
        Ok(())
    }
}

/// One bind of `me` through the production client core over the
/// client's map, against shards that route by the fleet's `map`.
fn client_bind_converges(s: &ShState, map: &ShardMap, me: (String, u16)) -> Result<(), String> {
    let fleet = endpoints(s.members);
    let known = endpoints(s.client_members);
    let alive =
        |ep: &(String, u16)| (0..UNIVERSE).any(|i| *ep == endpoint(i) && s.alive & (1 << i) != 0);
    let key = me.0.shard_key(me.1);
    let who = format!("{}:{}", me.0, me.1);
    let mut core = ClientCore::new(known.clone(), BreakerConfig::default());
    let (mut op, mut step) = core.bind(0, me, None);
    let (mut dials, mut redirects) = (0, 0);
    let served = loop {
        step = match step {
            Step::Dial { to, send, .. } => {
                dials += 1;
                if dials > known.len() + 1 {
                    return Err(format!("bind of {who} still dialing after {dials} dials"));
                }
                let CtrlMsg::BindReq { fallback, .. } = send else {
                    return Err(format!("a bind sent {send:?}"));
                };
                if !alive(&to) {
                    core.dial_failed(&mut op, 0)
                } else {
                    let here = fleet.iter().position(|m| *m == to);
                    let reply = match here.and_then(|idx| map.route(idx, &key)) {
                        Some(ShardRoute::Redirect(owner)) if !fallback => {
                            redirects += 1;
                            let (host, port) = fleet[owner].clone();
                            CtrlMsg::Redirect { host, port }
                        }
                        Some(_) => CtrlMsg::BindRep { rdv_port: 9000 },
                        // Superseded: no longer in the fleet's map.
                        None => CtrlMsg::BindRep { rdv_port: 0 },
                    };
                    core.replied(&mut op, reply)
                }
            }
            Step::Done(Outcome::Bound { advertised }) => break Some((advertised.0, 4097)),
            Step::Done(Outcome::Refused(_)) => break None,
            other => return Err(format!("a bind was told {other:?}")),
        };
    };
    if redirects > 1 {
        return Err(format!("bind of {who} followed {redirects} redirects"));
    }
    if let Some(shard) = &served {
        if !alive(shard) || !fleet.contains(shard) {
            return Err(format!(
                "bind of {who} served by {shard:?}, dead or superseded"
            ));
        }
    }
    let current = s.client_gen == s.gen;
    if current && fleet.iter().any(alive) && served.is_none() {
        return Err(format!(
            "bind of {who} refused with a current map and a live member"
        ));
    }
    Ok(())
}

pub fn verify(deep: bool) -> Report {
    let m = if deep {
        ShardModel::deep()
    } else {
        ShardModel::smoke()
    };
    explore_bfs(&m, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_routing_is_clean_exhaustively() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        assert!(r.states > 100, "state space suspiciously small: {r}");
    }

    #[test]
    fn deep_tier_still_terminates() {
        let r = verify(true);
        assert!(r.ok(), "{r}");
    }
}
