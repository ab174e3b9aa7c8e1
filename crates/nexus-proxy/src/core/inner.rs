//! The inner server's decisions: first-frame dispatch, the sliced
//! authorization table (DESIGN.md §6d), relay completion (Fig. 4 steps
//! 4-5) and Ping/Pong.

use super::{Action, ConnId, DialId, Event, HostId, Mode, Out, StepHook};
use crate::hook::DialLeg;
use crate::protocol::CtrlMsg;
use crate::shard::ShardStats;
use crate::stats::ProxyStats;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wacs_obs::Registry;

/// A `(host, port)` endpoint.
type Ep<H> = (H, u16);

/// Where a connection stands.
#[derive(Debug, Clone)]
enum Role<H> {
    /// Accepted on nxport; first frame pending.
    AwaitFirst,
    /// `RelayReq` accepted at `started`; client dial in flight.
    Dialing { started: u64 },
    /// Client reached; the `RelayRep` is being written.
    Replying { client: ConnId, started: u64 },
    /// Bridged.
    Relayed { pair: ConnId },
    /// An outer server's control session, writing authorization slice
    /// `slice` (`None` = the solo slice of a single-outer deployment).
    Control { slice: Option<(H, u16)> },
}

/// The inner server's control plane. See the module doc of
/// [`crate::core`] for the driver contract.
#[derive(Clone)]
pub struct InnerCore<H: HostId> {
    /// Refuse `RelayReq` for endpoints no `BindSync` announced. A
    /// restarted inner server starts with an empty table: it relays
    /// nothing until an outer server re-syncs.
    require_registration: bool,
    roles: BTreeMap<ConnId, Role<H>>,
    /// Dial → the outer leg awaiting its completion.
    dials: BTreeMap<DialId, ConnId>,
    next_dial: DialId,
    /// Announcing shard's control endpoint (or `None`, solo) → the
    /// client endpoints that shard last announced. Each shard's
    /// `BindSync` replaces only its own slice, so N shards cannot
    /// clobber each other; slices survive session death (a
    /// reconnecting shard re-syncs anyway).
    slices: BTreeMap<Option<Ep<H>>, BTreeSet<Ep<H>>>,
    /// Highest shard-map generation installed so far (0 = none).
    fleet_gen: u64,
    fleet: Vec<(H, u16)>,
    stats: Arc<ProxyStats>,
    shard_stats: ShardStats,
    out: Out<H>,
}

impl<H: HostId> InnerCore<H> {
    pub fn new(require_registration: bool, registry: &Registry, prefix: &str) -> Self {
        InnerCore {
            require_registration,
            roles: BTreeMap::new(),
            dials: BTreeMap::new(),
            next_dial: 0,
            slices: BTreeMap::new(),
            fleet_gen: 0,
            fleet: Vec::new(),
            stats: Arc::new(ProxyStats::in_registry(registry, prefix)),
            shard_stats: ShardStats::in_registry(registry),
            out: Out::new(),
        }
    }

    /// Observe every step from now on.
    pub fn set_hook(&mut self, hook: StepHook<H>) {
        self.out.hook = Some(hook);
    }

    pub fn stats(&self) -> &Arc<ProxyStats> {
        &self.stats
    }

    /// Endpoints currently announced, the union over every slice
    /// (sorted, deduplicated).
    pub fn authorized_endpoints(&self) -> Vec<(H, u16)> {
        let all: BTreeSet<(H, u16)> = self.slices.values().flatten().cloned().collect();
        all.into_iter().collect()
    }

    /// The installed fleet view: `(generation, members)`.
    pub fn fleet_view(&self) -> (u64, Vec<(H, u16)>) {
        (self.fleet_gen, self.fleet.clone())
    }

    pub fn mode(&self, conn: ConnId) -> Option<Mode> {
        self.roles.get(&conn).map(|r| match r {
            Role::Relayed { .. } => Mode::Pipe,
            _ => Mode::Framed,
        })
    }

    /// Canonical rendering of the decision state, as on
    /// [`super::OuterCore`].
    pub fn fingerprint(&self) -> String {
        let fleet = (self.fleet_gen, &self.fleet);
        format!("{:?}", (&self.roles, &self.dials, &self.slices, fleet))
    }

    pub fn step(&mut self, now: u64, ev: Event<H>) -> Vec<Action<H>> {
        let seen = self.out.seen(&ev);
        match ev {
            Event::Accepted { conn, .. } => {
                self.roles.insert(conn, Role::AwaitFirst);
                self.out.recv(conn);
            }
            Event::Frame { conn, msg } => match self.roles.get(&conn).cloned() {
                Some(Role::AwaitFirst) => self.on_first(now, conn, msg),
                Some(Role::Control { slice }) => self.on_control(conn, slice, msg),
                _ => {}
            },
            Event::DialOk { dial, conn: client } => {
                // The outer leg may have left while the dial was in
                // flight: then the client connection is simply dropped.
                let leg = self.dials.remove(&dial);
                match leg.and_then(|l| Some((l, self.roles.get(&l)?.clone()))) {
                    Some((leg, Role::Dialing { started })) => {
                        self.roles.insert(leg, Role::Replying { client, started });
                        self.out.reply(leg, CtrlMsg::RelayRep { ok: true });
                    }
                    _ => self.out.close(client),
                }
            }
            Event::DialFailed { dial, .. } => {
                let leg = self.dials.remove(&dial);
                if let Some((leg, Some(Role::Dialing { started }))) =
                    leg.map(|l| (l, self.roles.get(&l).cloned()))
                {
                    self.refuse(now, leg, started);
                }
            }
            Event::Replied { conn, ok } => {
                if let Some(Role::Replying { client, started }) = self.roles.get(&conn).cloned() {
                    self.stats.relay_bridge_ns.record(now - started);
                    if ok {
                        self.stats.relays_ok.inc();
                        self.roles.insert(conn, Role::Relayed { pair: client });
                        self.roles.insert(client, Role::Relayed { pair: conn });
                        self.out.push(Action::Bridge { a: conn, b: client });
                    } else {
                        // The client answered but the outer leg is
                        // gone: a failed relay, not a silent one.
                        self.stats.relays_failed.inc();
                        self.out.close(client);
                        self.close(conn);
                    }
                }
            }
            Event::Closed { conn } => {
                if let Some(Role::Relayed { pair }) = self.roles.remove(&conn) {
                    self.close(pair);
                }
            }
            Event::Start | Event::Listened { .. } | Event::Timer(_) => {}
        }
        self.out.finish(seen)
    }

    /// Forget `conn` and drop it.
    fn close(&mut self, conn: ConnId) {
        self.roles.remove(&conn);
        self.out.close(conn);
    }

    /// Answer `RelayRep{ok:false}` on `leg` and drop it.
    fn refuse(&mut self, now: u64, leg: ConnId, started: u64) {
        self.stats.relays_failed.inc();
        self.stats.relay_bridge_ns.record(now - started);
        self.out.send(leg, CtrlMsg::RelayRep { ok: false });
        self.close(leg);
    }

    /// First-frame dispatch: `RelayReq` starts a relay; `Ping`,
    /// `BindSync` or `ShardSync` opens a control session; anything else
    /// is dropped.
    fn on_first(&mut self, now: u64, conn: ConnId, msg: CtrlMsg<H>) {
        match msg {
            CtrlMsg::RelayReq { host, port } => {
                let client = (host, port);
                let known = self.slices.values().any(|s| s.contains(&client));
                if self.require_registration && !known {
                    self.stats.relays_unauthorized.inc();
                    self.refuse(now, conn, now);
                    return;
                }
                self.roles.insert(conn, Role::Dialing { started: now });
                let dial = self.next_dial;
                self.next_dial += 1;
                self.dials.insert(dial, conn);
                let leg = DialLeg::InnerToClient;
                self.out.push(Action::Dial {
                    dial,
                    leg,
                    to: client,
                });
            }
            CtrlMsg::Ping { .. } | CtrlMsg::BindSync { .. } | CtrlMsg::ShardSync { .. } => {
                self.roles.insert(conn, Role::Control { slice: None });
                self.on_control(conn, None, msg);
            }
            _ => self.close(conn),
        }
    }

    /// One frame on an established control session.
    fn on_control(&mut self, conn: ConnId, slice: Option<(H, u16)>, msg: CtrlMsg<H>) {
        match msg {
            CtrlMsg::Ping { seq } => {
                self.stats.hb_pings.inc();
                self.stats.hb_pongs.inc();
                self.out.send(conn, CtrlMsg::Pong { seq });
            }
            CtrlMsg::BindSync { binds } => {
                self.slices.insert(slice, binds.into_iter().collect());
                self.stats.bind_syncs.inc();
            }
            CtrlMsg::ShardSync {
                gen,
                sender,
                members,
            } => {
                // Session identity first: even a stale map names its
                // sender (control endpoints are stable across shard
                // restarts, which is what lets a replaced shard reclaim
                // its old slice).
                if let Some(ep) = members.get(sender as usize) {
                    let slice = Some(ep.clone());
                    self.roles.insert(conn, Role::Control { slice });
                }
                if gen > self.fleet_gen {
                    // A removed shard's authorizations die with its
                    // membership, not with its TCP session.
                    self.slices
                        .retain(|k, _| k.as_ref().is_none_or(|ep| members.contains(ep)));
                    self.fleet_gen = gen;
                    self.fleet = members;
                    self.shard_stats.map_syncs.inc();
                    self.shard_stats.map_generation.set(gen as i64);
                }
            }
            // Unexpected frame on a control session.
            _ => return self.close(conn),
        }
        self.out.recv(conn);
    }
}
