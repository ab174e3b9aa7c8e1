//! The outer server's decisions: admission, active opens (Fig. 3),
//! the rendezvous table and passive relays (Fig. 4), fleet routing
//! (DESIGN.md §6d), the inner-leg breaker and the heartbeat session
//! (§6b).

use super::{shard_map, Action, ConnId, DialId, Event, HostId, Mode, Out, StepHook, Timer};
use crate::hook::DialLeg;
use crate::liveness::{
    AdmissionGate, AdmissionLimits, BreakerConfig, BreakerState, CircuitBreaker, HeartbeatConfig,
    HeartbeatMonitor,
};
use crate::protocol::CtrlMsg;
use crate::shard::{ShardRoute, ShardStats};
use crate::stats::ProxyStats;
use std::collections::BTreeMap;
use std::sync::Arc;
use wacs_obs::{Counter, Gauge, Registry};

/// Everything that parameterises the outer server's decisions.
#[derive(Debug, Clone)]
pub struct OuterParams<H> {
    /// Control port clients connect to (arrivals on any other port are
    /// rendezvous peers).
    pub ctrl_port: u16,
    /// Address of the inner server (`host`, `nxport`). `None` disables
    /// passive relaying through an inner server: peers of a bound
    /// client are dialed back directly (only possible when no firewall
    /// protects the client).
    pub inner: Option<(H, u16)>,
    /// Admission bounds for concurrent relays.
    pub limits: AdmissionLimits,
    /// Enable the outer→inner heartbeat control session (needs
    /// `inner`). `None` means no session, no dead-peer detection, no
    /// bind re-sync.
    pub heartbeat: Option<HeartbeatConfig>,
    /// WAN-leg circuit breaker tuning (inner-server dials).
    pub breaker: BreakerConfig,
    /// Shard-fleet membership `(members, self_index)`: the control
    /// endpoints of every shard — the *same list in the same order* on
    /// every shard, client, and inner server — and this server's index
    /// in it. `None` is the paper's single-proxy deployment: no
    /// ownership checks, no redirects, no shard-map announcements.
    pub fleet: Option<(Vec<(H, u16)>, usize)>,
}

/// Where a connection stands.
#[derive(Debug, Clone)]
enum Role<H> {
    /// Accepted on the control port at `since`; first frame pending.
    AwaitRequest { since: u64 },
    /// `ConnectReq` admitted at `started`. `target` is `None` while the
    /// dial is in flight, `Some` while the `ConnectRep` is being
    /// written.
    Connecting {
        started: u64,
        target: Option<ConnId>,
    },
    /// `BindReq` routed here; the rendezvous listener is being
    /// allocated.
    Binding { client: (H, u16), started: u64 },
    /// Registered; the `BindRep` is being written.
    BindReplying { rdv_port: u16, started: u64 },
    /// Control connection of a live registration.
    BindControl { rdv_port: u16 },
    /// A peer that hit a rendezvous port at `started`; its inward leg
    /// is being set up.
    PeerPending { started: u64 },
    /// Leg toward the inner server for `peer`; `RelayRep` pending.
    AwaitRelayRep { peer: ConnId },
    /// Bridged.
    Relayed { pair: ConnId },
    /// The heartbeat session.
    Heartbeat,
}

/// What an in-flight dial is for.
#[derive(Debug, Clone)]
enum Dial<H> {
    /// Active open on behalf of `client` (Fig. 3).
    Target { client: ConnId },
    /// Inner-server leg for rendezvous `peer` (Fig. 4 step 4).
    Inner { peer: ConnId, client: (H, u16) },
    /// Straight back to a bound client (no inner server configured).
    Direct { peer: ConnId },
    /// The heartbeat session.
    Heartbeat,
}

/// One live heartbeat session and what it last shipped.
#[derive(Debug, Clone)]
struct Session {
    conn: ConnId,
    monitor: HeartbeatMonitor,
    /// `rdv_gen` as of the last `BindSync` on this session.
    synced_rdv_gen: u64,
    /// Fleet generation as of the last `ShardSync` on this session.
    synced_fleet_gen: u64,
}

#[derive(Clone)]
struct Fleet<H> {
    self_index: usize,
    gen: u64,
    members: Vec<(H, u16)>,
    stats: ShardStats,
}

/// `<prefix>.breaker_*`: where breaker transitions are mirrored.
#[derive(Clone)]
struct BreakerObs {
    state: Gauge,
    opens: Counter,
    closes: Counter,
}

/// The outer server's control plane. See the module doc of
/// [`crate::core`] for the driver contract.
#[derive(Clone)]
pub struct OuterCore<H: HostId> {
    ctrl_port: u16,
    inner: Option<(H, u16)>,
    /// Heartbeat tuning and the address it dials, when enabled.
    hb: Option<(HeartbeatConfig, (H, u16))>,
    roles: BTreeMap<ConnId, Role<H>>,
    /// Rendezvous port → registered client's private endpoint.
    rdv: BTreeMap<u16, (H, u16)>,
    /// Bumped on every `rdv` change; the session re-syncs when it
    /// trails.
    rdv_gen: u64,
    dials: BTreeMap<DialId, Dial<H>>,
    next_dial: DialId,
    gate: AdmissionGate,
    /// Admitted connection → its gate key; removal *is* the release,
    /// so a slot cannot be released twice.
    admitted: BTreeMap<ConnId, String>,
    breaker: CircuitBreaker,
    breaker_obs: BreakerObs,
    fleet: Option<Fleet<H>>,
    session: Option<Session>,
    ever_alive: bool,
    stats: Arc<ProxyStats>,
    out: Out<H>,
}

impl<H: HostId> OuterCore<H> {
    /// Instruments register under `<prefix>.*` (and `wacs.shard.*` for
    /// a fleet member) in `registry`.
    pub fn new(p: OuterParams<H>, registry: &Registry, prefix: &str) -> Self {
        let fleet = p.fleet.map(|(members, self_index)| {
            let stats = ShardStats::in_registry(registry);
            stats.map_generation.set(1);
            Fleet {
                self_index,
                gen: 1,
                members,
                stats,
            }
        });
        OuterCore {
            ctrl_port: p.ctrl_port,
            hb: p.heartbeat.zip(p.inner.clone()),
            inner: p.inner,
            roles: BTreeMap::new(),
            rdv: BTreeMap::new(),
            rdv_gen: 1,
            dials: BTreeMap::new(),
            next_dial: 0,
            gate: AdmissionGate::new(p.limits),
            admitted: BTreeMap::new(),
            breaker: CircuitBreaker::new(p.breaker),
            breaker_obs: BreakerObs {
                state: registry.gauge(&format!("{prefix}.breaker_state")),
                opens: registry.counter(&format!("{prefix}.breaker_opens")),
                closes: registry.counter(&format!("{prefix}.breaker_closes")),
            },
            fleet,
            session: None,
            ever_alive: false,
            stats: Arc::new(ProxyStats::in_registry(registry, prefix)),
            out: Out::new(),
        }
    }

    /// Observe every step from now on.
    pub fn set_hook(&mut self, hook: StepHook<H>) {
        self.out.hook = Some(hook);
    }

    /// The instrument set (shared with the driver's data plane).
    pub fn stats(&self) -> &Arc<ProxyStats> {
        &self.stats
    }

    /// Registered rendezvous ports, ascending.
    pub fn rendezvous_ports(&self) -> Vec<u16> {
        self.rdv.keys().copied().collect()
    }

    /// Admission slots currently held.
    pub fn admission_active(&self) -> u32 {
        self.gate.active()
    }

    /// Refuse all new admissions from now on (graceful shutdown).
    pub fn begin_drain(&mut self) {
        self.gate.begin_drain();
    }

    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Generation of the installed shard map (0 outside a fleet).
    pub fn fleet_generation(&self) -> u64 {
        self.fleet.as_ref().map_or(0, |f| f.gen)
    }

    /// The bind table as a `BindSync` ships it, with its generation.
    pub fn binds(&self) -> (u64, Vec<(H, u16)>) {
        (self.rdv_gen, self.rdv.values().cloned().collect())
    }

    /// `(bind-table, fleet)` generations last shipped on the live
    /// heartbeat session, if there is one.
    pub fn synced_generations(&self) -> Option<(u64, u64)> {
        let s = self.session.as_ref()?;
        Some((s.synced_rdv_gen, s.synced_fleet_gen))
    }

    pub fn mode(&self, conn: ConnId) -> Option<Mode> {
        self.roles.get(&conn).map(|r| match r {
            Role::PeerPending { .. } | Role::Relayed { .. } => Mode::Pipe,
            _ => Mode::Framed,
        })
    }

    /// Canonical rendering of the decision state (no instruments), for
    /// the model checker's visited set.
    pub fn fingerprint(&self) -> String {
        let fleet = self.fleet.as_ref().map(|f| (f.gen, &f.members));
        format!(
            "{:?}",
            (
                &self.roles,
                &self.rdv,
                self.rdv_gen,
                &self.dials,
                self.gate.fingerprint(),
                &self.admitted,
                &self.breaker,
                fleet,
                &self.session,
                self.ever_alive,
            )
        )
    }

    /// Install a strictly newer shard map; the session announces it on
    /// its next tick. `false` (nothing changes) for a stale generation
    /// or outside a fleet.
    pub fn install_fleet(&mut self, generation: u64, members: Vec<(H, u16)>) -> bool {
        match &mut self.fleet {
            Some(f) if generation > f.gen => {
                f.gen = generation;
                f.members = members;
                f.stats.map_generation.set(generation as i64);
                true
            }
            _ => false,
        }
    }

    pub fn step(&mut self, now: u64, ev: Event<H>) -> Vec<Action<H>> {
        let seen = self.out.seen(&ev);
        match ev {
            Event::Start | Event::Timer(Timer::HbRetry) => self.hb_dial(now),
            Event::Timer(Timer::HbTick) => self.hb_tick(now),
            Event::Accepted { conn, port } if port == self.ctrl_port => {
                self.stats.control_accepts.inc();
                self.roles.insert(conn, Role::AwaitRequest { since: now });
                self.out.recv(conn);
            }
            Event::Accepted { conn, port } => self.on_peer(now, conn, port),
            Event::Frame { conn, msg } => self.on_frame(now, conn, msg),
            Event::Listened { conn, port } => self.on_listened(conn, port),
            Event::Replied { conn, ok } => self.on_replied(now, conn, ok),
            Event::DialOk { dial, conn } => self.on_dial_ok(now, dial, conn),
            Event::DialFailed { dial, detail } => self.on_dial_failed(now, dial, detail),
            Event::Closed { conn } => self.on_closed(now, conn),
        }
        self.out.finish(seen)
    }

    fn dial(&mut self, what: Dial<H>, leg: DialLeg, to: (H, u16)) {
        let dial = self.next_dial;
        self.next_dial += 1;
        self.dials.insert(dial, what);
        self.out.push(Action::Dial { dial, leg, to });
    }

    /// Take a slot for `conn` under `key`; `false` = refused (counted).
    fn admit(&mut self, conn: ConnId, key: String) -> bool {
        if self.gate.try_admit(&key).is_err() {
            self.stats.busy_rejected.inc();
            return false;
        }
        self.admitted.insert(conn, key);
        true
    }

    fn release(&mut self, conn: ConnId) {
        if let Some(key) = self.admitted.remove(&conn) {
            self.gate.release(&key);
        }
    }

    /// Forget `conn` and drop it.
    fn close(&mut self, conn: ConnId) {
        self.roles.remove(&conn);
        self.out.close(conn);
    }

    /// Run `f` on the breaker and mirror any transition into obs.
    fn with_breaker<R>(&mut self, f: impl FnOnce(&mut CircuitBreaker) -> R) -> R {
        let before = self.breaker.state();
        let r = f(&mut self.breaker);
        let after = self.breaker.state();
        if after != before {
            self.breaker_obs.state.set(after.as_gauge());
            match after {
                BreakerState::Open => self.breaker_obs.opens.inc(),
                BreakerState::Closed => self.breaker_obs.closes.inc(),
                BreakerState::HalfOpen => {}
            }
        }
        r
    }

    /// Fig. 4 step 3: a peer hit rendezvous port `port`.
    fn on_peer(&mut self, now: u64, conn: ConnId, port: u16) {
        // No registration (it vanished between SYN and accept), or no
        // slot. Admission is keyed by the registered client, so one
        // overloaded bound endpoint cannot starve the rest; the peer is
        // a raw data stream, so the refusal is a reset, not `Busy`.
        let client = self.rdv.get(&port).cloned();
        let Some(client) = client.filter(|c| self.admit(conn, c.0.peer_key())) else {
            self.out.close(conn);
            return;
        };
        self.roles.insert(conn, Role::PeerPending { started: now });
        match self.inner.clone() {
            // The breaker watches the WAN dial leg only: an established
            // connection proves the inner server answers, whatever it
            // then replies.
            Some(inner) if self.with_breaker(|b| b.allow(now)) => {
                let what = Dial::Inner { peer: conn, client };
                self.dial(what, DialLeg::OuterToInner, inner);
            }
            Some(_) => self.fail_peer(now, conn),
            None => self.dial(Dial::Direct { peer: conn }, DialLeg::OuterData, client),
        }
    }

    /// When `peer` arrived, if it is still waiting for its inward leg.
    fn pending_since(&self, peer: ConnId) -> Option<u64> {
        match self.roles.get(&peer) {
            Some(Role::PeerPending { started }) => Some(*started),
            _ => None,
        }
    }

    /// The passive relay for `peer` cannot be completed.
    fn fail_peer(&mut self, now: u64, peer: ConnId) {
        if let Some(started) = self.pending_since(peer) {
            self.stats.relays_failed.inc();
            self.stats.relay_bridge_ns.record(now - started);
            self.release(peer);
            self.close(peer);
        }
    }

    /// Fig. 4 step 5: `peer`'s inward leg `inward` is ready (and `true`),
    /// or `peer` left while it was being set up.
    fn bridge_peer(&mut self, now: u64, peer: ConnId, inward: ConnId) -> bool {
        let Some(started) = self.pending_since(peer) else {
            return false;
        };
        self.stats.relays_ok.inc();
        self.stats.relay_bridge_ns.record(now - started);
        self.bridge(peer, inward);
        true
    }

    fn bridge(&mut self, a: ConnId, b: ConnId) {
        self.roles.insert(a, Role::Relayed { pair: b });
        self.roles.insert(b, Role::Relayed { pair: a });
        self.out.push(Action::Bridge { a, b });
    }

    fn on_frame(&mut self, now: u64, conn: ConnId, msg: CtrlMsg<H>) {
        match self.roles.get(&conn).cloned() {
            Some(Role::AwaitRequest { since }) => {
                self.stats.control_handshake_ns.record(now - since);
                self.on_request(now, conn, msg);
            }
            Some(Role::AwaitRelayRep { peer }) => {
                let ok = msg == CtrlMsg::RelayRep { ok: true };
                if !(ok && self.bridge_peer(now, peer, conn)) {
                    self.fail_peer(now, peer);
                    self.close(conn);
                }
            }
            Some(Role::Heartbeat) => match (&msg, &mut self.session) {
                (CtrlMsg::Pong { .. }, Some(s)) => {
                    self.stats.hb_pongs.inc();
                    s.monitor.observe(now);
                    self.out.recv(conn);
                }
                // Anything but a pong on the session: not an inner
                // server we can trust to be alive.
                _ => self.on_closed(now, conn),
            },
            // Clients don't speak after a bind; pipes carry no frames.
            _ => {}
        }
    }

    fn on_request(&mut self, now: u64, conn: ConnId, msg: CtrlMsg<H>) {
        match msg {
            // Fig. 3: dial the target on the client's behalf. Admission
            // first, keyed by destination host: refuse typed rather
            // than accept work the server cannot finish.
            CtrlMsg::ConnectReq { host, port } => {
                if self.admit(conn, host.peer_key()) {
                    let role = Role::Connecting {
                        started: now,
                        target: None,
                    };
                    self.roles.insert(conn, role);
                    self.dial(
                        Dial::Target { client: conn },
                        DialLeg::OuterData,
                        (host, port),
                    );
                } else {
                    self.stats.connect_req_ns.record(0);
                    self.out.send(conn, CtrlMsg::Busy);
                    self.close(conn);
                }
            }
            // Fig. 4 steps 1-2.
            CtrlMsg::BindReq {
                host,
                port,
                fallback,
            } => match self.route_bind(&host, port, fallback) {
                None => {
                    let role = Role::Binding {
                        client: (host, port),
                        started: now,
                    };
                    self.roles.insert(conn, role);
                    self.out.push(Action::Listen { conn });
                }
                Some(reply) => {
                    self.out.send(conn, reply);
                    self.close(conn);
                }
            },
            _ => self.close(conn),
        }
    }

    /// Fleet routing of a bind: only the HRW owner of the key serves
    /// it; everyone else names the owner, so a client with a stale map
    /// converges in one hop. A `fallback` request means the client
    /// could not reach the owner: serve it rather than bounce it back
    /// to a dead shard. `Some(reply)` = do not serve, answer this.
    fn route_bind(&self, host: &H, port: u16, fallback: bool) -> Option<CtrlMsg<H>> {
        let f = self.fleet.as_ref()?;
        match shard_map(f.gen, &f.members).route(f.self_index, &host.shard_key(port)) {
            Some(ShardRoute::Own) => {
                f.stats.binds_owned.inc();
                None
            }
            Some(ShardRoute::Redirect(_)) if fallback => None,
            Some(ShardRoute::Redirect(owner)) => {
                f.stats.redirects_sent.inc();
                let (host, port) = f.members[owner].clone();
                Some(CtrlMsg::Redirect { host, port })
            }
            // Self not in the map (superseded membership): refuse.
            None => Some(CtrlMsg::BindRep { rdv_port: 0 }),
        }
    }

    fn on_listened(&mut self, conn: ConnId, port: Option<u16>) {
        let Some(Role::Binding { client, started }) = self.roles.get(&conn).cloned() else {
            return;
        };
        let Some(rdv_port) = port else {
            self.out.send(conn, CtrlMsg::BindRep { rdv_port: 0 });
            self.close(conn);
            return;
        };
        // Register before acknowledging, so a client that acts on the
        // BindRep immediately finds a live rendezvous.
        self.rdv.insert(rdv_port, client);
        self.rdv_gen += 1;
        self.stats.binds.inc();
        self.roles
            .insert(conn, Role::BindReplying { rdv_port, started });
        self.out.reply(conn, CtrlMsg::BindRep { rdv_port });
    }

    /// The registration's lifetime is its control connection's.
    fn withdraw(&mut self, rdv_port: u16) {
        self.rdv.remove(&rdv_port);
        self.rdv_gen += 1;
        self.out.push(Action::Unlisten { port: rdv_port });
    }

    fn on_replied(&mut self, now: u64, conn: ConnId, ok: bool) {
        match self.roles.get(&conn).cloned() {
            Some(Role::BindReplying { rdv_port, started }) if ok => {
                self.stats.bind_req_ns.record(now - started);
                self.roles.insert(conn, Role::BindControl { rdv_port });
            }
            Some(Role::BindReplying { rdv_port, .. }) => {
                self.withdraw(rdv_port);
                self.close(conn);
            }
            Some(Role::Connecting {
                started,
                target: Some(target),
            }) => {
                self.stats.connect_req_ns.record(now - started);
                if ok {
                    self.stats.connects_ok.inc();
                    self.bridge(conn, target);
                } else {
                    // The target answered but the client is gone: a
                    // failed connect, not a silent one.
                    self.stats.connects_failed.inc();
                    self.release(conn);
                    self.out.close(target);
                    self.close(conn);
                }
            }
            _ => {}
        }
    }

    fn on_dial_ok(&mut self, now: u64, dial: DialId, new: ConnId) {
        // Whoever asked for the dial may have left while it was in
        // flight: then what it produced is simply dropped.
        let wanted = match self.dials.remove(&dial) {
            Some(Dial::Target { client }) => match self.roles.get_mut(&client) {
                Some(Role::Connecting { target, .. }) => {
                    *target = Some(new);
                    let detail = String::new();
                    self.out
                        .reply(client, CtrlMsg::ConnectRep { ok: true, detail });
                    true
                }
                _ => false,
            },
            Some(Dial::Inner { peer, client }) => {
                self.with_breaker(CircuitBreaker::on_success);
                let waiting = self.pending_since(peer).is_some();
                if waiting {
                    // Fig. 4 step 4: ask the inner server to complete.
                    let (host, port) = client;
                    self.roles.insert(new, Role::AwaitRelayRep { peer });
                    self.out.send(new, CtrlMsg::RelayReq { host, port });
                    self.out.recv(new);
                }
                waiting
            }
            Some(Dial::Direct { peer }) => self.bridge_peer(now, peer, new),
            Some(Dial::Heartbeat) => self.hb_up(now, new),
            None => false,
        };
        if !wanted {
            self.out.close(new);
        }
    }

    fn on_dial_failed(&mut self, now: u64, dial: DialId, detail: String) {
        match self.dials.remove(&dial) {
            Some(Dial::Target { client }) => {
                if let Some(Role::Connecting { started, .. }) = self.roles.get(&client).cloned() {
                    self.stats.connects_failed.inc();
                    self.stats.connect_req_ns.record(now - started);
                    self.release(client);
                    self.out
                        .send(client, CtrlMsg::ConnectRep { ok: false, detail });
                    self.close(client);
                }
            }
            Some(Dial::Inner { peer, .. }) => {
                self.with_breaker(|b| b.on_failure(now));
                self.fail_peer(now, peer);
            }
            Some(Dial::Direct { peer }) => self.fail_peer(now, peer),
            Some(Dial::Heartbeat) => {
                self.with_breaker(|b| b.on_failure(now));
                self.hb_retry();
            }
            None => {}
        }
    }

    fn on_closed(&mut self, now: u64, conn: ConnId) {
        match self.roles.remove(&conn) {
            // Session broke while the peer was considered alive.
            Some(Role::Heartbeat) => {
                self.session = None;
                self.stats.inner_alive.set(0);
                self.stats.inner_deaths.inc();
                self.out.close(conn);
                self.hb_retry();
            }
            Some(Role::BindControl { rdv_port } | Role::BindReplying { rdv_port, .. }) => {
                self.withdraw(rdv_port);
            }
            Some(Role::AwaitRelayRep { peer }) => self.fail_peer(now, peer),
            Some(Role::Relayed { pair }) => {
                self.release(pair);
                self.close(pair);
            }
            // A dial still in flight for `conn` finds it gone when it
            // resolves.
            _ => {}
        }
        self.release(conn);
    }

    // ----- heartbeat session (DESIGN.md §6b) -------------------------

    /// Dial the session, or wait out an open breaker.
    fn hb_dial(&mut self, now: u64) {
        let Some((_, inner)) = self.hb.clone() else {
            return;
        };
        if self.session.is_some() {
            return;
        }
        if self.with_breaker(|b| b.allow(now)) {
            self.dial(Dial::Heartbeat, DialLeg::Heartbeat, inner);
        } else {
            self.hb_retry();
        }
    }

    fn hb_retry(&mut self) {
        if let Some((hb, _)) = &self.hb {
            self.out.timer(Timer::HbRetry, hb.interval);
        }
    }

    /// Session established: shard map first (it names the
    /// authorization slice the `BindSync` lands in), then the full bind
    /// table, then start pinging — the recovery contract a restarted
    /// inner server relies on.
    fn hb_up(&mut self, now: u64, conn: ConnId) -> bool {
        let Some((hb, _)) = self.hb.clone() else {
            return false;
        };
        self.with_breaker(CircuitBreaker::on_success);
        self.stats.inner_alive.set(1);
        if self.ever_alive {
            self.stats.inner_reconnects.inc();
        }
        self.ever_alive = true;
        self.roles.insert(conn, Role::Heartbeat);
        self.session = Some(Session {
            conn,
            monitor: HeartbeatMonitor::new(hb, now),
            synced_rdv_gen: 0,
            synced_fleet_gen: 0,
        });
        self.hb_sync();
        self.out.recv(conn);
        true
    }

    /// Ship whichever generation moved since the last sync, ping, and
    /// come back in one interval. Table and generation are read in the
    /// same step, so a shipped generation can never be ahead of the
    /// table it describes.
    fn hb_sync(&mut self) {
        let Some(s) = &mut self.session else {
            return;
        };
        if let Some(f) = self.fleet.as_ref().filter(|f| f.gen != s.synced_fleet_gen) {
            s.synced_fleet_gen = f.gen;
            f.stats.map_syncs.inc();
            let msg = CtrlMsg::ShardSync {
                gen: f.gen,
                sender: f.self_index as u16,
                members: f.members.clone(),
            };
            self.out.send(s.conn, msg);
        }
        if s.synced_rdv_gen != self.rdv_gen {
            s.synced_rdv_gen = self.rdv_gen;
            self.stats.bind_syncs.inc();
            let binds = self.rdv.values().cloned().collect();
            self.out.send(s.conn, CtrlMsg::BindSync { binds });
        }
        self.stats.hb_pings.inc();
        let seq = s.monitor.next_seq();
        self.out.send(s.conn, CtrlMsg::Ping { seq });
        self.out.timer(Timer::HbTick, s.monitor.config().interval);
    }

    fn hb_tick(&mut self, now: u64) {
        match &self.session {
            Some(s) if s.monitor.expired(now) => self.on_closed(now, s.conn),
            Some(_) => self.hb_sync(),
            // Session already down: HbRetry owns recovery.
            None => {}
        }
    }
}
