//! Model of the proxy servers' control plane: the production
//! [`OuterCore`] and [`InnerCore`] (`nexus_proxy::core`), wired
//! together by a nondeterministic network.
//!
//! Nothing is restated: the model *is* a third driver of the two
//! machines the real and the sim servers run. Where those drivers
//! execute an action at once, this one parks it as an obligation and
//! lets the explorer pick the order: which dial resolves next and
//! how, which queued frame is delivered, when a client binds or lets
//! go, when a peer arrives or leaves, when the inner server restarts
//! (empty table, every connection reset), when a newer shard map is
//! installed, when the heartbeat timers fire. Connections between the
//! servers are FIFO and close like TCP: what was written before the
//! close is still read, then EOF.
//!
//! Invariants, in **every** reachable state:
//!
//! * **Admission** — the slots the outer gate holds are exactly the
//!   live admitted peers: none leaked, none released twice (all peers
//!   share one gate key, so a double release would free a neighbour's
//!   slot), and zero when nothing is in flight.
//! * **Authorization** — with registration required, the inner server
//!   dials a client only for an endpoint its table holds at that step:
//!   after a restart, nothing relays until a `BindSync` arrives.
//! * **No redirect to self.**
//! * **Sync honesty** (the invariant of the retired `bindsync` model,
//!   now on the real code) — the generation a session last shipped is
//!   never ahead of the table's, and when it is current the shipped
//!   binds are the table.
//! * **Monotone maps** — the outer server's installed generation never
//!   decreases; the inner server's only by restarting.

use crate::explore::{explore_bfs, Model, Report};
use nexus_proxy::core::{shard_map, Action, ConnId, DialId, Event, HostId, InnerCore, OuterCore};
use nexus_proxy::core::{OuterParams, Timer};
use nexus_proxy::liveness::{AdmissionLimits, BreakerConfig, HeartbeatConfig};
use nexus_proxy::Msg;
use std::collections::{BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::time::Duration;
use wacs_obs::Registry;

const CTRL: u16 = 7000;
const NX: u16 = 900;
const TICK: Duration = Duration::from_millis(10);
/// One silent interval is survived, the second is death.
const TIMEOUT: Duration = Duration::from_millis(15);
/// Bind slots: slot `k` registers `("c", ports[k])` through control
/// connection `10 + k` and is given rendezvous port `6000 + k`.
const SLOTS: usize = 2;

fn ep(host: &str, port: u16) -> (String, u16) {
    (host.to_string(), port)
}

fn members() -> Vec<(String, u16)> {
    vec![ep("o0", CTRL), ep("o1", CTRL)]
}

/// One outer↔inner connection. Frames queue per direction; a side that
/// closed reads nothing more, the other still drains, then sees EOF.
#[derive(Clone, Debug)]
struct Link {
    o: ConnId,
    i: ConnId,
    to_inner: VecDeque<Msg>,
    to_outer: VecDeque<Msg>,
    o_open: bool,
    i_open: bool,
}

/// How far the environment may still go (bounds the exploration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Budget {
    binds: u8,
    peers: u8,
    /// Inner-server restarts and shard-map installs, together.
    faults: u8,
    timers: u8,
}

#[derive(Clone)]
pub struct SrvState {
    outer: OuterCore<String>,
    inner: InnerCore<String>,
    /// Nanoseconds; advances only when a timer fires.
    now: u64,
    links: Vec<Link>,
    outer_dials: Vec<DialId>,
    inner_dials: Vec<DialId>,
    /// Control connection of each bind slot, while the client holds it.
    bound: [bool; SLOTS],
    /// Admitted peers still alive.
    peers: BTreeSet<ConnId>,
    peers_seen: u8,
    tick_due: bool,
    retry_due: bool,
    budget: Budget,
    /// Binds the live session last shipped.
    shipped: Option<Vec<(String, u16)>>,
    prev_gens: (u64, u64),
    /// First invariant broken *during* a step, if any.
    bad: Option<String>,
    /// [`SrvState::render`] of this state, computed once per
    /// transition: what equality and hashing go by.
    key: String,
}

impl SrvState {
    /// Everything that distinguishes two states, canonically.
    fn render(&self) -> String {
        format!(
            "{}|{}|{:?}",
            self.outer.fingerprint(),
            self.inner.fingerprint(),
            (
                self.now,
                &self.links,
                &self.outer_dials,
                &self.inner_dials,
                self.bound,
                &self.peers,
                self.peers_seen,
                (self.tick_due, self.retry_due),
                self.budget,
                &self.shipped,
                self.prev_gens,
                &self.bad,
            )
        )
    }
}

impl PartialEq for SrvState {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for SrvState {}
impl Hash for SrvState {
    fn hash<S: Hasher>(&self, h: &mut S) {
        self.key.hash(h);
    }
}

#[derive(Clone, Debug)]
pub enum SrvAction {
    /// A client registers through bind slot `.0`.
    Bind(usize),
    /// The client of slot `.0` drops its control connection.
    Unbind(usize),
    /// A peer connects to the rendezvous port of slot `.0`.
    Peer(usize),
    /// Peer `.0` goes away (mid-setup or bridged).
    PeerLeaves(ConnId),
    /// The outer server's pending dial `.0` resolves.
    OuterDial(DialId, bool),
    /// The inner server's pending dial `.0` resolves.
    InnerDial(DialId, bool),
    /// The next frame (or the EOF) on link `.0` reaches the inner /
    /// the outer server.
    ToInner(usize),
    ToOuter(usize),
    /// The inner server restarts: empty table, every connection reset.
    RestartInner,
    /// A newer shard map (same members) is installed on the outer.
    Install,
    /// A pending heartbeat timer fires, one interval later.
    Fire(Timer),
}

pub struct ServersModel {
    budget: Budget,
    /// Private ports per bind slot: slot 0's key is owned by the outer
    /// under test, slot 1's by the other shard (so it is redirected).
    ports: [u16; SLOTS],
}

impl ServersModel {
    fn with(budget: Budget) -> Self {
        let map = shard_map(1, &members());
        let owned_by = |shard| {
            (4000..5000u16)
                .find(|p| map.owner(&"c".to_string().shard_key(*p)) == Some(shard))
                .unwrap_or(4000)
        };
        ServersModel {
            budget,
            ports: [owned_by(0), owned_by(1)],
        }
    }

    pub fn smoke() -> Self {
        Self::with(Budget {
            binds: 1,
            peers: 1,
            faults: 1,
            timers: 1,
        })
    }

    pub fn deep() -> Self {
        Self::with(Budget {
            binds: 2,
            peers: 1,
            faults: 2,
            timers: 2,
        })
    }
}

/// Which machine an event is for.
enum To {
    Outer(Event<String>),
    Inner(Event<String>),
}

impl SrvState {
    fn flag(&mut self, why: String) {
        self.bad.get_or_insert(why);
    }

    /// Feed `first` and everything it synchronously entails.
    fn run(&mut self, first: To) {
        let mut work = VecDeque::from([first]);
        while let Some(to) = work.pop_front() {
            match to {
                To::Outer(ev) => {
                    for a in self.outer.step(self.now, ev) {
                        self.outer_does(a, &mut work);
                    }
                }
                To::Inner(ev) => {
                    let table = self.inner.authorized_endpoints();
                    for a in self.inner.step(self.now, ev) {
                        self.inner_does(a, &table, &mut work);
                    }
                }
            }
        }
    }

    fn outer_does(&mut self, a: Action<String>, work: &mut VecDeque<To>) {
        match a {
            Action::Send { conn, msg } => {
                if let Msg::Redirect { host, port } = &msg {
                    if (host.as_str(), *port) == ("o0", CTRL) {
                        self.flag("redirect to self".into());
                    }
                }
                if let Msg::BindSync { binds } = &msg {
                    self.shipped = Some(binds.clone());
                }
                if let Some(l) = self.links.iter_mut().find(|l| l.o == conn) {
                    l.to_inner.push_back(msg);
                }
            }
            Action::Reply { conn, .. } => {
                work.push_back(To::Outer(Event::Replied { conn, ok: true }));
            }
            Action::Listen { conn } => work.push_back(To::Outer(Event::Listened {
                conn,
                port: Some(6000 + (conn - 10) as u16),
            })),
            Action::Dial { dial, to, .. } => {
                if to != ep("in", NX) {
                    self.flag(format!("outer dials {to:?}, not the inner server"));
                }
                self.outer_dials.push(dial);
            }
            Action::Close { conn } => {
                self.peers.remove(&conn);
                if let Some(l) = self.links.iter_mut().find(|l| l.o == conn) {
                    l.o_open = false;
                    l.to_outer.clear();
                }
            }
            Action::SetTimer { timer, .. } => match timer {
                Timer::HbTick => self.tick_due = true,
                Timer::HbRetry => self.retry_due = true,
            },
            Action::Recv { .. } | Action::Unlisten { .. } | Action::Bridge { .. } => {}
        }
    }

    fn inner_does(&mut self, a: Action<String>, table: &[(String, u16)], work: &mut VecDeque<To>) {
        let mut write = |conn, msg| match self.links.iter_mut().find(|l| l.i == conn) {
            Some(l) => {
                l.to_outer.push_back(msg);
                true
            }
            None => false,
        };
        match a {
            Action::Send { conn, msg } => {
                write(conn, msg);
            }
            Action::Reply { conn, msg } => {
                let ok = write(conn, msg);
                work.push_back(To::Inner(Event::Replied { conn, ok }));
            }
            Action::Dial { dial, to, .. } => {
                if !table.contains(&to) {
                    self.flag(format!("inner relays to unauthorized {to:?}"));
                }
                self.inner_dials.push(dial);
            }
            Action::Close { conn } => {
                if let Some(l) = self.links.iter_mut().find(|l| l.i == conn) {
                    l.i_open = false;
                    l.to_inner.clear();
                }
            }
            _ => {}
        }
    }
}

impl Model for ServersModel {
    type State = SrvState;
    type Action = SrvAction;

    fn name(&self) -> &'static str {
        "servers"
    }

    fn initial(&self) -> SrvState {
        let registry = Registry::new();
        let params = OuterParams {
            ctrl_port: CTRL,
            inner: Some(ep("in", NX)),
            limits: AdmissionLimits::default(),
            heartbeat: Some(HeartbeatConfig {
                interval: TICK,
                timeout: TIMEOUT,
            }),
            breaker: BreakerConfig::default(),
            fleet: Some((members(), 0)),
        };
        let mut s = SrvState {
            outer: OuterCore::new(params, &registry, "proxy.outer"),
            inner: InnerCore::new(true, &registry, "proxy.inner"),
            now: 0,
            links: Vec::new(),
            outer_dials: Vec::new(),
            inner_dials: Vec::new(),
            bound: [false; SLOTS],
            peers: BTreeSet::new(),
            peers_seen: 0,
            tick_due: false,
            retry_due: false,
            budget: self.budget,
            shipped: None,
            prev_gens: (1, 0),
            bad: None,
            key: String::new(),
        };
        s.run(To::Outer(Event::Start));
        s.key = s.render();
        s
    }

    fn actions(&self, s: &SrvState, out: &mut Vec<SrvAction>) {
        for k in 0..SLOTS {
            if s.bound[k] {
                out.push(SrvAction::Unbind(k));
                if s.budget.peers > 0 {
                    out.push(SrvAction::Peer(k));
                }
            } else if s.budget.binds > 0 {
                out.push(SrvAction::Bind(k));
            }
        }
        out.extend(s.peers.iter().map(|p| SrvAction::PeerLeaves(*p)));
        for d in &s.outer_dials {
            out.extend([
                SrvAction::OuterDial(*d, true),
                SrvAction::OuterDial(*d, false),
            ]);
        }
        for d in &s.inner_dials {
            out.extend([
                SrvAction::InnerDial(*d, true),
                SrvAction::InnerDial(*d, false),
            ]);
        }
        for (at, l) in s.links.iter().enumerate() {
            if l.i_open && (!l.to_inner.is_empty() || !l.o_open) {
                out.push(SrvAction::ToInner(at));
            }
            if l.o_open && (!l.to_outer.is_empty() || !l.i_open) {
                out.push(SrvAction::ToOuter(at));
            }
        }
        if s.budget.faults > 0 {
            out.extend([SrvAction::RestartInner, SrvAction::Install]);
        }
        if s.budget.timers > 0 {
            if s.tick_due {
                out.push(SrvAction::Fire(Timer::HbTick));
            }
            if s.retry_due {
                out.push(SrvAction::Fire(Timer::HbRetry));
            }
        }
    }

    fn apply(&self, s: &SrvState, a: &SrvAction) -> SrvState {
        let mut t = s.clone();
        t.prev_gens = (s.outer.fleet_generation(), s.inner.fleet_view().0);
        match *a {
            SrvAction::Bind(k) => {
                t.budget.binds -= 1;
                let conn = 10 + k as ConnId;
                t.run(To::Outer(Event::Accepted { conn, port: CTRL }));
                let msg = Msg::BindReq {
                    host: "c".into(),
                    port: self.ports[k],
                    fallback: false,
                };
                t.run(To::Outer(Event::Frame { conn, msg }));
                t.bound[k] = t.outer.rendezvous_ports().contains(&(6000 + k as u16));
            }
            SrvAction::Unbind(k) => {
                t.bound[k] = false;
                t.run(To::Outer(Event::Closed {
                    conn: 10 + k as ConnId,
                }));
            }
            SrvAction::Peer(k) => {
                t.budget.peers -= 1;
                let conn = 100 + ConnId::from(t.peers_seen);
                t.peers_seen += 1;
                // Admitted unless the outer closes it in the same step.
                t.peers.insert(conn);
                let port = 6000 + k as u16;
                t.run(To::Outer(Event::Accepted { conn, port }));
            }
            SrvAction::PeerLeaves(conn) => {
                t.peers.remove(&conn);
                t.run(To::Outer(Event::Closed { conn }));
            }
            SrvAction::OuterDial(dial, ok) => {
                t.outer_dials.retain(|d| *d != dial);
                if ok {
                    let (o, i) = (200 + dial, 300 + dial);
                    t.links.push(Link {
                        o,
                        i,
                        to_inner: VecDeque::new(),
                        to_outer: VecDeque::new(),
                        o_open: true,
                        i_open: true,
                    });
                    t.run(To::Inner(Event::Accepted { conn: i, port: NX }));
                    t.run(To::Outer(Event::DialOk { dial, conn: o }));
                } else {
                    let detail = String::new();
                    t.run(To::Outer(Event::DialFailed { dial, detail }));
                }
            }
            SrvAction::InnerDial(dial, ok) => {
                t.inner_dials.retain(|d| *d != dial);
                let conn = 400 + dial;
                let detail = String::new();
                t.run(To::Inner(if ok {
                    Event::DialOk { dial, conn }
                } else {
                    Event::DialFailed { dial, detail }
                }));
            }
            SrvAction::ToInner(at) => {
                let conn = t.links[at].i;
                let ev = match t.links[at].to_inner.pop_front() {
                    Some(msg) => Event::Frame { conn, msg },
                    None => {
                        t.links[at].i_open = false;
                        Event::Closed { conn }
                    }
                };
                t.run(To::Inner(ev));
            }
            SrvAction::ToOuter(at) => {
                let conn = t.links[at].o;
                let ev = match t.links[at].to_outer.pop_front() {
                    Some(msg) => Event::Frame { conn, msg },
                    None => {
                        t.links[at].o_open = false;
                        Event::Closed { conn }
                    }
                };
                t.run(To::Outer(ev));
            }
            SrvAction::RestartInner => {
                t.budget.faults -= 1;
                t.inner = InnerCore::new(true, &Registry::new(), "proxy.inner");
                t.inner_dials.clear();
                t.prev_gens.1 = 0;
                for l in &mut t.links {
                    l.i_open = false;
                    l.to_inner.clear();
                    l.to_outer.clear();
                }
            }
            SrvAction::Install => {
                t.budget.faults -= 1;
                let gen = t.outer.fleet_generation() + 1;
                if !t.outer.install_fleet(gen, members()) {
                    t.flag(format!("strictly newer generation {gen} refused"));
                }
                if t.outer.install_fleet(gen, members()) {
                    t.flag(format!("generation {gen} installed twice"));
                }
            }
            SrvAction::Fire(timer) => {
                t.budget.timers -= 1;
                t.now += TICK.as_nanos() as u64;
                match timer {
                    Timer::HbTick => t.tick_due = false,
                    Timer::HbRetry => t.retry_due = false,
                }
                t.run(To::Outer(Event::Timer(timer)));
            }
        }
        t.links.retain(|l| l.o_open || l.i_open);
        t.key = t.render();
        t
    }

    fn invariant(&self, s: &SrvState) -> Result<(), String> {
        if let Some(why) = &s.bad {
            return Err(why.clone());
        }
        let held = s.outer.admission_active() as usize;
        if held != s.peers.len() {
            return Err(format!(
                "gate holds {held} slots for {} live admitted peers",
                s.peers.len()
            ));
        }
        let (table_gen, table) = s.outer.binds();
        if let Some((synced, _)) = s.outer.synced_generations() {
            if synced > table_gen {
                return Err(format!(
                    "shipped generation {synced} ahead of table {table_gen}"
                ));
            }
            if synced == table_gen && s.shipped.as_ref() != Some(&table) {
                return Err(format!(
                    "generation {synced} is current but {:?} was shipped for {table:?}",
                    s.shipped
                ));
            }
        }
        let gens = (s.outer.fleet_generation(), s.inner.fleet_view().0);
        if gens.0 < s.prev_gens.0 || gens.1 < s.prev_gens.1 {
            return Err(format!(
                "installed generation moved backwards: {:?} -> {gens:?}",
                s.prev_gens
            ));
        }
        Ok(())
    }
}

pub fn verify(deep: bool) -> Report {
    let m = if deep {
        ServersModel::deep()
    } else {
        ServersModel::smoke()
    };
    explore_bfs(&m, 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn servers_hold_their_invariants_exhaustively() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        assert!(r.states > 1_000, "state space suspiciously small: {r}");
    }

    /// The admission invariant is not vacuous: lose track of one
    /// admitted peer and the very next check reports the leak.
    #[test]
    fn a_leaked_slot_would_be_caught() {
        let m = ServersModel::smoke();
        let mut s = m.initial();
        for a in [SrvAction::Bind(0), SrvAction::Peer(0)] {
            s = m.apply(&s, &a);
        }
        assert_eq!(s.outer.admission_active(), 1);
        m.invariant(&s).unwrap();
        s.peers.clear();
        assert!(m.invariant(&s).unwrap_err().contains("gate holds 1"));
    }

    /// The model reaches what it claims to: a bridged peer, a redirect,
    /// a refusal by a restarted inner server, a re-announced map.
    #[test]
    fn the_interesting_corners_are_reachable() {
        let m = ServersModel::with(Budget {
            binds: 2,
            peers: 2,
            faults: 1,
            timers: 1,
        });
        let mut s = m.initial();
        let play = |s: &mut SrvState, a: SrvAction| {
            *s = m.apply(s, &a);
            m.invariant(s).unwrap();
        };
        // Session up; its three frames reach the inner server.
        play(&mut s, SrvAction::OuterDial(0, true));
        for _ in 0..3 {
            play(&mut s, SrvAction::ToInner(0));
        }
        assert_eq!(s.inner.fleet_view().0, 1);
        // Slot 1's key belongs to the other shard: redirected, unbound.
        play(&mut s, SrvAction::Bind(1));
        assert!(!s.bound[1]);
        // Slot 0 binds; the next tick ships it; a peer gets through.
        play(&mut s, SrvAction::Bind(0));
        play(&mut s, SrvAction::ToOuter(0));
        play(&mut s, SrvAction::Fire(Timer::HbTick));
        play(&mut s, SrvAction::ToInner(0));
        assert_eq!(s.inner.authorized_endpoints(), [ep("c", m.ports[0])]);
        play(&mut s, SrvAction::Peer(0));
        play(&mut s, SrvAction::OuterDial(1, true));
        play(&mut s, SrvAction::ToInner(1));
        play(&mut s, SrvAction::InnerDial(0, true));
        play(&mut s, SrvAction::ToOuter(1));
        assert_eq!(s.outer.admission_active(), 1);
        // Restart: the bridge dies with its link, the slot is freed.
        play(&mut s, SrvAction::RestartInner);
        play(&mut s, SrvAction::ToOuter(1));
        assert_eq!(s.outer.admission_active(), 0);
        // A second peer reaches the restarted inner server before any
        // BindSync does: refused.
        play(&mut s, SrvAction::Peer(0));
        play(&mut s, SrvAction::OuterDial(2, true));
        play(&mut s, SrvAction::ToInner(1));
        assert!(s.inner_dials.is_empty(), "relayed without authorization");
    }
}
