//! Decision-level tests, straight on the machines: no sockets, no
//! simulator, `now` is whatever the test says it is.

#![cfg(test)]

use super::*;
use crate::liveness::{AdmissionLimits, BreakerConfig, BreakerState, HeartbeatConfig};
use wacs_obs::Registry;

const CTRL: u16 = 5678;
const MS: u64 = 1_000_000;

type Ev = Event<String>;
type Act = Action<String>;

fn ep(host: &str, port: u16) -> (String, u16) {
    (host.to_string(), port)
}

fn params() -> OuterParams<String> {
    OuterParams {
        ctrl_port: CTRL,
        inner: Some(ep("inner", 911)),
        limits: AdmissionLimits::default(),
        heartbeat: None,
        breaker: BreakerConfig::default(),
        fleet: None,
    }
}

fn outer(p: OuterParams<String>) -> (OuterCore<String>, Registry) {
    let reg = Registry::new();
    (OuterCore::new(p, &reg, "proxy"), reg)
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot().counters.get(name).copied().unwrap_or(0)
}

fn spans(reg: &Registry, name: &str) -> u64 {
    reg.snapshot().histograms.get(name).map_or(0, |h| h.count)
}

fn connect_req(host: &str, port: u16) -> CtrlMsg<String> {
    CtrlMsg::ConnectReq {
        host: host.into(),
        port,
    }
}

fn bind_req(host: &str, port: u16, fallback: bool) -> CtrlMsg<String> {
    CtrlMsg::BindReq {
        host: host.into(),
        port,
        fallback,
    }
}

/// Accept `conn` on the control port and deliver `msg` as its request.
fn request(o: &mut OuterCore<String>, now: u64, conn: ConnId, msg: CtrlMsg<String>) -> Vec<Act> {
    let port = CTRL;
    assert_eq!(
        o.step(now, Ev::Accepted { conn, port }),
        [Act::Recv { conn }]
    );
    o.step(now, Ev::Frame { conn, msg })
}

/// Register `client` through control connection `conn`; its rendezvous
/// port is `rdv`.
fn bind(o: &mut OuterCore<String>, conn: ConnId, client: (&str, u16), rdv: u16) {
    let asked = request(o, 0, conn, bind_req(client.0, client.1, false));
    assert_eq!(asked, [Act::Listen { conn }]);
    let port = Some(rdv);
    let msg = CtrlMsg::BindRep { rdv_port: rdv };
    assert_eq!(
        o.step(0, Ev::Listened { conn, port }),
        [Act::Reply { conn, msg }]
    );
    assert_eq!(o.step(0, Ev::Replied { conn, ok: true }), []);
}

fn dial_of(actions: &[Act]) -> DialId {
    match actions {
        [Act::Dial { dial, .. }] => *dial,
        other => panic!("expected exactly one dial, got {other:?}"),
    }
}

#[test]
fn active_open_commits_only_once_the_reply_left() {
    let (mut o, reg) = outer(params());
    let dial = dial_of(&request(&mut o, 0, 1, connect_req("etl", 7000)));
    let ok = CtrlMsg::ConnectRep {
        ok: true,
        detail: String::new(),
    };
    assert_eq!(
        o.step(2 * MS, Ev::DialOk { dial, conn: 2 }),
        [Act::Reply { conn: 1, msg: ok }]
    );
    assert_eq!(counter(&reg, "proxy.connects_ok"), 0, "not committed yet");
    assert_eq!(
        o.step(3 * MS, Ev::Replied { conn: 1, ok: true }),
        [Act::Bridge { a: 1, b: 2 }]
    );
    assert_eq!(counter(&reg, "proxy.connects_ok"), 1);
    assert_eq!(spans(&reg, "proxy.connect_req_ns"), 1);
    assert_eq!(spans(&reg, "proxy.control_handshake_ns"), 1);
    assert_eq!((o.mode(1), o.mode(2)), (Some(Mode::Pipe), Some(Mode::Pipe)));
    assert_eq!(o.admission_active(), 1);
    // Either end closing tears the pair down and frees the slot, once.
    assert_eq!(
        o.step(4 * MS, Ev::Closed { conn: 2 }),
        [Act::Close { conn: 1 }]
    );
    assert_eq!(o.step(4 * MS, Ev::Closed { conn: 1 }), []);
    assert_eq!(o.admission_active(), 0);
}

/// Bugfix: a `ConnectRep{ok:true}` that could not be written after a
/// successful target dial used to record no span and no counter.
#[test]
fn connect_rep_write_failure_is_a_counted_failed_connect() {
    let (mut o, reg) = outer(params());
    let dial = dial_of(&request(&mut o, 0, 1, connect_req("etl", 7000)));
    o.step(MS, Ev::DialOk { dial, conn: 2 });
    assert_eq!(
        o.step(2 * MS, Ev::Replied { conn: 1, ok: false }),
        [Act::Close { conn: 2 }, Act::Close { conn: 1 }]
    );
    assert_eq!(counter(&reg, "proxy.connects_failed"), 1);
    assert_eq!(counter(&reg, "proxy.connects_ok"), 0);
    assert_eq!(spans(&reg, "proxy.connect_req_ns"), 1);
    assert_eq!(o.admission_active(), 0);
    assert_eq!(o.mode(1), None);
}

#[test]
fn active_open_refusal_and_busy_are_typed() {
    let mut p = params();
    p.limits = AdmissionLimits {
        max_total: 1,
        max_per_peer: 1,
    };
    let (mut o, reg) = outer(p);
    let dial = dial_of(&request(&mut o, 0, 1, connect_req("etl", 7000)));
    // A second request while the only slot is taken: typed refusal.
    assert_eq!(
        request(&mut o, 0, 2, connect_req("etl", 7001)),
        [
            Act::Send {
                conn: 2,
                msg: CtrlMsg::Busy
            },
            Act::Close { conn: 2 }
        ]
    );
    assert_eq!(counter(&reg, "proxy.busy_rejected"), 1);
    // The first one's target refuses: the reason rides the reply.
    let detail = "connection refused".to_string();
    let failed = Ev::DialFailed {
        dial,
        detail: detail.clone(),
    };
    let msg = CtrlMsg::ConnectRep { ok: false, detail };
    assert_eq!(
        o.step(MS, failed),
        [Act::Send { conn: 1, msg }, Act::Close { conn: 1 }]
    );
    assert_eq!(counter(&reg, "proxy.connects_failed"), 1);
    assert_eq!(o.admission_active(), 0);
    // Draining refuses everything that follows.
    o.begin_drain();
    assert_eq!(request(&mut o, 0, 3, connect_req("etl", 7000)).len(), 2);
    assert_eq!(counter(&reg, "proxy.busy_rejected"), 2);
}

/// D1: whatever refuses a bind — a superseded shard, a listener that
/// cannot be allocated, a `BindRep` that cannot be written — the
/// control connection is closed, never left waiting for a request.
#[test]
fn refused_bind_closes_the_control_connection() {
    let refusal = |conn| {
        [
            Act::Send {
                conn,
                msg: CtrlMsg::BindRep { rdv_port: 0 },
            },
            Act::Close { conn },
        ]
    };
    // Self not in the installed map.
    let mut p = params();
    p.fleet = Some((vec![ep("outer0", CTRL)], 1));
    let (mut o, _) = outer(p);
    assert_eq!(
        request(&mut o, 0, 1, bind_req("sun", 4000, false)),
        refusal(1)
    );
    assert_eq!(o.mode(1), None);
    // No listener.
    let (mut o, _) = outer(params());
    request(&mut o, 0, 1, bind_req("sun", 4000, false));
    let none = Ev::Listened {
        conn: 1,
        port: None,
    };
    assert_eq!(o.step(0, none), refusal(1));
    // Registered, but the reply never left: withdrawn again.
    request(&mut o, 0, 2, bind_req("sun", 4000, false));
    let port = Some(6001);
    o.step(0, Ev::Listened { conn: 2, port });
    assert_eq!(o.rendezvous_ports(), [6001]);
    assert_eq!(
        o.step(0, Ev::Replied { conn: 2, ok: false }),
        [Act::Unlisten { port: 6001 }, Act::Close { conn: 2 }]
    );
    assert_eq!(o.rendezvous_ports(), []);
}

/// Moved from `tests/liveness.rs::real_non_owner_redirects_and_
/// fallback_serves`: a non-owner names the owner, never itself; the
/// same request flagged `fallback` is served instead of bounced.
#[test]
fn non_owner_redirects_and_fallback_serves() {
    let members = vec![ep("outer0", CTRL), ep("outer1", CTRL)];
    let map = shard_map(1, &members);
    let port = (4000..4100u16)
        .find(|p| map.owner(&"sun".to_string().shard_key(*p)) == Some(1))
        .unwrap();
    let mut p = params();
    p.fleet = Some((members, 0));
    let (mut o, reg) = outer(p);
    let redirect = CtrlMsg::Redirect {
        host: "outer1".into(),
        port: CTRL,
    };
    assert_eq!(
        request(&mut o, 0, 1, bind_req("sun", port, false)),
        [
            Act::Send {
                conn: 1,
                msg: redirect
            },
            Act::Close { conn: 1 }
        ]
    );
    assert_eq!(counter(&reg, "wacs.shard.redirects_sent"), 1);
    assert_eq!(
        request(&mut o, 0, 2, bind_req("sun", port, true)),
        [Act::Listen { conn: 2 }]
    );
    // A key this shard owns is served outright, and counted.
    let own = (4000..4100u16)
        .find(|p| map.owner(&"sun".to_string().shard_key(*p)) == Some(0))
        .unwrap();
    assert_eq!(
        request(&mut o, 0, 3, bind_req("sun", own, false)),
        [Act::Listen { conn: 3 }]
    );
    assert_eq!(counter(&reg, "wacs.shard.binds_owned"), 1);
    // Installs are strictly monotone.
    assert!(!o.install_fleet(1, vec![]));
    assert!(o.install_fleet(2, vec![ep("outer1", CTRL)]));
    assert_eq!(o.fleet_generation(), 2);
}

#[test]
fn passive_open_bridges_on_relay_rep_and_withdraws_with_its_control() {
    let (mut o, reg) = outer(params());
    bind(&mut o, 1, ("sun", 4000), 6001);
    assert_eq!(counter(&reg, "proxy.binds"), 1);
    assert_eq!(spans(&reg, "proxy.bind_req_ns"), 1);
    let peer = Ev::Accepted {
        conn: 2,
        port: 6001,
    };
    let dial = dial_of(&o.step(MS, peer));
    assert_eq!(o.mode(2), Some(Mode::Pipe), "early peer data is buffered");
    let ask = CtrlMsg::RelayReq {
        host: "sun".into(),
        port: 4000,
    };
    assert_eq!(
        o.step(2 * MS, Ev::DialOk { dial, conn: 3 }),
        [Act::Send { conn: 3, msg: ask }, Act::Recv { conn: 3 }]
    );
    let msg = CtrlMsg::RelayRep { ok: true };
    assert_eq!(
        o.step(3 * MS, Ev::Frame { conn: 3, msg }),
        [Act::Bridge { a: 2, b: 3 }]
    );
    assert_eq!(counter(&reg, "proxy.relays_ok"), 1);
    // A second peer the inner server turns down.
    let peer = Ev::Accepted {
        conn: 4,
        port: 6001,
    };
    let dial = dial_of(&o.step(4 * MS, peer));
    o.step(5 * MS, Ev::DialOk { dial, conn: 5 });
    let msg = CtrlMsg::RelayRep { ok: false };
    assert_eq!(
        o.step(6 * MS, Ev::Frame { conn: 5, msg }),
        [Act::Close { conn: 4 }, Act::Close { conn: 5 }]
    );
    assert_eq!(counter(&reg, "proxy.relays_failed"), 1);
    assert_eq!(spans(&reg, "proxy.relay_bridge_ns"), 2);
    assert_eq!(o.admission_active(), 1);
    // The control connection ends: registration and listener go.
    assert_eq!(
        o.step(7 * MS, Ev::Closed { conn: 1 }),
        [Act::Unlisten { port: 6001 }]
    );
    let late = Ev::Accepted {
        conn: 6,
        port: 6001,
    };
    assert_eq!(o.step(8 * MS, late), [Act::Close { conn: 6 }]);
}

/// A peer that leaves while its inward leg is being set up is never
/// bridged, whichever step it leaves at, and its slot is freed once.
#[test]
fn peer_that_leaves_mid_setup_never_bridges() {
    let (mut o, _) = outer(params());
    bind(&mut o, 1, ("sun", 4000), 6001);
    let arrive =
        |o: &mut OuterCore<String>, conn| dial_of(&o.step(0, Ev::Accepted { conn, port: 6001 }));
    // Gone before the dial resolves.
    let dial = arrive(&mut o, 2);
    assert_eq!(o.step(0, Ev::Closed { conn: 2 }), []);
    assert_eq!(o.admission_active(), 0);
    assert_eq!(
        o.step(0, Ev::DialOk { dial, conn: 3 }),
        [Act::Close { conn: 3 }]
    );
    // Gone before the RelayRep arrives.
    let dial = arrive(&mut o, 4);
    o.step(0, Ev::DialOk { dial, conn: 5 });
    o.step(0, Ev::Closed { conn: 4 });
    let msg = CtrlMsg::RelayRep { ok: true };
    assert_eq!(
        o.step(0, Ev::Frame { conn: 5, msg }),
        [Act::Close { conn: 5 }]
    );
    assert_eq!(o.admission_active(), 0);
}

/// D2 (and the mirror formerly tested on `SharedBreaker`): every
/// inner-leg relay dial consults and feeds the WAN breaker, and its
/// transitions land in `<prefix>.breaker_*`.
#[test]
fn inner_leg_dials_consult_and_feed_the_breaker() {
    let mut p = params();
    p.breaker = BreakerConfig {
        threshold: 1,
        cooldown: Duration::from_millis(10),
    };
    let (mut o, reg) = outer(p);
    bind(&mut o, 1, ("sun", 4000), 6001);
    let peer = |conn| Ev::Accepted { conn, port: 6001 };
    let dial = dial_of(&o.step(0, peer(2)));
    let detail = String::new();
    assert_eq!(
        o.step(MS, Ev::DialFailed { dial, detail }),
        [Act::Close { conn: 2 }]
    );
    assert_eq!(o.breaker_state(), BreakerState::Open);
    assert_eq!(counter(&reg, "proxy.breaker_opens"), 1);
    assert_eq!(reg.snapshot().gauges.get("proxy.breaker_state"), Some(&1));
    // Open: the next peer fails fast, without a dial.
    assert_eq!(o.step(2 * MS, peer(3)), [Act::Close { conn: 3 }]);
    assert_eq!(counter(&reg, "proxy.relays_failed"), 2);
    assert_eq!(o.admission_active(), 0);
    // Cooldown over: one probe goes out, and its success closes.
    let dial = dial_of(&o.step(12 * MS, peer(4)));
    assert_eq!(o.breaker_state(), BreakerState::HalfOpen);
    o.step(13 * MS, Ev::DialOk { dial, conn: 5 });
    assert_eq!(o.breaker_state(), BreakerState::Closed);
    assert_eq!(counter(&reg, "proxy.breaker_closes"), 1);
    assert_eq!(reg.snapshot().gauges.get("proxy.breaker_state"), Some(&0));
}

/// D3: the session's life is decided by the `HeartbeatMonitor`, on the
/// tick; what it ships on (re)connect is ShardSync, BindSync, Ping, in
/// that order, and afterwards only what moved.
#[test]
fn heartbeat_session_syncs_in_order_and_dies_by_the_monitor() {
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(10),
        timeout: Duration::from_millis(30),
    };
    let members = vec![ep("outer0", CTRL)];
    let mut p = params();
    p.heartbeat = Some(hb);
    p.fleet = Some((members.clone(), 0));
    let (mut o, reg) = outer(p);
    let send = |msg| Act::Send { conn: 9, msg };
    let tick = |timer| Act::SetTimer {
        timer,
        after: hb.interval,
    };
    let dial = dial_of(&o.step(0, Ev::Start));
    let shard_sync = CtrlMsg::ShardSync {
        gen: 1,
        sender: 0,
        members,
    };
    assert_eq!(
        o.step(0, Ev::DialOk { dial, conn: 9 }),
        [
            send(shard_sync),
            send(CtrlMsg::BindSync { binds: vec![] }),
            send(CtrlMsg::Ping { seq: 1 }),
            tick(Timer::HbTick),
            Act::Recv { conn: 9 },
        ]
    );
    let pong = CtrlMsg::Pong { seq: 1 };
    assert_eq!(
        o.step(MS, Ev::Frame { conn: 9, msg: pong }),
        [Act::Recv { conn: 9 }]
    );
    // Nothing moved: a tick is just a ping.
    assert_eq!(
        o.step(10 * MS, Ev::Timer(Timer::HbTick)),
        [send(CtrlMsg::Ping { seq: 2 }), tick(Timer::HbTick)]
    );
    // A registration moved the bind table: the next tick ships it,
    // and never a generation ahead of what it ships.
    bind(&mut o, 1, ("sun", 4000), 6001);
    let binds = vec![ep("sun", 4000)];
    assert_eq!(
        o.step(20 * MS, Ev::Timer(Timer::HbTick)),
        [
            send(CtrlMsg::BindSync { binds }),
            send(CtrlMsg::Ping { seq: 3 }),
            tick(Timer::HbTick)
        ]
    );
    assert_eq!(counter(&reg, "proxy.bind_syncs"), 2);
    // Silence: alive at last_seen + timeout, dead on the tick after.
    assert_eq!(o.step(31 * MS, Ev::Timer(Timer::HbTick)).len(), 2);
    assert_eq!(
        o.step(41 * MS, Ev::Timer(Timer::HbTick)),
        [Act::Close { conn: 9 }, tick(Timer::HbRetry)]
    );
    assert_eq!(counter(&reg, "proxy.inner_deaths"), 1);
    assert_eq!(reg.snapshot().gauges.get("proxy.inner_alive"), Some(&0));
    // A stale tick changes nothing; the retry dials again, and the new
    // session re-ships everything.
    assert_eq!(o.step(42 * MS, Ev::Timer(Timer::HbTick)), []);
    let dial = dial_of(&o.step(51 * MS, Ev::Timer(Timer::HbRetry)));
    assert_eq!(o.step(52 * MS, Ev::DialOk { dial, conn: 10 }).len(), 5);
    assert_eq!(counter(&reg, "proxy.inner_reconnects"), 1);
    // Anything but a pong on the session is a death too.
    let msg = CtrlMsg::Busy;
    assert_eq!(
        o.step(53 * MS, Ev::Frame { conn: 10, msg }),
        [Act::Close { conn: 10 }, tick(Timer::HbRetry)]
    );
}

// ----- inner server ---------------------------------------------------

fn inner(require: bool) -> (InnerCore<String>, Registry) {
    let reg = Registry::new();
    (InnerCore::new(require, &reg, "proxy"), reg)
}

/// Accept `conn` on nxport and deliver `msg` as its first frame.
fn first(i: &mut InnerCore<String>, conn: ConnId, msg: CtrlMsg<String>) -> Vec<Act> {
    assert_eq!(
        i.step(0, Ev::Accepted { conn, port: 911 }),
        [Act::Recv { conn }]
    );
    i.step(0, Ev::Frame { conn, msg })
}

fn relay_req(host: &str, port: u16) -> CtrlMsg<String> {
    CtrlMsg::RelayReq {
        host: host.into(),
        port,
    }
}

#[test]
fn relay_commits_only_once_the_reply_left() {
    let (mut i, reg) = inner(false);
    let dial = dial_of(&first(&mut i, 1, relay_req("sun", 4000)));
    let msg = CtrlMsg::RelayRep { ok: true };
    assert_eq!(
        i.step(MS, Ev::DialOk { dial, conn: 2 }),
        [Act::Reply { conn: 1, msg }]
    );
    assert_eq!(
        i.step(2 * MS, Ev::Replied { conn: 1, ok: true }),
        [Act::Bridge { a: 1, b: 2 }]
    );
    assert_eq!(counter(&reg, "proxy.relays_ok"), 1);
    assert_eq!(i.mode(2), Some(Mode::Pipe));
    assert_eq!(
        i.step(3 * MS, Ev::Closed { conn: 1 }),
        [Act::Close { conn: 2 }]
    );
    // A client that cannot be reached.
    let dial = dial_of(&first(&mut i, 3, relay_req("sun", 4001)));
    let detail = String::new();
    let msg = CtrlMsg::RelayRep { ok: false };
    assert_eq!(
        i.step(4 * MS, Ev::DialFailed { dial, detail }),
        [Act::Send { conn: 3, msg }, Act::Close { conn: 3 }]
    );
    assert_eq!(counter(&reg, "proxy.relays_failed"), 1);
    assert_eq!(spans(&reg, "proxy.relay_bridge_ns"), 2);
}

/// Bugfix: a `RelayRep{ok:true}` that could not be written after a
/// successful client dial used to record no span and no counter.
#[test]
fn relay_rep_write_failure_is_a_counted_failed_relay() {
    let (mut i, reg) = inner(false);
    let dial = dial_of(&first(&mut i, 1, relay_req("sun", 4000)));
    i.step(MS, Ev::DialOk { dial, conn: 2 });
    assert_eq!(
        i.step(2 * MS, Ev::Replied { conn: 1, ok: false }),
        [Act::Close { conn: 2 }, Act::Close { conn: 1 }]
    );
    assert_eq!(counter(&reg, "proxy.relays_failed"), 1);
    assert_eq!(counter(&reg, "proxy.relays_ok"), 0);
    assert_eq!(spans(&reg, "proxy.relay_bridge_ns"), 1);
    assert_eq!(i.mode(1), None);
}

#[test]
fn first_frame_dispatch_and_ping_pong() {
    let (mut i, reg) = inner(false);
    let pong = |seq| Act::Send {
        conn: 1,
        msg: CtrlMsg::Pong { seq },
    };
    assert_eq!(
        first(&mut i, 1, CtrlMsg::Ping { seq: 7 }),
        [pong(7), Act::Recv { conn: 1 }]
    );
    let msg = CtrlMsg::Ping { seq: 8 };
    assert_eq!(
        i.step(0, Ev::Frame { conn: 1, msg }),
        [pong(8), Act::Recv { conn: 1 }]
    );
    assert_eq!(counter(&reg, "proxy.hb_pongs"), 2);
    // A relay request on a control session ends it.
    let msg = relay_req("sun", 1);
    assert_eq!(
        i.step(0, Ev::Frame { conn: 1, msg }),
        [Act::Close { conn: 1 }]
    );
    // A first frame that starts neither a relay nor a session.
    assert_eq!(first(&mut i, 2, CtrlMsg::Busy), [Act::Close { conn: 2 }]);
}

/// The sliced authorization table: each announcing shard replaces only
/// its own slice, maps install strictly newer only, and a removed
/// shard's authorizations go with its membership.
#[test]
fn authorization_is_sliced_per_shard_and_follows_the_map() {
    let (mut i, reg) = inner(true);
    let refused = |conn| {
        [
            Act::Send {
                conn,
                msg: CtrlMsg::RelayRep { ok: false },
            },
            Act::Close { conn },
        ]
    };
    // A restarted inner server relays nothing until told.
    assert_eq!(first(&mut i, 1, relay_req("sun", 4000)), refused(1));
    assert_eq!(counter(&reg, "proxy.relays_unauthorized"), 1);
    let members = vec![ep("outer0", CTRL), ep("outer1", CTRL)];
    let sync = |gen, sender, members: &[(String, u16)]| CtrlMsg::ShardSync {
        gen,
        sender,
        members: members.to_vec(),
    };
    let binds = |eps: &[(&str, u16)]| CtrlMsg::BindSync {
        binds: eps.iter().map(|(h, p)| ep(h, *p)).collect(),
    };
    let frame = |i: &mut InnerCore<String>, conn, msg| i.step(0, Ev::Frame { conn, msg });
    // Shard 0 and shard 1 each announce themselves, then their binds.
    first(&mut i, 10, sync(2, 0, &members));
    frame(&mut i, 10, binds(&[("sun", 4000)]));
    first(&mut i, 11, sync(2, 1, &members));
    frame(&mut i, 11, binds(&[("sun", 4001)]));
    // A session that never announced writes the solo slice.
    first(&mut i, 12, binds(&[("sun", 4002)]));
    assert_eq!(i.authorized_endpoints().len(), 3);
    assert_eq!(dial_of(&first(&mut i, 2, relay_req("sun", 4001))), 0);
    // Shard 0 re-syncs empty: only its own slice goes.
    frame(&mut i, 10, binds(&[]));
    assert_eq!(i.authorized_endpoints(), [ep("sun", 4001), ep("sun", 4002)]);
    // A stale map is not installed, but still names its sender.
    first(&mut i, 13, sync(1, 0, &members[..1]));
    assert_eq!(i.fleet_view(), (2, members.clone()));
    frame(&mut i, 13, binds(&[("sun", 4000)]));
    assert_eq!(i.authorized_endpoints().len(), 3);
    // A newer map without shard 1 drops shard 1's slice, not solo's.
    frame(&mut i, 10, sync(3, 0, &members[..1]));
    assert_eq!(i.fleet_view(), (3, members[..1].to_vec()));
    assert_eq!(i.authorized_endpoints(), [ep("sun", 4000), ep("sun", 4002)]);
    assert_eq!(first(&mut i, 3, relay_req("sun", 4001)), refused(3));
    assert_eq!(counter(&reg, "wacs.shard.map_syncs"), 2);
}

// ----- the client ------------------------------------------------------

fn client(hosts: &[&str]) -> (ClientCore<String>, Registry) {
    let reg = Registry::new();
    let members = hosts.iter().map(|h| ep(h, CTRL)).collect();
    let mut c = ClientCore::new(members, BreakerConfig::default());
    c.observe(&reg);
    (c, reg)
}

fn dial(to: &str, send: CtrlMsg<String>) -> Step<String> {
    Step::Dial {
        to: ep(to, CTRL),
        leg: DialLeg::ClientCtrl,
        send,
    }
}

fn refused(why: Refusal) -> Step<String> {
    Step::Done(Outcome::Refused(why))
}

/// A private port of host `sun` whose bind key ladder over `c`'s
/// members is `ladder` (member indexes, owner first).
fn port_with_ladder(c: &ClientCore<String>, ladder: &[usize]) -> u16 {
    let map = shard_map(1, c.members());
    (4000..5000u16)
        .find(|p| map.ladder(&"sun".to_string().shard_key(*p)) == ladder)
        .unwrap()
}

/// A single outer server is a fleet of one: the frames of the paper's
/// client, a rendezvous address dialed direct, and a breaker that never
/// refuses the only member there is (L1).
#[test]
fn a_fleet_of_one_behaves_as_the_single_outer_server() {
    let (mut c, _) = client(&["outer"]);
    let (mut op, step) = c.connect(0, ep("etl", 7000));
    assert_eq!(step, dial("outer", connect_req("etl", 7000)));
    let ok = CtrlMsg::ConnectRep {
        ok: true,
        detail: String::new(),
    };
    assert_eq!(c.replied(&mut op, ok), Step::Done(Outcome::Connected));
    let (mut op, step) = c.bind(0, ep("sun", 4000), None);
    assert_eq!(step, dial("outer", bind_req("sun", 4000, false)));
    let advertised = ep("outer", 40001);
    assert_eq!(
        c.replied(&mut op, CtrlMsg::BindRep { rdv_port: 40001 }),
        Step::Done(Outcome::Bound { advertised })
    );
    let to = ep("outer", 40001);
    assert_eq!(c.connect(0, to.clone()).1, Step::Direct { to });
    // Three dead dials open the breaker; the fourth call dials anyway,
    // and an exhausted ladder is typed (the dial's own error stands).
    for n in 0..4 {
        let (mut op, step) = c.connect(n, ep("etl", 7000));
        assert_eq!(step, dial("outer", connect_req("etl", 7000)), "call {n}");
        assert_eq!(c.dial_failed(&mut op, n), refused(Refusal::Exhausted));
    }
    assert_eq!(c.breaker_state(0), Some(BreakerState::Open));
}

/// L2: one operation dials each member at most once, descending the
/// ladder with `fallback: true`, so a dead owner costs one failed dial
/// — not `threshold` calls — before the live shard is reached.
#[test]
fn one_operation_walks_the_ladder_once_with_the_fallback_flag() {
    let (mut c, reg) = client(&["outer0", "outer1", "outer2"]);
    let port = port_with_ladder(&c, &[1, 2, 0]);
    let (mut op, step) = c.bind(0, ep("sun", port), None);
    assert_eq!(step, dial("outer1", bind_req("sun", port, false)));
    assert_eq!(
        c.dial_failed(&mut op, 1),
        dial("outer2", bind_req("sun", port, true))
    );
    assert_eq!(
        c.session_died(&mut op, 2),
        dial("outer0", bind_req("sun", port, true))
    );
    assert_eq!(c.dial_failed(&mut op, 3), refused(Refusal::Exhausted));
    assert_eq!(counter(&reg, "wacs.shard.failovers"), 3);
    // L3: connects feed the same breakers. Two more failures open the
    // owner's; the next bind starts one rung down, knowingly.
    let key_port = (7000..8000u16)
        .find(|p| shard_map(1, c.members()).owner(&"etl".to_string().shard_key(*p)) == Some(1))
        .unwrap();
    for n in 0..2 {
        let (mut op, step) = c.connect(10 + n, ep("etl", key_port));
        assert_eq!(step, dial("outer1", connect_req("etl", key_port)));
        let ok = CtrlMsg::ConnectRep {
            ok: true,
            detail: String::new(),
        };
        assert!(matches!(c.dial_failed(&mut op, 10 + n), Step::Dial { .. }));
        assert_eq!(c.replied(&mut op, ok), Step::Done(Outcome::Connected));
    }
    assert_eq!(c.breaker_state(1), Some(BreakerState::Open));
    let (_, step) = c.bind(20, ep("sun", port), None);
    assert_eq!(step, dial("outer2", bind_req("sun", port, true)));
}

/// L5: a `Redirect` is followed once, with `fallback: false`, to an
/// address that need not be in the local map; the shard that sent it is
/// alive, not failed; a second one ends the operation.
#[test]
fn a_redirect_is_followed_once_even_off_the_map() {
    let (mut c, reg) = client(&["outer0", "outer1"]);
    let port = port_with_ladder(&c, &[0, 1]);
    let redirect = |to: &str| CtrlMsg::Redirect {
        host: to.into(),
        port: CTRL,
    };
    let (mut op, _) = c.bind(0, ep("sun", port), None);
    assert_eq!(
        c.replied(&mut op, redirect("ghost")),
        dial("ghost", bind_req("sun", port, false))
    );
    assert_eq!(counter(&reg, "wacs.shard.redirects_followed"), 1);
    assert_eq!(counter(&reg, "wacs.shard.failovers"), 0);
    assert_eq!(c.breaker_state(0), Some(BreakerState::Closed));
    assert_eq!(
        c.replied(&mut op, redirect("outer1")),
        refused(Refusal::Unexpected)
    );
    // The named owner is dead: the rest of the ladder, once each.
    let (mut op, _) = c.bind(0, ep("sun", port), None);
    c.replied(&mut op, redirect("ghost"));
    assert_eq!(
        c.dial_failed(&mut op, 1),
        dial("outer1", bind_req("sun", port, true))
    );
    let advertised = ep("outer1", 40002);
    assert_eq!(
        c.replied(&mut op, CtrlMsg::BindRep { rdv_port: 40002 }),
        Step::Done(Outcome::Bound { advertised })
    );
}

/// L4: refusals are typed and final; what to do next is the caller's.
#[test]
fn refusals_end_the_operation_with_a_typed_reason() {
    let (mut c, reg) = client(&["outer0", "outer1"]);
    let detail = "no route".to_string();
    let unreachable = CtrlMsg::ConnectRep {
        ok: false,
        detail: detail.clone(),
    };
    for (reply, why) in [
        (CtrlMsg::Busy, Refusal::Busy),
        (unreachable, Refusal::Unreachable { detail }),
        (CtrlMsg::BindRep { rdv_port: 9 }, Refusal::Unexpected),
    ] {
        let (mut op, _) = c.connect(0, ep("etl", 7000));
        assert_eq!(c.replied(&mut op, reply), refused(why));
    }
    for (reply, why) in [
        (CtrlMsg::Busy, Refusal::Busy),
        (CtrlMsg::BindRep { rdv_port: 0 }, Refusal::NoRendezvous),
        (CtrlMsg::Pong { seq: 1 }, Refusal::Unexpected),
    ] {
        let (mut op, _) = c.bind(0, ep("sun", 4000), None);
        assert_eq!(c.replied(&mut op, reply), refused(why));
    }
    assert_eq!(counter(&reg, "wacs.shard.failovers"), 0);
}

/// A striped bind's lane starts at shard `lane % len` and fails over in
/// ring order; installs keep the address book and the map together.
#[test]
fn lane_binds_walk_the_ring_and_installs_are_monotone() {
    let (mut c, reg) = client(&["outer0", "outer1", "outer2"]);
    let port = port_with_ladder(&c, &[1, 2, 0]);
    let (mut op, step) = c.bind(0, ep("sun", port), Some(5));
    assert_eq!(step, dial("outer2", bind_req("sun", port, true)));
    assert_eq!(
        c.dial_failed(&mut op, 0),
        dial("outer0", bind_req("sun", port, true))
    );
    assert_eq!(
        c.dial_failed(&mut op, 0),
        dial("outer1", bind_req("sun", port, false))
    );
    assert!(!c.install(1, vec![]));
    assert!(c.install(2, vec![ep("outer2", CTRL)]));
    assert_eq!((c.generation(), c.members().len()), (2, 1));
    let snap = reg.snapshot();
    assert_eq!(snap.gauges.get("wacs.shard.map_generation"), Some(&2));
    let (_, step) = c.bind(0, ep("sun", port), Some(5));
    assert_eq!(step, dial("outer2", bind_req("sun", port, false)));
}
