//! Liveness and graceful-degradation tests: dead-peer detection,
//! inner-server reconnect with bind re-registration, circuit-breaker
//! transitions, admission control, and idle-relay reaping — on both
//! the virtual-time actors (deterministic, byte-identical snapshots)
//! and the real socket path.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::vnet::VNet;
use firewall::{Policy, NXPORT, OUTER_PORT};
use netsim::prelude::*;
use nexus_proxy::sim::{
    NxClient, NxEvent, NxHandled, RelayModel, SimInnerServer, SimOuterServer, SimProxyEnv,
};
use nexus_proxy::{
    bind_key, interposed_lane_dial, member_tag, nx_proxy_bind, nx_proxy_connect, send_striped,
    AdmissionLimits, BreakerConfig, BreakerState, DialLeg, FleetRouter, HeartbeatConfig,
    InnerConfig, InnerServer, Msg, OuterConfig, OuterServer, ProxyEnv, ShardMap, StripePlan,
    StripeReceiver, StripeStats,
};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;
use wacs_chaos::{ChaosInterposer, ChaosProfile, FaultClass, FaultRule};
use wacs_obs::Registry;
use wacs_sync::Mutex;

const CTRL_PORT: u16 = 5678;
const SIM_NXPORT: u16 = 911;

// ---------------------------------------------------------------------
// Virtual-time topology + minimal proxy-client actors.
// ---------------------------------------------------------------------

struct Net {
    topo: Topology,
    rwcp_sun: NodeId,
    inner_host: NodeId,
    outer_host: NodeId,
    etl_sun: NodeId,
}

fn build() -> Net {
    let mut topo = Topology::new();
    let rwcp = topo.add_site("rwcp", None);
    let dmz = topo.add_site("dmz", None);
    let etl = topo.add_site("etl", None);
    let rwcp_sun = topo.add_host("rwcp-sun", rwcp);
    let inner_host = topo.add_host("rwcp-inner", rwcp);
    let rwcp_sw = topo.add_switch("rwcp-sw", rwcp);
    let gw = topo.add_switch("rwcp-gw", dmz);
    let outer_host = topo.add_host("rwcp-outer", dmz);
    let etl_sw = topo.add_switch("etl-sw", etl);
    let etl_sun = topo.add_host("etl-sun", etl);
    let lan = 6.5e6;
    let us = SimDuration::from_micros;
    topo.add_link(rwcp_sun, rwcp_sw, us(100), lan);
    topo.add_link(inner_host, rwcp_sw, us(100), lan);
    topo.add_link(rwcp_sw, gw, us(200), lan);
    topo.add_link(outer_host, gw, us(100), lan);
    topo.add_link(gw, etl_sw, SimDuration::from_millis(3), 170e3);
    topo.add_link(etl_sw, etl_sun, us(100), lan);
    topo.sites[rwcp.0 as usize].policy = Some(Policy::typical_with_nxport(
        "rwcp",
        inner_host.0,
        SIM_NXPORT,
    ));
    Net {
        topo,
        rwcp_sun,
        inner_host,
        outer_host,
        etl_sun,
    }
}

type Shared = Arc<Mutex<SharedState>>;

#[derive(Default)]
struct SharedState {
    advertised: Option<(NodeId, u16)>,
    log: Vec<String>,
}

/// Echo server bound through the proxy.
struct EchoServer {
    nx: NxClient,
    shared: Shared,
}

impl EchoServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.shared.lock().advertised = Some(advertised);
                self.shared.lock().log.push("bound".into());
            }
            NxHandled::Event(NxEvent::Accepted { .. }) => {
                self.shared.lock().log.push("accepted".into());
            }
            NxHandled::Data(d) => {
                let _ = ctx.send_boxed(d.flow, d.size, d.payload);
            }
            _ => {}
        }
    }
}

impl Actor for EchoServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(adv) = self.nx.bind(ctx) {
            self.shared.lock().advertised = Some(adv);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// Connects to the advertised address at a configured virtual time
/// (after the inner server's crash-and-restart) and ping-pongs once.
struct LatePing {
    nx: NxClient,
    shared: Shared,
    start_at: SimDuration,
}

const POLL: u64 = 1;

impl LatePing {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                ctx.send(flow, 64, ()).unwrap();
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                self.shared.lock().log.push("refused".into());
            }
            NxHandled::Data(_) => {
                self.shared
                    .lock()
                    .log
                    .push(format!("pong_at_ms {}", ctx.now().nanos() / 1_000_000));
            }
            _ => {}
        }
    }
}

impl Actor for LatePing {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_at, POLL);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
            return;
        }
        if token == POLL {
            let adv = self.shared.lock().advertised;
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 7),
                None => ctx.set_timer(SimDuration::from_millis(10), POLL),
            }
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// One full kill-the-inner run in virtual time; returns the final
/// registry snapshot JSON and the shared event log.
fn sim_crash_recovery_run(seed: u64) -> (String, Vec<String>) {
    let net = build();
    let registry = Registry::new();
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), NetConfig::default(), seed);
    let model = RelayModel::default();
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(250),
        timeout: Duration::from_secs(1),
    };
    let br = BreakerConfig {
        threshold: 3,
        cooldown: Duration::from_millis(500),
    };
    sim.spawn(
        net.outer_host,
        Box::new(
            SimOuterServer::new(CTRL_PORT, Some((net.inner_host, SIM_NXPORT)), model)
                .with_liveness(hb, br)
                .with_admission(AdmissionLimits::default())
                .with_obs(&registry),
        ),
    );
    let inner_id = sim.spawn(
        net.inner_host,
        Box::new(
            SimInnerServer::new(SIM_NXPORT, model)
                .with_registration_required()
                .with_obs(&registry),
        ),
    );
    sim.spawn(
        net.rwcp_sun,
        Box::new(EchoServer {
            nx: NxClient::new(SimProxyEnv::via((net.outer_host, CTRL_PORT))),
            shared: shared.clone(),
        }),
    );
    sim.spawn(
        net.etl_sun,
        Box::new(LatePing {
            nx: NxClient::new(SimProxyEnv::direct()),
            shared: shared.clone(),
            start_at: SimDuration::from_secs(6),
        }),
    );
    // Kill the inner server at t=2s; bring a *fresh* one (empty
    // authorized table) back at t=4s.
    let restart_reg = registry.clone();
    sim.install_faults(FaultPlan::new(seed).crash_restart(
        inner_id,
        SimDuration::from_secs(2),
        SimDuration::from_secs(2),
        move || {
            Box::new(
                SimInnerServer::new(SIM_NXPORT, RelayModel::default())
                    .with_registration_required()
                    .with_obs(&restart_reg),
            )
        },
    ));
    sim.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    let log = shared.lock().log.clone();
    (registry.snapshot().to_json(), log)
}

/// The acceptance scenario: the outer server detects the dead inner
/// server within the heartbeat timeout, the restarted inner server
/// gets its bind table re-registered, and a subsequent relay
/// round-trip succeeds — with every liveness counter visible in the
/// shared registry snapshot.
#[test]
fn sim_outer_survives_inner_crash_and_reregisters_binds() {
    let (json, log) = sim_crash_recovery_run(11);
    // The bind survived and the post-restart connect round-tripped.
    assert!(log.contains(&"bound".to_string()), "{log:?}");
    assert!(
        log.iter().any(|l| l.starts_with("pong_at_ms")),
        "no post-restart round-trip: {log:?}"
    );
    assert!(!log.contains(&"refused".to_string()), "{log:?}");
    let snap: std::collections::BTreeMap<String, serde_free::Value> = parse_counters(&json);
    let counter = |name: &str| snap.get(name).map_or(0, |v| v.0);
    assert_eq!(counter("proxy.outer.inner_deaths"), 1, "{json}");
    assert_eq!(counter("proxy.outer.inner_reconnects"), 1, "{json}");
    // One sync on first connect, one on reconnect (at least).
    assert!(counter("proxy.outer.bind_syncs") >= 2, "{json}");
    assert!(counter("proxy.inner.bind_syncs") >= 2, "{json}");
    assert!(counter("proxy.outer.hb_pings") > 0, "{json}");
    assert!(counter("proxy.inner.hb_pongs") > 0, "{json}");
    // The fresh inner refused nothing: the re-sync beat the client.
    assert_eq!(counter("proxy.inner.relays_unauthorized"), 0, "{json}");
}

/// Same seed ⇒ byte-identical observability snapshots, crash and all.
#[test]
fn sim_crash_recovery_snapshots_are_deterministic() {
    let (a, log_a) = sim_crash_recovery_run(23);
    let (b, log_b) = sim_crash_recovery_run(23);
    assert_eq!(a, b);
    assert_eq!(log_a, log_b);
}

/// A long outage walks the breaker through its whole lifecycle:
/// closed → open (threshold dial failures) → half-open probes →
/// closed again once the inner server returns.
#[test]
fn sim_breaker_opens_and_closes_across_outage() {
    let net = build();
    let registry = Registry::new();
    let mut sim = Simulator::new(net.topo.clone(), NetConfig::default(), 5);
    let model = RelayModel::default();
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(250),
        timeout: Duration::from_secs(1),
    };
    let br = BreakerConfig {
        threshold: 3,
        cooldown: Duration::from_millis(500),
    };
    sim.spawn(
        net.outer_host,
        Box::new(
            SimOuterServer::new(CTRL_PORT, Some((net.inner_host, SIM_NXPORT)), model)
                .with_liveness(hb, br)
                .with_obs(&registry),
        ),
    );
    let inner_id = sim.spawn(
        net.inner_host,
        Box::new(SimInnerServer::new(SIM_NXPORT, model)),
    );
    sim.install_faults(FaultPlan::new(5).crash_restart(
        inner_id,
        SimDuration::from_secs(1),
        SimDuration::from_secs(4),
        || Box::new(SimInnerServer::new(SIM_NXPORT, RelayModel::default())),
    ));
    sim.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    let snap = registry.snapshot();
    assert!(
        snap.counters.get("proxy.outer.breaker_opens").copied() >= Some(1),
        "{}",
        snap.to_json()
    );
    assert!(
        snap.counters.get("proxy.outer.breaker_closes").copied() >= Some(1),
        "{}",
        snap.to_json()
    );
    // By the end the inner server is back: breaker closed, peer alive.
    assert_eq!(snap.gauges.get("proxy.outer.breaker_state"), Some(&0));
    assert_eq!(snap.gauges.get("proxy.outer.inner_alive"), Some(&1));
    assert_eq!(
        snap.counters.get("proxy.outer.inner_deaths"),
        Some(&1),
        "{}",
        snap.to_json()
    );
}

/// Tiny hand-rolled extraction of `"counters": {...}` u64 entries from
/// the snapshot JSON (no JSON dependency in the workspace).
mod serde_free {
    pub struct Value(pub u64);
}

fn parse_counters(json: &str) -> std::collections::BTreeMap<String, serde_free::Value> {
    let mut out = std::collections::BTreeMap::new();
    let Some(start) = json.find("\"counters\":{") else {
        return out;
    };
    let rest = &json[start + "\"counters\":{".len()..];
    let Some(end) = rest.find('}') else {
        return out;
    };
    for pair in rest[..end].split(',') {
        if let Some((k, v)) = pair.split_once(':') {
            let key = k.trim().trim_matches('"').to_string();
            if let Ok(n) = v.trim().parse::<u64>() {
                out.insert(key, serde_free::Value(n));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Real socket path.
// ---------------------------------------------------------------------

struct RealWorld {
    net: VNet,
}

fn real_world() -> RealWorld {
    let net = VNet::new();
    let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    let dmz = net.add_site("dmz", None);
    let etl = net.add_site("etl", None);
    net.add_host("rwcp-sun", rwcp);
    let inner_ref = net.add_host("rwcp-inner", rwcp);
    net.add_host("rwcp-outer", dmz);
    net.add_host("etl-sun", etl);
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
    RealWorld { net }
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = std::time::Instant::now() + deadline;
    while !cond() {
        assert!(std::time::Instant::now() < end, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The acceptance scenario on real sockets: kill the inner server, the
/// outer server's heartbeat detects the death within the timeout; a
/// restarted inner server (which refuses unregistered relays) gets the
/// live bind re-registered and a relay round-trip then succeeds.
#[test]
fn real_outer_detects_dead_inner_and_reregisters_binds() {
    let w = real_world();
    let inner = InnerServer::start(
        w.net.clone(),
        InnerConfig::new("rwcp-inner").with_registration_required(),
    )
    .unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer")
            .with_inner("rwcp-inner", NXPORT)
            .with_heartbeat(HeartbeatConfig {
                interval: Duration::from_millis(20),
                timeout: Duration::from_millis(120),
            })
            .with_breaker(BreakerConfig {
                threshold: 2,
                cooldown: Duration::from_millis(40),
            }),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);

    // Bind through the proxy; the heartbeat session syncs the bind to
    // the inner server's authorized table.
    let listener = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
    let adv = listener.advertised.clone();
    wait_until("initial bind sync", Duration::from_secs(5), || {
        !inner.authorized_endpoints().is_empty()
    });

    // Kill the inner server; the outer notices within the hb timeout.
    drop(inner);
    wait_until("dead-peer detection", Duration::from_secs(5), || {
        outer.stats().inner_deaths >= 1
    });

    // Restart it: fresh process, empty authorized table. The outer's
    // reconnect must push the live bind back before relays can flow.
    let inner2 = InnerServer::start(
        w.net.clone(),
        InnerConfig::new("rwcp-inner").with_registration_required(),
    )
    .unwrap();
    wait_until(
        "reconnect + re-registration",
        Duration::from_secs(5),
        || outer.stats().inner_reconnects >= 1 && !inner2.authorized_endpoints().is_empty(),
    );

    // A post-recovery relay round-trip succeeds end to end.
    let srv = std::thread::spawn(move || {
        let mut s = listener.accept().unwrap();
        let mut b = [0u8; 5];
        s.read_exact(&mut b).unwrap();
        s.write_all(&b).unwrap();
        b
    });
    let mut peer = w.net.dial("etl-sun", &adv.0, adv.1).unwrap();
    peer.write_all(b"hello").unwrap();
    let mut echo = [0u8; 5];
    peer.read_exact(&mut echo).unwrap();
    assert_eq!(&echo, b"hello");
    assert_eq!(&srv.join().unwrap(), b"hello");

    // Every liveness counter is visible in one obs snapshot.
    let json = outer.obs_snapshot().to_json();
    for key in [
        "proxy.inner_deaths",
        "proxy.inner_reconnects",
        "proxy.bind_syncs",
        "proxy.hb_pings",
        "proxy.breaker_opens",
    ] {
        assert!(json.contains(key), "{key} missing from {json}");
    }
    let snap = outer.stats();
    assert!(snap.inner_deaths >= 1 && snap.inner_reconnects >= 1);
}

/// Admission control: with a single relay slot the second concurrent
/// connect is refused with a typed `Busy` (surfaced as `WouldBlock`),
/// and the slot frees once the first relay tears down.
#[test]
fn real_admission_limit_returns_busy_and_releases() {
    let w = real_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer")
            .with_inner("rwcp-inner", NXPORT)
            .with_limits(AdmissionLimits {
                max_total: 1,
                max_per_peer: 1,
            }),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
    let l = w.net.bind("etl-sun", 7100).unwrap();
    let held = Arc::new(Mutex::new(Vec::new()));
    let held2 = held.clone();
    let _acceptor = std::thread::spawn(move || {
        while let Ok((s, _)) = l.accept() {
            held2.lock().push(s);
        }
    });

    let first = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7100)).unwrap();
    let err = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7100)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    assert!(outer.stats().busy_rejected >= 1);

    // Tear the first relay down; its admission slot must come back.
    drop(first);
    held.lock().clear();
    wait_until("slot release", Duration::from_secs(5), || {
        nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7100)).is_ok()
    });
}

/// Hygiene: a relay with no traffic in `idle_timeout` is reaped and
/// the connection table drains back to zero — but not before the
/// timeout. Regression: with `RelayActivity::new` starting the clock at
/// 0 instead of "now", a relay that had not yet moved a byte looked
/// idle-since-epoch and was reaped at birth.
#[test]
fn real_idle_relays_are_reaped() {
    let w = real_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer")
            .with_inner("rwcp-inner", NXPORT)
            .with_idle_timeout(Duration::from_millis(400)),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
    let l = w.net.bind("etl-sun", 7200).unwrap();
    let _acceptor = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = l.accept() {
            held.push(s);
        }
    });
    let _idle = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7200)).unwrap();
    wait_until("idle relay present", Duration::from_secs(5), || {
        outer.active_relays() == 1
    });
    // Well inside the idle window the silent relay is still alive: the
    // reaper ticks every 25 ms, so by 200 ms it has swept the fresh
    // entry several times.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        (outer.stats().idle_reaped, outer.active_relays()),
        (0, 1),
        "fresh relay reaped before its idle timeout"
    );
    // Send nothing: the reaper must cut the pair loose.
    wait_until("idle reap", Duration::from_secs(5), || {
        outer.stats().idle_reaped >= 1 && outer.active_relays() == 0
    });
}

/// The idle-reaper reads the pump's shared activity clock: traffic
/// defers reaping, silence triggers it.
#[test]
fn real_relays_are_reaped_only_when_idle() {
    let w = real_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer")
            .with_inner("rwcp-inner", NXPORT)
            .with_idle_timeout(Duration::from_millis(150)),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
    let l = w.net.bind("etl-sun", 7600).unwrap();
    let srv = std::thread::spawn(move || {
        let (mut s, _) = l.accept().unwrap();
        let mut b = [0u8; 1];
        while s.read_exact(&mut b).is_ok() {
            if s.write_all(&b).is_err() {
                break;
            }
        }
    });
    let mut s = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7600)).unwrap();
    // Keep the relay busy well past the idle timeout: activity renews.
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"x").unwrap();
        let mut b = [0u8; 1];
        s.read_exact(&mut b).unwrap();
    }
    assert_eq!(outer.stats().idle_reaped, 0, "active relay was reaped");
    assert_eq!(outer.active_relays(), 1);
    // Now go silent (but keep the sockets open): the reaper cuts it.
    wait_until("idle reap", Duration::from_secs(5), || {
        outer.stats().idle_reaped >= 1 && outer.active_relays() == 0
    });
    drop(s);
    srv.join().unwrap();
}

/// A 150 000 B payload through a real outer server is byte-identical,
/// and the reply arrives after the client half-closes:
/// EOF propagation must not tear down the reply direction.
#[test]
fn real_relay_is_byte_identical_with_half_close() {
    let w = real_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
    let l = w.net.bind("etl-sun", 7400).unwrap();
    let payload = seeded_payload(0x4a1f, 150_000);
    let want = payload.clone();
    let srv = std::thread::spawn(move || {
        let (mut s, _) = l.accept().unwrap();
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        assert_eq!(got, want);
        s.write_all(&got).unwrap();
    });
    let mut s = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7400)).unwrap();
    s.write_all(&payload).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut echoed = Vec::new();
    s.read_to_end(&mut echoed).unwrap();
    assert_eq!(echoed, payload);
    srv.join().unwrap();
    drop(s);
    wait_until("relay table drain", Duration::from_secs(5), || {
        outer.active_relays() == 0
    });
}

/// Graceful drain: shutdown with in-flight relays finishes the pumps
/// and reports an empty table.
#[test]
fn real_drain_finishes_in_flight_relays() {
    let w = real_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
    let l = w.net.bind("etl-sun", 7300).unwrap();
    let srv = std::thread::spawn(move || {
        let (mut s, _) = l.accept().unwrap();
        let mut b = [0u8; 3];
        s.read_exact(&mut b).unwrap();
        b
    });
    let mut s = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7300)).unwrap();
    s.write_all(b"end").unwrap();
    assert_eq!(&srv.join().unwrap(), b"end");
    drop(s);
    assert!(outer.drain(Duration::from_secs(5)), "drain timed out");
    assert_eq!(outer.active_relays(), 0);
}

// ---------------------------------------------------------------------
// Sharded outer fleet: kill-one-shard chaos (DESIGN.md §6d).
// ---------------------------------------------------------------------

struct FleetNet {
    topo: Topology,
    rwcp_sun: NodeId,
    inner_host: NodeId,
    outer0: NodeId,
    outer1: NodeId,
    etl_sun: NodeId,
}

/// The liveness topology with a second outer-server host in the DMZ.
fn build_fleet() -> FleetNet {
    let mut topo = Topology::new();
    let rwcp = topo.add_site("rwcp", None);
    let dmz = topo.add_site("dmz", None);
    let etl = topo.add_site("etl", None);
    let rwcp_sun = topo.add_host("rwcp-sun", rwcp);
    let inner_host = topo.add_host("rwcp-inner", rwcp);
    let rwcp_sw = topo.add_switch("rwcp-sw", rwcp);
    let gw = topo.add_switch("rwcp-gw", dmz);
    let outer0 = topo.add_host("rwcp-outer0", dmz);
    let outer1 = topo.add_host("rwcp-outer1", dmz);
    let etl_sw = topo.add_switch("etl-sw", etl);
    let etl_sun = topo.add_host("etl-sun", etl);
    let lan = 6.5e6;
    let us = SimDuration::from_micros;
    topo.add_link(rwcp_sun, rwcp_sw, us(100), lan);
    topo.add_link(inner_host, rwcp_sw, us(100), lan);
    topo.add_link(rwcp_sw, gw, us(200), lan);
    topo.add_link(outer0, gw, us(100), lan);
    topo.add_link(outer1, gw, us(100), lan);
    topo.add_link(gw, etl_sw, SimDuration::from_millis(3), 170e3);
    topo.add_link(etl_sw, etl_sun, us(100), lan);
    topo.sites[rwcp.0 as usize].policy = Some(Policy::typical_with_nxport(
        "rwcp",
        inner_host.0,
        SIM_NXPORT,
    ));
    FleetNet {
        topo,
        rwcp_sun,
        inner_host,
        outer0,
        outer1,
        etl_sun,
    }
}

type FleetSharedRef = Arc<Mutex<FleetShared>>;

#[derive(Default)]
struct FleetShared {
    advertised: Option<(NodeId, u16)>,
    /// The gridmpi-style sequence numbers the server accepted, in
    /// order, deduplicated by the expected-next rule.
    accepted: Vec<u64>,
    done: bool,
    log: Vec<String>,
    /// The client's breaker for its map's member 0, when it bound.
    breaker0_at_bound: Option<BreakerState>,
}

/// Server bound through the fleet: accepts relayed connections and
/// echoes each sequence number (idempotently accepting it).
struct FleetSeqServer {
    nx: NxClient,
    shared: FleetSharedRef,
}

impl FleetSeqServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                let mut sh = self.shared.lock();
                sh.advertised = Some(advertised);
                sh.breaker0_at_bound = self.nx.breaker_state(0);
                sh.log.push("bound".into());
            }
            NxHandled::Event(NxEvent::BindLost) => {
                // The serving shard died: the old rendezvous address
                // is gone; a re-bind is already underway.
                let mut sh = self.shared.lock();
                sh.advertised = None;
                sh.log.push("bind_lost".into());
            }
            NxHandled::Event(NxEvent::Accepted { .. }) => {
                self.shared.lock().log.push("accepted".into());
            }
            NxHandled::Data(d) => {
                let flow = d.flow;
                let seq = d.expect::<u64>();
                {
                    // Exactly-once accept: only the expected-next
                    // sequence advances; retransmits are echoed but
                    // not re-accepted.
                    let mut sh = self.shared.lock();
                    if seq == sh.accepted.len() as u64 {
                        sh.accepted.push(seq);
                    }
                }
                let _ = ctx.send(flow, 64, seq);
            }
            _ => {}
        }
    }
}

impl Actor for FleetSeqServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(adv) = self.nx.bind(ctx) {
            self.shared.lock().advertised = Some(adv);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

const FLEET_POLL: u64 = 2;

/// Sends `total` sequence numbers, one at a time, each acknowledged by
/// the server's echo before the next goes out. A dead connection (the
/// shard crash tears the relay down) re-dials the *current* advertised
/// address and retransmits the unacknowledged sequence number.
struct FleetSeqSender {
    nx: NxClient,
    shared: FleetSharedRef,
    start_at: SimDuration,
    total: u64,
    next: u64,
    flow: Option<FlowId>,
}

impl FleetSeqSender {
    fn poll_soon(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(20), FLEET_POLL);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.flow = Some(flow);
                ctx.send(flow, 64, self.next).unwrap();
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                // Stale rendezvous address (the bind moved shards
                // under us): wait for the fresh Bound and re-dial.
                self.poll_soon(ctx);
            }
            NxHandled::Data(d) => {
                let seq = d.expect::<u64>();
                if seq == self.next {
                    self.next += 1;
                    if self.next == self.total {
                        self.shared.lock().done = true;
                    } else if let Some(f) = self.flow {
                        let _ = ctx.send(f, 64, self.next);
                    }
                }
            }
            NxHandled::Flow(FlowEvent::Closed { flow, .. }) if Some(flow) == self.flow => {
                self.flow = None;
                if self.next < self.total {
                    self.poll_soon(ctx);
                }
            }
            _ => {}
        }
    }
}

impl Actor for FleetSeqSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_at, FLEET_POLL);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
            return;
        }
        if token == FLEET_POLL && self.flow.is_none() && self.next < self.total {
            let adv = self.shared.lock().advertised;
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 9),
                None => self.poll_soon(ctx),
            }
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

const FLEET_TOTAL: u64 = 40;

/// One kill-one-shard chaos run: a 2-shard fleet relays a stop-and-wait
/// sequence stream; at t=1.5s the shard *currently serving the bind*
/// is crashed (no restart). Returns the registry snapshot JSON, the
/// accepted sequence numbers, and the event log.
fn sim_fleet_kill_one_shard_run(seed: u64) -> (String, Vec<u64>, Vec<String>) {
    let net = build_fleet();
    let registry = Registry::new();
    let shared: FleetSharedRef = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), NetConfig::default(), seed);
    let model = RelayModel::default();
    let hb = HeartbeatConfig {
        interval: Duration::from_millis(250),
        timeout: Duration::from_secs(1),
    };
    let br = BreakerConfig {
        threshold: 3,
        cooldown: Duration::from_millis(500),
    };
    let members = vec![(net.outer0, CTRL_PORT), (net.outer1, CTRL_PORT)];
    let outer_ids = [
        sim.spawn(
            net.outer0,
            Box::new(
                SimOuterServer::new(CTRL_PORT, Some((net.inner_host, SIM_NXPORT)), model)
                    .with_fleet(members.clone(), 0)
                    .with_liveness(hb, br)
                    .with_obs(&registry),
            ),
        ),
        sim.spawn(
            net.outer1,
            Box::new(
                SimOuterServer::new(CTRL_PORT, Some((net.inner_host, SIM_NXPORT)), model)
                    .with_fleet(members.clone(), 1)
                    .with_liveness(hb, br)
                    .with_obs(&registry),
            ),
        ),
    ];
    sim.spawn(
        net.inner_host,
        Box::new(
            SimInnerServer::new(SIM_NXPORT, model)
                .with_registration_required()
                .with_obs(&registry),
        ),
    );
    sim.spawn(
        net.rwcp_sun,
        Box::new(FleetSeqServer {
            nx: NxClient::new(SimProxyEnv::direct())
                .with_fleet(members.clone())
                .with_obs(&registry),
            shared: shared.clone(),
        }),
    );
    sim.spawn(
        net.etl_sun,
        Box::new(FleetSeqSender {
            nx: NxClient::new(SimProxyEnv::direct()),
            shared: shared.clone(),
            start_at: SimDuration::from_millis(500),
            total: FLEET_TOTAL,
            next: 0,
            flow: None,
        }),
    );
    // Let the stream get going, then kill whichever shard owns the
    // bind (deterministic per seed, discovered mid-run).
    sim.run_until(SimTime(SimDuration::from_millis(1500).nanos()));
    let serving = shared
        .lock()
        .advertised
        .expect("bind did not complete before the chaos point")
        .0;
    let victim = if serving == net.outer0 {
        outer_ids[0]
    } else {
        outer_ids[1]
    };
    sim.install_faults(FaultPlan::new(seed).crash(victim, SimDuration::from_millis(1)));
    sim.run_until(SimTime(SimDuration::from_secs(60).nanos()));
    let sh = shared.lock();
    (
        registry.snapshot().to_json(),
        sh.accepted.clone(),
        sh.log.clone(),
    )
}

/// The tentpole acceptance scenario: killing the serving shard
/// mid-relay loses the rendezvous address, the client's breaker-driven
/// failover re-binds on the survivor (a knowing-fallback request the
/// survivor serves instead of redirecting), and the sequence stream
/// finishes with every number delivered exactly once, in order.
#[test]
fn sim_fleet_survives_killing_the_serving_shard() {
    let (json, accepted, log) = sim_fleet_kill_one_shard_run(17);
    assert_eq!(
        accepted,
        (0..FLEET_TOTAL).collect::<Vec<u64>>(),
        "lost or duplicated sequence numbers; log {log:?}"
    );
    // The bind moved shards: lost once, bound at least twice.
    assert!(log.contains(&"bind_lost".to_string()), "{log:?}");
    assert!(log.iter().filter(|l| *l == "bound").count() >= 2, "{log:?}");
    let snap = parse_counters(&json);
    let counter = |name: &str| snap.get(name).map_or(0, |v| v.0);
    // Breaker-driven failover: the dead owner's dials were charged
    // before the ladder descended to the survivor.
    assert!(counter("wacs.shard.failovers") >= 1, "{json}");
    assert!(counter("proxy.client.rebinds") >= 1, "{json}");
    // Both shards announced the map; the inner server installed it.
    assert!(counter("wacs.shard.map_syncs") >= 2, "{json}");
}

/// Same seed ⇒ byte-identical snapshots and accepted streams, shard
/// kill and all.
#[test]
fn sim_fleet_kill_one_shard_is_deterministic() {
    let (a, acc_a, log_a) = sim_fleet_kill_one_shard_run(31);
    let (b, acc_b, log_b) = sim_fleet_kill_one_shard_run(31);
    assert_eq!(a, b);
    assert_eq!(acc_a, acc_b);
    assert_eq!(log_a, log_b);
}

/// L5: the sim reads what the servers send. A client whose (stale) map
/// names a single shard binds through it; if that shard does not own
/// the key it answers `Redirect` and hangs up, and the client follows
/// to an owner its own map never listed — one redirect followed, no
/// failover, and the shard that redirected is not charged a failure.
#[test]
fn sim_stale_map_bind_follows_the_redirect() {
    // Returns (serving shard, redirects sent, followed, failovers,
    // breaker of the one shard the client knew).
    let run = |known: usize| {
        let net = build_fleet();
        let registry = Registry::new();
        let shared: FleetSharedRef = Arc::default();
        let mut sim = Simulator::new(net.topo.clone(), NetConfig::default(), 5);
        let model = RelayModel::default();
        let members = vec![(net.outer0, CTRL_PORT), (net.outer1, CTRL_PORT)];
        for (idx, host) in [net.outer0, net.outer1].into_iter().enumerate() {
            sim.spawn(
                host,
                Box::new(
                    SimOuterServer::new(CTRL_PORT, Some((net.inner_host, SIM_NXPORT)), model)
                        .with_fleet(members.clone(), idx)
                        .with_obs(&registry),
                ),
            );
        }
        sim.spawn(
            net.inner_host,
            Box::new(SimInnerServer::new(SIM_NXPORT, model)),
        );
        sim.spawn(
            net.rwcp_sun,
            Box::new(FleetSeqServer {
                nx: NxClient::new(SimProxyEnv::direct())
                    .with_fleet(vec![members[known]])
                    .with_obs(&registry),
                shared: shared.clone(),
            }),
        );
        sim.run_until(SimTime(SimDuration::from_secs(2).nanos()));
        let sh = shared.lock();
        let serving = sh.advertised.expect("the bind never completed").0;
        let snap = registry.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        (
            serving,
            counter("wacs.shard.redirects_sent"),
            counter("wacs.shard.redirects_followed"),
            counter("wacs.shard.failovers"),
            sh.breaker0_at_bound,
        )
    };
    let (via0, via1) = (run(0), run(1));
    // Same key, same owner, whichever shard was asked first.
    assert_eq!(via0.0, via1.0);
    let owner = usize::from(via0.0 != build_fleet().outer0);
    let (asked_owner, asked_other) = if owner == 0 {
        (via0, via1)
    } else {
        (via1, via0)
    };
    assert_eq!((asked_owner.1, asked_owner.2, asked_owner.3), (0, 0, 0));
    assert_eq!((asked_other.1, asked_other.2, asked_other.3), (1, 1, 0));
    assert_eq!(asked_other.4, Some(BreakerState::Closed));
}

// ---------------------------------------------------------------------
// Sharded outer fleet on real sockets.
// ---------------------------------------------------------------------

const FLEET_HOSTS: [&str; 2] = ["rwcp-outer-a", "rwcp-outer-b"];

fn real_fleet_world() -> RealWorld {
    let net = VNet::new();
    let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    let dmz = net.add_site("dmz", None);
    let etl = net.add_site("etl", None);
    net.add_host("rwcp-sun", rwcp);
    let inner_ref = net.add_host("rwcp-inner", rwcp);
    for h in FLEET_HOSTS {
        net.add_host(h, dmz);
    }
    net.add_host("etl-sun", etl);
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
    RealWorld { net }
}

fn fleet_members() -> Vec<(String, u16)> {
    FLEET_HOSTS
        .iter()
        .map(|h| ((*h).to_string(), OUTER_PORT))
        .collect()
}

/// The fleet map every party computes from the member list — used here
/// to pick a known owner / non-owner pair for the raw-protocol leg.
fn fleet_map() -> ShardMap {
    let tags = fleet_members()
        .iter()
        .map(|(h, p)| member_tag(&bind_key(h, *p)))
        .collect();
    ShardMap::new(1, tags)
}

fn start_fleet(w: &RealWorld) -> Vec<Option<OuterServer>> {
    let members = fleet_members();
    (0..members.len())
        .map(|idx| {
            Some(
                OuterServer::start(
                    w.net.clone(),
                    OuterConfig::new(FLEET_HOSTS[idx])
                        .with_inner("rwcp-inner", NXPORT)
                        .with_fleet(members.clone(), idx)
                        .with_heartbeat(HeartbeatConfig {
                            interval: Duration::from_millis(20),
                            timeout: Duration::from_millis(120),
                        })
                        .with_breaker(BreakerConfig {
                            threshold: 2,
                            cooldown: Duration::from_millis(40),
                        }),
                )
                .unwrap(),
            )
        })
        .collect()
}

/// Breaker-driven failover on real sockets: kill the shard serving a
/// bind; subsequent binds through the fleet env succeed on the
/// survivor, the router's failover counter moves, and a relay
/// round-trip works end to end through a fallback-served bind.
#[test]
fn real_fleet_fails_over_when_a_shard_dies() {
    let w = real_fleet_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let mut fleet = start_fleet(&w);
    let router = FleetRouter::new(
        fleet_members(),
        BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(50),
        },
    );
    let env = ProxyEnv::via_fleet(router.clone());

    // First bind lands on whichever shard owns the ephemeral key; the
    // advertised rendezvous host names the serving shard.
    let first = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
    let serving = first.advertised.0.clone();
    let victim = FLEET_HOSTS.iter().position(|h| *h == serving).unwrap();
    let survivor = FLEET_HOSTS[1 - victim];
    drop(first);
    fleet[victim].take();

    // Every bind must keep succeeding; keys owned by the dead shard
    // descend the ladder (charging its breaker) and are fallback-served
    // by the survivor. Loop until the failover counter proves the
    // descent happened at least once.
    let mut last = None;
    for _ in 0..12 {
        let l = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
        assert_eq!(l.advertised.0, survivor, "bind served by a dead shard");
        last = Some(l);
        let json = router.obs_snapshot().to_json();
        if parse_counters(&json)
            .get("wacs.shard.failovers")
            .is_some_and(|v| v.0 >= 1)
        {
            break;
        }
    }
    let json = router.obs_snapshot().to_json();
    let snap = parse_counters(&json);
    assert!(
        snap.get("wacs.shard.failovers").is_some_and(|v| v.0 >= 1),
        "no failover recorded: {json}"
    );

    // The surviving bind still relays traffic end to end.
    let listener = last.unwrap();
    let adv = listener.advertised.clone();
    let srv = std::thread::spawn(move || {
        let mut s = listener.accept().unwrap();
        let mut b = [0u8; 4];
        s.read_exact(&mut b).unwrap();
        s.write_all(&b).unwrap();
        b
    });
    let mut peer = w.net.dial("etl-sun", &adv.0, adv.1).unwrap();
    peer.write_all(b"mpi0").unwrap();
    let mut echo = [0u8; 4];
    peer.read_exact(&mut echo).unwrap();
    assert_eq!(&echo, b"mpi0");
    assert_eq!(&srv.join().unwrap(), b"mpi0");
}

// ---------------------------------------------------------------------
// Deterministic chaos faults on the real socket path (wacs-chaos).
// ---------------------------------------------------------------------

fn seeded_payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// A mid-`StripeFrame` RST on one lane must be absorbed as a lane
/// failover — the sender re-dials the stripe and re-sends it from the
/// start, the receiver's offset dedup absorbs whatever landed twice —
/// and must never surface as a `Conflict`, which is reserved for
/// corrupted duplicates (same offset, different bytes).
#[test]
fn real_stripe_lane_rst_fails_over_without_conflict() {
    let w = real_world();
    let _outer = OuterServer::start(w.net.clone(), OuterConfig::new("rwcp-outer")).unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);

    // Stripe sink: every accepted flow feeds the shared reassembler.
    // The RST'd lane ends in a mid-frame read error; swallowing it
    // here mirrors production sinks — the replay makes it whole.
    let receiver = StripeReceiver::new();
    let registry = Registry::new();
    let stats = StripeStats::in_registry(&registry);
    let sink = w.net.bind("etl-sun", 7411).unwrap();
    {
        let receiver = receiver.clone();
        let stats = stats.clone();
        std::thread::spawn(move || {
            while let Ok((s, _)) = sink.accept() {
                let receiver = receiver.clone();
                let stats = stats.clone();
                std::thread::spawn(move || {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
                    let _ = receiver.feed(s, Some(&stats));
                });
            }
        });
    }

    // Chaos plan: RST exactly the first lane dial (seq 0), mid-frame,
    // a few KiB into the stripe; the long period keeps the other three
    // lanes and every re-dial clean.
    let profile = ChaosProfile::new(0x51ed).with_rule(FaultRule::every(
        DialLeg::StripeLane,
        FaultClass::Rst,
        64,
    ));
    let interposer = ChaosInterposer::new(profile, &registry);
    let hook = interposer.hook();

    // Each lane must carry more than the worst-case loopback socket
    // buffering (tcp_wmem max ≈ 4 MiB plus the peer's receive buffer)
    // so the sender is still mid-write when the tripped splice closes
    // and the kernel answers with a reset — a smaller stripe would sit
    // entirely in kernel buffers and the RST would be invisible to the
    // write-only lane (the same reason a real WAN sender only notices
    // a reset once its window fills).
    let payload = seeded_payload(0x57121, 32 << 20);
    let plan = StripePlan::new(payload.len() as u64, 4, 64 * 1024).unwrap();
    let dial = interposed_lane_dial(Some(&hook), "rwcp-sun", |_stripe, _attempt| {
        nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7411))
    });
    let report = send_striped(&payload, &plan, 1, 9, 8, Some(&stats), dial).unwrap();
    assert!(
        report.redials >= 1,
        "the RST'd lane must fail over: {report:?}"
    );

    wait_until("striped reassembly", Duration::from_secs(10), || {
        receiver.result().is_some()
    });
    let (tag, got) = receiver.result().unwrap();
    assert_eq!(tag, 9);
    assert_eq!(
        got, payload,
        "reassembled payload differs from the original"
    );
    assert!(stats.failovers.get() >= 1, "no lane failover recorded");
    assert_eq!(
        stats.conflicts.get(),
        0,
        "a lane RST replay was misdiagnosed as a Conflict"
    );
}

/// A client that writes half a control frame and then stalls must not
/// wedge the outer server: control sessions read under a deadline, and
/// the accept loop hands each session to its own thread, so concurrent
/// well-formed clients keep being served while the torn session ages
/// out against its read timeout.
#[test]
fn real_half_written_control_frame_does_not_wedge_accept_loop() {
    let w = real_world();
    let _outer = OuterServer::start(w.net.clone(), OuterConfig::new("rwcp-outer")).unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);

    // Echo sink for the legitimate clients.
    let sink = w.net.bind("etl-sun", 7412).unwrap();
    std::thread::spawn(move || {
        while let Ok((mut s, _)) = sink.accept() {
            std::thread::spawn(move || {
                let mut b = [0u8; 8];
                if s.read_exact(&mut b).is_ok() {
                    let _ = s.write_all(&b);
                }
            });
        }
    });

    // The stall: a recognizable prefix of a control frame, then
    // nothing — the socket stays open, the frame never completes.
    let mut stalled = w.net.dial("etl-sun", "rwcp-outer", OUTER_PORT).unwrap();
    stalled.write_all(&[1, 0, 0]).unwrap();

    // While the torn session is live, complete ops must go through.
    for round in 0..3u8 {
        let mut s = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 7412)).unwrap();
        let msg = [b'o', b'p', round, 0, 1, 2, 3, 4];
        s.write_all(&msg).unwrap();
        let mut echo = [0u8; 8];
        s.read_exact(&mut echo).unwrap();
        assert_eq!(echo, msg, "op {round} failed behind the stalled frame");
    }
    drop(stalled);
}

/// Accepts block (DESIGN.md §6c "accepts block too"): a rendezvous
/// acceptor no peer ever dials is ended by its control connection's
/// EOF alone, through the listener's stop handle.
#[test]
fn real_control_close_withdraws_the_rendezvous_without_a_peer() {
    let w = real_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
    let listener = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
    let (host, port) = listener.advertised.clone();
    assert_eq!(outer.rendezvous_ports(), vec![port]);
    drop(listener);
    wait_until("registration withdrawn", Duration::from_secs(1), || {
        outer.rendezvous_ports().is_empty()
    });
    assert!(w.net.resolve(&host, port).is_none());
}

/// A stop handle's wake dial is not traffic: one rendezvous listener
/// stopped by its watcher, then the control port, the other rendezvous
/// port and `nxport` stopped by `shutdown()`, and not one counter,
/// gauge or histogram of either server moves.
#[test]
fn real_stop_wakes_are_invisible_in_stats() {
    let w = real_world();
    let inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        w.net.clone(),
        OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
    let _kept = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
    let dropped = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
    // A bind's service time is recorded after its reply is on the wire.
    wait_until("both binds recorded", Duration::from_secs(1), || {
        outer.obs_snapshot().histograms["proxy.bind_req_ns"].count == 2
    });
    let observe = || {
        (
            outer.obs_snapshot(),
            inner.obs_snapshot(),
            outer.admission_active(),
        )
    };
    let before = observe();

    drop(dropped);
    wait_until("one registration withdrawn", Duration::from_secs(1), || {
        outer.rendezvous_ports().len() == 1
    });
    outer.shutdown();
    inner.shutdown();
    // An acceptor that has returned has consumed its wake and dropped
    // its listener.
    wait_until("every acceptor gone", Duration::from_secs(1), || {
        outer.rendezvous_ports().is_empty()
            && w.net.resolve("rwcp-outer", OUTER_PORT).is_none()
            && w.net.resolve("rwcp-inner", NXPORT).is_none()
    });
    assert_eq!(observe(), before);
}

/// A one-hop redirect raced by strictly-newer `ShardSync` installs:
/// while the fleet generation advances (same member set, rising
/// generation, pushed to the router and every shard), clients aimed at
/// a non-owner are redirected exactly once and served at the owner —
/// never bounced in a loop — and a bind taken before the generation
/// storm still accepts traffic after it.
#[test]
fn real_redirect_survives_concurrent_newer_shard_sync() {
    let w = real_fleet_world();
    let _inner = InnerServer::start(w.net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let fleet = start_fleet(&w);
    let router = FleetRouter::new(
        fleet_members(),
        BreakerConfig {
            threshold: 2,
            cooldown: Duration::from_millis(50),
        },
    );
    let env = ProxyEnv::via_fleet(router.clone());

    // A bind taken before the storm: it must survive every install.
    let pre = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
    let pre_adv = pre.advertised.clone();

    let map = fleet_map();
    let last_gen = 9u64;
    std::thread::scope(|scope| {
        let installer = {
            let router = router.clone();
            let fleet = &fleet;
            let members = fleet_members();
            scope.spawn(move || {
                for generation in 2..=last_gen {
                    router.install(generation, members.clone());
                    for outer in fleet.iter().flatten() {
                        outer.install_fleet(generation, members.clone());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };

        // Raw-protocol redirect legs in flight during the installs.
        // HRW ownership depends on the member tags, not the
        // generation, so the owner stays computable throughout.
        for i in 0..6u16 {
            let (host, port) = ("rwcp-sun", 7100 + i);
            let owner = map.owner(&bind_key(host, port)).unwrap();
            let non_owner = 1 - owner;
            let mut s = w
                .net
                .dial(host, FLEET_HOSTS[non_owner], OUTER_PORT)
                .unwrap();
            Msg::BindReq {
                host: host.to_string(),
                port,
                fallback: false,
            }
            .write_to(&mut s)
            .unwrap();
            match Msg::read_from(&mut s).unwrap() {
                Msg::Redirect { host: rh, port: rp } => {
                    assert_eq!(rh, FLEET_HOSTS[owner], "redirect must name the owner");
                    // Following the hop must terminate immediately:
                    // the owner serves, it never redirects onward.
                    let mut hop = w.net.dial(host, &rh, rp).unwrap();
                    Msg::BindReq {
                        host: host.to_string(),
                        port,
                        fallback: false,
                    }
                    .write_to(&mut hop)
                    .unwrap();
                    match Msg::read_from(&mut hop).unwrap() {
                        Msg::BindRep { rdv_port } => assert_ne!(rdv_port, 0),
                        other => panic!("redirect loop or refusal at the owner: {other:?}"),
                    }
                }
                other => panic!("non-owner must redirect a first-choice request: {other:?}"),
            }
        }
        installer.join().unwrap();
    });

    // Every party converged on the newest generation.
    assert_eq!(router.generation(), last_gen);
    for outer in fleet.iter().flatten() {
        assert_eq!(outer.fleet_generation(), last_gen);
    }

    // No lost bind: the pre-storm listener still relays end to end.
    let srv = std::thread::spawn(move || {
        let mut s = pre.accept().unwrap();
        let mut b = [0u8; 4];
        s.read_exact(&mut b).unwrap();
        s.write_all(&b).unwrap();
    });
    let mut peer = w.net.dial("etl-sun", &pre_adv.0, pre_adv.1).unwrap();
    peer.write_all(b"sync").unwrap();
    let mut echo = [0u8; 4];
    peer.read_exact(&mut echo).unwrap();
    assert_eq!(&echo, b"sync");
    srv.join().unwrap();
}
