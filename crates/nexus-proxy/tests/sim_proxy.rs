//! Virtual-time tests of the Nexus Proxy actors on a firewalled
//! two-site topology.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::Policy;
use netsim::prelude::*;
use nexus_proxy::sim::client::NX_TOKEN_BASE;
use nexus_proxy::sim::{
    NxActor, NxApp, NxClient, NxEvent, NxHandled, RelayModel, SimInnerServer, SimOuterServer,
    SimProxyEnv,
};
use std::sync::Arc;
use wacs_sync::Mutex;

const CTRL_PORT: u16 = 5678;
const NXPORT: u16 = 911;

struct Net {
    topo: Topology,
    rwcp_sun: NodeId,
    compas0: NodeId,
    inner_host: NodeId,
    outer_host: NodeId,
    etl_sun: NodeId,
}

/// Figure 5 in miniature, with calibrated-ish parameters: fast LANs,
/// a slow WAN segment, deny-in firewall on the RWCP site with only the
/// nxport hole.
fn build() -> Net {
    let mut topo = Topology::new();
    let rwcp = topo.add_site("rwcp", None); // policy patched below
    let dmz = topo.add_site("dmz", None);
    let etl = topo.add_site("etl", None);
    let rwcp_sun = topo.add_host("rwcp-sun", rwcp);
    let compas0 = topo.add_host("compas0", rwcp);
    let inner_host = topo.add_host("rwcp-inner", rwcp);
    let rwcp_sw = topo.add_switch("rwcp-sw", rwcp);
    let gw = topo.add_switch("rwcp-gw", dmz);
    let outer_host = topo.add_host("rwcp-outer", dmz);
    let etl_sw = topo.add_switch("etl-sw", etl);
    let etl_sun = topo.add_host("etl-sun", etl);
    let lan = 6.5e6; // ~100Base-T goodput of the era
    let us = SimDuration::from_micros;
    topo.add_link(rwcp_sun, rwcp_sw, us(100), lan);
    topo.add_link(compas0, rwcp_sw, us(100), lan);
    topo.add_link(inner_host, rwcp_sw, us(100), lan);
    topo.add_link(rwcp_sw, gw, us(200), lan);
    topo.add_link(outer_host, gw, us(100), lan);
    topo.add_link(gw, etl_sw, SimDuration::from_millis(3), 170e3); // 1.5 Mbps IMnet
    topo.add_link(etl_sw, etl_sun, us(100), lan);
    // Deny-in policy with the single nxport hole to the inner host.
    topo.sites[rwcp.0 as usize].policy =
        Some(Policy::typical_with_nxport("rwcp", inner_host.0, NXPORT));
    Net {
        topo,
        rwcp_sun,
        compas0,
        inner_host,
        outer_host,
        etl_sun,
    }
}

/// Shared observation channel.
type Shared = Arc<Mutex<SharedState>>;

#[derive(Default)]
struct SharedState {
    advertised: Option<(NodeId, u16)>,
    log: Vec<String>,
}

/// An echo server using the NXProxy client machine.
struct EchoServer {
    shared: Shared,
}

impl NxApp for EchoServer {
    fn start(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        if let Some(adv) = nx.bind(ctx) {
            self.shared.lock().advertised = Some(adv);
        }
    }

    fn handle(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.shared.lock().advertised = Some(advertised);
                self.shared.lock().log.push("bound".into());
            }
            NxHandled::Event(NxEvent::Accepted { .. }) => {
                self.shared.lock().log.push("accepted".into());
            }
            NxHandled::Event(NxEvent::BindFailed) => {
                self.shared.lock().log.push("bind-failed".into());
            }
            NxHandled::Event(NxEvent::BindLost) => {
                // Old rendezvous address is dead; withdraw it until the
                // automatic re-bind completes.
                self.shared.lock().advertised = None;
                self.shared.lock().log.push("bind-lost".into());
            }
            NxHandled::Data(d) => {
                self.shared.lock().log.push(format!("echo {}", d.size));
                let _ = ctx.send_boxed(d.flow, d.size, d.payload);
            }
            _ => {}
        }
    }
}

fn echo_server(env: SimProxyEnv, shared: &Shared) -> Box<dyn Actor> {
    let app = EchoServer {
        shared: shared.clone(),
    };
    Box::new(NxActor::new(NxClient::new(env), app))
}

/// A client that waits until the server's address is advertised
/// (polling from `start` on), then connects (via its own proxy env)
/// and ping-pongs once.
struct PingClient {
    shared: Shared,
    size: u64,
    start: SimDuration,
    sent_at: Option<SimTime>,
}

const POLL: u64 = 1;

impl NxApp for PingClient {
    fn start(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start, POLL);
    }

    fn timer(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, token: u64) {
        if token == POLL {
            let adv = self.shared.lock().advertised;
            match adv {
                Some(dst) => nx.connect(ctx, dst, 42),
                None => ctx.set_timer(SimDuration::from_millis(1), POLL),
            }
        }
    }

    fn handle(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, token }) => {
                assert_eq!(token, 42);
                self.sent_at = Some(ctx.now());
                ctx.send(flow, self.size, ()).unwrap();
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                self.shared.lock().log.push("refused".into());
                ctx.stop_simulation();
            }
            NxHandled::Data(_) => {
                let rtt = ctx.now().since(self.sent_at.unwrap());
                self.shared
                    .lock()
                    .log
                    .push(format!("rtt_us {}", rtt.nanos() / 1000));
                ctx.stop_simulation();
            }
            _ => {}
        }
    }
}

fn ping_client(env: SimProxyEnv, shared: &Shared, size: u64) -> Box<dyn Actor> {
    ping_client_at(env, shared, size, SimDuration::from_millis(1))
}

fn ping_client_at(
    env: SimProxyEnv,
    shared: &Shared,
    size: u64,
    start: SimDuration,
) -> Box<dyn Actor> {
    let app = PingClient {
        shared: shared.clone(),
        size,
        start,
        sent_at: None,
    };
    Box::new(NxActor::new(NxClient::new(env), app))
}

fn spawn_proxies(sim: &mut Simulator, net: &Net, model: RelayModel) {
    sim.spawn(
        net.outer_host,
        Box::new(SimOuterServer::new(
            CTRL_PORT,
            Some((net.inner_host, NXPORT)),
            model,
        )),
    );
    sim.spawn(net.inner_host, Box::new(SimInnerServer::new(NXPORT, model)));
}

fn rtt_us(log: &[String]) -> Option<u64> {
    log.iter()
        .find_map(|l| l.strip_prefix("rtt_us ").map(|v| v.parse().unwrap()))
}

/// The protocol trace of a virtual-time passive relay contains the
/// Figure 3/4 steps (sim-side counterpart of tests/figures_flow.rs).
#[test]
fn sim_trace_records_protocol_steps() {
    let net = build();
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), 7);
    sim.enable_trace();
    spawn_proxies(&mut sim, &net, RelayModel::default());
    sim.spawn(
        net.rwcp_sun,
        echo_server(SimProxyEnv::via((net.outer_host, CTRL_PORT)), &shared),
    );
    sim.spawn(net.etl_sun, ping_client(SimProxyEnv::direct(), &shared, 64));
    sim.run();
    // Fig. 4 step 1-2: the bind request reached the outer server and a
    // rendezvous port was allocated.
    assert_eq!(
        sim.trace().grep("BindReq").len(),
        1,
        "{}",
        sim.trace().render()
    );
    // Step 3: the remote peer hit the rendezvous port, and the outer
    // server asked the inner one to complete the relay.
    assert_eq!(sim.trace().grep("outer: Accepted").len(), 2);
    assert_eq!(sim.trace().grep("outer: DialOk").len(), 1);
    // Step 4: the inner server completed the relay toward the client.
    assert_eq!(sim.trace().grep("RelayReq").len(), 1);
    // And the run actually finished.
    assert!(shared.lock().log.iter().any(|l| l.starts_with("rtt_us")));
}

/// Wide-area passive relay: server inside RWCP, client at ETL.
#[test]
fn wan_client_reaches_firewalled_server_via_proxy() {
    let net = build();
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), 7);
    let model = RelayModel::default();
    spawn_proxies(&mut sim, &net, model);
    sim.spawn(
        net.rwcp_sun,
        echo_server(SimProxyEnv::via((net.outer_host, CTRL_PORT)), &shared),
    );
    sim.spawn(
        net.etl_sun,
        ping_client(SimProxyEnv::direct(), &shared, 64), // ETL has no firewall
    );
    sim.run();
    let log = shared.lock().log.clone();
    assert!(log.contains(&"bound".to_string()), "{log:?}");
    assert!(log.contains(&"accepted".to_string()), "{log:?}");
    let rtt = rtt_us(&log).expect("no rtt");
    // Each direction crosses outer+inner (2 relays): RTT should exceed
    // 4 relay service times (~48ms with the default 12ms model).
    assert!(rtt > 40_000, "rtt {rtt}us");
    assert!(rtt < 200_000, "rtt {rtt}us");
}

/// Without the proxy, the same client cannot reach the server at all.
#[test]
fn wan_client_refused_without_proxy() {
    let net = build();
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), 7);
    // Server binds directly (advertises its own, unreachable address).
    sim.spawn(net.rwcp_sun, echo_server(SimProxyEnv::direct(), &shared));
    sim.spawn(net.etl_sun, ping_client(SimProxyEnv::direct(), &shared, 64));
    sim.run();
    let log = shared.lock().log.clone();
    assert!(log.contains(&"refused".to_string()), "{log:?}");
}

/// LAN-internal indirect path (RWCP-Sun ↔ COMPaS both proxied): works
/// and passes through both relays.
#[test]
fn lan_indirect_roundtrip() {
    let net = build();
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), 7);
    let model = RelayModel::default();
    spawn_proxies(&mut sim, &net, model);
    let env = SimProxyEnv::via((net.outer_host, CTRL_PORT));
    sim.spawn(net.rwcp_sun, echo_server(env.clone(), &shared));
    sim.spawn(net.compas0, ping_client(env, &shared, 4096));
    sim.run();
    let log = shared.lock().log.clone();
    assert!(log.iter().any(|l| l == "echo 4096"), "{log:?}");
    let rtt = rtt_us(&log).expect("no rtt");
    // Both directions pass outer+inner: ~4 service times plus copies.
    assert!(rtt > 48_000, "rtt {rtt}us");
}

/// Regression: a `BindRep { rdv_port: 0 }` (the outer server's
/// explicit allocation-failure reply) must surface as `BindFailed`,
/// never as a valid rendezvous at port 0.
#[test]
fn bind_rep_port_zero_is_rejected() {
    use nexus_proxy::sim::SimMsg;

    /// An outer server that answers every BindReq with rdv_port 0.
    struct BrokenOuter;
    impl Actor for BrokenOuter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(CTRL_PORT).unwrap();
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
            let flow = msg.flow;
            if let SimMsg::BindReq { .. } = msg.expect::<SimMsg>() {
                let _ = ctx.send(flow, 32, SimMsg::BindRep { rdv_port: 0 });
            }
        }
    }

    let net = build();
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), 7);
    sim.spawn(net.outer_host, Box::new(BrokenOuter));
    sim.spawn(
        net.rwcp_sun,
        echo_server(SimProxyEnv::via((net.outer_host, CTRL_PORT)), &shared),
    );
    sim.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let s = shared.lock();
    assert!(s.log.contains(&"bind-failed".to_string()), "{:?}", s.log);
    assert!(!s.log.contains(&"bound".to_string()), "{:?}", s.log);
    assert!(s.advertised.is_none());
}

/// Outer-server crash/restart: the bound server sees `BindLost`,
/// automatically re-registers, and a late client still gets through on
/// the fresh rendezvous address.
#[test]
fn outer_restart_triggers_rebind_and_recovery() {
    let net = build();
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), 7);
    let model = RelayModel::default();
    let outer_id = sim.spawn(
        net.outer_host,
        Box::new(SimOuterServer::new(
            CTRL_PORT,
            Some((net.inner_host, NXPORT)),
            model,
        )),
    );
    sim.spawn(net.inner_host, Box::new(SimInnerServer::new(NXPORT, model)));
    sim.spawn(
        net.rwcp_sun,
        echo_server(SimProxyEnv::via((net.outer_host, CTRL_PORT)), &shared),
    );
    // Crash the outer server at 50ms, restart 100ms later.
    sim.install_faults(FaultPlan::new(3).crash_restart(
        outer_id,
        SimDuration::from_millis(50),
        SimDuration::from_millis(100),
        move || {
            Box::new(SimOuterServer::new(
                CTRL_PORT,
                Some((net.inner_host, NXPORT)),
                model,
            ))
        },
    ));
    // The client shows up well after the crash and must still connect.
    sim.spawn(
        net.etl_sun,
        ping_client_at(
            SimProxyEnv::direct(),
            &shared,
            64,
            SimDuration::from_millis(400),
        ),
    );
    sim.run_until(SimTime(SimDuration::from_secs(30).nanos()));
    let log = shared.lock().log.clone();
    assert!(log.contains(&"bind-lost".to_string()), "{log:?}");
    let bounds = log.iter().filter(|l| *l == "bound").count();
    assert_eq!(bounds, 2, "{log:?}");
    assert!(rtt_us(&log).is_some(), "client never got through: {log:?}");
    assert_eq!(sim.stats().actor_crashes, 1);
    assert_eq!(sim.stats().actor_restarts, 1);
}

/// Direct LAN baseline is orders of magnitude faster than the proxied
/// path — the Table 2 gap.
#[test]
fn proxy_latency_gap_matches_paper_shape() {
    // Direct: flip the firewall open and talk straight.
    let net = build();
    let shared: Shared = Arc::default();
    let mut topo = net.topo.clone();
    topo.sites[0].policy = None; // RWCP open for the direct baseline
    let mut sim = Simulator::new(topo, 7);
    sim.spawn(net.rwcp_sun, echo_server(SimProxyEnv::direct(), &shared));
    sim.spawn(net.compas0, ping_client(SimProxyEnv::direct(), &shared, 64));
    sim.run();
    let direct = rtt_us(&shared.lock().log).expect("no direct rtt");

    // Indirect: default firewalled topology through the proxies.
    let net = build();
    let shared2: Shared = Arc::default();
    let mut sim = Simulator::new(net.topo.clone(), 7);
    spawn_proxies(&mut sim, &net, RelayModel::default());
    let env = SimProxyEnv::via((net.outer_host, CTRL_PORT));
    sim.spawn(net.rwcp_sun, echo_server(env.clone(), &shared2));
    sim.spawn(net.compas0, ping_client(env, &shared2, 64));
    sim.run();
    let indirect = rtt_us(&shared2.lock().log).expect("no indirect rtt");

    // The paper: 0.41ms → 25ms one-way (~60x). Accept a broad band.
    let factor = indirect as f64 / direct as f64;
    assert!(
        factor > 20.0,
        "factor {factor} (direct {direct}us, indirect {indirect}us)"
    );
}

/// What [`Reactor`] saw.
#[derive(Default)]
struct Routed {
    timers: Vec<u64>,
    consumed: bool,
    /// The client's retries when `Bound` arrived.
    bound_after_retries: Option<u64>,
}

/// An app that only reacts: it binds, sets one timer of its own and
/// records what the shell hands it.
struct Reactor(Arc<Mutex<Routed>>);

impl NxApp for Reactor {
    fn start(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        assert!(nx.bind(ctx).is_none(), "a proxied bind ends later");
        ctx.set_timer(SimDuration::from_millis(100), NX_TOKEN_BASE - 1);
    }

    fn timer(&mut self, _nx: &mut NxClient, _ctx: &mut Ctx<'_>, token: u64) {
        self.0.lock().timers.push(token);
    }

    fn handle(&mut self, nx: &mut NxClient, _ctx: &mut Ctx<'_>, h: NxHandled) {
        let mut seen = self.0.lock();
        match h {
            NxHandled::Consumed => seen.consumed = true,
            NxHandled::Event(NxEvent::Bound { .. }) => {
                seen.bound_after_retries = Some(nx.retries());
            }
            _ => {}
        }
    }
}

/// The shell routes every event through the client once. The outer
/// server is not up when the bind first dials it, so the bind ends
/// `Bound` only if the client's retry timer reaches the client (and its
/// stale reply deadline fires later). The app's own token just below
/// `NX_TOKEN_BASE` reaches `timer` once, and `handle` never sees
/// `Consumed`.
#[test]
fn the_shell_routes_client_timers_to_the_client_and_app_timers_to_the_app() {
    let net = build();
    let seen = Arc::new(Mutex::new(Routed::default()));
    let mut sim = Simulator::new(net.topo.clone(), 7);
    let model = RelayModel::default();
    sim.spawn(net.inner_host, Box::new(SimInnerServer::new(NXPORT, model)));
    let nx = NxClient::new(SimProxyEnv::via((net.outer_host, CTRL_PORT)));
    let reactor = Reactor(seen.clone());
    sim.spawn(net.rwcp_sun, Box::new(NxActor::new(nx, reactor)));
    sim.run_until(SimTime(SimDuration::from_millis(5).nanos()));
    assert_eq!(sim.stats().flows_opened, 0, "the first dial was refused");
    let outer = SimOuterServer::new(CTRL_PORT, Some((net.inner_host, NXPORT)), model);
    sim.spawn(net.outer_host, Box::new(outer));
    sim.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    let seen = seen.lock();
    assert!(
        seen.bound_after_retries >= Some(1),
        "never bound after a retry"
    );
    assert_eq!(seen.timers, [NX_TOKEN_BASE - 1]);
    assert!(!seen.consumed);
}
