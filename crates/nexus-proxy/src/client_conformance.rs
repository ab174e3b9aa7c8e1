//! Client-driver conformance, beside the servers' (`conformance.rs`):
//! one scripted scenario is played through `nx_proxy_bind` /
//! `nx_proxy_connect` on loopback `VNet` and through `NxClient` on
//! `netsim`, with a recording hook on each [`ClientCore`]. Both drivers
//! run the same core, so what this pins is the *drivers*: each must
//! tell the core the same things happened, in the same order, and be
//! handed the same steps.
//!
//! The shards are scripted fakes: whichever one is asked answers with
//! the next scripted reply, and hangs up right behind any reply that is
//! not a grant — exactly what the real servers do, and what `netsim`
//! now delivers in order. Traces are compared after spelling hosts by
//! role (the two interchangeable shards are both `shard`: which of them
//! owns an ephemeral bind key differs between the worlds by design) and
//! renumbering ephemeral ports. Nothing else is folded.

#![cfg(test)]

use crate::conformance::{renumber, Trace};
use crate::core::{shard_map, ClientHook, HostId};
use crate::liveness::BreakerConfig;
use crate::protocol::{CtrlMsg, Msg};
use crate::sim::{NxClient, NxEvent, NxHandled, RetryPolicy, SimProxyEnv, CTRL_MSG_BYTES};
use crate::{nx_proxy_bind, nx_proxy_connect, FleetRouter, ProxyEnv};
use firewall::vnet::VNet;
use netsim::prelude::*;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::sync::Arc;
use std::time::Duration;
use wacs_sync::Mutex;

const CTRL: u16 = 5678;
const HOSTS: [&str; 6] = ["edge", "shard-a", "shard-b", "ghost", "dead", "target"];
/// What each host is to the client (the two shards are one role).
const ROLES: [&str; 6] = ["edge", "shard", "shard", "ghost", "dead", "target"];

/// The next thing a fake shard does with a request.
#[derive(Clone)]
enum Reply<H> {
    Frame(CtrlMsg<H>),
    /// Accept, read the request, close without a word.
    Hangup,
}

type Script<H> = Arc<Mutex<VecDeque<Reply<H>>>>;

/// A grant keeps its connection; anything else is followed by a close.
fn is_grant<H>(msg: &CtrlMsg<H>) -> bool {
    match msg {
        CtrlMsg::ConnectRep { ok, .. } => *ok,
        CtrlMsg::BindRep { rdv_port } => *rdv_port != 0,
        _ => false,
    }
}

#[derive(Clone)]
enum Call<H> {
    Bind,
    Connect((H, u16)),
}

/// One client call: which fleet it goes through, what the shards will
/// answer, and how it must end.
#[derive(Clone)]
struct Op<H> {
    env: usize,
    call: Call<H>,
    replies: Vec<Reply<H>>,
    want: &'static str,
}

/// The fleets the scenario's three client environments go through.
fn fleets<H: Clone>([_, a, b, _, dead, _]: &[H; 6]) -> [Vec<(H, u16)>; 3] {
    let m = |h: &H| (h.clone(), CTRL);
    [vec![m(a), m(b)], vec![m(dead)], vec![m(dead), m(a), m(b)]]
}

/// The scenario (ISSUE 14). `dead_owned` is a port of `target` whose
/// connect key the dead member of fleet 2 owns in both worlds.
#[rustfmt::skip]
fn scenario<H: Clone>(hosts: &[H; 6], dead_owned: u16) -> Vec<Op<H>> {
    let [_, a, _, ghost, _, target] = hosts;
    let frame = Reply::Frame;
    let bound = |rdv_port| frame(CtrlMsg::BindRep { rdv_port });
    let connected = frame(CtrlMsg::ConnectRep { ok: true, detail: String::new() });
    let unreachable = frame(CtrlMsg::ConnectRep { ok: false, detail: "nope".into() });
    let redirect = frame(CtrlMsg::Redirect { host: ghost.clone(), port: CTRL });
    let bind = |replies, want| Op { env: 0, call: Call::Bind, replies, want };
    let connect = |env, dst: (&H, u16), replies, want| {
        Op { env, call: Call::Connect((dst.0.clone(), dst.1)), replies, want }
    };
    let mut ops = vec![
        // Served by whoever owns the key.
        bind(vec![bound(7001)], "bound"),
        // A stale map: the shard asked names an owner off the map.
        bind(vec![redirect, bound(7002)], "bound"),
        // The owner dies under the request: descend, knowingly.
        bind(vec![Reply::Hangup, bound(7003)], "bound"),
        bind(vec![frame(CtrlMsg::Busy)], "refused"),
        bind(vec![bound(0)], "refused"),
        connect(0, (target, 9000), vec![unreachable], "refused"),
        // A rendezvous address is dialed direct: no shard is asked.
        connect(0, (a, CTRL), vec![], "connected"),
        // The owner's dial fails: the next rung serves.
        connect(2, (target, dead_owned), vec![connected], "connected"),
    ];
    // A fleet of one dead member: three calls open its breaker, the
    // fourth dials it all the same (L1).
    ops.extend((0..4).map(|_| connect(1, (target, 9000), vec![], "refused")));
    ops
}

/// Spell hosts by role and renumber ephemeral ports.
fn normalise(trace: &Trace, spelled: &[String; 6]) -> Vec<String> {
    let mut ports = Vec::new();
    let lines = trace.lock().clone();
    lines
        .iter()
        .map(|line| {
            let mut line = line.clone();
            for (spelled, role) in spelled.iter().zip(ROLES) {
                line = line.replace(spelled, role);
            }
            renumber(&line, &["port: ", "(edge, "], "p", &mut ports, true)
        })
        .collect()
}

fn recorder(trace: &Trace) -> ClientHook {
    let trace = trace.clone();
    Arc::new(move |line| trace.lock().push(line))
}

// ----- the real world --------------------------------------------------

/// Serve `host:CTRL` from `script` until the test process ends.
fn fake_shard(net: &VNet, host: &str, script: Script<String>) {
    let listener = net.bind(host, CTRL).unwrap();
    std::thread::spawn(move || {
        while let Ok((mut s, _)) = listener.accept() {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            // A direct dial sends no request and just goes away.
            if Msg::read_from(&mut s).is_err() {
                continue;
            }
            let reply = script.lock().pop_front().expect("an unscripted request");
            if let Reply::Frame(msg) = reply {
                msg.write_to(&mut s).unwrap();
                if is_grant(&msg) {
                    // Held until the client lets go.
                    let _ = Msg::read_from(&mut s);
                }
            }
        }
    });
}

/// `(normalised trace, how each call ended, error kinds of the refusals)`.
fn real_run(dead_owned: u16) -> (Vec<String>, Vec<&'static str>, Vec<ErrorKind>) {
    let net = VNet::new();
    let site = net.add_site("lab", None);
    for h in HOSTS {
        net.add_host(h, site);
    }
    let script: Script<String> = Arc::default();
    for h in ["shard-a", "shard-b", "ghost"] {
        fake_shard(&net, h, script.clone());
    }
    let trace: Trace = Arc::default();
    let hosts = HOSTS.map(str::to_string);
    let envs = fleets(&hosts).map(|members| {
        let fleet = FleetRouter::new(members, BreakerConfig::default());
        fleet.hooked(recorder(&trace));
        ProxyEnv::via_fleet(fleet)
    });
    let (mut ended, mut kinds) = (Vec::new(), Vec::new());
    for op in scenario(&hosts, dead_owned) {
        *script.lock() = op.replies.into();
        let env = &envs[op.env];
        let result = match op.call {
            Call::Bind => nx_proxy_bind(&net, env, "edge").map(|_| "bound"),
            Call::Connect((h, p)) => {
                nx_proxy_connect(&net, env, "edge", (&h, p)).map(|_| "connected")
            }
        };
        ended.push(result.unwrap_or_else(|e| {
            kinds.push(e.kind());
            "refused"
        }));
        assert_eq!(ended.last(), Some(&op.want));
        assert!(
            script.lock().is_empty(),
            "a scripted reply was never asked for"
        );
    }
    let spelled = hosts.map(|h| format!("{h:?}"));
    (normalise(&trace, &spelled), ended, kinds)
}

// ----- the simulated world ---------------------------------------------

struct SimShard {
    script: Script<NodeId>,
}

impl Actor for SimShard {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(CTRL).unwrap();
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let flow = msg.flow;
        let reply = self.script.lock().pop_front();
        match reply.expect("an unscripted request") {
            // Reply and close in one step, as the servers do.
            Reply::Frame(m) => {
                let grant = is_grant(&m);
                ctx.send(flow, CTRL_MSG_BYTES, m).unwrap();
                if !grant {
                    ctx.close(flow);
                }
            }
            Reply::Hangup => ctx.close(flow),
        }
    }
}

/// The edge host: one `NxClient` per fleet, the calls played in turn.
struct SimEdge {
    clients: Vec<NxClient>,
    ops: VecDeque<Op<NodeId>>,
    script: Script<NodeId>,
    /// The client the call in progress went through.
    current: usize,
    ended: Arc<Mutex<Vec<&'static str>>>,
}

impl SimEdge {
    fn next(&mut self, ctx: &mut Ctx<'_>) {
        assert!(
            self.script.lock().is_empty(),
            "a scripted reply was never asked for"
        );
        let Some(op) = self.ops.pop_front() else {
            return;
        };
        *self.script.lock() = op.replies.into();
        self.current = op.env;
        let nx = &mut self.clients[op.env];
        match op.call {
            Call::Bind => assert_eq!(nx.bind(ctx), None),
            Call::Connect(dst) => nx.connect(ctx, dst, 1),
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, handled: NxHandled) {
        let NxHandled::Event(ev) = handled else {
            return;
        };
        self.ended.lock().push(match ev {
            NxEvent::Bound { .. } => "bound",
            NxEvent::Connected { flow, .. } => {
                ctx.close(flow);
                "connected"
            }
            NxEvent::Refused { .. } | NxEvent::BindFailed => "refused",
            other => panic!("unexpected {other:?}"),
        });
        self.next(ctx);
    }
}

impl Actor for SimEdge {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.next(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let h = self.clients[self.current].on_timer(ctx, token);
        self.handle(ctx, h);
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.clients[self.current].on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.clients[self.current].on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// The sim topology: the six hosts on one unfiltered switch.
fn sim_topology() -> (Topology, [NodeId; 6]) {
    let mut topo = Topology::new();
    let site = topo.add_site("lab", None);
    let nodes = HOSTS.map(|h| topo.add_host(h, site));
    let sw = topo.add_switch("sw", site);
    for n in nodes {
        topo.add_link(n, sw, SimDuration::from_micros(100), 6.5e6);
    }
    (topo, nodes)
}

/// `(normalised trace, how each call ended)`.
fn sim_run(dead_owned: u16) -> (Vec<String>, Vec<&'static str>) {
    let (topo, nodes) = sim_topology();
    let mut sim = Simulator::new(topo, NetConfig::default(), 14);
    let script: Script<NodeId> = Arc::default();
    for shard in [nodes[1], nodes[2], nodes[3]] {
        let script = script.clone();
        sim.spawn(shard, Box::new(SimShard { script }));
    }
    let trace: Trace = Arc::default();
    // One operation per call, as on the real path: no retries.
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let clients = fleets(&nodes).map(|members| {
        NxClient::with_policy(SimProxyEnv::direct(), policy)
            .with_fleet(members)
            .hooked(recorder(&trace))
    });
    let ops = scenario(&nodes, dead_owned);
    let ended: Arc<Mutex<Vec<&'static str>>> = Arc::default();
    let edge = SimEdge {
        clients: clients.into(),
        ops: ops.clone().into(),
        script,
        current: 0,
        ended: ended.clone(),
    };
    sim.spawn(nodes[0], Box::new(edge));
    sim.run_until(SimTime(SimDuration::from_secs(60).nanos()));
    let ended = ended.lock().clone();
    let want: Vec<&str> = ops.iter().map(|op| op.want).collect();
    assert_eq!(ended, want, "trace: {:#?}", trace.lock());
    let spelled = nodes.map(|n| format!("{n:?}"));
    (normalise(&trace, &spelled), ended)
}

#[test]
fn real_and_sim_clients_produce_identical_decision_traces() {
    // A `target` port whose connect key the dead member owns under
    // both worlds' host naming.
    let (_, nodes) = sim_topology();
    fn owned_by_dead<H: HostId>(hosts: &[H; 6], p: u16) -> bool {
        shard_map(1, &fleets(hosts)[2]).owner(&hosts[5].shard_key(p)) == Some(0)
    }
    let real_hosts = HOSTS.map(str::to_string);
    let dead_owned = (9001..10000u16)
        .find(|p| owned_by_dead(&real_hosts, *p) && owned_by_dead(&nodes, *p))
        .unwrap();

    let (real, real_ended, kinds) = real_run(dead_owned);
    let (sim, sim_ended) = sim_run(dead_owned);
    assert_eq!(real_ended, sim_ended);
    assert_eq!(real, sim, "the client drivers disagree");
    // Typed refusals reach the caller as the kinds it matches on, and
    // an exhausted ladder reports the dial's own error.
    use ErrorKind::*;
    assert_eq!(
        kinds[..3],
        [WouldBlock, AddrNotAvailable, ConnectionRefused]
    );
    assert_eq!(kinds[3..], [ConnectionRefused; 4]);
    // The scenario really went where it was meant to go.
    let all = real.join("\n");
    for needle in [
        "replied Redirect { host: ghost, port: 5678 } -> Dial { to: (ghost, 5678)",
        "session_died -> Dial { to: (shard, 5678), leg: ClientCtrl, send: BindReq { host: edge, port: p2, fallback: true }",
        "Done(Refused(Busy))",
        "Done(Refused(NoRendezvous))",
        "Done(Refused(Unreachable { detail: \"nope\" }))",
        "connect (shard, 5678) -> Direct",
        "dial_failed -> Dial { to: (shard, 5678)",
        "dial_failed -> Done(Refused(Exhausted))",
    ] {
        assert!(all.contains(needle), "no `{needle}` in:\n{all}");
    }
    // L1: the fourth call through the dead fleet of one still dials.
    let dials_dead = "-> Dial { to: (dead, 5678)";
    assert_eq!(all.matches(dials_dead).count(), 5, "{all}");
}
