//! Driver conformance: one scripted, strictly sequential scenario is
//! played against the real driver (threads over loopback `VNet`) and
//! the sim driver (`netsim` actors), with a recording hook on every
//! core's `step`. Both drivers run the same cores, so what this test
//! pins is the *drivers*: each must turn the same happenings into the
//! same events, in the same order, and be handed the same actions.
//!
//! Traces are compared after normalisation: connection and dial names
//! are renumbered by first appearance, ephemeral (rendezvous) ports
//! likewise, hosts are spelled by role, `ConnectRep` details are
//! blanked (an `io::Error` string vs. a `RefuseReason`), and steps that
//! produce no action are dropped — the sim hears an echo `Closed` for
//! every flow it closes itself, a thread that drops a socket does not.
//! Nothing else is folded: `netsim`'s close is orderly for the closer,
//! so a refusal sent in the same step as the `Close` arrives in both
//! worlds.

#![cfg(test)]

use crate::core::{shard_map, Action, Event, HostId, StepHook};
use crate::liveness::AdmissionLimits;
use crate::protocol::CtrlMsg;
use crate::sim::{RelayModel, SimInnerServer, SimMsg, SimOuterServer, CTRL_MSG_BYTES};
use crate::{InnerConfig, InnerServer, OuterConfig, OuterServer};
use firewall::vnet::{VListener, VNet};
use netsim::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Debug;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wacs_sync::Mutex;

const CTRL: u16 = 5678;
/// Control port of the second, superseded outer server.
const CTRL2: u16 = 5679;
const NX: u16 = 911;
/// A sink the edge listens on, and a port nobody listens on.
const SINK: u16 = 7000;
const DEAD: u16 = 7001;
/// Ports below this are fixed by the script; above, ephemeral.
const EPHEMERAL: u16 = 32768;
const WAIT: Duration = Duration::from_secs(10);

/// Where a scripted connection goes.
#[derive(Clone)]
enum Dest<H> {
    Fixed(H, u16),
    /// The rendezvous port captured in variable `.0`, on the outer host.
    Rdv(usize),
}

/// What a scripted read must see.
#[derive(Clone)]
enum Want<H> {
    Exactly(CtrlMsg<H>),
    ConnectRefused,
    /// A `BindRep` with a real port, captured into variable `.0`.
    Bound(usize),
}

/// One step of the script. Everything is played from one edge host,
/// which is client, peer, target and bound endpoint in turn.
#[derive(Clone)]
#[rustfmt::skip]
enum Op<H> {
    Listen(u16),
    Dial { slot: usize, to: Dest<H> },
    Send { slot: usize, msg: CtrlMsg<H> },
    Expect { slot: usize, want: Want<H> },
    /// The far side ends the connection.
    ExpectClosed { slot: usize },
    /// Take the next connection arriving on listening `port`.
    Accept { port: u16, slot: usize },
    /// One opaque byte goes in at `from` and must come out at `to`.
    Pipe { from: usize, to: usize },
    Close { slot: usize },
    /// Let everything in flight finish.
    Settle,
}

/// The scenario (ISSUE 13): active open ok / refused / `Busy`; passive
/// open via the inner server; unauthorized `RelayReq` with registration
/// required; non-owner `Redirect` then fallback serve; a refused bind
/// closing the control connection (D1). `own`/`other` are private ports
/// whose bind keys the outer under test does / does not own.
#[rustfmt::skip]
fn scenario<H: Clone>([edge, outer, inner, ghost]: [H; 4], own: u16, other: u16) -> Vec<Op<H>> {
    use Op::*;
    let ctrl = || Dest::Fixed(outer.clone(), CTRL);
    let connect_req = |port| CtrlMsg::ConnectReq { host: edge.clone(), port };
    let connected = || Want::Exactly(CtrlMsg::ConnectRep { ok: true, detail: String::new() });
    let bind_req = |port, fallback| CtrlMsg::BindReq { host: edge.clone(), port, fallback };
    let bind_sync = |binds| CtrlMsg::BindSync { binds };
    let pong = |seq| Want::Exactly(CtrlMsg::Pong { seq });
    // Active open, served; torn down from the client side.
    let open = || [
        Dial { slot: 0, to: ctrl() },
        Send { slot: 0, msg: connect_req(SINK) },
        Expect { slot: 0, want: connected() },
        Accept { port: SINK, slot: 1 },
    ];
    let hang_up = || [Close { slot: 0 }, ExpectClosed { slot: 1 }, Close { slot: 1 }, Settle];
    let mut ops = vec![Listen(SINK)];
    ops.extend(open());
    ops.extend(hang_up());
    // Active open the target refuses.
    ops.extend([
        Dial { slot: 0, to: ctrl() },
        Send { slot: 0, msg: connect_req(DEAD) },
        Expect { slot: 0, want: Want::ConnectRefused },
        ExpectClosed { slot: 0 },
        Close { slot: 0 },
        Settle,
    ]);
    // Busy: the one admission slot is held by a live relay (settled, so
    // the real outer has seen its reply written before the next accept).
    ops.extend(open());
    ops.extend([
        Settle,
        Dial { slot: 2, to: ctrl() },
        Send { slot: 2, msg: connect_req(SINK) },
        Expect { slot: 2, want: Want::Exactly(CtrlMsg::Busy) },
        ExpectClosed { slot: 2 },
        Close { slot: 2 },
    ]);
    ops.extend(hang_up());
    // A solo control session authorizes (edge, own) on the inner server.
    ops.extend([
        Dial { slot: 3, to: Dest::Fixed(inner, NX) },
        Send { slot: 3, msg: bind_sync(vec![(edge.clone(), own)]) },
        Send { slot: 3, msg: CtrlMsg::Ping { seq: 1 } },
        Expect { slot: 3, want: pong(1) },
    ]);
    // Passive open: bind, a peer arrives, the inner server completes.
    ops.extend([
        Listen(own),
        Dial { slot: 0, to: ctrl() },
        Send { slot: 0, msg: bind_req(own, false) },
        Expect { slot: 0, want: Want::Bound(0) },
        Dial { slot: 1, to: Dest::Rdv(0) },
        Accept { port: own, slot: 2 },
        Pipe { from: 1, to: 2 },
        Close { slot: 1 },
        ExpectClosed { slot: 2 },
        Close { slot: 2 },
        Settle,
    ]);
    // De-authorize: the next peer's RelayReq is refused. Then the
    // registration goes with its control connection.
    ops.extend([
        Send { slot: 3, msg: bind_sync(vec![]) },
        Send { slot: 3, msg: CtrlMsg::Ping { seq: 2 } },
        Expect { slot: 3, want: pong(2) },
        Dial { slot: 1, to: Dest::Rdv(0) },
        ExpectClosed { slot: 1 },
        Close { slot: 1 },
        Settle,
        Close { slot: 0 },
        Settle,
    ]);
    // A key the ghost shard owns: redirected, then served on fallback.
    let redirect = CtrlMsg::Redirect { host: ghost, port: CTRL };
    ops.extend([
        Dial { slot: 0, to: ctrl() },
        Send { slot: 0, msg: bind_req(other, false) },
        Expect { slot: 0, want: Want::Exactly(redirect) },
        ExpectClosed { slot: 0 },
        Close { slot: 0 },
        Dial { slot: 0, to: ctrl() },
        Send { slot: 0, msg: bind_req(other, true) },
        Expect { slot: 0, want: Want::Bound(1) },
        Close { slot: 0 },
        Settle,
    ]);
    // D1: a superseded shard refuses the bind *and hangs up*.
    ops.extend([
        Dial { slot: 0, to: Dest::Fixed(outer, CTRL2) },
        Send { slot: 0, msg: bind_req(own, false) },
        Expect { slot: 0, want: Want::Exactly(CtrlMsg::BindRep { rdv_port: 0 }) },
        ExpectClosed { slot: 0 },
        Close { slot: 0 },
        Close { slot: 3 },
        Settle,
    ]);
    ops
}

fn check<H: PartialEq + Debug>(got: CtrlMsg<H>, want: &Want<H>, vars: &mut HashMap<usize, u16>) {
    match (want, got) {
        (Want::Exactly(m), got) => assert_eq!(&got, m),
        (Want::ConnectRefused, CtrlMsg::ConnectRep { ok: false, .. }) => {}
        (Want::Bound(var), CtrlMsg::BindRep { rdv_port }) if rdv_port != 0 => {
            vars.insert(*var, rdv_port);
        }
        (_, got) => panic!("unexpected reply {got:?}"),
    }
}

// ----- traces ----------------------------------------------------------

pub(crate) type Trace = Arc<Mutex<Vec<String>>>;

/// A hook that appends `event -> actions` (Debug-rendered) to `trace`.
fn recorder<H: Debug + 'static>(trace: &Trace) -> StepHook<H> {
    let trace = trace.clone();
    Arc::new(move |ev: &Event<H>, acts: &[Action<H>]| {
        if !acts.is_empty() {
            trace.lock().push(format!("{ev:?} -> {acts:?}"));
        }
    })
}

/// Rewrite every `<key><digits>` in `line`: ids through `table` (by
/// first appearance), ports only when ephemeral.
pub(crate) fn renumber(
    line: &str,
    keys: &[&str],
    tag: &str,
    table: &mut Vec<u64>,
    ports: bool,
) -> String {
    let mut out = String::new();
    let mut rest = line;
    'scan: while !rest.is_empty() {
        for key in keys {
            let Some(tail) = rest.strip_prefix(key) else {
                continue;
            };
            let digits = tail.chars().take_while(char::is_ascii_digit).count();
            let Ok(n) = tail[..digits].parse::<u64>() else {
                continue;
            };
            out.push_str(key);
            if ports && n < u64::from(EPHEMERAL) {
                out.push_str(&tail[..digits]);
            } else {
                let at = table.iter().position(|&x| x == n).unwrap_or_else(|| {
                    table.push(n);
                    table.len() - 1
                });
                out.push_str(&format!("{tag}{at}"));
            }
            rest = &tail[digits..];
            continue 'scan;
        }
        let ch = rest.chars().next().map_or(1, char::len_utf8);
        out.push_str(&rest[..ch]);
        rest = &rest[ch..];
    }
    out
}

/// Normalise one server's trace (see the module doc). `hosts` maps each
/// host's `Debug` spelling to its role name.
fn normalise(trace: &Trace, hosts: &[(String, &str)]) -> Vec<String> {
    let (mut conns, mut dials, mut ports) = (Vec::new(), Vec::new(), Vec::new());
    let lines = trace.lock().clone();
    lines
        .iter()
        .map(|line| {
            let mut line = line.clone();
            for (spelled, role) in hosts {
                line = line.replace(spelled, role);
            }
            let mut from = 0;
            while let Some(at) = line[from..].find("detail: \"") {
                let start = from + at + "detail: \"".len();
                let end = start + line[start..].find('"').unwrap_or(0);
                line.replace_range(start..end, "");
                from = start;
            }
            let line = renumber(&line, &["conn: ", " a: ", " b: "], "c", &mut conns, false);
            let line = renumber(&line, &["dial: "], "d", &mut dials, false);
            renumber(&line, &["port: Some(", "port: "], "rdv", &mut ports, true)
        })
        .collect()
}

/// Ports whose bind keys shard 0 of `members` owns (`.0`) and does not
/// own (`.1`), among `candidates`.
fn split_by_owner<H: HostId>(
    members: &[(H, u16)],
    edge: &H,
    candidates: impl Iterator<Item = u16>,
) -> (HashSet<u16>, HashSet<u16>) {
    let map = shard_map(1, members);
    candidates.partition(|p| map.owner(&edge.shard_key(*p)) == Some(0))
}

// ----- the real world --------------------------------------------------

const HOSTS: [&str; 4] = ["edge", "outer", "inner", "ghost"];

struct RealRun {
    net: VNet,
    traces: [Trace; 3],
    listeners: HashMap<u16, VListener>,
    slots: HashMap<usize, TcpStream>,
    vars: HashMap<usize, u16>,
}

impl RealRun {
    fn steps(&self) -> usize {
        self.traces.iter().map(|t| t.lock().len()).sum()
    }

    fn slot(&mut self, slot: usize) -> &mut TcpStream {
        self.slots.get_mut(&slot).expect("script uses an open slot")
    }

    fn play(&mut self, op: Op<String>) {
        match op {
            Op::Listen(port) => {
                let l = self.net.bind("edge", port).unwrap();
                self.listeners.insert(port, l);
            }
            Op::Dial { slot, to } => {
                let (host, port) = match to {
                    Dest::Fixed(h, p) => (h, p),
                    Dest::Rdv(var) => ("outer".to_string(), self.vars[&var]),
                };
                let s = self.net.dial("edge", &host, port).unwrap();
                s.set_read_timeout(Some(WAIT)).unwrap();
                self.slots.insert(slot, s);
            }
            Op::Send { slot, msg } => msg.write_to(self.slot(slot)).unwrap(),
            Op::Expect { slot, want } => {
                let got = CtrlMsg::read_from(self.slot(slot)).unwrap();
                check(got, &want, &mut self.vars);
            }
            Op::ExpectClosed { slot } => match self.slot(slot).read(&mut [0u8; 1]) {
                Ok(0) => {}
                Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                other => panic!("slot {slot} is still open: {other:?}"),
            },
            Op::Accept { port, slot } => {
                // The deadline is a stop fired after `WAIT`; an arrival
                // hangs up on the timer first.
                let listener = &self.listeners[&port];
                let (arrived, hung_up) = wacs_sync::bounded::<()>(1);
                let stop = listener.stop_handle();
                let timer = std::thread::spawn(move || {
                    if hung_up.recv_timeout(WAIT) == Err(wacs_sync::RecvTimeoutError::Timeout) {
                        stop.stop();
                    }
                });
                let s = listener.accept_until_stop();
                drop(arrived);
                timer.join().unwrap();
                let s = s.unwrap_or_else(|| panic!("nothing arrived on {port}: timed out"));
                s.set_read_timeout(Some(WAIT)).unwrap();
                self.slots.insert(slot, s);
            }
            Op::Pipe { from, to } => {
                self.slot(from).write_all(b"!").unwrap();
                let mut b = [0u8; 1];
                self.slot(to).read_exact(&mut b).unwrap();
            }
            Op::Close { slot } => drop(self.slots.remove(&slot)),
            // Quiescent = no server stepped for a while.
            Op::Settle => {
                let mut seen = self.steps();
                let mut quiet_since = Instant::now();
                while quiet_since.elapsed() < Duration::from_millis(150) {
                    std::thread::sleep(Duration::from_millis(10));
                    if self.steps() != seen {
                        seen = self.steps();
                        quiet_since = Instant::now();
                    }
                }
            }
        }
    }
}

/// `(outer, outer2, inner)` traces of the scenario on real sockets.
fn real_traces(own: u16, other: u16) -> [Vec<String>; 3] {
    let net = VNet::new();
    let site = net.add_site("lab", None);
    for h in HOSTS {
        net.add_host(h, site);
    }
    let traces: [Trace; 3] = Default::default();
    let [edge, outer, inner, ghost] = HOSTS.map(str::to_string);
    let members = vec![(outer.clone(), CTRL), (ghost.clone(), CTRL)];
    let limits = AdmissionLimits {
        max_total: 1,
        max_per_peer: 1,
    };
    let _inner = InnerServer::start_hooked(
        net.clone(),
        InnerConfig::new("inner").with_registration_required(),
        Some(recorder(&traces[2])),
    )
    .unwrap();
    let mut first = OuterConfig::new("outer")
        .with_inner("inner", NX)
        .with_fleet(members.clone(), 0);
    first.params.limits = limits;
    let _outer = OuterServer::start_hooked(net.clone(), first, Some(recorder(&traces[0]))).unwrap();
    let mut superseded = OuterConfig::new("outer")
        .with_inner("inner", NX)
        .with_fleet(members[1..].to_vec(), 1);
    superseded.params.ctrl_port = CTRL2;
    let _outer2 =
        OuterServer::start_hooked(net.clone(), superseded, Some(recorder(&traces[1]))).unwrap();
    let mut run = RealRun {
        net,
        traces,
        listeners: HashMap::new(),
        slots: HashMap::new(),
        vars: HashMap::new(),
    };
    for op in scenario([edge, outer, inner, ghost], own, other) {
        run.play(op);
    }
    let hosts: Vec<(String, &str)> = HOSTS.iter().map(|h| (format!("{h:?}"), *h)).collect();
    run.traces.each_ref().map(|t| normalise(t, &hosts))
}

// ----- the simulated world ---------------------------------------------

/// What arrived on a scripted flow, in order.
enum Got {
    Frame(SimMsg),
    Byte,
}

/// The opaque byte of [`Op::Pipe`].
struct Byte;

const SETTLED: u64 = 1;

/// The edge host as a simulation actor: plays the script one op at a
/// time, parking on whatever the current op waits for.
struct Edge {
    outer: NodeId,
    script: VecDeque<Op<NodeId>>,
    slots: HashMap<usize, FlowId>,
    inbox: HashMap<FlowId, VecDeque<Got>>,
    closed: HashSet<FlowId>,
    arrived: HashMap<u16, VecDeque<FlowId>>,
    vars: HashMap<usize, u16>,
    /// Parked on a `Dial` (its slot) or a `Settle`.
    dialing: Option<usize>,
    settling: bool,
    /// The current `Pipe`'s byte is on its way.
    piped: bool,
    /// Ops not yet completed, for the harness to read afterwards.
    left: Arc<Mutex<usize>>,
}

impl Edge {
    fn flow(&self, slot: usize) -> FlowId {
        self.slots[&slot]
    }

    /// Play ops until one has to wait.
    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        while self.dialing.is_none() && !self.settling {
            *self.left.lock() = self.script.len();
            let Some(op) = self.script.front().cloned() else {
                return;
            };
            match op {
                Op::Listen(port) => {
                    ctx.listen(port).unwrap();
                }
                Op::Dial { slot, to } => {
                    let to = match to {
                        Dest::Fixed(h, p) => (h, p),
                        Dest::Rdv(var) => (self.outer, self.vars[&var]),
                    };
                    self.dialing = Some(slot);
                    ctx.connect(to, slot as u64);
                }
                Op::Send { slot, msg } => ctx.send(self.flow(slot), CTRL_MSG_BYTES, msg).unwrap(),
                Op::Expect { slot, want } => {
                    let flow = self.flow(slot);
                    match self.inbox.entry(flow).or_default().pop_front() {
                        Some(Got::Frame(msg)) => check(msg, &want, &mut self.vars),
                        Some(Got::Byte) => panic!("a byte where a frame was expected"),
                        None if self.closed.contains(&flow) => {
                            panic!("slot {slot} closed before its reply arrived")
                        }
                        None => return,
                    }
                }
                Op::ExpectClosed { slot } => {
                    if !self.closed.contains(&self.flow(slot)) {
                        return;
                    }
                }
                Op::Accept { port, slot } => {
                    let Some(flow) = self.arrived.entry(port).or_default().pop_front() else {
                        return;
                    };
                    self.slots.insert(slot, flow);
                }
                Op::Pipe { from, to } => {
                    let inbox = self.inbox.entry(self.flow(to)).or_default();
                    if matches!(inbox.front(), Some(Got::Byte)) {
                        inbox.pop_front();
                        self.piped = false;
                    } else {
                        // Send once, then wait here for it to come out.
                        if !std::mem::replace(&mut self.piped, true) {
                            ctx.send(self.flow(from), 1, Byte).unwrap();
                        }
                        return;
                    }
                }
                Op::Close { slot } => {
                    if let Some(flow) = self.slots.remove(&slot) {
                        ctx.close(flow);
                    }
                }
                Op::Settle => {
                    self.settling = true;
                    ctx.set_timer(SimDuration::from_secs(1), SETTLED);
                }
            }
            self.script.pop_front();
        }
    }
}

impl Actor for Edge {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.advance(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        assert_eq!(token, SETTLED);
        self.settling = false;
        self.advance(ctx);
    }

    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        match ev {
            FlowEvent::Connected { flow, token, .. } => {
                assert_eq!(self.dialing.take(), Some(token as usize));
                self.slots.insert(token as usize, flow);
            }
            FlowEvent::Refused { peer, .. } => panic!("scripted dial to {peer:?} refused"),
            FlowEvent::Accepted {
                flow, listen_port, ..
            } => self.arrived.entry(listen_port).or_default().push_back(flow),
            FlowEvent::Closed { flow, .. } => {
                self.closed.insert(flow);
            }
        }
        self.advance(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let got = match msg.peek::<SimMsg>() {
            Some(m) => Got::Frame(m.clone()),
            None => Got::Byte,
        };
        self.inbox.entry(msg.flow).or_default().push_back(got);
        self.advance(ctx);
    }
}

/// The sim topology: four hosts on one unfiltered switch.
fn sim_topology() -> (Topology, [NodeId; 4]) {
    let mut topo = Topology::new();
    let site = topo.add_site("lab", None);
    let nodes = HOSTS.map(|h| topo.add_host(h, site));
    let sw = topo.add_switch("sw", site);
    for n in nodes {
        topo.add_link(n, sw, SimDuration::from_micros(100), 6.5e6);
    }
    (topo, nodes)
}

/// `(outer, outer2, inner)` traces of the scenario in virtual time.
fn sim_traces(own: u16, other: u16) -> [Vec<String>; 3] {
    let (topo, nodes) = sim_topology();
    let [edge, outer, inner, ghost] = nodes;
    let traces: [Trace; 3] = Default::default();
    let members = vec![(outer, CTRL), (ghost, CTRL)];
    let limits = AdmissionLimits {
        max_total: 1,
        max_per_peer: 1,
    };
    let model = RelayModel::default();
    let mut sim = Simulator::new(topo, 13);
    sim.spawn(
        inner,
        Box::new(
            SimInnerServer::new(NX, model)
                .with_registration_required()
                .hooked(recorder(&traces[2])),
        ),
    );
    sim.spawn(
        outer,
        Box::new(
            SimOuterServer::new(CTRL, Some((inner, NX)), model)
                .with_admission(limits)
                .with_fleet(members.clone(), 0)
                .hooked(recorder(&traces[0])),
        ),
    );
    sim.spawn(
        outer,
        Box::new(
            SimOuterServer::new(CTRL2, Some((inner, NX)), model)
                .with_fleet(members[1..].to_vec(), 1)
                .hooked(recorder(&traces[1])),
        ),
    );
    let script = scenario(nodes, own, other);
    let left = Arc::new(Mutex::new(script.len()));
    let actor = Edge {
        outer,
        script: script.into(),
        slots: HashMap::new(),
        inbox: HashMap::new(),
        closed: HashSet::new(),
        arrived: HashMap::new(),
        vars: HashMap::new(),
        dialing: None,
        settling: false,
        piped: false,
        left: left.clone(),
    };
    sim.spawn(edge, Box::new(actor));
    sim.run_until(SimTime(SimDuration::from_secs(120).nanos()));
    assert_eq!(
        *left.lock(),
        0,
        "the sim script stalled; traces: {:#?}",
        traces.each_ref().map(|t| t.lock().clone())
    );
    let hosts: Vec<(String, &str)> = nodes
        .iter()
        .zip(HOSTS)
        .map(|(n, h)| (format!("{n:?}"), h))
        .collect();
    traces.each_ref().map(|t| normalise(t, &hosts))
}

#[test]
fn real_and_sim_drivers_produce_identical_step_traces() {
    // Private ports whose bind keys the outer under test owns, and
    // does not own, under *both* worlds' host naming.
    let (_, nodes) = sim_topology();
    let range = || 20000..21000u16;
    let real_members = [("outer".to_string(), CTRL), ("ghost".to_string(), CTRL)];
    let sim_members = [(nodes[1], CTRL), (nodes[3], CTRL)];
    let (real_own, real_other) = split_by_owner(&real_members, &"edge".to_string(), range());
    let (sim_own, sim_other) = split_by_owner(&sim_members, &nodes[0], range());
    let own = *real_own.intersection(&sim_own).min().unwrap();
    let other = *real_other.intersection(&sim_other).min().unwrap();

    let real = real_traces(own, other);
    let sim = sim_traces(own, other);
    for (who, (real, sim)) in ["outer", "superseded outer", "inner"]
        .iter()
        .zip(real.iter().zip(&sim))
    {
        assert!(real.len() >= 2, "{who}: trace too short: {real:#?}");
        assert_eq!(real, sim, "{who}: the drivers disagree");
    }
    // The scenario really went where it was meant to go.
    let outer = real[0].join("\n");
    for needle in [
        "Busy",
        "Redirect",
        "RelayReq",
        "Bridge",
        "ok: false",
        "Unlisten",
    ] {
        assert!(outer.contains(needle), "no {needle} in:\n{outer}");
    }
    assert!(real[1].join("\n").contains("BindRep { rdv_port: 0 }"));
    assert!(real[2].join("\n").contains("RelayRep { ok: false }"));
}
