//! The discrete-event engine: world state, event dispatch, the sim-TCP
//! transfer model, and the [`Ctx`] API actors program against.
//!
//! ## Transfer model
//!
//! A message is split into chunks of `NetConfig::chunk_bytes` (the
//! relay/socket buffer granularity). Each chunk store-and-forwards
//! across every link of the static route: it is serialized onto the
//! link (`wire_bytes / bandwidth`, FIFO per link direction) and arrives
//! `latency` later. Chunks of one message pipeline across hops, so path
//! throughput approaches the bottleneck link bandwidth while multi-hop
//! latency still pays per-hop store-and-forward — exactly the cost
//! structure the paper measures around the Nexus Proxy.
//!
//! ## Firewalls
//!
//! Connection opens evaluate `filter_open` on every site boundary the
//! route crosses (outbound at the source's border, inbound at the
//! destination's). Data messages re-evaluate `filter_data`, so a
//! mid-run policy reload (the paper "temporarily changed the
//! configuration of the firewall") severs flows realistically.

use crate::actor::{Actor, ActorId, Delivery, FlowEvent, Payload, SendError};
use crate::event::EventQueue;
use crate::fault::{ChunkFate, FaultPlan, FaultState, RestartFactory};
use crate::flow::{
    CloseReason, Draining, Flow, FlowEnd, FlowId, FlowState, PortError, PortTable, RefuseReason,
};
use crate::rng::SimRng;
use crate::stats::Stats;
use crate::time::{SimDuration, SimTime};
use crate::topology::{LinkId, NodeId, SiteId, Topology};
use crate::trace::Trace;
use firewall::{Direction, Endpoint as FwEndpoint, Firewall, Proto, Verdict};
use std::collections::HashMap;

/// Tunables of the transfer model. Defaults are calibrated in
/// `wacs-core::calibration` against the paper's direct measurements.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Store-and-forward granularity (socket/relay buffer size).
    pub chunk_bytes: u64,
    /// TCP maximum segment size, for header accounting.
    pub mss: u64,
    /// Ethernet+IP+TCP header bytes per segment.
    pub header_per_segment: u64,
    /// Per-connection setup cost on top of the handshake RTT.
    pub connect_overhead: SimDuration,
    /// Protocol-stack cost charged once per message at the sender.
    pub per_message_overhead: SimDuration,
    /// Latency of a host talking to itself.
    pub loopback_latency: SimDuration,
    /// Loopback bandwidth (bytes/s).
    pub loopback_bandwidth: f64,
    /// How long a silently-dropped SYN takes to surface as `Refused`.
    pub connect_timeout: SimDuration,
    /// Re-run firewall data filtering per message (needed for the
    /// policy-flip failure-injection experiments; tiny cost).
    pub refilter_data: bool,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            chunk_bytes: 8192,
            mss: 1460,
            header_per_segment: 58,
            connect_overhead: SimDuration::from_micros(300),
            per_message_overhead: SimDuration::from_micros(150),
            loopback_latency: SimDuration::from_micros(20),
            loopback_bandwidth: 200e6,
            connect_timeout: SimDuration::from_millis(500),
            refilter_data: true,
        }
    }
}

impl NetConfig {
    /// Bytes on the wire for a chunk of `bytes` payload bytes.
    pub fn wire_bytes(&self, bytes: u64) -> u64 {
        let segments = bytes.div_ceil(self.mss).max(1);
        bytes + segments * self.header_per_segment
    }
}

/// In-flight message content.
struct MsgDesc {
    size: u64,
    payload: Payload,
    sent_at: SimTime,
}

/// One chunk in transit along a flow's path.
struct Transit {
    flow: FlowId,
    /// true = travelling a→b (initiator to acceptor).
    forward: bool,
    bytes: u64,
    /// Present on the final chunk of a message.
    msg: Option<MsgDesc>,
    /// Index of the path node the chunk has just arrived at.
    hop: usize,
    /// End-to-end transmission attempts already lost to fault
    /// injection (0 on first send).
    attempt: u32,
}

enum Event {
    Start(ActorId),
    Timer(ActorId, u64),
    Flow(ActorId, FlowEvent),
    Chunk(Transit),
    Loopback {
        actor: ActorId,
        flow: FlowId,
        forward: bool,
        msg: MsgDesc,
    },
    /// Fault injection: kill an actor abruptly.
    FaultCrash(ActorId),
    /// Fault injection: revive a crashed actor from its restart factory.
    FaultRestart(ActorId),
}

/// Everything except the actors themselves (split so actor callbacks
/// can hold `&mut World` while the engine holds the actor).
pub struct World {
    pub topo: Topology,
    pub config: NetConfig,
    now: SimTime,
    queue: EventQueue<Event>,
    flows: HashMap<FlowId, Flow>,
    next_flow: u64,
    ports: PortTable,
    firewalls: Vec<Option<Firewall>>,
    /// `link_free[link][dir]`: when the link direction next idles.
    link_free: Vec<[SimTime; 2]>,
    pub stats: Stats,
    /// Installed observability sink (None = metrics-free run).
    obs: Option<crate::obs::NetObs>,
    rng: SimRng,
    /// Installed fault-injection state (None = fault-free run).
    faults: Option<FaultState>,
    pub trace: Trace,
    stop_requested: bool,
    pending_spawns: Vec<(NodeId, Box<dyn Actor>)>,
    pending_exits: Vec<ActorId>,
    actors_len: usize,
    /// Cached routes.
    routes: HashMap<(NodeId, NodeId), Option<std::sync::Arc<Vec<LinkId>>>>,
}

impl World {
    fn new(topo: Topology, config: NetConfig, seed: u64) -> Self {
        let firewalls = topo
            .sites
            .iter()
            .map(|s| s.policy.clone().map(Firewall::new))
            .collect();
        let mut stats = Stats::default();
        stats.ensure_links(topo.links.len());
        let link_free = vec![[SimTime::ZERO; 2]; topo.links.len()];
        World {
            topo,
            config,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            flows: HashMap::new(),
            next_flow: 1,
            ports: PortTable::default(),
            firewalls,
            link_free,
            stats,
            obs: None,
            rng: SimRng::seed_from_u64(seed),
            faults: None,
            trace: Trace::default(),
            stop_requested: false,
            pending_spawns: Vec::new(),
            pending_exits: Vec::new(),
            actors_len: 0,
            routes: HashMap::new(),
        }
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    fn route(&mut self, a: NodeId, b: NodeId) -> Option<std::sync::Arc<Vec<LinkId>>> {
        if let Some(r) = self.routes.get(&(a, b)) {
            return r.clone();
        }
        let r = self.topo.route(a, b).map(std::sync::Arc::new);
        self.routes.insert((a, b), r.clone());
        r
    }

    /// Firewall verdict for a connection-opening packet traversing
    /// `path` from `src_node`. Applies outbound filtering when leaving
    /// a firewalled site and inbound filtering when entering one.
    fn filter_open_path(
        &mut self,
        src_node: NodeId,
        path: &[LinkId],
        src: FwEndpoint,
        dst: FwEndpoint,
    ) -> Verdict {
        for (from, to) in self.topo.site_crossings(src_node, path) {
            for (site, dir) in [(from, Direction::Outbound), (to, Direction::Inbound)] {
                if let Some(fw) = self.firewalls[site.0 as usize].as_mut() {
                    if !fw.filter_open(dir, Proto::Tcp, src, dst).passed() {
                        return Verdict::Drop;
                    }
                }
            }
        }
        Verdict::Pass
    }

    fn filter_data_path(
        &mut self,
        src_node: NodeId,
        path: &[LinkId],
        src: FwEndpoint,
        dst: FwEndpoint,
    ) -> Verdict {
        for (from, to) in self.topo.site_crossings(src_node, path) {
            for (site, dir) in [(from, Direction::Outbound), (to, Direction::Inbound)] {
                if let Some(fw) = self.firewalls[site.0 as usize].as_mut() {
                    if !fw.filter_data(dir, Proto::Tcp, src, dst).passed() {
                        return Verdict::Drop;
                    }
                }
            }
        }
        Verdict::Pass
    }

    fn teardown_conntrack(&mut self, flow: &Flow) {
        let src = FwEndpoint::new(flow.a.node.0, flow.a.port);
        let dst = FwEndpoint::new(flow.b.node.0, flow.b.port);
        for fw in self.firewalls.iter_mut().flatten() {
            fw.close(src, dst, Proto::Tcp);
        }
    }

    /// Schedule the chunks of a message along a flow. `forward` is the
    /// wire direction (a→b or b→a). Non-final chunks carry no payload;
    /// the final chunk's arrival delivers the message.
    fn send_message(&mut self, flow_id: FlowId, forward: bool, msg: MsgDesc) {
        let start = self.now + self.config.per_message_overhead;
        let size = msg.size;
        let chunk = self.config.chunk_bytes;
        let nchunks = size.div_ceil(chunk).max(1);
        // All non-final chunks carry no payload.
        for i in 0..nchunks - 1 {
            self.queue.schedule(
                start,
                Event::Chunk(Transit {
                    flow: flow_id,
                    forward,
                    bytes: chunk.min(size - i * chunk),
                    msg: None,
                    hop: 0,
                    attempt: 0,
                }),
            );
        }
        let last_bytes = size - (nchunks - 1) * chunk;
        self.queue.schedule(
            start,
            Event::Chunk(Transit {
                flow: flow_id,
                forward,
                bytes: last_bytes,
                msg: Some(msg),
                hop: 0,
                attempt: 0,
            }),
        );
        self.stats.messages_sent += 1;
    }

    /// If an orderly closer sending `forward` on `flow` has nothing left
    /// in flight, its peer now hears the close.
    fn drained(&mut self, flow: FlowId, forward: bool) {
        let Some(f) = self.flows.get_mut(&flow) else {
            return;
        };
        if f.in_flight[usize::from(forward)] > 0 {
            return;
        }
        let Some(d) = f.draining.filter(|d| d.forward == forward) else {
            return;
        };
        f.draining = None;
        let peer = if forward { f.b.actor } else { f.a.actor };
        let at = self.now.max(d.not_before);
        let reason = CloseReason::Peer;
        self.queue
            .schedule(at, Event::Flow(peer, FlowEvent::Closed { flow, reason }));
    }
}

/// Handle given to actor callbacks.
pub struct Ctx<'w> {
    world: &'w mut World,
    actor: ActorId,
    host: NodeId,
}

impl<'w> Ctx<'w> {
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    pub fn me(&self) -> ActorId {
        self.actor
    }

    pub fn host(&self) -> NodeId {
        self.host
    }

    pub fn host_name(&self) -> &str {
        &self.world.topo.node(self.host).name
    }

    /// This host's configured compute rate (work units / sim second /
    /// processor).
    pub fn cpu_rate(&self) -> f64 {
        self.world.topo.node(self.host).cpu_rate
    }

    pub fn cpus(&self) -> u32 {
        self.world.topo.node(self.host).cpus
    }

    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }

    pub fn config(&self) -> &NetConfig {
        &self.world.config
    }

    pub fn topo(&self) -> &Topology {
        &self.world.topo
    }

    pub fn trace(&mut self, line: impl FnOnce() -> String) {
        let now = self.world.now;
        self.world.trace.log(now, line);
    }

    /// Fire `on_timer(token)` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.world.now + delay;
        self.world
            .queue
            .schedule(at, Event::Timer(self.actor, token));
    }

    /// Begin listening. `port == 0` picks an ephemeral port. Returns
    /// the bound port.
    pub fn listen(&mut self, port: u16) -> Result<u16, PortError> {
        self.world.ports.listen(self.host, port, self.actor)
    }

    pub fn unlisten(&mut self, port: u16) -> bool {
        self.world.ports.unlisten(self.host, port)
    }

    /// Initiate a connection to `peer`. The outcome arrives later as a
    /// [`FlowEvent::Connected`] or [`FlowEvent::Refused`] carrying
    /// `token`.
    pub fn connect(&mut self, peer: (NodeId, u16), token: u64) {
        let me = self.actor;
        let src_node = self.host;
        let (dst_node, dst_port) = peer;
        let src_port = self.world.ports.ephemeral(src_node);
        let now = self.world.now;

        let Some(path) = self.world.route(src_node, dst_node) else {
            let at = now + SimDuration::from_micros(10);
            self.world.queue.schedule(
                at,
                Event::Flow(
                    me,
                    FlowEvent::Refused {
                        token,
                        peer,
                        reason: RefuseReason::Unreachable,
                    },
                ),
            );
            self.world.stats.flows_refused += 1;
            return;
        };

        let src_ep = FwEndpoint::new(src_node.0, src_port);
        let dst_ep = FwEndpoint::new(dst_node.0, dst_port);
        if !self
            .world
            .filter_open_path(src_node, &path, src_ep, dst_ep)
            .passed()
        {
            // Deny rules drop silently: the connect only fails at the
            // timeout.
            let at = now + self.world.config.connect_timeout;
            self.world.queue.schedule(
                at,
                Event::Flow(
                    me,
                    FlowEvent::Refused {
                        token,
                        peer,
                        reason: RefuseReason::Filtered,
                    },
                ),
            );
            self.world.stats.flows_refused += 1;
            self.world
                .trace
                .log(now, || format!("FW-DROP connect {src_ep}->{dst_ep}"));
            return;
        }

        let Some(listener) = self.world.ports.listener(dst_node, dst_port) else {
            // RST comes back after one round trip.
            let rtt = SimDuration(self.world.topo.path_latency(&path).nanos() * 2);
            let at = now + rtt + SimDuration::from_micros(10);
            self.world.queue.schedule(
                at,
                Event::Flow(
                    me,
                    FlowEvent::Refused {
                        token,
                        peer,
                        reason: RefuseReason::NoListener,
                    },
                ),
            );
            self.world.stats.flows_refused += 1;
            return;
        };

        let id = FlowId(self.world.next_flow);
        self.world.next_flow += 1;
        let nodes = std::sync::Arc::new(self.world.topo.path_nodes(src_node, &path));
        let flow = Flow {
            id,
            a: FlowEnd {
                node: src_node,
                port: src_port,
                actor: me,
            },
            b: FlowEnd {
                node: dst_node,
                port: dst_port,
                actor: listener,
            },
            path: path.clone(),
            nodes,
            state: FlowState::Connecting,
            opened_at: now,
            messages: 0,
            in_flight: [0; 2],
            draining: None,
        };
        let rtt = SimDuration(self.world.topo.path_latency(&path).nanos() * 2);
        let done = now + rtt + self.world.config.connect_overhead;
        self.world.flows.insert(id, flow);
        self.world.stats.flows_opened += 1;
        self.world.queue.schedule(
            done,
            Event::Flow(
                listener,
                FlowEvent::Accepted {
                    flow: id,
                    listen_port: dst_port,
                    peer: (src_node, src_port),
                },
            ),
        );
        self.world.queue.schedule(
            done,
            Event::Flow(
                me,
                FlowEvent::Connected {
                    flow: id,
                    token,
                    peer,
                },
            ),
        );
        self.world
            .trace
            .log(now, || format!("CONNECT {src_ep}->{dst_ep} flow={}", id.0));
    }

    /// Send a message of `size` declared bytes carrying `payload`.
    pub fn send<T: std::any::Any + Send>(
        &mut self,
        flow: FlowId,
        size: u64,
        payload: T,
    ) -> Result<(), SendError> {
        self.send_boxed(flow, size, Box::new(payload))
    }

    /// Like [`Ctx::send`], for an already-boxed payload (relays forward
    /// payloads they never inspect).
    pub fn send_boxed(
        &mut self,
        flow: FlowId,
        size: u64,
        payload: Payload,
    ) -> Result<(), SendError> {
        let me = self.actor;
        let now = self.world.now;
        let Some(f) = self.world.flows.get_mut(&flow) else {
            return Err(SendError::UnknownFlow);
        };
        if f.state != FlowState::Established {
            return Err(SendError::NotEstablished);
        }
        let Some((mine, peer)) = f.ends_for(me) else {
            return Err(SendError::NotYourFlow);
        };
        let forward = f.is_initiator(me);
        let (src_node, src_ep, dst_ep, peer_actor) = (
            mine.node,
            FwEndpoint::new(mine.node.0, mine.port),
            FwEndpoint::new(peer.node.0, peer.port),
            peer.actor,
        );
        f.messages += 1;
        f.in_flight[usize::from(forward)] += 1;
        let path = f.path.clone();
        let msg = MsgDesc {
            size,
            payload,
            sent_at: now,
        };

        if path.is_empty() {
            // Loopback delivery.
            let d = self.world.config.loopback_latency
                + SimDuration::from_secs_f64(size as f64 / self.world.config.loopback_bandwidth);
            self.world.stats.messages_sent += 1;
            self.world.queue.schedule(
                now + d,
                Event::Loopback {
                    actor: peer_actor,
                    flow,
                    forward,
                    msg,
                },
            );
            return Ok(());
        }

        if self.world.config.refilter_data {
            // The path stored on the flow is a→b; filtering needs the
            // travel direction's origin node.
            let origin = src_node;
            let path_dir: Vec<LinkId> = if forward {
                path.as_ref().clone()
            } else {
                path.iter().rev().copied().collect()
            };
            if !self
                .world
                .filter_data_path(origin, &path_dir, src_ep, dst_ep)
                .passed()
            {
                // Firewall started eating this flow: sever it.
                self.world.stats.messages_filtered += 1;
                let Some(f) = self.world.flows.get_mut(&flow) else {
                    return Ok(());
                };
                f.state = FlowState::Closed;
                let (a_actor, b_actor) = (f.a.actor, f.b.actor);
                let fc = f.clone();
                self.world.teardown_conntrack(&fc);
                self.world.stats.flows_closed += 1;
                for act in [a_actor, b_actor] {
                    self.world.queue.schedule(
                        now + SimDuration::from_millis(1),
                        Event::Flow(
                            act,
                            FlowEvent::Closed {
                                flow,
                                reason: CloseReason::Filtered,
                            },
                        ),
                    );
                }
                return Ok(());
            }
        }

        self.world.send_message(flow, forward, msg);
        Ok(())
    }

    /// Close a flow, orderly for the closer's direction: messages it
    /// already sent are still delivered, and the peer hears
    /// `Closed{Peer}` after the last of them (no earlier than one-way
    /// latency from now). Traffic toward the closer is dropped.
    pub fn close(&mut self, flow: FlowId) {
        let me = self.actor;
        let now = self.world.now;
        let Some(f) = self.world.flows.get_mut(&flow) else {
            return;
        };
        if f.state == FlowState::Closed {
            return;
        }
        f.state = FlowState::Closed;
        if f.ends_for(me).is_none() {
            return;
        }
        let forward = f.is_initiator(me);
        f.draining = Some(Draining {
            forward,
            not_before: now + self.world.topo.path_latency(&f.path),
        });
        let fc = f.clone();
        self.world.teardown_conntrack(&fc);
        self.world.stats.flows_closed += 1;
        self.world.drained(flow, forward);
        self.world.queue.schedule(
            now,
            Event::Flow(
                me,
                FlowEvent::Closed {
                    flow,
                    reason: CloseReason::Local,
                },
            ),
        );
    }

    /// Spawn a new actor on `host` (applied after this callback
    /// returns). Returns the id it will have.
    pub fn spawn(&mut self, host: NodeId, actor: Box<dyn Actor>) -> ActorId {
        let id = self.world.actors_len + self.world.pending_spawns.len();
        self.world.pending_spawns.push((host, actor));
        id
    }

    /// Terminate this actor after the current callback.
    pub fn exit(&mut self) {
        let me = self.actor;
        self.world.pending_exits.push(me);
    }

    /// Stop the whole simulation after the current callback.
    pub fn stop_simulation(&mut self) {
        self.world.stop_requested = true;
    }

    /// Look up the flow's peer `(node, port)` as seen by this actor.
    pub fn flow_peer(&self, flow: FlowId) -> Option<(NodeId, u16)> {
        let f = self.world.flows.get(&flow)?;
        let (_, peer) = f.ends_for(self.actor)?;
        Some((peer.node, peer.port))
    }

    /// Is the flow currently established?
    pub fn flow_established(&self, flow: FlowId) -> bool {
        self.world
            .flows
            .get(&flow)
            .is_some_and(|f| f.state == FlowState::Established)
    }
}

struct Slot {
    host: NodeId,
    actor: Option<Box<dyn Actor>>,
    alive: bool,
}

/// The simulator: world + actor registry + run loop.
pub struct Simulator {
    world: World,
    actors: Vec<Slot>,
    /// Restart factories for crash/restart fault specs.
    restarts: HashMap<ActorId, (SimDuration, RestartFactory)>,
}

impl Simulator {
    pub fn new(topo: Topology, config: NetConfig, seed: u64) -> Self {
        Simulator {
            world: World::new(topo, config, seed),
            actors: Vec::new(),
            restarts: HashMap::new(),
        }
    }

    /// Install a fault-injection plan. Offsets in the plan are
    /// relative to the current virtual time. Installing a second plan
    /// replaces the steady-state faults (drops, windows) but keeps any
    /// already-scheduled crashes.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let now = self.world.now;
        let (crashes, state) = plan.into_parts(now);
        for c in crashes {
            self.world.queue.schedule(c.at, Event::FaultCrash(c.actor));
            if let Some(restart) = c.restart {
                self.restarts.insert(c.actor, restart);
            }
        }
        self.world.faults = Some(state);
    }

    /// Attach a `wacs-obs` registry: the engine records per-hop and
    /// per-link transit latencies, delivery latencies, and fault events
    /// into it for the rest of the run. All values derive from
    /// `SimTime`, so same-seed runs snapshot byte-identically.
    pub fn install_obs(&mut self, registry: wacs_obs::Registry) {
        let links = self.world.topo.links.len();
        self.world.obs = Some(crate::obs::NetObs::new(registry, links));
    }

    /// The installed observability sink, if any.
    pub fn obs(&self) -> Option<&crate::obs::NetObs> {
        self.world.obs.as_ref()
    }

    /// Install an actor on a host; its `on_start` runs when the
    /// simulation reaches the current virtual time.
    pub fn spawn(&mut self, host: NodeId, actor: Box<dyn Actor>) -> ActorId {
        assert!(
            matches!(
                self.world.topo.node(host).kind,
                crate::topology::NodeKind::Host
            ),
            "actors can only run on hosts, not switches"
        );
        let id = self.actors.len();
        self.actors.push(Slot {
            host,
            actor: Some(actor),
            alive: true,
        });
        self.world.actors_len = self.actors.len();
        let now = self.world.now;
        self.world.queue.schedule(now, Event::Start(id));
        id
    }

    pub fn now(&self) -> SimTime {
        self.world.now
    }

    pub fn stats(&self) -> &Stats {
        &self.world.stats
    }

    pub fn trace(&self) -> &Trace {
        &self.world.trace
    }

    pub fn enable_trace(&mut self) {
        self.world.trace.enable();
    }

    pub fn topo(&self) -> &Topology {
        &self.world.topo
    }

    /// Mutable access to a site's firewall, for mid-run policy reloads
    /// (failure injection / the paper's temporary reconfiguration).
    pub fn firewall_mut(&mut self, site: SiteId) -> Option<&mut Firewall> {
        self.world.firewalls[site.0 as usize].as_mut()
    }

    pub fn firewall(&self, site: SiteId) -> Option<&Firewall> {
        self.world.firewalls[site.0 as usize].as_ref()
    }

    /// Kill an actor abruptly: listeners vanish, flows reset with
    /// `PeerCrashed`.
    pub fn kill_actor(&mut self, id: ActorId) {
        if id >= self.actors.len() || !self.actors[id].alive {
            return;
        }
        self.actors[id].alive = false;
        self.actors[id].actor = None;
        self.world.ports.drop_actor(id);
        let now = self.world.now;
        let mut broken: Vec<(FlowId, ActorId, Flow)> = self
            .world
            .flows
            .values()
            .filter(|f| f.state != FlowState::Closed && (f.a.actor == id || f.b.actor == id))
            .map(|f| {
                let peer = if f.a.actor == id {
                    f.b.actor
                } else {
                    f.a.actor
                };
                (f.id, peer, f.clone())
            })
            .collect();
        // `flows` is a HashMap: the peers must hear their resets in an
        // order that does not depend on its iteration.
        broken.sort_by_key(|(fid, ..)| *fid);
        for (fid, peer, fc) in broken {
            if let Some(f) = self.world.flows.get_mut(&fid) {
                f.state = FlowState::Closed;
            }
            self.world.teardown_conntrack(&fc);
            self.world.stats.flows_closed += 1;
            self.world.queue.schedule(
                now,
                Event::Flow(
                    peer,
                    FlowEvent::Closed {
                        flow: fid,
                        reason: CloseReason::PeerCrashed,
                    },
                ),
            );
        }
    }

    /// Run until the queue drains or an actor requested a stop.
    /// Returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime(u64::MAX))
    }

    /// Run until `deadline` (events at exactly `deadline` still fire).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while !self.world.stop_requested {
            let Some(t) = self.world.queue.peek_time() else {
                break;
            };
            if t > deadline {
                self.world.now = deadline;
                break;
            }
            let Some((t, ev)) = self.world.queue.pop() else {
                break;
            };
            debug_assert!(t >= self.world.now, "event time regression");
            self.world.now = t;
            self.world.stats.events_processed += 1;
            self.dispatch(ev);
            self.apply_pending();
        }
        self.world.now
    }

    fn apply_pending(&mut self) {
        while !self.world.pending_spawns.is_empty() || !self.world.pending_exits.is_empty() {
            let spawns = std::mem::take(&mut self.world.pending_spawns);
            for (host, actor) in spawns {
                self.spawn(host, actor);
            }
            let exits = std::mem::take(&mut self.world.pending_exits);
            for id in exits {
                self.kill_actor(id);
            }
        }
    }

    fn with_actor(&mut self, id: ActorId, f: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>)) {
        if id >= self.actors.len() || !self.actors[id].alive {
            return;
        }
        let Some(mut actor) = self.actors[id].actor.take() else {
            return;
        };
        let host = self.actors[id].host;
        {
            let mut ctx = Ctx {
                world: &mut self.world,
                actor: id,
                host,
            };
            f(actor.as_mut(), &mut ctx);
        }
        // The actor may have exited during the callback.
        if self.actors[id].alive {
            self.actors[id].actor = Some(actor);
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Start(id) => self.with_actor(id, |a, ctx| a.on_start(ctx)),
            Event::Timer(id, token) => self.with_actor(id, |a, ctx| a.on_timer(ctx, token)),
            Event::Flow(id, fe) => {
                // Establish flow state transitions before informing actors.
                if let FlowEvent::Connected { flow, .. } | FlowEvent::Accepted { flow, .. } = &fe {
                    if let Some(f) = self.world.flows.get_mut(flow) {
                        if f.state == FlowState::Connecting {
                            f.state = FlowState::Established;
                        }
                    }
                }
                self.with_actor(id, |a, ctx| a.on_flow(ctx, fe));
            }
            Event::Loopback {
                actor,
                flow,
                forward,
                msg,
            } => {
                let now = self.world.now;
                self.world.stats.record_delivery(msg.size, msg.sent_at, now);
                if let Some(o) = &self.world.obs {
                    o.record_delivery(msg.sent_at, now);
                }
                self.with_actor(actor, |a, ctx| {
                    a.on_message(
                        ctx,
                        Delivery {
                            flow,
                            size: msg.size,
                            payload: msg.payload,
                            sent_at: msg.sent_at,
                        },
                    )
                });
                self.landed(flow, forward);
            }
            Event::Chunk(t) => self.handle_chunk(t),
            Event::FaultCrash(id) => {
                let now = self.world.now;
                self.world.stats.actor_crashes += 1;
                if let Some(o) = &self.world.obs {
                    o.actor_crashed();
                }
                self.world
                    .trace
                    .log(now, || format!("FAULT crash actor {id}"));
                self.kill_actor(id);
                if let Some((after, _)) = self.restarts.get(&id) {
                    let at = now + *after;
                    self.world.queue.schedule(at, Event::FaultRestart(id));
                }
            }
            Event::FaultRestart(id) => {
                if id < self.actors.len() && !self.actors[id].alive {
                    if let Some((_, factory)) = self.restarts.get_mut(&id) {
                        let fresh = factory();
                        self.actors[id].alive = true;
                        self.actors[id].actor = Some(fresh);
                        self.world.stats.actor_restarts += 1;
                        if let Some(o) = &self.world.obs {
                            o.actor_restarted();
                        }
                        let now = self.world.now;
                        self.world
                            .trace
                            .log(now, || format!("FAULT restart actor {id}"));
                        self.world.queue.schedule(now, Event::Start(id));
                    }
                }
            }
        }
    }

    /// Close a flow from inside the engine (transport gave up) and
    /// notify both endpoint actors immediately.
    fn sever_flow(&mut self, fid: FlowId, reason: CloseReason) {
        let now = self.world.now;
        let Some(f) = self.world.flows.get_mut(&fid) else {
            return;
        };
        if f.state == FlowState::Closed {
            // An orderly close was still draining: what is left is
            // lost, and the peer hears of the end now.
            if let Some(d) = f.draining.take() {
                let peer = if d.forward { f.b.actor } else { f.a.actor };
                self.world.queue.schedule(
                    now,
                    Event::Flow(peer, FlowEvent::Closed { flow: fid, reason }),
                );
            }
            return;
        }
        f.state = FlowState::Closed;
        let ends = [f.a.actor, f.b.actor];
        let fc = f.clone();
        self.world.teardown_conntrack(&fc);
        self.world.stats.flows_closed += 1;
        for act in ends {
            self.world.queue.schedule(
                now,
                Event::Flow(act, FlowEvent::Closed { flow: fid, reason }),
            );
        }
    }

    /// A chunk was lost to fault injection: retransmit end-to-end after
    /// the RTO, or sever the flow once the attempt budget is exhausted.
    fn drop_chunk(&mut self, t: Transit) {
        self.world.stats.chunks_dropped += 1;
        if let Some(o) = &self.world.obs {
            o.chunk_dropped();
        }
        let Some(policy) = self.world.faults.as_ref().map(|f| f.retransmit) else {
            return;
        };
        let now = self.world.now;
        if t.attempt + 1 < policy.max_attempts {
            self.world.stats.retransmits += 1;
            if let Some(o) = &self.world.obs {
                o.retransmit();
            }
            let flow = t.flow;
            self.world.trace.log(now, || {
                format!(
                    "FAULT drop flow={} attempt={} (retransmit)",
                    flow.0, t.attempt
                )
            });
            self.world.queue.schedule(
                now + policy.rto,
                Event::Chunk(Transit {
                    hop: 0,
                    attempt: t.attempt + 1,
                    ..t
                }),
            );
        } else {
            self.world.stats.messages_lost += 1;
            if let Some(o) = &self.world.obs {
                o.message_lost();
            }
            let flow = t.flow;
            self.world.trace.log(now, || {
                format!("FAULT drop flow={} attempt={} (give up)", flow.0, t.attempt)
            });
            self.sever_flow(flow, CloseReason::Lost);
        }
    }

    /// A message travelling `forward` on `flow` was delivered.
    fn landed(&mut self, flow: FlowId, forward: bool) {
        if let Some(f) = self.world.flows.get_mut(&flow) {
            let left = &mut f.in_flight[usize::from(forward)];
            *left = left.saturating_sub(1);
        }
        self.world.drained(flow, forward);
    }

    fn handle_chunk(&mut self, t: Transit) {
        let (path, nodes, recv_actor) = {
            let Some(f) = self.world.flows.get(&t.flow) else {
                return; // flow evaporated (killed actor)
            };
            // Dead flows drop their in-flight traffic, except what an
            // orderly closer had already sent.
            let draining = f.draining.is_some_and(|d| d.forward == t.forward);
            if f.state == FlowState::Closed && !draining {
                return;
            }
            let recv = if t.forward { f.b.actor } else { f.a.actor };
            (f.path.clone(), f.nodes.clone(), recv)
        };
        let len = nodes.len();
        // Node/link order in travel direction.
        let node_at = |i: usize| {
            if t.forward {
                nodes[i]
            } else {
                nodes[len - 1 - i]
            }
        };
        let link_at = |i: usize| {
            if t.forward {
                path[i]
            } else {
                path[len - 2 - i]
            }
        };

        if t.hop == len - 1 {
            // Arrived at the destination host.
            if let Some(msg) = t.msg {
                let now = self.world.now;
                self.world.stats.record_delivery(msg.size, msg.sent_at, now);
                if let Some(o) = &self.world.obs {
                    o.record_delivery(msg.sent_at, now);
                }
                let flow = t.flow;
                self.with_actor(recv_actor, |a, ctx| {
                    a.on_message(
                        ctx,
                        Delivery {
                            flow,
                            size: msg.size,
                            payload: msg.payload,
                            sent_at: msg.sent_at,
                        },
                    )
                });
                self.landed(flow, t.forward);
            }
            return;
        }

        // Forward over the next link.
        let lid = link_at(t.hop);
        let from = node_at(t.hop);
        let (bandwidth, latency, link_a, inter_site) = {
            let link = self.world.topo.link(lid);
            let inter = self.world.topo.site_of(link.a) != self.world.topo.site_of(link.b);
            (link.bandwidth, link.latency, link.a, inter)
        };
        let mut extra_latency = SimDuration::ZERO;
        if self.world.faults.is_some() {
            let now = self.world.now;
            // Split borrow: fate needs &mut faults only.
            let fate = self
                .world
                .faults
                .as_mut()
                .map(|f| f.chunk_fate(lid, now, inter_site));
            match fate {
                Some(ChunkFate::Drop) => {
                    self.drop_chunk(t);
                    return;
                }
                Some(ChunkFate::Pass { extra }) => extra_latency = extra,
                None => {}
            }
        }
        let dir = if link_a == from { 0 } else { 1 };
        let wire = self.world.config.wire_bytes(t.bytes);
        let ser = SimDuration::from_secs_f64(wire as f64 / bandwidth);
        let free = self.world.link_free[lid.0 as usize][dir];
        let depart = if free > self.world.now {
            free
        } else {
            self.world.now
        };
        let finish = depart + ser;
        self.world.link_free[lid.0 as usize][dir] = finish;
        let arrive = finish + latency + extra_latency;
        self.world.stats.record_chunk(lid, dir, wire, ser);
        if let Some(o) = &self.world.obs {
            o.record_hop(lid, arrive.since(self.world.now));
        }
        self.world.queue.schedule(
            arrive,
            Event::Chunk(Transit {
                hop: t.hop + 1,
                ..t
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use firewall::Policy;
    use std::sync::Arc;
    use wacs_sync::Mutex;

    /// Shared observation sink for test actors.
    type Log = Arc<Mutex<Vec<String>>>;

    struct Echo {
        log: Log,
        port: u16,
    }

    impl Actor for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let p = ctx.listen(self.port).unwrap();
            assert_eq!(p, self.port);
        }
        fn on_flow(&mut self, _ctx: &mut Ctx<'_>, ev: FlowEvent) {
            if let FlowEvent::Accepted { .. } = ev {
                self.log.lock().push("accepted".into());
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
            let flow = msg.flow;
            let size = msg.size;
            self.log.lock().push(format!("echo {size}"));
            ctx.send_boxed(flow, size, msg.payload).ok();
        }
    }

    struct Pinger {
        log: Log,
        peer: (NodeId, u16),
        size: u64,
        sent_at: Option<SimTime>,
        flow: Option<FlowId>,
    }

    impl Actor for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.peer, 7);
        }
        fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
            match ev {
                FlowEvent::Connected { flow, token, .. } => {
                    assert_eq!(token, 7);
                    self.flow = Some(flow);
                    self.sent_at = Some(ctx.now());
                    ctx.send(flow, self.size, ()).unwrap();
                }
                FlowEvent::Refused { reason, .. } => {
                    self.log.lock().push(format!("refused {reason:?}"));
                    ctx.stop_simulation();
                }
                _ => {}
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Delivery) {
            let rtt = ctx.now().since(self.sent_at.unwrap());
            self.log.lock().push(format!("rtt_ns {}", rtt.nanos()));
            ctx.stop_simulation();
        }
    }

    fn two_host_topo(policy_b: Option<Policy>) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let sa = t.add_site("A", None);
        let sb = t.add_site("B", policy_b);
        let ha = t.add_host("ha", sa);
        let swa = t.add_switch("swa", sa);
        let swb = t.add_switch("swb", sb);
        let hb = t.add_host("hb", sb);
        t.add_link(ha, swa, SimDuration::from_micros(50), 12.5e6);
        t.add_link(swa, swb, SimDuration::from_millis(2), 1e6);
        t.add_link(swb, hb, SimDuration::from_micros(50), 12.5e6);
        (t, ha, hb)
    }

    fn run_pingpong(policy_b: Option<Policy>, size: u64) -> (Vec<String>, Stats) {
        let (t, ha, hb) = two_host_topo(policy_b);
        let mut sim = Simulator::new(t, NetConfig::default(), 1);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(
            hb,
            Box::new(Echo {
                log: log.clone(),
                port: 5000,
            }),
        );
        sim.spawn(
            ha,
            Box::new(Pinger {
                log: log.clone(),
                peer: (hb, 5000),
                size,
                sent_at: None,
                flow: None,
            }),
        );
        sim.run();
        let out = log.lock().clone();
        (out, sim.stats().clone())
    }

    #[test]
    fn ping_pong_round_trip() {
        let (log, stats) = run_pingpong(None, 100);
        assert!(log.iter().any(|l| l == "accepted"), "{log:?}");
        assert!(log.iter().any(|l| l == "echo 100"), "{log:?}");
        let rtt = log
            .iter()
            .find_map(|l| l.strip_prefix("rtt_ns ").map(|v| v.parse::<u64>().unwrap()))
            .expect("no rtt recorded");
        // One-way path latency = 50us + 2ms + 50us = 2.1ms, plus
        // serialization & overheads. RTT must exceed 4.2ms and stay in
        // the same ballpark.
        assert!(rtt > 4_200_000, "rtt {rtt}");
        assert!(rtt < 8_000_000, "rtt {rtt}");
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(stats.flows_opened, 1);
    }

    #[test]
    fn large_message_is_bandwidth_bound() {
        let size = 1_000_000u64;
        let (log, _) = run_pingpong(None, size);
        let rtt = log
            .iter()
            .find_map(|l| l.strip_prefix("rtt_ns ").map(|v| v.parse::<u64>().unwrap()))
            .unwrap();
        // Bottleneck 1 MB/s, two directions => at least 2s of wire time.
        assert!(rtt > 2_000_000_000, "rtt {rtt}");
        // But pipelining keeps it well under naive store-and-forward of
        // the whole message at every hop (3 hops * 2 dirs * ~1s each).
        assert!(rtt < 3_000_000_000, "rtt {rtt}");
    }

    #[test]
    fn deny_based_firewall_refuses_inbound_connect() {
        let (log, stats) = run_pingpong(Some(Policy::typical("B")), 100);
        assert_eq!(log, vec!["refused Filtered".to_string()]);
        assert_eq!(stats.flows_refused, 1);
    }

    #[test]
    fn nxport_hole_admits_only_that_port() {
        // hb is node index 3 in two_host_topo.
        let policy = Policy::typical_with_nxport("B", 3, 5000);
        let (log, _) = run_pingpong(Some(policy), 64);
        assert!(log.iter().any(|l| l.starts_with("rtt_ns")), "{log:?}");
        // And a different port stays closed.
        let policy = Policy::typical_with_nxport("B", 3, 5001);
        let (log, _) = run_pingpong(Some(policy), 64);
        assert_eq!(log, vec!["refused Filtered".to_string()]);
    }

    #[test]
    fn connect_to_missing_listener_is_refused() {
        let (t, ha, hb) = two_host_topo(None);
        let mut sim = Simulator::new(t, NetConfig::default(), 1);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(
            ha,
            Box::new(Pinger {
                log: log.clone(),
                peer: (hb, 9999),
                size: 1,
                sent_at: None,
                flow: None,
            }),
        );
        sim.run();
        assert_eq!(log.lock().clone(), vec!["refused NoListener".to_string()]);
    }

    #[test]
    fn deterministic_runs() {
        let (a, sa) = run_pingpong(None, 4096);
        let (b, sb) = run_pingpong(None, 4096);
        assert_eq!(a, b);
        assert_eq!(sa.events_processed, sb.events_processed);
    }

    /// An actor that connects and sends periodically; used for the
    /// mid-run firewall flip test.
    struct Streamer {
        log: Log,
        peer: (NodeId, u16),
        flow: Option<FlowId>,
    }

    impl Actor for Streamer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.peer, 0);
        }
        fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
            match ev {
                FlowEvent::Connected { flow, .. } => {
                    self.flow = Some(flow);
                    ctx.set_timer(SimDuration::from_millis(10), 1);
                }
                FlowEvent::Closed { reason, .. } => {
                    self.log.lock().push(format!("closed {reason:?}"));
                    ctx.stop_simulation();
                }
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            if let Some(f) = self.flow {
                ctx.send(f, 100, ()).ok();
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
        }
    }

    #[test]
    fn policy_flip_severs_established_flow() {
        let (t, ha, hb) = two_host_topo(Some(Policy::allow_based("B")));
        let mut sim = Simulator::new(t, NetConfig::default(), 1);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(
            hb,
            Box::new(Echo {
                log: log.clone(),
                port: 5000,
            }),
        );
        sim.spawn(
            ha,
            Box::new(Streamer {
                log: log.clone(),
                peer: (hb, 5000),
                flow: None,
            }),
        );
        // Let it establish and stream a bit.
        sim.run_until(SimTime(SimDuration::from_millis(50).nanos()));
        assert!(log.lock().iter().any(|l| l.starts_with("echo")));
        // Hard cut: deny-everything policy plus a conntrack flush, as a
        // real operator reset would do.
        let fw = sim.firewall_mut(SiteId(1)).unwrap();
        fw.reload(Policy::deny_based("B"));
        fw.flush_conntrack();
        sim.run();
        let final_log = log.lock().clone();
        assert!(
            final_log.iter().any(|l| l == "closed Filtered"),
            "{final_log:?}"
        );
    }

    #[test]
    fn policy_reload_alone_keeps_established_flows() {
        // Without a conntrack flush, established traffic keeps passing
        // after a reload — stateful-firewall semantics.
        let (t, ha, hb) = two_host_topo(Some(Policy::allow_based("B")));
        let mut sim = Simulator::new(t, NetConfig::default(), 1);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(
            hb,
            Box::new(Echo {
                log: log.clone(),
                port: 5000,
            }),
        );
        sim.spawn(
            ha,
            Box::new(Streamer {
                log: log.clone(),
                peer: (hb, 5000),
                flow: None,
            }),
        );
        sim.run_until(SimTime(SimDuration::from_millis(50).nanos()));
        let echoes_before = log.lock().iter().filter(|l| l.starts_with("echo")).count();
        sim.firewall_mut(SiteId(1))
            .unwrap()
            .reload(Policy::deny_based("B"));
        sim.run_until(SimTime(SimDuration::from_millis(100).nanos()));
        let final_log = log.lock().clone();
        let echoes_after = final_log.iter().filter(|l| l.starts_with("echo")).count();
        assert!(echoes_after > echoes_before, "{final_log:?}");
        assert!(!final_log.iter().any(|l| l == "closed Filtered"));
    }

    #[test]
    fn lossy_link_delivers_via_retransmit() {
        // 10% per-traversal loss (~27% per 3-hop transmission): the
        // ping-pong still completes, the extra time shows up as
        // retransmits, and the run stays deterministic.
        let run = || {
            let (t, ha, hb) = two_host_topo(None);
            let mut sim = Simulator::new(t, NetConfig::default(), 1);
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            sim.spawn(
                hb,
                Box::new(Echo {
                    log: log.clone(),
                    port: 5000,
                }),
            );
            sim.spawn(
                ha,
                Box::new(Pinger {
                    log: log.clone(),
                    peer: (hb, 5000),
                    size: 100_000,
                    sent_at: None,
                    flow: None,
                }),
            );
            sim.install_faults(
                FaultPlan::new(0xD0)
                    .drop_messages(0.1, false)
                    .retransmit(SimDuration::from_millis(20), 8),
            );
            sim.run();
            let out = log.lock().clone();
            (out, sim.stats().clone())
        };
        let (log, stats) = run();
        assert!(log.iter().any(|l| l.starts_with("rtt_ns")), "{log:?}");
        assert!(stats.chunks_dropped > 0);
        assert!(stats.retransmits > 0);
        assert_eq!(stats.messages_lost, 0, "budget should not exhaust");
        let (log2, stats2) = run();
        assert_eq!(log, log2);
        assert_eq!(stats.retransmits, stats2.retransmits);
    }

    #[test]
    fn retransmit_exhaustion_severs_flow_with_lost() {
        // A link that stays down longer than the whole retransmit
        // budget: the transport gives up and both ends see `Lost`.
        let (t, ha, hb) = two_host_topo(None);
        let mut sim = Simulator::new(t, NetConfig::default(), 1);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        sim.spawn(
            hb,
            Box::new(Echo {
                log: log.clone(),
                port: 5000,
            }),
        );
        sim.spawn(
            ha,
            Box::new(Streamer {
                log: log.clone(),
                peer: (hb, 5000),
                flow: None,
            }),
        );
        // WAN link is index 1 (swa<->swb). Down "forever" relative to
        // 3 x 10ms retransmits.
        sim.install_faults(
            FaultPlan::new(2)
                .link_down(
                    LinkId(1),
                    SimDuration::from_millis(5),
                    SimDuration::from_secs(3600),
                )
                .retransmit(SimDuration::from_millis(10), 3),
        );
        sim.run_until(SimTime(SimDuration::from_secs(2).nanos()));
        let final_log = log.lock().clone();
        assert!(
            final_log.iter().any(|l| l == "closed Lost"),
            "{final_log:?}"
        );
        assert!(sim.stats().messages_lost > 0);
    }

    #[test]
    fn crash_restart_revives_actor_in_place() {
        // Echo crashes at 30ms and is revived at 80ms. The streamer
        // sees PeerCrashed, reconnects, and gets echoes again.
        struct Redialer {
            log: Log,
            peer: (NodeId, u16),
            flow: Option<FlowId>,
        }
        impl Actor for Redialer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.peer, 0);
            }
            fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
                match ev {
                    FlowEvent::Connected { flow, .. } => {
                        self.flow = Some(flow);
                        ctx.set_timer(SimDuration::from_millis(10), 1);
                    }
                    FlowEvent::Closed { reason, .. } => {
                        self.log.lock().push(format!("closed {reason:?}"));
                        self.flow = None;
                        ctx.set_timer(SimDuration::from_millis(25), 2);
                    }
                    FlowEvent::Refused { .. } => {
                        // Server still down: keep retrying.
                        ctx.set_timer(SimDuration::from_millis(25), 2);
                    }
                    _ => {}
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                match token {
                    1 => {
                        if let Some(f) = self.flow {
                            ctx.send(f, 100, ()).ok();
                            ctx.set_timer(SimDuration::from_millis(10), 1);
                        }
                    }
                    _ => {
                        if self.flow.is_none() {
                            ctx.connect(self.peer, 0);
                        }
                    }
                }
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _msg: Delivery) {
                self.log.lock().push(format!("pong at {}", ctx.now()));
            }
        }

        let (t, ha, hb) = two_host_topo(None);
        let mut sim = Simulator::new(t, NetConfig::default(), 1);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let echo_id = sim.spawn(
            hb,
            Box::new(Echo {
                log: log.clone(),
                port: 5000,
            }),
        );
        sim.spawn(
            ha,
            Box::new(Redialer {
                log: log.clone(),
                peer: (hb, 5000),
                flow: None,
            }),
        );
        let restart_log = log.clone();
        sim.install_faults(FaultPlan::new(7).crash_restart(
            echo_id,
            SimDuration::from_millis(30),
            SimDuration::from_millis(50),
            move || {
                Box::new(Echo {
                    log: restart_log.clone(),
                    port: 5000,
                })
            },
        ));
        sim.run_until(SimTime(SimDuration::from_millis(300).nanos()));
        let final_log = log.lock().clone();
        assert!(
            final_log.iter().any(|l| l == "closed PeerCrashed"),
            "{final_log:?}"
        );
        // Two separate accepts: original and post-restart reconnect.
        let accepts = final_log.iter().filter(|l| *l == "accepted").count();
        assert_eq!(accepts, 2, "{final_log:?}");
        let crash_pos = final_log
            .iter()
            .position(|l| l == "closed PeerCrashed")
            .unwrap();
        assert!(
            final_log[crash_pos..].iter().any(|l| l.starts_with("pong")),
            "no echo after restart: {final_log:?}"
        );
        assert_eq!(sim.stats().actor_crashes, 1);
        assert_eq!(sim.stats().actor_restarts, 1);
    }

    #[test]
    fn delay_spike_slows_round_trip() {
        let rtt_with = |spike: Option<SimDuration>| {
            let (t, ha, hb) = two_host_topo(None);
            let mut sim = Simulator::new(t, NetConfig::default(), 1);
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            sim.spawn(
                hb,
                Box::new(Echo {
                    log: log.clone(),
                    port: 5000,
                }),
            );
            sim.spawn(
                ha,
                Box::new(Pinger {
                    log: log.clone(),
                    peer: (hb, 5000),
                    size: 100,
                    sent_at: None,
                    flow: None,
                }),
            );
            if let Some(extra) = spike {
                sim.install_faults(FaultPlan::new(1).delay_spike(
                    SimDuration::ZERO,
                    SimDuration::from_secs(10),
                    extra,
                ));
            }
            sim.run();
            let rtt = log
                .lock()
                .iter()
                .find_map(|l| l.strip_prefix("rtt_ns ").map(|v| v.parse::<u64>().unwrap()))
                .unwrap();
            rtt
        };
        let base = rtt_with(None);
        let spiked = rtt_with(Some(SimDuration::from_millis(5)));
        // 6 link traversals gain >= 5ms each.
        assert!(spiked > base + 29_000_000, "base {base} spiked {spiked}");
    }

    /// Sends one message and closes in the same step (what a server
    /// does with a typed refusal), or just sends.
    struct SendThen {
        peer: (NodeId, u16),
        close: bool,
    }

    impl Actor for SendThen {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.peer, 0);
        }
        fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
            if let FlowEvent::Connected { flow, .. } = ev {
                ctx.send(flow, 20_000, ()).unwrap();
                if self.close {
                    ctx.close(flow);
                }
            }
        }
    }

    /// Logs what reaches it, in order.
    struct Witness {
        log: Log,
        port: u16,
    }

    impl Actor for Witness {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.listen(self.port).unwrap();
        }
        fn on_flow(&mut self, _ctx: &mut Ctx<'_>, ev: FlowEvent) {
            if let FlowEvent::Closed { flow, reason } = ev {
                self.log
                    .lock()
                    .push(format!("closed {} {reason:?}", flow.0));
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
            self.log.lock().push(format!("got {}", msg.size));
            // Traffic toward the closer is dropped, not an error.
            let _ = ctx.send(msg.flow, 1, ());
        }
    }

    #[test]
    fn close_is_orderly_for_the_closer_and_crash_still_resets() {
        let run = |close: bool, crash: bool| {
            let (t, ha, hb) = two_host_topo(None);
            let mut sim = Simulator::new(t, NetConfig::default(), 1);
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            sim.spawn(
                hb,
                Box::new(Witness {
                    log: log.clone(),
                    port: 5000,
                }),
            );
            let sender = sim.spawn(
                ha,
                Box::new(SendThen {
                    peer: (hb, 5000),
                    close,
                }),
            );
            if crash {
                // 20 kB over the 1 MB/s link is still on the wire.
                sim.run_until(SimTime(SimDuration::from_millis(10).nanos()));
                sim.kill_actor(sender);
            }
            sim.run();
            let out = log.lock().clone();
            (out, sim.stats().messages_delivered)
        };
        // [Send x, Close] in one step: x arrives, then the close.
        let (log, delivered) = run(true, false);
        assert_eq!(log, vec!["got 20000", "closed 1 Peer"]);
        assert_eq!(delivered, 1, "the reply toward the closer is dropped");
        // A crash is abortive: what was in flight is gone.
        let (log, _) = run(false, true);
        assert_eq!(log, vec!["closed 1 PeerCrashed"]);
    }

    #[test]
    fn kill_actor_resets_flows_in_flow_order() {
        // One victim holding eight flows to eight peers on one host:
        // the peers must hear `PeerCrashed` in ascending flow order, in
        // every fresh simulator (the flow table is a HashMap).
        struct Dialer {
            peers: Vec<(NodeId, u16)>,
        }
        impl Actor for Dialer {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                for (i, p) in self.peers.iter().enumerate() {
                    ctx.connect(*p, i as u64);
                }
            }
        }
        let run = || {
            let (t, ha, hb) = two_host_topo(None);
            let mut sim = Simulator::new(t, NetConfig::default(), 1);
            let log: Log = Arc::new(Mutex::new(Vec::new()));
            let peers: Vec<(NodeId, u16)> = (0..8).map(|i| (hb, 5000 + i)).collect();
            for (_, port) in &peers {
                sim.spawn(
                    hb,
                    Box::new(Witness {
                        log: log.clone(),
                        port: *port,
                    }),
                );
            }
            let victim = sim.spawn(ha, Box::new(Dialer { peers }));
            sim.run_until(SimTime(SimDuration::from_millis(50).nanos()));
            sim.kill_actor(victim);
            sim.run();
            let out = log.lock().clone();
            out
        };
        let want: Vec<String> = (1..=8).map(|f| format!("closed {f} PeerCrashed")).collect();
        assert_eq!(run(), want);
        assert_eq!(run(), want);
    }

    #[test]
    fn kill_actor_resets_peer_flows() {
        let (t, ha, hb) = two_host_topo(None);
        let mut sim = Simulator::new(t, NetConfig::default(), 1);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let echo_id = sim.spawn(
            hb,
            Box::new(Echo {
                log: log.clone(),
                port: 5000,
            }),
        );
        sim.spawn(
            ha,
            Box::new(Streamer {
                log: log.clone(),
                peer: (hb, 5000),
                flow: None,
            }),
        );
        sim.run_until(SimTime(SimDuration::from_millis(50).nanos()));
        sim.kill_actor(echo_id);
        sim.run();
        assert!(
            log.lock().iter().any(|l| l == "closed PeerCrashed"),
            "{:?}",
            log.lock()
        );
    }
}
