//! Virtual-time implementation of the Nexus Proxy, as `netsim` actors.
//!
//! The protocol is the same as the real one (`crate::protocol`); here
//! the control messages are typed payloads and the relay cost model is
//! explicit: a relay server is a single select-loop process, so all
//! messages it forwards are *serialized* through one service queue with
//! a per-message processing cost and a copy bandwidth
//! ([`RelayModel`]). That model is what produces the paper's Table 2
//! shape — per-message latency grows by the per-hop relay cost, while
//! large transfers pipeline and approach `min(path_bw, relay_bw)`.

pub mod client;
pub mod inner;
pub mod outer;
pub mod stripe;

pub use client::{NxClient, NxEvent, NxHandled, RetryPolicy, SimProxyEnv};
pub use inner::SimInnerServer;
pub use outer::SimOuterServer;
pub use stripe::{stripe_cell, StripeCell, StripeCellState, StripeSenderActor, StripeSinkActor};

use crate::core::{Action, Event, HostId, Mode, Timer};
use crate::protocol::CtrlMsg;
use netsim::prelude::*;
use std::collections::{HashMap, VecDeque};
use wacs_obs::{Histogram, Registry};

/// Control messages as sim payloads: the one protocol enum
/// ([`crate::protocol::CtrlMsg`]) with hosts named by [`NodeId`].
pub type SimMsg = CtrlMsg<NodeId>;

/// Declared wire size of a control message (bytes).
pub const CTRL_MSG_BYTES: u64 = 32;

/// Stable shard key for a sim endpoint — the sim twin of
/// [`crate::shard::bind_key`] (node id stands in for the host name).
pub fn sim_shard_key(ep: (NodeId, u16)) -> Vec<u8> {
    let mut v = Vec::with_capacity(7);
    v.extend_from_slice(&ep.0 .0.to_be_bytes());
    v.push(b':');
    v.extend_from_slice(&ep.1.to_be_bytes());
    v
}

impl HostId for NodeId {
    fn shard_key(&self, port: u16) -> Vec<u8> {
        sim_shard_key((*self, port))
    }
    fn peer_key(&self) -> String {
        format!("{self:?}")
    }
}

/// Cost model of one relay server process.
#[derive(Debug, Clone, Copy)]
pub struct RelayModel {
    /// Fixed per-message service cost (select wakeup, two kernel
    /// crossings, Nexus message dispatch — dominant for small
    /// messages; calibrated against Table 2's 25 ms proxied latency).
    pub per_message: SimDuration,
    /// Copy bandwidth of the relay (bytes/s) — the user-level
    /// read/write path; dominant for bulk transfers.
    pub bandwidth: f64,
}

impl Default for RelayModel {
    fn default() -> Self {
        RelayModel {
            per_message: SimDuration::from_millis(12),
            bandwidth: 400e3,
        }
    }
}

impl RelayModel {
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        self.per_message + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth)
    }
}

/// Timer token used by the relay queue (relay actors must reserve it).
pub const RELAY_TIMER: u64 = u64::MAX - 1;

/// Timer token for the outer server's heartbeat tick (reserved).
pub const HB_TICK: u64 = u64::MAX - 2;

/// Timer token for re-dialing the inner control session after a dead
/// peer or a refused dial (reserved).
pub const HB_RETRY: u64 = u64::MAX - 3;

/// Run one server core to quiescence on `first`: execute each action
/// as `Ctx` calls (bridges go to `relay`), feeding what the network
/// answers synchronously straight back in. Both sim servers are this
/// loop around their core.
fn drive(
    ctx: &mut Ctx<'_>,
    relay: &mut RelayCore,
    who: &str,
    first: Event<NodeId>,
    mut step: impl FnMut(u64, Event<NodeId>) -> Vec<Action<NodeId>>,
) {
    let mut queue = VecDeque::from([first]);
    while let Some(ev) = queue.pop_front() {
        ctx.trace(|| format!("{who}: {ev:?}"));
        for action in step(ctx.now().nanos(), ev) {
            match action {
                // Deliveries arrive unasked.
                Action::Recv { .. } => {}
                Action::Send { conn, msg } => {
                    let _ = ctx.send(FlowId(conn), CTRL_MSG_BYTES, msg);
                }
                Action::Reply { conn, msg } => {
                    let ok = ctx.send(FlowId(conn), CTRL_MSG_BYTES, msg).is_ok();
                    queue.push_back(Event::Replied { conn, ok });
                }
                Action::Listen { conn } => queue.push_back(Event::Listened {
                    conn,
                    port: ctx.listen(0).ok(),
                }),
                Action::Unlisten { port } => {
                    ctx.unlisten(port);
                }
                Action::Dial { dial, to, .. } => ctx.connect(to, dial),
                Action::Bridge { a, b } => relay.pair(ctx, FlowId(a), FlowId(b)),
                Action::Close { conn } => ctx.close(FlowId(conn)),
                Action::SetTimer { timer, after } => ctx.set_timer(
                    SimDuration::from_nanos(after.as_nanos() as u64),
                    match timer {
                        Timer::HbTick => HB_TICK,
                        Timer::HbRetry => HB_RETRY,
                    },
                ),
            }
        }
    }
}

/// A delivery on `conn`, which the core says is in `mode`: a control
/// frame is the core's, pipe data (or early data from an eager peer,
/// buffered until paired) the relay's.
fn deliver(
    ctx: &mut Ctx<'_>,
    relay: &mut RelayCore,
    who: &str,
    mode: Option<Mode>,
    msg: Delivery,
    step: impl FnMut(u64, Event<NodeId>) -> Vec<Action<NodeId>>,
) {
    match mode {
        Some(Mode::Framed) => {
            let conn = msg.flow.0;
            let msg = msg.expect::<SimMsg>();
            drive(ctx, relay, who, Event::Frame { conn, msg }, step);
        }
        Some(Mode::Pipe) => relay.on_data(ctx, msg.flow, msg.size, msg.payload, msg.sent_at),
        None => {}
    }
}

/// A flow event as the cores see it (a connect token is the core's
/// [`crate::core::DialId`]).
fn flow_event(ev: FlowEvent) -> Event<NodeId> {
    match ev {
        FlowEvent::Accepted {
            flow, listen_port, ..
        } => Event::Accepted {
            conn: flow.0,
            port: listen_port,
        },
        FlowEvent::Connected { flow, token, .. } => Event::DialOk {
            dial: token,
            conn: flow.0,
        },
        FlowEvent::Refused { token, reason, .. } => Event::DialFailed {
            dial: token,
            detail: format!("{reason:?}"),
        },
        FlowEvent::Closed { flow, .. } => Event::Closed { conn: flow.0 },
    }
}

/// Observability handles for one relay actor's data path: the inbound
/// leg (origin send → relay arrival) and the service gap (arrival →
/// forward), the two components a relay hop contributes to an
/// end-to-end latency decomposition.
struct RelayObs {
    leg_in: Histogram,
    service: Histogram,
}

/// The relaying heart shared by the outer and inner server actors:
/// flow pairing, early-data buffering, and a serialized service queue
/// implementing [`RelayModel`].
pub struct RelayCore {
    model: RelayModel,
    pairs: HashMap<FlowId, FlowId>,
    /// Data that arrived on a flow before its pair existed, with its
    /// arrival time (service accounting starts at arrival, not at the
    /// later pairing).
    buffered: HashMap<FlowId, Vec<(u64, Payload, SimTime)>>,
    /// (out_flow, size, payload, arrived_at) in service order.
    queue: VecDeque<(FlowId, u64, Payload, SimTime)>,
    busy_until: SimTime,
    /// Total messages forwarded (diagnostics).
    pub forwarded: u64,
    pub forwarded_bytes: u64,
    obs: Option<RelayObs>,
}

impl RelayCore {
    pub fn new(model: RelayModel) -> Self {
        RelayCore {
            model,
            pairs: HashMap::new(),
            buffered: HashMap::new(),
            queue: VecDeque::new(),
            busy_until: SimTime::ZERO,
            forwarded: 0,
            forwarded_bytes: 0,
            obs: None,
        }
    }

    /// Record per-message leg-in and service durations under
    /// `<prefix>.leg_in_ns` / `<prefix>.service_ns` in `registry`.
    pub fn set_obs(&mut self, registry: &Registry, prefix: &str) {
        self.obs = Some(RelayObs {
            leg_in: registry.histogram(&format!("{prefix}.leg_in_ns")),
            service: registry.histogram(&format!("{prefix}.service_ns")),
        });
    }

    pub fn is_paired(&self, f: FlowId) -> bool {
        self.pairs.contains_key(&f)
    }

    pub fn pair_of(&self, f: FlowId) -> Option<FlowId> {
        self.pairs.get(&f).copied()
    }

    /// Bridge two flows; any early data buffered on either side is
    /// scheduled for forwarding immediately.
    pub fn pair(&mut self, ctx: &mut Ctx<'_>, f: FlowId, g: FlowId) {
        self.pairs.insert(f, g);
        self.pairs.insert(g, f);
        for (from, to) in [(f, g), (g, f)] {
            if let Some(pending) = self.buffered.remove(&from) {
                for (size, payload, arrived_at) in pending {
                    self.enqueue(ctx, to, size, payload, arrived_at);
                }
            }
        }
    }

    /// Handle a data delivery on a relayed flow: forward to the pair,
    /// or buffer if pairing is still in progress. `sent_at` is the
    /// delivery's origin timestamp (`Delivery::sent_at`), used for the
    /// inbound-leg latency histogram.
    pub fn on_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        flow: FlowId,
        size: u64,
        payload: Payload,
        sent_at: SimTime,
    ) {
        let now = ctx.now();
        if let Some(o) = &self.obs {
            o.leg_in.record(now.since(sent_at).nanos());
        }
        match self.pairs.get(&flow) {
            Some(&out) => self.enqueue(ctx, out, size, payload, now),
            None => self
                .buffered
                .entry(flow)
                .or_default()
                .push((size, payload, now)),
        }
    }

    fn enqueue(
        &mut self,
        ctx: &mut Ctx<'_>,
        out: FlowId,
        size: u64,
        payload: Payload,
        arrived_at: SimTime,
    ) {
        let start = self.busy_until.max(ctx.now());
        let finish = start + self.model.service_time(size);
        self.busy_until = finish;
        self.queue.push_back((out, size, payload, arrived_at));
        ctx.set_timer(finish.since(ctx.now()), RELAY_TIMER);
    }

    /// Must be called from the owner's `on_timer` for [`RELAY_TIMER`]:
    /// forwards exactly one queued message.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        if let Some((out, size, payload, arrived_at)) = self.queue.pop_front() {
            self.forwarded += 1;
            self.forwarded_bytes += size;
            if let Some(o) = &self.obs {
                o.service.record(ctx.now().since(arrived_at).nanos());
            }
            // The pair may have died while the message was in service.
            let _ = ctx.send_boxed(out, size, payload);
        }
    }

    /// A relayed flow closed: close its pair too (select-loop relays
    /// tear bridged pairs down together). Returns the pair if any.
    pub fn on_closed(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) -> Option<FlowId> {
        self.buffered.remove(&flow);
        if let Some(pair) = self.pairs.remove(&flow) {
            self.pairs.remove(&pair);
            ctx.close(pair);
            Some(pair)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_model_costs() {
        let m = RelayModel {
            per_message: SimDuration::from_millis(10),
            bandwidth: 1e6,
        };
        // 0-byte message: pure per-message cost.
        assert_eq!(m.service_time(0), SimDuration::from_millis(10));
        // 1 MB at 1 MB/s: ~1.01 s.
        let t = m.service_time(1_000_000);
        assert!(t >= SimDuration::from_millis(1009));
        assert!(t <= SimDuration::from_millis(1011));
    }
}
