//! Client-side proxy logic for simulation actors: the sim analogue of
//! `NXProxyConnect` / `NXProxyBind` / `NXProxyAccept`.
//!
//! Simulation actors are event-driven state machines, so the client
//! library is an *embedded* state machine: its
//! [`NxActor`](super::NxActor) shell funnels every `on_flow` /
//! `on_message` / `on_timer` event through [`NxClient`], which
//! consumes proxy-internal traffic and hands everything else to the
//! application. Which relay an operation dials and how it ends is
//! decided by [`crate::core::ClientCore`], the same code the real
//! client runs; this file is its event-driven driver.
//!
//! ## Recovery
//!
//! The relay chain can fail independently of the endpoints (outer
//! server crash, WAN loss). One operation walks the fleet ladder once;
//! when it ends refused the client machine starts another when
//! [`Retry`] says so (bounded exponential backoff + jitter drawn from
//! the world's [`netsim::rng::SimRng`], so recovery is deterministic), and
//! re-issues its `BindReq` when the bind control flow drops — the
//! owner sees [`NxEvent::BindLost`] (withdraw the advertised address)
//! followed by a fresh [`NxEvent::Bound`] once the outer server is
//! back.

use super::{SimMsg, CTRL_MSG_BYTES};
use crate::core::{ClientCore, ClientOp, Outcome, Retry, RetryPolicy, Step};
use crate::liveness::{BreakerConfig, BreakerState};
use netsim::prelude::*;
use std::collections::HashMap;
use wacs_obs::{Counter, Histogram, Registry};

/// Segment size for large data messages: the transport splits big
/// sends so relays and links pipeline at this granularity — exactly
/// why the paper's 1 MB proxied WAN transfer runs at wire speed while
/// small messages pay the full per-hop relay cost.
pub const SEGMENT_BYTES: u64 = 65536;

/// Internal framing for segmented sends. Only the final segment
/// carries the payload; since flows are FIFO, its arrival time *is*
/// the message completion time, so receivers need no reassembly state.
enum SegMsg {
    Part,
    Last { total: u64, payload: Payload },
}

/// Sim analogue of the `NEXUS_PROXY_OUTER_SERVER` environment variable:
/// the outer servers to go through (none = talk directly).
#[derive(Debug, Clone, Default)]
pub struct SimProxyEnv {
    members: Vec<(NodeId, u16)>,
}

impl SimProxyEnv {
    pub fn direct() -> Self {
        SimProxyEnv::default()
    }

    /// Route through a single outer server: a fleet of one.
    pub fn via(outer: (NodeId, u16)) -> Self {
        SimProxyEnv {
            members: vec![outer],
        }
    }
}

/// High-level events produced by the client machine.
#[derive(Debug)]
pub enum NxEvent {
    /// Your `connect(dst, token)` completed; talk on `flow`.
    Connected {
        flow: FlowId,
        token: u64,
    },
    /// Your `connect(dst, token)` failed (after retries).
    Refused {
        token: u64,
    },
    /// Your `bind()` completed; peers should connect to `advertised`.
    Bound {
        advertised: (NodeId, u16),
    },
    BindFailed,
    /// The bind control flow dropped (outer server crash): the old
    /// rendezvous address is dead. Withdraw it; a re-bind is already
    /// underway and will surface as a fresh [`NxEvent::Bound`].
    BindLost,
    /// A peer reached your bound endpoint (possibly via the relay).
    Accepted {
        flow: FlowId,
    },
}

/// Result of feeding a raw event through the client machine.
pub enum NxHandled {
    /// A proxy-level event for the application.
    Event(NxEvent),
    /// Application data (opaque to the proxy layer).
    Data(Delivery),
    /// Not proxy traffic: the application's own raw flow event.
    Flow(FlowEvent),
    /// Internal bookkeeping; nothing to do.
    Consumed,
}

/// Internal connect/timer-token namespace (application tokens must
/// stay below this).
pub const NX_TOKEN_BASE: u64 = 1 << 62;

/// What one operation is for.
#[derive(Clone, Copy)]
enum Goal {
    Connect { user_token: u64, dst: (NodeId, u16) },
    Bind { client_port: u16 },
}

/// A dial in progress, by connect token.
enum Pending {
    /// A plain connect (direct mode, or straight to a rendezvous
    /// address): the flow itself is the result.
    Direct { goal: Goal, retry: Retry },
    /// One rung of a proxied operation: `send` goes out once connected.
    Rung {
        goal: Goal,
        retry: Retry,
        op: ClientOp<NodeId>,
        send: SimMsg,
    },
}

/// Deferred work attached to a timer token.
enum RetryAction {
    /// Start the next operation for `goal`.
    Start { goal: Goal, retry: Retry },
    /// No reply on `flow` within the policy's deadline.
    Deadline { flow: FlowId },
}

/// A control flow awaiting its `ConnectRep`/`BindRep`.
struct Awaiting {
    goal: Goal,
    retry: Retry,
    op: ClientOp<NodeId>,
    deadline_token: u64,
}

/// Registry handles for the client machine's spans and counters.
struct ClientObs {
    registry: Registry,
    /// `connect()` call → `Connected`/`Refused` (retries included).
    handshake_ns: Histogram,
    /// `bind()` call (or re-bind start) → `Bound`.
    bind_ns: Histogram,
    retries: Counter,
    rebinds: Counter,
}

/// The embedded client state machine: the event-driven driver of
/// [`ClientCore`]. The core decides where every operation dials and how
/// it ends, and [`Retry`] whether and when another starts; this machine
/// owns what only an event-driven owner needs — the timers for both,
/// re-binding after a lost registration, segmentation, spans.
pub struct NxClient {
    /// `None` in direct mode.
    core: Option<ClientCore<NodeId>>,
    policy: RetryPolicy,
    pending: HashMap<u64, Pending>,
    awaiting: HashMap<FlowId, Awaiting>,
    /// Keeps the registration alive (closing it withdraws the
    /// rendezvous port).
    bind_ctrl: Option<FlowId>,
    private_port: Option<u16>,
    /// Armed timer tokens and what to do when they fire.
    timers: HashMap<u64, RetryAction>,
    next_itoken: u64,
    retries: u64,
    obs: Option<ClientObs>,
    /// user token → when its `connect()` was issued (span bookkeeping;
    /// survives retries because retries keep the user token).
    connect_started: HashMap<u64, SimTime>,
    /// When the current bind (or re-bind) was started.
    bind_started: Option<SimTime>,
}

impl NxClient {
    pub fn new(env: SimProxyEnv) -> Self {
        Self::with_policy(env, RetryPolicy::DEFAULT)
    }

    pub fn with_policy(env: SimProxyEnv, policy: RetryPolicy) -> Self {
        let client = NxClient {
            core: None,
            policy,
            pending: HashMap::new(),
            awaiting: HashMap::new(),
            bind_ctrl: None,
            private_port: None,
            timers: HashMap::new(),
            next_itoken: NX_TOKEN_BASE,
            retries: 0,
            obs: None,
            connect_started: HashMap::new(),
            bind_started: None,
        };
        if env.members.is_empty() {
            client
        } else {
            client.with_fleet(env.members)
        }
    }

    /// Route binds and proxied connects across an outer-shard fleet:
    /// HRW ownership picks the shard, per-shard circuit breakers drive
    /// failover, and member hosts are dialed directly for rendezvous
    /// connects (DESIGN.md §6d).
    pub fn with_fleet(mut self, members: Vec<(NodeId, u16)>) -> Self {
        let mut core = ClientCore::new(members, BreakerConfig::default());
        if let Some(o) = &self.obs {
            core.observe(&o.registry);
        }
        self.core = Some(core);
        self
    }

    /// Record handshake/bind spans and retry counters under
    /// `proxy.client.*` (and fleet routing under `wacs.shard.*`) in
    /// `registry`.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.obs = Some(ClientObs {
            registry: registry.clone(),
            handshake_ns: registry.histogram("proxy.client.handshake_ns"),
            bind_ns: registry.histogram("proxy.client.bind_ns"),
            retries: registry.counter("proxy.client.retries"),
            rebinds: registry.counter("proxy.client.rebinds"),
        });
        if let Some(core) = &mut self.core {
            core.observe(registry);
        }
        self
    }

    /// Observe every decision of the core (conformance traces; apply
    /// after [`NxClient::with_fleet`]).
    #[cfg(test)]
    pub(crate) fn hooked(mut self, hook: crate::core::ClientHook) -> Self {
        if let Some(core) = &mut self.core {
            core.set_hook(hook);
        }
        self
    }

    /// Current fleet-map generation (0 in direct mode).
    pub fn fleet_generation(&self) -> u64 {
        self.core.as_ref().map_or(0, ClientCore::generation)
    }

    /// State of fleet member `idx`'s breaker.
    pub fn breaker_state(&self, idx: usize) -> Option<BreakerState> {
        self.core.as_ref()?.breaker_state(idx)
    }

    /// Close the handshake span for `user_token` at `now` (called at
    /// every `Connected`/`Refused` emission point).
    fn finish_connect_span(&mut self, user_token: u64, now: SimTime) {
        if let Some(t0) = self.connect_started.remove(&user_token) {
            if let Some(o) = &self.obs {
                o.handshake_ns.record(now.since(t0).nanos());
            }
        }
    }

    /// Retry attempts scheduled so far (dial retries + re-binds).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn itoken(&mut self) -> u64 {
        let t = self.next_itoken;
        self.next_itoken += 1;
        t
    }

    /// Does a timer token belong to this machine?
    pub(crate) fn owns_timer(&self, token: u64) -> bool {
        token >= NX_TOKEN_BASE
    }

    fn schedule(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration, action: RetryAction) -> u64 {
        let tok = self.itoken();
        self.timers.insert(tok, action);
        ctx.set_timer(delay, tok);
        tok
    }

    /// The operation under way failed: start another when `retry`
    /// says, or give up with `Refused` / `BindFailed`.
    fn retry(&mut self, ctx: &mut Ctx<'_>, goal: Goal, mut retry: Retry) -> NxHandled {
        let now = ctx.now().nanos();
        let Some(at) = retry.failed(now, |n| ctx.rng().below(n)) else {
            return NxHandled::Event(match goal {
                Goal::Connect { user_token, .. } => {
                    self.finish_connect_span(user_token, ctx.now());
                    NxEvent::Refused { token: user_token }
                }
                Goal::Bind { .. } => {
                    self.bind_started = None;
                    NxEvent::BindFailed
                }
            });
        };
        self.retries += 1;
        if let Some(o) = &self.obs {
            o.retries.inc();
        }
        self.schedule(
            ctx,
            SimDuration(at - now),
            RetryAction::Start { goal, retry },
        );
        NxHandled::Consumed
    }

    /// Start an operation for `goal`: the first when `retry` is `None`.
    fn start(&mut self, ctx: &mut Ctx<'_>, goal: Goal, retry: Option<Retry>) -> NxHandled {
        let now = ctx.now().nanos();
        let retry = retry.unwrap_or_else(|| Retry::new(self.policy, now));
        let (op, step) = match (&mut self.core, goal) {
            (Some(core), Goal::Connect { dst, .. }) => core.connect(now, dst),
            (Some(core), Goal::Bind { client_port }) => core.bind(now, (ctx.host(), client_port)),
            (None, Goal::Connect { dst, .. }) => return self.dial_direct(ctx, goal, retry, dst),
            // A direct bind completes inside `bind()`.
            (None, Goal::Bind { .. }) => return NxHandled::Consumed,
        };
        self.advance(ctx, goal, retry, op, step)
    }

    fn dial_direct(
        &mut self,
        ctx: &mut Ctx<'_>,
        goal: Goal,
        retry: Retry,
        to: (NodeId, u16),
    ) -> NxHandled {
        let tok = self.itoken();
        self.pending.insert(tok, Pending::Direct { goal, retry });
        ctx.connect(to, tok);
        NxHandled::Consumed
    }

    /// Execute the core's next step for an operation under way.
    fn advance(
        &mut self,
        ctx: &mut Ctx<'_>,
        goal: Goal,
        retry: Retry,
        op: ClientOp<NodeId>,
        step: Step<NodeId>,
    ) -> NxHandled {
        match step {
            Step::Direct { to } => self.dial_direct(ctx, goal, retry, to),
            Step::Dial { to, send, .. } => {
                let tok = self.itoken();
                let rung = Pending::Rung {
                    goal,
                    retry,
                    op,
                    send,
                };
                self.pending.insert(tok, rung);
                ctx.connect(to, tok);
                NxHandled::Consumed
            }
            // A typed refusal (or nobody left to dial): the policy
            // decides whether another operation starts.
            Step::Done(_) => self.retry(ctx, goal, retry),
        }
    }

    /// The rung on a flow (or a dial) failed; `report` tells the core
    /// how, and the operation goes where the core says next.
    fn rung_failed(
        &mut self,
        ctx: &mut Ctx<'_>,
        goal: Goal,
        retry: Retry,
        mut op: ClientOp<NodeId>,
        report: fn(&mut ClientCore<NodeId>, &mut ClientOp<NodeId>, u64) -> Step<NodeId>,
    ) -> NxHandled {
        let Some(core) = &mut self.core else {
            return self.retry(ctx, goal, retry);
        };
        let step = report(core, &mut op, ctx.now().nanos());
        self.advance(ctx, goal, retry, op, step)
    }

    /// `NXProxyConnect`: connect to `dst`, directly or via the outer
    /// fleet. Completion arrives as [`NxEvent::Connected`] /
    /// [`NxEvent::Refused`] carrying `user_token`.
    pub fn connect(&mut self, ctx: &mut Ctx<'_>, dst: (NodeId, u16), user_token: u64) {
        assert!(
            user_token < NX_TOKEN_BASE,
            "application tokens must be below NX_TOKEN_BASE"
        );
        if self.obs.is_some() {
            self.connect_started.insert(user_token, ctx.now());
        }
        self.start(ctx, Goal::Connect { user_token, dst }, None);
    }

    /// `NXProxyBind`: start listening. Returns `Some(advertised)`
    /// immediately in direct mode; in proxied mode the answer arrives
    /// later as [`NxEvent::Bound`].
    pub fn bind(&mut self, ctx: &mut Ctx<'_>) -> Option<(NodeId, u16)> {
        // Listening on port 0 draws from the ephemeral allocator, which
        // only fails if the whole port space is exhausted — a harness bug.
        #[allow(clippy::expect_used)]
        let port = ctx.listen(0).expect("ephemeral listen failed"); // lint:allow(unwrap-panic)
        self.private_port = Some(port);
        if self.core.is_none() {
            // Direct binds complete within the call: zero-length span.
            if let Some(o) = &self.obs {
                o.bind_ns.record(0);
            }
            Some((ctx.host(), port))
        } else {
            self.bind_started = Some(ctx.now());
            self.start(ctx, Goal::Bind { client_port: port }, None);
            None
        }
    }

    /// Send application data on an established flow, segmenting large
    /// messages so they pipeline through links and relays. Use this
    /// instead of `ctx.send` for anything that can exceed
    /// [`SEGMENT_BYTES`].
    pub fn send_data<T: std::any::Any + Send>(
        &mut self,
        ctx: &mut Ctx<'_>,
        flow: FlowId,
        size: u64,
        payload: T,
    ) -> Result<(), SendError> {
        if size <= SEGMENT_BYTES {
            return ctx.send(flow, size, payload);
        }
        let full_segments = (size - 1) / SEGMENT_BYTES; // at least 1
        for _ in 0..full_segments {
            ctx.send(flow, SEGMENT_BYTES, SegMsg::Part)?;
        }
        let tail = size - full_segments * SEGMENT_BYTES;
        ctx.send(
            flow,
            tail,
            SegMsg::Last {
                total: size,
                payload: Box::new(payload),
            },
        )
    }

    /// Feed a timer token of this machine through it.
    pub(crate) fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> NxHandled {
        match self.timers.remove(&token) {
            Some(RetryAction::Start { goal, retry }) => self.start(ctx, goal, Some(retry)),
            Some(RetryAction::Deadline { flow }) => match self.awaiting.remove(&flow) {
                Some(a) => {
                    ctx.close(flow);
                    self.rung_failed(ctx, a.goal, a.retry, a.op, ClientCore::session_died)
                }
                None => NxHandled::Consumed,
            },
            None => NxHandled::Consumed, // cancelled or stale
        }
    }

    /// Feed a raw flow event through the machine.
    pub(crate) fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) -> NxHandled {
        match ev {
            FlowEvent::Connected { flow, token, .. } if token >= NX_TOKEN_BASE => {
                match self.pending.remove(&token) {
                    Some(Pending::Direct {
                        goal: Goal::Connect { user_token, .. },
                        ..
                    }) => {
                        self.finish_connect_span(user_token, ctx.now());
                        NxHandled::Event(NxEvent::Connected {
                            flow,
                            token: user_token,
                        })
                    }
                    Some(Pending::Rung {
                        goal,
                        retry,
                        op,
                        send,
                    }) => {
                        let _ = ctx.send(flow, CTRL_MSG_BYTES, send);
                        let deadline = retry.reply_deadline(ctx.now().nanos());
                        let deadline = SimDuration::from_nanos(deadline.as_nanos() as u64);
                        let deadline_token =
                            self.schedule(ctx, deadline, RetryAction::Deadline { flow });
                        let waiting = Awaiting {
                            goal,
                            retry,
                            op,
                            deadline_token,
                        };
                        self.awaiting.insert(flow, waiting);
                        NxHandled::Consumed
                    }
                    _ => NxHandled::Consumed,
                }
            }
            FlowEvent::Refused { token, .. } if token >= NX_TOKEN_BASE => {
                match self.pending.remove(&token) {
                    Some(Pending::Direct { goal, retry }) => self.retry(ctx, goal, retry),
                    Some(Pending::Rung {
                        goal, retry, op, ..
                    }) => self.rung_failed(ctx, goal, retry, op, ClientCore::dial_failed),
                    None => NxHandled::Consumed,
                }
            }
            FlowEvent::Accepted {
                flow, listen_port, ..
            } if Some(listen_port) == self.private_port => {
                NxHandled::Event(NxEvent::Accepted { flow })
            }
            FlowEvent::Closed { flow, .. } if self.awaiting.contains_key(&flow) => {
                // The shard died before replying: cancel the reply
                // deadline and let the core pick the next rung.
                let Some(a) = self.awaiting.remove(&flow) else {
                    return NxHandled::Consumed;
                };
                self.timers.remove(&a.deadline_token);
                self.rung_failed(ctx, a.goal, a.retry, a.op, ClientCore::session_died)
            }
            FlowEvent::Closed { flow, .. } if self.bind_ctrl == Some(flow) => {
                // The outer server crashed (or withdrew us): the
                // rendezvous registration is gone. Re-register the same
                // private port and tell the owner the old address died.
                self.bind_ctrl = None;
                if let (Some(client_port), true) = (self.private_port, self.core.is_some()) {
                    self.retries += 1;
                    if let Some(o) = &self.obs {
                        o.rebinds.inc();
                        o.retries.inc();
                    }
                    self.bind_started = Some(ctx.now());
                    self.start(ctx, Goal::Bind { client_port }, None);
                }
                NxHandled::Event(NxEvent::BindLost)
            }
            other => NxHandled::Flow(other),
        }
    }

    /// Feed a delivery through the machine.
    pub(crate) fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) -> NxHandled {
        let flow = msg.flow;
        // Segmented data: swallow body segments; the final segment
        // resurfaces as the whole message.
        if msg.peek::<SegMsg>().is_some() {
            let sent_at = msg.sent_at;
            return match msg.expect::<SegMsg>() {
                SegMsg::Part => NxHandled::Consumed,
                SegMsg::Last { total, payload } => NxHandled::Data(Delivery {
                    flow,
                    size: total,
                    payload,
                    sent_at,
                }),
            };
        }
        let (Some(mut a), Some(core)) = (self.awaiting.remove(&flow), self.core.as_mut()) else {
            return NxHandled::Data(msg);
        };
        self.timers.remove(&a.deadline_token);
        match (core.replied(&mut a.op, msg.expect::<SimMsg>()), a.goal) {
            (Step::Done(Outcome::Connected), Goal::Connect { user_token, .. }) => {
                self.finish_connect_span(user_token, ctx.now());
                NxHandled::Event(NxEvent::Connected {
                    flow,
                    token: user_token,
                })
            }
            (Step::Done(Outcome::Bound { advertised }), Goal::Bind { .. }) => {
                self.bind_ctrl = Some(flow);
                if let (Some(t0), Some(o)) = (self.bind_started.take(), &self.obs) {
                    o.bind_ns.record(ctx.now().since(t0).nanos());
                }
                NxHandled::Event(NxEvent::Bound { advertised })
            }
            // A refusal, or a redirect to follow: this flow is done.
            (next, goal) => {
                ctx.close(flow);
                self.advance(ctx, goal, a.retry, a.op, next)
            }
        }
    }
}
