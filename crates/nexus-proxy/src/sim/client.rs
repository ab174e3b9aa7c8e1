//! Client-side proxy logic for simulation actors: the sim analogue of
//! `NXProxyConnect` / `NXProxyBind` / `NXProxyAccept`.
//!
//! Simulation actors are event-driven state machines, so the client
//! library is an *embedded* state machine: the owning actor funnels
//! all its `on_flow` / `on_message` / `on_timer` events through
//! [`NxClient`], which consumes proxy-internal traffic and hands
//! everything else back. This mirrors how the paper patched Globus:
//! the application still sees connect/accept semantics; the proxy
//! plumbing is hidden below. Which relay an operation dials and how it
//! ends is decided by [`crate::core::ClientCore`], the same code the
//! real client runs; this file is its event-driven driver.
//!
//! ## Recovery
//!
//! The relay chain can fail independently of the endpoints (outer
//! server crash, WAN loss). One operation walks the fleet ladder once;
//! when it ends refused the client machine starts another with bounded
//! exponential backoff + jitter ([`RetryPolicy`], seeded via the
//! world's [`netsim::rng::SimRng`], so recovery is deterministic), and
//! re-issues its `BindReq` when the bind control flow drops — the
//! owner sees [`NxEvent::BindLost`] (withdraw the advertised address)
//! followed by a fresh [`NxEvent::Bound`] once the outer server is
//! back. Owners must forward unrecognized timer tokens through
//! [`NxClient::on_timer`] (gate on [`NxClient::owns_timer`]).

use super::{SimMsg, CTRL_MSG_BYTES};
use crate::core::{ClientCore, ClientOp, Outcome, Step};
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

/// Bounded-retry knobs for dials and control round trips. Backoff for
/// attempt `n` (1-based) is uniform jitter in `[cap/2, cap]` with
/// `cap = min(base_backoff << (n-1), max_backoff)`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total dial attempts per logical operation before giving up.
    pub max_attempts: u32,
    /// Backoff cap after the first failure.
    pub base_backoff: SimDuration,
    /// Upper bound on the backoff cap.
    pub max_backoff: SimDuration,
    /// How long to wait for a `ConnectRep`/`BindRep` on an established
    /// control flow before abandoning it and retrying.
    pub reply_deadline: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: SimDuration::from_millis(40),
            max_backoff: SimDuration::from_secs(1),
            reply_deadline: SimDuration::from_secs(2),
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
    Direct { goal: Goal, attempt: u32 },
    /// One rung of a proxied operation: `send` goes out once connected.
    Rung {
        goal: Goal,
        attempt: u32,
        op: ClientOp<NodeId>,
        send: SimMsg,
    },
}

/// Deferred work attached to a timer token.
enum RetryAction {
    /// Start operation number `attempt` for `goal`.
    Start { goal: Goal, attempt: u32 },
    /// No reply on `flow` within the policy's deadline.
    Deadline { flow: FlowId },
}

/// A control flow awaiting its `ConnectRep`/`BindRep`.
struct Awaiting {
    goal: Goal,
    attempt: u32,
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
/// it ends; this machine owns what only an event-driven owner needs —
/// pacing between operations ([`RetryPolicy`]), reply deadlines,
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
    rebinds: u64,
    obs: Option<ClientObs>,
    /// user token → when its `connect()` was issued (span bookkeeping;
    /// survives retries because retries keep the user token).
    connect_started: HashMap<u64, SimTime>,
    /// When the current bind (or re-bind) was started.
    bind_started: Option<SimTime>,
    /// Binds pinned to shard `lane % members` — see
    /// [`NxClient::with_bind_lane`].
    bind_lane: Option<u16>,
}

impl NxClient {
    pub fn new(env: SimProxyEnv) -> Self {
        Self::with_policy(env, RetryPolicy::default())
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
            rebinds: 0,
            obs: None,
            connect_started: HashMap::new(),
            bind_started: None,
            bind_lane: None,
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

    /// Pin this client's binds to shard `lane % members`, falling over
    /// in ring order past breaker-open members instead of walking the
    /// bind key's HRW ladder. A striped transfer gives each stripe lane
    /// its own index, so K lanes land on K distinct shards by
    /// construction — parallel relay queues are the whole point of
    /// striping, and hash placement can collide lanes onto one shard.
    #[must_use]
    pub fn with_bind_lane(mut self, lane: u16) -> Self {
        self.bind_lane = Some(lane);
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

    /// Install a strictly newer fleet membership (relayed from a
    /// `ShardSync` or pushed by the harness). Breakers of unchanged
    /// shards keep their state.
    pub fn fleet_install(&mut self, generation: u64, members: Vec<(NodeId, u16)>) -> bool {
        self.core
            .as_mut()
            .is_some_and(|core| core.install(generation, members))
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

    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Retry attempts scheduled so far (dial retries + re-binds).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Automatic re-binds after a lost bind control flow.
    pub fn rebinds(&self) -> u64 {
        self.rebinds
    }

    fn itoken(&mut self) -> u64 {
        let t = self.next_itoken;
        self.next_itoken += 1;
        t
    }

    /// Does a timer token belong to this machine? Owners route such
    /// tokens to [`NxClient::on_timer`].
    pub fn owns_timer(&self, token: u64) -> bool {
        token >= NX_TOKEN_BASE
    }

    /// Jittered exponential backoff after failed attempt `attempt`
    /// (1-based): uniform in `[cap/2, cap]`.
    fn backoff_delay(&mut self, ctx: &mut Ctx<'_>, attempt: u32) -> SimDuration {
        let base = self.policy.base_backoff.nanos().max(1);
        let shift = attempt.saturating_sub(1).min(20);
        let cap = (base << shift).min(self.policy.max_backoff.nanos().max(1));
        let half = cap / 2;
        SimDuration(half + ctx.rng().below(cap - half + 1))
    }

    fn schedule(&mut self, ctx: &mut Ctx<'_>, delay: SimDuration, action: RetryAction) {
        let tok = self.itoken();
        self.timers.insert(tok, action);
        ctx.set_timer(delay, tok);
    }

    /// Operation number `attempt` failed: start another after a
    /// backoff, or give up with `Refused` / `BindFailed`.
    fn retry(&mut self, ctx: &mut Ctx<'_>, goal: Goal, attempt: u32) -> NxHandled {
        if attempt >= self.policy.max_attempts {
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
        }
        self.retries += 1;
        if let Some(o) = &self.obs {
            o.retries.inc();
        }
        let delay = self.backoff_delay(ctx, attempt);
        let attempt = attempt + 1;
        self.schedule(ctx, delay, RetryAction::Start { goal, attempt });
        NxHandled::Consumed
    }

    /// Start operation number `attempt` for `goal`.
    fn start(&mut self, ctx: &mut Ctx<'_>, goal: Goal, attempt: u32) -> NxHandled {
        let now = ctx.now().nanos();
        let (op, step) = match (&mut self.core, goal) {
            (Some(core), Goal::Connect { dst, .. }) => core.connect(now, dst),
            (Some(core), Goal::Bind { client_port }) => {
                core.bind(now, (ctx.host(), client_port), self.bind_lane)
            }
            (None, Goal::Connect { dst, .. }) => return self.dial_direct(ctx, goal, attempt, dst),
            // A direct bind completes inside `bind()`.
            (None, Goal::Bind { .. }) => return NxHandled::Consumed,
        };
        self.advance(ctx, goal, attempt, op, step)
    }

    fn dial_direct(
        &mut self,
        ctx: &mut Ctx<'_>,
        goal: Goal,
        attempt: u32,
        to: (NodeId, u16),
    ) -> NxHandled {
        let tok = self.itoken();
        self.pending.insert(tok, Pending::Direct { goal, attempt });
        ctx.connect(to, tok);
        NxHandled::Consumed
    }

    /// Execute the core's next step for an operation under way.
    fn advance(
        &mut self,
        ctx: &mut Ctx<'_>,
        goal: Goal,
        attempt: u32,
        op: ClientOp<NodeId>,
        step: Step<NodeId>,
    ) -> NxHandled {
        match step {
            Step::Direct { to } => self.dial_direct(ctx, goal, attempt, to),
            Step::Dial { to, send, .. } => {
                let tok = self.itoken();
                let rung = Pending::Rung {
                    goal,
                    attempt,
                    op,
                    send,
                };
                self.pending.insert(tok, rung);
                ctx.connect(to, tok);
                NxHandled::Consumed
            }
            // A typed refusal (or nobody left to dial): the policy
            // decides whether another operation starts.
            Step::Done(_) => self.retry(ctx, goal, attempt),
        }
    }

    /// The rung on a flow (or a dial) failed; `report` tells the core
    /// how, and the operation goes where the core says next.
    fn rung_failed(
        &mut self,
        ctx: &mut Ctx<'_>,
        goal: Goal,
        attempt: u32,
        mut op: ClientOp<NodeId>,
        report: fn(&mut ClientCore<NodeId>, &mut ClientOp<NodeId>, u64) -> Step<NodeId>,
    ) -> NxHandled {
        let Some(core) = &mut self.core else {
            return self.retry(ctx, goal, attempt);
        };
        let step = report(core, &mut op, ctx.now().nanos());
        self.advance(ctx, goal, attempt, op, step)
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
        self.start(ctx, Goal::Connect { user_token, dst }, 1);
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
            self.start(ctx, Goal::Bind { client_port: port }, 1);
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

    /// Feed a timer token through the machine (owners call this for
    /// every token where [`NxClient::owns_timer`] is true).
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) -> NxHandled {
        match self.timers.remove(&token) {
            Some(RetryAction::Start { goal, attempt }) => self.start(ctx, goal, attempt),
            Some(RetryAction::Deadline { flow }) => match self.awaiting.remove(&flow) {
                Some(a) => {
                    ctx.close(flow);
                    self.rung_failed(ctx, a.goal, a.attempt, a.op, ClientCore::session_died)
                }
                None => NxHandled::Consumed,
            },
            None => NxHandled::Consumed, // cancelled or stale
        }
    }

    /// Feed a raw flow event through the machine.
    pub fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) -> NxHandled {
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
                        attempt,
                        op,
                        send,
                    }) => {
                        let _ = ctx.send(flow, CTRL_MSG_BYTES, send);
                        let deadline_token = self.itoken();
                        self.timers
                            .insert(deadline_token, RetryAction::Deadline { flow });
                        ctx.set_timer(self.policy.reply_deadline, deadline_token);
                        let waiting = Awaiting {
                            goal,
                            attempt,
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
                    Some(Pending::Direct { goal, attempt }) => self.retry(ctx, goal, attempt),
                    Some(Pending::Rung {
                        goal, attempt, op, ..
                    }) => self.rung_failed(ctx, goal, attempt, op, ClientCore::dial_failed),
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
                self.rung_failed(ctx, a.goal, a.attempt, a.op, ClientCore::session_died)
            }
            FlowEvent::Closed { flow, .. } if self.bind_ctrl == Some(flow) => {
                // The outer server crashed (or withdrew us): the
                // rendezvous registration is gone. Re-register the same
                // private port and tell the owner the old address died.
                self.bind_ctrl = None;
                if let (Some(client_port), true) = (self.private_port, self.core.is_some()) {
                    self.rebinds += 1;
                    self.retries += 1;
                    if let Some(o) = &self.obs {
                        o.rebinds.inc();
                        o.retries.inc();
                    }
                    self.bind_started = Some(ctx.now());
                    self.start(ctx, Goal::Bind { client_port }, 1);
                }
                NxHandled::Event(NxEvent::BindLost)
            }
            other => NxHandled::Flow(other),
        }
    }

    /// Feed a delivery through the machine.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) -> NxHandled {
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
                self.advance(ctx, goal, a.attempt, a.op, next)
            }
        }
    }
}
