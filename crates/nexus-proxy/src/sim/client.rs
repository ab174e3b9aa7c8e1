//! Client-side proxy logic for simulation actors: the sim analogue of
//! `NXProxyConnect` / `NXProxyBind` / `NXProxyAccept`.
//!
//! Simulation actors are event-driven state machines, so the client
//! library is an *embedded* state machine: the owning actor funnels
//! all its `on_flow` / `on_message` / `on_timer` events through
//! [`NxClient`], which consumes proxy-internal traffic and hands
//! everything else back. This mirrors how the paper patched Globus:
//! the application still sees connect/accept semantics; the proxy
//! plumbing is hidden below.
//!
//! ## Recovery
//!
//! The relay chain can fail independently of the endpoints (outer
//! server crash, WAN loss). The client machine therefore retries
//! failed dials and unanswered control requests with bounded
//! exponential backoff + jitter ([`RetryPolicy`], seeded via the
//! world's [`netsim::rng::SimRng`], so recovery is deterministic), and
//! re-issues its `BindReq` when the bind control flow drops — the
//! owner sees [`NxEvent::BindLost`] (withdraw the advertised address)
//! followed by a fresh [`NxEvent::Bound`] once the outer server is
//! back. Owners must forward unrecognized timer tokens through
//! [`NxClient::on_timer`] (gate on [`NxClient::owns_timer`]).

use super::{sim_shard_key, SimMsg, CTRL_MSG_BYTES};
use crate::core::shard_map;
use crate::liveness::BreakerConfig;
use crate::shard::{ShardRouter, ShardStats};
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

/// Sim analogue of the `NEXUS_PROXY_OUTER_SERVER` environment variable.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimProxyEnv {
    pub outer: Option<(NodeId, u16)>,
}

impl SimProxyEnv {
    pub fn direct() -> Self {
        SimProxyEnv { outer: None }
    }

    pub fn via(outer: (NodeId, u16)) -> Self {
        SimProxyEnv { outer: Some(outer) }
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

enum Pending {
    /// Dialing the outer server to issue a ConnectReq toward `dst`.
    OuterForConnect {
        user_token: u64,
        dst: (NodeId, u16),
        attempt: u32,
    },
    /// Plain connect (direct, or straight to a rendezvous address).
    Direct {
        user_token: u64,
        dst: (NodeId, u16),
        attempt: u32,
    },
    /// Dialing the outer server to register a bind of `client_port`.
    OuterForBind { client_port: u16, attempt: u32 },
    /// Dialing fleet shard `idx` (at `shard`) to register a bind of
    /// `client_port`. `fallback` is set when the client knowingly
    /// addresses a non-owner (the owner's breaker is open), telling
    /// the shard to serve rather than redirect.
    FleetForBind {
        client_port: u16,
        attempt: u32,
        idx: usize,
        shard: (NodeId, u16),
        fallback: bool,
    },
}

/// Deferred work attached to a timer token.
enum RetryAction {
    Connect {
        user_token: u64,
        dst: (NodeId, u16),
        attempt: u32,
    },
    Bind {
        client_port: u16,
        attempt: u32,
    },
    ConnectDeadline {
        flow: FlowId,
    },
    BindDeadline {
        flow: FlowId,
    },
}

/// A control flow awaiting a `ConnectRep`.
struct AwaitRep {
    user_token: u64,
    dst: (NodeId, u16),
    attempt: u32,
    deadline_token: u64,
}

/// The control flow awaiting a `BindRep`.
struct BindAwait {
    flow: FlowId,
    client_port: u16,
    attempt: u32,
    deadline_token: u64,
    /// Fleet mode: the shard serving this bind, as `(index, node)` —
    /// the node becomes the advertised rendezvous host on success and
    /// the index is charged on failure.
    shard: Option<(usize, NodeId)>,
}

/// Client-side fleet state: member endpoints plus the breaker-gated
/// HRW router (the sim twin of the real path's `FleetRouter`).
struct SimFleetClient {
    members: Vec<(NodeId, u16)>,
    router: ShardRouter,
}

/// Registry handles for the client machine's spans and counters.
struct ClientObs {
    /// `connect()` call → `Connected`/`Refused` (retries included).
    handshake_ns: Histogram,
    /// `bind()` call (or re-bind start) → `Bound`.
    bind_ns: Histogram,
    retries: Counter,
    rebinds: Counter,
}

/// The embedded client state machine.
pub struct NxClient {
    env: SimProxyEnv,
    /// When set, binds route across the outer-shard fleet instead of
    /// `env.outer` (DESIGN.md §6d).
    fleet: Option<SimFleetClient>,
    policy: RetryPolicy,
    pending: HashMap<u64, Pending>,
    /// Flows awaiting a `ConnectRep`.
    await_rep: HashMap<FlowId, AwaitRep>,
    /// Control flow awaiting a `BindRep`.
    bind_await: Option<BindAwait>,
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
    shard_obs: Option<ShardStats>,
    /// user token → when its `connect()` was issued (span bookkeeping;
    /// survives retries because retries keep the user token).
    connect_started: HashMap<u64, SimTime>,
    /// When the current bind (or re-bind) was started.
    bind_started: Option<SimTime>,
    /// Fleet binds pinned to shard `lane % members` (ring-order
    /// failover) instead of the HRW ladder — see
    /// [`NxClient::with_bind_lane`].
    bind_lane: Option<u16>,
}

impl NxClient {
    pub fn new(env: SimProxyEnv) -> Self {
        Self::with_policy(env, RetryPolicy::default())
    }

    pub fn with_policy(env: SimProxyEnv, policy: RetryPolicy) -> Self {
        NxClient {
            env,
            fleet: None,
            policy,
            pending: HashMap::new(),
            await_rep: HashMap::new(),
            bind_await: None,
            bind_ctrl: None,
            private_port: None,
            timers: HashMap::new(),
            next_itoken: NX_TOKEN_BASE,
            retries: 0,
            rebinds: 0,
            obs: None,
            shard_obs: None,
            connect_started: HashMap::new(),
            bind_started: None,
            bind_lane: None,
        }
    }

    /// Route binds (and proxied connects) across an outer-shard fleet
    /// instead of `env.outer`: HRW ownership picks the shard, per-shard
    /// circuit breakers drive failover, and member hosts are still
    /// dialed directly for rendezvous connects.
    pub fn with_fleet(mut self, members: Vec<(NodeId, u16)>) -> Self {
        let router = ShardRouter::new(shard_map(1, &members), BreakerConfig::default());
        self.fleet = Some(SimFleetClient { members, router });
        self
    }

    /// Pin this client's fleet binds to shard `lane % members`,
    /// falling over in ring order past breaker-open members
    /// ([`ShardRouter::route_from`]) instead of walking the bind key's
    /// HRW ladder. A striped transfer gives each stripe lane its own
    /// index, so K lanes land on K distinct shards by construction —
    /// parallel relay queues are the whole point of striping, and hash
    /// placement can collide lanes onto one shard. No effect outside
    /// fleet mode.
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
            handshake_ns: registry.histogram("proxy.client.handshake_ns"),
            bind_ns: registry.histogram("proxy.client.bind_ns"),
            retries: registry.counter("proxy.client.retries"),
            rebinds: registry.counter("proxy.client.rebinds"),
        });
        let shard = ShardStats::in_registry(registry);
        if let Some(f) = &self.fleet {
            shard.map_generation.set(f.router.map().generation() as i64);
        }
        self.shard_obs = Some(shard);
        self
    }

    /// Install a strictly newer fleet membership (relayed from a
    /// `ShardSync` or pushed by the harness). Breakers of unchanged
    /// shards keep their state.
    pub fn fleet_install(&mut self, generation: u64, members: Vec<(NodeId, u16)>) -> bool {
        let Some(f) = &mut self.fleet else {
            return false;
        };
        let map = shard_map(generation, &members);
        if !f.router.install(map.generation(), map.tags().to_vec()) {
            return false;
        }
        f.members = members;
        if let Some(s) = &self.shard_obs {
            s.map_generation.set(generation as i64);
        }
        true
    }

    /// Current fleet-map generation (0 when not in fleet mode).
    pub fn fleet_generation(&self) -> u64 {
        self.fleet
            .as_ref()
            .map_or(0, |f| f.router.map().generation())
    }

    /// Charge a failed bind interaction to shard `idx`'s breaker.
    fn fleet_bind_failure(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        if let Some(f) = &mut self.fleet {
            f.router.on_failure(idx, ctx.now().nanos());
            if let Some(s) = &self.shard_obs {
                s.failovers.inc();
            }
        }
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

    pub fn env(&self) -> SimProxyEnv {
        self.env
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

    /// Retry a failed connect or give up with `Refused`.
    fn retry_connect(
        &mut self,
        ctx: &mut Ctx<'_>,
        user_token: u64,
        dst: (NodeId, u16),
        attempt: u32,
    ) -> NxHandled {
        if attempt >= self.policy.max_attempts {
            self.finish_connect_span(user_token, ctx.now());
            return NxHandled::Event(NxEvent::Refused { token: user_token });
        }
        self.retries += 1;
        if let Some(o) = &self.obs {
            o.retries.inc();
        }
        let delay = self.backoff_delay(ctx, attempt);
        self.schedule(
            ctx,
            delay,
            RetryAction::Connect {
                user_token,
                dst,
                attempt: attempt + 1,
            },
        );
        NxHandled::Consumed
    }

    /// Retry a failed bind registration or give up with `BindFailed`.
    fn retry_bind(&mut self, ctx: &mut Ctx<'_>, client_port: u16, attempt: u32) -> NxHandled {
        if attempt >= self.policy.max_attempts {
            self.bind_started = None;
            return NxHandled::Event(NxEvent::BindFailed);
        }
        self.retries += 1;
        if let Some(o) = &self.obs {
            o.retries.inc();
        }
        let delay = self.backoff_delay(ctx, attempt);
        self.schedule(
            ctx,
            delay,
            RetryAction::Bind {
                client_port,
                attempt: attempt + 1,
            },
        );
        NxHandled::Consumed
    }

    fn start_connect(
        &mut self,
        ctx: &mut Ctx<'_>,
        dst: (NodeId, u16),
        user_token: u64,
        attempt: u32,
    ) {
        // Where to dial: `None` means a plain connect to `dst` (direct
        // mode, or `dst` is a rendezvous address on a proxy host);
        // `Some(ep)` means issue a `ConnectReq` via `ep`.
        let via: Option<(NodeId, u16)> = if let Some(f) = &mut self.fleet {
            if f.members.is_empty() || f.members.iter().any(|m| m.0 == dst.0) {
                None
            } else {
                // Any shard can serve a `ConnectReq`; prefer the HRW
                // owner, let breakers skip shards known dead, and when
                // everything is open probe the owner anyway (a refusal
                // lands back in the normal retry path).
                let key = sim_shard_key(dst);
                let idx = match f.router.route(&key, ctx.now().nanos()) {
                    Some(i) => i,
                    None => f.router.map().owner(&key).unwrap_or(0),
                };
                Some(f.members[idx])
            }
        } else {
            match self.env.outer {
                Some(outer) if dst.0 != outer.0 => Some(outer),
                _ => None,
            }
        };
        let tok = self.itoken();
        match via {
            None => {
                self.pending.insert(
                    tok,
                    Pending::Direct {
                        user_token,
                        dst,
                        attempt,
                    },
                );
                ctx.connect(dst, tok);
            }
            Some(ep) => {
                self.pending.insert(
                    tok,
                    Pending::OuterForConnect {
                        user_token,
                        dst,
                        attempt,
                    },
                );
                ctx.connect(ep, tok);
            }
        }
    }

    fn start_bind_dial(&mut self, ctx: &mut Ctx<'_>, client_port: u16, attempt: u32) {
        // Fleet mode: the breaker-gated ladder picks the shard, and a
        // knowing non-owner dial carries the fallback flag so the shard
        // serves instead of redirecting us back to a dead owner.
        let lane = self.bind_lane;
        let fleet_target = match &mut self.fleet {
            Some(f) if !f.members.is_empty() => {
                let key = sim_shard_key((ctx.host(), client_port));
                let idx = match lane {
                    // Lane affinity: positional start, ring failover.
                    Some(l) => match f.router.route_from(usize::from(l), ctx.now().nanos()) {
                        Some(i) => i,
                        None => usize::from(l) % f.members.len(),
                    },
                    None => match f.router.route(&key, ctx.now().nanos()) {
                        Some(i) => i,
                        // Every breaker open: probe the owner anyway;
                        // the refusal feeds the normal retry/backoff
                        // path.
                        None => f.router.map().owner(&key).unwrap_or(0),
                    },
                };
                let fallback = f.router.map().owner(&key) != Some(idx);
                Some((idx, f.members[idx], fallback))
            }
            _ => None,
        };
        if let Some((idx, shard, fallback)) = fleet_target {
            let tok = self.itoken();
            self.pending.insert(
                tok,
                Pending::FleetForBind {
                    client_port,
                    attempt,
                    idx,
                    shard,
                    fallback,
                },
            );
            ctx.connect(shard, tok);
        } else if let Some(outer) = self.env.outer {
            let tok = self.itoken();
            self.pending.insert(
                tok,
                Pending::OuterForBind {
                    client_port,
                    attempt,
                },
            );
            ctx.connect(outer, tok);
        }
    }

    /// `NXProxyConnect`: connect to `dst`, directly or via the outer
    /// server. Completion arrives as [`NxEvent::Connected`] /
    /// [`NxEvent::Refused`] carrying `user_token`.
    pub fn connect(&mut self, ctx: &mut Ctx<'_>, dst: (NodeId, u16), user_token: u64) {
        assert!(
            user_token < NX_TOKEN_BASE,
            "application tokens must be below NX_TOKEN_BASE"
        );
        if self.obs.is_some() {
            self.connect_started.insert(user_token, ctx.now());
        }
        self.start_connect(ctx, dst, user_token, 1);
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
        if self.fleet.is_none() && self.env.outer.is_none() {
            // Direct binds complete within the call: zero-length span.
            if let Some(o) = &self.obs {
                o.bind_ns.record(0);
            }
            Some((ctx.host(), port))
        } else {
            self.bind_started = Some(ctx.now());
            self.start_bind_dial(ctx, port, 1);
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
        let Some(action) = self.timers.remove(&token) else {
            return NxHandled::Consumed; // cancelled or stale
        };
        match action {
            RetryAction::Connect {
                user_token,
                dst,
                attempt,
            } => {
                self.start_connect(ctx, dst, user_token, attempt);
                NxHandled::Consumed
            }
            RetryAction::Bind {
                client_port,
                attempt,
            } => {
                self.start_bind_dial(ctx, client_port, attempt);
                NxHandled::Consumed
            }
            RetryAction::ConnectDeadline { flow } => {
                if let Some(ar) = self.await_rep.remove(&flow) {
                    ctx.close(flow);
                    self.retry_connect(ctx, ar.user_token, ar.dst, ar.attempt)
                } else {
                    NxHandled::Consumed
                }
            }
            RetryAction::BindDeadline { flow } => {
                if self.bind_await.as_ref().is_some_and(|b| b.flow == flow) {
                    let Some(b) = self.bind_await.take() else {
                        return NxHandled::Consumed;
                    };
                    ctx.close(flow);
                    if let Some((idx, _)) = b.shard {
                        self.fleet_bind_failure(ctx, idx);
                    }
                    self.retry_bind(ctx, b.client_port, b.attempt)
                } else {
                    NxHandled::Consumed
                }
            }
        }
    }

    /// Feed a raw flow event through the machine.
    pub fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) -> NxHandled {
        match ev {
            FlowEvent::Connected { flow, token, .. } if token >= NX_TOKEN_BASE => {
                match self.pending.remove(&token) {
                    Some(Pending::Direct { user_token, .. }) => {
                        self.finish_connect_span(user_token, ctx.now());
                        NxHandled::Event(NxEvent::Connected {
                            flow,
                            token: user_token,
                        })
                    }
                    Some(Pending::OuterForConnect {
                        user_token,
                        dst,
                        attempt,
                    }) => {
                        let (host, port) = dst;
                        let _ = ctx.send(flow, CTRL_MSG_BYTES, SimMsg::ConnectReq { host, port });
                        let deadline_token = self.itoken();
                        self.timers
                            .insert(deadline_token, RetryAction::ConnectDeadline { flow });
                        ctx.set_timer(self.policy.reply_deadline, deadline_token);
                        self.await_rep.insert(
                            flow,
                            AwaitRep {
                                user_token,
                                dst,
                                attempt,
                                deadline_token,
                            },
                        );
                        NxHandled::Consumed
                    }
                    Some(Pending::OuterForBind {
                        client_port,
                        attempt,
                    }) => {
                        let _ = ctx.send(
                            flow,
                            CTRL_MSG_BYTES,
                            SimMsg::BindReq {
                                host: ctx.host(),
                                port: client_port,
                                fallback: false,
                            },
                        );
                        let deadline_token = self.itoken();
                        self.timers
                            .insert(deadline_token, RetryAction::BindDeadline { flow });
                        ctx.set_timer(self.policy.reply_deadline, deadline_token);
                        self.bind_await = Some(BindAwait {
                            flow,
                            client_port,
                            attempt,
                            deadline_token,
                            shard: None,
                        });
                        NxHandled::Consumed
                    }
                    Some(Pending::FleetForBind {
                        client_port,
                        attempt,
                        idx,
                        shard,
                        fallback,
                    }) => {
                        if let Some(f) = &mut self.fleet {
                            f.router.on_success(idx);
                        }
                        let _ = ctx.send(
                            flow,
                            CTRL_MSG_BYTES,
                            SimMsg::BindReq {
                                host: ctx.host(),
                                port: client_port,
                                fallback,
                            },
                        );
                        let deadline_token = self.itoken();
                        self.timers
                            .insert(deadline_token, RetryAction::BindDeadline { flow });
                        ctx.set_timer(self.policy.reply_deadline, deadline_token);
                        self.bind_await = Some(BindAwait {
                            flow,
                            client_port,
                            attempt,
                            deadline_token,
                            shard: Some((idx, shard.0)),
                        });
                        NxHandled::Consumed
                    }
                    None => NxHandled::Consumed,
                }
            }
            FlowEvent::Refused { token, .. } if token >= NX_TOKEN_BASE => {
                match self.pending.remove(&token) {
                    Some(Pending::Direct {
                        user_token,
                        dst,
                        attempt,
                    })
                    | Some(Pending::OuterForConnect {
                        user_token,
                        dst,
                        attempt,
                    }) => self.retry_connect(ctx, user_token, dst, attempt),
                    Some(Pending::OuterForBind {
                        client_port,
                        attempt,
                    }) => self.retry_bind(ctx, client_port, attempt),
                    Some(Pending::FleetForBind {
                        client_port,
                        attempt,
                        idx,
                        ..
                    }) => {
                        // A refused shard dial charges its breaker; the
                        // retry re-routes and descends the ladder once
                        // the breaker opens.
                        self.fleet_bind_failure(ctx, idx);
                        self.retry_bind(ctx, client_port, attempt)
                    }
                    None => NxHandled::Consumed,
                }
            }
            FlowEvent::Accepted {
                flow, listen_port, ..
            } if Some(listen_port) == self.private_port => {
                NxHandled::Event(NxEvent::Accepted { flow })
            }
            FlowEvent::Closed { flow, .. } if self.await_rep.contains_key(&flow) => {
                // Outer died before replying to our ConnectReq: cancel
                // the reply deadline and retry the whole dial.
                let Some(ar) = self.await_rep.remove(&flow) else {
                    return NxHandled::Consumed;
                };
                self.timers.remove(&ar.deadline_token);
                self.retry_connect(ctx, ar.user_token, ar.dst, ar.attempt)
            }
            FlowEvent::Closed { flow, .. }
                if self.bind_await.as_ref().is_some_and(|b| b.flow == flow) =>
            {
                let Some(b) = self.bind_await.take() else {
                    return NxHandled::Consumed;
                };
                self.timers.remove(&b.deadline_token);
                if let Some((idx, _)) = b.shard {
                    self.fleet_bind_failure(ctx, idx);
                }
                self.retry_bind(ctx, b.client_port, b.attempt)
            }
            FlowEvent::Closed { flow, .. } if self.bind_ctrl == Some(flow) => {
                // The outer server crashed (or withdrew us): the
                // rendezvous registration is gone. Re-register the same
                // private port and tell the owner the old address died.
                self.bind_ctrl = None;
                let proxied = self.fleet.is_some() || self.env.outer.is_some();
                match self.private_port {
                    Some(port) if proxied => {
                        self.rebinds += 1;
                        self.retries += 1;
                        if let Some(o) = &self.obs {
                            o.rebinds.inc();
                            o.retries.inc();
                        }
                        self.bind_started = Some(ctx.now());
                        self.start_bind_dial(ctx, port, 1);
                        NxHandled::Event(NxEvent::BindLost)
                    }
                    _ => NxHandled::Event(NxEvent::BindLost),
                }
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
        if let Some(ar) = self.await_rep.remove(&flow) {
            self.timers.remove(&ar.deadline_token);
            return match msg.expect::<SimMsg>() {
                SimMsg::ConnectRep { ok: true, .. } => {
                    self.finish_connect_span(ar.user_token, ctx.now());
                    NxHandled::Event(NxEvent::Connected {
                        flow,
                        token: ar.user_token,
                    })
                }
                _ => {
                    // Relay could not reach dst (stale rendezvous port
                    // during an outer restart, dst not up yet): retry.
                    ctx.close(flow);
                    self.retry_connect(ctx, ar.user_token, ar.dst, ar.attempt)
                }
            };
        }
        if self.bind_await.as_ref().is_some_and(|b| b.flow == flow) {
            let Some(b) = self.bind_await.take() else {
                return NxHandled::Data(msg);
            };
            self.timers.remove(&b.deadline_token);
            return match msg.expect::<SimMsg>() {
                SimMsg::BindRep { rdv_port } if rdv_port != 0 => {
                    // The advertised rendezvous host is whoever served
                    // the bind: the fleet shard, or the single outer.
                    let rdv_host = match (b.shard, self.env.outer) {
                        (Some((idx, node)), _) => {
                            if let Some(f) = &mut self.fleet {
                                f.router.on_success(idx);
                            }
                            Some(node)
                        }
                        (None, Some(outer)) => Some(outer.0),
                        // bind_await is only set in proxied mode; if the
                        // env lost its outer address, fail cleanly.
                        (None, None) => None,
                    };
                    match rdv_host {
                        Some(node) => {
                            self.bind_ctrl = Some(flow);
                            if let Some(t0) = self.bind_started.take() {
                                if let Some(o) = &self.obs {
                                    o.bind_ns.record(ctx.now().since(t0).nanos());
                                }
                            }
                            NxHandled::Event(NxEvent::Bound {
                                advertised: (node, rdv_port),
                            })
                        }
                        None => {
                            ctx.close(flow);
                            NxHandled::Event(NxEvent::BindFailed)
                        }
                    }
                }
                // A non-owner shard named the owner: follow the
                // redirect with `fallback: false` (the redirecting
                // shard's map is at least as fresh as ours).
                SimMsg::Redirect { host, port } if self.fleet.is_some() => {
                    let owner = (host, port);
                    if let Some(s) = &self.shard_obs {
                        s.redirects_followed.inc();
                    }
                    ctx.close(flow);
                    let idx = self
                        .fleet
                        .as_ref()
                        .and_then(|f| f.members.iter().position(|m| *m == owner))
                        .or(b.shard.map(|(i, _)| i))
                        .unwrap_or(0);
                    let tok = self.itoken();
                    self.pending.insert(
                        tok,
                        Pending::FleetForBind {
                            client_port: b.client_port,
                            attempt: b.attempt + 1,
                            idx,
                            shard: owner,
                            fallback: false,
                        },
                    );
                    ctx.connect(owner, tok);
                    NxHandled::Consumed
                }
                // `rdv_port: 0` is the server's explicit allocation
                // failure (or a superseded shard's refusal) — never a
                // valid rendezvous. In fleet mode charge the shard and
                // retry elsewhere; single-outer fails the bind.
                _ => {
                    ctx.close(flow);
                    match b.shard {
                        Some((idx, _)) => {
                            self.fleet_bind_failure(ctx, idx);
                            self.retry_bind(ctx, b.client_port, b.attempt)
                        }
                        None => NxHandled::Event(NxEvent::BindFailed),
                    }
                }
            };
        }
        NxHandled::Data(msg)
    }
}
