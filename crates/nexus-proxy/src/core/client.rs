//! The proxy client's control plane as a sans-IO machine.
//!
//! Table 1's `NXProxyConnect` and `NXProxyBind` each decide one thing:
//! which relay to dial and what to do when it refuses. [`ClientCore`]
//! makes that decision once for both drivers — the blocking calls in
//! `crate::client` and the event-driven `crate::sim::NxClient` — and
//! for `wacs-check`'s `shard` model. One operation is a short pull
//! loop: [`ClientCore::connect`] or [`ClientCore::bind`] hands out the
//! first [`Step`]; the driver executes it and reports what happened
//! ([`ClientCore::dial_failed`], [`ClientCore::replied`],
//! [`ClientCore::session_died`]), which yields the next step, until
//! [`Step::Done`]. No sockets, no clock, no timers: pacing between
//! operations, reply deadlines and re-binding belong to the drivers.
//!
//! A single outer server is a fleet of one. The rules (DESIGN.md §6g):
//!
//! * a destination on a member host is a rendezvous address and is
//!   dialed direct;
//! * rungs come from the key's HRW ladder (or the lane ring of a
//!   striped bind), skipping members whose breaker refuses; when every
//!   breaker refuses, the head of the ladder is dialed anyway (L1);
//! * within one operation each member is dialed at most once, plus one
//!   `Redirect` follow to an address that need not be in the local map
//!   (L2); an exhausted ladder is [`Refusal::Exhausted`] and the last
//!   rung's own error stands;
//! * a bind aimed at a non-owner carries `fallback: true`; a redirect
//!   follow carries `false`;
//! * every dial outcome feeds the member's breaker, connects included
//!   (L3); any reply counts as the shard being alive;
//! * `Busy`, `ConnectRep{ok:false}` and `BindRep{0}` end the operation
//!   with a typed [`Refusal`] (L4).

use super::{shard_map, HostId};
use crate::hook::DialLeg;
use crate::liveness::{BreakerConfig, BreakerState};
use crate::protocol::CtrlMsg;
use crate::shard::{ShardRouter, ShardStats};
use std::sync::Arc;
use wacs_obs::Registry;

/// What the driver does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<H> {
    /// Dial `to` as a plain data connection; the operation is over and
    /// nothing is reported back.
    Direct {
        to: (H, u16),
    },
    /// Dial `to`, write `send`, read one reply; report the outcome.
    Dial {
        to: (H, u16),
        leg: DialLeg,
        send: CtrlMsg<H>,
    },
    Done(Outcome<H>),
}

/// How an operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<H> {
    /// `ConnectRep{ok:true}`: the control connection is now the pipe.
    Connected,
    /// `BindRep{port}`: peers reach the bind at `advertised`, for as
    /// long as the control connection stays open.
    Bound {
        advertised: (H, u16),
    },
    Refused(Refusal),
}

/// Why an operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Refusal {
    /// Admission control: the shard is up but full; retry later.
    Busy,
    /// `ConnectRep{ok:false}`: the relay could not reach the target.
    Unreachable { detail: String },
    /// `BindRep{0}`: no rendezvous port (allocation failed, or the
    /// shard has been superseded).
    NoRendezvous,
    /// A reply the request cannot have (a second `Redirect` included).
    Unexpected,
    /// No member left to dial: the last rung's own error stands.
    Exhausted,
}

/// Observer of every decision, one rendered line each (conformance
/// traces, debugging). Not part of any decision.
pub type ClientHook = Arc<dyn Fn(String) + Send + Sync>;

enum Goal<H> {
    Connect { dst: (H, u16) },
    Bind { me: (H, u16), lane: Option<u16> },
}

/// One connect or bind in progress.
pub struct ClientOp<H> {
    goal: Goal<H>,
    /// Members already dialed by this operation.
    tried: Vec<usize>,
    /// The rung in progress: its address, and its member index when
    /// the address is in the map (a redirect may name one that is not).
    at: Option<(Option<usize>, (H, u16))>,
    redirected: bool,
}

impl<H: Clone> ClientOp<H> {
    fn new(goal: Goal<H>) -> Self {
        ClientOp {
            goal,
            tried: Vec::new(),
            at: None,
            redirected: false,
        }
    }

    /// The step that dials `to` (member `idx`, if it is one) with this
    /// operation's request.
    fn dial(&mut self, idx: Option<usize>, to: (H, u16), fallback: bool) -> Step<H> {
        let send = match &self.goal {
            Goal::Connect { dst } => CtrlMsg::ConnectReq {
                host: dst.0.clone(),
                port: dst.1,
            },
            Goal::Bind { me, .. } => CtrlMsg::BindReq {
                host: me.0.clone(),
                port: me.1,
                fallback,
            },
        };
        self.at = Some((idx, to.clone()));
        Step::Dial {
            to,
            leg: DialLeg::ClientCtrl,
            send,
        }
    }
}

/// The client's view of the outer fleet — members, the HRW map, one
/// breaker per member, the `wacs.shard.*` client counters — and every
/// decision of an operation over it.
pub struct ClientCore<H: HostId> {
    members: Vec<(H, u16)>,
    router: ShardRouter,
    stats: ShardStats,
    hook: Option<ClientHook>,
}

impl<H: HostId> ClientCore<H> {
    /// A core over `members` (control endpoints, fleet order) at
    /// generation 1, counting into a registry of its own until
    /// [`ClientCore::observe`] says otherwise.
    pub fn new(members: Vec<(H, u16)>, cfg: BreakerConfig) -> Self {
        let router = ShardRouter::new(shard_map(1, &members), cfg);
        let stats = ShardStats::in_registry(&Registry::new());
        stats.map_generation.set(1);
        ClientCore {
            members,
            router,
            stats,
            hook: None,
        }
    }

    /// Count under `wacs.shard.*` in `registry` from now on.
    pub fn observe(&mut self, registry: &Registry) {
        self.stats = ShardStats::in_registry(registry);
        self.stats
            .map_generation
            .set(self.router.map().generation() as i64);
    }

    /// Observe every decision from now on.
    pub fn set_hook(&mut self, hook: ClientHook) {
        self.hook = Some(hook);
    }

    /// Install a strictly newer membership (e.g. relayed from a
    /// `ShardSync`). Breakers of unchanged members keep their state.
    pub fn install(&mut self, generation: u64, members: Vec<(H, u16)>) -> bool {
        let map = shard_map(generation, &members);
        if !self.router.install(map.generation(), map.tags().to_vec()) {
            return false;
        }
        self.members = members;
        self.stats.map_generation.set(generation as i64);
        true
    }

    pub fn generation(&self) -> u64 {
        self.router.map().generation()
    }

    pub fn members(&self) -> &[(H, u16)] {
        &self.members
    }

    pub fn breaker_state(&self, idx: usize) -> Option<BreakerState> {
        self.router.breaker_state(idx)
    }

    /// `NXProxyConnect` toward `dst`.
    pub fn connect(&mut self, now: u64, dst: (H, u16)) -> (ClientOp<H>, Step<H>) {
        let seen = self.seen(|| format!("connect {dst:?}"));
        let direct = self.members.iter().any(|(h, _)| *h == dst.0);
        let mut op = ClientOp::new(Goal::Connect { dst: dst.clone() });
        let step = if direct {
            Step::Direct { to: dst }
        } else {
            self.next_rung(&mut op, now)
        };
        (op, self.traced(seen, step))
    }

    /// `NXProxyBind` of the private endpoint `me`. `lane` pins a
    /// striped transfer's lane to shard `lane % len` with ring-order
    /// failover instead of the HRW ladder, so K lanes land on K
    /// distinct shards by construction.
    pub fn bind(&mut self, now: u64, me: (H, u16), lane: Option<u16>) -> (ClientOp<H>, Step<H>) {
        let seen = self.seen(|| format!("bind {me:?} lane {lane:?}"));
        let mut op = ClientOp::new(Goal::Bind { me, lane });
        let step = self.next_rung(&mut op, now);
        (op, self.traced(seen, step))
    }

    /// The dial of the last [`Step::Dial`] failed.
    pub fn dial_failed(&mut self, op: &mut ClientOp<H>, now: u64) -> Step<H> {
        let seen = self.seen(|| "dial_failed".to_string());
        let step = self.rung_failed(op, now);
        self.traced(seen, step)
    }

    /// The dial succeeded but the session ended (or timed out) before
    /// a reply: the shard failed under us.
    pub fn session_died(&mut self, op: &mut ClientOp<H>, now: u64) -> Step<H> {
        let seen = self.seen(|| "session_died".to_string());
        let step = self.rung_failed(op, now);
        self.traced(seen, step)
    }

    /// The rung answered `msg`.
    pub fn replied(&mut self, op: &mut ClientOp<H>, msg: CtrlMsg<H>) -> Step<H> {
        let seen = self.seen(|| format!("replied {msg:?}"));
        let at = op.at.take();
        if let Some((Some(idx), _)) = &at {
            self.router.on_success(*idx);
        }
        let refused = |r| Step::Done(Outcome::Refused(r));
        let step = match (&op.goal, msg) {
            (_, CtrlMsg::Busy) => refused(Refusal::Busy),
            (Goal::Connect { .. }, CtrlMsg::ConnectRep { ok: true, .. }) => {
                Step::Done(Outcome::Connected)
            }
            (Goal::Connect { .. }, CtrlMsg::ConnectRep { ok: false, detail }) => {
                refused(Refusal::Unreachable { detail })
            }
            (Goal::Bind { .. }, CtrlMsg::BindRep { rdv_port: 0 }) => refused(Refusal::NoRendezvous),
            (Goal::Bind { .. }, CtrlMsg::BindRep { rdv_port }) => match at {
                Some((_, (host, _))) => Step::Done(Outcome::Bound {
                    advertised: (host, rdv_port),
                }),
                None => refused(Refusal::Unexpected),
            },
            // A non-owner named the owner from a map at least as fresh
            // as ours: follow once, whether or not we know the address.
            (Goal::Bind { .. }, CtrlMsg::Redirect { host, port }) if !op.redirected => {
                op.redirected = true;
                self.stats.redirects_followed.inc();
                let to = (host, port);
                let idx = self.members.iter().position(|m| *m == to);
                op.tried.extend(idx);
                op.dial(idx, to, false)
            }
            _ => refused(Refusal::Unexpected),
        };
        self.traced(seen, step)
    }

    /// Charge the failed rung's breaker and descend.
    fn rung_failed(&mut self, op: &mut ClientOp<H>, now: u64) -> Step<H> {
        if let Some((Some(idx), _)) = op.at.take() {
            self.router.on_failure(idx, now);
        }
        self.stats.failovers.inc();
        self.next_rung(op, now)
    }

    /// The next member this operation has not dialed and whose breaker
    /// admits a dial; with nothing dialed yet and every breaker
    /// refusing, the head of the ladder anyway (L1).
    fn next_rung(&mut self, op: &mut ClientOp<H>, now: u64) -> Step<H> {
        let (key, lane) = match &op.goal {
            Goal::Connect { dst } => (dst.0.shard_key(dst.1), None),
            Goal::Bind { me, lane } => (me.0.shard_key(me.1), *lane),
        };
        let owner = self.router.map().owner(&key);
        let (picked, head) = match lane {
            Some(l) => {
                let start = usize::from(l);
                let head = start.checked_rem(self.members.len());
                (self.router.route_from(start, now, &op.tried), head)
            }
            None => (self.router.route(&key, now, &op.tried), owner),
        };
        let fresh = op.tried.is_empty() && !op.redirected;
        let rung = picked.or(head.filter(|_| fresh));
        let Some((idx, to)) = rung.and_then(|i| Some((i, self.members.get(i)?.clone()))) else {
            return Step::Done(Outcome::Refused(Refusal::Exhausted));
        };
        op.tried.push(idx);
        // A request knowingly aimed at a non-owner tells the shard to
        // serve instead of redirecting us back to a dead owner.
        op.dial(Some(idx), to, owner != Some(idx))
    }

    /// `what()`, kept for the observer if there is one.
    fn seen(&self, what: impl FnOnce() -> String) -> Option<String> {
        self.hook.as_ref().map(|_| what())
    }

    fn traced(&self, seen: Option<String>, step: Step<H>) -> Step<H> {
        if let (Some(hook), Some(what)) = (&self.hook, seen) {
            hook(format!("{what} -> {step:?}"));
        }
        step
    }
}
