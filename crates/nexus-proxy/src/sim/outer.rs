//! The outer server as a simulation actor: a driver that translates
//! `netsim` callbacks into [`crate::core`] events and executes the
//! returned actions as `Ctx` calls. Every decision is
//! [`OuterCore`]'s; the relay cost model is [`RelayCore`]'s.

use super::{deliver, drive, flow_event, RelayCore, RelayModel, HB_RETRY, HB_TICK, RELAY_TIMER};
use crate::core::{Event, OuterCore, OuterParams, Timer};
use crate::liveness::{AdmissionLimits, BreakerConfig, HeartbeatConfig};
use netsim::prelude::*;
use wacs_obs::Registry;

const PREFIX: &str = "proxy.outer";

/// The outer server actor. Spawn it on a host *outside* the firewall.
pub struct SimOuterServer {
    params: OuterParams<NodeId>,
    registry: Registry,
    core: OuterCore<NodeId>,
    relay: RelayCore,
}

impl SimOuterServer {
    /// Admission is unbounded and the heartbeat session off until
    /// [`with_admission`](Self::with_admission) /
    /// [`with_liveness`](Self::with_liveness) say otherwise.
    pub fn new(ctrl_port: u16, inner: Option<(NodeId, u16)>, model: RelayModel) -> Self {
        let params = OuterParams {
            ctrl_port,
            inner,
            limits: AdmissionLimits {
                max_total: u32::MAX,
                max_per_peer: u32::MAX,
            },
            heartbeat: None,
            breaker: BreakerConfig::default(),
            fleet: None,
        };
        let registry = Registry::new();
        SimOuterServer {
            core: OuterCore::new(params.clone(), &registry, PREFIX),
            params,
            registry,
            relay: RelayCore::new(model),
        }
    }

    fn rebuilt(mut self) -> Self {
        self.core = OuterCore::new(self.params.clone(), &self.registry, PREFIX);
        self
    }

    /// Run as shard `self_index` of the fleet listed in `members`
    /// (control endpoints, the same list in the same order everywhere)
    /// — the sim twin of `OuterConfig::with_fleet`.
    pub fn with_fleet(mut self, members: Vec<(NodeId, u16)>, self_index: usize) -> Self {
        self.params.fleet = Some((members, self_index));
        self.rebuilt()
    }

    /// Enable the heartbeat control session to the inner server and
    /// tune the WAN-leg circuit breaker — the sim twin of
    /// `OuterConfig::with_heartbeat`/`with_breaker`.
    // lint:allow(unused-pub) test knob: the sim heartbeat and breaker cells in tests/liveness.rs
    pub fn with_liveness(mut self, hb: HeartbeatConfig, br: BreakerConfig) -> Self {
        self.params.heartbeat = Some(hb);
        self.params.breaker = br;
        self.rebuilt()
    }

    /// Bound admission (total + per-peer), refusing with `Busy` on the
    /// control port.
    // lint:allow(unused-pub) test knob: the sim admission cells in tests/liveness.rs
    pub fn with_admission(mut self, limits: AdmissionLimits) -> Self {
        self.params.limits = limits;
        self.rebuilt()
    }

    /// Record control-plane spans and counters under `proxy.outer.*`
    /// (and the relay data path under the same prefix) in `registry`.
    pub fn with_obs(mut self, registry: &Registry) -> Self {
        self.relay.set_obs(registry, PREFIX);
        self.registry = registry.clone();
        self.rebuilt()
    }

    /// Observe every core step (apply after the `with_*` builders).
    #[cfg(test)]
    pub(crate) fn hooked(mut self, hook: crate::core::StepHook<NodeId>) -> Self {
        self.core.set_hook(hook);
        self
    }

    /// Messages forwarded so far (diagnostics for tests/benches).
    pub fn forwarded(&self) -> u64 {
        self.relay.forwarded
    }

    fn drive(&mut self, ctx: &mut Ctx<'_>, ev: Event<NodeId>) {
        let core = &mut self.core;
        drive(ctx, &mut self.relay, "outer", ev, |now, ev| {
            core.step(now, ev)
        });
    }
}

impl Actor for SimOuterServer {
    fn name(&self) -> &str {
        "outer-server"
    }

    // A taken control port means the DMZ host is misconfigured; abort
    // loudly rather than run a proxy nobody can reach.
    #[allow(clippy::expect_used)]
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.params.ctrl_port)
            .expect("outer server control port in use"); // lint:allow(unwrap-panic)
        self.drive(ctx, Event::Start);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            RELAY_TIMER => self.relay.on_timer(ctx),
            HB_TICK => self.drive(ctx, Event::Timer(Timer::HbTick)),
            HB_RETRY => self.drive(ctx, Event::Timer(Timer::HbRetry)),
            _ => {}
        }
    }

    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        if let FlowEvent::Closed { flow, .. } = ev {
            self.relay.on_closed(ctx, flow);
        }
        self.drive(ctx, flow_event(ev));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let mode = self.core.mode(msg.flow.0);
        let core = &mut self.core;
        deliver(ctx, &mut self.relay, "outer", mode, msg, |now, ev| {
            core.step(now, ev)
        });
    }
}
