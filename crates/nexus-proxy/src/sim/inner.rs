//! The inner server as a simulation actor: the same driver shape as
//! [`super::outer`], around [`InnerCore`].

use super::{deliver, drive, flow_event, RelayCore, RelayModel, RELAY_TIMER};
use crate::core::{Event, InnerCore};
use netsim::prelude::*;
use wacs_obs::Registry;

const PREFIX: &str = "proxy.inner";

/// The inner server actor. Spawn it on a host *inside* the firewall;
/// it listens on `nxport` — the single inbound hole.
pub struct SimInnerServer {
    nxport: u16,
    require_registration: bool,
    registry: Registry,
    core: InnerCore<NodeId>,
    relay: RelayCore,
}

impl SimInnerServer {
    pub fn new(nxport: u16, model: RelayModel) -> Self {
        let registry = Registry::new();
        SimInnerServer {
            nxport,
            require_registration: false,
            core: InnerCore::new(false, &registry, PREFIX),
            registry,
            relay: RelayCore::new(model),
        }
    }

    fn rebuilt(mut self) -> Self {
        self.core = InnerCore::new(self.require_registration, &self.registry, PREFIX);
        self
    }

    /// Only relay endpoints announced via `BindSync` (the sim twin of
    /// `InnerConfig::with_registration_required`).
    pub fn with_registration_required(mut self) -> Self {
        self.require_registration = true;
        self.rebuilt()
    }

    /// Record control-plane spans and counters under `proxy.inner.*`
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

    pub fn forwarded(&self) -> u64 {
        self.relay.forwarded
    }

    fn drive(&mut self, ctx: &mut Ctx<'_>, ev: Event<NodeId>) {
        let core = &mut self.core;
        drive(ctx, &mut self.relay, "inner", ev, |now, ev| {
            core.step(now, ev)
        });
    }
}

impl Actor for SimInnerServer {
    fn name(&self) -> &str {
        "inner-server"
    }

    // A taken nxport means the site is misconfigured; aborting with the
    // port in the message is the most useful diagnostic the sim can give.
    #[allow(clippy::expect_used)]
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.nxport).expect("inner server nxport in use"); // lint:allow(unwrap-panic)
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == RELAY_TIMER {
            self.relay.on_timer(ctx);
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
        deliver(ctx, &mut self.relay, "inner", mode, msg, |now, ev| {
            core.step(now, ev)
        });
    }
}
