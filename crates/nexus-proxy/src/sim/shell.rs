//! The one actor shell around an [`NxClient`]. A host process that
//! talks through the proxy is an [`NxApp`] inside an [`NxActor`]: the
//! shell feeds every timer, flow event and delivery through the client
//! once, and the app sees only its own timer tokens and what the client
//! hands back. This is how the paper patched Globus: the application
//! still calls connect/bind/accept, and the proxy plumbing stays below.

use super::client::{NxClient, NxHandled};
use netsim::prelude::*;

/// A host process that reaches the network through an [`NxClient`];
/// every callback gets the client to connect, bind and send with.
pub trait NxApp: Send {
    /// Called once when the actor starts.
    fn start(&mut self, _nx: &mut NxClient, _ctx: &mut Ctx<'_>) {}

    /// One of the app's own timers fired: a token below
    /// [`NX_TOKEN_BASE`](super::client::NX_TOKEN_BASE).
    fn timer(&mut self, _nx: &mut NxClient, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// What the client made of an event; never [`NxHandled::Consumed`].
    fn handle(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled);

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "actor"
    }
}

/// The `netsim` actor of one [`NxApp`] and the client it talks through.
pub struct NxActor<A> {
    nx: NxClient,
    app: A,
}

impl<A: NxApp> NxActor<A> {
    pub fn new(nx: NxClient, app: A) -> Self {
        NxActor { nx, app }
    }

    fn route(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        if !matches!(h, NxHandled::Consumed) {
            self.app.handle(&mut self.nx, ctx, h);
        }
    }
}

impl<A: NxApp> Actor for NxActor<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.app.start(&mut self.nx, ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.route(ctx, h);
        } else {
            self.app.timer(&mut self.nx, ctx, token);
        }
    }

    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.route(ctx, h);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.route(ctx, h);
    }

    fn name(&self) -> &str {
        self.app.name()
    }
}
