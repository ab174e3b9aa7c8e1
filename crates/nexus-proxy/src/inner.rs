//! The inner server: runs *inside* the firewall and completes passive
//! relays. It listens on `nxport` — the one inbound port the paper's
//! deny-based policy opens, bound privileged so only root can
//! impersonate it — and, for each `RelayReq` from the outer server,
//! dials the registered client on the LAN and bridges the streams
//! (Fig. 4 steps 4-5).
//!
//! Liveness layer (DESIGN.md §6b): a connection whose first frame is
//! `Ping`, `BindSync` or `ShardSync` is a *control session* from an
//! outer server — the inner server answers pings with pongs and
//! mirrors `BindSync` into its authorized-endpoint table. With
//! `require_registration` on, `RelayReq` for an endpoint absent from
//! that table is refused, which hardens the nxport hole (a restarted
//! inner server relays nothing until the outer server re-syncs its
//! bind table).
//!
//! Fleet layer (DESIGN.md §6d): the authorization table is *sliced per
//! shard*. A session that opens with `ShardSync { sender, .. }` owns
//! the slice named by its control endpoint, and its `BindSync` frames
//! replace only that slice — with one shared set, N outer shards would
//! take turns clobbering each other's registrations. Sessions that
//! never announce an identity (single-outer deployments) share the
//! legacy solo slice, preserving the pre-fleet behaviour exactly.
//!
//! The decisions are [`InnerCore`]'s (`crate::core`); this file is its
//! blocking-socket driver (`crate::wire`). The accept loop is its one
//! thread of its own; each connection runs on one of the daemon's
//! parked workers (`workers.rs`). A dropped handle cuts every relay and
//! control session the server holds and joins every thread it started
//! (`wire.rs`), so a restarted server on the same host starts clean.

use crate::core::InnerCore;
use crate::hook::DialHook;
use crate::stats::ProxySnapshot;
use crate::wire::{Daemon, Io};
use firewall::vnet::VNet;
use std::io;
use std::sync::Arc;
use std::time::Duration;
use wacs_sync::OrderedMutex;

/// A control session silent for longer than this is abandoned (the
/// outer server pings well inside it while alive).
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// Inner server configuration.
#[derive(Debug, Clone)]
pub struct InnerConfig {
    /// Logical host the server runs on (inside the firewall).
    pub host: String,
    /// The relay port (the firewall hole). Defaults to
    /// [`firewall::NXPORT`].
    pub nxport: u16,
    /// Refuse `RelayReq` for endpoints that were never announced via
    /// `BindSync`. Off by default (pre-liveness behaviour).
    pub require_registration: bool,
    /// Optional socket-level interposer on the inner→client relay
    /// dials. `None` — the default — leaves every dial untouched
    /// (DESIGN.md §6f).
    pub dial_hook: Option<DialHook>,
}

impl InnerConfig {
    pub fn new(host: impl Into<String>) -> Self {
        InnerConfig {
            host: host.into(),
            nxport: firewall::NXPORT,
            require_registration: false,
            dial_hook: None,
        }
    }

    pub fn with_registration_required(mut self) -> Self {
        self.require_registration = true;
        self
    }

    /// Install a socket-level interposer on inner→client dials (chaos
    /// testing; see `wacs-chaos`).
    pub fn with_dial_hook(mut self, hook: DialHook) -> Self {
        self.dial_hook = Some(hook);
        self
    }
}

/// A running inner server. Dropping the handle tears it down: live
/// relays and control sessions are cut and every thread it started is
/// joined.
pub struct InnerServer {
    pub(crate) daemon: Arc<Daemon<InnerCore<String>>>,
}

impl InnerServer {
    pub fn start(net: VNet, cfg: InnerConfig) -> io::Result<InnerServer> {
        Self::start_hooked(net, cfg, None)
    }

    /// [`start`](Self::start), observing every core step from the first.
    pub(crate) fn start_hooked(
        net: VNet,
        cfg: InnerConfig,
        hook: Option<crate::core::StepHook<String>>,
    ) -> io::Result<InnerServer> {
        let listener = net.bind(&cfg.host, cfg.nxport)?;
        let registry = wacs_obs::Registry::new();
        let mut core = InnerCore::new(cfg.require_registration, &registry, "proxy");
        if let Some(hook) = hook {
            core.set_hook(hook);
        }
        let daemon = Daemon::new(
            net,
            &cfg.host,
            cfg.dial_hook.clone(),
            core.stats().clone(),
            OrderedMutex::new("nexus.inner.core", core),
            InnerCore::step,
            None,
        );
        // One worker per connection from an outer server: a relay (ends
        // in a bridge) or a control session (ends when it closes, goes
        // silent past the control timeout, or the server shuts down — a
        // shut-down server must stop answering pings, or the outer
        // server would believe a dead peer alive forever).
        let nxport = cfg.nxport;
        daemon.spawn(move |d| {
            d.accept_loop(&listener, |from_outer| {
                d.on_worker(move |d| {
                    let mut io = Io::new(&d).until_shutdown().frame_timeout(CONTROL_TIMEOUT);
                    io.accept(from_outer, nxport);
                });
            });
        });
        Ok(InnerServer { daemon })
    }

    pub fn stats(&self) -> ProxySnapshot {
        self.daemon.stats.snapshot()
    }

    /// Full metric snapshot (counters + service-time histograms).
    pub fn obs_snapshot(&self) -> wacs_obs::RegistrySnapshot {
        self.daemon.stats.registry().snapshot()
    }

    /// Endpoints currently announced via `BindSync`, the union over
    /// every shard's slice (sorted, deduplicated).
    pub fn authorized_endpoints(&self) -> Vec<(String, u16)> {
        self.daemon.core.lock().authorized_endpoints()
    }

    /// The installed fleet view: `(generation, members)`. Generation 0
    /// with an empty list means no shard ever announced a map.
    pub fn fleet_view(&self) -> (u64, Vec<(String, u16)>) {
        self.daemon.core.lock().fleet_view()
    }

    /// Stop accepting on `nxport`; relays already bridged run on.
    pub fn shutdown(&self) {
        self.daemon.shut_down();
    }
}

impl Drop for InnerServer {
    fn drop(&mut self) {
        self.daemon.tear_down();
    }
}
