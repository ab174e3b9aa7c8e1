//! The outer server: runs *outside* the firewall (in the paper, on a
//! Sun Ultra 80 in RWCP's DMZ) and relays TCP on behalf of inside
//! clients.
//!
//! * Active opens (Fig. 3): a client sends `ConnectReq`; the outer
//!   server dials the target and bridges the two streams.
//! * Passive opens (Fig. 4): a client registers with `BindReq`; the
//!   outer server allocates a *rendezvous* port, and every peer that
//!   connects to it is bridged to the client through the inner server
//!   (reached via the single `nxport` firewall hole).
//!
//! Liveness layer (DESIGN.md §6b): every relay is tracked in a
//! connection table so half-open pairs can be idle-reaped and shutdown
//! can drain; admission is bounded (total and per-peer) with a typed
//! `Busy` refusal; and when heartbeats are enabled the outer server
//! keeps a control session to the inner server — Ping/Pong for
//! dead-peer detection, `BindSync` so a restarted inner server learns
//! the live bind registrations again.
//!
//! Fleet layer (DESIGN.md §6d): with [`OuterConfig::with_fleet`] this
//! server is one shard of an N-outer deployment. Bind keys are owned
//! by exactly one shard under the shared HRW map
//! ([`crate::shard::ShardMap`]); a `BindReq` for a key this shard does
//! not own is answered with a typed `Redirect` to the owner, and every
//! control session to the inner server opens with a generation-counted
//! `ShardSync` so the inner server can keep one authorization slice
//! per shard.
//!
//! Every decision above is made by [`OuterCore`] (DESIGN.md §6g). This
//! file is its blocking-socket driver: it accepts, spawns a thread per
//! connection and lets [`Io`] turn what happens there into core events
//! and execute the core's actions. What stays here is what only a
//! socket owner can do: serving rendezvous listeners, the relay
//! table's idle reaper, and drain.

use crate::core::{Event, OuterCore, OuterParams};
use crate::hook::DialHook;
use crate::liveness::{AdmissionLimits, BreakerConfig, HeartbeatConfig};
use crate::stats::ProxySnapshot;
use crate::wire::{Daemon, Io};
use firewall::vnet::VNet;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use wacs_sync::OrderedMutex;

/// Outer server configuration.
#[derive(Debug, Clone)]
pub struct OuterConfig {
    /// Logical host the server runs on (must be outside the firewall).
    pub host: String,
    /// What the server decides with: control port, inner-server
    /// address, admission bounds, heartbeat, breaker tuning, fleet
    /// membership.
    pub params: OuterParams<String>,
    /// A tracked relay with no traffic in either direction for longer
    /// than this is considered half-open and reaped.
    pub idle_timeout: Duration,
    /// Optional socket-level interposer on the server's outbound dials
    /// (destination, inner-relay, heartbeat legs). `None` — the
    /// default — leaves every dial untouched (DESIGN.md §6f).
    pub dial_hook: Option<DialHook>,
}

impl OuterConfig {
    pub fn new(host: impl Into<String>) -> Self {
        OuterConfig {
            host: host.into(),
            params: OuterParams {
                ctrl_port: firewall::OUTER_PORT,
                inner: None,
                limits: AdmissionLimits::default(),
                heartbeat: None,
                breaker: BreakerConfig::default(),
                fleet: None,
            },
            idle_timeout: Duration::from_secs(30),
            dial_hook: None,
        }
    }

    pub fn with_inner(mut self, host: impl Into<String>, nxport: u16) -> Self {
        self.params.inner = Some((host.into(), nxport));
        self
    }

    pub fn with_limits(mut self, limits: AdmissionLimits) -> Self {
        self.params.limits = limits;
        self
    }

    pub fn with_idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    pub fn with_heartbeat(mut self, hb: HeartbeatConfig) -> Self {
        self.params.heartbeat = Some(hb);
        self
    }

    pub fn with_breaker(mut self, b: BreakerConfig) -> Self {
        self.params.breaker = b;
        self
    }

    /// Install a socket-level interposer on the server's outbound
    /// dials (chaos testing; see `wacs-chaos`).
    pub fn with_dial_hook(mut self, hook: DialHook) -> Self {
        self.dial_hook = Some(hook);
        self
    }

    /// Run as shard `self_index` of the fleet listed in `members`.
    pub fn with_fleet(mut self, members: Vec<(String, u16)>, self_index: usize) -> Self {
        self.params.fleet = Some((members, self_index));
        self
    }
}

type OuterDaemon = Arc<Daemon<OuterCore<String>>>;

/// A running outer server. Dropping the handle shuts it down.
pub struct OuterServer {
    cfg: OuterConfig,
    daemon: OuterDaemon,
    threads: Vec<thread::JoinHandle<()>>,
}

impl OuterServer {
    /// Bind the control port and start serving.
    pub fn start(net: VNet, cfg: OuterConfig) -> io::Result<OuterServer> {
        Self::start_hooked(net, cfg, None)
    }

    /// [`start`](Self::start), observing every core step from the first.
    pub(crate) fn start_hooked(
        net: VNet,
        cfg: OuterConfig,
        hook: Option<crate::core::StepHook<String>>,
    ) -> io::Result<OuterServer> {
        let listener = net.bind(&cfg.host, cfg.params.ctrl_port)?;
        let mut core = OuterCore::new(cfg.params.clone(), &wacs_obs::Registry::new(), "proxy");
        if let Some(hook) = hook {
            core.set_hook(hook);
        }
        let daemon = Daemon::new(
            net,
            &cfg.host,
            cfg.dial_hook.clone(),
            core.stats().clone(),
            OrderedMutex::new("nexus.outer.core", core),
            OuterCore::step,
            Some(OrderedMutex::new("nexus.outer.relays", HashMap::new())),
        );
        let mut threads = Vec::new();

        let (d, ctrl_port) = (daemon.clone(), cfg.params.ctrl_port);
        threads.push(thread::spawn(move || {
            d.accept_loop(&listener, |stream| {
                let d = d.clone();
                thread::spawn(move || handle_control(&d, stream, ctrl_port));
            });
        }));

        let (d, idle_timeout) = (daemon.clone(), cfg.idle_timeout);
        threads.push(thread::spawn(move || reaper_loop(&d, idle_timeout)));

        if cfg.params.heartbeat.is_some() && cfg.params.inner.is_some() {
            let d = daemon.clone();
            threads.push(thread::spawn(move || {
                Io::new(&d).until_shutdown().run(Event::Start);
                d.stats.inner_alive.set(0);
            }));
        }

        Ok(OuterServer {
            cfg,
            daemon,
            threads,
        })
    }

    pub fn stats(&self) -> ProxySnapshot {
        self.daemon.stats.snapshot()
    }

    /// Full metric snapshot (counters + service-time histograms).
    pub fn obs_snapshot(&self) -> wacs_obs::RegistrySnapshot {
        self.daemon.stats.registry().snapshot()
    }

    /// Logical control address clients should use.
    pub fn ctrl_addr(&self) -> (String, u16) {
        (self.cfg.host.clone(), self.cfg.params.ctrl_port)
    }

    /// Currently registered rendezvous ports (diagnostics).
    pub fn rendezvous_ports(&self) -> Vec<u16> {
        self.daemon.core.lock().rendezvous_ports()
    }

    /// Live entries in the relay connection table.
    pub fn active_relays(&self) -> usize {
        self.daemon.relays.as_ref().map_or(0, |t| t.lock().len())
    }

    /// Admission slots currently held. Chaos invariants assert this
    /// returns to zero once recovery completes (no leaked slots).
    pub fn admission_active(&self) -> u32 {
        self.daemon.core.lock().admission_active()
    }

    /// Install a newer shard map (e.g. after replacing a dead shard).
    /// Returns `false` — and changes nothing — unless `generation` is
    /// strictly newer than the installed one. The heartbeat session
    /// announces the new map to the inner server on its next tick.
    pub fn install_fleet(&self, generation: u64, members: Vec<(String, u16)>) -> bool {
        self.daemon.core.lock().install_fleet(generation, members)
    }

    /// Generation of the installed shard map (0 when not in a fleet).
    pub fn fleet_generation(&self) -> u64 {
        self.daemon.core.lock().fleet_generation()
    }

    pub fn shutdown(&self) {
        self.daemon.shut_down();
    }

    /// Graceful shutdown: stop accepting new work, then wait up to
    /// `timeout` for in-flight pumps to finish. Returns `true` when the
    /// relay table drained completely.
    pub fn drain(&self, timeout: Duration) -> bool {
        self.shutdown();
        // Close the admission gate first: a connect racing the drain
        // must see a typed refusal, not squeeze in a fresh relay while
        // we wait for the table to empty (the wacs-check admission
        // model's no-admit-after-drain invariant).
        self.daemon.core.lock().begin_drain();
        let deadline = Instant::now() + timeout;
        loop {
            if self.active_relays() == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(2)); // lint:allow(bare-sleep) — deadline-bounded poll.
        }
    }
}

impl Drop for OuterServer {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One control connection: Fig. 3 ends in a bridge; Fig. 4 steps 1-2
/// end with a registered listener still in hand, which is then served
/// by two threads of its own for as long as the client keeps the
/// control connection open.
fn handle_control(d: &OuterDaemon, stream: TcpStream, ctrl_port: u16) {
    let mut io = Io::new(d);
    let conn = io.accept(stream, ctrl_port);
    let (Some(listener), Some(ctrl)) = (io.listener.take(), io.take(conn)) else {
        return;
    };
    let rdv_port = listener.logical_port();
    let ctrl = Arc::new(ctrl);
    // Watch the control connection: EOF ends the registration (clients
    // don't speak after bind).
    {
        let (ctrl, stop) = (ctrl.clone(), listener.stop_handle());
        thread::spawn(move || {
            let mut scratch = [0u8; 16];
            while matches!(io::Read::read(&mut &*ctrl, &mut scratch), Ok(n) if n > 0) {}
            stop.stop();
        });
    }
    // Accept peers on the rendezvous port, one at a time (Fig. 4 steps
    // 3-5 run on this thread).
    let d = d.clone();
    thread::spawn(move || {
        d.accept_loop(&listener, |peer| {
            Io::new(&d).accept(peer, rdv_port);
        });
        // Unbind before withdrawing the registry entry, so observers
        // who see the port gone can rely on new dials failing.
        drop(listener);
        // A server shutdown ends the registration as well: the client
        // reads EOF and the watcher above returns.
        let _ = ctrl.shutdown(Shutdown::Both);
        Io::new(&d).run(Event::Closed { conn });
    });
}

/// Sweep the relay table, resetting pairs idle past the timeout. The
/// pump threads then unblock and GC their own entries.
fn reaper_loop(d: &OuterDaemon, idle_timeout: Duration) {
    let tick = (idle_timeout / 4)
        .min(Duration::from_millis(25))
        .max(Duration::from_millis(1));
    let Some(relays) = &d.relays else { return };
    while !d.shutdown.load(Ordering::Relaxed) {
        thread::sleep(tick); // lint:allow(bare-sleep) — shutdown-checked reaper tick.
        for entry in relays.lock().values_mut() {
            if !entry.reaped && entry.activity.idle_for() > idle_timeout {
                entry.reaped = true;
                let _ = entry.a.shutdown(Shutdown::Both);
                let _ = entry.b.shutdown(Shutdown::Both);
                d.stats.idle_reaped.inc();
            }
        }
    }
}
