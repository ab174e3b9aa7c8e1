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

use crate::hook::{interpose, DialHook, DialLeg};
use crate::pool::{BufferPool, PoolConfig};
use crate::protocol::Msg;
use crate::pump::pump_pooled;
use crate::shard::ShardStats;
use crate::stats::{ProxySnapshot, ProxyStats};
use firewall::vnet::VNet;
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use wacs_sync::OrderedMutex;

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
    /// A control session silent for longer than this is abandoned (the
    /// outer server pings well inside it while alive).
    pub control_timeout: Duration,
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
            control_timeout: Duration::from_secs(5),
            dial_hook: None,
        }
    }

    pub fn with_registration_required(mut self) -> Self {
        self.require_registration = true;
        self
    }

    pub fn with_control_timeout(mut self, t: Duration) -> Self {
        self.control_timeout = t;
        self
    }

    /// Install a socket-level interposer on inner→client dials (chaos
    /// testing; see `wacs-chaos`).
    pub fn with_dial_hook(mut self, hook: DialHook) -> Self {
        self.dial_hook = Some(hook);
        self
    }
}

/// Slice name for sessions that never announce a shard identity.
const SOLO_SLICE: &str = "solo";

fn slice_key(host: &str, port: u16) -> String {
    format!("{host}:{port}")
}

/// The sliced authorization table plus the installed fleet view.
#[derive(Default)]
struct AuthTable {
    /// Shard control endpoint (`host:port`, or [`SOLO_SLICE`]) → the
    /// client private endpoints that shard last announced.
    slices: HashMap<String, HashSet<(String, u16)>>,
    /// Highest shard-map generation installed so far (0 = none).
    fleet_gen: u64,
    /// Members of that map (control endpoints, fleet order).
    fleet: Vec<(String, u16)>,
}

impl AuthTable {
    fn contains(&self, ep: &(String, u16)) -> bool {
        self.slices.values().any(|s| s.contains(ep))
    }
}

/// A running inner server. Dropping the handle shuts it down.
pub struct InnerServer {
    cfg: InnerConfig,
    stats: Arc<ProxyStats>,
    shutdown: Arc<AtomicBool>,
    authorized: Arc<OrderedMutex<AuthTable>>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl InnerServer {
    pub fn start(net: VNet, cfg: InnerConfig) -> io::Result<InnerServer> {
        let listener = net.bind(&cfg.host, cfg.nxport)?;
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ProxyStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let authorized = Arc::new(OrderedMutex::new(
            "nexus.inner.authorized",
            AuthTable::default(),
        ));
        // One staging-buffer pool for every pump, as on the outer server.
        let pool = BufferPool::with_counters(
            PoolConfig::default(),
            stats.pool_hits.clone(),
            stats.pool_misses.clone(),
        );
        let ctx = InnerCtx {
            net,
            cfg: cfg.clone(),
            stats: stats.clone(),
            shard_stats: Arc::new(ShardStats::in_registry(stats.registry())),
            authorized: authorized.clone(),
            shutdown: shutdown.clone(),
            pool,
        };
        let t_shutdown = shutdown.clone();
        let accept_thread = thread::spawn(move || {
            let listener = listener;
            while !t_shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        let c = ctx.clone();
                        thread::spawn(move || c.handle(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(1)); // lint:allow(bare-sleep) — nonblocking accept poll.
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(InnerServer {
            cfg,
            stats,
            shutdown,
            authorized,
            accept_thread: Some(accept_thread),
        })
    }

    pub fn stats(&self) -> ProxySnapshot {
        self.stats.snapshot()
    }

    /// Full metric snapshot (counters + service-time histograms).
    pub fn obs_snapshot(&self) -> wacs_obs::RegistrySnapshot {
        self.stats.registry().snapshot()
    }

    /// Logical address of the relay port (what the outer server dials).
    pub fn nxport_addr(&self) -> (String, u16) {
        (self.cfg.host.clone(), self.cfg.nxport)
    }

    /// Endpoints currently announced via `BindSync`, the union over
    /// every shard's slice (sorted, deduplicated).
    pub fn authorized_endpoints(&self) -> Vec<(String, u16)> {
        let tbl = self.authorized.lock();
        let mut v: Vec<(String, u16)> = tbl.slices.values().flatten().cloned().collect();
        drop(tbl);
        v.sort();
        v.dedup();
        v
    }

    /// The installed fleet view: `(generation, members)`. Generation 0
    /// with an empty list means no shard ever announced a map.
    pub fn fleet_view(&self) -> (u64, Vec<(String, u16)>) {
        let tbl = self.authorized.lock();
        (tbl.fleet_gen, tbl.fleet.clone())
    }

    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }
}

impl Drop for InnerServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// State shared by handler threads.
#[derive(Clone)]
struct InnerCtx {
    net: VNet,
    cfg: InnerConfig,
    stats: Arc<ProxyStats>,
    shard_stats: Arc<ShardStats>,
    authorized: Arc<OrderedMutex<AuthTable>>,
    shutdown: Arc<AtomicBool>,
    /// Shared staging-buffer pool for every pump this server runs.
    pool: BufferPool,
}

impl InnerCtx {
    /// First-frame dispatch: `RelayReq` starts a relay, `Ping`/
    /// `BindSync`/`ShardSync` starts a control session; anything else
    /// is dropped.
    fn handle(&self, mut from_outer: TcpStream) {
        match Msg::read_from(&mut from_outer) {
            Ok(Msg::RelayReq { host, port }) => self.handle_relay(from_outer, host, port),
            Ok(first @ (Msg::Ping { .. } | Msg::BindSync { .. } | Msg::ShardSync { .. })) => {
                self.control_session(from_outer, first);
            }
            _ => { /* protocol error: drop */ }
        }
    }

    fn handle_relay(&self, mut from_outer: TcpStream, host: String, port: u16) {
        let started = Instant::now();
        if self.cfg.require_registration && !self.authorized.lock().contains(&(host.clone(), port))
        {
            self.stats.relays_unauthorized.inc();
            self.stats.relays_failed.inc();
            self.stats
                .relay_bridge_ns
                .record(started.elapsed().as_nanos() as u64);
            let _ = Msg::RelayRep { ok: false }.write_to(&mut from_outer);
            return;
        }
        let dialed = interpose(
            self.cfg.dial_hook.as_ref(),
            DialLeg::InnerToClient,
            &self.cfg.host,
            &host,
            port,
            self.net.dial(&self.cfg.host, &host, port),
        );
        match dialed {
            Ok(client) => {
                if (Msg::RelayRep { ok: true })
                    .write_to(&mut from_outer)
                    .is_ok()
                {
                    self.stats.relays_ok.inc();
                    self.stats
                        .relay_bridge_ns
                        .record(started.elapsed().as_nanos() as u64);
                    let stats = self.stats.clone();
                    let pool = self.pool.clone();
                    thread::spawn(move || {
                        pump_pooled(from_outer, client, stats, None, &pool);
                    });
                }
            }
            Err(_) => {
                self.stats.relays_failed.inc();
                self.stats
                    .relay_bridge_ns
                    .record(started.elapsed().as_nanos() as u64);
                let _ = Msg::RelayRep { ok: false }.write_to(&mut from_outer);
            }
        }
    }

    /// Serve one outer-server control session until it closes or goes
    /// silent past the control timeout. Slices survive session death:
    /// a reconnecting outer server re-syncs its slice anyway, and in
    /// the interim known-good binds keep relaying.
    ///
    /// A fleet shard opens the session with `ShardSync { sender, .. }`,
    /// which (a) installs the membership if its generation is strictly
    /// newer than the held one, and (b) names the slice this session's
    /// `BindSync` frames replace. A session that never announces
    /// writes the [`SOLO_SLICE`] — single-outer deployments behave
    /// exactly as before the fleet layer existed.
    fn control_session(&self, mut s: TcpStream, first: Msg) {
        if s.set_read_timeout(Some(self.cfg.control_timeout)).is_err() {
            return;
        }
        let mut session_slice = SOLO_SLICE.to_string();
        let mut msg = first;
        loop {
            // A shut-down server must stop answering pings, or the
            // outer server would believe a dead peer alive forever.
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match msg {
                Msg::Ping { seq } => {
                    self.stats.hb_pings.inc();
                    if (Msg::Pong { seq }).write_to(&mut s).is_err() {
                        return;
                    }
                    self.stats.hb_pongs.inc();
                }
                Msg::BindSync { binds } => {
                    self.authorized
                        .lock()
                        .slices
                        .insert(session_slice.clone(), binds.into_iter().collect());
                    self.stats.bind_syncs.inc();
                }
                Msg::ShardSync {
                    gen,
                    sender,
                    members,
                } => {
                    // Session identity first: even a stale map names
                    // its sender (control endpoints are stable across
                    // shard restarts, which is exactly what lets a
                    // replaced shard reclaim its old slice).
                    if let Some((h, p)) = members.get(sender as usize) {
                        session_slice = slice_key(h, *p);
                    }
                    let mut tbl = self.authorized.lock();
                    if gen > tbl.fleet_gen {
                        // Drop slices of shards no longer in the map:
                        // a removed shard's authorizations die with
                        // its membership, not with its TCP session.
                        let keep: HashSet<String> =
                            members.iter().map(|(h, p)| slice_key(h, *p)).collect();
                        tbl.slices
                            .retain(|k, _| k == SOLO_SLICE || keep.contains(k));
                        tbl.fleet_gen = gen;
                        tbl.fleet = members;
                        self.shard_stats.map_syncs.inc();
                        self.shard_stats.map_generation.set(gen as i64);
                    }
                }
                _ => return, // unexpected frame on a control session
            }
            msg = match Msg::read_from(&mut s) {
                Ok(m) => m,
                Err(_) => return, // EOF, timeout or protocol error
            };
        }
    }
}
