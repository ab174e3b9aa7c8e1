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
//! [`Msg::Busy`] refusal; and when heartbeats are enabled the outer
//! server keeps a control session to the inner server — Ping/Pong for
//! dead-peer detection, `BindSync` so a restarted inner server learns
//! the live bind registrations again.
//!
//! Fleet layer (DESIGN.md §6d): with [`OuterConfig::with_fleet`] this
//! server is one shard of an N-outer deployment. Bind keys are owned
//! by exactly one shard under the shared HRW [`ShardMap`]; a `BindReq`
//! for a key this shard does not own is answered with a typed
//! [`Msg::Redirect`] to the owner, and every control session to the
//! inner server opens with a generation-counted [`Msg::ShardSync`] so
//! the inner server can keep one authorization slice per shard.

use crate::hook::{interpose, DialHook, DialLeg};
use crate::liveness::{
    AdmissionGate, AdmissionLimits, BreakerConfig, HeartbeatConfig, SharedBreaker,
};
use crate::pool::{BufferPool, PoolConfig};
use crate::protocol::Msg;
use crate::pump::{pump_pooled, RelayActivity};
use crate::shard::{bind_key, member_tag, ShardMap, ShardRoute, ShardStats};
use crate::stats::{ProxySnapshot, ProxyStats};
use firewall::vnet::VNet;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use wacs_sync::OrderedMutex;

/// Static membership of a sharded outer-server fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Control endpoints of every shard — the *same list in the same
    /// order* on every shard, client, and inner server (indices are
    /// the fleet-wide shard identities).
    pub members: Vec<(String, u16)>,
    /// This server's index in `members`.
    pub self_index: usize,
}

/// Outer server configuration.
#[derive(Debug, Clone)]
pub struct OuterConfig {
    /// Logical host the server runs on (must be outside the firewall).
    pub host: String,
    /// Control port clients connect to.
    pub ctrl_port: u16,
    /// Logical address of the inner server (`host`, `nxport`). `None`
    /// disables passive relaying through an inner server: peers of a
    /// bound client are dialed back directly (only possible when no
    /// firewall protects the client).
    pub inner: Option<(String, u16)>,
    /// Admission bounds for concurrent relays.
    pub limits: AdmissionLimits,
    /// A tracked relay with no traffic in either direction for longer
    /// than this is considered half-open and reaped.
    pub idle_timeout: Duration,
    /// Enable the outer→inner heartbeat control session. `None` (the
    /// default) keeps the pre-liveness behaviour: no session, no
    /// dead-peer detection, no bind re-sync.
    pub heartbeat: Option<HeartbeatConfig>,
    /// WAN-leg circuit breaker tuning (inner-server dials).
    pub breaker: BreakerConfig,
    /// Shard-fleet membership. `None` (the default) is the paper's
    /// single-proxy deployment: no ownership checks, no redirects, no
    /// shard-map announcements.
    pub fleet: Option<FleetSpec>,
    /// Optional socket-level interposer on the server's outbound dials
    /// (destination, inner-relay, heartbeat legs). `None` — the
    /// default — leaves every dial untouched (DESIGN.md §6f).
    pub dial_hook: Option<DialHook>,
}

impl OuterConfig {
    pub fn new(host: impl Into<String>) -> Self {
        OuterConfig {
            host: host.into(),
            ctrl_port: firewall::OUTER_PORT,
            inner: None,
            limits: AdmissionLimits::default(),
            idle_timeout: Duration::from_secs(30),
            heartbeat: None,
            breaker: BreakerConfig::default(),
            fleet: None,
            dial_hook: None,
        }
    }

    pub fn with_inner(mut self, host: impl Into<String>, nxport: u16) -> Self {
        self.inner = Some((host.into(), nxport));
        self
    }

    pub fn with_limits(mut self, limits: AdmissionLimits) -> Self {
        self.limits = limits;
        self
    }

    pub fn with_idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    pub fn with_heartbeat(mut self, hb: HeartbeatConfig) -> Self {
        self.heartbeat = Some(hb);
        self
    }

    pub fn with_breaker(mut self, b: BreakerConfig) -> Self {
        self.breaker = b;
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
        self.fleet = Some(FleetSpec {
            members,
            self_index,
        });
        self
    }
}

/// Live fleet state of one shard: the membership list plus its
/// generation, updated only by [`OuterServer::install_fleet`].
///
/// The generation lives in an atomic *outside* the members lock so the
/// heartbeat syncer can follow the BindSync honesty discipline: read
/// the generation first, then snapshot the members. A concurrent
/// install (which writes members *before* publishing the generation)
/// can only make the announced generation stale relative to the
/// shipped list — detectable, and repaired by the next sync.
struct FleetState {
    self_index: usize,
    members: OrderedMutex<Vec<(String, u16)>>,
    gen: AtomicU64, // lint:allow(bare-atomic-counter)
    stats: ShardStats,
}

impl FleetState {
    /// Snapshot the current [`ShardMap`] and the matching address book.
    fn shard_map(&self) -> (ShardMap, Vec<(String, u16)>) {
        let gen = self.gen.load(Ordering::Acquire);
        let members = self.members.lock().clone();
        let tags = members
            .iter()
            .map(|(h, p)| member_tag(&bind_key(h, *p)))
            .collect();
        (ShardMap::new(gen, tags), members)
    }
}

/// One tracked relay pair. The streams are clones of the pump's, held
/// so the idle-reaper and drain can reset a half-open pair from
/// outside the (possibly blocked) pump threads.
struct RelayEntry {
    a: TcpStream,
    b: TcpStream,
    activity: RelayActivity,
    reaped: bool,
}

type RelayTable = Arc<OrderedMutex<HashMap<u64, RelayEntry>>>;

/// A running outer server. Dropping the handle shuts it down.
pub struct OuterServer {
    cfg: OuterConfig,
    stats: Arc<ProxyStats>,
    shutdown: Arc<AtomicBool>,
    /// Rendezvous registry: rdv port → client private endpoint.
    rdv: Arc<OrderedMutex<HashMap<u16, (String, u16)>>>,
    relays: RelayTable,
    admission: Arc<OrderedMutex<AdmissionGate>>,
    breaker: SharedBreaker,
    fleet: Option<Arc<FleetState>>,
    threads: Vec<thread::JoinHandle<()>>,
}

impl OuterServer {
    /// Bind the control port and start serving.
    pub fn start(net: VNet, cfg: OuterConfig) -> io::Result<OuterServer> {
        let listener = net.bind(&cfg.host, cfg.ctrl_port)?;
        listener.set_nonblocking(true)?;
        let stats = Arc::new(ProxyStats::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let rdv = Arc::new(OrderedMutex::new("nexus.outer.rdv", HashMap::new()));
        let relays: RelayTable = Arc::new(OrderedMutex::new("nexus.outer.relays", HashMap::new()));
        let breaker = SharedBreaker::new(cfg.breaker).with_obs(stats.registry(), "proxy");
        // One staging-buffer pool for every pump this server runs.
        let pool = BufferPool::with_counters(
            PoolConfig::default(),
            stats.pool_hits.clone(),
            stats.pool_misses.clone(),
        );
        let fleet = cfg.fleet.as_ref().map(|spec| {
            let shard_stats = ShardStats::in_registry(stats.registry());
            shard_stats.map_generation.set(1);
            Arc::new(FleetState {
                self_index: spec.self_index,
                members: OrderedMutex::new("nexus.outer.fleet", spec.members.clone()),
                gen: AtomicU64::new(1), // lint:allow(bare-atomic-counter)
                stats: shard_stats,
            })
        });

        let ctx = ServerCtx {
            net,
            cfg: cfg.clone(),
            stats: stats.clone(),
            shutdown: shutdown.clone(),
            rdv: rdv.clone(),
            // Generation counter, not a metric: heartbeat thread
            // compares it against the last synced value.
            rdv_gen: Arc::new(AtomicU64::new(1)), // lint:allow(bare-atomic-counter)
            relays: relays.clone(),
            admission: Arc::new(OrderedMutex::new(
                "nexus.outer.admission",
                AdmissionGate::new(cfg.limits),
            )),
            // Relay-table key allocator. // lint:allow(bare-atomic-counter)
            relay_seq: Arc::new(AtomicU64::new(0)),
            breaker: breaker.clone(),
            pool,
            fleet: fleet.clone(),
        };
        let mut threads = Vec::new();

        let accept_ctx = ctx.clone();
        threads.push(thread::spawn(move || {
            // Keep the listener alive for the server's lifetime.
            let listener = listener;
            while !accept_ctx.shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).ok();
                        accept_ctx.stats.control_accepts.inc();
                        let c = accept_ctx.clone();
                        thread::spawn(move || c.handle_control(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(1)); // lint:allow(bare-sleep) — nonblocking accept poll.
                    }
                    Err(_) => break,
                }
            }
        }));

        let reap_ctx = ctx.clone();
        threads.push(thread::spawn(move || reap_ctx.reaper_loop()));

        if ctx.cfg.heartbeat.is_some() && ctx.cfg.inner.is_some() {
            let hb_ctx = ctx.clone();
            threads.push(thread::spawn(move || hb_ctx.heartbeat_loop()));
        }

        Ok(OuterServer {
            cfg,
            stats,
            shutdown,
            rdv,
            relays,
            admission: ctx.admission.clone(),
            breaker,
            fleet,
            threads,
        })
    }

    pub fn stats(&self) -> ProxySnapshot {
        self.stats.snapshot()
    }

    /// Full metric snapshot (counters + service-time histograms).
    pub fn obs_snapshot(&self) -> wacs_obs::RegistrySnapshot {
        self.stats.registry().snapshot()
    }

    /// Logical control address clients should use.
    pub fn ctrl_addr(&self) -> (String, u16) {
        (self.cfg.host.clone(), self.cfg.ctrl_port)
    }

    /// Currently registered rendezvous ports (diagnostics).
    pub fn rendezvous_ports(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.rdv.lock().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Live entries in the relay connection table.
    pub fn active_relays(&self) -> usize {
        self.relays.lock().len()
    }

    /// Admission slots currently held. Chaos invariants assert this
    /// returns to zero once recovery completes (no leaked slots).
    pub fn admission_active(&self) -> u32 {
        self.admission.lock().active()
    }

    /// The WAN-leg circuit breaker (shared: clients may reuse it for
    /// their own outer-server dials).
    pub fn breaker(&self) -> SharedBreaker {
        self.breaker.clone()
    }

    /// Install a newer shard map (e.g. after replacing a dead shard).
    /// Returns `false` — and changes nothing — unless `generation` is
    /// strictly newer than the installed one. The heartbeat session
    /// announces the new map to the inner server on its next tick.
    pub fn install_fleet(&self, generation: u64, members: Vec<(String, u16)>) -> bool {
        let Some(fleet) = &self.fleet else {
            return false;
        };
        let mut cur = fleet.members.lock();
        if generation <= fleet.gen.load(Ordering::Acquire) {
            return false;
        }
        // Members first, generation last: a concurrent reader that
        // paired the old generation with the new list would claim
        // freshness it does not have (see `FleetState`).
        *cur = members;
        fleet.gen.store(generation, Ordering::Release);
        fleet.stats.map_generation.set(generation as i64);
        true
    }

    /// Generation of the installed shard map (0 when not in a fleet).
    pub fn fleet_generation(&self) -> u64 {
        self.fleet
            .as_ref()
            .map_or(0, |f| f.gen.load(Ordering::Acquire))
    }

    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
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
        self.admission.lock().begin_drain();
        let deadline = Instant::now() + timeout;
        loop {
            if self.relays.lock().is_empty() {
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

/// State shared by handler threads.
#[derive(Clone)]
struct ServerCtx {
    net: VNet,
    cfg: OuterConfig,
    stats: Arc<ProxyStats>,
    shutdown: Arc<AtomicBool>,
    rdv: Arc<OrderedMutex<HashMap<u16, (String, u16)>>>,
    /// Bumped on every rdv insert/remove; the heartbeat thread re-syncs
    /// the bind table when it trails this generation.
    rdv_gen: Arc<AtomicU64>, // lint:allow(bare-atomic-counter)
    relays: RelayTable,
    admission: Arc<OrderedMutex<AdmissionGate>>,
    relay_seq: Arc<AtomicU64>, // lint:allow(bare-atomic-counter)
    breaker: SharedBreaker,
    /// Shared staging-buffer pool for every pump this server runs.
    pool: BufferPool,
    /// `Some` when this server is one shard of a fleet.
    fleet: Option<Arc<FleetState>>,
}

impl ServerCtx {
    fn handle_control(&self, mut stream: TcpStream) {
        let started = Instant::now();
        let msg = Msg::read_from(&mut stream);
        self.stats
            .control_handshake_ns
            .record(started.elapsed().as_nanos() as u64);
        match msg {
            Ok(Msg::ConnectReq { host, port }) => self.handle_connect(stream, host, port),
            Ok(Msg::BindReq {
                host,
                port,
                fallback,
            }) => self.handle_bind(stream, host, port, fallback),
            _ => { /* protocol error or EOF: drop the connection */ }
        }
    }

    /// Fig. 3: dial the target on the client's behalf and bridge.
    fn handle_connect(&self, mut client: TcpStream, host: String, port: u16) {
        let started = Instant::now();
        // Admission first: refuse typed rather than accept work the
        // server cannot finish. Peer key = requested destination host
        // (the accept side only exposes a loopback address).
        if self.admission.lock().try_admit(&host).is_err() {
            self.stats.busy_rejected.inc();
            self.stats
                .connect_req_ns
                .record(started.elapsed().as_nanos() as u64);
            let _ = Msg::Busy.write_to(&mut client);
            return;
        }
        let dialed = interpose(
            self.cfg.dial_hook.as_ref(),
            DialLeg::OuterData,
            &self.cfg.host,
            &host,
            port,
            self.net.dial(&self.cfg.host, &host, port),
        );
        match dialed {
            Ok(target) => {
                if (Msg::ConnectRep {
                    ok: true,
                    detail: String::new(),
                })
                .write_to(&mut client)
                .is_ok()
                {
                    self.stats.connects_ok.inc();
                    self.stats
                        .connect_req_ns
                        .record(started.elapsed().as_nanos() as u64);
                    self.spawn_tracked_pump(host, client, target);
                    return;
                }
                self.admission.lock().release(&host);
            }
            Err(e) => {
                self.stats.connects_failed.inc();
                self.stats
                    .connect_req_ns
                    .record(started.elapsed().as_nanos() as u64);
                let _ = Msg::ConnectRep {
                    ok: false,
                    detail: e.to_string(),
                }
                .write_to(&mut client);
                self.admission.lock().release(&host);
            }
        }
    }

    /// Register the pair in the relay table and pump it on a background
    /// thread. On pump exit the entry is GC'd and the admission slot
    /// released — half-open pairs the reaper resets exit the same way.
    fn spawn_tracked_pump(&self, peer: String, a: TcpStream, b: TcpStream) {
        let id = self.relay_seq.fetch_add(1, Ordering::Relaxed);
        let activity = RelayActivity::new();
        if let (Ok(ca), Ok(cb)) = (a.try_clone(), b.try_clone()) {
            self.relays.lock().insert(
                id,
                RelayEntry {
                    a: ca,
                    b: cb,
                    activity: activity.clone(),
                    reaped: false,
                },
            );
            self.stats.active_relays.add(1);
        }
        let ctx = self.clone();
        thread::spawn(move || {
            pump_pooled(a, b, ctx.stats.clone(), Some(activity), &ctx.pool);
            if ctx.relays.lock().remove(&id).is_some() {
                ctx.stats.active_relays.add(-1);
            }
            ctx.admission.lock().release(&peer);
        });
    }

    /// Sweep the relay table, resetting pairs idle past the timeout.
    /// The pump threads then unblock and GC their own entries.
    fn reaper_loop(&self) {
        let tick = (self.cfg.idle_timeout / 4)
            .min(Duration::from_millis(25))
            .max(Duration::from_millis(1));
        while !self.shutdown.load(Ordering::Relaxed) {
            thread::sleep(tick); // lint:allow(bare-sleep) — shutdown-checked reaper tick.
            let mut table = self.relays.lock();
            for entry in table.values_mut() {
                if !entry.reaped && entry.activity.idle_for() > self.cfg.idle_timeout {
                    entry.reaped = true;
                    let _ = entry.a.shutdown(Shutdown::Both);
                    let _ = entry.b.shutdown(Shutdown::Both);
                    self.stats.idle_reaped.inc();
                }
            }
        }
    }

    /// Push the current bind table to the inner server. Returns the rdv
    /// generation the snapshot was taken at (reads the generation
    /// *before* the table, so concurrent changes trigger a re-sync).
    fn sync_binds(&self, s: &mut TcpStream) -> io::Result<u64> {
        let gen = self.rdv_gen.load(Ordering::Relaxed);
        let mut binds: Vec<(String, u16)> = self.rdv.lock().values().cloned().collect();
        binds.sort();
        Msg::BindSync { binds }.write_to(s)?;
        self.stats.bind_syncs.inc();
        Ok(gen)
    }

    /// Announce the shard map on the control session. Same honesty
    /// discipline as [`sync_binds`](Self::sync_binds): generation read
    /// before the member snapshot, so a racing install makes the
    /// announced generation stale (re-sent next tick), never fresh for
    /// an old list. No-op returning 0 outside a fleet.
    fn sync_shard_map(&self, s: &mut TcpStream) -> io::Result<u64> {
        let Some(fleet) = &self.fleet else {
            return Ok(0);
        };
        let gen = fleet.gen.load(Ordering::Acquire);
        let members = fleet.members.lock().clone();
        Msg::ShardSync {
            gen,
            sender: fleet.self_index as u16,
            members,
        }
        .write_to(s)?;
        fleet.stats.map_syncs.inc();
        Ok(gen)
    }

    /// Keep a control session to the inner server: Ping/Pong liveness,
    /// BindSync on (re)connect and on bind-table changes. A silent or
    /// dead inner server breaks the session; each re-established
    /// session counts as a reconnect and immediately re-registers all
    /// live binds — the recovery path the kill-the-inner test drives.
    fn heartbeat_loop(&self) {
        let Some(hb) = self.cfg.heartbeat else { return };
        let Some((inner_host, nxport)) = self.cfg.inner.clone() else {
            return;
        };
        let mut ever_alive = false;
        while !self.shutdown.load(Ordering::Relaxed) {
            if !self.breaker.allow() {
                thread::sleep(hb.interval); // lint:allow(bare-sleep) — heartbeat interval.
                continue;
            }
            let dialed = interpose(
                self.cfg.dial_hook.as_ref(),
                DialLeg::Heartbeat,
                &self.cfg.host,
                &inner_host,
                nxport,
                self.net.dial(&self.cfg.host, &inner_host, nxport),
            )
            .and_then(|s| {
                s.set_read_timeout(Some(hb.timeout))?;
                Ok(s)
            });
            let mut s = match dialed {
                Ok(s) => {
                    self.breaker.on_success();
                    s
                }
                Err(_) => {
                    self.breaker.on_failure();
                    thread::sleep(hb.interval); // lint:allow(bare-sleep) — heartbeat interval.
                    continue;
                }
            };
            self.stats.inner_alive.set(1);
            if ever_alive {
                self.stats.inner_reconnects.inc();
            }
            ever_alive = true;

            // Shard map first (it names the authorization slice the
            // BindSync lands in), then a full bind-table push, on
            // every (re)connect; then ping at the configured interval,
            // re-syncing whichever generation moved.
            let mut shard_gen = self.sync_shard_map(&mut s).unwrap_or_default();
            let mut synced_gen = self.sync_binds(&mut s).unwrap_or_default();
            let mut seq: u32 = 0;
            loop {
                if self.shutdown.load(Ordering::Relaxed) {
                    let _ = s.shutdown(Shutdown::Both);
                    self.stats.inner_alive.set(0);
                    return;
                }
                if let Some(fleet) = &self.fleet {
                    if fleet.gen.load(Ordering::Acquire) != shard_gen {
                        match self.sync_shard_map(&mut s) {
                            Ok(g) => shard_gen = g,
                            Err(_) => break,
                        }
                    }
                }
                let gen = self.rdv_gen.load(Ordering::Relaxed);
                if gen != synced_gen {
                    match self.sync_binds(&mut s) {
                        Ok(g) => synced_gen = g,
                        Err(_) => break,
                    }
                }
                seq = seq.wrapping_add(1);
                if (Msg::Ping { seq }).write_to(&mut s).is_err() {
                    break;
                }
                self.stats.hb_pings.inc();
                match Msg::read_from(&mut s) {
                    Ok(Msg::Pong { .. }) => self.stats.hb_pongs.inc(),
                    // Timeout, EOF or garbage: the peer is dead.
                    _ => break,
                }
                thread::sleep(hb.interval); // lint:allow(bare-sleep) — heartbeat interval.
            }
            // Session broke while the peer was considered alive.
            self.stats.inner_alive.set(0);
            self.stats.inner_deaths.inc();
        }
    }

    /// Fig. 4 steps 1-2: allocate a rendezvous port for the client and
    /// relay arriving peers through the inner server. The registration
    /// lives as long as the client keeps its control connection open.
    fn handle_bind(
        &self,
        mut ctrl: TcpStream,
        client_host: String,
        client_port: u16,
        fallback: bool,
    ) {
        let started = Instant::now();
        // Fleet routing: only the HRW owner of this bind key serves
        // it; everyone else answers with the owner's control address,
        // so clients with a stale map converge in one hop. Exception:
        // a `fallback` request means the client could not reach the
        // owner — serve it here rather than bounce it back to a dead
        // shard.
        if let Some(fleet) = &self.fleet {
            let key = bind_key(&client_host, client_port);
            let (map, members) = fleet.shard_map();
            match map.route(fleet.self_index, &key) {
                Some(ShardRoute::Own) => fleet.stats.binds_owned.inc(),
                Some(ShardRoute::Redirect(owner)) if !fallback => {
                    fleet.stats.redirects_sent.inc();
                    let (host, port) = members[owner].clone();
                    let _ = Msg::Redirect { host, port }.write_to(&mut ctrl);
                    return;
                }
                Some(ShardRoute::Redirect(_)) => { /* fallback serve */ }
                // Self not in the map (superseded membership): refuse.
                None => {
                    let _ = Msg::BindRep { rdv_port: 0 }.write_to(&mut ctrl);
                    return;
                }
            }
        }
        let listener = match self.net.bind(&self.cfg.host, 0) {
            Ok(l) => l,
            Err(_) => {
                let _ = Msg::BindRep { rdv_port: 0 }.write_to(&mut ctrl);
                return;
            }
        };
        if listener.set_nonblocking(true).is_err() {
            let _ = Msg::BindRep { rdv_port: 0 }.write_to(&mut ctrl);
            return;
        }
        let rdv_port = listener.logical_port();
        // Register before acknowledging, so a client that acts on the
        // BindRep immediately observes a live rendezvous.
        self.rdv
            .lock()
            .insert(rdv_port, (client_host.clone(), client_port));
        self.rdv_gen.fetch_add(1, Ordering::Relaxed);
        self.stats.binds.inc();
        if (Msg::BindRep { rdv_port }).write_to(&mut ctrl).is_err() {
            self.rdv.lock().remove(&rdv_port);
            self.rdv_gen.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.stats
            .bind_req_ns
            .record(started.elapsed().as_nanos() as u64);

        // Watch the control connection: EOF ends the registration.
        let done = Arc::new(AtomicBool::new(false));
        {
            let done = done.clone();
            let mut ctrl = ctrl;
            thread::spawn(move || {
                let mut scratch = [0u8; 16];
                loop {
                    match io::Read::read(&mut ctrl, &mut scratch) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => { /* clients don't speak after bind */ }
                    }
                }
                done.store(true, Ordering::Relaxed);
            });
        }

        // Accept peers on the rendezvous port.
        let ctx = self.clone();
        thread::spawn(move || {
            let listener = listener; // owned: drop unregisters
            while !done.load(Ordering::Relaxed) && !ctx.shutdown.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((peer, _)) => {
                        peer.set_nonblocking(false).ok();
                        ctx.bridge_peer(peer, &client_host, client_port);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(1)); // lint:allow(bare-sleep) — nonblocking accept poll.
                    }
                    Err(_) => break,
                }
            }
            // Unbind before withdrawing the registry entry so that
            // observers who see the port gone can rely on new dials
            // failing.
            drop(listener);
            ctx.rdv.lock().remove(&rdv_port);
            ctx.rdv_gen.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Fig. 4 steps 4-5: a peer arrived; reach the client through the
    /// inner server (or directly when no inner server is configured).
    fn bridge_peer(&self, peer: TcpStream, client_host: &str, client_port: u16) {
        let started = Instant::now();
        // Admission keyed by the registered client: one overloaded
        // bound endpoint cannot starve the rest of the table.
        if self.admission.lock().try_admit(client_host).is_err() {
            self.stats.busy_rejected.inc();
            // `peer` is a raw data stream (it never spoke the control
            // protocol), so the refusal is a reset, not a Busy frame.
            return;
        }
        let inward = match &self.cfg.inner {
            Some((inner_host, nxport)) => {
                if self.breaker.allow() {
                    // The breaker watches the WAN dial leg only: an
                    // established TCP connection proves the inner
                    // server answers, whatever it then replies.
                    let dialed = interpose(
                        self.cfg.dial_hook.as_ref(),
                        DialLeg::OuterToInner,
                        &self.cfg.host,
                        inner_host,
                        *nxport,
                        self.net.dial(&self.cfg.host, inner_host, *nxport),
                    );
                    match &dialed {
                        Ok(_) => self.breaker.on_success(),
                        Err(_) => self.breaker.on_failure(),
                    }
                    dialed.and_then(|mut inner| {
                        Msg::RelayReq {
                            host: client_host.to_string(),
                            port: client_port,
                        }
                        .write_to(&mut inner)?;
                        match Msg::read_from(&mut inner)? {
                            Msg::RelayRep { ok: true } => Ok(inner),
                            Msg::RelayRep { ok: false } => Err(io::Error::new(
                                io::ErrorKind::ConnectionRefused,
                                "inner server could not reach client",
                            )),
                            _ => Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "unexpected inner reply",
                            )),
                        }
                    })
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        "circuit breaker open: inner server dials suspended",
                    ))
                }
            }
            None => interpose(
                self.cfg.dial_hook.as_ref(),
                DialLeg::OuterData,
                &self.cfg.host,
                client_host,
                client_port,
                self.net.dial(&self.cfg.host, client_host, client_port),
            ),
        };
        self.stats
            .relay_bridge_ns
            .record(started.elapsed().as_nanos() as u64);
        match inward {
            Ok(inward) => {
                self.stats.relays_ok.inc();
                self.spawn_tracked_pump(client_host.to_string(), peer, inward);
            }
            Err(_) => {
                self.stats.relays_failed.inc();
                self.admission.lock().release(client_host);
                // Dropping `peer` resets the rendezvous connection.
            }
        }
    }
}
