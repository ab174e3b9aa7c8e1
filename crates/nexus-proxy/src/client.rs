//! The client library of Table 1: `NXProxyConnect`, `NXProxyBind`,
//! `NXProxyAccept` — drop-in replacements for `connect(2)`, `bind(2)`
//! and `accept(2)` that route through the Nexus Proxy when one is
//! configured, and fall back to plain (guarded) sockets otherwise —
//! exactly the behaviour the paper describes for the patched Globus:
//! "a communication utilizes the Nexus Proxy system when environment
//! variables `NEXUS_PROXY_OUTER_SERVER` and `NEXUS_PROXY_INNER_SERVER`
//! are defined; otherwise, the original communication is done."

use crate::core::shard_map;
use crate::hook::{interpose, DialHook, DialLeg};
use crate::liveness::BreakerConfig;
use crate::protocol::Msg;
use crate::shard::{bind_key, ShardRouter, ShardStats};
use firewall::vnet::{VListener, VNet};
use std::fmt;
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;
use wacs_obs::Registry;
use wacs_sync::OrderedMutex;

/// Proxy configuration for a client process — the stand-in for the two
/// environment variables.
#[derive(Debug, Clone, Default)]
pub struct ProxyEnv {
    /// `NEXUS_PROXY_OUTER_SERVER`: logical `(host, ctrl_port)`.
    pub outer: Option<(String, u16)>,
    /// Sharded outer fleet (DESIGN.md §6d). When set, bind and connect
    /// pick a shard by rendezvous hashing and fail over down the
    /// preference ladder; `outer` is ignored (each shard has its own
    /// breaker inside the router).
    pub fleet: Option<Arc<FleetRouter>>,
    /// Optional socket-level interposer (DESIGN.md §6f). `None` — the
    /// default — leaves every dial untouched.
    pub dial_hook: Option<DialHook>,
}

impl ProxyEnv {
    pub fn direct() -> Self {
        ProxyEnv::default()
    }

    pub fn via(outer_host: impl Into<String>, ctrl_port: u16) -> Self {
        ProxyEnv {
            outer: Some((outer_host.into(), ctrl_port)),
            fleet: None,
            dial_hook: None,
        }
    }

    /// Route through a sharded outer fleet instead of a single outer
    /// server. Share one [`FleetRouter`] per process so breaker state
    /// accumulates across calls.
    pub fn via_fleet(fleet: Arc<FleetRouter>) -> Self {
        ProxyEnv {
            outer: None,
            fleet: Some(fleet),
            dial_hook: None,
        }
    }

    /// Install a socket-level interposer on every dial this env makes
    /// (chaos testing; see `wacs-chaos`). Production code never sets
    /// this, so the hookless path is unchanged.
    #[must_use]
    pub fn with_dial_hook(mut self, hook: DialHook) -> Self {
        self.dial_hook = Some(hook);
        self
    }

    pub fn enabled(&self) -> bool {
        self.outer.is_some() || self.fleet.is_some()
    }
}

/// Client-side view of the outer fleet: the shared [`ShardMap`] plus a
/// circuit breaker per shard ([`ShardRouter`]), usable from many
/// client threads at once.
pub struct FleetRouter {
    /// Members (control endpoints, fleet order) and the router over
    /// them — kept together under one lock so the address book can
    /// never drift from the map it indexes.
    state: OrderedMutex<FleetRouterState>,
    registry: Registry,
    stats: ShardStats,
    t0: Instant,
}

struct FleetRouterState {
    members: Vec<(String, u16)>,
    router: ShardRouter,
}

impl fmt::Debug for FleetRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("FleetRouter")
            .field("members", &st.members)
            .field("generation", &st.router.map().generation())
            .finish()
    }
}

impl FleetRouter {
    /// Build a router over `members` (generation 1) with per-shard
    /// breakers configured by `cfg`.
    pub fn new(members: Vec<(String, u16)>, cfg: BreakerConfig) -> Arc<FleetRouter> {
        let registry = Registry::new();
        let stats = ShardStats::in_registry(&registry);
        stats.map_generation.set(1);
        let router = ShardRouter::new(shard_map(1, &members), cfg);
        Arc::new(FleetRouter {
            state: OrderedMutex::new("nexus.client.fleet", FleetRouterState { members, router }),
            registry,
            stats,
            t0: Instant::now(),
        })
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Install a strictly newer membership (e.g. relayed from a
    /// `ShardSync`). Breakers of unchanged shards keep their state.
    pub fn install(&self, generation: u64, members: Vec<(String, u16)>) -> bool {
        let mut st = self.state.lock();
        let map = shard_map(generation, &members);
        if !st.router.install(map.generation(), map.tags().to_vec()) {
            return false;
        }
        st.members = members;
        self.stats.map_generation.set(generation as i64);
        true
    }

    pub fn generation(&self) -> u64 {
        self.state.lock().router.map().generation()
    }

    pub fn len(&self) -> usize {
        self.state.lock().members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Best available shard for `key`: the highest-preference ladder
    /// entry whose breaker admits a dial. `None` when every shard's
    /// breaker is open.
    fn route(&self, key: &[u8]) -> Option<(usize, (String, u16))> {
        let now = self.now();
        let mut st = self.state.lock();
        let idx = st.router.route(key, now)?;
        let addr = st.members.get(idx)?.clone();
        Some((idx, addr))
    }

    fn index_of(&self, host: &str, port: u16) -> Option<usize> {
        let st = self.state.lock();
        st.members.iter().position(|(h, p)| h == host && *p == port)
    }

    /// HRW owner of `key` under the current map (breakers ignored).
    fn owner(&self, key: &[u8]) -> Option<usize> {
        self.state.lock().router.map().owner(key)
    }

    fn on_success(&self, idx: usize) {
        self.state.lock().router.on_success(idx);
    }

    fn on_failure(&self, idx: usize) {
        let now = self.now();
        self.state.lock().router.on_failure(idx, now);
    }

    /// Does `host` name one of the fleet members? (Rendezvous
    /// addresses live on member hosts and are dialed directly.)
    fn has_member_host(&self, host: &str) -> bool {
        self.state.lock().members.iter().any(|(h, _)| h == host)
    }

    /// Snapshot of the `wacs.shard.*` client counters.
    pub fn obs_snapshot(&self) -> wacs_obs::RegistrySnapshot {
        self.registry.snapshot()
    }
}

/// Dial the single outer server's control port.
fn dial_outer(
    net: &VNet,
    env: &ProxyEnv,
    from_host: &str,
    outer_host: &str,
    port: u16,
) -> io::Result<TcpStream> {
    interpose(
        env.dial_hook.as_ref(),
        DialLeg::ClientCtrl,
        from_host,
        outer_host,
        port,
        net.dial(from_host, outer_host, port),
    )
}

/// `NXProxyConnect`: "sends a connect request to the outer server and
/// returns a file descriptor on which the client can communicate with
/// the destination process."
///
/// When the destination address already *names the outer server* (a
/// rendezvous address produced by [`nx_proxy_bind`] on the remote
/// side), we connect straight to it — the rendezvous port is reachable
/// by construction, and wrapping it in another `ConnectReq` would pump
/// the bytes through the outer server twice.
pub fn nx_proxy_connect(
    net: &VNet,
    env: &ProxyEnv,
    from_host: &str,
    dst: (&str, u16),
) -> io::Result<TcpStream> {
    let hook = env.dial_hook.as_ref();
    if let Some(fleet) = &env.fleet {
        return connect_via_fleet(net, fleet, from_host, dst, hook);
    }
    let Some((outer_host, ctrl_port)) = &env.outer else {
        return interpose(
            hook,
            DialLeg::ClientData,
            from_host,
            dst.0,
            dst.1,
            net.dial(from_host, dst.0, dst.1),
        );
    };
    if dst.0 == outer_host {
        return interpose(
            hook,
            DialLeg::ClientData,
            from_host,
            dst.0,
            dst.1,
            net.dial(from_host, dst.0, dst.1),
        );
    }
    let mut stream = dial_outer(net, env, from_host, outer_host, *ctrl_port)?;
    Msg::ConnectReq {
        host: dst.0.to_string(),
        port: dst.1,
    }
    .write_to(&mut stream)?;
    match Msg::read_from(&mut stream)? {
        Msg::ConnectRep { ok: true, .. } => Ok(stream),
        Msg::ConnectRep { ok: false, detail } => Err(io::Error::new(
            io::ErrorKind::ConnectionRefused,
            format!("outer server could not reach {}:{}: {detail}", dst.0, dst.1),
        )),
        // Typed admission-control refusal: the server is up but full;
        // `WouldBlock` tells callers a retry later may succeed.
        Msg::Busy => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            "outer server busy (admission control)",
        )),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected reply to ConnectReq",
        )),
    }
}

/// The result of `NXProxyBind`: a listening endpoint plus the address
/// remote peers must use to reach it.
pub struct NxListener {
    /// Where peers should connect: the rendezvous address on the outer
    /// server (proxied) or the private address itself (direct).
    pub advertised: (String, u16),
    private: VListener,
    /// Keeps the rendezvous registration alive; closing it withdraws
    /// the rendezvous port on the outer server.
    _ctrl: Option<TcpStream>,
}

impl NxListener {
    /// Wrap an already-bound listener without any proxy registration:
    /// the advertised address is the private address itself. Used for
    /// direct and port-range (Globus 1.1) modes.
    pub fn direct(private: VListener) -> NxListener {
        let advertised = private.logical_addr();
        NxListener {
            advertised,
            private,
            _ctrl: None,
        }
    }

    /// `NXProxyAccept`: "tries to accept a connection request" on the
    /// endpoint returned by `NXProxyBind`. Relayed peers arrive here
    /// via the inner server.
    pub fn accept(&self) -> io::Result<TcpStream> {
        self.private.accept().map(|(s, _)| s)
    }

    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        self.private.set_nonblocking(nb)
    }

    /// The private (intra-site) address the inner server dials.
    pub fn private_addr(&self) -> (String, u16) {
        self.private.logical_addr()
    }
}

/// `NXProxyBind`: "sends a bind request to the outer server and returns
/// a file descriptor on which the client can listen for requests."
pub fn nx_proxy_bind(net: &VNet, env: &ProxyEnv, host: &str) -> io::Result<NxListener> {
    let private = net.bind(host, 0)?;
    if let Some(fleet) = &env.fleet {
        return bind_via_fleet(net, fleet, host, private, env.dial_hook.as_ref());
    }
    let Some((outer_host, ctrl_port)) = &env.outer else {
        let advertised = private.logical_addr();
        return Ok(NxListener {
            advertised,
            private,
            _ctrl: None,
        });
    };
    let mut ctrl = dial_outer(net, env, host, outer_host, *ctrl_port)?;
    Msg::BindReq {
        host: host.to_string(),
        port: private.logical_port(),
        fallback: false,
    }
    .write_to(&mut ctrl)?;
    match Msg::read_from(&mut ctrl)? {
        Msg::BindRep { rdv_port } if rdv_port != 0 => Ok(NxListener {
            advertised: (outer_host.clone(), rdv_port),
            private,
            _ctrl: Some(ctrl),
        }),
        Msg::BindRep { .. } => Err(io::Error::new(
            io::ErrorKind::AddrNotAvailable,
            "outer server could not allocate a rendezvous port",
        )),
        Msg::Busy => Err(io::Error::new(
            io::ErrorKind::WouldBlock,
            "outer server busy (admission control)",
        )),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected reply to BindReq",
        )),
    }
}

fn all_shards_down() -> io::Error {
    io::Error::new(
        io::ErrorKind::ConnectionRefused,
        "all fleet shards unavailable (breakers open)",
    )
}

/// Fleet `NXProxyBind`: walk the bind key's preference ladder —
/// breakers skip shards known dead, a dial or session failure feeds
/// the shard's breaker and descends to the next rung, and a `Redirect`
/// re-aims at the owner the serving shard named. Attempts are bounded
/// by twice the fleet size, so a stale map cannot loop forever.
fn bind_via_fleet(
    net: &VNet,
    fleet: &FleetRouter,
    host: &str,
    private: VListener,
    hook: Option<&DialHook>,
) -> io::Result<NxListener> {
    let key = bind_key(host, private.logical_port());
    let mut target = fleet.route(&key).ok_or_else(all_shards_down)?;
    // A request knowingly aimed at a non-owner (the owner's breaker is
    // open or its dials fail) carries `fallback: true`, telling the
    // shard to serve instead of redirecting us back to a dead owner.
    // Redirect-follows send `false`: the redirecting shard named a
    // live owner from a map at least as fresh as ours.
    let mut fallback = fleet.owner(&key) != Some(target.0);
    for _ in 0..(2 * fleet.len().max(1)) {
        let (idx, (shard_host, ctrl_port)) = target;
        let req = Msg::BindReq {
            host: host.to_string(),
            port: private.logical_port(),
            fallback,
        };
        let dialed = interpose(
            hook,
            DialLeg::ClientCtrl,
            host,
            &shard_host,
            ctrl_port,
            net.dial(host, &shard_host, ctrl_port),
        );
        let mut ctrl = match dialed {
            Ok(s) => {
                fleet.on_success(idx);
                s
            }
            Err(_) => {
                fleet.on_failure(idx);
                fleet.stats.failovers.inc();
                target = fleet.route(&key).ok_or_else(all_shards_down)?;
                fallback = fleet.owner(&key) != Some(target.0);
                continue;
            }
        };
        let reply = req
            .write_to(&mut ctrl)
            .and_then(|_| Msg::read_from(&mut ctrl));
        match reply {
            Ok(Msg::BindRep { rdv_port }) if rdv_port != 0 => {
                return Ok(NxListener {
                    advertised: (shard_host, rdv_port),
                    private,
                    _ctrl: Some(ctrl),
                });
            }
            Ok(Msg::Redirect { host: oh, port: op }) => {
                fleet.stats.redirects_followed.inc();
                // The owner the serving shard named may not be in our
                // (possibly stale) member list; follow the address
                // regardless, falling back to the serving shard's
                // index for breaker accounting.
                let oidx = fleet.index_of(&oh, op).unwrap_or(idx);
                target = (oidx, (oh, op));
                fallback = false;
            }
            Ok(Msg::BindRep { .. }) => {
                return Err(io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    "outer shard could not allocate a rendezvous port",
                ));
            }
            Ok(Msg::Busy) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "outer shard busy (admission control)",
                ));
            }
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected reply to BindReq",
                ));
            }
            // The session died under us: the shard failed after the
            // dial succeeded. Charge its breaker and descend.
            Err(_) => {
                fleet.on_failure(idx);
                fleet.stats.failovers.inc();
                target = fleet.route(&key).ok_or_else(all_shards_down)?;
                fallback = fleet.owner(&key) != Some(target.0);
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        "fleet bind gave up: redirect/failover budget exhausted",
    ))
}

/// Fleet `NXProxyConnect`: rendezvous addresses (on a member host) are
/// dialed directly, exactly like the single-outer fast path; anything
/// else is proxied via the bind key's ladder with the same
/// breaker-driven failover as [`bind_via_fleet`]. Any shard can serve
/// a `ConnectReq` (active opens have no owner), so a typed refusal is
/// final but a dead shard just means the next rung.
fn connect_via_fleet(
    net: &VNet,
    fleet: &FleetRouter,
    from_host: &str,
    dst: (&str, u16),
    hook: Option<&DialHook>,
) -> io::Result<TcpStream> {
    if fleet.has_member_host(dst.0) {
        return interpose(
            hook,
            DialLeg::ClientData,
            from_host,
            dst.0,
            dst.1,
            net.dial(from_host, dst.0, dst.1),
        );
    }
    let key = bind_key(dst.0, dst.1);
    let req = Msg::ConnectReq {
        host: dst.0.to_string(),
        port: dst.1,
    };
    let mut target = fleet.route(&key).ok_or_else(all_shards_down)?;
    for _ in 0..fleet.len().max(1) {
        let (idx, (shard_host, ctrl_port)) = target;
        let dialed = interpose(
            hook,
            DialLeg::ClientCtrl,
            from_host,
            &shard_host,
            ctrl_port,
            net.dial(from_host, &shard_host, ctrl_port),
        );
        let mut stream = match dialed {
            Ok(s) => {
                fleet.on_success(idx);
                s
            }
            Err(_) => {
                fleet.on_failure(idx);
                fleet.stats.failovers.inc();
                target = fleet.route(&key).ok_or_else(all_shards_down)?;
                continue;
            }
        };
        let reply = req
            .write_to(&mut stream)
            .and_then(|_| Msg::read_from(&mut stream));
        match reply {
            Ok(Msg::ConnectRep { ok: true, .. }) => return Ok(stream),
            Ok(Msg::ConnectRep { ok: false, detail }) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("outer shard could not reach {}:{}: {detail}", dst.0, dst.1),
                ));
            }
            Ok(Msg::Busy) => {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "outer shard busy (admission control)",
                ));
            }
            Ok(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unexpected reply to ConnectReq",
                ));
            }
            Err(_) => {
                fleet.on_failure(idx);
                fleet.stats.failovers.inc();
                target = fleet.route(&key).ok_or_else(all_shards_down)?;
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::TimedOut,
        "fleet connect gave up: failover budget exhausted",
    ))
}
