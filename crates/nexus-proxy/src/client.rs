//! The client library of Table 1: `NXProxyConnect`, `NXProxyBind`,
//! `NXProxyAccept` — drop-in replacements for `connect(2)`, `bind(2)`
//! and `accept(2)` that route through the Nexus Proxy when one is
//! configured, and fall back to plain (guarded) sockets otherwise —
//! exactly the behaviour the paper describes for the patched Globus:
//! "a communication utilizes the Nexus Proxy system when environment
//! variables `NEXUS_PROXY_OUTER_SERVER` and `NEXUS_PROXY_INNER_SERVER`
//! are defined; otherwise, the original communication is done."

use crate::core::{ClientCore, ClientOp, Outcome, Refusal, Step};
use crate::hook::{interpose, DialHook, DialLeg};
use crate::liveness::BreakerConfig;
use crate::protocol::Msg;
use firewall::vnet::{StopHandle, VListener, VNet};
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
    /// `NEXUS_PROXY_OUTER_SERVER`: the outer servers to go through —
    /// one, as in the paper, or a sharded fleet (DESIGN.md §6d). Bind
    /// and connect pick a shard by rendezvous hashing and fail over
    /// down the preference ladder. `None` means talk directly.
    pub fleet: Option<Arc<FleetRouter>>,
    /// Optional socket-level interposer (DESIGN.md §6f). `None` — the
    /// default — leaves every dial untouched.
    pub dial_hook: Option<DialHook>,
}

impl ProxyEnv {
    pub fn direct() -> Self {
        ProxyEnv::default()
    }

    /// Route through a single outer server: a fleet of one.
    pub fn via(outer_host: impl Into<String>, ctrl_port: u16) -> Self {
        let members = vec![(outer_host.into(), ctrl_port)];
        ProxyEnv::via_fleet(FleetRouter::new(members, BreakerConfig::default()))
    }

    /// Route through a sharded outer fleet. Share one [`FleetRouter`]
    /// per process so breaker state accumulates across calls.
    pub fn via_fleet(fleet: Arc<FleetRouter>) -> Self {
        ProxyEnv {
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
        self.fleet.is_some()
    }
}

/// Client-side view of the outer fleet, usable from many client
/// threads at once: the one [`ClientCore`] behind a lock, and the clock
/// its breakers run on.
pub struct FleetRouter {
    core: OrderedMutex<ClientCore<String>>,
    registry: Registry,
    t0: Instant,
}

impl fmt::Debug for FleetRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let core = self.core.lock();
        f.debug_struct("FleetRouter")
            .field("members", &core.members())
            .field("generation", &core.generation())
            .finish()
    }
}

impl FleetRouter {
    /// Build a router over `members` (generation 1) with per-shard
    /// breakers configured by `cfg`.
    pub fn new(members: Vec<(String, u16)>, cfg: BreakerConfig) -> Arc<FleetRouter> {
        let registry = Registry::new();
        let mut core = ClientCore::new(members, cfg);
        core.observe(&registry);
        Arc::new(FleetRouter {
            core: OrderedMutex::new("nexus.client.fleet", core),
            registry,
            t0: Instant::now(),
        })
    }

    /// One decision: the core, and now on its clock, under the lock.
    fn step<R>(&self, f: impl FnOnce(&mut ClientCore<String>, u64) -> R) -> R {
        let mut core = self.core.lock();
        f(&mut core, self.t0.elapsed().as_nanos() as u64)
    }

    /// Install a strictly newer membership (e.g. relayed from a
    /// `ShardSync`). Breakers of unchanged shards keep their state.
    pub fn install(&self, generation: u64, members: Vec<(String, u16)>) -> bool {
        self.core.lock().install(generation, members)
    }

    pub fn generation(&self) -> u64 {
        self.core.lock().generation()
    }

    pub fn len(&self) -> usize {
        self.core.lock().members().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the `wacs.shard.*` client counters.
    pub fn obs_snapshot(&self) -> wacs_obs::RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Observe every decision of the core (conformance traces).
    #[cfg(test)]
    pub(crate) fn hooked(&self, hook: crate::core::ClientHook) {
        self.core.lock().set_hook(hook);
    }
}

/// Execute one operation's steps to the end: dial where the core says,
/// send what it says, tell it what came back. Returns the connection
/// the operation ended on and, for a bind, the rendezvous address.
fn run(
    net: &VNet,
    env: &ProxyEnv,
    fleet: &FleetRouter,
    from: &str,
    (mut op, mut step): (ClientOp<String>, Step<String>),
) -> io::Result<(TcpStream, Option<(String, u16)>)> {
    let hook = env.dial_hook.as_ref();
    let dial = |leg, to: &(String, u16)| {
        interpose(hook, leg, from, &to.0, to.1, net.dial(from, &to.0, to.1))
    };
    // The last rung's own error: what an exhausted ladder reports.
    let mut last_err = None;
    loop {
        step = match step {
            Step::Direct { to } => return Ok((dial(DialLeg::ClientData, &to)?, None)),
            Step::Dial { to, leg, send } => match dial(leg, &to) {
                Err(e) => {
                    last_err = Some(e);
                    fleet.step(|core, now| core.dial_failed(&mut op, now))
                }
                Ok(mut s) => match send.write_to(&mut s).and_then(|_| Msg::read_from(&mut s)) {
                    Err(e) => {
                        last_err = Some(e);
                        fleet.step(|core, now| core.session_died(&mut op, now))
                    }
                    Ok(reply) => match fleet.step(|core, _| core.replied(&mut op, reply)) {
                        Step::Done(Outcome::Connected) => return Ok((s, None)),
                        Step::Done(Outcome::Bound { advertised }) => {
                            return Ok((s, Some(advertised)))
                        }
                        next => next,
                    },
                },
            },
            Step::Done(Outcome::Refused(why)) => return Err(refusal(why, last_err)),
            Step::Done(_) => return Err(refusal(Refusal::Unexpected, None)),
        }
    }
}

/// A typed refusal as the `io::Error` callers match on.
fn refusal(why: Refusal, last_err: Option<io::Error>) -> io::Error {
    use io::ErrorKind::*;
    let (kind, text) = match why {
        // `WouldBlock` tells callers a retry later may succeed.
        Refusal::Busy => (WouldBlock, "outer server busy (admission control)".into()),
        Refusal::Unreachable { detail } => (
            ConnectionRefused,
            format!("outer server could not reach the destination: {detail}"),
        ),
        Refusal::NoRendezvous => (
            AddrNotAvailable,
            "outer server could not allocate a rendezvous port".into(),
        ),
        Refusal::Unexpected => (InvalidData, "unexpected reply from the outer server".into()),
        Refusal::Exhausted => {
            return last_err
                .unwrap_or_else(|| io::Error::new(ConnectionRefused, "no outer server to dial"))
        }
    };
    io::Error::new(kind, text)
}

/// `NXProxyConnect`: "sends a connect request to the outer server and
/// returns a file descriptor on which the client can communicate with
/// the destination process."
///
/// When the destination address already *names an outer server* (a
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
    let dst = (dst.0.to_string(), dst.1);
    let Some(fleet) = &env.fleet else {
        return interpose(
            env.dial_hook.as_ref(),
            DialLeg::ClientData,
            from_host,
            &dst.0,
            dst.1,
            net.dial(from_host, &dst.0, dst.1),
        );
    };
    let start = fleet.step(|core, now| core.connect(now, dst));
    run(net, env, fleet, from_host, start).map(|(stream, _)| stream)
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
        self.private.accept().map(|(s, _)| s) // lint:allow(deadline-io) — `NXProxyAccept` blocks by contract.
    }

    /// The handle that ends [`accept_until_stop`](Self::accept_until_stop).
    pub fn stop_handle(&self) -> StopHandle {
        self.private.stop_handle()
    }

    /// [`accept`](Self::accept) for an acceptor thread: `None` once
    /// the stop handle has fired.
    pub fn accept_until_stop(&self) -> Option<TcpStream> {
        self.private.accept_until_stop()
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
    let Some(fleet) = &env.fleet else {
        return Ok(NxListener::direct(private));
    };
    let me = (host.to_string(), private.logical_port());
    let start = fleet.step(|core, now| core.bind(now, me, None));
    match run(net, env, fleet, host, start)? {
        (ctrl, Some(advertised)) => Ok(NxListener {
            advertised,
            private,
            _ctrl: Some(ctrl),
        }),
        (_, None) => Err(refusal(Refusal::Unexpected, None)),
    }
}
