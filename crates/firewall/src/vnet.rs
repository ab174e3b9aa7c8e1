//! A firewall-guarded *virtual network* over loopback TCP.
//!
//! The real-socket half of this reproduction runs every daemon of the
//! paper (outer/inner proxy servers, gatekeeper, Q servers, MPI ranks)
//! as a thread on one machine. Plain loopback would let anything
//! connect to anything, which would silently void the entire premise
//! of the paper. `VNet` restores the premise:
//!
//! * logical **hosts** belong to **sites**, each site optionally
//!   protected by a [`Firewall`];
//! * services bind real OS listeners but advertise *logical*
//!   `(host, port)` addresses;
//! * every connect goes through [`VNet::dial`], which evaluates the
//!   border policies exactly as the border routers in Figure 5 would —
//!   a deny-based inbound policy makes an inside listener unreachable
//!   from an outside host even though both are threads in one process.
//!
//! The mapping is process-wide state shared by `Arc`; all methods are
//! thread-safe.

use crate::policy::{Firewall, Policy};
use crate::rule::{Direction, Endpoint, HostRef, Proto};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU32, Ordering};
use std::sync::Arc;
use wacs_sync::Mutex;

/// First logical port for listen-on-any requests; 65535 wraps back here.
const EPHEMERAL_BASE: u16 = 40000;

/// Site index within a `VNet`.
pub type VSiteId = usize;

struct SiteEntry {
    name: String,
    firewall: Mutex<Option<Firewall>>,
}

struct HostEntry {
    id: HostRef,
    site: VSiteId,
}

struct VNetInner {
    sites: Mutex<Vec<SiteEntry>>,
    hosts: Mutex<HashMap<String, HostEntry>>,
    /// logical (host, port) → real loopback address.
    services: Mutex<HashMap<(String, u16), SocketAddr>>,
    next_host: AtomicU32,
    next_ephemeral: AtomicU16,
}

/// Handle to the shared virtual network (cheaply clonable).
#[derive(Clone)]
pub struct VNet {
    inner: Arc<VNetInner>,
}

impl Default for VNet {
    fn default() -> Self {
        Self::new()
    }
}

impl VNet {
    pub fn new() -> VNet {
        VNet {
            inner: Arc::new(VNetInner {
                sites: Mutex::new(Vec::new()),
                hosts: Mutex::new(HashMap::new()),
                services: Mutex::new(HashMap::new()),
                next_host: AtomicU32::new(1),
                next_ephemeral: AtomicU16::new(EPHEMERAL_BASE),
            }),
        }
    }

    /// Define a site. `policy == None` means no border firewall.
    pub fn add_site(&self, name: impl Into<String>, policy: Option<Policy>) -> VSiteId {
        let mut sites = self.inner.sites.lock();
        sites.push(SiteEntry {
            name: name.into(),
            firewall: Mutex::new(policy.map(Firewall::new)),
        });
        sites.len() - 1
    }

    /// Register a logical host in a site. Returns its [`HostRef`] used
    /// in firewall rules.
    pub fn add_host(&self, name: impl Into<String>, site: VSiteId) -> HostRef {
        let name = name.into();
        let id = self.inner.next_host.fetch_add(1, Ordering::Relaxed);
        let prev = self
            .inner
            .hosts
            .lock()
            .insert(name.clone(), HostEntry { id, site });
        assert!(prev.is_none(), "duplicate host {name}");
        id
    }

    pub fn host_ref(&self, name: &str) -> Option<HostRef> {
        self.inner.hosts.lock().get(name).map(|h| h.id)
    }

    pub fn host_site(&self, name: &str) -> Option<VSiteId> {
        self.inner.hosts.lock().get(name).map(|h| h.site)
    }

    /// Swap (or install) a site's policy at runtime — the paper's
    /// temporary firewall reconfiguration. A site created without a
    /// firewall gains one; an existing firewall keeps its connection
    /// table across the reload. Returns false for an unknown site.
    pub fn reload_policy(&self, site: VSiteId, policy: Policy) -> bool {
        let sites = self.inner.sites.lock();
        match sites.get(site) {
            Some(s) => {
                let mut fw = s.firewall.lock();
                match fw.as_mut() {
                    Some(f) => f.reload(policy),
                    None => *fw = Some(Firewall::new(policy)),
                }
                true
            }
            None => false,
        }
    }

    /// Allocate a logical ephemeral port (for listen-on-any requests).
    /// The range wraps in one atomic step, so concurrent callers never
    /// share a value.
    pub fn ephemeral_port(&self) -> u16 {
        let wrapping_next = |p: u16| Some(p.checked_add(1).unwrap_or(EPHEMERAL_BASE));
        self.inner
            .next_ephemeral
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, wrapping_next)
            .unwrap_or(EPHEMERAL_BASE)
    }

    /// Bind a service: a real loopback listener advertised as logical
    /// `(host, port)`. `port == 0` allocates an ephemeral logical port,
    /// passing over those a listener on `host` still holds.
    pub fn bind(&self, host: &str, port: u16) -> io::Result<VListener> {
        if self.host_ref(host).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("unknown host {host}"),
            ));
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let real = listener.local_addr()?;
        // The listening socket's fd as a stream, for `shutdown` alone.
        let dup = TcpStream::from(OwnedFd::from(listener.try_clone()?));
        let mut services = self.inner.services.lock();
        let free = |p: &u16| !services.contains_key(&(host.to_string(), *p));
        let port = match port {
            0 => (EPHEMERAL_BASE..=u16::MAX)
                .map(|_| self.ephemeral_port())
                .find(free),
            p => Some(p).filter(free),
        }
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{host}:{port} already bound"),
            )
        })?;
        services.insert((host.to_string(), port), real);
        Ok(VListener {
            listener,
            host: host.to_string(),
            port,
            stop: StopHandle {
                inner: Arc::new(StopInner {
                    stopped: AtomicBool::new(false),
                    listening: Mutex::new(Some(dup)),
                    net: self.clone(),
                    service: (host.to_string(), port),
                }),
            },
        })
    }

    /// Resolve a logical service to its real address (diagnostics).
    pub fn resolve(&self, host: &str, port: u16) -> Option<SocketAddr> {
        self.inner
            .services
            .lock()
            .get(&(host.to_string(), port))
            .copied()
    }

    /// Firewall check for a connection `from` → `to:port`, without
    /// dialing. Establishes conntrack state on pass, as a SYN would.
    pub fn check_connect(&self, from: &str, to: &str, port: u16) -> io::Result<()> {
        let hosts = self.inner.hosts.lock();
        let src = hosts.get(from).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("unknown source host {from}"),
            )
        })?;
        let dst = hosts.get(to).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("unknown dest host {to}"))
        })?;
        let (src_site, dst_site) = (src.site, dst.site);
        let src_ep = Endpoint::new(src.id, self.ephemeral_port());
        let dst_ep = Endpoint::new(dst.id, port);
        drop(hosts);
        if src_site == dst_site {
            return Ok(()); // intra-site traffic never crosses the border
        }
        let sites = self.inner.sites.lock();
        for (site, dir) in [
            (src_site, Direction::Outbound),
            (dst_site, Direction::Inbound),
        ] {
            let site = &sites[site];
            if let Some(fw) = site.firewall.lock().as_mut() {
                let verdict = fw.filter_open(dir, Proto::Tcp, src_ep, dst_ep);
                if !verdict.passed() {
                    return Err(io::Error::new(
                        io::ErrorKind::PermissionDenied,
                        format!(
                            "firewall dropped {from}->{to}:{port} ({dir:?} at site {})",
                            site.name
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Connect from logical host `from` to logical `(to, port)`,
    /// enforcing both border policies. Returns a real `TcpStream` on
    /// success; `PermissionDenied` when a firewall drops the SYN;
    /// `ConnectionRefused` when nothing listens.
    pub fn dial(&self, from: &str, to: &str, port: u16) -> io::Result<TcpStream> {
        self.check_connect(from, to, port)?;
        let real = self.resolve(to, port).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::ConnectionRefused,
                format!("no listener at {to}:{port}"),
            )
        })?;
        TcpStream::connect(real)
    }
}

struct StopInner {
    stopped: AtomicBool,
    /// A dup of the listening socket, until the first stop or the
    /// listener's drop takes it; whichever does also unregisters.
    listening: Mutex<Option<TcpStream>>,
    net: VNet,
    service: (String, u16),
}

impl StopInner {
    /// Take the dup, set the flag and unregister the logical service;
    /// `None` if a stop or the drop came first. The dup's lock is held
    /// throughout, so the logical port is still this listener's: once
    /// unregistered it may be another's.
    fn retire(&self) -> Option<TcpStream> {
        let mut listening = self.listening.lock();
        let dup = listening.take()?;
        self.stopped.store(true, Ordering::SeqCst);
        self.net.inner.services.lock().remove(&self.service);
        Some(dup)
    }
}

/// Ends a [`VListener::accept_until_stop`] from another thread: it sets
/// the flag, unregisters the logical service, then shuts the listening
/// socket down, which ends a blocked `accept` at once and frees the
/// real port. Clones hold the socket only until the listener drops.
#[derive(Clone)]
pub struct StopHandle {
    inner: Arc<StopInner>,
}

impl StopHandle {
    /// Idempotent: only the first call (before the listener's drop)
    /// does anything.
    pub fn stop(&self) {
        if let Some(dup) = self.inner.retire() {
            let _ = dup.shutdown(Shutdown::Read);
        }
    }

    pub fn is_stopped(&self) -> bool {
        self.inner.stopped.load(Ordering::SeqCst)
    }
}

/// A bound service: real listener + logical address. Unregisters on
/// drop, unless a stop already did.
pub struct VListener {
    listener: TcpListener,
    host: String,
    port: u16,
    stop: StopHandle,
}

impl VListener {
    pub fn accept(&self) -> io::Result<(TcpStream, SocketAddr)> {
        self.listener.accept() // lint:allow(deadline-io) — blocking by contract; servers use `accept_until_stop`.
    }

    /// The handle that ends [`accept_until_stop`](Self::accept_until_stop).
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Block for the next connection. `None` once the stop handle has
    /// fired (or the listener failed): a peer accepted after the flag
    /// went up is dropped unserved.
    pub fn accept_until_stop(&self) -> Option<TcpStream> {
        if self.stop.is_stopped() {
            return None;
        }
        let (stream, _) = self.listener.accept().ok()?; // lint:allow(deadline-io) — the stop handle ends it.
        (!self.stop.is_stopped()).then_some(stream)
    }

    /// Logical `(host, port)` this service is advertised as.
    pub fn logical_addr(&self) -> (String, u16) {
        (self.host.clone(), self.port)
    }

    pub fn logical_port(&self) -> u16 {
        self.port
    }
}

impl std::fmt::Debug for VListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VListener({}:{})", self.host, self.port)
    }
}

impl Drop for VListener {
    fn drop(&mut self) {
        self.stop.inner.retire();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use std::io::{Read, Write};

    /// Two sites: "inside" behind a typical (deny-in) firewall, and an
    /// open "outside".
    fn net() -> VNet {
        let n = VNet::new();
        let inside = n.add_site("inside", Some(Policy::typical("inside")));
        let outside = n.add_site("outside", None);
        n.add_host("in-a", inside);
        n.add_host("in-b", inside);
        n.add_host("out-x", outside);
        n
    }

    #[test]
    fn intra_site_connect_works() {
        let n = net();
        let l = n.bind("in-a", 7000).unwrap();
        let n2 = n.clone();
        let t = std::thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut b = [0u8; 5];
            s.read_exact(&mut b).unwrap();
            assert_eq!(&b, b"hello");
        });
        let mut s = n2.dial("in-b", "in-a", 7000).unwrap();
        s.write_all(b"hello").unwrap();
        t.join().unwrap();
    }

    #[test]
    fn outbound_through_deny_in_firewall_works() {
        let n = net();
        let l = n.bind("out-x", 80).unwrap();
        std::thread::spawn(move || {
            let _ = l.accept();
        });
        assert!(n.dial("in-a", "out-x", 80).is_ok());
    }

    #[test]
    fn inbound_blocked_by_deny_in_firewall() {
        let n = net();
        let _l = n.bind("in-a", 7000).unwrap();
        let err = n.dial("out-x", "in-a", 7000).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn refusal_names_the_site_by_name() {
        let n = net();
        let err = n.check_connect("out-x", "in-a", 7000).unwrap_err();
        assert_eq!(
            err.to_string(),
            "firewall dropped out-x->in-a:7000 (Inbound at site inside)"
        );
    }

    #[test]
    fn nxport_hole_admits_inbound() {
        let n = VNet::new();
        let outside = n.add_site("outside", None);
        let inside = n.add_site("inside", Some(Policy::typical("inside")));
        let inner_ref = n.add_host("inner-host", inside);
        n.add_host("out-x", outside);
        // Punch the hole now that we know the inner host's ref.
        n.reload_policy(
            inside,
            Policy::typical_with_nxport("inside", inner_ref, crate::NXPORT),
        );
        let l = n.bind("inner-host", crate::NXPORT).unwrap();
        std::thread::spawn(move || {
            let _ = l.accept();
        });
        assert!(n.dial("out-x", "inner-host", crate::NXPORT).is_ok());
        // Any other port stays shut.
        let _l2 = n.bind("inner-host", 9000).unwrap();
        assert_eq!(
            n.dial("out-x", "inner-host", 9000).unwrap_err().kind(),
            io::ErrorKind::PermissionDenied
        );
    }

    #[test]
    fn dial_unknown_host_or_service() {
        let n = net();
        assert_eq!(
            n.dial("in-a", "nope", 1).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(
            n.dial("in-a", "in-b", 1234).unwrap_err().kind(),
            io::ErrorKind::ConnectionRefused
        );
    }

    #[test]
    fn bind_conflicts_and_ephemeral() {
        let n = net();
        let _l = n.bind("in-a", 7000).unwrap();
        assert_eq!(
            n.bind("in-a", 7000).unwrap_err().kind(),
            io::ErrorKind::AddrInUse
        );
        let e1 = n.bind("in-a", 0).unwrap();
        let e2 = n.bind("in-a", 0).unwrap();
        assert_ne!(e1.logical_port(), e2.logical_port());
        assert!(e1.logical_port() >= 40000);
    }

    /// The range wraps in one step and passes over a port a long-lived
    /// listener still holds: no duplicate, no `AddrInUse`, from two
    /// threads allocating through the wrap at once.
    #[test]
    fn ephemeral_wrap_is_atomic_and_skips_live_ports() {
        let n = net();
        let held = n.bind("in-a", 0).unwrap();
        assert_eq!(held.logical_port(), EPHEMERAL_BASE);
        n.inner
            .next_ephemeral
            .store(u16::MAX - 7, Ordering::Relaxed);
        let start = Arc::new(std::sync::Barrier::new(2));
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (n, start) = (n.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    (0..16)
                        .map(|_| n.bind("in-a", 0).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let bound: Vec<VListener> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        let mut ports: Vec<u16> = bound.iter().map(VListener::logical_port).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 32, "duplicate logical port across the wrap");
        assert!(ports.iter().all(|p| *p > EPHEMERAL_BASE), "{ports:?}");
        assert!(ports.contains(&u16::MAX) && ports.contains(&(EPHEMERAL_BASE + 1)));
    }

    #[test]
    fn stop_before_the_first_accept_returns_none() {
        let n = net();
        let l = n.bind("in-a", 7000).unwrap();
        l.stop_handle().stop();
        assert!(l.stop_handle().is_stopped());
        assert!(l.accept_until_stop().is_none());
    }

    /// Whichever of the accept and the stop comes first, the accept
    /// ends; and once the owning thread has dropped the listener the
    /// service is gone.
    #[test]
    fn stop_from_another_thread_ends_a_blocked_accept() {
        let n = net();
        let l = n.bind("in-a", 7000).unwrap();
        let stop = l.stop_handle();
        let (entering, entered) = std::sync::mpsc::channel();
        let acceptor = std::thread::spawn(move || {
            entering.send(()).unwrap();
            l.accept_until_stop().is_none()
        });
        entered.recv().unwrap();
        stop.stop();
        assert!(acceptor.join().unwrap());
        assert!(n.resolve("in-a", 7000).is_none());
        // With the listener gone a late stop does nothing.
        stop.stop();
    }

    /// A real peer accepted after the flag went up is never served: it
    /// reads EOF.
    #[test]
    fn a_peer_that_raced_the_stop_is_dropped_unserved() {
        let n = net();
        let l = n.bind("in-a", 7000).unwrap();
        let flag = l.stop_handle();
        let (entering, entered) = std::sync::mpsc::channel();
        let acceptor = std::thread::spawn(move || {
            entering.send(()).unwrap();
            l.accept_until_stop().is_none()
        });
        entered.recv().unwrap();
        // The flag alone; the peer below ends the accept.
        flag.inner.stopped.store(true, Ordering::SeqCst);
        let mut peer = n.dial("in-b", "in-a", 7000).unwrap();
        assert!(acceptor.join().unwrap());
        assert!(matches!(peer.read(&mut [0u8; 1]), Ok(0) | Err(_)));
    }

    /// A stop unregisters the service at once, so a dial after it is
    /// refused; a second stop is a no-op, and the logical port may be
    /// bound again while the stopped listener still lives, which its
    /// drop then leaves alone.
    #[test]
    fn a_dial_after_a_stop_is_refused_and_a_second_stop_is_a_no_op() {
        let n = net();
        let l = n.bind("in-a", 7000).unwrap();
        let stop = l.stop_handle();
        stop.stop();
        stop.clone().stop();
        assert!(stop.is_stopped() && l.accept_until_stop().is_none());
        let refused = n.dial("in-b", "in-a", 7000).unwrap_err();
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
        let again = n.bind("in-a", 7000).unwrap();
        drop(l);
        assert_eq!(n.resolve("in-a", 7000), again.listener.local_addr().ok());
    }

    #[test]
    fn listener_drop_unregisters() {
        let n = net();
        let l = n.bind("in-a", 7000).unwrap();
        assert!(n.resolve("in-a", 7000).is_some());
        drop(l);
        assert!(n.resolve("in-a", 7000).is_none());
        // Port can be rebound now.
        assert!(n.bind("in-a", 7000).is_ok());
    }

    #[test]
    fn policy_reload_opens_and_closes() {
        let n = net();
        let _l = n.bind("in-a", 7000).unwrap();
        assert!(n.dial("out-x", "in-a", 7000).is_err());
        // Temporarily open the firewall (as the paper did for direct
        // measurements).
        let site = n.host_site("in-a").unwrap();
        assert!(n.reload_policy(site, Policy::allow_based("open")));
        assert!(n.check_connect("out-x", "in-a", 7000).is_ok());
        // And back.
        assert!(n.reload_policy(site, Policy::typical("inside")));
        assert!(n.check_connect("out-x", "in-a", 7001).is_err());
    }
}
