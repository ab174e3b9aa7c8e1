//! The deployment under test and the benchmark's own traffic ends.
//!
//! Topology is the paper's: site `rwcp` behind a deny-based firewall
//! whose only inbound hole is `nxport` on the inner server's host, the
//! outer server in a DMZ, site `etl` outside. Everything is threads of
//! this process talking over the host's loopback interface.

use crate::host;
use firewall::vnet::VNet;
use firewall::{Policy, NXPORT, OUTER_PORT};
use nexus_proxy::{
    nx_proxy_bind, nx_proxy_connect, BreakerConfig, FleetRouter, InnerConfig, InnerServer,
    NxListener, OuterConfig, OuterServer, ProxyEnv,
};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

pub const INSIDE: &str = "rwcp-sun";
pub const INNER: &str = "rwcp-inner";
pub const OUTER: &str = "rwcp-outer";
pub const OUTER2: &str = "rwcp-outer2";
pub const OUTSIDE: &str = "etl-o2k";
/// Logical port of the benchmark's outside sink.
pub const SINK_PORT: u16 = 7000;

/// A client read that takes this long is a failed operation, not a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// The leak gate allows this long for relays, threads and fds to drain.
const LEAK_GRACE: Duration = Duration::from_secs(2);

/// The benchmark's own sockets carry `TCP_NODELAY` (as `nexus` sets it
/// on its streams), so a stall that shows up belongs to the relay.
pub fn tune(s: &TcpStream) {
    let _ = s.set_nodelay(true);
    let _ = s.set_read_timeout(Some(IO_TIMEOUT));
}

pub struct Deployment {
    pub net: VNet,
    /// One outer server, or two when deployed as a fleet.
    pub outers: Vec<OuterServer>,
    pub inner: InnerServer,
    /// How an inside client reaches the world.
    pub env: ProxyEnv,
    baseline: (usize, usize),
}

impl Deployment {
    pub fn start(fleet: bool) -> io::Result<Deployment> {
        let net = VNet::new();
        let rwcp = net.add_site("rwcp", None);
        let dmz = net.add_site("dmz", None);
        let etl = net.add_site("etl", None);
        net.add_host(INSIDE, rwcp);
        let inner_ref = net.add_host(INNER, rwcp);
        net.add_host(OUTER, dmz);
        net.add_host(OUTER2, dmz);
        net.add_host(OUTSIDE, etl);
        net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));

        // The premise, checked once: nothing outside can dial in.
        {
            let probe = net.bind(INSIDE, SINK_PORT)?;
            match net.dial(OUTSIDE, INSIDE, SINK_PORT) {
                Err(e) if e.kind() == io::ErrorKind::PermissionDenied => {}
                other => {
                    return Err(io::Error::other(format!(
                        "firewall let an inbound dial through: {other:?}"
                    )))
                }
            }
            drop(probe);
        }

        let inner = InnerServer::start(net.clone(), InnerConfig::new(INNER))?;
        let members = vec![
            (OUTER.to_string(), OUTER_PORT),
            (OUTER2.to_string(), OUTER_PORT),
        ];
        let mut outers = Vec::new();
        for (i, (host, _)) in members.iter().enumerate().take(if fleet { 2 } else { 1 }) {
            let mut cfg = OuterConfig::new(host.clone()).with_inner(INNER, NXPORT);
            if fleet {
                cfg = cfg.with_fleet(members.clone(), i);
            }
            outers.push(OuterServer::start(net.clone(), cfg)?);
        }
        let env = if fleet {
            ProxyEnv::via_fleet(FleetRouter::new(members, BreakerConfig::default()))
        } else {
            ProxyEnv::via(OUTER, OUTER_PORT)
        };
        Ok(Deployment {
            net,
            outers,
            inner,
            env,
            baseline: (0, 0),
        })
    }

    pub fn outer(&self) -> &OuterServer {
        &self.outers[0]
    }

    /// Record thread and fd counts: call with the daemons and the
    /// benchmark's long-lived servers up, before any client traffic.
    pub fn mark_baseline(&mut self) {
        self.baseline = (host::threads(), host::fds());
    }

    pub fn thread_growth(&self) -> i64 {
        host::threads() as i64 - self.baseline.0 as i64
    }

    pub fn fd_growth(&self) -> i64 {
        host::fds() as i64 - self.baseline.1 as i64
    }

    /// Inside client dials an outside sink: outbound, so allowed.
    pub fn dial_direct(&self, port: u16) -> io::Result<TcpStream> {
        let s = self.net.dial(INSIDE, OUTSIDE, port)?;
        tune(&s);
        Ok(s)
    }

    /// Inside client reaches an outside sink through the outer server.
    pub fn connect_one_hop(&self, port: u16) -> io::Result<TcpStream> {
        let s = nx_proxy_connect(&self.net, &self.env, INSIDE, (OUTSIDE, port))?;
        tune(&s);
        Ok(s)
    }

    /// Inside process publishes a rendezvous on the outer server.
    pub fn bind_inside(&self) -> io::Result<NxListener> {
        nx_proxy_bind(&self.net, &self.env, INSIDE)
    }

    /// Outside peer dials a rendezvous: peer -> outer -> inner -> sink.
    pub fn dial_rendezvous(&self, adv: &(String, u16)) -> io::Result<TcpStream> {
        let s = self.net.dial(OUTSIDE, &adv.0, adv.1)?;
        tune(&s);
        Ok(s)
    }

    /// After a workload has closed everything it opened: every relay,
    /// admission slot, rendezvous port, thread and descriptor must be
    /// gone within the grace period. Returns how many conditions were
    /// checked and the name of each miss.
    pub fn leak_gate(&self) -> (u64, Vec<String>) {
        let check = || {
            let mut missed = Vec::new();
            for (i, o) in self.outers.iter().enumerate() {
                if o.active_relays() != 0 {
                    missed.push(format!("outer{i}.active_relays={}", o.active_relays()));
                }
                if o.admission_active() != 0 {
                    missed.push(format!(
                        "outer{i}.admission_active={}",
                        o.admission_active()
                    ));
                }
                if !o.rendezvous_ports().is_empty() {
                    missed.push(format!(
                        "outer{i}.rendezvous_ports={:?}",
                        o.rendezvous_ports()
                    ));
                }
            }
            if self.thread_growth() != 0 {
                missed.push(format!("threads={:+}", self.thread_growth()));
            }
            if self.fd_growth() != 0 {
                missed.push(format!("fds={:+}", self.fd_growth()));
            }
            missed
        };
        let deadline = Instant::now() + LEAK_GRACE;
        loop {
            let missed = check();
            if missed.is_empty() || Instant::now() >= deadline {
                return (3 * self.outers.len() as u64 + 2, missed);
            }
            thread::sleep(Duration::from_millis(2));
        }
    }
}

/// One of the benchmark's own listening ends: an accept loop that runs
/// `handler` on each connection, inline (`threaded == false`, one
/// connection at a time, no spawn on the measured path) or on a thread
/// of its own.
pub struct Server {
    stop: Arc<AtomicBool>,
    wake: Box<dyn Fn() + Send + Sync>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    pub fn spawn(
        mut accept: impl FnMut() -> io::Result<TcpStream> + Send + 'static,
        wake: impl Fn() + Send + Sync + 'static,
        threaded: bool,
        handler: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> Server {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let handler = Arc::new(handler);
        let acceptor = thread::spawn(move || {
            let mut conns = Vec::new();
            while let Ok(s) = accept() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                tune(&s);
                if threaded {
                    let h = handler.clone();
                    conns.push(thread::spawn(move || h(s)));
                } else {
                    handler(s);
                }
            }
            for c in conns {
                let _ = c.join();
            }
        });
        Server {
            stop,
            wake: Box::new(wake),
            acceptor: Some(acceptor),
        }
    }

    /// An outside sink at `(OUTSIDE, port)`.
    pub fn outside(
        net: &VNet,
        port: u16,
        threaded: bool,
        handler: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Server> {
        let listener = net.bind(OUTSIDE, port)?;
        let net = net.clone();
        Ok(Server::spawn(
            move || listener.accept().map(|(s, _)| s),
            move || drop(net.dial(OUTSIDE, OUTSIDE, port)),
            threaded,
            handler,
        ))
    }

    /// An inside sink behind a rendezvous; returns the advertised
    /// address outside peers dial.
    pub fn inside(
        dep: &Deployment,
        threaded: bool,
        handler: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<(Server, (String, u16))> {
        let listener = dep.bind_inside()?;
        let adv = listener.advertised.clone();
        let (host, port) = listener.private_addr();
        let net = dep.net.clone();
        let server = Server::spawn(
            move || listener.accept(),
            move || drop(net.dial(&host, &host, port)),
            threaded,
            handler,
        );
        Ok((server, adv))
    }
}

impl Drop for Server {
    /// Stops accepting, then waits for every connection handler: the
    /// peers must have closed their ends first.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        (self.wake)();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
    }
}

/// Streaming echo: whatever arrives goes straight back.
pub fn echo_handler(mut s: TcpStream) {
    let _ = s.set_read_timeout(None);
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                if s.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = s.shutdown(Shutdown::Both);
}
