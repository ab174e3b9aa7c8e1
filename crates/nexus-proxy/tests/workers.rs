//! Relay set-up reuses the daemons' parked workers: once warm,
//! sequential active and passive opens start no thread on either
//! daemon (`proxy.worker_spawns` stays put).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::vnet::VNet;
use nexus_proxy::{nx_proxy_bind, nx_proxy_connect, Deployment, ProxyEnv};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

const ECHO_PORT: u16 = 6400;

struct Testbed {
    d: Deployment,
    net: VNet,
    env: ProxyEnv,
    /// What `proxy.workers_parked` reads on an idle daemon.
    full: i64,
}

fn parked(snap: &wacs_obs::RegistrySnapshot) -> i64 {
    snap.gauges["proxy.workers_parked"]
}

impl Testbed {
    fn new() -> Testbed {
        let d = Deployment::paper(["rwcp-sun"], ["etl-sun"]).unwrap();
        let full = parked(&d.outer().obs_snapshot());
        assert!(full > 0, "a daemon starts with its workers parked");
        assert_eq!(parked(&d.inner().obs_snapshot()), full);
        let (net, env) = (d.net.clone(), d.env());
        Testbed { d, net, env, full }
    }

    /// Thread starts so far: (outer, inner).
    fn spawns(&self) -> (u64, u64) {
        (
            self.d.outer().stats().worker_spawns,
            self.d.inner().stats().worker_spawns,
        )
    }

    /// Wait until the last relay is gone and every worker it used is
    /// parked again on both daemons: the next open starts from rest.
    fn settle(&self) {
        let (outer, inner) = (self.d.outer(), self.d.inner());
        let end = Instant::now() + Duration::from_secs(5);
        while !(outer.active_relays() == 0
            && outer.rendezvous_ports().is_empty()
            && parked(&outer.obs_snapshot()) == self.full
            && parked(&inner.obs_snapshot()) == self.full)
        {
            assert!(Instant::now() < end, "daemons never came back to rest");
            thread::sleep(Duration::from_millis(1));
        }
    }
}

fn echo_64(s: &mut TcpStream, fill: u8) {
    let msg = [fill; 64];
    s.write_all(&msg).unwrap();
    let mut back = [0u8; 64];
    s.read_exact(&mut back).unwrap();
    assert_eq!(back, msg);
}

#[test]
fn sequential_active_opens_start_no_thread() {
    let tb = Testbed::new();
    // An outside echo server, one connection at a time.
    let l = tb.net.bind("etl-sun", ECHO_PORT).unwrap();
    thread::spawn(move || {
        while let Ok((mut s, _)) = l.accept() {
            let mut buf = [0u8; 64];
            while s.read_exact(&mut buf).is_ok() && s.write_all(&buf).is_ok() {}
        }
    });
    let round = |i: u8| {
        let mut s = nx_proxy_connect(&tb.net, &tb.env, "rwcp-sun", ("etl-sun", ECHO_PORT)).unwrap();
        echo_64(&mut s, i);
        drop(s);
        tb.settle();
    };
    round(0);
    let warm = tb.spawns();
    for i in 1..=20 {
        round(i);
    }
    assert_eq!(tb.spawns(), warm, "20 warm connects started threads");
    assert_eq!(tb.d.outer().stats().connects_ok, 21);
}

#[test]
fn sequential_passive_opens_start_no_thread() {
    let tb = Testbed::new();
    let round = |i: u8| {
        let listener = nx_proxy_bind(&tb.net, &tb.env, "rwcp-sun").unwrap();
        let (host, port) = listener.advertised.clone();
        let mut peer = tb.net.dial("etl-sun", &host, port).unwrap();
        let mut accepted = listener.accept().unwrap();
        let echo = thread::spawn(move || {
            let mut buf = [0u8; 64];
            accepted.read_exact(&mut buf).unwrap();
            accepted.write_all(&buf).unwrap();
        });
        echo_64(&mut peer, i);
        echo.join().unwrap();
        drop((peer, listener));
        tb.settle();
    };
    round(0);
    let warm = tb.spawns();
    for i in 1..=5 {
        round(i);
    }
    assert_eq!(
        tb.spawns(),
        warm,
        "5 warm bind/dial/accept rounds started threads"
    );
    assert_eq!(tb.d.outer().stats().relays_ok, 6);
}
