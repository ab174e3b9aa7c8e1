//! End-to-end tests of the real-socket Nexus Proxy over the
//! firewall-guarded virtual network — the loopback re-creation of the
//! paper's Figure 5 topology, with the deny-based policy actually
//! enforced on every dial.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::vnet::VNet;
use firewall::{Policy, NXPORT, OUTER_PORT};
use netsim::SimRng;
use nexus_proxy::{
    nx_proxy_bind, nx_proxy_connect, InnerConfig, InnerServer, OuterConfig, OuterServer, ProxyEnv,
};
use std::io::{Read, Write};
use std::thread;
use std::time::{Duration, Instant};

/// Figure 5 in miniature:
/// * site `rwcp` — deny-in/allow-out firewall with only the nxport
///   hole to `rwcp-inner`; hosts `rwcp-sun`, `compas0`, `rwcp-inner`.
/// * site `dmz` — open; host `rwcp-outer` (the outer server).
/// * site `etl` — open; host `etl-sun`.
struct Testbed {
    net: VNet,
    _outer: OuterServer,
    _inner: InnerServer,
}

fn testbed() -> Testbed {
    let net = VNet::new();
    let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    let dmz = net.add_site("dmz", None);
    let etl = net.add_site("etl", None);
    net.add_host("rwcp-sun", rwcp);
    net.add_host("compas0", rwcp);
    let inner_ref = net.add_host("rwcp-inner", rwcp);
    net.add_host("rwcp-outer", dmz);
    net.add_host("etl-sun", etl);
    // Punch the single hole: outer → inner on nxport.
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));

    let inner = InnerServer::start(net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        net.clone(),
        OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
    )
    .unwrap();
    Testbed {
        net,
        _outer: outer,
        _inner: inner,
    }
}

fn proxy_env() -> ProxyEnv {
    ProxyEnv::via("rwcp-outer", OUTER_PORT)
}

#[test]
fn firewall_premise_holds() {
    let tb = testbed();
    // Outbound from inside works...
    let l = tb.net.bind("etl-sun", 5001).unwrap();
    thread::spawn(move || {
        let _ = l.accept();
    });
    assert!(tb.net.dial("rwcp-sun", "etl-sun", 5001).is_ok());
    // ...but inbound to inside is dropped (this is the problem the
    // proxy exists to solve).
    let _l2 = tb.net.bind("rwcp-sun", 5002).unwrap();
    assert_eq!(
        tb.net.dial("etl-sun", "rwcp-sun", 5002).unwrap_err().kind(),
        std::io::ErrorKind::PermissionDenied
    );
}

#[test]
fn active_open_relays_outbound() {
    // Fig. 3: inside client reaches an outside server via ConnectReq.
    let tb = testbed();
    let l = tb.net.bind("etl-sun", 6000).unwrap();
    let srv = thread::spawn(move || {
        let (mut s, _) = l.accept().unwrap();
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        s.write_all(b"ack:").unwrap();
        s.write_all(&buf).unwrap();
    });
    let mut s = nx_proxy_connect(&tb.net, &proxy_env(), "rwcp-sun", ("etl-sun", 6000)).unwrap();
    s.write_all(b"ping").unwrap();
    let mut buf = [0u8; 8];
    s.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"ack:ping");
    srv.join().unwrap();
    assert_eq!(tb._outer.stats().connects_ok, 1);
}

#[test]
fn active_open_failure_reported() {
    let tb = testbed();
    let err = nx_proxy_connect(&tb.net, &proxy_env(), "rwcp-sun", ("etl-sun", 6999)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert_eq!(tb._outer.stats().connects_failed, 1);
}

#[test]
fn passive_open_relays_inbound_through_inner() {
    // Fig. 4: an inside server becomes reachable from outside via the
    // rendezvous port, bridged peer → outer → inner → client.
    let tb = testbed();
    let listener = nx_proxy_bind(&tb.net, &proxy_env(), "rwcp-sun").unwrap();
    let (adv_host, adv_port) = listener.advertised.clone();
    assert_eq!(adv_host, "rwcp-outer"); // address names the proxy

    let srv = thread::spawn(move || {
        let mut s = listener.accept().unwrap();
        let mut buf = [0u8; 5];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        s.write_all(b"world").unwrap();
    });

    // The outside peer connects to the *advertised* address — plain
    // connect, as MPICH-G would after reading the startpoint address.
    let mut s = tb.net.dial("etl-sun", &adv_host, adv_port).unwrap();
    s.write_all(b"hello").unwrap();
    let mut buf = [0u8; 5];
    s.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"world");
    srv.join().unwrap();
    assert_eq!(tb._outer.stats().relays_ok, 1);
    assert_eq!(tb._inner.stats().relays_ok, 1);
}

#[test]
fn inside_to_inside_through_both_servers() {
    // RWCP-Sun ↔ COMPaS in the paper's Table 2 "indirect" row: both
    // ends are inside the firewall, so traffic goes client → outer →
    // inner → server (two relay processes).
    let tb = testbed();
    let listener = nx_proxy_bind(&tb.net, &proxy_env(), "rwcp-sun").unwrap();
    let adv = listener.advertised.clone();
    let srv = thread::spawn(move || {
        let mut s = listener.accept().unwrap();
        let mut buf = vec![0u8; 65536];
        s.read_exact(&mut buf).unwrap();
        s.write_all(&buf).unwrap();
    });
    // compas0 connects via NXProxyConnect; the destination names the
    // outer server, so the client connects straight to the rendezvous.
    let mut s =
        nx_proxy_connect(&tb.net, &proxy_env(), "compas0", (adv.0.as_str(), adv.1)).unwrap();
    let data: Vec<u8> = (0..65536u32).map(|i| (i % 255) as u8).collect();
    s.write_all(&data).unwrap();
    let mut back = vec![0u8; 65536];
    s.read_exact(&mut back).unwrap();
    assert_eq!(back, data);
    srv.join().unwrap();
    // Both relay daemons moved the bytes (>= payload both ways). Byte
    // accounting lands *after* each write, so the pump thread may still
    // be bumping the counter when the app-level echo completes — poll.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let outer = tb._outer.stats().relayed_bytes;
        let inner = tb._inner.stats().relayed_bytes;
        if outer >= 2 * 65536 && inner >= 2 * 65536 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "relayed_bytes stalled: outer={outer} inner={inner}"
        );
        thread::sleep(std::time::Duration::from_millis(2));
    }
}

#[test]
fn direct_mode_bypasses_proxy() {
    let tb = testbed();
    let env = ProxyEnv::direct();
    let listener = nx_proxy_bind(&tb.net, &env, "etl-sun").unwrap();
    let adv = listener.advertised.clone();
    assert_eq!(adv.0, "etl-sun"); // advertises itself, not the proxy
    let srv = thread::spawn(move || {
        let mut s = listener.accept().unwrap();
        let mut b = [0u8; 2];
        s.read_exact(&mut b).unwrap();
    });
    let mut s = nx_proxy_connect(&tb.net, &env, "rwcp-sun", (adv.0.as_str(), adv.1)).unwrap();
    s.write_all(b"ok").unwrap();
    srv.join().unwrap();
    assert_eq!(tb._outer.stats().connects_ok, 0);
}

#[test]
fn rendezvous_withdrawn_when_listener_drops() {
    let tb = testbed();
    let listener = nx_proxy_bind(&tb.net, &proxy_env(), "rwcp-sun").unwrap();
    let adv = listener.advertised.clone();
    assert_eq!(tb._outer.rendezvous_ports(), vec![adv.1]);
    drop(listener);
    // The control-connection EOF propagates asynchronously.
    for _ in 0..200 {
        if tb._outer.rendezvous_ports().is_empty() {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(tb._outer.rendezvous_ports().is_empty());
    // And connecting to the old rendezvous now fails.
    assert!(tb.net.dial("etl-sun", &adv.0, adv.1).is_err());
}

/// 64 relays at once to one destination host — exactly the default
/// `max_per_peer` — each echoing its own seeded 64 KiB payload: every
/// byte compared, nothing refused, and the relay table drains.
#[test]
fn many_concurrent_relays() {
    const RELAYS: u16 = 64;
    const LEN: usize = 64 * 1024;
    let tb = testbed();
    let mut handles = Vec::new();
    for i in 0..RELAYS {
        let net = tb.net.clone();
        let l = net.bind("etl-sun", 7100 + i).unwrap();
        handles.push(thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut b = vec![0u8; LEN];
            s.read_exact(&mut b).unwrap();
            s.write_all(&b).unwrap();
        }));
    }
    let mut clients = Vec::new();
    for i in 0..RELAYS {
        let net = tb.net.clone();
        clients.push(thread::spawn(move || {
            let mut rng = SimRng::seed_from_u64(0xc0c0 + u64::from(i));
            let payload: Vec<u8> = (0..LEN).map(|_| rng.below(256) as u8).collect();
            let mut s =
                nx_proxy_connect(&net, &proxy_env(), "rwcp-sun", ("etl-sun", 7100 + i)).unwrap();
            s.write_all(&payload).unwrap();
            let mut b = vec![0u8; LEN];
            s.read_exact(&mut b).unwrap();
            assert!(b == payload, "relay {i} echoed different bytes");
        }));
    }
    for h in handles.into_iter().chain(clients) {
        h.join().unwrap();
    }
    let snap = tb._outer.stats();
    assert_eq!((snap.connects_ok, snap.busy_rejected), (64, 0));
    let deadline = Instant::now() + Duration::from_secs(5);
    while tb._outer.active_relays() != 0 {
        assert!(Instant::now() < deadline, "relay table did not drain");
        thread::sleep(Duration::from_millis(2));
    }
}
