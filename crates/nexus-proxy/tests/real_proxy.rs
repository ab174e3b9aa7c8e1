//! End-to-end tests of the real-socket Nexus Proxy over the
//! firewall-guarded virtual network — the loopback re-creation of the
//! paper's Figure 5 topology, with the deny-based policy actually
//! enforced on every dial.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::vnet::VNet;
use firewall::OUTER_PORT;
use netsim::SimRng;
use nexus_proxy::core::{shard_map, HostId};
use nexus_proxy::{
    nx_proxy_bind, nx_proxy_connect, BreakerConfig, Deployment, FleetRouter, ProxyEnv,
    REPLY_DEADLINE,
};
use std::io::{Read, Write};
use std::thread;
use std::time::{Duration, Instant};

/// Figure 5 in miniature (`Deployment`): hosts `rwcp-sun` and
/// `compas0` inside the `rwcp` firewall, whose only hole is nxport to
/// `rwcp-inner`; `rwcp-outer` in the open DMZ; `etl-sun` at ETL.
fn testbed() -> Deployment {
    Deployment::paper(["rwcp-sun", "compas0"], ["etl-sun"]).unwrap()
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
    assert_eq!(tb.outer().stats().connects_ok, 1);
}

#[test]
fn active_open_failure_reported() {
    let tb = testbed();
    let err = nx_proxy_connect(&tb.net, &proxy_env(), "rwcp-sun", ("etl-sun", 6999)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert_eq!(tb.outer().stats().connects_failed, 1);
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
    assert_eq!(tb.outer().stats().relays_ok, 1);
    assert_eq!(tb.inner().stats().relays_ok, 1);
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
        let outer = tb.outer().stats().relayed_bytes;
        let inner = tb.inner().stats().relayed_bytes;
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
    assert_eq!(tb.outer().stats().connects_ok, 0);
}

#[test]
fn rendezvous_withdrawn_when_listener_drops() {
    let tb = testbed();
    let listener = nx_proxy_bind(&tb.net, &proxy_env(), "rwcp-sun").unwrap();
    let adv = listener.advertised.clone();
    assert_eq!(tb.outer().rendezvous_ports(), vec![adv.1]);
    drop(listener);
    // The control-connection EOF propagates asynchronously.
    for _ in 0..200 {
        if tb.outer().rendezvous_ports().is_empty() {
            break;
        }
        thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(tb.outer().rendezvous_ports().is_empty());
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
    let snap = tb.outer().stats();
    assert_eq!((snap.connects_ok, snap.busy_rejected), (64, 0));
    let deadline = Instant::now() + Duration::from_secs(5);
    while tb.outer().active_relays() != 0 {
        assert!(Instant::now() < deadline, "relay table did not drain");
        thread::sleep(Duration::from_millis(2));
    }
}

/// An outer server that accepts, takes the request and never answers.
fn silent_outer(net: &VNet, host: &str) {
    let l = net.bind(host, OUTER_PORT).unwrap();
    thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = l.accept() {
            held.push(s);
        }
    });
}

/// `f` on its own thread, failed (not hung) if it is not done in `limit`.
fn watchdog<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    thread::spawn(move || tx.send(f()));
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("still blocked after {limit:?}"))
}

#[test]
fn a_silent_outer_server_fails_connect_and_bind_at_the_reply_deadline() {
    let net = VNet::new();
    let dmz = net.add_site("dmz", None);
    for h in ["edge", "silent", "etl-sun"] {
        net.add_host(h, dmz);
    }
    silent_outer(&net, "silent");
    let env = ProxyEnv::via("silent", OUTER_PORT);
    let t0 = Instant::now();
    let (connect, bind) = watchdog(REPLY_DEADLINE + Duration::from_secs(3), move || {
        let (net2, env2) = (net.clone(), env.clone());
        let connect = thread::spawn(move || {
            nx_proxy_connect(&net2, &env2, "edge", ("etl-sun", 7000)).map(|_| ())
        });
        let bind = nx_proxy_bind(&net, &env, "edge").map(|_| ());
        (connect.join().unwrap(), bind)
    });
    assert!(
        t0.elapsed() >= REPLY_DEADLINE,
        "gave up early: {:?}",
        t0.elapsed()
    );
    for res in [connect, bind] {
        assert_eq!(res.unwrap_err().kind(), std::io::ErrorKind::TimedOut);
    }
}

#[test]
fn connects_owned_by_a_silent_shard_are_served_by_the_live_one() {
    let tb = testbed();
    let dmz = tb.net.host_site("rwcp-outer").unwrap();
    tb.net.add_host("silent", dmz);
    silent_outer(&tb.net, "silent");
    let members = vec![
        ("silent".to_string(), OUTER_PORT),
        ("rwcp-outer".to_string(), OUTER_PORT),
    ];
    // Destination ports whose ladder starts at the silent member.
    let map = shard_map(1, &members);
    let dst = "etl-sun".to_string();
    let ports: Vec<u16> = (7000..8000)
        .filter(|p| map.owner(&dst.shard_key(*p)) == Some(0))
        .take(2)
        .collect();
    let env = ProxyEnv::via_fleet(FleetRouter::new(members, BreakerConfig::default()));
    for &port in &ports {
        let l = tb.net.bind("etl-sun", port).unwrap();
        thread::spawn(move || {
            let (mut s, _) = l.accept().unwrap();
            let mut b = [0u8; 4];
            s.read_exact(&mut b).unwrap();
            s.write_all(&b).unwrap();
        });
    }
    let net = tb.net.clone();
    let t0 = Instant::now();
    watchdog(REPLY_DEADLINE + Duration::from_secs(5), move || {
        let calls: Vec<_> = ports
            .into_iter()
            .map(|port| {
                let (net, env) = (net.clone(), env.clone());
                thread::spawn(move || {
                    let mut s = nx_proxy_connect(&net, &env, "rwcp-sun", ("etl-sun", port))?;
                    s.write_all(b"ping")?;
                    let mut b = [0u8; 4];
                    s.read_exact(&mut b)?;
                    Ok::<_, std::io::Error>(b)
                })
            })
            .collect();
        for call in calls {
            assert_eq!(&call.join().unwrap().unwrap(), b"ping");
        }
    });
    assert!(
        t0.elapsed() >= REPLY_DEADLINE,
        "the silent shard was not asked"
    );
    assert_eq!(tb.outer().stats().connects_ok, 2);
}
