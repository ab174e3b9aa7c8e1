//! Workspace integration: the paper's protocol figures as asserted
//! event sequences.
//!
//! * Figure 3 — active connection through the outer server
//!   (`NXProxyConnect`): 3 steps.
//! * Figure 4 — passive connection through outer + inner
//!   (`NXProxyBind`/`NXProxyAccept`): 5 steps.
//!
//! The real-socket servers execute the protocol; the assertions walk
//! the observable side effects in order.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{Read, Write};
use wacs::prelude::*;

fn world() -> Deployment {
    Deployment::paper(["rwcp-sun"], ["etl-sun"]).unwrap()
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let end = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while !cond() {
        assert!(std::time::Instant::now() < end, "timed out waiting: {what}");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

#[test]
fn figure3_active_connection_steps() {
    let w = world();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);

    // Remote PB listens openly at ETL.
    let pb = w.net.bind("etl-sun", 6100).unwrap();
    let t = std::thread::spawn(move || {
        // Step 3: PB accepts the connect request *from the outer
        // server* — PB never hears from PA directly.
        let (mut s, _) = pb.accept().unwrap();
        let mut b = [0u8; 2];
        s.read_exact(&mut b).unwrap();
        s.write_all(&b).unwrap();
    });

    let before = w.outer().stats();
    // Step 1: PA calls NXProxyConnect() instead of connect().
    let mut pa = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", 6100)).unwrap();
    // Step 2 happened inside the outer server: it received the request
    // and dialed PB. The counters land just after the reply the client
    // saw, so poll rather than assert the instantaneous snapshot.
    wait_until("control accept counted", || {
        w.outer().stats().control_accepts - before.control_accepts == 1
    });
    wait_until("connect counted", || {
        w.outer().stats().connects_ok - before.connects_ok == 1
    });
    // Step 3 outcome: an end-to-end link through the outer server.
    pa.write_all(b"hi").unwrap();
    let mut b = [0u8; 2];
    pa.read_exact(&mut b).unwrap();
    assert_eq!(&b, b"hi");
    t.join().unwrap();
    // Byte accounting lands just *after* each relay write, so the
    // counter can trail the data by an instant — wait, don't assert.
    wait_until("relayed bytes counted", || {
        w.outer().stats().relayed_bytes >= 4
    });
    // The inner server was NOT involved in an active open.
    assert_eq!(w.inner().stats().relays_ok, 0);
}

#[test]
fn figure4_passive_connection_steps() {
    let w = world();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);

    // Step 1: PA calls NXProxyBind() instead of bind(); it gets back a
    // port on which peers can indirectly reach it.
    let listener = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
    let (adv_host, adv_port) = listener.advertised.clone();
    // Step 2: the outer server bound that rendezvous port.
    assert_eq!(adv_host, "rwcp-outer");
    assert_eq!(w.outer().rendezvous_ports(), vec![adv_port]);
    assert_eq!(w.outer().stats().binds, 1);

    let t = std::thread::spawn(move || {
        // Step 5: PA calls NXProxyAccept() on the endpoint returned by
        // NXProxyBind; the link arrives via the inner server.
        let mut s = listener.accept().unwrap();
        let mut b = [0u8; 4];
        s.read_exact(&mut b).unwrap();
        s.write_all(b"ack!").unwrap();
    });

    // Step 3: PB connects to the outer server instead of PA.
    let mut pb = w.net.dial("etl-sun", &adv_host, adv_port).unwrap();
    pb.write_all(b"data").unwrap();
    let mut b = [0u8; 4];
    pb.read_exact(&mut b).unwrap();
    assert_eq!(&b, b"ack!");
    t.join().unwrap();

    // Step 4 happened inside: outer connected to inner (via nxport),
    // inner connected to PA.
    assert_eq!(w.outer().stats().relays_ok, 1);
    assert_eq!(w.inner().stats().relays_ok, 1);
    // Both daemons moved the payload.
    wait_until("outer relayed bytes counted", || {
        w.outer().stats().relayed_bytes >= 8
    });
    wait_until("inner relayed bytes counted", || {
        w.inner().stats().relayed_bytes >= 8
    });
}

#[test]
fn figure2_flow_is_covered_by_rmf_tests() {
    // The six-step RMF flow assertion lives with the rmf crate
    // (tests/rmf_flow.rs::full_six_step_flow_across_the_firewall);
    // this marker test documents the mapping for EXPERIMENTS.md.
}
