//! What an idle or a dropped relay stack leaves running, read from
//! `/proc/self`: accepts block (DESIGN.md §6c "accepts block too"), so
//! an idle deployment makes almost no voluntary context switches, and
//! a stop handle wakes every acceptor, so dropped daemons take all of
//! their threads with them.
//!
//! Both counts cover every thread of the process, so this file holds
//! one test and nothing runs beside it.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::io::{Read, Write};
use std::time::{Duration, Instant};
use wacs::prelude::*;

fn threads() -> usize {
    fs::read_dir("/proc/self/task").unwrap().count()
}

/// Sum of `voluntary_ctxt_switches` over every live thread: each
/// sleep, timed-out wait or blocking call that had to wait is one.
fn voluntary_switches() -> u64 {
    fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            line.trim().parse::<u64>().ok()
        })
        .sum()
}

fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn an_idle_stack_does_not_poll_and_a_dropped_one_leaves_no_thread() {
    let threads_before = threads();

    let net = VNet::new();
    let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    let dmz = net.add_site("dmz", None);
    let etl = net.add_site("etl", None);
    net.add_host("rwcp-sun", rwcp);
    let inner_ref = net.add_host("rwcp-inner", rwcp);
    net.add_host("rwcp-outer", dmz);
    net.add_host("etl-sun", etl);
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
    let inner = InnerServer::start(net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        net.clone(),
        OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
    )
    .unwrap();
    let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);

    // Two open two-hop relays (peer -> outer -> inner -> client), each
    // proven end to end by one byte and silent from then on, and one
    // nexus endpoint with its acceptor.
    let mut relays: Vec<_> = (0..2)
        .map(|_| {
            let listener = nx_proxy_bind(&net, &env, "rwcp-sun").unwrap();
            let (host, port) = listener.advertised.clone();
            let mut peer = net.dial("etl-sun", &host, port).unwrap();
            let mut accepted = listener.accept().unwrap();
            peer.write_all(b"!").unwrap();
            accepted.read_exact(&mut [0u8; 1]).unwrap();
            (listener, Some((peer, accepted)))
        })
        .collect();
    let endpoint = NexusContext::via_proxy(net.clone(), "rwcp-sun", ("rwcp-outer", OUTER_PORT))
        .endpoint()
        .unwrap();
    wait_until(
        "relays and registrations up",
        Duration::from_secs(2),
        || outer.active_relays() == 2 && outer.rendezvous_ports().len() == 3,
    );

    // What still wakes: the outer server's 25 ms reaper tick and this
    // thread's one sleep (14-16 switches measured). The 1 ms accept
    // polls made 1593 here: six listeners at ~265 each.
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_millis(300));
    let switches = voluntary_switches() - before;
    assert!(
        switches < 60,
        "{switches} voluntary switches in 300 ms idle"
    );

    // Close the relays, keep three registrations live (the endpoint's
    // becomes a plain bind), and drop the daemons under them.
    drop(endpoint);
    for (_, streams) in &mut relays {
        *streams = None;
    }
    let _third = nx_proxy_bind(&net, &env, "rwcp-sun").unwrap();
    wait_until("relays closed", Duration::from_secs(2), || {
        outer.active_relays() == 0 && outer.rendezvous_ports().len() == 3
    });
    drop(outer);
    drop(inner);
    wait_until("threads back at baseline", Duration::from_secs(1), || {
        threads() == threads_before
    });
}
