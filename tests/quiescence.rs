//! What an idle or a dropped relay stack leaves running, read from
//! `/proc/self`: accepts block (DESIGN.md §6c "accepts block too"), so
//! an idle deployment makes almost no voluntary context switches, and
//! a dropped deployment cuts its live relays and joins every thread it
//! started, so the process is back to its thread and descriptor counts
//! the moment the drop returns.
//!
//! Both counts cover every thread of the process, so this file holds
//! one test and nothing runs beside it.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use wacs::nexus::{Endpoint, Startpoint};
use wacs::nexus_proxy::NxListener;
use wacs::prelude::*;

/// Relays and endpoint attachments live at each drop.
const N: usize = 2;
/// Deployments built and dropped.
const ROUNDS: usize = 100;

/// `(threads, open descriptors)` of this process.
fn census() -> (usize, usize) {
    let count = |dir| fs::read_dir(dir).unwrap().count();
    (count("/proc/self/task"), count("/proc/self/fd"))
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

/// A deployment under load. The daemons drop first, with every relay
/// and attachment below still open.
struct Stack {
    d: Deployment,
    /// Two-hop relays (peer -> outer -> inner -> client), each with the
    /// inside listener that published it.
    _relays: Vec<(NxListener, TcpStream, TcpStream)>,
    /// Proxied endpoints, each with one attached outside startpoint.
    _attached: Vec<(Endpoint, Startpoint)>,
}

fn start() -> Stack {
    let d = Deployment::paper(["rwcp-sun"], ["etl-sun"]).unwrap();
    let (net, env) = (&d.net, d.env());
    // Each relay is proven end to end by one byte, then left carrying
    // 32 KiB that nobody reads.
    let relays = (0..N)
        .map(|_| {
            let listener = nx_proxy_bind(net, &env, "rwcp-sun").unwrap();
            let (host, port) = listener.advertised.clone();
            let mut peer = net.dial("etl-sun", &host, port).unwrap();
            let mut accepted = listener.accept().unwrap();
            peer.write_all(b"!").unwrap();
            accepted.read_exact(&mut [0u8; 1]).unwrap();
            peer.write_all(&[7u8; 32 << 10]).unwrap();
            (listener, peer, accepted)
        })
        .collect();
    let outside = NexusContext::direct(net.clone(), "etl-sun");
    let attached = (0..N)
        .map(|_| {
            let ep = NexusContext::via_proxy(net.clone(), "rwcp-sun", ("rwcp-outer", OUTER_PORT))
                .endpoint()
                .unwrap();
            let (host, port) = ep.advertised();
            let sp = outside.attach((host, port)).unwrap();
            sp.send(b"live").unwrap();
            assert_eq!(ep.recv().unwrap(), b"live");
            (ep, sp)
        })
        .collect();
    Stack {
        d,
        _relays: relays,
        _attached: attached,
    }
}

#[test]
fn an_idle_stack_does_not_poll_and_a_dropped_one_leaves_no_thread() {
    let before = census();

    // What still wakes: the outer server's 25 ms reaper tick and this
    // thread's one sleep (14-16 switches measured). The 1 ms accept
    // polls made 1593 here: six listeners at ~265 each.
    let stack = start();
    let switches = voluntary_switches();
    std::thread::sleep(Duration::from_millis(300));
    let switches = voluntary_switches() - switches;
    assert!(
        switches < 60,
        "{switches} voluntary switches in 300 ms idle"
    );
    assert_eq!(stack.d.outer().active_relays(), 2 * N);
    drop(stack);
    assert_eq!(census(), before, "after the first drop");

    for round in 1..ROUNDS {
        drop(start());
        assert_eq!(census(), before, "after drop {round}");
    }
}
