//! Workspace integration: the full real-socket stack end to end —
//! firewalled virtual network, Nexus Proxy, nexus channels, gridmpi
//! ranks spanning both sites, and the actual knapsack solver — the
//! whole paper running as threads.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;
use wacs::prelude::*;

/// RWCP behind its firewall (`rwcp-sun`, `compas0..3`) and ETL
/// outside (`etl0..3`), the paper's proxy between them.
fn two_sites() -> Deployment {
    let hosts = |prefix: &'static str| (0..4).map(move |i| format!("{prefix}{i}"));
    let inside = std::iter::once("rwcp-sun".to_string()).chain(hosts("compas"));
    Deployment::paper(inside, hosts("etl")).unwrap()
}

/// 2 proxied inside ranks + 2 direct outside ranks.
fn mixed_specs(w: &Deployment, inside: usize, outside: usize) -> Vec<RankSpec> {
    let mut specs = Vec::new();
    specs.push(RankSpec::new(NexusContext::via_proxy(
        w.net.clone(),
        "rwcp-sun",
        ("rwcp-outer", OUTER_PORT),
    )));
    for i in 0..inside.saturating_sub(1) {
        specs.push(RankSpec::new(NexusContext::via_proxy(
            w.net.clone(),
            format!("compas{i}"),
            ("rwcp-outer", OUTER_PORT),
        )));
    }
    for i in 0..outside {
        specs.push(RankSpec::new(NexusContext::direct(
            w.net.clone(),
            format!("etl{i}"),
        )));
    }
    specs
}

#[test]
fn knapsack_over_real_sockets_across_the_firewall() {
    let w = two_sites();
    let inst = Arc::new(Instance::no_pruning(16));
    let expected_nodes = Instance::full_tree_nodes(16);
    let expected_best = inst.total_profit();
    let params = ParParams {
        interval: 128,
        steal_unit: 4,
        ..ParParams::default()
    };
    let groups: Arc<Vec<String>> = Arc::new(
        ["RWCP-Sun", "COMPaS", "COMPaS", "ETL", "ETL", "ETL"]
            .iter()
            .map(ToString::to_string)
            .collect(),
    );
    let inst2 = inst.clone();
    let results = gridmpi::run_world(mixed_specs(&w, 3, 3), move |comm| {
        knapsack::par_run(comm, &inst2, &params, &groups).unwrap()
    })
    .unwrap();
    let rr = results.into_iter().flatten().next().expect("master result");
    assert_eq!(rr.best, expected_best);
    assert_eq!(rr.total_traversed(), expected_nodes);
    // The relay actually carried traffic: the master is inside, the
    // ETL slaves outside, so steal/node shipments crossed the proxy.
    assert!(w.outer().stats().relayed_bytes > 0);
    assert!(w.inner().stats().relays_ok > 0);
}

#[test]
fn knapsack_with_pruning_matches_dp_across_sites() {
    let w = two_sites();
    let inst = Arc::new(Instance::uncorrelated(20, 64, 77).sorted_by_ratio());
    let truth = knapsack::dp::solve(&inst);
    let params = ParParams {
        interval: 64,
        steal_unit: 4,
        prune: true,
        sorted: true,
        ..ParParams::default()
    };
    let groups: Arc<Vec<String>> = Arc::new((0..4).map(|i| format!("g{}", i % 2)).collect());
    let inst2 = inst.clone();
    let results = gridmpi::run_world(mixed_specs(&w, 2, 2), move |comm| {
        knapsack::par_run(comm, &inst2, &params, &groups).unwrap()
    })
    .unwrap();
    let rr = results.into_iter().flatten().next().unwrap();
    assert_eq!(rr.best, truth);
}

#[test]
fn without_proxy_the_wide_area_cluster_cannot_form() {
    // Same layout, but the inside ranks do NOT use the proxy: outside
    // ranks can never attach to the master's endpoint.
    let w = two_sites();
    let master_ctx = NexusContext::direct(w.net.clone(), "rwcp-sun");
    let ep = master_ctx.endpoint().unwrap();
    let (host, port) = ep.advertised();
    assert_eq!(host, "rwcp-sun"); // advertises the unreachable address
    let (host, port) = (host.to_string(), port);
    let etl_ctx = NexusContext::direct(w.net.clone(), "etl0");
    let err = etl_ctx.attach((&host, port)).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
}

#[test]
fn collectives_span_the_proxy() {
    let w = two_sites();
    let results = gridmpi::run_world(mixed_specs(&w, 2, 2), |comm| {
        comm.barrier().unwrap();
        let data = if comm.rank() == 0 {
            vec![7u8; 4096]
        } else {
            Vec::new()
        };
        let got = comm.bcast(0, data).unwrap();
        let sum = comm
            .allreduce_f64(vec![f64::from(comm.rank() + 1)])
            .unwrap();
        (got.len(), sum[0])
    })
    .unwrap();
    for (len, sum) in results {
        assert_eq!(len, 4096);
        assert_eq!(sum, 1.0 + 2.0 + 3.0 + 4.0);
    }
    // The run above exercised every migrated OrderedMutex hot spot
    // (allocator entries, qserver jobs, gridmpi peer/stash/counter
    // locks, the outer server's rendezvous table); the global
    // lock-order graph must have stayed acyclic.
    for needle in ["rmf.", "gridmpi.", "nexus."] {
        if let Err(v) = wacs_sync::lock_order::check_clean(needle) {
            panic!("lock-order inversions under {needle}: {v:?}");
        }
    }
}

#[test]
fn proxy_death_breaks_channels_cleanly() {
    let w = two_sites();
    // Establish a proxied channel, then kill the outer server: sends
    // must fail with an error, not hang or panic.
    let server_ctx = NexusContext::via_proxy(w.net.clone(), "rwcp-sun", ("rwcp-outer", OUTER_PORT));
    let ep = server_ctx.endpoint().unwrap();
    let adv = (ep.advertised().0.to_string(), ep.advertised().1);
    let client_ctx = NexusContext::direct(w.net.clone(), "etl0");
    let sp = client_ctx.attach((&adv.0, adv.1)).unwrap();
    sp.send(b"before").unwrap();
    assert_eq!(ep.recv().unwrap(), b"before");

    w.outer().shutdown();
    // Give the relay pumps a moment to observe the shutdown; then the
    // existing relayed connection still works (pumps are independent
    // threads) but new attaches to the rendezvous must fail.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let second = NexusContext::direct(w.net.clone(), "etl1");
    // Either refused (listener gone) or an error during relay setup.
    let res = second.attach((&adv.0, adv.1));
    if let Ok(sp2) = res {
        // If the rendezvous listener thread hadn't exited yet the
        // attach may land; the send then dies with the pump.
        let _ = sp2.send(b"x");
    }
}
