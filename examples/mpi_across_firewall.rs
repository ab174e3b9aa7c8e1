//! MPICH-G-style MPI spanning a firewall: four ranks inside a
//! deny-based site and four outside run collectives together, with the
//! inside ranks transparently routed through the Nexus Proxy — and the
//! real 0-1 knapsack solver on top.
//!
//! Run with: `cargo run --release --example mpi_across_firewall`

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::sync::Arc;
use wacs::prelude::*;

fn main() -> std::io::Result<()> {
    // Firewalled site + open site, with the proxy pair deployed.
    let hosts = |prefix: &'static str| (0..4).map(move |i| format!("{prefix}{i}"));
    let d = Deployment::paper(hosts("compas"), hosts("etl"))?;
    let net = d.net.clone();

    // Ranks 0-3 inside (proxied), 4-7 outside (direct).
    let mut specs = Vec::new();
    for i in 0..4 {
        specs.push(RankSpec::new(NexusContext::via_proxy(
            net.clone(),
            format!("compas{i}"),
            ("rwcp-outer", OUTER_PORT),
        )));
    }
    for i in 0..4 {
        specs.push(RankSpec::new(NexusContext::direct(
            net.clone(),
            format!("etl{i}"),
        )));
    }

    let inst = Arc::new(Instance::no_pruning(20));
    let params = ParParams {
        interval: 512,
        steal_unit: 8,
        ..ParParams::default()
    };
    let groups: Arc<Vec<String>> = Arc::new(
        (0..8)
            .map(|i| if i < 4 { "COMPaS" } else { "ETL" }.to_string())
            .collect(),
    );

    let results = run_world(specs, move |comm| {
        // Warm up with a collective across the firewall.
        comm.barrier().unwrap();
        let greeting = if comm.rank() == 0 {
            format!("hello from rank 0 on {}", comm.host()).into_bytes()
        } else {
            Vec::new()
        };
        let got = comm.bcast(0, greeting).unwrap();
        if comm.rank() == comm.size() - 1 {
            println!(
                "rank {} on {} received: {}",
                comm.rank(),
                comm.host(),
                String::from_utf8_lossy(&got)
            );
        }
        // The real parallel solver, masters and slaves split across
        // the firewall.
        knapsack::par_run(comm, &inst, &params, &groups).unwrap()
    })?;

    let rr = results.into_iter().flatten().next().expect("master result");
    println!(
        "\nknapsack n=20 solved: best = {}, {} nodes traversed in {:.2} wall s",
        rr.best,
        rr.total_traversed(),
        rr.elapsed_secs
    );
    for r in &rr.ranks {
        println!(
            "  rank {:>2} [{:<7}] nodes {:>8} steals {:>4} backs {:>3}",
            r.rank, r.group, r.traversed, r.steals, r.back_sends
        );
    }
    Ok(())
}
