//! Striped parallel bulk transfer over the sharded relay fleet, on
//! netsim's virtual clock (DESIGN.md §6e).
//!
//! One logical transfer is split into K stripe lanes; each lane binds
//! its own rendezvous through the outer-shard fleet, so the K bind
//! keys HRW-spread across shards and each stripe's bytes serialize
//! through a different relay service queue. These tests pin the
//! healthy path: exact reassembly, multi-shard spread, virtual-time
//! speedup from parallel lanes, and byte-identical same-seed
//! snapshots. The chaos variants (a stripe's flow or owning shard
//! killed mid-transfer) live in the workspace `fault_recovery` suite.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use netsim::prelude::*;
use nexus_proxy::sim::{
    stripe_cell, NxActor, NxClient, RelayModel, SimOuterServer, SimProxyEnv, StripeCell,
    StripeSender, StripeSink,
};
use nexus_proxy::{StripePlan, StripeStats};
use std::sync::Arc;
use wacs_obs::Registry;

/// Control port of every sim shard (same port, distinct hosts).
const CTRL: u16 = 4097;

/// Deterministic payload bytes.
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 17) % 251) as u8).collect()
}

struct RunOut {
    /// Registry snapshot JSON (for determinism checks).
    json: String,
    /// Reassembled `(tag, bytes)`, if the transfer completed.
    result: Option<(i32, Vec<u8>)>,
    /// Virtual nanos from sender start to completion.
    elapsed_ns: Option<u64>,
    /// Distinct shard hosts that served stripe binds.
    distinct_shards: usize,
    /// Lane re-dials after a mid-transfer flow death.
    failovers: u64,
    /// Typed reassembly errors (must stay empty).
    errors: usize,
    /// Byte-identical duplicate chunks the receiver absorbed.
    duplicates: u64,
}

/// One striped run: `stripes` lanes over a fleet of `shards` relay
/// shards, all on one LAN segment (the per-shard relay service queue
/// is the bottleneck, as in the committed `shard_scaling` scenario).
fn run_striped(seed: u64, shards: usize, stripes: u16, total_len: u64, chunk: u32) -> RunOut {
    let start_at = SimDuration::from_millis(300);
    let mut topo = Topology::new();
    let site = topo.add_site("bench", None);
    let sw = topo.add_switch("sw", site);
    let shard_hosts: Vec<NodeId> = (0..shards)
        .map(|i| topo.add_host(format!("shard{i}"), site))
        .collect();
    let rx_host = topo.add_host("rx", site);
    let tx_host = topo.add_host("tx", site);
    let lan = 6.5e6;
    for h in shard_hosts.iter().chain([&rx_host, &tx_host]) {
        topo.add_link(*h, sw, SimDuration::from_micros(100), lan);
    }
    let members: Vec<(NodeId, u16)> = shard_hosts.iter().map(|h| (*h, CTRL)).collect();

    let registry = Registry::new();
    let stats = StripeStats::in_registry(&registry);
    let mut sim = Simulator::new(topo, seed);
    for (i, host) in shard_hosts.iter().enumerate() {
        sim.spawn(
            *host,
            Box::new(
                SimOuterServer::new(CTRL, None, RelayModel::default())
                    .with_fleet(members.clone(), i)
                    .with_obs(&registry),
            ),
        );
    }
    let plan = StripePlan::new(total_len, stripes, chunk).unwrap();
    let data = Arc::new(payload(total_len as usize));
    let cell: StripeCell = stripe_cell(stripes);
    for stripe in 0..stripes {
        sim.spawn(
            rx_host,
            Box::new(NxActor::new(
                NxClient::new(SimProxyEnv::direct())
                    .with_fleet(members.clone())
                    .with_bind_lane(stripe)
                    .with_obs(&registry),
                StripeSink::new(stripe, cell.clone()).with_stats(stats.clone()),
            )),
        );
        sim.spawn(
            tx_host,
            Box::new(NxActor::new(
                NxClient::new(SimProxyEnv::direct()),
                StripeSender::new(stripe, cell.clone(), data.clone(), plan, 7, start_at)
                    .with_stats(stats.clone()),
            )),
        );
    }
    sim.run_until(SimTime(SimDuration::from_secs(120).nanos()));

    let c = cell.lock();
    let mut served: Vec<NodeId> = c.advertised.iter().flatten().map(|(h, _)| *h).collect();
    served.sort_unstable();
    served.dedup();
    RunOut {
        json: registry.snapshot().to_json(),
        result: c.receiver.result(),
        elapsed_ns: c.done_at_ns.map(|t| t.saturating_sub(start_at.nanos())),
        distinct_shards: served.len(),
        failovers: c.failovers,
        errors: c.errors.len(),
        duplicates: c.receiver.duplicates(),
    }
}

const LEN: u64 = 256 * 1024;
const CHUNK: u32 = 16 * 1024;

/// Healthy path: K=4 lanes over 4 shards reassemble the payload
/// byte-identically, with no errors, no failovers, no duplicates.
#[test]
fn sim_striped_reassembly_is_exact() {
    let out = run_striped(0x51, 4, 4, LEN, CHUNK);
    let (tag, got) = out.result.expect("transfer did not complete");
    assert_eq!(tag, 0);
    assert_eq!(got, payload(LEN as usize));
    assert_eq!(out.errors, 0);
    assert_eq!(out.failovers, 0);
    assert_eq!(out.duplicates, 0);
    // Lane affinity spreads K lanes over K shards by construction.
    assert_eq!(out.distinct_shards, 4);
}

/// An uneven tail (total not a multiple of stripes × chunk) still
/// reassembles exactly — the short last chunk rides like any other.
#[test]
fn sim_uneven_tail_reassembles() {
    let len = LEN - 4321;
    let out = run_striped(0x52, 3, 3, len, CHUNK);
    let (_, got) = out.result.expect("transfer did not complete");
    assert_eq!(got, payload(len as usize));
    assert_eq!(out.errors, 0);
}

/// One stripe over one shard is the degenerate single-stream case.
#[test]
fn sim_single_stripe_works() {
    let out = run_striped(0x53, 1, 1, LEN, CHUNK);
    let (_, got) = out.result.expect("transfer did not complete");
    assert_eq!(got, payload(LEN as usize));
    assert_eq!(out.distinct_shards, 1);
}

/// The point of striping: with the per-shard relay queue as the
/// bottleneck, K=4 lanes over 4 shards finish the same payload at
/// least twice as fast (virtual time) as one lane over one shard.
#[test]
fn sim_four_stripes_beat_one_by_2x() {
    let one = run_striped(0x54, 1, 1, LEN, CHUNK);
    let four = run_striped(0x54, 4, 4, LEN, CHUNK);
    let t1 = one.elapsed_ns.expect("single-lane run incomplete");
    let t4 = four.elapsed_ns.expect("striped run incomplete");
    assert!(
        t1 >= 2 * t4,
        "expected ≥2x virtual-time speedup: single {t1} ns vs striped {t4} ns"
    );
}

/// Same seed ⇒ byte-identical registry snapshots and payloads.
#[test]
fn sim_striped_snapshots_are_deterministic() {
    let a = run_striped(0x55, 4, 4, LEN, CHUNK);
    let b = run_striped(0x55, 4, 4, LEN, CHUNK);
    assert_eq!(a.json, b.json);
    assert_eq!(a.result, b.result);
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
}
