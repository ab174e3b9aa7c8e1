//! Failure injection for the simulated wide-area knapsack: what
//! happens when infrastructure dies *permanently* or the firewall
//! flips mid-run. Since the retry/backoff layer, survivors keep
//! probing for the lost piece (bounded-backoff dials, address
//! re-polls), so the event queue no longer drains — the invariant is
//! that the run degrades observably (severed flows, no result) and
//! the virtual clock stays bounded by the caller's horizon without a
//! panic or wall-clock livelock. Recovery from *transient* failures
//! (crash + restart) is covered by `netsim::fault` and the
//! `fault_recovery` integration suite.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::Policy;
use knapsack::instance::Instance;
use knapsack::sim::{MasterActor, Shared, SlaveActor};
use knapsack::ParParams;
use netsim::engine::{NetConfig, Simulator};
use netsim::prelude::*;
use nexus_proxy::sim::{SimInnerServer, SimOuterServer, SimProxyEnv};
use std::sync::Arc;

const CTRL: u16 = 5678;
const NXPORT: u16 = 911;

struct Rig {
    sim: Simulator,
    shared: Shared,
    outer_id: netsim::actor::ActorId,
    inner_id: netsim::actor::ActorId,
    rwcp_site: SiteId,
}

/// Firewalled master + proxied slaves inside; two slaves outside.
fn rig(items: usize) -> Rig {
    let mut topo = Topology::new();
    let rwcp = topo.add_site("rwcp", None);
    let dmz = topo.add_site("dmz", None);
    let etl = topo.add_site("etl", None);
    let master_h = topo.add_host_with_cpu("master", rwcp, 2e5, 1);
    let in1 = topo.add_host_with_cpu("in1", rwcp, 2e5, 1);
    let inner_h = topo.add_host("inner", rwcp);
    let sw = topo.add_switch("sw", rwcp);
    let gw = topo.add_switch("gw", dmz);
    let outer_h = topo.add_host("outer", dmz);
    let esw = topo.add_switch("esw", etl);
    let e1 = topo.add_host_with_cpu("e1", etl, 2e5, 1);
    let e2 = topo.add_host_with_cpu("e2", etl, 2e5, 1);
    let us = SimDuration::from_micros;
    for h in [master_h, in1, inner_h] {
        topo.add_link(h, sw, us(100), 7e6);
    }
    topo.add_link(sw, gw, us(100), 7e6);
    topo.add_link(outer_h, gw, us(100), 7e6);
    topo.add_link(gw, esw, SimDuration::from_millis(3), 170e3);
    for h in [e1, e2] {
        topo.add_link(h, esw, us(100), 7e6);
    }
    topo.sites[rwcp.0 as usize].policy =
        Some(Policy::typical_with_nxport("rwcp", inner_h.0, NXPORT));

    let inst = Arc::new(Instance::no_pruning(items));
    let shared: Shared = Arc::default();
    let mut sim = Simulator::new(topo, NetConfig::default(), 5);
    let model = nexus_proxy::sim::RelayModel::default();
    let outer_id = sim.spawn(
        outer_h,
        Box::new(SimOuterServer::new(CTRL, Some((inner_h, NXPORT)), model)),
    );
    let inner_id = sim.spawn(inner_h, Box::new(SimInnerServer::new(NXPORT, model)));
    let env = SimProxyEnv::via((outer_h, CTRL));
    let params = ParParams {
        interval: 256,
        steal_unit: 8,
        ..ParParams::default()
    };
    sim.spawn(
        master_h,
        Box::new(MasterActor::new(
            inst.clone(),
            params,
            env.clone(),
            shared.clone(),
            "RWCP",
            3,
        )),
    );
    sim.spawn(
        in1,
        Box::new(SlaveActor::new(
            inst.clone(),
            params,
            env,
            shared.clone(),
            1,
            "RWCP",
        )),
    );
    for (i, h) in [e1, e2].into_iter().enumerate() {
        sim.spawn(
            h,
            Box::new(SlaveActor::new(
                inst.clone(),
                params,
                SimProxyEnv::direct(),
                shared.clone(),
                (i + 2) as u32,
                "ETL",
            )),
        );
    }
    Rig {
        sim,
        shared,
        outer_id,
        inner_id,
        rwcp_site: rwcp,
    }
}

#[test]
fn baseline_rig_completes() {
    let mut r = rig(16);
    r.sim.run();
    let result = r.shared.lock().result.clone().expect("run should finish");
    assert_eq!(result.total_traversed(), Instance::full_tree_nodes(16));
    assert_eq!(result.ranks.len(), 4);
}

#[test]
fn outer_server_death_severs_the_cluster_without_hanging() {
    let mut r = rig(20);
    // Let the cluster form and work a little.
    r.sim.run_until(SimTime(SimDuration::from_secs(2).nanos()));
    let flows_before = r.sim.stats().flows_closed;
    r.sim.kill_actor(r.outer_id);
    // Survivors retry forever (the relay never comes back), so the
    // clock runs to the horizon — but the run cannot produce a result
    // and every relayed flow must have been reset.
    let horizon = SimTime(SimDuration::from_secs(30).nanos());
    let end = r.sim.run_until(horizon);
    assert!(end <= horizon, "clock must stay bounded by the horizon");
    assert!(
        r.shared.lock().result.is_none(),
        "no result without the relay"
    );
    assert!(
        r.sim.stats().flows_closed > flows_before,
        "relayed flows should have been reset"
    );
}

#[test]
fn inner_server_death_severs_inside_ranks() {
    let mut r = rig(20);
    r.sim.run_until(SimTime(SimDuration::from_secs(2).nanos()));
    r.sim.kill_actor(r.inner_id);
    let horizon = SimTime(SimDuration::from_secs(30).nanos());
    let end = r.sim.run_until(horizon);
    assert!(end <= horizon);
    assert!(r.shared.lock().result.is_none());
}

#[test]
fn firewall_hard_reset_mid_run_kills_relayed_traffic() {
    let mut r = rig(20);
    r.sim.run_until(SimTime(SimDuration::from_secs(2).nanos()));
    // Slam the firewall shut (deny everything, flush conntrack): even
    // the nxport hole closes, so outer→inner legs die on next use.
    let site = r.rwcp_site;
    let fw = r.sim.firewall_mut(site).unwrap();
    fw.reload(Policy::deny_based("rwcp-lockdown"));
    fw.flush_conntrack();
    let horizon = SimTime(SimDuration::from_secs(30).nanos());
    let end = r.sim.run_until(horizon);
    assert!(end <= horizon);
    assert!(r.shared.lock().result.is_none());
    // The audit log recorded the drops.
    let dropped = r.sim.firewall(site).unwrap().audit().dropped();
    assert!(dropped > 0, "lockdown should have dropped packets");
}
