//! Workspace integration: the fault-injection + retry/backoff layer,
//! end to end on the simulated wide-area testbed.
//!
//! Under a fixed fault seed — the outer proxy crashed mid-run plus a
//! 1% WAN chunk-drop rate — the wide-area knapsack must still complete
//! with the correct optimum, must visibly exercise the recovery paths
//! (proxy retries, transport retransmits, exactly one crash/restart),
//! and must do all of it deterministically: the same seeds always
//! reproduce the same virtual-time trace.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use wacs::netsim::prelude::SimDuration;
use wacs::prelude::*;

/// Build the paper's wide-area run at a test-sized item count, plus
/// the fault plan the acceptance scenario prescribes: outer proxy
/// crashed halfway through the fault-free schedule (restarted 250ms
/// later) and 1% WAN chunk loss.
fn scenario(items: usize, fault_seed: u64) -> (KnapsackRun, FaultConfig) {
    let cfg = KnapsackRun::paper_default(System::WideArea, items);
    let clean = run_knapsack(&cfg);
    let faults = FaultConfig {
        seed: fault_seed,
        wan_drop: 0.01,
        outer_crash_at: Some(SimDuration::from_secs_f64(clean.elapsed_secs / 2.0)),
        ..FaultConfig::default()
    };
    (cfg, faults)
}

#[test]
fn crashed_proxy_and_lossy_wan_still_reach_the_optimum() {
    let (cfg, faults) = scenario(18, 7);
    let fr = run_knapsack_with_faults(&cfg, &faults);
    assert_eq!(
        fr.result.best,
        Instance::no_pruning(cfg.items).total_profit(),
        "faults slowed the run down but must not corrupt the answer"
    );
    assert_eq!(
        (fr.actor_crashes, fr.actor_restarts),
        (1, 1),
        "the planned outer-proxy crash/restart must have happened"
    );
    assert!(
        fr.nx_retries >= 1,
        "recovery must go through the retry layer (observed {})",
        fr.nx_retries
    );
    assert!(
        fr.chunks_dropped > 0 && fr.retransmits > 0,
        "1% WAN loss must have bitten ({} dropped, {} retransmits)",
        fr.chunks_dropped,
        fr.retransmits
    );
}

#[test]
fn fault_recovery_is_deterministic() {
    let (cfg, faults) = scenario(16, 7);
    let a = run_knapsack_with_faults(&cfg, &faults);
    let b = run_knapsack_with_faults(&cfg, &faults);
    // A deterministic DES: identical seeds give bit-identical traces,
    // so the recovered runs agree on timing and every fault counter.
    assert_eq!(
        a.result.elapsed_secs.to_bits(),
        b.result.elapsed_secs.to_bits()
    );
    assert_eq!(a.nx_retries, b.nx_retries);
    assert_eq!(a.chunks_dropped, b.chunks_dropped);
    assert_eq!(a.retransmits, b.retransmits);
    assert_eq!(a.result.best, b.result.best);
}

/// Kill-one-stripe chaos (DESIGN.md §6e): a striped bulk transfer
/// over the 4-shard relay fleet loses the flow — or the whole shard —
/// carrying one stripe mid-transfer, and must still reassemble the
/// payload byte-identically with zero lost bytes, no typed reassembly
/// errors, at least one observed lane failover, and byte-identical
/// same-seed `wacs-obs` snapshots. Mirrors the PR 8 kill-one-shard
/// liveness test, one layer up the stack.
mod killstripe {
    use std::sync::Arc;
    use wacs::netsim::prelude::*;
    use wacs::nexus_proxy::sim::{
        stripe_cell, NxActor, NxClient, RelayModel, SimOuterServer, SimProxyEnv, StripeCell,
        StripeSender, StripeSink,
    };
    use wacs::nexus_proxy::{StripePlan, StripeStats};
    use wacs::wacs_obs::Registry;

    const CTRL: u16 = 4097;
    const SHARDS: usize = 4;
    const STRIPES: u16 = 4;
    const LEN: u64 = 256 * 1024;
    const CHUNK: u32 = 16 * 1024;

    /// What dies mid-transfer under the stripe being attacked.
    #[derive(Clone, Copy)]
    enum Kill {
        /// The serving shard crashes and restarts 150 ms later: the
        /// stripe's flow (and bind) are torn, the shard comes back.
        Flow,
        /// The serving shard dies for good: the lane must fail over
        /// to a surviving shard.
        Shard,
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 17) % 251) as u8).collect()
    }

    struct ChaosOut {
        json: String,
        result: Option<(i32, Vec<u8>)>,
        errors: usize,
        failovers: u64,
    }

    /// Run the striped transfer, crash the shard serving stripe 0 at
    /// 400 ms virtual (mid-transfer: each lane is 1-2 chunks in), and
    /// run on to quiescence.
    fn run_killstripe(seed: u64, kill: Kill) -> ChaosOut {
        let start_at = SimDuration::from_millis(300);
        let mut topo = Topology::new();
        let site = topo.add_site("bench", None);
        let sw = topo.add_switch("sw", site);
        let shard_hosts: Vec<NodeId> = (0..SHARDS)
            .map(|i| topo.add_host(format!("shard{i}"), site))
            .collect();
        let rx_host = topo.add_host("rx", site);
        let tx_host = topo.add_host("tx", site);
        for h in shard_hosts.iter().chain([&rx_host, &tx_host]) {
            topo.add_link(*h, sw, SimDuration::from_micros(100), 6.5e6);
        }
        let members: Vec<(NodeId, u16)> = shard_hosts.iter().map(|h| (*h, CTRL)).collect();

        let registry = Registry::new();
        let stats = StripeStats::in_registry(&registry);
        let mut sim = Simulator::new(topo, seed);
        let shard_ids: Vec<ActorId> = shard_hosts
            .iter()
            .enumerate()
            .map(|(i, host)| {
                sim.spawn(
                    *host,
                    Box::new(
                        SimOuterServer::new(CTRL, None, RelayModel::default())
                            .with_fleet(members.clone(), i)
                            .with_obs(&registry),
                    ),
                )
            })
            .collect();
        let plan = StripePlan::new(LEN, STRIPES, CHUNK).unwrap();
        let data = Arc::new(payload(LEN as usize));
        let cell: StripeCell = stripe_cell(STRIPES);
        for stripe in 0..STRIPES {
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

        // Run to mid-transfer, then discover which shard is carrying
        // stripe 0 and kill it.
        sim.run_until(SimTime(SimDuration::from_millis(400).nanos()));
        let serving = cell.lock().advertised[0]
            .expect("stripe 0 not bound by 400ms")
            .0;
        let victim = shard_hosts
            .iter()
            .position(|h| *h == serving)
            .expect("advertised host is not a shard");
        let plan_f = match kill {
            Kill::Flow => {
                let restart_members = members.clone();
                let restart_reg = registry.clone();
                FaultPlan::new(seed).crash_restart(
                    shard_ids[victim],
                    SimDuration::from_millis(1),
                    SimDuration::from_millis(150),
                    move || {
                        Box::new(
                            SimOuterServer::new(CTRL, None, RelayModel::default())
                                .with_fleet(restart_members.clone(), victim)
                                .with_obs(&restart_reg),
                        )
                    },
                )
            }
            Kill::Shard => {
                FaultPlan::new(seed).crash(shard_ids[victim], SimDuration::from_millis(1))
            }
        };
        sim.install_faults(plan_f);
        sim.run_until(SimTime(SimDuration::from_secs(120).nanos()));

        let c = cell.lock();
        ChaosOut {
            json: registry.snapshot().to_json(),
            result: c.receiver.result(),
            errors: c.errors.len(),
            failovers: c.failovers,
        }
    }

    #[test]
    fn killed_stripe_flow_recovers_exactly() {
        let out = run_killstripe(0x91, Kill::Flow);
        let (tag, got) = out
            .result
            .expect("transfer did not complete after flow kill");
        assert_eq!(tag, 0);
        assert_eq!(got, payload(LEN as usize), "lost or corrupted bytes");
        assert_eq!(out.errors, 0, "reassembly raised typed errors");
        assert!(out.failovers >= 1, "the kill must force a lane failover");
    }

    #[test]
    fn killed_stripe_shard_fails_over_exactly() {
        let out = run_killstripe(0x92, Kill::Shard);
        let (tag, got) = out
            .result
            .expect("transfer did not complete after shard kill");
        assert_eq!(tag, 0);
        assert_eq!(got, payload(LEN as usize), "lost or corrupted bytes");
        assert_eq!(out.errors, 0, "reassembly raised typed errors");
        assert!(out.failovers >= 1, "the kill must force a lane failover");
    }

    #[test]
    fn killstripe_snapshots_are_deterministic() {
        for kill in [Kill::Flow, Kill::Shard] {
            let a = run_killstripe(0x93, kill);
            let b = run_killstripe(0x93, kill);
            assert_eq!(a.json, b.json, "same seed must give identical snapshots");
            assert_eq!(a.result, b.result);
            assert_eq!(a.failovers, b.failovers);
        }
    }
}

#[test]
fn recovery_survives_a_seed_sweep() {
    let optimum = Instance::no_pruning(16).total_profit();
    for fault_seed in [1, 2, 3] {
        let (cfg, faults) = scenario(16, fault_seed);
        let fr = run_knapsack_with_faults(&cfg, &faults);
        assert_eq!(fr.result.best, optimum, "fault seed {fault_seed}");
        assert_eq!(
            (fr.actor_crashes, fr.actor_restarts),
            (1, 1),
            "fault seed {fault_seed}"
        );
    }
}
