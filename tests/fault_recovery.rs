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
