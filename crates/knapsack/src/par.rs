//! Parallel 0-1 knapsack over `gridmpi`: the `sched` core
//! driven by blocking sends and receives, one thread per rank (§4.3).
//! The master blocks in `recv` only when it has nothing left to do.
//! `gridmpi` reconnects and resends, so no peer is ever reported gone.

use crate::instance::Instance;
use crate::sched::{Heard, Master, Msg, ParParams, Slave};
use crate::stats::RunResult;
use gridmpi::Comm;
use std::io;
use std::time::Instant;

/// Run the parallel solver on this rank. Rank 0 is the master and
/// returns `Some(RunResult)`; slaves return `None`. `group_of[r]`
/// labels rank `r`'s cluster for the Table 5/6 summaries.
pub fn run(
    comm: &Comm,
    inst: &Instance,
    params: &ParParams,
    group_of: &[String],
) -> io::Result<Option<RunResult>> {
    assert_eq!(
        group_of.len(),
        comm.size() as usize,
        "one group label per rank"
    );
    if comm.rank() == 0 {
        master(comm, inst, params, &group_of[0]).map(Some)
    } else {
        slave(comm, inst, params, &group_of[comm.rank() as usize])?;
        Ok(None)
    }
}

fn send(comm: &Comm, to: u32, msg: &Msg) -> io::Result<()> {
    let (tag, payload) = msg.encode();
    comm.send(to, tag, &payload)
}

fn master(comm: &Comm, inst: &Instance, params: &ParParams, group: &str) -> io::Result<RunResult> {
    let t0 = Instant::now();
    let mut m = Master::new(inst, *params, comm.size() as usize - 1);
    for r in 1..comm.size() {
        m.joined(r);
    }
    let on = |m: &mut Master<u32>, (src, tag, payload): (u32, i32, Vec<u8>)| {
        if let Heard::Reply(msg) = m.on_msg(src, Msg::decode(tag, &payload, inst.n())?)? {
            send(comm, src, &msg)?;
        }
        io::Result::Ok(())
    };
    let dones = loop {
        let ops = m.work(inst);
        while let Some(arrived) = comm.try_recv(None, None)? {
            on(&mut m, arrived)?;
        }
        while let Some((to, msg)) = m.serve() {
            send(comm, to, &msg)?;
        }
        if ops == 0 && !m.has_work() {
            if let Some(dones) = m.finish() {
                break dones;
            }
            // Block until somebody reports (a steal request or surplus
            // nodes coming back).
            on(&mut m, comm.recv(None, None)?)?;
        }
    };
    for (to, msg) in &dones {
        send(comm, *to, msg)?;
    }
    loop {
        if let Some(rr) = m.result(comm.host(), group, t0.elapsed().as_secs_f64()) {
            return Ok(rr);
        }
        on(&mut m, comm.recv(None, None)?)?;
    }
}

fn slave(comm: &Comm, inst: &Instance, params: &ParParams, group: &str) -> io::Result<()> {
    let mut s = Slave::new(inst, *params, comm.rank(), group);
    send(comm, 0, &s.hello(comm.host()))?;
    loop {
        let (_, tag, payload) = comm.recv(Some(0), None)?;
        if let Some(report) = s.on_msg(Msg::decode(tag, &payload, inst.n())?, comm.host())? {
            return send(comm, 0, &report);
        }
        // Work until dry, returning surplus on the way.
        loop {
            s.work(inst);
            if let Some(back) = s.surplus() {
                send(comm, 0, &back)?;
            }
            if !s.has_work() {
                break;
            }
        }
        send(comm, 0, &s.steal())?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{self, SolveMode};
    use firewall::vnet::VNet;
    use gridmpi::{run_world, RankSpec};
    use nexus::NexusContext;
    use std::sync::Arc;

    fn flat_net(nhosts: usize) -> VNet {
        let net = VNet::new();
        let site = net.add_site("lab", None);
        for i in 0..nhosts {
            net.add_host(format!("h{i}"), site);
        }
        net
    }

    fn run_flat(nranks: usize, inst: Instance, params: ParParams) -> RunResult {
        let net = flat_net(nranks);
        let specs = (0..nranks)
            .map(|i| RankSpec::new(NexusContext::direct(net.clone(), format!("h{i}"))))
            .collect();
        let inst = Arc::new(inst);
        let groups: Arc<Vec<String>> =
            Arc::new((0..nranks).map(|i| format!("g{}", i % 2)).collect());
        let results = run_world(specs, move |comm| {
            run(comm, &inst, &params, &groups).unwrap()
        })
        .unwrap();
        results.into_iter().flatten().next().expect("master result")
    }

    #[test]
    fn every_rank_reports_its_host() {
        let inst = Instance::no_pruning(10);
        let rr = run_flat(3, inst, ParParams::default());
        for (i, r) in rr.ranks.iter().enumerate() {
            assert_eq!(r.rank as usize, i);
            assert_eq!(r.host, format!("h{i}"), "{r:?}");
            assert_eq!(r.group, format!("g{}", i % 2), "{r:?}");
        }
    }

    #[test]
    fn parallel_exhaustive_covers_entire_tree() {
        let n = 14;
        let inst = Instance::no_pruning(n);
        let rr = run_flat(
            4,
            inst.clone(),
            ParParams {
                interval: 64,
                steal_unit: 3,
                ..ParParams::default()
            },
        );
        assert_eq!(rr.best, inst.total_profit());
        // Every node traversed exactly once across all ranks.
        assert_eq!(rr.total_traversed(), Instance::full_tree_nodes(n));
        // Slaves actually participated.
        for r in &rr.ranks[1..] {
            assert!(r.steals >= 1, "{r:?}");
        }
    }

    #[test]
    fn parallel_matches_sequential_on_pruned_instance() {
        let inst = Instance::uncorrelated(18, 60, 11).sorted_by_ratio();
        let (truth, _) = seq::solve(&inst, SolveMode::Prune { sorted: true });
        let rr = run_flat(
            3,
            inst,
            ParParams {
                interval: 128,
                steal_unit: 2,
                prune: true,
                sorted: true,
                ..ParParams::default()
            },
        );
        assert_eq!(rr.best, truth);
    }

    /// One rank runs the sequential search in batches: the same node
    /// order, so the same optimum and the same traversed count, pruned
    /// or not.
    #[test]
    fn single_rank_degenerates_to_sequential() {
        let uncorrelated = Instance::uncorrelated(16, 40, 7);
        for (inst, sorted) in [
            (Instance::no_pruning(10), false),
            (uncorrelated.clone(), false),
            (uncorrelated.sorted_by_ratio(), true),
        ] {
            for (prune, mode) in [
                (false, SolveMode::Exhaustive),
                (true, SolveMode::Prune { sorted }),
            ] {
                let (best, c) = seq::solve(&inst, mode);
                let params = ParParams {
                    interval: 100,
                    prune,
                    sorted,
                    ..ParParams::default()
                };
                let rr = run_flat(1, inst.clone(), params);
                let case = format!("{} {mode:?}", inst.name);
                assert_eq!(
                    (rr.best, rr.total_traversed()),
                    (best, c.traversed),
                    "{case}"
                );
            }
        }
        let exhaustive = seq::solve(&Instance::no_pruning(10), SolveMode::Exhaustive);
        assert_eq!(exhaustive.1.traversed, Instance::full_tree_nodes(10));
    }

    #[test]
    fn back_pressure_path_exercised() {
        // Ship enough nodes per steal that a slave's stack exceeds the
        // (tiny) threshold, forcing the surplus-return path.
        let inst = Instance::no_pruning(16);
        let rr = run_flat(
            3,
            inst.clone(),
            ParParams {
                interval: 8,
                steal_unit: 6,
                back_unit: 2,
                back_threshold_nodes: 64,
                ..ParParams::default()
            },
        );
        assert_eq!(rr.best, inst.total_profit());
        assert_eq!(rr.total_traversed(), Instance::full_tree_nodes(16));
        let total_backs: u64 = rr.ranks.iter().map(|r| r.back_sends).sum();
        assert!(total_backs > 0, "expected surplus returns, got none");
    }

    #[test]
    fn many_ranks_small_tree_terminates() {
        // More slaves than work: most starve; termination must hold.
        let inst = Instance::no_pruning(4);
        let rr = run_flat(
            8,
            inst.clone(),
            ParParams {
                interval: 1,
                steal_unit: 1,
                ..ParParams::default()
            },
        );
        assert_eq!(rr.best, inst.total_profit());
        assert_eq!(rr.total_traversed(), Instance::full_tree_nodes(4));
    }
}
