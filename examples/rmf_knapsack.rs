//! The full Globus-style workflow: a knapsack instance file is staged
//! via GASS, an RMF job is submitted from outside the firewall, the Q
//! server forks solver processes inside, and results come back as
//! staged stdout — the paper's deployment model end to end.
//!
//! Run with: `cargo run --release --example rmf_knapsack`

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::time::Duration;
use wacs::prelude::*;

fn main() -> std::io::Result<()> {
    // One firewalled site with a compute cluster; a user outside.
    let net = VNet::new();
    let outside = net.add_site("internet", None);
    let rwcp = net.add_site("rwcp", None);
    net.add_host("user", outside);
    net.add_host("gk-host", outside);
    let alloc_ref = net.add_host("alloc-host", rwcp);
    let fe_ref = net.add_host("compas-fe", rwcp);
    net.reload_policy(
        rwcp,
        rmf_site_policy(
            "rwcp",
            &[
                (alloc_ref, rmf::ALLOCATOR_PORT),
                (fe_ref, rmf::QSERVER_PORT),
            ],
        ),
    );

    let trace = FlowTrace::new();
    let gass = GassStore::new();
    let registry = ExecRegistry::new();

    // The "binary" installed on the cluster: reads its staged data
    // file, solves with branch-and-bound, prints the result. Process 0
    // also cross-checks against dynamic programming.
    registry.register("knapsack-solve", |ctx: rmf::ExecCtx| {
        let Some(file) = ctx.files.get("instance.dat") else {
            ctx.println("missing instance.dat");
            return 2;
        };
        let Ok(text) = String::from_utf8(file.clone()) else {
            ctx.println("instance.dat is not UTF-8");
            return 2;
        };
        let inst = match knapsack::fileformat::read_instance(&text) {
            Ok(i) => i.sorted_by_ratio(),
            Err(e) => {
                ctx.println(format!("bad instance: {e}"));
                return 2;
            }
        };
        let (best, counters) =
            knapsack::seq_solve(&inst, knapsack::SolveMode::Prune { sorted: true });
        ctx.println(format!(
            "proc {}/{}: instance '{}' optimum = {best} ({} nodes, {} pruned)",
            ctx.proc_index, ctx.proc_count, inst.name, counters.traversed, counters.pruned
        ));
        if ctx.proc_index == 0 {
            let dp = knapsack::dp::solve(&inst);
            if dp != best {
                ctx.println(format!("DP DISAGREES: {dp}"));
                return 1;
            }
            ctx.println("DP cross-check: agreed");
        }
        0
    });

    let alloc = ResourceAllocator::start(net.clone(), "alloc-host", trace.clone())?;
    alloc.state.register(ResourceInfo {
        name: "COMPaS".into(),
        qserver_host: "compas-fe".into(),
        cpus: 8,
    });
    let _qs = QServer::start(
        net.clone(),
        "compas-fe",
        "COMPaS",
        registry,
        gass.clone(),
        "alloc-host",
        trace.clone(),
    )?;
    let gk = Gatekeeper::start(
        net.clone(),
        "gk-host",
        vec!["/O=Grid/CN=Researcher".into()],
        "alloc-host",
        gass.clone(),
        trace.clone(),
    )?;

    // The user stages the problem file (the paper's 50-item instances
    // were exactly such data files) and submits RSL referencing it.
    let inst = knapsack::Instance::uncorrelated(30, 200, 4242);
    gass.put(
        "gk-host",
        "inputs/knap30.dat",
        knapsack::fileformat::write_instance(&inst).into_bytes(),
    );
    let gk_addr = gk.addr();
    let job = submit_job(
        &net,
        "user",
        (&gk_addr.0, gk_addr.1),
        "/O=Grid/CN=Researcher",
        "&(executable=knapsack-solve)(count=4)(stage_in=instance.dat<gass://gk-host/inputs/knap30.dat)",
    )?;
    println!("submitted {job} from outside the firewall");
    let (state, exit, stdout_urls) = wait_job(
        &net,
        "user",
        (&gk_addr.0, gk_addr.1),
        job,
        Duration::from_secs(60),
    )?;
    println!("{job}: {state:?} (exit {exit})\n--- staged stdout ---");
    for url in &stdout_urls {
        print!("{}", String::from_utf8_lossy(&gass.get_url(url)?));
    }
    println!("--- execution flow (Fig. 2) ---\n{}", trace.render());
    Ok(())
}
