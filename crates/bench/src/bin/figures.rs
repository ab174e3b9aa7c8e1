//! Regenerate the paper's figures as validated textual renderings.
//!
//! * Fig. 1 — the wide-area cluster concept;
//! * Fig. 2 — the RMF architecture + six-step job flow (executed live
//!   over the guarded network, trace printed);
//! * Figs. 3/4 — the proxy's active/passive connection mechanisms
//!   (executed live, steps narrated from observed server counters);
//! * Fig. 5 — the experimental environment (from the testbed data the
//!   simulations actually run on, with routing/firewall checks).

use firewall::vnet::VNet;
use firewall::{Policy, NXPORT, OUTER_PORT};
use nexus_proxy::{
    nx_proxy_bind, nx_proxy_connect, InnerConfig, InnerServer, OuterConfig, OuterServer, ProxyEnv,
};
use rmf::{
    rmf_site_policy, submit_job, wait_job, ExecRegistry, FlowTrace, GassStore, Gatekeeper, QServer,
    ResourceAllocator, ResourceInfo, SelectPolicy,
};
use std::error::Error;
use std::io::{self, Read, Write};
use std::time::Duration;
use wacs_core::{FirewallMode, PaperTestbed};

type Render = Result<(), Box<dyn Error>>;

fn fig1() {
    println!("── Figure 1: Wide-area cluster system ──────────────────────");
    println!(
        "\
  Electrotechnical Laboratory          Tokyo Institute of Technology
    32-node Alpha cluster                 16-node SMP cluster
    32-node PC cluster            WAN
    64-node PC cluster         ───────   Real World Computing Partnership
                                           (LAN behind a firewall)\n"
    );
}

fn fig2() -> Render {
    println!("── Figure 2: The architecture of RMF (live run) ────────────");
    let net = VNet::new();
    let outside = net.add_site("outside", None);
    let inside = net.add_site("rwcp", None);
    net.add_host("user", outside);
    net.add_host("gk-host", outside);
    let a = net.add_host("alloc-host", inside);
    let q1 = net.add_host("clusterA-fe", inside);
    let q2 = net.add_host("clusterB-fe", inside);
    net.reload_policy(
        inside,
        rmf_site_policy(
            "rwcp",
            &[
                (a, rmf::ALLOCATOR_PORT),
                (q1, rmf::QSERVER_PORT),
                (q2, rmf::QSERVER_PORT),
            ],
        ),
    );
    let trace = FlowTrace::new();
    let gass = GassStore::new();
    let registry = ExecRegistry::new();
    registry.register("job", |_| 0);
    let alloc = ResourceAllocator::start(
        net.clone(),
        "alloc-host",
        SelectPolicy::LeastLoaded,
        trace.clone(),
    )?;
    alloc.state.register(ResourceInfo {
        name: "cluster A".into(),
        qserver_host: "clusterA-fe".into(),
        cpus: 8,
    });
    alloc.state.register(ResourceInfo {
        name: "cluster B".into(),
        qserver_host: "clusterB-fe".into(),
        cpus: 8,
    });
    let _qa = QServer::start(
        net.clone(),
        "clusterA-fe",
        "cluster A",
        registry.clone(),
        gass.clone(),
        "alloc-host",
        trace.clone(),
    )?;
    let _qb = QServer::start(
        net.clone(),
        "clusterB-fe",
        "cluster B",
        registry,
        gass.clone(),
        "alloc-host",
        trace.clone(),
    )?;
    let gk = Gatekeeper::start(
        net.clone(),
        "gk-host",
        vec!["/CN=user".into()],
        "alloc-host",
        gass,
        trace.clone(),
    )?;
    let addr = gk.addr();
    let job = submit_job(
        &net,
        "user",
        (&addr.0, addr.1),
        "/CN=user",
        "&(executable=job)(count=12)",
    )?;
    wait_job(
        &net,
        "user",
        (&addr.0, addr.1),
        job,
        Duration::from_secs(30),
    )?;
    println!("{}", trace.render());
    Ok(())
}

/// Join a helper thread that itself returns an io::Result.
fn join(t: std::thread::JoinHandle<io::Result<()>>) -> Render {
    t.join().map_err(|_| "helper thread panicked")??;
    Ok(())
}

fn figs34() -> Render {
    let net = VNet::new();
    let rwcp = net.add_site("rwcp", None);
    let dmz = net.add_site("dmz", None);
    let remote = net.add_site("remote", None);
    net.add_host("pa-host", rwcp); // PA: inside
    let inner_ref = net.add_host("inner-host", rwcp);
    net.add_host("outer-host", dmz);
    net.add_host("pb-host", remote); // PB: outside
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
    let inner = InnerServer::start(net.clone(), InnerConfig::new("inner-host"))?;
    let outer = OuterServer::start(
        net.clone(),
        OuterConfig::new("outer-host").with_inner("inner-host", NXPORT),
    )?;
    let env = ProxyEnv::via("outer-host", OUTER_PORT);

    println!("── Figure 3: active connection via the Nexus Proxy ─────────");
    let l = net.bind("pb-host", 7000)?;
    let t = std::thread::spawn(move || -> io::Result<()> {
        // Demo flow: the writer side is joined right after, so these
        // blocking calls cannot outlive the figure.
        let (mut s, _) = l.accept()?; // lint:allow(deadline-io)
        let mut b = [0u8; 1];
        s.read_exact(&mut b) // lint:allow(deadline-io)
    });
    println!("  (1) PA calls NXProxyConnect() instead of connect()");
    let mut pa = nx_proxy_connect(&net, &env, "pa-host", ("pb-host", 7000))?;
    // The counter lands just after the reply PA saw (the server counts a
    // connect once its `ConnectRep` has left): give it a moment.
    let counted = std::time::Instant::now();
    while outer.stats().connects_ok == 0 && counted.elapsed().as_secs() < 1 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    println!(
        "  (2) outer server received the request and connected to PB  [connects_ok = {}]",
        outer.stats().connects_ok
    );
    pa.write_all(b"!")?;
    join(t)?;
    println!("  (3) PB accepted; link established through the outer server [relayed ≥ 1 byte]\n");

    println!("── Figure 4: passive connection via the Nexus Proxy ────────");
    println!("  (1) PA calls NXProxyBind() instead of bind()");
    let listener = nx_proxy_bind(&net, &env, "pa-host")?;
    let adv = listener.advertised.clone();
    println!(
        "  (2) outer server bound rendezvous port {} and listens    [binds = {}]",
        adv.1,
        outer.stats().binds
    );
    let t = std::thread::spawn(move || -> io::Result<()> {
        println!("  (5) PA calls NXProxyAccept() on the returned endpoint");
        let mut s = listener.accept()?; // lint:allow(deadline-io)
        let mut b = [0u8; 1];
        s.read_exact(&mut b) // lint:allow(deadline-io)
    });
    println!("  (3) PB connects to the outer server instead of PA");
    let mut pb = net.dial("pb-host", &adv.0, adv.1)?;
    pb.write_all(b"!")?;
    join(t)?;
    println!(
        "  (4) outer connected to inner via nxport; inner connected to PA [outer relays = {}, inner relays = {}]\n",
        outer.stats().relays_ok,
        inner.stats().relays_ok
    );
    Ok(())
}

fn fig5() -> Render {
    println!("── Figure 5: experimental environment (validated testbed) ──");
    let tb = PaperTestbed::build(FirewallMode::DenyInWithNxport);
    println!("{}", tb.render());
    // Validation: routing + firewall behaviour hold on this data.
    let path = tb
        .topo
        .route(tb.rwcp_sun, tb.etl_sun)
        .ok_or("testbed is not connected")?;
    println!(
        "route rwcp-sun -> etl-sun: {} hops, {} one-way, bottleneck {:.0} B/s",
        path.len(),
        tb.topo.path_latency(&path),
        tb.topo.path_bandwidth(&path)
    );
    Ok(())
}

fn main() -> Render {
    fig1();
    fig2()?;
    figs34()?;
    fig5()
}
