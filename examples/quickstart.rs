//! Quickstart: the whole story in one file.
//!
//! 1. A deny-based firewall blocks an inbound connection.
//! 2. The Nexus Proxy (outer + inner servers) makes the same endpoint
//!    reachable through a single opened port.
//! 3. RMF submits a job from outside the firewall onto an inside
//!    resource.
//!
//! Run with: `cargo run --example quickstart`

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::io::{Read, Write};
use std::time::Duration;
use wacs::prelude::*;

fn main() -> std::io::Result<()> {
    // ---- The world: one firewalled site, one open site -------------
    // The paper's deployment: site rwcp behind its firewall, with the
    // Nexus Proxy's inner server inside and its outer server in the
    // DMZ; the user outside.
    let d = Deployment::paper(["rwcp-sun", "rwcp-alloc", "compas-fe"], ["user"])?;
    let net = d.net.clone();

    // Deny-based inbound, allow-based outbound — with exactly the
    // holes the paper's architecture needs: nxport for the proxy, plus
    // the fixed RMF control ports.
    let host = |name| net.host_ref(name).unwrap();
    let policy = rmf_site_policy(
        "rwcp",
        &[
            (host("rwcp-alloc"), rmf::ALLOCATOR_PORT),
            (host("compas-fe"), rmf::QSERVER_PORT),
            (host("rwcp-inner"), NXPORT),
        ],
    );
    net.reload_policy(net.host_site("rwcp-sun").unwrap(), policy);

    // ---- 1. The firewall problem -----------------------------------
    let listener = net.bind("rwcp-sun", 7777)?;
    match net.dial("user", "rwcp-sun", 7777) {
        Err(e) => println!("[1] direct inbound connect: BLOCKED ({e})"),
        Ok(_) => unreachable!("the firewall should have dropped this"),
    }
    drop(listener);

    // ---- 2. The Nexus Proxy ----------------------------------------
    let env = d.env();

    // The inside server binds via NXProxyBind: it advertises a
    // rendezvous address on the outer server.
    let nx_listener = nx_proxy_bind(&net, &env, "rwcp-sun")?;
    let (adv_host, adv_port) = nx_listener.advertised.clone();
    println!("[2] inside endpoint advertised as {adv_host}:{adv_port}");

    let srv = std::thread::spawn(move || -> std::io::Result<()> {
        let mut s = nx_listener.accept()?; // NXProxyAccept
        let mut buf = [0u8; 5];
        s.read_exact(&mut buf)?;
        s.write_all(b"pong!")?;
        Ok(())
    });
    let mut s = net.dial("user", &adv_host, adv_port)?;
    s.write_all(b"ping!")?;
    let mut buf = [0u8; 5];
    s.read_exact(&mut buf)?;
    println!(
        "[2] relayed round trip: sent \"ping!\", got \"{}\" ({} bytes moved by the outer server)",
        String::from_utf8_lossy(&buf),
        d.outer().stats().relayed_bytes
    );
    srv.join().unwrap()?;

    // ---- 3. RMF: a job from outside, run inside --------------------
    let trace = FlowTrace::new();
    let gass = GassStore::new();
    let registry = ExecRegistry::new();
    registry.register("hello", |ctx: rmf::ExecCtx| {
        ctx.println(format!(
            "hello from process {} on {}",
            ctx.proc_index, ctx.host
        ));
        0
    });
    let alloc = ResourceAllocator::start(net.clone(), "rwcp-alloc", trace.clone())?;
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
        "rwcp-alloc",
        trace.clone(),
    )?;
    let gk = Gatekeeper::start(
        net.clone(),
        "rwcp-outer",
        vec!["/O=Grid/CN=You".into()],
        "rwcp-alloc",
        gass.clone(),
        trace.clone(),
    )?;

    let gk_addr = gk.addr();
    let job = submit_job(
        &net,
        "user",
        (&gk_addr.0, gk_addr.1),
        "/O=Grid/CN=You",
        "&(executable=hello)(count=4)",
    )?;
    let (state, _, stdout_urls) = wait_job(
        &net,
        "user",
        (&gk_addr.0, gk_addr.1),
        job,
        Duration::from_secs(30),
    )?;
    println!("[3] {job} finished: {state:?}");
    for url in &stdout_urls {
        print!("{}", String::from_utf8_lossy(&gass.get_url(url)?));
    }
    println!("\nRMF execution flow (paper Fig. 2):\n{}", trace.render());
    Ok(())
}
