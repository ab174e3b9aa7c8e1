//! End-to-end tests of the full RMF deployment on a firewalled site —
//! the paper's Figure 2 flow, driven over real (guarded loopback)
//! sockets.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::vnet::VNet;
use firewall::Policy;
use rmf::{
    rmf_site_policy, submit_job, wait_job, ExecCtx, ExecRegistry, FlowTrace, GassStore, Gatekeeper,
    JobState, QServer, Record, ResourceAllocator, ResourceInfo, ALLOCATOR_PORT, QSERVER_PORT,
};
use std::time::Duration;

/// A full RMF deployment on a firewalled site:
/// * outside: `user-host`, `gk-host` (gatekeeper);
/// * inside (deny-in firewall): `alloc-host` (allocator),
///   `compas-fe` + `sun-fe` (Q servers), with only the RMF holes.
struct Deployment {
    net: VNet,
    gk: Gatekeeper,
    alloc: ResourceAllocator,
    _qs: Vec<QServer>,
    gass: GassStore,
    trace: FlowTrace,
    registry: ExecRegistry,
}

fn deploy() -> Deployment {
    let net = VNet::new();
    let outside = net.add_site("outside", None);
    let inside = net.add_site("rwcp", None); // policy set after refs known
    net.add_host("user-host", outside);
    net.add_host("gk-host", outside);
    let alloc_ref = net.add_host("alloc-host", inside);
    let compas_ref = net.add_host("compas-fe", inside);
    let sun_ref = net.add_host("sun-fe", inside);
    net.reload_policy(
        inside,
        rmf_site_policy(
            "rwcp",
            &[
                (alloc_ref, ALLOCATOR_PORT),
                (compas_ref, QSERVER_PORT),
                (sun_ref, QSERVER_PORT),
            ],
        ),
    );

    let trace = FlowTrace::new();
    let gass = GassStore::new();
    let registry = ExecRegistry::new();

    let alloc = ResourceAllocator::start(net.clone(), "alloc-host", trace.clone()).unwrap();
    alloc.state.register(ResourceInfo {
        name: "COMPaS".into(),
        qserver_host: "compas-fe".into(),
        cpus: 8,
    });
    alloc.state.register(ResourceInfo {
        name: "RWCP-Sun".into(),
        qserver_host: "sun-fe".into(),
        cpus: 4,
    });

    let qs = vec![
        QServer::start(
            net.clone(),
            "compas-fe",
            "COMPaS",
            registry.clone(),
            gass.clone(),
            "alloc-host",
            trace.clone(),
        )
        .unwrap(),
        QServer::start(
            net.clone(),
            "sun-fe",
            "RWCP-Sun",
            registry.clone(),
            gass.clone(),
            "alloc-host",
            trace.clone(),
        )
        .unwrap(),
    ];

    let gk = Gatekeeper::start(
        net.clone(),
        "gk-host",
        vec!["/O=Grid/CN=Researcher".to_string()],
        "alloc-host",
        gass.clone(),
        trace.clone(),
    )
    .unwrap();

    Deployment {
        net,
        gk,
        alloc,
        _qs: qs,
        gass,
        trace,
        registry,
    }
}

const SUBJECT: &str = "/O=Grid/CN=Researcher";

#[test]
fn full_six_step_flow_across_the_firewall() {
    let d = deploy();
    d.registry.register("hello", |ctx: ExecCtx| {
        ctx.println(format!("hello from {} #{}", ctx.host, ctx.proc_index));
        0
    });
    let gk = d.gk.addr();
    let job = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=hello)(count=10)",
    )
    .unwrap();
    let (state, exit, stdout_urls) = wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        job,
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(state, JobState::Done);
    assert_eq!(exit, 0);
    // Output staged via GASS: 10 lines total across the parts.
    let mut lines = 0;
    for url in &stdout_urls {
        let data = d.gass.get_url(url).unwrap();
        lines += String::from_utf8(data).unwrap().lines().count();
    }
    assert_eq!(lines, 10);

    // Figure 2's six steps occurred in order (first occurrences).
    let steps = d.trace.steps();
    let mut first = Vec::new();
    for s in steps {
        if s >= 1 && !first.contains(&s) {
            first.push(s);
        }
    }
    assert_eq!(first, vec![1, 2, 3, 4, 5, 6], "{}", d.trace.render());
}

#[test]
fn allocation_spans_resources_and_releases_load() {
    let d = deploy();
    d.registry.register("sleepy", |_ctx: ExecCtx| {
        std::thread::sleep(Duration::from_millis(20));
        0
    });
    let gk = d.gk.addr();
    // 10 procs > COMPaS' 8: must span both resources.
    let job = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=sleepy)(count=10)",
    )
    .unwrap();
    wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        job,
        Duration::from_secs(30),
    )
    .unwrap();
    // After completion, Q servers report the load release.
    for _ in 0..400 {
        let a = d.alloc.state.load_of("COMPaS").unwrap();
        let b = d.alloc.state.load_of("RWCP-Sun").unwrap();
        if a == 0 && b == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "load never released: COMPaS={:?} RWCP-Sun={:?}",
        d.alloc.state.load_of("COMPaS"),
        d.alloc.state.load_of("RWCP-Sun")
    );
}

#[test]
fn unauthorized_subject_is_denied() {
    let d = deploy();
    let gk = d.gk.addr();
    let err = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        "/O=Grid/CN=Mallory",
        "&(executable=hello)",
    )
    .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
}

#[test]
fn bad_rsl_is_denied() {
    let d = deploy();
    let gk = d.gk.addr();
    let err = submit_job(&d.net, "user-host", (&gk.0, gk.1), SUBJECT, "(no-amp)").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
}

#[test]
fn unknown_executable_fails_the_job() {
    let d = deploy();
    let gk = d.gk.addr();
    let job = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=no-such-binary)(count=1)",
    )
    .unwrap();
    let (state, _, _) = wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        job,
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(state, JobState::Failed);
}

#[test]
fn over_capacity_request_fails_cleanly() {
    let d = deploy();
    d.registry.register("hello", |_| 0);
    let gk = d.gk.addr();
    let job = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=hello)(count=100)",
    )
    .unwrap();
    let (state, _, _) = wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        job,
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(state, JobState::Failed);
    // The failure's reason reaches the client in the status reply.
    let mut s = d.net.dial("user-host", &gk.0, gk.1).unwrap();
    Record::new("status")
        .with("job", job.0.to_string())
        .write_to(&mut s)
        .unwrap();
    let rep = Record::read_from(&mut s).unwrap().unwrap();
    let detail = rep.get("detail").unwrap_or("");
    assert!(detail.contains("allocation failed"), "{detail}");
}

#[test]
fn stage_in_files_reach_the_processes() {
    let d = deploy();
    d.registry.register("cat", |ctx: ExecCtx| {
        let data = ctx.files.get("input.dat").cloned().unwrap_or_default();
        ctx.write(&data);
        0
    });
    d.gass.put("gk-host", "inputs/d1", b"42 items".to_vec());
    let gk = d.gk.addr();
    let job = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=cat)(count=1)(stage_in=input.dat<gass://gk-host/inputs/d1)",
    )
    .unwrap();
    let (state, _, stdout_urls) = wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        job,
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(state, JobState::Done);
    assert_eq!(d.gass.get_url(&stdout_urls[0]).unwrap(), b"42 items");
}

#[test]
fn firewall_premise_user_cannot_reach_q_server_directly_without_hole() {
    // Rebuild the site WITHOUT the Q-system holes: the Q servers
    // become unreachable from outside — the deployment only works
    // because rmf_site_policy opens exactly those fixed ports.
    let net = VNet::new();
    let outside = net.add_site("outside", None);
    let inside = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    net.add_host("user-host", outside);
    net.add_host("compas-fe", inside);
    let _l = net.bind("compas-fe", QSERVER_PORT).unwrap();
    assert_eq!(
        net.dial("user-host", "compas-fe", QSERVER_PORT)
            .unwrap_err()
            .kind(),
        std::io::ErrorKind::PermissionDenied
    );
}

#[test]
fn policy_exposure_is_minimal() {
    // Three fixed holes, versus a 1000-port Globus 1.1 range.
    let p = rmf_site_policy(
        "rwcp",
        &[(1, ALLOCATOR_PORT), (2, QSERVER_PORT), (3, QSERVER_PORT)],
    );
    assert_eq!(p.inbound_exposure(), 3);
}

#[test]
fn jobs_queue_when_resources_are_busy() {
    // The Q system is a *queuing* system: a second job that cannot be
    // placed immediately waits for the first to release capacity,
    // rather than failing.
    let d = deploy();
    d.registry.register("holder", |_ctx: ExecCtx| {
        std::thread::sleep(Duration::from_millis(150));
        0
    });
    d.registry.register("quick", |_ctx: ExecCtx| 0);
    let gk = d.gk.addr();
    // Occupy all 12 processors.
    let j1 = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=holder)(count=12)",
    )
    .unwrap();
    // Give placement a moment so j2 actually finds everything busy.
    std::thread::sleep(Duration::from_millis(40));
    let j2 = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=quick)(count=8)",
    )
    .unwrap();
    let (s2, _, _) = wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        j2,
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(
        s2,
        JobState::Done,
        "queued job should run after capacity frees"
    );
    let (s1, _, _) = wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        j1,
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(s1, JobState::Done);
}

#[test]
fn explicit_resource_placement() {
    let d = deploy();
    d.registry.register("where", |ctx: ExecCtx| {
        ctx.println(&ctx.host);
        0
    });
    let gk = d.gk.addr();
    let job = submit_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        SUBJECT,
        "&(executable=where)(count=2)(resource=RWCP-Sun)",
    )
    .unwrap();
    let (state, _, stdout_urls) = wait_job(
        &d.net,
        "user-host",
        (&gk.0, gk.1),
        job,
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(state, JobState::Done);
    assert_eq!(stdout_urls.len(), 1);
    let out = String::from_utf8(d.gass.get_url(&stdout_urls[0]).unwrap()).unwrap();
    assert!(out.lines().all(|l| l == "sun-fe"), "{out}");
}

/// The Q client's allocator RPC retries transient transport failures
/// (daemon not up yet) and only then reports a typed timeout.
#[test]
fn allocator_rpc_retry_recovers_from_late_daemon_and_times_out_typed() {
    use nexus_proxy::RetryPolicy;
    use rmf::qsys::QClient;
    use rmf::{JobRequest, RmfError};

    let req = JobRequest {
        executable: "noop".into(),
        count: 2,
        arguments: vec![],
        resources: vec![],
        stage_in: vec![],
        extras: vec![],
    };

    // No allocator at all: every dial fails, the retry budget drains,
    // and the caller gets Timeout carrying the last transport error —
    // not a bare "connection refused" that looks like a daemon verdict.
    let net = VNet::new();
    let site = net.add_site("flat", None);
    net.add_host("user-host", site);
    net.add_host("alloc-host", site);
    let qc = QClient::new(
        net.clone(),
        "user-host",
        "alloc-host",
        GassStore::new(),
        FlowTrace::new(),
    )
    .with_rpc_retry(RetryPolicy::within(
        Duration::from_millis(120),
        Duration::from_millis(5),
    ));
    match qc.allocate(&req) {
        Err(RmfError::Timeout { what, elapsed, .. }) => {
            assert_eq!(what, "allocator query");
            assert!(elapsed >= Duration::from_millis(120));
        }
        other => panic!("expected Timeout, got {other:?}"),
    }

    // Daemon comes up *after* the first attempts: the same call
    // succeeds within the budget instead of failing on attempt one.
    let net2 = net.clone();
    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        let alloc = ResourceAllocator::start(net2, "alloc-host", FlowTrace::new()).unwrap();
        alloc.state.register(ResourceInfo {
            name: "A".into(),
            qserver_host: "a-fe".into(),
            cpus: 4,
        });
        // Keep the daemon alive long enough for the client to land.
        std::thread::sleep(Duration::from_millis(400));
        alloc
    });
    let qc = QClient::new(
        net,
        "user-host",
        "alloc-host",
        GassStore::new(),
        FlowTrace::new(),
    )
    .with_rpc_retry(RetryPolicy::within(
        Duration::from_secs(2),
        Duration::from_millis(5),
    ));
    let allocs = qc.allocate(&req).expect("late daemon should be reached");
    assert_eq!(allocs.iter().map(|a| a.count).sum::<u32>(), 2);
    drop(starter.join().unwrap());
}

/// An allocator that accepts and never answers: the query's reads are
/// bounded by what is left of its budget, so the call ends in a typed
/// `Timeout` within the budget plus one step instead of blocking.
#[test]
fn a_silent_allocator_times_out_within_the_budget() {
    use nexus_proxy::RetryPolicy;
    use rmf::qsys::QClient;
    use rmf::{JobRequest, RmfError};

    let net = VNet::new();
    let site = net.add_site("flat", None);
    net.add_host("user-host", site);
    net.add_host("alloc-host", site);
    let silent = net.bind("alloc-host", ALLOCATOR_PORT).unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = silent.accept() {
            held.push(s);
        }
    });
    let (budget, step) = (Duration::from_millis(300), Duration::from_millis(10));
    let qc = QClient::new(
        net,
        "user-host",
        "alloc-host",
        GassStore::new(),
        FlowTrace::new(),
    )
    .with_rpc_retry(RetryPolicy::within(budget, step));
    let req = JobRequest {
        executable: "noop".into(),
        count: 1,
        arguments: vec![],
        resources: vec![],
        stage_in: vec![],
        extras: vec![],
    };
    // Watchdog: fail instead of hanging if the read is unbounded.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(qc.allocate(&req)));
    let res = rx
        .recv_timeout(budget + Duration::from_secs(5))
        .expect("allocate still blocked on a silent allocator");
    match res {
        Err(RmfError::Timeout { what, elapsed, .. }) => {
            assert_eq!(what, "allocator query");
            assert!(elapsed >= budget, "{elapsed:?}");
            // Scheduler slack on top of budget + step.
            let slack = Duration::from_millis(500);
            assert!(elapsed < budget + step + slack, "{elapsed:?}");
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// Typed refusals: over-capacity is Capacity (never retry), busy is
/// Busy (retry later) — and the daemon's wording reaches the caller.
#[test]
fn allocator_refusals_are_typed() {
    use rmf::qsys::QClient;
    use rmf::{JobRequest, RmfError};

    let d = deploy();
    let qc = QClient::new(
        d.net.clone(),
        "user-host",
        "alloc-host",
        d.gass.clone(),
        d.trace.clone(),
    );
    let mk = |count: u32| JobRequest {
        executable: "noop".into(),
        count,
        arguments: vec![],
        resources: vec![],
        stage_in: vec![],
        extras: vec![],
    };
    // 12 CPUs managed in deploy(); 100 can never fit.
    match qc.allocate(&mk(100)) {
        Err(RmfError::Capacity(detail)) => assert!(detail.contains("permanently"), "{detail}"),
        other => panic!("expected Capacity, got {other:?}"),
    }
    // Fill everything, then one more: transient exhaustion.
    let held = qc.allocate(&mk(12)).unwrap();
    assert_eq!(held.iter().map(|a| a.count).sum::<u32>(), 12);
    match qc.allocate(&mk(1)) {
        Err(RmfError::Busy(detail)) => assert!(detail.contains("resources busy"), "{detail}"),
        other => panic!("expected Busy, got {other:?}"),
    }
    drop(d);
}
