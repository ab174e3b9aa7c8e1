//! Workload `mpi_app`: the paper's application level. Rank 0 runs
//! inside the firewall and reaches the world through the proxy; rank 1
//! runs outside and talks directly.
//!
//! The knapsack cell is compute-dominated, so a relay latency gain
//! should barely move it except through steal round trips (the slave's
//! share of the tree), while a data plane that spins on idle relays
//! takes the core the solver needs: this is the workload where a relay
//! "win" bought with CPU shows as a loss.
//!
//! Cell c is a new channel: an outside process attaches to the inside
//! rank's proxied endpoint and delivers its first message, which is what
//! gridmpi does the first time two ranks talk. (A 16 KiB message was the
//! first choice for c, but at the seed it takes 0.3 ms or 44 ms
//! depending on which delayed-ACK state the relay legs are in, run by
//! run; the traced pass still shows it.)

use crate::cells::{self, Cell, Round, RoundClock, PAYLOAD_VARIANTS};
use crate::gen;
use crate::layers::{self, Snap};
use crate::run::{self, Config, Run, ROUNDS, SETUP_REPEATS};
use crate::stats::{self, Windowed};
use crate::topo::{self, Deployment, Server, INSIDE, OUTER, OUTSIDE, SINK_PORT};
use crate::trace::Tracer;
use firewall::vnet::VNet;
use firewall::OUTER_PORT;
use gridmpi::{run_world, Comm, RankSpec};
use knapsack::{par_run, seq_solve, Instance, ParParams, SolveMode};
use nexus::NexusContext;
use std::io;
use std::net::TcpStream;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SMALL: usize = 1024;
const MID: usize = 16 * 1024;
/// Round trips before rank 0 reports the world ready.
const WARM_UP_ROUND_TRIPS: usize = 200;
/// `Instance::no_pruning(KNAPSACK_N)`: chosen once so that the solves
/// of a run take about a third of it on the box this was written on
/// (0.4 s each), then frozen, so parent and change traverse the same
/// tree.
const KNAPSACK_N: usize = 26;
/// New channels per round. A count, not a window: each one leaves three
/// connections in TIME_WAIT (see `churn`).
const CHANNELS_PER_ROUND: u64 = 20;

/// The references the CPU-bound cells are scaled by (`cells::speed`),
/// with their nominals on the box this was written on, pinned, on a
/// quiet day: a 64 B echo straight over the guarded network for the
/// ping-pong, `seq_solve` on a small tree by rank 0 alone for the
/// knapsack.
const DIRECT_64B_NOMINAL_US: f64 = 4.3;
const ALONE_N: usize = 25;
const ALONE_NOMINAL_US_PER_MNODE: f64 = 1785.0;

const TAG_PING: i32 = 100;
const TAG_PONG: i32 = 101;
const TAG_SOLVE: i32 = 102;
const TAG_STOP: i32 = 103;

/// What the ranks are to do once the world is up.
struct Plan {
    net: VNet,
    payloads: [Vec<u8>; 2],
    echo_payloads: Vec<Vec<u8>>,
    /// Rank 0's connection to the outside echo sink, no relay between.
    direct: Mutex<TcpStream>,
    /// `None`: warm up, report ready, stop (a set-up repetition).
    windows: Option<Windows>,
    traced: bool,
    ready: Mutex<Sender<Instant>>,
    inst: Instance,
    groups: Vec<String>,
}

/// Each round: a reference echo window, a window of 1 KiB round trips,
/// a count of new channels, a reference solve, one solve by both ranks.
/// The traced pass has one round, preceded by an untraced 1 KiB window
/// and followed by a window of 16 KiB round trips.
#[derive(Clone, Copy)]
struct Windows {
    rounds: u32,
    reference: Duration,
    plain_small: Duration,
    small: Duration,
    mid: Duration,
}

struct Solve {
    us_per_mnode: f64,
    slave_share: f64,
    steals: u64,
    correct: bool,
}

#[derive(Default)]
struct Rank0 {
    plain_small: Cell,
    small: Cell,
    mid: Cell,
    channel: Cell,
    direct: Cell,
    /// us per Mnode of each reference solve, unscaled.
    alone: Vec<f64>,
    /// us per Mnode of each `par_run`, at nominal speed.
    solves_scaled: Vec<f64>,
    solves: Vec<Solve>,
    correct: bool,
    resends: u64,
    duplicates_dropped: u64,
    tracer: Option<Tracer>,
}

fn ping_pong(comm: &Comm, payload: &[u8], op: u64, tr: &mut Tracer) -> io::Result<bool> {
    let root = tr.begin("mpi.ping_pong", op, None);
    let span = tr.begin("gridmpi.send", op, root);
    comm.send(1, TAG_PING, payload)?;
    tr.end(span);
    let span = tr.begin("gridmpi.recv", op, root);
    let (_, _, back) = comm.recv(Some(1), Some(TAG_PONG))?;
    tr.end(span);
    tr.end(root);
    Ok(back == payload)
}

fn ping_pong_round(comm: &Comm, payload: &[u8], window: Duration, tr: &mut Tracer) -> Round {
    let mut samples = Vec::new();
    let mut attempted = 0u64;
    let clock = RoundClock::start(window);
    while !clock.over() {
        let started = Instant::now();
        let same = ping_pong(comm, payload, attempted, tr);
        attempted += 1;
        match same {
            Ok(true) => samples.push(started.elapsed().as_nanos() as f64 / 1e3),
            Ok(false) => {}
            Err(_) => break,
        }
    }
    clock.latencies(samples, attempted)
}

/// An outside process attaches to the inside endpoint advertised at
/// `adv` and sends one message, which `recv` waits for; timed from the
/// attach call to the message's arrival.
fn channel_round(
    outside: &NexusContext,
    adv: (&str, u16),
    recv: impl Fn() -> io::Result<Option<Vec<u8>>>,
    payload: &[u8],
    tr: &mut Tracer,
) -> Round {
    let mut samples = Vec::new();
    let clock = RoundClock::start(Duration::ZERO);
    for op in 0..CHANNELS_PER_ROUND {
        let started = Instant::now();
        let root = tr.begin("mpi.new_channel", op, None);
        let span = tr.begin("nexus.attach", op, root);
        let sp = outside.attach(adv);
        tr.end(span);
        let span = tr.begin("nexus.first_message", op, root);
        let arrived = sp.and_then(|sp| {
            sp.send(payload)?;
            recv()
        });
        tr.end(span);
        tr.end(root);
        if matches!(arrived, Ok(Some(got)) if got == payload) {
            samples.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    clock.latencies(samples, CHANNELS_PER_ROUND)
}

fn solve(comm: &Comm, plan: &Plan, op: u64, tr: &mut Tracer) -> io::Result<Solve> {
    comm.send(1, TAG_SOLVE, &[])?;
    let span = tr.begin("knapsack.par_run", op, None);
    let started = Instant::now();
    let result = par_run(comm, &plan.inst, &ParParams::default(), &plan.groups)?;
    let us = started.elapsed().as_nanos() as f64 / 1e3;
    tr.end(span);
    let result = result.ok_or_else(|| io::Error::other("rank 0 is the master"))?;
    let total = result.total_traversed();
    let slave = result.ranks.iter().find(|r| r.rank == 1);
    Ok(Solve {
        us_per_mnode: us / (total as f64 / 1e6),
        slave_share: slave.map_or(0.0, |r| r.traversed as f64 / total as f64),
        steals: slave.map_or(0, |r| r.steals),
        correct: result.best == plan.inst.total_profit()
            && total == Instance::full_tree_nodes(plan.inst.n()),
    })
}

fn rank0(comm: &Comm, plan: &Plan) -> io::Result<Rank0> {
    let mut quiet = Tracer::new(false);
    let [small, mid] = &plan.payloads;
    for i in 0..WARM_UP_ROUND_TRIPS {
        if !ping_pong(comm, small, i as u64, &mut quiet)? {
            return Err(io::Error::other("payload mismatch during warm-up"));
        }
    }
    let inside = NexusContext::via_proxy(plan.net.clone(), INSIDE, (OUTER, OUTER_PORT));
    let outside = NexusContext::direct(plan.net.clone(), OUTSIDE);
    let ep = inside.endpoint()?;
    let recv = || ep.recv_timeout(Duration::from_secs(10));
    if channel_round(&outside, ep.advertised(), recv, small, &mut quiet).failed > 0 {
        return Err(io::Error::other("first message lost during warm-up"));
    }
    {
        let ready = plan.ready.lock().unwrap_or_else(|e| e.into_inner());
        let _ = ready.send(Instant::now());
    }

    let mut got = Rank0 {
        correct: true,
        ..Rank0::default()
    };
    if let Some(w) = plan.windows {
        let mut direct = plan.direct.lock().unwrap_or_else(|e| e.into_inner());
        let echoes = &plan.echo_payloads;
        let alone = Instance::no_pruning(ALONE_N);
        if plan.traced {
            got.plain_small
                .add(ping_pong_round(comm, small, w.plain_small, &mut quiet));
        }
        let mut tr = Tracer::new(plan.traced);
        for round in 0..w.rounds {
            let r = cells::echo_round("direct-64B", &mut direct, echoes, w.reference, &mut quiet);
            let at = cells::speed(DIRECT_64B_NOMINAL_US, &r);
            got.direct.add(r);
            got.small
                .add_scaled(ping_pong_round(comm, small, w.small, &mut tr), at);

            // Set by the daemons' 1 ms accept polls: not scaled.
            got.channel.add(channel_round(
                &outside,
                ep.advertised(),
                recv,
                small,
                &mut tr,
            ));

            let started = Instant::now();
            let (best, _) = seq_solve(&alone, SolveMode::Exhaustive);
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            let alone_us = us / (Instance::full_tree_nodes(ALONE_N) as f64 / 1e6);
            got.correct &= best == alone.total_profit();
            got.alone.push(alone_us);
            let solved = solve(comm, plan, u64::from(round), &mut tr)?;
            got.solves_scaled
                .push(solved.us_per_mnode * ALONE_NOMINAL_US_PER_MNODE / alone_us);
            got.solves.push(solved);
        }
        if plan.traced {
            got.mid.add(ping_pong_round(comm, mid, w.mid, &mut tr));
        }
        got.tracer = Some(tr);
    }
    comm.send(1, TAG_STOP, &[])?;
    got.resends = comm.resends();
    got.duplicates_dropped = comm.duplicates_dropped();
    Ok(got)
}

fn rank1(comm: &Comm, plan: &Plan) -> io::Result<()> {
    loop {
        let (_, tag, payload) = comm.recv(Some(0), None)?;
        match tag {
            TAG_PING => comm.send(0, TAG_PONG, &payload)?,
            TAG_SOLVE => {
                par_run(comm, &plan.inst, &ParParams::default(), &plan.groups)?;
            }
            _ => return Ok(()),
        }
    }
}

/// A deployment with a two-rank world that has run on it.
struct World {
    // Dropped in this order: the sink first, then the daemons.
    _outside: Server,
    dep: Deployment,
    before: Snap,
    got: Rank0,
    /// Entry to rank 0 reporting the world ready.
    setup_s: f64,
}

/// Bring up a deployment and a two-rank world on it and run `windows`
/// (or only the warm-up).
fn world(cfg: &Config, windows: Option<Windows>) -> io::Result<World> {
    let entered = Instant::now();
    let mut dep = Deployment::start(false)?;
    let outside = Server::outside(&dep.net, SINK_PORT, true, topo::echo_handler)?;
    dep.mark_baseline();
    let before = Snap::take(&dep);
    let (ready, readied) = mpsc::channel();
    let plan = Arc::new(Plan {
        net: dep.net.clone(),
        payloads: [
            gen::payload(cfg.seed, "mpi-1KiB", SMALL),
            gen::payload(cfg.seed, "mpi-16KiB", MID),
        ],
        echo_payloads: (0..PAYLOAD_VARIANTS)
            .map(|i| gen::payload(cfg.seed, &format!("mpi-direct-{i}"), 64))
            .collect(),
        direct: Mutex::new(dep.dial_direct(SINK_PORT)?),
        windows,
        traced: cfg.traced,
        ready: Mutex::new(ready),
        inst: Instance::no_pruning(KNAPSACK_N),
        groups: vec!["rwcp".to_string(), "etl".to_string()],
    });
    let specs = vec![
        RankSpec::new(NexusContext::via_proxy(
            dep.net.clone(),
            INSIDE,
            (OUTER, OUTER_PORT),
        )),
        RankSpec::new(NexusContext::direct(dep.net.clone(), OUTSIDE)),
    ];
    let mut results = run_world(specs, move |comm| {
        if comm.rank() == 0 {
            rank0(comm, &plan).map(Some)
        } else {
            rank1(comm, &plan).map(|()| None)
        }
    })?;
    let slave = results
        .pop()
        .ok_or_else(|| io::Error::other("rank 1 is missing"))?;
    slave?;
    let master = results
        .pop()
        .ok_or_else(|| io::Error::other("rank 0 is missing"))??;
    let got = master.ok_or_else(|| io::Error::other("rank 0 returned nothing"))?;
    let ready_at = readied
        .try_recv()
        .map_err(|_| io::Error::other("rank 0 never reported ready"))?;
    Ok(World {
        _outside: outside,
        dep,
        before,
        got,
        setup_s: ready_at.duration_since(entered).as_secs_f64(),
    })
}

pub fn run(cfg: &Config) -> io::Result<Run> {
    let mut run = Run::new();
    // The solves take the rest of the run: fixed trees, not windows.
    let windows = if cfg.traced {
        Windows {
            rounds: 1,
            reference: cfg.window(0.02),
            plain_small: cfg.window(0.06),
            small: cfg.window(0.10),
            mid: cfg.window(0.08),
        }
    } else {
        Windows {
            rounds: ROUNDS,
            reference: cfg.round(0.05),
            plain_small: Duration::ZERO,
            small: cfg.round(0.40),
            mid: Duration::ZERO,
        }
    };
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        setups.push(world(cfg, None)?.setup_s);
    }
    let World {
        _outside,
        dep,
        before,
        got,
        setup_s,
    } = world(cfg, Some(windows))?;
    setups.push(setup_s);
    let out = &mut run.out;
    out.set_windowed("setup_s", Windowed::of(&setups, setups.len()));

    let (a, c) = (got.small, got.channel);
    out.cell("direct-64B (reference, unscaled)", &got.direct);
    out.cell("ping_pong-1KiB", &a);
    out.cell("new_channel", &c);
    out.check(got.correct, "knapsack alone: optimum");
    for s in &got.solves {
        out.check(s.correct, "knapsack: optimum and node count");
    }
    let raw: Vec<f64> = got.solves.iter().map(|s| s.us_per_mnode).collect();
    let b = Windowed::of(&got.solves_scaled, got.solves.len());
    out.notes.push(format!(
        "cell knapsack n={KNAPSACK_N}: {:.3} us/Mnode (spread {:.3}, {:.3} Mnodes/s, {} solves) \
         unscaled {:.1?}; reference alone n={ALONE_N} {:.1?}",
        b.value,
        b.iqr,
        1e6 / b.value,
        raw.len(),
        raw,
        got.alone,
    ));

    if !cfg.traced {
        out.notes.push(format!(
            "roles: mpi_rtt_p50_us = op_a_us, knapsack_Mnodes_per_s = 1e6/op_b_us = {:.3}, \
             new channel to first message = op_c_us",
            1e6 / b.value
        ));
        out.roles(a.us_per_op(), b, c.us_per_op(), a.cpu_us_per_op());
    } else {
        let plain = got.plain_small;
        out.cell("ping_pong-1KiB (untraced)", &plain);
        out.cell("ping_pong-16KiB", &got.mid);
        let tracer = got.tracer.unwrap_or_else(|| Tracer::new(true));
        out.set(
            "gridmpi.send_call_p50_us",
            stats::percentile(&tracer.durations_us("gridmpi.send"), 0.5),
        );
        out.set("gridmpi.resends", got.resends as f64);
        out.set("gridmpi.duplicates_dropped", got.duplicates_dropped as f64);
        let shares: Vec<f64> = got.solves.iter().map(|s| s.slave_share).collect();
        out.set("knapsack.slave_share", stats::median(&shares));
        let steals: Vec<f64> = got.solves.iter().map(|s| s.steals as f64).collect();
        out.set("knapsack.steals", stats::median(&steals));
        out.set(
            "bench.trace_overhead_share",
            run::trace_overhead(plain.value(), a.value()),
        );
        let delivered = (plain.attempted + a.attempted) * 2 * SMALL as u64
            + got.mid.attempted * 2 * MID as u64
            + c.attempted * SMALL as u64;
        layers::all(&dep, &before, delivered, cfg, out)?;
        // Two ranks against twice what one thread does alone.
        let seq = out.get("knapsack.seq_Mnodes_per_s");
        let par = 1e6 / stats::median(&raw);
        out.set(
            "knapsack.par_efficiency",
            par / (2.0 * seq).max(f64::MIN_POSITIVE),
        );
        run.tracer = tracer;
    }

    run::leak_gate(&dep, &mut run.out);
    Ok(run)
}
