//! `proxy_bench` — the committed perf-trajectory harness for the relay
//! stack's recovery and scale-out behaviour. (Real-path latency,
//! throughput and connection churn are measured by the gated benchmark
//! in `benchmark/`.)
//!
//! Three named scenarios:
//!
//! | scenario | shape |
//! |---|---|
//! | `chaos` | schema v2: the `wacs-chaos` suite runs one real-path cell per fault class (RST, stall, throttle, blackhole, delayed FIN, split/merge, rolling outer restarts, inner kill) and reports measured recovery-time p50/p95/p99 per cell |
//! | `shard_scaling` | virtual-time (netsim) fan-in cells over a sharded outer fleet: the same cell workload at 1/2/4 shards (Table 2's fan-in shape, relay service queues per shard), plus a kill-one-shard chaos cell that must finish with zero lost sequence numbers |
//! | `stripe_scaling` | virtual-time striped bulk transfer over the fleet: one multi-megabyte staging payload a single relay cannot saturate, moved at 1/2/4/8 parallel stripe lanes (GridFTP-style), plus a 1%-loss WAN cell and a kill-one-stripe chaos cell that must reassemble byte-exactly |
//!
//! Seeds are fixed, payloads derive from [`netsim::SimRng`], and each
//! run emits a schema-versioned `BENCH_<scenario>.json` (integer-only,
//! via `wacs_obs::json`) with p50/p95/p99 per cell of its `modes`
//! object, plus the cell's counters from its `wacs-obs` registry.
//! Absolute numbers reflect the machine that ran it; the committed
//! files give every future change a visible perf trajectory in git.
//!
//! Usage:
//!   proxy_bench [--scenario NAME|all] [--smoke] [--out DIR]
//!   proxy_bench --check FILE...     # validate existing BENCH files
//!   proxy_bench --check --against-git [--allow-regression] FILE...
//!       # additionally diff per-mode p99_ns against the version of
//!       # each file committed at git HEAD; fail if one regressed by
//!       # more than 20% (--allow-regression downgrades to a warning)

use netsim::prelude::*;
use nexus_proxy::sim::{
    stripe_cell, NxClient, NxEvent, NxHandled, RelayModel, SimOuterServer, SimProxyEnv, StripeCell,
    StripeSenderActor, StripeSinkActor,
};
use nexus_proxy::{ShardStats, StripePlan, StripeStats};
use std::io;
use std::sync::Arc;
use std::time::Instant;
use wacs_chaos::{CellOutcome, ChaosSuite, FaultClass, SuiteConfig};
use wacs_obs::json::JsonWriter;
use wacs_obs::{Histogram, Registry};
use wacs_sync::Mutex;

/// Bumped whenever the emitted JSON shape changes.
const SCHEMA_VERSION: u64 = 1;

/// The chaos document's own schema: v2 replaced the seeded-kill bulk
/// run with per-fault-class recovery-time cells from `wacs-chaos`.
const CHAOS_SCHEMA_VERSION: u64 = 2;

const SCENARIOS: &[&str] = &["chaos", "shard_scaling", "stripe_scaling"];

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("proxy_bench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> io::Result<()> {
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let against_git = args.iter().any(|a| a == "--against-git");
        let allow_regression = args.iter().any(|a| a == "--allow-regression");
        let files: Vec<&String> = args[pos + 1..]
            .iter()
            .filter(|a| !a.starts_with("--"))
            .collect();
        if files.is_empty() {
            return Err(io::Error::other("--check requires at least one file"));
        }
        let mut regressed = false;
        for f in files {
            check_file(f)?;
            if against_git {
                regressed |= check_against_git(f, allow_regression)?;
            }
            println!("ok: {f}");
        }
        if regressed {
            return Err(io::Error::other(format!(
                "p99 regressed by more than {P99_REGRESSION_PCT}% vs the committed \
                 baseline; investigate, or re-run with --allow-regression to \
                 accept the new trajectory"
            )));
        }
        return Ok(());
    }

    let smoke = args.iter().any(|a| a == "--smoke");
    let scenario = arg_value(args, "--scenario").unwrap_or("all");
    let out_dir = arg_value(args, "--out").unwrap_or(".");
    let wanted: Vec<&str> = if scenario == "all" {
        SCENARIOS.to_vec()
    } else if SCENARIOS.contains(&scenario) {
        vec![scenario]
    } else {
        return Err(io::Error::other(format!(
            "unknown scenario {scenario:?}; expected one of {SCENARIOS:?} or \"all\""
        )));
    };

    std::fs::create_dir_all(out_dir)?;
    for name in wanted {
        let t0 = Instant::now();
        let json = run_scenario(name, smoke)?;
        validate(&json, name).map_err(io::Error::other)?;
        let path = format!("{out_dir}/BENCH_{name}.json");
        std::fs::write(&path, format!("{json}\n"))?;
        println!("{name}: wrote {path} ({:.1}s)", t0.elapsed().as_secs_f64());
    }
    Ok(())
}

fn arg_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

// ---------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------

fn run_scenario(name: &str, smoke: bool) -> io::Result<String> {
    match name {
        "chaos" => chaos_scenario(smoke),
        "shard_scaling" => shard_scaling(smoke),
        "stripe_scaling" => stripe_scaling(smoke),
        other => Err(io::Error::other(format!("no such scenario: {other}"))),
    }
}

fn percentiles(h: &Histogram) -> (u64, u64, u64) {
    (
        h.quantile(0.50).unwrap_or(0),
        h.quantile(0.95).unwrap_or(0),
        h.quantile(0.99).unwrap_or(0),
    )
}

/// Chaos scenario, schema v2: the `wacs-chaos` suite runs one cell
/// per fault class against the real-socket proxy stack — six
/// socket-level interposer faults (mid-stream RST, partial-write
/// stall, byte-rate throttle, connect blackhole, delayed FIN,
/// split/merged writes) plus rolling restarts of the two-shard outer
/// fleet mid-striped-transfer and an inner-daemon kill under live
/// relays. Each cell reports its measured recovery times as the
/// mode's top-level p50/p95/p99. That placement is deliberate: the
/// `--check --against-git` guard walks per-mode top-level `p99_ns`
/// fields by name, so committed recovery-time objectives get the same
/// 20% regression budget as data-plane latency.
///
/// The suite's deterministic drill snapshot (fault decisions, op
/// counts, invariant verdicts — the part ci.sh diffs byte-for-byte
/// across same-seed runs) is embedded under `"drill"` for the record.
fn chaos_scenario(smoke: bool) -> io::Result<String> {
    let seed = 0xc405;
    let suite = ChaosSuite::new(if smoke {
        SuiteConfig::smoke(seed)
    } else {
        SuiteConfig::full(seed)
    });
    let cells = suite.run_all();
    for c in &cells {
        eprintln!(
            "  {}: {} ops / {} attempts, {} faults, {} recoveries, rto p99 {} ns",
            c.class.name(),
            c.ops,
            c.attempts,
            c.faults,
            c.recoveries,
            c.p99_ns
        );
        if !c.completed {
            return Err(io::Error::other(format!(
                "chaos cell {} did not complete",
                c.class.name()
            )));
        }
    }
    if !suite.ledger().ok() {
        return Err(io::Error::other(format!(
            "chaos invariant violations: {}",
            suite.ledger().violations().join("; ")
        )));
    }

    let cfg = suite.config();
    let mut config = JsonWriter::object();
    config
        .field_u64("ops", cfg.ops)
        .field_u64("payload_bytes", cfg.payload as u64)
        .field_u64("stripe_payload_bytes", cfg.stripe_payload as u64)
        .field_u64("lane_rate_bps", cfg.lane_rate)
        .field_u64("cells", cells.len() as u64);
    let mut modes = JsonWriter::object();
    for c in &cells {
        modes.field_raw(c.class.name(), &chaos_cell_json(c));
    }
    let mut w = JsonWriter::object();
    w.field_u64("schema_version", CHAOS_SCHEMA_VERSION)
        .field_str("scenario", "chaos")
        .field_u64("seed", seed)
        .field_u64("smoke", u64::from(smoke))
        .field_raw("config", &config.finish())
        .field_raw("modes", &modes.finish())
        .field_raw("drill", &suite.drill_snapshot().to_json());
    Ok(w.finish())
}

/// One chaos cell as a mode object. Recovery percentiles sit at the
/// top level so `mode_p99s` (the p99 guard's parser) picks them up.
fn chaos_cell_json(c: &CellOutcome) -> String {
    let mut w = JsonWriter::object();
    w.field_u64("p50_ns", c.p50_ns)
        .field_u64("p95_ns", c.p95_ns)
        .field_u64("p99_ns", c.p99_ns)
        .field_u64("ops", c.ops)
        .field_u64("attempts", c.attempts)
        .field_u64("faults_injected", c.faults)
        .field_u64("recoveries", c.recoveries)
        .field_u64("bytes", c.bytes)
        .field_u64("completed", u64::from(c.completed))
        .field_u64("payload_ok", u64::from(c.payload_ok))
        .field_u64("leaked_relays", c.leaked_relays)
        .field_u64("leaked_admission", c.leaked_admission);
    w.finish()
}

// ---------------------------------------------------------------------
// shard_scaling: virtual-time fan-in cells over a sharded outer fleet.
// ---------------------------------------------------------------------
//
// This scenario runs on the netsim virtual clock, not wall time: a
// relay shard is one select-loop process, so each shard serializes its
// messages through one service queue (`RelayModel`). Fan-in cells
// (one bound sink + one sender each) HRW-distribute across the fleet,
// so the same workload at 1/2/4 shards measures how the fleet divides
// the relay service bottleneck — the Table 2 shape, per shard count.
// The `killshard` cell reuses the netsim fault layer to crash the
// shard serving cell 0 mid-run; stop-and-wait sequence numbers with
// exactly-once accept at the sink prove the breaker-driven failover
// loses nothing.

/// Control port of every sim shard (same port, distinct hosts).
const SHARD_CTRL: u16 = 4097;

/// App-level poll timer token for the cell senders.
const CELL_POLL: u64 = 3;

#[derive(Default)]
struct CellState {
    advertised: Option<(NodeId, u16)>,
    received: u64,
    done_at_ns: Option<u64>,
}

type CellRef = Arc<Mutex<CellState>>;

/// Fleet-bound sink of one fan-in cell: counts relayed messages,
/// records per-message relay latency, and stamps the virtual
/// completion time. In echo mode (the kill cell) it accepts sequence
/// numbers exactly once (expected-next rule) and echoes every one.
struct CellSink {
    nx: NxClient,
    cell: CellRef,
    expect: u64,
    echo: bool,
    hist: Histogram,
}

impl CellSink {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.cell.lock().advertised = Some(advertised);
            }
            NxHandled::Event(NxEvent::BindLost) => {
                self.cell.lock().advertised = None;
            }
            NxHandled::Data(d) => {
                let flow = d.flow;
                self.hist.record(ctx.now().since(d.sent_at).nanos());
                if self.echo {
                    let seq = d.expect::<u64>();
                    {
                        let mut c = self.cell.lock();
                        if seq == c.received {
                            c.received += 1;
                            if c.received == self.expect {
                                c.done_at_ns = Some(ctx.now().nanos());
                            }
                        }
                    }
                    let _ = ctx.send(flow, 64, seq);
                } else {
                    let mut c = self.cell.lock();
                    c.received += 1;
                    if c.received == self.expect {
                        c.done_at_ns = Some(ctx.now().nanos());
                    }
                }
            }
            _ => {}
        }
    }
}

impl Actor for CellSink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(adv) = self.nx.bind(ctx) {
            self.cell.lock().advertised = Some(adv);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: netsim::prelude::Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// Throughput sender: once the cell's sink is bound, connect and blast
/// every message at once — the shard's relay queue serializes them.
struct CellBlaster {
    nx: NxClient,
    cell: CellRef,
    start_at: SimDuration,
    msgs: u64,
    msg_bytes: u64,
}

impl CellBlaster {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                for _ in 0..self.msgs {
                    let _ = ctx.send(flow, self.msg_bytes, ());
                }
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                ctx.set_timer(SimDuration::from_millis(10), CELL_POLL);
            }
            _ => {}
        }
    }
}

impl Actor for CellBlaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_at, CELL_POLL);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
            return;
        }
        if token == CELL_POLL {
            let adv = self.cell.lock().advertised;
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 11),
                None => ctx.set_timer(SimDuration::from_millis(10), CELL_POLL),
            }
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: netsim::prelude::Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// Chaos-cell sender: stop-and-wait sequence numbers, each echoed by
/// the sink before the next goes out. A torn connection (the shard
/// crash) re-dials the current advertised address and retransmits the
/// unacknowledged number; the sink's exactly-once accept absorbs the
/// duplicates.
struct CellSeqSender {
    nx: NxClient,
    cell: CellRef,
    start_at: SimDuration,
    msgs: u64,
    msg_bytes: u64,
    next: u64,
    flow: Option<FlowId>,
}

impl CellSeqSender {
    fn poll_soon(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(20), CELL_POLL);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.flow = Some(flow);
                let _ = ctx.send(flow, self.msg_bytes, self.next);
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                self.poll_soon(ctx);
            }
            NxHandled::Data(d) => {
                let seq = d.expect::<u64>();
                if seq == self.next {
                    self.next += 1;
                    if self.next < self.msgs {
                        if let Some(f) = self.flow {
                            let _ = ctx.send(f, self.msg_bytes, self.next);
                        }
                    }
                }
            }
            NxHandled::Flow(FlowEvent::Closed { flow, .. }) if Some(flow) == self.flow => {
                self.flow = None;
                if self.next < self.msgs {
                    self.poll_soon(ctx);
                }
            }
            _ => {}
        }
    }
}

impl Actor for CellSeqSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_at, CELL_POLL);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
            return;
        }
        if token == CELL_POLL && self.flow.is_none() && self.next < self.msgs {
            let adv = self.cell.lock().advertised;
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 11),
                None => self.poll_soon(ctx),
            }
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: netsim::prelude::Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// Per-cell measurement record for `shard_scaling`.
struct ShardCellStats {
    elapsed_ns: u64,
    bytes: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    shards: u64,
    cells: u64,
    messages: u64,
    completed: u64,
    killed: u64,
    binds_owned: u64,
    redirects_sent: u64,
    redirects_followed: u64,
    failovers: u64,
    map_syncs: u64,
}

impl ShardCellStats {
    fn bytes_per_sec(&self) -> u64 {
        ((u128::from(self.bytes) * 1_000_000_000) / u128::from(self.elapsed_ns.max(1))) as u64
    }

    fn to_json(&self) -> String {
        let mut obs = JsonWriter::object();
        obs.field_u64("binds_owned", self.binds_owned)
            .field_u64("redirects_sent", self.redirects_sent)
            .field_u64("redirects_followed", self.redirects_followed)
            .field_u64("failovers", self.failovers)
            .field_u64("map_syncs", self.map_syncs);
        let mut w = JsonWriter::object();
        w.field_u64("elapsed_ns", self.elapsed_ns)
            .field_u64("bytes", self.bytes)
            .field_u64("bytes_per_sec", self.bytes_per_sec())
            .field_u64("p50_ns", self.p50_ns)
            .field_u64("p95_ns", self.p95_ns)
            .field_u64("p99_ns", self.p99_ns)
            .field_u64("shards", self.shards)
            .field_u64("cells", self.cells)
            .field_u64("messages", self.messages)
            .field_u64("completed", self.completed)
            .field_u64("killed", self.killed)
            .field_raw("obs", &obs.finish());
        w.finish()
    }
}

/// One shard-count cell run in virtual time. `kill` runs the chaos
/// variant: stop-and-wait sequence traffic, and the shard serving
/// cell 0 is crashed mid-run via the netsim fault layer.
fn shard_cell(
    seed: u64,
    shards: usize,
    cells: u64,
    msgs: u64,
    msg_bytes: u64,
    kill: bool,
) -> io::Result<ShardCellStats> {
    let start_at = SimDuration::from_millis(300);
    let mut topo = Topology::new();
    let site = topo.add_site("bench", None);
    let sw = topo.add_switch("sw", site);
    let shard_hosts: Vec<NodeId> = (0..shards)
        .map(|i| topo.add_host(format!("shard{i}"), site))
        .collect();
    let srv_hosts: Vec<NodeId> = (0..cells)
        .map(|i| topo.add_host(format!("srv{i}"), site))
        .collect();
    let snd_hosts: Vec<NodeId> = (0..cells)
        .map(|i| topo.add_host(format!("snd{i}"), site))
        .collect();
    let lan = 6.5e6;
    for h in shard_hosts.iter().chain(&srv_hosts).chain(&snd_hosts) {
        topo.add_link(*h, sw, SimDuration::from_micros(100), lan);
    }
    let members: Vec<(NodeId, u16)> = shard_hosts.iter().map(|h| (*h, SHARD_CTRL)).collect();

    let registry = Registry::new();
    let hist = registry.histogram("bench.shard.relay_ns");
    let mut sim = Simulator::new(topo, NetConfig::default(), seed);
    let shard_ids: Vec<ActorId> = (0..shards)
        .map(|i| {
            sim.spawn(
                shard_hosts[i],
                Box::new(
                    SimOuterServer::new(SHARD_CTRL, None, RelayModel::default())
                        .with_fleet(members.clone(), i)
                        .with_obs(&registry),
                ),
            )
        })
        .collect();
    let cell_refs: Vec<CellRef> = (0..cells).map(|_| CellRef::default()).collect();
    for i in 0..cells as usize {
        sim.spawn(
            srv_hosts[i],
            Box::new(CellSink {
                nx: NxClient::new(SimProxyEnv::direct())
                    .with_fleet(members.clone())
                    .with_obs(&registry),
                cell: cell_refs[i].clone(),
                expect: msgs,
                echo: kill,
                hist: hist.clone(),
            }),
        );
        if kill {
            sim.spawn(
                snd_hosts[i],
                Box::new(CellSeqSender {
                    nx: NxClient::new(SimProxyEnv::direct()),
                    cell: cell_refs[i].clone(),
                    start_at,
                    msgs,
                    msg_bytes,
                    next: 0,
                    flow: None,
                }),
            );
        } else {
            sim.spawn(
                snd_hosts[i],
                Box::new(CellBlaster {
                    nx: NxClient::new(SimProxyEnv::direct()),
                    cell: cell_refs[i].clone(),
                    start_at,
                    msgs,
                    msg_bytes,
                }),
            );
        }
    }

    let killed = if kill {
        // Let the streams get going, then crash whichever shard is
        // serving cell 0's bind (discovered mid-run, like an operator
        // losing a random DMZ box).
        let crash_at = start_at + SimDuration::from_millis(25 * msgs);
        sim.run_until(SimTime(crash_at.nanos()));
        let serving = cell_refs[0]
            .lock()
            .advertised
            .ok_or_else(|| io::Error::other("cell 0 did not bind before the chaos point"))?
            .0;
        let victim = shard_hosts
            .iter()
            .position(|h| *h == serving)
            .ok_or_else(|| io::Error::other("advertised host is not a shard"))?;
        sim.install_faults(
            FaultPlan::new(seed).crash(shard_ids[victim], SimDuration::from_millis(1)),
        );
        1
    } else {
        0
    };
    sim.run_until(SimTime(SimDuration::from_secs(600).nanos()));

    let done: Vec<u64> = cell_refs
        .iter()
        .filter_map(|c| c.lock().done_at_ns)
        .collect();
    let completed = done.len() as u64;
    if completed != cells {
        return Err(io::Error::other(format!(
            "shard_scaling: only {completed}/{cells} cells completed (shards={shards}, kill={kill})"
        )));
    }
    let elapsed_ns = done
        .iter()
        .max()
        .copied()
        .unwrap_or(0)
        .saturating_sub(start_at.nanos());
    let (p50_ns, p95_ns, p99_ns) = percentiles(&hist);
    // Every fleet party shares this registry; counter handles are
    // get-or-create by name, so these read the merged fleet totals.
    let s = ShardStats::in_registry(&registry);
    Ok(ShardCellStats {
        elapsed_ns,
        // Echo traffic crosses the relay queue twice per message.
        bytes: cells * msgs * msg_bytes * if kill { 2 } else { 1 },
        p50_ns,
        p95_ns,
        p99_ns,
        shards: shards as u64,
        cells,
        messages: msgs,
        completed,
        killed,
        binds_owned: s.binds_owned.get(),
        redirects_sent: s.redirects_sent.get(),
        redirects_followed: s.redirects_followed.get(),
        failovers: s.failovers.get(),
        map_syncs: s.map_syncs.get(),
    })
}

fn shard_scaling(smoke: bool) -> io::Result<String> {
    let seed = 0x54a2d;
    let cells: u64 = if smoke { 6 } else { 12 };
    let msgs: u64 = if smoke { 8 } else { 25 };
    let msg_bytes: u64 = 4096;

    let mut modes = JsonWriter::object();
    let mut per_shard = Vec::new();
    for shards in [1usize, 2, 4] {
        let st = shard_cell(seed, shards, cells, msgs, msg_bytes, false)?;
        eprintln!(
            "  shards{shards}: {} bytes/s over {} ms (virtual)",
            st.bytes_per_sec(),
            st.elapsed_ns / 1_000_000
        );
        modes.field_raw(&format!("shards{shards}"), &st.to_json());
        per_shard.push(st);
    }
    let kill = shard_cell(seed, 4, cells, msgs, msg_bytes, true)?;
    eprintln!(
        "  killshard: {} cells completed, {} failovers",
        kill.completed, kill.failovers
    );
    modes.field_raw("killshard", &kill.to_json());

    let speedup_x1000 = per_shard[2].bytes_per_sec() * 1000 / per_shard[0].bytes_per_sec().max(1);
    let mut config = JsonWriter::object();
    config
        .field_u64("cells", cells)
        .field_u64("msgs_per_cell", msgs)
        .field_u64("msg_bytes", msg_bytes);
    let mut w = JsonWriter::object();
    w.field_u64("schema_version", SCHEMA_VERSION)
        .field_str("scenario", "shard_scaling")
        .field_u64("seed", seed)
        .field_u64("smoke", u64::from(smoke))
        .field_raw("config", &config.finish())
        .field_raw("modes", &modes.finish())
        .field_u64("speedup_x1000", speedup_x1000);
    Ok(w.finish())
}

// ---------------------------------------------------------------------
// stripe_scaling: striped bulk transfer over the sharded relay fleet.
// ---------------------------------------------------------------------

/// Per-cell measurement record for `stripe_scaling`.
struct StripeCellStats {
    elapsed_ns: u64,
    bytes: u64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    streams: u64,
    shards: u64,
    chunks: u64,
    chunk_bytes: u64,
    completed: u64,
    killed: u64,
    drop_ppm: u64,
    failovers: u64,
    dup_chunks: u64,
    resent_chunks: u64,
    conflicts: u64,
}

impl StripeCellStats {
    fn bytes_per_sec(&self) -> u64 {
        ((u128::from(self.bytes) * 1_000_000_000) / u128::from(self.elapsed_ns.max(1))) as u64
    }

    /// Goodput as a fraction (×1000) of the aggregate relay-copy
    /// bandwidth the lanes *could* use (`streams` relay queues at
    /// [`RelayModel::default`]'s copy rate): how close striping gets
    /// to saturating the parallel service capacity.
    fn utilization_x1000(&self) -> u64 {
        let capacity = (RelayModel::default().bandwidth as u64).max(1) * self.streams.max(1);
        self.bytes_per_sec() * 1000 / capacity
    }

    fn to_json(&self) -> String {
        let mut obs = JsonWriter::object();
        obs.field_u64("failovers", self.failovers)
            .field_u64("dup_chunks", self.dup_chunks)
            .field_u64("resent_chunks", self.resent_chunks)
            .field_u64("conflicts", self.conflicts);
        let mut w = JsonWriter::object();
        w.field_u64("elapsed_ns", self.elapsed_ns)
            .field_u64("bytes", self.bytes)
            .field_u64("bytes_per_sec", self.bytes_per_sec())
            .field_u64("utilization_x1000", self.utilization_x1000())
            .field_u64("p50_ns", self.p50_ns)
            .field_u64("p95_ns", self.p95_ns)
            .field_u64("p99_ns", self.p99_ns)
            .field_u64("streams", self.streams)
            .field_u64("shards", self.shards)
            .field_u64("chunks", self.chunks)
            .field_u64("chunk_bytes", self.chunk_bytes)
            .field_u64("completed", self.completed)
            .field_u64("killed", self.killed)
            .field_u64("drop_ppm", self.drop_ppm)
            .field_raw("obs", &obs.finish());
        w.finish()
    }
}

/// One striped-transfer cell in virtual time: `streams` lanes over a
/// fleet of `shards` relay shards, each lane pinned to its own shard
/// (`with_bind_lane`). `drop_ppm` injects per-traversal chunk loss
/// (sim-TCP retransmits keep flows reliable, so loss costs time, not
/// bytes). `kill` crashes the shard serving stripe 0 mid-transfer.
fn stripe_cell_run(
    seed: u64,
    shards: usize,
    streams: u16,
    total_len: u64,
    chunk: u32,
    drop_ppm: u64,
    kill: bool,
) -> io::Result<StripeCellStats> {
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
    let members: Vec<(NodeId, u16)> = shard_hosts.iter().map(|h| (*h, SHARD_CTRL)).collect();

    let registry = Registry::new();
    let lane_hist = registry.histogram("wacs.stripe.stripe_ns");
    let mut sim = Simulator::new(topo, NetConfig::default(), seed);
    let shard_ids: Vec<ActorId> = (0..shards)
        .map(|i| {
            sim.spawn(
                shard_hosts[i],
                Box::new(
                    SimOuterServer::new(SHARD_CTRL, None, RelayModel::default())
                        .with_fleet(members.clone(), i)
                        .with_obs(&registry),
                ),
            )
        })
        .collect();
    let plan = StripePlan::new(total_len, streams, chunk).map_err(io::Error::from)?;
    let data: Arc<Vec<u8>> = Arc::new(
        (0..total_len as usize)
            .map(|i| ((i * 131 + 17) % 251) as u8)
            .collect(),
    );
    let stats = StripeStats::in_registry(&registry);
    let cell: StripeCell = stripe_cell(streams);
    for stripe in 0..streams {
        sim.spawn(
            rx_host,
            Box::new(
                StripeSinkActor::new(
                    NxClient::new(SimProxyEnv::direct())
                        .with_fleet(members.clone())
                        .with_bind_lane(stripe)
                        .with_obs(&registry),
                    stripe,
                    cell.clone(),
                )
                .with_stats(stats.clone()),
            ),
        );
        sim.spawn(
            tx_host,
            Box::new(
                StripeSenderActor::new(
                    NxClient::new(SimProxyEnv::direct()),
                    stripe,
                    cell.clone(),
                    data.clone(),
                    plan,
                    7,
                    start_at,
                )
                .with_stats(stats.clone()),
            ),
        );
    }

    if drop_ppm > 0 {
        sim.install_faults(FaultPlan::new(seed).drop_messages(drop_ppm as f64 / 1e6, false));
    }
    let killed = if kill {
        // Let the lanes get going, then crash whichever shard is
        // carrying stripe 0 (discovered mid-run, like the killshard
        // cell one layer down).
        let crash_at = start_at + SimDuration::from_millis(300);
        sim.run_until(SimTime(crash_at.nanos()));
        let serving = cell
            .lock()
            .advertised
            .first()
            .copied()
            .flatten()
            .ok_or_else(|| io::Error::other("stripe 0 did not bind before the chaos point"))?
            .0;
        let victim = shard_hosts
            .iter()
            .position(|h| *h == serving)
            .ok_or_else(|| io::Error::other("advertised host is not a shard"))?;
        sim.install_faults(
            FaultPlan::new(seed).crash(shard_ids[victim], SimDuration::from_millis(1)),
        );
        1
    } else {
        0
    };
    sim.run_until(SimTime(SimDuration::from_secs(600).nanos()));

    let c = cell.lock();
    let Some((_, got)) = c.receiver.result() else {
        return Err(io::Error::other(format!(
            "stripe_scaling: transfer incomplete (streams={streams}, drop_ppm={drop_ppm}, \
             kill={kill})"
        )));
    };
    if got != **data {
        return Err(io::Error::other(
            "stripe_scaling: reassembled payload differs from the staged bytes",
        ));
    }
    if !c.errors.is_empty() {
        return Err(io::Error::other(format!(
            "stripe_scaling: {} typed reassembly errors",
            c.errors.len()
        )));
    }
    let elapsed_ns = c
        .done_at_ns
        .unwrap_or(0)
        .saturating_sub(start_at.nanos())
        .max(1);
    let (p50_ns, p95_ns, p99_ns) = percentiles(&lane_hist);
    Ok(StripeCellStats {
        elapsed_ns,
        bytes: total_len,
        p50_ns,
        p95_ns,
        p99_ns,
        streams: u64::from(streams),
        shards: shards as u64,
        chunks: plan.chunk_count(),
        chunk_bytes: u64::from(chunk),
        completed: 1,
        killed,
        drop_ppm,
        failovers: c.failovers,
        dup_chunks: stats.dup_chunks.get(),
        resent_chunks: stats.resent_chunks.get(),
        conflicts: stats.conflicts.get(),
    })
}

fn stripe_scaling(smoke: bool) -> io::Result<String> {
    let seed = 0x57a1e;
    let total_len: u64 = if smoke { 1 << 20 } else { 8 << 20 };
    let chunk: u32 = 64 * 1024;
    let shards = 8;

    let mut modes = JsonWriter::object();
    let mut sweep = Vec::new();
    for streams in [1u16, 2, 4, 8] {
        let st = stripe_cell_run(seed, shards, streams, total_len, chunk, 0, false)?;
        eprintln!(
            "  streams{streams}: {} bytes/s, utilization {}/1000, over {} ms (virtual)",
            st.bytes_per_sec(),
            st.utilization_x1000(),
            st.elapsed_ns / 1_000_000
        );
        modes.field_raw(&format!("streams{streams}"), &st.to_json());
        sweep.push(st);
    }
    let lossy = stripe_cell_run(seed, shards, 4, total_len, chunk, 10_000, false)?;
    eprintln!(
        "  lossy4 (1% loss): {} bytes/s over {} ms (virtual)",
        lossy.bytes_per_sec(),
        lossy.elapsed_ns / 1_000_000
    );
    modes.field_raw("lossy4", &lossy.to_json());
    let kill = stripe_cell_run(seed, shards, 4, total_len, chunk, 0, true)?;
    eprintln!(
        "  killstripe: reassembled exactly, {} lane failovers, {} resent chunks",
        kill.failovers, kill.resent_chunks
    );
    modes.field_raw("killstripe", &kill.to_json());

    let speedup_x1000 = sweep[2].bytes_per_sec() * 1000 / sweep[0].bytes_per_sec().max(1);
    let mut config = JsonWriter::object();
    config
        .field_u64("total_len", total_len)
        .field_u64("chunk_bytes", u64::from(chunk))
        .field_u64("shards", shards as u64);
    let mut w = JsonWriter::object();
    w.field_u64("schema_version", SCHEMA_VERSION)
        .field_str("scenario", "stripe_scaling")
        .field_u64("seed", seed)
        .field_u64("smoke", u64::from(smoke))
        .field_raw("config", &config.finish())
        .field_raw("modes", &modes.finish())
        .field_u64("speedup_x1000", speedup_x1000);
    Ok(w.finish())
}

// ---------------------------------------------------------------------
// Schema validation (used after every run and by `--check`).
// ---------------------------------------------------------------------

/// Budget for the `--against-git` p99 guard: a freshly generated
/// BENCH file whose per-mode `p99_ns` exceeds the committed (git
/// HEAD) version by more than this many percent fails the check.
const P99_REGRESSION_PCT: u64 = 20;

/// The balanced-brace span starting at `s[0] == '{'` (inclusive).
fn brace_span(s: &str) -> Option<&str> {
    let b = s.as_bytes();
    if b.first() != Some(&b'{') {
        return None;
    }
    let mut depth = 0u32;
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&s[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Per-mode `p99_ns` values keyed by mode name, parsed from the
/// `modes` object (document order preserved). A mode object without a
/// `p99_ns` field is skipped.
fn mode_p99s(json: &str) -> Vec<(String, u64)> {
    let Some(pos) = json.find("\"modes\":{") else {
        return Vec::new();
    };
    let Some(body) = brace_span(&json[pos + "\"modes\":".len()..]) else {
        return Vec::new();
    };
    let bytes = body.as_bytes();
    let mut out = Vec::new();
    let mut i = 1; // past the opening brace
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let Some(name_len) = body[i + 1..].find('"') else {
            break;
        };
        let name = body[i + 1..i + 1 + name_len].to_string();
        let after_key = i + 1 + name_len + 1; // past the closing quote
                                              // The value must be `:{...}`; skip the whole object span so
                                              // nested keys (percentiles, obs counters) are never mistaken
                                              // for mode names.
        let Some(span) = body
            .get(after_key..)
            .and_then(|rest| rest.strip_prefix(':'))
            .and_then(brace_span)
        else {
            break;
        };
        if let Some(p99) = top_level_u64(span, "p99_ns") {
            out.push((name, p99));
        }
        i = after_key + 1 + span.len();
    }
    out
}

/// The value of `"key":<digits>` at the **top level** of one
/// brace-span object. Nested objects (a mode's `obs` counters) are
/// skipped wholesale, never searched — they may carry keys that shadow
/// the mode's own fields.
fn top_level_u64(obj: &str, key: &str) -> Option<u64> {
    let bytes = obj.as_bytes();
    let mut i = 1; // past the opening brace
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let name_len = obj[i + 1..].find('"')?;
        let name = &obj[i + 1..i + 1 + name_len];
        let mut j = i + 1 + name_len + 1;
        if bytes.get(j) != Some(&b':') {
            // A string value, not a key; keep walking.
            i = j;
            continue;
        }
        j += 1;
        if bytes.get(j) == Some(&b'{') {
            j += brace_span(obj.get(j..)?)?.len();
        } else if name == key {
            let digits = obj[j..]
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .unwrap_or("");
            return digits.parse().ok();
        }
        i = j;
    }
    None
}

/// Compare per-mode `p99_ns` of `new_json` against the committed
/// `old_json`. Pure; returns one message per regressed mode.
///
/// Modes are paired **by name**, not by position: a committed file
/// with a different mode set (a scenario that grew a mode, or a
/// single-mode run) compares only the modes both documents share.
fn p99_regressions(old_json: &str, new_json: &str) -> Vec<String> {
    let old = mode_p99s(old_json);
    let mut out = Vec::new();
    for (mode, n) in mode_p99s(new_json) {
        let Some((_, o)) = old.iter().find(|(m, _)| *m == mode) else {
            continue;
        };
        let o = *o;
        if o > 0 && n.saturating_mul(100) > o.saturating_mul(100 + P99_REGRESSION_PCT) {
            out.push(format!(
                "{mode}: p99 {n} ns vs committed {o} ns \
                 (+{}%, budget {P99_REGRESSION_PCT}%)",
                (n.saturating_mul(100) / o).saturating_sub(100),
            ));
        }
    }
    out
}

/// The `--against-git` guard for one file: diff its p99s against the
/// version committed at git HEAD. Returns whether the file regressed
/// (always `false` under `--allow-regression`, which only warns).
/// A file with no committed baseline (new scenario, or no repo) is
/// skipped with a note.
fn check_against_git(path: &str, allow_regression: bool) -> io::Result<bool> {
    let rel = path.strip_prefix("./").unwrap_or(path);
    let out = std::process::Command::new("git")
        .args(["show", &format!("HEAD:{rel}")])
        .output()?;
    if !out.status.success() {
        println!("  (no committed baseline for {path}; skipping p99 guard)");
        return Ok(false);
    }
    let committed = String::from_utf8_lossy(&out.stdout).into_owned();
    let current = std::fs::read_to_string(path)?;
    let regressions = p99_regressions(&committed, &current);
    for r in &regressions {
        if allow_regression {
            println!("  warning: {path}: {r} (accepted via --allow-regression)");
        } else {
            eprintln!("  {path}: {r}");
        }
    }
    Ok(!allow_regression && !regressions.is_empty())
}

fn check_file(path: &str) -> io::Result<()> {
    let json = std::fs::read_to_string(path)?;
    let name = std::path::Path::new(path)
        .file_name()
        .and_then(std::ffi::OsStr::to_str)
        .and_then(|f| f.strip_prefix("BENCH_"))
        .and_then(|f| f.strip_suffix(".json"))
        .ok_or_else(|| io::Error::other(format!("{path}: not a BENCH_<scenario>.json name")))?;
    validate(&json, name).map_err(|e| io::Error::other(format!("{path}: {e}")))
}

/// Every `"key":<digits>` occurrence, in document order.
fn extract_all(json: &str, key: &str) -> Vec<u64> {
    let needle = format!("\"{key}\":");
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = json[from..].find(&needle) {
        let start = from + pos + needle.len();
        let digits: String = json[start..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(v) = digits.parse() {
            out.push(v);
        }
        from = start;
    }
    out
}

fn validate(json: &str, scenario: &str) -> Result<(), String> {
    // The chaos document is schema v2 (recovery-time cells); every
    // other scenario still emits v1.
    let want = if scenario == "chaos" {
        CHAOS_SCHEMA_VERSION
    } else {
        SCHEMA_VERSION
    };
    if extract_all(json, "schema_version") != vec![want] {
        return Err(format!("schema_version != {want}"));
    }
    if !json.contains(&format!("\"scenario\":\"{scenario}\"")) {
        return Err(format!("scenario field is not {scenario:?}"));
    }
    if scenario == "chaos" {
        return validate_chaos(json);
    }
    for key in ["seed", "smoke", "speedup_x1000"] {
        if extract_all(json, key).len() != 1 {
            return Err(format!("missing top-level field {key:?}"));
        }
    }
    match scenario {
        "shard_scaling" => validate_shard_scaling(json),
        "stripe_scaling" => validate_stripe_scaling(json),
        _ => Err(format!("unknown scenario {scenario:?}")),
    }
}

/// p50 ≤ p95 ≤ p99 in each of the `modes` mode objects.
fn validate_percentile_order(json: &str, modes: usize) -> Result<(), String> {
    let (p50, p95, p99) = (
        extract_all(json, "p50_ns"),
        extract_all(json, "p95_ns"),
        extract_all(json, "p99_ns"),
    );
    if p50.len() != modes || p95.len() != modes || p99.len() != modes {
        return Err("p50/p95/p99 must appear once per mode".to_string());
    }
    for i in 0..modes {
        if !(p50[i] <= p95[i] && p95[i] <= p99[i]) {
            return Err(format!(
                "percentile ordering violated in mode {i}: p50={} p95={} p99={}",
                p50[i], p95[i], p99[i]
            ));
        }
    }
    Ok(())
}

/// The `shard_scaling` document: four cells (`shards1`, `shards2`,
/// `shards4`, `killshard`), zero lost work everywhere, at least one
/// breaker-driven failover in the chaos cell, and — for full
/// (non-smoke) runs — the headline ≥1.5× fan-in speedup at 4 shards.
fn validate_shard_scaling(json: &str) -> Result<(), String> {
    // Scope the per-cell checks to the modes object: the run config
    // also carries a "cells" field at the top level.
    let modes = json
        .find("\"modes\":{")
        .and_then(|p| brace_span(&json[p + "\"modes\":".len()..]))
        .ok_or_else(|| "missing modes object".to_string())?;
    for key in [
        "\"shards1\":{",
        "\"shards2\":{",
        "\"shards4\":{",
        "\"killshard\":{",
    ] {
        if !modes.contains(key) {
            return Err(format!("missing mode object {key}"));
        }
    }
    for key in [
        "elapsed_ns",
        "bytes",
        "bytes_per_sec",
        "shards",
        "cells",
        "messages",
        "completed",
        "killed",
        "failovers",
        "redirects_sent",
        "binds_owned",
    ] {
        if extract_all(modes, key).len() != 4 {
            return Err(format!("field {key:?} must appear once per cell"));
        }
    }
    if extract_all(modes, "killed") != vec![0, 0, 0, 1] {
        return Err("exactly the killshard cell must kill one shard".to_string());
    }
    // Zero lost work: every cell completed its full fan-in, chaos
    // included (the kill cell counts exactly-once accepted sequences).
    let (cells, completed) = (extract_all(modes, "cells"), extract_all(modes, "completed"));
    if cells != completed {
        return Err(format!("incomplete cells: {completed:?} of {cells:?}"));
    }
    let failovers = extract_all(modes, "failovers");
    if failovers[3] < 1 {
        return Err("killshard cell recorded no breaker-driven failover".to_string());
    }
    validate_percentile_order(modes, 4)?;
    // The acceptance ratio only binds on full runs; smoke runs are CI
    // plumbing checks with tiny workloads.
    if extract_all(json, "smoke") == vec![0] {
        let speedup = extract_all(json, "speedup_x1000");
        if speedup.first().is_none_or(|&s| s < 1500) {
            return Err(format!(
                "4-shard fan-in speedup {speedup:?} below the 1500 (×1000) floor"
            ));
        }
    }
    Ok(())
}

/// The `stripe_scaling` document: six cells (`streams1`, `streams2`,
/// `streams4`, `streams8`, `lossy4`, `killstripe`), every transfer
/// reassembled byte-exactly (a cell that doesn't errors out before
/// emission, so `completed` is structural), loss confined to the lossy
/// cell, a kill confined to the chaos cell with at least one lane
/// failover, and — for full runs — the headline ≥2× bulk-throughput
/// speedup at 4 stripes.
fn validate_stripe_scaling(json: &str) -> Result<(), String> {
    let modes = json
        .find("\"modes\":{")
        .and_then(|p| brace_span(&json[p + "\"modes\":".len()..]))
        .ok_or_else(|| "missing modes object".to_string())?;
    for key in [
        "\"streams1\":{",
        "\"streams2\":{",
        "\"streams4\":{",
        "\"streams8\":{",
        "\"lossy4\":{",
        "\"killstripe\":{",
    ] {
        if !modes.contains(key) {
            return Err(format!("missing mode object {key}"));
        }
    }
    for key in [
        "elapsed_ns",
        "bytes",
        "bytes_per_sec",
        "utilization_x1000",
        "streams",
        "shards",
        "chunks",
        "chunk_bytes",
        "completed",
        "killed",
        "drop_ppm",
        "failovers",
        "dup_chunks",
        "resent_chunks",
    ] {
        if extract_all(modes, key).len() != 6 {
            return Err(format!("field {key:?} must appear once per cell"));
        }
    }
    if extract_all(modes, "completed") != vec![1; 6] {
        return Err("every stripe cell must reassemble to completion".to_string());
    }
    if extract_all(modes, "killed") != vec![0, 0, 0, 0, 0, 1] {
        return Err("exactly the killstripe cell must kill one shard".to_string());
    }
    let drops = extract_all(modes, "drop_ppm");
    if drops != vec![0, 0, 0, 0, 10_000, 0] {
        return Err(format!(
            "loss must be confined to the lossy4 cell: {drops:?}"
        ));
    }
    let failovers = extract_all(modes, "failovers");
    if failovers[5] < 1 {
        return Err("killstripe cell recorded no lane failover".to_string());
    }
    validate_percentile_order(modes, 6)?;
    if extract_all(json, "smoke") == vec![0] {
        let speedup = extract_all(json, "speedup_x1000");
        if speedup.first().is_none_or(|&s| s < 2000) {
            return Err(format!(
                "4-stripe bulk speedup {speedup:?} below the 2000 (×1000) floor"
            ));
        }
    }
    Ok(())
}

/// The chaos (schema v2) document: one recovery-time cell per fault
/// class, each complete, byte-exact, and leak-free, with at least one
/// injected fault and one measured recovery, and recovery percentiles
/// ordered. The per-cell `p99_ns` is the recovery-time p99, so the
/// `--against-git` guard prices RTO regressions exactly like
/// data-plane latency.
fn validate_chaos(json: &str) -> Result<(), String> {
    for key in ["seed", "smoke"] {
        if extract_all(json, key).len() != 1 {
            return Err(format!("missing top-level field {key:?}"));
        }
    }
    let modes = json
        .find("\"modes\":{")
        .and_then(|p| brace_span(&json[p + "\"modes\":".len()..]))
        .ok_or_else(|| "missing modes object".to_string())?;
    for class in FaultClass::ALL {
        if !modes.contains(&format!("\"{}\":{{", class.name())) {
            return Err(format!("missing chaos cell {:?}", class.name()));
        }
    }
    let n = FaultClass::ALL.len();
    for key in ["ops", "attempts", "bytes"] {
        if extract_all(modes, key).len() != n {
            return Err(format!("field {key:?} must appear once per cell"));
        }
    }
    if extract_all(modes, "completed") != vec![1; n] {
        return Err("every chaos cell must run to completion".to_string());
    }
    if extract_all(modes, "payload_ok") != vec![1; n] {
        return Err("every chaos cell must move its payloads byte-exactly".to_string());
    }
    if extract_all(modes, "leaked_relays") != vec![0; n] {
        return Err("a chaos cell leaked relay-table entries".to_string());
    }
    if extract_all(modes, "leaked_admission") != vec![0; n] {
        return Err("a chaos cell leaked admission slots".to_string());
    }
    let faults = extract_all(modes, "faults_injected");
    if faults.len() != n || faults.contains(&0) {
        return Err(format!(
            "every chaos cell must inject at least one fault: {faults:?}"
        ));
    }
    let recoveries = extract_all(modes, "recoveries");
    if recoveries.len() != n || recoveries.contains(&0) {
        return Err(format!(
            "every chaos cell must measure at least one recovery: {recoveries:?}"
        ));
    }
    validate_percentile_order(modes, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_all_finds_each_occurrence_in_order() {
        let json = r#"{"a":{"x":1},"b":{"x":22},"y":3}"#;
        assert_eq!(extract_all(json, "x"), vec![1, 22]);
        assert_eq!(extract_all(json, "y"), vec![3]);
        assert!(extract_all(json, "z").is_empty());
    }

    fn two_mode_doc(first_p99: u64, second_p99: u64) -> String {
        format!(
            r#"{{"modes":{{"shards1":{{"p99_ns":{first_p99}}},"killshard":{{"p99_ns":{second_p99}}}}}}}"#
        )
    }

    #[test]
    fn p99_guard_passes_within_budget() {
        let old = two_mode_doc(1000, 2000);
        // Exactly +20% is within budget; only strictly-over fails.
        assert!(p99_regressions(&old, &two_mode_doc(1200, 2400)).is_empty());
        assert!(p99_regressions(&old, &two_mode_doc(900, 1500)).is_empty());
    }

    #[test]
    fn p99_guard_flags_each_regressed_mode() {
        let old = two_mode_doc(1000, 2000);
        let r = p99_regressions(&old, &two_mode_doc(1201, 2000));
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].starts_with("shards1:"), "{r:?}");
        let r = p99_regressions(&old, &two_mode_doc(1300, 5000));
        assert_eq!(r.len(), 2, "{r:?}");
        assert!(r[1].starts_with("killshard:"), "{r:?}");
    }

    #[test]
    fn p99_guard_tolerates_missing_or_zero_baselines() {
        // Old doc without p99s (schema drift) or with a zero p99
        // (degenerate) must not divide by zero or false-positive.
        assert!(p99_regressions("{}", &two_mode_doc(9999, 9999)).is_empty());
        let zero = two_mode_doc(0, 2000);
        let r = p99_regressions(&zero, &two_mode_doc(5000, 2000));
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn mode_p99s_keys_by_name_and_skips_nested_objects() {
        // The per-mode obs sub-object carries unrelated counters; the
        // parser must take the mode's own p99_ns, not one from inside
        // a nested object, and must survive modes with no p99 at all.
        let json = r#"{"modes":{"killshard":{"obs":{"p99_ns":77},"p99_ns":42},"bare":{"bytes":1},"shards1":{"p99_ns":9}}}"#;
        assert_eq!(
            mode_p99s(json),
            vec![("killshard".to_string(), 42), ("shards1".to_string(), 9)]
        );
        assert!(mode_p99s(r#"{"speedup_x1000":3}"#).is_empty());
    }

    #[test]
    fn p99_guard_keys_by_mode_name_not_position() {
        // Regression for the positional-pairing bug: a committed
        // baseline holding only one mode must pair that mode by NAME.
        // Under index pairing, old killshard(2000) would be compared
        // against new shards1(5000) — a false regression — while a
        // genuine killshard regression would slip through unpaired.
        let old = r#"{"modes":{"killshard":{"p99_ns":2000}}}"#;
        assert!(p99_regressions(old, &two_mode_doc(5000, 2000)).is_empty());
        let r = p99_regressions(old, &two_mode_doc(5000, 2401));
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].starts_with("killshard:"), "{r:?}");
    }

    fn shard_doc(killed: [u64; 4], failovers_kill: u64, smoke: u64, speedup: u64) -> String {
        let cell = |shards: u64, completed: u64, killed: u64, failovers: u64| {
            format!(
                r#"{{"elapsed_ns":10,"bytes":5,"bytes_per_sec":2,"p50_ns":1,"p95_ns":2,"p99_ns":3,"shards":{shards},"cells":6,"messages":8,"completed":{completed},"killed":{killed},"obs":{{"binds_owned":6,"redirects_sent":1,"redirects_followed":1,"failovers":{failovers},"map_syncs":0}}}}"#
            )
        };
        format!(
            r#"{{"schema_version":1,"scenario":"shard_scaling","seed":7,"smoke":{smoke},"config":{{"cells":6,"msgs_per_cell":8,"msg_bytes":4096}},"modes":{{"shards1":{},"shards2":{},"shards4":{},"killshard":{}}},"speedup_x1000":{speedup}}}"#,
            cell(1, 6, killed[0], 0),
            cell(2, 6, killed[1], 0),
            cell(4, 6, killed[2], 0),
            cell(4, 6, killed[3], failovers_kill),
        )
    }

    #[test]
    fn validate_shard_scaling_enforces_chaos_and_speedup_floors() {
        let ok = shard_doc([0, 0, 0, 1], 2, 1, 900);
        assert_eq!(validate(&ok, "shard_scaling"), Ok(()));
        // The document must be the scenario its file name claims, and a
        // scenario without a validator is refused, not waved through.
        assert!(validate(&ok, "stripe_scaling").is_err());
        let retired = ok.replace("\"scenario\":\"shard_scaling\"", "\"scenario\":\"latency\"");
        assert!(validate(&retired, "latency").is_err());
        // Non-smoke runs must clear the 1.5x fan-in speedup floor.
        assert!(validate(&shard_doc([0, 0, 0, 1], 2, 0, 1499), "shard_scaling").is_err());
        assert_eq!(
            validate(&shard_doc([0, 0, 0, 1], 2, 0, 1500), "shard_scaling"),
            Ok(())
        );
        // The chaos cell must actually kill a shard and fail over.
        assert!(validate(&shard_doc([0, 0, 0, 0], 2, 1, 900), "shard_scaling").is_err());
        assert!(validate(&shard_doc([0, 0, 0, 1], 0, 1, 900), "shard_scaling").is_err());
        // Lost work anywhere is fatal.
        let lossy =
            shard_doc([0, 0, 0, 1], 2, 1, 900).replacen("\"completed\":6", "\"completed\":5", 1);
        assert!(validate(&lossy, "shard_scaling").is_err());
    }

    fn stripe_doc(killed_last: u64, failovers_kill: u64, smoke: u64, speedup: u64) -> String {
        let cell = |streams: u64, killed: u64, drop_ppm: u64, failovers: u64| {
            format!(
                r#"{{"elapsed_ns":10,"bytes":5,"bytes_per_sec":2,"utilization_x1000":900,"p50_ns":1,"p95_ns":2,"p99_ns":3,"streams":{streams},"shards":8,"chunks":16,"chunk_bytes":65536,"completed":1,"killed":{killed},"drop_ppm":{drop_ppm},"obs":{{"failovers":{failovers},"dup_chunks":0,"resent_chunks":0,"conflicts":0}}}}"#
            )
        };
        format!(
            r#"{{"schema_version":1,"scenario":"stripe_scaling","seed":7,"smoke":{smoke},"config":{{"total_len":1048576,"chunk_bytes":65536,"shards":8}},"modes":{{"streams1":{},"streams2":{},"streams4":{},"streams8":{},"lossy4":{},"killstripe":{}}},"speedup_x1000":{speedup}}}"#,
            cell(1, 0, 0, 0),
            cell(2, 0, 0, 0),
            cell(4, 0, 0, 0),
            cell(8, 0, 0, 0),
            cell(4, 0, 10_000, 0),
            cell(4, killed_last, 0, failovers_kill),
        )
    }

    #[test]
    fn validate_stripe_scaling_enforces_chaos_and_speedup_floors() {
        let ok = stripe_doc(1, 2, 1, 900);
        assert_eq!(validate(&ok, "stripe_scaling"), Ok(()));
        // Non-smoke runs must clear the 2x bulk-throughput floor.
        assert!(validate(&stripe_doc(1, 2, 0, 1999), "stripe_scaling").is_err());
        assert_eq!(
            validate(&stripe_doc(1, 2, 0, 2000), "stripe_scaling"),
            Ok(())
        );
        // The chaos cell must actually kill a shard and fail over.
        assert!(validate(&stripe_doc(0, 2, 1, 900), "stripe_scaling").is_err());
        assert!(validate(&stripe_doc(1, 0, 1, 900), "stripe_scaling").is_err());
        // An incomplete reassembly anywhere is fatal.
        let torn = stripe_doc(1, 2, 1, 900).replacen("\"completed\":1", "\"completed\":0", 1);
        assert!(validate(&torn, "stripe_scaling").is_err());
        // Loss outside the lossy cell is a mislabeled experiment.
        let leaky = stripe_doc(1, 2, 1, 900).replacen("\"drop_ppm\":0", "\"drop_ppm\":5", 1);
        assert!(validate(&leaky, "stripe_scaling").is_err());
    }

    fn chaos_cell(p99: u64) -> String {
        format!(
            r#"{{"p50_ns":1,"p95_ns":2,"p99_ns":{p99},"ops":4,"attempts":6,"faults_injected":2,"recoveries":2,"bytes":65536,"completed":1,"payload_ok":1,"leaked_relays":0,"leaked_admission":0}}"#
        )
    }

    fn chaos_doc(p99s: [u64; 8], smoke: u64) -> String {
        let modes: Vec<String> = FaultClass::ALL
            .iter()
            .zip(p99s)
            .map(|(class, p99)| format!(r#""{}":{}"#, class.name(), chaos_cell(p99)))
            .collect();
        format!(
            r#"{{"schema_version":2,"scenario":"chaos","seed":7,"smoke":{smoke},"config":{{"ops":4,"cells":8}},"modes":{{{}}},"drill":{{"wacs.chaos.ops":32}}}}"#,
            modes.join(",")
        )
    }

    #[test]
    fn validate_chaos_v2_enforces_schema_and_cell_integrity() {
        let ok = chaos_doc([3; 8], 1);
        assert_eq!(validate(&ok, "chaos"), Ok(()));
        // The chaos document is the only v2 doc; a v1 stamp is stale.
        let stale = ok.replacen("\"schema_version\":2", "\"schema_version\":1", 1);
        assert!(validate(&stale, "chaos").is_err());
        // Any single-cell integrity breakage is fatal: a leaked relay
        // or admission slot, a torn payload, an incomplete cell, a
        // cell that measured nothing, or a cell that faulted nothing.
        for (from, to) in [
            ("\"leaked_relays\":0", "\"leaked_relays\":1"),
            ("\"leaked_admission\":0", "\"leaked_admission\":2"),
            ("\"payload_ok\":1", "\"payload_ok\":0"),
            ("\"completed\":1", "\"completed\":0"),
            ("\"recoveries\":2", "\"recoveries\":0"),
            ("\"faults_injected\":2", "\"faults_injected\":0"),
            ("\"p95_ns\":2", "\"p95_ns\":9"),
        ] {
            let broken = ok.replacen(from, to, 1);
            assert!(validate(&broken, "chaos").is_err(), "{to} not caught");
        }
        // A document missing a fault class is structurally incomplete.
        let missing = ok.replace("\"inner_restart\":{", "\"mystery\":{");
        assert!(validate(&missing, "chaos").is_err());
    }

    #[test]
    fn p99_guard_prices_chaos_recovery_cells_by_name() {
        // Schema-v2 chaos cells carry their recovery p99 at the top
        // level of each mode object, so the --against-git guard gives
        // committed RTOs the same name-paired 20% budget as data-plane
        // latency (--allow-regression stays the only escape hatch; it
        // downgrades the failure to a warning in check_against_git).
        let old = chaos_doc([1000; 8], 1);
        // Exactly +20% is within budget.
        assert!(p99_regressions(&old, &chaos_doc([1200; 8], 1)).is_empty());
        // One cell blowing its recovery budget is flagged by name.
        let mut p99s = [1000u64; 8];
        p99s[1] = 1201;
        let r = p99_regressions(&old, &chaos_doc(p99s, 1));
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].starts_with("stall:"), "{r:?}");
        // A baseline predating the v2 schema (or a new fault class)
        // pairs by name: only cells present in both documents are
        // compared, the rest are skipped rather than mispaired.
        let legacy = r#"{"modes":{"rolling_restart":{"p99_ns":500}}}"#;
        let mut p99s = [99_999u64; 8];
        p99s[6] = 601; // rolling_restart, the only paired cell
        let r = p99_regressions(legacy, &chaos_doc(p99s, 1));
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].starts_with("rolling_restart:"), "{r:?}");
    }
}
