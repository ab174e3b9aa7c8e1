//! Scale-out of the relay fleet in virtual time (`paper shard_scaling`,
//! `paper stripe_scaling`).
//!
//! | scenario | shape |
//! |---|---|
//! | `shard_scaling` | fan-in cells over a sharded outer fleet: the same cell workload at 1/2/4 shards (Table 2's fan-in shape, relay service queues per shard), plus a kill-one-shard cell that must finish with zero lost sequence numbers and a stale-map cell whose sinks bind with the map of a smaller fleet |
//! | `stripe_scaling` | one multi-megabyte staging payload a single relay cannot saturate, moved at 1/2/4/8 parallel stripe lanes (GridFTP-style), plus a 1%-loss WAN cell and a kill-one-stripe cell that must reassemble byte-exactly |
//!
//! Both run on the netsim clock with fixed seeds, so each prints one
//! answer; `crates/bench/tests/goldens.rs` pins the JSON byte for byte
//! and asserts the floors on the returned stats. Wall-clock numbers
//! belong to the gated benchmark in `benchmark/`.

use netsim::prelude::*;
use nexus_proxy::sim::{
    stripe_cell, NxActor, NxApp, NxClient, NxEvent, NxHandled, RelayModel, SimOuterServer,
    SimProxyEnv, StripeCell, StripeSender, StripeSink,
};
use nexus_proxy::{ShardStats, StripePlan, StripeStats};
use std::io;
use std::sync::Arc;
use wacs_obs::json::JsonWriter;
use wacs_obs::Registry;
use wacs_sync::Mutex;

/// Control port of every sim shard (same port, distinct hosts).
const SHARD_CTRL: u16 = 4097;

/// App-level poll timer token for the cell senders.
const CELL_POLL: u64 = 3;

fn bytes_per_sec(bytes: u64, elapsed_ns: u64) -> u64 {
    ((u128::from(bytes) * 1_000_000_000) / u128::from(elapsed_ns.max(1))) as u64
}

/// One site with a host per name, each on a 100 us / 6.5 MB/s link to
/// one switch.
fn star(names: impl IntoIterator<Item = String>) -> (Topology, Vec<NodeId>) {
    let mut topo = Topology::new();
    let site = topo.add_site("bench", None);
    let sw = topo.add_switch("sw", site);
    let hosts: Vec<NodeId> = names.into_iter().map(|n| topo.add_host(n, site)).collect();
    for h in &hosts {
        topo.add_link(*h, sw, SimDuration::from_micros(100), 6.5e6);
    }
    (topo, hosts)
}

/// Spawn one `SimOuterServer` per shard host, all in one fleet.
fn spawn_fleet(
    sim: &mut Simulator,
    shard_hosts: &[NodeId],
    registry: &Registry,
) -> (Vec<(NodeId, u16)>, Vec<ActorId>) {
    let members: Vec<(NodeId, u16)> = shard_hosts.iter().map(|h| (*h, SHARD_CTRL)).collect();
    let ids = (0..shard_hosts.len())
        .map(|i| {
            sim.spawn(
                shard_hosts[i],
                Box::new(
                    SimOuterServer::new(SHARD_CTRL, None, RelayModel::default())
                        .with_fleet(members.clone(), i)
                        .with_obs(registry),
                ),
            )
        })
        .collect();
    (members, ids)
}

/// Crash the shard at `serving` via the netsim fault layer.
fn crash_serving(
    sim: &mut Simulator,
    seed: u64,
    shard_hosts: &[NodeId],
    shard_ids: &[ActorId],
    serving: Option<(NodeId, u16)>,
) -> io::Result<()> {
    let serving = serving
        .ok_or_else(|| io::Error::other("the victim did not bind before the chaos point"))?
        .0;
    let victim = shard_hosts
        .iter()
        .position(|h| *h == serving)
        .ok_or_else(|| io::Error::other("advertised host is not a shard"))?;
    sim.install_faults(FaultPlan::new(seed).crash(shard_ids[victim], SimDuration::from_millis(1)));
    Ok(())
}

// ---------------------------------------------------------------------
// shard_scaling: fan-in cells over a sharded outer fleet.
// ---------------------------------------------------------------------
//
// A relay shard is one select-loop process, so each shard serializes
// its messages through one service queue (`RelayModel`). Fan-in cells
// (one bound sink + one sender each) HRW-distribute across the fleet,
// so the same workload at 1/2/4 shards measures how the fleet divides
// the relay service bottleneck — the Table 2 shape, per shard count.
// The `killshard` cell reuses the netsim fault layer to crash the
// shard serving cell 0 mid-run; stop-and-wait sequence numbers with
// exactly-once accept at the sink prove the breaker-driven failover
// loses nothing. In the `stalemap` cell the sinks still hold the
// generation-1 map of a two-shard fleet while four shards serve: a
// bind that lands on a shard which no longer owns its key is
// redirected to the owner, so the redirect hop is on the measured path.

/// What a `shard_scaling` cell adds to plain fan-in.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CellKind {
    FanIn,
    KillShard,
    StaleMap,
}

#[derive(Default)]
struct CellState {
    advertised: Option<(NodeId, u16)>,
    received: u64,
    done_at_ns: Option<u64>,
}

type CellRef = Arc<Mutex<CellState>>;

/// Fleet-bound sink of one fan-in cell. Messages are `(seq,
/// sent_at)`: the sink accepts each sequence number exactly once
/// (expected-next rule), records per-message latency from the origin
/// stamp (netsim re-stamps `Delivery::sent_at` at every relay hop, so
/// only the payload knows when the sender sent), and stamps the
/// virtual completion time. In echo mode (the kill cell) it echoes
/// every sequence number back.
struct CellSink {
    cell: CellRef,
    expect: u64,
    echo: bool,
    hist: wacs_obs::Histogram,
}

impl NxApp for CellSink {
    fn start(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        if let Some(adv) = nx.bind(ctx) {
            self.cell.lock().advertised = Some(adv);
        }
    }

    fn handle(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.cell.lock().advertised = Some(advertised);
            }
            NxHandled::Event(NxEvent::BindLost) => {
                self.cell.lock().advertised = None;
            }
            NxHandled::Data(d) => {
                let flow = d.flow;
                let (seq, sent) = d.expect::<(u64, SimTime)>();
                self.hist.record(ctx.now().since(sent).nanos());
                {
                    let mut c = self.cell.lock();
                    if seq == c.received {
                        c.received += 1;
                        if c.received == self.expect {
                            c.done_at_ns = Some(ctx.now().nanos());
                        }
                    }
                }
                if self.echo {
                    let _ = ctx.send(flow, 64, seq);
                }
            }
            _ => {}
        }
    }
}

/// Sender of one fan-in cell: once the sink is bound, connect and send
/// `(seq, sent_at)` messages. A throughput cell blasts every message
/// at once (the shard's relay queue serializes them); the kill cell
/// goes stop-and-wait, each message echoed before the next goes out,
/// and a torn connection (the shard crash) re-dials the current
/// advertised address and retransmits the unacknowledged number — the
/// sink's exactly-once accept absorbs the duplicates.
struct CellSender {
    cell: CellRef,
    start_at: SimDuration,
    msgs: u64,
    msg_bytes: u64,
    stop_and_wait: bool,
    /// First sequence number not yet acknowledged (blasting: not yet sent).
    next: u64,
    flow: Option<FlowId>,
}

impl CellSender {
    fn poll_soon(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(20), CELL_POLL);
    }

    fn send(&self, ctx: &mut Ctx<'_>, flow: FlowId, seq: u64) {
        let _ = ctx.send(flow, self.msg_bytes, (seq, ctx.now()));
    }
}

impl NxApp for CellSender {
    fn start(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_at, CELL_POLL);
    }

    fn timer(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, token: u64) {
        if token == CELL_POLL && self.flow.is_none() && self.next < self.msgs {
            let adv = self.cell.lock().advertised;
            match adv {
                Some(dst) => nx.connect(ctx, dst, 11),
                None => self.poll_soon(ctx),
            }
        }
    }

    fn handle(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.flow = Some(flow);
                if self.stop_and_wait {
                    self.send(ctx, flow, self.next);
                } else {
                    for seq in self.next..self.msgs {
                        self.send(ctx, flow, seq);
                    }
                    self.next = self.msgs;
                }
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                self.poll_soon(ctx);
            }
            NxHandled::Data(d) => {
                let seq = d.expect::<u64>();
                if seq == self.next {
                    self.next += 1;
                    if let Some(f) = self.flow.filter(|_| self.next < self.msgs) {
                        self.send(ctx, f, self.next);
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

/// One `shard_scaling` cell. The percentiles are per-message latency,
/// origin send → sink arrival, relay queue included.
pub struct ShardCellStats {
    elapsed_ns: u64,
    bytes: u64,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    shards: u64,
    pub cells: u64,
    messages: u64,
    /// Cells whose sink accepted every message.
    pub completed: u64,
    /// Shards crashed mid-run (1 in the kill cell).
    pub killed: u64,
    binds_owned: u64,
    pub redirects_sent: u64,
    pub redirects_followed: u64,
    pub failovers: u64,
    map_syncs: u64,
}

impl ShardCellStats {
    fn bytes_per_sec(&self) -> u64 {
        bytes_per_sec(self.bytes, self.elapsed_ns)
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

/// One shard-count cell run in virtual time. `KillShard` runs the
/// chaos variant: stop-and-wait sequence traffic, and the shard serving
/// cell 0 is crashed mid-run via the netsim fault layer. `StaleMap`
/// hands the sinks the map of the first half of the fleet.
fn shard_cell(
    seed: u64,
    shards: usize,
    cells: u64,
    msgs: u64,
    msg_bytes: u64,
    kind: CellKind,
) -> io::Result<ShardCellStats> {
    let kill = kind == CellKind::KillShard;
    let start_at = SimDuration::from_millis(300);
    let names = (0..shards)
        .map(|i| format!("shard{i}"))
        .chain((0..cells).map(|i| format!("srv{i}")))
        .chain((0..cells).map(|i| format!("snd{i}")));
    let (topo, hosts) = star(names);
    let (shard_hosts, rest) = hosts.split_at(shards);
    let (srv_hosts, snd_hosts) = rest.split_at(cells as usize);

    let registry = Registry::new();
    let hist = registry.histogram("paper.shard.relay_ns");
    let mut sim = Simulator::new(topo, seed);
    let (members, shard_ids) = spawn_fleet(&mut sim, shard_hosts, &registry);
    let sink_map = if kind == CellKind::StaleMap {
        members[..shards / 2].to_vec()
    } else {
        members
    };
    let cell_refs: Vec<CellRef> = (0..cells).map(|_| CellRef::default()).collect();
    for i in 0..cells as usize {
        sim.spawn(
            srv_hosts[i],
            Box::new(NxActor::new(
                NxClient::new(SimProxyEnv::direct())
                    .with_fleet(sink_map.clone())
                    .with_obs(&registry),
                CellSink {
                    cell: cell_refs[i].clone(),
                    expect: msgs,
                    echo: kill,
                    hist: hist.clone(),
                },
            )),
        );
        sim.spawn(
            snd_hosts[i],
            Box::new(NxActor::new(
                NxClient::new(SimProxyEnv::direct()),
                CellSender {
                    cell: cell_refs[i].clone(),
                    start_at,
                    msgs,
                    msg_bytes,
                    stop_and_wait: kill,
                    next: 0,
                    flow: None,
                },
            )),
        );
    }

    if kill {
        // Let the streams get going, then crash whichever shard is
        // serving cell 0's bind (discovered mid-run, like an operator
        // losing a random DMZ box).
        let crash_at = start_at + SimDuration::from_millis(25 * msgs);
        sim.run_until(SimTime(crash_at.nanos()));
        let serving = cell_refs[0].lock().advertised;
        crash_serving(&mut sim, seed, shard_hosts, &shard_ids, serving)?;
    }
    sim.run_until(SimTime(SimDuration::from_secs(600).nanos()));

    let done: Vec<u64> = cell_refs
        .iter()
        .filter_map(|c| c.lock().done_at_ns)
        .collect();
    let elapsed_ns = done
        .iter()
        .max()
        .copied()
        .unwrap_or(0)
        .saturating_sub(start_at.nanos());
    let q = |p: f64| hist.quantile(p).unwrap_or(0);
    // Every fleet party shares this registry; counter handles are
    // get-or-create by name, so these read the merged fleet totals.
    let s = ShardStats::in_registry(&registry);
    Ok(ShardCellStats {
        elapsed_ns,
        // Echo traffic crosses the relay queue twice per message.
        bytes: cells * msgs * msg_bytes * if kill { 2 } else { 1 },
        p50_ns: q(0.50),
        p95_ns: q(0.95),
        p99_ns: q(0.99),
        shards: shards as u64,
        cells,
        messages: msgs,
        completed: done.len() as u64,
        killed: u64::from(kill),
        binds_owned: s.binds_owned.get(),
        redirects_sent: s.redirects_sent.get(),
        redirects_followed: s.redirects_followed.get(),
        failovers: s.failovers.get(),
        map_syncs: s.map_syncs.get(),
    })
}

/// The `shard_scaling` scenario: cells `shards1`, `shards2`,
/// `shards4`, `killshard`, `stalemap`.
pub struct ShardScaling {
    seed: u64,
    cells: u64,
    msgs_per_cell: u64,
    msg_bytes: u64,
    pub modes: Vec<(String, ShardCellStats)>,
}

impl ShardScaling {
    /// 4-shard ÷ 1-shard fan-in throughput, ×1000.
    pub fn speedup_x1000(&self) -> u64 {
        self.modes[2].1.bytes_per_sec() * 1000 / self.modes[0].1.bytes_per_sec().max(1)
    }

    pub fn to_json(&self) -> String {
        let mut config = JsonWriter::object();
        config
            .field_u64("cells", self.cells)
            .field_u64("msgs_per_cell", self.msgs_per_cell)
            .field_u64("msg_bytes", self.msg_bytes);
        let mut modes = JsonWriter::object();
        for (name, st) in &self.modes {
            modes.field_raw(name, &st.to_json());
        }
        let mut w = JsonWriter::object();
        w.field_str("scenario", "shard_scaling")
            .field_u64("seed", self.seed)
            .field_raw("config", &config.finish())
            .field_raw("modes", &modes.finish())
            .field_u64("speedup_x1000", self.speedup_x1000());
        w.finish()
    }
}

/// Run the five `shard_scaling` cells (fixed seed, virtual time).
pub fn shard_scaling() -> io::Result<ShardScaling> {
    let (seed, cells, msgs, msg_bytes) = (0x54a2d, 12, 25, 4096);
    let mut modes = Vec::new();
    for shards in [1usize, 2, 4] {
        let st = shard_cell(seed, shards, cells, msgs, msg_bytes, CellKind::FanIn)?;
        modes.push((format!("shards{shards}"), st));
    }
    for (name, kind) in [
        ("killshard", CellKind::KillShard),
        ("stalemap", CellKind::StaleMap),
    ] {
        let st = shard_cell(seed, 4, cells, msgs, msg_bytes, kind)?;
        modes.push((name.to_string(), st));
    }
    Ok(ShardScaling {
        seed,
        cells,
        msgs_per_cell: msgs,
        msg_bytes,
        modes,
    })
}

// ---------------------------------------------------------------------
// stripe_scaling: striped bulk transfer over the sharded relay fleet.
// ---------------------------------------------------------------------

/// One `stripe_scaling` cell. A cell has at most K lane spans
/// (`wacs.stripe.stripe_ns`: first chunk arrival → full lane coverage,
/// receiver side), too few for percentiles, so it reports their exact
/// count, min and max.
pub struct StripeCellStats {
    elapsed_ns: u64,
    bytes: u64,
    lanes: u64,
    lane_span_min_ns: u64,
    lane_span_max_ns: u64,
    streams: u64,
    shards: u64,
    chunks: u64,
    chunk_bytes: u64,
    /// 1 iff the payload reassembled byte-exactly with no typed error.
    pub completed: u64,
    pub killed: u64,
    pub drop_ppm: u64,
    pub failovers: u64,
    dup_chunks: u64,
    resent_chunks: u64,
    conflicts: u64,
}

impl StripeCellStats {
    fn bytes_per_sec(&self) -> u64 {
        bytes_per_sec(self.bytes, self.elapsed_ns)
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
            .field_u64("lanes", self.lanes)
            .field_u64("lane_span_min_ns", self.lane_span_min_ns)
            .field_u64("lane_span_max_ns", self.lane_span_max_ns)
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
    let names = (0..shards)
        .map(|i| format!("shard{i}"))
        .chain(["rx".to_string(), "tx".to_string()]);
    let (topo, hosts) = star(names);
    let (shard_hosts, rest) = hosts.split_at(shards);
    let (rx_host, tx_host) = (rest[0], rest[1]);

    let registry = Registry::new();
    let lane_hist = registry.histogram("wacs.stripe.stripe_ns");
    let mut sim = Simulator::new(topo, seed);
    let (members, shard_ids) = spawn_fleet(&mut sim, shard_hosts, &registry);
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

    if drop_ppm > 0 {
        sim.install_faults(FaultPlan::new(seed).drop_messages(drop_ppm as f64 / 1e6, false));
    }
    if kill {
        // Let the lanes get going, then crash whichever shard is
        // carrying stripe 0 (discovered mid-run, like the killshard
        // cell one layer down).
        let crash_at = start_at + SimDuration::from_millis(300);
        sim.run_until(SimTime(crash_at.nanos()));
        let serving = cell.lock().advertised.first().copied().flatten();
        crash_serving(&mut sim, seed, shard_hosts, &shard_ids, serving)?;
    }
    sim.run_until(SimTime(SimDuration::from_secs(600).nanos()));

    let c = cell.lock();
    let exact = c.receiver.result().is_some_and(|(_, got)| got == **data);
    let elapsed_ns = c
        .done_at_ns
        .unwrap_or(0)
        .saturating_sub(start_at.nanos())
        .max(1);
    let spans = lane_hist.snapshot();
    Ok(StripeCellStats {
        elapsed_ns,
        bytes: total_len,
        lanes: spans.count,
        lane_span_min_ns: spans.min,
        lane_span_max_ns: spans.max,
        streams: u64::from(streams),
        shards: shards as u64,
        chunks: plan.chunk_count(),
        chunk_bytes: u64::from(chunk),
        completed: u64::from(exact && c.errors.is_empty()),
        killed: u64::from(kill),
        drop_ppm,
        failovers: c.failovers,
        dup_chunks: stats.dup_chunks.get(),
        resent_chunks: stats.resent_chunks.get(),
        conflicts: stats.conflicts.get(),
    })
}

/// The `stripe_scaling` scenario: cells `streams1`, `streams2`,
/// `streams4`, `streams8`, `lossy4`, `killstripe`.
pub struct StripeScaling {
    seed: u64,
    total_len: u64,
    chunk_bytes: u64,
    shards: u64,
    pub modes: Vec<(String, StripeCellStats)>,
}

impl StripeScaling {
    /// 4-lane ÷ 1-lane bulk throughput, ×1000.
    pub fn speedup_x1000(&self) -> u64 {
        self.modes[2].1.bytes_per_sec() * 1000 / self.modes[0].1.bytes_per_sec().max(1)
    }

    pub fn to_json(&self) -> String {
        let mut config = JsonWriter::object();
        config
            .field_u64("total_len", self.total_len)
            .field_u64("chunk_bytes", self.chunk_bytes)
            .field_u64("shards", self.shards);
        let mut modes = JsonWriter::object();
        for (name, st) in &self.modes {
            modes.field_raw(name, &st.to_json());
        }
        let mut w = JsonWriter::object();
        w.field_str("scenario", "stripe_scaling")
            .field_u64("seed", self.seed)
            .field_raw("config", &config.finish())
            .field_raw("modes", &modes.finish())
            .field_u64("speedup_x1000", self.speedup_x1000());
        w.finish()
    }
}

/// Run the six `stripe_scaling` cells (fixed seed, virtual time).
pub fn stripe_scaling() -> io::Result<StripeScaling> {
    let (seed, total_len, chunk, shards) = (0x57a1e, 8 << 20, 64 * 1024, 8);
    let mut modes = Vec::new();
    for streams in [1u16, 2, 4, 8] {
        let st = stripe_cell_run(seed, shards, streams, total_len, chunk, 0, false)?;
        modes.push((format!("streams{streams}"), st));
    }
    let lossy = stripe_cell_run(seed, shards, 4, total_len, chunk, 10_000, false)?;
    modes.push(("lossy4".to_string(), lossy));
    let kill = stripe_cell_run(seed, shards, 4, total_len, chunk, 0, true)?;
    modes.push(("killstripe".to_string(), kill));
    Ok(StripeScaling {
        seed,
        total_len,
        chunk_bytes: u64::from(chunk),
        shards: shards as u64,
        modes,
    })
}
