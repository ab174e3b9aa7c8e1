//! The experiment harness: everything needed to regenerate the paper's
//! tables, as library functions (`wacs-bench`'s `paper` bin only
//! formats the output).
//!
//! * [`pingpong`] — Table 2: latency/bandwidth, direct vs. indirect;
//! * [`run_knapsack`] / [`sequential_baseline`] — Tables 4-6.

use crate::calibration as cal;
use crate::testbed::{FirewallMode, PaperTestbed, RankPlace, System, NXPORT, OUTER_CTRL_PORT};
use knapsack::instance::Instance;
use knapsack::sim::{MasterActor, Shared, SlaveActor};
use knapsack::{ParParams, RunResult};
use netsim::engine::{NetConfig, Simulator};
use netsim::prelude::*;
use nexus_proxy::sim::{NxClient, NxEvent, NxHandled, SimInnerServer, SimOuterServer, SimProxyEnv};
use std::sync::Arc;
use wacs_sync::Mutex;

/// Which Table 2 pair to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pair {
    /// RWCP-Sun ↔ COMPaS (the 100Base-T LAN pair).
    RwcpSunCompas,
    /// RWCP-Sun ↔ ETL-Sun (the 1.5 Mbps IMnet WAN pair).
    RwcpSunEtlSun,
}

impl Pair {
    pub fn name(self) -> &'static str {
        match self {
            Pair::RwcpSunCompas => "RWCP-Sun <-> COMPaS",
            Pair::RwcpSunEtlSun => "RWCP-Sun <-> ETL-Sun",
        }
    }
}

/// Communication mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Firewall temporarily opened; plain sockets.
    Direct,
    /// Deny-in firewall; traffic relayed by the Nexus Proxy.
    Indirect,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Direct => "direct",
            Mode::Indirect => "indirect",
        }
    }
}

/// One Table 2 measurement.
///
/// `one_way` is half the ping-pong round trip (the latency metric);
/// `bandwidth` is `size / forward one-way time`, matching the era's
/// one-directional stream measurements (the Nexus reply channel back
/// into a firewalled site crosses *two* relays, the forward channel
/// often one — Table 2's WAN row only makes sense with the forward
/// metric).
#[derive(Debug, Clone, Copy)]
pub struct PingPongResult {
    pub one_way: SimDuration,
    /// Forward one-way time (ping direction).
    pub forward: SimDuration,
    /// Payload bytes per second at this message size (forward).
    pub bandwidth: f64,
}

/// Nexus-style dual-channel ping-pong: the client sends pings on a
/// channel it opened to the server; pongs return on a *separate*
/// channel the server opened back to the client (startpoint/endpoint
/// channels are one-way, so this is how MPICH-G round trips actually
/// flow — and why the proxied WAN latency in Table 2 reflects 1.5
/// relay traversals per direction on average).
struct PingState {
    server_adv: Option<(NodeId, u16)>,
    client_adv: Option<(NodeId, u16)>,
    one_way: Option<SimDuration>,
    /// Server-side one-way samples of the ping (C1) direction — the
    /// era's bandwidth methodology measures the forward stream, not
    /// the round trip.
    c1_samples: Vec<SimDuration>,
}

type PingShared = Arc<Mutex<PingState>>;

/// Ping payload: the original send instant, carried end-to-end (the
/// engine's `sent_at` is re-stamped by each relay hop, so the origin
/// time must ride in the payload).
struct PingStamp(SimTime);

struct PpServer {
    nx: NxClient,
    shared: PingShared,
    size: u64,
    /// Channel back to the client (C2), once connected.
    pong_flow: Option<FlowId>,
    /// Pings that arrived before C2 connected.
    early: u32,
}

const POLL: u64 = 1;

impl PpServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.shared.lock().server_adv = Some(advertised);
                ctx.set_timer(SimDuration::from_millis(1), POLL);
            }
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.pong_flow = Some(flow);
                for _ in 0..self.early {
                    let size = self.size;
                    let _ = self.nx.send_data(ctx, flow, size, ());
                }
                self.early = 0;
            }
            NxHandled::Data(d) => {
                if let Some(stamp) = d.peek::<PingStamp>() {
                    self.shared.lock().c1_samples.push(ctx.now().since(stamp.0));
                }
                match self.pong_flow {
                    Some(flow) => {
                        let size = self.size;
                        let _ = self.nx.send_data(ctx, flow, size, ());
                    }
                    None => self.early += 1,
                }
            }
            _ => {}
        }
    }
}

impl Actor for PpServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(adv) = self.nx.bind(ctx) {
            self.shared.lock().server_adv = Some(adv);
            ctx.set_timer(SimDuration::from_millis(1), POLL);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
            return;
        }
        if token == POLL && self.pong_flow.is_none() {
            let adv = self.shared.lock().client_adv;
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 1),
                None => ctx.set_timer(SimDuration::from_millis(1), POLL),
            }
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

struct PpClient {
    nx: NxClient,
    shared: PingShared,
    size: u64,
    warmup: u32,
    reps: u32,
    ping_flow: Option<FlowId>,
    pong_ready: bool,
    round: u32,
    t0: Option<SimTime>,
}

impl PpClient {
    fn maybe_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(flow) = self.ping_flow {
            if self.pong_ready && self.round == 0 {
                self.round = 1;
                let size = self.size;
                let stamp = PingStamp(ctx.now());
                let _ = self.nx.send_data(ctx, flow, size, stamp);
            }
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                // Proxied mode: the pong endpoint's rendezvous address
                // arrives asynchronously.
                self.shared.lock().client_adv = Some(advertised);
            }
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.ping_flow = Some(flow);
                self.maybe_start(ctx);
            }
            NxHandled::Event(NxEvent::Accepted { .. }) => {
                // The server's pong channel reached us.
                self.pong_ready = true;
                self.maybe_start(ctx);
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                ctx.stop_simulation();
            }
            NxHandled::Data(_) => {
                // One pong = one completed round.
                if self.round == self.warmup {
                    self.t0 = Some(ctx.now());
                }
                if self.round == self.warmup + self.reps {
                    // t0 was stored when `round` passed `warmup` above; a
                    // missing stamp is a harness bug worth an abort.
                    #[allow(clippy::expect_used)]
                    let elapsed = ctx.now().since(self.t0.expect("t0 set at warmup end")); // lint:allow(unwrap-panic)
                    let one_way = SimDuration(elapsed.nanos() / u64::from(2 * self.reps));
                    self.shared.lock().one_way = Some(one_way);
                    ctx.stop_simulation();
                    return;
                }
                self.round += 1;
                // Pings go out on C1; pongs come back on the separate C2
                // connection, so d.flow must NOT be used here. C1 exists
                // before any pong can arrive (maybe_start gates on it).
                #[allow(clippy::expect_used)]
                let flow = self.ping_flow.expect("pong before ping channel"); // lint:allow(unwrap-panic)
                let size = self.size;
                let stamp = PingStamp(ctx.now());
                let _ = self.nx.send_data(ctx, flow, size, stamp);
            }
            _ => {}
        }
    }
}

impl Actor for PpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Bind the pong endpoint first so the server can reach back.
        if let Some(adv) = self.nx.bind(ctx) {
            self.shared.lock().client_adv = Some(adv);
        }
        ctx.set_timer(SimDuration::from_millis(1), POLL);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
            return;
        }
        if token == POLL && self.ping_flow.is_none() {
            let adv = self.shared.lock().server_adv;
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 2),
                None => ctx.set_timer(SimDuration::from_millis(1), POLL),
            }
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// Measure one Table 2 cell: one-way time and bandwidth for messages
/// of `size` bytes between `pair` under `mode`, with the calibrated
/// relay model.
pub fn pingpong(pair: Pair, mode: Mode, size: u64) -> PingPongResult {
    pingpong_with_model(pair, mode, size, cal::relay_model())
}

/// [`pingpong`] with an explicit relay cost model (the `ablation_relay`
/// sensitivity study).
pub fn pingpong_with_model(
    pair: Pair,
    mode: Mode,
    size: u64,
    model: nexus_proxy::sim::RelayModel,
) -> PingPongResult {
    let fw_mode = match mode {
        Mode::Direct => FirewallMode::TemporarilyOpen,
        Mode::Indirect => FirewallMode::DenyInWithNxport,
    };
    let tb = PaperTestbed::build(fw_mode);
    let (client_host, server_host) = match pair {
        Pair::RwcpSunCompas => (tb.rwcp_sun, tb.compas[0]),
        Pair::RwcpSunEtlSun => (tb.rwcp_sun, tb.etl_sun),
    };
    let registry = wacs_obs::Registry::new();
    let mut sim = Simulator::new(tb.topo.clone(), NetConfig::default(), 1);
    sim.install_obs(registry.clone());

    // Per-host proxy policy: RWCP hosts are proxied under Indirect;
    // ETL hosts never are (no firewall there).
    let env_for = |host: NodeId| -> SimProxyEnv {
        if mode == Mode::Indirect && tb.topo.site_of(host) == tb.rwcp_site {
            SimProxyEnv::via((tb.rwcp_outer, OUTER_CTRL_PORT))
        } else {
            SimProxyEnv::direct()
        }
    };

    if mode == Mode::Indirect {
        sim.spawn(
            tb.rwcp_outer,
            Box::new(
                SimOuterServer::new(OUTER_CTRL_PORT, Some((tb.rwcp_inner, NXPORT)), model)
                    .with_obs(&registry),
            ),
        );
        sim.spawn(
            tb.rwcp_inner,
            Box::new(SimInnerServer::new(NXPORT, model).with_obs(&registry)),
        );
    }

    let shared: PingShared = Arc::new(Mutex::new(PingState {
        server_adv: None,
        client_adv: None,
        one_way: None,
        c1_samples: Vec::new(),
    }));
    sim.spawn(
        server_host,
        Box::new(PpServer {
            nx: NxClient::new(env_for(server_host)).with_obs(&registry),
            shared: shared.clone(),
            size,
            pong_flow: None,
            early: 0,
        }),
    );
    sim.spawn(
        client_host,
        Box::new(PpClient {
            nx: NxClient::new(env_for(client_host)).with_obs(&registry),
            shared: shared.clone(),
            size,
            warmup: 2,
            reps: 8,
            ping_flow: None,
            pong_ready: false,
            round: 0,
            t0: None,
        }),
    );
    sim.run();
    let st = shared.lock();
    // The sim ran to completion above; a missing sample means the proxy
    // wiring for this scenario is broken, which should fail loudly.
    #[allow(clippy::expect_used)]
    let one_way = st
        .one_way
        .expect("ping-pong did not complete — check proxy wiring"); // lint:allow(unwrap-panic)
                                                                    // Average the measured (post-warmup) forward samples.
    let measured = &st.c1_samples[2.min(st.c1_samples.len())..];
    let forward = if measured.is_empty() {
        one_way
    } else {
        SimDuration(measured.iter().map(|d| d.nanos()).sum::<u64>() / measured.len() as u64)
    };
    PingPongResult {
        one_way,
        forward,
        bandwidth: size as f64 / forward.as_secs_f64(),
    }
}

/// Configuration of a Table 4 knapsack run.
#[derive(Debug, Clone)]
pub struct KnapsackRun {
    pub system: System,
    /// Use the Nexus Proxy (deny-in firewall). The paper's Table 3:
    /// local- and wide-area systems use "mpich Globus device which
    /// utilize the Nexus Proxy"; single-cluster systems use native
    /// MPIs (direct).
    pub use_proxy: bool,
    pub items: usize,
    pub params: ParParams,
    pub seed: u64,
}

impl KnapsackRun {
    /// The paper's configuration for a system.
    pub fn paper_default(system: System, items: usize) -> KnapsackRun {
        KnapsackRun {
            system,
            use_proxy: matches!(system, System::LocalArea | System::WideArea),
            items,
            params: cal::best_params(),
            seed: 2000,
        }
    }
}

/// Execute a knapsack run on the simulated testbed; returns the
/// gathered [`RunResult`] (virtual-time `elapsed_secs`).
pub fn run_knapsack(cfg: &KnapsackRun) -> RunResult {
    run_knapsack_with_mode(cfg, paper_mode(cfg))
}

/// The firewall a run's proxy choice implies: deny-in with the nxport
/// hole behind the proxy, temporarily opened without it.
fn paper_mode(cfg: &KnapsackRun) -> FirewallMode {
    if cfg.use_proxy {
        FirewallMode::DenyInWithNxport
    } else {
        FirewallMode::TemporarilyOpen
    }
}

/// [`run_knapsack`] under an explicit firewall mode — used by the
/// port-range ablation, where the firewall stays up but opens a
/// listener range instead of deploying the proxy.
pub fn run_knapsack_with_mode(cfg: &KnapsackRun, fw_mode: FirewallMode) -> RunResult {
    knapsack_world(cfg, fw_mode, |tb| cfg.system.ranks(tb), None).result
}

/// Fault-injection configuration for a knapsack run: the scenarios the
/// fault ablation sweeps (WAN chunk loss, outer-proxy crash/restart).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed of the fault RNG (independent of the run's traffic seed, so
    /// the same workload can be replayed under different fault draws).
    pub seed: u64,
    /// Per-chunk drop probability on inter-site (WAN) links.
    pub wan_drop: f64,
    /// Crash the outer proxy server at this virtual offset (only
    /// meaningful for proxied runs).
    pub outer_crash_at: Option<SimDuration>,
    /// Revive the outer proxy this long after the crash.
    pub outer_restart_after: SimDuration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 7,
            wan_drop: 0.0,
            outer_crash_at: None,
            outer_restart_after: SimDuration::from_millis(250),
        }
    }
}

/// Outcome of a knapsack run under fault injection: the workload result
/// plus the recovery-path counters the ablation reports.
#[derive(Debug, Clone)]
pub struct FaultRun {
    pub result: RunResult,
    /// Proxy-layer retries observed by the ranks (dial retries,
    /// endpoint re-binds after an outer restart).
    pub nx_retries: u64,
    /// Chunks lost to fault injection.
    pub chunks_dropped: u64,
    /// End-to-end retransmissions those losses triggered.
    pub retransmits: u64,
    pub actor_crashes: u64,
    pub actor_restarts: u64,
    /// Full metrics snapshot of the run: engine (`netsim.*`), proxy
    /// control plane (`proxy.*`) and workload (`knapsack.*`)
    /// instruments. Virtual-time only, so the same `(cfg, faults)`
    /// pair produces a byte-identical `to_json()`.
    pub obs: wacs_obs::RegistrySnapshot,
}

/// [`run_knapsack`] under a [`FaultConfig`]: same testbed and actors,
/// with the fault plan installed before the run. Deterministic — the
/// same `(cfg, faults)` pair always produces the same virtual-time
/// trace, retry counts included.
///
/// # Panics
/// Panics if the workload fails to complete within the one-hour
/// virtual-time horizon (an unsurvivable fault plan).
pub fn run_knapsack_with_faults(cfg: &KnapsackRun, faults: &FaultConfig) -> FaultRun {
    knapsack_world(
        cfg,
        paper_mode(cfg),
        |tb| cfg.system.ranks(tb),
        Some(faults),
    )
}

/// Sequential baseline: "we ran the sequential version of the 0-1
/// knapsack problem on RWCP-Sun, and its execution time was used to
/// calculate the speedup." One master, zero slaves, on rwcp-sun.
pub fn sequential_baseline(items: usize) -> RunResult {
    let cfg = KnapsackRun {
        use_proxy: false,
        seed: 0,
        ..KnapsackRun::paper_default(System::WideArea, items)
    };
    let alone = |tb: &PaperTestbed| {
        vec![RankPlace {
            host: tb.rwcp_sun,
            group: "RWCP-Sun".into(),
        }]
    };
    knapsack_world(&cfg, FirewallMode::TemporarilyOpen, alone, None).result
}

/// The one knapsack world: the paper testbed under `fw_mode`, the relay
/// pair when `cfg.use_proxy`, the master on the first of `places` (which
/// replaces `cfg.system`'s placement) and a slave on each further one.
/// With `faults`, their plan is installed and the run is cut at a
/// one-hour virtual horizon.
fn knapsack_world(
    cfg: &KnapsackRun,
    fw_mode: FirewallMode,
    places: impl FnOnce(&PaperTestbed) -> Vec<RankPlace>,
    faults: Option<&FaultConfig>,
) -> FaultRun {
    let tb = PaperTestbed::build(fw_mode);
    let ranks = places(&tb);
    let inst = Arc::new(Instance::no_pruning(cfg.items));
    let shared: Shared = Arc::default();
    let registry = shared.lock().obs.clone();
    let mut sim = Simulator::new(tb.topo.clone(), NetConfig::default(), cfg.seed);
    sim.install_obs(registry.clone());

    let inner = (tb.rwcp_inner, NXPORT);
    let outer = move |reg: &wacs_obs::Registry| {
        Box::new(
            SimOuterServer::new(OUTER_CTRL_PORT, Some(inner), cal::relay_model()).with_obs(reg),
        )
    };
    let mut outer_id = None;
    if cfg.use_proxy {
        outer_id = Some(sim.spawn(tb.rwcp_outer, outer(&registry)));
        sim.spawn(
            tb.rwcp_inner,
            Box::new(SimInnerServer::new(NXPORT, cal::relay_model()).with_obs(&registry)),
        );
    }

    for (i, place) in ranks.iter().enumerate() {
        let env = if cfg.use_proxy && tb.topo.site_of(place.host) == tb.rwcp_site {
            SimProxyEnv::via((tb.rwcp_outer, OUTER_CTRL_PORT))
        } else {
            SimProxyEnv::direct()
        };
        let (inst, shared, group) = (inst.clone(), shared.clone(), place.group.clone());
        let actor: Box<dyn Actor> = if i == 0 {
            let nslaves = ranks.len() - 1;
            Box::new(MasterActor::new(
                inst, cfg.params, env, shared, group, nslaves,
            ))
        } else {
            Box::new(SlaveActor::new(
                inst, cfg.params, env, shared, i as u32, group,
            ))
        };
        sim.spawn(place.host, actor);
    }

    if let Some(faults) = faults {
        let mut plan = FaultPlan::new(faults.seed);
        if faults.wan_drop > 0.0 {
            plan = plan.drop_messages(faults.wan_drop, true);
        }
        if let (Some(at), Some(id)) = (faults.outer_crash_at, outer_id) {
            let restart_reg = registry.clone();
            plan = plan.crash_restart(id, at, faults.outer_restart_after, move || {
                outer(&restart_reg)
            });
        }
        sim.install_faults(plan);
        // Virtual-time safety cap: with the retry layer in place a run
        // survives transient faults, but an unsurvivable plan (e.g. a
        // crash with no restart) would otherwise retry forever.
        sim.run_until(SimTime(SimDuration::from_secs(3600).nanos()));
    } else {
        sim.run();
    }
    let stats = sim.stats();
    let st = shared.lock();
    // A finished run always publishes a result; anything else is a
    // master/slave protocol bug or an unsurvivable fault plan, and
    // deserves the abort.
    #[allow(clippy::expect_used)]
    let result = st.result.clone().expect("knapsack run did not finish"); // lint:allow(unwrap-panic)
    FaultRun {
        result,
        nx_retries: st.nx_retries,
        chunks_dropped: stats.chunks_dropped,
        retransmits: stats.retransmits,
        actor_crashes: stats.actor_crashes,
        actor_restarts: stats.actor_restarts,
        obs: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_lan_latency_matches_table2_anchor() {
        let r = pingpong(Pair::RwcpSunCompas, Mode::Direct, 1);
        let ms = r.one_way.as_millis_f64();
        // Paper: 0.41 ms. Accept ±40%.
        assert!((0.25..0.6).contains(&ms), "direct LAN latency {ms} ms");
    }

    #[test]
    fn direct_wan_latency_matches_table2_anchor() {
        let r = pingpong(Pair::RwcpSunEtlSun, Mode::Direct, 1);
        let ms = r.one_way.as_millis_f64();
        // Paper: 3.9 ms. Accept ±30%.
        assert!((2.7..5.1).contains(&ms), "direct WAN latency {ms} ms");
    }

    #[test]
    fn indirect_latencies_match_table2_anchor() {
        let lan = pingpong(Pair::RwcpSunCompas, Mode::Indirect, 1)
            .one_way
            .as_millis_f64();
        let wan = pingpong(Pair::RwcpSunEtlSun, Mode::Indirect, 1)
            .one_way
            .as_millis_f64();
        // Paper: 25.0 and 25.1 ms. Accept a generous band; the *shape*
        // claims (x60 LAN, x6 WAN) are asserted in the workspace test.
        assert!((15.0..40.0).contains(&lan), "indirect LAN latency {lan} ms");
        assert!((15.0..40.0).contains(&wan), "indirect WAN latency {wan} ms");
    }

    #[test]
    fn wan_bulk_bandwidth_is_proxy_insensitive() {
        let direct = pingpong(Pair::RwcpSunEtlSun, Mode::Direct, 1 << 20).bandwidth;
        let indirect = pingpong(Pair::RwcpSunEtlSun, Mode::Indirect, 1 << 20).bandwidth;
        let drop = (direct - indirect) / direct;
        // "the overhead of the Nexus Proxy can be negligible when the
        // message size is large" — under 30% here.
        assert!(
            drop < 0.30,
            "bulk WAN drop {drop:.2} (direct {direct:.0}, indirect {indirect:.0})"
        );
    }

    #[test]
    fn quick_knapsack_runs_on_all_systems() {
        let seq = sequential_baseline(cal::QUICK_ITEMS);
        assert_eq!(
            seq.total_traversed(),
            Instance::full_tree_nodes(cal::QUICK_ITEMS)
        );
        for system in System::ALL {
            let rr = run_knapsack(&KnapsackRun::paper_default(system, cal::QUICK_ITEMS));
            assert_eq!(
                rr.total_traversed(),
                Instance::full_tree_nodes(cal::QUICK_ITEMS),
                "{}",
                system.name()
            );
            assert_eq!(
                rr.best,
                Instance::no_pruning(cal::QUICK_ITEMS).total_profit()
            );
            let speedup = seq.elapsed_secs / rr.elapsed_secs;
            assert!(
                speedup > 1.5,
                "{} speedup {speedup:.2} (seq {:.1}s, par {:.1}s)",
                system.name(),
                seq.elapsed_secs,
                rr.elapsed_secs
            );
        }
    }

    #[test]
    fn wide_area_proxy_overhead_is_small() {
        let with = run_knapsack(&KnapsackRun {
            use_proxy: true,
            ..KnapsackRun::paper_default(System::WideArea, cal::QUICK_ITEMS)
        });
        let without = run_knapsack(&KnapsackRun {
            use_proxy: false,
            ..KnapsackRun::paper_default(System::WideArea, cal::QUICK_ITEMS)
        });
        let overhead = (with.elapsed_secs - without.elapsed_secs) / without.elapsed_secs;
        // Paper: ≈3.5%. At the scaled-down test size communication is
        // relatively heavier; accept < 35% here (at the full
        // TABLE4_ITEMS size the harness lands near 5%).
        assert!(
            overhead < 0.35,
            "proxy overhead {overhead:.3} (with {:.2}s, without {:.2}s)",
            with.elapsed_secs,
            without.elapsed_secs
        );
    }
}
