//! Ablation: cross-traffic on the 1.5 Mbps IMnet link (`paper
//! ablation_congestion`).
//!
//! The paper measured a quiet research WAN. This study injects
//! competing bulk flows on the shared gateway↔ETL segment and re-runs
//! the Table 2 WAN cells, showing how the direct/indirect comparison
//! degrades under contention — the per-link FIFO queueing model at
//! work. (The proxy's verdict is contention-robust: both paths share
//! the same bottleneck.)

use crate::{fmt_bw, fmt_ms};
use netsim::prelude::*;
use nexus_proxy::sim::{NxClient, NxEvent, NxHandled, SimInnerServer, SimOuterServer, SimProxyEnv};
use std::sync::Arc;
use wacs_core::calibration as cal;
use wacs_core::testbed::{FirewallMode, PaperTestbed, NXPORT, OUTER_CTRL_PORT};
use wacs_sync::Mutex;

/// Fires a bulk message across the WAN every `period`, forever.
struct CrossTraffic {
    dst: (NodeId, u16),
    size: u64,
    period: SimDuration,
    flow: Option<FlowId>,
}

impl Actor for CrossTraffic {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.connect(self.dst, 0);
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        if let FlowEvent::Connected { flow, .. } = ev {
            self.flow = Some(flow);
            ctx.set_timer(SimDuration::ZERO, 1);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        if let Some(flow) = self.flow {
            let _ = ctx.send(flow, self.size, ());
            ctx.set_timer(self.period, 1);
        }
    }
}

/// Sink for cross-traffic.
struct Sink {
    port: u16,
}

impl Actor for Sink {
    // A taken port here is a typo in this harness; abort with context.
    #[allow(clippy::expect_used)]
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.listen(self.port).expect("sink port in use"); // lint:allow(unwrap-panic)
    }
}

/// A ping-pong measurement with optional WAN cross-traffic, built on
/// the same actors as the Table 2 harness but assembled here so the
/// background load can be injected.
fn measure(indirect: bool, size: u64, load_fraction: f64) -> (SimDuration, f64) {
    // Reuse wacs-core's harness when unloaded; otherwise rebuild with
    // cross traffic.
    let mode = if indirect {
        FirewallMode::DenyInWithNxport
    } else {
        FirewallMode::TemporarilyOpen
    };
    let tb = PaperTestbed::build(mode);
    let mut sim = Simulator::new(tb.topo.clone(), NetConfig::default(), 3);
    if indirect {
        sim.spawn(
            tb.rwcp_outer,
            Box::new(SimOuterServer::new(
                OUTER_CTRL_PORT,
                Some((tb.rwcp_inner, NXPORT)),
                cal::relay_model(),
            )),
        );
        sim.spawn(
            tb.rwcp_inner,
            Box::new(SimInnerServer::new(NXPORT, cal::relay_model())),
        );
    }
    // Cross traffic: bulk messages etl-o2k → rwcp-outer sized so the
    // long-run WAN load is `load_fraction` of capacity. (The outer host
    // sits outside the firewall, so this traffic is firewall-neutral.)
    if load_fraction > 0.0 {
        let chunk = 64 * 1024u64;
        let period =
            SimDuration::from_secs_f64(chunk as f64 / (cal::WAN_BANDWIDTH * load_fraction));
        sim.spawn(tb.rwcp_outer, Box::new(Sink { port: 9100 }));
        sim.spawn(
            tb.etl_o2k,
            Box::new(CrossTraffic {
                dst: (tb.rwcp_outer, 9100),
                size: chunk,
                period,
                flow: None,
            }),
        );
    }

    // The measured pair (same roles as the Table 2 harness).
    let shared: Shared = Arc::default();
    let env_server = if indirect {
        SimProxyEnv::via((tb.rwcp_outer, OUTER_CTRL_PORT))
    } else {
        SimProxyEnv::direct()
    };
    sim.spawn(
        tb.rwcp_sun,
        Box::new(PpServer {
            nx: NxClient::new(env_server),
            shared: shared.clone(),
            size,
            pong_flow: None,
        }),
    );
    sim.spawn(
        tb.etl_sun,
        Box::new(PpClient {
            nx: NxClient::new(SimProxyEnv::direct()),
            shared: shared.clone(),
            size,
            rounds_left: 10,
            flow: None,
            t0: None,
        }),
    );
    sim.run_until(SimTime(SimDuration::from_secs(300).nanos()));
    let st = shared.lock();
    // The run above either finishes the ping-pong or the harness is
    // broken; abort rather than chart a bogus number.
    #[allow(clippy::expect_used)]
    let one_way = st.result.expect("measurement incomplete"); // lint:allow(unwrap-panic)
    (one_way, size as f64 / one_way.as_secs_f64())
}

#[derive(Default)]
struct PpState {
    server_adv: Option<(NodeId, u16)>,
    result: Option<SimDuration>,
}
type Shared = Arc<Mutex<PpState>>;

struct PpServer {
    nx: NxClient,
    shared: Shared,
    size: u64,
    pong_flow: Option<FlowId>,
}

impl PpServer {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.shared.lock().server_adv = Some(advertised);
            }
            NxHandled::Event(NxEvent::Accepted { flow }) => {
                self.pong_flow = Some(flow);
            }
            NxHandled::Data(d) => {
                let flow = self.pong_flow.unwrap_or(d.flow);
                let size = self.size;
                let _ = self.nx.send_data(ctx, flow, size, ());
            }
            _ => {}
        }
    }
}

impl Actor for PpServer {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(adv) = self.nx.bind(ctx) {
            self.shared.lock().server_adv = Some(adv);
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, m: Delivery) {
        let h = self.nx.on_message(ctx, m);
        self.handle(ctx, h);
    }
}

struct PpClient {
    nx: NxClient,
    shared: Shared,
    size: u64,
    rounds_left: u32,
    flow: Option<FlowId>,
    t0: Option<SimTime>,
}

impl PpClient {
    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.flow = Some(flow);
                self.t0 = Some(ctx.now());
                let size = self.size;
                let _ = self.nx.send_data(ctx, flow, size, ());
            }
            NxHandled::Data(d) => {
                self.rounds_left -= 1;
                if self.rounds_left == 0 {
                    // t0 is stamped when the flow connects, before the
                    // first ping can complete a round.
                    #[allow(clippy::expect_used)]
                    let elapsed = ctx.now().since(self.t0.expect("t0 set at start")); // lint:allow(unwrap-panic)
                    self.shared.lock().result = Some(SimDuration(elapsed.nanos() / 20)); // 10 RTTs
                    ctx.stop_simulation();
                    return;
                }
                let (flow, size) = (d.flow, self.size);
                let _ = self.nx.send_data(ctx, flow, size, ());
            }
            _ => {}
        }
    }
}

impl Actor for PpClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 7);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _t: u64) {
        if self.flow.is_none() {
            let adv = self.shared.lock().server_adv;
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 0),
                None => ctx.set_timer(SimDuration::from_millis(1), 7),
            }
        }
    }
    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_>, m: Delivery) {
        let h = self.nx.on_message(ctx, m);
        self.handle(ctx, h);
    }
}

/// The four Table 2 WAN cells at 0/30/60/90 % WAN load.
pub fn ablation_congestion() {
    println!("Ablation: WAN cross-traffic vs the Table 2 WAN cells\n");
    println!(
        "{:>10} | {:>12} {:>12} | {:>14} {:>14}",
        "WAN load", "direct lat", "proxied lat", "direct bw(64K)", "proxied bw(64K)"
    );
    for load in [0.0, 0.3, 0.6, 0.9] {
        let (dl, _) = measure(false, 1, load);
        let (il, _) = measure(true, 1, load);
        let (_, dbw) = measure(false, 65536, load);
        let (_, ibw) = measure(true, 65536, load);
        println!(
            "{:>9.0}% | {:>12} {:>12} | {:>14} {:>14}",
            load * 100.0,
            fmt_ms(dl.as_millis_f64()),
            fmt_ms(il.as_millis_f64()),
            fmt_bw(dbw),
            fmt_bw(ibw)
        );
    }
    println!("\nBoth paths share the congested bottleneck: contention inflates them");
    println!("together, so the paper's direct-vs-proxied verdict is load-robust.");
}
