//! Per-hop latency decomposition of the Table 2 data paths.
//!
//! A single one-way probe message is pushed through the exact path a
//! Table 2 cell's pings take, and its end-to-end time (equal to the
//! cell's `PingPongResult::forward`, which Table 2's bandwidth divides
//! by) is split into the legs and relay service gaps it traversed:
//!
//! * **direct** — one component: the wire transit itself.
//! * **indirect LAN** (RWCP-Sun ↔ COMPaS, both proxied) — five:
//!   client→outer leg, outer relay service, outer→inner leg, inner
//!   relay service, inner→target leg.
//! * **indirect WAN** (RWCP-Sun ↔ ETL-Sun, client proxied) — three:
//!   client→outer leg, outer relay service, WAN leg to the target.
//!
//! Every component is the difference of two virtual-time event stamps,
//! and consecutive components share their boundary stamp, so the
//! components *telescope*: they sum to the end-to-end latency exactly
//! (0 sim-ticks of error), which `tests/table2_decomposition.rs` pins.
//!
//! The leg/service figures come from the `wacs-obs` histograms the
//! relay cores record ([`nexus_proxy::sim::RelayCore::set_obs`]); the
//! final leg and the total are measured at the target from the
//! delivery's engine stamp and the origin stamp carried in the probe
//! payload. The probe is sent with a raw `ctx.send` (no segmentation),
//! so exactly one message crosses each instrument.

use crate::calibration as cal;
use crate::experiments::{Mode, Pair};
use crate::testbed::PaperWorld;
use netsim::prelude::*;
use nexus_proxy::sim::{NxActor, NxApp, NxClient, NxEvent, NxHandled, RelayModel};
use std::sync::Arc;
use wacs_obs::Registry;
use wacs_sync::Mutex;

/// One additive piece of an end-to-end latency.
#[derive(Debug, Clone)]
pub struct Component {
    pub name: &'static str,
    pub nanos: u64,
    /// Wire/queue transit (true) vs. relay service time (false) — the
    /// split the "WAN dominates" claim is about.
    pub is_transit: bool,
}

/// The decomposition of one Table 2 cell's one-way latency.
#[derive(Debug, Clone)]
pub struct Decomposition {
    pub pair: Pair,
    pub mode: Mode,
    pub size: u64,
    /// End-to-end one-way latency of the probe (origin stamp → target
    /// delivery), in virtual nanos.
    pub total_ns: u64,
    /// In path order; sums to `total_ns` exactly.
    pub components: Vec<Component>,
}

impl Decomposition {
    /// Sum of the components (== `total_ns` by construction; asserted
    /// by the golden test, reported in the JSON for auditability).
    pub fn component_sum(&self) -> u64 {
        self.components.iter().map(|c| c.nanos).sum()
    }

    /// The largest transit (non-service) component, if any.
    pub fn dominant_transit(&self) -> Option<&Component> {
        self.components
            .iter()
            .filter(|c| c.is_transit)
            .max_by_key(|c| c.nanos)
    }

    /// Deterministic JSON object (see EXPERIMENTS.md for the schema).
    pub fn to_json(&self) -> String {
        let mut w = wacs_obs::json::JsonWriter::object();
        w.field_str("pair", self.pair.name());
        w.field_str("mode", self.mode.name());
        w.field_u64("size", self.size);
        w.field_u64("total_ns", self.total_ns);
        w.field_u64("sum_ns", self.component_sum());
        let mut arr = wacs_obs::json::JsonWriter::array();
        for c in &self.components {
            let mut obj = wacs_obs::json::JsonWriter::object();
            obj.field_str("name", c.name);
            obj.field_u64("ns", c.nanos);
            obj.field_raw("transit", if c.is_transit { "true" } else { "false" });
            arr.raw(&obj.finish());
        }
        w.field_raw("components", &arr.finish());
        w.finish()
    }
}

/// Origin stamp carried inside the probe payload: the engine re-stamps
/// `sent_at` at every relay hop, so end-to-end time needs the original.
struct ProbeStamp(SimTime);

#[derive(Default)]
struct ProbeState {
    server_adv: Option<(NodeId, u16)>,
    total_ns: Option<u64>,
    last_leg_ns: Option<u64>,
}

type ProbeShared = Arc<Mutex<ProbeState>>;

const POLL: u64 = 1;
const SETTLE: u64 = 2;

/// How long the probe waits after `Connected` before it is sent.
/// `Connected` reaches the client before the outer relay has paired the
/// passive bridge to a proxied target; a probe sent at once waits in
/// the relay for that bridge, and the set-up would be booked as relay
/// service. After the settle the chain is bridged, so the probe takes
/// the path a steady-state Table 2 ping takes.
const SETTLE_AFTER_CONNECT: SimDuration = SimDuration::from_millis(100);

/// Target of the probe: binds (via the proxy when firewalled), then
/// measures the one message that arrives.
struct ProbeServer {
    shared: ProbeShared,
}

impl NxApp for ProbeServer {
    fn start(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        if let Some(adv) = nx.bind(ctx) {
            self.shared.lock().server_adv = Some(adv);
        }
    }

    fn handle(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.shared.lock().server_adv = Some(advertised);
            }
            NxHandled::Data(d) => {
                let now = ctx.now();
                let mut st = self.shared.lock();
                st.last_leg_ns = Some(now.since(d.sent_at).nanos());
                if let Some(stamp) = d.peek::<ProbeStamp>() {
                    st.total_ns = Some(now.since(stamp.0).nanos());
                }
                drop(st);
                ctx.stop_simulation();
            }
            _ => {}
        }
    }
}

/// Source of the probe: waits for the target's advertised address,
/// connects, lets the relay chain bridge, and fires exactly one
/// stamped message.
struct ProbeClient {
    shared: ProbeShared,
    size: u64,
    flow: Option<FlowId>,
}

impl NxApp for ProbeClient {
    fn start(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), POLL);
    }

    fn timer(&mut self, nx: &mut NxClient, ctx: &mut Ctx<'_>, token: u64) {
        match (token, self.flow) {
            (POLL, _) => {
                let adv = self.shared.lock().server_adv;
                match adv {
                    Some(dst) => nx.connect(ctx, dst, 0),
                    None => ctx.set_timer(SimDuration::from_millis(1), POLL),
                }
            }
            (SETTLE, Some(flow)) => {
                // Raw send: one message through every instrument, no
                // segmentation framing.
                let stamp = ProbeStamp(ctx.now());
                let _ = ctx.send(flow, self.size, stamp);
            }
            _ => {}
        }
    }

    fn handle(&mut self, _nx: &mut NxClient, ctx: &mut Ctx<'_>, h: NxHandled) {
        if let NxHandled::Event(NxEvent::Connected { flow, .. }) = h {
            self.flow = Some(flow);
            ctx.set_timer(SETTLE_AFTER_CONNECT, SETTLE);
        }
    }
}

/// Sum of a single-sample histogram in `snap` (0 when absent/empty —
/// the component then simply reports zero, and the telescoping check
/// in the golden test catches any miswiring).
fn hist_sum(snap: &wacs_obs::RegistrySnapshot, name: &str) -> u64 {
    snap.histograms.get(name).map_or(0, |h| h.sum)
}

/// Decompose one Table 2 cell with the calibrated relay model.
pub fn decompose(pair: Pair, mode: Mode, size: u64) -> Decomposition {
    decompose_with_model(pair, mode, size, cal::relay_model())
}

/// [`decompose`] with an explicit relay cost model (for the
/// `ablation_relay` sweep).
pub fn decompose_with_model(pair: Pair, mode: Mode, size: u64, model: RelayModel) -> Decomposition {
    let registry = Registry::new();
    let mut w = PaperWorld::build(mode.firewall(), 1, model, registry.clone());
    let (client_host, server_host) = pair.hosts(&w.tb);
    let shared: ProbeShared = Arc::default();
    w.sim.spawn(
        server_host,
        Box::new(NxActor::new(
            NxClient::new(w.env(server_host)),
            ProbeServer {
                shared: shared.clone(),
            },
        )),
    );
    w.sim.spawn(
        client_host,
        Box::new(NxActor::new(
            NxClient::new(w.env(client_host)),
            ProbeClient {
                shared: shared.clone(),
                size,
                flow: None,
            },
        )),
    );
    w.sim.run();

    let st = shared.lock();
    // The probe is one message over the same wiring every Table 2 test
    // exercises; not arriving means the harness itself is broken.
    #[allow(clippy::expect_used)]
    let total_ns = st.total_ns.expect("probe did not arrive"); // lint:allow(unwrap-panic)
    #[allow(clippy::expect_used)]
    let last_leg_ns = st.last_leg_ns.expect("probe did not arrive"); // lint:allow(unwrap-panic)
    drop(st);
    let snap = registry.snapshot();

    let components = match (mode, pair) {
        (Mode::Direct, _) => vec![Component {
            name: "wire_transit",
            nanos: last_leg_ns,
            is_transit: true,
        }],
        // Both endpoints proxied: the probe crosses the outer relay
        // (rendezvous side) and the inner relay.
        (Mode::Indirect, Pair::RwcpSunCompas) => vec![
            Component {
                name: "client_to_outer",
                nanos: hist_sum(&snap, "proxy.outer.leg_in_ns"),
                is_transit: true,
            },
            Component {
                name: "outer_relay_service",
                nanos: hist_sum(&snap, "proxy.outer.service_ns"),
                is_transit: false,
            },
            Component {
                name: "outer_to_inner",
                nanos: hist_sum(&snap, "proxy.inner.leg_in_ns"),
                is_transit: true,
            },
            Component {
                name: "inner_relay_service",
                nanos: hist_sum(&snap, "proxy.inner.service_ns"),
                is_transit: false,
            },
            Component {
                name: "inner_to_target",
                nanos: last_leg_ns,
                is_transit: true,
            },
        ],
        // Client proxied, ETL target open: one relay, then the WAN leg.
        (Mode::Indirect, Pair::RwcpSunEtlSun) => vec![
            Component {
                name: "client_to_outer",
                nanos: hist_sum(&snap, "proxy.outer.leg_in_ns"),
                is_transit: true,
            },
            Component {
                name: "outer_relay_service",
                nanos: hist_sum(&snap, "proxy.outer.service_ns"),
                is_transit: false,
            },
            Component {
                name: "wan_to_target",
                nanos: last_leg_ns,
                is_transit: true,
            },
        ],
    };

    Decomposition {
        pair,
        mode,
        size,
        total_ns,
        components,
    }
}

/// Decompose every Table 2 cell (both pairs × both modes) at `size`
/// bytes and render one deterministic JSON report.
pub fn table2_report(size: u64) -> String {
    let mut arr = wacs_obs::json::JsonWriter::array();
    for pair in [Pair::RwcpSunCompas, Pair::RwcpSunEtlSun] {
        for mode in [Mode::Direct, Mode::Indirect] {
            arr.raw(&decompose(pair, mode, size).to_json());
        }
    }
    let mut w = wacs_obs::json::JsonWriter::object();
    w.field_str("report", "table2_decomposition");
    w.field_u64("size", size);
    w.field_raw("cells", &arr.finish());
    w.finish()
}
