//! Workload `echo`: closed loop, one connection at a time.
//!
//! 64 B is where per-message cost (wake-up, hand-off, syscalls) is
//! everything and copy cost nothing; 16 KiB is the MPI eager and
//! stolen-node-batch size, where segmentation, Nagle and delayed ACK on
//! the relay legs decide the time. The pump does all the work here and
//! connection set-up none.

use crate::cells::{self, Cell, Round, PAYLOAD_VARIANTS};
use crate::gen;
use crate::layers::{self, Snap};
use crate::outcome::Outcome;
use crate::run::{self, Config, Run, ROUNDS};
use crate::stats;
use crate::topo::{self, Deployment, Server, SINK_PORT};
use crate::trace::Tracer;
use std::io;
use std::net::TcpStream;
use std::time::Duration;

const SMALL: usize = 64;
const MID: usize = 16 * 1024;
/// Warm-up echoes before each window. A 16 KiB echo stalls for tens of
/// milliseconds at the seed, so large messages get few.
const WARM_UP_SMALL: usize = 200;
/// Set-up echoes each 64 B path this often: enough work that `setup_s`
/// is not the noise of a few milliseconds of thread starts.
const SETUP_ECHOES: usize = 2000;
/// p50 of `direct-64B` on the box this was written on, pinned, on a
/// quiet day: the nominal of the reference that `two_hop-64B` and
/// `one_hop-64B` rounds are scaled by (see `cells::speed`).
const DIRECT_64B_NOMINAL_US: f64 = 4.3;
const WARM_UP_LARGE: usize = 1;

#[derive(Clone, Copy)]
enum Path {
    Direct,
    OneHop,
    TwoHop,
}

struct Echo {
    // Dropped in this order: sinks first, then the daemons.
    inside: Server,
    adv: (String, u16),
    _outside: Server,
    dep: Deployment,
}

fn payloads(seed: u64, len: usize) -> Vec<Vec<u8>> {
    (0..PAYLOAD_VARIANTS)
        .map(|i| gen::payload(seed, &format!("echo-{len}-{i}"), len))
        .collect()
}

fn warm_up_count(len: usize) -> usize {
    if len <= 1024 {
        WARM_UP_SMALL
    } else {
        WARM_UP_LARGE
    }
}

impl Echo {
    fn setup(seed: u64) -> io::Result<Echo> {
        let mut dep = Deployment::start(false)?;
        let outside = Server::outside(&dep.net, SINK_PORT, true, topo::echo_handler)?;
        dep.mark_baseline();
        let (inside, adv) = Server::inside(&dep, true, topo::echo_handler)?;
        let echo = Echo {
            inside,
            adv,
            _outside: outside,
            dep,
        };
        let small = payloads(seed, SMALL);
        for path in [Path::Direct, Path::OneHop, Path::TwoHop] {
            let mut s = echo.open_warm(path, &small)?;
            cells::echo_warm_up(&mut s, &small, SETUP_ECHOES)?;
        }
        echo.open_warm(Path::TwoHop, &payloads(seed, MID))?;
        Ok(echo)
    }

    fn open_warm(&self, path: Path, payloads: &[Vec<u8>]) -> io::Result<TcpStream> {
        let mut s = match path {
            Path::Direct => self.dep.dial_direct(SINK_PORT),
            Path::OneHop => self.dep.connect_one_hop(SINK_PORT),
            Path::TwoHop => self.dep.dial_rendezvous(&self.adv),
        }?;
        cells::echo_warm_up(&mut s, payloads, warm_up_count(payloads[0].len()))?;
        Ok(s)
    }

    /// How fast the machine is now (`cells::speed`), from a `direct-64B`
    /// round, which is added to `direct`.
    fn speed(
        &self,
        small: &[Vec<u8>],
        window: Duration,
        direct: &mut Cell,
        tr: &mut Tracer,
    ) -> io::Result<f64> {
        let r = self.round("direct-64B", Path::Direct, small, window, tr)?;
        let speed = cells::speed(DIRECT_64B_NOMINAL_US, &r);
        direct.add(r);
        Ok(speed)
    }

    /// One round of a cell: open, warm up, measure for `window`, close.
    fn round(
        &self,
        name: &'static str,
        path: Path,
        payloads: &[Vec<u8>],
        window: Duration,
        tr: &mut Tracer,
    ) -> io::Result<Round> {
        let mut s = self.open_warm(path, payloads)?;
        Ok(cells::echo_round(name, &mut s, payloads, window, tr))
    }
}

pub fn run(cfg: &Config) -> io::Result<Run> {
    let mut run = Run::new();
    let small = payloads(cfg.seed, SMALL);
    let echo = run::repeated_setup(
        &mut run.out,
        || Echo::setup(cfg.seed),
        |e| {
            e.speed(
                &small,
                cfg.round(0.05),
                &mut Cell::default(),
                &mut Tracer::new(false),
            )
        },
    )?;
    let mid = payloads(cfg.seed, MID);
    let before = Snap::take(&echo.dep);
    let Run { out, tracer } = &mut run;

    if !cfg.traced {
        let (mut a, mut b, mut c) = (Cell::default(), Cell::default(), Cell::default());
        let mut direct = Cell::default();
        for _ in 0..ROUNDS {
            let at = echo.speed(&small, cfg.round(0.05), &mut direct, tracer)?;
            let r = echo.round("one_hop-64B", Path::OneHop, &small, cfg.round(0.20), tracer)?;
            c.add_scaled(r, at);
            let at = echo.speed(&small, cfg.round(0.05), &mut direct, tracer)?;
            let r = echo.round("two_hop-64B", Path::TwoHop, &small, cfg.round(0.35), tracer)?;
            a.add_scaled(r, at);
            // Set by the kernel's delayed-ACK timer: not scaled.
            b.add(echo.round("two_hop-16KiB", Path::TwoHop, &mid, cfg.round(0.35), tracer)?);
        }
        out.cell("direct-64B (reference, unscaled)", &direct);
        out.cell("two_hop-64B", &a);
        out.cell("two_hop-16KiB", &b);
        out.cell("one_hop-64B", &c);
        out.notes.push(
            "roles: rtt_small_p50_us = op_a_us, rtt_mid_p50_us = op_b_us, one_hop-64B = op_c_us"
                .to_string(),
        );
        out.roles(
            a.us_per_op(),
            b.us_per_op(),
            c.us_per_op(),
            a.cpu_us_per_op(),
        );
    } else {
        let mut delivered = 0;
        let mut cell =
            |name, path, payloads: &[Vec<u8>], share, tr: &mut Tracer, out: &mut Outcome| {
                let round = echo.round(name, path, payloads, cfg.window(share), tr)?;
                if !matches!(path, Path::Direct) {
                    // There and back, the warm-up echoes too.
                    let len = payloads[0].len();
                    delivered += (round.attempted + warm_up_count(len) as u64) * 2 * len as u64;
                }
                io::Result::Ok(out.one_round(name, round))
            };
        let plain = cell("two_hop-64B", Path::TwoHop, &small, 0.08, tracer, out)?;
        *tracer = Tracer::new(true);
        let direct = cell("direct-64B", Path::Direct, &small, 0.05, tracer, out)?;
        let one = cell("one_hop-64B", Path::OneHop, &small, 0.08, tracer, out)?;
        let two = cell("two_hop-64B", Path::TwoHop, &small, 0.12, tracer, out)?;
        let segs = Snap::take(&echo.dep).pump_segments();
        let m = cell("two_hop-16KiB", Path::TwoHop, &mid, 0.12, tracer, out)?;
        let segs = Snap::take(&echo.dep).pump_segments() - segs;
        // Per direction and hop: a 16 KiB message crosses 2 hops twice.
        let msgs = m.attempted + WARM_UP_LARGE as u64;
        out.set("pump.segments_per_msg_mid", segs as f64 / msgs as f64 / 4.0);
        // The three lines sum to the two-hop round trip: the real-path
        // analogue of the virtual-time Table 2 decomposition.
        out.set("outer.hop_rtt_added_us", one.value() - direct.value());
        out.set("inner.hop_rtt_added_us", two.value() - one.value());
        out.set("pump.rtt_p90_us", two.p(0.9));
        out.set("pump.rtt_tail_us", stats::tail(&two.all_us).1);
        out.set(
            "bench.trace_overhead_share",
            run::trace_overhead(plain.value(), two.value()),
        );
        for (name, metric, len) in [
            ("two_hop-1KiB", "pump.rtt_p50_us.1KiB", 1024),
            ("two_hop-4KiB", "pump.rtt_p50_us.4KiB", 4096),
            ("two_hop-64KiB", "pump.rtt_p50_us.64KiB", 64 * 1024),
        ] {
            let sized = payloads(cfg.seed, len);
            let c = cell(name, Path::TwoHop, &sized, 0.04, tracer, out)?;
            out.set(metric, c.value());
        }
        layers::all(&echo.dep, &before, delivered, cfg, out)?;
    }

    let Echo { inside, dep, .. } = echo;
    drop(inside);
    run::leak_gate(&dep, &mut run.out);
    Ok(run)
}
