//! Workload `bulk`: closed-loop streams of 1 MiB writes over two hops.
//!
//! Steady-state copy, pool and segment size do all the work; per-message
//! and set-up cost vanish. `in1` beside `out1` is the same pump copying
//! the other way, so a gain for one direction paid for by the other
//! shows; `striped2` is the K=2 bulk-data plane over two relays.

use crate::cells::{self, Cell, Round, RoundClock, StreamCtl, MIB};
use crate::gen;
use crate::layers::{self, Snap};
use crate::run::{self, Config, Run, ROUNDS};
use crate::stats;
use crate::topo::{self, Deployment, Server, OUTSIDE, SINK_PORT};
use crate::trace::Tracer;
use nexus_proxy::{send_striped, StripePlan, StripeReceiver};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

const STRIPED_BYTES: usize = 32 * MIB;
const LANES: u16 = 2;
/// The stripe layer's default chunk size.
const STRIPE_CHUNK: u32 = 64 * 1024;
/// Set-up streams this long per direction before anything is measured.
const WARM_UP_WINDOW: Duration = Duration::from_millis(20);
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// Microseconds per MiB of the `direct` stream on the box this was
/// written on, pinned, on a quiet day (1600 MiB/s): the nominal of the
/// reference every round of the plain pass is scaled by (see
/// `cells::speed`).
const DIRECT_NOMINAL_US_PER_MIB: f64 = 625.0;

/// The first byte an outside peer sends names what the inside end of
/// the connection does.
const ROLE_SINK: u8 = b'S';
const ROLE_SEND: u8 = b'R';
const ROLE_LANE: u8 = b'L';

/// An inside sender's work order: stream for `window`, report back.
struct SendJob {
    ctl: Arc<StreamCtl>,
    window: Duration,
    done: Sender<io::Result<Round>>,
}

/// What the benchmark's sinks are currently serving.
#[derive(Default)]
struct Jobs {
    inside_sink: Mutex<Option<Arc<StreamCtl>>>,
    inside_send: Mutex<Option<SendJob>>,
    outside_sink: Mutex<Option<Arc<StreamCtl>>>,
    lanes: Mutex<Option<(StripeReceiver, Sender<Instant>)>>,
}

fn slot<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn serve_inside(jobs: &Jobs, chunk: &[u8], mut s: TcpStream) {
    let mut role = [0u8; 1];
    if s.read_exact(&mut role).is_err() {
        return;
    }
    match role[0] {
        ROLE_SINK => {
            let ctl = slot(&jobs.inside_sink).clone();
            if let Some(ctl) = ctl {
                let _ = cells::stream_sink(&mut s, &ctl);
            }
        }
        ROLE_SEND => {
            let job = slot(&jobs.inside_send).take();
            if let Some(job) = job {
                let mut quiet = Tracer::new(false);
                let sent = cells::stream_round(&mut s, chunk, &job.ctl, job.window, &mut quiet);
                let _ = job.done.send(sent);
            }
        }
        ROLE_LANE => {
            let lanes = slot(&jobs.lanes).clone();
            if let Some((rx, done)) = lanes {
                let _ = s.set_read_timeout(None);
                let _ = rx.feed(&mut s, None);
                let _ = done.send(Instant::now());
            }
        }
        _ => {}
    }
}

struct Bulk {
    // Dropped in this order: sinks first, then the daemons.
    inside: Server,
    adv: (String, u16),
    _outside: Server,
    dep: Deployment,
    jobs: Arc<Jobs>,
    chunk: Arc<Vec<u8>>,
    striped: Vec<u8>,
}

impl Bulk {
    fn setup(seed: u64) -> io::Result<Bulk> {
        let mut dep = Deployment::start(false)?;
        let jobs = Arc::new(Jobs::default());
        let chunk = Arc::new(gen::payload(seed, "bulk-chunk", MIB));
        let sink_jobs = jobs.clone();
        let outside = Server::outside(&dep.net, SINK_PORT, true, move |mut s| {
            let ctl = slot(&sink_jobs.outside_sink).clone();
            if let Some(ctl) = ctl {
                let _ = cells::stream_sink(&mut s, &ctl);
            }
        })?;
        dep.mark_baseline();
        let (inside_jobs, inside_chunk) = (jobs.clone(), chunk.clone());
        let (inside, adv) = Server::inside(&dep, true, move |s| {
            serve_inside(&inside_jobs, &inside_chunk, s);
        })?;
        let bulk = Bulk {
            inside,
            adv,
            _outside: outside,
            dep,
            jobs,
            chunk,
            striped: gen::payload(seed, "bulk-striped", STRIPED_BYTES),
        };
        let mut quiet = Tracer::new(false);
        for round in [
            bulk.out1(WARM_UP_WINDOW, &mut quiet)?,
            bulk.in1(WARM_UP_WINDOW)?,
            bulk.striped2(Duration::ZERO, &mut quiet)?.0,
        ] {
            if round.failed > 0 {
                return Err(io::Error::other("payload mismatch during warm-up"));
            }
        }
        Ok(bulk)
    }

    fn dial_as(&self, role: u8) -> io::Result<TcpStream> {
        let mut s = self.dep.dial_rendezvous(&self.adv)?;
        s.write_all(&[role])?;
        Ok(s)
    }

    /// Outside peer streams into the bound inside sink.
    fn out1(&self, window: Duration, tr: &mut Tracer) -> io::Result<Round> {
        let ctl = Arc::new(StreamCtl::new());
        *slot(&self.jobs.inside_sink) = Some(ctl.clone());
        let mut s = self.dial_as(ROLE_SINK)?;
        cells::stream_round(&mut s, &self.chunk, &ctl, window, tr)
    }

    /// The bound inside end streams back out to the peer.
    fn in1(&self, window: Duration) -> io::Result<Round> {
        let ctl = Arc::new(StreamCtl::new());
        let (done, sent) = mpsc::channel();
        *slot(&self.jobs.inside_send) = Some(SendJob {
            ctl: ctl.clone(),
            window,
            done,
        });
        let mut s = self.dial_as(ROLE_SEND)?;
        cells::stream_sink(&mut s, &ctl)?;
        sent.recv_timeout(REPLY_TIMEOUT)
            .map_err(|_| io::Error::other("inside sender never reported"))?
    }

    /// Inside client streams to the outside sink, through the outer
    /// server only (the one-hop rate `inner.stream_ratio` divides by) or
    /// with no relay at all (the plain pass's speed reference).
    fn to_outside(&self, relayed: bool, window: Duration, tr: &mut Tracer) -> io::Result<Round> {
        let ctl = Arc::new(StreamCtl::new());
        *slot(&self.jobs.outside_sink) = Some(ctl.clone());
        let mut s = match relayed {
            true => self.dep.connect_one_hop(SINK_PORT),
            false => self.dep.dial_direct(SINK_PORT),
        }?;
        cells::stream_round(&mut s, &self.chunk, &ctl, window, tr)
    }

    /// How fast the machine is now (`cells::speed`), from a direct stream
    /// round, which is added to `direct`.
    fn speed(&self, window: Duration, direct: &mut Cell, tr: &mut Tracer) -> io::Result<f64> {
        let r = self.to_outside(false, window, tr)?;
        let speed = cells::speed(DIRECT_NOMINAL_US_PER_MIB, &r);
        direct.add(r);
        Ok(speed)
    }

    /// `send_striped` over two relays into a `StripeReceiver`, repeated
    /// until `window` is over (at least once). Each transfer is timed
    /// to the last lane's end and compared with what was sent. Returns
    /// the round (us per MiB), the slowest/fastest lane time of each
    /// transfer, and the redials.
    fn striped2(&self, window: Duration, tr: &mut Tracer) -> io::Result<(Round, Vec<f64>, u64)> {
        let plan =
            StripePlan::new(STRIPED_BYTES as u64, LANES, STRIPE_CHUNK).map_err(io::Error::from)?;
        let (net, adv) = (self.dep.net.clone(), self.adv.clone());
        let dial = move |_stripe: u16, _attempt: u32| -> io::Result<TcpStream> {
            let mut s = net.dial(OUTSIDE, &adv.0, adv.1)?;
            topo::tune(&s);
            s.write_all(&[ROLE_LANE])?;
            Ok(s)
        };
        let mut samples = Vec::new();
        let (mut attempted, mut redials) = (0u64, 0u64);
        let mut skews = Vec::new();
        let clock = RoundClock::start(window);
        loop {
            let rx = StripeReceiver::new();
            let (done, lane_done) = mpsc::channel();
            *slot(&self.jobs.lanes) = Some((rx.clone(), done));
            let start = Instant::now();
            let span = tr.begin("stripe.send_striped", attempted, None);
            let report = send_striped(&self.striped, &plan, attempted + 1, 0, 0, None, &dial)?;
            tr.end(span);
            let mut lane_us = Vec::new();
            for _ in 0..LANES {
                let at = lane_done
                    .recv_timeout(REPLY_TIMEOUT)
                    .map_err(|_| io::Error::other("a stripe lane never finished"))?;
                lane_us.push(at.duration_since(start).as_nanos() as f64 / 1e3);
            }
            attempted += 1;
            redials += report.redials;
            if rx.result().is_some_and(|(_, p)| p == self.striped) {
                let slowest = stats::percentile(&lane_us, 1.0);
                skews.push(slowest / stats::percentile(&lane_us, 0.0).max(1.0));
                samples.push(slowest / (STRIPED_BYTES / MIB) as f64);
            }
            if clock.over() {
                break;
            }
        }
        *slot(&self.jobs.lanes) = None;
        Ok((clock.latencies(samples, attempted), skews, redials))
    }
}

pub fn run(cfg: &Config) -> io::Result<Run> {
    let mut run = Run::new();
    let bulk = run::repeated_setup(
        &mut run.out,
        || Bulk::setup(cfg.seed),
        |b| {
            b.speed(
                cfg.round(0.05),
                &mut Cell::default(),
                &mut Tracer::new(false),
            )
        },
    )?;
    let before = Snap::take(&bulk.dep);
    let Run { out, tracer } = &mut run;

    if !cfg.traced {
        let (mut a, mut b, mut c) = (Cell::default(), Cell::default(), Cell::default());
        let mut direct = Cell::default();
        let reference = cfg.round(0.05);
        for _ in 0..ROUNDS {
            let at = bulk.speed(reference, &mut direct, tracer)?;
            a.add_scaled(bulk.out1(cfg.round(0.30), tracer)?, at);
            let at = bulk.speed(reference, &mut direct, tracer)?;
            b.add_scaled(bulk.in1(cfg.round(0.25))?, at);
            let at = bulk.speed(reference, &mut direct, tracer)?;
            c.add_scaled(bulk.striped2(cfg.round(0.30), tracer)?.0, at);
        }
        out.cell("direct (reference, unscaled)", &direct);
        out.cell("out1", &a);
        out.cell("in1", &b);
        out.cell("striped2", &c);
        out.notes.push(format!(
            "roles: goodput_out_MiBps = 1e6/op_a_us = {:.1}, goodput_in_MiBps = 1e6/op_b_us = {:.1}, \
             goodput_striped_MiBps = 1e6/op_c_us = {:.1}, cpu_s_per_GiB = cpu_us_per_op*1024/1e6 = {:.4}",
            a.ops_per_s(),
            b.ops_per_s(),
            c.ops_per_s(),
            a.cpu_us_per_op().value * 1024.0 / 1e6,
        ));
        out.roles(
            a.us_per_op(),
            b.us_per_op(),
            c.us_per_op(),
            a.cpu_us_per_op(),
        );
    } else {
        let plain = out.one_round("out1", bulk.out1(cfg.window(0.08), tracer)?);
        *tracer = Tracer::new(true);
        let a = out.one_round("out1", bulk.out1(cfg.window(0.12), tracer)?);
        let b = out.one_round("in1", bulk.in1(cfg.window(0.10))?);
        let (round, skews, redials) = bulk.striped2(cfg.window(0.12), tracer)?;
        let c = out.one_round("striped2", round);
        let one = bulk.to_outside(true, cfg.window(0.06), tracer)?;
        let one = out.one_round("one_hop-out1", one);
        // One of each direction at once: two connections, two senders.
        let window = cfg.window(0.10);
        let (dup_out, dup_in) = thread::scope(|scope| {
            let back = scope.spawn(|| bulk.in1(window));
            let out_round = bulk.out1(window, tracer);
            let in_round = back
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("duplex2 sender thread panicked")));
            (out_round, in_round)
        });
        let dup_out = out.one_round("duplex2-out", dup_out?);
        let dup_in = out.one_round("duplex2-in", dup_in?);

        // MiB/s is operations per second when the operation is a MiB.
        out.set(
            "pump.duplex_MiBps",
            dup_out.ops_per_s() + dup_in.ops_per_s(),
        );
        out.set(
            "inner.stream_ratio",
            a.ops_per_s() / one.ops_per_s().max(f64::MIN_POSITIVE),
        );
        out.set("stripe.lane_skew", stats::median(&skews));
        out.set("stripe.redials", redials as f64);
        out.set(
            "bench.trace_overhead_share",
            run::trace_overhead(plain.value(), a.value()),
        );
        let streamed: u64 = [&plain, &a, &b, &one, &dup_out, &dup_in]
            .iter()
            .map(|c| (c.attempted - 1) * MIB as u64)
            .sum();
        let delivered = streamed + c.attempted * STRIPED_BYTES as u64;
        layers::all(&bulk.dep, &before, delivered, cfg, out)?;
    }

    let Bulk { inside, dep, .. } = bulk;
    drop(inside);
    run::leak_gate(&dep, &mut run.out);
    Ok(run)
}
