//! Workload `churn`: connection set-up bound, one client.
//!
//! Control round trip, outer and inner dial, relay-table insert and GC
//! and thread (or reactor) registration do all the work; steady copy
//! does none. A pump that got faster by moving cost into registration
//! loses here. `passive` is the job-launch and MPI-init shape; `open`
//! sends on a schedule whether or not the last connect has finished, so
//! a stall is charged to every request it delays.

use crate::cells::{self, Cell, Round, RoundClock};
use crate::gen;
use crate::layers::{self, Snap};
use crate::outcome::Outcome;
use crate::run::{self, Config, Run, ROUNDS};
use crate::stats::{self, Windowed};
use crate::topo::{self, Deployment, Server, SINK_PORT};
use crate::trace::Tracer;
use std::io;
use std::thread;
use std::time::{Duration, Instant};

const PAYLOAD: usize = 64;
/// Connects of each kind before anything is measured.
const WARM_UP_OPS: usize = 20;
/// Operations of each cell in one round of the plain pass. Counts, not
/// windows: every closed connection sits in the kernel's TIME_WAIT
/// table for a minute, and once a few runs in a row have filled the
/// loopback port range with those, every `bind` of a fresh listener
/// takes milliseconds to find a free port (a passive open went from
/// 2.2 ms to 7.8 ms). These keep a run near 6500 connections, well
/// under what saturates the range with runs back to back; the rounds
/// are spaced over the run's measured time.
const ACTIVE_OPS: u64 = 60;
const PASSIVE_OPS: u64 = 25;
const OPEN_ARRIVALS: f64 = 45.0;
/// Direct connects (dial the outside sink, 64 B echo, close: a connect
/// with no relay in it) right before and right after each `active`
/// round: the speed reference `cpu_us_per_op` is brought to nominal by.
const REFERENCE_OPS: u64 = 40;
/// Process CPU per direct connect on a quiet day, pinned. Frozen.
const REFERENCE_CPU_NOMINAL_US: f64 = 31.0;
/// The share of an active connect's CPU that slows down with the
/// reference. When the machine has one of its slow spells, CPU per
/// direct connect (a tight loop in warm cache) rises by up to 2.2x but
/// CPU per active connect only by 1.5x: the rest of it is spent waking
/// from the daemons' 1 ms sleeps into a cold cache, slow in any weather.
/// A line through 38 runs (per-run medians, reference 28 to 66 us) puts
/// 0.44 to 0.48 of the connect's CPU on the reference at nominal.
const REFERENCE_SHARE: f64 = 0.5;
/// Arrival rate of the `open` cell: about 40% of the closed-loop rate
/// of `active` at the seed (1.1 ms per connect, so ~900/s). Frozen, so
/// parent and change are offered the same load.
const OPEN_RATE_PER_S: f64 = 330.0;
/// Below this the generator spins to the due time instead of sleeping.
const SPIN_BELOW: Duration = Duration::from_micros(200);

struct Churn {
    // Dropped in this order: the sink first, then the daemons.
    _outside: Option<Server>,
    dep: Deployment,
    payload: Vec<u8>,
}

#[derive(Clone, Copy)]
enum Kind {
    Active,
    Passive,
}

impl Churn {
    fn setup(seed: u64, fleet: bool) -> io::Result<Churn> {
        let mut dep = Deployment::start(fleet)?;
        // One connection at a time, so no thread is spawned on the
        // measured path; the fleet deployment only runs `passive`.
        let outside = if fleet {
            None
        } else {
            Some(Server::outside(
                &dep.net,
                SINK_PORT,
                false,
                topo::echo_handler,
            )?)
        };
        dep.mark_baseline();
        let churn = Churn {
            _outside: outside,
            dep,
            payload: gen::payload(seed, "churn", PAYLOAD),
        };
        let mut quiet = Tracer::new(false);
        for i in 0..WARM_UP_OPS as u64 {
            if !fleet {
                churn.active(i, None, &mut quiet)?;
            }
            churn.passive(i, &mut quiet)?;
        }
        Ok(churn)
    }

    /// `nx_proxy_connect` + 64 B echo + close. Returns the time from
    /// `since` (default: the call) to the first echoed byte, in us.
    fn active(&self, op: u64, since: Option<Instant>, tr: &mut Tracer) -> io::Result<f64> {
        let mut buf = [0u8; PAYLOAD];
        let root = tr.begin("churn.active", op, None);
        let start = Instant::now();
        let span = tr.begin("client.connect_call", op, root);
        let connected = self.dep.connect_one_hop(SINK_PORT);
        tr.end(span);
        let span = tr.begin("client.first_byte", op, root);
        let echoed = connected.and_then(|mut s| {
            let same = cells::echo_once(&mut s, &self.payload, &mut buf)?;
            Ok((s, same))
        });
        tr.end(span);
        let us = since.unwrap_or(start).elapsed().as_nanos() as f64 / 1e3;
        let span = tr.begin("client.close", op, root);
        let same = echoed.map(|(s, same)| {
            drop(s);
            same
        });
        tr.end(span);
        tr.end(root);
        match same? {
            true => Ok(us),
            false => Err(io::Error::other("echo mismatch")),
        }
    }

    /// `nx_proxy_bind`, an outside peer dials the rendezvous, `accept`,
    /// 64 B echo over the accepted stream, close both ends.
    fn passive(&self, op: u64, tr: &mut Tracer) -> io::Result<f64> {
        let mut buf = [0u8; PAYLOAD];
        let root = tr.begin("churn.passive", op, None);
        let start = Instant::now();
        let span = tr.begin("client.bind_call", op, root);
        let bound = self.dep.bind_inside();
        tr.end(span);
        let span = tr.begin("client.accept_wait", op, root);
        let pair = bound.and_then(|listener| {
            let peer = self.dep.dial_rendezvous(&listener.advertised)?;
            let accepted = listener.accept()?;
            topo::tune(&accepted);
            Ok((listener, peer, accepted))
        });
        tr.end(span);
        let span = tr.begin("client.first_byte", op, root);
        let same = pair.and_then(|(listener, mut peer, mut accepted)| {
            use std::io::{Read, Write};
            peer.write_all(&self.payload)?;
            accepted.read_exact(&mut buf)?;
            accepted.write_all(&buf)?;
            let mut back = [0u8; PAYLOAD];
            peer.read_exact(&mut back)?;
            Ok((listener, back == self.payload[..]))
        });
        tr.end(span);
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        tr.end(root);
        match same?.1 {
            true => Ok(us),
            false => Err(io::Error::other("echo mismatch")),
        }
    }

    /// `ops` connects of one kind, one after the other.
    fn closed(&self, kind: Kind, ops: u64, tr: &mut Tracer) -> Round {
        let mut samples = Vec::with_capacity(ops as usize);
        let clock = RoundClock::start(Duration::ZERO);
        for op in 0..ops {
            let done = match kind {
                Kind::Active => self.active(op, None, tr),
                Kind::Passive => self.passive(op, tr),
            };
            samples.extend(done.ok());
        }
        clock.latencies(samples, ops)
    }

    /// `ops` direct connects, one after the other: the reference.
    fn direct(&self, ops: u64) -> Round {
        let mut buf = [0u8; PAYLOAD];
        let mut samples = Vec::with_capacity(ops as usize);
        let clock = RoundClock::start(Duration::ZERO);
        for _ in 0..ops {
            let start = Instant::now();
            let same = self
                .dep
                .dial_direct(SINK_PORT)
                .and_then(|mut s| cells::echo_once(&mut s, &self.payload, &mut buf));
            if matches!(same, Ok(true)) {
                samples.push(start.elapsed().as_nanos() as f64 / 1e3);
            }
        }
        clock.latencies(samples, ops)
    }

    /// About `arrivals` active opens on a seeded Poisson schedule, each
    /// timed from its due time. Also returns how late the generator
    /// started each one (us) and the largest number of due requests
    /// waiting at once.
    fn open(&self, seed: u64, arrivals: f64, tr: &mut Tracer) -> (Round, Vec<f64>, usize) {
        let window_ns = (arrivals / OPEN_RATE_PER_S * 1e9) as u64;
        let due = gen::poisson_schedule(seed, OPEN_RATE_PER_S, window_ns);
        let mut samples = Vec::with_capacity(due.len());
        let mut late_us = Vec::with_capacity(due.len());
        let mut backlog_max = 0usize;
        let clock = RoundClock::start(Duration::from_nanos(window_ns));
        let t0 = Instant::now();
        for (i, &due_ns) in due.iter().enumerate() {
            let due_at = t0 + Duration::from_nanos(due_ns);
            loop {
                let left = due_at.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                } else if left > SPIN_BELOW {
                    thread::sleep(left - SPIN_BELOW / 2);
                } else {
                    std::hint::spin_loop();
                }
            }
            let now_ns = t0.elapsed().as_nanos() as u64;
            late_us.push(now_ns.saturating_sub(due_ns) as f64 / 1e3);
            // Requests due by now, this one not counted.
            backlog_max = backlog_max.max(due[i + 1..].partition_point(|&d| d <= now_ns));
            samples.extend(self.active(i as u64, Some(due_at), tr).ok());
        }
        (
            clock.latencies(samples, due.len() as u64),
            late_us,
            backlog_max,
        )
    }

    /// Client close to the relay leaving the outer server's table.
    fn relay_drain_us(&self, ops: u64, out: &mut Outcome) -> Vec<f64> {
        let mut buf = [0u8; PAYLOAD];
        let mut drained = Vec::new();
        for _ in 0..ops {
            let echoed = self
                .dep
                .connect_one_hop(SINK_PORT)
                .and_then(|mut s| Ok((cells::echo_once(&mut s, &self.payload, &mut buf)?, s)));
            out.check(matches!(echoed, Ok((true, _))), "drain: connect and echo");
            let t = Instant::now();
            drop(echoed);
            while self.dep.outer().active_relays() > 0 && t.elapsed() < Duration::from_secs(2) {
                std::hint::spin_loop();
            }
            drained.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
        drained
    }
}

fn span_p50(tr: &Tracer, name: &str) -> f64 {
    stats::percentile(&tr.durations_us(name), 0.5)
}

/// CPU per active connect at the reference's nominal speed: the rounds
/// as measured, divided by how much slower than nominal the part of a
/// connect that follows the reference ran. `reference_us` is the median
/// over the run's reference rounds, not the one round next to each
/// connect round: the machine's speed changes within a round, so a pair
/// of neighbours agrees no better than two rounds a second apart, and
/// the two medians sample the same stretch of machine time.
fn nominal_cpu(measured: &Windowed, reference_us: f64) -> Windowed {
    let slowdown =
        1.0 - REFERENCE_SHARE + REFERENCE_SHARE * reference_us / REFERENCE_CPU_NOMINAL_US;
    let per: Vec<f64> = measured.per.iter().map(|us| us / slowdown).collect();
    Windowed::of(&per, measured.n)
}

pub fn run(cfg: &Config) -> io::Result<Run> {
    let mut run = Run::new();
    // Set-up time here is the daemons' 1 ms accept polls: not scaled.
    let churn = run::repeated_setup(&mut run.out, || Churn::setup(cfg.seed, false), |_| Ok(1.0))?;
    let before = Snap::take(&churn.dep);
    let Run { out, tracer } = &mut run;

    if !cfg.traced {
        let (mut a, mut b, mut c) = (Cell::default(), Cell::default(), Cell::default());
        let mut reference = Cell::default();
        let (mut late, mut backlog) = (Vec::new(), 0);
        let started = Instant::now();
        for round in 0..ROUNDS {
            reference.add(churn.direct(REFERENCE_OPS));
            a.add(churn.closed(Kind::Active, ACTIVE_OPS, tracer));
            reference.add(churn.direct(REFERENCE_OPS));
            b.add(churn.closed(Kind::Passive, PASSIVE_OPS, tracer));
            let seed = cfg.seed.wrapping_add(u64::from(round));
            let (open, late_us, waiting) = churn.open(seed, OPEN_ARRIVALS, tracer);
            c.add(open);
            late.extend(late_us);
            backlog = backlog.max(waiting);
            thread::sleep((cfg.round(1.0) * (round + 1)).saturating_sub(started.elapsed()));
        }
        out.cell("active", &a);
        out.cell("passive", &b);
        out.cell("open", &c);
        out.cell("direct (reference)", &reference);
        let cpu = nominal_cpu(&a.cpu_us_per_op(), reference.cpu_us_per_op().value);
        out.notes.push(format!(
            "CPU per active connect {:.1} us as measured, per direct connect {:.1} us (nominal {REFERENCE_CPU_NOMINAL_US}); \
             {REFERENCE_SHARE} of a connect's CPU follows the reference",
            a.cpu_us_per_op().value,
            reference.cpu_us_per_op().value,
        ));
        out.notes.push(format!(
            "open loop: {OPEN_RATE_PER_S} arrivals/s offered, generator late p90 {:.1} us, backlog max {backlog}",
            stats::percentile(&late, 0.9)
        ));
        out.notes.push(
            "roles: connect_p50_us = op_a_us, bind_accept_p50_us = op_b_us, connect_open_p50_us = op_c_us"
                .to_string(),
        );
        out.roles(a.us_per_op(), b.us_per_op(), c.us_per_op(), cpu);
    } else {
        let plain = out.one_round("active", churn.closed(Kind::Active, 300, tracer));
        *tracer = Tracer::new(true);
        let a = out.one_round("active", churn.closed(Kind::Active, 400, tracer));
        let b = out.one_round("passive", churn.closed(Kind::Passive, 250, tracer));
        for (metric, span) in [
            ("client.connect_call_p50_us", "client.connect_call"),
            ("client.first_byte_p50_us", "client.first_byte"),
            ("client.bind_call_p50_us", "client.bind_call"),
            ("client.accept_wait_p50_us", "client.accept_wait"),
        ] {
            out.set(metric, span_p50(tracer, span));
        }
        let (open, late, backlog) = churn.open(cfg.seed, 200.0, tracer);
        let c = out.one_round("open", open);
        out.set("client.connect_open_p90_us", c.p(0.9));
        out.set("client.gen_late_p90_us", stats::percentile(&late, 0.9));
        out.set("client.backlog_max", backlog as f64);
        out.set("inner.accept_added_us", b.value() - a.value());
        out.set(
            "bench.trace_overhead_share",
            run::trace_overhead(plain.value(), a.value()),
        );
        let drained = churn.relay_drain_us(100, out);
        out.set("outer.relay_drain_p50_us", stats::percentile(&drained, 0.5));

        // The same passive cell through a two-shard fleet: off the
        // gated path today, recorded so the first fleet change has a
        // baseline to be compared with.
        let fleet = Churn::setup(cfg.seed, true)?;
        let sharded = out.one_round("passive-fleet2", fleet.closed(Kind::Passive, 100, tracer));
        out.set("shard.bind_accept_added_us", sharded.value() - b.value());
        run::leak_gate(&fleet.dep, out);
        drop(fleet);

        let ops = plain.attempted + a.attempted + b.attempted + c.attempted + 100;
        layers::all(&churn.dep, &before, ops * 2 * PAYLOAD as u64, cfg, out)?;
    }

    run::leak_gate(&churn.dep, &mut run.out);
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_follows_the_reference_by_its_share_only() {
        let measured = Windowed::of(&[300.0, 450.0, 600.0], 180);
        // At nominal speed nothing changes.
        let same = nominal_cpu(&measured, REFERENCE_CPU_NOMINAL_US);
        assert_eq!((same.value, same.n), (450.0, 180));
        // Reference twice as slow: the half that follows it halves.
        let slow = nominal_cpu(&measured, 2.0 * REFERENCE_CPU_NOMINAL_US);
        assert!((slow.value - 300.0).abs() < 1e-9);
        assert!((slow.iqr - measured.iqr / 1.5).abs() < 1e-9);
    }
}
