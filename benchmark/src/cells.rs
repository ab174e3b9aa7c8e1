//! Measurement primitives shared by the workloads: rounds and the cells
//! they add up to, the closed-loop echo loop and the two ends of a
//! verified bulk stream.

use crate::gen::Checksum;
use crate::host;
use crate::stats::{self, Windowed};
use crate::trace::Tracer;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const MIB: usize = 1 << 20;
/// Echo payload variants cycled through, so a stale echo cannot pass.
pub const PAYLOAD_VARIANTS: usize = 8;

/// One contiguous measured window of one cell.
#[derive(Default)]
pub struct Round {
    /// Microseconds per operation: the p50 of the samples of a latency
    /// cell, the window divided by the completions of a rate cell.
    pub us_per_op: f64,
    /// Process CPU microseconds spent during the round.
    pub cpu_us: f64,
    pub samples_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub window_s: f64,
}

/// Measures one round: wall and process CPU time from `start`.
pub struct RoundClock {
    started: Instant,
    cpu_us: f64,
    pub window: Duration,
}

impl RoundClock {
    pub fn start(window: Duration) -> RoundClock {
        RoundClock {
            started: Instant::now(),
            cpu_us: host::cpu_us(),
            window,
        }
    }

    pub fn over(&self) -> bool {
        self.started.elapsed() >= self.window
    }

    fn round(self, us_per_op: f64, done: u64, attempted: u64, samples_us: Vec<f64>) -> Round {
        Round {
            us_per_op,
            cpu_us: host::cpu_us() - self.cpu_us,
            samples_us,
            attempted,
            failed: attempted - done,
            window_s: self.started.elapsed().as_secs_f64(),
        }
    }

    /// Close a latency round: `samples_us` holds one value per
    /// operation that completed and verified.
    pub fn latencies(self, samples_us: Vec<f64>, attempted: u64) -> Round {
        let p50 = stats::percentile(&samples_us, 0.5);
        self.round(p50, samples_us.len() as u64, attempted, samples_us)
    }

    /// Close a rate round: `done` operations completed inside `window`.
    pub fn completions(self, done: u64, attempted: u64) -> Round {
        let us_per_op = self.window.as_nanos() as f64 / 1e3 / done.max(1) as f64;
        self.round(us_per_op, done.min(attempted), attempted, Vec::new())
    }
}

/// How fast the machine is at the moment, from a reference round just
/// measured: the reference's frozen nominal time over its time now.
///
/// The machine this was written on runs a third slower for minutes at a
/// time (echo, stream and solver alike), which put the run-to-run spread
/// of every CPU-bound cell between 17% and 33% on a bad day. A cell
/// round and a reference round of the same kind of work taken within
/// half a second of each other slow down together: their ratio held to
/// 2-4% through the same weather. So a CPU-bound round is reported at
/// the reference's nominal speed, `us x speed`. Rounds whose time is set
/// by kernel timers (a 40 ms delayed ACK, a 1 ms accept poll) are not
/// scaled: machine speed does not move them.
pub fn speed(nominal_us: f64, reference: &Round) -> f64 {
    if reference.us_per_op > 0.0 {
        nominal_us / reference.us_per_op
    } else {
        1.0
    }
}

/// A cell: the rounds measured for it, spread over the run so that
/// every cell sees the same stretch of machine time. Its value is the
/// median over rounds, so one disturbed round cannot move it.
#[derive(Default)]
pub struct Cell {
    us_per_op: Vec<f64>,
    /// The same rounds as measured, before any scaling.
    unscaled_us_per_op: Vec<f64>,
    cpu_us_per_op: Vec<f64>,
    /// Every sample of every round, for the tail diagnostics.
    pub all_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub measured_s: f64,
}

impl Cell {
    pub fn add(&mut self, r: Round) {
        self.add_scaled(r, 1.0);
    }

    /// Add a round measured while the machine ran at `speed` (see
    /// [`speed`]); its time and CPU time are brought to nominal speed.
    pub fn add_scaled(&mut self, r: Round, speed: f64) {
        if r.attempted > r.failed {
            self.us_per_op.push(r.us_per_op * speed);
            self.unscaled_us_per_op.push(r.us_per_op);
            let done = (r.attempted - r.failed) as f64;
            self.cpu_us_per_op.push(r.cpu_us * speed / done);
        }
        self.all_us.extend(r.samples_us);
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.measured_s += r.window_s;
    }

    pub fn of(r: Round) -> Cell {
        let mut c = Cell::default();
        c.add(r);
        c
    }

    pub fn done(&self) -> usize {
        (self.attempted - self.failed) as usize
    }

    pub fn us_per_op(&self) -> Windowed {
        Windowed::of(&self.us_per_op, self.done())
    }

    /// Process CPU microseconds per completed operation, median over
    /// rounds.
    pub fn cpu_us_per_op(&self) -> Windowed {
        Windowed::of(&self.cpu_us_per_op, self.done())
    }

    pub fn value(&self) -> f64 {
        stats::median(&self.us_per_op)
    }

    pub fn unscaled_value(&self) -> f64 {
        stats::median(&self.unscaled_us_per_op)
    }

    pub fn ops_per_s(&self) -> f64 {
        match self.value() {
            v if v > 0.0 => 1e6 / v,
            _ => 0.0,
        }
    }

    pub fn p(&self, q: f64) -> f64 {
        stats::percentile(&self.all_us, q)
    }
}

/// One echo round trip, compared byte for byte.
pub fn echo_once(s: &mut TcpStream, payload: &[u8], buf: &mut [u8]) -> io::Result<bool> {
    s.write_all(payload)?;
    s.read_exact(buf)?;
    Ok(buf == payload)
}

/// Fixed-count warm-up; an error or mismatch fails the set-up.
pub fn echo_warm_up(s: &mut TcpStream, payloads: &[Vec<u8>], count: usize) -> io::Result<()> {
    let mut buf = vec![0u8; payloads[0].len()];
    for i in 0..count {
        if !echo_once(s, &payloads[i % payloads.len()], &mut buf)? {
            return Err(io::Error::other("echo mismatch during warm-up"));
        }
    }
    Ok(())
}

/// Closed loop on one connection for `window`: write a payload, read
/// it back, compare, repeat.
pub fn echo_round(
    span: &'static str,
    s: &mut TcpStream,
    payloads: &[Vec<u8>],
    window: Duration,
    tr: &mut Tracer,
) -> Round {
    let mut buf = vec![0u8; payloads[0].len()];
    let mut samples = Vec::new();
    let mut attempted = 0u64;
    let clock = RoundClock::start(window);
    while !clock.over() {
        let payload = &payloads[attempted as usize % payloads.len()];
        let started = Instant::now();
        let op = tr.begin(span, attempted, None);
        let w = tr.begin("client.write", attempted, op);
        let sent = s.write_all(payload);
        tr.end(w);
        let r = tr.begin("client.read", attempted, op);
        let echoed = sent.and_then(|()| s.read_exact(&mut buf));
        tr.end(r);
        tr.end(op);
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        attempted += 1;
        match echoed {
            Ok(()) if buf == *payload => samples.push(us),
            Ok(()) => {}
            // The stream is out of step: every later echo would fail too.
            Err(_) => break,
        }
    }
    clock.latencies(samples, attempted)
}

/// State shared by the two ends of one verified bulk stream.
pub struct StreamCtl {
    pub epoch: Instant,
    /// The sender stops at the next chunk boundary once this is set.
    pub stop: AtomicBool,
    /// When the sender finished its ramp-up chunks (ns since `epoch`):
    /// the measured window starts here, with the pipeline already full.
    pub window_start_ns: AtomicU64,
    /// Completion time (ns since `epoch`) of each MiB at the sink.
    pub done_at_ns: Mutex<Vec<u64>>,
    /// Set by the sender when the sink's count or checksum disagrees.
    pub mismatch: AtomicBool,
}

impl StreamCtl {
    pub fn new() -> StreamCtl {
        StreamCtl {
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            window_start_ns: AtomicU64::new(0),
            done_at_ns: Mutex::new(Vec::new()),
            mismatch: AtomicBool::new(false),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// MiB the sink completed within `window_ns` of the window start.
    pub fn done_in_window(&self, window_ns: u64) -> u64 {
        let start = self.window_start_ns.load(Ordering::SeqCst);
        let stamps = self.done_at_ns.lock().unwrap_or_else(|e| e.into_inner());
        stamps
            .iter()
            .filter(|&&t| t >= start && t - start < window_ns)
            .count() as u64
    }
}

/// Sending end: stream `chunk` until told to stop, half-close, then
/// read the sink's byte count and checksum and recompute them.
/// `between` runs after every chunk with the chunks written so far.
pub fn stream_send(
    s: &mut TcpStream,
    chunk: &[u8],
    ctl: &StreamCtl,
    tr: &mut Tracer,
    mut between: impl FnMut(u64),
) -> io::Result<u64> {
    let mut sum = Checksum::default();
    let mut chunks = 0u64;
    while !ctl.stop.load(Ordering::Relaxed) {
        let w = tr.begin("client.write_chunk", chunks, None);
        s.write_all(chunk)?;
        tr.end(w);
        sum.update(chunk);
        chunks += 1;
        between(chunks);
    }
    s.shutdown(Shutdown::Write)?;
    let mut reply = [0u8; 24];
    s.read_exact(&mut reply)?;
    if Checksum::from_bytes(&reply) != sum {
        ctl.mismatch.store(true, Ordering::SeqCst);
    }
    Ok(chunks)
}

/// Chunks streamed before a bulk window opens, so that socket buffers
/// along the path are full and the copy is in steady state.
pub const RAMP_CHUNKS: u64 = 16;

/// `stream_send` for one round: ramp up, mark the window start, stream
/// for `window`, stop. The round's rate is what the sink completed
/// inside the window; every chunk, and the count-and-checksum
/// comparison at the end, is one of its operations.
pub fn stream_round(
    s: &mut TcpStream,
    chunk: &[u8],
    ctl: &StreamCtl,
    window: Duration,
    tr: &mut Tracer,
) -> io::Result<Round> {
    let cpu_us = host::cpu_us();
    let mut clock = None;
    let chunks = stream_send(s, chunk, ctl, tr, |n| {
        if n == RAMP_CHUNKS {
            ctl.window_start_ns.store(ctl.now_ns(), Ordering::SeqCst);
            clock = Some(RoundClock::start(window));
        } else if clock.as_ref().is_some_and(RoundClock::over) {
            ctl.stop.store(true, Ordering::Relaxed);
        }
    })?;
    let clock = clock.ok_or_else(|| io::Error::other("stream stopped during ramp-up"))?;
    let done = ctl.done_in_window(window.as_nanos() as u64);
    let mut round = clock.completions(done, chunks + 1);
    // Operations and CPU time both cover the whole stream, ramp-up
    // included; only the rate is taken from the window.
    round.failed = u64::from(ctl.mismatch.load(Ordering::SeqCst));
    round.cpu_us = host::cpu_us() - cpu_us;
    Ok(round)
}

/// Receiving end: read to end of stream, stamping each MiB, then send
/// back the byte count and running checksum.
pub fn stream_sink(s: &mut TcpStream, ctl: &StreamCtl) -> io::Result<()> {
    let _ = s.set_read_timeout(None);
    let mut buf = vec![0u8; 256 * 1024];
    let mut sum = Checksum::default();
    loop {
        let mut filled = 0;
        while filled < buf.len() {
            match s.read(&mut buf[filled..])? {
                0 => break,
                n => filled += n,
            }
        }
        // Senders write whole MiB chunks, so a short fill is the end.
        sum.update(&buf[..filled - filled % 8]);
        if filled > 0 && sum.bytes % MIB as u64 == 0 {
            if let Ok(mut stamps) = ctl.done_at_ns.lock() {
                stamps.push(ctl.now_ns());
            }
        }
        if filled < buf.len() {
            break;
        }
    }
    s.write_all(&sum.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(us_per_op: f64, attempted: u64, failed: u64) -> Round {
        Round {
            us_per_op,
            cpu_us: us_per_op / 2.0 * (attempted - failed) as f64,
            samples_us: vec![us_per_op; (attempted - failed) as usize],
            attempted,
            failed,
            window_s: 1.0,
        }
    }

    #[test]
    fn cell_value_is_the_median_over_rounds() {
        let mut cell = Cell::default();
        for v in [100.0, 101.0, 1000.0, 99.0, 100.5] {
            cell.add(round(v, 10, 0));
        }
        // A round in which nothing completed has no value to offer.
        cell.add(round(0.0, 3, 3));
        assert_eq!(cell.value(), 100.5);
        assert_eq!(cell.us_per_op().per.len(), 5);
        assert_eq!(cell.cpu_us_per_op().value, 50.25);
        assert_eq!((cell.attempted, cell.failed, cell.done()), (53, 3, 50));
        assert_eq!(cell.all_us.len(), 50);
        assert!((cell.ops_per_s() - 1e6 / 100.5).abs() < 1e-9);
        assert_eq!(Cell::default().ops_per_s(), 0.0);
        // A round taken while the machine ran at 0.8 of nominal speed.
        let mut scaled = Cell::default();
        scaled.add_scaled(round(125.0, 10, 0), speed(4.0, &round(5.0, 10, 0)));
        assert_eq!((scaled.value(), scaled.unscaled_value()), (100.0, 125.0));
        assert_eq!(scaled.cpu_us_per_op().value, 50.0);
        assert_eq!(speed(4.0, &Round::default()), 1.0);
    }

    #[test]
    fn rate_round_divides_the_window_by_completions() {
        let clock = RoundClock::start(Duration::from_millis(500));
        let r = clock.completions(250, 260);
        assert_eq!(r.us_per_op, 2000.0);
        assert_eq!((r.attempted, r.failed), (260, 10));
    }

    #[test]
    fn sink_counts_only_the_window() {
        let ctl = StreamCtl::new();
        ctl.window_start_ns.store(1_000, Ordering::SeqCst);
        *ctl.done_at_ns.lock().unwrap() = vec![500, 1_000, 1_500, 1_999, 2_000, 2_500];
        assert_eq!(ctl.done_in_window(1_000), 3);
    }
}
