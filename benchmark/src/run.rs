//! What every workload shares: the run's parameters, the repeated
//! set-up that yields `setup_s`, and the leak gate at the end.

use crate::outcome::Outcome;
use crate::stats::Windowed;
use crate::topo::Deployment;
use crate::trace::Tracer;
use std::io;
use std::time::{Duration, Instant};

/// Rounds per cell in the plain pass. The cells of a workload take
/// turns, round after round, so each one samples the whole run. The
/// machine this was written on slows down by a third for about a second
/// at a time, a tenth to a quarter of the time; with many short rounds
/// the median round is one that no such burst touched.
pub const ROUNDS: u32 = 15;

/// Set-ups per run; `setup_s` is their median. Every one but the last
/// is torn down again, so each starts from nothing.
pub const SETUP_REPEATS: usize = 5;

pub struct Config {
    pub seed: u64,
    /// Measured time of the whole run; each cell gets a fixed share.
    pub seconds: f64,
    pub traced: bool,
}

impl Config {
    /// A `share` of the run's measured time, in one piece.
    pub fn window(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// One of the `ROUNDS` equal pieces of a `share` of the run.
    pub fn round(&self, share: f64) -> Duration {
        self.window(share) / ROUNDS
    }
}

/// What a workload hands back: the metrics and the spans behind them.
pub struct Run {
    pub out: Outcome,
    pub tracer: Tracer,
}

impl Run {
    /// Nothing measured yet, tracing off.
    pub fn new() -> Run {
        Run {
            out: Outcome::default(),
            tracer: Tracer::new(false),
        }
    }
}

/// `speed` is asked right after each set-up how fast the machine is
/// running (`cells::speed`; 1.0 where set-up time is set by timers), and
/// the set-up's time is brought to nominal speed like a round's.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    mut setup: impl FnMut() -> io::Result<T>,
    mut speed: impl FnMut(&T) -> io::Result<f64>,
) -> io::Result<T> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        let ready = setup()?;
        let took = t.elapsed().as_secs_f64();
        times.push(took * speed(&ready)?);
        last = Some(ready);
    }
    out.set_windowed("setup_s", Windowed::of(&times, times.len()));
    last.ok_or_else(|| io::Error::other("no set-up ran"))
}

/// Run after a workload has closed everything it opened. Each miss is a
/// failed operation and is named in the output.
pub fn leak_gate(dep: &Deployment, out: &mut Outcome) {
    let (checked, missed) = dep.leak_gate();
    out.attempted += checked.saturating_sub(missed.len() as u64);
    for m in missed {
        out.fail(format!("leak: {m}"));
    }
    out.set("outer.thread_growth", dep.thread_growth() as f64);
    out.set("outer.fd_growth", dep.fd_growth() as f64);
}

/// `(traced - plain) / plain` of one cell measured both ways in a run.
pub fn trace_overhead(plain_us: f64, traced_us: f64) -> f64 {
    if plain_us > 0.0 {
        (traced_us - plain_us) / plain_us
    } else {
        0.0
    }
}
