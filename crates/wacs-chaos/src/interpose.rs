//! The socket-level fault interposer: an in-process TCP "netem".
//!
//! [`ChaosInterposer`] implements [`DialInterposer`]. Wrapping a dialed
//! stream splices a loopback socket pair into the path:
//!
//! ```text
//! caller ── near ═╡ chaos pump ╞═ far ── real stream ── peer
//! ```
//!
//! Two pump threads forward bytes between the pair and the real
//! stream, applying the connection's [`FaultPlan`]: mid-stream kills,
//! stalls, deadline-paced throttling, delayed FIN, and RNG-driven
//! re-segmentation. A `Blackhole` plan never builds the pair at all —
//! the dial errors as a timed-out connect.
//!
//! Every *decision* (which connection faults, with which parameters)
//! is a pure function of `(profile, leg, seq)` and is mirrored into a
//! deterministic metric registry, so two same-seed runs produce
//! byte-identical decision snapshots regardless of scheduling. Timing
//! effects (when exactly a stall releases) are intentionally *not* in
//! that registry — see DESIGN.md §6f for the determinism scoping.

use crate::profile::{ChaosProfile, FaultClass, FaultPlan};
use netsim::SimRng;
use nexus_proxy::{DialHook, DialInterposer, DialLeg};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use wacs_obs::{Counter, Registry};
use wacs_sync::Mutex;

/// Deadline-based wait: the one sanctioned timing primitive of the
/// chaos layer (every stall/throttle/FIN-delay funnels through here).
pub fn pace_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        let Some(left) = deadline.checked_duration_since(now) else {
            return;
        };
        if left.is_zero() {
            return;
        }
        // lint:allow(bare-sleep) — bounded, deadline-clamped wait.
        thread::sleep(left.min(Duration::from_millis(5)));
    }
}

/// Deterministic decision-side instruments (`wacs.chaos.*`). These and
/// only these land in the drill registry the ci.sh determinism gate
/// diffs byte-for-byte.
struct DecisionStats {
    /// Connections handed to the interposer.
    wrapped: Counter,
    /// Connections passed through with no fault.
    passthrough: Counter,
    /// Faults injected, one counter per class.
    injected: Vec<(FaultClass, Counter)>,
}

impl DecisionStats {
    fn in_registry(registry: &Registry) -> DecisionStats {
        DecisionStats {
            wrapped: registry.counter("wacs.chaos.wrapped"),
            passthrough: registry.counter("wacs.chaos.passthrough"),
            injected: FaultClass::INTERPOSED
                .iter()
                .map(|c| {
                    let key = format!("wacs.chaos.injected.{}", c.name());
                    (*c, registry.counter(&key))
                })
                .collect(),
        }
    }

    fn injected(&self, class: FaultClass) {
        if let Some((_, c)) = self.injected.iter().find(|(k, _)| *k == class) {
            c.inc();
        }
    }
}

/// Kill flag shared by both pump directions of one wrapped connection.
/// It deliberately holds NO stream clones: a lingering clone would
/// keep the socket open and swallow the FIN when the caller drops its
/// end, wedging the relay behind the splice. The tripping direction
/// resets its own handles with `shutdown` (which acts socket-wide, so
/// the sibling direction's blocking reads unblock too).
struct Trip {
    tripped: AtomicBool,
}

impl Trip {
    fn new() -> Arc<Trip> {
        Arc::new(Trip {
            tripped: AtomicBool::new(false),
        })
    }

    fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    fn trip(&self, src: &TcpStream, dst: &TcpStream) {
        self.tripped.store(true, Ordering::Relaxed);
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    }
}

/// The seeded interposer. Install via [`ChaosInterposer::hook`] on a
/// `ProxyEnv`, `OuterConfig`, `InnerConfig` or stripe lane dialer.
pub struct ChaosInterposer {
    profile: ChaosProfile,
    /// Per-leg dial counters: the `seq` in every decision.
    seqs: Mutex<HashMap<DialLeg, u64>>,
    stats: DecisionStats,
}

impl ChaosInterposer {
    /// Build an interposer whose decision counters register in
    /// `registry` (the deterministic drill registry).
    pub fn new(profile: ChaosProfile, registry: &Registry) -> Arc<ChaosInterposer> {
        Arc::new(ChaosInterposer {
            profile,
            seqs: Mutex::new(HashMap::new()),
            stats: DecisionStats::in_registry(registry),
        })
    }

    /// The `DialHook` to thread into nexus-proxy configs.
    pub fn hook(self: &Arc<ChaosInterposer>) -> DialHook {
        DialHook::new(self.clone())
    }
}

impl DialInterposer for ChaosInterposer {
    fn wrap(
        &self,
        leg: DialLeg,
        _from: &str,
        _to: &str,
        _port: u16,
        stream: TcpStream,
    ) -> io::Result<TcpStream> {
        let seq = {
            let mut seqs = self.seqs.lock();
            let n = seqs.entry(leg).or_insert(0);
            let seq = *n;
            *n += 1;
            seq
        };
        self.stats.wrapped.inc();
        let Some(plan) = self.profile.decide(leg, seq) else {
            self.stats.passthrough.inc();
            return Ok(stream);
        };
        self.stats.injected(plan.class);
        if plan.class == FaultClass::Blackhole {
            // The dial disappears into a void: drop the real stream
            // (the peer sees a reset) and fail like a connect timeout.
            let _ = stream.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "chaos: connect blackholed",
            ));
        }
        splice(stream, plan)
    }
}

/// Build the loopback splice and start the two fault pumps. Returns
/// the near end for the caller.
fn splice(real: TcpStream, plan: FaultPlan) -> io::Result<TcpStream> {
    let lst = TcpListener::bind(("127.0.0.1", 0))?;
    let near = TcpStream::connect(lst.local_addr()?)?;
    // The connect above already completed its handshake against the
    // listener backlog, so this accept cannot block.
    let (far, _) = lst.accept()?; // lint:allow(deadline-io)

    // The pumps write what the plan says, when it says: no Nagle
    // coalescing or delayed-ACK wait of the splice's own mixes in. The
    // caller's end (`near`) is the caller's to tune.
    let _ = far.set_nodelay(true);
    let _ = real.set_nodelay(true);
    let trip = Trip::new();
    let up = (far.try_clone()?, real.try_clone()?);
    let down = (real, far);
    let t_up = trip.clone();
    let t_down = trip.clone();
    thread::spawn(move || pump_dir(up.0, up.1, plan, &t_up, 1));
    thread::spawn(move || pump_dir(down.0, down.1, plan, &t_down, 2));
    Ok(near)
}

/// One pump direction with fault application. `salt` decorrelates the
/// two directions' segmentation RNG.
fn pump_dir(mut src: TcpStream, mut dst: TcpStream, plan: FaultPlan, trip: &Trip, salt: u64) {
    let started = Instant::now();
    let mut rng = SimRng::seed_from_u64(plan.seg_seed.wrapping_add(salt));
    let mut buf = vec![0u8; 8192];
    let mut total: u64 = 0;
    let mut stalled = false;
    loop {
        if trip.tripped() {
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                if plan.class == FaultClass::DelayedFin {
                    pace_until(Instant::now() + plan.fin_delay);
                }
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(_) => {
                trip.trip(&src, &dst);
                return;
            }
        };
        let crosses_cut = total < plan.cut_at && total + n as u64 >= plan.cut_at;
        match plan.class {
            FaultClass::Rst if crosses_cut => {
                // Forward exactly up to the cut, then kill everything
                // abruptly — the peer still has bytes in flight, so
                // the close surfaces as a reset mid-stream.
                let keep = (plan.cut_at - total) as usize;
                let _ = dst.write_all(&buf[..keep]);
                trip.trip(&src, &dst);
                return;
            }
            FaultClass::Stall if crosses_cut && !stalled => {
                // Half-write: the bytes before the cut go out, then
                // the stream goes silent for the stall duration with
                // the rest of the chunk (and frame) withheld.
                let keep = (plan.cut_at - total) as usize;
                if dst.write_all(&buf[..keep]).is_err() {
                    trip.trip(&src, &dst);
                    return;
                }
                pace_until(Instant::now() + plan.stall);
                stalled = true;
                if dst.write_all(&buf[keep..n]).is_err() {
                    trip.trip(&src, &dst);
                    return;
                }
            }
            FaultClass::SplitMerge => {
                let mut off = 0usize;
                while off < n {
                    let seg = 1 + rng.below(plan.max_seg as u64) as usize;
                    let end = (off + seg).min(n);
                    if dst.write_all(&buf[off..end]).is_err() {
                        trip.trip(&src, &dst);
                        return;
                    }
                    off = end;
                }
            }
            _ => {
                if dst.write_all(&buf[..n]).is_err() {
                    trip.trip(&src, &dst);
                    return;
                }
            }
        }
        total += n as u64;
        if plan.class == FaultClass::Throttle {
            // Deadline pacing: cumulative bytes may not outrun the
            // configured rate.
            let due_ns = total.saturating_mul(1_000_000_000) / plan.rate;
            pace_until(started + Duration::from_nanos(due_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{FaultParams, FaultRule};

    fn echo_pair() -> (TcpStream, TcpStream) {
        let lst = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let a = TcpStream::connect(lst.local_addr().unwrap()).unwrap();
        let (b, _) = lst.accept().unwrap();
        (a, b)
    }

    fn wrap_one(profile: ChaosProfile, leg: DialLeg) -> (io::Result<TcpStream>, TcpStream) {
        let reg = Registry::new();
        let ip = ChaosInterposer::new(profile, &reg);
        let (dialed, peer) = echo_pair();
        (ip.wrap(leg, "a", "b", 1, dialed), peer)
    }

    #[test]
    fn clean_profile_is_transparent() {
        let (wrapped, mut peer) = wrap_one(ChaosProfile::new(1), DialLeg::ClientData);
        let mut s = wrapped.unwrap();
        s.write_all(b"ping").unwrap();
        let mut b = [0u8; 4];
        peer.read_exact(&mut b).unwrap();
        assert_eq!(&b, b"ping");
        peer.write_all(b"pong").unwrap();
        s.read_exact(&mut b).unwrap();
        assert_eq!(&b, b"pong");
    }

    #[test]
    fn a_spliced_stream_sends_without_nagle() {
        let p = ChaosProfile::new(4).with_rule(FaultRule::every(
            DialLeg::ClientData,
            FaultClass::SplitMerge,
            1,
        ));
        let ip = ChaosInterposer::new(p, &Registry::new());
        let (dialed, _peer) = echo_pair();
        let real = dialed.try_clone().unwrap();
        let _near = ip.wrap(DialLeg::ClientData, "a", "b", 1, dialed).unwrap();
        assert!(real.nodelay().unwrap());
    }

    #[test]
    fn blackhole_fails_the_dial() {
        let p = ChaosProfile::new(2).with_rule(FaultRule::every(
            DialLeg::ClientCtrl,
            FaultClass::Blackhole,
            1,
        ));
        let (wrapped, _peer) = wrap_one(p, DialLeg::ClientCtrl);
        assert_eq!(wrapped.unwrap_err().kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn rst_kills_the_stream_at_the_cut() {
        let p = ChaosProfile::new(3).with_rule(
            FaultRule::every(DialLeg::ClientData, FaultClass::Rst, 1).with_params(FaultParams {
                cut_range: (64, 64),
                ..FaultParams::default()
            }),
        );
        let (wrapped, mut peer) = wrap_one(p, DialLeg::ClientData);
        let mut s = wrapped.unwrap();
        // Push well past the cut; at some point writes must fail (or
        // the peer read must end early).
        let payload = vec![0xabu8; 64 * 1024];
        let write_res = s.write_all(&payload).and_then(|_| {
            // Some platforms buffer the write; the reset then lands on
            // the next operation instead.
            let mut b = [0u8; 1];
            s.read_exact(&mut b)
        });
        assert!(write_res.is_err(), "reset never surfaced to the sender");
        let mut got = Vec::new();
        let _ = peer.read_to_end(&mut got);
        assert!(got.len() <= 64, "bytes past the cut leaked: {}", got.len());
    }

    #[test]
    fn split_merge_preserves_bytes_exactly() {
        let p = ChaosProfile::new(4).with_rule(FaultRule::every(
            DialLeg::ClientData,
            FaultClass::SplitMerge,
            1,
        ));
        let (wrapped, mut peer) = wrap_one(p, DialLeg::ClientData);
        let s = wrapped.unwrap();
        let payload: Vec<u8> = (0..40_000usize).map(|i| (i % 251) as u8).collect();
        let w = payload.clone();
        let t = thread::spawn(move || {
            let mut s = s;
            s.write_all(&w).unwrap();
            let _ = s.shutdown(Shutdown::Write);
        });
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        t.join().unwrap();
        assert_eq!(got, payload);
    }

    #[test]
    fn delayed_fin_holds_eof_but_delivers_bytes() {
        let p = ChaosProfile::new(5).with_rule(
            FaultRule::every(DialLeg::ClientData, FaultClass::DelayedFin, 1).with_params(
                FaultParams {
                    fin_delay: Duration::from_millis(80),
                    ..FaultParams::default()
                },
            ),
        );
        let (wrapped, mut peer) = wrap_one(p, DialLeg::ClientData);
        let mut s = wrapped.unwrap();
        s.write_all(b"tail").unwrap();
        let _ = s.shutdown(Shutdown::Write);
        let t0 = Instant::now();
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        assert_eq!(got, b"tail");
        assert!(
            t0.elapsed() >= Duration::from_millis(60),
            "EOF arrived too early: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn throttle_paces_delivery() {
        let p = ChaosProfile::new(6).with_rule(
            FaultRule::every(DialLeg::ClientData, FaultClass::Throttle, 1).with_params(
                FaultParams {
                    rate: 100 * 1024,
                    ..FaultParams::default()
                },
            ),
        );
        let (wrapped, mut peer) = wrap_one(p, DialLeg::ClientData);
        let s = wrapped.unwrap();
        let payload = vec![7u8; 20 * 1024];
        let w = payload.clone();
        let t = thread::spawn(move || {
            let mut s = s;
            s.write_all(&w).unwrap();
            let _ = s.shutdown(Shutdown::Write);
        });
        let t0 = Instant::now();
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        t.join().unwrap();
        assert_eq!(got, payload);
        // 20 KiB at 100 KiB/s ≥ ~200 ms; allow slack for coarse pacing.
        assert!(
            t0.elapsed() >= Duration::from_millis(120),
            "throttle too fast: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn decision_counters_are_deterministic_across_runs() {
        let run = || {
            let reg = Registry::new();
            let p = ChaosProfile::new(7).with_rule(FaultRule::every(
                DialLeg::ClientCtrl,
                FaultClass::Blackhole,
                3,
            ));
            let ip = ChaosInterposer::new(p, &reg);
            for _ in 0..9 {
                let (dialed, _peer) = echo_pair();
                let _ = ip.wrap(DialLeg::ClientCtrl, "a", "b", 1, dialed);
            }
            reg.snapshot().to_json()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("wacs.chaos.injected.blackhole"));
    }
}
