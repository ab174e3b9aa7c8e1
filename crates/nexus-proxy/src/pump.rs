//! The relay pump: bidirectional byte copying between two streams.
//!
//! One blocking thread per direction, each reading into one whole
//! pooled segment ([`crate::pool::PoolConfig::seg_bytes`] is the one
//! buffer size of the data plane). Both run on the daemon's parked
//! workers (`workers.rs`): while one is parked, a relay's pump starts no
//! thread. Both directions share one `Arc` of each leg (std reads and
//! writes through `&TcpStream`), so a relay dups no socket. Clean EOF
//! propagates as a
//! *half-close* (the reverse direction may still be carrying a reply);
//! hard errors reset both sockets so the opposite thread unblocks.
//!
//! This is the proxy's only data plane (DESIGN.md §6c): a blocking
//! `read` is the readiness mechanism the kernel gives a workspace that
//! denies `unsafe`, at the price of two threads per relay.

use crate::pool::BufferPool;
use crate::stats::ProxyStats;
use crate::workers::Workers;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Last-activity clock of one relay, shared between the pump threads
/// (writers) and the outer server's idle-reaper (reader). A relay
/// whose peers both went silent — the half-open TCP case — stops
/// touching this and becomes reapable.
#[derive(Clone)]
pub(crate) struct RelayActivity {
    epoch: Instant,
    // A timestamp cell, not a metric: it must be read-modify-write
    // shared across pump threads, which a wacs-obs Counter is not.
    last: Arc<AtomicU64>, // lint:allow(bare-atomic-counter)
}

impl RelayActivity {
    /// A fresh activity clock, initialized to *now*: a relay that has
    /// not yet moved a byte is "just active", never idle-since-epoch,
    /// so a short idle timeout cannot reap it at birth.
    pub(crate) fn new() -> Self {
        let a = RelayActivity {
            epoch: Instant::now(),
            last: Arc::new(AtomicU64::new(0)), // lint:allow(bare-atomic-counter)
        };
        a.touch();
        a
    }

    /// Record activity now.
    fn touch(&self) {
        self.last
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// How long since the last recorded activity.
    pub(crate) fn idle_for(&self) -> Duration {
        let now = self.epoch.elapsed().as_nanos() as u64;
        Duration::from_nanos(now.saturating_sub(self.last.load(Ordering::Relaxed)))
    }
}

/// How one copy direction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyEnd {
    /// The source reached clean EOF; propagate as a half-close.
    CleanEof,
    /// A hard read or write error; reset both ends.
    Error,
}

/// The transport-agnostic copy loop: read a segment, forward it, repeat.
/// Bytes count toward `relayed_bytes` only *after* the write lands — a
/// failed write must not inflate the counter (the far side never saw
/// those bytes).
fn copy_loop<R: Read, W: Write>(
    from: &mut R,
    to: &mut W,
    buf: &mut [u8],
    stats: &ProxyStats,
    activity: Option<&RelayActivity>,
) -> CopyEnd {
    loop {
        match from.read(buf) {
            Ok(0) => return CopyEnd::CleanEof,
            Err(_) => return CopyEnd::Error,
            Ok(n) => {
                if let Some(a) = activity {
                    a.touch();
                }
                let seg = Instant::now();
                if to.write_all(&buf[..n]).is_err() {
                    return CopyEnd::Error;
                }
                stats.add_bytes(n as u64);
                stats.pump_segments.inc();
                stats
                    .pump_segment_ns
                    .record(seg.elapsed().as_nanos() as u64);
            }
        }
    }
}

fn copy_dir(
    mut from: &TcpStream,
    mut to: &TcpStream,
    stats: &ProxyStats,
    activity: Option<&RelayActivity>,
    pool: &BufferPool,
) {
    let mut buf = pool.get_seg();
    match copy_loop(&mut from, &mut to, &mut buf, stats, activity) {
        CopyEnd::CleanEof => {
            // Clean EOF: propagate as a half-close so the reverse
            // direction (e.g. a reply still in flight) survives.
            let _ = to.shutdown(Shutdown::Write);
        }
        CopyEnd::Error => {
            // Hard error: reset both ends.
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
        }
    }
}

/// Bridge `a` and `b` until both directions have drained, touching
/// `activity` on every forwarded segment so an idle-reaper can spot
/// dead pairs. This thread copies `b`→`a`; `a`→`b` runs on one of
/// `workers`. Staging buffers come from the caller-shared
/// [`BufferPool`]: relays churn, and the pool amortizes allocation
/// across all of them.
pub(crate) fn pump_pooled(
    a: Arc<TcpStream>,
    b: Arc<TcpStream>,
    stats: Arc<ProxyStats>,
    activity: Option<RelayActivity>,
    pool: &BufferPool,
    workers: &Workers,
) {
    let (a2, b2, s2, act2, p2) = (
        a.clone(),
        b.clone(),
        stats.clone(),
        activity.clone(),
        pool.clone(),
    );
    // Dropped when the job ends, even by a panic: the wait below cannot
    // hang on it.
    let (done, finished) = mpsc::sync_channel::<()>(1);
    workers.run(move || {
        copy_dir(&a2, &b2, &s2, act2.as_ref(), &p2);
        drop(done);
    });
    copy_dir(&b, &a, &stats, activity.as_ref(), pool);
    let _ = finished.recv();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::thread;

    /// Build a connected (client, server-side) socket pair on loopback.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let c = TcpStream::connect(addr).unwrap();
        let (s, _) = l.accept().unwrap();
        (c, s)
    }

    fn workers(stats: &ProxyStats) -> Workers {
        Workers::new(stats.worker_spawns.clone(), stats.workers_parked.clone())
    }

    /// Pump the pair on a background thread through a private pool of
    /// `seg_bytes` segments.
    fn spawn_pump(a: TcpStream, b: TcpStream, seg_bytes: usize, stats: Arc<ProxyStats>) {
        let pool = BufferPool::new(PoolConfig {
            seg_bytes,
            max_retained: 2,
        });
        let workers = workers(&stats);
        thread::spawn(move || pump_pooled(Arc::new(a), Arc::new(b), stats, None, &pool, &workers));
    }

    #[test]
    fn pump_bridges_both_directions() {
        let (mut left_app, left_relay) = socket_pair();
        let (mut right_app, right_relay) = socket_pair();
        let stats = Arc::new(ProxyStats::default());
        spawn_pump(left_relay, right_relay, 1024, stats.clone());

        left_app.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        right_app.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");

        right_app.write_all(b"pong!").unwrap();
        let mut buf = [0u8; 5];
        left_app.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong!");

        // Closing one side propagates EOF to the other.
        drop(left_app);
        let mut rest = Vec::new();
        right_app.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty());
        assert!(stats.snapshot().relayed_bytes >= 9);
    }

    /// Segment-size sweep, 512 B – 64 KiB: the relay is byte-identical
    /// and honours half-close whatever the pool's segment size. The
    /// left side writes the payload and half-closes, and still receives
    /// the echo — EOF propagation must not tear down the reply direction.
    #[test]
    fn pump_moves_bulk_data_intact_at_every_segment_size() {
        for seg_bytes in [512usize, 2048, 8192, 65536] {
            let (mut left_app, left_relay) = socket_pair();
            let (mut right_app, right_relay) = socket_pair();
            let stats = Arc::new(ProxyStats::default());
            spawn_pump(left_relay, right_relay, seg_bytes, stats.clone());

            let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
            let want = data.clone();
            let echo = thread::spawn(move || {
                let mut got = Vec::new();
                right_app.read_to_end(&mut got).unwrap();
                right_app.write_all(&got).unwrap();
                got
            });
            left_app.write_all(&data).unwrap();
            left_app.shutdown(Shutdown::Write).unwrap();
            let mut echoed = Vec::new();
            left_app.read_to_end(&mut echoed).unwrap();
            assert_eq!(echo.join().unwrap(), want, "seg_bytes={seg_bytes}");
            assert_eq!(echoed, want, "seg_bytes={seg_bytes}");
            assert_eq!(stats.snapshot().relayed_bytes, 200_000);
        }
    }

    /// A writer that accepts exactly `limit` bytes, then fails hard —
    /// the deterministic analogue of a peer killed mid-transfer.
    struct DyingWriter {
        limit: usize,
        written: usize,
    }

    impl Write for DyingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written >= self.limit {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "peer died",
                ));
            }
            let n = buf.len().min(self.limit - self.written);
            self.written += n;
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Byte-accounting pin: when the write side dies mid-transfer, only
    /// bytes that actually landed count toward `relayed_bytes` — the
    /// chunk whose write failed must not inflate the counter.
    #[test]
    fn failed_writes_do_not_inflate_relayed_bytes() {
        let stats = ProxyStats::default();
        let payload = vec![7u8; 10_000];
        let mut from = std::io::Cursor::new(payload);
        // Dies 1500 bytes in: mid-way through the second 1024-byte
        // chunk, so the failing write_all has partially succeeded.
        let mut to = DyingWriter {
            limit: 1500,
            written: 0,
        };
        let mut buf = [0u8; 1024];
        let end = copy_loop(&mut from, &mut to, &mut buf, &stats, None);
        assert_eq!(end, CopyEnd::Error);
        // Exactly one full chunk succeeded; the second chunk's write
        // failed after a partial transfer and is not counted.
        assert_eq!(stats.snapshot().relayed_bytes, 1024);
    }

    /// Same property over real sockets: kill the receiving app socket
    /// mid-transfer and confirm the counter never exceeds what the
    /// sender pushed (the old code counted reads before writes, so a
    /// failed write inflated the total).
    #[test]
    fn killed_receiver_caps_byte_accounting() {
        let (mut left_app, left_relay) = socket_pair();
        let (right_app, right_relay) = socket_pair();
        let stats = Arc::new(ProxyStats::default());
        spawn_pump(left_relay, right_relay, 2048, stats.clone());

        // Kill the read side immediately: pending relay writes will
        // eventually fail (RST once the receive buffer logic kicks in).
        drop(right_app);
        let chunk = vec![3u8; 4096];
        let mut sent = 0u64;
        for _ in 0..256 {
            match left_app.write_all(&chunk) {
                Ok(()) => sent += chunk.len() as u64,
                Err(_) => break,
            }
        }
        drop(left_app);
        // Give the pump a moment to drain/fail.
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.snapshot().relayed_bytes > sent && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        assert!(
            stats.snapshot().relayed_bytes <= sent,
            "relayed_bytes {} exceeds bytes sent {}",
            stats.snapshot().relayed_bytes,
            sent
        );
    }

    /// A fresh activity clock reads as *just touched*, not idle since
    /// some epoch — the regression that made new relays instantly
    /// reapable under a short idle timeout.
    #[test]
    fn fresh_relay_activity_is_not_idle() {
        let a = RelayActivity::new();
        assert!(
            a.idle_for() < Duration::from_secs(1),
            "fresh activity clock reports {:?} idle",
            a.idle_for()
        );
    }

    #[test]
    fn shared_pool_is_reused_across_pumps() {
        let stats = Arc::new(ProxyStats::default());
        let pool = BufferPool::with_counters(
            PoolConfig {
                seg_bytes: 4096,
                max_retained: 8,
            },
            stats.pool_hits.clone(),
            stats.pool_misses.clone(),
        );
        for _ in 0..3 {
            let (mut l, lr) = socket_pair();
            let (mut r, rr) = socket_pair();
            let s = stats.clone();
            let p = pool.clone();
            let w = workers(&s);
            let (lr, rr) = (Arc::new(lr), Arc::new(rr));
            let t = thread::spawn(move || pump_pooled(lr, rr, s, None, &p, &w));
            l.write_all(b"abc").unwrap();
            drop(l);
            let mut got = Vec::new();
            r.read_to_end(&mut got).unwrap();
            assert_eq!(got, b"abc");
            drop(r);
            t.join().unwrap();
        }
        let snap = stats.snapshot();
        assert!(
            snap.pool_hits >= 2,
            "later pumps must reuse pooled buffers (hits={}, misses={})",
            snap.pool_hits,
            snap.pool_misses
        );
    }
}
