//! Parked worker threads: where a daemon's per-connection and
//! per-relay threads, a Nexus endpoint's readers and an RMF record
//! server's handlers come from.
//!
//! Each owner holds one [`Workers`]: both proxy daemons (a relay's set-up
//! passes through several blocking jobs: a control handler, a
//! registration watcher, a rendezvous acceptor, two pump directions, the
//! inner server's connection), every `nexus::Endpoint` (one frame loop
//! per attached startpoint) and every `rmf` record server (one handler
//! per request connection). Starting a thread for each job costs about
//! 20 us; handing a job to a thread already blocked in `recv()` costs a
//! channel send. [`Workers::run`] pops a parked worker and sends it the
//! job, and spawns a thread only when none is parked. A worker that
//! finishes parks again while fewer than [`PARKED`] are parked, and
//! otherwise exits, so a burst's extra threads leave once it is over.
//!
//! There is no idle timeout. A parked worker blocks in `recv()` with no
//! timer, so an idle owner makes no wake-ups, and the [`PARKED`]
//! threads started by [`Workers::new`] stay in the process's thread
//! count until [`Workers::close`].
//!
//! Teardown is one mechanism for every owner. A job registers each
//! stream it blocks on ([`Workers::register`]); [`Workers::close`],
//! which the pool's drop runs, shuts every registered stream down
//! (`Shutdown::Both`), so a busy job's read or write fails and the job
//! returns, and joins every worker the pool started, parked and busy
//! alike. A job that must end with its owner blocks only on registered
//! streams (or on what they feed). `close` never joins the thread that
//! calls it: a job may drop the last handle to its owner.

use std::mem::take;
use std::net::{Shutdown, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Weak};
use std::thread::{self, JoinHandle};
use wacs_obs::{Counter, Gauge};
use wacs_sync::Mutex;

/// Workers kept parked per pool: one constant for every owner, sized
/// for the busiest. One passive relay holds four threads on the outer
/// server (registration watcher, rendezvous acceptor and the two pump
/// directions), so its set-up starts no thread. The other owners need
/// fewer. Measured peaks of jobs busy at once in one pool:
/// - a nexus endpoint, whose reader is busy for its attachment's whole
///   life: 2 on `mpi_app`'s channel endpoint (a new channel arrives
///   while the last one's reader ends) and 1 on each rank's endpoint of
///   its 2-rank world. A rank that N - 1 peers talk to peaks at N - 1:
///   up to 3 in the gridmpi tests, and 5 for the master of the 6-rank
///   knapsack test in `tests/wide_area_stack.rs`;
/// - an RMF record server: 2 in the rmf tests. No benchmark runs one.
///
/// So 4 covers all but one measured endpoint, and most endpoints and
/// record servers keep 2 or 3 parked threads they never use. Each costs
/// about 11 KiB resident on Linux and no wake-ups. An endpoint with more
/// than 4 live attachments starts a thread for each one past the 4th,
/// as it did for every attachment before endpoints had a pool.
pub const PARKED: usize = 4;

type Job = Box<dyn FnOnce() + Send>;

/// A worker's channel. The pool holds it while the worker is parked,
/// the worker while it runs a job, so a parked worker's `recv()` fails
/// once the pool drops it.
struct Worker(Sender<(Job, Worker)>);

struct Shared {
    pool: Mutex<Pool>,
    /// Threads this pool has started.
    spawns: Counter,
    /// Workers parked right now.
    parked_gauge: Gauge,
}

struct Pool {
    parked: Vec<Worker>,
    /// Every thread this pool started and has not joined yet.
    threads: Vec<JoinHandle<()>>,
    /// The streams jobs block on. A stream leaves when its last owner
    /// drops it; the dead entries are pruned as the list grows.
    streams: Vec<Weak<TcpStream>>,
    closed: bool,
}

impl Shared {
    /// Park `me` unless the pool is closed or full; `false` = exit.
    fn park(&self, me: Worker) -> bool {
        let mut pool = self.pool.lock();
        if pool.closed || pool.parked.len() >= PARKED {
            return false;
        }
        pool.parked.push(me);
        self.parked_gauge.set(pool.parked.len() as i64);
        true
    }
}

/// One owner's thread pool. Dropping it closes it.
pub struct Workers {
    shared: Arc<Shared>,
}

impl Workers {
    /// A pool with [`PARKED`] workers already parked. No wait: each
    /// worker's channel exists before its thread does, so a job sent
    /// before the thread first runs waits in the channel.
    pub fn new(spawns: Counter, parked_gauge: Gauge) -> Self {
        let shared = Arc::new(Shared {
            pool: Mutex::new(Pool {
                parked: Vec::new(),
                threads: Vec::new(),
                streams: Vec::new(),
                closed: false,
            }),
            spawns,
            parked_gauge,
        });
        {
            let mut pool = shared.pool.lock();
            for _ in 0..PARKED {
                let (tx, rx) = channel();
                pool.threads.push(start(&shared, rx));
                pool.parked.push(Worker(tx));
            }
        }
        shared.parked_gauge.set(PARKED as i64);
        Workers { shared }
    }

    /// [`Workers::new`] with instruments of its own, in no registry: for
    /// an owner that has none, read through the getters below.
    pub fn standalone() -> Self {
        Workers::new(Counter::default(), Gauge::default())
    }

    /// Threads this pool has started.
    pub fn spawns(&self) -> u64 {
        self.shared.spawns.get()
    }

    /// Workers parked right now.
    pub fn parked(&self) -> i64 {
        self.shared.parked_gauge.get()
    }

    /// Worker threads alive, parked or busy. Each holds the pool's shared
    /// state until its thread ends, so this drops only as threads exit.
    pub fn threads(&self) -> usize {
        Arc::strong_count(&self.shared) - 1
    }

    /// Run `job` on a parked worker, or on a new thread when none is
    /// parked. A job that panics ends itself, not its worker.
    pub fn run(&self, job: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(job);
        let mut pool = self.shared.pool.lock();
        if let Some(w) = pool.parked.pop() {
            self.shared.parked_gauge.set(pool.parked.len() as i64);
            drop(pool);
            // A parked worker is blocked in `recv()` on the other end, so
            // the send cannot fail.
            let tx = w.0.clone();
            let _ = tx.send((job, w));
            return;
        }
        // Started under the lock, so a `close` running beside this sees
        // the thread and joins it. Threads a burst left behind are
        // joined here, where a thread start is paid anyway.
        let (done, live) = take(&mut pool.threads)
            .into_iter()
            .partition(JoinHandle::is_finished);
        pool.threads = live;
        let (tx, rx) = channel();
        pool.threads.push(start(&self.shared, rx));
        drop(pool);
        let _ = tx.clone().send((job, Worker(tx)));
        join_all(done);
    }

    /// Let [`close`](Self::close) shut `stream` down. A stream
    /// registered after the pool closed is shut down at once.
    pub fn register(&self, stream: &Arc<TcpStream>) {
        let mut pool = self.shared.pool.lock();
        if pool.closed {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if pool.streams.len() == pool.streams.capacity() {
            // Prune before the list would grow, and leave room for as
            // many again: each entry is looked at O(1) times.
            pool.streams.retain(|s| s.strong_count() > 0);
            let live = pool.streams.len();
            pool.streams.reserve(live.max(PARKED));
        }
        pool.streams.push(Arc::downgrade(stream));
    }

    /// Stop parking, shut every registered stream down and join every
    /// worker, busy ones included, but never the calling thread: once
    /// this returns, no job of this pool runs. A job this pool runs
    /// later (a closed pool still runs jobs) starts a thread of its own,
    /// which the next `close` or the drop joins.
    pub fn close(&self) {
        let me = thread::current().id();
        loop {
            let (parked, streams, threads) = {
                let mut pool = self.shared.pool.lock();
                pool.closed = true;
                (
                    take(&mut pool.parked),
                    take(&mut pool.streams),
                    take(&mut pool.threads),
                )
            };
            self.shared.parked_gauge.set(0);
            // A dropped channel wakes its parked worker; a shut-down
            // stream fails its busy worker's read or write.
            drop(parked);
            for s in streams.iter().filter_map(Weak::upgrade) {
                let _ = s.shutdown(Shutdown::Both);
            }
            if threads.is_empty() {
                return;
            }
            // Jobs the joined ones ran meanwhile are the next round's.
            join_all(threads.into_iter().filter(|t| t.thread().id() != me));
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.close();
    }
}

fn join_all(threads: impl IntoIterator<Item = JoinHandle<()>>) {
    for t in threads {
        let _ = t.join();
    }
}

fn start(shared: &Arc<Shared>, rx: Receiver<(Job, Worker)>) -> JoinHandle<()> {
    shared.spawns.inc();
    let shared = shared.clone();
    thread::spawn(move || {
        while let Ok((job, me)) = rx.recv() {
            let _ = catch_unwind(AssertUnwindSafe(job));
            if !shared.park(me) {
                return;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};
    use wacs_obs::Registry;

    fn pool() -> (Workers, Counter, Gauge) {
        let reg = Registry::new();
        let (spawns, parked) = (reg.counter("spawns"), reg.gauge("parked"));
        (Workers::new(spawns.clone(), parked.clone()), spawns, parked)
    }

    fn wait_parked(parked: &Gauge, n: i64) {
        let end = Instant::now() + Duration::from_secs(5);
        while parked.get() != n {
            assert!(
                Instant::now() < end,
                "parked {} never reached {n}",
                parked.get()
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn parked_sequential_jobs_start_no_thread() {
        let (w, spawns, parked) = pool();
        assert_eq!((spawns.get(), parked.get()), (PARKED as u64, PARKED as i64));
        for i in 0..PARKED {
            let (tx, rx) = sync_channel(1);
            w.run(move || tx.send(i).unwrap());
            assert_eq!(rx.recv().unwrap(), i);
            wait_parked(&parked, PARKED as i64);
        }
        assert_eq!(spawns.get(), PARKED as u64);
    }

    #[test]
    fn a_burst_runs_whole_and_its_extra_threads_exit() {
        let (w, spawns, parked) = pool();
        let n = PARKED + 2;
        // Every job waits for all the others: they can only all get
        // past the barrier if each ran on a thread of its own.
        let gate = Arc::new(Barrier::new(n + 1));
        let (done_tx, done_rx) = channel();
        for i in 0..n {
            let (gate, done) = (gate.clone(), done_tx.clone());
            w.run(move || {
                gate.wait();
                done.send(i).unwrap();
            });
        }
        gate.wait();
        let mut ran: Vec<usize> = (0..n).map(|_| done_rx.recv().unwrap()).collect();
        ran.sort_unstable();
        assert_eq!(ran, (0..n).collect::<Vec<_>>());
        assert_eq!(spawns.get(), (PARKED + 2) as u64);
        // Exactly PARKED park again, and the two extras exit.
        wait_parked(&parked, PARKED as i64);
        let end = Instant::now() + Duration::from_secs(5);
        while w.threads() != PARKED {
            assert!(Instant::now() < end, "the extra workers never exited");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(w.shared.pool.lock().parked.len(), PARKED);
    }

    #[test]
    fn close_returns_after_every_parked_worker_exited() {
        let (w, _, parked) = pool();
        w.close();
        assert_eq!(parked.get(), 0);
        // Had close() not joined them, some would still be alive.
        assert_eq!(w.threads(), 0);
    }

    /// A job blocked in a read of a registered stream whose peer stays
    /// open: `close` cuts the stream, and the job's worker has exited
    /// when it returns.
    #[test]
    fn close_returns_after_a_worker_busy_on_a_registered_stream_exited() {
        let (w, _, _) = pool();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let stream = Arc::new(listener.accept().unwrap().0);
        w.register(&stream);
        let (reading, read) = sync_channel(1);
        w.run(move || {
            reading.send(()).unwrap();
            let _ = std::io::Read::read(&mut &*stream, &mut [0u8; 1]);
        });
        read.recv().unwrap();
        w.close();
        assert_eq!(w.threads(), 0);
    }

    #[test]
    fn a_panicking_job_does_not_wedge_the_pool() {
        let (w, spawns, parked) = pool();
        // One at a time: a worker killed by its job would never park
        // again, and the parked set would stay one short.
        for _ in 0..=PARKED {
            w.run(|| panic!("job failed"));
            wait_parked(&parked, PARKED as i64);
        }
        let (tx, rx) = sync_channel(1);
        w.run(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        assert_eq!(spawns.get(), PARKED as u64);
    }

    #[test]
    fn a_closed_pool_still_runs_jobs_and_parks_nothing() {
        let (w, spawns, parked) = pool();
        w.close();
        let (tx, rx) = sync_channel(1);
        w.run(move || tx.send(1).unwrap());
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(spawns.get(), PARKED as u64 + 1);
        thread::sleep(Duration::from_millis(20));
        assert_eq!(parked.get(), 0);
        // The drop joins a job run after the close.
        let ran = Arc::new(Mutex::new(false));
        let (flag, (running, started)) = (ran.clone(), sync_channel(1));
        w.run(move || {
            running.send(()).unwrap();
            thread::sleep(Duration::from_millis(50));
            *flag.lock() = true;
        });
        started.recv().unwrap();
        drop(w);
        assert!(*ran.lock());
    }
}
