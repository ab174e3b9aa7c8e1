//! Blocking-socket execution of [`crate::core`] actions: everything
//! the real outer and inner drivers share.
//!
//! A [`Daemon`] is one running server: its core behind the server's
//! one lock, its clock, the I/O a core action can ask for (dial
//! through the hook, allocate a listener, pump a bridged pair), and the
//! parked [`Workers`] every per-connection and per-relay job of the
//! server runs on. Only the accept loops, the outer server's reaper and
//! its heartbeat session have threads of their own
//! ([`Daemon::spawn`]). Every server thread owns one [`Io`] over it:
//! the sockets the thread is handling, at most one connection whose
//! next frame the core asked for, and at most one pending timer.
//! [`Io::run`] feeds an event to the core, executes the returned
//! actions in order, feeds back what they produced, and when nothing is
//! left blocks for the next input — a frame, an EOF, or the timer. It
//! returns when there is nothing to wait for: the thread's work is done
//! (its streams went to a pump, or were closed).
//!
//! Every stream an `Io` accepts or dials is registered with the
//! daemon's workers, and is one `Arc` from then on: the `Io`, both pump
//! directions and the outer server's relay table share it. A dropped
//! server handle runs [`Daemon::tear_down`]: the threads of its own are
//! joined, then every registered stream is shut down and every worker
//! joined, so a live relay is cut as a killed process would cut it.

use crate::core::{Action, ConnId, Event, Timer};
use crate::hook::{interpose, DialHook, DialLeg};
use crate::pool::{BufferPool, PoolConfig};
use crate::protocol::Msg;
use crate::pump::{pump_pooled, RelayActivity};
use crate::stats::ProxyStats;
use crate::workers::Workers;
use firewall::vnet::{StopHandle, VListener, VNet};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use wacs_sync::{Mutex, OrderedMutex};

/// While a timer is pending, wake at least this often to notice
/// shutdown.
const POLL: Duration = Duration::from_millis(25);

/// On a timed wait, a frame whose first byte has arrived must complete
/// within this, or the connection is treated as dead.
const FRAME_DEADLINE: Duration = Duration::from_secs(1);

/// One tracked relay pair. The streams are the pump's, held so the
/// idle-reaper can reset a half-open pair from outside the (possibly
/// blocked) pump threads.
pub(crate) struct RelayEntry {
    pub a: Arc<TcpStream>,
    pub b: Arc<TcpStream>,
    pub activity: RelayActivity,
    pub reaped: bool,
}

pub(crate) type RelayTable = OrderedMutex<HashMap<ConnId, RelayEntry>>;

/// One running server, shared by all its threads.
pub(crate) struct Daemon<M> {
    net: VNet,
    /// Logical host the server runs on (every dial's source).
    host: String,
    dial_hook: Option<DialHook>,
    pub stats: Arc<ProxyStats>,
    pub shutdown: AtomicBool,
    /// Stop handles of the listeners being served, by logical port, so
    /// one [`shut_down`](Self::shut_down) ends every blocked accept.
    listeners: Mutex<HashMap<u16, StopHandle>>,
    /// Every control decision, behind the server's one lock.
    pub core: OrderedMutex<M>,
    /// `Some` = bridged pairs are tracked here until their pump ends
    /// (the outer server's idle reaper and drain).
    pub relays: Option<RelayTable>,
    step: fn(&mut M, u64, Event<String>) -> Vec<Action<String>>,
    /// Origin of the `now` the core is stepped with.
    epoch: Instant,
    /// Connection-name allocator.
    conn_seq: AtomicU64, // lint:allow(bare-atomic-counter)
    /// One staging-buffer pool for every pump this server runs.
    pool: BufferPool,
    /// The threads every connection and relay of this server runs on.
    pub workers: Workers,
    /// The threads of the server's own, joined by `tear_down`.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: Send + 'static> Daemon<M> {
    pub fn new(
        net: VNet,
        host: &str,
        dial_hook: Option<DialHook>,
        stats: Arc<ProxyStats>,
        core: OrderedMutex<M>,
        step: fn(&mut M, u64, Event<String>) -> Vec<Action<String>>,
        relays: Option<RelayTable>,
    ) -> Arc<Self> {
        Arc::new(Daemon {
            net,
            host: host.to_string(),
            dial_hook,
            shutdown: AtomicBool::new(false),
            listeners: Mutex::new(HashMap::new()),
            core,
            relays,
            step,
            epoch: Instant::now(),
            conn_seq: AtomicU64::new(0), // lint:allow(bare-atomic-counter)
            pool: BufferPool::with_counters(
                PoolConfig::default(),
                stats.pool_hits.clone(),
                stats.pool_misses.clone(),
            ),
            workers: Workers::new(stats.worker_spawns.clone(), stats.workers_parked.clone()),
            stats,
            threads: Mutex::new(Vec::new()),
        })
    }

    fn step(&self, ev: Event<String>) -> Vec<Action<String>> {
        let mut core = self.core.lock();
        // Read the clock under the lock, so `now` never runs backwards
        // from one step to the next.
        let now = self.epoch.elapsed().as_nanos() as u64;
        (self.step)(&mut core, now, ev)
    }

    /// Dial through the hook. Like every socket the server accepts
    /// ([`Io::accept`]), the stream it returns has `TCP_NODELAY` set: a
    /// relay leg sends each write at once, so the relay keeps the Nagle
    /// choice its endpoints made, and a small write never waits for a
    /// peer's delayed ACK (DESIGN.md §6c "No Nagle on relay legs").
    fn dial(&self, leg: DialLeg, (host, port): &(String, u16)) -> io::Result<TcpStream> {
        let dialed = self.net.dial(&self.host, host, *port);
        let stream = interpose(
            self.dial_hook.as_ref(),
            leg,
            &self.host,
            host,
            *port,
            dialed,
        )?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Run `job` on one of the daemon's workers, handing it the daemon.
    pub fn on_worker(self: &Arc<Self>, job: impl FnOnce(Arc<Self>) + Send + 'static) {
        let d = self.clone();
        self.workers.run(move || job(d));
    }

    /// Start one of the server's own long-lived threads (an accept
    /// loop, the reaper, the heartbeat session), handing it the daemon.
    pub fn spawn(self: &Arc<Self>, body: impl FnOnce(&Arc<Self>) + Send + 'static) {
        let d = self.clone();
        // lint:allow(daemon-spawn) the server's own threads, joined by tear_down
        let t = thread::spawn(move || body(&d));
        self.threads.lock().push(t);
    }

    /// Pump `a`↔`b` on two workers (registered in the relay table,
    /// when there is one). On pump exit the entry is GC'd and
    /// the core told, which is what releases an admission slot —
    /// half-open pairs the reaper resets exit the same way.
    fn bridge(self: &Arc<Self>, id: ConnId, a: Arc<TcpStream>, b: Arc<TcpStream>) {
        #[cfg(test)]
        {
            tests::record_bridge(&self.host, &a, &b);
        }
        let activity = self.relays.as_ref().map(|table| {
            let activity = RelayActivity::new();
            let entry = RelayEntry {
                a: a.clone(),
                b: b.clone(),
                activity: activity.clone(),
                reaped: false,
            };
            table.lock().insert(id, entry);
            self.stats.active_relays.add(1);
            activity
        });
        self.on_worker(move |d| {
            pump_pooled(a, b, d.stats.clone(), activity, &d.pool, &d.workers);
            if let Some(table) = &d.relays {
                if table.lock().remove(&id).is_some() {
                    d.stats.active_relays.add(-1);
                }
            }
            Io::new(&d).run(Event::Closed { conn: id });
        });
    }

    /// Hand each connection `listener` accepts to `serve`, until the
    /// listener's stop handle fires or the server shuts down.
    pub fn accept_loop(&self, listener: &VListener, mut serve: impl FnMut(TcpStream)) {
        let port = listener.logical_port();
        self.listeners.lock().insert(port, listener.stop_handle());
        // Registered, then checked: a shutdown whose sweep missed the
        // entry had raised the flag before it took the lock.
        if !self.shutdown.load(Ordering::SeqCst) {
            while let Some(stream) = listener.accept_until_stop() {
                serve(stream);
            }
        }
        self.listeners.lock().remove(&port);
    }

    /// Stop serving: raise the flag every thread checks around its
    /// waits and end every blocked accept. Relays already bridged run
    /// on (what `drain` waits for).
    pub fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Collected first and stopped outside the lock: a woken
        // acceptor takes `listeners` to unregister.
        let stops: Vec<StopHandle> = self.listeners.lock().values().cloned().collect();
        for stop in stops {
            stop.stop();
        }
    }

    /// Stop serving and leave nothing running: shut down, join the
    /// server's own threads, then cut every registered stream and join
    /// every worker ([`Workers::close`]). What dropping a server handle
    /// does; the server is dead after it.
    pub fn tear_down(&self) {
        self.shut_down();
        let threads = std::mem::take(&mut *self.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        self.workers.close();
    }
}

/// One thread's sockets and pending input. See the module doc.
pub(crate) struct Io<'a, M> {
    daemon: &'a Arc<Daemon<M>>,
    streams: HashMap<ConnId, Arc<TcpStream>>,
    reading: Option<ConnId>,
    timer: Option<(Timer, Instant)>,
    /// Abandon the loop once the server shuts down (checked around
    /// every wait).
    mortal: bool,
    /// Read timeout for frames on accepted connections.
    frame_timeout: Option<Duration>,
    /// The listener allocated by `Listen`, unless `Unlisten` took it
    /// back: the caller serves it once `run` returns.
    pub listener: Option<VListener>,
}

impl<'a, M: Send + 'static> Io<'a, M> {
    pub fn new(daemon: &'a Arc<Daemon<M>>) -> Self {
        Io {
            daemon,
            streams: HashMap::new(),
            reading: None,
            timer: None,
            mortal: false,
            frame_timeout: None,
            listener: None,
        }
    }

    pub fn until_shutdown(mut self) -> Self {
        self.mortal = true;
        self
    }

    pub fn frame_timeout(mut self, t: Duration) -> Self {
        self.frame_timeout = Some(t);
        self
    }

    /// Run the core over a connection that arrived on `port`, until it
    /// is bridged or closed (or left behind: see [`Io::take`]).
    pub fn accept(&mut self, stream: TcpStream, port: u16) -> ConnId {
        let conn = self.daemon.conn_seq.fetch_add(1, Ordering::Relaxed);
        // No Nagle, as on every dialed leg (see `Daemon::dial`).
        let _ = stream.set_nodelay(true);
        if self.frame_timeout.is_some() {
            let _ = stream.set_read_timeout(self.frame_timeout);
        }
        self.hold(conn, stream);
        self.run(Event::Accepted { conn, port });
        conn
    }

    /// Keep `stream` as `conn`, registered with the daemon's workers.
    fn hold(&mut self, conn: ConnId, stream: TcpStream) {
        let stream = Arc::new(stream);
        self.daemon.workers.register(&stream);
        self.streams.insert(conn, stream);
    }

    /// Give up a connection this `Io` still holds.
    pub fn take(&mut self, conn: ConnId) -> Option<Arc<TcpStream>> {
        self.streams.remove(&conn)
    }

    pub fn run(&mut self, first: Event<String>) {
        let mut queue = VecDeque::from([first]);
        loop {
            while let Some(ev) = queue.pop_front() {
                for action in self.daemon.step(ev) {
                    self.exec(action, &mut queue);
                }
            }
            match self.wait() {
                Some(ev) => queue.push_back(ev),
                None => return,
            }
        }
    }

    fn exec(&mut self, action: Action<String>, queue: &mut VecDeque<Event<String>>) {
        match action {
            Action::Recv { conn } => self.reading = Some(conn),
            Action::Send { conn, msg } => {
                if let Some(s) = self.streams.get(&conn) {
                    let _ = msg.write_to(&mut &**s);
                }
            }
            Action::Reply { conn, msg } => {
                let ok = self
                    .streams
                    .get(&conn)
                    .is_some_and(|s| msg.write_to(&mut &**s).is_ok());
                queue.push_back(Event::Replied { conn, ok });
            }
            Action::Listen { conn } => {
                let d = self.daemon;
                self.listener = d.net.bind(&d.host, 0).ok();
                let port = self.listener.as_ref().map(VListener::logical_port);
                queue.push_back(Event::Listened { conn, port });
            }
            Action::Unlisten { .. } => self.listener = None,
            Action::Dial { dial, leg, to } => queue.push_back(match self.daemon.dial(leg, &to) {
                Ok(s) => {
                    let conn = self.daemon.conn_seq.fetch_add(1, Ordering::Relaxed);
                    self.hold(conn, s);
                    Event::DialOk { dial, conn }
                }
                Err(e) => Event::DialFailed {
                    dial,
                    detail: e.to_string(),
                },
            }),
            Action::Bridge { a, b } => match (self.streams.remove(&a), self.streams.remove(&b)) {
                (Some(sa), Some(sb)) => {
                    if self.frame_timeout.is_some() {
                        // A pipe has no frame deadline.
                        let _ = sa.set_read_timeout(None);
                    }
                    self.daemon.bridge(a, sa, sb);
                }
                _ => queue.push_back(Event::Closed { conn: a }),
            },
            Action::Close { conn } => {
                self.streams.remove(&conn);
                if self.reading == Some(conn) {
                    self.reading = None;
                }
            }
            Action::SetTimer { timer, after } => self.timer = Some((timer, Instant::now() + after)),
        }
    }

    fn stopped(&self) -> bool {
        self.mortal && self.daemon.shutdown.load(Ordering::Relaxed)
    }

    /// Block for the next input. `None` = nothing to wait for (or told
    /// to stop).
    fn wait(&mut self) -> Option<Event<String>> {
        let ev = match self.timer {
            None => {
                let conn = self.reading.take()?;
                self.read_frame(conn)
            }
            Some((timer, at)) => loop {
                if self.stopped() {
                    return None;
                }
                let left = at.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    self.timer = None;
                    break Event::Timer(timer);
                }
                let slice = left.min(POLL);
                let Some(conn) = self.reading else {
                    thread::sleep(slice); // lint:allow(bare-sleep) — deadline-bounded, stop-checked timer wait.
                    continue;
                };
                // Wait for the first byte only as long as the timer
                // allows; a frame is read whole or not at all.
                match self.readable(conn, slice) {
                    Some(true) => {
                        self.reading = None;
                        break self.read_frame(conn);
                    }
                    Some(false) => {}
                    None => {
                        self.reading = None;
                        break Event::Closed { conn };
                    }
                }
            },
        };
        (!self.stopped()).then_some(ev)
    }

    /// Does `conn` have a byte to read within `within`? `None` = EOF
    /// or error. Leaves the stream's read timeout at
    /// [`FRAME_DEADLINE`] when it answers `true`.
    fn readable(&self, conn: ConnId, within: Duration) -> Option<bool> {
        let s = self.streams.get(&conn)?;
        let _ = s.set_read_timeout(Some(within));
        match s.peek(&mut [0u8; 1]) {
            Ok(0) => None,
            Ok(_) => {
                let _ = s.set_read_timeout(Some(FRAME_DEADLINE));
                Some(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Some(false)
            }
            Err(_) => None,
        }
    }

    /// One frame from `conn`, or `Closed` on EOF, timeout or garbage.
    fn read_frame(&mut self, conn: ConnId) -> Event<String> {
        match self.streams.get(&conn).map(|s| Msg::read_from(&mut &**s)) {
            Some(Ok(msg)) => Event::Frame { conn, msg },
            _ => Event::Closed { conn },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{nx_proxy_bind, nx_proxy_connect, Deployment, InnerConfig, OuterConfig};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use wacs_sync::Mutex;

    /// `(daemon host, TCP_NODELAY of a, of b)` for every pair any
    /// daemon of the test process bridged.
    static BRIDGED: Mutex<Vec<(String, bool, bool)>> = Mutex::new(Vec::new());

    pub(super) fn record_bridge(host: &str, a: &TcpStream, b: &TcpStream) {
        let nodelay = |s: &TcpStream| s.nodelay().unwrap_or(false);
        BRIDGED
            .lock()
            .push((host.to_string(), nodelay(a), nodelay(b)));
    }

    /// `TCP_NODELAY` of both streams of every pair bridged on `host`.
    fn bridged_on(host: &str) -> Vec<(bool, bool)> {
        let bridged = BRIDGED.lock();
        let on_host = bridged.iter().filter(|(h, ..)| h == host);
        on_host.map(|&(_, a, b)| (a, b)).collect()
    }

    /// One byte each way through a relay: once it has crossed, the
    /// relay is bridged and its pump runs.
    fn cross(a: &mut TcpStream, b: &mut TcpStream) {
        let mut byte = [0u8; 1];
        a.write_all(b"x").unwrap();
        b.read_exact(&mut byte).unwrap();
        b.write_all(b"y").unwrap();
        a.read_exact(&mut byte).unwrap();
    }

    /// Every socket of both daemons sends without Nagle, accepted and
    /// dialed alike: both legs of one active and one passive relay in
    /// the outer server's relay table, and both legs of the passive
    /// relay on the inner server (the accepted nxport leg, then the
    /// dialed leg to the client). The inner server's host name is this
    /// test's own, so relays of tests running beside it do not count.
    #[test]
    fn every_relay_leg_of_both_daemons_sets_nodelay() {
        let inner = InnerConfig::new("nodelay-inner");
        let outer = OuterConfig::new("rwcp-outer");
        let d = Deployment::start(["rwcp-sun"], ["etl-sun"], inner, vec![outer]).unwrap();
        let (net, env) = (&d.net, d.env());

        // Active (Fig. 3): inside client → outer → outside destination.
        let dst = net.bind("etl-sun", 6000).unwrap();
        let mut active = nx_proxy_connect(net, &env, "rwcp-sun", ("etl-sun", 6000)).unwrap();
        let (mut active_far, _) = dst.accept().unwrap();
        cross(&mut active, &mut active_far);

        // Passive (Fig. 4): outside peer → rendezvous → inner → client.
        let listener = nx_proxy_bind(net, &env, "rwcp-sun").unwrap();
        let (host, port) = listener.advertised.clone();
        let mut passive = net.dial("etl-sun", &host, port).unwrap();
        let mut passive_far = listener.accept().unwrap();
        cross(&mut passive, &mut passive_far);

        assert_eq!(d.outer().relay_legs_nodelay(), vec![(true, true); 2]);
        assert_eq!(bridged_on("nodelay-inner"), vec![(true, true)]);
    }
}
