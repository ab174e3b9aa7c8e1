//! Bounded multi-producer single-consumer channel.
//!
//! Replaces the external channel dependency with exactly the surface
//! the workspace uses: blocking `send` with backpressure at `cap`
//! (struggling consumers throttle socket readers, as a real TCP
//! buffer would), `recv`/`try_recv`/`recv_timeout`, and disconnect
//! detection on both ends.
//!
//! Wake discipline: the state counts the threads parked on each
//! condvar. A send or a pop decides under the lock whether anyone is
//! parked on the other side, drops the lock, and only then calls
//! `notify_one`. A message delivered to a running receiver costs no
//! wake-up call, and a woken thread never blocks on the lock its waker
//! still holds. The disconnect paths (the last `Sender` drop, the
//! `Receiver` drop) `notify_all`. `wacs-check`'s `channel` model
//! explores this discipline for lost wake-ups.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when the receiver is gone; the
/// unsent message is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error for [`Receiver::recv`]: channel empty and all senders gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Outcomes of [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now; senders still exist.
    Empty,
    /// Nothing queued and every sender has been dropped.
    Disconnected,
}

/// Outcomes of [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with nothing queued.
    Timeout,
    /// Nothing queued and every sender has been dropped.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
    /// Threads waiting on `not_empty` (receivers) and `not_full`
    /// (senders), counted from before their `wait` until they hold the
    /// lock again.
    parked_receivers: usize,
    parked_senders: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    cap: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// After a push: unlock, then wake one receiver if any is parked.
    fn wake_receiver(&self, st: MutexGuard<'_, State<T>>) {
        let parked = st.parked_receivers > 0;
        drop(st);
        if parked {
            self.not_empty.notify_one();
        }
    }

    /// After a pop: unlock, then wake one sender if any is parked.
    fn wake_sender(&self, st: MutexGuard<'_, State<T>>) {
        let parked = st.parked_senders > 0;
        drop(st);
        if parked {
            self.not_full.notify_one();
        }
    }
}

/// Create a bounded channel with capacity `cap` (≥ 1).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receiver_alive: true,
            parked_receivers: 0,
            parked_senders: 0,
        }),
        cap: cap.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// The producing half; clonable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Send, blocking while the queue is full. Errors (returning the
    /// message) once the receiver is dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        loop {
            if !st.receiver_alive {
                return Err(SendError(value));
            }
            if st.queue.len() < self.shared.cap {
                st.queue.push_back(value);
                self.shared.wake_receiver(st);
                return Ok(());
            }
            st.parked_senders += 1;
            st = self
                .shared
                .not_full
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.parked_senders -= 1;
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        if st.senders == 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender(..)")
    }
}

/// The consuming half.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Blocking receive; errors once empty with no senders left.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.shared.wake_sender(st);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st.parked_receivers += 1;
            st = self
                .shared
                .not_empty
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
            st.parked_receivers -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.lock();
        match st.queue.pop_front() {
            Some(v) => {
                self.shared.wake_sender(st);
                Ok(v)
            }
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Receive with a deadline.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                self.shared.wake_sender(st);
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st.parked_receivers += 1;
            let (guard, _res) = self
                .shared
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
            st.parked_receivers -= 1;
        }
    }

    /// Refuse every later send and drop what is queued, as dropping
    /// the receiver does: a sender blocked on a full queue returns.
    pub fn close(&self) {
        let mut st = self.shared.lock();
        st.receiver_alive = false;
        st.queue.clear();
        self.shared.not_full.notify_all();
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.close();
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_roundtrip() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_both_ways() {
        let (tx, rx) = bounded::<u32>(2);
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx, rx) = bounded::<u32>(2);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn backpressure_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let t = thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until a slot frees
            tx.send(4).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
        assert_eq!(rx.recv().unwrap(), 4);
        t.join().unwrap();
    }

    #[test]
    fn timeout_fires() {
        let (tx, rx) = bounded::<u8>(1);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(5));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    /// Run `body` on its own thread and fail if it has not finished
    /// within 10 s, so a lost wake-up fails the test instead of
    /// hanging the run.
    fn watchdog(body: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let t = thread::spawn(move || {
            body();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => t.join().unwrap(),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                // The body panicked: re-raise its panic here.
                if let Err(p) = t.join() {
                    std::panic::resume_unwind(p);
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("no progress in 10 s: a wake-up was lost")
            }
        }
    }

    /// Poll until `f(state)` holds; the watchdog bounds the wait.
    fn wait_for<T>(shared: &Shared<T>, f: impl Fn(&State<T>) -> bool) {
        while !f(&shared.lock()) {
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn recv_timeout_parked_before_the_send_returns_early() {
        watchdog(|| {
            let (tx, rx) = bounded::<u32>(4);
            let shared = tx.shared.clone();
            let r = thread::spawn(move || {
                let t0 = Instant::now();
                (rx.recv_timeout(Duration::from_secs(30)), t0.elapsed())
            });
            wait_for(&shared, |st| st.parked_receivers == 1);
            tx.send(7).unwrap();
            let (got, waited) = r.join().unwrap();
            assert_eq!(got, Ok(7));
            assert!(waited < Duration::from_secs(5), "{waited:?}");
            assert_eq!(shared.lock().parked_receivers, 0);
        });
    }

    /// A sender parks on a full queue of capacity 1; `pop` frees the
    /// slot and must wake it.
    fn pop_releases_a_blocked_sender(pop: fn(&Receiver<u32>) -> Option<u32>) {
        watchdog(move || {
            let (tx, rx) = bounded::<u32>(1);
            let shared = tx.shared.clone();
            tx.send(1).unwrap();
            let s = thread::spawn(move || tx.send(2));
            wait_for(&shared, |st| st.parked_senders == 1);
            assert_eq!(pop(&rx), Some(1));
            assert_eq!(s.join().unwrap(), Ok(()));
            assert_eq!(shared.lock().parked_senders, 0);
            assert_eq!(rx.try_recv(), Ok(2));
        });
    }

    #[test]
    fn try_recv_pop_releases_a_blocked_sender() {
        pop_releases_a_blocked_sender(|rx| rx.try_recv().ok());
    }

    #[test]
    fn recv_timeout_pop_releases_a_blocked_sender() {
        pop_releases_a_blocked_sender(|rx| rx.recv_timeout(Duration::from_secs(1)).ok());
    }

    #[test]
    fn blocked_sender_errors_when_the_receiver_drops() {
        watchdog(|| {
            let (tx, rx) = bounded::<u32>(1);
            let shared = tx.shared.clone();
            tx.send(1).unwrap();
            let s = thread::spawn(move || tx.send(2));
            wait_for(&shared, |st| st.parked_senders == 1);
            drop(rx);
            assert_eq!(s.join().unwrap(), Err(SendError(2)));
        });
    }

    #[test]
    fn parked_recv_errors_when_the_last_sender_drops() {
        watchdog(|| {
            let (tx, rx) = bounded::<u32>(1);
            let tx2 = tx.clone();
            let shared = tx.shared.clone();
            let r = thread::spawn(move || rx.recv());
            wait_for(&shared, |st| st.parked_receivers == 1);
            drop(tx);
            drop(tx2);
            assert_eq!(r.join().unwrap(), Err(RecvError));
        });
    }

    #[test]
    fn many_producers() {
        let (tx, rx) = bounded(4);
        let mut handles = Vec::new();
        for p in 0..8 {
            let tx = tx.clone();
            handles.push(thread::spawn(move || {
                for i in 0..100 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(got.len(), 800);
    }
}
