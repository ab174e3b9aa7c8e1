//! Lock-order (ABBA) deadlock detection.
//!
//! Classic wedge: thread 1 holds lock A and wants B while thread 2
//! holds B and wants A. It only bites when the two critical sections
//! overlap in time, which makes it nearly untestable directly. The
//! fix, borrowed from the kernel's lockdep: record the *order* in
//! which locks nest, independent of timing. Every time a thread
//! acquires lock B while holding lock A, the edge `A → B` is added to
//! a global directed graph; a cycle in that graph is a potential
//! deadlock even if no run ever wedged. Two non-overlapping critical
//! sections `lock(A); lock(B)` and `lock(B); lock(A)` are enough to
//! report the inversion.
//!
//! [`OrderedMutex`]/[`OrderedRwLock`] are drop-in instrumented locks;
//! each instance is a graph node labeled `name#id`. Edges are recorded
//! at *acquisition intent* (before blocking), so an inversion that is
//! actively deadlocking still gets reported by the second thread
//! before it blocks forever. Violations accumulate in a global list
//! that tests drain with [`lock_order::violations`] /
//! [`lock_order::check_clean`].
//!
//! Read acquisitions of an `OrderedRwLock` are treated like exclusive
//! ones: read-read cycles cannot wedge on their own, but any cycle
//! containing one writer can, so the conservative (lockdep-style)
//! approximation keeps the report sound at the cost of demanding a
//! single nesting order even for readers.

use crate::mutex::Mutex;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A reported lock-order inversion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Label of the lock held when the inverted acquisition happened.
    pub held: String,
    /// Label of the lock whose acquisition closed the cycle.
    pub acquiring: String,
    /// The cycle, as lock labels: `acquiring → … → held → acquiring`.
    pub cycle: Vec<String>,
    /// Name of the offending thread, when it has one.
    pub thread: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "lock-order inversion on thread '{}': acquiring {} while holding {} closes cycle {}",
            self.thread,
            self.acquiring,
            self.held,
            self.cycle.join(" -> ")
        )
    }
}

struct Registry {
    /// Directed nesting edges: `held id → acquired id`.
    edges: Mutex<HashMap<usize, HashSet<usize>>>,
    /// Node labels (`name#id`).
    labels: Mutex<HashMap<usize, String>>,
    /// Reported inversions, deduplicated by closing edge.
    violations: Mutex<Vec<Violation>>,
    reported: Mutex<HashSet<(usize, usize)>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        edges: Mutex::new(HashMap::new()),
        labels: Mutex::new(HashMap::new()),
        violations: Mutex::new(Vec::new()),
        reported: Mutex::new(HashSet::new()),
    })
}

fn next_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Stack of ordered-lock ids this thread currently holds.
    static HELD: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Is there a path `from →* to` in the edge graph?  Returns the path
/// (node ids, starting at `from`, ending at `to`) when one exists.
fn find_path(edges: &HashMap<usize, HashSet<usize>>, from: usize, to: usize) -> Option<Vec<usize>> {
    let mut stack = vec![vec![from]];
    let mut seen = HashSet::new();
    seen.insert(from);
    while let Some(path) = stack.pop() {
        let last = *path.last()?;
        if last == to {
            return Some(path);
        }
        if let Some(nexts) = edges.get(&last) {
            for &n in nexts {
                if seen.insert(n) {
                    let mut p = path.clone();
                    p.push(n);
                    stack.push(p);
                }
            }
        }
    }
    None
}

/// Record "this thread, holding everything on its stack, is about to
/// acquire `id`". Called before blocking on the real lock.
fn note_acquire_intent(id: usize) {
    let reg = registry();
    HELD.with(|held| {
        let held = held.borrow();
        for &h in held.iter() {
            if h == id {
                // Re-entrant acquisition of a non-reentrant lock:
                // guaranteed self-deadlock. Report as a 1-cycle.
                report(reg, h, id, vec![id, id]);
                continue;
            }
            let inserted = reg.edges.lock().entry(h).or_default().insert(id);
            if inserted {
                // New edge h → id. A pre-existing path id →* h now
                // closes a cycle id → … → h → id.
                let path = find_path(&reg.edges.lock(), id, h);
                if let Some(mut p) = path {
                    p.push(id);
                    report(reg, h, id, p);
                }
            }
        }
    });
}

fn report(reg: &Registry, held: usize, acquiring: usize, cycle_ids: Vec<usize>) {
    if !reg.reported.lock().insert((held, acquiring)) {
        return;
    }
    let labels = reg.labels.lock();
    let label = |id: usize| {
        labels
            .get(&id)
            .cloned()
            .unwrap_or_else(|| format!("lock#{id}"))
    };
    let v = Violation {
        held: label(held),
        acquiring: label(acquiring),
        cycle: cycle_ids.into_iter().map(label).collect(),
        thread: std::thread::current()
            .name()
            .unwrap_or("<unnamed>")
            .to_string(),
    };
    reg.violations.lock().push(v);
}

fn note_acquired(id: usize) {
    HELD.with(|held| held.borrow_mut().push(id));
}

fn note_released(id: usize) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == id) {
            held.remove(pos);
        }
    });
}

/// One lock's node in the graph: registered at creation, removed with
/// its edges when the lock is dropped. A lock that no longer exists
/// cannot close a future cycle, and without this every `Comm` and
/// `FleetRouter` ever built kept its labels for the life of the
/// process. A report already made keeps its labels (they are rendered
/// into it), and ids are never reused, so a dropped lock's id left in
/// the deduplication set cannot suppress a later report.
struct Node(usize);

impl Node {
    fn register(name: &str) -> Node {
        let id = next_id();
        registry().labels.lock().insert(id, format!("{name}#{id}"));
        Node(id)
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let reg = registry();
        reg.labels.lock().remove(&self.0);
        let mut edges = reg.edges.lock();
        edges.remove(&self.0);
        edges.retain(|_, to| {
            to.remove(&self.0);
            !to.is_empty()
        });
    }
}

/// Inspection and test-support entry points for the global graph.
pub mod lock_order {
    use super::*;

    /// Snapshot of every inversion reported so far.
    pub fn violations() -> Vec<Violation> {
        registry().violations.lock().clone()
    }

    /// Violations whose cycle mentions a label containing `needle` —
    /// lets concurrent tests assert on their own locks only.
    pub fn violations_mentioning(needle: &str) -> Vec<Violation> {
        violations()
            .into_iter()
            .filter(|v| v.cycle.iter().any(|l| l.contains(needle)))
            .collect()
    }

    /// Number of nesting edges observed.
    #[cfg(test)]
    pub(crate) fn edge_count() -> usize {
        registry().edges.lock().values().map(HashSet::len).sum()
    }

    /// Number of registered locks whose label contains `needle`.
    #[cfg(test)]
    pub(crate) fn label_count(needle: &str) -> usize {
        let labels = registry().labels.lock();
        labels.values().filter(|l| l.contains(needle)).count()
    }

    /// Error (listing the inversions) if any lock whose label contains
    /// `needle` participates in a cycle. `needle = ""` checks all.
    pub fn check_clean(needle: &str) -> Result<(), Vec<Violation>> {
        let v = violations_mentioning(needle);
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }
}

/// A [`Mutex`] participating in global lock-order checking.
pub struct OrderedMutex<T: ?Sized> {
    node: Node,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// `name` labels this lock in violation reports; use a stable
    /// dotted path like `"rmf.allocator.entries"`.
    pub fn new(name: &str, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            node: Node::register(name),
            inner: Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        note_acquire_intent(self.node.0);
        let guard = self.inner.lock();
        note_acquired(self.node.0);
        OrderedMutexGuard {
            id: self.node.0,
            inner: Some(guard),
        }
    }

    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        note_acquire_intent(self.node.0);
        let guard = self.inner.try_lock()?;
        note_acquired(self.node.0);
        Some(OrderedMutexGuard {
            id: self.node.0,
            inner: Some(guard),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("id", &self.node.0)
            .field("inner", &self.inner)
            .finish()
    }
}

/// RAII guard for [`OrderedMutex`].
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    id: usize,
    inner: Option<crate::mutex::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().unwrap_or_else(|| unreachable!())
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.inner.as_deref_mut() {
            Some(v) => v,
            None => unreachable!(),
        }
    }
}

impl<T: ?Sized> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None; // release before updating the held stack
        note_released(self.id);
    }
}

/// An [`RwLock`](crate::RwLock) participating in global lock-order checking.
pub struct OrderedRwLock<T: ?Sized> {
    node: Node,
    inner: crate::mutex::RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    pub fn new(name: &str, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            node: Node::register(name),
            inner: crate::mutex::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        note_acquire_intent(self.node.0);
        let guard = self.inner.read();
        note_acquired(self.node.0);
        OrderedRwLockReadGuard {
            id: self.node.0,
            inner: Some(guard),
        }
    }

    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        note_acquire_intent(self.node.0);
        let guard = self.inner.write();
        note_acquired(self.node.0);
        OrderedRwLockWriteGuard {
            id: self.node.0,
            inner: Some(guard),
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

/// Shared-access RAII guard for [`OrderedRwLock`].
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    id: usize,
    inner: Option<crate::mutex::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().unwrap_or_else(|| unreachable!())
    }
}

impl<T: ?Sized> Drop for OrderedRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        note_released(self.id);
    }
}

/// Exclusive-access RAII guard for [`OrderedRwLock`].
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    id: usize,
    inner: Option<crate::mutex::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().unwrap_or_else(|| unreachable!())
    }
}

impl<T: ?Sized> DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self.inner.as_deref_mut() {
            Some(v) => v,
            None => unreachable!(),
        }
    }
}

impl<T: ?Sized> Drop for OrderedRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None;
        note_released(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// The acceptance-criteria case: an intentional ABBA inversion
    /// across two threads is reported as a cycle — without any actual
    /// deadlock, because the two nestings never overlap in time.
    #[test]
    fn abba_inversion_is_reported() {
        let a = Arc::new(OrderedMutex::new("abba-test.A", 0u32));
        let b = Arc::new(OrderedMutex::new("abba-test.B", 0u32));

        let (a1, b1) = (a.clone(), b.clone());
        thread::Builder::new()
            .name("abba-t1".into())
            .spawn(move || {
                let _ga = a1.lock();
                let _gb = b1.lock(); // order: A → B
            })
            .unwrap()
            .join()
            .unwrap();

        let (a2, b2) = (a.clone(), b.clone());
        thread::Builder::new()
            .name("abba-t2".into())
            .spawn(move || {
                let _gb = b2.lock();
                let _ga = a2.lock(); // order: B → A — closes the cycle
            })
            .unwrap()
            .join()
            .unwrap();

        let v = lock_order::violations_mentioning("abba-test");
        assert_eq!(v.len(), 1, "expected exactly one inversion: {v:?}");
        assert!(v[0].cycle.len() >= 3);
        assert!(v[0].cycle.first() == v[0].cycle.last());
        assert!(lock_order::check_clean("abba-test").is_err());
    }

    #[test]
    fn consistent_order_is_clean() {
        let a = Arc::new(OrderedMutex::new("clean-test.A", ()));
        let b = Arc::new(OrderedMutex::new("clean-test.B", ()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (a, b) = (a.clone(), b.clone());
            handles.push(thread::spawn(move || {
                for _ in 0..100 {
                    let _ga = a.lock();
                    let _gb = b.lock();
                }
            }));
        }
        for h in handles {
            h.join().unwrap_or(());
        }
        assert!(lock_order::check_clean("clean-test").is_ok());
        assert!(lock_order::edge_count() >= 1);
    }

    #[test]
    fn three_lock_cycle_detected() {
        let a = Arc::new(OrderedMutex::new("tri-test.A", ()));
        let b = Arc::new(OrderedMutex::new("tri-test.B", ()));
        let c = Arc::new(OrderedMutex::new("tri-test.C", ()));
        let nest = |x: Arc<OrderedMutex<()>>, y: Arc<OrderedMutex<()>>| {
            thread::spawn(move || {
                let _gx = x.lock();
                let _gy = y.lock();
            })
            .join()
            .unwrap_or(())
        };
        nest(a.clone(), b.clone()); // A → B
        nest(b.clone(), c.clone()); // B → C
        nest(c.clone(), a.clone()); // C → A: cycle through three locks
        let v = lock_order::violations_mentioning("tri-test");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].cycle.len(), 4); // A → B → C → A
    }

    #[test]
    fn reentrant_acquisition_flagged_via_try_lock() {
        let m = Arc::new(OrderedMutex::new("reent-test.M", ()));
        let _g = m.lock();
        // try_lock records the intent (and the self-cycle) but must
        // not block; it fails because the lock is held.
        assert!(m.try_lock().is_none());
        let v = lock_order::violations_mentioning("reent-test");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].cycle.len(), 2);
    }

    #[test]
    fn rwlock_inversion_detected_through_reads() {
        let a = Arc::new(OrderedRwLock::new("rw-test.A", ()));
        let b = Arc::new(OrderedMutex::new("rw-test.B", ()));
        let (a1, b1) = (a.clone(), b.clone());
        thread::spawn(move || {
            let _ga = a1.read();
            let _gb = b1.lock();
        })
        .join()
        .unwrap_or(());
        let (a2, b2) = (a.clone(), b.clone());
        thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.write();
        })
        .join()
        .unwrap_or(());
        assert_eq!(lock_order::violations_mentioning("rw-test").len(), 1);
    }

    /// A dropped lock leaves the registry: its label and its edges go
    /// with it, so building and dropping locks does not grow the graph.
    #[test]
    fn dropped_locks_leave_the_registry() {
        assert_eq!(lock_order::label_count("drop-test."), 0);
        for i in 0..500 {
            let m = OrderedMutex::new(&format!("drop-test.M{i}"), ());
            let r = OrderedRwLock::new(&format!("drop-test.R{i}"), ());
            let _gm = m.lock();
            let _gr = r.write(); // edge M → R
        }
        assert_eq!(lock_order::label_count("drop-test."), 0);
        let a = OrderedMutex::new("drop-test.A", ());
        let b = OrderedMutex::new("drop-test.B", ());
        {
            let _ga = a.lock();
            let _gb = b.lock(); // edge A → B
        }
        assert_eq!(lock_order::label_count("drop-test."), 2);
        let edge_to_b = || {
            registry()
                .edges
                .lock()
                .values()
                .any(|to| to.contains(&b.node.0))
        };
        assert!(edge_to_b());
        drop(a);
        assert!(!edge_to_b());
        assert_eq!(lock_order::label_count("drop-test."), 1);
        assert!(lock_order::check_clean("drop-test").is_ok());
    }

    #[test]
    fn guard_release_unwinds_held_stack() {
        let a = OrderedMutex::new("stack-test.A", 1);
        let b = OrderedMutex::new("stack-test.B", 2);
        {
            let _ga = a.lock();
        }
        {
            // A was released above, so this is NOT a nested
            // acquisition: no edge A → B may appear from this thread.
            let _gb = b.lock();
            let _ga = a.lock(); // edge B → A
        }
        {
            let _ga = a.lock();
            drop(_ga);
            let _gb = b.lock(); // still no A → B edge: A already out
        }
        assert!(lock_order::check_clean("stack-test").is_ok());
    }
}
