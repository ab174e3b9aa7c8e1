//! `wacs-sync` — the workspace synchronization layer.
//!
//! The wide-area cluster is a lattice of cooperating daemons (Nexus
//! Proxy relays, RMF gatekeeper/allocator/Q servers, MPICH-G ranks),
//! each a bundle of threads sharing state behind locks. This crate is
//! the *only* sanctioned source of locking primitives in the
//! workspace (`xtask lint` enforces that) and provides three layers:
//!
//! * [`Mutex`]/[`RwLock`] — poison-transparent wrappers over
//!   `std::sync` with the ergonomic non-`Result` API the codebase
//!   standardised on. A panicking thread never wedges a daemon behind
//!   a poisoned lock: the data is assumed consistent because every
//!   critical section in this workspace is panic-free by lint policy.
//! * [`OrderedMutex`]/[`OrderedRwLock`] — instrumented locks that
//!   record per-thread acquisition stacks into a global lock-order
//!   graph and report ABBA inversions (cycles) the moment the second
//!   edge of a cycle appears, instead of the once-in-a-blue-moon
//!   wedge an inversion produces in production. See [`ordered`].
//! * [`channel`] — a bounded MPSC channel with timeout receive,
//!   replacing the previous external dependency.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod channel;
pub mod mutex;
pub mod ordered;

pub use channel::{bounded, Receiver, RecvTimeoutError, SendError, Sender, TryRecvError};
pub use mutex::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use ordered::{
    lock_order, OrderedMutex, OrderedMutexGuard, OrderedRwLock, OrderedRwLockReadGuard,
    OrderedRwLockWriteGuard, Violation,
};
