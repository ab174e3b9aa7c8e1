//! The proxy's control plane as sans-IO state machines: the two
//! servers here and in `outer`/`inner`, the client library's
//! operations in `client` ([`ClientCore`], a pull-style machine — a
//! linear operation needs no event/action executor).
//!
//! The outer and inner daemons make a dozen decisions (Fig. 3/4:
//! admit, dial, rendezvous, `RelayReq`/`RelayRep`, bridge; §6b/§6d:
//! heartbeat, bind re-sync, shard routing). They are made *here*, once:
//! [`OuterCore`] and [`InnerCore`] are `step(now, event) -> actions`
//! machines that touch no socket, thread or clock. Two drivers feed
//! them — blocking threads over `firewall::vnet` (`crate::outer`,
//! `crate::inner`) and `netsim` actors (`crate::sim`) — and a third,
//! `wacs-check`'s `servers` model, explores their interleavings. A
//! driver's whole job is to turn I/O into [`Event`]s and execute the
//! returned [`Action`]s in order; anything that needs a *decision* is
//! an event, never a branch in a driver (DESIGN.md §6g).
//!
//! Conventions:
//!
//! * `now` is nanoseconds on the driver's monotonic clock (as in
//!   `liveness.rs` and `shard.rs`); spans and timeouts are differences
//!   of `now` values, so wall and virtual time both work.
//! * Connections are named by driver-chosen [`ConnId`]s; dials by
//!   core-chosen [`DialId`]s that come back in `DialOk`/`DialFailed`.
//! * [`Action::Send`] is fire-and-forget: a dead connection surfaces
//!   as [`Event::Closed`]. [`Action::Reply`] carries a *positive* reply
//!   that commits the server to a long-lived role (`ConnectRep`/
//!   `RelayRep` ok, `BindRep` with a port); the driver must answer it
//!   with [`Event::Replied`], so a reply that never left is counted as
//!   a failure and its span closed.
//! * Each machine is wrapped by its driver in one lock (or owned by
//!   one actor); there is no interior synchronisation here.

mod client;
mod inner;
mod outer;
#[cfg(test)]
mod tests;

pub use client::{ClientCore, ClientHook, ClientOp, Outcome, Refusal, Step};
pub use inner::InnerCore;
pub use outer::{OuterCore, OuterParams};

use crate::hook::DialLeg;
use crate::protocol::CtrlMsg;
use crate::shard::{bind_key, member_tag, ShardMap};
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Duration;

/// How a driver names hosts: `String` on real sockets, `NodeId` in
/// virtual time. Shard keys stay per host type so HRW ownership — and
/// every virtual-time number that depends on it — is what it was
/// before the servers shared a core.
pub trait HostId: Clone + Eq + Ord + Debug {
    /// Stable HRW key of the endpoint `(self, port)`.
    fn shard_key(&self, port: u16) -> Vec<u8>;
    /// Admission-gate key for relays charged to this host.
    fn peer_key(&self) -> String;
}

impl HostId for String {
    fn shard_key(&self, port: u16) -> Vec<u8> {
        bind_key(self, port)
    }
    fn peer_key(&self) -> String {
        self.clone()
    }
}

/// The fleet's [`ShardMap`] over `members` (control endpoints, fleet
/// order): tags are the stable hashes of each endpoint's shard key, so
/// every party that holds the same list computes the same ownership.
pub fn shard_map<H: HostId>(generation: u64, members: &[(H, u16)]) -> ShardMap {
    let tags = members.iter().map(|(h, p)| member_tag(&h.shard_key(*p)));
    ShardMap::new(generation, tags.collect())
}

/// Driver-chosen connection name (socket sequence number, flow id).
pub type ConnId = u64;
/// Core-chosen name of one outbound dial.
pub type DialId = u64;

/// The outer server's two timers (heartbeat session only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Timer {
    /// Session is up: check expiry, re-sync what moved, ping.
    HbTick,
    /// Session is down: try to dial it again.
    HbRetry,
}

/// What happened. Every variant is something only the outside world
/// can know; the machines never ask for the time or poll a socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<H> {
    /// The server came up (outer: open the heartbeat session).
    Start,
    /// A connection arrived on listening port `port`.
    Accepted { conn: ConnId, port: u16 },
    /// A control frame arrived on a connection in framed mode.
    Frame { conn: ConnId, msg: CtrlMsg<H> },
    /// Outcome of an [`Action::Reply`].
    Replied { conn: ConnId, ok: bool },
    /// Outcome of an [`Action::Listen`]: the allocated port, if any.
    Listened { conn: ConnId, port: Option<u16> },
    /// A dial succeeded; the new connection is `conn`.
    DialOk { dial: DialId, conn: ConnId },
    /// A dial failed (`detail` is relayed to the requester).
    DialFailed { dial: DialId, detail: String },
    /// The connection ended: EOF, reset, failed read, or a bridged
    /// pair's pump finishing.
    Closed { conn: ConnId },
    /// A timer set by [`Action::SetTimer`] fired.
    Timer(Timer),
}

/// What to do about it, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action<H> {
    /// The core wants the next frame on `conn` (a blocking driver
    /// reads; an event-driven one already delivers them).
    Recv { conn: ConnId },
    /// Write `msg`; errors are ignored (see the module doc).
    Send { conn: ConnId, msg: CtrlMsg<H> },
    /// Write `msg` and report the outcome as [`Event::Replied`].
    Reply { conn: ConnId, msg: CtrlMsg<H> },
    /// Allocate a rendezvous listener for the bind on `conn`; report
    /// [`Event::Listened`], then deliver its peers as
    /// [`Event::Accepted`] on the allocated port.
    Listen { conn: ConnId },
    /// Stop listening on rendezvous port `port`.
    Unlisten { port: u16 },
    /// Dial `to`; report [`Event::DialOk`] or [`Event::DialFailed`].
    Dial {
        dial: DialId,
        leg: DialLeg,
        to: (H, u16),
    },
    /// Both streams leave framed mode: copy bytes between them until
    /// either ends, then report [`Event::Closed`] for one of them.
    Bridge { a: ConnId, b: ConnId },
    /// Drop the connection.
    Close { conn: ConnId },
    /// Deliver [`Event::Timer`] after `after`.
    SetTimer { timer: Timer, after: Duration },
}

/// Is a connection still speaking frames, or already an opaque pipe?
/// (An event-driven driver gets every delivery on one callback and
/// must know which it is looking at.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Framed,
    Pipe,
}

/// Observer called after every step with the event and its actions
/// (conformance traces, debugging). Not part of any decision.
pub type StepHook<H> = Arc<dyn Fn(&Event<H>, &[Action<H>]) + Send + Sync>;

/// The actions of the step in progress, and the observer that sees
/// them leave.
#[derive(Clone)]
struct Out<H> {
    actions: Vec<Action<H>>,
    hook: Option<StepHook<H>>,
}

impl<H: Clone> Out<H> {
    fn new() -> Self {
        Out {
            actions: Vec::new(),
            hook: None,
        }
    }

    fn push(&mut self, action: Action<H>) {
        self.actions.push(action);
    }

    fn recv(&mut self, conn: ConnId) {
        self.push(Action::Recv { conn });
    }

    fn send(&mut self, conn: ConnId, msg: CtrlMsg<H>) {
        self.push(Action::Send { conn, msg });
    }

    fn reply(&mut self, conn: ConnId, msg: CtrlMsg<H>) {
        self.push(Action::Reply { conn, msg });
    }

    fn close(&mut self, conn: ConnId) {
        self.push(Action::Close { conn });
    }

    fn timer(&mut self, timer: Timer, after: Duration) {
        self.push(Action::SetTimer { timer, after });
    }

    /// `ev`, kept for the observer if there is one.
    fn seen(&self, ev: &Event<H>) -> Option<Event<H>> {
        self.hook.as_ref().map(|_| ev.clone())
    }

    /// End the step: hand the actions out, past the observer.
    fn finish(&mut self, seen: Option<Event<H>>) -> Vec<Action<H>> {
        let actions = std::mem::take(&mut self.actions);
        if let (Some(hook), Some(ev)) = (&self.hook, seen) {
            hook(&ev, &actions);
        }
        actions
    }
}
