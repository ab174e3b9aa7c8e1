//! Flows (sim-TCP connections), listeners and port allocation.

use crate::time::SimTime;
use crate::topology::{LinkId, NodeId};
use std::collections::HashMap;

/// Identifier of an established (or once-established) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// One end of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowEnd {
    pub node: NodeId,
    pub port: u16,
    pub actor: crate::actor::ActorId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    Connecting,
    Established,
    Closed,
}

/// Why a connect attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// No listener on the destination port (TCP RST analogue).
    NoListener,
    /// A firewall on the path dropped the opening packet. Real deny
    /// rules usually drop silently (connect *times out*); we surface
    /// the refusal after the would-be timeout so callers see it.
    Filtered,
    /// No route between the hosts.
    Unreachable,
}

/// Why a flow ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// Orderly close by the peer.
    Peer,
    /// Local close (reported to the closer for symmetry).
    Local,
    /// A firewall started dropping mid-flow traffic (policy reload).
    Filtered,
    /// The peer actor was stopped/crashed.
    PeerCrashed,
    /// The transport gave up after repeated chunk loss (fault
    /// injection exhausted the retransmit budget).
    Lost,
}

/// A flow record kept by the engine.
#[derive(Debug, Clone)]
pub struct Flow {
    pub id: FlowId,
    /// Initiating end.
    pub a: FlowEnd,
    /// Accepting end.
    pub b: FlowEnd,
    /// Route a→b as a link sequence (empty when both ends share a host).
    pub path: std::sync::Arc<Vec<LinkId>>,
    /// Node sequence a→b including both endpoints (`path.len() + 1`
    /// entries; a single entry for loopback flows).
    pub nodes: std::sync::Arc<Vec<NodeId>>,
    pub state: FlowState,
    pub opened_at: SimTime,
    /// Monotonic per-flow message sequence (diagnostics).
    pub messages: u64,
    /// Messages sent and not yet delivered, per direction
    /// (`[b→a, a→b]`).
    pub in_flight: [u32; 2],
    /// Set by an orderly close while the closer still has messages in
    /// flight: they drain, then the peer hears `Closed`.
    pub draining: Option<Draining>,
}

/// An orderly close waiting for the closer's last messages to land.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draining {
    /// The closer's send direction (true = a→b).
    pub forward: bool,
    /// Earliest time the peer may hear the close (one-way latency
    /// after it was issued).
    pub not_before: SimTime,
}

impl Flow {
    /// The end owned by `actor` on `node`, plus the peer end.
    /// Both ends can live on the same node (loopback), so the actor id
    /// disambiguates.
    pub fn ends_for(&self, actor: crate::actor::ActorId) -> Option<(&FlowEnd, &FlowEnd)> {
        if self.a.actor == actor {
            Some((&self.a, &self.b))
        } else if self.b.actor == actor {
            Some((&self.b, &self.a))
        } else {
            None
        }
    }

    /// True if `actor` is the initiating (a) side.
    pub fn is_initiator(&self, actor: crate::actor::ActorId) -> bool {
        self.a.actor == actor
    }
}

/// Per-host ephemeral port allocator + listener registry.
#[derive(Debug, Default)]
pub struct PortTable {
    /// (node, port) → listening actor.
    listeners: HashMap<(NodeId, u16), crate::actor::ActorId>,
    /// Next ephemeral port per node.
    next_ephemeral: HashMap<NodeId, u16>,
}

pub const EPHEMERAL_BASE: u16 = 32768;

impl PortTable {
    pub fn listen(
        &mut self,
        node: NodeId,
        port: u16,
        actor: crate::actor::ActorId,
    ) -> Result<u16, PortError> {
        let port = if port == 0 {
            self.ephemeral(node)
        } else {
            port
        };
        match self.listeners.entry((node, port)) {
            std::collections::hash_map::Entry::Occupied(_) => Err(PortError::InUse(port)),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(actor);
                Ok(port)
            }
        }
    }

    pub fn unlisten(&mut self, node: NodeId, port: u16) -> bool {
        self.listeners.remove(&(node, port)).is_some()
    }

    pub fn listener(&self, node: NodeId, port: u16) -> Option<crate::actor::ActorId> {
        self.listeners.get(&(node, port)).copied()
    }

    /// Allocate an ephemeral (connecting-side or listen(0)) port.
    pub fn ephemeral(&mut self, node: NodeId) -> u16 {
        let next = self.next_ephemeral.entry(node).or_insert(EPHEMERAL_BASE);
        // Skip ports with listeners; wrap within the ephemeral range.
        for _ in 0..=u16::MAX - EPHEMERAL_BASE {
            let p = *next;
            *next = if p == u16::MAX { EPHEMERAL_BASE } else { p + 1 };
            if !self.listeners.contains_key(&(node, p)) {
                return p;
            }
        }
        // 64k simultaneous listeners on one simulated host is a harness
        // bug, not a recoverable condition; abort with the culprit node.
        #[allow(clippy::panic)]
        {
            panic!("ephemeral port space exhausted on {node:?}"); // lint:allow(unwrap-panic)
        }
    }

    /// Remove all listeners owned by an actor (crash cleanup). Returns
    /// the freed ports.
    pub fn drop_actor(&mut self, actor: crate::actor::ActorId) -> Vec<(NodeId, u16)> {
        let keys: Vec<(NodeId, u16)> = self
            .listeners
            .iter()
            .filter(|(_, a)| **a == actor)
            .map(|(k, _)| *k)
            .collect();
        for k in &keys {
            self.listeners.remove(k);
        }
        keys
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortError {
    InUse(u16),
}

impl std::fmt::Display for PortError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PortError::InUse(p) => write!(f, "port {p} already has a listener"),
        }
    }
}

impl std::error::Error for PortError {}

#[cfg(test)]
mod tests {
    use super::*;

    const N: NodeId = NodeId(0);
    const M: NodeId = NodeId(1);

    #[test]
    fn listen_and_conflict() {
        let mut pt = PortTable::default();
        assert_eq!(pt.listen(N, 80, 1).unwrap(), 80);
        assert_eq!(pt.listen(N, 80, 2), Err(PortError::InUse(80)));
        // Same port on another node is fine.
        assert_eq!(pt.listen(M, 80, 2).unwrap(), 80);
        assert_eq!(pt.listener(N, 80), Some(1));
        assert!(pt.unlisten(N, 80));
        assert!(!pt.unlisten(N, 80));
        assert_eq!(pt.listener(N, 80), None);
    }

    #[test]
    fn listen_zero_allocates_ephemeral() {
        let mut pt = PortTable::default();
        let p1 = pt.listen(N, 0, 1).unwrap();
        let p2 = pt.listen(N, 0, 1).unwrap();
        assert!(p1 >= EPHEMERAL_BASE);
        assert_ne!(p1, p2);
    }

    #[test]
    fn ephemeral_skips_listeners() {
        let mut pt = PortTable::default();
        pt.listen(N, EPHEMERAL_BASE, 1).unwrap();
        let p = pt.ephemeral(N);
        assert_ne!(p, EPHEMERAL_BASE);
    }

    #[test]
    fn drop_actor_cleans_listeners() {
        let mut pt = PortTable::default();
        pt.listen(N, 80, 1).unwrap();
        pt.listen(N, 81, 1).unwrap();
        pt.listen(N, 82, 2).unwrap();
        let freed = pt.drop_actor(1);
        assert_eq!(freed.len(), 2);
        assert_eq!(pt.listener(N, 80), None);
        assert_eq!(pt.listener(N, 82), Some(2));
    }
}
