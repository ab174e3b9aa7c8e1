//! Stateful connection tracking.
//!
//! A deny-based inbound policy would also drop the *reply* packets of
//! connections that inside hosts opened toward the outside, making all
//! outbound TCP useless. Real packet filters solve this with a state
//! table; so do we. A flow is inserted when its first packet passes the
//! rule set, and subsequent packets of the same endpoint pair (in either
//! direction) are passed as `ESTABLISHED` traffic. Only the
//! simulator's [`crate::Firewall`] keeps this table: the real-socket
//! [`crate::VNet`] decides each open from the policy alone.

use crate::rule::Endpoint;
use std::collections::HashSet;

/// Canonical key for a tracked flow.
///
/// The two endpoints are stored in a canonical (sorted) order so that a
/// packet and its reply map to the same key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    a: Endpoint,
    b: Endpoint,
}

impl FlowKey {
    pub fn new(src: Endpoint, dst: Endpoint) -> Self {
        let (a, b) = if (src.host, src.port) <= (dst.host, dst.port) {
            (src, dst)
        } else {
            (dst, src)
        };
        FlowKey { a, b }
    }
}

/// The state table.
#[derive(Debug, Default)]
pub struct ConnTracker {
    established: HashSet<FlowKey>,
}

impl ConnTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a flow as established (called after its opening packet
    /// passed the rule set).
    pub fn establish(&mut self, src: Endpoint, dst: Endpoint) {
        self.established.insert(FlowKey::new(src, dst));
    }

    /// Is this packet part of an established flow (either direction)?
    pub fn is_established(&self, src: Endpoint, dst: Endpoint) -> bool {
        self.established.contains(&FlowKey::new(src, dst))
    }

    /// Drop state for a closed flow.
    pub fn teardown(&mut self, src: Endpoint, dst: Endpoint) -> bool {
        self.established.remove(&FlowKey::new(src, dst))
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.established.len()
    }

    pub fn is_empty(&self) -> bool {
        self.established.is_empty()
    }

    /// Flush the whole table (e.g. on a simulated firewall reload).
    pub fn flush(&mut self) {
        self.established.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(h: u32, p: u16) -> Endpoint {
        Endpoint::new(h, p)
    }

    #[test]
    fn reply_maps_to_same_flow() {
        let k1 = FlowKey::new(ep(1, 40000), ep(9, 80));
        let k2 = FlowKey::new(ep(9, 80), ep(1, 40000));
        assert_eq!(k1, k2);
    }

    #[test]
    fn establish_then_reply_then_teardown() {
        let mut ct = ConnTracker::new();
        assert!(ct.is_empty());
        ct.establish(ep(1, 40000), ep(9, 80));
        assert_eq!(ct.len(), 1);
        // Reply direction is established too.
        assert!(ct.is_established(ep(9, 80), ep(1, 40000)));
        // A different flow is not.
        assert!(!ct.is_established(ep(9, 81), ep(1, 40000)));
        assert!(ct.teardown(ep(1, 40000), ep(9, 80)));
        assert!(!ct.is_established(ep(9, 80), ep(1, 40000)));
        // Second teardown is a no-op.
        assert!(!ct.teardown(ep(1, 40000), ep(9, 80)));
    }

    #[test]
    fn flush_clears_everything() {
        let mut ct = ConnTracker::new();
        for i in 0..10 {
            ct.establish(ep(1, 40000 + i), ep(9, 80));
        }
        assert_eq!(ct.len(), 10);
        ct.flush();
        assert!(ct.is_empty());
    }
}
