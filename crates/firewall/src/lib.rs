//! Firewall model for the wide-area cluster system.
//!
//! The paper (§1) distinguishes two base configurations of a border
//! firewall:
//!
//! * **allow-based** — every port is open by default; specific ports are
//!   closed to intensify security;
//! * **deny-based** — every port is closed by default; specific ports are
//!   opened explicitly.
//!
//! and assumes the *typical* configuration throughout: **deny-based for
//! incoming packets, allow-based for outgoing packets**. That asymmetry
//! is what breaks Globus 1.0 (dynamically allocated listener ports are
//! unreachable from outside) and what the Nexus Proxy works around.
//!
//! This crate models that world precisely enough for both consumers:
//!
//! * the discrete-event simulator (`netsim`) consults a [`Firewall`] for
//!   every simulated connection attempt and data packet crossing a
//!   gateway;
//! * the real-socket stack (`nexus`, `nexus-proxy`) consults the same
//!   [`Firewall`] before issuing a `connect(2)`, so a loopback deployment
//!   faithfully refuses exactly the flows a real border router would
//!   drop.
//!
//! The model is stateful: like any practical packet filter, reply
//! traffic of an **established** connection is passed by the connection
//! tracker even under a deny-based inbound policy (otherwise no
//! outbound-initiated TCP connection could ever complete).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod audit;
pub mod conntrack;
pub mod policy;
pub mod rule;
pub mod vnet;

pub use audit::{AuditLog, AuditRecord};
pub use conntrack::{ConnTracker, FlowKey};
pub use policy::{Firewall, Policy};
pub use rule::{Action, Direction, Endpoint, HostRef, HostSet, PortSet, Proto, Rule, Verdict};
pub use vnet::{StopHandle, VListener, VNet, VSiteId};

/// The well-known relay port (the paper's `nxport`) that the outer
/// server uses to reach the inner server: the **single** hole that must
/// be opened in a deny-based inbound policy for the proxy scheme to
/// work. The paper binds it to a privileged port (root-only) to
/// strengthen security; we keep the same convention.
pub const NXPORT: u16 = 911;

/// Default port of the outer proxy server (outside the firewall).
pub const OUTER_PORT: u16 = 5678;

/// Default port of a Globus-style gatekeeper (outside the firewall).
pub const GATEKEEPER_PORT: u16 = 2119;

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn nxport_is_privileged() {
        // The paper's security argument: binding the relay endpoint to a
        // privileged port requires root, so a rogue user process cannot
        // impersonate the inner server.
        assert!(NXPORT < 1024);
    }
}
