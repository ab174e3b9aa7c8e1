//! `nexus` — a Nexus-style communication library.
//!
//! Globus's communication layer (Nexus) exposes *startpoints* and
//! *endpoints*: one-way, message-oriented channels established by
//! attaching a startpoint to an endpoint's advertised address. This
//! crate reproduces that model over the firewall-guarded virtual
//! network, with the three behaviours the paper contrasts:
//!
//! * **dynamic ports, direct sockets** — Globus 1.0; broken across a
//!   deny-based firewall;
//! * **`TCP_MIN_PORT`/`TCP_MAX_PORT` ranges** — Globus 1.1; works only
//!   if the firewall opens the whole range ([`ports::PortPolicy`]);
//! * **the Nexus Proxy** — the paper's approach; endpoints advertise a
//!   rendezvous address on the outer server and startpoints attach
//!   through the relay.
//!
//! Switching between them is one constructor call on
//! [`NexusContext`] — the crate-level analogue of setting
//! `NEXUS_PROXY_OUTER_SERVER`/`NEXUS_PROXY_INNER_SERVER`.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
pub mod context;
pub mod endpoint;
pub mod msg;
pub mod ports;
pub mod startpoint;

pub use context::NexusContext;
pub use endpoint::Endpoint;
pub use ports::{PortAllocator, PortPolicy};
pub use startpoint::{InProcExchange, Startpoint};

use nexus_proxy::NxListener;
use std::io;

/// Bind a specific logical port directly (no proxy) — used by the
/// port-range policy.
pub(crate) fn range_bind(ctx: &NexusContext, port: u16) -> io::Result<NxListener> {
    ctx.net().bind(ctx.host(), port).map(NxListener::direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firewall::vnet::VNet;
    use firewall::{Policy, OUTER_PORT};
    use nexus_proxy::Deployment;
    use std::time::{Duration, Instant};

    pub(crate) fn world() -> Deployment {
        Deployment::paper(["rwcp-sun", "compas0"], ["etl-sun"]).unwrap()
    }

    pub(crate) fn proxied(net: &VNet, host: &str) -> NexusContext {
        NexusContext::via_proxy(net.clone(), host, ("rwcp-outer", OUTER_PORT))
    }

    #[test]
    fn endpoint_advertises_proxy_address() {
        let w = world();
        let ctx = proxied(&w.net, "rwcp-sun");
        let ep = ctx.endpoint().unwrap();
        assert_eq!(ep.advertised().0, "rwcp-outer");
    }

    #[test]
    fn startpoint_to_endpoint_across_firewall() {
        let w = world();
        let server_ctx = proxied(&w.net, "rwcp-sun");
        let ep = server_ctx.endpoint().unwrap();
        let (host, port) = ep.advertised();
        let (host, port) = (host.to_string(), port);

        // The ETL-side client is unproxied (no firewall there).
        let client_ctx = NexusContext::direct(w.net.clone(), "etl-sun");
        let sp = client_ctx.attach((&host, port)).unwrap();
        sp.send(b"msg-1").unwrap();
        sp.send(b"msg-2").unwrap();
        assert_eq!(ep.recv().unwrap(), b"msg-1");
        assert_eq!(ep.recv().unwrap(), b"msg-2");
    }

    /// On a fresh two-hop channel the second message is not held back.
    /// The inner server answers `RelayReq` on the nxport leg before
    /// that leg becomes a pipe, which puts its receive side into
    /// delayed-ACK ping-pong mode. With Nagle on at the outer server's
    /// end, message 2 then waits for the ACK of message 1: about 40 ms
    /// on Linux. The fastest of five channels is judged, so one
    /// scheduler hiccup cannot fail the test.
    #[test]
    fn second_message_on_a_fresh_two_hop_channel_is_not_delayed() {
        let w = world();
        let ep = proxied(&w.net, "rwcp-sun").endpoint().unwrap();
        let adv = (ep.advertised().0.to_string(), ep.advertised().1);
        let client_ctx = NexusContext::direct(w.net.clone(), "etl-sun");
        let times: Vec<Duration> = (0..5)
            .map(|_| {
                let sp = client_ctx.attach((&adv.0, adv.1)).unwrap();
                sp.send(b"first").unwrap();
                assert_eq!(ep.recv().unwrap(), b"first");
                let sent = Instant::now();
                sp.send(b"second").unwrap();
                assert_eq!(ep.recv().unwrap(), b"second");
                sent.elapsed()
            })
            .collect();
        let fastest = times.iter().min().copied().unwrap_or_default();
        assert!(
            fastest < Duration::from_millis(20),
            "message 2 took {times:?} on five fresh two-hop channels"
        );
    }

    #[test]
    fn direct_attach_to_firewalled_endpoint_fails() {
        let w = world();
        // Server binds WITHOUT the proxy: advertises its own address.
        let server_ctx = NexusContext::direct(w.net.clone(), "rwcp-sun");
        let ep = server_ctx.endpoint().unwrap();
        let (host, port) = ep.advertised();
        assert_eq!(host, "rwcp-sun");
        let (host, port) = (host.to_string(), port);
        let client_ctx = NexusContext::direct(w.net.clone(), "etl-sun");
        let err = client_ctx.attach((&host, port)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn bidirectional_channels_between_inside_hosts() {
        let w = world();
        let a_ctx = proxied(&w.net, "rwcp-sun");
        let b_ctx = proxied(&w.net, "compas0");
        let a_ep = a_ctx.endpoint().unwrap();
        let b_ep = b_ctx.endpoint().unwrap();
        let a_adv = (a_ep.advertised().0.to_string(), a_ep.advertised().1);
        let b_adv = (b_ep.advertised().0.to_string(), b_ep.advertised().1);
        let a_to_b = a_ctx.attach((&b_adv.0, b_adv.1)).unwrap();
        let b_to_a = b_ctx.attach((&a_adv.0, a_adv.1)).unwrap();
        a_to_b.send(b"ping").unwrap();
        assert_eq!(b_ep.recv().unwrap(), b"ping");
        b_to_a.send(b"pong").unwrap();
        assert_eq!(a_ep.recv().unwrap(), b"pong");
    }

    #[test]
    fn port_range_mode_works_only_if_firewall_opens_range() {
        let w = world();
        // Re-policy RWCP with a port-range hole (the Globus 1.1 way).
        let site = w.net.host_site("rwcp-sun").unwrap();
        w.net
            .reload_policy(site, Policy::typical_with_port_range("rwcp", 10000, 10010));
        let server_ctx = NexusContext::direct(w.net.clone(), "rwcp-sun")
            .with_port_policy(PortPolicy::range(10000, 10010));
        let ep = server_ctx.endpoint().unwrap();
        let (host, port) = ep.advertised();
        assert_eq!(host, "rwcp-sun");
        assert!((10000..=10010).contains(&port));
        let (host, port) = (host.to_string(), port);
        let client_ctx = NexusContext::direct(w.net.clone(), "etl-sun");
        let sp = client_ctx.attach((&host, port)).unwrap();
        sp.send(b"range").unwrap();
        assert_eq!(ep.recv().unwrap(), b"range");
    }

    #[test]
    fn recv_timeout_and_try_recv() {
        let w = world();
        let ctx = NexusContext::direct(w.net.clone(), "etl-sun");
        let ep = ctx.endpoint().unwrap();
        assert!(ep.try_recv().unwrap().is_none());
        assert!(ep
            .recv_timeout(Duration::from_millis(10))
            .unwrap()
            .is_none());
        let adv = (ep.advertised().0.to_string(), ep.advertised().1);
        // Use a separate context so the in-proc shortcut doesn't apply.
        let ctx2 = NexusContext::direct(w.net.clone(), "etl-sun");
        let sp = ctx2.attach((&adv.0, adv.1)).unwrap();
        sp.send(b"x").unwrap();
        let got = ep.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.unwrap(), b"x");
    }

    #[test]
    fn attach_retry_waits_for_late_endpoint() {
        let w = world();
        let net = w.net.clone();
        let t = std::thread::spawn(move || {
            let client = NexusContext::direct(net, "etl-sun");
            let policy = nexus_proxy::RetryPolicy::steps(100, Duration::from_millis(5));
            client.attach_retry(("etl-sun", 9009), policy)
        });
        std::thread::sleep(Duration::from_millis(50));
        // Bind late, directly on the known port.
        let _l = w.net.bind("etl-sun", 9009).unwrap();
        let sp = t.join().unwrap().unwrap();
        assert_eq!(sp.peer(), ("etl-sun", 9009));
    }
}
