//! Relay accounting, shared between server threads.
//!
//! Counters are backed by a `wacs-obs` [`Registry`] rather than bare
//! atomics, so a proxy server's numbers live in the same namespace as
//! the span histograms recorded around its service paths (control
//! handshake, ConnectReq, BindReq/rendezvous, pump segments) and can be
//! exported/merged as one snapshot. The real-socket paths time spans
//! with the monotonic clock — they are for humans; only the simulated
//! paths promise deterministic snapshots.

use wacs_obs::{Counter, Gauge, Histogram, Registry};

/// Counters and service-time histograms kept by each proxy server
/// (outer or inner). Handles are shared: cloning a field aliases it.
pub struct ProxyStats {
    registry: Registry,
    /// Bytes copied through the relay (both directions).
    pub relayed_bytes: Counter,
    /// Control connections accepted.
    pub control_accepts: Counter,
    /// Active opens relayed (ConnectReq handled successfully).
    pub connects_ok: Counter,
    pub connects_failed: Counter,
    /// Passive registrations (BindReq handled).
    pub binds: Counter,
    /// Passive relays completed (peer↔inner bridges established).
    pub relays_ok: Counter,
    pub relays_failed: Counter,
    /// Admission-control refusals (typed `Busy` sent to the peer).
    pub busy_rejected: Counter,
    /// Half-open relays reaped by the idle-timeout sweeper.
    pub idle_reaped: Counter,
    /// Heartbeat probes sent / replies observed on the outer→inner
    /// control session.
    pub hb_pings: Counter,
    pub hb_pongs: Counter,
    /// Dead-peer declarations of the inner server (heartbeat timeout,
    /// refused dial, or control-session EOF while alive).
    pub inner_deaths: Counter,
    /// Successful re-establishments of the control session after a
    /// death (each immediately re-registers live binds via BindSync).
    pub inner_reconnects: Counter,
    /// Bind-table syncs applied (inner) or sent (outer).
    pub bind_syncs: Counter,
    /// Relay requests refused because the target endpoint was not in
    /// the synced bind table (inner server, registration required).
    pub relays_unauthorized: Counter,
    /// `pump_pooled` pairs whose stream clone failed; both sockets are
    /// reset rather than silently degrading to one-directional copy.
    pub pump_clone_failures: Counter,
    /// Buffer-pool segment reuses (free-list pops).
    pub pool_hits: Counter,
    /// Buffer-pool allocations (free list empty or over-size request).
    pub pool_misses: Counter,
    /// Segments read by a pump (one successful `read` call each).
    pub pump_segments: Counter,
    /// Writes that drained more than one read in a single syscall.
    /// Nothing increments it since the reactor data plane was deleted;
    /// kept because `benchmark/src/layers.rs` reads it for
    /// `pump.coalesced_share`, and goes with that row when
    /// `benchmark/BASELINE.json` is next re-recorded.
    pub pump_coalesced_writes: Counter,
    /// 1 while the inner server's control session is live, else 0.
    pub inner_alive: Gauge,
    /// Currently active relay-table entries.
    pub active_relays: Gauge,
    /// First control message read+dispatch time.
    pub control_handshake_ns: Histogram,
    /// ConnectReq service: dial target + reply.
    pub connect_req_ns: Histogram,
    /// BindReq service: rendezvous allocation + registration + reply.
    pub bind_req_ns: Histogram,
    /// Passive relay bridge establishment (peer arrival → streams
    /// bridged or refused).
    pub relay_bridge_ns: Histogram,
    /// One pump segment: read a segment from one side, write it to the
    /// other.
    pub pump_segment_ns: Histogram,
}

impl Default for ProxyStats {
    fn default() -> Self {
        Self::in_registry(&Registry::new(), "proxy")
    }
}

impl ProxyStats {
    /// Create the instrument set under `prefix` in `registry`.
    pub fn in_registry(registry: &Registry, prefix: &str) -> Self {
        let c = |name: &str| registry.counter(&format!("{prefix}.{name}"));
        let g = |name: &str| registry.gauge(&format!("{prefix}.{name}"));
        let h = |name: &str| registry.histogram(&format!("{prefix}.{name}"));
        ProxyStats {
            relayed_bytes: c("relayed_bytes"),
            control_accepts: c("control_accepts"),
            connects_ok: c("connects_ok"),
            connects_failed: c("connects_failed"),
            binds: c("binds"),
            relays_ok: c("relays_ok"),
            relays_failed: c("relays_failed"),
            busy_rejected: c("busy_rejected"),
            idle_reaped: c("idle_reaped"),
            hb_pings: c("hb_pings"),
            hb_pongs: c("hb_pongs"),
            inner_deaths: c("inner_deaths"),
            inner_reconnects: c("inner_reconnects"),
            bind_syncs: c("bind_syncs"),
            relays_unauthorized: c("relays_unauthorized"),
            pump_clone_failures: c("pump_clone_failures"),
            pool_hits: c("pool_hits"),
            pool_misses: c("pool_misses"),
            pump_segments: c("pump_segments"),
            pump_coalesced_writes: c("pump_coalesced_writes"),
            inner_alive: g("inner_alive"),
            active_relays: g("active_relays"),
            control_handshake_ns: h("control_handshake_ns"),
            connect_req_ns: h("connect_req_ns"),
            bind_req_ns: h("bind_req_ns"),
            relay_bridge_ns: h("relay_bridge_ns"),
            pump_segment_ns: h("pump_segment_ns"),
            registry: registry.clone(),
        }
    }

    /// The registry every instrument lives in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn add_bytes(&self, n: u64) {
        self.relayed_bytes.add(n);
    }

    pub fn snapshot(&self) -> ProxySnapshot {
        ProxySnapshot {
            relayed_bytes: self.relayed_bytes.get(),
            control_accepts: self.control_accepts.get(),
            connects_ok: self.connects_ok.get(),
            connects_failed: self.connects_failed.get(),
            binds: self.binds.get(),
            relays_ok: self.relays_ok.get(),
            relays_failed: self.relays_failed.get(),
            busy_rejected: self.busy_rejected.get(),
            idle_reaped: self.idle_reaped.get(),
            inner_deaths: self.inner_deaths.get(),
            inner_reconnects: self.inner_reconnects.get(),
            relays_unauthorized: self.relays_unauthorized.get(),
            pump_clone_failures: self.pump_clone_failures.get(),
            pool_hits: self.pool_hits.get(),
            pool_misses: self.pool_misses.get(),
            pump_segments: self.pump_segments.get(),
            pump_coalesced_writes: self.pump_coalesced_writes.get(),
        }
    }
}

/// Point-in-time copy of the [`ProxyStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProxySnapshot {
    pub relayed_bytes: u64,
    pub control_accepts: u64,
    pub connects_ok: u64,
    pub connects_failed: u64,
    pub binds: u64,
    pub relays_ok: u64,
    pub relays_failed: u64,
    pub busy_rejected: u64,
    pub idle_reaped: u64,
    pub inner_deaths: u64,
    pub inner_reconnects: u64,
    pub relays_unauthorized: u64,
    pub pump_clone_failures: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pump_segments: u64,
    pub pump_coalesced_writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let s = ProxyStats::default();
        s.add_bytes(100);
        s.add_bytes(28);
        s.connects_ok.inc();
        s.binds.inc();
        s.binds.inc();
        let snap = s.snapshot();
        assert_eq!(snap.relayed_bytes, 128);
        assert_eq!(snap.connects_ok, 1);
        assert_eq!(snap.binds, 2);
        assert_eq!(snap.relays_failed, 0);
    }

    #[test]
    fn instruments_share_one_registry_namespace() {
        let reg = Registry::new();
        let s = ProxyStats::in_registry(&reg, "proxy.outer");
        s.connects_ok.inc();
        s.connect_req_ns.record(1_000_000);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("proxy.outer.connects_ok"), Some(&1));
        assert_eq!(
            snap.histograms
                .get("proxy.outer.connect_req_ns")
                .map(|h| h.count),
            Some(1)
        );
    }
}
