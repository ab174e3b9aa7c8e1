//! Calibration constants tying the simulator to the paper's measured
//! environment (Fig. 5 / Table 2).
//!
//! Philosophy: link *bandwidths* are calibrated to the paper's
//! **measured direct goodput** (TCP over 2000-era stacks), not wire
//! rates; *latencies* to the measured direct latencies; the relay cost
//! model to the measured indirect rows. Each constant cites the paper
//! sentence it models. Absolute CPU rates are scale factors (the
//! paper's Tables 4-6 numeric cells did not survive OCR; only shape
//! claims are checked — see EXPERIMENTS.md).

use netsim::prelude::*;
use nexus_proxy::sim::RelayModel;

/// Effective goodput of the 100Base-T LANs (bytes/s). Anchor: direct
/// RWCP-Sun↔COMPaS moved 1 MB at 6.32 MB/s (Table 2); a switch hop
/// and protocol overhead sit on top, so per-link goodput is a bit
/// higher than end-to-end.
pub const LAN_BANDWIDTH: f64 = 7.0e6;

/// Per-LAN-hop latency. Anchor: direct RWCP-Sun↔COMPaS latency
/// 0.41 ms over host→switch→host plus per-message stack overhead.
pub const LAN_HOP_LATENCY_US: u64 = 100;

/// The 1.5 Mbps IMnet WAN segment (bytes/s goodput).
/// 1.5 Mbps ≈ 187 KB/s wire; ~170 KB/s after protocol overhead.
pub const WAN_BANDWIDTH: f64 = 170e3;

/// One-way WAN latency. Anchor: direct RWCP-Sun↔ETL-Sun latency
/// 3.9 ms, of which the LAN tails and stack overhead contribute
/// ~0.65 ms.
pub const WAN_LATENCY_MS: u64 = 3;
/// Extra microseconds to top up the WAN latency anchor.
pub const WAN_LATENCY_EXTRA_US: u64 = 250;

/// The relay cost model. Anchors:
/// * indirect latency ≈ 25 ms on both pairs (Table 2) with two relay
///   traversals on the LAN path and ~1.5 on the WAN round trip —
///   ⇒ ~12 ms service per message through a relay;
/// * indirect 4 KB bandwidth 70.5 KB/s on the LAN pair
///   ⇒ ~28 ms per relay per 4 KB message ⇒ ~260 KB/s copy bandwidth
///   (also what makes the LAN pair's double-relay path *slower* than
///   the WAN pair's single-relay path at 4 KB, as the paper observes);
/// * indirect 1 MB on the WAN pair ≈ direct (the 170 KB/s WAN is the
///   bottleneck, not the ~260 KB/s relay) — "the overhead of the Nexus
///   Proxy can be negligible when the message size is large".
pub fn relay_model() -> RelayModel {
    RelayModel {
        per_message: SimDuration::from_millis(12),
        bandwidth: 260e3,
    }
}

/// Relative CPU rates, in branch operations (search-tree nodes) per
/// second per processor. Absolute values are a scale knob (they set
/// virtual-seconds magnitudes); ratios follow the era's machines.
pub mod cpu {
    /// Sun Ultra Enterprise 450 (400 MHz UltraSPARC-II): the paper's
    /// sequential-baseline machine.
    pub const SUN_E450: f64 = 250_000.0;
    /// COMPaS node: 200 MHz Pentium Pro.
    pub const PENTIUM_PRO: f64 = 120_000.0;
    /// SGI Origin 2000 (R10000): per-CPU.
    pub const O2K_R10K: f64 = 200_000.0;
}

/// Problem size used for the Table 4-6 regeneration. The paper ran
/// n = 50 (≈ 2^51 nodes over ~10^3 s of 2000-era silicon); we run the
/// same algorithm on a 2^(n+1)-node space sized to keep *real* compute
/// tractable while the virtual-time magnitudes stay in the paper's
/// regime (hundreds of virtual seconds).
pub const TABLE4_ITEMS: usize = 26;

/// Smaller instance for tests and quick demos.
pub const QUICK_ITEMS: usize = 22;

#[cfg(test)]
mod tests {
    use super::*;

    // These tests assert relationships between calibration *constants*
    // on purpose: they pin the invariants a future re-calibration must
    // preserve.
    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn ratios_are_sane() {
        // The baseline Sun is the fastest per-CPU machine; PPro ~half.
        assert!(cpu::SUN_E450 > cpu::O2K_R10K);
        assert!(cpu::O2K_R10K > cpu::PENTIUM_PRO);
        assert!(cpu::SUN_E450 / cpu::PENTIUM_PRO < 3.0);
    }

    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn relay_is_slower_than_lan_faster_than_nothing() {
        let m = relay_model();
        assert!(m.bandwidth < LAN_BANDWIDTH);
        assert!(m.bandwidth > WAN_BANDWIDTH);
        assert!(m.per_message.as_millis_f64() > 1.0);
    }

    #[allow(clippy::assertions_on_constants)]
    #[test]
    fn wan_is_the_bottleneck_for_bulk() {
        assert!(WAN_BANDWIDTH < relay_model().bandwidth);
    }
}
