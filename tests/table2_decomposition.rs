//! Golden tests for the per-hop latency decomposition (the
//! observability layer's accounting must *add up*): every Table 2
//! cell's one-way latency splits into hop components that sum to the
//! end-to-end figure, the end-to-end figure is the forward time Table 2
//! reports, and on the WAN pair the WAN leg is the dominant transit
//! component.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use wacs::wacs_core::{decompose, pingpong, Decomposition, Mode, Pair};

/// 1 sim-tick = 1 virtual nanosecond.
const TICK: u64 = 1;

fn assert_sums(d: &Decomposition) {
    let sum = d.component_sum();
    assert!(
        sum.abs_diff(d.total_ns) <= TICK,
        "{} {} size {}: components sum to {sum} ns but end-to-end is {} ns\n{:#?}",
        d.pair.name(),
        d.mode.name(),
        d.size,
        d.total_ns,
        d.components
    );
    for c in &d.components {
        assert!(
            c.nanos > 0,
            "{} {}: component {} is zero — an instrument is miswired",
            d.pair.name(),
            d.mode.name(),
            c.name
        );
    }
}

#[test]
fn components_sum_to_end_to_end_for_every_cell() {
    for pair in [Pair::RwcpSunCompas, Pair::RwcpSunEtlSun] {
        for mode in [Mode::Direct, Mode::Indirect] {
            for size in [1u64, 1024] {
                assert_sums(&decompose(pair, mode, size));
            }
        }
    }
}

/// The decomposition splits the number Table 2's bandwidth is computed
/// from: the ping-pong's mean forward (ping direction) time, exactly.
#[test]
fn total_is_the_pingpong_forward_time_for_every_cell() {
    for pair in [Pair::RwcpSunCompas, Pair::RwcpSunEtlSun] {
        for mode in [Mode::Direct, Mode::Indirect] {
            for size in [1u64, 1024] {
                let total = decompose(pair, mode, size).total_ns;
                let forward = pingpong(pair, mode, size).forward.nanos();
                assert_eq!(
                    total,
                    forward,
                    "{} {} size {size}: decomposition total vs ping-pong forward",
                    pair.name(),
                    mode.name()
                );
            }
        }
    }
}

#[test]
fn direct_cells_are_a_single_wire_leg() {
    for pair in [Pair::RwcpSunCompas, Pair::RwcpSunEtlSun] {
        let d = decompose(pair, Mode::Direct, 1);
        assert_eq!(d.components.len(), 1, "{}", pair.name());
        assert_eq!(d.components[0].name, "wire_transit");
        assert_eq!(d.components[0].nanos, d.total_ns);
    }
}

#[test]
fn indirect_lan_crosses_both_relays() {
    let d = decompose(Pair::RwcpSunCompas, Mode::Indirect, 1);
    let names: Vec<&str> = d.components.iter().map(|c| c.name).collect();
    assert_eq!(
        names,
        [
            "client_to_outer",
            "outer_relay_service",
            "outer_to_inner",
            "inner_relay_service",
            "inner_to_target"
        ]
    );
    assert_sums(&d);
    // The relay service gaps (not the wires) are what blow the LAN
    // latency from 0.41 ms to 25 ms in Table 2.
    let service: u64 = d
        .components
        .iter()
        .filter(|c| !c.is_transit)
        .map(|c| c.nanos)
        .sum();
    assert!(
        service > d.total_ns / 2,
        "relay service {service} ns should dominate the {} ns total",
        d.total_ns
    );
}

#[test]
fn wan_leg_dominates_indirect_wan_transit() {
    let d = decompose(Pair::RwcpSunEtlSun, Mode::Indirect, 1);
    let names: Vec<&str> = d.components.iter().map(|c| c.name).collect();
    assert_eq!(
        names,
        ["client_to_outer", "outer_relay_service", "wan_to_target"]
    );
    assert_sums(&d);
    let dominant = d.dominant_transit().expect("has transit components");
    assert_eq!(
        dominant.name, "wan_to_target",
        "WAN leg should be the largest transit component: {:#?}",
        d.components
    );
}

#[test]
fn report_json_is_deterministic_and_self_consistent() {
    let a = wacs::wacs_core::table2_report(1);
    let b = wacs::wacs_core::table2_report(1);
    assert_eq!(a, b, "same inputs must render byte-identical JSON");
    assert!(a.starts_with('{') && a.ends_with('}'));
    assert!(a.contains("\"report\":\"table2_decomposition\""));
    // One cell per pair × mode.
    assert_eq!(a.matches("\"total_ns\"").count(), 4);
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/table2_decomposition.json"
    );
    let want = std::fs::read_to_string(golden).expect("read the golden");
    assert_eq!(
        format!("{a}\n"),
        want,
        "table2_report(1) no longer matches results/table2_decomposition.json; if intended, \
         re-record with:\n  cargo run --release -p wacs-bench --bin paper -- \
         table2_decomposition > results/table2_decomposition.json"
    );
}
