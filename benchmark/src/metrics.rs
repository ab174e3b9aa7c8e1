//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `../BENCHMARK.json` is rendered
//! from these tables (`--print-benchmark-json`) and a test pins the
//! file to them, so what a run emits and what the file declares cannot
//! drift apart.

/// Measured seconds of one run (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "echo",
        why: "closed-loop echo, one connection; a=two_hop-64B RTT, b=two_hop-16KiB RTT, c=one_hop-64B RTT: the pump's per-message cost does all the work, connection set-up none",
    },
    Workload {
        name: "bulk",
        why: "closed-loop 1 MiB streams over two hops; a=out1, b=in1, c=striped2 (K=2), per MiB: steady copy, pool and segment size do all the work, per-message and set-up cost none",
    },
    Workload {
        name: "churn",
        why: "connect + 64 B echo + close; a=active, b=passive (bind, dial, accept), c=active on a Poisson schedule: control round trip, dials, relay table and thread start do all the work",
    },
    Workload {
        name: "mpi_app",
        why: "gridmpi ranks inside and outside; a=1 KiB send+recv, b=knapsack par_run per Mnode, c=new channel to first message: compute-bound, so relay CPU use and steal RTT show, not relay latency",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

/// Every workload reports every one of these (the driver's contract),
/// so they are named by role; `Workload::why` and the README say which
/// cell fills each role.
pub const END_TO_END: &[Metric] = &[
    e2e("op_a_us", "us", 0.20),
    e2e("op_b_us", "us", 0.25),
    e2e("op_c_us", "us", 0.25),
    e2e("cpu_us_per_op", "us", 0.25),
    e2e("setup_s", "s", 0.25),
];

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

/// From the traced pass. A value of 0 on a workload means that workload
/// has no cell that calls into the layer that way (see the README's
/// interaction table for where each one is measured).
pub const PER_LAYER: &[Metric] = &[
    lower("vnet.dial_p50_us", "us"),
    lower("vnet.rtt_p50_us", "us"),
    higher("vnet.stream_MiBps", "MiB/s"),
    lower("protocol.encode_ns", "ns"),
    lower("protocol.decode_ns", "ns"),
    lower("client.connect_call_p50_us", "us"),
    lower("client.first_byte_p50_us", "us"),
    lower("client.bind_call_p50_us", "us"),
    lower("client.accept_wait_p50_us", "us"),
    lower("client.connect_open_p90_us", "us"),
    lower("client.gen_late_p90_us", "us"),
    lower("client.backlog_max", "count"),
    lower("outer.hop_rtt_added_us", "us"),
    lower("outer.connect_req_p50_us", "us"),
    lower("outer.bind_req_p50_us", "us"),
    lower("outer.relay_bridge_p50_us", "us"),
    lower("outer.control_handshake_p50_us", "us"),
    lower("outer.relay_drain_p50_us", "us"),
    lower("outer.threads_per_relay", "count"),
    lower("outer.thread_growth", "count"),
    lower("outer.fd_growth", "count"),
    lower("outer.busy_rejected", "count"),
    lower("outer.idle_reaped", "count"),
    lower("outer.relayed_amplification", "ratio"),
    lower("inner.hop_rtt_added_us", "us"),
    lower("inner.accept_added_us", "us"),
    higher("inner.stream_ratio", "ratio"),
    lower("inner.relays_failed", "count"),
    higher("pump.bytes_per_segment", "B"),
    higher("pump.coalesced_share", "ratio"),
    lower("pump.segment_p50_us", "us"),
    higher("pump.duplex_MiBps", "MiB/s"),
    lower("pump.segments_per_msg_mid", "count"),
    lower("pump.rtt_p50_us.1KiB", "us"),
    lower("pump.rtt_p50_us.4KiB", "us"),
    lower("pump.rtt_p50_us.64KiB", "us"),
    lower("pump.rtt_p90_us", "us"),
    lower("pump.rtt_tail_us", "us"),
    lower("pump.idle_cpu_ms_per_s", "ms/s"),
    lower("pool.get_put_ns", "ns"),
    higher("pool.hit_ratio", "ratio"),
    lower("pool.misses_per_relay", "count"),
    higher("stripe.encode_MiBps", "MiB/s"),
    higher("stripe.reassemble_MiBps", "MiB/s"),
    higher("stripe.reassemble_shuffled_MiBps", "MiB/s"),
    higher("stripe.gass_transfer_MiBps", "MiB/s"),
    lower("stripe.lane_skew", "ratio"),
    lower("stripe.redials", "count"),
    lower("shard.owner_ns", "ns"),
    lower("shard.bind_accept_added_us", "us"),
    lower("nexus.attach_p50_us", "us"),
    lower("nexus.send_p50_us", "us"),
    lower("gridmpi.send_call_p50_us", "us"),
    lower("gridmpi.resends", "count"),
    lower("gridmpi.duplicates_dropped", "count"),
    higher("knapsack.seq_Mnodes_per_s", "Mnodes/s"),
    higher("knapsack.par_efficiency", "ratio"),
    higher("knapsack.slave_share", "ratio"),
    lower("knapsack.steals", "count"),
    lower("bench.trace_overhead_share", "ratio"),
];

pub fn is_declared(table: &[Metric], name: &str) -> bool {
    table.iter().any(|m| m.name == name)
}

fn metric_json(m: &Metric) -> String {
    let bound = m
        .bound
        .map_or(String::new(), |b| format!(", \"bound\": {b}"));
    format!(
        "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
        m.name, m.unit, m.better
    )
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let join = |rows: Vec<String>| rows.join(",\n");
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        command.map(|c| format!("\"{c}\"")).join(", "),
        join(WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect()),
        join(END_TO_END.iter().map(metric_json).collect()),
        join(PER_LAYER.iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn declarations_stay_inside_the_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.unit, 16, "_/%.-"), "bad unit {}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.better == "lower"));
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_rendered_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with --print-benchmark-json"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
