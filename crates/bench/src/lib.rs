//! `wacs-bench` — the paper's tables, figures and ablations, printed
//! from the calibrated virtual-time testbed by one bin:
//!
//! ```text
//! cargo run --release -p wacs-bench --bin paper -- <name> [--items N]
//! ```
//!
//! Every name is the file stem of a golden under `results/`, and
//! `tests/goldens.rs` requires the bin's stdout to equal that file byte
//! for byte (wall-clock numbers live in `benchmark/` instead):
//!
//! | name | prints | golden |
//! |---|---|---|
//! | `table2` | latency/bandwidth, direct vs indirect | `.txt` |
//! | `table3` | the four experimental systems | `.txt` |
//! | `table4` | knapsack execution time + speedup (and proxy overhead) | `.txt` |
//! | `table5` | steal counts (master + per-cluster max/min/avg) | `.txt` |
//! | `table6` | traversed nodes (master + per-cluster max/min/avg) | `.txt` |
//! | `figures` | Figs. 1-5 as validated textual renderings | `.txt` |
//! | `ablation_sweep` | the paper's interval/stealunit tuning | `.txt` |
//! | `ablation_portrange` | proxy vs `TCP_MIN/MAX_PORT` exposure trade | `.txt` |
//! | `ablation_relay` | Table 2 sensitivity to the relay cost model | `.txt` |
//! | `ablation_congestion` | Table 2 WAN cells under cross-traffic | `.txt` |
//! | `ablation_pruning` | node-count variance with the bound test on | `.txt` |
//! | `ablation_faults` | WAN fault rate vs knapsack completion | `.txt` |
//! //! | `table2_decomposition` | per-hop split of every Table 2 cell | `.json` |
//!
//! `--items N` scales the knapsack size of `table4`..`table6`,
//! `ablation_sweep` and `ablation_portrange`; the goldens are recorded
//! at the defaults.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
use knapsack::RunResult;

/// Every name `paper` prints, in usage order: each has a golden
/// `results/<name>.txt` or `.json`, and every golden whose name does not
/// start with `pr` is one of these (`tests/goldens.rs` checks both).
pub const NAMES: &[&str] = &[
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "figures",
    "ablation_sweep",
    "ablation_portrange",
    "ablation_relay",
    "ablation_congestion",
    "ablation_pruning",
    "ablation_faults",
    "table2_decomposition",
];

pub mod ablations;
pub mod congestion;
pub mod figures;
pub mod tables;

/// Pretty-print a bytes/second figure the way the paper does
/// (KB/sec or MB/sec).
pub fn fmt_bw(bytes_per_sec: f64) -> String {
    if bytes_per_sec >= 1.0e6 {
        format!("{:.2} MB/sec", bytes_per_sec / 1.0e6)
    } else {
        format!("{:.1} KB/sec", bytes_per_sec / 1.0e3)
    }
}

/// Pretty-print milliseconds.
pub fn fmt_ms(ms: f64) -> String {
    if ms < 1.0 {
        format!("{ms:.2} msec")
    } else {
        format!("{ms:.1} msec")
    }
}

/// Render one Table 5/6-style row: master value + per-group
/// max/min/avg.
pub fn group_row(
    rr: &RunResult,
    groups: &[&str],
    metric: impl Fn(&knapsack::RankStats) -> u64 + Copy,
) -> String {
    let mut row = String::new();
    let master = rr.master().map_or(0, metric);
    row.push_str(&format!("{master:>10} "));
    for g in groups {
        match rr.group_summary(g, metric) {
            Some(s) => row.push_str(&format!("{:>10} {:>10} {:>10.1} ", s.max, s.min, s.avg)),
            None => row.push_str(&format!("{:>10} {:>10} {:>10} ", "-", "-", "-")),
        }
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_formatting_matches_paper_units() {
        assert_eq!(fmt_bw(6.32e6), "6.32 MB/sec");
        assert_eq!(fmt_bw(70.5e3), "70.5 KB/sec");
    }

    #[test]
    fn ms_formatting() {
        assert_eq!(fmt_ms(0.41), "0.41 msec");
        assert_eq!(fmt_ms(25.0), "25.0 msec");
    }
}
