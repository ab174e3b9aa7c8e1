//! Tables 2-6 of the paper, printed from the calibrated virtual-time
//! testbed (`paper table2` … `paper table6`).

use crate::{fmt_bw, fmt_ms, group_row};
use wacs_core::{
    pingpong, run_knapsack, sequential_baseline, FirewallMode, KnapsackRun, Mode, Pair,
    PaperTestbed, System,
};

/// Table 2: communication latency and bandwidth, direct vs indirect
/// (through the Nexus Proxy).
///
/// Paper values for reference:
///
/// ```text
///                                latency   bw(4096B)   bw(1MB)
/// RWCP-Sun <-> COMPaS (direct)   0.41 ms   3.29 MB/s   6.32 MB/s
/// RWCP-Sun <-> COMPaS (indirect) 25.0 ms   70.5 KB/s   (≈10x drop)
/// RWCP-Sun <-> ETL-Sun (direct)   3.9 ms   (lost)      (lost)
/// RWCP-Sun <-> ETL-Sun (indirect) 25.1 ms  (lost)      ≈ direct
/// ```
pub fn table2() {
    println!("Table 2: Communication latency and bandwidth (simulated testbed)\n");
    println!(
        "{:<34} {:>12} {:>16} {:>16}",
        "", "latency", "bw (4096B)", "bw (1MB)"
    );
    for pair in [Pair::RwcpSunCompas, Pair::RwcpSunEtlSun] {
        for mode in [Mode::Direct, Mode::Indirect] {
            let lat = pingpong(pair, mode, 1).one_way;
            let bw4k = pingpong(pair, mode, 4096).bandwidth;
            let bw1m = pingpong(pair, mode, 1 << 20).bandwidth;
            println!(
                "{:<34} {:>12} {:>16} {:>16}",
                format!("{} ({})", pair.name(), mode.name()),
                fmt_ms(lat.as_millis_f64()),
                fmt_bw(bw4k),
                fmt_bw(bw1m)
            );
        }
    }
    println!("\npaper anchors: direct 0.41/3.9 ms; indirect 25.0/25.1 ms;");
    println!("LAN indirect ~order-of-magnitude bandwidth drop; WAN 1MB ≈ direct.");
}

/// Table 3: the four experimental systems, their processor layouts and
/// communication devices — printed from the same testbed data
/// structures the experiments execute on.
pub fn table3() {
    let tb = PaperTestbed::build(FirewallMode::DenyInWithNxport);
    println!("Table 3: Experimental testbed\n");
    println!("{:<22} {:>6}  Description", "Nickname", "procs");
    for system in System::ALL {
        let ranks = system.ranks(&tb);
        // Count ranks per distinct group, preserving order.
        let mut per_group: Vec<(String, usize)> = Vec::new();
        for r in &ranks {
            match per_group.iter_mut().find(|(g, _)| *g == r.group) {
                Some((_, n)) => *n += 1,
                None => per_group.push((r.group.clone(), 1)),
            }
        }
        let layout = per_group
            .iter()
            .map(|(g, n)| format!("{n} on {g}"))
            .collect::<Vec<_>>()
            .join(", ");
        let device = match system {
            System::Compas => "mpich ch_p4 device",
            System::EtlO2k => "vendor-provided MPI",
            System::LocalArea | System::WideArea => "mpich Globus device utilizing the Nexus Proxy",
        };
        println!(
            "{:<22} {:>6}  {} — {}",
            system.name(),
            ranks.len(),
            layout,
            device
        );
    }
}

/// Table 4: execution time and speedup of the 0-1 knapsack problem on
/// the four systems, plus the wide-area cluster with and without the
/// Nexus Proxy (the paper's ≈3.5 % overhead result).
pub fn table4(items: usize) {
    println!("Table 4: Execution time for the 0-1 knapsack problem");
    println!(
        "(no-pruning instance, n = {items}, 2^{} nodes; virtual seconds)\n",
        items + 1
    );

    let seq = sequential_baseline(items);
    println!(
        "{:<38} {:>6} {:>14} {:>9}",
        "System", "procs", "time (s)", "speedup"
    );
    println!(
        "{:<38} {:>6} {:>14.1} {:>9.2}",
        "RWCP-Sun (sequential)", 1, seq.elapsed_secs, 1.0
    );

    for system in System::ALL {
        let cfg = KnapsackRun::paper_default(system, items);
        let rr = run_knapsack(&cfg);
        let label = if system == System::WideArea {
            format!("{} (use Nexus Proxy)", system.name())
        } else {
            system.name().to_string()
        };
        println!(
            "{:<38} {:>6} {:>14.1} {:>9.2}",
            label,
            rr.ranks.len(),
            rr.elapsed_secs,
            seq.elapsed_secs / rr.elapsed_secs
        );
        if system == System::WideArea {
            let mut no_proxy = cfg.clone();
            no_proxy.use_proxy = false;
            let rr2 = run_knapsack(&no_proxy);
            println!(
                "{:<38} {:>6} {:>14.1} {:>9.2}",
                "Wide-area Cluster (Not use Proxy)",
                rr2.ranks.len(),
                rr2.elapsed_secs,
                seq.elapsed_secs / rr2.elapsed_secs
            );
            println!(
                "\nNexus Proxy overhead on the wide-area run: {:.1}% (paper: ~3.5%)",
                100.0 * (rr.elapsed_secs - rr2.elapsed_secs) / rr2.elapsed_secs
            );
        }
    }
}

const GROUPS: [&str; 3] = ["RWCP-Sun", "COMPaS", "ETL-O2K"];

/// The Table 5/6 header: master column, then max/min/avg per group.
fn group_header() -> String {
    let mut header = format!("{:<22} {:>10} ", "System", "Master");
    for g in &GROUPS {
        header.push_str(&format!(
            "{:>10} {:>10} {:>10} ",
            format!("{g}:max"),
            "min",
            "avg"
        ));
    }
    header
}

/// Table 5: number of steals — total handled by the master, plus
/// max/min/average per cluster — on the local- and wide-area systems.
pub fn table5(items: usize) {
    println!("Table 5: Number of steals (n = {items})\n");
    println!("{}", group_header());
    for system in [System::LocalArea, System::WideArea] {
        let rr = run_knapsack(&KnapsackRun::paper_default(system, items));
        println!(
            "{:<22} {}",
            system.name(),
            group_row(&rr, &GROUPS, |r| r.steals)
        );
    }
    println!("\n(the paper: \"slaves frequently send a steal request to the master\")");
}

/// Table 6: number of traversed nodes — master, plus max/min/average
/// per cluster — on the local- and wide-area systems. (The paper
/// reports these in billions at n = 50; the scaled runs report raw
/// counts plus the scale factor.)
pub fn table6(items: usize) {
    println!("Table 6: Number of traversed nodes (n = {items})");
    println!(
        "(paper ran n = 50, i.e. 2^{} / 2^{} = {:.1e}x our node count)\n",
        51,
        items + 1,
        (2f64).powi(51 - (items as i32 + 1))
    );
    println!("{}", group_header());
    for system in [System::LocalArea, System::WideArea] {
        let rr = run_knapsack(&KnapsackRun::paper_default(system, items));
        println!(
            "{:<22} {}",
            system.name(),
            group_row(&rr, &GROUPS, |r| r.traversed)
        );
        // Sanity line: totals must cover the tree exactly.
        println!(
            "{:<22} total traversed = {} (tree = {})",
            "",
            rr.total_traversed(),
            knapsack::Instance::full_tree_nodes(items)
        );
    }
    println!("\n(the paper: \"we obtained good load balance and reasonable performance\")");
}
