//! Virtual-time goldens: `paper <name>` must print `results/<name>.txt`
//! (or `.json`) byte for byte. Every number in those files comes from
//! the deterministic simulator, so any byte that moves is a behaviour
//! change; a failure names the first differing line and the command
//! that re-records the file when the change is intended. One `#[test]`
//! per name, so libtest runs them in parallel.
//!
//! The two scaling scenarios also assert their floors on the stats the
//! library returns: zero lost work, the kill confined to the kill cell
//! with at least one failover, and the scale-out speedups.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::PathBuf;
use std::process::Command;
use wacs_bench::scaling;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Run `paper <name>` and require its stdout to equal the golden.
fn golden(name: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .arg(name)
        .output()
        .expect("spawn the paper bin");
    assert!(
        out.status.success(),
        "paper {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = ["txt", "json"]
        .iter()
        .map(|ext| format!("{name}.{ext}"))
        .find(|f| results_dir().join(f).exists())
        .unwrap_or_else(|| panic!("no golden results/{name}.txt or results/{name}.json"));
    let want = std::fs::read(results_dir().join(&file)).expect("read golden");
    let got = out.stdout;
    if got != want {
        let at = got
            .iter()
            .zip(&want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        let line = want[..at].iter().filter(|&&b| b == b'\n').count() + 1;
        let around = |b: &[u8]| {
            String::from_utf8_lossy(&b[at.saturating_sub(40)..(at + 40).min(b.len())]).into_owned()
        };
        panic!(
            "paper {name} no longer prints results/{file}; first difference at byte {at} \
             (line {line}):\n  golden: {:?}\n  now:    {:?}\nIf the change is intended, \
             re-record with:\n  cargo run --release -p wacs-bench --bin paper -- {name} > \
             results/{file}",
            around(&want),
            around(&got),
        );
    }
}

macro_rules! goldens {
    ($($name:ident),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                golden(stringify!($name));
            }
        )*
    };
}

goldens!(
    table2,
    table3,
    table4,
    table5,
    table6,
    figures,
    ablation_sweep,
    ablation_portrange,
    ablation_relay,
    ablation_congestion,
    ablation_pruning,
    ablation_faults,
);

#[test]
fn shard_scaling() {
    golden("shard_scaling");
    let s = scaling::shard_scaling().unwrap();
    let names: Vec<&str> = s.modes.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        ["shards1", "shards2", "shards4", "killshard", "stalemap"]
    );
    let killed: Vec<u64> = s.modes.iter().map(|(_, c)| c.killed).collect();
    assert_eq!(
        killed,
        [0, 0, 0, 1, 0],
        "exactly the killshard cell kills a shard"
    );
    // A bind with a stale map is redirected once, to the owner.
    let stale = &s.modes[4].1;
    assert!(stale.redirects_sent > 0, "stalemap: no redirect");
    assert_eq!(stale.redirects_followed, stale.redirects_sent);
    for (name, c) in &s.modes {
        // Zero lost work, the kill cell included: it counts exactly-once
        // accepted sequence numbers.
        assert_eq!(c.completed, c.cells, "{name}: cells lost work");
        assert!(
            c.p50_ns <= c.p95_ns && c.p95_ns <= c.p99_ns,
            "{name}: percentiles out of order"
        );
        if c.killed > 0 {
            assert!(c.failovers >= 1, "{name}: no breaker-driven failover");
        }
    }
    // The latency is a distribution over the relay queue, not one leg.
    let shards1 = &s.modes[0].1;
    assert!(shards1.p50_ns < shards1.p99_ns, "shards1: p50 == p99");
    let speedup = s.speedup_x1000();
    assert!(
        speedup >= 1500,
        "4-shard fan-in speedup {speedup} below 1500 (x1000)"
    );
}

#[test]
fn stripe_scaling() {
    golden("stripe_scaling");
    let s = scaling::stripe_scaling().unwrap();
    let names: Vec<&str> = s.modes.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names,
        [
            "streams1",
            "streams2",
            "streams4",
            "streams8",
            "lossy4",
            "killstripe"
        ]
    );
    for (name, c) in &s.modes {
        assert_eq!(c.completed, 1, "{name}: reassembly not byte-exact");
        assert_eq!(
            c.killed == 1,
            name == "killstripe",
            "{name}: kill misplaced"
        );
        assert_eq!(c.drop_ppm > 0, name == "lossy4", "{name}: loss misplaced");
        if c.killed > 0 {
            assert!(c.failovers >= 1, "{name}: no lane failover");
        }
    }
    let speedup = s.speedup_x1000();
    assert!(
        speedup >= 2000,
        "4-lane bulk speedup {speedup} below 2000 (x1000)"
    );
}
