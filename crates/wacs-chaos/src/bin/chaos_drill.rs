//! Determinism drill: run the full chaos suite with a given seed and
//! dump the deterministic drill-registry snapshot.
//!
//! ci.sh runs this twice with the same seed and compares the two
//! output files byte-for-byte — the executable proof that every chaos
//! *decision* (fault schedules, op counts, invariant verdicts) is a
//! pure function of the seed, independent of thread scheduling.
//!
//! Stdout gets one line per cell (ops, faults, recoveries, measured
//! recovery-time p99 — wall-clock, so it varies run to run). The drill
//! fails if a cell did not complete, injected no fault, measured no
//! recovery, or broke an invariant.
//!
//! ```text
//! chaos_drill --seed 42 --out /tmp/drill-a.json
//! ```

use std::process::ExitCode;
use wacs_chaos::{ChaosSuite, SuiteConfig};

fn parse_args() -> Result<(u64, String), String> {
    let mut seed: u64 = 42;
    let mut out = String::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|e| format!("bad --seed {v}: {e}"))?;
            }
            "--out" => {
                out = args.next().ok_or("--out needs a value")?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.is_empty() {
        return Err("--out <file> is required".into());
    }
    Ok((seed, out))
}

fn main() -> ExitCode {
    let (seed, out) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("chaos_drill: {e}");
            eprintln!("usage: chaos_drill --seed <u64> --out <file>");
            return ExitCode::FAILURE;
        }
    };
    let suite = ChaosSuite::new(SuiteConfig::smoke(seed));
    let cells = suite.run_all();
    for c in &cells {
        println!(
            "  {}: {} ops / {} attempts, {} faults, {} recoveries, rto p99 {} ns",
            c.class.name(),
            c.ops,
            c.attempts,
            c.faults,
            c.recoveries,
            c.p99_ns
        );
    }
    // A cell that faulted nothing or measured no recovery passed vacuously.
    let failed: Vec<String> = cells
        .iter()
        .filter(|c| !c.completed || c.faults == 0 || c.recoveries == 0)
        .map(|c| c.class.name().to_string())
        .collect();
    if !failed.is_empty() {
        eprintln!(
            "chaos_drill: cells incomplete or without a fault and a recovery: {}",
            failed.join(", ")
        );
        return ExitCode::FAILURE;
    }
    if !suite.ledger().ok() {
        for v in suite.ledger().violations() {
            eprintln!("chaos_drill: invariant violated: {v}");
        }
        return ExitCode::FAILURE;
    }
    let json = suite.drill_snapshot().to_json();
    if let Err(e) = std::fs::write(&out, json) {
        eprintln!("chaos_drill: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "chaos_drill: seed {seed}, {} cells complete, drill snapshot -> {out}",
        cells.len()
    );
    ExitCode::SUCCESS
}
