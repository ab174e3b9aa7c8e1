//! The repo's gated benchmark: four workloads against the real-socket
//! relay stack on the firewall-guarded loopback network. One command
//! prints every metric by name with its unit, verifies every byte it
//! moved, and exits non-zero on a correctness failure. See README.md.

mod bulk;
mod cells;
mod churn;
mod echo;
mod gen;
mod host;
mod layers;
mod metrics;
mod mpi_app;
mod outcome;
mod run;
mod stats;
mod topo;
mod trace;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{Config, Run};
use std::io;
use std::process::ExitCode;

const USAGE: &str = "usage: wacs-benchmark [--workload echo|bulk|churn|mpi_app] [--seed N] \
[--seconds N] [--trace 0|1 | --traced] [--repeat N] [--trace-out FILE] [--print-benchmark-json]";

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    trace_out: Option<String>,
}

fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().map(|w| w.name).collect(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        repeat: 1,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = WORKLOADS.iter().find(|w| w.name == name.as_str());
                args.workloads = vec![known.ok_or(format!("unknown workload {name}"))?.name];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be within 1..=60".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return Ok(None);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

fn run_workload(name: &str, cfg: &Config) -> io::Result<Run> {
    match name {
        "echo" => echo::run(cfg),
        "bulk" => bulk::run(cfg),
        "churn" => churn::run(cfg),
        _ => mpi_app::run(cfg),
    }
}

fn print_provenance(args: &Args, p: &host::Provenance, pinned: &str) {
    println!(
        "provenance available_parallelism = {}",
        p.available_parallelism
    );
    println!("provenance pinned = {pinned}");
    println!("provenance kernel = {}", p.kernel);
    println!("provenance rustc = {}", p.rustc);
    println!("provenance profile = {}", p.profile);
    println!("provenance git_revision = {}", p.git_revision);
    println!("provenance seed = {}", args.seed);
    println!(
        "provenance seconds = {} (each cell a fixed share in {} rounds, {} set-ups)",
        args.seconds,
        run::ROUNDS,
        run::SETUP_REPEATS
    );
    println!(
        "provenance network = loopback (every byte crosses the host's lo interface, no real link)"
    );
    println!(
        "provenance pass = {}",
        if args.traced { "traced" } else { "plain" }
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Provenance first: the parallelism it reports is the machine's.
    let provenance = host::Provenance::collect();
    let pinned = host::pin_to_one_cpu();
    print_provenance(&args, &provenance, &pinned);
    let table = if args.traced { PER_LAYER } else { END_TO_END };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    // values[workload][metric] = one value per repetition.
    let mut values = vec![vec![Vec::new(); table.len()]; args.workloads.len()];
    let mut results = Vec::new();
    let mut correct = true;
    for rep in 0..args.repeat {
        results.clear();
        for (w, name) in args.workloads.iter().enumerate() {
            println!(
                "workload {name} (repetition {} of {})",
                rep + 1,
                args.repeat
            );
            let run = match run_workload(name, &cfg) {
                Ok(run) => run,
                Err(e) => {
                    eprintln!("workload {name} could not run: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for note in &run.out.notes {
                println!("{note}");
            }
            run.out.print(table);
            for f in &run.out.failures {
                println!("FAILED {f}");
            }
            println!(
                "ops attempted = {}, failed = {}, failed_share = {}",
                run.out.attempted,
                run.out.failed,
                run.out.failed as f64 / run.out.attempted.max(1) as f64
            );
            if let Some(path) = args.trace_out.as_ref().filter(|_| args.traced) {
                if let Err(e) = std::fs::write(format!("{path}.{name}.jsonl"), run.tracer.dump()) {
                    eprintln!("could not write the trace: {e}");
                    return ExitCode::FAILURE;
                }
            }
            for (m, metric) in table.iter().enumerate() {
                values[w][m].push(run.out.get(metric.name));
            }
            correct &= run.out.correct();
            results.push(run.out.result_json(table));
        }
    }
    if args.repeat > 1 {
        print_repeats(&args, table, &values);
    }
    for line in &results {
        println!("{line}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A/A mode: the same binary measured `--repeat` times. A metric whose
/// own spread exceeds its bound cannot resolve a change of that size.
fn print_repeats(args: &Args, table: &[metrics::Metric], values: &[Vec<Vec<f64>>]) {
    for (w, name) in args.workloads.iter().enumerate() {
        for (m, metric) in table.iter().enumerate() {
            let v = &values[w][m];
            let spread = stats::spread(v);
            let verdict = match metric.bound {
                Some(b) if spread <= b => "ok",
                Some(_) => "unresolved",
                None => "-",
            };
            println!(
                "repeat {name} {} values = {v:?} median = {} spread = {spread:.4} bound = {} {verdict}",
                metric.name,
                stats::median(v),
                metric.bound.map_or("-".to_string(), |b| b.to_string()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every workload, both passes, for one second: what a run emits is
    /// what the tables (and so `BENCHMARK.json`) declare. An undeclared
    /// name or a wrong byte makes the run incorrect; a declared name
    /// that no pass of any workload sets is caught at the end.
    #[test]
    fn every_workload_emits_the_declared_names_and_nothing_else() {
        let mut layered = BTreeSet::new();
        for w in WORKLOADS {
            for traced in [false, true] {
                let cfg = Config {
                    seed: 3,
                    seconds: 1.0,
                    traced,
                };
                let run = run_workload(w.name, &cfg)
                    .unwrap_or_else(|e| panic!("{} (traced={traced}) could not run: {e}", w.name));
                assert!(run.out.correct(), "{}: {:?}", w.name, run.out.failures);
                assert!(run.out.attempted > 0);
                if traced {
                    layered.extend(run.out.names());
                    let json = run.out.result_json(PER_LAYER);
                    assert_eq!(json.matches("\"unit\"").count(), PER_LAYER.len());
                } else {
                    for m in END_TO_END {
                        assert!(run.out.get(m.name) > 0.0, "{} on {} is 0", m.name, w.name);
                    }
                    let json = run.out.result_json(END_TO_END);
                    assert_eq!(json.matches("\"unit\"").count(), END_TO_END.len());
                    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
                }
            }
        }
        let declared: BTreeSet<_> = PER_LAYER.iter().map(|m| m.name).collect();
        let never_set: Vec<_> = declared.difference(&layered).collect();
        assert!(
            never_set.is_empty(),
            "declared but never emitted: {never_set:?}"
        );
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = parse(&argv("--workload churn --seed 9 --seconds 20 --trace 1"))
            .expect("parses")
            .expect("runs");
        assert_eq!(
            (a.workloads.as_slice(), a.seed, a.seconds, a.traced),
            (&["churn"][..], 9, 20.0, true)
        );
        let a = parse(&argv("--seed 2")).expect("parses").expect("runs");
        assert_eq!(a.workloads.len(), WORKLOADS.len());
        assert!(!a.traced && a.seconds == RUN_SECONDS as f64);
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seconds 0")).is_err());
        assert!(parse(&argv("--trace 2")).is_err());
        assert!(parse(&argv("--repeat 0")).is_err());
    }
}
