//! `paper <name> [--items N]` — print one table, figure, ablation or
//! scaling scenario of the paper to stdout. The names and what they
//! print are listed in the `wacs-bench` crate docs; each is the stem
//! of its golden under `results/`.

use std::error::Error;
use std::process::ExitCode;
use wacs_bench::{ablations, congestion, figures, scaling, tables, NAMES};
use wacs_core::calibration::TABLE4_ITEMS;

fn usage() -> String {
    format!(
        "usage: paper <name> [--items N]\nnames: {}",
        NAMES.join(" ")
    )
}

/// The names whose knapsack size `--items` overrides.
const SIZED: &[&str] = &[
    "table4",
    "table5",
    "table6",
    "ablation_sweep",
    "ablation_portrange",
];

fn parse(args: &[String]) -> Result<(&str, Option<usize>), String> {
    match args {
        [name] => Ok((name, None)),
        [name, flag, n] | [flag, n, name] if flag == "--items" => {
            let n = n.parse().map_err(|e| format!("bad --items {n:?}: {e}"))?;
            if !SIZED.contains(&name.as_str()) {
                return Err(format!("{name} takes no --items"));
            }
            Ok((name, Some(n)))
        }
        _ => Err(usage()),
    }
}

fn print(name: &str, items: Option<usize>) -> Result<(), Box<dyn Error>> {
    let n = items.unwrap_or(TABLE4_ITEMS);
    match name {
        "table2" => tables::table2(),
        "table3" => tables::table3(),
        "table4" => tables::table4(n),
        "table5" => tables::table5(n),
        "table6" => tables::table6(n),
        "figures" => figures::figures()?,
        // The sweep runs 36 knapsacks, so it defaults smaller.
        "ablation_sweep" => ablations::ablation_sweep(items.unwrap_or(24)),
        "ablation_portrange" => ablations::ablation_portrange(n),
        "ablation_relay" => ablations::ablation_relay(),
        "ablation_congestion" => congestion::ablation_congestion(),
        "ablation_pruning" => ablations::ablation_pruning(),
        "ablation_faults" => ablations::ablation_faults(),
        "shard_scaling" => println!("{}", scaling::shard_scaling()?.to_json()),
        "table2_decomposition" => println!("{}", wacs_core::table2_report(1)),
        other => return Err(format!("unknown name {other:?}\n{}", usage()).into()),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args)
        .map_err(Into::into)
        .and_then(|(name, items)| print(name, items));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paper: {e}");
            ExitCode::FAILURE
        }
    }
}
