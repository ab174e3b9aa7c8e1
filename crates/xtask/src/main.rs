//! Workspace automation: the project lint analyzer (`lint`, `rules`),
//! the model checker (`check`) and the benchmark pair summary (`pairs`).
//!
//! `xtask lint` is a dependency-free static pass over every library
//! source file in the workspace, enforcing the project conventions
//! that rustc and clippy cannot express. Each file is lexed once
//! (`lexer`); the spelling table (`rules`) and the rules that relate
//! several sites (`wsrules`) read that one pass. `xtask rules` lists
//! every rule; DESIGN.md §5a gives the reasons and the marker grammar.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod lexer;
mod pairs;
mod rules;
mod scan;
mod wsrules;

pub use rules::{Rule, Violation};

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint [--root <dir>]");
    eprintln!("       cargo run -p xtask -- check [--deep]");
    eprintln!("       cargo run -p xtask -- rules");
    eprintln!("       cargo run -p xtask -- pairs FILE [--exclude-seed S]...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = match args.iter().position(|a| a == "--root") {
                Some(i) => match args.get(i + 1) {
                    Some(dir) => PathBuf::from(dir),
                    None => return usage(),
                },
                None => workspace_root(),
            };
            run_lint(&root)
        }
        Some("check") => run_check(args.iter().any(|a| a == "--deep")),
        Some("rules") => {
            for rule in rules::ALL {
                println!("{:<14} {}", rule.name(), rule.summary());
            }
            ExitCode::SUCCESS
        }
        Some("pairs") => run_pairs(&args[1..]),
        _ => usage(),
    }
}

/// Summarise a committed file of parent/change benchmark runs.
fn run_pairs(args: &[String]) -> ExitCode {
    let mut file = None;
    let mut exclude = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--exclude-seed" => match rest.next().and_then(|s| s.parse().ok()) {
                Some(seed) => exclude.push(seed),
                None => return usage(),
            },
            path if file.is_none() => file = Some(path),
            _ => return usage(),
        }
    }
    let Some(file) = file else {
        return usage();
    };
    let summary = std::fs::read_to_string(file)
        .map_err(|e| format!("{file}: {e}"))
        .and_then(|text| pairs::summarise(&text, &exclude));
    match summary {
        Ok(summary) => {
            print!("{}", pairs::render(&summary));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask pairs: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Exhaustively explore the liveness/concurrency state machines
/// (`wacs-check`): the smoke tier by default (< 30 s), `--deep` for
/// the full documented bounds.
fn run_check(deep: bool) -> ExitCode {
    let reports = wacs_check::run_all(deep);
    let mut failed = false;
    for r in &reports {
        println!("{r}");
        if let Some(cx) = &r.violation {
            failed = true;
            println!("  counterexample ({}):", cx.reason);
            for (i, step) in cx.trace.iter().enumerate() {
                println!("    {:>3}. {step}", i + 1);
            }
        }
        if !r.exhausted {
            failed = true;
            println!("  exploration hit the state bound before exhausting the space");
        }
    }
    if failed {
        println!("xtask check: FAILED");
        ExitCode::FAILURE
    } else {
        println!(
            "xtask check: {} models exhaustively verified ({} tier)",
            reports.len(),
            if deep { "deep" } else { "smoke" }
        );
        ExitCode::SUCCESS
    }
}

/// The workspace root: xtask always runs via `cargo run -p xtask`, so
/// the manifest dir of this crate is `<root>/crates/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

fn run_lint(root: &Path) -> ExitCode {
    let Ok(files) = wsrules::load_files(root) else {
        eprintln!("xtask lint: unreadable sources under {}", root.display());
        return ExitCode::FAILURE;
    };
    if files.is_empty() {
        eprintln!("xtask lint: no sources found under {}", root.display());
        return ExitCode::FAILURE;
    }
    let Ok(ws) = wsrules::analyze_root(root, &files) else {
        eprintln!("xtask lint: unreadable sources under {}", root.display());
        return ExitCode::FAILURE;
    };
    let violations = ws.violations;
    for v in &violations {
        println!("{v}");
    }
    println!(
        "xtask lint: lock-order graph: {} locks, {} nesting edges, {} cycle(s); \
         {} metric keys checked; {} frame variants covered",
        ws.lock_nodes,
        ws.lock_edges,
        violations
            .iter()
            .filter(|v| v.rule == Rule::LockOrder)
            .count(),
        ws.metric_keys,
        ws.frame_variants,
    );
    if violations.is_empty() {
        println!("xtask lint: {} files clean", files.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "xtask lint: {} violation(s) in {} files",
            violations.len(),
            files.len()
        );
        ExitCode::FAILURE
    }
}

/// Shared display impl lives here so `main` stays the only printer.
impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}
