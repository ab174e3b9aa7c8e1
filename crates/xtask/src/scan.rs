//! Source discovery: every `.rs` file under `crates/*/src` and the
//! root `src/` — the library surface the conventions govern.
//! Integration tests, benches, and examples are compiled with the
//! crates but live outside `src/`; they are test code by definition
//! and exempt from the panic rules, so they are not walked.

use std::path::{Path, PathBuf};

pub fn library_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            walk_rs(&dir.join("src"), &mut out);
        }
    }
    walk_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

/// The sources outside the library walk that call into it: every
/// crate's `tests/`, the root `tests/` and `examples/`, and the
/// benchmark package's `src/`.
pub fn caller_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.filter_map(Result::ok) {
            walk_rs(&entry.path().join("tests"), &mut out);
        }
    }
    for dir in ["tests", "examples", "benchmark/src"] {
        walk_rs(&root.join(dir), &mut out);
    }
    out.sort();
    out
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Against the real workspace (xtask always runs from within it):
    /// the walk finds this very file and stays inside `src` dirs.
    #[test]
    fn finds_workspace_sources() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let files = library_sources(root);
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/xtask/src/scan.rs")));
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/nexus/src/ports.rs")));
        assert!(files.iter().all(|p| !p.components().any(|c| {
            let s = c.as_os_str();
            s == "tests" || s == "benches" || s == "examples"
        })));
    }
}
