#!/bin/sh
# Workspace verification gate. Everything here must pass before a
# change lands; ROADMAP.md's Tier-1 line points at this script.
#
#   1. formatting            (cargo fmt --check)
#   2. zero-warning clippy   (workspace lints, all targets)
#   3. zero-warning rustdoc  (no broken or private intra-doc link)
#   4. project lint rules    (`cargo run -p xtask -- rules` lists them)
#   5. the test suite, including crates/bench/tests/goldens.rs: every
#      `paper <name>` output must equal its golden under results/
#   6. the gated benchmark's own package (outside the workspace, so
#      nothing above notices when a nexus-proxy API change stops it
#      from compiling)
#   7. the chaos drill's same-seed determinism
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== xtask lint"
cargo run -q -p xtask -- lint

echo "== xtask check (model checker, smoke tier)"
cargo run -q -p xtask -- check

echo "== cargo test"
cargo test --workspace -q

echo "== benchmark package (builds against the workspace crates, runs every workload once)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== chaos drill determinism (same seed -> byte-identical snapshots)"
cargo build -q --release -p wacs-chaos --bin chaos_drill
./target/release/chaos_drill --seed 42 --out target/chaos-drill-a.json
./target/release/chaos_drill --seed 42 --out target/chaos-drill-b.json
cmp target/chaos-drill-a.json target/chaos-drill-b.json

echo "ci.sh: all gates passed"
