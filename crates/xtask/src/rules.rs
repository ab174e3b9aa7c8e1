//! The rule set and the per-file analysis driver.

use crate::mask::mask;

/// One enforced convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `.unwrap()` / `.expect(` / `panic!` in non-test library code.
    UnwrapPanic,
    /// `std::sync::Mutex`/`RwLock` outside the `wacs-sync` wrappers.
    StdSync,
    /// Well-known service port literal outside its definition site.
    PortLiteral,
    /// `todo!` / `unimplemented!` anywhere in library code.
    Todo,
    /// `.unwrap_or(...)` on a `require_u64(...)` result in non-test
    /// code: a *required* wire field silently replaced by a default.
    RequireUnwrapOr,
    /// Bare `AtomicU64` metric counter outside `wacs-obs`: new
    /// instrumentation must go through the registry so it shows up in
    /// snapshots and replay tests.
    BareAtomicCounter,
    /// A blocking `.read_exact(` / `.accept()` in a file that never
    /// sets a read timeout: a dead peer parks the thread forever. Mark
    /// deliberate blocking sites with `lint:allow(deadline-io)`.
    DeadlineIo,
    /// `vec![0u8; ...]` in the relay data-plane hot files: per-chunk
    /// allocation is what the shared [`BufferPool`] exists to remove.
    /// The pool's own sanctioned allocation site carries
    /// `lint:allow(hot-path-alloc)`.
    HotPathAlloc,
    /// Bare `thread::sleep(` in non-test library code: chaos-layer
    /// timing must come from deadline-based waits (condvar timeouts,
    /// `set_read_timeout`), not open-loop sleeps, or recovery-time
    /// measurements inherit the sleep quantum as noise. Deliberate
    /// bounded backoffs carry `lint:allow(bare-sleep)`; the bench
    /// harness is exempt wholesale. Polling a listener is not a
    /// sanctioned reason: see [`Rule::AcceptPoll`].
    BareSleep,
    /// `.set_nonblocking(true)` in non-test library code. Nothing in
    /// production is nonblocking: a listener is served with
    /// `VListener::accept_until_stop` and ended through its stop
    /// handle, so the accept-and-sleep poll loop cannot come back.
    AcceptPoll,
    /// A cycle in the static lock-order graph over
    /// `Ordered{Mutex,RwLock}` acquisition sites (see `wsrules`).
    LockOrder,
    /// A `wacs-obs` metric key registered in code but absent from the
    /// EXPERIMENTS.md schema table (see `wsrules`).
    CounterSchema,
    /// A `protocol::Msg` variant never built by the malformed-frame
    /// fuzz sweep (see `wsrules`).
    FrameCoverage,
    /// The servers' sans-IO core (`nexus-proxy/src/core`) naming a
    /// socket, thread, clock or simulator type (see `wsrules`).
    CorePurity,
    /// A client driver re-growing the fleet ladder, or a second spelling
    /// of the stripe-lane frame sequence (see `wsrules`).
    ClientPlane,
}

pub const ALL: &[Rule] = &[
    Rule::UnwrapPanic,
    Rule::StdSync,
    Rule::PortLiteral,
    Rule::Todo,
    Rule::RequireUnwrapOr,
    Rule::BareAtomicCounter,
    Rule::DeadlineIo,
    Rule::HotPathAlloc,
    Rule::BareSleep,
    Rule::AcceptPoll,
    Rule::LockOrder,
    Rule::CounterSchema,
    Rule::FrameCoverage,
    Rule::CorePurity,
    Rule::ClientPlane,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnwrapPanic => "unwrap-panic",
            Rule::StdSync => "std-sync",
            Rule::PortLiteral => "port-literal",
            Rule::Todo => "todo",
            Rule::RequireUnwrapOr => "require-unwrap-or",
            Rule::BareAtomicCounter => "bare-atomic-counter",
            Rule::DeadlineIo => "deadline-io",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::BareSleep => "bare-sleep",
            Rule::AcceptPoll => "accept-poll",
            Rule::LockOrder => "lock-order",
            Rule::CounterSchema => "counter-schema",
            Rule::FrameCoverage => "frame-coverage",
            Rule::CorePurity => "core-purity",
            Rule::ClientPlane => "client-plane",
        }
    }

    pub fn summary(self) -> &'static str {
        match self {
            Rule::UnwrapPanic => "no .unwrap()/.expect()/panic! outside #[cfg(test)] code",
            Rule::StdSync => "use wacs_sync::{Mutex, RwLock} instead of std::sync locks",
            Rule::PortLiteral => {
                "well-known ports (911/5678/2119) must reference the named constants"
            }
            Rule::Todo => "no todo!()/unimplemented!() in library crates",
            Rule::RequireUnwrapOr => {
                "required wire fields must error, not .unwrap_or(...) a default"
            }
            Rule::BareAtomicCounter => {
                "metric counters belong in the wacs_obs registry, not bare AtomicU64s"
            }
            Rule::DeadlineIo => {
                "blocking read_exact/accept needs a read timeout \
                 or an explicit lint:allow(deadline-io)"
            }
            Rule::HotPathAlloc => {
                "no vec![0u8; ...] in pump/pool hot loops; take a segment \
                 from the shared BufferPool"
            }
            Rule::BareSleep => {
                "no bare thread::sleep in library code; wait on a deadline \
                 (or mark a bounded backoff with lint:allow(bare-sleep))"
            }
            Rule::AcceptPoll => {
                "no .set_nonblocking(true) outside tests; block in \
                 accept_until_stop and end it with the listener's stop handle"
            }
            Rule::LockOrder => "the static lock-order graph over Ordered locks must be acyclic",
            Rule::CounterSchema => {
                "every registered wacs-obs metric key must appear in EXPERIMENTS.md"
            }
            Rule::FrameCoverage => "every protocol::Msg variant must be hit by the fuzz sweep",
            Rule::CorePurity => {
                "nexus-proxy's core module names no socket, thread, clock or simulator type"
            }
            Rule::ClientPlane => {
                "client drivers name no ShardRouter/CircuitBreaker/route_from; \
                 StripeFrame::Open is spelled in stripe.rs only"
            }
        }
    }
}

/// A single diagnostic.
#[derive(Debug, Clone)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

/// The well-known service ports of the system (NXPORT, OUTER_PORT,
/// GATEKEEPER_PORT) — flagged as raw literals anywhere else.
const KNOWN_PORTS: &[&str] = &["911", "5678", "2119"];

/// Files allowed to spell the well-known ports as literals: their
/// canonical definition sites.
const PORT_DEFINITION_SITES: &[&str] = &["crates/firewall/src/lib.rs", "crates/nexus/src/ports.rs"];

/// The crate allowed to touch `std::sync` locks directly (it wraps
/// them), plus this analyzer itself (it names them in diagnostics).
const STD_SYNC_EXEMPT: &[&str] = &["crates/wacs-sync/", "crates/xtask/"];

/// Crates allowed to declare raw `AtomicU64`s: the registry itself
/// (its instruments *are* atomics) and this analyzer.
const ATOMIC_COUNTER_EXEMPT: &[&str] = &["crates/wacs-obs/", "crates/xtask/"];

/// Crates whose open-loop sleeps are load-generation pacing, not
/// product timing: the bench harness sleeps on purpose.
const BARE_SLEEP_EXEMPT: &[&str] = &["crates/bench/"];

/// The relay data-plane hot files: every staging buffer there must come
/// from the shared `BufferPool`, not a per-call `vec![0u8; ...]`.
const HOT_PATH_FILES: &[&str] = &[
    "crates/nexus-proxy/src/pump.rs",
    "crates/nexus-proxy/src/pool.rs",
];

/// Analyze one file; `path` is workspace-relative with `/` separators.
pub fn analyze(path: &str, source: &str) -> Vec<Violation> {
    let masked = mask(source);
    let test_lines = test_region_lines(&masked.code);
    let originals: Vec<&str> = source.lines().collect();
    let mut out = Vec::new();

    let port_site = PORT_DEFINITION_SITES.contains(&path);
    let hot_path = HOT_PATH_FILES.contains(&path);
    let sync_exempt = STD_SYNC_EXEMPT.iter().any(|p| path.starts_with(p));
    let sleep_exempt = BARE_SLEEP_EXEMPT.iter().any(|p| path.starts_with(p));
    let atomic_exempt = ATOMIC_COUNTER_EXEMPT.iter().any(|p| path.starts_with(p));
    // File-level deadline evidence: a file that configures timeouts
    // anywhere has thought about liveness; one that never does gets its
    // blocking calls flagged.
    let has_deadline_evidence = masked.code.contains("set_read_timeout");

    for (idx, line) in masked.code.lines().enumerate() {
        let lineno = idx + 1;
        let in_test = test_lines.get(idx).copied().unwrap_or(false);
        let original = originals.get(idx).copied().unwrap_or("");
        // rustfmt may float a trailing marker onto its own line, so a
        // marker directly above or below the flagged line counts too.
        let above = idx.checked_sub(1).and_then(|i| originals.get(i)).copied();
        let below = originals.get(idx + 1).copied();
        let mut push = |rule: Rule, message: String| {
            let marked = allowed(original, rule)
                || above.is_some_and(|l| l.trim_start().starts_with("//") && allowed(l, rule))
                || below.is_some_and(|l| l.trim_start().starts_with("//") && allowed(l, rule));
            if !marked {
                out.push(Violation {
                    path: path.to_string(),
                    line: lineno,
                    rule,
                    message,
                });
            }
        };

        if !in_test {
            if line.contains(".unwrap()") {
                push(
                    Rule::UnwrapPanic,
                    "`.unwrap()` in library code; return a Result or use unwrap_or_*".into(),
                );
            }
            if line.contains(".expect(") {
                push(
                    Rule::UnwrapPanic,
                    "`.expect(...)` in library code; return a Result".into(),
                );
            }
            if has_macro(line, "panic") {
                push(
                    Rule::UnwrapPanic,
                    "`panic!` in library code; return an error".into(),
                );
            }
            if line.contains("require_u64(") && line.contains(".unwrap_or") {
                push(
                    Rule::RequireUnwrapOr,
                    "`.unwrap_or(...)` swallows a missing required field; \
                     reject the record instead"
                        .into(),
                );
            }
            if !port_site {
                for port in KNOWN_PORTS {
                    if has_bare_number(line, port) {
                        push(
                            Rule::PortLiteral,
                            format!("raw well-known port {port}; name the constant"),
                        );
                    }
                }
            }
            // Declarations/constructions only — a plain `use` import is
            // inert until a flagged site actually names the type.
            if !atomic_exempt
                && line.contains("AtomicU64")
                && !line.trim_start().starts_with("use ")
                && !line.trim_start().starts_with("pub use ")
            {
                push(
                    Rule::BareAtomicCounter,
                    "bare `AtomicU64` counter; use wacs_obs::Counter so the metric \
                     lands in registry snapshots"
                        .into(),
                );
            }
            if !has_deadline_evidence
                && (line.contains(".read_exact(") || line.contains(".accept()"))
            {
                push(
                    Rule::DeadlineIo,
                    "blocking I/O with no deadline in this file; set a read timeout \
                     (or mark the site deliberate)"
                        .into(),
                );
            }
            if !sleep_exempt && line.contains("thread::sleep(") {
                push(
                    Rule::BareSleep,
                    "bare `thread::sleep` in library code; wait on a deadline \
                     (condvar timeout / read timeout) or mark a bounded backoff \
                     deliberate"
                        .into(),
                );
            }
            if line.contains(".set_nonblocking(true)") {
                push(
                    Rule::AcceptPoll,
                    "nonblocking socket in library code; block in `accept_until_stop` \
                     (or a read with a timeout) and end the wait from outside"
                        .into(),
                );
            }
            if hot_path && line.contains("vec![0u8;") {
                push(
                    Rule::HotPathAlloc,
                    "per-call buffer allocation in a relay hot loop; draw a pooled \
                     segment from the shared BufferPool"
                        .into(),
                );
            }
        }
        if !sync_exempt
            && (line.contains("std::sync::Mutex")
                || line.contains("std::sync::RwLock")
                || std_sync_use_names_lock(line))
        {
            push(
                Rule::StdSync,
                "std::sync lock; use wacs_sync::{Mutex, RwLock} (or Ordered*)".into(),
            );
        }
        if has_macro(line, "todo") {
            push(Rule::Todo, "`todo!` left in source".into());
        }
        if has_macro(line, "unimplemented") {
            push(Rule::Todo, "`unimplemented!` left in source".into());
        }
    }
    out
}

/// `// lint:allow(rule)` on the line suppresses that rule there.
fn allowed(original_line: &str, rule: Rule) -> bool {
    original_line
        .split("lint:allow(")
        .nth(1)
        .and_then(|rest| rest.split(')').next())
        .is_some_and(|list| list.split(',').any(|r| r.trim() == rule.name()))
}

/// Match `name!` as a macro invocation: preceding byte must not be
/// part of an identifier (so `dont_panic!` doesn't match `panic!`),
/// and the `!` must directly follow the name.
fn has_macro(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let pre_ok = start == 0 || {
            let p = bytes[start - 1];
            !(p.is_ascii_alphanumeric() || p == b'_')
        };
        if pre_ok && bytes.get(end) == Some(&b'!') {
            return true;
        }
        from = end;
    }
    false
}

/// Match a number as a standalone token: neither neighbour may be an
/// identifier or digit byte, nor `.` (so `5678.0`, `x5678`, `0x5678`
/// and `15678` don't match).
fn has_bare_number(line: &str, num: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(num) {
        let start = from + pos;
        let end = start + num.len();
        let pre_ok = start == 0 || {
            let p = bytes[start - 1];
            !(p.is_ascii_alphanumeric() || p == b'_' || p == b'.')
        };
        let post_ok = end >= bytes.len() || {
            let n = bytes[end];
            !(n.is_ascii_alphanumeric() || n == b'_' || n == b'.')
        };
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

/// `use std::sync::{...}` pulling in `Mutex` or `RwLock` by name.
fn std_sync_use_names_lock(line: &str) -> bool {
    let Some(rest) = line
        .trim_start()
        .strip_prefix("use std::sync::")
        .or_else(|| line.trim_start().strip_prefix("pub use std::sync::"))
    else {
        return false;
    };
    rest.contains("Mutex") || rest.contains("RwLock")
}

/// Per-line flags: is this line inside a `#[cfg(test)]` / `#[test]`
/// region? Determined by brace tracking on the masked source: a test
/// attribute arms the tracker; the next `{` opens a region that ends
/// when depth returns to its opening level. A file-level
/// `#![cfg(test)]` (a test module kept in a file of its own) makes
/// everything after it test code. Shared with the workspace-level
/// rules in `wsrules`.
pub(crate) fn test_region_lines(masked: &str) -> Vec<bool> {
    let mut flags = Vec::new();
    let mut depth: i32 = 0;
    let mut armed = false;
    let mut whole_file = false;
    // Depth at which each active test region opened.
    let mut regions: Vec<i32> = Vec::new();
    for line in masked.lines() {
        whole_file |= depth == 0 && line.trim_start().starts_with("#![cfg(test)]");
        if whole_file {
            flags.push(true);
            continue;
        }
        let armed_at_line_start = armed;
        if is_test_attr(line) {
            armed = true;
        }
        let mut line_in_test = !regions.is_empty() || armed || armed_at_line_start;
        for c in line.chars() {
            match c {
                '{' => {
                    if armed {
                        regions.push(depth);
                        armed = false;
                        line_in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                _ => {}
            }
        }
        flags.push(line_in_test || !regions.is_empty());
    }
    flags
}

/// Attribute lines that mark the following item as test-only.
fn is_test_attr(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("#[test]")
        || t.starts_with("#[cfg(test)]")
        || t.starts_with("#[cfg(all(test")
        || t.starts_with("#[cfg(any(test")
        || t.starts_with("#[should_panic")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(path: &str, src: &str) -> Vec<(usize, Rule)> {
        analyze(path, src)
            .into_iter()
            .map(|v| (v.line, v.rule))
            .collect()
    }

    /// The seeded violation of the acceptance criteria: a bare
    /// `.unwrap()` in library code is flagged with its line number.
    #[test]
    fn seeded_unwrap_violation_is_flagged() {
        let src = "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(2, Rule::UnwrapPanic)]
        );
    }

    #[test]
    fn expect_and_panic_flagged() {
        let src = "fn f() {\n    g().expect(\"boom\");\n    panic!(\"no\");\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(2, Rule::UnwrapPanic), (3, Rule::UnwrapPanic)]
        );
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
pub fn lib() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::lib_result().unwrap();
        panic!(\"fine in tests\");
    }
}
";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    /// A test module kept in a file of its own says so with a
    /// file-level `#![cfg(test)]`; without it the same file is library
    /// code.
    #[test]
    fn whole_file_test_modules_are_exempt() {
        let body = "const CTRL: u16 = 5678;\nfn helper() { None::<u8>.unwrap(); }\n";
        let marked = format!("//! Scenario tests.\n#![cfg(test)]\n{body}");
        assert!(rules_hit("crates/demo/src/scenario.rs", &marked).is_empty());
        assert_eq!(rules_hit("crates/demo/src/scenario.rs", body).len(), 2);
    }

    #[test]
    fn comments_strings_and_doctests_are_exempt() {
        let src = "\
/// Call `.unwrap()` — documented panics are fine:
/// ```
/// demo::f().unwrap();
/// ```
pub fn f() -> Option<u32> {
    let msg = \"do not panic!(now)\"; // .unwrap() here neither
    Some(msg.len() as u32)
}
";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn unwrap_or_variants_are_fine() {
        let src =
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap_or(0).max(v.unwrap_or_default())\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn std_sync_flagged_outside_wacs_sync() {
        let src = "use std::sync::Mutex;\nfn f() { let _ = std::sync::RwLock::new(1); }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(1, Rule::StdSync), (2, Rule::StdSync)]
        );
        assert!(rules_hit("crates/wacs-sync/src/mutex.rs", src).is_empty());
    }

    #[test]
    fn std_sync_other_items_are_fine() {
        // Arc is fine everywhere; importing AtomicU64 is inert until a
        // declaration site names it (that's what the counter rule hits).
        let src = "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn bare_atomic_counter_flagged_outside_wacs_obs() {
        let src = "\
use std::sync::atomic::AtomicU64;
struct Stats {
    hits: AtomicU64,
}
fn fresh() -> AtomicU64 {
    AtomicU64::new(0)
}
";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![
                (3, Rule::BareAtomicCounter),
                (5, Rule::BareAtomicCounter),
                (6, Rule::BareAtomicCounter)
            ]
        );
        // The registry crate implements its instruments *on* atomics.
        assert!(rules_hit("crates/wacs-obs/src/registry.rs", src).is_empty());
    }

    #[test]
    fn bare_atomic_counter_allows_marked_non_metric_uses() {
        // ID generators and the like may stay atomic when marked.
        let src = "\
struct G {
    next_id: AtomicU64, // lint:allow(bare-atomic-counter)
}
";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
        // Test code may fabricate atomics freely.
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = AtomicU64::new(0); }\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", test).is_empty());
    }

    #[test]
    fn port_literals_flagged_outside_definition_sites() {
        let src = "fn f() -> u16 { 5678 }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(1, Rule::PortLiteral)]
        );
        assert!(rules_hit("crates/firewall/src/lib.rs", src).is_empty());
        // Substrings of larger numbers don't count.
        assert!(rules_hit("crates/demo/src/lib.rs", "const X: u32 = 15678;\n").is_empty());
        assert!(rules_hit("crates/demo/src/lib.rs", "const X: f64 = 5678.5;\n").is_empty());
    }

    #[test]
    fn todo_and_unimplemented_flagged_even_in_tests() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { todo!() }\n}\nfn g() { unimplemented!() }\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(3, Rule::Todo), (5, Rule::Todo)]
        );
    }

    #[test]
    fn lint_allow_suppresses_named_rule_only() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(unwrap-panic)\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
        let wrong = "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(std-sync)\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", wrong),
            vec![(2, Rule::UnwrapPanic)]
        );
    }

    #[test]
    fn lint_allow_works_from_an_adjacent_comment_line() {
        // rustfmt floats long trailing comments onto their own line;
        // a comment-only marker directly above or below still counts.
        let above =
            "fn f(v: Option<u32>) -> u32 {\n    // lint:allow(unwrap-panic)\n    v.unwrap()\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", above).is_empty());
        let below =
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n    // lint:allow(unwrap-panic)\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", below).is_empty());
        // A marker on a *code* line above must not bleed downward.
        let code_above =
            "fn f(a: Option<u32>, b: Option<u32>) -> u32 {\n    a.unwrap() // lint:allow(unwrap-panic)\n    + b.unwrap()\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", code_above),
            vec![(3, Rule::UnwrapPanic)]
        );
    }

    #[test]
    fn require_unwrap_or_flagged_outside_tests() {
        // The PR-3 bug class: a required wire field defaulted away.
        let src = "fn f(r: &Record) -> u64 {\n    r.require_u64(\"count\").unwrap_or(0)\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(2, Rule::RequireUnwrapOr)]
        );
        // ...including defaulted-by-type.
        let dflt =
            "fn f(r: &Record) -> u64 {\n    r.require_u64(\"count\").unwrap_or_default()\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", dflt),
            vec![(2, Rule::RequireUnwrapOr)]
        );
        // Handling the error is the fix, and is clean.
        let ok = "fn f(r: &Record) -> io::Result<u64> {\n    Ok(r.require_u64(\"count\")?)\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", ok).is_empty());
        // Test code may fabricate defaults freely.
        let test = "#[cfg(test)]\nmod tests {\n    fn t(r: &Record) -> u64 { r.require_u64(\"count\").unwrap_or(0) }\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", test).is_empty());
    }

    #[test]
    fn deadline_io_flags_blocking_calls_without_timeout_evidence() {
        let src = "\
fn f(s: &mut TcpStream) -> io::Result<()> {
    let mut buf = [0u8; 4];
    s.read_exact(&mut buf)?;
    Ok(())
}
fn g(l: &TcpListener) {
    let _ = l.accept();
}
";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(3, Rule::DeadlineIo), (7, Rule::DeadlineIo)]
        );
    }

    #[test]
    fn deadline_io_accepts_timeout_evidence_or_marker() {
        // A file that sets a read timeout anywhere has a deadline story.
        let with_timeout = "\
fn f(s: &mut TcpStream) -> io::Result<()> {
    s.set_read_timeout(Some(TIMEOUT))?;
    let mut buf = [0u8; 4];
    s.read_exact(&mut buf)?;
    Ok(())
}
";
        assert!(rules_hit("crates/demo/src/lib.rs", with_timeout).is_empty());
        // Deliberate blocking sites are marked.
        let marked = "\
fn f(s: &mut TcpStream) -> io::Result<()> {
    let mut buf = [0u8; 4];
    s.read_exact(&mut buf)?; // lint:allow(deadline-io)
    Ok(())
}
";
        assert!(rules_hit("crates/demo/src/lib.rs", marked).is_empty());
        // Test code may block freely.
        let test = "#[cfg(test)]\nmod tests {\n    fn t(s: &mut TcpStream) { s.read_exact(&mut [0; 4]).unwrap(); }\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", test).is_empty());
    }

    #[test]
    fn hot_path_alloc_flagged_only_in_data_plane_files() {
        let src = "fn f(chunk: usize) {\n    let _buf = vec![0u8; chunk];\n}\n";
        for path in super::HOT_PATH_FILES {
            assert_eq!(
                rules_hit(path, src),
                vec![(2, Rule::HotPathAlloc)],
                "{path}"
            );
        }
        // Everywhere else a zeroed vec is unremarkable.
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn hot_path_alloc_escape_hatch_and_test_exemption() {
        let marked =
            "fn f(n: usize) {\n    let _b = vec![0u8; n]; // lint:allow(hot-path-alloc)\n}\n";
        assert!(rules_hit("crates/nexus-proxy/src/pool.rs", marked).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = vec![0u8; 16]; }\n}\n";
        assert!(rules_hit("crates/nexus-proxy/src/pump.rs", test).is_empty());
    }

    #[test]
    fn bare_sleep_flagged_in_library_code() {
        let src = "fn f() {\n    std::thread::sleep(Duration::from_millis(5));\n}\nfn g() {\n    thread::sleep(TICK);\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(2, Rule::BareSleep), (5, Rule::BareSleep)]
        );
        // The bench harness paces load generators with sleeps on purpose.
        assert!(rules_hit("crates/bench/src/bin/proxy_bench.rs", src).is_empty());
    }

    #[test]
    fn bare_sleep_escape_hatch_and_test_exemption() {
        let marked = "fn f() {\n    thread::sleep(left.min(CLAMP)); // lint:allow(bare-sleep)\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", marked).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { thread::sleep(Duration::from_millis(1)); }\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", test).is_empty());
        // A different rule's marker does not excuse the sleep.
        let wrong = "fn f() {\n    thread::sleep(TICK); // lint:allow(deadline-io)\n}\n";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", wrong),
            vec![(2, Rule::BareSleep)]
        );
    }

    /// The loop this rule keeps from coming back: a nonblocking
    /// listener polled on a sleep. No crate is exempt, the sleep's own
    /// marker does not excuse it, and nonblocking mode no longer counts
    /// as the file's deadline story for the `accept` itself.
    #[test]
    fn accept_poll_flagged_everywhere_but_tests() {
        let src = "\
fn serve(l: &TcpListener) {
    l.set_nonblocking(true).ok();
    loop {
        if l.accept().is_err() {
            thread::sleep(TICK); // lint:allow(bare-sleep)
        }
    }
}
";
        for path in ["crates/demo/src/lib.rs", "crates/bench/src/harness.rs"] {
            assert_eq!(
                rules_hit(path, src),
                vec![(2, Rule::AcceptPoll), (4, Rule::DeadlineIo)],
                "{path}"
            );
        }
        // Handing a socket back to blocking mode is not a poll.
        let blocking = "fn f(s: &TcpStream) {\n    s.set_nonblocking(false).ok();\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", blocking).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn t(l: &TcpListener) { l.set_nonblocking(true).unwrap(); }\n}\n";
        assert!(rules_hit("crates/demo/src/lib.rs", test).is_empty());
    }

    #[test]
    fn macro_name_must_match_exactly() {
        let src = "fn f() { dont_panic!(); my_todo!(); }\n";
        assert!(rules_hit("crates/demo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn nested_test_mod_unwinds_correctly() {
        // After the test mod closes, violations count again.
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { x().unwrap(); }
}

pub fn late(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
        assert_eq!(
            rules_hit("crates/demo/src/lib.rs", src),
            vec![(7, Rule::UnwrapPanic)]
        );
    }
}
