//! The rules that relate several sites, and the workspace pass that
//! runs every rule.
//!
//! In [`analyze_workspace`] each library file arrives as a [`Source`],
//! lexed once, and goes through the spelling table ([`rules::check`])
//! and then through the six rules below, which no row can express:
//!
//! * **`lock-order`** — a static lock-order graph over every
//!   `wacs_sync::Ordered{Mutex,RwLock}` acquisition site. Each
//!   registration (`OrderedMutex::new("label", …)`) is resolved to the
//!   local binding or struct field it initializes; each `.lock()` /
//!   `.read()` / `.write()` on a resolved binding becomes a node, and
//!   acquiring `B` while a guard for `A` is still live adds the edge
//!   `A → B`. Any cycle in the global graph is an ABBA inversion the
//!   runtime lockdep may never have witnessed. Scope: same-file
//!   nesting (cross-file nesting through method calls stays the
//!   runtime detector's job); `#[cfg(test)]` regions are excluded —
//!   the wacs-sync test suite *deliberately* builds inversions.
//! * **`counter-schema`** — every metric key registered through
//!   `wacs-obs` (`registry.counter("…")`, `format!`-built names, and
//!   the helper-closure idiom `let c = |n| reg.counter(…); c("name")`)
//!   must appear in the EXPERIMENTS.md schema table, so no metric
//!   ships unsighted by the docs.
//! * **`frame-coverage`** — every on-the-wire frame variant
//!   (`protocol::Msg` and `stripe::StripeFrame`) must be exercised by
//!   the malformed-frame fuzz sweep in `tests/transparency.rs`
//!   (`random_msgs` builds one of each; a new variant that skips the
//!   sweep is a decode path no fuzzing hits).
//! * **`orphan-module`** — every `*.rs` under a crate's `src/` (and the
//!   root `src/`) is reached from that directory's `lib.rs`/`main.rs`
//!   through `mod` declarations (inline `mod x { mod y; }` nesting
//!   followed), or lives under `src/bin/`. A file nothing declares is
//!   never compiled, so it can rot unseen. `#[path]` is not followed;
//!   the workspace uses none.
//! * **`unused-pub`** — every `pub`/`pub(crate)` fn, struct, enum,
//!   const, static, trait or type alias in the non-test code of a
//!   library crate (`crates/*/src` with a `lib.rs`; binaries and
//!   `xtask` are not judged) is named somewhere besides its definition,
//!   `use` paths and its own crate's tests: by non-test code anywhere in
//!   `crates/`, `src/`, `examples/` or `benchmark/src/`, or by another
//!   crate's tests. Methods in `impl Trait for` bodies are not judged.
//!   Matching is by name, so a name shared with a live item is never
//!   flagged. The variants of a live `pub enum` are judged too: one is
//!   live only where something builds it, that is, where an
//!   `Enum::Variant` path (`Self::Variant` in the enum's `impl`, or a
//!   path through a `use … as` or `type` alias) stands outside the
//!   enum's body and outside `match`, `let` and `matches!` patterns, or
//!   where a `use` names it. A test knob an integration test needs, or
//!   an item a named ROADMAP item will read, carries
//!   `lint:allow(unused-pub)` with a reason on its line or the comment
//!   line above or below.
//! * **`frame-plane`** — the stream frame format is read in one place,
//!   `nexus-proxy/src/frame.rs`. Outside it, no non-test code
//!   `read_exact`s a 4-byte buffer (`let mut b = [0u8; 4]`, `[0; 4]` or
//!   `: [u8; 4]`) and then passes that buffer to `u32::from_be_bytes`:
//!   that is a stream's length prefix, parsed by a second frame reader.
//!   A header parsed from a slice already in memory is not a stream
//!   read and is left alone.

use crate::lexer::{string_content, Source, Token, TokenKind};
use crate::rules::{self, Rule, Violation};
use crate::scan;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Crates whose registrations are the instrument plumbing itself, not
/// product metrics: the registry and this analyzer.
const COUNTER_SCHEMA_EXEMPT: &[&str] = &["crates/wacs-obs/", "crates/xtask/"];

/// Aggregate result of the workspace pass.
pub struct WsReport {
    pub violations: Vec<Violation>,
    /// Distinct lock labels seen at resolved acquisition sites.
    pub lock_nodes: usize,
    /// Distinct held→acquired label pairs.
    pub lock_edges: usize,
    /// Metric keys checked against the schema table.
    pub metric_keys: usize,
    /// Frame-enum variants found across the wire-protocol files
    /// (`protocol::Msg` + `stripe::StripeFrame`).
    pub frame_variants: usize,
}

/// Run every rule. `files` is the library walk; `callers` the test,
/// example and benchmark sources whose mentions count for
/// `unused-pub`; `experiments` is the text of EXPERIMENTS.md,
/// `fuzz_sweep` the text of the transparency fuzz test (either may be
/// absent in a pruned checkout — rules that need a missing anchor file
/// report that instead of guessing).
pub fn analyze_workspace(
    files: &[Source],
    callers: &[Source],
    experiments: Option<&str>,
    fuzz_sweep: Option<&str>,
) -> WsReport {
    let mut violations = Vec::new();
    let mut graph = LockGraph::default();
    let mut metric_keys = 0usize;

    for src in files {
        rules::check(src, &mut violations);
        let toks = src.code();
        graph.scan_file(&src.path, &src.text, &toks);
        if !COUNTER_SCHEMA_EXEMPT
            .iter()
            .any(|p| src.path.starts_with(p))
        {
            metric_keys += check_counter_schema(src, &toks, experiments, &mut violations);
        }
    }
    graph.report_cycles(&mut violations);
    for src in callers {
        rules::check(src, &mut violations);
    }

    let frame_variants = check_frame_coverage(files, fuzz_sweep, &mut violations);
    check_orphan_modules(files, &mut violations);
    check_unused_pub(files, callers, &mut violations);
    check_frame_plane(files, &mut violations);

    WsReport {
        violations,
        lock_nodes: graph.nodes().len(),
        lock_edges: graph.edges.len(),
        metric_keys,
        frame_variants,
    }
}

/// Convenience for `main`: read the two anchor files and the caller
/// sources relative to the workspace root and run the pass.
pub fn analyze_root(root: &Path, files: &[Source]) -> std::io::Result<WsReport> {
    let experiments = std::fs::read_to_string(root.join("EXPERIMENTS.md")).ok();
    let fuzz = std::fs::read_to_string(root.join("crates/nexus-proxy/tests/transparency.rs")).ok();
    let callers = relative_sources(root, scan::caller_sources(root))?;
    Ok(analyze_workspace(
        files,
        &callers,
        experiments.as_deref(),
        fuzz.as_deref(),
    ))
}

/// The library file set for `root`, each file lexed once.
pub fn load_files(root: &Path) -> std::io::Result<Vec<Source>> {
    relative_sources(root, scan::library_sources(root))
}

/// Each of `paths` read and lexed, under its workspace-relative path.
fn relative_sources(root: &Path, paths: Vec<std::path::PathBuf>) -> std::io::Result<Vec<Source>> {
    let mut out = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(Source::new(&rel, std::fs::read_to_string(&path)?));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// A guard currently held while scanning forward through a file.
struct HeldGuard {
    label: String,
    /// `let`-bound guard variable, if any (dropped by `drop(var)`).
    var: Option<String>,
    /// Brace depth at acquisition; popped when the block closes.
    depth: usize,
    /// Statement-temporary (no `let`): dropped at the next `;`.
    temp: bool,
}

#[derive(Default)]
struct LockGraph {
    /// held-label → acquired-label, with one witness site each.
    edges: BTreeMap<(String, String), (String, usize)>,
    /// Labels seen at any resolved acquisition or registration.
    labels: BTreeSet<String>,
}

impl LockGraph {
    fn nodes(&self) -> &BTreeSet<String> {
        &self.labels
    }

    fn scan_file(&mut self, path: &str, source: &str, toks: &[Token]) {
        let bindings = lock_bindings(source, toks);
        if bindings.is_empty() {
            return;
        }
        for label in bindings.values() {
            self.labels.insert(label.clone());
        }
        let mut held: Vec<HeldGuard> = Vec::new();
        let mut depth = 0usize;
        let mut i = 0usize;
        while i < toks.len() {
            let text = toks[i].text(source);
            match (toks[i].kind, text) {
                (TokenKind::Punct, "{") => depth += 1,
                (TokenKind::Punct, "}") => {
                    depth = depth.saturating_sub(1);
                    held.retain(|g| g.depth <= depth);
                }
                (TokenKind::Punct, ";") => held.retain(|g| !g.temp),
                (TokenKind::Ident, "drop") => {
                    // drop(var) releases a named guard early.
                    if let Some(var) = call_single_ident_arg(source, toks, i) {
                        held.retain(|g| g.var.as_deref() != Some(var));
                    }
                }
                (TokenKind::Punct, ".") => {
                    if let Some(label) = acquisition_at(source, toks, i, &bindings) {
                        for g in &held {
                            if g.label != label {
                                self.edges
                                    .entry((g.label.clone(), label.clone()))
                                    .or_insert_with(|| (path.to_string(), toks[i].line));
                            }
                        }
                        self.labels.insert(label.clone());
                        // A let-binding names the guard only when the
                        // lock call is the whole RHS (`let g =
                        // x.lock();`). In `let v = x.lock().get();`
                        // the guard is a temporary dead at the `;`,
                        // and `v` binds the projected value.
                        let var = let_binding_of_statement(source, toks, i)
                            .filter(|_| is_punct(toks.get(i + 4), source, ";"));
                        held.push(HeldGuard {
                            label,
                            temp: var.is_none(),
                            var: var.map(str::to_string),
                            depth,
                        });
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn report_cycles(&self, out: &mut Vec<Violation>) {
        // DFS over the label graph; any back edge is a cycle.
        let adj: BTreeMap<&str, Vec<&str>> = {
            let mut m: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
            for (a, b) in self.edges.keys() {
                m.entry(a.as_str()).or_default().push(b.as_str());
            }
            m
        };
        let mut done: BTreeSet<&str> = BTreeSet::new();
        for start in adj.keys().copied() {
            if done.contains(start) {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            let mut path: Vec<&str> = vec![start];
            let mut on_path: BTreeSet<&str> = [start].into();
            while let Some((node, next)) = stack.last_mut() {
                let succ: &[&str] = adj.get(node).map_or(&[], Vec::as_slice);
                if *next < succ.len() {
                    let child = succ[*next];
                    *next += 1;
                    if on_path.contains(child) {
                        let pos = path.iter().position(|n| *n == child).unwrap_or(0);
                        let mut cycle: Vec<&str> = path[pos..].to_vec();
                        cycle.push(child);
                        let (file, line) = self
                            .edges
                            .get(&(path[path.len() - 1].to_string(), child.to_string()))
                            .cloned()
                            .unwrap_or_default();
                        out.push(Violation {
                            path: file,
                            line,
                            rule: Rule::LockOrder,
                            message: format!(
                                "static lock-order cycle: {} — acquire these locks in one \
                                 global order",
                                cycle.join(" -> ")
                            ),
                        });
                    } else if !done.contains(child) {
                        stack.push((child, 0));
                        path.push(child);
                        on_path.insert(child);
                    }
                } else {
                    done.insert(node);
                    on_path.remove(node);
                    path.pop();
                    stack.pop();
                }
            }
        }
    }
}

/// Map binding/field idents to lock labels from registration sites:
/// `OrderedMutex::new("label", …)` / `OrderedRwLock::new("label", …)`.
fn lock_bindings(source: &str, toks: &[Token]) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text(source);
        if name != "OrderedMutex" && name != "OrderedRwLock" {
            continue;
        }
        // Expect `:: new ( "label"`.
        let [c1, c2, new, paren, lit] = [i + 1, i + 2, i + 3, i + 4, i + 5].map(|j| toks.get(j));
        let shape_ok = is_punct(c1, source, ":")
            && is_punct(c2, source, ":")
            && new.is_some_and(|t| t.kind == TokenKind::Ident && t.text(source) == "new")
            && is_punct(paren, source, "(");
        let Some(label) = (if shape_ok {
            lit.and_then(|t| string_content(source, t))
        } else {
            None
        }) else {
            continue;
        };
        if let Some(binding) = binding_ident_before(source, toks, i) {
            map.insert(binding.to_string(), label.to_string());
        }
    }
    map
}

/// Walk backward from a registration to the binding it initializes:
/// the ident after `let` (skipping `mut`), or the nearest field ident
/// followed by a single `:`. Stops at statement/struct boundaries.
fn binding_ident_before<'a>(source: &'a str, toks: &[Token], reg: usize) -> Option<&'a str> {
    let mut field: Option<&str> = None;
    let mut j = reg;
    while j > 0 {
        j -= 1;
        let text = toks[j].text(source);
        match (toks[j].kind, text) {
            (TokenKind::Punct, ";" | "{" | "}" | ",") => break,
            (TokenKind::Ident, "let") => {
                let mut k = j + 1;
                if toks.get(k).is_some_and(|t| t.text(source) == "mut") {
                    k += 1;
                }
                return toks
                    .get(k)
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text(source));
            }
            (TokenKind::Ident, _) if field.is_none() => {
                // `name :` (single colon → field init / struct field).
                let single_colon = is_punct(toks.get(j + 1), source, ":")
                    && !is_punct(toks.get(j + 2), source, ":")
                    && !is_punct(j.checked_sub(1).and_then(|p| toks.get(p)), source, ":");
                if single_colon {
                    field = Some(text);
                }
            }
            _ => {}
        }
    }
    field
}

/// At a `.` token: is this `receiver.lock()` / `.read()` / `.write()`
/// with empty args, where `receiver` resolves to a registered lock?
/// Returns the lock label.
fn acquisition_at(
    source: &str,
    toks: &[Token],
    dot: usize,
    bindings: &BTreeMap<String, String>,
) -> Option<String> {
    let method = toks.get(dot + 1)?;
    if method.kind != TokenKind::Ident {
        return None;
    }
    if !matches!(method.text(source), "lock" | "read" | "write") {
        return None;
    }
    if !is_punct(toks.get(dot + 2), source, "(") || !is_punct(toks.get(dot + 3), source, ")") {
        return None;
    }
    // Receiver: ident directly before the dot, skipping one `[…]`
    // index group (`self.locks[i].lock()`).
    let mut j = dot.checked_sub(1)?;
    if is_punct(toks.get(j), source, "]") {
        let mut nest = 1usize;
        while nest > 0 {
            j = j.checked_sub(1)?;
            if is_punct(toks.get(j), source, "]") {
                nest += 1;
            } else if is_punct(toks.get(j), source, "[") {
                nest -= 1;
            }
        }
        j = j.checked_sub(1)?;
    }
    let recv = toks.get(j)?;
    if recv.kind != TokenKind::Ident {
        return None;
    }
    bindings.get(recv.text(source)).cloned()
}

/// If the statement containing token `at` starts with `let [mut] X =`,
/// return `X`.
fn let_binding_of_statement<'a>(source: &'a str, toks: &[Token], at: usize) -> Option<&'a str> {
    let mut j = at;
    while j > 0 {
        j -= 1;
        match (toks[j].kind, toks[j].text(source)) {
            (TokenKind::Punct, ";" | "{" | "}") => {
                j += 1;
                break;
            }
            _ if j == 0 => break,
            _ => {}
        }
    }
    if toks.get(j).is_some_and(|t| t.text(source) == "let") {
        let mut k = j + 1;
        if toks.get(k).is_some_and(|t| t.text(source) == "mut") {
            k += 1;
        }
        // Require the shape `let [mut] X = <ident>…`: a `*`/`&`/tuple
        // RHS means X binds a projected value, not the guard itself
        // (treating those as temporaries under-approximates hold
        // spans, which can only miss edges, never invent them).
        if !is_punct(toks.get(k + 1), source, "=")
            || toks.get(k + 2).is_none_or(|t| t.kind != TokenKind::Ident)
        {
            return None;
        }
        return toks
            .get(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text(source));
    }
    None
}

/// `name ( ident )` — returns the single ident argument.
fn call_single_ident_arg<'a>(source: &'a str, toks: &[Token], name: usize) -> Option<&'a str> {
    if !is_punct(toks.get(name + 1), source, "(") {
        return None;
    }
    let arg = toks.get(name + 2)?;
    if arg.kind != TokenKind::Ident || !is_punct(toks.get(name + 3), source, ")") {
        return None;
    }
    Some(arg.text(source))
}

fn is_punct(t: Option<&Token>, source: &str, what: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && t.text(source) == what)
}

// ---------------------------------------------------------------------------
// counter-schema
// ---------------------------------------------------------------------------

/// Check every metric registration in one file against the schema
/// text; returns how many keys were checked.
fn check_counter_schema(
    src: &Source,
    toks: &[Token],
    experiments: Option<&str>,
    out: &mut Vec<Violation>,
) -> usize {
    let (path, source) = (&src.path, src.text.as_str());
    let mut keys: Vec<(String, usize)> = Vec::new();

    // Helper closures: `let c = |n…| …registry.counter(…)…;` — calls
    // `c("name")` later register metrics under a dynamic prefix.
    let helpers = metric_helper_closures(source, toks);

    for i in 0..toks.len() {
        if toks[i].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[i].text(source);
        let line = toks[i].line;
        let is_reg_method = matches!(name, "counter" | "gauge" | "histogram")
            && i > 0
            && is_punct(toks.get(i - 1), source, ".")
            && is_punct(toks.get(i + 1), source, "(");
        if is_reg_method {
            for frag in metric_fragments(source, toks, i + 1) {
                keys.push((frag, line));
            }
        } else if helpers.contains(name) && is_punct(toks.get(i + 1), source, "(") {
            if let Some(t) = toks.get(i + 2) {
                if let Some(key) = string_content(source, t) {
                    keys.push((key.to_string(), line));
                }
            }
        }
    }

    let checked = keys.len();
    let Some(schema) = experiments else {
        if checked > 0 {
            out.push(Violation {
                path: path.to_string(),
                line: keys[0].1,
                rule: Rule::CounterSchema,
                message: "metrics registered but EXPERIMENTS.md is missing".into(),
            });
        }
        return checked;
    };
    for (key, line) in keys {
        if !schema.contains(&key) {
            out.push(Violation {
                path: path.to_string(),
                line,
                rule: Rule::CounterSchema,
                message: format!(
                    "metric key \"{key}\" is not in the EXPERIMENTS.md schema table; \
                     document it there"
                ),
            });
        }
    }
    checked
}

/// Names of closures in this file whose body registers through the
/// obs registry: `let c = |…| ….counter(…)` (and gauge/histogram).
fn metric_helper_closures(source: &str, toks: &[Token]) -> BTreeSet<String> {
    let mut helpers = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].text(source) != "let" || toks[i].kind != TokenKind::Ident {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if !is_punct(toks.get(i + 2), source, "=") || !is_punct(toks.get(i + 3), source, "|") {
            continue;
        }
        // Scan to the end of the statement for a registry call.
        let mut j = i + 4;
        while j < toks.len() && !is_punct(toks.get(j), source, ";") {
            if toks[j].kind == TokenKind::Ident
                && matches!(toks[j].text(source), "counter" | "gauge" | "histogram")
                && is_punct(j.checked_sub(1).and_then(|p| toks.get(p)), source, ".")
                && is_punct(toks.get(j + 1), source, "(")
            {
                helpers.insert(name.text(source).to_string());
                break;
            }
            j += 1;
        }
    }
    helpers
}

/// Static name fragments of the first argument to a registration
/// call, starting at its `(` token. A plain string literal yields
/// itself; a `format!("{prefix}.name")` yields the literal pieces
/// between `{…}` holes. Fragments shorter than 3 chars (bare dots)
/// are delimiter noise and dropped.
fn metric_fragments(source: &str, toks: &[Token], paren: usize) -> Vec<String> {
    // Find the first string literal before the matching close paren.
    let mut depth = 0usize;
    let mut j = paren;
    while let Some(t) = toks.get(j) {
        match (t.kind, t.text(source)) {
            (TokenKind::Punct, "(") => depth += 1,
            (TokenKind::Punct, ")") => {
                if depth <= 1 {
                    return Vec::new();
                }
                depth -= 1;
            }
            (TokenKind::Str { .. } | TokenKind::RawStr { .. }, _) => {
                let Some(content) = string_content(source, t) else {
                    return Vec::new();
                };
                return content
                    .split(['{', '}'])
                    .step_by(2)
                    .map(|frag| frag.trim_matches('.'))
                    .filter(|frag| frag.len() >= 3 && frag.chars().any(char::is_alphanumeric))
                    .map(str::to_string)
                    .collect();
            }
            _ => {}
        }
        j += 1;
    }
    Vec::new()
}

// ---------------------------------------------------------------------------
// frame-coverage
// ---------------------------------------------------------------------------

/// On-the-wire frame enums — `(file, declared name, name the sweep
/// builds them under)`: the relay control protocol (generic over the
/// host type; the wire alias is `Msg`) and the stripe bulk-data
/// frames. Every variant of each must be exercised by the transparency
/// fuzz sweep.
const FRAME_ENUMS: &[(&str, &str, &str)] = &[
    ("crates/nexus-proxy/src/protocol.rs", "CtrlMsg", "Msg"),
    (
        "crates/nexus-proxy/src/stripe.rs",
        "StripeFrame",
        "StripeFrame",
    ),
];

/// Every frame-enum variant must appear as `Enum::Variant` in the
/// fuzz sweep. Returns the total variant count across frame enums.
fn check_frame_coverage(
    files: &[Source],
    fuzz_sweep: Option<&str>,
    out: &mut Vec<Violation>,
) -> usize {
    FRAME_ENUMS
        .iter()
        .map(|(path, decl, used)| check_enum_coverage(files, fuzz_sweep, path, decl, used, out))
        .sum()
}

/// Check one frame enum — declared as `decl` in `path`, built as
/// `enum_name::Variant` by the sweep — against the sweep. Returns the
/// variant count (0 when the file is absent from the walk).
fn check_enum_coverage(
    files: &[Source],
    fuzz_sweep: Option<&str>,
    path: &str,
    decl: &str,
    enum_name: &str,
    out: &mut Vec<Violation>,
) -> usize {
    let Some(src) = files.iter().find(|s| s.path == path) else {
        return 0;
    };
    let variants = enum_variants(&src.text, &src.code(), decl);
    let Some(sweep) = fuzz_sweep else {
        if !variants.is_empty() {
            out.push(Violation {
                path: path.to_string(),
                line: variants[0].1,
                rule: Rule::FrameCoverage,
                message: format!(
                    "{enum_name} has frame variants but the transparency fuzz sweep \
                     is missing"
                ),
            });
        }
        return variants.len();
    };
    let covered = enum_paths(sweep, enum_name);
    for (name, line) in &variants {
        if !covered.contains(name.as_str()) {
            out.push(Violation {
                path: path.to_string(),
                line: *line,
                rule: Rule::FrameCoverage,
                message: format!(
                    "{enum_name}::{name} is never built by the malformed-frame fuzz \
                     sweep (tests/transparency.rs random_msgs)"
                ),
            });
        }
    }
    variants.len()
}

/// Variant names (with lines) of `enum <name> { … }` or
/// `enum <name><…> { … }`.
fn enum_variants(source: &str, toks: &[Token], name: &str) -> Vec<(String, usize)> {
    let named = |i: usize| {
        toks[i].kind == TokenKind::Ident
            && toks[i].text(source) == "enum"
            && toks.get(i + 1).is_some_and(|t| t.text(source) == name)
    };
    let Some((variants, _)) = (0..toks.len())
        .filter(|&i| named(i))
        .find_map(|i| enum_body(source, toks, i + 1))
    else {
        return Vec::new();
    };
    variants
        .into_iter()
        .map(|v| (toks[v].text(source).to_string(), toks[v].line))
        .collect()
}

/// The body of the enum whose name is token `name`: the token indices
/// of its variant names and of its closing brace. `None` when no body
/// follows the name (and its generic parameters).
fn enum_body(source: &str, toks: &[Token], name: usize) -> Option<(Vec<usize>, usize)> {
    // Skip a generic parameter list between the name and the body.
    let mut j = name + 1;
    if is_punct(toks.get(j), source, "<") {
        let mut angle = 0usize;
        while let Some(t) = toks.get(j) {
            match t.text(source) {
                "<" => angle += 1,
                ">" => angle -= 1,
                _ => {}
            }
            j += 1;
            if angle == 0 {
                break;
            }
        }
    }
    if !is_punct(toks.get(j), source, "{") {
        return None;
    }
    let mut out = Vec::new();
    let mut depth = 1usize;
    j += 1;
    let mut at_variant = true;
    while j < toks.len() && depth > 0 {
        let t = &toks[j];
        match (t.kind, t.text(source)) {
            (TokenKind::Punct, "{" | "(") => {
                depth += 1;
                at_variant = false;
            }
            (TokenKind::Punct, "}" | ")") => {
                depth -= 1;
            }
            (TokenKind::Punct, ",") if depth == 1 => at_variant = true,
            // Skip `#[...]` attribute groups wholesale so they neither
            // consume the variant slot nor disturb the depth count.
            (TokenKind::Punct, "#") if is_punct(toks.get(j + 1), source, "[") => {
                let mut d = 0usize;
                j += 1;
                while j < toks.len() {
                    if toks[j].kind == TokenKind::Punct {
                        match toks[j].text(source) {
                            "[" => d += 1,
                            "]" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                    }
                    j += 1;
                }
            }
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => depth = depth.saturating_sub(1),
            (TokenKind::Ident, _) if depth == 1 && at_variant => {
                out.push(j);
                at_variant = false;
            }
            _ => {}
        }
        j += 1;
    }
    Some((out, j - 1))
}

/// All `<name>::X` paths mentioned in a source text.
fn enum_paths(source: &str, name: &str) -> BTreeSet<String> {
    let toks = Source::new("", source.to_string()).toks;
    let mut out = BTreeSet::new();
    for i in 0..toks.len() {
        if toks[i].kind == TokenKind::Ident
            && toks[i].text(source) == name
            && is_punct(toks.get(i + 1), source, ":")
            && is_punct(toks.get(i + 2), source, ":")
        {
            if let Some(v) = toks.get(i + 3).filter(|t| t.kind == TokenKind::Ident) {
                out.insert(v.text(source).to_string());
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// orphan-module
// ---------------------------------------------------------------------------

/// The `src/` directory a workspace-relative path sits under:
/// `crates/<name>/src/` or the root `src/`.
fn src_dir(path: &str) -> Option<&str> {
    let end = match path.strip_prefix("crates/") {
        Some(rest) => "crates/".len() + rest.find('/')? + "/src/".len(),
        None => "src/".len(),
    };
    path.get(..end)
        .filter(|dir| *dir == "src/" || dir.ends_with("/src/"))
}

/// `lib.rs` or `main.rs` directly inside a `src/` directory.
fn is_crate_root(path: &str) -> bool {
    src_dir(path).is_some_and(|d| matches!(&path[d.len()..], "lib.rs" | "main.rs"))
}

/// Where the files of `path`'s child modules live: beside a crate root
/// or a `mod.rs`, in a directory named after any other file.
fn child_dir(path: &str) -> String {
    let (dir, file) = path.rsplit_once('/').unwrap_or(("", path));
    if is_crate_root(path) || file == "mod.rs" {
        format!("{dir}/")
    } else {
        format!("{dir}/{}/", file.trim_end_matches(".rs"))
    }
}

/// Every out-of-line `mod name;` in `source`, as a path relative to the
/// file's [`child_dir`]: `mod a { mod b; }` declares `a/b`. Test
/// regions count (a `#[cfg(test)] mod tests;` is compiled by the tests).
fn declared_mods(src: &Source) -> Vec<String> {
    let (source, toks) = (&src.text, &src.toks);
    let text = |i: usize| toks.get(i).map_or("", |t| t.text(source));
    let is_name = |i: usize| {
        toks.get(i)
            .is_some_and(|t| matches!(t.kind, TokenKind::Ident | TokenKind::RawIdent))
    };
    // Inline modules open around the cursor, with the brace depth
    // inside each one's body.
    let mut inline: Vec<(&str, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut out = Vec::new();
    for (i, tok) in toks.iter().enumerate() {
        match tok.text(source) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if inline.last().is_some_and(|&(_, d)| d > depth) {
                    inline.pop();
                }
            }
            "mod" if tok.kind == TokenKind::Ident && is_name(i + 1) => {
                let name = text(i + 1).trim_start_matches("r#");
                match text(i + 2) {
                    ";" => {
                        let mut path: Vec<&str> = inline.iter().map(|&(n, _)| n).collect();
                        path.push(name);
                        out.push(path.join("/"));
                    }
                    // The `{` itself is counted when the loop reaches it.
                    "{" => inline.push((name, depth + 1)),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    out
}

/// Walk `mod` declarations from every crate root; report each `src/`
/// file outside `src/bin/` that the walk never reaches. A `src/` whose
/// `lib.rs` and `main.rs` are both missing from `files` is a partial
/// view (a fixture, a pruned checkout) and is not judged.
fn check_orphan_modules(files: &[Source], out: &mut Vec<Violation>) {
    let sources: BTreeMap<&str, &Source> = files.iter().map(|s| (s.path.as_str(), s)).collect();
    let mut todo: Vec<&str> = sources
        .keys()
        .copied()
        .filter(|p| is_crate_root(p))
        .collect();
    let mut reached = BTreeSet::new();
    while let Some(path) = todo.pop() {
        if !reached.insert(path) {
            continue;
        }
        let dir = child_dir(path);
        for decl in declared_mods(sources[path]) {
            for file in [format!("{dir}{decl}.rs"), format!("{dir}{decl}/mod.rs")] {
                if let Some((&found, _)) = sources.get_key_value(file.as_str()) {
                    todo.push(found);
                }
            }
        }
    }
    let rooted: BTreeSet<&str> = reached.iter().filter_map(|p| src_dir(p)).collect();
    for Source { path, .. } in files {
        let Some(dir) = src_dir(path) else {
            continue;
        };
        if !rooted.contains(dir)
            || path[dir.len()..].starts_with("bin/")
            || reached.contains(path.as_str())
        {
            continue;
        }
        out.push(Violation {
            path: path.clone(),
            line: 1,
            rule: Rule::OrphanModule,
            message: format!(
                "no `mod` declaration reaches this file from `{dir}lib.rs` or `{dir}main.rs`, \
                 so nothing compiles it: declare it, move it under `{dir}bin/`, or delete it"
            ),
        });
    }
}

// ---------------------------------------------------------------------------
// unused-pub
// ---------------------------------------------------------------------------

/// The item kinds the rule judges, by the keyword that introduces them.
const PUB_ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "const", "static", "trait", "type"];

/// The package a workspace-relative path belongs to: `crates/<name>/…`
/// is `<name>`, `benchmark/…` the benchmark, anything else the root.
fn crate_of(path: &str) -> &str {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or(rest)
    } else if path.starts_with("benchmark/") {
        "benchmark"
    } else {
        ""
    }
}

/// A `tests/` file: an integration test, test code as a whole.
fn is_test_file(path: &str) -> bool {
    path.starts_with("tests/") || path.split('/').nth(2) == Some("tests")
}

/// One non-trivia token of a file, with what the rule needs to know
/// about where it stands.
struct Spot {
    tok: Token,
    /// In a test file or a `#[cfg(test)]`/`#[test]` region.
    test: bool,
    /// Between a `use` and its `;`.
    in_use: bool,
}

fn spots(src: &Source) -> Vec<Spot> {
    let whole = is_test_file(&src.path);
    let mut in_use = false;
    let mut out = Vec::new();
    for &tok in &src.toks {
        match tok.text(&src.text) {
            "use" if tok.kind == TokenKind::Ident => in_use = true,
            ";" => in_use = false,
            _ => {}
        }
        let test = whole || src.lines[tok.line].test;
        out.push(Spot { tok, test, in_use });
    }
    out
}

/// A judged `pub` item.
struct PubItem<'a> {
    path: &'a str,
    line: usize,
    /// Byte offset of the name token: the definition itself, which is
    /// no caller.
    at: usize,
    kind: &'a str,
    name: &'a str,
}

/// The `pub`/`pub(crate)` items of one library file's non-test code,
/// outside `impl Trait for …` bodies.
fn pub_items<'a>(path: &'a str, source: &'a str, spots: &[Spot]) -> Vec<PubItem<'a>> {
    let text = |i: usize| spots.get(i).map_or("", |s| s.tok.text(source));
    let mut out = Vec::new();
    let mut depth = 0usize;
    // Depth inside the `impl Trait for` body being skipped.
    let mut skip: Option<usize> = None;
    for (i, spot) in spots.iter().enumerate() {
        match text(i) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                if skip.is_some_and(|d| d > depth) {
                    skip = None;
                }
            }
            "impl" if skip.is_none() => {
                let header = (i + 1..spots.len()).take_while(|&j| !matches!(text(j), "{" | ";"));
                if header
                    .clone()
                    .any(|j| text(j) == "for" && text(j + 1) != "<")
                {
                    skip = Some(depth + 1);
                }
            }
            "pub" if skip.is_none() && !spot.test => {
                let mut j = i + 1;
                if text(j) == "(" {
                    if text(j + 1) != "crate" || text(j + 2) != ")" {
                        continue;
                    }
                    j += 3;
                }
                while matches!(text(j), "unsafe" | "async" | "extern")
                    || (text(j) == "const" && matches!(text(j + 1), "fn" | "unsafe" | "async"))
                    || matches!(spots.get(j), Some(s) if matches!(s.tok.kind, TokenKind::Str { .. }))
                {
                    j += 1;
                }
                let Some(&kind) = PUB_ITEM_KINDS.iter().find(|k| **k == text(j)) else {
                    continue;
                };
                j += usize::from(kind == "static" && text(j + 1) == "mut") + 1;
                let Some(name) = spots.get(j).filter(|s| s.tok.kind == TokenKind::Ident) else {
                    continue;
                };
                out.push(PubItem {
                    path,
                    line: spot.tok.line,
                    at: name.tok.start,
                    kind,
                    name: name.tok.text(source),
                });
            }
            _ => {}
        }
    }
    out
}

/// Flag each `pub` item of a library crate's non-test code that nothing
/// but its definition, `use` paths and its own crate's tests names.
/// `files` is the library walk, `callers` the test, example and
/// benchmark sources whose mentions count too. Judged: `crates/*/src`
/// of a crate whose `lib.rs` is in `files`, outside `src/bin/`,
/// `main.rs` and `xtask`. Mentions are matched by name, so a name
/// shared with anything else that lives is never flagged.
fn check_unused_pub(files: &[Source], callers: &[Source], out: &mut Vec<Violation>) {
    let all: Vec<(&str, &str, Vec<Spot>)> = files
        .iter()
        .chain(callers)
        .map(|s| (s.path.as_str(), s.text.as_str(), spots(s)))
        .collect();
    let library: BTreeSet<&str> = files
        .iter()
        .filter_map(|s| s.path.strip_suffix("src/lib.rs"))
        .filter(|dir| dir.starts_with("crates/") && *dir != "crates/xtask/")
        .collect();
    let judged = |path: &str| {
        library.iter().any(|dir| {
            path.strip_prefix(dir)
                .and_then(|p| p.strip_prefix("src/"))
                .is_some_and(|rest| !rest.starts_with("bin/") && rest != "main.rs")
        })
    };
    let mut items: Vec<PubItem> = Vec::new();
    for (path, source, spots) in all.iter().take(files.len()) {
        if judged(path) {
            items.extend(pub_items(path, source, spots));
        }
    }
    // `use a::X as Y`: a mention of `Y` is one of `X`; so is one of
    // `type Y = X<…>;`.
    let mut aliases: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (_, source, spots) in &all {
        let text = |i: usize| spots.get(i).map_or("", |s| s.tok.text(source));
        for (i, spot) in spots.iter().enumerate() {
            let of = if spot.in_use && text(i) == "as" && i > 0 {
                Some(text(i - 1))
            } else if text(i) == "type" && text(i + 2) == "=" {
                (i + 3..spots.len())
                    .take_while(|&j| !matches!(text(j), "<" | ";"))
                    .filter(|&j| spots[j].tok.kind == TokenKind::Ident)
                    .last()
                    .map(text)
            } else {
                None
            };
            if let Some(of) = of {
                aliases.entry(text(i + 1)).or_default().push(of);
            }
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (k, item) in items.iter().enumerate() {
        by_name.entry(item.name).or_default().push(k);
    }
    let mut alive = vec![false; items.len()];
    for (path, source, spots) in &all {
        let krate = crate_of(path);
        for spot in spots
            .iter()
            .filter(|s| !s.in_use && s.tok.kind == TokenKind::Ident)
        {
            let name = spot.tok.text(source);
            let named =
                std::iter::once(name).chain(aliases.get(name).into_iter().flatten().copied());
            for k in named.flat_map(|n| by_name.get(n).into_iter().flatten()) {
                let item = &items[*k];
                let definition = item.path == *path && item.at == spot.tok.start;
                let own_test = spot.test && crate_of(item.path) == krate;
                alive[*k] |= !definition && !own_test;
            }
        }
    }
    let sources: BTreeMap<&str, &Source> = files.iter().map(|s| (s.path.as_str(), s)).collect();
    let variants = pub_variants(&all, &items, &alive);
    let built = built_variants(&all, files.iter().chain(callers), &variants, &aliases);
    for (v, _) in variants.iter().zip(&built).filter(|(_, live)| !**live) {
        if sources[v.path].marked(v.line, Rule::UnusedPub.name(), true) {
            continue;
        }
        out.push(Violation {
            path: v.path.to_string(),
            line: v.line,
            rule: Rule::UnusedPub,
            message: format!(
                "variant `{}::{}` is built nowhere: only its enum, `match`/`let` \
                 patterns and its own crate's tests name it; delete it or mark it \
                 `lint:allow(unused-pub)` with a reason",
                v.owner, v.name
            ),
        });
    }
    for (item, _) in items.iter().zip(&alive).filter(|(_, live)| !**live) {
        if sources[item.path].marked(item.line, Rule::UnusedPub.name(), true) {
            continue;
        }
        out.push(Violation {
            path: item.path.to_string(),
            line: item.line,
            rule: Rule::UnusedPub,
            message: format!(
                "`pub {} {}` is named only by its definition, `use` paths and its own \
                 crate's tests: delete it, make it `#[cfg(test)]`, or mark it \
                 `lint:allow(unused-pub)` with a reason",
                item.kind, item.name
            ),
        });
    }
}

/// A variant of a live, judged `pub enum`.
struct PubVariant<'a> {
    path: &'a str,
    line: usize,
    owner: &'a str,
    name: &'a str,
    /// Byte range of the enum's body: a mention inside it is the
    /// definition, not a use.
    body: (usize, usize),
}

/// The variants of every live `pub enum` among `items`.
fn pub_variants<'a>(
    all: &[(&'a str, &'a str, Vec<Spot>)],
    items: &[PubItem<'a>],
    alive: &[bool],
) -> Vec<PubVariant<'a>> {
    let mut out = Vec::new();
    for (item, _) in items
        .iter()
        .zip(alive)
        .filter(|(i, live)| **live && i.kind == "enum")
    {
        let Some((_, source, spots)) = all.iter().find(|(p, _, _)| *p == item.path) else {
            continue;
        };
        let toks: Vec<Token> = spots.iter().map(|s| s.tok).collect();
        let Some(at) = toks.iter().position(|t| t.start == item.at) else {
            continue;
        };
        let Some((names, close)) = enum_body(source, &toks, at) else {
            continue;
        };
        for v in names {
            out.push(PubVariant {
                path: item.path,
                line: toks[v].line,
                owner: item.name,
                name: toks[v].text(source),
                body: (toks[at].start, toks[close].end),
            });
        }
    }
    out
}

/// Which of `variants` something builds: an `Enum::Variant` path (or
/// `Self::Variant` in the enum's `impl`, or through an alias) outside
/// the enum's body and outside `match`, `let` and `matches!` patterns,
/// or a `use` path that names the variant. Own-crate tests build
/// nothing, as for items; a glob import names no variant.
fn built_variants<'a>(
    all: &[(&str, &str, Vec<Spot>)],
    sources: impl Iterator<Item = &'a Source>,
    variants: &[PubVariant],
    aliases: &BTreeMap<&str, Vec<&str>>,
) -> Vec<bool> {
    let mut by_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (k, v) in variants.iter().enumerate() {
        by_name.entry((v.owner, v.name)).or_default().push(k);
    }
    let mut built = vec![false; variants.len()];
    for ((path, source, spots), src) in all.iter().zip(sources) {
        let krate = crate_of(path);
        let toks: Vec<Token> = spots.iter().map(|s| s.tok).collect();
        let text = |i: usize| toks.get(i).map_or("", |t| t.text(source));
        let mut mark = |owner: &str, name: &str, at: usize, test: bool| {
            let owners =
                std::iter::once(owner).chain(aliases.get(owner).into_iter().flatten().copied());
            for k in owners.flat_map(|o| by_name.get(&(o, name)).into_iter().flatten()) {
                let v = &variants[*k];
                let inside = v.path == *path && v.body.0 <= at && at < v.body.1;
                let own_test = test && crate_of(v.path) == krate;
                built[*k] |= !(inside || own_test);
            }
        };
        let pattern = pattern_tokens(source, &toks);
        let selves = impl_self_types(source, &toks);
        for (i, spot) in spots.iter().enumerate() {
            let path_here = spot.tok.kind == TokenKind::Ident
                && !spot.in_use
                && !pattern[i]
                && text(i + 1) == ":"
                && text(i + 2) == ":";
            if path_here {
                let owner = match text(i) {
                    "Self" => selves[i].unwrap_or("Self"),
                    owner => owner,
                };
                mark(owner, text(i + 3), spot.tok.start, spot.test);
            }
        }
        for u in &src.uses {
            let mut segments = u.code.rsplit("::");
            if let (Some(name), Some(owner)) = (segments.next(), segments.next()) {
                let test = is_test_file(path) || src.lines[u.line].test;
                mark(owner, name, usize::MAX, test);
            }
        }
    }
    built
}

/// Whether each token stands in a pattern: a `match` arm's before its
/// guard or `=>`, a `let`'s (`if let`, `while let` and let-else
/// included) before its `=`, and `matches!`'s after its first comma.
/// A bracket opened inside a pattern is pattern throughout.
fn pattern_tokens(source: &str, toks: &[Token]) -> Vec<bool> {
    #[derive(Clone, Copy, PartialEq)]
    enum Arm {
        /// The scrutinee of `matches!`, before its comma.
        Scrutinee,
        Pattern,
        Guard,
        /// The arm's expression; `block` when it starts with a block,
        /// so its closing brace may end the arm without a comma.
        Expr {
            block: bool,
        },
    }
    struct Frame {
        arm: Option<Arm>,
        inherited: bool,
    }
    let text = |i: usize| toks.get(i).map_or("", |t| t.text(source));
    // Two tokens written as one operator (`=>`, `==`, `<=`, `..=`).
    let glued = |a: usize, b: usize| match (toks.get(a), toks.get(b)) {
        (Some(x), Some(y)) => x.end == y.start,
        _ => false,
    };
    let mut out = Vec::with_capacity(toks.len());
    let mut stack = vec![Frame {
        arm: None,
        inherited: false,
    }];
    // The depth of a `match` whose body is the next brace there, and of
    // a `let` whose pattern is open.
    let (mut match_at, mut let_at) = (None, None);
    for (i, tok) in toks.iter().enumerate() {
        let depth = stack.len();
        let top = stack.len() - 1;
        let in_pattern =
            stack[top].inherited || stack[top].arm == Some(Arm::Pattern) || let_at == Some(depth);
        out.push(in_pattern);
        let ident = tok.kind == TokenKind::Ident;
        match text(i) {
            "{" | "(" | "[" => {
                let arm = if text(i) == "{" && match_at == Some(depth) {
                    match_at = None;
                    Some(Arm::Pattern)
                } else if text(i) == "(" && i >= 2 && text(i - 1) == "!" && text(i - 2) == "matches"
                {
                    Some(Arm::Scrutinee)
                } else {
                    None
                };
                stack.push(Frame {
                    arm,
                    inherited: in_pattern && arm.is_none(),
                });
            }
            "}" | ")" | "]" => {
                if stack.len() > 1 {
                    stack.pop();
                }
                let top = stack.len() - 1;
                let ends_arm = !matches!(text(i + 1), "else" | "." | "?" | ",");
                if stack[top].arm == Some(Arm::Expr { block: true }) && ends_arm {
                    stack[top].arm = Some(Arm::Pattern);
                }
            }
            "match" if ident => match_at = Some(depth),
            "let" if ident => let_at = Some(depth),
            "if" if ident && matches!(stack[top].arm, Some(Arm::Pattern)) => {
                stack[top].arm = Some(Arm::Guard);
            }
            "=" if glued(i, i + 1) && text(i + 1) == ">" => {
                if matches!(stack[top].arm, Some(Arm::Pattern | Arm::Guard)) {
                    let block = matches!(
                        text(i + 2),
                        "{" | "if" | "match" | "loop" | "unsafe" | "while" | "for"
                    );
                    stack[top].arm = Some(Arm::Expr { block });
                }
            }
            "=" if let_at == Some(depth) => {
                let operator = (i > 0
                    && glued(i - 1, i)
                    && matches!(text(i - 1), "=" | "!" | "<" | ">" | "."))
                    || (glued(i, i + 1) && text(i + 1) == "=");
                if !operator {
                    let_at = None;
                }
            }
            ";" if let_at == Some(depth) => let_at = None,
            "," if matches!(stack[top].arm, Some(Arm::Scrutinee | Arm::Expr { .. })) => {
                stack[top].arm = Some(Arm::Pattern);
            }
            _ => {}
        }
    }
    out
}

/// The self type of the innermost item `impl` around each token, by
/// its last path segment (`impl<T> Trait for a::Type<T>` is `Type`):
/// what `Self` names there.
fn impl_self_types<'a>(source: &'a str, toks: &[Token]) -> Vec<Option<&'a str>> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text(source));
    let mut out = Vec::with_capacity(toks.len());
    // (brace depth of the body, self type)
    let mut impls: Vec<(usize, &str)> = Vec::new();
    let mut pending: Option<&str> = None;
    let mut depth = 0usize;
    for i in 0..toks.len() {
        out.push(impls.last().map(|(_, ty)| *ty));
        match text(i) {
            "{" => {
                depth += 1;
                if let Some(ty) = pending.take() {
                    impls.push((depth, ty));
                }
            }
            "}" => {
                if impls.last().is_some_and(|(d, _)| *d == depth) {
                    impls.pop();
                }
                depth = depth.saturating_sub(1);
            }
            // An item `impl`, not `impl Trait` in a type.
            "impl" if i == 0 || matches!(text(i - 1), "}" | ";" | "{" | "]" | "unsafe") => {
                let mut angle = 0usize;
                let mut last = None;
                let mut j = i + 1;
                while j < toks.len() && !(angle == 0 && matches!(text(j), "{" | ";" | "where")) {
                    match text(j) {
                        "<" => angle += 1,
                        ">" if !(j > 0 && text(j - 1) == "-") => angle = angle.saturating_sub(1),
                        "for" if angle == 0 => last = None,
                        _ if angle == 0 && toks[j].kind == TokenKind::Ident => last = Some(text(j)),
                        _ => {}
                    }
                    j += 1;
                }
                pending = last;
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// frame-plane
// ---------------------------------------------------------------------------

/// The one home of the stream frame format.
const FRAME_CODEC: &str = "crates/nexus-proxy/src/frame.rs";

/// A `read_exact` into a 4-byte buffer that is later handed to
/// `u32::from_be_bytes` reads a length prefix: outside `frame.rs` that
/// is a second frame reader.
fn check_frame_plane(files: &[Source], out: &mut Vec<Violation>) {
    for src in files.iter().filter(|s| s.path != FRAME_CODEC) {
        let toks = src.code();
        let text: Vec<&str> = toks.iter().map(|t| t.text(&src.text)).collect();
        let at = |i: usize, want: &[&str]| text.get(i..i + want.len()) == Some(want);
        // `let mut b = [0u8; 4]`, `[0; 4]` or `let mut b: [u8; 4]`.
        let quads: BTreeSet<&str> = (0..text.len())
            .filter(|&i| {
                at(i, &["let", "mut"])
                    && ((at(i + 3, &["=", "["])
                        && matches!(text.get(i + 5), Some(&("0" | "0u8")))
                        && at(i + 6, &[";", "4", "]"]))
                        || at(i + 3, &[":", "[", "u8", ";", "4", "]"]))
            })
            .map(|i| text[i + 2])
            .collect();
        for (i, tok) in toks.iter().enumerate() {
            let Some(&buf) = text.get(i + 4) else {
                break;
            };
            let read = at(i, &["read_exact", "(", "&", "mut"]) && at(i + 5, &[")"]);
            let parsed = || {
                (i + 6..text.len())
                    .any(|j| at(j, &["u32", ":", ":", "from_be_bytes", "(", buf, ")"]))
            };
            if read && quads.contains(buf) && parsed() {
                out.push(Violation {
                    path: src.path.clone(),
                    line: tok.line,
                    rule: Rule::FramePlane,
                    message: format!(
                        "reads a length prefix into `{buf}`: stream frames are read by \
                         `nexus_proxy::frame::read_frame` only"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)], schema: Option<&str>, sweep: Option<&str>) -> WsReport {
        analyze_workspace(&owned(files), &[], schema, sweep)
    }

    #[test]
    fn lock_order_clean_on_consistent_nesting() {
        let src = r#"
use wacs_sync::OrderedMutex;
struct S { a: OrderedMutex<u32>, b: OrderedMutex<u32> }
impl S {
    fn new() -> S {
        S { a: OrderedMutex::new("lk.a", 0), b: OrderedMutex::new("lk.b", 0) }
    }
    fn f(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
        drop(h);
        drop(g);
    }
    fn g(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
    }
}
"#;
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(""), Some(""));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.lock_nodes, 2);
        assert_eq!(r.lock_edges, 1);
    }

    #[test]
    fn lock_order_cycle_detected_across_functions() {
        let src = r#"
struct S { a: OrderedMutex<u32>, b: OrderedMutex<u32> }
impl S {
    fn new() -> S {
        S { a: OrderedMutex::new("lk.a", 0), b: OrderedMutex::new("lk.b", 0) }
    }
    fn ab(&self) {
        let g = self.a.lock();
        let h = self.b.lock();
    }
    fn ba(&self) {
        let g = self.b.lock();
        let h = self.a.lock();
    }
}
"#;
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(""), Some(""));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::LockOrder);
        assert!(r.violations[0].message.contains("lk.a"));
        assert!(r.violations[0].message.contains("lk.b"));
    }

    #[test]
    fn lock_order_drop_breaks_the_edge() {
        let src = r#"
fn f() {
    let a = OrderedMutex::new("seq.a", 0);
    let b = OrderedMutex::new("seq.b", 0);
    let g = a.lock();
    drop(g);
    let h = b.lock();
    drop(h);
    let h2 = b.lock();
    drop(h2);
    let g2 = a.lock();
}
"#;
        // Sequential (never nested) acquisitions in both orders: no
        // edges at all, so no cycle.
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(""), Some(""));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.lock_edges, 0);
    }

    #[test]
    fn lock_order_temporary_guard_released_at_statement_end() {
        let src = r#"
struct S { a: OrderedMutex<u32>, b: OrderedMutex<u32> }
impl S {
    fn new() -> S {
        S { a: OrderedMutex::new("tmp.a", 0), b: OrderedMutex::new("tmp.b", 0) }
    }
    fn f(&self) {
        let x = self.a.lock().wrapping_add(1);
        let y = self.b.lock().wrapping_add(x);
    }
    fn g(&self) {
        let h = self.b.lock();
        let x = self.a.lock().wrapping_add(*h);
    }
}
"#;
        // f(): a's guard is a temporary, dead by the time b locks.
        // g(): b is held across a's acquisition → edge b→a only; with
        // no a→b edge anywhere there is no cycle.
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(""), Some(""));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.lock_edges, 1);
    }

    #[test]
    fn lock_order_ignores_test_regions() {
        let src = r#"
fn lib() {}
#[cfg(test)]
mod tests {
    fn abba() {
        let a = OrderedMutex::new("t.a", 0);
        let b = OrderedMutex::new("t.b", 0);
        let g = a.lock();
        let h = b.lock();
        drop(h); drop(g);
        let h = b.lock();
        let g = a.lock();
    }
}
"#;
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(""), Some(""));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.lock_edges, 0);
    }

    #[test]
    fn lock_order_indexed_receiver_resolves() {
        let src = r#"
struct R { inject: Vec<OrderedMutex<u32>>, workers: OrderedMutex<u32> }
impl R {
    fn new(n: usize) -> R {
        R {
            inject: (0..n).map(|_| OrderedMutex::new("rx.inject", 0)).collect(),
            workers: OrderedMutex::new("rx.workers", 0),
        }
    }
    fn f(&self, i: usize) {
        let w = self.workers.lock();
        let q = self.inject[i].lock();
    }
}
"#;
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(""), Some(""));
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.lock_edges, 1);
        assert_eq!(r.lock_nodes, 2);
    }

    #[test]
    fn counter_schema_flags_undocumented_keys() {
        let src = r#"
fn wire(reg: &wacs_obs::Registry) {
    let a = reg.counter("demo.documented");
    let b = reg.gauge("demo.missing_gauge");
}
"#;
        let schema = "| `demo.documented` | count |";
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(schema), Some(""));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::CounterSchema);
        assert!(r.violations[0].message.contains("demo.missing_gauge"));
        assert_eq!(r.metric_keys, 2);
    }

    #[test]
    fn counter_schema_handles_format_and_helper_closures() {
        let src = r#"
fn wire(reg: &wacs_obs::Registry, prefix: &str) {
    let h = reg.histogram(&format!("{prefix}.leg_in_ns"));
    let c = |n: &str| reg.counter(&format!("{prefix}.{n}"));
    let hits = c("pool_hits");
    let misses = c("pool_ghosts");
}
"#;
        let schema = "`x.leg_in_ns` and `x.pool_hits` are documented";
        let r = ws(&[("crates/demo/src/lib.rs", src)], Some(schema), Some(""));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].message.contains("pool_ghosts"));
        // leg_in_ns + pool_hits + pool_ghosts (the bare {prefix}.{n}
        // format has no static fragment ≥ 3 chars).
        assert_eq!(r.metric_keys, 3);
    }

    #[test]
    fn counter_schema_exempts_infra_crates() {
        let src = "fn f(reg: &Registry) { let c = reg.counter(\"scratch\"); }\n";
        for path in ["crates/wacs-obs/src/lib.rs", "crates/xtask/src/main.rs"] {
            let r = ws(&[(path, src)], Some(""), Some(""));
            assert!(r.violations.is_empty(), "{path}");
        }
        // The paper bin's histograms are documented like any other.
        let r = ws(&[("crates/bench/src/scaling.rs", src)], Some(""), Some(""));
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
    }

    #[test]
    fn frame_coverage_flags_unfuzzed_variants() {
        let proto = r#"
pub enum CtrlMsg {
    Ping { seq: u32 },
    Pong { seq: u32 },
    Busy(String),
}
"#;
        let sweep =
            "fn random_msgs() { let a = Msg::Ping { seq: 1 }; let b = Msg::Pong { seq: 1 }; }";
        let r = ws(
            &[("crates/nexus-proxy/src/protocol.rs", proto)],
            Some(""),
            Some(sweep),
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::FrameCoverage);
        assert!(r.violations[0].message.contains("Msg::Busy"));
        assert_eq!(r.frame_variants, 3);
    }

    /// The control-message enum is generic over the host type and the
    /// sweep builds it through the `Msg` alias: extraction must see
    /// through `<H>`, and a variant the sweep skips is still flagged.
    #[test]
    fn frame_coverage_sees_through_generics_and_the_alias() {
        let proto = r#"
pub enum CtrlMsg<H> {
    ConnectReq { host: H, port: u16 },
    BindSync { binds: Vec<(H, u16)> },
    Busy,
}
pub type Msg = CtrlMsg<String>;
"#;
        let sweep = "fn random_msgs() { let a = Msg::ConnectReq { host: h, port: 1 }; \
                     let b = Msg::Busy; }";
        let r = ws(
            &[("crates/nexus-proxy/src/protocol.rs", proto)],
            Some(""),
            Some(sweep),
        );
        assert_eq!(r.frame_variants, 3);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::FrameCoverage);
        assert!(r.violations[0].message.contains("Msg::BindSync"));
    }

    /// Lexed sources for a fixture file set.
    fn owned(files: &[(&str, &str)]) -> Vec<Source> {
        files
            .iter()
            .map(|(p, s)| Source::new(p, s.to_string()))
            .collect()
    }

    fn unused_pub_hits(files: &[(&str, &str)], callers: &[(&str, &str)]) -> Vec<(String, usize)> {
        analyze_workspace(&owned(files), &owned(callers), Some(""), Some(""))
            .violations
            .into_iter()
            .filter(|v| v.rule == Rule::UnusedPub)
            .map(|v| (v.path, v.line))
            .collect()
    }

    #[test]
    fn unused_pub_flags_items_only_their_own_crate_tests_name() {
        let lib = r#"
pub mod util;
pub use util::reexported;

pub fn only_unit_tested() -> u32 { 1 }
pub fn only_integration_tested() {}
pub struct UsedElsewhere;
pub const FOR_EXAMPLES: u32 = 3;
pub static FOR_BENCH: u32 = 4;
pub fn for_other_tests() {}
// only_integration_tested in a comment is no caller.
const NOTE: &str = "only_unit_tested";
impl Display for UsedElsewhere {
    pub fn fmt(&self) -> u32 { 0 }
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert_eq!(super::only_unit_tested(), 1); }
}
"#;
        let files = [
            ("crates/demo/src/lib.rs", lib),
            ("crates/demo/src/util.rs", "pub fn reexported() {}\n"),
            (
                "crates/other/src/lib.rs",
                "use demo::UsedElsewhere;\nfn f() -> UsedElsewhere { UsedElsewhere }\n",
            ),
        ];
        let callers = [
            // A helper outside any `#[test]` fn is test code too.
            (
                "crates/demo/tests/flow.rs",
                "fn setup() { demo::only_integration_tested(); }\n#[test]\nfn t() { setup(); }\n",
            ),
            (
                "crates/other/tests/it.rs",
                "#[test]\nfn t() { demo::for_other_tests(); }\n",
            ),
            (
                "examples/tour.rs",
                "fn main() { let _ = demo::FOR_EXAMPLES; }\n",
            ),
            (
                "benchmark/src/main.rs",
                "fn main() { let _ = demo::FOR_BENCH; }\n",
            ),
        ];
        let lib_rs = "crates/demo/src/lib.rs".to_string();
        assert_eq!(
            unused_pub_hits(&files, &callers),
            [
                (lib_rs.clone(), 5),
                (lib_rs, 6),
                ("crates/demo/src/util.rs".to_string(), 1),
            ]
        );
    }

    #[test]
    fn unused_pub_spares_test_only_items_and_reasoned_markers() {
        let lib = r#"
// lint:allow(unused-pub) test knob: tests/flow.rs shortens it
pub fn knob() {}
pub fn bare() {} // lint:allow(unused-pub)
pub(crate) fn crate_only() {}
pub(super) fn outside_the_rule() {}
#[cfg(test)]
pub fn test_helper() {}
pub fn caller() { helper() }
fn helper() {}
"#;
        // `caller` is named by the root package's examples; a crate
        // with no `lib.rs` in view, `xtask` and binaries are not judged.
        let files = [
            ("crates/demo/src/lib.rs", lib),
            ("crates/demo/src/bin/tool.rs", "pub fn unused_in_bin() {}\n"),
            ("crates/xtask/src/lib.rs", "pub fn unused_in_xtask() {}\n"),
            ("crates/partial/src/alone.rs", "pub fn unused_alone() {}\n"),
        ];
        let callers = [("examples/tour.rs", "fn main() { demo::caller(); }\n")];
        let lib_rs = "crates/demo/src/lib.rs".to_string();
        assert_eq!(
            unused_pub_hits(&files, &callers),
            [(lib_rs.clone(), 4), (lib_rs, 5)]
        );
    }

    /// A variant lives only where something builds it: a path outside
    /// its enum and outside `match`, `let` and `matches!` patterns, a
    /// `Self::` path in its `impl`, a path through an alias, or a `use`.
    #[test]
    fn unused_pub_judges_enum_variants() {
        let lib = r#"
pub mod msg;
pub enum Pick {
    Built,
    Matched,
    Guarded,
    LetOnly,
    Checked,
    ViaSelf,
    ViaAlias,
    Imported,
    OwnTestOnly,
    OtherTest,
    // lint:allow(unused-pub) kept for the wire format's next version
    Reserved,
}
pub type Alias = Pick;
impl Pick {
    fn fresh() -> Self {
        Self::ViaSelf
    }
}
fn judge(p: Pick, n: u32) -> u32 {
    match p {
        Pick::Matched => 1,
        Pick::Guarded if n > 0 => {
            if n > 1 { 2 } else { 3 }
        }
        Pick::Built | Pick::Checked => match n {
            0 => 4,
            _ => 5,
        }
        Pick::LetOnly => 6,
        _ => 0,
    }
}
fn build(n: u32) -> Pick {
    if let Pick::LetOnly = Pick::Built {
        return Alias::ViaAlias;
    }
    let Pick::Checked = Pick::Built else { return Pick::Built };
    let _ = matches!(Pick::Built, Pick::Checked | Pick::Guarded if n > 0);
    Pick::Built
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = super::Pick::OwnTestOnly; }
}
"#;
        let files = [
            ("crates/demo/src/lib.rs", lib),
            (
                "crates/demo/src/msg.rs",
                "pub enum Msg { Ping, Pong }\nfn ping() -> Msg { Msg::Ping }\n",
            ),
            (
                "crates/other/src/lib.rs",
                "use demo::Pick::Imported;
",
            ),
        ];
        let callers = [(
            "crates/other/tests/it.rs",
            "#[test]\nfn t() { let _ = demo::Pick::OtherTest; }\n",
        )];
        // Matched, Guarded, LetOnly and Checked stand only in patterns;
        // OwnTestOnly only in its own crate's tests; Pong nowhere.
        let at = |line: usize| ("crates/demo/src/lib.rs".to_string(), line);
        assert_eq!(
            unused_pub_hits(&files, &callers),
            [
                at(5),
                at(6),
                at(7),
                at(8),
                at(12),
                ("crates/demo/src/msg.rs".to_string(), 1),
            ]
        );
    }

    #[test]
    fn orphan_module_flags_files_no_mod_declaration_reaches() {
        let lib = r#"
pub mod a;
mod b {
    pub mod c;
    fn f() {}
}
#[cfg(test)]
mod tests;
mod inline_only {}
// mod commented;
const S: &str = "mod in_string;";
"#;
        let r = ws(
            &[
                ("crates/demo/src/lib.rs", lib),
                ("crates/demo/src/a.rs", "mod d;\n"),
                ("crates/demo/src/a/d.rs", ""),
                ("crates/demo/src/b/c.rs", ""),
                ("crates/demo/src/tests.rs", "#![cfg(test)]\n"),
                ("crates/demo/src/commented.rs", ""),
                ("crates/demo/src/in_string.rs", ""),
                ("crates/demo/src/a/e.rs", ""),
                ("crates/demo/src/c.rs", ""),
                ("crates/demo/src/bin/tool.rs", ""),
                ("crates/tool/src/main.rs", "mod cli;\n"),
                ("crates/tool/src/cli/mod.rs", "pub mod parse;\n"),
                ("crates/tool/src/cli/parse.rs", ""),
                ("crates/tool/src/old.rs", ""),
                ("src/lib.rs", "pub mod prelude;\n"),
                ("src/prelude.rs", ""),
                ("src/extra.rs", ""),
                // No root in the set: not judged.
                ("crates/partial/src/alone.rs", ""),
            ],
            Some(""),
            Some(""),
        );
        let hits: Vec<(&str, usize)> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::OrphanModule)
            .map(|v| (v.path.as_str(), v.line))
            .collect();
        assert_eq!(
            hits,
            [
                ("crates/demo/src/commented.rs", 1),
                ("crates/demo/src/in_string.rs", 1),
                ("crates/demo/src/a/e.rs", 1),
                // `b::c` lives in `b/c.rs`, not beside the root.
                ("crates/demo/src/c.rs", 1),
                ("crates/tool/src/old.rs", 1),
                ("src/extra.rs", 1),
            ],
            "{:?}",
            r.violations
        );
    }

    #[test]
    fn enum_variant_extraction_skips_fields_and_attrs() {
        let src = r#"
#[derive(Debug)]
pub enum Msg {
    /// doc
    Connect { host: String, port: u16 },
    Data(Vec<u8>),
    #[allow(dead_code)]
    Close,
}
"#;
        let toks = Source::new("", src.to_string()).code();
        let names: Vec<String> = enum_variants(src, &toks, "Msg")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["Connect", "Data", "Close"]);
    }

    /// The real workspace must be clean: zero cycles, all metric keys
    /// documented, all frames fuzzed, the core pure. This is the
    /// acceptance gate run as a unit test.
    #[test]
    fn real_workspace_is_clean() {
        let root = workspace_root();
        let files = load_files(root).expect("load workspace sources");
        let report = analyze_root(root, &files).expect("load caller sources");
        assert!(
            report.violations.is_empty(),
            "workspace rule violations:\n{}",
            report
                .violations
                .iter()
                .map(|v| format!("{}:{}: {}", v.path, v.line, v.message))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(report.lock_nodes >= 5, "nodes: {}", report.lock_nodes);
        assert!(report.metric_keys >= 40, "keys: {}", report.metric_keys);
        assert_eq!(report.frame_variants, 16);
    }

    fn workspace_root() -> &'static Path {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
    }

    /// Every marker outside this crate excuses something: with markers
    /// ignored, each rule a `lint:allow(...)` names has a finding on the
    /// marker's line, or beside it when the marker's comment is alone on
    /// its line.
    #[test]
    fn every_marker_sits_on_a_finding_of_its_rule() {
        let root = workspace_root();
        let files = load_files(root).expect("load workspace sources");
        let unmarked: Vec<Source> = files
            .iter()
            .map(|s| Source::new(&s.path, s.text.replace("lint:allow(", "lint:ignored(")))
            .collect();
        let report = analyze_root(root, &unmarked).expect("load caller sources");
        let mut idle = Vec::new();
        for src in files
            .iter()
            .filter(|s| !s.path.starts_with("crates/xtask/"))
        {
            for m in &src.markers {
                for rule in m.rules.split(',').map(str::trim) {
                    let covered = report.violations.iter().any(|v| {
                        v.path == src.path
                            && v.rule.name() == rule
                            && (v.line == m.line || (m.alone && v.line.abs_diff(m.line) == 1))
                    });
                    if !covered {
                        idle.push(format!("{}:{}: lint:allow({rule})", src.path, m.line));
                    }
                }
            }
        }
        assert!(
            idle.is_empty(),
            "markers that excuse nothing:\n{}",
            idle.join("\n")
        );
        assert!(files.iter().map(|s| s.markers.len()).sum::<usize>() >= 40);
    }

    #[test]
    fn frame_coverage_flags_unfuzzed_stripe_frames() {
        let stripe = r#"
pub enum StripeFrame {
    Open { transfer: u64 },
    Data { transfer: u64 },
    Fin { transfer: u64 },
    Done { transfer: u64 },
}
"#;
        let sweep = "fn random_msgs() { let a = StripeFrame::Open { transfer: 1 }; \
                     let b = StripeFrame::Data { transfer: 1 }; \
                     let c = StripeFrame::Fin { transfer: 1 }; }";
        let r = ws(
            &[("crates/nexus-proxy/src/stripe.rs", stripe)],
            Some(""),
            Some(sweep),
        );
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].rule, Rule::FrameCoverage);
        assert!(r.violations[0].message.contains("StripeFrame::Done"));
        assert_eq!(r.frame_variants, 4);
    }

    #[test]
    fn frame_plane_flags_length_prefixes_read_outside_the_codec() {
        // The control-frame reader as it was before `frame.rs`.
        let failing = r#"
impl Msg {
    pub fn read_from(r: &mut impl Read) -> io::Result<Msg> {
        let mut len = [0u8; 4];
        r.read_exact(&mut len)?; // lint:allow(deadline-io)
        let len = u32::from_be_bytes(len);
        check_frame_len(len)?;
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?; // lint:allow(deadline-io)
        Msg::decode(&body)
    }
}
fn typed(r: &mut impl Read) -> io::Result<u32> {
    let mut n: [u8; 4] = [0; 4];
    r.read_exact(&mut n)?;
    Ok(u32::from_be_bytes(n))
}
#[cfg(test)]
mod tests {
    fn t(r: &mut impl Read) -> u32 {
        let mut len = [0; 4];
        r.read_exact(&mut len).unwrap();
        u32::from_be_bytes(len)
    }
}
"#;
        // gridmpi's packet header, parsed from a frame already read.
        let passing = r#"
pub fn decode(mut frame: Vec<u8>) -> io::Result<Packet> {
    if frame.len() < HEADER_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short MPI packet"));
    }
    let src = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]);
    let tag = i32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]);
    frame.drain(..HEADER_LEN);
    Ok(Packet { src, tag, payload: frame })
}
fn echo(s: &mut TcpStream) -> io::Result<()> {
    let mut b = [0u8; 4];
    s.read_exact(&mut b)?;
    s.write_all(&b)
}
"#;
        let r = ws(
            &[
                ("crates/nexus-proxy/src/protocol.rs", failing),
                ("crates/gridmpi/src/packet.rs", passing),
                // The codec itself reads prefixes.
                ("crates/nexus-proxy/src/frame.rs", failing),
            ],
            Some(""),
            Some(""),
        );
        let hits: Vec<(&str, usize)> = r
            .violations
            .iter()
            .filter(|v| v.rule == Rule::FramePlane)
            .map(|v| (v.path.as_str(), v.line))
            .collect();
        let protocol = "crates/nexus-proxy/src/protocol.rs";
        assert_eq!(hits, [(protocol, 5), (protocol, 15)], "{:?}", r.violations);
    }
}
