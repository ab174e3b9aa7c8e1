//! The rule list and the spelling table.
//!
//! Every rule is named and summarised once, in `rules!`. Sixteen of
//! them have one shape: "these spellings are forbidden in these files,
//! optionally in test code too, except where a marker says why". Each
//! clause of such a rule is one [`Row`] of [`ROWS`], and [`check`]
//! matches every row against one file's [`Source`] lines. A row judges
//! library code (`crates/*/src`, `src/`) unless it says it judges the
//! callers too (tests, examples, the benchmark). The six
//! rules that relate several sites (`lock-order`, `counter-schema`,
//! `frame-coverage`, `orphan-module`, `unused-pub`, `frame-plane`)
//! live in `wsrules`.
//!
//! A spelling is matched in a line's code tokens joined without space
//! (comments and literals left out), so `x . unwrap ()` spells
//! `.unwrap()` and a doc comment or string that mentions it does not.
//! A space at either end of a spelling demands a token edge there
//! (`" panic!"` is not `dont_panic!`, `" 5678 "` is not `15678`), and
//! `…` joins parts that must follow each other on the line.

use crate::lexer::{Line, Source};

macro_rules! rules {
    ($($rule:ident $name:literal $summary:literal,)*) => {
        /// One enforced convention.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Rule {
            $($rule,)*
        }

        /// Every rule, in `xtask rules` order.
        pub const ALL: &[Rule] = &[$(Rule::$rule,)*];

        impl Rule {
            pub fn name(self) -> &'static str {
                match self {
                    $(Rule::$rule => $name,)*
                }
            }

            pub fn summary(self) -> &'static str {
                match self {
                    $(Rule::$rule => $summary,)*
                }
            }
        }
    };
}

rules! {
    UnwrapPanic "unwrap-panic" "no .unwrap()/.expect()/panic! outside #[cfg(test)] code",
    StdSync "std-sync"
        "use wacs_sync::{Mutex, RwLock} instead of std::sync locks and condvars",
    PortLiteral "port-literal"
        "well-known ports (911/5678/2119) must reference the named constants",
    Todo "todo" "no todo!()/unimplemented!() in library crates",
    RequireUnwrapOr "require-unwrap-or"
        "required wire fields must error, not .unwrap_or(...) a default",
    BareAtomicCounter "bare-atomic-counter"
        "metric counters belong in the wacs_obs registry, not bare AtomicU64s",
    DeadlineIo "deadline-io"
        "blocking read_exact/accept needs a read timeout \
         or an explicit lint:allow(deadline-io)",
    HotPathAlloc "hot-path-alloc"
        "no vec![0u8; ...] or .to_vec() in pump/pool/stripe hot paths; \
         take a pooled segment or borrow the bytes",
    BareSleep "bare-sleep"
        "no bare thread::sleep in library code; wait on a deadline \
         (or mark a bounded backoff with lint:allow(bare-sleep))",
    AcceptPoll "accept-poll"
        "no .set_nonblocking(true) outside tests; block in \
         accept_until_stop and end it with the listener's stop handle",
    LockOrder "lock-order" "the static lock-order graph over Ordered locks must be acyclic",
    CounterSchema "counter-schema"
        "every registered wacs-obs metric key must appear in EXPERIMENTS.md",
    FrameCoverage "frame-coverage" "every protocol::Msg variant must be hit by the fuzz sweep",
    CorePurity "core-purity"
        "the sans-IO cores (nexus-proxy core/, knapsack sched.rs) name no socket, \
         thread, clock or simulator type",
    ClientPlane "client-plane"
        "client drivers name no ShardRouter/CircuitBreaker; \
         StripeFrame::Open is spelled in stripe.rs only",
    SchedPlane "sched-plane"
        "knapsack par.rs/sim.rs name no branch_once/branch_batch/back_send_count/\
         effective_back_threshold; the scheduler is sched.rs",
    RetryPlane "retry-plane"
        "only nexus-proxy core/retry.rs reads a RetryPolicy's base_backoff/\
         max_backoff/max_attempts; callers ask Retry",
    DaemonSpawn "daemon-spawn"
        "no thread::spawn in nexus-proxy outer/inner/wire/pump.rs, nexus endpoint.rs \
         or rmf wire.rs but the marked long-lived threads; the rest come from workers.rs",
    OneDeployment "one-deployment"
        "the proxy deployment is built by nexus_proxy::Deployment: no InnerServer::start \
         outside deploy.rs, inner.rs and benchmark/",
    OrphanModule "orphan-module"
        "every src/ file is reached from lib.rs/main.rs through mod declarations \
         or lives in src/bin/",
    FramePlane "frame-plane"
        "a stream's u32 length prefix is read in nexus-proxy frame.rs only; \
         call frame::read_frame",
    UnusedPub "unused-pub"
        "every pub item of a library crate is named outside its definition, use \
         paths and its own crate's tests, and every variant of a pub enum is built \
         outside its enum and patterns",
}

/// A single diagnostic.
#[derive(Debug, Clone)]
pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

/// Which `lint:allow(<rule>)` markers excuse a finding.
#[derive(Clone, Copy, PartialEq)]
enum Allow {
    No,
    Bare,
    /// Only one with a reason after the parenthesis.
    Reasoned,
}

/// Where a row does not apply although a spelling matched.
#[derive(Clone, Copy)]
enum Unless {
    Never,
    /// A line a `use` path ends on: an import is inert.
    Import,
    /// A file whose code, test code included, spells one of these.
    File(&'static [&'static str]),
}

/// One clause: a line that spells one of `spellings` is a finding.
struct Row {
    rule: Rule,
    /// The first one a line spells names the finding as `{}` in
    /// `message`, without its edge spaces and dots.
    spellings: &'static [&'static str],
    /// Path prefixes judged; empty judges every file.
    only: &'static [&'static str],
    /// Path prefixes not judged.
    except: &'static [&'static str],
    /// Test code is judged too.
    tests: bool,
    /// Caller sources (tests, examples, the benchmark) are judged too.
    callers: bool,
    /// The spellings are matched in the line's comments, not its code.
    comments: bool,
    unless: Unless,
    allow: Allow,
    message: &'static str,
}

const ROW: Row = Row {
    rule: Rule::UnwrapPanic,
    spellings: &[],
    only: &[],
    except: &[],
    tests: false,
    callers: false,
    comments: false,
    unless: Unless::Never,
    allow: Allow::Bare,
    message: "",
};

/// The data-plane hot files: relay segments come from the shared
/// `BufferPool` and stripe chunks are borrowed.
const HOT_PATH: &[&str] = &[
    "crates/nexus-proxy/src/pump.rs",
    "crates/nexus-proxy/src/pool.rs",
    "crates/nexus-proxy/src/stripe.rs",
];

/// The sans-IO cores: a real and a sim driver (and, for the proxy, the
/// model checker) run them.
const CORES: &[&str] = &[
    "crates/nexus-proxy/src/core.rs",
    "crates/nexus-proxy/src/core/",
    "crates/knapsack/src/sched.rs",
];

static ROWS: &[Row] = &[
    // Daemon code must degrade via `Result`, not abort: remote bytes
    // must never be able to kill a process.
    Row {
        spellings: &[".unwrap()"],
        message: "`.unwrap()` in library code; return a Result or use unwrap_or_*",
        ..ROW
    },
    Row {
        spellings: &[".expect("],
        message: "`.expect(...)` in library code; return a Result",
        ..ROW
    },
    Row {
        spellings: &[" panic!"],
        message: "`panic!` in library code; return an error",
        ..ROW
    },
    // The deadlock detector sees every acquisition, and the channel
    // stays the one hand-rolled monitor `wacs-check` models.
    Row {
        rule: Rule::StdSync,
        spellings: &[
            "std::sync::Mutex",
            "std::sync::RwLock",
            "std::sync::Condvar",
        ],
        except: &["crates/wacs-sync/", "crates/xtask/"],
        tests: true,
        message: "std::sync lock or condvar; use wacs_sync::{Mutex, RwLock} (or Ordered*), \
                  and wacs_sync::channel to hand work between threads",
        ..ROW
    },
    // NXPORT, OUTER_PORT and GATEKEEPER_PORT, outside their definitions.
    Row {
        rule: Rule::PortLiteral,
        spellings: &[" 911 ", " 5678 ", " 2119 "],
        except: &["crates/firewall/src/lib.rs", "crates/nexus/src/ports.rs"],
        message: "raw well-known port {}; name the constant",
        ..ROW
    },
    Row {
        rule: Rule::Todo,
        spellings: &[" todo!", " unimplemented!"],
        tests: true,
        message: "`{}` left in source",
        ..ROW
    },
    Row {
        rule: Rule::RequireUnwrapOr,
        spellings: &["require_u64(….unwrap_or", ".unwrap_or…require_u64("],
        message: "`.unwrap_or(...)` swallows a missing required field; \
                  reject the record instead",
        ..ROW
    },
    // The registry's instruments are atomics, and an import is inert.
    Row {
        rule: Rule::BareAtomicCounter,
        spellings: &["AtomicU64"],
        except: &["crates/wacs-obs/", "crates/xtask/"],
        unless: Unless::Import,
        message: "bare `AtomicU64` counter; use wacs_obs::Counter so the metric \
                  lands in registry snapshots",
        ..ROW
    },
    // A file that sets a read timeout anywhere has a deadline story.
    Row {
        rule: Rule::DeadlineIo,
        spellings: &[".read_exact(", ".accept()"],
        unless: Unless::File(&["set_read_timeout"]),
        message: "blocking I/O with no deadline in this file; set a read timeout \
                  (or mark the site deliberate)",
        ..ROW
    },
    Row {
        rule: Rule::HotPathAlloc,
        spellings: &["vec![0u8;"],
        only: HOT_PATH,
        message: "per-call buffer allocation in a relay hot loop; draw a pooled \
                  segment from the shared BufferPool",
        ..ROW
    },
    Row {
        rule: Rule::HotPathAlloc,
        spellings: &[".to_vec()"],
        only: HOT_PATH,
        message: "per-call copy in a data-plane hot path; borrow the bytes \
                  (e.g. a `StripeFrame<&[u8]>`) instead",
        ..ROW
    },
    // Recovery-time measurements must not inherit a sleep quantum.
    Row {
        rule: Rule::BareSleep,
        spellings: &["thread::sleep("],
        message: "bare `thread::sleep` in library code; wait on a deadline \
                  (condvar timeout / read timeout) or mark a bounded backoff deliberate",
        ..ROW
    },
    Row {
        rule: Rule::AcceptPoll,
        spellings: &[".set_nonblocking(true)"],
        message: "nonblocking socket in library code; block in `accept_until_stop` \
                  (or a read with a timeout) and end the wait from outside",
        ..ROW
    },
    Row {
        rule: Rule::CorePurity,
        spellings: &[
            "std::net",
            "TcpStream",
            "TcpListener",
            "std::thread",
            "thread::",
            "Instant",
            "SystemTime",
            "netsim",
            "gridmpi",
            "vnet",
            "OrderedMutex",
            "Mutex",
            "atomic",
        ],
        only: CORES,
        tests: true,
        allow: Allow::No,
        message: "the sans-IO core names `{}`: no socket, thread, clock (callers pass \
                  `now`), simulator or lock belongs there; each driver wraps the core",
        ..ROW
    },
    Row {
        rule: Rule::CorePurity,
        spellings: &["lint:allow(bare-sleep)"],
        only: CORES,
        tests: true,
        comments: true,
        allow: Allow::No,
        message: "the sans-IO core gets no lint:allow(bare-sleep): it never sleeps",
        ..ROW
    },
    // The fleet ladder lives in `core/client.rs` and the lane sequence
    // in `stripe.rs`; a second copy starts with one of these.
    Row {
        rule: Rule::ClientPlane,
        spellings: &["ShardRouter", "CircuitBreaker"],
        only: &[
            "crates/nexus-proxy/src/client.rs",
            "crates/nexus-proxy/src/sim/client.rs",
            "crates/gridmpi/src/comm.rs",
        ],
        allow: Allow::No,
        message: "a client driver names `{}`: shard choice and breakers belong to \
                  core/client.rs",
        ..ROW
    },
    Row {
        rule: Rule::ClientPlane,
        spellings: &["StripeFrame::Open{"],
        except: &["crates/nexus-proxy/src/stripe.rs"],
        allow: Allow::No,
        message: "`StripeFrame::Open {` outside stripe.rs: walk \
                  `StripePlan::lane_frames` instead of a second lane loop",
        ..ROW
    },
    Row {
        rule: Rule::SchedPlane,
        spellings: &[
            "branch_once",
            "branch_batch",
            "back_send_count",
            "effective_back_threshold",
        ],
        only: &["crates/knapsack/src/par.rs", "crates/knapsack/src/sim.rs"],
        allow: Allow::No,
        message: "a knapsack driver names `{}`: scheduling decisions belong to \
                  knapsack/src/sched.rs",
        ..ROW
    },
    // netsim, below `nexus-proxy`, has a transport `max_attempts` of
    // its own.
    Row {
        rule: Rule::RetryPlane,
        spellings: &[".base_backoff", ".max_backoff", ".max_attempts"],
        except: &["crates/nexus-proxy/src/core/retry.rs", "crates/netsim/"],
        allow: Allow::No,
        message: "reads `{}` of a retry policy: backoff and give-up belong to \
                  core/retry.rs (drive `Retry`)",
        ..ROW
    },
    // Per-connection jobs run on the owner's parked `Workers`.
    Row {
        rule: Rule::DaemonSpawn,
        spellings: &["thread::spawn", "thread::Builder", "thread::scope"],
        only: &[
            "crates/nexus-proxy/src/outer.rs",
            "crates/nexus-proxy/src/inner.rs",
            "crates/nexus-proxy/src/wire.rs",
            "crates/nexus-proxy/src/pump.rs",
            "crates/nexus/src/endpoint.rs",
            "crates/rmf/src/wire.rs",
        ],
        allow: Allow::Reasoned,
        message: "`{}` in a pooled server: run the job on its parked `Workers` \
                  (`workers.run`, `Daemon::on_worker`), or mark a long-lived thread \
                  `lint:allow(daemon-spawn)` with a reason",
        ..ROW
    },
    // A hand-built deployment drifts from the paper's and leaves its
    // daemons' teardown to each caller.
    Row {
        rule: Rule::OneDeployment,
        spellings: &["InnerServer::start("],
        except: &[
            "crates/nexus-proxy/src/deploy.rs",
            "crates/nexus-proxy/src/inner.rs",
            "benchmark/",
        ],
        tests: true,
        callers: true,
        allow: Allow::No,
        message: "a hand-built proxy deployment: start it with `nexus_proxy::Deployment`",
        ..ROW
    },
];

/// Match every row against `src`, one finding per row and line. A line
/// spells what its code spells and what the `use` paths ending on it
/// spell, so a `use` item is judged whole, across its lines and braces.
pub fn check(src: &Source, out: &mut Vec<Violation>) {
    let spells = |line: &Line, s: &str| occurs(&line.code, &line.bounds, s);
    let imports = |n: usize, s: &str| {
        src.uses
            .iter()
            .any(|u| u.line == n && occurs(&u.code, &u.bounds, s))
    };
    let library = src.path.starts_with("src/")
        || (src.path.starts_with("crates/") && src.path.split('/').nth(2) == Some("src"));
    let rows: Vec<&Row> = ROWS
        .iter()
        .filter(|row| {
            let within = |prefixes: &[&str]| prefixes.iter().any(|p| src.path.starts_with(p));
            (library || row.callers)
                && (row.only.is_empty() || within(row.only))
                && !within(row.except)
                && !matches!(row.unless, Unless::File(u)
                    if src.lines.iter().any(|l| u.iter().any(|s| spells(l, s))))
        })
        .collect();
    for (n, line) in src.lines.iter().enumerate() {
        for row in rows.iter().filter(|row| row.tests || !line.test) {
            let found = row.spellings.iter().find(|s| {
                if row.comments {
                    line.comment.contains(*s)
                } else {
                    spells(line, s) || imports(n, s)
                }
            });
            let Some(spelling) = found else {
                continue;
            };
            if (matches!(row.unless, Unless::Import) && src.uses.iter().any(|u| u.line == n))
                || (row.allow != Allow::No
                    && src.marked(n, row.rule.name(), row.allow == Allow::Reasoned))
            {
                continue;
            }
            out.push(Violation {
                path: src.path.clone(),
                line: n,
                rule: row.rule,
                message: row.message.replace("{}", spelling.trim_matches([' ', '.'])),
            });
        }
    }
}

/// Whether `code` spells `spelling`: its `…`-separated parts occur in
/// order, and an edge space of a part falls on one of `bounds`.
fn occurs(code: &str, bounds: &[usize], spelling: &str) -> bool {
    let mut from = 0;
    spelling.split('…').all(|part| {
        let needle = part.trim();
        let at = code[from..]
            .match_indices(needle)
            .map(|(at, _)| from + at)
            .find(|&at| {
                (!part.starts_with(' ') || bounds.contains(&at))
                    && (!part.ends_with(' ') || bounds.contains(&(at + needle.len())))
            });
        at.map(|at| from = at + needle.len()).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use Rule::*;

    fn hits(path: &str, src: &str) -> Vec<(usize, Rule)> {
        let mut out = Vec::new();
        check(&Source::new(path, src.to_string()), &mut out);
        out.into_iter().map(|v| (v.line, v.rule)).collect()
    }

    const DEMO: &str = "crates/demo/src/lib.rs";
    const PUMP: &str = "crates/nexus-proxy/src/pump.rs";
    const POOL: &str = "crates/nexus-proxy/src/pool.rs";
    const STRIPE: &str = "crates/nexus-proxy/src/stripe.rs";
    const FIGURES: &str = "crates/bench/src/figures.rs";
    const VEC0: &str = "fn f(chunk: usize) {\n    let _buf = vec![0u8; chunk];\n}\n";
    const TO_VEC: &str = "fn frame(payload: &[u8]) -> Vec<u8> {\n    payload[..8].to_vec()\n}\n";
    const SLEEPS: &str = "fn f() {\n    std::thread::sleep(Duration::from_millis(5));\n}\nfn g() {\n    thread::sleep(TICK);\n}\n";
    const SYNC: &str = "use std::sync::Mutex;\nfn f() { let _ = std::sync::RwLock::new(1); }\n";
    const CONDVAR: &str =
        "use std::sync::{Arc, Condvar};\nstruct Gate {\n    cv: std::sync::Condvar,\n}\n";
    const ATOMICS: &str =
        "use std::sync::atomic::AtomicU64;\nstruct Stats {\n    hits: AtomicU64,\n}\n\
         fn fresh() -> AtomicU64 {\n    AtomicU64::new(0)\n}\n";
    const POLL: &str = "fn serve(l: &TcpListener) {\n    l.set_nonblocking(true).ok();\n    loop {\n        \
             if l.accept().is_err() {\n            thread::sleep(TICK); // lint:allow(bare-sleep)\n        \
             }\n    }\n}\n";

    /// `(path, source, every finding)`.
    type Case = (&'static str, &'static str, &'static [(usize, Rule)]);

    /// What each row flags, and where its scope, test exemption and
    /// markers stop it.
    const CASES: &[Case] = &[
        // The seeded violation: a bare `.unwrap()` with its line.
        (DEMO, "pub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n", &[(2, UnwrapPanic)]),
        (
            DEMO,
            "fn f() {\n    g().expect(\"boom\");\n    panic!(\"no\");\n}\n",
            &[(2, UnwrapPanic), (3, UnwrapPanic)],
        ),
        (
            DEMO,
            "pub fn lib() -> u32 { 1 }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
             super::lib_result().unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n",
            &[],
        ),
        // After the test mod closes, findings count again.
        (
            DEMO,
            "#[cfg(test)]\nmod tests {\n    fn t() { x().unwrap(); }\n}\n\n\
             pub fn late(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
            &[(7, UnwrapPanic)],
        ),
        // A test attribute on a braceless item ends at its `;`; one in a
        // signature's brackets does not.
        (
            DEMO,
            "#[cfg(test)] mod t;\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            &[(2, UnwrapPanic)],
        ),
        (
            DEMO,
            "#[cfg(test)]\nuse std::sync::Arc;\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            &[(3, UnwrapPanic)],
        ),
        (
            DEMO,
            "#[cfg(test)] fn f() -> [u8; 4] { x.unwrap() }\n#[test]\nfn g(a: [u8; 2]) {\n    a.unwrap()\n}\n",
            &[],
        ),
        // A test module kept in a file of its own says so; without the
        // attribute the same file is library code.
        (
            "crates/demo/src/scenario.rs",
            "//! Scenario tests.\n#![cfg(test)]\nconst CTRL: u16 = 5678;\nfn helper() { None::<u8>.unwrap(); }\n",
            &[],
        ),
        (
            "crates/demo/src/scenario.rs",
            "const CTRL: u16 = 5678;\nfn helper() { None::<u8>.unwrap(); }\n",
            &[(1, PortLiteral), (2, UnwrapPanic)],
        ),
        // Comments, doc tests and literals never spell code.
        (
            DEMO,
            "/// Call `.unwrap()` — documented panics are fine:\n/// ```\n/// demo::f().unwrap();\n/// ```\n\
             pub fn f() -> Option<u32> {\n    let msg = \"do not panic!(now)\"; // .unwrap() here neither\n    \
             Some(msg.len() as u32)\n}\n",
            &[],
        ),
        (
            DEMO,
            "let s = r#\"panic!(\"x\")\"#; let t = r##\"todo!() \"# inner\"##; let b = br#\"panic!\"#;\n\
             let e = \"a\\\"b.unwrap()\"; let c = b\"panic!\"; let d = b'x'; writer\"x.unwrap()\";\n\
             let z = \"dangling .unwrap()",
            &[],
        ),
        // Lines stay true after multi-line literals and nested comments.
        (
            DEMO,
            "a /* x /* y */ z\nmore */ b.unwrap();\nlet q = r#\"line1 .unwrap()\nline2\"#;\n\
             let s = \"αβγ\"; // é\nnext('ü').unwrap(); /* still open\nnever .unwrap() closed",
            &[(2, UnwrapPanic), (6, UnwrapPanic)],
        ),
        (
            DEMO,
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap_or(0).max(v.unwrap_or_default())\n}\n",
            &[],
        ),
        (DEMO, "fn f() { dont_panic!(); my_todo!(); }\n", &[]),
        (DEMO, SYNC, &[(1, StdSync), (2, StdSync)]),
        ("crates/wacs-sync/src/mutex.rs", SYNC, &[]),
        // A hand-rolled monitor outside `wacs-sync` would be one the
        // channel model does not cover.
        (DEMO, CONDVAR, &[(1, StdSync), (3, StdSync)]),
        ("crates/wacs-sync/src/channel.rs", CONDVAR, &[]),
        (DEMO, "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n", &[]),
        // A `use` item is judged whole: across its lines, and through
        // braces that split the path; the finding sits on the name.
        (DEMO, "use std::sync::{\n    Arc,\n    Mutex,\n};\n", &[(3, StdSync)]),
        (DEMO, "use std::{sync::RwLock, time::Duration};\n", &[(1, StdSync)]),
        (
            DEMO,
            "use std::{\n    sync::{atomic::AtomicBool, Arc as Shared},\n    time::Duration,\n};\n",
            &[],
        ),
        (
            DEMO,
            "#[cfg(test)]\nmod tests {\n    use std::{\n        sync::{Arc, Condvar},\n    };\n}\n",
            &[(4, StdSync)],
        ),
        (DEMO, ATOMICS, &[(3, BareAtomicCounter), (5, BareAtomicCounter), (6, BareAtomicCounter)]),
        (DEMO, "use std::sync::atomic::{\n    AtomicU64,\n    Ordering,\n};\n", &[]),
        // The registry crate implements its instruments *on* atomics.
        ("crates/wacs-obs/src/registry.rs", ATOMICS, &[]),
        // ID generators and the like stay atomic when marked; tests may
        // fabricate atomics freely.
        (DEMO, "struct G {\n    next_id: AtomicU64, // lint:allow(bare-atomic-counter)\n}\n", &[]),
        (DEMO, "#[cfg(test)]\nmod tests {\n    fn t() { let _ = AtomicU64::new(0); }\n}\n", &[]),
        (DEMO, "fn f() -> u16 { 5678 }\n", &[(1, PortLiteral)]),
        ("crates/firewall/src/lib.rs", "fn f() -> u16 { 5678 }\n", &[]),
        (DEMO, "const X: u32 = 15678;\n", &[]),
        (DEMO, "const X: f64 = 5678.5;\n", &[]),
        (
            DEMO,
            "#[cfg(test)]\nmod tests {\n    fn t() { todo!() }\n}\nfn g() { unimplemented!() }\n",
            &[(3, Todo), (5, Todo)],
        ),
        // A marker excuses the rule it names, on its line or from a
        // comment line directly above or below; never from code above.
        (
            DEMO,
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(unwrap-panic)\n}\n",
            &[],
        ),
        (
            DEMO,
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap() // lint:allow(std-sync)\n}\n",
            &[(2, UnwrapPanic)],
        ),
        (
            DEMO,
            "fn f(v: Option<u32>) -> u32 {\n    // lint:allow(unwrap-panic)\n    v.unwrap()\n}\n",
            &[],
        ),
        (
            DEMO,
            "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n    // lint:allow(unwrap-panic)\n}\n",
            &[],
        ),
        (
            DEMO,
            "fn f(a: Option<u32>, b: Option<u32>) -> u32 {\n    a.unwrap() // lint:allow(unwrap-panic)\n    \
             + b.unwrap()\n}\n",
            &[(3, UnwrapPanic)],
        ),
        // A required wire field defaulted away, even by type.
        (
            DEMO,
            "fn f(r: &Record) -> u64 {\n    r.require_u64(\"count\").unwrap_or(0)\n}\n",
            &[(2, RequireUnwrapOr)],
        ),
        (
            DEMO,
            "fn f(r: &Record) -> u64 {\n    r.require_u64(\"count\").unwrap_or_default()\n}\n",
            &[(2, RequireUnwrapOr)],
        ),
        (
            DEMO,
            "fn f(r: &Record) -> io::Result<u64> {\n    Ok(r.require_u64(\"count\")?)\n}\n",
            &[],
        ),
        (
            DEMO,
            "#[cfg(test)]\nmod tests {\n    fn t(r: &Record) -> u64 { r.require_u64(\"count\").unwrap_or(0) }\n}\n",
            &[],
        ),
        (
            DEMO,
            "fn f(s: &mut TcpStream) -> io::Result<()> {\n    let mut buf = [0u8; 4];\n    \
             s.read_exact(&mut buf)?;\n    Ok(())\n}\nfn g(l: &TcpListener) {\n    let _ = l.accept();\n}\n",
            &[(3, DeadlineIo), (7, DeadlineIo)],
        ),
        (
            DEMO,
            "fn f(s: &mut TcpStream) -> io::Result<()> {\n    s.set_read_timeout(Some(TIMEOUT))?;\n    \
             let mut buf = [0u8; 4];\n    s.read_exact(&mut buf)?;\n    Ok(())\n}\n",
            &[],
        ),
        (
            DEMO,
            "fn f(s: &mut TcpStream) -> io::Result<()> {\n    let mut buf = [0u8; 4];\n    \
             s.read_exact(&mut buf)?; // lint:allow(deadline-io)\n    Ok(())\n}\n",
            &[],
        ),
        (
            DEMO,
            "#[cfg(test)]\nmod tests {\n    fn t(s: &mut TcpStream) { s.read_exact(&mut [0; 4]).unwrap(); }\n}\n",
            &[],
        ),
        (PUMP, VEC0, &[(2, HotPathAlloc)]),
        (POOL, VEC0, &[(2, HotPathAlloc)]),
        (STRIPE, VEC0, &[(2, HotPathAlloc)]),
        (DEMO, VEC0, &[]),
        (PUMP, TO_VEC, &[(2, HotPathAlloc)]),
        (POOL, TO_VEC, &[(2, HotPathAlloc)]),
        (STRIPE, TO_VEC, &[(2, HotPathAlloc)]),
        (DEMO, TO_VEC, &[]),
        (
            STRIPE,
            "fn out(p: &[u8]) -> Vec<u8> {\n    // lint:allow(hot-path-alloc) copied out on request\n    p.to_vec()\n}\n",
            &[],
        ),
        (
            POOL,
            "fn f(n: usize) {\n    let _b = vec![0u8; n]; // lint:allow(hot-path-alloc)\n}\n",
            &[],
        ),
        (PUMP, "#[cfg(test)]\nmod tests {\n    fn t() { let _ = vec![0u8; 16]; }\n}\n", &[]),
        // No crate is exempt from `bare-sleep`, the paper bin's included,
        // and another rule's marker does not excuse a sleep.
        (DEMO, SLEEPS, &[(2, BareSleep), (5, BareSleep)]),
        (FIGURES, SLEEPS, &[(2, BareSleep), (5, BareSleep)]),
        (DEMO, "fn f() {\n    thread::sleep(left.min(CLAMP)); // lint:allow(bare-sleep)\n}\n", &[]),
        (
            DEMO,
            "#[cfg(test)]\nmod tests {\n    fn t() { thread::sleep(Duration::from_millis(1)); }\n}\n",
            &[],
        ),
        (
            DEMO,
            "fn f() {\n    thread::sleep(TICK); // lint:allow(deadline-io)\n}\n",
            &[(2, BareSleep)],
        ),
        // The accept-and-sleep poll loop: nonblocking mode is no deadline
        // story for the `accept`, in any crate.
        (DEMO, POLL, &[(2, AcceptPoll), (4, DeadlineIo)]),
        (FIGURES, POLL, &[(2, AcceptPoll), (4, DeadlineIo)]),
        (DEMO, "fn f(s: &TcpStream) {\n    s.set_nonblocking(false).ok();\n}\n", &[]),
        (
            DEMO,
            "#[cfg(test)]\nmod tests {\n    fn t(l: &TcpListener) { l.set_nonblocking(true).unwrap(); }\n}\n",
            &[],
        ),
        // The sans-IO cores name no I/O, thread, clock or simulator, in
        // test code too, and get no sleep allowance.
        (
            "crates/nexus-proxy/src/core.rs",
            CORE_DIRTY,
            &[(2, CorePurity), (3, CorePurity), (6, CorePurity), (7, CorePurity), (7, CorePurity)],
        ),
        ("crates/nexus-proxy/src/core/outer.rs", "use firewall::vnet::VNet;\n", &[(1, CorePurity)]),
        (
            "crates/nexus-proxy/src/core/outer.rs",
            "use std::{\n    net::TcpStream,\n    time::Duration,\n};\n",
            &[(2, CorePurity)],
        ),
        (
            "crates/nexus-proxy/src/core/inner.rs",
            "use std::time::Duration;\nfn step(now: u64) -> u64 { now }\n",
            &[],
        ),
        (
            "crates/nexus-proxy/src/core/retry.rs",
            "use std::time::{Duration, Instant};\n",
            &[(1, CorePurity)],
        ),
        (
            "crates/knapsack/src/sched.rs",
            "use gridmpi::Comm;\nuse crate::instance::Instance;\n",
            &[(1, CorePurity)],
        ),
        // The same names outside the cores are nobody's business.
        ("crates/nexus-proxy/src/outer.rs", CORE_DIRTY, &[]),
        ("crates/knapsack/src/par.rs", "use gridmpi::Comm;\n", &[]),
        // A client driver grows no ladder; nobody but stripe.rs opens a
        // lane, and the owners may say all of it.
        ("crates/nexus-proxy/src/sim/client.rs", LADDER, &[(2, ClientPlane), (5, ClientPlane)]),
        ("crates/gridmpi/src/comm.rs", LANE, &[(1, ClientPlane)]),
        ("crates/nexus-proxy/src/core/client.rs", LADDER, &[]),
        (STRIPE, LANE, &[]),
        ("crates/wacs-check/src/stripe.rs", LADDER, &[]),
        ("crates/wacs-check/src/shard.rs", LANE, &[(1, ClientPlane)]),
        // A knapsack driver neither branches nor sheds on its own.
        ("crates/knapsack/src/sim.rs", SCHED_DRIVER, &[(2, SchedPlane), (5, SchedPlane)]),
        (
            "crates/knapsack/src/par.rs",
            "use crate::node::branch_batch;\nfn f() { branch_batch(i, s, b, c, false, false, 8); }\n",
            &[(1, SchedPlane), (2, SchedPlane)],
        ),
        ("crates/knapsack/src/par.rs", "fn f() { s.work(inst); }\n", &[]),
        ("crates/knapsack/src/sched.rs", SCHED_DRIVER, &[]),
        ("crates/knapsack/src/seq.rs", SCHED_DRIVER, &[]),
        // Backoff arithmetic reads a policy's pacing fields; setting them
        // is fine, and netsim's retransmit is not a `RetryPolicy`.
        (
            "crates/nexus-proxy/src/sim/client.rs",
            RETRY_CALLER,
            &[(3, RetryPlane), (5, RetryPlane), (7, RetryPlane)],
        ),
        (
            "crates/rmf/src/qsys.rs",
            RETRY_CALLER,
            &[(3, RetryPlane), (5, RetryPlane), (7, RetryPlane)],
        ),
        ("crates/nexus-proxy/src/core/retry.rs", RETRY_CALLER, &[]),
        ("crates/netsim/src/engine.rs", RETRY_CALLER, &[]),
        // A pooled server starts only named threads: line 5's marker
        // gives no reason. The pool itself spawns; so may a file without
        // a pool.
        (
            "crates/nexus-proxy/src/outer.rs",
            SPAWN_FAILING,
            &[(3, DaemonSpawn), (5, DaemonSpawn), (6, DaemonSpawn)],
        ),
        (PUMP, SPAWN_PASSING, &[]),
        (
            "crates/nexus/src/endpoint.rs",
            SPAWN_FAILING,
            &[(3, DaemonSpawn), (5, DaemonSpawn), (6, DaemonSpawn)],
        ),
        ("crates/rmf/src/wire.rs", SPAWN_PASSING, &[]),
        ("crates/nexus-proxy/src/workers.rs", SPAWN_FAILING, &[]),
        ("crates/rmf/src/gatekeeper.rs", SPAWN_FAILING, &[]),
        // The deployment is built in one place; a caller's test or
        // example is judged too, and only this row judges it.
        ("tests/demo.rs", HAND_BUILT, &[(3, OneDeployment)]),
        ("crates/gridmpi/src/lib.rs", HAND_BUILT, &[(3, OneDeployment)]),
        ("crates/nexus-proxy/src/deploy.rs", HAND_BUILT, &[]),
        ("benchmark/src/topo.rs", HAND_BUILT, &[]),
        ("examples/demo.rs", DEPLOYED, &[]),
    ];

    const HAND_BUILT: &str = "#[cfg(test)]\nfn world(net: VNet) -> InnerServer {\n    \
         InnerServer::start(net, InnerConfig::new(\"rwcp-inner\")).unwrap()\n}\n";

    const DEPLOYED: &str =
        "fn main() {\n    let d = Deployment::paper([\"rwcp-sun\"], [\"etl-sun\"]).unwrap();\n    \
         std::thread::sleep(TICK);\n}\n";

    const CORE_DIRTY: &str = "
use std::net::TcpStream;
use std::time::{Duration, Instant};
// Durations are fine; so is the word Instant in a comment.
fn step(now: u64) {
    let _ = netsim::SimTime(now);
    std::thread::sleep(Duration::from_millis(1)); // lint:allow(bare-sleep)
}
";

    const LADDER: &str = "
use crate::shard::ShardRouter;
// CircuitBreaker in a comment is fine.
fn pick(cfg: BreakerConfig) -> Option<usize> {
    CircuitBreaker::new(cfg).allow(0).then_some(0)
}
#[cfg(test)]
mod tests {
    fn t() { let _ = StripeFrame::Open { transfer: 1 }; }
}
";

    const LANE: &str = "fn blast() { send(StripeFrame::Open { transfer: 1 }); }\n";

    const SCHED_DRIVER: &str = "
use crate::node::branch_once;
// back_send_count in a comment is fine.
fn on_work(s: &mut Slave) {
    let take = back_send_count(&stack, n, effective_back_threshold(&p), 4);
}
#[cfg(test)]
mod tests {
    fn t() { branch_once(); }
}
";

    const RETRY_CALLER: &str = "
fn delay(p: &RetryPolicy, n: u32) -> Option<u64> {
    let base = p.base_backoff.as_nanos() as u64;
    // p.max_backoff in a comment is fine; so is setting the fields.
    if n >= p.max_attempts { return None; }
    let _ = RetryPolicy { max_attempts: 1, ..RetryPolicy::DEFAULT };
    Some(base.min(p.max_backoff.as_nanos() as u64))
}
#[cfg(test)]
mod tests {
    fn t(p: RetryPolicy) -> u32 { p.max_attempts }
}
";

    const SPAWN_FAILING: &str = "
fn serve(d: &Daemon) {
    thread::spawn(move || handle(d));
    // lint:allow(daemon-spawn)
    std::thread::spawn(move || reap(d));
    let t = thread::Builder::new().spawn(move || pump(d));
}
#[cfg(test)]
mod tests {
    fn t() { std::thread::spawn(|| ()); }
}
";

    const SPAWN_PASSING: &str = "
fn serve(d: &Daemon) {
    // lint:allow(daemon-spawn) the accept loop, joined on drop
    threads.push(thread::spawn(move || accept(d)));
    let r = thread::spawn(move || reap(d)); // lint:allow(daemon-spawn) the reaper
    d.on_worker(move |d| handle(&d));
}
";

    #[test]
    fn every_row_flags_its_spellings_where_it_judges() {
        for (i, (path, src, want)) in CASES.iter().enumerate() {
            assert_eq!(hits(path, src), *want, "case {i}: {path}\n{src}");
        }
    }

    #[test]
    fn findings_name_the_first_spelling_a_line_matches() {
        let mut out = Vec::new();
        let src = "fn f() -> u16 { 2119 + 911 }\nfn g(p: &P) { p.max_attempts }\n";
        check(&Source::new(DEMO, src.to_string()), &mut out);
        let messages: Vec<&str> = out.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(
            messages,
            [
                "raw well-known port 911; name the constant",
                "reads `max_attempts` of a retry policy: backoff and give-up belong to \
                 core/retry.rs (drive `Retry`)",
            ]
        );
    }

    #[test]
    fn spellings_match_across_spaces_but_edges_only_on_tokens() {
        let line = |code: &str| {
            let src = Source::new(DEMO, code.to_string());
            let l = &src.lines[1];
            (l.code.clone(), l.bounds.clone())
        };
        for (code, spelling, want) in [
            ("x . unwrap ( )", ".unwrap()", true),
            ("return panic!()", " panic!", true),
            ("dont_panic!()", " panic!", false),
            ("[0x5678, 5678u16, 5678.0]", " 5678 ", false),
            ("(5678)", " 5678 ", true),
            (
                "r.require_u64(k).unwrap_or(0)",
                "require_u64(….unwrap_or",
                true,
            ),
            (
                "x.unwrap_or(r.require_u64(k)?)",
                "require_u64(….unwrap_or",
                false,
            ),
            (
                "x.unwrap_or(r.require_u64(k)?)",
                ".unwrap_or…require_u64(",
                true,
            ),
        ] {
            let (code_text, bounds) = line(code);
            assert_eq!(
                occurs(&code_text, &bounds, spelling),
                want,
                "{code} / {spelling}"
            );
        }
    }
}
