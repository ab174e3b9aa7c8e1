//! What the benchmark reads from the machine: process CPU time, thread
//! and descriptor counts (`/proc/self`), and the provenance block.

use std::fs;
use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library std already links; this package has no `libc`.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPUTIME: i32 = 2;

/// Process CPU time (user + system, every thread, exited ones too) in
/// microseconds, from the scheduler's nanosecond run-time accounting.
///
/// Not `utime + stime` of `/proc/self/stat`: those are counted in 10 ms
/// ticks by sampling whichever thread runs when the tick fires, and the
/// daemons' threads here run for microseconds between 1 ms sleeps, so
/// the sampled count of one second of `churn` repeated only to within a
/// quarter. The sum is the same quantity.
pub fn cpu_us() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux), and the call writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

pub fn threads() -> usize {
    fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

pub fn fds() -> usize {
    fs::read_dir("/proc/self/fd").map_or(0, |d| d.count())
}

/// Confine this thread, and so every thread the process starts from
/// here on, to the first CPU it is allowed to run on. Returns what was
/// done, for the provenance block.
///
/// On the 2-vCPU machine this was written on, where the scheduler puts
/// the seven threads of a two-hop echo decides its round trip: 17 us
/// when they share a CPU, up to 175 us when every hand-off crosses to
/// an idle one, and the placement changes from one connection to the
/// next. No statistic over a 20 s run averages that out. On one CPU the
/// hand-offs cost what the program makes them cost, and a relay that
/// burns CPU while idle takes it straight from its own clients.
pub fn pin_to_one_cpu() -> String {
    let allowed = fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("Cpus_allowed_list:")
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_default();
    let first: String = allowed.chars().take_while(char::is_ascii_digit).collect();
    let pid = std::process::id().to_string();
    let pinned = !first.is_empty()
        && Command::new("taskset")
            .args(["-cp", &first, &pid])
            .output()
            .is_ok_and(|o| o.status.success());
    if pinned {
        format!("cpu {first} of {allowed} (taskset)")
    } else {
        format!("not pinned, taskset failed; allowed {allowed}")
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was produced.
pub struct Provenance {
    pub available_parallelism: usize,
    pub kernel: String,
    pub rustc: String,
    pub profile: &'static str,
    pub git_revision: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        Provenance {
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            rustc: first_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            // A driver checkout is not a git repository: "unknown" there.
            git_revision: first_line("git", &["rev-parse", "HEAD"]),
        }
    }
}
