//! The gatekeeper and job manager: the GRAM-compatible front door of
//! RMF, running **outside** the firewall (Fig. 2 steps 0-2).
//!
//! A job request arrives at the gatekeeper (step 1), which
//! authenticates the subject (GSI is stubbed to a subject allowlist —
//! the paper does not evaluate authentication) and forks a job manager
//! (step 2), which creates a Q client to place and drive the job.

use crate::error::RmfError;
use crate::gass::GassStore;
use crate::job::{FlowTrace, JobId, JobState};
use crate::qsys::QClient;
use crate::rsl::{self, JobRequest};
use crate::wire::{Record, RecordServer};
use firewall::vnet::VNet;
use firewall::GATEKEEPER_PORT;
use nexus_proxy::{retry_blocking, RetryPolicy};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use wacs_sync::Mutex;

/// Tracked status of one job.
#[derive(Debug, Clone)]
struct JobInfo {
    state: JobState,
    detail: String,
    exit: i32,
    stdout_urls: Vec<String>,
}

/// A running gatekeeper.
pub struct Gatekeeper {
    host: String,
    server: RecordServer,
}

struct GkCtx {
    net: VNet,
    host: String,
    allowed: Vec<String>,
    allocator_host: String,
    gass: GassStore,
    trace: FlowTrace,
    jobs: Mutex<HashMap<JobId, JobInfo>>,
    // Job-ID generator, not a metric. lint:allow(bare-atomic-counter)
    next_job: AtomicU64,
}

impl Gatekeeper {
    /// Start a gatekeeper on `host` (must be outside the firewall so
    /// remote users can reach it). `allowed` is the subject allowlist.
    pub fn start(
        net: VNet,
        host: impl Into<String>,
        allowed: Vec<String>,
        allocator_host: impl Into<String>,
        gass: GassStore,
        trace: FlowTrace,
    ) -> io::Result<Gatekeeper> {
        let host = host.into();
        let listener = net.bind(&host, GATEKEEPER_PORT)?;
        let ctx = Arc::new(GkCtx {
            net,
            host: host.clone(),
            allowed,
            allocator_host: allocator_host.into(),
            gass,
            trace,
            jobs: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1), // lint:allow(bare-atomic-counter)
        });
        let server = RecordServer::start(listener, move |req| handle(&ctx, req));
        Ok(Gatekeeper { host, server })
    }

    pub fn addr(&self) -> (String, u16) {
        (self.host.clone(), GATEKEEPER_PORT)
    }

    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

fn handle(ctx: &Arc<GkCtx>, req: &Record) -> Record {
    match req.kind() {
        "submit" => {
            let subject = req.get("subject").unwrap_or("");
            if !ctx.allowed.iter().any(|s| s == subject) {
                return Record::new("denied")
                    .with("detail", format!("subject not authorized: {subject}"));
            }
            let rsl_text = req.get("rsl").unwrap_or("");
            let parsed = match rsl::parse(rsl_text) {
                Ok(p) => p,
                Err(e) => return Record::new("denied").with("detail", e.to_string()),
            };
            let job = JobId(ctx.next_job.fetch_add(1, Ordering::Relaxed));
            ctx.trace
                .record(1, format!("job request submitted to gatekeeper ({job})"));
            ctx.jobs.lock().insert(
                job,
                JobInfo {
                    state: JobState::Pending,
                    detail: String::new(),
                    exit: -1,
                    stdout_urls: Vec::new(),
                },
            );
            let ctx2 = ctx.clone();
            thread::spawn(move || job_manager(ctx2, job, parsed));
            Record::new("accepted").with("job", job.0.to_string())
        }
        "status" => {
            // A malformed job id is a protocol error, not an unknown
            // job — don't fabricate a sentinel id for the lookup.
            let job = match req.require_u64("job") {
                Ok(j) => JobId(j),
                Err(e) => return Record::new("error").with("detail", e.to_string()),
            };
            match ctx.jobs.lock().get(&job) {
                Some(info) => {
                    let mut r = Record::new("status")
                        .with("state", info.state.as_str())
                        .with("exit", info.exit.to_string())
                        .with("detail", &info.detail);
                    for u in &info.stdout_urls {
                        r.push("stdout", u);
                    }
                    r
                }
                None => Record::new("error").with("detail", "unknown job"),
            }
        }
        other => Record::new("error").with("detail", format!("unknown request {other}")),
    }
}

/// How long a job waits for busy resources: placement is re-asked every
/// 10 ms for 120 s.
const BUSY_WAIT: RetryPolicy =
    RetryPolicy::within(Duration::from_secs(120), Duration::from_millis(10));

/// The job manager thread: "The job manager invoked by the gatekeeper
/// creates a Q client process" and drives it to completion.
fn job_manager(ctx: Arc<GkCtx>, job: JobId, req: JobRequest) {
    ctx.trace
        .record(2, format!("job manager creates Q client for {job}"));
    let qc = QClient::new(
        ctx.net.clone(),
        ctx.host.clone(),
        ctx.allocator_host.clone(),
        ctx.gass.clone(),
        ctx.trace.clone(),
    );
    let fail = |detail: String| {
        let mut jobs = ctx.jobs.lock();
        if let Some(info) = jobs.get_mut(&job) {
            info.state = JobState::Failed;
            info.detail = detail;
        }
    };
    // The Q system is a *queuing* system: a job whose resources are
    // busy waits (state Pending) and retries placement until capacity
    // frees up. Requests that can never fit (beyond total capacity)
    // fail immediately rather than queue forever; transport-level
    // retry lives inside `QClient::allocate` itself.
    let busy = |e: &RmfError| matches!(e, RmfError::Busy(_));
    let allocs = match retry_blocking(BUSY_WAIT, |_| qc.allocate(&req), busy) {
        Ok(a) => a,
        Err(e) if busy(&e) => return fail(format!("allocation timed out: {e}")),
        Err(e) => return fail(format!("allocation failed: {e}")),
    };
    let placed = match qc.submit(job, &req, allocs) {
        Ok(p) => p,
        Err(e) => return fail(format!("submit failed: {e}")),
    };
    {
        let mut jobs = ctx.jobs.lock();
        if let Some(info) = jobs.get_mut(&job) {
            info.state = JobState::Active;
            info.stdout_urls = placed.stdout_urls.clone();
        }
    }
    match qc.wait(&placed, Duration::from_secs(300)) {
        Ok((state, exit)) => {
            let mut jobs = ctx.jobs.lock();
            if let Some(info) = jobs.get_mut(&job) {
                info.state = state;
                info.exit = exit;
            }
        }
        Err(e) => fail(format!("wait failed: {e}")),
    }
}

/// Client-side helper: submit an RSL job to a gatekeeper.
pub fn submit_job(
    net: &VNet,
    from_host: &str,
    gk: (&str, u16),
    subject: &str,
    rsl: &str,
) -> io::Result<JobId> {
    let mut s = net.dial(from_host, gk.0, gk.1)?;
    Record::new("submit")
        .with("subject", subject)
        .with("rsl", rsl)
        .write_to(&mut s)?;
    let rep = Record::read_from(&mut s)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "gatekeeper hung up"))?;
    match rep.kind() {
        "accepted" => Ok(JobId(rep.require_u64("job")?)),
        _ => Err(io::Error::new(
            io::ErrorKind::PermissionDenied,
            rep.get("detail").unwrap_or("submit denied").to_string(),
        )),
    }
}

/// Client-side helper: poll a job's status at the gatekeeper.
pub fn job_status(
    net: &VNet,
    from_host: &str,
    gk: (&str, u16),
    job: JobId,
) -> io::Result<(JobState, i32, Vec<String>)> {
    let mut s = net.dial(from_host, gk.0, gk.1)?;
    Record::new("status")
        .with("job", job.0.to_string())
        .write_to(&mut s)?;
    let rep = Record::read_from(&mut s)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "gatekeeper hung up"))?;
    if rep.kind() != "status" {
        return Err(io::Error::other(
            rep.get("detail").unwrap_or("status failed").to_string(),
        ));
    }
    let state = JobState::parse(rep.get("state").unwrap_or(""))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad state"))?;
    let exit: i32 = rep.get("exit").and_then(|e| e.parse().ok()).unwrap_or(-1);
    let stdout = rep
        .get_all("stdout")
        .iter()
        .map(ToString::to_string)
        .collect();
    Ok((state, exit, stdout))
}

/// Client-side helper: wait (polling every 5 ms) for a terminal state.
pub fn wait_job(
    net: &VNet,
    from_host: &str,
    gk: (&str, u16),
    job: JobId,
    timeout: Duration,
) -> io::Result<(JobState, i32, Vec<String>)> {
    let poll = RetryPolicy::within(timeout, Duration::from_millis(5));
    // `Err(None)`: not finished yet.
    let done = |_| match job_status(net, from_host, gk, job) {
        Ok(st) if st.0.is_terminal() => Ok(st),
        Ok(_) => Err(None),
        Err(e) => Err(Some(e)),
    };
    retry_blocking(poll, done, Option::is_none).map_err(|e| {
        e.unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "job never finished"))
    })
}
