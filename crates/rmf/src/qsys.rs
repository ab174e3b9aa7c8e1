//! The Q system: "a remote job execution mechanism using job queues"
//! (§2). A Q *server* runs on every computing resource inside the
//! firewall; a Q *client* is created by the job manager and drives
//! placement, staging and submission (Fig. 2 steps 2-6).

use crate::allocator::{parse_allocation, Allocation, ALLOCATOR_PORT};
use crate::error::{classify_daemon_error, RmfError};
use crate::exec::{run_processes, ExecRegistry};
use crate::gass::GassStore;
use crate::job::{FlowTrace, JobId, JobState};
use crate::rsl::JobRequest;
use crate::wire::{Record, RecordServer};
use firewall::vnet::VNet;
use nexus_proxy::{retry_blocking, RetryPolicy};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::thread;
use std::time::Duration;
use wacs_sync::OrderedMutex;

/// Well-known Q server port (one fixed inbound hole per resource).
pub const QSERVER_PORT: u16 = 2121;

#[derive(Debug, Clone)]
struct SubJob {
    state: JobState,
    exit: i32,
    stdout_url: String,
}

/// A running Q server.
pub struct QServer {
    host: String,
    resource: String,
    jobs: Arc<OrderedMutex<HashMap<(JobId, u32), SubJob>>>,
    server: RecordServer,
}

struct QServerCtx {
    net: VNet,
    host: String,
    resource: String,
    registry: ExecRegistry,
    gass: GassStore,
    jobs: Arc<OrderedMutex<HashMap<(JobId, u32), SubJob>>>,
    allocator_host: String,
    trace: FlowTrace,
}

impl QServer {
    pub fn start(
        net: VNet,
        host: impl Into<String>,
        resource: impl Into<String>,
        registry: ExecRegistry,
        gass: GassStore,
        allocator_host: impl Into<String>,
        trace: FlowTrace,
    ) -> io::Result<QServer> {
        let host = host.into();
        let resource = resource.into();
        let listener = net.bind(&host, QSERVER_PORT)?;
        let jobs = Arc::new(OrderedMutex::new("rmf.qsys.jobs", HashMap::new()));
        let ctx = Arc::new(QServerCtx {
            net,
            host: host.clone(),
            resource: resource.clone(),
            registry,
            gass,
            jobs: jobs.clone(),
            allocator_host: allocator_host.into(),
            trace,
        });
        let server = RecordServer::start(listener, move |req| handle(&ctx, req));
        Ok(QServer {
            host,
            resource,
            jobs,
            server,
        })
    }

    pub fn addr(&self) -> (String, u16) {
        (self.host.clone(), QSERVER_PORT)
    }

    pub fn resource(&self) -> &str {
        &self.resource
    }

    /// Number of sub-jobs this server has accepted (diagnostics).
    pub fn accepted(&self) -> usize {
        self.jobs.lock().len()
    }

    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

fn handle(ctx: &Arc<QServerCtx>, req: &Record) -> Record {
    match req.kind() {
        "submit" => {
            let Ok(job) = req.require_u64("job") else {
                return Record::new("error").with("detail", "missing job id");
            };
            let job = JobId(job);
            // `part` and `count` are required. Defaulting a missing
            // part to 0 silently aliased it onto another sub-job, and
            // defaulting count to 1 fabricated a process count the
            // client never asked for.
            let Ok(part) = req.require_u64("part") else {
                return Record::new("error").with("detail", "missing part");
            };
            let part = part as u32;
            let Ok(executable) = req.require("executable") else {
                return Record::new("error").with("detail", "missing executable");
            };
            let executable = executable.to_string();
            let count = match req.require_u64("count") {
                Ok(c) if c > 0 => c as u32,
                Ok(_) => return Record::new("error").with("detail", "bad proc count 0"),
                Err(e) => return Record::new("error").with("detail", e.to_string()),
            };
            let args: Vec<String> = req.get_all("arg").iter().map(ToString::to_string).collect();
            // Staged files live in this host's GASS store already (the
            // Q client transferred them); the record names them.
            let mut files = HashMap::new();
            for f in req.get_all("file") {
                if let Some((name, path)) = f.split_once('|') {
                    if let Some(data) = ctx.gass.get(&ctx.host, path) {
                        files.insert(name.to_string(), data);
                    } else {
                        return Record::new("error")
                            .with("detail", format!("staged file missing: {path}"));
                    }
                }
            }
            let Some(exec) = ctx.registry.lookup(&executable) else {
                return Record::new("error")
                    .with("detail", format!("unknown executable {executable}"));
            };
            let stdout_url = format!("gass://{}/stdout/{}-{}", ctx.host, job, part);
            ctx.jobs.lock().insert(
                (job, part),
                SubJob {
                    state: JobState::Active,
                    exit: -1,
                    stdout_url: stdout_url.clone(),
                },
            );
            ctx.trace.record(
                6,
                format!(
                    "Q server on {} creates {count} job process(es) for {job}",
                    ctx.resource
                ),
            );
            let ctx2 = ctx.clone();
            thread::spawn(move || {
                let code = run_processes(
                    exec,
                    &ctx2.host,
                    count,
                    &args,
                    files,
                    &ctx2.gass,
                    &format!("stdout/{job}-{part}"),
                );
                let mut jobs = ctx2.jobs.lock();
                if let Some(sj) = jobs.get_mut(&(job, part)) {
                    sj.exit = code;
                    sj.state = if code == 0 {
                        JobState::Done
                    } else {
                        JobState::Failed
                    };
                }
                drop(jobs);
                // Release the booked load at the allocator.
                if let Ok(mut s) = ctx2
                    .net
                    .dial(&ctx2.host, &ctx2.allocator_host, ALLOCATOR_PORT)
                {
                    let _ = Record::new("report")
                        .with("resource", &ctx2.resource)
                        .with("delta", format!("-{count}"))
                        .write_to(&mut s);
                    let _ = Record::read_from(&mut s);
                }
            });
            Record::new("ack")
                .with("job", job.0.to_string())
                .with("stdout", stdout_url)
        }
        "status" => {
            // Both keys are required: the old defaults (job u64::MAX,
            // part 0) turned a malformed poll into a confident
            // "unknown job" — or worse, a hit on someone else's part 0.
            let (Ok(job), Ok(part)) = (req.require_u64("job"), req.require_u64("part")) else {
                return Record::new("error").with("detail", "missing job or part");
            };
            let job = JobId(job);
            let part = part as u32;
            match ctx.jobs.lock().get(&(job, part)) {
                Some(sj) => Record::new("status")
                    .with("state", sj.state.as_str())
                    .with("exit", sj.exit.to_string())
                    .with("stdout", &sj.stdout_url),
                None => Record::new("error").with("detail", "unknown job"),
            }
        }
        other => Record::new("error").with("detail", format!("unknown request {other}")),
    }
}

/// The allocator query's retry policy: transport failures are retried
/// every 10 ms for 2 s, and no reply is awaited past those 2 s.
const ALLOCATE_RETRY: RetryPolicy =
    RetryPolicy::within(Duration::from_secs(2), Duration::from_millis(10));

/// Registry handles for the Q client's RPC service times. These time
/// the *real* wall-clock path (threads + virtual sockets), so they are
/// diagnostics — only the sim-side metrics are replay-deterministic.
struct QClientObs {
    /// One `allocate` call, including retries/backoff.
    allocate_ns: wacs_obs::Histogram,
    /// One `submit` call (staging + every part's submit round trip).
    submit_ns: wacs_obs::Histogram,
    /// One `status` poll across all parts.
    status_ns: wacs_obs::Histogram,
    rpc_retries: wacs_obs::Counter,
}

/// The Q client: placement + staging + submission + status tracking.
/// Created by a job manager; also usable standalone.
pub struct QClient {
    net: VNet,
    /// Logical host the client runs on (outside the firewall).
    pub host: String,
    allocator_host: String,
    gass: GassStore,
    trace: FlowTrace,
    rpc_retry: RetryPolicy,
    obs: Option<QClientObs>,
}

/// A placed job the client is tracking.
#[derive(Debug, Clone)]
pub struct PlacedJob {
    pub job: JobId,
    pub parts: Vec<(Allocation, u32 /*part*/)>,
    pub stdout_urls: Vec<String>,
}

impl QClient {
    pub fn new(
        net: VNet,
        host: impl Into<String>,
        allocator_host: impl Into<String>,
        gass: GassStore,
        trace: FlowTrace,
    ) -> QClient {
        QClient {
            net,
            host: host.into(),
            allocator_host: allocator_host.into(),
            gass,
            trace,
            rpc_retry: ALLOCATE_RETRY,
            obs: None,
        }
    }

    /// Override the allocator query's retry policy.
    #[must_use]
    // lint:allow(unused-pub) test knob: the silent-allocator cells of tests/rmf_flow.rs shorten it
    pub fn with_rpc_retry(mut self, rpc_retry: RetryPolicy) -> QClient {
        self.rpc_retry = rpc_retry;
        self
    }

    /// Record RPC service-time histograms under `rmf.qclient.*` in
    /// `registry`.
    #[must_use]
    pub fn with_obs(mut self, registry: &wacs_obs::Registry) -> QClient {
        self.obs = Some(QClientObs {
            allocate_ns: registry.histogram("rmf.qclient.allocate_ns"),
            submit_ns: registry.histogram("rmf.qclient.submit_ns"),
            status_ns: registry.histogram("rmf.qclient.status_ns"),
            rpc_retries: registry.counter("rmf.qclient.rpc_retries"),
        });
        self
    }

    /// Ask the allocator where to run (Fig. 2 steps 3-4).
    ///
    /// Transport failures (refused dial while the daemon restarts,
    /// reset mid-exchange, EOF or silence before a reply) are retried
    /// under the query's [`RetryPolicy`], then reported as
    /// [`RmfError::Timeout`]. Daemon refusals come back typed:
    /// [`RmfError::Busy`] is worth re-asking later,
    /// [`RmfError::Capacity`] never is.
    pub fn allocate(&self, req: &JobRequest) -> Result<Vec<Allocation>, RmfError> {
        let start = std::time::Instant::now();
        // Malformed data and daemon refusals are not transport flakes;
        // retrying cannot change the answer.
        let flake = |e: &io::Error| e.kind() != io::ErrorKind::InvalidData;
        let mut attempts = 0;
        let res = retry_blocking(
            self.rpc_retry,
            |reply_deadline| {
                attempts += 1;
                self.try_allocate(req, reply_deadline)
            },
            |e| matches!(e, RmfError::Io(e) if flake(e)),
        )
        .map_err(|e| match e {
            RmfError::Io(last) if flake(&last) => RmfError::Timeout {
                what: "allocator query",
                elapsed: start.elapsed(),
                last,
            },
            e => e,
        });
        if let Some(o) = &self.obs {
            o.rpc_retries.add(attempts - 1);
            o.allocate_ns.record(start.elapsed().as_nanos() as u64);
        }
        res
    }

    /// One allocator round trip, waiting at most `reply_deadline` for
    /// the answer.
    fn try_allocate(
        &self,
        req: &JobRequest,
        reply_deadline: Duration,
    ) -> Result<Vec<Allocation>, RmfError> {
        let mut s = self
            .net
            .dial(&self.host, &self.allocator_host, ALLOCATOR_PORT)?;
        s.set_read_timeout(Some(reply_deadline))?;
        let mut q = Record::new("query").with("count", req.count.to_string());
        for r in &req.resources {
            q.push("resource", r);
        }
        q.write_to(&mut s)?;
        let rep = Record::read_from(&mut s)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "allocator hung up"))?;
        if rep.kind() == "error" {
            return Err(classify_daemon_error(
                rep.get("detail").unwrap_or("allocator error"),
            ));
        }
        parse_allocation(&rep).map_err(RmfError::Io)
    }

    /// Stage inputs and submit every part (Fig. 2 steps 5-6). Returns
    /// the placed job handle.
    pub fn submit(
        &self,
        job: JobId,
        req: &JobRequest,
        allocs: Vec<Allocation>,
    ) -> io::Result<PlacedJob> {
        let start = std::time::Instant::now();
        let mut placed = PlacedJob {
            job,
            parts: Vec::new(),
            stdout_urls: Vec::new(),
        };
        for (part, alloc) in allocs.into_iter().enumerate() {
            let part = part as u32;
            // Stage inputs to the target host's store.
            let mut file_fields = Vec::new();
            for (name, url) in &req.stage_in {
                let to_path = format!("staged/{}/{}", job, name);
                self.gass.transfer(url, &alloc.qserver_host, &to_path)?;
                file_fields.push(format!("{name}|{to_path}"));
            }
            let mut s = self
                .net
                .dial(&self.host, &alloc.qserver_host, QSERVER_PORT)?;
            self.trace.record(
                5,
                format!(
                    "Q client submits {job} part {part} ({} procs) to {}",
                    alloc.count, alloc.resource
                ),
            );
            let mut rec = Record::new("submit")
                .with("job", job.0.to_string())
                .with("part", part.to_string())
                .with("executable", &req.executable)
                .with("count", alloc.count.to_string());
            for a in &req.arguments {
                rec.push("arg", a);
            }
            for f in &file_fields {
                rec.push("file", f.clone());
            }
            rec.write_to(&mut s)?;
            let rep = Record::read_from(&mut s)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "q server hung up"))?;
            if rep.kind() != "ack" {
                return Err(io::Error::other(
                    rep.get("detail").unwrap_or("submit failed").to_string(),
                ));
            }
            placed
                .stdout_urls
                .push(rep.get("stdout").unwrap_or_default().to_string());
            placed.parts.push((alloc, part));
        }
        if let Some(o) = &self.obs {
            o.submit_ns.record(start.elapsed().as_nanos() as u64);
        }
        Ok(placed)
    }

    /// Poll every part once; aggregate the job state.
    pub fn status(&self, placed: &PlacedJob) -> io::Result<(JobState, i32)> {
        let start = std::time::Instant::now();
        let res = self.status_inner(placed);
        if let Some(o) = &self.obs {
            o.status_ns.record(start.elapsed().as_nanos() as u64);
        }
        res
    }

    fn status_inner(&self, placed: &PlacedJob) -> io::Result<(JobState, i32)> {
        let mut all_done = true;
        let mut worst = 0i32;
        for (alloc, part) in &placed.parts {
            let mut s = self
                .net
                .dial(&self.host, &alloc.qserver_host, QSERVER_PORT)?;
            Record::new("status")
                .with("job", placed.job.0.to_string())
                .with("part", part.to_string())
                .write_to(&mut s)?;
            let rep = Record::read_from(&mut s)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "q server hung up"))?;
            if rep.kind() != "status" {
                return Err(io::Error::other("status failed"));
            }
            let st = JobState::parse(rep.get("state").unwrap_or(""))
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad state"))?;
            let exit: i32 = rep.get("exit").and_then(|e| e.parse().ok()).unwrap_or(-1);
            match st {
                JobState::Done => worst = worst.max(exit.abs()),
                JobState::Failed => return Ok((JobState::Failed, exit)),
                _ => all_done = false,
            }
        }
        if all_done {
            Ok((
                if worst == 0 {
                    JobState::Done
                } else {
                    JobState::Failed
                },
                worst,
            ))
        } else {
            Ok((JobState::Active, 0))
        }
    }

    /// Block (polling every 5 ms) until the job reaches a terminal state.
    pub fn wait(&self, placed: &PlacedJob, timeout: Duration) -> io::Result<(JobState, i32)> {
        let poll = RetryPolicy::within(timeout, Duration::from_millis(5));
        // `Err(None)`: not finished yet.
        let done = |_| match self.status(placed) {
            Ok((st, code)) if st.is_terminal() => Ok((st, code)),
            Ok(_) => Err(None),
            Err(e) => Err(Some(e)),
        };
        retry_blocking(poll, done, Option::is_none).map_err(|e| {
            e.unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "job wait timed out"))
        })
    }
}
