//! The resource allocator: "manages computing resources and runs as a
//! daemon process inside the firewall". Q clients ask it which
//! resources should execute a job (Fig. 2 steps 3-4); Q servers report
//! load changes back.

use crate::error::RmfError;
use crate::job::FlowTrace;
use crate::wire::{Record, RecordServer};
use firewall::vnet::VNet;
use std::io;
use std::sync::Arc;
use wacs_sync::OrderedMutex;

/// Well-known allocator port (a fixed inbound hole in the firewall,
/// like the paper's Q-system channels).
pub const ALLOCATOR_PORT: u16 = 2120;

/// A managed resource (a cluster or supercomputer front-end).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceInfo {
    /// Public name, e.g. "COMPaS".
    pub name: String,
    /// Logical host running its Q server.
    pub qserver_host: String,
    /// Processors available.
    pub cpus: u32,
}

/// Selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectPolicy {
    /// Fill resources in least-loaded-fraction order (default).
    LeastLoaded,
    /// Fill in registration order.
    FirstFit,
}

#[derive(Debug)]
struct Entry {
    info: ResourceInfo,
    load: u32,
}

/// One allocation slice: `count` processes on a resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    pub resource: String,
    pub qserver_host: String,
    pub count: u32,
}

/// Shared allocator state (also usable directly, without the socket
/// front-end, for unit tests).
#[derive(Clone)]
pub struct AllocatorState {
    entries: Arc<OrderedMutex<Vec<Entry>>>,
    policy: SelectPolicy,
}

impl AllocatorState {
    pub fn new(policy: SelectPolicy) -> Self {
        AllocatorState {
            entries: Arc::new(OrderedMutex::new("rmf.allocator.entries", Vec::new())),
            policy,
        }
    }

    pub fn register(&self, info: ResourceInfo) {
        self.entries.lock().push(Entry { info, load: 0 });
    }

    /// Current load of a resource (diagnostics).
    // lint:allow(unused-pub) test knob: tests/rmf_flow.rs waits on it for the load release
    pub fn load_of(&self, name: &str) -> Option<u32> {
        self.entries
            .lock()
            .iter()
            .find(|e| e.info.name == name)
            .map(|e| e.load)
    }

    /// Apply a load delta reported by a Q server.
    ///
    /// A delta that would drive the ledger below zero (or above
    /// `u32::MAX`) is an accounting bug — a double release or a missed
    /// booking. It used to be clamped silently, which *hid* the bug
    /// while leaving the load wrong; now the ledger is left untouched
    /// and the corruption is reported as [`RmfError::Accounting`].
    pub fn report(&self, name: &str, delta: i64) -> Result<(), RmfError> {
        let mut entries = self.entries.lock();
        let Some(e) = entries.iter_mut().find(|e| e.info.name == name) else {
            return Err(RmfError::Daemon(format!("unknown resource {name}")));
        };
        let new = i64::from(e.load) + delta;
        match u32::try_from(new) {
            Ok(load) => {
                e.load = load;
                Ok(())
            }
            Err(_) => Err(RmfError::Accounting {
                resource: name.to_string(),
                load: e.load,
                delta,
            }),
        }
    }

    /// Total processors under management.
    pub fn total_cpus(&self) -> u32 {
        self.entries.lock().iter().map(|e| e.info.cpus).sum()
    }

    /// Select resources for `count` processes. `explicit` restricts
    /// (and orders) the candidates. Distinguishes two failures so the
    /// job manager can queue: *transient* exhaustion (resources busy —
    /// retry later) and *permanent* impossibility (the request exceeds
    /// total capacity). Oversubscription is allowed only on explicit
    /// request.
    pub fn select(&self, count: u32, explicit: &[String]) -> io::Result<Vec<Allocation>> {
        if explicit.is_empty() && count > self.total_cpus() {
            return Err(io::Error::other(format!(
                "insufficient capacity permanently: {count} procs requested, {} managed",
                self.total_cpus()
            )));
        }
        let mut entries = self.entries.lock();
        let order: Vec<usize> = if explicit.is_empty() {
            let mut idx: Vec<usize> = (0..entries.len()).collect();
            if self.policy == SelectPolicy::LeastLoaded {
                idx.sort_by(|&a, &b| {
                    let fa = f64::from(entries[a].load) / f64::from(entries[a].info.cpus.max(1));
                    let fb = f64::from(entries[b].load) / f64::from(entries[b].info.cpus.max(1));
                    fa.total_cmp(&fb)
                });
            }
            idx
        } else {
            let mut idx = Vec::new();
            for name in explicit {
                let pos = entries
                    .iter()
                    .position(|e| &e.info.name == name)
                    .ok_or_else(|| {
                        io::Error::new(io::ErrorKind::NotFound, format!("unknown resource {name}"))
                    })?;
                idx.push(pos);
            }
            idx
        };

        let mut remaining = count;
        let mut out = Vec::new();
        for (k, &i) in order.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let e = &entries[i];
            let free = e.info.cpus.saturating_sub(e.load);
            let is_last = k + 1 == order.len();
            // The last explicit resource absorbs any overflow
            // (explicit placement means the user knows best).
            let take = if is_last && !explicit.is_empty() {
                remaining
            } else {
                free.min(remaining)
            };
            if take > 0 {
                out.push(Allocation {
                    resource: e.info.name.clone(),
                    qserver_host: e.info.qserver_host.clone(),
                    count: take,
                });
                remaining -= take;
            }
        }
        if remaining > 0 {
            return Err(io::Error::other(format!(
                "insufficient capacity: {remaining} of {count} unplaced (resources busy)"
            )));
        }
        // Book the load now; Q servers report decrements on completion.
        for a in &out {
            if let Some(e) = entries.iter_mut().find(|e| e.info.name == a.resource) {
                e.load += a.count;
            }
        }
        Ok(out)
    }
}

/// The allocator daemon: socket front-end over [`AllocatorState`].
pub struct ResourceAllocator {
    pub state: AllocatorState,
    server: RecordServer,
    host: String,
}

impl ResourceAllocator {
    pub fn start(
        net: VNet,
        host: impl Into<String>,
        policy: SelectPolicy,
        trace: FlowTrace,
    ) -> io::Result<ResourceAllocator> {
        let host = host.into();
        let state = AllocatorState::new(policy);
        let listener = net.bind(&host, ALLOCATOR_PORT)?;
        let t_state = state.clone();
        let server = RecordServer::start(listener, move |req| handle(&t_state, &trace, req));
        Ok(ResourceAllocator {
            state,
            server,
            host,
        })
    }

    pub fn addr(&self) -> (String, u16) {
        (self.host.clone(), ALLOCATOR_PORT)
    }

    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

fn handle(state: &AllocatorState, trace: &FlowTrace, req: &Record) -> Record {
    match req.kind() {
        "query" => {
            // `count` is required: a query without it used to default
            // to 0, which "succeeded" with an empty allocation and
            // produced a zero-CPU job downstream.
            let count = match req.require_u64("count") {
                Ok(c) if c > 0 && c <= u64::from(u32::MAX) => c as u32,
                Ok(c) => return Record::new("error").with("detail", format!("bad proc count {c}")),
                Err(e) => return Record::new("error").with("detail", e.to_string()),
            };
            let explicit: Vec<String> = req
                .get_all("resource")
                .iter()
                .map(ToString::to_string)
                .collect();
            trace.record(3, format!("Q client inquires allocator for {count} procs"));
            match state.select(count, &explicit) {
                Ok(allocs) => {
                    trace.record(
                        4,
                        format!(
                            "allocator selects: {}",
                            allocs
                                .iter()
                                .map(|a| format!("{}x{}", a.resource, a.count))
                                .collect::<Vec<_>>()
                                .join(" ")
                        ),
                    );
                    let mut rep = Record::new("allocation");
                    for a in &allocs {
                        rep.push(
                            "alloc",
                            format!("{}|{}|{}", a.resource, a.qserver_host, a.count),
                        );
                    }
                    rep
                }
                Err(e) => Record::new("error").with("detail", e.to_string()),
            }
        }
        "report" => {
            // Both fields are required; a report that cannot be parsed
            // used to become a silent no-op (delta 0 on resource "").
            let name = match req.require("resource") {
                Ok(n) => n.to_string(),
                Err(e) => return Record::new("error").with("detail", e.to_string()),
            };
            let delta: i64 = match req.require("delta").map(str::parse) {
                Ok(Ok(d)) => d,
                Ok(Err(_)) | Err(_) => {
                    return Record::new("error").with("detail", "missing or bad delta")
                }
            };
            match state.report(&name, delta) {
                Ok(()) => Record::new("ok"),
                Err(e) => Record::new("error").with("detail", e.to_string()),
            }
        }
        other => Record::new("error").with("detail", format!("unknown request {other}")),
    }
}

/// Parse the allocator's reply into allocations.
pub fn parse_allocation(rec: &Record) -> io::Result<Vec<Allocation>> {
    if rec.kind() == "error" {
        return Err(io::Error::other(
            rec.get("detail").unwrap_or("allocator error").to_string(),
        ));
    }
    let mut out = Vec::new();
    for a in rec.get_all("alloc") {
        let mut parts = a.split('|');
        let (Some(r), Some(h), Some(c)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad alloc entry",
            ));
        };
        out.push(Allocation {
            resource: r.to_string(),
            qserver_host: h.to_string(),
            count: c
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad alloc count"))?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(resources: &[(&str, u32)]) -> AllocatorState {
        let s = AllocatorState::new(SelectPolicy::LeastLoaded);
        for (name, cpus) in resources {
            s.register(ResourceInfo {
                name: name.to_string(),
                qserver_host: format!("{name}-fe"),
                cpus: *cpus,
            });
        }
        s
    }

    #[test]
    fn least_loaded_spreads() {
        let s = state_with(&[("A", 8), ("B", 8)]);
        let a1 = s.select(8, &[]).unwrap();
        assert_eq!(a1.len(), 1);
        assert_eq!(a1[0].count, 8);
        // A is now fully loaded; next allocation must land on B.
        let a2 = s.select(4, &[]).unwrap();
        assert_ne!(a2[0].resource, a1[0].resource);
    }

    #[test]
    fn allocation_spans_resources_when_needed() {
        let s = state_with(&[("A", 4), ("B", 8), ("C", 8)]);
        let allocs = s.select(20, &[]).unwrap();
        let total: u32 = allocs.iter().map(|a| a.count).sum();
        assert_eq!(total, 20);
        assert_eq!(allocs.len(), 3);
    }

    #[test]
    fn insufficient_capacity_fails() {
        let s = state_with(&[("A", 4)]);
        assert!(s.select(5, &[]).is_err());
        // And nothing was booked by the failed attempt.
        assert_eq!(s.load_of("A"), Some(0));
    }

    #[test]
    fn explicit_resources_respected_and_can_oversubscribe() {
        let s = state_with(&[("A", 4), ("B", 4)]);
        let allocs = s.select(6, &["B".to_string()]).unwrap();
        assert_eq!(allocs.len(), 1);
        assert_eq!(allocs[0].resource, "B");
        assert_eq!(allocs[0].count, 6); // user said B; B absorbs all
        assert!(s.select(1, &["nope".to_string()]).is_err());
    }

    #[test]
    fn explicit_multi_resource_split() {
        // The paper's wide-area run: 4 on RWCP-Sun, 8 on COMPaS, 8 on
        // ETL-O2K.
        let s = state_with(&[("RWCP-Sun", 4), ("COMPaS", 8), ("ETL-O2K", 16)]);
        let allocs = s
            .select(
                20,
                &[
                    "RWCP-Sun".to_string(),
                    "COMPaS".to_string(),
                    "ETL-O2K".to_string(),
                ],
            )
            .unwrap();
        let counts: Vec<u32> = allocs.iter().map(|a| a.count).collect();
        assert_eq!(counts, vec![4, 8, 8]);
    }

    #[test]
    fn report_adjusts_load() {
        let s = state_with(&[("A", 8)]);
        s.select(6, &[]).unwrap();
        assert_eq!(s.load_of("A"), Some(6));
        s.report("A", -6).unwrap();
        assert_eq!(s.load_of("A"), Some(0));
    }

    #[test]
    fn report_underflow_is_an_accounting_error_not_a_clamp() {
        let s = state_with(&[("A", 8)]);
        s.select(3, &[]).unwrap();
        // A double release: -5 against a load of 3. The old code
        // clamped to zero, hiding the bug; now the ledger is left
        // untouched and the corruption is typed.
        let err = s.report("A", -5).unwrap_err();
        match err {
            RmfError::Accounting {
                resource,
                load,
                delta,
            } => {
                assert_eq!(resource, "A");
                assert_eq!(load, 3);
                assert_eq!(delta, -5);
            }
            other => panic!("expected Accounting, got {other}"),
        }
        assert_eq!(s.load_of("A"), Some(3), "load must be unchanged");
        assert!(matches!(s.report("nope", 1), Err(RmfError::Daemon(_))));
    }

    #[test]
    fn wire_report_and_query_reject_missing_fields() {
        let s = state_with(&[("A", 8)]);
        let trace = FlowTrace::default();
        // report without delta.
        let rep = handle(&s, &trace, &Record::new("report").with("resource", "A"));
        assert_eq!(rep.kind(), "error");
        // report without resource.
        let rep = handle(&s, &trace, &Record::new("report").with("delta", "1"));
        assert_eq!(rep.kind(), "error");
        // underflow surfaces over the wire too.
        let rep = handle(
            &s,
            &trace,
            &Record::new("report")
                .with("resource", "A")
                .with("delta", "-1"),
        );
        assert_eq!(rep.kind(), "error");
        assert!(rep.get("detail").unwrap_or("").contains("accounting bug"));
        // query without count (used to fabricate a 0-proc query).
        let rep = handle(&s, &trace, &Record::new("query"));
        assert_eq!(rep.kind(), "error");
        // query with count 0 is equally meaningless.
        let rep = handle(&s, &trace, &Record::new("query").with("count", "0"));
        assert_eq!(rep.kind(), "error");
        // a well-formed report still works.
        s.select(2, &[]).unwrap();
        let rep = handle(
            &s,
            &trace,
            &Record::new("report")
                .with("resource", "A")
                .with("delta", "-2"),
        );
        assert_eq!(rep.kind(), "ok");
        assert_eq!(s.load_of("A"), Some(0));
    }

    #[test]
    fn allocation_record_roundtrip() {
        let allocs = vec![
            Allocation {
                resource: "A".into(),
                qserver_host: "a-fe".into(),
                count: 4,
            },
            Allocation {
                resource: "B".into(),
                qserver_host: "b-fe".into(),
                count: 16,
            },
        ];
        let mut rec = Record::new("allocation");
        for a in &allocs {
            rec.push(
                "alloc",
                format!("{}|{}|{}", a.resource, a.qserver_host, a.count),
            );
        }
        assert_eq!(parse_allocation(&rec).unwrap(), allocs);
        let err = Record::new("error").with("detail", "nope");
        assert!(parse_allocation(&err).is_err());
    }
}
