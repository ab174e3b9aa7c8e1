//! Audit trail of filtering decisions.
//!
//! Tests and the experiment harness use this to *prove* claims such as
//! "under the deny-based policy, no inbound connection was ever passed
//! except on `nxport`" rather than merely asserting end-state.

use crate::rule::{Direction, Endpoint, Proto, Verdict};
use std::collections::VecDeque;

/// One filtering decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    pub direction: Direction,
    pub proto: Proto,
    pub src: Endpoint,
    pub dst: Endpoint,
    pub verdict: Verdict,
    /// Label of the matching rule, `"<default>"` for the default action,
    /// or `"<established>"` for conntrack passes.
    pub rule: String,
}

/// Bounded ring buffer of decisions.
#[derive(Debug)]
pub struct AuditLog {
    records: VecDeque<AuditRecord>,
    capacity: usize,
    /// Total decisions ever logged (including evicted ones).
    total: u64,
    dropped_packets: u64,
}

impl Default for AuditLog {
    fn default() -> Self {
        AuditLog::with_capacity(4096)
    }
}

impl AuditLog {
    pub fn with_capacity(capacity: usize) -> Self {
        AuditLog {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            total: 0,
            dropped_packets: 0,
        }
    }

    pub fn push(&mut self, rec: AuditRecord) {
        self.total += 1;
        if rec.verdict == Verdict::Drop {
            self.dropped_packets += 1;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(rec);
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &AuditRecord> {
        self.records.iter()
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total decisions logged over the log's lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Total drops logged over the log's lifetime.
    pub fn dropped(&self) -> u64 {
        self.dropped_packets
    }

    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(port: u16, verdict: Verdict, dir: Direction) -> AuditRecord {
        AuditRecord {
            direction: dir,
            proto: Proto::Tcp,
            src: Endpoint::new(1, 40000),
            dst: Endpoint::new(2, port),
            verdict,
            rule: "t".into(),
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = AuditLog::with_capacity(2);
        log.push(rec(1, Verdict::Pass, Direction::Inbound));
        log.push(rec(2, Verdict::Pass, Direction::Inbound));
        log.push(rec(3, Verdict::Pass, Direction::Inbound));
        assert_eq!(log.len(), 2);
        assert_eq!(log.total(), 3);
        let ports: Vec<u16> = log.records().map(|r| r.dst.port).collect();
        assert_eq!(ports, vec![2, 3]);
    }

    #[test]
    fn drop_counter() {
        let mut log = AuditLog::default();
        log.push(rec(1, Verdict::Drop, Direction::Inbound));
        log.push(rec(2, Verdict::Pass, Direction::Inbound));
        assert_eq!(log.dropped(), 1);
    }
}
