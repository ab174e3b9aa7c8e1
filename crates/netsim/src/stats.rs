//! Run statistics: per-link, per-flow and global counters, collected by
//! the engine as a side effect of event processing.

use crate::time::SimDuration;
use crate::topology::LinkId;

/// Per-link, per-direction accounting. Direction 0 is a→b.
#[derive(Debug, Default, Clone)]
pub struct LinkStats {
    pub wire_bytes: [u64; 2],
    pub chunks: [u64; 2],
    /// Cumulative serialization (busy) time.
    pub busy: [SimDuration; 2],
}

/// Whole-run statistics.
#[derive(Debug, Default, Clone)]
pub struct Stats {
    links: Vec<LinkStats>,
    pub events_processed: u64,
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub messages_filtered: u64,
    pub payload_bytes_delivered: u64,
    pub flows_opened: u64,
    pub flows_refused: u64,
    pub flows_closed: u64,
    /// Chunks lost to fault injection (drop probability).
    pub chunks_dropped: u64,
    /// End-to-end retransmissions triggered by lost chunks.
    pub retransmits: u64,
    /// Chunks abandoned after the retransmit budget ran out (the
    /// owning flow was severed with `CloseReason::Lost`).
    pub messages_lost: u64,
    /// Actors killed by fault injection.
    pub actor_crashes: u64,
    /// Actors revived by fault injection.
    pub actor_restarts: u64,
}

impl Stats {
    pub fn ensure_links(&mut self, n: usize) {
        if self.links.len() < n {
            self.links.resize(n, LinkStats::default());
        }
    }

    pub fn link(&self, id: LinkId) -> &LinkStats {
        &self.links[id.0 as usize]
    }

    pub fn link_mut(&mut self, id: LinkId) -> &mut LinkStats {
        &mut self.links[id.0 as usize]
    }

    pub fn record_chunk(&mut self, id: LinkId, dir: usize, wire_bytes: u64, ser: SimDuration) {
        let l = self.link_mut(id);
        l.wire_bytes[dir] += wire_bytes;
        l.chunks[dir] += 1;
        l.busy[dir] = l.busy[dir] + ser;
    }

    pub fn record_delivery(&mut self, payload_bytes: u64) {
        self.messages_delivered += 1;
        self.payload_bytes_delivered += payload_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_accounting() {
        let mut s = Stats::default();
        s.ensure_links(2);
        s.record_chunk(LinkId(1), 0, 1500, SimDuration::from_micros(120));
        s.record_chunk(LinkId(1), 0, 1500, SimDuration::from_micros(120));
        s.record_chunk(LinkId(1), 1, 60, SimDuration::from_micros(5));
        let l = s.link(LinkId(1));
        assert_eq!(l.wire_bytes[0], 3000);
        assert_eq!(l.chunks[0], 2);
        assert_eq!(l.wire_bytes[1], 60);
        assert_eq!(l.busy[0], SimDuration::from_micros(240));
    }
}
