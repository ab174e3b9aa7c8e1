//! The communicator: point-to-point messaging with source/tag matching.

use crate::packet::Packet;
use nexus::{Endpoint, NexusContext, Startpoint};
use nexus_proxy::stripe::{Accept, LaneSink, Reassembler, StripeFrame, StripePlan, StripeStats};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wacs_sync::OrderedMutex;

/// Tags below this are reserved for collectives; user tags must be
/// non-negative.
pub const USER_TAG_MIN: i32 = 0;

/// Reserved tag of stripe transport frames ([`Comm::send_striped`]).
/// Collectives use the small negative tags; this one is far below
/// them so the spaces can both grow.
pub const STRIPE_TAG: i32 = -64;

/// Chunk size for striped sends: one relay segment per chunk.
pub const STRIPE_CHUNK_BYTES: u32 = 64 * 1024;

/// Whole-stripe retransmit attempts after a dead attachment.
const STRIPE_REDIALS: u32 = 2;

/// Receive from any rank.
pub const ANY_SOURCE: Option<u32> = None;

/// Receive any tag.
pub const ANY_TAG: Option<i32> = None;

/// One stripe lane over an attachment: every frame is a
/// [`STRIPE_TAG`] packet (packet seq 0 — the stripe layer does its own
/// dedup).
struct PacketLane {
    sp: Startpoint,
    rank: u32,
}

impl LaneSink for PacketLane {
    fn send_frame(&mut self, frame: &StripeFrame) -> io::Result<()> {
        let body = frame.encode_body().map_err(io::Error::from)?;
        self.sp
            .send(&Packet::encode(self.rank, STRIPE_TAG, 0, &body))
    }
}

/// Per-peer send-side state: the lazily attached startpoint plus the
/// sequence number of the next frame to that peer.
struct PeerLink {
    sp: Option<Startpoint>,
    next_seq: u64,
}

/// Registry handles for a communicator's message path. Shared across
/// ranks when they share a registry, so the histograms aggregate the
/// whole world's traffic. Wall-clock timings — diagnostics, not
/// replay-deterministic.
struct CommObs {
    /// One `send` call: encode + (re)attach + socket write.
    send_ns: wacs_obs::Histogram,
    /// One blocking `recv` call: wait + match, so queueing delay is
    /// included by design.
    recv_ns: wacs_obs::Histogram,
    dup_dropped: wacs_obs::Counter,
    resends: wacs_obs::Counter,
    /// The striped bulk path (`wacs.stripe.*`, shared schema with the
    /// proxy layers).
    stripe: StripeStats,
}

impl CommObs {
    fn in_registry(registry: &wacs_obs::Registry) -> CommObs {
        CommObs {
            send_ns: registry.histogram("gridmpi.send_ns"),
            recv_ns: registry.histogram("gridmpi.recv_ns"),
            dup_dropped: registry.counter("gridmpi.dup_dropped"),
            resends: registry.counter("gridmpi.resends"),
            stripe: StripeStats::in_registry(registry),
        }
    }
}

/// Per-rank communicator handle (the `MPI_COMM_WORLD` analogue).
///
/// One `Comm` lives on each rank's thread. Sends lazily attach a
/// startpoint to the destination's advertised endpoint — through the
/// Nexus Proxy whenever the rank's [`NexusContext`] says so — exactly
/// how the paper's MPICH-G ranks communicate across the firewall.
///
/// Sends survive one relay reconnect: if the cached startpoint fails
/// mid-send (outer proxy restarted, connection reset), the frame is
/// retransmitted once on a fresh attachment with the *same* sequence
/// number, and receivers drop any frame whose sequence they have
/// already accepted — so a frame that made it through both the dying
/// and the fresh connection is delivered exactly once, in order.
pub struct Comm {
    rank: u32,
    size: u32,
    ctx: NexusContext,
    ep: Endpoint,
    /// Advertised endpoint addresses of all ranks (index = rank).
    addrs: Arc<Vec<(String, u16)>>,
    /// Lazily attached startpoints + send sequence, per peer.
    peers: Vec<OrderedMutex<PeerLink>>,
    /// Messages received but not yet matched (MPI's unexpected-message
    /// queue).
    stash: OrderedMutex<VecDeque<Packet>>,
    /// Highest sequence accepted from each source (dedup after a
    /// sender-side retransmit). Valid because per-pair sends are
    /// sequential and each connection is FIFO.
    last_seq: OrderedMutex<Vec<u64>>,
    epoch: Instant,
    /// Diagnostics.
    sent: OrderedMutex<u64>,
    received: OrderedMutex<u64>,
    /// Frames dropped as duplicates of an already-accepted sequence.
    dup_dropped: OrderedMutex<u64>,
    /// Sends that needed the reconnect-and-retransmit path.
    resends: OrderedMutex<u64>,
    /// In-flight striped transfers, keyed by `(src, transfer)`. The
    /// stripe transport bypasses `last_seq` (parallel flows break the
    /// FIFO-per-pair assumption that dedup relies on); the reassembler
    /// dedups per chunk offset instead.
    stripe_rx: OrderedMutex<HashMap<(u32, u64), Reassembler>>,
    /// Completed transfer ids, so straggler duplicates of a finished
    /// transfer are dropped instead of re-opening a reassembler that
    /// can never complete. Grows by 16 bytes per striped transfer —
    /// negligible next to the transfers themselves.
    stripe_done: OrderedMutex<std::collections::HashSet<(u32, u64)>>,
    /// Next striped-transfer id issued by this rank.
    next_transfer: OrderedMutex<u64>,
    /// Striped transfers reassembled to completion (diagnostics).
    stripe_completed: OrderedMutex<u64>,
    obs: Option<CommObs>,
}

impl Comm {
    pub(crate) fn new(
        rank: u32,
        size: u32,
        ctx: NexusContext,
        ep: Endpoint,
        addrs: Arc<Vec<(String, u16)>>,
    ) -> Comm {
        let peers = (0..size)
            .map(|peer| {
                OrderedMutex::new(
                    &format!("gridmpi.comm.peer{peer}"),
                    PeerLink {
                        sp: None,
                        next_seq: 1,
                    },
                )
            })
            .collect();
        Comm {
            rank,
            size,
            ctx,
            ep,
            addrs,
            peers,
            stash: OrderedMutex::new("gridmpi.comm.stash", VecDeque::new()),
            last_seq: OrderedMutex::new("gridmpi.comm.dedup", vec![0; size as usize]),
            epoch: Instant::now(),
            sent: OrderedMutex::new("gridmpi.comm.sent", 0),
            received: OrderedMutex::new("gridmpi.comm.received", 0),
            dup_dropped: OrderedMutex::new("gridmpi.comm.dup_dropped", 0),
            resends: OrderedMutex::new("gridmpi.comm.resends", 0),
            stripe_rx: OrderedMutex::new("gridmpi.comm.stripe_rx", HashMap::new()),
            stripe_done: OrderedMutex::new(
                "gridmpi.comm.stripe_done",
                std::collections::HashSet::new(),
            ),
            next_transfer: OrderedMutex::new("gridmpi.comm.next_transfer", 1),
            stripe_completed: OrderedMutex::new("gridmpi.comm.stripe_completed", 0),
            obs: None,
        }
    }

    /// Record send/recv service-time histograms and fault counters
    /// under `gridmpi.*` in `registry`. Ranks sharing a registry
    /// aggregate into the same instruments.
    #[must_use]
    pub fn with_obs(mut self, registry: &wacs_obs::Registry) -> Comm {
        self.obs = Some(CommObs::in_registry(registry));
        self
    }

    pub fn rank(&self) -> u32 {
        self.rank
    }

    pub fn size(&self) -> u32 {
        self.size
    }

    /// The logical host this rank runs on.
    pub fn host(&self) -> &str {
        self.ctx.host()
    }

    /// `MPI_Wtime` analogue: seconds since communicator creation.
    pub fn wtime(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn messages_sent(&self) -> u64 {
        *self.sent.lock()
    }

    pub fn messages_received(&self) -> u64 {
        *self.received.lock()
    }

    /// Frames dropped as retransmit duplicates (diagnostics).
    pub fn duplicates_dropped(&self) -> u64 {
        *self.dup_dropped.lock()
    }

    /// Sends that took the reconnect-and-retransmit path (diagnostics).
    pub fn resends(&self) -> u64 {
        *self.resends.lock()
    }

    /// Drop the cached startpoint to `dest`, as if its connection had
    /// been torn down by a relay failure: the next send to `dest` must
    /// re-attach. Test hook for the reconnect path.
    #[doc(hidden)]
    pub fn reset_peer_link(&self, dest: u32) {
        self.peers[dest as usize].lock().sp = None;
    }

    /// Send `payload` to `dest` with `tag` (tags < 0 are reserved).
    pub fn send(&self, dest: u32, tag: i32, payload: &[u8]) -> io::Result<()> {
        assert!(tag >= USER_TAG_MIN, "negative tags are reserved");
        self.send_internal(dest, tag, payload)
    }

    /// Striped transfers this rank has reassembled (diagnostics).
    pub fn striped_completed(&self) -> u64 {
        *self.stripe_completed.lock()
    }

    /// Send a large `payload` to `dest` as `stripes` parallel flows
    /// (GridFTP-style striping over the relay; DESIGN.md §6e). The
    /// receiver's ordinary `recv(Some(src), Some(tag))` delivers the
    /// reassembled payload once every chunk has arrived.
    ///
    /// Each stripe rides its own attachment — crossing the proxy,
    /// that is its own relay flow — and carries an arithmetically
    /// determined slice of the chunks, framed as [`StripeFrame`]s
    /// inside packets tagged [`STRIPE_TAG`]. A stripe whose
    /// attachment dies mid-send is retransmitted whole on a fresh
    /// attachment (bounded retries); the receiver dedups chunks by
    /// offset, so duplicates are absorbed, never re-delivered.
    ///
    /// Ordering caveat: a striped message is matched like any other,
    /// but it completes when its *last* chunk arrives — it is not
    /// ordered relative to plain sends issued around it.
    pub fn send_striped(
        &self,
        dest: u32,
        tag: i32,
        payload: &[u8],
        stripes: u16,
    ) -> io::Result<()> {
        assert!(tag >= USER_TAG_MIN, "negative tags are reserved");
        assert!(dest < self.size, "rank {dest} out of range");
        assert_ne!(dest, self.rank, "self-sends are not supported");
        let start = Instant::now();
        let plan = StripePlan::new(payload.len() as u64, stripes, STRIPE_CHUNK_BYTES)
            .map_err(io::Error::from)?;
        let transfer = {
            let mut t = self.next_transfer.lock();
            let id = *t;
            *t += 1;
            id
        };
        // Every lane (and every redial) is a fresh attachment.
        let dial = |_stripe: u16, attempt: u32| {
            if attempt > 0 {
                *self.resends.lock() += 1;
                if let Some(o) = &self.obs {
                    o.resends.inc();
                }
            }
            Ok(PacketLane {
                sp: self.attach(dest)?,
                rank: self.rank,
            })
        };
        let stats = self.obs.as_ref().map(|o| &o.stripe);
        nexus_proxy::send_striped(payload, &plan, transfer, tag, STRIPE_REDIALS, stats, dial)?;
        *self.sent.lock() += 1;
        if let Some(o) = &self.obs {
            o.send_ns.record(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    pub(crate) fn send_internal(&self, dest: u32, tag: i32, payload: &[u8]) -> io::Result<()> {
        assert!(dest < self.size, "rank {dest} out of range");
        assert_ne!(dest, self.rank, "self-sends are not supported");
        let start = Instant::now();
        let mut link = self.peers[dest as usize].lock();
        let frame = Packet::encode(self.rank, tag, link.next_seq, payload);
        let sp = match link.sp.take() {
            Some(sp) => sp,
            None => self.attach(dest)?,
        };
        match sp.send(&frame) {
            Ok(()) => link.sp = Some(sp),
            Err(_) => {
                // The cached attachment died (relay restart, reset).
                // We cannot know whether the frame survived, so
                // reconnect once and retransmit the *same* frame — the
                // receiver's per-source dedup discards the extra copy
                // if both made it through.
                let fresh = self.attach(dest)?;
                fresh.send(&frame)?;
                link.sp = Some(fresh);
                *self.resends.lock() += 1;
                if let Some(o) = &self.obs {
                    o.resends.inc();
                }
            }
        }
        link.next_seq += 1;
        *self.sent.lock() += 1;
        if let Some(o) = &self.obs {
            o.send_ns.record(start.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    fn attach(&self, dest: u32) -> io::Result<Startpoint> {
        let (host, port) = &self.addrs[dest as usize];
        self.ctx
            .attach_retry((host, *port), 200, Duration::from_millis(5))
    }

    /// Decode an arrived frame and apply per-source dedup. Returns
    /// `None` for a retransmit duplicate (already accepted).
    fn ingest(&self, frame: Vec<u8>) -> io::Result<Option<Packet>> {
        let p = Packet::decode(frame)?;
        // Stripe transport frames are routed *before* the sequence
        // dedup: they arrive over parallel flows, so the FIFO-per-pair
        // assumption behind `last_seq` does not hold for them. The
        // reassembler dedups per chunk offset instead.
        if p.tag == STRIPE_TAG {
            return self.ingest_stripe(p);
        }
        let mut last = self.last_seq.lock();
        let slot = last.get_mut(p.src as usize).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("packet from out-of-range rank {}", p.src),
            )
        })?;
        if p.seq <= *slot {
            drop(last);
            *self.dup_dropped.lock() += 1;
            if let Some(o) = &self.obs {
                o.dup_dropped.inc();
            }
            return Ok(None);
        }
        *slot = p.seq;
        drop(last);
        *self.received.lock() += 1;
        Ok(Some(p))
    }

    /// Feed one stripe transport frame to the per-transfer
    /// reassembler. Returns the synthesized application packet when
    /// the frame completes its transfer, `None` while chunks are
    /// still outstanding (or for an absorbed duplicate).
    fn ingest_stripe(&self, p: Packet) -> io::Result<Option<Packet>> {
        if p.src >= self.size {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("stripe frame from out-of-range rank {}", p.src),
            ));
        }
        let frame = StripeFrame::decode_body(&p.payload)?;
        let key = (p.src, frame.transfer_id());
        // Stragglers of a finished transfer (a stripe retransmitted
        // whole after the last needed chunk arrived) are duplicates,
        // not a new transfer: drop them.
        if self.stripe_done.lock().contains(&key) {
            *self.dup_dropped.lock() += 1;
            if let Some(o) = &self.obs {
                o.dup_dropped.inc();
                o.stripe.dup_chunks.inc();
            }
            return Ok(None);
        }
        let mut map = self.stripe_rx.lock();
        if let std::collections::hash_map::Entry::Vacant(slot) = map.entry(key) {
            // First frame of a transfer must carry the geometry; a
            // non-Open frame ahead of any Open (reordered across
            // parallel flows) is dropped — its stripe's Open precedes
            // it on the *same* FIFO flow, so only cross-flow strays
            // land here, and their stripe will re-deliver.
            match Reassembler::open(&frame) {
                Ok(rx) => {
                    slot.insert(rx);
                }
                Err(_) => {
                    drop(map);
                    *self.dup_dropped.lock() += 1;
                    if let Some(o) = &self.obs {
                        o.dup_dropped.inc();
                    }
                    return Ok(None);
                }
            }
        }
        let Some(rx) = map.get_mut(&key) else {
            return Ok(None);
        };
        let outcome = rx.accept(&frame).map_err(io::Error::from)?;
        match outcome {
            Accept::Complete => {
                let Some(rx) = map.remove(&key) else {
                    return Ok(None);
                };
                drop(map);
                self.stripe_done.lock().insert(key);
                let tag = rx.tag();
                let payload = rx.into_payload().map_err(io::Error::from)?;
                *self.received.lock() += 1;
                *self.stripe_completed.lock() += 1;
                if let Some(o) = &self.obs {
                    o.stripe.chunks_received.inc();
                    o.stripe.transfers.inc();
                }
                Ok(Some(Packet {
                    src: p.src,
                    tag,
                    seq: 0,
                    payload,
                }))
            }
            Accept::Duplicate => {
                drop(map);
                *self.dup_dropped.lock() += 1;
                if let Some(o) = &self.obs {
                    o.dup_dropped.inc();
                    o.stripe.dup_chunks.inc();
                }
                Ok(None)
            }
            Accept::Fresh => {
                drop(map);
                if let Some(o) = &self.obs {
                    if matches!(frame, StripeFrame::Data { .. }) {
                        o.stripe.chunks_received.inc();
                    }
                }
                Ok(None)
            }
        }
    }

    /// Blocking receive with matching. Returns `(src, tag, payload)`.
    pub fn recv(&self, src: Option<u32>, tag: Option<i32>) -> io::Result<(u32, i32, Vec<u8>)> {
        let start = Instant::now();
        let res = self.recv_inner(src, tag);
        if let Some(o) = &self.obs {
            o.recv_ns.record(start.elapsed().as_nanos() as u64);
        }
        res
    }

    fn recv_inner(&self, src: Option<u32>, tag: Option<i32>) -> io::Result<(u32, i32, Vec<u8>)> {
        // 1. Unexpected-message queue first (MPI ordering semantics).
        if let Some(p) = self.take_from_stash(src, tag) {
            return Ok((p.src, p.tag, p.payload));
        }
        // 2. Drain the endpoint until a match arrives.
        loop {
            let frame = self.ep.recv()?;
            let Some(p) = self.ingest(frame)? else {
                continue;
            };
            if p.matches(src, tag) {
                return Ok((p.src, p.tag, p.payload));
            }
            self.stash.lock().push_back(p);
        }
    }

    /// Receive with a deadline; `Ok(None)` on timeout.
    pub fn recv_timeout(
        &self,
        src: Option<u32>,
        tag: Option<i32>,
        timeout: Duration,
    ) -> io::Result<Option<(u32, i32, Vec<u8>)>> {
        let deadline = Instant::now() + timeout;
        if let Some(p) = self.take_from_stash(src, tag) {
            return Ok(Some((p.src, p.tag, p.payload)));
        }
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            match self.ep.recv_timeout(deadline - now)? {
                Some(frame) => {
                    let Some(p) = self.ingest(frame)? else {
                        continue;
                    };
                    if p.matches(src, tag) {
                        return Ok(Some((p.src, p.tag, p.payload)));
                    }
                    self.stash.lock().push_back(p);
                }
                None => return Ok(None),
            }
        }
    }

    /// Non-blocking probe: is a matching message available? Drains any
    /// already-arrived traffic into the unexpected queue first — this
    /// is the primitive the knapsack master uses to poll for steal
    /// requests between branch operations.
    pub fn iprobe(&self, src: Option<u32>, tag: Option<i32>) -> io::Result<bool> {
        while let Some(frame) = self.ep.try_recv()? {
            if let Some(p) = self.ingest(frame)? {
                self.stash.lock().push_back(p);
            }
        }
        Ok(self.stash.lock().iter().any(|p| p.matches(src, tag)))
    }

    /// Non-blocking receive.
    pub fn try_recv(
        &self,
        src: Option<u32>,
        tag: Option<i32>,
    ) -> io::Result<Option<(u32, i32, Vec<u8>)>> {
        if self.iprobe(src, tag)? {
            Ok(self
                .take_from_stash(src, tag)
                .map(|p| (p.src, p.tag, p.payload)))
        } else {
            Ok(None)
        }
    }

    /// Combined send + receive (deadlock-safe: the outbound message is
    /// written to the socket before blocking on the inbound one, and
    /// endpoints buffer, so a symmetric exchange cannot wedge).
    pub fn sendrecv(
        &self,
        dest: u32,
        send_tag: i32,
        payload: &[u8],
        src: Option<u32>,
        recv_tag: Option<i32>,
    ) -> io::Result<(u32, i32, Vec<u8>)> {
        self.send(dest, send_tag, payload)?;
        self.recv(src, recv_tag)
    }

    fn take_from_stash(&self, src: Option<u32>, tag: Option<i32>) -> Option<Packet> {
        let mut stash = self.stash.lock();
        let idx = stash.iter().position(|p| p.matches(src, tag))?;
        stash.remove(idx)
    }

    /// The advertised address of this rank's endpoint (diagnostics).
    pub fn advertised(&self) -> (&str, u16) {
        self.ep.advertised()
    }
}
