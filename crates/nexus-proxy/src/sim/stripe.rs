//! Striped bulk transfer as simulation actors (DESIGN.md §6e).
//!
//! One logical transfer is K stripe lanes. Each lane is a pair of
//! actors — a [`StripeSinkActor`] that binds a rendezvous through the
//! outer-shard fleet and a [`StripeSenderActor`] that dials it and
//! blasts that stripe's chunks — sharing one [`StripeCell`] (the
//! in-process state of the striped endpoints). Because each sink
//! binds its own ephemeral port, the K bind keys HRW-spread across
//! the fleet, so each stripe's bytes serialize through a *different*
//! shard's relay queue: the aggregate approaches `K × relay_bw` until
//! the WAN link or the far-side relay saturates — the classic
//! GridFTP parallel-streams curve.
//!
//! Failover is lane-local: a shard crash closes both the sink's bind
//! control flow (the [`NxClient`] auto-rebinds to a surviving shard,
//! breaker-driven) and the sender's relayed data flow (the sender
//! re-polls the advertised address and re-sends the whole stripe).
//! The shared [`StripeReceiver`] absorbs re-delivered chunks by
//! offset, so the reassembled payload is exact regardless of how many
//! times a lane died.

use super::client::{NxClient, NxEvent, NxHandled};
use crate::stripe::{Accept, StripeError, StripeFrame, StripePlan, StripeReceiver, StripeStats};
use netsim::prelude::*;
use std::sync::Arc;
use wacs_sync::Mutex;

/// App-level poll/redial timer token for stripe senders (must stay
/// below `NX_TOKEN_BASE`).
pub const STRIPE_POLL: u64 = 5;

/// Declared wire size of a stripe frame's header portion; `Data`
/// frames add their chunk bytes on top (sim timing only — the real
/// codec's header is a few bytes smaller).
pub const STRIPE_HDR_BYTES: u64 = 32;

/// Shared state of one logical striped transfer: what the sink actors
/// advertise, the one reassembler every lane feeds, and completion /
/// failure bookkeeping the harness asserts on.
pub struct StripeCellState {
    /// Rendezvous address of each stripe's sink (None until bound, and
    /// again after a `BindLost` until the re-bind lands).
    pub advertised: Vec<Option<(NodeId, u16)>>,
    /// The receiver side: one reassembler fed by every lane.
    pub receiver: StripeReceiver,
    /// Virtual time the first chunk arrived.
    pub first_data_ns: Option<u64>,
    /// Virtual time each lane's first chunk arrived.
    pub lane_first_ns: Vec<Option<u64>>,
    /// Distinct payload bytes received per lane (duplicates excluded).
    pub lane_bytes: Vec<u64>,
    /// Lanes whose every chunk is covered (per-lane span recorded).
    pub lane_done: Vec<bool>,
    /// Virtual time the transfer reassembled completely.
    pub done_at_ns: Option<u64>,
    /// Sender lanes re-dialed after a mid-transfer flow death.
    pub failovers: u64,
    /// Typed reassembly errors (must stay empty in a healthy run —
    /// the chaos tests assert on it).
    pub errors: Vec<StripeError>,
}

pub type StripeCell = Arc<Mutex<StripeCellState>>;

/// Fresh shared state for a transfer of `stripes` lanes.
pub fn stripe_cell(stripes: u16) -> StripeCell {
    Arc::new(Mutex::new(StripeCellState {
        advertised: vec![None; usize::from(stripes)],
        receiver: StripeReceiver::new(),
        first_data_ns: None,
        lane_first_ns: vec![None; usize::from(stripes)],
        lane_bytes: vec![0; usize::from(stripes)],
        lane_done: vec![false; usize::from(stripes)],
        done_at_ns: None,
        failovers: 0,
        errors: Vec::new(),
    }))
}

/// Receiver-side actor of one stripe lane: binds a rendezvous (via
/// the fleet or a single outer server — whatever its [`NxClient`] is
/// configured for) and feeds arriving frames to the cell's shared
/// reassembler.
pub struct StripeSinkActor {
    nx: NxClient,
    stripe: u16,
    cell: StripeCell,
    stats: Option<StripeStats>,
}

impl StripeSinkActor {
    pub fn new(nx: NxClient, stripe: u16, cell: StripeCell) -> Self {
        StripeSinkActor {
            nx,
            stripe,
            cell,
            stats: None,
        }
    }

    /// Record `wacs.stripe.*` counters for frames this sink ingests.
    pub fn with_stats(mut self, stats: StripeStats) -> Self {
        self.stats = Some(stats);
        self
    }

    /// Account one fresh chunk of `lane` and, if that covered the
    /// lane's last hole, close its span: `wacs.stripe.stripe_ns` and
    /// `stripe_bytes_per_sec` measure first chunk arrival → full lane
    /// coverage, receiver side (failover replays extend the span,
    /// which is exactly the cost a failover has).
    fn lane_progress(
        stats: &Option<StripeStats>,
        c: &mut StripeCellState,
        lane: u16,
        n: u64,
        now: u64,
    ) {
        let l = usize::from(lane);
        if c.lane_first_ns[l].is_none() {
            c.lane_first_ns[l] = Some(now);
        }
        c.lane_bytes[l] += n;
        if !c.lane_done[l] && c.receiver.missing_on(lane).is_empty() {
            c.lane_done[l] = true;
            if let Some(s) = stats {
                let t0 = c.lane_first_ns[l].unwrap_or(now);
                let dt = now.saturating_sub(t0).max(1);
                s.stripe_ns.record(dt);
                s.stripe_bytes_per_sec
                    .record(c.lane_bytes[l].saturating_mul(1_000_000_000) / dt);
            }
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Bound { advertised }) => {
                self.cell.lock().advertised[usize::from(self.stripe)] = Some(advertised);
            }
            NxHandled::Event(NxEvent::BindLost) => {
                // The rendezvous died with its shard: withdraw it so
                // senders stop dialing a dead address. The re-bind is
                // already underway inside the client machine.
                self.cell.lock().advertised[usize::from(self.stripe)] = None;
            }
            NxHandled::Data(d) => {
                let frame = d.expect::<StripeFrame>();
                let lane = match &frame {
                    StripeFrame::Data { stripe, bytes, .. } => Some((*stripe, bytes.len() as u64)),
                    _ => None,
                };
                let now = ctx.now().nanos();
                let mut c = self.cell.lock();
                if lane.is_some() && c.first_data_ns.is_none() {
                    c.first_data_ns = Some(now);
                }
                match c.receiver.ingest(&frame) {
                    Ok(Accept::Complete) => {
                        c.done_at_ns = Some(now);
                        if let Some((l, n)) = lane {
                            Self::lane_progress(&self.stats, &mut c, l, n, now);
                        }
                        if let Some(s) = &self.stats {
                            if lane.is_some() {
                                s.chunks_received.inc();
                            }
                            s.transfers.inc();
                            if let Some(t0) = c.first_data_ns {
                                s.transfer_ns.record(now.saturating_sub(t0));
                            }
                        }
                    }
                    Ok(Accept::Duplicate) => {
                        if let Some(s) = &self.stats {
                            s.dup_chunks.inc();
                        }
                    }
                    Ok(Accept::Fresh) => {
                        if let Some((l, n)) = lane {
                            Self::lane_progress(&self.stats, &mut c, l, n, now);
                            if let Some(s) = &self.stats {
                                s.chunks_received.inc();
                            }
                        }
                    }
                    Err(e) => {
                        if let Some(s) = &self.stats {
                            if matches!(e, StripeError::Conflict { .. }) {
                                s.conflicts.inc();
                            }
                        }
                        c.errors.push(e);
                    }
                }
            }
            _ => {}
        }
    }
}

impl Actor for StripeSinkActor {
    fn name(&self) -> &str {
        "stripe-sink"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(adv) = self.nx.bind(ctx) {
            self.cell.lock().advertised[usize::from(self.stripe)] = Some(adv);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
        }
    }

    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}

/// Sender-side actor of one stripe lane: polls the cell for its
/// stripe's advertised rendezvous, dials it, and blasts `Open`, every
/// chunk of the stripe in sequence order, then `Fin`. A torn flow
/// before completion re-polls and re-sends the whole stripe — the
/// receiver's offset dedup makes the retransmit idempotent.
pub struct StripeSenderActor {
    nx: NxClient,
    stripe: u16,
    cell: StripeCell,
    payload: Arc<Vec<u8>>,
    plan: StripePlan,
    transfer: u64,
    tag: i32,
    start_at: SimDuration,
    flow: Option<FlowId>,
    attempts: u64,
    stats: Option<StripeStats>,
}

impl StripeSenderActor {
    pub fn new(
        nx: NxClient,
        stripe: u16,
        cell: StripeCell,
        payload: Arc<Vec<u8>>,
        plan: StripePlan,
        transfer: u64,
        start_at: SimDuration,
    ) -> Self {
        StripeSenderActor {
            nx,
            stripe,
            cell,
            payload,
            plan,
            transfer,
            tag: 0,
            start_at,
            flow: None,
            attempts: 0,
            stats: None,
        }
    }

    /// Record `wacs.stripe.*` counters for this lane's sends.
    pub fn with_stats(mut self, stats: StripeStats) -> Self {
        self.stats = Some(stats);
        self
    }

    fn poll_soon(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(10), STRIPE_POLL);
    }

    fn done(&self) -> bool {
        self.cell.lock().done_at_ns.is_some()
    }

    /// Blast the whole lane on `flow`, in [`StripePlan::lane_frames`]
    /// order. Declared sizes drive virtual-time cost; large chunks are
    /// segmented by the client machine so they pipeline through the
    /// relay.
    fn blast(&mut self, ctx: &mut Ctx<'_>, flow: FlowId) {
        let (plan, payload) = (self.plan, self.payload.clone());
        for frame in plan.lane_frames(&payload, self.transfer, self.tag, self.stripe) {
            let body = match &frame {
                StripeFrame::Data { bytes, .. } => bytes.len() as u64,
                _ => 0,
            };
            let _ = self.nx.send_data(ctx, flow, STRIPE_HDR_BYTES + body, frame);
        }
        if let Some(s) = &self.stats {
            let chunks = plan.chunks_on(self.stripe);
            s.chunks_sent.add(chunks);
            if self.attempts > 1 {
                s.resent_chunks.add(chunks);
            }
        }
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, h: NxHandled) {
        match h {
            NxHandled::Event(NxEvent::Connected { flow, .. }) => {
                self.flow = Some(flow);
                self.attempts += 1;
                if self.attempts > 1 {
                    self.cell.lock().failovers += 1;
                    if let Some(s) = &self.stats {
                        s.failovers.inc();
                    }
                }
                self.blast(ctx, flow);
            }
            NxHandled::Event(NxEvent::Refused { .. }) => {
                self.poll_soon(ctx);
            }
            NxHandled::Flow(FlowEvent::Closed { flow, .. }) if Some(flow) == self.flow => {
                self.flow = None;
                if !self.done() {
                    // Lane death mid-transfer: the sink is re-binding;
                    // keep polling until a fresh rendezvous appears,
                    // then re-send the stripe.
                    self.poll_soon(ctx);
                }
            }
            _ => {}
        }
    }
}

impl Actor for StripeSenderActor {
    fn name(&self) -> &str {
        "stripe-sender"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.start_at, STRIPE_POLL);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.nx.owns_timer(token) {
            let h = self.nx.on_timer(ctx, token);
            self.handle(ctx, h);
            return;
        }
        if token == STRIPE_POLL && self.flow.is_none() && !self.done() {
            let adv = self.cell.lock().advertised[usize::from(self.stripe)];
            match adv {
                Some(dst) => self.nx.connect(ctx, dst, 11),
                None => self.poll_soon(ctx),
            }
        }
    }

    fn on_flow(&mut self, ctx: &mut Ctx<'_>, ev: FlowEvent) {
        let h = self.nx.on_flow(ctx, ev);
        self.handle(ctx, h);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, msg: Delivery) {
        let h = self.nx.on_message(ctx, msg);
        self.handle(ctx, h);
    }
}
