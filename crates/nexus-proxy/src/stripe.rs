//! Striped parallel bulk transfer: one logical payload over K relay
//! flows (DESIGN.md §6e).
//!
//! The paper's relay pushes every bulk byte through a single
//! select-loop process, so one WAN transfer can never move faster
//! than one relay's copy bandwidth. The GridFTP literature closes
//! that gap with parallel TCP streams; this module is that idea
//! rebuilt on the workspace's own machinery:
//!
//! * a [`StripePlan`] cuts the payload into fixed-size chunks and
//!   deals them round-robin onto `stripes` flows, so every stripe
//!   carries an arithmetically-determined set of `(seq, offset)`
//!   chunks — no side channel is needed to describe the split;
//! * [`StripeFrame`] is the wire format riding *inside* the opaque
//!   relay pipe (the relay copies, never parses — framing is parsed
//!   only by the endpoints), with the same length-prefix + type-byte
//!   + cap-before-allocation discipline as the control protocol;
//! * the [`Reassembler`] accepts chunks in any arrival order, drops
//!   duplicate deliveries (a stripe that failed over re-sends from
//!   the start; PR 3's per-pair sequence dedup cannot help because
//!   parallel flows break the FIFO-per-pair assumption it relies
//!   on), and reports completion exactly once, only when every
//!   offset is covered. A re-delivered chunk whose bytes disagree
//!   with what is already down is a typed [`StripeError::Conflict`]
//!   — never silent corruption.
//!
//! The per-stripe sequence space is the PR 3 idea applied per flow:
//! within one stripe, chunks are sent in `seq` order on one FIFO
//! connection, so `(stripe, seq)` names a chunk globally and the
//! receiver can dedup at chunk granularity across reconnects.

use crate::hook::{interpose, DialHook, DialLeg};
use crate::protocol::{bad, put_u16, put_u32, put_u64, Cursor};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use wacs_obs::{Counter, Histogram, Registry};
use wacs_sync::Mutex;

/// Most stripes one transfer may use (fan-out bound).
pub const MAX_STRIPES: u16 = 64;

/// Largest chunk the wire format will carry (cap-before-allocation:
/// the peer controls the declared sizes).
pub const MAX_CHUNK_BYTES: u32 = 1 << 20;

/// Largest reassembled transfer a receiver will stage in memory.
pub const MAX_TRANSFER_BYTES: u64 = 1 << 30;

/// Most chunks one transfer may have (bounds the coverage bitmap a
/// peer-controlled `Open` makes the receiver allocate).
pub const MAX_CHUNKS: u64 = 1 << 20;

/// Default chunk size: one relay segment's worth of payload.
pub const DEFAULT_CHUNK_BYTES: u32 = 64 * 1024;

/// Upper bound on one stripe frame (header slack + chunk body).
pub const MAX_STRIPE_FRAME: u32 = MAX_CHUNK_BYTES + 64;

/// Typed stripe-layer failure. Every decode or reassembly problem is
/// one of these — the bulk path never guesses and never silently
/// corrupts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StripeError {
    /// The plan parameters are unrepresentable (zero/oversize stripe
    /// count, chunk size, transfer length, or chunk count).
    BadPlan { reason: &'static str },
    /// A frame for a different transfer id arrived on this flow.
    WrongTransfer { got: u64, want: u64 },
    /// A repeated `Open` disagreed with the installed geometry.
    GeometryMismatch,
    /// A frame arrived before any `Open` established the geometry.
    NotOpened,
    /// The stripe index is outside the plan's stripe count.
    StripeOutOfRange { stripe: u16, stripes: u16 },
    /// The per-stripe sequence number names no chunk in the plan.
    SeqOutOfRange { stripe: u16, seq: u64 },
    /// The declared offset disagrees with the plan's arithmetic.
    WrongOffset { expected: u64, got: u64 },
    /// The chunk body length disagrees with the plan's arithmetic.
    WrongLength { expected: u32, got: u64 },
    /// A duplicate delivery carried different bytes than the copy
    /// already written — corruption, surfaced instead of absorbed.
    Conflict { offset: u64 },
    /// The payload was requested while offsets are still uncovered.
    Incomplete { missing: u64 },
}

impl std::fmt::Display for StripeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StripeError::BadPlan { reason } => write!(f, "bad stripe plan: {reason}"),
            StripeError::WrongTransfer { got, want } => {
                write!(f, "frame for transfer {got} on a flow serving {want}")
            }
            StripeError::GeometryMismatch => {
                write!(f, "re-opened transfer with different geometry")
            }
            StripeError::NotOpened => write!(f, "stripe data before Open"),
            StripeError::StripeOutOfRange { stripe, stripes } => {
                write!(f, "stripe {stripe} out of range (plan has {stripes})")
            }
            StripeError::SeqOutOfRange { stripe, seq } => {
                write!(f, "seq {seq} names no chunk on stripe {stripe}")
            }
            StripeError::WrongOffset { expected, got } => {
                write!(f, "chunk offset {got} where the plan says {expected}")
            }
            StripeError::WrongLength { expected, got } => {
                write!(f, "chunk length {got} where the plan says {expected}")
            }
            StripeError::Conflict { offset } => {
                write!(f, "conflicting duplicate chunk at offset {offset}")
            }
            StripeError::Incomplete { missing } => {
                write!(f, "transfer incomplete: {missing} chunks missing")
            }
        }
    }
}

impl std::error::Error for StripeError {}

impl From<StripeError> for io::Error {
    fn from(e: StripeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// How one logical payload is dealt onto parallel flows: fixed-size
/// chunks, round-robin. Chunk `i` lives at offset `i * chunk`, rides
/// stripe `i % stripes` as that stripe's sequence number
/// `i / stripes`. Pure arithmetic — every party derives the same
/// layout from `(total_len, stripes, chunk)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripePlan {
    total_len: u64,
    stripes: u16,
    chunk: u32,
}

impl StripePlan {
    pub fn new(total_len: u64, stripes: u16, chunk: u32) -> Result<StripePlan, StripeError> {
        if stripes == 0 || stripes > MAX_STRIPES {
            return Err(StripeError::BadPlan {
                reason: "stripe count out of range",
            });
        }
        if chunk == 0 || chunk > MAX_CHUNK_BYTES {
            return Err(StripeError::BadPlan {
                reason: "chunk size out of range",
            });
        }
        if total_len > MAX_TRANSFER_BYTES {
            return Err(StripeError::BadPlan {
                reason: "transfer too large to stage",
            });
        }
        let plan = StripePlan {
            total_len,
            stripes,
            chunk,
        };
        if plan.chunk_count() > MAX_CHUNKS {
            return Err(StripeError::BadPlan {
                reason: "too many chunks",
            });
        }
        Ok(plan)
    }

    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    pub fn stripes(&self) -> u16 {
        self.stripes
    }

    pub fn chunk_bytes(&self) -> u32 {
        self.chunk
    }

    /// Number of chunks in the whole transfer.
    pub fn chunk_count(&self) -> u64 {
        self.total_len.div_ceil(u64::from(self.chunk))
    }

    /// Stripe carrying global chunk `idx`.
    pub fn stripe_of(&self, idx: u64) -> u16 {
        (idx % u64::from(self.stripes)) as u16
    }

    /// Per-stripe sequence number of global chunk `idx`.
    pub fn seq_of(&self, idx: u64) -> u64 {
        idx / u64::from(self.stripes)
    }

    /// Byte offset of global chunk `idx`.
    pub fn offset_of(&self, idx: u64) -> u64 {
        idx * u64::from(self.chunk)
    }

    /// Byte length of global chunk `idx` (the tail chunk may be short).
    pub fn len_of(&self, idx: u64) -> u32 {
        let start = self.offset_of(idx);
        let end = (start + u64::from(self.chunk)).min(self.total_len);
        (end - start) as u32
    }

    /// Global chunk index of `(stripe, seq)`, if the plan contains it.
    pub fn chunk_index(&self, stripe: u16, seq: u64) -> Option<u64> {
        if stripe >= self.stripes {
            return None;
        }
        let idx = seq
            .checked_mul(u64::from(self.stripes))?
            .checked_add(u64::from(stripe))?;
        (idx < self.chunk_count()).then_some(idx)
    }

    /// Number of chunks dealt onto `stripe`.
    pub fn chunks_on(&self, stripe: u16) -> u64 {
        if stripe >= self.stripes {
            return 0;
        }
        let n = self.chunk_count();
        let s = u64::from(self.stripes);
        let extra = u64::from(n % s > u64::from(stripe));
        n / s + extra
    }

    /// `(seq, offset, len)` of every chunk on `stripe`, in send order.
    pub fn iter_stripe(&self, stripe: u16) -> impl Iterator<Item = (u64, u64, u32)> + '_ {
        (0..self.chunks_on(stripe)).map(move |seq| {
            // chunks_on bounds seq, so the index is always present.
            let idx = seq * u64::from(self.stripes) + u64::from(stripe);
            (seq, self.offset_of(idx), self.len_of(idx))
        })
    }

    /// Everything lane `stripe` puts on its flow, in order: `Open`, the
    /// lane's chunks of `payload` by `seq`, `Fin`. Every sender (real
    /// sockets, gridmpi packets, sim actors) and the model checker walk
    /// this one sequence; a failed-over lane walks it again from the
    /// top.
    pub fn lane_frames<'a>(
        &'a self,
        payload: &'a [u8],
        transfer: u64,
        tag: i32,
        stripe: u16,
    ) -> impl Iterator<Item = StripeFrame> + 'a {
        let open = StripeFrame::Open {
            transfer,
            stripe,
            stripes: self.stripes,
            chunk: self.chunk,
            total_len: self.total_len,
            tag,
        };
        let data = self
            .iter_stripe(stripe)
            .map(move |(seq, offset, len)| StripeFrame::Data {
                transfer,
                stripe,
                seq,
                offset,
                bytes: payload[offset as usize..offset as usize + len as usize].to_vec(),
            });
        let fin = StripeFrame::Fin {
            transfer,
            stripe,
            chunks: self.chunks_on(stripe),
        };
        std::iter::once(open)
            .chain(data)
            .chain(std::iter::once(fin))
    }
}

/// One frame of the bulk-data plane. Framing mirrors the control
/// protocol (`u32` BE length, type byte, body), but these frames ride
/// *inside* a relayed pipe: relays forward them as opaque bytes and
/// only the transfer endpoints parse them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StripeFrame {
    /// First frame on every stripe flow: the full transfer geometry,
    /// so any one surviving flow suffices to build the reassembler.
    /// Re-sent after a stripe failover; repeats must agree.
    Open {
        transfer: u64,
        stripe: u16,
        stripes: u16,
        chunk: u32,
        total_len: u64,
        /// Application tag delivered with the reassembled payload
        /// (gridmpi's message tag; 0 where unused).
        tag: i32,
    },
    /// One chunk. `(stripe, seq)` names it in the plan; `offset` is
    /// carried redundantly and cross-checked against the plan's
    /// arithmetic on receipt.
    Data {
        transfer: u64,
        stripe: u16,
        seq: u64,
        offset: u64,
        bytes: Vec<u8>,
    },
    /// The sender finished this stripe; `chunks` is the count it sent
    /// (cross-checked against the plan).
    Fin {
        transfer: u64,
        stripe: u16,
        chunks: u64,
    },
    /// Receiver → sender acknowledgement: the whole transfer
    /// reassembled to `total_len` bytes.
    Done { transfer: u64, total_len: u64 },
}

impl StripeFrame {
    /// The transfer id every frame variant carries.
    pub fn transfer_id(&self) -> u64 {
        match self {
            StripeFrame::Open { transfer, .. }
            | StripeFrame::Data { transfer, .. }
            | StripeFrame::Fin { transfer, .. }
            | StripeFrame::Done { transfer, .. } => *transfer,
        }
    }
}

const T_OPEN: u8 = 1;
const T_DATA: u8 = 2;
const T_FIN: u8 = 3;
const T_DONE: u8 = 4;

/// Reject a declared stripe-frame length before any allocation sized
/// by it (the prefix is peer-controlled).
fn check_stripe_frame_len(len: u32) -> io::Result<()> {
    if len == 0 || len > MAX_STRIPE_FRAME {
        return Err(bad(&format!(
            "bad stripe frame length {len} (cap {MAX_STRIPE_FRAME} bytes)"
        )));
    }
    Ok(())
}

impl StripeFrame {
    /// Encode the frame body (type byte + fields, no length prefix).
    pub fn encode_body(&self) -> Result<Vec<u8>, StripeError> {
        let mut body = Vec::with_capacity(40);
        match self {
            StripeFrame::Open {
                transfer,
                stripe,
                stripes,
                chunk,
                total_len,
                tag,
            } => {
                body.push(T_OPEN);
                put_u64(&mut body, *transfer);
                put_u16(&mut body, *stripe);
                put_u16(&mut body, *stripes);
                put_u32(&mut body, *chunk);
                put_u64(&mut body, *total_len);
                body.extend_from_slice(&tag.to_be_bytes());
            }
            StripeFrame::Data {
                transfer,
                stripe,
                seq,
                offset,
                bytes,
            } => {
                if bytes.len() > MAX_CHUNK_BYTES as usize {
                    return Err(StripeError::WrongLength {
                        expected: MAX_CHUNK_BYTES,
                        got: bytes.len() as u64,
                    });
                }
                body.reserve(bytes.len());
                body.push(T_DATA);
                put_u64(&mut body, *transfer);
                put_u16(&mut body, *stripe);
                put_u64(&mut body, *seq);
                put_u64(&mut body, *offset);
                body.extend_from_slice(bytes);
            }
            StripeFrame::Fin {
                transfer,
                stripe,
                chunks,
            } => {
                body.push(T_FIN);
                put_u64(&mut body, *transfer);
                put_u16(&mut body, *stripe);
                put_u64(&mut body, *chunks);
            }
            StripeFrame::Done {
                transfer,
                total_len,
            } => {
                body.push(T_DONE);
                put_u64(&mut body, *transfer);
                put_u64(&mut body, *total_len);
            }
        }
        Ok(body)
    }

    /// Encode with the `u32` BE length prefix for stream transports.
    pub fn encode(&self) -> Result<Vec<u8>, StripeError> {
        let body = self.encode_body()?;
        let mut framed = Vec::with_capacity(4 + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
        framed.extend_from_slice(&body);
        Ok(framed)
    }

    /// Decode one frame body (no length prefix). Total: every read is
    /// bounds-checked and every declared size capped.
    pub fn decode_body(body: &[u8]) -> io::Result<StripeFrame> {
        if body.len() > MAX_STRIPE_FRAME as usize {
            return Err(bad("oversize stripe frame body"));
        }
        let mut cur = Cursor { rest: body };
        if cur.rest.is_empty() {
            return Err(bad("empty stripe frame"));
        }
        let t = cur.get_u8()?;
        let frame = match t {
            T_OPEN => {
                let transfer = cur.get_u64()?;
                let stripe = cur.get_u16()?;
                let stripes = cur.get_u16()?;
                let chunk = cur.get_u32()?;
                let total_len = cur.get_u64()?;
                let tag = cur.get_i32()?;
                StripeFrame::Open {
                    transfer,
                    stripe,
                    stripes,
                    chunk,
                    total_len,
                    tag,
                }
            }
            T_DATA => {
                let transfer = cur.get_u64()?;
                let stripe = cur.get_u16()?;
                let seq = cur.get_u64()?;
                let offset = cur.get_u64()?;
                // The chunk body is the remainder of the frame; the
                // frame cap already bounds it.
                let bytes = cur.take(cur.rest.len())?.to_vec();
                StripeFrame::Data {
                    transfer,
                    stripe,
                    seq,
                    offset,
                    bytes,
                }
            }
            T_FIN => {
                let transfer = cur.get_u64()?;
                let stripe = cur.get_u16()?;
                let chunks = cur.get_u64()?;
                StripeFrame::Fin {
                    transfer,
                    stripe,
                    chunks,
                }
            }
            T_DONE => {
                let transfer = cur.get_u64()?;
                let total_len = cur.get_u64()?;
                StripeFrame::Done {
                    transfer,
                    total_len,
                }
            }
            other => return Err(bad(&format!("unknown stripe frame type {other}"))),
        };
        if !cur.rest.is_empty() {
            return Err(bad("trailing bytes in stripe frame"));
        }
        Ok(frame)
    }

    /// Write one framed stripe frame to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let framed = self.encode().map_err(io::Error::from)?;
        w.write_all(&framed)?;
        w.flush()
    }

    /// Read one framed stripe frame from a stream.
    pub fn read_from(r: &mut impl Read) -> io::Result<StripeFrame> {
        let mut len = [0u8; 4];
        // Generic `Read`; socket callers own the deadline.
        r.read_exact(&mut len)?; // lint:allow(deadline-io)
        let len = u32::from_be_bytes(len);
        // Cap before the body allocation: the prefix is peer-controlled.
        check_stripe_frame_len(len)?;
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?; // lint:allow(deadline-io)
        StripeFrame::decode_body(&body)
    }
}

/// Outcome of feeding one frame to the [`Reassembler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// New coverage (or a benign repeat of `Open`/`Fin`).
    Fresh,
    /// A byte-identical duplicate delivery, absorbed.
    Duplicate,
    /// This frame completed the transfer — reported exactly once.
    Complete,
}

/// Receiver-side reassembly of one striped transfer.
///
/// Chunks may arrive in any interleaving across stripes, and any
/// chunk may arrive more than once (a failed-over stripe re-sends
/// from seq 0). Invariants the `wacs-check` `stripe` model verifies
/// exhaustively: completion is reported exactly once, if and only if
/// every offset is covered; duplicates never change state; a
/// conflicting duplicate is a typed error.
pub struct Reassembler {
    transfer: u64,
    tag: i32,
    plan: StripePlan,
    data: Vec<u8>,
    received: Vec<bool>,
    received_count: u64,
    duplicates: u64,
    completed: bool,
}

impl Reassembler {
    pub fn new(transfer: u64, tag: i32, plan: StripePlan) -> Reassembler {
        Reassembler {
            transfer,
            tag,
            plan,
            data: vec![0; plan.total_len() as usize],
            received: vec![false; plan.chunk_count() as usize],
            received_count: 0,
            duplicates: 0,
            completed: false,
        }
    }

    /// Build from the geometry carried by an [`StripeFrame::Open`].
    pub fn open(frame: &StripeFrame) -> Result<Reassembler, StripeError> {
        let StripeFrame::Open {
            transfer,
            stripes,
            chunk,
            total_len,
            tag,
            ..
        } = frame
        else {
            return Err(StripeError::NotOpened);
        };
        let plan = StripePlan::new(*total_len, *stripes, *chunk)?;
        Ok(Reassembler::new(*transfer, *tag, plan))
    }

    pub fn transfer(&self) -> u64 {
        self.transfer
    }

    pub fn tag(&self) -> i32 {
        self.tag
    }

    pub fn plan(&self) -> StripePlan {
        self.plan
    }

    pub fn is_complete(&self) -> bool {
        self.received_count == self.plan.chunk_count()
    }

    /// Chunks accepted so far.
    pub fn covered(&self) -> u64 {
        self.received_count
    }

    /// Byte-identical duplicate deliveries absorbed so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Per-stripe sequence numbers still missing — what a failover
    /// retransmit must (at minimum) re-send.
    pub fn missing_on(&self, stripe: u16) -> Vec<u64> {
        self.plan
            .iter_stripe(stripe)
            .filter_map(|(seq, _, _)| {
                let idx = self.plan.chunk_index(stripe, seq)?;
                (!self.received[idx as usize]).then_some(seq)
            })
            .collect()
    }

    /// Feed one frame. `Open` repeats must agree with the installed
    /// geometry; `Data` is offset-deduplicated; `Fin` cross-checks
    /// the sender's chunk count. [`Accept::Complete`] is returned for
    /// exactly one call — the one that covers the last offset (or the
    /// first `Fin` of an empty transfer).
    pub fn accept(&mut self, frame: &StripeFrame) -> Result<Accept, StripeError> {
        match frame {
            StripeFrame::Open {
                transfer,
                stripes,
                chunk,
                total_len,
                tag,
                ..
            } => {
                self.check_transfer(*transfer)?;
                if *stripes != self.plan.stripes()
                    || *chunk != self.plan.chunk_bytes()
                    || *total_len != self.plan.total_len()
                    || *tag != self.tag
                {
                    return Err(StripeError::GeometryMismatch);
                }
                self.maybe_complete()
            }
            StripeFrame::Data {
                transfer,
                stripe,
                seq,
                offset,
                bytes,
            } => {
                self.check_transfer(*transfer)?;
                self.accept_data(*stripe, *seq, *offset, bytes)
            }
            StripeFrame::Fin {
                transfer,
                stripe,
                chunks,
            } => {
                self.check_transfer(*transfer)?;
                if *stripe >= self.plan.stripes() {
                    return Err(StripeError::StripeOutOfRange {
                        stripe: *stripe,
                        stripes: self.plan.stripes(),
                    });
                }
                if *chunks != self.plan.chunks_on(*stripe) {
                    return Err(StripeError::WrongLength {
                        expected: self.plan.chunks_on(*stripe) as u32,
                        got: *chunks,
                    });
                }
                self.maybe_complete()
            }
            StripeFrame::Done { transfer, .. } => {
                self.check_transfer(*transfer)?;
                Ok(Accept::Fresh)
            }
        }
    }

    /// Accept one chunk: plan-checked, offset-deduplicated,
    /// conflict-detecting.
    pub fn accept_data(
        &mut self,
        stripe: u16,
        seq: u64,
        offset: u64,
        bytes: &[u8],
    ) -> Result<Accept, StripeError> {
        if stripe >= self.plan.stripes() {
            return Err(StripeError::StripeOutOfRange {
                stripe,
                stripes: self.plan.stripes(),
            });
        }
        let Some(idx) = self.plan.chunk_index(stripe, seq) else {
            return Err(StripeError::SeqOutOfRange { stripe, seq });
        };
        let expected_offset = self.plan.offset_of(idx);
        if offset != expected_offset {
            return Err(StripeError::WrongOffset {
                expected: expected_offset,
                got: offset,
            });
        }
        let expected_len = self.plan.len_of(idx);
        if bytes.len() as u64 != u64::from(expected_len) {
            return Err(StripeError::WrongLength {
                expected: expected_len,
                got: bytes.len() as u64,
            });
        }
        let start = offset as usize;
        let end = start + bytes.len();
        if self.received[idx as usize] {
            if &self.data[start..end] != bytes {
                return Err(StripeError::Conflict { offset });
            }
            self.duplicates += 1;
            return Ok(Accept::Duplicate);
        }
        self.data[start..end].copy_from_slice(bytes);
        self.received[idx as usize] = true;
        self.received_count += 1;
        self.maybe_complete()
    }

    fn check_transfer(&self, transfer: u64) -> Result<(), StripeError> {
        if transfer != self.transfer {
            return Err(StripeError::WrongTransfer {
                got: transfer,
                want: self.transfer,
            });
        }
        Ok(())
    }

    fn maybe_complete(&mut self) -> Result<Accept, StripeError> {
        if self.is_complete() && !self.completed {
            self.completed = true;
            return Ok(Accept::Complete);
        }
        Ok(Accept::Fresh)
    }

    /// The reassembled payload, if every offset is covered.
    pub fn payload(&self) -> Result<&[u8], StripeError> {
        if !self.is_complete() {
            return Err(StripeError::Incomplete {
                missing: self.plan.chunk_count() - self.received_count,
            });
        }
        Ok(&self.data)
    }

    /// Consume into the reassembled payload.
    pub fn into_payload(self) -> Result<Vec<u8>, StripeError> {
        if !self.is_complete() {
            return Err(StripeError::Incomplete {
                missing: self.plan.chunk_count() - self.received_count,
            });
        }
        Ok(self.data)
    }
}

/// Registry handles for the bulk-data plane, shared by every layer
/// that stripes (gass staging, gridmpi large messages, sim actors).
#[derive(Clone)]
pub struct StripeStats {
    pub chunks_sent: Counter,
    pub chunks_received: Counter,
    pub dup_chunks: Counter,
    pub conflicts: Counter,
    /// Transfers reassembled to completion.
    pub transfers: Counter,
    /// Stripe flows re-dialed after a mid-transfer death.
    pub failovers: Counter,
    /// Chunks re-sent by failover retransmits.
    pub resent_chunks: Counter,
    /// Wall/virtual time one stripe took, send start → last chunk.
    pub stripe_ns: Histogram,
    /// Per-stripe goodput (payload bytes per second).
    pub stripe_bytes_per_sec: Histogram,
    /// Whole-transfer duration, first Open → completion.
    pub transfer_ns: Histogram,
}

impl StripeStats {
    pub fn in_registry(registry: &Registry) -> StripeStats {
        StripeStats {
            chunks_sent: registry.counter("wacs.stripe.chunks_sent"),
            chunks_received: registry.counter("wacs.stripe.chunks_received"),
            dup_chunks: registry.counter("wacs.stripe.dup_chunks"),
            conflicts: registry.counter("wacs.stripe.conflicts"),
            transfers: registry.counter("wacs.stripe.transfers"),
            failovers: registry.counter("wacs.stripe.failovers"),
            resent_chunks: registry.counter("wacs.stripe.resent_chunks"),
            stripe_ns: registry.histogram("wacs.stripe.stripe_ns"),
            stripe_bytes_per_sec: registry.histogram("wacs.stripe.stripe_bytes_per_sec"),
            transfer_ns: registry.histogram("wacs.stripe.transfer_ns"),
        }
    }
}

/// Outcome of a [`send_striped`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReport {
    /// Payload bytes carried (once; retransmits not counted).
    pub bytes: u64,
    /// Chunks in the plan.
    pub chunks: u64,
    /// Stripe flows that needed a fresh dial after an I/O failure.
    pub redials: u64,
}

/// Where one lane's frames go: any byte stream (length-prefixed
/// frames), or a transport that wraps each frame its own way.
pub trait LaneSink {
    fn send_frame(&mut self, frame: &StripeFrame) -> io::Result<()>;
}

impl<W: Write> LaneSink for W {
    fn send_frame(&mut self, frame: &StripeFrame) -> io::Result<()> {
        frame.write_to(self)
    }
}

/// Send `payload` as `plan.stripes()` parallel lanes, one thread per
/// lane. `dial(stripe, attempt)` opens (or re-opens) the lane's sink;
/// on a mid-lane failure the lane is re-dialed up to `max_redials`
/// times and replayed whole ([`StripePlan::lane_frames`]) — the
/// receiver's offset dedup absorbs whatever got through twice. A lane
/// the plan deals no chunk to is never dialed, except lane 0, so an
/// empty transfer still announces its geometry.
pub fn send_striped<S, D>(
    payload: &[u8],
    plan: &StripePlan,
    transfer: u64,
    tag: i32,
    max_redials: u32,
    stats: Option<&StripeStats>,
    dial: D,
) -> io::Result<SendReport>
where
    S: LaneSink,
    D: Fn(u16, u32) -> io::Result<S> + Sync,
{
    if payload.len() as u64 != plan.total_len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "payload is {} bytes but the plan says {}",
                payload.len(),
                plan.total_len()
            ),
        ));
    }
    let send_lane = |stripe: u16| -> io::Result<u64> {
        let mut attempt = 0u32;
        loop {
            let sent = dial(stripe, attempt).and_then(|mut sink| {
                plan.lane_frames(payload, transfer, tag, stripe)
                    .try_for_each(|frame| sink.send_frame(&frame))
            });
            match sent {
                Ok(()) => return Ok(u64::from(attempt)),
                Err(_) if attempt < max_redials => {
                    attempt += 1;
                    if let Some(s) = stats {
                        s.failovers.inc();
                        s.resent_chunks.add(plan.chunks_on(stripe));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    };
    let send_lane = &send_lane;
    let redials = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..plan.stripes())
            .filter(|&stripe| stripe == 0 || plan.chunks_on(stripe) > 0)
            .map(|stripe| scope.spawn(move || send_lane(stripe)))
            .collect();
        let mut redials = 0u64;
        for lane in lanes {
            redials += lane
                .join()
                .map_err(|_| io::Error::other("stripe sender thread panicked"))??;
        }
        Ok::<u64, io::Error>(redials)
    })?;
    if let Some(s) = stats {
        s.chunks_sent.add(plan.chunk_count());
    }
    Ok(SendReport {
        bytes: plan.total_len(),
        chunks: plan.chunk_count(),
        redials,
    })
}

/// Adapt a `TcpStream`-producing lane dialer so every lane (and every
/// redial attempt) passes through an optional [`DialHook`] at
/// [`DialLeg::StripeLane`] — the seam the chaos layer uses to fault a
/// single lane of a striped transfer. With `hook == None` this is the
/// plain dialer, unchanged.
pub fn interposed_lane_dial<'a, D>(
    hook: Option<&'a DialHook>,
    from: &'a str,
    dial: D,
) -> impl Fn(u16, u32) -> io::Result<TcpStream> + Sync + 'a
where
    D: Fn(u16, u32) -> io::Result<TcpStream> + Sync + 'a,
{
    move |stripe, attempt| {
        interpose(
            hook,
            DialLeg::StripeLane,
            from,
            "stripe",
            stripe,
            dial(stripe, attempt),
        )
    }
}

/// Shared receiver for one striped transfer on the real-socket path:
/// each stripe flow gets a [`StripeReceiver::feed`] call (typically
/// one thread per accepted connection), all feeding one reassembler.
#[derive(Clone, Default)]
pub struct StripeReceiver {
    state: Arc<Mutex<RxShared>>,
}

#[derive(Default)]
struct RxShared {
    rx: Option<Reassembler>,
    done: Option<(i32, Vec<u8>)>,
    duplicates: u64,
}

impl StripeReceiver {
    pub fn new() -> StripeReceiver {
        StripeReceiver::default()
    }

    /// Drive one stripe flow until its `Fin` (or EOF). Returns `true`
    /// if this flow's frames completed the whole transfer.
    pub fn feed<R: Read>(&self, mut r: R, stats: Option<&StripeStats>) -> io::Result<bool> {
        let mut completed = false;
        loop {
            let frame = match StripeFrame::read_from(&mut r) {
                Ok(f) => f,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e),
            };
            let fin = matches!(frame, StripeFrame::Fin { .. });
            let outcome = self.ingest(&frame).map_err(io::Error::from)?;
            match outcome {
                Accept::Complete => {
                    completed = true;
                    if let Some(s) = stats {
                        s.transfers.inc();
                    }
                }
                Accept::Duplicate => {
                    if let Some(s) = stats {
                        s.dup_chunks.inc();
                    }
                }
                Accept::Fresh => {
                    if let (Some(s), StripeFrame::Data { .. }) = (stats, &frame) {
                        s.chunks_received.inc();
                    }
                }
            }
            if fin {
                break;
            }
        }
        Ok(completed)
    }

    /// Feed one already-decoded frame (the sim path).
    pub fn ingest(&self, frame: &StripeFrame) -> Result<Accept, StripeError> {
        let mut st = self.state.lock();
        if st.rx.is_none() {
            // Geometry must arrive before data on every flow.
            st.rx = Some(Reassembler::open(frame)?);
        }
        let Some(rx) = st.rx.as_mut() else {
            return Err(StripeError::NotOpened);
        };
        let outcome = rx.accept(frame)?;
        match outcome {
            Accept::Complete => {
                let tag = rx.tag();
                let payload = rx.payload()?.to_vec();
                st.done = Some((tag, payload));
            }
            Accept::Duplicate => st.duplicates += 1,
            Accept::Fresh => {}
        }
        Ok(outcome)
    }

    /// The completed `(tag, payload)`, once every offset is covered.
    pub fn result(&self) -> Option<(i32, Vec<u8>)> {
        self.state.lock().done.clone()
    }

    /// Duplicate deliveries absorbed across all flows.
    pub fn duplicates(&self) -> u64 {
        self.state.lock().duplicates
    }

    /// Per-stripe holes, for failover diagnostics.
    pub fn missing_on(&self, stripe: u16) -> Vec<u64> {
        self.state
            .lock()
            .rx
            .as_ref()
            .map(|rx| rx.missing_on(stripe))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn plan_arithmetic_covers_every_byte_exactly_once() {
        for (len, stripes, chunk) in [
            (0u64, 1u16, 8u32),
            (1, 1, 8),
            (64, 4, 8),
            (65, 4, 8),
            (63, 4, 8),
            (1000, 3, 7),
            (5, 8, 4),
        ] {
            let plan = StripePlan::new(len, stripes, chunk).unwrap();
            let mut covered = vec![0u32; len as usize];
            let mut chunks_seen = 0u64;
            for s in 0..stripes {
                for (seq, offset, clen) in plan.iter_stripe(s) {
                    let idx = plan.chunk_index(s, seq).unwrap();
                    assert_eq!(plan.stripe_of(idx), s);
                    assert_eq!(plan.seq_of(idx), seq);
                    for b in offset..offset + u64::from(clen) {
                        covered[b as usize] += 1;
                    }
                    chunks_seen += 1;
                }
                assert_eq!(plan.chunks_on(s), plan.iter_stripe(s).count() as u64);
            }
            assert_eq!(chunks_seen, plan.chunk_count());
            assert!(covered.iter().all(|&c| c == 1), "{len}/{stripes}/{chunk}");
        }
    }

    #[test]
    fn plan_rejects_degenerate_geometry() {
        assert!(StripePlan::new(10, 0, 8).is_err());
        assert!(StripePlan::new(10, MAX_STRIPES + 1, 8).is_err());
        assert!(StripePlan::new(10, 1, 0).is_err());
        assert!(StripePlan::new(10, 1, MAX_CHUNK_BYTES + 1).is_err());
        assert!(StripePlan::new(MAX_TRANSFER_BYTES + 1, 1, 1024).is_err());
        // Chunk-count bomb: tiny chunks over a big transfer.
        assert!(StripePlan::new(MAX_TRANSFER_BYTES, 1, 1).is_err());
    }

    #[test]
    fn frames_roundtrip() {
        for f in [
            StripeFrame::Open {
                transfer: 7,
                stripe: 2,
                stripes: 4,
                chunk: 4096,
                total_len: 1 << 20,
                tag: -3,
            },
            StripeFrame::Data {
                transfer: 7,
                stripe: 2,
                seq: 9,
                offset: 1234,
                bytes: payload(100),
            },
            StripeFrame::Data {
                transfer: 0,
                stripe: 0,
                seq: 0,
                offset: 0,
                bytes: vec![],
            },
            StripeFrame::Fin {
                transfer: 7,
                stripe: 2,
                chunks: 32,
            },
            StripeFrame::Done {
                transfer: 7,
                total_len: 1 << 20,
            },
        ] {
            let framed = f.encode().unwrap();
            let len = u32::from_be_bytes(framed[0..4].try_into().unwrap());
            assert_eq!(len as usize, framed.len() - 4);
            assert_eq!(StripeFrame::decode_body(&framed[4..]).unwrap(), f);
            let mut cur = std::io::Cursor::new(framed);
            assert_eq!(StripeFrame::read_from(&mut cur).unwrap(), f);
        }
    }

    #[test]
    fn decode_rejects_garbage_and_oversize() {
        assert!(StripeFrame::decode_body(&[]).is_err());
        assert!(StripeFrame::decode_body(&[99]).is_err());
        let mut f = StripeFrame::Done {
            transfer: 1,
            total_len: 2,
        }
        .encode()
        .unwrap();
        f.push(0);
        assert!(StripeFrame::decode_body(&f[4..]).is_err());
        // Oversize declared length is refused before allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_STRIPE_FRAME + 1).to_be_bytes());
        let mut cur = std::io::Cursor::new(buf);
        assert!(StripeFrame::read_from(&mut cur).is_err());
        // Oversize chunk is refused at encode time.
        let e = StripeFrame::Data {
            transfer: 0,
            stripe: 0,
            seq: 0,
            offset: 0,
            bytes: vec![0; MAX_CHUNK_BYTES as usize + 1],
        }
        .encode()
        .unwrap_err();
        assert!(matches!(e, StripeError::WrongLength { .. }));
    }

    fn data_frame(plan: &StripePlan, pl: &[u8], idx: u64) -> StripeFrame {
        let offset = plan.offset_of(idx);
        let len = plan.len_of(idx);
        StripeFrame::Data {
            transfer: 1,
            stripe: plan.stripe_of(idx),
            seq: plan.seq_of(idx),
            offset,
            bytes: pl[offset as usize..(offset + u64::from(len)) as usize].to_vec(),
        }
    }

    #[test]
    fn reassembles_any_order_with_duplicates() {
        let pl = payload(100);
        let plan = StripePlan::new(100, 4, 8).unwrap();
        let n = plan.chunk_count();
        let mut rx = Reassembler::new(1, 0, plan);
        // Reverse order, each chunk delivered twice.
        for idx in (0..n).rev() {
            let f = data_frame(&plan, &pl, idx);
            let first = rx.accept(&f).unwrap();
            if idx == 0 {
                assert_eq!(first, Accept::Complete);
            } else {
                assert_eq!(first, Accept::Fresh);
            }
            assert_eq!(rx.accept(&f).unwrap(), Accept::Duplicate);
        }
        assert_eq!(rx.duplicates(), n);
        assert_eq!(rx.payload().unwrap(), &pl[..]);
        assert!(rx.missing_on(0).is_empty());
    }

    #[test]
    fn conflicting_duplicate_is_a_typed_error() {
        let pl = payload(64);
        let plan = StripePlan::new(64, 2, 8).unwrap();
        let mut rx = Reassembler::new(1, 0, plan);
        rx.accept(&data_frame(&plan, &pl, 0)).unwrap();
        let mut evil = pl.clone();
        evil[3] ^= 0xFF;
        let err = rx.accept(&data_frame(&plan, &evil, 0)).unwrap_err();
        assert_eq!(err, StripeError::Conflict { offset: 0 });
    }

    #[test]
    fn geometry_violations_are_typed_errors() {
        let pl = payload(64);
        let plan = StripePlan::new(64, 2, 8).unwrap();
        let mut rx = Reassembler::new(1, 5, plan);
        // Wrong transfer id.
        assert_eq!(
            rx.accept(&StripeFrame::Fin {
                transfer: 2,
                stripe: 0,
                chunks: 4
            })
            .unwrap_err(),
            StripeError::WrongTransfer { got: 2, want: 1 }
        );
        // Out-of-range stripe.
        assert!(matches!(
            rx.accept_data(2, 0, 0, &pl[0..8]).unwrap_err(),
            StripeError::StripeOutOfRange { .. }
        ));
        // Seq past the plan.
        assert!(matches!(
            rx.accept_data(0, 99, 0, &pl[0..8]).unwrap_err(),
            StripeError::SeqOutOfRange { .. }
        ));
        // Offset disagreeing with the arithmetic.
        assert!(matches!(
            rx.accept_data(0, 1, 8, &pl[0..8]).unwrap_err(),
            StripeError::WrongOffset { .. }
        ));
        // Wrong chunk length.
        assert!(matches!(
            rx.accept_data(0, 0, 0, &pl[0..7]).unwrap_err(),
            StripeError::WrongLength { .. }
        ));
        // Re-open with different geometry.
        assert_eq!(
            rx.accept(&StripeFrame::Open {
                transfer: 1,
                stripe: 0,
                stripes: 3,
                chunk: 8,
                total_len: 64,
                tag: 5,
            })
            .unwrap_err(),
            StripeError::GeometryMismatch
        );
        // Incomplete payload is refused, typed.
        assert!(matches!(
            rx.payload().unwrap_err(),
            StripeError::Incomplete { .. }
        ));
    }

    #[test]
    fn missing_on_names_the_holes() {
        let pl = payload(64);
        let plan = StripePlan::new(64, 2, 8).unwrap();
        let mut rx = Reassembler::new(1, 0, plan);
        // Deliver stripe 1 fully, stripe 0 only seq 1.
        for (seq, _, _) in plan.iter_stripe(1).collect::<Vec<_>>() {
            let idx = plan.chunk_index(1, seq).unwrap();
            rx.accept(&data_frame(&plan, &pl, idx)).unwrap();
        }
        let idx = plan.chunk_index(0, 1).unwrap();
        rx.accept(&data_frame(&plan, &pl, idx)).unwrap();
        assert!(rx.missing_on(1).is_empty());
        assert_eq!(rx.missing_on(0), vec![0, 2, 3]);
    }

    #[test]
    fn empty_transfer_completes_on_fin() {
        let plan = StripePlan::new(0, 2, 8).unwrap();
        let mut rx = Reassembler::new(9, 0, plan);
        assert!(rx.is_complete());
        assert_eq!(
            rx.accept(&StripeFrame::Fin {
                transfer: 9,
                stripe: 0,
                chunks: 0
            })
            .unwrap(),
            Accept::Complete
        );
        assert_eq!(rx.payload().unwrap(), &[] as &[u8]);
    }

    /// A writer that fails after a byte budget — exercises the
    /// mid-stripe redial path of `send_striped`.
    struct FlakySink {
        out: Arc<Mutex<Vec<Vec<u8>>>>,
        slot: usize,
        budget: Option<usize>,
        written: usize,
    }

    impl Write for FlakySink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if let Some(b) = self.budget {
                if self.written + buf.len() > b {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "flaky"));
                }
            }
            self.written += buf.len();
            self.out.lock()[self.slot].extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_striped_feeds_receiver_byte_identically() {
        let pl = payload(10_000);
        let plan = StripePlan::new(pl.len() as u64, 4, 1024).unwrap();
        let sinks: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        for _ in 0..8 {
            sinks.lock().push(Vec::new());
        }
        let sinks2 = sinks.clone();
        let report = send_striped(&pl, &plan, 42, 3, 0, None, move |stripe, attempt| {
            assert_eq!(attempt, 0);
            Ok(FlakySink {
                out: sinks2.clone(),
                slot: usize::from(stripe),
                budget: None,
                written: 0,
            })
        })
        .unwrap();
        assert_eq!(report.bytes, pl.len() as u64);
        assert_eq!(report.redials, 0);
        // Feed the captured streams back in reverse stripe order.
        let rx = StripeReceiver::new();
        let streams = sinks.lock().clone();
        for s in (0..4).rev() {
            rx.feed(std::io::Cursor::new(streams[s].clone()), None)
                .unwrap();
        }
        let (tag, got) = rx.result().unwrap();
        assert_eq!(tag, 3);
        assert_eq!(got, pl);
        assert_eq!(rx.duplicates(), 0);
    }

    #[test]
    fn send_striped_redials_and_receiver_absorbs_duplicates() {
        let pl = payload(6_000);
        let plan = StripePlan::new(pl.len() as u64, 2, 512).unwrap();
        // Stripe 1's first attempt dies mid-stream; the retry succeeds.
        let sinks: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(vec![Vec::new(); 4]));
        let sinks2 = sinks.clone();
        let report = send_striped(&pl, &plan, 7, 0, 2, None, move |stripe, attempt| {
            let slot = usize::from(stripe) * 2 + attempt as usize;
            Ok(FlakySink {
                out: sinks2.clone(),
                slot,
                budget: (stripe == 1 && attempt == 0).then_some(900),
                written: 0,
            })
        })
        .unwrap();
        assert_eq!(report.redials, 1);
        let rx = StripeReceiver::new();
        let streams = sinks.lock().clone();
        // Feed every stream, including the truncated first attempt —
        // its chunks arrive twice and must be absorbed, not doubled.
        for s in streams {
            rx.feed(std::io::Cursor::new(s), None).unwrap();
        }
        let (_, got) = rx.result().unwrap();
        assert_eq!(got, pl);
        assert!(rx.duplicates() >= 1);
    }

    #[test]
    fn chunkless_lanes_are_never_dialed() {
        // 4 B at 64 KiB chunks over two lanes: lane 1 carries nothing,
        // and a receiver may be gone before it would have dialed.
        let dialed: Arc<Mutex<Vec<u16>>> = Arc::default();
        let send = |len: usize, stripes: u16| {
            dialed.lock().clear();
            let pl = payload(len);
            let plan = StripePlan::new(len as u64, stripes, DEFAULT_CHUNK_BYTES).unwrap();
            let sinks: Arc<Mutex<Vec<Vec<u8>>>> =
                Arc::new(Mutex::new(vec![Vec::new(); usize::from(stripes)]));
            let out = sinks.clone();
            send_striped(&pl, &plan, 1, 0, 0, None, |stripe, _| {
                dialed.lock().push(stripe);
                Ok(FlakySink {
                    out: out.clone(),
                    slot: usize::from(stripe),
                    budget: None,
                    written: 0,
                })
            })
            .unwrap();
            let rx = StripeReceiver::new();
            for s in sinks.lock().iter().filter(|s| !s.is_empty()) {
                rx.feed(std::io::Cursor::new(s.clone()), None).unwrap();
            }
            assert_eq!(rx.result().unwrap().1, pl);
            let mut lanes = dialed.lock().clone();
            lanes.sort_unstable();
            lanes
        };
        assert_eq!(send(4, 2), vec![0]);
        assert_eq!(send(DEFAULT_CHUNK_BYTES as usize * 2 + 1, 4), vec![0, 1, 2]);
        // An empty transfer still announces itself, on lane 0 alone.
        assert_eq!(send(0, 3), vec![0]);
    }

    #[test]
    fn feed_ignores_clean_eof_mid_transfer() {
        // A flow that dies before Fin: feed returns Ok(false), the
        // reassembler keeps its partial coverage.
        let pl = payload(64);
        let plan = StripePlan::new(64, 2, 8).unwrap();
        let mut buf = Vec::new();
        StripeFrame::Open {
            transfer: 1,
            stripe: 0,
            stripes: 2,
            chunk: 8,
            total_len: 64,
            tag: 0,
        }
        .write_to(&mut buf)
        .unwrap();
        StripeFrame::Data {
            transfer: 1,
            stripe: 0,
            seq: 0,
            offset: 0,
            bytes: pl[0..8].to_vec(),
        }
        .write_to(&mut buf)
        .unwrap();
        let rx = StripeReceiver::new();
        assert!(!rx.feed(std::io::Cursor::new(buf), None).unwrap());
        assert_eq!(rx.missing_on(0), vec![1, 2, 3]);
        assert_eq!(plan.chunks_on(0), 4);
    }
}
