//! Model of striped-transfer reassembly
//! (`nexus_proxy::stripe::Reassembler`, DESIGN.md §6e).
//!
//! The reassembler is pure, so the model drives the real type: the
//! state is the exact arrival order of chunk deliveries so far, and
//! the checker explores **every** interleaving of stripe arrivals for
//! a small geometry. In each reachable state it rebuilds the real
//! reassembler by replaying that order and demands:
//!
//! * **Reassembly completeness** — `Complete` is reported exactly
//!   once, at the delivery that covers the last offset; the payload
//!   is then byte-identical to the source.
//! * **No completion with a hole** — while any chunk is missing,
//!   `payload()` is a typed `Incomplete` error, `Fin` frames never
//!   complete, and `missing_on` names exactly the holes.
//! * **Duplicate absorption** — re-delivering any received chunk
//!   byte-identically is `Accept::Duplicate` and changes nothing.
//! * **Conflict detection** — a corrupted duplicate is a typed
//!   `Conflict` error, never silent corruption.
//! * **Stripe-failover convergence** — replaying one stripe whole
//!   (`Open` + every `Data` from seq 0 + `Fin`), as a failed-over
//!   sender does, always lands in the fully-covered state for that
//!   stripe with no byte changed and no double completion.
//!
//! Every rebuild runs on poisoned staging: a same-geometry transfer of
//! the complemented source bytes completes and is dropped first, so
//! the recycled buffer's stale bytes differ from the source at every
//! offset and any read of an uncovered byte shows as a wrong payload,
//! a false duplicate or a false conflict.

use crate::explore::{explore_bfs, Model, Report};
use nexus_proxy::stripe::{Accept, Reassembler, StripeError, StripeFrame, StripePlan};

/// Upper bound on chunks across both tiers (state array size).
const MAX_CHUNKS: usize = 12;

/// Transfer id / tag the model uses everywhere.
const TRANSFER: u64 = 9;
const TAG: i32 = 7;

/// Deterministic source byte at `offset`.
fn byte_at(offset: u64) -> u8 {
    ((offset * 31 + 7) % 251) as u8
}

/// The chunk's payload bytes under the plan.
fn chunk_bytes(plan: &StripePlan, idx: u64) -> Vec<u8> {
    let off = plan.offset_of(idx);
    (0..u64::from(plan.len_of(idx)))
        .map(|i| byte_at(off + i))
        .collect()
}

fn data_frame(plan: &StripePlan, idx: u64) -> StripeFrame {
    StripeFrame::Data {
        transfer: TRANSFER,
        stripe: plan.stripe_of(idx),
        seq: plan.seq_of(idx),
        offset: plan.offset_of(idx),
        bytes: chunk_bytes(plan, idx),
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct StState {
    /// Chunk indices in arrival order (first `len` entries valid).
    order: [u8; MAX_CHUNKS],
    len: u8,
}

impl StState {
    fn delivered(&self) -> &[u8] {
        &self.order[..usize::from(self.len)]
    }
}

#[derive(Clone, Debug)]
pub enum StAction {
    /// The next chunk to arrive (any not-yet-delivered index).
    Deliver(u8),
}

pub struct StripeModel {
    pub stripes: u16,
    pub total_len: u64,
    pub chunk: u32,
}

impl StripeModel {
    /// 2 stripes x 5 chunks (uneven tail): 326 arrival orders.
    pub fn smoke() -> Self {
        StripeModel {
            stripes: 2,
            total_len: 18,
            chunk: 4,
        }
    }

    /// 3 stripes x 8 chunks (uneven tail): ~110k arrival orders.
    pub fn deep() -> Self {
        StripeModel {
            stripes: 3,
            total_len: 30,
            chunk: 4,
        }
    }

    fn plan(&self) -> Result<StripePlan, String> {
        StripePlan::new(self.total_len, self.stripes, self.chunk).map_err(|e| e.to_string())
    }

    /// Complete and drop one same-geometry reassembler carrying the
    /// complement of every source byte. Its staging buffer is the one
    /// the process retains, so the next reassembler starts on stale
    /// bytes that differ from the source everywhere (unless a
    /// concurrent test takes the buffer first).
    fn poison_staging(plan: StripePlan) -> Result<(), String> {
        let mut stale = Reassembler::new(TRANSFER, TAG, plan);
        for idx in 0..plan.chunk_count() {
            let bytes: Vec<u8> = chunk_bytes(&plan, idx).iter().map(|b| !b).collect();
            stale
                .accept_data(
                    plan.stripe_of(idx),
                    plan.seq_of(idx),
                    plan.offset_of(idx),
                    &bytes,
                )
                .map_err(|e| format!("poisoning chunk {idx}: {e}"))?;
        }
        Ok(())
    }

    /// Rebuild the real reassembler by replaying the recorded arrival
    /// order on poisoned staging, checking the accept verdict of every
    /// step.
    fn rebuild(&self, s: &StState) -> Result<Reassembler, String> {
        let plan = self.plan()?;
        Self::poison_staging(plan)?;
        let mut rx = Reassembler::new(TRANSFER, TAG, plan);
        let total = plan.chunk_count();
        for (step, &idx) in s.delivered().iter().enumerate() {
            let verdict = rx
                .accept(&data_frame(&plan, u64::from(idx)))
                .map_err(|e| format!("fresh chunk {idx} rejected: {e}"))?;
            let last = step as u64 + 1 == total;
            match verdict {
                Accept::Complete if last => {}
                Accept::Fresh if !last => {}
                other => {
                    return Err(format!(
                        "chunk {idx} at step {step} (of {total}) verdict {other:?}"
                    ));
                }
            }
        }
        Ok(rx)
    }
}

impl Model for StripeModel {
    type State = StState;
    type Action = StAction;

    fn name(&self) -> &'static str {
        "stripe"
    }

    fn initial(&self) -> StState {
        StState {
            order: [0; MAX_CHUNKS],
            len: 0,
        }
    }

    fn actions(&self, s: &StState, out: &mut Vec<StAction>) {
        let Ok(plan) = self.plan() else { return };
        for idx in 0..plan.chunk_count() as u8 {
            if !s.delivered().contains(&idx) {
                out.push(StAction::Deliver(idx));
            }
        }
    }

    fn apply(&self, s: &StState, a: &StAction) -> StState {
        let mut t = *s;
        let StAction::Deliver(idx) = a;
        t.order[usize::from(t.len)] = *idx;
        t.len += 1;
        t
    }

    fn invariant(&self, s: &StState) -> Result<(), String> {
        let plan = self.plan()?;
        let total = plan.chunk_count();
        let mut rx = self.rebuild(s)?;
        let delivered = s.delivered();

        // Coverage accounting matches the arrival record exactly.
        if rx.covered() != delivered.len() as u64 {
            return Err(format!(
                "covered {} after {} deliveries",
                rx.covered(),
                delivered.len()
            ));
        }
        let complete = delivered.len() as u64 == total;
        if rx.is_complete() != complete {
            return Err(format!(
                "is_complete {} with {}/{total} chunks",
                rx.is_complete(),
                delivered.len()
            ));
        }

        // No completion with a hole; completeness gives exact bytes.
        if complete {
            let got = rx.payload().map_err(|e| e.to_string())?;
            let want: Vec<u8> = (0..plan.total_len()).map(byte_at).collect();
            if got != want {
                return Err("complete payload differs from source bytes".into());
            }
        } else {
            let missing = total - delivered.len() as u64;
            match rx.payload() {
                Err(StripeError::Incomplete { missing: m }) if m == missing => {}
                other => {
                    return Err(format!(
                        "payload with {missing} holes gave {:?}",
                        other.map(<[u8]>::len)
                    ));
                }
            }
            // missing_on names exactly the undelivered seqs per stripe.
            for stripe in 0..plan.stripes() {
                let want: Vec<u64> = plan
                    .iter_stripe(stripe)
                    .filter(|(seq, _, _)| {
                        plan.chunk_index(stripe, *seq)
                            .is_some_and(|idx| !delivered.contains(&(idx as u8)))
                    })
                    .map(|(seq, _, _)| seq)
                    .collect();
                if rx.missing_on(stripe) != want {
                    return Err(format!(
                        "missing_on({stripe}) {:?} want {want:?}",
                        rx.missing_on(stripe)
                    ));
                }
            }
        }

        // Fin frames never complete a holey transfer, and repeats of
        // Fin/Open on a complete one never re-report completion.
        for stripe in 0..plan.stripes() {
            let fin = StripeFrame::Fin {
                transfer: TRANSFER,
                stripe,
                chunks: plan.chunks_on(stripe),
            };
            match rx.accept(&fin) {
                Ok(Accept::Fresh) => {}
                other => return Err(format!("Fin on stripe {stripe} gave {other:?}")),
            }
        }

        // Duplicate absorption and conflict detection, per delivered
        // chunk, against the live reassembler.
        for &idx in delivered {
            let before = rx.covered();
            match rx.accept(&data_frame(&plan, u64::from(idx))) {
                Ok(Accept::Duplicate) => {}
                other => return Err(format!("identical dup of {idx} gave {other:?}")),
            }
            if rx.covered() != before {
                return Err(format!("dup of {idx} changed coverage"));
            }
            // Corrupt one byte: typed Conflict, nothing mutated.
            let mut bytes = chunk_bytes(&plan, u64::from(idx));
            bytes[0] ^= 0x40;
            let offset = plan.offset_of(u64::from(idx));
            match rx.accept_data(
                plan.stripe_of(u64::from(idx)),
                plan.seq_of(u64::from(idx)),
                offset,
                &bytes,
            ) {
                Err(StripeError::Conflict { offset: o }) if o == offset => {}
                other => return Err(format!("corrupt dup of {idx} gave {other:?}")),
            }
            if rx.covered() != before || rx.is_complete() != complete {
                return Err(format!("conflict on {idx} mutated state"));
            }
        }
        if complete {
            let want: Vec<u8> = (0..plan.total_len()).map(byte_at).collect();
            if rx.payload().map_err(|e| e.to_string())? != want {
                return Err("dup/conflict probes corrupted the payload".into());
            }
        }

        // Stripe-failover convergence: from this state, a failed-over
        // sender replays one stripe whole. On a fresh rebuild (the
        // probes above already spent this state's dup budget), the
        // replay must end with that stripe fully covered, re-deliveries
        // absorbed as duplicates, and completion reported exactly once
        // across the whole history.
        let source: Vec<u8> = (0..plan.total_len()).map(byte_at).collect();
        for stripe in 0..plan.stripes() {
            let mut rx = self.rebuild(s)?;
            let mut completions = u64::from(complete);
            // The production lane sequence: what a sender re-sends.
            for frame in plan.lane_frames(&source, TRANSFER, TAG, stripe) {
                let StripeFrame::Data { seq, .. } = &frame else {
                    match rx.accept(frame) {
                        Ok(Accept::Fresh) => continue,
                        other => return Err(format!("failover {frame:?} gave {other:?}")),
                    }
                };
                let idx = plan
                    .chunk_index(stripe, *seq)
                    .ok_or_else(|| format!("no chunk for stripe {stripe} seq {seq}"))?;
                let had = delivered.contains(&(idx as u8));
                match rx.accept(frame) {
                    Ok(Accept::Duplicate) if had => {}
                    Ok(Accept::Fresh) if !had => {}
                    Ok(Accept::Complete) if !had => completions += 1,
                    other => return Err(format!("failover replay of {idx} (had={had}) {other:?}")),
                }
            }
            if completions > 1 {
                return Err(format!("stripe {stripe} failover double-completed"));
            }
            if !rx.missing_on(stripe).is_empty() {
                return Err(format!(
                    "stripe {stripe} still missing {:?} after whole-stripe replay",
                    rx.missing_on(stripe)
                ));
            }
        }

        // Geometry probes: malformed deliveries are typed errors and
        // never mutate the reassembler.
        let mut rx = self.rebuild(s)?;
        let before = rx.covered();
        if !matches!(
            rx.accept_data(plan.stripes(), 0, 0, &[0]),
            Err(StripeError::StripeOutOfRange { .. })
        ) {
            return Err("out-of-range stripe accepted".into());
        }
        if !matches!(
            rx.accept_data(0, plan.chunk_count(), 0, &[0]),
            Err(StripeError::SeqOutOfRange { .. })
        ) {
            return Err("out-of-range seq accepted".into());
        }
        if !matches!(
            rx.accept_data(0, 0, 1, &chunk_bytes(&plan, 0)),
            Err(StripeError::WrongOffset { .. })
        ) {
            return Err("wrong offset accepted".into());
        }
        if !matches!(
            rx.accept_data(0, 0, 0, &[]),
            Err(StripeError::WrongLength { .. })
        ) {
            return Err("wrong length accepted".into());
        }
        if !matches!(
            rx.accept(&StripeFrame::Fin {
                transfer: TRANSFER + 1,
                stripe: 0,
                chunks: plan.chunks_on(0),
            }),
            Err(StripeError::WrongTransfer { .. })
        ) {
            return Err("wrong transfer id accepted".into());
        }
        if rx.covered() != before {
            return Err("rejected frames mutated coverage".into());
        }
        Ok(())
    }
}

pub fn verify(deep: bool) -> Report {
    let m = if deep {
        StripeModel::deep()
    } else {
        StripeModel::smoke()
    };
    explore_bfs(&m, 2_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_arrival_order_reassembles_cleanly() {
        let r = verify(false);
        assert!(r.ok(), "{r}");
        // 2 stripes x 5 chunks: sum of k-permutations of 5 = 326.
        assert_eq!(r.states, 326, "{r}");
    }

    #[test]
    fn deep_tier_still_terminates() {
        let r = verify(true);
        assert!(r.ok(), "{r}");
        assert!(r.states > 100_000, "state space suspiciously small: {r}");
    }
}
