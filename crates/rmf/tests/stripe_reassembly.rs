//! Bounded-exhaustive reassembly battery for the striped staging
//! path (DESIGN.md §6e).
//!
//! GASS staging rides the stripe codec (`rmf::GassStore::transfer_with`
//! → `nexus_proxy::stripe`), so this suite attacks the reassembler the
//! way the network can: **every** permutation of chunk arrival order
//! for small plans, every permutation of whole-lane replay order
//! through the byte-stream receiver, and seeded random sweeps that
//! inject duplicates, gaps, and corrupted duplicates. The invariant
//! throughout: a complete delivery reassembles byte-identically, an
//! incomplete one is a *typed* `Incomplete`/`Conflict` error with
//! exact missing-chunk accounting — never silent corruption.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use nexus_proxy::stripe::{
    send_striped, Accept, Reassembler, StripeError, StripeFrame, StripePlan, StripeReceiver,
};
use rmf::{GassStore, StripedTransfer};
use std::io::{self, Cursor, Write};
use std::sync::Arc;
use wacs_sync::Mutex;

/// Deterministic payload bytes.
fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 137 + 29) % 251) as u8).collect()
}

/// Chunk `idx` of `data` under `plan`.
fn chunk_of(plan: &StripePlan, data: &[u8], idx: u64) -> StripeFrame {
    let off = plan.offset_of(idx) as usize;
    let len = plan.len_of(idx) as usize;
    StripeFrame::Data {
        transfer: 9,
        stripe: plan.stripe_of(idx),
        seq: plan.seq_of(idx),
        offset: off as u64,
        bytes: data[off..off + len].to_vec(),
    }
}

/// A fresh reassembler with geometry installed via `Open` frames for
/// every stripe (as the lanes would on connect).
fn opened(plan: StripePlan) -> Reassembler {
    let mut r = Reassembler::new(9, 0, plan);
    for s in 0..plan.stripes() {
        let a = r
            .accept(&StripeFrame::Open {
                transfer: 9,
                stripe: s,
                stripes: plan.stripes(),
                chunk: plan.chunk_bytes(),
                total_len: plan.total_len(),
                tag: 0,
            })
            .unwrap();
        assert_eq!(a, Accept::Fresh);
    }
    r
}

/// Heap's algorithm: every permutation of `items`, visited in place.
fn for_each_permutation<T: Clone>(items: &[T], mut visit: impl FnMut(&[T])) {
    fn heap<T: Clone>(k: usize, a: &mut [T], visit: &mut impl FnMut(&[T])) {
        if k == 1 {
            visit(a);
            return;
        }
        for i in 0..k {
            heap(k - 1, a, visit);
            if k.is_multiple_of(2) {
                a.swap(i, k - 1);
            } else {
                a.swap(0, k - 1);
            }
        }
    }
    let mut a = items.to_vec();
    if !a.is_empty() {
        heap(a.len(), &mut a, &mut visit);
    }
}

/// xorshift64* — the workspace's dependency-free seeded RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Every one of the 720 arrival orders of a 6-chunk, 3-stripe
/// transfer reassembles byte-identically, and completion fires on
/// exactly the last chunk.
#[test]
fn every_chunk_arrival_order_reassembles() {
    let plan = StripePlan::new(6 * 32, 3, 32).unwrap();
    assert_eq!(plan.chunk_count(), 6);
    let data = payload(plan.total_len() as usize);
    let idxs: Vec<u64> = (0..plan.chunk_count()).collect();
    let mut orders = 0u32;
    for_each_permutation(&idxs, |order| {
        orders += 1;
        let mut r = opened(plan);
        for (pos, &idx) in order.iter().enumerate() {
            let a = r.accept(&chunk_of(&plan, &data, idx)).unwrap();
            if pos + 1 == order.len() {
                assert_eq!(a, Accept::Complete, "order {order:?}");
            } else {
                assert_eq!(a, Accept::Fresh, "order {order:?}");
                assert!(matches!(
                    r.payload(),
                    Err(StripeError::Incomplete { missing }) if missing as usize == order.len() - pos - 1
                ));
            }
        }
        assert_eq!(r.payload().unwrap(), &data[..], "order {order:?}");
        assert_eq!(r.duplicates(), 0);
    });
    assert_eq!(orders, 720);
}

/// An uneven tail (short last chunk) under every arrival order of a
/// 5-chunk, 2-stripe plan.
#[test]
fn every_arrival_order_with_uneven_tail() {
    let plan = StripePlan::new(4 * 32 + 7, 2, 32).unwrap();
    assert_eq!(plan.chunk_count(), 5);
    let data = payload(plan.total_len() as usize);
    let idxs: Vec<u64> = (0..plan.chunk_count()).collect();
    for_each_permutation(&idxs, |order| {
        let mut r = opened(plan);
        for &idx in order {
            r.accept(&chunk_of(&plan, &data, idx)).unwrap();
        }
        assert!(r.is_complete());
        assert_eq!(r.payload().unwrap(), &data[..], "order {order:?}");
    });
}

/// Capture the framed lane streams a striped send produces, via the
/// same in-process lane writer `GassStore::transfer_with` uses.
fn framed_lanes(data: &[u8], plan: &StripePlan) -> Vec<Vec<u8>> {
    struct Lane {
        lanes: Arc<Mutex<Vec<Vec<u8>>>>,
        lane: usize,
    }
    impl Write for Lane {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.lanes.lock()[self.lane].extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let lanes: Arc<Mutex<Vec<Vec<u8>>>> =
        Arc::new(Mutex::new(vec![Vec::new(); usize::from(plan.stripes())]));
    let sink = lanes.clone();
    send_striped(data, plan, 9, 0, 0, None, move |stripe, _| {
        Ok(Lane {
            lanes: sink.clone(),
            lane: usize::from(stripe),
        })
    })
    .unwrap();
    let captured = std::mem::take(&mut *lanes.lock());
    captured
}

/// Every permutation of whole-lane feed order through the byte-stream
/// receiver (4 lanes ⇒ 24 orders), with one lane fed twice: the
/// repeat is absorbed as duplicates and the payload is untouched.
#[test]
fn every_lane_feed_order_with_a_duplicated_lane() {
    let plan = StripePlan::new(9 * 16 + 5, 4, 16).unwrap();
    let data = payload(plan.total_len() as usize);
    let lanes = framed_lanes(&data, &plan);
    let lane_ids: Vec<usize> = (0..lanes.len()).collect();
    for_each_permutation(&lane_ids, |order| {
        for dup in 0..lanes.len() {
            let rx = StripeReceiver::new();
            for &l in order {
                rx.feed(Cursor::new(lanes[l].clone()), None).unwrap();
            }
            // Replay one whole lane (a failed-over stripe re-sends
            // from seq 0): pure duplicates, absorbed.
            rx.feed(Cursor::new(lanes[dup].clone()), None).unwrap();
            let (tag, got) = rx.result().expect("incomplete after all lanes fed");
            assert_eq!(tag, 0);
            assert_eq!(got, data, "order {order:?} dup {dup}");
            assert!(rx.duplicates() > 0, "replayed lane must count as dups");
        }
    });
}

/// Withholding any one lane leaves the transfer incomplete, and
/// `missing_on` names exactly that lane's chunks; feeding the missing
/// lane afterwards completes it.
#[test]
fn a_withheld_lane_is_accounted_exactly_then_heals() {
    let plan = StripePlan::new(11 * 16, 3, 16).unwrap();
    let data = payload(plan.total_len() as usize);
    let lanes = framed_lanes(&data, &plan);
    for hold in 0..lanes.len() {
        let rx = StripeReceiver::new();
        for (l, lane) in lanes.iter().enumerate() {
            if l != hold {
                rx.feed(Cursor::new(lane.clone()), None).unwrap();
            }
        }
        assert!(rx.result().is_none(), "held lane {hold}");
        let expect: Vec<u64> = (0..plan.chunks_on(hold as u16)).collect();
        assert_eq!(rx.missing_on(hold as u16), expect, "held lane {hold}");
        for s in 0..plan.stripes() {
            if usize::from(s) != hold {
                assert!(rx.missing_on(s).is_empty());
            }
        }
        rx.feed(Cursor::new(lanes[hold].clone()), None).unwrap();
        assert_eq!(rx.result().expect("healed").1, data);
    }
}

/// Seeded random sweep: shuffled chunk arrivals with injected
/// byte-identical duplicates always reassemble byte-identically;
/// corrupted duplicates are typed `Conflict` errors that leave the
/// already-written payload untouched.
#[test]
fn seeded_random_sweeps_with_duplicates_and_conflicts() {
    let mut rng = Rng(0x5eed_517e);
    for round in 0..200 {
        let stripes = 1 + (rng.below(4) as u16);
        let chunk = 16u32;
        let chunks = 1 + rng.below(12);
        let tail = rng.below(u64::from(chunk));
        let total = (chunks - 1) * u64::from(chunk) + tail.max(1);
        let plan = StripePlan::new(total, stripes, chunk).unwrap();
        let data = payload(total as usize);

        // Shuffle the chunk list and splice in duplicates.
        let mut order: Vec<u64> = (0..plan.chunk_count()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below((i + 1) as u64) as usize);
        }
        let dups = rng.below(4);
        for _ in 0..dups {
            let pick = order[rng.below(order.len() as u64) as usize];
            let at = rng.below((order.len() + 1) as u64) as usize;
            order.insert(at, pick);
        }

        let mut r = opened(plan);
        let mut delivered = vec![false; plan.chunk_count() as usize];
        for &idx in &order {
            let a = r.accept(&chunk_of(&plan, &data, idx)).unwrap();
            if delivered[idx as usize] {
                assert_ne!(a, Accept::Fresh, "round {round}: dup counted fresh");
            }
            delivered[idx as usize] = true;
        }
        assert_eq!(r.payload().unwrap(), &data[..], "round {round}");

        // A corrupted duplicate of a random chunk: typed Conflict,
        // payload untouched.
        let victim = rng.below(plan.chunk_count());
        let mut frame = chunk_of(&plan, &data, victim);
        if let StripeFrame::Data { bytes, .. } = &mut frame {
            bytes[0] ^= 0x40;
        }
        let want_off = plan.offset_of(victim);
        match r.accept(&frame) {
            Err(StripeError::Conflict { offset }) => assert_eq!(offset, want_off),
            other => panic!("round {round}: corrupted dup gave {other:?}"),
        }
        assert_eq!(
            r.payload().unwrap(),
            &data[..],
            "round {round} post-conflict"
        );
    }
}

/// Seeded back-to-back transfers through `feed`, each staged in
/// whatever buffer an earlier one left behind: lengths shrink and grow
/// across the staging fit rule's edges (0, 4 B, short tails, just above
/// and just below half the previous length, about double it), every
/// round has its own byte pattern, and every payload is byte-exact.
#[test]
fn back_to_back_transfers_through_feed_are_exact() {
    let mut rng = Rng(0xbac2_bac2);
    let mut prev = 4096usize;
    for round in 0..300usize {
        let jitter = rng.below(3) as usize;
        let len = match rng.below(7) {
            0 => 0,
            1 => 4,
            2 => 64 * jitter + 1 + rng.below(15) as usize,
            3 => prev / 2 + 1 + jitter,
            4 => (prev / 2).saturating_sub(1 + jitter),
            5 => (2 * prev).min(1 << 14) + jitter,
            _ => 1 + rng.below(1 << 13) as usize,
        };
        let stripes = 1 + rng.below(4) as u16;
        let plan = StripePlan::new(len as u64, stripes, 64).unwrap();
        let data: Vec<u8> = (0..len)
            .map(|i| ((i * 137 + round * 31 + 29) % 251) as u8)
            .collect();
        let rx = StripeReceiver::new();
        for lane in framed_lanes(&data, &plan).into_iter().rev() {
            rx.feed(Cursor::new(lane), None).unwrap();
        }
        let (_, got) = rx.result().expect("incomplete after all lanes fed");
        assert_eq!(got, data, "round {round}: {len} B after {prev} B");
        prev = len;
    }
}

/// Seeded random sweep with gaps: withholding a random subset of
/// chunks yields exactly-accounted `Incomplete` errors — the missing
/// count and per-stripe missing seq lists are exact, and `result()`
/// never fabricates bytes.
#[test]
fn seeded_random_sweeps_with_gaps_account_exactly() {
    let mut rng = Rng(0x6a95_0000);
    for round in 0..200 {
        let stripes = 1 + (rng.below(4) as u16);
        let chunks = 2 + rng.below(10);
        let plan = StripePlan::new(chunks * 16, stripes, 16).unwrap();
        let data = payload(plan.total_len() as usize);

        // Withhold a random non-empty subset.
        let mut withheld: Vec<u64> = (0..plan.chunk_count())
            .filter(|_| rng.below(3) == 0)
            .collect();
        if withheld.is_empty() {
            withheld.push(rng.below(plan.chunk_count()));
        }
        let mut r = opened(plan);
        for idx in 0..plan.chunk_count() {
            if !withheld.contains(&idx) {
                r.accept(&chunk_of(&plan, &data, idx)).unwrap();
            }
        }
        assert!(!r.is_complete(), "round {round}");
        match r.payload() {
            Err(StripeError::Incomplete { missing }) => {
                assert_eq!(missing as usize, withheld.len(), "round {round}");
            }
            other => panic!("round {round}: gap run gave {other:?}"),
        }
        for s in 0..plan.stripes() {
            let want: Vec<u64> = withheld
                .iter()
                .filter(|&&i| plan.stripe_of(i) == s)
                .map(|&i| plan.seq_of(i))
                .collect();
            assert_eq!(r.missing_on(s), want, "round {round} stripe {s}");
        }
    }
}

/// The staging layer on top: `transfer_with` moves a file through the
/// full frame→lanes→reassembly path at every stream count that fits,
/// and the staged copy is byte-identical.
#[test]
fn gass_staging_is_exact_at_every_stream_count() {
    let st = StripedTransfer::plan(100_000, 4).unwrap();
    assert_eq!(st.streams(), 4);
    let g = GassStore::new();
    let data = payload(100_000);
    g.put("rwcp-sun", "in/big", data.clone());
    for streams in [1u16, 2, 3, 4, 7] {
        let n = g
            .transfer_with(
                "gass://rwcp-sun/in/big",
                "compas0",
                &format!("st/{streams}"),
                streams,
            )
            .unwrap();
        assert_eq!(n, data.len());
        assert_eq!(g.get("compas0", &format!("st/{streams}")).unwrap(), data);
    }
}
