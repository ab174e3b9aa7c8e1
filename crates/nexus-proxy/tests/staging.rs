//! The stripe receiver's staging recycler (DESIGN.md §6e): one
//! process-wide slot keeps at most one staging buffer of at most
//! `MAX_RETAINED_STAGING` bytes for the next transfer it fits.
//!
//! The slot is process-wide, so this binary holds exactly one test: no
//! sibling test thread can take or fill the slot between two steps.
//! Which buffer a transfer got shows in its payload's capacity: a fresh
//! buffer has exactly the transfer's length, a reused one the length
//! of the transfer that first allocated it.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use nexus_proxy::stripe::{Reassembler, StripePlan, DEFAULT_CHUNK_BYTES, MAX_RETAINED_STAGING};

const MIB: usize = 1 << 20;

/// A completed reassembly of `len` bytes, every byte `fill`.
fn complete(len: usize, fill: u8) -> Reassembler {
    let plan = StripePlan::new(len as u64, 2, DEFAULT_CHUNK_BYTES).unwrap();
    let mut rx = Reassembler::new(1, 0, plan);
    let chunk = vec![fill; DEFAULT_CHUNK_BYTES as usize];
    for idx in 0..plan.chunk_count() {
        rx.accept_data(
            plan.stripe_of(idx),
            plan.seq_of(idx),
            plan.offset_of(idx),
            &chunk[..plan.len_of(idx) as usize],
        )
        .unwrap();
    }
    rx
}

/// The payload of a completed reassembly of `len` bytes, checked.
fn payload(len: usize, fill: u8) -> Vec<u8> {
    let p = complete(len, fill).into_payload().unwrap();
    assert_eq!(p.len(), len);
    assert!(p.iter().all(|&b| b == fill));
    assert!(p.capacity() <= 2 * len, "{} for {len}", p.capacity());
    p
}

#[test]
fn one_bounded_staging_buffer_is_reused() {
    // Back-to-back transfers of one size stage in the same buffer. The
    // dummy held across the second `new` keeps a freed and re-mapped
    // region from landing at the same address.
    let first = complete(8 * MIB, 1);
    let at = first.payload().unwrap().as_ptr();
    drop(first);
    let dummy = vec![7u8; 8 * MIB];
    let second = complete(8 * MIB, 2);
    assert_eq!(second.payload().unwrap().as_ptr(), at);
    assert!(second.payload().unwrap().iter().all(|&b| b == 2));
    drop(dummy);
    drop(second);

    // A transfer above the cap is not retained: it does not displace
    // the 8 MiB buffer, which a 5 MiB transfer then takes. The payload
    // keeps it, so the slot is empty afterwards.
    let over = StripePlan::new(MAX_RETAINED_STAGING as u64 + 1, 2, DEFAULT_CHUNK_BYTES).unwrap();
    drop(Reassembler::new(1, 0, over));
    assert_eq!(payload(5 * MIB, 3).capacity(), 8 * MIB);
    assert_eq!(payload(3 * MIB, 4).capacity(), 3 * MIB);

    // At most one buffer is retained: of two dropped, the last stays.
    let a = complete(8 * MIB, 5);
    let b = complete(6 * MIB, 6);
    drop(a);
    drop(b);
    assert_eq!(payload(4 * MIB, 7).capacity(), 6 * MIB);
    assert_eq!(payload(4 * MIB, 8).capacity(), 4 * MIB);

    // A retained buffer that does not fit (8 MiB > 2 x 2 MiB) stays in
    // the slot for a transfer it does fit.
    drop(complete(8 * MIB, 9));
    assert_eq!(payload(2 * MIB, 10).capacity(), 2 * MIB);
    assert_eq!(payload(7 * MIB, 11).capacity(), 8 * MIB);
}
