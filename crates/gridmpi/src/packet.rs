//! The point-to-point packet format: a fixed header (source rank +
//! tag + per-peer sequence number) in front of the payload, all
//! big-endian on the wire so heterogeneous hosts agree (MPICH-G's
//! commitment for cross-machine messages).
//!
//! The sequence number makes sends idempotent across a relay
//! reconnect: a sender that cannot tell whether a frame survived a
//! dying connection retransmits it on the fresh one, and the receiver
//! drops anything it has already accepted from that source
//! (`Comm`-level dedup), preserving MPI's exactly-once, in-order
//! per-pair delivery.

use std::io;

/// Header: `u32 src`, `i32 tag`, `u64 seq`.
pub const HEADER_LEN: usize = 16;

/// A decoded point-to-point message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub src: u32,
    pub tag: i32,
    /// Per-(source, destination) sequence number, starting at 1.
    pub seq: u64,
    pub payload: Vec<u8>,
}

impl Packet {
    pub fn encode(src: u32, tag: i32, seq: u64, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(&src.to_be_bytes());
        buf.extend_from_slice(&tag.to_be_bytes());
        buf.extend_from_slice(&seq.to_be_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    /// Decode an arrived frame. The payload keeps the frame's buffer:
    /// draining the header shifts it down in place, with no second
    /// allocation.
    pub fn decode(mut frame: Vec<u8>) -> io::Result<Packet> {
        if frame.len() < HEADER_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "short MPI packet",
            ));
        }
        let src = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let tag = i32::from_be_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let seq = u64::from_be_bytes([
            frame[8], frame[9], frame[10], frame[11], frame[12], frame[13], frame[14], frame[15],
        ]);
        frame.drain(..HEADER_LEN);
        Ok(Packet {
            src,
            tag,
            seq,
            payload: frame,
        })
    }

    /// Does this packet satisfy a receive with the given selectors?
    pub fn matches(&self, src: Option<u32>, tag: Option<i32>) -> bool {
        src.is_none_or(|s| s == self.src) && tag.is_none_or(|t| t == self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let p = Packet::decode(Packet::encode(3, -7, 42, b"hello")).unwrap();
        assert_eq!(
            p,
            Packet {
                src: 3,
                tag: -7,
                seq: 42,
                payload: b"hello".to_vec()
            }
        );
    }

    #[test]
    fn empty_payload_ok_short_header_err() {
        assert_eq!(
            Packet::decode(Packet::encode(0, 0, 1, b""))
                .unwrap()
                .payload,
            b""
        );
        assert!(Packet::decode(vec![1, 2, 3]).is_err());
        // An old 8-byte header (pre-seq) is short now.
        assert!(Packet::decode(vec![0; 8]).is_err());
    }

    #[test]
    fn matching() {
        let p = Packet {
            src: 2,
            tag: 9,
            seq: 1,
            payload: vec![],
        };
        assert!(p.matches(None, None));
        assert!(p.matches(Some(2), None));
        assert!(p.matches(None, Some(9)));
        assert!(p.matches(Some(2), Some(9)));
        assert!(!p.matches(Some(3), Some(9)));
        assert!(!p.matches(Some(2), Some(8)));
    }

    /// SplitMix64 — a local deterministic stream for randomized tests.
    fn test_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Encode/decode round trip across random (src, tag, payload).
    #[test]
    fn random_packets_roundtrip() {
        let mut r = test_rng(0x9ac4e7);
        for _ in 0..500 {
            let src = r() as u32;
            let tag = r() as i32;
            let seq = r();
            let len = (r() % 256) as usize;
            let payload: Vec<u8> = (0..len).map(|_| r() as u8).collect();
            let p = Packet::decode(Packet::encode(src, tag, seq, &payload)).unwrap();
            assert_eq!(p.src, src);
            assert_eq!(p.tag, tag);
            assert_eq!(p.seq, seq);
            assert_eq!(p.payload, payload);
        }
    }
}
