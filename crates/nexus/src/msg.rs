//! Message framing over byte streams.
//!
//! Nexus is message-oriented; TCP is a byte pipe. A message is one
//! frame of [`nexus_proxy::frame`], the workspace's one frame codec,
//! capped at [`MAX_MSG`]. A frame is one vectored write (prefix and
//! payload together), so on a `TCP_NODELAY` stream a small frame
//! leaves as one segment instead of a 4-byte prefix that every relay
//! hop forwards on its own. Readers still must not count on it: a
//! short write splits a frame anywhere, and the relay never sees frame
//! boundaries (it copies bytes and re-chunks them). The codec's tests
//! re-chunk reads; the tests below split writes.
//!
//! A malformed frame is an error a daemon can log and survive, never a
//! panic that takes the relay or an MPI rank down with it: a length
//! over the cap is [`io::ErrorKind::InvalidData`], a stream that ends
//! inside a frame [`io::ErrorKind::UnexpectedEof`].

use nexus_proxy::frame::{read_frame, write_frame};
use std::io::{self, Read, Write};

/// Hard cap on one message (64 MiB): protects against corrupted length
/// prefixes taking the process down with a giant allocation.
pub const MAX_MSG: u32 = 64 * 1024 * 1024;

/// Write one framed message: the prefix and the payload go out in one
/// vectored write, uncopied. A payload over [`MAX_MSG`] is
/// [`io::ErrorKind::InvalidInput`].
pub fn send_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame(w, MAX_MSG, [payload])
}

/// Read one framed message. `Ok(None)` on clean EOF at a frame
/// boundary; errors on EOF mid-frame.
pub fn recv_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(read_frame(r, MAX_MSG, &mut body)?.then_some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Cursor, IoSlice};

    #[test]
    fn oversized_length_rejected_with_typed_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_MSG + 1).to_be_bytes());
        let mut cur = Cursor::new(buf);
        let err = recv_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
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

    /// A writer that takes 1..=`max` bytes per call, straight across
    /// slice boundaries, and now and then returns `Interrupted`
    /// instead: a busy socket's short writes. `spans` records the
    /// `[start, end)` of the stream each successful call took.
    struct Trickle<R> {
        out: Vec<u8>,
        spans: Vec<(usize, usize)>,
        interrupts: usize,
        max: usize,
        rng: R,
    }

    impl<R: FnMut() -> u64> Write for Trickle<R> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let r = (self.rng)();
            if r.is_multiple_of(5) {
                self.interrupts += 1;
                return Err(io::ErrorKind::Interrupted.into());
            }
            let start = self.out.len();
            let mut budget = 1 + (r >> 8) as usize % self.max;
            for b in bufs {
                let take = budget.min(b.len());
                self.out.extend_from_slice(&b[..take]);
                budget -= take;
                if budget == 0 {
                    break;
                }
            }
            self.spans.push((start, self.out.len()));
            Ok(self.out.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The write-side twin of `rechunking_preserves_frames`: frames
    /// written through any short-write pattern, prefix split and
    /// prefix/payload boundary crossed, read back unchanged.
    #[test]
    fn short_writes_preserve_frames() {
        let mut r = test_rng(0x5e4d);
        let (mut split_prefix, mut crossed, mut interrupts) = (0, 0, 0);
        for round in 0..100 {
            let msgs: Vec<Vec<u8>> = (0..1 + r() % 10)
                .map(|_| (0..r() % 200).map(|_| r() as u8).collect())
                .collect();
            let mut w = Trickle {
                out: Vec::new(),
                spans: Vec::new(),
                interrupts: 0,
                max: 1 + round % 8,
                rng: test_rng(round as u64),
            };
            let mut starts = Vec::new();
            for m in &msgs {
                starts.push(w.out.len());
                send_frame(&mut w, m).unwrap();
            }
            for &(a, b) in &w.spans {
                for &f in &starts {
                    split_prefix += usize::from(f < b && b < f + 4);
                    crossed += usize::from(a < f + 4 && f + 4 < b);
                }
            }
            interrupts += w.interrupts;
            let mut cur = Cursor::new(w.out);
            for m in &msgs {
                assert_eq!(&recv_frame(&mut cur).unwrap().unwrap(), m);
            }
            assert!(recv_frame(&mut cur).unwrap().is_none());
        }
        assert!(split_prefix > 0 && crossed > 0 && interrupts > 0);
    }

    /// A writer that takes everything offered and counts its calls.
    #[derive(Default)]
    struct Counting {
        out: Vec<u8>,
        calls: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let start = self.out.len();
            for b in bufs {
                self.out.extend_from_slice(b);
            }
            Ok(self.out.len() - start)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_frame_is_one_write() {
        for payload in [&b""[..], b"x", &[9u8; 1024]] {
            let mut w = Counting::default();
            send_frame(&mut w, payload).unwrap();
            assert_eq!(w.calls, 1);
            let mut framed = (payload.len() as u32).to_be_bytes().to_vec();
            framed.extend_from_slice(payload);
            assert_eq!(w.out, framed);
        }
    }

    /// A writer that accepts nothing.
    struct Full;

    impl Write for Full {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Ok(0)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_writer_taking_nothing_is_write_zero() {
        let err = send_frame(&mut Full, b"abc").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
