//! Message framing over byte streams.
//!
//! Nexus is message-oriented; TCP is a byte pipe. Frames are
//! `u32`-length-prefixed blobs. A frame is one vectored write (prefix
//! and payload together, [`nexus_proxy::write_all_parts`]), so on a
//! `TCP_NODELAY` stream a small frame leaves as one segment instead of
//! a 4-byte prefix that every relay hop forwards on its own. Readers
//! still must not count on it: a short write splits a frame anywhere,
//! and the relay never sees frame boundaries (it copies bytes and
//! re-chunks them). Framing survives arbitrary re-chunking on either
//! side — the rechunking tests below pin both.
//!
//! Failures are typed ([`FrameError`]): a malformed frame must surface
//! as an error a daemon can log and survive, never as a panic that
//! takes the relay or an MPI rank down with it.

use nexus_proxy::write_all_parts;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};

/// Hard cap on one message (64 MiB): protects against corrupted length
/// prefixes taking the process down with a giant allocation.
pub const MAX_MSG: u32 = 64 * 1024 * 1024;

/// Why a frame could not be written or read.
#[derive(Debug)]
pub enum FrameError {
    /// Outgoing payload exceeds [`MAX_MSG`] (or `u32::MAX`).
    TooLarge(usize),
    /// Incoming length prefix exceeds [`MAX_MSG`]: the stream is
    /// corrupt or adversarial, and resynchronisation is impossible.
    BadLength(u32),
    /// The underlying stream failed (includes EOF mid-frame).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge(n) => write!(f, "outgoing message of {n} bytes exceeds cap"),
            FrameError::BadLength(n) => write!(f, "frame length {n} exceeds maximum"),
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(io) => io,
            FrameError::TooLarge(_) => io::Error::new(io::ErrorKind::InvalidInput, e.to_string()),
            FrameError::BadLength(_) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

/// Write one framed message, with a typed error: the prefix and the
/// payload go out in one vectored write, uncopied.
pub fn send_frame_typed(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge(payload.len()))?;
    if len > MAX_MSG {
        return Err(FrameError::TooLarge(payload.len()));
    }
    let prefix = len.to_be_bytes();
    write_all_parts(w, &mut [IoSlice::new(&prefix), IoSlice::new(payload)])?;
    w.flush()?;
    Ok(())
}

/// Read one framed message, with a typed error. `Ok(None)` on clean
/// EOF at a frame boundary; EOF mid-frame is [`FrameError::Io`].
pub fn recv_frame_typed(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len = [0u8; 4];
    // Generic `Read`: deadlines belong to the socket owner, not the
    // framing helper (servers set read timeouts before calling this).
    match r.read_exact(&mut len) {
        // lint:allow(deadline-io)
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_MSG {
        return Err(FrameError::BadLength(len));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?; // lint:allow(deadline-io)
    Ok(Some(buf))
}

/// Write one framed message ([`io::Error`] convenience wrapper).
pub fn send_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    send_frame_typed(w, payload).map_err(io::Error::from)
}

/// Read one framed message ([`io::Error`] convenience wrapper).
/// `Ok(None)` on clean EOF at a frame boundary; errors on EOF
/// mid-frame.
pub fn recv_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    recv_frame_typed(r).map_err(io::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_frames() {
        let mut buf = Vec::new();
        send_frame(&mut buf, b"alpha").unwrap();
        send_frame(&mut buf, b"").unwrap();
        send_frame(&mut buf, &[7u8; 1000]).unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(recv_frame(&mut cur).unwrap().unwrap(), b"alpha");
        assert_eq!(recv_frame(&mut cur).unwrap().unwrap(), b"");
        assert_eq!(recv_frame(&mut cur).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(recv_frame(&mut cur).unwrap().is_none()); // clean EOF
    }

    #[test]
    fn eof_mid_frame_is_error() {
        let mut buf = Vec::new();
        send_frame(&mut buf, b"abcdef").unwrap();
        buf.truncate(7); // cut into the payload
        let mut cur = Cursor::new(buf);
        assert!(matches!(recv_frame_typed(&mut cur), Err(FrameError::Io(_))));
    }

    #[test]
    fn oversized_length_rejected_with_typed_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_MSG + 1).to_be_bytes());
        let mut cur = Cursor::new(buf);
        match recv_frame_typed(&mut cur) {
            Err(FrameError::BadLength(n)) => assert_eq!(n, MAX_MSG + 1),
            other => panic!("expected BadLength, got {other:?}"),
        }
        // And the io::Error wrapper classifies it as InvalidData.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_MSG + 1).to_be_bytes());
        let mut cur = Cursor::new(buf);
        let err = recv_frame(&mut cur).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that returns data in adversarially small pieces, to
    /// emulate relay re-chunking.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
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

    /// Framing is chunking-independent: any message sequence read
    /// through any read granularity reproduces the messages.
    #[test]
    fn rechunking_preserves_frames() {
        let mut r = test_rng(0xc4a2);
        for round in 0..100 {
            let nmsgs = (r() % 10) as usize;
            let msgs: Vec<Vec<u8>> = (0..nmsgs)
                .map(|_| {
                    let len = (r() % 200) as usize;
                    (0..len).map(|_| r() as u8).collect()
                })
                .collect();
            let mut buf = Vec::new();
            for m in &msgs {
                send_frame(&mut buf, m).unwrap();
            }
            let step = 1 + (round % 16) as usize;
            let mut rd = Dribble {
                data: &buf,
                pos: 0,
                step,
            };
            for m in &msgs {
                let got = recv_frame(&mut rd).unwrap().unwrap();
                assert_eq!(&got, m);
            }
            assert!(recv_frame(&mut rd).unwrap().is_none());
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
