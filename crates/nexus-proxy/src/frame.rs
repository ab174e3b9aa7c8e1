//! The stream frame format, in one place: a big-endian `u32` body
//! length, then the body. Every framed stream of the workspace is this
//! format under its own cap: Nexus messages (`nexus::msg`, 64 MiB),
//! the proxy's control frames ([`crate::protocol`], [`MAX_FRAME`]) and
//! stripe lanes ([`crate::stripe`], [`MAX_STRIPE_FRAME`]). What a body
//! holds is each caller's business; an empty body is a frame here and
//! the body decoders refuse it.
//!
//! [`read_frame`] reads exactly one frame and never a byte past it, so
//! a stream can change hands right after a frame: the client's stream
//! after `ConnectRep`/`BindRep` goes to the application, a daemon's
//! after `ConnectReq`/`RelayReq` to the pump. Any byte the peer sent
//! behind the frame is still in the socket for whoever reads next.
//!
//! [`MAX_FRAME`]: crate::protocol::MAX_FRAME
//! [`MAX_STRIPE_FRAME`]: crate::stripe::MAX_STRIPE_FRAME

use std::io::{self, IoSlice, Read, Write};

/// Write one frame whose body is `parts` back to back (at most two: a
/// head and a chunk): the length prefix and the parts leave in one
/// vectored write, uncopied, then the writer is flushed. A body longer
/// than `cap` is refused ([`io::ErrorKind::InvalidInput`]) before
/// anything is written.
pub fn write_frame<const N: usize>(
    w: &mut impl Write,
    cap: u32,
    parts: [&[u8]; N],
) -> io::Result<()> {
    const { assert!(N <= 2, "a frame body is written from at most two parts") };
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let prefix = match u32::try_from(len) {
        Ok(n) if n <= cap => n.to_be_bytes(),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame body of {len} bytes over its cap of {cap}"),
            ))
        }
    };
    let mut slices = [IoSlice::new(&prefix), IoSlice::new(&[]), IoSlice::new(&[])];
    for (slot, part) in slices[1..].iter_mut().zip(parts) {
        *slot = IoSlice::new(part);
    }
    write_all_parts(w, &mut slices[..=N])?;
    w.flush()
}

/// Read the next frame's body into `body`, which the caller may reuse
/// across frames. The declared length is checked against `cap` before
/// `body` grows: the prefix is peer-controlled, and a refused one
/// ([`io::ErrorKind::InvalidData`]) leaves the reader just past it.
/// `Ok(false)` is a clean end of stream at a frame boundary; a stream
/// that ends inside a frame, its prefix included, is
/// [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read, cap: u32, body: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    // A generic `Read`: deadlines belong to the socket's owner (the
    // servers and the client set read timeouts on their streams).
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame length {len} (cap {cap} bytes)"),
        ));
    }
    body.resize(len as usize, 0);
    r.read_exact(body)?; // lint:allow(deadline-io)
    Ok(true)
}

/// Write every byte of `parts`, in order, through `write_vectored`: a
/// writer that takes everything offered sees one call, so a frame
/// whose head and body live apart still leaves as one write (under
/// `TCP_NODELAY`, one segment when it fits). Short writes resume
/// mid-slice, `Interrupted` is retried and `Ok(0)` is
/// [`io::ErrorKind::WriteZero`], as `write_all` does. This is std's
/// unstable `Write::write_all_vectored`.
pub fn write_all_parts(w: &mut impl Write, mut parts: &mut [IoSlice<'_>]) -> io::Result<()> {
    // Drop leading empty slices, so an all-empty write makes no call.
    IoSlice::advance_slices(&mut parts, 0);
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write whole buffer",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::MAX_FRAME;
    use crate::stripe::MAX_STRIPE_FRAME;
    use std::io::Cursor;

    /// `nexus::msg::MAX_MSG`: nexus sits above this crate, so its cap
    /// is spelled here.
    const MAX_MSG: u32 = 64 << 20;

    /// Every cap a framed stream of the workspace reads under.
    const CAPS: [u32; 3] = [MAX_MSG, MAX_FRAME, MAX_STRIPE_FRAME];

    fn framed(bodies: &[&[u8]], cap: u32) -> Vec<u8> {
        let mut out = Vec::new();
        for b in bodies {
            write_frame(&mut out, cap, [b]).unwrap();
        }
        out
    }

    /// A reader that returns data in small pieces, as relay
    /// re-chunking does.
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

    /// Framing is chunking-independent under every cap: any body
    /// sequence read through any read granularity comes back whole,
    /// empty bodies included, into one reused buffer.
    #[test]
    fn rechunking_preserves_frames() {
        for cap in CAPS {
            let mut r = test_rng(0xc4a2);
            for round in 0..100 {
                let bodies: Vec<Vec<u8>> = (0..r() % 10)
                    .map(|_| (0..r() % 200).map(|_| r() as u8).collect())
                    .collect();
                let refs: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
                let data = framed(&refs, cap);
                let mut rd = Dribble {
                    data: &data,
                    pos: 0,
                    step: 1 + round % 16,
                };
                let mut body = vec![0xEE; 300];
                for b in &bodies {
                    assert!(read_frame(&mut rd, cap, &mut body).unwrap());
                    assert_eq!(&body, b);
                }
                assert!(!read_frame(&mut rd, cap, &mut body).unwrap());
            }
        }
    }

    /// A reader of `len` zero bytes behind a prefix declaring them,
    /// that stores none of them.
    struct Declared {
        prefix: [u8; 4],
        pos: u64,
        len: u64,
    }

    impl Read for Declared {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let at = self.pos as usize;
            let n = (buf.len() as u64).min(4 + self.len - self.pos) as usize;
            let head = &self.prefix[at.min(4)..(at + n).min(4)];
            buf[..head.len()].copy_from_slice(head);
            buf[head.len()..n].fill(0);
            self.pos += n as u64;
            Ok(n)
        }
    }

    #[test]
    fn a_body_of_exactly_the_cap_is_read() {
        for cap in CAPS {
            let mut r = Declared {
                prefix: cap.to_be_bytes(),
                pos: 0,
                len: u64::from(cap),
            };
            let mut body = Vec::new();
            assert!(read_frame(&mut r, cap, &mut body).unwrap());
            assert_eq!(body.len(), cap as usize);
            assert!(!read_frame(&mut r, cap, &mut body).unwrap());
        }
    }

    /// A prefix over the cap is refused before the buffer grows, and
    /// nothing past the prefix is read.
    #[test]
    fn a_prefix_over_the_cap_is_refused_at_the_prefix() {
        for cap in CAPS {
            for len in [cap + 1, u32::MAX] {
                let mut data = len.to_be_bytes().to_vec();
                data.extend_from_slice(&[0; 64]);
                let mut cur = Cursor::new(data);
                let mut body = Vec::new();
                let err = read_frame(&mut cur, cap, &mut body).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{len}");
                assert!(err.to_string().contains("bad frame length"), "{err}");
                assert_eq!(cur.position(), 4);
                assert_eq!(body.capacity(), 0);
            }
        }
    }

    /// A stream that ends inside a frame, in its prefix or its body, is
    /// `UnexpectedEof`; one that ends between frames is `Ok(false)`.
    #[test]
    fn only_an_end_between_frames_is_clean() {
        for cap in CAPS {
            let data = framed(&[b"alpha", b"", b"abcdef"], cap);
            let whole = data.len();
            for cut in 0..=whole {
                let mut cur = Cursor::new(&data[..cut]);
                let mut body = Vec::new();
                let mut frames = 0;
                let end = loop {
                    match read_frame(&mut cur, cap, &mut body) {
                        Ok(true) => frames += 1,
                        end => break end,
                    }
                };
                // Frames end at 9, 13 and 23 bytes.
                let boundary = [0, 9, 13, whole].contains(&cut);
                match end {
                    Ok(false) => assert!(boundary, "cut {cut}"),
                    Err(e) => {
                        assert!(!boundary, "cut {cut}");
                        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                    }
                    Ok(true) => unreachable!(),
                }
                assert_eq!(
                    frames,
                    [0, 9, 13, whole].iter().filter(|&&b| b <= cut).count() - 1
                );
            }
        }
    }

    #[test]
    fn an_oversize_body_is_not_written() {
        let mut out = Vec::new();
        let err = write_frame(&mut out, 4, [b"abc", b"de"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty());
        write_frame(&mut out, 5, [b"abc", b"de"]).unwrap();
        assert_eq!(out, b"\0\0\0\x05abcde");
    }
}
