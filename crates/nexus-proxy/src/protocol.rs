//! Wire protocol of the Nexus Proxy (real-socket implementation).
//!
//! Control messages are length-prefixed frames:
//!
//! ```text
//! +--------+------+------------------+
//! | u32 BE | u8   | body             |
//! | length | type | (type-specific)  |
//! +--------+------+------------------+
//! ```
//!
//! `length` covers the type byte and body. Once a relay is negotiated
//! the stream leaves framed mode and both directions become an opaque
//! byte pipe (the relay copies, never parses — like the original).
//!
//! The message set mirrors the paper's §3:
//!
//! * `ConnectReq`/`ConnectRep` — active open (`NXProxyConnect`, Fig. 3);
//! * `BindReq`/`BindRep` — passive registration (`NXProxyBind`, Fig. 4
//!   steps 1-2);
//! * `RelayReq`/`RelayRep` — outer→inner completion of a passive open
//!   (Fig. 4 step 4);
//! * `Ping`/`Pong` — keepalive on the persistent outer→inner control
//!   session (dead-peer detection, PR 5);
//! * `Busy` — typed admission-control refusal (instead of silently
//!   accepting work the relay cannot finish);
//! * `BindSync` — the outer server mirrors its live bind registrations
//!   to the inner server, so a restarted inner server learns them
//!   again and can refuse relay requests for unregistered endpoints;
//! * `Redirect` — cross-shard bind lookup: an outer shard that does
//!   not own a bind key answers with the owner's control endpoint
//!   instead of a bare failure (sharded fleet, DESIGN.md §6d);
//! * `ShardSync` — generation-counted fleet-membership announcement,
//!   the BindSync discipline applied to the shard map itself.

use std::io::{self, Read, Write};

/// Upper bound on a control frame; anything larger is a protocol error
/// (relay *data* is never framed, so this only bounds control traffic).
pub const MAX_FRAME: u32 = 64 * 1024;

/// Reject a declared length before any allocation sized by it. A
/// malformed or adversarial peer controls the length prefix; capping
/// here means the decoder's allocations are bounded by [`MAX_FRAME`]
/// no matter what arrives on the wire.
fn check_frame_len(len: u32) -> io::Result<()> {
    if len == 0 || len > MAX_FRAME {
        return Err(bad(&format!(
            "bad frame length {len} (cap {MAX_FRAME} bytes)"
        )));
    }
    Ok(())
}

/// A control message, generic over how a host is named: `String` on
/// the wire ([`Msg`]), `netsim::NodeId` in virtual time. One enum, so
/// the servers' decision core (`crate::core`) is written once against
/// it and both drivers carry the same frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlMsg<H> {
    /// Client → outer: connect me to `host:port` and start relaying.
    ConnectReq { host: H, port: u16 },
    /// Outer → client: dial outcome. On `ok`, the stream is now a pipe.
    ConnectRep { ok: bool, detail: String },
    /// Client → outer: I listen privately at `host:port`; allocate a
    /// rendezvous port on yourself and relay peers to me. `fallback`
    /// means the client *knows* this shard is not the key's HRW owner
    /// but could not reach the owner (breaker open / dials failing) —
    /// the shard must serve instead of redirecting, or a dead owner
    /// would bounce clients forever.
    BindReq { host: H, port: u16, fallback: bool },
    /// Outer → client: rendezvous port allocated (0 = failure).
    BindRep { rdv_port: u16 },
    /// Outer → inner: a peer arrived for the client privately listening
    /// at `host:port`; dial it and bridge.
    RelayReq { host: H, port: u16 },
    /// Inner → outer: dial outcome. On `ok`, the stream is now a pipe.
    RelayRep { ok: bool },
    /// Keepalive probe on the outer→inner control session.
    Ping { seq: u32 },
    /// Keepalive reply, echoing the probe's sequence number.
    Pong { seq: u32 },
    /// Typed admission refusal: the server is at capacity; retry
    /// later. Sent instead of a `ConnectRep`/`BindRep`.
    Busy,
    /// Outer → inner: the complete set of live bind registrations
    /// (client private endpoints) *of the sending shard*. Replaces
    /// that shard's slice of the inner server's authorization table;
    /// re-sent after every reconnect so a restarted inner server
    /// re-learns the live binds.
    BindSync { binds: Vec<(H, u16)> },
    /// Outer → client: this shard does not own the requested bind
    /// key. Retry against the owner shard's control endpoint
    /// `host:port` — a typed "not mine, ask them" instead of a bare
    /// NotFound, so one stale shard choice costs one extra hop.
    Redirect { host: H, port: u16 },
    /// Fleet membership, generation-counted: the shard-map twin of
    /// `BindSync`. Receivers install it only if `gen` is strictly
    /// newer than what they hold, so a replaced shard re-announcing
    /// an old map cannot roll the fleet view back. `sender` is the
    /// announcing shard's index in `members` — on a control session it
    /// names the authorization slice the session's `BindSync` frames
    /// belong to (the accept side of a loopback socket cannot see who
    /// dialed, so identity must ride the wire).
    ShardSync {
        gen: u64,
        sender: u16,
        members: Vec<(H, u16)>,
    },
}

/// The wire form: hosts are logical host names.
pub type Msg = CtrlMsg<String>;

const T_CONNECT_REQ: u8 = 1;
const T_CONNECT_REP: u8 = 2;
const T_BIND_REQ: u8 = 3;
const T_BIND_REP: u8 = 4;
const T_RELAY_REQ: u8 = 5;
const T_RELAY_REP: u8 = 6;
const T_PING: u8 = 7;
const T_PONG: u8 = 8;
const T_BUSY: u8 = 9;
const T_BIND_SYNC: u8 = 10;
const T_REDIRECT: u8 = 11;
const T_SHARD_SYNC: u8 = 12;

/// Encoding failure: a message field cannot be represented on the wire.
///
/// The wire format length-prefixes strings with a `u16`; a longer
/// string used to be silently truncated to `len % 65536` via an `as`
/// cast, producing a frame whose prefix disagreed with its body — the
/// peer would then mis-parse or reject it with no hint of the cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A string field exceeds the `u16` wire-length limit.
    StringTooLong {
        /// Which field overflowed (e.g. `"host"`).
        field: &'static str,
        /// Actual byte length of the offending string.
        len: usize,
    },
    /// The encoded frame (type byte + body) exceeds [`MAX_FRAME`].
    /// Encode and decode enforce the same cap: a frame we refuse to
    /// parse is a frame we refuse to produce. (Before this check the
    /// length was cast `as u32` unchecked, so an oversize body would
    /// be emitted only for the peer's decoder to reject it.)
    FrameTooLarge {
        /// Actual length of the oversize frame payload.
        len: usize,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::StringTooLong { field, len } => write!(
                f,
                "{field} is {len} bytes; wire format caps strings at {} bytes",
                u16::MAX
            ),
            EncodeError::FrameTooLarge { len } => write!(
                f,
                "frame payload is {len} bytes; control frames cap at {MAX_FRAME} bytes"
            ),
        }
    }
}

impl std::error::Error for EncodeError {}

impl From<EncodeError> for io::Error {
    fn from(e: EncodeError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

pub(crate) fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, field: &'static str, s: &str) -> Result<(), EncodeError> {
    let len = s.len();
    let wire_len = u16::try_from(len).map_err(|_| EncodeError::StringTooLong { field, len })?;
    put_u16(buf, wire_len);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A `u16` count, then that many `(host, port)` entries.
fn put_endpoints(
    buf: &mut Vec<u8>,
    field: &'static str,
    eps: &[(String, u16)],
) -> Result<(), EncodeError> {
    let len = eps.len();
    let count = u16::try_from(len).map_err(|_| EncodeError::StringTooLong { field, len })?;
    put_u16(buf, count);
    for (host, port) in eps {
        put_str(buf, "host", host)?;
        put_u16(buf, *port);
    }
    Ok(())
}

/// Byte-slice cursor for decoding (the `bytes::Buf` subset we need,
/// with totality: every read is bounds-checked). Shared with the
/// stripe-frame codec (`crate::stripe`), which follows the same
/// framing discipline.
pub(crate) struct Cursor<'a> {
    pub(crate) rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(bad("truncated frame"));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    pub(crate) fn get_u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn get_u16(&mut self) -> io::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    pub(crate) fn get_u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn get_u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_be_bytes(raw))
    }

    fn get_str(&mut self) -> io::Result<String> {
        let n = self.get_u16()? as usize;
        let body = self.take(n)?;
        String::from_utf8(body.to_vec()).map_err(|_| bad("non-utf8 string"))
    }

    /// The inverse of [`put_endpoints`]; `what` names the entries in
    /// the error.
    fn get_endpoints(&mut self, what: &str) -> io::Result<Vec<(String, u16)>> {
        let count = self.get_u16()? as usize;
        // Bound the declared count by the bytes actually present (each
        // entry is ≥ 4 bytes) *before* any count-sized work — the
        // count is attacker-controlled.
        if count > self.rest.len() / 4 {
            return Err(bad(&format!(
                "{what} count {count} exceeds frame ({} bytes left)",
                self.rest.len()
            )));
        }
        let mut eps = Vec::with_capacity(count);
        for _ in 0..count {
            let host = self.get_str()?;
            eps.push((host, self.get_u16()?));
        }
        Ok(eps)
    }

    pub(crate) fn get_i32(&mut self) -> io::Result<i32> {
        let b = self.take(4)?;
        Ok(i32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

pub(crate) fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Msg {
    /// Encode into a framed byte buffer.
    ///
    /// Fails (rather than truncating) if a string field exceeds the
    /// `u16` wire-length limit.
    pub fn encode(&self) -> Result<Vec<u8>, EncodeError> {
        let mut body = Vec::with_capacity(64);
        match self {
            Msg::ConnectReq { host, port } => {
                body.push(T_CONNECT_REQ);
                put_str(&mut body, "host", host)?;
                put_u16(&mut body, *port);
            }
            Msg::ConnectRep { ok, detail } => {
                body.push(T_CONNECT_REP);
                body.push(u8::from(*ok));
                put_str(&mut body, "detail", detail)?;
            }
            Msg::BindReq {
                host,
                port,
                fallback,
            } => {
                body.push(T_BIND_REQ);
                put_str(&mut body, "host", host)?;
                put_u16(&mut body, *port);
                body.push(u8::from(*fallback));
            }
            Msg::BindRep { rdv_port } => {
                body.push(T_BIND_REP);
                put_u16(&mut body, *rdv_port);
            }
            Msg::RelayReq { host, port } => {
                body.push(T_RELAY_REQ);
                put_str(&mut body, "host", host)?;
                put_u16(&mut body, *port);
            }
            Msg::RelayRep { ok } => {
                body.push(T_RELAY_REP);
                body.push(u8::from(*ok));
            }
            Msg::Ping { seq } => {
                body.push(T_PING);
                put_u32(&mut body, *seq);
            }
            Msg::Pong { seq } => {
                body.push(T_PONG);
                put_u32(&mut body, *seq);
            }
            Msg::Busy => {
                body.push(T_BUSY);
            }
            Msg::BindSync { binds } => {
                body.push(T_BIND_SYNC);
                put_endpoints(&mut body, "binds", binds)?;
            }
            Msg::Redirect { host, port } => {
                body.push(T_REDIRECT);
                put_str(&mut body, "host", host)?;
                put_u16(&mut body, *port);
            }
            Msg::ShardSync {
                gen,
                sender,
                members,
            } => {
                body.push(T_SHARD_SYNC);
                put_u64(&mut body, *gen);
                put_u16(&mut body, *sender);
                put_endpoints(&mut body, "members", members)?;
            }
        }
        // Enforce the cap symmetrically with `check_frame_len`: never
        // emit a frame the peer's decoder is required to reject. The
        // old `as u32` cast here could not truncate in practice (the
        // u16 string caps bound the body), but an oversize frame
        // would still have been *sent* and then refused remotely.
        if body.len() > MAX_FRAME as usize {
            return Err(EncodeError::FrameTooLarge { len: body.len() });
        }
        let mut framed = Vec::with_capacity(4 + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_be_bytes());
        framed.extend_from_slice(&body);
        Ok(framed)
    }

    /// Decode one frame body (without the length prefix).
    pub fn decode(body: &[u8]) -> io::Result<Msg> {
        let mut cur = Cursor { rest: body };
        if cur.rest.is_empty() {
            return Err(bad("empty frame"));
        }
        let t = cur.get_u8()?;
        let msg = match t {
            T_CONNECT_REQ => {
                let host = cur.get_str()?;
                Msg::ConnectReq {
                    host,
                    port: cur.get_u16()?,
                }
            }
            T_CONNECT_REP => {
                let ok = cur.get_u8()? != 0;
                Msg::ConnectRep {
                    ok,
                    detail: cur.get_str()?,
                }
            }
            T_BIND_REQ => {
                let host = cur.get_str()?;
                let port = cur.get_u16()?;
                Msg::BindReq {
                    host,
                    port,
                    fallback: cur.get_u8()? != 0,
                }
            }
            T_BIND_REP => Msg::BindRep {
                rdv_port: cur.get_u16()?,
            },
            T_RELAY_REQ => {
                let host = cur.get_str()?;
                Msg::RelayReq {
                    host,
                    port: cur.get_u16()?,
                }
            }
            T_RELAY_REP => Msg::RelayRep {
                ok: cur.get_u8()? != 0,
            },
            T_PING => Msg::Ping {
                seq: cur.get_u32()?,
            },
            T_PONG => Msg::Pong {
                seq: cur.get_u32()?,
            },
            T_BUSY => Msg::Busy,
            T_BIND_SYNC => Msg::BindSync {
                binds: cur.get_endpoints("bind")?,
            },
            T_REDIRECT => {
                let host = cur.get_str()?;
                Msg::Redirect {
                    host,
                    port: cur.get_u16()?,
                }
            }
            T_SHARD_SYNC => {
                let gen = cur.get_u64()?;
                let sender = cur.get_u16()?;
                Msg::ShardSync {
                    gen,
                    sender,
                    members: cur.get_endpoints("member")?,
                }
            }
            other => return Err(bad(&format!("unknown message type {other}"))),
        };
        if !cur.rest.is_empty() {
            return Err(bad("trailing bytes in frame"));
        }
        Ok(msg)
    }

    /// Write one framed message to a stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let framed = self.encode()?;
        w.write_all(&framed)?;
        w.flush()
    }

    /// Read one framed message from a stream.
    pub fn read_from(r: &mut impl Read) -> io::Result<Msg> {
        let mut len = [0u8; 4];
        // Generic `Read`; socket callers own the deadline (the servers
        // set read timeouts on their streams).
        r.read_exact(&mut len)?; // lint:allow(deadline-io)
        let len = u32::from_be_bytes(len);
        // Cap-check the declared length *before* allocating the body
        // buffer: the prefix is peer-controlled.
        check_frame_len(len)?;
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?; // lint:allow(deadline-io)
        Msg::decode(&body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(m: Msg) {
        let framed = m.encode().unwrap();
        let len = u32::from_be_bytes(framed[0..4].try_into().unwrap());
        assert_eq!(len as usize, framed.len() - 4);
        let decoded = Msg::decode(&framed[4..]).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(Msg::ConnectReq {
            host: "etl-sun".into(),
            port: 5001,
        });
        roundtrip(Msg::ConnectRep {
            ok: true,
            detail: String::new(),
        });
        roundtrip(Msg::ConnectRep {
            ok: false,
            detail: "firewall dropped".into(),
        });
        roundtrip(Msg::BindReq {
            host: "rwcp-sun".into(),
            port: 40001,
            fallback: false,
        });
        roundtrip(Msg::BindReq {
            host: "rwcp-sun".into(),
            port: 40001,
            fallback: true,
        });
        roundtrip(Msg::BindRep { rdv_port: 6001 });
        roundtrip(Msg::BindRep { rdv_port: 0 });
        roundtrip(Msg::RelayReq {
            host: "compas0".into(),
            port: 40002,
        });
        roundtrip(Msg::RelayRep { ok: true });
    }

    #[test]
    fn stream_read_write() {
        let mut buf = Vec::new();
        let msgs = vec![
            Msg::ConnectReq {
                host: "a".into(),
                port: 1,
            },
            Msg::RelayRep { ok: false },
        ];
        for m in &msgs {
            m.write_to(&mut buf).unwrap();
        }
        let mut cur = std::io::Cursor::new(buf);
        for m in &msgs {
            assert_eq!(&Msg::read_from(&mut cur).unwrap(), m);
        }
        // EOF afterwards.
        assert!(Msg::read_from(&mut cur).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Msg::decode(&[]).is_err());
        assert!(Msg::decode(&[99]).is_err());
        // Truncated string.
        assert!(Msg::decode(&[T_CONNECT_REQ, 0, 5, b'a']).is_err());
        // Trailing bytes.
        let mut f = Msg::RelayRep { ok: true }.encode().unwrap();
        f.push(0xFF);
        assert!(Msg::decode(&f[4..]).is_err());
        // Oversized frame length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        buf.push(T_RELAY_REP);
        let mut cur = std::io::Cursor::new(buf);
        assert!(Msg::read_from(&mut cur).is_err());
    }

    /// Any (host, port) survives an encode/decode round trip in every
    /// host-carrying message — seeded sweep over hostname-alphabet
    /// strings of every length 0..=64.
    #[test]
    fn random_hosts_roundtrip() {
        let mut rng = netsim::SimRng::seed_from_u64(0x05750);
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789.-";
        for len in 0..=64usize {
            let host: String = (0..len)
                .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char)
                .collect();
            let port = rng.below(u64::from(u16::MAX) + 1) as u16;
            roundtrip(Msg::ConnectReq {
                host: host.clone(),
                port,
            });
            roundtrip(Msg::BindReq {
                host: host.clone(),
                port,
                fallback: port & 1 == 0,
            });
            roundtrip(Msg::RelayReq { host, port });
        }
    }

    /// Oversized strings are rejected with a typed error instead of
    /// silently truncating the u16 length prefix (regression: the old
    /// `s.len() as u16` cast wrapped and produced corrupt frames).
    #[test]
    fn oversized_string_is_rejected_not_truncated() {
        let host = "h".repeat(usize::from(u16::MAX) + 1);
        let err = Msg::ConnectReq { host, port: 80 }.encode().unwrap_err();
        assert_eq!(
            err,
            EncodeError::StringTooLong {
                field: "host",
                len: usize::from(u16::MAX) + 1,
            }
        );
        // The io::Error mapping used by write_to classifies it as
        // InvalidData and keeps the message.
        let detail = "x".repeat(70_000);
        let m = Msg::ConnectRep { ok: false, detail };
        let io_err = m.write_to(&mut Vec::new()).unwrap_err();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("detail is 70000 bytes"));
        // A string at the u16 cap is fine *per-field*; the whole-frame
        // cap now governs (see frame_length_boundary_at_max_frame).
        let edge = Msg::ConnectReq {
            host: "h".repeat(usize::from(u16::MAX)),
            port: 80,
        };
        assert_eq!(
            edge.encode().unwrap_err(),
            EncodeError::FrameTooLarge {
                len: usize::from(u16::MAX) + 5,
            }
        );
    }

    /// Encode enforces [`MAX_FRAME`] symmetrically with decode: the
    /// largest encodable ConnectReq body is exactly `MAX_FRAME` bytes
    /// (type + u16 len + host + port), and one byte more is a typed
    /// `FrameTooLarge` — not a silently emitted frame the peer must
    /// reject (the old `as u32` path).
    #[test]
    fn frame_length_boundary_at_max_frame() {
        let fits = MAX_FRAME as usize - 5; // 1 type + 2 len + 2 port
        roundtrip(Msg::ConnectReq {
            host: "h".repeat(fits),
            port: 80,
        });
        let err = Msg::ConnectReq {
            host: "h".repeat(fits + 1),
            port: 80,
        }
        .encode()
        .unwrap_err();
        assert_eq!(
            err,
            EncodeError::FrameTooLarge {
                len: MAX_FRAME as usize + 1,
            }
        );
        // The io::Error mapping keeps the cause readable.
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
        assert!(io_err.to_string().contains("frame payload"), "{io_err}");
        // Whatever encode emits, decode accepts: the caps agree.
        let frame = Msg::BindSync {
            binds: (0..4094).map(|i| ("aaaaaaaaah".into(), i)).collect(),
        }
        .encode()
        .unwrap();
        let len = u32::from_be_bytes(frame[0..4].try_into().unwrap());
        assert!(len <= MAX_FRAME);
    }

    #[test]
    fn liveness_messages_roundtrip() {
        roundtrip(Msg::Ping { seq: 0 });
        roundtrip(Msg::Ping { seq: u32::MAX });
        roundtrip(Msg::Pong { seq: 7 });
        roundtrip(Msg::Busy);
        roundtrip(Msg::BindSync { binds: vec![] });
        roundtrip(Msg::BindSync {
            binds: vec![("rwcp-sun".into(), 40001), ("compas0".into(), 40002)],
        });
    }

    #[test]
    fn shard_messages_roundtrip() {
        roundtrip(Msg::Redirect {
            host: "outer2".into(),
            port: 7002,
        });
        roundtrip(Msg::ShardSync {
            gen: 0,
            sender: 0,
            members: vec![],
        });
        roundtrip(Msg::ShardSync {
            gen: u64::MAX,
            sender: 1,
            members: vec![("outer0".into(), 7000), ("outer1".into(), 7001)],
        });
    }

    /// A `ShardSync` whose declared member count exceeds what the
    /// frame can hold is refused before any count-sized work, exactly
    /// like `BindSync`.
    #[test]
    fn shard_sync_count_is_bounded_by_frame() {
        let mut body = vec![T_SHARD_SYNC];
        body.extend_from_slice(&7u64.to_be_bytes()); // gen
        body.extend_from_slice(&0u16.to_be_bytes()); // sender
        body.extend_from_slice(&u16::MAX.to_be_bytes()); // count 65535
        body.extend_from_slice(&[0, 1, b'x', 0, 80][..]); // one real entry
        let err = Msg::decode(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("member count"), "{err}");
    }

    /// The declared-length cap is enforced before the body buffer is
    /// allocated: a 4 GiB length prefix must fail fast with the typed
    /// decode error, not attempt the allocation (regression for the
    /// unbounded-allocation class this PR closes).
    #[test]
    fn absurd_frame_length_rejected_before_allocation() {
        /// A reader that panics if anyone tries to read more than the
        /// 4-byte prefix — proof the cap fires before allocation+read.
        struct PrefixOnly(Vec<u8>, usize);
        impl Read for PrefixOnly {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                assert!(
                    self.1 < 4,
                    "decoder read past the length prefix of an absurd frame"
                );
                let n = buf.len().min(self.0.len() - self.1);
                buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
                self.1 += n;
                Ok(n)
            }
        }
        for len in [MAX_FRAME + 1, u32::MAX, 1 << 30] {
            let mut r = PrefixOnly(len.to_be_bytes().to_vec(), 0);
            let err = Msg::read_from(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("bad frame length"), "{err}");
        }
    }

    /// A `BindSync` whose declared entry count exceeds what the frame
    /// can possibly hold is refused before any count-sized work.
    #[test]
    fn bind_sync_count_is_bounded_by_frame() {
        let mut body = vec![T_BIND_SYNC];
        body.extend_from_slice(&u16::MAX.to_be_bytes()); // count 65535
        body.extend_from_slice(&[0, 1, b'x', 0, 80][..]); // one real entry
        let err = Msg::decode(&body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bind count"), "{err}");
        // Oversized bind lists are refused at encode time, typed.
        let binds: Vec<(String, u16)> = (0..usize::from(u16::MAX) + 1)
            .map(|i| (format!("h{i}"), 1))
            .collect();
        assert_eq!(
            Msg::BindSync { binds }.encode().unwrap_err(),
            EncodeError::StringTooLong {
                field: "binds",
                len: usize::from(u16::MAX) + 1,
            }
        );
    }

    /// Random bytes never panic the decoder (totality).
    #[test]
    fn decoder_is_total_on_random_bytes() {
        let mut rng = netsim::SimRng::seed_from_u64(20260806);
        for round in 0..2000 {
            let len = (round % 128) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            let _ = Msg::decode(&bytes);
        }
    }
}
