//! Property: the relay is byte-transparent. Whatever is written into
//! one end of a relayed connection — any content, any write-chunking,
//! either direction, active or passive open — comes out identically.
//!
//! Cases are generated from a seeded [`netsim::SimRng`] stream, so the
//! sweep is deterministic and reproducible offline.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use firewall::vnet::VNet;
use firewall::{Policy, NXPORT, OUTER_PORT};
use netsim::SimRng;
use nexus_proxy::protocol::{EncodeError, Msg, MAX_FRAME};
use nexus_proxy::{
    nx_proxy_bind, nx_proxy_connect, InnerConfig, InnerServer, OuterConfig, OuterServer, ProxyEnv,
    StripeFrame, MAX_CHUNK_BYTES, MAX_STRIPES, MAX_STRIPE_FRAME,
};
use std::io::{Read, Write};
use std::net::TcpStream;

struct World {
    net: VNet,
    outer: OuterServer,
    _inner: InnerServer,
}

/// The relay table must drain once both ends of every relayed
/// connection are gone — a leaked entry is a half-open relay the
/// reaper would eventually have to collect.
fn assert_relays_drained(w: &World) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while w.outer.active_relays() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "outer relay table still holds {} entries",
            w.outer.active_relays()
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

fn world() -> World {
    let net = VNet::new();
    let rwcp = net.add_site("rwcp", Some(Policy::typical("rwcp")));
    let dmz = net.add_site("dmz", None);
    let etl = net.add_site("etl", None);
    net.add_host("rwcp-sun", rwcp);
    let inner_ref = net.add_host("rwcp-inner", rwcp);
    net.add_host("rwcp-outer", dmz);
    net.add_host("etl-sun", etl);
    net.reload_policy(rwcp, Policy::typical_with_nxport("rwcp", inner_ref, NXPORT));
    let inner = InnerServer::start(net.clone(), InnerConfig::new("rwcp-inner")).unwrap();
    let outer = OuterServer::start(
        net.clone(),
        OuterConfig::new("rwcp-outer").with_inner("rwcp-inner", NXPORT),
    )
    .unwrap();
    World {
        net,
        outer,
        _inner: inner,
    }
}

/// One random test case: payload plus a write-chunking schedule.
fn random_case(rng: &mut SimRng) -> (Vec<u8>, Vec<usize>) {
    let len = 1 + rng.below(20_000) as usize;
    let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
    let nchunks = 1 + rng.below(5) as usize;
    let chunks: Vec<usize> = (0..nchunks).map(|_| 1 + rng.below(4095) as usize).collect();
    (data, chunks)
}

/// Write `data` in the given chunk sizes (cycled), then shutdown-write.
fn chunked_write(mut s: TcpStream, data: Vec<u8>, chunks: Vec<usize>) {
    std::thread::spawn(move || {
        let mut pos = 0;
        let mut i = 0;
        while pos < data.len() {
            let n = chunks[i % chunks.len()].max(1).min(data.len() - pos);
            if s.write_all(&data[pos..pos + n]).is_err() {
                return;
            }
            pos += n;
            i += 1;
        }
        let _ = s.shutdown(std::net::Shutdown::Write);
    });
}

fn read_all(mut s: TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

/// Passive relay (peer → outer → inner → client): arbitrary bytes with
/// arbitrary write chunking arrive intact, and the echoed reverse
/// direction too. Socket-heavy: keep the case count modest.
#[test]
fn passive_relay_is_transparent() {
    let mut rng = SimRng::seed_from_u64(0x9a55);
    for _ in 0..8 {
        let (data, chunks) = random_case(&mut rng);
        let w = world();
        let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
        let listener = nx_proxy_bind(&w.net, &env, "rwcp-sun").unwrap();
        let adv = listener.advertised.clone();
        // Inside server echoes everything then closes.
        let expected_len = data.len();
        let srv = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut buf = vec![0u8; expected_len];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
            buf
        });
        let peer = w.net.dial("etl-sun", &adv.0, adv.1).unwrap();
        let reader = peer.try_clone().unwrap();
        chunked_write(peer, data.clone(), chunks);
        let mut echoed = vec![0u8; expected_len];
        let mut r = reader;
        r.read_exact(&mut echoed).unwrap();
        let received = srv.join().unwrap();
        assert_eq!(received, data);
        assert_eq!(echoed, data);
        drop(r);
        assert_relays_drained(&w);
    }
}

// ---------------------------------------------------------------------
// Wire-protocol properties (seeded sweeps, same determinism policy as
// the relay cases above).
// ---------------------------------------------------------------------

/// A random instance of every control-message type.
fn random_msgs(rng: &mut SimRng) -> Vec<Msg> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
    let mut s = |max_len: u64| -> String {
        let len = rng.below(max_len + 1) as usize;
        (0..len)
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char)
            .collect()
    };
    let host = s(64);
    let detail = s(256);
    let nbinds = s(5).len();
    let mut binds: Vec<(String, u16)> = Vec::with_capacity(nbinds);
    for _ in 0..nbinds {
        let h = s(32);
        let p = s(8).len() as u16;
        binds.push((h, p));
    }
    let nmembers = s(4).len();
    let mut members: Vec<(String, u16)> = Vec::with_capacity(nmembers);
    for _ in 0..nmembers {
        let h = s(32);
        let p = s(8).len() as u16;
        members.push((h, p));
    }
    let port = rng.below(u64::from(u16::MAX) + 1) as u16;
    let rdv_port = rng.below(u64::from(u16::MAX) + 1) as u16;
    let ok = rng.below(2) == 1;
    let seq = rng.below(u64::from(u32::MAX) + 1) as u32;
    let gen = rng.below(1 << 32);
    let sender = rng.below(16) as u16;
    vec![
        Msg::ConnectReq {
            host: host.clone(),
            port,
        },
        Msg::ConnectRep { ok, detail },
        Msg::BindReq {
            host: host.clone(),
            port,
            fallback: !ok,
        },
        Msg::BindRep { rdv_port },
        Msg::RelayReq {
            host: host.clone(),
            port,
        },
        Msg::RelayRep { ok },
        Msg::Ping { seq },
        Msg::Pong { seq },
        Msg::Busy,
        Msg::BindSync { binds },
        Msg::Redirect { host, port },
        Msg::ShardSync {
            gen,
            sender,
            members,
        },
    ]
}

/// Every message type round-trips through encode/decode, and the
/// frame's length prefix always matches its body.
#[test]
fn every_record_type_roundtrips() {
    let mut rng = SimRng::seed_from_u64(0x0b5);
    for _ in 0..200 {
        for msg in random_msgs(&mut rng) {
            let framed = msg.encode().unwrap();
            let len = u32::from_be_bytes(framed[0..4].try_into().unwrap()) as usize;
            assert_eq!(len, framed.len() - 4, "length prefix disagrees: {msg:?}");
            assert_eq!(Msg::decode(&framed[4..]).unwrap(), msg);
        }
    }
}

/// Both encode-side caps are exact and fire in field order. The
/// largest `BindReq` whose frame payload is exactly [`MAX_FRAME`]
/// round-trips; one more byte is refused with the symmetric
/// [`EncodeError::FrameTooLarge`] (the cap the decoder enforces); and
/// a string past the u16 wire-length limit is the typed, field-named
/// [`EncodeError::StringTooLong`].
#[test]
fn string_length_boundary_is_exact() {
    // BindReq payload: type(1) + hlen(2) + host + port(2) + fallback(1).
    let max_host = MAX_FRAME as usize - 6;
    let msg = Msg::BindReq {
        host: "h".repeat(max_host),
        port: 1,
        fallback: true,
    };
    let framed = msg.encode().unwrap();
    assert_eq!(framed.len() - 4, MAX_FRAME as usize);
    assert_eq!(Msg::decode(&framed[4..]).unwrap(), msg);

    let over_frame = Msg::BindReq {
        host: "h".repeat(max_host + 1),
        port: 1,
        fallback: true,
    };
    assert_eq!(
        over_frame.encode().unwrap_err(),
        EncodeError::FrameTooLarge {
            len: MAX_FRAME as usize + 1,
        }
    );

    let over = "h".repeat(usize::from(u16::MAX) + 1);
    for (msg, field) in [
        (
            Msg::ConnectReq {
                host: over.clone(),
                port: 1,
            },
            "host",
        ),
        (
            Msg::BindReq {
                host: over.clone(),
                port: 1,
                fallback: false,
            },
            "host",
        ),
        (
            Msg::RelayReq {
                host: over.clone(),
                port: 1,
            },
            "host",
        ),
        (
            Msg::ConnectRep {
                ok: true,
                detail: over.clone(),
            },
            "detail",
        ),
    ] {
        assert_eq!(
            msg.encode().unwrap_err(),
            EncodeError::StringTooLong {
                field,
                len: usize::from(u16::MAX) + 1,
            }
        );
    }
}

/// Totality under truncation: chop a *valid* frame body at every
/// possible length — the decoder must return an error (or, never, a
/// wrong message), and must not panic. This covers every partial-read
/// shape a flaky transport can hand the parser.
#[test]
fn truncated_frames_never_panic() {
    let mut rng = SimRng::seed_from_u64(0x7204c);
    for _ in 0..20 {
        for msg in random_msgs(&mut rng) {
            let framed = msg.encode().unwrap();
            let body = &framed[4..];
            for cut in 0..body.len() {
                assert!(
                    Msg::decode(&body[..cut]).is_err(),
                    "truncated {msg:?} at {cut}/{} decoded",
                    body.len()
                );
            }
        }
    }
}

/// Totality on arbitrary bytes: random buffers (including ones that
/// start with a valid type tag) never panic the decoder.
#[test]
fn random_buffers_never_panic() {
    let mut rng = SimRng::seed_from_u64(0xf022ed);
    for round in 0..4000u64 {
        let len = (round % 96) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        if round % 2 == 0 && !bytes.is_empty() {
            // Half the corpus gets a valid type tag so the field
            // parsers (not just the tag switch) see the fuzz.
            bytes[0] = (rng.below(12) + 1) as u8;
        }
        let _ = Msg::decode(&bytes);
    }
}

/// Totality under corruption: flip single bits in valid frame bodies
/// of *every* control-frame variant. The decoder must either error or
/// produce some well-formed message — never panic, never over-read.
#[test]
fn bit_flipped_frames_never_panic() {
    let mut rng = SimRng::seed_from_u64(0xb17f11);
    for _ in 0..20 {
        for msg in random_msgs(&mut rng) {
            let framed = msg.encode().unwrap();
            let body = framed[4..].to_vec();
            for _ in 0..16 {
                let mut corrupt = body.clone();
                let byte = rng.below(corrupt.len() as u64) as usize;
                let bit = rng.below(8) as u8;
                corrupt[byte] ^= 1 << bit;
                let _ = Msg::decode(&corrupt);
            }
        }
    }
}

/// Oversize declared lengths are refused before any body allocation:
/// a frame header announcing more than [`MAX_FRAME`] bytes errors out
/// of `read_from` even though no body bytes follow — the reader never
/// waits for (or allocates) the announced mountain of data.
#[test]
fn oversize_declared_lengths_are_rejected_up_front() {
    let mut rng = SimRng::seed_from_u64(0x0515e);
    for _ in 0..64 {
        let len = MAX_FRAME + 1 + (rng.below(u64::from(u32::MAX - MAX_FRAME)) as u32);
        let header = len.to_be_bytes();
        let mut cursor = std::io::Cursor::new(header.to_vec());
        let err = Msg::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len {len}");
        // Nothing past the 4-byte header was consumed.
        assert_eq!(cursor.position(), 4);
    }
}

// ---------------------------------------------------------------------
// Stripe bulk-data frames (DESIGN.md §6e): the same totality sweeps as
// the control protocol, over every `StripeFrame` variant.
// ---------------------------------------------------------------------

/// A random instance of every stripe-frame type.
fn random_stripe_frames(rng: &mut SimRng) -> Vec<StripeFrame> {
    let transfer = rng.below(1 << 48);
    let stripe = rng.below(u64::from(MAX_STRIPES)) as u16;
    let nbytes = rng.below(2048) as usize;
    let bytes: Vec<u8> = (0..nbytes).map(|_| rng.below(256) as u8).collect();
    vec![
        StripeFrame::Open {
            transfer,
            stripe,
            stripes: 1 + rng.below(u64::from(MAX_STRIPES)) as u16,
            chunk: 1 + rng.below(u64::from(MAX_CHUNK_BYTES)) as u32,
            total_len: rng.below(1 << 30),
            tag: rng.below(1 << 32) as i32,
        },
        StripeFrame::Data {
            transfer,
            stripe,
            seq: rng.below(1 << 20),
            offset: rng.below(1 << 30),
            bytes,
        },
        StripeFrame::Fin {
            transfer,
            stripe,
            chunks: rng.below(1 << 20),
        },
        StripeFrame::Done {
            transfer,
            total_len: rng.below(1 << 30),
        },
    ]
}

/// Every stripe-frame type round-trips through encode/decode, and the
/// length prefix always matches the body.
#[test]
fn every_stripe_frame_roundtrips() {
    let mut rng = SimRng::seed_from_u64(0x57a1e);
    for _ in 0..200 {
        for frame in random_stripe_frames(&mut rng) {
            let framed = frame.encode().unwrap();
            let len = u32::from_be_bytes(framed[0..4].try_into().unwrap()) as usize;
            assert_eq!(len, framed.len() - 4, "length prefix disagrees: {frame:?}");
            assert_eq!(StripeFrame::decode_body(&framed[4..]).unwrap(), frame);
        }
    }
}

/// Totality under truncation. `Data` carries its chunk as the frame
/// remainder, so a truncated `Data` may legally decode to a *shorter*
/// chunk — the reassembler's length cross-check rejects it later. The
/// decoder itself must never panic and never reproduce the original
/// message from a cut body; fixed-layout variants must error outright.
#[test]
fn truncated_stripe_frames_never_panic() {
    let mut rng = SimRng::seed_from_u64(0x57a2e);
    for _ in 0..20 {
        for frame in random_stripe_frames(&mut rng) {
            let framed = frame.encode().unwrap();
            let body = &framed[4..];
            for cut in 0..body.len() {
                if let Ok(got) = StripeFrame::decode_body(&body[..cut]) {
                    assert!(
                        matches!(frame, StripeFrame::Data { .. }),
                        "truncated {frame:?} at {cut}/{} decoded",
                        body.len()
                    );
                    assert_ne!(got, frame, "cut body reproduced the full frame");
                }
            }
        }
    }
}

/// Totality under corruption: flip single bits in valid bodies of
/// every stripe-frame variant — never panic, never over-read. A flip
/// in a `Data` chunk body decodes fine by design; the reassembler's
/// byte-compare (`Conflict`) is what catches it, which the wacs-check
/// `stripe` model verifies exhaustively.
#[test]
fn bit_flipped_stripe_frames_never_panic() {
    let mut rng = SimRng::seed_from_u64(0x57a3e);
    for _ in 0..20 {
        for frame in random_stripe_frames(&mut rng) {
            let framed = frame.encode().unwrap();
            let body = framed[4..].to_vec();
            for _ in 0..16 {
                let mut corrupt = body.clone();
                let byte = rng.below(corrupt.len() as u64) as usize;
                let bit = rng.below(8) as u8;
                corrupt[byte] ^= 1 << bit;
                let _ = StripeFrame::decode_body(&corrupt);
            }
        }
    }
}

/// Totality on arbitrary bytes: random buffers (half with a valid
/// stripe type tag) never panic the stripe decoder.
#[test]
fn random_stripe_buffers_never_panic() {
    let mut rng = SimRng::seed_from_u64(0x57a4e);
    for round in 0..4000u64 {
        let len = (round % 96) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
        if round % 2 == 0 && !bytes.is_empty() {
            bytes[0] = (rng.below(4) + 1) as u8;
        }
        let _ = StripeFrame::decode_body(&bytes);
    }
}

/// Oversize (or zero) declared stripe-frame lengths are refused before
/// any body allocation — the length prefix rides a relayed pipe and is
/// peer-controlled.
#[test]
fn oversize_stripe_lengths_are_rejected_up_front() {
    let mut rng = SimRng::seed_from_u64(0x57a5e);
    let mut cases = vec![0u32, MAX_STRIPE_FRAME + 1, u32::MAX];
    for _ in 0..61 {
        cases.push(MAX_STRIPE_FRAME + 1 + rng.below(u64::from(u32::MAX - MAX_STRIPE_FRAME)) as u32);
    }
    for len in cases {
        let header = len.to_be_bytes();
        let mut cursor = std::io::Cursor::new(header.to_vec());
        let err = StripeFrame::read_from(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "len {len}");
        // Nothing past the 4-byte header was consumed.
        assert_eq!(cursor.position(), 4);
    }
}

/// Active relay (client → outer → target): ditto.
#[test]
fn active_relay_is_transparent() {
    let mut rng = SimRng::seed_from_u64(0xac71);
    for _ in 0..8 {
        let (data, chunks) = random_case(&mut rng);
        let w = world();
        let env = ProxyEnv::via("rwcp-outer", OUTER_PORT);
        let l = w.net.bind("etl-sun", 0).unwrap();
        let port = l.logical_port();
        let srv = std::thread::spawn(move || {
            let (s, _) = l.accept().unwrap();
            read_all(s)
        });
        let s = nx_proxy_connect(&w.net, &env, "rwcp-sun", ("etl-sun", port)).unwrap();
        chunked_write(s, data.clone(), chunks);
        let received = srv.join().unwrap();
        assert_eq!(received, data);
        assert_relays_drained(&w);
    }
}
