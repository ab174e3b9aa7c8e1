//! Control-plane wire format: framed key/value records.
//!
//! RMF messages are small structured records (job requests, resource
//! lists, status reports). They are encoded as a count-prefixed list
//! of length-prefixed UTF-8 `key`/`value` pairs inside one
//! `nexus::msg` frame — simple, explicit, endian-fixed.
//!
//! Decoding is total: every malformed input maps to a
//! [`RecordError`] variant, never a panic. The gatekeeper and queue
//! daemons parse bytes that crossed a firewall; a crash on bad input
//! would be a remote denial of service.

use firewall::vnet::{StopHandle, VListener};
use nexus_proxy::Workers;
use std::fmt;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::thread;

/// Why a record failed to decode or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// Input ended before the announced structure did.
    Truncated,
    /// Field count exceeds the sanity cap (corrupt prefix).
    AbsurdFieldCount(u32),
    /// A string length exceeds the sanity cap (corrupt prefix).
    AbsurdStringLength(u32),
    /// A key or value is not valid UTF-8.
    NonUtf8,
    /// Bytes remain after the announced structure ended.
    TrailingBytes,
    /// A required field is absent.
    MissingField(String),
    /// A field exists but is not parseable as the expected type.
    BadField(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Truncated => write!(f, "truncated record"),
            RecordError::AbsurdFieldCount(n) => write!(f, "absurd field count {n}"),
            RecordError::AbsurdStringLength(n) => write!(f, "absurd string length {n}"),
            RecordError::NonUtf8 => write!(f, "non-utf8 field"),
            RecordError::TrailingBytes => write!(f, "trailing bytes after record"),
            RecordError::MissingField(k) => write!(f, "missing field {k}"),
            RecordError::BadField(k) => write!(f, "field {k} is not a number"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<RecordError> for io::Error {
    fn from(e: RecordError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Read a big-endian `u32` at `*pos`, advancing it.
fn take_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, RecordError> {
    let end = pos.checked_add(4).ok_or(RecordError::Truncated)?;
    let Some(chunk) = bytes.get(*pos..end) else {
        return Err(RecordError::Truncated);
    };
    *pos = end;
    Ok(u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
}

/// Read `n` raw bytes at `*pos`, advancing it.
fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], RecordError> {
    let end = pos.checked_add(n).ok_or(RecordError::Truncated)?;
    let Some(chunk) = bytes.get(*pos..end) else {
        return Err(RecordError::Truncated);
    };
    *pos = end;
    Ok(chunk)
}

/// An ordered key/value record. Keys may repeat (e.g. one `resource`
/// entry per allocated resource).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Record {
    pairs: Vec<(String, String)>,
}

impl Record {
    pub fn new(kind: &str) -> Record {
        let mut r = Record::default();
        r.push("kind", kind);
        r
    }

    pub fn push(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.pairs.push((key.to_string(), value.into()));
        self
    }

    pub fn with(mut self, key: &str, value: impl Into<String>) -> Self {
        self.push(key, value);
        self
    }

    /// First value for `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All values for `key`, in order.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    pub fn kind(&self) -> &str {
        self.get("kind").unwrap_or("")
    }

    pub fn require(&self, key: &str) -> Result<&str, RecordError> {
        self.get(key)
            .ok_or_else(|| RecordError::MissingField(key.to_string()))
    }

    pub fn require_u64(&self, key: &str) -> Result<u64, RecordError> {
        self.require(key)?
            .parse()
            .map_err(|_| RecordError::BadField(key.to_string()))
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&(self.pairs.len() as u32).to_be_bytes());
        for (k, v) in &self.pairs {
            for s in [k, v] {
                buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
        }
        buf
    }

    pub fn decode(bytes: &[u8]) -> Result<Record, RecordError> {
        let mut pos = 0usize;
        let count = take_u32(bytes, &mut pos)?;
        if count > 4096 {
            return Err(RecordError::AbsurdFieldCount(count));
        }
        let mut pairs = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let mut strs = [String::new(), String::new()];
            for slot in &mut strs {
                let len = take_u32(bytes, &mut pos)?;
                if len > 1 << 20 {
                    return Err(RecordError::AbsurdStringLength(len));
                }
                let body = take(bytes, &mut pos, len as usize)?;
                *slot = String::from_utf8(body.to_vec()).map_err(|_| RecordError::NonUtf8)?;
            }
            let [k, v] = strs;
            pairs.push((k, v));
        }
        if pos != bytes.len() {
            return Err(RecordError::TrailingBytes);
        }
        Ok(Record { pairs })
    }

    /// Send as one frame on a stream.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        nexus::msg::send_frame(w, &self.encode())
    }

    /// Read one record frame; `Ok(None)` on clean EOF.
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<Record>> {
        match nexus::msg::recv_frame(r)? {
            Some(frame) => Ok(Some(Record::decode(&frame).map_err(io::Error::from)?)),
            None => Ok(None),
        }
    }
}

/// A request/reply record service, as the allocator, the Q servers and
/// the gatekeeper all run it: one acceptor thread on the listener, and
/// each connection answered on a parked worker of the server's own
/// [`Workers`], one request at a time with `handle`. Dropping it stops
/// the acceptor, joins it, and closes the pool, which cuts every open
/// request connection and joins every handler.
pub(crate) struct RecordServer {
    stop: StopHandle,
    acceptor: Option<thread::JoinHandle<()>>,
    /// Runs each connection's request loop. Shared with the acceptor; no
    /// handler holds it.
    handlers: Arc<Workers>,
}

impl RecordServer {
    pub fn start(
        listener: VListener,
        handle: impl Fn(&Record) -> Record + Send + Sync + 'static,
    ) -> RecordServer {
        let stop = listener.stop_handle();
        let handle = Arc::new(handle);
        let handlers = Arc::new(Workers::standalone());
        let pool = handlers.clone();
        // lint:allow(daemon-spawn) the server's accept loop, joined on drop
        let acceptor = thread::spawn(move || {
            while let Some(stream) = listener.accept_until_stop() {
                let (handle, stream) = (handle.clone(), Arc::new(stream));
                pool.register(&stream);
                pool.run(move || {
                    let mut stream = &*stream;
                    while let Ok(Some(req)) = Record::read_from(&mut stream) {
                        if handle(&req).write_to(&mut stream).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        RecordServer {
            stop,
            acceptor: Some(acceptor),
            handlers,
        }
    }

    pub fn shutdown(&self) {
        self.stop.stop();
    }
}

impl Drop for RecordServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        self.handlers.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let r = Record::new("submit")
            .with("executable", "knapsack")
            .with("count", "8")
            .with("resource", "compas")
            .with("resource", "o2k");
        let d = Record::decode(&r.encode()).unwrap();
        assert_eq!(d, r);
        assert_eq!(d.kind(), "submit");
        assert_eq!(d.get("count"), Some("8"));
        assert_eq!(d.get_all("resource"), vec!["compas", "o2k"]);
        assert_eq!(d.require_u64("count").unwrap(), 8);
        assert_eq!(
            d.require("missing"),
            Err(RecordError::MissingField("missing".into()))
        );
        assert_eq!(
            d.require_u64("executable"),
            Err(RecordError::BadField("executable".into()))
        );
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        Record::new("a").write_to(&mut buf).unwrap();
        Record::new("b").with("x", "y").write_to(&mut buf).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(Record::read_from(&mut cur).unwrap().unwrap().kind(), "a");
        let b = Record::read_from(&mut cur).unwrap().unwrap();
        assert_eq!(b.get("x"), Some("y"));
        assert!(Record::read_from(&mut cur).unwrap().is_none());
    }

    #[test]
    fn rejects_garbage_with_typed_errors() {
        assert_eq!(Record::decode(&[]), Err(RecordError::Truncated));
        // count 1, no data
        assert_eq!(Record::decode(&[0, 0, 0, 1]), Err(RecordError::Truncated));
        let mut ok = Record::new("x").encode();
        ok.push(0xFF); // trailing byte
        assert_eq!(Record::decode(&ok), Err(RecordError::TrailingBytes));
        // Absurd field count.
        let mut huge = Vec::new();
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(
            Record::decode(&huge),
            Err(RecordError::AbsurdFieldCount(u32::MAX))
        );
        // Absurd string length.
        let mut long = Vec::new();
        long.extend_from_slice(&1u32.to_be_bytes());
        long.extend_from_slice(&(u32::MAX).to_be_bytes());
        assert_eq!(
            Record::decode(&long),
            Err(RecordError::AbsurdStringLength(u32::MAX))
        );
        // Non-UTF-8 key.
        let mut bad_utf8 = Vec::new();
        bad_utf8.extend_from_slice(&1u32.to_be_bytes());
        bad_utf8.extend_from_slice(&1u32.to_be_bytes());
        bad_utf8.push(0xFF);
        bad_utf8.extend_from_slice(&0u32.to_be_bytes());
        assert_eq!(Record::decode(&bad_utf8), Err(RecordError::NonUtf8));
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

    #[test]
    fn random_records_roundtrip() {
        let mut r = test_rng(0x5ec0);
        for _ in 0..200 {
            let npairs = (r() % 16) as usize;
            let mut rec = Record::default();
            for _ in 0..npairs {
                let klen = 1 + (r() % 8) as usize;
                let vlen = (r() % 33) as usize;
                let k: String = (0..klen)
                    .map(|_| (b'a' + (r() % 26) as u8) as char)
                    .collect();
                let v: String = (0..vlen)
                    .map(|_| (b' ' + (r() % 95) as u8) as char)
                    .collect();
                rec.push(&k, v);
            }
            let d = Record::decode(&rec.encode()).unwrap();
            assert_eq!(d, rec);
        }
    }

    #[test]
    fn decoder_total_on_random_bytes() {
        let mut r = test_rng(0xdead_0001);
        for round in 0..2000 {
            let len = (round % 96) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| r() as u8).collect();
            let _ = Record::decode(&bytes);
        }
    }

    #[test]
    fn warm_sequential_connections_start_no_thread() {
        use std::time::{Duration, Instant};
        let net = firewall::vnet::VNet::new();
        let site = net.add_site("site", None);
        net.add_host("server", site);
        net.add_host("client", site);
        let listener = net.bind("server", 0).unwrap();
        let port = listener.logical_port();
        let server =
            RecordServer::start(listener, |req| Record::new("ack").with("for", req.kind()));
        let pool = server.handlers.clone();
        let full = pool.parked();
        assert_eq!(full, nexus_proxy::PARKED as i64);
        let request = |i: usize| {
            let kind = format!("req{i}");
            let mut stream = net.dial("client", "server", port).unwrap();
            Record::new(&kind).write_to(&mut stream).unwrap();
            let rep = Record::read_from(&mut stream).unwrap().unwrap();
            assert_eq!(rep.get("for"), Some(kind.as_str()));
            // The handler parks again once it reads the close.
            drop(stream);
            let end = Instant::now() + Duration::from_secs(5);
            while pool.parked() != full {
                assert!(Instant::now() < end, "handler never parked again");
                thread::sleep(Duration::from_millis(1));
            }
        };
        request(0);
        let warm = pool.spawns();
        for i in 1..=10 {
            request(i);
        }
        assert_eq!(pool.spawns(), warm);
        // Every handler is parked, so the drop joins them all.
        drop(server);
        assert_eq!(pool.threads(), 0);
    }
}
