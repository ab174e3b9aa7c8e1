//! GASS-style file staging.
//!
//! "Since the Globus GASS facility uses files for input/output, the
//! Q system also transfers the files to remote resources." We model
//! GASS as an in-memory per-host file store addressed by
//! `gass://host/path` URLs; the Q system copies staged inputs to the
//! executing resource and captured stdout back.
//!
//! Bulk staging can be **striped** (DESIGN.md §6e):
//! [`GassStore::transfer_with`] splits the file over K parallel
//! stripe lanes and moves every byte through the real stripe codec —
//! framed `Open`/`Data`/`Fin` per lane, receiver-side reassembly with
//! offset dedup — so the staged copy is the *reassembled* payload,
//! not a shortcut memcpy. [`GassStore::transfer`] is the
//! single-stream special case.

use nexus_proxy::stripe::{
    send_striped, StripePlan, StripeReceiver, StripeStats, DEFAULT_CHUNK_BYTES,
};
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::Arc;
use wacs_obs::Registry;
use wacs_sync::Mutex;

/// A parsed `gass://host/path` URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GassUrl {
    pub host: String,
    pub path: String,
}

impl GassUrl {
    pub fn parse(url: &str) -> io::Result<GassUrl> {
        let rest = url.strip_prefix("gass://").ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("not a gass url: {url}"),
            )
        })?;
        let (host, path) = rest.split_once('/').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("gass url needs a path: {url}"),
            )
        })?;
        if host.is_empty() || path.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("empty host or path: {url}"),
            ));
        }
        Ok(GassUrl {
            host: host.to_string(),
            path: path.to_string(),
        })
    }
}

/// How one staging transfer is split over parallel stripe lanes: a
/// thin, named wrapper over the stripe layer's [`StripePlan`] with
/// GASS's chunk-size convention baked in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripedTransfer {
    plan: StripePlan,
}

impl StripedTransfer {
    /// Plan a transfer of `total_len` bytes over `streams` lanes
    /// (chunked at [`DEFAULT_CHUNK_BYTES`]).
    pub fn plan(total_len: u64, streams: u16) -> io::Result<StripedTransfer> {
        let plan =
            StripePlan::new(total_len, streams, DEFAULT_CHUNK_BYTES).map_err(io::Error::from)?;
        Ok(StripedTransfer { plan })
    }

    pub fn streams(&self) -> u16 {
        self.plan.stripes()
    }

    pub fn chunk_count(&self) -> u64 {
        self.plan.chunk_count()
    }

    pub fn total_len(&self) -> u64 {
        self.plan.total_len()
    }

    /// The underlying stripe-layer plan.
    pub fn stripe_plan(&self) -> StripePlan {
        self.plan
    }
}

/// `(host, path)` → file bytes.
type FileMap = HashMap<(String, String), Vec<u8>>;

/// The (process-wide) GASS store: per-host path → bytes.
#[derive(Clone, Default)]
pub struct GassStore {
    files: Arc<Mutex<FileMap>>,
    stats: Option<StripeStats>,
}

/// Send-side lane of an in-process striped transfer: frames appended
/// to the lane's byte stream, exactly what a relay flow would carry.
struct LaneWriter {
    lanes: Arc<Mutex<Vec<Vec<u8>>>>,
    lane: usize,
}

impl Write for LaneWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.lanes.lock()[self.lane].extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl GassStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn put(&self, host: &str, path: &str, data: Vec<u8>) {
        self.files
            .lock()
            .insert((host.to_string(), path.to_string()), data);
    }

    pub fn get(&self, host: &str, path: &str) -> Option<Vec<u8>> {
        self.files
            .lock()
            .get(&(host.to_string(), path.to_string()))
            .cloned()
    }

    pub fn get_url(&self, url: &str) -> io::Result<Vec<u8>> {
        let u = GassUrl::parse(url)?;
        self.get(&u.host, &u.path).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such gass file: {url}"))
        })
    }

    pub fn exists(&self, url: &str) -> bool {
        GassUrl::parse(url)
            .ok()
            .is_some_and(|u| self.files.lock().contains_key(&(u.host, u.path)))
    }

    /// Record staging traffic under `wacs.stripe.*` in `registry`.
    #[must_use]
    pub fn with_obs(mut self, registry: &Registry) -> GassStore {
        self.stats = Some(StripeStats::in_registry(registry));
        self
    }

    /// Copy a file from one host's store to another (the Q system's
    /// stage-in transfer). Returns the byte count moved. Single
    /// stream; see [`GassStore::transfer_with`] for striping.
    pub fn transfer(&self, from_url: &str, to_host: &str, to_path: &str) -> io::Result<usize> {
        self.transfer_with(from_url, to_host, to_path, 1)
    }

    /// Copy a file between host stores over `streams` parallel stripe
    /// lanes. Every byte crosses the real stripe codec: the file is
    /// framed per lane by the stripe sender, the lanes are replayed to
    /// a [`StripeReceiver`] in *reverse* order (deliberately
    /// adversarial — reassembly must not depend on arrival order), and
    /// the staged copy is the reassembled payload.
    pub fn transfer_with(
        &self,
        from_url: &str,
        to_host: &str,
        to_path: &str,
        streams: u16,
    ) -> io::Result<usize> {
        let data = self.get_url(from_url)?;
        let st = StripedTransfer::plan(data.len() as u64, streams)?;
        let plan = st.stripe_plan();
        let lanes: Arc<Mutex<Vec<Vec<u8>>>> =
            Arc::new(Mutex::new(vec![Vec::new(); usize::from(streams)]));
        let dial_lanes = lanes.clone();
        send_striped(
            &data,
            &plan,
            1,
            0,
            0,
            self.stats.as_ref(),
            move |stripe, _| {
                Ok(LaneWriter {
                    lanes: dial_lanes.clone(),
                    lane: usize::from(stripe),
                })
            },
        )?;
        let rx = StripeReceiver::new();
        let captured = std::mem::take(&mut *lanes.lock());
        for lane in captured.into_iter().rev() {
            rx.feed(io::Cursor::new(lane), self.stats.as_ref())?;
        }
        let Some((_, got)) = rx.result() else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "striped staging did not reassemble to completion",
            ));
        };
        if got != data {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "striped staging reassembled to different bytes",
            ));
        }
        let n = got.len();
        self.put(to_host, to_path, got);
        Ok(n)
    }

    pub fn len(&self) -> usize {
        self.files.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.files.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_parse() {
        let u = GassUrl::parse("gass://rwcp-sun/inputs/knap50.dat").unwrap();
        assert_eq!(u.host, "rwcp-sun");
        assert_eq!(u.path, "inputs/knap50.dat");
        assert!(GassUrl::parse("http://x/y").is_err());
        assert!(GassUrl::parse("gass://hostonly").is_err());
        assert!(GassUrl::parse("gass:///path").is_err());
    }

    #[test]
    fn store_and_transfer() {
        let g = GassStore::new();
        assert!(g.is_empty());
        g.put("rwcp-sun", "inputs/a", b"data!".to_vec());
        assert!(g.exists("gass://rwcp-sun/inputs/a"));
        assert_eq!(g.get_url("gass://rwcp-sun/inputs/a").unwrap(), b"data!");
        let n = g
            .transfer("gass://rwcp-sun/inputs/a", "compas0", "staged/a")
            .unwrap();
        assert_eq!(n, 5);
        assert_eq!(g.get("compas0", "staged/a").unwrap(), b"data!");
        // Missing source.
        assert!(g.transfer("gass://rwcp-sun/nope", "x", "y").is_err());
        assert_eq!(g.len(), 2);
    }
}
