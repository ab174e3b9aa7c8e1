//! The named-metric registry and its instrument handles.
//!
//! A [`Registry`] is a cheaply cloneable handle to one shared table of
//! named instruments. `counter`/`gauge`/`histogram` are get-or-create,
//! so independent components that receive clones of the same registry
//! (engine, proxy actors, clients) aggregate into one namespace. Names
//! are dotted paths (`"proxy.outer.connect_req_ns"`); snapshots sort
//! them lexicographically, which is what makes the JSON deterministic.

use crate::hist::HistogramCore;
use crate::snapshot::RegistrySnapshot;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use wacs_sync::Mutex;

/// A monotonically increasing counter. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed point-in-time value. Cloning shares the cell.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared handle to one log-linear histogram.
#[derive(Clone, Default)]
pub struct Histogram(Arc<Mutex<HistogramCore>>);

impl Histogram {
    pub fn record(&self, v: u64) {
        self.0.lock().record(v);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.lock().count()
    }

    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.0.lock().quantile(q)
    }

    #[must_use]
    pub fn snapshot(&self) -> crate::hist::HistogramSnapshot {
        self.0.lock().snapshot()
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry handle. `Default` creates a fresh empty table; `Clone`
/// shares it.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
}

impl Registry {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Point-in-time copy of every instrument.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_get_or_create_and_shared_across_clones() {
        let reg = Registry::new();
        let other = reg.clone();
        reg.counter("a.hits").add(2);
        other.counter("a.hits").inc();
        assert_eq!(reg.counter("a.hits").get(), 3);

        reg.gauge("a.depth").set(5);
        other.gauge("a.depth").add(-2);
        assert_eq!(reg.gauge("a.depth").get(), 3);

        reg.histogram("a.lat_ns").record(10);
        other.histogram("a.lat_ns").record(30);
        assert_eq!(reg.histogram("a.lat_ns").count(), 2);
    }

    #[test]
    fn snapshot_captures_all_instrument_kinds() {
        let reg = Registry::new();
        reg.counter("c").inc();
        reg.gauge("g").set(-4);
        let h = reg.histogram("h");
        h.record(250);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("c"), Some(&1));
        assert_eq!(snap.gauges.get("g"), Some(&-4));
        assert_eq!(
            snap.histograms.get("h").map(|h| (h.count, h.min)),
            Some((1, 250))
        );
    }
}
