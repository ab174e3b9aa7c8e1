//! Shared relay buffer pool.
//!
//! Every byte the proxy moves crosses a staging buffer; without a
//! pool a connection-churn workload pays an allocation (and page
//! faults) per relay direction. The pool keeps a bounded free list of
//! fixed-size segments shared by all of a server's pumps and hands out
//! RAII handles that return their segment on drop. A pump reads into a
//! whole segment, so `seg_bytes` is the relay's one buffer size. Hits and misses are counted through `wacs-obs` so the bench
//! harness can report pool effectiveness per scenario.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use wacs_obs::Counter;
use wacs_sync::Mutex;

/// Pool tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Size of every pooled segment. Requests larger than this are
    /// satisfied with a one-off allocation that is *not* retained.
    pub seg_bytes: usize,
    /// Maximum segments kept on the free list; beyond it, returned
    /// buffers are dropped (bounds idle memory after a burst).
    pub max_retained: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            seg_bytes: 256 * 1024,
            max_retained: 512,
        }
    }
}

struct PoolInner {
    cfg: PoolConfig,
    free: Mutex<Vec<Box<[u8]>>>,
    hits: Counter,
    misses: Counter,
}

/// A bounded free list of relay segments. Cloning shares the pool.
#[derive(Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new(PoolConfig::default())
    }
}

impl BufferPool {
    /// Pool with standalone hit/miss counters (not in any registry).
    pub fn new(cfg: PoolConfig) -> Self {
        Self::with_counters(cfg, Counter::default(), Counter::default())
    }

    /// Pool whose hit/miss counters live in the caller's registry
    /// (typically `ProxyStats::pool_hits` / `pool_misses`).
    pub fn with_counters(cfg: PoolConfig, hits: Counter, misses: Counter) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                cfg,
                free: Mutex::new(Vec::new()),
                hits,
                misses,
            }),
        }
    }

    /// Segment size this pool retains.
    pub fn seg_bytes(&self) -> usize {
        self.inner.cfg.seg_bytes
    }

    /// Take a buffer of at least `min_bytes`. Pooled segments satisfy
    /// any request up to `seg_bytes`; larger requests allocate exactly
    /// `min_bytes` and bypass retention.
    pub fn get(&self, min_bytes: usize) -> PooledBuf {
        if min_bytes <= self.inner.cfg.seg_bytes {
            if let Some(buf) = self.inner.free.lock().pop() {
                self.inner.hits.inc();
                return PooledBuf {
                    buf: Some(buf),
                    pool: self.clone(),
                };
            }
        }
        self.inner.misses.inc();
        let len = if min_bytes <= self.inner.cfg.seg_bytes {
            self.inner.cfg.seg_bytes // full-size: retainable on return
        } else {
            min_bytes
        };
        // The one sanctioned allocation site of the relay data plane:
        // every other path takes a recycled segment from the free list.
        let buf = vec![0u8; len].into_boxed_slice(); // lint:allow(hot-path-alloc)
        PooledBuf {
            buf: Some(buf),
            pool: self.clone(),
        }
    }

    /// Take a full-size segment (`seg_bytes`).
    pub fn get_seg(&self) -> PooledBuf {
        self.get(self.inner.cfg.seg_bytes)
    }

    fn put(&self, buf: Box<[u8]>) {
        if buf.len() == self.inner.cfg.seg_bytes {
            let mut free = self.inner.free.lock();
            if free.len() < self.inner.cfg.max_retained {
                free.push(buf);
            }
        }
        // Off-size or over-cap buffers simply drop.
    }

    /// Segments currently on the free list (diagnostics/tests).
    pub fn retained(&self) -> usize {
        self.inner.free.lock().len()
    }
}

/// RAII handle to one pooled buffer; returns it to the pool on drop.
pub struct PooledBuf {
    buf: Option<Box<[u8]>>,
    pool: BufferPool,
}

impl Deref for PooledBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.buf {
            Some(b) => b,
            None => &[],
        }
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        match &mut self.buf {
            Some(b) => b,
            None => &mut [],
        }
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.put(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seg: usize, retain: usize) -> PoolConfig {
        PoolConfig {
            seg_bytes: seg,
            max_retained: retain,
        }
    }

    #[test]
    fn miss_then_hit_with_counted_reuse() {
        let hits = Counter::default();
        let misses = Counter::default();
        let pool = BufferPool::with_counters(cfg(1024, 8), hits.clone(), misses.clone());
        let b = pool.get(512);
        assert_eq!(b.len(), 1024); // pooled segments are full-size
        assert_eq!((hits.get(), misses.get()), (0, 1));
        drop(b);
        assert_eq!(pool.retained(), 1);
        let b2 = pool.get(1024);
        assert_eq!((hits.get(), misses.get()), (1, 1));
        drop(b2);
    }

    #[test]
    fn oversize_requests_bypass_retention() {
        let pool = BufferPool::new(cfg(1024, 8));
        let big = pool.get(4096);
        assert!(big.len() >= 4096);
        drop(big);
        assert_eq!(pool.retained(), 0, "off-size buffers are not retained");
    }

    #[test]
    fn retention_is_bounded() {
        let pool = BufferPool::new(cfg(256, 2));
        let bufs: Vec<_> = (0..5).map(|_| pool.get_seg()).collect();
        drop(bufs);
        assert_eq!(pool.retained(), 2);
    }

    #[test]
    fn buffers_are_writable_through_the_handle() {
        let pool = BufferPool::new(cfg(64, 2));
        let mut b = pool.get_seg();
        b[0] = 0xAB;
        b[63] = 0xCD;
        assert_eq!((b[0], b[63]), (0xAB, 0xCD));
    }
}
