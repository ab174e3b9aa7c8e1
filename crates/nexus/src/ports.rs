//! Listener port selection policies.
//!
//! Globus 1.0 picked listener ports dynamically (any ephemeral port) —
//! unreachable through a deny-based firewall. Globus 1.1 added
//! `TCP_MIN_PORT`/`TCP_MAX_PORT` to clamp listeners into a range the
//! firewall could open — the alternative the paper critiques for its
//! exposure. Both policies are implemented here so the ablation bench
//! can compare them against the proxy.

use std::sync::atomic::{AtomicU16, Ordering};

/// How a process chooses listener ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortPolicy {
    /// Any ephemeral port (Globus 1.0 behaviour).
    Dynamic,
    /// Restrict to `[min, max]` (Globus 1.1 `TCP_MIN_PORT`/`TCP_MAX_PORT`).
    Range { min: u16, max: u16 },
}

impl PortPolicy {
    pub fn range(min: u16, max: u16) -> Self {
        assert!(min <= max, "empty port range");
        PortPolicy::Range { min, max }
    }
}

/// Allocates candidate ports under a [`PortPolicy`].
#[derive(Debug)]
pub struct PortAllocator {
    policy: PortPolicy,
    next: AtomicU16,
}

impl PortAllocator {
    pub fn new(policy: PortPolicy) -> Self {
        let start = match policy {
            PortPolicy::Dynamic => 0, // 0 = "let the network pick"
            PortPolicy::Range { min, .. } => min,
        };
        PortAllocator {
            policy,
            next: AtomicU16::new(start),
        }
    }

    pub fn policy(&self) -> PortPolicy {
        self.policy
    }

    /// Next candidate port. For `Dynamic` this is always 0 (the bind
    /// layer allocates). For `Range`, ports rotate through the range;
    /// callers retry on bind conflicts.
    pub fn next(&self) -> u16 {
        match self.policy {
            PortPolicy::Dynamic => 0,
            PortPolicy::Range { min, max } => {
                let span = u32::from(max - min) + 1;
                let raw = self.next.fetch_add(1, Ordering::Relaxed);
                let off = u32::from(raw.wrapping_sub(min)) % span;
                min + off as u16
            }
        }
    }

    /// Candidate sequence of up to `n` ports to try.
    pub fn candidates(&self, n: usize) -> Vec<u16> {
        match self.policy {
            PortPolicy::Dynamic => vec![0],
            PortPolicy::Range { min, max } => {
                let span = usize::from(max - min) + 1;
                (0..n.min(span)).map(|_| self.next()).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_always_zero() {
        let a = PortAllocator::new(PortPolicy::Dynamic);
        assert_eq!(a.next(), 0);
        assert_eq!(a.next(), 0);
        assert_eq!(a.candidates(5), vec![0]);
    }

    #[test]
    fn range_rotates_within_bounds() {
        let a = PortAllocator::new(PortPolicy::range(10000, 10002));
        let seq: Vec<u16> = (0..7).map(|_| a.next()).collect();
        assert_eq!(seq, vec![10000, 10001, 10002, 10000, 10001, 10002, 10000]);
    }

    #[test]
    fn candidates_bounded_by_span() {
        let a = PortAllocator::new(PortPolicy::range(20000, 20004));
        assert_eq!(a.candidates(100).len(), 5);
        assert_eq!(a.candidates(2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty port range")]
    fn inverted_range_panics() {
        PortPolicy::range(10, 9);
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

    /// Allocations from any configured range stay inside it.
    #[test]
    fn random_range_allocations_stay_in_range() {
        let mut r = test_rng(0x9087);
        for _ in 0..100 {
            let min = 1024 + (r() % 58976) as u16;
            let max = min.saturating_add((r() % 500) as u16);
            let a = PortAllocator::new(PortPolicy::range(min, max));
            let n = 1 + (r() % 64) as usize;
            for _ in 0..n {
                let p = a.next();
                assert!(p >= min && p <= max, "{p} outside [{min}, {max}]");
            }
        }
    }
}
