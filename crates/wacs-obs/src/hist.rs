//! Log-linear histogram with a documented relative-error bound.
//!
//! The value axis is split into octaves (powers of two), each octave
//! into [`SUB_BUCKETS`] = 16 linear sub-buckets. A bucket spanning
//! `[lower, lower + width)` always has `lower >= SUB_BUCKETS * width`,
//! so reporting any in-bucket representative misstates a recorded value
//! by at most `width / lower <= 1/16` — the quantile estimates below
//! are within **6.25%** relative error.
//!
//! Values `0..16` get exact unit buckets; the scheme is continuous at
//! the boundary. The top bucket covers the largest values representable
//! in `u64`, so nothing overflows — huge outliers saturate into it and
//! the running `sum` saturates rather than wrapping.

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (16).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count: indices `0..16` are exact, then 16 per octave
/// for exponents 4..=63.
pub const NUM_BUCKETS: usize = 976;

/// Bucket index for a value. Exact for `v < 16`, log-linear above.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        // 2^e <= v < 2^(e+1), e >= 4; mantissa in [16, 32).
        let e = 63 - v.leading_zeros();
        let mantissa = v >> (e - SUB_BITS);
        ((e + 1 - SUB_BITS) as usize) * SUB_BUCKETS as usize + (mantissa - SUB_BUCKETS) as usize
    }
}

/// Smallest value mapping to bucket `idx`.
#[must_use]
pub fn bucket_lower(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        idx as u64
    } else {
        let octave = (idx / SUB_BUCKETS as usize - 1) as u32;
        let offset = (idx % SUB_BUCKETS as usize) as u64;
        (SUB_BUCKETS + offset) << octave
    }
}

/// Width of bucket `idx` (number of distinct values it covers).
#[must_use]
pub fn bucket_width(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        1
    } else {
        1u64 << (idx / SUB_BUCKETS as usize - 1)
    }
}

/// The value reported for a hit in bucket `idx`: the bucket midpoint
/// (rounded down), which keeps single-unit buckets exact.
#[must_use]
pub fn bucket_representative(idx: usize) -> u64 {
    let lower = bucket_lower(idx);
    lower.saturating_add((bucket_width(idx) - 1) / 2)
}

/// The mutable histogram state. Not thread-safe by itself — the
/// [`crate::Histogram`] handle wraps it in a lock.
#[derive(Clone)]
pub struct HistogramCore {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramCore {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, v: u64) {
        if let Some(slot) = self.counts.get_mut(bucket_index(v)) {
            *slot = slot.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value; `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`). The estimate is within
    /// `1/16` relative error of a truly recorded value and is clamped
    /// to the observed `[min, max]`, so single-value histograms answer
    /// exactly. `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = quantile_rank(q, self.count);
        // Extreme ranks are exact: rank 1 is the smallest sample, rank
        // `count` the largest.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_representative(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one. Commutative and
    /// associative up to saturation.
    pub fn merge(&mut self, other: &HistogramCore) {
        for (slot, &c) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot = slot.saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// A compact, position-independent copy: only occupied buckets,
    /// index-sorted (the iteration order is already ascending).
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u16, c))
                .collect(),
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }
}

/// Rank (1-based) of the `q`-quantile among `count` samples.
fn quantile_rank(q: f64, count: u64) -> u64 {
    let q = q.clamp(0.0, 1.0);
    // ceil(q * count), within [1, count]; f64 holds counts < 2^53
    // exactly, far beyond anything a run records.
    let r = (q * count as f64).ceil() as u64;
    r.clamp(1, count)
}

/// A frozen histogram: sparse `(bucket, count)` pairs plus totals.
/// Merges commutatively and serializes deterministically.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Occupied buckets as `(index, count)`, ascending by index.
    pub buckets: Vec<(u16, u64)>,
    pub count: u64,
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Same estimator as [`HistogramCore::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = quantile_rank(q, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for &(idx, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_representative(idx as usize).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merge `other` into `self`. `merge(a, b) == merge(b, a)`.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: Vec<(u16, u64)> = Vec::with_capacity(self.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca.saturating_add(cb)));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        let self_empty = self.count == 0;
        self.buckets = merged;
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = if self_empty {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — the repo is dependency-free, so
    /// "property tests" are seeded sweeps.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    #[test]
    fn bucket_scheme_is_continuous_and_monotone() {
        // Exhaustive below 2^20, then spot checks at octave edges.
        let mut prev = 0usize;
        for v in 0u64..(1 << 20) {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index must be monotone at v={v}");
            assert!(bucket_lower(idx) <= v, "lower({idx}) > {v}");
            assert!(
                v < bucket_lower(idx) + bucket_width(idx),
                "v={v} past bucket {idx}"
            );
            prev = idx;
        }
        for e in 4..64 {
            let v = 1u64 << e;
            assert_eq!(bucket_index(v - 1) + 1, bucket_index(v), "edge at 2^{e}");
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn representative_is_within_relative_error_bound() {
        let mut rng = Rng(0xDECAF);
        for _ in 0..20_000 {
            // Spread magnitudes across all octaves.
            let v = rng.next() >> (rng.next() % 64);
            let rep = bucket_representative(bucket_index(v));
            let err = rep.abs_diff(v);
            // err <= width/2 <= lower/16 <= v/16 (and exact below 16).
            assert!(
                err.saturating_mul(SUB_BUCKETS) <= v,
                "v={v} rep={rep} err={err}"
            );
        }
    }

    #[test]
    fn quantiles_are_within_documented_bound() {
        let mut rng = Rng(42);
        for round in 0..50 {
            let n = 1 + (rng.next() % 400) as usize;
            let mut vals: Vec<u64> = (0..n).map(|_| rng.next() >> (rng.next() % 48)).collect();
            let mut h = HistogramCore::new();
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            for &q in &[0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let est = h.quantile(q).unwrap();
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let truth = vals[rank - 1];
                let err = est.abs_diff(truth);
                assert!(
                    err.saturating_mul(SUB_BUCKETS) <= truth,
                    "round {round}: q={q} est={est} truth={truth} n={n}"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_value_edge_cases() {
        let h = HistogramCore::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);

        let mut h = HistogramCore::new();
        h.record(123_456);
        // min/max clamping makes single-value histograms exact.
        for &q in &[0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(123_456));
        }
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        let mut h = HistogramCore::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX, "sum saturates, never wraps");
        assert_eq!(h.max(), Some(u64::MAX));
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![((NUM_BUCKETS - 1) as u16, 3)]);
    }

    #[test]
    fn merge_is_commutative() {
        let mut rng = Rng(7);
        for _ in 0..20 {
            let mut a = HistogramCore::new();
            let mut b = HistogramCore::new();
            for _ in 0..(rng.next() % 200) {
                a.record(rng.next() >> (rng.next() % 50));
            }
            for _ in 0..(rng.next() % 200) {
                b.record(rng.next() >> (rng.next() % 50));
            }
            let (sa, sb) = (a.snapshot(), b.snapshot());
            let mut ab = sa.clone();
            ab.merge(&sb);
            let mut ba = sb.clone();
            ba.merge(&sa);
            assert_eq!(ab, ba);

            // Core merge agrees with snapshot merge.
            let mut core = a.clone();
            core.merge(&b);
            assert_eq!(core.snapshot(), ab);
        }
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = HistogramCore::new();
        a.record(5);
        a.record(500);
        let sa = a.snapshot();
        let empty = HistogramCore::new().snapshot();
        let mut x = sa.clone();
        x.merge(&empty);
        assert_eq!(x, sa);
        let mut y = empty.clone();
        y.merge(&sa);
        assert_eq!(y, sa);
    }
}
