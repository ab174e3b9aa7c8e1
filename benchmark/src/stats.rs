//! Order statistics for the report: percentiles, the median over rounds
//! every end-to-end value is built from, and the tail-percentile rule.

/// Nearest-rank percentile of an already sorted slice (`q` in 0..=1).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn percentile(values: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(values), q)
}

/// Median with the even-count midpoint (what `statistics.median` does).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them; the driver computes spreads this way.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// A median over rounds with its interquartile distance, the values it
/// was taken from and the number of samples behind them.
#[derive(Clone, Default, Debug)]
pub struct Windowed {
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
    pub per: Vec<f64>,
}

impl Windowed {
    pub fn of(per_round: &[f64], n: usize) -> Windowed {
        let (q1, q3) = quartiles(per_round);
        Windowed {
            value: median(per_round),
            iqr: q3 - q1,
            n,
            per: per_round.to_vec(),
        }
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(q, value)`. Tails repeat only to within 2-3x on a small machine,
/// so this is a diagnostic, never a gated number.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    for q in [0.9999, 0.999, 0.99, 0.9] {
        let beyond = n - ((q * n as f64).ceil() as usize).min(n);
        if beyond >= 10 {
            return (q, percentile_sorted(&s, q));
        }
    }
    (0.5, percentile_sorted(&s, 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((spread(&[3.0, 1.0, 4.0, 1.0, 5.0]) - 3.5 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_rounds_ignores_one_stalled_round() {
        let w = Windowed::of(&[100.0, 101.0, 1000.0, 99.0, 100.5], 5_000);
        assert_eq!(w.value, 100.5);
        assert_eq!(w.n, 5_000);
        assert_eq!(w.per.len(), 5);
        // quantiles([99, 100, 100.5, 101, 1000], n=4) == [99.5, 100.5, 550.5]
        assert!((w.iqr - 451.0).abs() < 1e-9);
        assert_eq!(Windowed::of(&[], 0).value, 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (0.9, 90.0));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v).0, 0.5);
    }
}
