//! Exact sample statistics: every reported latency keeps its raw
//! nanosecond samples and ranks them. `ltg_obs::Histogram` buckets by
//! powers of two — it reports `p50=511us` for five different worlds —
//! so no number this benchmark prints goes through it.

/// Raw `u64` samples (nanoseconds for timings, plain counts for sizes).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, v: u64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> u64 {
        self.values.iter().sum()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_unstable();
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile: the smallest sample with at least
    /// `q·n` samples at or below it. 0 when empty.
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.values.is_empty() {
            return 0;
        }
        self.sort();
        let n = self.values.len();
        // The slack keeps 0.999 * 10 000 at rank 9 990.
        let rank = (q * n as f64 - 1e-9).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    pub fn median(&mut self) -> u64 {
        self.quantile(0.5)
    }

    /// Distance between the third and the first quartile.
    pub fn iqr(&mut self) -> u64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// The highest of p99.9 / p99 / p95 / p90 that still has at least
    /// ten samples beyond it, as `(percentile, value)`; falls back to
    /// the median when even p90 does not (fewer than 100 samples).
    pub fn tail(&mut self) -> (f64, u64) {
        for p in [99.9, 99.0, 95.0, 90.0] {
            if self.beyond(p) >= 10 {
                return (p, self.quantile(p / 100.0));
            }
        }
        (50.0, self.median())
    }

    /// Samples ranked strictly above the `p`-th percentile.
    pub fn beyond(&self, p: f64) -> usize {
        // In whole per-mille: 99.9 / 100 * 10 000 is not 9 990 in
        // floating point.
        let n = self.values.len();
        n - ((p * 10.0).round() as usize * n).div_ceil(1000).min(n)
    }
}

/// Geometric mean of positive values (0 when empty): small cells count
/// as much as large ones.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median of a small `f64` set (mean of the middle two when even).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile with the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)` — the rule
/// the acceptance check applies to ten runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |i: usize| -> f64 {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(range: std::ops::RangeInclusive<u64>) -> Samples {
        let mut s = Samples::new();
        // Pushed in descending order: quantiles must not depend on it.
        for v in range.rev() {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = samples(1..=100);
        assert_eq!(s.quantile(0.5), 50);
        assert_eq!(s.quantile(0.99), 99);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.iqr(), 50);
        let mut one = samples(7..=7);
        assert_eq!(one.median(), 7);
        assert_eq!(Samples::new().median(), 0);
    }

    #[test]
    fn quantiles_are_not_bucketed() {
        let mut s = Samples::new();
        for v in [511_000, 640_123, 700_001] {
            s.push(v);
        }
        assert_eq!(s.median(), 640_123);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(samples(1..=50).tail(), (50.0, 25));
        assert_eq!(samples(1..=100).tail(), (90.0, 90));
        assert_eq!(samples(1..=200).tail(), (95.0, 190));
        assert_eq!(samples(1..=1000).tail(), (99.0, 990));
        assert_eq!(samples(1..=10_000).tail(), (99.9, 9990));
        assert_eq!(samples(1..=1000).beyond(99.0), 10);
    }

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
