//! Latency samples, percentiles and the quartile spread the stability
//! check reports.

use std::time::Duration;

/// One value per op: latencies in nanoseconds, or rates in bytes per
/// second.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    /// `bytes` moved in `d`, as bytes per second.
    pub fn push_rate(&mut self, bytes: u64, d: Duration) {
        self.ns
            .push((bytes as f64 / d.as_secs_f64().max(1e-9)) as u64);
    }

    pub fn merge(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn sum(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The `q`-quantile (`0.0..=1.0`), linearly
    /// interpolated between order statistics; 0 without samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut v = self.ns.clone();
        v.sort_unstable();
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let (lo, frac) = (pos.floor() as usize, pos.fract());
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] as f64 * (1.0 - frac) + v[hi] as f64 * frac
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The tail the sample supports: `(percentile, value)`.
    pub fn tail(&self) -> (f64, f64) {
        let pct = tail_percentile(self.ns.len());
        (pct, self.quantile(pct / 100.0))
    }
}

/// The highest of p99.9 / p99 / p95 / p90 that leaves at least ten
/// samples beyond it (p95 needs 200 samples, p99 needs 1000); the median
/// when even p90 is not supported.
pub fn tail_percentile(samples: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| samples as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Median of a few values; 0 without any.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Run-to-run spread of one metric as a share of its median: the
/// inter-quartile distance with four or more runs, the largest deviation
/// from the median with fewer.
pub fn relative_spread(values: &[f64]) -> f64 {
    let v = values;
    let median = median(v);
    if median == 0.0 {
        return if v.iter().all(|x| *x == 0.0) {
            0.0
        } else {
            f64::INFINITY
        };
    }
    let width = if v.len() >= 4 {
        let q = quartiles(v);
        q[2] - q[0]
    } else {
        v.iter().map(|x| (x - median).abs()).fold(0.0, f64::max)
    };
    width / median.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(50), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for ms in [10, 20, 30, 40] {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.median(), 25e6);
        assert_eq!(s.quantile(1.0), 40e6);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), [3.5, 13.5, 31.0]);
        // statistics.quantiles([3, 1], n=4)
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        assert_eq!(relative_spread(&[100.0, 110.0]), 5.0 / 105.0);
        let ten: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let q = quartiles(&ten);
        assert_eq!(relative_spread(&ten), (q[2] - q[0]) / 104.5);
    }
}
