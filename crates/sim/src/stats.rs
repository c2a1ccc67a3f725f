//! Statistics collection used by the simulator and the experiment harnesses.
//!
//! * [`Histogram`] — a power-of-two bucketed latency histogram, useful for inspecting the
//!   distribution of memory or scheduling latencies;
//! * [`geomean`] — the geometric mean used by the paper for its headline speedup numbers.

/// Streaming count, mean and maximum over `f64` samples, behind [`Histogram`].
///
/// The mean uses Welford's online update, so long simulations do not accumulate
/// floating-point error or memory.
#[derive(Debug, Clone)]
struct RunningStats {
    count: u64,
    mean: f64,
    max: f64,
}

impl RunningStats {
    fn new() -> Self {
        RunningStats { count: 0, mean: 0.0, max: f64::NEG_INFINITY }
    }

    fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        if x > self.max {
            self.max = x;
        }
    }
}

/// A histogram with power-of-two bucket boundaries: bucket `i` counts samples in
/// `[2^i, 2^(i+1))`, with bucket 0 also containing zero.
///
/// Log-scale buckets are a natural fit for latency distributions that span several orders of
/// magnitude (an L1 hit is ~1 cycle, a contended futex is thousands).
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    stats: RunningStats,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Number of buckets: enough for any `u64` sample.
    pub const BUCKETS: usize = 65;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; Self::BUCKETS],
            stats: RunningStats::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros()) as usize + 1
        };
        let idx = idx.min(Self::BUCKETS - 1);
        self.buckets[idx] += 1;
        self.stats.record(value as f64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.stats.count
    }

    /// Mean of recorded samples, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.stats.mean
    }

    /// Maximum recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.stats.count > 0).then_some(self.stats.max)
    }

    /// Returns the count stored in bucket `i` (samples in `[2^(i-1), 2^i)` for `i > 0`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Returns an approximate p-quantile (0.0 ..= 1.0) using bucket lower bounds.
    ///
    /// The result is exact to within a factor of two, which is sufficient for the latency
    /// sanity checks in the test suite.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(if i == 0 { 0 } else { 1u64 << (i - 1) });
            }
        }
        Some(1u64 << 62)
    }

    /// Iterates over `(bucket_lower_bound, count)` pairs for non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| {
            let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
            (lower, c)
        })
    }
}

/// Geometric mean of a sequence of strictly positive values.
///
/// Returns `None` if the input is empty or contains a non-positive value. The paper's headline
/// numbers (2.13×, 13.19×, 6.20×) are geometric means over 37 workload speedup ratios, so the
/// experiment harnesses use this exact helper.
pub fn geomean<I>(values: I) -> Option<f64>
where
    I: IntoIterator<Item = f64>,
{
    let mut log_sum = 0.0f64;
    let mut n = 0usize;
    for v in values {
        if v <= 0.0 || !v.is_finite() {
            return None;
        }
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some((log_sum / n as f64).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.bucket(0), 1); // the single zero
        assert_eq!(h.bucket(1), 2); // the two ones
        assert_eq!(h.bucket(2), 2); // 2 and 3
        assert_eq!(h.bucket(3), 1); // 4
        assert_eq!(h.bucket(4), 1); // 8
        assert_eq!(h.quantile(0.0), Some(0));
        assert!(h.quantile(1.0).unwrap() >= 512);
        assert_eq!(h.max(), Some(1000.0));
        assert!((h.mean() - 127.375).abs() < 1e-12);
        let nonempty: Vec<_> = h.iter().collect();
        assert_eq!(nonempty.iter().map(|&(_, c)| c).sum::<u64>(), 8);
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean([1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), None);
        assert_eq!(geomean([1.0, 0.0]), None);
        assert_eq!(geomean([1.0, -2.0]), None);
    }

    #[test]
    fn geomean_paper_headline_sanity() {
        // The paper reports 2.13x as a geomean over 37 ratios; check our helper is scale
        // invariant the way a geomean must be.
        let ratios: Vec<f64> = (1..=37).map(|i| 1.0 + (i as f64) * 0.1).collect();
        let g1 = geomean(ratios.iter().copied()).unwrap();
        let g2 = geomean(ratios.iter().map(|r| r * 2.0)).unwrap();
        assert!((g2 / g1 - 2.0).abs() < 1e-9);
    }
}
