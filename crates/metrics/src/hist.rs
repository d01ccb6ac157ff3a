//! Microsecond latency histograms with percentile queries.

/// A latency histogram over microseconds with logarithmic buckets.
///
/// Buckets grow geometrically (`GROWTH = 1.022`: ~2.2% per bucket, ~92
/// buckets per factor of e²; 1024 buckets in total) so percentiles are
/// accurate to about one bucket width (~±1.1% at the reported midpoint)
/// across the covered range from 1 ns to `GROWTH`¹⁰²⁴ ns ≈ 4.8 s — from
/// the sub-µs steps of this stack's own trace, through the paper's
/// 2.66 ms RPCs, to the 600 ms retransmission penalty of §5. Values
/// past either end clamp into the end bucket.
///
/// # Examples
///
/// ```
/// use firefly_metrics::Histogram;
/// let mut h = Histogram::new();
/// for v in [100.0, 200.0, 300.0, 400.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// // p50 is the bucket midpoint nearest the 2nd of 4 values (200 µs).
/// assert!((h.percentile(50.0) - 200.0).abs() / 200.0 < 0.025);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const BUCKETS: usize = 1024;
/// Lower edge of bucket 0: one nanosecond, in µs.
const FLOOR: f64 = 1e-3;
/// Growth factor per bucket; bucket i covers
/// `FLOOR` × [GROWTH^i, GROWTH^(i+1)) µs.
const GROWTH: f64 = 1.022;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(micros: f64) -> usize {
        if micros <= FLOOR {
            return 0;
        }
        let idx = (micros / FLOOR).ln() / GROWTH.ln();
        (idx as usize).min(BUCKETS - 1)
    }

    /// The representative value reported for a bucket: its midpoint.
    ///
    /// Bucket `i` covers `FLOOR × [GROWTH^i, GROWTH^(i+1))`; reporting
    /// the upper edge (as this function once did) biased every
    /// percentile high by one bucket width before the min/max clamp. The
    /// midpoint is unbiased to within half a bucket width either way.
    fn bucket_value(index: usize) -> f64 {
        let lower = GROWTH.powi(index as i32);
        let upper = GROWTH.powi(index as i32 + 1);
        FLOOR * (lower + upper) / 2.0
    }

    /// Records one latency observation in microseconds.
    pub fn record(&mut self, micros: f64) {
        let micros = micros.max(0.0);
        self.buckets[Self::bucket_index(micros)] += 1;
        self.count += 1;
        self.sum += micros;
        self.min = self.min.min(micros);
        self.max = self.max.max(micros);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value, or 0 for an empty histogram.
    ///
    /// The empty case once leaked the internal `+∞` sentinel, which
    /// serializes as invalid JSON (`inf`) and poisoned any snapshot or
    /// merged-then-empty shard that touched it.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 for an empty histogram (the internal
    /// `-∞` sentinel never escapes; see [`Histogram::min`]).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The value at or below which `p` percent of observations fall,
    /// reported as the midpoint of the selected bucket (unbiased to
    /// within half a bucket width, ~±1.1%) and clamped into
    /// `[min, max]` so it never strays outside the observed data.
    ///
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_value(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Median latency.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(99.0), 0.0);
    }

    #[test]
    fn empty_min_max_are_finite_zero() {
        // Regression: these returned the ±∞ sentinels, which serialize
        // as invalid JSON and poisoned empty shards in merged reports.
        let h = Histogram::new();
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.min().is_finite() && h.max().is_finite());
    }

    #[test]
    fn merge_with_empty_keeps_real_extremes() {
        // Regression: merging an empty histogram must not let the ±∞
        // sentinels clobber (or be reported from) the populated side.
        let mut a = Histogram::new();
        a.record(100.0);
        a.record(300.0);
        a.merge(&Histogram::new());
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 100.0);
        assert_eq!(a.max(), 300.0);

        // Empty ← populated direction too.
        let mut e = Histogram::new();
        e.merge(&a);
        assert_eq!(e.min(), 100.0);
        assert_eq!(e.max(), 300.0);

        // Empty ← empty stays finite.
        let mut both = Histogram::new();
        both.merge(&Histogram::new());
        assert_eq!(both.min(), 0.0);
        assert_eq!(both.max(), 0.0);
    }

    #[test]
    fn single_value() {
        let mut h = Histogram::new();
        h.record(2660.0); // The paper's Null() latency.
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 2660.0);
        // The min/max clamp pins every percentile of a single-value
        // histogram to exactly that value now that the midpoint (not the
        // upper bucket edge) is the starting point.
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 2660.0, "p{p}");
        }
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64 * 10.0);
        }
        let mut last = 0.0;
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} = {v} < {last}");
            last = v;
        }
        // Median of 10..10000 uniform should be near 5000. The midpoint
        // fix removed the one-bucket-high bias, so the tolerance is a
        // little over one bucket width (~2.2%) rather than the old 5%.
        let p50 = h.percentile(50.0);
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.03, "p50 = {p50}");
    }

    #[test]
    fn wide_range_supported() {
        let mut h = Histogram::new();
        h.record(1.0); // 1 µs.
        h.record(600_000.0); // The §5 retransmission penalty.
        h.record(20_000_000.0); // 20 s.
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 20_000_000.0);
    }

    #[test]
    fn sub_microsecond_values_keep_their_percentiles() {
        // Regression: everything at or below 1 µs shared bucket 0, so a
        // trace step of a few hundred ns printed p50 = p95 = p99.
        let mut h = Histogram::new();
        for v in [0.1, 0.2, 0.3, 0.9] {
            h.record(v);
        }
        let p50 = h.percentile(50.0);
        assert!((p50 - 0.2).abs() / 0.2 < 0.025, "p50 = {p50}");
        let p99 = h.percentile(99.0);
        assert!((p99 - 0.9).abs() / 0.9 < 0.025, "p99 = {p99}");
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..50 {
            a.record(100.0 + i as f64);
            b.record(5000.0 + i as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 100);
        let p25 = a.percentile(25.0);
        let p75 = a.percentile(75.0);
        assert!(p25 < 200.0, "p25 = {p25}");
        assert!(p75 > 4000.0, "p75 = {p75}");
    }

    #[test]
    fn negative_values_clamped() {
        let mut h = Histogram::new();
        h.record(-5.0);
        assert_eq!(h.min(), 0.0);
    }
}
