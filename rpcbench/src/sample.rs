//! Sample arithmetic: the latency recorder, medians and quartiles.
//!
//! Latencies are recorded in **nanoseconds** into a log-linear histogram
//! of this file's own rather than `firefly_metrics::Histogram`: that one
//! starts at 1.0 with 2.2 % buckets and reports bucket midpoints, so a
//! median read from it moves in 2.2 % steps — wider than the run-to-run
//! spread this benchmark has to resolve. Here a bucket is at most 1.6 %
//! wide and percentiles interpolate inside it, so two runs never read
//! the same value by quantisation alone.

/// Sub-buckets per power of two: 2^6 = 64, i.e. ≤ 1/64 relative width.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^MAX_EXP ns (~69 s) clamp into the top bucket.
const MAX_EXP: u32 = 36;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

/// A histogram of nanosecond values: exact below 64 ns, 64 buckets per
/// octave above; 8 KiB, so a caller thread's copy stays in cache.
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
}

impl LatencyHist {
    pub fn new() -> LatencyHist {
        LatencyHist {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        if exp >= MAX_EXP {
            return BUCKETS - 1;
        }
        let shift = exp - SUB_BITS;
        // Octave `shift + 1`, offset by the bits below the leading one.
        ((shift as usize + 1) << SUB_BITS) + ((ns >> shift) - SUB) as usize
    }

    /// Lower edge and width, in ns, of bucket `index`.
    fn bounds(index: usize) -> (u64, u64) {
        let octave = (index >> SUB_BITS) as u32;
        let offset = (index as u64) & (SUB - 1);
        if octave == 0 {
            return (offset, 1);
        }
        let shift = octave - 1;
        ((SUB + offset) << shift, 1 << shift)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
        self.sum += u128::from(ns);
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value, in ns, below which `p` percent of the samples lie,
    /// interpolated linearly inside the bucket that holds that rank.
    /// 0 for an empty histogram.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p / 100.0).clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo as f64 + width as f64 * inside;
            }
            seen += c;
        }
        let (lo, width) = Self::bounds(BUCKETS - 1);
        (lo + width) as f64
    }
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance check of this benchmark uses.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the "spread" the
/// bounds in `BENCHMARK.json` are compared with.
pub fn spread(values: &[f64]) -> Option<f64> {
    let q = quartiles(values)?;
    (q[1] != 0.0).then(|| (q[2] - q[0]) / q[1].abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHist::new();
        for ns in [3, 3, 3, 90] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert!((h.mean_ns() - 24.75).abs() < 1e-9);
        // Ranks 1..3 sit in the one-wide bucket [3, 4).
        let p50 = h.percentile_ns(50.0);
        assert!((3.0..=4.0).contains(&p50), "{p50}");
        let p100 = h.percentile_ns(100.0);
        assert!((90.0..=91.0).contains(&p100), "{p100}");
    }

    #[test]
    fn index_and_bounds_agree_across_octaves() {
        for ns in [
            0u64,
            1,
            63,
            64,
            65,
            127,
            128,
            1000,
            11_500,
            1 << 20,
            (1 << 35) + 12345,
        ] {
            let i = LatencyHist::index(ns);
            let (lo, width) = LatencyHist::bounds(i);
            assert!(
                lo <= ns && ns < lo + width,
                "ns={ns} i={i} lo={lo} w={width}"
            );
            assert!(width as f64 <= (ns.max(1) as f64) / 64.0 + 1.0);
        }
        // Past the top: clamped, never out of range.
        assert_eq!(LatencyHist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_a_uniform_sample_within_a_bucket_width() {
        let mut h = LatencyHist::new();
        for ns in 10_000..20_000u64 {
            h.record(ns);
        }
        for (p, want) in [(50.0, 15_000.0), (99.0, 19_900.0), (99.9, 19_990.0)] {
            let got = h.percentile_ns(p);
            assert!((got - want).abs() / want < 0.01, "p{p}: {got} vs {want}");
        }
        assert_eq!(LatencyHist::new().percentile_ns(50.0), 0.0);
    }

    #[test]
    fn merge_adds_samples() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        a.record(100);
        b.record(300);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean_ns() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn window_median() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).expect("ten values");
        assert!((q[0] - 2.75).abs() < 1e-12 && (q[1] - 5.5).abs() < 1e-12);
        assert!((q[2] - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), Some([10.0, 20.0, 30.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&v).expect("spread");
        assert!((s - 1.0).abs() < 1e-12);
    }
}
