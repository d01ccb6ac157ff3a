//! Measurement utilities for the Firefly RPC reproduction.
//!
//! The paper's evaluation style is distinctive: it does not stop at
//! end-to-end numbers but "account\[s\] precisely for all measured latency".
//! This crate provides the pieces that style needs, for both the real Rust
//! stack (wall-clock time) and the discrete-event simulator (virtual time):
//!
//! * [`Stopwatch`] — wall-clock elapsed-time measurement,
//! * [`Histogram`] — microsecond latency distributions with percentiles,
//! * [`Summary`] — count/mean/stddev/min/max accumulator,
//! * [`throughput`] — the paper's two throughput units, RPCs/second and
//!   megabits/second of useful payload,
//! * [`Table`] — fixed-width text tables shaped like the paper's
//!   Tables I–XII, with optional Markdown output for EXPERIMENTS.md,
//! * [`Json`] — a dependency-free, round-trip-stable JSON value: what
//!   the repo benchmark prints and the `BENCH_NNNN.json` ledger and its
//!   gate read back.

// No unsafe anywhere in this crate — see DESIGN.md ("Unsafe policy").
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod table;
pub mod throughput;

pub use hist::Histogram;
pub use json::Json;
pub use table::Table;
pub use throughput::{megabits_per_sec, rpcs_per_sec};

use std::time::{Duration, Instant};

/// A wall-clock stopwatch.
///
/// # Examples
///
/// ```
/// use firefly_metrics::Stopwatch;
/// let w = Stopwatch::start();
/// let micros = w.elapsed_micros();
/// assert!(micros < 1_000_000.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed microseconds as a float.
    pub fn elapsed_micros(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e6
    }
}

/// Streaming count/mean/variance/min/max (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation, or 0 with fewer than two observations.
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest observation, or +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n;
        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        // Sample stddev of that classic data set is ~2.138.
        assert!((s.stddev() - 2.138).abs() < 0.01);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
    }

    #[test]
    fn merge_matches_concatenation() {
        let xs: Vec<f64> = (0..100).map(|i| (i * 37 % 101) as f64).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..33] {
            a.record(x);
        }
        for &x in &xs[33..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn stopwatch_moves_forward() {
        let w = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(w.elapsed_micros() >= 2000.0);
    }
}
