//! Metric primitives: a counter and an atomic log₂-bucketed histogram.
//!
//! All handles are `Arc`-backed clones of the registry's cells: recording
//! through one is a handful of relaxed atomic operations with no allocation
//! and no lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: value `v` lands in bucket
/// `floor(log2(v + 1))`, so 64 buckets cover the entire `u64` range.
const BUCKETS: usize = 64;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell; all clones observe the same value.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log₂-bucketed histogram of `u64` samples.
///
/// A percentile is its bucket's upper bound clamped to the observed
/// `[min, max]`. Safe to record into from many threads concurrently.
///
/// # Examples
///
/// ```
/// let h = wdog_telemetry::AtomicHistogram::new();
/// for v in [10u64, 20, 30, 1000] {
///     h.record(v);
/// }
/// let s = h.summarize();
/// assert_eq!(s.count, 4);
/// assert!(s.p50 >= 20);
/// ```
#[derive(Clone, Default)]
pub struct AtomicHistogram {
    inner: Arc<HistInner>,
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket(v: u64) -> usize {
        (64 - v.saturating_add(1).leading_zeros() as usize)
            .saturating_sub(1)
            .min(BUCKETS - 1)
    }

    /// Records one sample. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        let i = Self::bucket(v);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum so a u64::MAX outlier cannot wrap the mean negative.
        let mut cur = self.inner.sum.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_add(v);
            match self.inner.sum.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.inner.min.fetch_min(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Takes a point-in-time summary with p50/p95/p99.
    ///
    /// Concurrent recorders may land between the bucket reads; the summary is
    /// consistent enough for reporting (counts never go backwards).
    pub fn summarize(&self) -> HistogramSummary {
        let counts: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let sum = self.inner.sum.load(Ordering::Relaxed);
        let min_raw = self.inner.min.load(Ordering::Relaxed);
        let max = self.inner.max.load(Ordering::Relaxed);
        let mean = sum.checked_div(count).unwrap_or(0);
        let min = if count == 0 { 0 } else { min_raw };
        let pct = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    let upper = if i + 1 >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << (i + 1)) - 2
                    };
                    return upper.min(max).max(min);
                }
            }
            max
        };
        HistogramSummary {
            count,
            mean,
            min,
            max,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
        }
    }
}

impl std::fmt::Debug for AtomicHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.summarize();
        f.debug_struct("AtomicHistogram")
            .field("count", &s.count)
            .field("p50", &s.p50)
            .field("p99", &s.p99)
            .finish()
    }
}

/// Point-in-time percentile summary of an [`AtomicHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Arithmetic mean (saturating; 0 if empty).
    pub mean: u64,
    /// Smallest recorded sample (0 if empty).
    pub min: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Median upper bound.
    pub p50: u64,
    /// 95th percentile upper bound.
    pub p95: u64,
    /// 99th percentile upper bound.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    fn empty_histogram_summarizes_zeros() {
        let s = AtomicHistogram::new().summarize();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn records_zero_sample() {
        let h = AtomicHistogram::new();
        h.record(0);
        let s = h.summarize();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.p50, 0);
        assert_eq!(s.p99, 0);
    }

    #[test]
    fn records_u64_max_without_wrap() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let s = h.summarize();
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        // Saturating sum: mean stays at the ceiling instead of wrapping.
        assert!(s.mean >= u64::MAX / 2);
        assert_eq!(s.p99, u64::MAX);
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds_clamped_to_the_observed_range() {
        let h = AtomicHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // The 500th sample is in bucket 8 (255..=510): its upper bound.
        // The 950th and 990th are in bucket 9 (511..=1022): clamped to max.
        assert_eq!(
            h.summarize(),
            HistogramSummary {
                count: 1000,
                mean: 500,
                min: 1,
                max: 1000,
                p50: 510,
                p95: 1000,
                p99: 1000,
            }
        );
    }

    #[test]
    fn bucket_assignment_is_monotone() {
        let mut prev = 0;
        for v in [0u64, 1, 2, 3, 7, 8, 100, 1000, u64::MAX / 2, u64::MAX] {
            let b = AtomicHistogram::bucket(v);
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn concurrent_record_loses_nothing() {
        let h = AtomicHistogram::new();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = h.summarize();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 79_999);
    }
}
