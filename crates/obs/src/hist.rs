//! Log2-bucket latency histograms.
//!
//! Values (nanoseconds, usually) fall into 65 power-of-two buckets:
//! bucket 0 holds exactly the value 0, bucket *i* (1 ≤ *i* ≤ 64) holds
//! the range `[2^(i-1), 2^i - 1]`. Quantiles are answered from the
//! cumulative bucket counts and reported as the containing bucket's
//! upper bound — at most 2× off, which is plenty for p50/p95/p99 of
//! latency distributions spanning orders of magnitude. The maximum is
//! tracked exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bucket 0 for zero plus one bucket per bit position.
const BUCKETS: usize = 65;

pub(crate) struct HistCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    pub(crate) fn new() -> HistCell {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Which bucket `v` falls into: 0 for 0, else `64 - leading_zeros(v)`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (used as the quantile estimate).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A log2-bucket histogram handle. Cloning is cheap; all clones feed the
/// same cells. Obtain named instances through [`crate::Recorder::hist`].
#[derive(Clone)]
pub struct Hist(pub(crate) Arc<HistCell>);

impl Hist {
    /// A histogram not registered in any [`crate::Registry`].
    pub fn detached() -> Hist {
        Hist(Arc::new(HistCell::new()))
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, modulo 2^64 (`fetch_add` wraps on overflow).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// containing it, clamped to the exact maximum (so the topmost
    /// occupied bucket answers exactly). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the sample we want, 1-based.
        let target = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            seen += self.0.buckets[i].load(Ordering::Relaxed);
            if seen >= target {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// `(p50, p95, p99, max)` in one call, for report rows.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max(),
        )
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (p50, p95, p99, max) = self.percentiles();
        f.debug_struct("Hist")
            .field("count", &self.count())
            .field("p50", &p50)
            .field("p95", &p95)
            .field("p99", &p99)
            .field("max", &max)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_goes_to_bucket_zero() {
        let h = Hist::detached();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn u64_max_is_representable() {
        let h = Hist::detached();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.99), u64::MAX);
    }

    #[test]
    fn bucket_boundaries() {
        // 1 is the first value of bucket 1; 2^k is the first value of
        // bucket k+1; 2^k - 1 the last of bucket k.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(1 << 63), 64);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn quantile_is_within_one_bucket() {
        let h = Hist::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.50);
        // True median is 500; a log2 bucket answer must be in [500, 1023].
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1023).contains(&p99), "p99 = {p99}");
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let h = Hist::detached();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let h = Hist::detached();
        h.record(777);
        let (p50, p95, p99, max) = h.percentiles();
        assert_eq!(max, 777);
        // The only occupied bucket is the top one: answered with max.
        assert_eq!(p50, 777);
        assert_eq!(p95, 777);
        assert_eq!(p99, 777);
    }

    #[test]
    fn sum_accumulates() {
        let h = Hist::detached();
        h.record(10);
        h.record(20);
        assert_eq!(h.sum(), 30);
    }
}
