//! Fixed-size log2-bucketed latency histograms.
//!
//! The live telemetry plane needs distribution shape — p50 vs p99 step
//! latency is the tail-vs-median signal that distinguishes a balanced
//! run from one island limping — but it must get it with **zero
//! steady-state allocation** and lock-free recording, because the
//! collector folds spans while the run is hot. A log2 histogram is the
//! standard answer: 65 fixed buckets cover the full `u64` nanosecond
//! range with ≤ 2× relative error, `record` is one relaxed
//! `fetch_add`, and quantile extraction is a pure read.
//!
//! Bucket `0` holds exactly the value 0 (zero-duration spans are real:
//! a saturating span close produces them); bucket `i ≥ 1` holds
//! `[2^(i-1), 2^i)`, so bucket 64 tops out at `u64::MAX` (recording
//! `u64::MAX` saturates into it rather than wrapping).

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: one zero bucket plus one per power of two.
pub const BUCKETS: usize = 65;

/// Bucket index a value lands in.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Smallest value of bucket `i`.
pub fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Largest value of bucket `i` (inclusive; saturates at `u64::MAX`).
pub fn bucket_ceil(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A lock-free log2-bucketed histogram of `u64` samples.
///
/// All operations are wait-free except the saturating `sum` update
/// (a bounded CAS loop, still lock-free). Concurrent `record` and
/// `snapshot` calls are safe; a snapshot taken
/// mid-record is a legal historical state (counts are only ever
/// added to).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram. `const` so registries can embed histograms
    /// in statics and fixed arrays without lazy init.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        // ordering: Relaxed — pure statistics: buckets/count/sum are
        // independent monotone counters with no payload behind them;
        // readers take an advisory snapshot, never a synchronized one.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same advisory-counter contract.
        self.count.fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — same advisory-counter contract; the CAS
        // loop is only for saturation, not synchronization.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// A plain-value copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            // ordering: Relaxed — advisory-counter contract; the
            // snapshot is a statistical reading, not a consistency
            // point.
            *out = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            // ordering: Relaxed — advisory-counter contract.
            count: self.count.load(Ordering::Relaxed),
            // ordering: Relaxed — advisory-counter contract.
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Nearest-rank quantile estimate; see
    /// [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }
}

/// Plain-value histogram state (what `snapshot` returns).
#[derive(Clone, Copy, Debug)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see the module docs for bounds).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Nearest-rank quantile: the upper bound of the bucket holding
    /// the `ceil(q·count)`-th smallest sample. Exact for bucket-0
    /// (all-zero) populations; within one log2 bucket (≤ 2× relative
    /// error) otherwise. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_ceil(i);
            }
        }
        bucket_ceil(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_floor(i)), i, "floor of bucket {i}");
            assert_eq!(bucket_of(bucket_ceil(i)), i, "ceil of bucket {i}");
        }
        for i in 1..BUCKETS {
            assert_eq!(
                bucket_floor(i),
                bucket_ceil(i - 1) + 1,
                "gap between buckets {} and {}",
                i - 1,
                i
            );
        }
    }

    #[test]
    fn record_and_quantiles_on_a_known_shape() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum, 1535);
        // Rank 5 of 10 is the sample 16 → bucket [16, 31].
        assert_eq!(s.quantile(0.5), 31);
        // Rank 10 is 1024 → bucket [1024, 2047].
        assert_eq!(s.quantile(0.99), 2047);
        assert_eq!(s.quantile(1.0), 2047);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }
}
