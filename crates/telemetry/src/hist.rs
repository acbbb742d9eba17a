//! Log-bucketed latency histogram.
//!
//! Buckets are log-linear: values 0–3 are exact, and every octave above
//! that is split into 4 sub-buckets, so a reported quantile's relative
//! error is at most 25 % while the whole `u64` range fits in 256 fixed
//! buckets. Histograms merge bucket-wise, which is what lets per-thread or
//! per-phase histograms combine into one report without losing quantiles.

use crate::Nanos;

const SUB_BITS: u32 = 2; // 4 sub-buckets per octave
const BUCKETS: usize = 256;

#[inline]
fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & ((1 << SUB_BITS) - 1)) as usize;
    ((msb - SUB_BITS) as usize + 1) * 4 + sub
}

/// Smallest value that lands in bucket `i` (the bucket's lower bound).
#[inline]
fn bucket_floor(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let k = (i / 4 - 1) as u32;
    ((4 + (i % 4)) as u64) << k
}

/// A mergeable log-bucketed histogram of simulated-time durations.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: Nanos) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the lower bound of the bucket
    /// where the cumulative count reaches `ceil(q * count)`, clamped to the
    /// observed `[min, max]` so p0/p100 are exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Add every observation of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        if other.count > 0 {
            self.min = self.min.min(other.min);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut prev = 0usize;
        for shift in 0..64 {
            let v = 1u64 << shift;
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index not monotone at {v}");
            assert!(i < BUCKETS);
            prev = i;
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
        // Exact low values.
        for v in 0..4u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
    }

    #[test]
    fn floor_is_the_inverse_lower_bound() {
        for v in [4u64, 5, 7, 8, 9, 100, 1000, 123_456, u64::MAX / 3] {
            let i = bucket_index(v);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor {floor} > value {v}");
            // The next bucket's floor is above the value.
            assert!(bucket_floor(i + 1) > v, "value {v} not inside bucket {i}");
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for v in [10u64, 100, 1_000, 65_537, 1_000_000, 123_456_789] {
            let floor = bucket_floor(bucket_index(v));
            let err = (v - floor) as f64 / v as f64;
            assert!(err <= 0.25, "relative error {err} for {v}");
        }
    }

    #[test]
    fn quantiles_on_uniform_ramp() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.min(), 1);
        // Log buckets: quantile is the bucket floor, so it under-reports by
        // at most 25 %.
        let p50 = h.p50();
        assert!((375..=500).contains(&p50), "p50 {p50}");
        let p99 = h.p99();
        assert!((742..=990).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.quantile(0.0), 1);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in [3u64, 17, 99, 40_000, 7] {
            a.record(v);
            whole.record(v);
        }
        for v in [1u64, 250, 1_000_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.min(), whole.min());
        for q in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(a.quantile(q), whole.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHistogram::new();
        a.record(42);
        let before = (a.count(), a.sum(), a.min(), a.max(), a.p50());
        a.merge(&LatencyHistogram::new());
        assert_eq!(before, (a.count(), a.sum(), a.min(), a.max(), a.p50()));
    }
}
