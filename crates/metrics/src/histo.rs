//! Log-bucketed latency histogram (HDR-style).
//!
//! A latency recorder may see thousands of samples per second; keeping
//! every sample for exact quantiles would cost unbounded memory and a
//! sort at report time. This histogram instead
//! buckets nanosecond values into power-of-two octaves split into
//! [`SUBDIVISIONS`] linear sub-buckets, bounding relative bucket width to
//! ~3% while using a fixed ~15 KiB of memory. Values below
//! `2 * SUBDIVISIONS` are stored exactly (their buckets are width one).
//!
//! Everything here is integer arithmetic over counts, so quantile
//! estimates — and any report rendered from them — are byte-identical
//! across reruns of the same workload. Merging is element-wise addition,
//! letting per-worker histograms combine without precision loss.

/// Linear sub-buckets per power-of-two octave. Must be a power of two.
pub const SUBDIVISIONS: u64 = 32;

const SUB_BITS: u32 = SUBDIVISIONS.trailing_zeros();
/// Bucket count covering the full `u64` range: values below
/// `2 * SUBDIVISIONS` get exact buckets, then [`SUBDIVISIONS`] buckets per
/// octave; the shift in [`bucket_index`] runs from 1 (values at
/// `2 * SUBDIVISIONS`) up to `63 - SUB_BITS` (values near `u64::MAX`).
const BUCKETS: usize =
    (2 * SUBDIVISIONS) as usize + (63 - SUB_BITS as usize) * SUBDIVISIONS as usize;

/// Fixed-memory histogram of `u64` samples (by convention, nanoseconds).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket index holding `value`.
fn bucket_index(value: u64) -> usize {
    if value < 2 * SUBDIVISIONS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = msb - SUB_BITS;
    ((shift as u64 * SUBDIVISIONS) + (value >> shift)) as usize
}

/// Inclusive lower bound of bucket `index`.
fn bucket_low(index: usize) -> u64 {
    let e = index as u64 / SUBDIVISIONS;
    let sub = index as u64 % SUBDIVISIONS;
    if e == 0 {
        sub
    } else {
        (sub + SUBDIVISIONS) << (e - 1)
    }
}

/// Inclusive upper bound of bucket `index`.
fn bucket_high(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_low(index + 1) - 1
    }
}

/// Inclusive `[low, high]` bounds of the bucket that would hold `value`.
/// Exposed so tests (and reports) can state "within one bucket" precisely.
pub fn bucket_bounds(value: u64) -> (u64, u64) {
    let i = bucket_index(value);
    (bucket_low(i), bucket_high(i))
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self` (lossless: buckets align).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded samples (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum / self.count as u128) as u64
        }
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket that
    /// contains the sample of rank `ceil(q * count)` — never below the
    /// true sample's bucket, and at most one bucket width above it.
    /// Clamped to the exactly-tracked min/max so `quantile(0.0)` and
    /// `quantile(1.0)` are exact. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile fraction out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("p999", &self.p999())
            .field("max", &self.max)
            .finish()
    }
}

impl std::fmt::Display for LatencyHistogram {
    /// Deterministic one-line summary (all integers; safe to diff).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p99={} p999={} max={} mean={}",
            self.count(),
            self.min(),
            self.p50(),
            self.p99(),
            self.p999(),
            self.max(),
            self.mean()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..2 * SUBDIVISIONS {
            assert_eq!(
                bucket_low(bucket_index(v)),
                v,
                "value {v} bucket is width one"
            );
            assert_eq!(bucket_high(bucket_index(v)), v);
            h.record(v);
        }
        assert_eq!(h.count(), 2 * SUBDIVISIONS);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 2 * SUBDIVISIONS - 1);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every probe value must land inside its own bucket's bounds, and
        // bucket bounds must tile the axis without gaps.
        let probes = [
            0u64,
            1,
            31,
            63,
            64,
            65,
            127,
            128,
            1_000,
            1_000_000,
            u32::MAX as u64,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(
                bucket_low(i) <= v && v <= bucket_high(i),
                "value {v} in bucket {i}"
            );
        }
        for i in 0..BUCKETS - 1 {
            assert_eq!(
                bucket_high(i) + 1,
                bucket_low(i + 1),
                "gap after bucket {i}"
            );
        }
        assert_eq!(bucket_high(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Above the exact range, bucket width / low bound <= 1/SUBDIVISIONS.
        for i in (2 * SUBDIVISIONS as usize)..BUCKETS - 1 {
            let w = bucket_high(i) - bucket_low(i) + 1;
            assert!(
                w * SUBDIVISIONS <= bucket_low(i),
                "bucket {i}: width {w} low {}",
                bucket_low(i)
            );
        }
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 1000 samples: 0..1000. Exact p50 = 500, p99 = 990, p999 = 999.
        for v in 0..1000u64 {
            h.record(v);
        }
        // Estimates land within one bucket of the exact value.
        let assert_close = |est: u64, exact: u64| {
            let i = bucket_index(exact);
            assert!(
                bucket_low(i.saturating_sub(1)) <= est && est <= bucket_high(i + 1),
                "estimate {est} too far from exact {exact}"
            );
        };
        assert_close(h.p50(), 500);
        assert_close(h.p99(), 990);
        assert_close(h.p999(), 999);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), 999);
        assert_eq!(h.mean(), 499);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [5u64, 100, 100, 3_000, 70_000] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 999_999, 12] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.min(), both.min());
        assert_eq!(a.max(), both.max());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.to_string(), "n=0 min=0 p50=0 p99=0 p999=0 max=0 mean=0");
    }
}
