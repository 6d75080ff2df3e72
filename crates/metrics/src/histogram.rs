//! A mergeable, log-bucketed integer histogram.
//!
//! Values below [`LINEAR_CUTOFF`] get exact unit buckets; above that,
//! each power-of-two octave is split into [`SUBBUCKETS`] equal-width
//! sub-buckets (HdrHistogram-style log-linear bucketing), bounding the
//! relative bucket width — and therefore the percentile error — by
//! `1/SUBBUCKETS` (6.25 %).
//!
//! The bucket boundaries are a fixed global function of the value, so
//! **merging two histograms is exact**: `merge(h(a), h(b))` is
//! bit-identical to `h(a ++ b)` — the property multi-tile aggregation
//! relies on, asserted by a property test.

/// Values strictly below this cutoff get exact unit-width buckets.
pub const LINEAR_CUTOFF: u64 = 32;

/// Sub-buckets per power-of-two octave above the linear range.
pub const SUBBUCKETS: usize = 16;

const OCTAVE0: u32 = 5; // log2(LINEAR_CUTOFF)
const PRECISION: u32 = 4; // log2(SUBBUCKETS)

/// A log-bucketed histogram of `u64` samples with exact count, sum,
/// min and max, mergeable across instances.
///
/// ```
/// use cim_metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [3u64, 3, 10, 700] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.max(), 700);
/// assert_eq!(h.p50(), 10); // small values are exact
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; grown on demand, never holds trailing zeros
    /// (growth happens only when a bucket gains its first sample).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of `v` under the global bucketing scheme.
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros();
        let sub = ((v >> (octave - PRECISION)) & (SUBBUCKETS as u64 - 1)) as usize;
        LINEAR_CUTOFF as usize + (octave - OCTAVE0) as usize * SUBBUCKETS + sub
    }
}

/// Inclusive `(lower, upper)` value bounds of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < LINEAR_CUTOFF as usize {
        (i as u64, i as u64)
    } else {
        let o = OCTAVE0 + ((i - LINEAR_CUTOFF as usize) / SUBBUCKETS) as u32;
        let s = ((i - LINEAR_CUTOFF as usize) % SUBBUCKETS) as u64;
        let width = 1u64 << (o - PRECISION);
        let lower = (1u64 << o) + s * width;
        // `width - 1` first: the top bucket's upper bound is u64::MAX
        // and `lower + width` would overflow.
        (lower, lower + (width - 1))
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = bucket_index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Folds `other` into `self`. Exact: the result equals the
    /// histogram of the concatenated sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile (`p` in `0..=100`): the representative
    /// value of the bucket holding the sample of rank
    /// `round(p/100 · (count−1))`. The representative is the bucket's
    /// inclusive upper bound clamped to the observed `[min, max]`, so
    /// the result is within one bucket width (≤ 1/[`SUBBUCKETS`]
    /// relative) of the exact sample percentile, and exact for values
    /// below [`LINEAR_CUTOFF`]. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum > rank {
                let (_, upper) = bucket_bounds(i);
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Iterates over `(inclusive upper bound, count)` of every
    /// non-empty bucket, in increasing value order.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bounds(i).1, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_exact_below_cutoff() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_bounds_partition_the_line() {
        // Every value maps into a bucket whose bounds contain it, and
        // consecutive buckets tile the value range without gaps.
        for v in [0u64, 1, 31, 32, 33, 47, 48, 1000, 12345, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} i={i} bounds=({lo},{hi})");
        }
        for i in 0..500 {
            let (_, hi) = bucket_bounds(i);
            let (lo_next, _) = bucket_bounds(i + 1);
            assert_eq!(hi + 1, lo_next, "gap after bucket {i}");
        }
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for v in [100u64, 510, 990, 65_537, 1 << 33] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = (hi - lo + 1) as f64;
            assert!(
                width / lo as f64 <= 1.0 / SUBBUCKETS as f64 + 1e-12,
                "v={v} width={width} lo={lo}"
            );
        }
    }

    #[test]
    fn count_sum_min_max_mean() {
        let mut h = Histogram::new();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (0, 0, 0, 0));
        assert_eq!(h.mean(), 0.0);
        h.record(10);
        h.record_n(4, 3);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 22);
        assert_eq!(h.min(), 4);
        assert_eq!(h.max(), 10);
        assert!((h.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_exact_in_linear_range() {
        let mut h = Histogram::new();
        for v in 0..=20u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), 10);
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.percentile(100.0), 20);
    }

    #[test]
    fn percentile_is_within_one_bucket_of_exact() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=1000u64).map(|i| i * 7).collect();
        for &v in &samples {
            h.record(v);
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = samples[((p / 100.0) * (samples.len() - 1) as f64).round() as usize];
            let got = h.percentile(p);
            let rel = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(
                rel <= 1.0 / SUBBUCKETS as f64,
                "p={p} got={got} exact={exact}"
            );
            assert!(got >= exact, "representative is the bucket upper bound");
        }
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 5, 90, 1000, 32] {
            a.record(v);
            all.record(v);
        }
        for v in [2u64, 90, 4096, 7] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
        let mut empty = Histogram::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn max_clamps_percentile_representative() {
        let mut h = Histogram::new();
        h.record(1000); // bucket upper bound is 1023
        assert_eq!(h.percentile(100.0), 1000);
        assert_eq!(h.p50(), 1000);
    }

    #[test]
    fn buckets_iterate_nonzero_in_order() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(100);
        let b: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], (3, 2));
        assert_eq!(b[1].1, 1);
        assert!(b[1].0 >= 100);
    }
}
