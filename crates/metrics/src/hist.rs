//! Log2-bucketed histograms.
//!
//! The registry's histograms trade resolution for a fixed, small
//! footprint: 64 buckets cover the whole `u64` range at factor-of-two
//! resolution, which is exactly what capacity-planning questions ("are EM
//! restarts taking 10 or 10 000 iterations?", "is a restart 50 µs or
//! 5 ms?") need. Every operation is a pure
//! integer fold, so merging shards is commutative and associative — the
//! property the deterministic parallel snapshot leans on.

use serde::{Deserialize, Serialize};

/// Number of buckets: bucket 0 holds zeros, bucket `i` (1..63) holds
/// values in `[2^(i-1), 2^i)`, and the last bucket saturates, holding
/// every value from `2^62` up.
pub const NUM_BUCKETS: usize = 64;

/// Bucket index for a value: 0 maps to bucket 0, `v >= 1` to
/// `1 + floor(log2 v)`, saturating at the last bucket.
#[inline]
pub fn log2_bucket(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(NUM_BUCKETS - 1)
}

/// A log2-bucketed histogram with count / sum / max side-channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Hist {
    /// Per-bucket observation counts.
    pub buckets: [u64; NUM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Log2Hist {
    /// Fold one observation in.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[log2_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Fold another histogram in. Commutative and associative: merging
    /// shards in any order yields the same histogram.
    pub fn merge(&mut self, other: &Log2Hist) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean observed value (0 for an empty histogram).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate of the `q`-quantile (`q` in `[0, 1]`): the value of
    /// rank `ceil(q · count)`, placed by linear interpolation on that rank
    /// inside the bucket that holds it, as if the bucket's observations
    /// were spread evenly over `[2^(i-1), 2^i)`, and clamped to the
    /// observed maximum. The estimate always lies in the true quantile's
    /// bucket. Bucket 0 reads 0, the saturating last bucket reads the
    /// maximum, and an empty histogram reads 0.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut below = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if below + b >= rank {
                if i == 0 {
                    return 0;
                }
                if i == NUM_BUCKETS - 1 {
                    return self.max;
                }
                // The k-th of the bucket's b observations sits at the
                // midpoint of the k-th of b equal slices of the bucket.
                let (lower, k) = (1u64 << (i - 1), u128::from(rank - below));
                let offset = u128::from(lower) * (2 * k - 1) / (2 * u128::from(b));
                return (lower + offset as u64).min(self.max);
            }
            below += b;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn observe_tracks_count_sum_max() {
        let mut h = Log2Hist::default();
        for v in [0, 1, 5, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn merge_equals_sequential_observation() {
        let mut a = Log2Hist::default();
        let mut b = Log2Hist::default();
        let mut all = Log2Hist::default();
        for v in [3u64, 9, 0, 77] {
            a.observe(v);
            all.observe(v);
        }
        for v in [1u64, 1, 250_000] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn quantiles_bound_observations() {
        let mut h = Log2Hist::default();
        for v in 1..=100u64 {
            h.observe(v);
        }
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        // Log2 resolution: the estimate lives within a factor of two of
        // the true quantile and never above the max.
        assert!((50..=100).contains(&p50), "p50 {p50}");
        assert!((95..=100).contains(&p95), "p95 {p95}");
        assert_eq!(h.quantile(1.0), 100);
        assert_eq!(Log2Hist::default().quantile(0.5), 0);
    }

    #[test]
    fn medians_sharing_a_bucket_read_apart() {
        // Both medians (40 and 50) lie in the bucket [32, 64), whose upper
        // edge both used to read; their ranks inside it differ.
        let hist = |vs: [u64; 5]| {
            let mut h = Log2Hist::default();
            vs.into_iter().for_each(|v| h.observe(v));
            h
        };
        let low = hist([5, 6, 40, 50, 60]).quantile(0.5);
        let high = hist([5, 40, 50, 60, 100]).quantile(0.5);
        assert!(low < high, "p50 {low} vs {high}");
        assert_eq!(log2_bucket(low), log2_bucket(40));
        assert_eq!(log2_bucket(high), log2_bucket(50));
    }
}
