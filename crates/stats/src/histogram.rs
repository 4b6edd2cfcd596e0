//! Log-binned histograms for fat-tailed distributions.
//!
//! Degree distributions of social graphs span five or more orders of
//! magnitude (Figure 1 of the paper is drawn on log–log axes); logarithmic
//! binning is the standard way to summarise them without millions of
//! single-count buckets.

/// A histogram whose bucket boundaries grow geometrically: bucket `k` covers
/// `[base^k, base^(k+1))`, with a dedicated bucket for zero.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    base: f64,
    zero_count: u64,
    buckets: Vec<u64>,
}

impl LogHistogram {
    /// Creates an empty histogram with the given geometric `base` (> 1).
    pub fn new(base: f64) -> Self {
        assert!(base > 1.0, "log histogram base must exceed 1");
        Self {
            base,
            zero_count: 0,
            buckets: Vec::new(),
        }
    }

    /// Standard base-2 histogram.
    pub fn base2() -> Self {
        Self::new(2.0)
    }

    /// Adds one observation.
    // The bucket index is a logarithm of a `u64`: small for any base > 1.
    #[allow(clippy::cast_possible_truncation)]
    pub fn add(&mut self, value: u64) {
        if value == 0 {
            self.zero_count += 1;
            return;
        }
        let k = (value as f64).log(self.base).floor() as usize;
        if k >= self.buckets.len() {
            self.buckets.resize(k + 1, 0);
        }
        self.buckets[k] += 1;
    }

    /// Adds every value of an iterator.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Count of zero-valued observations (the paper's "leaf" vertices with
    /// zero in- or out-degree land here).
    pub fn zeros(&self) -> u64 {
        self.zero_count
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.zero_count + self.buckets.iter().sum::<u64>()
    }

    /// Yields `(bucket_low, bucket_high_exclusive, count)` triples for all
    /// non-empty buckets, in increasing order; the zero bucket appears first
    /// as `(0, 1, count)` when non-empty.
    // `k` indexes a bucket (a logarithm of a `u64`), and `base^k` is at
    // most about the largest value added.
    #[allow(clippy::cast_possible_truncation)]
    pub fn series(&self) -> Vec<(u64, u64, u64)> {
        let mut out = Vec::new();
        if self.zero_count > 0 {
            out.push((0, 1, self.zero_count));
        }
        for (k, &count) in self.buckets.iter().enumerate() {
            if count > 0 {
                let lo = self.base.powi(k as i32).floor() as u64;
                let hi = self.base.powi(k as i32 + 1).floor() as u64;
                out.push((lo, hi.max(lo + 1), count));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_geometric() {
        let mut h = LogHistogram::base2();
        h.extend([1, 1, 2, 3, 4, 7, 8, 100]);
        let s = h.series();
        // 1 -> bucket [1,2); 2,3 -> [2,4); 4..8 -> [4,8); 8..16 -> [8,16); 100 -> [64,128)
        assert_eq!(s[0], (1, 2, 2));
        assert_eq!(s[1], (2, 4, 2));
        assert_eq!(s[2], (4, 8, 2));
        assert_eq!(s[3], (8, 16, 1));
        assert_eq!(s[4], (64, 128, 1));
    }

    #[test]
    fn zero_bucket_is_separate() {
        let mut h = LogHistogram::base2();
        h.extend([0, 0, 1]);
        assert_eq!(h.zeros(), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.series()[0], (0, 1, 2));
    }

    #[test]
    fn total_counts_everything() {
        let mut h = LogHistogram::new(10.0);
        h.extend(0..1000u64);
        assert_eq!(h.total(), 1000);
    }

    #[test]
    #[should_panic(expected = "base must exceed 1")]
    fn base_one_rejected() {
        LogHistogram::new(1.0);
    }
}
