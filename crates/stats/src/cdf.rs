//! Empirical cumulative distribution functions.
//!
//! Figure 2 of the paper plots the CDF of the out-degree / in-degree ratio
//! over all vertices of each dataset; [`Cdf`] reproduces that computation.

/// An empirical CDF over a sample of `f64` values.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds the CDF; NaNs are dropped.
    pub fn new(mut values: Vec<f64>) -> Self {
        values.retain(|v| !v.is_nan());
        // NaNs are gone, but the shared NaN-last total order keeps this
        // sort panic-free by construction.
        values.sort_by(|a, b| cutfit_util::num::nan_last_cmp(*a, *b));
        Self { sorted: values }
    }

    /// Number of (finite or infinite, non-NaN) observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X ≤ x): fraction of observations at or below `x`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: the smallest observation `x` with `at(x) >= p`.
    // `p` is clamped to [0, 1], so the rank is at most `sorted.len()`.
    #[allow(clippy::cast_possible_truncation)]
    pub(crate) fn inverse(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let k = ((p * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[k - 1])
    }

    /// Emits `(x, P(X ≤ x))` pairs at `points` evenly spaced probabilities —
    /// the data series behind a CDF plot.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        (1..=points)
            .map(|i| i as f64 / points as f64)
            .filter_map(|p| Some((self.inverse(p)?, p)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_at_matches_fraction() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(cdf.at(0.5), 0.0);
        assert_eq!(cdf.at(1.0), 0.25);
        assert_eq!(cdf.at(2.5), 0.5);
        assert_eq!(cdf.at(10.0), 1.0);
    }

    #[test]
    fn cdf_drops_nans() {
        let cdf = Cdf::new(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn cdf_handles_infinities() {
        // Out/in ratio is infinite for vertices with zero in-degree; the CDF
        // must still be well-defined.
        let cdf = Cdf::new(vec![1.0, f64::INFINITY, 2.0]);
        assert!((cdf.at(2.0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(cdf.at(f64::INFINITY), 1.0);
    }

    #[test]
    fn inverse_is_smallest_quantile_point() {
        let cdf = Cdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.inverse(0.25), Some(10.0));
        assert_eq!(cdf.inverse(0.26), Some(20.0));
        assert_eq!(cdf.inverse(1.0), Some(40.0));
        assert_eq!(Cdf::new(vec![]).inverse(0.5), None);
    }

    #[test]
    fn series_is_monotone() {
        let cdf = Cdf::new((0..100).map(|i| i as f64).collect());
        let s = cdf.series(10);
        assert_eq!(s.len(), 10);
        for w in s.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert_eq!(s.last().unwrap().1, 1.0);
    }
}
