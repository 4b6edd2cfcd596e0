//! Summary statistics (mean, population standard deviation, extrema).

/// Summary statistics over a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean; 0 for an empty sample.
    pub mean: f64,
    /// Population standard deviation (divides by `n`, matching the paper's
    /// `PartStDev` metric which describes a full population of partitions).
    pub std_dev: f64,
    /// Minimum value; +inf for an empty sample.
    pub min: f64,
    /// Maximum value; -inf for an empty sample.
    pub max: f64,
    /// Sum of all values.
    pub sum: f64,
}

impl Summary {
    /// Computes summary statistics in one pass (Welford's algorithm for
    /// numerical stability).
    pub fn of(values: &[f64]) -> Self {
        let mut mean = 0.0;
        let mut m2 = 0.0;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for (i, &x) in values.iter().enumerate() {
            let n = (i + 1) as f64;
            let delta = x - mean;
            mean += delta / n;
            m2 += delta * (x - mean);
            min = min.min(x);
            max = max.max(x);
            sum += x;
        }
        let count = values.len();
        let variance = if count == 0 { 0.0 } else { m2 / count as f64 };
        Self {
            count,
            mean: if count == 0 { 0.0 } else { mean },
            std_dev: variance.sqrt(),
            min,
            max,
            sum,
        }
    }

    /// Convenience constructor from integer counts (e.g. edges per partition).
    pub fn of_counts<I: IntoIterator<Item = u64>>(counts: I) -> Self {
        let values: Vec<f64> = counts.into_iter().map(|c| c as f64).collect();
        Self::of(&values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12, "population stddev is 2");
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.sum, 40.0);
    }

    #[test]
    fn summary_of_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev, 0.0);
    }

    #[test]
    fn summary_of_single() {
        let s = Summary::of(&[42.0]);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn summary_of_counts_matches() {
        let a = Summary::of_counts([1u64, 2, 3]);
        let b = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }
}
