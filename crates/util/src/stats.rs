//! Small statistics helpers for experiment harnesses.

use serde::{Deserialize, Serialize};

/// Arithmetic mean of a slice. Returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(pcm_util::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator). Returns `0.0` when fewer
/// than two samples are given.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// An empirical cumulative distribution function over `f64` samples.
///
/// # Examples
///
/// ```
/// let cdf = pcm_util::stats::Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.fraction_le(2.0), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (sorts them internally).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "ECDF samples must not be NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Ecdf { sorted: samples }
    }

    /// Fraction of samples `<= x`. Returns `0.0` for an empty ECDF.
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138089935299395).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
    }

    #[test]
    fn ecdf_fractions() {
        let cdf = Ecdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(cdf.fraction_le(0.0), 0.0);
        assert_eq!(cdf.fraction_le(3.0), 0.6);
        assert_eq!(cdf.fraction_le(100.0), 1.0);
    }
}
