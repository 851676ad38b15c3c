//! Seedable samplers used by the fault model and workload generator.
//!
//! We implement these directly (Box–Muller normal, inverse-CDF Zipf) rather
//! than pulling in `rand_distr`, keeping the dependency set to the vetted
//! offline crates.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

/// A normal (Gaussian) distribution sampler.
///
/// The PCM endurance model draws per-cell write endurance from
/// `Normal(1e7, CoV * 1e7)` (paper: mean 1e7, "variance" 0.15 — read as
/// coefficient of variation, as in the ECP and FREE-p models it cites).
///
/// # Examples
///
/// ```
/// use pcm_util::dist::Normal;
///
/// let n = Normal::new(10.0, 2.0);
/// let mut rng = pcm_util::seeded_rng(1);
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sd` is negative or either parameter is non-finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(
            mean.is_finite() && sd.is_finite(),
            "parameters must be finite"
        );
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        Normal { mean, sd }
    }

    /// Creates a normal distribution from a mean and a coefficient of
    /// variation (`sd = cov * mean`).
    ///
    /// # Panics
    ///
    /// Panics if `cov` is negative.
    pub fn from_cov(mean: f64, cov: f64) -> Self {
        assert!(cov >= 0.0, "CoV must be non-negative");
        Normal::new(mean, cov * mean.abs())
    }

    /// The mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }

    /// Draws one sample (Box–Muller transform).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1: f64 = 1.0 - rng.random::<f64>();
        let u2: f64 = rng.random();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.sd * z
    }

    /// Draws one sample, clamped below at `floor`.
    ///
    /// Endurance values must stay positive; the fault model clamps at a
    /// small positive floor so that extremely unlucky draws still yield a
    /// usable (if short-lived) cell instead of a nonsensical negative one.
    pub fn sample_clamped<R: Rng + ?Sized>(&self, rng: &mut R, floor: f64) -> f64 {
        self.sample(rng).max(floor)
    }
}

/// A Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Rank `k` (0-based) has probability proportional to `1 / (k + 1)^s`.
/// Sampling uses a precomputed CDF and binary search, so construction is
/// `O(n)` and each sample is `O(log n)`.
///
/// Memory-intensive SPEC write streams concentrate on a hot set of blocks;
/// the trace generator uses Zipf-ranked block popularity.
///
/// # Examples
///
/// ```
/// use pcm_util::dist::Zipf;
///
/// let z = Zipf::new(100, 1.0);
/// let mut rng = pcm_util::seeded_rng(2);
/// let k = z.sample(&mut rng);
/// assert!(k < 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// `s == 0` degenerates to the uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative or non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the distribution has no ranks (never: construction
    /// forbids it), provided for API completeness.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Probability of rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n`.
    pub fn pmf(&self, k: usize) -> f64 {
        assert!(k < self.cdf.len(), "rank out of range");
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeded_rng;
    use crate::stats::{mean, std_dev};

    #[test]
    fn normal_moments() {
        let n = Normal::new(100.0, 15.0);
        let mut rng = seeded_rng(3);
        let xs: Vec<f64> = (0..50_000).map(|_| n.sample(&mut rng)).collect();
        let (m, sd) = (mean(&xs), std_dev(&xs));
        assert!((m - 100.0).abs() < 0.5, "mean {m}");
        assert!((sd - 15.0).abs() < 0.5, "sd {sd}");
    }

    #[test]
    fn normal_from_cov() {
        let n = Normal::from_cov(1e7, 0.15);
        assert_eq!(n.mean(), 1e7);
        assert_eq!(n.sd(), 1.5e6);
    }

    #[test]
    fn normal_clamp_floor() {
        let n = Normal::new(0.0, 1.0);
        let mut rng = seeded_rng(4);
        for _ in 0..1000 {
            assert!(n.sample_clamped(&mut rng, 0.5) >= 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn normal_rejects_negative_sd() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_match_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = seeded_rng(5);
        let mut counts = [0usize; 20];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for k in 0..20 {
            let emp = counts[k] as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: empirical {emp} vs pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        Zipf::new(0, 1.0);
    }
}
