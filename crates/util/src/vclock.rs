//! Seeded virtual-time arrival process for open-loop load generation.
//!
//! The serve daemon's traffic generator is open-loop: request arrival
//! times are drawn ahead of time in **virtual bus cycles**, never from a
//! wall clock (the `wallclock` audit rule bans `Instant::now` outside the
//! timing harness for exactly this reason). A fixed seed therefore fixes
//! the entire arrival schedule, so a replay run is byte-identical no
//! matter how fast the host executes it — the reproducibility contract
//! `tests/serve_replay.rs` pins.
//!
//! Inter-arrival gaps are exponential (a Poisson arrival process), the
//! standard open-loop model: the generator never waits for completions, so
//! queueing delay shows up in the virtual-time latency percentiles instead
//! of silently throttling offered load.

use crate::seeded_rng;
use rand::{rngs::StdRng, RngExt};

/// A monotonically increasing virtual clock driven by an exponential
/// inter-arrival process.
///
/// # Examples
///
/// ```
/// use pcm_util::vclock::ArrivalStream;
///
/// let mut a = ArrivalStream::new(7, 100.0);
/// let t0 = a.next_arrival();
/// let t1 = a.next_arrival();
/// assert!(t1 > t0, "virtual time is strictly monotone");
/// // Same seed, same schedule:
/// let mut b = ArrivalStream::new(7, 100.0);
/// assert_eq!(b.next_arrival(), t0);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    rng: StdRng,
    mean_gap_cycles: f64,
    now: u64,
}

impl ArrivalStream {
    /// Creates an arrival stream with the given seed and mean inter-arrival
    /// gap in bus cycles. The first arrival lands one gap after cycle 0.
    ///
    /// # Panics
    ///
    /// Panics unless `mean_gap_cycles` is finite and positive.
    pub fn new(seed: u64, mean_gap_cycles: f64) -> Self {
        assert!(
            mean_gap_cycles.is_finite() && mean_gap_cycles > 0.0,
            "mean inter-arrival gap must be positive"
        );
        ArrivalStream {
            rng: seeded_rng(seed),
            mean_gap_cycles,
            now: 0,
        }
    }

    /// The current virtual time (cycle of the last arrival; 0 before any).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The configured mean inter-arrival gap in cycles.
    pub fn mean_gap_cycles(&self) -> f64 {
        self.mean_gap_cycles
    }

    /// Advances the clock by one exponential gap and returns the new
    /// arrival's cycle. Gaps are rounded to whole cycles but never to zero,
    /// so virtual time is strictly monotone (ties would make replay order
    /// ambiguous).
    pub fn next_arrival(&mut self) -> u64 {
        let gap = self.sample_gap();
        self.now += gap;
        self.now
    }

    fn sample_gap(&mut self) -> u64 {
        // Inverse-CDF exponential; 1 - u keeps the argument in (0, 1] so
        // ln never sees zero.
        let u: f64 = 1.0 - self.rng.random::<f64>();
        let gap = -self.mean_gap_cycles * u.ln();
        (gap.round() as u64).max(1)
    }

    /// Draws an independent value from the stream's RNG (tenant selection,
    /// payload choice). Folded into the same RNG so one seed fixes the
    /// whole schedule: arrival times *and* everything scheduled at them.
    pub fn draw<T: rand::Random>(&mut self) -> T {
        self.rng.random()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let mut a = ArrivalStream::new(42, 250.0);
        let mut b = ArrivalStream::new(42, 250.0);
        let sa: Vec<u64> = (0..1000).map(|_| a.next_arrival()).collect();
        let sb: Vec<u64> = (0..1000).map(|_| b.next_arrival()).collect();
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ArrivalStream::new(1, 250.0);
        let mut b = ArrivalStream::new(2, 250.0);
        let sa: Vec<u64> = (0..32).map(|_| a.next_arrival()).collect();
        let sb: Vec<u64> = (0..32).map(|_| b.next_arrival()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn time_is_strictly_monotone() {
        let mut a = ArrivalStream::new(9, 1.0); // heavy rounding pressure
        let mut prev = a.now();
        for _ in 0..10_000 {
            let t = a.next_arrival();
            assert!(t > prev, "arrivals must be strictly increasing");
            prev = t;
        }
    }

    #[test]
    fn empirical_mean_gap_tracks_parameter() {
        let mean = 400.0;
        let n = 50_000u64;
        let mut a = ArrivalStream::new(77, mean);
        for _ in 0..n {
            a.next_arrival();
        }
        let empirical = a.now() as f64 / n as f64;
        let err = (empirical - mean).abs() / mean;
        assert!(
            err < 0.02,
            "empirical mean gap {empirical:.1} vs parameter {mean} (err {err:.3})"
        );
    }

    #[test]
    fn draws_share_the_seeded_stream() {
        let mut a = ArrivalStream::new(5, 100.0);
        let mut b = ArrivalStream::new(5, 100.0);
        for _ in 0..100 {
            assert_eq!(a.next_arrival(), b.next_arrival());
            assert_eq!(a.draw::<u64>(), b.draw::<u64>());
        }
    }
}
