//! Host-time measurement and the small statistics the report needs.
//!
//! Every wall-clock read of the benchmark goes through [`now`], so the one
//! `wallclock` allowance lives here.

use std::time::{Duration, Instant};

/// The benchmark's only clock.
pub fn now() -> Instant {
    // pcm-audit: allow(wallclock) — the benchmark measures host time; no simulated result depends on it
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted values; 0 when
/// empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of unsorted values; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Durations kept as whole nanoseconds (`u32`, saturating at ~4 s), so a
/// run's millions of per-request samples stay small.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u32>);

impl Samples {
    /// Adds one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.0.iter().map(|&n| f64::from(n)).sum()
    }

    /// Nearest-rank percentile in nanoseconds; 0 when empty.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        self.percentile_ns_since(0, q)
    }

    /// [`percentile_ns`](Self::percentile_ns) of the samples from index
    /// `start` on.
    pub fn percentile_ns_since(&self, start: usize, q: f64) -> f64 {
        let Some(tail) = self.0.get(start..).filter(|t| !t.is_empty()) else {
            return 0.0;
        };
        let mut v = tail.to_vec();
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        let (_, nth, _) = v.select_nth_unstable(rank - 1);
        f64::from(*nth)
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB: the benchmark itself
/// when `pid` is `None`.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// FNV-1a over bytes: a stable digest for pinning simulated results.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
