//! The Fig. 9 Monte-Carlo: `failure_surface` for ECP-6, SAFER-32 and
//! Aegis 17×31 over the paper's windows.

use crate::clock::{fnv64, now, secs_since};
use crate::report::Report;
use pcm_core::registry::{shared_aegis_17x31, shared_ecp, shared_safer32};
use pcm_ecc::montecarlo::{failure_surface, FailureSurface};
use pcm_ecc::{failure_probability, HardErrorScheme, MonteCarlo};
use pcm_util::fault::FaultMap;
use pcm_util::{child_seed, Line512, Pool};
use std::sync::atomic::{AtomicU64, Ordering};

/// Window sizes swept (bytes).
pub const WINDOWS: [usize; 3] = [16, 32, 64];

/// Pool width of every sweep.
pub const THREADS: usize = 2;

/// Injections per point of the full workload: two 1024-injection batches,
/// one per worker.
pub const FULL_INJECTIONS: usize = 2_048;

/// Injections per point of the short sweep in other workloads' traced runs.
pub const PROBE_INJECTIONS: usize = 512;

/// Error counts swept: 0..=128 in steps of 4 (`pcm-lab`'s full grid).
pub fn errors() -> Vec<usize> {
    (0..=128).step_by(4).collect()
}

/// The three schemes, through the registry's shared instances, with the
/// short names the metrics use.
pub fn schemes() -> [(&'static str, &'static dyn HardErrorScheme); 3] {
    [
        ("ecp6", shared_ecp(6)),
        ("safer32", shared_safer32()),
        ("aegis", shared_aegis_17x31()),
    ]
}

/// Monte-Carlo settings for one sweep.
pub fn config(injections: usize, seed: u64) -> MonteCarlo {
    MonteCarlo {
        injections,
        seed,
        threads: THREADS,
    }
}

/// The untraced unit of work: one surface per scheme.
pub fn sweep(mc: &MonteCarlo) -> Vec<FailureSurface> {
    let errors = errors();
    schemes()
        .iter()
        .map(|&(_, s)| failure_surface(s, &WINDOWS, &errors, mc))
        .collect()
}

/// Fault injections one sweep performs.
pub fn injections_per_sweep(mc: &MonteCarlo) -> f64 {
    (schemes().len() * WINDOWS.len() * errors().len() * mc.injections) as f64
}

/// Stable digest of a set of surfaces.
pub fn digest(surfaces: &[FailureSurface]) -> u64 {
    fnv64(format!("{surfaces:?}").as_bytes())
}

/// Fewest faults whose failure probability reaches one half in a
/// `window`-byte window (the paper's §III-A.4 spot check).
pub fn faults_at_half(surface: &FailureSurface, window: usize) -> Option<usize> {
    let w = surface.windows.iter().position(|&x| x == window)?;
    let row = &surface.probabilities[w];
    row.iter()
        .position(|&p| p >= 0.5)
        .map(|i| surface.errors[i])
}

/// A forwarding [`HardErrorScheme`] that counts and times `can_store`.
pub struct Counted<'a> {
    inner: &'a dyn HardErrorScheme,
    calls: AtomicU64,
    stores: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> Counted<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn HardErrorScheme) -> Self {
        Counted {
            inner,
            calls: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// `(calls, calls that could store, nanoseconds inside can_store)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        // Statistics only: the counters publish no other data.
        (
            self.calls.load(Ordering::Relaxed),
            self.stores.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
        )
    }
}

impl HardErrorScheme for Counted<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn guaranteed(&self) -> u32 {
        self.inner.guaranteed()
    }

    fn metadata_bits(&self) -> u32 {
        self.inner.metadata_bits()
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        let t = now();
        let ok = self.inner.can_store(fault_positions);
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.stores.fetch_add(u64::from(ok), Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        ok
    }

    fn transform_bits(&self) -> u32 {
        self.inner.transform_bits()
    }

    fn encode_payload(
        &self,
        target: &Line512,
        stored: &Line512,
        window_mask: &Line512,
        faults: &FaultMap,
    ) -> (Line512, u16) {
        self.inner
            .encode_payload(target, stored, window_mask, faults)
    }

    fn decode_payload(&self, corrected: &Line512, tag: u16) -> Line512 {
        self.inner.decode_payload(corrected, tag)
    }
}

/// The traced Monte-Carlo layers: one sweep through [`Counted`] wrappers,
/// checked point for point against `reference` (the unwrapped sweep of the
/// same settings), recording `ecc.*` and `mc.*`. Returns the traced wall
/// seconds.
pub fn traced(mc: &MonteCarlo, reference: &[FailureSurface], report: &mut Report) -> f64 {
    let errors = errors();
    let mut wall = 0.0;
    for (i, &(name, scheme)) in schemes().iter().enumerate() {
        let counted = Counted::new(scheme);
        let t = now();
        let surface = failure_surface(&counted, &WINDOWS, &errors, mc);
        let secs = secs_since(t);
        wall += secs;
        check_surface(&surface, &reference[i], "wrapped", report);
        let (calls, stores, nanos) = counted.totals();
        report.metric(format!("ecc.{name}.calls"), calls as f64, "count");
        report.metric(
            format!("ecc.{name}.ns_per_call"),
            nanos as f64 / calls.max(1) as f64,
            "ns",
        );
        report.metric(
            format!("ecc.{name}.store_frac"),
            stores as f64 / calls.max(1) as f64,
            "frac",
        );
        report.metric(format!("mc.{name}.s"), secs, "s");
        let half = faults_at_half(&surface, 32).map_or(0.0, |f| f as f64);
        report.metric(format!("mc.{name}.faults_at_half_32B"), half, "faults");
    }
    wall
}

/// The sweep rebuilt on the benchmark's own pool — one job per
/// `(scheme, window, errors)` point, each a single-threaded
/// `failure_probability` — with every job timed for the `pool.*` metrics.
/// Checked against `reference`; the Monte-Carlo is thread-count invariant.
pub fn pooled(mc: &MonteCarlo, reference: &[FailureSurface], report: &mut Report) {
    let errors = errors();
    let schemes = schemes();
    let per_scheme = WINDOWS.len() * errors.len();
    let serial = MonteCarlo { threads: 1, ..*mc };
    let pool = Pool::new(THREADS);
    let start = now();
    let points: Vec<(f64, f64)> = pool.map_indexed(schemes.len() * per_scheme, 1, |j| {
        let (s, rest) = (j / per_scheme, j % per_scheme);
        let (w, e) = (rest / errors.len(), rest % errors.len());
        let t = now();
        let p = failure_probability(schemes[s].1, WINDOWS[w], errors[e], &serial);
        (p, secs_since(t))
    });
    let capacity = secs_since(start) * THREADS as f64;
    let busy: f64 = points.iter().map(|p| p.1).sum();
    report.metric("pool.busy_s", busy, "s");
    report.metric("pool.idle_frac", 1.0 - busy / capacity, "frac");
    report.metric("pool.jobs", points.len() as f64, "count");
    for (s, surface) in reference.iter().enumerate() {
        let rebuilt = FailureSurface {
            scheme: surface.scheme.clone(),
            windows: WINDOWS.to_vec(),
            errors: errors.clone(),
            probabilities: (0..WINDOWS.len())
                .map(|w| {
                    (0..errors.len())
                        .map(|e| points[s * per_scheme + w * errors.len() + e].0)
                        .collect()
                })
                .collect(),
        };
        check_surface(&rebuilt, surface, "pooled", report);
    }
}

/// Counts every point of `got` against `want`.
pub fn check_surface(got: &FailureSurface, want: &FailureSurface, what: &str, report: &mut Report) {
    let points = (want.windows.len() * want.errors.len()) as u64;
    let same_shape = got.scheme == want.scheme
        && got.windows == want.windows
        && got.errors == want.errors
        && got.probabilities.len() == want.probabilities.len();
    let differing = if same_shape {
        got.probabilities
            .iter()
            .flatten()
            .zip(want.probabilities.iter().flatten())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count() as u64
    } else {
        points
    };
    report.tally(points, differing, || {
        format!(
            "{what} {} surface differs from the unwrapped one",
            want.scheme
        )
    });
}

/// The Monte-Carlo seed of a run: every sweep repetition in a run
/// repeats the same inputs, which only move between runs.
pub fn sweep_seed(seed: u64) -> u64 {
    child_seed(seed, 0xF169)
}
