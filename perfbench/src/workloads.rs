//! The four workloads, each untraced (end-to-end metrics) or traced
//! (per-layer metrics).
//!
//! A traced run reports every layer. Layers its workload does not
//! exercise are measured by a short probe on inputs from the same seed:
//! a small campaign, a 512-injection sweep, or four rounds over the socket.

use crate::clock::{median, now, peak_rss_mib, secs_since};
use crate::report::Report;
use crate::serve::{EngineTrace, Twin};
use crate::{layers, lifetime, mc, serve};
use pcm_core::registry::ecc_scheme;
use pcm_core::EccChoice;
use pcm_ecc::{Aegis, Ecp, HardErrorScheme, Safer};
use pcm_trace::profile::ALL_APPS;
use pcm_trace::SpecApp;
use pcm_util::Pool;
use std::hint::black_box;
use std::io;
use std::path::PathBuf;

/// Workload names: `BENCHMARK.json`'s three, then `serve-mixed`, which it
/// leaves out because socket round trips on a shared VM are too unsteady
/// for its bounds (see `NOTES.md`).
pub const WORKLOADS: [&str; 4] = ["lifetime-ecp", "lifetime-aegis", "fig09-mc", "serve-mixed"];

/// Seed whose simulated results are pinned below.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of the untraced results at [`DEFAULT_SEED`]; a change that is
/// meant only to be faster must not move them.
const PINS: [(&str, u64); 3] = [
    ("lifetime-ecp", 0xa11b_4446_fe19_b94b),
    ("lifetime-aegis", 0xb842_e893_ae34_3111),
    ("fig09-mc", 0x37e9_0d0f_e436_8538),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// Set-up repetitions of `serve-mixed`, each of which starts a daemon.
const SERVE_SETUP_REPS: usize = 5;

/// `lifetime-ecp` apps: BEST ratios 0.27, 0.54, 0.73 and 0.08.
const ECP_APPS: [SpecApp; 4] = [SpecApp::Milc, SpecApp::Gcc, SpecApp::Lbm, SpecApp::Zeusmp];

/// A lifetime workload: Comp+WF with one ECC scheme over some apps.
struct Campaigns {
    ecc: EccChoice,
    apps: &'static [SpecApp],
    scale: lifetime::Scale,
}

/// 512 lines per campaign: how much simulated work a line takes depends on
/// its seed (early deaths skip their dead residencies), and eight batches
/// let the two workers even out a slow CPU; 128 lines left a run-to-run
/// spread of ~20 % across seeds.
const LIFETIME_ECP: Campaigns = Campaigns {
    ecc: EccChoice::Ecp6,
    apps: &ECP_APPS,
    scale: lifetime::Scale {
        lines: 512,
        ..lifetime::FULL
    },
};

/// The costliest column of `ablation_ecc`; one 128-line campaign already
/// takes ~13 s.
const LIFETIME_AEGIS: Campaigns = Campaigns {
    ecc: EccChoice::Aegis17x31,
    apps: &[SpecApp::Milc],
    scale: lifetime::FULL,
};

/// Command-line settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// The `pcm-serve` executable.
    pub serve_bin: PathBuf,
    /// Directory for the daemon's socket.
    pub run_dir: PathBuf,
}

/// Runs the selected workload into `report`.
///
/// # Errors
///
/// An unknown workload, or a failure to run the daemon.
pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    match (args.workload.as_str(), args.trace) {
        ("lifetime-ecp", false) => lifetime_untraced(args, &LIFETIME_ECP, report),
        ("lifetime-ecp", true) => lifetime_traced(args, &LIFETIME_ECP, report),
        ("lifetime-aegis", false) => lifetime_untraced(args, &LIFETIME_AEGIS, report),
        ("lifetime-aegis", true) => lifetime_traced(args, &LIFETIME_AEGIS, report),
        ("fig09-mc", false) => fig09_untraced(args, report),
        ("fig09-mc", true) => fig09_traced(args, report),
        ("serve-mixed", false) => serve_untraced(args, report),
        ("serve-mixed", true) => serve_traced(args, report),
        (other, _) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload '{other}' (one of {})",
                WORKLOADS.join(", ")
            ),
        )),
    }
}

/// Runs `f` `reps` times and returns the median time and the last value;
/// each earlier value is dropped before the next repetition starts.
fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> io::Result<T>) -> io::Result<(f64, T)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = now();
        let value = f()?;
        times.push(secs_since(t));
        last = Some(value);
    }
    Ok((
        median(&times),
        last.expect("at least one set-up repetition"),
    ))
}

/// Builds the schemes' tables afresh — what each process pays once, on
/// first use of the registry's `OnceLock` instances — and forces the
/// shared instances.
fn build_tables(eccs: &[EccChoice]) {
    for &ecc in eccs {
        let fresh: Box<dyn HardErrorScheme> = match ecc {
            EccChoice::Safer32 => Box::new(Safer::new(32)),
            EccChoice::Aegis17x31 => Box::new(Aegis::new(17, 31)),
            _ => Box::new(Ecp::new(6)),
        };
        black_box(fresh.metadata_bits());
        black_box(ecc_scheme(ecc).name());
    }
}

fn check_pin(args: &Args, digest: u64, report: &mut Report) {
    eprintln!("perfbench: {} result digest {digest:016x}", args.workload);
    if args.seed != DEFAULT_SEED {
        return;
    }
    if let Some(&(_, pin)) = PINS.iter().find(|(w, _)| *w == args.workload) {
        report.check(digest == pin, || {
            format!("result digest {digest:016x} differs from the pinned {pin:016x}")
        });
    }
}

/// Repeats `unit` — which returns its result and the ops it performed —
/// until `seconds` have passed, then reports the end-to-end metrics with
/// the median unit's rate. The first result goes to `first`; every later
/// one must equal it.
fn repeat_units<T: PartialEq>(
    seconds: f64,
    setup_s: f64,
    mut unit: impl FnMut() -> (T, f64),
    first: impl FnOnce(&T, &mut Report),
    report: &mut Report,
) {
    let mut unit_s = Vec::new();
    let mut rates = Vec::new();
    let start = now();
    let t = now();
    let (reference, ops) = unit();
    unit_s.push(secs_since(t));
    rates.push(ops / unit_s[0]);
    first(&reference, report);
    while secs_since(start) < seconds {
        let t = now();
        let (result, ops) = unit();
        let secs = secs_since(t);
        unit_s.push(secs);
        rates.push(ops / secs);
        report.check(result == reference, || {
            "a repeated unit gave a different result".into()
        });
    }
    eprintln!("perfbench: units of {unit_s:.3?} s");
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", median(&rates), "1/s");
    report.metric("peak_rss_mb", peak_rss_mib(None).unwrap_or(0.0), "MiB");
}

fn lifetime_untraced(args: &Args, w: &Campaigns, report: &mut Report) -> io::Result<()> {
    let (setup_s, (cfgs, pool)) = timed_setup(SETUP_REPS, || {
        build_tables(&[w.ecc]);
        let cfgs = lifetime::campaigns(w.ecc, w.apps, args.seed, w.scale);
        Ok((cfgs, Pool::new(lifetime::THREADS)))
    })?;
    let unit = || {
        let results = lifetime::run_all(&pool, &cfgs);
        let ops = lifetime::horizon_writes(&results);
        (results, ops)
    };
    let first = |results: &Vec<_>, report: &mut Report| {
        for (r, c) in results.iter().zip(&cfgs) {
            report.check(lifetime::plausible(r, c), || {
                format!("implausible campaign result {r:?}")
            });
        }
        check_pin(args, lifetime::digest(results), report);
    };
    repeat_units(args.seconds, setup_s, unit, first, report);
    Ok(())
}

fn lifetime_traced(args: &Args, w: &Campaigns, report: &mut Report) -> io::Result<()> {
    build_tables(&[w.ecc]);
    let cfgs = lifetime::campaigns(w.ecc, w.apps, args.seed, w.scale);
    let pool = Pool::new(lifetime::THREADS);
    // Untraced before and after the traced rebuild; the faster of the two
    // is the reference time, so a cold first run does not read as
    // negative overhead.
    let t = now();
    let reference = lifetime::run_all(&pool, &cfgs);
    let mut plain = secs_since(t);
    check_pin(args, lifetime::digest(&reference), report);
    let traced = lifetime::traced(&pool, &cfgs, &reference, report);
    let t = now();
    let again = lifetime::run_all(&pool, &cfgs);
    plain = plain.min(secs_since(t));
    report.check(again == reference, || {
        "a repeated campaign gave a different result".into()
    });
    report.metric("tracing.overhead_frac", traced / plain - 1.0, "frac");
    layers::trace_and_compress(w.apps, args.seed, report);
    mc_probe(args.seed, report);
    serve_probe(args, report)
}

fn fig09_untraced(args: &Args, report: &mut Report) -> io::Result<()> {
    let (setup_s, cfg) = timed_setup(SETUP_REPS, || {
        build_tables(&[EccChoice::Ecp6, EccChoice::Safer32, EccChoice::Aegis17x31]);
        black_box(mc::errors());
        Ok(mc::config(mc::FULL_INJECTIONS, mc::sweep_seed(args.seed)))
    })?;
    let unit = || (mc::sweep(&cfg), mc::injections_per_sweep(&cfg));
    let first = |surfaces: &Vec<_>, report: &mut Report| {
        check_pin(args, mc::digest(surfaces), report);
    };
    repeat_units(args.seconds, setup_s, unit, first, report);
    Ok(())
}

fn fig09_traced(args: &Args, report: &mut Report) -> io::Result<()> {
    build_tables(&[EccChoice::Ecp6, EccChoice::Safer32, EccChoice::Aegis17x31]);
    let cfg = mc::config(mc::FULL_INJECTIONS, mc::sweep_seed(args.seed));
    // Untraced before and after the traced sweep, as for the campaigns.
    let t = now();
    let reference = mc::sweep(&cfg);
    let mut plain = secs_since(t);
    check_pin(args, mc::digest(&reference), report);
    let traced = mc::traced(&cfg, &reference, report);
    let t = now();
    let again = mc::sweep(&cfg);
    plain = plain.min(secs_since(t));
    for (got, want) in again.iter().zip(&reference) {
        mc::check_surface(got, want, "repeated", report);
    }
    report.metric("tracing.overhead_frac", traced / plain - 1.0, "frac");
    // The probe campaign records pool metrics too; the pooled sweep's,
    // recorded after it, are this workload's.
    lifetime_probe(args.seed, report);
    mc::pooled(&cfg, &reference, report);
    layers::trace_and_compress(&ECP_APPS, args.seed, report);
    serve_probe(args, report)
}

fn socket_path(args: &Args) -> io::Result<PathBuf> {
    std::fs::create_dir_all(&args.run_dir)?;
    Ok(args
        .run_dir
        .join(format!("serve-{}.sock", std::process::id())))
}

fn serve_untraced(args: &Args, report: &mut Report) -> io::Result<()> {
    let socket = socket_path(args)?;
    let (setup_s, setup) = timed_setup(SERVE_SETUP_REPS, || {
        serve::setup(&args.serve_bin, &socket, args.seed, None)
    })?;
    let drive = serve::drive(setup, args.seconds, usize::MAX, None, report)?;
    // Per-round percentiles, median over rounds: a host hiccup moves the
    // tail of the few rounds it hits, not the run's figure. The latencies
    // are reported on top of the benchmark's end-to-end metrics.
    report.metric("setup_s", setup_s, "s");
    report.metric("ops_per_s", median(&drive.round_rates), "1/s");
    report.metric("peak_rss_mb", drive.daemon_rss_mib, "MiB");
    report.metric("latency_p50_us", median(&drive.round_p50_us), "us");
    report.metric("latency_p99_us", median(&drive.round_p99_us), "us");
    eprintln!(
        "perfbench: {} requests in {} rounds of {}",
        drive.stats.responses,
        drive.round_rates.len(),
        serve::ROUND
    );
    Ok(())
}

fn serve_traced(args: &Args, report: &mut Report) -> io::Result<()> {
    // A quarter of the socket time: the twin replays every round twice
    // more, and per-call percentiles settle within a few rounds.
    let ratio = serve_layers(args, args.seconds / 4.0, usize::MAX, report)?;
    report.metric("tracing.overhead_frac", ratio - 1.0, "frac");
    layers::trace_and_compress(&ALL_APPS, args.seed, report);
    lifetime_probe(args.seed, report);
    mc_probe(args.seed, report);
    Ok(())
}

/// A socket run with the oracle timed and the twin fed; records the serve
/// layer metrics and returns the twin's traced/untraced time ratio.
fn serve_layers(
    args: &Args,
    seconds: f64,
    max_rounds: usize,
    report: &mut Report,
) -> io::Result<f64> {
    let socket = socket_path(args)?;
    let mut engine = EngineTrace::default();
    let mut twin = Twin::default();
    let setup = serve::setup(&args.serve_bin, &socket, args.seed, Some(&mut engine))?;
    let drive = serve::drive(
        setup,
        seconds,
        max_rounds,
        Some((&mut engine, &mut twin)),
        report,
    )?;
    serve::layer_metrics(&engine, &twin, &drive, report);
    Ok(twin.traced_s / twin.plain_s)
}

/// Four rounds over the socket, for workloads without serve traffic (one
/// round alone is dominated by cold caches).
fn serve_probe(args: &Args, report: &mut Report) -> io::Result<()> {
    serve_layers(args, f64::INFINITY, 4, report).map(|_| ())
}

/// A short Comp+WF/ECP-6 campaign on milc, rebuilt and traced.
fn lifetime_probe(seed: u64, report: &mut Report) {
    let cfgs = lifetime::campaigns(EccChoice::Ecp6, &[SpecApp::Milc], seed, lifetime::PROBE);
    let pool = Pool::new(lifetime::THREADS);
    let reference = lifetime::run_all(&pool, &cfgs);
    lifetime::traced(&pool, &cfgs, &reference, report);
}

/// A short sweep through the counting wrappers.
fn mc_probe(seed: u64, report: &mut Report) {
    let cfg = mc::config(mc::PROBE_INJECTIONS, mc::sweep_seed(seed));
    let reference = mc::sweep(&cfg);
    mc::traced(&cfg, &reference, report);
}
