//! Thread-count invariance: every parallel estimator must produce
//! bit-identical results for any worker count at a fixed seed, because
//! work is seeded by item/chunk index, never by worker id (DESIGN.md
//! "Verification"). A drift here silently destroys reproducibility of
//! every published number.

use collab_pcm::core::lifetime::{run_campaign, run_campaign_on, CampaignConfig, LineSimConfig};
use collab_pcm::core::{SystemConfig, SystemKind};
use collab_pcm::ecc::montecarlo::failure_surface;
use collab_pcm::ecc::{failure_probability, Aegis, Ecp, MonteCarlo, Safer};
use collab_pcm::trace::SpecApp;
use collab_pcm::util::{child_seed, Pool};

/// A deterministic spin whose cost varies by orders of magnitude with the
/// job index — the static-striping worst case the work-stealing pool must
/// absorb without changing any result.
fn skewed_job(i: usize) -> u64 {
    let rounds = if i % 5 == 0 { 50_000 } else { 500 };
    let mut acc = child_seed(0xDEAD_BEEF, i as u64);
    for _ in 0..rounds {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    acc
}

#[test]
fn campaign_is_bit_identical_across_thread_counts() {
    for kind in [SystemKind::Baseline, SystemKind::CompWF] {
        let system = SystemConfig::new(kind).with_endurance_mean(300.0);
        let mut line = LineSimConfig::new(system, SpecApp::Milc.profile());
        line.sample_writes = 16;
        let results: Vec<_> = [1usize, 2, 0]
            .into_iter()
            .map(|threads| {
                let mut cfg = CampaignConfig::new(line.clone(), 4242);
                cfg.lines = 24;
                cfg.threads = threads;
                run_campaign(&cfg)
            })
            .collect();
        assert_eq!(results[0], results[1], "{kind}: 1 thread vs 2 threads");
        assert_eq!(
            results[0], results[2],
            "{kind}: 1 thread vs available parallelism"
        );
    }
}

#[test]
fn monte_carlo_is_bit_identical_across_thread_counts() {
    // Spans multiple chunks (CHUNK = 1024) so the work-stealing path with
    // interleaved chunk claims is actually exercised.
    let schemes: [(&str, &dyn collab_pcm::ecc::HardErrorScheme); 3] = [
        ("ecp6", &Ecp::new(6)),
        ("safer32", &Safer::new(32)),
        ("aegis", &Aegis::new(17, 31)),
    ];
    for (name, scheme) in schemes {
        let p: Vec<f64> = [1usize, 2, 0]
            .into_iter()
            .map(|threads| {
                let mc = MonteCarlo {
                    injections: 5_000,
                    seed: 0xC0FFEE,
                    threads,
                };
                failure_probability(scheme, 48, 9, &mc)
            })
            .collect();
        assert!(
            p[0].to_bits() == p[1].to_bits() && p[0].to_bits() == p[2].to_bits(),
            "{name}: thread counts disagree: {p:?}"
        );
        // A surface's jobs are (error count, batch) pairs that score every
        // window on one draw; 3 threads split its 15 jobs unevenly.
        let surfaces: Vec<Vec<u64>> = [1usize, 2, 3, 0]
            .into_iter()
            .map(|threads| {
                let mc = MonteCarlo {
                    injections: 5_000,
                    seed: 0xC0FFEE,
                    threads,
                };
                failure_surface(scheme, &[8, 32, 64], &[0, 9, 40], &mc)
                    .probabilities
                    .iter()
                    .flatten()
                    .map(|q| q.to_bits())
                    .collect()
            })
            .collect();
        for (i, threads) in [2usize, 3, 0].into_iter().enumerate() {
            assert_eq!(
                surfaces[0],
                surfaces[i + 1],
                "{name}: surface at 1 thread vs {threads}"
            );
        }
    }
}

#[test]
fn campaign_thread_invariance_holds_when_lines_exceed_threads_unevenly() {
    // 7 lines over 2 threads: uneven striding, a classic seed-by-worker
    // regression trigger.
    let system = SystemConfig::new(SystemKind::Comp).with_endurance_mean(250.0);
    let mut line = LineSimConfig::new(system, SpecApp::Gcc.profile());
    line.sample_writes = 16;
    let run = |threads: usize| {
        let mut cfg = CampaignConfig::new(line.clone(), 77);
        cfg.lines = 7;
        cfg.threads = threads;
        run_campaign(&cfg)
    };
    let base = run(1);
    for threads in [2, 3, 0] {
        assert_eq!(base, run(threads), "threads={threads}");
    }
}

#[test]
fn pool_map_is_bit_identical_across_worker_counts_under_skewed_costs() {
    // 33 jobs, chunk size 1 and 3, every 5th job ~100× the cost of its
    // neighbours: whichever worker absorbs the heavy tail, the collected
    // vector must be identical byte for byte.
    for chunk in [1usize, 3] {
        let run = |workers: usize| Pool::new(workers).map_indexed(33, chunk, skewed_job);
        let base = run(1);
        for workers in [2, 4, 7] {
            assert_eq!(base, run(workers), "workers={workers} chunk={chunk}");
        }
    }
}

#[test]
fn campaign_stats_are_byte_identical_for_any_pool_width() {
    // The pool-aware entry point (`run_campaign_on`) with explicit pools of
    // every width, not just the config-resolved path.
    let system = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(300.0);
    let mut line = LineSimConfig::new(system, SpecApp::Milc.profile());
    line.sample_writes = 16;
    let mut cfg = CampaignConfig::new(line, 4242);
    cfg.lines = 23; // prime: never divides evenly over the worker counts
    let base = run_campaign_on(&Pool::new(1), &cfg);
    for workers in [2, 4, 7] {
        assert_eq!(
            base,
            run_campaign_on(&Pool::new(workers), &cfg),
            "workers={workers}"
        );
    }
}

#[test]
fn run_ordered_streams_in_submission_order_under_skewed_costs() {
    // `pcm-lab run-all` consumes reports through `run_ordered`; its output
    // ordering (and therefore the on-disk result files) must match the
    // registry order for every `--jobs` value even when early jobs finish
    // last.
    for workers in [1usize, 2, 4, 7] {
        let mut seen = Vec::new();
        Pool::new(workers).run_ordered(19, skewed_job, |i, v| seen.push((i, v)));
        let want: Vec<(usize, u64)> = (0..19).map(|i| (i, skewed_job(i))).collect();
        assert_eq!(seen, want, "workers={workers}");
    }
}
