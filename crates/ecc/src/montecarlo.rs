//! Monte-Carlo fault injection (paper Fig. 9).
//!
//! The experiment: inject `k` stuck-at faults uniformly over a 512-bit
//! block (modelling perfect intra-line wear-leveling), then ask whether a
//! compressed payload of `W` bytes can still be stored somewhere in the
//! block — i.e. whether any byte-aligned window of `W` bytes contains a
//! fault subset the hard-error scheme can mask. Repeating 100 000 times per
//! `(scheme, W, k)` point yields the failure probability
//! (`1 − reliability`) curves of Fig. 9.
//!
//! A sweep draws each injection's fault set once and asks every window
//! size about it, narrowest first, stopping at the first size with no
//! fit: every wider size fails on that fault set too. A `W′`-byte window
//! at offset `o` holds the `W`-byte window at `o` for `W < W′`, and its
//! offsets `0..=64 − W′` are a subset of the narrower size's
//! `0..=64 − W`, so if no `W`-byte window fits, subset closure of
//! [`HardErrorScheme::can_store`] leaves no `W′`-byte window that does.
//! For the same reason a wider size never fits before a narrower one's
//! first fit, so its search starts there.

use crate::scheme::{find_window_from, HardErrorScheme};
use pcm_util::{child_seed, seeded_rng, Line512, Pool, DATA_BITS, DATA_BYTES};
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Configuration of a Monte-Carlo campaign.
///
/// # Examples
///
/// ```
/// use pcm_ecc::{failure_probability, Ecp, MonteCarlo};
///
/// let mc = MonteCarlo { injections: 2_000, seed: 7, threads: 1 };
/// // Six faults never defeat ECP-6, whatever the window.
/// assert_eq!(failure_probability(&Ecp::new(6), 64, 6, &mc), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonteCarlo {
    /// Number of fault injections per data point (paper: 100 000).
    pub injections: usize,
    /// Seed for reproducible campaigns.
    pub seed: u64,
    /// Worker threads; 0 selects the available parallelism.
    pub threads: usize,
}

impl Default for MonteCarlo {
    fn default() -> Self {
        MonteCarlo {
            injections: 100_000,
            seed: 0x5EED_CA51,
            threads: 0,
        }
    }
}

/// Samples `k` distinct fault positions in `0..512` (partial Fisher–Yates)
/// and lists them ascending into `out`, returning the filled prefix. The
/// draws are marked in a 512-bit mask, whose set bits list in order
/// without a sort.
// pcm-audit: root(hotpath-alloc) — per-injection fault draw of the Fig. 9 Monte-Carlo; both buffers are caller-owned per-worker scratch
fn sample_positions<'a, R: rand::Rng>(
    rng: &mut R,
    k: usize,
    scratch: &mut [u16; DATA_BITS],
    out: &'a mut [u16; DATA_BITS],
) -> &'a [u16] {
    debug_assert!(k <= DATA_BITS);
    for (i, s) in scratch.iter_mut().enumerate() {
        *s = i as u16;
    }
    let mut drawn = Line512::zero();
    for i in 0..k {
        let j = rng.random_range(i..DATA_BITS);
        scratch.swap(i, j);
        drawn.set_bit(usize::from(scratch[i]), true);
    }
    drawn.ones_into(out)
}

/// Estimates the probability that a block with `errors` uniformly-placed
/// faults **cannot** store a `window_bytes`-byte payload under `scheme`.
///
/// This regenerates one point of the paper's Fig. 9: the one-point
/// [`failure_surface`].
///
/// # Panics
///
/// Panics if `window_bytes` is outside `1..=64`, `errors > 512`, or
/// `injections == 0`.
pub fn failure_probability(
    scheme: &dyn HardErrorScheme,
    window_bytes: usize,
    errors: usize,
    mc: &MonteCarlo,
) -> f64 {
    failure_surface(scheme, &[window_bytes], &[errors], mc).probabilities[0][0]
}

/// Injections per batch, the unit of work a pool worker claims.
const BATCH: usize = 1_024;

/// A full Fig. 9 sweep for one scheme: failure probability for every
/// `(window, errors)` combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureSurface {
    /// Scheme name.
    pub scheme: String,
    /// Window sizes swept (bytes).
    pub windows: Vec<usize>,
    /// Error counts swept.
    pub errors: Vec<usize>,
    /// `probabilities[w][e]` for window `windows[w]`, errors `errors[e]`.
    pub probabilities: Vec<Vec<f64>>,
}

/// Sweeps failure probability over windows × error counts (Fig. 9 panel).
///
/// The pool's job list is (error count, batch of injections), one list
/// for the whole surface, so the workers start once per call and never
/// wait for each other between points. A job draws each injection's
/// fault set once and scores every window size on it, narrowest first,
/// each search starting at the previous size's first fit; the first size
/// with no fit ends the injection, and every wider size counts it as
/// failed (module docs: a wider size's offsets are a subset of a
/// narrower one's). Windows may come in any order and repeat.
///
/// A batch is seeded by its index within the error count,
/// `child_seed(seed, batch)`, never by window, worker id or claim order.
/// So every window sees the fault sets a run of its own point would
/// draw, and every estimate is bit-identical to that run and for any
/// thread count (u64 failure counts sum in any order). The shuffle
/// scratch and the listed positions are per-worker scratch, reused
/// across every batch a worker claims.
///
/// # Panics
///
/// As [`failure_probability`], for any window or error count.
pub fn failure_surface(
    scheme: &dyn HardErrorScheme,
    windows: &[usize],
    errors: &[usize],
    mc: &MonteCarlo,
) -> FailureSurface {
    for &window_bytes in windows {
        assert!(
            (1..=DATA_BYTES).contains(&window_bytes),
            "window must be 1..=64 bytes, got {window_bytes}"
        );
    }
    assert!(
        errors.iter().all(|&e| e <= DATA_BITS),
        "at most 512 faults fit a line"
    );
    assert!(mc.injections > 0, "need at least one injection");

    let mut widths = windows.to_vec();
    widths.sort_unstable();
    widths.dedup();
    let batches = mc.injections.div_ceil(BATCH);
    // Per job, per width: the injections whose narrowest window with no
    // fit was that width.
    let first_misses: Vec<Vec<u64>> = Pool::new(mc.threads).map_indexed_with(
        errors.len() * batches,
        1,
        || ([0u16; DATA_BITS], [0u16; DATA_BITS]),
        |(scratch, listed), j| {
            let (k, c) = (errors[j / batches], j % batches);
            let lo = c * BATCH;
            let hi = (lo + BATCH).min(mc.injections);
            let mut rng = seeded_rng(child_seed(mc.seed, c as u64));
            let mut first_miss = vec![0u64; widths.len()];
            for _ in lo..hi {
                let faults = sample_positions(&mut rng, k, scratch, listed);
                let mut from = 0;
                for (w, &width) in widths.iter().enumerate() {
                    match find_window_from(scheme, faults, width, from) {
                        Some(offset) => from = offset,
                        None => {
                            first_miss[w] += 1;
                            break;
                        }
                    }
                }
            }
            first_miss
        },
    );
    // failures[e][w]: injections at errors[e] with no window of widths[w],
    // i.e. whose first miss was at widths[w] or narrower.
    let failures: Vec<Vec<u64>> = first_misses
        .chunks(batches)
        .map(|jobs| {
            let mut failed = 0;
            (0..widths.len())
                .map(|w| {
                    failed += jobs.iter().map(|job| job[w]).sum::<u64>();
                    failed
                })
                .collect()
        })
        .collect();
    let probabilities = windows
        .iter()
        .map(|&window_bytes| {
            let w = widths.partition_point(|&width| width < window_bytes);
            failures
                .iter()
                .map(|point| point[w] as f64 / mc.injections as f64)
                .collect()
        })
        .collect();
    FailureSurface {
        scheme: scheme.name().to_string(),
        windows: windows.to_vec(),
        errors: errors.to_vec(),
        probabilities,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_window, Aegis, Coset, Ecp, Safer, Secded};

    fn quick_mc() -> MonteCarlo {
        MonteCarlo {
            injections: 3_000,
            seed: 99,
            threads: 2,
        }
    }

    #[test]
    fn ecp6_full_window_steps_at_seven() {
        let ecp = Ecp::new(6);
        let mc = quick_mc();
        assert_eq!(failure_probability(&ecp, 64, 6, &mc), 0.0);
        assert_eq!(failure_probability(&ecp, 64, 7, &mc), 1.0);
    }

    #[test]
    fn smaller_windows_tolerate_more_errors() {
        let ecp = Ecp::new(6);
        let mc = quick_mc();
        // 12 faults kill a full-line write outright but a sliding 16-byte
        // window almost always dodges them.
        assert_eq!(failure_probability(&ecp, 64, 12, &mc), 1.0);
        assert!(failure_probability(&ecp, 16, 12, &mc) < 0.05);
        // At 100 faults the 16-byte window saturates (≈25 faults per
        // window) while a 1-byte window still finds healthy cells.
        let p16 = failure_probability(&ecp, 16, 100, &mc);
        let p1 = failure_probability(&ecp, 1, 100, &mc);
        assert!(p16 > 0.9, "16B window at 100 faults should fail, got {p16}");
        assert!(
            p1 < 0.05,
            "1B window at 100 faults should survive, got {p1}"
        );
    }

    #[test]
    fn safer_and_aegis_beat_ecp_at_full_window() {
        let mc = quick_mc();
        let at = |s: &dyn HardErrorScheme, e| failure_probability(s, 64, e, &mc);
        let (ecp, safer, aegis) = (Ecp::new(6), Safer::new(32), Aegis::new(17, 31));
        // At 10 errors ECP-6 always fails, partition schemes usually don't.
        assert_eq!(at(&ecp, 10), 1.0);
        assert!(
            at(&safer, 10) < 0.8,
            "SAFER should often separate 10 faults"
        );
        assert!(
            at(&aegis, 10) < 0.6,
            "Aegis should usually separate 10 faults"
        );
    }

    #[test]
    fn monotone_in_errors() {
        let safer = Safer::new(32);
        let mc = MonteCarlo {
            injections: 1_500,
            seed: 5,
            threads: 2,
        };
        let mut last = 0.0;
        for errors in [4usize, 12, 20, 28, 36] {
            let p = failure_probability(&safer, 32, errors, &mc);
            assert!(
                p + 0.05 >= last,
                "failure probability should not drop: {p} after {last}"
            );
            last = p;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ecp = Ecp::new(6);
        let mc = MonteCarlo {
            injections: 2_000,
            seed: 123,
            threads: 2,
        };
        let a = failure_probability(&ecp, 24, 10, &mc);
        let b = failure_probability(&ecp, 24, 10, &mc);
        assert_eq!(a, b);
    }

    #[test]
    fn surface_shape() {
        let ecp = Ecp::new(6);
        let mc = MonteCarlo {
            injections: 500,
            seed: 1,
            threads: 1,
        };
        let surf = failure_surface(&ecp, &[16, 64], &[2, 8, 16], &mc);
        assert_eq!(surf.probabilities.len(), 2);
        assert_eq!(surf.probabilities[0].len(), 3);
        assert_eq!(surf.scheme, "ECP-6");
    }

    #[test]
    fn surface_matches_serial_per_point_reference() {
        // The shared draw, the fit-offset start and the narrow-first stop
        // must give every point the estimate a serial loop over that
        // point's own batches gives, whatever the window order; 2 100
        // injections leave a short last batch, and a repeated window or
        // error count is just another row or column.
        let aegis = Aegis::new(17, 31);
        let mc = MonteCarlo {
            injections: 2_100,
            seed: 31,
            threads: 2,
        };
        let (windows, errors) = ([64usize, 8, 32, 8], [0usize, 6, 20, 6, 44]);
        let surf = failure_surface(&aegis, &windows, &errors, &mc);
        let mut scratch = [0u16; DATA_BITS];
        let mut listed = [0u16; DATA_BITS];
        for (w, &window) in windows.iter().enumerate() {
            for (e, &k) in errors.iter().enumerate() {
                let mut fail = 0u64;
                for c in 0..mc.injections.div_ceil(BATCH) {
                    let mut rng = seeded_rng(child_seed(mc.seed, c as u64));
                    for _ in c * BATCH..((c + 1) * BATCH).min(mc.injections) {
                        let faults = sample_positions(&mut rng, k, &mut scratch, &mut listed);
                        fail += u64::from(find_window(&aegis, faults, window).is_none());
                    }
                }
                let want = fail as f64 / mc.injections as f64;
                assert_eq!(
                    surf.probabilities[w][e].to_bits(),
                    want.to_bits(),
                    "window {window} errors {k}"
                );
            }
        }
    }

    #[test]
    fn sample_positions_distinct_and_sorted() {
        // The mask listing must give exactly the sorted partial
        // Fisher–Yates draw, with the same RNG calls.
        let (mut rng, mut twin) = (seeded_rng(8), seeded_rng(8));
        let mut scratch = [0u16; DATA_BITS];
        let mut listed = [0u16; DATA_BITS];
        for k in [0usize, 1, 64, 160, 512] {
            let pos = sample_positions(&mut rng, k, &mut scratch, &mut listed);
            let mut deck: Vec<u16> = (0..DATA_BITS as u16).collect();
            for i in 0..k {
                let j = twin.random_range(i..DATA_BITS);
                deck.swap(i, j);
            }
            let mut want = deck[..k].to_vec();
            want.sort_unstable();
            assert_eq!(pos, &want[..], "k = {k}");
            assert!(pos.windows(2).all(|w| w[0] < w[1]), "distinct & sorted");
            assert!(pos.iter().all(|&p| (p as usize) < DATA_BITS));
        }
    }

    #[test]
    fn injection_verdict_matches_find_window() {
        // Random fault sets of widely varying density, every scheme's
        // unstorable_suffix override and several window sizes: neither
        // find_window's guaranteed() shortcut nor its skip past a failed
        // window's unstorable suffix may change the offset a plain
        // per-offset can_store scan finds. Up to ~160 faults, most narrow
        // windows fail somewhere, so the skip fires.
        let schemes: [&dyn HardErrorScheme; 6] = [
            &Ecp::new(6),
            &Safer::new(32),
            &Aegis::new(17, 31),
            &Secded::new(),
            &Coset::new(),
            &Ecp::new(8),
        ];
        let mut rng = seeded_rng(0xF16_9);
        for scheme in schemes {
            for window_bytes in [1usize, 8, 16, 32, 48, 64] {
                for _ in 0..64 {
                    let k = rng.random_range(0..160usize);
                    let mut faults: Vec<u16> = (0..k)
                        .map(|_| rng.random_range(0..DATA_BITS as u16))
                        .collect();
                    faults.sort_unstable();
                    faults.dedup();
                    let scan = (0..=DATA_BYTES - window_bytes).find(|&offset| {
                        let window: Vec<u16> = faults
                            .iter()
                            .copied()
                            .filter(|&p| {
                                (offset..offset + window_bytes).contains(&(p as usize / 8))
                            })
                            .collect();
                        scheme.can_store(&window)
                    });
                    assert_eq!(
                        find_window(scheme, &faults, window_bytes),
                        scan,
                        "{} window {} faults {:?}",
                        scheme.name(),
                        window_bytes,
                        faults
                    );
                }
            }
        }
    }
}
