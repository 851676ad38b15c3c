//! Differential rig for the lane-kernel wear model.
//!
//! `LineWear`'s SLC write path — whole-line lane kernels plus the
//! death-free slack fast path — must match an *independent* per-bit model
//! reimplemented from the documented semantics, over long
//! write/fast-forward sequences that drive cells through death (the only
//! events where the fast path, the stale-bound recomputation, and the
//! fault materialization interact). The segment fast-forward must match
//! a brute-force projection plus the per-position `add_wear` loop, on
//! SLC and MLC lines alike.

use pcm_device::{CellTech, EnduranceModel, LineWear};
use pcm_util::{Line512, DATA_BITS};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

/// One step of a wear-model interaction: a differential write or an
/// accelerated fast-forward of one cell.
#[derive(Debug, Clone)]
enum Op {
    Write(Line512),
    AddWear(usize, u32),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        arb_line().prop_map(Op::Write),
        (0..DATA_BITS, 0u32..4).prop_map(|(pos, events)| Op::AddWear(pos, events)),
    ];
    prop::collection::vec(op, 1..=60)
}

/// Independent per-bit SLC wear model, written from the documented
/// semantics only: each differing cell takes one programming pulse; a
/// stuck cell absorbs the pulse with no effect; a healthy cell wears by
/// one and either flips or — when its budget is exhausted — sticks at
/// the value it still holds.
struct RefSlc {
    endurance: Vec<u32>,
    wear: Vec<u32>,
    stored: Line512,
    stuck: Vec<Option<bool>>,
}

impl RefSlc {
    fn new(endurance: Vec<u32>) -> Self {
        RefSlc {
            endurance,
            wear: vec![0; DATA_BITS],
            stored: Line512::zero(),
            stuck: vec![None; DATA_BITS],
        }
    }

    /// Returns (flips, flip mask, new faults as (pos, stuck value)).
    fn write(&mut self, target: &Line512) -> (u32, Line512, Vec<(u16, bool)>) {
        let diff = self.stored ^ *target;
        let mut flips = 0u32;
        let mut new_faults = Vec::new();
        for pos in 0..DATA_BITS {
            if !diff.bit(pos) {
                continue;
            }
            flips += 1;
            if self.stuck[pos].is_some() {
                continue;
            }
            self.wear[pos] += 1;
            if self.wear[pos] > self.endurance[pos] {
                let value = self.stored.bit(pos);
                self.stuck[pos] = Some(value);
                new_faults.push((pos as u16, value));
            } else {
                self.stored.flip_bit(pos);
            }
        }
        (flips, diff, new_faults)
    }

    fn add_wear(&mut self, pos: usize, events: u32) {
        if self.stuck[pos].is_some() || events == 0 {
            return;
        }
        self.wear[pos] = self.wear[pos].saturating_add(events);
        if self.wear[pos] > self.endurance[pos] {
            self.stuck[pos] = Some(self.stored.bit(pos));
        }
    }
}

/// Asserts every observable of `line` matches the reference model.
fn assert_state_matches(line: &LineWear, model: &RefSlc) -> Result<(), String> {
    prop_assert_eq!(line.stored(), model.stored);
    for pos in 0..DATA_BITS {
        prop_assert_eq!(line.wear_of(pos), model.wear[pos], "wear at {}", pos);
        let impl_stuck = line.faults().is_faulty(pos);
        prop_assert_eq!(impl_stuck, model.stuck[pos].is_some(), "fault at {}", pos);
        if let Some(value) = model.stuck[pos] {
            // A stuck cell reads back its frozen value through the line.
            prop_assert_eq!(line.stored().bit(pos), value, "stuck value at {}", pos);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The SLC lane-kernel write path (slack fast path, `wear_step`,
    /// fault materialization, stale-bound recomputation) matches the
    /// independent per-bit model over arbitrary write / fast-forward
    /// sequences on tight-endurance lines, where most sequences kill
    /// cells mid-stream.
    #[test]
    fn slc_write_sequence_matches_per_bit_model(
        endurance in prop::collection::vec(0u32..5, DATA_BITS),
        ops in arb_ops(),
    ) {
        let mut line = LineWear::with_endurance(endurance.clone());
        let mut model = RefSlc::new(endurance);
        for op in &ops {
            match op {
                Op::Write(target) => {
                    let outcome = line.write(target);
                    let (flips, flip_mask, new_faults) = model.write(target);
                    prop_assert_eq!(outcome.flips, flips);
                    prop_assert_eq!(outcome.flip_mask, flip_mask);
                    let got_faults: Vec<(u16, bool)> = outcome
                        .new_faults
                        .iter()
                        .map(|f| (f.pos, f.value))
                        .collect();
                    prop_assert_eq!(got_faults, new_faults);
                }
                Op::AddWear(pos, events) => {
                    let fault = line.add_wear(*pos, *events);
                    let was_stuck = model.stuck[*pos].is_some();
                    model.add_wear(*pos, *events);
                    prop_assert_eq!(
                        fault.is_some(),
                        !was_stuck && model.stuck[*pos].is_some()
                    );
                }
            }
        }
        assert_state_matches(&line, &model)?;
    }

    /// `fast_forward` equals the brute-force projection followed by the
    /// ascending per-position `add_wear` loop it replaces, faults and all,
    /// on SLC and MLC lines, for segments of at most and more than 64
    /// sampled writes, with grants that round to 0 and touched cells that
    /// are already stuck.
    #[test]
    fn fast_forward_matches_projection_and_add_wear_sequence(
        mlc in any::<bool>(),
        endurance in prop::collection::vec(0u32..6, DATA_BITS),
        seed in any::<u64>(),
        seed_writes in prop::collection::vec(arb_line(), 0..4),
        count_list in prop::collection::vec((0..DATA_BITS, any::<u32>()), 0..80),
        done in 1u64..130,
        extra in prop_oneof![1u64..4, 1u64..400],
    ) {
        let mut line = worn_line(mlc, endurance, seed, &seed_writes);
        let (counts, touched) = profile(&count_list, done);
        let mut seq = line.clone();
        let got = line.fast_forward(&counts, &touched, done, extra);
        let want = projection(&seq, &counts, done, extra);
        prop_assert_eq!(got, want);
        for (pos, &c) in counts.iter().enumerate() {
            let g = ((c as u64 * want) as f64 / done as f64).round() as u32;
            if g > 0 {
                let _ = seq.add_wear(pos, g);
            }
        }
        // `PartialEq` covers tech, endurance, wear, stored, and faults
        // (the slack cache is deliberately excluded).
        prop_assert_eq!(&line, &seq);
        // And the fast path must still be sound afterwards: more writes
        // agree too.
        for target in [Line512::ones(), Line512::zero()] {
            prop_assert_eq!(line.write(&target), seq.write(&target));
        }
    }

    /// The writes `fast_forward` replays are the brute-force projection:
    /// the earliest write at which a healthy profiled cell's scaled
    /// replay exceeds its endurance, capped at the requested span.
    #[test]
    fn fast_forward_stops_at_the_bruteforce_projection(
        mlc in any::<bool>(),
        endurance in prop::collection::vec(0u32..40, DATA_BITS),
        seed in any::<u64>(),
        seed_writes in prop::collection::vec(arb_line(), 1..4),
        count_list in prop::collection::vec((0..DATA_BITS, any::<u32>()), 1..60),
        done in 1u64..200,
        extra in 1u64..10_000,
    ) {
        let mut line = worn_line(mlc, endurance, seed, &seed_writes);
        let (counts, touched) = profile(&count_list, done);
        let want = projection(&line, &counts, done, extra);
        prop_assert_eq!(line.fast_forward(&counts, &touched, done, extra), want);
    }
}

/// A line with tight endurance after `writes`: SLC with the given
/// per-cell `endurance`, or MLC-2 sampled from `seed` around a mean of 3.
fn worn_line(mlc: bool, endurance: Vec<u32>, seed: u64, writes: &[Line512]) -> LineWear {
    let mut line = if mlc {
        let model = EnduranceModel::new(3.0, 0.5);
        LineWear::sample_with_tech(&model, CellTech::Mlc2, &mut pcm_util::seeded_rng(seed))
    } else {
        LineWear::with_endurance(endurance)
    };
    for target in writes {
        line.write(target);
    }
    line
}

/// Per-bit flip counts of `done` sampled writes, each in `1..=done`, and
/// the union of the cells they touched.
fn profile(count_list: &[(usize, u32)], done: u64) -> ([u32; DATA_BITS], Line512) {
    let mut counts = [0u32; DATA_BITS];
    let mut touched = Line512::zero();
    for &(pos, c) in count_list {
        counts[pos] = 1 + c % done as u32;
        touched.set_bit(pos, true);
    }
    (counts, touched)
}

/// Brute-force projection: bit `pos` (healthy, profiled) has `remaining`
/// events left on its cell and fails on the next; at `c` events per
/// `done` writes the first fatal write is
/// `ceil((remaining + 1) * done / c)`. The projection is the minimum over
/// bits, capped at `extra`.
fn projection(line: &LineWear, counts: &[u32; DATA_BITS], done: u64, extra: u64) -> u64 {
    (0..DATA_BITS)
        .filter(|&pos| counts[pos] > 0 && !line.faults().is_faulty(pos))
        .map(|pos| {
            let remaining = line.endurance_of(pos).saturating_sub(line.wear_of(pos)) as u64;
            (remaining + 1)
                .saturating_mul(done)
                .div_ceil(counts[pos] as u64)
        })
        .min()
        .map_or(extra, |first_fatal| extra.min(first_fatal))
}

/// Zero-endurance adversarial case: the very first all-ones write kills
/// every cell, each stuck at the reset value it never left.
#[test]
fn zero_endurance_line_dies_whole() {
    let mut line = LineWear::with_endurance(vec![0; DATA_BITS]);
    let outcome = line.write(&Line512::ones());
    assert_eq!(outcome.flips, 512);
    assert_eq!(outcome.new_faults.len(), DATA_BITS);
    assert!(outcome.new_faults.iter().all(|f| !f.value));
    assert_eq!(line.stored(), Line512::zero());
    // A dead line absorbs further writes without effect or new faults.
    let again = line.write(&Line512::ones());
    assert_eq!(again.flips, 512);
    assert!(again.new_faults.is_empty());
    assert_eq!(line.stored(), Line512::zero());
}

/// The slack fast path never defers a death: with uniform endurance E,
/// alternating all-ones/all-zeros writes must kill every cell on exactly
/// write E + 1, not a write later.
#[test]
fn death_lands_on_exact_write() {
    const E: u32 = 9;
    let mut line = LineWear::with_endurance(vec![E; DATA_BITS]);
    let targets = [Line512::ones(), Line512::zero()];
    for w in 0..E {
        let outcome = line.write(&targets[(w % 2) as usize]);
        assert!(outcome.new_faults.is_empty(), "early death at write {w}");
    }
    let outcome = line.write(&targets[(E % 2) as usize]);
    assert_eq!(
        outcome.new_faults.len(),
        DATA_BITS,
        "death must land on write E + 1"
    );
}
