//! Differential rig for the SLC lane-kernel wear model.
//!
//! `LineWear`'s SLC write path — whole-line lane kernels plus the
//! death-free slack fast path — must match an *independent* per-bit model
//! reimplemented from the documented semantics, over long
//! write/fast-forward sequences that drive cells through death (the only
//! events where the fast path, the stale-bound recomputation, and the
//! fault materialization interact).

use pcm_device::LineWear;
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

    /// `add_wear_bulk` equals the ascending per-position `add_wear` loop
    /// it replaces, including the faults each one materializes.
    #[test]
    fn add_wear_bulk_matches_sequence(
        endurance in prop::collection::vec(0u32..6, DATA_BITS),
        seed_writes in prop::collection::vec(arb_line(), 0..4),
        grant_list in prop::collection::vec((0..DATA_BITS, 1u32..5), 0..80),
    ) {
        let mut bulk = LineWear::with_endurance(endurance);
        for target in &seed_writes {
            bulk.write(target);
        }
        let mut seq = bulk.clone();
        let mut grants = [0u32; DATA_BITS];
        for &(pos, g) in &grant_list {
            grants[pos] = grants[pos].saturating_add(g);
        }
        bulk.add_wear_bulk(&grants);
        for (pos, &g) in grants.iter().enumerate() {
            if g > 0 {
                let _ = seq.add_wear(pos, g);
            }
        }
        // `PartialEq` covers tech, endurance, wear, stored, and faults
        // (the slack cache is deliberately excluded).
        prop_assert_eq!(&bulk, &seq);
        // And the fast path must still be sound afterwards: more writes
        // agree too.
        let target = Line512::ones();
        prop_assert_eq!(bulk.write(&target), seq.write(&target));
    }

    /// `project_first_failure` equals the closed-form minimum over all
    /// healthy profiled cells of the first write count whose scaled
    /// replay kills the cell.
    #[test]
    fn project_first_failure_matches_bruteforce(
        endurance in prop::collection::vec(0u32..40, DATA_BITS),
        seed_writes in prop::collection::vec(arb_line(), 1..4),
        count_list in prop::collection::vec((0..DATA_BITS, 1u32..6), 1..60),
        done in 1u64..200,
        extra in 1u64..10_000,
    ) {
        let mut line = LineWear::with_endurance(endurance);
        for target in &seed_writes {
            line.write(target);
        }
        let mut counts = [0u32; DATA_BITS];
        for &(pos, c) in &count_list {
            counts[pos] = counts[pos].saturating_add(c);
        }
        let got = line.project_first_failure(&counts, done, extra);
        // Reference: cell `pos` (healthy, profiled) survives `remaining`
        // more events and dies on the next; at `c` events per `done`
        // writes the first fatal write count is
        // ceil((remaining + 1) * done / c). The projection is the
        // minimum over cells, capped at the requested span.
        let want = (0..DATA_BITS)
            .filter(|&pos| counts[pos] > 0 && !line.faults().is_faulty(pos))
            .map(|pos| {
                let remaining =
                    line.endurance_of(pos).saturating_sub(line.wear_of(pos)) as u64;
                (remaining + 1)
                    .saturating_mul(done)
                    .div_ceil(counts[pos] as u64)
            })
            .min()
            .map_or(extra, |first_fatal| extra.min(first_fatal));
        prop_assert_eq!(got, want);
    }
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
