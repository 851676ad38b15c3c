//! The counting wrapper must be invisible: every `HardErrorScheme` method
//! forwards, including the defaulted payload-transform ones.

use pcm_core::registry::ecc_scheme;
use pcm_core::EccChoice;
use pcm_ecc::HardErrorScheme;
use pcm_perfbench::mc::Counted;
use pcm_util::fault::FaultPlan;
use pcm_util::{seeded_rng, Line512};

#[test]
fn counted_forwards_every_method() {
    // Coset overrides the three defaulted transform methods; the others
    // use the defaults.
    let choices = [
        EccChoice::Ecp6,
        EccChoice::Safer32,
        EccChoice::Aegis17x31,
        EccChoice::Coset,
    ];
    let mut rng = seeded_rng(0xC0DE);
    for choice in choices {
        let inner = ecc_scheme(choice);
        let wrapped = Counted::new(inner);
        assert_eq!(wrapped.name(), inner.name());
        assert_eq!(wrapped.guaranteed(), inner.guaranteed());
        assert_eq!(wrapped.metadata_bits(), inner.metadata_bits());
        assert_eq!(wrapped.transform_bits(), inner.transform_bits());

        let mut calls = 0;
        let mut stores = 0;
        for count in [0u32, 3, 7, 12, 24, 40] {
            let plan = FaultPlan::with_count(u64::from(count) + 11, count, 0.5);
            for line in 0..8 {
                let faults = plan.for_line(line);
                let positions: Vec<u16> = faults.iter().map(|f| f.pos).collect();
                let want = inner.can_store(&positions);
                assert_eq!(wrapped.can_store(&positions), want, "{}", inner.name());
                calls += 1;
                stores += u64::from(want);

                let target = Line512::random(&mut rng);
                let stored = Line512::random(&mut rng);
                let window = Line512::byte_window_mask(8, 32);
                let encoded = wrapped.encode_payload(&target, &stored, &window, &faults);
                assert_eq!(
                    encoded,
                    inner.encode_payload(&target, &stored, &window, &faults)
                );
                assert_eq!(
                    wrapped.decode_payload(&encoded.0, encoded.1),
                    inner.decode_payload(&encoded.0, encoded.1)
                );
            }
        }
        let (got_calls, got_stores, _) = wrapped.totals();
        assert_eq!((got_calls, got_stores), (calls, stores), "{}", inner.name());
    }
}
