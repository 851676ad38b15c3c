//! Cross-crate property tests: invariants that must hold for arbitrary
//! data, fault sets, and window placements.

use collab_pcm::compress::{compress_best, decompress, CompressedWrite};
use collab_pcm::core::line::{ManagedLine, Payload};
use collab_pcm::core::registry::ecc_scheme;
use collab_pcm::core::window;
use collab_pcm::core::EccChoice;
use collab_pcm::device::dw::diff_write;
use collab_pcm::util::Line512;
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

fn arb_weak_cells() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0usize..512, 0..6).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compression is lossless through the whole storage pipeline: write a
    /// line into a ManagedLine (with weak cells that die under it) and
    /// read back exactly, under ECP-6, SAFER-32 and Aegis.
    #[test]
    fn storage_pipeline_is_lossless(
        data in arb_line(),
        weak in arb_weak_cells(),
        offset in 0usize..64,
        ecc in prop::sample::select(vec![
            EccChoice::Ecp6,
            EccChoice::Safer32,
            EccChoice::Aegis17x31,
        ]),
    ) {
        let mut endurance = vec![u32::MAX; 512];
        for pos in weak {
            endurance[pos] = 0;
        }
        let mut line = ManagedLine::with_endurance(endurance);
        let c = compress_best(&data);
        line.write(ecc, Payload { method: c.method(), bytes: c.bytes() }, offset, true, 1)
            .expect("at most 5 weak cells is within every scheme's guarantee");
        let (method, bytes) = line.read(ecc).expect("valid");
        let back = decompress(&CompressedWrite::from_parts(method, bytes).unwrap());
        prop_assert_eq!(back, data);
    }

    /// Window placement never disturbs cells outside the window, so the
    /// differential write of a re-placed payload flips nothing outside it.
    #[test]
    fn window_confines_flips(
        base in arb_line(),
        payload in prop::collection::vec(any::<u8>(), 1..=64),
        offset in 0usize..64,
    ) {
        let placed = window::place(&base, offset, &payload);
        let dw = diff_write(&base, &placed);
        let mask = window::window_mask(offset, payload.len());
        prop_assert!((dw.flip_mask() & !mask).is_zero(),
            "flips escaped the window");
        prop_assert_eq!(window::extract(&placed, offset, payload.len()), payload);
    }

    /// The best-of selector never loses to either component and never
    /// exceeds the uncompressed size.
    #[test]
    fn best_selector_is_optimal(data in arb_line()) {
        let best = compress_best(&data);
        prop_assert!(best.size() <= 64);
        if let Some(b) = collab_pcm::compress::bdi::compress(&data) {
            prop_assert!(best.size() <= b.size());
        }
        let f = collab_pcm::compress::fpc::compress(&data);
        if f.size() < 64 {
            prop_assert!(best.size() <= f.size());
        }
    }

    /// Every registered scheme's `can_store` is subset-closed: a storable
    /// fault set stays storable with any of its positions removed. The
    /// controller's single resurrection check relies on it.
    #[test]
    fn can_store_is_subset_closed(
        draws in prop::collection::vec(0u16..512, 0..=48),
        clustered in any::<bool>(),
        masks in prop::collection::vec(any::<u64>(), 50),
    ) {
        for choice in EccChoice::ALL.into_iter().chain([EccChoice::EcpN(8)]) {
            let scheme = ecc_scheme(choice);
            // Grow a storable set from the draws, keeping each position
            // that leaves it storable; clustered draws share 8 bytes.
            let mut set: Vec<u16> = Vec::new();
            for &d in &draws {
                let pos = if clustered { d % 64 } else { d };
                if let Err(at) = set.binary_search(&pos) {
                    set.insert(at, pos);
                    if !scheme.can_store(&set) {
                        set.remove(at);
                    }
                }
            }
            for &mask in &masks {
                let subset: Vec<u16> = set
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| (mask >> i) & 1 == 1)
                    .map(|(_, &pos)| pos)
                    .collect();
                prop_assert!(
                    scheme.can_store(&subset),
                    "{choice}: {subset:?} is a subset of storable {set:?}"
                );
            }
        }
    }

    /// Differential-write flip counts are a metric: symmetric, zero iff
    /// equal, and triangle-inequality compliant.
    #[test]
    fn dw_flip_count_is_a_metric(a in arb_line(), b in arb_line(), c in arb_line()) {
        let ab = diff_write(&a, &b).flips();
        let ba = diff_write(&b, &a).flips();
        let bc = diff_write(&b, &c).flips();
        let ac = diff_write(&a, &c).flips();
        prop_assert_eq!(ab, ba);
        prop_assert_eq!(diff_write(&a, &a).flips(), 0);
        prop_assert!(ac <= ab + bc);
    }
}
