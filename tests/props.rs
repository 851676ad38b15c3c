//! Cross-crate property tests: invariants that must hold for arbitrary
//! data, fault sets, and window placements.

use collab_pcm::compress::{compress_best, decompress, CompressedWrite};
use collab_pcm::core::line::{ManagedLine, Payload};
use collab_pcm::core::registry::ecc_scheme;
use collab_pcm::core::window;
use collab_pcm::core::EccChoice;
use collab_pcm::device::dw::diff_write;
use collab_pcm::ecc::montecarlo::failure_surface;
use collab_pcm::ecc::{find_window, HardErrorScheme, MonteCarlo};
use collab_pcm::util::Line512;
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = Line512> {
    prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
}

fn arb_weak_cells() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0usize..512, 0..6).prop_map(|s| s.into_iter().collect())
}

/// Every registry scheme, plus an ECP with a non-default entry count.
fn registry_schemes() -> impl Iterator<Item = (EccChoice, &'static dyn HardErrorScheme)> {
    EccChoice::ALL
        .into_iter()
        .chain([EccChoice::EcpN(8)])
        .map(|choice| (choice, ecc_scheme(choice)))
}

/// Sorted distinct fault positions from `draws`; clustered draws share
/// the first 8 bytes.
fn fault_set(draws: &[u16], clustered: bool) -> Vec<u16> {
    let mut set: Vec<u16> = draws
        .iter()
        .map(|&d| if clustered { d % 64 } else { d })
        .collect();
    set.sort_unstable();
    set.dedup();
    set
}

/// Forwards only the required methods, so it answers
/// `unstorable_suffix` with the trait's default, as a wrapper that counts
/// `can_store` calls does.
struct OnlyCanStore(&'static dyn HardErrorScheme);

impl HardErrorScheme for OnlyCanStore {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn guaranteed(&self) -> u32 {
        self.0.guaranteed()
    }

    fn metadata_bits(&self) -> u32 {
        self.0.metadata_bits()
    }

    fn can_store(&self, fault_positions: &[u16]) -> bool {
        self.0.can_store(fault_positions)
    }
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
        for (choice, scheme) in registry_schemes() {
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

    /// Every registry scheme's `unstorable_suffix` keeps its contract on
    /// each suffix of a fault set: `None` iff `can_store`, and otherwise a
    /// suffix that cannot be stored either. The in-tree scans also return
    /// the shortest one: dropping its first fault makes it storable.
    #[test]
    fn unstorable_suffix_is_the_shortest_unstorable_suffix(
        draws in prop::collection::vec(0u16..512, 0..=64),
        clustered in any::<bool>(),
    ) {
        let set = fault_set(&draws, clustered);
        for (choice, scheme) in registry_schemes() {
            for from in 0..=set.len() {
                let faults = &set[from..];
                let storable = scheme.can_store(faults);
                match scheme.unstorable_suffix(faults) {
                    None => prop_assert!(storable, "{choice}: None for {faults:?}"),
                    Some(s) => {
                        prop_assert!(!storable, "{choice}: Some({s}) for {faults:?}");
                        prop_assert!(s < faults.len(), "{choice}: {s} past {faults:?}");
                        prop_assert!(
                            !scheme.can_store(&faults[s..]),
                            "{choice}: suffix {s} of {faults:?} is storable"
                        );
                        prop_assert!(
                            scheme.can_store(&faults[s + 1..]),
                            "{choice}: suffix {s} of {faults:?} is not the shortest"
                        );
                    }
                }
            }
        }
    }

    /// The trait's default `unstorable_suffix` (the whole set) leads
    /// `find_window` to the same offset as every scheme's own scan.
    #[test]
    fn default_unstorable_suffix_finds_the_same_windows(
        draws in prop::collection::vec(0u16..512, 0..=160),
        clustered in any::<bool>(),
    ) {
        let set = fault_set(&draws, clustered);
        for (choice, scheme) in registry_schemes() {
            let default = OnlyCanStore(scheme);
            for window_bytes in [1usize, 2, 4, 8, 12, 16, 24, 32, 48, 64] {
                prop_assert_eq!(
                    find_window(&default, &set, window_bytes),
                    find_window(scheme, &set, window_bytes),
                    "{} window {} faults {:?}", choice, window_bytes, set
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

/// A Fig. 9 surface through the default `unstorable_suffix` is bit for
/// bit the surface through each scheme's own scan.
#[test]
fn default_unstorable_suffix_gives_the_same_surface() {
    let mc = MonteCarlo {
        injections: 400,
        seed: 19,
        threads: 2,
    };
    let (windows, errors) = ([4usize, 16, 32, 64], [0usize, 8, 24, 48, 96]);
    for (choice, scheme) in registry_schemes() {
        assert_eq!(
            failure_surface(&OnlyCanStore(scheme), &windows, &errors, &mc),
            failure_surface(scheme, &windows, &errors, &mc),
            "{choice}"
        );
    }
}
