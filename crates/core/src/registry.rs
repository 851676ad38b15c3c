//! The scheme registry: shared instances, the per-line encode/decode
//! dispatch, and string-named stacks.
//!
//! Every ECC scheme the controller can use is constructed here exactly
//! once per process and shared as a `&'static` reference — SAFER-32 and
//! Aegis 17×31 precompute hundreds of group masks (≈0.6 ms), and the
//! per-call `Box` the old `EccChoice::build` handed out made table
//! construction dominate short-lived setups. This module is the only
//! code that turns an [`EccChoice`] into a scheme: [`ecc_scheme`] for the
//! window probes, `encode`/`decode` for the stored correction state.
//!
//! [`StackSpec`] names a complete controller stack — system kind, ECC
//! scheme, wear scheme — from a single `kind/ecc/wear` string, so
//! `pcm-lab`, `pcm-verify`, and `pcm-serve` can select any combination
//! without a code change.

use crate::system::{EccChoice, SystemConfig, SystemKind, WearChoice};
use pcm_ecc::aegis::AegisCode;
use pcm_ecc::ecp::EcpCode;
use pcm_ecc::safer::SaferCode;
use pcm_ecc::secded::SecdedCode;
use pcm_ecc::{Aegis, Coset, EccError, Ecp, HardErrorScheme, Safer, Secded};
use pcm_util::fault::FaultMap;
use pcm_util::Line512;
use std::sync::OnceLock;

/// The process-wide SAFER-32 instance (shared partition tables).
pub fn shared_safer32() -> &'static Safer {
    static SAFER32: OnceLock<Safer> = OnceLock::new();
    // pcm-audit: allow(hotpath-alloc) — OnceLock construction runs at most once per process
    SAFER32.get_or_init(|| Safer::new(32))
}

/// The process-wide Aegis 17×31 instance (shared partition tables).
pub fn shared_aegis_17x31() -> &'static Aegis {
    static AEGIS: OnceLock<Aegis> = OnceLock::new();
    // pcm-audit: allow(hotpath-alloc) — OnceLock construction runs at most once per process
    AEGIS.get_or_init(|| Aegis::new(17, 31))
}

/// The process-wide restricted-coset scheme (shared mask table).
fn shared_coset() -> &'static Coset {
    static COSET: OnceLock<Coset> = OnceLock::new();
    COSET.get_or_init(Coset::new)
}

/// The process-wide SECDED instance.
fn shared_secded() -> &'static Secded {
    static SECDED: OnceLock<Secded> = OnceLock::new();
    SECDED.get_or_init(Secded::new)
}

/// The process-wide ECP-`n` instance for any entry count `1..=51`.
pub fn shared_ecp(entries: u32) -> &'static Ecp {
    const NONE: OnceLock<Ecp> = OnceLock::new();
    static ECPS: [OnceLock<Ecp>; 52] = [NONE; 52];
    assert!(
        (1..=51).contains(&entries),
        "ECP entries must be 1..=51, got {entries}"
    );
    ECPS[entries as usize].get_or_init(|| Ecp::new(entries))
}

/// The ECP instance of an ECP choice, ECP-6 for any other choice.
fn ecp_of(choice: EccChoice) -> &'static Ecp {
    match choice {
        EccChoice::EcpN(n) => shared_ecp(n.into()),
        _ => shared_ecp(6),
    }
}

/// The shared instance behind an [`EccChoice`] — the single construction
/// path for hard-error schemes.
#[inline]
pub fn ecc_scheme(choice: EccChoice) -> &'static dyn HardErrorScheme {
    match choice {
        EccChoice::Ecp6 | EccChoice::EcpN(_) => ecp_of(choice),
        EccChoice::Safer32 => shared_safer32(),
        EccChoice::Aegis17x31 => shared_aegis_17x31(),
        EccChoice::Secded => shared_secded(),
        EccChoice::Coset => shared_coset(),
    }
}

/// Per-line ECC correction state from the most recent write.
///
/// Every variant is a fixed-size value, so storing one never touches the
/// heap.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EccCode {
    /// No write yet.
    None,
    /// ECP pointers + replacement bits.
    Ecp(EcpCode),
    /// SAFER partition + inversions.
    Safer(SaferCode),
    /// Aegis partition + inversions.
    Aegis(AegisCode),
    /// SECDED check bytes.
    Secded(SecdedCode),
    /// Coset transform tag + ECP pointers for the transformed payload.
    Coset(u16, EcpCode),
}

// `EccCode` must stay `Copy`: a heap-owning code type would fail here,
// while `hotpath-alloc` cannot see the `.collect()` that builds one.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<EccCode>()
};

/// Encodes `target` under `choice` around the window's stuck cells
/// `faults`, returning the line to program and its correction state.
///
/// Payload-transforming schemes (coset coding) also see the currently
/// `stored` line and the `window_mask`, so they can pick the cheapest
/// equivalent vector; plain correction schemes ignore both.
///
/// # Errors
///
/// Returns the scheme's [`EccError`] when it cannot mask `faults` for
/// this data. No scheme here does so when
/// [`can_store`](HardErrorScheme::can_store) accepted the positions.
#[inline]
pub(crate) fn encode(
    choice: EccChoice,
    target: &Line512,
    stored: &Line512,
    window_mask: &Line512,
    faults: &FaultMap,
) -> Result<(Line512, EccCode), EccError> {
    match choice {
        EccChoice::Ecp6 | EccChoice::EcpN(_) => ecp_of(choice)
            .write(target, faults)
            .map(|(s, c)| (s, EccCode::Ecp(c))),
        EccChoice::Safer32 => shared_safer32()
            .write(target, faults)
            .map(|(s, c)| (s, EccCode::Safer(c))),
        EccChoice::Aegis17x31 => shared_aegis_17x31()
            .write(target, faults)
            .map(|(s, c)| (s, EccCode::Aegis(c))),
        EccChoice::Secded => shared_secded()
            .write(target, faults)
            .map(|(s, c)| (s, EccCode::Secded(c))),
        EccChoice::Coset => {
            let coset = shared_coset();
            let (transformed, tag) = coset.encode_payload(target, stored, window_mask, faults);
            coset
                .write(&transformed, faults)
                .map(|(s, c)| (s, EccCode::Coset(tag, c)))
        }
    }
}

/// Recovers the data [`encode`] stored under `choice` from the physical
/// line and its correction state.
pub(crate) fn decode(choice: EccChoice, stored: &Line512, code: &EccCode) -> Line512 {
    match code {
        EccCode::None => *stored,
        EccCode::Ecp(c) => ecp_of(choice).read(stored, c),
        EccCode::Safer(c) => shared_safer32().read(stored, c),
        EccCode::Aegis(c) => shared_aegis_17x31().read(stored, c),
        EccCode::Secded(c) => shared_secded().read(stored, c),
        EccCode::Coset(tag, c) => {
            let coset = shared_coset();
            coset.decode_payload(&coset.read(stored, c), *tag)
        }
    }
}

/// A complete controller stack named by its three layers.
///
/// The canonical string form is `kind/ecc/wear` (case-insensitive), with
/// trailing layers optional: `"Comp+WF"`, `"Comp+WF/coset"`, and
/// `"Comp+WF/coset/wolfram"` all parse.
///
/// # Examples
///
/// ```
/// use pcm_core::registry::StackSpec;
/// use pcm_core::{EccChoice, SystemKind, WearChoice};
///
/// let spec: StackSpec = "compwf/coset/wolfram".parse().unwrap();
/// assert_eq!(spec.kind, SystemKind::CompWF);
/// assert_eq!(spec.ecc, EccChoice::Coset);
/// assert_eq!(spec.wear, WearChoice::Wolfram);
/// assert_eq!(spec.to_string(), "Comp+WF/Coset-ECP6/WoLFRaM");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackSpec {
    /// Which of the paper's four systems.
    pub kind: SystemKind,
    /// Hard-error scheme.
    pub ecc: EccChoice,
    /// Inter-line wear-leveling scheme.
    pub wear: WearChoice,
}

impl StackSpec {
    /// The paper's default stack for a system kind (ECP-6 + Start-Gap).
    pub fn of(kind: SystemKind) -> Self {
        StackSpec {
            kind,
            ecc: EccChoice::Ecp6,
            wear: WearChoice::StartGap,
        }
    }

    /// The full configuration for this stack (paper defaults elsewhere).
    pub fn to_config(self) -> SystemConfig {
        SystemConfig::new(self.kind)
            .with_ecc(self.ecc)
            .with_wear(self.wear)
    }
}

impl std::fmt::Display for StackSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.kind, self.ecc, self.wear)
    }
}

impl std::str::FromStr for StackSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.split('/');
        let kind = parse_kind(parts.next().unwrap_or_default())?;
        let ecc = match parts.next() {
            Some(e) => parse_ecc(e)?,
            None => EccChoice::Ecp6,
        };
        let wear = match parts.next() {
            Some(w) => parse_wear(w)?,
            None => WearChoice::StartGap,
        };
        if let Some(extra) = parts.next() {
            return Err(format!("unexpected stack component '{extra}' in '{s}'"));
        }
        Ok(StackSpec { kind, ecc, wear })
    }
}

/// Normalizes a layer name: lowercase, separators dropped.
fn canon(s: &str) -> String {
    s.chars()
        .filter(|c| !matches!(c, '-' | '_' | '+' | ' '))
        .flat_map(char::to_lowercase)
        .collect()
}

/// Parses a system-kind name (`baseline`, `comp`, `compw`, `compwf`).
pub fn parse_kind(s: &str) -> Result<SystemKind, String> {
    SystemKind::ALL
        .into_iter()
        .find(|k| canon(&k.to_string()) == canon(s))
        .ok_or_else(|| format!("unknown system '{s}' (baseline|comp|compw|compwf)"))
}

/// Parses an ECC-scheme name (`ecp6`, `safer32`, `aegis`, `secded`,
/// `coset`, `ecpN` for `N` in `1..=51`).
pub fn parse_ecc(s: &str) -> Result<EccChoice, String> {
    let c = canon(s);
    if let Some(n) = c.strip_prefix("ecp").and_then(|n| n.parse::<u32>().ok()) {
        return match n {
            6 => Ok(EccChoice::Ecp6),
            1..=51 => Ok(EccChoice::EcpN(n as u8)),
            _ => Err(format!("ECP entries must be 1..=51, got '{s}'")),
        };
    }
    match c.as_str() {
        "safer32" | "safer" => Ok(EccChoice::Safer32),
        "aegis17x31" | "aegis" => Ok(EccChoice::Aegis17x31),
        "secded" => Ok(EccChoice::Secded),
        "cosetecp6" | "coset" => Ok(EccChoice::Coset),
        _ => Err(format!(
            "unknown ECC scheme '{s}' (ecp6|safer32|aegis|secded|coset|ecpN)"
        )),
    }
}

/// Parses a wear-scheme name (`startgap`, `secref`, `wolfram`).
pub fn parse_wear(s: &str) -> Result<WearChoice, String> {
    match canon(s).as_str() {
        "startgap" => Ok(WearChoice::StartGap),
        "securityrefresh" | "secref" => Ok(WearChoice::SecurityRefresh),
        "wolfram" => Ok(WearChoice::Wolfram),
        _ => Err(format!(
            "unknown wear scheme '{s}' (startgap|secref|wolfram)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::window_mask;
    use pcm_util::fault::StuckAt;
    use pcm_util::DATA_BITS;
    use proptest::prelude::*;

    fn arb_line() -> impl Strategy<Value = Line512> {
        prop::array::uniform8(any::<u64>()).prop_map(Line512::from_words)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `ManagedLine::write` treats an `encode` error after a passing
        /// `can_store` as impossible. Check that for every registered
        /// choice, up to three times its guarantee: whenever `can_store`
        /// accepts a window's stuck cells, `encode` succeeds, programs
        /// the stuck cells at their stuck values, and `decode` returns the
        /// data on the window's bits. `can_store` also accepts every set
        /// within the guarantee.
        #[test]
        fn can_store_implies_lossless_encode(
            data in arb_line(),
            stored in arb_line(),
            offset in 0usize..64,
            len in 1usize..=64,
            cells in prop::collection::vec((any::<u16>(), any::<bool>()), 153),
            picks in any::<u64>(),
        ) {
            let mask = window_mask(offset, len);
            // The controller places the payload into the current line, so
            // the target agrees with `stored` outside the window.
            let target = (data & mask) | (stored & !mask);
            let choices = EccChoice::ALL
                .into_iter()
                .chain([EccChoice::EcpN(1), EccChoice::EcpN(8), EccChoice::EcpN(51)]);
            for choice in choices {
                let scheme = ecc_scheme(choice);
                let n = (picks % (3 * u64::from(scheme.guaranteed()) + 1)) as usize;
                let faults: FaultMap = cells[..n]
                    .iter()
                    .map(|&(cell, value)| {
                        let i = usize::from(cell) % (len * 8);
                        let byte = (offset + i / 8) % 64;
                        StuckAt { pos: (byte * 8 + i % 8) as u16, value }
                    })
                    .collect();
                let mut buf = [0u16; DATA_BITS];
                let storable = scheme.can_store(faults.positions().ones_into(&mut buf));
                // `find_window` skips `can_store` on windows within the
                // guarantee, so the guarantee must be exact.
                prop_assert!(
                    storable || faults.count() > scheme.guaranteed(),
                    "{choice}: {} faults within its guarantee refused",
                    faults.count()
                );
                if !storable {
                    continue;
                }
                let encoded = encode(choice, &target, &stored, &mask, &faults);
                prop_assert!(encoded.is_ok(), "{choice}: {} faults in ({offset}, {len})", faults.count());
                let (encoded, code) = encoded.unwrap();
                prop_assert_eq!(faults.apply(encoded), encoded, "{choice}: stuck cells");
                let physical = (encoded & mask) | (stored & !mask);
                prop_assert_eq!(
                    decode(choice, &physical, &code) & mask,
                    data & mask,
                    "{choice}: {} faults in ({offset}, {len})",
                    faults.count()
                );
            }
        }
    }

    #[test]
    fn shared_instances_are_shared() {
        assert!(std::ptr::eq(shared_safer32(), shared_safer32()));
        assert!(std::ptr::eq(shared_ecp(6), shared_ecp(6)));
        assert!(std::ptr::eq(
            ecc_scheme(EccChoice::Ecp6) as *const _ as *const u8,
            ecc_scheme(EccChoice::Ecp6) as *const _ as *const u8,
        ));
        assert!(!std::ptr::eq(shared_ecp(4), shared_ecp(5)));
    }

    #[test]
    fn every_choice_resolves() {
        for ecc in EccChoice::ALL {
            assert!(ecc_scheme(ecc).metadata_bits() <= 64, "{ecc}");
        }
        assert_eq!(ecc_scheme(EccChoice::EcpN(12)).guaranteed(), 12);
    }

    #[test]
    fn stack_specs_round_trip_through_display() {
        for kind in SystemKind::ALL {
            for ecc in EccChoice::ALL {
                for wear in WearChoice::ALL {
                    let spec = StackSpec { kind, ecc, wear };
                    let back: StackSpec = spec.to_string().parse().unwrap();
                    assert_eq!(back, spec);
                }
            }
        }
    }

    #[test]
    fn parse_accepts_shorthand() {
        let spec: StackSpec = "Comp+WF".parse().unwrap();
        assert_eq!(spec, StackSpec::of(SystemKind::CompWF));
        let spec: StackSpec = "comp/safer".parse().unwrap();
        assert_eq!(spec.ecc, EccChoice::Safer32);
        assert_eq!(spec.wear, WearChoice::StartGap);
        let spec: StackSpec = "baseline/ecp4/secref".parse().unwrap();
        assert_eq!(spec.ecc, EccChoice::EcpN(4));
        assert_eq!(spec.wear, WearChoice::SecurityRefresh);
        assert!("comp/ecp6/bogus".parse::<StackSpec>().is_err());
        assert!("bogus".parse::<StackSpec>().is_err());
    }

    #[test]
    fn parse_rejects_ecp_entry_counts_outside_1_to_51() {
        for bad in ["ecp0", "ecp52", "ecp255"] {
            let err = parse_ecc(bad).unwrap_err();
            assert!(err.contains("1..=51"), "{bad}: {err}");
        }
        assert_eq!(parse_ecc("ecp1"), Ok(EccChoice::EcpN(1)));
        assert_eq!(parse_ecc("ecp51"), Ok(EccChoice::EcpN(51)));
        assert!("compwf/ecp0".parse::<StackSpec>().is_err());
    }

    #[test]
    fn to_config_carries_all_layers() {
        let cfg = StackSpec {
            kind: SystemKind::Comp,
            ecc: EccChoice::Coset,
            wear: WearChoice::Wolfram,
        }
        .to_config();
        assert_eq!(cfg.kind, SystemKind::Comp);
        assert_eq!(cfg.ecc, EccChoice::Coset);
        assert_eq!(cfg.wear, WearChoice::Wolfram);
    }
}
