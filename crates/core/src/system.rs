//! The four evaluated system configurations (paper §IV).
//!
//! All four default to chip-level differential writes, Start-Gap
//! inter-line wear-leveling, and ECP-6; they differ in how much of the
//! paper's proposal is enabled:
//!
//! | system   | compression | intra-line WL | sliding window + resurrection |
//! |----------|-------------|---------------|-------------------------------|
//! | Baseline | —           | —             | —                             |
//! | Comp     | ✓           | —             | —                             |
//! | Comp+W   | ✓           | ✓             | —                             |
//! | Comp+WF  | ✓           | ✓             | ✓                             |
//!
//! The ECC and wear layers are pluggable: [`EccChoice`] and
//! [`WearChoice`] name every registered scheme, and
//! [`crate::registry::StackSpec`] assembles a full `kind/ecc/wear` stack
//! from a string.

use crate::heuristic::CompressionHeuristic;
use pcm_device::{CellTech, EnduranceModel};
use pcm_wear::{SecurityRefresh, StartGap, WearScheme, Wolfram};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which of the paper's four systems to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// DW + Start-Gap + ECP-6, uncompressed storage.
    Baseline,
    /// Adds best-of BDI/FPC compression, window pinned at the line's least
    /// significant bytes.
    Comp,
    /// Adds counter-based intra-line wear-leveling (rotating window start).
    CompW,
    /// Adds the advanced hard-error handling: fault-dodging window slide
    /// and dead-block resurrection at inter-line wear-leveling events.
    CompWF,
}

impl SystemKind {
    /// All four systems in evaluation order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::Baseline,
        SystemKind::Comp,
        SystemKind::CompW,
        SystemKind::CompWF,
    ];

    /// `true` when the system compresses write-backs.
    pub fn compresses(&self) -> bool {
        !matches!(self, SystemKind::Baseline)
    }

    /// `true` when the system rotates the window start (intra-line WL).
    pub fn rotates(&self) -> bool {
        matches!(self, SystemKind::CompW | SystemKind::CompWF)
    }

    /// `true` when the system slides the window around faults and
    /// resurrects dead blocks.
    pub fn slides(&self) -> bool {
        matches!(self, SystemKind::CompWF)
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemKind::Baseline => write!(f, "Baseline"),
            SystemKind::Comp => write!(f, "Comp"),
            SystemKind::CompW => write!(f, "Comp+W"),
            SystemKind::CompWF => write!(f, "Comp+WF"),
        }
    }
}

/// Which hard-error scheme the controller uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EccChoice {
    /// ECP with 6 entries (the paper's default).
    Ecp6,
    /// SAFER with 32 groups.
    Safer32,
    /// Aegis over a 17×31 grid.
    Aegis17x31,
    /// DRAM-style SECDED (one correctable error per 64-bit word) — the
    /// incumbent the paper argues against; included for the ablation.
    Secded,
    /// ECP with an arbitrary entry count (storage-overhead ablation:
    /// each entry costs 10 metadata bits; only 6 fit the ECC-DIMM budget).
    EcpN(u8),
    /// Restricted coset coding over ECP-6 (3 tag bits of payload
    /// transform in the budget slack ECP-6 leaves: 61 + 3 = 64).
    Coset,
}

impl EccChoice {
    /// Every registered scheme, in evaluation order (the pre-registry
    /// choices first, so seed derivations over this list stay stable).
    pub const ALL: [EccChoice; 5] = [
        EccChoice::Ecp6,
        EccChoice::Safer32,
        EccChoice::Aegis17x31,
        EccChoice::Secded,
        EccChoice::Coset,
    ];
}

impl std::fmt::Display for EccChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EccChoice::Ecp6 => write!(f, "ECP-6"),
            EccChoice::Safer32 => write!(f, "SAFER-32"),
            EccChoice::Aegis17x31 => write!(f, "Aegis 17x31"),
            EccChoice::Secded => write!(f, "SECDED"),
            EccChoice::EcpN(n) => write!(f, "ECP-{n}"),
            EccChoice::Coset => write!(f, "Coset-ECP6"),
        }
    }
}

/// Which inter-line wear-leveling scheme each bank runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WearChoice {
    /// Start-Gap (Qureshi et al., MICRO 2009) — the paper's default: one
    /// spare line per bank, gap rotation every ψ demand writes.
    StartGap,
    /// Security Refresh (Seong et al., ISCA 2010): XOR-key remapping with
    /// epoch-walk pair swaps; needs a power-of-two line count.
    SecurityRefresh,
    /// WoLFRaM (Khan et al., arXiv:2010.02825): programmable address
    /// decoder with keyed epoch permutations, hot-slot swaps, and spare
    /// lines that absorb retired (dead) lines.
    Wolfram,
}

impl WearChoice {
    /// Every registered wear scheme, Start-Gap first.
    pub const ALL: [WearChoice; 3] = [
        WearChoice::StartGap,
        WearChoice::SecurityRefresh,
        WearChoice::Wolfram,
    ];

    /// Physical lines a bank of `lines` logical lines needs under this
    /// scheme (Start-Gap's +1 gap line, WoLFRaM's spare pool, …).
    pub fn physical_lines(&self, lines: u64) -> u64 {
        match self {
            WearChoice::StartGap => lines + 1,
            WearChoice::SecurityRefresh => lines,
            WearChoice::Wolfram => lines + pcm_wear::wolfram::spare_lines(lines),
        }
    }

    /// Builds the scheme for a bank. `psi` is the wear-leveling period in
    /// demand writes. Schemes that randomize their remapping draw exactly
    /// one `u64` seed from `rng`; Start-Gap draws nothing, so default
    /// configurations consume the construction RNG stream exactly as they
    /// did before the trait existed.
    pub fn build<R: Rng + ?Sized>(&self, lines: u64, psi: u32, rng: &mut R) -> Box<dyn WearScheme> {
        match self {
            WearChoice::StartGap => Box::new(StartGap::new(lines, psi)),
            WearChoice::SecurityRefresh => {
                Box::new(SecurityRefresh::new(lines, psi, rng.next_u64()))
            }
            WearChoice::Wolfram => Box::new(Wolfram::new(lines, psi, rng.next_u64())),
        }
    }
}

impl std::fmt::Display for WearChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WearChoice::StartGap => write!(f, "Start-Gap"),
            WearChoice::SecurityRefresh => write!(f, "SecRef"),
            WearChoice::Wolfram => write!(f, "WoLFRaM"),
        }
    }
}

/// Full configuration of a simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Which of the four systems.
    pub kind: SystemKind,
    /// Hard-error scheme (paper default: ECP-6).
    pub ecc: EccChoice,
    /// Inter-line wear-leveling scheme (paper default: Start-Gap).
    pub wear: WearChoice,
    /// Compression heuristic thresholds (Fig. 8); `use_heuristic = false`
    /// compresses unconditionally (the naive scheme, for ablation).
    pub heuristic: CompressionHeuristic,
    /// Enables the Fig. 8 heuristic.
    pub use_heuristic: bool,
    /// Cell endurance distribution.
    pub endurance: EnduranceModel,
    /// Cell technology (SLC default; MLC-2 for the density ablation).
    pub tech: CellTech,
    /// Demand writes a line receives between two intra-line rotations
    /// (paper: a 16-bit counter per bank ≈ 2^10 writes per hot line).
    pub rotation_period: u64,
    /// Start-Gap gap-movement period ψ (used by the functional
    /// controller).
    pub start_gap_psi: u32,
    /// Period of the per-bank intra-line rotation counter in bank writes
    /// (paper: a 16-bit counter).
    pub bank_counter_period: u32,
    /// Compression-window placement granularity in bytes (power of two;
    /// the paper's 6-bit start pointer is byte-granular = 1).
    pub window_step: usize,
}

impl SystemConfig {
    /// Creates the paper's configuration of the given system.
    ///
    /// `Comp` and `Comp+W` use the paper's *naive* policy (every
    /// compressible write stored compressed); `Comp+WF` — "all our
    /// proposed schemes" — also enables the Fig. 8 bit-flip heuristic.
    /// The heuristic only pays with a generous `Threshold2` (see
    /// [`CompressionHeuristic::paper`] and the `ablation_heuristic`
    /// bench): tighter settings bounce blocks between compressed and
    /// uncompressed layouts, and the re-layout churn costs more flips
    /// than the fallback saves.
    pub fn new(kind: SystemKind) -> Self {
        SystemConfig {
            kind,
            ecc: EccChoice::Ecp6,
            wear: WearChoice::StartGap,
            heuristic: CompressionHeuristic::paper(),
            use_heuristic: matches!(kind, SystemKind::CompWF),
            endurance: EnduranceModel::paper(),
            tech: CellTech::Slc,
            rotation_period: 1024,
            start_gap_psi: 100,
            bank_counter_period: 1 << 16,
            window_step: 1,
        }
    }

    /// Overrides the mean cell endurance, keeping the CoV (small values
    /// make tests and examples fast).
    pub fn with_endurance_mean(mut self, mean: f64) -> Self {
        self.endurance = EnduranceModel::new(mean, self.endurance.cov());
        self
    }

    /// Overrides the endurance coefficient of variation (the paper's §V.C
    /// uses 0.25).
    pub fn with_endurance_cov(mut self, cov: f64) -> Self {
        self.endurance = EnduranceModel::new(self.endurance.mean(), cov);
        self
    }

    /// Overrides the hard-error scheme.
    pub fn with_ecc(mut self, ecc: EccChoice) -> Self {
        self.ecc = ecc;
        self
    }

    /// Overrides the inter-line wear-leveling scheme.
    ///
    /// `SecurityRefresh` needs a power-of-two per-bank line count; the
    /// other schemes accept any size.
    pub fn with_wear(mut self, wear: WearChoice) -> Self {
        self.wear = wear;
        self
    }

    /// Disables the Fig. 8 heuristic (the "naive" compression mode used by
    /// the Comp ablation).
    pub fn without_heuristic(mut self) -> Self {
        self.use_heuristic = false;
        self
    }

    /// Enables the Fig. 8 heuristic (on by default only for `Comp+WF`).
    pub fn with_heuristic(mut self) -> Self {
        self.use_heuristic = true;
        self
    }

    /// Overrides the window placement granularity (power of two bytes).
    pub fn with_window_step(mut self, step: usize) -> Self {
        self.window_step = step;
        self
    }

    /// Switches the cell technology (MLC-2 also switches to the MLC
    /// endurance band unless overridden afterwards).
    pub fn with_tech(mut self, tech: CellTech) -> Self {
        self.tech = tech;
        if tech == CellTech::Mlc2 && self.endurance == EnduranceModel::paper() {
            self.endurance = tech.default_endurance();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_capabilities() {
        assert!(!SystemKind::Baseline.compresses());
        assert!(SystemKind::Comp.compresses());
        assert!(!SystemKind::Comp.rotates());
        assert!(SystemKind::CompW.rotates());
        assert!(!SystemKind::CompW.slides());
        assert!(SystemKind::CompWF.slides());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(SystemKind::CompWF.to_string(), "Comp+WF");
        assert_eq!(SystemKind::CompW.to_string(), "Comp+W");
        assert_eq!(EccChoice::Safer32.to_string(), "SAFER-32");
    }

    #[test]
    fn builders_compose() {
        let cfg = SystemConfig::new(SystemKind::Comp)
            .with_endurance_mean(1e4)
            .with_endurance_cov(0.25)
            .with_ecc(EccChoice::Aegis17x31)
            .without_heuristic();
        assert_eq!(cfg.endurance.mean(), 1e4);
        assert_eq!(cfg.endurance.cov(), 0.25);
        assert_eq!(cfg.ecc, EccChoice::Aegis17x31);
        assert!(!cfg.use_heuristic);
    }

    #[test]
    fn ecc_choices_build() {
        use crate::registry::ecc_scheme;
        for ecc in [
            EccChoice::Ecp6,
            EccChoice::Safer32,
            EccChoice::Aegis17x31,
            EccChoice::Coset,
        ] {
            assert!(ecc_scheme(ecc).guaranteed() >= 6);
        }
        assert_eq!(ecc_scheme(EccChoice::Secded).guaranteed(), 1);
    }

    #[test]
    fn wear_choices_build_consistent_geometry() {
        let mut rng = pcm_util::seeded_rng(7);
        for wear in WearChoice::ALL {
            let scheme = wear.build(16, 8, &mut rng);
            assert_eq!(scheme.logical_lines(), 16, "{wear}");
            assert_eq!(
                scheme.physical_lines(),
                wear.physical_lines(16),
                "{wear}: geometry helper must match the built scheme"
            );
        }
    }

    #[test]
    fn start_gap_build_draws_no_seed() {
        // Default configurations must consume the construction RNG stream
        // exactly as the pre-trait controller did (bit-identity).
        let mut a = pcm_util::seeded_rng(9);
        let mut b = pcm_util::seeded_rng(9);
        let _ = WearChoice::StartGap.build(16, 8, &mut a);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
