//! Trace-driven lifetime simulation (paper §IV "Fault model", Figs. 10,
//! 12, 13, Table IV).
//!
//! The paper replays a Gem5 write-back trace into a lightweight lifetime
//! simulator until 50% of memory capacity is worn out. Replaying at the
//! real 10⁷ endurance takes ~10⁷ × trace-length writes, so this module
//! provides two engines:
//!
//! * [`replay`] — **direct replay** through the functional
//!   [`PcmMemory`](crate::PcmMemory): every write simulated
//!   cell-accurately. Exact but only practical at small endurance; used to
//!   cross-validate the accelerated engine.
//! * [`linesim`] / [`campaign`] — the **accelerated engine**: each physical
//!   line is simulated independently (Start-Gap equalizes long-run
//!   inter-line traffic, so lines are statistically exchangeable). Writes
//!   are simulated in *segments*: a handful of real writes establish the
//!   per-cell flip pattern of the line's current (block, window, rotation,
//!   fault) state, and the remaining writes of the segment are
//!   fast-forwarded analytically onto the per-cell wear counters. Block
//!   relocations (inter-line wear-leveling) swap in a fresh block and give
//!   dead lines their resurrection chance, exactly as §III-A.3 describes.
//!
//! Lifetime is reported in *per-line demand writes to 50% dead capacity*;
//! [`campaign::LifetimeResult`] converts to normalized lifetime (Fig. 10)
//! and months (Table IV).

pub mod campaign;
pub mod linesim;
pub mod mix;
pub mod replay;

pub use campaign::{run_campaign, run_campaign_on, CampaignConfig, LifetimeResult};
pub use linesim::{
    simulate_line, simulate_line_batch, simulate_line_with, LineRecord, LineScratch, LineSimConfig,
};
pub use mix::{run_mixed_campaign, WorkloadMix};
pub use replay::{replay_to_failure, ReplayConfig, ReplayResult};
