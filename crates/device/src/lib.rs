//! PCM device model: cells, endurance, stuck-at faults, differential
//! writes, DIMM organization and DDR-style timing.
//!
//! This crate is the *substrate* under the DSN'17 paper's memory
//! controller: everything that lives on the PCM DIMM side of the bus.
//!
//! * [`dw`] — the chip-level **differential write** (read-modify-write)
//!   circuit: only bits that differ between old and new data are
//!   programmed, plus the optional **Flip-N-Write** enhancement.
//! * [`cell`] — per-cell endurance and wear: every cell draws its write
//!   endurance from `Normal(10^7, CoV·10^7)` and becomes *stuck-at* its
//!   current value once exhausted.
//! * [`organization`] — channels / DIMMs / ranks / 9-chip ECC ranks /
//!   banks, and the line-address interleaving across them (paper Fig. 2,
//!   Table II).
//! * [`timing`] — DDR3-style timing parameters from Table II.
//! * [`access`] — a per-bank, event-driven access-timing simulator with the
//!   paper's 8-entry read / 32-entry write queues, used for the §V.B
//!   performance-overhead analysis.
//!
//! # Examples
//!
//! ```
//! use pcm_device::dw::diff_write;
//! use pcm_util::Line512;
//!
//! let old = Line512::zero();
//! let new = Line512::ones();
//! assert_eq!(diff_write(&old, &new).flips(), 512);
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod cell;
pub mod dw;
pub mod energy;
pub mod organization;
pub mod timing;

pub use cell::{CellTech, EnduranceModel, LineWear, WriteOutcome};
pub use dw::{diff_write, DiffWrite, FlipNWrite};
pub use energy::EnergyModel;
pub use organization::{BankAddress, MemoryGeometry};
pub use timing::TimingParams;
