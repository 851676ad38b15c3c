//! The DSN'17 collaborative compression + hard-error tolerance PCM design.
//!
//! This crate is the paper's primary contribution: a memory controller that
//! stores LLC write-backs *compressed* in a sliding **compression window**,
//! and uses that window to collaborate with differential writes, intra-line
//! wear-leveling, and hard-error tolerance:
//!
//! * [`heuristic`] — the saturating-counter compression heuristic (Fig. 8)
//!   that avoids compressing blocks whose compressed size fluctuates (which
//!   would *increase* bit flips under differential writes);
//! * [`meta`] — the 13-bit per-line metadata (6-bit window start pointer,
//!   5-bit encoding, 2-bit saturating counter, §III-B);
//! * [`window`] — wrapped-window placement and the fault-dodging window
//!   search of Comp+WF (§III-A);
//! * [`line`](mod@line) — [`ManagedLine`]: one physical line's full write/read
//!   machinery (compression window + ECC encode/decode + wear + fault
//!   verify-and-retry);
//! * [`controller`] — [`PcmMemory`]: a functional whole-memory model with
//!   Start-Gap, per-bank intra-line wear-leveling, and dead-block
//!   resurrection;
//! * [`lifetime`] — the trace-driven lifetime simulator, both a direct
//!   write-by-write replay and an accelerated segment-sampled engine
//!   (Figs. 10/12/13, Table IV);
//! * [`perf`] — the decompression-latency performance study (§V.B);
//! * [`system`] — the four evaluated configurations: `Baseline`, `Comp`,
//!   `Comp+W`, `Comp+WF` (§IV);
//! * [`verify`] — the deterministic fault-injection churn harness and the
//!   replay-vs-engine differential oracle (DESIGN.md "Verification").
//!
//! # Examples
//!
//! ```
//! use pcm_core::{PcmMemory, SystemConfig, SystemKind};
//! use pcm_util::Line512;
//!
//! let cfg = SystemConfig::new(SystemKind::CompWF).with_endurance_mean(10_000.0);
//! let mut mem = PcmMemory::new(cfg, 64, 42);
//! let data = Line512::from_fn(|i| i % 7 == 0);
//! mem.write(3, data).unwrap();
//! assert_eq!(mem.read(3).unwrap(), data);
//! ```

#![forbid(unsafe_code)]

pub mod bank;
pub mod controller;
pub mod heuristic;
pub mod lifetime;
pub mod line;
pub mod meta;
mod payload;
pub mod perf;
pub mod registry;
pub mod system;
pub mod verify;
pub mod window;

pub use bank::BankCtl;
pub use controller::{MemoryStats, PcmMemory, WriteError, WriteReport};
pub use heuristic::{CompressionHeuristic, Decision};
pub use line::{LineWriteReport, ManagedLine, MetaUpdateCounts};
pub use meta::LineMetadata;
pub use registry::StackSpec;
pub use system::{EccChoice, SystemConfig, SystemKind, WearChoice};
