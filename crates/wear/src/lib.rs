//! Wear-leveling for PCM main memory.
//!
//! Two levels, matching the paper's stack (§II-C, §III-A.2):
//!
//! * [`StartGap`] — **inter-line** wear-leveling (Qureshi et al., MICRO
//!   2009): one spare "gap" line per region plus `Start`/`Gap` registers;
//!   every ψ writes the gap migrates one slot, slowly rotating the
//!   logical-to-physical line mapping so hot lines spread their writes over
//!   all physical lines. The paper's baseline (and every evaluated system)
//!   uses Start-Gap.
//! * [`IntraLineLeveler`] — **intra-line** wear-leveling, the paper's own
//!   addition (§III-A.2): a single 16-bit counter per *bank* (not per
//!   line); each time it saturates, the compression-window start rotates by
//!   one byte, spreading the compressed payload's bit flips over the whole
//!   64-byte line without per-line counters.
//!
//! Every inter-line engine implements the [`WearScheme`] trait (remap +
//! write events + optional fault redirect), so the controller composes
//! with [`StartGap`], [`SecurityRefresh`], or [`Wolfram`]
//! interchangeably — see `scheme`.
//!
//! # Examples
//!
//! ```
//! use pcm_wear::StartGap;
//!
//! let mut sg = StartGap::new(8, 4); // 8 logical lines, gap moves every 4 writes
//! let before = sg.map(3);
//! for _ in 0..64 { sg.on_write(); }
//! // After enough gap movements the mapping has rotated.
//! assert_ne!(sg.map(3), before);
//! ```

#![forbid(unsafe_code)]

pub(crate) mod intra_line;
pub mod scheme;
pub(crate) mod security_refresh;
pub(crate) mod start_gap;
pub mod wolfram;

pub use intra_line::IntraLineLeveler;
pub use scheme::{WearEvent, WearScheme};
pub use security_refresh::SecurityRefresh;
pub use start_gap::{GapMove, StartGap};
pub use wolfram::Wolfram;
