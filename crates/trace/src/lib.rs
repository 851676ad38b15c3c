//! Synthetic SPEC-like LLC write-back traces.
//!
//! The paper drives its lifetime simulator with Gem5 traces of 15
//! memory-intensive SPEC CPU2006 applications. SPEC inputs and a 16-core
//! Gem5 run are not reproducible here, so this crate substitutes a
//! *generative workload model* calibrated to the paper's own published
//! statistics (see DESIGN.md §3):
//!
//! * **Table III** — writes-per-kilo-instruction (WPKI) and compression
//!   ratio (CR) per application, with H/M/L compressibility classes;
//! * **Fig. 3** — best-of-BDI/FPC compressed sizes;
//! * **Fig. 6** — probability that consecutive writes to a block change
//!   compressed size (bzip2/gcc volatile, hmmer/milc stable);
//! * **Fig. 11** — the per-address compressed-size distribution (gcc
//!   spread out, milc bimodal).
//!
//! Each workload is a mixture of [content classes](content::ContentClass)
//! (zero blocks, narrow base-delta values, FPC-friendly small words, mixed,
//! random) over a Zipf-popular hot set of lines, with per-block temporal
//! state: on a rewrite, a block either *mutates* in place (same class, a
//! few words change — compressed size stays put) or *morphs* to a new class
//! (compressed size jumps). The morph probability is the paper's
//! "size-volatility" knob.
//!
//! [`calibrate`] measures the realized statistics and the test suite
//! asserts they match Table III.
//!
//! # Examples
//!
//! ```
//! use pcm_trace::{SpecApp, TraceGenerator};
//!
//! let mut generator = TraceGenerator::from_profile(SpecApp::Milc.profile(), 1024, 42);
//! let record = generator.next_write();
//! assert!(record.line < 1024);
//! ```

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod content;
pub mod generator;
pub mod profile;
pub mod record;
pub mod stream;

pub use content::ContentClass;
pub use generator::TraceGenerator;
pub use profile::{Compressibility, SpecApp, WorkloadProfile};
pub use record::{Access, AccessKind, Trace, WriteRecord};
pub use stream::BlockStream;
