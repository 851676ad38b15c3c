//! Experiment harness: regenerates every table and figure of the DSN'17
//! paper from the workspace's simulators.
//!
//! Every experiment lives behind the [`registry`]: a unit struct in
//! [`experiments`] implements [`Experiment`] (name, description, paper
//! anchor, scale knobs) and returns a typed [`Report`] — tables, series,
//! and notes under a manifest carrying seed, scale, app list, and
//! wall-clock. Shared emitters render each report as human text, long
//! TSV, or JSON; [`report::diff_reports`] compares a fresh run against a
//! tracked report within per-statistic tolerance bands.
//!
//! The `pcm-lab` binary is the single entry point: `list` prints the
//! registry, `run <name…>` executes experiments, `run-all [--jobs N]`
//! regenerates the whole `results/` directory with deterministic output
//! ordering, and `diff` re-runs tracked reports at their recorded
//! seed/scale and gates on the tolerance bands. All run commands accept:
//!
//! * `--quick` — reduced sample sizes for smoke runs,
//! * `--seed N` — override the campaign seed,
//! * `--apps a,b,c` — restrict to a subset of the 15 SPEC workloads.
//!
//! The only other binary is `pcm-bench-hotpath`, the kernel benchmark
//! harness (DESIGN.md §9), which has its own options and output format.

#![forbid(unsafe_code)]

pub mod cli;
pub mod experiments;
pub mod hotpath;
pub mod plot;
pub mod ratchet;
pub mod registry;
pub mod report;

pub use cli::Options;
pub use registry::{find, run_timed, Experiment, REGISTRY};
pub use report::Report;
