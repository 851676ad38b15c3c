//! `perfbench`: the repository benchmark.
//!
//! Four workloads run the system's public entry points — lifetime
//! campaigns, the Fig. 9 Monte-Carlo, and the `pcm-serve` binary over a
//! Unix socket — and print end-to-end metrics; a traced run (`--trace 1`)
//! times the benchmark's own calls into each layer instead. See
//! `NOTES.md` for why each workload exists and what each metric predicts.

pub mod clock;
pub mod layers;
pub mod lifetime;
pub mod mc;
pub mod report;
pub mod serve;
pub mod workloads;
