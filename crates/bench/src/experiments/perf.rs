//! §V.B: performance overhead of on-the-read-path decompression.

use crate::cli::Options;
use crate::registry::Experiment;
use crate::report::{Column, Report, Table, Value};
use pcm_compress::compress_best;
use pcm_core::line::{ManagedLine, Payload};
use pcm_core::perf::{perf_overhead, PerfConfig, PerfReport};
use pcm_core::{EccChoice, SystemConfig, SystemKind};
use pcm_trace::{BlockStream, SpecApp};
use pcm_util::child_seed;
use pcm_wear::IntraLineLeveler;

/// Runs the §V.B study for one workload.
pub fn perf_app(app: SpecApp, quick: bool, seed: u64) -> PerfReport {
    let mut cfg = PerfConfig::new(app.profile(), child_seed(seed, app as u64));
    if quick {
        cfg.lines = 512;
        cfg.accesses = 40_000;
    }
    perf_overhead(&cfg)
}

// --------------------------------------------------------- registry entries

/// §V.B registry entry.
pub(crate) struct PerfOverhead;

impl Experiment for PerfOverhead {
    fn name(&self) -> &'static str {
        "perf_overhead"
    }

    fn description(&self) -> &'static str {
        "read-latency and end-to-end overhead of on-the-read-path decompression"
    }

    fn anchor(&self) -> &'static str {
        "§V.B"
    }

    fn scale_summary(&self, quick: bool) -> String {
        if quick {
            "lines=512 accesses=40000".into()
        } else {
            "default PerfConfig".into()
        }
    }

    fn run(&self, opts: &Options) -> Report {
        let mut r = Report::new(self.manifest(opts));
        let mut t = Table::new(
            "Section V.B: performance overhead of decompression",
            "app",
            vec![
                Column::ratio("read_lat(cyc)", 0.95, 1.05),
                Column::ratio("queueing", 0.9, 1.1),
                Column::abs("comp_reads%", 3.0),
                Column::abs("decomp(ns)", 0.1),
                Column::abs("read_lat+%", 0.25),
                Column::abs("slowdown%", 0.05),
            ],
        );
        let mut worst_read = 0.0f64;
        let mut worst_slow = 0.0f64;
        for app in &opts.apps {
            let p = perf_app(*app, opts.quick, opts.seed);
            t.push(
                app.name(),
                vec![
                    Value::Num(p.base_read_latency_cycles, 1),
                    Value::Num(p.read_queueing_cycles, 1),
                    Value::Num(100.0 * p.compressed_read_fraction, 0),
                    Value::Num(p.avg_decompression_ns, 2),
                    Value::Num(p.read_latency_increase_pct, 2),
                    Value::Num(p.slowdown_pct, 3),
                ],
            );
            worst_read = worst_read.max(p.read_latency_increase_pct);
            worst_slow = worst_slow.max(p.slowdown_pct);
        }
        r.tables.push(t);
        r.note(format!(
            "worst read-latency increase {worst_read:.2}% (paper: up to ~2%), worst slowdown {worst_slow:.3}% (paper: < 0.3%)"
        ));
        r
    }
}

/// Metadata-update-rate registry entry (§III-B).
pub(crate) struct MetadataRates;

impl Experiment for MetadataRates {
    fn name(&self) -> &'static str {
        "metadata_rates"
    }

    fn description(&self) -> &'static str {
        "writes between metadata changes: start pointer, encoding, size fields"
    }

    fn anchor(&self) -> &'static str {
        "§III-B"
    }

    fn scale_summary(&self, quick: bool) -> String {
        format!("writes={}", if quick { 20_000 } else { 100_000 })
    }

    fn run(&self, opts: &Options) -> Report {
        let writes = if opts.quick { 20_000 } else { 100_000 };
        let cfg = SystemConfig::new(SystemKind::CompWF);
        let mut r = Report::new(self.manifest(opts));
        let mut t = Table::new(
            "Metadata update intervals (writes between changes), Comp+WF",
            "app",
            vec![
                Column::exact("writes"),
                Column::ratio("start_ptr_every", 0.9, 1.1),
                Column::ratio("encoding_every", 0.9, 1.1),
                Column::ratio("size_every", 0.9, 1.1),
            ],
        );
        for app in &opts.apps {
            let mut line = ManagedLine::with_endurance(vec![u32::MAX; 512]);
            let mut leveler = IntraLineLeveler::new(cfg.rotation_period as u32, 1);
            let mut stream = BlockStream::new(app.profile(), child_seed(opts.seed, *app as u64));
            for _ in 0..writes {
                let data = stream.next_data();
                let c = compress_best(&data);
                line.write(
                    EccChoice::Ecp6,
                    Payload {
                        method: c.method(),
                        bytes: c.bytes(),
                    },
                    leveler.offset(),
                    true,
                    cfg.window_step,
                )
                .expect("healthy line");
                leveler.note_write();
            }
            let m = line.meta_updates();
            let every = |n: u64| {
                if n == 0 {
                    Value::Text("never".into())
                } else {
                    Value::Num(m.writes as f64 / n as f64, 0)
                }
            };
            t.push(
                app.name(),
                vec![
                    Value::Int(m.writes as i64),
                    every(m.start_pointer),
                    every(m.encoding),
                    every(m.size),
                ],
            );
        }
        r.tables.push(t);
        r.note("paper: start pointer ~ every 2^10 line writes; coding bits every 4-5 writes");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_match_paper_magnitudes() {
        // Paper: reads delayed up to ~2% on average, slowdown < 0.3%.
        let mut worst_read = 0.0f64;
        let mut worst_slowdown = 0.0f64;
        for app in [SpecApp::Milc, SpecApp::Sjeng, SpecApp::Lbm, SpecApp::Gcc] {
            let r = perf_app(app, true, 3);
            worst_read = worst_read.max(r.read_latency_increase_pct);
            worst_slowdown = worst_slowdown.max(r.slowdown_pct);
        }
        assert!(worst_read < 3.0, "read latency increase {worst_read:.2}%");
        assert!(worst_slowdown < 1.0, "slowdown {worst_slowdown:.2}%");
    }
}
