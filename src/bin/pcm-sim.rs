//! `pcm-sim` — the workspace's command-line front end.
//!
//! ```text
//! pcm-sim lifetime   --app milc --system compwf [--lines 96] [--endurance 2e4] [--cov 0.15] [--ecc ecp6] [--samples 16]
//! pcm-sim montecarlo --ecc safer32 --window 32 --errors 24 [--injections 10000]
//! pcm-sim compress   --app gcc [--writes 10000]
//! pcm-sim stress     --app milc --system compwf [--lines 64] [--writes 50000] [--endurance 1e4]
//! pcm-sim trace      --app milc --out trace.bin [--writes 10000] [--lines 256]
//! pcm-sim replay     --in trace.bin --system baseline [--endurance 1e4]
//! ```
//!
//! Every subcommand accepts `--seed N` (default 2017) and prints a short,
//! tab-separated report. A malformed or out-of-range value is a usage
//! error (exit 2) that names the flag.

use collab_pcm::compress::compress_best;
use collab_pcm::core::lifetime::{run_campaign, CampaignConfig, LineSimConfig};
use collab_pcm::core::registry::{ecc_scheme, parse_ecc, parse_kind, parse_wear};
use collab_pcm::core::{EccChoice, PcmMemory, SystemConfig, SystemKind, WearChoice};
use collab_pcm::ecc::montecarlo::{failure_probability, MonteCarlo};
use collab_pcm::trace::calibrate::compression_stats;
use collab_pcm::trace::{profile::ALL_APPS, SpecApp, Trace, TraceGenerator};
use std::collections::HashMap;
use std::fmt::Display;
use std::ops::{Bound, RangeBounds};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage("missing subcommand");
    };
    let opts = Opts::parse(rest);
    match command.as_str() {
        "lifetime" => lifetime(&opts),
        "montecarlo" => montecarlo(&opts),
        "compress" => compress(&opts),
        "stress" => stress(&opts),
        "trace" => trace(&opts),
        "replay" => replay(&opts),
        "--help" | "-h" | "help" => usage(""),
        other => usage(&format!("unknown subcommand '{other}'")),
    }
}

/// Parsed flag set (stringly typed; each subcommand pulls what it needs).
struct Opts {
    flags: HashMap<String, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Self {
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                usage(&format!("expected a --flag, got '{flag}'"));
            };
            let Some(value) = it.next() else {
                usage(&format!("--{name} needs a value"));
            };
            flags.insert(name.to_string(), value.clone());
        }
        Opts { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad value for --{name}"))),
        }
    }

    /// [`num`](Self::num), which must also lie in `range`.
    fn num_in<T, R>(&self, name: &str, default: T, range: R) -> T
    where
        T: std::str::FromStr + PartialOrd + Display,
        R: RangeBounds<T>,
    {
        let value = self.num(name, default);
        if !range.contains(&value) {
            let want = match (range.start_bound(), range.end_bound()) {
                (Bound::Included(lo), Bound::Included(hi)) => format!("in {lo}..={hi}"),
                (Bound::Included(lo), _) => format!("at least {lo}"),
                (_, Bound::Included(hi)) => format!("at most {hi}"),
                _ => "in range".to_string(),
            };
            usage(&format!("--{name} must be {want}, got {value}"));
        }
        value
    }

    fn endurance(&self, default: f64) -> f64 {
        self.num_in("endurance", default, 1.0..)
    }

    fn seed(&self) -> u64 {
        self.num("seed", 2017)
    }

    fn app(&self) -> SpecApp {
        let name = self
            .get("app")
            .unwrap_or_else(|| usage("--app is required"));
        ALL_APPS
            .iter()
            .copied()
            .find(|a| a.name().eq_ignore_ascii_case(name))
            .unwrap_or_else(|| usage(&format!("unknown app '{name}'")))
    }

    fn system(&self) -> SystemKind {
        parse_kind(self.get("system").unwrap_or("compwf")).unwrap_or_else(|e| usage(&e))
    }

    fn ecc(&self) -> EccChoice {
        parse_ecc(self.get("ecc").unwrap_or("ecp6")).unwrap_or_else(|e| usage(&e))
    }

    fn wear(&self) -> WearChoice {
        parse_wear(self.get("wear").unwrap_or("startgap")).unwrap_or_else(|e| usage(&e))
    }

    fn system_config(&self) -> SystemConfig {
        SystemConfig::new(self.system())
            .with_endurance_mean(self.endurance(2e4))
            .with_endurance_cov(self.num_in("cov", 0.15, 0.0..))
            .with_ecc(self.ecc())
            .with_wear(self.wear())
    }
}

fn lifetime(opts: &Opts) {
    let app = opts.app();
    let mut line = LineSimConfig::new(opts.system_config(), app.profile());
    line.sample_writes = opts.num_in("samples", 16u32, 1..);
    let mut cfg = CampaignConfig::new(line, opts.seed());
    cfg.lines = opts.num_in("lines", 96usize, 1..);
    let r = run_campaign(&cfg);
    println!("app\t{}", app.name());
    println!("system\t{}", opts.system());
    println!("lifetime_writes_per_line\t{}", r.lifetime_writes());
    if let Some((lo, hi)) = r.half_capacity_ci {
        println!("lifetime_ci90\t[{lo}, {hi}]");
    }
    println!("mean_flips_per_write\t{:.1}", r.mean_flips_per_write);
    println!(
        "faults_at_death_mean\t{:.1}",
        r.mean_faults_at_death.unwrap_or(0.0)
    );
    println!("lines_revived\t{:.0}%", 100.0 * r.lines_revived);
    println!(
        "months_at_1e7\t{:.1}",
        r.months(app.profile().wpki, 1e7 / opts.endurance(2e4))
    );
}

fn montecarlo(opts: &Opts) {
    let scheme = ecc_scheme(opts.ecc());
    let window: usize = opts.num_in("window", 32, 1..=64);
    let errors: usize = opts.num_in("errors", 16, ..=512);
    let mc = MonteCarlo {
        injections: opts.num_in("injections", 10_000usize, 1..),
        seed: opts.seed(),
        threads: 0,
    };
    let p = failure_probability(scheme, window, errors, &mc);
    println!("scheme\t{}", scheme.name());
    println!("window_bytes\t{window}");
    println!("errors\t{errors}");
    println!("failure_probability\t{p:.4}");
}

fn compress(opts: &Opts) {
    let app = opts.app();
    let mut generator = TraceGenerator::from_profile(app.profile(), 512, opts.seed());
    let stats = compression_stats(&mut generator, opts.num_in("writes", 10_000usize, 1..));
    println!("app\t{}", app.name());
    println!("bdi_mean_bytes\t{:.1}", stats.bdi_mean);
    println!("fpc_mean_bytes\t{:.1}", stats.fpc_mean);
    println!("best_mean_bytes\t{:.1}", stats.best_mean);
    println!("compression_ratio\t{:.2}", stats.cr);
    println!("uncompressed_fraction\t{:.2}", stats.uncompressed_fraction);
}

fn stress(opts: &Opts) {
    let app = opts.app();
    let lines: u64 = opts.num_in("lines", 64, 2..);
    let writes: u64 = opts.num("writes", 50_000);
    let mut memory = PcmMemory::new(
        opts.system_config()
            .with_endurance_mean(opts.endurance(1e4)),
        lines,
        opts.seed(),
    );
    let mut generator = TraceGenerator::from_profile(app.profile(), lines, opts.seed() ^ 1);
    let mut failed_writes = 0u64;
    for _ in 0..writes {
        let w = generator.next_write();
        if memory.write(w.line, w.data).is_err() {
            failed_writes += 1;
        }
        if memory.is_failed() {
            break;
        }
    }
    let s = memory.stats();
    println!("demand_writes\t{}", s.demand_writes);
    println!("failed_writes\t{failed_writes}");
    println!("gap_moves\t{}", s.gap_moves);
    println!("total_flips\t{}", s.total_flips);
    println!("cells_stuck\t{}", s.new_faults);
    println!("compressed_writes\t{}", s.compressed_writes);
    println!("resurrections\t{}", s.resurrections);
    println!("dead_fraction\t{:.3}", memory.dead_fraction());
}

fn trace(opts: &Opts) {
    let app = opts.app();
    let out = opts
        .get("out")
        .unwrap_or_else(|| usage("--out is required"));
    let lines: u64 = opts.num_in("lines", 256, 1..);
    let writes: usize = opts.num("writes", 10_000);
    let mut generator = TraceGenerator::from_profile(app.profile(), lines, opts.seed());
    let trace = generator.generate(writes);
    std::fs::write(out, trace.to_bytes()).unwrap_or_else(|e| {
        eprintln!("error: cannot write {out}: {e}");
        exit(1);
    });
    println!("wrote\t{out}");
    println!("records\t{}", trace.len());
    println!("bytes\t{}", 8 + trace.len() * 72);
}

fn replay(opts: &Opts) {
    let input = opts.get("in").unwrap_or_else(|| usage("--in is required"));
    let bytes = std::fs::read(input).unwrap_or_else(|e| {
        eprintln!("error: cannot read {input}: {e}");
        exit(1);
    });
    let trace = Trace::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("error: malformed trace: {e}");
        exit(1);
    });
    let lines = trace
        .iter()
        .map(|r| r.line)
        .max()
        .map(|m| m + 1)
        .unwrap_or(2)
        .max(2);
    let mut memory = PcmMemory::new(
        opts.system_config()
            .with_endurance_mean(opts.endurance(1e4)),
        lines,
        opts.seed(),
    );
    let mut failed = 0u64;
    let mut compressed_bytes = 0u64;
    for r in &trace {
        compressed_bytes += compress_best(&r.data).size() as u64;
        if memory.write(r.line, r.data).is_err() {
            failed += 1;
        }
    }
    let s = memory.stats();
    println!("records\t{}", trace.len());
    println!("failed_writes\t{failed}");
    println!("total_flips\t{}", s.total_flips);
    println!(
        "mean_cr\t{:.2}",
        compressed_bytes as f64 / (trace.len() as f64 * 64.0)
    );
    println!("dead_fraction\t{:.3}", memory.dead_fraction());
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "pcm-sim — DSN'17 collaborative-compression PCM simulator\n\n\
         subcommands:\n\
         \x20 lifetime   --app APP [--system S] [--lines N] [--endurance E] [--cov C] [--ecc E] [--samples N]\n\
         \x20 montecarlo [--ecc E] [--window B] [--errors K] [--injections N]\n\
         \x20 compress   --app APP [--writes N]\n\
         \x20 stress     --app APP [--system S] [--lines N] [--writes N] [--endurance E]\n\
         \x20 trace      --app APP --out FILE [--writes N] [--lines N]\n\
         \x20 replay     --in FILE [--system S] [--endurance E]\n\n\
         systems: baseline | comp | compw | compwf\n\
         ecc:     ecp6 | ecpN (N in 1..=51) | safer32 | aegis | secded | coset\n\
         wear:    startgap | secref | wolfram  (--wear, default startgap)\n\
         apps:    {}",
        ALL_APPS.map(|a| a.name()).join(" ")
    );
    exit(if msg.is_empty() { 0 } else { 2 });
}
