//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--serve-bin PATH] [--run-dir DIR]`
//!
//! Prints each metric with its unit, then one JSON result line. Exits 2 on
//! bad arguments and 1 when the workload cannot run.

use pcm_perfbench::report::Report;
use pcm_perfbench::workloads::{self, Args, DEFAULT_SEED};
use std::path::PathBuf;

const USAGE: &str = "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--serve-bin PATH] [--run-dir DIR]";

fn parse_args<I: Iterator<Item = String>>(mut it: I) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::from("target/release/pcm-serve"),
        run_dir: PathBuf::from("target/perfbench"),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--run-dir" => args.run_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !workloads::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}\nusage: {USAGE}");
        std::process::exit(2);
    });
    let mut report = Report::new();
    if let Err(e) = workloads::run(&args, &mut report) {
        eprintln!("error: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    report.print();
}
