//! `pcm-lab`: the single entry point to the experiment registry.
//!
//! * `pcm-lab list` — every experiment with its paper anchor and scale,
//! * `pcm-lab run <name…> [--format text|json]` — run and print,
//! * `pcm-lab run-all [--jobs N] [--out-dir DIR]` — run the whole
//!   registry (thread-pool workers, deterministic output order) and write
//!   `results/<name>.txt` + `results/<name>.json`,
//! * `pcm-lab diff [--dir DIR] [name…]` — re-run each tracked report at
//!   its recorded seed/scale and compare within per-statistic tolerance
//!   bands, exiting non-zero on any mismatch.
//!
//! All run commands also accept the standard experiment options
//! (`--quick`, `--seed N`, `--apps a,b,c`).

use pcm_bench::cli::{lookup_app, CliError, Options, USAGE};
use pcm_bench::report::diff_reports;
use pcm_bench::{find, run_timed, Report, REGISTRY};
use pcm_util::Pool;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: pcm-lab <command> [args]\n\
         \n\
         commands:\n\
         \x20 list                         list every registered experiment\n\
         \x20 run <name…> [--format F]     run experiments, print to stdout (F: text|json)\n\
         \x20 run-all [--jobs N] [--out-dir DIR]\n\
         \x20                              run the whole registry, write DIR/<name>.txt|.json\n\
         \x20 diff [--dir DIR] [name…]     re-run tracked reports, compare within tolerances\n\
         \n\
         experiment options (run, run-all): {USAGE}\n\
         diff re-runs each experiment at the seed/scale recorded in its tracked report."
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "list" => cmd_list(rest),
        "run" => cmd_run(rest),
        "run-all" => cmd_run_all(rest),
        "diff" => cmd_diff(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command '{other}'\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Splits a command's arguments into its own `(flag, value)` pairs, bare
/// experiment names, and the pass-through experiment options.
fn split_args(
    args: &[String],
    value_flags: &[&str],
) -> Result<(Vec<(String, String)>, Vec<String>, Options), String> {
    let mut own = Vec::new();
    let mut names = Vec::new();
    let mut opt_args = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if value_flags.contains(&arg.as_str()) {
            let v = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
            own.push((arg.clone(), v.clone()));
        } else if matches!(arg.as_str(), "--seed" | "--apps") {
            opt_args.push(arg.clone());
            if let Some(v) = it.next() {
                opt_args.push(v.clone());
            }
        } else if arg.starts_with('-') {
            // --quick, --help, and anything unknown: Options::parse decides.
            opt_args.push(arg.clone());
        } else {
            names.push(arg.clone());
        }
    }
    let opts = Options::parse(opt_args).map_err(|e| match e {
        CliError::Help => usage(),
        CliError::Invalid(msg) => format!("error: {msg}\n\n{}", usage()),
    })?;
    Ok((own, names, opts))
}

fn resolve(names: &[String]) -> Result<Vec<&'static dyn pcm_bench::Experiment>, String> {
    names
        .iter()
        .map(|n| {
            find(n).ok_or_else(|| {
                format!("unknown experiment '{n}' (see `pcm-lab list` for the registry)")
            })
        })
        .collect()
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let (_, names, _) = split_args(args, &[])?;
    if !names.is_empty() {
        return Err(format!("list takes no experiment names, got {names:?}"));
    }
    println!("{} experiments registered:\n", REGISTRY.len());
    for e in REGISTRY {
        println!("{:24} {:10} {}", e.name(), e.anchor(), e.description());
        println!(
            "{:24} {:10} scale: {} (quick: {})",
            "",
            "",
            e.scale_summary(false),
            e.scale_summary(true)
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let (own, names, opts) = split_args(args, &["--format"])?;
    let format = own.last().map_or("text", |(_, f)| f.as_str());
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown format '{format}' (text|json)"));
    }
    if names.is_empty() {
        return Err(format!(
            "run needs at least one experiment name\n\n{}",
            usage()
        ));
    }
    for exp in resolve(&names)? {
        let report = run_timed(exp, &opts);
        match format {
            "text" => print!("{}", report.to_text()),
            _ => print!("{}", report.to_json()),
        }
    }
    Ok(())
}

fn cmd_run_all(args: &[String]) -> Result<(), String> {
    let (own, names, opts) = split_args(args, &["--jobs", "--out-dir"])?;
    if !names.is_empty() {
        return Err(format!("run-all takes no experiment names, got {names:?}"));
    }
    let mut jobs = 0usize; // 0: let the pool resolve available parallelism
    let mut out_dir: Option<PathBuf> = None;
    for (flag, value) in own {
        match flag.as_str() {
            "--jobs" => {
                jobs = value
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a positive integer, got '{value}'"))?;
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => unreachable!(),
        }
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    }

    let n = REGISTRY.len();
    let total_start = std::time::Instant::now();

    // Experiments drain from the shared pool; the consumer prints (and
    // writes files) in registry order so the output is deterministic
    // regardless of which worker finishes first. Campaigns inside an
    // experiment see `Pool::in_worker()` and run serially — the outer pool
    // already owns the machine's parallelism.
    let mut write_err: Option<String> = None;
    Pool::new(jobs).run_ordered(
        n,
        |i| run_timed(REGISTRY[i], &opts),
        |i, report| {
            println!(
                "[{:2}/{n}] {:24} {:>9.1} ms  {}",
                i + 1,
                REGISTRY[i].name(),
                report.manifest.wall_ms,
                report.summary()
            );
            if let Some(dir) = &out_dir {
                if write_err.is_none() {
                    write_err = write_report(dir, &report).err();
                }
            }
        },
    );
    if let Some(e) = write_err {
        return Err(e);
    }

    println!(
        "{n} experiments in {:.1} s{}",
        total_start.elapsed().as_secs_f64(),
        out_dir
            .as_deref()
            .map(|d| format!(", reports in {}", d.display()))
            .unwrap_or_default()
    );
    Ok(())
}

fn write_report(dir: &Path, report: &Report) -> Result<(), String> {
    let name = &report.manifest.experiment;
    for (ext, payload) in [("txt", report.to_text()), ("json", report.to_json())] {
        let path = dir.join(format!("{name}.{ext}"));
        std::fs::write(&path, payload).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let (own, names, opts) = split_args(args, &["--dir"])?;
    if opts != Options::default() {
        return Err(
            "diff takes its seed/scale/apps from each tracked report's manifest; \
             --quick/--seed/--apps are not accepted"
                .into(),
        );
    }
    let mut dir = PathBuf::from("results");
    for (flag, value) in own {
        if flag == "--dir" {
            dir = PathBuf::from(value);
        }
    }
    let targets = if names.is_empty() {
        REGISTRY.to_vec()
    } else {
        resolve(&names)?
    };

    let mut failures = Vec::new();
    for exp in targets {
        let path = dir.join(format!("{}.json", exp.name()));
        let tracked = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {path:?}: {e}"))
            .and_then(|text| {
                Report::from_json(&text).map_err(|e| format!("cannot parse {path:?}: {e}"))
            });
        let tracked = match tracked {
            Ok(t) => t,
            Err(msg) => {
                println!("FAIL {msg}");
                failures.push(exp.name().to_string());
                continue;
            }
        };
        // Reproduce the tracked run: same seed, same scale, same apps.
        let apps: Result<Vec<_>, _> = tracked
            .manifest
            .apps
            .iter()
            .map(|a| lookup_app(a))
            .collect();
        let apps = match apps {
            Ok(apps) => apps,
            Err(e) => {
                println!("FAIL {}: bad tracked app list: {e}", exp.name());
                failures.push(exp.name().to_string());
                continue;
            }
        };
        let run_opts = Options {
            quick: tracked.manifest.quick,
            seed: tracked.manifest.seed,
            apps,
        };
        let fresh = run_timed(exp, &run_opts);
        let diff = diff_reports(&tracked, &fresh);
        if diff.passed() {
            println!(
                "ok   {:24} {} statistic(s) within tolerance ({:.1} ms)",
                exp.name(),
                diff.compared,
                fresh.manifest.wall_ms
            );
        } else {
            println!("FAIL {}", diff.describe());
            failures.push(exp.name().to_string());
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} experiment(s) out of tolerance: {}",
            failures.len(),
            failures.join(", ")
        ))
    }
}
