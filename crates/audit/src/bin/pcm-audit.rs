//! CLI for the workspace determinism & hygiene audit.
//!
//! Exit status: 0 when no finding is left after the inline pragmas, 1 on
//! findings, 2 on usage or I/O errors, a closed stdout included. The
//! report is deterministic — byte-identical across runs and `--jobs`
//! settings — so the gate can diff it.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
pcm-audit — workspace-wide determinism & hygiene lints (DESIGN.md §11)

USAGE:
    pcm-audit [OPTIONS]

OPTIONS:
    --root <DIR>    workspace root to audit [default: .]
    --jobs <N>      worker threads for file checks [default: 1]
    --json          machine-readable JSON report instead of text
    --list-rules    print the rule table and exit
    -h, --help      print this help and exit

The only way to silence a finding is an inline pragma on its line or the
line above:
    // pcm-audit: allow(<rule>) — <reason>
Exit codes: 0 clean, 1 findings, 2 usage/IO error.";

struct Args {
    root: PathBuf,
    jobs: usize,
    json: bool,
    list_rules: bool,
    help: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        jobs: 1,
        json: false,
        list_rules: false,
        help: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value (see --help)"))
        };
        match arg.as_str() {
            "--root" => args.root = PathBuf::from(value("--root")?),
            "--jobs" => {
                let v = value("--jobs")?;
                args.jobs = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a positive integer, got '{v}'"))?;
            }
            "--json" => args.json = true,
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => {
                args.help = true;
                break;
            }
            other => return Err(format!("unknown argument '{other}' (see --help)")),
        }
    }
    Ok(args)
}

/// The rule table: one row per rule, the scope column aligned after the
/// longest rule id.
fn rule_table() -> String {
    let width = pcm_audit::RULES
        .iter()
        .map(|r| r.id.len())
        .max()
        .unwrap_or(0);
    let mut table = format!("{:<width$} {:<10} summary\n", "rule", "scope");
    for r in pcm_audit::RULES {
        let scope = match r.scope {
            pcm_audit::rules::Scope::File => "file",
            pcm_audit::rules::Scope::Workspace => "workspace",
        };
        let summary = r.summary.split_whitespace().collect::<Vec<_>>().join(" ");
        table += &format!("{:<width$} {scope:<10} {summary}\n", r.id);
    }
    table
}

/// Writes `text` to stdout; a failed write (a closed pipe, a full disk)
/// is an I/O error, not a panic.
fn emit(text: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    out.write_all(text.as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write to stdout: {e}"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.help {
        emit(&format!("{USAGE}\n"))?;
        return Ok(true);
    }
    if args.list_rules {
        emit(&rule_table())?;
        return Ok(true);
    }

    let report = pcm_audit::scan(&args.root, args.jobs)?;
    if args.json {
        emit(&pcm_audit::render_json(&report))?;
    } else {
        emit(&pcm_audit::render(&report))?;
    }
    Ok(report.findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("pcm-audit: {msg}");
            ExitCode::from(2)
        }
    }
}
