//! The `gridrm-lint` binary: scan the workspace, report.
//!
//! ```text
//! gridrm-lint [--check] [--json] [--root <dir>]
//! ```
//!
//! * default / `--check` — fail (exit 1) on any finding without a
//!   waiver.
//! * `--json` — the findings as JSON on stdout, exit 0.

use gridrm_xlint::{scan_workspace, Config};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
}

const USAGE: &str = "gridrm-lint [--check] [--json] [--root <dir>]";

/// `Ok(None)` means `--help` was asked for: print [`USAGE`] and stop.
fn parse_args() -> Result<Option<Args>, String> {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {}
            "--json" => json = true,
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    Ok(Some(Args { root, json }))
}

/// Walk upward from the current directory to the directory holding a
/// `[workspace]` manifest.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if std::fs::read_to_string(dir.join("Cargo.toml"))
            .map(|t| t.contains("[workspace]"))
            .unwrap_or(false)
        {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("gridrm-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let findings = match scan_workspace(&args.root, &Config::workspace()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("gridrm-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if args.json {
        return match serde_json::to_string_pretty(&findings) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("gridrm-lint: {e}");
                ExitCode::from(2)
            }
        };
    }

    if findings.is_empty() {
        println!("gridrm-lint: OK — no findings");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("FAIL: {f}");
    }
    eprintln!(
        "gridrm-lint: {} finding(s) — fix them or add \
         `xlint: allow(<rule>) -- <reason>` comment waivers (see docs/static-analysis.md)",
        findings.len()
    );
    ExitCode::FAILURE
}
