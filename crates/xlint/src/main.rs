//! The `gridrm-lint` binary: scan the workspace, diff against the
//! committed wire-schema fingerprint, report.
//!
//! ```text
//! gridrm-lint [--check] [--json] [--update-wire-schema] [--root <dir>]
//!             [--schema <file>]
//! ```
//!
//! * default / `--check` — fail (exit 1) on any finding without a
//!   waiver, on incompatible wire-schema evolution, or on wire-schema
//!   drift that needs a fingerprint refresh.
//! * `--json` — the findings as JSON on stdout, exit 0.
//! * `--update-wire-schema` — rewrite `xlint-wire-schema.json` from a
//!   fresh scan (only after reviewing the diff for compatibility!).

use gridrm_xlint::schema::{build_schema, diff_schema, WireSchema};
use gridrm_xlint::{apply_file_waivers, parse_workspace, scan_files, Config};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    schema: PathBuf,
    json: bool,
    update_schema: bool,
}

const USAGE: &str =
    "gridrm-lint [--check] [--json] [--update-wire-schema] [--root <dir>] [--schema <file>]";

/// `Ok(None)` means `--help` was asked for: print [`USAGE`] and stop.
fn parse_args() -> Result<Option<Args>, String> {
    let mut root: Option<PathBuf> = None;
    let mut schema: Option<PathBuf> = None;
    let mut json = false;
    let mut update_schema = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => {}
            "--json" => json = true,
            "--update-wire-schema" => update_schema = true,
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--schema" => schema = Some(PathBuf::from(it.next().ok_or("--schema needs a value")?)),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let schema = schema.unwrap_or_else(|| root.join("xlint-wire-schema.json"));
    Ok(Some(Args {
        root,
        schema,
        json,
        update_schema,
    }))
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
    let config = Config::workspace();
    let (files, mut findings) = match parse_workspace(&args.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gridrm-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    findings.extend(scan_files(&files, &config));
    let (fresh_schema, schema_locs) = build_schema(&files, &config);

    if args.update_schema {
        if let Err(e) = std::fs::write(&args.schema, fresh_schema.to_json()) {
            eprintln!("gridrm-lint: cannot write {}: {e}", args.schema.display());
            return ExitCode::from(2);
        }
        println!(
            "gridrm-lint: wire schema updated — {} type(s) reachable from {}",
            fresh_schema.types.len(),
            fresh_schema.roots.join(", ")
        );
        return ExitCode::SUCCESS;
    }

    // Wire-schema ratchet: incompatible evolution becomes findings (so
    // waivers and --json see it); compatible drift is a --check failure
    // with a friendlier refresh instruction.
    let mut schema_drift = false;
    let mut schema_missing = false;
    match std::fs::read_to_string(&args.schema) {
        Ok(text) => match WireSchema::from_json(&text) {
            Ok(committed) => {
                let schema_findings = apply_file_waivers(
                    &files,
                    diff_schema(&committed, &fresh_schema, &schema_locs),
                );
                schema_drift = schema_findings.is_empty() && committed != fresh_schema;
                findings.extend(schema_findings);
            }
            Err(e) => {
                eprintln!(
                    "gridrm-lint: {} is not a valid wire schema: {e}",
                    args.schema.display()
                );
                return ExitCode::from(2);
            }
        },
        Err(_) => schema_missing = true,
    }
    findings.sort();

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

    for f in &findings {
        eprintln!("FAIL: {f}");
    }
    if schema_missing {
        eprintln!(
            "gridrm-lint: {} is missing — run `gridrm-lint --update-wire-schema` and \
             commit it (the wire-schema ratchet has nothing to diff against)",
            args.schema.display()
        );
    }
    if schema_drift {
        eprintln!(
            "gridrm-lint: wire schema drifted compatibly (new defaulted fields, variants \
             or types) — review the diff, then run `gridrm-lint --update-wire-schema` \
             and commit {}",
            args.schema.display()
        );
    }
    if findings.is_empty() && !schema_missing && !schema_drift {
        println!(
            "gridrm-lint: OK — {} file(s), no findings; wire schema matches {} ({} type(s))",
            files.len(),
            args.schema.display(),
            fresh_schema.types.len()
        );
        ExitCode::SUCCESS
    } else {
        if !findings.is_empty() {
            eprintln!(
                "gridrm-lint: {} finding(s) — fix them or add \
                 `xlint: allow(<rule>) -- <reason>` comment waivers (see docs/static-analysis.md)",
                findings.len()
            );
        }
        ExitCode::FAILURE
    }
}
