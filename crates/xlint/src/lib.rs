//! `gridrm-lint` — AST-level house-rule analyzer for the GridRM
//! workspace.
//!
//! Real parsing (via the vendored `proc-macro2`/`syn` stand-ins)
//! instead of grep: rules resolve call
//! expressions, span literals, impl blocks and function bodies instead
//! of relying on rustfmt line-wrapping luck. See
//! `docs/static-analysis.md` for the rule catalog, the waiver syntax and
//! the baseline-ratchet workflow.

pub mod baseline;
pub mod rules;
pub mod schema;
pub mod tokens;

use proc_macro2::TokenStream;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Finding {
    /// Rule identifier (see [`rules::RULES`]).
    pub rule: String,
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.file, self.line, self.column, self.rule, self.message
        )
    }
}

/// An inline waiver comment:
/// `// xlint: allow(<rule>) -- <reason>`.
///
/// A waiver on its own line covers the next line; a trailing waiver
/// covers its own line. The reason is mandatory — a waiver without one
/// is itself a finding (`waiver-syntax`).
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Rules waived (comma separated in the comment).
    pub rules: Vec<String>,
    /// Comment occupies the whole line (so it covers the next line too).
    pub own_line: bool,
}

/// Analyzer configuration: which files count as the hot request path,
/// the closed vocabularies, and the cross-layer dispatch surface.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files audited for panic-freedom in full (repo-relative suffixes).
    pub hot_path_files: Vec<String>,
    /// (path prefix, fn names) pairs audited per-function — the driver
    /// kit's `execute_query`/`execute_update` and the `Source` hooks
    /// every driver's native-protocol code lives in.
    pub hot_path_fns: Vec<(String, Vec<String>)>,
    /// Label keys that are client-controlled open sets.
    pub forbidden_label_keys: Vec<String>,
    /// The closed span-stage vocabulary (from `docs/observability.md`).
    pub stage_vocab: BTreeSet<String>,
    /// Method names that cross a layer boundary or dispatch into a
    /// driver; holding a lock guard across these is the single-flight
    /// deadlock shape.
    pub dispatch_methods: BTreeSet<String>,
    /// Directory containing the driver crate sources.
    pub driver_dir: String,
    /// Driver-dir files exempt from the conformance rule (the DDK
    /// itself, registries, pure helpers).
    pub driver_exempt: Vec<String>,
    /// Path prefixes of the simnet-deterministic source set audited by
    /// the `determinism` rule. Wall-clock crates (serve, bench,
    /// resmodel) are simply not listed.
    pub deterministic_dirs: Vec<String>,
    /// Scheduling-boundary method names for the `lock-order` pass
    /// (holding a guard across these is flagged even without a cycle).
    pub boundary_methods: BTreeSet<String>,
    /// Root type names the wire-schema closure starts from.
    pub wire_roots: Vec<String>,
}

impl Config {
    /// The GridRM workspace configuration; reads the span-stage
    /// vocabulary from `docs/observability.md` under `root`.
    pub fn for_workspace(root: &Path) -> io::Result<Config> {
        let doc_path = root.join("docs/observability.md");
        let doc = fs::read_to_string(&doc_path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "{}: {e} — is --root pointing at the workspace?",
                    doc_path.display()
                ),
            )
        })?;
        let stage_vocab = parse_stage_vocab(&doc);
        if stage_vocab.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "no span-stage vocabulary found in docs/observability.md — section renamed?",
            ));
        }
        Ok(Config {
            hot_path_files: [
                "crates/core/src/gateway.rs",
                "crates/core/src/request.rs",
                "crates/core/src/driver_manager.rs",
                "crates/core/src/connection.rs",
                "crates/core/src/acil.rs",
                "crates/core/src/singleflight.rs",
                "crates/global/src/engine.rs",
                "crates/global/src/transport.rs",
                "crates/serve/src/frame.rs",
                "crates/serve/src/scheduler.rs",
                "crates/serve/src/server.rs",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect(),
            hot_path_fns: vec![(
                "crates/drivers/src/".to_owned(),
                [
                    "execute_query",
                    "execute_update",
                    "probe",
                    "open",
                    "fetch",
                    "query",
                    "update",
                ]
                .into_iter()
                .map(str::to_owned)
                .collect(),
            )],
            forbidden_label_keys: [
                "source", "url", "hostname", "host", "sql", "query", "address",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect(),
            stage_vocab,
            dispatch_methods: [
                "execute",
                "execute_traced",
                "execute_query",
                "execute_update",
                "dispatch",
                "handle_request",
                "native_request",
                "glue_translate",
                "poll_now",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect(),
            driver_dir: "crates/drivers/src/".to_owned(),
            driver_exempt: [
                "crates/drivers/src/base.rs",
                "crates/drivers/src/lib.rs",
                "crates/drivers/src/registry.rs",
                "crates/drivers/src/mappings.rs",
                "crates/drivers/src/formatters.rs",
                "crates/drivers/src/xml.rs",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect(),
            deterministic_dirs: [
                "crates/core/src/",
                "crates/global/src/",
                "crates/store/src/",
                "crates/telemetry/src/",
                "crates/drivers/src/",
            ]
            .into_iter()
            .map(str::to_owned)
            .collect(),
            boundary_methods: ["pump"].into_iter().map(str::to_owned).collect(),
            wire_roots: vec!["GlobalRequest".to_owned(), "GlobalResponse".to_owned()],
        })
    }
}

/// Extract the backticked, `[a-z_]+`-shaped names from the "Span stage
/// vocabulary" section of the observability doc.
pub fn parse_stage_vocab(doc: &str) -> BTreeSet<String> {
    let mut vocab = BTreeSet::new();
    let mut in_section = false;
    for line in doc.lines() {
        if line.starts_with("### Span stage vocabulary") {
            in_section = true;
            continue;
        }
        if in_section && line.starts_with('#') {
            break;
        }
        if !in_section {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let tail = &rest[open + 1..];
            let Some(close) = tail.find('`') else { break };
            let name = &tail[..close];
            if !name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase() || c == '_') {
                vocab.insert(name.to_owned());
            }
            rest = &tail[close + 1..];
        }
    }
    vocab
}

/// A parsed source file ready for rule evaluation.
pub struct SourceFile {
    /// Repo-relative path (forward slashes).
    pub rel_path: String,
    /// Raw text.
    pub text: String,
    /// Full token stream of the file.
    pub tokens: TokenStream,
    /// Item-level parse.
    pub ast: syn::File,
    /// Inline waivers.
    pub waivers: Vec<Waiver>,
    /// Waiver-syntax findings produced while parsing comments.
    pub waiver_findings: Vec<Finding>,
}

impl SourceFile {
    /// Parse a file; returns `Err` with a description on lex failure.
    pub fn parse(rel_path: &str, text: String) -> Result<SourceFile, String> {
        let tokens: TokenStream = text
            .parse()
            .map_err(|e: proc_macro2::LexError| format!("{rel_path}: {e}"))?;
        let ast = syn::parse_file(&text).map_err(|e| format!("{rel_path}: {e}"))?;
        let (waivers, waiver_findings) = parse_waivers(rel_path, &text);
        Ok(SourceFile {
            rel_path: rel_path.to_owned(),
            text,
            tokens,
            ast,
            waivers,
            waiver_findings,
        })
    }

    /// Is `finding` covered by a waiver in this file?
    pub fn waived(&self, finding: &Finding) -> bool {
        self.waivers.iter().any(|w| {
            w.rules.iter().any(|r| r == &finding.rule)
                && (w.line == finding.line || (w.own_line && w.line + 1 == finding.line))
        })
    }
}

fn parse_waivers(rel_path: &str, text: &str) -> (Vec<Waiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        // Doc comments and string literals may *quote* the waiver syntax
        // (this crate's own docs do); only a real line comment counts.
        let lead = raw.trim_start();
        if lead.starts_with("///") || lead.starts_with("//!") {
            continue;
        }
        let Some(pos) = find_waiver_marker(raw) else {
            continue;
        };
        let comment = &raw[pos + "// xlint:".len()..];
        let own_line = raw[..pos].trim().is_empty();
        let column = pos + 1;
        let bad = |msg: &str, findings: &mut Vec<Finding>| {
            findings.push(Finding {
                rule: "waiver-syntax".to_owned(),
                file: rel_path.to_owned(),
                line: line_no,
                column,
                message: msg.to_owned(),
            });
        };
        let trimmed = comment.trim_start();
        let Some(rest) = trimmed.strip_prefix("allow(") else {
            bad(
                "malformed waiver: expected `// xlint: allow(<rule>) -- <reason>`",
                &mut findings,
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("malformed waiver: missing `)`", &mut findings);
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_owned())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            bad("malformed waiver: empty rule list", &mut findings);
            continue;
        }
        if let Some(unknown) = rules.iter().find(|r| !rules::RULES.contains(&r.as_str())) {
            bad(
                &format!("waiver names unknown rule `{unknown}`"),
                &mut findings,
            );
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason_ok = after
            .strip_prefix("--")
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        if !reason_ok {
            bad(
                "waiver must carry a reason: `-- <why this is safe>`",
                &mut findings,
            );
            continue;
        }
        waivers.push(Waiver {
            line: line_no,
            rules,
            own_line,
        });
    }
    (waivers, findings)
}

/// First waiver-marker offset on `line` that is not inside a string
/// literal, or `None`.
fn find_waiver_marker(line: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = line[from..].find("// xlint:") {
        let pos = from + off;
        if !inside_string_literal(&line[..pos]) {
            return Some(pos);
        }
        from = pos + 1;
    }
    None
}

/// Crude single-line check: an odd number of unescaped double quotes in
/// `prefix` means the position after it sits inside a string literal.
/// (Multi-line strings are not handled — a waiver has no business inside
/// one anyway.)
fn inside_string_literal(prefix: &str) -> bool {
    let mut open = false;
    let mut chars = prefix.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' if open => {
                chars.next();
            }
            '"' => open = !open,
            _ => {}
        }
    }
    open
}

/// A function body with its lint-relevant context, flattened out of the
/// item tree.
pub struct FnCtx {
    /// Function name.
    pub name: String,
    /// Body tokens.
    pub body: TokenStream,
    /// Inside `#[cfg(test)]` or carrying `#[test]`.
    pub in_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
}

/// Collect every function (free, method, defaulted trait method) in the
/// file with test-context tracking.
pub fn collect_fns(file: &syn::File) -> Vec<FnCtx> {
    fn add(f: &syn::ItemFn, in_test: bool, out: &mut Vec<FnCtx>) {
        if !f.has_body {
            return;
        }
        let is_test = in_test
            || f.attrs
                .iter()
                .any(|a| a.path() == "test" || a.is_cfg_test());
        out.push(FnCtx {
            name: f.sig.ident.clone(),
            body: f.block.clone(),
            in_test: is_test,
            line: f.span.start().line,
        });
    }
    fn walk(items: &[syn::Item], in_test: bool, out: &mut Vec<FnCtx>) {
        for item in items {
            match item {
                syn::Item::Fn(f) => add(f, in_test, out),
                syn::Item::Impl(im) => {
                    let t = in_test || im.attrs.iter().any(|a| a.is_cfg_test());
                    for f in &im.fns {
                        add(f, t, out);
                    }
                }
                syn::Item::Trait(tr) => {
                    let t = in_test || tr.attrs.iter().any(|a| a.is_cfg_test());
                    for f in &tr.fns {
                        add(f, t, out);
                    }
                }
                syn::Item::Mod(m) => {
                    let t = in_test || m.attrs.iter().any(|a| a.is_cfg_test());
                    if let Some(content) = &m.content {
                        walk(content, t, out);
                    }
                }
                syn::Item::Verbatim(_) => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&file.items, false, &mut out);
    out
}

/// Directories scanned inside the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "src", "examples", "tests"];
/// Path fragments never scanned.
const EXCLUDES: &[&str] = &["/target/", "/third_party/", "/tests/fixtures/"];

/// Enumerate the workspace `.rs` files the analyzer covers.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let path = root.join(dir);
        if path.is_dir() {
            visit(&path, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn visit(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let as_str = path.to_string_lossy().replace('\\', "/");
        if EXCLUDES.iter().any(|e| format!("{as_str}/").contains(e)) {
            continue;
        }
        if path.is_dir() {
            visit(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false)
            && !EXCLUDES.iter().any(|e| as_str.contains(e))
        {
            out.push(path);
        }
    }
    Ok(())
}

/// Parse every workspace file. Files that fail to lex come back as
/// `parse` findings instead of aborting the scan.
pub fn parse_workspace(root: &Path) -> io::Result<(Vec<SourceFile>, Vec<Finding>)> {
    let mut files = Vec::new();
    let mut findings = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = fs::read_to_string(&path)?;
        match SourceFile::parse(&rel, text) {
            Ok(sf) => files.push(sf),
            Err(e) => findings.push(Finding {
                rule: "parse".to_owned(),
                file: rel,
                line: 1,
                column: 1,
                message: e,
            }),
        }
    }
    Ok((files, findings))
}

/// Scan the whole workspace: parse every file, run every per-file rule
/// plus the workspace-level passes, apply waivers. Returns findings
/// sorted by (file, line, rule).
pub fn scan_workspace(root: &Path, config: &Config) -> io::Result<Vec<Finding>> {
    let (files, mut findings) = parse_workspace(root)?;
    findings.extend(scan_files(&files, config));
    findings.sort();
    Ok(findings)
}

/// Run every rule over already-parsed files: per-file rules first, then
/// the workspace-level lock-order pass (which needs the whole tree for
/// its inter-procedural summaries). Waivers apply to both.
pub fn scan_files(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for sf in files {
        out.extend(check_file(sf, config));
    }
    out.extend(apply_file_waivers(
        files,
        rules::lockorder::check_workspace(files, config),
    ));
    out.sort();
    out
}

/// Filter workspace-level findings through the waivers of the file each
/// finding lands in.
pub fn apply_file_waivers(files: &[SourceFile], findings: Vec<Finding>) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            files
                .iter()
                .find(|sf| sf.rel_path == f.file)
                .map(|sf| !sf.waived(f))
                .unwrap_or(true)
        })
        .collect()
}

/// Run every rule against one parsed file and apply its waivers.
pub fn check_file(sf: &SourceFile, config: &Config) -> Vec<Finding> {
    let mut raw = Vec::new();
    raw.extend(sf.waiver_findings.clone());
    raw.extend(rules::metrics::check(sf, config));
    raw.extend(rules::stages::check(sf, config));
    raw.extend(rules::panics::check(sf, config));
    raw.extend(rules::locks::check(sf, config));
    raw.extend(rules::drivers::check(sf, config));
    raw.extend(rules::determinism::check(sf, config));
    let mut out: Vec<Finding> = raw.into_iter().filter(|f| !sf.waived(f)).collect();
    out.sort();
    out
}
