//! `gridrm-lint` — the house rules no compiler lint, type or test can
//! check: virtual-time determinism and the workspace lock-acquisition
//! order.
//!
//! Real parsing (via the vendored `proc-macro2`/`syn` stand-ins)
//! instead of grep: rules resolve call expressions, impl blocks and
//! function bodies instead of relying on rustfmt line-wrapping luck. See
//! `docs/static-analysis.md` for the rule catalog and the waiver syntax.

pub mod rules;
pub mod tokens;

use proc_macro2::TokenStream;
use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize)]
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

/// Analyzer configuration: the simnet-deterministic source set and the
/// calls no lock guard may be held across.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes of the simnet-deterministic source set audited by
    /// the `determinism` rule. Wall-clock crates (serve, bench,
    /// resmodel) are simply not listed.
    pub deterministic_dirs: Vec<String>,
    /// Method names the `lock-order` pass treats as boundaries: the
    /// scheduling pump and every call that dispatches into a driver or
    /// across a layer. Holding a guard across one is flagged even
    /// without a cycle (the single-flight deadlock shape).
    pub boundary_methods: BTreeSet<String>,
}

impl Config {
    /// The GridRM workspace configuration.
    pub fn workspace() -> Config {
        Config {
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
            boundary_methods: [
                "pump",
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
        }
    }
}

/// A parsed source file ready for rule evaluation.
pub struct SourceFile {
    /// Repo-relative path (forward slashes).
    pub rel_path: String,
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
    pub fn parse(rel_path: &str, text: &str) -> Result<SourceFile, String> {
        let tokens: TokenStream = text
            .parse()
            .map_err(|e: proc_macro2::LexError| format!("{rel_path}: {e}"))?;
        let ast = syn::parse_file(text).map_err(|e| format!("{rel_path}: {e}"))?;
        let (waivers, waiver_findings) = parse_waivers(rel_path, text);
        Ok(SourceFile {
            rel_path: rel_path.to_owned(),
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

/// The workspace `.rs` files the analyzer covers, each with its
/// repo-relative path (forward slashes).
fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    for dir in SCAN_DIRS {
        let path = root.join(dir);
        if path.is_dir() {
            visit(root, &path, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn visit(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        // Excludes match below the root, so a tree that itself sits
        // under a `target/` (the mutation runner's copy) is scanned.
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if EXCLUDES.iter().any(|e| format!("/{rel}/").contains(e)) {
            continue;
        }
        if path.is_dir() {
            visit(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push((path, rel));
        }
    }
    Ok(())
}

/// Scan the whole workspace: parse every file (one that fails to lex is
/// a `parse` finding, not an abort), run the per-file rules, then the
/// lock-order pass, which needs the whole tree for its inter-procedural
/// summaries. Waivers apply to both. Returns findings sorted by (file,
/// line, rule).
pub fn scan_workspace(root: &Path, config: &Config) -> io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    let mut findings = Vec::new();
    for (path, rel) in workspace_files(root)? {
        let text = fs::read_to_string(&path)?;
        match SourceFile::parse(&rel, &text) {
            Ok(sf) => {
                findings.extend(check_file(&sf, config));
                files.push(sf);
            }
            Err(e) => findings.push(Finding {
                rule: "parse".to_owned(),
                file: rel,
                line: 1,
                column: 1,
                message: e,
            }),
        }
    }
    let waived = |f: &Finding| files.iter().any(|sf| sf.rel_path == f.file && sf.waived(f));
    findings.extend(
        rules::lockorder::check_workspace(&files, config)
            .into_iter()
            .filter(|f| !waived(f)),
    );
    findings.sort();
    Ok(findings)
}

/// Run every rule against one parsed file and apply its waivers.
pub fn check_file(sf: &SourceFile, config: &Config) -> Vec<Finding> {
    let mut raw = Vec::new();
    raw.extend(sf.waiver_findings.clone());
    raw.extend(rules::determinism::check(sf, config));
    let mut out: Vec<Finding> = raw.into_iter().filter(|f| !sf.waived(f)).collect();
    out.sort();
    out
}
