//! Wire-schema evolution ratchet (`wire-schema`).
//!
//! Extracts every `#[derive(Serialize/Deserialize)]` struct and enum in
//! the workspace straight from the token stream (the vendored `syn`
//! stand-in drops attributes on non-fn items, so the raw tokens are the
//! source of truth), restricts to the closure reachable from the wire
//! roots (`GlobalRequest` / `GlobalResponse` — everything a
//! `WireFrame` can carry), and renders a canonical fingerprint that is
//! committed as `xlint-wire-schema.json`.
//!
//! [`diff_schema`] compares the committed fingerprint against a fresh
//! scan and reports *incompatible* evolution as findings: a field added
//! without `#[serde(default)]`, a field removed or retyped, an enum
//! variant removed or reordered, a type removed or changing kind. Those
//! are exactly the edits that break rolling upgrades between mixed peer
//! versions (and the transcript-pinning tests). Compatible drift — a new
//! defaulted field, a new trailing variant, a brand-new wire type —
//! does not produce findings; `--check` instead asks for a fingerprint
//! refresh via `--update-wire-schema`, the same workflow as the finding
//! baseline.

use crate::tokens::{group_with, ident_text, is_ident, is_punct};
use crate::{Config, Finding, SourceFile};
use proc_macro2::{Delimiter, TokenTree};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Fingerprint format version.
pub const SCHEMA_VERSION: u32 = 1;

/// One serialized field (struct field, tuple slot, or variant field).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireField {
    /// Wire name: the field identifier, a `#[serde(rename)]` override,
    /// or the tuple index as text.
    pub name: String,
    /// Canonical type text (token-normalized).
    pub ty: String,
    /// Carries `#[serde(default)]` — absent on the wire is tolerated.
    pub default: bool,
}

/// One enum variant with its payload fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireVariant {
    /// Variant wire name.
    pub name: String,
    /// Payload fields (empty for unit variants).
    pub fields: Vec<WireField>,
}

/// One wire-reachable serde type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireType {
    /// Type name.
    pub name: String,
    /// `"struct"` or `"enum"`.
    pub kind: String,
    /// Defining file (repo-relative).
    pub file: String,
    /// Struct fields (empty for enums).
    pub fields: Vec<WireField>,
    /// Enum variants in declaration order (empty for structs).
    pub variants: Vec<WireVariant>,
}

/// The committed fingerprint document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireSchema {
    /// Format version.
    pub version: u32,
    /// Root type names the closure starts from.
    pub roots: Vec<String>,
    /// Reachable types sorted by name.
    pub types: Vec<WireType>,
}

impl WireSchema {
    /// Parse the committed fingerprint.
    pub fn from_json(text: &str) -> Result<WireSchema, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Canonical JSON rendering (pretty, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".to_owned());
        s.push('\n');
        s
    }
}

/// Definition sites: type name → (file, 1-based line).
pub type SchemaLocs = BTreeMap<String, (String, usize)>;

/// Build the wire schema for the whole workspace: every serde type
/// reachable from `config.wire_roots`, plus definition sites for
/// findings.
pub fn build_schema(files: &[SourceFile], config: &Config) -> (WireSchema, SchemaLocs) {
    let mut defs: BTreeMap<String, (WireType, usize)> = BTreeMap::new();
    for sf in files {
        for (ty, line) in extract_serde_types(sf) {
            // First definition wins (files are scanned in sorted order);
            // wire type names are globally unique in practice.
            defs.entry(ty.name.clone()).or_insert((ty, line));
        }
    }
    let mut reached: BTreeSet<String> = BTreeSet::new();
    let mut queue: Vec<String> = config.wire_roots.clone();
    while let Some(name) = queue.pop() {
        if !reached.insert(name.clone()) {
            continue;
        }
        let Some((ty, _)) = defs.get(&name) else {
            continue;
        };
        for referenced in referenced_idents(ty) {
            if defs.contains_key(&referenced) && !reached.contains(&referenced) {
                queue.push(referenced);
            }
        }
    }
    let mut types = Vec::new();
    let mut locs = SchemaLocs::new();
    for name in &reached {
        if let Some((ty, line)) = defs.get(name) {
            locs.insert(name.clone(), (ty.file.clone(), *line));
            types.push(ty.clone());
        }
    }
    (
        WireSchema {
            version: SCHEMA_VERSION,
            roots: config.wire_roots.clone(),
            types,
        },
        locs,
    )
}

/// Every identifier mentioned in a type's field/variant type strings.
fn referenced_idents(ty: &WireType) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut take = |s: &str| {
        for word in s.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if !word.is_empty() && !word.chars().next().unwrap().is_ascii_digit() {
                out.insert(word.to_owned());
            }
        }
    };
    for f in &ty.fields {
        take(&f.ty);
    }
    for v in &ty.variants {
        for f in &v.fields {
            take(&f.ty);
        }
    }
    out
}

/// Scan one file's raw tokens for `#[derive(Serialize/Deserialize)]`
/// struct/enum definitions. Returns each with the 1-based line of its
/// `struct`/`enum` keyword.
pub fn extract_serde_types(sf: &SourceFile) -> Vec<(WireType, usize)> {
    let mut out = Vec::new();
    let mut seqs: Vec<Vec<TokenTree>> = vec![sf.tokens.clone().into_iter().collect()];
    // Items live at the top level and inside `mod`/`impl` brace groups;
    // walking every brace group over-approximates harmlessly.
    let mut i = 0;
    while i < seqs.len() {
        let seq = std::mem::take(&mut seqs[i]);
        scan_seq(&seq, &sf.rel_path, &mut out);
        for t in &seq {
            if let Some(g) = group_with(t, Delimiter::Brace) {
                seqs.push(g.stream().into_iter().collect());
            }
        }
        i += 1;
    }
    out
}

fn scan_seq(seq: &[TokenTree], file: &str, out: &mut Vec<(WireType, usize)>) {
    let mut i = 0;
    while i < seq.len() {
        // Collect a run of `#[...]` attributes.
        let attr_start = i;
        let mut attrs: Vec<&TokenTree> = Vec::new();
        while is_punct(&seq[i], '#')
            && seq
                .get(i + 1)
                .and_then(|t| group_with(t, Delimiter::Bracket))
                .is_some()
        {
            attrs.push(&seq[i + 1]);
            i += 2;
            if i >= seq.len() {
                return;
            }
        }
        // Optional visibility.
        if is_ident(&seq[i], "pub") {
            i += 1;
            if matches!(seq.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let Some(kw) = seq.get(i).and_then(ident_text) else {
            i = attr_start.max(i) + 1;
            continue;
        };
        if kw != "struct" && kw != "enum" {
            i += 1;
            continue;
        }
        let kw_line = seq[i].span().start().line;
        let Some(name) = seq.get(i + 1).and_then(ident_text) else {
            i += 2;
            continue;
        };
        i += 2;
        if !attrs_derive_serde(&attrs) {
            continue;
        }
        // Skip generics `<...>`.
        if matches!(seq.get(i), Some(t) if is_punct(t, '<')) {
            let mut depth = 0i32;
            while i < seq.len() {
                if is_punct(&seq[i], '<') {
                    depth += 1;
                } else if is_punct(&seq[i], '>') {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        // Skip a `where` clause: everything up to the body/`;`.
        while i < seq.len()
            && !matches!(&seq[i], TokenTree::Group(g)
                if matches!(g.delimiter(), Delimiter::Brace | Delimiter::Parenthesis))
            && !is_punct(&seq[i], ';')
        {
            i += 1;
        }
        let mut ty = WireType {
            name,
            kind: kw.clone(),
            file: file.to_owned(),
            fields: Vec::new(),
            variants: Vec::new(),
        };
        match seq.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                if kw == "struct" {
                    ty.fields = parse_fields(&inner, true);
                } else {
                    ty.variants = parse_variants(&inner);
                }
                i += 1;
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                ty.fields = parse_fields(&inner, false);
                i += 1;
            }
            _ => {} // unit struct
        }
        out.push((ty, kw_line));
    }
}

/// Do the collected attributes contain `derive(..)` naming `Serialize`
/// or `Deserialize`?
fn attrs_derive_serde(attrs: &[&TokenTree]) -> bool {
    for attr in attrs {
        let Some(g) = group_with(attr, Delimiter::Bracket) else {
            continue;
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if !matches!(inner.first(), Some(t) if is_ident(t, "derive")) {
            continue;
        }
        let Some(list) = inner
            .get(1)
            .and_then(|t| group_with(t, Delimiter::Parenthesis))
        else {
            continue;
        };
        for t in list.stream() {
            if let Some(id) = ident_text(&t) {
                if id == "Serialize" || id == "Deserialize" {
                    return true;
                }
            }
        }
    }
    false
}

/// Split a field/variant list at top-level commas. Generic-argument
/// commas sit at angle depth > 0 and stay inside their chunk; group
/// contents are single tokens and never split.
fn split_commas(seq: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut chunks = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    let mut angle = 0i32;
    let mut prev_dash = false;
    for t in seq {
        if is_punct(t, '<') {
            angle += 1;
        } else if is_punct(t, '>') && !prev_dash {
            angle -= 1;
        }
        prev_dash = is_punct(t, '-');
        if is_punct(t, ',') && angle == 0 {
            if !cur.is_empty() {
                chunks.push(std::mem::take(&mut cur));
            }
        } else {
            cur.push(t.clone());
        }
    }
    if !cur.is_empty() {
        chunks.push(cur);
    }
    chunks
}

/// Per-field serde attribute facts.
#[derive(Default)]
struct SerdeAttrs {
    default: bool,
    skip: bool,
    rename: Option<String>,
}

/// Consume leading `#[...]` attributes from `chunk`, returning the rest
/// and the serde facts.
fn take_attrs(chunk: &[TokenTree]) -> (&[TokenTree], SerdeAttrs) {
    let mut facts = SerdeAttrs::default();
    let mut i = 0;
    while i + 1 < chunk.len() && is_punct(&chunk[i], '#') {
        let Some(g) = group_with(&chunk[i + 1], Delimiter::Bracket) else {
            break;
        };
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if matches!(inner.first(), Some(t) if is_ident(t, "serde")) {
            if let Some(list) = inner
                .get(1)
                .and_then(|t| group_with(t, Delimiter::Parenthesis))
            {
                let items: Vec<TokenTree> = list.stream().into_iter().collect();
                for (j, t) in items.iter().enumerate() {
                    match ident_text(t).as_deref() {
                        Some("default") => facts.default = true,
                        Some("skip") | Some("skip_serializing") | Some("skip_deserializing") => {
                            facts.skip = true
                        }
                        Some("rename") => {
                            if let Some(TokenTree::Literal(l)) = items.get(j + 2) {
                                facts.rename = l.str_value();
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        i += 2;
    }
    (&chunk[i..], facts)
}

/// Parse struct/variant fields. `named` selects `name: Type` chunks vs
/// positional tuple slots.
fn parse_fields(seq: &[TokenTree], named: bool) -> Vec<WireField> {
    let mut out = Vec::new();
    for (idx, chunk) in split_commas(seq).into_iter().enumerate() {
        let (rest, facts) = take_attrs(&chunk);
        if facts.skip {
            continue;
        }
        let mut rest = rest;
        if matches!(rest.first(), Some(t) if is_ident(t, "pub")) {
            rest = &rest[1..];
            if matches!(rest.first(), Some(TokenTree::Group(g))
                if g.delimiter() == Delimiter::Parenthesis)
            {
                rest = &rest[1..];
            }
        }
        if named {
            let Some(field_name) = rest.first().and_then(ident_text) else {
                continue;
            };
            // `name : Type` — a single colon; `::` would be a path.
            if !matches!(rest.get(1), Some(t) if is_punct(t, ':'))
                || matches!(rest.get(2), Some(t) if is_punct(t, ':'))
            {
                continue;
            }
            out.push(WireField {
                name: facts.rename.unwrap_or(field_name),
                ty: render(&rest[2..]),
                default: facts.default,
            });
        } else {
            if rest.is_empty() {
                continue;
            }
            out.push(WireField {
                name: facts.rename.unwrap_or_else(|| idx.to_string()),
                ty: render(rest),
                default: facts.default,
            });
        }
    }
    out
}

/// Parse enum variants in declaration order.
fn parse_variants(seq: &[TokenTree]) -> Vec<WireVariant> {
    let mut out = Vec::new();
    for chunk in split_commas(seq) {
        let (rest, facts) = take_attrs(&chunk);
        if facts.skip {
            continue;
        }
        let Some(name) = rest.first().and_then(ident_text) else {
            continue;
        };
        let fields = match rest.get(1) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                parse_fields(&inner, false)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                parse_fields(&inner, true)
            }
            _ => Vec::new(),
        };
        out.push(WireVariant {
            name: facts.rename.unwrap_or(name),
            fields,
        });
    }
    out
}

/// Canonical type text: token `Display`s joined with single spaces.
fn render(seq: &[TokenTree]) -> String {
    seq.iter()
        .map(|t| t.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Diff the committed fingerprint against a fresh scan; every finding is
/// an *incompatible* schema evolution. Compatible drift (new defaulted
/// fields, new variants, new types) is detected separately by comparing
/// the documents for equality.
pub fn diff_schema(committed: &WireSchema, fresh: &WireSchema, locs: &SchemaLocs) -> Vec<Finding> {
    let mut out = Vec::new();
    let fresh_by_name: BTreeMap<&str, &WireType> =
        fresh.types.iter().map(|t| (t.name.as_str(), t)).collect();
    for old in &committed.types {
        let at = |msg: String, out: &mut Vec<Finding>| {
            let (file, line) = locs
                .get(&old.name)
                .cloned()
                .unwrap_or_else(|| (old.file.clone(), 1));
            out.push(Finding {
                rule: "wire-schema".to_owned(),
                file,
                line,
                column: 1,
                message: msg,
            });
        };
        let Some(new) = fresh_by_name.get(old.name.as_str()) else {
            at(
                format!(
                    "wire type `{}` was removed or renamed — peers running the committed \
                     schema still ship it; keep the type and deprecate instead",
                    old.name
                ),
                &mut out,
            );
            continue;
        };
        if old.kind != new.kind {
            at(
                format!(
                    "wire type `{}` changed kind ({} -> {}) — wire-incompatible",
                    old.name, old.kind, new.kind
                ),
                &mut out,
            );
            continue;
        }
        diff_fields(&old.name, None, &old.fields, &new.fields, &at, &mut out);
        // Variant removal / reorder: the surviving old variants must
        // appear in the same relative order (serde enum tags are
        // name-keyed, but reordering is how accidental repurposing and
        // tag collisions start — the ratchet treats it as incompatible).
        let new_order: Vec<&str> = new.variants.iter().map(|v| v.name.as_str()).collect();
        let mut last_pos = 0usize;
        let mut reordered = false;
        for ov in &old.variants {
            match new_order.iter().position(|n| *n == ov.name) {
                None => at(
                    format!(
                        "enum `{}` lost variant `{}` — old peers still send it; \
                         keep the variant (it may return an error) instead",
                        old.name, ov.name
                    ),
                    &mut out,
                ),
                Some(pos) => {
                    if pos < last_pos {
                        reordered = true;
                    }
                    last_pos = pos.max(last_pos);
                    if let Some(nv) = new.variants.iter().find(|v| v.name == ov.name) {
                        diff_fields(
                            &old.name,
                            Some(&ov.name),
                            &ov.fields,
                            &nv.fields,
                            &at,
                            &mut out,
                        );
                    }
                }
            }
        }
        if reordered {
            at(
                format!(
                    "enum `{}` reordered its committed variants — declaration order is part \
                     of the wire contract; append new variants at the end",
                    old.name
                ),
                &mut out,
            );
        }
    }
    out.sort();
    out
}

fn diff_fields(
    ty: &str,
    variant: Option<&str>,
    old: &[WireField],
    new: &[WireField],
    at: &impl Fn(String, &mut Vec<Finding>),
    out: &mut Vec<Finding>,
) {
    let ctx = match variant {
        Some(v) => format!("`{ty}::{v}`"),
        None => format!("`{ty}`"),
    };
    for of in old {
        match new.iter().find(|nf| nf.name == of.name) {
            None => at(
                format!(
                    "{ctx} lost wire field `{}` — old peers still send it and expect it back; \
                     keep the field (or `#[serde(default)]` + ignore) instead",
                    of.name
                ),
                out,
            ),
            Some(nf) => {
                if nf.ty != of.ty {
                    at(
                        format!(
                            "{ctx} field `{}` changed type `{}` -> `{}` — wire-incompatible; \
                             add a new defaulted field instead",
                            of.name, of.ty, nf.ty
                        ),
                        out,
                    );
                }
            }
        }
    }
    for nf in new {
        if old.iter().all(|of| of.name != nf.name) && !nf.default {
            at(
                format!(
                    "{ctx} adds wire field `{}` without `#[serde(default)]` — frames from \
                     peers on the committed schema will fail to decode; mark it \
                     `#[serde(default)]`",
                    nf.name
                ),
                out,
            );
        }
    }
}
