//! `lock-order` — workspace-wide static lock-acquisition graph and
//! deadlock-cycle detection, plus the guards held across a boundary
//! call. For every non-test function it records
//!
//! * which locks the function acquires directly (`let g =
//!   <recv>.lock()/.read()/.write()` bindings *and* statement
//!   temporaries like `map.lock().insert(..)`), naming each lock
//!   `file::receiver-chain` (`crates/core/src/stream.rs::inner`);
//! * the nested-acquisition edges `A -> B` it creates by taking `B`
//!   while a guard on `A` is live;
//! * every named call it makes while a guard is live.
//!
//! Function summaries (the set of locks a function may take, directly or
//! transitively) are then propagated to a fixpoint over a name-based
//! call graph; a call made under a guard contributes edges from the held
//! locks to everything the callee's summary may acquire. Cycles in the
//! resulting graph — including self-edges, since neither `std` nor
//! `parking_lot` mutexes are re-entrant — are reported as potential
//! deadlocks. A guard held across a boundary call
//! (`Config::boundary_methods`) is flagged directly: `pump` drives
//! probes, standing queries and delta delivery, and the dispatch methods
//! (`execute`, `handle_request`, `glue_translate`, ...) run a driver or
//! another layer — the leader of a single-flight group parks followers
//! while it dispatches, so a gateway lock held there is the deadlock
//! shape. A guard dies at the end of its block or at `drop(guard)`.
//!
//! Name-based call resolution is deliberately coarse; ubiquitous method
//! names that collide with `std` collections (`get`, `insert`, `len`,
//! ...) are excluded from propagation via `NO_PROPAGATE`, and boundary
//! methods are excluded because holding a lock across them is already
//! a finding of its own.

use crate::tokens::{group_with, ident_text, is_ident, is_punct};
use crate::{collect_fns, Config, Finding, SourceFile};
use proc_macro2::{Delimiter, TokenTree};
use std::collections::{BTreeMap, BTreeSet};

const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Method names never propagated through: they collide with `std`
/// collection/iterator vocabulary, so a name match says nothing about
/// which function is actually called.
const NO_PROPAGATE: &[&str] = &[
    "get",
    "get_mut",
    "insert",
    "remove",
    "contains",
    "contains_key",
    "push",
    "push_back",
    "push_front",
    "pop",
    "pop_front",
    "pop_back",
    "len",
    "is_empty",
    "clear",
    "clone",
    "to_string",
    "to_owned",
    "to_vec",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "next",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "entry",
    "extend",
    "append",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "min",
    "max",
    "sum",
    "count",
    "collect",
    "join",
    "split",
    "trim",
    "parse",
    "new",
    "default",
    "from",
    "into",
    "take",
    "replace",
    "swap",
    "as_str",
    "as_ref",
    "as_mut",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "map",
    "map_err",
    "and_then",
    "ok",
    "err",
    "ok_or",
    "ok_or_else",
    "filter",
    "find",
    "position",
    "any",
    "all",
    "flush",
    "send",
    "recv",
    "write_all",
    "read_exact",
    "record",
    "observe",
    "with_capacity",
    "drop",
    // Arithmetic / atomics / condvar vocabulary — a workspace fn with
    // one of these names is never what `x.add(1)` or `cv.wait(g)` calls.
    "add",
    "sub",
    "saturating_add",
    "saturating_sub",
    "wrapping_add",
    "checked_add",
    "checked_sub",
    "fetch_add",
    "fetch_sub",
    "load",
    "store",
    "set",
    "wait",
    "wait_timeout",
    "wait_while",
    "notify_one",
    "notify_all",
];

/// One lock-acquisition site.
#[derive(Debug, Clone)]
struct Site {
    file: String,
    line: usize,
    column: usize,
    fn_name: String,
}

/// Per-function facts gathered from the token stream.
#[derive(Debug, Default)]
struct FnFacts {
    /// Locks acquired directly (bindings and temporaries).
    direct: BTreeSet<String>,
    /// Nested direct acquisitions: (held, acquired, site).
    edges: Vec<(String, String, Site)>,
    /// Calls made while guards were live: (held locks, callee, site).
    calls_locked: Vec<(Vec<String>, String, Site)>,
    /// Every named call in the body (for summary propagation).
    calls: BTreeSet<String>,
}

/// Run the lock-order pass over the whole parsed workspace.
pub fn check_workspace(files: &[SourceFile], config: &Config) -> Vec<Finding> {
    // ---- gather per-function facts --------------------------------
    let mut facts: Vec<(String, FnFacts)> = Vec::new(); // (fn name, facts)
    for sf in files {
        for f in collect_fns(&sf.ast) {
            if f.in_test {
                continue;
            }
            let mut ff = FnFacts::default();
            let body: Vec<TokenTree> = f.body.clone().into_iter().collect();
            analyze_block(&body, &mut Vec::new(), sf, &f.name, &mut ff);
            collect_calls(&body, &mut ff.calls);
            facts.push((f.name.clone(), ff));
        }
    }

    // ---- fixpoint summaries over the name-based call graph --------
    let defined: BTreeSet<&str> = facts.iter().map(|(n, _)| n.as_str()).collect();
    let propagatable = |callee: &str| {
        defined.contains(callee)
            && !NO_PROPAGATE.contains(&callee)
            && !config.boundary_methods.contains(callee)
    };
    // Same-named functions merge into one summary: coarse but sound for
    // cycle *detection* (it over-approximates what a call may lock).
    let mut summary: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (name, ff) in &facts {
        summary
            .entry(name.as_str())
            .or_default()
            .extend(ff.direct.iter().cloned());
    }
    let calls_of: BTreeMap<&str, BTreeSet<&str>> = {
        let mut m: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for (name, ff) in &facts {
            let e = m.entry(name.as_str()).or_default();
            for c in &ff.calls {
                // A call to the caller's own name is almost always
                // same-named delegation into another type (`self.inner
                // .advance_to(..)` from `advance_to`), which name-based
                // resolution would turn into spurious self-recursion.
                if propagatable(c) && c != name {
                    e.insert(c.as_str());
                }
            }
        }
        m
    };
    for _round in 0..32 {
        let mut changed = false;
        let snapshot = summary.clone();
        for (name, callees) in &calls_of {
            for callee in callees {
                if let Some(locks) = snapshot.get(callee) {
                    let own = summary.entry(name).or_default();
                    for l in locks {
                        changed |= own.insert(l.clone());
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- edges: direct nesting + calls under a guard --------------
    let mut edge_sites: BTreeMap<(String, String), Site> = BTreeMap::new();
    let mut out = Vec::new();
    for (name, ff) in &facts {
        for (held, acquired, site) in &ff.edges {
            edge_sites
                .entry((held.clone(), acquired.clone()))
                .or_insert_with(|| site.clone());
        }
        for (held, callee, site) in &ff.calls_locked {
            if config.boundary_methods.contains(callee) {
                out.push(Finding {
                    rule: "lock-order".to_owned(),
                    file: site.file.clone(),
                    line: site.line,
                    column: site.column + 1,
                    message: format!(
                        "`{callee}(..)` called in `{}` while lock guard(s) on {} are held — \
                         `{callee}` is a boundary (scheduling pump or driver/layer dispatch); \
                         drop the guard first",
                        site.fn_name,
                        held.join(", ")
                    ),
                });
            }
            if !propagatable(callee) || callee == name {
                continue;
            }
            if let Some(locks) = summary.get(callee.as_str()) {
                for h in held {
                    for l in locks {
                        edge_sites
                            .entry((h.clone(), l.clone()))
                            .or_insert_with(|| Site {
                                file: site.file.clone(),
                                line: site.line,
                                column: site.column,
                                fn_name: format!("{} (via `{callee}`)", site.fn_name),
                            });
                    }
                }
            }
        }
    }

    // ---- cycle detection ------------------------------------------
    let mut graph: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (from, to) in edge_sites.keys() {
        graph.entry(from.as_str()).or_default().insert(to.as_str());
        graph.entry(to.as_str()).or_default();
    }
    for scc in tarjan(&graph) {
        let cyclic = scc.len() > 1
            || (scc.len() == 1
                && graph
                    .get(scc[0])
                    .map(|s| s.contains(scc[0]))
                    .unwrap_or(false));
        if !cyclic {
            continue;
        }
        let members: BTreeSet<&str> = scc.iter().copied().collect();
        // Describe the cycle through its internal edges, anchored at the
        // lexicographically-first edge's site for a stable finding.
        let mut internal: Vec<(&str, &str, &Site)> = edge_sites
            .iter()
            .filter(|((f, t), _)| members.contains(f.as_str()) && members.contains(t.as_str()))
            .map(|((f, t), s)| (f.as_str(), t.as_str(), s))
            .collect();
        internal.sort_by_key(|(f, t, _)| (*f, *t));
        let Some((_, _, anchor)) = internal.first() else {
            continue;
        };
        let path = internal
            .iter()
            .map(|(f, t, s)| format!("{f} -> {t} (`{}` at {}:{})", s.fn_name, s.file, s.line))
            .collect::<Vec<_>>()
            .join("; ");
        out.push(Finding {
            rule: "lock-order".to_owned(),
            file: anchor.file.clone(),
            line: anchor.line,
            column: anchor.column + 1,
            message: format!(
                "lock-order cycle — potential deadlock across {} lock(s): {path}; \
                 acquire locks in one global order or narrow the guard scopes",
                members.len()
            ),
        });
    }
    out.sort();
    out.dedup();
    out
}

/// Iterative Tarjan SCC over a borrowed graph; returns components in a
/// deterministic order.
fn tarjan<'a>(graph: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> Vec<Vec<&'a str>> {
    struct State<'a> {
        index: BTreeMap<&'a str, usize>,
        low: BTreeMap<&'a str, usize>,
        on_stack: BTreeSet<&'a str>,
        stack: Vec<&'a str>,
        next: usize,
        out: Vec<Vec<&'a str>>,
    }
    let mut st = State {
        index: BTreeMap::new(),
        low: BTreeMap::new(),
        on_stack: BTreeSet::new(),
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };
    // Explicit work stack: (node, neighbor iterator position).
    for &root in graph.keys() {
        if st.index.contains_key(root) {
            continue;
        }
        let mut work: Vec<(&str, usize)> = vec![(root, 0)];
        while let Some((v, pos)) = work.last().copied() {
            if pos == 0 && !st.index.contains_key(v) {
                st.index.insert(v, st.next);
                st.low.insert(v, st.next);
                st.next += 1;
                st.stack.push(v);
                st.on_stack.insert(v);
            }
            let neighbors: Vec<&str> = graph
                .get(v)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            if pos < neighbors.len() {
                if let Some(slot) = work.last_mut() {
                    slot.1 += 1;
                }
                let w = neighbors[pos];
                if !st.index.contains_key(w) {
                    work.push((w, 0));
                } else if st.on_stack.contains(w) {
                    let lw = st.index[w];
                    let lv = st.low[v];
                    st.low.insert(v, lv.min(lw));
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    let lv = st.low[v];
                    let lp = st.low[parent];
                    st.low.insert(parent, lp.min(lv));
                }
                if st.low[v] == st.index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = st.stack.pop() {
                        st.on_stack.remove(w);
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    st.out.push(comp);
                }
            }
        }
    }
    st.out
}

/// Walk one statement block tracking live guards; recurses into nested
/// blocks with the *current* guard environment (a guard bound outside an
/// `if` stays held inside it).
fn analyze_block(
    seq: &[TokenTree],
    live: &mut Vec<(String, String)>, // (binding name, lock id)
    sf: &SourceFile,
    fn_name: &str,
    ff: &mut FnFacts,
) {
    let base = live.len();
    for stmt in split_statements(seq) {
        if let Some(name) = dropped_guard(&stmt) {
            live.retain(|(g, _)| *g != name);
        }
        let binding = guard_binding(&stmt, sf, fn_name);
        // Every acquisition in this statement (the binding included)
        // adds edges from the currently-held locks and registers the
        // lock as directly acquired.
        for (lock, site) in acquisitions(&stmt, sf, fn_name) {
            ff.direct.insert(lock.clone());
            for (_, held) in live.iter() {
                if *held != lock {
                    ff.edges.push((held.clone(), lock.clone(), site.clone()));
                }
            }
        }
        // Calls made while guards are live (skip the pure binding
        // statement's guard call itself via the callee filter below).
        if !live.is_empty() {
            let held: Vec<String> = live.iter().map(|(_, l)| l.clone()).collect();
            scan_calls_locked(&stmt, &held, sf, fn_name, ff);
        }
        // Nested blocks inherit the live guards; their own bindings die
        // with the block.
        for t in &stmt {
            if let Some(g) = group_with(t, Delimiter::Brace) {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                analyze_block(&inner, live, sf, fn_name, ff);
            }
        }
        if let Some(b) = binding {
            live.push(b);
        }
    }
    live.truncate(base);
}

/// Split a block's top-level tokens into statements at `;`, and before
/// a `let` that follows a block (`for .. { .. } let g = ..`), which ends
/// its statement without one.
fn split_statements(seq: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut stmts = Vec::new();
    let mut cur: Vec<TokenTree> = Vec::new();
    for t in seq {
        let after_block =
            matches!(cur.last(), Some(b) if group_with(b, Delimiter::Brace).is_some());
        if after_block && is_ident(t, "let") {
            stmts.push(std::mem::take(&mut cur));
        }
        cur.push(t.clone());
        if is_punct(t, ';') {
            stmts.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        stmts.push(cur);
    }
    stmts
}

/// `drop(name)` → the guard name.
fn dropped_guard(stmt: &[TokenTree]) -> Option<String> {
    for i in 0..stmt.len() {
        if !is_ident(&stmt[i], "drop") {
            continue;
        }
        let args = stmt
            .get(i + 1)
            .and_then(|t| group_with(t, Delimiter::Parenthesis))?;
        let inner: Vec<TokenTree> = args.stream().into_iter().collect();
        if inner.len() == 1 {
            return ident_text(&inner[0]);
        }
    }
    None
}

/// `let [mut] NAME = <recv>.lock()[.unwrap()|.expect(..)|?]* ;` →
/// the binding name and its lock id.
fn guard_binding(stmt: &[TokenTree], sf: &SourceFile, fn_name: &str) -> Option<(String, String)> {
    if !matches!(stmt.first(), Some(t) if is_ident(t, "let")) {
        return None;
    }
    let mut i = 1;
    if matches!(stmt.get(i), Some(t) if is_ident(t, "mut")) {
        i += 1;
    }
    let name = ident_text(stmt.get(i)?)?;
    if !matches!(stmt.get(i + 1), Some(t) if is_punct(t, '=')) {
        return None;
    }
    // Find the last guard-method call; only panic adapters may follow.
    let mut last: Option<usize> = None;
    for j in 0..stmt.len() {
        if guard_call_at(stmt, j).is_some() {
            last = Some(j);
        }
    }
    let j = last?;
    let mut k = j + 3;
    while k < stmt.len() {
        match &stmt[k] {
            t if is_punct(t, ';') || is_punct(t, '?') => k += 1,
            t if is_punct(t, '.') => {
                let adapter = stmt.get(k + 1).and_then(ident_text)?;
                if adapter != "unwrap" && adapter != "expect" && adapter != "unwrap_or_else" {
                    return None; // projection through the guard: temporary
                }
                k += 2;
                if matches!(stmt.get(k), Some(TokenTree::Group(_))) {
                    k += 1;
                }
            }
            _ => return None,
        }
    }
    let lock = lock_id(stmt, j, sf, fn_name);
    Some((name, lock))
}

/// Is `stmt[j]` the `.` of a `.lock()/.read()/.write()` call with empty
/// arguments? Returns the method name.
fn guard_call_at(stmt: &[TokenTree], j: usize) -> Option<String> {
    if !is_punct(stmt.get(j)?, '.') {
        return None;
    }
    let m = stmt.get(j + 1).and_then(ident_text)?;
    if !GUARD_METHODS.contains(&m.as_str()) {
        return None;
    }
    let args = stmt
        .get(j + 2)
        .and_then(|t| group_with(t, Delimiter::Parenthesis))?;
    if !args.stream().is_empty() {
        return None;
    }
    Some(m)
}

/// Every guard-method acquisition in the statement (nested groups
/// included), with its lock id and site.
fn acquisitions(stmt: &[TokenTree], sf: &SourceFile, fn_name: &str) -> Vec<(String, Site)> {
    let mut out = Vec::new();
    fn walk(seq: &[TokenTree], sf: &SourceFile, fn_name: &str, out: &mut Vec<(String, Site)>) {
        for j in 0..seq.len() {
            if guard_call_at(seq, j).is_some() {
                let at = seq[j + 1].span().start();
                out.push((
                    lock_id(seq, j, sf, fn_name),
                    Site {
                        file: sf.rel_path.clone(),
                        line: at.line,
                        column: at.column,
                        fn_name: fn_name.to_owned(),
                    },
                ));
            }
            if let TokenTree::Group(g) = &seq[j] {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                walk(&inner, sf, fn_name, out);
            }
        }
    }
    walk(stmt, sf, fn_name, &mut out);
    out
}

/// Lock identity for the guard call whose `.` sits at `seq[j]`: the
/// receiver chain walked backwards over `ident . ident ...` (leading
/// `self` stripped), qualified by the defining file. A receiver that is
/// not a simple chain (a call result, an index) falls back to the
/// enclosing function name — still stable, if coarser.
fn lock_id(seq: &[TokenTree], j: usize, sf: &SourceFile, fn_name: &str) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut k = j;
    while k > 0 {
        let prev = &seq[k - 1];
        if let Some(id) = ident_text(prev) {
            if id == "self" {
                k -= 1;
                continue;
            }
            parts.push(id);
            k -= 1;
            if k > 0 && is_punct(&seq[k - 1], '.') {
                k -= 1;
                continue;
            }
        }
        break;
    }
    parts.reverse();
    let chain = if parts.is_empty() {
        format!("<expr in {fn_name}>")
    } else {
        parts.join(".")
    };
    format!("{}::{}", sf.rel_path, chain)
}

/// Record `.name(..)` method calls and bare `name(..)` fn calls made in
/// this statement while `held` locks are live. Guard methods themselves
/// and panic adapters are not calls of interest.
fn scan_calls_locked(
    stmt: &[TokenTree],
    held: &[String],
    sf: &SourceFile,
    fn_name: &str,
    ff: &mut FnFacts,
) {
    fn walk(seq: &[TokenTree], held: &[String], sf: &SourceFile, fn_name: &str, ff: &mut FnFacts) {
        for i in 0..seq.len() {
            let Some(name) = ident_text(&seq[i]) else {
                if let TokenTree::Group(g) = &seq[i] {
                    let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                    walk(&inner, held, sf, fn_name, ff);
                }
                continue;
            };
            if GUARD_METHODS.contains(&name.as_str()) || name == "drop" {
                continue;
            }
            let called = seq
                .get(i + 1)
                .and_then(|t| group_with(t, Delimiter::Parenthesis))
                .is_some();
            if !called {
                continue;
            }
            let at = seq[i].span().start();
            ff.calls_locked.push((
                held.to_vec(),
                name,
                Site {
                    file: sf.rel_path.clone(),
                    line: at.line,
                    column: at.column,
                    fn_name: fn_name.to_owned(),
                },
            ));
        }
    }
    walk(stmt, held, sf, fn_name, ff);
}

/// Every named call anywhere in the body (for summary propagation).
fn collect_calls(seq: &[TokenTree], out: &mut BTreeSet<String>) {
    for i in 0..seq.len() {
        if let TokenTree::Group(g) = &seq[i] {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            collect_calls(&inner, out);
            continue;
        }
        let Some(name) = ident_text(&seq[i]) else {
            continue;
        };
        if seq
            .get(i + 1)
            .and_then(|t| group_with(t, Delimiter::Parenthesis))
            .is_some()
        {
            out.insert(name);
        }
    }
}
