//! `determinism` — virtual-time determinism lint for the
//! simnet-deterministic crates (`core`, `global`, `store`, `telemetry`,
//! `drivers`).
//!
//! Everything under simnet must replay byte-identically from the same
//! seed (`tests/transport_determinism.rs` pins transcripts), so inside
//! `Config::deterministic_dirs` this rule flags:
//!
//! * wall-clock reads — `SystemTime::now()`, `Instant::now()` (time
//!   comes from `SimClock`);
//! * real sleeps — `thread::sleep` (time advances via `pump`);
//! * entropy — `rand::..` / `thread_rng()` (seeds are explicit);
//! * iteration over `HashMap`/`HashSet`, whose `RandomState` ordering
//!   differs per process and leaks straight into rows, frames and
//!   snapshots. A local alias (`use ..::HashMap as BTreeMap`,
//!   `type Bills = HashMap<..>`) is a hash type too. Order-insensitive
//!   folds (`count`, `sum`, `any`, ...) and chains that immediately
//!   re-sort (`collect` into a `BTree*`, `sort*()` later in the same
//!   statement) are tolerated.
//!
//! Wall-clock crates (`serve`, `bench`, `resmodel/host.rs`) are simply
//! outside `deterministic_dirs`; individual exemptions inside the
//! deterministic set use the usual `// xlint: allow(determinism) -- why`
//! waiver.

use crate::tokens::{group_with, ident_text, is_ident, is_punct, path_calls};
use crate::{collect_fns, Config, Finding, SourceFile};
use proc_macro2::{Delimiter, TokenTree};
use std::collections::BTreeSet;

/// Hash-ordered collection type names.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// A file's hash-ordered types (with its aliases) and the names declared
/// with one.
struct Hashed {
    types: BTreeSet<String>,
    names: BTreeSet<String>,
}

/// Iterator-producing methods whose order is the hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Guard/projection adapters that may sit between the receiver and the
/// iteration call without changing what is iterated.
const RECEIVER_ADAPTERS: &[&str] = &[
    "lock",
    "read",
    "write",
    "unwrap",
    "expect",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
];

/// Order-insensitive chain terminals: folding every element with a
/// commutative reduction makes hash order unobservable.
const ORDERLESS_TERMINALS: &[&str] = &[
    "count",
    "sum",
    "product",
    "any",
    "all",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
];

/// Run the determinism rule over one file.
pub fn check(sf: &SourceFile, config: &Config) -> Vec<Finding> {
    if !config
        .deterministic_dirs
        .iter()
        .any(|d| sf.rel_path.starts_with(d.as_str()))
    {
        return Vec::new();
    }
    let seqs = token_seqs(sf);
    let types = hash_types(&seqs);
    let hash = Hashed {
        names: hash_typed_names(&seqs, &types),
        types,
    };
    let mut out = Vec::new();
    for f in collect_fns(&sf.ast) {
        if f.in_test {
            continue;
        }
        let body: Vec<TokenTree> = f.body.clone().into_iter().collect();
        walk(&body, sf, &f.name, &hash, &mut out);
    }
    out.sort();
    out.dedup();
    out
}

fn walk(seq: &[TokenTree], sf: &SourceFile, fn_name: &str, hash: &Hashed, out: &mut Vec<Finding>) {
    check_seq(seq, sf, fn_name, hash, out);
    for t in seq {
        if let TokenTree::Group(g) = t {
            let inner: Vec<TokenTree> = g.stream().into_iter().collect();
            walk(&inner, sf, fn_name, hash, out);
        }
    }
}

fn check_seq(
    seq: &[TokenTree],
    sf: &SourceFile,
    fn_name: &str,
    hash: &Hashed,
    out: &mut Vec<Finding>,
) {
    let finding = |line: usize, column: usize, message: String| Finding {
        rule: "determinism".to_owned(),
        file: sf.rel_path.clone(),
        line,
        column: column + 1,
        message,
    };
    // Wall-clock / sleep / entropy path calls.
    for (ty, method, fix) in [
        ("SystemTime", "now", "take virtual time from SimClock"),
        ("Instant", "now", "take virtual time from SimClock"),
        ("thread", "sleep", "advance time via pump, never block"),
    ] {
        for (_args, line) in path_calls(seq, ty, method) {
            out.push(finding(
                line,
                0,
                format!("`{ty}::{method}()` in `{fn_name}` — simnet-deterministic module; {fix}"),
            ));
        }
    }
    for i in 0..seq.len() {
        // `rand::...` path use or a bare `thread_rng()` call.
        if is_ident(&seq[i], "rand")
            && matches!((seq.get(i + 1), seq.get(i + 2)),
                (Some(a), Some(b)) if is_punct(a, ':') && is_punct(b, ':'))
        {
            let at = seq[i].span().start();
            out.push(finding(
                at.line,
                at.column,
                format!(
                    "`rand::..` in `{fn_name}` — simnet-deterministic module; derive \
                     pseudo-randomness from an explicit seed"
                ),
            ));
        }
        if is_ident(&seq[i], "thread_rng")
            && seq
                .get(i + 1)
                .and_then(|t| group_with(t, Delimiter::Parenthesis))
                .is_some()
        {
            let at = seq[i].span().start();
            out.push(finding(
                at.line,
                at.column,
                format!(
                    "`thread_rng()` in `{fn_name}` — simnet-deterministic module; derive \
                     pseudo-randomness from an explicit seed"
                ),
            ));
        }
        // Iteration over a hash-typed name.
        let Some(name) = ident_text(&seq[i]) else {
            continue;
        };
        if !hash.names.contains(&name) {
            continue;
        }
        // Skip declaration sites (`name: HashMap<..>`) — only uses count.
        if matches!(seq.get(i + 1), Some(t) if is_punct(t, ':')) {
            continue;
        }
        if let Some((method, line, column)) = hash_iteration(seq, i) {
            if !suppressed(seq, i, &hash.types) {
                out.push(finding(
                    line,
                    column,
                    format!(
                        "iteration (`.{method}()`) over hash-ordered `{name}` in `{fn_name}` \
                         flows into ordered output — use BTreeMap/BTreeSet or sort first"
                    ),
                ));
            }
        }
        // `for pat in [&]name { .. }` without an explicit iter call.
        if i >= 1 && for_loop_over(seq, i) {
            let at = seq[i].span().start();
            out.push(finding(
                at.line,
                at.column,
                format!(
                    "`for .. in {name}` iterates hash-ordered `{name}` in `{fn_name}` — \
                     use BTreeMap/BTreeSet or sort first"
                ),
            ));
        }
    }
}

/// Does the method chain starting at the name token `i` reach a
/// hash-order iteration method? Returns `(method, line, column)`.
fn hash_iteration(seq: &[TokenTree], i: usize) -> Option<(String, usize, usize)> {
    let mut j = i + 1;
    loop {
        if !matches!(seq.get(j), Some(t) if is_punct(t, '.')) {
            return None;
        }
        let name_tok = seq.get(j + 1)?;
        let m = ident_text(name_tok)?;
        // Field projection (`self.seen` → `seen` handled when the scan
        // lands on the field ident itself): `.field.iter()` keeps going.
        let mut next = j + 2;
        // Optional turbofish.
        if matches!((seq.get(next), seq.get(next + 1)),
            (Some(a), Some(b)) if is_punct(a, ':') && is_punct(b, ':'))
        {
            next += 2;
            if matches!(seq.get(next), Some(t) if is_punct(t, '<')) {
                let mut depth = 0i32;
                while next < seq.len() {
                    if is_punct(&seq[next], '<') {
                        depth += 1;
                    } else if is_punct(&seq[next], '>') {
                        depth -= 1;
                        if depth == 0 {
                            next += 1;
                            break;
                        }
                    }
                    next += 1;
                }
            }
        }
        let has_args = seq
            .get(next)
            .and_then(|t| group_with(t, Delimiter::Parenthesis))
            .is_some();
        if has_args {
            if ITER_METHODS.contains(&m.as_str()) {
                let at = name_tok.span().start();
                // Orderless terminal directly after the iteration call?
                if chain_is_orderless(seq, next + 1) {
                    return None;
                }
                return Some((m, at.line, at.column));
            }
            if !RECEIVER_ADAPTERS.contains(&m.as_str()) {
                return None; // projection into something else: not hash iteration
            }
            j = next + 1;
            if matches!(seq.get(j), Some(t) if is_punct(t, '?')) {
                j += 1;
            }
        } else {
            // plain field access: `.inner.iter()` — continue the chain
            j += 2;
        }
    }
}

/// After an iteration call ending at token index `k`, does the rest of
/// the chain reduce order away (`count`, `sum`, collect into a BTree*)?
fn chain_is_orderless(seq: &[TokenTree], mut k: usize) -> bool {
    while matches!(seq.get(k), Some(t) if is_punct(t, '.')) {
        let Some(m) = seq.get(k + 1).and_then(ident_text) else {
            return false;
        };
        if ORDERLESS_TERMINALS.contains(&m.as_str()) {
            return true;
        }
        // `collect::<BTreeMap<..>>()` and friends restore an order.
        if m == "collect" {
            let mut t = k + 2;
            let mut saw_btree = false;
            while t < seq.len() && !is_punct(&seq[t], ';') {
                if let Some(id) = ident_text(&seq[t]) {
                    if id.starts_with("BTree") || id.starts_with("Hash") {
                        saw_btree = true;
                    }
                }
                if matches!(&seq[t], TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis)
                {
                    break;
                }
                t += 1;
            }
            return saw_btree;
        }
        // Skip over the method (+turbofish) and its args, keep walking.
        k += 2;
        if matches!((seq.get(k), seq.get(k + 1)),
            (Some(a), Some(b)) if is_punct(a, ':') && is_punct(b, ':'))
        {
            k += 2;
            if matches!(seq.get(k), Some(t) if is_punct(t, '<')) {
                let mut depth = 0i32;
                while k < seq.len() {
                    if is_punct(&seq[k], '<') {
                        depth += 1;
                    } else if is_punct(&seq[k], '>') {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    k += 1;
                }
            }
        }
        if matches!(seq.get(k), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            k += 1;
        }
    }
    false
}

/// Does a later part of the same statement re-establish an order
/// (an explicit `sort*` call, or a `let .. : BTree..` destination that
/// is not a hash alias)?
fn suppressed(seq: &[TokenTree], i: usize, hash_types: &BTreeSet<String>) -> bool {
    // Statement start: walk back to the previous `;` (or seq start).
    let start = (0..i)
        .rev()
        .find(|&k| is_punct(&seq[k], ';'))
        .map_or(0, |k| k + 1);
    let end = (i..seq.len())
        .find(|&k| is_punct(&seq[k], ';'))
        .unwrap_or(seq.len());
    for t in &seq[start..end] {
        if let Some(id) = ident_text(t) {
            if id.starts_with("sort") || (id.starts_with("BTree") && !hash_types.contains(&id)) {
                return true;
            }
        }
    }
    false
}

/// Token at `i` (a hash-typed name) is the iterated expression of a
/// `for` loop: `for PAT in [&[mut]] [self.]name { .. }`.
fn for_loop_over(seq: &[TokenTree], i: usize) -> bool {
    // The name must be directly followed by the loop body.
    if !matches!(seq.get(i + 1), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace) {
        return false;
    }
    // Walk back over `self .` / `&` / `mut` to find `in`.
    let mut k = i;
    while k > 0 {
        let prev = &seq[k - 1];
        if is_punct(prev, '.')
            || is_punct(prev, '&')
            || is_ident(prev, "mut")
            || is_ident(prev, "self")
        {
            k -= 1;
            continue;
        }
        break;
    }
    k > 0 && is_ident(&seq[k - 1], "in")
}

/// Every token sequence of the file: the top level and each group's
/// contents, nested groups included.
fn token_seqs(sf: &SourceFile) -> Vec<Vec<TokenTree>> {
    let mut seqs: Vec<Vec<TokenTree>> = vec![sf.tokens.clone().into_iter().collect()];
    let mut idx = 0;
    while idx < seqs.len() {
        let inner: Vec<Vec<TokenTree>> = seqs[idx]
            .iter()
            .filter_map(|t| match t {
                TokenTree::Group(g) => Some(g.stream().into_iter().collect()),
                _ => None,
            })
            .collect();
        seqs.extend(inner);
        idx += 1;
    }
    seqs
}

/// `HashMap`, `HashSet` and the file's aliases of them: `Hash* as X` in
/// a `use`, and `type X = ..;` naming a hash type, followed to a
/// fixpoint so an alias of an alias counts too.
fn hash_types(seqs: &[Vec<TokenTree>]) -> BTreeSet<String> {
    let mut types: BTreeSet<String> = HASH_TYPES.iter().map(|t| (*t).to_owned()).collect();
    loop {
        let known = types.len();
        for seq in seqs {
            for i in 0..seq.len() {
                let alias = if is_ident(&seq[i], "as") {
                    let aliased = i
                        .checked_sub(1)
                        .and_then(|k| ident_text(&seq[k]))
                        .is_some_and(|ty| types.contains(&ty));
                    seq.get(i + 1).and_then(ident_text).filter(|_| aliased)
                } else if is_ident(&seq[i], "type") {
                    let rhs = seq[i..]
                        .iter()
                        .take_while(|t| !is_punct(t, ';'))
                        .skip_while(|t| !is_punct(t, '='));
                    let aliased = rhs.filter_map(ident_text).any(|id| types.contains(&id));
                    seq.get(i + 1).and_then(ident_text).filter(|_| aliased)
                } else {
                    None
                };
                types.extend(alias);
            }
        }
        if types.len() == known {
            return types;
        }
    }
}

/// Names declared with a hash-ordered collection type anywhere in the
/// file: struct fields and `let` bindings with a hash type in the
/// annotated type or initializer (`HashMap::new()`, `HashMap::default()`,
/// ...).
fn hash_typed_names(seqs: &[Vec<TokenTree>], types: &BTreeSet<String>) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for seq in seqs {
        for i in 0..seq.len() {
            let Some(name) = ident_text(&seq[i]) else {
                continue;
            };
            // `name : ..Hash{Map,Set}..` type annotation (single colon).
            let single_colon = matches!(seq.get(i + 1), Some(t) if is_punct(t, ':'))
                && !matches!(seq.get(i + 2), Some(t) if is_punct(t, ':'))
                && !matches!(i.checked_sub(1).and_then(|k| seq.get(k)), Some(t) if is_punct(t, ':'));
            if single_colon && type_tail_is_hash(&seq[i + 2..], types) {
                names.insert(name);
                continue;
            }
            // `let [mut] name = ..Hash{Map,Set}::..` initializer.
            if name == "let" {
                let mut k = i + 1;
                if matches!(seq.get(k), Some(t) if is_ident(t, "mut")) {
                    k += 1;
                }
                let Some(bound) = seq.get(k).and_then(ident_text) else {
                    continue;
                };
                if matches!(seq.get(k + 1), Some(t) if is_punct(t, '='))
                    && init_tail_is_hash(&seq[k + 2..], types)
                {
                    names.insert(bound);
                }
            }
        }
    }
    names
}

/// Does the type text starting here (up to `,`/`;`/`=`/`)` at angle
/// depth 0) mention a hash collection?
fn type_tail_is_hash(tail: &[TokenTree], types: &BTreeSet<String>) -> bool {
    let mut angle = 0i32;
    for t in tail {
        if is_punct(t, '<') {
            angle += 1;
        } else if is_punct(t, '>') {
            angle -= 1;
            if angle < 0 {
                return false;
            }
        } else if angle == 0 && (is_punct(t, ',') || is_punct(t, ';') || is_punct(t, '=')) {
            return false;
        }
        if let Some(id) = ident_text(t) {
            if types.contains(&id) {
                return true;
            }
        }
    }
    false
}

/// Does the initializer (up to `;`) build a hash collection directly?
fn init_tail_is_hash(tail: &[TokenTree], types: &BTreeSet<String>) -> bool {
    for w in tail.windows(2) {
        if is_punct(&w[1], ';') {
            break;
        }
        if let Some(id) = ident_text(&w[0]) {
            if types.contains(&id) && is_punct(&w[1], ':') {
                return true;
            }
        }
    }
    false
}
