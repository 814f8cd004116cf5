//! Token-tree helpers shared by the lint rules: token predicates and
//! path-call matching over `proc-macro2` token sequences.

use proc_macro2::{Delimiter, Group, TokenTree};

/// True when `t` is the punctuation character `c`.
pub fn is_punct(t: &TokenTree, c: char) -> bool {
    matches!(t, TokenTree::Punct(p) if p.as_char() == c)
}

/// True when `t` is the identifier `s`.
pub fn is_ident(t: &TokenTree, s: &str) -> bool {
    matches!(t, TokenTree::Ident(i) if *i == s)
}

/// The identifier text of `t`, if it is one.
pub fn ident_text(t: &TokenTree) -> Option<String> {
    match t {
        TokenTree::Ident(i) => Some(i.to_string()),
        _ => None,
    }
}

/// `t` as a group with the given delimiter.
pub fn group_with(t: &TokenTree, d: Delimiter) -> Option<&Group> {
    match t {
        TokenTree::Group(g) if g.delimiter() == d => Some(g),
        _ => None,
    }
}

/// Find every `A::B(...)`-style path call whose final two segments are
/// `ty::method`, returning the argument group.
pub fn path_calls<'a>(seq: &'a [TokenTree], ty: &str, method: &str) -> Vec<(&'a Group, usize)> {
    let mut out = Vec::new();
    for i in 0..seq.len() {
        if !is_ident(&seq[i], ty) {
            continue;
        }
        let colons = matches!((seq.get(i + 1), seq.get(i + 2)),
            (Some(a), Some(b)) if is_punct(a, ':') && is_punct(b, ':'));
        if !colons {
            continue;
        }
        let Some(m) = seq.get(i + 3) else { continue };
        if !is_ident(m, method) {
            continue;
        }
        if let Some(args) = seq
            .get(i + 4)
            .and_then(|t| group_with(t, Delimiter::Parenthesis))
        {
            out.push((args, m.span().start().line));
        }
    }
    out
}
