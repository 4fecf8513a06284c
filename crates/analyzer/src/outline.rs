//! Lightweight structural outline over the token stream.
//!
//! The outline extracts exactly the structure the passes need — no full
//! parse: test-only regions (`#[cfg(test)]` items and `#[test]` functions,
//! which the panic inventory and the debug-print check skip), `use`-alias
//! resolution (including grouped imports and `as` renames), and function
//! spans (for finding context labels).
//!
//! Attribute attachment uses a heuristic that covers real Rust without a
//! grammar: an attribute's region starts after any immediately following
//! attributes and ends at the first `;` or `,` at relative depth 0, when
//! the enclosing group closes, or after the first `{ ... }` group closes
//! (continuing through `else` chains).

use crate::lexer::{TokKind, Token};
use std::ops::Range;

/// A function item: name and the token range from `fn` through its body.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Function name as written at the definition site.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body's closing brace (or the `;` of a decl).
    pub end: usize,
}

/// Structural facts about one source file.
#[derive(Debug, Default)]
pub struct Outline {
    /// Token ranges of test-only code, in source order.
    pub test_regions: Vec<Range<usize>>,
    /// `alias → full path` pairs from `use` trees, e.g.
    /// `("Map", "std::collections::HashMap")`. Plain imports are recorded
    /// too (`("HashMap", "std::collections::HashMap")`).
    pub aliases: Vec<(String, String)>,
    /// Function items, in source order.
    pub fns: Vec<FnSpan>,
}

impl Outline {
    /// True when token `idx` is inside test-only code.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_regions.iter().any(|r| r.contains(&idx))
    }

    /// Name of the innermost function containing token `idx`, if any.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&str> {
        self.fns
            .iter()
            .filter(|f| f.start <= idx && idx < f.end)
            .min_by_key(|f| f.end - f.start)
            .map(|f| f.name.as_str())
    }

    /// Resolves an identifier through the `use`-alias map: returns the
    /// full imported path when `name` was bound by a `use`, else `name`.
    pub fn resolve<'a>(&'a self, name: &'a str) -> &'a str {
        self.aliases
            .iter()
            .find(|(alias, _)| alias == name)
            .map(|(_, path)| path.as_str())
            .unwrap_or(name)
    }
}

/// Builds the outline for one file's token stream.
pub fn build(toks: &[Token]) -> Outline {
    let mut out = Outline::default();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct('#') {
            if toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct('['))
            {
                // Inner attribute `#![...]`: a cfg here gates the whole file.
                let close = matching_bracket(toks, i + 2);
                if is_test_attr(&toks[i + 3..close]) {
                    out.test_regions.push(0..toks.len());
                }
                i = close + 1;
                continue;
            }
            if toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                let close = matching_bracket(toks, i + 1);
                if is_test_attr(&toks[i + 2..close]) {
                    let start = skip_attributes(toks, close + 1);
                    out.test_regions.push(start..attachment_end(toks, start));
                }
                i = close + 1;
                continue;
            }
        }
        if t.is_ident("use") {
            i = parse_use(toks, i + 1, &mut out.aliases);
            continue;
        }
        if t.is_ident("fn") {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokKind::Ident {
                    let end = fn_end(toks, i);
                    out.fns.push(FnSpan {
                        name: name_tok.text.clone(),
                        start: i,
                        end,
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Skips consecutive outer attributes starting at `i`; returns the index
/// of the first non-attribute token (the attachment target).
fn skip_attributes(toks: &[Token], mut i: usize) -> usize {
    while toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        i = matching_bracket(toks, i + 1) + 1;
    }
    i
}

/// One past the last token of the item/statement starting at `start`.
fn attachment_end(toks: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut opened_brace = false;
    let mut k = start;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct(c @ ('(' | '[' | '{')) => {
                if c == '{' && depth == 0 {
                    opened_brace = true;
                }
                depth += 1;
            }
            TokKind::Punct(c @ (')' | ']' | '}')) => {
                depth -= 1;
                if depth < 0 {
                    return k; // enclosing group closed before the item ended
                }
                if c == '}' && depth == 0 && opened_brace {
                    if toks.get(k + 1).is_some_and(|t| t.is_ident("else")) {
                        k += 1; // `if {} else {}` chains continue the item
                    } else {
                        return k + 1;
                    }
                }
            }
            TokKind::Punct(';' | ',') if depth == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    toks.len()
}

/// True for attribute meta tokens (the part between `[` and `]`) that mark
/// test-only code: `#[test]`, or a `cfg` naming `test` outside `not(...)`
/// (`#[cfg(test)]`, `#[cfg(all(test, unix))]`).
fn is_test_attr(toks: &[Token]) -> bool {
    let Some(first) = toks.first() else {
        return false;
    };
    if first.is_ident("test") && toks.len() == 1 {
        return true;
    }
    if !first.is_ident("cfg") {
        return false; // cfg_attr, derive, doc, ... — not a region
    }
    let mut depth = 0usize;
    let mut not_depths: Vec<usize> = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            while not_depths.last().is_some_and(|d| *d >= depth) {
                not_depths.pop();
            }
            depth = depth.saturating_sub(1);
        } else if t.is_ident("not") && toks.get(k + 1).is_some_and(|t| t.is_punct('(')) {
            not_depths.push(depth + 1);
        } else if not_depths.is_empty() && t.is_ident("test") {
            return true;
        }
    }
    false
}

/// One past the end of the fn starting at token `fn_idx` (at the body's
/// closing `}` or the declaration's `;`).
fn fn_end(toks: &[Token], fn_idx: usize) -> usize {
    let mut depth = 0i32;
    let mut k = fn_idx;
    while k < toks.len() {
        match toks[k].kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => {
                // Body found: match braces to its end.
                let mut b = 0i32;
                while k < toks.len() {
                    match toks[k].kind {
                        TokKind::Punct('{') => b += 1,
                        TokKind::Punct('}') => {
                            b -= 1;
                            if b == 0 {
                                return k + 1;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return toks.len();
            }
            TokKind::Punct(';') if depth == 0 => return k + 1,
            _ => {}
        }
        k += 1;
    }
    toks.len()
}

/// Parses one use-tree starting at `i` (just past `use` or a `::` inside a
/// group), recording `(alias, full_path)` leaves. Returns the index of the
/// terminator it stopped at (`,`, `}`, or just past `;`).
fn parse_use(toks: &[Token], mut i: usize, aliases: &mut Vec<(String, String)>) -> usize {
    let mut path: Vec<String> = Vec::new();
    loop {
        let Some(t) = toks.get(i) else {
            return i;
        };
        if t.kind == TokKind::Ident && !t.is_ident("as") {
            path.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') && toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            i += 2;
            if toks.get(i).is_some_and(|t| t.is_punct('{')) {
                // Group: parse each branch with the current prefix.
                i += 1;
                loop {
                    i = parse_use_branch(toks, i, &path, aliases);
                    match toks.get(i) {
                        Some(t) if t.is_punct(',') => i += 1,
                        Some(t) if t.is_punct('}') => {
                            i += 1;
                            break;
                        }
                        _ => break,
                    }
                }
                // After a group the tree is done; skip to past `;`.
                while toks
                    .get(i)
                    .is_some_and(|t| !t.is_punct(';') && !t.is_punct(',') && !t.is_punct('}'))
                {
                    i += 1;
                }
                if toks.get(i).is_some_and(|t| t.is_punct(';')) {
                    i += 1;
                }
                return i;
            }
            if toks.get(i).is_some_and(|t| t.is_punct('*')) {
                i += 1; // glob: nothing to record
            }
        } else if t.is_ident("as") {
            if let Some(alias) = toks.get(i + 1) {
                if alias.kind == TokKind::Ident {
                    record_leaf(aliases, Some(alias.text.clone()), &path);
                    i += 2;
                    continue;
                }
            }
            i += 1;
        } else {
            // Terminator (`;`, `,`, `}`): record a plain leaf if no alias
            // was seen and the path names something.
            if !path.is_empty() && !aliases_ends_with(aliases, &path) {
                record_leaf(aliases, None, &path);
            }
            if t.is_punct(';') {
                return i + 1;
            }
            return i;
        }
    }
}

/// Parses one branch of a `{...}` group with prefix `prefix`.
fn parse_use_branch(
    toks: &[Token],
    mut i: usize,
    prefix: &[String],
    aliases: &mut Vec<(String, String)>,
) -> usize {
    let mut path = prefix.to_vec();
    loop {
        let Some(t) = toks.get(i) else {
            return i;
        };
        if t.kind == TokKind::Ident && !t.is_ident("as") {
            path.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') && toks.get(i + 1).is_some_and(|t| t.is_punct(':')) {
            i += 2;
            if toks.get(i).is_some_and(|t| t.is_punct('{')) {
                // Nested group.
                i += 1;
                loop {
                    i = parse_use_branch(toks, i, &path, aliases);
                    match toks.get(i) {
                        Some(t) if t.is_punct(',') => i += 1,
                        Some(t) if t.is_punct('}') => {
                            i += 1;
                            return i;
                        }
                        _ => return i,
                    }
                }
            }
            if toks.get(i).is_some_and(|t| t.is_punct('*')) {
                i += 1;
            }
        } else if t.is_ident("as") {
            if let Some(alias) = toks.get(i + 1) {
                if alias.kind == TokKind::Ident {
                    record_leaf(aliases, Some(alias.text.clone()), &path);
                    return i + 2;
                }
            }
            i += 1;
        } else {
            if path.len() > prefix.len() {
                record_leaf(aliases, None, &path);
            }
            return i;
        }
    }
}

fn record_leaf(aliases: &mut Vec<(String, String)>, alias: Option<String>, path: &[String]) {
    let mut path = path.to_vec();
    if path.last().is_some_and(|s| s == "self") {
        path.pop(); // `use x::{self, y}`: the self leaf binds the parent name
    }
    let Some(last) = path.last().cloned() else {
        return;
    };
    let name = alias.unwrap_or(last);
    aliases.push((name, path.join("::")));
}

/// True when the last recorded alias already covers `path` (avoids a
/// duplicate record when a terminator follows an `as` clause).
fn aliases_ends_with(aliases: &[(String, String)], path: &[String]) -> bool {
    aliases.last().is_some_and(|(_, p)| *p == path.join("::"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn outline_of(src: &str) -> (Vec<crate::lexer::Token>, Outline) {
        let toks = lex(src);
        let o = build(&toks);
        (toks, o)
    }

    fn idx_of(toks: &[crate::lexer::Token], name: &str) -> usize {
        toks.iter().position(|t| t.is_ident(name)).unwrap()
    }

    #[test]
    fn cfg_test_region_covers_statement() {
        let src = r#"
            fn f() {
                #[cfg(test)]
                let probe = check();
                other();
            }
        "#;
        let (toks, o) = outline_of(src);
        assert!(o.in_test(idx_of(&toks, "check")));
        assert!(!o.in_test(idx_of(&toks, "other")));
    }

    #[test]
    fn test_regions_cover_cfg_test_mod_and_test_fn() {
        let src = r#"
            fn lib_code() { a.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn helper() { b.unwrap(); }
            }
            #[test]
            fn unit() { c.unwrap(); }
        "#;
        let (toks, o) = outline_of(src);
        assert!(!o.in_test(idx_of(&toks, "a")));
        assert!(o.in_test(idx_of(&toks, "b")));
        assert!(o.in_test(idx_of(&toks, "c")));
    }

    #[test]
    fn not_test_and_feature_gates_are_library_code() {
        let src = r#"
            #[cfg(not(test))]
            fn f() { body(); }
            #[cfg(feature = "obs")]
            fn g() { traced(); }
            #[cfg(all(test, unix))]
            fn h() { unix_test(); }
        "#;
        let (toks, o) = outline_of(src);
        assert!(!o.in_test(idx_of(&toks, "body")));
        assert!(!o.in_test(idx_of(&toks, "traced")));
        assert!(o.in_test(idx_of(&toks, "unix_test")));
    }

    #[test]
    fn inner_cfg_test_covers_whole_file() {
        let src = "#![cfg(test)]\nfn f() { body(); }";
        let (toks, o) = outline_of(src);
        assert!(o.in_test(idx_of(&toks, "body")));
    }

    #[test]
    fn stacked_attributes_attach_to_same_item() {
        let src = r#"
            #[cfg(test)]
            #[allow(dead_code)]
            fn f() { body(); }
            fn g() { after(); }
        "#;
        let (toks, o) = outline_of(src);
        assert!(o.in_test(idx_of(&toks, "body")));
        assert!(!o.in_test(idx_of(&toks, "after")));
    }

    #[test]
    fn region_ends_at_comma_inside_enum() {
        let src = r#"
            enum E {
                #[cfg(test)]
                Probe(u32),
                Plain(u32),
            }
        "#;
        let (toks, o) = outline_of(src);
        assert!(o.in_test(idx_of(&toks, "Probe")));
        assert!(!o.in_test(idx_of(&toks, "Plain")));
    }

    #[test]
    fn use_aliases_resolve() {
        let src = r#"
            use std::collections::HashMap as Map;
            use std::collections::{BTreeMap, HashSet as Set};
            use rand::prelude::*;
            use crate::engine::{self, Engine};
        "#;
        let (_, o) = outline_of(src);
        assert_eq!(o.resolve("Map"), "std::collections::HashMap");
        assert_eq!(o.resolve("Set"), "std::collections::HashSet");
        assert_eq!(o.resolve("BTreeMap"), "std::collections::BTreeMap");
        assert_eq!(o.resolve("Engine"), "crate::engine::Engine");
        assert_eq!(o.resolve("engine"), "crate::engine");
        assert_eq!(o.resolve("Unknown"), "Unknown");
    }

    #[test]
    fn enclosing_fn_is_innermost() {
        let src = r#"
            fn outer() {
                fn inner() { body(); }
                tail();
            }
        "#;
        let (toks, o) = outline_of(src);
        assert_eq!(o.enclosing_fn(idx_of(&toks, "body")), Some("inner"));
        assert_eq!(o.enclosing_fn(idx_of(&toks, "tail")), Some("outer"));
    }

    #[test]
    fn else_chain_stays_in_region() {
        let src = r#"
            fn f() {
                #[cfg(test)]
                if a { x(); } else { y(); }
                after();
            }
        "#;
        let (toks, o) = outline_of(src);
        assert!(o.in_test(idx_of(&toks, "y")));
        assert!(!o.in_test(idx_of(&toks, "after")));
    }
}
