//! The analysis passes: determinism lints, panic-path inventory and the
//! library debug-print check, all running over one file's token stream and
//! outline.
//!
//! Every pass is a pure function of `(tokens, outline, scope)`; the scope
//! says which passes apply to this file (panic checks only run on the six
//! pipeline crates and the facade, debug-print checks only on library code).

use crate::findings::Finding;
use crate::lexer::{TokKind, Token};
use crate::outline::Outline;

/// Which passes apply to the file being analyzed.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Run the panic-path inventory (pipeline library crates only).
    pub panics: bool,
    /// Deny `dbg!`/`println!` outside tests (library crates).
    pub debug_print: bool,
}

/// Identifiers that disqualify the preceding-token heuristic for slice
/// indexing: `let [a, b] = …` is a pattern, `return [x]` an array literal.
const NON_INDEX_PREV: &[&str] = &[
    "let", "in", "return", "as", "mut", "ref", "box", "move", "if", "else", "match", "while",
    "for", "loop", "break", "continue", "where", "impl", "dyn", "use", "pub", "fn", "const",
    "static", "struct", "enum", "trait", "mod", "unsafe", "extern", "crate", "self", "Self",
    "super", "yield", "async", "await", "become",
];

/// Macro names whose invocation panics.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs every applicable pass over one file. `src` is only used to attach
/// trimmed line snippets to findings.
pub fn analyze(
    file: &str,
    src: &str,
    toks: &[Token],
    outline: &Outline,
    scope: &Scope,
) -> Vec<Finding> {
    let lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    let mut hit = |check: &'static str, idx: usize, toks: &[Token], outline: &Outline| {
        let line = toks[idx].line;
        findings.push(Finding {
            file: file.to_string(),
            line,
            check,
            snippet: lines.get(line - 1).map_or("", |l| l.trim()).to_string(),
            context: outline.enclosing_fn(idx).map(str::to_string),
        });
    };

    for (i, t) in toks.iter().enumerate() {
        // --- determinism lints (alias-aware, whole scanned tree) ---
        if t.kind == TokKind::Ident {
            let resolved = outline.resolve(&t.text);
            let last = resolved.rsplit("::").next().unwrap_or(resolved);
            match last {
                "HashMap" | "HashSet" => hit("default-hasher", i, toks, outline),
                "thread_rng" | "from_entropy" => hit("entropy-rng", i, toks, outline),
                "Instant" | "SystemTime" => hit("wall-clock", i, toks, outline),
                _ => {}
            }
        }
        if t.is_ident("as") {
            if let Some(ty) = toks.get(i + 1) {
                let truncating = match ty.text.as_str() {
                    // Always id-sized-or-smaller: any cast to these wraps.
                    "u8" | "u16" => ty.kind == TokKind::Ident,
                    // `as u32` only when fed from a usize-producing call:
                    // `.len() as u32` / `.index() as u32`.
                    "u32" => {
                        ty.kind == TokKind::Ident
                            && toks.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct(')'))
                            && toks.get(i.wrapping_sub(2)).is_some_and(|t| t.is_punct('('))
                            && toks
                                .get(i.wrapping_sub(3))
                                .is_some_and(|t| t.is_ident("len") || t.is_ident("index"))
                            && toks.get(i.wrapping_sub(4)).is_some_and(|t| t.is_punct('.'))
                    }
                    _ => false,
                };
                if truncating {
                    hit("id-truncation", i, toks, outline);
                }
            }
        }

        // --- debug prints in library code (non-test) ---
        if scope.debug_print
            && (t.is_ident("dbg") || t.is_ident("println"))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            && !outline.in_test(i)
        {
            hit("debug-print", i, toks, outline);
        }

        // --- panic-path inventory (pipeline crates, non-test) ---
        if scope.panics && !outline.in_test(i) {
            if (t.is_ident("unwrap") || t.is_ident("expect"))
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                && i > 0
                && toks[i - 1].is_punct('.')
            {
                let check = if t.is_ident("unwrap") {
                    "panic-unwrap"
                } else {
                    "panic-expect"
                };
                hit(check, i, toks, outline);
            }
            if t.kind == TokKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                hit("panic-macro", i, toks, outline);
            }
            if t.is_punct('[') && i > 0 {
                let prev = &toks[i - 1];
                let indexes = match prev.kind {
                    TokKind::Ident => !NON_INDEX_PREV.contains(&prev.text.as_str()),
                    TokKind::Punct(']') | TokKind::Punct(')') => true,
                    _ => false,
                };
                if indexes {
                    hit("panic-index", i, toks, outline);
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::outline;

    fn run(src: &str, scope: &Scope) -> Vec<Finding> {
        let toks = lex(src);
        let o = outline::build(&toks);
        let mut f = analyze("x.rs", src, &toks, &o, scope);
        crate::findings::canonicalize(&mut f);
        f
    }

    fn checks(src: &str, scope: &Scope) -> Vec<&'static str> {
        run(src, scope).into_iter().map(|f| f.check).collect()
    }

    #[test]
    fn flags_default_hasher() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u64> = HashMap::new(); }\n";
        let f = run(src, &Scope::default());
        assert!(f.iter().all(|f| f.check == "default-hasher"));
        assert_eq!(f[0].line, 1);
        assert!(f.len() >= 2);
    }

    #[test]
    fn flags_aliased_hash_map_usage() {
        let src = "use std::collections::HashMap as Map;\nfn f() { let m = Map::new(); }\n";
        let f = run(src, &Scope::default());
        assert!(
            f.iter().any(|f| f.check == "default-hasher" && f.line == 2),
            "aliased usage line not flagged: {f:?}"
        );
    }

    #[test]
    fn flags_grouped_alias() {
        let src =
            "use std::collections::{BTreeMap, HashSet as Fast};\nfn f() { let s = Fast::new(); }\n";
        let f = run(src, &Scope::default());
        assert!(f.iter().any(|f| f.check == "default-hasher" && f.line == 2));
    }

    #[test]
    fn flags_entropy_rng_and_wall_clock() {
        let src = "fn f() {\nlet r = rand::thread_rng();\nlet s = SmallRng::from_entropy();\nlet t = std::time::Instant::now();\nlet u = SystemTime::now();\n}\n";
        let c = checks(src, &Scope::default());
        assert_eq!(
            c,
            ["entropy-rng", "entropy-rng", "wall-clock", "wall-clock"]
        );
    }

    #[test]
    fn flags_truncating_casts_token_aware() {
        let src = "fn f() {\nlet a = x as u8;\nlet b = y as u16;\nlet c = v.len() as u32;\nlet d = m.index() as u32;\n}\n";
        let c = checks(src, &Scope::default());
        assert_eq!(c.iter().filter(|c| **c == "id-truncation").count(), 4);
    }

    #[test]
    fn widening_casts_are_fine() {
        let src = "fn f() { let a = x as u64; let b = y as usize; let c = z as u32; }\n";
        assert!(run(src, &Scope::default()).is_empty());
    }

    #[test]
    fn comments_and_doc_examples_do_not_trip() {
        let src = "/// let m = HashMap::new(); // doc example\n// thread_rng() as u8\n/* Instant::now() */\nfn f() {}\n";
        assert!(run(src, &Scope::default()).is_empty());
    }

    #[test]
    fn strings_do_not_hide_code() {
        let src = "fn f() { let s = \"//\"; let t = std::time::Instant::now(); }\n";
        let c = checks(src, &Scope::default());
        assert_eq!(c, ["wall-clock"]);
    }

    fn panic_scope() -> Scope {
        Scope {
            panics: true,
            ..Scope::default()
        }
    }

    #[test]
    fn panic_inventory_catches_each_kind() {
        let src = r#"
            fn f(v: &[u32], o: Option<u32>) -> u32 {
                let a = o.unwrap();
                let b = o.expect("present");
                if v.is_empty() { panic!("empty"); }
                if a > 9 { unreachable!(); }
                v[0] + b
            }
        "#;
        let c = checks(src, &panic_scope());
        assert_eq!(
            c,
            [
                "panic-unwrap",
                "panic-expect",
                "panic-macro",
                "panic-macro",
                "panic-index"
            ]
        );
    }

    #[test]
    fn panic_checks_skip_tests() {
        let src = r#"
            fn lib(v: &[u32]) -> u32 { v[0] }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { let x = Some(1).unwrap(); assert_eq!(x, data[0]); }
            }
        "#;
        let f = run(src, &panic_scope());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].check, "panic-index");
        assert_eq!(f[0].context.as_deref(), Some("lib"));
    }

    #[test]
    fn index_heuristic_skips_patterns_attrs_and_types() {
        let src = r#"
            #[derive(Debug)]
            struct S { a: [u32; 4] }
            fn f(s: &S, v: Vec<u32>) -> u32 {
                let [x, y] = [1, 2];
                let arr = [0u32; 8];
                s.a[0]
                    + v[1]
                    + x + y
                    + arr[2]
            }
        "#;
        let c = checks(src, &panic_scope());
        assert_eq!(c, ["panic-index", "panic-index", "panic-index"]);
    }

    #[test]
    fn unwrap_or_variants_are_not_panics() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) + o.unwrap_or_default() + o.unwrap_or_else(|| 1) }\n";
        assert!(run(src, &panic_scope()).is_empty());
    }

    #[test]
    fn debug_print_denied_outside_tests() {
        let src = r#"
            fn f() {
                println!("cut = {}", cut);
                dbg!(cut);
            }
            #[cfg(test)]
            mod tests {
                fn t() { println!("ok in tests"); }
            }
        "#;
        let scope = Scope {
            debug_print: true,
            ..Scope::default()
        };
        let c = checks(src, &scope);
        assert_eq!(c, ["debug-print", "debug-print"]);
    }
}
