//! `mlpart-analyzer`: a per-file count ratchet over clippy's JSON.
//!
//! Runs clippy with the lints in [`RULES`] raised to warnings, counts each
//! in-scope finding once per span, and compares the counts with the `lint
//! file count` lines of `panics-allow.txt`. Exit codes: 0 = the counts
//! match, 1 = a count is above its line (a new site) or below it (a stale
//! line) and the live table is printed, 2 = operational error.

use mlpart_obs::json::{self, Json};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::{Command, ExitCode};

/// The six pipeline library crates.
const LIBRARY: [&str; 6] = ["cluster", "core", "exec", "fm", "hypergraph", "kway"];

/// Where a lint is counted.
#[derive(Clone, Copy)]
enum Scope {
    /// The library crates and the facade's `src/`, whose IO and argument
    /// paths promise typed errors.
    Panics,
    /// The library crates; the CLI and the bench and obs binaries own
    /// their terminal.
    Library,
    /// Every crate but the `rand` and `proptest` shims.
    NotShims,
}

/// Every lint the ratchet counts, and where.
const RULES: [(&str, Scope); 11] = [
    ("indexing_slicing", Scope::Panics),
    ("unwrap_used", Scope::Panics),
    ("expect_used", Scope::Panics),
    ("panic", Scope::Panics),
    ("unreachable", Scope::Panics),
    ("todo", Scope::Panics),
    ("unimplemented", Scope::Panics),
    ("print_stdout", Scope::Library),
    ("print_stderr", Scope::Library),
    ("dbg_macro", Scope::Library),
    ("cast_possible_truncation", Scope::NotShims),
];

/// Per-(lint, file) finding counts.
type Counts = BTreeMap<(String, String), usize>;

/// Whether the ratchet counts `lint` in the workspace-relative `file`.
fn in_scope(lint: &str, file: &str) -> bool {
    let krate = file
        .strip_prefix("crates/")
        .and_then(|f| f.split('/').next());
    let library = krate.is_some_and(|c| LIBRARY.contains(&c));
    let facade = file.starts_with("src/");
    RULES.iter().any(|&(name, scope)| {
        name == lint
            && match scope {
                Scope::Panics => library || facade,
                Scope::Library => library,
                Scope::NotShims => facade || krate.is_some_and(|c| c != "rand" && c != "proptest"),
            }
    })
}

/// Counts the in-scope clippy findings in cargo's JSON message stream.
fn count_findings(stream: &str) -> Result<Counts, String> {
    let mut sites = BTreeSet::new();
    for (i, line) in stream
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let msg = json::parse(line).map_err(|e| format!("clippy output line {}: {e}", i + 1))?;
        let message = msg.get("message");
        let code = message.and_then(|m| m.get("code")?.get("code")?.as_str());
        let Some(lint) = code.and_then(|c| c.strip_prefix("clippy::")) else {
            continue;
        };
        let spans = message
            .and_then(|m| m.get("spans")?.as_arr())
            .unwrap_or_default();
        let Some(span) = spans
            .iter()
            .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))
        else {
            continue;
        };
        let field = |key: &str| span.get(key).and_then(Json::as_u64);
        let file = span
            .get("file_name")
            .and_then(Json::as_str)
            .unwrap_or_default();
        if in_scope(lint, file) {
            let (lint, file) = (lint.to_string(), file.to_string());
            sites.insert((lint, file, field("line_start"), field("column_start")));
        }
    }
    let mut counts = Counts::new();
    for (lint, file, _, _) in sites {
        *counts.entry((lint, file)).or_default() += 1;
    }
    Ok(counts)
}

/// Parses `panics-allow.txt`: `lint file count` lines and `#` comments.
fn parse_ratchet(text: &str) -> Result<Counts, String> {
    let mut counts = Counts::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or_default().trim();
        let bad = |why| Err(format!("panics-allow.txt line {}: {why}: `{line}`", i + 1));
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            [] => {}
            [lint, file, count] => {
                if !RULES.iter().any(|&(name, _)| name == lint) {
                    return bad("not a ratcheted clippy lint");
                }
                let Some(count) = count.parse().ok().filter(|&n: &usize| n > 0) else {
                    return bad("count is not a positive integer");
                };
                if counts.insert((lint.into(), file.into()), count).is_some() {
                    return bad("duplicate entry");
                }
            }
            _ => return bad("expected `lint file count`"),
        }
    }
    Ok(counts)
}

/// One line per (lint, file) whose live count differs from its allowance.
fn compare(live: &Counts, allowed: &Counts) -> Vec<String> {
    let keys: BTreeSet<_> = live.keys().chain(allowed.keys()).collect();
    let mut problems = Vec::new();
    for key @ (lint, file) in keys {
        let n = live.get(key).copied().unwrap_or(0);
        let max = allowed.get(key).copied().unwrap_or(0);
        let stale = if n < max { "stale: " } else { "" };
        if n != max {
            problems.push(format!(
                "{stale}clippy::{lint} in {file}: found {n}, the ratchet allows {max}"
            ));
        }
    }
    problems
}

/// Counts the findings in `stream` and compares them with `ratchet`.
fn check(stream: &str, ratchet: &str) -> Result<(Counts, Vec<String>), String> {
    let live = count_findings(stream)?;
    let problems = compare(&live, &parse_ratchet(ratchet)?);
    Ok((live, problems))
}

/// Runs clippy from the workspace root and returns its JSON stream. The
/// features compile in the audit, tracing and fault-injection code.
fn run_clippy(root: &Path) -> Result<String, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut cmd = Command::new(cargo);
    let args = "clippy --workspace --lib --bins --features audit,obs,fault --message-format=json";
    cmd.current_dir(root).args(args.split(' ')).arg("--");
    for (lint, _) in RULES {
        cmd.args(["-W", &format!("clippy::{lint}")]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run cargo clippy: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("cargo clippy failed ({}):\n{stderr}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("clippy output is not UTF-8: {e}"))
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("mlpart-analyzer: error: takes no arguments");
        return ExitCode::from(2);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let outcome = run_clippy(&root).and_then(|stream| {
        let ratchet = std::fs::read_to_string(root.join("panics-allow.txt"))
            .map_err(|e| format!("cannot read panics-allow.txt: {e}"))?;
        check(&stream, &ratchet)
    });
    let (live, problems) = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("mlpart-analyzer: error: {e}");
            return ExitCode::from(2);
        }
    };
    if problems.is_empty() {
        let sites: usize = live.values().sum();
        eprintln!(
            "mlpart-analyzer: {sites} sites in {} lines match panics-allow.txt",
            live.len()
        );
        return ExitCode::SUCCESS;
    }
    for p in &problems {
        eprintln!("mlpart-analyzer: {p}");
    }
    println!("# live counts (`lint file count`):");
    for ((lint, file), n) in &live {
        println!("{lint} {file} {n}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lines cargo emits around clippy's warnings, none of them a finding.
    const NOISE: &str = r#"{"reason":"compiler-artifact","package_id":"x","fresh":true}
{"reason":"compiler-message","message":{"code":null,"level":"warning","spans":[]}}"#;

    /// Checks cargo JSON lines, one clippy warning per `(lint, file, line)`
    /// with a secondary span before the primary one, against `ratchet`.
    fn run(hits: &[(&str, &str, u32)], ratchet: &str) -> Result<(Counts, Vec<String>), String> {
        let mut stream = format!("{NOISE}\n");
        for (lint, file, line) in hits {
            let span = |f, primary| {
                format!(
                    r#"{{"file_name":"{f}","line_start":{line},"column_start":5,"is_primary":{primary}}}"#
                )
            };
            stream += &format!(
                r#"{{"reason":"compiler-message","message":{{"code":{{"code":"clippy::{lint}"}},"spans":[{},{}]}}}}"#,
                span("crates/other.rs", false),
                span(file, true)
            );
            stream.push('\n');
        }
        check(&stream, ratchet)
    }

    const ENGINE: &str = "crates/fm/src/engine.rs";

    #[test]
    fn over_count_fails_naming_lint_file_and_both_counts() {
        let hits = [
            ("indexing_slicing", ENGINE, 10),
            ("indexing_slicing", ENGINE, 11),
            ("expect_used", ENGINE, 12),
        ];
        let ratchet =
            "indexing_slicing crates/fm/src/engine.rs 1\nexpect_used crates/fm/src/engine.rs 1";
        let (_, problems) = run(&hits, ratchet).unwrap();
        let want =
            "clippy::indexing_slicing in crates/fm/src/engine.rs: found 2, the ratchet allows 1";
        assert_eq!(problems, [want]);
    }

    #[test]
    fn under_count_fails_as_stale() {
        let hits = [("panic", "crates/core/src/error.rs", 40)];
        let (_, problems) = run(&hits, "panic crates/core/src/error.rs 2").unwrap();
        let want =
            "stale: clippy::panic in crates/core/src/error.rs: found 1, the ratchet allows 2";
        assert_eq!(problems, [want]);
    }

    #[test]
    fn out_of_scope_hits_are_ignored() {
        let hits = [
            ("print_stderr", "src/bin/mlpart.rs", 80),
            ("indexing_slicing", "crates/place/src/solver.rs", 30),
            ("cast_possible_truncation", "crates/rand/src/lib.rs", 5),
            ("needless_range_loop", ENGINE, 7),
        ];
        assert_eq!(run(&hits, "").unwrap(), (Counts::new(), vec![]));
    }

    #[test]
    fn duplicated_span_counts_once() {
        let hit = ("cast_possible_truncation", "crates/place/src/solver.rs", 30);
        let ratchet = "cast_possible_truncation crates/place/src/solver.rs 1";
        let (live, problems) = run(&[hit, hit], ratchet).unwrap();
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(live.values().sum::<usize>(), 1);
    }

    #[test]
    fn unreadable_input_is_an_operational_error() {
        let err = check("warning: not json", "").unwrap_err();
        assert!(err.starts_with("clippy output line 1: "), "{err}");
        for ratchet in [
            "indexing_slicing crates/fm/src/engine.rs",
            "indexing_slicing crates/fm/src/engine.rs many",
            "indexing_slicing crates/fm/src/engine.rs 0",
            "panic-index crates/fm/src/engine.rs 3",
            "panic crates/core/src/error.rs 1\npanic crates/core/src/error.rs 1",
        ] {
            let err = run(&[], ratchet).unwrap_err();
            assert!(
                err.starts_with("panics-allow.txt line "),
                "{ratchet}: {err}"
            );
        }
    }
}
