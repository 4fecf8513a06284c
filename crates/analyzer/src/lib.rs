//! `mlpart-analyzer`: token-aware static analysis for the mlpart workspace.
//!
//! The partitioner's headline contract is bit-exact reproducibility: the
//! same `(netlist, config, seed)` must produce the same partition on every
//! machine, thread count, and feature set — and the ROADMAP's production
//! target adds a second contract, panic-freedom on arbitrary inputs in the
//! pipeline crates. This crate enforces both statically. It supersedes the
//! PR 3 line-regex lint (`mlpart-lint`) with a real engine: a hand-rolled
//! std-only lexer ([`lexer`]) produces a spanned token stream, a structural
//! outline ([`outline`]) recovers test-only regions, `use`-alias bindings,
//! and fn spans, and three passes ([`passes`]) run over them:
//!
//! * **determinism lints** — `default-hasher` (HashMap/HashSet, including
//!   through `use ... as` renames), `entropy-rng` (`thread_rng` /
//!   `from_entropy`), `wall-clock` (`Instant`/`SystemTime` outside
//!   whitelisted telemetry sites), `id-truncation` (`as u8`/`as u16`,
//!   `.len() as u32`, `.index() as u32`), `debug-print` (`dbg!`/`println!`
//!   in library code);
//! * **panic-path inventory** — `panic-unwrap`/`panic-expect`/
//!   `panic-macro`/`panic-index` over the six pipeline crates, enforced by
//!   the `panics-allow.txt` ratchet that can only shrink;
//! * **staleness** — allow/ratchet entries that no longer match reality
//!   fail `--check-stale`, so exemptions can't rot.
//!
//! Known-legitimate determinism sites are declared in `lint-allow.txt`;
//! residual panic sites in `panics-allow.txt`. The binary
//! (`cargo run -p mlpart-analyzer`) exits 0 when clean, 1 on findings, 2 on
//! operational errors, and emits `--format text|json` (JSONL pinned by
//! `schemas/analyzer-findings.schema.json`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allow;
pub mod findings;
pub mod lexer;
pub mod outline;
pub mod passes;

pub use allow::{
    apply, is_allowed, parse_allowlist, parse_ratchet, render_ratchet, AllowEntry, Applied,
    RatchetEntry,
};
pub use findings::{canonicalize, Finding};
pub use passes::Scope;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// In-workspace stand-in crates (vendored API shims, not algorithm code)
/// and this crate itself — excluded from scanning.
const SKIP_CRATES: &[&str] = &["rand", "proptest", "analyzer"];

/// The pipeline library crates under the panic-freedom and no-debug-print
/// contracts. The bench harness (static-shape table math on
/// a terminal it owns) and the hook crates themselves (obs, audit, fault —
/// they *are* the gated implementation) are deliberately out. The facade
/// (CLI + checkpoint codec) gets the panic inventory only — see
/// [`analyze_workspace`] — because its IO and argument paths promise typed
/// errors, never panics.
const LIBRARY_CRATES: &[&str] = &["cluster", "core", "exec", "fm", "hypergraph", "kway"];

/// Analyzes one source text under `scope`, returning canonically ordered
/// findings. `file` is the workspace-relative label stamped on findings.
pub fn analyze_source(file: &str, text: &str, scope: &Scope) -> Vec<Finding> {
    let toks = lexer::lex(text);
    let outline = outline::build(&toks);
    let mut f = passes::analyze(file, text, &toks, &outline, scope);
    canonicalize(&mut f);
    f
}

/// Collects the `.rs` files under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes every scanned crate's `src/` tree plus the facade's root
/// `src/`, returning all findings in canonical order (allow files not yet
/// applied).
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = fs::read_dir(&crates_dir)?.collect::<io::Result<_>>()?;
    crate_dirs.sort_by_key(|e| e.path());
    for entry in crate_dirs {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if !path.is_dir() || SKIP_CRATES.contains(&name.as_str()) {
            continue;
        }
        let src = path.join("src");
        if !src.is_dir() {
            continue;
        }
        let is_library = LIBRARY_CRATES.contains(&name.as_str());
        let scope = Scope {
            panics: is_library,
            debug_print: is_library,
        };
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&file)?;
            findings.extend(analyze_source(&rel, &text, &scope));
        }
    }
    let facade_src = root.join("src");
    if facade_src.is_dir() {
        let mut files = Vec::new();
        rust_files(&facade_src, &mut files)?;
        for file in files {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&file)?;
            // The facade's IO and argument paths promise typed errors:
            // panic inventory on, debug-print check off (it is the terminal
            // owner that prints).
            let scope = Scope {
                panics: true,
                ..Scope::default()
            };
            findings.extend(analyze_source(&rel, &text, &scope));
        }
    }
    canonicalize(&mut findings);
    Ok(findings)
}

/// Full analyzer run: scan the workspace, apply `lint-allow.txt` and
/// `panics-allow.txt`, and compute staleness. I/O failures and malformed
/// ratchet lines surface as errors (→ exit 2 in the binary).
pub fn run(root: &Path) -> io::Result<Applied> {
    let allow = match fs::read_to_string(root.join("lint-allow.txt")) {
        Ok(text) => parse_allowlist(&text),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let ratchet = match fs::read_to_string(root.join("panics-allow.txt")) {
        Ok(text) => {
            parse_ratchet(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let all = analyze_workspace(root)?;
    Ok(apply(all, &allow, &ratchet))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// The seeded PR 3 fixture contains every banned determinism pattern;
    /// each class must still be reported by the token-aware engine.
    #[test]
    fn banned_fixture_trips_every_determinism_check() {
        let text = include_str!("../fixtures/banned.rs.fixture");
        let f = analyze_source("fixtures/banned.rs", text, &Scope::default());
        for check in [
            "default-hasher",
            "entropy-rng",
            "wall-clock",
            "id-truncation",
        ] {
            assert!(
                f.iter().any(|f| f.check == check),
                "{check} not reported: {f:?}"
            );
        }
    }

    /// Aliased imports defeat the old regex lint; the outline's alias map
    /// must catch the *usage* lines, not just the `use` line.
    #[test]
    fn aliased_fixture_caught_at_usage_sites() {
        let text = include_str!("../fixtures/aliased.rs.fixture");
        let f = analyze_source("fixtures/aliased.rs", text, &Scope::default());
        let usage_lines: Vec<usize> = f
            .iter()
            .filter(|f| f.check == "default-hasher" && f.snippet.contains("Map::new"))
            .map(|f| f.line)
            .collect();
        assert!(!usage_lines.is_empty(), "aliased usage not flagged: {f:?}");
        assert!(
            f.iter()
                .any(|f| f.check == "entropy-rng" && f.snippet.contains("fresh_rng()")),
            "aliased thread_rng call not flagged: {f:?}"
        );
    }

    /// A fresh unwrap/index in pipeline code shows up in the panic
    /// inventory; the same code inside `#[cfg(test)]` does not.
    #[test]
    fn panics_fixture_inventoried_outside_tests_only() {
        let text = include_str!("../fixtures/panics.rs.fixture");
        let scope = Scope {
            panics: true,
            ..Scope::default()
        };
        let f = analyze_source("fixtures/panics.rs", text, &scope);
        let checks: Vec<&str> = f.iter().map(|f| f.check).collect();
        assert_eq!(
            checks,
            ["panic-unwrap", "panic-expect", "panic-macro", "panic-index"],
            "{f:?}"
        );
        assert!(
            f.iter().all(|f| !f.snippet.contains("fine_in_tests")),
            "test-region code must be exempt: {f:?}"
        );
    }

    /// The real workspace must scan clean under its committed allow files
    /// with zero stale entries — the acceptance gate
    /// `cargo run -p mlpart-analyzer -- --check-stale` enforces in CI.
    #[test]
    fn workspace_is_clean_and_allow_files_are_fresh() {
        let out = run(&workspace_root()).expect("analyzer scan");
        assert!(
            out.kept.is_empty(),
            "analyzer findings:\n{}",
            out.kept
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            out.stale.is_empty(),
            "stale allow entries:\n{}",
            out.stale.join("\n")
        );
        // The allow files are load-bearing: telemetry + residual panic
        // sites exist and are tracked.
        assert!(out.suppressed > 0, "expected suppressed findings");
    }

    /// The observability crate funnels every monotonic-clock read through
    /// `clock.rs`; the allowlist entry is that single file, not a crate-wide
    /// blanket, so a stray `Instant` anywhere else in `mlpart-obs` fails the
    /// lint. This test pins both halves of that contract.
    #[test]
    fn obs_clock_reads_are_confined_to_clock_rs() {
        let root = workspace_root();
        let findings = analyze_workspace(&root).expect("analyzer scan");
        let obs_wall: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.check == "wall-clock" && f.file.starts_with("crates/obs/"))
            .collect();
        assert!(
            !obs_wall.is_empty(),
            "expected the obs clock site to be scanned, not skipped"
        );
        assert!(
            obs_wall.iter().all(|f| f.file == "crates/obs/src/clock.rs"),
            "obs clock reads outside clock.rs: {obs_wall:?}"
        );
        let allow_text = fs::read_to_string(root.join("lint-allow.txt")).expect("allowlist exists");
        let obs_entries: Vec<AllowEntry> = parse_allowlist(&allow_text)
            .into_iter()
            .filter(|a| a.path_prefix.starts_with("crates/obs"))
            .collect();
        assert_eq!(
            obs_entries,
            vec![AllowEntry {
                check: "wall-clock".into(),
                path_prefix: "crates/obs/src/clock.rs".into(),
            }],
            "the obs exemption must stay a single-file wall-clock entry"
        );
    }

    /// The committed ratchet must match `render_ratchet` of the live scan
    /// byte-for-byte below the comment header — the `--write-ratchet`
    /// output is the single source of truth for the numbers.
    #[test]
    fn committed_ratchet_matches_live_inventory() {
        let root = workspace_root();
        let findings = analyze_workspace(&root).expect("analyzer scan");
        let rendered = render_ratchet(&findings);
        let committed =
            fs::read_to_string(root.join("panics-allow.txt")).expect("panics-allow.txt exists");
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.trim_start().starts_with('#') && !l.trim().is_empty())
                .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            strip(&committed),
            strip(&rendered),
            "panics-allow.txt is out of date; regenerate with --write-ratchet"
        );
    }
}
