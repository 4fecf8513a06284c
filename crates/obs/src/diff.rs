//! Comparison engine behind the `obs-diff` binary.
//!
//! Compares two observability artifacts — run reports, Chrome traces, or
//! JSONL traces — in two stages:
//!
//! 1. **Normative content check.** Both documents are normalized with
//!    [`strip_profile`] (timing zeroed, scheduling keys zeroed, alloc keys
//!    removed) and compared byte-for-byte. Any difference means the two
//!    runs did different *work* — not a performance delta — and the diff
//!    refuses to proceed.
//! 2. **Telemetry deltas.** Per-phase time (and, when both sides tracked
//!    allocations, per-phase allocation) ratios are reported, and phases
//!    above a noise floor whose ratio exceeds the configured threshold are
//!    flagged as regressions.
//!
//! # Exit contract
//!
//! - [`EXIT_CLEAN`] (0) — identical normative content, all ratios within
//!   thresholds.
//! - [`EXIT_REGRESSION`] (1) — identical content, but at least one phase
//!   regressed past a threshold.
//! - [`EXIT_ERROR`] (2) — normative content mismatch, or the inputs could
//!   not be read/parsed/paired (usage errors included).

use crate::export::strip_profile;
use crate::json;
use crate::profile::{self, PhaseAgg};
use crate::report;

/// Content identical, telemetry within thresholds.
pub const EXIT_CLEAN: u8 = 0;
/// Content identical, but a tracked phase regressed past a threshold.
pub const EXIT_REGRESSION: u8 = 1;
/// Content mismatch or unusable input.
pub const EXIT_ERROR: u8 = 2;

/// Thresholds for the telemetry stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffOptions {
    /// A phase regresses when `new_total / old_total` exceeds this.
    pub max_time_ratio: f64,
    /// A phase regresses when `new_alloc_bytes / old_alloc_bytes` exceeds
    /// this (checked only when both sides tracked allocations).
    pub max_alloc_ratio: f64,
    /// Phases whose baseline total is below this many nanoseconds are
    /// reported but never flagged (timer noise floor).
    pub min_total_ns: u64,
    /// Phases whose baseline allocation is below this many bytes are never
    /// alloc-flagged.
    pub min_alloc_bytes: u64,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            max_time_ratio: 1.5,
            max_alloc_ratio: 1.5,
            min_total_ns: 1_000_000,
            min_alloc_bytes: 1 << 20,
        }
    }
}

/// The rendered comparison plus the exit code the binary should use.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// One of the `EXIT_*` codes.
    pub exit: u8,
    /// Human-readable comparison (table + verdict lines).
    pub text: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Report,
    Chrome,
    Jsonl,
}

impl Format {
    fn name(self) -> &'static str {
        match self {
            Format::Report => "run-report",
            Format::Chrome => "chrome-trace",
            Format::Jsonl => "jsonl-trace",
        }
    }
}

fn detect(text: &str) -> Result<Format, String> {
    let head = text.trim_start();
    if head.starts_with("{\"schema\":\"mlpart-run-report") {
        Ok(Format::Report)
    } else if head.starts_with("{\"traceEvents\"") {
        Ok(Format::Chrome)
    } else if head.starts_with("{\"ev\":") {
        Ok(Format::Jsonl)
    } else {
        Err(
            "unrecognized document (expected a run report, chrome trace, or JSONL trace)"
                .to_string(),
        )
    }
}

struct Side {
    phases: Vec<PhaseAgg>,
    alloc_tracked: bool,
}

fn load(format: Format, text: &str) -> Result<Side, String> {
    match format {
        Format::Report => {
            let loaded = report::parse_report(text)?;
            Ok(Side {
                phases: loaded.phases,
                alloc_tracked: loaded.alloc_tracked,
            })
        }
        Format::Chrome => {
            let phases = profile::phases_from_chrome(&json::parse(text)?)?;
            let alloc_tracked = phases.iter().any(|p| p.alloc_count > 0);
            Ok(Side {
                phases,
                alloc_tracked,
            })
        }
        Format::Jsonl => {
            let phases = profile::phases_from_jsonl(text)?;
            let alloc_tracked = phases.iter().any(|p| p.alloc_count > 0);
            Ok(Side {
                phases,
                alloc_tracked,
            })
        }
    }
}

/// Points at the first line where two normalized documents disagree.
fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            let col = la
                .bytes()
                .zip(lb.bytes())
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| la.len().min(lb.len()));
            return format!("first divergence at line {}, byte {col}", i + 1);
        }
    }
    format!(
        "documents agree on the common prefix but differ in length ({} vs {} lines)",
        a.lines().count(),
        b.lines().count()
    )
}

fn ratio(new: u64, old: u64) -> f64 {
    if old == 0 {
        if new == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        new as f64 / old as f64
    }
}

/// Compares two artifact documents; see the module docs for the contract.
/// `label_a`/`label_b` name the sides in the rendered output (typically
/// the file paths).
pub fn diff_documents(
    label_a: &str,
    a: &str,
    label_b: &str,
    b: &str,
    opts: &DiffOptions,
) -> DiffReport {
    let mut text = String::new();
    let (fa, fb) = match (detect(a), detect(b)) {
        (Ok(fa), Ok(fb)) => (fa, fb),
        (Err(e), _) => {
            return DiffReport {
                exit: EXIT_ERROR,
                text: format!("{label_a}: {e}\n"),
            }
        }
        (_, Err(e)) => {
            return DiffReport {
                exit: EXIT_ERROR,
                text: format!("{label_b}: {e}\n"),
            }
        }
    };
    if fa != fb {
        return DiffReport {
            exit: EXIT_ERROR,
            text: format!(
                "format mismatch: {label_a} is a {} but {label_b} is a {}\n",
                fa.name(),
                fb.name()
            ),
        };
    }
    // Stage 1: byte-identical normative content after normalization.
    let norm_a = strip_profile(a);
    let norm_b = strip_profile(b);
    if norm_a != norm_b {
        return DiffReport {
            exit: EXIT_ERROR,
            text: format!(
                "NORMATIVE CONTENT MISMATCH: the two {}s did different work \
                 ({})\nA regression diff needs same-seed, same-config runs.\n",
                fa.name(),
                first_divergence(&norm_a, &norm_b)
            ),
        };
    }
    text.push_str(&format!(
        "normative content: identical ({} format)\n",
        fa.name()
    ));
    // Stage 2: per-phase telemetry.
    let (sa, sb) = match (load(fa, a), load(fb, b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => {
            return DiffReport {
                exit: EXIT_ERROR,
                text: format!("cannot extract phases: {e}\n"),
            }
        }
    };
    // Content was byte-identical, so the phase lists line up 1:1.
    let alloc = sa.alloc_tracked && sb.alloc_tracked;
    text.push_str(&format!(
        "{:<16} {:>7} {:>12} {:>12} {:>7}{}\n",
        "phase",
        "count",
        "old_ms",
        "new_ms",
        "ratio",
        if alloc {
            format!(
                " {:>12} {:>12} {:>7}",
                "old_alloc_kb", "new_alloc_kb", "ratio"
            )
        } else {
            String::new()
        }
    ));
    let mut regressions = Vec::new();
    for (pa, pb) in sa.phases.iter().zip(&sb.phases) {
        let t_ratio = ratio(pb.total_ns, pa.total_ns);
        let mut line = format!(
            "{:<16} {:>7} {:>12.3} {:>12.3} {:>7.2}",
            pa.name,
            pa.count,
            pa.total_ns as f64 / 1e6,
            pb.total_ns as f64 / 1e6,
            t_ratio
        );
        if alloc {
            line.push_str(&format!(
                " {:>12.1} {:>12.1} {:>7.2}",
                pa.alloc_bytes as f64 / 1024.0,
                pb.alloc_bytes as f64 / 1024.0,
                ratio(pb.alloc_bytes, pa.alloc_bytes)
            ));
        }
        if pa.total_ns >= opts.min_total_ns && t_ratio > opts.max_time_ratio {
            line.push_str("  <-- TIME REGRESSION");
            regressions.push(format!(
                "{}: time {:.2}x (limit {:.2}x)",
                pa.name, t_ratio, opts.max_time_ratio
            ));
        }
        if alloc && pa.alloc_bytes >= opts.min_alloc_bytes {
            let a_ratio = ratio(pb.alloc_bytes, pa.alloc_bytes);
            if a_ratio > opts.max_alloc_ratio {
                line.push_str("  <-- ALLOC REGRESSION");
                regressions.push(format!(
                    "{}: alloc {:.2}x (limit {:.2}x)",
                    pa.name, a_ratio, opts.max_alloc_ratio
                ));
            }
        }
        line.push('\n');
        text.push_str(&line);
    }
    if !alloc && (sa.alloc_tracked || sb.alloc_tracked) {
        text.push_str("note: only one side tracked allocations; alloc deltas skipped\n");
    }
    if regressions.is_empty() {
        text.push_str("verdict: clean\n");
        DiffReport {
            exit: EXIT_CLEAN,
            text,
        }
    } else {
        for r in &regressions {
            text.push_str(&format!("verdict: REGRESSION {r}\n"));
        }
        DiffReport {
            exit: EXIT_REGRESSION,
            text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EvKind, Event, Trace, V};

    /// A hand-built trace with controlled durations: run(0..base*4) holding
    /// two level spans of `base` ns each.
    fn synthetic(base: u64, kept: u64) -> Trace {
        let ev = |kind, name, ts_ns, args: Vec<(&'static str, V)>| Event {
            kind,
            name,
            ts_ns,
            args,
        };
        Trace {
            events: vec![
                ev(EvKind::Begin, "run", 0, vec![("runs", V::U(2))]),
                ev(EvKind::Begin, "level", base, vec![("level", V::U(0))]),
                ev(
                    EvKind::Counter,
                    "fm_pass",
                    base + 1,
                    vec![("kept", V::U(kept))],
                ),
                ev(EvKind::End, "level", base * 2, vec![]),
                ev(EvKind::Begin, "level", base * 2, vec![("level", V::U(1))]),
                ev(EvKind::End, "level", base * 3, vec![]),
                ev(EvKind::End, "run", base * 4, vec![]),
            ],
        }
    }

    fn report_doc(base: u64, kept: u64) -> String {
        crate::report::RunReport {
            meta: vec![("algo", V::S("ml-c")), ("seed", V::U(7))],
            cuts: vec![30, 31],
            failures: Vec::new(),
            truncations: Vec::new(),
            retries: Vec::new(),
            repairs: Vec::new(),
            wall_secs: base as f64 / 1e9,
            cpu_secs: base as f64 / 1e9,
            trace: synthetic(base, kept),
        }
        .to_json()
    }

    fn opts() -> DiffOptions {
        DiffOptions {
            min_total_ns: 1_000,
            ..DiffOptions::default()
        }
    }

    #[test]
    fn same_content_different_timing_is_clean() {
        let a = report_doc(10_000_000, 5);
        let b = report_doc(11_000_000, 5); // 1.1x — under the 1.5x threshold
        let d = diff_documents("a", &a, "b", &b, &opts());
        assert_eq!(d.exit, EXIT_CLEAN, "{}", d.text);
        assert!(d.text.contains("normative content: identical"));
        assert!(d.text.contains("verdict: clean"));
    }

    #[test]
    fn time_regression_trips_threshold() {
        let a = report_doc(10_000_000, 5);
        let b = report_doc(100_000_000, 5); // 10x
        let d = diff_documents("a", &a, "b", &b, &opts());
        assert_eq!(d.exit, EXIT_REGRESSION, "{}", d.text);
        assert!(d.text.contains("TIME REGRESSION"), "{}", d.text);
        // The reverse direction is an improvement, not a regression.
        let d = diff_documents("b", &b, "a", &a, &opts());
        assert_eq!(d.exit, EXIT_CLEAN, "{}", d.text);
    }

    #[test]
    fn content_mismatch_is_an_error_not_a_delta() {
        let a = report_doc(10_000_000, 5);
        let b = report_doc(10_000_000, 6); // different counter content
        let d = diff_documents("a", &a, "b", &b, &opts());
        assert_eq!(d.exit, EXIT_ERROR, "{}", d.text);
        assert!(d.text.contains("NORMATIVE CONTENT MISMATCH"));
    }

    #[test]
    fn jsonl_traces_diff_like_reports() {
        let a = crate::export::to_jsonl(&synthetic(10_000_000, 5));
        let slow = crate::export::to_jsonl(&synthetic(90_000_000, 5));
        let d = diff_documents("a", &a, "b", &slow, &opts());
        assert_eq!(d.exit, EXIT_REGRESSION, "{}", d.text);
        let changed = crate::export::to_jsonl(&synthetic(10_000_000, 9));
        let d = diff_documents("a", &a, "b", &changed, &opts());
        assert_eq!(d.exit, EXIT_ERROR, "{}", d.text);
    }

    #[test]
    fn mixed_formats_are_rejected() {
        let a = report_doc(10_000_000, 5);
        let b = crate::export::to_jsonl(&synthetic(10_000_000, 5));
        let d = diff_documents("a", &a, "b", &b, &opts());
        assert_eq!(d.exit, EXIT_ERROR);
        assert!(d.text.contains("format mismatch"));
        let d = diff_documents("a", "garbage", "b", &b, &opts());
        assert_eq!(d.exit, EXIT_ERROR);
    }
}
