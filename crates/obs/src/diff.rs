//! Comparison engine behind the `obs-diff` binary.
//!
//! Compares two run reports (`mlpart-run-report-v3`, written by
//! `--report-out`) in two stages:
//!
//! 1. **Normative content check.** Both documents are normalized with
//!    [`strip_profile`] (timing zeroed, scheduling keys zeroed, alloc keys
//!    removed) and compared byte-for-byte. Any difference means the two
//!    runs did different *work* — not a performance delta — and the diff
//!    refuses to proceed.
//! 2. **Telemetry deltas.** Per-phase time (and, when both sides tracked
//!    allocations, per-phase allocation) ratios are reported, and phases
//!    above a noise floor whose ratio exceeds the configured threshold are
//!    flagged as regressions. Each report supplies its own
//!    `profile.phases` table.
//!
//! # Exit contract
//!
//! - [`EXIT_CLEAN`] (0) — identical normative content, all ratios within
//!   thresholds.
//! - [`EXIT_REGRESSION`] (1) — identical content, but at least one phase
//!   regressed past a threshold.
//! - [`EXIT_ERROR`] (2) — normative content mismatch, or an input that is
//!   not a readable run report (usage errors included).

use crate::export::strip_profile;
use crate::report::{self, LoadedReport};

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

/// Parses one side, naming it and the one schema `obs-diff` reads in the
/// error.
fn load(label: &str, text: &str) -> Result<LoadedReport, String> {
    report::parse_report(text).map_err(|e| {
        format!(
            "{label}: {e}\nobs-diff compares two mlpart-run-report-v3 run reports (--report-out)\n"
        )
    })
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

/// Compares two run reports; see the module docs for the contract.
/// `label_a`/`label_b` name the sides in the rendered output (typically
/// the file paths).
pub fn diff_documents(
    label_a: &str,
    a: &str,
    label_b: &str,
    b: &str,
    opts: &DiffOptions,
) -> DiffReport {
    let (sa, sb) = match (load(label_a, a), load(label_b, b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(text), _) | (_, Err(text)) => {
            return DiffReport {
                exit: EXIT_ERROR,
                text,
            }
        }
    };
    // Stage 1: byte-identical normative content after normalization.
    let norm_a = strip_profile(a);
    let norm_b = strip_profile(b);
    if norm_a != norm_b {
        return DiffReport {
            exit: EXIT_ERROR,
            text: format!(
                "NORMATIVE CONTENT MISMATCH: the two run-reports did different work \
                 ({})\nA regression diff needs same-seed, same-config runs.\n",
                first_divergence(&norm_a, &norm_b)
            ),
        };
    }
    let mut text = String::from("normative content: identical (run-report format)\n");
    // Stage 2: per-phase telemetry.
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

    /// One hand-built trace covering every shape the span tree handles: a
    /// counter outside any span, nested same-name `level` spans, End-event
    /// `alloc_*` args as `obs-alloc` writes them, and a `run` span left
    /// open. Timestamps are whole microseconds times `scale`.
    fn pinned_trace(scale: u64) -> Trace {
        let ev = |kind, name, ts_us: u64, args: Vec<(&'static str, V)>| Event {
            kind,
            name,
            ts_ns: ts_us * 1_000 * scale,
            args,
        };
        let alloc = |bytes, count, peak| {
            vec![
                ("alloc_bytes", V::U(bytes)),
                ("alloc_count", V::U(count)),
                ("alloc_peak", V::U(peak)),
            ]
        };
        let pass = |kept| vec![("kept", V::U(kept)), ("gain", V::I(-2))];
        Trace {
            events: vec![
                ev(EvKind::Counter, "setup", 0, vec![("modules", V::U(64))]),
                ev(EvKind::Begin, "run", 10, vec![("runs", V::U(1))]),
                ev(EvKind::Begin, "level", 20, vec![("level", V::U(0))]),
                ev(EvKind::Counter, "fm_pass", 30, pass(5)),
                ev(EvKind::Begin, "level", 500, vec![("level", V::U(1))]),
                ev(EvKind::Begin, "fm_refine", 700, vec![]),
                ev(EvKind::Counter, "fm_pass", 900, pass(3)),
                ev(EvKind::End, "fm_refine", 2_700, alloc(4_096, 3, 2_048)),
                ev(EvKind::End, "level", 3_000, alloc(10_240, 5, 6_144)),
                ev(EvKind::End, "level", 4_200, alloc(12_288, 8, 6_144)),
                ev(EvKind::Begin, "level", 4_200, vec![("level", V::U(2))]),
                ev(EvKind::End, "level", 4_900, alloc(512, 1, 512)),
                ev(EvKind::Counter, "fm_pass", 6_000, pass(1)),
            ],
        }
    }

    fn pinned_report(scale: u64) -> String {
        crate::report::RunReport {
            meta: vec![("algo", V::S("ml-c")), ("seed", V::U(7))],
            cuts: vec![30, 31],
            failures: Vec::new(),
            truncations: Vec::new(),
            retries: Vec::new(),
            repairs: Vec::new(),
            wall_secs: 0.5 * scale as f64,
            cpu_secs: 0.75 * scale as f64,
            trace: pinned_trace(scale),
        }
        .to_json()
    }

    /// The exact bytes of `pinned_report(1)` from a build without
    /// `obs-alloc` (which writes `"alloc_tracked":1` instead).
    const PINNED_REPORT: &str = concat!(
        "{\"schema\":\"mlpart-run-report-v3\",\"meta\":{\"algo\":\"ml-c\",\"seed\":7},\"cut\":{\"min\":30,\"max\":31,\"avg\":30.5,\"per_start\":[30,31]}",
        ",\"failures\":[],\"truncations\":[],\"retries\":[],\"repairs\":[]",
        ",\"timing\":{\"wall_secs\":0.5,\"cpu_secs\":0.75}",
        ",\"profile\":{\"alloc_tracked\":0,\"phases\":[",
        "{\"phase\":\"run\",\"count\":1,\"total_ns\":5990000,\"self_ns\":1110000,\"alloc_bytes\":0,\"alloc_count\":0,\"alloc_peak\":0},",
        "{\"phase\":\"level\",\"count\":3,\"total_ns\":7380000,\"self_ns\":2880000,\"alloc_bytes\":8704,\"alloc_count\":6,\"alloc_peak\":6144},",
        "{\"phase\":\"fm_refine\",\"count\":1,\"total_ns\":2000000,\"self_ns\":2000000,\"alloc_bytes\":4096,\"alloc_count\":3,\"alloc_peak\":2048}]}",
        ",\"metrics\":[",
        "{\"name\":\"setup.modules\",\"count\":1,\"sum\":64,\"min\":64,\"max\":64,\"last\":64,\"log2\":[[7,1]]},",
        "{\"name\":\"fm_pass.kept\",\"count\":3,\"sum\":9,\"min\":1,\"max\":5,\"last\":1,\"log2\":[[1,1],[2,1],[3,1]]},",
        "{\"name\":\"fm_pass.gain\",\"count\":3,\"sum\":-6,\"min\":-2,\"max\":-2,\"last\":-2,\"log2\":[[2,3]]}]",
        ",\"spans\":[{\"name\":\"run\",\"ts\":10000,\"dur_ns\":5990000,\"args\":{\"runs\":1}",
        ",\"counters\":[{\"name\":\"fm_pass\",\"ts\":6000000,\"args\":{\"kept\":1,\"gain\":-2}}]",
        ",\"children\":[",
        "{\"name\":\"level\",\"ts\":20000,\"dur_ns\":4180000,\"args\":{\"level\":0,\"alloc_bytes\":12288,\"alloc_count\":8,\"alloc_peak\":6144}",
        ",\"counters\":[{\"name\":\"fm_pass\",\"ts\":30000,\"args\":{\"kept\":5,\"gain\":-2}}]",
        ",\"children\":[",
        "{\"name\":\"level\",\"ts\":500000,\"dur_ns\":2500000,\"args\":{\"level\":1,\"alloc_bytes\":10240,\"alloc_count\":5,\"alloc_peak\":6144}",
        ",\"counters\":[],\"children\":[",
        "{\"name\":\"fm_refine\",\"ts\":700000,\"dur_ns\":2000000,\"args\":{\"alloc_bytes\":4096,\"alloc_count\":3,\"alloc_peak\":2048}",
        ",\"counters\":[{\"name\":\"fm_pass\",\"ts\":900000,\"args\":{\"kept\":3,\"gain\":-2}}]",
        ",\"children\":[]}]}]},",
        "{\"name\":\"level\",\"ts\":4200000,\"dur_ns\":700000,\"args\":{\"level\":2,\"alloc_bytes\":512,\"alloc_count\":1,\"alloc_peak\":512}",
        ",\"counters\":[],\"children\":[]}]}],\"counters\":[",
        "{\"name\":\"setup\",\"ts\":0,\"args\":{\"modules\":64}}]}",
    );

    /// The exact `to_folded` text of `pinned_trace(1)`.
    const PINNED_FOLDED: &str = "\
run 1110000
run;level 2380000
run;level;level 500000
run;level;level;fm_refine 2000000
";

    /// The diff of [`pinned_report`] against its ×10 copy from an
    /// `obs-alloc` build, where both sides tracked allocations.
    const PINNED_DIFF_ALLOC: &str = "\
normative content: identical (run-report format)
phase              count       old_ms       new_ms   ratio old_alloc_kb new_alloc_kb   ratio
run                    1        5.990       59.900   10.00          0.0          0.0    1.00  <-- TIME REGRESSION
level                  3        7.380       73.800   10.00          8.5          8.5    1.00  <-- TIME REGRESSION
fm_refine              1        2.000       20.000   10.00          4.0          4.0    1.00  <-- TIME REGRESSION
verdict: REGRESSION run: time 10.00x (limit 1.50x)
verdict: REGRESSION level: time 10.00x (limit 1.50x)
verdict: REGRESSION fm_refine: time 10.00x (limit 1.50x)
";

    /// The same diff from a build without `obs-alloc`.
    const PINNED_DIFF_NO_ALLOC: &str = "\
normative content: identical (run-report format)
phase              count       old_ms       new_ms   ratio
run                    1        5.990       59.900   10.00  <-- TIME REGRESSION
level                  3        7.380       73.800   10.00  <-- TIME REGRESSION
fm_refine              1        2.000       20.000   10.00  <-- TIME REGRESSION
verdict: REGRESSION run: time 10.00x (limit 1.50x)
verdict: REGRESSION level: time 10.00x (limit 1.50x)
verdict: REGRESSION fm_refine: time 10.00x (limit 1.50x)
";

    #[test]
    fn pinned_report_bytes() {
        let tracked = format!(
            "\"alloc_tracked\":{}",
            u8::from(cfg!(feature = "obs-alloc"))
        );
        let got = pinned_report(1);
        assert_eq!(got, PINNED_REPORT.replace("\"alloc_tracked\":0", &tracked));
    }

    #[test]
    fn pinned_folded_text() {
        let got = crate::profile::to_folded(&pinned_trace(1));
        assert_eq!(got, PINNED_FOLDED);
    }

    #[test]
    fn pinned_diff_texts() {
        let d = diff_documents(
            "a",
            &pinned_report(1),
            "b",
            &pinned_report(10),
            &DiffOptions::default(),
        );
        let expected = if cfg!(feature = "obs-alloc") {
            PINNED_DIFF_ALLOC
        } else {
            PINNED_DIFF_NO_ALLOC
        };
        assert_eq!((d.exit, d.text.as_str()), (EXIT_REGRESSION, expected));
    }

    #[test]
    fn mixed_formats_are_rejected() {
        let a = report_doc(10_000_000, 5);
        let trace = synthetic(10_000_000, 5);
        for (label, other) in [
            ("jsonl", crate::export::to_jsonl(&trace)),
            ("chrome", crate::export::to_chrome_trace(&trace)),
            ("garbage", "garbage".to_string()),
            ("v2", a.replacen("run-report-v3", "run-report-v2", 1)),
        ] {
            for d in [
                diff_documents("a", &a, label, &other, &opts()),
                diff_documents(label, &other, "a", &a, &opts()),
            ] {
                assert_eq!(d.exit, EXIT_ERROR, "{label}: {}", d.text);
                assert!(d.text.starts_with(label), "{label}: {}", d.text);
                assert!(
                    d.text.contains("mlpart-run-report-v3"),
                    "{label}: {}",
                    d.text
                );
            }
        }
    }
}
