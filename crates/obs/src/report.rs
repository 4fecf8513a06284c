//! Machine-readable run reports built from captured traces.
//!
//! A [`RunReport`] pairs the flat event stream with run-level metadata
//! (algorithm, seed, per-start cuts, total timing) and serializes as a
//! single JSON document (`schema: "mlpart-run-report-v3"`, with a per-phase
//! `profile` rollup and a deterministic `metrics` registry; [`parse_report`]
//! loads it back). [`build_tree`] rebuilds the span tree from
//! `Begin`/`End` bracketing; it is the one tree builder, under the report's
//! `spans` section, the phase rollup and the folded-stack export alike.

use crate::export;
use crate::json;
use crate::trace::{EvKind, Trace, V};

/// A point counter sample attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter name.
    pub name: &'static str,
    /// Timestamp (non-normative).
    pub ts_ns: u64,
    /// Deterministic values.
    pub args: Vec<(&'static str, V)>,
}

/// One reconstructed span with its nested structure.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: &'static str,
    /// Begin timestamp (non-normative).
    pub ts_ns: u64,
    /// Duration in nanoseconds (non-normative).
    pub dur_ns: u64,
    /// Arguments recorded at `Begin`.
    pub args: Vec<(&'static str, V)>,
    /// Counters sampled directly inside this span.
    pub counters: Vec<CounterSample>,
    /// Child spans in execution order.
    pub children: Vec<SpanNode>,
}

/// A trace reassembled into its span hierarchy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTree {
    /// Top-level spans.
    pub spans: Vec<SpanNode>,
    /// Counters recorded outside any span.
    pub counters: Vec<CounterSample>,
}

/// Rebuilds the span hierarchy from a flat event stream.
///
/// Tolerant of imbalance (a truncated capture): an `End` with no open span
/// is dropped, and spans still open at the end of the stream are closed at
/// the final event's timestamp. Args recorded on the `End` event (the
/// `alloc_*` telemetry in `obs-alloc` builds) are merged into the node's
/// args after the `Begin` args.
pub fn build_tree(trace: &Trace) -> SpanTree {
    let mut tree = SpanTree::default();
    let mut stack: Vec<SpanNode> = Vec::new();
    let last_ts = trace.events.last().map_or(0, |e| e.ts_ns);
    let close = |stack: &mut Vec<SpanNode>,
                 tree: &mut SpanTree,
                 ts_ns: u64,
                 end_args: &[(&'static str, V)]| {
        if let Some(mut node) = stack.pop() {
            node.dur_ns = ts_ns.saturating_sub(node.ts_ns);
            node.args.extend_from_slice(end_args);
            match stack.last_mut() {
                Some(parent) => parent.children.push(node),
                None => tree.spans.push(node),
            }
        }
    };
    for ev in &trace.events {
        match ev.kind {
            EvKind::Begin => stack.push(SpanNode {
                name: ev.name,
                ts_ns: ev.ts_ns,
                dur_ns: 0,
                args: ev.args.clone(),
                counters: Vec::new(),
                children: Vec::new(),
            }),
            EvKind::End => close(&mut stack, &mut tree, ev.ts_ns, &ev.args),
            EvKind::Counter => {
                let sample = CounterSample {
                    name: ev.name,
                    ts_ns: ev.ts_ns,
                    args: ev.args.clone(),
                };
                match stack.last_mut() {
                    Some(parent) => parent.counters.push(sample),
                    None => tree.counters.push(sample),
                }
            }
        }
    }
    while !stack.is_empty() {
        close(&mut stack, &mut tree, last_ts, &[]);
    }
    tree
}

/// One start that panicked and was excluded from the run's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureRecord {
    /// The failed start's index.
    pub start: u64,
    /// The innermost span open at the panic, when known.
    pub phase: Option<String>,
    /// The panic payload message.
    pub message: String,
}

/// One start whose run was cut short by an execution budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncationRecord {
    /// The truncated start's index.
    pub start: u64,
    /// Which budget limit fired (`"moves"`, `"passes"`, `"levels"`,
    /// `"deadline"`, or `"injected"`).
    pub limit: &'static str,
    /// Checkpoint site where the limit fired (`"pass"` or `"level"`).
    pub site: &'static str,
    /// Hierarchy level at the truncation point, when known.
    pub level: Option<u64>,
    /// Refinement pass at the truncation point, when known.
    pub pass: Option<u64>,
}

/// One failed attempt the supervisor absorbed by retrying the start from
/// its next deterministic seed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryReportRecord {
    /// The start whose attempt failed.
    pub start: u64,
    /// The failed attempt index (0-based).
    pub attempt: u64,
    /// The innermost span open at the panic, when known.
    pub phase: Option<String>,
    /// The panic payload message.
    pub message: String,
}

/// One start whose final partition violated its balance constraints and was
/// driven back to feasibility by the deterministic greedy repair pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReportRecord {
    /// The repaired start's index.
    pub start: u64,
    /// Moves the repair pass applied.
    pub moves: u64,
    /// Cut entering repair.
    pub cut_before: u64,
    /// Cut after repair.
    pub cut_after: u64,
    /// Whether repair reached feasibility (an infeasible record means the
    /// start's output was discarded).
    pub feasible: bool,
}

/// A run's machine-readable report: metadata + cuts + timing + span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Run metadata (algorithm, k, seed, runs, threads, circuit, …).
    pub meta: Vec<(&'static str, V)>,
    /// Final cut per start, in start order (surviving starts only).
    pub cuts: Vec<u64>,
    /// Starts that panicked, in start order (empty on a healthy run).
    pub failures: Vec<FailureRecord>,
    /// Starts cut short by an execution budget, in start order.
    pub truncations: Vec<TruncationRecord>,
    /// Attempt failures absorbed by supervised retries, in (start, attempt)
    /// order (empty when supervision is off or nothing failed).
    pub retries: Vec<RetryReportRecord>,
    /// Balance repairs applied to constraint-violating outputs, in start
    /// order (empty when every start finished feasible).
    pub repairs: Vec<RepairReportRecord>,
    /// Total wall-clock seconds (non-normative).
    pub wall_secs: f64,
    /// Summed per-start CPU seconds (non-normative).
    pub cpu_secs: f64,
    /// The captured run trace (merged across workers in start order).
    pub trace: Trace,
}

fn write_counter(out: &mut String, c: &CounterSample) {
    out.push_str("{\"name\":");
    json::write_str(out, c.name);
    out.push_str(&format!(",\"ts\":{}", c.ts_ns));
    out.push_str(",\"args\":");
    export::write_args(out, &c.args);
    out.push('}');
}

fn write_node(out: &mut String, node: &SpanNode) {
    out.push_str("{\"name\":");
    json::write_str(out, node.name);
    out.push_str(&format!(
        ",\"ts\":{},\"dur_ns\":{}",
        node.ts_ns, node.dur_ns
    ));
    out.push_str(",\"args\":");
    export::write_args(out, &node.args);
    out.push_str(",\"counters\":[");
    for (i, c) in node.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_counter(out, c);
    }
    out.push_str("],\"children\":[");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node(out, child);
    }
    out.push_str("]}");
}

impl RunReport {
    /// Serializes the report as a `mlpart-run-report-v3` JSON document.
    ///
    /// Besides the cuts, timing and span tree, the document carries the
    /// `failures` and `truncations` arrays, the `profile` section (per-phase
    /// time/alloc rollup from the span tree, `alloc_tracked` flagging
    /// whether an `obs-alloc` allocator was compiled in), the `metrics`
    /// array (the deterministic counter-argument registry), and the
    /// crash-safety arrays `retries` (attempt failures absorbed by the
    /// supervisor) and `repairs` (balance repairs applied to infeasible
    /// outputs).
    pub fn to_json(&self) -> String {
        let tree = build_tree(&self.trace);
        let mut out = String::from("{\"schema\":\"mlpart-run-report-v3\",\"meta\":");
        export::write_args(&mut out, &self.meta);
        let min = self.cuts.iter().copied().min().unwrap_or(0);
        let max = self.cuts.iter().copied().max().unwrap_or(0);
        let avg = if self.cuts.is_empty() {
            0.0
        } else {
            self.cuts.iter().sum::<u64>() as f64 / self.cuts.len() as f64
        };
        out.push_str(&format!(",\"cut\":{{\"min\":{min},\"max\":{max},\"avg\":"));
        json::write_f64(&mut out, avg);
        out.push_str(",\"per_start\":[");
        for (i, c) in self.cuts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{c}"));
        }
        out.push_str("]},\"failures\":[");
        for (i, rec) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"start\":{},\"phase\":", rec.start));
            json::write_opt(&mut out, rec.phase.as_deref(), json::write_str);
            out.push_str(",\"message\":");
            json::write_str(&mut out, &rec.message);
            out.push('}');
        }
        out.push_str("],\"truncations\":[");
        for (i, rec) in self.truncations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"start\":{},\"limit\":", rec.start));
            json::write_str(&mut out, rec.limit);
            out.push_str(",\"site\":");
            json::write_str(&mut out, rec.site);
            out.push_str(",\"level\":");
            json::write_opt(&mut out, rec.level, json::write_int);
            out.push_str(",\"pass\":");
            json::write_opt(&mut out, rec.pass, json::write_int);
            out.push('}');
        }
        out.push_str("],\"retries\":[");
        for (i, rec) in self.retries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"start\":{},\"attempt\":{},\"phase\":",
                rec.start, rec.attempt
            ));
            json::write_opt(&mut out, rec.phase.as_deref(), json::write_str);
            out.push_str(",\"message\":");
            json::write_str(&mut out, &rec.message);
            out.push('}');
        }
        out.push_str("],\"repairs\":[");
        for (i, rec) in self.repairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"start\":{},\"moves\":{},\"cut_before\":{},\"cut_after\":{},\"feasible\":{}}}",
                rec.start,
                rec.moves,
                rec.cut_before,
                rec.cut_after,
                if rec.feasible { "true" } else { "false" }
            ));
        }
        out.push_str("],\"timing\":{\"wall_secs\":");
        json::write_f64(&mut out, self.wall_secs);
        out.push_str(",\"cpu_secs\":");
        json::write_f64(&mut out, self.cpu_secs);
        let alloc_tracked = u8::from(cfg!(feature = "obs-alloc"));
        out.push_str(&format!(
            "}},\"profile\":{{\"alloc_tracked\":{alloc_tracked},\"phases\":"
        ));
        let phases = crate::profile::rollup(&tree.spans);
        crate::profile::write_phases_json(&mut out, &phases);
        out.push_str("},\"metrics\":");
        let registry = crate::metrics::Registry::from_trace(&self.trace);
        registry.write_json(&mut out);
        out.push_str(",\"spans\":[");
        for (i, node) in tree.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_node(&mut out, node);
        }
        out.push_str("],\"counters\":[");
        for (i, c) in tree.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_counter(&mut out, c);
        }
        out.push_str("]}");
        out
    }
}

/// The profile of a run report loaded back from its JSON serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedReport {
    /// Per-phase time/alloc aggregates, as the report's `profile.phases`.
    pub phases: Vec<crate::profile::PhaseAgg>,
    /// Whether the producing binary tracked allocations (`obs-alloc`).
    pub alloc_tracked: bool,
}

/// Parses a `mlpart-run-report-v3` document's `profile` section.
///
/// # Errors
///
/// Returns a message for malformed JSON, a missing/unknown `schema` tag, or
/// a `profile` section that is missing, or has a missing, extra or
/// mistyped field.
pub fn parse_report(text: &str) -> Result<LoadedReport, String> {
    let doc = json::parse(text)?;
    let tag = doc
        .get("schema")
        .and_then(json::Json::as_str)
        .ok_or("document has no schema tag")?;
    if tag != "mlpart-run-report-v3" {
        return Err(format!("unsupported report schema {tag:?}"));
    }
    let profile = doc.get("profile").ok_or("report without a profile")?;
    let [alloc_tracked, phases] =
        json::fields(profile, ["alloc_tracked", "phases"]).map_err(|e| format!("profile: {e}"))?;
    Ok(LoadedReport {
        phases: crate::profile::read_phases_json(phases)?,
        alloc_tracked: alloc_tracked.int::<u8>()? == 1,
    })
}

/// The unsigned integer value of argument `key`, if present.
pub(crate) fn arg_u64(args: &[(&'static str, V)], key: &str) -> Option<u64> {
    args.iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            V::U(n) => Some(*n),
            V::I(n) => u64::try_from(*n).ok(),
            _ => None,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{append_raw, capture, counter, span};

    fn synthetic_start(t: u64) {
        let _ml = span("ml_bipartition", &[("modules", V::U(64))]);
        {
            let _init = span("initial", &[("level", V::U(3)), ("modules", V::U(8))]);
            counter(
                "fm_pass",
                &[
                    ("pass", V::U(0)),
                    ("cut_before", V::U(40 + t)),
                    ("cut_after", V::U(30 + t)),
                    ("attempted", V::U(10)),
                    ("kept", V::U(6 + t)),
                ],
            );
        }
        let _lvl = span("level", &[("level", V::U(2)), ("modules", V::U(16))]);
        counter("rebalance", &[("moves", V::U(3))]);
        let _ref = span("fm_refine", &[]);
        for p in 0..2u64 {
            counter(
                "fm_pass",
                &[
                    ("pass", V::U(p)),
                    ("cut_before", V::U(30 - p * 4)),
                    ("cut_after", V::U(26 - p * 4)),
                    ("attempted", V::U(16)),
                    ("kept", V::U(4)),
                ],
            );
        }
    }

    fn synthetic_run() -> Trace {
        let (_, t) = capture(|| {
            let _run = span("run", &[("runs", V::U(2))]);
            for i in 0..2u64 {
                let (_, child) = capture(|| synthetic_start(i % 2));
                let mut wrapped = Trace::default();
                wrapped.append_span("start", &[("start", V::U(i))], &child);
                append_raw(&wrapped);
            }
        });
        t
    }

    #[test]
    fn tree_nesting_matches_bracketing() {
        let tree = build_tree(&synthetic_run());
        assert_eq!(tree.spans.len(), 1);
        let run = &tree.spans[0];
        assert_eq!(run.name, "run");
        assert_eq!(run.children.len(), 2);
        for (i, start) in run.children.iter().enumerate() {
            assert_eq!(start.name, "start");
            assert_eq!(arg_u64(&start.args, "start"), Some(i as u64));
            let ml = &start.children[0];
            assert_eq!(ml.name, "ml_bipartition");
            assert_eq!(ml.children.len(), 2); // initial + level
        }
    }

    #[test]
    fn unbalanced_trace_closes_open_spans() {
        let mut t = synthetic_run();
        t.events.truncate(5); // drop most Ends
        let tree = build_tree(&t);
        assert_eq!(tree.spans.len(), 1); // still a single rooted tree
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        let report = RunReport {
            meta: vec![
                ("algo", V::S("ml-fm")),
                ("seed", V::U(1)),
                ("runs", V::U(2)),
            ],
            cuts: vec![31, 30],
            failures: Vec::new(),
            truncations: Vec::new(),
            retries: Vec::new(),
            repairs: Vec::new(),
            wall_secs: 0.5,
            cpu_secs: 0.9,
            trace: synthetic_run(),
        };
        let doc = report.to_json();
        let parsed = json::parse(&doc).expect("report is valid JSON");
        assert_eq!(
            parsed.get("schema").unwrap().as_str(),
            Some("mlpart-run-report-v3")
        );
        let profile = parsed.get("profile").expect("v3 profile section");
        let phases = profile.get("phases").unwrap().as_arr().unwrap();
        assert_eq!(phases[0].get("phase").unwrap().as_str(), Some("run"));
        assert!(
            !parsed.get("metrics").unwrap().as_arr().unwrap().is_empty(),
            "metrics registry folded the counters"
        );
        assert_eq!(
            parsed.get("failures").unwrap().as_arr().unwrap().len(),
            0,
            "healthy run reports no failures"
        );
        assert_eq!(
            parsed.get("cut").unwrap().get("min").unwrap().as_num(),
            Some(30.0)
        );
        assert_eq!(
            parsed
                .get("cut")
                .unwrap()
                .get("per_start")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        let spans = parsed.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("run"));
        // Timing-stripped reports of the same content compare equal.
        let mut shifted = report.clone();
        for ev in &mut shifted.trace.events {
            ev.ts_ns += 1_000_000;
        }
        shifted.wall_secs = 9.9;
        assert_eq!(
            export::strip_timing(&doc),
            export::strip_timing(&shifted.to_json())
        );
    }

    #[test]
    fn parse_report_round_trips_current_output() {
        let report = RunReport {
            meta: vec![("algo", V::S("ml-fm")), ("seed", V::U(1))],
            cuts: vec![31, 30],
            failures: Vec::new(),
            truncations: Vec::new(),
            retries: Vec::new(),
            repairs: Vec::new(),
            wall_secs: 0.5,
            cpu_secs: 0.9,
            trace: synthetic_run(),
        };
        let text = report.to_json();
        let loaded = parse_report(&text).expect("v3 parses");
        let v2 = text.replacen("mlpart-run-report-v3", "mlpart-run-report-v2", 1);
        assert!(parse_report(&v2).is_err(), "only v3 loads");
        assert_eq!(loaded.alloc_tracked, cfg!(feature = "obs-alloc"));
        assert_eq!(loaded.phases, crate::profile::phase_rollup(&report.trace));
        assert!(parse_report(r#"{"schema":"bogus","spans":[]}"#).is_err());
        assert!(parse_report("not json").is_err());
    }

    #[test]
    fn failures_and_truncations_serialize() {
        let report = RunReport {
            meta: vec![("algo", V::S("ml-fm"))],
            cuts: vec![30],
            failures: vec![FailureRecord {
                start: 1,
                phase: Some("fm_refine".to_string()),
                message: "injected fault: panic@start:1".to_string(),
            }],
            truncations: vec![TruncationRecord {
                start: 0,
                limit: "passes",
                site: "pass",
                level: Some(2),
                pass: Some(4),
            }],
            retries: vec![RetryReportRecord {
                start: 1,
                attempt: 0,
                phase: None,
                message: "injected fault: panic@attempt:8".to_string(),
            }],
            repairs: vec![RepairReportRecord {
                start: 0,
                moves: 5,
                cut_before: 30,
                cut_after: 33,
                feasible: true,
            }],
            wall_secs: 0.1,
            cpu_secs: 0.1,
            trace: synthetic_run(),
        };
        let parsed = json::parse(&report.to_json()).expect("valid JSON");
        let failures = parsed.get("failures").unwrap().as_arr().unwrap();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].get("start").unwrap().as_num(), Some(1.0));
        assert_eq!(
            failures[0].get("phase").unwrap().as_str(),
            Some("fm_refine")
        );
        assert!(failures[0]
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("injected"));
        let truncations = parsed.get("truncations").unwrap().as_arr().unwrap();
        assert_eq!(truncations.len(), 1);
        assert_eq!(
            truncations[0].get("limit").unwrap().as_str(),
            Some("passes")
        );
        assert_eq!(truncations[0].get("level").unwrap().as_num(), Some(2.0));
        let retries = parsed.get("retries").unwrap().as_arr().unwrap();
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].get("start").unwrap().as_num(), Some(1.0));
        assert_eq!(retries[0].get("attempt").unwrap().as_num(), Some(0.0));
        assert_eq!(retries[0].get("phase").unwrap(), &json::Json::Null);
        assert!(retries[0]
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("attempt:8"));
        let repairs = parsed.get("repairs").unwrap().as_arr().unwrap();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].get("moves").unwrap().as_num(), Some(5.0));
        assert_eq!(repairs[0].get("cut_after").unwrap().as_num(), Some(33.0));
        assert_eq!(repairs[0].get("feasible").unwrap(), &json::Json::Bool(true));
    }
}
