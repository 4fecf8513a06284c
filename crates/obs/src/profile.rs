//! Phase-attributed cost rollups computed from the span tree.
//!
//! [`phase_rollup`] folds the [`build_tree`] span tree by span name: how
//! many times each phase ran (normative content), its total and *self* time
//! (total minus time in child spans), and — in `obs-alloc` builds — the
//! self-attributed allocation traffic and peak live-bytes growth, read from
//! the `End`-event `alloc_*` args `build_tree` merges into each node. It is
//! the one rollup: a run report serializes it as `profile.phases`, which is
//! what `obs-diff` compares.
//!
//! [`to_folded`] renders the same tree in the folded-stack text format
//! (`frame;frame;frame value`) consumed by `inferno` and Brendan Gregg's
//! `flamegraph.pl`; the sample value is self-time in nanoseconds.
//!
//! # Determinism
//!
//! Phase *names, order, and counts* are trace content: bit-identical for a
//! fixed `(netlist, config, seed)` at every thread count (the capture merge
//! appends per-start streams in start order). Times and alloc tallies are
//! telemetry — `strip_timing`/`strip_profile` zero or remove them before
//! any equality comparison, and the folded export has `strip_folded`.

use crate::json;
use crate::report::{arg_u64, build_tree, SpanNode};
use crate::trace::Trace;

/// Aggregated cost of one phase (all spans sharing a name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Span name.
    pub name: String,
    /// Number of spans with this name (normative).
    pub count: u64,
    /// Summed inclusive duration (non-normative). Nested same-name spans
    /// each contribute their inclusive time.
    pub total_ns: u64,
    /// Summed self time: inclusive minus time inside child spans
    /// (non-normative).
    pub self_ns: u64,
    /// Self-attributed allocated bytes (inclusive minus children); zero
    /// without `obs-alloc`.
    pub alloc_bytes: u64,
    /// Self-attributed allocation count; zero without `obs-alloc`.
    pub alloc_count: u64,
    /// Largest single-span peak of live-bytes growth; zero without
    /// `obs-alloc`.
    pub alloc_peak: u64,
}

fn fold_node(node: &SpanNode, phases: &mut Vec<PhaseAgg>) {
    let alloc = |n: &SpanNode, key| arg_u64(&n.args, key).unwrap_or(0);
    let children = |key| node.children.iter().map(|c| alloc(c, key)).sum::<u64>();
    let child_dur: u64 = node.children.iter().map(|c| c.dur_ns).sum();
    let slot = match phases.iter_mut().position(|p| p.name == node.name) {
        Some(i) => &mut phases[i],
        None => {
            phases.push(PhaseAgg {
                name: node.name.to_string(),
                count: 0,
                total_ns: 0,
                self_ns: 0,
                alloc_bytes: 0,
                alloc_count: 0,
                alloc_peak: 0,
            });
            phases.last_mut().expect("just pushed")
        }
    };
    slot.count += 1;
    slot.total_ns += node.dur_ns;
    slot.self_ns += node.dur_ns.saturating_sub(child_dur);
    slot.alloc_bytes += alloc(node, "alloc_bytes").saturating_sub(children("alloc_bytes"));
    slot.alloc_count += alloc(node, "alloc_count").saturating_sub(children("alloc_count"));
    slot.alloc_peak = slot.alloc_peak.max(alloc(node, "alloc_peak"));
    for child in &node.children {
        fold_node(child, phases);
    }
}

/// Rolls a span forest up into per-phase aggregates, in first-appearance
/// (pre-order) order. The `alloc_*` tallies are read from the node args,
/// where [`build_tree`] merges them from each span's `End` event.
pub(crate) fn rollup(spans: &[SpanNode]) -> Vec<PhaseAgg> {
    let mut phases = Vec::new();
    for node in spans {
        fold_node(node, &mut phases);
    }
    phases
}

/// Rolls a captured trace up into per-phase aggregates.
pub fn phase_rollup(trace: &Trace) -> Vec<PhaseAgg> {
    rollup(&build_tree(trace).spans)
}

/// Serializes phase aggregates as the `profile.phases` JSON array of a
/// `mlpart-run-report-v3` document.
pub fn write_phases_json(out: &mut String, phases: &[PhaseAgg]) {
    out.push('[');
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"phase\":");
        json::write_str(out, &p.name);
        out.push_str(&format!(
            ",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"alloc_bytes\":{},\
             \"alloc_count\":{},\"alloc_peak\":{}}}",
            p.count, p.total_ns, p.self_ns, p.alloc_bytes, p.alloc_count, p.alloc_peak
        ));
    }
    out.push(']');
}

/// Reads back the `profile.phases` array [`write_phases_json`] writes.
pub(crate) fn read_phases_json(phases: json::Field) -> Result<Vec<PhaseAgg>, String> {
    phases
        .items()?
        .map(|phase| {
            let [name, count, total_ns, self_ns, alloc_bytes, alloc_count, alloc_peak] = phase
                .fields([
                    "phase",
                    "count",
                    "total_ns",
                    "self_ns",
                    "alloc_bytes",
                    "alloc_count",
                    "alloc_peak",
                ])?;
            Ok(PhaseAgg {
                name: name.str()?.to_string(),
                count: count.int()?,
                total_ns: total_ns.int()?,
                self_ns: self_ns.int()?,
                alloc_bytes: alloc_bytes.int()?,
                alloc_count: alloc_count.int()?,
                alloc_peak: alloc_peak.int()?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Folded-stack export.
// ---------------------------------------------------------------------

fn fold_stacks(node: &SpanNode, prefix: &str, lines: &mut Vec<(String, u64)>) {
    let stack = if prefix.is_empty() {
        node.name.to_string()
    } else {
        format!("{prefix};{}", node.name)
    };
    let child_dur: u64 = node.children.iter().map(|c| c.dur_ns).sum();
    let self_ns = node.dur_ns.saturating_sub(child_dur);
    match lines.iter_mut().find(|(s, _)| *s == stack) {
        Some((_, v)) => *v += self_ns,
        None => lines.push((stack.clone(), self_ns)),
    }
    for child in &node.children {
        fold_stacks(child, &stack, lines);
    }
}

/// Renders a trace in the folded-stack text format (`a;b;c value`, one line
/// per distinct stack, value = self-time nanoseconds), compatible with
/// `inferno-flamegraph` and `flamegraph.pl`.
///
/// Stacks are emitted in first-appearance order and merged by identity, so
/// the *set and order of lines* is trace content (thread-count invariant);
/// only the sample values vary. [`crate::export::strip_folded`] zeroes them
/// for content comparison.
pub fn to_folded(trace: &Trace) -> String {
    let mut lines = Vec::new();
    for node in &build_tree(trace).spans {
        fold_stacks(node, "", &mut lines);
    }
    let mut out = String::new();
    for (stack, value) in lines {
        out.push_str(&format!("{stack} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{strip_folded, strip_profile, trace_from_jsonl};
    use crate::trace::{capture, counter, span, V};

    fn sample() -> Trace {
        let (_, t) = capture(|| {
            let _run = span("run", &[("runs", V::U(1))]);
            for i in 0..2u64 {
                let _lvl = span("level", &[("level", V::U(i))]);
                counter("fm_pass", &[("kept", V::U(3 + i))]);
                let _fm = span("fm_refine", &[]);
            }
        });
        t
    }

    #[test]
    fn rollup_counts_and_order_are_content() {
        let phases = phase_rollup(&sample());
        let summary: Vec<(&str, u64)> = phases.iter().map(|p| (p.name.as_str(), p.count)).collect();
        assert_eq!(
            summary,
            [("run", 1), ("level", 2), ("fm_refine", 2)],
            "first-appearance order with per-name counts"
        );
    }

    #[test]
    fn self_time_excludes_children() {
        let phases = phase_rollup(&sample());
        let run = &phases[0];
        let level = &phases[1];
        let fm = &phases[2];
        assert!(run.total_ns >= level.total_ns, "run encloses the levels");
        assert!(level.total_ns >= fm.total_ns, "levels enclose refinement");
        assert!(
            run.self_ns <= run.total_ns && level.self_ns <= level.total_ns,
            "self never exceeds total"
        );
        // Self times of a rooted tree partition the root's total.
        let self_sum: u64 = phases.iter().map(|p| p.self_ns).sum();
        assert_eq!(self_sum, run.total_ns, "self times partition the total");
    }

    #[test]
    fn folded_stacks_have_stable_frames() {
        let folded = to_folded(&sample());
        let stacks: Vec<&str> = folded
            .lines()
            .map(|l| l.rsplit_once(' ').expect("value-terminated").0)
            .collect();
        assert_eq!(
            stacks,
            ["run", "run;level", "run;level;fm_refine"],
            "merged stacks in first-appearance order"
        );
        assert_eq!(
            strip_folded(&folded),
            "run 0\nrun;level 0\nrun;level;fm_refine 0\n"
        );
    }

    #[test]
    fn report_and_jsonl_rollups_match_in_memory() {
        let t = sample();
        let direct = phase_rollup(&t);
        let from_jsonl = trace_from_jsonl(&crate::export::to_jsonl(&t)).expect("parses");
        assert_eq!(direct, phase_rollup(&from_jsonl), "jsonl round trip");
        let report = crate::report::RunReport {
            meta: vec![("algo", V::S("ml-c"))],
            cuts: vec![7],
            failures: Vec::new(),
            truncations: Vec::new(),
            retries: Vec::new(),
            repairs: Vec::new(),
            wall_secs: 0.1,
            cpu_secs: 0.1,
            trace: t.clone(),
        };
        let loaded = crate::report::parse_report(&report.to_json()).expect("valid report");
        assert_eq!(direct, loaded.phases, "report round trip");
    }

    #[test]
    fn strip_profile_removes_alloc_and_zeroes_sched() {
        let line = r#"{"args":{"alloc_bytes":123,"alloc_count":4,"alloc_peak":99,"kept":7},"threads":8,"alloc_tracked":1}"#;
        assert_eq!(
            strip_profile(line),
            r#"{"args":{"kept":7},"threads":0,"alloc_tracked":0}"#
        );
    }
}
