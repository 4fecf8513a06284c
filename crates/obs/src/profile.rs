//! Phase-attributed cost rollups computed from the span tree.
//!
//! [`phase_rollup`] aggregates a captured trace by span name: how many
//! times each phase ran (normative content), its total and *self* time
//! (total minus time in child spans), and — in `obs-alloc` builds — the
//! self-attributed allocation traffic and peak live-bytes growth. The same
//! rollup is recomputed from already-serialized documents
//! ([`phases_from_report`], [`phases_from_jsonl`], [`phases_from_chrome`])
//! so `obs-diff` can compare any two artifacts without re-running anything.
//!
//! [`to_folded`] renders the tree in the folded-stack text format
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

use crate::json::{self, Json};
use crate::report::{SpanNode, SpanTree};
use crate::trace::{Trace, V};

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

/// An owned span node — the common shape the rollup walks, whether the
/// source is an in-memory [`SpanTree`] or a parsed JSON document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OwnedNode {
    /// Span name.
    pub name: String,
    /// Inclusive duration in nanoseconds.
    pub dur_ns: u64,
    /// Inclusive allocated bytes (0 when untracked).
    pub alloc_bytes: u64,
    /// Inclusive allocation count (0 when untracked).
    pub alloc_count: u64,
    /// Peak live-bytes growth during the span (0 when untracked).
    pub alloc_peak: u64,
    /// Child spans in execution order.
    pub children: Vec<OwnedNode>,
}

fn arg_u64(args: &[(&'static str, V)], key: &str) -> u64 {
    args.iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            V::U(n) => Some(*n),
            V::I(n) => u64::try_from(*n).ok(),
            _ => None,
        })
        .unwrap_or(0)
}

fn node_from_span(span: &SpanNode) -> OwnedNode {
    OwnedNode {
        name: span.name.to_string(),
        dur_ns: span.dur_ns,
        alloc_bytes: arg_u64(&span.args, "alloc_bytes"),
        alloc_count: arg_u64(&span.args, "alloc_count"),
        alloc_peak: arg_u64(&span.args, "alloc_peak"),
        children: span.children.iter().map(node_from_span).collect(),
    }
}

fn fold_node(node: &OwnedNode, phases: &mut Vec<PhaseAgg>) {
    let child_dur: u64 = node.children.iter().map(|c| c.dur_ns).sum();
    let child_bytes: u64 = node.children.iter().map(|c| c.alloc_bytes).sum();
    let child_count: u64 = node.children.iter().map(|c| c.alloc_count).sum();
    let slot = match phases.iter_mut().position(|p| p.name == node.name) {
        Some(i) => &mut phases[i],
        None => {
            phases.push(PhaseAgg {
                name: node.name.clone(),
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
    slot.alloc_bytes += node.alloc_bytes.saturating_sub(child_bytes);
    slot.alloc_count += node.alloc_count.saturating_sub(child_count);
    slot.alloc_peak = slot.alloc_peak.max(node.alloc_peak);
    for child in &node.children {
        fold_node(child, phases);
    }
}

/// Rolls a forest of owned nodes up into per-phase aggregates, in first
/// appearance (pre-order) order.
pub fn rollup_nodes(nodes: &[OwnedNode]) -> Vec<PhaseAgg> {
    let mut phases = Vec::new();
    for node in nodes {
        fold_node(node, &mut phases);
    }
    phases
}

/// Converts a rebuilt [`SpanTree`] into owned nodes (alloc args, recorded
/// on span `End` events, are read from the merged node args).
pub fn nodes_from_tree(tree: &SpanTree) -> Vec<OwnedNode> {
    tree.spans.iter().map(node_from_span).collect()
}

/// Rolls a captured trace up into per-phase aggregates.
pub fn phase_rollup(trace: &Trace) -> Vec<PhaseAgg> {
    rollup_nodes(&nodes_from_tree(&crate::report::build_tree(trace)))
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

// ---------------------------------------------------------------------
// Re-deriving the rollup from serialized documents (obs-diff's parsers).
// ---------------------------------------------------------------------

fn json_u64(obj: &Json, key: &str) -> u64 {
    obj.get(key).and_then(Json::as_num).map_or(0, |n| n as u64)
}

fn node_from_json(span: &Json) -> Result<OwnedNode, String> {
    let name = span
        .get("name")
        .and_then(Json::as_str)
        .ok_or("span node without a name")?
        .to_string();
    let args = span.get("args");
    let alloc = |key: &str| args.map_or(0, |a| json_u64(a, key));
    let mut children = Vec::new();
    if let Some(Json::Arr(kids)) = span.get("children") {
        for kid in kids {
            children.push(node_from_json(kid)?);
        }
    }
    Ok(OwnedNode {
        name,
        dur_ns: json_u64(span, "dur_ns"),
        alloc_bytes: alloc("alloc_bytes"),
        alloc_count: alloc("alloc_count"),
        alloc_peak: alloc("alloc_peak"),
        children,
    })
}

/// Extracts per-phase aggregates from a parsed run report: the rollup is
/// recomputed from the `spans` tree.
pub fn phases_from_report(doc: &Json) -> Result<Vec<PhaseAgg>, String> {
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("report without a spans array")?;
    let mut nodes = Vec::new();
    for span in spans {
        nodes.push(node_from_json(span)?);
    }
    Ok(rollup_nodes(&nodes))
}

/// Builds an owned forest from a flat Begin/End event stream. Tolerant of
/// imbalance the same way `build_tree` is: stray `End`s are dropped, spans
/// left open close at the last seen timestamp.
fn forest_from_events(events: &[(char, String, u64, Option<Json>)]) -> Vec<OwnedNode> {
    let mut forest: Vec<OwnedNode> = Vec::new();
    // (node, begin_ts)
    let mut stack: Vec<(OwnedNode, u64)> = Vec::new();
    let last_ts = events.last().map_or(0, |e| e.2);
    let close = |stack: &mut Vec<(OwnedNode, u64)>,
                 forest: &mut Vec<OwnedNode>,
                 ts: u64,
                 args: Option<&Json>| {
        if let Some((mut node, t0)) = stack.pop() {
            node.dur_ns = ts.saturating_sub(t0);
            if let Some(args) = args {
                node.alloc_bytes = json_u64(args, "alloc_bytes");
                node.alloc_count = json_u64(args, "alloc_count");
                node.alloc_peak = json_u64(args, "alloc_peak");
            }
            match stack.last_mut() {
                Some((parent, _)) => parent.children.push(node),
                None => forest.push(node),
            }
        }
    };
    for (kind, name, ts, args) in events {
        match kind {
            'B' => stack.push((
                OwnedNode {
                    name: name.clone(),
                    ..OwnedNode::default()
                },
                *ts,
            )),
            'E' => close(&mut stack, &mut forest, *ts, args.as_ref()),
            _ => {}
        }
    }
    while !stack.is_empty() {
        close(&mut stack, &mut forest, last_ts, None);
    }
    forest
}

/// Extracts per-phase aggregates from a JSONL trace export
/// (`{"ev":"B"|"E"|"C","name":...,"ts":...,"args":{...}}` per line).
pub fn phases_from_jsonl(text: &str) -> Result<Vec<PhaseAgg>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let kind = ev
            .get("ev")
            .and_then(Json::as_str)
            .and_then(|s| s.chars().next())
            .ok_or_else(|| format!("line {}: missing ev", i + 1))?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing name", i + 1))?
            .to_string();
        let ts = json_u64(&ev, "ts");
        events.push((kind, name, ts, ev.get("args").cloned()));
    }
    Ok(rollup_nodes(&forest_from_events(&events)))
}

/// Extracts per-phase aggregates from a Chrome Trace Event document.
/// Timestamps are microseconds in that format; durations are reported in
/// nanoseconds for consistency with the other sources.
pub fn phases_from_chrome(doc: &Json) -> Result<Vec<PhaseAgg>, String> {
    let raw = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("chrome trace without traceEvents")?;
    let mut events = Vec::new();
    for ev in raw {
        let kind = ev
            .get("ph")
            .and_then(Json::as_str)
            .and_then(|s| s.chars().next())
            .ok_or("trace event without ph")?;
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("trace event without name")?
            .to_string();
        let ts = json_u64(ev, "ts") * 1_000;
        events.push((kind, name, ts, ev.get("args").cloned()));
    }
    Ok(rollup_nodes(&forest_from_events(&events)))
}

// ---------------------------------------------------------------------
// Folded-stack export.
// ---------------------------------------------------------------------

fn fold_stacks(node: &OwnedNode, prefix: &str, lines: &mut Vec<(String, u64)>) {
    let stack = if prefix.is_empty() {
        node.name.clone()
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
    let nodes = nodes_from_tree(&crate::report::build_tree(trace));
    let mut lines = Vec::new();
    for node in &nodes {
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
    use crate::export::{strip_folded, strip_profile};
    use crate::trace::{capture, counter, span};

    fn sample() -> Trace {
        crate::force_enabled(true);
        let (_, t) = capture(|| {
            let _run = span("run", &[("runs", V::U(1))]);
            for i in 0..2u64 {
                let _lvl = span("level", &[("level", V::U(i))]);
                counter("fm_pass", &[("kept", V::U(3 + i))]);
                let _fm = span("fm_refine", &[]);
            }
        });
        crate::force_enabled(false);
        t.expect("recorded")
    }

    #[test]
    fn rollup_counts_and_order_are_content() {
        let _gate = crate::test_gate_lock();
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
        let _gate = crate::test_gate_lock();
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
        let _gate = crate::test_gate_lock();
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
        let _gate = crate::test_gate_lock();
        let t = sample();
        let direct = phase_rollup(&t);
        let from_jsonl = phases_from_jsonl(&crate::export::to_jsonl(&t)).expect("parses");
        assert_eq!(direct, from_jsonl, "jsonl round-trip preserves the rollup");
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
        let doc = json::parse(&report.to_json()).expect("valid report");
        let from_report = phases_from_report(&doc).expect("report rollup");
        assert_eq!(
            direct, from_report,
            "report round-trip preserves the rollup"
        );
        // Chrome timestamps are truncated to µs — compare content only.
        let chrome = json::parse(&crate::export::to_chrome_trace(&t)).expect("valid chrome");
        let from_chrome = phases_from_chrome(&chrome).expect("chrome rollup");
        let names = |ps: &[PhaseAgg]| -> Vec<(String, u64)> {
            ps.iter().map(|p| (p.name.clone(), p.count)).collect()
        };
        assert_eq!(names(&direct), names(&from_chrome));
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
