//! Trace exporters: JSONL event stream and Chrome Trace Event Format.
//!
//! Both formats interleave deterministic content with timestamps;
//! [`strip_timing`] normalizes the timestamp fields so exported documents
//! can be compared byte-for-byte across runs and thread counts. JSONL also
//! reads back through [`json::parse`] and its typed field reader:
//! [`trace_from_jsonl`] rebuilds the exact [`Trace`], which is how a
//! checkpoint restores each finished start's trace on `--resume`.

use crate::json::{self, Json};
use crate::trace::{EvKind, Event, Trace, V};

pub(crate) fn write_v(out: &mut String, v: &V) {
    match v {
        V::U(n) => json::write_int(out, *n),
        V::I(n) => json::write_int(out, *n),
        V::F(n) => json::write_f64(out, *n),
        V::S(s) => json::write_str(out, s),
    }
}

pub(crate) fn write_args(out: &mut String, args: &[(&'static str, V)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_str(out, k);
        out.push(':');
        write_v(out, v);
    }
    out.push('}');
}

/// Serializes a trace as one JSON object per line:
/// `{"ev":"B"|"E"|"C","name":...,"ts":<ns>,"args":{...}}`.
pub fn to_jsonl(trace: &Trace) -> String {
    let mut out = String::new();
    for ev in &trace.events {
        out.push_str("{\"ev\":\"");
        out.push(match ev.kind {
            EvKind::Begin => 'B',
            EvKind::End => 'E',
            EvKind::Counter => 'C',
        });
        out.push_str("\",\"name\":");
        json::write_str(&mut out, ev.name);
        out.push_str(&format!(",\"ts\":{}", ev.ts_ns));
        out.push_str(",\"args\":");
        write_args(&mut out, &ev.args);
        out.push_str("}\n");
    }
    out
}

/// Interns a string into the process-wide `&'static str` pool, leaking each
/// distinct name exactly once. Trace event names and argument keys are
/// `&'static str` by construction; reconstructing a trace from its JSONL
/// serialization (checkpoint resume) has to mint equivalent statics.
fn intern(s: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::Mutex;
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&hit) = pool.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Reconstructs a [`Trace`] from its [`to_jsonl`] serialization.
///
/// The inverse the checkpoint/resume path relies on:
/// `to_jsonl(trace_from_jsonl(to_jsonl(t))?) == to_jsonl(t)` byte-for-byte,
/// timestamps included. Each line goes through [`json::parse`], whose
/// integers are exact, so every argument value maps back to the [`V`] that
/// re-serializes to the same bytes. Event names and argument keys are
/// interned into the process-wide static pool.
///
/// # Errors
///
/// Returns a message naming the offending line for anything that is not a
/// `to_jsonl`-shaped event line.
pub fn trace_from_jsonl(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (lineno, line) in text.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
        let event = event_from_line(line).map_err(|e| format!("trace line {}: {e}", lineno + 1))?;
        trace.events.push(event);
    }
    Ok(trace)
}

fn event_from_line(line: &str) -> Result<Event, String> {
    let doc = json::parse(line)?;
    let [ev, name, ts, args] = json::fields(&doc, ["ev", "name", "ts", "args"])?;
    let kind = match ev.str()? {
        "B" => EvKind::Begin,
        "E" => EvKind::End,
        "C" => EvKind::Counter,
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(Event {
        kind,
        name: intern(name.str()?),
        ts_ns: ts.int()?,
        args: read_args(args)?,
    })
}

/// The argument list [`write_args`] wrote as `args`.
fn read_args(args: json::Field) -> Result<Vec<(&'static str, V)>, String> {
    args.obj()?
        .iter()
        .map(|(key, value)| Ok((intern(key), arg_value(key, value)?)))
        .collect()
}

/// The [`V`] that [`write_v`] turns back into `value`'s bytes: integers in
/// the `u64` range → `U`, other integers in the `i64` range → `I`, every
/// other number → `F` (so `V::F(1e20)`, written as plain digits, comes
/// back as `F`), `null` → `F(NaN)`, strings → `S`.
fn arg_value(key: &str, value: &Json) -> Result<V, String> {
    if let Some(s) = value.as_str() {
        Ok(V::S(intern(s)))
    } else if let Some(n) = value.as_u64() {
        Ok(V::U(n))
    } else if let Some(n) = value.as_i64() {
        Ok(V::I(n))
    } else if let Some(n) = value.as_num() {
        Ok(V::F(n))
    } else if *value == Json::Null {
        Ok(V::F(f64::NAN))
    } else {
        Err(format!(
            "{key}: expected a number or a string, found {}",
            json::describe(value)
        ))
    }
}

/// Serializes a trace in Chrome Trace Event Format (JSON object format),
/// loadable in `chrome://tracing` and Perfetto.
///
/// Spans become duration events (`ph: "B"`/`"E"`); counters become thread
/// instants (`ph: "i"`, `s: "t"`). Timestamps are microseconds as the
/// format requires; everything runs on `pid` 0 with `tid` 0 (the merged
/// stream is already serialized in deterministic start order).
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in trace.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(&mut out, ev.name);
        let ph = match ev.kind {
            EvKind::Begin => "B",
            EvKind::End => "E",
            EvKind::Counter => "i",
        };
        out.push_str(&format!(
            ",\"ph\":\"{ph}\",\"pid\":0,\"tid\":0,\"ts\":{}",
            ev.ts_ns / 1_000
        ));
        if ev.kind == EvKind::Counter {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":");
        write_args(&mut out, &ev.args);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Timestamp-carrying JSON keys excluded from the determinism contract,
/// plus the allocation telemetry keys — alloc tallies follow the standard
/// library's growth policy and the toolchain, not the algorithm, so they
/// are telemetry exactly like durations.
const TIMING_KEYS: [&str; 10] = [
    "ts",
    "dur_ns",
    "wall_secs",
    "cpu_secs",
    "fill_ms",
    "total_ns",
    "self_ns",
    "alloc_bytes",
    "alloc_count",
    "alloc_peak",
];

/// Allocation keys present only in `obs-alloc` builds: [`strip_profile`]
/// removes them entirely so traces from `obs` and `obs-alloc` builds of the
/// same workload compare equal on content.
const ALLOC_KEYS: [&str; 3] = ["alloc_bytes", "alloc_count", "alloc_peak"];

/// Keys that record the execution *schedule* rather than content: the
/// thread count and whether the allocator was instrumented. Zeroed by
/// [`strip_profile`] so same-seed documents from different `--threads`
/// settings (and alloc on/off builds) compare equal — the contract the
/// `obs-diff` tool byte-verifies.
const SCHED_KEYS: [&str; 2] = ["threads", "alloc_tracked"];

/// True for argument keys excluded from the determinism contract (timing,
/// allocation, scheduling); the metrics registry skips these when folding.
pub fn is_non_normative_key(key: &str) -> bool {
    TIMING_KEYS.contains(&key) || SCHED_KEYS.contains(&key)
}

/// Zeroes the numeric value after every `"key":` occurrence for each key in
/// `keys`; everything else is byte-for-byte intact. Only a `"` byte can
/// start a match, so the scan jumps from quote to quote.
fn strip_keys(s: &str, keys: &[&str]) -> String {
    let bytes = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut copied = 0; // `s[..copied]` is already in `out`
    let mut pos = 0;
    while let Some(quote) = bytes[pos..].iter().position(|&b| b == b'"') {
        pos += quote + 1;
        let rest = &bytes[pos..];
        let Some(key) = keys
            .iter()
            .find(|key| rest.starts_with(key.as_bytes()) && rest[key.len()..].starts_with(b"\":"))
        else {
            continue;
        };
        pos += key.len() + 2;
        let start = pos;
        while pos < bytes.len()
            && matches!(bytes[pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            pos += 1;
        }
        // Only replace an actual number; leave anything else alone.
        if pos > start {
            out.push_str(&s[copied..start]);
            out.push('0');
            copied = pos;
        }
    }
    out.push_str(&s[copied..]);
    out
}

/// Returns `s` with the numeric value after every timing or allocation key
/// (`"ts"`, `"dur_ns"`, `"wall_secs"`, `"cpu_secs"`, `"fill_ms"`,
/// `"total_ns"`, `"self_ns"`, `"alloc_*"`) replaced by `0`.
///
/// Everything else is left byte-for-byte intact, so two exports of the same
/// deterministic content compare equal after stripping — this is the
/// comparison the trace-determinism tests and CI perform.
pub fn strip_timing(s: &str) -> String {
    strip_keys(s, &TIMING_KEYS)
}

/// The profile-comparison normalization: [`strip_timing`] plus zeroing the
/// scheduling keys (`"threads"`, `"alloc_tracked"`) and *removing* the
/// allocation keys outright.
///
/// Zeroing suffices when a key appears on both sides; the `alloc_*` args
/// only exist in `obs-alloc` builds, so equality across alloc on/off
/// requires deleting them. After `strip_profile`, any two documents for the
/// same `(netlist, config, seed)` must be byte-identical regardless of
/// thread count or allocator instrumentation — `obs-diff` exits 2 when they
/// are not.
pub fn strip_profile(s: &str) -> String {
    let mut keys: Vec<&str> = TIMING_KEYS.to_vec();
    keys.extend(SCHED_KEYS);
    let mut out = strip_keys(s, &keys);
    for key in ALLOC_KEYS {
        // Values are already zeroed, so the occurrences are literal; drop
        // them with whichever comma keeps the object well-formed.
        out = out.replace(&format!("\"{key}\":0,"), "");
        out = out.replace(&format!(",\"{key}\":0"), "");
        out = out.replace(&format!("\"{key}\":0"), "");
    }
    out
}

/// Zeroes the trailing sample value of every folded-stack line, keeping the
/// stack frames (the normative part) intact.
pub fn strip_folded(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for line in s.lines() {
        match line.rsplit_once(' ') {
            Some((stack, _value)) => {
                out.push_str(stack);
                out.push_str(" 0\n");
            }
            None => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{capture, counter, span};

    fn sample_trace() -> Trace {
        let (_, t) = capture(|| {
            let _run = span("run", &[("runs", V::U(2)), ("algo", V::S("ml-fm"))]);
            counter(
                "pass",
                &[
                    ("cut_before", V::U(40)),
                    ("cut_after", V::U(31)),
                    ("ratio", V::F(0.35)),
                ],
            );
        });
        t
    }

    #[test]
    fn jsonl_lines_parse_and_carry_args() {
        let jsonl = to_jsonl(&sample_trace());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            json::parse(line).expect("each JSONL line is valid JSON");
        }
        let pass = json::parse(lines[1]).unwrap();
        assert_eq!(pass.get("ev").unwrap().as_str(), Some("C"));
        assert_eq!(
            pass.get("args").unwrap().get("cut_after").unwrap().as_num(),
            Some(31.0)
        );
        assert_eq!(
            pass.get("args").unwrap().get("ratio").unwrap().as_num(),
            Some(0.35)
        );
    }

    #[test]
    fn chrome_trace_is_valid_and_balanced() {
        let doc = to_chrome_trace(&sample_trace());
        let parsed = json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        let phs: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(phs, vec!["B", "i", "E"]);
        assert_eq!(events[1].get("s").unwrap().as_str(), Some("t"));
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let (_, t) = capture(|| {
            let _run = span(
                "run",
                &[
                    ("seed", V::U(u64::MAX)),
                    ("offset", V::I(-42)),
                    ("ratio", V::F(0.35)),
                    ("whole", V::F(2.0)),
                    ("big", V::F(1e20)),
                    ("neg_big", V::F(-1e19)),
                    ("nan", V::F(f64::NAN)),
                    ("name", V::S("a \"quoted\"\n\tpath\\x")),
                ],
            );
            counter("draw", &[("value", V::U(9_007_199_254_740_993))]);
        });
        let mut t = t;
        t.events[0].ts_ns = 123_456_789; // exercise non-zero timestamps too
        let jsonl = to_jsonl(&t);
        let back = trace_from_jsonl(&jsonl).expect("round-trip parses");
        // Byte-identical re-serialization — including values above 2^53
        // that an f64 round-trip would corrupt.
        assert_eq!(to_jsonl(&back), jsonl);
        assert_eq!(back.events[0].ts_ns, 123_456_789);
        assert_eq!(back.events[0].args[0], ("seed", V::U(u64::MAX)));
        assert_eq!(back.events[0].args[1], ("offset", V::I(-42)));
        // Integers outside both the u64 and i64 ranges come back as floats.
        assert_eq!(back.events[0].args[4], ("big", V::F(1e20)));
        assert_eq!(back.events[0].args[5], ("neg_big", V::F(-1e19)));
        // Empty input is an empty trace, blank lines are skipped.
        assert!(trace_from_jsonl("").expect("empty ok").events.is_empty());
        assert_eq!(
            trace_from_jsonl(&format!("\n{jsonl}\n"))
                .expect("blank lines ok")
                .events
                .len(),
            t.events.len()
        );
    }

    #[test]
    fn malformed_jsonl_is_a_named_error_not_a_panic() {
        for bad in [
            "{",
            "{\"ev\":\"X\",\"name\":\"a\",\"ts\":0,\"args\":{}}",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":-1,\"args\":{}}",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":0,\"args\":{\"k\":}}",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":0,\"args\":{}}trailing",
            "{\"ev\":\"B\",\"name\":\"unterminated",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":0,\"args\":{\"k\":\"\\u12\"}}",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":0}",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":0,\"args\":{},\"x\":1}",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":1.5,\"args\":{}}",
            "{\"ev\":\"B\",\"name\":\"a\",\"ts\":0,\"args\":{\"k\":[1]}}",
        ] {
            let err = trace_from_jsonl(bad).expect_err(bad);
            assert!(err.starts_with("trace line 1:"), "{err}");
        }
    }

    #[test]
    fn strip_timing_zeroes_only_timing_values() {
        let line = r#"{"ev":"C","name":"pass","ts":123456,"args":{"cut_after":31,"dur_ns":987,"wall_secs":0.25,"cpu_secs":1.5,"fill_ms":0.2}}"#;
        let stripped = strip_timing(line);
        assert_eq!(
            stripped,
            r#"{"ev":"C","name":"pass","ts":0,"args":{"cut_after":31,"dur_ns":0,"wall_secs":0,"cpu_secs":0,"fill_ms":0}}"#
        );
    }

    #[test]
    fn same_content_different_timing_strips_equal() {
        let t = sample_trace();
        let mut shifted = t.clone();
        for ev in &mut shifted.events {
            ev.ts_ns += 17_000_000;
        }
        assert_eq!(
            strip_timing(&to_jsonl(&t)),
            strip_timing(&to_jsonl(&shifted))
        );
        assert_eq!(
            strip_timing(&to_chrome_trace(&t)),
            strip_timing(&to_chrome_trace(&shifted))
        );
    }
}
