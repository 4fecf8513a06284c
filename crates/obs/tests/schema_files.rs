//! The checked-in schemas under `schemas/` must accept what the exporters
//! actually emit — these tests round-trip a captured trace through both
//! exporters and validate against the schema files CI ships.

use mlpart_obs as obs;
use obs::json;
use obs::report::RunReport;
use obs::schema;

const REPORT_SCHEMA: &str = include_str!("../../../schemas/run-report.schema.json");
const CHROME_SCHEMA: &str = include_str!("../../../schemas/chrome-trace.schema.json");

/// A small but structurally representative trace: a run with two starts,
/// each holding nested spans and counters.
fn sample_trace() -> obs::Trace {
    let (_, trace) = obs::capture(|| {
        let _run = obs::span("run", &[("runs", 2u64.into())]);
        for i in 0..2u64 {
            let _start = obs::span("start", &[("start", i.into())]);
            let _level = obs::span("level", &[("level", 0u64.into())]);
            obs::counter(
                "fm_pass",
                &[("pass", 0u64.into()), ("cut_after", 7u64.into())],
            );
        }
    });
    trace
}

#[test]
fn chrome_trace_matches_checked_in_schema() {
    let schema = json::parse(CHROME_SCHEMA).expect("schema parses");
    let doc = json::parse(&obs::to_chrome_trace(&sample_trace())).expect("export parses");
    let errors = schema::validate(&schema, &doc);
    assert!(errors.is_empty(), "schema violations: {errors:?}");
}

#[test]
fn run_report_matches_checked_in_schema() {
    let report = RunReport {
        meta: vec![("algo", obs::V::S("ml-c")), ("seed", 5u64.into())],
        cuts: vec![7, 9],
        failures: vec![obs::report::FailureRecord {
            start: 1,
            phase: None,
            message: "injected fault: panic@start:1".to_string(),
        }],
        truncations: vec![obs::report::TruncationRecord {
            start: 0,
            limit: "passes",
            site: "pass",
            level: None,
            pass: Some(3),
        }],
        retries: vec![obs::report::RetryReportRecord {
            start: 1,
            attempt: 0,
            phase: Some("fm_refine".to_string()),
            message: "injected fault: panic@attempt:8".to_string(),
        }],
        repairs: vec![obs::report::RepairReportRecord {
            start: 0,
            moves: 4,
            cut_before: 7,
            cut_after: 9,
            feasible: true,
        }],
        wall_secs: 0.25,
        cpu_secs: 0.5,
        trace: sample_trace(),
    };
    let schema = json::parse(REPORT_SCHEMA).expect("schema parses");
    let doc = json::parse(&report.to_json()).expect("report parses");
    let errors = schema::validate(&schema, &doc);
    assert!(errors.is_empty(), "schema violations: {errors:?}");
}

/// The schemas reject structurally broken documents — they are not
/// vacuous accept-everything stubs.
#[test]
fn schemas_reject_malformed_documents() {
    let chrome = json::parse(CHROME_SCHEMA).expect("schema parses");
    let bad = json::parse(r#"{"traceEvents":[{"name":"x","ph":"X","pid":0,"tid":0,"ts":1}]}"#)
        .expect("parses");
    assert!(
        !schema::validate(&chrome, &bad).is_empty(),
        "bad ph must fail"
    );
    let empty = json::parse(r#"{"traceEvents":[]}"#).expect("parses");
    assert!(!schema::validate(&chrome, &empty).is_empty(), "minItems");

    let report = json::parse(REPORT_SCHEMA).expect("schema parses");
    let bad = json::parse(r#"{"schema":"mlpart-run-report-v2","meta":{},"cut":{"min":0,"max":0,"avg":0,"per_start":[]},"timing":{"wall_secs":0,"cpu_secs":0},"spans":[],"counters":[]}"#).expect("parses");
    assert!(
        !schema::validate(&report, &bad).is_empty(),
        "v2 tag, missing profile/metrics, and empty spans must all fail v3"
    );
}
