//! The checked-in `schemas/checkpoint-v1.schema.json` must accept what
//! `mlpart::checkpoint` actually writes. A checkpoint is JSONL, so each
//! line validates against the named subschema for its role (`header`,
//! `record`) and an ok record's nested pieces against `outcome_ok`,
//! `truncation`, and `repair`; the validator subset has no oneOf, so the
//! test navigates the subschemas directly.

use mlpart::checkpoint::{record_line, CheckpointConfig, StartOutcome, StartValue};
use mlpart::exec::supervise::StartContribution;
use mlpart::hypergraph::metrics::cut;
use mlpart::obs::{json, schema};
use mlpart::{
    Budget, BudgetLimit, Hypergraph, HypergraphBuilder, Partition, RepairRecord, StartDone,
    StartFailure, Truncation,
};

const SCHEMA: &str = include_str!("../schemas/checkpoint-v1.schema.json");

fn subschema<'a>(root: &'a json::Json, name: &str) -> &'a json::Json {
    root.get("properties")
        .and_then(|p| p.get(name))
        .unwrap_or_else(|| panic!("schema has no {name} subschema"))
}

fn chain(n: usize) -> Hypergraph {
    let mut b = HypergraphBuilder::with_unit_areas(n);
    for i in 0..n - 1 {
        b.add_net([i, i + 1]).expect("valid net");
    }
    b.build().expect("valid hypergraph")
}

fn config() -> CheckpointConfig {
    CheckpointConfig {
        circuit: "syn-balu".to_string(),
        algo: "ml-c".to_string(),
        k: 2,
        epsilon: Some(0.1),
        fixed: Some("cells.fix".to_string()),
        ratio: 0.5,
        threshold: 35,
        runs: 4,
        seed: 11,
        retries: 3,
        degraded_passes: Some(2),
        budget: Budget {
            max_passes: Some(9),
            ..Budget::default()
        },
        traced: true,
    }
}

fn ok_line(h: &Hypergraph) -> String {
    let parts = (0..h.num_modules())
        .map(|i| u32::from(i >= h.num_modules() / 2))
        .collect();
    let partition = Partition::from_assignment(h, 2, parts).expect("valid");
    let cut_now = cut(h, &partition);
    let value: StartValue = Ok(StartOutcome {
        partition,
        cut: cut_now,
        level_stats: Vec::new(),
        truncation: Some(Truncation {
            limit: BudgetLimit::Passes,
            site: "pass",
            level: Some(1),
            pass: Some(3),
        }),
        repair: Some(RepairRecord {
            moves: 2,
            cut_before: cut_now + 4,
            cut_after: cut_now,
            feasible: true,
        }),
    });
    record_line(&StartDone {
        start: 1,
        attempts: 2,
        outcome: Ok(&value),
        retries: &[mlpart::RetryRecord {
            start: 1,
            attempt: 0,
            message: "injected fault: panic@attempt:8".to_string(),
            phase: Some("fm_refine".to_string()),
        }],
        trace: &StartContribution::default(),
    })
}

#[test]
fn header_and_records_match_the_checked_in_schema() {
    let root = json::parse(SCHEMA).expect("schema parses");
    let h = chain(8);

    let header = json::parse(&config().header_line()).expect("header parses");
    let errors = schema::validate(subschema(&root, "header"), &header);
    assert!(errors.is_empty(), "header violations: {errors:?}");

    // One record per outcome variant; each validates as a record and its
    // outcome validates against the matching named shape.
    let failure = StartFailure {
        start: 2,
        message: "boom".to_string(),
        phase: None,
    };
    let err_value: StartValue = Err("unknown algorithm \"x\"".to_string());
    let lines = [
        (ok_line(&h), "outcome_ok"),
        (
            record_line(&StartDone {
                start: 0,
                attempts: 1,
                outcome: Ok(&err_value),
                retries: &[],
                trace: &StartContribution::default(),
            }),
            "outcome_err",
        ),
        (
            record_line(&StartDone::<StartValue> {
                start: 2,
                attempts: 3,
                outcome: Err(&failure),
                retries: &[],
                trace: &StartContribution::default(),
            }),
            "outcome_failed",
        ),
    ];
    for (line, outcome_shape) in &lines {
        let doc = json::parse(line).expect("record parses");
        let errors = schema::validate(subschema(&root, "record"), &doc);
        assert!(
            errors.is_empty(),
            "{outcome_shape} record violations: {errors:?}"
        );
        let outcome = doc.get("outcome").expect("record has outcome");
        let errors = schema::validate(subschema(&root, outcome_shape), outcome);
        assert!(errors.is_empty(), "{outcome_shape} violations: {errors:?}");
    }

    // The ok outcome's nested truncation and repair match their shapes.
    let doc = json::parse(&lines[0].0).expect("record parses");
    let ok = doc
        .get("outcome")
        .and_then(|o| o.get("ok"))
        .expect("ok outcome");
    for name in ["truncation", "repair"] {
        let nested = ok.get(name).expect(name);
        let errors = schema::validate(subschema(&root, name), nested);
        assert!(errors.is_empty(), "{name} violations: {errors:?}");
    }
}

/// The subschemas reject broken lines — they are not accept-everything
/// stubs.
#[test]
fn schema_rejects_malformed_lines() {
    let root = json::parse(SCHEMA).expect("schema parses");
    let bad_header =
        json::parse(r#"{"schema":"mlpart-checkpoint-v0","config":{}}"#).expect("parses");
    assert!(
        !schema::validate(subschema(&root, "header"), &bad_header).is_empty(),
        "wrong version and empty config must fail"
    );
    let bad_record =
        json::parse(r#"{"start":0,"attempts":1,"outcome":{"err":"x"}}"#).expect("parses");
    assert!(
        !schema::validate(subschema(&root, "record"), &bad_record).is_empty(),
        "missing retries/trace must fail"
    );
    let bad_ok = json::parse(r#"{"ok":{"cut":3,"parts":[],"truncation":null,"repair":null}}"#)
        .expect("parses");
    assert!(
        !schema::validate(subschema(&root, "outcome_ok"), &bad_ok).is_empty(),
        "empty parts must fail minItems"
    );
    let bad_truncation =
        json::parse(r#"{"limit":"fuel","site":"pass","level":null,"pass":null}"#).expect("parses");
    assert!(
        !schema::validate(subschema(&root, "truncation"), &bad_truncation).is_empty(),
        "unknown limit must fail the enum"
    );
}
