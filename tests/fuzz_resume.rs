//! Resume-path robustness fuzzing: truncation, byte corruption and token
//! injection into a two-record checkpoint and into a trace JSONL text must
//! surface as named errors (or a successful load), never as panics.
//! `--resume` reads whatever file the user points it at, so the checkpoint
//! loader and the trace reader it calls are as exposed as the netlist
//! parser.

use mlpart::checkpoint::{load, record_line, CheckpointConfig, StartOutcome, StartValue};
use mlpart::exec::supervise::StartContribution;
use mlpart::hypergraph::metrics::cut;
use mlpart::obs::{json, to_jsonl, trace_from_jsonl, EvKind, Event, Trace, V};
use mlpart::{
    Budget, BudgetLimit, Hypergraph, HypergraphBuilder, Partition, RepairRecord, RetryRecord,
    StartDone, StartFailure, Truncation,
};
use proptest::prelude::*;

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
        fixed: None,
        ratio: 0.5,
        threshold: 35,
        runs: 4,
        seed: u64::MAX,
        retries: 3,
        degraded_passes: Some(2),
        budget: Budget::UNLIMITED,
        traced: false,
    }
}

/// A header plus an ok record (truncation, repair, one retry) and a
/// failed record — every shape the loader reads.
fn checkpoint_text(h: &Hypergraph) -> String {
    let parts = (0..h.num_modules())
        .map(|i| u32::from(i % 3 == 0))
        .collect();
    let partition = Partition::from_assignment(h, 2, parts).expect("valid");
    let cut_now = cut(h, &partition);
    let ok: StartValue = Ok(StartOutcome {
        partition,
        cut: cut_now,
        level_stats: Vec::new(),
        truncation: Some(Truncation {
            limit: BudgetLimit::Moves,
            site: "level",
            level: Some(2),
            pass: None,
        }),
        repair: Some(RepairRecord {
            moves: 1,
            cut_before: cut_now + 1,
            cut_after: cut_now,
            feasible: true,
        }),
    });
    let retries = [RetryRecord {
        start: 0,
        attempt: 0,
        message: "panic \"x\"\n".to_string(),
        phase: Some("fm_refine".to_string()),
    }];
    let failure = StartFailure {
        start: 3,
        message: "boom".to_string(),
        phase: None,
    };
    let ok_line = record_line(&StartDone {
        start: 0,
        attempts: 2,
        outcome: Ok(&ok),
        retries: &retries,
        trace: &StartContribution::default(),
    });
    let failed_line = record_line(&StartDone::<StartValue> {
        start: 3,
        attempts: 3,
        outcome: Err(&failure),
        retries: &[],
        trace: &StartContribution::default(),
    });
    format!("{}\n{ok_line}\n{failed_line}\n", config().header_line())
}

/// A trace JSONL text with every event kind and argument variant.
fn trace_text() -> String {
    let event = |kind, name, ts_ns, args| Event {
        kind,
        name,
        ts_ns,
        args,
    };
    to_jsonl(&Trace {
        events: vec![
            event(EvKind::Begin, "run", 0, vec![("seed", V::U(u64::MAX))]),
            event(
                EvKind::Counter,
                "pass",
                15,
                vec![
                    ("delta", V::I(-42)),
                    ("ratio", V::F(0.35)),
                    ("big", V::F(1e20)),
                    ("name", V::S("a \"q\"\\\n")),
                ],
            ),
            event(EvKind::End, "run", 99, Vec::new()),
        ],
    })
}

/// Hostile tokens: out-of-range and mistyped numbers, broken escapes and
/// structure, and nesting past the parser's depth bound.
fn token(which: usize) -> String {
    match [
        "18446744073709551616",
        "-1",
        "1.5",
        "1e400",
        "\\u",
        "\\ud800",
        "\"",
        "{",
        "]",
    ]
    .get(which)
    {
        Some(t) => t.to_string(),
        None => "[".repeat(json::MAX_DEPTH + 1),
    }
}

/// Both readers on `text`: whatever the outcome, it must be a value.
fn read_both(text: &str, h: &Hypergraph) {
    if let Err(e) = load(text, &config(), h) {
        assert!(!e.is_empty());
    }
    if let Err(e) = trace_from_jsonl(text) {
        assert!(e.starts_with("trace line "), "{e}");
    }
}

#[test]
fn fixtures_load() {
    let h = chain(9);
    let loaded = load(&checkpoint_text(&h), &config(), &h).expect("fixture loads");
    assert_eq!(loaded.resume.done.len(), 2);
    let trace = trace_from_jsonl(&trace_text()).expect("fixture parses");
    assert_eq!(to_jsonl(&trace), trace_text());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Prefix truncation at any byte offset. Both texts are ASCII, so
    /// every offset is a char boundary.
    #[test]
    fn truncated_texts_never_panic(frac in 0usize..=100, which in 0usize..2) {
        let h = chain(9);
        let text = if which == 0 { checkpoint_text(&h) } else { trace_text() };
        read_both(&text[..text.len() * frac / 100], &h);
    }

    /// Single-byte corruption anywhere; the bytes stay valid UTF-8 because
    /// both texts are ASCII and the byte is below 0x80.
    #[test]
    fn corrupted_texts_never_panic(pos in 0usize..10_000, byte in 0u8..128, which in 0usize..2) {
        let h = chain(9);
        let text = if which == 0 { checkpoint_text(&h) } else { trace_text() };
        let mut bytes = text.into_bytes();
        let idx = pos % bytes.len();
        bytes[idx] = byte;
        let text = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        read_both(&text, &h);
    }

    /// Token injection at an arbitrary byte offset.
    #[test]
    fn injected_tokens_never_panic(pos in 0usize..10_000, which in 0usize..10, text_kind in 0usize..2) {
        let h = chain(9);
        let mut text = if text_kind == 0 { checkpoint_text(&h) } else { trace_text() };
        let at = pos % (text.len() + 1);
        text.insert_str(at, &token(which));
        read_both(&text, &h);
    }
}
