//! Trace-content determinism contract (needs `--features obs`).
//!
//! With tracing enabled, a fixed-seed batch must emit a trace whose
//! **content** — every event name, nesting, and argument, i.e. everything
//! except the timestamp fields — is byte-identical across repeated runs and
//! across thread counts. And turning tracing on must never change the cuts:
//! observation is read-only.
//!
//! CI runs this file twice, once additionally forcing a thread count via
//! `MLPART_TEST_THREADS`, mirroring `determinism.rs`.
#![cfg(feature = "obs")]

use mlpart_bench::{algos, run_many_par, RunStats};
use mlpart_gen::suite;
use mlpart_hypergraph::Hypergraph;
use mlpart_obs as obs;

fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 4, 8];
    if let Ok(forced) = std::env::var("MLPART_TEST_THREADS") {
        let forced: usize = forced
            .parse()
            .expect("MLPART_TEST_THREADS must be a positive integer");
        assert!(forced > 0, "MLPART_TEST_THREADS must be positive");
        if !counts.contains(&forced) {
            counts.push(forced);
        }
    }
    counts
}

fn circuit() -> Hypergraph {
    suite::by_name("balu").expect("suite circuit").generate(3)
}

fn batch(h: &Hypergraph, threads: usize) -> RunStats {
    run_many_par(6, 29, threads, |rng, ws| algos::ml_c_in(h, 0.5, rng, ws))
}

/// Runs one traced batch and returns the cut statistics plus the stripped
/// (timestamp-free) JSONL rendering of the captured trace.
fn traced_batch(h: &Hypergraph, threads: usize) -> (RunStats, String) {
    let (stats, trace) = obs::capture(|| {
        let _run = obs::span("run", &[("seed", 29u64.into())]);
        batch(h, threads)
    });
    assert!(!trace.events.is_empty(), "instrumentation should fire");
    (stats, obs::strip_timing(&obs::to_jsonl(&trace)))
}

#[test]
fn trace_content_is_identical_across_repeated_runs() {
    let h = circuit();
    let (s1, t1) = traced_batch(&h, 2);
    let (s2, t2) = traced_batch(&h, 2);
    assert_eq!(s1, s2, "cuts are seed-deterministic");
    assert_eq!(t1, t2, "stripped trace must be byte-identical across runs");
}

#[test]
fn trace_content_is_identical_across_thread_counts() {
    let h = circuit();
    let (s1, t1) = traced_batch(&h, 1);
    for threads in thread_counts() {
        let (s, t) = traced_batch(&h, threads);
        assert_eq!(s1, s, "threads={threads}: cuts");
        assert_eq!(t1, t, "threads={threads}: stripped trace content");
    }
}

/// The Chrome export is a pure function of the trace, so its stripped form
/// inherits the same invariance.
#[test]
fn chrome_trace_content_is_thread_count_invariant() {
    let h = circuit();
    let render = |threads: usize| {
        let (_, trace) = obs::capture(|| batch(&h, threads));
        obs::strip_timing(&obs::to_chrome_trace(&trace))
    };
    let c1 = render(1);
    for threads in [2, 8] {
        assert_eq!(c1, render(threads), "threads={threads}");
    }
}

/// Captures one traced batch and returns the raw trace.
fn raw_traced_batch(h: &Hypergraph, threads: usize) -> (RunStats, obs::Trace) {
    let (stats, trace) = obs::capture(|| {
        let _run = obs::span("run", &[("seed", 29u64.into())]);
        batch(h, threads)
    });
    (stats, trace)
}

/// The metrics registry is a pure function of trace content, so its JSON
/// serialization is bit-identical at every thread count — no stripping
/// needed at all.
#[test]
fn metrics_registry_is_bit_identical_across_thread_counts() {
    let h = circuit();
    let (_, t1) = raw_traced_batch(&h, 1);
    let r1 = obs::metrics::Registry::from_trace(&t1).to_json();
    assert!(
        r1.contains("fm_pass"),
        "registry folded refinement counters"
    );
    for threads in thread_counts() {
        let (_, t) = raw_traced_batch(&h, threads);
        let r = obs::metrics::Registry::from_trace(&t).to_json();
        assert_eq!(r1, r, "threads={threads}: serialized registry bytes");
    }
}

/// Folded-stack exports keep their frame structure (the normative part)
/// across thread counts; only the trailing sample values vary.
#[test]
fn folded_stacks_are_structurally_identical_across_thread_counts() {
    let h = circuit();
    let (_, t1) = raw_traced_batch(&h, 1);
    let f1 = obs::strip_folded(&obs::to_folded(&t1));
    assert!(f1.contains(';'), "stacks have nested frames");
    for threads in thread_counts() {
        let (_, t) = raw_traced_batch(&h, threads);
        assert_eq!(
            f1,
            obs::strip_folded(&obs::to_folded(&t)),
            "threads={threads}: folded frames"
        );
    }
}

/// Full v3 run reports — profile and metrics sections included — are
/// byte-identical after profile normalization across thread counts: the
/// invariant `obs-diff` enforces between same-seed runs.
#[test]
fn v3_reports_strip_identical_across_thread_counts() {
    let report_doc = |h: &Hypergraph, threads: usize| {
        let (_, trace) = raw_traced_batch(h, threads);
        obs::report::RunReport {
            meta: vec![
                ("harness", obs::V::S("obs_determinism")),
                ("seed", 29u64.into()),
                ("threads", (threads as u64).into()),
            ],
            cuts: Vec::new(),
            failures: Vec::new(),
            truncations: Vec::new(),
            retries: Vec::new(),
            repairs: Vec::new(),
            wall_secs: 0.0,
            cpu_secs: 0.0,
            trace,
        }
        .to_json()
    };
    let h = circuit();
    let d1 = report_doc(&h, 1);
    let n1 = obs::strip_profile(&d1);
    for threads in thread_counts() {
        let d = report_doc(&h, threads);
        assert_eq!(
            n1,
            obs::strip_profile(&d),
            "threads={threads}: normalized v3 report bytes"
        );
        // And obs-diff agrees end to end: same-seed cross-thread runs are
        // clean (a generous threshold absorbs machine-load noise on the
        // real timings).
        let opts = obs::diff::DiffOptions {
            max_time_ratio: 1e9,
            max_alloc_ratio: 1e9,
            ..obs::diff::DiffOptions::default()
        };
        let verdict = obs::diff::diff_documents("t1", &d1, "tN", &d, &opts);
        assert_eq!(
            verdict.exit,
            obs::diff::EXIT_CLEAN,
            "threads={threads}: {}",
            verdict.text
        );
    }
}

/// The per-phase rollup's deterministic columns (phase order, counts) are
/// thread-count invariant even though its ns columns are telemetry.
#[test]
fn phase_rollup_structure_is_thread_count_invariant() {
    let h = circuit();
    let (_, t1) = raw_traced_batch(&h, 1);
    let shape = |t: &obs::Trace| -> Vec<(String, u64)> {
        obs::profile::phase_rollup(t)
            .into_iter()
            .map(|p| (p.name, p.count))
            .collect()
    };
    let s1 = shape(&t1);
    assert_eq!(s1[0].0, "run");
    assert!(
        s1.iter().any(|(n, c)| n == "start" && *c == 6),
        "six starts"
    );
    for threads in thread_counts() {
        let (_, t) = raw_traced_batch(&h, threads);
        assert_eq!(s1, shape(&t), "threads={threads}: phase structure");
    }
}

/// Observation is read-only: the cuts of a traced batch are bit-identical
/// to the same batch run with the gate off (compiled in, disabled) — the
/// hooks never perturb RNG streams, move order, or tie-breaking.
#[test]
fn cuts_are_bit_identical_with_obs_on_and_off() {
    let h = circuit();
    let off = batch(&h, 2);
    let (on, _) = traced_batch(&h, 2);
    assert_eq!(off, on, "tracing must not change results");
    assert_eq!(off.cut.min, on.cut.min);
    assert_eq!(off.cut.avg, on.cut.avg);
}
