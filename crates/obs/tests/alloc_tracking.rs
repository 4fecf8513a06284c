//! End-to-end checks for the `obs-alloc` tracking allocator: spans carry
//! allocation telemetry, reports expose it per phase, and the
//! normalization functions erase it so alloc-on and alloc-off builds of
//! the same workload compare equal.
#![cfg(feature = "obs-alloc")]

use mlpart_obs as obs;
use obs::report::RunReport;
use obs::trace::{EvKind, V};

fn traced_workload() -> obs::Trace {
    let (_, trace) = obs::capture(|| {
        let _run = obs::span("run", &[("runs", 1u64.into())]);
        {
            let _grow = obs::span("level", &[("level", 0u64.into())]);
            // A deliberately chunky allocation attributed to this span.
            let v: Vec<u64> = (0..32_768).collect();
            obs::counter("fm_pass", &[("kept", V::U(v.len() as u64))]);
        }
        let _tail = obs::span("level", &[("level", 1u64.into())]);
    });
    trace
}

#[test]
fn span_end_events_carry_alloc_args() {
    let trace = traced_workload();
    let grow_end = trace
        .events
        .iter()
        .find(|e| e.kind == EvKind::End && e.name == "level")
        .expect("level span closed");
    let arg = |key: &str| -> u64 {
        grow_end
            .args
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| match v {
                V::U(n) => Some(*n),
                _ => None,
            })
            .unwrap_or_else(|| panic!("End event missing {key}"))
    };
    // The 32768-element Vec<u64> costs at least 256 KiB inside the span.
    assert!(arg("alloc_bytes") >= 256 * 1024, "bytes attributed to span");
    assert!(arg("alloc_count") >= 1, "at least the Vec allocation");
    assert!(
        arg("alloc_peak") >= 256 * 1024,
        "peak covers the live buffer"
    );
}

#[test]
fn report_profile_rolls_alloc_up_per_phase() {
    let report = RunReport {
        meta: vec![("algo", obs::V::S("ml-fm")), ("seed", 1u64.into())],
        cuts: vec![30],
        failures: Vec::new(),
        truncations: Vec::new(),
        retries: Vec::new(),
        repairs: Vec::new(),
        wall_secs: 0.01,
        cpu_secs: 0.01,
        trace: traced_workload(),
    };
    let doc = report.to_json();
    let parsed = obs::json::parse(&doc).expect("report parses");
    let profile = parsed.get("profile").expect("profile section");
    assert_eq!(
        profile.get("alloc_tracked").unwrap().as_num(),
        Some(1.0),
        "obs-alloc build flags itself"
    );
    let phases = profile.get("phases").unwrap().as_arr().unwrap();
    let level = phases
        .iter()
        .find(|p| p.get("phase").unwrap().as_str() == Some("level"))
        .expect("level phase");
    assert!(
        level.get("alloc_bytes").unwrap().as_num().unwrap() >= 256.0 * 1024.0,
        "phase rollup aggregates span allocation"
    );
}

/// `strip_profile` erases every allocator artifact, so a document from
/// this obs-alloc build is byte-identical to what a plain `obs` build
/// emits for the same content — the cross-build comparison `obs-diff`
/// relies on. Simulated here by hand-stripping the alloc args from the
/// trace (a plain build of this test can't run in the same binary).
#[test]
fn strip_profile_erases_allocator_artifacts() {
    let traced = traced_workload();
    let mut plain = traced.clone();
    for ev in &mut plain.events {
        ev.args
            .retain(|(k, _)| !matches!(*k, "alloc_bytes" | "alloc_count" | "alloc_peak"));
    }
    let jsonl_on = obs::to_jsonl(&traced);
    let jsonl_off = obs::to_jsonl(&plain);
    assert_ne!(jsonl_on, jsonl_off, "telemetry differs pre-normalization");
    assert_eq!(
        obs::strip_profile(&jsonl_on),
        obs::strip_profile(&jsonl_off),
        "normalized documents are byte-identical"
    );
    assert!(!obs::strip_profile(&jsonl_on).contains("alloc_"));
}
