//! Bounds the heap one ML_F start holds at its peak.
//!
//! A start's V-cycle drops each coarse level once it has been projected,
//! and its refinement workspace is its own, so the live-bytes high-water
//! mark of the `ml_bipartition` span is a property of the start alone.
#![cfg(feature = "obs-alloc")]

use mlpart::gen::suite;
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::obs::trace::{EvKind, V};
use mlpart::{ml_bipartition, MlConfig, Request};

/// The span's peak on syn-industry2 is about 2.1 MiB; keeping every level
/// and a level-0-sized workspace alive until the end took it to 3.1 MiB.
const PEAK_BOUND: u64 = 5 * 1024 * 1024 / 2;

#[test]
fn ml_bipartition_heap_peak_is_bounded() {
    let h = suite::by_name("industry2")
        .expect("in suite")
        .generate(1997);
    mlpart::obs::force_enabled(true);
    let (run, trace) = mlpart::obs::capture(|| {
        ml_bipartition(&h, &MlConfig::fm(), &mut seeded_rng(1), Request::default())
    });
    mlpart::obs::force_enabled(false);
    run.expect("valid run");
    let trace = trace.expect("gate forced on");
    let end = trace
        .events
        .iter()
        .find(|e| e.kind == EvKind::End && e.name == "ml_bipartition")
        .expect("ml_bipartition span closed");
    let peak = end
        .args
        .iter()
        .find_map(|(k, v)| match (*k, v) {
            ("alloc_peak", V::U(n)) => Some(*n),
            _ => None,
        })
        .expect("alloc_peak on the End event");
    assert!(
        peak <= PEAK_BOUND,
        "ml_bipartition peaked at {peak} live bytes, above {PEAK_BOUND}"
    );
}
