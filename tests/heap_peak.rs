//! Bounds the heap one ML_F start holds at its peak.
//!
//! A start's V-cycle stores every coarse level but the coarsest without its
//! module → net incidence, rebuilds one level's incidence per uncoarsening
//! step and drops each level once it has been projected; its `Match` scratch
//! and its refinement workspace follow the level's size, and the workspace
//! is its own. So the live-bytes high-water mark of the `ml_bipartition`
//! span is a property of the start alone.
#![cfg(feature = "obs-alloc")]

use mlpart::gen::suite;
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::obs::trace::{EvKind, V};
use mlpart::{ml_bipartition, MlConfig, Request};

/// `(suite circuit, bound in bytes)` on the span's peak. syn-industry2
/// peaks at 1.36 MB and syn-golem3, whose netlist holds 5.2 MB, at 9.9 MB;
/// storing every coarse level with both incidence directions and doubling
/// the workspace's buffers took them to 2.09 MB and 14.4 MB.
const BOUNDS: [(&str, u64); 2] = [("industry2", 1_500_000), ("golem3", 10_800_000)];

/// One test for both circuits: the trace gate is process-wide, so two
/// tests forcing it on and off in parallel would cut each other's traces.
#[test]
fn ml_bipartition_heap_peak_is_bounded() {
    for (name, bound) in BOUNDS {
        let peak = start_peak(name);
        assert!(
            peak <= bound,
            "ml_bipartition on syn-{name} peaked at {peak} live bytes, above {bound}"
        );
    }
}

/// The `alloc_peak` of the `ml_bipartition` span of one ML_F start (seed 1)
/// on the suite circuit `name`.
fn start_peak(name: &str) -> u64 {
    let h = suite::by_name(name).expect("in suite").generate(1997);
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
    end.args
        .iter()
        .find_map(|(k, v)| match (*k, v) {
            ("alloc_peak", V::U(n)) => Some(*n),
            _ => None,
        })
        .expect("alloc_peak on the End event")
}
