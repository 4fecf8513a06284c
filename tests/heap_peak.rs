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

/// syn-industry2 peaks at 1.36 MB; storing every coarse level with both
/// incidence directions and doubling the workspace's buffers took it to
/// 2.09 MB.
#[test]
fn industry2_heap_peak_is_bounded() {
    assert_peak_at_most("industry2", 1_500_000);
}

/// syn-golem3, whose netlist holds 5.2 MB, peaks at 9.9 MB; the same
/// regressions took it to 14.4 MB.
#[test]
fn golem3_heap_peak_is_bounded() {
    assert_peak_at_most("golem3", 10_800_000);
}

fn assert_peak_at_most(name: &str, bound: u64) {
    let peak = start_peak(name);
    assert!(
        peak <= bound,
        "ml_bipartition on syn-{name} peaked at {peak} live bytes, above {bound}"
    );
}

/// The `alloc_peak` of the `ml_bipartition` span of one ML_F start (seed 1)
/// on the suite circuit `name`.
fn start_peak(name: &str) -> u64 {
    let h = suite::by_name(name).expect("in suite").generate(1997);
    let (run, trace) = mlpart::obs::capture(|| {
        ml_bipartition(&h, &MlConfig::fm(), &mut seeded_rng(1), Request::default())
    });
    run.expect("valid run");
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
