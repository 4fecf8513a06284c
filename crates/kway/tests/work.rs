//! Selection work counter: `PassStats::inspected` counts every candidate a
//! k-way pass checked for feasibility. The count is deterministic, so it
//! pins the engine's selection work independently of the hardware.

use mlpart_fm::RefineRequest;
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_kway::{kway_partition, KwayConfig};

/// Quadrisection of `syn-primary1` at seed 3, 4,420 moves. Before the
/// engine skipped destinations too full for the smallest module, the run
/// checked 1,484,129 candidates (about 336 per move). The destination gate
/// left 108,473, most of them on a source part at its lower bound; filing
/// each module under its source part and closing such parts' classes
/// leaves 13,916 (about 3 per move).
#[test]
fn kway_selection_skips_full_destinations() {
    const BEFORE_SOURCE_GATE: u64 = 108_473;
    let h = mlpart_gen::by_name("primary1")
        .expect("in suite")
        .generate(1997);
    let (_, r) = kway_partition(
        &h,
        4,
        &KwayConfig::default(),
        &mut seeded_rng(3),
        RefineRequest::default(),
    )
    .unwrap();
    let moves: usize = r.pass_stats.iter().map(|s| s.attempted_moves).sum();
    let inspected: u64 = r.pass_stats.iter().map(|s| s.inspected).sum();
    // The gates change no pick: passes and moves are as before.
    assert_eq!((r.passes, moves), (6, 4_420));
    assert_eq!(inspected, 13_916);
    assert!(inspected < BEFORE_SOURCE_GATE / 5);
}
