//! Selection work counter: `PassStats::inspected` counts every candidate a
//! k-way pass checked for feasibility. The count is deterministic, so it
//! pins the engine's selection work independently of the hardware.

use mlpart_hypergraph::rng::seeded_rng;
use mlpart_kway::{kway_partition, KwayConfig};

/// Quadrisection of `syn-primary1` at seed 3. Before the engine skipped
/// destinations too full for the smallest module, the same run checked
/// 1,484,129 candidates for its 4,420 moves (about 336 per move).
#[test]
fn kway_selection_skips_full_destinations() {
    const BEFORE_GATE: u64 = 1_484_129;
    let h = mlpart_gen::by_name("primary1")
        .expect("in suite")
        .generate(1997);
    let (_, r) = kway_partition(&h, 4, None, &[], &KwayConfig::default(), &mut seeded_rng(3));
    let moves: usize = r.pass_stats.iter().map(|s| s.attempted_moves).sum();
    let inspected: u64 = r.pass_stats.iter().map(|s| s.inspected).sum();
    // The gate changes no pick: passes and moves are as before.
    assert_eq!((r.passes, moves), (6, 4_420));
    assert_eq!(inspected, 108_473);
    assert!(inspected < BEFORE_GATE / 5);
}
