//! Work counters: `PassStats::inspected` counts every candidate a k-way
//! pass checked for feasibility, `PassStats::updates` every neighbour key
//! change in one destination's bucket structure. The counts are
//! deterministic, so they pin the engine's selection and update work
//! independently of the hardware.

use mlpart_fm::{BucketPolicy, RefineRequest};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_kway::{kway_partition, KwayConfig};

/// Quadrisection of `syn-primary1` at seed 3, 4,420 moves. Before the
/// engine skipped destinations too full for the smallest module, the run
/// checked 1,484,129 candidates (about 336 per move). The destination gate
/// left 108,473, most of them on a source part at its lower bound; filing
/// each module under its source part and closing such parts' classes
/// leaves 13,916 (about 3 per move). Walking each destination only down
/// to the key of the pick found so far leaves 5,815 (about 1.3 per move).
/// Its moves make 60,687 key updates.
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
    // The gates and the prune change no pick: passes and moves are as
    // before.
    assert_eq!((r.passes, moves), (6, 4_420));
    assert_eq!(inspected, 5_815);
    assert!(inspected < BEFORE_SOURCE_GATE / 5);
    let updates: u64 = r.pass_stats.iter().map(|s| s.updates).sum();
    assert_eq!(updates, 60_687);
}

/// The same quadrisection under Random selection. Each check draws from the
/// RNG, so these counts pin its stream: Random walks every key of every
/// destination the gates admit, and a change that pruned its probes would
/// change them.
#[test]
fn kway_random_selection_draws_for_every_probe() {
    let h = mlpart_gen::by_name("primary1")
        .expect("in suite")
        .generate(1997);
    let cfg = KwayConfig {
        policy: BucketPolicy::Random,
        ..KwayConfig::default()
    };
    let (_, r) = kway_partition(&h, 4, &cfg, &mut seeded_rng(3), RefineRequest::default()).unwrap();
    let moves: usize = r.pass_stats.iter().map(|s| s.attempted_moves).sum();
    let inspected: u64 = r.pass_stats.iter().map(|s| s.inspected).sum();
    assert_eq!((r.passes, moves, inspected, r.cut), (5, 3_710, 96_071, 243));
}
