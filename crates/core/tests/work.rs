//! Selection work of one multilevel bisection: passes, attempted moves,
//! cut and the candidates its selections checked for feasibility
//! (`LevelStats::inspected`), summed over every level. The counts are
//! deterministic, so they pin the 2-way engine's selection work inside the
//! V-cycle independently of the hardware.

use mlpart_core::{ml_bipartition, MlConfig, Request};
use mlpart_hypergraph::rng::seeded_rng;

/// One ML_F start (LIFO FM, `R = 1`) on `syn-s13207` at seed 100: 16
/// passes and 63,460 attempted moves. Before the side gate its selections
/// made 531,813 feasibility checks (about 8.4 per move); skipping the
/// buckets of a side that can give up no module leaves 70,429 (about 1.1),
/// with the same picks.
#[test]
fn ml_f_selection_work() {
    let h = mlpart_gen::by_name("s13207")
        .expect("in suite")
        .generate(1997);
    let (_, r) = ml_bipartition(
        &h,
        &MlConfig::default(),
        &mut seeded_rng(100),
        Request::default(),
    )
    .unwrap();
    let passes: usize = r.level_stats.iter().map(|s| s.passes).sum();
    let moves: u64 = r.level_stats.iter().map(|s| s.attempted_moves).sum();
    let inspected: u64 = r.level_stats.iter().map(|s| s.inspected).sum();
    assert_eq!((passes, moves, r.cut), (16, 63_460, 186));
    assert_eq!(inspected, 70_429);
}
