//! Selection work counter of the 2-way engine: `PassStats::inspected`
//! counts every candidate a pass checked for feasibility. With passes and
//! moves it pins the engine's selection work independently of the
//! hardware, so a change to the shared gain buckets that alters 2-way
//! selection shows up here.

use mlpart_fm::{fm_partition, FmConfig, RefineRequest};
use mlpart_hypergraph::rng::seeded_rng;

/// Flat LIFO FM on `syn-primary1` at seed 3. Before the side gate the
/// run checked 11,089 candidates; skipping the buckets of a side that can
/// give up no module leaves one check per move, with the same picks.
#[test]
fn flat_lifo_selection_work() {
    let h = mlpart_gen::by_name("primary1")
        .expect("in suite")
        .generate(1997);
    let (_, r) = fm_partition(
        &h,
        &FmConfig::default(),
        &mut seeded_rng(3),
        RefineRequest::default(),
    )
    .unwrap();
    let moves: usize = r.pass_stats.iter().map(|s| s.attempted_moves).sum();
    let inspected: u64 = r.pass_stats.iter().map(|s| s.inspected).sum();
    assert_eq!((r.passes, moves), (9, 7_497));
    assert_eq!(inspected, 7_497);
}
