//! Work counters of the 2-way engine: `PassStats::inspected` counts every
//! candidate a pass checked for feasibility, `PassStats::updates` every
//! neighbour gain update its moves made. With passes and moves they pin
//! the engine's selection and update work independently of the hardware,
//! so a change to the shared gain buckets that alters 2-way selection, or
//! a change to the gain-update rules, shows up here.

use mlpart_fm::{fm_partition, FmConfig, RefineRequest};
use mlpart_hypergraph::rng::seeded_rng;

/// Flat LIFO FM on `syn-primary1` at seed 3. Before the side gate the
/// run checked 11,089 candidates; skipping the buckets of a side that can
/// give up no module leaves one check per move, with the same picks. Its
/// moves made 25,570 gain updates while a two-pin net updated its other
/// pin once per gain term; one update of ±2w per such net leaves 21,556.
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
    let updates: u64 = r.pass_stats.iter().map(|s| s.updates).sum();
    assert_eq!(inspected, 7_497);
    assert_eq!(updates, 21_556);
}
