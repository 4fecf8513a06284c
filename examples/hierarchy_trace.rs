//! Traces the multilevel paradigm of the paper's Figure 1: coarsening a
//! benchmark level by level, partitioning the coarsest netlist, then
//! uncoarsening with refinement — printing the cut at every step so the
//! "projected vs refined solution" structure of the figure is visible.
//!
//! ```text
//! cargo run --release --example hierarchy_trace
//! ```

use mlpart::cluster::{project, rebalance_bipart};
use mlpart::core::{Hierarchy, MlConfig};
use mlpart::fm::refine;
use mlpart::gen::suite;
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::hypergraph::{metrics, BipartBalance};
use mlpart::{fm_partition, RefineRequest};

fn main() -> Result<(), mlpart::PipelineError> {
    let circuit = suite::by_name("primary2").expect("in suite");
    let h0 = circuit.generate(1997);
    let cfg = MlConfig::clip().with_ratio(0.5);
    let mut rng = seeded_rng(3);

    println!(
        "multilevel trace on {} ({} modules)",
        circuit.name,
        h0.num_modules()
    );
    println!();

    // --- Coarsening phase (Fig. 2, steps 1-5). ---
    let mut hier = Hierarchy::coarsen(&h0, &cfg, &[], &mut rng)?;
    let m = hier.num_levels();
    println!(
        "coarsening with R = {} built {m} levels:",
        cfg.matching_ratio
    );
    for (i, size) in hier.level_sizes(&h0).iter().enumerate() {
        println!("  H{i}: {size} modules");
    }
    println!();

    // --- Initial partitioning of the coarsest netlist (step 6). ---
    let coarsest = hier.coarsest(&h0);
    let (mut p, r) = fm_partition(coarsest, &cfg.fm, &mut rng, RefineRequest::default())?;
    println!("initial partitioning of H{m}: cut {}", r.cut);
    println!();

    // --- Uncoarsening phase (steps 7-9), as drawn in Figure 1. ---
    println!(
        "{:<6} {:>10} {:>12} {:>10}",
        "level", "projected", "rebalanced", "refined"
    );
    // Each step pops the coarsest level and projects onto the one below it.
    while let Some((clustering, _)) = hier.pop_level() {
        let i = hier.num_levels();
        let fine = hier.coarsest(&h0);
        let mut fine_p = project(fine, &clustering, &p).expect("hierarchy levels align");
        let projected_cut = metrics::cut(fine, &fine_p);
        let balance = BipartBalance::new(fine, cfg.fm.balance_r);
        let moved = if balance.is_partition_feasible(&fine_p) {
            0
        } else {
            rebalance_bipart(fine, &mut fine_p, &balance, &mut rng)
        };
        let r = refine(
            fine,
            &mut fine_p,
            &cfg.fm,
            &mut rng,
            RefineRequest::default(),
        )?;
        println!(
            "H{:<5} {:>10} {:>12} {:>10}",
            i,
            projected_cut,
            if moved > 0 {
                format!("{moved} moves")
            } else {
                "-".to_owned()
            },
            r.cut
        );
        p = fine_p;
    }
    println!();
    println!("final cut on H0: {}", metrics::cut(&h0, &p));
    Ok(())
}
