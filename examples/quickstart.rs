//! Quickstart: build a netlist, run the paper's ML algorithm, inspect the
//! result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mlpart::hypergraph::rng::seeded_rng;
use mlpart::hypergraph::{metrics, PartBounds};
use mlpart::{
    fm_partition, ml_bipartition, FmConfig, HypergraphBuilder, MlConfig, RefineRequest, Request,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Build a netlist hypergraph. ---
    // Two 64-module "IP blocks" with dense internal structure, joined by a
    // 3-pin bus net. The natural bisection cuts exactly that one net.
    let half = 64usize;
    let mut builder = HypergraphBuilder::with_unit_areas(2 * half);
    for base in [0, half] {
        for i in 0..half {
            builder.add_net([base + i, base + (i + 1) % half])?;
            builder.add_net([base + i, base + (i + 5) % half])?;
        }
    }
    builder.add_net([half - 1, half, half + 1])?;
    let h = builder.build()?;
    println!(
        "netlist: {} modules, {} nets, {} pins",
        h.num_modules(),
        h.num_nets(),
        h.num_pins()
    );

    // --- 2. Flat FM from a random start (the 1982 baseline). ---
    let mut rng = seeded_rng(7);
    let (fm_solution, fm_result) =
        fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default())?;
    println!(
        "flat FM:  cut {} after {} passes",
        fm_result.cut, fm_result.passes
    );

    // --- 3. The paper's ML algorithm (ML_C variant, slow coarsening). ---
    let cfg = MlConfig::clip().with_ratio(0.5);
    let (ml_solution, ml_result) = ml_bipartition(&h, &cfg, &mut rng, Request::default())?;
    println!(
        "ML_C:     cut {} using {} levels (sizes {:?})",
        ml_result.cut, ml_result.levels, ml_result.level_sizes
    );

    // --- 4. Verify balance and cut. ---
    let balance = PartBounds::from_epsilon(&h, 2, 0.2);
    assert!(balance.is_partition_feasible(&ml_solution));
    assert_eq!(ml_result.cut, metrics::cut(&h, &ml_solution));
    assert!(ml_result.cut <= fm_result.cut);
    println!(
        "sides: {} / {} area within [{}, {}]",
        ml_solution.part_area(0),
        ml_solution.part_area(1),
        balance.lo(0),
        balance.hi(0)
    );
    let _ = fm_solution;
    Ok(())
}
