//! Weighted partitioning: non-unit module areas (macros next to standard
//! cells), weighted nets (buses), and the netD benchmark format.
//!
//! The paper's experiments use unit areas and unweighted nets; this example
//! exercises the general machinery a real design needs.
//!
//! ```text
//! cargo run --release --example weighted_design
//! ```

use mlpart::hypergraph::netd::{module_name, read_netd_with_areas};
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::hypergraph::{metrics, HypergraphBuilder};
use mlpart::{ml_bipartition, MlConfig, PartBounds, Request};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- A design with two macros (area 40) and 32 standard cells. ---
    let mut areas = vec![1u64; 34];
    areas[0] = 40; // macro A
    areas[17] = 40; // macro B
    let mut b = HypergraphBuilder::new(areas);
    for half in [0usize, 17] {
        for i in 1..17 {
            b.add_net([half, half + i])?; // star from each macro
            b.add_net([half + i, half + (i % 16) + 1])?;
        }
    }
    // A 6-bit bus between the halves: one weighted net instead of six
    // parallel ones (same cut contribution, smaller netlist).
    b.add_weighted_net([5, 22], 6)?;
    let h = b.build()?;

    let cfg = MlConfig::clip();
    let balance = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.fm.balance_r);
    println!(
        "design: {} modules (total area {}), {} nets (total weight {})",
        h.num_modules(),
        h.total_area(),
        h.num_nets(),
        h.total_net_weight()
    );
    println!(
        "balance window: [{}, {}] (the macro area dominates the slack)",
        balance.lo(0),
        balance.hi(0)
    );

    let mut rng = seeded_rng(11);
    let runs = (0..10)
        .map(|_| ml_bipartition(&h, &cfg, &mut rng, Request::default()))
        .collect::<Result<Vec<_>, _>>()?;
    let best = runs
        .into_iter()
        .min_by_key(|(_, r)| r.cut)
        .expect("ten runs");
    let (p, r) = best;
    assert!(balance.is_partition_feasible(&p));
    println!(
        "best of 10 ML_C runs: weighted cut {} with side areas {:?}",
        r.cut,
        p.part_areas()
    );
    assert_eq!(r.cut, metrics::cut(&h, &p));

    // --- The same flow from netD text (the ACM/SIGDA format). ---
    let netd = "0\n8\n3\n6\n3\n\
a0 s O\na1 l I\na2 l I\n\
a3 s O\np1 l I\n\
a2 s O\na3 l I\np2 l B\n";
    let are = "a0 10\na3 10\n";
    let h2 = read_netd_with_areas(netd.as_bytes(), are.as_bytes(), 3)?;
    println!(
        "\nnetD import: {} modules, {} nets, total area {}",
        h2.num_modules(),
        h2.num_nets(),
        h2.total_area()
    );
    let mut rng = seeded_rng(3);
    let (p2, r2) = ml_bipartition(&h2, &MlConfig::default(), &mut rng, Request::default())?;
    let names: Vec<String> = h2
        .modules()
        .filter(|v| p2.part(*v) == 0)
        .map(|v| module_name(v.index(), 3))
        .collect();
    println!("cut {} with side 0 = {:?}", r2.cut, names);
    Ok(())
}
