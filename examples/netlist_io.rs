//! Round-trips a benchmark through the hMETIS `.hgr` interchange format and
//! partitions a netlist loaded from text — the workflow for users bringing
//! their own circuits.
//!
//! ```text
//! cargo run --release --example netlist_io
//! ```

use mlpart::gen::suite;
use mlpart::hypergraph::io::{read_hgr, write_hgr};
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::{ml_bipartition, MlConfig, Request};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Export a synthetic benchmark to hMETIS text. ---
    let circuit = suite::by_name("balu").expect("in suite");
    let h = circuit.generate(1997);
    let mut text = Vec::new();
    write_hgr(&h, &mut text)?;
    println!(
        "exported {} as {} bytes of .hgr text; header: {:?}",
        circuit.name,
        text.len(),
        String::from_utf8_lossy(&text[..text.iter().position(|&b| b == b'\n').unwrap_or(8)])
    );

    // --- Re-import and verify it is the same netlist. ---
    let h2 = read_hgr(&text[..])?;
    assert_eq!(h, h2);
    println!("re-imported: identical netlist");

    // --- Partition a hand-written netlist from literal .hgr text. ---
    let custom = "\
% four gates driven by two shared nets plus a local pair
4 6
1 2 3
3 4 5 6
1 2
4 5
5 6
% trailing comment
";
    // 4 nets, 6 modules (note: header is <nets> <modules>).
    let custom_h = read_hgr(custom.as_bytes())?;
    println!(
        "custom netlist: {} modules, {} nets",
        custom_h.num_modules(),
        custom_h.num_nets()
    );
    let mut rng = seeded_rng(1);
    let (p, r) = ml_bipartition(
        &custom_h,
        &MlConfig::default(),
        &mut rng,
        Request::default(),
    )?;
    println!(
        "partitioned custom netlist: cut {} sides {:?}",
        r.cut,
        p.part_sizes()
    );
    Ok(())
}
