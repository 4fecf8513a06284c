//! The §III-C / Table IX scenario: quadrisection as the core of a top-down
//! placement flow, comparing multilevel quadrisection (with pads pinned
//! through `Constraints`) against the GORDIAN-style analytical-placement
//! split.
//!
//! ```text
//! cargo run --release --example placement_flow
//! ```

use mlpart::gen::suite;
use mlpart::hypergraph::metrics;
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::place::{gordian_quadrisection, pad_ring, PlacerConfig};
use mlpart::{ml_kway, Constraints, MlKwayConfig, Request, DEFAULT_EPSILON};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = suite::by_name("primary1").expect("in suite");
    let (h, pads) = circuit.generate_with_pads(1997);
    println!(
        "{}: {} modules, {} nets, {} pads on the I/O ring",
        circuit.name,
        h.num_modules(),
        h.num_nets(),
        pads.len()
    );
    println!();

    // --- GORDIAN-style: place quadratically with fixed pads, then split
    // into four equal quadrants (the paper's comparison point). ---
    let (g_part, g_place) = gordian_quadrisection(&h, &pads, &PlacerConfig::default());
    println!(
        "GORDIAN   quadrisection: cut {}  (HPWL {:.1})",
        metrics::cut(&h, &g_part),
        g_place.hpwl(&h)
    );
    let (gl_part, gl_place) = gordian_quadrisection(&h, &pads, &PlacerConfig::gordian_l());
    println!(
        "GORDIAN-L quadrisection: cut {}  (HPWL {:.1})",
        metrics::cut(&h, &gl_part),
        gl_place.hpwl(&h)
    );
    println!();

    // --- Multilevel quadrisection with the pads pinned to the quadrant
    // their ring position falls into (§III-C pre-assignment), under the
    // constrained schedule's ε window. ---
    let fixed: Vec<_> = pad_ring(&pads)
        .into_iter()
        .map(|(v, (x, y))| {
            let part = 2 * u32::from(x >= 0.5) + u32::from(y >= 0.5);
            (v, part)
        })
        .collect();
    let pins = Constraints::new(4, DEFAULT_EPSILON, fixed)?;
    let mut rng = seeded_rng(5);
    let mut best = u64::MAX;
    for _ in 0..5 {
        let req = Request {
            constraints: Some(&pins),
            ..Request::default()
        };
        let (p, r) = ml_kway(&h, &MlKwayConfig::default(), &mut rng, req)?;
        best = best.min(r.cut);
        assert!(pins.fixed().iter().all(|&(v, part)| p.part(v) == part));
    }
    println!("ML_F multilevel quadrisection (5 runs, pads fixed): best cut {best}");
    println!();
    println!(
        "shape: the move-based multilevel quadrisection should beat the \
         placement-derived split, as in the paper's Table IX."
    );
    Ok(())
}
