//! Integration tests for the weighted-net machinery across crates: weighted
//! cuts drive every engine consistently.

use mlpart::hypergraph::metrics;
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::{fm_partition, FmConfig, HypergraphBuilder, Partition, RefineRequest};

/// A ring where every third net is a weight-5 "bus".
fn weighted_ring(n: usize) -> mlpart::Hypergraph {
    let mut b = HypergraphBuilder::with_unit_areas(n);
    for i in 0..n {
        let w = if i % 3 == 0 { 5 } else { 1 };
        b.add_weighted_net([i, (i + 1) % n], w).expect("in range");
        b.add_net([i, (i + 4) % n]).expect("in range");
    }
    b.build().expect("valid")
}

#[test]
fn fm_avoids_heavy_nets() {
    // With heavy nets in the ring, FM's best cuts should prefer slicing at
    // weight-1 positions: the reported weighted cut must match metrics and
    // be no worse than cutting two buses would cost.
    let h = weighted_ring(60);
    let best = (0..10)
        .map(|s| {
            let mut rng = seeded_rng(s);
            let (p, r) =
                fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default()).unwrap();
            assert_eq!(r.cut, metrics::cut(&h, &p));
            r.cut
        })
        .min()
        .expect("runs");
    // A ring bisection cuts >= 2 ring nets (+ chord nets); if both ring cuts
    // landed on buses that alone would cost 10. The engine should find
    // cheaper crossings.
    assert!(best < 10 + 8, "best weighted cut {best}");
}

#[test]
fn weighted_and_duplicate_representations_agree_end_to_end() {
    // Build the same logical netlist twice: once with 4 parallel unit nets,
    // once with one weight-4 net. Every metric must agree for any partition.
    let build = |weighted: bool| {
        let mut b = HypergraphBuilder::with_unit_areas(10);
        for i in 0..9usize {
            b.add_net([i, i + 1]).expect("in range");
        }
        if weighted {
            b.add_weighted_net([0, 9], 4).expect("in range");
        } else {
            for _ in 0..4 {
                b.add_net([0, 9]).expect("in range");
            }
        }
        b.build().expect("valid")
    };
    let dup = build(false);
    let merged = build(true);
    for seed in 0..8 {
        let p = Partition::random(&dup, 2, &mut seeded_rng(seed));
        let q =
            Partition::from_assignment(&merged, 2, p.assignment().to_vec()).expect("same modules");
        assert_eq!(metrics::cut(&dup, &p), metrics::cut(&merged, &q));
        assert_eq!(
            metrics::sum_of_spans_minus_one(&dup, &p),
            metrics::sum_of_spans_minus_one(&merged, &q)
        );
    }
    // And FM reaches the same optimum cut value on both representations.
    let best = |h: &mlpart::Hypergraph| {
        (0..8)
            .map(|s| {
                let mut rng = seeded_rng(50 + s);
                fm_partition(h, &FmConfig::default(), &mut rng, RefineRequest::default())
                    .unwrap()
                    .1
                    .cut
            })
            .min()
            .expect("runs")
    };
    assert_eq!(best(&dup), best(&merged));
}
