//! Property-based tests for coarsening: matchings are valid clusterings
//! with cluster sizes ≤ 2, `Induce` preserves areas and drops exactly the
//! internal nets, and `Project` preserves the cut.

use mlpart_cluster::{induce, match_clusters, project, rebalance_bipart, Clustering, MatchConfig};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{metrics, Hypergraph, HypergraphBuilder, PartBounds, Partition};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<usize>>)> {
    (2usize..40).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..8, n);
        let nets = proptest::collection::vec(proptest::collection::vec(0usize..n, 2..7), 0..60);
        (areas, nets)
    })
}

fn build(areas: Vec<u64>, nets: &[Vec<usize>]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(areas);
    for net in nets {
        b.add_net(net.iter().copied()).expect("in range");
    }
    b.build().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matchings_are_valid_pairings(
        (areas, nets) in arb_netlist(),
        ratio in 0.1f64..=1.0,
        seed in 0u64..500,
    ) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(seed);
        let c = match_clusters(&h, &MatchConfig::with_ratio(ratio), &mut rng);
        prop_assert!(c.validate(&h));
        prop_assert!(c.cluster_sizes().iter().all(|&s| (1..=2).contains(&s)));
        // Matched fraction never exceeds the ratio by more than one pair.
        let paired: usize = c.cluster_sizes().iter().filter(|&&s| s == 2).count() * 2;
        prop_assert!(
            paired as f64 <= ratio * h.num_modules() as f64 + 2.0,
            "paired {} of {} exceeds R {}",
            paired, h.num_modules(), ratio
        );
    }

    #[test]
    fn induce_preserves_area_and_drops_internal_nets(
        (areas, nets) in arb_netlist(),
        seed in 0u64..500,
    ) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(seed);
        let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
        let coarse = induce(&h, &c).unwrap();
        prop_assert_eq!(coarse.total_area(), h.total_area());
        prop_assert_eq!(coarse.num_modules(), c.num_clusters());
        // The number of coarse nets equals the number of fine nets whose
        // pins span >= 2 clusters.
        let spanning = h
            .net_ids()
            .filter(|&e| {
                let first = c.cluster_of(h.pins(e)[0]);
                h.pins(e)[1..].iter().any(|&v| c.cluster_of(v) != first)
            })
            .count();
        prop_assert_eq!(coarse.num_nets(), spanning);
    }

    #[test]
    fn projection_preserves_cut(
        (areas, nets) in arb_netlist(),
        seed in 0u64..500,
        k in 2u32..5,
    ) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(seed);
        let c = match_clusters(&h, &MatchConfig::with_ratio(0.8), &mut rng);
        let coarse = induce(&h, &c).unwrap();
        let coarse_p = Partition::random(&coarse, k, &mut rng);
        let fine_p = project(&h, &c, &coarse_p).unwrap();
        prop_assert!(fine_p.validate(&h));
        prop_assert_eq!(metrics::cut(&coarse, &coarse_p), metrics::cut(&h, &fine_p));
        prop_assert_eq!(
            metrics::sum_of_spans_minus_one(&coarse, &coarse_p),
            metrics::sum_of_spans_minus_one(&h, &fine_p)
        );
        // Part areas transfer exactly.
        for part in 0..k {
            prop_assert_eq!(coarse_p.part_area(part), fine_p.part_area(part));
        }
    }

    #[test]
    fn identity_clustering_roundtrip((areas, nets) in arb_netlist()) {
        let h = build(areas, &nets);
        let c = Clustering::identity(h.num_modules());
        let coarse = induce(&h, &c).unwrap();
        prop_assert_eq!(&coarse, &h);
        let mut rng = seeded_rng(0);
        let p = Partition::random(&coarse, 2, &mut rng);
        let fine_p = project(&h, &c, &p).unwrap();
        prop_assert_eq!(fine_p.assignment(), p.assignment());
    }

    #[test]
    fn rebalance_reaches_feasibility_when_possible(
        (areas, nets) in arb_netlist(),
        seed in 0u64..200,
    ) {
        let h = build(areas, &nets);
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        // Worst case: everything on one side.
        let mut p = Partition::from_assignment(&h, 2, vec![0; h.num_modules()])
            .expect("valid");
        let mut rng = seeded_rng(seed);
        rebalance_bipart(&h, &mut p, &bounds, &mut rng);
        // With slack >= max module area, a greedy sequence of single moves
        // always reaches feasibility.
        prop_assert!(
            bounds.is_partition_feasible(&p),
            "areas {:?} bounds {}",
            p.part_areas(), bounds
        );
        prop_assert!(p.validate(&h));
    }

    #[test]
    fn repeated_matching_strictly_coarsens_connected_graphs(
        n in 4usize..30,
        seed in 0u64..100,
    ) {
        // A cycle: matching must reduce the module count every time until
        // the 2-module floor.
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n {
            b.add_net([i, (i + 1) % n]).expect("in range");
        }
        let mut h = b.build().expect("valid");
        let mut rng = seeded_rng(seed);
        for _ in 0..10 {
            if h.num_modules() <= 2 {
                break;
            }
            let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
            prop_assert!(c.num_clusters() < h.num_modules());
            h = induce(&h, &c).unwrap();
        }
        prop_assert!(h.num_modules() <= 2 || h.num_nets() == 0 || h.num_modules() < n);
    }
}
