//! Property-based tests for the full multilevel pipeline: on arbitrary
//! netlists, `ml_bipartition` and `ml_kway` always produce valid, feasible,
//! consistently-reported partitions, the hierarchy respects its threshold,
//! and the whole pipeline is deterministic per seed.

use mlpart_core::{ml_bipartition, ml_kway, Hierarchy, MlConfig, MlKwayConfig, Request};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{metrics, BipartBalance, Hypergraph, HypergraphBuilder, KwayBalance};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<usize>>)> {
    (4usize..60).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..4, n);
        let nets = proptest::collection::vec(proptest::collection::vec(0usize..n, 2..5), 1..90);
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ml_bipartition_invariants(
        (areas, nets) in arb_netlist(),
        ratio in 0.2f64..=1.0,
        clip in any::<bool>(),
        seed in 0u64..500,
    ) {
        let h = build(areas, &nets);
        let base = if clip { MlConfig::clip() } else { MlConfig::fm() };
        let cfg = MlConfig {
            coarsen_threshold: 8,
            ..base.with_ratio(ratio)
        };
        let mut rng = seeded_rng(seed);
        let (p, r) = ml_bipartition(&h, &cfg, &mut rng, Request::default()).expect("valid run");
        prop_assert!(p.validate(&h));
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        let balance = BipartBalance::new(&h, cfg.fm.balance_r);
        prop_assert!(balance.is_partition_feasible(&p), "{:?}", p.part_areas());
        prop_assert_eq!(r.level_sizes.len(), r.levels + 1);
        prop_assert_eq!(r.level_sizes[0], h.num_modules());
        // Levels strictly shrink.
        prop_assert!(r.level_sizes.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn ml_kway_invariants(
        (areas, nets) in arb_netlist(),
        k in 2u32..5,
        seed in 0u64..500,
    ) {
        let h = build(areas, &nets);
        let cfg = MlKwayConfig {
            k,
            coarsen_threshold: 10,
            ..MlKwayConfig::default()
        };
        let mut rng = seeded_rng(seed);
        let (p, r) = ml_kway(&h, &cfg, &mut rng, Request::default()).expect("valid run");
        prop_assert!(p.validate(&h));
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        prop_assert_eq!(r.sum_of_degrees, metrics::sum_of_spans_minus_one(&h, &p));
        let balance = KwayBalance::new(&h, k, cfg.kway.balance_r);
        prop_assert!(balance.is_partition_feasible(&p), "{:?}", p.part_areas());
    }

    #[test]
    fn hierarchy_threshold_or_stall(
        (areas, nets) in arb_netlist(),
        threshold in 4usize..20,
        seed in 0u64..200,
    ) {
        let h = build(areas, &nets);
        let cfg = MlConfig {
            coarsen_threshold: threshold,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(seed);
        let mut hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng).expect("valid run");
        // Either the coarsest netlist is at/below T, or coarsening stopped
        // on the stall guard — in which case one more Match pass would not
        // meaningfully shrink it; verify levels at least never grow.
        let sizes = hier.level_sizes(&h);
        prop_assert!(sizes.windows(2).all(|w| w[1] < w[0]), "{sizes:?}");
        loop {
            prop_assert_eq!(hier.coarsest(&h).total_area(), h.total_area());
            if hier.pop_level().is_none() {
                break;
            }
        }
    }

    #[test]
    fn pipeline_deterministic(
        (areas, nets) in arb_netlist(),
        seed in 0u64..100,
    ) {
        let h = build(areas, &nets);
        let cfg = MlConfig::clip().with_ratio(0.5).with_threshold(8);
        let run = |s| {
            let mut rng = seeded_rng(s);
            ml_bipartition(&h, &cfg, &mut rng, Request::default()).expect("valid run")
        };
        let (p1, r1) = run(seed);
        let (p2, r2) = run(seed);
        prop_assert_eq!(p1.assignment(), p2.assignment());
        prop_assert_eq!(r1, r2);
    }
}
