//! Property-based tests for the k-way engine: refinement never worsens the
//! configured objective, balance and fixed modules are always respected,
//! and reported statistics match independent recomputation.

use mlpart_fm::{RefineRequest, RefineWorkspace};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{metrics, Hypergraph, HypergraphBuilder, ModuleId, PartBounds, Partition};
use mlpart_kway::{kway_partition, kway_refine, KwayConfig, KwayGain};
use proptest::prelude::*;

/// Module areas and weighted nets: weights 1..=4 drive both gain kinds'
/// terms through net weights, not just pin counts.
fn arb_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<(Vec<usize>, u32)>)> {
    (4usize..32).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..4, n);
        let nets =
            proptest::collection::vec((proptest::collection::vec(0usize..n, 2..6), 1u32..5), 1..40);
        (areas, nets)
    })
}

fn build(areas: Vec<u64>, nets: &[(Vec<usize>, u32)]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(areas);
    for (net, weight) in nets {
        b.add_weighted_net(net.iter().copied(), *weight)
            .expect("in range");
    }
    b.build().expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refinement_never_worsens_objective(
        (areas, nets) in arb_netlist(),
        k in 2u32..9,
        sod in any::<bool>(),
        seed in 0u64..500,
    ) {
        let h = build(areas, &nets);
        let cfg = KwayConfig {
            gain: if sod { KwayGain::SumOfDegrees } else { KwayGain::NetCut },
            ..KwayConfig::default()
        };
        let mut rng = seeded_rng(seed);
        let p0 = Partition::random(&h, k, &mut rng);
        let balance = PartBounds::from_epsilon(&h, k, 2.0 * cfg.balance_r);
        prop_assume!(balance.is_partition_feasible(&p0));
        let start = match cfg.gain {
            KwayGain::SumOfDegrees => metrics::sum_of_spans_minus_one(&h, &p0),
            KwayGain::NetCut => metrics::cut(&h, &p0),
        };
        let mut p = p0;
        let r = kway_refine(&h, &mut p, &cfg, &mut rng, RefineRequest::default()).unwrap();
        let end = match cfg.gain {
            KwayGain::SumOfDegrees => r.sum_of_degrees,
            KwayGain::NetCut => r.cut,
        };
        prop_assert!(end <= start, "objective worsened: {start} -> {end}");
        prop_assert!(balance.is_partition_feasible(&p));
        prop_assert!(p.validate(&h));
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        prop_assert_eq!(r.sum_of_degrees, metrics::sum_of_spans_minus_one(&h, &p));
        // Selection checks a move's feasibility before making it.
        for s in &r.pass_stats {
            prop_assert!(s.inspected >= s.attempted_moves as u64);
        }
    }

    #[test]
    fn fixed_modules_are_pinned(
        (areas, nets) in arb_netlist(),
        seed in 0u64..500,
        fixed_picks in proptest::collection::vec((0usize..32, 0u32..4), 0..4),
    ) {
        let h = build(areas, &nets);
        let n = h.num_modules();
        // Deduplicate fixed modules (a module can only be pinned once).
        let mut seen = std::collections::BTreeSet::new();
        let fixed: Vec<(ModuleId, u32)> = fixed_picks
            .into_iter()
            .map(|(vi, part)| (ModuleId::new(vi % n), part))
            .filter(|&(v, _)| seen.insert(v))
            .collect();
        let mut rng = seeded_rng(seed);
        let req = RefineRequest { fixed: &fixed, ..RefineRequest::default() };
        let (p, _) = kway_partition(&h, 4, &KwayConfig::default(), &mut rng, req).unwrap();
        for &(v, part) in &fixed {
            prop_assert_eq!(p.part(v), part);
        }
        prop_assert!(p.validate(&h));
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh_allocation(
        (areas, nets) in arb_netlist(),
        k in 2u32..9,
        sod in any::<bool>(),
        seed in 0u64..500,
    ) {
        // `kway_refine` runs on the shared `RefineState` from `mlpart_fm`; a
        // dirtied, reused workspace must reproduce a request without one bit
        // for bit — same assignment, same result, same per-pass statistics.
        let h = build(areas, &nets);
        let cfg = KwayConfig {
            gain: if sod { KwayGain::SumOfDegrees } else { KwayGain::NetCut },
            ..KwayConfig::default()
        };
        let mut ws = RefineWorkspace::new();
        // Dirty the workspace on an unrelated problem (different k too).
        {
            let dirty = build(vec![1, 1, 2, 3], &[(vec![0, 1, 2], 1), (vec![2, 3], 1)]);
            let mut rng = seeded_rng(seed ^ 0xbeef);
            let mut dp = Partition::random(&dirty, 2, &mut rng);
            kway_refine(&dirty, &mut dp, &cfg, &mut rng, RefineRequest::reusing(&mut ws)).unwrap();
        }

        let mut rng = seeded_rng(seed);
        let p0 = Partition::random(&h, k, &mut rng);
        let mut p_fresh = p0.clone();
        let mut p_reuse = p0;
        let mut rng1 = seeded_rng(seed);
        let fresh = RefineRequest::default();
        let r_fresh = kway_refine(&h, &mut p_fresh, &cfg, &mut rng1, fresh).unwrap();
        let mut rng2 = seeded_rng(seed);
        let reuse = RefineRequest::reusing(&mut ws);
        let r_reuse = kway_refine(&h, &mut p_reuse, &cfg, &mut rng2, reuse).unwrap();
        prop_assert_eq!(p_fresh.assignment(), p_reuse.assignment());
        prop_assert_eq!(&r_fresh, &r_reuse);
        prop_assert_eq!(&r_fresh.pass_stats, &r_reuse.pass_stats);
    }

    #[test]
    fn deterministic_across_identical_runs(
        (areas, nets) in arb_netlist(),
        seed in 0u64..100,
    ) {
        let h = build(areas, &nets);
        let run = |s| {
            let mut rng = seeded_rng(s);
            let cfg = KwayConfig::default();
            kway_partition(&h, 3, &cfg, &mut rng, RefineRequest::default()).unwrap()
        };
        let (p1, r1) = run(seed);
        let (p2, r2) = run(seed);
        prop_assert_eq!(p1.assignment(), p2.assignment());
        prop_assert_eq!(r1, r2);
    }
}

/// Destination pruning against its audit oracle.
#[cfg(feature = "audit")]
mod pruning {
    use super::*;
    use mlpart_fm::BucketPolicy;
    use mlpart_hypergraph::PartBounds;

    /// Per-part windows around the mean part area of `h`: each part's `lo`
    /// is `lo_pct`% and its `hi` is `hi_pct`% of the mean, so a random
    /// start often lies outside them and the area gates and closed source
    /// classes bind.
    fn windows(h: &Hypergraph, pcts: &[(u64, u64)]) -> PartBounds {
        let mean = h.total_area() / pcts.len() as u64;
        let (lo, hi) = pcts
            .iter()
            .map(|&(lo_pct, hi_pct)| (mean * lo_pct / 100, mean * hi_pct / 100))
            .unzip();
        PartBounds::new(lo, hi)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// With the audits forced on, every LIFO and FIFO pick must equal
        /// the pick of probing every destination the area gate admits over
        /// all its keys, none pruned. Random runs ride along under the
        /// other audits.
        #[test]
        fn destination_pruning_changes_no_pick(
            n in 6usize..40,
            areas in proptest::collection::vec(1u64..24, 40),
            nets in proptest::collection::vec(
                (proptest::collection::vec(0usize..40, 2..6), 1u32..5),
                1..60,
            ),
            pcts in proptest::collection::vec((40u64..100, 100u64..160), 5),
            k in 3u32..6,
            policy in 0usize..3,
            sod in any::<bool>(),
            seed in 0u64..500,
        ) {
            let nets: Vec<(Vec<usize>, u32)> = nets
                .into_iter()
                .map(|(pins, w)| (pins.into_iter().map(|v| v % n).collect(), w))
                .collect();
            let h = build(areas[..n].to_vec(), &nets);
            let bounds = windows(&h, &pcts[..k as usize]);
            let cfg = KwayConfig {
                gain: if sod { KwayGain::SumOfDegrees } else { KwayGain::NetCut },
                policy: [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random][policy],
                ..KwayConfig::default()
            };
            let mut rng = seeded_rng(seed);
            let mut p = Partition::random(&h, k, &mut rng);
            let req = RefineRequest { bounds: Some(&bounds), ..RefineRequest::default() };
            mlpart_audit::force_enabled(true);
            let r = kway_refine(&h, &mut p, &cfg, &mut rng, req);
            mlpart_audit::force_enabled(false);
            prop_assert!(r.is_ok());
        }
    }
}
