//! Property-based tests for the hypergraph foundation: builder invariants,
//! CSR consistency, partition bookkeeping, metric identities, metamorphic
//! cut relations, and hMETIS round-trips over arbitrary netlists.

use mlpart_hypergraph::io::{read_hgr, write_hgr};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{metrics, Hypergraph, HypergraphBuilder, ModuleId, Partition};
use proptest::prelude::*;
use rand::seq::SliceRandom;

/// Strategy: an arbitrary small netlist as (module areas, nets of indices).
fn arb_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<usize>>)> {
    (2usize..40).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..20, n);
        let nets = proptest::collection::vec(proptest::collection::vec(0usize..n, 1..8), 0..60);
        (areas, nets)
    })
}

fn build(areas: Vec<u64>, nets: &[Vec<usize>]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(areas);
    for net in nets {
        b.add_net(net.iter().copied()).expect("indices in range");
    }
    b.build().expect("valid netlist")
}

/// `nets` with weights cycling through 1..=4, so the metamorphic cut tests
/// see weighted nets too.
fn with_weights(nets: Vec<Vec<usize>>) -> Vec<(Vec<usize>, u32)> {
    nets.into_iter()
        .enumerate()
        .map(|(i, net)| (net, 1 + i as u32 % 4))
        .collect()
}

fn build_weighted(areas: Vec<u64>, nets: &[(Vec<usize>, u32)]) -> Hypergraph {
    let mut b = HypergraphBuilder::new(areas);
    for (net, w) in nets {
        b.add_weighted_net(net.iter().copied(), *w)
            .expect("indices in range");
    }
    b.build().expect("valid netlist")
}

/// The cut of `parts` on `build_weighted(areas, nets)`.
fn cut_of(areas: Vec<u64>, nets: &[(Vec<usize>, u32)], k: u32, parts: Vec<u32>) -> u64 {
    let h = build_weighted(areas, nets);
    let p = Partition::from_assignment(&h, k, parts).expect("valid assignment");
    metrics::cut(&h, &p)
}

/// A random `k`-way assignment of `n` modules.
fn random_parts(n: usize, k: u32, seed: u64) -> Vec<u32> {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    (0..n).map(|_| rng.gen_range(0..k)).collect()
}

proptest! {
    /// The cut is a sum over nets: listing them in another order changes
    /// nothing.
    #[test]
    fn cut_ignores_net_order((areas, nets) in arb_netlist(), k in 2u32..5, seed in 0u64..1000) {
        let parts = random_parts(areas.len(), k, seed);
        let nets = with_weights(nets);
        let mut shuffled = nets.clone();
        shuffled.shuffle(&mut seeded_rng(seed));
        prop_assert_eq!(
            cut_of(areas.clone(), &nets, k, parts.clone()),
            cut_of(areas, &shuffled, k, parts)
        );
    }

    /// Renaming module `v` to `perm[v]` in every net, and moving its area
    /// and part with it, leaves the cut unchanged.
    #[test]
    fn cut_ignores_module_labels((areas, nets) in arb_netlist(), k in 2u32..5, seed in 0u64..1000) {
        let n = areas.len();
        let parts = random_parts(n, k, seed);
        let nets = with_weights(nets);
        let mut perm: Vec<usize> = (0..n).collect();
        perm.shuffle(&mut seeded_rng(seed));
        let mut relabeled_areas = vec![0; n];
        let mut relabeled_parts = vec![0; n];
        for v in 0..n {
            relabeled_areas[perm[v]] = areas[v];
            relabeled_parts[perm[v]] = parts[v];
        }
        let relabeled_nets: Vec<(Vec<usize>, u32)> = nets
            .iter()
            .map(|(net, w)| (net.iter().map(|&v| perm[v]).collect(), *w))
            .collect();
        prop_assert_eq!(
            cut_of(areas, &nets, k, parts),
            cut_of(relabeled_areas, &relabeled_nets, k, relabeled_parts)
        );
    }

    /// Appending a copy of net `j` adds its weight to the cut exactly when
    /// that net is cut (a net that collapses below two pins never is).
    #[test]
    fn duplicated_net_adds_its_weight_iff_cut(
        (areas, nets) in arb_netlist(),
        k in 2u32..5,
        seed in 0u64..1000,
        pick in 0usize..60,
    ) {
        prop_assume!(!nets.is_empty());
        let parts = random_parts(areas.len(), k, seed);
        let nets = with_weights(nets);
        let (net, w) = nets[pick % nets.len()].clone();
        let net_is_cut = net.iter().any(|&v| parts[v] != parts[net[0]]);
        let mut duplicated = nets.clone();
        duplicated.push((net, w));
        prop_assert_eq!(
            cut_of(areas.clone(), &duplicated, k, parts.clone()),
            cut_of(areas, &nets, k, parts) + if net_is_cut { u64::from(w) } else { 0 }
        );
    }

    #[test]
    fn builder_produces_consistent_csr((areas, nets) in arb_netlist()) {
        let h = build(areas.clone(), &nets);
        prop_assert!(h.validate());
        prop_assert_eq!(h.num_modules(), areas.len());
        prop_assert_eq!(h.total_area(), areas.iter().sum::<u64>());
        // Every surviving net has >= 2 distinct pins, none out of range.
        for e in h.net_ids() {
            prop_assert!(h.net_size(e) >= 2);
            let mut pins: Vec<_> = h.pins(e).to_vec();
            pins.sort();
            pins.dedup();
            prop_assert_eq!(pins.len(), h.net_size(e), "duplicate pins survived");
        }
        // Pin count identities.
        let total_degree: usize = h.modules().map(|v| h.degree(v)).sum();
        prop_assert_eq!(total_degree, h.num_pins());
    }

    /// Dropping the module → net incidence and rebuilding it gives back an
    /// equal netlist: weighted nets, nets listing a pin twice, and modules
    /// on no net at all.
    #[test]
    fn net_list_roundtrip_is_identity((mut areas, nets) in arb_netlist(), isolated in 0usize..4) {
        areas.extend((1..=isolated as u64).map(|a| a * 3));
        let nets: Vec<(Vec<usize>, u32)> = with_weights(nets)
            .into_iter()
            .enumerate()
            .map(|(i, (mut net, w))| {
                if i % 2 == 0 {
                    net.push(net[0]);
                }
                (net, w)
            })
            .collect();
        let h = build_weighted(areas, &nets);
        let nets = h.clone().into_net_list();
        prop_assert_eq!(nets.num_modules(), h.num_modules());
        prop_assert_eq!(nets.num_pins(), h.num_pins());
        prop_assert_eq!(nets.into_hypergraph(), h);
    }

    #[test]
    fn hgr_roundtrip_is_identity((areas, nets) in arb_netlist()) {
        let h = build(areas, &nets);
        let mut text = Vec::new();
        write_hgr(&h, &mut text).expect("write to memory");
        let h2 = read_hgr(&text[..]).expect("parse own output");
        prop_assert_eq!(h, h2);
    }

    #[test]
    fn partition_move_bookkeeping(
        (areas, nets) in arb_netlist(),
        moves in proptest::collection::vec((0usize..40, 0u32..4), 0..50),
        k in 2u32..5,
    ) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(1);
        let mut p = Partition::random(&h, k, &mut rng);
        for (vi, part) in moves {
            let v = ModuleId::new(vi % h.num_modules());
            p.move_module(&h, v, part % k);
            prop_assert!(p.validate(&h));
        }
        prop_assert_eq!(p.part_areas().iter().sum::<u64>(), h.total_area());
    }

    #[test]
    fn cut_identities((areas, nets) in arb_netlist(), k in 2u32..5) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(2);
        let p = Partition::random(&h, k, &mut rng);
        let cut = metrics::cut(&h, &p);
        let sod = metrics::sum_of_spans_minus_one(&h, &p);
        // cut <= sum-of-degrees <= (k-1) * cut.
        prop_assert!(cut <= sod);
        prop_assert!(sod <= cut * (k as u64 - 1).max(1));
        // k = 2: equality.
        if k == 2 {
            prop_assert_eq!(cut, sod);
        }
        // Single-part partition has zero cut.
        let uniform = Partition::from_assignment(&h, k, vec![0; h.num_modules()])
            .expect("valid");
        prop_assert_eq!(metrics::cut(&h, &uniform), 0);
    }

    #[test]
    fn net_span_bounds((areas, nets) in arb_netlist(), k in 2u32..6) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(3);
        let p = Partition::random(&h, k, &mut rng);
        for e in h.net_ids() {
            let span = metrics::net_span(&h, &p, e);
            prop_assert!(span >= 1);
            prop_assert!(span as usize <= h.net_size(e));
            prop_assert!(span <= k);
            prop_assert_eq!(span > 1, metrics::is_net_cut(&h, &p, e));
        }
    }

    #[test]
    fn random_partition_roughly_balanced((areas, nets) in arb_netlist()) {
        let h = build(areas, &nets);
        let mut rng = seeded_rng(4);
        let p = Partition::random(&h, 2, &mut rng);
        // Each side within half the total ± the largest module.
        let half = h.total_area() / 2;
        let slack = h.max_area();
        prop_assert!(p.part_area(0) + slack >= half);
        prop_assert!(p.part_area(0) <= half + slack + 1);
    }
}
