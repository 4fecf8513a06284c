//! Cross-validation against exhaustive search: on tiny netlists the true
//! balanced min-cut can be enumerated, so the heuristics' output can be
//! checked against ground truth rather than against each other.

use mlpart::fm::refine;
use mlpart::gen::simple::{chain, ring_of_cliques};
use mlpart::hypergraph::rng::{seeded_rng, MlRng};
use mlpart::hypergraph::{
    metrics, Hypergraph, HypergraphBuilder, ModuleId, PartBounds, PartId, Partition,
};
use mlpart::kway::{kway_refine, KwayConfig};
use mlpart::{fm_partition, ml_bipartition, FmConfig, MlConfig, RefineRequest, Request};
use rand::Rng;

/// Exhaustive balanced min-cut over all 2^n assignments (n ≤ ~16).
fn brute_force_min_cut(h: &Hypergraph, balance: &PartBounds) -> u64 {
    let n = h.num_modules();
    assert!(n <= 16, "exhaustive search only for tiny netlists");
    let mut best = u64::MAX;
    for mask in 0u32..(1 << n) {
        let assignment: Vec<u32> = (0..n).map(|i| (mask >> i) & 1).collect();
        let p = Partition::from_assignment(h, 2, assignment).expect("valid");
        if !balance.is_partition_feasible(&p) {
            continue;
        }
        best = best.min(metrics::cut(h, &p));
    }
    best
}

fn random_netlist(n: usize, nets: usize, rng: &mut MlRng) -> Hypergraph {
    let mut b = HypergraphBuilder::with_unit_areas(n);
    for _ in 0..nets {
        let size = 2 + rng.gen_range(0..2usize);
        let mut pins = Vec::new();
        while pins.len() < size {
            let v = rng.gen_range(0..n);
            if !pins.contains(&v) {
                pins.push(v);
            }
        }
        b.add_net(pins).expect("in range");
    }
    b.build().expect("valid")
}

fn heuristic_best<F>(tries: u64, seed_base: u64, mut run: F) -> u64
where
    F: FnMut(&mut MlRng) -> u64,
{
    (0..tries)
        .map(|s| {
            let mut rng = seeded_rng(seed_base + s);
            run(&mut rng)
        })
        .min()
        .expect("tries")
}

#[test]
fn fm_reaches_optimum_on_random_tiny_netlists() {
    let cfg = FmConfig::default();
    for instance in 0..20u64 {
        let mut gen_rng = seeded_rng(1000 + instance);
        let h = random_netlist(12, 18, &mut gen_rng);
        let balance = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.balance_r);
        let optimal = brute_force_min_cut(&h, &balance);
        let found = heuristic_best(30, 5000 + instance * 100, |rng| {
            fm_partition(&h, &cfg, rng, RefineRequest::default())
                .unwrap()
                .1
                .cut
        });
        assert!(
            found >= optimal,
            "instance {instance}: heuristic {found} below optimum {optimal}?!"
        );
        assert!(
            found <= optimal + 1,
            "instance {instance}: 30-start FM found {found}, optimum {optimal}"
        );
    }
}

#[test]
fn ml_reaches_optimum_on_random_tiny_netlists() {
    let cfg = MlConfig::clip().with_threshold(6);
    for instance in 0..12u64 {
        let mut gen_rng = seeded_rng(2000 + instance);
        let h = random_netlist(14, 22, &mut gen_rng);
        let balance = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.fm.balance_r);
        let optimal = brute_force_min_cut(&h, &balance);
        let found = heuristic_best(30, 9000 + instance * 100, |rng| {
            ml_bipartition(&h, &cfg, rng, Request::default())
                .expect("valid run")
                .1
                .cut
        });
        assert!(found >= optimal, "instance {instance}: below optimum?!");
        assert!(
            found <= optimal + 1,
            "instance {instance}: 30-start ML found {found}, optimum {optimal}"
        );
    }
}

#[test]
fn known_optima_on_structured_netlists() {
    // Chain of 12: optimal bisection cut 1.
    let h = chain(12);
    let balance = PartBounds::from_epsilon(&h, 2, 0.2);
    assert_eq!(brute_force_min_cut(&h, &balance), 1);
    let found = heuristic_best(10, 1, |rng| {
        fm_partition(&h, &FmConfig::default(), rng, RefineRequest::default())
            .unwrap()
            .1
            .cut
    });
    assert_eq!(found, 1);

    // Ring of 2 cliques of 7: the two bridges form the optimal 2-cut.
    let h = ring_of_cliques(2, 7);
    let balance = PartBounds::from_epsilon(&h, 2, 0.2);
    assert_eq!(brute_force_min_cut(&h, &balance), 2);
    let found = heuristic_best(10, 2, |rng| {
        ml_bipartition(&h, &MlConfig::default(), rng, Request::default())
            .expect("valid run")
            .1
            .cut
    });
    assert_eq!(found, 2);
}

#[test]
fn weighted_optimum_respected() {
    // A 2x5 ladder with one heavy rung: the optimum avoids the heavy net.
    let mut b = HypergraphBuilder::with_unit_areas(10);
    for i in 0..4usize {
        b.add_net([i, i + 1]).expect("in range");
        b.add_net([5 + i, 5 + i + 1]).expect("in range");
    }
    for i in 0..5usize {
        let w = if i == 2 { 10 } else { 1 };
        b.add_weighted_net([i, 5 + i], w).expect("in range");
    }
    let h = b.build().expect("valid");
    let balance = PartBounds::from_epsilon(&h, 2, 0.2);
    let optimal = brute_force_min_cut(&h, &balance);
    let found = heuristic_best(20, 3, |rng| {
        fm_partition(&h, &FmConfig::default(), rng, RefineRequest::default())
            .unwrap()
            .1
            .cut
    });
    assert_eq!(found, optimal);
    assert!(optimal < 10, "optimum must avoid the weight-10 rung");
}

/// Every assignment of `h` to `k` parts, as a flat `n`-digit base-`k` code,
/// that keeps each pin of `fixed` on its part and each part inside
/// `bounds`, with its weighted cut. Computed without the library's
/// partition or metrics code, so it checks them independently.
fn feasible_assignments(
    h: &Hypergraph,
    k: u32,
    bounds: &PartBounds,
    fixed: &[(ModuleId, PartId)],
) -> Vec<(Vec<u32>, u64)> {
    let n = h.num_modules();
    let mut out = Vec::new();
    for code in 0..(k as usize).pow(n as u32) {
        let assignment: Vec<u32> = (0..n)
            .scan(code, |c, _| {
                let part = (*c % k as usize) as u32;
                *c /= k as usize;
                Some(part)
            })
            .collect();
        if fixed.iter().any(|&(v, part)| assignment[v.index()] != part) {
            continue;
        }
        let mut areas = vec![0u64; k as usize];
        for (v, &part) in h.modules().zip(&assignment) {
            areas[part as usize] += h.area(v);
        }
        if (0..k).any(|part| !bounds.is_area_feasible(part, areas[part as usize])) {
            continue;
        }
        let cut = h
            .net_ids()
            .filter(|&e| {
                let first = assignment[h.pins(e)[0].index()];
                h.pins(e).iter().any(|v| assignment[v.index()] != first)
            })
            .map(|e| u64::from(h.net_weight(e)))
            .sum();
        out.push((assignment, cut));
    }
    out
}

#[test]
fn constrained_refinement_never_beats_the_exhaustive_optimum() {
    let mut checked = 0;
    for instance in 0..24u64 {
        let mut rng = seeded_rng(7000 + instance);
        let n = 5 + rng.gen_range(0..6usize);
        let k = 2 + (instance % 2) as u32;
        // Areas 1..=3 and weighted nets, so neither cut nor balance is
        // a plain count.
        let areas = (0..n).map(|_| 1 + rng.gen_range(0..3u64)).collect();
        let mut b = HypergraphBuilder::new(areas);
        for _ in 0..n + 4 {
            let u = rng.gen_range(0..n);
            let v = (u + 1 + rng.gen_range(0..n - 1)) % n;
            b.add_weighted_net([u, v], 1 + rng.gen_range(0..3u32))
                .expect("in range");
        }
        let h = b.build().expect("valid");
        // Uneven part targets: the windows differ part by part.
        let total = h.total_area();
        let targets: Vec<u64> = match k {
            2 => vec![2 * total / 5, total - 2 * total / 5],
            _ => vec![total / 4, total / 3, total - total / 4 - total / 3],
        };
        let bounds = PartBounds::around_targets(&targets, total, h.max_area(), 0.25);
        let pins: Vec<(ModuleId, PartId)> = (0..1 + instance % 2)
            .map(|i| (ModuleId::new(i as usize * (n - 1)), rng.gen_range(0..k)))
            .collect();
        let feasible = feasible_assignments(&h, k, &bounds, &pins);
        let Some(optimum) = feasible.iter().map(|&(_, cut)| cut).min() else {
            continue;
        };
        // A pin-respecting feasible start drawn from the enumeration.
        let start = &feasible[rng.gen_range(0..feasible.len())].0;
        let p0 = Partition::from_assignment(&h, k, start.clone()).expect("valid");
        let req = || RefineRequest {
            bounds: Some(&bounds),
            fixed: &pins,
            ..RefineRequest::default()
        };
        let mut runs = Vec::new();
        if k == 2 {
            let mut p = p0.clone();
            let r = refine(&h, &mut p, &FmConfig::default(), &mut rng, req()).expect("valid");
            runs.push((p, r.cut));
        }
        let mut p = p0.clone();
        let r = kway_refine(&h, &mut p, &KwayConfig::default(), &mut rng, req()).expect("valid");
        runs.push((p, r.cut));
        for (p, cut) in runs {
            assert!(bounds.is_partition_feasible(&p), "instance {instance}");
            for &(v, part) in &pins {
                assert_eq!(p.part(v), part, "instance {instance}: pin moved");
            }
            assert_eq!(cut, metrics::cut(&h, &p), "instance {instance}");
            assert!(cut >= optimum, "instance {instance}: {cut} < {optimum}");
        }
        checked += 1;
    }
    assert!(
        checked >= 20,
        "only {checked} instances had a feasible assignment"
    );
}
