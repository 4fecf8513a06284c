//! Cross-validation against exhaustive search: on tiny netlists the true
//! balanced min-cut can be enumerated, so the heuristics' output can be
//! checked against ground truth rather than against each other.

use mlpart::gen::simple::{chain, ring_of_cliques};
use mlpart::hypergraph::rng::{seeded_rng, MlRng};
use mlpart::hypergraph::{metrics, BipartBalance, Hypergraph, HypergraphBuilder, Partition};
use mlpart::{fm_partition, ml_bipartition, FmConfig, MlConfig, Request};
use rand::Rng;

/// Exhaustive balanced min-cut over all 2^n assignments (n ≤ ~16).
fn brute_force_min_cut(h: &Hypergraph, balance: &BipartBalance) -> u64 {
    let n = h.num_modules();
    assert!(n <= 16, "exhaustive search only for tiny netlists");
    let mut best = u64::MAX;
    for mask in 0u32..(1 << n) {
        let assignment: Vec<u32> = (0..n).map(|i| (mask >> i) & 1).collect();
        let p = Partition::from_assignment(h, 2, assignment).expect("valid");
        if !balance.is_feasible(p.part_area(0)) {
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
        let balance = BipartBalance::new(&h, cfg.balance_r);
        let optimal = brute_force_min_cut(&h, &balance);
        let found = heuristic_best(30, 5000 + instance * 100, |rng| {
            fm_partition(&h, None, &cfg, rng).1.cut
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
        let balance = BipartBalance::new(&h, cfg.fm.balance_r);
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
    let balance = BipartBalance::new(&h, 0.1);
    assert_eq!(brute_force_min_cut(&h, &balance), 1);
    let found = heuristic_best(10, 1, |rng| {
        fm_partition(&h, None, &FmConfig::default(), rng).1.cut
    });
    assert_eq!(found, 1);

    // Ring of 2 cliques of 7: the two bridges form the optimal 2-cut.
    let h = ring_of_cliques(2, 7);
    let balance = BipartBalance::new(&h, 0.1);
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
    let balance = BipartBalance::new(&h, 0.1);
    let optimal = brute_force_min_cut(&h, &balance);
    let found = heuristic_best(20, 3, |rng| {
        fm_partition(&h, None, &FmConfig::default(), rng).1.cut
    });
    assert_eq!(found, optimal);
    assert!(optimal < 10, "optimum must avoid the weight-10 rung");
}
