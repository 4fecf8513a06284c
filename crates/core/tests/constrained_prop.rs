//! Property-based tests for the constraint-generic pipelines: on arbitrary
//! netlists with arbitrary pin sets, fixed modules never move through any of
//! the four drivers (ML, k-way, recursive general-k, two-phase). Byte
//! identity of both schedules is pinned by `golden.rs`.

use mlpart_cluster::MatchConfig;
use mlpart_core::{
    ml_bipartition, ml_kway, recursive_ml_partition, two_phase_fm, Constraints, MlConfig,
    MlKwayConfig, Request,
};
use mlpart_fm::FmConfig;
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{metrics, Hypergraph, HypergraphBuilder, ModuleId, PartId};
use proptest::prelude::*;

fn arb_netlist() -> impl Strategy<Value = (Vec<u64>, Vec<Vec<usize>>)> {
    (8usize..48).prop_flat_map(|n| {
        let areas = proptest::collection::vec(1u64..4, n);
        let nets = proptest::collection::vec(proptest::collection::vec(0usize..n, 2..5), 1..70);
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

/// Derives a deterministic pin set from raw proptest bits: module `i` is
/// pinned iff bit `i` of `pin_bits` is set, to part `i % k`. A wide ε keeps
/// the instance feasible for any such pin set.
fn pins_from_bits(n: usize, k: u32, pin_bits: u64) -> Vec<(ModuleId, PartId)> {
    (0..n.min(64))
        .filter(|&i| (pin_bits >> i) & 1 == 1)
        .map(|i| (ModuleId::new(i), i as u32 % k))
        .collect()
}

/// A request under the constrained schedule of `c`.
fn pinned(c: &Constraints) -> Request<'_> {
    Request {
        constraints: Some(c),
        ..Request::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Pins survive the full ML V-cycle (coarsen, initial, refine back down)
    /// for every seed and pin set.
    #[test]
    fn ml_bipartition_never_moves_pins(
        (areas, nets) in arb_netlist(),
        pin_bits in 0u64..u64::MAX,
        seed in 0u64..200,
    ) {
        let h = build(areas, &nets);
        let fixed = pins_from_bits(h.num_modules(), 2, pin_bits);
        let c = Constraints::new(2, 2.0, fixed).expect("valid pins");
        let cfg = MlConfig { coarsen_threshold: 8, ..MlConfig::default() };
        let mut rng = seeded_rng(seed);
        let (p, r) = ml_bipartition(&h, &cfg, &mut rng, pinned(&c)).expect("valid run");
        prop_assert!(p.validate(&h));
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        for &(v, part) in c.fixed() {
            prop_assert_eq!(p.part(v), part, "module {:?} moved", v);
        }
    }

    /// Same contract for the direct k-way driver.
    #[test]
    fn ml_kway_never_moves_pins(
        (areas, nets) in arb_netlist(),
        k in 2u32..5,
        pin_bits in 0u64..u64::MAX,
        seed in 0u64..200,
    ) {
        let h = build(areas, &nets);
        let fixed = pins_from_bits(h.num_modules(), k, pin_bits);
        let c = Constraints::new(k, 2.0, fixed).expect("valid pins");
        let cfg = MlKwayConfig { k, coarsen_threshold: 8, ..MlKwayConfig::default() };
        let mut rng = seeded_rng(seed);
        let (p, r) = ml_kway(&h, &cfg, &mut rng, pinned(&c)).expect("valid run");
        prop_assert!(p.validate(&h));
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        for &(v, part) in c.fixed() {
            prop_assert_eq!(p.part(v), part, "module {:?} moved", v);
        }
    }

    /// Same contract for general k by recursive bisection, including
    /// non-powers of two.
    #[test]
    fn recursive_ml_partition_never_moves_pins(
        (areas, nets) in arb_netlist(),
        k in 2u32..7,
        pin_bits in 0u64..u64::MAX,
        seed in 0u64..200,
    ) {
        let h = build(areas, &nets);
        let fixed = pins_from_bits(h.num_modules(), k, pin_bits);
        let c = Constraints::new(k, 2.0, fixed).expect("valid pins");
        let cfg = MlConfig { coarsen_threshold: 8, ..MlConfig::default() };
        let mut rng = seeded_rng(seed);
        let run = recursive_ml_partition(&h, &cfg, &mut rng, pinned(&c));
        let (p, r) = run.expect("valid run");
        prop_assert!(p.validate(&h));
        prop_assert_eq!(p.k(), k);
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        for &(v, part) in c.fixed() {
            prop_assert_eq!(p.part(v), part, "module {:?} moved", v);
        }
    }

    /// Same contract for the two-phase baseline.
    #[test]
    fn two_phase_never_moves_pins(
        (areas, nets) in arb_netlist(),
        pin_bits in 0u64..u64::MAX,
        seed in 0u64..200,
    ) {
        let h = build(areas, &nets);
        let fixed = pins_from_bits(h.num_modules(), 2, pin_bits);
        let c = Constraints::new(2, 2.0, fixed).expect("valid pins");
        let mut rng = seeded_rng(seed);
        let (fm, mc) = (FmConfig::default(), MatchConfig::default());
        let (p, r) = two_phase_fm(&h, &fm, &mc, &mut rng, pinned(&c)).expect("valid run");
        prop_assert!(p.validate(&h));
        prop_assert_eq!(r.cut, metrics::cut(&h, &p));
        for &(v, part) in c.fixed() {
            prop_assert_eq!(p.part(v), part, "module {:?} moved", v);
        }
    }

    /// Each constrained driver is a pure function of (netlist, constraints,
    /// seed).
    #[test]
    fn constrained_drivers_deterministic(
        (areas, nets) in arb_netlist(),
        pin_bits in 0u64..u64::MAX,
        seed in 0u64..200,
    ) {
        let h = build(areas, &nets);
        let fixed = pins_from_bits(h.num_modules(), 2, pin_bits);
        let c = Constraints::new(2, 2.0, fixed).expect("valid pins");
        let cfg = MlConfig { coarsen_threshold: 8, ..MlConfig::default() };
        let run = |s| {
            let mut rng = seeded_rng(s);
            ml_bipartition(&h, &cfg, &mut rng, pinned(&c)).expect("valid run")
        };
        let (p1, r1) = run(seed);
        let (p2, r2) = run(seed);
        prop_assert_eq!(p1.assignment(), p2.assignment());
        prop_assert_eq!(r1, r2);
    }
}
