//! The recursive driver's composed balance window: bisecting under the
//! per-level `ε′` of `adapted_epsilon` must land every final part inside
//! the ε window that the constraints give, on real suite circuits and not
//! only on the loose-ε netlists of the property tests.

use mlpart_core::{recursive_ml_partition, Constraints, MlConfig, PartBounds, Request};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::KwayBalance;

#[test]
fn every_part_lands_in_the_composed_window() {
    for name in ["balu", "primary1", "struct", "test05", "s13207"] {
        let h = mlpart_gen::by_name(name).expect("in suite").generate(1997);
        for k in [4u32, 8] {
            let c = Constraints::new(k, 0.2, vec![]).expect("valid");
            let bounds = c.bounds(&h);
            assert_eq!(bounds, PartBounds::from_kway(&KwayBalance::new(&h, k, 0.1)));
            for seed in 0..4 {
                let req = Request {
                    constraints: Some(&c),
                    ..Request::default()
                };
                let cfg = MlConfig::default();
                let (p, _) = recursive_ml_partition(&h, &cfg, &mut seeded_rng(seed), req)
                    .expect("valid run");
                assert!(
                    bounds.is_partition_feasible(&p),
                    "{name} k={k} seed {seed}: areas {:?} outside [{}, {}]",
                    p.part_areas(),
                    bounds.lo(0),
                    bounds.hi(0)
                );
            }
        }
    }
}
