//! End-to-end integration tests spanning every crate: generate a benchmark,
//! run the full ML pipeline, and verify the invariants a downstream user
//! relies on.

use mlpart::cluster::{induce, match_clusters, project, MatchConfig};
use mlpart::fm::refine;
use mlpart::gen::suite;
use mlpart::hypergraph::io::{read_hgr, write_hgr};
use mlpart::hypergraph::metrics;
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::place::{gordian_quadrisection, PlacerConfig};
use mlpart::{
    fm_partition, ml_bipartition, ml_kway, FmConfig, MlConfig, MlKwayConfig, PartBounds, Partition,
    RefineRequest, Request,
};

#[test]
fn full_pipeline_on_suite_circuit() {
    let circuit = suite::by_name("primary1").expect("in suite");
    let h = circuit.generate(1);
    let cfg = MlConfig::clip().with_ratio(0.5);
    let balance = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.fm.balance_r);
    let mut rng = seeded_rng(11);
    let (p, r) = ml_bipartition(&h, &cfg, &mut rng, Request::default()).expect("valid run");
    assert!(p.validate(&h));
    assert!(balance.is_partition_feasible(&p));
    assert_eq!(r.cut, metrics::cut(&h, &p));
    assert!(r.levels >= 3, "R=0.5 should build several levels");
    assert!(r.cut > 0, "connected circuit has nonzero cut");
    assert!(
        *r.level_sizes.last().expect("non-empty") <= cfg.coarsen_threshold,
        "coarsest level above T"
    );
}

#[test]
fn ml_beats_flat_fm_on_suite_circuit() {
    let circuit = suite::by_name("struct").expect("in suite");
    let h = circuit.generate(2);
    let runs = 5;
    let fm_best = (0..runs)
        .map(|s| {
            let mut rng = seeded_rng(100 + s);
            fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default())
                .unwrap()
                .1
                .cut
        })
        .min()
        .expect("runs");
    let ml_best = (0..runs)
        .map(|s| {
            let mut rng = seeded_rng(200 + s);
            ml_bipartition(&h, &MlConfig::clip(), &mut rng, Request::default())
                .expect("valid run")
                .1
                .cut
        })
        .min()
        .expect("runs");
    assert!(
        ml_best <= fm_best,
        "ML best {ml_best} should not lose to flat FM best {fm_best}"
    );
}

#[test]
fn manual_two_phase_equals_library_pieces() {
    // Build "two-phase FM" out of the public pieces (the pre-ML baseline the
    // paper describes): cluster once, induce, FM on coarse, project, FM.
    let circuit = suite::by_name("balu").expect("in suite");
    let h = circuit.generate(3);
    let mut rng = seeded_rng(7);
    let clustering = match_clusters(&h, &MatchConfig::default(), &mut rng);
    let coarse = induce(&h, &clustering).expect("clustering covers h");
    let (coarse_p, _) = fm_partition(
        &coarse,
        &FmConfig::default(),
        &mut rng,
        RefineRequest::default(),
    )
    .unwrap();
    let projected = project(&h, &clustering, &coarse_p).expect("clustering covers h");
    let projected_cut = metrics::cut(&h, &projected);
    assert_eq!(
        projected_cut,
        metrics::cut(&coarse, &coarse_p),
        "projection preserves cut"
    );
    let mut refined = projected;
    let r = refine(
        &h,
        &mut refined,
        &FmConfig::default(),
        &mut rng,
        RefineRequest::default(),
    )
    .unwrap();
    assert!(r.cut <= projected_cut, "refinement never worsens");
    assert!(refined.validate(&h));
}

#[test]
fn quadrisection_pipeline_with_pads_and_placer() {
    let circuit = suite::by_name("balu").expect("in suite");
    let (h, pads) = circuit.generate_with_pads(4);
    // Placement-derived quadrisection.
    let (gp, placement) = gordian_quadrisection(&h, &pads, &PlacerConfig::default());
    assert!(gp.validate(&h));
    assert_eq!(gp.k(), 4);
    assert!(placement.hpwl(&h) > 0.0);
    let g_cut = metrics::cut(&h, &gp);
    // Multilevel quadrisection should be at least as good (best of 3).
    let ml_best = (0..3)
        .map(|s| {
            let mut rng = seeded_rng(300 + s);
            ml_kway(&h, &MlKwayConfig::default(), &mut rng, Request::default())
                .expect("valid run")
                .1
                .cut
        })
        .min()
        .expect("runs");
    assert!(
        ml_best <= g_cut,
        "multilevel {ml_best} should not lose to placer {g_cut}"
    );
    let bal = PartBounds::from_epsilon(&h, 4, 0.2);
    let mut rng = seeded_rng(400);
    let (p, r) =
        ml_kway(&h, &MlKwayConfig::default(), &mut rng, Request::default()).expect("valid run");
    assert!(bal.is_partition_feasible(&p), "{:?}", p.part_areas());
    assert_eq!(r.cut, metrics::cut(&h, &p));
}

#[test]
fn netlist_io_roundtrip_preserves_partitioning_behaviour() {
    let circuit = suite::by_name("bm1").expect("in suite");
    let h = circuit.generate(5);
    let mut text = Vec::new();
    write_hgr(&h, &mut text).expect("serialize");
    let h2 = read_hgr(&text[..]).expect("parse");
    assert_eq!(h, h2);
    // Same seed on the identical netlist gives the identical result.
    let mut rng1 = seeded_rng(9);
    let mut rng2 = seeded_rng(9);
    let (p1, r1) =
        ml_bipartition(&h, &MlConfig::default(), &mut rng1, Request::default()).expect("valid run");
    let (p2, r2) = ml_bipartition(&h2, &MlConfig::default(), &mut rng2, Request::default())
        .expect("valid run");
    assert_eq!(p1.assignment(), p2.assignment());
    assert_eq!(r1.cut, r2.cut);
}

#[test]
fn whole_suite_generates_and_small_circuits_partition() {
    for c in suite::SUITE.iter().filter(|c| c.modules <= 1_000) {
        let h = c.generate(6);
        assert_eq!(h.num_modules(), c.modules, "{}", c.name);
        let mut rng = seeded_rng(1);
        let (p, r) = ml_bipartition(&h, &MlConfig::default(), &mut rng, Request::default())
            .expect("valid run");
        assert!(p.validate(&h), "{}", c.name);
        assert!(r.cut > 0, "{} should be connected", c.name);
    }
}

#[test]
fn partition_types_interoperate_across_crates() {
    // A Partition built by hand flows through refinement and metrics.
    let circuit = suite::by_name("balu").expect("in suite");
    let h = circuit.generate(7);
    let n = h.num_modules();
    let p0 =
        Partition::from_assignment(&h, 2, (0..n).map(|i| (i % 2) as u32).collect()).expect("valid");
    let start = metrics::cut(&h, &p0);
    let mut rng = seeded_rng(3);
    let mut p = p0;
    let r = refine(
        &h,
        &mut p,
        &FmConfig::default(),
        &mut rng,
        RefineRequest::default(),
    )
    .unwrap();
    assert!(r.cut < start, "interleaved start must improve");
    assert!(p.validate(&h));
}
