//! The paper's headline qualitative results, asserted as tests on small
//! synthetic circuits so `cargo test` itself validates the reproduction:
//!
//! * Table II: LIFO buckets beat FIFO buckets.
//! * Table III: CLIP beats FM on average.
//! * Table IV: multilevel beats flat iterative improvement.
//! * Tables V/VI: smaller matching ratio ⇒ more hierarchy levels, no
//!   quality loss.
//! * Table IX: multilevel quadrisection beats the placement-derived split.

use mlpart::gen::suite;
use mlpart::hypergraph::metrics;
use mlpart::hypergraph::rng::seeded_rng;
use mlpart::place::{gordian_quadrisection, PlacerConfig};
use mlpart::{
    fm_partition, ml_bipartition, ml_kway, BucketPolicy, Engine, FmConfig, MlConfig, MlKwayConfig,
    RefineRequest, Request,
};

const RUNS: u64 = 8;

fn avg_cut(h: &mlpart::Hypergraph, cfg: &FmConfig, seed_base: u64) -> f64 {
    (0..RUNS)
        .map(|s| {
            let mut rng = seeded_rng(seed_base + s);
            fm_partition(h, cfg, &mut rng, RefineRequest::default())
                .unwrap()
                .1
                .cut as f64
        })
        .sum::<f64>()
        / RUNS as f64
}

#[test]
fn table2_shape_lifo_beats_fifo() {
    let h = suite::by_name("primary1").expect("in suite").generate(42);
    let lifo = avg_cut(&h, &FmConfig::default(), 100);
    let fifo = avg_cut(
        &h,
        &FmConfig {
            policy: BucketPolicy::Fifo,
            ..FmConfig::default()
        },
        200,
    );
    assert!(
        lifo < fifo * 0.9,
        "LIFO avg {lifo:.1} should clearly beat FIFO avg {fifo:.1}"
    );
}

#[test]
fn table3_shape_clip_beats_fm() {
    let h = suite::by_name("primary2").expect("in suite").generate(42);
    let fm = avg_cut(&h, &FmConfig::default(), 300);
    let clip = avg_cut(
        &h,
        &FmConfig {
            engine: Engine::Clip,
            ..FmConfig::default()
        },
        400,
    );
    assert!(clip < fm, "CLIP avg {clip:.1} should beat FM avg {fm:.1}");
}

#[test]
fn table4_shape_multilevel_beats_flat() {
    let h = suite::by_name("primary2").expect("in suite").generate(42);
    let clip_avg = avg_cut(
        &h,
        &FmConfig {
            engine: Engine::Clip,
            ..FmConfig::default()
        },
        500,
    );
    let ml_avg = (0..RUNS)
        .map(|s| {
            let mut rng = seeded_rng(600 + s);
            ml_bipartition(&h, &MlConfig::clip(), &mut rng, Request::default())
                .expect("valid run")
                .1
                .cut as f64
        })
        .sum::<f64>()
        / RUNS as f64;
    assert!(
        ml_avg < clip_avg,
        "ML_C avg {ml_avg:.1} should beat flat CLIP avg {clip_avg:.1}"
    );
}

#[test]
fn table5_shape_matching_ratio_controls_levels() {
    let h = suite::by_name("primary2").expect("in suite").generate(42);
    let levels_at = |ratio: f64| {
        let mut rng = seeded_rng(1);
        ml_bipartition(
            &h,
            &MlConfig::default().with_ratio(ratio),
            &mut rng,
            Request::default(),
        )
        .expect("valid run")
        .1
        .levels
    };
    let full = levels_at(1.0);
    let half = levels_at(0.5);
    let third = levels_at(0.33);
    assert!(half > full, "R=0.5 levels {half} vs R=1 levels {full}");
    assert!(
        third >= half,
        "R=0.33 levels {third} vs R=0.5 levels {half}"
    );
}

#[test]
fn table5_shape_slow_coarsening_preserves_quality() {
    let h = suite::by_name("19ks").expect("in suite").generate(42);
    let avg_at = |ratio: f64, base: u64| {
        (0..RUNS)
            .map(|s| {
                let mut rng = seeded_rng(base + s);
                ml_bipartition(
                    &h,
                    &MlConfig::clip().with_ratio(ratio),
                    &mut rng,
                    Request::default(),
                )
                .expect("valid run")
                .1
                .cut as f64
            })
            .sum::<f64>()
            / RUNS as f64
    };
    let at_full = avg_at(1.0, 700);
    let at_half = avg_at(0.5, 800);
    assert!(
        at_half <= at_full * 1.1,
        "R=0.5 avg {at_half:.1} should not degrade vs R=1 avg {at_full:.1}"
    );
}

#[test]
fn table9_shape_multilevel_beats_placer_quadrisection() {
    let (h, pads) = suite::by_name("primary1")
        .expect("in suite")
        .generate_with_pads(42);
    let (gp, _) = gordian_quadrisection(&h, &pads, &PlacerConfig::default());
    let gordian_cut = metrics::cut(&h, &gp);
    let ml_best = (0..4)
        .map(|s| {
            let mut rng = seeded_rng(900 + s);
            ml_kway(&h, &MlKwayConfig::default(), &mut rng, Request::default())
                .expect("valid run")
                .1
                .cut
        })
        .min()
        .expect("runs");
    assert!(
        ml_best < gordian_cut,
        "ML quadrisection {ml_best} should beat GORDIAN-style {gordian_cut}"
    );
}
