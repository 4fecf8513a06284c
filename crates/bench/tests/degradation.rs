//! Graceful-degradation contract of deterministic budgets: a truncated run
//! returns a *valid* partition whose quality sits between the full run and
//! the unrefined initial solution. Budgets trade quality for bounded work —
//! they never corrupt the result, and spending nothing must return the
//! initial solution unchanged.
//!
//! All runs are fixed-seed, so each chain below compares the same start
//! under three effort levels: unlimited, a small move budget, and a zero
//! move budget. The flat engines keep a monotone best-so-far prefix, so
//! `full <= budgeted <= initial` holds exactly; the multilevel pipelines
//! guarantee validity and feasibility of the truncated answer (projection
//! across levels is not pointwise monotone in the coarse-level cut).
//!
//! Run with `cargo test -p mlpart-bench --test degradation`.

use mlpart_core::{
    ml_bipartition, ml_kway, Budget, BudgetMeter, MlConfig, MlKwayConfig, Request, Truncation,
};
use mlpart_fm::{fm_partition, Engine, FmConfig, RefineRequest, RefineWorkspace};
use mlpart_gen::suite;
use mlpart_hypergraph::metrics::cut;
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::Hypergraph;
use mlpart_kway::{kway_partition, KwayConfig};

fn balu() -> Hypergraph {
    suite::by_name("balu").expect("suite circuit").generate(3)
}

/// Runs one flat FM/CLIP bipartition start under `budget` and returns
/// (cut, truncation), validating the partition regardless of truncation.
fn flat_cut(
    h: &Hypergraph,
    engine: Engine,
    budget: Budget,
    seed: u64,
) -> (u64, Option<Truncation>) {
    let cfg = FmConfig {
        engine,
        ..FmConfig::default()
    };
    let mut rng = seeded_rng(seed);
    let mut meter = BudgetMeter::new(&budget);
    let req = RefineRequest {
        meter: Some(&mut meter),
        ..RefineRequest::default()
    };
    let (p, r) = fm_partition(h, &cfg, &mut rng, req).expect("valid FM input");
    assert!(p.validate(h), "budgeted result must stay a valid partition");
    assert_eq!(r.cut, cut(h, &p), "reported cut matches the partition");
    (r.cut, meter.truncation())
}

/// Same for one flat k-way quadrisection start.
fn flat4_cut(h: &Hypergraph, budget: Budget, seed: u64) -> (u64, Option<Truncation>) {
    let mut rng = seeded_rng(seed);
    let mut meter = BudgetMeter::new(&budget);
    let req = RefineRequest {
        meter: Some(&mut meter),
        ..RefineRequest::default()
    };
    let (p, r) = kway_partition(h, 4, &KwayConfig::default(), &mut rng, req).expect("valid input");
    assert!(p.validate(h), "budgeted result must stay a valid partition");
    assert_eq!(p.k(), 4);
    assert_eq!(r.cut, cut(h, &p), "reported cut matches the partition");
    (r.cut, meter.truncation())
}

fn moves(n: u64) -> Budget {
    Budget {
        max_moves: Some(n),
        ..Budget::default()
    }
}

#[test]
fn flat_engines_degrade_monotonically_with_move_budget() {
    let h = balu();
    for engine in [Engine::Fm, Engine::Clip] {
        for seed in [1, 2, 3] {
            let (full, t_full) = flat_cut(&h, engine, Budget::UNLIMITED, seed);
            let (some, t_some) = flat_cut(&h, engine, moves(60), seed);
            let (none, t_none) = flat_cut(&h, engine, moves(0), seed);
            assert!(t_full.is_none(), "unlimited run must not truncate");
            assert!(
                t_some.is_some() && t_none.is_some(),
                "{engine:?} seed {seed}: a 60/0-move budget must truncate on balu"
            );
            assert!(
                full <= some && some <= none,
                "{engine:?} seed {seed}: expected full {full} <= budgeted {some} <= initial {none}"
            );
            assert!(
                full < none,
                "{engine:?} seed {seed}: full refinement must beat the raw initial solution"
            );
        }
    }
}

#[test]
fn kway_quadrisection_degrades_monotonically_with_move_budget() {
    let h = balu();
    for seed in [1, 2, 3] {
        let (full, t_full) = flat4_cut(&h, Budget::UNLIMITED, seed);
        let (some, t_some) = flat4_cut(&h, moves(60), seed);
        let (none, t_none) = flat4_cut(&h, moves(0), seed);
        assert!(t_full.is_none(), "unlimited run must not truncate");
        assert!(
            t_some.is_some() && t_none.is_some(),
            "seed {seed}: a 60/0-move budget must truncate a 4-way balu run"
        );
        assert!(
            full <= some && some <= none,
            "seed {seed}: expected full {full} <= budgeted {some} <= initial {none}"
        );
        assert!(
            full < none,
            "seed {seed}: full refinement must beat the rebalanced random start"
        );
    }
}

/// The multilevel pipelines do not promise pointwise cut monotonicity under
/// a budget (a refined coarse solution can project worse than the raw one),
/// but a truncated V-cycle must still hand back a valid, feasible partition
/// of the *finest* hypergraph with an honest truncation record.
#[test]
fn truncated_multilevel_runs_stay_valid() {
    let h = balu();
    for seed in [1, 2] {
        for budget in [moves(0), moves(60)] {
            let cfg = MlConfig::clip().with_ratio(0.5);
            let mut rng = seeded_rng(seed);
            let mut ws = RefineWorkspace::new();
            let mut meter = BudgetMeter::new(&budget);
            let (p, r) = ml_bipartition(
                &h,
                &cfg,
                &mut rng,
                Request {
                    meter: Some(&mut meter),
                    workspace: Some(&mut ws),
                    ..Request::default()
                },
            )
            .expect("valid run");
            assert!(p.validate(&h), "seed {seed}: truncated ml result invalid");
            assert_eq!(r.cut, cut(&h, &p), "seed {seed}: reported cut honest");
            assert!(
                r.truncation.is_some(),
                "seed {seed}: tight budget must truncate the V-cycle"
            );

            let kcfg = MlKwayConfig::default();
            let mut rng = seeded_rng(seed);
            let mut meter = BudgetMeter::new(&budget);
            let (p, r) = ml_kway(
                &h,
                &kcfg,
                &mut rng,
                Request {
                    meter: Some(&mut meter),
                    workspace: Some(&mut ws),
                    ..Request::default()
                },
            )
            .expect("valid run");
            assert!(
                p.validate(&h),
                "seed {seed}: truncated ml-kway result invalid"
            );
            assert_eq!(p.k(), 4);
            assert!(
                r.truncation.is_some(),
                "seed {seed}: tight budget must truncate the k-way V-cycle"
            );
        }
    }
}
