//! One-call wrappers around every algorithm the tables compare, so each
//! harness binary stays declarative.
//!
//! Every wrapper with an `_in` twin runs through a caller-owned
//! [`RefineWorkspace`]; results are bit-identical either way, so the
//! parallel runner can hand each worker thread one long-lived workspace
//! without changing any table number.

use mlpart_core::{
    ml_bipartition, ml_kway, recursive_ml_partition, MlConfig, MlKwayConfig, Request,
};
use mlpart_fm::{fm_partition, BucketPolicy, Engine, FmConfig, RefineRequest, RefineWorkspace};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{Constraints, Hypergraph, ModuleId, Partition};
use mlpart_kway::{kway_partition, KwayConfig};
use mlpart_lsmc::{lsmc_bipartition, lsmc_kway, LsmcConfig, LsmcKwayConfig};
use mlpart_place::{gordian_quadrisection, PlacerConfig};

/// Flat FM with the given bucket policy through a caller-owned workspace;
/// returns the cut.
pub fn fm_with_policy_in(
    h: &Hypergraph,
    policy: BucketPolicy,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> u64 {
    let cfg = FmConfig {
        policy,
        ..FmConfig::default()
    };
    let (_, r) = fm_partition(h, &cfg, rng, RefineRequest::reusing(ws)).expect("valid FM input");
    r.cut
}

/// Flat FM (LIFO buckets); Table III baseline.
pub fn fm(h: &Hypergraph, rng: &mut MlRng) -> u64 {
    fm_in(h, rng, &mut RefineWorkspace::new())
}

/// [`fm`] through a caller-owned workspace.
pub fn fm_in(h: &Hypergraph, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    fm_with_policy_in(h, BucketPolicy::Lifo, rng, ws)
}

/// Flat CLIP (LIFO buckets); Tables III/IV baseline.
pub fn clip(h: &Hypergraph, rng: &mut MlRng) -> u64 {
    clip_in(h, rng, &mut RefineWorkspace::new())
}

/// [`clip`] through a caller-owned workspace.
pub fn clip_in(h: &Hypergraph, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    let cfg = FmConfig {
        engine: Engine::Clip,
        ..FmConfig::default()
    };
    let (_, r) = fm_partition(h, &cfg, rng, RefineRequest::reusing(ws)).expect("valid FM input");
    r.cut
}

/// A paper-schedule request through `ws`.
pub fn reusing(ws: &mut RefineWorkspace) -> Request<'_> {
    Request {
        workspace: Some(ws),
        ..Request::default()
    }
}

/// The cut of an ML bisection run through `ws`.
///
/// # Panics
///
/// Panics on invalid input; the harness's inputs are valid by construction.
pub fn ml_cut_in(h: &Hypergraph, cfg: &MlConfig, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    let (_, r) = ml_bipartition(h, cfg, rng, reusing(ws)).expect("valid ML input");
    r.cut
}

/// `ML_F` with matching ratio `r`.
pub fn ml_f(h: &Hypergraph, r: f64, rng: &mut MlRng) -> u64 {
    ml_f_in(h, r, rng, &mut RefineWorkspace::new())
}

/// [`ml_f`] through a caller-owned workspace.
pub fn ml_f_in(h: &Hypergraph, r: f64, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    ml_cut_in(h, &MlConfig::fm().with_ratio(r), rng, ws)
}

/// `ML_C` with matching ratio `r`.
pub fn ml_c(h: &Hypergraph, r: f64, rng: &mut MlRng) -> u64 {
    ml_c_in(h, r, rng, &mut RefineWorkspace::new())
}

/// [`ml_c`] through a caller-owned workspace.
pub fn ml_c_in(h: &Hypergraph, r: f64, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    ml_cut_in(h, &MlConfig::clip().with_ratio(r), rng, ws)
}

/// 2-way LSMC with FM descents, `descents` long; Table VII baseline. (The
/// chain reuses one workspace of its own across its descents; parallel
/// callers pass it a closure that ignores the worker workspace.)
pub fn lsmc(h: &Hypergraph, descents: usize, rng: &mut MlRng) -> u64 {
    let cfg = LsmcConfig {
        descents,
        ..LsmcConfig::default()
    };
    let (_, r) = lsmc_bipartition(h, &cfg, rng).expect("valid LSMC input");
    r.cut
}

/// Flat 4-way FM-style engine (net-cut gain); Table IX baseline.
pub fn fm4(h: &Hypergraph, rng: &mut MlRng) -> u64 {
    fm4_in(h, rng, &mut RefineWorkspace::new())
}

/// [`fm4`] through a caller-owned workspace.
pub fn fm4_in(h: &Hypergraph, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    let cfg = KwayConfig::default();
    let (_, r) =
        kway_partition(h, 4, &cfg, rng, RefineRequest::reusing(ws)).expect("valid k-way input");
    r.cut
}

/// Flat 4-way with LIFO buckets seeded like CLIP is not defined for the
/// k-way engine; the paper's 4-way "CLIP" column is approximated by the
/// k-way engine with net-cut gain (its selectivity behaves similarly).
pub fn clip4(h: &Hypergraph, rng: &mut MlRng) -> u64 {
    clip4_in(h, rng, &mut RefineWorkspace::new())
}

/// [`clip4`] through a caller-owned workspace.
pub fn clip4_in(h: &Hypergraph, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    let cfg = KwayConfig {
        gain: mlpart_kway::KwayGain::NetCut,
        ..KwayConfig::default()
    };
    let (_, r) =
        kway_partition(h, 4, &cfg, rng, RefineRequest::reusing(ws)).expect("valid k-way input");
    r.cut
}

/// 4-way LSMC with the default (sum-of-degrees) descent engine.
pub fn lsmc4_f(h: &Hypergraph, descents: usize, rng: &mut MlRng) -> u64 {
    let cfg = LsmcKwayConfig {
        descents,
        ..LsmcKwayConfig::default()
    };
    let (_, r) = lsmc_kway(h, 4, &cfg, rng).expect("valid LSMC input");
    r.cut
}

/// 4-way LSMC with the net-cut descent engine.
pub fn lsmc4_c(h: &Hypergraph, descents: usize, rng: &mut MlRng) -> u64 {
    let cfg = LsmcKwayConfig {
        descents,
        kway: KwayConfig {
            gain: mlpart_kway::KwayGain::NetCut,
            ..KwayConfig::default()
        },
        ..LsmcKwayConfig::default()
    };
    let (_, r) = lsmc_kway(h, 4, &cfg, rng).expect("valid LSMC input");
    r.cut
}

/// Multilevel quadrisection (`ML_F`, `R = 1.0`, `T = 100`); the Table IX
/// headline algorithm.
pub fn ml4(h: &Hypergraph, rng: &mut MlRng) -> u64 {
    ml4_in(h, rng, &mut RefineWorkspace::new())
}

/// [`ml4`] through a caller-owned workspace.
pub fn ml4_in(h: &Hypergraph, rng: &mut MlRng, ws: &mut RefineWorkspace) -> u64 {
    kway_cut_in(h, &MlKwayConfig::default(), rng, ws)
}

/// The cut of an ML k-way run through `ws`.
///
/// # Panics
///
/// Panics on invalid input; the harness's inputs are valid by construction.
pub fn kway_cut_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> u64 {
    let (_, r) = ml_kway(h, cfg, rng, reusing(ws)).expect("valid k-way input");
    r.cut
}

/// Constraint-aware ML for `constraints.k()` parts, dispatched like the
/// CLI: `ML_C` bisection with matching ratio `r` at k = 2, direct
/// quadrisection (`T = 100`, `R = 1`) at k = 4, and recursive `ML_C`
/// bisection with ratio `r` otherwise.
///
/// # Panics
///
/// Panics if a pinned module ended up off its pin — the bench harness's
/// cheap end-to-end check that the constrained schedule honors fixed
/// terminals even in release builds (the audit layer is compiled out here).
pub fn ml_constrained_in(
    h: &Hypergraph,
    r: f64,
    constraints: &Constraints,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> u64 {
    let req = Request {
        constraints: Some(constraints),
        workspace: Some(ws),
        meter: None,
    };
    let cfg = MlConfig::clip().with_ratio(r);
    let (p, cut): (Partition, u64) = match constraints.k() {
        2 => ml_bipartition(h, &cfg, rng, req).map(|(p, r)| (p, r.cut)),
        4 => ml_kway(h, &MlKwayConfig::default(), rng, req).map(|(p, r)| (p, r.cut)),
        _ => recursive_ml_partition(h, &cfg, rng, req).map(|(p, r)| (p, r.cut)),
    }
    .expect("valid constraints");
    for &(v, part) in constraints.fixed() {
        assert_eq!(p.part(v), part, "pinned module {v:?} moved off part {part}");
    }
    cut
}

/// GORDIAN-style quadrisection via quadratic placement; deterministic, so
/// harnesses call it once per circuit. Returns (GORDIAN cut, GORDIAN-L cut);
/// the paper's Table IX reports the better of the two.
pub fn gordian_cuts(h: &Hypergraph, pads: &[ModuleId]) -> (u64, u64) {
    let (p_quad, _) = gordian_quadrisection(h, pads, &PlacerConfig::default());
    let (p_lin, _) = gordian_quadrisection(h, pads, &PlacerConfig::gordian_l());
    (
        mlpart_hypergraph::metrics::cut(h, &p_quad),
        mlpart_hypergraph::metrics::cut(h, &p_lin),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_gen::simple::two_communities;
    use mlpart_hypergraph::rng::seeded_rng;

    #[test]
    fn all_bipartitioners_run_and_return_consistent_cuts() {
        let h = two_communities(32);
        let mut rng = seeded_rng(1);
        for f in [fm, clip] {
            let cut = f(&h, &mut rng);
            assert!(cut >= 1);
        }
        assert!(ml_f(&h, 1.0, &mut rng) >= 1);
        assert!(ml_c(&h, 0.5, &mut rng) >= 1);
        assert!(lsmc(&h, 3, &mut rng) >= 1);
    }

    #[test]
    fn all_quadrisectioners_run() {
        let h = two_communities(32);
        let mut rng = seeded_rng(2);
        assert!(fm4(&h, &mut rng) >= 1);
        assert!(clip4(&h, &mut rng) >= 1);
        assert!(lsmc4_f(&h, 2, &mut rng) >= 1);
        assert!(lsmc4_c(&h, 2, &mut rng) >= 1);
        assert!(ml4(&h, &mut rng) >= 1);
    }

    #[test]
    fn workspace_variants_are_bit_identical_under_reuse() {
        // One workspace reused across every `_in` wrapper in sequence must
        // reproduce the fresh-workspace wrappers on identical seed streams.
        let h = two_communities(32);
        let mut ws = RefineWorkspace::new();
        let fresh: Vec<u64> = {
            let mut rng = seeded_rng(9);
            vec![
                fm(&h, &mut rng),
                clip(&h, &mut rng),
                ml_f(&h, 0.5, &mut rng),
                ml_c(&h, 0.5, &mut rng),
                fm4(&h, &mut rng),
                clip4(&h, &mut rng),
                ml4(&h, &mut rng),
            ]
        };
        let reused: Vec<u64> = {
            let mut rng = seeded_rng(9);
            vec![
                fm_in(&h, &mut rng, &mut ws),
                clip_in(&h, &mut rng, &mut ws),
                ml_f_in(&h, 0.5, &mut rng, &mut ws),
                ml_c_in(&h, 0.5, &mut rng, &mut ws),
                fm4_in(&h, &mut rng, &mut ws),
                clip4_in(&h, &mut rng, &mut ws),
                ml4_in(&h, &mut rng, &mut ws),
            ]
        };
        assert_eq!(fresh, reused);
    }

    #[test]
    fn constrained_wrappers_run_at_every_k() {
        let h = two_communities(32);
        let mut ws = RefineWorkspace::new();
        let mut rng = seeded_rng(5);
        let pins = |k: u32| vec![(ModuleId::new(0), k - 1), (ModuleId::new(40), 0)];
        let c2 = Constraints::new(2, 0.2, pins(2)).expect("valid");
        assert!(ml_constrained_in(&h, 0.5, &c2, &mut rng, &mut ws) >= 1);
        let c4 = Constraints::new(4, 0.2, pins(4)).expect("valid");
        assert!(ml_constrained_in(&h, 0.5, &c4, &mut rng, &mut ws) >= 1);
        let c8 = Constraints::new(8, 0.2, pins(8)).expect("valid");
        assert!(ml_constrained_in(&h, 0.5, &c8, &mut rng, &mut ws) >= 1);
    }

    #[test]
    fn gordian_wrapper_runs() {
        let h = two_communities(32);
        let pads = vec![
            ModuleId::new(0),
            ModuleId::new(33),
            ModuleId::new(16),
            ModuleId::new(50),
        ];
        let (g, gl) = gordian_cuts(&h, &pads);
        assert!(g >= 1);
        assert!(gl >= 1);
    }
}
