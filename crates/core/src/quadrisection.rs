//! Multilevel k-way partitioning (§III-C): the ML V-cycle with a
//! Sanchis-style k-way engine as the refiner.
//!
//! The paper extends ML to quadrisection (k = 4) for use inside a top-down
//! placement tool, and its Table IX results use `ML_F`-style refinement with
//! `R = 1.0` and `T = 100` under the sum-of-degrees gain. I/O pads
//! pre-assigned to parts go through [`Constraints`](crate::Constraints),
//! which selects the constrained schedule.

use crate::error::{expect_valid, PipelineError};
use crate::ml::{LevelStats, MlConfig};
use crate::vcycle::{Cycle, Kway, Request, Window};
use mlpart_fm::{RefineWorkspace, Truncation};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{metrics, ConstraintsError, Hypergraph, ModuleId, PartId, Partition};
use mlpart_kway::KwayConfig;

/// Configuration for multilevel k-way partitioning.
///
/// Combines the multilevel knobs (`T`, `R`, hierarchy caps — reusing
/// [`MlConfig`] fields) with the k-way engine settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlKwayConfig {
    /// Number of parts `k` (4 for quadrisection).
    pub k: u32,
    /// Coarsening threshold `T`; the paper's quadrisection uses 100.
    pub coarsen_threshold: usize,
    /// Matching ratio `R`; the paper's quadrisection uses 1.0.
    pub matching_ratio: f64,
    /// K-way refinement engine settings (gain computation, balance, limits).
    pub kway: KwayConfig,
    /// Safety cap on hierarchy depth.
    pub max_levels: usize,
}

impl Default for MlKwayConfig {
    fn default() -> Self {
        MlKwayConfig {
            k: 4,
            coarsen_threshold: 100,
            matching_ratio: 1.0,
            kway: KwayConfig::default(),
            max_levels: 256,
        }
    }
}

/// Statistics from one multilevel k-way run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlKwayResult {
    /// Final net cut over all nets.
    pub cut: u64,
    /// Final `Σ_e (span(e) − 1)`.
    pub sum_of_degrees: u64,
    /// Number of coarsening levels.
    pub levels: usize,
    /// Module counts per level, `H₀` first.
    pub level_sizes: Vec<usize>,
    /// Total k-way passes across levels.
    pub total_passes: usize,
    /// Modules moved by rebalancing during uncoarsening.
    pub rebalance_moves: usize,
    /// Per-level instrumentation in execution order (coarsest first); the
    /// `cut_*` fields carry the k-way engine objective (sum-of-degrees or
    /// net cut, per the configured gain).
    pub level_stats: Vec<LevelStats>,
    /// `Some` when a budget limit fired and the run returned its best
    /// partition so far instead of running to convergence.
    pub truncation: Option<Truncation>,
}

/// Runs the multilevel k-way (quadrisection for `k = 4`) algorithm.
///
/// With `req.constraints` the constrained schedule runs: pins never move,
/// and each level's window is `(1 ± ε)·A(V)/k` (widened to the level's
/// largest module) instead of the ratio-derived one. See [`Request`] for the
/// budget and the workspace.
///
/// # Errors
///
/// [`PipelineError::Constraints`] when `cfg.k == 0` or a pin is out of
/// range, [`PipelineError::KMismatch`] when `cfg.k` and the constraints
/// disagree, and [`PipelineError::Coarsen`] when building or projecting
/// through the hierarchy fails.
///
/// # Examples
///
/// ```
/// use mlpart_core::{ml_kway, MlKwayConfig, Request};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Four communities of 32 modules in a ring.
/// let mut b = HypergraphBuilder::with_unit_areas(128);
/// for c in 0..4usize {
///     let base = 32 * c;
///     for i in 0..32 {
///         b.add_net([base + i, base + (i + 1) % 32])?;
///         b.add_net([base + i, base + (i + 5) % 32])?;
///     }
///     b.add_net([base + 31, (base + 32) % 128])?;
/// }
/// let h = b.build()?;
/// let mut rng = seeded_rng(3);
/// let (p, r) = ml_kway(&h, &MlKwayConfig::default(), &mut rng, Request::default())?;
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// assert!(r.cut <= 8);
/// # Ok(())
/// # }
/// ```
pub fn ml_kway(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    rng: &mut MlRng,
    req: Request<'_>,
) -> Result<(Partition, MlKwayResult), PipelineError> {
    if cfg.k == 0 {
        return Err(PipelineError::Constraints(ConstraintsError::ZeroParts));
    }
    // The V-cycle's coarsening knobs: only T / R / max_levels apply.
    let ml_cfg = MlConfig {
        coarsen_threshold: cfg.coarsen_threshold,
        matching_ratio: cfg.matching_ratio,
        max_levels: cfg.max_levels,
        ..MlConfig::default()
    };
    req.with(rng, |c, cx| {
        let context = "cfg.k and constraints.k() disagree";
        let refiner = Kway {
            k: cfg.k,
            cfg: &cfg.kway,
        };
        let cycle = Cycle::checked(refiner, cfg.kway.balance_r, c, h, context, Window::Even)?;
        let (p, r) = cycle.run(h, &ml_cfg, cx)?;
        let result = MlKwayResult {
            cut: r.cut,
            sum_of_degrees: metrics::sum_of_spans_minus_one(h, &p),
            levels: r.levels,
            level_sizes: r.level_sizes,
            total_passes: r.total_passes,
            rebalance_moves: r.rebalance_moves,
            level_stats: r.level_stats,
            truncation: r.truncation,
        };
        Ok((p, result))
    })
}

/// [`ml_kway`] under the paper's schedule through a caller-owned workspace,
/// panicking on invalid input. The paper's schedule takes no pins: `fixed`
/// must be empty (pins go through [`Request::constraints`]).
///
/// # Panics
///
/// Panics if `fixed` is non-empty or where [`ml_kway`] returns an error.
pub fn ml_kway_in(
    h: &Hypergraph,
    cfg: &MlKwayConfig,
    fixed: &[(ModuleId, PartId)],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, MlKwayResult) {
    let req = Request {
        workspace: Some(ws),
        ..Request::default()
    };
    expect_valid(if fixed.is_empty() {
        ml_kway(h, cfg, rng, req)
    } else {
        Err(PipelineError::Unsupported(
            "the paper schedule takes no pins; pass them as constraints",
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_fm::{Budget, BudgetLimit, BudgetMeter, RefineRequest};
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{Constraints, HypergraphBuilder, PartBounds};
    use mlpart_kway::kway_partition;

    /// Four communities in a ring; optimum quadrisection cuts the 4 bridges.
    fn four_communities(size: usize) -> Hypergraph {
        let n = 4 * size;
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for c in 0..4usize {
            let base = size * c;
            for i in 0..size {
                b.add_net([base + i, base + (i + 1) % size]).unwrap();
                b.add_net([base + i, base + (i + 5) % size]).unwrap();
            }
            b.add_net([base + size - 1, (base + size) % n]).unwrap();
        }
        b.build().unwrap()
    }

    fn kway(h: &Hypergraph, cfg: &MlKwayConfig, seed: u64) -> (Partition, MlKwayResult) {
        ml_kway(h, cfg, &mut seeded_rng(seed), Request::default()).unwrap()
    }

    fn pinned(h: &Hypergraph, c: &Constraints, seed: u64) -> (Partition, MlKwayResult) {
        let req = Request {
            constraints: Some(c),
            ..Request::default()
        };
        ml_kway(h, &MlKwayConfig::default(), &mut seeded_rng(seed), req).unwrap()
    }

    #[test]
    fn finds_low_cut_quadrisection() {
        let h = four_communities(50);
        let cfg = MlKwayConfig::default();
        let best = (0..5).map(|s| kway(&h, &cfg, s).1.cut).min().unwrap();
        assert!(best <= 8, "best={best}");
    }

    #[test]
    fn result_is_feasible_and_consistent() {
        let h = four_communities(60);
        let cfg = MlKwayConfig::default();
        let bal = PartBounds::from_epsilon(&h, 4, 2.0 * cfg.kway.balance_r);
        let (p, r) = kway(&h, &cfg, 2);
        assert!(p.validate(&h));
        assert!(bal.is_partition_feasible(&p), "{:?}", p.part_areas());
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert_eq!(r.sum_of_degrees, metrics::sum_of_spans_minus_one(&h, &p));
        assert_eq!(r.level_sizes.len(), r.levels + 1);
    }

    #[test]
    fn multilevel_beats_flat_kway_on_average() {
        let h = four_communities(64);
        let runs = 4;
        let flat_avg: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(3000 + s);
                kway_partition(
                    &h,
                    4,
                    &KwayConfig::default(),
                    &mut rng,
                    RefineRequest::default(),
                )
                .unwrap()
                .1
                .cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        let ml_avg: f64 = (0..runs)
            .map(|s| kway(&h, &MlKwayConfig::default(), 4000 + s).1.cut as f64)
            .sum::<f64>()
            / runs as f64;
        assert!(
            ml_avg <= flat_avg,
            "ML 4-way avg {ml_avg} should not exceed flat avg {flat_avg}"
        );
    }

    #[test]
    fn k2_multilevel_works() {
        let h = four_communities(32);
        let cfg = MlKwayConfig {
            k: 2,
            ..MlKwayConfig::default()
        };
        let (p, r) = kway(&h, &cfg, 8);
        assert_eq!(p.k(), 2);
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    /// With audits forced on, every k-way projection boundary is checked.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_hooks_fire_on_healthy_run() {
        mlpart_audit::force_enabled(true);
        let h = four_communities(50); // 200 modules > T = 100, so m >= 1
        let (p, r) = kway(&h, &MlKwayConfig::default(), 12);
        mlpart_audit::force_enabled(false);
        assert!(r.levels >= 1, "need at least one projection to audit");
        assert!(p.validate(&h));
    }

    #[test]
    fn deterministic_given_seed() {
        let h = four_communities(40);
        let (p1, r1) = kway(&h, &MlKwayConfig::default(), 6);
        let (p2, r2) = kway(&h, &MlKwayConfig::default(), 6);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn budgeted_kway_truncates_and_stays_feasible() {
        let h = four_communities(60);
        let cfg = MlKwayConfig::default();
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(1),
            ..Budget::default()
        });
        let req = Request {
            meter: Some(&mut meter),
            ..Request::default()
        };
        let (p, r) = ml_kway(&h, &cfg, &mut seeded_rng(14), req).unwrap();
        let t = r
            .truncation
            .expect("one pass cannot finish a k-way V-cycle");
        assert_eq!(t.limit, BudgetLimit::Passes);
        assert!(r.total_passes <= 1);
        assert!(p.validate(&h));
        let bal = PartBounds::from_epsilon(&h, 4, 2.0 * cfg.kway.balance_r);
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    #[test]
    fn workspace_wrapper_matches_entry_point() {
        let h = four_communities(40);
        let cfg = MlKwayConfig::default();
        let mut ws = RefineWorkspace::new();
        let (p1, r1) = ml_kway_in(&h, &cfg, &[], &mut seeded_rng(4), &mut ws);
        let (p2, r2) = kway(&h, &cfg, 4);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "the paper schedule takes no pins")]
    fn workspace_wrapper_rejects_pins() {
        let h = four_communities(10);
        let pins = [(ModuleId::new(0), 1)];
        let mut ws = RefineWorkspace::new();
        let _ = ml_kway_in(
            &h,
            &MlKwayConfig::default(),
            &pins,
            &mut seeded_rng(0),
            &mut ws,
        );
    }

    #[test]
    fn constrained_kway_honors_pins_across_seeds() {
        let h = four_communities(50);
        let pins = vec![
            (ModuleId::new(0), 3),   // against the natural quadrant
            (ModuleId::new(75), 1),  // with it
            (ModuleId::new(120), 0), // against
        ];
        let c = Constraints::new(4, 0.2, pins).unwrap();
        let bounds = c.bounds(&h);
        for seed in 0..4 {
            let (p, r) = pinned(&h, &c, seed);
            assert!(p.validate(&h));
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
            assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn constrained_kway_without_pins_finds_low_cut() {
        let h = four_communities(50);
        let c = Constraints::unconstrained(4);
        let best = (0..5).map(|s| pinned(&h, &c, s).1.cut).min().unwrap();
        assert!(best <= 12, "best={best}");
    }

    #[test]
    fn constrained_kway_is_deterministic_given_seed() {
        let h = four_communities(40);
        let c = Constraints::new(4, 0.1, vec![(ModuleId::new(7), 2)]).unwrap();
        let (p1, r1) = pinned(&h, &c, 11);
        let (p2, r2) = pinned(&h, &c, 11);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn constrained_kway_rejects_mismatched_k() {
        let h = four_communities(10);
        let c = Constraints::unconstrained(8);
        let req = Request {
            constraints: Some(&c),
            ..Request::default()
        };
        let err = ml_kway(&h, &MlKwayConfig::default(), &mut seeded_rng(0), req).unwrap_err();
        assert!(err
            .to_string()
            .contains("cfg.k and constraints.k() disagree"));
    }
}
