//! The ML multilevel bipartitioning algorithm (paper Fig. 2).
//!
//! ```text
//! 1. i = 0
//! 2. while |Vᵢ| > T:
//! 3.     Pᵏ   = Match(Hᵢ, R)
//! 4.     Hᵢ₊₁ = Induce(Hᵢ, Pᵏ)
//! 5.     i = i + 1
//! 6. m = i;  Pₘ = FMPartition(Hₘ, NULL)
//! 7. for i = m−1 downto 0:
//! 8.     Pᵢ = Project(Hᵢ₊₁, Pᵢ₊₁)
//! 9.     Pᵢ = FMPartition(Hᵢ, Pᵢ)
//! 10. return P₀
//! ```
//!
//! Projection may leave the finer level infeasible because `A(v*)` shrinks
//! during uncoarsening; §III-B prescribes rebalancing by random moves from
//! the larger side, which happens between steps 8 and 9.

use crate::error::{expect_valid, PipelineError};
use crate::vcycle::{Bisect, Cycle, Request, Window};
use mlpart_fm::{Engine, FmConfig, PassStats, RefineWorkspace, Truncation};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{Hypergraph, Partition, DEFAULT_EPSILON};

/// Per-level instrumentation of a multilevel run, collected during
/// uncoarsening (and for the coarsest-level initial partitioning).
///
/// The `cut_*` fields are the refinement engine's objective over
/// engine-visible nets (nets over `max_net_size` excluded) — for the k-way
/// engine under sum-of-degrees gain they are `Σ (span − 1)`, not the net
/// cut.
#[derive(Debug, Clone, Copy, Eq)]
pub struct LevelStats {
    /// Hierarchy level: `m` is the coarsest, `0` the original netlist.
    pub level: usize,
    /// Modules in this level's netlist.
    pub modules: usize,
    /// Engine objective entering refinement (after projection and any
    /// rebalancing).
    pub cut_before: u64,
    /// Engine objective after refinement.
    pub cut_after: u64,
    /// Moves attempted across this level's passes (before rollback).
    pub attempted_moves: u64,
    /// Moves kept across this level's passes (after rollback).
    pub kept_moves: u64,
    /// Modules moved by §III-B rebalancing to restore feasibility after
    /// projection to this level.
    pub rebalance_moves: usize,
    /// Refinement passes run at this level.
    pub passes: usize,
    /// Candidates this level's selections checked for feasibility, summed
    /// over its passes ([`PassStats::inspected`]).
    pub inspected: u64,
    /// Gain updates this level's moves made, summed over its passes
    /// ([`PassStats::updates`]).
    pub updates: u64,
    /// Wall-clock nanoseconds spent rebuilding gains and filling buckets,
    /// summed over this level's passes. Excluded from equality so
    /// fixed-seed runs compare equal.
    pub fill_time_ns: u64,
}

/// Equality ignores `fill_time_ns` (wall-clock noise), mirroring
/// [`PassStats`].
impl PartialEq for LevelStats {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level
            && self.modules == other.modules
            && self.cut_before == other.cut_before
            && self.cut_after == other.cut_after
            && self.attempted_moves == other.attempted_moves
            && self.kept_moves == other.kept_moves
            && self.rebalance_moves == other.rebalance_moves
            && self.passes == other.passes
            && self.inspected == other.inspected
            && self.updates == other.updates
    }
}

impl LevelStats {
    /// Aggregates one level's pass trajectory into a level summary.
    pub(crate) fn from_passes(
        level: usize,
        modules: usize,
        passes: &[PassStats],
        rebalance_moves: usize,
    ) -> LevelStats {
        LevelStats {
            level,
            modules,
            cut_before: passes.first().map_or(0, |s| s.cut_before),
            cut_after: passes.last().map_or(0, |s| s.cut_after),
            attempted_moves: passes.iter().map(|s| s.attempted_moves as u64).sum(),
            kept_moves: passes.iter().map(|s| s.kept_moves as u64).sum(),
            rebalance_moves,
            passes: passes.len(),
            inspected: passes.iter().map(|s| s.inspected).sum(),
            updates: passes.iter().map(|s| s.updates).sum(),
            fill_time_ns: passes.iter().map(|s| s.fill_time_ns).sum(),
        }
    }
}

/// Configuration of the ML algorithm.
///
/// The defaults reproduce the paper's main experiments: `T = 35`, `R = 1.0`
/// (vary `R` to regenerate Tables V/VI and Fig. 4), FM refinement with LIFO
/// buckets and `r = 0.1`. Use `fm.engine = Engine::Clip` for the `ML_C`
/// variant.
///
/// # Examples
///
/// ```
/// use mlpart_core::MlConfig;
/// use mlpart_fm::Engine;
///
/// let ml_c = MlConfig::clip().with_ratio(0.5);
/// assert_eq!(ml_c.fm.engine, Engine::Clip);
/// assert_eq!(ml_c.matching_ratio, 0.5);
/// assert_eq!(ml_c.coarsen_threshold, 35);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlConfig {
    /// Coarsening threshold `T`: coarsen while `|Vᵢ| > T`. The paper uses 35
    /// for bipartitioning and 100 for quadrisection.
    pub coarsen_threshold: usize,
    /// Matching ratio `R ∈ (0, 1]` controlling coarsening speed (§III-A).
    pub matching_ratio: f64,
    /// Refinement engine configuration (engine, buckets, balance, net limit).
    pub fm: FmConfig,
    /// Safety cap on the number of hierarchy levels.
    pub max_levels: usize,
    /// Ablation knob: which matching algorithm coarsens (default: the
    /// paper's `Match`).
    pub coarsener: crate::hierarchy::Coarsener,
    /// Number of parts `k`, kept for callers that describe a constrained
    /// run in one value. The pipelines read `k` from
    /// [`Constraints`](crate::Constraints), never from here.
    pub k: u32,
    /// Balance tolerance ε, kept like [`k`](Self::k); the pipelines read ε
    /// from [`Constraints`](crate::Constraints). The default ε = 0.2 equals
    /// `2r` for the paper's `r = 0.1`.
    pub epsilon: f64,
}

impl Default for MlConfig {
    fn default() -> Self {
        MlConfig {
            coarsen_threshold: 35,
            matching_ratio: 1.0,
            fm: FmConfig::default(),
            max_levels: 256,
            coarsener: crate::hierarchy::Coarsener::PaperMatch,
            k: 2,
            epsilon: DEFAULT_EPSILON,
        }
    }
}

impl MlConfig {
    /// The `ML_F` variant: FM refinement (the default).
    pub fn fm() -> Self {
        MlConfig::default()
    }

    /// The `ML_C` variant: CLIP refinement.
    pub fn clip() -> Self {
        MlConfig {
            fm: FmConfig {
                engine: Engine::Clip,
                ..FmConfig::default()
            },
            ..MlConfig::default()
        }
    }

    /// Returns a copy with the given matching ratio `R`.
    pub fn with_ratio(mut self, ratio: f64) -> Self {
        self.matching_ratio = ratio;
        self
    }

    /// Returns a copy with the given coarsening threshold `T`.
    pub fn with_threshold(mut self, t: usize) -> Self {
        self.coarsen_threshold = t;
        self
    }

    /// Returns a copy with the given part count `k` (see [`k`](Self::k)).
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Returns a copy with the given balance tolerance ε (see
    /// [`epsilon`](Self::epsilon)).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }
}

/// Statistics from one ML run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlResult {
    /// Final cut of the returned bipartition (all nets counted).
    pub cut: u64,
    /// Number of coarsening levels `m`.
    pub levels: usize,
    /// Module counts `|V₀| … |Vₘ|`.
    pub level_sizes: Vec<usize>,
    /// Total FM passes across all levels.
    pub total_passes: usize,
    /// Modules moved by §III-B rebalancing during uncoarsening.
    pub rebalance_moves: usize,
    /// Per-level instrumentation in execution order: the coarsest level's
    /// initial partitioning (from the winning try) first, then each
    /// uncoarsening level down to the original netlist.
    pub level_stats: Vec<LevelStats>,
    /// `Some` when a budget limit fired and the run returned its best
    /// partition so far instead of running to convergence; `None` for
    /// unlimited (or untruncated) runs.
    pub truncation: Option<Truncation>,
}

/// Runs the ML multilevel bipartitioning algorithm of Fig. 2.
///
/// Returns the refined bipartition `P₀` of `h` and run statistics. With
/// `req.constraints` the constrained schedule runs instead of the paper's:
/// pins keep their side through every level, and each level's window is
/// `A(V)/2 ± ε` (widened to the level's largest module) instead of the
/// ratio-derived §III-B window. See [`Request`] for the budget and the
/// workspace, and the crate-level example for a call.
///
/// # Errors
///
/// [`PipelineError::KMismatch`] when the constraints are not 2-way,
/// [`PipelineError::Constraints`] when a pin is out of range, and
/// [`PipelineError::Coarsen`] when building or projecting through the
/// hierarchy fails.
pub fn ml_bipartition(
    h: &Hypergraph,
    cfg: &MlConfig,
    rng: &mut MlRng,
    req: Request<'_>,
) -> Result<(Partition, MlResult), PipelineError> {
    req.with(rng, |c, cx| {
        let context = "bipartition requires k = 2";
        let r = cfg.fm.balance_r;
        Cycle::checked(Bisect(&cfg.fm), r, c, h, context, Window::halves(h))?.run(h, cfg, cx)
    })
}

/// [`ml_bipartition`] under the paper's schedule through a caller-owned
/// workspace, panicking on invalid input.
///
/// # Panics
///
/// Panics where [`ml_bipartition`] returns an error.
pub fn ml_bipartition_in(
    h: &Hypergraph,
    cfg: &MlConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, MlResult) {
    let req = Request {
        workspace: Some(ws),
        ..Request::default()
    };
    expect_valid(ml_bipartition(h, cfg, rng, req))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_fm::{fm_partition, BucketPolicy, Budget, BudgetLimit, BudgetMeter, RefineRequest};
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{metrics, Constraints, HypergraphBuilder, ModuleId, PartBounds};

    /// Two communities of size `half`, internally ring+chords, one bridge.
    fn two_communities(half: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(2 * half);
        for base in [0, half] {
            for i in 0..half {
                b.add_net([base + i, base + (i + 1) % half]).unwrap();
                b.add_net([base + i, base + (i + 3) % half]).unwrap();
            }
        }
        b.add_net([half - 1, half]).unwrap();
        b.build().unwrap()
    }

    fn ml(h: &Hypergraph, cfg: &MlConfig, seed: u64) -> (Partition, MlResult) {
        ml_bipartition(h, cfg, &mut seeded_rng(seed), Request::default()).unwrap()
    }

    fn pinned(h: &Hypergraph, cfg: &MlConfig, c: &Constraints, seed: u64) -> (Partition, MlResult) {
        let req = Request {
            constraints: Some(c),
            ..Request::default()
        };
        ml_bipartition(h, cfg, &mut seeded_rng(seed), req).unwrap()
    }

    fn budgeted(
        h: &Hypergraph,
        cfg: &MlConfig,
        budget: &Budget,
        seed: u64,
    ) -> (Partition, MlResult) {
        let mut meter = BudgetMeter::new(budget);
        let req = Request {
            meter: Some(&mut meter),
            ..Request::default()
        };
        ml_bipartition(h, cfg, &mut seeded_rng(seed), req).unwrap()
    }

    #[test]
    fn finds_community_cut() {
        let h = two_communities(64);
        for cfg in [MlConfig::default(), MlConfig::clip()] {
            let best = (0..5).map(|s| ml(&h, &cfg, s).1.cut).min().unwrap();
            assert!(best <= 2, "best={best}");
        }
    }

    #[test]
    fn result_is_feasible_and_consistent() {
        let h = two_communities(100);
        let cfg = MlConfig::default();
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.fm.balance_r);
        for seed in 0..3 {
            let (p, r) = ml(&h, &cfg, seed);
            assert!(p.validate(&h));
            assert!(bal.is_partition_feasible(&p), "{:?}", p.part_areas());
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert_eq!(r.level_sizes.len(), r.levels + 1);
            assert_eq!(r.level_sizes[0], h.num_modules());
            assert!(*r.level_sizes.last().unwrap() <= cfg.coarsen_threshold);
        }
    }

    #[test]
    fn ratio_below_one_builds_deeper_hierarchies() {
        let h = two_communities(200);
        let r_full = ml(&h, &MlConfig::default(), 9).1;
        let r_half = ml(&h, &MlConfig::default().with_ratio(0.5), 9).1;
        assert!(r_half.levels > r_full.levels);
    }

    #[test]
    fn small_netlist_skips_coarsening() {
        let h = two_communities(8); // 16 modules < T = 35
        let (p, r) = ml(&h, &MlConfig::default(), 1);
        assert_eq!(r.levels, 0);
        assert!(p.validate(&h));
    }

    #[test]
    fn multilevel_beats_or_matches_flat_fm_on_average() {
        // The paper's core claim (Table IV): ML produces lower average cuts
        // than flat iterative improvement. Check on a modest community graph.
        let h = two_communities(128);
        let runs = 6;
        let flat_avg: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(1000 + s);
                fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default())
                    .unwrap()
                    .1
                    .cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        let ml_avg: f64 = (0..runs)
            .map(|s| ml(&h, &MlConfig::default(), 2000 + s).1.cut as f64)
            .sum::<f64>()
            / runs as f64;
        assert!(
            ml_avg <= flat_avg,
            "ML avg {ml_avg} should not exceed flat FM avg {flat_avg}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let h = two_communities(64);
        let (p1, r1) = ml(&h, &MlConfig::clip(), 42);
        let (p2, r2) = ml(&h, &MlConfig::clip(), 42);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn works_with_all_bucket_policies() {
        let h = two_communities(48);
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            let cfg = MlConfig {
                fm: FmConfig {
                    policy,
                    ..FmConfig::default()
                },
                ..MlConfig::default()
            };
            assert!(ml(&h, &cfg, 7).0.validate(&h));
        }
    }

    /// With audits forced on, every projection, pin and partition check of
    /// both schedules runs (and a healthy run survives them all).
    #[cfg(feature = "audit")]
    #[test]
    fn audit_hooks_fire_on_healthy_runs() {
        mlpart_audit::force_enabled(true);
        let h = two_communities(64); // 128 modules > T = 35, so m >= 1
        let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 0)]).unwrap();
        let (p, r) = ml(&h, &MlConfig::default(), 11);
        let (q, s) = pinned(&h, &MlConfig::default(), &c, 7);
        mlpart_audit::force_enabled(false);
        assert!(r.levels >= 1 && s.levels >= 1, "need projections to audit");
        assert!(p.validate(&h) && q.validate(&h));
    }

    #[test]
    fn handles_netless_input() {
        let h = HypergraphBuilder::with_unit_areas(100).build().unwrap();
        let (p, r) = ml(&h, &MlConfig::default(), 0);
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }

    #[test]
    fn fixed_modules_never_move() {
        let h = two_communities(64);
        // Pin two modules against the natural community split and one with
        // it; every seed must honor all three.
        let pins = vec![
            (ModuleId::new(0), 1),
            (ModuleId::new(70), 0),
            (ModuleId::new(5), 1),
        ];
        let c = Constraints::new(2, 0.2, pins).unwrap();
        for seed in 0..6 {
            let (p, r) = pinned(&h, &MlConfig::clip(), &c, seed);
            assert!(p.validate(&h));
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn unpinned_run_under_constraints_keeps_quality_and_bounds() {
        let h = two_communities(64);
        let c = Constraints::unconstrained(2);
        let bounds = c.bounds(&h);
        let best = (0..5)
            .map(|s| {
                let (p, r) = pinned(&h, &MlConfig::default(), &c, s);
                assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
                r.cut
            })
            .min()
            .unwrap();
        assert!(best <= 4, "best={best}");
    }

    #[test]
    fn tight_epsilon_is_respected_at_the_finest_level() {
        let h = two_communities(64); // 128 unit modules
        let c = Constraints::new(2, 0.02, vec![]).unwrap();
        // slack = max(⌊0.02·64⌋, 1) = 1 around the 64/64 target.
        let bounds = PartBounds::around_targets(&[64, 64], 128, 1, 0.02);
        for seed in 0..3 {
            let (p, _) = pinned(&h, &MlConfig::default(), &c, seed);
            assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
        }
    }

    #[test]
    fn heavily_pinned_netlist_still_partitions() {
        let h = two_communities(64);
        // Pin a quarter of all modules, half of them "against" the grain.
        let mut fixed = Vec::new();
        for i in 0..16 {
            fixed.push((ModuleId::new(i), 0));
            fixed.push((ModuleId::new(64 + i), u32::from(i % 2 == 0)));
        }
        let c = Constraints::new(2, 0.2, fixed).unwrap();
        let (p, r) = pinned(&h, &MlConfig::default(), &c, 13);
        assert!(p.validate(&h));
        for &(v, part) in c.fixed() {
            assert_eq!(p.part(v), part);
        }
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert!(c.bounds(&h).is_partition_feasible(&p));
    }

    #[test]
    fn constrained_run_is_deterministic_given_seed() {
        let h = two_communities(48);
        let c = Constraints::new(2, 0.1, vec![(ModuleId::new(3), 1)]).unwrap();
        let (p1, r1) = pinned(&h, &MlConfig::clip(), &c, 21);
        let (p2, r2) = pinned(&h, &MlConfig::clip(), &c, 21);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn budgeted_pinned_run_keeps_pins_under_truncation() {
        let h = two_communities(64);
        let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1)]).unwrap();
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(1),
            ..Budget::default()
        });
        let req = Request {
            constraints: Some(&c),
            meter: Some(&mut meter),
            workspace: None,
        };
        let (p, r) = ml_bipartition(&h, &MlConfig::default(), &mut seeded_rng(2), req).unwrap();
        assert!(r.truncation.is_some());
        assert!(p.validate(&h));
        assert_eq!(p.part(ModuleId::new(0)), 1, "pin survives truncation");
    }

    #[test]
    fn rejects_nonbisection_constraints() {
        let h = two_communities(8);
        let c = Constraints::unconstrained(4);
        let req = Request {
            constraints: Some(&c),
            ..Request::default()
        };
        let err = ml_bipartition(&h, &MlConfig::default(), &mut seeded_rng(0), req).unwrap_err();
        assert!(err.to_string().contains("bipartition requires k = 2"));
    }

    #[test]
    fn request_parts_do_not_change_results() {
        let h = two_communities(64);
        let cfg = MlConfig::clip();
        let mut ws = RefineWorkspace::new();
        let mut meter = BudgetMeter::unlimited();
        let req = Request {
            workspace: Some(&mut ws),
            meter: Some(&mut meter),
            constraints: None,
        };
        let (p1, r1) = ml_bipartition(&h, &cfg, &mut seeded_rng(21), req).unwrap();
        let (p2, r2) = ml(&h, &cfg, 21);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
        assert_eq!(r1.truncation, None);
    }

    #[test]
    fn pass_budget_truncates_but_keeps_result_valid_and_feasible() {
        let h = two_communities(64);
        let cfg = MlConfig::default();
        let budget = Budget {
            max_passes: Some(2),
            ..Budget::default()
        };
        let (p, r) = budgeted(&h, &cfg, &budget, 5);
        let t = r
            .truncation
            .expect("two passes cannot finish a V-cycle here");
        assert_eq!(t.limit, BudgetLimit::Passes);
        assert!(r.total_passes <= 2, "pass budget: {}", r.total_passes);
        assert!(p.validate(&h));
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.fm.balance_r);
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    #[test]
    fn zero_move_budget_yields_the_projected_initial_partition() {
        let h = two_communities(64);
        let cfg = MlConfig::default();
        let budget = Budget {
            max_moves: Some(0),
            ..Budget::default()
        };
        let (p, r) = budgeted(&h, &cfg, &budget, 9);
        assert_eq!(r.total_passes, 0, "no refinement pass may run");
        assert_eq!(r.truncation.unwrap().limit, BudgetLimit::Moves);
        assert!(p.validate(&h));
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.fm.balance_r);
        assert!(bal.is_partition_feasible(&p));
    }

    #[test]
    fn level_budget_refines_only_the_coarsest_levels() {
        let h = two_communities(128);
        let cfg = MlConfig::default().with_ratio(0.5);
        let budget = Budget {
            max_levels: Some(1),
            ..Budget::default()
        };
        let (p, r) = budgeted(&h, &cfg, &budget, 17);
        assert!(r.levels >= 2, "need a deep hierarchy for this test");
        let t = r.truncation.expect("level budget must fire");
        assert_eq!(t.limit, BudgetLimit::Levels);
        // Exactly the coarsest uncoarsening level refined; every later level
        // has zero passes but still projected.
        let refined: Vec<_> = r
            .level_stats
            .iter()
            .skip(1) // entry 0 is the coarsest-level initial partitioning
            .filter(|s| s.passes > 0)
            .collect();
        assert_eq!(refined.len(), 1);
        assert!(p.validate(&h));
    }

    #[test]
    fn budgeted_runs_are_deterministic() {
        let h = two_communities(64);
        let budget = Budget {
            max_passes: Some(3),
            ..Budget::default()
        };
        let (p1, r1) = budgeted(&h, &MlConfig::clip(), &budget, 33);
        let (p2, r2) = budgeted(&h, &MlConfig::clip(), &budget, 33);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }
}
