//! The "two-phase" clustering methodology (paper §II-C) — the historical
//! predecessor that ML generalizes.
//!
//! > "First a clustering `Pᵏ` of `H₀` is generated, then this clustering is
//! > used to induce the coarser netlist `H₁` from `H₀`. FM is then run once
//! > on `H₁` to yield the bipartitioning `P₁`, and this solution `P₁` is
//! > projected to a new bipartitioning `P₀` of `H₀`. Finally, FM is run a
//! > second time on `H₀` using `P₀` as its initial solution."
//!
//! Exactly one level of coarsening; ML is "the two-phase approach extended
//! to as many phases as desired". Included as a baseline so the value of
//! *multiple* levels can be isolated experimentally.

use crate::error::PipelineError;
use crate::hierarchy::{lift_fixed, match_level};
use crate::vcycle::{Bisect, Ctx, Cycle, Refiner, Request, Window};
use mlpart_cluster::{induce, project, MatchConfig, MatchScratch};
use mlpart_fm::{FmConfig, FmResult, Truncation};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{audit, metrics, obs_counter, obs_span, Hypergraph, Partition};

/// Result of a two-phase FM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoPhaseResult {
    /// Final cut on `H₀`.
    pub cut: u64,
    /// Cut of the coarse solution before projection.
    pub coarse_cut: u64,
    /// Number of modules of the induced coarse netlist `H₁`.
    pub coarse_modules: usize,
    /// Statistics of the second (refinement) FM run.
    pub refine: FmResult,
    /// `Some` when a budget limit fired and one (or both) FM runs were cut
    /// short.
    pub truncation: Option<Truncation>,
}

/// Runs two-phase FM: one `Match` clustering, FM on the induced netlist,
/// projection, and a final FM refinement.
///
/// `fm` configures both FM runs (engine, buckets, balance); `match_cfg`
/// configures the single clustering pass. The phases use the V-cycle's
/// schedule helpers, so `req.constraints` (2-way only) selects the
/// constrained schedule exactly as in
/// [`ml_bipartition`](crate::ml_bipartition): pins keep their side through
/// clustering, the coarse start, projection and both FM runs, and balance
/// follows the ε window instead of `fm.balance_r`.
///
/// # Errors
///
/// [`PipelineError::KMismatch`] when the constraints are not 2-way,
/// [`PipelineError::Constraints`] when a pin is out of range, and
/// [`PipelineError::Coarsen`] when inducing the coarse netlist or projecting
/// the coarse partition back fails.
///
/// # Examples
///
/// ```
/// use mlpart_core::{two_phase_fm, Request};
/// use mlpart_cluster::MatchConfig;
/// use mlpart_fm::FmConfig;
/// use mlpart_hypergraph::{Constraints, HypergraphBuilder, ModuleId, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(32);
/// for i in 0..31 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let (fm, mc) = (FmConfig::default(), MatchConfig::default());
/// let (p, r) = two_phase_fm(&h, &fm, &mc, &mut seeded_rng(3), Request::default())?;
/// assert_eq!(r.cut, metrics::cut(&h, &p));
/// assert!(r.coarse_modules < 32);
///
/// let c = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1)])?;
/// let req = Request { constraints: Some(&c), ..Request::default() };
/// let (p, _) = two_phase_fm(&h, &fm, &mc, &mut seeded_rng(3), req)?;
/// assert_eq!(p.part(ModuleId::new(0)), 1);
/// # Ok(())
/// # }
/// ```
pub fn two_phase_fm(
    h: &Hypergraph,
    fm: &FmConfig,
    match_cfg: &MatchConfig,
    rng: &mut MlRng,
    req: Request<'_>,
) -> Result<(Partition, TwoPhaseResult), PipelineError> {
    req.with(rng, |c, cx| {
        let context = "two-phase FM requires k = 2";
        let window = Window::halves(h);
        let cycle = Cycle::checked(Bisect(fm), fm.balance_r, c, h, context, window)?;
        let n = h.num_modules();
        match cycle.pins {
            None => {
                obs_span!("two_phase", "modules" => n);
                phases(h, &cycle, match_cfg, cx)
            }
            Some(_) => {
                obs_span!("two_phase_constrained", "modules" => n, "fixed" => cycle.fixed().len());
                phases(h, &cycle, match_cfg, cx)
            }
        }
    })
}

/// The two phases of [`two_phase_fm`], inside its run span.
fn phases(
    h: &Hypergraph,
    cycle: &Cycle<Bisect<'_>>,
    match_cfg: &MatchConfig,
    cx: &mut Ctx<'_>,
) -> Result<(Partition, TwoPhaseResult), PipelineError> {
    let fixed = cycle.fixed();
    // Phase 1: cluster once and partition the coarse netlist.
    let clustering = {
        obs_span!("match", "level" => 0u64, "modules" => h.num_modules());
        match_level(h, match_cfg, fixed, cx.rng, &mut MatchScratch::new())
    };
    let coarse = {
        obs_span!("induce", "level" => 0u64, "pins" => h.num_pins());
        induce(h, &clustering)?
    };
    let coarse_fixed = lift_fixed(fixed, &clustering);
    obs_counter!("two_phase_coarse", "coarse_modules" => coarse.num_modules());
    cx.meter.set_level_context(Some(1));
    let (coarse_p, coarse_r) = cycle.seed(&coarse, &coarse_fixed, cx)?;

    // Phase 2: project and refine on the original netlist.
    let mut p = {
        obs_span!("project", "modules" => h.num_modules());
        project(h, &clustering, &coarse_p)?
    };
    let bounds = cycle.bounds(h);
    let rebalance = cycle.rebalance(h, &mut p, &bounds, fixed, cx.rng)?;
    obs_counter!("rebalance", "level" => 0u64, "moves" => rebalance);
    cx.meter.set_level_context(Some(0));
    let refine = cycle.refiner.refine(h, &mut p, &bounds, fixed, cx)?;

    audit!(
        mlpart_audit::audit_partition(h, &p),
        mlpart_audit::audit_fixed_assignment(&p, fixed),
        {
            let (lo, hi): (Vec<u64>, Vec<u64>) =
                (0..2u32).map(|q| (bounds.lo(q), bounds.hi(q))).unzip();
            mlpart_audit::audit_part_bounds(&p, &lo, &hi)
        },
    );
    let result = TwoPhaseResult {
        cut: metrics::cut(h, &p),
        coarse_cut: coarse_r.cut,
        coarse_modules: coarse.num_modules(),
        refine,
        truncation: cx.meter.truncation(),
    };
    Ok((p, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_fm::{fm_partition, Budget, BudgetLimit, BudgetMeter, RefineRequest};
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{Constraints, HypergraphBuilder, ModuleId, PartBounds};

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

    fn run(h: &Hypergraph, seed: u64, req: Request<'_>) -> (Partition, TwoPhaseResult) {
        let (fm, mc) = (FmConfig::default(), MatchConfig::default());
        two_phase_fm(h, &fm, &mc, &mut seeded_rng(seed), req).unwrap()
    }

    fn pinned(h: &Hypergraph, c: &Constraints, seed: u64) -> (Partition, TwoPhaseResult) {
        let req = Request {
            constraints: Some(c),
            ..Request::default()
        };
        run(h, seed, req)
    }

    #[test]
    fn produces_feasible_consistent_result() {
        let h = two_communities(50);
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * FmConfig::default().balance_r);
        let (p, r) = run(&h, 2, Request::default());
        assert!(p.validate(&h));
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert!(r.coarse_modules < h.num_modules());
    }

    #[test]
    fn beats_or_matches_flat_fm_on_average() {
        let h = two_communities(80);
        let runs = 6;
        let flat: f64 = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(10 + s);
                fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default())
                    .unwrap()
                    .1
                    .cut as f64
            })
            .sum::<f64>()
            / runs as f64;
        let two_phase: f64 = (0..runs)
            .map(|s| run(&h, 20 + s, Request::default()).1.cut as f64)
            .sum::<f64>()
            / runs as f64;
        assert!(
            two_phase <= flat * 1.05,
            "two-phase {two_phase:.1} vs flat {flat:.1}"
        );
    }

    #[test]
    fn multilevel_beats_or_matches_two_phase_on_average() {
        // The paper's motivation for ML: one level of clustering is not
        // enough on clustered instances.
        // Both methods near-solve this easy instance, so compare best-of
        // (averages differ only by noise at this scale; the average gap is
        // what the Table IV harness measures on the full suite).
        let h = two_communities(100);
        let runs = 6;
        let two_phase = (0..runs)
            .map(|s| run(&h, 30 + s, Request::default()).1.cut)
            .min()
            .expect("runs");
        let ml = (0..runs)
            .map(|s| {
                let mut rng = seeded_rng(40 + s);
                let cfg = crate::MlConfig::default();
                crate::ml_bipartition(&h, &cfg, &mut rng, Request::default())
                    .unwrap()
                    .1
                    .cut
            })
            .min()
            .expect("runs");
        assert!(ml <= two_phase, "ML {ml} vs two-phase {two_phase}");
    }

    #[test]
    fn budgeted_two_phase_truncates_and_stays_feasible() {
        let h = two_communities(50);
        let mut meter = BudgetMeter::new(&Budget {
            max_passes: Some(1),
            ..Budget::default()
        });
        let req = Request {
            meter: Some(&mut meter),
            ..Request::default()
        };
        let (p, r) = run(&h, 8, req);
        assert_eq!(
            r.truncation.expect("must truncate").limit,
            BudgetLimit::Passes
        );
        assert_eq!(r.refine.passes, 0, "the budget went to the coarse run");
        assert!(p.validate(&h));
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * FmConfig::default().balance_r);
        assert!(bal.is_partition_feasible(&p));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    #[test]
    fn deterministic_given_seed() {
        let h = two_communities(30);
        let (p1, r1) = run(&h, 5, Request::default());
        let (p2, r2) = run(&h, 5, Request::default());
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn constrained_two_phase_honors_pins_across_seeds() {
        let h = two_communities(50);
        let c =
            Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1), (ModuleId::new(60), 0)]).unwrap();
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        for seed in 0..5 {
            let (p, r) = pinned(&h, &c, seed);
            assert!(p.validate(&h));
            for &(v, part) in c.fixed() {
                assert_eq!(p.part(v), part, "seed {seed}");
            }
            assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert!(r.coarse_modules < h.num_modules());
        }
    }

    #[test]
    fn constrained_two_phase_is_deterministic_given_seed() {
        let h = two_communities(30);
        let c = Constraints::new(2, 0.1, vec![(ModuleId::new(4), 1)]).unwrap();
        let (p1, r1) = pinned(&h, &c, 9);
        let (p2, r2) = pinned(&h, &c, 9);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn constrained_two_phase_rejects_kway_constraints() {
        let h = two_communities(8);
        let c = Constraints::unconstrained(3);
        let req = Request {
            constraints: Some(&c),
            ..Request::default()
        };
        let (fm, mc) = (FmConfig::default(), MatchConfig::default());
        let err = two_phase_fm(&h, &fm, &mc, &mut seeded_rng(0), req).unwrap_err();
        assert!(err.to_string().contains("two-phase FM requires k = 2"));
    }
}
