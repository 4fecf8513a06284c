//! The one multilevel V-cycle (paper Fig. 2) behind ML bisection and ML
//! k-way, with two parameters:
//!
//! * the **refiner**: the 2-way FM/CLIP engine ([`Bisect`]) or the Sanchis
//!   k-way engine ([`Kway`]);
//! * the **schedule**: the paper's (no pins) or the constrained one (pins,
//!   possibly none). The two differ at two points only — how the coarsest
//!   level is seeded and how a projected partition is rebalanced — and both
//!   refine through the engines' constrained refinement calls. Each level's
//!   balance window comes from the cycle's [`Window`]; the paper's is
//!   `Window::Even(2r)`, the §III-B window.
//!
//! Two-phase FM (§II-C) is built from the same schedule helpers
//! ([`Cycle::seed`], [`Cycle::rebalance`]) around a single level.

use crate::error::PipelineError;
use crate::hierarchy::Hierarchy;
use crate::ml::{LevelStats, MlConfig, MlResult};
use mlpart_cluster::{project, rebalance_kway_frozen};
use mlpart_fm::{
    fm_partition, refine, BudgetMeter, FmConfig, FmResult, PassStats, RefineError, RefineRequest,
    RefineWorkspace,
};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    audit, metrics, obs_counter, obs_span, Constraints, Hypergraph, ModuleId, PartBounds, PartId,
    Partition,
};
use mlpart_kway::{kway_partition, kway_refine, rebalance_to_bounds, KwayConfig, KwayResult};

/// The optional inputs of every pipeline entry point, beyond its
/// configuration and RNG (see the crate-level example).
#[derive(Debug, Default)]
pub struct Request<'a> {
    /// Pins and an ε balance window. `Some` selects the constrained
    /// schedule; `None` runs the paper's.
    pub constraints: Option<&'a Constraints>,
    /// A cooperative execution budget, consulted at every pass and level
    /// boundary; `None` runs unlimited. Once a limit fires refinement stops,
    /// but projection and rebalancing still run at every level, so the
    /// answer is always a valid partition, recorded as truncated.
    pub meter: Option<&'a mut BudgetMeter>,
    /// Refinement scratch reused across calls (and across every level of a
    /// call); `None` allocates one. Results do not depend on it.
    pub workspace: Option<&'a mut RefineWorkspace>,
}

impl Request<'_> {
    /// Calls `f` with the request's constraints and a [`Ctx`] over `rng` and
    /// the request's workspace and meter, a fresh workspace and an unlimited
    /// meter standing in for missing ones.
    pub(crate) fn with<T>(
        self,
        rng: &mut MlRng,
        f: impl FnOnce(Option<&Constraints>, &mut Ctx<'_>) -> T,
    ) -> T {
        let (mut ws, mut meter) = (RefineWorkspace::new(), BudgetMeter::unlimited());
        let mut cx = Ctx {
            rng,
            ws: self.workspace.unwrap_or(&mut ws),
            meter: self.meter.unwrap_or(&mut meter),
        };
        f(self.constraints, &mut cx)
    }
}

/// The mutable state one pipeline call threads through every level: its
/// RNG stream, refinement scratch and budget.
#[derive(Debug)]
pub(crate) struct Ctx<'a> {
    pub rng: &'a mut MlRng,
    pub ws: &'a mut RefineWorkspace,
    pub meter: &'a mut BudgetMeter,
}

impl Ctx<'_> {
    /// An engine request through this call's workspace and meter.
    fn request<'r>(
        &'r mut self,
        bounds: Option<&'r PartBounds>,
        fixed: &'r [(ModuleId, PartId)],
    ) -> (&'r mut MlRng, RefineRequest<'r>) {
        let req = RefineRequest {
            workspace: Some(&mut *self.ws),
            meter: Some(&mut *self.meter),
            bounds,
            fixed,
        };
        (&mut *self.rng, req)
    }
}

/// A refinement engine the V-cycle drives.
pub(crate) trait Refiner {
    /// What the engine's calls report.
    type Run;
    /// Run-span names under the paper and the constrained schedule.
    const SPANS: [&'static str; 2];
    /// The k-way engine's traces name `k` on the run span.
    const TRACE_K: bool;
    /// Parts the engine produces.
    fn k(&self) -> u32;
    /// A call's per-pass statistics.
    fn passes(run: &Self::Run) -> &[PassStats];
    /// The paper's initial partition: the engine draws its own random
    /// start, then refines it.
    fn draw(&self, h: &Hypergraph, cx: &mut Ctx<'_>)
        -> Result<(Partition, Self::Run), RefineError>;
    /// Refines `p` within `bounds`, never moving a module of `fixed`.
    fn refine(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        bounds: &PartBounds,
        fixed: &[(ModuleId, PartId)],
        cx: &mut Ctx<'_>,
    ) -> Result<Self::Run, RefineError>;
}

/// The 2-way FM/CLIP engine (ML_F / ML_C).
pub(crate) struct Bisect<'a>(pub &'a FmConfig);

impl Refiner for Bisect<'_> {
    type Run = FmResult;
    const SPANS: [&'static str; 2] = ["ml_bipartition", "ml_bipartition_constrained"];
    const TRACE_K: bool = false;

    fn k(&self) -> u32 {
        2
    }

    fn passes(run: &FmResult) -> &[PassStats] {
        &run.pass_stats
    }

    fn draw(&self, h: &Hypergraph, cx: &mut Ctx<'_>) -> Result<(Partition, FmResult), RefineError> {
        let (rng, req) = cx.request(None, &[]);
        fm_partition(h, self.0, rng, req)
    }

    fn refine(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        bounds: &PartBounds,
        fixed: &[(ModuleId, PartId)],
        cx: &mut Ctx<'_>,
    ) -> Result<FmResult, RefineError> {
        let (rng, req) = cx.request(Some(bounds), fixed);
        refine(h, p, self.0, rng, req)
    }
}

/// The Sanchis k-way engine (§III-C quadrisection and general k).
pub(crate) struct Kway<'a> {
    pub k: u32,
    pub cfg: &'a KwayConfig,
}

impl Refiner for Kway<'_> {
    type Run = KwayResult;
    const SPANS: [&'static str; 2] = ["ml_kway", "ml_kway_constrained"];
    const TRACE_K: bool = true;

    fn k(&self) -> u32 {
        self.k
    }

    fn passes(run: &KwayResult) -> &[PassStats] {
        &run.pass_stats
    }

    fn draw(
        &self,
        h: &Hypergraph,
        cx: &mut Ctx<'_>,
    ) -> Result<(Partition, KwayResult), RefineError> {
        let (rng, req) = cx.request(None, &[]);
        kway_partition(h, self.k, self.cfg, rng, req)
    }

    fn refine(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        bounds: &PartBounds,
        fixed: &[(ModuleId, PartId)],
        cx: &mut Ctx<'_>,
    ) -> Result<KwayResult, RefineError> {
        let (rng, req) = cx.request(Some(bounds), fixed);
        kway_refine(h, p, self.cfg, rng, req)
    }
}

/// How a cycle derives each level's balance window. Windows are recomputed
/// per level, widened to each level's largest module, so coarse levels are
/// never over-constrained.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Window {
    /// Every part within `(1 ± ε)·A(V)/k` ([`PartBounds::from_epsilon`]);
    /// at `ε = 2r` the paper's §III-B window.
    Even(f64),
    /// Side 0 targets area `target0` and side 1 the rest, each within a
    /// relative ε: one step of recursive bisection.
    Split { target0: u64, epsilon: f64 },
}

impl Window {
    /// The bisection window around half of `h`'s area, for a given ε.
    pub(crate) fn halves(h: &Hypergraph) -> impl FnOnce(f64) -> Window {
        let target0 = h.total_area() / 2;
        move |epsilon| Window::Split { target0, epsilon }
    }
}

/// One refiner under one schedule and one window rule.
pub(crate) struct Cycle<'a, R> {
    pub refiner: R,
    pub window: Window,
    /// Pins on `H₀` under the constrained schedule; `None` runs the paper's.
    pub pins: Option<&'a [(ModuleId, PartId)]>,
}

impl<'a, R: Refiner> Cycle<'a, R> {
    /// The cycle a request's constraints select: the paper's schedule
    /// under the §III-B window for the ratio `r` without constraints, else
    /// their pins under `window(ε)`, checked against the refiner's part
    /// count (`context` names that rule).
    pub(crate) fn checked(
        refiner: R,
        r: f64,
        c: Option<&'a Constraints>,
        h: &Hypergraph,
        context: &'static str,
        window: impl FnOnce(f64) -> Window,
    ) -> Result<Self, PipelineError> {
        let Some(c) = c else {
            return Ok(Cycle {
                refiner,
                window: Window::Even(2.0 * r),
                pins: None,
            });
        };
        let k = refiner.k();
        if c.k() != k {
            let got = c.k();
            return Err(PipelineError::KMismatch {
                context,
                expected: k,
                got,
            });
        }
        c.check_modules(h.num_modules())?;
        Ok(Cycle {
            refiner,
            window: window(c.epsilon()),
            pins: Some(c.fixed()),
        })
    }

    /// The pins on `H₀`: none under the paper's schedule.
    pub(crate) fn fixed(&self) -> &[(ModuleId, PartId)] {
        self.pins.unwrap_or(&[])
    }

    /// The balance window of the level netlist `h`.
    pub(crate) fn bounds(&self, h: &Hypergraph) -> PartBounds {
        match self.window {
            Window::Even(eps) => PartBounds::from_epsilon(h, self.refiner.k(), eps),
            Window::Split { target0, epsilon } => {
                let total = h.total_area();
                let targets = [target0, total - target0];
                PartBounds::around_targets(&targets, total, h.max_area(), epsilon)
            }
        }
    }

    /// Seeds the coarsest level `h`, whose pins are `fixed`. The paper's
    /// schedule lets the engine draw its start; the constrained one draws a
    /// pin-respecting random start, rebalances it into the window, and
    /// refines it.
    pub(crate) fn seed(
        &self,
        h: &Hypergraph,
        fixed: &[(ModuleId, PartId)],
        cx: &mut Ctx<'_>,
    ) -> Result<(Partition, R::Run), PipelineError> {
        if self.pins.is_none() {
            return Ok(self.refiner.draw(h, cx)?);
        }
        let bounds = self.bounds(h);
        let mut p = Partition::random_fixed(h, self.refiner.k(), fixed, cx.rng);
        if !bounds.is_partition_feasible(&p) {
            rebalance_to_bounds(h, &mut p, fixed, &bounds, cx.rng)?;
        }
        let r = self.refiner.refine(h, &mut p, &bounds, fixed, cx)?;
        Ok((p, r))
    }

    /// Restores feasibility of a projected partition: the paper's §III-B
    /// random moves, or pin-respecting moves into the constrained window.
    /// Returns the modules moved (none, and no RNG draw, when feasible).
    pub(crate) fn rebalance(
        &self,
        h: &Hypergraph,
        p: &mut Partition,
        bounds: &PartBounds,
        fixed: &[(ModuleId, PartId)],
        rng: &mut MlRng,
    ) -> Result<usize, PipelineError> {
        Ok(if bounds.is_partition_feasible(p) {
            0
        } else if self.pins.is_none() {
            rebalance_kway_frozen(h, p, bounds, None, rng)
        } else {
            rebalance_to_bounds(h, p, fixed, bounds, rng)?
        })
    }

    /// The V-cycle of Fig. 2 under its run span: the span names the
    /// schedule, and carries `k` for the k-way engine and the pin count under
    /// the constrained schedule.
    pub(crate) fn run(
        &self,
        h: &Hypergraph,
        cfg: &MlConfig,
        cx: &mut Ctx<'_>,
    ) -> Result<(Partition, MlResult), PipelineError> {
        let [paper, pinned] = R::SPANS;
        let (k, n, f) = (self.refiner.k(), h.num_modules(), self.fixed().len());
        match (self.pins.is_some(), R::TRACE_K) {
            (false, false) => {
                obs_span!(paper, "modules" => n);
                self.cycle(h, cfg, cx)
            }
            (false, true) => {
                obs_span!(paper, "k" => k, "modules" => n);
                self.cycle(h, cfg, cx)
            }
            (true, false) => {
                obs_span!(pinned, "modules" => n, "fixed" => f);
                self.cycle(h, cfg, cx)
            }
            (true, true) => {
                obs_span!(pinned, "k" => k, "modules" => n, "fixed" => f);
                self.cycle(h, cfg, cx)
            }
        }
    }

    /// Coarsens `h` under `cfg`, seeds the coarsest level, then projects,
    /// rebalances and refines level by level down to `h`. Each coarse level
    /// is dropped as soon as its partition has been projected.
    fn cycle(
        &self,
        h: &Hypergraph,
        cfg: &MlConfig,
        cx: &mut Ctx<'_>,
    ) -> Result<(Partition, MlResult), PipelineError> {
        let fixed = self.fixed();
        let mut hierarchy = Hierarchy::coarsen(h, cfg, fixed, cx.rng)?;
        let m = hierarchy.num_levels();
        let level_sizes = hierarchy.level_sizes(h);

        // --- Initial partitioning of Hₘ (step 6). ---
        let coarsest = hierarchy.coarsest(h);
        cx.meter.set_level_context(Some(m as u32));
        let (mut p, initial) = {
            obs_span!("initial", "level" => m, "modules" => coarsest.num_modules());
            self.seed(coarsest, hierarchy.fixed_at(m), cx)?
        };
        let mut level_stats = Vec::with_capacity(m + 1);
        let initial_passes = R::passes(&initial);
        let mut total_passes = initial_passes.len();
        level_stats.push(LevelStats::from_passes(
            m,
            coarsest.num_modules(),
            initial_passes,
            0,
        ));

        // --- Uncoarsening (steps 7-9), rebalancing after projection. ---
        let mut rebalance_moves = 0usize;
        while let Some((clustering, coarse)) = hierarchy.pop_level() {
            let i = hierarchy.num_levels();
            let fine = hierarchy.coarsest(h);
            obs_span!("level", "level" => i, "modules" => fine.num_modules());
            let mut fine_p = {
                obs_span!("project", "modules" => fine.num_modules());
                project(fine, &clustering, &p)?
            };
            // Definition 2 audit: the projected solution must pull back
            // through the cluster map and preserve the cut bit-exactly,
            // checked before rebalancing perturbs `fine_p`.
            audit!(mlpart_audit::audit_projection(
                fine,
                &fine_p,
                &coarse.clone().into_hypergraph(),
                &p,
                clustering.as_map()
            )
            .map_err(|e| e.with_level(i)));
            drop((clustering, coarse));
            let level_fixed = hierarchy.fixed_at(i);
            let bounds = self.bounds(fine);
            let level_rebalance =
                self.rebalance(fine, &mut fine_p, &bounds, level_fixed, cx.rng)?;
            rebalance_moves += level_rebalance;
            obs_counter!("rebalance", "level" => i, "moves" => level_rebalance);
            // Cooperative budget checkpoint. When the level budget (or any
            // sticky earlier limit) is exhausted, refinement below runs zero
            // passes and the projected, rebalanced partition flows through
            // unchanged — projection never stops, so the final answer is
            // always a valid partition of `h`.
            cx.meter.set_level_context(Some(i as u32));
            let _ = cx.meter.level_checkpoint(i as u32);
            let r = self
                .refiner
                .refine(fine, &mut fine_p, &bounds, level_fixed, cx)?;
            cx.meter.note_level();
            // Pins must survive every level, not just the final answer.
            audit!(mlpart_audit::audit_fixed_assignment(&fine_p, level_fixed)
                .map_err(|e| e.with_level(i)));
            let passes = R::passes(&r);
            total_passes += passes.len();
            let stats = LevelStats::from_passes(i, fine.num_modules(), passes, level_rebalance);
            level_stats.push(stats);
            p = fine_p;
        }

        audit!(
            mlpart_audit::audit_partition(h, &p),
            mlpart_audit::audit_fixed_assignment(&p, fixed),
        );
        let result = MlResult {
            cut: metrics::cut(h, &p),
            levels: m,
            level_sizes,
            total_passes,
            rebalance_moves,
            level_stats,
            truncation: cx.meter.truncation(),
        };
        Ok((p, result))
    }
}
