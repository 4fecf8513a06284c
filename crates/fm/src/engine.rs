//! The `FMPartition` refinement engine: Fiduccia-Mattheyses passes with
//! LIFO/FIFO/Random buckets and the CLIP variant.
//!
//! This is the iterative-improvement core the paper plugs into its multilevel
//! algorithm (Fig. 2, steps 6 and 9). Faithful details:
//!
//! * **Pass structure** (§I): modules move one at a time, each at most once
//!   per pass; the best prefix of the move sequence is kept; passes repeat
//!   until one fails to improve.
//! * **Balance** (§III-B): side areas bounded by `A(V)/2 ± max(A(v*), r·A(V))`
//!   ([`PartBounds::from_epsilon`] at `ε = 2r`); every prefix of the move sequence is feasible
//!   because each move is feasibility-checked. Before each LIFO/FIFO pick
//!   an exact side gate closes a side that can give up no module of any
//!   area, so selection never checks that side's modules; the picks are
//!   the ones an ungated walk makes.
//! * **Gain updates** (§I): after a move, each visible net of the moved
//!   module updates its other pins' gains from its pin counts before and
//!   after the flip. A two-pin net is an edge: its other pin's gain changes
//!   by ±2w in one update, filed where the two single-term updates would
//!   file it. Each pass initializes every gain in one walk over the
//!   visible nets.
//! * **Large nets** (§III-B): nets with more than
//!   [`max_net_size`](FmConfig::max_net_size) (default 200) pins are ignored
//!   by the engine and re-inserted when measuring solution quality.
//! * **CLIP** (§II-B, after Dutt-Deng): after initial gains are computed the
//!   buckets are concatenated in descending-gain order into bucket zero, so
//!   selection is driven by *gain deltas* since the pass began; the bucket
//!   index range doubles.
//!
//! The paper's §V early-exit item is available as an option:
//! [`FmConfig::early_exit_stall`] abandons a pass after a run of
//! non-improving moves.

#![expect(
    clippy::disallowed_types,
    reason = "per-pass bucket-fill timing: the time flows only into PassStats::fill_time_ns, \
              which result equality excludes, never into a decision"
)]

use crate::bucket::{BucketPolicy, Filing, OpenClasses};
use crate::request::{expect_valid, RefineError, RefineRequest, RequestParts};
use crate::state::{GainSpread, PassStats, RefineState, RefineWorkspace};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    audit, metrics, obs_counter, obs_span, Hypergraph, ModuleId, NetId, PartBounds, PartId,
    Partition,
};
use std::borrow::Cow;
use std::time::Instant;

/// Which gain discipline drives module selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// Classic Fiduccia-Mattheyses: select by current total gain.
    #[default]
    Fm,
    /// CLIP (CLuster-oriented Iterative-improvement Partitioner): select by
    /// gain *change* since the start of the pass, seeding bucket zero in
    /// descending initial-gain order. Averages 18% improvement over FM in
    /// Dutt-Deng's experiments and similar gains in the paper's Table III.
    Clip,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Fm => write!(f, "FM"),
            Engine::Clip => write!(f, "CLIP"),
        }
    }
}

/// Configuration for [`fm_partition`] and [`refine`].
///
/// The defaults reproduce the paper's experimental setup: LIFO buckets,
/// classic FM gains, balance tolerance `r = 0.1`, nets over 200 pins ignored,
/// passes until no improvement.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{FmConfig, Engine, BucketPolicy};
///
/// let cfg = FmConfig {
///     engine: Engine::Clip,
///     policy: BucketPolicy::Lifo,
///     ..FmConfig::default()
/// };
/// assert_eq!(cfg.balance_r, 0.1);
/// assert_eq!(cfg.max_net_size, 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmConfig {
    /// FM or CLIP gain discipline.
    pub engine: Engine,
    /// Bucket tie-breaking policy (Table II compares these).
    pub policy: BucketPolicy,
    /// Balance tolerance `r`; the paper's experiments use `0.1`.
    pub balance_r: f64,
    /// Nets with more pins than this are invisible to the engine (§III-B).
    pub max_net_size: usize,
    /// Safety cap on the number of passes; convergence (a pass with no
    /// improvement) almost always terminates far earlier.
    pub max_passes: usize,
    /// §V extension: if `Some(s)`, a pass is abandoned after `s` consecutive
    /// moves without a new best solution (Chaco/Metis-style early exit).
    pub early_exit_stall: Option<usize>,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            engine: Engine::Fm,
            policy: BucketPolicy::Lifo,
            balance_r: 0.1,
            max_net_size: 200,
            max_passes: 64,
            early_exit_stall: None,
        }
    }
}

/// Outcome of a refinement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmResult {
    /// Final cut measured over **all** nets (large nets re-inserted).
    pub cut: u64,
    /// Final cut over engine-visible nets only (`net size ≤ max_net_size`).
    pub internal_cut: u64,
    /// Number of passes executed.
    pub passes: usize,
    /// Total accepted (kept after rollback) module moves.
    pub kept_moves: u64,
    /// Total attempted module moves across all passes.
    pub attempted_moves: u64,
    /// Per-pass instrumentation: cut trajectory, move counts, bucket-fill
    /// time. One entry per executed pass.
    pub pass_stats: Vec<PassStats>,
}

/// The paper's `FMPartition(H, P)` (Fig. 2) from a random start: draws a
/// random bipartition, moves the pins of `req.fixed` onto their parts, and
/// [`refine`]s it.
///
/// Returns the refined partition and run statistics.
///
/// # Errors
///
/// A [`RefineError`] when the request does not fit `h`
/// ([`RefineRequest::check`]) or its net weights overflow the gain buckets;
/// nothing is then drawn from `rng`.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{fm_partition, FmConfig, RefineRequest};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng, metrics};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(8);
/// for w in [[0, 1], [1, 2], [2, 3], [4, 5], [5, 6], [6, 7], [3, 4]] {
///     b.add_net(w)?;
/// }
/// let h = b.build()?;
/// let mut rng = seeded_rng(1);
/// let (p, result) = fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default())?;
/// assert_eq!(result.cut, metrics::cut(&h, &p));
/// assert_eq!(result.cut, 1); // the chain graph has a width-1 bisection
/// # Ok(())
/// # }
/// ```
pub fn fm_partition(
    h: &Hypergraph,
    cfg: &FmConfig,
    rng: &mut MlRng,
    req: RefineRequest<'_>,
) -> Result<(Partition, FmResult), RefineError> {
    req.check(h, 2, None)?;
    req.with(|r| {
        bind_bipart(&mut r.ws.state, h, cfg, r.fixed)?;
        let mut p = Partition::random(h, 2, rng);
        for &(v, part) in r.fixed {
            p.move_module(h, v, part);
        }
        let result = run(h, &mut p, cfg, rng, r);
        Ok((p, result))
    })
}

/// Refines the bipartition `p` in place: FM passes, each keeping its best
/// move prefix, until a pass fails to improve or `req.meter` stops the run
/// at a pass boundary (`p` then holds the best solution so far).
///
/// Every prefix of a pass stays inside `req.bounds` (the §III-B ratio
/// window when `None`). The modules of `req.fixed` never enter the gain
/// buckets, so they stay on the part `p` gives them.
///
/// # Errors
///
/// A [`RefineError`] when `p` or the request does not fit `h`
/// ([`RefineRequest::check`] with `k = 2`) or the net weights overflow the
/// gain buckets; `p` and `rng` are then untouched.
pub fn refine(
    h: &Hypergraph,
    p: &mut Partition,
    cfg: &FmConfig,
    rng: &mut MlRng,
    req: RefineRequest<'_>,
) -> Result<FmResult, RefineError> {
    req.check(h, 2, Some(p))?;
    req.with(|r| {
        bind_bipart(&mut r.ws.state, h, cfg, r.fixed)?;
        Ok(run(h, p, cfg, rng, r))
    })
}

/// [`fm_partition`] through `ws`, or [`refine`] of `initial` when given.
///
/// # Panics
///
/// Panics on the inputs those entries reject.
pub fn fm_partition_in(
    h: &Hypergraph,
    initial: Option<Partition>,
    cfg: &FmConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, FmResult) {
    let req = RefineRequest::reusing(ws);
    expect_valid(match initial {
        None => fm_partition(h, cfg, rng, req),
        Some(mut p) => refine(h, &mut p, cfg, rng, req).map(|r| (p, r)),
    })
}

/// [`refine`] through `ws`.
///
/// # Panics
///
/// Panics on the inputs [`refine`] rejects.
pub fn refine_in(
    h: &Hypergraph,
    p: &mut Partition,
    cfg: &FmConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> FmResult {
    expect_valid(refine(h, p, cfg, rng, RefineRequest::reusing(ws)))
}

/// The pass loop over a state [`bind_bipart`] bound.
fn run(
    h: &Hypergraph,
    p: &mut Partition,
    cfg: &FmConfig,
    rng: &mut MlRng,
    r: RequestParts<'_>,
) -> FmResult {
    let ratio = || PartBounds::from_epsilon(h, 2, 2.0 * cfg.balance_r);
    let bounds = r.bounds.map_or_else(|| Cow::Owned(ratio()), Cow::Borrowed);
    let gate = SideGate::new(h, &bounds);
    let (st, meter) = (&mut r.ws.state, r.meter);
    obs_span!(
        "fm_refine",
        "engine" => match cfg.engine {
            Engine::Fm => "FM",
            Engine::Clip => "CLIP",
        },
        "modules" => h.num_modules(),
    );
    let mut passes = 0;
    let mut kept_moves = 0u64;
    let mut attempted_moves = 0u64;
    let mut pass_stats = Vec::new();
    while passes < cfg.max_passes {
        if !meter.pass_checkpoint(passes as u32) {
            break;
        }
        let outcome = st.run_pass(h, p, cfg, &gate, rng, passes);
        passes += 1;
        meter.note_pass(outcome.stats.attempted_moves as u64);
        kept_moves += outcome.stats.kept_moves as u64;
        attempted_moves += outcome.stats.attempted_moves as u64;
        pass_stats.push(outcome.stats);
        if !outcome.improved {
            break;
        }
    }
    // The last pass's best cut is the visible-net cut after its rollback;
    // only the nets the engine cannot see need a walk.
    let internal_cut = pass_stats.last().map_or_else(
        || metrics::cut_with_net_size_limit(h, p, cfg.max_net_size),
        |s| s.cut_after,
    );
    let hidden_cut: u64 = h
        .net_ids()
        .zip(&st.visible)
        .filter(|&(e, &vis)| !vis && metrics::is_net_cut(h, p, e))
        .map(|(e, _)| u64::from(h.net_weight(e)))
        .sum();
    FmResult {
        cut: internal_cut + hidden_cut,
        internal_cut,
        passes,
        kept_moves,
        attempted_moves,
        pass_stats,
    }
}

/// Binds the shared state to `h` in its 2-way shape: one bucket structure
/// filing each module under its side in tallied lists, key range from the
/// max visible incident weight (doubled for CLIP deltas), and the modules
/// of `fixed` marked.
fn bind_bipart(
    st: &mut RefineState,
    h: &Hypergraph,
    cfg: &FmConfig,
    fixed: &[(ModuleId, PartId)],
) -> Result<(), RefineError> {
    let max_vis_weight = st.bind_nets(h, 2, cfg.max_net_size)?;
    let max_key = match cfg.engine {
        Engine::Fm => max_vis_weight,
        Engine::Clip => 2 * max_vis_weight,
    };
    st.bind_modules(h, 1, 2, Filing::Tallied, max_key, cfg.policy);
    st.fix(fixed);
    Ok(())
}

struct PassOutcome {
    improved: bool,
    stats: PassStats,
}

/// Both sides open: the view audits and tests take of an ungated pick.
#[cfg(any(test, feature = "audit"))]
pub(crate) const BOTH_SIDES: OpenClasses<'static> = OpenClasses::new(&[true, true], &[]);

/// The exact side gate of 2-way selection. Every module's area lies in
/// `[min_area, max_area]`, so when no area in that range keeps both sides
/// inside their windows after a move off side `s`, no module of `s` can
/// move and `s` is closed: selection never checks its members. The gate
/// assumes nothing of the current areas. A side outside its window is not
/// monotone in the moved area (too small an area may leave it too full,
/// too large may overshoot the other side), so it tests the interval of
/// feasible areas, not one end of it.
struct SideGate<'a> {
    bounds: &'a PartBounds,
    min_area: u64,
    max_area: u64,
}

impl<'a> SideGate<'a> {
    /// The gate of `h` under `bounds`; scans the module areas once.
    fn new(h: &Hypergraph, bounds: &'a PartBounds) -> Self {
        let areas = h.areas();
        SideGate {
            bounds,
            min_area: areas.iter().copied().min().unwrap_or(0),
            max_area: areas.iter().copied().max().unwrap_or(0),
        }
    }

    /// Which sides may give up a module when they hold `a0` and `a1`.
    fn open(&self, [a0, a1]: [u64; 2]) -> [bool; 2] {
        [self.gives(0, a0, a1), self.gives(1, a1, a0)]
    }

    /// `true` when some `a` in `[min_area, max_area]` keeps side `s`
    /// (holding `from`) and the other side `o` (holding `to`) in their
    /// windows after a move of area `a` from `s` to `o`:
    /// `a ≥ max(from − hi_s, lo_o − to)` and `a ≤ min(from − lo_s, hi_o − to)`.
    fn gives(&self, s: PartId, from: u64, to: u64) -> bool {
        let o = 1 - s;
        let (Some(keep_s), Some(room_o)) = (
            from.checked_sub(self.bounds.lo(s)),
            self.bounds.hi(o).checked_sub(to),
        ) else {
            return false;
        };
        let least = from
            .saturating_sub(self.bounds.hi(s))
            .max(self.bounds.lo(o).saturating_sub(to))
            .max(self.min_area);
        least <= keep_s.min(room_o).min(self.max_area)
    }
}

/// The 2-way pass algorithm, implemented over the shared [`RefineState`].
/// The state's `pins_in` is 2-strided (`pins_in[2e + side]`) and
/// `buckets[0]` is the single bucket structure, filing each module under
/// its side — moves always target the other side, so per-destination
/// buckets are unnecessary at `k = 2`.
impl RefineState {
    /// Recomputes `pins_in`, `gain` and `gain0` from scratch (the paper's
    /// implementation reinitializes the entire structure before each pass)
    /// in one walk over the visible nets. A net's share of a pin's gain
    /// depends only on the pin's side: `+w` when the pin is alone on it,
    /// `−w` when the other side is empty. Returns the visible-net
    /// (weighted) cut.
    fn recompute(&mut self, h: &Hypergraph, p: &Partition) -> u64 {
        self.gain.fill(0);
        let mut cut = 0u64;
        for e in h.net_ids() {
            if !self.visible[e.index()] {
                continue;
            }
            let mut counts = [0u32, 0];
            for &v in h.pins(e) {
                counts[p.part(v) as usize] += 1;
            }
            self.pins_in[2 * e.index()] = counts[0];
            self.pins_in[2 * e.index() + 1] = counts[1];
            let w = h.net_weight(e) as i32;
            if counts[0] > 0 && counts[1] > 0 {
                cut += w as u64;
            }
            let share =
                [0, 1].map(|s| w * (i32::from(counts[s] == 1) - i32::from(counts[1 - s] == 0)));
            if share != [0, 0] {
                for &v in h.pins(e) {
                    self.gain[v.index()] += share[p.part(v) as usize];
                }
            }
        }
        self.gain0.copy_from_slice(&self.gain);
        cut
    }

    fn bucket_key(&self, v: ModuleId, engine: Engine) -> i32 {
        match engine {
            Engine::Fm => self.gain[v.index()],
            Engine::Clip => self.gain[v.index()] - self.gain0[v.index()],
        }
    }

    /// Loads the bucket structure for a fresh pass with every free module;
    /// fixed modules never enter.
    fn fill_buckets(&mut self, h: &Hypergraph, p: &Partition, cfg: &FmConfig) {
        self.buckets[0].clear();
        match cfg.engine {
            Engine::Fm => {
                for v in h.modules() {
                    if !self.fixed[v.index()] {
                        self.buckets[0].insert(v, p.part(v) as usize, self.gain[v.index()]);
                    }
                }
            }
            Engine::Clip => {
                // Concatenate in descending initial gain into bucket 0. For
                // LIFO (insert-at-head) we insert ascending so the largest
                // initial gain ends at the head; FIFO/Random append at the
                // tail so we insert descending.
                let mut order: Vec<ModuleId> =
                    h.modules().filter(|&v| !self.fixed[v.index()]).collect();
                order.sort_by_key(|v| self.gain0[v.index()]);
                match cfg.policy {
                    BucketPolicy::Lifo => {
                        for &v in &order {
                            self.buckets[0].insert(v, p.part(v) as usize, 0);
                        }
                    }
                    BucketPolicy::Fifo | BucketPolicy::Random => {
                        for &v in order.iter().rev() {
                            self.buckets[0].insert(v, p.part(v) as usize, 0);
                        }
                    }
                }
            }
        }
    }

    /// Applies the FM incremental gain-update rules for moving `v` across the
    /// cut; updates `pins_in`, neighbor gains, buckets and the running cut.
    fn apply_move(
        &mut self,
        h: &Hypergraph,
        p: &mut Partition,
        v: ModuleId,
        cfg: &FmConfig,
        cut: &mut u64,
    ) {
        self.locked[v.index()] = true;
        self.buckets[0].remove(v);
        let from = p.part(v) as usize;
        let to = 1 - from;
        p.move_module(h, v, to as u32);
        for &e in h.nets(v) {
            if !self.visible[e.index()] {
                continue;
            }
            let ei = e.index();
            let w = h.net_weight(e) as i32;
            // The count on `to` before the pin flip.
            let t_before = self.pins_in[2 * ei + to];
            self.pins_in[2 * ei + from] -= 1;
            self.pins_in[2 * ei + to] += 1;
            if let &[a, b] = h.pins(e) {
                // An edge {v, u}: with `u` on `from` it becomes cut and `u`
                // gains both terms (+2w); with `u` on `to` it becomes uncut
                // and `u` loses both (−2w). One update files `u` where the
                // two single-term updates, made back to back, would.
                let u = if a == v { b } else { a };
                let delta = if t_before == 0 {
                    *cut += w as u64;
                    2 * w
                } else {
                    *cut -= w as u64;
                    -2 * w
                };
                if !self.locked[u.index()] {
                    self.change_gain(u, delta, cfg);
                }
                continue;
            }
            if t_before == 0 {
                *cut += w as u64;
                // Net was uncut on `from`; every other pin gains desire to
                // follow (their "net becomes uncut if I move" term appears).
                self.bump_net_gains(h, e, v, w, cfg);
            } else if t_before == 1 {
                // The lone pin on `to` no longer saves the net by moving.
                self.bump_single_side_gain(h, p, e, v, to as u32, -w, cfg);
            }
            // After the pin flip.
            let f_after = self.pins_in[2 * ei + from];
            if f_after == 0 {
                *cut -= w as u64;
                self.bump_net_gains(h, e, v, -w, cfg);
            } else if f_after == 1 {
                // The lone remaining pin on `from` can now uncut the net.
                self.bump_single_side_gain(h, p, e, v, from as u32, w, cfg);
            }
        }
    }

    /// Adds `delta` to the gain of every unlocked pin of `e` other than `v`.
    fn bump_net_gains(
        &mut self,
        h: &Hypergraph,
        e: NetId,
        v: ModuleId,
        delta: i32,
        cfg: &FmConfig,
    ) {
        for &w in h.pins(e) {
            if w != v && !self.locked[w.index()] {
                self.change_gain(w, delta, cfg);
            }
        }
    }

    /// Adds `delta` to the gain of the unique unlocked pin of `e` on `side`
    /// (if it exists and is not `v`).
    #[allow(clippy::too_many_arguments)]
    fn bump_single_side_gain(
        &mut self,
        h: &Hypergraph,
        p: &Partition,
        e: NetId,
        v: ModuleId,
        side: u32,
        delta: i32,
        cfg: &FmConfig,
    ) {
        for &w in h.pins(e) {
            if w != v && p.part(w) == side {
                if !self.locked[w.index()] {
                    self.change_gain(w, delta, cfg);
                }
                break;
            }
        }
    }

    /// Adds `delta` to the gain of the free module `w` and re-files it
    /// under its stored side.
    fn change_gain(&mut self, w: ModuleId, delta: i32, cfg: &FmConfig) {
        self.updates += 1;
        self.gain[w.index()] += delta;
        let key = self.bucket_key(w, cfg.engine);
        self.buckets[0].update_key(w, key);
    }

    fn run_pass(
        &mut self,
        h: &Hypergraph,
        p: &mut Partition,
        cfg: &FmConfig,
        gate: &SideGate<'_>,
        rng: &mut MlRng,
        pass_no: usize,
    ) -> PassOutcome {
        let fill_start = Instant::now();
        let start_cut = self.recompute(h, p);
        // Fixed modules start (and stay) locked: never selected, skipped by
        // the gain-update rules. All-false `fixed` makes this `fill(false)`.
        self.locked.copy_from_slice(&self.fixed);
        self.moves.clear();
        self.updates = 0;
        self.fill_buckets(h, p, cfg);
        let fill_time_ns = fill_start.elapsed().as_nanos() as u64;
        // Post-fill gain distribution and bucket occupancy; sampled here (a
        // deterministic point in the pass) only when a trace is recording.
        let fill = obs_counter!(snapshot: GainSpread::scan(
            self.buckets[0].len() as u64,
            h.modules().map(|v| i64::from(self.gain[v.index()])),
        ));
        audit!(crate::audit::audit_pass_start(self, h, p, cfg, start_cut)
            .map_err(|e| e.with_pass(pass_no)));

        let total = h.total_area();
        // Random picks stay ungated.
        let gated = cfg.policy != BucketPolicy::Random;
        let mut cut = start_cut;
        let mut best_cut = start_cut;
        let mut best_len = 0usize;
        let mut stall = 0usize;
        let mut inspected = 0u64;
        loop {
            if let Some(limit) = cfg.early_exit_stall {
                if stall >= limit {
                    break;
                }
            }
            let area0 = p.part_area(0);
            let pick = {
                let part_of = p.assignment();
                let areas = h.areas();
                let bounds = gate.bounds;
                let feasible = |v: ModuleId| {
                    let a = areas[v.index()];
                    let new_a0 = if part_of[v.index()] == 0 {
                        area0 - a
                    } else {
                        area0 + a
                    };
                    let new_a1 = total - new_a0.min(total);
                    bounds.is_area_feasible(0, new_a0) && bounds.is_area_feasible(1, new_a1)
                };
                let check = |v: ModuleId| {
                    inspected += 1;
                    feasible(v)
                };
                let open = if gated {
                    gate.open([area0, p.part_area(1)])
                } else {
                    [true, true]
                };
                let buckets = &mut self.buckets[0];
                let picked = buckets.select_where(rng, OpenClasses::new(&open, &[]), check);
                audit!(
                    crate::audit::audit_side_gate(buckets, open, picked, feasible)
                        .map_err(|e| e.with_pass(pass_no))
                );
                picked
            };
            let Some(v) = pick else { break };
            let from = p.part(v);
            self.apply_move(h, p, v, cfg, &mut cut);
            audit!(crate::audit::audit_move(self, h, p, cfg, v).map_err(|e| e.with_pass(pass_no)));
            self.moves.push((v, from));
            if cut < best_cut {
                best_cut = cut;
                best_len = self.moves.len();
                stall = 0;
            } else {
                stall += 1;
            }
        }
        let attempted = self.moves.len();
        // Roll back to the best prefix.
        for &(v, from) in self.moves[best_len..].iter().rev() {
            p.move_module(h, v, from);
        }
        audit!(crate::audit::audit_pass_end(h, p, cfg, best_cut).map_err(|e| e.with_pass(pass_no)));
        if let Some(s) = fill {
            obs_counter!(
                "fm_pass",
                "pass" => pass_no,
                "cut_before" => start_cut,
                "cut_after" => best_cut,
                "attempted" => attempted,
                "kept" => best_len,
                "rolled_back" => attempted - best_len,
                "bucket_occupancy" => s.occupancy,
                "gain_min" => s.min,
                "gain_max" => s.max,
                "gain_neg" => s.neg,
                "gain_zero" => s.zero,
                "gain_pos" => s.pos,
            );
        }
        PassOutcome {
            improved: best_cut < start_cut,
            stats: PassStats {
                cut_before: start_cut,
                cut_after: best_cut,
                attempted_moves: attempted,
                kept_moves: best_len,
                inspected,
                updates: self.updates,
                fill_time_ns,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    /// Two 4-cliques joined by a single bridge net: optimal bisection cut 1.
    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        b.build().unwrap()
    }

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n - 1 {
            b.add_net([i, i + 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn finds_optimal_cut_on_dumbbell_fm() {
        let h = dumbbell();
        let mut rng = seeded_rng(3);
        let (p, r) =
            fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default()).unwrap();
        assert_eq!(r.cut, 1);
        assert!(p.validate(&h));
        assert_eq!(metrics::cut(&h, &p), 1);
    }

    #[test]
    fn finds_optimal_cut_on_dumbbell_clip() {
        let h = dumbbell();
        let cfg = FmConfig {
            engine: Engine::Clip,
            ..FmConfig::default()
        };
        let mut rng = seeded_rng(3);
        let (_, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert_eq!(r.cut, 1);
    }

    #[test]
    fn all_policies_reach_optimum_on_chain() {
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            let h = chain(16);
            let cfg = FmConfig {
                policy,
                ..FmConfig::default()
            };
            // Multi-start: flat FM from a random start is not guaranteed to
            // hit the optimum on every seed, but should within a few tries.
            let best = (0..8)
                .map(|s| {
                    let mut rng = seeded_rng(s);
                    fm_partition(&h, &cfg, &mut rng, RefineRequest::default())
                        .unwrap()
                        .1
                        .cut
                })
                .min()
                .unwrap();
            assert_eq!(best, 1, "policy {policy} failed to find the bisection");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn respects_balance_bounds() {
        let h = chain(100);
        let cfg = FmConfig::default();
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.balance_r);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, _) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
            assert!(
                bal.is_partition_feasible(&p),
                "seed {seed}: areas {:?} outside {bal}",
                p.part_areas(),
            );
        }
    }

    #[test]
    fn never_worsens_initial_solution() {
        let h = dumbbell();
        // Start from the optimal solution; refinement must keep cut = 1.
        let mut p = Partition::from_assignment(&h, 2, vec![0, 0, 0, 0, 1, 1, 1, 1]).unwrap();
        let mut rng = seeded_rng(0);
        let r = refine(
            &h,
            &mut p,
            &FmConfig::default(),
            &mut rng,
            RefineRequest::default(),
        )
        .unwrap();
        assert_eq!(r.cut, 1);
        assert_eq!(metrics::cut(&h, &p), 1);
        assert_eq!(r.passes, 1, "a pass from the optimum should not improve");
    }

    #[test]
    fn improves_bad_initial_solution() {
        let h = dumbbell();
        // Alternating assignment cuts 4 nets per clique plus the bridge.
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let start_cut = metrics::cut(&h, &p0);
        assert_eq!(start_cut, 9);
        let mut rng = seeded_rng(1);
        let mut p = p0;
        let r = refine(
            &h,
            &mut p,
            &FmConfig::default(),
            &mut rng,
            RefineRequest::default(),
        )
        .unwrap();
        assert!(r.cut < start_cut);
        assert_eq!(r.cut, 1);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn result_cut_matches_metrics() {
        let h = chain(30);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, r) =
                fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default()).unwrap();
            assert_eq!(r.cut, metrics::cut(&h, &p));
            assert_eq!(r.internal_cut, r.cut, "no large nets in this netlist");
        }
    }

    #[test]
    fn large_nets_ignored_internally_but_counted() {
        // A 5-pin net plus 2-pin nets; set max_net_size = 4 so the big net is
        // invisible to the engine but counted in the reported cut.
        let mut b = HypergraphBuilder::with_unit_areas(6);
        b.add_net([0, 1, 2, 3, 4]).unwrap();
        b.add_net([0, 1]).unwrap();
        b.add_net([4, 5]).unwrap();
        let h = b.build().unwrap();
        let cfg = FmConfig {
            max_net_size: 4,
            ..FmConfig::default()
        };
        let mut rng = seeded_rng(2);
        let (p, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert_eq!(r.internal_cut, metrics::cut_with_net_size_limit(&h, &p, 4));
        assert!(r.internal_cut <= r.cut);
    }

    #[test]
    fn clip_pass_seeds_bucket_zero() {
        // White-box: after fill_buckets with CLIP, every module sits at key 0
        // and the head of bucket 0 has the maximum initial gain.
        let h = dumbbell();
        let cfg = FmConfig {
            engine: Engine::Clip,
            ..FmConfig::default()
        };
        let mut ctx = RefineState::default();
        bind_bipart(&mut ctx, &h, &cfg, &[]).unwrap();
        let p = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        ctx.recompute(&h, &p);
        ctx.fill_buckets(&h, &p, &cfg);
        let members = ctx.buckets[0].bucket_members(0, BOTH_SIDES);
        assert_eq!(members.len(), h.num_modules());
        let head_gain = ctx.gain0[members[0].index()];
        let max_gain = ctx.gain0.iter().copied().max().unwrap();
        assert_eq!(head_gain, max_gain);
        // Descending order head -> tail.
        for w in members.windows(2) {
            assert!(ctx.gain0[w[0].index()] >= ctx.gain0[w[1].index()]);
        }
    }

    /// `v`'s gain from the current `pins_in`, walked over its own nets: the
    /// per-module reference for `recompute`'s net-major walk.
    fn recompute_gain_of(st: &RefineState, h: &Hypergraph, p: &Partition, v: ModuleId) -> i32 {
        let s = p.part(v) as usize;
        let o = 1 - s;
        let mut g = 0i32;
        for &e in h.nets(v) {
            if !st.visible[e.index()] {
                continue;
            }
            let w = h.net_weight(e) as i32;
            if st.pins_in[2 * e.index() + s] == 1 {
                g += w;
            }
            if st.pins_in[2 * e.index() + o] == 0 {
                g -= w;
            }
        }
        g
    }

    #[test]
    fn initial_gains_match_definition() {
        // Hand-checked gains on a 4-module netlist.
        // nets: {0,1}, {1,2}, {2,3}; partition 0,0 | 1,1.
        let h = chain(4);
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut ctx = RefineState::default();
        bind_bipart(&mut ctx, &h, &cfg, &[]).unwrap();
        let cut = ctx.recompute(&h, &p);
        assert_eq!(cut, 1);
        // g(0): net {0,1} uncut, moving 0 cuts it -> -1.
        // g(1): net {0,1} would become... pins_in({0,1}) = [2,0]; v=1 side 0:
        //   c[s]=2 no, c[o]=0 -> -1; net {1,2}: [1,1], c[s]==1 -> +1. total 0.
        assert_eq!(ctx.gain[0], -1);
        assert_eq!(ctx.gain[1], 0);
        assert_eq!(ctx.gain[2], 0);
        assert_eq!(ctx.gain[3], -1);

        // Weighted nets of mixed sizes: the net-by-net init gives every
        // module the gain of a walk over its own nets, and `gain0` too.
        let mut b = HypergraphBuilder::with_unit_areas(7);
        b.add_weighted_net([0, 1], 2).unwrap();
        b.add_weighted_net([1, 2, 3], 3).unwrap();
        b.add_net([2, 3, 4, 5]).unwrap();
        b.add_weighted_net([5, 6], 4).unwrap();
        b.add_net([0, 6, 3]).unwrap();
        let h = b.build().unwrap();
        let p = Partition::from_assignment(&h, 2, vec![0, 1, 1, 0, 0, 0, 1]).unwrap();
        bind_bipart(&mut ctx, &h, &cfg, &[]).unwrap();
        ctx.recompute(&h, &p);
        let gains = ctx.gain.clone();
        assert_eq!(ctx.gain0, gains);
        for v in h.modules() {
            assert_eq!(
                recompute_gain_of(&ctx, &h, &p, v),
                gains[v.index()],
                "{v:?}"
            );
        }
    }

    #[test]
    fn early_exit_stall_terminates_and_is_feasible() {
        let h = chain(60);
        let cfg = FmConfig {
            early_exit_stall: Some(5),
            ..FmConfig::default()
        };
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.balance_r);
        let mut rng = seeded_rng(4);
        let (p, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert!(bal.is_partition_feasible(&p));
        assert!(r.cut >= 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let h = dumbbell();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default()).unwrap()
        };
        let (p1, r1) = run(77);
        let (p2, r2) = run(77);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn single_module_netlist() {
        let h = HypergraphBuilder::with_unit_areas(1).build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) =
            fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default()).unwrap();
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }

    #[test]
    fn netlist_with_no_nets() {
        let h = HypergraphBuilder::with_unit_areas(10).build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) =
            fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default()).unwrap();
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn weighted_modules_respect_balance() {
        let mut b = HypergraphBuilder::new(vec![5, 1, 1, 1, 1, 1, 5, 1, 1, 1, 1, 1]);
        for i in 0..5usize {
            b.add_net([i, i + 1]).unwrap();
            b.add_net([i + 6, i + 7]).unwrap();
        }
        b.add_net([5, 6]).unwrap();
        let h = b.build().unwrap();
        let cfg = FmConfig::default();
        let bal = PartBounds::from_epsilon(&h, 2, 2.0 * cfg.balance_r);
        let mut rng = seeded_rng(9);
        let (p, _) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert!(bal.is_partition_feasible(&p));
    }

    /// Three weight-3 edges {0, 1}, {2, 3}, {4, 5}, bound and filled, with
    /// their cut. With `opposite` module 1 sits opposite module 0, else
    /// beside it. Modules 2 and 3 sit together (gain −3) and 4 and 5 apart
    /// (gain +3), so the keys module 1 reaches when module 0 moves are
    /// shared.
    fn edges_and_state(
        policy: BucketPolicy,
        opposite: bool,
    ) -> (Hypergraph, Partition, RefineState, FmConfig, u64) {
        let mut b = HypergraphBuilder::with_unit_areas(6);
        for pair in [[0, 1], [2, 3], [4, 5]] {
            b.add_weighted_net(pair, 3).unwrap();
        }
        let h = b.build().unwrap();
        let p =
            Partition::from_assignment(&h, 2, vec![0, u32::from(opposite), 0, 0, 1, 0]).unwrap();
        let cfg = FmConfig {
            policy,
            ..FmConfig::default()
        };
        let mut st = RefineState::default();
        bind_bipart(&mut st, &h, &cfg, &[]).unwrap();
        let cut = st.recompute(&h, &p);
        st.fill_buckets(&h, &p, &cfg);
        (h, p, st, cfg, cut)
    }

    #[test]
    fn two_pin_net_updates_its_other_pin_once_by_twice_the_weight() {
        let (v, u) = (ModuleId::new(0), ModuleId::new(1));
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo, BucketPolicy::Random] {
            // Module 1 beside module 0 gains 6 (the edge becomes cut);
            // opposite it, it loses 6 (the edge becomes uncut).
            for (opposite, delta) in [(false, 6), (true, -6)] {
                let (h, mut p, mut st, cfg, mut cut) = edges_and_state(policy, opposite);
                let cut_before = cut;
                let before = st.gain[u.index()];
                // Where the two single-term updates, back to back, file u.
                let mut want = st.buckets[0].clone();
                want.remove(v);
                want.update_key(u, before + delta / 2);
                want.update_key(u, before + delta);
                st.apply_move(&h, &mut p, v, &cfg, &mut cut);
                assert_eq!(st.gain[u.index()], before + delta, "{policy} {opposite}");
                assert_eq!(st.updates, 1);
                assert_eq!(cut as i64, cut_before as i64 + i64::from(delta / 2));
                for key in -st.key_bound..=st.key_bound {
                    let got = st.buckets[0].bucket_members(key, BOTH_SIDES);
                    assert_eq!(
                        got,
                        want.bucket_members(key, BOTH_SIDES),
                        "{policy} key {key}"
                    );
                }
                let bucket = st.buckets[0].bucket_members(before + delta, BOTH_SIDES);
                assert_eq!(
                    bucket.len(),
                    3,
                    "module 1 joins the two modules at its new key"
                );
                match policy {
                    BucketPolicy::Lifo => assert_eq!(bucket.first(), Some(&u)),
                    BucketPolicy::Fifo => assert_eq!(bucket.last(), Some(&u)),
                    BucketPolicy::Random => {}
                }
            }
        }
    }

    #[cfg(feature = "audit")]
    #[test]
    fn move_audit_names_a_corrupted_neighbour_gain() {
        let (h, mut p, mut st, cfg, mut cut) = edges_and_state(BucketPolicy::Lifo, false);
        let (v, u) = (ModuleId::new(0), ModuleId::new(1));
        st.apply_move(&h, &mut p, v, &cfg, &mut cut);
        assert_eq!(crate::audit::audit_move(&st, &h, &p, &cfg, v), Ok(()));
        // Keep the key consistent with the corrupt gain so the gain
        // recomputation itself is what fires.
        st.gain[u.index()] -= 1;
        st.buckets[0].update_key(u, st.gain[u.index()]);
        let e = crate::audit::audit_move(&st, &h, &p, &cfg, v).unwrap_err();
        assert_eq!((e.check, e.module), ("gain-recompute", Some(1)));
    }

    /// Refines `p0` on `h` under `req`, expecting `err` with the
    /// partition and the RNG stream untouched.
    pub(super) fn assert_rejected(
        h: &Hypergraph,
        p0: &Partition,
        req: RefineRequest<'_>,
        err: RefineError,
    ) {
        use rand::Rng;
        let mut p = p0.clone();
        let mut rng = seeded_rng(0);
        let r = refine(h, &mut p, &FmConfig::default(), &mut rng, req);
        assert_eq!(r, Err(err));
        assert_eq!(p.assignment(), p0.assignment());
        assert_eq!(rng.gen::<u64>(), seeded_rng(0).gen::<u64>());
    }

    #[test]
    fn rejects_bounds_of_wrong_arity() {
        let h = dumbbell();
        let p0 = Partition::random(&h, 2, &mut seeded_rng(0));
        let bounds = PartBounds::uniform(3, 0, 8);
        let req = RefineRequest {
            bounds: Some(&bounds),
            ..RefineRequest::default()
        };
        let err = RefineError::BoundsArity { bounds: 3, k: 2 };
        assert_rejected(&h, &p0, req, err);
    }

    #[test]
    fn rejects_partition_of_another_netlist() {
        let h = dumbbell();
        let p0 = Partition::from_assignment(
            &HypergraphBuilder::with_unit_areas(3).build().unwrap(),
            2,
            vec![0, 1, 0],
        )
        .unwrap();
        let err = RefineError::PartitionLength { len: 3, modules: 8 };
        assert_rejected(&h, &p0, RefineRequest::default(), err);
    }

    #[test]
    fn rejects_kway_input() {
        let h = chain(4);
        let p0 = Partition::from_assignment(&h, 4, vec![0, 1, 2, 3]).unwrap();
        let err = RefineError::KMismatch {
            expected: 2,
            got: 4,
        };
        assert_rejected(&h, &p0, RefineRequest::default(), err);
    }

    #[test]
    fn rejects_overweight_nets_before_drawing() {
        use rand::Rng;
        let mut b = HypergraphBuilder::with_unit_areas(4);
        for i in 0..4usize {
            b.add_weighted_net([i, (i + 1) % 4], 1_000_000_000).unwrap();
        }
        let h = b.build().unwrap();
        let mut rng = seeded_rng(5);
        let r = fm_partition(&h, &FmConfig::default(), &mut rng, RefineRequest::default());
        let err = RefineError::WeightsTooLarge {
            weight: 2_000_000_000,
            limit: i64::from(i32::MAX / 4),
        };
        assert_eq!(r.map(|_| ()), Err(err));
        assert_eq!(rng.gen::<u64>(), seeded_rng(5).gen::<u64>());
    }
}

#[cfg(test)]
mod constrained_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::ConstraintsError;
    use mlpart_hypergraph::HypergraphBuilder;

    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        b.build().unwrap()
    }

    /// Pins the modules `ids` to their parts in `p0`.
    fn pins(p0: &Partition, ids: &[usize]) -> Vec<(ModuleId, PartId)> {
        ids.iter()
            .map(|&i| (ModuleId::new(i), p0.part(ModuleId::new(i))))
            .collect()
    }

    fn run_constrained(
        h: &Hypergraph,
        p0: &Partition,
        cfg: &FmConfig,
        fixed: &[(ModuleId, PartId)],
        seed: u64,
    ) -> (Partition, FmResult) {
        let bounds = PartBounds::from_epsilon(h, 2, 2.0 * cfg.balance_r);
        let mut p = p0.clone();
        let req = RefineRequest {
            bounds: Some(&bounds),
            fixed,
            ..RefineRequest::default()
        };
        let r = refine(h, &mut p, cfg, &mut seeded_rng(seed), req).unwrap();
        (p, r)
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn empty_fixed_set_is_byte_identical_to_legacy_refine() {
        let h = dumbbell();
        for engine in [Engine::Fm, Engine::Clip] {
            let cfg = FmConfig {
                engine,
                ..FmConfig::default()
            };
            for seed in 0..6 {
                let p0 = Partition::random(&h, 2, &mut seeded_rng(1000 + seed));
                let mut p_legacy = p0.clone();
                let r_legacy = refine(
                    &h,
                    &mut p_legacy,
                    &cfg,
                    &mut seeded_rng(seed),
                    RefineRequest::default(),
                )
                .unwrap();
                let (p_new, r_new) = run_constrained(&h, &p0, &cfg, &[], seed);
                assert_eq!(p_legacy.assignment(), p_new.assignment(), "seed {seed}");
                assert_eq!(r_legacy, r_new, "seed {seed}");
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn fixed_modules_never_move() {
        let h = dumbbell();
        // Pin one module of each clique to the "wrong" side: refinement must
        // work around them, never through them.
        let p0 = Partition::from_assignment(&h, 2, vec![1, 0, 0, 0, 1, 1, 1, 0]).unwrap();
        let fixed = pins(&p0, &[0, 7]);
        for engine in [Engine::Fm, Engine::Clip] {
            let cfg = FmConfig {
                engine,
                ..FmConfig::default()
            };
            for seed in 0..8 {
                let (p, r) = run_constrained(&h, &p0, &cfg, &fixed, seed);
                assert_eq!(p.part(ModuleId::new(0)), 1, "seed {seed}");
                assert_eq!(p.part(ModuleId::new(7)), 0, "seed {seed}");
                assert_eq!(r.cut, metrics::cut(&h, &p));
                assert!(p.validate(&h));
            }
        }
    }

    #[test]
    fn narrow_window_bounds_are_respected() {
        let h = dumbbell();
        // Exact bisection only: lo = hi = 4 on both sides.
        let bounds = PartBounds::uniform(2, 4, 4);
        let mut p = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let req = RefineRequest {
            bounds: Some(&bounds),
            ..RefineRequest::default()
        };
        refine(&h, &mut p, &FmConfig::default(), &mut seeded_rng(3), req).unwrap();
        assert!(bounds.is_partition_feasible(&p));
    }

    #[test]
    fn all_fixed_leaves_partition_untouched() {
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let fixed = pins(&p0, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let (p, r) = run_constrained(&h, &p0, &FmConfig::default(), &fixed, 0);
        assert_eq!(p.assignment(), p0.assignment());
        assert_eq!(r.kept_moves, 0);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_accepts_fixed_runs() {
        mlpart_audit::force_enabled(true);
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![1, 0, 0, 0, 1, 1, 1, 0]).unwrap();
        let (p, _) = run_constrained(&h, &p0, &FmConfig::default(), &pins(&p0, &[0]), 2);
        mlpart_audit::force_enabled(false);
        assert_eq!(p.part(ModuleId::new(0)), 1);
    }

    #[test]
    fn rejects_fixed_module_out_of_range() {
        let h = dumbbell();
        let p0 = Partition::random(&h, 2, &mut seeded_rng(0));
        let req = RefineRequest {
            fixed: &[(ModuleId::new(8), 0)],
            ..RefineRequest::default()
        };
        let err = ConstraintsError::ModuleOutOfRange {
            module: 8,
            modules: 8,
        };
        super::tests::assert_rejected(&h, &p0, req, err.into());
    }

    #[test]
    fn rejects_fixed_part_out_of_range() {
        let h = dumbbell();
        let p0 = Partition::random(&h, 2, &mut seeded_rng(0));
        let req = RefineRequest {
            fixed: &[(ModuleId::new(3), 2)],
            ..RefineRequest::default()
        };
        let err = ConstraintsError::PartOutOfRange {
            module: 3,
            part: 2,
            k: 2,
        };
        super::tests::assert_rejected(&h, &p0, req, err.into());
    }
}
