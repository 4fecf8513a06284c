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
//!   ([`BipartBalance`]); every prefix of the move sequence is feasible
//!   because each move is feasibility-checked. Before each LIFO/FIFO pick
//!   an exact side gate closes a side that can give up no module of any
//!   area, so selection never checks that side's modules; the picks are
//!   the ones an ungated walk makes.
//! * **Large nets** (§III-B): nets with more than
//!   [`max_net_size`](FmConfig::max_net_size) (default 200) pins are ignored
//!   by the engine and re-inserted when measuring solution quality.
//! * **CLIP** (§II-B, after Dutt-Deng): after initial gains are computed the
//!   buckets are concatenated in descending-gain order into bucket zero, so
//!   selection is driven by *gain deltas* since the pass began; the bucket
//!   index range doubles.
//!
//! The paper's §V future-work items are available as options:
//! [`FmConfig::boundary_init`] (only modules on cut nets enter the buckets
//! initially) and [`FmConfig::early_exit_stall`] (abandon a pass after a run
//! of non-improving moves).

use crate::bucket::{BucketPolicy, Filing, OpenClasses};
use crate::request::{expect_valid, RefineError, RefineRequest, RequestParts};
use crate::state::{GainSpread, PassStats, RefineState, RefineWorkspace};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    audit, metrics, obs_counter, obs_span, BipartBalance, Hypergraph, ModuleId, NetId, PartBounds,
    PartId, Partition,
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
    /// §V extension: initialize buckets with only the modules incident to cut
    /// nets; other modules enter the structure when a neighboring move first
    /// changes their gain.
    pub boundary_init: bool,
    /// §II-B extension (Dutt-Deng's CDIP): when the move sequence since the
    /// last best solution accumulates `Some(window)` moves without a new
    /// best, the sequence is rolled back, its first module is locked out,
    /// and the pass continues from a different seed — "backing up ...
    /// prevents continuing an entire pass in which positive gain is unlikely
    /// to be realized". `None` (the default) disables backtracking.
    pub cdip_window: Option<usize>,
    /// §V extension: Krishnamurthy-style lookahead tie-breaking. Among the
    /// feasible modules of the best bucket, pick the one whose move creates
    /// the most follow-up gain for its neighbors (second-level gain:
    /// `Σ_e [pins_from(e) = 2] − [pins_to(e) = 1]`). The paper notes that
    /// lookahead does not help plain-LIFO FM but "its impact increases
    /// dramatically when using CLIP"; it costs extra selection time.
    pub lookahead: bool,
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
            boundary_init: false,
            cdip_window: None,
            lookahead: false,
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
    let ratio = || PartBounds::from_bipart(&BipartBalance::new(h, cfg.balance_r));
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
    FmResult {
        cut: metrics::cut(h, p),
        internal_cut: metrics::cut_with_net_size_limit(h, p, cfg.max_net_size),
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

/// Both sides open: the view for an ungated pick.
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
    /// Recomputes `pins_in` and `gain` from scratch (the paper's
    /// implementation reinitializes the entire structure before each pass).
    /// Returns the visible-net (weighted) cut.
    fn recompute(&mut self, h: &Hypergraph, p: &Partition) -> u64 {
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
            if counts[0] > 0 && counts[1] > 0 {
                cut += h.net_weight(e) as u64;
            }
        }
        for v in h.modules() {
            let s = p.part(v) as usize;
            let o = 1 - s;
            let mut g = 0i32;
            for &e in h.nets(v) {
                if !self.visible[e.index()] {
                    continue;
                }
                let w = h.net_weight(e) as i32;
                if self.pins_in[2 * e.index() + s] == 1 {
                    g += w;
                }
                if self.pins_in[2 * e.index() + o] == 0 {
                    g -= w;
                }
            }
            self.gain[v.index()] = g;
            self.gain0[v.index()] = g;
        }
        cut
    }

    /// Recomputes `gain[v]` from the current `pins_in` (used when a module
    /// re-enters the structure after a CDIP rollback; its stored gain went
    /// stale while it was locked).
    fn recompute_gain_of(&mut self, h: &Hypergraph, p: &Partition, v: ModuleId) {
        let s = p.part(v) as usize;
        let o = 1 - s;
        let mut g = 0i32;
        for &e in h.nets(v) {
            if !self.visible[e.index()] {
                continue;
            }
            let w = h.net_weight(e) as i32;
            if self.pins_in[2 * e.index() + s] == 1 {
                g += w;
            }
            if self.pins_in[2 * e.index() + o] == 0 {
                g -= w;
            }
        }
        self.gain[v.index()] = g;
    }

    fn bucket_key(&self, v: ModuleId, engine: Engine) -> i32 {
        match engine {
            Engine::Fm => self.gain[v.index()],
            Engine::Clip => self.gain[v.index()] - self.gain0[v.index()],
        }
    }

    /// Loads the bucket structure for a fresh pass.
    fn fill_buckets(&mut self, h: &Hypergraph, p: &Partition, cfg: &FmConfig) {
        self.buckets[0].clear();
        // Which modules enter initially? Fixed modules never do.
        let eligible = |ctx: &Self, v: ModuleId| -> bool {
            if ctx.fixed[v.index()] {
                return false;
            }
            if !cfg.boundary_init {
                return true;
            }
            h.nets(v).iter().any(|e| {
                ctx.visible[e.index()]
                    && ctx.pins_in[2 * e.index()] > 0
                    && ctx.pins_in[2 * e.index() + 1] > 0
            })
        };
        match cfg.engine {
            Engine::Fm => {
                for v in h.modules() {
                    if eligible(self, v) {
                        self.buckets[0].insert(v, p.part(v) as usize, self.gain[v.index()]);
                    }
                }
            }
            Engine::Clip => {
                // Concatenate in descending initial gain into bucket 0. For
                // LIFO (insert-at-head) we insert ascending so the largest
                // initial gain ends at the head; FIFO/Random append at the
                // tail so we insert descending.
                let mut order: Vec<ModuleId> = h.modules().filter(|&v| eligible(self, v)).collect();
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
        if self.buckets[0].contains(v) {
            self.buckets[0].remove(v);
        }
        self.shift_module(h, p, v, cfg, cut);
    }

    /// The raw state updates of moving `v` to the other side: partition,
    /// `pins_in`, neighbor gains, running cut. Shared by forward moves and
    /// CDIP's backtracking undo (the updates are their own inverse).
    fn shift_module(
        &mut self,
        h: &Hypergraph,
        p: &mut Partition,
        v: ModuleId,
        cfg: &FmConfig,
        cut: &mut u64,
    ) {
        let from = p.part(v) as usize;
        let to = 1 - from;
        p.move_module(h, v, to as u32);
        for &e in h.nets(v) {
            if !self.visible[e.index()] {
                continue;
            }
            let ei = e.index();
            let w = h.net_weight(e) as i32;
            // Before the pin flip.
            let t_before = self.pins_in[2 * ei + to];
            if t_before == 0 {
                *cut += w as u64;
                // Net was uncut on `from`; every other pin gains desire to
                // follow (their "net becomes uncut if I move" term appears).
                self.bump_net_gains(h, p, e, v, w, cfg);
            } else if t_before == 1 {
                // The lone pin on `to` no longer saves the net by moving.
                self.bump_single_side_gain(h, p, e, v, to as u32, -w, cfg);
            }
            self.pins_in[2 * ei + from] -= 1;
            self.pins_in[2 * ei + to] += 1;
            // After the pin flip.
            let f_after = self.pins_in[2 * ei + from];
            if f_after == 0 {
                *cut -= w as u64;
                self.bump_net_gains(h, p, e, v, -w, cfg);
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
        p: &Partition,
        e: NetId,
        v: ModuleId,
        delta: i32,
        cfg: &FmConfig,
    ) {
        for &w in h.pins(e) {
            if w != v && !self.locked[w.index()] {
                self.change_gain(p, w, delta, cfg);
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
                    self.change_gain(p, w, delta, cfg);
                }
                break;
            }
        }
    }

    /// Adds `delta` to the gain of `w` and re-files it under its stored
    /// side; only a module entering the structure reads its side from `p`.
    fn change_gain(&mut self, p: &Partition, w: ModuleId, delta: i32, cfg: &FmConfig) {
        self.gain[w.index()] += delta;
        let key = self.bucket_key(w, cfg.engine);
        if self.buckets[0].contains(w) {
            self.buckets[0].update_key(w, key);
        } else {
            // Boundary mode: a module touched by a move enters the structure.
            self.buckets[0].insert(w, p.part(w) as usize, key);
        }
    }

    /// Second-level (lookahead) gain: how much immediate gain the move of
    /// `v` would create for its still-unlocked neighbors. A net with exactly
    /// two pins on `v`'s side is one move away from granting a +1 to the
    /// remaining pin; a net with exactly one pin on the destination side is
    /// about to lose that pin's +1.
    fn second_level_gain(&self, h: &Hypergraph, p: &Partition, v: ModuleId) -> i32 {
        let from = p.part(v) as usize;
        let to = 1 - from;
        let mut g = 0i32;
        for &e in h.nets(v) {
            if !self.visible[e.index()] {
                continue;
            }
            let w = h.net_weight(e) as i32;
            if self.pins_in[2 * e.index() + from] == 2 {
                g += w;
            }
            if self.pins_in[2 * e.index() + to] == 1 {
                g -= w;
            }
        }
        g
    }

    /// Lookahead selection: find the highest bucket with a feasible member,
    /// then break ties inside it by the second-level gain (bucket order
    /// breaks remaining ties: list order under LIFO/FIFO, the arbitrary
    /// array order under Random).
    fn select_lookahead<F>(
        &mut self,
        h: &Hypergraph,
        p: &Partition,
        mut feasible: F,
    ) -> Option<ModuleId>
    where
        F: FnMut(ModuleId) -> bool,
    {
        let top = self.buckets[0].max_key()?;
        let mut key = top;
        while key >= -self.key_bound {
            let members = self.buckets[0].bucket_members(key, BOTH_SIDES);
            let mut best: Option<(i32, ModuleId)> = None;
            for v in members {
                if !feasible(v) {
                    continue;
                }
                let g2 = self.second_level_gain(h, p, v);
                match best {
                    Some((bg, _)) if bg >= g2 => {}
                    _ => best = Some((g2, v)),
                }
            }
            if let Some((_, v)) = best {
                return Some(v);
            }
            key -= 1;
        }
        None
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
        // Random and lookahead picks stay ungated.
        let gated = cfg.policy != BucketPolicy::Random && !cfg.lookahead;
        let mut cut = start_cut;
        let mut best_cut = start_cut;
        let mut best_len = 0usize;
        let mut stall = 0usize;
        let mut backtracks = 0usize;
        let mut inspected = 0u64;
        // Each backtrack permanently locks one seed module, so the pass
        // still terminates; the cap keeps worst cases cheap.
        let max_backtracks = h.num_modules().min(64);
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
                if cfg.lookahead {
                    self.select_lookahead(h, p, check)
                } else {
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
                }
            };
            let Some(v) = pick else { break };
            let from = p.part(v);
            self.apply_move(h, p, v, cfg, &mut cut);
            self.moves.push((v, from));
            if cut < best_cut {
                best_cut = cut;
                best_len = self.moves.len();
                stall = 0;
            } else {
                stall += 1;
            }
            // CDIP backtracking: a window of moves without a new best means
            // this sequence is going nowhere — undo it, lock out its seed,
            // and let selection pick a different cluster to chase.
            if let Some(window) = cfg.cdip_window {
                if self.moves.len() - best_len >= window.max(1) && backtracks < max_backtracks {
                    backtracks += 1;
                    let seed = self.moves[best_len].0;
                    let undo: Vec<(ModuleId, u32)> = self.moves[best_len..].to_vec();
                    for &(u, from_part) in undo.iter().rev() {
                        debug_assert_ne!(p.part(u), from_part);
                        self.shift_module(h, p, u, cfg, &mut cut);
                        if u != seed {
                            // Rejoin the pass with a fresh gain; the stored
                            // one went stale while locked.
                            self.locked[u.index()] = false;
                            self.recompute_gain_of(h, p, u);
                            let key = self.bucket_key(u, cfg.engine);
                            self.buckets[0].insert(u, p.part(u) as usize, key);
                        }
                    }
                    self.moves.truncate(best_len);
                    // In audit builds this runs in release too (the
                    // debug_assert it replaces was debug-only).
                    audit!(mlpart_audit::check_counter(
                        "RefineState",
                        "cdip-backtrack-cut",
                        cut,
                        best_cut,
                    )
                    .map_err(|e| e.with_pass(pass_no)));
                    debug_assert_eq!(cut, best_cut);
                    stall = 0;
                }
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
                "backtracks" => backtracks,
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
        let bal = BipartBalance::new(&h, cfg.balance_r);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, _) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
            assert!(
                bal.is_partition_feasible(&p),
                "seed {seed}: areas {:?} outside [{}, {}]",
                p.part_areas(),
                bal.lower(),
                bal.upper()
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
    }

    #[test]
    fn boundary_init_reaches_same_quality_on_dumbbell() {
        let h = dumbbell();
        let cfg = FmConfig {
            boundary_init: true,
            ..FmConfig::default()
        };
        let best = (0..8)
            .map(|s| {
                let mut rng = seeded_rng(100 + s);
                fm_partition(&h, &cfg, &mut rng, RefineRequest::default())
                    .unwrap()
                    .1
                    .cut
            })
            .min()
            .unwrap();
        assert_eq!(best, 1);
    }

    #[test]
    fn early_exit_stall_terminates_and_is_feasible() {
        let h = chain(60);
        let cfg = FmConfig {
            early_exit_stall: Some(5),
            ..FmConfig::default()
        };
        let bal = BipartBalance::new(&h, cfg.balance_r);
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
        let bal = BipartBalance::new(&h, cfg.balance_r);
        let mut rng = seeded_rng(9);
        let (p, _) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert!(bal.is_partition_feasible(&p));
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
        let bounds = PartBounds::from_bipart(&BipartBalance::new(h, cfg.balance_r));
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
        for (engine, extra) in [
            (Engine::Fm, false),
            (Engine::Clip, false),
            (Engine::Fm, true),
        ] {
            let cfg = FmConfig {
                engine,
                boundary_init: extra,
                cdip_window: extra.then_some(4),
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
            for boundary_init in [false, true] {
                let cfg = FmConfig {
                    engine,
                    boundary_init,
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
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn fixed_modules_survive_cdip_backtracking() {
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let fixed = pins(&p0, &[2, 5]);
        let cfg = FmConfig {
            cdip_window: Some(1),
            ..FmConfig::default()
        };
        for seed in 0..6 {
            let (p, _) = run_constrained(&h, &p0, &cfg, &fixed, seed);
            assert_eq!(p.part(ModuleId::new(2)), 0, "seed {seed}");
            assert_eq!(p.part(ModuleId::new(5)), 1, "seed {seed}");
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

#[cfg(test)]
mod lookahead_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
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

    #[test]
    fn lookahead_finds_optimum() {
        let h = dumbbell();
        for engine in [Engine::Fm, Engine::Clip] {
            let cfg = FmConfig {
                engine,
                lookahead: true,
                ..FmConfig::default()
            };
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
            assert_eq!(best, 1, "engine {engine}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn lookahead_respects_balance_and_reporting() {
        let mut b = HypergraphBuilder::with_unit_areas(40);
        for i in 0..39usize {
            b.add_net([i, i + 1]).unwrap();
            b.add_net([i, (i + 7) % 40]).unwrap();
        }
        let h = b.build().unwrap();
        let cfg = FmConfig {
            lookahead: true,
            ..FmConfig::default()
        };
        let bal = BipartBalance::new(&h, cfg.balance_r);
        for seed in 0..4 {
            let mut rng = seeded_rng(seed);
            let (p, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
            assert!(bal.is_partition_feasible(&p));
            assert_eq!(r.cut, metrics::cut(&h, &p));
        }
    }

    #[test]
    fn lookahead_is_deterministic() {
        let h = dumbbell();
        let cfg = FmConfig {
            engine: Engine::Clip,
            lookahead: true,
            ..FmConfig::default()
        };
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap()
        };
        let (p1, r1) = run(33);
        let (p2, r2) = run(33);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn second_level_gain_hand_checked() {
        // Chain 0-1-2-3, partition 0,0 | 1,1.
        // For v=1 (side 0): net {0,1}: pins_in[0]=2 -> +1; net {1,2}:
        // pins_in[to]=pins_in[1]=1 -> -1. g2(1) = 0.
        // For v=0: net {0,1}: pins_in[0]=2 -> +1; g2(0) = 1.
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 1]).unwrap();
        b.add_net([1, 2]).unwrap();
        b.add_net([2, 3]).unwrap();
        let h = b.build().unwrap();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut ctx = RefineState::default();
        bind_bipart(&mut ctx, &h, &cfg, &[]).unwrap();
        ctx.recompute(&h, &p);
        assert_eq!(ctx.second_level_gain(&h, &p, ModuleId::new(1)), 0);
        assert_eq!(ctx.second_level_gain(&h, &p, ModuleId::new(0)), 1);
    }
}

#[cfg(test)]
mod cdip_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
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

    fn cdip_cfg(engine: Engine) -> FmConfig {
        FmConfig {
            engine,
            cdip_window: Some(4),
            ..FmConfig::default()
        }
    }

    #[test]
    fn cdip_finds_optimum_on_dumbbell() {
        let h = dumbbell();
        for engine in [Engine::Fm, Engine::Clip] {
            let best = (0..8)
                .map(|s| {
                    let mut rng = seeded_rng(s);
                    fm_partition(&h, &cdip_cfg(engine), &mut rng, RefineRequest::default())
                        .unwrap()
                        .1
                        .cut
                })
                .min()
                .unwrap();
            assert_eq!(best, 1, "engine {engine}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn cdip_respects_balance_and_reporting() {
        let mut b = HypergraphBuilder::with_unit_areas(60);
        for i in 0..59usize {
            b.add_net([i, i + 1]).unwrap();
            b.add_net([i, (i + 9) % 60]).unwrap();
        }
        let h = b.build().unwrap();
        let cfg = cdip_cfg(Engine::Clip);
        let bal = BipartBalance::new(&h, cfg.balance_r);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
            assert!(bal.is_partition_feasible(&p), "seed {seed}");
            assert_eq!(r.cut, metrics::cut(&h, &p), "seed {seed}");
            assert!(p.validate(&h));
        }
    }

    #[test]
    fn cdip_never_worse_than_initial() {
        let h = dumbbell();
        let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
        let start = metrics::cut(&h, &p0);
        let mut rng = seeded_rng(4);
        let mut p = p0;
        let r = refine(
            &h,
            &mut p,
            &cdip_cfg(Engine::Fm),
            &mut rng,
            RefineRequest::default(),
        )
        .unwrap();
        assert!(r.cut <= start);
    }

    #[test]
    fn cdip_deterministic() {
        let h = dumbbell();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            fm_partition(
                &h,
                &cdip_cfg(Engine::Clip),
                &mut rng,
                RefineRequest::default(),
            )
            .unwrap()
        };
        let (p1, r1) = run(17);
        let (p2, r2) = run(17);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    fn cdip_pass_terminates_on_pathological_window() {
        // window = 1 triggers backtracking aggressively; must still halt.
        let h = dumbbell();
        let cfg = FmConfig {
            cdip_window: Some(1),
            ..FmConfig::default()
        };
        let mut rng = seeded_rng(2);
        let (p, r) = fm_partition(&h, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert!(p.validate(&h));
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }
}
