//! Multi-way (k-way) move-based partitioning: Sanchis-style FM without
//! lookahead, as used by the paper's quadrisection experiments (§III-C).
//!
//! The paper extends its multilevel code to 4-way partitioning using "the
//! quadrisection algorithm of Sanchis \[39\] but without lookahead", with
//! *sum of cluster degrees*, *net cut*, and generic gain computations; its
//! Table IX results use the sum-of-degrees gain. This crate implements the
//! move engine: per-destination gain buckets, k-way balance, pre-assigned
//! (fixed) modules for I/O pads, and pass-with-rollback semantics identical
//! to the 2-way engine.
//!
//! Gains are kept exact the way the 2-way engine keeps them: each pass
//! fills the buckets with every module's gain to every part, and after each
//! move only the changed net terms are added to the free neighbours' keys.
//! A module's gain sums, over its nets, a *leave* term of the net's pin
//! count in its own part and an *enter* term of the count in the
//! destination; a move from `a` to `b` changes only the counts in `a` and
//! `b`, so only those terms need updating.
//!
//! Selection follows Sanchis in filing each move by source and destination
//! block: each destination's bucket structure files a module under its
//! current part. A destination too full for the smallest module is skipped,
//! and so is every module of a source part that cannot give up even the
//! smallest one: its class is closed. Both gates drop only candidates the
//! balance check would reject, so they change no pick, only the number of
//! candidates checked. Under LIFO and FIFO, a probe also walks only the
//! keys above the pick found so far, since no candidate below can beat it.
//!
//! # Examples
//!
//! Quadrisect a ring of four cliques:
//!
//! ```
//! use mlpart_fm::RefineRequest;
//! use mlpart_kway::{kway_partition, KwayConfig};
//! use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(16);
//! for c in 0..4usize {
//!     for i in 0..4usize {
//!         for j in (i + 1)..4 {
//!             b.add_net([4 * c + i, 4 * c + j])?;
//!         }
//!     }
//!     b.add_net([4 * c + 3, (4 * c + 4) % 16])?; // ring links
//! }
//! let h = b.build()?;
//! let mut best = u64::MAX;
//! for s in 0..8 {
//!     let mut rng = seeded_rng(s);
//!     let cfg = KwayConfig::default();
//!     let (_, r) = kway_partition(&h, 4, &cfg, &mut rng, RefineRequest::default())?;
//!     best = best.min(r.cut);
//! }
//! assert_eq!(best, 4); // only the ring links are cut
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "audit")]
pub mod audit;

use mlpart_fm::{
    BucketPolicy, BudgetMeter, Filing, GainSpread, OpenClasses, PassStats, RefineError,
    RefineRequest, RefineState, RefineWorkspace,
};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{
    audit, metrics, obs_counter, obs_span, Hypergraph, KwayBalance, ModuleId, NetId, PartBounds,
    PartId, Partition,
};
use std::borrow::Cow;

/// Which gain computation drives the k-way engine (§III-C lists the paper's
/// three options; Table IX is reported with [`SumOfDegrees`](Self::SumOfDegrees)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KwayGain {
    /// Gain = reduction in `Σ_e (span(e) − 1)`. Moving a module out of a part
    /// where it is a net's lone pin shrinks that net's span; moving into a
    /// part the net does not touch grows it.
    #[default]
    SumOfDegrees,
    /// Gain = reduction in the number of cut nets. A net only scores when the
    /// move makes it entirely contained (or breaks containment), which gives
    /// sparser gradients than sum-of-degrees — the reason the paper prefers
    /// the latter for quadrisection.
    NetCut,
}

impl std::fmt::Display for KwayGain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KwayGain::SumOfDegrees => write!(f, "sum-of-degrees"),
            KwayGain::NetCut => write!(f, "net-cut"),
        }
    }
}

impl KwayGain {
    /// Per unit of net weight, a visible net's *leave* term in the gain of
    /// moving one of its pins out of a part that holds `n` of its `size`
    /// pins.
    fn leave(self, n: u32, size: u32) -> i32 {
        match self {
            KwayGain::SumOfDegrees => i32::from(n == 1),
            KwayGain::NetCut => -i32::from(n == size),
        }
    }

    /// Per unit of net weight, a visible net's *enter* term in the gain of
    /// moving one of its pins into a part that holds `n` of its `size` pins.
    fn enter(self, n: u32, size: u32) -> i32 {
        match self {
            KwayGain::SumOfDegrees => -i32::from(n == 0),
            KwayGain::NetCut => i32::from(n + 1 == size),
        }
    }

    /// Per unit of net weight, a visible net's share of the objective when
    /// it spans `span` parts.
    fn objective(self, span: u64) -> u64 {
        match self {
            KwayGain::SumOfDegrees => span.saturating_sub(1),
            KwayGain::NetCut => u64::from(span > 1),
        }
    }
}

/// Configuration for [`kway_partition`] / [`kway_refine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KwayConfig {
    /// Gain computation (Table IX uses sum-of-degrees).
    pub gain: KwayGain,
    /// Bucket tie-breaking policy; LIFO as in the 2-way engine.
    pub policy: BucketPolicy,
    /// Balance tolerance `r` (generalized §III-B bounds).
    pub balance_r: f64,
    /// Nets with more pins than this are invisible to the engine.
    pub max_net_size: usize,
    /// Safety cap on passes.
    pub max_passes: usize,
}

impl Default for KwayConfig {
    fn default() -> Self {
        KwayConfig {
            gain: KwayGain::SumOfDegrees,
            policy: BucketPolicy::Lifo,
            balance_r: 0.1,
            max_net_size: 200,
            max_passes: 64,
        }
    }
}

/// Outcome of a k-way refinement run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KwayResult {
    /// Final net cut over all nets.
    pub cut: u64,
    /// Final `Σ_e (span(e) − 1)` over all nets.
    pub sum_of_degrees: u64,
    /// Number of passes executed.
    pub passes: usize,
    /// Moves kept after rollback, summed over passes.
    pub kept_moves: u64,
    /// Per-pass instrumentation (objective trajectory, move counts,
    /// bucket-fill time). One entry per executed pass.
    pub pass_stats: Vec<PassStats>,
}

/// Repairs an infeasible k-way partition against per-part `[lo, hi]`
/// windows: repeatedly moves a random non-fixed module from the part with
/// the worst upper-bound overflow to the part with the worst lower-bound
/// deficit until `bounds` holds (or no move can help). Draws from `rng`
/// only while the partition is infeasible. Under uniform windows
/// ([`PartBounds::from_kway`]) the donor is the largest part and the
/// receiver the smallest, lowest id on ties.
///
/// `kway_partition` applies this to random starting solutions: on lumpy
/// area distributions the greedy random split can overfill a part, and
/// refinement alone cannot fix it (its best-prefix rollback may restore the
/// infeasible start).
///
/// Returns the modules moved.
///
/// # Errors
///
/// A [`RefineError`] when `p`, `bounds` or `fixed` does not fit `h`
/// ([`RefineRequest::check`] with `k = p.k()`); `p` and `rng` are then
/// untouched.
pub fn rebalance_to_bounds(
    h: &Hypergraph,
    p: &mut Partition,
    fixed: &[(ModuleId, PartId)],
    bounds: &PartBounds,
    rng: &mut MlRng,
) -> Result<usize, RefineError> {
    use rand::Rng;
    let k = p.k();
    let req = RefineRequest {
        bounds: Some(bounds),
        fixed,
        ..RefineRequest::default()
    };
    req.check(h, k, Some(p))?;
    let mut is_fixed = vec![false; h.num_modules()];
    for &(v, _) in fixed {
        if let Some(f) = is_fixed.get_mut(v.index()) {
            *f = true;
        }
    }
    let mut moved = 0usize;
    let mut attempts = 0usize;
    let max_attempts = 4 * h.num_modules() + 16;
    while !bounds.is_partition_feasible(p) && attempts < max_attempts {
        attempts += 1;
        // Donor: the part furthest above its window (overflow is measured
        // against `hi`, with ties broken by lowest part id); receiver: the
        // part furthest below. Parts already inside their window still
        // donate/receive by the same signed slack when nobody violates.
        let (mut big, mut small) = (0u32, 0u32);
        let slack = |part: u32| p.part_area(part) as i128 - bounds.hi(part) as i128;
        let deficit = |part: u32| bounds.lo(part) as i128 - p.part_area(part) as i128;
        for part in 1..k {
            if slack(part) > slack(big) {
                big = part;
            }
            if deficit(part) > deficit(small) {
                small = part;
            }
        }
        if big == small {
            break;
        }
        let v = ModuleId::new(rng.gen_range(0..h.num_modules()));
        if p.part(v) == big && !is_fixed[v.index()] {
            p.move_module(h, v, small);
            moved += 1;
        }
    }
    Ok(moved)
}

/// Partitions `h` into `k` parts from a random start: draws a random
/// `k`-way partition, moves the pins of `req.fixed` onto their parts (the
/// paper's I/O-pad pre-assignment), repairs the start into the balance
/// window with [`rebalance_to_bounds`], and [`kway_refine`]s it.
///
/// Returns the partition and run statistics.
///
/// # Errors
///
/// A [`RefineError`] when `k == 0`, the request does not fit `h`
/// ([`RefineRequest::check`]) or its net weights overflow the gain buckets;
/// nothing is then drawn from `rng`.
pub fn kway_partition(
    h: &Hypergraph,
    k: u32,
    cfg: &KwayConfig,
    rng: &mut MlRng,
    req: RefineRequest<'_>,
) -> Result<(Partition, KwayResult), RefineError> {
    start(h, k, None, cfg, rng, req)
}

/// Refines the k-way partition `p` in place: passes of moves, each keeping
/// its best move prefix, until a pass fails to improve the configured
/// objective or `req.meter` stops the run at a pass boundary (`p` then holds
/// the best solution so far).
///
/// Every prefix of a pass stays inside `req.bounds` (the uniform ratio
/// window from `cfg.balance_r` when `None`). The modules of `req.fixed`
/// never enter the gain buckets, so they stay on the part `p` gives them.
///
/// # Errors
///
/// A [`RefineError`] when `p` or the request does not fit `h`
/// ([`RefineRequest::check`] with `k = p.k()`) or the net weights overflow
/// the gain buckets; `p` and `rng` are then untouched.
pub fn kway_refine(
    h: &Hypergraph,
    p: &mut Partition,
    cfg: &KwayConfig,
    rng: &mut MlRng,
    req: RefineRequest<'_>,
) -> Result<KwayResult, RefineError> {
    let k = p.k();
    req.check(h, k, Some(p))?;
    req.with(|r| {
        bind_kway(&mut r.ws.state, h, k, cfg, r.fixed)?;
        let bounds = bounds_or_ratio(r.bounds, h, k, cfg);
        Ok(run(h, p, cfg, &bounds, rng, &mut r.ws.state, r.meter))
    })
}

/// [`kway_partition`] through `ws`, starting from `initial` instead of a
/// random partition when given.
///
/// # Panics
///
/// Panics on the inputs [`kway_partition`] rejects, or an `initial`
/// partition that does not have `k` parts and one entry per module.
#[allow(clippy::too_many_arguments)]
pub fn kway_partition_in(
    h: &Hypergraph,
    k: u32,
    initial: Option<Partition>,
    fixed: &[(ModuleId, PartId)],
    cfg: &KwayConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, KwayResult) {
    let req = RefineRequest {
        fixed,
        ..RefineRequest::reusing(ws)
    };
    expect_valid(start(h, k, initial, cfg, rng, req))
}

/// [`kway_refine`] through `ws`.
///
/// # Panics
///
/// Panics on the inputs [`kway_refine`] rejects.
pub fn kway_refine_in(
    h: &Hypergraph,
    p: &mut Partition,
    fixed: &[(ModuleId, PartId)],
    cfg: &KwayConfig,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> KwayResult {
    let req = RefineRequest {
        fixed,
        ..RefineRequest::reusing(ws)
    };
    expect_valid(kway_refine(h, p, cfg, rng, req))
}

/// Unwraps an engine result for the `_in` wrappers the `perf` benchmark
/// pins, naming the broken rule in the panic message.
#[track_caller]
fn expect_valid<T>(r: Result<T, RefineError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("invalid k-way refinement input: {e}"),
    }
}

/// [`kway_partition`] from `initial`, or from a random start when `None`.
fn start(
    h: &Hypergraph,
    k: u32,
    initial: Option<Partition>,
    cfg: &KwayConfig,
    rng: &mut MlRng,
    req: RefineRequest<'_>,
) -> Result<(Partition, KwayResult), RefineError> {
    req.check(h, k, initial.as_ref())?;
    req.with(|r| {
        bind_kway(&mut r.ws.state, h, k, cfg, r.fixed)?;
        let mut p = initial.unwrap_or_else(|| Partition::random(h, k, rng));
        for &(v, part) in r.fixed {
            p.move_module(h, v, part);
        }
        // A lumpy random start (or the pinning above) can violate the
        // bounds; refinement alone cannot repair that, so fix feasibility
        // first. No-op (and no RNG draws) when the start is already feasible.
        let bounds = bounds_or_ratio(r.bounds, h, k, cfg);
        rebalance_to_bounds(h, &mut p, r.fixed, &bounds, rng)?;
        let result = run(h, &mut p, cfg, &bounds, rng, &mut r.ws.state, r.meter);
        Ok((p, result))
    })
}

/// `bounds`, or the uniform ratio window of a `k`-way partition of `h`.
fn bounds_or_ratio<'b>(
    bounds: Option<&'b PartBounds>,
    h: &Hypergraph,
    k: u32,
    cfg: &KwayConfig,
) -> Cow<'b, PartBounds> {
    let ratio = || PartBounds::from_kway(&KwayBalance::new(h, k, cfg.balance_r));
    bounds.map_or_else(|| Cow::Owned(ratio()), Cow::Borrowed)
}

/// Binds the shared state to `h` in its k-way shape: `k` per-destination
/// bucket structures, k-strided pin counts, and the modules of `fixed`
/// marked.
fn bind_kway(
    st: &mut RefineState,
    h: &Hypergraph,
    k: u32,
    cfg: &KwayConfig,
    fixed: &[(ModuleId, PartId)],
) -> Result<(), RefineError> {
    let max_vis_weight = st.bind_nets(h, k, cfg.max_net_size)?;
    st.bind_modules(
        h,
        k as usize,
        k as usize,
        Filing::Merged,
        max_vis_weight,
        cfg.policy,
    );
    st.fix(fixed);
    Ok(())
}

/// Writes into `gains[t]` the k-way gain under `cfg.gain` of moving `v`
/// from part `from` to part `t`, for every part at once, in one walk over
/// `v`'s nets and the shared state's k-strided pin counts. The entry for
/// `from` itself is meaningless. Only the bucket fill calls it; the move
/// loop keeps gains current with [`NetDelta`].
fn kway_gains(
    st: &RefineState,
    h: &Hypergraph,
    cfg: &KwayConfig,
    v: ModuleId,
    from: usize,
    gains: &mut [i32],
) {
    let k = gains.len();
    gains.fill(0);
    for &e in h.nets(v) {
        if !st.visible[e.index()] {
            continue;
        }
        let row = &st.pins_in[e.index() * k..(e.index() + 1) * k];
        let w = h.net_weight(e) as i32;
        let size = h.net_size(e) as u32;
        let leave = w * cfg.gain.leave(row[from], size);
        for (g, &n) in gains.iter_mut().zip(row) {
            *g += leave + w * cfg.gain.enter(n, size);
        }
    }
}

/// How a move from part `a` to part `b` changes one visible net's terms in
/// the gains of its other pins. The gain of a pin on part `f` toward `t` sums,
/// over its nets, a *leave* term of the net's count at `f` and an *enter*
/// term of its count at `t` ([`KwayGain::leave`], [`KwayGain::enter`]). The
/// move changes only the counts at `a` and `b`, so the only terms that change
/// are the leave term of a pin on `a` or `b` and the enter terms toward `a`
/// and `b` of a pin elsewhere.
#[derive(Debug, Clone, Copy)]
struct NetDelta {
    a: usize,
    b: usize,
    /// Leave-term change of a pin on `a` (on `b`).
    on_a: i32,
    on_b: i32,
    /// Enter-term change toward `a` (toward `b`) of a pin not on it.
    toward_a: i32,
    toward_b: i32,
}

impl NetDelta {
    /// Applies the move to `row`, the pin counts of net `e`, and returns the
    /// change it makes to the net's gain terms.
    fn of_move(
        gain: KwayGain,
        h: &Hypergraph,
        e: NetId,
        row: &mut [u32],
        a: usize,
        b: usize,
    ) -> Self {
        let (a0, b0) = (row[a], row[b]);
        row[a] -= 1;
        row[b] += 1;
        let w = h.net_weight(e) as i32;
        let size = h.net_size(e) as u32;
        let change = |term: fn(KwayGain, u32, u32) -> i32, old: u32, new: u32| {
            w * (term(gain, new, size) - term(gain, old, size))
        };
        NetDelta {
            a,
            b,
            on_a: change(KwayGain::leave, a0, a0 - 1),
            on_b: change(KwayGain::leave, b0, b0 + 1),
            toward_a: change(KwayGain::enter, a0, a0 - 1),
            toward_b: change(KwayGain::enter, b0, b0 + 1),
        }
    }

    /// The changes at parts `a` and `b` for a pin on part `f`: its leave
    /// term where it sits, its enter term elsewhere.
    fn at(self, f: usize) -> (i32, i32) {
        (
            if f == self.a {
                self.on_a
            } else {
                self.toward_a
            },
            if f == self.b {
                self.on_b
            } else {
                self.toward_b
            },
        )
    }
}

/// The engine objective over visible nets: weighted `Σ (span − 1)` for
/// sum-of-degrees, weighted cut for net-cut. The engine counts it from its
/// pin rows; this sweep over the partition is the audits' cross-check.
fn kway_objective(st: &RefineState, h: &Hypergraph, cfg: &KwayConfig, p: &Partition) -> u64 {
    match cfg.gain {
        KwayGain::SumOfDegrees => h
            .net_ids()
            .filter(|e| st.visible[e.index()])
            .map(|e| h.net_weight(e) as u64 * (metrics::net_span(h, p, e) as u64).saturating_sub(1))
            .sum(),
        KwayGain::NetCut => metrics::cut_with_net_size_limit(h, p, cfg.max_net_size),
    }
}

/// The pass loop over a state [`bind_kway`] bound. It allocates nothing
/// per call beyond one k-length row of destination gains and the list of a
/// move's free neighbours.
fn run(
    h: &Hypergraph,
    p: &mut Partition,
    cfg: &KwayConfig,
    bounds: &PartBounds,
    rng: &mut MlRng,
    st: &mut RefineState,
    meter: &mut BudgetMeter,
) -> KwayResult {
    let k = p.k();
    // Every destination's gain for one module, filled by `kway_gains`.
    let mut gains = vec![0i32; k as usize];
    // The free neighbours of the current move in first-touch order, each
    // with its summed gain changes at the move's source and destination
    // parts; while a neighbour is listed, `st.slot` holds its index.
    let mut touched: Vec<(ModuleId, i32, i32)> = Vec::new();
    // A part with less than this much room left admits no module at all,
    // and a part with less than this much above its lower bound can give
    // up none: its class is closed.
    let min_area = h.areas().iter().copied().min().unwrap_or(0);
    let mut open = vec![false; k as usize];
    let prune = cfg.policy != BucketPolicy::Random;
    obs_span!("kway_refine", "k" => k, "modules" => h.num_modules());

    let mut passes = 0usize;
    let mut kept_moves = 0u64;
    let mut pass_stats = Vec::new();
    while passes < cfg.max_passes {
        if !meter.pass_checkpoint(passes as u32) {
            break;
        }
        passes += 1;
        // --- Reinitialize per-pass state. ---
        #[expect(
            clippy::disallowed_types,
            reason = "per-pass bucket-fill timing: the time flows only into \
                      PassStats::fill_time_ns, which result equality excludes"
        )]
        let fill_start = std::time::Instant::now();
        // Recount the pin rows; each visible net's row gives its span and
        // so its share of the pass's starting objective.
        st.pins_in.fill(0);
        let mut start_obj = 0u64;
        let rows = st.pins_in.chunks_exact_mut(k as usize);
        for ((e, row), &visible) in h.net_ids().zip(rows).zip(&st.visible) {
            if !visible {
                continue;
            }
            for &v in h.pins(e) {
                row[p.part(v) as usize] += 1;
            }
            let span = row.iter().filter(|&&n| n > 0).count() as u64;
            start_obj += u64::from(h.net_weight(e)) * cfg.gain.objective(span);
        }
        st.locked.fill(false);
        st.moves.clear();
        for b in &mut st.buckets {
            b.clear();
        }
        // Each module is filed under its current part, and every
        // (re)insertion into its k − 1 structures takes one clock tick, so
        // one stamp per module orders all of them. A pass makes at most
        // `n + Σ_e |e|²` ticks over its visible nets, each of at most
        // `max_net_size` pins: within `u32` below about 20M pins at the
        // default limit of 200.
        let mut clock = 0u32;
        for v in h.modules() {
            if st.fixed[v.index()] {
                continue;
            }
            let from = p.part(v) as usize;
            kway_gains(st, h, cfg, v, from, &mut gains);
            if let Some(s) = st.stamp.get_mut(v.index()) {
                *s = clock;
            }
            clock += 1;
            for (t, (b, &g)) in st.buckets.iter_mut().zip(&gains).enumerate() {
                if t != from {
                    b.insert(v, from, g);
                }
            }
        }
        let fill_time_ns = fill_start.elapsed().as_nanos() as u64;
        // Post-fill gain distribution and total bucket occupancy, sampled
        // only when a trace is recording (the scan re-reads stored keys, so
        // it cannot perturb the pass).
        let fill = obs_counter!(snapshot: {
            let (part_of, fixed, buckets) = (p.assignment(), &st.fixed, &st.buckets);
            GainSpread::scan(
                buckets.iter().map(|b| b.len() as u64).sum(),
                h.modules()
                    .filter(|v| !fixed[v.index()])
                    .flat_map(|v| {
                        (0..k)
                            .filter(move |&t| t != part_of[v.index()])
                            .map(move |t| i64::from(buckets[t as usize].key_of(v)))
                    }),
            )
        });
        audit!(audit::audit_pass_start(st, h, p, cfg, start_obj).map_err(|e| e.with_pass(passes)));
        let mut obj = start_obj as i64;
        let mut best_obj = obj;
        let mut best_len = 0usize;
        let mut inspected = 0u64;
        let mut updates = 0u64;

        // --- Move loop. ---
        loop {
            // Probe each destination's best feasible candidate; take the max.
            let mut pick: Option<(i32, PartId, ModuleId)> = None;
            let part_of = p.assignment();
            let areas = h.areas();
            let part_areas = p.part_areas();
            // Exact source gate: every member of a closed class would fail
            // the lower-bound check below.
            for (f, (o, &area)) in open.iter_mut().zip(part_areas).enumerate() {
                *o = area >= bounds.lo(f as PartId) + min_area;
            }
            let classes = OpenClasses::new(&open, &st.stamp);
            for t in 0..k {
                let area_t = p.part_area(t);
                // Exact gate: every member would fail the area check below.
                if area_t + min_area > bounds.hi(t) {
                    continue;
                }
                let bucket = &mut st.buckets[t as usize];
                // Exact prune: a candidate keyed at or below the pick so far
                // would lose to it (a tie keeps the lower destination), so
                // the probe walks only the keys above; a destination whose
                // top key is no higher checks nothing. LIFO and FIFO draw
                // nothing; each Random check draws, so Random walks all.
                let floor = pick.filter(|_| prune).map(|(bk, _, _)| bk);
                let cand = bucket.select_above(rng, classes, floor, |v| {
                    inspected += 1;
                    let a = areas[v.index()];
                    let from = part_of[v.index()];
                    area_t + a <= bounds.hi(t) && part_areas[from as usize] - a >= bounds.lo(from)
                });
                if let Some(v) = cand {
                    let key = bucket.key_of(v);
                    match pick {
                        Some((bk, _, _)) if bk >= key => {}
                        _ => pick = Some((key, t, v)),
                    }
                }
            }
            audit!(audit::audit_destination_pruning(
                &mut st.buckets,
                h,
                p,
                bounds,
                min_area,
                classes,
                pick
            )
            .map_err(|e| e.with_pass(passes)));
            let Some((gain, to, v)) = pick else { break };
            let from = p.part(v);
            // Execute the move.
            for b in &mut st.buckets {
                if b.contains(v) {
                    b.remove(v);
                }
            }
            st.locked[v.index()] = true;
            p.move_module(h, v, to);
            obj -= gain as i64;
            st.moves.push((v, from));

            // Update pin counts and sum each free neighbour's exact gain
            // changes over the moved module's nets, then apply them in
            // first-touch order.
            let (a, b) = (from as usize, to as usize);
            for &e in h.nets(v) {
                if !st.visible[e.index()] {
                    continue;
                }
                let row = &mut st.pins_in[e.index() * k as usize..][..k as usize];
                let delta = NetDelta::of_move(cfg.gain, h, e, row, a, b);
                for &w in h.pins(e) {
                    if st.locked[w.index()] || st.fixed[w.index()] {
                        continue;
                    }
                    let slot = &mut st.slot[w.index()];
                    if *slot == u32::MAX {
                        *slot = touched.len() as u32;
                        touched.push((w, 0, 0));
                    }
                    let (da, db) = delta.at(p.part(w) as usize);
                    let (_, at_a, at_b) = &mut touched[*slot as usize];
                    *at_a += da;
                    *at_b += db;
                }
            }
            for &(w, at_a, at_b) in &touched {
                st.slot[w.index()] = u32::MAX;
                // A neighbour's gain toward `t` changes by its leave-term
                // change at its own part plus its enter-term change at `t`.
                let at = |part: usize| {
                    if part == a {
                        at_a
                    } else if part == b {
                        at_b
                    } else {
                        0
                    }
                };
                let from_w = p.part(w) as usize;
                if let Some(s) = st.stamp.get_mut(w.index()) {
                    *s = clock;
                }
                clock += 1;
                for (t, bucket) in st.buckets.iter_mut().enumerate() {
                    if t != from_w {
                        bucket.update_key(w, bucket.key_of(w) + at(from_w) + at(t));
                        updates += 1;
                    }
                }
            }
            touched.clear();
            if obj < best_obj {
                best_obj = obj;
                best_len = st.moves.len();
            }
        }
        audit!(audit::audit_pass_drift(st, h, p, cfg, obj).map_err(|e| e.with_pass(passes)));
        // --- Rollback to the best prefix. ---
        let attempted = st.moves.len();
        for &(v, from) in st.moves[best_len..].iter().rev() {
            p.move_module(h, v, from);
        }
        kept_moves += best_len as u64;
        // In audit builds the rollback invariant runs in release too (the
        // debug_assert below is debug-only).
        audit!(audit::audit_pass_end(st, h, p, cfg, best_obj).map_err(|e| e.with_pass(passes)));
        debug_assert_eq!(kway_objective(st, h, cfg, p) as i64, best_obj);
        meter.note_pass(attempted as u64);
        pass_stats.push(PassStats {
            cut_before: start_obj,
            cut_after: best_obj as u64,
            attempted_moves: attempted,
            kept_moves: best_len,
            inspected,
            updates,
            fill_time_ns,
        });
        if let Some(s) = fill {
            obs_counter!(
                "kway_pass",
                "pass" => passes - 1,
                "cut_before" => start_obj,
                "cut_after" => best_obj as u64,
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
        if best_obj >= start_obj as i64 {
            break;
        }
    }

    let (mut cut, mut sum_of_degrees) = (0u64, 0u64);
    for e in h.net_ids() {
        let w = u64::from(h.net_weight(e));
        let span = u64::from(metrics::net_span(h, p, e));
        cut += w * u64::from(span > 1);
        sum_of_degrees += w * span.saturating_sub(1);
    }
    KwayResult {
        cut,
        sum_of_degrees,
        passes,
        kept_moves,
        pass_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{ConstraintsError, HypergraphBuilder};

    /// Four 4-cliques in a ring: optimal quadrisection cuts the 4 ring nets.
    fn ring_of_cliques() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(16);
        for c in 0..4usize {
            for i in 0..4usize {
                for j in (i + 1)..4 {
                    b.add_net([4 * c + i, 4 * c + j]).unwrap();
                }
            }
            b.add_net([4 * c + 3, (4 * c + 4) % 16]).unwrap();
        }
        b.build().unwrap()
    }

    fn best_of<F: FnMut(u64) -> u64>(runs: u64, f: F) -> u64 {
        (0..runs).map(f).min().unwrap()
    }

    #[test]
    fn quadrisection_finds_ring_optimum_sod() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let best = best_of(10, |s| {
            let mut rng = seeded_rng(s);
            kway_partition(&h, 4, &cfg, &mut rng, RefineRequest::default())
                .unwrap()
                .1
                .cut
        });
        assert_eq!(best, 4);
    }

    #[test]
    fn quadrisection_finds_ring_optimum_netcut() {
        let h = ring_of_cliques();
        let cfg = KwayConfig {
            gain: KwayGain::NetCut,
            ..KwayConfig::default()
        };
        let best = best_of(10, |s| {
            let mut rng = seeded_rng(100 + s);
            kway_partition(&h, 4, &cfg, &mut rng, RefineRequest::default())
                .unwrap()
                .1
                .cut
        });
        assert_eq!(best, 4);
    }

    #[test]
    fn respects_kway_balance() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let bal = KwayBalance::new(&h, 4, cfg.balance_r);
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, _) = kway_partition(&h, 4, &cfg, &mut rng, RefineRequest::default()).unwrap();
            assert!(
                bal.is_partition_feasible(&p),
                "seed {seed}: {:?}",
                p.part_areas()
            );
            assert!(p.validate(&h));
        }
    }

    #[test]
    fn k2_matches_bipartition_semantics() {
        // k=2 net-cut engine should find the dumbbell optimum.
        let mut b = HypergraphBuilder::with_unit_areas(8);
        for i in 0..4usize {
            for j in (i + 1)..4 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 4, j + 4]).unwrap();
            }
        }
        b.add_net([3, 4]).unwrap();
        let h = b.build().unwrap();
        let cfg = KwayConfig {
            gain: KwayGain::NetCut,
            ..KwayConfig::default()
        };
        let best = best_of(8, |s| {
            let mut rng = seeded_rng(s);
            kway_partition(&h, 2, &cfg, &mut rng, RefineRequest::default())
                .unwrap()
                .1
                .cut
        });
        assert_eq!(best, 1);
    }

    #[test]
    fn fixed_modules_never_move() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let fixed: Vec<(ModuleId, PartId)> = vec![(ModuleId::new(0), 3), (ModuleId::new(5), 2)];
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let (p, _) = kway_partition(
                &h,
                4,
                &cfg,
                &mut rng,
                RefineRequest {
                    fixed: &fixed,
                    ..RefineRequest::default()
                },
            )
            .unwrap();
            assert_eq!(p.part(ModuleId::new(0)), 3);
            assert_eq!(p.part(ModuleId::new(5)), 2);
        }
    }

    #[test]
    fn refine_never_worsens_objective() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        let mut rng = seeded_rng(11);
        let p0 = Partition::random(&h, 4, &mut rng);
        let start_sod = metrics::sum_of_spans_minus_one(&h, &p0);
        let mut p = p0;
        let r = kway_refine(&h, &mut p, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert!(r.sum_of_degrees <= start_sod);
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert_eq!(r.sum_of_degrees, metrics::sum_of_spans_minus_one(&h, &p));
    }

    #[test]
    fn result_statistics_consistent() {
        let h = ring_of_cliques();
        let mut rng = seeded_rng(13);
        let (p, r) = kway_partition(
            &h,
            4,
            &KwayConfig::default(),
            &mut rng,
            RefineRequest::default(),
        )
        .unwrap();
        assert!(r.passes >= 1);
        assert!(r.cut <= r.sum_of_degrees);
        assert!(p.validate(&h));
    }

    #[test]
    fn deterministic_given_seed() {
        let h = ring_of_cliques();
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            kway_partition(
                &h,
                4,
                &KwayConfig::default(),
                &mut rng,
                RefineRequest::default(),
            )
            .unwrap()
        };
        let (p1, r1) = run(21);
        let (p2, r2) = run(21);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    /// Asserts `rng` is where a fresh `seeded_rng(seed)` starts.
    fn assert_untouched(rng: &mut MlRng, seed: u64) {
        use rand::Rng;
        assert_eq!(rng.gen::<u64>(), seeded_rng(seed).gen::<u64>());
    }

    #[test]
    fn rejects_zero_k() {
        let h = ring_of_cliques();
        let mut rng = seeded_rng(0);
        let r = kway_partition(
            &h,
            0,
            &KwayConfig::default(),
            &mut rng,
            RefineRequest::default(),
        );
        assert_eq!(r.map(|_| ()), Err(ConstraintsError::ZeroParts.into()));
        assert_untouched(&mut rng, 0);
    }

    #[test]
    fn rejects_bad_fixed_part() {
        let h = ring_of_cliques();
        let mut rng = seeded_rng(0);
        let req = RefineRequest {
            fixed: &[(ModuleId::new(0), 9)],
            ..RefineRequest::default()
        };
        let r = kway_partition(&h, 4, &KwayConfig::default(), &mut rng, req);
        let err = ConstraintsError::PartOutOfRange {
            module: 0,
            part: 9,
            k: 4,
        };
        assert_eq!(r.map(|_| ()), Err(err.into()));
        assert_untouched(&mut rng, 0);
    }

    /// Refines `p0` on `h` under `req`, expecting `err` with the partition
    /// and the RNG stream untouched.
    fn assert_refine_rejected(
        h: &Hypergraph,
        p0: &Partition,
        req: RefineRequest<'_>,
        err: RefineError,
    ) {
        let mut p = p0.clone();
        let mut rng = seeded_rng(0);
        let r = kway_refine(h, &mut p, &KwayConfig::default(), &mut rng, req);
        assert_eq!(r, Err(err));
        assert_eq!(p.assignment(), p0.assignment());
        assert_untouched(&mut rng, 0);
    }

    #[test]
    fn rejects_bounds_of_wrong_arity() {
        let h = ring_of_cliques();
        let p0 = Partition::random(&h, 4, &mut seeded_rng(1));
        let bounds = PartBounds::uniform(3, 0, 16);
        let req = RefineRequest {
            bounds: Some(&bounds),
            ..RefineRequest::default()
        };
        let err = RefineError::BoundsArity { bounds: 3, k: 4 };
        assert_refine_rejected(&h, &p0, req, err.clone());
        // The start repair the k-way partition entry runs checks the same.
        let mut p = p0.clone();
        let mut rng = seeded_rng(0);
        let r = rebalance_to_bounds(&h, &mut p, &[], &bounds, &mut rng);
        assert_eq!(r, Err(err));
        assert_eq!(p.assignment(), p0.assignment());
        assert_untouched(&mut rng, 0);
    }

    #[test]
    fn rejects_partition_of_another_netlist() {
        let h = ring_of_cliques();
        let other = HypergraphBuilder::with_unit_areas(5).build().unwrap();
        let p0 = Partition::random(&other, 4, &mut seeded_rng(1));
        let err = RefineError::PartitionLength {
            len: 5,
            modules: 16,
        };
        assert_refine_rejected(&h, &p0, RefineRequest::default(), err);
    }

    #[test]
    fn rejects_fixed_module_out_of_range() {
        let h = ring_of_cliques();
        let p0 = Partition::random(&h, 4, &mut seeded_rng(1));
        let req = RefineRequest {
            fixed: &[(ModuleId::new(16), 0)],
            ..RefineRequest::default()
        };
        let err = ConstraintsError::ModuleOutOfRange {
            module: 16,
            modules: 16,
        };
        assert_refine_rejected(&h, &p0, req, err.into());
    }

    #[test]
    fn trivial_inputs() {
        let h = HypergraphBuilder::with_unit_areas(3).build().unwrap();
        let mut rng = seeded_rng(0);
        let (p, r) = kway_partition(
            &h,
            4,
            &KwayConfig::default(),
            &mut rng,
            RefineRequest::default(),
        )
        .unwrap();
        assert_eq!(r.cut, 0);
        assert!(p.validate(&h));
    }

    #[test]
    fn constrained_with_legacy_bounds_is_byte_identical() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        for seed in 0..5 {
            let p0 = Partition::random(&h, 4, &mut seeded_rng(500 + seed));
            let bounds = PartBounds::from_kway(&KwayBalance::new(&h, 4, cfg.balance_r));
            let mut p_legacy = p0.clone();
            let mut p_new = p0.clone();
            let r_legacy = kway_refine(
                &h,
                &mut p_legacy,
                &cfg,
                &mut seeded_rng(seed),
                RefineRequest::default(),
            )
            .unwrap();
            let req = RefineRequest {
                bounds: Some(&bounds),
                ..RefineRequest::default()
            };
            let r_new = kway_refine(&h, &mut p_new, &cfg, &mut seeded_rng(seed), req).unwrap();
            assert_eq!(p_legacy.assignment(), p_new.assignment(), "seed {seed}");
            assert_eq!(r_legacy, r_new, "seed {seed}");
        }
    }

    #[test]
    fn asymmetric_windows_are_respected() {
        let h = ring_of_cliques();
        let cfg = KwayConfig::default();
        // Part 0 must stay small (≤ 3), part 3 must stay large (≥ 5).
        let bounds = PartBounds::new(vec![1, 1, 1, 5], vec![3, 8, 8, 8]);
        for seed in 0..5 {
            let mut p = Partition::random(&h, 4, &mut seeded_rng(seed));
            rebalance_to_bounds(&h, &mut p, &[], &bounds, &mut seeded_rng(777 + seed)).unwrap();
            if !bounds.is_partition_feasible(&p) {
                continue; // random repair can stall; skip this seed
            }
            let req = RefineRequest {
                bounds: Some(&bounds),
                ..RefineRequest::default()
            };
            kway_refine(&h, &mut p, &cfg, &mut seeded_rng(seed), req).unwrap();
            assert!(
                bounds.is_partition_feasible(&p),
                "seed {seed}: {:?}",
                p.part_areas()
            );
        }
    }

    #[test]
    fn rebalance_to_bounds_repairs_overflow() {
        let h = ring_of_cliques();
        // Everything crammed into part 0.
        let mut p = Partition::from_assignment(&h, 4, vec![0; 16]).unwrap();
        let bounds = PartBounds::uniform(4, 2, 6);
        let mut rng = seeded_rng(5);
        let moved = rebalance_to_bounds(&h, &mut p, &[], &bounds, &mut rng).unwrap();
        assert!(moved > 0);
        assert!(bounds.is_partition_feasible(&p), "{:?}", p.part_areas());
        assert!(p.validate(&h));
    }

    #[test]
    fn rebalance_to_bounds_feasible_start_draws_no_rng() {
        let h = ring_of_cliques();
        let mut p =
            Partition::from_assignment(&h, 4, (0..16).map(|i| (i / 4) as u32).collect()).unwrap();
        let bounds = PartBounds::uniform(4, 2, 6);
        let mut rng = seeded_rng(5);
        let moved = rebalance_to_bounds(&h, &mut p, &[], &bounds, &mut rng).unwrap();
        assert_eq!(moved, 0);
        // The stream is untouched: a fresh rng from the same seed agrees.
        use rand::Rng;
        let mut fresh = seeded_rng(5);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
    }

    #[test]
    fn large_nets_ignored_but_counted() {
        let mut b = HypergraphBuilder::with_unit_areas(8);
        b.add_net(0..8).unwrap(); // 8-pin net invisible when limit = 4
        b.add_net([0, 1]).unwrap();
        b.add_net([2, 3]).unwrap();
        let h = b.build().unwrap();
        let cfg = KwayConfig {
            max_net_size: 4,
            ..KwayConfig::default()
        };
        let mut rng = seeded_rng(2);
        let (p, r) = kway_partition(&h, 4, &cfg, &mut rng, RefineRequest::default()).unwrap();
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert!(r.cut >= 1, "the 8-pin net must be cut across 4 parts");
    }
}
