//! The shared refinement substrate: [`RefineState`], [`RefineWorkspace`],
//! and per-pass instrumentation ([`PassStats`]).
//!
//! Both move-based engines in the workspace — the 2-way FM/CLIP engine in
//! [`crate::engine`] and the Sanchis-style k-way engine in `mlpart-kway` —
//! run the same inner machinery: per-net pin counts split by part, per-module
//! gains, gain buckets, a lock vector, and a move log that is rolled back to
//! its best prefix. [`RefineState`] owns that machinery once, k-generically:
//! the bipartition engine is the `k = 2` specialization with a single bucket
//! structure, the k-way engine uses `k` per-destination bucket structures.
//!
//! [`RefineWorkspace`] wraps a `RefineState` so a multilevel driver can
//! allocate the scratch once and re-bind it at every level of the V-cycle
//! (`bind_nets` / `bind_modules` are grow-only: `Vec::resize` and
//! [`GainBuckets::reset`] reuse capacity). A freshly bound state is
//! observationally identical to a freshly allocated one, so refinement
//! results do not depend on whether a workspace is reused — the equivalence
//! tests in `crates/fm/tests` and `crates/kway/tests` pin this down.

use crate::bucket::{BucketPolicy, Filing, GainBuckets};
use crate::request::RefineError;
use mlpart_hypergraph::{Hypergraph, ModuleId, PartId};

/// Statistics of one refinement pass, collected by both engines.
///
/// For the bipartition engine the `cut_*` fields are the engine-visible
/// weighted cut (nets over `max_net_size` excluded); for the k-way engine
/// they are the configured objective (sum-of-degrees or net cut) over
/// visible nets.
#[derive(Debug, Clone, Copy, Eq)]
pub struct PassStats {
    /// Engine objective at the start of the pass.
    pub cut_before: u64,
    /// Engine objective after rolling back to the best prefix.
    pub cut_after: u64,
    /// Moves attempted during the pass (before rollback).
    pub attempted_moves: usize,
    /// Moves kept after rolling back to the best prefix.
    pub kept_moves: usize,
    /// Candidates the pass's selection checked for feasibility (balance and
    /// area bounds), summed over every pick: a hardware-independent measure
    /// of selection work.
    pub inspected: u64,
    /// Wall-clock nanoseconds spent rebuilding gains and filling the bucket
    /// structure for this pass. Excluded from equality so fixed-seed runs
    /// compare equal.
    pub fill_time_ns: u64,
}

/// Equality ignores `fill_time_ns` (wall-clock noise): two runs with the
/// same seed must compare equal even though their timings differ.
impl PartialEq for PassStats {
    fn eq(&self, other: &Self) -> bool {
        self.cut_before == other.cut_before
            && self.cut_after == other.cut_after
            && self.attempted_moves == other.attempted_moves
            && self.kept_moves == other.kept_moves
            && self.inspected == other.inspected
    }
}

/// A pass's gain distribution right after its buckets are filled, reported
/// in the engines' `fm_pass`/`kway_pass` trace counters: bucket occupancy
/// and the extremes and sign counts of the filled gains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GainSpread {
    /// Entries in the gain buckets.
    pub occupancy: u64,
    /// Smallest gain, or 0 when every gain is positive.
    pub min: i64,
    /// Largest gain, or 0 when every gain is negative.
    pub max: i64,
    /// Gains below zero.
    pub neg: u64,
    /// Gains equal to zero.
    pub zero: u64,
    /// Gains above zero.
    pub pos: u64,
}

impl GainSpread {
    /// Scans `gains` (the buckets held `occupancy` entries).
    pub fn scan(occupancy: u64, gains: impl IntoIterator<Item = i64>) -> Self {
        let mut s = GainSpread {
            occupancy,
            ..GainSpread::default()
        };
        for g in gains {
            match g.cmp(&0) {
                std::cmp::Ordering::Less => s.neg += 1,
                std::cmp::Ordering::Equal => s.zero += 1,
                std::cmp::Ordering::Greater => s.pos += 1,
            }
            s.min = s.min.min(g);
            s.max = s.max.max(g);
        }
        s
    }
}

/// The k-generic scratch state driven by the refinement engines.
///
/// Fields are public: this is a deliberately low-level substrate shared by
/// two engine crates, not an abstraction boundary. The engines own the
/// algorithmic invariants; the state owns the memory. Invariants common to
/// both engines:
///
/// * `pins_in[e * k + part]` counts the pins of net `e` in `part`, for
///   engine-visible nets only (`visible[e]`); invisible entries are zero.
/// * `buckets` holds one structure for the 2-way engine (moves always go to
///   the other side), filing each module under its side in tallied lists,
///   and `k` per-destination structures for the k-way engine, each filing
///   a module under its current part in merged lists (`k` classes, ordered
///   by `stamp`).
/// * `moves` logs `(module, from_part)` pairs; rollback walks it in reverse.
#[derive(Debug, Default)]
pub struct RefineState {
    /// Number of parts `k`; the stride of `pins_in`.
    pub k: u32,
    /// `true` for nets the engine sees (`net size ≤ max_net_size`, §III-B).
    pub visible: Vec<bool>,
    /// Pin counts per (net, part), k-strided: `pins_in[e * k + part]`.
    pub pins_in: Vec<u32>,
    /// Current total gain of each module (2-way engine; over visible nets).
    pub gain: Vec<i32>,
    /// Gain at the start of the pass (the CLIP reference point).
    pub gain0: Vec<i32>,
    /// Modules already moved this pass.
    pub locked: Vec<bool>,
    /// Modules pinned to their part for the whole run (k-way pre-assignment).
    pub fixed: Vec<bool>,
    /// Gain buckets: one for bipartition, `k` (per destination) for k-way.
    pub buckets: Vec<GainBuckets>,
    /// Move log of the current pass: `(module, from_part)`.
    pub moves: Vec<(ModuleId, u32)>,
    /// k-way neighbour slots: while a move's gain changes are gathered,
    /// the index of each touched neighbour in the engine's list; else
    /// `u32::MAX`.
    pub slot: Vec<u32>,
    /// Insertion stamps of merged multi-class buckets: the clock tick at
    /// which each module was last inserted into its bucket structures (see
    /// [`OpenClasses`](crate::OpenClasses)). Empty unless the buckets are
    /// [`Filing::Merged`] with several classes.
    pub stamp: Vec<u32>,
    /// Magnitude of the bucket key range.
    pub key_bound: i32,
}

impl RefineState {
    /// Phase 1 of binding: sizes the per-net state of `self` for `h` with
    /// `k` parts, marking nets over `max_net_size` invisible, and returns
    /// the maximum total visible incident net weight over all modules —
    /// the engines derive their bucket key range from it.
    ///
    /// Grow-only: reuses existing allocations.
    ///
    /// # Errors
    ///
    /// [`RefineError::WeightsTooLarge`] when that weight exceeds
    /// `i32::MAX / 4`, the largest the bucket keys (doubled for CLIP
    /// deltas) can hold.
    pub fn bind_nets(
        &mut self,
        h: &Hypergraph,
        k: u32,
        max_net_size: usize,
    ) -> Result<i32, RefineError> {
        self.k = k;
        self.visible.clear();
        self.visible
            .extend(h.net_ids().map(|e| h.net_size(e) <= max_net_size));
        self.pins_in.clear();
        self.pins_in.resize(h.num_nets() * k as usize, 0);
        let weight = h
            .modules()
            .map(|v| {
                h.nets(v)
                    .iter()
                    .filter(|e| self.visible[e.index()])
                    .map(|e| h.net_weight(*e) as i64)
                    .sum::<i64>()
            })
            .max()
            .unwrap_or(0);
        let limit = i64::from(i32::MAX / 4);
        if weight > limit {
            return Err(RefineError::WeightsTooLarge { weight, limit });
        }
        Ok(weight as i32)
    }

    /// Phase 2 of binding: sizes the per-module state for `h`, resetting
    /// `num_buckets` bucket structures that file members under `classes`
    /// classes as `filing` says, with keys in `[-max_key, +max_key]`. After
    /// this the state is observationally identical to a freshly allocated
    /// one.
    pub fn bind_modules(
        &mut self,
        h: &Hypergraph,
        num_buckets: usize,
        classes: usize,
        filing: Filing,
        max_key: i32,
        policy: BucketPolicy,
    ) {
        let n = h.num_modules();
        self.gain.clear();
        self.gain.resize(n, 0);
        self.gain0.clear();
        self.gain0.resize(n, 0);
        self.locked.clear();
        self.locked.resize(n, false);
        self.fixed.clear();
        self.fixed.resize(n, false);
        self.buckets.truncate(num_buckets);
        for b in &mut self.buckets {
            b.reset(n, max_key, policy, classes, filing);
        }
        while self.buckets.len() < num_buckets {
            self.buckets
                .push(GainBuckets::new(n, max_key, policy, classes, filing));
        }
        self.moves.clear();
        self.moves.reserve(n);
        self.slot.clear();
        self.slot.resize(n, u32::MAX);
        self.stamp.clear();
        if filing == Filing::Merged && classes > 1 {
            self.stamp.resize(n, 0);
        }
        self.key_bound = max_key;
    }

    /// Marks the modules of `fixed` as never moving, after
    /// [`bind_modules`](Self::bind_modules). The engine entries check the
    /// ids; one out of range is ignored.
    pub fn fix(&mut self, fixed: &[(ModuleId, PartId)]) {
        for &(v, _) in fixed {
            if let Some(f) = self.fixed.get_mut(v.index()) {
                *f = true;
            }
        }
    }

    /// Pin count of net `e` in `part`.
    #[inline]
    pub fn pins(&self, e: usize, part: usize) -> u32 {
        self.pins_in[e * self.k as usize + part]
    }
}

/// Owns the scratch memory of one refinement engine instance.
///
/// Create one per multilevel run and pass it to every engine call as
/// [`RefineRequest::workspace`](crate::RefineRequest::workspace): every
/// level then reuses the gain arrays, pin counts, buckets, and move log
/// instead of reallocating them. A request without a workspace creates a
/// throwaway one internally and behaves identically.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{refine, FmConfig, RefineRequest, RefineWorkspace};
/// use mlpart_hypergraph::{HypergraphBuilder, Partition, rng::seeded_rng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(8);
/// for i in 0..7 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let cfg = FmConfig::default();
/// let p0 = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1, 0, 1, 0, 1]).unwrap();
///
/// // A reused workspace gives bit-identical results to fresh allocation.
/// let mut ws = RefineWorkspace::new();
/// let mut p_a = p0.clone();
/// let mut p_b = p0.clone();
/// let reuse = RefineRequest::reusing(&mut ws);
/// let r_a = refine(&h, &mut p_a, &cfg, &mut seeded_rng(7), reuse)?;
/// let r_b = refine(&h, &mut p_b, &cfg, &mut seeded_rng(7), RefineRequest::default())?;
/// assert_eq!(p_a.assignment(), p_b.assignment());
/// assert_eq!(r_a, r_b);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct RefineWorkspace {
    /// The owned scratch state, re-bound by each engine call.
    pub state: RefineState,
}

impl RefineWorkspace {
    /// Creates an empty workspace; the first engine call sizes it.
    pub fn new() -> Self {
        RefineWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::HypergraphBuilder;

    fn small() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(6);
        b.add_net([0, 1, 2]).unwrap();
        b.add_net([2, 3]).unwrap();
        b.add_net([3, 4, 5]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn gain_spread_counts_signs_and_brackets_zero() {
        let s = GainSpread::scan(7, [-3, 0, 2, 5, 0]);
        let want = GainSpread {
            occupancy: 7,
            min: -3,
            max: 5,
            neg: 1,
            zero: 2,
            pos: 2,
        };
        assert_eq!(s, want);
        let all_positive = GainSpread::scan(2, [4, 1]);
        assert_eq!((all_positive.min, all_positive.max), (0, 4));
        assert_eq!(GainSpread::scan(0, []), GainSpread::default());
    }

    #[test]
    fn bind_sizes_state_and_reports_max_weight() {
        let h = small();
        let mut st = RefineState::default();
        let w = st.bind_nets(&h, 2, 200);
        assert_eq!(w, Ok(2), "modules 2 and 3 each touch two unit nets");
        st.bind_modules(&h, 1, 2, Filing::Tallied, 2, BucketPolicy::Lifo);
        assert_eq!(st.visible.len(), h.num_nets());
        assert_eq!(st.pins_in.len(), h.num_nets() * 2);
        assert_eq!(st.gain.len(), h.num_modules());
        assert_eq!(st.buckets.len(), 1);
    }

    #[test]
    fn rebinding_shrinks_and_grows_cleanly() {
        let h = small();
        let tiny = HypergraphBuilder::with_unit_areas(2).build().unwrap();
        let mut st = RefineState::default();
        st.bind_nets(&h, 4, 200).unwrap();
        st.bind_modules(&h, 4, 4, Filing::Merged, 5, BucketPolicy::Lifo);
        assert_eq!(st.buckets.len(), 4);
        // Shrink to the k = 2 shape with a single bucket structure.
        st.bind_nets(&tiny, 2, 200).unwrap();
        st.bind_modules(&tiny, 1, 2, Filing::Tallied, 0, BucketPolicy::Fifo);
        assert_eq!(st.buckets.len(), 1);
        assert_eq!(st.pins_in.len(), 0);
        assert_eq!(st.gain.len(), 2);
        assert!(st.buckets[0].is_empty());
    }

    #[test]
    fn bind_nets_marks_large_nets_invisible() {
        let h = small();
        let mut st = RefineState::default();
        let w = st.bind_nets(&h, 2, 2);
        assert_eq!(st.visible, vec![false, true, false]);
        assert_eq!(w, Ok(1), "only the 2-pin net counts");
    }

    #[test]
    fn pass_stats_equality_ignores_timing() {
        let a = PassStats {
            cut_before: 5,
            cut_after: 3,
            attempted_moves: 10,
            kept_moves: 4,
            inspected: 17,
            fill_time_ns: 123,
        };
        let b = PassStats {
            fill_time_ns: 456_789,
            ..a
        };
        assert_eq!(a, b);
        let c = PassStats { cut_after: 2, ..a };
        assert_ne!(a, c);
    }
}
