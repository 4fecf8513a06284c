//! The FM gain-bucket data structure with configurable tie-breaking.
//!
//! §II-A of the paper studies how the *organization of the bucket lists*
//! decides among same-gain modules: LIFO stacks, FIFO queues, or random
//! selection. The paper (confirming Hagen-Huang-Kahng and Dutt-Deng) finds
//! LIFO ≫ FIFO, with random about as good as LIFO (Table II). This module
//! implements all three behind [`BucketPolicy`] so the experiment can be
//! regenerated.
//!
//! LIFO and FIFO use the classic array of intrusive doubly-linked lists,
//! indexed by gain key. Random keeps no member order: each bucket is a dense
//! array with swap-remove, and selection runs a partial Fisher–Yates in place
//! (the KaSPar bucket layout), so a pick costs one RNG draw per inspected
//! candidate and allocates nothing. All operations except selection are
//! O(1). Selection walks down from a lazily-maintained highest-non-empty
//! bucket hint and, within buckets, until a candidate passes the caller's
//! feasibility check; that walk is *not* O(1) per move. Measured with
//! `PassStats::inspected`, the 2-way engine made about 17.6 checks per move
//! on a large ML bisection, and the k-way engine about 1,860 on a
//! quadrisection before it learned to skip destinations no module fits.

use mlpart_hypergraph::ModuleId;
use rand::Rng;

/// How a bucket list breaks ties among modules with equal gain.
///
/// # Examples
///
/// ```
/// use mlpart_fm::BucketPolicy;
///
/// assert_eq!(BucketPolicy::default(), BucketPolicy::Lifo);
/// assert_eq!(format!("{}", BucketPolicy::Fifo), "FIFO");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BucketPolicy {
    /// Last-in-first-out: insertion and removal at the list head. The
    /// original FM implementation is believed to be LIFO; the paper adopts it
    /// because it enforces "locality" — naturally clustered modules move
    /// sequentially.
    #[default]
    Lifo,
    /// First-in-first-out: insertion at the tail, removal at the head.
    /// Distinctly inferior in Table II.
    Fifo,
    /// Uniform random choice among the feasible members of the selected
    /// bucket (the scheme attributed to Sanchis and Krishnamurthy). Buckets
    /// keep no member order. The paper finds it statistically as good as
    /// LIFO in Table II but slower, which is why its ML uses LIFO.
    Random,
}

impl std::fmt::Display for BucketPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BucketPolicy::Lifo => write!(f, "LIFO"),
            BucketPolicy::Fifo => write!(f, "FIFO"),
            BucketPolicy::Random => write!(f, "RND"),
        }
    }
}

const NIL: u32 = u32::MAX;

/// An array-of-bucket-lists priority structure over module ids with integer
/// gain keys in `[-max_key, +max_key]`.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{BucketPolicy, GainBuckets};
/// use mlpart_hypergraph::ModuleId;
///
/// let mut b = GainBuckets::new(4, 3, BucketPolicy::Lifo);
/// b.insert(ModuleId::new(0), 2);
/// b.insert(ModuleId::new(1), 2);
/// b.insert(ModuleId::new(2), -1);
/// // LIFO: module 1 was inserted last at key 2, so it is inspected first.
/// let mut rng = mlpart_hypergraph::rng::seeded_rng(0);
/// let top = b.select_where(&mut rng, |_| true).expect("non-empty");
/// assert_eq!(top, ModuleId::new(1));
/// ```
#[derive(Debug, Clone)]
pub struct GainBuckets {
    policy: BucketPolicy,
    /// `bucket index = key + max_key`.
    max_key: i32,
    /// List head per bucket. Under Random it only marks occupancy: any
    /// non-`NIL` value means the bucket has members.
    heads: Vec<u32>,
    /// The list links, sized under LIFO and FIFO only.
    tails: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
    key: Vec<i32>,
    present: Vec<bool>,
    /// Random's members; empty under LIFO and FIFO.
    dense: DenseBuckets,
    /// Hint: no non-empty bucket has index greater than this.
    top_hint: i32,
    len: usize,
}

impl GainBuckets {
    /// Creates an empty structure for `num_modules` modules with keys in
    /// `[-max_key, +max_key]`.
    pub fn new(num_modules: usize, max_key: i32, policy: BucketPolicy) -> Self {
        let mut b = GainBuckets {
            policy,
            max_key,
            heads: Vec::new(),
            tails: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            key: Vec::new(),
            present: Vec::new(),
            dense: DenseBuckets::default(),
            top_hint: -1,
            len: 0,
        };
        b.reset(num_modules, max_key, policy);
        b
    }

    /// Number of modules currently in the structure.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no module is in the structure.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tie-breaking policy this structure was created with.
    #[inline]
    pub fn policy(&self) -> BucketPolicy {
        self.policy
    }

    /// `true` if module `v` is currently in the structure.
    #[inline]
    pub fn contains(&self, v: ModuleId) -> bool {
        self.present[v.index()]
    }

    /// Current key of module `v`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `v` is not present.
    #[inline]
    pub fn key_of(&self, v: ModuleId) -> i32 {
        debug_assert!(self.contains(v), "module not in structure");
        self.key[v.index()]
    }

    #[inline]
    fn bucket_index(&self, key: i32) -> usize {
        debug_assert!(
            key >= -self.max_key && key <= self.max_key,
            "key {key} outside [-{0}, {0}]",
            self.max_key
        );
        (key + self.max_key) as usize
    }

    /// Inserts module `v` with the given key according to the policy (LIFO:
    /// list head; FIFO: list tail; Random: the end of the bucket's array).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is already present or the key is out of
    /// range.
    pub fn insert(&mut self, v: ModuleId, key: i32) {
        debug_assert!(!self.contains(v), "module already in structure");
        let b = self.bucket_index(key);
        let i = v.raw();
        match self.policy {
            BucketPolicy::Lifo => {
                // Push at head.
                let old_head = self.heads[b];
                self.next[i as usize] = old_head;
                self.prev[i as usize] = NIL;
                if old_head != NIL {
                    self.prev[old_head as usize] = i;
                } else {
                    self.tails[b] = i;
                }
                self.heads[b] = i;
            }
            BucketPolicy::Fifo => {
                // Append at tail.
                let old_tail = self.tails[b];
                self.prev[i as usize] = old_tail;
                self.next[i as usize] = NIL;
                if old_tail != NIL {
                    self.next[old_tail as usize] = i;
                } else {
                    self.heads[b] = i;
                }
                self.tails[b] = i;
            }
            BucketPolicy::Random => {
                self.dense.push(b, v);
                self.heads[b] = i;
            }
        }
        self.key[i as usize] = key;
        self.present[i as usize] = true;
        self.len += 1;
        self.top_hint = self.top_hint.max(b as i32);
    }

    /// Removes module `v` from the structure.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is not present.
    pub fn remove(&mut self, v: ModuleId) {
        debug_assert!(self.contains(v), "module not in structure");
        let i = v.raw();
        let b = self.bucket_index(self.key[i as usize]);
        if self.policy == BucketPolicy::Random {
            if self.dense.swap_remove(b, v) {
                self.heads[b] = NIL;
            }
        } else {
            let (p, n) = (self.prev[i as usize], self.next[i as usize]);
            if p != NIL {
                self.next[p as usize] = n;
            } else {
                self.heads[b] = n;
            }
            if n != NIL {
                self.prev[n as usize] = p;
            } else {
                self.tails[b] = p;
            }
        }
        self.present[i as usize] = false;
        self.len -= 1;
    }

    /// Changes the key of module `v`, reinserting it per the policy. A no-op
    /// key change still reinserts (moving `v` to the head under LIFO),
    /// matching the classic implementation where every gain update re-pushes
    /// the module.
    pub fn update_key(&mut self, v: ModuleId, new_key: i32) {
        self.remove(v);
        self.insert(v, new_key);
    }

    /// Selects the highest-key module satisfying `feasible`, honoring the
    /// tie-breaking policy within each bucket, without removing it.
    ///
    /// Walks buckets from the highest non-empty one downward; within a
    /// bucket, candidates are inspected head-to-tail (LIFO/FIFO) or in a
    /// uniformly random order drawn from `rng`, one draw per inspected
    /// candidate (Random), so a Random pick is uniform over the feasible
    /// members of the highest bucket that has any. Returns `None` if no
    /// present module is feasible.
    pub fn select_where<R, F>(&mut self, rng: &mut R, mut feasible: F) -> Option<ModuleId>
    where
        R: Rng + ?Sized,
        F: FnMut(ModuleId) -> bool,
    {
        let mut b = self.settle_top_hint();
        while b >= 0 {
            let head = self.heads[b as usize];
            if head != NIL {
                match self.policy {
                    BucketPolicy::Lifo | BucketPolicy::Fifo => {
                        let mut cur = head;
                        while cur != NIL {
                            let m = ModuleId::from(cur);
                            if feasible(m) {
                                return Some(m);
                            }
                            cur = self.next[cur as usize];
                        }
                    }
                    BucketPolicy::Random => {
                        let picked = self.dense.pick(b as usize, rng, &mut feasible);
                        if picked.is_some() {
                            return picked;
                        }
                    }
                }
            }
            b -= 1;
        }
        None
    }

    /// The highest key currently present, or `None` if empty. Lazily lowers
    /// the internal hint, like selection does.
    pub fn max_key(&mut self) -> Option<i32> {
        let top = self.settle_top_hint();
        (top >= 0).then_some(top - self.max_key)
    }

    /// Lowers the top hint past empty buckets and returns it (−1 when the
    /// structure is empty).
    #[inline]
    fn settle_top_hint(&mut self) -> i32 {
        while self.top_hint >= 0 && self.heads[self.top_hint as usize] == NIL {
            self.top_hint -= 1;
        }
        self.top_hint
    }

    /// Re-dimensions the structure in place for a new module count, key
    /// range, and policy, reusing the existing allocations (grow-only
    /// capacity). After `reset`, the structure is observationally identical
    /// to `GainBuckets::new(num_modules, max_key, policy)` — this is what
    /// lets a [`RefineWorkspace`](crate::RefineWorkspace) carry one bucket
    /// structure across every level of a multilevel run.
    pub fn reset(&mut self, num_modules: usize, max_key: i32, policy: BucketPolicy) {
        assert!(max_key >= 0, "max_key must be non-negative");
        let buckets = (2 * max_key + 1) as usize;
        // Each policy sizes only its own layout; the other stays empty.
        let ((list_buckets, list_modules), (dense_buckets, dense_modules)) = match policy {
            BucketPolicy::Lifo | BucketPolicy::Fifo => ((buckets, num_modules), (0, 0)),
            BucketPolicy::Random => ((0, 0), (buckets, num_modules)),
        };
        self.policy = policy;
        self.max_key = max_key;
        self.heads.clear();
        self.heads.resize(buckets, NIL);
        self.tails.clear();
        self.tails.resize(list_buckets, NIL);
        self.next.resize(list_modules, NIL);
        self.prev.resize(list_modules, NIL);
        self.key.clear();
        self.key.resize(num_modules, 0);
        self.present.clear();
        self.present.resize(num_modules, false);
        self.dense.reset(dense_buckets, dense_modules);
        self.top_hint = -1;
        self.len = 0;
    }

    /// Removes every module, leaving capacity intact. O(present modules +
    /// buckets touched) via full reset — the engines rebuild gains each pass
    /// anyway (the paper notes faster reinitialization as future work).
    pub fn clear(&mut self) {
        self.heads.fill(NIL);
        self.tails.fill(NIL);
        self.present.fill(false);
        self.dense.clear();
        self.top_hint = -1;
        self.len = 0;
    }

    /// The members of the bucket holding `key`: head to tail under LIFO and
    /// FIFO; in arbitrary order under Random, where selection reorders the
    /// bucket. Intended for tests and lookahead selection.
    pub fn bucket_members(&self, key: i32) -> Vec<ModuleId> {
        let b = self.bucket_index(key);
        if self.policy == BucketPolicy::Random {
            return self.dense.members.get(b).cloned().unwrap_or_default();
        }
        let mut out = Vec::new();
        let mut cur = self.heads[b];
        while cur != NIL {
            out.push(ModuleId::from(cur));
            cur = self.next[cur as usize];
        }
        out
    }
}

/// Random's buckets: each bucket's members packed densely in no particular
/// order, plus every present module's position in its bucket. Insert
/// pushes, remove swap-removes, and selection shuffles in place; each keeps
/// the positions current.
#[derive(Debug, Clone, Default)]
struct DenseBuckets {
    members: Vec<Vec<ModuleId>>,
    slot: Vec<u32>,
}

impl DenseBuckets {
    /// Empties the structure and sizes it for `buckets` buckets over
    /// `num_modules` modules, keeping allocations.
    fn reset(&mut self, buckets: usize, num_modules: usize) {
        self.clear();
        self.members.resize_with(buckets, Vec::new);
        self.slot.resize(num_modules, 0);
    }

    fn clear(&mut self) {
        self.members.iter_mut().for_each(Vec::clear);
    }

    /// Records that `v` now sits at position `s` of its bucket. Positions
    /// fit in `u32`: a bucket holds each module id at most once.
    #[inline]
    fn place(slot: &mut [u32], v: ModuleId, s: usize) {
        if let Some(at) = slot.get_mut(v.index()) {
            *at = u32::try_from(s).unwrap_or(NIL);
        }
    }

    #[inline]
    fn push(&mut self, b: usize, v: ModuleId) {
        if let Some(bucket) = self.members.get_mut(b) {
            Self::place(&mut self.slot, v, bucket.len());
            bucket.push(v);
        }
    }

    /// Removes `v` from bucket `b`; returns `true` if the bucket is now
    /// empty.
    #[inline]
    fn swap_remove(&mut self, b: usize, v: ModuleId) -> bool {
        let (Some(bucket), Some(&s)) = (self.members.get_mut(b), self.slot.get(v.index())) else {
            return false;
        };
        let s = s as usize;
        bucket.swap_remove(s);
        if let Some(&moved) = bucket.get(s) {
            Self::place(&mut self.slot, moved, s);
        }
        bucket.is_empty()
    }

    /// Partial Fisher–Yates on bucket `b`'s own array: position `i` takes a
    /// uniform draw from positions `i..k`, and the first feasible member
    /// drawn is returned. Members are inspected in a uniformly random order,
    /// so the pick is uniform over the bucket's feasible members.
    #[inline]
    fn pick<R, F>(&mut self, b: usize, rng: &mut R, feasible: &mut F) -> Option<ModuleId>
    where
        R: Rng + ?Sized,
        F: FnMut(ModuleId) -> bool,
    {
        let bucket = self.members.get_mut(b)?;
        let k = bucket.len();
        for i in 0..k {
            let j = rng.gen_range(i..k);
            bucket.swap(i, j);
            let (Some(&m), Some(&other)) = (bucket.get(i), bucket.get(j)) else {
                break;
            };
            Self::place(&mut self.slot, m, i);
            Self::place(&mut self.slot, other, j);
            if feasible(m) {
                return Some(m);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;

    fn m(i: usize) -> ModuleId {
        ModuleId::new(i)
    }

    #[test]
    fn lifo_order_within_bucket() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo);
        b.insert(m(0), 2);
        b.insert(m(1), 2);
        b.insert(m(2), 2);
        assert_eq!(b.bucket_members(2), vec![m(2), m(1), m(0)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, |_| true), Some(m(2)));
    }

    #[test]
    fn fifo_order_within_bucket() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Fifo);
        b.insert(m(0), 2);
        b.insert(m(1), 2);
        b.insert(m(2), 2);
        assert_eq!(b.bucket_members(2), vec![m(0), m(1), m(2)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, |_| true), Some(m(0)));
    }

    #[test]
    fn selection_prefers_higher_key() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo);
        b.insert(m(0), -3);
        b.insert(m(1), 4);
        b.insert(m(2), 0);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, |_| true), Some(m(1)));
        b.remove(m(1));
        assert_eq!(b.select_where(&mut rng, |_| true), Some(m(2)));
    }

    #[test]
    fn selection_skips_infeasible() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo);
        b.insert(m(0), 4);
        b.insert(m(1), 4);
        b.insert(m(2), 1);
        let mut rng = seeded_rng(0);
        // Head of top bucket is m(1); forbid it.
        let got = b.select_where(&mut rng, |v| v != m(1));
        assert_eq!(got, Some(m(0)));
        // Forbid entire top bucket -> falls through to lower bucket.
        let got = b.select_where(&mut rng, |v| v == m(2));
        assert_eq!(got, Some(m(2)));
        // Nothing feasible -> None.
        assert_eq!(b.select_where(&mut rng, |_| false), None);
    }

    #[test]
    fn update_key_moves_between_buckets() {
        let mut b = GainBuckets::new(3, 4, BucketPolicy::Lifo);
        b.insert(m(0), 1);
        b.insert(m(1), 1);
        b.update_key(m(0), 3);
        assert_eq!(b.key_of(m(0)), 3);
        assert_eq!(b.bucket_members(3), vec![m(0)]);
        assert_eq!(b.bucket_members(1), vec![m(1)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, |_| true), Some(m(0)));
    }

    #[test]
    fn update_key_same_value_moves_to_head_under_lifo() {
        let mut b = GainBuckets::new(3, 4, BucketPolicy::Lifo);
        b.insert(m(0), 1);
        b.insert(m(1), 1);
        // m(1) is currently head; re-push m(0) at the same key.
        b.update_key(m(0), 1);
        assert_eq!(b.bucket_members(1), vec![m(0), m(1)]);
    }

    #[test]
    fn remove_middle_tail_head() {
        let mut b = GainBuckets::new(4, 2, BucketPolicy::Fifo);
        for i in 0..4 {
            b.insert(m(i), 0);
        }
        b.remove(m(1)); // middle
        assert_eq!(b.bucket_members(0), vec![m(0), m(2), m(3)]);
        b.remove(m(3)); // tail
        assert_eq!(b.bucket_members(0), vec![m(0), m(2)]);
        b.remove(m(0)); // head
        assert_eq!(b.bucket_members(0), vec![m(2)]);
        assert_eq!(b.len(), 1);
        // Tail pointer still valid: insert appends after m(2).
        b.insert(m(0), 0);
        assert_eq!(b.bucket_members(0), vec![m(2), m(0)]);
    }

    #[test]
    fn random_policy_selects_all_members_over_time() {
        let mut b = GainBuckets::new(3, 1, BucketPolicy::Random);
        b.insert(m(0), 1);
        b.insert(m(1), 1);
        b.insert(m(2), 1);
        let mut rng = seeded_rng(99);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let got = b.select_where(&mut rng, |_| true).expect("non-empty");
            seen[got.index()] = true;
        }
        assert_eq!(seen, [true, true, true], "random selection covers ties");
    }

    #[test]
    fn random_policy_respects_feasibility() {
        let mut b = GainBuckets::new(3, 1, BucketPolicy::Random);
        b.insert(m(0), 1);
        b.insert(m(1), 1);
        b.insert(m(2), 0);
        let mut rng = seeded_rng(5);
        for _ in 0..20 {
            assert_eq!(b.select_where(&mut rng, |v| v == m(2)), Some(m(2)));
        }
    }

    /// Uniformity oracle for Random. A bucket of 12 members sits above one
    /// lower-bucket module. Picks must be uniform over the top bucket's
    /// feasible members (Pearson's χ² below its 99.9% critical value), first
    /// with all feasible, then with the odd members masked; masked members
    /// and the lower bucket are never returned.
    #[test]
    #[cfg_attr(miri, ignore)] // 48k selections: too slow under the interpreter
    fn random_selection_is_uniform_over_feasible_members() {
        const MEMBERS: usize = 12;
        const DRAWS: u64 = 24_000;
        // (feasible ids are the multiples of `stride`, 99.9% critical value
        // of χ² for its degrees of freedom: 11 with all 12 feasible, 5 with
        // the 6 even ones).
        for (stride, critical) in [(1, 31.264), (2, 20.515)] {
            let feasible = |v: ModuleId| v.index().is_multiple_of(stride);
            let mut b = GainBuckets::new(MEMBERS + 1, 3, BucketPolicy::Random);
            for i in 0..MEMBERS {
                b.insert(m(i), 2);
            }
            b.insert(m(MEMBERS), 0);
            let mut rng = seeded_rng(2026);
            let mut counts = [0u64; MEMBERS + 1];
            for _ in 0..DRAWS {
                let got = b.select_where(&mut rng, feasible).expect("feasible member");
                counts[got.index()] += 1;
            }
            assert_eq!(counts[MEMBERS], 0, "lower bucket reached: {counts:?}");
            let mut observed = Vec::new();
            for (i, &c) in counts[..MEMBERS].iter().enumerate() {
                if feasible(m(i)) {
                    observed.push(c);
                } else {
                    assert_eq!(c, 0, "masked member {i} selected");
                }
            }
            let expected = DRAWS as f64 / observed.len() as f64;
            let chi2: f64 = observed
                .iter()
                .map(|&c| (c as f64 - expected).powi(2) / expected)
                .sum();
            assert!(
                chi2 < critical,
                "χ² = {chi2:.2} ≥ {critical} over {} members: {counts:?}",
                observed.len()
            );
        }
    }

    #[test]
    fn negative_keys_work() {
        let mut b = GainBuckets::new(2, 5, BucketPolicy::Lifo);
        b.insert(m(0), -5);
        b.insert(m(1), -4);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, |_| true), Some(m(1)));
    }

    #[test]
    fn clear_resets() {
        for policy in [BucketPolicy::Lifo, BucketPolicy::Random] {
            let mut b = GainBuckets::new(3, 2, policy);
            b.insert(m(0), 2);
            b.insert(m(1), -2);
            b.clear();
            assert!(b.is_empty());
            assert!(!b.contains(m(0)));
            assert!(b.bucket_members(2).is_empty());
            let mut rng = seeded_rng(0);
            assert_eq!(b.select_where(&mut rng, |_| true), None);
            // Reusable after clear.
            b.insert(m(2), 0);
            assert_eq!(b.select_where(&mut rng, |_| true), Some(m(2)));
        }
    }

    #[test]
    fn len_and_contains_track_membership() {
        let mut b = GainBuckets::new(3, 2, BucketPolicy::Lifo);
        assert!(b.is_empty());
        b.insert(m(1), 0);
        assert_eq!(b.len(), 1);
        assert!(b.contains(m(1)));
        assert!(!b.contains(m(0)));
        b.remove(m(1));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn max_key_tracks_top() {
        let mut b = GainBuckets::new(4, 5, BucketPolicy::Lifo);
        assert_eq!(b.max_key(), None);
        b.insert(m(0), -2);
        b.insert(m(1), 3);
        assert_eq!(b.max_key(), Some(3));
        b.remove(m(1));
        assert_eq!(b.max_key(), Some(-2));
        b.update_key(m(0), 5);
        assert_eq!(b.max_key(), Some(5));
    }

    #[test]
    fn top_hint_recovers_after_mass_removal() {
        let mut b = GainBuckets::new(10, 5, BucketPolicy::Lifo);
        for i in 0..10 {
            b.insert(m(i), (i as i32) - 5);
        }
        // Remove the top half.
        for i in (5..10).rev() {
            b.remove(m(i));
        }
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, |_| true), Some(m(4)));
    }
}
