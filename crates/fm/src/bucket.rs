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
//! feasibility check; that walk is *not* O(1) per move.
//!
//! Under LIFO and FIFO each key bucket keeps one list per *class*, and a
//! selection names the classes it may draw from ([`OpenClasses`]). Sanchis'
//! k-way FM files a move by source and destination block; the k-way engine
//! keeps one structure per destination and files each module under its
//! source part, so a part that cannot give up any module closes its class
//! and selection never inspects its members. The open lists of a bucket are
//! merged by the caller's insertion stamps, newest first under LIFO and
//! oldest first under FIFO: exactly the order one list per bucket would
//! have, with the closed classes left out. Random ignores classes. Measured
//! with `PassStats::inspected`, the 2-way engine (one class) makes about 33
//! checks per move on a large ML bisection, and the k-way engine about 8.6
//! on a quadrisection (about 183 before the source classes).

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

/// The classes a selection may draw from, and the insertion stamps that
/// order members of different classes.
///
/// `stamps[v]` must be set whenever `v` is inserted, from a clock that
/// only grows while `v` is present, so that a class list's order is its
/// members' stamp order. One stamp per module serves several structures if
/// every insertion of a module into any of them happens at one clock tick.
#[derive(Debug, Clone, Copy)]
pub struct OpenClasses<'a> {
    open: &'a [bool],
    stamps: &'a [u32],
}

impl<'a> OpenClasses<'a> {
    /// The one class of a one-class structure, open; no stamps are needed.
    pub const SINGLE: OpenClasses<'static> = OpenClasses {
        open: &[true],
        stamps: &[],
    };

    /// Class `c` is open when `open[c]` is `true`; classes past the end of
    /// `open` are closed.
    pub fn new(open: &'a [bool], stamps: &'a [u32]) -> Self {
        OpenClasses { open, stamps }
    }

    #[inline]
    fn contains(self, class: usize) -> bool {
        self.open.get(class).copied().unwrap_or(false)
    }
}

/// An array-of-bucket-lists priority structure over module ids with integer
/// gain keys in `[-max_key, +max_key]`, one list per class in each bucket.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{BucketPolicy, GainBuckets, OpenClasses};
/// use mlpart_hypergraph::ModuleId;
///
/// // Two classes; the caller stamps each insertion from a growing clock.
/// let mut b = GainBuckets::new(4, 3, BucketPolicy::Lifo, 2);
/// let stamps = [0, 1, 2, 0];
/// b.insert(ModuleId::new(0), 0, 2);
/// b.insert(ModuleId::new(1), 1, 2);
/// b.insert(ModuleId::new(2), 0, -1);
/// let mut rng = mlpart_hypergraph::rng::seeded_rng(0);
/// // LIFO: module 1 was inserted last at key 2, so it is inspected first.
/// let both = OpenClasses::new(&[true, true], &stamps);
/// assert_eq!(b.select_where(&mut rng, both, |_| true), Some(ModuleId::new(1)));
/// // With class 1 closed, module 1 is never inspected.
/// let first = OpenClasses::new(&[true, false], &stamps);
/// assert_eq!(b.select_where(&mut rng, first, |_| true), Some(ModuleId::new(0)));
/// ```
#[derive(Debug, Clone)]
pub struct GainBuckets {
    policy: BucketPolicy,
    /// `bucket index = key + max_key`.
    max_key: i32,
    /// Lists per bucket: the class count under LIFO and FIFO, 1 under
    /// Random.
    classes: usize,
    /// List head per (bucket, class), at `bucket * classes + class`. Under
    /// Random it only marks occupancy: any non-`NIL` value means the bucket
    /// has members.
    heads: Vec<u32>,
    /// List tail per (bucket, class), sized under FIFO only.
    tails: Vec<u32>,
    /// The list links, sized under LIFO and FIFO only.
    next: Vec<u32>,
    prev: Vec<u32>,
    key: Vec<i32>,
    present: Vec<bool>,
    /// Random's members; empty under LIFO and FIFO.
    dense: DenseBuckets,
    /// Selection scratch: the walk position in each open list of a bucket.
    cursors: Vec<u32>,
    /// Hint: no non-empty bucket has index greater than this.
    top_hint: i32,
    len: usize,
}

impl GainBuckets {
    /// Creates an empty structure for `num_modules` modules with keys in
    /// `[-max_key, +max_key]` and `classes` lists per bucket.
    pub fn new(num_modules: usize, max_key: i32, policy: BucketPolicy, classes: usize) -> Self {
        let mut b = GainBuckets {
            policy,
            max_key,
            classes: 1,
            heads: Vec::new(),
            tails: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            key: Vec::new(),
            present: Vec::new(),
            dense: DenseBuckets::default(),
            cursors: Vec::new(),
            top_hint: -1,
            len: 0,
        };
        b.reset(num_modules, max_key, policy, classes);
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

    /// The list of `class` in bucket `b` (LIFO and FIFO). Here, in
    /// `settle_top_hint` and in `select_where`, a one-class structure (the
    /// 2-way engine's) takes the plain one-list path: through the class
    /// arithmetic, constrained CLIP at k = 8 took about 4% more CPU time.
    #[inline]
    fn list_index(&self, b: usize, class: usize) -> usize {
        debug_assert!(class < self.classes, "class {class} of {}", self.classes);
        if self.classes == 1 {
            b
        } else {
            b * self.classes + class
        }
    }

    /// Inserts module `v` under `class` with the given key according to the
    /// policy (LIFO: list head; FIFO: list tail; Random: the end of the
    /// bucket's array, whatever the class).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is already present, the key is out of
    /// range, or the class is out of range under LIFO or FIFO.
    pub fn insert(&mut self, v: ModuleId, class: usize, key: i32) {
        debug_assert!(!self.contains(v), "module already in structure");
        let b = self.bucket_index(key);
        let i = v.raw();
        match self.policy {
            BucketPolicy::Lifo => {
                // Push at head.
                let l = self.list_index(b, class);
                let old_head = self.heads[l];
                self.next[i as usize] = old_head;
                self.prev[i as usize] = NIL;
                if old_head != NIL {
                    self.prev[old_head as usize] = i;
                }
                self.heads[l] = i;
            }
            BucketPolicy::Fifo => {
                // Append at tail.
                let l = self.list_index(b, class);
                let old_tail = self.tails[l];
                self.prev[i as usize] = old_tail;
                self.next[i as usize] = NIL;
                if old_tail != NIL {
                    self.next[old_tail as usize] = i;
                } else {
                    self.heads[l] = i;
                }
                self.tails[l] = i;
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

    /// Removes module `v`, filed under `class`, from the structure.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is not present or, under LIFO and FIFO,
    /// is not filed under `class`.
    pub fn remove(&mut self, v: ModuleId, class: usize) {
        debug_assert!(self.contains(v), "module not in structure");
        let i = v.raw();
        let b = self.bucket_index(self.key[i as usize]);
        if self.policy == BucketPolicy::Random {
            if self.dense.swap_remove(b, v) {
                self.heads[b] = NIL;
            }
        } else {
            let l = self.list_index(b, class);
            let (p, n) = (self.prev[i as usize], self.next[i as usize]);
            if p != NIL {
                self.next[p as usize] = n;
            } else {
                debug_assert_eq!(self.heads[l], i, "module not filed under class {class}");
                self.heads[l] = n;
            }
            if n != NIL {
                self.prev[n as usize] = p;
            } else if self.policy == BucketPolicy::Fifo {
                self.tails[l] = p;
            }
        }
        self.present[i as usize] = false;
        self.len -= 1;
    }

    /// Changes the key of module `v`, filed under `class`, reinserting it
    /// per the policy. A no-op key change still reinserts (moving `v` to the
    /// head under LIFO), matching the classic implementation where every
    /// gain update re-pushes the module.
    pub fn update_key(&mut self, v: ModuleId, class: usize, new_key: i32) {
        self.remove(v, class);
        self.insert(v, class, new_key);
    }

    /// Selects the highest-key module of an `open` class satisfying
    /// `feasible`, honoring the tie-breaking policy within each bucket,
    /// without removing it.
    ///
    /// Walks buckets from the highest non-empty one downward. Within a
    /// bucket, LIFO and FIFO inspect the open classes' members in the order
    /// one list per bucket would hold them (newest stamp first under LIFO,
    /// oldest first under FIFO), and never pass a closed class's member to
    /// `feasible`. Random ignores classes and inspects the whole bucket in a
    /// uniformly random order drawn from `rng`, one draw per inspected
    /// candidate, so a Random pick is uniform over the feasible members of
    /// the highest bucket that has any. Returns `None` if no candidate is
    /// feasible.
    pub fn select_where<R, F>(
        &mut self,
        rng: &mut R,
        open: OpenClasses<'_>,
        mut feasible: F,
    ) -> Option<ModuleId>
    where
        R: Rng + ?Sized,
        F: FnMut(ModuleId) -> bool,
    {
        let mut b = self.settle_top_hint();
        let newest_first = self.policy == BucketPolicy::Lifo;
        while b >= 0 {
            let picked = match self.policy {
                // One list per bucket, as in the 2-way engine: walk it
                // directly unless its class is closed.
                BucketPolicy::Lifo | BucketPolicy::Fifo if self.classes == 1 => {
                    if open.contains(0) {
                        let head = self.heads.get(b as usize).copied().unwrap_or(NIL);
                        walk_list(head, &self.next, &mut feasible)
                    } else {
                        None
                    }
                }
                BucketPolicy::Lifo | BucketPolicy::Fifo => walk_bucket(
                    lists(&self.heads, self.classes, b as usize),
                    &self.next,
                    &mut self.cursors,
                    open,
                    newest_first,
                    &mut feasible,
                ),
                BucketPolicy::Random if self.heads[b as usize] != NIL => {
                    self.dense.pick(b as usize, rng, &mut feasible)
                }
                BucketPolicy::Random => None,
            };
            if picked.is_some() {
                return picked;
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
        let mut top = self.top_hint;
        if self.classes == 1 {
            while top >= 0 && self.heads.get(top as usize).is_none_or(|&h| h == NIL) {
                top -= 1;
            }
        } else {
            while top >= 0
                && lists(&self.heads, self.classes, top as usize)
                    .iter()
                    .all(|&h| h == NIL)
            {
                top -= 1;
            }
        }
        self.top_hint = top;
        top
    }

    /// Re-dimensions the structure in place for a new module count, key
    /// range, policy and class count, reusing the existing allocations
    /// (grow-only capacity). After `reset`, the structure is observationally
    /// identical to `GainBuckets::new(num_modules, max_key, policy,
    /// classes)` — this is what lets a
    /// [`RefineWorkspace`](crate::RefineWorkspace) carry one bucket
    /// structure across every level of a multilevel run.
    ///
    /// # Panics
    ///
    /// Panics if `max_key` is negative or `classes` is 0.
    pub fn reset(
        &mut self,
        num_modules: usize,
        max_key: i32,
        policy: BucketPolicy,
        classes: usize,
    ) {
        assert!(max_key >= 0, "max_key must be non-negative");
        assert!(classes > 0, "a bucket needs at least one class");
        let buckets = (2 * max_key + 1) as usize;
        // Each policy sizes only its own layout; the others stay empty.
        let (lists, tails, list_modules, dense_buckets, dense_modules) = match policy {
            BucketPolicy::Lifo => (classes, 0, num_modules, 0, 0),
            BucketPolicy::Fifo => (classes, buckets * classes, num_modules, 0, 0),
            BucketPolicy::Random => (1, 0, 0, buckets, num_modules),
        };
        self.policy = policy;
        self.max_key = max_key;
        self.classes = lists;
        self.heads.clear();
        self.heads.resize(buckets * lists, NIL);
        self.tails.clear();
        self.tails.resize(tails, NIL);
        self.next.resize(list_modules, NIL);
        self.prev.resize(list_modules, NIL);
        self.key.clear();
        self.key.resize(num_modules, 0);
        self.present.clear();
        self.present.resize(num_modules, false);
        self.dense.reset(dense_buckets, dense_modules);
        self.cursors.clear();
        self.cursors.reserve(lists);
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

    /// The members of the bucket holding `key` in its open classes: in
    /// selection order under LIFO and FIFO; the whole bucket in arbitrary
    /// order under Random, where selection reorders the bucket. Intended for
    /// tests and lookahead selection.
    pub fn bucket_members(&self, key: i32, open: OpenClasses<'_>) -> Vec<ModuleId> {
        let b = self.bucket_index(key);
        if self.policy == BucketPolicy::Random {
            return self.dense.members.get(b).cloned().unwrap_or_default();
        }
        let mut out = Vec::new();
        walk_bucket(
            lists(&self.heads, self.classes, b),
            &self.next,
            &mut Vec::new(),
            open,
            self.policy == BucketPolicy::Lifo,
            &mut |v| {
                out.push(v);
                false
            },
        );
        out
    }
}

/// The list heads of bucket `b`, one per class.
#[inline]
fn lists(heads: &[u32], classes: usize, b: usize) -> &[u32] {
    heads.get(b * classes..(b + 1) * classes).unwrap_or(&[])
}

/// Visits the list that starts at `cur`, head to tail, until `visit`
/// accepts a member, and returns that member.
#[inline]
fn walk_list<F>(mut cur: u32, next: &[u32], visit: &mut F) -> Option<ModuleId>
where
    F: FnMut(ModuleId) -> bool,
{
    while cur != NIL {
        let m = ModuleId::from(cur);
        if visit(m) {
            return Some(m);
        }
        cur = next.get(cur as usize).copied().unwrap_or(NIL);
    }
    None
}

/// Visits the members of one bucket's open class lists (`heads`, one per
/// class) in single-list order until `visit` accepts one. Several open
/// lists non-empty: a merge on `open`'s stamps, taking the newest (LIFO) or
/// oldest (FIFO) of the lists' current members each step. Each class list
/// is itself in stamp order, so the merge visits exactly the members one
/// list would, in its order, minus the closed classes. Once one list is
/// left, and always for a one-class structure, it is walked without stamp
/// reads. `cursors` is scratch.
#[inline]
fn walk_bucket<F>(
    heads: &[u32],
    next: &[u32],
    cursors: &mut Vec<u32>,
    open: OpenClasses<'_>,
    newest_first: bool,
    visit: &mut F,
) -> Option<ModuleId>
where
    F: FnMut(ModuleId) -> bool,
{
    let mut open_heads = heads
        .iter()
        .enumerate()
        .filter(|&(class, &head)| head != NIL && open.contains(class))
        .map(|(_, &head)| head);
    let first = open_heads.next()?;
    let Some(second) = open_heads.next() else {
        return walk_list(first, next, visit);
    };
    cursors.clear();
    cursors.extend([first, second]);
    cursors.extend(open_heads);
    let stamp = |m: u32| open.stamps.get(m as usize).copied().unwrap_or(0);
    loop {
        if let [head] = *cursors.as_slice() {
            return walk_list(head, next, visit);
        }
        let mut best: Option<(usize, u32)> = None;
        for (i, &m) in cursors.iter().enumerate() {
            let s = stamp(m);
            let better = match best {
                None => true,
                Some((_, bs)) if newest_first => s > bs,
                Some((_, bs)) => s < bs,
            };
            if better {
                best = Some((i, s));
            }
        }
        let (i, _) = best?;
        let cur = cursors.get_mut(i)?;
        let m = ModuleId::from(*cur);
        if visit(m) {
            return Some(m);
        }
        *cur = next.get(*cur as usize).copied().unwrap_or(NIL);
        if *cur == NIL {
            cursors.swap_remove(i);
        }
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

    /// The one class of a one-class structure.
    const ONE: OpenClasses<'static> = OpenClasses::SINGLE;

    fn m(i: usize) -> ModuleId {
        ModuleId::new(i)
    }

    /// A multi-class structure with the stamps its caller keeps: `file`
    /// inserts a module and stamps it from one growing clock.
    struct Filed {
        b: GainBuckets,
        stamps: Vec<u32>,
        clock: u32,
    }

    impl Filed {
        fn new(n: usize, policy: BucketPolicy, classes: usize) -> Self {
            Filed {
                b: GainBuckets::new(n, 4, policy, classes),
                stamps: vec![0; n],
                clock: 0,
            }
        }

        fn file(&mut self, v: usize, class: usize, key: i32) {
            self.clock += 1;
            self.stamps[v] = self.clock;
            self.b.insert(m(v), class, key);
        }
    }

    /// Modules 0..6 at key 1 in classes 0, 1, 2, 0, 1, 2 (filed in id
    /// order), and module 6 in class 0 at key 0.
    fn interleaved(policy: BucketPolicy) -> Filed {
        let mut f = Filed::new(7, policy, 3);
        for v in 0..6 {
            f.file(v, v % 3, 1);
        }
        f.file(6, 0, 0);
        f
    }

    #[test]
    fn lifo_merges_classes_newest_first() {
        let mut f = interleaved(BucketPolicy::Lifo);
        let all = OpenClasses::new(&[true, true, true], &f.stamps);
        let ids = |v: Vec<ModuleId>| v.into_iter().map(|m| m.index()).collect::<Vec<_>>();
        assert_eq!(ids(f.b.bucket_members(1, all)), [5, 4, 3, 2, 1, 0]);
        let no_1 = OpenClasses::new(&[true, false, true], &f.stamps);
        assert_eq!(ids(f.b.bucket_members(1, no_1)), [5, 3, 2, 0]);
        let only_1 = OpenClasses::new(&[false, true], &f.stamps);
        assert_eq!(ids(f.b.bucket_members(1, only_1)), [4, 1]);
        let mut rng = seeded_rng(0);
        assert_eq!(f.b.select_where(&mut rng, all, |_| true), Some(m(5)));
        assert_eq!(
            f.b.select_where(&mut rng, no_1, |v| v.index() < 5),
            Some(m(3))
        );
        // Re-filing module 0 makes it the newest member of the bucket.
        f.b.remove(m(0), 0);
        f.file(0, 0, 1);
        let all = OpenClasses::new(&[true, true, true], &f.stamps);
        assert_eq!(ids(f.b.bucket_members(1, all)), [0, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn fifo_merges_classes_oldest_first() {
        let mut f = interleaved(BucketPolicy::Fifo);
        let all = OpenClasses::new(&[true, true, true], &f.stamps);
        let ids = |v: Vec<ModuleId>| v.into_iter().map(|m| m.index()).collect::<Vec<_>>();
        assert_eq!(ids(f.b.bucket_members(1, all)), [0, 1, 2, 3, 4, 5]);
        let no_0 = OpenClasses::new(&[false, true, true], &f.stamps);
        assert_eq!(ids(f.b.bucket_members(1, no_0)), [1, 2, 4, 5]);
        let mut rng = seeded_rng(0);
        assert_eq!(
            f.b.select_where(&mut rng, no_0, |v| v.index() > 1),
            Some(m(2))
        );
        // Re-filing module 0 makes it the newest member of the bucket.
        f.b.remove(m(0), 0);
        f.file(0, 0, 1);
        let all = OpenClasses::new(&[true, true, true], &f.stamps);
        assert_eq!(ids(f.b.bucket_members(1, all)), [1, 2, 3, 4, 5, 0]);
    }

    #[test]
    fn closed_class_members_are_never_checked() {
        for policy in [BucketPolicy::Lifo, BucketPolicy::Fifo] {
            let mut f = interleaved(policy);
            let mut checked = Vec::new();
            let open = OpenClasses::new(&[false, true], &f.stamps);
            let mut rng = seeded_rng(0);
            let got = f.b.select_where(&mut rng, open, |v| {
                checked.push(v.index());
                false
            });
            // Class 2 lies past the end of `open`, so it is closed too;
            // class 0's module 6 in the lower bucket is never reached.
            assert_eq!(got, None, "{policy}");
            checked.sort_unstable();
            assert_eq!(checked, [1, 4], "{policy}");
        }
    }

    #[test]
    fn lifo_order_within_bucket() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo, 1);
        b.insert(m(0), 0, 2);
        b.insert(m(1), 0, 2);
        b.insert(m(2), 0, 2);
        assert_eq!(b.bucket_members(2, ONE), vec![m(2), m(1), m(0)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(2)));
    }

    #[test]
    fn fifo_order_within_bucket() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Fifo, 1);
        b.insert(m(0), 0, 2);
        b.insert(m(1), 0, 2);
        b.insert(m(2), 0, 2);
        assert_eq!(b.bucket_members(2, ONE), vec![m(0), m(1), m(2)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(0)));
    }

    #[test]
    fn selection_prefers_higher_key() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo, 1);
        b.insert(m(0), 0, -3);
        b.insert(m(1), 0, 4);
        b.insert(m(2), 0, 0);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(1)));
        b.remove(m(1), 0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(2)));
    }

    #[test]
    fn selection_skips_infeasible() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo, 1);
        b.insert(m(0), 0, 4);
        b.insert(m(1), 0, 4);
        b.insert(m(2), 0, 1);
        let mut rng = seeded_rng(0);
        // Head of top bucket is m(1); forbid it.
        let got = b.select_where(&mut rng, ONE, |v| v != m(1));
        assert_eq!(got, Some(m(0)));
        // Forbid entire top bucket -> falls through to lower bucket.
        let got = b.select_where(&mut rng, ONE, |v| v == m(2));
        assert_eq!(got, Some(m(2)));
        // Nothing feasible -> None.
        assert_eq!(b.select_where(&mut rng, ONE, |_| false), None);
    }

    #[test]
    fn update_key_moves_between_buckets() {
        let mut b = GainBuckets::new(3, 4, BucketPolicy::Lifo, 1);
        b.insert(m(0), 0, 1);
        b.insert(m(1), 0, 1);
        b.update_key(m(0), 0, 3);
        assert_eq!(b.key_of(m(0)), 3);
        assert_eq!(b.bucket_members(3, ONE), vec![m(0)]);
        assert_eq!(b.bucket_members(1, ONE), vec![m(1)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(0)));
    }

    #[test]
    fn update_key_same_value_moves_to_head_under_lifo() {
        let mut b = GainBuckets::new(3, 4, BucketPolicy::Lifo, 1);
        b.insert(m(0), 0, 1);
        b.insert(m(1), 0, 1);
        // m(1) is currently head; re-push m(0) at the same key.
        b.update_key(m(0), 0, 1);
        assert_eq!(b.bucket_members(1, ONE), vec![m(0), m(1)]);
    }

    #[test]
    fn remove_middle_tail_head() {
        let mut b = GainBuckets::new(4, 2, BucketPolicy::Fifo, 1);
        for i in 0..4 {
            b.insert(m(i), 0, 0);
        }
        b.remove(m(1), 0); // middle
        assert_eq!(b.bucket_members(0, ONE), vec![m(0), m(2), m(3)]);
        b.remove(m(3), 0); // tail
        assert_eq!(b.bucket_members(0, ONE), vec![m(0), m(2)]);
        b.remove(m(0), 0); // head
        assert_eq!(b.bucket_members(0, ONE), vec![m(2)]);
        assert_eq!(b.len(), 1);
        // Tail pointer still valid: insert appends after m(2).
        b.insert(m(0), 0, 0);
        assert_eq!(b.bucket_members(0, ONE), vec![m(2), m(0)]);
    }

    #[test]
    fn random_policy_selects_all_members_over_time() {
        let mut b = GainBuckets::new(3, 1, BucketPolicy::Random, 1);
        b.insert(m(0), 0, 1);
        b.insert(m(1), 0, 1);
        b.insert(m(2), 0, 1);
        let mut rng = seeded_rng(99);
        let mut seen = [false; 3];
        for _ in 0..100 {
            let got = b.select_where(&mut rng, ONE, |_| true).expect("non-empty");
            seen[got.index()] = true;
        }
        assert_eq!(seen, [true, true, true], "random selection covers ties");
    }

    #[test]
    fn random_policy_respects_feasibility() {
        let mut b = GainBuckets::new(3, 1, BucketPolicy::Random, 1);
        b.insert(m(0), 0, 1);
        b.insert(m(1), 0, 1);
        b.insert(m(2), 0, 0);
        let mut rng = seeded_rng(5);
        for _ in 0..20 {
            assert_eq!(b.select_where(&mut rng, ONE, |v| v == m(2)), Some(m(2)));
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
            let mut b = GainBuckets::new(MEMBERS + 1, 3, BucketPolicy::Random, 1);
            for i in 0..MEMBERS {
                b.insert(m(i), 0, 2);
            }
            b.insert(m(MEMBERS), 0, 0);
            let mut rng = seeded_rng(2026);
            let mut counts = [0u64; MEMBERS + 1];
            for _ in 0..DRAWS {
                let got = b
                    .select_where(&mut rng, ONE, feasible)
                    .expect("feasible member");
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
        let mut b = GainBuckets::new(2, 5, BucketPolicy::Lifo, 1);
        b.insert(m(0), 0, -5);
        b.insert(m(1), 0, -4);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(1)));
    }

    #[test]
    fn clear_resets() {
        for policy in [BucketPolicy::Lifo, BucketPolicy::Random] {
            let mut b = GainBuckets::new(3, 2, policy, 1);
            b.insert(m(0), 0, 2);
            b.insert(m(1), 0, -2);
            b.clear();
            assert!(b.is_empty());
            assert!(!b.contains(m(0)));
            assert!(b.bucket_members(2, ONE).is_empty());
            let mut rng = seeded_rng(0);
            assert_eq!(b.select_where(&mut rng, ONE, |_| true), None);
            // Reusable after clear.
            b.insert(m(2), 0, 0);
            assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(2)));
        }
    }

    #[test]
    fn len_and_contains_track_membership() {
        let mut b = GainBuckets::new(3, 2, BucketPolicy::Lifo, 1);
        assert!(b.is_empty());
        b.insert(m(1), 0, 0);
        assert_eq!(b.len(), 1);
        assert!(b.contains(m(1)));
        assert!(!b.contains(m(0)));
        b.remove(m(1), 0);
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn max_key_tracks_top() {
        let mut b = GainBuckets::new(4, 5, BucketPolicy::Lifo, 1);
        assert_eq!(b.max_key(), None);
        b.insert(m(0), 0, -2);
        b.insert(m(1), 0, 3);
        assert_eq!(b.max_key(), Some(3));
        b.remove(m(1), 0);
        assert_eq!(b.max_key(), Some(-2));
        b.update_key(m(0), 0, 5);
        assert_eq!(b.max_key(), Some(5));
    }

    #[test]
    fn top_hint_recovers_after_mass_removal() {
        let mut b = GainBuckets::new(10, 5, BucketPolicy::Lifo, 1);
        for i in 0..10 {
            b.insert(m(i), 0, (i as i32) - 5);
        }
        // Remove the top half.
        for i in (5..10).rev() {
            b.remove(m(i), 0);
        }
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(4)));
    }
}
