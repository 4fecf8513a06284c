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
//! feasibility check or the walk reaches the caller's floor key; that walk
//! is *not* O(1) per move.
//!
//! Under LIFO and FIFO every member is filed under a *class*, and a
//! selection names the classes it may draw from ([`OpenClasses`]); a
//! closed class's members are never passed to the feasibility check. The
//! order among the open members is always the one a single list per bucket
//! would have. How the classes are kept apart is the caller's choice of
//! [`Filing`]. The 2-way engine files each module under its side in one
//! *tallied* list per bucket: with both sides open, selection walks that
//! list exactly as classic FM does, and when a side can give up no module,
//! a member count per (bucket, class) lets the walk skip every bucket that
//! holds only that side. Sanchis' k-way FM files a move by source and
//! destination block; the k-way engine keeps one structure per destination
//! and files each module under its source part in *merged* lists, one per
//! (bucket, class), which selection merges by the caller's insertion
//! stamps. Random ignores classes. Measured with `PassStats::inspected`,
//! the 2-way engine makes about 1.2 checks per move on a large ML bisection
//! (about 33 before the side tallies, almost all of them in the few picks
//! with one side blocked), and the k-way engine about 7.2 on a
//! quadrisection (about 183 before the source classes, and 10.3 before
//! [`GainBuckets::select_above`] let it stop each probe at the key of the
//! pick it already has).

use crate::state::resize_exact;
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

/// How a LIFO or FIFO structure keeps its classes apart. Both give the same
/// selections; they differ in what a closed class costs. Random keeps no
/// member order and ignores the filing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Filing {
    /// One list per bucket holding every class, plus a member count per
    /// (bucket, class). With every class open, selection walks the list as
    /// it is and reads no count; with a class closed, it skips the buckets
    /// that hold no open-class member and steps over closed members
    /// without checking them. Needs no stamps.
    Tallied,
    /// One list per (bucket, class), merged at selection by the caller's
    /// insertion stamps, so a closed class's members are never visited.
    Merged,
}

const NIL: u32 = u32::MAX;

/// The class entry of an absent module. Class ids are stored in 16 bits:
/// a merged structure keeps a head per (bucket, class), and the k-way
/// engine keeps `k` such structures, so memory bounds `k` far below this.
const ABSENT: u16 = u16::MAX;

/// The classes a selection may draw from, and the insertion stamps that
/// order members of different classes in a [`Filing::Merged`] structure.
///
/// `stamps[v]` must be set whenever `v` is inserted, from a clock that
/// only grows while `v` is present, so that a class list's order is its
/// members' stamp order. One stamp per module serves several structures if
/// every insertion of a module into any of them happens at one clock tick.
/// A [`Filing::Tallied`] structure reads no stamps.
#[derive(Debug, Clone, Copy)]
pub struct OpenClasses<'a> {
    open: &'a [bool],
    stamps: &'a [u32],
}

impl<'a> OpenClasses<'a> {
    /// Class `c` is open when `open[c]` is `true`; classes past the end of
    /// `open` are closed.
    pub const fn new(open: &'a [bool], stamps: &'a [u32]) -> Self {
        OpenClasses { open, stamps }
    }

    #[inline]
    fn contains(self, class: usize) -> bool {
        self.open.get(class).copied().unwrap_or(false)
    }
}

/// Where a structure keeps its members: the list layout of a LIFO or FIFO
/// [`Filing`], or Random's dense arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Tallied,
    Merged,
    Dense,
}

/// An array-of-bucket-lists priority structure over module ids with integer
/// gain keys in `[-max_key, +max_key]`, each member filed under a class.
///
/// # Examples
///
/// ```
/// use mlpart_fm::{BucketPolicy, Filing, GainBuckets, OpenClasses};
/// use mlpart_hypergraph::ModuleId;
///
/// // Two classes in one tallied list per bucket.
/// let mut b = GainBuckets::new(4, 3, BucketPolicy::Lifo, 2, Filing::Tallied);
/// b.insert(ModuleId::new(0), 0, 2);
/// b.insert(ModuleId::new(1), 1, 2);
/// b.insert(ModuleId::new(2), 0, -1);
/// assert_eq!(b.tally(2, 1), Some(1));
/// let mut rng = mlpart_hypergraph::rng::seeded_rng(0);
/// // LIFO: module 1 was inserted last at key 2, so it is inspected first.
/// let both = OpenClasses::new(&[true, true], &[]);
/// assert_eq!(b.select_where(&mut rng, both, |_| true), Some(ModuleId::new(1)));
/// // With class 1 closed, module 1 is never inspected.
/// let first = OpenClasses::new(&[true, false], &[]);
/// assert_eq!(b.select_where(&mut rng, first, |_| true), Some(ModuleId::new(0)));
/// // The structure remembers each member's class.
/// b.remove(ModuleId::new(0));
/// assert_eq!(b.tally(2, 0), Some(0));
/// assert_eq!(b.class_of(ModuleId::new(1)), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct GainBuckets {
    policy: BucketPolicy,
    layout: Layout,
    /// `bucket index = key + max_key`.
    max_key: i32,
    /// Classes a member may be filed under.
    classes: usize,
    /// List head per bucket, or per (bucket, class) at
    /// `bucket * classes + class` in a merged structure. Under Random it
    /// only marks occupancy: any non-`NIL` value means the bucket has
    /// members.
    heads: Vec<u32>,
    /// List tails, laid out like `heads`; sized under FIFO only.
    tails: Vec<u32>,
    /// The list links, sized under LIFO and FIFO only.
    next: Vec<u32>,
    prev: Vec<u32>,
    key: Vec<i32>,
    /// Each module's class while it is present, `ABSENT` while absent.
    class: Vec<u16>,
    /// Members per (bucket, class) at `bucket * classes + class`; sized in
    /// a tallied structure only.
    tally: Vec<u32>,
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
    /// `[-max_key, +max_key]`, each member filed under one of `classes`
    /// classes as `filing` says.
    pub fn new(
        num_modules: usize,
        max_key: i32,
        policy: BucketPolicy,
        classes: usize,
        filing: Filing,
    ) -> Self {
        let mut b = GainBuckets {
            policy,
            layout: Layout::Tallied,
            max_key,
            classes: 1,
            heads: Vec::new(),
            tails: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            key: Vec::new(),
            class: Vec::new(),
            tally: Vec::new(),
            dense: DenseBuckets::default(),
            cursors: Vec::new(),
            top_hint: -1,
            len: 0,
        };
        b.reset(num_modules, max_key, policy, classes, filing);
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
        self.class.get(v.index()).is_some_and(|&c| c != ABSENT)
    }

    /// The class module `v` is filed under, or `None` if it is absent.
    #[inline]
    pub fn class_of(&self, v: ModuleId) -> Option<usize> {
        self.class
            .get(v.index())
            .filter(|&&c| c != ABSENT)
            .map(|&c| usize::from(c))
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

    /// The members of `class` filed at `key` by a tallied LIFO or FIFO
    /// structure's count; `None` when the structure keeps no counts.
    pub fn tally(&self, key: i32, class: usize) -> Option<u32> {
        let b = self.bucket_index(key);
        if class >= self.classes {
            return None;
        }
        self.tally.get(b * self.classes + class).copied()
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

    /// The list of `class` in bucket `b` (LIFO and FIFO): the bucket's one
    /// list unless the structure is merged.
    #[inline]
    fn list_index(&self, b: usize, class: usize) -> usize {
        debug_assert!(class < self.classes, "class {class} of {}", self.classes);
        match self.layout {
            Layout::Merged => b * self.classes + class,
            Layout::Tallied | Layout::Dense => b,
        }
    }

    /// Inserts module `v` under `class` with the given key according to the
    /// policy (LIFO: list head; FIFO: list tail; Random: the end of the
    /// bucket's array).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is already present, the key is out of
    /// range, or the class is out of range.
    pub fn insert(&mut self, v: ModuleId, class: usize, key: i32) {
        debug_assert!(!self.contains(v), "module already in structure");
        debug_assert!(class < self.classes, "class {class} of {}", self.classes);
        self.link(v, class, key);
        if let Some(c) = self.class.get_mut(v.index()) {
            *c = u16::try_from(class).unwrap_or(ABSENT);
        }
        self.len += 1;
    }

    /// Removes module `v` from the structure.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is not present.
    pub fn remove(&mut self, v: ModuleId) {
        let class = self.class_of(v);
        debug_assert!(class.is_some(), "module not in structure");
        self.unlink(v, class.unwrap_or(0));
        if let Some(c) = self.class.get_mut(v.index()) {
            *c = ABSENT;
        }
        self.len -= 1;
    }

    /// Changes the key of module `v`, reinserting it per the policy under
    /// its class. A no-op key change still reinserts (moving `v` to the
    /// head under LIFO), matching the classic implementation where every
    /// gain update re-pushes the module.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `v` is not present.
    pub fn update_key(&mut self, v: ModuleId, new_key: i32) {
        let class = self.class_of(v);
        debug_assert!(class.is_some(), "module not in structure");
        let class = class.unwrap_or(0);
        self.unlink(v, class);
        self.link(v, class, new_key);
    }

    /// Files `v` under `class` at `key`: the list or array insertion, the
    /// key, the tally and the top hint.
    #[inline]
    fn link(&mut self, v: ModuleId, class: usize, key: i32) {
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
        if let Some(n) = self.tally.get_mut(b * self.classes + class) {
            *n += 1;
        }
        self.key[i as usize] = key;
        self.top_hint = self.top_hint.max(b as i32);
    }

    /// Takes `v`, filed under `class`, out of its list or array and its
    /// tally.
    #[inline]
    fn unlink(&mut self, v: ModuleId, class: usize) {
        let i = v.raw();
        let b = self.bucket_index(self.key[i as usize]);
        if let Some(n) = self.tally.get_mut(b * self.classes + class) {
            *n -= 1;
        }
        if self.policy == BucketPolicy::Random {
            if self.dense.swap_remove(b, v) {
                self.heads[b] = NIL;
            }
            return;
        }
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

    /// Selects the highest-key module of an `open` class satisfying
    /// `feasible`, honoring the tie-breaking policy within each bucket,
    /// without removing it.
    ///
    /// Walks buckets from the highest non-empty one downward. Within a
    /// bucket, LIFO and FIFO inspect the open classes' members in the order
    /// one list per bucket would hold them (newest first under LIFO, oldest
    /// first under FIFO), and never pass a closed class's member to
    /// `feasible`: a tallied structure with every class open walks its
    /// lists as they are, and with a class closed skips the buckets whose
    /// tallies show no open-class member; a merged one merges its open
    /// lists by stamp. Random ignores classes and inspects the whole bucket
    /// in a uniformly random order drawn from `rng`, one draw per inspected
    /// candidate, so a Random pick is uniform over the feasible members of
    /// the highest bucket that has any. Returns `None` if no candidate is
    /// feasible.
    pub fn select_where<R, F>(
        &mut self,
        rng: &mut R,
        open: OpenClasses<'_>,
        feasible: F,
    ) -> Option<ModuleId>
    where
        R: Rng + ?Sized,
        F: FnMut(ModuleId) -> bool,
    {
        self.select_above(rng, open, None, feasible)
    }

    /// [`select_where`](Self::select_where) over the keys above `floor`
    /// only: no member at or below it is passed to `feasible`, and Random
    /// draws for none of them. `None` walks every key.
    pub fn select_above<R, F>(
        &mut self,
        rng: &mut R,
        open: OpenClasses<'_>,
        floor: Option<i32>,
        mut feasible: F,
    ) -> Option<ModuleId>
    where
        R: Rng + ?Sized,
        F: FnMut(ModuleId) -> bool,
    {
        // The walks below stop at bucket index `stop`, the floor's.
        let stop = floor.map_or(-1, |f| f.saturating_add(self.max_key).max(-1));
        let mut b = self.settle_top_hint();
        match self.layout {
            Layout::Tallied if (0..self.classes).all(|c| open.contains(c)) => {
                while b > stop {
                    let head = self.heads.get(b as usize).copied().unwrap_or(NIL);
                    let picked = walk_list(head, &self.next, &mut feasible);
                    if picked.is_some() {
                        return picked;
                    }
                    b -= 1;
                }
            }
            Layout::Tallied => {
                while b > stop {
                    let members: u32 = lists(&self.tally, self.classes, b as usize)
                        .iter()
                        .enumerate()
                        .filter(|&(class, _)| open.contains(class))
                        .map(|(_, &n)| n)
                        .sum();
                    if members > 0 {
                        let head = self.heads.get(b as usize).copied().unwrap_or(NIL);
                        let picked =
                            walk_open(head, members, &self.next, &self.class, open, &mut feasible);
                        if picked.is_some() {
                            return picked;
                        }
                    }
                    b -= 1;
                }
            }
            Layout::Merged => {
                let newest_first = self.policy == BucketPolicy::Lifo;
                while b > stop {
                    let picked = walk_bucket(
                        lists(&self.heads, self.classes, b as usize),
                        &self.next,
                        &mut self.cursors,
                        open,
                        newest_first,
                        &mut feasible,
                    );
                    if picked.is_some() {
                        return picked;
                    }
                    b -= 1;
                }
            }
            Layout::Dense => {
                while b > stop {
                    if self.heads.get(b as usize).is_some_and(|&h| h != NIL) {
                        let picked = self.dense.pick(b as usize, rng, &mut feasible);
                        if picked.is_some() {
                            return picked;
                        }
                    }
                    b -= 1;
                }
            }
        }
        None
    }

    /// Lowers the top hint past empty buckets and returns it (−1 when the
    /// structure is empty).
    #[inline]
    fn settle_top_hint(&mut self) -> i32 {
        let mut top = self.top_hint;
        if self.layout == Layout::Merged {
            while top >= 0
                && lists(&self.heads, self.classes, top as usize)
                    .iter()
                    .all(|&h| h == NIL)
            {
                top -= 1;
            }
        } else {
            while top >= 0 && self.heads.get(top as usize).is_none_or(|&h| h == NIL) {
                top -= 1;
            }
        }
        self.top_hint = top;
        top
    }

    /// Re-dimensions the structure in place for a new module count, key
    /// range, policy, class count and filing, reusing the existing
    /// allocations (grow-only capacity). After `reset`, the structure is
    /// observationally identical to `GainBuckets::new(num_modules, max_key,
    /// policy, classes, filing)` — this is what lets a
    /// [`RefineWorkspace`](crate::RefineWorkspace) carry one bucket
    /// structure across every level of a multilevel run.
    ///
    /// # Panics
    ///
    /// Panics if `max_key` is negative, `classes` is 0, or `classes` is
    /// 65,535 or more.
    pub fn reset(
        &mut self,
        num_modules: usize,
        max_key: i32,
        policy: BucketPolicy,
        classes: usize,
        filing: Filing,
    ) {
        assert!(max_key >= 0, "max_key must be non-negative");
        assert!(classes > 0, "a bucket needs at least one class");
        assert!(classes < usize::from(ABSENT), "class ids must fit in u16");
        let buckets = (2 * max_key + 1) as usize;
        let layout = match (policy, filing) {
            (BucketPolicy::Random, _) => Layout::Dense,
            (_, Filing::Tallied) => Layout::Tallied,
            (_, Filing::Merged) => Layout::Merged,
        };
        // Each layout sizes only its own arrays; the others stay empty.
        let lists = if layout == Layout::Merged { classes } else { 1 };
        let tails = if policy == BucketPolicy::Fifo {
            buckets * lists
        } else {
            0
        };
        let tallies = if layout == Layout::Tallied {
            buckets * classes
        } else {
            0
        };
        let (list_modules, dense_buckets, dense_modules) = match layout {
            Layout::Dense => (0, buckets, num_modules),
            Layout::Tallied | Layout::Merged => (num_modules, 0, 0),
        };
        self.policy = policy;
        self.layout = layout;
        self.max_key = max_key;
        self.classes = classes;
        self.heads.clear();
        resize_exact(&mut self.heads, buckets * lists, NIL);
        self.tails.clear();
        resize_exact(&mut self.tails, tails, NIL);
        resize_exact(&mut self.next, list_modules, NIL);
        resize_exact(&mut self.prev, list_modules, NIL);
        self.key.clear();
        resize_exact(&mut self.key, num_modules, 0);
        self.class.clear();
        resize_exact(&mut self.class, num_modules, ABSENT);
        self.tally.clear();
        resize_exact(&mut self.tally, tallies, 0);
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
        self.class.fill(ABSENT);
        self.tally.fill(0);
        self.dense.clear();
        self.top_hint = -1;
        self.len = 0;
    }

    /// The members of the bucket holding `key` in its open classes: in
    /// selection order under LIFO and FIFO; the whole bucket in arbitrary
    /// order under Random, where selection reorders the bucket. Intended for
    /// tests and audits.
    pub fn bucket_members(&self, key: i32, open: OpenClasses<'_>) -> Vec<ModuleId> {
        let b = self.bucket_index(key);
        let mut out = Vec::new();
        let mut collect = |v| {
            out.push(v);
            false
        };
        match self.layout {
            Layout::Dense => return self.dense.members.get(b).cloned().unwrap_or_default(),
            Layout::Tallied => {
                let head = self.heads.get(b).copied().unwrap_or(NIL);
                let members = u32::try_from(self.len).unwrap_or(NIL);
                walk_open(head, members, &self.next, &self.class, open, &mut collect);
            }
            Layout::Merged => {
                walk_bucket(
                    lists(&self.heads, self.classes, b),
                    &self.next,
                    &mut Vec::new(),
                    open,
                    self.policy == BucketPolicy::Lifo,
                    &mut collect,
                );
            }
        }
        out
    }
}

/// The `classes` entries of bucket `b` in a per-(bucket, class) array.
#[inline]
fn lists(entries: &[u32], classes: usize, b: usize) -> &[u32] {
    entries.get(b * classes..(b + 1) * classes).unwrap_or(&[])
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

/// Visits the `open`-class members of the tallied list that starts at
/// `cur`, head to tail, until `visit` accepts one, and returns it. Members
/// of closed classes (`class` gives each member's) are stepped over
/// unvisited, and the walk ends once it has visited `members` of them: the
/// bucket's open-class tally.
#[inline]
fn walk_open<F>(
    mut cur: u32,
    mut members: u32,
    next: &[u32],
    class: &[u16],
    open: OpenClasses<'_>,
    visit: &mut F,
) -> Option<ModuleId>
where
    F: FnMut(ModuleId) -> bool,
{
    while cur != NIL && members > 0 {
        let c = class.get(cur as usize).copied().unwrap_or(ABSENT);
        if open.contains(usize::from(c)) {
            members -= 1;
            let m = ModuleId::from(cur);
            if visit(m) {
                return Some(m);
            }
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
        resize_exact(&mut self.slot, num_modules, 0);
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
    const ONE: OpenClasses<'static> = OpenClasses::new(&[true], &[]);

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
        fn new(n: usize, policy: BucketPolicy, classes: usize, filing: Filing) -> Self {
            Filed {
                b: GainBuckets::new(n, 4, policy, classes, filing),
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

    /// Both filings: they must select alike.
    const FILINGS: [Filing; 2] = [Filing::Tallied, Filing::Merged];

    /// Modules 0..6 at key 1 in classes 0, 1, 2, 0, 1, 2 (filed in id
    /// order), and module 6 in class 0 at key 0.
    fn interleaved(policy: BucketPolicy, filing: Filing) -> Filed {
        let mut f = Filed::new(7, policy, 3, filing);
        for v in 0..6 {
            f.file(v, v % 3, 1);
        }
        f.file(6, 0, 0);
        f
    }

    #[test]
    fn lifo_merges_classes_newest_first() {
        for filing in FILINGS {
            let mut f = interleaved(BucketPolicy::Lifo, filing);
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
            f.b.remove(m(0));
            f.file(0, 0, 1);
            let all = OpenClasses::new(&[true, true, true], &f.stamps);
            assert_eq!(ids(f.b.bucket_members(1, all)), [0, 5, 4, 3, 2, 1]);
        }
    }

    #[test]
    fn fifo_merges_classes_oldest_first() {
        for filing in FILINGS {
            let mut f = interleaved(BucketPolicy::Fifo, filing);
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
            f.b.remove(m(0));
            f.file(0, 0, 1);
            let all = OpenClasses::new(&[true, true, true], &f.stamps);
            assert_eq!(ids(f.b.bucket_members(1, all)), [1, 2, 3, 4, 5, 0]);
        }
    }

    #[test]
    fn closed_class_members_are_never_checked() {
        for (policy, filing) in [BucketPolicy::Lifo, BucketPolicy::Fifo]
            .into_iter()
            .flat_map(|p| FILINGS.map(|f| (p, f)))
        {
            let mut f = interleaved(policy, filing);
            let mut checked = Vec::new();
            let open = OpenClasses::new(&[false, true], &f.stamps);
            let mut rng = seeded_rng(0);
            let got = f.b.select_where(&mut rng, open, |v| {
                checked.push(v.index());
                false
            });
            // Class 2 lies past the end of `open`, so it is closed too;
            // class 0's module 6 in the lower bucket is never reached.
            assert_eq!(got, None, "{policy} {filing:?}");
            checked.sort_unstable();
            assert_eq!(checked, [1, 4], "{policy} {filing:?}");
        }
    }

    #[test]
    fn lifo_order_within_bucket() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo, 1, Filing::Tallied);
        b.insert(m(0), 0, 2);
        b.insert(m(1), 0, 2);
        b.insert(m(2), 0, 2);
        assert_eq!(b.bucket_members(2, ONE), vec![m(2), m(1), m(0)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(2)));
    }

    #[test]
    fn fifo_order_within_bucket() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Fifo, 1, Filing::Tallied);
        b.insert(m(0), 0, 2);
        b.insert(m(1), 0, 2);
        b.insert(m(2), 0, 2);
        assert_eq!(b.bucket_members(2, ONE), vec![m(0), m(1), m(2)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(0)));
    }

    #[test]
    fn selection_prefers_higher_key() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo, 1, Filing::Tallied);
        b.insert(m(0), 0, -3);
        b.insert(m(1), 0, 4);
        b.insert(m(2), 0, 0);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(1)));
        b.remove(m(1));
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(2)));
    }

    #[test]
    fn selection_skips_infeasible() {
        let mut b = GainBuckets::new(5, 4, BucketPolicy::Lifo, 1, Filing::Tallied);
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
        let mut b = GainBuckets::new(3, 4, BucketPolicy::Lifo, 1, Filing::Tallied);
        b.insert(m(0), 0, 1);
        b.insert(m(1), 0, 1);
        b.update_key(m(0), 3);
        assert_eq!(b.key_of(m(0)), 3);
        assert_eq!(b.bucket_members(3, ONE), vec![m(0)]);
        assert_eq!(b.bucket_members(1, ONE), vec![m(1)]);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(0)));
    }

    #[test]
    fn update_key_same_value_moves_to_head_under_lifo() {
        let mut b = GainBuckets::new(3, 4, BucketPolicy::Lifo, 1, Filing::Tallied);
        b.insert(m(0), 0, 1);
        b.insert(m(1), 0, 1);
        // m(1) is currently head; re-push m(0) at the same key.
        b.update_key(m(0), 1);
        assert_eq!(b.bucket_members(1, ONE), vec![m(0), m(1)]);
    }

    #[test]
    fn remove_middle_tail_head() {
        let mut b = GainBuckets::new(4, 2, BucketPolicy::Fifo, 1, Filing::Tallied);
        for i in 0..4 {
            b.insert(m(i), 0, 0);
        }
        b.remove(m(1)); // middle
        assert_eq!(b.bucket_members(0, ONE), vec![m(0), m(2), m(3)]);
        b.remove(m(3)); // tail
        assert_eq!(b.bucket_members(0, ONE), vec![m(0), m(2)]);
        b.remove(m(0)); // head
        assert_eq!(b.bucket_members(0, ONE), vec![m(2)]);
        assert_eq!(b.len(), 1);
        // Tail pointer still valid: insert appends after m(2).
        b.insert(m(0), 0, 0);
        assert_eq!(b.bucket_members(0, ONE), vec![m(2), m(0)]);
    }

    #[test]
    fn random_policy_selects_all_members_over_time() {
        let mut b = GainBuckets::new(3, 1, BucketPolicy::Random, 1, Filing::Tallied);
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
        let mut b = GainBuckets::new(3, 1, BucketPolicy::Random, 1, Filing::Tallied);
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
            let mut b = GainBuckets::new(MEMBERS + 1, 3, BucketPolicy::Random, 1, Filing::Tallied);
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
        let mut b = GainBuckets::new(2, 5, BucketPolicy::Lifo, 1, Filing::Tallied);
        b.insert(m(0), 0, -5);
        b.insert(m(1), 0, -4);
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(1)));
    }

    #[test]
    fn clear_resets() {
        for policy in [BucketPolicy::Lifo, BucketPolicy::Random] {
            let mut b = GainBuckets::new(3, 2, policy, 1, Filing::Tallied);
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
        let mut b = GainBuckets::new(3, 2, BucketPolicy::Lifo, 1, Filing::Tallied);
        assert!(b.is_empty());
        b.insert(m(1), 0, 0);
        assert_eq!(b.len(), 1);
        assert!(b.contains(m(1)));
        assert!(!b.contains(m(0)));
        b.remove(m(1));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn top_hint_recovers_after_mass_removal() {
        let mut b = GainBuckets::new(10, 5, BucketPolicy::Lifo, 1, Filing::Tallied);
        for i in 0..10 {
            b.insert(m(i), 0, (i as i32) - 5);
        }
        // Remove the top half.
        for i in (5..10).rev() {
            b.remove(m(i));
        }
        let mut rng = seeded_rng(0);
        assert_eq!(b.select_where(&mut rng, ONE, |_| true), Some(m(4)));
    }
}
