//! First-class partitioning constraints: general `k`, an ε balance
//! tolerance, and fixed (pre-assigned) modules.
//!
//! The paper hard-codes free cells and the §III-B 2/4-way balance recipe;
//! production callers partition *under constraints* — terminals pinned to
//! parts (hMETIS `.fix` files, Coloquinte's fixed-vertex path) and an
//! explicit imbalance tolerance ε as in "k-way Hypergraph Partitioning via
//! n-Level Recursive Bisection". [`Constraints`] packages all three so every
//! layer of the workspace (coarsening, initial partitioning, refinement,
//! pre-flight, CLI) consumes one vocabulary instead of ad-hoc parameters.
//!
//! ε relates to the paper's tolerance `r` by `ε = 2r`: §III-B allows each
//! side of a bisection to deviate from `A(V)/2` by `r·A(V)`, i.e. by
//! `ε·A(V)/2` — a relative deviation of ε from the target. The default
//! ε = 0.2 therefore reproduces the paper's `r = 0.1` bounds bit-exactly
//! (see [`PartBounds::from_epsilon`]).

use crate::hypergraph::Hypergraph;
use crate::ids::ModuleId;
use crate::partition::{BipartBalance, KwayBalance, PartId, Partition};
use std::fmt;

/// The default balance tolerance ε, chosen so that unconstrained runs
/// reproduce the paper's `r = 0.1` bounds exactly (`ε = 2r`).
pub const DEFAULT_EPSILON: f64 = 0.2;

/// Per-part `[lo, hi]` area capacity bounds for a k-way partition.
///
/// This generalizes [`BipartBalance`] / [`KwayBalance`] (uniform bounds
/// derived from the ratio `r`) to arbitrary per-part windows: recursive
/// bisection with `k_lo ≠ k_hi` needs asymmetric targets, and ε-derived
/// bounds need not match the legacy ratio arithmetic. Conversions from the
/// legacy balance types are exact, so refactoring a feasibility check from
/// `KwayBalance` to `PartBounds` cannot change a single accept/reject
/// decision (the byte-identity contract for unconstrained runs).
///
/// # Examples
///
/// ```
/// use mlpart_hypergraph::{HypergraphBuilder, PartBounds, BipartBalance};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(100);
/// b.add_net([0, 1])?;
/// let h = b.build()?;
/// let eps = PartBounds::from_epsilon(&h, 2, 0.2);
/// let legacy = PartBounds::from_bipart(&BipartBalance::new(&h, 0.1));
/// assert_eq!(eps, legacy); // ε = 2r reproduces §III-B exactly
/// assert!(eps.is_area_feasible(0, 50));
/// assert!(!eps.is_area_feasible(1, 61));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartBounds {
    lo: Vec<u64>,
    hi: Vec<u64>,
    /// Cached part count; always `lo.len()`, checked to fit `u32` at
    /// construction so the hot [`k`](PartBounds::k) accessor is branch-free.
    k: u32,
}

impl PartBounds {
    /// Builds bounds from explicit per-part windows.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, are empty, or any window has
    /// `lo > hi`.
    pub fn new(lo: Vec<u64>, hi: Vec<u64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "per-part bound vectors differ in k");
        assert!(!lo.is_empty(), "need at least one part");
        for (p, (&l, &h)) in lo.iter().zip(hi.iter()).enumerate() {
            assert!(l <= h, "part {p} has lo {l} > hi {h}");
        }
        let k = u32::try_from(lo.len()).unwrap_or(u32::MAX);
        assert_eq!(k as usize, lo.len(), "part count exceeds u32::MAX");
        PartBounds { lo, hi, k }
    }

    /// Uniform bounds: every part in `[lo, hi]`.
    pub fn uniform(k: u32, lo: u64, hi: u64) -> Self {
        assert!(k > 0, "k must be positive");
        PartBounds::new(vec![lo; k as usize], vec![hi; k as usize])
    }

    /// The exact windows of a [`BipartBalance`] (§III-B), as per-part bounds.
    pub fn from_bipart(b: &BipartBalance) -> Self {
        PartBounds::uniform(2, b.lower(), b.upper())
    }

    /// The exact windows of a [`KwayBalance`], as per-part bounds.
    pub fn from_kway(b: &KwayBalance) -> Self {
        PartBounds::uniform(b.k(), b.lower(), b.upper())
    }

    /// ε-derived uniform bounds: every part within `A(V)/k ± ε·A(V)/k`,
    /// widened to the largest module area so a feasible solution always
    /// exists (the §III-B widening). `ε = 2r` reproduces
    /// [`KwayBalance::new`] (and [`BipartBalance::new`] at `k = 2`)
    /// bit-exactly.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `epsilon` is negative or non-finite.
    pub fn from_epsilon(h: &Hypergraph, k: u32, epsilon: f64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be a finite non-negative tolerance"
        );
        let total = h.total_area();
        let target = total / k as u64;
        let slack_eps = (epsilon * total as f64 / k as f64).floor() as u64;
        let slack = slack_eps.max(h.max_area());
        PartBounds::uniform(k, target.saturating_sub(slack), (target + slack).min(total))
    }

    /// Asymmetric 2-way bounds for one recursive-bisection step: side 0
    /// targets `total · k_lo / (k_lo + k_hi)` (it will be split into `k_lo`
    /// final parts), side 1 the rest, each within a relative tolerance
    /// `epsilon` widened to `max_area`.
    ///
    /// # Panics
    ///
    /// Panics if either side has zero parts or `epsilon` is invalid.
    pub fn split(total: u64, max_area: u64, k_lo: u32, k_hi: u32, epsilon: f64) -> Self {
        assert!(k_lo > 0 && k_hi > 0, "both sides need at least one part");
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be a finite non-negative tolerance"
        );
        let k = (k_lo + k_hi) as u128;
        let target0 = ((total as u128 * k_lo as u128) / k) as u64;
        let target1 = total - target0;
        let window = |target: u64| {
            let slack = ((epsilon * target as f64).floor() as u64).max(max_area);
            (target.saturating_sub(slack), (target + slack).min(total))
        };
        let (lo0, hi0) = window(target0);
        let (lo1, hi1) = window(target1);
        PartBounds::new(vec![lo0, lo1], vec![hi0, hi1])
    }

    /// Bounds around explicit per-part area targets: part `p` must stay
    /// within `targets[p] ± max(⌊ε·targets[p]⌋, max_area)`, capped at
    /// `total`. This is the per-level recompute used by the constraint-aware
    /// pipelines — the widening to the largest module tracks each coarsened
    /// level's module areas the same way §III-B widens the legacy windows.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is empty or `epsilon` is negative or non-finite.
    pub fn around_targets(targets: &[u64], total: u64, max_area: u64, epsilon: f64) -> Self {
        assert!(!targets.is_empty(), "need at least one part");
        assert!(
            epsilon.is_finite() && epsilon >= 0.0,
            "epsilon must be a finite non-negative tolerance"
        );
        let mut lo = Vec::with_capacity(targets.len());
        let mut hi = Vec::with_capacity(targets.len());
        for &t in targets {
            let slack = ((epsilon * t as f64).floor() as u64).max(max_area);
            lo.push(t.saturating_sub(slack));
            hi.push(t.saturating_add(slack).min(total));
        }
        PartBounds::new(lo, hi)
    }

    /// Number of parts `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Lower area bound of part `p`.
    #[inline]
    pub fn lo(&self, p: PartId) -> u64 {
        self.lo[p as usize]
    }

    /// Upper area bound of part `p`.
    #[inline]
    pub fn hi(&self, p: PartId) -> u64 {
        self.hi[p as usize]
    }

    /// `true` if part `p` holding `area` satisfies its window.
    #[inline]
    pub fn is_area_feasible(&self, p: PartId, area: u64) -> bool {
        area >= self.lo[p as usize] && area <= self.hi[p as usize]
    }

    /// `true` if every part of `p` satisfies its window.
    pub fn is_partition_feasible(&self, p: &Partition) -> bool {
        debug_assert_eq!(p.k(), self.k());
        p.part_areas()
            .iter()
            .enumerate()
            .all(|(part, &a)| self.is_area_feasible(part as PartId, a))
    }
}

impl fmt::Display for PartBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PartBounds(")?;
        for p in 0..self.lo.len() {
            if p > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{}, {}]", self.lo[p], self.hi[p])?;
        }
        write!(f, ")")
    }
}

/// Why a [`Constraints`] value could not be constructed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConstraintsError {
    /// `k == 0`: no parts to assign modules to.
    ZeroParts,
    /// ε is negative or non-finite.
    BadEpsilon {
        /// The rejected tolerance.
        epsilon: f64,
    },
    /// A fixed module names a part outside `0..k`.
    PartOutOfRange {
        /// Offending module index.
        module: usize,
        /// Its requested part.
        part: PartId,
        /// The part count.
        k: u32,
    },
    /// The same module appears twice in the fixed list.
    DuplicateFixed {
        /// The duplicated module index.
        module: usize,
    },
    /// A fixed module index exceeds the netlist's module count (reported by
    /// [`Constraints::check_modules`]).
    ModuleOutOfRange {
        /// Offending module index.
        module: usize,
        /// Modules in the netlist.
        modules: usize,
    },
}

impl fmt::Display for ConstraintsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintsError::ZeroParts => write!(f, "k must be at least 1"),
            ConstraintsError::BadEpsilon { epsilon } => {
                write!(
                    f,
                    "epsilon {epsilon} is not a finite non-negative tolerance"
                )
            }
            ConstraintsError::PartOutOfRange { module, part, k } => {
                write!(f, "module {module} is fixed to part {part}, but k = {k}")
            }
            ConstraintsError::DuplicateFixed { module } => {
                write!(f, "module {module} appears twice in the fixed list")
            }
            ConstraintsError::ModuleOutOfRange { module, modules } => {
                write!(
                    f,
                    "fixed module {module} out of range for {modules} module(s)"
                )
            }
        }
    }
}

impl std::error::Error for ConstraintsError {}

/// A complete constraint specification for one partitioning problem: part
/// count `k`, balance tolerance ε, and the fixed (pre-assigned) modules.
///
/// The fixed list is kept sorted by module index, so iteration order — and
/// therefore every downstream RNG-free loop over it — is deterministic
/// regardless of input order.
///
/// # Examples
///
/// ```
/// use mlpart_hypergraph::{Constraints, ModuleId};
///
/// let c = Constraints::new(4, 0.1, vec![(ModuleId::new(7), 3), (ModuleId::new(2), 0)])
///     .expect("valid");
/// assert_eq!(c.k(), 4);
/// assert_eq!(c.fixed()[0].0.index(), 2); // sorted by module
/// assert_eq!(c.part_of(ModuleId::new(7)), Some(3));
/// assert_eq!(c.part_of(ModuleId::new(0)), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Constraints {
    k: u32,
    epsilon: f64,
    fixed: Vec<(ModuleId, PartId)>,
}

impl Constraints {
    /// Builds a constraint set, validating `k`, ε, and the fixed list (part
    /// ids in range, no duplicate modules). The fixed list is sorted by
    /// module index.
    ///
    /// # Errors
    ///
    /// [`ConstraintsError`] on `k == 0`, invalid ε, a part id `>= k`, or a
    /// duplicated module.
    pub fn new(
        k: u32,
        epsilon: f64,
        mut fixed: Vec<(ModuleId, PartId)>,
    ) -> Result<Self, ConstraintsError> {
        if k == 0 {
            return Err(ConstraintsError::ZeroParts);
        }
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(ConstraintsError::BadEpsilon { epsilon });
        }
        fixed.sort_by_key(|&(v, _)| v.index());
        for pair in fixed.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(ConstraintsError::DuplicateFixed {
                    module: pair[0].0.index(),
                });
            }
        }
        if let Some(&(v, p)) = fixed.iter().find(|&&(_, p)| p >= k) {
            return Err(ConstraintsError::PartOutOfRange {
                module: v.index(),
                part: p,
                k,
            });
        }
        Ok(Constraints { k, epsilon, fixed })
    }

    /// The trivial constraint set: `k` parts, default ε, no fixed modules.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn unconstrained(k: u32) -> Self {
        Constraints::new(k, DEFAULT_EPSILON, Vec::new()).expect("k > 0 required")
    }

    /// Number of parts `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The balance tolerance ε.
    #[inline]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The equivalent legacy ratio `r = ε/2` for code still parameterized by
    /// the paper's tolerance.
    #[inline]
    pub fn balance_r(&self) -> f64 {
        self.epsilon / 2.0
    }

    /// The fixed (pre-assigned) modules, sorted by module index.
    #[inline]
    pub fn fixed(&self) -> &[(ModuleId, PartId)] {
        &self.fixed
    }

    /// The part module `v` is fixed to, or `None` if it is free.
    pub fn part_of(&self, v: ModuleId) -> Option<PartId> {
        self.fixed
            .binary_search_by_key(&v.index(), |&(w, _)| w.index())
            .ok()
            .map(|i| self.fixed[i].1)
    }

    /// A dense `module → fixed?` mask of length `n`.
    pub fn fixed_mask(&self, n: usize) -> Vec<bool> {
        let mut mask = vec![false; n];
        for &(v, _) in &self.fixed {
            mask[v.index()] = true;
        }
        mask
    }

    /// Total fixed area per part under `h`'s module areas.
    pub fn fixed_areas(&self, h: &Hypergraph) -> Vec<u64> {
        let mut areas = vec![0u64; self.k as usize];
        for &(v, p) in &self.fixed {
            areas[p as usize] += h.area(v);
        }
        areas
    }

    /// ε-derived per-part capacity bounds for `h` (see
    /// [`PartBounds::from_epsilon`]).
    pub fn bounds(&self, h: &Hypergraph) -> PartBounds {
        PartBounds::from_epsilon(h, self.k, self.epsilon)
    }

    /// Checks every fixed module index against the netlist's module count —
    /// the one validation [`Constraints::new`] cannot do without a netlist.
    ///
    /// # Errors
    ///
    /// [`ConstraintsError::ModuleOutOfRange`] naming the first offender.
    pub fn check_modules(&self, num_modules: usize) -> Result<(), ConstraintsError> {
        // Sorted by module, so the last entry is the largest index.
        match self.fixed.last() {
            Some(&(v, _)) if v.index() >= num_modules => Err(ConstraintsError::ModuleOutOfRange {
                module: v.index(),
                modules: num_modules,
            }),
            _ => Ok(()),
        }
    }
}

/// The per-bisection tolerance ε′ for recursive bisection into `k` parts:
/// `(1 + ε)^(1/⌈log₂ k⌉) − 1`, so that the product of the per-level factors
/// never exceeds the requested `1 + ε` (the adaptive imbalance schedule of
/// "Engineering Multilevel Graph Partitioning Algorithms" / the n-level
/// recursive-bisection paper). For `k ≤ 2` this is ε itself.
pub fn adapted_epsilon(epsilon: f64, k: u32) -> f64 {
    assert!(
        epsilon.is_finite() && epsilon >= 0.0,
        "epsilon must be a finite non-negative tolerance"
    );
    if k <= 2 {
        return epsilon;
    }
    let depth = (k as f64).log2().ceil();
    (1.0 + epsilon).powf(1.0 / depth) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HypergraphBuilder;

    fn h_units(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        if n >= 2 {
            b.add_net([0, 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn epsilon_bounds_reproduce_legacy_balance_exactly() {
        // ε = 2r must match both legacy balance types bit-exactly, across
        // sizes with odd totals and a dominant module.
        for n in [10usize, 99, 100, 257] {
            let h = h_units(n);
            for r in [0.05f64, 0.1, 0.25] {
                let eps = 2.0 * r;
                assert_eq!(
                    PartBounds::from_epsilon(&h, 2, eps),
                    PartBounds::from_bipart(&BipartBalance::new(&h, r)),
                    "n={n} r={r}"
                );
                for k in [2u32, 3, 4, 8] {
                    assert_eq!(
                        PartBounds::from_epsilon(&h, k, eps),
                        PartBounds::from_kway(&KwayBalance::new(&h, k, r)),
                        "n={n} k={k} r={r}"
                    );
                }
            }
        }
        let mut areas = vec![1u64; 70];
        areas.push(30);
        let mut b = HypergraphBuilder::new(areas);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        assert_eq!(
            PartBounds::from_epsilon(&h, 2, 0.2),
            PartBounds::from_bipart(&BipartBalance::new(&h, 0.1))
        );
    }

    #[test]
    fn feasibility_matches_windows() {
        let b = PartBounds::new(vec![10, 20], vec![30, 40]);
        assert_eq!(b.k(), 2);
        assert!(b.is_area_feasible(0, 10) && b.is_area_feasible(0, 30));
        assert!(!b.is_area_feasible(0, 9) && !b.is_area_feasible(0, 31));
        assert!(b.is_area_feasible(1, 40) && !b.is_area_feasible(1, 41));
        let h = h_units(50);
        let p = Partition::from_assignment(&h, 2, (0..50).map(|i| u32::from(i >= 25)).collect())
            .unwrap();
        let bounds = PartBounds::uniform(2, 20, 30);
        assert!(bounds.is_partition_feasible(&p));
        let tight = PartBounds::new(vec![26, 0], vec![50, 50]);
        assert!(!tight.is_partition_feasible(&p));
    }

    #[test]
    fn split_targets_follow_part_ratio() {
        // 300 area split 2:1 at ε = 0 with unit modules: targets 200/100,
        // slack widened to max_area = 1.
        let b = PartBounds::split(300, 1, 2, 1, 0.0);
        assert_eq!((b.lo(0), b.hi(0)), (199, 201));
        assert_eq!((b.lo(1), b.hi(1)), (99, 101));
        // ε = 0.1 widens each window by 10% of its own target.
        let b = PartBounds::split(300, 1, 2, 1, 0.1);
        assert_eq!((b.lo(0), b.hi(0)), (180, 220));
        assert_eq!((b.lo(1), b.hi(1)), (90, 110));
    }

    #[test]
    fn around_targets_widens_to_max_area_and_caps_at_total() {
        // Targets 60/40 at ε = 0.1 with max module area 9: slacks are
        // max(6, 9) = 9 and max(4, 9) = 9.
        let b = PartBounds::around_targets(&[60, 40], 100, 9, 0.1);
        assert_eq!((b.lo(0), b.hi(0)), (51, 69));
        assert_eq!((b.lo(1), b.hi(1)), (31, 49));
        // Near the edges the window saturates at 0 and caps at the total.
        let b = PartBounds::around_targets(&[2, 98], 100, 1, 0.5);
        assert_eq!((b.lo(0), b.hi(0)), (1, 3));
        assert_eq!((b.lo(1), b.hi(1)), (49, 100));
    }

    #[test]
    #[should_panic(expected = "lo")]
    fn rejects_inverted_window() {
        let _ = PartBounds::new(vec![10], vec![5]);
    }

    #[test]
    fn constraints_sort_and_validate() {
        let c =
            Constraints::new(3, 0.1, vec![(ModuleId::new(5), 2), (ModuleId::new(1), 0)]).unwrap();
        assert_eq!(c.fixed()[0].0.index(), 1);
        assert_eq!(c.fixed()[1].0.index(), 5);
        assert_eq!(c.part_of(ModuleId::new(5)), Some(2));
        assert_eq!(c.part_of(ModuleId::new(2)), None);
        assert_eq!(
            c.fixed_mask(6),
            vec![false, true, false, false, false, true]
        );
        assert!((c.balance_r() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn constraints_reject_bad_input() {
        assert_eq!(
            Constraints::new(0, 0.1, vec![]),
            Err(ConstraintsError::ZeroParts)
        );
        assert!(matches!(
            Constraints::new(2, -0.5, vec![]),
            Err(ConstraintsError::BadEpsilon { .. })
        ));
        assert!(matches!(
            Constraints::new(2, f64::NAN, vec![]),
            Err(ConstraintsError::BadEpsilon { .. })
        ));
        assert_eq!(
            Constraints::new(2, 0.1, vec![(ModuleId::new(3), 2)]),
            Err(ConstraintsError::PartOutOfRange {
                module: 3,
                part: 2,
                k: 2
            })
        );
        assert_eq!(
            Constraints::new(2, 0.1, vec![(ModuleId::new(3), 0), (ModuleId::new(3), 1)]),
            Err(ConstraintsError::DuplicateFixed { module: 3 })
        );
    }

    #[test]
    fn check_modules_names_the_offender() {
        let c = Constraints::new(2, 0.1, vec![(ModuleId::new(9), 1)]).unwrap();
        assert_eq!(c.check_modules(10), Ok(()));
        assert_eq!(
            c.check_modules(9),
            Err(ConstraintsError::ModuleOutOfRange {
                module: 9,
                modules: 9
            })
        );
    }

    #[test]
    fn fixed_areas_accumulate_per_part() {
        let mut b = HypergraphBuilder::new(vec![2, 3, 5, 7]);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let c = Constraints::new(
            2,
            0.2,
            vec![
                (ModuleId::new(0), 0),
                (ModuleId::new(2), 1),
                (ModuleId::new(3), 1),
            ],
        )
        .unwrap();
        assert_eq!(c.fixed_areas(&h), vec![2, 12]);
        assert_eq!(c.bounds(&h), PartBounds::from_epsilon(&h, 2, 0.2));
    }

    #[test]
    fn adapted_epsilon_composes_to_the_requested_total() {
        assert!((adapted_epsilon(0.1, 2) - 0.1).abs() < 1e-12);
        // k = 8: three bisection levels, (1+ε')³ = 1+ε.
        let e = adapted_epsilon(0.1, 8);
        assert!(((1.0 + e).powi(3) - 1.1).abs() < 1e-12);
        // Non-power-of-two k uses ⌈log₂ k⌉ levels.
        let e = adapted_epsilon(0.3, 5);
        assert!(((1.0 + e).powi(3) - 1.3).abs() < 1e-12);
        assert_eq!(adapted_epsilon(0.0, 16), 0.0);
    }

    #[test]
    fn errors_render_messages() {
        let msgs = [
            ConstraintsError::ZeroParts.to_string(),
            ConstraintsError::BadEpsilon { epsilon: -1.0 }.to_string(),
            ConstraintsError::PartOutOfRange {
                module: 4,
                part: 9,
                k: 2,
            }
            .to_string(),
            ConstraintsError::DuplicateFixed { module: 4 }.to_string(),
            ConstraintsError::ModuleOutOfRange {
                module: 11,
                modules: 10,
            }
            .to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[2].contains("part 9"));
        let b = PartBounds::uniform(2, 1, 3);
        assert_eq!(b.to_string(), "PartBounds([1, 3], [1, 3])");
    }
}
