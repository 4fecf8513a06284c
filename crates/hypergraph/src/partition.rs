//! Partition representations: the k-way assignment of modules to parts.
//!
//! A bipartitioning `P = {X, Y}` (paper §I) is the special case `k = 2`;
//! quadrisection (§III-C) is `k = 4`. The type tracks per-part areas
//! incrementally so that move-based partitioners can check balance in O(1).

use crate::constraints::PartBounds;
use crate::hypergraph::Hypergraph;
use crate::ids::ModuleId;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use std::ops::Deref;

/// Identifier of a part (block) in a k-way partition.
///
/// Part `0` plays the role of the paper's cluster `X` and part `1` of `Y`
/// when `k == 2`.
pub type PartId = u32;

/// A k-way partition of a hypergraph's modules with incrementally maintained
/// per-part areas.
///
/// # Examples
///
/// ```
/// use mlpart_hypergraph::{HypergraphBuilder, Partition, ModuleId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(4);
/// b.add_net([0, 1])?;
/// b.add_net([2, 3])?;
/// let h = b.build()?;
///
/// let mut p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).expect("valid");
/// assert_eq!(p.part_area(0), 2);
/// p.move_module(&h, ModuleId::new(0), 1);
/// assert_eq!(p.part(ModuleId::new(0)), 1);
/// assert_eq!(p.part_area(1), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    k: u32,
    part_of: Vec<PartId>,
    part_areas: Vec<u64>,
}

impl Partition {
    /// Builds a partition from an explicit assignment vector (one part id per
    /// module, dense by module index).
    ///
    /// Returns `None` if the assignment length does not match the module
    /// count, or any part id is `>= k`, or `k == 0`.
    pub fn from_assignment(h: &Hypergraph, k: u32, part_of: Vec<PartId>) -> Option<Self> {
        if k == 0 || part_of.len() != h.num_modules() {
            return None;
        }
        let mut part_areas = vec![0u64; k as usize];
        for (i, &p) in part_of.iter().enumerate() {
            if p >= k {
                return None;
            }
            part_areas[p as usize] += h.area(ModuleId::new(i));
        }
        Some(Partition {
            k,
            part_of,
            part_areas,
        })
    }

    /// Generates a random area-balanced starting solution, as used by
    /// `FMPartition` when its initial solution is `NULL` (paper Fig. 2,
    /// step 6): a random permutation of the modules is split greedily so each
    /// part receives ≈ `A(V)/k` area.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn random<R: Rng + ?Sized>(h: &Hypergraph, k: u32, rng: &mut R) -> Self {
        assert!(k > 0, "k must be positive");
        let n = h.num_modules();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let mut part_of = vec![0 as PartId; n];
        let mut part_areas = vec![0u64; k as usize];
        let total = h.total_area();
        let mut current: PartId = 0;
        for &raw in &order {
            let v = ModuleId::from(raw);
            // Advance to the next part once this one reaches its target share.
            // Remaining-target division keeps the last part from starving.
            let target =
                (total - part_areas[..current as usize].iter().sum::<u64>()) / (k - current) as u64;
            if current + 1 < k && part_areas[current as usize] + h.area(v) > target {
                current += 1;
            }
            part_of[raw as usize] = current;
            part_areas[current as usize] += h.area(v);
        }
        Partition {
            k,
            part_of,
            part_areas,
        }
    }

    /// [`Partition::random`] honoring fixed (pre-assigned) modules: each
    /// fixed module sits on its pinned part, and only the free modules are
    /// shuffled, each landing on the part with the least accumulated area
    /// (ties to the lowest part id) so the start stays near-balanced even
    /// when pins pre-load some parts. The starting solution used by the
    /// constraint-aware pipelines wherever Fig. 2 step 6 calls for `NULL`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, a fixed module or part id is out of range, or a
    /// module is fixed twice.
    pub fn random_fixed<R: Rng + ?Sized>(
        h: &Hypergraph,
        k: u32,
        fixed: &[(ModuleId, PartId)],
        rng: &mut R,
    ) -> Self {
        assert!(k > 0, "k must be positive");
        let n = h.num_modules();
        let mut part_of = vec![0 as PartId; n];
        let mut part_areas = vec![0u64; k as usize];
        let mut is_fixed = vec![false; n];
        for &(v, p) in fixed {
            assert!(v.index() < n, "fixed module out of range");
            assert!(p < k, "fixed part id out of range");
            assert!(!is_fixed[v.index()], "module fixed twice");
            is_fixed[v.index()] = true;
            part_of[v.index()] = p;
            part_areas[p as usize] += h.area(v);
        }
        let mut order: Vec<u32> = (0..n as u32).filter(|&i| !is_fixed[i as usize]).collect();
        order.shuffle(rng);
        for &raw in &order {
            let v = ModuleId::from(raw);
            let p = (0..k)
                .min_by_key(|&p| part_areas[p as usize])
                .expect("k > 0");
            part_of[raw as usize] = p;
            part_areas[p as usize] += h.area(v);
        }
        Partition {
            k,
            part_of,
            part_areas,
        }
    }

    /// Number of parts `k`.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The part currently containing module `v`.
    #[inline]
    pub fn part(&self, v: ModuleId) -> PartId {
        self.part_of[v.index()]
    }

    /// Current area of part `p`.
    #[inline]
    pub fn part_area(&self, p: PartId) -> u64 {
        self.part_areas[p as usize]
    }

    /// All per-part areas, indexed by part id.
    #[inline]
    pub fn part_areas(&self) -> &[u64] {
        &self.part_areas
    }

    /// The full assignment vector, dense by module index.
    #[inline]
    pub fn assignment(&self) -> &[PartId] {
        &self.part_of
    }

    /// Moves module `v` to part `to`, updating part areas.
    ///
    /// Returns the part the module came from. Moving a module to the part it
    /// is already in is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `to >= k` or `v` is out of range.
    #[inline]
    pub fn move_module(&mut self, h: &Hypergraph, v: ModuleId, to: PartId) -> PartId {
        assert!(to < self.k, "part id out of range");
        let from = self.part_of[v.index()];
        if from != to {
            let a = h.area(v);
            self.part_areas[from as usize] -= a;
            self.part_areas[to as usize] += a;
            self.part_of[v.index()] = to;
        }
        from
    }

    /// Number of modules in each part (counts, not areas).
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k as usize];
        for &p in &self.part_of {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// `true` if every module of the hypergraph is assigned a valid part and
    /// the cached part areas match a recount. Used by tests.
    pub fn validate(&self, h: &Hypergraph) -> bool {
        if self.part_of.len() != h.num_modules() {
            return false;
        }
        if self.part_of.iter().any(|&p| p >= self.k) {
            return false;
        }
        let mut areas = vec![0u64; self.k as usize];
        for (i, &p) in self.part_of.iter().enumerate() {
            areas[p as usize] += h.area(ModuleId::new(i));
        }
        areas == self.part_areas
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Partition(k={}, areas={:?})", self.k, self.part_areas)
    }
}

/// The §III-B window of a bipartition under its former name:
/// [`PartBounds::from_epsilon`] at `k = 2` and `ε = 2r`, read through
/// `Deref`.
///
/// No workspace crate uses it; it stays only because the `perf` benchmark
/// package does, and goes when that package moves to [`PartBounds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartBalance(PartBounds);

impl BipartBalance {
    /// The window for `h` at the paper's ratio `r`.
    pub fn new(h: &Hypergraph, r: f64) -> Self {
        BipartBalance(PartBounds::from_epsilon(h, 2, 2.0 * r))
    }
}

impl Deref for BipartBalance {
    type Target = PartBounds;

    fn deref(&self) -> &PartBounds {
        &self.0
    }
}

/// The k-way §III-B window under its former name:
/// [`PartBounds::from_epsilon`] at `ε = 2r`, read through `Deref`. Kept for
/// the `perf` benchmark package only, like [`BipartBalance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KwayBalance(PartBounds);

impl KwayBalance {
    /// The window for `h` in `k` parts at the paper's ratio `r`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(h: &Hypergraph, k: u32, r: f64) -> Self {
        KwayBalance(PartBounds::from_epsilon(h, k, 2.0 * r))
    }
}

impl Deref for KwayBalance {
    type Target = PartBounds;

    fn deref(&self) -> &PartBounds {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HypergraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn h_units(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        if n >= 2 {
            b.add_net([0, 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn from_assignment_validates() {
        let h = h_units(3);
        assert!(Partition::from_assignment(&h, 2, vec![0, 1, 0]).is_some());
        assert!(Partition::from_assignment(&h, 2, vec![0, 2, 0]).is_none());
        assert!(Partition::from_assignment(&h, 2, vec![0, 1]).is_none());
        assert!(Partition::from_assignment(&h, 0, vec![]).is_none());
    }

    #[test]
    fn move_module_updates_areas() {
        let h = h_units(4);
        let mut p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let from = p.move_module(&h, ModuleId::new(1), 1);
        assert_eq!(from, 0);
        assert_eq!(p.part_area(0), 1);
        assert_eq!(p.part_area(1), 3);
        assert!(p.validate(&h));
        // No-op move.
        let from = p.move_module(&h, ModuleId::new(1), 1);
        assert_eq!(from, 1);
        assert_eq!(p.part_area(1), 3);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // multi-seed loop: too slow under the interpreter
    fn random_is_roughly_balanced_bipartition() {
        let h = h_units(1001);
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10 {
            let p = Partition::random(&h, 2, &mut rng);
            assert!(p.validate(&h));
            let a0 = p.part_area(0);
            assert!((a0 as i64 - 500).unsigned_abs() <= 1, "a0={a0}");
        }
    }

    #[test]
    fn random_is_roughly_balanced_quadrisection() {
        let h = h_units(1000);
        let mut rng = SmallRng::seed_from_u64(7);
        let p = Partition::random(&h, 4, &mut rng);
        assert!(p.validate(&h));
        for part in 0..4 {
            let a = p.part_area(part);
            assert!((a as i64 - 250).unsigned_abs() <= 1, "part {part}: {a}");
        }
    }

    #[test]
    fn random_fixed_honors_pins_and_balances_free_modules() {
        let h = h_units(100);
        let fixed = vec![
            (ModuleId::new(0), 1),
            (ModuleId::new(7), 0),
            (ModuleId::new(99), 1),
        ];
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..5 {
            let p = Partition::random_fixed(&h, 2, &fixed, &mut rng);
            assert!(p.validate(&h));
            for &(v, part) in &fixed {
                assert_eq!(p.part(v), part);
            }
            // Least-filled greedy keeps unit-area parts within one of even.
            assert!((p.part_area(0) as i64 - 50).unsigned_abs() <= 1);
        }
        // Pins pre-loading one part still yield a full valid assignment.
        let heavy: Vec<_> = (0..40).map(|i| (ModuleId::new(i), 0)).collect();
        let p = Partition::random_fixed(&h, 4, &heavy, &mut rng);
        assert!(p.validate(&h));
        assert!(heavy.iter().all(|&(v, part)| p.part(v) == part));
    }

    #[test]
    #[should_panic(expected = "module fixed twice")]
    fn random_fixed_rejects_duplicate_pins() {
        let h = h_units(4);
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = Partition::random_fixed(
            &h,
            2,
            &[(ModuleId::new(1), 0), (ModuleId::new(1), 1)],
            &mut rng,
        );
    }

    #[test]
    fn random_handles_nonuniform_areas() {
        let mut b = HypergraphBuilder::new(vec![10, 1, 1, 1, 1, 1, 1, 1, 1, 2]);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let p = Partition::random(&h, 2, &mut rng);
        assert!(p.validate(&h));
        assert_eq!(p.part_area(0) + p.part_area(1), 20);
    }

    #[test]
    fn shims_read_the_epsilon_window() {
        let h = h_units(257);
        for r in [0.05, 0.1, 0.25] {
            assert_eq!(
                *BipartBalance::new(&h, r),
                PartBounds::from_epsilon(&h, 2, 2.0 * r)
            );
            for k in [2, 3, 8] {
                let window = PartBounds::from_epsilon(&h, k, 2.0 * r);
                assert_eq!(*KwayBalance::new(&h, k, r), window);
            }
        }
    }

    #[test]
    fn part_sizes_counts_modules() {
        let h = h_units(5);
        let p = Partition::from_assignment(&h, 3, vec![0, 1, 1, 2, 2]).unwrap();
        assert_eq!(p.part_sizes(), vec![1, 2, 2]);
    }

    #[test]
    fn display_mentions_k() {
        let h = h_units(2);
        let p = Partition::from_assignment(&h, 2, vec![0, 1]).unwrap();
        assert!(p.to_string().contains("k=2"));
    }
}
