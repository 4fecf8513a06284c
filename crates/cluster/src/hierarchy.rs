//! `Induce` (Definition 1), `Project` (Definition 2) and rebalancing.
//!
//! These three operations connect adjacent levels of the multilevel
//! hierarchy: a clustering of `Hᵢ` *induces* the coarser `Hᵢ₊₁`; a solution
//! of `Hᵢ₊₁` is *projected* back onto `Hᵢ`; and because the largest-module
//! area can shrink during uncoarsening, the projected solution may violate
//! the finer level's balance bounds and must be *rebalanced* by random moves
//! from the larger side to the smaller (§III-B).

use crate::clustering::Clustering;
use mlpart_hypergraph::{
    audit, BipartBalance, BuildHypergraphError, Hypergraph, HypergraphBuilder, KwayBalance,
    ModuleId, Partition,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// Why a level transition (`induce`, `induce_coalesced`, `project`) was
/// rejected. These operations sit on the multilevel hot path and receive
/// caller-assembled clusterings and partitions, so mismatches surface as
/// typed errors rather than panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoarsenError {
    /// The clustering's module count or id density does not match the
    /// hypergraph it was applied to.
    ClusteringMismatch {
        /// Modules covered by the clustering map.
        map_len: usize,
        /// Modules in the hypergraph.
        num_modules: usize,
    },
    /// The coarse partition's module count does not match the clustering's
    /// cluster count.
    PartitionMismatch {
        /// Modules covered by the coarse partition.
        partition_len: usize,
        /// Clusters in the clustering.
        num_clusters: usize,
    },
    /// Coalescing merged parallel nets whose summed weight exceeds `u32`.
    WeightOverflow {
        /// The overflowing summed weight.
        total: u64,
    },
    /// The induced netlist failed hypergraph validation.
    Build(BuildHypergraphError),
}

impl std::fmt::Display for CoarsenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoarsenError::ClusteringMismatch {
                map_len,
                num_modules,
            } => write!(
                f,
                "clustering covers {map_len} modules but the hypergraph has {num_modules}"
            ),
            CoarsenError::PartitionMismatch {
                partition_len,
                num_clusters,
            } => write!(
                f,
                "coarse partition covers {partition_len} modules but the clustering has {num_clusters} clusters"
            ),
            CoarsenError::WeightOverflow { total } => {
                write!(f, "coalesced net weight {total} overflows u32")
            }
            CoarsenError::Build(e) => write!(f, "induced netlist is invalid: {e}"),
        }
    }
}

impl std::error::Error for CoarsenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoarsenError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildHypergraphError> for CoarsenError {
    fn from(e: BuildHypergraphError) -> Self {
        CoarsenError::Build(e)
    }
}

/// Definition 1: constructs the coarser netlist `Hᵢ₊₁` induced by a
/// clustering of `Hᵢ`.
///
/// Every net `e` maps to `e* = {Cₕ | e ∩ Cₕ ≠ ∅}`; nets with `|e*| = 1`
/// vanish. Cluster areas are the sums of their members' areas. Nets that
/// collapse onto identical cluster sets are **kept as duplicates**, exactly
/// as in the definition — a duplicated coarse net represents several fine
/// nets and must count multiply in the coarse cut.
///
/// # Errors
///
/// [`CoarsenError::ClusteringMismatch`] when the clustering does not match
/// `h`; [`CoarsenError::Build`] when the induced netlist fails validation.
///
/// # Examples
///
/// ```
/// use mlpart_cluster::{induce, Clustering};
/// use mlpart_hypergraph::HypergraphBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(4);
/// b.add_net([0, 1])?;    // internal to cluster 0: vanishes
/// b.add_net([1, 2, 3])?; // becomes {C0, C1}
/// let h = b.build()?;
/// let c = Clustering::from_map(vec![0, 0, 1, 1]).expect("dense");
/// let coarse = induce(&h, &c)?;
/// assert_eq!(coarse.num_modules(), 2);
/// assert_eq!(coarse.num_nets(), 1);
/// assert_eq!(coarse.total_area(), h.total_area());
/// # Ok(())
/// # }
/// ```
pub fn induce(h: &Hypergraph, clustering: &Clustering) -> Result<Hypergraph, CoarsenError> {
    if !clustering.validate(h) {
        return Err(CoarsenError::ClusteringMismatch {
            map_len: clustering.num_modules(),
            num_modules: h.num_modules(),
        });
    }
    let mut builder =
        HypergraphBuilder::with_capacity(clustering.cluster_areas(h), h.num_nets(), h.num_pins());
    // The builder deduplicates pins within a net and drops nets that end up
    // with fewer than two distinct pins, which is exactly Definition 1.
    let mut scratch: Vec<usize> = Vec::new();
    for e in h.net_ids() {
        scratch.clear();
        scratch.extend(h.pins(e).iter().map(|&v| clustering.cluster_of(v) as usize));
        builder.add_weighted_net(scratch.iter().copied(), h.net_weight(e))?;
    }
    let coarse = builder.build()?;
    audit!(
        mlpart_audit::audit_hypergraph(&coarse),
        mlpart_audit::check_counter(
            "Hypergraph",
            "induce-total-area",
            coarse.total_area(),
            h.total_area(),
        ),
    );
    Ok(coarse)
}

/// [`induce`] followed by **coalescing identical nets**: coarse nets with the
/// same pin set are merged into one net whose weight is the sum of theirs.
///
/// Definition 1 keeps duplicates (each fine net maps to its own coarse net);
/// every later multilevel tool (hMETIS, MLPart, KaHyPar) coalesces instead,
/// because coarse levels otherwise accumulate large bundles of parallel nets.
/// The weighted cut of a coalesced netlist equals the plain cut of the
/// duplicated one for every partition, so solution quality is untouched
/// while memory and per-pass time shrink.
///
/// # Errors
///
/// [`CoarsenError::ClusteringMismatch`] when the clustering does not match
/// `h`; [`CoarsenError::WeightOverflow`] when merged parallel nets overflow
/// the `u32` weight; [`CoarsenError::Build`] when the coalesced netlist
/// fails validation.
pub fn induce_coalesced(
    h: &Hypergraph,
    clustering: &Clustering,
) -> Result<Hypergraph, CoarsenError> {
    let dup = induce(h, clustering)?;
    // Group nets by sorted pin set. A BTreeMap keeps the grouping — and
    // therefore the coarse net order — independent of hash state and
    // insertion order: iteration is always ascending by pin set, so no
    // separate sort pass is needed and no default-hasher nondeterminism
    // can ever leak into the coarse netlist.
    let mut keyed: std::collections::BTreeMap<Vec<u32>, u64> = std::collections::BTreeMap::new();
    for e in dup.net_ids() {
        let mut key: Vec<u32> = dup.pins(e).iter().map(|v| v.raw()).collect();
        key.sort_unstable();
        *keyed.entry(key).or_insert(0) += dup.net_weight(e) as u64;
    }
    let merged: Vec<(Vec<u32>, u64)> = keyed.into_iter().collect();
    let mut builder = HypergraphBuilder::new(
        (0..dup.num_modules())
            .map(|i| dup.area(ModuleId::new(i)))
            .collect(),
    );
    for (pins, weight) in merged {
        let weight =
            u32::try_from(weight).map_err(|_| CoarsenError::WeightOverflow { total: weight })?;
        builder.add_weighted_net(pins.iter().map(|&p| p as usize), weight)?;
    }
    let coalesced = builder.build()?;
    // Coalescing must conserve total net weight (each merged net carries
    // the sum of its duplicates), which is what keeps weighted cuts equal.
    audit!(
        mlpart_audit::audit_hypergraph(&coalesced),
        mlpart_audit::check_counter(
            "Hypergraph",
            "coalesce-net-weight",
            coalesced.total_net_weight(),
            dup.total_net_weight(),
        ),
    );
    Ok(coalesced)
}

/// Definition 2: projects a partition of the coarse netlist back onto the
/// fine netlist — every fine module inherits the part of its cluster.
///
/// # Errors
///
/// [`CoarsenError::ClusteringMismatch`] when the clustering does not match
/// `fine`; [`CoarsenError::PartitionMismatch`] when `coarse_partition` does
/// not match the clustering's cluster count.
pub fn project(
    fine: &Hypergraph,
    clustering: &Clustering,
    coarse_partition: &Partition,
) -> Result<Partition, CoarsenError> {
    if !clustering.validate(fine) {
        return Err(CoarsenError::ClusteringMismatch {
            map_len: clustering.num_modules(),
            num_modules: fine.num_modules(),
        });
    }
    if coarse_partition.assignment().len() != clustering.num_clusters() {
        return Err(CoarsenError::PartitionMismatch {
            partition_len: coarse_partition.assignment().len(),
            num_clusters: clustering.num_clusters(),
        });
    }
    let assignment: Vec<u32> = (0..fine.num_modules())
        .map(|i| coarse_partition.part(ModuleId::new(clustering.cluster_of_index(i) as usize)))
        .collect();
    let fine_p = Partition::from_assignment(fine, coarse_partition.k(), assignment).ok_or(
        CoarsenError::PartitionMismatch {
            partition_len: coarse_partition.assignment().len(),
            num_clusters: clustering.num_clusters(),
        },
    )?;
    // Definition 2 preserves per-part areas; the multilevel driver
    // additionally audits bit-exact cut preservation (it owns both the fine
    // and the coarse netlist).
    audit!(
        mlpart_audit::audit_cluster_map(clustering.as_map(), clustering.num_clusters()),
        mlpart_audit::audit_partition(fine, &fine_p),
        if fine_p.part_areas() == coarse_partition.part_areas() {
            Ok(())
        } else {
            Err(mlpart_audit::AuditError::new(
                "Projection",
                "area-preserved",
                format!(
                    "fine part areas {:?} != coarse part areas {:?}",
                    fine_p.part_areas(),
                    coarse_partition.part_areas()
                ),
            ))
        },
    );
    Ok(fine_p)
}

/// §III-B rebalancing for bipartitions: "the solution is rebalanced by
/// randomly moving modules from the larger cluster to the smaller one" until
/// the balance bounds hold.
///
/// Returns the number of modules moved. If the bounds are unreachable (e.g.
/// pathological areas) the function stops once no move can help and returns
/// what it did; callers treat feasibility as best-effort, as the paper does.
pub fn rebalance_bipart<R: Rng + ?Sized>(
    h: &Hypergraph,
    p: &mut Partition,
    balance: &BipartBalance,
    rng: &mut R,
) -> usize {
    debug_assert_eq!(p.k(), 2);
    let mut moved = 0;
    let mut order: Vec<u32> = (0..h.num_modules() as u32).collect();
    order.shuffle(rng);
    let mut cursor = 0;
    while !balance.is_feasible(p.part_area(0)) && cursor < order.len() {
        let big: u32 = if p.part_area(0) > p.part_area(1) {
            0
        } else {
            1
        };
        // Advance to the next random movable module in the big part.
        while cursor < order.len() {
            let v = ModuleId::from(order[cursor]);
            cursor += 1;
            if p.part(v) == big {
                p.move_module(h, v, 1 - big);
                moved += 1;
                break;
            }
        }
    }
    moved
}

/// K-way analogue of [`rebalance_bipart`]: random modules move from
/// over-full parts to the currently smallest part until all parts fit.
/// Frozen modules (e.g. pre-assigned pads) are never moved.
///
/// Returns the number of modules moved.
///
/// # Panics
///
/// Panics if `frozen` is present with the wrong length.
pub fn rebalance_kway_frozen<R: Rng + ?Sized>(
    h: &Hypergraph,
    p: &mut Partition,
    balance: &KwayBalance,
    frozen: Option<&[bool]>,
    rng: &mut R,
) -> usize {
    if let Some(f) = frozen {
        assert_eq!(f.len(), h.num_modules(), "frozen mask has wrong length");
    }
    let is_frozen = |v: ModuleId| frozen.is_some_and(|f| f[v.index()]);
    let k = p.k();
    let mut moved = 0;
    let mut order: Vec<u32> = (0..h.num_modules() as u32).collect();
    order.shuffle(rng);
    let mut cursor = 0;
    while !balance.is_partition_feasible(p) && cursor < order.len() {
        // Identify the most over-full part and the least-full part.
        let (mut big, mut small) = (0u32, 0u32);
        for part in 1..k {
            if p.part_area(part) > p.part_area(big) {
                big = part;
            }
            if p.part_area(part) < p.part_area(small) {
                small = part;
            }
        }
        if big == small {
            break;
        }
        while cursor < order.len() {
            let v = ModuleId::from(order[cursor]);
            cursor += 1;
            if p.part(v) == big && !is_frozen(v) {
                p.move_module(h, v, small);
                moved += 1;
                break;
            }
        }
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::metrics;
    use mlpart_hypergraph::rng::seeded_rng;

    fn line(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n - 1 {
            b.add_net([i, i + 1]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn induce_preserves_total_area() {
        let h = line(8);
        let c = Clustering::from_map(vec![0, 0, 1, 1, 2, 2, 3, 3]).unwrap();
        let coarse = induce(&h, &c).unwrap();
        assert_eq!(coarse.total_area(), h.total_area());
        assert_eq!(coarse.num_modules(), 4);
        // Internal nets vanish: 7 nets -> 3 inter-cluster nets.
        assert_eq!(coarse.num_nets(), 3);
    }

    #[test]
    fn induce_keeps_duplicate_nets() {
        // Two parallel nets between the same clusters must both survive.
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 2]).unwrap();
        b.add_net([1, 3]).unwrap();
        let h = b.build().unwrap();
        let c = Clustering::from_map(vec![0, 0, 1, 1]).unwrap();
        let coarse = induce(&h, &c).unwrap();
        assert_eq!(coarse.num_nets(), 2, "parallel coarse nets both kept");
    }

    #[test]
    fn induce_identity_is_isomorphic() {
        let h = line(5);
        let coarse = induce(&h, &Clustering::identity(5)).unwrap();
        assert_eq!(coarse, h);
    }

    #[test]
    fn induce_collapses_multipin_nets() {
        let mut b = HypergraphBuilder::with_unit_areas(6);
        b.add_net([0, 1, 2, 3, 4, 5]).unwrap();
        let h = b.build().unwrap();
        let c = Clustering::from_map(vec![0, 0, 0, 1, 1, 2]).unwrap();
        let coarse = induce(&h, &c).unwrap();
        assert_eq!(coarse.num_nets(), 1);
        assert_eq!(coarse.net_size(mlpart_hypergraph::NetId::new(0)), 3);
    }

    #[test]
    fn projected_cut_equals_coarse_cut() {
        // The projection of a coarse solution has exactly the same cut when
        // measured on the fine netlist: internal nets are never cut, and each
        // coarse net corresponds 1:1 to a fine net.
        let h = line(8);
        let c = Clustering::from_map(vec![0, 0, 1, 1, 2, 2, 3, 3]).unwrap();
        let coarse = induce(&h, &c).unwrap();
        let coarse_p = Partition::from_assignment(&coarse, 2, vec![0, 0, 1, 1]).unwrap();
        let fine_p = project(&h, &c, &coarse_p).unwrap();
        assert_eq!(metrics::cut(&coarse, &coarse_p), metrics::cut(&h, &fine_p));
        assert!(fine_p.validate(&h));
        // Areas transfer too.
        assert_eq!(fine_p.part_area(0), coarse_p.part_area(0));
    }

    #[test]
    fn project_assigns_cluster_parts() {
        let h = line(4);
        let c = Clustering::from_map(vec![0, 1, 1, 0]).unwrap();
        let coarse = induce(&h, &c).unwrap();
        let coarse_p = Partition::from_assignment(&coarse, 2, vec![1, 0]).unwrap();
        let fine_p = project(&h, &c, &coarse_p).unwrap();
        assert_eq!(fine_p.assignment(), &[1, 0, 0, 1]);
    }

    #[test]
    fn rebalance_bipart_restores_feasibility() {
        let h = line(100);
        let balance = BipartBalance::new(&h, 0.1);
        // Everything on one side: infeasible.
        let mut p = Partition::from_assignment(&h, 2, vec![0; 100]).unwrap();
        assert!(!balance.is_feasible(p.part_area(0)));
        let mut rng = seeded_rng(8);
        let moved = rebalance_bipart(&h, &mut p, &balance, &mut rng);
        assert!(balance.is_feasible(p.part_area(0)));
        assert!(moved >= 40, "needed at least 40 moves, did {moved}");
        assert!(p.validate(&h));
    }

    #[test]
    fn rebalance_is_noop_when_feasible() {
        let h = line(100);
        let balance = BipartBalance::new(&h, 0.1);
        let mut p =
            Partition::from_assignment(&h, 2, (0..100).map(|i| (i % 2) as u32).collect()).unwrap();
        let mut rng = seeded_rng(0);
        assert_eq!(rebalance_bipart(&h, &mut p, &balance, &mut rng), 0);
    }

    #[test]
    fn rebalance_kway_restores_feasibility() {
        let h = line(100);
        let balance = KwayBalance::new(&h, 4, 0.1);
        let mut p = Partition::from_assignment(&h, 4, vec![0; 100]).unwrap();
        let mut rng = seeded_rng(3);
        rebalance_kway_frozen(&h, &mut p, &balance, None, &mut rng);
        assert!(balance.is_partition_feasible(&p));
        assert!(p.validate(&h));
    }

    #[test]
    fn induce_rejects_mismatched_clustering() {
        let h = line(4);
        let c = Clustering::from_map(vec![0, 0, 1]).unwrap();
        assert_eq!(
            induce(&h, &c).unwrap_err(),
            CoarsenError::ClusteringMismatch {
                map_len: 3,
                num_modules: 4
            }
        );
    }

    #[test]
    fn project_rejects_mismatched_partition() {
        let h = line(4);
        let c = Clustering::from_map(vec![0, 0, 1, 1]).unwrap();
        let coarse = induce(&h, &c).unwrap();
        let bad = Partition::from_assignment(&coarse, 2, vec![0, 1]).unwrap();
        // Build a 3-cluster clustering to mismatch.
        let c3 = Clustering::from_map(vec![0, 1, 2, 2]).unwrap();
        assert_eq!(
            project(&h, &c3, &bad).unwrap_err(),
            CoarsenError::PartitionMismatch {
                partition_len: 2,
                num_clusters: 3
            }
        );
    }
}

#[cfg(test)]
mod coalesce_tests {
    use super::*;
    use crate::matching::{match_clusters, MatchConfig};
    use mlpart_hypergraph::metrics;
    use mlpart_hypergraph::rng::seeded_rng;

    #[test]
    fn coalesced_merges_parallel_nets() {
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 2]).unwrap();
        b.add_net([1, 3]).unwrap();
        b.add_net([0, 3]).unwrap();
        let h = b.build().unwrap();
        let c = Clustering::from_map(vec![0, 0, 1, 1]).unwrap();
        let dup = induce(&h, &c).unwrap();
        let merged = induce_coalesced(&h, &c).unwrap();
        assert_eq!(dup.num_nets(), 3);
        assert_eq!(merged.num_nets(), 1);
        assert_eq!(merged.net_weight(mlpart_hypergraph::NetId::new(0)), 3);
        assert_eq!(merged.total_net_weight(), 3);
    }

    #[test]
    fn coalesced_cut_equals_duplicate_cut_for_every_partition() {
        // The key invariant: for any coarse partition, the weighted cut of
        // the coalesced netlist equals the plain cut of the duplicated one.
        let mut b = HypergraphBuilder::with_unit_areas(12);
        for i in 0..12usize {
            b.add_net([i, (i + 1) % 12]).unwrap();
            b.add_net([i, (i + 2) % 12]).unwrap();
            b.add_net([i, (i + 1) % 12]).unwrap(); // deliberate duplicate
        }
        let h = b.build().unwrap();
        let mut rng = seeded_rng(7);
        let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
        let dup = induce(&h, &c).unwrap();
        let merged = induce_coalesced(&h, &c).unwrap();
        assert_eq!(dup.num_modules(), merged.num_modules());
        assert!(merged.num_nets() <= dup.num_nets());
        for seed in 0..10 {
            let p_dup = Partition::random(&dup, 2, &mut seeded_rng(seed));
            let p_merged = Partition::from_assignment(&merged, 2, p_dup.assignment().to_vec())
                .expect("same module count");
            assert_eq!(
                metrics::cut(&dup, &p_dup),
                metrics::cut(&merged, &p_merged),
                "seed {seed}"
            );
            assert_eq!(
                metrics::sum_of_spans_minus_one(&dup, &p_dup),
                metrics::sum_of_spans_minus_one(&merged, &p_merged),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn coalesced_independent_of_net_insertion_order() {
        // Regression for the old default-hasher grouping: the coarse netlist
        // must be a pure function of the (multiset of) fine nets, never of
        // the order they were inserted in or of any map's iteration order.
        let nets: Vec<[usize; 2]> = (0..8).map(|i| [i, (i + 1) % 8]).collect();
        let build = |order: &[usize]| {
            let mut b = HypergraphBuilder::with_unit_areas(8);
            for &i in order {
                b.add_net(nets[i]).unwrap();
            }
            b.build().unwrap()
        };
        let forward = build(&(0..8).collect::<Vec<_>>());
        let reversed = build(&(0..8).rev().collect::<Vec<_>>());
        let c = Clustering::from_map(vec![0, 0, 1, 1, 2, 2, 3, 3]).unwrap();
        assert_eq!(
            induce_coalesced(&forward, &c).unwrap(),
            induce_coalesced(&reversed, &c).unwrap()
        );
    }

    #[test]
    fn coalesced_net_order_is_sorted_by_pin_set() {
        // BTreeMap grouping emits merged nets ascending by pin set; pin this
        // down so the coarse net order stays canonical.
        let mut b = HypergraphBuilder::with_unit_areas(6);
        b.add_net([4, 5]).unwrap();
        b.add_net([2, 4]).unwrap();
        b.add_net([0, 2]).unwrap();
        let h = b.build().unwrap();
        let c = Clustering::from_map(vec![0, 0, 1, 1, 2, 2]).unwrap();
        let merged = induce_coalesced(&h, &c).unwrap();
        let pin_sets: Vec<Vec<u32>> = merged
            .net_ids()
            .map(|e| merged.pins(e).iter().map(|v| v.raw()).collect())
            .collect();
        let mut sorted = pin_sets.clone();
        sorted.sort();
        assert_eq!(pin_sets, sorted);
    }

    #[test]
    fn coalesced_is_deterministic() {
        let mut b = HypergraphBuilder::with_unit_areas(6);
        for i in 0..6usize {
            b.add_net([i, (i + 1) % 6]).unwrap();
        }
        let h = b.build().unwrap();
        let c = Clustering::from_map(vec![0, 0, 1, 1, 2, 2]).unwrap();
        assert_eq!(
            induce_coalesced(&h, &c).unwrap(),
            induce_coalesced(&h, &c).unwrap()
        );
    }
}
