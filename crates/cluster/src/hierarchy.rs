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
    audit, BuildHypergraphError, Hypergraph, HypergraphBuilder, ModuleId, PartBounds, Partition,
};
use rand::seq::SliceRandom;
use rand::Rng;

/// Why a level transition (`induce`, `project`) was
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
/// `bounds` hold. This is [`rebalance_kway_frozen`] at `k = 2` with nothing
/// frozen.
///
/// Returns the number of modules moved. If the bounds are unreachable (e.g.
/// pathological areas) the function stops once no move can help and returns
/// what it did; callers treat feasibility as best-effort, as the paper does.
pub fn rebalance_bipart<R: Rng + ?Sized>(
    h: &Hypergraph,
    p: &mut Partition,
    bounds: &PartBounds,
    rng: &mut R,
) -> usize {
    debug_assert_eq!(p.k(), 2);
    rebalance_kway_frozen(h, p, bounds, None, rng)
}

/// §III-B rebalancing for any `k`: random modules move from the largest part
/// to the currently smallest part until every part fits `bounds`. Frozen
/// modules (e.g. pre-assigned pads) are never moved.
///
/// Returns the number of modules moved.
///
/// # Panics
///
/// Panics if `frozen` is present with the wrong length.
pub fn rebalance_kway_frozen<R: Rng + ?Sized>(
    h: &Hypergraph,
    p: &mut Partition,
    bounds: &PartBounds,
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
    while !bounds.is_partition_feasible(p) && cursor < order.len() {
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
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        // Everything on one side: infeasible.
        let mut p = Partition::from_assignment(&h, 2, vec![0; 100]).unwrap();
        assert!(!bounds.is_partition_feasible(&p));
        let mut rng = seeded_rng(8);
        let moved = rebalance_bipart(&h, &mut p, &bounds, &mut rng);
        assert!(bounds.is_partition_feasible(&p));
        assert!(moved >= 40, "needed at least 40 moves, did {moved}");
        assert!(p.validate(&h));
    }

    #[test]
    fn rebalance_is_noop_when_feasible() {
        let h = line(100);
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        let mut p =
            Partition::from_assignment(&h, 2, (0..100).map(|i| (i % 2) as u32).collect()).unwrap();
        let mut rng = seeded_rng(0);
        assert_eq!(rebalance_bipart(&h, &mut p, &bounds, &mut rng), 0);
    }

    #[test]
    fn rebalance_kway_restores_feasibility() {
        let h = line(100);
        let bounds = PartBounds::from_epsilon(&h, 4, 0.2);
        let mut p = Partition::from_assignment(&h, 4, vec![0; 100]).unwrap();
        let mut rng = seeded_rng(3);
        rebalance_kway_frozen(&h, &mut p, &bounds, None, &mut rng);
        assert!(bounds.is_partition_feasible(&p));
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
