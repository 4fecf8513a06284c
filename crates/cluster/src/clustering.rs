//! The clustering type: a k-way grouping of a hypergraph's modules.
//!
//! The paper's footnote 1: "A k-way clustering `Pᵏ` of the netlist `H(V,E)`
//! is a set of disjoint subsets `C1 … Ck` of `V` such that their union is
//! `V`. Since a clustering and a partitioning are actually equivalent, we use
//! the superscript k to distinguish" — we keep them as separate types because
//! they play different roles: a [`Clustering`] maps a fine netlist's modules
//! onto the *modules of the next coarser netlist*, while a
//! [`Partition`](mlpart_hypergraph::Partition) maps modules onto a fixed
//! small number of blocks.

use mlpart_hypergraph::{Hypergraph, ModuleId};

/// A clustering `Pᵏ = {C1, …, Ck}` of a hypergraph's modules, stored as a
/// dense `module → cluster` map.
///
/// Cluster ids are dense in `0..num_clusters` and become the module ids of
/// the induced coarser netlist (see [`induce`](crate::induce())).
///
/// # Examples
///
/// ```
/// use mlpart_cluster::Clustering;
///
/// let c = Clustering::from_map(vec![0, 0, 1, 2, 1]).expect("dense ids");
/// assert_eq!(c.num_clusters(), 3);
/// assert_eq!(c.cluster_of_index(4), 1);
/// assert_eq!(c.cluster_sizes(), vec![2, 2, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    cluster_of: Vec<u32>,
    num_clusters: usize,
}

impl Clustering {
    /// Builds a clustering from a dense `module → cluster` map.
    ///
    /// Returns `None` if the cluster ids are not dense, i.e. some id in
    /// `0..max(map)` never occurs. (An empty map is the valid clustering of
    /// an empty netlist.)
    pub fn from_map(cluster_of: Vec<u32>) -> Option<Self> {
        let num_clusters = dense_count(&cluster_of)?;
        Some(Clustering {
            cluster_of,
            num_clusters,
        })
    }

    /// Builds a clustering from a map whose ids are dense in
    /// `0..num_clusters` **by construction** (e.g. a matcher that hands out
    /// sequential cluster ids). Density is checked only under
    /// `debug_assertions`; in release builds this is a plain move.
    pub fn from_dense(cluster_of: Vec<u32>, num_clusters: usize) -> Self {
        debug_assert!(
            dense_count(&cluster_of) == Some(num_clusters),
            "cluster ids are not dense in 0..{num_clusters}"
        );
        Clustering {
            cluster_of,
            num_clusters,
        }
    }

    /// The identity clustering (every module its own cluster), which induces
    /// an isomorphic netlist.
    pub fn identity(n: usize) -> Self {
        Clustering {
            cluster_of: (0..n as u32).collect(),
            num_clusters: n,
        }
    }

    /// Number of clusters `k`.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.num_clusters
    }

    /// Number of modules of the underlying (fine) netlist.
    #[inline]
    pub fn num_modules(&self) -> usize {
        self.cluster_of.len()
    }

    /// The cluster containing module `v`.
    #[inline]
    pub fn cluster_of(&self, v: ModuleId) -> u32 {
        self.cluster_of[v.index()]
    }

    /// The cluster containing the module with dense index `i`.
    #[inline]
    pub fn cluster_of_index(&self, i: usize) -> u32 {
        self.cluster_of[i]
    }

    /// The raw `module → cluster` map.
    #[inline]
    pub fn as_map(&self) -> &[u32] {
        &self.cluster_of
    }

    /// Number of modules in each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters];
        for &c in &self.cluster_of {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Total area of each cluster under `h`'s module areas — the areas of the
    /// induced netlist's modules ("module areas are preserved", §III).
    pub fn cluster_areas(&self, h: &Hypergraph) -> Vec<u64> {
        assert_eq!(h.num_modules(), self.num_modules());
        let mut areas = vec![0u64; self.num_clusters];
        for v in h.modules() {
            areas[self.cluster_of(v) as usize] += h.area(v);
        }
        areas
    }

    /// `true` if this clustering matches hypergraph `h` and its ids are dense.
    pub fn validate(&self, h: &Hypergraph) -> bool {
        self.cluster_of.len() == h.num_modules() && dense_count(&self.cluster_of).is_some()
    }
}

/// The cluster count of `map` (`max + 1`, zero when empty) if every id
/// below it occurs, `None` otherwise.
fn dense_count(map: &[u32]) -> Option<usize> {
    let num_clusters = map.iter().max().map_or(0, |&m| m as usize + 1);
    let mut seen = vec![false; num_clusters];
    for &c in map {
        seen[c as usize] = true;
    }
    seen.iter().all(|&s| s).then_some(num_clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::HypergraphBuilder;

    #[test]
    fn from_map_requires_dense_ids() {
        assert!(Clustering::from_map(vec![0, 1, 2]).is_some());
        assert!(Clustering::from_map(vec![0, 2]).is_none()); // 1 missing
        assert!(Clustering::from_map(vec![]).is_some());
    }

    #[test]
    fn identity_clustering() {
        let c = Clustering::identity(4);
        assert_eq!(c.num_clusters(), 4);
        assert_eq!(c.cluster_sizes(), vec![1, 1, 1, 1]);
        assert_eq!(c.cluster_of(ModuleId::new(2)), 2);
    }

    #[test]
    fn cluster_areas_accumulate() {
        let mut b = HypergraphBuilder::new(vec![4, 7, 2]);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let c = Clustering::from_map(vec![0, 0, 1]).unwrap();
        assert_eq!(c.cluster_areas(&h), vec![11, 2]);
        assert!(c.validate(&h));
    }

    #[test]
    fn validate_checks_module_count() {
        let h = HypergraphBuilder::with_unit_areas(3).build().unwrap();
        let c = Clustering::from_map(vec![0, 0]).unwrap();
        assert!(!c.validate(&h));
    }
}
