//! Coarsening for multilevel partitioning: the `Match` procedure, `Induce`,
//! and `Project`.
//!
//! Implements §III-A and Definitions 1-2 of *Multilevel Circuit Partitioning*
//! (Alpert, Huang, Kahng — DAC 1997): connectivity-based matching with the
//! paper's matching-ratio parameter `R`, the induced-netlist construction,
//! solution projection, and the §III-B rebalancing step. Baseline coarseners
//! (random matching, heavy-edge matching) are included for ablation studies.
//!
//! # Examples
//!
//! One level of coarsening and projection:
//!
//! ```
//! use mlpart_cluster::{match_clusters, induce, project, MatchConfig};
//! use mlpart_hypergraph::{HypergraphBuilder, Partition, rng::seeded_rng, metrics};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(8);
//! for i in 0..7 {
//!     b.add_net([i, i + 1])?;
//! }
//! let h = b.build()?;
//!
//! let mut rng = seeded_rng(1);
//! let clustering = match_clusters(&h, &MatchConfig::default(), &mut rng);
//! let coarse = induce(&h, &clustering)?;
//! assert!(coarse.num_modules() < h.num_modules());
//!
//! let coarse_p = Partition::random(&coarse, 2, &mut rng);
//! let fine_p = project(&h, &clustering, &coarse_p)?;
//! assert_eq!(metrics::cut(&coarse, &coarse_p), metrics::cut(&h, &fine_p));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clustering;
pub mod hierarchy;
pub mod matching;

pub use clustering::Clustering;
pub use hierarchy::{induce, project, rebalance_bipart, rebalance_kway_frozen, CoarsenError};
pub use matching::{
    conn, heavy_edge_matching, match_clusters, match_clusters_frozen_in, match_clusters_parts_in,
    random_matching, MatchConfig, MatchScratch, MATCH_MAX_NET_SIZE,
};
