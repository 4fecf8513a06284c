//! Netlist hypergraph data structures for multilevel circuit partitioning.
//!
//! This crate is the foundation of the `mlpart` workspace, a from-scratch
//! reproduction of *Multilevel Circuit Partitioning* (Alpert, Huang, Kahng —
//! DAC 1997). It provides:
//!
//! * [`Hypergraph`] — an immutable CSR netlist hypergraph with module areas,
//!   built via [`HypergraphBuilder`];
//! * [`Partition`] — k-way module assignments with incrementally maintained
//!   part areas;
//! * [`Constraints`] and [`PartBounds`] — pins, the tolerance ε and the
//!   per-part balance windows, the paper's §III-B window among them;
//! * [`metrics`] — cut size and the statistics columns of the paper's tables;
//! * [`io`] — hMETIS `.hgr` reading/writing;
//! * [`rng`] — seeded randomness so every experiment is reproducible;
//! * the hook macros [`obs_span!`], [`obs_counter!`], [`audit!`] and
//!   [`fault_point!`] — one-line observability, audit and fault-injection
//!   call sites that compile out unless the *calling* crate's feature is on.
//!
//! # Examples
//!
//! Build a small netlist, cut it, and measure:
//!
//! ```
//! use mlpart_hypergraph::{HypergraphBuilder, Partition, metrics};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(6);
//! b.add_net([0, 1, 2])?;
//! b.add_net([3, 4, 5])?;
//! b.add_net([2, 3])?;
//! let h = b.build()?;
//!
//! let p = Partition::from_assignment(&h, 2, vec![0, 0, 0, 1, 1, 1]).expect("valid");
//! assert_eq!(metrics::cut(&h, &p), 1); // only net {2,3} is cut
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod constraints;
pub mod error;
mod hooks;
pub mod hypergraph;
pub mod ids;
pub mod io;
pub mod metrics;
pub mod netd;
pub mod partition;
pub mod rng;
pub mod transform;

pub use constraints::{
    adapted_epsilon, Constraints, ConstraintsError, PartBounds, DEFAULT_EPSILON,
};
pub use error::{BuildHypergraphError, ParseFixError, ParseHgrError};
pub use hypergraph::{Hypergraph, HypergraphBuilder, NetList};
pub use ids::{ModuleId, NetId};
pub use metrics::CutStats;
pub use partition::{BipartBalance, KwayBalance, PartId, Partition};
