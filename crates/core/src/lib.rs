//! The ML multilevel circuit partitioning algorithm — the primary
//! contribution of *Multilevel Circuit Partitioning* (Alpert, Huang, Kahng —
//! DAC 1997).
//!
//! ML recursively coarsens a netlist hypergraph with connectivity-based
//! matching (controlled by the matching ratio `R`), partitions the coarsest
//! netlist, then uncoarsens while refining with FM or CLIP. One V-cycle
//! serves every multilevel pipeline; each pipeline has one fallible entry
//! point taking a [`Request`]:
//!
//! * [`ml_bipartition`] — ML bisection (Fig. 2);
//! * [`ml_kway`] — ML k-way, quadrisection at `k = 4` (§III-C);
//! * [`recursive_ml_partition`] — recursive bisection into any `k` parts;
//! * [`two_phase_fm`] — the two-phase baseline (§II-C).
//!
//! `Request::constraints` picks the schedule: `None` is the paper's,
//! `Some` the constrained one (pins and an ε window).
//!
//! # Examples
//!
//! The `ML_C` variant with slow coarsening (the paper's best configuration,
//! Table VII), refining through a caller-owned workspace under a budget:
//!
//! ```
//! use mlpart_core::{ml_bipartition, BudgetMeter, MlConfig, Request};
//! use mlpart_fm::RefineWorkspace;
//! use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(128);
//! for base in [0usize, 64] {
//!     for i in 0..64 {
//!         b.add_net([base + i, base + (i + 1) % 64])?;
//!         b.add_net([base + i, base + (i + 3) % 64])?;
//!     }
//! }
//! b.add_net([63, 64])?;
//! let h = b.build()?;
//!
//! let cfg = MlConfig::clip().with_ratio(0.5);
//! let (mut ws, mut meter) = (RefineWorkspace::new(), BudgetMeter::unlimited());
//! let req = Request {
//!     workspace: Some(&mut ws),
//!     meter: Some(&mut meter),
//!     ..Request::default()
//! };
//! let (partition, result) = ml_bipartition(&h, &cfg, &mut seeded_rng(0), req)?;
//! assert!(result.levels >= 2);
//! assert_eq!(partition.k(), 2);
//! assert_eq!(result.truncation, None);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod hierarchy;
pub mod ml;
pub mod preflight;
pub mod quadrisection;
pub mod recursive;
pub mod two_phase;
mod vcycle;

pub use error::PipelineError;
pub use hierarchy::{Coarsener, Hierarchy};
pub use ml::{ml_bipartition, ml_bipartition_in, LevelStats, MlConfig, MlResult};
pub use preflight::{preflight_constrained, PreflightError};
pub use quadrisection::{ml_kway, ml_kway_in, MlKwayConfig, MlKwayResult};
pub use recursive::{recursive_ml_partition, recursive_ml_partition_budgeted_in, RecursiveResult};
pub use two_phase::{two_phase_fm, TwoPhaseResult};
pub use vcycle::Request;

// Re-export the budget vocabulary so pipeline callers need not depend on
// `mlpart-fm` directly.
pub use mlpart_fm::{Budget, BudgetLimit, BudgetMeter, Truncation};

// Re-export the constraint vocabulary so constraint-aware callers (the CLI,
// benches, embedders) need not depend on `mlpart-hypergraph` directly.
pub use mlpart_hypergraph::{
    adapted_epsilon, Constraints, ConstraintsError, PartBounds, DEFAULT_EPSILON,
};
