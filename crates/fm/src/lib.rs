//! Iterative-improvement bipartitioning engines: FM and CLIP with
//! LIFO/FIFO/Random gain buckets.
//!
//! This crate implements §II of *Multilevel Circuit Partitioning* (Alpert,
//! Huang, Kahng — DAC 1997): the classic Fiduccia-Mattheyses pass engine,
//! the bucket-organization tie-breaking study (Table II), and the CLIP
//! cluster-oriented variant of Dutt-Deng (Table III). It is the refinement
//! engine plugged into the multilevel algorithm in `mlpart-core`.
//!
//! # Examples
//!
//! Bipartition a small netlist from a random start:
//!
//! ```
//! use mlpart_fm::{fm_partition, FmConfig, Engine};
//! use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(6);
//! b.add_net([0, 1, 2])?;
//! b.add_net([3, 4, 5])?;
//! b.add_net([2, 3])?;
//! let h = b.build()?;
//!
//! let cfg = FmConfig { engine: Engine::Clip, ..FmConfig::default() };
//! let mut rng = seeded_rng(42);
//! let (partition, result) = fm_partition(&h, None, &cfg, &mut rng);
//! assert_eq!(result.cut, 1);
//! assert_eq!(partition.k(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod bucket;
pub mod budget;
pub mod engine;
pub mod repair;
pub mod state;

pub use bucket::{BucketPolicy, GainBuckets, OpenClasses};
pub use budget::{Budget, BudgetLimit, BudgetMeter, Truncation};
pub use engine::{
    fm_partition, fm_partition_budgeted_in, fm_partition_in, refine, refine_budgeted_in,
    refine_constrained_budgeted_in, refine_in, Engine, FmConfig, FmResult,
};
pub use repair::{repair_to_feasible, RepairRecord};
pub use state::{GainSpread, PassStats, RefineState, RefineWorkspace};
