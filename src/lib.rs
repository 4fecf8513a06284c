//! `mlpart` — a from-scratch Rust reproduction of *Multilevel Circuit
//! Partitioning* (Alpert, Huang, Kahng — DAC 1997).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`hypergraph`] — netlist hypergraphs, partitions, balance, metrics, I/O;
//! * [`gen`] — synthetic benchmark circuits (the Table I suite);
//! * [`fm`] — FM/CLIP iterative engines with LIFO/FIFO/Random buckets;
//! * [`cluster`] — `Match` coarsening, `Induce`, `Project`, rebalancing;
//! * [`core`] — the ML multilevel algorithm (bipartitioning + quadrisection);
//! * [`exec`] — deterministic parallel execution of independent starts,
//!   including supervised retries and resumable batches;
//! * [`checkpoint`] — the `mlpart-checkpoint-v1` on-disk format behind
//!   `mlpart --checkpoint/--resume`;
//! * [`kway`] — Sanchis-style k-way FM without lookahead;
//! * [`lsmc`] — the Large-Step Markov Chain baseline;
//! * [`place`] — the GORDIAN-analogue quadratic placer;
//! * [`obs`] — the JSON codec the checkpoints use and, with the `obs`
//!   feature compiled into the library crates, deterministic structured
//!   tracing, metrics, and run-report exporters that record inside
//!   `obs::capture`;
//! * `fault` (feature-gated) — deterministic fault injection (panics and
//!   budget exhaustion at named sites) behind `MLPART_FAULTS`.
//!
//! The most common entry points are re-exported at the top level.
//!
//! # Examples
//!
//! Partition a synthetic benchmark with the paper's best configuration
//! (`ML_C`, `R = 0.5`):
//!
//! ```
//! use mlpart::{ml_bipartition, MlConfig, Request};
//! use mlpart::gen::suite;
//! use mlpart::hypergraph::rng::seeded_rng;
//!
//! # fn main() -> Result<(), mlpart::PipelineError> {
//! let circuit = suite::by_name("balu").expect("in suite");
//! let h = circuit.generate(42);
//! let cfg = MlConfig::clip().with_ratio(0.5);
//! let (partition, result) = ml_bipartition(&h, &cfg, &mut seeded_rng(0), Request::default())?;
//! assert_eq!(partition.k(), 2);
//! assert!(result.cut > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod checkpoint;

pub use mlpart_cluster as cluster;
pub use mlpart_core as core;
pub use mlpart_exec as exec;
/// Deterministic fault injection: named panic/exhaustion sites behind
/// `MLPART_FAULTS`. Present only with the `fault` feature.
#[cfg(feature = "fault")]
pub use mlpart_fault as fault;
pub use mlpart_fm as fm;
pub use mlpart_gen as gen;
pub use mlpart_hypergraph as hypergraph;
pub use mlpart_kway as kway;
pub use mlpart_lsmc as lsmc;
/// Structured observability: spans, counters, trace/report exporters, and
/// the JSON codec. The library crates record spans only with the `obs`
/// feature.
pub use mlpart_obs as obs;
pub use mlpart_place as place;

pub use mlpart_core::{
    ml_bipartition, ml_kway, preflight_constrained, recursive_ml_partition, two_phase_fm, Budget,
    BudgetLimit, BudgetMeter, LevelStats, MlConfig, MlKwayConfig, PipelineError, PreflightError,
    Request, Truncation,
};
pub use mlpart_exec::{
    run_supervised, Attempt, BatchResult, ExecError, PriorStart, ResumeState, RetryPolicy,
    RetryRecord, Sink, StartDone, StartFailure, SupervisedBatch, ATTEMPT_STRIDE,
};
pub use mlpart_fm::{
    fm_partition, repair_to_feasible, BucketPolicy, Engine, FmConfig, PassStats, RefineError,
    RefineRequest, RefineWorkspace, RepairRecord,
};
pub use mlpart_hypergraph::{
    adapted_epsilon, Constraints, ConstraintsError, Hypergraph, HypergraphBuilder, ModuleId, NetId,
    PartBounds, Partition, DEFAULT_EPSILON,
};
