//! Typed errors for the multilevel pipeline drivers.
//!
//! Every pipeline entry point returns [`PipelineError`] instead of
//! panicking, so harnesses feeding parsed benchmarks can report bad inputs as
//! values. The three panicking wrappers the `perf` benchmark calls funnel
//! through `expect_valid`, the single deliberate panic site of this crate,
//! counted by the `panic` line of `panics-allow.txt`.

use std::error::Error as StdError;
use std::fmt;

use mlpart_cluster::CoarsenError;
use mlpart_fm::RefineError;
use mlpart_hypergraph::{BuildHypergraphError, ConstraintsError};

/// Why a pipeline driver rejected its inputs (or an internal stage failed).
///
/// Display strings keep the historical panic phrases (e.g. "bipartition
/// requires k = 2"), so a panic raised through `expect_valid` names the
/// rule that was broken.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PipelineError {
    /// The fixed-module constraint set does not fit the hypergraph.
    Constraints(ConstraintsError),
    /// Coarsening, coalescing, or projection failed (see [`CoarsenError`]).
    Coarsen(CoarsenError),
    /// A refinement engine rejected its input (see [`RefineError`]), e.g. net
    /// weights too large for its gain buckets.
    Refine(RefineError),
    /// A derived sub-netlist (e.g. a recursive-bisection region extract)
    /// failed hypergraph validation.
    Netlist(BuildHypergraphError),
    /// Two part counts that must agree do not; `context` names the rule.
    KMismatch {
        /// The invariant text, e.g. `"bipartition requires k = 2"`.
        context: &'static str,
        /// The part count the rule demands.
        expected: u32,
        /// The part count actually supplied.
        got: u32,
    },
    /// An internally produced region assignment used part ids `>= k`.
    InvalidRegionIds {
        /// The part count the assignment was checked against.
        k: u32,
    },
    /// The entry point cannot serve this combination of inputs, e.g.
    /// recursive partitioning requested without the constraints that give k.
    Unsupported(&'static str),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Constraints(e) => write!(f, "invalid constraints: {e}"),
            PipelineError::Coarsen(e) => write!(f, "coarsening failed: {e}"),
            PipelineError::Refine(e) => write!(f, "refinement failed: {e}"),
            PipelineError::Netlist(e) => write!(f, "derived netlist is invalid: {e}"),
            PipelineError::KMismatch {
                context,
                expected,
                got,
            } => write!(f, "{context} (expected {expected}, got {got})"),
            PipelineError::InvalidRegionIds { k } => {
                write!(f, "recursive split must keep region ids below k = {k}")
            }
            PipelineError::Unsupported(what) => write!(f, "unsupported request: {what}"),
        }
    }
}

impl StdError for PipelineError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            PipelineError::Constraints(e) => Some(e),
            PipelineError::Coarsen(e) => Some(e),
            PipelineError::Refine(e) => Some(e),
            PipelineError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConstraintsError> for PipelineError {
    fn from(e: ConstraintsError) -> Self {
        PipelineError::Constraints(e)
    }
}

impl From<CoarsenError> for PipelineError {
    fn from(e: CoarsenError) -> Self {
        PipelineError::Coarsen(e)
    }
}

impl From<RefineError> for PipelineError {
    fn from(e: RefineError) -> Self {
        PipelineError::Refine(e)
    }
}

impl From<BuildHypergraphError> for PipelineError {
    fn from(e: BuildHypergraphError) -> Self {
        PipelineError::Netlist(e)
    }
}

/// Unwraps a pipeline result for the panicking wrappers
/// (`ml_bipartition_in`, `ml_kway_in`, `recursive_ml_partition_budgeted_in`).
///
/// This is the one sanctioned panic site of `mlpart-core`: every
/// precondition produces a [`PipelineError`] in the entry points, and the
/// wrappers funnel through here so the panic message carries the typed
/// error's Display text.
#[track_caller]
pub(crate) fn expect_valid<T, E: fmt::Display>(r: Result<T, E>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("invalid pipeline input: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_phrases() {
        let e = PipelineError::KMismatch {
            context: "bipartition requires k = 2",
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("bipartition requires k = 2"));
        assert!(PipelineError::Unsupported("pins")
            .to_string()
            .contains("unsupported request: pins"));
    }

    #[test]
    fn sources_chain_to_inner_errors() {
        let e = PipelineError::from(ConstraintsError::ZeroParts);
        assert!(StdError::source(&e).is_some());
        assert!(e.to_string().contains("k must be at least 1"));
        let e = PipelineError::from(CoarsenError::ClusteringMismatch {
            map_len: 3,
            num_modules: 4,
        });
        assert!(StdError::source(&e).is_some());
        let e = PipelineError::from(RefineError::BoundsArity { bounds: 3, k: 2 });
        assert!(StdError::source(&e).is_some());
        assert!(e.to_string().contains("bounds have 3 part(s) but k = 2"));
        let e = PipelineError::from(BuildHypergraphError::AreaOverflow);
        assert!(StdError::source(&e).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid pipeline input")]
    fn expect_valid_panics_with_display() {
        let r: Result<(), PipelineError> = Err(PipelineError::InvalidRegionIds { k: 4 });
        expect_valid(r);
    }

    #[test]
    fn expect_valid_passes_ok_through() {
        assert_eq!(expect_valid(Ok::<_, PipelineError>(7)), 7);
    }
}
