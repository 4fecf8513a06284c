//! The one request and error type of both refinement engines.
//!
//! The 2-way engine ([`fm_partition`](crate::fm_partition),
//! [`refine`](crate::refine)) and the k-way engine in `mlpart-kway` take the
//! same [`RefineRequest`] and reject bad input with the same
//! [`RefineError`], before any RNG draw or partition write.

use crate::budget::BudgetMeter;
use crate::state::RefineWorkspace;
use mlpart_hypergraph::{ConstraintsError, Hypergraph, ModuleId, PartBounds, PartId, Partition};
use std::fmt;

/// The optional inputs of every engine entry point, beyond the netlist, its
/// configuration and the RNG.
#[derive(Debug, Default)]
pub struct RefineRequest<'a> {
    /// Refinement scratch reused across calls; `None` allocates one.
    /// Results do not depend on it.
    pub workspace: Option<&'a mut RefineWorkspace>,
    /// A cooperative budget, consulted before every pass; `None` runs
    /// unlimited. A run that stops early keeps its best solution so far.
    pub meter: Option<&'a mut BudgetMeter>,
    /// Per-part `[lo, hi]` area windows. `None` uses the §III-B ratio window
    /// built from the configuration's `balance_r`.
    pub bounds: Option<&'a PartBounds>,
    /// Modules pinned to a part. They never move during refinement; the
    /// `partition` entries move them onto their parts before refining.
    pub fixed: &'a [(ModuleId, PartId)],
}

/// A request's inputs with fresh stand-ins for a missing workspace or meter
/// (see [`RefineRequest::with`]).
#[derive(Debug)]
pub struct RequestParts<'r> {
    /// The caller's workspace, or a fresh one.
    pub ws: &'r mut RefineWorkspace,
    /// The caller's meter, or an unlimited one.
    pub meter: &'r mut BudgetMeter,
    /// The request's explicit windows, if any.
    pub bounds: Option<&'r PartBounds>,
    /// The request's pins.
    pub fixed: &'r [(ModuleId, PartId)],
}

impl<'a> RefineRequest<'a> {
    /// A request that refines through `ws` and sets nothing else.
    pub fn reusing(ws: &'a mut RefineWorkspace) -> Self {
        RefineRequest {
            workspace: Some(ws),
            ..RefineRequest::default()
        }
    }

    /// Checks the request for a `k`-part problem on `h`, refining `p` if
    /// given: `k` is positive, `p` has `k` parts and one entry per module,
    /// the bounds have `k` parts, and every pin names a module of `h` and a
    /// part below `k`.
    ///
    /// # Errors
    ///
    /// The first rule broken, as a [`RefineError`].
    pub fn check(&self, h: &Hypergraph, k: u32, p: Option<&Partition>) -> Result<(), RefineError> {
        if k == 0 {
            return Err(ConstraintsError::ZeroParts.into());
        }
        let modules = h.num_modules();
        if let Some(p) = p {
            if p.k() != k {
                return Err(RefineError::KMismatch {
                    expected: k,
                    got: p.k(),
                });
            }
            if p.assignment().len() != modules {
                return Err(RefineError::PartitionLength {
                    len: p.assignment().len(),
                    modules,
                });
            }
        }
        if let Some(b) = self.bounds.filter(|b| b.k() != k) {
            return Err(RefineError::BoundsArity { bounds: b.k(), k });
        }
        for &(v, part) in self.fixed {
            let module = v.index();
            if module >= modules {
                return Err(ConstraintsError::ModuleOutOfRange { module, modules }.into());
            }
            if part >= k {
                return Err(ConstraintsError::PartOutOfRange { module, part, k }.into());
            }
        }
        Ok(())
    }

    /// Calls `f` with the request's parts, a fresh workspace and an
    /// unlimited meter standing in for missing ones.
    pub fn with<T>(self, f: impl FnOnce(RequestParts<'_>) -> T) -> T {
        let (mut ws, mut meter) = (RefineWorkspace::new(), BudgetMeter::unlimited());
        f(RequestParts {
            ws: self.workspace.unwrap_or(&mut ws),
            meter: self.meter.unwrap_or(&mut meter),
            bounds: self.bounds,
            fixed: self.fixed,
        })
    }
}

/// Why an engine entry point rejected its input. Nothing was drawn from the
/// RNG and no partition was written.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RefineError {
    /// `k` is zero, or a pin is out of range
    /// ([`ConstraintsError::ZeroParts`], [`ConstraintsError::ModuleOutOfRange`],
    /// [`ConstraintsError::PartOutOfRange`]).
    Constraints(ConstraintsError),
    /// The partition has the wrong number of parts (the 2-way engine
    /// requires `k = 2`).
    KMismatch {
        /// The part count the engine requires.
        expected: u32,
        /// The partition's part count.
        got: u32,
    },
    /// The partition's length is not the netlist's module count.
    PartitionLength {
        /// Entries in the partition.
        len: usize,
        /// Modules in the netlist.
        modules: usize,
    },
    /// The explicit bounds do not have one window per part.
    BoundsArity {
        /// Windows in the bounds.
        bounds: u32,
        /// The part count.
        k: u32,
    },
    /// A module's visible incident net weight exceeds what the gain buckets
    /// can key.
    WeightsTooLarge {
        /// The largest visible incident weight of any module.
        weight: i64,
        /// The largest the buckets accept.
        limit: i64,
    },
}

impl fmt::Display for RefineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefineError::Constraints(e) => write!(f, "{e}"),
            RefineError::KMismatch { expected, got } => {
                write!(
                    f,
                    "the engine requires k = {expected}, got a {got}-part partition"
                )
            }
            RefineError::PartitionLength { len, modules } => write!(
                f,
                "partition has {len} entries but the netlist has {modules} module(s)"
            ),
            RefineError::BoundsArity { bounds, k } => {
                write!(f, "bounds have {bounds} part(s) but k = {k}")
            }
            RefineError::WeightsTooLarge { weight, limit } => write!(
                f,
                "net weights too large: a module's incident weight {weight} exceeds {limit}"
            ),
        }
    }
}

impl std::error::Error for RefineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RefineError::Constraints(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConstraintsError> for RefineError {
    fn from(e: ConstraintsError) -> Self {
        RefineError::Constraints(e)
    }
}

/// Unwraps an engine result for the `_in` wrappers the `perf` benchmark
/// pins, naming the broken rule in the panic message.
#[track_caller]
pub(crate) fn expect_valid<T>(r: Result<T, RefineError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => panic!("invalid refinement input: {e}"),
    }
}
