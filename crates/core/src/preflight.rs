//! Pre-flight feasibility validation: typed errors instead of panics (or
//! degenerate runs) for inputs no partitioning configuration can satisfy.
//!
//! The pipelines assume a sane problem instance — at least two modules,
//! positive total area, `k` no larger than the module count, and a balance
//! tolerance wide enough that every module fits in a part. Violations used to
//! surface as engine panics or silently-degenerate answers deep inside a run;
//! [`preflight_constrained`] rejects them up front with a [`PreflightError`] the CLI (and
//! any embedding tool) can report as *invalid input* rather than a crash.

use mlpart_hypergraph::{Constraints, ConstraintsError, Hypergraph, PartId};

/// Why a `(netlist, k, balance)` problem instance is infeasible.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PreflightError {
    /// Fewer than two modules: there is nothing to partition.
    TooFewModules {
        /// Modules in the netlist.
        modules: usize,
    },
    /// More parts than modules: at least one part must stay empty, which the
    /// balance constraint can never accept for a meaningful tolerance.
    KExceedsModules {
        /// Requested part count.
        k: u32,
        /// Modules in the netlist.
        modules: usize,
    },
    /// Total module area is zero, so balance bounds collapse to `[0, 0]`.
    ZeroTotalArea,
    /// A single module is larger than a part's capacity at the *requested*
    /// tolerance ε. The engines would still run — §III-B widens the slack
    /// to the largest module area so their bounds never strand a module —
    /// but the balance constraint as stated is unattainable, which a tool
    /// driving the partitioner should hear about up front rather than
    /// discover in a meaninglessly "balanced" answer.
    InfeasibleBalance {
        /// Index of the offending module.
        module: usize,
        /// Its area.
        area: u64,
        /// The per-part capacity implied by `(k, ε)` before §III-B widening:
        /// `A(V)/k + ⌊ε·A(V)/k⌋`.
        capacity: u64,
    },
    /// The modules fixed to one part already exceed that part's ε-capacity:
    /// no assignment of the free modules can repair it, since fixed modules
    /// never move.
    FixedAreaExceedsBound {
        /// The over-committed part.
        part: PartId,
        /// Total area of the modules fixed to it.
        fixed_area: u64,
        /// Its upper capacity bound at the requested ε.
        bound: u64,
    },
    /// After pinning, the free modules cannot populate every part that no
    /// fixed module covers — some part must stay empty, which the balance
    /// constraint can never accept.
    KTooLargeForFixed {
        /// Requested part count.
        k: u32,
        /// Parts holding at least one fixed module.
        fixed_parts: usize,
        /// Modules left free by the fixed list.
        free_modules: usize,
    },
    /// A fixed module index exceeds the netlist's module count.
    FixedModuleOutOfRange {
        /// Offending module index.
        module: usize,
        /// Modules in the netlist.
        modules: usize,
    },
}

impl std::fmt::Display for PreflightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PreflightError::TooFewModules { modules } => {
                write!(f, "netlist has {modules} module(s); need at least 2")
            }
            PreflightError::KExceedsModules { k, modules } => {
                write!(f, "k = {k} exceeds the {modules} module(s) in the netlist")
            }
            PreflightError::ZeroTotalArea => {
                write!(f, "total module area is zero; balance bounds are empty")
            }
            PreflightError::InfeasibleBalance {
                module,
                area,
                capacity,
            } => write!(
                f,
                "module {module} (area {area}) exceeds the per-part capacity \
                 {capacity}; no feasible partition exists at this tolerance"
            ),
            PreflightError::FixedAreaExceedsBound {
                part,
                fixed_area,
                bound,
            } => write!(
                f,
                "modules fixed to part {part} total area {fixed_area}, over its \
                 capacity bound {bound}; no assignment of the free modules can fit"
            ),
            PreflightError::KTooLargeForFixed {
                k,
                fixed_parts,
                free_modules,
            } => write!(
                f,
                "k = {k} needs more parts than the {fixed_parts} pinned part(s) \
                 plus {free_modules} free module(s) can populate"
            ),
            PreflightError::FixedModuleOutOfRange { module, modules } => {
                write!(
                    f,
                    "fixed module {module} out of range for {modules} module(s)"
                )
            }
        }
    }
}

impl std::error::Error for PreflightError {}

/// Validates that partitioning `h` into `k` parts at balance tolerance
/// `epsilon` has any feasible solution, returning the first violation as a
/// typed error.
///
/// The capacity check is [`PartBounds::from_epsilon`]'s arithmetic
/// **without** the §III-B max-module widening: the engines widen their
/// bounds so every module always has a feasible home, which means a
/// widened-bounds check can never fail — pre-flight instead reports when
/// that widening would be the only thing keeping the instance feasible.
/// `k ≥ 1` holds: [`Constraints::new`] rejects `k = 0`.
///
/// [`PartBounds::from_epsilon`]: mlpart_hypergraph::PartBounds::from_epsilon
fn preflight(h: &Hypergraph, k: u32, epsilon: f64) -> Result<(), PreflightError> {
    let modules = h.num_modules();
    if modules < 2 {
        return Err(PreflightError::TooFewModules { modules });
    }
    if k as usize > modules {
        return Err(PreflightError::KExceedsModules { k, modules });
    }
    let total = h.total_area();
    if total == 0 {
        return Err(PreflightError::ZeroTotalArea);
    }
    // Per-part capacity at the requested tolerance. With k = 2 and ε = 2r
    // this is the paper's `A(V)/2 + r·A(V)` bound before the max-module
    // widening.
    let slack = (epsilon * total as f64 / k as f64).floor() as u64;
    let capacity = (total / k as u64).saturating_add(slack);
    for (module, &area) in h.areas().iter().enumerate() {
        if area > capacity {
            return Err(PreflightError::InfeasibleBalance {
                module,
                area,
                capacity,
            });
        }
    }
    Ok(())
}

/// Validates a full [`Constraints`] set against `h`: the base checks (at
/// least two modules, `k` no larger than the module count, positive total
/// area, every module within a part's capacity at ε before the §III-B
/// widening) plus the fixed-module feasibility that only a constraint-aware run
/// can violate — pins out of range, a part over-committed by its pinned
/// area, or too few free modules to populate the unpinned parts.
///
/// # Examples
///
/// ```
/// use mlpart_core::preflight::{preflight_constrained, PreflightError};
/// use mlpart_hypergraph::{Constraints, HypergraphBuilder, ModuleId};
///
/// let h = HypergraphBuilder::with_unit_areas(8).build().unwrap();
/// let ok = Constraints::new(2, 0.2, vec![(ModuleId::new(0), 1)]).unwrap();
/// assert!(preflight_constrained(&h, &ok).is_ok());
/// let oob = Constraints::new(2, 0.2, vec![(ModuleId::new(9), 1)]).unwrap();
/// assert!(matches!(
///     preflight_constrained(&h, &oob),
///     Err(PreflightError::FixedModuleOutOfRange { module: 9, modules: 8 })
/// ));
/// ```
pub fn preflight_constrained(h: &Hypergraph, c: &Constraints) -> Result<(), PreflightError> {
    preflight(h, c.k(), c.epsilon())?;
    // Range-check pins before touching their areas.
    if let Err(ConstraintsError::ModuleOutOfRange { module, modules }) =
        c.check_modules(h.num_modules())
    {
        return Err(PreflightError::FixedModuleOutOfRange { module, modules });
    }
    let bounds = c.bounds(h);
    for (part, &fixed_area) in c.fixed_areas(h).iter().enumerate() {
        let bound = bounds.hi(part as PartId);
        if fixed_area > bound {
            return Err(PreflightError::FixedAreaExceedsBound {
                part: part as PartId,
                fixed_area,
                bound,
            });
        }
    }
    // Every part needs at least one module; pins cover their own parts and
    // the free modules must cover the rest.
    let mut pinned = vec![false; c.k() as usize];
    for &(_, p) in c.fixed() {
        pinned[p as usize] = true;
    }
    let fixed_parts = pinned.iter().filter(|&&x| x).count();
    let free_modules = h.num_modules() - c.fixed().len();
    if fixed_parts + free_modules < c.k() as usize {
        return Err(PreflightError::KTooLargeForFixed {
            k: c.k(),
            fixed_parts,
            free_modules,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::HypergraphBuilder;

    #[test]
    fn accepts_a_sane_instance() {
        let mut b = HypergraphBuilder::with_unit_areas(16);
        for i in 0..15 {
            b.add_net([i, i + 1]).unwrap();
        }
        let h = b.build().unwrap();
        assert_eq!(preflight(&h, 2, 0.2), Ok(()));
        assert_eq!(preflight(&h, 4, 0.2), Ok(()));
    }

    #[test]
    fn rejects_single_module_graphs() {
        let h = HypergraphBuilder::with_unit_areas(1).build().unwrap();
        assert_eq!(
            preflight(&h, 2, 0.2),
            Err(PreflightError::TooFewModules { modules: 1 })
        );
    }

    #[test]
    fn rejects_oversized_k() {
        let h = HypergraphBuilder::with_unit_areas(4).build().unwrap();
        assert_eq!(
            preflight(&h, 5, 0.2),
            Err(PreflightError::KExceedsModules { k: 5, modules: 4 })
        );
    }

    #[test]
    fn rejects_an_area_outlier_the_balance_cannot_hold() {
        // One module carries (almost) all the area: its area exceeds the
        // per-part capacity at ε = 0.2 for both 2- and 4-way splits, so any
        // "balanced" partition is balanced in name only.
        let mut areas = vec![1u64; 16];
        areas[3] = 1_000_000;
        let h = HypergraphBuilder::new(areas).build().unwrap();
        for k in [2u32, 4] {
            match preflight(&h, k, 0.2) {
                Err(PreflightError::InfeasibleBalance { module, area, .. }) => {
                    assert_eq!(module, 3, "k = {k}");
                    assert_eq!(area, 1_000_000);
                }
                other => panic!("expected InfeasibleBalance for k = {k}, got {other:?}"),
            }
        }
        // A mild outlier fits within the requested tolerance.
        let mut areas = vec![1u64; 16];
        areas[0] = 4;
        let h = HypergraphBuilder::new(areas).build().unwrap();
        assert_eq!(preflight(&h, 2, 0.2), Ok(()));
    }

    #[test]
    fn constrained_accepts_sane_pins_and_defers_to_base_checks() {
        use mlpart_hypergraph::{Constraints, ModuleId};
        let mut b = HypergraphBuilder::with_unit_areas(16);
        for i in 0..15 {
            b.add_net([i, i + 1]).unwrap();
        }
        let h = b.build().unwrap();
        let c =
            Constraints::new(4, 0.2, vec![(ModuleId::new(0), 0), (ModuleId::new(15), 3)]).unwrap();
        assert_eq!(preflight_constrained(&h, &c), Ok(()));
        // The base checks still fire through the constrained entry.
        assert_eq!(
            preflight_constrained(&h, &Constraints::unconstrained(17)),
            Err(PreflightError::KExceedsModules { k: 17, modules: 16 })
        );
    }

    #[test]
    fn constrained_rejects_overcommitted_part() {
        use mlpart_hypergraph::{Constraints, ModuleId};
        // 16 units, k = 4, ε = 0.2: per-part window tops out at
        // 4 + max(⌊0.2·4⌋, 1) = 5; pinning six modules to part 2 over-commits
        // it before any free module is placed.
        let h = HypergraphBuilder::with_unit_areas(16).build().unwrap();
        let pins: Vec<_> = (0..6).map(|i| (ModuleId::new(i), 2)).collect();
        let c = Constraints::new(4, 0.2, pins).unwrap();
        match preflight_constrained(&h, &c) {
            Err(PreflightError::FixedAreaExceedsBound {
                part,
                fixed_area,
                bound,
            }) => {
                assert_eq!(part, 2);
                assert_eq!(fixed_area, 6);
                assert!(bound < 6, "bound {bound}");
            }
            other => panic!("expected FixedAreaExceedsBound, got {other:?}"),
        }
    }

    #[test]
    fn constrained_rejects_k_the_pins_cannot_populate() {
        use mlpart_hypergraph::{Constraints, ModuleId};
        // 4 modules, k = 4, three pinned to part 0: one free module cannot
        // cover the three unpinned parts.
        let h = HypergraphBuilder::with_unit_areas(4).build().unwrap();
        let pins: Vec<_> = (0..3).map(|i| (ModuleId::new(i), 0)).collect();
        let c = Constraints::new(4, 2.0, pins).unwrap();
        assert_eq!(
            preflight_constrained(&h, &c),
            Err(PreflightError::KTooLargeForFixed {
                k: 4,
                fixed_parts: 1,
                free_modules: 1
            })
        );
    }

    #[test]
    fn errors_render_a_message() {
        let e = PreflightError::InfeasibleBalance {
            module: 7,
            area: 10,
            capacity: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("module 7"), "{msg}");
        assert!(msg.contains("capacity"), "{msg}");
    }
}
