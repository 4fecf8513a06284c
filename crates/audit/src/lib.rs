//! Runtime invariant auditor for the mlpart workspace.
//!
//! The paper's results hinge on internal consistency that release builds
//! normally only spot-check: CSR hypergraphs must stay mirror-consistent,
//! gain buckets must agree with recomputed FM gains, and Definition-2
//! projection must preserve cut bit-exactly at every uncoarsening level.
//! This crate is Part A of the workspace's verification layer: structure
//! checkers that algorithm crates invoke at phase boundaries behind the
//! `audit` cargo feature plus an `MLPART_AUDIT=1` environment gate.
//!
//! Checkers return a structured [`AuditError`] (structure, check, level,
//! pass, offending module/net) instead of panicking; the call sites (each one
//! `mlpart_hypergraph::audit!`) funnel failures through [`enforce`], which
//! formats the report before aborting.
//!
//! Checkers for engine-internal state (`RefineState`, k-way gain tables)
//! live inside `mlpart-fm` / `mlpart-kway` behind their own `audit`
//! features — they need private context this crate cannot see — and reuse
//! the [`AuditError`] type and the [`enabled`]/[`enforce`] gates from here.
//!
//! # Examples
//!
//! ```
//! use mlpart_audit::{audit_hypergraph, Audit};
//! use mlpart_hypergraph::HypergraphBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(4);
//! b.add_net([0usize, 1])?;
//! b.add_net([1usize, 2, 3])?;
//! let h = b.build()?;
//! assert!(audit_hypergraph(&h).is_ok());
//! assert!(h.audit().is_ok()); // same check via the trait
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mlpart_hypergraph::{metrics, Hypergraph, Partition};
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A structured audit failure: which structure broke which invariant, where.
///
/// `level` and `pass` are attached by call sites that know their multilevel
/// or FM-pass context; `module`/`net` identify the offending element when
/// the checker can localize the violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// The audited structure, e.g. `"Hypergraph"` or `"RefineState"`.
    pub structure: &'static str,
    /// The violated invariant, e.g. `"pins-dedup"` or `"gain-recompute"`.
    pub check: &'static str,
    /// Human-readable specifics (expected vs. observed values).
    pub detail: String,
    /// Offending module index, when localizable.
    pub module: Option<usize>,
    /// Offending net index, when localizable.
    pub net: Option<usize>,
    /// Multilevel hierarchy level, when known by the call site.
    pub level: Option<usize>,
    /// Refinement pass number, when known by the call site.
    pub pass: Option<usize>,
}

impl AuditError {
    /// Creates an error with no location attached.
    pub fn new(structure: &'static str, check: &'static str, detail: String) -> Self {
        AuditError {
            structure,
            check,
            detail,
            module: None,
            net: None,
            level: None,
            pass: None,
        }
    }

    /// Attaches the offending module index.
    #[must_use]
    pub fn with_module(mut self, v: usize) -> Self {
        self.module = Some(v);
        self
    }

    /// Attaches the offending net index.
    #[must_use]
    pub fn with_net(mut self, e: usize) -> Self {
        self.net = Some(e);
        self
    }

    /// Attaches the multilevel level index.
    #[must_use]
    pub fn with_level(mut self, level: usize) -> Self {
        self.level = Some(level);
        self
    }

    /// Attaches the refinement pass number.
    #[must_use]
    pub fn with_pass(mut self, pass: usize) -> Self {
        self.pass = Some(pass);
        self
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "audit[{}::{}]", self.structure, self.check)?;
        if let Some(level) = self.level {
            write!(f, " level={level}")?;
        }
        if let Some(pass) = self.pass {
            write!(f, " pass={pass}")?;
        }
        if let Some(v) = self.module {
            write!(f, " module={v}")?;
        }
        if let Some(e) = self.net {
            write!(f, " net={e}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for AuditError {}

/// Result of one audit: `Ok(())` or the first violation found.
pub type AuditResult = Result<(), AuditError>;

/// A structure that can verify its own invariants from scratch.
pub trait Audit {
    /// Recomputes every invariant of `self` and reports the first violation.
    fn audit(&self) -> AuditResult;
}

// Runtime gate: 0 = follow MLPART_AUDIT, 1 = forced on, 2 = forced off.
static FORCE: AtomicU8 = AtomicU8::new(0);

/// True when phase-boundary audits should run.
///
/// Reads `MLPART_AUDIT` once (`"1"` enables) and caches the answer, so the
/// per-call cost inside refinement loops is one atomic load. Tests may
/// override the environment with [`force_enabled`].
pub fn enabled() -> bool {
    match FORCE.load(Ordering::Relaxed) {
        1 => return true,
        2 => return false,
        _ => {}
    }
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("MLPART_AUDIT").is_ok_and(|v| v == "1"))
}

/// Overrides the `MLPART_AUDIT` environment gate for the whole process.
///
/// Intended for tests that must exercise audit hooks deterministically
/// regardless of the environment. Affects every thread. `false` returns to
/// following the environment (rather than forcing audits off), so a test
/// binary running under `MLPART_AUDIT=1` keeps auditing after the
/// forced-on test finishes.
pub fn force_enabled(on: bool) {
    FORCE.store(if on { 1 } else { 0 }, Ordering::Relaxed);
}

/// Aborts with the formatted report if an audit failed.
///
/// # Panics
///
/// Panics with the [`AuditError`] display form on `Err`.
pub fn enforce(result: AuditResult) {
    if let Err(e) = result {
        panic!("MLPART_AUDIT failure: {e}");
    }
}

/// Equality check on a tracked counter vs. its from-scratch recomputation
/// (e.g. the incremental `cut` against `best_cut` after rollback).
pub fn check_counter(
    structure: &'static str,
    check: &'static str,
    got: u64,
    want: u64,
) -> AuditResult {
    if got == want {
        Ok(())
    } else {
        Err(AuditError::new(
            structure,
            check,
            format!("tracked value {got} != recomputed {want}"),
        ))
    }
}

/// Abstract incidence view so [`audit_hypergraph`] can run both on the real
/// CSR [`Hypergraph`] and on a deliberately corrupted [`RawIncidence`] in
/// negative tests (the builder refuses to construct ill-formed graphs, so
/// corruption has to come in through a side door).
pub trait HypergraphView {
    /// Number of modules.
    fn view_modules(&self) -> usize;
    /// Number of nets.
    fn view_nets(&self) -> usize;
    /// Pin list of net `e` as raw module indices.
    fn view_pins(&self, e: usize) -> Vec<u32>;
    /// Incident-net list of module `v` as raw net indices.
    fn view_incident(&self, v: usize) -> Vec<u32>;
    /// Area of module `v`.
    fn view_area(&self, v: usize) -> u64;
    /// The structure's *cached* total area (checked against the sum).
    fn view_total_area(&self) -> u64;
    /// The structure's *cached* maximum module area.
    fn view_max_area(&self) -> u64;
    /// Weight of net `e`.
    fn view_net_weight(&self, e: usize) -> u32;
}

impl HypergraphView for Hypergraph {
    fn view_modules(&self) -> usize {
        self.num_modules()
    }
    fn view_nets(&self) -> usize {
        self.num_nets()
    }
    fn view_pins(&self, e: usize) -> Vec<u32> {
        self.pins(mlpart_hypergraph::NetId::new(e))
            .iter()
            .map(|v| v.raw())
            .collect()
    }
    fn view_incident(&self, v: usize) -> Vec<u32> {
        self.nets(mlpart_hypergraph::ModuleId::new(v))
            .iter()
            .map(|e| e.raw())
            .collect()
    }
    fn view_area(&self, v: usize) -> u64 {
        self.area(mlpart_hypergraph::ModuleId::new(v))
    }
    fn view_total_area(&self) -> u64 {
        self.total_area()
    }
    fn view_max_area(&self) -> u64 {
        self.max_area()
    }
    fn view_net_weight(&self, e: usize) -> u32 {
        self.net_weight(mlpart_hypergraph::NetId::new(e))
    }
}

/// A plain-vector incidence structure for audit tests and fixtures.
///
/// Unlike [`Hypergraph`] this can represent *broken* incidence — duplicate
/// pins, one-sided edges, stale cached totals — which is exactly what the
/// negative tests need to prove each checker fires.
#[derive(Debug, Clone, Default)]
pub struct RawIncidence {
    /// Pin lists per net.
    pub net_pins: Vec<Vec<u32>>,
    /// Incident-net lists per module.
    pub mod_nets: Vec<Vec<u32>>,
    /// Module areas.
    pub areas: Vec<u64>,
    /// Net weights.
    pub net_weights: Vec<u32>,
    /// Cached total area (what the real structure would have memoized).
    pub total_area: u64,
    /// Cached maximum module area.
    pub max_area: u64,
}

impl RawIncidence {
    /// Builds a well-formed raw view from a real hypergraph, ready for a
    /// test to corrupt one field of.
    pub fn from_hypergraph(h: &Hypergraph) -> Self {
        RawIncidence {
            net_pins: (0..h.num_nets()).map(|e| h.view_pins(e)).collect(),
            mod_nets: (0..h.num_modules()).map(|v| h.view_incident(v)).collect(),
            areas: h.areas().to_vec(),
            net_weights: h.net_weights().to_vec(),
            total_area: h.total_area(),
            max_area: h.max_area(),
        }
    }
}

impl HypergraphView for RawIncidence {
    fn view_modules(&self) -> usize {
        self.mod_nets.len()
    }
    fn view_nets(&self) -> usize {
        self.net_pins.len()
    }
    fn view_pins(&self, e: usize) -> Vec<u32> {
        self.net_pins[e].clone()
    }
    fn view_incident(&self, v: usize) -> Vec<u32> {
        self.mod_nets[v].clone()
    }
    fn view_area(&self, v: usize) -> u64 {
        self.areas[v]
    }
    fn view_total_area(&self) -> u64 {
        self.total_area
    }
    fn view_max_area(&self) -> u64 {
        self.max_area
    }
    fn view_net_weight(&self, e: usize) -> u32 {
        self.net_weights[e]
    }
}

const HG: &str = "Hypergraph";

/// Full CSR well-formedness audit: deduplicated pin lists with in-range
/// indices (the builder dedups but keeps insertion order, so pins are *not*
/// required to be sorted), strictly ascending incident-net lists,
/// mirror-consistent module↔net incidence in both directions, net sizes
/// ≥ 2, positive net weights, and cached area totals that match a
/// from-scratch recomputation. Runs in `O(pins · max degree)`.
pub fn audit_hypergraph<H: HypergraphView>(h: &H) -> AuditResult {
    let n = h.view_modules();
    let m = h.view_nets();

    for e in 0..m {
        let pins = h.view_pins(e);
        if pins.len() < 2 {
            return Err(AuditError::new(
                HG,
                "net-size",
                format!(
                    "net has {} pins; sub-2-pin nets must be dropped",
                    pins.len()
                ),
            )
            .with_net(e));
        }
        if h.view_net_weight(e) == 0 {
            return Err(
                AuditError::new(HG, "net-weight", "net weight is zero".to_string()).with_net(e),
            );
        }
        let mut sorted_pins = pins.clone();
        sorted_pins.sort_unstable();
        if sorted_pins.windows(2).any(|w| w[0] == w[1]) {
            return Err(AuditError::new(
                HG,
                "pins-dedup",
                "pin list contains a duplicate module".to_string(),
            )
            .with_net(e));
        }
        for &v in &pins {
            if (v as usize) >= n {
                return Err(AuditError::new(
                    HG,
                    "pin-range",
                    format!("pin {v} out of range for {n} modules"),
                )
                .with_net(e));
            }
            // Mirror: the pin's module must list this net.
            if !h.view_incident(v as usize).contains(&(e as u32)) {
                return Err(AuditError::new(
                    HG,
                    "mirror-module",
                    format!("net lists pin {v}, but module {v} does not list the net"),
                )
                .with_net(e)
                .with_module(v as usize));
            }
        }
    }

    let mut pin_count_by_nets = 0usize;
    for v in 0..n {
        let incident = h.view_incident(v);
        pin_count_by_nets += incident.len();
        for w in incident.windows(2) {
            if w[0] >= w[1] {
                return Err(AuditError::new(
                    HG,
                    "nets-sorted",
                    format!(
                        "incident-net list not strictly ascending at {} .. {}",
                        w[0], w[1]
                    ),
                )
                .with_module(v));
            }
        }
        for &e in &incident {
            if (e as usize) >= m {
                return Err(AuditError::new(
                    HG,
                    "net-range",
                    format!("incident net {e} out of range for {m} nets"),
                )
                .with_module(v));
            }
            // Mirror: the listed net must contain this module as a pin
            // (linear scan — pin lists keep insertion order).
            if !h.view_pins(e as usize).contains(&(v as u32)) {
                return Err(AuditError::new(
                    HG,
                    "mirror-net",
                    format!("module lists net {e}, but net {e} does not list the module"),
                )
                .with_module(v)
                .with_net(e as usize));
            }
        }
    }

    let pin_count_by_pins: usize = (0..m).map(|e| h.view_pins(e).len()).sum();
    if pin_count_by_nets != pin_count_by_pins {
        return Err(AuditError::new(
            HG,
            "pin-count",
            format!(
                "module side counts {pin_count_by_nets} pins, net side counts {pin_count_by_pins}"
            ),
        ));
    }

    let total: u64 = (0..n).map(|v| h.view_area(v)).sum();
    if total != h.view_total_area() {
        return Err(AuditError::new(
            HG,
            "total-area",
            format!(
                "cached total area {} != recomputed {total}",
                h.view_total_area()
            ),
        ));
    }
    let max = (0..n).map(|v| h.view_area(v)).max().unwrap_or(0);
    if max != h.view_max_area() {
        return Err(AuditError::new(
            HG,
            "max-area",
            format!("cached max area {} != recomputed {max}", h.view_max_area()),
        ));
    }
    Ok(())
}

impl Audit for Hypergraph {
    fn audit(&self) -> AuditResult {
        audit_hypergraph(self)
    }
}

/// Partition-vs-hypergraph consistency: assignment length, part ids in
/// range, and the balance counters (`part_areas`) equal to a from-scratch
/// per-part area recount.
pub fn audit_partition(h: &Hypergraph, p: &Partition) -> AuditResult {
    const ST: &str = "Partition";
    let k = p.k() as usize;
    if p.assignment().len() != h.num_modules() {
        return Err(AuditError::new(
            ST,
            "assignment-len",
            format!(
                "{} assignments for {} modules",
                p.assignment().len(),
                h.num_modules()
            ),
        ));
    }
    if p.part_areas().len() != k {
        return Err(AuditError::new(
            ST,
            "areas-len",
            format!("{} area counters for k={k}", p.part_areas().len()),
        ));
    }
    let mut areas = vec![0u64; k];
    for v in h.modules() {
        let part = p.part(v) as usize;
        if part >= k {
            return Err(AuditError::new(
                ST,
                "part-range",
                format!("assigned to part {part} with k={k}"),
            )
            .with_module(v.index()));
        }
        areas[part] += h.area(v);
    }
    for (part, (&tracked, &recount)) in p.part_areas().iter().zip(areas.iter()).enumerate() {
        if tracked != recount {
            return Err(AuditError::new(
                ST,
                "balance-counter",
                format!("part {part} tracks area {tracked}, recount gives {recount}"),
            ));
        }
    }
    Ok(())
}

/// Cluster-map legality per Definition 1: the map is *total* (every fine
/// module maps to an in-range cluster) and *surjective* (every cluster id
/// receives at least one module).
pub fn audit_cluster_map(map: &[u32], num_clusters: usize) -> AuditResult {
    const ST: &str = "Clustering";
    if num_clusters == 0 && !map.is_empty() {
        return Err(AuditError::new(
            ST,
            "total",
            format!("{} modules mapped into zero clusters", map.len()),
        ));
    }
    let mut hit = vec![false; num_clusters];
    for (v, &c) in map.iter().enumerate() {
        if (c as usize) >= num_clusters {
            return Err(AuditError::new(
                ST,
                "total",
                format!("maps to cluster {c}, only {num_clusters} exist"),
            )
            .with_module(v));
        }
        hit[c as usize] = true;
    }
    if let Some(empty) = hit.iter().position(|&b| !b) {
        return Err(AuditError::new(
            ST,
            "surjective",
            format!("cluster {empty} receives no module"),
        ));
    }
    Ok(())
}

/// Definition-2 projection legality: the fine solution must be exactly the
/// coarse solution pulled back through the cluster map — same `k`,
/// per-module agreement `fine_p(v) = coarse_p(map(v))`, per-part areas
/// preserved, and **cut preserved bit-exactly**.
pub fn audit_projection(
    fine: &Hypergraph,
    fine_p: &Partition,
    coarse: &Hypergraph,
    coarse_p: &Partition,
    map: &[u32],
) -> AuditResult {
    const ST: &str = "Projection";
    audit_cluster_map(map, coarse.num_modules())?;
    if map.len() != fine.num_modules() {
        return Err(AuditError::new(
            ST,
            "map-len",
            format!(
                "cluster map covers {} of {} fine modules",
                map.len(),
                fine.num_modules()
            ),
        ));
    }
    if fine_p.k() != coarse_p.k() {
        return Err(AuditError::new(
            ST,
            "k-mismatch",
            format!("fine k={} vs coarse k={}", fine_p.k(), coarse_p.k()),
        ));
    }
    for v in fine.modules() {
        let cluster = map[v.index()];
        let want = coarse_p.part(mlpart_hypergraph::ModuleId::from(cluster));
        if fine_p.part(v) != want {
            return Err(AuditError::new(
                ST,
                "pullback",
                format!(
                    "fine module in part {}, its cluster {cluster} in part {want}",
                    fine_p.part(v)
                ),
            )
            .with_module(v.index()));
        }
    }
    if fine_p.part_areas() != coarse_p.part_areas() {
        return Err(AuditError::new(
            ST,
            "area-preserved",
            format!(
                "fine part areas {:?} != coarse part areas {:?}",
                fine_p.part_areas(),
                coarse_p.part_areas()
            ),
        ));
    }
    let fine_cut = metrics::cut(fine, fine_p);
    let coarse_cut = metrics::cut(coarse, coarse_p);
    if fine_cut != coarse_cut {
        return Err(AuditError::new(
            ST,
            "cut-preserved",
            format!("projected cut {fine_cut} != coarse cut {coarse_cut} (Definition 2)"),
        ));
    }
    Ok(())
}

/// Constraint legality: every *fixed* module sits on exactly the part it was
/// pinned to. Run after every refinement phase and at every level of a
/// projection so a pin violated deep in the V-cycle is caught where it
/// happens, not at the end.
pub fn audit_fixed_assignment(
    p: &Partition,
    fixed: &[(mlpart_hypergraph::ModuleId, mlpart_hypergraph::PartId)],
) -> AuditResult {
    const ST: &str = "Constraints";
    for &(v, part) in fixed {
        if v.index() >= p.assignment().len() {
            return Err(AuditError::new(
                ST,
                "fixed-range",
                format!(
                    "fixed module out of range ({} modules)",
                    p.assignment().len()
                ),
            )
            .with_module(v.index()));
        }
        if part >= p.k() {
            return Err(AuditError::new(
                ST,
                "fixed-range",
                format!("pinned to part {part} with k={}", p.k()),
            )
            .with_module(v.index()));
        }
        if p.part(v) != part {
            return Err(AuditError::new(
                ST,
                "fixed-immovable",
                format!("pinned to part {part} but assigned to part {}", p.part(v)),
            )
            .with_module(v.index()));
        }
    }
    Ok(())
}

/// Constraint legality: every part's area lies inside its `[lo, hi]` window.
/// `bounds` is supplied as parallel `lo`/`hi` slices (one entry per part) so
/// this crate stays decoupled from the constraints type that owns them.
pub fn audit_part_bounds(p: &Partition, lo: &[u64], hi: &[u64]) -> AuditResult {
    const ST: &str = "Constraints";
    if lo.len() != p.k() as usize || hi.len() != p.k() as usize {
        return Err(AuditError::new(
            ST,
            "bounds-shape",
            format!("{}/{} window entries for k={}", lo.len(), hi.len(), p.k()),
        ));
    }
    for (part, &area) in p.part_areas().iter().enumerate() {
        if area < lo[part] || area > hi[part] {
            return Err(AuditError::new(
                ST,
                "part-bounds",
                format!(
                    "part {part} has area {area}, outside its window [{}, {}]",
                    lo[part], hi[part]
                ),
            ));
        }
    }
    Ok(())
}

/// Repair legality for the balance-repair pass: a repaired solution must
/// (a) land every part inside its `[lo, hi]` window, (b) leave every fixed
/// terminal on its pinned part, and (c) report a cut that matches a
/// from-scratch recount. Run after `repair_to_feasible` on any solution
/// the driver is about to emit.
pub fn audit_repair(
    h: &Hypergraph,
    p: &Partition,
    lo: &[u64],
    hi: &[u64],
    fixed: &[(mlpart_hypergraph::ModuleId, mlpart_hypergraph::PartId)],
    claimed_cut: u64,
) -> AuditResult {
    const ST: &str = "Repair";
    audit_fixed_assignment(p, fixed)?;
    audit_part_bounds(p, lo, hi)?;
    let actual = metrics::cut(h, p);
    if actual != claimed_cut {
        return Err(AuditError::new(
            ST,
            "cut-recount",
            format!("repair claims cut {claimed_cut}, recount says {actual}"),
        ));
    }
    Ok(())
}

/// Multi-start scatter legality for `mlpart-exec`: `claims[i]` counts how
/// many workers claimed start `i`; the work-stealing contract is exactly
/// once each.
pub fn audit_start_claims(claims: &[u32]) -> AuditResult {
    const ST: &str = "ExecScatter";
    for (i, &c) in claims.iter().enumerate() {
        if c != 1 {
            return Err(AuditError::new(
                ST,
                "claimed-once",
                format!("start {i} claimed {c} times; every start must be claimed exactly once"),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::HypergraphBuilder;

    fn sample() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(6);
        b.add_net([0usize, 1]).unwrap();
        b.add_net([1usize, 2, 3]).unwrap();
        b.add_net([3usize, 4, 5]).unwrap();
        b.add_net([0usize, 5]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn real_hypergraph_passes() {
        let h = sample();
        assert_eq!(h.audit(), Ok(()));
        assert_eq!(audit_hypergraph(&RawIncidence::from_hypergraph(&h)), Ok(()));
    }

    #[test]
    fn fixed_assignment_checker_accepts_and_rejects() {
        use mlpart_hypergraph::ModuleId;
        let h = sample();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let pins = vec![(ModuleId::new(0), 0), (ModuleId::new(4), 1)];
        assert_eq!(audit_fixed_assignment(&p, &pins), Ok(()));
        let bad = vec![(ModuleId::new(0), 1)];
        let e = audit_fixed_assignment(&p, &bad).unwrap_err();
        assert_eq!(e.check, "fixed-immovable");
        assert_eq!(e.module, Some(0));
        let oob = vec![(ModuleId::new(99), 0)];
        assert_eq!(
            audit_fixed_assignment(&p, &oob).unwrap_err().check,
            "fixed-range"
        );
        let bad_part = vec![(ModuleId::new(0), 7)];
        assert_eq!(
            audit_fixed_assignment(&p, &bad_part).unwrap_err().check,
            "fixed-range"
        );
    }

    #[test]
    fn part_bounds_checker_accepts_and_rejects() {
        let h = sample();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        assert_eq!(audit_part_bounds(&p, &[2, 2], &[4, 4]), Ok(()));
        let e = audit_part_bounds(&p, &[4, 2], &[6, 4]).unwrap_err();
        assert_eq!(e.check, "part-bounds");
        assert!(e.detail.contains("part 0"), "{e}");
        assert_eq!(
            audit_part_bounds(&p, &[0], &[9]).unwrap_err().check,
            "bounds-shape"
        );
    }

    #[test]
    fn repair_checker_accepts_and_rejects() {
        use mlpart_hypergraph::ModuleId;
        let h = sample();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let good_cut = metrics::cut(&h, &p);
        let pins = vec![(ModuleId::new(0), 0)];
        assert_eq!(
            audit_repair(&h, &p, &[2, 2], &[4, 4], &pins, good_cut),
            Ok(())
        );
        // A lying cut claim is caught by the recount.
        let e = audit_repair(&h, &p, &[2, 2], &[4, 4], &pins, good_cut + 1).unwrap_err();
        assert_eq!(e.check, "cut-recount");
        // Out-of-window parts and violated pins fail through the shared
        // checkers.
        assert_eq!(
            audit_repair(&h, &p, &[4, 2], &[6, 4], &pins, good_cut)
                .unwrap_err()
                .check,
            "part-bounds"
        );
        let bad_pin = vec![(ModuleId::new(0), 1)];
        assert_eq!(
            audit_repair(&h, &p, &[2, 2], &[4, 4], &bad_pin, good_cut)
                .unwrap_err()
                .check,
            "fixed-immovable"
        );
    }

    #[test]
    fn accepts_unsorted_pin_order() {
        // The builder keeps pin insertion order, so reversed pins are legal
        // as long as both mirror directions agree.
        let mut raw = RawIncidence::from_hypergraph(&sample());
        raw.net_pins[1].reverse();
        assert_eq!(audit_hypergraph(&raw), Ok(()));
    }

    #[test]
    fn detects_duplicate_pin() {
        let mut raw = RawIncidence::from_hypergraph(&sample());
        raw.net_pins[1][1] = raw.net_pins[1][0];
        let err = audit_hypergraph(&raw).unwrap_err();
        assert_eq!(err.check, "pins-dedup");
        assert_eq!(err.net, Some(1));
    }

    #[test]
    fn detects_one_sided_edge() {
        let mut raw = RawIncidence::from_hypergraph(&sample());
        // Net 1 keeps its pin on module 2, but module 2 forgets net 1.
        raw.mod_nets[2].retain(|&e| e != 1);
        let err = audit_hypergraph(&raw).unwrap_err();
        assert_eq!(err.check, "mirror-module");
        assert_eq!((err.net, err.module), (Some(1), Some(2)));
    }

    #[test]
    fn detects_phantom_incidence() {
        let mut raw = RawIncidence::from_hypergraph(&sample());
        // Module 0 claims membership in net 1, which does not list it.
        raw.mod_nets[0] = vec![0, 1, 3];
        let err = audit_hypergraph(&raw).unwrap_err();
        assert_eq!(err.check, "mirror-net");
        assert_eq!((err.module, err.net), (Some(0), Some(1)));
    }

    #[test]
    fn detects_stale_total_area() {
        let mut raw = RawIncidence::from_hypergraph(&sample());
        raw.total_area += 7;
        assert_eq!(audit_hypergraph(&raw).unwrap_err().check, "total-area");
    }

    #[test]
    fn detects_stale_max_area() {
        let mut raw = RawIncidence::from_hypergraph(&sample());
        raw.areas[3] = 5; // real max changes, cache keeps claiming 1
        raw.total_area += 4;
        assert_eq!(audit_hypergraph(&raw).unwrap_err().check, "max-area");
    }

    #[test]
    fn detects_undersized_net() {
        let mut raw = RawIncidence::from_hypergraph(&sample());
        raw.net_pins[0].pop();
        assert_eq!(audit_hypergraph(&raw).unwrap_err().check, "net-size");
    }

    #[test]
    fn detects_zero_weight() {
        let mut raw = RawIncidence::from_hypergraph(&sample());
        raw.net_weights[2] = 0;
        assert_eq!(audit_hypergraph(&raw).unwrap_err().check, "net-weight");
    }

    #[test]
    fn partition_consistent_passes() {
        let h = sample();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        assert_eq!(audit_partition(&h, &p), Ok(()));
    }

    #[test]
    fn partition_balance_counter_mismatch_fires() {
        let h = sample();
        // Build the partition against a different-area hypergraph: its
        // cached part areas no longer match a recount against `h`.
        let mut b = HypergraphBuilder::new(vec![3u64; 6]);
        b.add_net([0usize, 1]).unwrap();
        b.add_net([4usize, 5]).unwrap();
        let other = b.build().unwrap();
        let p = Partition::from_assignment(&other, 2, vec![0, 0, 0, 1, 1, 1]).unwrap();
        let err = audit_partition(&h, &p).unwrap_err();
        assert_eq!(err.check, "balance-counter");
    }

    #[test]
    fn cluster_map_total_and_surjective() {
        assert_eq!(audit_cluster_map(&[0, 1, 1, 0], 2), Ok(()));
        let err = audit_cluster_map(&[0, 3, 1, 0], 2).unwrap_err();
        assert_eq!(err.check, "total");
        assert_eq!(err.module, Some(1));
        let err = audit_cluster_map(&[0, 0, 2, 0], 3).unwrap_err();
        assert_eq!(err.check, "surjective");
    }

    #[test]
    fn projection_pullback_violation_fires() {
        let fine = sample();
        let mut b = HypergraphBuilder::new(vec![2u64, 2, 2]);
        b.add_net([0usize, 1]).unwrap();
        b.add_net([0usize, 2]).unwrap();
        b.add_net([1usize, 2]).unwrap();
        let coarse = b.build().unwrap();
        let map = [0u32, 0, 1, 1, 2, 2];
        let coarse_p = Partition::from_assignment(&coarse, 2, vec![0, 1, 1]).unwrap();
        let good = Partition::from_assignment(&fine, 2, vec![0, 0, 1, 1, 1, 1]).unwrap();
        assert_eq!(
            audit_projection(&fine, &good, &coarse, &coarse_p, &map),
            Ok(())
        );

        let bad = Partition::from_assignment(&fine, 2, vec![0, 1, 1, 1, 1, 1]).unwrap();
        let err = audit_projection(&fine, &bad, &coarse, &coarse_p, &map).unwrap_err();
        assert_eq!(err.check, "pullback");
        assert_eq!(err.module, Some(1));
    }

    #[test]
    fn projection_cut_violation_fires() {
        // Fine: one 2-pin net crossing the cut. "Coarse": same two modules
        // but no nets at all — pullback holds vacuously, cut differs.
        let mut b = HypergraphBuilder::with_unit_areas(2);
        b.add_net([0usize, 1]).unwrap();
        let fine = b.build().unwrap();
        let coarse = HypergraphBuilder::with_unit_areas(2).build().unwrap();
        let map = [0u32, 1];
        let fine_p = Partition::from_assignment(&fine, 2, vec![0, 1]).unwrap();
        let coarse_p = Partition::from_assignment(&coarse, 2, vec![0, 1]).unwrap();
        let err = audit_projection(&fine, &fine_p, &coarse, &coarse_p, &map).unwrap_err();
        assert_eq!(err.check, "cut-preserved");
    }

    #[test]
    fn start_claims_exactly_once() {
        assert_eq!(audit_start_claims(&[1, 1, 1]), Ok(()));
        assert_eq!(
            audit_start_claims(&[1, 0, 1]).unwrap_err().check,
            "claimed-once"
        );
        assert_eq!(
            audit_start_claims(&[1, 2, 1]).unwrap_err().check,
            "claimed-once"
        );
    }

    #[test]
    fn counter_check_and_enforce() {
        assert_eq!(check_counter("RefineState", "cut-rollback", 4, 4), Ok(()));
        let err = check_counter("RefineState", "cut-rollback", 4, 5).unwrap_err();
        let msg = format!("{}", err.with_level(2).with_pass(1));
        assert!(msg.contains("RefineState::cut-rollback"), "{msg}");
        assert!(msg.contains("level=2"), "{msg}");
        assert!(msg.contains("pass=1"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "MLPART_AUDIT failure")]
    fn enforce_panics_with_report() {
        enforce(Err(AuditError::new("X", "y", "boom".into())));
    }
}
