//! Deterministic greedy balance repair: the last line of defense between a
//! constraint-violating solution and the user.
//!
//! Retry exhaustion and budget truncation can leave a start holding a
//! partition whose part areas sit outside the `[lo, hi]` balance window —
//! e.g. a refinement pass interrupted mid-rebalance, or an injected
//! `unbalance` fault. Rather than emit an infeasible artifact, the driver
//! funnels such solutions through [`repair_to_feasible`]: a greedy pass
//! that empties overfull parts (then fills underfull ones) with the
//! highest-cut-gain legal move at every step, never touching fixed
//! terminals.
//!
//! # Determinism
//!
//! The pass is a pure function of `(hypergraph, partition, bounds, fixed)`:
//! candidates are scanned in module-id order, ties on gain break to the
//! lowest module id and then the lowest destination part, and no RNG is
//! involved. Two runs that reach repair with the same solution therefore
//! leave with the same solution — at every thread count, which is what lets
//! the repaired partition participate in the bit-identical survivor
//! reduction.
//!
//! # Termination
//!
//! Every phase-1 move shifts a module with positive area out of an overfull
//! part into a part that stays within its upper bound, so total overflow
//! `Σ max(0, area_p − hi_p)` strictly decreases; every phase-2 move shifts
//! positive area into an underfull part from a donor that stays at or above
//! its lower bound, so total underflow strictly decreases. Both quantities
//! are non-negative integers, so the loops terminate; a defensive move cap
//! guards the invariant against future edits.

use mlpart_hypergraph::metrics::{cut, net_span};
use mlpart_hypergraph::{audit, Hypergraph, ModuleId, PartBounds, Partition};

/// What one repair pass did to one start's solution, as recorded in the
/// run report's `repairs` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairRecord {
    /// Modules moved across the two phases.
    pub moves: u64,
    /// Cut weight entering repair.
    pub cut_before: u64,
    /// Cut weight leaving repair.
    pub cut_after: u64,
    /// Whether the solution satisfies its balance window on exit. `false`
    /// means repair ran out of legal moves (e.g. everything is fixed) and
    /// the driver must not emit this solution.
    pub feasible: bool,
}

/// Cut delta of moving `v` from its part to `to`, as a gain (positive =
/// the cut shrinks). Standard FM-style incidence scan: a net leaves the
/// cut when `v` was its last pin outside `to`, and enters it when `v` is
/// the first pin to leave a previously-uncut net.
fn move_gain(h: &Hypergraph, p: &Partition, v: ModuleId, to: u32) -> i64 {
    let from = p.part(v);
    let mut gain = 0i64;
    for &e in h.nets(v) {
        let w = i64::from(h.net_weight(e));
        let span = net_span(h, p, e);
        let pins = h.pins(e);
        let in_from = pins.iter().filter(|&&u| p.part(u) == from).count();
        let in_to = pins.iter().filter(|&&u| p.part(u) == to).count();
        let was_cut = span > 1;
        let new_span = span - u32::from(in_from == 1) + u32::from(in_to == 0);
        let now_cut = new_span > 1;
        gain += w * (i64::from(was_cut) - i64::from(now_cut));
    }
    gain
}

/// The best legal move under a candidate filter: maximal cut gain, ties to
/// the lowest module id, then the lowest destination part.
fn best_move<F>(h: &Hypergraph, p: &Partition, fixed: &[bool], legal: F) -> Option<(ModuleId, u32)>
where
    F: Fn(ModuleId, u32, u32) -> bool,
{
    let k = p.k();
    let mut best: Option<(i64, ModuleId, u32)> = None;
    for v in h.modules() {
        if fixed.get(v.index()).copied().unwrap_or(false) || h.area(v) == 0 {
            continue;
        }
        let from = p.part(v);
        for to in 0..k {
            if to == from || !legal(v, from, to) {
                continue;
            }
            let gain = move_gain(h, p, v, to);
            // Strict `>` keeps the earliest (module, part) on gain ties:
            // modules scan in id order and parts in part order.
            if best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, v, to));
            }
        }
    }
    best.map(|(_, v, to)| (v, to))
}

/// Greedily repairs `p` toward the `[lo, hi]` balance window of `bounds`,
/// never moving a module whose `fixed` mask entry is `true` (pass an empty
/// slice when nothing is fixed). Returns a [`RepairRecord`] describing the
/// pass; when the record's `feasible` flag is `false` the partition could
/// not be brought inside the window and must not be emitted.
///
/// Already-feasible partitions return immediately with `moves == 0`.
pub fn repair_to_feasible(
    h: &Hypergraph,
    p: &mut Partition,
    bounds: &PartBounds,
    fixed: &[bool],
) -> RepairRecord {
    let cut_before = cut(h, p);
    // The masked modules' entry parts, which a repaired solution must keep.
    #[cfg(feature = "audit")]
    let pinned: Vec<_> = h
        .modules()
        .filter(|v| fixed.get(v.index()).copied().unwrap_or(false))
        .map(|v| (v, p.part(v)))
        .collect();
    let mut moves = 0u64;
    // Defensive cap: termination is proven by the monotone overflow /
    // underflow argument in the module docs, but a future edit to the
    // legality filters must degrade to `feasible: false`, not a hang.
    let cap = 4 * h.num_modules() as u64 + 64;

    // Phase 1: drain overfull parts.
    while moves < cap {
        let Some(over) = (0..p.k()).find(|&q| p.part_area(q) > bounds.hi(q)) else {
            break;
        };
        let mv = best_move(h, p, fixed, |v, from, to| {
            from == over && p.part_area(to) + h.area(v) <= bounds.hi(to)
        });
        let Some((v, to)) = mv else { break };
        p.move_module(h, v, to);
        moves += 1;
    }

    // Phase 2: fill underfull parts from donors that stay above `lo`.
    while moves < cap {
        let Some(under) = (0..p.k()).find(|&q| p.part_area(q) < bounds.lo(q)) else {
            break;
        };
        let mv = best_move(h, p, fixed, |v, from, to| {
            to == under
                && p.part_area(from) >= bounds.lo(from) + h.area(v)
                && p.part_area(to) + h.area(v) <= bounds.hi(to)
        });
        let Some((v, to)) = mv else { break };
        p.move_module(h, v, to);
        moves += 1;
    }

    let record = RepairRecord {
        moves,
        cut_before,
        cut_after: cut(h, p),
        feasible: bounds.is_partition_feasible(p),
    };
    audit!(if record.feasible {
        let (lo, hi): (Vec<u64>, Vec<u64>) =
            (0..p.k()).map(|q| (bounds.lo(q), bounds.hi(q))).unzip();
        mlpart_audit::audit_repair(h, p, &lo, &hi, &pinned, record.cut_after)
    } else {
        Ok(())
    });
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n - 1 {
            b.add_net([i, i + 1]).expect("valid net");
        }
        b.build().expect("valid hypergraph")
    }

    fn all_in_part(h: &Hypergraph, k: u32, part: u32) -> Partition {
        Partition::from_assignment(h, k, vec![part; h.num_modules()]).expect("valid")
    }

    #[test]
    fn already_feasible_is_a_no_op() {
        let h = chain(8);
        let mut p = Partition::from_assignment(&h, 2, vec![0, 0, 0, 0, 1, 1, 1, 1]).unwrap();
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        let before = p.assignment().to_vec();
        let r = repair_to_feasible(&h, &mut p, &bounds, &[]);
        assert!(r.feasible);
        assert_eq!(r.moves, 0);
        assert_eq!(r.cut_before, r.cut_after);
        assert_eq!(p.assignment(), &before[..]);
    }

    #[test]
    fn drains_an_overfull_part_to_feasibility() {
        let h = chain(10);
        let mut p = all_in_part(&h, 2, 0);
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        let r = repair_to_feasible(&h, &mut p, &bounds, &[]);
        assert!(r.feasible, "{r:?}");
        assert!(r.moves > 0);
        assert!(bounds.is_partition_feasible(&p));
        // A chain repaired greedily should cut few nets: the moved block
        // is contiguous from one end (highest-gain moves peel endpoints).
        assert_eq!(r.cut_after, cut(&h, &p));
    }

    #[test]
    fn repair_is_deterministic() {
        let h = chain(16);
        let bounds = PartBounds::from_epsilon(&h, 2, 0.1);
        let run = || {
            let mut p = all_in_part(&h, 2, 0);
            let r = repair_to_feasible(&h, &mut p, &bounds, &[]);
            (p.assignment().to_vec(), r)
        };
        let (a1, r1) = run();
        let (a2, r2) = run();
        assert_eq!(a1, a2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn fixed_terminals_never_move() {
        let h = chain(10);
        let mut p = all_in_part(&h, 2, 0);
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        // Pin the first three modules to part 0.
        let mut fixed = vec![false; 10];
        for f in fixed.iter_mut().take(3) {
            *f = true;
        }
        let r = repair_to_feasible(&h, &mut p, &bounds, &fixed);
        assert!(r.feasible, "{r:?}");
        for v in 0..3 {
            assert_eq!(p.part(ModuleId::new(v)), 0, "fixed module {v} moved");
        }
    }

    /// With audits forced on, a repair that reaches its window is audited:
    /// pins on their entry parts, every part in bounds, the cut recounted.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_hooks_fire_on_healthy_repair() {
        mlpart_audit::force_enabled(true);
        let h = chain(12);
        let bounds = PartBounds::from_epsilon(&h, 4, 0.3);
        let mut p = all_in_part(&h, 4, 2);
        // Module 0 is the greedy's first pick when free: an end of the
        // chain, lowest id among the zero-gain moves.
        let mut fixed = vec![false; 12];
        fixed[0] = true;
        let r = repair_to_feasible(&h, &mut p, &bounds, &fixed);
        mlpart_audit::force_enabled(false);
        assert!(r.feasible, "{r:?}");
        assert!(r.moves > 0);
    }

    #[test]
    fn impossible_repair_reports_infeasible_without_hanging() {
        let h = chain(6);
        let mut p = all_in_part(&h, 2, 0);
        let bounds = PartBounds::from_epsilon(&h, 2, 0.2);
        // Everything fixed: no legal move exists.
        let fixed = vec![true; 6];
        let r = repair_to_feasible(&h, &mut p, &bounds, &fixed);
        assert!(!r.feasible);
        assert_eq!(r.moves, 0);
        assert!(p.assignment().iter().all(|&q| q == 0), "nothing moved");
    }

    #[test]
    fn kway_overflow_repairs_across_parts() {
        let h = chain(12);
        let bounds = PartBounds::from_epsilon(&h, 4, 0.3);
        let mut p = all_in_part(&h, 4, 2);
        let r = repair_to_feasible(&h, &mut p, &bounds, &[]);
        assert!(r.feasible, "{r:?}");
        assert!(bounds.is_partition_feasible(&p));
    }

    #[test]
    fn cut_accounting_matches_metrics() {
        // Randomized-but-seeded start far from feasible; the record's cut
        // fields must agree with `metrics::cut` before and after.
        let h = chain(14);
        let bounds = PartBounds::from_epsilon(&h, 2, 0.15);
        let mut rng = seeded_rng(7);
        let mut p = Partition::random(&h, 2, &mut rng);
        // Overload part 0 on purpose.
        for v in h.modules() {
            if p.part(v) == 1 && p.part_area(0) < h.total_area() - 2 {
                p.move_module(&h, v, 0);
            }
        }
        let before = cut(&h, &p);
        let r = repair_to_feasible(&h, &mut p, &bounds, &[]);
        assert_eq!(r.cut_before, before);
        assert_eq!(r.cut_after, cut(&h, &p));
        assert!(r.feasible);
    }
}
