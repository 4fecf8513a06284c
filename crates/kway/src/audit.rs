//! Phase-boundary invariant checkers for the Sanchis k-way engine state.
//!
//! Only compiled under the `audit` feature. The k-way engine keeps
//! k-strided pin counts and one gain bucket per destination part; these
//! checkers re-derive every stored quantity from scratch — pin rows from
//! the partition alone, Sanchis gains from the recomputed rows, the
//! objective by a full sweep — and compare against the engine's
//! incremental bookkeeping. They also check the source-class filing that
//! lets selection skip parts at their lower bound.

use crate::{KwayConfig, KwayGain};
use mlpart_audit::{audit_partition, AuditError, AuditResult};
use mlpart_fm::{BucketPolicy, GainBuckets, OpenClasses, RefineState};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{Hypergraph, ModuleId, NetId, PartBounds, PartId, Partition};

const ST: &str = "KwayState";

fn err(check: &'static str, detail: String) -> AuditError {
    AuditError::new(ST, check, detail)
}

/// Pin counts of net `e` per part, recomputed from the partition alone.
fn recount_row(h: &Hypergraph, p: &Partition, e: NetId, k: usize) -> Vec<u32> {
    let mut row = vec![0u32; k];
    for &v in h.pins(e) {
        row[p.part(v) as usize] += 1;
    }
    row
}

/// Sanchis gain of moving `v` to `to`, re-derived from scratch: the pin
/// rows come from [`recount_row`], not from the engine's `pins_in`.
fn rederive_gain(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &KwayConfig,
    v: ModuleId,
    to: PartId,
) -> i32 {
    let k = st.k as usize;
    let from = p.part(v) as usize;
    let mut g = 0i32;
    for &e in h.nets(v) {
        if !st.visible[e.index()] {
            continue;
        }
        let row = recount_row(h, p, e, k);
        let w = h.net_weight(e) as i32;
        match cfg.gain {
            KwayGain::SumOfDegrees => {
                if row[from] == 1 {
                    g += w;
                }
                if row[to as usize] == 0 {
                    g -= w;
                }
            }
            KwayGain::NetCut => {
                let size = h.net_size(e) as u32;
                if row[to as usize] == size - 1 {
                    g += w;
                }
                if row[from] == size {
                    g -= w;
                }
            }
        }
    }
    g
}

/// Shape and pin-count audit shared by both phase boundaries.
fn audit_counts(st: &RefineState, h: &Hypergraph, p: &Partition, cfg: &KwayConfig) -> AuditResult {
    let k = p.k() as usize;
    if st.k as usize != k {
        return Err(err(
            "bound-k",
            format!("state bound with k={}, partition has k={k}", st.k),
        ));
    }
    if st.visible.len() != h.num_nets() || st.pins_in.len() != k * h.num_nets() {
        return Err(err(
            "bound-shape",
            format!(
                "visible/pins_in sized {}/{} for {} nets at k={k}",
                st.visible.len(),
                st.pins_in.len(),
                h.num_nets()
            ),
        ));
    }
    for e in h.net_ids() {
        let want_visible = h.net_size(e) <= cfg.max_net_size;
        if st.visible[e.index()] != want_visible {
            return Err(err(
                "visibility",
                format!(
                    "net of size {} marked {}, max_net_size={}",
                    h.net_size(e),
                    st.visible[e.index()],
                    cfg.max_net_size
                ),
            )
            .with_net(e.index()));
        }
        if !want_visible {
            continue;
        }
        let row = recount_row(h, p, e, k);
        let stored = &st.pins_in[e.index() * k..(e.index() + 1) * k];
        if stored != row.as_slice() {
            return Err(err(
                "pins-recount",
                format!("stored pin row {stored:?} != recomputed {row:?}"),
            )
            .with_net(e.index()));
        }
    }
    Ok(())
}

/// Pass-start audit, run right after the per-destination buckets are
/// filled: partition balance counters, k-strided pin rows, and — for every
/// movable module and every foreign destination — the bucketed Sanchis
/// gain against its from-scratch re-derivation. Fixed and locked modules
/// must be absent from every bucket; a module must never be bucketed
/// toward its own part.
pub fn audit_pass_start(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &KwayConfig,
    start_obj: u64,
) -> AuditResult {
    audit_partition(h, p)?;
    audit_counts(st, h, p, cfg)?;
    let recomputed = crate::kway_objective(st, h, cfg, p);
    if recomputed != start_obj {
        return Err(err(
            "objective-recount",
            format!("engine starts the pass at objective {start_obj}, recount gives {recomputed}"),
        ));
    }
    audit_bucket_keys(st, h, p, cfg, "gain-rederive")
}

/// Gain-drift audit, run after the move loop and before rollback: the pin
/// rows and the running objective must match a recount of the moved
/// partition, and every module still in a bucket must hold, toward every
/// foreign destination, the key `rederive_gain` gives. The pass-start audit
/// only sees the keys as the fill wrote them; this one sees them after the
/// incremental updates of a whole pass.
pub fn audit_pass_drift(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &KwayConfig,
    obj: i64,
) -> AuditResult {
    audit_partition(h, p)?;
    audit_counts(st, h, p, cfg)?;
    let recomputed = crate::kway_objective(st, h, cfg, p) as i64;
    if recomputed != obj {
        return Err(err(
            "objective-drift",
            format!("engine ends the move loop at objective {obj}, recount gives {recomputed}"),
        ));
    }
    audit_bucket_keys(st, h, p, cfg, "gain-drift")
}

/// Bucket membership and keys: a free module sits in the bucket of every
/// foreign destination under the key `rederive_gain` gives (else the check
/// `gain_check` fails); a fixed or locked module, or a module toward its
/// own part, sits in none. Then the class filing: see
/// [`audit_class_filing`].
fn audit_bucket_keys(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &KwayConfig,
    gain_check: &'static str,
) -> AuditResult {
    let k = p.k();
    for v in h.modules() {
        let movable = !st.fixed[v.index()] && !st.locked[v.index()];
        for t in 0..k {
            let in_bucket = st.buckets[t as usize].contains(v);
            if t == p.part(v) {
                if in_bucket {
                    return Err(err(
                        "self-destination",
                        format!("bucketed toward its own part {t}"),
                    )
                    .with_module(v.index()));
                }
                continue;
            }
            if !movable {
                if in_bucket {
                    let why = if st.fixed[v.index()] {
                        "fixed"
                    } else {
                        "locked"
                    };
                    return Err(err(
                        "free-locked",
                        format!("{why} module selectable toward part {t}"),
                    )
                    .with_module(v.index()));
                }
                continue;
            }
            if !in_bucket {
                return Err(err(
                    "free-locked",
                    format!("movable module missing from destination-{t} bucket"),
                )
                .with_module(v.index()));
            }
            let key = st.buckets[t as usize].key_of(v);
            let want = rederive_gain(st, h, p, cfg, v, t);
            if key != want {
                return Err(err(
                    gain_check,
                    format!(
                        "bucketed toward part {t} under gain {key}, re-derivation gives {want}"
                    ),
                )
                .with_module(v.index()));
            }
        }
    }
    audit_class_filing(st, p)
}

/// Class filing of every list (LIFO and FIFO; Random keeps none): a member
/// of class `c`'s list sits on part `c` (`class-filing`), and each list is
/// in strict stamp order, newest first under LIFO and oldest first under
/// FIFO (`class-order`). Selection merges a bucket's open lists by stamp
/// and skips a closed class wholesale, so either fault would change which
/// module it picks.
fn audit_class_filing(st: &RefineState, p: &Partition) -> AuditResult {
    let k = p.k() as usize;
    let stamp = |v: ModuleId| st.stamp.get(v.index()).copied();
    for (t, bucket) in st.buckets.iter().enumerate() {
        let newest_first = match bucket.policy() {
            BucketPolicy::Lifo => true,
            BucketPolicy::Fifo => false,
            BucketPolicy::Random => continue,
        };
        for class in 0..k {
            // With one class open, a bucket's members are that list's.
            let only: Vec<bool> = (0..k).map(|c| c == class).collect();
            let list = OpenClasses::new(&only, &st.stamp);
            for key in -st.key_bound..=st.key_bound {
                let members = bucket.bucket_members(key, list);
                for &v in &members {
                    if p.part(v) as usize != class {
                        return Err(err(
                            "class-filing",
                            format!(
                                "on part {} but filed under class {class} toward part {t}",
                                p.part(v)
                            ),
                        )
                        .with_module(v.index()));
                    }
                }
                for pair in members.windows(2) {
                    let &[u, v] = pair else { continue };
                    let (a, b) = (stamp(u), stamp(v));
                    let ordered = if newest_first { a > b } else { a < b };
                    if !ordered || b.is_none() {
                        return Err(err(
                            "class-order",
                            format!(
                                "class {class} list at key {key} toward part {t} holds stamp \
                                 {a:?} before {b:?}"
                            ),
                        )
                        .with_module(v.index()));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Pick audit of destination pruning, run after each LIFO or FIFO
/// selection: probing every destination the area gate admits over all its
/// keys, none pruned, must give the engine's `picked` `(key, destination,
/// module)`, ties to the lower destination. These policies draw nothing
/// from their RNG, and a throwaway one keeps the engine's stream untouched
/// regardless. Random selection is not pruned and not checked here.
pub fn audit_destination_pruning(
    buckets: &mut [GainBuckets],
    h: &Hypergraph,
    p: &Partition,
    bounds: &PartBounds,
    min_area: u64,
    open: OpenClasses<'_>,
    picked: Option<(i32, PartId, ModuleId)>,
) -> AuditResult {
    if buckets.first().map(GainBuckets::policy) == Some(BucketPolicy::Random) {
        return Ok(());
    }
    let admitted = buckets
        .iter_mut()
        .zip(0..p.k())
        .filter(|&(_, t)| p.part_area(t) + min_area <= bounds.hi(t));
    let mut unpruned: Option<(i32, PartId, ModuleId)> = None;
    for (bucket, t) in admitted {
        let cand = bucket.select_where(&mut seeded_rng(0), open, |v| {
            let (a, from) = (h.area(v), p.part(v));
            p.part_area(t) + a <= bounds.hi(t) && p.part_area(from) - a >= bounds.lo(from)
        });
        if let Some(v) = cand {
            let key = bucket.key_of(v);
            if unpruned.is_none_or(|(best, _, _)| key > best) {
                unpruned = Some((key, t, v));
            }
        }
    }
    if unpruned != picked {
        return Err(err(
            "destination-prune",
            format!("pruned probes picked {picked:?}, probing every destination {unpruned:?}"),
        ));
    }
    Ok(())
}

/// Pass-end audit, run after rollback to the best prefix: partition
/// balance counters and the engine's claimed best objective against a full
/// from-scratch sweep.
pub fn audit_pass_end(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &KwayConfig,
    best_obj: i64,
) -> AuditResult {
    audit_partition(h, p)?;
    let recomputed = crate::kway_objective(st, h, cfg, p) as i64;
    if recomputed != best_obj {
        return Err(err(
            "objective-rollback",
            format!(
                "pass reports best objective {best_obj}, rolled-back partition scores {recomputed}"
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kway_refine;
    use mlpart_fm::{Filing, RefineRequest};
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn path4() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0usize, 1]).unwrap();
        b.add_net([1usize, 2]).unwrap();
        b.add_net([2usize, 3]).unwrap();
        b.build().unwrap()
    }

    /// Hand-builds the exact post-fill k=2 state of `h` split as `p`,
    /// filing each module under its part and stamping it in id order.
    fn filled_state(h: &Hypergraph, p: &Partition, cfg: &KwayConfig) -> RefineState {
        let mut st = RefineState::default();
        st.bind_nets(h, 2, cfg.max_net_size).unwrap();
        st.bind_modules(h, 2, 2, Filing::Merged, 4, BucketPolicy::Lifo);
        for e in h.net_ids() {
            let row = recount_row(h, p, e, 2);
            st.pins_in[2 * e.index()..][..2].copy_from_slice(&row);
        }
        for v in h.modules() {
            st.stamp[v.index()] = v.raw();
            for t in 0..2u32 {
                if t != p.part(v) {
                    let g = rederive_gain(&st, h, p, cfg, v, t);
                    st.buckets[t as usize].insert(v, p.part(v) as usize, g);
                }
            }
        }
        st
    }

    #[test]
    fn healthy_pass_start_state_passes() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let st = filled_state(&h, &p, &cfg);
        // Objective: sum-of-degrees over the path = 1 (one crossing net).
        assert_eq!(audit_pass_start(&st, &h, &p, &cfg, 1), Ok(()));
    }

    #[test]
    fn detects_stale_pin_row() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let mut st = filled_state(&h, &p, &cfg);
        st.pins_in[3] += 1;
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "pins-recount");
        assert_eq!(e.net, Some(1));
    }

    #[test]
    fn detects_corrupted_sanchis_gain() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let mut st = filled_state(&h, &p, &cfg);
        st.buckets[1].update_key(ModuleId::from(0), 3);
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "gain-rederive");
        assert_eq!(e.module, Some(0));
    }

    #[test]
    fn detects_gain_drift_before_rollback() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let mut st = filled_state(&h, &p, &cfg);
        assert_eq!(audit_pass_drift(&st, &h, &p, &cfg, 1), Ok(()));
        st.buckets[0].update_key(ModuleId::from(2), -1);
        let e = audit_pass_drift(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "gain-drift");
        assert_eq!(e.module, Some(2));
    }

    #[test]
    fn detects_module_filed_under_wrong_part() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let mut st = filled_state(&h, &p, &cfg);
        // Module 0 sits on part 0, but is refiled under class 1 toward
        // part 1 with its key unchanged.
        let v = ModuleId::from(0);
        let key = st.buckets[1].key_of(v);
        st.buckets[1].remove(v);
        st.buckets[1].insert(v, 1, key);
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "class-filing");
        assert_eq!(e.module, Some(0));
    }

    #[test]
    fn detects_class_list_out_of_stamp_order() {
        // No nets: every gain is 0, so modules 0 and 1 share one class-0
        // list toward part 1, module 1 (stamp 1) ahead of module 0.
        let h = HypergraphBuilder::with_unit_areas(4).build().unwrap();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let mut st = filled_state(&h, &p, &cfg);
        assert_eq!(audit_pass_start(&st, &h, &p, &cfg, 0), Ok(()));
        st.stamp[1] = 0;
        let e = audit_pass_start(&st, &h, &p, &cfg, 0).unwrap_err();
        assert_eq!(e.check, "class-order");
        assert_eq!(e.module, Some(0));
    }

    #[test]
    fn detects_fixed_module_in_bucket() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let mut st = filled_state(&h, &p, &cfg);
        st.fixed[1] = true; // still sits in destination-1's bucket
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "free-locked");
        assert_eq!(e.module, Some(1));
    }

    #[test]
    fn detects_wrong_objective() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let st = filled_state(&h, &p, &cfg);
        let e = audit_pass_start(&st, &h, &p, &cfg, 7).unwrap_err();
        assert_eq!(e.check, "objective-recount");
        let e = audit_pass_end(&st, &h, &p, &cfg, 7).unwrap_err();
        assert_eq!(e.check, "objective-rollback");
        let e = audit_pass_drift(&st, &h, &p, &cfg, 7).unwrap_err();
        assert_eq!(e.check, "objective-drift");
    }

    #[test]
    fn detects_a_pruned_better_destination() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = KwayConfig::default();
        let mut st = filled_state(&h, &p, &cfg);
        let bounds = PartBounds::uniform(2, 0, 4);
        let open = [true, true];
        let classes = OpenClasses::new(&open, &st.stamp);
        // Modules 1 and 2 both gain 0, toward parts 1 and 0: the tie goes
        // to the lower destination.
        let best = Some((0, 0, ModuleId::from(2)));
        let audit = |buckets: &mut [GainBuckets], picked| {
            audit_destination_pruning(buckets, &h, &p, &bounds, 1, classes, picked)
        };
        assert_eq!(audit(&mut st.buckets, best), Ok(()));
        let e = audit(&mut st.buckets, Some((0, 1, ModuleId::from(1)))).unwrap_err();
        assert_eq!(e.check, "destination-prune");
    }

    #[test]
    fn engine_hooks_fire_when_forced_on() {
        mlpart_audit::force_enabled(true);
        let h = path4();
        let mut p = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1]).unwrap();
        let cfg = KwayConfig::default();
        let req = RefineRequest::default();
        let r = kway_refine(&h, &mut p, &cfg, &mut seeded_rng(5), req).unwrap();
        mlpart_audit::force_enabled(false);
        assert!(r.passes >= 1);
    }
}
