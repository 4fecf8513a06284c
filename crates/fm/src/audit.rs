//! Phase-boundary invariant checkers for the 2-way engine state.
//!
//! Only compiled under the `audit` feature. These recompute the FM
//! engine's incremental structures from scratch — per-net pin counts,
//! per-module gains, bucket keys, the free/locked split, and the running
//! cut — and compare them against what the engine maintains. The engine
//! invokes them at the start and end of every pass when
//! [`mlpart_audit::enabled`] is on.
//!
//! Gains of *locked* modules are deliberately stale mid-pass (the FM
//! update rules skip them), so the deep gain/bucket audit runs at pass
//! start, when every module's gain has just been (re)initialized; the pass
//! end audit verifies the rolled-back partition and its cut. Between them,
//! every pick made with a side closed is re-run without the side gate, and
//! after every move the moved module's nets and their free pins
//! are re-derived: the state the move's gain updates wrote.

use crate::bucket::{BucketPolicy, GainBuckets};
use crate::engine::{Engine, FmConfig, BOTH_SIDES};
use crate::state::RefineState;
use mlpart_audit::{audit_partition, AuditError, AuditResult};
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::{metrics, Hypergraph, ModuleId, Partition};

const ST: &str = "RefineState";

fn err(check: &'static str, detail: String) -> AuditError {
    AuditError::new(ST, check, detail)
}

/// Recomputed pin counts of one visible net; also reports whether it is cut.
fn recount_net(h: &Hypergraph, p: &Partition, e: mlpart_hypergraph::NetId) -> ([u32; 2], bool) {
    let mut counts = [0u32, 0];
    for &v in h.pins(e) {
        counts[p.part(v) as usize] += 1;
    }
    (counts, counts[0] > 0 && counts[1] > 0)
}

/// Checks that the bound state has the 2-way shape for `h` and that
/// `visible`/`pins_in` agree with a from-scratch recount. Returns the
/// recomputed visible (weighted) cut.
fn audit_counts(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &FmConfig,
) -> Result<u64, AuditError> {
    if st.k != 2 {
        return Err(err(
            "bound-k",
            format!("state bound with k={}, engine needs 2", st.k),
        ));
    }
    if st.visible.len() != h.num_nets() || st.pins_in.len() != 2 * h.num_nets() {
        return Err(err(
            "bound-shape",
            format!(
                "visible/pins_in sized {}/{} for {} nets",
                st.visible.len(),
                st.pins_in.len(),
                h.num_nets()
            ),
        ));
    }
    if st.gain.len() != h.num_modules() || st.locked.len() != h.num_modules() {
        return Err(err(
            "bound-shape",
            format!(
                "gain/locked sized {}/{} for {} modules",
                st.gain.len(),
                st.locked.len(),
                h.num_modules()
            ),
        ));
    }
    let mut cut = 0u64;
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
        let (counts, is_cut) = recount_net(h, p, e);
        let stored = [st.pins(e.index(), 0), st.pins(e.index(), 1)];
        if stored != counts {
            return Err(err(
                "pins-recount",
                format!("stored pin counts {stored:?} != recomputed {counts:?}"),
            )
            .with_net(e.index()));
        }
        if is_cut {
            cut += h.net_weight(e) as u64;
        }
    }
    Ok(cut)
}

/// O(pins) from-scratch FM gain of `v` (cut-reduction of moving it across).
fn recompute_gain(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    v: mlpart_hypergraph::ModuleId,
) -> i32 {
    let s = p.part(v) as usize;
    let o = 1 - s;
    let mut g = 0i32;
    for &e in h.nets(v) {
        if !st.visible[e.index()] {
            continue;
        }
        let w = h.net_weight(e) as i32;
        let (counts, _) = recount_net(h, p, e);
        if counts[s] == 1 {
            g += w;
        }
        if counts[o] == 0 {
            g -= w;
        }
    }
    g
}

/// Recounts the side tallies of the bucket structure from its lists: each
/// bucket's members by side against the stored per-(bucket, side) counts
/// (Random keeps none), and each listed member's key against its bucket.
fn audit_tallies(buckets: &GainBuckets, max_key: i32) -> AuditResult {
    let tallied = buckets.policy() != BucketPolicy::Random;
    for key in -max_key..=max_key {
        let mut counted = [0u32; 2];
        for v in buckets.bucket_members(key, BOTH_SIDES) {
            if buckets.key_of(v) != key {
                return Err(err(
                    "bucket-list",
                    format!("listed at key {key}, keyed {}", buckets.key_of(v)),
                )
                .with_module(v.index()));
            }
            match buckets.class_of(v).and_then(|c| counted.get_mut(c)) {
                Some(n) => *n += 1,
                None => {
                    return Err(err(
                        "bucket-class",
                        format!("listed member filed under {:?}", buckets.class_of(v)),
                    )
                    .with_module(v.index()))
                }
            }
        }
        for (side, &n) in counted.iter().enumerate() {
            let stored = buckets.tally(key, side);
            if tallied && stored != Some(n) {
                return Err(err(
                    "side-tally",
                    format!("key {key} side {side}: tally {stored:?}, lists hold {n}"),
                ));
            }
        }
    }
    Ok(())
}

/// Pick audit of the side gate: when `open` closed a side, the ungated
/// walk over both sides must pick `picked` too. LIFO and FIFO selection
/// draws nothing from its RNG; a throwaway one keeps the engine's stream
/// untouched regardless.
pub fn audit_side_gate<F>(
    buckets: &mut GainBuckets,
    open: [bool; 2],
    picked: Option<ModuleId>,
    feasible: F,
) -> AuditResult
where
    F: FnMut(ModuleId) -> bool,
{
    if open == [true, true] {
        return Ok(());
    }
    let ungated = buckets.select_where(&mut seeded_rng(0), BOTH_SIDES, feasible);
    if ungated != picked {
        return Err(err(
            "side-gate",
            format!("open sides {open:?} picked {picked:?}, the ungated walk {ungated:?}"),
        ));
    }
    Ok(())
}

/// Pass-start audit, run right after the buckets are filled: partition
/// balance counters, `visible`/`pins_in` recount, the engine's running cut,
/// every module's stored gain against an O(pins) recomputation, the CLIP
/// reference gains, bucket keys and sides, the side tallies, and the
/// free/locked split (every bucket member unlocked, every unlocked module
/// bucketed).
pub fn audit_pass_start(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &FmConfig,
    start_cut: u64,
) -> AuditResult {
    audit_partition(h, p)?;
    let cut = audit_counts(st, h, p, cfg)?;
    let Some(buckets) = st.buckets.first() else {
        return Err(err("bound-shape", "no bucket structure bound".to_string()));
    };
    if cut != start_cut {
        return Err(err(
            "cut-recount",
            format!("engine starts the pass at cut {start_cut}, recount gives {cut}"),
        ));
    }
    for v in h.modules() {
        let want = audit_gain(st, h, p, v)?;
        if st.gain0[v.index()] != want {
            return Err(err(
                "gain0-recompute",
                format!(
                    "pass-start reference gain {} != recomputed {want}",
                    st.gain0[v.index()]
                ),
            )
            .with_module(v.index()));
        }
        if !st.locked[v.index()] {
            audit_filing(st, buckets, p, cfg, v)?;
        } else if buckets.contains(v) {
            return Err(err(
                "free-locked",
                "module is locked yet still selectable from the bucket".to_string(),
            )
            .with_module(v.index()));
        }
    }
    audit_tallies(buckets, st.key_bound)
}

/// Checks `v`'s stored gain against [`recompute_gain`]; returns it.
fn audit_gain(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    v: ModuleId,
) -> Result<i32, AuditError> {
    let (stored, want) = (st.gain[v.index()], recompute_gain(st, h, p, v));
    if stored != want {
        return Err(err(
            "gain-recompute",
            format!("stored gain {stored} != recomputed {want}"),
        )
        .with_module(v.index()));
    }
    Ok(want)
}

/// Checks how a free module `v` is filed: in the bucket, under its side, at
/// the key its gain discipline demands.
fn audit_filing(
    st: &RefineState,
    buckets: &GainBuckets,
    p: &Partition,
    cfg: &FmConfig,
    v: ModuleId,
) -> AuditResult {
    if !buckets.contains(v) {
        return Err(err(
            "free-locked",
            "unlocked module missing from the bucket".to_string(),
        )
        .with_module(v.index()));
    }
    let filed = buckets.class_of(v);
    if filed != Some(p.part(v) as usize) {
        return Err(err(
            "bucket-side",
            format!("filed under {filed:?}, module sits on side {}", p.part(v)),
        )
        .with_module(v.index()));
    }
    let want_key = match cfg.engine {
        Engine::Fm => st.gain[v.index()],
        Engine::Clip => st.gain[v.index()] - st.gain0[v.index()],
    };
    let key = buckets.key_of(v);
    if key != want_key {
        return Err(err(
            "bucket-key",
            format!("bucketed under key {key}, gain discipline demands {want_key}"),
        )
        .with_module(v.index()));
    }
    Ok(())
}

/// Per-move audit, run after each move of `v`: for every visible net of
/// `v`, the stored pin counts against a recount, and every free pin of
/// those nets: its gain against a recomputation and its filing — the nets
/// and modules the move's gain updates touched.
pub fn audit_move(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &FmConfig,
    v: ModuleId,
) -> AuditResult {
    let Some(buckets) = st.buckets.first() else {
        return Err(err("bound-shape", "no bucket structure bound".to_string()));
    };
    for &e in h.nets(v) {
        if !st.visible[e.index()] {
            continue;
        }
        let (counts, _) = recount_net(h, p, e);
        let stored = [st.pins(e.index(), 0), st.pins(e.index(), 1)];
        if stored != counts {
            return Err(err(
                "pins-recount",
                format!("after a move, stored pin counts {stored:?} != recomputed {counts:?}"),
            )
            .with_net(e.index()));
        }
        for &u in h.pins(e) {
            if !st.locked[u.index()] {
                audit_gain(st, h, p, u)?;
                audit_filing(st, buckets, p, cfg, u)?;
            }
        }
    }
    Ok(())
}

/// Pass-end audit, run after rollback to the best prefix: partition balance
/// counters and the reported best cut against a from-scratch visible-cut
/// recount.
pub fn audit_pass_end(h: &Hypergraph, p: &Partition, cfg: &FmConfig, best_cut: u64) -> AuditResult {
    audit_partition(h, p)?;
    let cut = metrics::cut_with_net_size_limit(h, p, cfg.max_net_size);
    if cut != best_cut {
        return Err(err(
            "cut-rollback",
            format!("pass reports best cut {best_cut}, rolled-back partition cuts {cut}"),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::Filing;
    use crate::engine::refine;
    use crate::request::RefineRequest;
    use mlpart_hypergraph::HypergraphBuilder;

    /// 4 modules in a path: nets {0,1}, {1,2}, {2,3}.
    fn path4() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0usize, 1]).unwrap();
        b.add_net([1usize, 2]).unwrap();
        b.add_net([2usize, 3]).unwrap();
        b.build().unwrap()
    }

    /// Hand-builds the exact post-fill state for `path4` split [0,0,1,1].
    fn filled_state(h: &Hypergraph, cfg: &FmConfig) -> RefineState {
        let mut st = RefineState::default();
        st.bind_nets(h, 2, cfg.max_net_size).unwrap();
        st.bind_modules(h, 1, 2, Filing::Tallied, 4, BucketPolicy::Lifo);
        // pins per net: {0,1}→[2,0], {1,2}→[1,1], {2,3}→[0,2].
        st.pins_in.copy_from_slice(&[2, 0, 1, 1, 0, 2]);
        // Gains: ends −1, middles 0 (cut net crossing 1–2).
        st.gain.copy_from_slice(&[-1, 0, 0, -1]);
        st.gain0.copy_from_slice(&st.gain.clone());
        for v in h.modules() {
            st.buckets[0].insert(v, v.index() / 2, st.gain[v.index()]);
        }
        st
    }

    #[test]
    fn healthy_pass_start_state_passes() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let st = filled_state(&h, &cfg);
        assert_eq!(audit_pass_start(&st, &h, &p, &cfg, 1), Ok(()));
    }

    #[test]
    fn detects_stale_pin_count() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut st = filled_state(&h, &cfg);
        st.pins_in[2] += 1;
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "pins-recount");
        assert_eq!(e.net, Some(1));
    }

    #[test]
    fn detects_wrong_running_cut() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let st = filled_state(&h, &cfg);
        assert_eq!(
            audit_pass_start(&st, &h, &p, &cfg, 2).unwrap_err().check,
            "cut-recount"
        );
    }

    #[test]
    fn detects_corrupted_gain() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut st = filled_state(&h, &cfg);
        st.gain[1] += 3;
        // Keep the bucket key consistent with the (corrupt) gain so the
        // gain recomputation itself is what fires.
        st.buckets[0].update_key(ModuleId::from(1), st.gain[1]);
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "gain-recompute");
        assert_eq!(e.module, Some(1));
    }

    #[test]
    fn detects_bucket_key_out_of_sync() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut st = filled_state(&h, &cfg);
        st.buckets[0].update_key(ModuleId::from(2), 3);
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "bucket-key");
        assert_eq!(e.module, Some(2));
    }

    #[test]
    fn detects_module_filed_under_wrong_side() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut st = filled_state(&h, &cfg);
        // Module 2 sits on side 1 but is refiled under side 0.
        let v = ModuleId::from(2);
        st.buckets[0].remove(v);
        st.buckets[0].insert(v, 0, st.gain[2]);
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "bucket-side");
        assert_eq!(e.module, Some(2));
    }

    #[test]
    fn side_gate_audit_reruns_closed_picks_ungated() {
        let h = path4();
        let cfg = FmConfig::default();
        let mut st = filled_state(&h, &cfg);
        // Ungated, LIFO picks module 2 (the newest member of key 0).
        let any = |_| true;
        let both = st.buckets[0].select_where(&mut seeded_rng(0), BOTH_SIDES, any);
        assert_eq!(both, Some(ModuleId::from(2)));
        assert_eq!(
            audit_side_gate(&mut st.buckets[0], [true, true], None, any),
            Ok(())
        );
        assert_eq!(
            audit_side_gate(&mut st.buckets[0], [false, true], both, any),
            Ok(())
        );
        // A gate that closed side 1 and so picked module 1 is caught.
        let gated = Some(ModuleId::from(1));
        let e = audit_side_gate(&mut st.buckets[0], [true, false], gated, any).unwrap_err();
        assert_eq!(e.check, "side-gate");
    }

    #[test]
    fn detects_locked_module_in_bucket() {
        let h = path4();
        let p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let mut st = filled_state(&h, &cfg);
        st.locked[3] = true;
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "free-locked");
        assert_eq!(e.module, Some(3));
    }

    #[test]
    fn pass_end_detects_misreported_best_cut() {
        let h = path4();
        let mut p = Partition::from_assignment(&h, 2, vec![0, 0, 1, 1]).unwrap();
        let cfg = FmConfig::default();
        let r = refine(
            &h,
            &mut p,
            &cfg,
            &mut seeded_rng(3),
            RefineRequest::default(),
        )
        .unwrap();
        assert_eq!(audit_pass_end(&h, &p, &cfg, r.internal_cut), Ok(()));
        let e = audit_pass_end(&h, &p, &cfg, r.internal_cut + 1).unwrap_err();
        assert_eq!(e.check, "cut-rollback");
    }

    #[test]
    fn engine_hooks_fire_when_forced_on() {
        // End-to-end: with audits forced on, a full refinement run audits
        // every pass boundary without tripping.
        mlpart_audit::force_enabled(true);
        let h = path4();
        let mut p = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1]).unwrap();
        let cfg = FmConfig::default();
        let r = refine(
            &h,
            &mut p,
            &cfg,
            &mut seeded_rng(1),
            RefineRequest::default(),
        )
        .unwrap();
        mlpart_audit::force_enabled(false);
        assert!(r.passes >= 1);
    }
}
