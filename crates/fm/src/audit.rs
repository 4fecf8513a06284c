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
//! end audit verifies the rolled-back partition and its cut.

use crate::engine::{Engine, FmConfig};
use crate::state::RefineState;
use mlpart_audit::{audit_partition, AuditError, AuditResult};
use mlpart_hypergraph::{metrics, Hypergraph, Partition};

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

/// Pass-start audit, run right after the buckets are filled: partition
/// balance counters, `visible`/`pins_in` recount, the engine's running cut,
/// every module's stored gain against an O(pins) recomputation, the CLIP
/// reference gains, bucket keys, and the free/locked split (every bucket
/// member unlocked; in non-boundary mode every unlocked module bucketed).
pub fn audit_pass_start(
    st: &RefineState,
    h: &Hypergraph,
    p: &Partition,
    cfg: &FmConfig,
    start_cut: u64,
) -> AuditResult {
    audit_partition(h, p)?;
    let cut = audit_counts(st, h, p, cfg)?;
    if cut != start_cut {
        return Err(err(
            "cut-recount",
            format!("engine starts the pass at cut {start_cut}, recount gives {cut}"),
        ));
    }
    for v in h.modules() {
        let want = recompute_gain(st, h, p, v);
        if st.gain[v.index()] != want {
            return Err(err(
                "gain-recompute",
                format!("stored gain {} != recomputed {want}", st.gain[v.index()]),
            )
            .with_module(v.index()));
        }
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
        let in_bucket = st.buckets[0].contains(v);
        if in_bucket && st.locked[v.index()] {
            return Err(err(
                "free-locked",
                "module is locked yet still selectable from the bucket".to_string(),
            )
            .with_module(v.index()));
        }
        if !in_bucket && !st.locked[v.index()] && !cfg.boundary_init {
            return Err(err(
                "free-locked",
                "unlocked module missing from the bucket at pass start".to_string(),
            )
            .with_module(v.index()));
        }
        if in_bucket {
            let want_key = match cfg.engine {
                Engine::Fm => st.gain[v.index()],
                Engine::Clip => st.gain[v.index()] - st.gain0[v.index()],
            };
            let key = st.buckets[0].key_of(v);
            if key != want_key {
                return Err(err(
                    "bucket-key",
                    format!("bucketed under key {key}, gain discipline demands {want_key}"),
                )
                .with_module(v.index()));
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
    use crate::bucket::BucketPolicy;
    use crate::engine::refine_in;
    use crate::state::RefineWorkspace;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::{HypergraphBuilder, ModuleId};

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
        st.bind_nets(h, 2, cfg.max_net_size);
        st.bind_modules(h, 1, 1, 4, BucketPolicy::Lifo);
        // pins per net: {0,1}→[2,0], {1,2}→[1,1], {2,3}→[0,2].
        st.pins_in.copy_from_slice(&[2, 0, 1, 1, 0, 2]);
        // Gains: ends −1, middles 0 (cut net crossing 1–2).
        st.gain.copy_from_slice(&[-1, 0, 0, -1]);
        st.gain0.copy_from_slice(&st.gain.clone());
        for v in h.modules() {
            st.buckets[0].insert(v, 0, st.gain[v.index()]);
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
        st.buckets[0].update_key(ModuleId::from(1), 0, st.gain[1]);
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
        st.buckets[0].update_key(ModuleId::from(2), 0, 3);
        let e = audit_pass_start(&st, &h, &p, &cfg, 1).unwrap_err();
        assert_eq!(e.check, "bucket-key");
        assert_eq!(e.module, Some(2));
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
        let r = refine_in(
            &h,
            &mut p,
            &cfg,
            &mut seeded_rng(3),
            &mut RefineWorkspace::new(),
        );
        assert_eq!(audit_pass_end(&h, &p, &cfg, r.internal_cut), Ok(()));
        let e = audit_pass_end(&h, &p, &cfg, r.internal_cut + 1).unwrap_err();
        assert_eq!(e.check, "cut-rollback");
    }

    #[test]
    fn engine_hooks_fire_when_forced_on() {
        // End-to-end: with the gate forced on, a full refinement run audits
        // every pass boundary without tripping.
        mlpart_audit::force_enabled(true);
        let h = path4();
        let mut p = Partition::from_assignment(&h, 2, vec![0, 1, 0, 1]).unwrap();
        let cfg = FmConfig::default();
        let r = refine_in(
            &h,
            &mut p,
            &cfg,
            &mut seeded_rng(1),
            &mut RefineWorkspace::new(),
        );
        mlpart_audit::force_enabled(false);
        assert!(r.passes >= 1);
    }
}
