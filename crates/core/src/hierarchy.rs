//! Construction of the multilevel netlist hierarchy (the coarsening phase of
//! Fig. 2, steps 1-5).

use crate::error::PipelineError;
use mlpart_cluster::{
    heavy_edge_matching, induce, match_clusters_frozen_in, match_clusters_parts_in,
    random_matching, Clustering, MatchConfig, MatchScratch,
};
use mlpart_hypergraph::{obs_counter, obs_span, Hypergraph, ModuleId, NetList, PartId};
use rand::Rng;

/// Which matching algorithm drives coarsening — the paper's `Match` by
/// default, with the Chaco/Metis baselines available for ablation studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Coarsener {
    /// The paper's connectivity-based `Match` (Fig. 3) with matching ratio.
    #[default]
    PaperMatch,
    /// Chaco-style random maximal matching (ignores the matching ratio).
    RandomMatching,
    /// Metis-style heavy-edge matching without the area preference
    /// (ignores the matching ratio).
    HeavyEdge,
}

impl std::fmt::Display for Coarsener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Coarsener::PaperMatch => write!(f, "match"),
            Coarsener::RandomMatching => write!(f, "random"),
            Coarsener::HeavyEdge => write!(f, "heavy-edge"),
        }
    }
}

/// The coarsened netlist hierarchy `H₁ … Hₘ` above an input netlist `H₀`,
/// with the clustering connecting each adjacent pair of levels.
///
/// `H₀` itself is not stored (the caller owns it). Only the coarsest level
/// `Hₘ` keeps its module → net incidence; the levels below it are stored as
/// [`NetList`]s, and [`pop_level`](Self::pop_level) rebuilds the next one's
/// incidence as it hands back the coarsest's nets. The hierarchy also threads
/// pre-assigned (fixed) modules upward: a coarse module is fixed iff its
/// cluster holds a fixed fine module.
///
/// # Examples
///
/// ```
/// use mlpart_core::{Hierarchy, MlConfig};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(64);
/// for i in 0..63 {
///     b.add_net([i, i + 1])?;
/// }
/// let h = b.build()?;
/// let cfg = MlConfig { coarsen_threshold: 10, ..MlConfig::default() };
/// let mut rng = seeded_rng(0);
/// let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng)?;
/// assert!(hier.coarsest(&h).num_modules() <= 10);
/// assert!(hier.num_levels() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// `clusterings[i]` maps modules of `Hᵢ` to modules of `Hᵢ₊₁`.
    clusterings: Vec<Clustering>,
    /// `coarse[i]` is `Hᵢ₊₁` for every level below the coarsest.
    coarse: Vec<NetList>,
    /// `Hₘ`; `None` when `m = 0`.
    coarsest: Option<Hypergraph>,
    /// Fixed (pre-assigned) modules at each level, `fixed[0]` being on `H₀`.
    fixed: Vec<Vec<(ModuleId, PartId)>>,
}

impl Hierarchy {
    /// Runs the coarsening loop of Fig. 2: while `|Vᵢ| > T`, cluster with
    /// `Match(Hᵢ, R)` and induce `Hᵢ₊₁`.
    ///
    /// Coarsening also stops when a `Match` pass shrinks the netlist by
    /// clearly less than the matching ratio promises (the matching has
    /// stalled on hub-dominated coarse structure — the standard multilevel
    /// guard, cf. hMETIS), when it makes no progress at all (e.g. a netlist
    /// with no small nets), or when
    /// [`max_levels`](crate::MlConfig::max_levels) is reached, so the loop
    /// always terminates and never piles up near-identical levels.
    ///
    /// `fixed` lists pre-assigned modules of `H₀` (the constrained
    /// schedule's pins; the paper's schedule passes none). `Match` merges two
    /// pins only when they share a part, and never a pin with a free module,
    /// so heavily pinned netlists still coarsen. Coarse fixed lists hold one
    /// entry per cluster, sorted by coarse module id.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Unsupported`] when pins meet a baseline coarsener;
    /// [`PipelineError::Coarsen`] when inducing a coarse level fails (e.g.
    /// coalesced net weights overflow `u32`).
    pub fn coarsen<R: Rng + ?Sized>(
        h0: &Hypergraph,
        cfg: &crate::MlConfig,
        fixed: &[(ModuleId, PartId)],
        rng: &mut R,
    ) -> Result<Self, PipelineError> {
        if !fixed.is_empty() && cfg.coarsener != Coarsener::PaperMatch {
            return Err(PipelineError::Unsupported(
                "fixed modules require the PaperMatch coarsener",
            ));
        }
        let match_cfg = MatchConfig::with_ratio(cfg.matching_ratio);
        // One scratch serves every `Match` pass; it follows the level's size.
        let mut scratch = MatchScratch::new();
        let mut clusterings = Vec::new();
        let mut coarse: Vec<NetList> = Vec::new();
        let mut fixed_levels: Vec<Vec<(ModuleId, PartId)>> = Vec::new();
        // The level under construction: its netlist (`None` ⇒ `h0`) and its
        // fixed list. Both are pushed onto the level vectors only when the
        // *next* level materializes (and once more after the loop), which
        // keeps `current` borrowable without re-indexing the vectors.
        let mut owned_current: Option<Hypergraph> = None;
        let mut current_fixed: Vec<(ModuleId, PartId)> = fixed.to_vec();

        obs_span!(
            "coarsen",
            "modules" => h0.num_modules(),
            "threshold" => cfg.coarsen_threshold,
            "ratio" => cfg.matching_ratio,
        );
        loop {
            let current: &Hypergraph = owned_current.as_ref().unwrap_or(h0);
            if current.num_modules() <= cfg.coarsen_threshold || clusterings.len() >= cfg.max_levels
            {
                break;
            }
            let (clustering, effective_ratio) = {
                obs_span!("match", "level" => clusterings.len(), "modules" => current.num_modules());
                match cfg.coarsener {
                    Coarsener::PaperMatch => (
                        match_level(current, &match_cfg, &current_fixed, rng, &mut scratch),
                        cfg.matching_ratio,
                    ),
                    Coarsener::RandomMatching => (random_matching(current, rng), 1.0),
                    Coarsener::HeavyEdge => (heavy_edge_matching(current, rng), 1.0),
                }
            };
            // A matching with ratio R shrinks by the factor 1 − R/2 when it
            // succeeds; stop once the realized shrink is closer to "no
            // progress" than to that promise (baseline coarseners behave
            // like R = 1). This truncates the stall tail on netlists whose
            // coarse levels become star-like.
            let guard = 1.0 - effective_ratio / 4.0;
            let stalled = clustering.num_clusters() as f64 > guard * current.num_modules() as f64;
            obs_counter!(
                "coarsen_level",
                "level" => clusterings.len(),
                "modules" => current.num_modules(),
                "clusters" => clustering.num_clusters(),
                "stalled" => u64::from(stalled),
            );
            if stalled {
                break; // matching stalled: treat this level as coarsest
            }
            let next = {
                obs_span!("induce", "level" => clusterings.len(), "pins" => current.num_pins());
                induce(current, &clustering)?
            };
            let next_fixed = lift_fixed(&current_fixed, &clustering);
            clusterings.push(clustering);
            // `Hᵢ₊₁` exists, so `Hᵢ` is not worked on again until
            // uncoarsening reaches it.
            if let Some(prev) = owned_current.take() {
                coarse.push(prev.into_net_list());
            }
            fixed_levels.push(std::mem::replace(&mut current_fixed, next_fixed));
            owned_current = Some(next);
        }
        fixed_levels.push(current_fixed);
        Ok(Hierarchy {
            clusterings,
            coarse,
            coarsest: owned_current,
            fixed: fixed_levels,
        })
    }

    /// Number of coarsening levels `m` (zero if `H₀` was already below the
    /// threshold).
    pub fn num_levels(&self) -> usize {
        self.clusterings.len()
    }

    /// The coarsest netlist `Hₘ` (or `h0` itself when no coarsening happened).
    pub fn coarsest<'a>(&'a self, h0: &'a Hypergraph) -> &'a Hypergraph {
        self.coarsest.as_ref().unwrap_or(h0)
    }

    /// Fixed (pre-assigned) modules at level `i` (`0..=num_levels()`).
    pub fn fixed_at(&self, i: usize) -> &[(ModuleId, PartId)] {
        &self.fixed[i]
    }

    /// Module counts per level, `H₀` first — the "level sizes" diagnostics
    /// reported by the examples and benches.
    pub fn level_sizes(&self, h0: &Hypergraph) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(self.num_levels() + 1);
        sizes.push(h0.num_modules());
        sizes.extend(self.coarse.iter().map(NetList::num_modules));
        sizes.extend(self.coarsest.as_ref().map(Hypergraph::num_modules));
        sizes
    }

    /// Removes the coarsest level `m`, handing back the clustering of
    /// `Hₘ₋₁` onto it and `Hₘ`'s nets (its fixed list is dropped), so
    /// uncoarsening frees each level once it has been projected. `Hₘ₋₁`
    /// gets its module → net incidence back and becomes the coarsest;
    /// `Hₘ`'s is dropped first, so the two are never live together. `None`
    /// once only `H₀` is left.
    pub fn pop_level(&mut self) -> Option<(Clustering, NetList)> {
        let popped = self.coarsest.take()?.into_net_list();
        self.coarsest = self.coarse.pop().map(|level| {
            obs_span!("rebuild", "level" => self.coarse.len() + 1, "pins" => level.num_pins());
            level.into_hypergraph()
        });
        self.fixed.pop();
        Some((self.clusterings.pop()?, popped))
    }
}

/// One `Match` pass (Fig. 3) that keeps pins apart: the paper's `Match`
/// when `fixed` is empty, otherwise a pass that merges two modules only if
/// both are free or both are pinned to the same part.
pub(crate) fn match_level<R: Rng + ?Sized>(
    h: &Hypergraph,
    cfg: &MatchConfig,
    fixed: &[(ModuleId, PartId)],
    rng: &mut R,
    scratch: &mut MatchScratch,
) -> Clustering {
    if fixed.is_empty() {
        return match_clusters_frozen_in(h, cfg, None, rng, scratch);
    }
    let mut seed: Vec<Option<PartId>> = vec![None; h.num_modules()];
    for &(v, p) in fixed {
        seed[v.index()] = Some(p);
    }
    match_clusters_parts_in(h, cfg, Some(seed.as_slice()), rng, scratch)
}

/// `fixed` carried onto the clusters of `clustering`: one entry per
/// cluster (same-part pins may now share one), sorted by coarse module id so
/// every downstream loop over them is deterministic.
pub(crate) fn lift_fixed(
    fixed: &[(ModuleId, PartId)],
    clustering: &Clustering,
) -> Vec<(ModuleId, PartId)> {
    let mut lifted: Vec<(ModuleId, PartId)> = fixed
        .iter()
        .map(|&(v, p)| (ModuleId::new(clustering.cluster_of(v) as usize), p))
        .collect();
    lifted.sort_unstable_by_key(|&(v, _)| v.index());
    lifted.dedup_by(|a, b| {
        debug_assert!(a.0 != b.0 || a.1 == b.1, "cross-part pins merged");
        a.0 == b.0
    });
    lifted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MlConfig;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn grid(w: usize, hgt: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(w * hgt);
        for y in 0..hgt {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    b.add_net([i, i + 1]).unwrap();
                }
                if y + 1 < hgt {
                    b.add_net([i, i + w]).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn coarsens_below_threshold() {
        let h = grid(16, 16);
        let cfg = MlConfig {
            coarsen_threshold: 35,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(1);
        let mut hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng).expect("coarsens");
        assert!(hier.coarsest(&h).num_modules() <= 35);
        assert!(hier.num_levels() >= 3);
        // Every level, the coarsest first, preserves total area.
        loop {
            assert_eq!(hier.coarsest(&h).total_area(), h.total_area());
            if hier.pop_level().is_none() {
                break;
            }
        }
    }

    /// The reference: the coarsening loop of [`Hierarchy::coarsen`] under
    /// the paper's `Match`, keeping every level with both incidence
    /// directions.
    fn coarsen_keeping_everything(
        h0: &Hypergraph,
        cfg: &MlConfig,
        fixed: &[(ModuleId, PartId)],
        seed: u64,
    ) -> Vec<(Clustering, Hypergraph)> {
        let mut rng = seeded_rng(seed);
        let match_cfg = MatchConfig::with_ratio(cfg.matching_ratio);
        let mut scratch = MatchScratch::new();
        let (mut levels, mut fixed) = (Vec::<(Clustering, Hypergraph)>::new(), fixed.to_vec());
        loop {
            let current = levels.last().map_or(h0, |(_, h)| h);
            if current.num_modules() <= cfg.coarsen_threshold || levels.len() >= cfg.max_levels {
                return levels;
            }
            let clustering = match_level(current, &match_cfg, &fixed, &mut rng, &mut scratch);
            let guard = 1.0 - cfg.matching_ratio / 4.0;
            if clustering.num_clusters() as f64 > guard * current.num_modules() as f64 {
                return levels;
            }
            let next = induce(current, &clustering).expect("induces");
            fixed = lift_fixed(&fixed, &clustering);
            levels.push((clustering, next));
        }
    }

    #[test]
    fn popped_levels_equal_the_kept_ones() {
        let h = grid(20, 20);
        let cfg = MlConfig {
            coarsen_threshold: 12,
            matching_ratio: 0.5,
            ..MlConfig::default()
        };
        let corner = [(ModuleId::new(0), 0), (ModuleId::new(399), 1)];
        for (seed, fixed) in [(4, &[][..]), (9, &corner[..])] {
            let mut expected = coarsen_keeping_everything(&h, &cfg, fixed, seed);
            assert!(expected.len() >= 3, "{} levels", expected.len());
            let mut hier =
                Hierarchy::coarsen(&h, &cfg, fixed, &mut seeded_rng(seed)).expect("coarsens");
            assert_eq!(hier.num_levels(), expected.len());
            while let Some((clustering, level)) = hier.pop_level() {
                let (want_clustering, want_level) = expected.pop().expect("same depth");
                assert_eq!(clustering, want_clustering);
                assert_eq!(level, want_level.into_net_list());
                let below = expected.last().map_or(&h, |(_, h)| h);
                assert_eq!(hier.coarsest(&h), below);
            }
            assert!(expected.is_empty());
        }
    }

    #[test]
    fn smaller_ratio_means_more_levels() {
        let h = grid(24, 24);
        let mut rng = seeded_rng(2);
        let levels_at = |ratio: f64, rng: &mut mlpart_hypergraph::rng::MlRng| {
            let cfg = MlConfig {
                coarsen_threshold: 35,
                matching_ratio: ratio,
                ..MlConfig::default()
            };
            Hierarchy::coarsen(&h, &cfg, &[], rng)
                .expect("coarsens")
                .num_levels()
        };
        let l_full = levels_at(1.0, &mut rng);
        let l_half = levels_at(0.5, &mut rng);
        let l_third = levels_at(0.33, &mut rng);
        assert!(l_half > l_full, "R=0.5 ({l_half}) vs R=1 ({l_full})");
        assert!(l_third >= l_half, "R=0.33 ({l_third}) vs R=0.5 ({l_half})");
    }

    #[test]
    fn level_sizes_monotone_decreasing() {
        let h = grid(20, 20);
        let cfg = MlConfig {
            coarsen_threshold: 20,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(3);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng).expect("coarsens");
        let sizes = hier.level_sizes(&h);
        assert!(sizes.windows(2).all(|w| w[1] < w[0]), "{sizes:?}");
    }

    #[test]
    fn no_coarsening_when_under_threshold() {
        let h = grid(3, 3);
        let cfg = MlConfig {
            coarsen_threshold: 35,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(0);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng).expect("coarsens");
        assert_eq!(hier.num_levels(), 0);
        assert_eq!(hier.coarsest(&h).num_modules(), 9);
    }

    #[test]
    fn terminates_on_netless_netlist() {
        // No nets at all: Match produces all singletons, loop must stop.
        let h = HypergraphBuilder::with_unit_areas(100).build().unwrap();
        let cfg = MlConfig {
            coarsen_threshold: 10,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(0);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng).expect("coarsens");
        assert_eq!(hier.num_levels(), 0);
    }

    #[test]
    fn max_levels_caps_depth() {
        let h = grid(16, 16);
        let cfg = MlConfig {
            coarsen_threshold: 2,
            max_levels: 3,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(0);
        let hier = Hierarchy::coarsen(&h, &cfg, &[], &mut rng).expect("coarsens");
        assert_eq!(hier.num_levels(), 3);
    }

    #[test]
    fn coarsen_merges_same_part_pins_and_dedups() {
        let h = grid(8, 8);
        let cfg = MlConfig {
            coarsen_threshold: 8,
            ..MlConfig::default()
        };
        // Pin a whole edge of the grid to part 0 and the opposite corner to
        // part 1: adjacent same-part pins are mergeable, so coarsening can
        // go deep even though an eighth of the netlist is pinned.
        let mut fixed: Vec<(ModuleId, u32)> = (0..8).map(|x| (ModuleId::new(x), 0u32)).collect();
        fixed.push((ModuleId::new(63), 1));
        let mut rng = seeded_rng(5);
        let hier = Hierarchy::coarsen(&h, &cfg, &fixed, &mut rng).expect("coarsens");
        assert!(hier.coarsest(&h).num_modules() <= 8);
        for i in 0..=hier.num_levels() {
            let level_fixed = hier.fixed_at(i);
            // Sorted, deduplicated, and part ids preserved.
            assert!(level_fixed
                .windows(2)
                .all(|w| w[0].0.index() < w[1].0.index()));
            assert!(level_fixed.iter().any(|&(_, p)| p == 0));
            assert!(level_fixed.iter().any(|&(_, p)| p == 1));
        }
        // The edge pins eventually share clusters: strictly fewer coarse
        // fixed entries than fine ones by the coarsest level.
        assert!(hier.fixed_at(hier.num_levels()).len() < fixed.len());
    }

    #[test]
    fn pins_require_the_paper_coarsener() {
        let h = grid(4, 4);
        let cfg = MlConfig {
            coarsen_threshold: 2,
            coarsener: Coarsener::HeavyEdge,
            ..MlConfig::default()
        };
        let mut rng = seeded_rng(0);
        let err = Hierarchy::coarsen(&h, &cfg, &[(ModuleId::new(0), 1)], &mut rng);
        assert!(matches!(err, Err(PipelineError::Unsupported(_))));
    }
}
