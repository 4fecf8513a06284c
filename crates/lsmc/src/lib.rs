//! The Large-Step Markov Chain (LSMC) partitioning baseline.
//!
//! Fukunaga, Huang, and Kahng's LSMC generates new solutions by making big
//! "kick" jumps from low-cost local minima, then descends back to a local
//! minimum with FM. The paper reimplements it for Tables VII/IX: "results are
//! reported for 100 descents, with the kick move performed on the best
//! partitioning solution observed so far (temperature = 0 in the LSMC
//! algorithm)" — i.e. a kick is only ever applied to the incumbent.
//!
//! Both the 2-way variant (Table VII column `LSMC`) and the 4-way variants
//! with FM and CLIP descent engines (Table IX columns `LSMC_F`, `LSMC_C`)
//! are provided.
//!
//! # Examples
//!
//! ```
//! use mlpart_lsmc::{lsmc_bipartition, LsmcConfig};
//! use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = HypergraphBuilder::with_unit_areas(16);
//! for i in 0..8usize {
//!     for j in (i + 1)..8 {
//!         b.add_net([i, j])?;
//!         b.add_net([i + 8, j + 8])?;
//!     }
//! }
//! b.add_net([7, 8])?;
//! let h = b.build()?;
//! let cfg = LsmcConfig { descents: 10, ..LsmcConfig::default() };
//! let mut rng = seeded_rng(1);
//! let (p, r) = lsmc_bipartition(&h, &cfg, &mut rng)?;
//! assert_eq!(r.cut, 1);
//! assert_eq!(p.k(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mlpart_fm::{fm_partition, refine, FmConfig, RefineError, RefineRequest, RefineWorkspace};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{metrics, Hypergraph, ModuleId, Partition};
use mlpart_kway::{kway_partition, kway_refine, KwayConfig};
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for [`lsmc_bipartition`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmcConfig {
    /// Number of FM descents (the paper uses 100).
    pub descents: usize,
    /// Fraction of the modules perturbed by one kick move.
    pub kick_fraction: f64,
    /// Descent engine (FM by default; set `engine: Clip` for a CLIP chain).
    pub fm: FmConfig,
}

impl Default for LsmcConfig {
    fn default() -> Self {
        LsmcConfig {
            descents: 100,
            kick_fraction: 0.05,
            fm: FmConfig::default(),
        }
    }
}

/// Outcome of an LSMC run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsmcResult {
    /// Best cut observed across all descents.
    pub cut: u64,
    /// Descents executed.
    pub descents: usize,
    /// Descents that improved the incumbent.
    pub improvements: usize,
}

/// Kick move for bipartitions: swap equal-sized random module subsets
/// between the two sides, preserving module-count balance (areas are
/// re-checked by the subsequent FM descent, which only makes feasible moves
/// and rolls back to a feasible prefix).
fn kick_bipartition<R: Rng + ?Sized>(
    h: &Hypergraph,
    p: &mut Partition,
    fraction: f64,
    rng: &mut R,
) {
    let n = h.num_modules();
    let swap = ((fraction * n as f64).ceil() as usize).max(1);
    let mut side0: Vec<u32> = Vec::new();
    let mut side1: Vec<u32> = Vec::new();
    for (i, &part) in p.assignment().iter().enumerate() {
        if part == 0 {
            side0.push(i as u32);
        } else {
            side1.push(i as u32);
        }
    }
    side0.shuffle(rng);
    side1.shuffle(rng);
    for &v in side0.iter().take(swap) {
        p.move_module(h, ModuleId::from(v), 1);
    }
    for &v in side1.iter().take(swap) {
        p.move_module(h, ModuleId::from(v), 0);
    }
}

/// Runs the 2-way LSMC chain: random start, FM descent, then
/// `descents − 1` iterations of kick-the-incumbent + FM descent.
///
/// Returns the best partition observed and run statistics.
///
/// # Errors
///
/// The [`RefineError`] of the first descent when the FM engine rejects `h`
/// (net weights too large for its gain buckets).
///
/// # Panics
///
/// Panics if `cfg.descents == 0`.
pub fn lsmc_bipartition(
    h: &Hypergraph,
    cfg: &LsmcConfig,
    rng: &mut MlRng,
) -> Result<(Partition, LsmcResult), RefineError> {
    assert!(cfg.descents >= 1, "need at least one descent");
    let mut ws = RefineWorkspace::new();
    let (mut best_p, r0) = fm_partition(h, &cfg.fm, rng, RefineRequest::reusing(&mut ws))?;
    let mut best_cut = r0.cut;
    let mut improvements = 0usize;
    for _ in 1..cfg.descents {
        // Temperature 0: always kick the best solution seen so far.
        let mut p = best_p.clone();
        kick_bipartition(h, &mut p, cfg.kick_fraction, rng);
        let r = refine(h, &mut p, &cfg.fm, rng, RefineRequest::reusing(&mut ws))?;
        if r.cut < best_cut {
            best_cut = r.cut;
            best_p = p;
            improvements += 1;
        }
    }
    debug_assert_eq!(best_cut, metrics::cut(h, &best_p));
    Ok((
        best_p,
        LsmcResult {
            cut: best_cut,
            descents: cfg.descents,
            improvements,
        },
    ))
}

/// Configuration for [`lsmc_kway`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmcKwayConfig {
    /// Number of descents.
    pub descents: usize,
    /// Fraction of the modules perturbed by one kick move.
    pub kick_fraction: f64,
    /// K-way descent engine settings.
    pub kway: KwayConfig,
}

impl Default for LsmcKwayConfig {
    fn default() -> Self {
        LsmcKwayConfig {
            descents: 100,
            kick_fraction: 0.05,
            kway: KwayConfig::default(),
        }
    }
}

/// Kick for k-way partitions: reassign a random module subset to uniformly
/// random parts.
fn kick_kway<R: Rng + ?Sized>(h: &Hypergraph, p: &mut Partition, fraction: f64, rng: &mut R) {
    let n = h.num_modules();
    let k = p.k();
    let kicks = ((fraction * n as f64).ceil() as usize).max(1);
    for _ in 0..kicks {
        let v = ModuleId::new(rng.gen_range(0..n));
        let to = rng.gen_range(0..k);
        p.move_module(h, v, to);
    }
}

/// Runs the k-way LSMC chain with the Sanchis-style engine as the descent
/// operator (Table IX's `LSMC_F`/`LSMC_C` analogues).
///
/// Returns the best partition observed and run statistics.
///
/// # Errors
///
/// The [`RefineError`] of the first descent when the k-way engine rejects
/// `k == 0` or `h` (net weights too large for its gain buckets).
///
/// # Panics
///
/// Panics if `cfg.descents == 0`.
pub fn lsmc_kway(
    h: &Hypergraph,
    k: u32,
    cfg: &LsmcKwayConfig,
    rng: &mut MlRng,
) -> Result<(Partition, LsmcResult), RefineError> {
    assert!(cfg.descents >= 1, "need at least one descent");
    let mut ws = RefineWorkspace::new();
    let (mut best_p, r0) = kway_partition(h, k, &cfg.kway, rng, RefineRequest::reusing(&mut ws))?;
    let mut best_cut = r0.cut;
    let mut improvements = 0usize;
    for _ in 1..cfg.descents {
        let mut p = best_p.clone();
        kick_kway(h, &mut p, cfg.kick_fraction, rng);
        let r = kway_refine(h, &mut p, &cfg.kway, rng, RefineRequest::reusing(&mut ws))?;
        if r.cut < best_cut {
            best_cut = r.cut;
            best_p = p;
            improvements += 1;
        }
    }
    Ok((
        best_p,
        LsmcResult {
            cut: best_cut,
            descents: cfg.descents,
            improvements,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn dumbbell() -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(16);
        for i in 0..8usize {
            for j in (i + 1)..8 {
                b.add_net([i, j]).unwrap();
                b.add_net([i + 8, j + 8]).unwrap();
            }
        }
        b.add_net([7, 8]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn finds_dumbbell_optimum() {
        let h = dumbbell();
        let cfg = LsmcConfig {
            descents: 20,
            ..LsmcConfig::default()
        };
        let mut rng = seeded_rng(3);
        let (_, r) = lsmc_bipartition(&h, &cfg, &mut rng).unwrap();
        assert_eq!(r.cut, 1);
        assert_eq!(r.descents, 20);
    }

    #[test]
    fn more_descents_never_hurt() {
        let h = dumbbell();
        let run = |descents, seed| {
            let cfg = LsmcConfig {
                descents,
                ..LsmcConfig::default()
            };
            let mut rng = seeded_rng(seed);
            lsmc_bipartition(&h, &cfg, &mut rng).unwrap().1.cut
        };
        // Same seed: a longer chain's incumbent can only improve.
        assert!(run(25, 7) <= run(1, 7));
    }

    #[test]
    fn result_cut_matches_partition() {
        let h = dumbbell();
        let cfg = LsmcConfig {
            descents: 5,
            ..LsmcConfig::default()
        };
        let mut rng = seeded_rng(9);
        let (p, r) = lsmc_bipartition(&h, &cfg, &mut rng).unwrap();
        assert_eq!(r.cut, metrics::cut(&h, &p));
        assert!(p.validate(&h));
    }

    #[test]
    fn kway_variant_finds_ring_optimum() {
        let mut b = HypergraphBuilder::with_unit_areas(16);
        for c in 0..4usize {
            for i in 0..4usize {
                for j in (i + 1)..4 {
                    b.add_net([4 * c + i, 4 * c + j]).unwrap();
                }
            }
            b.add_net([4 * c + 3, (4 * c + 4) % 16]).unwrap();
        }
        let h = b.build().unwrap();
        let cfg = LsmcKwayConfig {
            descents: 20,
            ..LsmcKwayConfig::default()
        };
        let mut rng = seeded_rng(5);
        let (p, r) = lsmc_kway(&h, 4, &cfg, &mut rng).unwrap();
        assert_eq!(r.cut, 4);
        assert_eq!(r.cut, metrics::cut(&h, &p));
    }

    #[test]
    fn improvements_counted() {
        let h = dumbbell();
        let cfg = LsmcConfig {
            descents: 30,
            ..LsmcConfig::default()
        };
        let mut rng = seeded_rng(123);
        let (_, r) = lsmc_bipartition(&h, &cfg, &mut rng).unwrap();
        assert!(r.improvements < r.descents);
    }

    #[test]
    fn deterministic_given_seed() {
        let h = dumbbell();
        let cfg = LsmcConfig {
            descents: 8,
            ..LsmcConfig::default()
        };
        let run = |seed| {
            let mut rng = seeded_rng(seed);
            lsmc_bipartition(&h, &cfg, &mut rng).unwrap()
        };
        let (p1, r1) = run(4);
        let (p2, r2) = run(4);
        assert_eq!(p1.assignment(), p2.assignment());
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "at least one descent")]
    fn rejects_zero_descents() {
        let h = dumbbell();
        let cfg = LsmcConfig {
            descents: 0,
            ..LsmcConfig::default()
        };
        let mut rng = seeded_rng(0);
        let _ = lsmc_bipartition(&h, &cfg, &mut rng);
    }
}
