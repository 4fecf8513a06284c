//! The `Match` coarsening procedure (paper Fig. 3) and baseline matchers.
//!
//! `Match` visits modules in a random permutation; each unmatched module `v`
//! grabs the unmatched neighbor `w` maximizing
//!
//! ```text
//! conn(v, w) = 1/(A(v)+A(w)) · Σ_{e ∋ v,w} 1/(|e| − 1)
//! ```
//!
//! where nets with more than ten modules are ignored ("to reduce runtimes").
//! The `1/(|e|−1)` term emphasizes small nets; the `1/(A(v)+A(w))` term
//! prefers merging small modules so cluster sizes stay balanced.
//!
//! The **matching ratio `R`** is the paper's key innovation over Chaco/Metis
//! maximal matchings: matching stops once `nMatch / |V| ≥ R`, so coarsening
//! proceeds more slowly and the hierarchy gains more levels.

use crate::clustering::Clustering;
use mlpart_hypergraph::rng::{random_permutation, random_permutation_into};
use mlpart_hypergraph::{obs_counter, Hypergraph, ModuleId, PartId};
use rand::Rng;

/// Reusable scratch buffers for [`match_clusters_frozen_in`]: the random
/// module permutation of Fig. 3 step 1 plus the `Conn` array and touched set
/// `S` of step 5. The multilevel coarsener calls `Match` once per level and
/// holds one `MatchScratch` across the whole coarsening loop; each pass
/// shrinks the per-module buffers to its own level, so a coarse level's
/// `Match` does not keep level-0 capacity alive.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// The random visit permutation π (Fig. 3 step 1).
    perm: Vec<u32>,
    /// Per-module accumulated connectivity (`Conn`, Fig. 3 step 5).
    conn: Vec<f64>,
    /// Modules with a nonzero `Conn` entry (the set `S`).
    touched: Vec<u32>,
}

impl MatchScratch {
    /// Creates an empty scratch; the first `Match` call sizes it.
    pub fn new() -> Self {
        MatchScratch::default()
    }
}

/// Nets larger than this are invisible to `conn` (paper §III-A: "nets with
/// more than ten modules are ignored to reduce runtimes").
pub const MATCH_MAX_NET_SIZE: usize = 10;

/// Configuration for [`match_clusters`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// Matching ratio `R ∈ (0, 1]`: the fraction of modules to pair up before
    /// stopping. `1.0` seeks a maximal matching (Chaco/Metis behaviour);
    /// `0.5` pairs only half the modules, roughly a 4/3 size reduction.
    pub ratio: f64,
    /// Nets larger than this do not contribute to connectivity.
    pub max_net_size: usize,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            ratio: 1.0,
            max_net_size: MATCH_MAX_NET_SIZE,
        }
    }
}

impl MatchConfig {
    /// Config with the given matching ratio and the paper's net-size limit.
    pub fn with_ratio(ratio: f64) -> Self {
        MatchConfig {
            ratio,
            ..MatchConfig::default()
        }
    }
}

/// The paper's `Match(Hᵢ, R)` (Fig. 3): connectivity-based matching with a
/// matching-ratio stop. Returns the clustering `Pᵏ` whose clusters have one
/// or two modules each.
///
/// # Panics
///
/// Panics if `ratio` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use mlpart_cluster::{match_clusters, MatchConfig};
/// use mlpart_hypergraph::{HypergraphBuilder, rng::seeded_rng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = HypergraphBuilder::with_unit_areas(4);
/// b.add_net([0, 1])?;
/// b.add_net([2, 3])?;
/// let h = b.build()?;
/// let mut rng = seeded_rng(0);
/// let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
/// // Two tightly connected pairs: a maximal matching pairs both.
/// assert_eq!(c.num_clusters(), 2);
/// # Ok(())
/// # }
/// ```
pub fn match_clusters<R: Rng + ?Sized>(
    h: &Hypergraph,
    cfg: &MatchConfig,
    rng: &mut R,
) -> Clustering {
    match_clusters_frozen_in(h, cfg, None, rng, &mut MatchScratch::new())
}

/// [`match_clusters`] with a set of *frozen* modules that must remain
/// singleton clusters — used by multilevel quadrisection so that pre-assigned
/// I/O pads are never merged with movable logic (or with pads pinned to a
/// different part) — and caller-owned scratch buffers, so one permutation
/// and `Conn` machinery serves a whole coarsening loop.
///
/// `frozen`, when present, must have one entry per module.
///
/// # Panics
///
/// Panics if `ratio` is not in `(0, 1]` or `frozen` has the wrong length.
pub fn match_clusters_frozen_in<R: Rng + ?Sized>(
    h: &Hypergraph,
    cfg: &MatchConfig,
    frozen: Option<&[bool]>,
    rng: &mut R,
    scratch: &mut MatchScratch,
) -> Clustering {
    if let Some(f) = frozen {
        assert_eq!(f.len(), h.num_modules(), "frozen mask has wrong length");
    }
    let is_frozen = |v: ModuleId| frozen.is_some_and(|f| f[v.index()]);
    match_core(h, cfg, rng, scratch, is_frozen, |_, w| !is_frozen(w))
}

/// [`match_clusters`] restricted by a per-module *part seed*: free modules
/// (`None`) pair only with free modules, and modules pre-assigned to a part
/// pair only with modules pre-assigned to the *same* part. Fixed cells of
/// different parts are therefore never merged, while same-part terminals may
/// still coalesce — Definition-1 coarsening then gives the coarse cluster an
/// unambiguous inherited assignment.
///
/// With `parts = None` this is byte-identical to [`match_clusters`] on an
/// identical RNG stream. `scratch` holds the caller-owned buffers.
///
/// # Panics
///
/// Panics if `ratio` is not in `(0, 1]` or `parts` has the wrong length.
pub fn match_clusters_parts_in<R: Rng + ?Sized>(
    h: &Hypergraph,
    cfg: &MatchConfig,
    parts: Option<&[Option<PartId>]>,
    rng: &mut R,
    scratch: &mut MatchScratch,
) -> Clustering {
    if let Some(p) = parts {
        assert_eq!(p.len(), h.num_modules(), "part seed has wrong length");
    }
    let part_of = |v: ModuleId| parts.and_then(|p| p[v.index()]);
    match_core(
        h,
        cfg,
        rng,
        scratch,
        |_| false,
        |v, w| part_of(v) == part_of(w),
    )
}

/// The shared Fig. 3 loop. `skip(v)` excludes a module from opening a
/// cluster (it stays a singleton); `mergeable(v, w)` gates which neighbors
/// may join `v`'s cluster. Both predicates only prune candidates — the RNG
/// is consumed solely by the visit permutation, so every caller draws an
/// identical stream regardless of its policy.
fn match_core<R, S, M>(
    h: &Hypergraph,
    cfg: &MatchConfig,
    rng: &mut R,
    scratch: &mut MatchScratch,
    skip: S,
    mergeable: M,
) -> Clustering
where
    R: Rng + ?Sized,
    S: Fn(ModuleId) -> bool,
    M: Fn(ModuleId, ModuleId) -> bool,
{
    assert!(
        cfg.ratio > 0.0 && cfg.ratio <= 1.0,
        "matching ratio must be in (0, 1]"
    );
    let n = h.num_modules();
    const UNMATCHED: u32 = u32::MAX;
    let mut cluster_of = vec![UNMATCHED; n];
    let mut k: u32 = 0;
    let mut n_match: usize = 0;

    // Scratch for the conn computation: Conn array + touched set S (Fig. 3's
    // description of step 5). `conn` is all-zero between modules (entries are
    // reset via `touched`), so clear+resize restores the invariant; both
    // per-module buffers give back capacity beyond this level's `n`.
    scratch.conn.clear();
    scratch.conn.shrink_to(n);
    scratch.conn.resize(n, 0.0);
    scratch.perm.clear();
    scratch.perm.shrink_to(n);
    scratch.touched.clear();
    let conn = &mut scratch.conn;
    let touched = &mut scratch.touched;

    random_permutation_into(n, rng, &mut scratch.perm);
    let perm = &scratch.perm;
    let mut j = 0usize;
    while (n_match as f64) < cfg.ratio * n as f64 && j < n {
        let v = ModuleId::from(perm[j]);
        if cluster_of[v.index()] == UNMATCHED && !skip(v) {
            // Step 4: open a new cluster containing v.
            let cluster = k;
            k += 1;
            cluster_of[v.index()] = cluster;
            // Step 5: accumulate conn over v's small nets.
            for &e in h.nets(v) {
                let size = h.net_size(e);
                if size > cfg.max_net_size {
                    continue;
                }
                let weight = h.net_weight(e) as f64 / (size as f64 - 1.0);
                for &w in h.pins(e) {
                    if w != v && cluster_of[w.index()] == UNMATCHED && mergeable(v, w) {
                        if conn[w.index()] == 0.0 {
                            touched.push(w.raw());
                        }
                        conn[w.index()] += weight;
                    }
                }
            }
            // Pick w maximizing conn(v, w) including the area preference.
            let mut best: Option<(f64, u32)> = None;
            for &wr in touched.iter() {
                let w = ModuleId::from(wr);
                let score = conn[w.index()] / (h.area(v) + h.area(w)) as f64;
                match best {
                    Some((b, _)) if b >= score => {}
                    _ => best = Some((score, wr)),
                }
            }
            if let Some((_, wr)) = best {
                cluster_of[wr as usize] = cluster;
                n_match += 2;
            }
            // Reset only the touched entries (Fig. 3: "reinitialization can
            // be done efficiently by resetting entries indexed by S").
            for &wr in touched.iter() {
                conn[wr as usize] = 0.0;
            }
            touched.clear();
        }
        j += 1;
    }
    // Steps 8-10: every remaining unmatched module becomes a singleton.
    for &raw in &perm[..] {
        if cluster_of[raw as usize] == UNMATCHED {
            cluster_of[raw as usize] = k;
            k += 1;
        }
    }
    obs_counter!(
        "match_pass",
        "modules" => n,
        "clusters" => k,
        "matched" => n_match,
        "ratio" => cfg.ratio,
    );
    Clustering::from_dense(cluster_of, k as usize)
}

/// Chaco-style random maximal matching: each unmatched module (in random
/// order) pairs with a uniformly random unmatched neighbor. A coarsening
/// baseline for the ablation benches.
pub fn random_matching<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> Clustering {
    let n = h.num_modules();
    const UNMATCHED: u32 = u32::MAX;
    let mut cluster_of = vec![UNMATCHED; n];
    let mut k: u32 = 0;
    let mut candidates: Vec<u32> = Vec::new();
    for &raw in &random_permutation(n, rng) {
        let v = ModuleId::from(raw);
        if cluster_of[v.index()] != UNMATCHED {
            continue;
        }
        let cluster = k;
        k += 1;
        cluster_of[v.index()] = cluster;
        candidates.clear();
        for &e in h.nets(v) {
            if h.net_size(e) > MATCH_MAX_NET_SIZE {
                continue;
            }
            for &w in h.pins(e) {
                if w != v && cluster_of[w.index()] == UNMATCHED {
                    candidates.push(w.raw());
                }
            }
        }
        if !candidates.is_empty() {
            let pick = candidates[rng.gen_range(0..candidates.len())];
            cluster_of[pick as usize] = cluster;
        }
    }
    Clustering::from_dense(cluster_of, k as usize)
}

/// Metis-style heavy-edge matching on the hypergraph's clique expansion:
/// like [`match_clusters`] with `R = 1` but scoring by `Σ 1/(|e|−1)` only
/// (no area preference). A coarsening baseline for the ablation benches.
pub fn heavy_edge_matching<R: Rng + ?Sized>(h: &Hypergraph, rng: &mut R) -> Clustering {
    let n = h.num_modules();
    const UNMATCHED: u32 = u32::MAX;
    let mut cluster_of = vec![UNMATCHED; n];
    let mut k: u32 = 0;
    let mut conn = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    for &raw in &random_permutation(n, rng) {
        let v = ModuleId::from(raw);
        if cluster_of[v.index()] != UNMATCHED {
            continue;
        }
        let cluster = k;
        k += 1;
        cluster_of[v.index()] = cluster;
        for &e in h.nets(v) {
            let size = h.net_size(e);
            if size > MATCH_MAX_NET_SIZE {
                continue;
            }
            let weight = h.net_weight(e) as f64 / (size as f64 - 1.0);
            for &w in h.pins(e) {
                if w != v && cluster_of[w.index()] == UNMATCHED {
                    if conn[w.index()] == 0.0 {
                        touched.push(w.raw());
                    }
                    conn[w.index()] += weight;
                }
            }
        }
        let mut best: Option<(f64, u32)> = None;
        for &wr in touched.iter() {
            let score = conn[wr as usize];
            match best {
                Some((b, _)) if b >= score => {}
                _ => best = Some((score, wr)),
            }
        }
        if let Some((_, wr)) = best {
            cluster_of[wr as usize] = cluster;
        }
        for &wr in touched.iter() {
            conn[wr as usize] = 0.0;
        }
        touched.clear();
    }
    Clustering::from_dense(cluster_of, k as usize)
}

/// The pairwise connectivity function of §III-A, exposed for tests and
/// diagnostics. Computes `conn(v, w)` directly from the definition.
pub fn conn(h: &Hypergraph, v: ModuleId, w: ModuleId, max_net_size: usize) -> f64 {
    let mut sum = 0.0;
    for &e in h.nets(v) {
        if h.net_size(e) > max_net_size {
            continue;
        }
        if h.pins(e).contains(&w) {
            sum += h.net_weight(e) as f64 / (h.net_size(e) as f64 - 1.0);
        }
    }
    sum / (h.area(v) + h.area(w)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    fn pairs_h() -> Hypergraph {
        // Modules 0-5; tight pairs (0,1), (2,3), (4,5); weak ring between pairs.
        let mut b = HypergraphBuilder::with_unit_areas(6);
        b.add_net([0, 1]).unwrap();
        b.add_net([0, 1]).unwrap(); // doubled: very strong
        b.add_net([2, 3]).unwrap();
        b.add_net([2, 3]).unwrap();
        b.add_net([4, 5]).unwrap();
        b.add_net([4, 5]).unwrap();
        b.add_net([1, 2, 3, 4, 5, 0]).unwrap(); // weak big net
        b.build().unwrap()
    }

    #[test]
    fn maximal_matching_pairs_strong_neighbors() {
        let h = pairs_h();
        for seed in 0..10 {
            let mut rng = seeded_rng(seed);
            let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
            assert_eq!(c.num_clusters(), 3, "seed {seed}");
            assert_eq!(c.cluster_of_index(0), c.cluster_of_index(1));
            assert_eq!(c.cluster_of_index(2), c.cluster_of_index(3));
            assert_eq!(c.cluster_of_index(4), c.cluster_of_index(5));
        }
    }

    #[test]
    fn clusters_have_at_most_two_modules() {
        let h = pairs_h();
        let mut rng = seeded_rng(1);
        let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
        assert!(c.cluster_sizes().iter().all(|&s| s <= 2));
    }

    #[test]
    fn ratio_limits_matched_fraction() {
        // A long chain: with R = 0.5, at most half the modules end in pairs
        // (allowing the one extra pair that crosses the threshold).
        let n = 100;
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n - 1 {
            b.add_net([i, i + 1]).unwrap();
        }
        let h = b.build().unwrap();
        let mut rng = seeded_rng(5);
        let c = match_clusters(&h, &MatchConfig::with_ratio(0.5), &mut rng);
        let paired_modules: usize = c.cluster_sizes().iter().filter(|&&s| s == 2).copied().sum();
        assert!(paired_modules >= n / 2 - 2, "paired={paired_modules}");
        assert!(paired_modules <= n / 2 + 2, "paired={paired_modules}");
        // Reduction factor is ~n/(n - paired/2), well short of 2x.
        assert!(c.num_clusters() > (n * 6) / 10, "k={}", c.num_clusters());
    }

    #[test]
    fn ratio_one_gives_near_half_reduction_on_clique() {
        let n = 64;
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_net([i, j]).unwrap();
            }
        }
        let h = b.build().unwrap();
        let mut rng = seeded_rng(2);
        let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
        assert_eq!(c.num_clusters(), n / 2);
    }

    #[test]
    fn isolated_modules_become_singletons() {
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let mut rng = seeded_rng(0);
        let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
        // 2 and 3 have no neighbors; {0,1} pairs.
        assert_eq!(c.num_clusters(), 3);
        let sizes = c.cluster_sizes();
        assert_eq!(sizes.iter().filter(|&&s| s == 2).count(), 1);
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 2);
    }

    #[test]
    fn large_nets_are_invisible() {
        // Only an 11-pin net connects everything: no pair is visible.
        let mut b = HypergraphBuilder::with_unit_areas(11);
        b.add_net(0..11).unwrap();
        let h = b.build().unwrap();
        let mut rng = seeded_rng(0);
        let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
        assert_eq!(c.num_clusters(), 11, "no matches through an 11-pin net");
    }

    #[test]
    fn conn_prefers_small_nets() {
        // v=0 shares a 2-pin net with 1 and a 3-pin net with 2.
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 1]).unwrap();
        b.add_net([0, 2, 3]).unwrap();
        let h = b.build().unwrap();
        let v = ModuleId::new(0);
        let c1 = conn(&h, v, ModuleId::new(1), MATCH_MAX_NET_SIZE);
        let c2 = conn(&h, v, ModuleId::new(2), MATCH_MAX_NET_SIZE);
        assert!(c1 > c2);
        assert!((c1 - 0.5).abs() < 1e-12); // 1/(2-1) / (1+1)
        assert!((c2 - 0.25).abs() < 1e-12); // 1/(3-1) / (1+1)
    }

    #[test]
    fn conn_prefers_small_areas() {
        // v=0 equally connected to 1 (area 1) and 2 (area 10).
        let mut b = HypergraphBuilder::new(vec![1, 1, 10]);
        b.add_net([0, 1]).unwrap();
        b.add_net([0, 2]).unwrap();
        let h = b.build().unwrap();
        let v = ModuleId::new(0);
        assert!(conn(&h, v, ModuleId::new(1), 10) > conn(&h, v, ModuleId::new(2), 10));
        // And the matcher obeys: module 0 never pairs with the big module 2
        // while the light module 1 is available.
        for seed in 0..10 {
            let mut rng = seeded_rng(seed);
            let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
            if c.cluster_of_index(0) == c.cluster_of_index(2) {
                // Only possible if 2 initiated the match before 0 was asked;
                // then 1 must be alone with nothing left to grab.
                assert_ne!(c.cluster_of_index(0), c.cluster_of_index(1));
            }
        }
    }

    #[test]
    fn random_matching_is_a_matching() {
        let h = pairs_h();
        for seed in 0..5 {
            let mut rng = seeded_rng(seed);
            let c = random_matching(&h, &mut rng);
            assert!(c.validate(&h));
            assert!(c.cluster_sizes().iter().all(|&s| s <= 2));
        }
    }

    #[test]
    fn heavy_edge_matching_pairs_strong_neighbors() {
        let h = pairs_h();
        let mut rng = seeded_rng(4);
        let c = heavy_edge_matching(&h, &mut rng);
        assert_eq!(c.cluster_of_index(0), c.cluster_of_index(1));
        assert_eq!(c.cluster_of_index(2), c.cluster_of_index(3));
        assert_eq!(c.cluster_of_index(4), c.cluster_of_index(5));
    }

    #[test]
    #[should_panic(expected = "matching ratio")]
    fn rejects_zero_ratio() {
        let h = pairs_h();
        let mut rng = seeded_rng(0);
        let _ = match_clusters(&h, &MatchConfig::with_ratio(0.0), &mut rng);
    }

    #[test]
    fn empty_netlist() {
        let h = HypergraphBuilder::with_unit_areas(0).build().unwrap();
        let mut rng = seeded_rng(0);
        let c = match_clusters(&h, &MatchConfig::default(), &mut rng);
        assert_eq!(c.num_clusters(), 0);
    }

    #[test]
    fn reused_scratch_is_bit_identical_across_shrinking_inputs() {
        // Mimic the coarsening loop: the same scratch serves a sequence of
        // progressively smaller netlists, and every result must equal the
        // fresh-scratch path on an identical RNG stream.
        let mut scratch = MatchScratch::new();
        let mut rng_reuse = seeded_rng(33);
        let mut rng_fresh = seeded_rng(33);
        for half in [40usize, 17, 6] {
            let mut b = HypergraphBuilder::with_unit_areas(2 * half);
            for base in [0, half] {
                for i in 0..half {
                    b.add_net([base + i, base + (i + 1) % half]).unwrap();
                }
            }
            let h = b.build().unwrap();
            let cfg = MatchConfig::with_ratio(0.7);
            let with_reuse = match_clusters_frozen_in(&h, &cfg, None, &mut rng_reuse, &mut scratch);
            let fresh = match_clusters(&h, &cfg, &mut rng_fresh);
            assert_eq!(with_reuse.as_map(), fresh.as_map(), "half={half}");
        }
    }
}

#[cfg(test)]
mod frozen_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    #[test]
    fn frozen_modules_stay_singleton() {
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 1]).unwrap();
        b.add_net([2, 3]).unwrap();
        let h = b.build().unwrap();
        let (cfg, mut scratch) = (MatchConfig::default(), MatchScratch::new());
        let frozen = [true, false, false, true];
        for seed in 0..10 {
            let mut rng = seeded_rng(seed);
            let c = match_clusters_frozen_in(&h, &cfg, Some(&frozen), &mut rng, &mut scratch);
            assert!(c.validate(&h));
            let sizes = c.cluster_sizes();
            // 0 and 3 alone; 1 and 2 may or may not pair (they share no net).
            assert_eq!(sizes[c.cluster_of_index(0) as usize], 1);
            assert_eq!(sizes[c.cluster_of_index(3) as usize], 1);
        }
    }

    #[test]
    fn all_frozen_gives_identity_sized_clustering() {
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0, 1, 2]).unwrap();
        let h = b.build().unwrap();
        let (cfg, mut scratch) = (MatchConfig::default(), MatchScratch::new());
        let mut rng = seeded_rng(0);
        let c = match_clusters_frozen_in(&h, &cfg, Some(&[true; 3]), &mut rng, &mut scratch);
        assert_eq!(c.num_clusters(), 3);
    }

    #[test]
    #[should_panic(expected = "frozen mask has wrong length")]
    fn rejects_wrong_mask_length() {
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let (cfg, mut scratch) = (MatchConfig::default(), MatchScratch::new());
        let mut rng = seeded_rng(0);
        let _ = match_clusters_frozen_in(&h, &cfg, Some(&[true]), &mut rng, &mut scratch);
    }
}

#[cfg(test)]
mod parts_tests {
    use super::*;
    use mlpart_hypergraph::rng::seeded_rng;
    use mlpart_hypergraph::HypergraphBuilder;

    #[test]
    fn cross_part_fixed_pairs_never_merge() {
        // 0 and 1 share a strong net but are pinned to different parts.
        let mut b = HypergraphBuilder::with_unit_areas(4);
        b.add_net([0, 1]).unwrap();
        b.add_net([0, 1]).unwrap();
        b.add_net([2, 3]).unwrap();
        let h = b.build().unwrap();
        let (cfg, mut scratch) = (MatchConfig::default(), MatchScratch::new());
        let parts = [Some(0), Some(1), None, None];
        for seed in 0..10 {
            let mut rng = seeded_rng(seed);
            let c = match_clusters_parts_in(&h, &cfg, Some(&parts), &mut rng, &mut scratch);
            assert!(c.validate(&h));
            assert_ne!(c.cluster_of_index(0), c.cluster_of_index(1), "seed {seed}");
            // The free pair is unaffected by the constraint.
            assert_eq!(c.cluster_of_index(2), c.cluster_of_index(3), "seed {seed}");
        }
    }

    #[test]
    fn same_part_fixed_pairs_may_merge() {
        let mut b = HypergraphBuilder::with_unit_areas(2);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let (cfg, mut scratch) = (MatchConfig::default(), MatchScratch::new());
        let parts = [Some(1), Some(1)];
        for seed in 0..10 {
            let mut rng = seeded_rng(seed);
            let c = match_clusters_parts_in(&h, &cfg, Some(&parts), &mut rng, &mut scratch);
            assert_eq!(c.cluster_of_index(0), c.cluster_of_index(1), "seed {seed}");
        }
    }

    #[test]
    fn fixed_free_pairs_never_merge() {
        let mut b = HypergraphBuilder::with_unit_areas(2);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let (cfg, mut scratch) = (MatchConfig::default(), MatchScratch::new());
        let parts = [Some(0), None];
        for seed in 0..10 {
            let mut rng = seeded_rng(seed);
            let c = match_clusters_parts_in(&h, &cfg, Some(&parts), &mut rng, &mut scratch);
            assert_eq!(c.num_clusters(), 2, "seed {seed}");
        }
    }

    #[test]
    fn no_parts_is_byte_identical_to_plain_match() {
        let mut b = HypergraphBuilder::with_unit_areas(20);
        for i in 0..19 {
            b.add_net([i, i + 1]).unwrap();
        }
        let h = b.build().unwrap();
        let mut scratch = MatchScratch::new();
        let cfg = MatchConfig::with_ratio(0.7);
        for seed in 0..5 {
            let mut rng_a = seeded_rng(seed);
            let mut rng_b = seeded_rng(seed);
            let plain = match_clusters(&h, &cfg, &mut rng_a);
            let parts = match_clusters_parts_in(&h, &cfg, None, &mut rng_b, &mut scratch);
            assert_eq!(plain.as_map(), parts.as_map(), "seed {seed}");
        }
    }

    #[test]
    fn all_free_seed_is_byte_identical_to_plain_match() {
        let mut b = HypergraphBuilder::with_unit_areas(12);
        for i in 0..11 {
            b.add_net([i, i + 1]).unwrap();
        }
        let h = b.build().unwrap();
        let mut scratch = MatchScratch::new();
        let cfg = MatchConfig::default();
        let seed_vec = vec![None; 12];
        let mut rng_a = seeded_rng(9);
        let mut rng_b = seeded_rng(9);
        let plain = match_clusters(&h, &cfg, &mut rng_a);
        let seeded = match_clusters_parts_in(&h, &cfg, Some(&seed_vec), &mut rng_b, &mut scratch);
        assert_eq!(plain.as_map(), seeded.as_map());
    }

    #[test]
    #[should_panic(expected = "part seed has wrong length")]
    fn rejects_wrong_seed_length() {
        let mut b = HypergraphBuilder::with_unit_areas(3);
        b.add_net([0, 1]).unwrap();
        let h = b.build().unwrap();
        let (cfg, mut scratch) = (MatchConfig::default(), MatchScratch::new());
        let mut rng = seeded_rng(0);
        let _ = match_clusters_parts_in(&h, &cfg, Some(&[None]), &mut rng, &mut scratch);
    }
}
