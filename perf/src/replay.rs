//! The traced run: each workload's start replayed as a sequence of calls
//! into the layers' public functions, each call timed from here. No span is
//! added inside the program.
//!
//! A replay mirrors its pipeline's RNG schedule call for call, so it must
//! return the same partition, byte for byte, as the pipeline's own entry
//! point on the same seed; the caller checks that on every replayed start.
//! If a change inside a pipeline alters that schedule, the replay-parity test
//! fails, and the replay has to be ported before the change lands.

use crate::workload::{
    bisect_config, cli_config, flat_config, kway_config, Workload, CLI_EPSILON, CLI_K, CLI_RUNS,
    IN_FIX, IN_HGR,
};
use mlpart_cluster::{
    induce, match_clusters_frozen_in, project, rebalance_bipart, rebalance_kway_frozen, Clustering,
    MatchConfig, MatchScratch,
};
use mlpart_core::{preflight_constrained, recursive_ml_partition_budgeted_in, BudgetMeter};
use mlpart_exec::try_run_starts;
use mlpart_fm::{fm_partition_in, refine_in, repair_to_feasible, PassStats, RefineWorkspace};
use mlpart_hypergraph::io::{read_fix, read_hgr, write_atomic_with, write_partition};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{metrics, BipartBalance, Constraints, Hypergraph, KwayBalance, Partition};
use mlpart_kway::{kway_partition_in, kway_refine_in};
use std::fs::File;
use std::path::Path;
use std::time::{Duration, Instant};

/// A fixed-capacity `name → total` table, so a probe adds no allocation of
/// its own to a start (see `run::Run::layers` for why that matters).
#[derive(Debug, Clone, Copy, Default)]
pub struct Table {
    entries: [(&'static str, u64); 12],
    len: usize,
}

impl Table {
    fn add(&mut self, name: &'static str, v: u64) {
        if let Some(e) = self.entries[..self.len].iter_mut().find(|e| e.0 == name) {
            e.1 += v;
        } else {
            // Panics if a replay records more distinct names than the
            // capacity, a bug in this file.
            self.entries[self.len] = (name, v);
            self.len += 1;
        }
    }

    pub fn get(&self, name: &str) -> u64 {
        self.entries[..self.len]
            .iter()
            .find(|e| e.0 == name)
            .map_or(0, |e| e.1)
    }

    pub fn sum(&self) -> u64 {
        self.entries[..self.len].iter().map(|e| e.1).sum()
    }
}

/// Per-start layer timings (ns) and work counts, keyed by metric name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Wall time of disjoint layer calls; their sum leaves the glue.
    pub times: Table,
    /// Time inside a layer call that the layer reports itself (bucket fill
    /// inside refinement); not part of the glue sum.
    pub inner: Table,
    pub counts: Table,
    /// Wall time of the whole replayed start.
    pub total: Duration,
    /// Executor busy time and wall time of the CLI replay's batch, for the
    /// parallel efficiency.
    pub exec_busy: Duration,
    pub exec_wall: Duration,
}

impl Probe {
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.times.add(name, t.elapsed().as_nanos() as u64);
        out
    }

    pub fn count(&mut self, name: &'static str, n: usize) {
        self.counts.add(name, n as u64);
    }

    /// A layer call's time, timed here or reported by the layer.
    pub fn get(&self, name: &str) -> Duration {
        Duration::from_nanos(self.times.get(name) + self.inner.get(name))
    }

    /// Records an engine's pass statistics under `fm.*` or `kway.*`; the
    /// bucket-fill time counts as gain init only for refinement calls.
    fn passes(&mut self, engine: Engine, stats: &[PassStats], refine: bool) {
        let (passes, attempted, kept, gain_init) = match engine {
            Engine::Fm => (
                "fm.passes",
                "fm.moves_attempted",
                "fm.moves_kept",
                "fm.gain_init_ms",
            ),
            Engine::Kway => (
                "kway.passes",
                "kway.moves_attempted",
                "kway.moves_kept",
                "kway.gain_init_ms",
            ),
        };
        self.count(passes, stats.len());
        self.count(attempted, stats.iter().map(|s| s.attempted_moves).sum());
        self.count(kept, stats.iter().map(|s| s.kept_moves).sum());
        if refine {
            self.inner
                .add(gain_init, stats.iter().map(|s| s.fill_time_ns).sum());
        }
    }
}

#[derive(Clone, Copy)]
enum Engine {
    Fm,
    Kway,
}

/// Replays one in-process start, ending with its cut as the pipeline ends
/// with it; returns the partition and the cut.
///
/// # Panics
///
/// Panics on [`Workload::CliKway8`], which replays through [`cli`].
pub fn start(
    wl: Workload,
    h: &Hypergraph,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    probe: &mut Probe,
) -> Result<(Partition, u64), String> {
    let t = Instant::now();
    let p = match wl {
        Workload::BisectMl => bisect(h, rng, ws, probe)?,
        Workload::FlatRnd => flat(h, rng, ws, probe),
        Workload::KwayQuad => kway(h, rng, ws, probe)?,
        Workload::CliKway8 => panic!("the CLI workload replays through replay::cli"),
    };
    let cut = probe.time("hypergraph.cut_ms", || metrics::cut(h, &p));
    probe.total = t.elapsed();
    Ok((p, cut))
}

/// The coarsened levels: `clusterings[i]` maps `Hᵢ` onto `coarse[i]`, which
/// is `Hᵢ₊₁`.
struct Levels {
    clusterings: Vec<Clustering>,
    coarse: Vec<Hypergraph>,
}

/// The coarsening loop of `Hierarchy::try_coarsen` with no fixed modules:
/// `Match`, the stall guard, then `Induce`, while `|Vᵢ| > T`.
fn coarsen(
    h: &Hypergraph,
    threshold: usize,
    ratio: f64,
    max_levels: usize,
    rng: &mut MlRng,
    probe: &mut Probe,
) -> Result<Levels, String> {
    let match_cfg = MatchConfig::with_ratio(ratio);
    let mut scratch = MatchScratch::new();
    let mut levels = Levels {
        clusterings: Vec::new(),
        coarse: Vec::new(),
    };
    loop {
        let current = levels.coarse.last().unwrap_or(h);
        if current.num_modules() <= threshold || levels.clusterings.len() >= max_levels {
            break;
        }
        let clustering = probe.time("cluster.match_ms", || {
            match_clusters_frozen_in(current, &match_cfg, None, rng, &mut scratch)
        });
        probe.count("cluster.match_calls", 1);
        probe.count("cluster.match_modules", current.num_modules());
        let guard = 1.0 - ratio / 4.0;
        if clustering.num_clusters() as f64 > guard * current.num_modules() as f64 {
            break;
        }
        let next = probe
            .time("cluster.induce_ms", || induce(current, &clustering))
            .map_err(|e| e.to_string())?;
        probe.count("cluster.induce_pins", current.num_pins());
        levels.clusterings.push(clustering);
        levels.coarse.push(next);
    }
    Ok(levels)
}

impl Levels {
    /// `Hᵢ`, with `H₀ = h`.
    fn level<'a>(&'a self, h: &'a Hypergraph, i: usize) -> &'a Hypergraph {
        if i == 0 {
            h
        } else {
            &self.coarse[i - 1]
        }
    }

    fn project(
        &self,
        h: &Hypergraph,
        i: usize,
        p: &Partition,
        probe: &mut Probe,
    ) -> Result<Partition, String> {
        let fine = self.level(h, i);
        probe.count("cluster.project_modules", fine.num_modules());
        probe
            .time("cluster.project_ms", || {
                project(fine, &self.clusterings[i], p)
            })
            .map_err(|e| e.to_string())
    }
}

/// `ml_bipartition_in` (ML_F) as layer calls.
fn bisect(
    h: &Hypergraph,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    probe: &mut Probe,
) -> Result<Partition, String> {
    let cfg = bisect_config();
    let levels = coarsen(
        h,
        cfg.coarsen_threshold,
        cfg.matching_ratio,
        cfg.max_levels,
        rng,
        probe,
    )?;
    let coarsest = levels.coarse.last().unwrap_or(h);
    let (mut p, r) = probe.time("fm.initial_ms", || {
        fm_partition_in(coarsest, None, &cfg.fm, rng, ws)
    });
    probe.passes(Engine::Fm, &r.pass_stats, false);
    for i in (0..levels.coarse.len()).rev() {
        let fine = levels.level(h, i);
        let mut fine_p = levels.project(h, i, &p, probe)?;
        let moved = probe.time("cluster.rebalance_ms", || {
            let balance = BipartBalance::new(fine, cfg.fm.balance_r);
            if balance.is_partition_feasible(&fine_p) {
                0
            } else {
                rebalance_bipart(fine, &mut fine_p, &balance, rng)
            }
        });
        probe.count("cluster.rebalance_moves", moved);
        let r = probe.time("fm.refine_ms", || {
            refine_in(fine, &mut fine_p, &cfg.fm, rng, ws)
        });
        probe.passes(Engine::Fm, &r.pass_stats, true);
        p = fine_p;
    }
    Ok(p)
}

/// `ml_kway_in` (quadrisection) as layer calls.
fn kway(
    h: &Hypergraph,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    probe: &mut Probe,
) -> Result<Partition, String> {
    let cfg = kway_config();
    let levels = coarsen(
        h,
        cfg.coarsen_threshold,
        cfg.matching_ratio,
        cfg.max_levels,
        rng,
        probe,
    )?;
    let coarsest = levels.coarse.last().unwrap_or(h);
    let (mut p, r) = probe.time("kway.initial_ms", || {
        kway_partition_in(coarsest, cfg.k, None, &[], &cfg.kway, rng, ws)
    });
    probe.passes(Engine::Kway, &r.pass_stats, false);
    for i in (0..levels.coarse.len()).rev() {
        let fine = levels.level(h, i);
        let mut fine_p = levels.project(h, i, &p, probe)?;
        let moved = probe.time("cluster.rebalance_ms", || {
            let balance = KwayBalance::new(fine, cfg.k, cfg.kway.balance_r);
            if balance.is_partition_feasible(&fine_p) {
                0
            } else {
                rebalance_kway_frozen(fine, &mut fine_p, &balance, None, rng)
            }
        });
        probe.count("cluster.rebalance_moves", moved);
        let r = probe.time("kway.refine_ms", || {
            kway_refine_in(fine, &mut fine_p, &[], &cfg.kway, rng, ws)
        });
        probe.passes(Engine::Kway, &r.pass_stats, true);
        p = fine_p;
    }
    Ok(p)
}

/// `fm_partition_in` with RND buckets as layer calls.
fn flat(h: &Hypergraph, rng: &mut MlRng, ws: &mut RefineWorkspace, probe: &mut Probe) -> Partition {
    let cfg = flat_config();
    let mut p = probe.time("fm.initial_ms", || Partition::random(h, 2, rng));
    let r = probe.time("fm.refine_ms", || refine_in(h, &mut p, &cfg, rng, ws));
    probe.passes(Engine::Fm, &r.pass_stats, true);
    p
}

/// One `mlpart` invocation of the CLI workload, in process: parse the
/// inputs in `dir`, preflight, run the constrained recursive-bisection
/// starts through the executor with the CLI's repair gate, and write the
/// best partition to `replay.part`. Returns the best cut and the written
/// bytes.
pub fn cli(
    dir: &Path,
    seed: u64,
    threads: usize,
    probe: &mut Probe,
) -> Result<(u64, Vec<u8>), String> {
    let t = Instant::now();
    let h = probe.time("hypergraph.read_hgr_ms", || {
        let file = File::open(dir.join(IN_HGR)).map_err(|e| e.to_string())?;
        read_hgr(file).map_err(|e| e.to_string())
    })?;
    let fixed = probe.time("hypergraph.read_fix_ms", || {
        let file = File::open(dir.join(IN_FIX)).map_err(|e| e.to_string())?;
        read_fix(file, h.num_modules(), CLI_K).map_err(|e| e.to_string())
    })?;
    let c = Constraints::new(CLI_K, CLI_EPSILON, fixed).map_err(|e| e.to_string())?;
    probe
        .time("core.preflight_ms", || preflight_constrained(&h, &c))
        .map_err(|e| e.to_string())?;
    let cfg = cli_config();
    let bounds = c.bounds(&h);
    let mask = c.fixed_mask(h.num_modules());
    let job = |rng: &mut MlRng, ws: &mut RefineWorkspace| {
        let (mut p, r) = recursive_ml_partition_budgeted_in(
            &h,
            &cfg,
            &c,
            rng,
            ws,
            &mut BudgetMeter::unlimited(),
        );
        let mut cut = r.cut;
        if !bounds.is_partition_feasible(&p) {
            let rec = repair_to_feasible(&h, &mut p, &bounds, &mask);
            if !rec.feasible {
                return None;
            }
            cut = rec.cut_after;
        }
        Some((cut, p))
    };
    let (batch, timing) = probe
        .time("core.recursive_ms", || {
            try_run_starts(CLI_RUNS, seed, threads, &job)
        })
        .map_err(|e| e.to_string())?;
    probe.exec_busy += Duration::from_secs_f64(timing.cpu_secs);
    probe.exec_wall += Duration::from_secs_f64(timing.wall_secs);
    if let Some(f) = batch.failures.first() {
        return Err(f.to_string());
    }
    // The CLI keeps the lowest cut, ties to the lowest start index.
    let mut best: Option<(u64, Partition)> = None;
    for (cut, p) in batch.survivors.into_iter().filter_map(|(_, v)| v) {
        if best.as_ref().is_none_or(|(c, _)| cut < *c) {
            best = Some((cut, p));
        }
    }
    let (cut, p) = best.ok_or("no balance-feasible partition")?;
    let out = dir.join("replay.part");
    probe
        .time("hypergraph.write_partition_ms", || {
            write_atomic_with(&out, |w| write_partition(&p, w))
        })
        .map_err(|e| e.to_string())?;
    probe.time("hypergraph.cut_ms", || metrics::cut(&h, &p));
    probe.total = t.elapsed();
    let bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
    Ok((cut, bytes))
}
