//! The four workloads: the inputs each generates, the pipeline call one
//! start makes, and the checks every start's output must pass.

use mlpart_core::{ml_bipartition_in, ml_kway_in, Constraints, MlConfig, MlKwayConfig};
use mlpart_fm::{fm_partition_in, BucketPolicy, FmConfig, RefineWorkspace};
use mlpart_hypergraph::io::{read_fix, read_hgr, read_partition, write_fix, write_hgr};
use mlpart_hypergraph::rng::MlRng;
use mlpart_hypergraph::{metrics, BipartBalance, Hypergraph, KwayBalance, Partition};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The CLI workload's invocation: `--k 8 --epsilon 0.1 --runs 1`.
pub const CLI_K: u32 = 8;
pub const CLI_EPSILON: f64 = 0.1;
pub const CLI_RUNS: usize = 1;
/// The CLI workload's files, inside its working directory.
pub const IN_HGR: &str = "in.hgr";
pub const IN_FIX: &str = "in.fix";
const CHECKPOINT: &str = "ck.jsonl";
const BEST_PART: &str = "best.part";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ML_F bipartitioning of the largest circuit.
    BisectMl,
    /// Flat FM with random bucket selection: refinement only.
    FlatRnd,
    /// ML quadrisection through the k-way engine.
    KwayQuad,
    /// The `mlpart` binary: file IO, pins, constrained k = 8, supervision.
    CliKway8,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BisectMl,
        Workload::FlatRnd,
        Workload::KwayQuad,
        Workload::CliKway8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BisectMl => "bisect-ml",
            Workload::FlatRnd => "flat-rnd",
            Workload::KwayQuad => "kway-quad",
            Workload::CliKway8 => "cli-kway8",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The synthetic suite circuit the workload partitions.
    pub fn circuit(self) -> &'static str {
        match self {
            Workload::BisectMl => "syn-golem3",
            Workload::FlatRnd | Workload::CliKway8 => "syn-industry2",
            Workload::KwayQuad => "syn-s13207",
        }
    }
}

/// `ML_F` as in Table IV: FM refinement with LIFO buckets, `R = 1`, `T = 35`.
pub fn bisect_config() -> MlConfig {
    MlConfig::fm()
}

/// The Table II RND cell: flat FM with random bucket selection.
pub fn flat_config() -> FmConfig {
    FmConfig {
        policy: BucketPolicy::Random,
        ..FmConfig::default()
    }
}

/// Table IX quadrisection: `k = 4`, `R = 1`, `T = 100`, sum-of-degrees gain.
pub fn kway_config() -> MlKwayConfig {
    MlKwayConfig::default()
}

/// What `mlpart --algo ml-c --k 8 --epsilon 0.1` runs per start, with the
/// CLI's default `R = 0.5` and `T = 35`.
pub fn cli_config() -> MlConfig {
    MlConfig::clip()
        .with_ratio(0.5)
        .with_threshold(35)
        .with_k(CLI_K)
        .with_epsilon(CLI_EPSILON)
}

/// A workload's inputs as the pipeline sees them.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub h: Hypergraph,
    /// The CLI workload's pins and ε window, as read back from `in.fix`.
    pub constraints: Option<Constraints>,
}

/// The generation seed of every workload's netlist: the one `mlpart
/// syn-NAME` uses, so each workload partitions the circuit the CLI names.
/// The run's `--seed` picks the starts, not the netlist: across seeds, a
/// different netlist moved cuts and start times by several times the
/// spread that different starts on one netlist give.
pub const NETLIST_SEED: u64 = 1997;

/// Generates the workload's netlist. The CLI workload writes it as
/// `dir/in.hgr`, with its pads pinned round-robin to the 8 parts in
/// `dir/in.fix`, and reads both back as `mlpart` will. Returns the inputs
/// and the time spent generating and writing.
pub fn make_inputs(
    wl: Workload,
    circuit: &str,
    dir: &Path,
) -> Result<(Inputs, Duration, Duration), String> {
    let c = mlpart_gen::by_name(circuit).ok_or_else(|| format!("unknown circuit {circuit}"))?;
    let t = Instant::now();
    if wl != Workload::CliKway8 {
        let h = c.generate(NETLIST_SEED);
        let generate = t.elapsed();
        let inputs = Inputs {
            h,
            constraints: None,
        };
        return Ok((inputs, generate, Duration::ZERO));
    }
    let (h, pads) = c.generate_with_pads(NETLIST_SEED);
    let generate = t.elapsed();
    let t = Instant::now();
    let fixed: Vec<_> = pads
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32 % CLI_K))
        .collect();
    let mut hgr = Vec::new();
    write_hgr(&h, &mut hgr).map_err(|e| e.to_string())?;
    let mut fix = Vec::new();
    write_fix(&fixed, h.num_modules(), &mut fix).map_err(|e| e.to_string())?;
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("cannot write {name}: {e}"))
    };
    write(IN_HGR, &hgr)?;
    write(IN_FIX, &fix)?;
    let written = t.elapsed();
    let h = read_hgr(hgr.as_slice()).map_err(|e| e.to_string())?;
    let fixed = read_fix(fix.as_slice(), h.num_modules(), CLI_K).map_err(|e| e.to_string())?;
    let constraints = Constraints::new(CLI_K, CLI_EPSILON, fixed).map_err(|e| e.to_string())?;
    let inputs = Inputs {
        h,
        constraints: Some(constraints),
    };
    Ok((inputs, generate, written))
}

/// One start through the workload's pipeline entry point; returns the
/// partition and the cut the pipeline reported.
///
/// # Panics
///
/// Panics on [`Workload::CliKway8`], whose starts are `mlpart` processes
/// (see [`invoke`]).
pub fn start(
    wl: Workload,
    h: &Hypergraph,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> (Partition, u64) {
    match wl {
        Workload::BisectMl => {
            let (p, r) = ml_bipartition_in(h, &bisect_config(), rng, ws);
            (p, r.cut)
        }
        Workload::FlatRnd => {
            let (p, r) = fm_partition_in(h, None, &flat_config(), rng, ws);
            (p, r.cut)
        }
        Workload::KwayQuad => {
            let (p, r) = ml_kway_in(h, &kway_config(), &[], rng, ws);
            (p, r.cut)
        }
        Workload::CliKway8 => panic!("the CLI workload runs through workload::invoke"),
    }
}

/// Checks one output of the workload: a valid partition with the reported
/// cut (recomputed with `metrics::cut`), inside the workload's balance
/// window, with every pin honoured.
pub fn check(
    wl: Workload,
    inputs: &Inputs,
    p: &Partition,
    reported_cut: u64,
) -> Result<(), String> {
    let h = &inputs.h;
    if !p.validate(h) {
        return Err("the partition does not match the netlist".to_string());
    }
    let cut = metrics::cut(h, p);
    if cut != reported_cut {
        return Err(format!("reported cut {reported_cut}, recomputed {cut}"));
    }
    let feasible = match wl {
        Workload::BisectMl => {
            p.k() == 2
                && BipartBalance::new(h, bisect_config().fm.balance_r).is_partition_feasible(p)
        }
        Workload::FlatRnd => {
            p.k() == 2 && BipartBalance::new(h, flat_config().balance_r).is_partition_feasible(p)
        }
        Workload::KwayQuad => {
            let cfg = kway_config();
            p.k() == cfg.k
                && KwayBalance::new(h, cfg.k, cfg.kway.balance_r).is_partition_feasible(p)
        }
        Workload::CliKway8 => {
            let c = inputs
                .constraints
                .as_ref()
                .ok_or("the CLI workload has no .fix")?;
            p.k() == CLI_K && c.bounds(h).is_partition_feasible(p)
        }
    };
    if !feasible {
        return Err(format!(
            "part areas {:?} outside the balance window",
            p.part_areas()
        ));
    }
    for &(v, part) in inputs.constraints.iter().flat_map(Constraints::fixed) {
        if p.part(v) != part {
            return Err(format!(
                "pin {} on part {} instead of {part}",
                v.index(),
                p.part(v)
            ));
        }
    }
    Ok(())
}

/// What one checked `mlpart` invocation of the CLI workload produced.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub wall: Duration,
    /// The min cut `mlpart` printed.
    pub cut: u64,
    /// The bytes of `best.part`.
    pub partition: Vec<u8>,
    pub checkpoint_bytes: u64,
}

/// Runs `mlpart` once in `dir` with start seed `seed`, waits for it, and
/// checks its output: exit code 0, and `best.part` re-read with
/// `read_partition` passes [`check`] against the printed min cut.
pub fn invoke(
    mlpart: &Path,
    dir: &Path,
    inputs: &Inputs,
    seed: u64,
    threads: usize,
) -> Result<Invocation, String> {
    let _ = std::fs::remove_file(dir.join(BEST_PART));
    let (k, eps, runs) = (
        CLI_K.to_string(),
        CLI_EPSILON.to_string(),
        CLI_RUNS.to_string(),
    );
    let (threads, seed) = (threads.to_string(), seed.to_string());
    let t = Instant::now();
    let out = Command::new(mlpart)
        .current_dir(dir)
        .args([IN_HGR, "--algo", "ml-c", "--k", &k, "--epsilon", &eps])
        .args(["--fixed", IN_FIX, "--runs", &runs, "--threads", &threads])
        .args([
            "--seed",
            &seed,
            "--checkpoint",
            CHECKPOINT,
            "--output",
            BEST_PART,
        ])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", mlpart.display()))?;
    let wall = t.elapsed();
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let last = stderr.lines().last().unwrap_or("");
        return Err(format!("mlpart exited with {}: {last}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let cut = stdout
        .split_whitespace()
        .skip_while(|&w| w != "min")
        .nth(1)
        .and_then(|w| w.parse().ok())
        .ok_or_else(|| format!("no min cut in mlpart's output {stdout:?}"))?;
    let partition =
        std::fs::read(dir.join(BEST_PART)).map_err(|e| format!("cannot read {BEST_PART}: {e}"))?;
    let p = read_partition(&inputs.h, partition.as_slice()).map_err(|e| e.to_string())?;
    check(Workload::CliKway8, inputs, &p, cut)?;
    let checkpoint_bytes = std::fs::metadata(dir.join(CHECKPOINT))
        .map_err(|e| format!("cannot stat {CHECKPOINT}: {e}"))?
        .len();
    Ok(Invocation {
        wall,
        cut,
        partition,
        checkpoint_bytes,
    })
}
