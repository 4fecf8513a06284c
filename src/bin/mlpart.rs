//! `mlpart` — command-line netlist partitioner.
//!
//! Reads an hMETIS `.hgr` netlist, runs the requested partitioning
//! algorithm for a number of independent starts, reports min/avg/std cut,
//! and optionally writes the best partition (one part id per line).
//!
//! ```text
//! mlpart <netlist.hgr> [--algo ml-c|ml-f|fm|clip|lsmc|two-phase]
//!                      [--k K] [--epsilon E] [--fixed cells.fix]
//!                      [--ratio R] [--threshold T]
//!                      [--runs N] [--seed S] [--threads P]
//!                      [--max-moves N] [--max-passes N] [--max-levels N]
//!                      [--deadline-secs F]
//!                      [--retries N] [--retry-degrade-passes N]
//!                      [--checkpoint ckpt.jsonl] [--resume]
//!                      [--output best.part] [--stats]
//!                      [--trace-out trace.json] [--report-out report.json]
//! ```
//!
//! `--k 4` uses multilevel quadrisection (only with the ml algorithms);
//! any other `--k` is served by recursive multilevel bisection. `--fixed`
//! pre-assigns modules from a `.fix` file (they never move), and
//! `--epsilon` sets the per-part balance window; either flag (or a `--k`
//! outside {2, 4}) runs the pipelines under the constrained schedule,
//! whose pins are honored at every level of the hierarchy.
//! `--stats` prints the per-level refinement trajectory of the first run
//! (multilevel algorithms only). `--threads` spreads the independent starts
//! over worker threads; every start draws its seed from the same per-start
//! stream and the best cut ties break to the lowest start index, so the
//! reported cuts and the written partition are bit-identical at every
//! thread count (only the wall-clock changes).
//!
//! The `--max-*` flags bound each start's effort (see `mlpart --help` for
//! the exit-code contract); a start that panics is isolated and reported
//! while the surviving starts' results stay bit-identical to a run without
//! the failed starts.
//!
//! `--trace-out` writes a Chrome Trace Event file (loadable in Perfetto or
//! `chrome://tracing`) and `--report-out` writes a `mlpart-run-report-v3`
//! JSON document; both need a binary built with the `obs` feature and imply
//! tracing for the whole run. Trace *content* (everything except the
//! timestamp fields) is bit-identical across repeats and thread counts.
//!
//! `--retries` gives each start up to N deterministically reseeded
//! attempts before it counts as failed; `--checkpoint` records every
//! completed start to an `mlpart-checkpoint-v1` file (its header written
//! atomically, then one synced line appended per completed start) and
//! `--resume` skips the recorded starts, reproducing the
//! uninterrupted run's partition and stripped report byte-for-byte — even
//! after a mid-batch `SIGKILL`. A start whose solution leaves its balance
//! window (retry exhaustion, truncation, injected faults) is funneled
//! through a deterministic greedy repair pass; solutions that stay
//! infeasible are never written, and if none survives the run exits 2.
//! Every artifact (`--output`, `--trace-out`, `--report-out`,
//! `--folded-out`, checkpoints) is written via write-temp-then-rename, so
//! a crash never leaves a torn file.

use mlpart::checkpoint::{self, CheckpointConfig, CheckpointWriter, StartOutcome, StartValue};
use mlpart::cluster::MatchConfig;
use mlpart::gen::by_name;
use mlpart::hypergraph::io::{read_fix, read_hgr, write_atomic_with, write_partition};
use mlpart::hypergraph::metrics::CutStats;
use mlpart::hypergraph::rng::MlRng;
use mlpart::hypergraph::{fault_point, obs_span};
use mlpart::lsmc::{lsmc_bipartition, LsmcConfig};
use mlpart::{
    fm_partition, ml_bipartition, ml_kway, preflight_constrained, recursive_ml_partition,
    repair_to_feasible, run_supervised, two_phase_fm, Attempt, Budget, BudgetMeter, Constraints,
    Engine, ExecError, FmConfig, Hypergraph, LevelStats, MlConfig, MlKwayConfig, PartBounds,
    Partition, RefineRequest, RefineWorkspace, RepairRecord, Request, ResumeState, RetryPolicy,
    Sink, StartDone, Truncation, ATTEMPT_STRIDE, DEFAULT_EPSILON,
};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct CliArgs {
    input: String,
    algo: String,
    k: u32,
    ratio: f64,
    threshold: usize,
    runs: usize,
    seed: u64,
    threads: usize,
    budget: Budget,
    output: Option<String>,
    stats: bool,
    trace_out: Option<String>,
    report_out: Option<String>,
    folded_out: Option<String>,
    /// Balance tolerance ε; `Some` selects the constrained schedule even
    /// without pins.
    epsilon: Option<f64>,
    /// Path to an hMETIS/Coloquinte `.fix` file of pre-assigned modules.
    fixed: Option<String>,
    /// Attempts per start (`--retries`), in `1..=ATTEMPT_STRIDE`.
    retries: u32,
    /// Pass budget for a start's final attempt after all earlier attempts
    /// failed (`--retry-degrade-passes`): graceful degradation.
    retry_degrade_passes: Option<u64>,
    /// Checkpoint file recording each completed start (`--checkpoint`).
    checkpoint: Option<String>,
    /// Skip the starts already recorded in the checkpoint (`--resume`).
    resume: bool,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            input: String::new(),
            algo: "ml-c".to_owned(),
            k: 2,
            ratio: 0.5,
            threshold: 35,
            runs: 10,
            seed: 1,
            threads: mlpart::exec::default_threads(),
            budget: Budget::UNLIMITED,
            output: None,
            stats: false,
            trace_out: None,
            report_out: None,
            folded_out: None,
            epsilon: None,
            fixed: None,
            retries: 1,
            retry_degrade_passes: None,
            checkpoint: None,
            resume: false,
        }
    }
}

impl CliArgs {
    /// `true` when the invocation needs the constrained schedule: pinned
    /// modules, an explicit ε, or a part count the paper's schedule does
    /// not serve. Other invocations run the paper's schedule.
    fn is_constrained(&self) -> bool {
        self.fixed.is_some() || self.epsilon.is_some() || (self.k != 2 && self.k != 4)
    }
}

/// What one invocation asked for.
#[derive(Debug, Clone, PartialEq)]
enum CliCommand {
    /// Partition a netlist (boxed: the args dwarf the other variant).
    Run(Box<CliArgs>),
    /// Print the long help and exit 0.
    Help,
}

const USAGE: &str =
    "usage: mlpart <netlist.hgr | syn-NAME> [--algo ml-c|ml-f|fm|clip|lsmc|two-phase] \
[--k K] [--epsilon E] [--fixed cells.fix] [--ratio R] [--threshold T] \
[--runs N] [--seed S] [--threads P] \
[--max-moves N] [--max-passes N] [--max-levels N] [--deadline-secs F] \
[--retries N] [--retry-degrade-passes N] [--checkpoint ckpt.jsonl] [--resume] \
[--output best.part] [--stats] [--trace-out trace.json] [--report-out report.json] \
[--folded-out stacks.folded]\n\
run `mlpart --help` for details and the exit-code contract";

const HELP: &str = "mlpart — multilevel circuit partitioner \
(Alpert-Huang-Kahng, DAC 1997)

usage: mlpart <netlist.hgr | syn-NAME | -> [options]

input:
  netlist.hgr     hMETIS-format netlist file
  syn-NAME        a synthetic suite circuit (e.g. syn-balu)
  -               read the netlist from stdin

options:
  --algo A        ml-c | ml-f | fm | clip | lsmc | two-phase   [ml-c]
  --k K           number of parts, any K >= 2                  [2]
  --epsilon E     balance tolerance: each part stays within
                  (1 +/- E) x A(V)/K                           [0.2]
  --fixed FILE    hMETIS-style .fix file pre-assigning modules
                  (one line per module: part id, or -1 = free);
                  fixed modules never move
  --ratio R       matching ratio in (0, 1]                     [0.5]
  --threshold T   coarsening stop threshold                    [35]
  --runs N        independent starts                           [10]
  --seed S        base seed; start i uses child_seed(S, i)     [1]
  --threads P     worker threads (results identical for all P) [cores]
  --output PATH   write the best partition (one part id/line)
  --stats         print the first start's per-level trajectory
  --trace-out F   write a Chrome Trace Event file  (obs build)
  --report-out F  write a mlpart-run-report-v3 doc (obs build)
  --folded-out F  write folded stacks for flamegraph.pl/inferno
                  (obs build; self-time per stack, ns samples)

budgets (per start; cooperative, checked at pass/level boundaries):
  --max-moves N      stop refining after ~N attempted moves
  --max-passes N     stop refining after N passes
  --max-levels N     refine only the N coarsest uncoarsening levels
  --deadline-secs F  soft wall-clock deadline — NON-deterministic
                     (machine-dependent); the three limits above are
                     bit-reproducible at every thread count

A budget-truncated run still produces a valid, balance-feasible
partition (the best solution found so far, projected to the finest
level) — it is written to --output as usual.

supervision (crash-safe batches):
  --retries N     attempts per start before it counts as failed;
                  attempt a reseeds deterministically, so results
                  stay bit-identical at every thread count (1..=8) [1]
  --retry-degrade-passes N
                  run a start's *final* attempt under --max-passes N
                  (graceful degradation; needs --retries >= 2)
  --checkpoint F  record every completed start to F, a
                  mlpart-checkpoint-v1 JSONL file: the header is
                  written atomically, then each completed start
                  appends one synced line
  --resume        skip the starts recorded in --checkpoint's file;
                  the resumed run's partition and stripped report
                  are byte-identical to an uninterrupted run's
                  (--threads and output paths may change; all
                  normative flags must match the checkpoint)

Every start's output must land inside its balance window; a start
that comes back outside it (after faults, retry exhaustion, or
truncation) is repaired by a deterministic greedy pass and reported
under `repairs`. A start that stays infeasible is excluded, and all
artifacts are written atomically (write-temp-then-rename).

exit codes:
  0  success
  1  execution failure (every start panicked, or an output or
     checkpoint path could not be written)
  2  invalid input: bad flags, unreadable or malformed netlist,
     an infeasible problem instance (preflight), a malformed
     MLPART_FAULTS spec, a corrupt or mismatched --resume
     checkpoint, or no balance-feasible partition survived
  3  budget truncated: at least one start hit a --max-* limit or
     the deadline; the partial result (cuts, --output partition)
     is still produced";

fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<CliCommand, String> {
    let mut out = CliArgs::default();
    let mut it = args.into_iter().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--algo" => out.algo = value("--algo")?,
            "--k" => {
                out.k = value("--k")?.parse().map_err(|_| "invalid --k")?;
                if out.k < 2 {
                    return Err("--k must be at least 2".to_owned());
                }
            }
            "--epsilon" => {
                let eps: f64 = value("--epsilon")?
                    .parse()
                    .map_err(|_| "invalid --epsilon")?;
                if !(eps > 0.0 && eps.is_finite()) {
                    return Err("--epsilon must be positive".to_owned());
                }
                out.epsilon = Some(eps);
            }
            "--fixed" => out.fixed = Some(value("--fixed")?),
            "--ratio" => {
                out.ratio = value("--ratio")?.parse().map_err(|_| "invalid --ratio")?;
                if !(out.ratio > 0.0 && out.ratio <= 1.0) {
                    return Err("--ratio must be in (0, 1]".to_owned());
                }
            }
            "--threshold" => {
                out.threshold = value("--threshold")?
                    .parse()
                    .map_err(|_| "invalid --threshold")?;
            }
            "--runs" => {
                out.runs = value("--runs")?.parse().map_err(|_| "invalid --runs")?;
                if out.runs == 0 {
                    return Err("--runs must be positive".to_owned());
                }
            }
            "--seed" => out.seed = value("--seed")?.parse().map_err(|_| "invalid --seed")?,
            "--threads" => {
                out.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads")?;
                if out.threads == 0 {
                    return Err("--threads must be positive".to_owned());
                }
            }
            "--max-moves" => {
                out.budget.max_moves = Some(
                    value("--max-moves")?
                        .parse()
                        .map_err(|_| "invalid --max-moves")?,
                );
            }
            "--max-passes" => {
                out.budget.max_passes = Some(
                    value("--max-passes")?
                        .parse()
                        .map_err(|_| "invalid --max-passes")?,
                );
            }
            "--max-levels" => {
                out.budget.max_levels = Some(
                    value("--max-levels")?
                        .parse()
                        .map_err(|_| "invalid --max-levels")?,
                );
            }
            "--deadline-secs" => {
                let secs: f64 = value("--deadline-secs")?
                    .parse()
                    .map_err(|_| "invalid --deadline-secs")?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--deadline-secs must be positive".to_owned());
                }
                out.budget.soft_deadline_secs = Some(secs);
            }
            "--retries" => {
                out.retries = value("--retries")?
                    .parse()
                    .map_err(|_| "invalid --retries")?;
                if out.retries == 0 || u64::from(out.retries) > ATTEMPT_STRIDE {
                    return Err(format!("--retries must be in 1..={ATTEMPT_STRIDE}"));
                }
            }
            "--retry-degrade-passes" => {
                out.retry_degrade_passes = Some(
                    value("--retry-degrade-passes")?
                        .parse()
                        .map_err(|_| "invalid --retry-degrade-passes")?,
                );
            }
            "--checkpoint" => out.checkpoint = Some(value("--checkpoint")?),
            "--resume" => out.resume = true,
            "--output" => out.output = Some(value("--output")?),
            "--stats" => out.stats = true,
            "--trace-out" => out.trace_out = Some(value("--trace-out")?),
            "--report-out" => out.report_out = Some(value("--report-out")?),
            "--folded-out" => out.folded_out = Some(value("--folded-out")?),
            "--help" | "-h" => return Ok(CliCommand::Help),
            other if out.input.is_empty() && !other.starts_with('-') => {
                out.input = other.to_owned();
            }
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }
    if out.input.is_empty() {
        return Err(USAGE.to_owned());
    }
    if out.algo == "lsmc" && !out.budget.is_unlimited() {
        return Err("--max-*/--deadline-secs are not supported with --algo lsmc".to_owned());
    }
    if out.retry_degrade_passes.is_some() && out.retries < 2 {
        return Err("--retry-degrade-passes needs --retries >= 2".to_owned());
    }
    if out.algo == "lsmc" && out.retry_degrade_passes.is_some() {
        return Err("--retry-degrade-passes is not supported with --algo lsmc".to_owned());
    }
    if out.resume && out.checkpoint.is_none() {
        return Err("--resume needs --checkpoint".to_owned());
    }
    if out.is_constrained() {
        match out.algo.as_str() {
            "ml-c" | "ml-f" => {}
            "two-phase" if out.k == 2 => {}
            "two-phase" => {
                return Err("--algo two-phase is 2-way only; drop --k or use ml-c/ml-f".to_owned());
            }
            other => {
                return Err(format!(
                    "--fixed/--epsilon/general --k need a constraint-aware algorithm \
                     (ml-c, ml-f, or two-phase), not {other:?}"
                ));
            }
        }
    }
    Ok(CliCommand::Run(Box::new(out)))
}

fn load_netlist(input: &str) -> Result<Hypergraph, String> {
    // Synthetic suite circuits can be named directly (prefix `syn-`).
    if let Some(circuit) = input.strip_prefix("syn-").and_then(by_name) {
        return Ok(circuit.generate(1997));
    }
    if input == "-" {
        let mut text = Vec::new();
        std::io::stdin()
            .read_to_end(&mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        return read_hgr(text.as_slice()).map_err(|e| format!("cannot parse netlist: {e}"));
    }
    let file = std::fs::File::open(input).map_err(|e| format!("cannot open {input}: {e}"))?;
    read_hgr(file).map_err(|e| format!("cannot parse {input}: {e}"))
}

/// One engine invocation's raw outcome: the partition, its cut, the
/// per-level refinement trajectory (multilevel algorithms only), and the
/// budget-truncation record when a `--max-*` limit fired.
type StartResult = (Partition, u64, Vec<LevelStats>, Option<Truncation>);

fn run_engine(
    h: &Hypergraph,
    args: &CliArgs,
    constraints: Option<&Constraints>,
    budget: &Budget,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
) -> Result<StartResult, String> {
    let fm_cfg = |engine| FmConfig {
        engine,
        ..FmConfig::default()
    };
    let ml_cfg = |engine| MlConfig {
        matching_ratio: args.ratio,
        coarsen_threshold: args.threshold,
        fm: fm_cfg(engine),
        ..MlConfig::default()
    };
    let kway_cfg = MlKwayConfig {
        matching_ratio: args.ratio,
        coarsen_threshold: args.threshold.max(100),
        ..MlKwayConfig::default()
    };
    // Each start spends against its own meter, so budgets cannot couple
    // starts and results stay thread-count-invariant.
    let mut meter = BudgetMeter::new(budget);
    let k = constraints.map_or(args.k, Constraints::k);
    let engine = match args.algo.as_str() {
        "ml-c" | "clip" => Engine::Clip,
        _ => Engine::Fm,
    };
    match (args.algo.as_str(), k) {
        ("ml-c" | "ml-f", _) | ("two-phase", 2) => {}
        (_, 4) => return Err("--k 4 requires --algo ml-c or ml-f".to_owned()),
        ("fm" | "clip", _) => {
            let req = RefineRequest {
                workspace: Some(ws),
                meter: Some(&mut meter),
                ..RefineRequest::default()
            };
            let (p, r) = fm_partition(h, &fm_cfg(engine), rng, req).map_err(|e| e.to_string())?;
            return Ok((p, r.cut, Vec::new(), meter.truncation()));
        }
        ("lsmc", _) => {
            let cfg = LsmcConfig {
                descents: 20,
                ..LsmcConfig::default()
            };
            let (p, r) = lsmc_bipartition(h, &cfg, rng).map_err(|e| e.to_string())?;
            return Ok((p, r.cut, Vec::new(), None));
        }
        (other, _) => return Err(format!("unknown algorithm {other:?}\n{USAGE}")),
    }
    // `constraints` (pins, an explicit ε, or general k) selects the
    // constrained schedule; parsing already restricted it to ml-c/ml-f and
    // 2-way two-phase.
    let req = Request {
        constraints,
        meter: Some(&mut meter),
        workspace: Some(ws),
    };
    let run = match (args.algo.as_str(), k) {
        ("two-phase", _) => {
            let match_cfg = MatchConfig::with_ratio(args.ratio);
            two_phase_fm(h, &fm_cfg(Engine::Fm), &match_cfg, rng, req)
                .map(|(p, r)| (p, r.cut, Vec::new(), r.truncation))
        }
        (_, 2) => ml_bipartition(h, &ml_cfg(engine), rng, req)
            .map(|(p, r)| (p, r.cut, r.level_stats, r.truncation)),
        (_, 4) => {
            ml_kway(h, &kway_cfg, rng, req).map(|(p, r)| (p, r.cut, r.level_stats, r.truncation))
        }
        _ => recursive_ml_partition(h, &ml_cfg(engine), rng, req)
            .map(|(p, r)| (p, r.cut, Vec::new(), r.truncation)),
    };
    run.map_err(|e| e.to_string())
}

/// One supervised start: runs the engine under the attempt's budget (the
/// caller's, or the degraded final-attempt budget), then gates the raw
/// solution through the balance window — repairing it in place when a
/// fault, retry, or truncation left it outside. `feasible: false` in the
/// returned repair record marks a solution the driver must discard.
#[allow(clippy::too_many_arguments)]
fn run_once(
    h: &Hypergraph,
    args: &CliArgs,
    constraints: Option<&Constraints>,
    bounds: &PartBounds,
    fixed_mask: &[bool],
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    attempt: Attempt,
) -> StartValue {
    let budget = attempt.budget.copied().unwrap_or(args.budget);
    let (mut partition, mut cut, level_stats, truncation) =
        run_engine(h, args, constraints, &budget, rng, ws)?;
    if fault_point!(should_unbalance("start", attempt.start as u64)) {
        // Deterministic imbalance injection: overfill part 0 with free
        // modules (id order) so the repair gate has real work to do.
        for v in (0..h.num_modules()).map(mlpart::hypergraph::ModuleId::new) {
            if partition.part_area(0) > bounds.hi(0) {
                break;
            }
            if !fixed_mask.get(v.index()).copied().unwrap_or(false) && partition.part(v) != 0 {
                partition.move_module(h, v, 0);
            }
        }
        cut = mlpart::hypergraph::metrics::cut(h, &partition);
    }
    let repair = if bounds.is_partition_feasible(&partition) {
        None
    } else {
        let rec = repair_to_feasible(h, &mut partition, bounds, fixed_mask);
        cut = rec.cut_after;
        Some(rec)
    };
    Ok(StartOutcome {
        partition,
        cut,
        level_stats,
        truncation,
        repair,
    })
}

/// Writes `content` to `path` atomically (write-temp-then-rename), mapping
/// failures to a printable message.
#[cfg(feature = "obs")]
fn write_text(path: &str, content: &str) -> Result<(), String> {
    mlpart::hypergraph::io::write_atomic(path, content.as_bytes())
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Prints the per-level refinement trajectory collected by a multilevel run.
fn print_level_stats(stats: &[LevelStats]) {
    if stats.is_empty() {
        eprintln!("per-level stats: none (flat algorithm)");
        return;
    }
    eprintln!(
        "level  modules  cut_before  cut_after  kept/attempted  rebalance  passes  inspected    updates  fill_ms"
    );
    for s in stats {
        eprintln!(
            "{:>5}  {:>7}  {:>10}  {:>9}  {:>6}/{:<7}  {:>9}  {:>6}  {:>9}  {:>9}  {:>7.3}",
            s.level,
            s.modules,
            s.cut_before,
            s.cut_after,
            s.kept_moves,
            s.attempted_moves,
            s.rebalance_moves,
            s.passes,
            s.inspected,
            s.updates,
            s.fill_time_ns as f64 / 1e6,
        );
    }
}

/// Exit-code contract (documented in `--help`): success / failure /
/// invalid-input / budget-truncated.
const EXIT_FAILURE: u8 = 1;
const EXIT_INVALID_INPUT: u8 = 2;
const EXIT_TRUNCATED: u8 = 3;

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(CliCommand::Help) => {
            println!("{HELP}");
            return ExitCode::SUCCESS;
        }
        Ok(CliCommand::Run(a)) => *a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_INVALID_INPUT);
        }
    };
    // Fault plans come from the environment, not argv, but a malformed one
    // is the same class of mistake: reject it eagerly, before any work.
    #[cfg(feature = "fault")]
    if let Err(e) = mlpart::fault::validate_env() {
        eprintln!("invalid MLPART_FAULTS: {e}");
        return ExitCode::from(EXIT_INVALID_INPUT);
    }
    let h = match load_netlist(&args.input) {
        Ok(h) => h,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(EXIT_INVALID_INPUT);
        }
    };
    // Constraint assembly: `.fix` pins and the ε window are invalid-input
    // concerns, resolved before any start runs.
    let constraints = if args.is_constrained() {
        let fixed = match &args.fixed {
            Some(path) => {
                let file = match std::fs::File::open(path) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot open {path}: {e}");
                        return ExitCode::from(EXIT_INVALID_INPUT);
                    }
                };
                match read_fix(file, h.num_modules(), args.k) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot parse {path}: {e}");
                        return ExitCode::from(EXIT_INVALID_INPUT);
                    }
                }
            }
            None => Vec::new(),
        };
        match Constraints::new(args.k, args.epsilon.unwrap_or(DEFAULT_EPSILON), fixed) {
            Ok(c) => Some(c),
            Err(e) => {
                eprintln!("invalid constraints: {e}");
                return ExitCode::from(EXIT_INVALID_INPUT);
            }
        }
    } else {
        None
    };
    // Pre-flight: reject infeasible problem instances with a typed message
    // before any start burns cycles on them. An unconstrained run is checked,
    // and its starts gated, under `Constraints::unconstrained`: the default
    // ε = 2r gives the paper's §III-B window.
    let window = constraints
        .clone()
        .unwrap_or_else(|| Constraints::unconstrained(args.k));
    if let Err(e) = preflight_constrained(&h, &window) {
        eprintln!("infeasible input: {e}");
        return ExitCode::from(EXIT_INVALID_INPUT);
    }
    eprintln!(
        "{}: {} modules, {} nets, {} pins",
        args.input,
        h.num_modules(),
        h.num_nets(),
        h.num_pins()
    );
    let tracing =
        args.trace_out.is_some() || args.report_out.is_some() || args.folded_out.is_some();
    #[cfg(not(feature = "obs"))]
    if tracing {
        eprintln!(
            "--trace-out/--report-out/--folded-out need a binary built with the `obs` \
             feature (cargo build --release --features obs)"
        );
        return ExitCode::from(EXIT_INVALID_INPUT);
    }
    // Supervision setup: the balance window and fixed mask gate every
    // start's output, the retry policy governs reseeded attempts, and the
    // checkpoint config pins this invocation's identity on disk.
    let bounds = window.bounds(&h);
    let fixed_mask = constraints
        .as_ref()
        .map(|c| c.fixed_mask(h.num_modules()))
        .unwrap_or_default();
    let policy = RetryPolicy {
        max_attempts: args.retries,
        degraded_final: args.retry_degrade_passes.map(|n| Budget {
            max_passes: Some(n),
            ..args.budget
        }),
    };
    let ckpt_config = CheckpointConfig {
        circuit: args.input.clone(),
        algo: args.algo.clone(),
        k: args.k,
        epsilon: args.epsilon,
        fixed: args.fixed.clone(),
        ratio: args.ratio,
        threshold: args.threshold,
        runs: args.runs,
        seed: args.seed,
        retries: args.retries,
        degraded_passes: args.retry_degrade_passes,
        budget: args.budget,
        // Records carry traces exactly when an artifact flag asks for them
        // (a build without `obs` has already refused those flags).
        traced: tracing,
    };
    let mut resume_state: ResumeState<StartValue> = ResumeState::default();
    let mut restored_lines = BTreeMap::new();
    if args.resume {
        if let Some(path) = &args.checkpoint {
            match std::fs::read_to_string(path) {
                Ok(text) => match checkpoint::load(&text, &ckpt_config, &h) {
                    Ok(loaded) => {
                        eprintln!(
                            "resuming from {path}: {} of {} starts already done",
                            loaded.resume.done.len(),
                            args.runs
                        );
                        resume_state = loaded.resume;
                        restored_lines = loaded.lines;
                    }
                    Err(e) => {
                        eprintln!("cannot resume from {path}: {e}");
                        return ExitCode::from(EXIT_INVALID_INPUT);
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    eprintln!("note: checkpoint {path} not found; starting fresh");
                }
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::from(EXIT_INVALID_INPUT);
                }
            }
        }
    }
    // Restored starts carry no per-level stats: the checkpoint stores only
    // each start's result.
    let start0_restored = resume_state.done.iter().any(|p| p.start == 0);
    let writer = match &args.checkpoint {
        Some(path) => {
            match CheckpointWriter::create(path, ckpt_config.header_line(), restored_lines) {
                Ok(w) => Some(w),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::from(EXIT_FAILURE);
                }
            }
        }
        None => None,
    };
    // The sink runs on whichever worker finished a start; the writer
    // serializes and latches I/O errors internally.
    let sink_fn = |done: &StartDone<StartValue>| {
        if let Some(w) = &writer {
            w.record(done);
        }
    };
    let sink: Sink<'_, StartValue> = if writer.is_some() {
        Some(&sink_fn)
    } else {
        None
    };
    // Every start is an independent seeded job; the executor spreads them
    // over `--threads` workers, isolates per-attempt panics, retries under
    // the policy, and returns the outcomes in start order, so everything
    // below this line is oblivious to the thread count. When an artifact
    // flag asks for a trace, the whole batch is captured under one `run`
    // span and the per-start streams arrive merged in start order — restored
    // starts splice their recorded streams back in, keeping resumed trace
    // content identical.
    let run_batch = || {
        obs_span!("run", "runs" => args.runs, "seed" => args.seed, "k" => args.k);
        run_supervised(
            args.runs,
            args.seed,
            args.threads,
            &policy,
            resume_state,
            sink,
            &|rng, ws, attempt| {
                run_once(
                    &h,
                    &args,
                    constraints.as_ref(),
                    &bounds,
                    &fixed_mask,
                    rng,
                    ws,
                    attempt,
                )
            },
        )
    };
    #[cfg(feature = "obs")]
    let (batch_result, trace) = if tracing {
        let (result, trace) = mlpart::obs::capture(run_batch);
        (result, Some(trace))
    } else {
        (run_batch(), None)
    };
    #[cfg(not(feature = "obs"))]
    let batch_result = run_batch();
    let (batch, timing) = match batch_result {
        Ok(ok) => ok,
        Err(e @ ExecError::AllStartsFailed { .. }) => {
            if let ExecError::AllStartsFailed { failures } = &e {
                for f in failures {
                    eprintln!("{f}");
                }
            }
            eprintln!("error: every start failed; no result produced");
            return ExitCode::from(EXIT_FAILURE);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    };
    for f in &batch.failures {
        eprintln!("warning: {f} (start excluded from results)");
    }
    for r in &batch.retries {
        eprintln!("note: {r}");
    }
    let mut best: Option<(u64, Partition)> = None;
    let mut cuts = Vec::with_capacity(batch.survivors.len());
    let mut truncations: Vec<(usize, Truncation)> = Vec::new();
    let mut repairs: Vec<(usize, RepairRecord)> = Vec::new();
    for (i, outcome) in batch.survivors {
        match outcome {
            Ok(v) => {
                if args.stats && i == 0 {
                    if start0_restored {
                        eprintln!(
                            "per-level stats: not shown (start 0 was restored from the \
                             checkpoint, which does not store them)"
                        );
                    } else {
                        print_level_stats(&v.level_stats);
                    }
                }
                if let Some(t) = v.truncation {
                    truncations.push((i, t));
                }
                if let Some(r) = v.repair {
                    repairs.push((i, r));
                    if !r.feasible {
                        // Repair could not reach the balance window: the
                        // solution is diagnostic material, never output.
                        eprintln!(
                            "warning: start {i} stayed balance-infeasible after repair \
                             (excluded from results)"
                        );
                        continue;
                    }
                    eprintln!(
                        "note: start {i} repaired to feasible in {} moves (cut {} -> {})",
                        r.moves, r.cut_before, r.cut_after
                    );
                }
                cuts.push(v.cut);
                if best.as_ref().is_none_or(|(c, _)| v.cut < *c) {
                    best = Some((v.cut, v.partition));
                }
            }
            Err(msg) => {
                // A configuration error (unknown algorithm, bad k/algo
                // combination) — every start reports the same one.
                eprintln!("{msg}");
                return ExitCode::from(EXIT_INVALID_INPUT);
            }
        }
    }
    for (i, t) in &truncations {
        eprintln!(
            "note: start {i} budget-truncated ({} limit at the {} checkpoint)",
            t.limit.name(),
            t.site
        );
    }
    #[cfg(feature = "obs")]
    if let Some(trace) = trace {
        if let Some(path) = &args.trace_out {
            if let Err(msg) = write_text(path, &mlpart::obs::to_chrome_trace(&trace)) {
                eprintln!("{msg}");
                return ExitCode::from(EXIT_FAILURE);
            }
            eprintln!("chrome trace written to {path}");
        }
        if let Some(path) = &args.folded_out {
            if let Err(msg) = write_text(path, &mlpart::obs::to_folded(&trace)) {
                eprintln!("{msg}");
                return ExitCode::from(EXIT_FAILURE);
            }
            eprintln!("folded stacks written to {path}");
        }
        if let Some(path) = &args.report_out {
            let report = mlpart::obs::report::RunReport {
                meta: vec![
                    (
                        "circuit",
                        mlpart::obs::V::S(Box::leak(args.input.clone().into_boxed_str())),
                    ),
                    (
                        "algo",
                        mlpart::obs::V::S(Box::leak(args.algo.clone().into_boxed_str())),
                    ),
                    ("k", args.k.into()),
                    ("ratio", args.ratio.into()),
                    ("threshold", args.threshold.into()),
                    ("runs", args.runs.into()),
                    ("seed", args.seed.into()),
                    ("threads", args.threads.into()),
                ],
                cuts: cuts.clone(),
                failures: batch
                    .failures
                    .iter()
                    .map(|f| mlpart::obs::report::FailureRecord {
                        start: f.start as u64,
                        phase: f.phase.clone(),
                        message: f.message.clone(),
                    })
                    .collect(),
                truncations: truncations
                    .iter()
                    .map(|(i, t)| mlpart::obs::report::TruncationRecord {
                        start: *i as u64,
                        limit: t.limit.name(),
                        site: t.site,
                        level: t.level.map(u64::from),
                        pass: t.pass.map(u64::from),
                    })
                    .collect(),
                retries: batch
                    .retries
                    .iter()
                    .map(|r| mlpart::obs::report::RetryReportRecord {
                        start: r.start as u64,
                        attempt: u64::from(r.attempt),
                        phase: r.phase.clone(),
                        message: r.message.clone(),
                    })
                    .collect(),
                repairs: repairs
                    .iter()
                    .map(|(i, r)| mlpart::obs::report::RepairReportRecord {
                        start: *i as u64,
                        moves: r.moves,
                        cut_before: r.cut_before,
                        cut_after: r.cut_after,
                        feasible: r.feasible,
                    })
                    .collect(),
                wall_secs: timing.wall_secs,
                cpu_secs: timing.cpu_secs,
                trace,
            };
            if let Err(msg) = write_text(path, &report.to_json()) {
                eprintln!("{msg}");
                return ExitCode::from(EXIT_FAILURE);
            }
            eprintln!("run report written to {path}");
        }
    }
    if cuts.is_empty() {
        // Every surviving start stayed outside its balance window even
        // after repair: there is no feasible partition to report or write.
        // The trace/report artifacts above are still produced (diagnostic
        // material), but --output is not.
        eprintln!("error: no balance-feasible partition produced");
        return ExitCode::from(EXIT_INVALID_INPUT);
    }
    let stats = CutStats::from_samples(&cuts);
    println!(
        "{} x{} runs: min {} avg {:.1} std {:.1} ({:.2}s wall, {:.2}s cpu, {} threads)",
        args.algo,
        cuts.len(),
        stats.min,
        stats.avg,
        stats.std,
        timing.wall_secs,
        timing.cpu_secs,
        args.threads.min(args.runs),
    );
    if let Some(path) = &args.output {
        let Some((_, p)) = best else {
            // Unreachable: cuts and best fill together — but a typed exit
            // beats a panic if that ever changes.
            eprintln!("no partition to write");
            return ExitCode::from(EXIT_FAILURE);
        };
        match write_atomic_with(path, |w| write_partition(&p, w)) {
            Ok(()) => eprintln!("best partition written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(EXIT_FAILURE);
            }
        }
    }
    if let Some(w) = &writer {
        // Latched checkpoint I/O errors surface once, after the artifacts:
        // the run's results stand, but scripts must not trust the file.
        if let Some(e) = w.error() {
            eprintln!("{e}");
            return ExitCode::from(EXIT_FAILURE);
        }
    }
    if !truncations.is_empty() {
        // Partial-but-valid result: everything above ran (cuts printed,
        // partition written); the code tells scripts the budget fired.
        return ExitCode::from(EXIT_TRUNCATED);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        std::iter::once("mlpart".to_owned())
            .chain(s.split_whitespace().map(str::to_owned))
            .collect()
    }

    fn parse_run(s: &str) -> Result<CliArgs, String> {
        match parse_args(argv(s))? {
            CliCommand::Run(a) => Ok(*a),
            CliCommand::Help => Err("unexpected help".to_owned()),
        }
    }

    #[test]
    fn parses_full_command_line() {
        let a = parse_run(
            "design.hgr --algo ml-f --k 4 --ratio 0.33 --runs 3 --seed 9 --threads 2 \
             --output out.part --stats",
        )
        .expect("parses");
        assert_eq!(a.input, "design.hgr");
        assert_eq!(a.algo, "ml-f");
        assert_eq!(a.k, 4);
        assert_eq!(a.ratio, 0.33);
        assert_eq!(a.runs, 3);
        assert_eq!(a.threads, 2);
        assert_eq!(a.output.as_deref(), Some("out.part"));
        assert!(a.stats);
        assert!(a.budget.is_unlimited());
    }

    #[test]
    fn parses_budget_flags() {
        let a = parse_run("x.hgr --max-moves 500 --max-passes 3 --max-levels 2").expect("parses");
        assert_eq!(a.budget.max_moves, Some(500));
        assert_eq!(a.budget.max_passes, Some(3));
        assert_eq!(a.budget.max_levels, Some(2));
        assert_eq!(a.budget.soft_deadline_secs, None);
        let a = parse_run("x.hgr --deadline-secs 1.5").expect("parses");
        assert_eq!(a.budget.soft_deadline_secs, Some(1.5));
    }

    #[test]
    fn help_is_a_command_not_an_error() {
        assert_eq!(parse_args(argv("--help")), Ok(CliCommand::Help));
        assert_eq!(parse_args(argv("x.hgr -h")), Ok(CliCommand::Help));
        // The long help documents the exit-code contract.
        for needle in [
            "exit codes:",
            "0  success",
            "2  invalid input",
            "3  budget truncated",
        ] {
            assert!(HELP.contains(needle), "--help must document {needle:?}");
        }
    }

    #[test]
    fn parses_constraint_flags() {
        let a = parse_run("x.hgr --k 8 --epsilon 0.05 --fixed cells.fix").expect("parses");
        assert_eq!(a.k, 8);
        assert_eq!(a.epsilon, Some(0.05));
        assert_eq!(a.fixed.as_deref(), Some("cells.fix"));
        assert!(a.is_constrained());
        // General k parses for any constraint-aware algorithm.
        assert!(parse_run("x.hgr --k 3").is_ok());
        assert!(parse_run("x.hgr --algo ml-f --k 7").is_ok());
        assert!(parse_run("x.hgr --algo two-phase --fixed c.fix").is_ok());
        // Legacy invocations stay unconstrained.
        assert!(!parse_run("x.hgr --k 2").expect("parses").is_constrained());
        assert!(!parse_run("x.hgr --k 4").expect("parses").is_constrained());
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse_args(argv("")).is_err());
        assert!(parse_args(argv("x.hgr --k 1")).is_err());
        assert!(parse_args(argv("x.hgr --k x")).is_err());
        assert!(parse_args(argv("x.hgr --epsilon 0")).is_err());
        assert!(parse_args(argv("x.hgr --epsilon nan")).is_err());
        assert!(parse_args(argv("x.hgr --fixed")).is_err());
        assert!(parse_args(argv("x.hgr --algo fm --k 3")).is_err());
        assert!(parse_args(argv("x.hgr --algo lsmc --fixed c.fix")).is_err());
        assert!(parse_args(argv("x.hgr --algo two-phase --k 3")).is_err());
        assert!(parse_args(argv("x.hgr --ratio 0")).is_err());
        assert!(parse_args(argv("x.hgr --runs 0")).is_err());
        assert!(parse_args(argv("x.hgr --threads 0")).is_err());
        assert!(parse_args(argv("x.hgr --threads x")).is_err());
        assert!(parse_args(argv("x.hgr --bogus 1")).is_err());
        assert!(parse_args(argv("x.hgr --max-moves")).is_err());
        assert!(parse_args(argv("x.hgr --max-passes x")).is_err());
        assert!(parse_args(argv("x.hgr --deadline-secs -1")).is_err());
        assert!(parse_args(argv("x.hgr --algo lsmc --max-passes 1")).is_err());
    }

    #[test]
    fn synthetic_names_load() {
        let h = load_netlist("syn-balu").expect("suite circuit");
        assert_eq!(h.num_modules(), 801);
        assert!(load_netlist("syn-nonexistent").is_err());
    }

    #[test]
    fn run_engine_covers_all_algorithms() {
        let h = load_netlist("syn-balu").expect("suite circuit");
        let mut args = CliArgs {
            input: "syn-balu".to_owned(),
            runs: 1,
            ..CliArgs::default()
        };
        let mut ws = RefineWorkspace::new();
        for algo in ["ml-c", "ml-f", "fm", "clip", "lsmc", "two-phase"] {
            args.algo = algo.to_owned();
            let mut rng = mlpart::hypergraph::rng::seeded_rng(1);
            let (p, cut, level_stats, truncation) =
                run_engine(&h, &args, None, &args.budget, &mut rng, &mut ws).expect(algo);
            assert!(p.validate(&h), "{algo}");
            assert!(cut > 0, "{algo}");
            assert!(truncation.is_none(), "{algo}: unlimited run truncated");
            if algo.starts_with("ml") {
                assert!(!level_stats.is_empty(), "{algo} should report level stats");
            }
        }
        let mut rng = mlpart::hypergraph::rng::seeded_rng(1);
        args.algo = "unknown".to_owned();
        assert!(run_engine(&h, &args, None, &args.budget, &mut rng, &mut ws).is_err());
        // Quadrisection path.
        args.algo = "ml-f".to_owned();
        args.k = 4;
        let (p, _, level_stats, _) =
            run_engine(&h, &args, None, &args.budget, &mut rng, &mut ws).expect("quadrisection");
        assert_eq!(p.k(), 4);
        assert!(!level_stats.is_empty(), "quadrisection reports level stats");
        args.algo = "fm".to_owned();
        assert!(
            run_engine(&h, &args, None, &args.budget, &mut rng, &mut ws).is_err(),
            "flat fm cannot do k=4 here"
        );
    }

    #[test]
    fn run_engine_covers_constrained_dispatch() {
        use mlpart::hypergraph::ModuleId;
        let h = load_netlist("syn-balu").expect("suite circuit");
        let mut ws = RefineWorkspace::new();
        let pins = [(ModuleId::new(0), 1u32), (ModuleId::new(5), 0u32)];
        // k = 2 (constrained ML), 4 (constrained k-way), 3 (recursive).
        for (algo, k) in [("ml-c", 2u32), ("ml-f", 4), ("ml-c", 3), ("two-phase", 2)] {
            let pins: Vec<_> = pins.iter().filter(|&&(_, p)| p < k).copied().collect();
            let c = Constraints::new(k, 0.2, pins.clone()).expect("valid");
            let args = CliArgs {
                input: "syn-balu".to_owned(),
                algo: algo.to_owned(),
                k,
                ..CliArgs::default()
            };
            let mut rng = mlpart::hypergraph::rng::seeded_rng(1);
            let (p, cut, _, truncation) =
                run_engine(&h, &args, Some(&c), &args.budget, &mut rng, &mut ws).expect(algo);
            assert!(p.validate(&h), "{algo} k={k}");
            assert_eq!(p.k(), k, "{algo}");
            assert!(cut > 0, "{algo} k={k}");
            assert!(truncation.is_none(), "{algo} k={k}");
            for &(v, part) in &pins {
                assert_eq!(p.part(v), part, "{algo} k={k}: pin moved");
            }
        }
    }

    #[test]
    fn budgeted_run_engine_reports_truncation() {
        let h = load_netlist("syn-balu").expect("suite circuit");
        let args = CliArgs {
            input: "syn-balu".to_owned(),
            budget: Budget {
                max_passes: Some(1),
                ..Budget::default()
            },
            ..CliArgs::default()
        };
        let mut ws = RefineWorkspace::new();
        let mut rng = mlpart::hypergraph::rng::seeded_rng(1);
        let (p, cut, _, truncation) =
            run_engine(&h, &args, None, &args.budget, &mut rng, &mut ws).expect("runs");
        assert!(p.validate(&h));
        assert!(cut > 0);
        let t = truncation.expect("one pass cannot finish syn-balu");
        assert_eq!(t.limit.name(), "passes");
    }

    #[test]
    fn parses_supervision_flags() {
        let a =
            parse_run("x.hgr --retries 3 --retry-degrade-passes 2 --checkpoint c.jsonl --resume")
                .expect("parses");
        assert_eq!(a.retries, 3);
        assert_eq!(a.retry_degrade_passes, Some(2));
        assert_eq!(a.checkpoint.as_deref(), Some("c.jsonl"));
        assert!(a.resume);
        // Defaults keep supervision off.
        let d = parse_run("x.hgr").expect("parses");
        assert_eq!(d.retries, 1);
        assert_eq!(d.retry_degrade_passes, None);
        assert_eq!(d.checkpoint, None);
        assert!(!d.resume);
        assert!(parse_args(argv("x.hgr --retries 0")).is_err());
        assert!(parse_args(argv("x.hgr --retries 9")).is_err());
        assert!(parse_args(argv("x.hgr --retries x")).is_err());
        assert!(
            parse_args(argv("x.hgr --resume")).is_err(),
            "--resume needs --checkpoint"
        );
        assert!(
            parse_args(argv("x.hgr --retry-degrade-passes 2")).is_err(),
            "degradation needs retries to degrade from"
        );
        assert!(
            parse_args(argv(
                "x.hgr --algo lsmc --retries 2 --retry-degrade-passes 1"
            ))
            .is_err(),
            "lsmc is unbudgeted"
        );
        // The long help documents the supervision surface.
        for needle in [
            "--retries",
            "--checkpoint",
            "--resume",
            "mlpart-checkpoint-v1",
        ] {
            assert!(HELP.contains(needle), "--help must document {needle:?}");
        }
    }

    /// The supervised per-start wrapper honors the attempt budget and
    /// gates its output through the balance window.
    #[test]
    fn supervised_run_once_gates_on_feasibility() {
        let h = load_netlist("syn-balu").expect("suite circuit");
        let args = CliArgs {
            input: "syn-balu".to_owned(),
            ..CliArgs::default()
        };
        let bounds = Constraints::unconstrained(args.k).bounds(&h);
        let mut ws = RefineWorkspace::new();
        let mut rng = mlpart::hypergraph::rng::seeded_rng(1);
        let v = run_once(
            &h,
            &args,
            None,
            &bounds,
            &[],
            &mut rng,
            &mut ws,
            Attempt {
                start: 0,
                attempt: 0,
                budget: None,
            },
        )
        .expect("runs");
        assert!(bounds.is_partition_feasible(&v.partition));
        assert!(v.repair.is_none(), "engine output is already feasible");
        assert!(v.truncation.is_none());
        // A degraded final attempt runs under the attempt's budget, not
        // the caller's unlimited one.
        let degraded = Budget {
            max_passes: Some(1),
            ..Budget::default()
        };
        let mut rng = mlpart::hypergraph::rng::seeded_rng(1);
        let v = run_once(
            &h,
            &args,
            None,
            &bounds,
            &[],
            &mut rng,
            &mut ws,
            Attempt {
                start: 0,
                attempt: 1,
                budget: Some(&degraded),
            },
        )
        .expect("runs");
        assert!(v.truncation.is_some(), "one pass cannot finish syn-balu");
        assert!(bounds.is_partition_feasible(&v.partition));
    }
}
