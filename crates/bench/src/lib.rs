//! Experiment harness regenerating every table and figure of *Multilevel
//! Circuit Partitioning* (Alpert, Huang, Kahng — DAC 1997).
//!
//! One binary per table/figure lives in `src/bin/` (`table1` … `table9`,
//! `fig4`, `ablation`). Each prints the paper's row layout on the synthetic
//! suite plus a shape-check verdict comparing the *relationships* the paper
//! reports (who wins, roughly by how much) — absolute values differ because
//! the circuits are synthetic stand-ins (see `DESIGN.md`).
//!
//! Shared infrastructure: CLI parsing ([`HarnessArgs`]), timed multi-run
//! statistics ([`run_many`]), algorithm wrappers ([`algos`]), and the paper's
//! published numbers ([`paper`]) for the comparison columns we do not
//! reimplement.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![expect(
    clippy::disallowed_types,
    reason = "the experiment harness's timing columns; no reported cut reads a clock"
)]

pub mod algos;
pub mod paper;
pub mod sweeps;

use mlpart_fm::RefineWorkspace;
use mlpart_gen::{SizeClass, SuiteCircuit, SUITE};
use mlpart_hypergraph::rng::{child_seed, seeded_rng, MlRng};
use mlpart_hypergraph::{obs_counter, CutStats};
use std::time::Instant;

/// Statistics plus timing for a batch of runs of one algorithm on one
/// circuit.
///
/// Timing is split in two because the batch may have run on several threads:
/// `cpu_secs` sums the per-start times (the paper's "total CPU for 100 runs"
/// convention — what every table's time column prints), while `wall_secs` is
/// what the user actually waited. Sequentially the two coincide up to
/// harness overhead; in parallel `wall_secs` shrinks with the thread count
/// and `cpu_secs` does not.
///
/// Equality ignores both timing fields (wall-clock noise), so fixed-seed
/// batches compare equal across runs and thread counts — mirroring
/// `LevelStats`/`PassStats`.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Min/avg/std over the runs' cuts.
    pub cut: CutStats,
    /// Summed per-start seconds (CPU-time proxy; comparable to the paper's
    /// total-CPU columns regardless of thread count).
    pub cpu_secs: f64,
    /// Elapsed wall-clock seconds for the whole batch.
    pub wall_secs: f64,
}

impl PartialEq for RunStats {
    fn eq(&self, other: &Self) -> bool {
        self.cut == other.cut
    }
}

/// Runs `f` `runs` times with independent child seeds and collects cut
/// statistics and total time, strictly sequentially on the calling thread.
/// [`run_many_par`] is the parallel twin with bit-identical cut statistics.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn run_many<F>(runs: usize, base_seed: u64, mut f: F) -> RunStats
where
    F: FnMut(&mut MlRng) -> u64,
{
    assert!(runs > 0, "need at least one run");
    let start = Instant::now();
    let mut cpu_secs = 0.0;
    let samples: Vec<u64> = (0..runs)
        .map(|i| {
            let t0 = Instant::now();
            let mut rng = seeded_rng(child_seed(base_seed, i as u64));
            let cut = f(&mut rng);
            cpu_secs += t0.elapsed().as_secs_f64();
            cut
        })
        .collect();
    RunStats {
        cut: CutStats::from_samples(&samples),
        cpu_secs,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// The parallel twin of [`run_many`]: fans the `runs` starts out over
/// `threads` worker threads through the `mlpart-exec` execution layer. Each
/// start runs with the same `child_seed(base_seed, i)` stream the sequential
/// path uses, on a [`RefineWorkspace`] of its own, so the cut statistics are **bit-identical to [`run_many`] for every thread
/// count** — only the timing fields differ.
///
/// # Panics
///
/// Panics if `runs == 0` or `threads == 0`.
pub fn run_many_par<F>(runs: usize, base_seed: u64, threads: usize, f: F) -> RunStats
where
    F: Fn(&mut MlRng, &mut RefineWorkspace) -> u64 + Sync,
{
    let (samples, timing) = mlpart_exec::run_starts(runs, base_seed, threads, &f);
    let stats = RunStats {
        cut: CutStats::from_samples(&samples),
        cpu_secs: timing.cpu_secs,
        wall_secs: timing.wall_secs,
    };
    // One deterministic summary event per batch; timing stays out of the
    // args so trace content is reproducible across runs and thread counts.
    obs_counter!(
        "batch",
        "runs" => runs,
        "seed" => base_seed,
        "cut_min" => stats.cut.min,
        "cut_max" => stats.cut.max,
        "cut_avg" => stats.cut.avg,
    );
    stats
}

/// Runs `body` inside an `obs` capture when `--report-out` or
/// `--trace-out` was given. `--report-out` writes a `mlpart-run-report-v3`
/// JSON document capturing every batch the body executed (each multi-start
/// batch contributes its per-start `start` spans plus one `batch` summary
/// counter); `--trace-out` writes the same capture as a Chrome trace, ready
/// for `chrome://tracing`. Without the `obs` feature both
/// flags are rejected up front so an artifact is never silently skipped.
/// Returns whatever `body` returns.
pub fn with_report<R>(args: &HarnessArgs, harness: &'static str, body: impl FnOnce() -> R) -> R {
    #[cfg(not(feature = "obs"))]
    {
        let _ = harness;
        if args.report_out.is_some() || args.trace_out.is_some() {
            eprintln!(
                "--report-out/--trace-out need a binary built with the `obs` \
                 feature (cargo build --release --features obs)"
            );
            std::process::exit(2);
        }
        body()
    }
    #[cfg(feature = "obs")]
    {
        if args.report_out.is_none() && args.trace_out.is_none() {
            return body();
        }
        // Atomic (write-temp-then-rename): an interrupted harness never
        // leaves a torn half-report for obs-diff to choke on.
        let write_or_die =
            |path: &str, what: &str, content: &str| match mlpart_hypergraph::io::write_atomic(
                path,
                content.as_bytes(),
            ) {
                Ok(()) => eprintln!("{what} written to {path}"),
                Err(e) => {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            };
        let wall = Instant::now();
        let (value, trace) = mlpart_obs::capture(|| {
            mlpart_hypergraph::obs_span!("run", "runs" => args.runs, "seed" => args.seed);
            body()
        });
        if let Some(path) = &args.trace_out {
            write_or_die(path, "trace", &mlpart_obs::to_chrome_trace(&trace));
        }
        if let Some(path) = &args.report_out {
            let report = mlpart_obs::report::RunReport {
                meta: vec![
                    ("harness", mlpart_obs::V::S(harness)),
                    ("runs", args.runs.into()),
                    ("seed", args.seed.into()),
                    ("threads", args.threads.into()),
                ],
                cuts: Vec::new(), // per-batch cuts live in the `batch` counters
                failures: Vec::new(),
                truncations: Vec::new(),
                retries: Vec::new(),
                repairs: Vec::new(),
                wall_secs: wall.elapsed().as_secs_f64(),
                cpu_secs: 0.0,
                trace,
            };
            write_or_die(path, "run report", &report.to_json());
        }
        value
    }
}

/// Which circuits a harness binary should sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteSelection {
    /// All circuits under 3 500 modules (default).
    Small,
    /// Small + medium circuits (everything but `syn-golem3`).
    Medium,
    /// The entire 23-circuit suite.
    All,
    /// An explicit list of circuit names.
    Named(Vec<String>),
}

/// Command-line arguments shared by every harness binary.
///
/// ```text
/// --runs N        runs per (circuit, algorithm) cell   [default 10]
/// --seed S        base seed                            [default 1997]
/// --suite small|medium|all|name1,name2,...             [default small]
/// --threads N     worker threads for multi-start cells [default: available parallelism]
/// --report-out P  write a machine-readable run report  [needs the `obs` feature]
/// ```
///
/// `--threads` only changes wall-clock time: per-start seed streams are
/// independent and the reduction is deterministic, so every table's numbers
/// are bit-identical at any thread count (see `mlpart-exec`).
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Runs per cell.
    pub runs: usize,
    /// Base seed; every cell derives independent child seeds from it.
    pub seed: u64,
    /// Circuit selection.
    pub suite: SuiteSelection,
    /// Worker threads for multi-start cells (never changes results).
    pub threads: usize,
    /// Write a `mlpart-run-report-v3` JSON document here (needs the `obs`
    /// feature; see [`with_report`]).
    pub report_out: Option<String>,
    /// Write the captured Chrome trace here (needs the `obs` feature; see
    /// [`with_report`]).
    pub trace_out: Option<String>,
}

/// The complete usage line; printed on `--help` and flag errors.
pub const USAGE: &str = "usage: --runs N --seed S --suite small|medium|all|name,... --threads N\n\
     \x20 --runs N      runs per (circuit, algorithm) cell   [default 10]\n\
     \x20 --seed S      base seed                            [default 1997]\n\
     \x20 --suite SEL   small|medium|all|name1,name2,...     [default small]\n\
     \x20 --threads N   worker threads for multi-start cells [default: available parallelism];\n\
     \x20               results are bit-identical for every thread count\n\
     \x20 --report-out PATH  write a machine-readable run report (needs the `obs` feature)\n\
     \x20 --trace-out PATH   write a Chrome trace of the run (needs the `obs` feature)";

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            runs: 10,
            seed: 1997,
            suite: SuiteSelection::Small,
            threads: mlpart_exec::default_threads(),
            report_out: None,
            trace_out: None,
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style arguments (the first element is the
    /// program name and is skipped).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown flags or malformed
    /// values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = HarnessArgs::default();
        let mut it = args.into_iter().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("flag {name} requires a value"))
            };
            match flag.as_str() {
                "--runs" => {
                    out.runs = value("--runs")?
                        .parse()
                        .map_err(|_| "invalid --runs value".to_owned())?;
                    if out.runs == 0 {
                        return Err("--runs must be positive".to_owned());
                    }
                }
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "invalid --seed value".to_owned())?;
                }
                "--suite" => {
                    let v = value("--suite")?;
                    out.suite = match v.as_str() {
                        "small" => SuiteSelection::Small,
                        "medium" => SuiteSelection::Medium,
                        "all" => SuiteSelection::All,
                        names => {
                            let list: Vec<String> = names.split(',').map(str::to_owned).collect();
                            // Validate here so `from_env` exits with a flag
                            // error (code 2) instead of `circuits()`
                            // panicking mid-harness.
                            if let Some(bad) =
                                list.iter().find(|n| mlpart_gen::by_name(n).is_none())
                            {
                                return Err(format!(
                                    "unknown circuit {bad:?} in --suite \
                                     (expected small|medium|all or suite names like balu)"
                                ));
                            }
                            SuiteSelection::Named(list)
                        }
                    };
                }
                "--threads" => {
                    out.threads = value("--threads")?
                        .parse()
                        .map_err(|_| "invalid --threads value".to_owned())?;
                    if out.threads == 0 {
                        return Err("--threads must be positive".to_owned());
                    }
                }
                "--report-out" => out.report_out = Some(value("--report-out")?),
                "--trace-out" => out.trace_out = Some(value("--trace-out")?),
                "--help" | "-h" => return Err(USAGE.to_owned()),
                other => return Err(format!("unknown flag {other}\n{USAGE}")),
            }
        }
        Ok(out)
    }

    /// Parses the real process arguments, printing usage and exiting on
    /// error. Convenience for binaries.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args()) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Resolves the selection against the suite.
    ///
    /// # Panics
    ///
    /// Panics if a named circuit does not exist — unreachable for values
    /// produced by [`HarnessArgs::parse`], which rejects unknown names as a
    /// flag error.
    pub fn circuits(&self) -> Vec<&'static SuiteCircuit> {
        match &self.suite {
            SuiteSelection::Small => mlpart_gen::small_suite(),
            SuiteSelection::Medium => SUITE
                .iter()
                .filter(|c| c.size_class() != SizeClass::Large)
                .collect(),
            SuiteSelection::All => SUITE.iter().collect(),
            SuiteSelection::Named(names) => names
                .iter()
                .map(|n| mlpart_gen::by_name(n).unwrap_or_else(|| panic!("unknown circuit {n:?}")))
                .collect(),
        }
    }
}

/// A shape check: one relationship the paper's table asserts, verified on
/// the synthetic reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeCheck {
    /// What relationship is being checked.
    pub description: String,
    /// Whether the reproduction exhibits it.
    pub holds: bool,
}

impl ShapeCheck {
    /// Creates a check result.
    pub fn new(description: impl Into<String>, holds: bool) -> Self {
        ShapeCheck {
            description: description.into(),
            holds,
        }
    }
}

/// Prints the shape-check block every table binary ends with and returns
/// `true` if all checks hold.
pub fn report_shape_checks(checks: &[ShapeCheck]) -> bool {
    println!();
    println!("shape checks vs. paper:");
    let mut all = true;
    for c in checks {
        let mark = if c.holds { "PASS" } else { "FAIL" };
        println!("  [{mark}] {}", c.description);
        all &= c.holds;
    }
    all
}

/// Prints the per-level refinement trajectory of one multilevel run — the
/// instrumentation collected in `MlResult::level_stats` /
/// `MlKwayResult::level_stats` (coarsest level first).
pub fn print_level_stats(title: &str, stats: &[mlpart_core::LevelStats]) {
    println!();
    println!("{title}");
    println!(
        "{:>5} {:>8} {:>11} {:>10} {:>9} {:>10} {:>9} {:>6} {:>8}",
        "level",
        "modules",
        "cut_before",
        "cut_after",
        "kept",
        "attempted",
        "rebal",
        "passes",
        "fill_ms"
    );
    for s in stats {
        println!(
            "{:>5} {:>8} {:>11} {:>10} {:>9} {:>10} {:>9} {:>6} {:>8.3}",
            s.level,
            s.modules,
            s.cut_before,
            s.cut_after,
            s.kept_moves,
            s.attempted_moves,
            s.rebalance_moves,
            s.passes,
            s.fill_time_ns as f64 / 1e6,
        );
    }
}

/// Geometric mean of per-item ratios `a[i] / b[i]`; the standard way to
/// aggregate "A is X% better than B" across circuits.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or contain a zero
/// denominator.
pub fn geomean_ratio(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "mismatched series");
    assert!(!a.is_empty(), "empty series");
    let log_sum: f64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| {
            assert!(y > 0.0, "zero denominator");
            (x.max(1e-12) / y).ln()
        })
        .sum();
    (log_sum / a.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        std::iter::once("prog".to_owned())
            .chain(s.split_whitespace().map(str::to_owned))
            .collect()
    }

    #[test]
    fn parse_defaults() {
        let a = HarnessArgs::parse(argv("")).expect("parses");
        assert_eq!(a, HarnessArgs::default());
    }

    #[test]
    fn parse_all_flags() {
        let a = HarnessArgs::parse(argv("--runs 3 --seed 7 --suite medium --threads 2"))
            .expect("parses");
        assert_eq!(a.runs, 3);
        assert_eq!(a.seed, 7);
        assert_eq!(a.suite, SuiteSelection::Medium);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn usage_documents_every_flag() {
        for flag in [
            "--runs",
            "--seed",
            "--suite",
            "--threads",
            "--report-out",
            "--trace-out",
        ] {
            assert!(USAGE.contains(flag), "usage omits {flag}");
        }
        let help = HarnessArgs::parse(argv("--help")).expect_err("help is an Err");
        assert_eq!(help, USAGE);
    }

    #[test]
    fn parse_named_suite() {
        let a = HarnessArgs::parse(argv("--suite balu,primary1")).expect("parses");
        assert_eq!(a.circuits().len(), 2);
        assert_eq!(a.circuits()[0].name, "syn-balu");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(HarnessArgs::parse(argv("--runs zero")).is_err());
        assert!(HarnessArgs::parse(argv("--runs 0")).is_err());
        assert!(HarnessArgs::parse(argv("--bogus")).is_err());
        assert!(HarnessArgs::parse(argv("--seed")).is_err());
        assert!(HarnessArgs::parse(argv("--threads 0")).is_err());
        assert!(HarnessArgs::parse(argv("--threads x")).is_err());
        assert!(HarnessArgs::parse(argv("--threads")).is_err());
        let msg = HarnessArgs::parse(argv("--suite balu,no-such-circuit"))
            .expect_err("unknown circuit names are flag errors, not panics");
        assert!(msg.contains("no-such-circuit"), "message names it: {msg}");
        assert_eq!(
            HarnessArgs::parse(argv("--threads 0")).expect_err("rejected"),
            "--threads must be positive"
        );
    }

    #[test]
    fn small_suite_selection() {
        let a = HarnessArgs::default();
        let circuits = a.circuits();
        assert_eq!(circuits.len(), 11);
        assert!(circuits.iter().all(|c| c.modules < 3_500));
    }

    #[test]
    fn run_many_collects_stats() {
        let stats = run_many(5, 42, |rng| {
            use rand::Rng;
            10 + rng.gen_range(0..5)
        });
        assert_eq!(stats.cut.runs, 5);
        assert!(stats.cut.min >= 10 && stats.cut.max < 15);
        assert!(stats.cpu_secs >= 0.0);
        assert!(stats.wall_secs >= 0.0);
    }

    #[test]
    fn run_many_deterministic() {
        let f = |rng: &mut MlRng| {
            use rand::Rng;
            rng.gen_range(0..1000u64)
        };
        let s1 = run_many(4, 9, f);
        let s2 = run_many(4, 9, f);
        assert_eq!(s1.cut, s2.cut);
    }

    #[test]
    fn run_many_par_matches_sequential_at_any_thread_count() {
        let seq = run_many(12, 77, |rng| {
            use rand::Rng;
            rng.gen_range(0..100u64)
        });
        for threads in [1, 2, 8] {
            let par = run_many_par(12, 77, threads, |rng, _ws| {
                use rand::Rng;
                rng.gen_range(0..100u64)
            });
            assert_eq!(seq.cut, par.cut, "threads={threads}");
            assert_eq!(seq, par, "RunStats equality ignores timing");
        }
    }

    #[test]
    fn geomean_of_equal_series_is_one() {
        let a = [2.0, 3.0, 4.0];
        assert!((geomean_ratio(&a, &a) - 1.0).abs() < 1e-12);
        let b = [1.0, 1.5, 2.0];
        assert!((geomean_ratio(&a, &b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shape_checks_report() {
        let ok = report_shape_checks(&[ShapeCheck::new("a", true), ShapeCheck::new("b", true)]);
        assert!(ok);
        let bad = report_shape_checks(&[ShapeCheck::new("a", false)]);
        assert!(!bad);
    }
}
