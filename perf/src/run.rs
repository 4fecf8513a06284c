//! How one workload run is measured: set-up, the closed-loop batch, the
//! traced replay, and the metrics each yields.

use crate::ledger::{mean, median, quantile, ratio, Outcome};
use crate::replay::{self, Probe};
use crate::workload::{check, invoke, make_inputs, start, Inputs, Invocation, Workload};
use mlpart_exec::{try_run_starts, ExecError};
use mlpart_fm::RefineWorkspace;
use mlpart_hypergraph::rng::{child_seed, MlRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Starts per executor batch. Start `i` of batch `r` is seeded with
/// `child_seed(child_seed(seed, r), i)` at every thread count, so a seed
/// names the same starts on every machine.
pub const ROUND: usize = 8;
/// The warm-up start's seed: the same in every run, so `setup_s` varies
/// with the machine and the code, not with `--seed`.
const WARMUP_SEED: u64 = u64::MAX;
/// Tail percentile of the per-start wall time: the highest that leaves at
/// least ten samples beyond it on every workload at the declared run length.
const TAIL: f64 = 0.75;

/// How much one run measures.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seconds: f64,
    /// The first `quality` starts give the cut metrics, so those repeat
    /// exactly at the same seed; a run measures at least this many.
    pub quality: usize,
    /// Starts the traced run replays; the per-layer counts sum over them.
    pub replay: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub threads: usize,
    pub circuit: &'static str,
}

impl Plan {
    /// In process, `min(2, nproc)` worker threads. The CLI workload is one
    /// client running `mlpart --threads 1`: with two racing starts, an
    /// invocation took as long as the slower one, which doubled the spread
    /// of its times across runs.
    pub fn new(wl: Workload, seconds: f64) -> Plan {
        let cli = wl == Workload::CliKway8;
        Plan {
            seconds,
            quality: if cli { 48 } else { 64 },
            replay: 24,
            setups: 3,
            threads: if cli {
                1
            } else {
                std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
            },
            circuit: wl.circuit(),
        }
    }
}

/// Runs one workload: untraced for the end-to-end metrics, or traced for
/// the per-layer ones.
pub fn run(wl: Workload, seed: u64, plan: &Plan, traced: bool) -> Result<Outcome, String> {
    let work = WorkDir::create()?;
    let mlpart = sibling("mlpart")?;
    let mut setups = Vec::with_capacity(plan.setups);
    for _ in 0..plan.setups {
        setups.push(setup(wl, plan, &work.0, &mlpart)?);
    }
    let last = setups.last().ok_or("a run needs at least one set-up")?;
    let run = Run {
        wl,
        seed,
        plan,
        setups: &setups,
        inputs: &last.inputs,
        dir: &work.0,
        mlpart: &mlpart,
    };
    Ok(match (wl, traced) {
        (Workload::CliKway8, false) => run.cli_end_to_end(),
        (Workload::CliKway8, true) => run.cli_layers(),
        (_, false) => run.end_to_end(),
        (_, true) => run.layers(),
    })
}

/// A directory beside the executable for the CLI workload's files, removed
/// when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let dir = sibling(&format!("perf-work-{}", std::process::id()))?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `name` in the directory of the running executable, where Cargo also
/// puts the `mlpart` binary.
fn sibling(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perf: {e}"))?;
    let dir = exe.parent().ok_or("perf has no parent directory")?;
    Ok(dir.join(name))
}

struct Setup {
    inputs: Inputs,
    generate: Duration,
    write: Duration,
    /// Everything before the first timed start: inputs and one warm-up start.
    total: Duration,
}

fn setup(wl: Workload, plan: &Plan, dir: &Path, mlpart: &Path) -> Result<Setup, String> {
    let t = Instant::now();
    let (inputs, generate, write) = make_inputs(wl, plan.circuit, dir)?;
    if wl == Workload::CliKway8 {
        invoke(mlpart, dir, &inputs, WARMUP_SEED, plan.threads)?;
    } else {
        let b = closed_loop(WARMUP_SEED, plan.threads, 1, Duration::ZERO, &|rng, ws| {
            untraced(wl, &inputs, rng, ws, false)
        });
        if let Some(f) = b.failures.first() {
            return Err(format!("warm-up {f}"));
        }
    }
    Ok(Setup {
        inputs,
        generate,
        write,
        total: t.elapsed(),
    })
}

/// The starts of a closed loop, in start order.
struct Batch<T> {
    done: Vec<(usize, T)>,
    failures: Vec<String>,
    attempted: usize,
    /// Summed wall time of the executor batches.
    wall: Duration,
    /// Summed per-start time (executor busy time).
    busy: Duration,
}

impl<T> Batch<T> {
    fn new() -> Batch<T> {
        Batch {
            done: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
            wall: Duration::ZERO,
            busy: Duration::ZERO,
        }
    }

    fn get(&self, start: usize) -> Option<&T> {
        self.done.iter().find(|(i, _)| *i == start).map(|(_, t)| t)
    }

    /// Runs `n` starts as executor batch `round` on `threads` workers:
    /// start `i` is start `ROUND * round + i` of the run. Panics and `Err`
    /// results count as failed starts.
    fn round<F>(&mut self, seed: u64, round: usize, n: usize, threads: usize, job: &F)
    where
        T: Send,
        F: Fn(&mut MlRng, &mut RefineWorkspace) -> Result<T, String> + Sync,
    {
        let first = ROUND * round;
        match try_run_starts(n, child_seed(seed, round as u64), threads, job) {
            Ok((batch, timing)) => {
                self.wall += Duration::from_secs_f64(timing.wall_secs);
                self.busy += Duration::from_secs_f64(timing.cpu_secs);
                for (i, result) in batch.survivors {
                    match result {
                        Ok(t) => self.done.push((first + i, t)),
                        Err(e) => self.failures.push(format!("start {}: {e}", first + i)),
                    }
                }
                for f in batch.failures {
                    self.failures
                        .push(format!("start {}: {}", first + f.start, f.message));
                }
            }
            Err(ExecError::AllStartsFailed { failures }) => {
                for f in failures {
                    self.failures
                        .push(format!("start {}: {}", first + f.start, f.message));
                }
            }
            Err(e) => self.failures.push(format!("batch {round}: {e}")),
        }
        self.attempted += n;
    }
}

/// Closed loop over the executor: batches of [`ROUND`] starts, each once
/// the previous one has finished, until `window` has passed and at least
/// `min` starts ran. With a zero window it runs exactly `min` starts.
fn closed_loop<T, F>(seed: u64, threads: usize, min: usize, window: Duration, job: &F) -> Batch<T>
where
    T: Send,
    F: Fn(&mut MlRng, &mut RefineWorkspace) -> Result<T, String> + Sync,
{
    let t0 = Instant::now();
    let mut b = Batch::new();
    let mut round = 0;
    while b.attempted < min || t0.elapsed() < window {
        let n = if window.is_zero() {
            ROUND.min(min - b.attempted)
        } else {
            ROUND
        };
        b.round(seed, round, n, threads, job);
        round += 1;
    }
    b
}

/// One `mlpart` invocation of the CLI workload's closed loop: one client,
/// each invocation starting after the previous one exited. Invocation `j`
/// gets start seed `child_seed(seed, j)`.
fn invocation(run: &Run, b: &mut Batch<Invocation>) {
    let j = b.attempted;
    let seed = child_seed(run.seed, j as u64);
    match invoke(run.mlpart, run.dir, run.inputs, seed, run.plan.threads) {
        Ok(inv) => {
            b.wall += inv.wall;
            b.done.push((j, inv));
        }
        Err(e) => b.failures.push(format!("invocation {j}: {e}")),
    }
    b.attempted += 1;
}

/// One in-process start, timed around the pipeline call (untraced) or the
/// replayed layer calls (traced), and checked.
struct Start {
    wall: Duration,
    cut: u64,
    /// Kept for the replay-parity check of the traced run.
    assignment: Option<Vec<u32>>,
}

fn untraced(
    wl: Workload,
    inputs: &Inputs,
    rng: &mut MlRng,
    ws: &mut RefineWorkspace,
    keep: bool,
) -> Result<Start, String> {
    let t = Instant::now();
    let (p, cut) = start(wl, &inputs.h, rng, ws);
    let wall = t.elapsed();
    check(wl, inputs, &p, cut)?;
    Ok(Start {
        wall,
        cut,
        assignment: keep.then(|| p.assignment().to_vec()),
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

struct Run<'a> {
    wl: Workload,
    seed: u64,
    plan: &'a Plan,
    setups: &'a [Setup],
    /// The last set-up's inputs, which every measured start partitions.
    inputs: &'a Inputs,
    dir: &'a Path,
    mlpart: &'a Path,
}

impl Run<'_> {
    fn window(&self) -> Duration {
        Duration::from_secs_f64(self.plan.seconds)
    }

    fn end_to_end(&self) -> Outcome {
        let b = closed_loop(
            self.seed,
            self.plan.threads,
            self.plan.quality,
            self.window(),
            &|rng, ws| untraced(self.wl, self.inputs, rng, ws, false),
        );
        let walls: Vec<f64> = b.done.iter().map(|(_, s)| ms(s.wall)).collect();
        let cuts: Vec<f64> = b
            .done
            .iter()
            .filter(|(i, _)| *i < self.plan.quality)
            .map(|(_, s)| s.cut as f64)
            .collect();
        end_to_end_metrics(self.setups, &b, &walls, &cuts, peak_rss_mb())
    }

    fn cli_end_to_end(&self) -> Outcome {
        let t0 = Instant::now();
        let mut b = Batch::new();
        while b.attempted < self.plan.quality || t0.elapsed() < self.window() {
            invocation(self, &mut b);
        }
        let walls: Vec<f64> = b.done.iter().map(|(_, inv)| ms(inv.wall)).collect();
        let cuts: Vec<f64> = b
            .done
            .iter()
            .filter(|(j, _)| *j < self.plan.quality)
            .map(|(_, inv)| inv.cut as f64)
            .collect();
        end_to_end_metrics(self.setups, &b, &walls, &cuts, children_peak_rss_mb())
    }

    /// Alternates an untraced batch of starts with the replay of the same
    /// starts through the layer calls, until the run length has passed and
    /// at least `replay` starts were replayed. Each replayed start is checked
    /// like an untraced one and against its untraced twin.
    ///
    /// The two sides alternate, and a replayed start allocates on its worker
    /// exactly what an untraced one does (its probe goes to a slot allocated
    /// here beforehand), because flat RND refinement allocates on every
    /// bucket selection and its speed depends on what else is, or was, live
    /// on the worker's heap: a 1 KB value held by the executor while the
    /// worker's next start ran made it about three times slower, and so did
    /// replaying after twelve seconds of untraced starts.
    fn layers(&self) -> Outcome {
        let threads = self.plan.threads;
        let (mut b, mut r) = (Batch::new(), Batch::new());
        let mut rounds: Vec<Vec<Probe>> = Vec::new();
        let t0 = Instant::now();
        while r.attempted < self.plan.replay || t0.elapsed() < self.window() {
            let round = rounds.len();
            b.round(self.seed, round, ROUND, threads, &|rng, ws| {
                untraced(self.wl, self.inputs, rng, ws, true)
            });
            let slots: Vec<Mutex<Probe>> = (0..ROUND).map(|_| Mutex::default()).collect();
            let claimed = AtomicUsize::new(0);
            r.round(self.seed, round, ROUND, threads, &|rng, ws| {
                let mut probe = Probe::default();
                let (p, cut) = replay::start(self.wl, &self.inputs.h, rng, ws, &mut probe)?;
                check(self.wl, self.inputs, &p, cut)?;
                let slot = slots
                    .get(claimed.fetch_add(1, Ordering::Relaxed))
                    .ok_or("more replayed starts than probe slots")?;
                *slot
                    .lock()
                    .expect("no probe writer panics holding the lock") = probe;
                Ok(Start {
                    wall: probe.total,
                    cut,
                    assignment: Some(p.assignment().to_vec()),
                })
            });
            let claimed = claimed.into_inner();
            rounds.push(
                slots
                    .into_iter()
                    .take(claimed)
                    .map(|m| {
                        m.into_inner()
                            .expect("no probe writer panics holding the lock")
                    })
                    .collect(),
            );
        }
        let mut o = Outcome {
            attempted: b.attempted + r.attempted,
            failures: [b.failures.as_slice(), &r.failures].concat(),
            metrics: Vec::new(),
        };
        let (mut untraced_ms, mut replayed_ms) = (Vec::new(), Vec::new());
        for (j, replayed) in &r.done {
            let Some(s) = b.get(*j) else { continue };
            untraced_ms.push(ms(s.wall));
            replayed_ms.push(ms(replayed.wall));
            if s.assignment != replayed.assignment {
                o.failures
                    .push(format!("start {j}: the replay diverged from the pipeline"));
            }
        }
        let probes: Vec<&Probe> = rounds.iter().flatten().collect();
        let counted: Vec<&Probe> = rounds
            .iter()
            .take(self.plan.replay.div_ceil(ROUND))
            .flatten()
            .collect();
        layer_metrics(
            &mut o,
            self.setups,
            &probes,
            &counted,
            Extra {
                parallel_eff: ratio(b.busy.as_secs_f64(), threads as f64 * b.wall.as_secs_f64()),
                cli_overhead_ms: 0.0,
                checkpoint_bytes: 0,
                trace_overhead_frac: ratio(median(&replayed_ms), median(&untraced_ms)) - 1.0,
            },
        );
        o
    }

    /// Alternates an `mlpart` invocation with its replay in process through
    /// the layer calls, until the run length has passed and at least
    /// `replay` invocations were replayed. Each replay must reproduce the
    /// CLI's printed cut and `best.part` bytes.
    fn cli_layers(&self) -> Outcome {
        let mut b = Batch::new();
        let mut o = Outcome::default();
        let (mut probes, mut invoked, mut checkpoint_bytes) = (Vec::new(), Vec::new(), 0);
        let t0 = Instant::now();
        while b.attempted < self.plan.replay || t0.elapsed() < self.window() {
            let j = b.attempted;
            invocation(self, &mut b);
            let mut probe = Probe::default();
            let seed = child_seed(self.seed, j as u64);
            match replay::cli(self.dir, seed, self.plan.threads, &mut probe) {
                Ok((cut, bytes)) => {
                    if let Some(inv) = b.get(j) {
                        invoked.push(ms(inv.wall));
                        if j < self.plan.replay {
                            checkpoint_bytes += inv.checkpoint_bytes;
                        }
                        if inv.cut != cut || inv.partition != bytes {
                            o.failures
                                .push(format!("invocation {j}: the replay diverged from mlpart"));
                        }
                    }
                    probes.push((j, probe));
                }
                Err(e) => o.failures.push(format!("replay {j}: {e}")),
            }
        }
        o.attempted = 2 * b.attempted;
        o.failures.extend(b.failures);
        let all: Vec<&Probe> = probes.iter().map(|(_, p)| p).collect();
        let counted: Vec<&Probe> = probes
            .iter()
            .filter(|(j, _)| *j < self.plan.replay)
            .map(|(_, p)| p)
            .collect();
        let replayed: Vec<f64> = all.iter().map(|p| ms(p.total)).collect();
        let busy: f64 = all.iter().map(|p| p.exec_busy.as_secs_f64()).sum();
        let wall: f64 = all.iter().map(|p| p.exec_wall.as_secs_f64()).sum();
        layer_metrics(
            &mut o,
            self.setups,
            &all,
            &counted,
            Extra {
                parallel_eff: ratio(busy, self.plan.threads as f64 * wall),
                cli_overhead_ms: median(&invoked) - median(&replayed),
                checkpoint_bytes,
                trace_overhead_frac: ratio(median(&replayed), median(&invoked)) - 1.0,
            },
        );
        o
    }
}

/// The end-to-end metrics of one untraced batch.
fn end_to_end_metrics<T>(
    setups: &[Setup],
    b: &Batch<T>,
    walls: &[f64],
    cuts: &[f64],
    rss_mb: f64,
) -> Outcome {
    let mut o = Outcome {
        attempted: b.attempted,
        failures: b.failures.clone(),
        metrics: Vec::new(),
    };
    let setup: Vec<f64> = setups.iter().map(|s| s.total.as_secs_f64()).collect();
    o.push("setup_s", "s", median(&setup));
    o.push("start_p50_ms", "ms", median(walls));
    o.push("start_p75_ms", "ms", quantile(walls, TAIL));
    o.push(
        "throughput_per_s",
        "1/s",
        ratio(walls.len() as f64, b.wall.as_secs_f64()),
    );
    o.push("cut_avg", "nets", mean(cuts));
    o.push("cut_p25", "nets", quantile(cuts, 0.25));
    o.push("peak_rss_mb", "MB", rss_mb);
    o
}

/// The per-layer values that do not come from the replayed starts' probes.
struct Extra {
    parallel_eff: f64,
    cli_overhead_ms: f64,
    checkpoint_bytes: u64,
    trace_overhead_frac: f64,
}

/// The per-layer metrics. Set-up times are medians over the set-ups; layer
/// times are medians over every replayed start, and counts are sums over
/// the `counted` ones, a fixed set, so they repeat exactly.
fn layer_metrics(
    o: &mut Outcome,
    setups: &[Setup],
    probes: &[&Probe],
    counted: &[&Probe],
    extra: Extra,
) {
    let generate: Vec<f64> = setups.iter().map(|s| ms(s.generate)).collect();
    let write: Vec<f64> = setups.iter().map(|s| ms(s.write)).collect();
    o.push("gen.generate_ms", "ms", median(&generate));
    o.push("gen.write_inputs_ms", "ms", median(&write));
    let per_start = |f: &dyn Fn(&Probe) -> f64| -> f64 {
        let v: Vec<f64> = probes.iter().map(|p| f(p)).collect();
        median(&v)
    };
    let time = |name: &str| per_start(&|p| ms(p.get(name)));
    let count =
        |name: &str| -> f64 { counted.iter().map(|p| p.counts.get(name)).sum::<u64>() as f64 };
    for name in [
        "hypergraph.read_hgr_ms",
        "hypergraph.read_fix_ms",
        "hypergraph.write_partition_ms",
        "hypergraph.cut_ms",
    ] {
        o.push(name, "ms", time(name));
    }
    for (name, unit) in [
        ("cluster.match_ms", "ms"),
        ("cluster.match_calls", "count"),
        ("cluster.match_modules", "count"),
        ("cluster.induce_ms", "ms"),
        ("cluster.induce_pins", "count"),
        ("cluster.project_ms", "ms"),
        ("cluster.project_modules", "count"),
        ("cluster.rebalance_ms", "ms"),
        ("cluster.rebalance_moves", "count"),
    ] {
        o.push(
            name,
            unit,
            if unit == "ms" {
                time(name)
            } else {
                count(name)
            },
        );
    }
    o.push("fm.initial_ms", "ms", time("fm.initial_ms"));
    o.push("fm.refine_ms", "ms", time("fm.refine_ms"));
    o.push("fm.gain_init_ms", "ms", time("fm.gain_init_ms"));
    o.push(
        "fm.move_phase_ms",
        "ms",
        per_start(&|p| {
            ms(p.get("fm.refine_ms")
                .saturating_sub(p.get("fm.gain_init_ms")))
        }),
    );
    let (attempted, kept) = (count("fm.moves_attempted"), count("fm.moves_kept"));
    o.push("fm.passes", "count", count("fm.passes"));
    o.push("fm.moves_attempted", "count", attempted);
    o.push("fm.moves_kept", "count", kept);
    o.push("fm.rollback_moves", "count", attempted - kept);
    o.push("fm.kept_ratio", "ratio", ratio(kept, attempted));
    o.push("kway.initial_ms", "ms", time("kway.initial_ms"));
    o.push("kway.refine_ms", "ms", time("kway.refine_ms"));
    o.push("kway.gain_init_ms", "ms", time("kway.gain_init_ms"));
    let (attempted, kept) = (count("kway.moves_attempted"), count("kway.moves_kept"));
    o.push("kway.passes", "count", count("kway.passes"));
    o.push("kway.moves_attempted", "count", attempted);
    o.push("kway.moves_kept", "count", kept);
    o.push("kway.kept_ratio", "ratio", ratio(kept, attempted));
    o.push("core.preflight_ms", "ms", time("core.preflight_ms"));
    o.push("core.recursive_ms", "ms", time("core.recursive_ms"));
    o.push(
        "core.glue_ms",
        "ms",
        per_start(&|p| ms(p.total.saturating_sub(Duration::from_nanos(p.times.sum())))),
    );
    o.push("exec.parallel_eff", "frac", extra.parallel_eff);
    o.push("cli.overhead_ms", "ms", extra.cli_overhead_ms);
    o.push(
        "checkpoint.file_bytes",
        "bytes",
        extra.checkpoint_bytes as f64,
    );
    o.push("trace.overhead_frac", "frac", extra.trace_overhead_frac);
}

/// The peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The largest peak resident set among this process's waited-for children
/// (`getrusage(RUSAGE_CHILDREN)`), in MiB.
fn children_peak_rss_mb() -> f64 {
    use std::ffi::{c_int, c_long};
    // `struct rusage`: two `struct timeval`s, then fourteen longs of which
    // `ru_maxrss` is the first.
    #[repr(C)]
    struct Rusage {
        times: [c_long; 4],
        maxrss: c_long,
        rest: [c_long; 13],
    }
    extern "C" {
        fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    }
    const RUSAGE_CHILDREN: c_int = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C `struct
    // rusage`, and getrusage writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
