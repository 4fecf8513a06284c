//! `perf`: the benchmark of the mlpart pipelines — four workloads, their
//! end-to-end metrics, and a per-layer ledger timed from outside the
//! pipeline. README.md beside this crate explains the workloads, metrics
//! and bounds.
//!
//! ```text
//! perf --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//! perf [--seed S] [--seconds T] [--record BASELINE.json --rev REV]
//! perf --check BASELINE.json
//! ```
//!
//! With `--workload`, one run: the untraced end-to-end metrics
//! (`--trace 0`) or the traced per-layer ones (`--trace 1`), ending with
//! one JSON result line. Without it, every workload in both modes, each in
//! a fresh `perf` process, ending with the ledger of all of them;
//! `--record` appends that ledger to a baseline file and `--check` compares
//! a fresh one against a baseline, at the baseline's seed and run length.
//! Exit codes: 0 success, 1 a failed start or check, 2 bad usage.

mod ledger;
mod replay;
mod run;
mod workload;

use ledger::{compare, Declaration};
use mlpart_obs::json::{self, Json};
use std::process::{Command, ExitCode, Stdio};
use workload::Workload;

const USAGE: &str = "usage: perf --workload NAME [--seed S] [--seconds T] [--trace 0|1]\n\
       perf [--seed S] [--seconds T] [--record BASELINE.json --rev REV]\n\
       perf --check BASELINE.json";

const BASELINE_SCHEMA: &str = "mlpart-perf-baseline-v1";

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    check: Option<String>,
    record: Option<String>,
    rev: Option<String>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => out.seed = Some(number(value()?)?),
            "--seconds" => out.seconds = Some(number(value()?)?),
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--check" => out.check = Some(value()?),
            "--record" => out.record = Some(value()?),
            "--rev" => out.rev = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.workload.is_some() && (out.check.is_some() || out.record.is_some()) {
        return Err("--check and --record run every workload; drop --workload".to_string());
    }
    if out.check.is_some() && (out.seed.is_some() || out.seconds.is_some()) {
        return Err("--check runs at the baseline's seed and run length".to_string());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = Declaration::load().and_then(|decl| {
        let seconds = args.seconds.unwrap_or(decl.run_seconds);
        let seed = args.seed.unwrap_or(1997);
        match (args.workload, &args.check, &args.record) {
            (Some(wl), _, _) => one(wl, seed, seconds, args.trace),
            (None, Some(path), _) => check(&decl, path),
            (None, None, Some(path)) => {
                let rev = args.rev.as_deref().unwrap_or("unknown");
                record(path, rev, seed, seconds)
            }
            (None, None, None) => Ok(all(seed, seconds)?.1),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One workload run; prints every metric with its unit, then the result
/// line. Returns whether every start passed.
fn one(wl: Workload, seed: u64, seconds: u64, traced: bool) -> Result<bool, String> {
    let plan = run::Plan::new(wl, seconds as f64);
    let o = run::run(wl, seed, &plan, traced).map_err(|e| format!("{}: {e}", wl.name()))?;
    for f in &o.failures {
        eprintln!("{}: failed {f}", wl.name());
    }
    for m in &o.metrics {
        println!(
            "{:<10} {:<30} {:>14.4} {}",
            wl.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    println!("{}", o.result_line());
    Ok(o.failures.is_empty())
}

/// Every workload in both modes, each in a fresh `perf` process so peak
/// memory and allocator state stay per run. Prints the runs' metric lines
/// and then the ledger `{workload: {trace0: result, trace1: result}}`.
fn all(seed: u64, seconds: u64) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perf: {e}"))?;
    let mut ledger = Vec::new();
    let mut correct = true;
    for wl in Workload::ALL {
        let mut modes = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", wl.name(), "--trace", trace])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            let result = json::parse(last)
                .map_err(|e| format!("{} --trace {trace}: no result line ({e})", wl.name()))?;
            correct &= out.status.success() && result.get("correct") == Some(&Json::Bool(true));
            modes.push((format!("trace{trace}"), result));
        }
        ledger.push((wl.name().to_string(), Json::Obj(modes)));
    }
    let ledger = Json::Obj(ledger);
    println!("{}", json::to_string(&ledger));
    Ok((ledger, correct))
}

fn num(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or(format!("baseline has no {key:?}"))
}

/// Appends a fresh ledger to the baseline at `path`, creating it if needed.
fn record(path: &str, rev: &str, seed: u64, seconds: u64) -> Result<bool, String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            if (num(&doc, "seed")?, num(&doc, "seconds")?) != (seed, seconds) {
                return Err(format!("{path} was recorded at another seed or run length"));
            }
            doc.get("runs")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .to_vec()
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let (ledger, correct) = all(seed, seconds)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    runs.push(Json::Obj(vec![
        ("rev".to_string(), Json::Str(rev.to_string())),
        ("nproc".to_string(), Json::Num(nproc as f64)),
        ("ledger".to_string(), ledger),
    ]));
    // One run per line keeps the file diffable.
    let mut text = format!(
        "{{\"schema\":\"{BASELINE_SCHEMA}\",\"seed\":{seed},\"seconds\":{seconds},\"runs\":[\n"
    );
    let lines: Vec<String> = runs.iter().map(json::to_string).collect();
    text.push_str(&lines.join(",\n"));
    text.push_str("\n]}\n");
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(correct)
}

/// Runs every workload at the baseline's seed and run length and reports
/// each metric that differs where it must repeat exactly, or is worse than
/// the baseline by more than its bound.
fn check(decl: &Declaration, path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(BASELINE_SCHEMA) {
        return Err(format!("{path} is not a {BASELINE_SCHEMA} file"));
    }
    let baseline: Vec<&Json> = doc
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| r.get("ledger"))
        .collect();
    if baseline.is_empty() {
        return Err(format!("{path} holds no runs"));
    }
    let (fresh, correct) = all(num(&doc, "seed")?, num(&doc, "seconds")?)?;
    let violations = compare(decl, &baseline, &fresh);
    for v in &violations {
        eprintln!("regression: {v}");
    }
    eprintln!(
        "check against {path}: {} violation(s) over {} baseline run(s)",
        violations.len(),
        baseline.len()
    );
    Ok(correct && violations.is_empty())
}

#[cfg(test)]
mod tests;
