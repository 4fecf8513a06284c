//! `obs-diff` — compare two observability artifacts for regressions.
//!
//! ```text
//! obs-diff [OPTIONS] <BASELINE> <CANDIDATE>
//! ```
//!
//! Both inputs must be run reports (`mlpart-run-report-v3`, from
//! `--report-out`). Exit codes: 0 clean, 1 telemetry regression past a
//! threshold, 2 content mismatch / unusable input.

use mlpart_obs::diff::{diff_documents, DiffOptions, EXIT_ERROR};
use std::process::ExitCode;

const USAGE: &str = "usage: obs-diff [OPTIONS] <BASELINE> <CANDIDATE>

Compares two mlpart-run-report-v3 run reports (written by --report-out)
of the same workload. Normative content must be byte-identical after
normalization (exit 2 otherwise); per-phase time/alloc ratios past a
threshold exit 1.

options:
  --max-time-ratio R    flag phases slower than R x baseline   [1.5]
  --max-alloc-ratio R   flag phases allocating > R x baseline  [1.5]
                        (R is finite and > 0)
  --min-total-ns N      ignore phases under N ns baseline      [1000000]
  --min-alloc-bytes N   ignore phases under N bytes baseline   [1048576]
  -h, --help            print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("obs-diff: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(EXIT_ERROR)
}

/// A threshold ratio: finite and > 0, or no ratio can flag anything.
fn parse_ratio(name: &str, v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(r) if r.is_finite() && r > 0.0 => Ok(r),
        _ => Err(format!("{name}: expected a finite ratio > 0, got '{v}'")),
    }
}

/// A noise floor: a whole number of nanoseconds or bytes.
fn parse_floor(name: &str, v: &str) -> Result<u64, String> {
    v.parse::<u64>()
        .map_err(|_| format!("{name}: expected a whole number >= 0, got '{v}'"))
}

fn main() -> ExitCode {
    let mut opts = DiffOptions::default();
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        let parsed = match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--max-time-ratio" => value()
                .and_then(|v| parse_ratio(&arg, &v))
                .map(|r| opts.max_time_ratio = r),
            "--max-alloc-ratio" => value()
                .and_then(|v| parse_ratio(&arg, &v))
                .map(|r| opts.max_alloc_ratio = r),
            "--min-total-ns" => value()
                .and_then(|v| parse_floor(&arg, &v))
                .map(|n| opts.min_total_ns = n),
            "--min-alloc-bytes" => value()
                .and_then(|v| parse_floor(&arg, &v))
                .map(|n| opts.min_alloc_bytes = n),
            _ if arg.starts_with('-') => Err(format!("unknown option '{arg}'")),
            _ => {
                paths.push(arg);
                Ok(())
            }
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    if paths.len() != 2 {
        return fail("expected exactly two input files");
    }
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = match (read(&paths[0]), read(&paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("obs-diff: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let result = diff_documents(&paths[0], &a, &paths[1], &b, &opts);
    print!("{}", result.text);
    ExitCode::from(result.exit)
}
