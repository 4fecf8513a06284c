//! `obs-diff` — compare two observability artifacts for regressions.
//!
//! ```text
//! obs-diff [OPTIONS] <BASELINE> <CANDIDATE>
//! ```
//!
//! Both inputs must be the same kind of artifact: run reports
//! (`mlpart-run-report-v3`, from `--report-out`), Chrome traces or
//! JSONL traces (from `--trace-out`). Exit codes: 0 clean, 1 telemetry
//! regression past a threshold, 2 content mismatch / unusable input.

use mlpart_obs::diff::{diff_documents, DiffOptions, EXIT_ERROR};
use std::process::ExitCode;

const USAGE: &str = "usage: obs-diff [OPTIONS] <BASELINE> <CANDIDATE>

Compares two run reports or traces produced by the same workload.
Normative content must be byte-identical after normalization (exit 2
otherwise); per-phase time/alloc ratios past a threshold exit 1.

options:
  --max-time-ratio R    flag phases slower than R x baseline   [1.5]
  --max-alloc-ratio R   flag phases allocating > R x baseline  [1.5]
  --min-total-ns N      ignore phases under N ns baseline      [1000000]
  --min-alloc-bytes N   ignore phases under N bytes baseline   [1048576]
  -h, --help            print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("obs-diff: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(EXIT_ERROR)
}

fn main() -> ExitCode {
    let mut opts = DiffOptions::default();
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> Result<f64, String> {
            let v = args.next().ok_or(format!("{name} needs a value"))?;
            v.parse::<f64>()
                .map_err(|_| format!("{name}: bad number '{v}'"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--max-time-ratio" => match num(&arg) {
                Ok(v) => opts.max_time_ratio = v,
                Err(e) => return fail(&e),
            },
            "--max-alloc-ratio" => match num(&arg) {
                Ok(v) => opts.max_alloc_ratio = v,
                Err(e) => return fail(&e),
            },
            "--min-total-ns" => match num(&arg) {
                Ok(v) => opts.min_total_ns = v as u64,
                Err(e) => return fail(&e),
            },
            "--min-alloc-bytes" => match num(&arg) {
                Ok(v) => opts.min_alloc_bytes = v as u64,
                Err(e) => return fail(&e),
            },
            _ if arg.starts_with('-') => return fail(&format!("unknown option '{arg}'")),
            _ => paths.push(arg),
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
