//! End-to-end crash-safety: the `mlpart` binary survives `SIGKILL`
//! mid-batch and resumes to byte-identical outputs, rejects checkpoints
//! from other invocations, and (with the `fault` feature) turns injected
//! panics into retries and injected imbalance into repairs.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlpart"))
}

/// A per-test scratch directory (fresh every run; removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("mlpart-resilience-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().expect("utf8 path").to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Kill the run partway through, resume it, and demand the partition (and,
/// under `obs`, the report's normative content) match an uninterrupted
/// run's bytes — at one and at four threads, resuming at a *different*
/// thread count than the killed run used.
#[test]
fn kill_mid_run_then_resume_is_byte_identical() {
    for &threads in &[1usize, 4] {
        let s = Scratch::new(&format!("kill-{threads}"));
        let common = ["syn-balu", "--runs", "40", "--seed", "3", "--retries", "2"];
        let full = bin()
            .args(common)
            .args(["--threads", &threads.to_string()])
            .args(["--output", &s.path("full.part")])
            .output()
            .expect("full run");
        assert!(full.status.success(), "{}", stderr_of(&full));

        let mut child = bin()
            .args(common)
            .args(["--threads", &threads.to_string()])
            .args(["--checkpoint", &s.path("run.ckpt")])
            .args(["--output", &s.path("killed.part")])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn");
        std::thread::sleep(std::time::Duration::from_millis(200));
        // On a loaded machine the run may not have written its checkpoint
        // header yet, and a kill then leaves resume nothing to resume
        // from: wait for the file (the header lands by an atomic rename).
        let ckpt = s.0.join("run.ckpt");
        for _ in 0..1_000 {
            if ckpt.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // SIGKILL: no destructors, no flushing — only the atomic rename
        // protocol protects the checkpoint. (If the batch happened to
        // finish first, resume degrades to a full restore; the byte
        // identity below must hold either way.)
        let _ = child.kill();
        let _ = child.wait();

        let other_threads = if threads == 1 { 4 } else { 1 };
        let resumed = bin()
            .args(common)
            .args(["--threads", &other_threads.to_string()])
            .args(["--checkpoint", &s.path("run.ckpt")])
            .arg("--resume")
            .args(["--output", &s.path("resumed.part")])
            .output()
            .expect("resumed run");
        let err = stderr_of(&resumed);
        assert!(resumed.status.success(), "{err}");
        assert!(err.contains("resuming from"), "{err}");
        assert_eq!(
            read(&s.path("full.part")),
            read(&s.path("resumed.part")),
            "threads {threads}->{other_threads}: resumed partition differs"
        );
    }
}

/// A kill mid-append leaves the checkpoint's last record unterminated.
/// Resuming drops that line and reruns its start: the partition matches
/// an uninterrupted run's, and the rewritten checkpoint (restored records
/// in start order, then the rerun start appended) is byte-identical to
/// the uninterrupted one-thread run's. Both runs are untraced: a traced
/// record embeds its start's timestamps.
#[test]
fn torn_checkpoint_tail_reruns_its_start() {
    let s = Scratch::new("torn");
    let common = ["syn-balu", "--runs", "6", "--seed", "3", "--threads", "1"];
    let full = bin()
        .args(common)
        .args(["--checkpoint", &s.path("full.ckpt")])
        .args(["--output", &s.path("full.part")])
        .output()
        .expect("full run");
    assert!(full.status.success(), "{}", stderr_of(&full));
    let text = String::from_utf8(read(&s.path("full.ckpt"))).expect("utf8 checkpoint");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 7, "header and six records");
    let last = lines[6];
    let torn = &text[..text.len() - 1 - last.len() / 2];
    std::fs::write(s.path("torn.ckpt"), torn).expect("torn checkpoint");

    let resumed = bin()
        .args(common)
        .args(["--checkpoint", &s.path("torn.ckpt")])
        .arg("--resume")
        .args(["--output", &s.path("resumed.part")])
        .output()
        .expect("resumed run");
    let err = stderr_of(&resumed);
    assert!(resumed.status.success(), "{err}");
    assert!(err.contains("resuming from"), "{err}");
    assert_eq!(read(&s.path("full.part")), read(&s.path("resumed.part")));
    assert_eq!(read(&s.path("full.ckpt")), read(&s.path("torn.ckpt")));
}

/// Same split, but with reports: the resumed report's normative content
/// (trace, cuts, profile, metrics — everything but timing) must be
/// indistinguishable from the uninterrupted run's.
#[cfg(feature = "obs")]
#[test]
fn resumed_report_content_matches_uninterrupted() {
    let s = Scratch::new("report");
    let common = ["syn-balu", "--runs", "30", "--seed", "9", "--threads", "4"];
    let full = bin()
        .args(common)
        .args(["--report-out", &s.path("full.json")])
        .output()
        .expect("full run");
    assert!(full.status.success(), "{}", stderr_of(&full));

    let mut child = bin()
        .args(common)
        .args(["--checkpoint", &s.path("run.ckpt")])
        .args(["--report-out", &s.path("killed.json")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn");
    std::thread::sleep(std::time::Duration::from_millis(150));
    let _ = child.kill();
    let _ = child.wait();

    let resumed = bin()
        .args(common)
        .args(["--checkpoint", &s.path("run.ckpt")])
        .arg("--resume")
        .args(["--report-out", &s.path("resumed.json")])
        .output()
        .expect("resumed run");
    assert!(resumed.status.success(), "{}", stderr_of(&resumed));

    let a = std::fs::read_to_string(s.path("full.json")).expect("full report");
    let b = std::fs::read_to_string(s.path("resumed.json")).expect("resumed report");
    let d = mlpart::obs::diff::diff_documents(
        "full",
        &a,
        "resumed",
        &b,
        &mlpart::obs::diff::DiffOptions::default(),
    );
    assert_ne!(
        d.exit,
        mlpart::obs::diff::EXIT_ERROR,
        "normative content diverged:\n{}",
        d.text
    );
}

/// A checkpoint from a different invocation (here: another seed) is
/// refused with exit 2 — never a silent partial resume.
#[test]
fn resume_rejects_mismatched_checkpoint() {
    let s = Scratch::new("mismatch");
    let written = bin()
        .args(["syn-balu", "--runs", "2", "--seed", "1"])
        .args(["--checkpoint", &s.path("run.ckpt")])
        .output()
        .expect("checkpointed run");
    assert!(written.status.success(), "{}", stderr_of(&written));
    let resumed = bin()
        .args(["syn-balu", "--runs", "2", "--seed", "2"])
        .args(["--checkpoint", &s.path("run.ckpt")])
        .arg("--resume")
        .output()
        .expect("mismatched resume");
    assert_eq!(resumed.status.code(), Some(2), "{}", stderr_of(&resumed));
    assert!(
        stderr_of(&resumed).contains("different invocation"),
        "{}",
        stderr_of(&resumed)
    );

    // Corrupt checkpoints are the same refusal.
    std::fs::write(s.path("run.ckpt"), "not a checkpoint\n").expect("corrupt");
    let corrupt = bin()
        .args(["syn-balu", "--runs", "2", "--seed", "1"])
        .args(["--checkpoint", &s.path("run.ckpt")])
        .arg("--resume")
        .output()
        .expect("corrupt resume");
    assert_eq!(corrupt.status.code(), Some(2), "{}", stderr_of(&corrupt));

    // A missing checkpoint file is a fresh start, not an error.
    let fresh = bin()
        .args(["syn-balu", "--runs", "2", "--seed", "1"])
        .args(["--checkpoint", &s.path("absent.ckpt")])
        .arg("--resume")
        .output()
        .expect("fresh resume");
    assert!(fresh.status.success(), "{}", stderr_of(&fresh));
    assert!(
        stderr_of(&fresh).contains("starting fresh"),
        "{}",
        stderr_of(&fresh)
    );
}

/// An artifact flag turns tracing on in an `obs` build, so the records
/// carry traces and the header says so: resuming that checkpoint without
/// one is a different invocation. The environment turns nothing on: a run
/// that only sets the retired trace variable writes an untraced header.
#[cfg(feature = "obs")]
#[test]
fn traced_checkpoint_pins_the_trace_flag() {
    let s = Scratch::new("traced");
    let common = ["syn-balu", "--runs", "2", "--seed", "3", "--threads", "1"];
    let header = |ckpt: &str| {
        let text = String::from_utf8(read(&s.path(ckpt))).expect("utf8 checkpoint");
        text.lines().next().expect("header line").to_string()
    };
    let traced = bin()
        .args(common)
        .args(["--checkpoint", &s.path("run.ckpt")])
        .args(["--report-out", &s.path("run.json")])
        .output()
        .expect("traced run");
    assert!(traced.status.success(), "{}", stderr_of(&traced));
    let traced_header = header("run.ckpt");
    assert!(
        traced_header.ends_with("\"traced\":true}}"),
        "{traced_header}"
    );

    let resumed = bin()
        .args(common)
        .args(["--checkpoint", &s.path("run.ckpt")])
        .arg("--resume")
        .output()
        .expect("untraced resume");
    assert_eq!(resumed.status.code(), Some(2), "{}", stderr_of(&resumed));
    assert!(
        stderr_of(&resumed).contains("different invocation"),
        "{}",
        stderr_of(&resumed)
    );

    let env_only = bin()
        .env("MLPART_TRACE", "1")
        .args(common)
        .args(["--checkpoint", &s.path("env.ckpt")])
        .output()
        .expect("env-only run");
    assert!(env_only.status.success(), "{}", stderr_of(&env_only));
    let env_header = header("env.ckpt");
    assert!(env_header.ends_with("\"traced\":false}}"), "{env_header}");
}

/// An unwritable checkpoint path fails the run with exit 1 before any
/// start burns cycles.
#[test]
fn unwritable_checkpoint_path_exits_one() {
    let out = bin()
        .args(["syn-balu", "--runs", "2"])
        .args(["--checkpoint", "/nonexistent-dir/run.ckpt"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("cannot write"),
        "{}",
        stderr_of(&out)
    );
}

/// A malformed `MLPART_FAULTS` spec is invalid input: exit 2 and an error
/// naming the offending token, before any partitioning work.
#[cfg(feature = "fault")]
#[test]
fn malformed_fault_spec_exits_two() {
    let out = bin()
        .args(["syn-balu", "--runs", "1"])
        .env("MLPART_FAULTS", "panic@start:0,bogus-token")
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("invalid MLPART_FAULTS"), "{err}");
    assert!(err.contains("bogus-token"), "{err}");
}

/// An injected attempt panic is absorbed by `--retries` and the batch
/// still reports every start — bit-identically at every thread count.
#[cfg(feature = "fault")]
#[test]
fn injected_panics_are_retried_deterministically() {
    // Index 8 = start 1, attempt 0 (ATTEMPT_STRIDE = 8).
    let faults = "panic@attempt:8";
    let mut lines = Vec::new();
    for threads in ["1", "2", "4"] {
        let out = bin()
            .args(["syn-balu", "--runs", "3", "--seed", "5", "--retries", "2"])
            .args(["--threads", threads])
            .env("MLPART_FAULTS", faults)
            .output()
            .expect("runs");
        assert!(out.status.success(), "{}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(err.contains("attempt 0 panicked"), "{err}");
        assert!(err.contains("(retried)"), "{err}");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let cut_line = stdout
            .lines()
            .find(|l| l.contains("runs:"))
            .expect("cut line")
            .split('(')
            .next()
            .expect("prefix")
            .trim()
            .to_string();
        assert!(
            cut_line.contains("x3 runs"),
            "all starts survive: {cut_line}"
        );
        lines.push(cut_line);
    }
    assert_eq!(lines[0], lines[1], "thread-count-dependent retry results");
    assert_eq!(lines[0], lines[2], "thread-count-dependent retry results");

    // Without retries, the same fault costs the start.
    let out = bin()
        .args(["syn-balu", "--runs", "3", "--seed", "5"])
        .env("MLPART_FAULTS", faults)
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("x2 runs"),
        "start 1 should be excluded without retries"
    );
}

/// Injected imbalance is driven back inside the balance window by the
/// deterministic repair pass; the run succeeds and says so.
#[cfg(feature = "fault")]
#[test]
fn injected_imbalance_is_repaired() {
    let s = Scratch::new("repair");
    let out = bin()
        .args(["syn-balu", "--runs", "2", "--seed", "5"])
        .args(["--output", &s.path("best.part")])
        .env("MLPART_FAULTS", "unbalance@start:0")
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("repaired to feasible"),
        "{}",
        stderr_of(&out)
    );
    assert!(!read(&s.path("best.part")).is_empty());
}

/// Repairs land in the run report's `repairs` array.
#[cfg(all(feature = "fault", feature = "obs"))]
#[test]
fn repairs_are_reported() {
    let s = Scratch::new("repair-report");
    let out = bin()
        .args(["syn-balu", "--runs", "2", "--seed", "5"])
        .args(["--report-out", &s.path("report.json")])
        .env("MLPART_FAULTS", "unbalance@start:0")
        .output()
        .expect("runs");
    assert!(out.status.success(), "{}", stderr_of(&out));
    let report = std::fs::read_to_string(s.path("report.json")).expect("report");
    assert!(
        report.contains("\"repairs\":[{\"start\":0,"),
        "repairs array missing: {report}"
    );
    assert!(report.contains("\"feasible\":true"), "{report}");
}
