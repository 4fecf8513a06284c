//! End-to-end exit-code contract of the `obs-diff` binary over committed
//! run-report fixtures: a clean self-compare exits 0, the injected 10x
//! regression fixture exits 1, a structural change exits 2 — the full
//! 0/1/2 ladder through a real process, not just the library.

use std::process::Command;

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_obs-diff"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn self_compare_exits_zero() {
    let out = diff(&[&fixture("diff-base.json"), &fixture("diff-base.json")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("identical"), "stdout: {text}");
    assert!(text.contains("verdict: clean"), "stdout: {text}");
}

#[test]
fn injected_regression_fixture_exits_one() {
    let out = diff(&[&fixture("diff-base.json"), &fixture("diff-regressed.json")]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSION"), "stdout: {text}");
    assert!(text.contains("level"), "names the regressed phase: {text}");
}

#[test]
fn loosened_threshold_accepts_the_regression() {
    let out = diff(&[
        "--max-time-ratio",
        "100",
        &fixture("diff-base.json"),
        &fixture("diff-regressed.json"),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn structural_change_exits_two() {
    let out = diff(&[&fixture("diff-base.json"), &fixture("diff-mismatch.json")]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MISMATCH"), "stdout: {text}");
}

#[test]
fn missing_file_and_bad_usage_exit_two() {
    let out = diff(&[&fixture("diff-base.json"), "/no/such/file.json"]);
    assert_eq!(out.status.code(), Some(2));
    let out = diff(&[&fixture("diff-base.json")]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("usage"), "stderr: {err}");
    // Bad thresholds: negative or fractional floors, and ratios that are
    // not finite or not positive, which could never flag a phase.
    let (base, regressed) = (fixture("diff-base.json"), fixture("diff-regressed.json"));
    for (flag, value) in [
        ("--min-total-ns", "-5"),
        ("--min-total-ns", "1.5"),
        ("--min-alloc-bytes", "-1"),
        ("--min-alloc-bytes", "many"),
        ("--max-time-ratio", "nan"),
        ("--max-time-ratio", "inf"),
        ("--max-time-ratio", "0"),
        ("--max-alloc-ratio", "-2"),
        ("--max-alloc-ratio", "NaN"),
    ] {
        let out = diff(&[flag, value, &base, &regressed]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flag) && err.contains("usage"),
            "{flag} {value}: {err}"
        );
    }
    let out = diff(&["--min-total-ns"]);
    assert_eq!(out.status.code(), Some(2));
    // A zero floor is valid: every phase can be flagged.
    let out = diff(&["--min-total-ns", "0", &base, &regressed]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn help_exits_zero() {
    let out = diff(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("--max-time-ratio"), "stdout: {text}");
}
