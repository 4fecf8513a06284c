//! End-to-end tests of the `mlpart` command-line binary: real process
//! invocations over temp files, exercising netlist input, algorithm
//! selection, partition output, and error paths.

use std::process::Command;

fn mlpart() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mlpart"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mlpart-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn partitions_a_synthetic_circuit() {
    let out = mlpart()
        .args(["syn-balu", "--algo", "ml-c", "--runs", "3", "--seed", "5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ml-c x3 runs: min"), "stdout: {stdout}");
}

#[test]
fn partitions_hgr_file_and_writes_part_file() {
    let hgr = temp_path("in.hgr");
    let part = temp_path("out.part");
    std::fs::write(&hgr, "3 6\n1 2 3\n4 5 6\n3 4\n").expect("write temp netlist");
    let out = mlpart()
        .arg(hgr.to_str().expect("utf8 path"))
        .args(["--algo", "fm", "--runs", "2"])
        .args(["--output", part.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&part).expect("partition written");
    let parts: Vec<&str> = written.lines().collect();
    assert_eq!(parts.len(), 6, "one part id per module");
    assert!(parts.iter().all(|l| l == &"0" || l == &"1"));
    let _ = std::fs::remove_file(&hgr);
    let _ = std::fs::remove_file(&part);
}

#[test]
fn quadrisection_flag_works() {
    let out = mlpart()
        .args(["syn-balu", "--algo", "ml-f", "--k", "4", "--runs", "2"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn thread_count_does_not_change_results() {
    // The executor promises bit-identical output at every thread count;
    // check it end-to-end through the binary, including the written
    // partition file. Only the timing parenthetical may differ.
    let report = |threads: &str, part: &std::path::Path| {
        let out = mlpart()
            .args(["syn-balu", "--algo", "ml-c", "--runs", "4", "--seed", "7"])
            .args(["--threads", threads])
            .args(["--output", part.to_str().expect("utf8 path")])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stats = stdout
            .split(" (")
            .next()
            .expect("report line has a timing parenthetical")
            .to_owned();
        let partition = std::fs::read_to_string(part).expect("partition written");
        (stats, partition)
    };
    let part1 = temp_path("t1.part");
    let part4 = temp_path("t4.part");
    let (stats1, partition1) = report("1", &part1);
    let (stats4, partition4) = report("4", &part4);
    assert_eq!(
        stats1, stats4,
        "cut statistics must not depend on --threads"
    );
    assert_eq!(
        partition1, partition4,
        "best partition must not depend on --threads"
    );
    assert!(stats1.contains("ml-c x4 runs: min"), "stats: {stats1}");
    let _ = std::fs::remove_file(&part1);
    let _ = std::fs::remove_file(&part4);
}

/// Without the `obs` feature the tracing flags fail fast with a pointer to
/// the right build invocation instead of silently writing nothing.
#[cfg(not(feature = "obs"))]
#[test]
fn tracing_flags_require_obs_feature() {
    let out = mlpart()
        .args(["syn-balu", "--runs", "1", "--trace-out", "x.json"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("obs"), "stderr should name the feature: {err}");
}

/// End-to-end tracing contract (needs `--features obs`): one fixed-seed
/// invocation writes a Chrome trace, a run report, and a folded-stack file;
/// the two JSON documents validate against the checked-in schemas, the
/// report covers every level and pass of the multilevel run, and the trace
/// *content* (timestamps stripped) is byte-identical across repeats and
/// thread counts — folded frame structure included.
#[cfg(feature = "obs")]
#[test]
fn trace_and_report_outputs_are_valid_and_deterministic() {
    use mlpart::obs::{json, schema, strip_folded, strip_timing};

    let run = |threads: &str, tag: &str| {
        let trace = temp_path(&format!("trace-{tag}.json"));
        let report = temp_path(&format!("report-{tag}.json"));
        let folded = temp_path(&format!("stacks-{tag}.folded"));
        let out = mlpart()
            .args(["syn-balu", "--algo", "ml-c", "--runs", "3", "--seed", "7"])
            .args(["--threads", threads])
            .args(["--trace-out", trace.to_str().expect("utf8 path")])
            .args(["--report-out", report.to_str().expect("utf8 path")])
            .args(["--folded-out", folded.to_str().expect("utf8 path")])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace_text = std::fs::read_to_string(&trace).expect("trace written");
        let report_text = std::fs::read_to_string(&report).expect("report written");
        let folded_text = std::fs::read_to_string(&folded).expect("folded written");
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&report);
        let _ = std::fs::remove_file(&folded);
        (trace_text, report_text, folded_text)
    };

    let (trace1, report1, folded1) = run("1", "a");

    // The folded export is flamegraph.pl input: `frame;frame;... value`
    // lines with semicolon-nested stacks rooted at the CLI's run span.
    assert!(folded1.contains(';'), "folded stacks nest: {folded1}");
    for line in folded1.lines() {
        assert!(
            line.rsplit_once(' ')
                .is_some_and(|(stack, v)| !stack.is_empty() && v.parse::<u64>().is_ok()),
            "folded line is `stack value`: {line:?}"
        );
    }

    // Both documents validate against the schemas CI ships.
    let chrome_schema = json::parse(include_str!("../schemas/chrome-trace.schema.json"))
        .expect("chrome schema parses");
    let report_schema = json::parse(include_str!("../schemas/run-report.schema.json"))
        .expect("report schema parses");
    let trace_doc = json::parse(&trace1).expect("trace is valid JSON");
    let report_doc = json::parse(&report1).expect("report is valid JSON");
    assert_eq!(
        schema::validate(&chrome_schema, &trace_doc),
        Vec::<String>::new()
    );
    assert_eq!(
        schema::validate(&report_schema, &report_doc),
        Vec::<String>::new()
    );

    // The report covers the whole multilevel run: one start span per run,
    // per-level spans, and per-pass counters.
    assert_eq!(report1.matches("\"name\":\"start\"").count(), 3);
    assert!(
        report1.contains("\"name\":\"level\""),
        "level spans present"
    );
    assert!(
        report1.contains("\"name\":\"fm_pass\""),
        "pass counters present"
    );
    assert!(
        report1.contains("\"name\":\"coarsen\""),
        "coarsening covered"
    );
    assert!(
        report1.contains("\"name\":\"initial\""),
        "initial partitioning covered"
    );

    // Content determinism: repeats and thread counts agree once the timing
    // fields are zeroed (folded stacks: once sample values are zeroed).
    let (trace1b, report1b, folded1b) = run("1", "b");
    assert_eq!(strip_timing(&trace1), strip_timing(&trace1b), "repeat run");
    assert_eq!(
        strip_timing(&report1),
        strip_timing(&report1b),
        "repeat run"
    );
    assert_eq!(
        strip_folded(&folded1),
        strip_folded(&folded1b),
        "repeat run"
    );
    let (trace4, report4, folded4) = run("4", "c");
    assert_eq!(strip_timing(&trace1), strip_timing(&trace4), "threads=4");
    assert_eq!(strip_folded(&folded1), strip_folded(&folded4), "threads=4");
    // The report's meta records the thread count itself — the one field
    // that legitimately differs — so normalize it before comparing.
    let normalize = |s: &str| strip_timing(s).replace("\"threads\":4", "\"threads\":1");
    assert_eq!(normalize(&report1), normalize(&report4), "threads=4");
}

/// `--stats` prints the same per-level table with tracing on
/// (`--report-out`) and off, under both schedules, bisection and k-way
/// alike. Only the `fill_ms` column (wall clock) is ignored.
#[cfg(feature = "obs")]
#[test]
fn trace_and_report_stats_match_untraced_stats() {
    let table = |extra: &[&str], traced: bool| {
        let mut cmd = mlpart();
        cmd.args(["syn-primary1", "--runs", "1", "--seed", "3", "--stats"])
            .args(extra);
        let report = temp_path("stats-traced.json");
        if traced {
            cmd.arg("--report-out").arg(&report);
        }
        let out = cmd.output().expect("binary runs");
        let _ = std::fs::remove_file(&report);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .skip_while(|l| !l.starts_with("level"))
            .take_while(|l| l.starts_with("level") || l.trim_start().starts_with(char::is_numeric))
            .map(|l| l.split_whitespace().take(9).collect::<Vec<_>>().join(" "))
            .collect::<Vec<_>>()
    };
    for extra in [
        &["--algo", "ml-c"][..],
        &["--algo", "ml-c", "--epsilon", "0.2"],
        &["--algo", "ml-f", "--k", "4"],
        &["--algo", "ml-f", "--k", "4", "--epsilon", "0.2"],
    ] {
        let untraced = table(extra, false);
        assert!(untraced.len() > 2, "{extra:?}: a multilevel table");
        assert_eq!(table(extra, true), untraced, "{extra:?}");
    }
}

/// `--stats` after `--resume`: the checkpoint stores each start's result but
/// not its per-level stats, so a restored start 0 is reported as such, not
/// as a flat run.
#[test]
fn stats_after_resume_names_the_restored_start() {
    let ckpt = temp_path("stats-resume.jsonl");
    let _ = std::fs::remove_file(&ckpt);
    let run = |resume: bool| {
        let mut cmd = mlpart();
        cmd.args([
            "syn-balu", "--algo", "ml-c", "--runs", "3", "--seed", "4", "--stats",
        ])
        .arg("--checkpoint")
        .arg(&ckpt);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let fresh = run(false);
    assert!(fresh.lines().any(|l| l.starts_with("level")), "{fresh}");
    let resumed = run(true);
    let _ = std::fs::remove_file(&ckpt);
    assert!(resumed.contains("3 of 3 starts already done"), "{resumed}");
    assert!(!resumed.contains("flat algorithm"), "{resumed}");
    assert!(
        resumed.contains("start 0 was restored from the checkpoint"),
        "{resumed}"
    );
}

/// `--help` is a successful command (exit 0) and documents the full
/// exit-code contract so scripts can rely on it.
#[test]
fn help_exits_zero_and_documents_exit_codes() {
    let out = mlpart().arg("--help").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "exit codes:",
        "0  success",
        "1  execution failure",
        "2  invalid input",
        "3  budget truncated",
    ] {
        assert!(
            stdout.contains(needle),
            "--help missing {needle:?}: {stdout}"
        );
    }
}

/// Exit-code contract, code 2: malformed netlists are invalid input, not
/// crashes or generic failures.
#[test]
fn malformed_netlist_exits_two() {
    let hgr = temp_path("garbage.hgr");
    std::fs::write(&hgr, "2 3\n1 99\n2 3\n").expect("write temp netlist");
    let out = mlpart()
        .arg(hgr.to_str().expect("utf8 path"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse"), "stderr: {err}");
    let _ = std::fs::remove_file(&hgr);
}

/// Exit-code contract, code 2: a structurally valid netlist that cannot
/// satisfy the requested partitioning (here k exceeds the module count)
/// is rejected by pre-flight before any start runs.
#[test]
fn infeasible_input_exits_two() {
    let hgr = temp_path("tiny.hgr");
    std::fs::write(&hgr, "1 2\n1 2\n").expect("write temp netlist");
    let out = mlpart()
        .arg(hgr.to_str().expect("utf8 path"))
        .args(["--algo", "ml-c", "--k", "4"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("infeasible input"), "stderr: {err}");
    let _ = std::fs::remove_file(&hgr);
}

/// Exit-code contract, code 2: net weights whose incident sums overflow
/// the engines' gain buckets are invalid input, reported in one line by
/// every algorithm, never as a panic.
#[test]
fn overweight_nets_exit_two_without_panicking() {
    let hgr = temp_path("heavy.hgr");
    // An 8-module ring (weighted `.hgr`, fmt 1): each module touches two
    // nets of weight 10^9.
    let nets: String = (1..=8)
        .map(|i| format!("1000000000 {i} {}\n", i % 8 + 1))
        .collect();
    std::fs::write(&hgr, format!("8 8 1\n{nets}")).expect("write temp netlist");
    let cases: [&[&str]; 8] = [
        &["--algo", "fm"],
        &["--algo", "clip"],
        &["--algo", "ml-c"],
        &["--algo", "ml-f"],
        &["--algo", "lsmc"],
        &["--algo", "two-phase"],
        &["--algo", "ml-f", "--k", "4"],
        &["--algo", "ml-c", "--k", "3"],
    ];
    for args in cases {
        let out = mlpart()
            .arg(hgr.to_str().expect("utf8 path"))
            .args(args)
            .args(["--runs", "2"])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        let messages: Vec<&str> = err.lines().filter(|l| l.contains("too large")).collect();
        assert_eq!(messages.len(), 1, "{args:?}: {err}");
        assert!(
            messages[0].contains("net weights too large"),
            "{args:?}: {err}"
        );
    }
    let _ = std::fs::remove_file(&hgr);
}

/// Exit-code contract, code 3: a budget-truncated run still prints the cut
/// statistics and writes a complete, valid partition file — the exit code
/// is the only signal that the result is partial.
#[test]
fn budget_truncation_exits_three_and_still_writes_partition() {
    let part = temp_path("truncated.part");
    let out = mlpart()
        .args(["syn-balu", "--algo", "ml-c", "--runs", "2", "--seed", "3"])
        .args(["--max-passes", "1"])
        .args(["--output", part.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ml-c x2 runs: min"), "stdout: {stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget-truncated"), "stderr: {err}");
    let written = std::fs::read_to_string(&part).expect("partition still written");
    let parts: Vec<&str> = written.lines().collect();
    assert_eq!(parts.len(), 801, "one part id per syn-balu module");
    assert!(parts.iter().all(|l| l == &"0" || l == &"1"));
    let _ = std::fs::remove_file(&part);
}

/// Budget flags do not work with the flat LSMC baseline — rejecting the
/// combination is invalid input, not a silent no-op.
#[test]
fn budget_with_lsmc_exits_two() {
    let out = mlpart()
        .args(["syn-balu", "--algo", "lsmc", "--max-moves", "10"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// End-to-end panic isolation (needs `--features fault`): an injected
/// per-start panic is reported on stderr, the start is excluded, and the
/// surviving starts still produce a successful result.
#[cfg(feature = "fault")]
#[test]
fn injected_start_panic_is_isolated_end_to_end() {
    let out = mlpart()
        .args(["syn-balu", "--algo", "ml-c", "--runs", "3", "--seed", "5"])
        .env("MLPART_FAULTS", "panic@start:1")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("start 1 panicked") && err.contains("excluded"),
        "stderr: {err}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ml-c x2 runs: min"), "stdout: {stdout}");
}

/// End-to-end all-starts-failed (needs `--features fault`): when every
/// start panics there is no result and the exit code is 1, not a crash.
#[cfg(feature = "fault")]
#[test]
fn all_starts_failed_exits_one() {
    let out = mlpart()
        .args(["syn-balu", "--algo", "ml-c", "--runs", "2", "--seed", "5"])
        .env("MLPART_FAULTS", "panic@start:0|1")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("every start failed"), "stderr: {err}");
}

/// The acceptance-criterion invocation: `--k 8 --epsilon 0.05 --fixed`
/// produces a valid 8-way partition that honors every pin in the `.fix`
/// file, end to end through the binary and the written partition file.
#[test]
fn constrained_k8_run_honors_fix_file() {
    let fix = temp_path("cells8.fix");
    let part = temp_path("k8.part");
    // Pin module 0 to part 7, module 3 to part 0, module 10 to part 5;
    // everything else free. syn-balu has 801 modules.
    let mut fix_lines = vec!["-1".to_owned(); 801];
    fix_lines[0] = "7".to_owned();
    fix_lines[3] = "0".to_owned();
    fix_lines[10] = "5".to_owned();
    std::fs::write(&fix, fix_lines.join("\n") + "\n").expect("write fix file");
    let out = mlpart()
        .args(["syn-balu", "--algo", "ml-c", "--runs", "2", "--seed", "9"])
        .args(["--k", "8", "--epsilon", "0.05"])
        .args(["--fixed", fix.to_str().expect("utf8 path")])
        .args(["--output", part.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&part).expect("partition written");
    let ids: Vec<u32> = written
        .lines()
        .map(|l| l.parse().expect("part id"))
        .collect();
    assert_eq!(ids.len(), 801, "one part id per module");
    assert!(ids.iter().all(|&p| p < 8), "all ids below k");
    assert_eq!(ids[0], 7, "pin to part 7 honored");
    assert_eq!(ids[3], 0, "pin to part 0 honored");
    assert_eq!(ids[10], 5, "pin to part 5 honored");
    // Every part is populated: a degenerate empty part would mean the
    // recursive splitter lost a region.
    for p in 0..8u32 {
        assert!(ids.contains(&p), "part {p} is empty");
    }
    let _ = std::fs::remove_file(&fix);
    let _ = std::fs::remove_file(&part);
}

/// Constrained runs are thread-count invariant end to end, pins included.
#[test]
fn constrained_run_is_thread_count_invariant() {
    let fix = temp_path("pins.fix");
    let mut fix_lines = vec!["-1".to_owned(); 801];
    fix_lines[0] = "1".to_owned();
    fix_lines[17] = "0".to_owned();
    std::fs::write(&fix, fix_lines.join("\n") + "\n").expect("write fix file");
    let report = |threads: &str, tag: &str| {
        let part = temp_path(&format!("cfix-{tag}.part"));
        let out = mlpart()
            .args(["syn-balu", "--algo", "ml-c", "--runs", "3", "--seed", "11"])
            .args(["--fixed", fix.to_str().expect("utf8 path")])
            .args(["--threads", threads])
            .args(["--output", part.to_str().expect("utf8 path")])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let stats = stdout.split(" (").next().expect("report line").to_owned();
        let partition = std::fs::read_to_string(&part).expect("partition written");
        let _ = std::fs::remove_file(&part);
        (stats, partition)
    };
    let (stats1, part1) = report("1", "a");
    let (stats4, part4) = report("4", "b");
    assert_eq!(stats1, stats4, "cut stats must not depend on --threads");
    assert_eq!(part1, part4, "partition must not depend on --threads");
    let ids: Vec<&str> = part1.lines().collect();
    assert_eq!(ids[0], "1");
    assert_eq!(ids[17], "0");
    let _ = std::fs::remove_file(&fix);
}

/// Exit-code contract, code 2: pins that overcommit a part's capacity are
/// an infeasible instance, rejected by pre-flight before any start runs.
#[test]
fn overcommitted_fix_file_exits_two() {
    let hgr = temp_path("even.hgr");
    let fix = temp_path("overcommit.fix");
    // 8 unit modules, tight ε = 0.05 → each side holds at most 5; pinning
    // 6 modules to part 0 cannot fit.
    std::fs::write(&hgr, "2 8\n1 2\n7 8\n").expect("write temp netlist");
    std::fs::write(&fix, "0\n0\n0\n0\n0\n0\n-1\n-1\n").expect("write fix file");
    let out = mlpart()
        .arg(hgr.to_str().expect("utf8 path"))
        .args(["--algo", "ml-c", "--epsilon", "0.05"])
        .args(["--fixed", fix.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("infeasible input"), "stderr: {err}");
    assert!(err.contains("fixed"), "stderr names the fixed area: {err}");
    let _ = std::fs::remove_file(&hgr);
    let _ = std::fs::remove_file(&fix);
}

/// Exit-code contract, code 2: a malformed `.fix` file (part id >= k) is
/// invalid input with a typed parse error, not a crash.
#[test]
fn malformed_fix_file_exits_two() {
    let hgr = temp_path("fixin.hgr");
    let fix = temp_path("bad.fix");
    std::fs::write(&hgr, "2 4\n1 2\n3 4\n").expect("write temp netlist");
    std::fs::write(&fix, "0\n5\n-1\n-1\n").expect("write fix file");
    let out = mlpart()
        .arg(hgr.to_str().expect("utf8 path"))
        .args(["--fixed", fix.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot parse"), "stderr: {err}");
    let _ = std::fs::remove_file(&hgr);
    let _ = std::fs::remove_file(&fix);
}

#[test]
fn bad_usage_exits_nonzero() {
    // No input at all.
    let out = mlpart().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // Unknown algorithm.
    let out = mlpart()
        .args(["syn-balu", "--algo", "quantum"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    // Missing file.
    let out = mlpart()
        .arg("no-such-file.hgr")
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot open"), "stderr: {err}");
}
