//! `mlpart-checkpoint-v1` — crash-safe on-disk checkpoints for supervised
//! batches.
//!
//! A checkpoint is a JSONL file (schema: `schemas/checkpoint-v1.schema.json`)
//! whose first line pins the invocation identity (netlist, algorithm,
//! constraints, seed, retry policy — everything normative except thread
//! count and output paths) and whose remaining lines each record one
//! completed start: its outcome (partition assignment, cut, truncation and
//! repair records, or the final-attempt failure), the retries the
//! supervisor absorbed, and the start's full trace contribution. The
//! header, with the records of the checkpoint being resumed, is written
//! atomically (write-temp-then-rename, see
//! [`mlpart_hypergraph::io::write_atomic_with`]) when the batch starts;
//! each completed start then appends its line and syncs, so a batch
//! writes each record once. A `SIGKILL` at any instant leaves the header,
//! every record synced before it and at most one unterminated final line,
//! which the loader ignores: that start reruns.
//!
//! On `--resume` the loader byte-compares the header against the one the
//! current invocation would write (thread count and artifact paths are
//! excluded from the header, so both may differ freely) and replays the
//! recorded starts through [`ResumeState`]; the executor then runs only the
//! missing starts. Because per-start seed streams are functions of the
//! start index alone and trace contributions are spliced in start order,
//! the resumed batch's partition output and stripped run report are
//! byte-identical to an uninterrupted run's.
//!
//! The format goes through the workspace's one JSON codec,
//! [`mlpart_obs::json`]: the writer streams a fixed key order through its
//! writers (the `parts` array never becomes a tree), and the loader
//! [`json::parse`]s each line and reads it back with [`json::fields`],
//! whose exact integers keep `u64` seeds and cuts intact and whose errors
//! name every missing, extra or mistyped field. The unit tests pin the
//! bytes, so checkpoints written by earlier builds keep resuming.

use mlpart_core::{LevelStats, Truncation};
use mlpart_exec::supervise::StartContribution;
use mlpart_exec::{PriorStart, ResumeState, RetryRecord, StartDone, StartFailure};
use mlpart_fm::{Budget, BudgetLimit, RepairRecord};
use mlpart_hypergraph::io::write_atomic;
use mlpart_hypergraph::metrics::cut;
use mlpart_hypergraph::{Hypergraph, Partition};
use mlpart_obs::json::{self, Field};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Mutex;

/// The schema tag every checkpoint header carries.
pub const SCHEMA: &str = "mlpart-checkpoint-v1";

/// One start's complete result as the CLI driver computes it: the job
/// value persisted by checkpoints and reduced into the final answer.
#[derive(Debug, Clone)]
pub struct StartOutcome {
    /// The (possibly repaired) partition.
    pub partition: Partition,
    /// Cut weight of `partition` (post-repair when `repair` is set).
    pub cut: u64,
    /// Per-level refinement trajectory (multilevel algorithms only).
    /// **Not persisted**: restored starts report an empty trajectory; the
    /// trace carries the same rows for `obs` builds.
    pub level_stats: Vec<LevelStats>,
    /// Budget-truncation record, when a `--max-*` limit fired.
    pub truncation: Option<Truncation>,
    /// Balance-repair record, when the start's raw solution violated its
    /// balance window. `feasible: false` means repair failed and the
    /// driver must not emit this solution.
    pub repair: Option<RepairRecord>,
}

/// The job value the CLI runs under supervision: a start either computes
/// a [`StartOutcome`] or reports a configuration error message.
pub type StartValue = Result<StartOutcome, String>;

/// The invocation identity pinned by a checkpoint header. Thread count and
/// artifact paths are deliberately absent: both may change across an
/// interrupt/resume split without perturbing normative results.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointConfig {
    /// Netlist argument (path, `syn-NAME`, or `-`).
    pub circuit: String,
    /// Algorithm name.
    pub algo: String,
    /// Part count.
    pub k: u32,
    /// Explicit ε, when given.
    pub epsilon: Option<f64>,
    /// `.fix` file path, when given.
    pub fixed: Option<String>,
    /// Matching ratio.
    pub ratio: f64,
    /// Coarsening threshold.
    pub threshold: usize,
    /// Independent starts in the batch.
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Attempts per start (`--retries`).
    pub retries: u32,
    /// Final-attempt degraded pass budget (`--retry-degrade-passes`).
    pub degraded_passes: Option<u64>,
    /// The per-start budget.
    pub budget: Budget,
    /// Whether tracing was on (trace contributions recorded). A resumed
    /// run must match, or its report would silently lose restored spans.
    pub traced: bool,
}

impl CheckpointConfig {
    /// The header line this invocation writes — and the exact bytes a
    /// `--resume` of it must find on the first line.
    pub fn header_line(&self) -> String {
        let mut o = String::with_capacity(256);
        let b = &self.budget;
        o.push_str("{\"schema\":");
        json::write_str(&mut o, SCHEMA);
        o.push_str(",\"config\":{\"circuit\":");
        json::write_str(&mut o, &self.circuit);
        o.push_str(",\"algo\":");
        json::write_str(&mut o, &self.algo);
        let _ = write!(o, ",\"k\":{},\"epsilon\":", self.k);
        json::write_opt(&mut o, self.epsilon, json::write_f64);
        o.push_str(",\"fixed\":");
        json::write_opt(&mut o, self.fixed.as_deref(), json::write_str);
        o.push_str(",\"ratio\":");
        json::write_f64(&mut o, self.ratio);
        let _ = write!(
            o,
            ",\"threshold\":{},\"runs\":{},\"seed\":{},\"retries\":{}",
            self.threshold, self.runs, self.seed, self.retries
        );
        for (key, v) in [
            ("degraded_passes", self.degraded_passes),
            ("max_moves", b.max_moves),
            ("max_passes", b.max_passes),
            ("max_levels", b.max_levels),
        ] {
            let _ = write!(o, ",\"{key}\":");
            json::write_opt(&mut o, v, json::write_int);
        }
        o.push_str(",\"deadline_secs\":");
        json::write_opt(&mut o, b.soft_deadline_secs, json::write_f64);
        let _ = write!(o, ",\"traced\":{}}}}}", self.traced);
        o
    }
}

#[cfg(feature = "obs")]
fn trace_text(t: &StartContribution) -> String {
    mlpart_obs::to_jsonl(t)
}
#[cfg(not(feature = "obs"))]
fn trace_text(_t: &StartContribution) -> String {
    String::new()
}

#[cfg(feature = "obs")]
fn parse_trace(text: &str) -> Result<StartContribution, String> {
    mlpart_obs::trace_from_jsonl(text).map_err(|e| format!("bad trace: {e}"))
}
#[cfg(not(feature = "obs"))]
fn parse_trace(_text: &str) -> Result<StartContribution, String> {
    Ok(())
}

/// Writes the `"message":…,"phase":…` pair a retry and a failure share.
fn write_failure_text(o: &mut String, message: &str, phase: Option<&str>) {
    o.push_str("\"message\":");
    json::write_str(o, message);
    o.push_str(",\"phase\":");
    json::write_opt(o, phase, json::write_str);
}

/// Serializes one completed start as its checkpoint record line (no
/// trailing newline). The `parts` array streams straight into the line, so
/// writing a record costs no more than the line itself.
pub fn record_line(done: &StartDone<'_, StartValue>) -> String {
    let mut o = String::with_capacity(256);
    let _ = write!(
        o,
        "{{\"start\":{},\"attempts\":{},\"retries\":[",
        done.start, done.attempts
    );
    for (n, r) in done.retries.iter().enumerate() {
        let _ = write!(
            o,
            "{}{{\"attempt\":{},",
            if n > 0 { "," } else { "" },
            r.attempt
        );
        write_failure_text(&mut o, &r.message, r.phase.as_deref());
        o.push('}');
    }
    o.push_str("],\"outcome\":");
    match done.outcome {
        Ok(Ok(v)) => {
            let _ = write!(o, "{{\"ok\":{{\"cut\":{},\"parts\":[", v.cut);
            for (n, &p) in v.partition.assignment().iter().enumerate() {
                if n > 0 {
                    o.push(',');
                }
                json::write_int(&mut o, p);
            }
            o.push_str("],\"truncation\":");
            json::write_opt(&mut o, v.truncation.as_ref(), |o, t| {
                o.push_str("{\"limit\":");
                json::write_str(o, t.limit.name());
                o.push_str(",\"site\":");
                json::write_str(o, t.site);
                o.push_str(",\"level\":");
                json::write_opt(o, t.level, json::write_int);
                o.push_str(",\"pass\":");
                json::write_opt(o, t.pass, json::write_int);
                o.push('}');
            });
            o.push_str(",\"repair\":");
            json::write_opt(&mut o, v.repair.as_ref(), |o, r| {
                let _ = write!(
                    o,
                    "{{\"moves\":{},\"cut_before\":{},\"cut_after\":{},\"feasible\":{}}}",
                    r.moves, r.cut_before, r.cut_after, r.feasible
                );
            });
            o.push_str("}}");
        }
        Ok(Err(msg)) => {
            o.push_str("{\"err\":");
            json::write_str(&mut o, msg);
            o.push('}');
        }
        Err(f) => {
            o.push_str("{\"failed\":{");
            write_failure_text(&mut o, &f.message, f.phase.as_deref());
            o.push_str("}}");
        }
    }
    o.push_str(",\"trace\":");
    json::write_str(&mut o, &trace_text(done.trace));
    o.push('}');
    o
}

fn limit_from_name(name: &str) -> Result<BudgetLimit, String> {
    Ok(match name {
        "moves" => BudgetLimit::Moves,
        "passes" => BudgetLimit::Passes,
        "levels" => BudgetLimit::Levels,
        "deadline" => BudgetLimit::Deadline,
        "injected" => BudgetLimit::Injected,
        other => return Err(format!("unknown budget limit {other:?}")),
    })
}

fn site_from_name(name: &str) -> Result<&'static str, String> {
    Ok(match name {
        "pass" => "pass",
        "level" => "level",
        other => return Err(format!("unknown truncation site {other:?}")),
    })
}

/// Reads the pair [`write_failure_text`] writes.
fn failure_text(message: Field, phase: Field) -> Result<(String, Option<String>), String> {
    Ok((
        message.str()?.to_string(),
        phase.opt(|p| p.str().map(str::to_string))?,
    ))
}

fn parse_truncation(t: Field) -> Result<Truncation, String> {
    let [limit, site, level, pass] = t.fields(["limit", "site", "level", "pass"])?;
    Ok(Truncation {
        limit: limit_from_name(limit.str()?)?,
        site: site_from_name(site.str()?)?,
        level: level.opt(Field::int)?,
        pass: pass.opt(Field::int)?,
    })
}

fn parse_repair(r: Field) -> Result<RepairRecord, String> {
    let [moves, cut_before, cut_after, feasible] =
        r.fields(["moves", "cut_before", "cut_after", "feasible"])?;
    Ok(RepairRecord {
        moves: moves.int()?,
        cut_before: cut_before.int()?,
        cut_after: cut_after.int()?,
        feasible: feasible.bool()?,
    })
}

/// Reads an `ok` outcome; `h` anchors partition reconstruction (assignment
/// length and part ids are validated, and the stored cut is recomputed and
/// checked).
fn parse_ok(ok: Field, h: &Hypergraph, k: u32) -> Result<StartOutcome, String> {
    let [stored_cut, parts, truncation, repair] =
        ok.fields(["cut", "parts", "truncation", "repair"])?;
    let stored_cut = stored_cut.int()?;
    let parts = parts.items()?.map(Field::int).collect::<Result<_, _>>()?;
    let partition =
        Partition::from_assignment(h, k, parts).ok_or("assignment does not fit the netlist")?;
    if cut(h, &partition) != stored_cut {
        return Err(format!(
            "stored cut {stored_cut} disagrees with the assignment"
        ));
    }
    Ok(StartOutcome {
        partition,
        cut: stored_cut,
        level_stats: Vec::new(),
        truncation: truncation.opt(parse_truncation)?,
        repair: repair.opt(parse_repair)?,
    })
}

/// Parses one record line back into the [`PriorStart`] the executor
/// replays: [`json::parse`], then a typed read that names every missing,
/// extra or mistyped field.
fn parse_record(line: &str, h: &Hypergraph, k: u32) -> Result<PriorStart<StartValue>, String> {
    let doc = json::parse(line)?;
    let [start, attempts, retries, outcome, trace] =
        json::fields(&doc, ["start", "attempts", "retries", "outcome", "trace"])?;
    let start = start.int()?;
    let retries = retries
        .items()?
        .map(|r| {
            let [attempt, message, phase] = r.fields(["attempt", "message", "phase"])?;
            let (message, phase) = failure_text(message, phase)?;
            Ok(RetryRecord {
                start,
                attempt: attempt.int()?,
                message,
                phase,
            })
        })
        .collect::<Result<_, String>>()?;
    let outcome: Result<StartValue, StartFailure> = if outcome.value.get("ok").is_some() {
        let [ok] = outcome.fields(["ok"])?;
        Ok(Ok(
            parse_ok(ok, h, k).map_err(|e| format!("start {start}: {e}"))?
        ))
    } else if outcome.value.get("err").is_some() {
        let [err] = outcome.fields(["err"])?;
        Ok(Err(err.str()?.to_string()))
    } else {
        let [failed] = outcome.fields(["failed"])?;
        let [message, phase] = failed.fields(["message", "phase"])?;
        let (message, phase) = failure_text(message, phase)?;
        Err(StartFailure {
            start,
            message,
            phase,
        })
    };
    Ok(PriorStart {
        start,
        attempts: attempts.int()?,
        outcome,
        retries,
        trace: parse_trace(trace.str()?).map_err(|e| format!("start {start}: {e}"))?,
    })
}

/// A parsed checkpoint: the resume state for the executor plus the
/// original record lines, keyed by start, so a resumed run's writer keeps
/// the restored records verbatim.
#[derive(Debug, Default)]
pub struct LoadedCheckpoint {
    /// Completed starts for [`mlpart_exec::run_supervised`] to skip.
    pub resume: ResumeState<StartValue>,
    /// The record lines exactly as found, keyed by start index.
    pub lines: BTreeMap<usize, String>,
}

/// Parses checkpoint `text` written by an invocation with identity
/// `config`, validating every record against `h`.
///
/// # Errors
///
/// A message naming the problem: a different schema version, a header
/// that does not match this invocation (different flags, netlist, seed,
/// or retry policy), or a malformed / internally inconsistent record.
pub fn load(
    text: &str,
    config: &CheckpointConfig,
    h: &Hypergraph,
) -> Result<LoadedCheckpoint, String> {
    // A kill mid-append can leave the last record unterminated: drop it,
    // so its start reruns. Every complete line ends in a newline.
    let text = text
        .rfind('\n')
        .and_then(|end| text.get(..=end))
        .unwrap_or(text);
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().ok_or("checkpoint is empty")?;
    if header != config.header_line() {
        let doc = json::parse(header).unwrap_or(json::Json::Null);
        return Err(match doc.get("schema").and_then(json::Json::as_str) {
            Some(SCHEMA) => "checkpoint was written by a different invocation (netlist, \
                             algorithm, constraints, seed, budget, retry policy, and tracing \
                             must all match; --threads and output paths may differ)"
                .to_string(),
            Some(s) if s.starts_with("mlpart-checkpoint-") => {
                "unsupported checkpoint schema version".to_string()
            }
            _ => "not a mlpart checkpoint (missing schema header)".to_string(),
        });
    }
    let mut out = LoadedCheckpoint::default();
    for (n, line) in lines.enumerate() {
        let prior =
            parse_record(line, h, config.k).map_err(|e| format!("checkpoint record {n}: {e}"))?;
        if prior.start >= config.runs {
            return Err(format!(
                "checkpoint record {n}: start {} out of range for --runs {}",
                prior.start, config.runs
            ));
        }
        if out.lines.contains_key(&prior.start) {
            return Err(format!(
                "checkpoint record {n}: start {} recorded twice",
                prior.start
            ));
        }
        out.lines.insert(prior.start, line.to_string());
        out.resume.done.push(prior);
    }
    Ok(out)
}

struct WriterState {
    file: std::fs::File,
    error: Option<String>,
}

/// Appends completed starts to a checkpoint file, one synced line each.
/// Shared across executor workers (the completion sink runs on whichever
/// worker finished the start), so the file sits behind a mutex; write
/// failures are latched and surfaced once via [`CheckpointWriter::error`]
/// instead of panicking a worker.
pub struct CheckpointWriter {
    path: String,
    state: Mutex<WriterState>,
}

impl CheckpointWriter {
    /// Creates the writer: atomically writes the header and the
    /// `restored` record lines from the checkpoint being resumed, in start
    /// order, so even a kill before the first fresh completion leaves a
    /// valid file; then opens it for appending.
    ///
    /// # Errors
    ///
    /// The initial write's I/O error, as a printable message.
    pub fn create(
        path: &str,
        header: String,
        restored: BTreeMap<usize, String>,
    ) -> Result<Self, String> {
        let mut doc = header;
        doc.push('\n');
        for line in restored.values() {
            doc.push_str(line);
            doc.push('\n');
        }
        let fail = |e: std::io::Error| format!("cannot write {path}: {e}");
        write_atomic(path, doc.as_bytes()).map_err(fail)?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(fail)?;
        Ok(CheckpointWriter {
            path: path.to_string(),
            state: Mutex::new(WriterState { file, error: None }),
        })
    }

    /// A poisoned lock means a worker panicked mid-append, so the file may
    /// end in a torn line: recover the state rather than cascading the
    /// panic into every other worker, but latch an error so that nothing
    /// more is appended after that line.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, WriterState> {
        self.state.lock().unwrap_or_else(|poisoned| {
            let mut st = poisoned.into_inner();
            st.error
                .get_or_insert_with(|| format!("cannot write {}: interrupted append", self.path));
            st
        })
    }

    /// The completion sink: appends `done`'s record line and syncs it.
    /// Called from executor workers in completion order, which is the
    /// on-disk order (start order at one thread). After a failed write
    /// nothing more is appended, so a torn line can only be the last.
    pub fn record(&self, done: &StartDone<'_, StartValue>) {
        let mut line = record_line(done);
        line.push('\n');
        let mut guard = self.lock_state();
        let st = &mut *guard;
        if st.error.is_some() {
            return;
        }
        let written = st
            .file
            .write_all(line.as_bytes())
            .and_then(|()| st.file.sync_data());
        if let Err(e) = written {
            st.error = Some(format!("cannot write {}: {e}", self.path));
        }
    }

    /// The first write error, if any occurred. Checked once after the
    /// batch so a broken checkpoint path fails the run visibly.
    pub fn error(&self) -> Option<String> {
        self.lock_state().error.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::HypergraphBuilder;

    fn chain(n: usize) -> Hypergraph {
        let mut b = HypergraphBuilder::with_unit_areas(n);
        for i in 0..n - 1 {
            b.add_net([i, i + 1]).expect("valid net");
        }
        b.build().expect("valid hypergraph")
    }

    fn config() -> CheckpointConfig {
        CheckpointConfig {
            circuit: "syn-balu".to_string(),
            algo: "ml-c".to_string(),
            k: 2,
            epsilon: None,
            fixed: None,
            ratio: 0.5,
            threshold: 35,
            runs: 4,
            seed: u64::MAX - 1, // exercise the full-u64 header path
            retries: 3,
            degraded_passes: Some(2),
            budget: Budget::UNLIMITED,
            traced: false,
        }
    }

    fn outcome(h: &Hypergraph) -> StartOutcome {
        let parts = (0..h.num_modules())
            .map(|i| u32::from(i >= h.num_modules() / 2))
            .collect();
        let partition = Partition::from_assignment(h, 2, parts).expect("valid");
        let cut_now = cut(h, &partition);
        StartOutcome {
            partition,
            cut: cut_now,
            level_stats: Vec::new(),
            truncation: Some(Truncation {
                limit: BudgetLimit::Passes,
                site: "pass",
                level: Some(1),
                pass: Some(3),
            }),
            repair: Some(RepairRecord {
                moves: 2,
                cut_before: cut_now + 4,
                cut_after: cut_now,
                feasible: true,
            }),
        }
    }

    fn done_line(h: &Hypergraph) -> String {
        let value: StartValue = Ok(outcome(h));
        let retries = vec![RetryRecord {
            start: 1,
            attempt: 0,
            message: "injected fault: panic@attempt:8 \"quoted\"".to_string(),
            phase: Some("fm_refine".to_string()),
        }];
        record_line(&StartDone {
            start: 1,
            attempts: 2,
            outcome: Ok(&value),
            retries: &retries,
            trace: &StartContribution::default(),
        })
    }

    #[test]
    fn record_round_trips_through_the_parser() {
        let h = chain(8);
        let line = done_line(&h);
        let prior = parse_record(&line, &h, 2).expect("parses");
        assert_eq!(prior.start, 1);
        assert_eq!(prior.attempts, 2);
        assert_eq!(prior.retries.len(), 1);
        assert_eq!(prior.retries[0].attempt, 0);
        assert!(prior.retries[0].message.contains("\"quoted\""));
        let v = prior.outcome.expect("ok").expect("outcome");
        assert_eq!(v.cut, outcome(&h).cut);
        assert_eq!(v.partition.assignment(), outcome(&h).partition.assignment());
        assert_eq!(v.truncation, outcome(&h).truncation);
        assert_eq!(v.repair, outcome(&h).repair);
        // Re-serializing the parsed record reproduces the bytes.
        let value: StartValue = Ok(v);
        let again = record_line(&StartDone {
            start: prior.start,
            attempts: prior.attempts,
            outcome: Ok(&value),
            retries: &prior.retries,
            trace: &prior.trace,
        });
        assert_eq!(line, again);
    }

    #[test]
    fn failed_and_config_error_outcomes_round_trip() {
        let h = chain(8);
        let failure = StartFailure {
            start: 2,
            message: "boom".to_string(),
            phase: None,
        };
        let line = record_line(&StartDone::<StartValue> {
            start: 2,
            attempts: 3,
            outcome: Err(&failure),
            retries: &[],
            trace: &StartContribution::default(),
        });
        let prior = parse_record(&line, &h, 2).expect("parses");
        let f = prior.outcome.expect_err("failed");
        assert_eq!((f.start, f.message.as_str()), (2, "boom"));

        let value: StartValue = Err("unknown algorithm \"x\"".to_string());
        let line = record_line(&StartDone {
            start: 0,
            attempts: 1,
            outcome: Ok(&value),
            retries: &[],
            trace: &StartContribution::default(),
        });
        let prior = parse_record(&line, &h, 2).expect("parses");
        assert_eq!(
            prior.outcome.expect("ok").expect_err("config error"),
            "unknown algorithm \"x\""
        );
    }

    #[test]
    fn load_round_trips_and_validates_headers() {
        let h = chain(8);
        let cfg = config();
        let text = format!("{}\n{}\n", cfg.header_line(), done_line(&h));
        let loaded = load(&text, &cfg, &h).expect("loads");
        assert_eq!(loaded.resume.done.len(), 1);
        assert_eq!(loaded.lines.get(&1), Some(&done_line(&h)));

        // Any identity drift is a refusal, not a silent partial resume.
        let mut other = config();
        other.seed += 1;
        let e = load(&text, &other, &h).expect_err("seed drift");
        assert!(e.contains("different invocation"), "{e}");
        let e = load("{\"schema\":\"mlpart-checkpoint-v0\"}\n", &cfg, &h).expect_err("version");
        assert!(e.contains("schema version"), "{e}");
        let e = load("not json\n", &cfg, &h).expect_err("garbage");
        assert!(e.contains("not a mlpart checkpoint"), "{e}");
        let e = load("", &cfg, &h).expect_err("empty");
        assert!(e.contains("empty"), "{e}");
    }

    #[test]
    fn load_rejects_corrupt_and_inconsistent_records() {
        let h = chain(8);
        let cfg = config();
        let line = done_line(&h);
        // Truncated record.
        let text = format!("{}\n{}\n", cfg.header_line(), &line[..line.len() - 10]);
        let e = load(&text, &cfg, &h).expect_err("truncated");
        assert!(e.contains("checkpoint record 0"), "{e}");
        // Stored cut disagreeing with the assignment.
        let lied = line.replace("\"cut\":1,", "\"cut\":7,");
        assert_ne!(line, lied, "fixture cut changed; update the test");
        let text = format!("{}\n{lied}\n", cfg.header_line());
        let e = load(&text, &cfg, &h).expect_err("cut lie");
        assert!(e.contains("disagrees"), "{e}");
        // A missing, an extra or a mistyped field is named.
        for (from, to, named) in [
            (",\"attempts\":2", "", "missing field \"attempts\""),
            (
                "\"trace\":\"\"}",
                "\"trace\":\"\",\"extra\":1}",
                "unexpected field \"extra\"",
            ),
            ("\"cut\":1,", "\"cut\":1.0,", "cut: expected u64, found 1.0"),
            (
                "\"parts\":[0,",
                "\"parts\":[-1,",
                "parts: expected u32, found -1",
            ),
        ] {
            let broken = line.replacen(from, to, 1);
            assert_ne!(line, broken, "fixture changed; update the test");
            let text = format!("{}\n{broken}\n", cfg.header_line());
            let e = load(&text, &cfg, &h).expect_err(named);
            assert!(
                e.starts_with("checkpoint record 0: ") && e.contains(named),
                "{e}"
            );
        }
        // Duplicate and out-of-range starts.
        let text = format!("{}\n{line}\n{line}\n", cfg.header_line(), line = line);
        let e = load(&text, &cfg, &h).expect_err("duplicate");
        assert!(e.contains("twice"), "{e}");
        let mut small = cfg.clone();
        small.runs = 1;
        let text = format!("{}\n{line}\n", small.header_line());
        let e = load(&text, &small, &h).expect_err("out of range");
        assert!(e.contains("out of range"), "{e}");
    }

    #[test]
    fn writer_persists_header_then_records_atomically() {
        let h = chain(8);
        let cfg = config();
        let path = std::env::temp_dir().join(format!(
            "mlpart-checkpoint-test-{}.jsonl",
            std::process::id()
        ));
        let path_s = path.to_str().expect("utf8 temp path");
        let w =
            CheckpointWriter::create(path_s, cfg.header_line(), BTreeMap::new()).expect("creates");
        // Header-only file is already a loadable (empty) checkpoint.
        let text = std::fs::read_to_string(&path).expect("written");
        assert_eq!(load(&text, &cfg, &h).expect("loads").resume.done.len(), 0);
        let value: StartValue = Ok(outcome(&h));
        let trace = &StartContribution::default();
        let done = |start| StartDone {
            start,
            attempts: 1,
            outcome: Ok(&value),
            retries: &[],
            trace,
        };
        // Each completion appends its line, in completion order.
        w.record(&done(1));
        w.record(&done(0));
        assert!(w.error().is_none());
        let text = std::fs::read_to_string(&path).expect("written");
        let (line0, line1) = (record_line(&done(0)), record_line(&done(1)));
        assert_eq!(text, format!("{}\n{line1}\n{line0}\n", cfg.header_line()));
        let loaded = load(&text, &cfg, &h).expect("loads");
        let starts: Vec<usize> = loaded.resume.done.iter().map(|p| p.start).collect();
        assert_eq!(starts, [1, 0]);
        // Resuming rewrites the restored records in start order: the
        // bytes an in-order run appends.
        drop(w);
        let w = CheckpointWriter::create(path_s, cfg.header_line(), loaded.lines).expect("creates");
        let text = std::fs::read_to_string(&path).expect("written");
        assert_eq!(text, format!("{}\n{line0}\n{line1}\n", cfg.header_line()));
        w.record(&done(2));
        let text = std::fs::read_to_string(&path).expect("written");
        let line2 = record_line(&done(2));
        let want = format!("{}\n{line0}\n{line1}\n{line2}\n", cfg.header_line());
        assert_eq!(text, want);
        let _ = std::fs::remove_file(&path);

        // A hostile path latches an error instead of panicking a worker.
        let bad = CheckpointWriter::create(
            "/nonexistent-dir/ckpt.jsonl",
            cfg.header_line(),
            BTreeMap::new(),
        );
        assert!(bad.is_err());
    }

    /// A kill mid-append leaves the last record unterminated: the loader
    /// drops it, so that start reruns. A torn line anywhere else is
    /// corruption.
    #[test]
    fn load_ignores_only_an_unterminated_final_record() {
        let h = chain(8);
        let cfg = pinned_config();
        let torn = &PINNED_FAILED[..PINNED_FAILED.len() / 2];
        for tail in [torn, PINNED_FAILED, "", "  "] {
            let text = format!("{PINNED_HEADER}\n{PINNED_ERR}\n{PINNED_OK}\n{tail}");
            let loaded = load(&text, &cfg, &h).expect("torn tail is dropped");
            let starts: Vec<usize> = loaded.resume.done.iter().map(|p| p.start).collect();
            assert_eq!(starts, [0, 1], "tail {tail:?}");
        }
        let text = format!("{PINNED_HEADER}\n{PINNED_ERR}\n{torn}\n{PINNED_OK}\n");
        let e = load(&text, &cfg, &h).expect_err("a torn record inside is corrupt");
        assert!(e.starts_with("checkpoint record 1"), "{e}");
    }

    /// A header with every optional field set, and a `.fix` path that
    /// needs escaping.
    fn pinned_config() -> CheckpointConfig {
        CheckpointConfig {
            epsilon: Some(0.1),
            fixed: Some("pads \"q\"\\cells.fix".to_string()),
            budget: Budget {
                max_moves: Some(500),
                soft_deadline_secs: Some(2.5),
                ..Budget::UNLIMITED
            },
            ..config()
        }
    }

    const PINNED_HEADER: &str = "{\"schema\":\"mlpart-checkpoint-v1\",\"config\":{\"circuit\":\"syn-balu\",\"algo\":\"ml-c\",\"k\":2,\"epsilon\":0.1,\"fixed\":\"pads \\\"q\\\"\\\\cells.fix\",\"ratio\":0.5,\"threshold\":35,\"runs\":4,\"seed\":18446744073709551614,\"retries\":3,\"degraded_passes\":2,\"max_moves\":500,\"max_passes\":null,\"max_levels\":null,\"deadline_secs\":2.5,\"traced\":false}}";

    const PINNED_OK: &str = "{\"start\":1,\"attempts\":2,\"retries\":[{\"attempt\":0,\"message\":\"a \\\"q\\\" b\\\\c\\nd\\u0001e\",\"phase\":\"fm_refine\"}],\"outcome\":{\"ok\":{\"cut\":1,\"parts\":[0,0,0,0,1,1,1,1],\"truncation\":{\"limit\":\"passes\",\"site\":\"pass\",\"level\":1,\"pass\":3},\"repair\":{\"moves\":2,\"cut_before\":5,\"cut_after\":1,\"feasible\":true}}},\"trace\":\"\"}";

    const PINNED_ERR: &str =
        "{\"start\":0,\"attempts\":1,\"retries\":[],\"outcome\":{\"err\":\"unknown algorithm \\\"x\\\"\"},\"trace\":\"\"}";

    const PINNED_FAILED: &str =
        "{\"start\":2,\"attempts\":3,\"retries\":[],\"outcome\":{\"failed\":{\"message\":\"boom\",\"phase\":null}},\"trace\":\"\"}";

    /// The three record shapes the pins hold, with plain-unit traces.
    fn pinned_records(h: &Hypergraph) -> [String; 3] {
        let ok: StartValue = Ok(outcome(h));
        let retries = [RetryRecord {
            start: 1,
            attempt: 0,
            message: "a \"q\" b\\c\nd\u{1}e".to_string(),
            phase: Some("fm_refine".to_string()),
        }];
        let err: StartValue = Err("unknown algorithm \"x\"".to_string());
        let failure = StartFailure {
            start: 2,
            message: "boom".to_string(),
            phase: None,
        };
        [
            record_line(&StartDone {
                start: 1,
                attempts: 2,
                outcome: Ok(&ok),
                retries: &retries,
                trace: &StartContribution::default(),
            }),
            record_line(&StartDone {
                start: 0,
                attempts: 1,
                outcome: Ok(&err),
                retries: &[],
                trace: &StartContribution::default(),
            }),
            record_line(&StartDone::<StartValue> {
                start: 2,
                attempts: 3,
                outcome: Err(&failure),
                retries: &[],
                trace: &StartContribution::default(),
            }),
        ]
    }

    /// Re-serializes a loaded start, which reproduces its record bytes
    /// exactly when every persisted field survived the load.
    fn reserialize(prior: &PriorStart<StartValue>) -> String {
        record_line(&StartDone {
            start: prior.start,
            attempts: prior.attempts,
            outcome: prior.outcome.as_ref(),
            retries: &prior.retries,
            trace: &prior.trace,
        })
    }

    /// The exact bytes of a header and of each record shape. Checkpoints
    /// already on disk must keep resuming, so these only change with a new
    /// schema version.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let h = chain(8);
        assert_eq!(pinned_config().header_line(), PINNED_HEADER);
        assert_eq!(
            pinned_records(&h),
            [PINNED_OK, PINNED_ERR, PINNED_FAILED].map(str::to_string)
        );
    }

    /// The pinned text loads back into the starts that wrote it.
    #[test]
    fn pinned_checkpoint_loads_back() {
        let h = chain(8);
        let text = format!("{PINNED_HEADER}\n{PINNED_ERR}\n{PINNED_OK}\n{PINNED_FAILED}\n");
        let loaded = load(&text, &pinned_config(), &h).expect("pinned text loads");
        let starts: Vec<usize> = loaded.resume.done.iter().map(|p| p.start).collect();
        assert_eq!(starts, [0, 1, 2]);
        for (prior, pinned) in loaded
            .resume
            .done
            .iter()
            .zip([PINNED_ERR, PINNED_OK, PINNED_FAILED])
        {
            assert_eq!(reserialize(prior), pinned);
            assert_eq!(
                loaded.lines.get(&prior.start).map(String::as_str),
                Some(pinned)
            );
        }
        let ok = loaded.resume.done[1].outcome.as_ref().expect("ok");
        let ok = ok.as_ref().expect("outcome");
        assert_eq!(ok.partition.assignment(), [0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(
            loaded.resume.done[1].retries[0].message,
            "a \"q\" b\\c\nd\u{1}e"
        );
        let failed = loaded.resume.done[2].outcome.as_ref().expect_err("failed");
        assert_eq!(
            (failed.message.as_str(), failed.phase.as_deref()),
            ("boom", None)
        );
    }

    /// A traced record embeds the start's JSONL as one escaped string;
    /// integers keep their full `u64`/`i64` range through it.
    #[cfg(feature = "obs")]
    #[test]
    fn traced_record_bytes_are_pinned() {
        use mlpart_obs::{EvKind, Event, Trace, V};
        const PINNED_TRACED: &str = "{\"start\":0,\"attempts\":1,\"retries\":[],\"outcome\":{\"err\":\"x\"},\"trace\":\"{\\\"ev\\\":\\\"C\\\",\\\"name\\\":\\\"draw\\\",\\\"ts\\\":7,\\\"args\\\":{\\\"seed\\\":18446744073709551615,\\\"offset\\\":-42,\\\"ratio\\\":0.35,\\\"path\\\":\\\"a \\\\\\\"q\\\\\\\"\\\\n\\\\\\\\b\\\"}}\\n\"}";
        let h = chain(8);
        let trace = Trace {
            events: vec![Event {
                kind: EvKind::Counter,
                name: "draw",
                ts_ns: 7,
                args: vec![
                    ("seed", V::U(u64::MAX)),
                    ("offset", V::I(-42)),
                    ("ratio", V::F(0.35)),
                    ("path", V::S("a \"q\"\n\\b")),
                ],
            }],
        };
        let err: StartValue = Err("x".to_string());
        let line = record_line(&StartDone {
            start: 0,
            attempts: 1,
            outcome: Ok(&err),
            retries: &[],
            trace: &trace,
        });
        assert_eq!(line, PINNED_TRACED);
        let mut cfg = pinned_config();
        cfg.traced = true;
        let text = format!("{}\n{PINNED_TRACED}\n", cfg.header_line());
        let loaded = load(&text, &cfg, &h).expect("pinned text loads");
        assert_eq!(loaded.resume.done[0].trace, trace);
        assert_eq!(reserialize(&loaded.resume.done[0]), PINNED_TRACED);
    }

    #[test]
    fn header_excludes_threads_and_pins_everything_normative() {
        let cfg = config();
        let line = cfg.header_line();
        assert!(line.starts_with("{\"schema\":\"mlpart-checkpoint-v1\""));
        assert!(!line.contains("threads"), "threads must not be identity");
        assert!(line.contains(&format!("\"seed\":{}", u64::MAX - 1)));
        for key in [
            "circuit",
            "algo",
            "\"k\":",
            "epsilon",
            "fixed",
            "ratio",
            "threshold",
            "runs",
            "retries",
            "degraded_passes",
            "max_moves",
            "max_passes",
            "max_levels",
            "deadline_secs",
            "traced",
        ] {
            assert!(line.contains(key), "header must pin {key}: {line}");
        }
    }
}
