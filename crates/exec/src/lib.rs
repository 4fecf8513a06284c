//! Deterministic parallel multi-start execution with per-start fault
//! isolation.
//!
//! The paper's headline numbers are best/average statistics over many
//! independent starts (100 starts of FM/CLIP against a handful of ML starts,
//! Tables III–V), and multi-start fan-out is embarrassingly parallel: each
//! start runs from its own seed stream (`child_seed(base, i)`) and never
//! communicates with the others. This crate exploits that with a std-only
//! work-stealing runner whose output is **bit-identical at every thread
//! count**, including one.
//!
//! There is one scheduler, [`run_supervised`] (retries, resume and a
//! checkpoint sink; see [`supervise`]). [`try_run_starts`] is its retry-free
//! call with nothing to resume, and [`run_starts`] is the panicking wrapper
//! over that.
//!
//! Why thread count cannot change results:
//!
//! 1. Start `i` always derives its PRNG from `child_seed(base_seed, i)` —
//!    the SplitMix64 streams are a function of the start index alone, never
//!    of which worker claims the start or in what order.
//! 2. Each attempt of a start runs on a fresh [`RefineWorkspace`] of its
//!    own, dropped when the attempt ends, so nothing flows from one start
//!    to the next through it and a start's heap ends with the start. (A
//!    reused workspace would give the same results, by the `*_in`
//!    entry-point contract.)
//! 3. Results are scattered into a slot vector indexed by start, so the
//!    returned `Vec` is in start order regardless of completion order, and
//!    reductions such as [`best_index_by_key`] break ties by the lowest
//!    start index — a total order independent of scheduling.
//!
//! # Fault isolation
//!
//! Independence also makes starts a natural *fault* boundary:
//! [`try_run_starts`] runs each start under `catch_unwind`, records a panic
//! as a structured [`StartFailure`] (start index, panic message, and the
//! deepest observability phase when the caller is capturing a trace), and
//! reduces over the surviving starts. Because the winner is still chosen by
//! (cut, lowest start index), the surviving-start result is
//! **bit-identical to a sequential run with the failed starts removed** — at
//! every thread count.
//! A batch where every start fails is a typed [`ExecError`], not a panic.
//!
//! ```
//! use mlpart_exec::run_starts;
//! use rand::Rng;
//!
//! let job = |rng: &mut mlpart_hypergraph::rng::MlRng,
//!            _ws: &mut mlpart_fm::RefineWorkspace| rng.gen_range(0..1000u64);
//! let (seq, _) = run_starts(16, 42, 1, &job);
//! let (par, _) = run_starts(16, 42, 4, &job);
//! assert_eq!(seq, par); // bit-identical at any thread count
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use mlpart_fm::RefineWorkspace;
use mlpart_hypergraph::rng::MlRng;

pub mod supervise;
mod trace;

pub use supervise::{
    run_supervised, Attempt, PriorStart, ResumeState, RetryPolicy, RetryRecord, Sink, StartDone,
    SupervisedBatch, ATTEMPT_STRIDE,
};

/// Renders a caught panic payload as a message (the common `&str` / `String`
/// payloads verbatim, anything else a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One start that panicked, recorded instead of propagated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartFailure {
    /// The start index that failed.
    pub start: usize,
    /// The panic payload message.
    pub message: String,
    /// The innermost observability span open at the panic, when the batch
    /// ran inside an `obs` capture (`None` otherwise) — e.g. `"fm_refine"`
    /// or `"level"`.
    pub phase: Option<String>,
}

impl std::fmt::Display for StartFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.phase {
            Some(p) => write!(
                f,
                "start {} panicked in {}: {}",
                self.start, p, self.message
            ),
            None => write!(f, "start {} panicked: {}", self.start, self.message),
        }
    }
}

/// A batch that completed with at least one surviving start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult<T> {
    /// Surviving starts as `(start index, value)`, in start order.
    pub survivors: Vec<(usize, T)>,
    /// Failed starts, in start order.
    pub failures: Vec<StartFailure>,
}

/// Why a batch produced no usable result.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// Every start panicked; the per-start failures are preserved.
    AllStartsFailed {
        /// One failure per start, in start order.
        failures: Vec<StartFailure>,
    },
    /// The runner itself lost results — a worker died outside the per-start
    /// isolation boundary or a start index was never claimed. This indicates
    /// a harness bug, not a job failure.
    Lost {
        /// Human-readable description of what was lost.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::AllStartsFailed { failures } => {
                write!(f, "all {} start(s) failed", failures.len())?;
                if let Some(first) = failures.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            ExecError::Lost { detail } => write!(f, "execution lost results: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Timing telemetry for one batch.
///
/// The paper's tables report *total CPU for 100 runs*; a parallel batch
/// finishes in less wall-clock than that, so the two notions must be kept
/// apart: `wall_secs` is what the user waits, `cpu_secs` approximates what
/// the paper's time columns mean (the per-start times summed over all
/// starts, regardless of which thread ran them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecTiming {
    /// Elapsed wall-clock seconds for the whole batch.
    pub wall_secs: f64,
    /// Sum of the per-start wall-clock seconds (a CPU-time proxy: each
    /// start runs on one thread without blocking).
    pub cpu_secs: f64,
}

/// Picks the number of worker threads when the caller has no preference:
/// the machine's available parallelism, or 1 if that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `runs` independent starts of `job` on `threads` worker threads with
/// **per-start panic isolation**, returning survivors and failures in start
/// order plus timing telemetry.
///
/// This is [`run_supervised`] with one attempt per start, nothing to resume
/// and no sink.
///
/// Each start runs under `catch_unwind`: a panicking start becomes a
/// [`StartFailure`] (with the panic message and, under `obs`, the innermost
/// open span as its phase) while every other start proceeds normally. The
/// unwound start's workspace dies with it and the next start gets a fresh
/// one, so isolation cannot change any surviving start's result.
/// Consequently the surviving results are bit-identical to a sequential run
/// over just the surviving start indices, at every thread count.
///
/// Start `i` receives a PRNG seeded with `child_seed(base_seed, i)` and a
/// fresh [`RefineWorkspace`] of its own. Starts are distributed by an
/// atomic next-start counter — idle workers steal whatever start is next —
/// but the returned vectors are in start order for every `threads` value.
///
/// # Errors
///
/// [`ExecError::AllStartsFailed`] when no start survived;
/// [`ExecError::Lost`] when the runner lost results (worker death outside
/// the isolation boundary, or an unclaimed start index).
///
/// # Panics
///
/// Panics if `runs == 0` or `threads == 0` (caller bugs, not input faults).
pub fn try_run_starts<T, F>(
    runs: usize,
    base_seed: u64,
    threads: usize,
    job: &F,
) -> Result<(BatchResult<T>, ExecTiming), ExecError>
where
    T: Send,
    F: Fn(&mut MlRng, &mut RefineWorkspace) -> T + Sync,
{
    run_supervised(
        runs,
        base_seed,
        threads,
        &RetryPolicy::default(),
        ResumeState::default(),
        None,
        &|rng, ws, _| job(rng, ws),
    )
    .map(|(batch, timing)| (batch.into_batch(), timing))
}

/// Runs `runs` independent starts of `job` on `threads` worker threads and
/// returns the per-start results **in start order** plus timing telemetry.
///
/// The non-isolating wrapper over [`try_run_starts`]: any start failure (or
/// lost result) propagates as a panic, preserving the historical contract
/// for callers that treat a panicking job as a programming error.
///
/// # Panics
///
/// Panics if `runs == 0`, `threads == 0`, or any start panics.
pub fn run_starts<T, F>(
    runs: usize,
    base_seed: u64,
    threads: usize,
    job: &F,
) -> (Vec<T>, ExecTiming)
where
    T: Send,
    F: Fn(&mut MlRng, &mut RefineWorkspace) -> T + Sync,
{
    match try_run_starts(runs, base_seed, threads, job) {
        Ok((batch, timing)) => {
            if let Some(f) = batch.failures.first() {
                panic!("{f}");
            }
            (
                batch.survivors.into_iter().map(|(_, v)| v).collect(),
                timing,
            )
        }
        Err(e) => panic!("{e}"),
    }
}

/// Index of the best element under `key`: the minimal key, ties broken by
/// the **lowest index**. Applied to [`run_starts`] output (start order),
/// this is the deterministic reduction that makes a parallel multi-start
/// batch return the same winner as the sequential loop it replaced.
///
/// # Panics
///
/// Panics if `items` is empty.
pub fn best_index_by_key<T, K, F>(items: &[T], key: F) -> usize
where
    K: Ord,
    F: Fn(&T) -> K,
{
    assert!(!items.is_empty(), "cannot reduce an empty batch");
    let mut best = 0usize;
    let mut best_key: Option<K> = None;
    for (i, item) in items.iter().enumerate() {
        let k = key(item);
        // Strict `<` keeps the earliest index on ties.
        let better = match &best_key {
            None => true,
            Some(b) => k < *b,
        };
        if better {
            best = i;
            best_key = Some(k);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpart_hypergraph::rng::{child_seed, seeded_rng};
    use rand::Rng;

    fn job(rng: &mut MlRng, _ws: &mut RefineWorkspace) -> u64 {
        rng.gen_range(0..1_000_000u64)
    }

    #[test]
    fn start_order_is_preserved() {
        let idx_job =
            |rng: &mut MlRng, _ws: &mut RefineWorkspace| -> u64 { rng.gen_range(0..u64::MAX) };
        let (seq, _) = run_starts(23, 7, 1, &idx_job);
        for threads in [2, 3, 8, 64] {
            let (par, _) = run_starts(23, 7, threads, &idx_job);
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_runs() {
        let (seq, _) = run_starts(3, 1, 1, &job);
        let (par, _) = run_starts(3, 1, 16, &job);
        assert_eq!(seq, par);
    }

    #[test]
    fn single_run_single_thread() {
        let (v, t) = run_starts(1, 5, 1, &job);
        assert_eq!(v.len(), 1);
        assert!(t.wall_secs >= 0.0 && t.cpu_secs >= 0.0);
    }

    #[test]
    fn workspace_is_private_to_one_start() {
        // Each job gets a fresh workspace of its own: it sees no marker a
        // previous start left, and no concurrent job sees its marker.
        let fresh = RefineWorkspace::new().state.key_bound;
        let marker_job = |rng: &mut MlRng, ws: &mut RefineWorkspace| -> i32 {
            assert_eq!(ws.state.key_bound, fresh);
            let tag = rng.gen_range(1..i32::MAX);
            ws.state.key_bound = tag;
            std::thread::yield_now();
            assert_eq!(ws.state.key_bound, tag);
            tag
        };
        let (seq, _) = run_starts(32, 9, 1, &marker_job);
        let (par, _) = run_starts(32, 9, 4, &marker_job);
        assert_eq!(seq, par);
    }

    #[test]
    fn best_index_breaks_ties_low() {
        let items = [5u64, 3, 3, 7, 3];
        assert_eq!(best_index_by_key(&items, |&x| x), 1);
        let items = [2u64];
        assert_eq!(best_index_by_key(&items, |&x| x), 0);
    }

    #[test]
    fn timing_is_populated() {
        let (_, t) = run_starts(8, 3, 2, &job);
        assert!(t.wall_secs >= 0.0);
        assert!(t.cpu_secs >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one start")]
    fn rejects_zero_runs() {
        let _ = run_starts(0, 0, 1, &job);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn rejects_zero_threads() {
        let _ = run_starts(1, 0, 0, &job);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    /// Runs a flaky batch where the job learns its start index from the rng
    /// stream (the only deterministic identity a job has).
    fn run_flaky(
        runs: usize,
        seed: u64,
        threads: usize,
        fail: &[usize],
    ) -> Result<(BatchResult<u64>, ExecTiming), ExecError> {
        // Reconstruct the start index from the seed stream: each start's
        // first draw is a pure function of child_seed(seed, i), so a lookup
        // table maps first-draws back to indices.
        let firsts: Vec<u64> = (0..runs)
            .map(|i| seeded_rng(child_seed(seed, i as u64)).gen_range(0..u64::MAX))
            .collect();
        let fail: Vec<usize> = fail.to_vec();
        let job = move |rng: &mut MlRng, _ws: &mut RefineWorkspace| -> u64 {
            let first = rng.gen_range(0..u64::MAX);
            let i = firsts
                .iter()
                .position(|&f| f == first)
                .expect("known start");
            if fail.contains(&i) {
                panic!("boom at start {i}");
            }
            first
        };
        try_run_starts(runs, seed, threads, &job)
    }

    #[test]
    fn panicking_starts_become_failures_not_panics() {
        let (batch, _) = run_flaky(8, 11, 1, &[2, 5]).expect("survivors exist");
        assert_eq!(batch.failures.len(), 2);
        assert_eq!(batch.failures[0].start, 2);
        assert_eq!(batch.failures[1].start, 5);
        assert!(batch.failures[0].message.contains("boom at start 2"));
        assert_eq!(batch.survivors.len(), 6);
        assert!(batch.survivors.iter().all(|&(i, _)| i != 2 && i != 5));
    }

    #[test]
    fn survivors_are_bit_identical_to_sequential_with_failed_removed() {
        let clean = run_flaky(13, 19, 1, &[]).expect("all survive");
        let fail_set = [0usize, 4, 7];
        let expected: Vec<(usize, u64)> = clean
            .0
            .survivors
            .iter()
            .filter(|(i, _)| !fail_set.contains(i))
            .cloned()
            .collect();
        for threads in [1, 2, 4, 8] {
            let (batch, _) = run_flaky(13, 19, threads, &fail_set).expect("survivors exist");
            assert_eq!(batch.survivors, expected, "threads={threads}");
            assert_eq!(
                batch.failures.iter().map(|f| f.start).collect::<Vec<_>>(),
                fail_set,
                "threads={threads}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The isolation contract over random (runs, threads, failure-set)
        /// triples: survivors are bit-identical to a clean sequential run
        /// with the failed starts filtered out, failures are reported in
        /// start order, and an all-failed batch is the typed error.
        #[test]
        fn prop_survivors_match_filtered_sequential(
            runs in 1usize..14,
            threads in 1usize..10,
            seed in 0u64..10_000,
            fail_bits in 0u64..16_384,
        ) {
            use proptest::prelude::*;
            let fail: Vec<usize> = (0..runs).filter(|i| (fail_bits >> i) & 1 == 1).collect();
            let clean = run_flaky(runs, seed, 1, &[]).expect("all survive").0;
            let expected: Vec<(usize, u64)> = clean
                .survivors
                .iter()
                .filter(|(i, _)| !fail.contains(i))
                .cloned()
                .collect();
            match run_flaky(runs, seed, threads, &fail) {
                Ok((batch, _)) => {
                    prop_assert!(fail.len() < runs, "a fully-failed batch must be an error");
                    prop_assert_eq!(batch.survivors, expected);
                    prop_assert_eq!(
                        batch.failures.iter().map(|f| f.start).collect::<Vec<_>>(),
                        fail
                    );
                }
                Err(ExecError::AllStartsFailed { failures }) => {
                    prop_assert_eq!(fail.len(), runs);
                    prop_assert_eq!(failures.len(), runs);
                }
                Err(e) => panic!("unexpected executor error: {e}"),
            }
        }
    }

    #[test]
    fn all_starts_failed_is_a_typed_error() {
        let all: Vec<usize> = (0..5).collect();
        for threads in [1, 3] {
            match run_flaky(5, 31, threads, &all) {
                Err(ExecError::AllStartsFailed { failures }) => {
                    assert_eq!(failures.len(), 5, "threads={threads}");
                    assert_eq!(
                        failures.iter().map(|f| f.start).collect::<Vec<_>>(),
                        all,
                        "threads={threads}"
                    );
                }
                other => panic!("expected AllStartsFailed, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "boom at start 3")]
    fn run_starts_preserves_the_panicking_contract() {
        let firsts: Vec<u64> = (0..6)
            .map(|i| seeded_rng(child_seed(41, i as u64)).gen_range(0..u64::MAX))
            .collect();
        let job = move |rng: &mut MlRng, _ws: &mut RefineWorkspace| -> u64 {
            let first = rng.gen_range(0..u64::MAX);
            let i = firsts
                .iter()
                .position(|&f| f == first)
                .expect("known start");
            if i == 3 {
                panic!("boom at start {i}");
            }
            first
        };
        let _ = run_starts(6, 41, 2, &job);
    }

    #[test]
    fn display_formats_are_informative() {
        let f = StartFailure {
            start: 4,
            message: "overflow".to_string(),
            phase: Some("fm_refine".to_string()),
        };
        assert_eq!(f.to_string(), "start 4 panicked in fm_refine: overflow");
        let e = ExecError::AllStartsFailed {
            failures: vec![f.clone()],
        };
        let msg = e.to_string();
        assert!(msg.contains("all 1 start(s) failed"), "{msg}");
        assert!(msg.contains("fm_refine"), "{msg}");
        let lost = ExecError::Lost {
            detail: "slot 3".to_string(),
        };
        assert!(lost.to_string().contains("slot 3"));
    }

    /// Per-start spans merge in start order, so the merged stream's content
    /// (timestamps excluded) is byte-identical at every thread count.
    #[cfg(feature = "obs")]
    #[test]
    fn trace_content_is_thread_count_invariant() {
        let span_job = |rng: &mut MlRng, _ws: &mut RefineWorkspace| -> u64 {
            let v = rng.gen_range(0..1000u64);
            let _s = mlpart_obs::span("job", &[("draw", v.into())]);
            mlpart_obs::counter("draw", &[("value", v.into())]);
            v
        };
        let capture_run = |threads: usize| {
            let ((vals, _), trace) = mlpart_obs::capture(|| run_starts(13, 77, threads, &span_job));
            // Every start contributes its span wrapper plus the job's events.
            assert_eq!(
                trace.events.iter().filter(|e| e.name == "start").count(),
                2 * 13,
                "threads={threads}"
            );
            (
                vals,
                mlpart_obs::strip_timing(&mlpart_obs::to_jsonl(&trace)),
            )
        };
        let (v1, t1) = capture_run(1);
        for threads in [2, 4, 8] {
            let (v, t) = capture_run(threads);
            assert_eq!(v1, v, "threads={threads}");
            assert_eq!(t1, t, "threads={threads}");
        }
    }

    /// Pins the runner's merged output at 1 and 3 threads: a job that opens
    /// a span, emits a counter and panics inside the span on start 2 yields
    /// exactly that failure, and the timing-free trace hashes (FNV-1a, as in
    /// `crates/core/tests/golden.rs`) to a constant recorded before the
    /// runner was last restructured.
    #[cfg(feature = "obs")]
    #[test]
    fn runner_output_is_pinned() {
        const PINNED_TRACE: u64 = 0x7893_423b_1b3a_6bbc;
        let firsts: Vec<u64> = (0..6)
            .map(|i| seeded_rng(child_seed(61, i as u64)).gen_range(0..u64::MAX))
            .collect();
        let job = move |rng: &mut MlRng, _ws: &mut RefineWorkspace| -> u64 {
            let first = rng.gen_range(0..u64::MAX);
            let i = firsts
                .iter()
                .position(|&f| f == first)
                .expect("known start");
            let _s = mlpart_obs::span("pinned", &[("start", i.into())]);
            mlpart_obs::counter("draw", &[("value", (first % 1000).into())]);
            if i == 2 {
                panic!("pinned failure");
            }
            first
        };
        for threads in [1, 3] {
            let ((batch, _), trace) =
                mlpart_obs::capture(|| try_run_starts(6, 61, threads, &job).expect("survivors"));
            assert_eq!(
                batch.failures,
                vec![StartFailure {
                    start: 2,
                    message: "pinned failure".to_string(),
                    phase: Some("pinned".to_string()),
                }],
                "threads={threads}"
            );
            let jsonl = mlpart_obs::to_jsonl(&trace);
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in mlpart_obs::strip_timing(&jsonl).as_bytes() {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(hash, PINNED_TRACE, "threads={threads}");
        }
    }

    /// A panicking start is attributed to the innermost open span.
    #[cfg(feature = "obs")]
    #[test]
    fn failure_phase_names_the_innermost_span() {
        let firsts: Vec<u64> = (0..4)
            .map(|i| seeded_rng(child_seed(53, i as u64)).gen_range(0..u64::MAX))
            .collect();
        let job = move |rng: &mut MlRng, _ws: &mut RefineWorkspace| -> u64 {
            let first = rng.gen_range(0..u64::MAX);
            let i = firsts
                .iter()
                .position(|&f| f == first)
                .expect("known start");
            let _outer = mlpart_obs::span("outer", &[]);
            let _inner = mlpart_obs::span("inner", &[]);
            if i == 2 {
                panic!("mid-span failure");
            }
            first
        };
        let ((batch, _), _trace) =
            mlpart_obs::capture(|| try_run_starts(4, 53, 2, &job).expect("survivors"));
        assert_eq!(batch.failures.len(), 1);
        assert_eq!(batch.failures[0].phase.as_deref(), Some("inner"));
    }

    /// With audits forced on, the scatter-claims check runs on a healthy
    /// multi-threaded batch and the results stay bit-identical.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_hooks_fire_on_healthy_batch() {
        mlpart_audit::force_enabled(true);
        let (seq, _) = run_starts(17, 21, 1, &job);
        let (par, _) = run_starts(17, 21, 4, &job);
        mlpart_audit::force_enabled(false);
        assert_eq!(seq, par);
    }
}
