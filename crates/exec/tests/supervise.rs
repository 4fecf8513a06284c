//! Fault-injection tests for the supervised runner (needs `--features
//! fault`).
//!
//! Same process-global caveat as `fault.rs`: every test holds
//! `mlpart_fault::test_lock()` while a forced plan is installed, so the
//! injected panics can never leak into another test's batch.
//!
//! The determinism spec under test: survivors, failures, retry records, and
//! per-start attempt counts are bit-identical at every thread count and
//! across any interrupt/resume split, with the sequential single-thread run
//! as the oracle.

#![cfg(feature = "fault")]

use mlpart_exec::{
    run_supervised, Attempt, ExecError, PriorStart, ResumeState, RetryPolicy, StartDone,
    SupervisedBatch, ATTEMPT_STRIDE,
};
use mlpart_fm::{Budget, RefineWorkspace};
use mlpart_hypergraph::rng::{child_seed, seeded_rng, MlRng};
use rand::Rng;
use std::sync::Mutex;

fn draw_job(rng: &mut MlRng, _ws: &mut RefineWorkspace, _a: Attempt) -> u64 {
    rng.gen_range(0..u64::MAX)
}

/// Runs a supervised batch with the `attempt`-site failures in `fail`
/// injected (each entry is `(start, attempt)`), returning the batch.
fn run_with_attempt_faults(
    runs: usize,
    seed: u64,
    threads: usize,
    policy: &RetryPolicy,
    fail: &[(usize, u32)],
) -> Result<SupervisedBatch<u64>, ExecError> {
    let _gate = mlpart_fault::test_lock();
    if fail.is_empty() {
        mlpart_fault::force_off();
    } else {
        let idx: Vec<String> = fail
            .iter()
            .map(|&(i, a)| (i as u64 * ATTEMPT_STRIDE + u64::from(a)).to_string())
            .collect();
        let plan = format!("panic@attempt:{}", idx.join("|"));
        mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse(&plan).expect("valid plan"));
    }
    let result = run_supervised(
        runs,
        seed,
        threads,
        policy,
        ResumeState::default(),
        None,
        &draw_job,
    );
    mlpart_fault::clear_force();
    result.map(|(batch, _)| batch)
}

/// A failed attempt is absorbed as a retry record and the next attempt runs
/// from its own seed stream — visibly a different deterministic start.
#[test]
fn failed_attempts_are_retried_with_reseeded_streams() {
    let policy = RetryPolicy {
        max_attempts: 3,
        degraded_final: None,
    };
    // Start 2 fails attempt 0; start 5 fails attempts 0 and 1.
    let batch =
        run_with_attempt_faults(7, 61, 1, &policy, &[(2, 0), (5, 0), (5, 1)]).expect("survivors");
    assert!(batch.failures.is_empty());
    assert_eq!(batch.attempts, vec![1, 1, 2, 1, 1, 3, 1]);
    assert_eq!(
        batch
            .retries
            .iter()
            .map(|r| (r.start, r.attempt))
            .collect::<Vec<_>>(),
        vec![(2, 0), (5, 0), (5, 1)]
    );
    assert!(batch.retries[0].message.contains("injected fault"));
    // Survivor values come from the attempt that succeeded: attempt 0 draws
    // from child_seed(seed, i), attempt a > 0 from the nested stream.
    let value = |i: u64, a: u64| -> u64 {
        let seed = if a == 0 {
            child_seed(61, i)
        } else {
            child_seed(child_seed(61, i), a)
        };
        seeded_rng(seed).gen_range(0..u64::MAX)
    };
    for &(i, v) in &batch.survivors {
        let attempts = batch.attempts[i];
        assert_eq!(v, value(i as u64, u64::from(attempts - 1)), "start {i}");
    }
}

/// A persistent fault (the `start` site fires on every attempt) exhausts
/// the policy: max-1 retry records, then a final StartFailure.
#[test]
fn persistent_failures_exhaust_attempts() {
    let _gate = mlpart_fault::test_lock();
    mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse("panic@start:3").unwrap());
    let policy = RetryPolicy {
        max_attempts: 4,
        degraded_final: None,
    };
    let result = run_supervised(6, 83, 2, &policy, ResumeState::default(), None, &draw_job);
    mlpart_fault::clear_force();
    let (batch, _) = result.expect("other starts survive");
    assert_eq!(batch.failures.len(), 1);
    assert_eq!(batch.failures[0].start, 3);
    assert_eq!(batch.attempts[3], 4);
    assert_eq!(
        batch
            .retries
            .iter()
            .map(|r| (r.start, r.attempt))
            .collect::<Vec<_>>(),
        vec![(3, 0), (3, 1), (3, 2)]
    );
    assert_eq!(batch.survivors.len(), 5);
}

/// The whole supervised batch — survivors, failures, retries, attempts —
/// is bit-identical at 1, 2, 4, and 8 threads.
#[test]
fn supervised_batches_are_thread_count_invariant() {
    let policy = RetryPolicy {
        max_attempts: 3,
        degraded_final: None,
    };
    let fail = [(0usize, 0u32), (0, 1), (4, 0), (9, 1), (11, 0), (11, 1)];
    let oracle = run_with_attempt_faults(12, 29, 1, &policy, &fail).expect("survivors");
    assert!(!oracle.retries.is_empty());
    for threads in [2, 4, 8] {
        let batch = run_with_attempt_faults(12, 29, threads, &policy, &fail).expect("survivors");
        assert_eq!(batch, oracle, "threads={threads}");
    }
}

/// The degraded budget reaches the job only on a start's final attempt.
#[test]
fn degraded_budget_reaches_only_the_final_attempt() {
    let seen: Mutex<Vec<(usize, u32, bool)>> = Mutex::new(Vec::new());
    let job = |rng: &mut MlRng, _ws: &mut RefineWorkspace, a: Attempt| -> u64 {
        seen.lock()
            .unwrap()
            .push((a.start, a.attempt, a.budget.is_some()));
        if let Some(b) = a.budget {
            assert_eq!(b.max_passes, Some(2));
        }
        rng.gen_range(0..u64::MAX)
    };
    let policy = RetryPolicy {
        max_attempts: 3,
        degraded_final: Some(Budget {
            max_passes: Some(2),
            ..Budget::UNLIMITED
        }),
    };
    let _gate = mlpart_fault::test_lock();
    // Start 1 burns attempts 0 and 1, so its attempt 2 is final + degraded.
    let idx = |i: u64, a: u64| (i * ATTEMPT_STRIDE + a).to_string();
    let plan = format!("panic@attempt:{}|{}", idx(1, 0), idx(1, 1));
    mlpart_fault::force_plan(mlpart_fault::FaultPlan::parse(&plan).unwrap());
    let result = run_supervised(3, 17, 1, &policy, ResumeState::default(), None, &job);
    mlpart_fault::clear_force();
    let (batch, _) = result.expect("survivors");
    assert!(batch.failures.is_empty());
    assert_eq!(batch.attempts, vec![1, 3, 1]);
    // Only (start 1, attempt 2) — a final attempt after real failures — saw
    // the degraded budget. Attempt 0 of a 3-attempt policy never does.
    let seen = seen.lock().unwrap();
    for &(start, attempt, degraded) in seen.iter() {
        assert_eq!(degraded, start == 1 && attempt == 2, "({start}, {attempt})");
    }
}

/// Splitting a batch at any point and resuming from the sink's records
/// reproduces the uninterrupted batch bit-for-bit — retries included.
#[test]
fn any_resume_split_matches_the_uninterrupted_batch() {
    let policy = RetryPolicy {
        max_attempts: 3,
        degraded_final: None,
    };
    let fail = [(1usize, 0u32), (3, 0), (3, 1), (3, 2), (6, 1)];
    let full = run_with_attempt_faults(8, 71, 1, &policy, &fail).expect("survivors");

    // Re-run with a sink to capture per-start checkpoint records.
    let records: Mutex<Vec<PriorStart<u64>>> = Mutex::new(Vec::new());
    let sink = |done: &StartDone<u64>| {
        records.lock().unwrap().push(PriorStart {
            start: done.start,
            attempts: done.attempts,
            outcome: match done.outcome {
                Ok(v) => Ok(*v),
                Err(f) => Err(f.clone()),
            },
            retries: done.retries.to_vec(),
            // `()` without `obs`, where a `.clone()` call is clone_on_copy.
            trace: Clone::clone(done.trace),
        });
    };
    {
        let _gate = mlpart_fault::test_lock();
        let plan: Vec<String> = fail
            .iter()
            .map(|&(i, a)| (i as u64 * ATTEMPT_STRIDE + u64::from(a)).to_string())
            .collect();
        mlpart_fault::force_plan(
            mlpart_fault::FaultPlan::parse(&format!("panic@attempt:{}", plan.join("|"))).unwrap(),
        );
        let result = run_supervised(
            8,
            71,
            2,
            &policy,
            ResumeState::default(),
            Some(&sink),
            &draw_job,
        );
        mlpart_fault::clear_force();
        result.expect("survivors");
    }
    let mut records = records.into_inner().unwrap();
    records.sort_by_key(|r| r.start);
    assert_eq!(records.len(), 8);

    // Resume from every prefix of completed starts, at 1 and 4 threads.
    for cut in 0..=8usize {
        let resume = ResumeState {
            done: records[..cut].to_vec(),
        };
        for threads in [1, 4] {
            let batch = {
                let _gate = mlpart_fault::test_lock();
                let plan: Vec<String> = fail
                    .iter()
                    .map(|&(i, a)| (i as u64 * ATTEMPT_STRIDE + u64::from(a)).to_string())
                    .collect();
                mlpart_fault::force_plan(
                    mlpart_fault::FaultPlan::parse(&format!("panic@attempt:{}", plan.join("|")))
                        .unwrap(),
                );
                let result =
                    run_supervised(8, 71, threads, &policy, resume.clone(), None, &draw_job);
                mlpart_fault::clear_force();
                result.expect("survivors").0
            };
            assert_eq!(batch, full, "cut={cut} threads={threads}");
        }
    }
}

/// Under `obs`, a resumed run's merged trace content is byte-identical to
/// the uninterrupted run's: resumed starts replay their checkpointed
/// contribution verbatim, retried attempts carry their attempt tag.
#[cfg(feature = "obs")]
#[test]
fn resumed_trace_content_matches_uninterrupted() {
    let span_job = |rng: &mut MlRng, _ws: &mut RefineWorkspace, _a: Attempt| -> u64 {
        let v = rng.gen_range(0..1000u64);
        mlpart_obs::counter("draw", &[("value", v.into())]);
        v
    };
    let policy = RetryPolicy {
        max_attempts: 2,
        degraded_final: None,
    };
    let with_plan = |f: &dyn Fn() -> (mlpart_obs::Trace, SupervisedBatch<u64>)| {
        let _gate = mlpart_fault::test_lock();
        mlpart_fault::force_plan(
            // attempt 0 of starts 1 and 4 (indices 8 and 32).
            mlpart_fault::FaultPlan::parse("panic@attempt:8|32").unwrap(),
        );
        let out = f();
        mlpart_fault::clear_force();
        out
    };
    let (full_trace, _full) = with_plan(&|| {
        let (batch, trace) = mlpart_obs::capture(|| {
            run_supervised(6, 19, 1, &policy, ResumeState::default(), None, &span_job)
                .expect("survivors")
                .0
        });
        (trace, batch)
    });

    // Capture checkpoint records, then resume from the first three starts.
    let records: Mutex<Vec<PriorStart<u64>>> = Mutex::new(Vec::new());
    let sink = |done: &StartDone<u64>| {
        records.lock().unwrap().push(PriorStart {
            start: done.start,
            attempts: done.attempts,
            outcome: match done.outcome {
                Ok(v) => Ok(*v),
                Err(f) => Err(f.clone()),
            },
            retries: done.retries.to_vec(),
            trace: done.trace.clone(),
        });
    };
    let _ = with_plan(&|| {
        let (batch, trace) = mlpart_obs::capture(|| {
            run_supervised(
                6,
                19,
                2,
                &policy,
                ResumeState::default(),
                Some(&sink),
                &span_job,
            )
            .expect("survivors")
            .0
        });
        (trace, batch)
    });
    let mut done = records.into_inner().unwrap();
    done.sort_by_key(|r| r.start);
    done.truncate(3);

    let (resumed_trace, _resumed) = with_plan(&|| {
        let resume = ResumeState { done: done.clone() };
        let (batch, trace) = mlpart_obs::capture(|| {
            run_supervised(6, 19, 4, &policy, resume, None, &span_job)
                .expect("survivors")
                .0
        });
        (trace, batch)
    });
    let strip = |t: mlpart_obs::Trace| mlpart_obs::strip_timing(&mlpart_obs::to_jsonl(&t));
    let full_jsonl = strip(full_trace);
    // The retried starts' second attempts are tagged in the wrapper span.
    assert!(full_jsonl.contains("\"attempt\":1"), "{full_jsonl}");
    assert_eq!(strip(resumed_trace), full_jsonl);
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// The supervision contract over random (runs, threads, failure-set,
    /// policy) tuples, with the sequential run as the oracle: the full
    /// batch is bit-identical at every thread count, starts whose failure
    /// count is below max_attempts survive with the matching retry records,
    /// and starts at or above it fail.
    #[test]
    fn prop_supervised_matches_sequential_oracle(
        runs in 1usize..10,
        threads in 1usize..9,
        seed in 0u64..10_000,
        max_attempts in 1u32..5,
        fail_counts in proptest::collection::vec(0u32..5, 10),
    ) {
        use proptest::prelude::*;
        let policy = RetryPolicy { max_attempts, degraded_final: None };
        // fail_counts[i] = number of leading attempts of start i that fail.
        let fail: Vec<(usize, u32)> = (0..runs)
            .flat_map(|i| (0..fail_counts[i].min(max_attempts)).map(move |a| (i, a)))
            .collect();
        let oracle = run_with_attempt_faults(runs, seed, 1, &policy, &fail);
        let parallel = run_with_attempt_faults(runs, seed, threads, &policy, &fail);
        let expect_failed: Vec<usize> =
            (0..runs).filter(|&i| fail_counts[i] >= max_attempts).collect();
        match (oracle, parallel) {
            (Ok(a), Ok(b)) => {
                prop_assert!(expect_failed.len() < runs);
                prop_assert_eq!(
                    a.failures.iter().map(|f| f.start).collect::<Vec<_>>(),
                    expect_failed
                );
                prop_assert_eq!(
                    a.retries.iter().map(|r| (r.start, r.attempt)).collect::<Vec<_>>(),
                    fail.iter()
                        .copied()
                        .filter(|&(_, att)| att + 1 < max_attempts)
                        .collect::<Vec<_>>()
                );
                for (i, (&got, &fails)) in a.attempts.iter().zip(&fail_counts).enumerate() {
                    // c failures then success consumes c+1 attempts; a
                    // persistent failure consumes all max_attempts.
                    prop_assert_eq!(got, fails.min(max_attempts - 1) + 1, "start {}", i);
                }
                prop_assert_eq!(a, b);
            }
            (Err(ExecError::AllStartsFailed { failures: a }),
             Err(ExecError::AllStartsFailed { failures: b })) => {
                prop_assert_eq!(expect_failed.len(), runs);
                prop_assert_eq!(a.len(), runs);
                prop_assert_eq!(&a, &b);
            }
            other => panic!("oracle and parallel disagree: {other:?}"),
        }
    }
}
