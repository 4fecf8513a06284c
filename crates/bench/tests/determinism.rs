//! Fixed-seed determinism contract of the parallel harness: for every
//! algorithm family the tables exercise, `run_many_par` must be
//! bit-identical to the sequential `run_many` reference at *every* thread
//! count — including 1 — because each start draws from its own
//! `child_seed(base, i)` stream and the reduction breaks ties to the lowest
//! start index regardless of completion order.
//!
//! CI runs this file twice: once with the default thread set and once with
//! `MLPART_TEST_THREADS` forcing an extra explicit multi-thread setting, so
//! the scheduling-independence claim is exercised even if the runner's CPU
//! count would otherwise collapse everything to one worker.

use mlpart_bench::{algos, run_many, run_many_par};
use mlpart_gen::suite;
use mlpart_hypergraph::rng::child_seed;

/// Thread counts under test: 1 (in-line fast path), 2 and 8 (fewer and more
/// workers than typical start counts), plus an optional CI-forced override.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 8];
    if let Ok(forced) = std::env::var("MLPART_TEST_THREADS") {
        let forced: usize = forced
            .parse()
            .expect("MLPART_TEST_THREADS must be a positive integer");
        assert!(forced > 0, "MLPART_TEST_THREADS must be positive");
        if !counts.contains(&forced) {
            counts.push(forced);
        }
    }
    counts
}

#[test]
fn bipartitioners_are_thread_count_invariant() {
    let h = suite::by_name("balu").expect("suite circuit").generate(3);
    let runs = 6;
    let seed = 41;
    let sequential = [
        run_many(runs, child_seed(seed, 0), |rng| algos::fm(&h, rng)),
        run_many(runs, child_seed(seed, 1), |rng| algos::clip(&h, rng)),
        run_many(runs, child_seed(seed, 2), |rng| algos::ml_f(&h, 0.5, rng)),
        run_many(runs, child_seed(seed, 3), |rng| algos::ml_c(&h, 0.5, rng)),
    ];
    for threads in thread_counts() {
        let parallel = [
            run_many_par(runs, child_seed(seed, 0), threads, |rng, ws| {
                algos::fm_in(&h, rng, ws)
            }),
            run_many_par(runs, child_seed(seed, 1), threads, |rng, ws| {
                algos::clip_in(&h, rng, ws)
            }),
            run_many_par(runs, child_seed(seed, 2), threads, |rng, ws| {
                algos::ml_f_in(&h, 0.5, rng, ws)
            }),
            run_many_par(runs, child_seed(seed, 3), threads, |rng, ws| {
                algos::ml_c_in(&h, 0.5, rng, ws)
            }),
        ];
        // RunStats equality compares the cut statistics and ignores timing.
        assert_eq!(sequential, parallel, "threads = {threads}");
    }
}

#[test]
fn quadrisectioners_are_thread_count_invariant() {
    let h = suite::by_name("balu").expect("suite circuit").generate(5);
    let runs = 4;
    let seed = 43;
    let sequential = [
        run_many(runs, child_seed(seed, 0), |rng| algos::fm4(&h, rng)),
        run_many(runs, child_seed(seed, 1), |rng| algos::clip4(&h, rng)),
        run_many(runs, child_seed(seed, 2), |rng| algos::ml4(&h, rng)),
    ];
    for threads in thread_counts() {
        let parallel = [
            run_many_par(runs, child_seed(seed, 0), threads, |rng, ws| {
                algos::fm4_in(&h, rng, ws)
            }),
            run_many_par(runs, child_seed(seed, 1), threads, |rng, ws| {
                algos::clip4_in(&h, rng, ws)
            }),
            run_many_par(runs, child_seed(seed, 2), threads, |rng, ws| {
                algos::ml4_in(&h, rng, ws)
            }),
        ];
        assert_eq!(sequential, parallel, "threads = {threads}");
    }
}

#[test]
fn more_threads_than_starts_is_fine() {
    let h = suite::by_name("primary1")
        .expect("suite circuit")
        .generate(7);
    let seq = run_many(2, 99, |rng| algos::ml_c(&h, 0.5, rng));
    let par = run_many_par(2, 99, 16, |rng, ws| algos::ml_c_in(&h, 0.5, rng, ws));
    assert_eq!(seq, par);
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    // Two identical parallel invocations must agree exactly — scheduling
    // noise (thread interleaving) must never leak into the statistics.
    let h = suite::by_name("balu").expect("suite circuit").generate(11);
    let a = run_many_par(8, 1234, 4, |rng, ws| algos::ml_c_in(&h, 0.33, rng, ws));
    let b = run_many_par(8, 1234, 4, |rng, ws| algos::ml_c_in(&h, 0.33, rng, ws));
    assert_eq!(a, b);
}

/// Budgets must not weaken the determinism contract: a budget-truncated
/// batch — cuts, per-start partitions, *and* the truncation records
/// themselves — is bit-identical at every thread count, because each start
/// spends against its own meter and the checkpoints count work, not time.
#[test]
fn budgeted_runs_are_thread_count_invariant() {
    use mlpart_core::{ml_bipartition, Budget, BudgetMeter, MlConfig, Request, Truncation};

    let h = suite::by_name("balu").expect("suite circuit").generate(3);
    let budget = Budget {
        max_passes: Some(1),
        ..Budget::default()
    };
    let cfg = MlConfig::clip().with_ratio(0.5);
    let job = |rng: &mut _, ws: &mut _| -> (u64, Vec<u32>, Option<Truncation>) {
        let mut meter = BudgetMeter::new(&budget);
        let (p, r) = ml_bipartition(
            &h,
            &cfg,
            rng,
            Request {
                meter: Some(&mut meter),
                workspace: Some(ws),
                ..Request::default()
            },
        )
        .expect("valid run");
        (r.cut, p.assignment().to_vec(), r.truncation)
    };
    let (reference, _) = mlpart_exec::run_starts(6, 55, 1, &job);
    assert!(
        reference.iter().any(|(_, _, t)| t.is_some()),
        "a one-pass budget must truncate some start on balu"
    );
    for threads in thread_counts() {
        let (outcomes, _) = mlpart_exec::run_starts(6, 55, threads, &job);
        assert_eq!(reference, outcomes, "threads = {threads}");
    }
}
