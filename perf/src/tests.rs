use super::*;
use crate::ledger::{is_exact_unit, Metric};
use crate::replay::Probe;
use crate::run::Plan;
use mlpart_fm::RefineWorkspace;
use mlpart_hypergraph::rng::seeded_rng;

const IN_PROCESS: [Workload; 3] = [Workload::BisectMl, Workload::FlatRnd, Workload::KwayQuad];

fn small_plan(threads: usize) -> Plan {
    Plan {
        seconds: 0.0,
        quality: 3,
        replay: 8,
        setups: 1,
        threads,
        circuit: "syn-balu",
    }
}

fn metrics(wl: Workload, seed: u64, plan: &Plan, traced: bool) -> Vec<Metric> {
    let o = run::run(wl, seed, plan, traced).expect("run completes");
    assert!(o.failures.is_empty(), "{}: {:?}", wl.name(), o.failures);
    o.metrics
}

/// The replays mirror the pipelines' RNG schedules: a refactor that changes
/// the schedule inside a pipeline fails here until the replay is ported.
#[test]
fn replays_are_byte_identical_to_the_pipelines() {
    for circuit in ["syn-balu", "syn-primary1"] {
        let c = mlpart_gen::by_name(circuit).expect("suite circuit");
        for seed in 1..=3 {
            let h = c.generate(seed);
            for wl in IN_PROCESS {
                let mut ws = RefineWorkspace::new();
                let (p, cut) = workload::start(wl, &h, &mut seeded_rng(seed), &mut ws);
                let mut probe = Probe::default();
                let (q, replayed_cut) =
                    replay::start(wl, &h, &mut seeded_rng(seed), &mut ws, &mut probe)
                        .expect("replay runs");
                assert_eq!(
                    p.assignment(),
                    q.assignment(),
                    "{} {circuit} {seed}",
                    wl.name()
                );
                assert_eq!(cut, replayed_cut);
            }
        }
    }
}

#[test]
fn count_metrics_repeat_at_every_thread_count() {
    for wl in IN_PROCESS {
        let exact = |threads| -> Vec<Metric> {
            metrics(wl, 5, &small_plan(threads), true)
                .into_iter()
                .filter(|m| is_exact_unit(m.unit))
                .collect()
        };
        assert_eq!(exact(1), exact(2), "{}", wl.name());
    }
}

#[test]
fn predicted_zeros_hold() {
    let count = |ms: &[Metric], name: &str| {
        ms.iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .expect("metric present")
    };
    for wl in IN_PROCESS {
        let ms = metrics(wl, 2, &small_plan(2), true);
        let coarsens = wl != Workload::FlatRnd;
        assert_eq!(
            count(&ms, "cluster.match_calls") > 0.0,
            coarsens,
            "{}",
            wl.name()
        );
        assert_eq!(
            count(&ms, "cluster.project_modules") > 0.0,
            coarsens,
            "{}",
            wl.name()
        );
        let kway = wl == Workload::KwayQuad;
        assert_eq!(
            count(&ms, "kway.moves_attempted") > 0.0,
            kway,
            "{}",
            wl.name()
        );
        assert_eq!(
            count(&ms, "fm.moves_attempted") > 0.0,
            !kway,
            "{}",
            wl.name()
        );
    }
}

/// Every metric a run prints is declared in BENCHMARK.json with the same
/// unit, and every declared metric is printed.
#[test]
fn printed_metrics_match_the_declaration() {
    let decl = Declaration::load().expect("BENCHMARK.json parses");
    let doc = json::parse(ledger::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let declared: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, names);
    assert!((2..=8).contains(&declared.len()));
    assert!(decl.end_to_end.len() <= 16 && decl.per_layer.len() <= 128);
    let valid = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for (traced, declared) in [(false, &decl.end_to_end), (true, &decl.per_layer)] {
        let expected: Vec<(String, String)> = declared
            .iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect();
        for wl in IN_PROCESS {
            let printed: Vec<(String, String)> = metrics(wl, 1, &small_plan(2), traced)
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(
                printed,
                expected,
                "{} --trace {}",
                wl.name(),
                u8::from(traced)
            );
            assert!(printed.iter().all(|(n, _)| valid(n)));
        }
    }
}

#[test]
fn parses_the_command_lines() {
    let argv = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
    let a = argv("--workload flat-rnd --seed 7 --seconds 3 --trace 1").expect("valid");
    assert_eq!(a.workload, Some(Workload::FlatRnd));
    assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(3), true));
    assert!(argv("--workload nope").is_err());
    assert!(argv("--trace 2").is_err());
    assert!(argv("--seed").is_err());
    assert!(argv("--workload bisect-ml --check b.json").is_err());
    assert!(argv("--check b.json --seed 3").is_err());
}
