//! Golden fingerprints of every pipeline under both schedules.
//!
//! Each case runs one pipeline on `syn-primary1` (generated at seed 1997) for
//! seeds `0..3` and hashes the partition together with every result field
//! that `PartialEq` compares (FNV-1a; wall-clock fields such as
//! `fill_time_ns` are left out). The constants in [`GOLDEN`] were recorded
//! before the pipelines were merged into one V-cycle: a refactor of the
//! pipelines must leave every one of them unchanged. Print the current values
//! with `cargo test -p mlpart-core --test golden -- --ignored --nocapture`.

use mlpart_cluster::MatchConfig;
use mlpart_core::{
    ml_bipartition, ml_kway, recursive_ml_bisection, recursive_ml_partition, two_phase_fm, Budget,
    BudgetMeter, Coarsener, Constraints, LevelStats, MlConfig, MlKwayConfig, MlKwayResult,
    MlResult, PipelineError, RecursiveResult, Request, Truncation, TwoPhaseResult,
};
use mlpart_fm::{FmConfig, PassStats};
use mlpart_hypergraph::rng::{seeded_rng, MlRng};
use mlpart_hypergraph::{Hypergraph, ModuleId, Partition};
use mlpart_kway::{KwayConfig, KwayGain};

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn partition(&mut self, p: &Partition) {
        self.word(u64::from(p.k()));
        for &part in p.assignment() {
            self.word(u64::from(part));
        }
    }

    fn truncation(&mut self, t: Option<Truncation>) {
        self.bytes(format!("{t:?}").as_bytes());
    }

    fn levels(&mut self, stats: &[LevelStats]) {
        self.word(stats.len() as u64);
        for s in stats {
            for v in [
                s.level as u64,
                s.modules as u64,
                s.cut_before,
                s.cut_after,
                s.attempted_moves,
                s.kept_moves,
                s.rebalance_moves as u64,
                s.passes as u64,
            ] {
                self.word(v);
            }
        }
    }

    fn passes(&mut self, stats: &[PassStats]) {
        self.word(stats.len() as u64);
        for s in stats {
            for v in [
                s.cut_before,
                s.cut_after,
                s.attempted_moves as u64,
                s.kept_moves as u64,
            ] {
                self.word(v);
            }
        }
    }
}

fn ml(run: Result<(Partition, MlResult), PipelineError>) -> u64 {
    let (p, r) = run.expect("valid run");
    let mut f = Fnv::new();
    f.partition(&p);
    for v in [r.cut, r.levels as u64, r.total_passes as u64] {
        f.word(v);
    }
    f.word(r.rebalance_moves as u64);
    for &s in &r.level_sizes {
        f.word(s as u64);
    }
    f.levels(&r.level_stats);
    f.truncation(r.truncation);
    f.0
}

fn kway(run: Result<(Partition, MlKwayResult), PipelineError>) -> u64 {
    let (p, r) = run.expect("valid run");
    let mut f = Fnv::new();
    f.partition(&p);
    for v in [
        r.cut,
        r.sum_of_degrees,
        r.levels as u64,
        r.total_passes as u64,
    ] {
        f.word(v);
    }
    f.word(r.rebalance_moves as u64);
    for &s in &r.level_sizes {
        f.word(s as u64);
    }
    f.levels(&r.level_stats);
    f.truncation(r.truncation);
    f.0
}

fn recursive(run: Result<(Partition, RecursiveResult), PipelineError>) -> u64 {
    let (p, r) = run.expect("valid run");
    let mut f = Fnv::new();
    f.partition(&p);
    for v in [r.cut, r.sum_of_degrees, r.bisections as u64] {
        f.word(v);
    }
    f.truncation(r.truncation);
    f.0
}

fn two_phase(run: Result<(Partition, TwoPhaseResult), PipelineError>) -> u64 {
    let (p, r) = run.expect("valid run");
    let mut f = Fnv::new();
    f.partition(&p);
    for v in [r.cut, r.coarse_cut, r.coarse_modules as u64] {
        f.word(v);
    }
    let fm = &r.refine;
    for v in [
        fm.cut,
        fm.internal_cut,
        fm.passes as u64,
        fm.kept_moves,
        fm.attempted_moves,
    ] {
        f.word(v);
    }
    f.passes(&fm.pass_stats);
    f.truncation(r.truncation);
    f.0
}

fn primary1() -> Hypergraph {
    mlpart_gen::by_name("primary1")
        .expect("in suite")
        .generate(1997)
}

/// ε = 0.1 with every 40th module pinned, round-robin over the `k` parts.
fn pinned(h: &Hypergraph, k: u32) -> Constraints {
    let fixed = (0..h.num_modules())
        .step_by(40)
        .enumerate()
        .map(|(i, v)| (ModuleId::new(v), i as u32 % k))
        .collect();
    Constraints::new(k, 0.1, fixed).expect("valid pins")
}

fn budget() -> BudgetMeter {
    BudgetMeter::new(&Budget {
        max_passes: Some(3),
        ..Budget::default()
    })
}

/// A request under the constrained schedule (`Some`) or the paper's.
fn req<'a>(c: Option<&'a Constraints>, meter: Option<&'a mut BudgetMeter>) -> Request<'a> {
    Request {
        constraints: c,
        meter,
        workspace: None,
    }
}

type Run = Box<dyn Fn(&Hypergraph, &mut MlRng) -> u64>;
type Case = (&'static str, Run);

/// Every fingerprinted case, in [`GOLDEN`] order.
fn cases() -> Vec<Case> {
    let with = |coarsener| MlConfig {
        coarsener,
        ..MlConfig::fm()
    };
    let net_cut = MlKwayConfig {
        kway: KwayConfig {
            gain: KwayGain::NetCut,
            ..KwayConfig::default()
        },
        ..MlKwayConfig::default()
    };
    let kway_k = |k| MlKwayConfig {
        k,
        ..MlKwayConfig::default()
    };
    let fm = FmConfig::default();
    let mc = MatchConfig::default();
    let paper = |cfg: MlConfig| -> Run {
        Box::new(move |h, rng| ml(ml_bipartition(h, &cfg, rng, req(None, None))))
    };
    let clip = MlConfig::clip();
    let quad = MlKwayConfig::default();
    vec![
        ("ml_f_r1", paper(MlConfig::fm())),
        ("ml_f_r05", paper(MlConfig::fm().with_ratio(0.5))),
        ("ml_c_r1", paper(MlConfig::clip())),
        ("ml_c_r05", paper(MlConfig::clip().with_ratio(0.5))),
        (
            "ml_tries3",
            paper(MlConfig {
                initial_tries: 3,
                ..MlConfig::clip()
            }),
        ),
        (
            "ml_coalesce",
            paper(MlConfig {
                coalesce_nets: true,
                ..MlConfig::fm()
            }),
        ),
        ("ml_random_matching", paper(with(Coarsener::RandomMatching))),
        ("ml_heavy_edge", paper(with(Coarsener::HeavyEdge))),
        (
            "kway_sod",
            Box::new(move |h, rng| kway(ml_kway(h, &quad, rng, req(None, None)))),
        ),
        (
            "kway_net_cut",
            Box::new(move |h, rng| kway(ml_kway(h, &net_cut, rng, req(None, None)))),
        ),
        (
            "recursive_depth2",
            Box::new(|h, rng| {
                let cfg = MlConfig::fm();
                recursive(recursive_ml_bisection(h, 2, &cfg, rng, req(None, None)))
            }),
        ),
        (
            "two_phase",
            Box::new(move |h, rng| two_phase(two_phase_fm(h, &fm, &mc, rng, req(None, None)))),
        ),
        (
            "pinned_bisection",
            Box::new(move |h, rng| {
                let c = pinned(h, 2);
                ml(ml_bipartition(h, &clip, rng, req(Some(&c), None)))
            }),
        ),
        (
            "pinned_kway3",
            Box::new(move |h, rng| {
                let c = pinned(h, 3);
                kway(ml_kway(h, &kway_k(3), rng, req(Some(&c), None)))
            }),
        ),
        (
            "pinned_kway4",
            Box::new(move |h, rng| {
                let c = pinned(h, 4);
                kway(ml_kway(h, &kway_k(4), rng, req(Some(&c), None)))
            }),
        ),
        (
            "pinned_recursive3",
            Box::new(move |h, rng| {
                let c = pinned(h, 3);
                recursive(recursive_ml_partition(h, &clip, rng, req(Some(&c), None)))
            }),
        ),
        (
            "pinned_recursive5",
            Box::new(move |h, rng| {
                let c = pinned(h, 5);
                recursive(recursive_ml_partition(h, &clip, rng, req(Some(&c), None)))
            }),
        ),
        (
            "pinned_recursive8",
            Box::new(move |h, rng| {
                let c = pinned(h, 8);
                recursive(recursive_ml_partition(h, &clip, rng, req(Some(&c), None)))
            }),
        ),
        (
            "pinned_two_phase",
            Box::new(move |h, rng| {
                let c = pinned(h, 2);
                two_phase(two_phase_fm(h, &fm, &mc, rng, req(Some(&c), None)))
            }),
        ),
        (
            "budget_bisection",
            Box::new(move |h, rng| {
                ml(ml_bipartition(
                    h,
                    &clip,
                    rng,
                    req(None, Some(&mut budget())),
                ))
            }),
        ),
        (
            "budget_kway",
            Box::new(move |h, rng| kway(ml_kway(h, &quad, rng, req(None, Some(&mut budget()))))),
        ),
        (
            "budget_recursive_bisection",
            Box::new(|h, rng| {
                let cfg = MlConfig::fm();
                let mut meter = budget();
                let req = req(None, Some(&mut meter));
                recursive(recursive_ml_bisection(h, 2, &cfg, rng, req))
            }),
        ),
        (
            "budget_two_phase",
            Box::new(move |h, rng| {
                two_phase(two_phase_fm(
                    h,
                    &fm,
                    &mc,
                    rng,
                    req(None, Some(&mut budget())),
                ))
            }),
        ),
        (
            "budget_pinned_bisection",
            Box::new(move |h, rng| {
                let c = pinned(h, 2);
                ml(ml_bipartition(
                    h,
                    &clip,
                    rng,
                    req(Some(&c), Some(&mut budget())),
                ))
            }),
        ),
        (
            "budget_pinned_kway4",
            Box::new(move |h, rng| {
                let c = pinned(h, 4);
                let mut meter = budget();
                let req = req(Some(&c), Some(&mut meter));
                kway(ml_kway(h, &kway_k(4), rng, req))
            }),
        ),
        (
            "budget_pinned_recursive5",
            Box::new(move |h, rng| {
                let c = pinned(h, 5);
                let mut meter = budget();
                let req = req(Some(&c), Some(&mut meter));
                recursive(recursive_ml_partition(h, &clip, rng, req))
            }),
        ),
    ]
}

fn fingerprints(h: &Hypergraph, run: &dyn Fn(&Hypergraph, &mut MlRng) -> u64) -> [u64; 3] {
    [0, 1, 2].map(|seed| run(h, &mut seeded_rng(seed)))
}

#[test]
fn pipelines_match_golden_fingerprints() {
    let h = primary1();
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN.len(), "one constant row per case");
    for ((name, run), &(golden_name, expected)) in cases.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name, "case order");
        assert_eq!(fingerprints(&h, run.as_ref()), expected, "case {name}");
    }
}

/// Prints [`GOLDEN`] as source; run ignored to see the current values.
#[test]
#[ignore]
fn print_golden_fingerprints() {
    let h = primary1();
    println!("const GOLDEN: &[(&str, [u64; 3])] = &[");
    for (name, run) in cases() {
        let [a, b, c] = fingerprints(&h, run.as_ref());
        println!("    (\"{name}\", [{a:#018x}, {b:#018x}, {c:#018x}]),");
    }
    println!("];");
}

/// Recorded from the pipelines before the V-cycle merge; never edit.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 3])] = &[
    ("ml_f_r1", [0x9aea988bb4a08268, 0xf8506c8ebdad6a0b, 0x9da3b055306ed3b8]),
    ("ml_f_r05", [0x8e3f8a61ede5b27e, 0x2077d7f180397cba, 0x0c92131e246e6798]),
    ("ml_c_r1", [0x06afd5aadc34303d, 0x63d30912abd93b7f, 0x0b08fcc875a196a7]),
    ("ml_c_r05", [0x20ff5788b0df27a6, 0xc9dcf306966ea730, 0x415b35373a58e7e4]),
    ("ml_tries3", [0xbc966cef7a5664f8, 0x65c2a12e5fa617be, 0x850695dcd37f2ebf]),
    ("ml_coalesce", [0x489b22cfc08f279c, 0x4c7d45f05418ca9a, 0x5124d88b28b7633f]),
    ("ml_random_matching", [0x56a84641beaf14d0, 0x38d73afa9389f64b, 0x01ba79d0899f779e]),
    ("ml_heavy_edge", [0xa305e3221fcb8e6a, 0x6e5841f8736522de, 0x8e68109c2ed3b7ca]),
    ("kway_sod", [0x9e70367d06fdf81c, 0xd9c1703dd8c5ad06, 0xb22b62ff6ca12146]),
    ("kway_net_cut", [0x9b1f963a96e550ca, 0xe1b7d0d03efcabca, 0x3d5ad008de141de3]),
    ("recursive_depth2", [0x62bd265b8c4bd928, 0x1add2244e53a40e2, 0x21731f7681b7a2c9]),
    ("two_phase", [0xce1ae3461a68ccaa, 0x2520b9c08ded0bd5, 0xe9c59e347b293d8b]),
    ("pinned_bisection", [0xa859c8469952bb6d, 0x9ef89939c2cf91e9, 0xc323f6889c3d5b7b]),
    ("pinned_kway3", [0x3b190964f9f006e0, 0x3eca4b37fc162af8, 0x3b39733132db892f]),
    ("pinned_kway4", [0x460c7451e71aac7b, 0x9230e6487195d84d, 0x5f3a9b422b31ca56]),
    ("pinned_recursive3", [0xf7e834ec2095480e, 0x928706baea852632, 0xad7f17e3d3f02877]),
    ("pinned_recursive5", [0x254f37758b78a74b, 0x444f24551dfbb063, 0xd706de3dda454ec1]),
    ("pinned_recursive8", [0xbdefc4069ef9021a, 0x17adc2c6706ed607, 0x2db7cc421ce53639]),
    ("pinned_two_phase", [0xefaefb8a92fdd21d, 0xf1cbea0979df904c, 0x53a45a0e77af7444]),
    ("budget_bisection", [0x855417b8b734eef1, 0x0116ee1769a0d76e, 0x36e72162c9b3272d]),
    ("budget_kway", [0x70aec8e250cbb56e, 0x65be208dd573b196, 0xf762be6e4aa60e3d]),
    ("budget_recursive_bisection", [0xa3cabf0677bc96fa, 0xab660d47e9c79c69, 0xa533a640e10cf7d2]),
    ("budget_two_phase", [0x407e1c8f2b0ed380, 0xffc0c6b871cf633a, 0x7244e6a3273df26f]),
    ("budget_pinned_bisection", [0x04758d330bfeb175, 0x95b6ca42ceb03d86, 0x6264dde65d09d6a3]),
    ("budget_pinned_kway4", [0xff9010d75809fdf6, 0x5d4f85fe80ed2cd7, 0x161e44bc769e94be]),
    ("budget_pinned_recursive5", [0x7191f05b602dee44, 0x1c8ea6a459331f6f, 0xe5d0e5c4335e79b3]),
];
