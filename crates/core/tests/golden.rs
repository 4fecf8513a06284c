//! Golden fingerprints of every pipeline under both schedules.
//!
//! Each case runs one pipeline on `syn-primary1` (generated at seed 1997), or
//! on its lumpy-area copy ([`lumpy`]), for seeds `0..3` and hashes the partition together with every result field
//! that `PartialEq` compares (FNV-1a; wall-clock fields such as
//! `fill_time_ns` are left out). The constants in [`GOLDEN`] were recorded
//! before the pipelines were merged into one V-cycle: a refactor of the
//! pipelines must leave every one of them unchanged. Print the current values
//! with `cargo test -p mlpart-core --test golden -- --ignored --nocapture`.
//!
//! Under `--features obs` the same runs are traced and [`GOLDEN_TRACE`] pins
//! the FNV-1a of each trace's JSONL with timing stripped, so the span tree
//! and every counter sample (`fm_pass`, `kway_pass`, `coarsen_level`,
//! `rebalance`, ...) is held to a fixed reference too.

use mlpart_cluster::MatchConfig;
use mlpart_core::{
    ml_bipartition, ml_kway, recursive_ml_partition, two_phase_fm, Budget, BudgetMeter, Coarsener,
    Constraints, LevelStats, MlConfig, MlKwayConfig, MlKwayResult, MlResult, PipelineError,
    RecursiveResult, Request, Truncation, TwoPhaseResult,
};
use mlpart_fm::{BucketPolicy, FmConfig, PassStats};
use mlpart_hypergraph::rng::{seeded_rng, MlRng};
use mlpart_hypergraph::{metrics, Hypergraph, HypergraphBuilder, ModuleId, Partition};
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

/// `h` with lumpy module areas in `1..=20` (a fixed hash of the module
/// index), so parts fill unevenly and area checks reject many moves.
fn lumpy(h: &Hypergraph) -> Hypergraph {
    let areas = (0..h.num_modules() as u64)
        .map(|v| 1 + ((v * 2_654_435_761) >> 7) % 20)
        .collect();
    let mut b = HypergraphBuilder::new(areas);
    for e in h.net_ids() {
        let pins = h.pins(e).iter().map(|v| v.index());
        b.add_weighted_net(pins, h.net_weight(e))
            .expect("pins in range");
    }
    b.build().expect("valid netlist")
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
    let lumpy_fifo3 = MlKwayConfig {
        k: 3,
        kway: KwayConfig {
            policy: BucketPolicy::Fifo,
            ..KwayConfig::default()
        },
        ..MlKwayConfig::default()
    };
    let lumpy_net_cut8 = MlKwayConfig { k: 8, ..net_cut };
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
        (
            "lumpy_kway3_fifo",
            Box::new(move |h, rng| kway(ml_kway(&lumpy(h), &lumpy_fifo3, rng, req(None, None)))),
        ),
        (
            "lumpy_kway8_net_cut",
            Box::new(move |h, rng| kway(ml_kway(&lumpy(h), &lumpy_net_cut8, rng, req(None, None)))),
        ),
    ]
}

fn fingerprints(h: &Hypergraph, run: &dyn Fn(&Hypergraph, &mut MlRng) -> u64) -> [u64; 3] {
    [0, 1, 2].map(|seed| run(h, &mut seeded_rng(seed)))
}

/// The trace of each seed's run, as FNV-1a of its timing-free JSONL
/// (`strip_profile` also drops the `obs-alloc` telemetry).
#[cfg(feature = "obs")]
fn trace_fingerprints(h: &Hypergraph, run: &dyn Fn(&Hypergraph, &mut MlRng) -> u64) -> [u64; 3] {
    [0, 1, 2].map(|seed| {
        let (_, trace) = mlpart_obs::capture(|| run(h, &mut seeded_rng(seed)));
        let jsonl = mlpart_obs::to_jsonl(&trace);
        let mut f = Fnv::new();
        f.bytes(mlpart_obs::strip_profile(&jsonl).as_bytes());
        f.0
    })
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

#[cfg(feature = "obs")]
#[test]
fn pipelines_match_golden_trace_fingerprints() {
    let h = primary1();
    let cases = cases();
    assert_eq!(cases.len(), GOLDEN_TRACE.len(), "one constant row per case");
    let got: Vec<[u64; 3]> = cases
        .iter()
        .map(|(_, run)| trace_fingerprints(&h, run.as_ref()))
        .collect();
    for (((name, _), &(golden_name, expected)), got) in cases.iter().zip(GOLDEN_TRACE).zip(got) {
        assert_eq!(*name, golden_name, "case order");
        assert_eq!(got, expected, "trace of case {name}");
    }
}

/// Random selection has no golden fingerprint (its draw sequence is free to
/// change); a fixed-seed run must still be feasible, report the cut it
/// leaves and keep every pin in place.
#[test]
fn random_kway_is_feasible_and_honest() {
    let h = lumpy(&primary1());
    let c = pinned(&h, 4);
    let cfg = MlKwayConfig {
        kway: KwayConfig {
            policy: BucketPolicy::Random,
            ..KwayConfig::default()
        },
        ..MlKwayConfig::default()
    };
    let (p, r) = ml_kway(&h, &cfg, &mut seeded_rng(7), req(Some(&c), None)).expect("valid run");
    assert!(
        c.bounds(&h).is_partition_feasible(&p),
        "{:?}",
        p.part_areas()
    );
    assert_eq!(r.cut, metrics::cut(&h, &p));
    for &(v, part) in c.fixed() {
        assert_eq!(p.part(v), part, "pin {v:?} moved");
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
    #[cfg(feature = "obs")]
    {
        println!("const GOLDEN_TRACE: &[(&str, [u64; 3])] = &[");
        for (name, run) in cases() {
            let [a, b, c] = trace_fingerprints(&h, run.as_ref());
            println!("    (\"{name}\", [{a:#018x}, {b:#018x}, {c:#018x}]),");
        }
        println!("];");
    }
}

/// Recorded from the pipelines before the V-cycle merge (the `lumpy_*` rows:
/// before the k-way engine's destination gate and fused gain pass); never
/// edit.
#[rustfmt::skip]
const GOLDEN: &[(&str, [u64; 3])] = &[
    ("ml_f_r1", [0x9aea988bb4a08268, 0xf8506c8ebdad6a0b, 0x9da3b055306ed3b8]),
    ("ml_f_r05", [0x8e3f8a61ede5b27e, 0x2077d7f180397cba, 0x0c92131e246e6798]),
    ("ml_c_r1", [0x06afd5aadc34303d, 0x63d30912abd93b7f, 0x0b08fcc875a196a7]),
    ("ml_c_r05", [0x20ff5788b0df27a6, 0xc9dcf306966ea730, 0x415b35373a58e7e4]),
    ("ml_random_matching", [0x56a84641beaf14d0, 0x38d73afa9389f64b, 0x01ba79d0899f779e]),
    ("ml_heavy_edge", [0xa305e3221fcb8e6a, 0x6e5841f8736522de, 0x8e68109c2ed3b7ca]),
    ("kway_sod", [0x9e70367d06fdf81c, 0xd9c1703dd8c5ad06, 0xb22b62ff6ca12146]),
    ("kway_net_cut", [0x9b1f963a96e550ca, 0xe1b7d0d03efcabca, 0x3d5ad008de141de3]),
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
    ("budget_two_phase", [0x407e1c8f2b0ed380, 0xffc0c6b871cf633a, 0x7244e6a3273df26f]),
    ("budget_pinned_bisection", [0x04758d330bfeb175, 0x95b6ca42ceb03d86, 0x6264dde65d09d6a3]),
    ("budget_pinned_kway4", [0xff9010d75809fdf6, 0x5d4f85fe80ed2cd7, 0x161e44bc769e94be]),
    ("budget_pinned_recursive5", [0x7191f05b602dee44, 0x1c8ea6a459331f6f, 0xe5d0e5c4335e79b3]),
    ("lumpy_kway3_fifo", [0x28fdb05e513fa852, 0x6774d4412a0bfb06, 0x3d5947445fcf32e0]),
    ("lumpy_kway8_net_cut", [0x0f98ff299eccf5f3, 0xe1dda37764c9b9e6, 0x76184f2f1ed14b6c]),
];

/// Recorded from the traced pipelines after `match`, `induce`, `project` and
/// `rebuild` spans joined the trace; with those four span names filtered out
/// each trace hashes to the constants recorded before the hook call sites
/// moved to the one-line macros. The rows that run 2-way FM were re-pinned
/// when the `fm_pass` counter dropped an arg that was always 0 (the undo
/// count of a deleted option): the earlier traces with that arg removed hash
/// to them. The rows that run the V-cycle were re-pinned when the
/// coarsest-level try loop was deleted: the earlier traces with its `try`
/// span, the `initial` span's `tries` arg and the `initial_try` and
/// `initial_winner` counters removed hash to them. Never edit.
#[cfg(feature = "obs")]
#[rustfmt::skip]
const GOLDEN_TRACE: &[(&str, [u64; 3])] = &[
    ("ml_f_r1", [0x4fc7750c9c5a99b3, 0xbd7fe5a530f3ecc1, 0x14bded884b41b950]),
    ("ml_f_r05", [0x8809982526a0a1d4, 0xda0ac93104230dec, 0x2a613c15c48339ab]),
    ("ml_c_r1", [0xffe441c6855a26b0, 0xbf8d46b2850a2a59, 0x14b91a3dc6802f2f]),
    ("ml_c_r05", [0x28c674bc8f8b385c, 0x221164caded4a335, 0xa6c0a43558fae19e]),
    ("ml_random_matching", [0x277f394b5f772aa0, 0x00a1be18d56cbd82, 0x15e1c99f75a817b7]),
    ("ml_heavy_edge", [0x376acb2dcec97fe2, 0x710f6a66a37f571e, 0xf2b871a2f82a813c]),
    ("kway_sod", [0x3d84b8df80e0ca87, 0xda8ab2d618cb462f, 0xd155252e90052a03]),
    ("kway_net_cut", [0xe148f3477166c09d, 0xf62fe72ff74ad4d1, 0xdff3ffb43907b48a]),
    ("two_phase", [0x874cb66301ad1c5d, 0xc54b46486907cc8b, 0x84eaca017a4ffd52]),
    ("pinned_bisection", [0x802f3c1b49a6a4ee, 0x0e0fb737d2161074, 0x0feed6df1e9b09a5]),
    ("pinned_kway3", [0x1d1b1bbbdebcea61, 0xbc71af8bc03d61ec, 0xe2975daa705ab77c]),
    ("pinned_kway4", [0xbd2c4f497e27bfe8, 0xc26b0bdfa5691a6d, 0xf6dfcb78b333ca41]),
    ("pinned_recursive3", [0x2de6cac879419017, 0xd7d152f2fdbf9f6a, 0x7e1a88453e2353e7]),
    ("pinned_recursive5", [0xe26432f1bf2c6c2a, 0x395aa11385a3b656, 0xe99c359a624e4d4e]),
    ("pinned_recursive8", [0x2f409bb8faf86197, 0x592953adfc14217c, 0x2e0d64de7c2449af]),
    ("pinned_two_phase", [0x508411ca67e79249, 0xc0782d99994bb597, 0x09e7aa595e08b0ad]),
    ("budget_bisection", [0xc010407e3bce54e8, 0x343e9762d283429a, 0xc58196fac2f14b1a]),
    ("budget_kway", [0xd9f6d7eb8234e4b2, 0x34b37962a519272e, 0x3cd7543b7a0089f0]),
    ("budget_two_phase", [0x4727ca07d8a9da21, 0x025c504fc385970e, 0xa50b9311887b4dcb]),
    ("budget_pinned_bisection", [0xf6e1d84486338188, 0x5955826fa2461f9f, 0xa04aff581d7ce4d6]),
    ("budget_pinned_kway4", [0x52dbfbb02425a6c5, 0x2f010284f0e29401, 0xdaaf2c4fa4bc15d5]),
    ("budget_pinned_recursive5", [0x37ab4c647ab29912, 0xc3127ad81a87361e, 0xab686ddca685d590]),
    ("lumpy_kway3_fifo", [0x589cdb94f2139dbe, 0x34f68cf12baad9ba, 0x526ba3639b5656ff]),
    ("lumpy_kway8_net_cut", [0xedf3ca03646240e8, 0xacd3ecc09eef9ca9, 0xe6b8f95f1f52e3f4]),
];
