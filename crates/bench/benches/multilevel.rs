//! Criterion benches for the multilevel algorithm (paper Tables IV-VI and
//! Figure 4): full ML runs at each matching ratio, plus the coarsening phase
//! in isolation — the CPU columns of those tables come from these paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlpart_bench::algos;
use mlpart_core::{Hierarchy, MlConfig};
use mlpart_fm::{refine, refine_in, FmConfig, RefineWorkspace};
use mlpart_gen::by_name;
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_hypergraph::Partition;

fn bench_table4_clip_vs_ml(c: &mut Criterion) {
    let h = by_name("balu").expect("in suite").generate(1997);
    let mut group = c.benchmark_group("table4_clip_vs_ml");
    group.sample_size(10);
    group.bench_function("clip", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            algos::clip(&h, &mut rng)
        });
    });
    group.bench_function("ml_f", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            algos::ml_f(&h, 1.0, &mut rng)
        });
    });
    group.bench_function("ml_c", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            algos::ml_c(&h, 1.0, &mut rng)
        });
    });
    group.finish();
}

fn bench_tables56_matching_ratio(c: &mut Criterion) {
    let h = by_name("primary1").expect("in suite").generate(1997);
    let mut group = c.benchmark_group("tables56_ml_c_by_ratio");
    group.sample_size(10);
    for ratio in [1.0, 0.5, 0.33] {
        group.bench_with_input(BenchmarkId::from_parameter(ratio), &ratio, |b, &r| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = seeded_rng(seed);
                algos::ml_c(&h, r, &mut rng)
            });
        });
    }
    group.finish();
}

fn bench_coarsening_phase(c: &mut Criterion) {
    let h = by_name("primary2").expect("in suite").generate(1997);
    let mut group = c.benchmark_group("coarsening_phase");
    group.sample_size(10);
    for ratio in [1.0, 0.5] {
        group.bench_with_input(BenchmarkId::from_parameter(ratio), &ratio, |b, &r| {
            let cfg = MlConfig::default().with_ratio(r);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut rng = seeded_rng(seed);
                Hierarchy::coarsen(&h, &cfg, &[], &mut rng)
                    .expect("coarsens")
                    .num_levels()
            });
        });
    }
    group.finish();
}

fn bench_refine_workspace(c: &mut Criterion) {
    // The allocation-reuse effect of `RefineWorkspace` on the uncoarsening
    // hot path: a multilevel run refines once per level, walking netlists
    // from ~T modules at the coarsest level up to |V₀|, so model it as that
    // exact burst over a real hierarchy. `fresh_per_call` re-allocates the
    // gain/bucket machinery for every call (the pre-workspace behavior);
    // `reused_workspace` binds one workspace repeatedly. Same seeds,
    // bit-identical cuts — only allocation differs; the coarse (small)
    // levels are where binding fresh state costs a visible fraction.
    let h = by_name("primary1").expect("in suite").generate(1997);
    let ml_cfg = MlConfig::default().with_ratio(0.5);
    let mut rng = seeded_rng(7);
    let hier = Hierarchy::coarsen(&h, &ml_cfg, &[], &mut rng).expect("coarsens");
    // Coarsest → finest, the order the V-cycle refines them.
    let levels: Vec<&mlpart_hypergraph::Hypergraph> = (1..=hier.num_levels())
        .rev()
        .map(|i| hier.level(i))
        .chain(std::iter::once(&h))
        .collect();
    let cfg = FmConfig::default();
    const V_CYCLES: usize = 4;
    let mut group = c.benchmark_group("refine_workspace");
    group.sample_size(10);
    group.bench_function("fresh_per_call", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            let mut total = 0u64;
            for _ in 0..V_CYCLES {
                for lh in &levels {
                    let mut p = Partition::random(lh, 2, &mut rng);
                    total += refine(lh, &mut p, &cfg, &mut rng).cut;
                }
            }
            total
        });
    });
    group.bench_function("reused_workspace", |b| {
        let mut ws = RefineWorkspace::new();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            let mut total = 0u64;
            for _ in 0..V_CYCLES {
                for lh in &levels {
                    let mut p = Partition::random(lh, 2, &mut rng);
                    total += refine_in(lh, &mut p, &cfg, &mut rng, &mut ws).cut;
                }
            }
            total
        });
    });
    // The same comparison isolated where it matters most: a burst of calls
    // on the coarsest netlist (~threshold modules), where binding fresh
    // scratch state is a visible fraction of each call.
    let coarsest = levels[0];
    const COARSE_CALLS: usize = 256;
    group.bench_function("coarse_fresh_per_call", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            let mut total = 0u64;
            for _ in 0..COARSE_CALLS {
                let mut p = Partition::random(coarsest, 2, &mut rng);
                total += refine(coarsest, &mut p, &cfg, &mut rng).cut;
            }
            total
        });
    });
    group.bench_function("coarse_reused_workspace", |b| {
        let mut ws = RefineWorkspace::new();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            let mut total = 0u64;
            for _ in 0..COARSE_CALLS {
                let mut p = Partition::random(coarsest, 2, &mut rng);
                total += refine_in(coarsest, &mut p, &cfg, &mut rng, &mut ws).cut;
            }
            total
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_table4_clip_vs_ml,
    bench_tables56_matching_ratio,
    bench_coarsening_phase,
    bench_refine_workspace
);
criterion_main!(benches);
