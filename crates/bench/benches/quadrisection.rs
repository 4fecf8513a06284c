//! Criterion benches for 4-way partitioning (paper Table IX): multilevel
//! quadrisection, the flat k-way engine, and the GORDIAN-analogue placer.

use criterion::{criterion_group, criterion_main, Criterion};
use mlpart_bench::algos;
use mlpart_gen::by_name;
use mlpart_hypergraph::rng::seeded_rng;
use mlpart_place::{gordian_quadrisection, PlacerConfig};

fn bench_table9_quadrisection(c: &mut Criterion) {
    let (h, pads) = by_name("balu").expect("in suite").generate_with_pads(1997);
    let mut group = c.benchmark_group("table9_quadrisection");
    group.sample_size(10);
    group.bench_function("ml4", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            algos::ml4(&h, &mut rng)
        });
    });
    group.bench_function("fm4", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = seeded_rng(seed);
            algos::fm4(&h, &mut rng)
        });
    });
    group.bench_function("gordian", |b| {
        b.iter(|| gordian_quadrisection(&h, &pads, &PlacerConfig::default()).0)
    });
    group.bench_function("gordian_l", |b| {
        b.iter(|| gordian_quadrisection(&h, &pads, &PlacerConfig::gordian_l()).0)
    });
    group.finish();
}

criterion_group!(benches, bench_table9_quadrisection);
criterion_main!(benches);
