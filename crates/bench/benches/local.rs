//! Criterion bench: the LOCAL tester and its substrates (E7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dut_distributions::DiscreteDistribution;
use dut_local::LocalUniformityTester;
use dut_netsim::algorithms::mis::luby_mis;
use dut_netsim::power::power_graph;
use dut_netsim::topology;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_substrates(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_substrates");
    group.sample_size(10);
    let g = topology::grid(40, 40);
    for &r in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("power_graph", r), &r, |b, _| {
            b.iter(|| black_box(power_graph(&g, r)))
        });
    }
    let gr = power_graph(&g, 4);
    group.bench_function("luby_mis_on_g4", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(luby_mis(&gr, &mut rng)))
    });
    group.finish();
}

fn bench_full_local(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_tester");
    group.sample_size(10);
    let n = 1 << 16;
    let k = 4096;
    let tester = LocalUniformityTester::plan(n, k, 0.75, 1.0 / 3.0).expect("plannable");
    let uniform = DiscreteDistribution::uniform(n);
    let g = topology::grid(64, 64);
    group.bench_function("grid_64x64", |b| {
        let mut rng = StdRng::seed_from_u64(8);
        b.iter(|| black_box(tester.run(&g, &uniform, &mut rng).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_substrates, bench_full_local);
criterion_main!(benches);
