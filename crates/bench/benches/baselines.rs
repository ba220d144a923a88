//! Benchmark: the comparison baselines — BE08 LOCAL peeling and the direct
//! LOCAL→MPC simulation — on the same workload as the `engine_orient` legs
//! of the `engine` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dgo_graph::generators::gnm;
use dgo_local::{be08_peeling, direct_peeling_mpc};
use dgo_mpc::ClusterConfig;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    for &n in &[1024usize, 4096, 16384] {
        let g = gnm(n, 4 * n, 9);
        group.bench_with_input(BenchmarkId::new("be08_local", n), &g, |b, g| {
            b.iter(|| be08_peeling(g, 8, 0.5, 0))
        });
        group.bench_with_input(BenchmarkId::new("direct_mpc", n), &g, |b, g| {
            b.iter(|| {
                let cfg = ClusterConfig::for_graph(g.num_vertices(), g.num_edges(), 0.5);
                direct_peeling_mpc(g, 8, 0.5, cfg).expect("baseline succeeds")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
