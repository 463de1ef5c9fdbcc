//! Tarjan vs Kosaraju vs the two-BFS strong-connectivity shortcut —
//! the per-round line-28 test (`docs/ARCHITECTURE.md`, "Algorithm 1, line
//! by line").

#![allow(missing_docs)] // criterion macros generate undocumented items

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sskel_graph::{is_strongly_connected, kosaraju, rand_graph, tarjan, ProcessSet};

fn bench_scc(c: &mut Criterion) {
    let mut group = c.benchmark_group("scc");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for &n in &[16usize, 64, 128, 256] {
        let mut rng = StdRng::seed_from_u64(7);
        // ~4 out-edges per node: the interesting sparse regime
        let g = rand_graph::gnp(&mut rng, n, 4.0 / n as f64, true);
        let full = ProcessSet::full(n);
        group.bench_with_input(BenchmarkId::new("tarjan", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(tarjan(&g, &full).count()))
        });
        group.bench_with_input(BenchmarkId::new("kosaraju", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(kosaraju(&g, &full).count()))
        });
        group.bench_with_input(BenchmarkId::new("two_bfs_sc_test", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(is_strongly_connected(&g, &full)))
        });
    }
    group.finish();
}

fn bench_scc_on_sc_graph(c: &mut Criterion) {
    // strongly connected inputs: the common case for deciding processes
    let mut group = c.benchmark_group("scc_on_strongly_connected");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for &n in &[16usize, 64, 256] {
        let mut rng = StdRng::seed_from_u64(9);
        let g = rand_graph::random_strongly_connected(&mut rng, n, 2.0 / n as f64);
        let full = ProcessSet::full(n);
        group.bench_with_input(BenchmarkId::new("tarjan", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(tarjan(&g, &full).count()))
        });
        group.bench_with_input(BenchmarkId::new("two_bfs_sc_test", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(is_strongly_connected(&g, &full)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scc, bench_scc_on_sc_graph);
criterion_main!(benches);
