//! `Psrcs(k)` checking: literal subset enumeration vs the
//! independence-number formulation (`min_k = α(H)`, the E6 binary
//! `exp_min_k`).

#![allow(missing_docs)] // criterion macros generate undocumented items

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use sskel_graph::ProcessId;
use sskel_predicates::{planted_psrcs_skeleton, psrcs};

fn pt_sets(skel: &sskel_graph::Digraph) -> Vec<sskel_graph::ProcessSet> {
    (0..skel.n())
        .map(|p| skel.in_neighbors(ProcessId::from_usize(p)).clone())
        .collect()
}

fn bench_checkers(c: &mut Criterion) {
    let mut group = c.benchmark_group("psrcs_check");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for &(n, k) in &[(12usize, 2usize), (12, 3), (16, 2), (16, 3), (20, 2)] {
        let mut rng = StdRng::seed_from_u64(42);
        let (skel, _) = planted_psrcs_skeleton(&mut rng, n, k, 0.08);
        let pt = pt_sets(&skel);
        let id = format!("n{n}_k{k}");
        group.bench_with_input(BenchmarkId::new("naive_subsets", &id), &k, |b, &k| {
            b.iter(|| std::hint::black_box(psrcs::holds_naive(&pt, k)))
        });
        group.bench_with_input(BenchmarkId::new("alpha_mis", &id), &k, |b, &k| {
            b.iter(|| std::hint::black_box(psrcs::holds(&pt, k)))
        });
    }
    group.finish();
}

fn bench_min_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_k");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    for &n in &[16usize, 32, 64, 96] {
        let mut rng = StdRng::seed_from_u64(7);
        let (skel, _) = planted_psrcs_skeleton(&mut rng, n, (n / 8).max(1), 0.05);
        let pt = pt_sets(&skel);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| std::hint::black_box(psrcs::min_k(&pt)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_checkers, bench_min_k);
criterion_main!(benches);
