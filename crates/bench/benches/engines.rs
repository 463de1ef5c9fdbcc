//! Lockstep vs sharded engine — see docs/CONCURRENCY.md.

#![allow(missing_docs)] // criterion macros generate undocumented items

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sskel_bench::{inputs, ring_with_chords};
use sskel_kset::KSetAgreement;
use sskel_model::{run_lockstep, run_sharded, FixedSchedule, RunUntil, ShardPlan};

fn bench_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &n in &[4usize, 8, 16] {
        let s = FixedSchedule::synchronous(n);
        let ins = inputs(n);
        let until = RunUntil::AllDecided {
            max_rounds: 2 * n as u32 + 2,
        };
        group.bench_with_input(BenchmarkId::new("lockstep", n), &n, |b, _| {
            b.iter(|| {
                run_lockstep(&s, KSetAgreement::spawn_all(n, &ins), until)
                    .0
                    .rounds_executed
            })
        });
        group.bench_with_input(BenchmarkId::new("sharded4", n), &n, |b, _| {
            b.iter(|| {
                run_sharded(
                    &s,
                    KSetAgreement::spawn_all(n, &ins),
                    until,
                    ShardPlan::new(4),
                )
                .0
                .rounds_executed
            })
        });
    }
    group.finish();
}

/// Fixed-horizon runs at large n over a sparse skeleton: the regime the
/// sharded engine exists for. One thread per process would pay a context
/// switch per process per round; a coarse shard plan pays at most one park
/// per shard per round.
fn bench_engines_large_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("engines_large_n");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);
    let n = 256usize;
    let s = FixedSchedule::new(ring_with_chords(n, 8));
    let ins = inputs(n);
    let until = RunUntil::Rounds(6);
    for &shards in &[1usize, 4] {
        group.bench_function(BenchmarkId::new(format!("sharded{shards}"), n), |b| {
            b.iter(|| {
                run_sharded(
                    &s,
                    KSetAgreement::spawn_all(n, &ins),
                    until,
                    ShardPlan::new(shards),
                )
                .0
                .rounds_executed
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engines, bench_engines_large_n);
criterion_main!(benches);
