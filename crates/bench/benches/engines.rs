//! Lockstep vs sharded engine, and the spin barrier vs
//! `std::sync::Barrier` — ablation for DESIGN.md §5.4 and
//! docs/CONCURRENCY.md.

#![allow(missing_docs)] // criterion macros generate undocumented items

use std::sync::Arc;

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sskel_bench::{inputs, ring_with_chords};
use sskel_kset::KSetAgreement;
use sskel_model::sync::{ParkingBarrier, SpinBarrier, WindowedBarrier};
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
/// per shard per window.
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
        group.bench_function(BenchmarkId::new(format!("sharded{shards}_w4"), n), |b| {
            b.iter(|| {
                run_sharded(
                    &s,
                    KSetAgreement::spawn_all(n, &ins),
                    until,
                    ShardPlan::new(shards).with_window(4),
                )
                .0
                .rounds_executed
            })
        });
    }
    group.finish();
}

fn bench_barriers(c: &mut Criterion) {
    const ROUNDS: usize = 1000;
    let mut group = c.benchmark_group("barrier_1000_rounds");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(10);
    for &threads in &[2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("spin", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let barrier = Arc::new(SpinBarrier::new(threads));
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            let bar = Arc::clone(&barrier);
                            scope.spawn(move || {
                                for _ in 0..ROUNDS {
                                    bar.wait();
                                }
                            });
                        }
                    });
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("park", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let barrier = Arc::new(ParkingBarrier::new(threads));
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            let bar = Arc::clone(&barrier);
                            scope.spawn(move || {
                                for _ in 0..ROUNDS {
                                    bar.wait();
                                }
                            });
                        }
                    });
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("windowed8", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let barrier = Arc::new(WindowedBarrier::new(threads, 8));
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            let bar = Arc::clone(&barrier);
                            scope.spawn(move || {
                                for r in 1..=ROUNDS as u32 {
                                    bar.round_end(r);
                                }
                            });
                        }
                    });
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("std", threads), &threads, |b, &threads| {
            b.iter(|| {
                let barrier = Arc::new(std::sync::Barrier::new(threads));
                std::thread::scope(|scope| {
                    for _ in 0..threads {
                        let bar = Arc::clone(&barrier);
                        scope.spawn(move || {
                            for _ in 0..ROUNDS {
                                bar.wait();
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_engines,
    bench_engines_large_n,
    bench_barriers
);
criterion_main!(benches);
