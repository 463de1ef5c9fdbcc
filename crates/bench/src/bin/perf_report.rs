//! Hot-path performance record: runs the `full_run`, `approx_update` and
//! `engines` workloads with a plain wall-clock harness and writes
//! `BENCH_hotpath.json` at the repository root, seeding the perf
//! trajectory that future PRs extend.
//!
//! ```text
//! cargo run --release -p sskel-bench --bin perf_report
//! ```
//!
//! `--smoke` runs every workload in 1-sample mode with minimal warm-up and
//! writes the report next to the build artifacts instead of the curated
//! repository file — CI runs this so regeneration of `BENCH_hotpath.json`
//! cannot silently bit-rot, without clobbering the recorded medians:
//!
//! ```text
//! cargo run --release -p sskel-bench --bin perf_report -- --smoke
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `--smoke`: 1-sample mode exercising every workload and the JSON writer.
static SMOKE: AtomicBool = AtomicBool::new(false);

use sskel_bench::{inputs, ring_skeleton, ring_with_chords, std_schedule, SEED};
use sskel_graph::{Digraph, LabeledDigraph, ProcessId, ProcessSet, Round};
use sskel_kset::{lemma11_bound, AgreementPool, DecisionRule, KSetAgreement, SkeletonEstimator};
use sskel_model::engine::{resume_from_journal, run_lockstep_journaled};
use sskel_model::{
    run_lockstep, run_lockstep_codec, run_multiplex_codec, run_sharded, run_sharded_codec,
    run_socket, ChurnAdversary, CorruptionOverlay, FixedSchedule, MultiplexPlan, MuxInstance,
    NoFaults, RotatingRootAdversary, RunMeta, RunUntil, Schedule, ShardPlan, SocketPlan,
    StableRootAdversary,
};

struct Record {
    id: String,
    median_ns: f64,
    min_ns: f64,
    samples: usize,
}

/// Times `f` with a short calibrated warm-up, then `samples` batches.
/// In `--smoke` mode: one sample, one iteration, near-zero warm-up — the
/// numbers are meaningless but every workload and the report writer run.
fn measure<O>(id: &str, mut f: impl FnMut() -> O) -> Record {
    let smoke = SMOKE.load(Ordering::Relaxed);
    let warmup = if smoke {
        Duration::ZERO
    } else {
        Duration::from_millis(200)
    };
    let budget = Duration::from_millis(if smoke { 1 } else { 800 });
    let samples = if smoke { 1 } else { 15 };

    let warm_start = Instant::now();
    let mut iters: u64 = 0;
    loop {
        std::hint::black_box(f());
        iters += 1;
        if warm_start.elapsed() >= warmup {
            break;
        }
    }
    let per_iter = (warm_start.elapsed().as_nanos() as u64 / iters.max(1)).max(1);
    let batch = ((budget.as_nanos() as u64 / samples as u64) / per_iter).clamp(1, 1_000_000);

    let mut per_iter_ns: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).expect("time is finite"));
    let rec = Record {
        id: id.to_owned(),
        median_ns: per_iter_ns[per_iter_ns.len() / 2],
        min_ns: per_iter_ns[0],
        samples,
    };
    eprintln!("{:<40} median {:>12.1} ns", rec.id, rec.median_ns);
    rec
}

fn full_run_workloads(out: &mut Vec<Record>) {
    for &n in &[8usize, 16, 32] {
        let ins = inputs(n);
        let shapes: Vec<(&str, Box<dyn Schedule>)> = vec![
            ("synchronous", Box::new(FixedSchedule::synchronous(n))),
            ("ring", Box::new(FixedSchedule::new(ring_skeleton(n)))),
            ("planted_noisy", Box::new(std_schedule(SEED, n, 3.min(n)))),
        ];
        for (shape, s) in shapes {
            let until = RunUntil::AllDecided {
                max_rounds: lemma11_bound(s.as_ref()) + 2,
            };
            out.push(measure(&format!("full_run/{shape}/{n}"), || {
                let algs = KSetAgreement::spawn_all(n, &ins);
                run_lockstep(s.as_ref(), algs, until).0.rounds_executed
            }));
        }
    }
}

/// Steady-state estimators over `skeleton`, plus their broadcast handles.
fn steady_state(skeleton: &Digraph, rounds: Round) -> Vec<SkeletonEstimator> {
    let n = skeleton.n();
    let mut ests: Vec<SkeletonEstimator> = (0..n)
        .map(|i| SkeletonEstimator::new(n, ProcessId::from_usize(i)))
        .collect();
    let mut msgs: Vec<std::sync::Arc<LabeledDigraph>> = Vec::with_capacity(n);
    for r in 1..=rounds {
        msgs.clear();
        msgs.extend(ests.iter().map(|e| e.graph_arc()));
        for (i, est) in ests.iter_mut().enumerate() {
            let pt = skeleton.in_neighbors(ProcessId::from_usize(i));
            est.update(
                r,
                pt,
                (0..n)
                    .filter(|&q| pt.contains(ProcessId::from_usize(q)))
                    .map(|q| (ProcessId::from_usize(q), &*msgs[q])),
            );
        }
    }
    ests
}

fn approx_update_workloads(out: &mut Vec<Record>) {
    for &n in &[8usize, 16, 32, 64] {
        for (shape, skel) in [
            ("dense", Digraph::complete(n)),
            ("sparse", ring_skeleton(n)),
        ] {
            let mut ests = steady_state(&skel, 2 * n as Round);
            let mut msgs: Vec<std::sync::Arc<LabeledDigraph>> = Vec::with_capacity(n);
            // Precomputed outside the measured closure: the workload must
            // time only the zero-allocation update path.
            let pt_of: Vec<ProcessSet> = (0..n)
                .map(|i| skel.in_neighbors(ProcessId::from_usize(i)).clone())
                .collect();
            let mut r = 2 * n as Round;
            out.push(measure(&format!("approx_update/{shape}/{n}"), || {
                r += 1;
                msgs.clear();
                msgs.extend(ests.iter().map(|e| e.graph_arc()));
                for (i, est) in ests.iter_mut().enumerate() {
                    let pt = &pt_of[i];
                    est.update(
                        r,
                        pt,
                        (0..n)
                            .filter(|&q| pt.contains(ProcessId::from_usize(q)))
                            .map(|q| (ProcessId::from_usize(q), &*msgs[q])),
                    );
                }
                ests[0].graph().edge_count()
            }));
        }
    }
}

fn engines_workloads(out: &mut Vec<Record>) {
    for &n in &[8usize, 16] {
        let s = FixedSchedule::synchronous(n);
        let ins = inputs(n);
        let until = RunUntil::AllDecided {
            max_rounds: lemma11_bound(&s) + 2,
        };
        out.push(measure(&format!("engines/lockstep/{n}"), || {
            run_lockstep(&s, KSetAgreement::spawn_all(n, &ins), until)
                .0
                .rounds_executed
        }));
        out.push(measure(&format!("engines/sharded/{n}"), || {
            run_sharded(
                &s,
                KSetAgreement::spawn_all(n, &ins),
                until,
                ShardPlan::new(4),
            )
            .0
            .rounds_executed
        }));
    }

    // Large-n fixed-horizon workload over a sparse skeleton: the regime
    // sharding exists for. One thread per process would pay ~n context
    // switches per round on a single core; `sharded` runs the same rounds
    // on 4 threads with one barrier phase per round.
    let n = 256usize;
    let s = FixedSchedule::new(ring_with_chords(n, 8));
    let ins = inputs(n);
    let until = RunUntil::Rounds(6);
    out.push(measure("engines/sharded/256x6r_s4", || {
        run_sharded(
            &s,
            KSetAgreement::spawn_all(n, &ins),
            until,
            ShardPlan::new(4),
        )
        .0
        .rounds_executed
    }));
}

/// The socket engine against its in-process siblings: the same sealed
/// frames, but every inter-shard hop crosses a real loopback `TcpStream`
/// — syscalls, kernel buffers and stream reassembly included. Together
/// with the `lockstep`/`sharded` and `*_codec` rows this completes the
/// Arc → codec → socket cost ladder recorded in `docs/BENCHMARKS.md`,
/// and is where the u16-delta codec's halved `wire_bytes` finally buys
/// wall-clock instead of just smaller accounting. Rows are skipped (with
/// a note) when the sandbox cannot bind loopback sockets.
fn socket_workloads(out: &mut Vec<Record>) {
    if std::net::TcpListener::bind(("127.0.0.1", 0)).is_err() {
        eprintln!("engines/socket/*: skipped (loopback unavailable)");
        return;
    }
    for &n in &[16usize, 64] {
        let s = FixedSchedule::synchronous(n);
        let ins = inputs(n);
        // n = 16 runs to decision like its lockstep/sharded
        // siblings; n = 64 is horizon-bounded — a full synchronous
        // decision run at that size pushes gigabytes of dense
        // approximation frames through loopback per iteration, which
        // measures patience, not the transport.
        let until = if n <= 16 {
            RunUntil::AllDecided {
                max_rounds: lemma11_bound(&s) + 2,
            }
        } else {
            RunUntil::Rounds(6)
        };
        out.push(measure(&format!("engines/socket/{n}"), || {
            run_socket(
                &s,
                KSetAgreement::spawn_all(n, &ins),
                until,
                SocketPlan::new(4),
            )
            .expect("socket run")
            .0
            .rounds_executed
        }));
    }

    // the large-n fixed-horizon workload of `engines/sharded/256x6r_s4`,
    // now with the inter-shard frames on the wire
    let n = 256usize;
    let s = FixedSchedule::new(ring_with_chords(n, 8));
    let ins = inputs(n);
    let until = RunUntil::Rounds(6);
    out.push(measure("engines/socket/256x6r", || {
        run_socket(
            &s,
            KSetAgreement::spawn_all(n, &ins),
            until,
            SocketPlan::new(4),
        )
        .expect("socket run")
        .0
        .rounds_executed
    }));
}

/// Codec-boundary transport against the `Arc` hand-off it replaces: the
/// same workloads with every payload running `encode → frame → decode`
/// through an inert fault plane. The gap is the real serialization cost
/// the `Arc` path hides (recorded in `docs/BENCHMARKS.md`), and the
/// corruption-rate ablation tracks what the seeded tamper path adds on
/// top.
fn codec_workloads(out: &mut Vec<Record>) {
    let n = 16usize;
    let s = FixedSchedule::synchronous(n);
    let ins = inputs(n);
    let until = RunUntil::AllDecided {
        max_rounds: lemma11_bound(&s) + 2,
    };
    out.push(measure(&format!("engines/lockstep_codec/{n}"), || {
        run_lockstep_codec(&s, KSetAgreement::spawn_all(n, &ins), until, &NoFaults)
            .0
            .rounds_executed
    }));

    // the bandwidth-bound dense round at scale: the regime where framing
    // every payload hurts the most
    let n = 256usize;
    let s = FixedSchedule::new(ring_with_chords(n, 8));
    let ins = inputs(n);
    let until = RunUntil::Rounds(6);
    out.push(measure("engines/sharded_codec/256x6r_s4", || {
        run_sharded_codec(
            &s,
            KSetAgreement::spawn_all(n, &ins),
            until,
            ShardPlan::new(4),
            &NoFaults,
        )
        .0
        .rounds_executed
    }));

    // corruption-rate ablation: seeded tampering (and the quarantine
    // bookkeeping it triggers) at increasing rates, same workload
    let n = 32usize;
    let s = FixedSchedule::synchronous(n);
    let ins = inputs(n);
    let until = RunUntil::Rounds(12);
    for rate in [0.0, 0.1, 0.5] {
        let plane = CorruptionOverlay::new(SEED, rate);
        out.push(measure(
            &format!("engines/lockstep_codec_corrupt/{n}x12r_r{rate}"),
            || {
                run_lockstep_codec(&s, KSetAgreement::spawn_all(n, &ins), until, &plane)
                    .0
                    .rounds_executed
            },
        ));
    }
}

/// Agreement-as-a-service throughput: `M` concurrent instances on one
/// multiplexed worker pool vs. the same `M` runs executed solo
/// back-to-back. The service metric is **decisions per second** —
/// `n · M / median_ns` for the `decisions_per_sec` rows; the
/// `sequential_solo` row is the same quantity without the per-tick wire
/// batching, shared schedule synthesis or pooled estimator buffers, so
/// the gap is exactly what multiplexing amortizes (methodology in
/// `docs/BENCHMARKS.md`). All instances share one schedule object (the
/// co-scheduled regime the synthesis cache exists for) and draw their
/// algorithm instances from an [`AgreementPool`], so steady-state
/// iterations recycle graph buffers exactly as a long-lived service
/// would.
fn multiplex_workloads(out: &mut Vec<Record>) {
    let n = 16usize;
    let s = FixedSchedule::synchronous(n);
    let ins = inputs(n);
    let until = RunUntil::AllDecided {
        max_rounds: lemma11_bound(&s) + 2,
    };
    let mut pool = AgreementPool::new();
    for &m in &[1usize, 8, 64] {
        out.push(measure(
            &format!("multiplex/decisions_per_sec/{n}x{m}"),
            || {
                let instances: Vec<MuxInstance<'_, KSetAgreement>> = (0..m)
                    .map(|_| {
                        let algs = pool
                            .spawn_all(n, &ins, DecisionRule::Paper)
                            .expect("pool spawn");
                        MuxInstance::new(&s, algs, until)
                    })
                    .collect();
                let results = run_multiplex_codec(instances, MultiplexPlan::new(4), &NoFaults);
                let mut decided = 0usize;
                for (trace, algs) in results {
                    decided += trace.decisions.iter().flatten().count();
                    pool.retire(algs);
                }
                decided
            },
        ));
    }

    // the no-multiplexing baseline: the same 64 runs, solo and sequential
    let m = 64usize;
    out.push(measure(
        &format!("multiplex/sequential_solo/{n}x{m}"),
        || {
            let mut decided = 0usize;
            for _ in 0..m {
                let algs = pool
                    .spawn_all(n, &ins, DecisionRule::Paper)
                    .expect("pool spawn");
                let (trace, algs) =
                    run_sharded_codec(&s, algs, until, ShardPlan::new(4), &NoFaults);
                decided += trace.decisions.iter().flatten().count();
                pool.retire(algs);
            }
            decided
        },
    ));
}

/// Hostile-schedule workloads: full runs to decision under the seedable
/// message adversaries (see `sskel-model`'s `adversary` module). These
/// track the cost of the conformance story — per-round graph synthesis is
/// part of the measured loop, exactly as the conformance suite pays it,
/// and the runs use the same `FreshnessGuarded` decision rule (the
/// literal paper rule is unsound under these adversaries' transient early
/// edges, so it is also not the configuration worth watching).
fn adversary_workloads(out: &mut Vec<Record>) {
    let n = 32usize;
    let ins = inputs(n);
    let spawn = |ins: &[sskel_model::Value]| {
        KSetAgreement::spawn_all_with(n, ins, DecisionRule::FreshnessGuarded)
    };
    let shapes: Vec<(&str, Box<dyn Schedule>)> = vec![
        (
            "stable_root",
            Box::new(StableRootAdversary::sample(n, SEED)),
        ),
        (
            "rotating_root",
            Box::new(RotatingRootAdversary::sample(n, SEED)),
        ),
        ("churn", Box::new(ChurnAdversary::sample(n, SEED))),
    ];
    for (shape, s) in shapes {
        let until = RunUntil::AllDecided {
            max_rounds: lemma11_bound(s.as_ref()) + 2,
        };
        out.push(measure(&format!("adversary/{shape}/{n}"), || {
            run_lockstep(s.as_ref(), spawn(&ins), until)
                .0
                .rounds_executed
        }));
    }
    // the sharded engine under an adversary: the conformance suite's most
    // expensive configuration
    let s = StableRootAdversary::sample(n, SEED);
    let until = RunUntil::AllDecided {
        max_rounds: lemma11_bound(&s) + 2,
    };
    out.push(measure("adversary/stable_root_sharded4/32", || {
        run_sharded(&s, spawn(&ins), until, ShardPlan::new(4))
            .0
            .rounds_executed
    }));
}

/// The durable run store on the hot path: `journal/write` is a full
/// journaled run (the codec run plus sealing every round's frames and the
/// snapshot cuts into a `Vec` sink — the write-amplification of
/// durability), `journal/replay` is `resume_from_journal` over a complete
/// journal (pure restore-and-replay, no live rounds — the recovery-time
/// metric).
fn journal_workloads(out: &mut Vec<Record>) {
    let n = 32usize;
    let s = FixedSchedule::synchronous(n);
    let ins = inputs(n);
    let until = RunUntil::Rounds(12);
    let meta = RunMeta {
        seed: SEED,
        rebase_limit: n as u64 + 2,
    };
    let spawn = || {
        let mut algs = KSetAgreement::spawn_all(n, &ins);
        for a in &mut algs {
            a.set_rebase_limit(n as Round + 2);
        }
        algs
    };
    out.push(measure(&format!("journal/write/{n}"), || {
        let mut journal = Vec::new();
        run_lockstep_journaled(&s, spawn(), until, &NoFaults, &meta, &mut journal)
            .expect("journaled run")
            .0
            .rounds_executed
    }));

    let mut journal = Vec::new();
    run_lockstep_journaled(&s, spawn(), until, &NoFaults, &meta, &mut journal)
        .expect("journaled run");
    out.push(measure(&format!("journal/replay/{n}"), || {
        let mut sink = Vec::new();
        resume_from_journal::<_, KSetAgreement, _, _>(&s, &journal, until, &NoFaults, &mut sink)
            .expect("resume")
            .0
            .rounds_executed
    }));
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        SMOKE.store(true, Ordering::Relaxed);
    }
    let mut records = Vec::new();
    full_run_workloads(&mut records);
    approx_update_workloads(&mut records);
    engines_workloads(&mut records);
    socket_workloads(&mut records);
    codec_workloads(&mut records);
    multiplex_workloads(&mut records);
    adversary_workloads(&mut records);
    journal_workloads(&mut records);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"sskel-perf-v1\",");
    let _ = writeln!(
        json,
        "  \"unix_time\": {},",
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    );
    let _ = writeln!(json, "  \"benches\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"samples\": {}}}{comma}",
            r.id, r.median_ns, r.min_ns, r.samples
        );
    }
    json.push_str("  ]\n}\n");

    // crates/bench/ → repository root; smoke runs exercise the writer
    // without clobbering the curated record. The smoke directory may not
    // exist (e.g. under a redirected CARGO_TARGET_DIR).
    let path = if SMOKE.load(Ordering::Relaxed) {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
        std::fs::create_dir_all(dir).expect("create smoke report directory");
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/BENCH_hotpath.smoke.json"
        )
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json")
    };
    std::fs::write(path, &json).expect("write BENCH_hotpath report");
    println!("wrote {path}");
}
