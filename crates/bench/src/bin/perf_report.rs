//! Hot-path performance record, the one harness for the hot path. It
//! times whole runs (`full_run`, `engines`, `multiplex`, `adversary`,
//! `journal`), one estimator round (`approx_update`) and the layers
//! beneath them: the wire codec against the merge it feeds (`wire`,
//! `graph/merge_max`), the batched merge, the bitset primitives (`graph`,
//! `pset`), SCC (`scc`), the line-28 decision test (`decision`) and the
//! `Psrcs(k)` checkers (`psrcs`). It uses a plain wall-clock harness and
//! writes `BENCH_hotpath.json` at the repository root, with the host it
//! ran on, seeding the perf trajectory that future PRs extend. Each
//! layer family checks its result once, outside the timed closure.
//!
//! ```text
//! cargo run --release -p sskel-bench --bin perf_report
//! ```
//!
//! `--smoke` runs every workload in 1-sample mode with minimal warm-up and
//! writes the report next to the build artifacts instead of the curated
//! repository file — CI runs this so regeneration of `BENCH_hotpath.json`
//! cannot silently bit-rot, without clobbering the recorded medians. The
//! layer families' checks run in this mode too:
//!
//! ```text
//! cargo run --release -p sskel-bench --bin perf_report -- --smoke
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// `--smoke`: 1-sample mode exercising every workload and the JSON writer.
static SMOKE: AtomicBool = AtomicBool::new(false);

use rand::rngs::StdRng;
use rand::SeedableRng;

use sskel_bench::{inputs, ring_skeleton, ring_with_chords, std_schedule, SEED};
use sskel_graph::{
    is_strongly_connected, rand_graph, reach, tarjan, Digraph, LabeledDigraph, ProcessId,
    ProcessSet, Round,
};
use sskel_kset::{lemma11_bound, AgreementPool, DecisionRule, KSetAgreement, SkeletonEstimator};
use sskel_model::engine::{resume_from_journal, run_lockstep_journaled};
use sskel_model::skeleton::pt_sets;
use sskel_model::{
    run_lockstep, run_lockstep_codec, run_multiplex_codec, run_sharded, run_sharded_codec,
    run_socket, ChurnAdversary, CorruptionOverlay, FixedSchedule, MultiplexPlan, MuxInstance,
    NoFaults, RotatingRootAdversary, RunMeta, RunUntil, Schedule, ShardPlan, SocketPlan,
    StableRootAdversary, Wire,
};
use sskel_predicates::{planted_psrcs_skeleton, psrcs};

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

/// A dense labelled graph at round `r = 4n`: every ordered pair of the
/// `n` processes, self-loops included, with labels spread over the whole
/// window `(r − n, r]` that line 24 leaves live, above a base of `r − n`.
fn dense_labeled(n: usize) -> LabeledDigraph {
    let r = 4 * n as Round;
    let mut g = LabeledDigraph::new(n);
    g.rebase(r - n as Round);
    for u in 0..n {
        for v in 0..n {
            let label = r - ((u + v) % n) as Round;
            g.set_edge_max(ProcessId::from_usize(u), ProcessId::from_usize(v), label);
        }
    }
    g
}

/// The codec against the merge it feeds: encoding and decoding one dense
/// graph per `n`, and merging that graph into a reset accumulator. Decode
/// per call against `graph/merge_max` of the same graph is ROADMAP item
/// 2's gauge. Checks `decode(encode(g)) == g`.
fn codec_vs_merge_workloads(out: &mut Vec<Record>) {
    for &n in &[16usize, 48] {
        let g = dense_labeled(n);
        let mut buf = Vec::new();
        g.encode(&mut buf);
        let bytes = buf.clone();
        let back = LabeledDigraph::decode(&mut &bytes[..]).expect("decode an encoded graph");
        assert!(
            back == g,
            "wire/*/dense/{n}: decode(encode(g)) differs from g"
        );

        out.push(measure(&format!("wire/encode/dense/{n}"), || {
            buf.clear();
            g.encode(&mut buf);
            buf.len()
        }));
        out.push(measure(&format!("wire/decode/dense/{n}"), || {
            LabeledDigraph::decode(&mut &bytes[..])
                .expect("decode an encoded graph")
                .edge_count()
        }));
        let seed = ProcessId::new(0);
        let mut acc = LabeledDigraph::with_node(n, seed);
        out.push(measure(&format!("graph/merge_max/dense/{n}"), || {
            acc.reset_to_node(seed);
            acc.merge_max(&g);
            acc.edge_count()
        }));
    }
}

/// One round's `n` received graphs over a universe of `n`, with labels
/// in a band like the estimator's steady state.
fn labelled_batch(rng: &mut StdRng, n: usize, p: f64) -> Vec<LabeledDigraph> {
    (0..n)
        .map(|i| {
            let skel = rand_graph::gnp(rng, n, p, true);
            let mut g = LabeledDigraph::new(n);
            for (u, v) in skel.edges() {
                g.set_edge_max(u, v, (n + u.index() + i) as Round);
            }
            g
        })
        .collect()
}

/// Lines 18–23 as the estimator runs them: one round's 64 payloads folded
/// into a reset accumulator by `merge_max_batch`. Checks that the batch
/// equals the sequential `merge_max` fold.
fn merge_batch_workloads(out: &mut Vec<Record>) {
    let n = 64usize;
    for (shape, p) in [("dense", 0.9), ("sparse", 3.0 / n as f64)] {
        let batch = labelled_batch(&mut StdRng::seed_from_u64(7), n, p);
        let refs: Vec<&LabeledDigraph> = batch.iter().collect();
        let seed = ProcessId::new(0);
        let mut acc = LabeledDigraph::with_node(n, seed);
        acc.merge_max_batch(&refs);
        let mut fold = LabeledDigraph::with_node(n, seed);
        for g in &batch {
            fold.merge_max(g);
        }
        assert!(
            acc == fold,
            "graph/merge_max_batch/{shape}/{n}: the batch differs from the sequential fold"
        );

        out.push(measure(
            &format!("graph/merge_max_batch/{shape}/{n}"),
            || {
                acc.reset_to_node(seed);
                acc.merge_max_batch(&refs);
                acc.edge_count()
            },
        ));
    }
}

/// The word-parallel primitives the skeleton and the estimator are built
/// on: skeleton intersection, ancestor BFS and bitset set algebra.
fn graph_primitive_workloads(out: &mut Vec<Record>) {
    let n = 1024usize;
    let mut rng = StdRng::seed_from_u64(3);
    let a = rand_graph::gnp(&mut rng, n, 0.3, true);
    let b = rand_graph::gnp(&mut rng, n, 0.3, true);
    let mut g = a.clone();
    out.push(measure(&format!("graph/intersect/{n}"), || {
        g.clone_from(&a);
        g.intersect_with(&b);
        g.edge_count()
    }));
    let sparse = rand_graph::gnp(&mut StdRng::seed_from_u64(5), n, 3.0 / n as f64, true);
    let full = ProcessSet::full(n);
    out.push(measure(&format!("graph/ancestors/{n}"), || {
        reach::ancestors(&sparse, ProcessId::new(0), &full).len()
    }));

    let n = 4096usize;
    let mut rng = StdRng::seed_from_u64(11);
    let a = rand_graph::random_subset(&mut rng, n, 0.5);
    let b = rand_graph::random_subset(&mut rng, n, 0.5);
    let mut s = a.clone();
    out.push(measure(&format!("pset/intersect/{n}"), || {
        s.clone_from(&a);
        s.intersect_with(&b);
        s.len()
    }));
    out.push(measure(&format!("pset/iterate/{n}"), || {
        a.iter().map(|p| p.index()).sum::<usize>()
    }));
}

/// Tarjan's full decomposition against the two-BFS strong-connectivity
/// test, on sparse `G(n, 4/n)` with self-loops. Checks that Tarjan finds
/// one component exactly when the two-BFS test says strongly connected.
fn scc_workloads(out: &mut Vec<Record>) {
    for &n in &[64usize, 256] {
        let g = rand_graph::gnp(&mut StdRng::seed_from_u64(7), n, 4.0 / n as f64, true);
        let full = ProcessSet::full(n);
        assert_eq!(
            tarjan(&g, &full).count() == 1,
            is_strongly_connected(&g, &full),
            "scc/*/{n}: Tarjan and the two-BFS test disagree"
        );

        out.push(measure(&format!("scc/tarjan/{n}"), || {
            tarjan(&g, &full).count()
        }));
        out.push(measure(&format!("scc/two_bfs/{n}"), || {
            is_strongly_connected(&g, &full)
        }));
    }
}

/// Line 28's decision test on a dense steady-state estimator: strong
/// connectivity, and the coherent freshness `FreshnessGuarded` adds.
/// Checks that both hold on the synchronous steady state.
fn decision_workloads(out: &mut Vec<Record>) {
    for &n in &[32usize, 64] {
        let r = 2 * n as Round;
        let mut ests = steady_state(&Digraph::complete(n), r);
        let est = &mut ests[0];
        assert!(
            est.is_strongly_connected() && est.is_coherently_fresh(r),
            "decision/*/{n}: the synchronous steady state fails the decision test"
        );

        out.push(measure(&format!("decision/strongly_connected/{n}"), || {
            est.is_strongly_connected()
        }));
        out.push(measure(&format!("decision/coherently_fresh/{n}"), || {
            est.is_coherently_fresh(r)
        }));
    }
}

/// The `Psrcs(k)` checkers on planted skeletons: literal subset
/// enumeration against the independence-number form, and `min_k`.
/// Checks that both checkers accept the planted `Psrcs(3)` cover, and
/// that `min_k` stays within the planted `k` at `n = 64`.
fn psrcs_workloads(out: &mut Vec<Record>) {
    let (n, k) = (16usize, 3usize);
    let (skel, _) = planted_psrcs_skeleton(&mut StdRng::seed_from_u64(42), n, k, 0.08);
    let pt = pt_sets(&skel);
    assert!(
        psrcs::holds_naive(&pt, k) && psrcs::holds(&pt, k),
        "psrcs/*/{n}_k{k}: a checker rejects the planted cover"
    );
    out.push(measure(&format!("psrcs/naive/{n}_k{k}"), || {
        psrcs::holds_naive(&pt, k)
    }));
    out.push(measure(&format!("psrcs/alpha_mis/{n}_k{k}"), || {
        psrcs::holds(&pt, k)
    }));

    let (n, k) = (64usize, 8usize);
    let (skel, _) = planted_psrcs_skeleton(&mut StdRng::seed_from_u64(7), n, k, 0.05);
    let pt = pt_sets(&skel);
    assert!(
        psrcs::min_k(&pt) <= k,
        "psrcs/min_k/{n}: min_k exceeds the planted k = {k}"
    );
    out.push(measure(&format!("psrcs/min_k/{n}"), || psrcs::min_k(&pt)));
}

/// The host as a JSON object, since medians are comparable only between
/// runs on one host: `nproc` (0 if unknown) and the first `model name` of
/// `/proc/cpuinfo` (`"unknown"` if there is none).
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().replace('\\', "\\\\").replace('"', "\\\""))
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!("{{\"nproc\": {nproc}, \"cpu_model\": \"{model}\"}}")
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
    codec_vs_merge_workloads(&mut records);
    merge_batch_workloads(&mut records);
    graph_primitive_workloads(&mut records);
    scc_workloads(&mut records);
    decision_workloads(&mut records);
    psrcs_workloads(&mut records);

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
    let _ = writeln!(json, "  \"host\": {},", host_json());
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
