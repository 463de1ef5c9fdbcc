//! The sharded engine must produce byte-identical traces and final
//! estimator states to the deterministic lockstep engine on arbitrary
//! schedules, both *threaded* — one thread and one inbox per process
//! (`ShardPlan::new(n)`), so every delivery crosses a channel — and with
//! `k` processes per thread. The paper's runs are
//! fully determined by initial states and the communication-graph
//! sequence, so any divergence is an engine bug.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use sskel::prelude::*;

proptest! {
    // thread spawning is comparatively expensive: keep the case count modest
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One thread per process: every delivery crosses a channel.
    #[test]
    fn threaded_equals_lockstep_on_random_planted_schedules(
        seed in any::<u64>(),
        n in 1usize..10,
        k_raw in 1usize..4,
    ) {
        let k = k_raw.min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = planted_psrcs_schedule(&mut rng, n, k, 0.2, 300, 4);
        let inputs: Vec<Value> = (0..n as Value).map(|i| 50 + i).collect();
        let until = RunUntil::AllDecided { max_rounds: lemma11_bound(&s) + 3 };

        let (a, _) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);
        let (b, _) =
            run_sharded(&s, KSetAgreement::spawn_all(n, &inputs), until, ShardPlan::new(n));

        prop_assert_eq!(&a.decisions, &b.decisions);
        prop_assert_eq!(a.rounds_executed, b.rounds_executed);
        prop_assert_eq!(a.msg_stats, b.msg_stats);
        prop_assert!(b.anomalies.is_empty());
    }

    #[test]
    fn sharded_equals_lockstep_on_random_planted_schedules(
        seed in any::<u64>(),
        n in 1usize..10,
        k_raw in 1usize..4,
        shards in 1usize..5,
    ) {
        let k = k_raw.min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = planted_psrcs_schedule(&mut rng, n, k, 0.2, 300, 4);
        let inputs: Vec<Value> = (0..n as Value).map(|i| 50 + i).collect();
        let until = RunUntil::AllDecided { max_rounds: lemma11_bound(&s) + 3 };

        let (a, finals_a) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);
        let (b, finals_b) =
            run_sharded(&s, KSetAgreement::spawn_all(n, &inputs), until, ShardPlan::new(shards));

        prop_assert_eq!(&a.decisions, &b.decisions);
        prop_assert_eq!(a.rounds_executed, b.rounds_executed);
        prop_assert_eq!(a.msg_stats, b.msg_stats);
        prop_assert!(b.anomalies.is_empty());
        for (x, y) in finals_a.iter().zip(&finals_b) {
            prop_assert_eq!(x.id(), y.id());
            prop_assert_eq!(x.estimate(), y.estimate());
            prop_assert_eq!(x.pt(), y.pt());
            prop_assert_eq!(x.approx_graph(), y.approx_graph());
        }
    }

    /// The acceptance sweep: sharded == lockstep **estimator states** for
    /// every tested (n, shards, horizon) under a fixed horizon.
    #[test]
    fn sharded_estimator_states_match_lockstep_across_windows(
        seed in any::<u64>(),
        n in 1usize..9,
        shards in 1usize..5,
        rounds in 1u32..12,
    ) {
        let skel = {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = Digraph::empty(n);
            g.add_self_loops();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.3) {
                        g.add_edge(ProcessId::from_usize(u), ProcessId::from_usize(v));
                    }
                }
            }
            g
        };
        let s = NoisySchedule::new(skel, 250, 4, seed);
        let inputs: Vec<Value> = (0..n as Value).collect();
        let until = RunUntil::Rounds(rounds);
        let (a, finals_a) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);

        let plan = ShardPlan::new(shards);
        let (b, finals_b) = run_sharded(&s, KSetAgreement::spawn_all(n, &inputs), until, plan);
        prop_assert_eq!(&a.decisions, &b.decisions);
        prop_assert_eq!(a.msg_stats, b.msg_stats);
        prop_assert_eq!(a.rounds_executed, b.rounds_executed);
        for (x, y) in finals_a.iter().zip(&finals_b) {
            prop_assert_eq!(x.id(), y.id());
            prop_assert_eq!(x.estimate(), y.estimate());
            prop_assert_eq!(x.pt(), y.pt());
            prop_assert_eq!(x.approx_graph(), y.approx_graph());
            prop_assert_eq!(x.has_decided(), y.has_decided());
            prop_assert_eq!(x.decision_path(), y.decision_path());
        }
    }

    /// One thread per process under a fixed horizon.
    #[test]
    fn threaded_equals_lockstep_with_fixed_round_budget(
        seed in any::<u64>(),
        n in 1usize..8,
        rounds in 1u32..12,
    ) {
        let skel = {
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = Digraph::empty(n);
            g.add_self_loops();
            for u in 0..n {
                for v in 0..n {
                    if u != v && rng.gen_bool(0.3) {
                        g.add_edge(ProcessId::from_usize(u), ProcessId::from_usize(v));
                    }
                }
            }
            g
        };
        let s = NoisySchedule::new(skel, 250, 4, seed);
        let inputs: Vec<Value> = (0..n as Value).collect();
        let until = RunUntil::Rounds(rounds);

        let (a, _) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);
        let (b, _) =
            run_sharded(&s, KSetAgreement::spawn_all(n, &inputs), until, ShardPlan::new(n));

        prop_assert_eq!(&a.decisions, &b.decisions);
        prop_assert_eq!(a.msg_stats, b.msg_stats);
    }
}

/// Final algorithm states (not just traces) agree between lockstep and
/// the sharded engine at one and at three processes per thread.
#[test]
fn final_states_identical_between_engines() {
    let s = Figure1Schedule::new();
    let inputs = Figure1Schedule::example_inputs();
    let until = RunUntil::Rounds(12);
    let (_, finals_a) = run_lockstep(&s, KSetAgreement::spawn_all(6, &inputs), until);
    let (_, finals_b) = run_sharded(
        &s,
        KSetAgreement::spawn_all(6, &inputs),
        until,
        ShardPlan::new(6),
    );
    let (_, finals_c) = run_sharded(
        &s,
        KSetAgreement::spawn_all(6, &inputs),
        until,
        ShardPlan::new(2),
    );
    for finals in [&finals_b, &finals_c] {
        for (a, b) in finals_a.iter().zip(finals.iter()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.estimate(), b.estimate());
            assert_eq!(a.pt(), b.pt());
            assert_eq!(a.approx_graph(), b.approx_graph());
            assert_eq!(a.has_decided(), b.has_decided());
            assert_eq!(a.decision_path(), b.decision_path());
        }
    }
}

/// Every fixed horizon from 1 to 13 ends the sharded run at the horizon
/// without a final barrier phase: the last round stops on every shard's
/// own verdict, and `h = 1` never enters the barrier at all. The drain
/// must neither stall (every needed packet is broadcast before its sender
/// can block) nor skew the trace.
#[test]
fn sharded_partial_final_window_matches_lockstep() {
    for n in [3usize, 6, 9] {
        let s = NoisySchedule::new(Digraph::complete(n), 200, 3, 42);
        let inputs: Vec<Value> = (0..n as Value).map(|i| 9 + i).collect();
        for horizon in 1u32..=13 {
            let until = RunUntil::Rounds(horizon);
            let (a, finals_a) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);
            for shards in [2usize, 3, 5] {
                let (b, finals_b) = run_sharded(
                    &s,
                    KSetAgreement::spawn_all(n, &inputs),
                    until,
                    ShardPlan::new(shards),
                );
                let ctx = format!("n={n} horizon={horizon} shards={shards}");
                assert_eq!(a.decisions, b.decisions, "{ctx}");
                assert_eq!(a.msg_stats, b.msg_stats, "{ctx}");
                assert_eq!(a.rounds_executed, b.rounds_executed, "{ctx}");
                assert!(b.anomalies.is_empty(), "{ctx}");
                for (x, y) in finals_a.iter().zip(&finals_b) {
                    assert_eq!(x.approx_graph(), y.approx_graph(), "{ctx}");
                    assert_eq!(x.estimate(), y.estimate(), "{ctx}");
                }
            }
        }
    }
}

/// The engines agree across **forced delta-window rebases**: with a
/// tiny rebase limit the estimators renormalize their u16 label matrices
/// every few rounds, and traces, wire accounting and final estimator
/// matrices must stay byte-identical between engines — and the final
/// graphs must equal those of a run that never rebases at all (the
/// retained-u32-equivalent behavior; graph equality is base-insensitive).
#[test]
fn engines_agree_across_forced_rebases() {
    let n = 5;
    let s = NoisySchedule::new(Digraph::complete(n), 150, 2, 7);
    let inputs: Vec<Value> = (0..n as Value).map(|i| 20 + 3 * i).collect();
    let until = RunUntil::Rounds(40);
    let spawn = |limit: Round| {
        let mut algs = KSetAgreement::spawn_all(n, &inputs);
        for a in &mut algs {
            a.set_rebase_limit(limit);
        }
        algs
    };
    // limit 8 > n + 1: rebases at r = 9, 12, 15, … (step 3) — 11 of them
    let (a, finals_a) = run_lockstep(&s, spawn(8), until);
    let (b, finals_b) = run_sharded(&s, spawn(8), until, ShardPlan::new(n));
    let (c, finals_c) = run_sharded(&s, spawn(8), until, ShardPlan::new(2));
    for (name, t, finals) in [("threaded", &b, &finals_b), ("sharded", &c, &finals_c)] {
        assert_eq!(a.decisions, t.decisions, "{name}");
        assert_eq!(a.msg_stats, t.msg_stats, "{name}: wire accounting");
        assert_eq!(a.rounds_executed, t.rounds_executed, "{name}");
        assert!(t.anomalies.is_empty(), "{name}");
        for (x, y) in finals_a.iter().zip(finals.iter()) {
            assert_eq!(x.approx_graph(), y.approx_graph(), "{name}: G_p");
            assert_eq!(x.estimate(), y.estimate(), "{name}");
            assert_eq!(x.pt(), y.pt(), "{name}");
        }
    }
    // the run genuinely crossed rebase boundaries…
    assert!(
        finals_a[0].approx_graph().base() > 0,
        "no rebase ever fired"
    );
    // …and rebasing is pure representation: a never-rebasing run (base
    // pinned at 0, deltas = absolute labels, the u32-layout behavior)
    // produces the same decisions and logically equal graphs.
    let (d, finals_d) = run_lockstep(&s, spawn(u16::MAX as Round), until);
    assert_eq!(a.decisions, d.decisions);
    for (x, y) in finals_a.iter().zip(&finals_d) {
        assert_eq!(x.approx_graph(), y.approx_graph(), "rebase changed G_p");
        assert_eq!(y.approx_graph().base(), 0);
        assert_eq!(x.estimate(), y.estimate());
    }
}

/// Larger thread counts than cores — one thread per process — still
/// terminate and agree.
#[test]
fn oversubscribed_threaded_run() {
    let n = 48;
    let s = FixedSchedule::synchronous(n);
    let inputs: Vec<Value> = (0..n as Value).collect();
    let until = RunUntil::AllDecided {
        max_rounds: n as Round + 5,
    };
    let (a, _) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);
    let (b, _) = run_sharded(
        &s,
        KSetAgreement::spawn_all(n, &inputs),
        until,
        ShardPlan::new(n),
    );
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.rounds_executed, n as Round);
}

/// The sharded engine handles the same oversubscribed workload with a
/// handful of threads — and uneven shards (48 processes over 5 threads)
/// must not disturb the trace.
#[test]
fn oversubscribed_sharded_run() {
    let n = 48;
    let s = FixedSchedule::synchronous(n);
    let inputs: Vec<Value> = (0..n as Value).collect();
    let until = RunUntil::AllDecided {
        max_rounds: n as Round + 5,
    };
    let (a, _) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);
    let (b, _) = run_sharded(
        &s,
        KSetAgreement::spawn_all(n, &inputs),
        until,
        ShardPlan::new(5),
    );
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.msg_stats, b.msg_stats);
    assert_eq!(b.rounds_executed, n as Round);
}

/// The shared-payload (`Arc`) broadcast must be observationally identical
/// to deep-copying the approximation graph into every message — the
/// pre-optimization behavior. `DeepCloneKSet` restores that behavior by
/// cloning the dense matrix per broadcast (which also defeats the
/// estimator's buffer reuse), so a byte-identical trace pins the whole
/// zero-copy round path.
#[test]
fn shared_payload_trace_identical_to_deep_copied_payload() {
    use sskel::model::{ProcessCtx, Received, RoundAlgorithm};
    use std::sync::Arc;

    struct DeepCloneKSet(KSetAgreement);

    impl RoundAlgorithm for DeepCloneKSet {
        type Msg = KSetMsg;
        fn send(&self, r: Round) -> KSetMsg {
            let m = self.0.send(r);
            KSetMsg::new(m.kind(), m.x(), Arc::new((**m.graph()).clone()))
        }
        fn receive(&mut self, r: Round, received: &Received<KSetMsg>) {
            self.0.receive(r, received);
        }
        fn decision(&self) -> Option<Value> {
            self.0.decision()
        }
    }

    let spawn_cloning = |n: usize, inputs: &[Value]| -> Vec<DeepCloneKSet> {
        ProcessId::all(n)
            .map(|id| {
                DeepCloneKSet(KSetAgreement::new(ProcessCtx {
                    id,
                    n,
                    input: inputs[id.index()],
                }))
            })
            .collect()
    };

    let schedules: Vec<(&str, Box<dyn Schedule>)> = vec![
        ("sync", Box::new(FixedSchedule::synchronous(9))),
        ("figure1", Box::new(Figure1Schedule::new())),
        ("theorem2", Box::new(Theorem2Schedule::new(8, 3))),
        ("partition", Box::new(PartitionSchedule::even(9, 3, 2))),
    ];
    for (name, s) in &schedules {
        let n = s.n();
        let inputs: Vec<Value> = (0..n as Value).map(|i| 3 * i + 11).collect();
        let until = RunUntil::AllDecided {
            max_rounds: lemma11_bound(s.as_ref()) + 2,
        };
        let (shared, finals_shared) =
            run_lockstep(s.as_ref(), KSetAgreement::spawn_all(n, &inputs), until);
        let (cloned, finals_cloned) = run_lockstep(s.as_ref(), spawn_cloning(n, &inputs), until);
        assert_eq!(
            shared.decisions, cloned.decisions,
            "{name}: decisions diverged"
        );
        assert_eq!(shared.rounds_executed, cloned.rounds_executed, "{name}");
        assert_eq!(
            shared.msg_stats, cloned.msg_stats,
            "{name}: wire accounting diverged"
        );
        assert_eq!(shared.anomalies, cloned.anomalies, "{name}");
        for (a, b) in finals_shared.iter().zip(&finals_cloned) {
            assert_eq!(a.approx_graph(), b.0.approx_graph(), "{name}: G_p diverged");
            assert_eq!(a.estimate(), b.0.estimate(), "{name}");
            assert_eq!(a.pt(), b.0.pt(), "{name}");
        }

        // Same pair of payload styles through the sharded engine: the
        // intra-shard fast path hands the recipient the *same* `Arc` the
        // sender holds, so it must be observationally identical to deep
        // copying the matrix into every message.
        let plan = ShardPlan::new(3);
        let (sh_shared, sh_finals) = run_sharded(
            s.as_ref(),
            KSetAgreement::spawn_all(n, &inputs),
            until,
            plan,
        );
        let (sh_cloned, sh_finals_cloned) =
            run_sharded(s.as_ref(), spawn_cloning(n, &inputs), until, plan);
        assert_eq!(sh_shared.decisions, shared.decisions, "{name}: sharded");
        assert_eq!(sh_cloned.decisions, shared.decisions, "{name}: sharded");
        assert_eq!(sh_shared.msg_stats, shared.msg_stats, "{name}: sharded");
        assert_eq!(sh_cloned.msg_stats, shared.msg_stats, "{name}: sharded");
        for (a, (b, c)) in finals_shared
            .iter()
            .zip(sh_finals.iter().zip(&sh_finals_cloned))
        {
            assert_eq!(a.approx_graph(), b.approx_graph(), "{name}: sharded G_p");
            assert_eq!(a.approx_graph(), c.0.approx_graph(), "{name}: sharded G_p");
            assert_eq!(a.estimate(), b.estimate(), "{name}: sharded");
            assert_eq!(a.estimate(), c.0.estimate(), "{name}: sharded");
        }
    }
}

/// Degenerate inputs run like lockstep on every engine instead of
/// crashing: an empty universe is vacuously all decided after one round
/// (or runs its fixed horizon of empty rounds), and a zero-shard multiplex
/// plan runs on one shard.
#[test]
fn empty_universes_and_zero_shard_plans_match_lockstep() {
    let none = Vec::<KSetAgreement>::new;
    let empty = FixedSchedule::synchronous(0);
    for until in [RunUntil::AllDecided { max_rounds: 5 }, RunUntil::Rounds(3)] {
        let (oracle, _) = run_lockstep(&empty, none(), until);
        let mut runs = vec![
            (
                "lockstep_codec",
                run_lockstep_codec(&empty, none(), until, &NoFaults).0,
            ),
            (
                "sharded",
                run_sharded(&empty, none(), until, ShardPlan::new(2)).0,
            ),
            (
                "sharded_codec",
                run_sharded_codec(&empty, none(), until, ShardPlan::new(2), &NoFaults).0,
            ),
        ];
        for shards in [0, 2] {
            let solo = vec![MuxInstance::new(&empty as &dyn Schedule, none(), until)];
            let mut out = run_multiplex_codec(solo, MultiplexPlan { shards }, &NoFaults);
            runs.push(("multiplex", out.remove(0).0));
        }
        if sskel::model::testutil::require_loopback("empty_universes_and_zero_shard_plans") {
            let (sock, _) = run_socket(&empty, none(), until, SocketPlan::new(2)).expect("socket");
            runs.push(("socket", sock));
        }
        for (engine, trace) in runs {
            let ctx = format!("{engine} under {until:?}");
            assert_eq!(diff_run_traces(&trace, &oracle), None, "{ctx}");
            assert_eq!(trace.rounds_executed, oracle.rounds_executed, "{ctx}");
        }
    }

    let n = 5;
    let s = FixedSchedule::synchronous(n);
    let inputs: Vec<Value> = (0..n as Value).map(|i| 40 - i).collect();
    let until = RunUntil::AllDecided { max_rounds: 10 };
    let (oracle, _) =
        run_lockstep_codec(&s, KSetAgreement::spawn_all(n, &inputs), until, &NoFaults);
    let solo = vec![MuxInstance::new(
        &s as &dyn Schedule,
        KSetAgreement::spawn_all(n, &inputs),
        until,
    )];
    let (trace, algs) = run_multiplex_codec(solo, MultiplexPlan { shards: 0 }, &NoFaults).remove(0);
    assert_eq!(diff_run_traces(&trace, &oracle), None, "zero-shard plan");
    assert_eq!(algs.len(), n);
}
