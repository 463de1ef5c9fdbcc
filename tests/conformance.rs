//! Paper-conformance harness: every seedable adversary family ×
//! every simulation engine.
//!
//! For each sampled adversary (see `sskel-model`'s `adversary` and
//! `testutil` modules) the harness asserts the full k-set agreement
//! contract of the paper *under hostile schedules*:
//!
//! * **schedule admissibility** — the adversary satisfies the
//!   `schedule::validate` contract over the whole checked horizon;
//! * **k-agreement** — the decision-value set has at most `min_k` elements,
//!   where `min_k = α(H)` is computed from the stable skeleton by
//!   `sskel-predicates` (the tightest `k` for which `Psrcs(k)` holds —
//!   Theorem 16 at the tight parameter);
//! * **validity** — every decision was proposed;
//! * **termination** — every process decides within the Lemma-11 bound
//!   `rST + 2n − 1` of the *declared* stabilization round;
//! * **engine equivalence** — lockstep, the sharded engine at one process
//!   per shard and at a seeded coarser plan, and socket produce
//!   byte-identical decision vectors, round counts and message
//!   statistics. The socket column runs the adversary's frames over real
//!   loopback TCP (`run_socket`) and is skipped gracefully when the
//!   sandbox has no loopback (`testutil::loopback_available`).
//!
//! Runs use [`DecisionRule::FreshnessGuarded`]: the paper's literal line-28
//! rule is unsound under transient early edges (`tests/counterexample.rs`),
//! and these adversaries manufacture exactly such edges on purpose.
//!
//! Every case derives its seed from `SSKEL_TEST_SEED` (default fixed):
//! failure messages print the mixed per-case seed, and re-running with
//! `SSKEL_TEST_SEED=<that seed>` replays the same adversary — in CI or
//! locally (see `docs/TESTING.md`).

use proptest::prelude::*;

use sskel::model::testutil::{
    adversary_config, fuzz_cases, loopback_available, seed_override_cases, seeded_socket_plan,
    AdversaryConfig, AdversaryFamily, ALL_FAMILIES,
};
use sskel::prelude::*;

/// Runs one conformance case through all four engine columns and checks
/// the full contract. Returns `Err` (never panics) so proptest can shrink the
/// config.
fn conform(cfg: &AdversaryConfig) -> Result<(), TestCaseError> {
    let s = cfg.build();
    let n = s.n();
    let bound = lemma11_bound(s.as_ref());
    let horizon = bound + 2;

    validate_schedule(s.as_ref(), horizon)
        .map_err(|e| TestCaseError::fail(format!("{cfg}: schedule contract: {e}")))?;

    let skel = s.stable_skeleton();
    let min_k = min_k_on_skeleton(&skel);
    let inputs = cfg.inputs();
    let spawn = || KSetAgreement::spawn_all_with(n, &inputs, DecisionRule::FreshnessGuarded);
    let until = RunUntil::AllDecided {
        max_rounds: horizon,
    };

    let (lockstep, _) = run_lockstep(s.as_ref(), spawn(), until);
    // One thread per process: every delivery crosses a channel.
    let (per_process, _) = run_sharded(s.as_ref(), spawn(), until, ShardPlan::new(n));
    let shards = 1 + (cfg.seed % 3) as usize;
    let (sharded, _) = run_sharded(s.as_ref(), spawn(), until, ShardPlan::new(shards));

    // Fourth column: the same case over real loopback TCP. The plan is
    // derived from different seed bits than the sharded plan
    // (testutil::seeded_socket_plan), so the two columns exercise
    // distinct partitions of the same run.
    let socket = if loopback_available() {
        let (t, _) = run_socket(s.as_ref(), spawn(), until, seeded_socket_plan(cfg.seed))
            .map_err(|e| TestCaseError::fail(format!("{cfg}: socket engine failed: {e}")))?;
        Some(t)
    } else {
        None
    };

    let mut engines = vec![("per-process shards", &per_process), ("sharded", &sharded)];
    if let Some(t) = socket.as_ref() {
        engines.push(("socket", t));
    }
    for (engine, t) in engines {
        if let Some(d) = diff_run_traces(&lockstep, t) {
            return Err(TestCaseError::fail(format!(
                "{cfg}: lockstep vs {engine} diverged — {d}"
            )));
        }
        prop_assert!(
            t.anomalies.is_empty(),
            "{}: {} anomalies: {:?}",
            cfg,
            engine,
            t.anomalies
        );
    }

    let verdict = verify(
        &lockstep,
        &VerifySpec::new(min_k, inputs).with_lemma11_bound(s.as_ref()),
    );
    prop_assert!(
        verdict.is_ok(),
        "{} (min_k={}, bound={}):\n  {}",
        cfg,
        min_k,
        bound,
        verdict.violations.join("\n  ")
    );
    Ok(())
}

macro_rules! conformance_family {
    ($($name:ident => ($family:expr, $n_range:expr)),+ $(,)?) => {
        proptest! {
            // every case spawns ~2n OS threads across the concurrent
            // engines: keep the default per-family case count modest; the
            // nightly sweep raises it via SSKEL_FUZZ_CASES
            #![proptest_config(ProptestConfig::with_cases(fuzz_cases(12)))]
            $(
                #[test]
                fn $name(cfg in adversary_config($family, $n_range)) {
                    conform(&cfg)?;
                }
            )+
        }
    };
}

conformance_family! {
    stable_root_conforms => (AdversaryFamily::StableRoot, 1..11),
    rotating_root_conforms => (AdversaryFamily::RotatingRoot, 1..11),
    crash_conforms => (AdversaryFamily::Crash, 1..11),
    healed_partition_conforms => (AdversaryFamily::HealedPartition, 1..11),
    churn_conforms => (AdversaryFamily::Churn, 1..11),
    lower_bound_conforms => (AdversaryFamily::LowerBound, 4..12),
    crash_over_partition_conforms => (AdversaryFamily::CrashOverPartition, 1..11),
    crash_restart_conforms => (AdversaryFamily::CrashRestart, 1..11),
}

/// The `SSKEL_TEST_SEED` drill-down: with the variable set, every family is
/// replayed at exactly that seed — verbatim, across every universe size the
/// sampled suites draw from, so the failing (family, n, seed) triple is
/// guaranteed to be among the replays. Without it, a small default spread
/// keeps the path exercised in CI.
#[test]
fn seed_override_replays_every_family() {
    let overridden = std::env::var("SSKEL_TEST_SEED").is_ok_and(|v| !v.is_empty());
    for seed in seed_override_cases() {
        for family in ALL_FAMILIES {
            let sizes: Vec<usize> = if overridden {
                (1..=11).collect()
            } else {
                vec![3, 6, 9]
            };
            for n in sizes {
                let cfg = AdversaryConfig { family, n, seed };
                if let Err(e) = conform(&cfg) {
                    panic!("{e}");
                }
            }
        }
    }
}

/// The paper-style lower-bound scenario: on the seeded Theorem-2 runs the
/// naive fixed-horizon flooder (no skeleton reasoning) exceeds `k` distinct
/// decisions, while Algorithm 1 emits exactly `k` — the separation that
/// motivates the whole skeleton approximation.
#[test]
fn lower_bound_family_defeats_naive_baseline() {
    for entropy in 0..6u64 {
        let seed = sskel::model::testutil::mix_seed(entropy);
        for n in [5usize, 8, 11] {
            let s = LowerBoundAdversary::sample(n, seed);
            let k = s.k();
            let inputs = s.naive_breaking_inputs();
            let until = RunUntil::AllDecided {
                max_rounds: lemma11_bound(&s) + 2,
            };
            let ctx = format!("n={n} k={k} seed={seed:#x}");

            let (naive, _) = run_lockstep(&s, NaiveMinHorizon::spawn_all(n, &inputs), until);
            assert!(naive.all_decided(), "{ctx}: naive did not terminate");
            let naive_distinct = naive.distinct_decision_values().len();
            assert!(
                naive_distinct > k,
                "{ctx}: naive stayed within k ({naive_distinct} values)"
            );

            let (alg1, _) = run_lockstep(&s, KSetAgreement::spawn_all(n, &inputs), until);
            verify(
                &alg1,
                &VerifySpec::new(k, inputs.clone()).with_lemma11_bound(&s),
            )
            .assert_ok();
            assert_eq!(
                alg1.distinct_decision_values().len(),
                k,
                "{ctx}: the bound is tight — Algorithm 1 is forced to exactly k values"
            );
            // the forced set decides its own values, everyone else relays s
            for p in s.forced_own_value().iter() {
                assert_eq!(
                    alg1.decision_of(p).unwrap().value,
                    inputs[p.index()],
                    "{ctx}: forced process {p}"
                );
            }
        }
    }
}

/// Explicit crash ∘ partition ∘ stable-tail composition (not via the
/// config enum), checked end to end — the composability the adversary
/// subsystem promises.
#[test]
fn composed_adversaries_conform() {
    for entropy in 0..4u64 {
        let seed = sskel::model::testutil::mix_seed(entropy);
        let n = 9;
        let partition = HealedPartitionAdversary::seeded(n, 2, 3, seed);
        let s = CrashOverlay::seeded(partition, 2, seed);
        let bound = lemma11_bound(&s);
        validate_schedule(&s, bound + 2).unwrap_or_else(|e| panic!("seed={seed:#x}: {e}"));

        let min_k = min_k_on_skeleton(&s.stable_skeleton());
        let inputs: Vec<Value> = (0..n as Value).map(|i| 3 * i + 2).collect();
        let until = RunUntil::AllDecided {
            max_rounds: bound + 2,
        };
        let spawn = || KSetAgreement::spawn_all_with(n, &inputs, DecisionRule::FreshnessGuarded);
        let (a, _) = run_lockstep(&s, spawn(), until);
        let (b, _) = run_sharded(&s, spawn(), until, ShardPlan::new(n));
        let (c, _) = run_sharded(&s, spawn(), until, ShardPlan::new(3));
        assert_eq!(a.decisions, b.decisions, "seed={seed:#x}");
        assert_eq!(a.decisions, c.decisions, "seed={seed:#x}");
        assert_eq!(a.msg_stats, b.msg_stats, "seed={seed:#x}");
        assert_eq!(a.msg_stats, c.msg_stats, "seed={seed:#x}");
        if loopback_available() {
            let (d, _) = run_socket(&s, spawn(), until, SocketPlan::new(3))
                .unwrap_or_else(|e| panic!("seed={seed:#x}: socket engine failed: {e}"));
            assert_eq!(a.decisions, d.decisions, "seed={seed:#x}");
            assert_eq!(a.msg_stats, d.msg_stats, "seed={seed:#x}");
        }
        verify(
            &a,
            &VerifySpec::new(min_k, inputs.clone()).with_lemma11_bound(&s),
        )
        .assert_ok();
    }
}

/// Recurring transients are *inert*: `PT_p` is a running intersection and
/// Algorithm 1 consumes only `PT_p ∩ HO(p, r)`, so an adversary that
/// rotates a broadcast star **forever** cannot starve anyone — every `PT`
/// collapses to a singleton after one rotation, each approximation shrinks
/// to `⟨{p}, ∅⟩`, and all processes decide their own value within the
/// Lemma-11 bound (this is the eternal-noise analogue of the
/// `♦Psrcs` fragility of `tests/eventual_psrcs.rs`, and the fact the
/// adversary module's vertex-stability documentation leans on).
#[test]
fn eternal_rotation_is_inert_for_terminating_singletons() {
    /// A rotating star that never stops: skeleton = self-loops only, so
    /// every PT collapses to singletons, yet the stars keep refreshing
    /// one-way edges forever.
    struct EternalRotation {
        n: usize,
    }
    impl Schedule for EternalRotation {
        fn n(&self) -> usize {
            self.n
        }
        fn graph(&self, r: Round) -> Digraph {
            let mut g = Digraph::empty(self.n);
            g.add_self_loops();
            let pivot = ProcessId::from_usize((r as usize - 1) % 2); // rotors p0, p1
            for v in ProcessId::all(self.n) {
                g.add_edge(pivot, v);
            }
            g
        }
        fn stabilization_round(&self) -> Round {
            2
        }
        fn stable_skeleton(&self) -> Digraph {
            let mut g = Digraph::empty(self.n);
            g.add_self_loops();
            g
        }
    }

    let n = 5;
    let s = EternalRotation { n };
    validate_schedule(&s, 40).unwrap();
    let min_k = min_k_on_skeleton(&s.stable_skeleton());
    assert_eq!(min_k, n, "self-loop skeleton: only Psrcs(n) holds");
    // descending inputs: the round-1 pivot's value is the maximum, so the
    // one round it spends in everyone's PT cannot lower any estimate
    let inputs: Vec<Value> = (0..n).map(|i| (n - i) as Value).collect();
    let (trace, _) = run_lockstep(
        &s,
        KSetAgreement::spawn_all(n, &inputs),
        RunUntil::AllDecided {
            max_rounds: lemma11_bound(&s) + 2,
        },
    );
    verify(
        &trace,
        &VerifySpec::new(min_k, inputs.clone()).with_lemma11_bound(&s),
    )
    .assert_ok();
    // the eternal one-way stars were delivered every round but never
    // consumed past their PT eviction: every process decided its own
    // value, as soon as the round-1 pivot edge aged out of its
    // approximation (label 1 purges at r = n + 1; the pivot itself, which
    // heard nobody, decides at r = n)
    assert_eq!(trace.distinct_decision_values().len(), n);
    assert_eq!(trace.first_decision_round(), Some(n as Round));
    for p in ProcessId::all(n) {
        let d = trace.decision_of(p).expect("all decided");
        assert_eq!(d.value, inputs[p.index()], "process {p}");
        assert!(d.round <= n as Round + 1, "process {p} decided late");
    }
}
