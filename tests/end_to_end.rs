//! End-to-end k-set agreement across every schedule family: Algorithm 1
//! must satisfy validity, k-agreement (at the *tight* k of each run),
//! termination within the Lemma-11 bound, and decide-once — on all of them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sskel::prelude::*;

fn check<S: Schedule>(schedule: &S, inputs: Vec<Value>, label: &str) -> RunTrace {
    let n = schedule.n();
    assert_eq!(inputs.len(), n);
    let k = guaranteed_k(schedule);
    let bound = lemma11_bound(schedule);
    let algs = KSetAgreement::spawn_all(n, &inputs);
    let (trace, _) = run_lockstep(
        schedule,
        algs,
        RunUntil::AllDecided {
            max_rounds: bound + 2,
        },
    );
    let verdict = verify(
        &trace,
        &VerifySpec::new(k, inputs).with_lemma11_bound(schedule),
    );
    assert!(verdict.is_ok(), "{label}: {:?}", verdict.violations);
    trace
}

fn distinct_inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|i| i * 7 + 3).collect()
}

#[test]
fn synchronous_systems_of_many_sizes() {
    for n in [1usize, 2, 3, 5, 9, 17, 33] {
        let s = FixedSchedule::synchronous(n);
        let trace = check(&s, distinct_inputs(n), &format!("sync n={n}"));
        assert_eq!(trace.distinct_decision_values().len(), 1);
        assert_eq!(trace.last_decision_round(), Some(n as Round));
    }
}

#[test]
fn theorem2_family_forces_exactly_k() {
    for (n, k) in [(3usize, 2usize), (6, 3), (9, 5), (14, 7), (20, 2)] {
        let s = Theorem2Schedule::new(n, k);
        let trace = check(&s, distinct_inputs(n), &format!("t2 n={n} k={k}"));
        assert_eq!(trace.distinct_decision_values().len(), k);
    }
}

#[test]
fn partitions_decide_per_block() {
    for (n, b, prefix) in [
        (6usize, 2usize, 0u32),
        (9, 3, 2),
        (12, 4, 5),
        (8, 8, 0),
        (10, 1, 3),
    ] {
        let s = PartitionSchedule::even(n, b, prefix);
        let trace = check(&s, distinct_inputs(n), &format!("part n={n} b={b}"));
        assert!(trace.distinct_decision_values().len() <= b);
        if prefix == 0 {
            // without pre-split gossip, each block keeps its own minimum
            assert_eq!(trace.distinct_decision_values().len(), b);
        }
    }
}

#[test]
fn crash_schedules_reach_consensus_with_survivors() {
    let mut rng = StdRng::seed_from_u64(501);
    for trial in 0..15 {
        let n = rng.gen_range(3..10usize);
        let f = rng.gen_range(0..n - 1); // at least one survivor
        let crashes: Vec<(ProcessId, Round)> = (0..f)
            .map(|i| (ProcessId::from_usize(i), rng.gen_range(1..6) as Round))
            .collect();
        let s = CrashSchedule::new(n, crashes);
        assert_eq!(guaranteed_k(&s), 1, "survivors keep a common source");
        let trace = check(&s, distinct_inputs(n), &format!("crash trial {trial}"));
        assert_eq!(trace.distinct_decision_values().len(), 1);
    }
}

#[test]
fn noisy_planted_psrcs_schedules() {
    let mut rng = StdRng::seed_from_u64(777);
    for trial in 0..15 {
        let n = rng.gen_range(4..14usize);
        let k = rng.gen_range(1..=n.min(4));
        let s = planted_psrcs_schedule(&mut rng, n, k, 0.1, 250, 5);
        let trace = check(&s, distinct_inputs(n), &format!("planted trial {trial}"));
        assert!(
            trace.distinct_decision_values().len() <= k,
            "trial {trial}: more than the planted k = {k} values"
        );
    }
}

#[test]
fn eventually_stable_prefixes_delay_but_never_break_agreement() {
    let mut rng = StdRng::seed_from_u64(31);
    for chaos in [0u32, 1, 4, 9, 15] {
        let base = PartitionSchedule::even(8, 2, 0);
        let s = EventuallyStable::new(base, chaos, 400, rng.gen());
        let trace = check(&s, distinct_inputs(8), &format!("chaos={chaos}"));
        assert!(trace.distinct_decision_values().len() <= 2);
        // Lemma 11: decisions track the (shifted) stabilization round
        assert!(
            trace.last_decision_round().unwrap() < chaos + 1 + 2 * 8,
            "chaos={chaos}"
        );
    }
}

/// The Figure-1 run with one thread per process matches lockstep.
#[test]
fn figure1_and_facade_schedules_compose_with_threaded_engine() {
    let s = Figure1Schedule::new();
    let inputs = Figure1Schedule::example_inputs();
    let until = RunUntil::AllDecided { max_rounds: 30 };
    let (a, _) = run_lockstep(&s, KSetAgreement::spawn_all(6, &inputs), until);
    let (b, _) = run_sharded(
        &s,
        KSetAgreement::spawn_all(6, &inputs),
        until,
        ShardPlan::new(6),
    );
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.msg_stats, b.msg_stats);
}

/// Duplicated inputs: k-agreement counts *values*, not proposers.
#[test]
fn duplicate_inputs_collapse_decision_counts() {
    let s = Theorem2Schedule::new(6, 3);
    // all forced processes propose the same value
    let inputs: Vec<Value> = vec![5, 5, 5, 9, 9, 9];
    let algs = KSetAgreement::spawn_all(6, &inputs);
    let (trace, _) = run_lockstep(&s, algs, RunUntil::AllDecided { max_rounds: 30 });
    verify(&trace, &VerifySpec::new(3, inputs).with_lemma11_bound(&s)).assert_ok();
    assert!(trace.distinct_decision_values().len() <= 2);
}
