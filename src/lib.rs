//! # sskel — stable skeleton graphs & k-set agreement
//!
//! A Rust reproduction of *“Solving k-Set Agreement with Stable Skeleton
//! Graphs”* (Martin Biely, Peter Robinson, Ulrich Schmid — IPDPS Workshops
//! 2011, arXiv:1102.4423).
//!
//! The paper studies k-set agreement in round-based message-passing systems
//! whose synchrony is captured purely by per-round communication graphs. Its
//! contributions, all implemented here:
//!
//! * the **stable skeleton** `G∩∞` — the intersection of all round graphs —
//!   and a distributed algorithm by which every process approximates it
//!   correctly in *any* run ([`kset::SkeletonEstimator`], Lemmas 3–8);
//! * the communication predicate **`Psrcs(k)`** — every `k + 1` processes
//!   include two with a common perpetual source ([`predicates::Psrcs`]);
//! * **Algorithm 1** ([`kset::KSetAgreement`]), which solves k-set agreement
//!   whenever `Psrcs(k)` holds (Theorem 16), with every process deciding by
//!   round `rST + 2n − 1` (Lemma 11);
//! * **tightness**: `Psrcs(k)` does not permit `(k−1)`-set agreement
//!   (Theorem 2, realized by [`predicates::Theorem2Schedule`]).
//!
//! ## Quick start
//!
//! ```
//! use sskel::prelude::*;
//!
//! // A 9-process system that partitions into 3 cliques: Psrcs(3) holds.
//! let schedule = PartitionSchedule::even(9, 3, 2);
//! assert_eq!(guaranteed_k(&schedule), 3);
//!
//! let inputs: Vec<Value> = (0..9).collect();
//! let algs = KSetAgreement::spawn_all(9, &inputs);
//! let (trace, _) = run_lockstep(&schedule, algs, RunUntil::AllDecided { max_rounds: 64 });
//!
//! // All three properties hold, within the Lemma-11 termination bound.
//! verify(&trace, &VerifySpec::new(3, inputs).with_lemma11_bound(&schedule)).assert_ok();
//! assert!(trace.distinct_decision_values().len() <= 3);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] | process sets, digraphs, labelled digraphs, SCC/root components |
//! | [`model`] | rounds, schedules, skeleton tracking, lockstep, sharded, socket and multiplex engines, journal |
//! | [`predicates`] | `Psrcs(k)` checkers, `min_k`, schedule families |
//! | [`kset`] | Algorithm 1, estimator, baselines, verifier, lemma checkers |

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use sskel_graph as graph;
pub use sskel_kset as kset;
pub use sskel_model as model;
pub use sskel_predicates as predicates;

/// Everything needed for typical simulations, in one import.
pub mod prelude {
    pub use sskel_graph::{Digraph, LabeledDigraph, ProcessId, ProcessSet, Round, FIRST_ROUND};
    pub use sskel_kset::consensus::{guaranteed_k, guarantees_consensus};
    pub use sskel_kset::{
        lemma11_bound, verify, AgreementPool, DecisionPath, DecisionRule, FloodMin,
        InvariantChecker, KSetAgreement, KSetMsg, NaiveMinHorizon, SkeletonEstimator, SpawnError,
        Verdict, VerifySpec,
    };
    pub use sskel_model::engine::{resume_from_journal, run_lockstep_journaled};
    pub use sskel_model::{
        diff_journals, diff_run_traces, run_lockstep, run_lockstep_codec, run_lockstep_observed,
        run_lockstep_recovering, run_multiplex_codec, run_sharded, run_sharded_codec, run_socket,
        run_socket_codec, scan_journal, validate_schedule, BatchBuilder, BatchReader,
        ChurnAdversary, Component, CorruptionOverlay, CrashOverlay, CrashRestartOverlay,
        Divergence, EdgeFault, EffectiveSchedule, FaultCause, FaultPlane, FaultStats,
        FixedSchedule, HealedPartitionAdversary, JournalWriter, LowerBoundAdversary, MultiplexPlan,
        MuxInstance, NoFaults, PartitionEpisode, ProcessCtx, Received, Recoverable, ResumeError,
        RotatingRootAdversary, RoundAlgorithm, RunMeta, RunTrace, RunUntil, Schedule, ShardPlan,
        SkeletonTracker, SocketError, SocketPlan, StableRootAdversary, TableSchedule, Tamper,
        Value,
    };
    pub use sskel_predicates::{
        check_theorem1, check_theorem1_tight, min_k_on_skeleton, planted_psrcs_schedule,
        planted_psrcs_skeleton, root_component_count, CommPredicate, CommonSourceGraph,
        CrashSchedule, EventuallyStable, Figure1Schedule, IsolationThenBase, NoisySchedule, PTrue,
        PartitionSchedule, Psrcs, Theorem2Schedule,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let s = Figure1Schedule::new();
        let algs = KSetAgreement::spawn_all(6, &Figure1Schedule::example_inputs());
        let (trace, _) = run_lockstep(&s, algs, RunUntil::AllDecided { max_rounds: 40 });
        assert!(trace.all_decided());
        assert!(trace.distinct_decision_values().len() <= 3);
    }
}
