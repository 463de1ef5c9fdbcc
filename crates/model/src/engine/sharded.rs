//! Sharded round engine: `k` processes per OS thread.
//!
//! Algorithm 1 is a *full-information, anonymous-code* protocol — every
//! process runs the same per-round estimator — so nothing about the model
//! requires the `n` processes to be `n` schedulable entities. This engine
//! assigns each worker thread a **contiguous shard** of processes and
//! drives all of them through the round structure sequentially inside the
//! thread, recovering lockstep-like efficiency per shard while keeping
//! real inter-thread message passing between shards (`ShardPlan::new(n)`
//! is the one-thread-per-process extreme).
//!
//! A sharded run is the one-instance case of the multiplex tick loop
//! ([`super::multiplex`]), the only shard worker: one instance admitted at
//! tick 1, so each tick is one round. Per round, every shard pair exchanges
//! exactly one batch through an mpsc inbox, a message between two
//! processes of the same shard is an `Arc` clone that never touches a
//! channel, and one [`crate::sync::RoundBarrier`] phase closes the round.
//!
//! Like the other engines, the trace and the final algorithm states are
//! **bit-identical** to [`super::lockstep`] for the same schedule and
//! algorithms (asserted by `tests/engines_equiv.rs` across shard counts and
//! horizons): runs are fully determined by initial states plus the graph
//! sequence, and sharding introduces no nondeterminism.

use std::ops::Range;

use crate::algorithm::RoundAlgorithm;
use crate::engine::multiplex::{run_in_process, MuxInstance};
use crate::engine::RunUntil;
use crate::fault::{ArcTransport, CodecTransport, FaultPlane};
use crate::schedule::Schedule;
use crate::trace::RunTrace;
use crate::wire::{Wire, WireSized};

/// How [`run_sharded`] divides the system across worker threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of worker threads; each owns a contiguous range of
    /// processes. A solo run clamps it to `1..=n` (a shard never owns zero
    /// processes, except of an empty universe); a multiplexed run keeps
    /// every shard and only clamps zero to one.
    pub shards: usize,
}

impl ShardPlan {
    /// A plan with `shards` worker threads.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardPlan { shards }
    }

    /// One shard per available core (clamped to `n`): the configuration
    /// that minimizes context switches for a CPU-bound simulation.
    pub fn auto(n: usize) -> Self {
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        ShardPlan::new(cores.min(n.max(1)))
    }

    /// The number of worker threads a solo run over `n` processes uses:
    /// `shards` clamped to `1..=n`, and 1 for an empty universe. Shared
    /// with the socket engine, which partitions the universe identically.
    pub(crate) fn workers(&self, n: usize) -> usize {
        self.shards.min(n).max(1)
    }
}

/// Splits a universe of `n` processes into exactly `shards` contiguous
/// ranges whose lengths differ by at most one. Does **not** clamp, so
/// trailing ranges may be empty — the multiplex engine relies on that to
/// keep every worker in every instance.
pub(crate) fn split_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    // Shard `s` starts after `s` full shares, plus one process for each
    // earlier shard that takes one of the `n % shards` leftovers.
    let start = |s: usize| s * (n / shards) + s.min(n % shards);
    (0..shards).map(|s| start(s)..start(s + 1)).collect()
}

/// Runs `algs` against `schedule` on `plan.shards` worker threads, each
/// owning a contiguous shard of processes.
///
/// Semantically identical to [`super::run_lockstep`]; see the module docs
/// for the synchronization protocol and `docs/CONCURRENCY.md` for how the
/// engines relate.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or a worker thread panics.
pub fn run_sharded<S, A>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: ShardPlan,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
{
    // `&S` is a sized `Schedule` even where `S` is not, so `&schedule`
    // passes as the instance's `&dyn Schedule`.
    let solo = vec![MuxInstance::new(&schedule, algs, until)];
    run_in_process(solo, plan.workers(schedule.n()), &ArcTransport).remove(0)
}

/// [`run_sharded`] in codec-boundary mode: every payload — including
/// intra-shard hand-offs, which never cross a channel — travels as an
/// encoded, checksummed frame through `plane` and is decoded back at the
/// receiver (see [`crate::fault`]). Frames the plane destroys are recorded
/// in the trace's [`crate::fault::FaultStats`] and treated as drops; with
/// [`crate::fault::NoFaults`] the result is trace- and stats-identical to
/// [`run_sharded`].
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or a worker thread panics.
pub fn run_sharded_codec<S, A, P>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: ShardPlan,
    plane: &P,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    let solo = vec![MuxInstance::new(&schedule, algs, until)];
    let transport = CodecTransport::new(plane);
    run_in_process(solo, plan.workers(schedule.n()), &transport).remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixture::{ring_then_complete, spawn};
    use crate::engine::lockstep::run_lockstep;
    use crate::schedule::FixedSchedule;

    #[test]
    fn shard_ranges_are_contiguous_and_balanced() {
        let ranges = |plan: ShardPlan, n| split_ranges(n, plan.workers(n));
        let plan = ShardPlan::new(3);
        assert_eq!(ranges(plan, 8), vec![0..3, 3..6, 6..8]);
        assert_eq!(ranges(plan, 2), vec![0..1, 1..2]); // clamped to n
        assert_eq!(ranges(ShardPlan::new(1), 5), vec![0..5]);
        assert_eq!(ranges(plan, 0), vec![0..0]); // one shard, owning nothing
        assert!(ShardPlan::auto(6).shards >= 1);
    }

    #[test]
    fn sharded_matches_lockstep_on_synchronous_runs() {
        for n in [1usize, 2, 3, 8, 16] {
            for shards in [1usize, 2, 3, 5] {
                let s = FixedSchedule::synchronous(n);
                let until = RunUntil::AllDecided { max_rounds: 20 };
                let (t1, _) = run_lockstep(&s, spawn(n, 3), until);
                let (t2, _) = run_sharded(&s, spawn(n, 3), until, ShardPlan::new(shards));
                assert_eq!(t1.decisions, t2.decisions, "n={n} shards={shards}");
                assert_eq!(t1.rounds_executed, t2.rounds_executed);
                assert_eq!(t1.msg_stats, t2.msg_stats);
                assert!(t2.anomalies.is_empty());
            }
        }
    }

    #[test]
    fn sharded_matches_lockstep_on_dynamic_graphs_under_fixed_horizon() {
        // every horizon up to the run's, including the one-round h = 1.
        let n = 6;
        let s = ring_then_complete(n);
        for horizon in 1..=8 {
            let until = RunUntil::Rounds(horizon);
            let (t1, _) = run_lockstep(&s, spawn(n, 5), until);
            let (t2, _) = run_sharded(&s, spawn(n, 5), until, ShardPlan::new(3));
            assert_eq!(t1.decisions, t2.decisions, "horizon={horizon}");
            assert_eq!(t1.msg_stats, t2.msg_stats, "horizon={horizon}");
            assert_eq!(t1.rounds_executed, t2.rounds_executed);
        }
    }

    #[test]
    fn one_process_per_shard_matches_coarser_shards() {
        let n = 9;
        let s = FixedSchedule::synchronous(n);
        let until = RunUntil::AllDecided { max_rounds: 12 };
        let (a, _) = run_sharded(&s, spawn(n, 4), until, ShardPlan::new(n));
        let (b, _) = run_sharded(&s, spawn(n, 4), until, ShardPlan::new(4));
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.msg_stats, b.msg_stats);
    }

    #[test]
    fn stops_when_everyone_decided() {
        let s = FixedSchedule::synchronous(4);
        let (trace, _) = run_sharded(
            &s,
            spawn(4, 2),
            RunUntil::AllDecided { max_rounds: 50 },
            ShardPlan::new(2),
        );
        assert!(trace.all_decided());
        assert_eq!(trace.rounds_executed, 2);
    }

    #[test]
    fn more_shards_than_processes_clamps() {
        let s = FixedSchedule::synchronous(3);
        let (trace, algs) = run_sharded(
            &s,
            spawn(3, 2),
            RunUntil::AllDecided { max_rounds: 10 },
            ShardPlan::new(64),
        );
        assert!(trace.all_decided());
        assert_eq!(algs.len(), 3);
    }

    #[test]
    fn single_process_run() {
        let s = FixedSchedule::synchronous(1);
        let (trace, algs) = run_sharded(
            &s,
            spawn(1, 1),
            RunUntil::AllDecided { max_rounds: 5 },
            ShardPlan::new(1),
        );
        assert!(trace.all_decided());
        assert_eq!(algs.len(), 1);
    }

    #[test]
    fn returned_algorithms_preserve_process_order() {
        let n = 7;
        let s = FixedSchedule::synchronous(n);
        let (_, algs) = run_sharded(&s, spawn(n, 2), RunUntil::Rounds(4), ShardPlan::new(3));
        // MinFlood converges to the global minimum everywhere, so check the
        // order via the decision slots instead: all were set at round 2.
        assert_eq!(algs.len(), n);
        for a in &algs {
            assert_eq!(a.decision(), Some(10)); // min input = 10
        }
    }
}
