//! Deterministic single-threaded round engine.

use std::convert::Infallible;
use std::sync::Arc;

use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::algorithm::{Received, RoundAlgorithm};
use crate::engine::{settle, RunUntil};
use crate::fault::{ArcTransport, CodecTransport, DecodeCache, FaultPlane, Transport};
use crate::schedule::Schedule;
use crate::trace::RunTrace;
use crate::wire::{Wire, WireSized};

/// Runs `algs` (one instance per process, index = process index) against
/// `schedule` until `until` triggers. Returns the trace and the final
/// algorithm states for post-mortem inspection.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()`.
pub fn run_lockstep<S, A>(schedule: &S, algs: Vec<A>, until: RunUntil) -> (RunTrace, Vec<A>)
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
{
    run_lockstep_observed(schedule, algs, until, |_, _: &[A]| {})
}

/// [`run_lockstep`] in codec-boundary mode: every payload travels as an
/// encoded, checksummed frame through `plane` and is decoded back at the
/// receiver (see [`crate::fault`]). Frames the plane destroys are recorded
/// in the trace's [`crate::fault::FaultStats`] and treated as drops; with
/// [`crate::fault::NoFaults`] the result is trace- and stats-identical to
/// [`run_lockstep`].
///
/// # Panics
/// Panics if `algs.len() != schedule.n()`.
pub fn run_lockstep_codec<S, A, P>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plane: &P,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    let Ok(out) = run_transport(
        schedule,
        algs,
        until,
        &CodecTransport::new(plane),
        FIRST_ROUND,
        RunTrace::new(schedule.n()),
        |_, _, _, _| Ok::<(), Infallible>(()),
    );
    out
}

/// Like [`run_lockstep`], but invokes `observer(r, &algs)` at the end of
/// every round `r` (after all transition functions ran). Used to capture
/// per-round internal state — e.g. `p6`'s approximation graph in Figure 1 —
/// and to check the paper's lemma invariants round by round.
pub fn run_lockstep_observed<S, A, O>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    mut observer: O,
) -> (RunTrace, Vec<A>)
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    O: FnMut(Round, &[A]),
{
    let Ok(out) = run_transport(
        schedule,
        algs,
        until,
        &ArcTransport,
        FIRST_ROUND,
        RunTrace::new(schedule.n()),
        |r, _, algs, _| {
            observer(r, algs);
            Ok::<(), Infallible>(())
        },
    );
    out
}

/// The engine body, generic over the payload path: [`ArcTransport`] is the
/// classic shared-reference hand-off, [`CodecTransport`] the framed byte
/// path with fault injection. The structure (and, under a no-op plane, the
/// accounting) is identical either way; faults only surface as dropped or
/// quarantined frames at delivery time.
///
/// Runs rounds `start, start + 1, …` into `trace`, which already holds
/// whatever earlier rounds recorded (a journal resume replays those).
/// After each round, once decisions are polled, `end_of_round(r, frames,
/// algs, trace)` sees the round's packed broadcast frames; its first
/// error ends the run. Observers and the journal writer are such hooks
/// and only read the states; the crash/restart drill's hook also swaps a
/// restarted process's rebuilt state in, which the next round then runs.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()`.
pub(crate) fn run_transport<S, A, T, E>(
    schedule: &S,
    mut algs: Vec<A>,
    until: RunUntil,
    transport: &T,
    start: Round,
    mut trace: RunTrace,
    mut end_of_round: impl FnMut(Round, &[T::Frame], &mut [A], &RunTrace) -> Result<(), E>,
) -> Result<(RunTrace, Vec<A>), E>
where
    S: Schedule + ?Sized,
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
{
    let n = schedule.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );

    // Round-loop buffers, reused across rounds: the communication graph,
    // the broadcast vector, its packed frames, one delivery vector and one
    // decode memo per sender, which every untampered receiver of that
    // sender's frame shares.
    let mut g = Digraph::empty(n);
    let mut msgs: Vec<Arc<A::Msg>> = Vec::with_capacity(n);
    let mut frames: Vec<T::Frame> = Vec::with_capacity(n);
    let mut rcv: Received<A::Msg> = Received::new(n);
    let mut memos: Vec<DecodeCache<A::Msg>> = (0..n).map(|_| DecodeCache::new()).collect();

    let mut r: Round = start;
    loop {
        schedule.graph_into(r, &mut g);
        debug_assert_eq!(g.n(), n, "schedule emitted graph over wrong universe");

        // Sending functions S_p^r (state at beginning of round r). Clearing
        // first drops the previous round's message handles, so estimators
        // double-buffering their payload can reclaim the old buffer.
        msgs.clear();
        msgs.extend(algs.iter().map(|a| Arc::new(a.send(r))));
        frames.clear();
        frames.extend(msgs.iter().map(|m| transport.pack(m)));

        // Accounting — one walk per sender per round. Deliveries count the
        // frames the fault plane will let through (the plane is a pure
        // function both sides evaluate identically), so the stats describe
        // traffic that actually reached a receiver.
        for (p, m) in msgs.iter().enumerate() {
            let me = ProcessId::from_usize(p);
            let receivers = transport.delivered_count(r, me, g.out_neighbors(me));
            trace
                .msg_stats
                .add_broadcast(m.wire_bytes() as u64, receivers);
        }

        // Deliveries along G^r, then transition functions T_p^r.
        for (p, alg) in algs.iter_mut().enumerate() {
            let me = ProcessId::from_usize(p);
            rcv.clear();
            for q in g.in_neighbors(me).iter() {
                let frame = frames[q.index()].clone();
                let d = transport.unpack(r, q, me, frame, &mut memos[q.index()]);
                if let Some(m) = settle(d, r, q, me, &mut trace.faults) {
                    rcv.insert(q, m);
                }
            }
            alg.receive(r, &rcv);
        }
        // Drop this round's handles so `send` state can be reclaimed at the
        // start of the next round, and free the decodes the memos hold
        // before the next round allocates (keeping them a round longer
        // grew perfbench `journal_recover`'s peak RSS by ~1 MiB).
        rcv.clear();
        memos.fill_with(DecodeCache::new);

        // Poll decisions.
        for (p, alg) in algs.iter().enumerate() {
            if let Some(v) = alg.decision() {
                trace.record_decision(ProcessId::from_usize(p), r, v);
            }
        }

        trace.rounds_executed = r;
        end_of_round(r, &frames, &mut algs, &trace)?;

        if until.should_stop(r, trace.all_decided()) {
            break;
        }
        r += 1;
    }

    trace.faults.finalize();
    Ok((trace, algs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixture::{decodes, spawn};
    use crate::fault::NoFaults;
    use crate::schedule::{FixedSchedule, TableSchedule};

    #[test]
    fn synchronous_min_flood_reaches_consensus() {
        let s = FixedSchedule::synchronous(5);
        let (trace, _) = run_lockstep(&s, spawn(5, 2), RunUntil::AllDecided { max_rounds: 10 });
        assert!(trace.all_decided());
        assert_eq!(trace.distinct_decision_values(), vec![10]);
        assert_eq!(trace.rounds_executed, 2);
        assert!(trace.anomalies.is_empty());
    }

    #[test]
    fn partitioned_run_keeps_values_apart() {
        // two cliques {0,1} and {2,3}, never talking
        let mut g = Digraph::empty(4);
        g.add_self_loops();
        g.add_edge(ProcessId::new(0), ProcessId::new(1));
        g.add_edge(ProcessId::new(1), ProcessId::new(0));
        g.add_edge(ProcessId::new(2), ProcessId::new(3));
        g.add_edge(ProcessId::new(3), ProcessId::new(2));
        let s = FixedSchedule::new(g);
        let (trace, _) = run_lockstep(&s, spawn(4, 3), RunUntil::AllDecided { max_rounds: 10 });
        assert_eq!(trace.distinct_decision_values(), vec![10, 30]);
    }

    #[test]
    fn message_stats_count_edges() {
        let s = FixedSchedule::synchronous(3);
        let (trace, _) = run_lockstep(&s, spawn(3, 1), RunUntil::Rounds(2));
        // 3 broadcasts per round × 2 rounds
        assert_eq!(trace.msg_stats.broadcasts, 6);
        // complete graph: every broadcast reaches n = 3 receivers
        assert_eq!(trace.msg_stats.deliveries, 18);
        // u64 messages: 1 byte per varint here
        assert_eq!(trace.msg_stats.broadcast_bytes, 6);
        assert_eq!(trace.msg_stats.delivered_bytes, 18);
    }

    #[test]
    fn codec_receivers_share_each_broadcast_decode() {
        // 6 senders, 6 receivers each: one decode per broadcast, not per
        // delivery.
        let s = FixedSchedule::synchronous(6);
        let before = decodes();
        let (trace, _) = run_lockstep_codec(&s, spawn(6, 3), RunUntil::Rounds(5), &NoFaults);
        assert_eq!(trace.msg_stats.deliveries, 180);
        assert_eq!(decodes() - before, 30);
    }

    #[test]
    fn observer_sees_every_round() {
        let s = FixedSchedule::synchronous(2);
        let mut seen = Vec::new();
        let (_, _) = run_lockstep_observed(&s, spawn(2, 100), RunUntil::Rounds(5), |r, states| {
            seen.push((r, states.len()));
        });
        assert_eq!(seen, vec![(1, 2), (2, 2), (3, 2), (4, 2), (5, 2)]);
    }

    #[test]
    fn run_until_rounds_is_exact() {
        let s = FixedSchedule::synchronous(2);
        let (trace, _) = run_lockstep(&s, spawn(2, 1), RunUntil::Rounds(7));
        assert_eq!(trace.rounds_executed, 7);
        // decision round is when it was first observed, not when run ended
        assert_eq!(trace.decision_of(ProcessId::new(0)).unwrap().round, 1);
    }

    #[test]
    fn table_schedule_drives_dynamic_graphs() {
        // round 1: p1 does not hear p2; round 2+: complete
        let mut g1 = Digraph::complete(2);
        g1.remove_edge(ProcessId::new(1), ProcessId::new(0));
        let s = TableSchedule::new(vec![g1], Digraph::complete(2));
        let (trace, _) = run_lockstep(&s, spawn(2, 1), RunUntil::Rounds(3));
        // p1 decided at round 1 without hearing p2's smaller value
        assert_eq!(trace.decision_of(ProcessId::new(0)).unwrap().value, 20);
        assert_eq!(trace.decision_of(ProcessId::new(1)).unwrap().value, 10);
    }
}
