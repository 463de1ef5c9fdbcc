//! Crash/restart recovery and the durable run store: kill a process
//! mid-run, rebuild it from a journal, and end up byte-identical to never
//! having crashed.
//!
//! [`run_lockstep_journaled`] is the codec lockstep round body plus a hook
//! that appends each round's sealed frames, and a snapshot at every cut
//! point all processes share, to a journal. [`resume_from_journal`]
//! restarts a killed run from the bytes such a journal left behind.
//!
//! [`run_lockstep_recovering`] is the same journaled run, into memory, over
//! a [`CrashRestartOverlay`]. A down process keeps executing through its
//! window: the overlay leaves it only its self-loop, so it hears nobody
//! and nobody hears it. When the window ends (at the end of round
//! `restart − 1`, or at run end for windows still open) its state is
//! discarded and rebuilt from the journal: the last snapshot cut before
//! `kill`, plus every later round record replayed into it. Rounds are
//! communication-closed, so those records hold everything the process
//! received since the cut.
//!
//! Both replays go through one step, `deliver`: a process's in-edges in
//! the round's graph, carrying the round record's frames through the pure
//! fault plane and a decode memo per sender. A resume opens each frame
//! once to validate it and account its bytes, and that decode is the one
//! all of the frame's untampered deliveries share. The drill records
//! every trace component live, the down process's isolated rounds
//! included, exactly as [`super::run_lockstep_codec`] does, so its trace
//! is byte-identical to that run's and its rebuilt states equal the
//! uninterrupted run's (pinned by the tests below and by
//! `tests/fault_plane.rs` for Algorithm 1): recovery is indistinguishable
//! from never having crashed.

use std::io::Write;

use bytes::Bytes;
use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::adversary::CrashRestartOverlay;
use crate::algorithm::{Received, Recoverable};
use crate::engine::lockstep::run_transport;
use crate::engine::{settle, RunUntil};
use crate::fault::{CodecTransport, DecodeCache, FaultPlane, FaultStats, Transport};
use crate::journal::{
    scan, JournalHeader, JournalWriter, ResumeError, RoundRecord, RunMeta, SnapshotRecord,
    ENGINE_LOCKSTEP_JOURNALED, JOURNAL_VERSION,
};
use crate::schedule::Schedule;
use crate::trace::RunTrace;
use crate::wire::{Wire, WireError, WireSized};

/// Runs `algs` against `overlay` in codec-boundary mode, executing each
/// down window as a real restart: when the window ends, the process's
/// state is discarded and rebuilt from the run's in-memory journal (see
/// the module docs). The trace and the final states are byte-identical to
/// [`super::run_lockstep_codec`]`(&overlay, …, plane)`, under either stop
/// condition.
///
/// # Panics
/// Panics if `algs.len() != overlay.n()`.
pub fn run_lockstep_recovering<S, A, P>(
    overlay: &CrashRestartOverlay<S>,
    algs: Vec<A>,
    until: RunUntil,
    plane: &P,
) -> (RunTrace, Vec<A>)
where
    S: Schedule,
    A: Recoverable,
    A::Msg: Wire,
    P: FaultPlane,
{
    // The journal is bytes this run writes into memory and reads back, so
    // neither appending to it nor replaying it can fail.
    const OWN_JOURNAL: &str = "the drill replays the journal it just wrote";
    let transport = CodecTransport::new(plane);
    let mut journal = Vec::new();
    let meta = RunMeta {
        seed: 0,
        rebase_limit: 0,
    };
    start_journal(&mut journal, &meta, &algs).expect(OWN_JOURNAL);
    let (trace, mut algs) = run_transport(
        overlay,
        algs,
        until,
        &transport,
        FIRST_ROUND,
        RunTrace::new(overlay.n()),
        |r, frames, algs, trace| {
            let mut writer = JournalWriter::resume(&mut journal);
            journal_round(&mut writer, r, frames, algs, trace)?;
            // A window ending here: its process rejoins in round `r + 1`.
            for &(p, kill, restart) in overlay.windows() {
                if restart == r + 1 {
                    algs[p.index()] = recover(overlay, &journal, p, kill, &transport)?;
                }
            }
            Ok::<(), ResumeError>(())
        },
    )
    .expect(OWN_JOURNAL);
    // Windows still open when the run stopped end with it.
    let last = trace.rounds_executed;
    for &(p, kill, restart) in overlay.windows() {
        if kill <= last && restart > last + 1 {
            algs[p.index()] = recover(overlay, &journal, p, kill, &transport).expect(OWN_JOURNAL);
        }
    }
    (trace, algs)
}

/// Rebuilds process `p`, down since round `kill`, from the drill's
/// journal: restores the last snapshot cut before `kill` and replays every
/// later round record into it through [`deliver`]. For Algorithm 1 and
/// the test fixture, the journal's all-process cuts are the rounds `p`
/// would pick by itself. The replayed rounds' faults were filed when they
/// ran live, so the ledger this replay fills is discarded.
fn recover<S, A, T>(
    schedule: &S,
    journal: &[u8],
    p: ProcessId,
    kill: Round,
    transport: &T,
) -> Result<A, WireError>
where
    S: Schedule + ?Sized,
    A: Recoverable,
    T: Transport<A::Msg, Frame = Bytes>,
{
    let scanned = scan(journal)?;
    let cut = scanned
        .snapshots
        .iter()
        .rev()
        .find(|s| s.round < kill)
        .ok_or(WireError::InvalidValue("no snapshot before the kill"))?;
    let snap = cut
        .snaps
        .get(p.index())
        .ok_or(WireError::InvalidValue("snapshot universe mismatch"))?;
    let mut alg = A::restore(snap.as_slice())?;
    let n = schedule.n();
    let mut g = Digraph::empty(n);
    let mut rcv = Received::new(n);
    let mut memos: Vec<DecodeCache<A::Msg>> = (0..n).map(|_| DecodeCache::new()).collect();
    let mut faults = FaultStats::new();
    for rec in scanned.rounds.iter().filter(|rec| rec.round > cut.round) {
        schedule.graph_into(rec.round, &mut g);
        deliver(rec, &g, p, transport, &mut memos, &mut faults, &mut rcv)?;
        alg.receive(rec.round, &rcv);
    }
    Ok(alg)
}

/// The one replay step: fills `rcv` with what `p` received of round record
/// `rec` along its in-edges in `g`, that round's graph. Every frame goes
/// through the pure fault plane, which decides each edge as it did live;
/// the frames it destroys are filed in `faults`. `memos` holds one decode
/// memo per sender, shared by the untampered deliveries of its frame.
fn deliver<M, T>(
    rec: &RoundRecord,
    g: &Digraph,
    p: ProcessId,
    transport: &T,
    memos: &mut [DecodeCache<M>],
    faults: &mut FaultStats,
    rcv: &mut Received<M>,
) -> Result<(), WireError>
where
    T: Transport<M, Frame = Bytes>,
{
    rcv.clear();
    for q in g.in_neighbors(p).iter() {
        let (Some(frame), Some(memo)) = (rec.frames.get(q.index()), memos.get_mut(q.index()))
        else {
            return Err(WireError::InvalidValue("round record universe mismatch"));
        };
        let d = transport.unpack(rec.round, q, p, frame.clone(), memo);
        if let Some(m) = settle(d, rec.round, q, p, faults) {
            rcv.insert(q, m);
        }
    }
    Ok(())
}

/// [`super::run_lockstep_codec`] with a durable on-disk journal: before
/// round 1 the header and an initial snapshot (cut 0) are appended to
/// `sink`, every round appends its `n` sealed broadcast frames, and every
/// round where all algorithms report [`Recoverable::snapshot_due`]
/// appends a fresh snapshot — each record flushed before the run
/// proceeds, so a process killed at any byte leaves a resumable prefix
/// (see [`resume_from_journal`]).
///
/// The trace is byte-identical to [`super::run_lockstep_codec`] over the
/// same schedule, plane and stop condition: journaling is pure
/// observation.
///
/// # Errors
/// Returns the first `sink` write/flush failure.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()`.
pub fn run_lockstep_journaled<S, A, P, W>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plane: &P,
    meta: &RunMeta,
    sink: W,
) -> std::io::Result<(RunTrace, Vec<A>)>
where
    S: Schedule + ?Sized,
    A: Recoverable,
    A::Msg: Wire,
    P: FaultPlane,
    W: Write,
{
    let n = schedule.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );
    let mut writer = start_journal(sink, meta, &algs)?;
    run_transport(
        schedule,
        algs,
        until,
        &CodecTransport::new(plane),
        FIRST_ROUND,
        RunTrace::new(n),
        |r, frames, algs, trace| journal_round(&mut writer, r, frames, algs, trace),
    )
}

/// Starts a journal in `sink`: the header, then the cut-0 snapshot of
/// `algs`.
fn start_journal<A, W>(sink: W, meta: &RunMeta, algs: &[A]) -> std::io::Result<JournalWriter<W>>
where
    A: Recoverable,
    W: Write,
{
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        n: algs.len(),
        seed: meta.seed,
        engine: ENGINE_LOCKSTEP_JOURNALED,
        rebase_limit: meta.rebase_limit,
    };
    let mut writer = JournalWriter::create(sink, &header)?;
    writer.append_snapshot(&snapshot_record(0, &RunTrace::new(algs.len()), algs))?;
    Ok(writer)
}

/// The journaling end-of-round hook: appends round `r`'s sealed frames
/// (the round is replayable from then on), then a snapshot record if
/// every algorithm reports `snapshot_due`.
fn journal_round<A, W>(
    writer: &mut JournalWriter<W>,
    r: Round,
    frames: &[Bytes],
    algs: &[A],
    trace: &RunTrace,
) -> std::io::Result<()>
where
    A: Recoverable,
    W: Write,
{
    writer.append_round(&RoundRecord {
        round: r,
        frames: frames.to_vec(),
    })?;
    if algs.iter().all(|a| a.snapshot_due(r)) {
        writer.append_snapshot(&snapshot_record(r, trace, algs))?;
    }
    Ok(())
}

/// The cut-`r` snapshot record of a run in progress.
fn snapshot_record<A: Recoverable>(r: Round, trace: &RunTrace, algs: &[A]) -> SnapshotRecord {
    SnapshotRecord {
        round: r,
        decisions: trace.decisions.clone(),
        anomalies: trace.anomalies.clone(),
        snaps: algs.iter().map(Recoverable::snapshot).collect(),
    }
}

/// Restarts a [`run_lockstep_journaled`] run from the bytes its killed
/// predecessor left behind: restores every process from the last durable
/// snapshot, **replays** the journaled rounds — recomputing message
/// statistics and the fault ledger by re-running each round's deliveries
/// through `plane` (the plane is pure, so the outcomes are the original
/// run's) — and continues live from the first unjournaled round,
/// appending continuation records to `sink` (which must be positioned at
/// the end of the journal's durable prefix). The resulting trace and
/// final states are byte-identical to the uninterrupted run.
///
/// # Errors
/// [`ResumeError::Wire`] on undecodable or inconsistent journal bytes —
/// including a schedule whose universe does not match the header, a
/// journal written by a different engine, or one killed before its first
/// snapshot became durable. [`ResumeError::Io`] if appending
/// continuation records to `sink` fails. Never panics on any journal
/// bytes: this function is a `sskel-lint` never-panic zone.
pub fn resume_from_journal<S, A, P, W>(
    schedule: &S,
    bytes: &[u8],
    until: RunUntil,
    plane: &P,
    sink: W,
) -> Result<(RunTrace, Vec<A>), ResumeError>
where
    S: Schedule + ?Sized,
    A: Recoverable,
    A::Msg: Wire,
    P: FaultPlane,
    W: Write,
{
    let scanned = scan(bytes)?;
    if scanned.header.engine != ENGINE_LOCKSTEP_JOURNALED {
        return Err(WireError::InvalidValue("journal written by a different engine").into());
    }
    let n = schedule.n();
    if scanned.header.n != n {
        return Err(WireError::InvalidValue("journal universe does not match schedule").into());
    }
    let last = scanned
        .snapshots
        .last()
        .ok_or(WireError::InvalidValue("journal holds no durable snapshot"))?;
    let cut = last.round;
    let mut algs: Vec<A> = last
        .snaps
        .iter()
        .map(|s| A::restore(s.as_slice()))
        .collect::<Result<_, WireError>>()?;
    let mut trace = RunTrace::new(n);
    trace.decisions.clear();
    trace.decisions.extend(last.decisions.iter().copied());
    trace.anomalies.extend(last.anomalies.iter().cloned());

    // Replay every journaled round through the fault plane. Rounds at or
    // before the cut only rebuild the accounting (the snapshot already
    // holds the algorithms' state); rounds after it also re-feed the
    // algorithms and re-poll decisions.
    let transport = CodecTransport::new(plane);
    let mut g = Digraph::empty(n);
    let mut rcv: Received<A::Msg> = Received::new(n);
    let mut memos: Vec<DecodeCache<A::Msg>> = (0..n).map(|_| DecodeCache::new()).collect();
    for rec in &scanned.rounds {
        let r = rec.round;
        schedule.graph_into(r, &mut g);
        for (p, (frame, memo)) in rec.frames.iter().zip(&mut memos).enumerate() {
            // Each sender's frame is opened once: the byte accounting
            // needs the message, an adversarial journal whose frame holds
            // no valid message is rejected here, and the decode is the one
            // the frame's untampered deliveries share.
            let me = ProcessId::from_usize(p);
            let m = memo.open(r, me, frame)?;
            let cnt = <CodecTransport<&P> as Transport<A::Msg>>::delivered_count(
                &transport,
                r,
                me,
                g.out_neighbors(me),
            );
            trace.msg_stats.add_broadcast(m.wire_bytes() as u64, cnt);
        }
        for (p, alg) in algs.iter_mut().enumerate() {
            deliver(
                rec,
                &g,
                ProcessId::from_usize(p),
                &transport,
                &mut memos,
                &mut trace.faults,
                &mut rcv,
            )?;
            if r > cut {
                alg.receive(r, &rcv);
            }
        }
        rcv.clear();
        if r > cut {
            for (p, alg) in algs.iter().enumerate() {
                if let Some(v) = alg.decision() {
                    trace.record_decision(ProcessId::from_usize(p), r, v);
                }
            }
        }
        trace.rounds_executed = r;
        // Before the cut the decisions are the snapshot's — those at the
        // cut, not at `r` — so no verdict can be evaluated there, and none
        // is needed: the journal holds rounds past `r`, so the original
        // run did not stop at `r`.
        if r >= cut && until.should_stop(r, trace.all_decided()) {
            trace.faults.finalize();
            return Ok((trace, algs));
        }
    }

    // Continue live from the first unjournaled round.
    let next = scanned
        .rounds
        .last()
        .map_or(FIRST_ROUND, |rec| rec.round + 1);
    let mut writer = JournalWriter::resume(sink);
    run_transport(
        schedule,
        algs,
        until,
        &transport,
        next,
        trace,
        |r, frames, algs, trace| journal_round(&mut writer, r, frames, algs, trace),
    )
    .map_err(ResumeError::from)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use crate::algorithm::{RoundAlgorithm, Value};
    use crate::engine::fixture::{decodes, ring_then_complete, spawn, Flood, MinFlood};
    use crate::engine::lockstep::run_lockstep_codec;
    use crate::fault::{seal, CorruptionOverlay, NoFaults};
    use crate::schedule::FixedSchedule;

    fn assert_traces_identical(a: &RunTrace, b: &RunTrace) {
        if let Some(d) = crate::journal::diff_run_traces(a, b) {
            panic!("traces diverge — {d}");
        }
    }

    #[test]
    fn no_windows_matches_plain_codec_run() {
        let n = 5;
        let overlay = CrashRestartOverlay::new(FixedSchedule::synchronous(n), vec![]);
        let until = RunUntil::Rounds(9);
        let (t1, a1) = run_lockstep_codec(&overlay, spawn(n, 3), until, &NoFaults);
        let (t2, a2) = run_lockstep_recovering(&overlay, spawn(n, 3), until, &NoFaults);
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn killed_and_resumed_process_is_indistinguishable() {
        let n = 6;
        for (kill, restart) in [(2u32, 5u32), (1, 4), (4, 4), (3, 20)] {
            let overlay = CrashRestartOverlay::new(
                FixedSchedule::synchronous(n),
                vec![(ProcessId::new(2), kill, restart)],
            );
            for until in [
                RunUntil::Rounds(12),
                RunUntil::AllDecided { max_rounds: 12 },
            ] {
                let (t1, a1) = run_lockstep_codec(&overlay, spawn(n, 3), until, &NoFaults);
                let (t2, a2) = run_lockstep_recovering(&overlay, spawn(n, 3), until, &NoFaults);
                assert_traces_identical(&t1, &t2);
                assert_eq!(a1, a2, "kill={kill} restart={restart} {until:?}");
            }
        }
    }

    thread_local! {
        static RESTORES: Cell<usize> = const { Cell::new(0) };
    }

    /// [`MinFlood`] counting its restores in [`RESTORES`].
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Counted(MinFlood);

    impl RoundAlgorithm for Counted {
        type Msg = Flood;
        fn send(&self, r: Round) -> Flood {
            self.0.send(r)
        }
        fn receive(&mut self, r: Round, received: &Received<Flood>) {
            self.0.receive(r, received);
        }
        fn decision(&self) -> Option<Value> {
            self.0.decision()
        }
    }

    impl Recoverable for Counted {
        fn snapshot(&self) -> Bytes {
            self.0.snapshot()
        }
        fn restore(bytes: &[u8]) -> Result<Self, WireError> {
            RESTORES.with(|c| c.set(c.get() + 1));
            MinFlood::restore(bytes).map(Counted)
        }
        fn snapshot_due(&self, r: Round) -> bool {
            self.0.snapshot_due(r)
        }
    }

    #[test]
    fn every_window_that_opened_is_rebuilt_once() {
        // Process 1 is down in rounds 2–4 and rejoins inside the horizon;
        // process 4 goes down at round 7 and is still down at run end.
        // Process 1 decides its own 50 while down, so a rebuild that skips
        // or misroutes the replay decides 10 instead.
        let n = 6;
        let overlay = CrashRestartOverlay::new(
            ring_then_complete(n),
            vec![(ProcessId::new(1), 2, 5), (ProcessId::new(4), 7, 30)],
        );
        let until = RunUntil::Rounds(12);
        let spawn_counted = || spawn(n, 3).into_iter().map(Counted).collect::<Vec<_>>();
        let (t1, a1) = run_lockstep_codec(&overlay, spawn_counted(), until, &NoFaults);
        RESTORES.with(|c| c.set(0));
        let (t2, a2) = run_lockstep_recovering(&overlay, spawn_counted(), until, &NoFaults);
        assert_eq!(RESTORES.with(Cell::get), 2);
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn recovery_composes_with_a_corruption_plane() {
        let n = 7;
        let plane = CorruptionOverlay::new(41, 0.3).quiet_after(8);
        let overlay = CrashRestartOverlay::seeded(FixedSchedule::synchronous(n), 2, 99);
        let until = RunUntil::Rounds(16);
        let (t1, a1) = run_lockstep_codec(&overlay, spawn(n, 3), until, &plane);
        let (t2, a2) = run_lockstep_recovering(&overlay, spawn(n, 3), until, &plane);
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
        assert!(!t2.faults.is_empty(), "rate 0.3 never fired");
    }

    fn meta() -> RunMeta {
        RunMeta {
            seed: 0xabcd,
            rebase_limit: 3,
        }
    }

    #[test]
    fn journaled_run_is_pure_observation() {
        let n = 5;
        let s = FixedSchedule::synchronous(n);
        for until in [RunUntil::Rounds(9), RunUntil::AllDecided { max_rounds: 9 }] {
            let (t1, a1) = run_lockstep_codec(&s, spawn(n, 3), until, &NoFaults);
            let mut journal = Vec::new();
            let (t2, a2) =
                run_lockstep_journaled(&s, spawn(n, 3), until, &NoFaults, &meta(), &mut journal)
                    .unwrap();
            assert_traces_identical(&t1, &t2);
            assert_eq!(a1, a2);
            let scanned = scan(&journal).unwrap();
            assert!(!scanned.truncated);
            assert_eq!(scanned.header.seed, 0xabcd);
            assert_eq!(scanned.rounds.len() as Round, t1.rounds_executed);
            // MinFlood snapshots every third round, plus the initial cut
            assert_eq!(
                scanned
                    .snapshots
                    .iter()
                    .map(|s| s.round)
                    .collect::<Vec<_>>(),
                (0..=t1.rounds_executed).step_by(3).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn resume_after_kill_at_any_record_boundary_is_byte_identical() {
        let n = 5;
        let s = FixedSchedule::synchronous(n);
        let plane = CorruptionOverlay::new(77, 0.25).quiet_after(6);
        let until = RunUntil::Rounds(10);
        let before = decodes();
        let (oracle_t, oracle_a) = run_lockstep_codec(&s, spawn(n, 3), until, &plane);
        // Untampered deliveries share their sender's one decode; a tampered
        // frame is decoded on its own edge, if at all (a drop is not, nor a
        // frame cut short of its checksum).
        let bound = n * 10 + oracle_t.faults.quarantined();
        assert!(decodes() - before <= bound);
        let mut journal = Vec::new();
        let before = decodes();
        let _ =
            run_lockstep_journaled(&s, spawn(n, 3), until, &plane, &meta(), &mut journal).unwrap();
        assert!(decodes() - before <= bound);
        let full = scan(&journal).unwrap();
        let first_snapshot_end = full.record_ends[1]; // header, then cut 0
        for &cut in &full.record_ends {
            let mut store = journal[..cut].to_vec();
            let prefix = store.clone();
            let before = decodes();
            let res =
                resume_from_journal::<_, MinFlood, _, _>(&s, &prefix, until, &plane, &mut store);
            if cut < first_snapshot_end {
                assert!(
                    matches!(res, Err(ResumeError::Wire(_))),
                    "no durable snapshot at {cut}"
                );
                continue;
            }
            let (t, a) = res.unwrap();
            assert!(decodes() - before <= bound, "kill at byte {cut}");
            assert_traces_identical(&oracle_t, &t);
            assert_eq!(oracle_a, a, "kill at byte {cut}");
            // the continuation journal is itself complete and scans clean
            let rescanned = scan(&store).unwrap();
            assert!(!rescanned.truncated);
            assert_eq!(rescanned.rounds.len() as Round, oracle_t.rounds_executed);
        }
        assert!(!oracle_t.faults.is_empty(), "rate 0.25 never fired");
    }

    #[test]
    fn resume_of_a_complete_journal_adds_no_rounds() {
        let n = 4;
        let s = FixedSchedule::synchronous(n);
        let until = RunUntil::AllDecided { max_rounds: 20 };
        let mut journal = Vec::new();
        let (t1, a1) =
            run_lockstep_journaled(&s, spawn(n, 2), until, &NoFaults, &meta(), &mut journal)
                .unwrap();
        let before = journal.len();
        let prefix = journal.clone();
        let decoded = decodes();
        let (t2, a2) =
            resume_from_journal::<_, MinFlood, _, _>(&s, &prefix, until, &NoFaults, &mut journal)
                .unwrap();
        // Each journaled frame is opened once, and its deliveries share
        // that decode.
        assert_eq!(decodes() - decoded, n * t1.rounds_executed as usize);
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
        assert_eq!(journal.len(), before, "pure replay appends nothing");
    }

    #[test]
    fn resume_of_a_journal_snapshotted_at_the_stop_round_replays_every_round() {
        // MinFlood decides and snapshots at round 3, so the last durable
        // snapshot already holds every decision of the round the run
        // stopped at.
        let n = 4;
        let s = FixedSchedule::synchronous(n);
        let until = RunUntil::AllDecided { max_rounds: 9 };
        let mut journal = Vec::new();
        let (t1, a1) =
            run_lockstep_journaled(&s, spawn(n, 3), until, &NoFaults, &meta(), &mut journal)
                .unwrap();
        assert_eq!(t1.rounds_executed, 3);
        assert_eq!(scan(&journal).unwrap().snapshots.last().unwrap().round, 3);
        let prefix = journal.clone();
        let (t2, a2) =
            resume_from_journal::<_, MinFlood, _, _>(&s, &prefix, until, &NoFaults, &mut journal)
                .unwrap();
        assert_eq!(t2.rounds_executed, 3);
        assert_eq!(t2.msg_stats.broadcasts, 12);
        assert_traces_identical(&t1, &t2);
        assert_eq!(a1, a2);
    }

    #[test]
    fn chained_kills_compose() {
        // kill → resume → kill the resumed run → resume again
        let n = 6;
        let s = FixedSchedule::synchronous(n);
        let plane = CorruptionOverlay::new(5, 0.2).quiet_after(7);
        let until = RunUntil::Rounds(12);
        let (oracle_t, oracle_a) = run_lockstep_codec(&s, spawn(n, 3), until, &plane);
        let mut journal = Vec::new();
        let _ =
            run_lockstep_journaled(&s, spawn(n, 3), until, &plane, &meta(), &mut journal).unwrap();
        let full = scan(&journal).unwrap();
        // first kill: mid-run, torn mid-record — the restarting process
        // truncates its store to the durable prefix before continuing
        let first = full.record_ends[4] + 3;
        let prefix = journal[..first].to_vec();
        let mut store = prefix[..scan(&prefix).unwrap().durable_len].to_vec();
        let _ = resume_from_journal::<_, MinFlood, _, _>(&s, &prefix, until, &plane, &mut store)
            .unwrap();
        // second kill: strip the freshly appended tail mid-record again
        let store2_scan = scan(&store).unwrap();
        let second = *store2_scan.record_ends.last().unwrap() - 5;
        let prefix2 = store[..second].to_vec();
        let mut store2 = prefix2[..scan(&prefix2).unwrap().durable_len].to_vec();
        let (t, a) =
            resume_from_journal::<_, MinFlood, _, _>(&s, &prefix2, until, &plane, &mut store2)
                .unwrap();
        assert_traces_identical(&oracle_t, &t);
        assert_eq!(oracle_a, a);
    }

    #[test]
    fn a_frame_that_fails_its_validating_open_ends_the_resume() {
        // A well-formed round record whose frame from process 2 holds no
        // valid message: the open the deliveries would share rejects it.
        let n = 4;
        let s = FixedSchedule::synchronous(n);
        let mut journal = Vec::new();
        let mut writer = start_journal(&mut journal, &meta(), &spawn(n, 3)).unwrap();
        let mut frames: Vec<Bytes> = (0..n).map(|i| seal(&Flood(i as Value))).collect();
        let mut bad = frames[2].to_vec();
        bad[0] ^= 1;
        frames[2] = Bytes::from(bad);
        writer
            .append_round(&RoundRecord { round: 1, frames })
            .unwrap();
        let res = resume_from_journal::<_, MinFlood, _, _>(
            &s,
            &journal,
            RunUntil::Rounds(4),
            &NoFaults,
            Vec::new(),
        );
        assert!(matches!(
            res,
            Err(ResumeError::Wire(WireError::InvalidValue(
                "frame checksum mismatch"
            )))
        ));
    }

    #[test]
    fn resume_rejects_mismatched_configurations() {
        let s = FixedSchedule::synchronous(3);
        let until = RunUntil::Rounds(4);
        let mut journal = Vec::new();
        let _ = run_lockstep_journaled(&s, spawn(3, 2), until, &NoFaults, &meta(), &mut journal)
            .unwrap();
        // universe mismatch vs the resuming schedule
        let wrong = FixedSchedule::synchronous(4);
        let res = resume_from_journal::<_, MinFlood, _, _>(
            &wrong,
            &journal,
            until,
            &NoFaults,
            Vec::new(),
        );
        assert!(
            matches!(res, Err(ResumeError::Wire(WireError::InvalidValue(m))) if m.contains("universe")),
            "schedule mismatch must be typed"
        );
    }
}
