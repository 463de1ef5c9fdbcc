//! Multiplexed round engine: `M` concurrent k-set agreement instances on
//! one shared worker pool, with per-(shard, tick) wire batching.
//!
//! One `run_*` call of the other engines executes one instance over one
//! universe. Production traffic is many instances in flight at once —
//! leases, shard ownership, membership views — where **decisions per
//! second**, not per-run latency, is the throughput metric. This engine
//! runs `M` independent instances (each with its own schedule, universe
//! size, inputs and stop condition) over the sharded engine's worker
//! layout, amortizing the per-round costs that dominate small runs:
//!
//! * **wire batching** — all frames a shard sends another shard during one
//!   global *tick* coalesce into **one** batch packet per (source shard →
//!   destination shard) edge, tagged per frame with a uvarint instance id
//!   ([`crate::fault::BatchBuilder`] / [`crate::fault::BatchReader`]).
//!   `M` co-scheduled instances pay one channel send per shard pair per
//!   tick instead of one per frame;
//! * **shared schedule synthesis** — instances driven by the *same*
//!   schedule object at the same local round share one `graph_into` per
//!   shard per tick (the later instances copy the first synthesis);
//! * **buffer arena** — per-instance engine buffers (round graph, delivery
//!   vectors, local-frame stash) return to a per-shard free list at
//!   retirement and are reused verbatim by later-admitted instances of the
//!   same shape, so instance churn allocates nothing once a shape has been
//!   seen (the estimator-level analogue is `sskel_kset`'s
//!   `AgreementPool`).
//!
//! **Ticks and instance lifecycle.** The engine runs a global tick counter
//! `t = 1, 2, …`; an instance admitted at tick `a` executes its local
//! round `r = t − a + 1` during tick `t`, so staggered admissions
//! interleave arbitrary local rounds within one tick. Every tick ends with
//! a single [`RoundBarrier`] phase, after which **every shard evaluates
//! every active instance's stop condition independently** — the verdicts
//! agree because the per-process decided flags are stable across the
//! barrier (writes happen before it, reads after it, and the next tick's
//! writes are fenced behind the batch exchange). A stopped instance
//! retires immediately: its buffers go back to the arena and its slot
//! stops contributing frames. The run ends when no instance is active or
//! pending.
//!
//! **Correctness contract.** Multiplexing is an optimization, never a
//! semantic change: for every instance, the returned trace — decisions,
//! rounds executed, `msg_stats`, quarantine ledger, anomalies — is
//! **byte-identical** to a solo [`super::run_sharded_codec`] run of the
//! same (schedule, algorithms, stop condition, fault plane), regardless of
//! shard count, admission tick, or what else is multiplexed alongside
//! (pinned by `tests/multiplex_conformance.rs` across all eight adversary
//! families). The key is that the solo engine's speculative broadcast is
//! stats-exact after rollback, so this engine can simply *not* speculate:
//! one barrier per tick, broadcasts only for rounds that execute.
//! `docs/CONCURRENCY.md` has the full protocol and the identity argument.
//!
//! A worker that panics aborts the barrier and poisons every peer's inbox
//! before the panic propagates, so the run fails instead of hanging.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::Arc;

use bytes::Bytes;
use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::algorithm::{Received, RoundAlgorithm, Value};
use crate::engine::sharded::split_ranges;
use crate::engine::{settle, RunUntil};
use crate::fault::{
    BatchBuilder, BatchReader, CodecTransport, DecodeCache, FaultPlane, FaultStats, Transport,
};
use crate::schedule::Schedule;
use crate::sync::{Aborted, RoundBarrier};
use crate::trace::{MsgStats, RunTrace};
use crate::wire::{Wire, WireSized};

/// One instance of a multiplexed run: its own schedule, universe,
/// algorithms and stop condition, plus the global tick at which it joins.
pub struct MuxInstance<'a, A> {
    /// The instance's communication schedule. Instances may share one
    /// schedule object (same reference) — co-scheduled sharers then share
    /// synthesized round graphs per shard.
    pub schedule: &'a dyn Schedule,
    /// One algorithm per process of `schedule.n()`.
    pub algs: Vec<A>,
    /// The instance's stop condition, in its **local** rounds.
    pub until: RunUntil,
    /// The global tick (≥ 1) at which the instance executes its round 1.
    pub admit_at: Round,
}

impl<'a, A> MuxInstance<'a, A> {
    /// An instance admitted at the first tick.
    pub fn new(schedule: &'a dyn Schedule, algs: Vec<A>, until: RunUntil) -> Self {
        MuxInstance {
            schedule,
            algs,
            until,
            admit_at: FIRST_ROUND,
        }
    }

    /// Delays admission to global tick `tick`.
    ///
    /// # Panics
    /// Panics if `tick < 1` (ticks are 1-based, like rounds).
    #[must_use]
    pub fn admitted_at(mut self, tick: Round) -> Self {
        assert!(tick >= FIRST_ROUND, "admission ticks are 1-based");
        self.admit_at = tick;
        self
    }
}

/// How [`run_multiplex_codec`] divides the worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MultiplexPlan {
    /// Number of worker threads. Every instance's universe is split into
    /// `shards` contiguous ranges (small instances leave some shards with
    /// an empty slice — those shards still take part in every tick's batch
    /// exchange and barrier, so the protocol stays symmetric).
    pub shards: usize,
}

impl MultiplexPlan {
    /// A plan with `shards` worker threads.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        MultiplexPlan { shards }
    }
}

/// Per-instance routing metadata, shared read-only across the workers.
struct Meta {
    n: usize,
    admit_at: Round,
    until: RunUntil,
    /// Identity key of the instance's schedule object (the data pointer of
    /// the `&dyn Schedule`): instances with equal keys share per-tick
    /// graph synthesis on every shard.
    sched_key: usize,
    /// One contiguous (possibly empty) process range per shard.
    ranges: Vec<Range<usize>>,
    /// Owning shard per process index.
    shard_of: Vec<usize>,
}

/// The reusable per-instance engine buffers a shard holds while the
/// instance is active. Returned to the shard's arena at retirement and
/// handed verbatim to the next admitted instance of the same shape.
struct Buffers<M> {
    g: Digraph,
    rcvs: Vec<Received<M>>,
    /// Intra-shard frames of the current tick (the codec transport defers
    /// local hand-offs so the fault plane sees every frame at round time).
    stash: Vec<(ProcessId, ProcessId, Bytes)>,
}

/// What one worker hands back when the run ends, indexed by instance.
struct MuxShardOutcome<A> {
    algs: Vec<Vec<A>>,
    first: Vec<Vec<Option<(Round, Value)>>>,
    stats: Vec<MsgStats>,
    faults: Vec<FaultStats>,
    anomalies: Vec<Vec<String>>,
    rounds: Vec<Round>,
}

/// Runs `M` instances concurrently on `plan.shards` worker threads, every
/// payload travelling as a sealed frame through `plane` inside per-tick
/// batch packets (see the module docs for the protocol).
///
/// Returns one `(trace, algorithms)` pair per instance, in input order —
/// each byte-identical to a solo [`super::run_sharded_codec`] of the same
/// (schedule, algorithms, stop condition, plane).
///
/// # Panics
/// Panics if an instance's `algs.len() != schedule.n()` or a universe is
/// empty, and re-raises the panic of a worker thread after every peer was
/// released.
pub fn run_multiplex_codec<A, P>(
    instances: Vec<MuxInstance<'_, A>>,
    plan: MultiplexPlan,
    plane: &P,
) -> Vec<(RunTrace, Vec<A>)>
where
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    let m = instances.len();
    if m == 0 {
        return Vec::new();
    }
    let shards = plan.shards;
    let transport = CodecTransport::new(plane);

    let mut metas = Vec::with_capacity(m);
    let mut scheds: Vec<&dyn Schedule> = Vec::with_capacity(m);
    let mut universes = Vec::with_capacity(m);
    // owned[s][i] = instance i's algorithms resident in shard s.
    let mut owned: Vec<Vec<Vec<A>>> = (0..shards).map(|_| Vec::with_capacity(m)).collect();
    for inst in instances {
        let n = inst.schedule.n();
        assert!(
            n >= 1,
            "cannot multiplex an instance over an empty universe"
        );
        assert_eq!(
            inst.algs.len(),
            n,
            "need exactly one algorithm instance per process"
        );
        assert!(inst.admit_at >= FIRST_ROUND, "admission ticks are 1-based");
        let ranges = split_ranges(n, shards);
        let mut shard_of = vec![0usize; n];
        for (s, range) in ranges.iter().enumerate() {
            for p in range.clone() {
                shard_of[p] = s;
            }
        }
        let mut algs = inst.algs;
        let mut per_shard: Vec<Vec<A>> = Vec::with_capacity(shards);
        for range in ranges.iter().rev() {
            per_shard.push(algs.split_off(range.start));
        }
        per_shard.reverse();
        for (s, slice) in per_shard.into_iter().enumerate() {
            owned[s].push(slice);
        }
        metas.push(Meta {
            n,
            admit_at: inst.admit_at,
            until: inst.until,
            sched_key: inst.schedule as *const dyn Schedule as *const () as usize,
            ranges,
            shard_of,
        });
        scheds.push(inst.schedule);
        universes.push(n);
    }

    let decided: Vec<Vec<AtomicBool>> = metas
        .iter()
        .map(|meta| (0..meta.n).map(|_| AtomicBool::new(false)).collect())
        .collect();
    let barrier = RoundBarrier::new(shards);
    // A `None` entry is the poison a panicking worker sends to wake its
    // peers.
    let (txs, rxs): (Vec<Sender<Option<Batch>>>, Vec<_>) = (0..shards).map(|_| unbounded()).unzip();

    let outcomes: Vec<Result<MuxShardOutcome<A>, Aborted>> = std::thread::scope(|scope| {
        let handles: Vec<_> = owned
            .into_iter()
            .zip(rxs)
            .enumerate()
            .map(|(me, (owned, rx))| {
                let (metas, scheds, universes) = (&metas, &scheds, &universes);
                let (txs, barrier, decided, transport) = (&txs, &barrier, &decided, &transport);
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| {
                        run_mux_shard(
                            me, shards, metas, scheds, universes, owned, rx, txs, barrier, decided,
                            transport,
                        )
                    }))
                    .unwrap_or_else(|panic| {
                        barrier.abort();
                        for tx in txs {
                            let _ = tx.send(None);
                        }
                        resume_unwind(panic)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });

    let mut outcomes: Vec<MuxShardOutcome<A>> = outcomes
        .into_iter()
        .map(|o| o.expect("workers fail only when a peer panicked, and that panic propagates"))
        .collect();
    let mut results = Vec::with_capacity(m);
    for (i, meta) in metas.iter().enumerate() {
        let mut trace = RunTrace::new(meta.n);
        let mut algs_back = Vec::with_capacity(meta.n);
        for (s, o) in outcomes.iter_mut().enumerate() {
            for (idx, f) in o.first[i].iter().enumerate() {
                if let Some((round, value)) = f {
                    trace.record_decision(
                        ProcessId::from_usize(meta.ranges[s].start + idx),
                        *round,
                        *value,
                    );
                }
            }
            trace.msg_stats += &o.stats[i];
            trace.faults.merge(std::mem::take(&mut o.faults[i]));
            trace.anomalies.append(&mut o.anomalies[i]);
            trace.rounds_executed = trace.rounds_executed.max(o.rounds[i]);
            algs_back.append(&mut o.algs[i]);
        }
        trace.faults.finalize();
        results.push((trace, algs_back));
    }
    results
}

/// One tick's batch packet from one shard to another.
type Batch = (Round, Bytes);

/// The per-worker tick loop. Fails only when a peer worker panicked.
#[allow(clippy::too_many_arguments)]
fn run_mux_shard<A, T>(
    me: usize,
    shards: usize,
    metas: &[Meta],
    scheds: &[&dyn Schedule],
    universes: &[usize],
    owned: Vec<Vec<A>>,
    rx: Receiver<Option<Batch>>,
    txs: &[Sender<Option<Batch>>],
    barrier: &RoundBarrier,
    decided: &[Vec<AtomicBool>],
    transport: &T,
) -> Result<MuxShardOutcome<A>, Aborted>
where
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg, Frame = Bytes>,
{
    let m = metas.len();
    // Resident algorithms per instance (empty slices for instances whose
    // universe does not reach this shard), moved to the outcome at retire.
    let mut algs: Vec<Vec<A>> = owned;
    let mut buffers: Vec<Option<Buffers<A::Msg>>> = (0..m).map(|_| None).collect();
    let mut out = MuxShardOutcome {
        algs: (0..m).map(|_| Vec::new()).collect(),
        first: metas
            .iter()
            .map(|meta| vec![None; meta.ranges[me].len()])
            .collect(),
        stats: (0..m).map(|_| MsgStats::default()).collect(),
        faults: (0..m).map(|_| FaultStats::new()).collect(),
        anomalies: (0..m).map(|_| Vec::new()).collect(),
        rounds: vec![0; m],
    };

    // Admission queue, ordered by (tick, instance id); active set kept in
    // instance-id order so batches encode canonically without sorting.
    let mut pending: Vec<usize> = (0..m).collect();
    pending.sort_by_key(|&i| (metas[i].admit_at, i));
    let mut pending: VecDeque<usize> = pending.into();
    let mut active: Vec<usize> = Vec::with_capacity(m);

    // Retired buffer shapes, reused by later admissions (keyed by
    // (universe, resident count) — equal shapes are drop-in compatible).
    let mut arena: Vec<(usize, usize, Buffers<A::Msg>)> = Vec::new();
    let mut builders: Vec<BatchBuilder> = (0..shards).map(|_| BatchBuilder::new()).collect();
    // Per-tick schedule-synthesis cache: (schedule key, local round) → the
    // active instance that already synthesized that graph this tick.
    let mut synth: Vec<((usize, Round), usize)> = Vec::new();
    // Decode-sharing memo: batches (and the stash) keep a broadcast's
    // repeated frames adjacent, so consecutive same-(round, sender, bytes)
    // unpacks share one decode — per-packet engines never see this
    // adjacency, which is a real throughput edge of batching.
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();

    let mut tick: Round = FIRST_ROUND;
    loop {
        // 1. Admit instances whose tick has come, attaching arena buffers.
        while pending.front().is_some_and(|&i| metas[i].admit_at == tick) {
            let i = pending.pop_front().expect("checked nonempty");
            let n = metas[i].n;
            let k = metas[i].ranges[me].len();
            let buf = match arena.iter().position(|(an, ak, _)| (*an, *ak) == (n, k)) {
                Some(pos) => arena.swap_remove(pos).2,
                None => Buffers {
                    g: Digraph::empty(n),
                    rcvs: (0..k).map(|_| Received::new(n)).collect(),
                    stash: Vec::new(),
                },
            };
            buffers[i] = Some(buf);
            let at = active.binary_search(&i).unwrap_err();
            active.insert(at, i);
        }

        // 2. Broadcast: per active instance (in id order), synthesize the
        // round graph — reusing a same-(schedule, round) synthesis from an
        // earlier instance this tick — run the send functions, and route
        // frames: intra-shard to the instance stash, inter-shard into the
        // destination shard's batch.
        synth.clear();
        for &i in &active {
            let meta = &metas[i];
            if meta.ranges[me].is_empty() {
                continue;
            }
            let r = tick - meta.admit_at + 1;
            let key = (meta.sched_key, r);
            match synth.iter().find(|(k, _)| *k == key).map(|&(_, j)| j) {
                Some(j) => {
                    // j < i: the cache only holds instances already visited
                    // this tick, and `active` is id-ordered.
                    let (before, after) = buffers.split_at_mut(i);
                    let src = before[j].as_ref().expect("cached instance is active");
                    let dst = after[0].as_mut().expect("active instance has buffers");
                    dst.g.clone_from(&src.g);
                }
                None => {
                    let buf = buffers[i].as_mut().expect("active instance has buffers");
                    scheds[i].graph_into(r, &mut buf.g);
                    synth.push((key, i));
                }
            }
            let buf = buffers[i].as_mut().expect("active instance has buffers");
            let range = &meta.ranges[me];
            for (idx, alg) in algs[i].iter().enumerate() {
                let p = ProcessId::from_usize(range.start + idx);
                let msg = Arc::new(alg.send(r));
                let frame = transport.pack(&msg);
                let receivers = buf.g.out_neighbors(p);
                let cnt = transport.delivered_count(r, p, receivers);
                out.stats[i].add_broadcast(msg.wire_bytes() as u64, cnt);
                for v in receivers.iter() {
                    let s = meta.shard_of[v.index()];
                    if s == me {
                        buf.stash.push((p, v, frame.clone()));
                    } else {
                        builders[s].push(i, p, v, frame.clone());
                    }
                }
            }
        }

        // 3. Exchange exactly one batch per shard pair — empty batches
        // included, which keeps the per-tick receive count fixed at
        // `shards − 1` and doubles as the inter-tick fence the verdict
        // phase relies on (see the module docs).
        for (s, builder) in builders.iter_mut().enumerate() {
            if s != me {
                txs[s]
                    .send(Some((tick, Bytes::from(builder.encode()))))
                    .map_err(|_| Aborted)?;
                builder.clear();
            }
        }
        for _ in 0..shards - 1 {
            let (pt, payload) = rx.recv().ok().flatten().ok_or(Aborted)?;
            debug_assert_eq!(pt, tick, "a shard raced past the tick barrier");
            let mut rd = BatchReader::new(&payload, universes, usize::MAX);
            while let Some(bf) = rd
                .next_frame()
                .expect("self-encoded batch failed to decode")
            {
                let i = bf.instance;
                let meta = &metas[i];
                let r = tick - meta.admit_at + 1;
                let frame = payload.slice(bf.offset..bf.offset + bf.frame.len());
                let d = transport.unpack_cached(r, bf.from, bf.to, frame, &mut cache);
                if let Some(msg) = settle(d, r, bf.from, bf.to, &mut out.faults[i]) {
                    let buf = buffers[i].as_mut().expect("frame for inactive instance");
                    buf.rcvs[bf.to.index() - meta.ranges[me].start].insert(bf.from, msg);
                }
            }
        }

        // 4. Unpack the intra-shard stashes (the deferring transport gives
        // the fault plane its shot at local frames here, exactly like the
        // solo engine's stash path), then transition every resident
        // process and publish decisions.
        for &i in &active {
            let meta = &metas[i];
            let r = tick - meta.admit_at + 1;
            let range = &meta.ranges[me];
            let buf = buffers[i].as_mut().expect("active instance has buffers");
            for (p, v, frame) in buf.stash.drain(..) {
                let d = transport.unpack_cached(r, p, v, frame, &mut cache);
                if let Some(msg) = settle(d, r, p, v, &mut out.faults[i]) {
                    buf.rcvs[v.index() - range.start].insert(p, msg);
                }
            }
            for (idx, alg) in algs[i].iter_mut().enumerate() {
                let p = ProcessId::from_usize(range.start + idx);
                alg.receive(r, &buf.rcvs[idx]);
                buf.rcvs[idx].clear();
                if let Some(v) = alg.decision() {
                    match out.first[i][idx] {
                        None => {
                            out.first[i][idx] = Some((r, v));
                            // ordering: Release before the tick barrier —
                            // pairs with the Acquire sweep in the verdict
                            // phase so every shard reads this tick's flag.
                            decided[i][p.index()].store(true, Ordering::Release);
                        }
                        Some((r0, v0)) if v0 != v => out.anomalies[i].push(format!(
                            "process {p} changed its decision from {v0} (round {r0}) to {v} (round {r})"
                        )),
                        Some(_) => {}
                    }
                }
            }
        }

        // 5. Close the tick with the run's only barrier, then evaluate
        // every active instance's verdict. All shards read the same flag
        // states: this tick's writes are published by the barrier, and no
        // shard can write tick-(t+1) flags before receiving every peer's
        // tick-(t+1) batch — which is only sent after this verdict phase.
        barrier.wait_eval(|| false)?;
        active.retain(|&i| {
            let meta = &metas[i];
            let r = tick - meta.admit_at + 1;
            // ordering: Acquire after the barrier pairs with each
            // shard's Release store above; all tick-t flags are visible.
            let all = decided[i].iter().all(|d| d.load(Ordering::Acquire));
            if meta.until.should_stop(r, all) {
                out.rounds[i] = r;
                out.algs[i] = std::mem::take(&mut algs[i]);
                let buf = buffers[i].take().expect("active instance has buffers");
                arena.push((meta.n, meta.ranges[me].len(), buf));
                false
            } else {
                true
            }
        });
        if active.is_empty() && pending.is_empty() {
            return Ok(out);
        }
        tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixture::{spawn, MinFlood};
    use crate::engine::sharded::{run_sharded_codec, ShardPlan};
    use crate::fault::NoFaults;
    use crate::schedule::FixedSchedule;

    fn assert_matches_solo(mux: &RunTrace, solo: &RunTrace, ctx: &str) {
        assert_eq!(mux.decisions, solo.decisions, "{ctx}: decisions");
        assert_eq!(mux.rounds_executed, solo.rounds_executed, "{ctx}: rounds");
        assert_eq!(mux.msg_stats, solo.msg_stats, "{ctx}: msg_stats");
        assert_eq!(mux.faults, solo.faults, "{ctx}: faults");
        assert_eq!(mux.anomalies, solo.anomalies, "{ctx}: anomalies");
    }

    #[test]
    fn split_ranges_cover_and_allow_empty() {
        assert_eq!(split_ranges(5, 2), vec![0..3, 3..5]);
        assert_eq!(split_ranges(2, 4), vec![0..1, 1..2, 2..2, 2..2]);
        assert_eq!(split_ranges(1, 1), vec![0..1]);
    }

    #[test]
    fn heterogeneous_instances_match_their_solo_runs() {
        let s3 = FixedSchedule::synchronous(3);
        let s5 = FixedSchedule::synchronous(5);
        let s1 = FixedSchedule::synchronous(1);
        let cases: Vec<(&dyn Schedule, usize, RunUntil, Round)> = vec![
            (&s3, 3, RunUntil::AllDecided { max_rounds: 20 }, 1),
            (&s5, 5, RunUntil::Rounds(6), 3),
            (&s1, 1, RunUntil::AllDecided { max_rounds: 5 }, 2),
            (&s5, 5, RunUntil::AllDecided { max_rounds: 20 }, 7),
        ];
        for shards in [1usize, 2, 4] {
            let instances: Vec<MuxInstance<'_, MinFlood>> = cases
                .iter()
                .map(|&(s, n, until, admit)| {
                    MuxInstance::new(s, spawn(n, 3), until).admitted_at(admit)
                })
                .collect();
            let results = run_multiplex_codec(instances, MultiplexPlan::new(shards), &NoFaults);
            assert_eq!(results.len(), cases.len());
            for (ci, ((trace, algs), &(s, n, until, _))) in
                results.iter().zip(cases.iter()).enumerate()
            {
                let (solo, _) =
                    run_sharded_codec(s, spawn(n, 3), until, ShardPlan::new(2), &NoFaults);
                assert_matches_solo(trace, &solo, &format!("case {ci} shards={shards}"));
                assert_eq!(algs.len(), n);
            }
        }
    }

    #[test]
    fn late_admission_reuses_retired_buffers_and_still_matches() {
        // Two waves of the same shape: wave 2 is admitted long after wave 1
        // retired, so its buffers come from the arena.
        let s = FixedSchedule::synchronous(4);
        let until = RunUntil::AllDecided { max_rounds: 10 };
        let instances = vec![
            MuxInstance::new(&s as &dyn Schedule, spawn(4, 2), until),
            MuxInstance::new(&s, spawn(4, 2), until).admitted_at(9),
        ];
        let results = run_multiplex_codec(instances, MultiplexPlan::new(2), &NoFaults);
        let (solo, _) = run_sharded_codec(&s, spawn(4, 2), until, ShardPlan::new(2), &NoFaults);
        for (i, (trace, _)) in results.iter().enumerate() {
            assert_matches_solo(trace, &solo, &format!("wave {i}"));
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let results: Vec<(RunTrace, Vec<MinFlood>)> =
            run_multiplex_codec(Vec::new(), MultiplexPlan::new(3), &NoFaults);
        assert!(results.is_empty());
    }
}
