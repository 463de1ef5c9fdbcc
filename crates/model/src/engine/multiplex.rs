//! The shard worker every concurrent engine runs: `M` k-set agreement
//! instances ticking together on one pool of shard threads.
//!
//! One `run_*` call of the solo engines executes one instance over one
//! universe; production traffic is many instances in flight at once —
//! leases, shard ownership, membership views — where **decisions per
//! second**, not per-run latency, is the throughput metric. This module's
//! tick loop serves both: [`run_multiplex_codec`] admits `M` independent
//! instances (each with its own schedule, universe size, inputs and stop
//! condition), and [`super::run_sharded`], [`super::run_sharded_codec`]
//! and the socket engine run as the `M = 1` case — one instance admitted
//! at tick 1. Each instance's universe is split into one contiguous range
//! per shard, and the per-round costs that dominate small runs are
//! amortized:
//!
//! * **batching** — all frames a shard sends another shard during one
//!   global *tick* travel as **one** batch of `(instance, from, to, frame)`
//!   entries per (source shard → destination shard) pair. In-process the
//!   batch is a `Vec` moved through a channel; the socket link serializes
//!   it ([`crate::fault::BatchBuilder`] / [`crate::fault::BatchReader`]);
//! * **shared decodes** — every frame, intra-shard ones included, is
//!   unpacked through [`crate::fault::Transport::unpack`] with one decode
//!   memo per worker, and a batch (like the intra-shard stash) keeps a
//!   broadcast's repeated frames adjacent, so a shard decodes each
//!   `(round, sender)` frame once;
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
//! **Ticks and instance lifecycle.** The worker runs a global tick counter
//! `t = 1, 2, …`; an instance admitted at tick `a` executes its local
//! round `r = t − a + 1` during tick `t`, so staggered admissions
//! interleave arbitrary local rounds within one tick. A tick closes one
//! way: broadcast, exchange exactly one batch per shard pair (empty ones
//! included), run the transitions, then one [`RoundBarrier`] phase whose
//! last arriver computes which active instances stop — reading every
//! shard's decided flags, all published before it arrived — and hands that
//! set to every shard. A stopped instance retires at once: its buffers go
//! back to the arena and its slot stops contributing frames. Nothing is
//! broadcast for a round that does not execute, so there is nothing to
//! roll back. The run ends when no instance is active or pending.
//!
//! **Correctness contract.** Multiplexing is an optimization, never a
//! semantic change: for every instance, the returned trace — decisions,
//! rounds executed, `msg_stats`, quarantine ledger, anomalies — is
//! **byte-identical** to a [`super::run_lockstep_codec`] run of the same
//! (schedule, algorithms, stop condition, fault plane), regardless of shard
//! count, admission tick, or what else is multiplexed alongside (pinned by
//! `tests/multiplex_conformance.rs` across all eight adversary families).
//! `docs/CONCURRENCY.md` has the full protocol and the identity argument.
//!
//! A worker that panics aborts its link — the barrier and every peer's
//! inbox — before the panic propagates, so the run fails instead of
//! hanging.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::Arc;

use sskel_graph::{Digraph, ProcessId, Round, FIRST_ROUND};

use crate::algorithm::{Received, RoundAlgorithm, Value};
use crate::engine::sharded::{split_ranges, ShardPlan};
use crate::engine::{settle, RunUntil};
use crate::fault::{CodecTransport, DecodeCache, FaultPlane, FaultStats, Transport};
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

/// How [`run_multiplex_codec`] divides the worker pool: the sharded
/// engine's plan. Every instance's universe is split into `shards`
/// contiguous ranges — not clamped to the universe, so small instances
/// leave some shards with an empty slice; those shards still take part in
/// every tick's batch exchange and barrier, so the protocol stays
/// symmetric. A zero shard count runs on one shard.
pub type MultiplexPlan = ShardPlan;

/// Runs `M` instances concurrently on `plan.shards` worker threads, every
/// payload travelling as a sealed frame through `plane` inside per-tick
/// batches (see the module docs for the protocol).
///
/// Returns one `(trace, algorithms)` pair per instance, in input order —
/// each byte-identical to a [`super::run_lockstep_codec`] run of the same
/// (schedule, algorithms, stop condition, plane).
///
/// # Panics
/// Panics if an instance's `algs.len() != schedule.n()` or its `admit_at`
/// is 0, and re-raises the panic of a worker thread after every peer was
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
    run_in_process(instances, plan.shards.max(1), &CodecTransport::new(plane))
}

/// Everything one shard sends another during one tick, as `(instance,
/// sender, receiver, frame)` entries in instance order — possibly none:
/// every shard pair exchanges one batch per tick.
pub(crate) type Batch<F> = Vec<(usize, ProcessId, ProcessId, F)>;

/// How one shard worker reaches the others: where its batches go, where
/// they come from, and how a tick closes. The in-process link
/// ([`ChannelLink`]) fails only when a peer shard panicked; the socket
/// engine's link returns typed errors. A worker that fails or panics
/// aborts its link, so no peer is left blocked.
pub(crate) trait Link<F>: Send {
    /// Why the link failed.
    type Error: Send;

    /// Ships this shard's tick-`tick` batch to shard `to`.
    fn send(&mut self, to: usize, tick: Round, batch: Batch<F>) -> Result<(), Self::Error>;

    /// Blocks for the next tick-`tick` batch a peer shard sent this one.
    fn recv(&mut self, tick: Round) -> Result<Batch<F>, Self::Error>;

    /// Closes a tick with one barrier phase whose last arriver evaluates
    /// `stops`; every shard returns its verdict, the ids of the instances
    /// that stop.
    fn close(&mut self, stops: impl FnOnce() -> Vec<usize>) -> Result<Vec<usize>, Self::Error>;

    /// Releases every peer shard this run may leave blocked, at the
    /// barrier or on its inbox. Called when the worker fails or panics.
    fn abort(&mut self);

    /// Whether `e` only echoes another shard's failure. A failed run
    /// reports the lowest-indexed shard's error that is not an echo.
    fn is_echo(e: &Self::Error) -> bool;
}

/// What travels through an in-process inbox: a tick's batch, or `None`,
/// the poison a panicking shard sends to wake its peers.
type Mail<F> = Option<(Round, Batch<F>)>;

/// The in-process link: one mpsc inbox per shard and a shared
/// [`RoundBarrier`].
struct ChannelLink<'a, F> {
    inbox: Receiver<Mail<F>>,
    outboxes: &'a [Sender<Mail<F>>],
    barrier: &'a RoundBarrier<Vec<usize>>,
}

impl<F: Send> Link<F> for ChannelLink<'_, F> {
    type Error = Aborted;

    fn send(&mut self, to: usize, tick: Round, batch: Batch<F>) -> Result<(), Aborted> {
        self.outboxes[to]
            .send(Some((tick, batch)))
            .map_err(|_| Aborted)
    }

    fn recv(&mut self, tick: Round) -> Result<Batch<F>, Aborted> {
        let (t, batch) = self.inbox.recv().ok().flatten().ok_or(Aborted)?;
        debug_assert_eq!(t, tick, "a shard raced past the tick barrier");
        Ok(batch)
    }

    fn close(&mut self, stops: impl FnOnce() -> Vec<usize>) -> Result<Vec<usize>, Aborted> {
        self.barrier.wait_eval(stops)
    }

    fn abort(&mut self) {
        self.barrier.abort();
        for outbox in self.outboxes {
            let _ = outbox.send(None);
        }
    }

    fn is_echo(_: &Aborted) -> bool {
        true
    }
}

/// Runs `instances` on `shards` in-process worker threads that talk
/// through channels.
///
/// # Panics
/// As [`run_shards`].
pub(crate) fn run_in_process<A, T>(
    instances: Vec<MuxInstance<'_, A>>,
    shards: usize,
    transport: &T,
) -> Vec<(RunTrace, Vec<A>)>
where
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
{
    let barrier = RoundBarrier::new(shards);
    let (outboxes, inboxes): (Vec<_>, Vec<_>) = (0..shards).map(|_| unbounded()).unzip();
    let links = inboxes
        .into_iter()
        .map(|inbox| ChannelLink {
            inbox,
            outboxes: &outboxes,
            barrier: &barrier,
        })
        .collect();
    run_shards(instances, links, transport)
        .expect("in-process shards fail only when a peer panicked, and that panic propagates")
}

/// Per-instance state shared across the workers: routing metadata, read
/// only, and the decided flags.
struct Meta<'a> {
    n: usize,
    /// Instances whose schedules are the same object (the same data
    /// pointer) share per-tick graph synthesis on every shard.
    schedule: &'a dyn Schedule,
    admit_at: Round,
    until: RunUntil,
    /// One contiguous (possibly empty) process range per shard.
    ranges: Vec<Range<usize>>,
    /// Owning shard per process index.
    shard_of: Vec<usize>,
    /// Per process: has it decided? Written by the owning shard, read by
    /// the last arriver of each tick's barrier.
    decided: Vec<AtomicBool>,
}

/// The reusable per-instance engine buffers a shard holds while the
/// instance is active. Returned to the shard's arena at retirement and
/// handed verbatim to the next admitted instance of the same shape.
struct Buffers<M, F> {
    g: Digraph,
    rcvs: Vec<Received<M>>,
    /// The current tick's frames addressed to this shard: its own
    /// broadcasts' first, then the peers' batches. Frames stay packed
    /// until the receive step, where the fault plane sees each one.
    stash: Vec<(ProcessId, ProcessId, F)>,
}

/// One shard's share of one instance: its resident algorithms (empty for
/// an instance whose universe does not reach the shard) and what the shard
/// recorded about them, merged into the instance's trace at the join.
struct Part<A> {
    algs: Vec<A>,
    first: Vec<Option<(Round, Value)>>,
    stats: MsgStats,
    faults: FaultStats,
    anomalies: Vec<String>,
    rounds: Round,
}

/// Runs `instances` on one worker thread per link, the shards talking
/// through `links` (one per shard, in shard order), and merges each
/// instance's per-shard outcomes into its trace, in input order.
///
/// # Errors
/// The lowest-indexed shard's link error that is not an echo of another
/// shard's failure ([`Link::is_echo`]), or else the first echo.
///
/// # Panics
/// Panics if an instance's `algs.len() != schedule.n()`, and re-raises the
/// panic of a worker thread after every peer was released.
pub(crate) fn run_shards<A, T, L>(
    instances: Vec<MuxInstance<'_, A>>,
    links: Vec<L>,
    transport: &T,
) -> Result<Vec<(RunTrace, Vec<A>)>, L::Error>
where
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
    L: Link<T::Frame>,
{
    let m = instances.len();
    if m == 0 {
        return Ok(Vec::new());
    }
    let shards = links.len();
    let mut metas = Vec::with_capacity(m);
    // parts[s][i] = instance i's share of shard s.
    let mut parts: Vec<Vec<Part<A>>> = (0..shards).map(|_| Vec::with_capacity(m)).collect();
    for inst in instances {
        let n = inst.schedule.n();
        assert_eq!(
            inst.algs.len(),
            n,
            "need exactly one algorithm instance per process"
        );
        assert!(inst.admit_at >= FIRST_ROUND, "admission ticks are 1-based");
        let ranges = split_ranges(n, shards);
        let shard_of = (ranges.iter().enumerate())
            .flat_map(|(s, range)| range.clone().map(move |_| s))
            .collect();
        let mut algs = inst.algs;
        for (s, range) in ranges.iter().enumerate().rev() {
            let algs = algs.split_off(range.start);
            parts[s].push(Part {
                first: vec![None; algs.len()],
                algs,
                stats: MsgStats::default(),
                faults: FaultStats::new(),
                anomalies: Vec::new(),
                rounds: 0,
            });
        }
        metas.push(Meta {
            n,
            schedule: inst.schedule,
            admit_at: inst.admit_at,
            until: inst.until,
            ranges,
            shard_of,
            decided: (0..n).map(|_| AtomicBool::new(false)).collect(),
        });
    }

    let mut outcomes: Vec<Result<Vec<Part<A>>, L::Error>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .into_iter()
            .zip(links)
            .enumerate()
            .map(|(me, (parts, mut link))| {
                let metas = &metas;
                scope.spawn(move || {
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        run_worker(me, metas, parts, &mut link, transport)
                    }));
                    if !matches!(out, Ok(Ok(_))) {
                        link.abort();
                    }
                    out.unwrap_or_else(|panic| resume_unwind(panic))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    });

    // Report the lowest-indexed failure that is not an echo of another
    // shard's, else the first echo: the stable sort moves it to the front.
    outcomes.sort_by_key(|o| o.as_ref().map_or_else(|e| u8::from(L::is_echo(e)), |_| 2));
    let mut outcomes: Vec<_> = outcomes
        .into_iter()
        .map(|o| o.map(Vec::into_iter))
        .collect::<Result<_, _>>()?;
    let merge = |meta: &Meta| {
        let mut trace = RunTrace::new(meta.n);
        let mut algs = Vec::with_capacity(meta.n);
        for (parts, range) in outcomes.iter_mut().zip(&meta.ranges) {
            let part = parts
                .next()
                .expect("every shard has a part of every instance");
            for (p, first) in range.clone().zip(part.first) {
                if let Some((round, value)) = first {
                    trace.record_decision(ProcessId::from_usize(p), round, value);
                }
            }
            trace.msg_stats += &part.stats;
            trace.faults.merge(part.faults);
            trace.anomalies.extend(part.anomalies);
            trace.rounds_executed = trace.rounds_executed.max(part.rounds);
            algs.extend(part.algs);
        }
        trace.faults.finalize();
        (trace, algs)
    };
    Ok(metas.iter().map(merge).collect())
}

/// The per-shard tick loop.
fn run_worker<A, T, L>(
    me: usize,
    metas: &[Meta],
    mut parts: Vec<Part<A>>,
    link: &mut L,
    transport: &T,
) -> Result<Vec<Part<A>>, L::Error>
where
    A: RoundAlgorithm,
    A::Msg: WireSized,
    T: Transport<A::Msg>,
    L: Link<T::Frame>,
{
    let m = metas.len();
    // Every instance splits its universe over every shard.
    let shards = metas[0].ranges.len();
    let mut buffers: Vec<Option<Buffers<A::Msg, T::Frame>>> = (0..m).map(|_| None).collect();

    // Admission queue, ordered by (tick, instance id); active set kept in
    // instance-id order so batches stay in instance order without sorting.
    let mut pending: Vec<usize> = (0..m).collect();
    pending.sort_by_key(|&i| (metas[i].admit_at, i));
    let mut pending: VecDeque<usize> = pending.into();
    let mut active: Vec<usize> = Vec::with_capacity(m);

    // Retired buffers, reused by later admissions of the same shape
    // (universe, resident count) — equal shapes are drop-in compatible.
    let mut arena: Vec<Buffers<A::Msg, T::Frame>> = Vec::new();
    // This tick's outgoing batch per destination shard.
    let mut outgoing: Vec<Batch<T::Frame>> = (0..shards).map(|_| Vec::new()).collect();
    // Per-tick schedule-synthesis cache: (schedule object, local round) →
    // the active instance that already synthesized that graph this tick.
    let mut synth: Vec<((*const (), Round), usize)> = Vec::new();
    // Decode-sharing memo: batches and the stash keep a broadcast's
    // repeated frames adjacent, so consecutive same-(round, sender, bytes)
    // unpacks share one decode.
    let mut cache: DecodeCache<A::Msg> = DecodeCache::new();

    let mut tick: Round = FIRST_ROUND;
    loop {
        // 1. Admit instances whose tick has come, attaching arena buffers.
        while pending.front().is_some_and(|&i| metas[i].admit_at == tick) {
            let i = pending.pop_front().expect("checked nonempty");
            let n = metas[i].n;
            let k = metas[i].ranges[me].len();
            let buf = match arena.iter().position(|b| (b.g.n(), b.rcvs.len()) == (n, k)) {
                Some(pos) => arena.swap_remove(pos),
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
            let key = (meta.schedule as *const dyn Schedule as *const (), r);
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
                    meta.schedule.graph_into(r, &mut buf.g);
                    synth.push((key, i));
                }
            }
            let buf = buffers[i].as_mut().expect("active instance has buffers");
            let part = &mut parts[i];
            for (p, alg) in meta.ranges[me].clone().zip(&part.algs) {
                let p = ProcessId::from_usize(p);
                let msg = Arc::new(alg.send(r));
                let frame = transport.pack(&msg);
                let receivers = buf.g.out_neighbors(p);
                let cnt = transport.delivered_count(r, p, receivers);
                part.stats.add_broadcast(msg.wire_bytes() as u64, cnt);
                for v in receivers.iter() {
                    let s = meta.shard_of[v.index()];
                    if s == me {
                        buf.stash.push((p, v, frame.clone()));
                    } else {
                        outgoing[s].push((i, p, v, frame.clone()));
                    }
                }
            }
        }

        // 3. Exchange exactly one batch per shard pair — empty batches
        // included, which keeps the per-tick receive count fixed at
        // `shards − 1` — and stash what arrives. No peer can send its
        // tick-(t + 1) batch before this tick's barrier, so every batch
        // received here is this tick's.
        for (s, batch) in outgoing.iter_mut().enumerate() {
            if s != me {
                link.send(s, tick, std::mem::take(batch))?;
            }
        }
        for _ in 1..shards {
            for (i, from, to, frame) in link.recv(tick)? {
                let buf = buffers[i].as_mut().expect("frame for inactive instance");
                buf.stash.push((from, to, frame));
            }
        }

        // 4. Unpack every stashed frame — the fault plane gets its shot at
        // each, local or not — then transition every resident process and
        // publish decisions. Clearing each delivery vector right after its
        // transition drops the round's message handles before the tick
        // closes, so double-buffered senders can reclaim their old payload
        // buffer.
        for &i in &active {
            let meta = &metas[i];
            let r = tick - meta.admit_at + 1;
            let range = &meta.ranges[me];
            let buf = buffers[i].as_mut().expect("active instance has buffers");
            let part = &mut parts[i];
            for (p, v, frame) in buf.stash.drain(..) {
                let d = transport.unpack(r, p, v, frame, &mut cache);
                if let Some(msg) = settle(d, r, p, v, &mut part.faults) {
                    buf.rcvs[v.index() - range.start].insert(p, msg);
                }
            }
            for (idx, alg) in part.algs.iter_mut().enumerate() {
                let p = ProcessId::from_usize(range.start + idx);
                alg.receive(r, &buf.rcvs[idx]);
                buf.rcvs[idx].clear();
                if let Some(v) = alg.decision() {
                    match part.first[idx] {
                        None => {
                            part.first[idx] = Some((r, v));
                            // ordering: Release before the tick barrier —
                            // pairs with the Acquire sweep in the last
                            // arriver's verdict below.
                            meta.decided[p.index()].store(true, Ordering::Release);
                        }
                        Some((r0, v0)) if v0 != v => part.anomalies.push(format!(
                            "process {p} changed its decision from {v0} (round {r0}) to {v} (round {r})"
                        )),
                        Some(_) => {}
                    }
                }
            }
        }

        // 5. Close the tick with the run's only barrier: its last arriver
        // names the active instances that stop, for every shard.
        let stops = link.close(|| {
            active
                .iter()
                .copied()
                .filter(|&i| {
                    let meta = &metas[i];
                    // ordering: Acquire in the last arriver's verdict,
                    // after every shard arrived — pairs with each shard's
                    // Release store of its decided flags in step 4.
                    let all = meta.decided.iter().all(|d| d.load(Ordering::Acquire));
                    meta.until.should_stop(tick - meta.admit_at + 1, all)
                })
                .collect()
        })?;
        for &i in &stops {
            parts[i].rounds = tick - metas[i].admit_at + 1;
            arena.push(buffers[i].take().expect("a stopping instance is active"));
        }
        active.retain(|i| stops.binary_search(i).is_err());
        if active.is_empty() && pending.is_empty() {
            return Ok(parts);
        }
        tick += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixture::{spawn, MinFlood};
    use crate::engine::lockstep::run_lockstep_codec;
    use crate::fault::NoFaults;
    use crate::journal::diff_run_traces;
    use crate::schedule::FixedSchedule;

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
                let (solo, _) = run_lockstep_codec(s, spawn(n, 3), until, &NoFaults);
                let ctx = format!("case {ci} shards={shards}");
                assert_eq!(diff_run_traces(trace, &solo), None, "{ctx}");
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
        let (solo, _) = run_lockstep_codec(&s, spawn(4, 2), until, &NoFaults);
        for (i, (trace, _)) in results.iter().enumerate() {
            assert_eq!(diff_run_traces(trace, &solo), None, "wave {i}");
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let results: Vec<(RunTrace, Vec<MinFlood>)> =
            run_multiplex_codec(Vec::new(), MultiplexPlan::new(3), &NoFaults);
        assert!(results.is_empty());
    }
}
