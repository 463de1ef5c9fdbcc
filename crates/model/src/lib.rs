//! # sskel-model — the round-based computing model
//!
//! Implements §II of *“Solving k-Set Agreement with Stable Skeleton
//! Graphs”* (Biely, Robinson, Schmid, 2011): communication-closed rounds,
//! algorithms as send/transition function pairs, runs determined by a
//! sequence of per-round communication graphs, skeleton intersection, and
//! the Heard-Of / Round-by-Round-Fault-Detector correspondences (eqs.
//! (6)–(7)).
//!
//! Three interchangeable simulation engines execute algorithms:
//!
//! * [`engine::run_lockstep`] — deterministic, single-threaded, observable
//!   round by round;
//! * [`engine::run_sharded`] — `k` processes per thread
//!   ([`engine::ShardPlan`]; `ShardPlan::new(n)` gives every process its
//!   own thread): one inbox per shard, channel-free delivery inside a
//!   shard, and at most one [`sync::RoundBarrier`] phase per round —
//!   producing identical traces;
//! * [`engine::run_socket`] — the same shard worker with every
//!   inter-shard frame sealed and carried over real loopback TCP
//!   ([`engine::SocketPlan`]): the OS owns the byte path, stream framing
//!   resumes across partial reads, and socket trouble surfaces as typed
//!   [`engine::SocketError`]s — still trace-identical to lockstep.
//!
//! The engine taxonomy and every synchronization protocol are documented in
//! `docs/CONCURRENCY.md` at the repository root.
//!
//! [`parallel::par_map`] fans independent simulations out across cores for
//! the Monte-Carlo experiments.
//!
//! [`adversary`] hosts the seedable message-adversary families (hostile
//! schedules streamed lazily from a seed), and the `testutil` module
//! (behind the `testutil` feature) exposes the shared strategies the
//! paper-conformance harness in `tests/conformance.rs` is built on.
//!
//! [`fault`] is the Byzantine fault-injection plane: every engine also has
//! a *codec-boundary* entry point (`run_*_codec`) where payloads travel as
//! checksummed encoded frames through a seeded corruption overlay instead
//! of `Arc` hand-offs, and receivers quarantine mangled frames instead of
//! panicking. [`engine::run_lockstep_recovering`] adds crash/restart
//! recovery from wire-codec snapshots taken at the canonical rebase cut
//! points.
//!
//! [`journal`] is the durable run store: [`engine::run_lockstep_journaled`]
//! appends an on-disk journal (snapshots at the rebase cut points plus the
//! sealed broadcast frames of every round) as it executes, and
//! [`engine::resume_from_journal`] restores a killed process from the last
//! durable snapshot and replays the logged frames to a trace byte-identical
//! to the uninterrupted run. [`journal::diff_run_traces`] /
//! [`journal::diff_journals`] report the *first divergent component* of two
//! runs instead of a bare inequality.
//!
//! [`engine::run_multiplex_codec`] turns the sharded engine into an
//! *agreement service*: `M` concurrent instances share one worker pool,
//! inter-shard frames of a tick coalesce into instance-tagged batch
//! packets ([`fault::BatchBuilder`] / [`fault::BatchReader`]), and every
//! instance's trace stays byte-identical to its solo sharded run.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod algorithm;
pub mod engine;
pub mod fault;
pub mod heard_of;
pub mod journal;
pub mod parallel;
pub mod schedule;
pub mod skeleton;
pub mod sync;
#[cfg(feature = "testutil")]
pub mod testutil;
pub mod trace;
pub mod wire;

pub use adversary::{
    ChurnAdversary, CrashOverlay, CrashRestartOverlay, HealedPartitionAdversary,
    LowerBoundAdversary, PartitionEpisode, RotatingRootAdversary, StableRootAdversary,
};
pub use algorithm::{ProcessCtx, Received, Recoverable, RoundAlgorithm, Value};
pub use engine::{
    run_lockstep, run_lockstep_codec, run_lockstep_observed, run_lockstep_recovering,
    run_multiplex_codec, run_sharded, run_sharded_codec, run_socket, run_socket_codec,
    MultiplexPlan, MuxInstance, RunUntil, ShardPlan, SocketError, SocketPlan,
};
pub use fault::{
    BatchBuilder, BatchFrame, BatchReader, CorruptionOverlay, EdgeFault, EffectiveSchedule,
    FaultCause, FaultPlane, FaultStats, NoFaults, Tamper,
};
pub use journal::{
    diff_journals, diff_run_traces, scan as scan_journal, Component, Divergence, JournalHeader,
    JournalScan, JournalWriter, ResumeError, RoundRecord, RunMeta, SnapshotRecord,
    ENGINE_LOCKSTEP_JOURNALED, JOURNAL_VERSION,
};
pub use schedule::{validate as validate_schedule, FixedSchedule, Schedule, TableSchedule};
pub use skeleton::SkeletonTracker;
pub use trace::{DecisionRecord, MsgStats, RunTrace};
pub use wire::{Wire, WireError, WireSized};
