//! The Byzantine fault-injection plane, end to end: codec-boundary
//! payload transport, seeded in-flight frame corruption with
//! quarantine-and-survive receivers, and crash/restart recovery at the
//! canonical snapshot cut points.
//!
//! The contract under test (see `docs/TESTING.md`):
//!
//! * **codec no-op identity** — with an inert fault plane, running
//!   payloads through `encode → frame → decode` instead of `Arc`
//!   hand-off changes *nothing*: decisions, round counts and message
//!   statistics are byte-identical, in every engine;
//! * **no panics, ever** — at any corruption rate in `[0, 1]` the
//!   receivers quarantine garbage frames (typed [`WireError`] causes in
//!   the run's [`FaultStats`]) and carry on;
//! * **determinism** — the fault pattern is a pure function of
//!   `(seed, round, from, to)`, so for one seed every engine and shard
//!   plan — including `run_socket_codec`, where the frames really cross
//!   loopback TCP — produces the identical trace *and the identical
//!   fault ledger*;
//! * **conformance on the surviving schedule** — a corrupted run is an
//!   uncorrupted run of the *effective* schedule (tampered edges
//!   stripped): decisions satisfy k-agreement at the effective
//!   schedule's own `min_k`, within its own Lemma-11 bound;
//! * **crash/restart recovery** — killing a process mid-run and
//!   resuming it from its last canonical snapshot yields a trace
//!   byte-identical to the uninterrupted run of the same schedule.

use proptest::prelude::*;

use sskel::model::testutil::{
    adversary_config, fuzz_cases, loopback_available, mix_seed, AdversaryConfig, AdversaryFamily,
};
use sskel::prelude::*;

fn freshness_spawn(n: usize, inputs: &[Value]) -> Vec<KSetAgreement> {
    KSetAgreement::spawn_all_with(n, inputs, DecisionRule::FreshnessGuarded)
}

fn distinct_inputs(n: usize) -> Vec<Value> {
    (0..n).map(|i| 10 + 7 * i as Value).collect()
}

/// Asserts two traces are byte-identical in every observable field,
/// including the fault ledger. On failure, reports the *first* divergent
/// `round · process · component` instead of a raw struct dump.
fn assert_identical(a: &RunTrace, b: &RunTrace, ctx: &str) {
    if let Some(d) = diff_run_traces(a, b) {
        panic!("{ctx}: traces diverged — {d}");
    }
}

/// Codec-boundary mode with an inert plane is indistinguishable from the
/// `Arc` hand-off path — in lockstep and in the sharded engine at one
/// process per shard and at three shards, across adversary families.
#[test]
fn codec_noop_mode_is_byte_identical_to_arc_mode() {
    for (i, family) in [
        AdversaryFamily::StableRoot,
        AdversaryFamily::RotatingRoot,
        AdversaryFamily::CrashOverPartition,
        AdversaryFamily::CrashRestart,
    ]
    .into_iter()
    .enumerate()
    {
        let cfg = AdversaryConfig {
            family,
            n: 7,
            seed: mix_seed(0x00de + i as u64),
        };
        let s = cfg.build();
        let n = s.n();
        let inputs = cfg.inputs();
        let until = RunUntil::AllDecided {
            max_rounds: lemma11_bound(s.as_ref()) + 2,
        };
        let spawn = || freshness_spawn(n, &inputs);

        let (arc_ls, _) = run_lockstep(s.as_ref(), spawn(), until);
        let (codec_ls, _) = run_lockstep_codec(s.as_ref(), spawn(), until, &NoFaults);
        assert_identical(&arc_ls, &codec_ls, &format!("{cfg}: lockstep"));
        assert!(codec_ls.faults.is_empty(), "{cfg}: inert plane lost frames");

        // One thread per process.
        let per_process = || ShardPlan::new(n);
        let (arc_th, _) = run_sharded(s.as_ref(), spawn(), until, per_process());
        let (codec_th, _) = run_sharded_codec(s.as_ref(), spawn(), until, per_process(), &NoFaults);
        assert_identical(&arc_th, &codec_th, &format!("{cfg}: per-process shards"));

        let plan = || ShardPlan::new(3);
        let (arc_sh, _) = run_sharded(s.as_ref(), spawn(), until, plan());
        let (codec_sh, _) = run_sharded_codec(s.as_ref(), spawn(), until, plan(), &NoFaults);
        assert_identical(&arc_sh, &codec_sh, &format!("{cfg}: sharded"));

        // and the codec engines agree with each other, as always
        assert_identical(&codec_ls, &codec_th, &format!("{cfg}: ls vs th"));
        assert_identical(&codec_ls, &codec_sh, &format!("{cfg}: ls vs sh"));

        // the socket engine is codec-only (bytes always cross the OS
        // boundary) — with the inert plane it must sit in the same
        // equivalence class
        if loopback_available() {
            let (sock, _) = run_socket(s.as_ref(), spawn(), until, SocketPlan::new(3))
                .unwrap_or_else(|e| panic!("{cfg}: socket engine failed: {e}"));
            assert_identical(&codec_ls, &sock, &format!("{cfg}: ls vs socket"));
        }
    }
}

/// No engine panics at **any** corruption rate — including 1.0, where
/// every non-loopback frame is mangled or dropped and each process hears
/// only itself. Per rate and seed, lockstep and the sharded engine at one
/// process per shard and at two shards produce identical traces, fault
/// ledgers and quarantine counts; re-running reproduces them
/// byte-for-byte.
#[test]
fn engines_survive_every_corruption_rate_deterministically() {
    let n = 6;
    let inputs = distinct_inputs(n);
    let s = StableRootAdversary::sample(n, mix_seed(0xfa11));
    let until = RunUntil::Rounds(lemma11_bound(&s) + 2);
    for (i, rate) in [0.0, 0.1, 0.5, 0.9, 1.0].into_iter().enumerate() {
        let plane = CorruptionOverlay::new(mix_seed(0xc0de + i as u64), rate);
        let ctx = format!("rate={rate}");
        let spawn = || freshness_spawn(n, &inputs);

        let (ls, _) = run_lockstep_codec(&s, spawn(), until, &plane);
        let (th, _) = run_sharded_codec(&s, spawn(), until, ShardPlan::new(n), &plane);
        let (sh, _) = run_sharded_codec(&s, spawn(), until, ShardPlan::new(2), &plane);
        assert_identical(&ls, &th, &format!("{ctx}: lockstep vs per-process shards"));
        assert_identical(&ls, &sh, &format!("{ctx}: lockstep vs sharded"));
        assert_eq!(
            ls.faults.quarantined(),
            th.faults.quarantined(),
            "{ctx}: quarantine counts diverged"
        );

        // determinism: an identical re-run reproduces the exact ledger
        let (again, _) = run_lockstep_codec(&s, spawn(), until, &plane);
        assert_identical(&ls, &again, &format!("{ctx}: re-run"));

        if rate == 0.0 {
            assert!(ls.faults.is_empty(), "{ctx}: zero rate lost frames");
        }
        if rate == 1.0 {
            // every process heard only itself: nobody's frame survived,
            // and the ledger carries every off-loopback edge of every
            // executed round
            assert!(!ls.faults.is_empty(), "{ctx}: full rate lost nothing");
        }
    }
}

/// Fault-plane parity at the genuine byte boundary: a `CorruptionOverlay`
/// rate sweep through `run_socket_codec` — where the tampered frames
/// really crossed loopback TCP — is byte-identical (trace, `msg_stats`,
/// quarantine ledger) to `run_lockstep_codec` under the same plane, and a
/// quiet-after run matches the uncorrupted `Arc` oracle on its
/// [`EffectiveSchedule`].
#[test]
fn socket_codec_parity_with_lockstep_across_rates() {
    if !loopback_available() {
        eprintln!("skipping: loopback unavailable in this sandbox");
        return;
    }
    let n = 6;
    let inputs = distinct_inputs(n);
    let s = StableRootAdversary::sample(n, mix_seed(0x50c1a1));
    let until = RunUntil::Rounds(lemma11_bound(&s) + 2);
    for (i, rate) in [0.0, 0.1, 0.5, 1.0].into_iter().enumerate() {
        let plane = CorruptionOverlay::new(mix_seed(0x50cc + i as u64), rate);
        let ctx = format!("rate={rate}");
        let spawn = || freshness_spawn(n, &inputs);

        let (ls, _) = run_lockstep_codec(&s, spawn(), until, &plane);
        for shards in [1usize, 3] {
            let (sock, _) = run_socket_codec(&s, spawn(), until, SocketPlan::new(shards), &plane)
                .unwrap_or_else(|e| panic!("{ctx} shards={shards}: socket engine failed: {e}"));
            assert_identical(&ls, &sock, &format!("{ctx} shards={shards}: ls vs socket"));
            assert_eq!(
                ls.faults.quarantined(),
                sock.faults.quarantined(),
                "{ctx} shards={shards}: quarantine counts diverged"
            );
        }
        if rate == 0.0 {
            assert!(ls.faults.is_empty(), "{ctx}: zero rate lost frames");
        }

        // quiet-after variant: the corrupted socket run must equal the
        // uncorrupted Arc run of the effective schedule — the oracle that
        // defines what surviving the corruption *means*
        let quiet = s.stabilization_round() + 2;
        let quiet_plane =
            CorruptionOverlay::new(mix_seed(0x50cc + i as u64), rate).quiet_after(quiet);
        let eff = quiet_plane.effective(&s);
        let (sock_q, _) = run_socket_codec(&s, spawn(), until, SocketPlan::new(2), &quiet_plane)
            .unwrap_or_else(|e| panic!("{ctx}: quiet socket run failed: {e}"));
        let (oracle, _) = run_lockstep(&eff, spawn(), until);
        assert_eq!(
            sock_q.decisions, oracle.decisions,
            "{ctx}: socket run vs effective-schedule oracle decisions"
        );
        assert_eq!(
            sock_q.msg_stats, oracle.msg_stats,
            "{ctx}: socket run vs effective-schedule oracle wire accounting"
        );
    }
}

/// Corrupted frames are quarantined with their **typed** [`WireError`]
/// cause (never a panic, never a silent drop): a high-rate run exhibits
/// both outright drops and decoder quarantines in its ledger.
#[test]
fn quarantined_frames_carry_typed_causes() {
    let n = 6;
    let inputs = distinct_inputs(n);
    let s = FixedSchedule::synchronous(n);
    let plane = CorruptionOverlay::new(mix_seed(0x7a9e), 0.8);
    let (trace, _) = run_lockstep_codec(
        &s,
        freshness_spawn(n, &inputs),
        RunUntil::Rounds(12),
        &plane,
    );
    assert!(trace.faults.dropped() > 0, "no outright drops at rate 0.8");
    assert!(
        trace.faults.quarantined() > 0,
        "no decoder quarantines at rate 0.8"
    );
    for f in &trace.faults.faults {
        assert_ne!(f.from, f.to, "loopback frames must never be tampered");
        if let FaultCause::Quarantined(e) = &f.cause {
            // the typed taxonomy of the wire codec, not a catch-all
            let _: &sskel::model::wire::WireError = e;
        }
    }
}

/// The conformance oracle for corrupted runs: a corrupted codec run over
/// `base` is byte-identical (faults aside) to an uncorrupted `Arc` run
/// over the **effective schedule** — and its decisions satisfy the full
/// k-set agreement contract at the effective schedule's own `min_k`,
/// within the effective schedule's Lemma-11 bound.
fn conform_corrupted(cfg: &AdversaryConfig, rate: f64) -> Result<(), TestCaseError> {
    let s = cfg.build();
    let n = s.n();
    // The plane must eventually go quiet or nothing is guaranteed to
    // terminate; quiet shortly after the base stabilizes, so corruption
    // overlaps the interesting prefix.
    let quiet = s.stabilization_round() + 2;
    let plane = CorruptionOverlay::new(cfg.seed ^ 0xbad, rate).quiet_after(quiet);
    let eff = plane.effective(s.as_ref());
    validate_schedule(&eff, lemma11_bound(&eff) + 2)
        .map_err(|e| TestCaseError::fail(format!("{cfg}: effective schedule contract: {e}")))?;

    let inputs = cfg.inputs();
    let until = RunUntil::AllDecided {
        max_rounds: lemma11_bound(&eff) + 2,
    };
    let (corrupted, _) = run_lockstep_codec(s.as_ref(), freshness_spawn(n, &inputs), until, &plane);
    let (oracle, _) = run_lockstep(&eff, freshness_spawn(n, &inputs), until);

    prop_assert_eq!(
        &corrupted.decisions,
        &oracle.decisions,
        "{}: corrupted run vs effective-schedule oracle decisions",
        cfg
    );
    prop_assert_eq!(
        corrupted.rounds_executed,
        oracle.rounds_executed,
        "{}: corrupted run vs oracle round counts",
        cfg
    );
    prop_assert_eq!(
        corrupted.msg_stats,
        oracle.msg_stats,
        "{}: corrupted run vs oracle wire accounting",
        cfg
    );

    let min_k = min_k_on_skeleton(&eff.stable_skeleton());
    let verdict = verify(
        &corrupted,
        &VerifySpec::new(min_k, inputs).with_lemma11_bound(&eff),
    );
    prop_assert!(
        verdict.is_ok(),
        "{} (effective min_k={}):\n  {}",
        cfg,
        min_k,
        verdict.violations.join("\n  ")
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(8)))]

    /// Sampled corrupted-conformance sweep (the nightly job raises the
    /// case count via `SSKEL_FUZZ_CASES`).
    #[test]
    fn corrupted_runs_conform_on_the_surviving_schedule(
        cfg in adversary_config(AdversaryFamily::StableRoot, 2..10),
    ) {
        // the corruption rate is itself seeded, sweeping (0, 1]
        let rate = (1 + (cfg.seed >> 40) % 1000) as f64 / 1000.0;
        conform_corrupted(&cfg, rate)?;
    }
}

/// The full overlay composition of the fault-injection plane:
/// `CorruptionOverlay` (wire corruption) over `CrashRestartOverlay`
/// (bounded silence windows) over `CrashOverlay` (clean crashes) over
/// `HealedPartitionAdversary` (transient partitions) — through lockstep
/// and the sharded engine at one process per shard and at three shards,
/// with identical traces and fault ledgers per seed.
#[test]
fn composed_overlays_survive_all_three_engines() {
    for entropy in 0..3u64 {
        let seed = mix_seed(0xc09e + entropy);
        let n = 8;
        let partition = HealedPartitionAdversary::seeded(n, 2, 3, seed);
        let crashed = CrashOverlay::seeded(partition, 1, seed);
        let s = CrashRestartOverlay::seeded(crashed, 2, seed);
        let bound = lemma11_bound(&s);
        validate_schedule(&s, bound + 2).unwrap_or_else(|e| panic!("seed={seed:#x}: {e}"));
        let plane = CorruptionOverlay::new(seed ^ 0xf001, 0.25);
        let inputs = distinct_inputs(n);
        let until = RunUntil::Rounds(bound + 2);
        let ctx = format!("seed={seed:#x}");
        let spawn = || freshness_spawn(n, &inputs);

        let (ls, _) = run_lockstep_codec(&s, spawn(), until, &plane);
        let (th, _) = run_sharded_codec(&s, spawn(), until, ShardPlan::new(n), &plane);
        let (sh, _) = run_sharded_codec(&s, spawn(), until, ShardPlan::new(3), &plane);
        assert_identical(&ls, &th, &format!("{ctx}: lockstep vs per-process shards"));
        assert_identical(&ls, &sh, &format!("{ctx}: lockstep vs sharded"));
        assert_eq!(
            ls.faults.quarantined(),
            sh.faults.quarantined(),
            "{ctx}: quarantine counts diverged"
        );
        assert!(
            ls.anomalies.is_empty(),
            "{ctx}: anomalies: {:?}",
            ls.anomalies
        );
    }
}

/// Crash/restart recovery with the real Algorithm 1: a process killed
/// mid-run and resumed from its last canonical snapshot (the estimator's
/// rebase cut points, serialized with the wire codec) produces a trace
/// **byte-identical** to the uninterrupted run of the same schedule —
/// with and without a corruption plane underneath, and under the
/// all-decided stop condition too.
#[test]
fn killed_and_resumed_kset_agreement_matches_the_uninterrupted_run() {
    for entropy in 0..3u64 {
        let seed = mix_seed(0x5a7e + entropy);
        let n = 7;
        let s = CrashRestartOverlay::seeded(FixedSchedule::synchronous(n), 2, seed);
        let horizon = lemma11_bound(&s) + 2;
        let inputs = distinct_inputs(n);
        let until = RunUntil::Rounds(horizon);
        let ctx = format!("seed={seed:#x}");

        // inert plane
        let (resumed, _) =
            run_lockstep_recovering(&s, freshness_spawn(n, &inputs), until, &NoFaults);
        let (uninterrupted, _) =
            run_lockstep_codec(&s, freshness_spawn(n, &inputs), until, &NoFaults);
        assert_identical(&resumed, &uninterrupted, &format!("{ctx}: inert plane"));
        assert!(
            resumed.all_decided(),
            "{ctx}: resumed run failed to terminate"
        );

        // corruption plane underneath the kill/restart windows, under
        // either stop condition
        let plane = CorruptionOverlay::new(seed ^ 0xd1e, 0.2).quiet_after(s.stabilization_round());
        for until in [
            until,
            RunUntil::AllDecided {
                max_rounds: horizon,
            },
        ] {
            let (resumed_c, _) =
                run_lockstep_recovering(&s, freshness_spawn(n, &inputs), until, &plane);
            let (uninterrupted_c, _) =
                run_lockstep_codec(&s, freshness_spawn(n, &inputs), until, &plane);
            assert_identical(
                &resumed_c,
                &uninterrupted_c,
                &format!("{ctx}: corruption plane, {until:?}"),
            );
        }

        // and the resumed run still satisfies the paper contract
        let min_k = min_k_on_skeleton(&s.stable_skeleton());
        verify(
            &resumed,
            &VerifySpec::new(min_k, inputs.clone()).with_lemma11_bound(&s),
        )
        .assert_ok();
    }
}

/// `Recoverable` snapshots of Algorithm 1 reject malformed input with a
/// typed error — the restore path inherits the wire codec's taxonomy and
/// must never panic on arbitrary bytes.
#[test]
fn kset_snapshot_restore_rejects_garbage_without_panicking() {
    let n = 5;
    let inputs = distinct_inputs(n);
    let algs = freshness_spawn(n, &inputs);
    let snap = sskel::model::Recoverable::snapshot(&algs[2]);
    // the genuine snapshot round-trips
    let restored: KSetAgreement = sskel::model::Recoverable::restore(&snap).unwrap();
    assert_eq!(restored.decision(), algs[2].decision());
    // every truncation fails typed, never panics
    for cut in 0..snap.len() {
        let r: Result<KSetAgreement, _> = sskel::model::Recoverable::restore(&snap[..cut]);
        assert!(r.is_err(), "truncation at {cut} restored");
    }
    // and so does every single-byte corruption
    for i in 0..snap.len() {
        let mut bad = snap.to_vec();
        bad[i] ^= 0x40;
        let _: Result<KSetAgreement, _> = sskel::model::Recoverable::restore(&bad);
    }
}

/// The fault plane through the **multiplexed** engine: M instances on one
/// worker pool, every inter-shard frame travelling inside an
/// instance-tagged per-tick batch, with a `CorruptionOverlay` tampering at
/// the codec boundary. Per instance, the trace *and the quarantine
/// ledger* are byte-identical to a solo `run_lockstep_codec` of the same
/// (schedule, inputs, plane) — batching frames does not change what the
/// plane sees, at any rate, under staggered admissions. (Lockstep is the
/// oracle because the solo sharded engine runs the multiplex worker.)
#[test]
fn multiplexed_corruption_matches_solo_per_instance() {
    let cases = [
        (AdversaryFamily::StableRoot, 6usize, 1u32),
        (AdversaryFamily::HealedPartition, 4, 3),
        (AdversaryFamily::Crash, 7, 2),
        (AdversaryFamily::RotatingRoot, 5, 6),
    ];
    for (ri, rate) in [0.0, 0.4, 1.0].into_iter().enumerate() {
        let plane = CorruptionOverlay::new(mix_seed(0xba7c + ri as u64), rate);
        let configs: Vec<(AdversaryConfig, Round)> = cases
            .iter()
            .enumerate()
            .map(|(i, &(family, n, admit))| {
                (
                    AdversaryConfig {
                        family,
                        n,
                        seed: mix_seed(0x1000 * ri as u64 + i as u64),
                    },
                    admit,
                )
            })
            .collect();
        let scheds: Vec<Box<dyn Schedule>> = configs.iter().map(|(c, _)| c.build()).collect();
        let until_for = |s: &dyn Schedule| RunUntil::Rounds(lemma11_bound(s) + 2);
        let instances: Vec<MuxInstance<'_, KSetAgreement>> = configs
            .iter()
            .zip(scheds.iter())
            .map(|((cfg, admit), s)| {
                MuxInstance::new(
                    s.as_ref(),
                    freshness_spawn(s.n(), &cfg.inputs()),
                    until_for(s.as_ref()),
                )
                .admitted_at(*admit)
            })
            .collect();
        let results = run_multiplex_codec(instances, MultiplexPlan::new(3), &plane);
        for (((cfg, admit), s), (mux, _)) in configs.iter().zip(scheds.iter()).zip(results.iter()) {
            let (solo, _) = run_lockstep_codec(
                s.as_ref(),
                freshness_spawn(s.n(), &cfg.inputs()),
                until_for(s.as_ref()),
                &plane,
            );
            assert_identical(mux, &solo, &format!("rate={rate} {cfg} @t{admit}"));
            if rate == 1.0 && s.n() > 1 {
                assert!(
                    !mux.faults.is_empty(),
                    "rate=1.0 {cfg}: batched frames escaped the plane"
                );
            }
        }
    }
}

/// Negative paths of the instance-tagged batch framing, at the public
/// API: unknown instance ids, duplicate groups, truncation mid-batch and
/// oversized frames all surface as **typed** [`WireError`]s from
/// `BatchReader` — never a panic — and decoding garbage never reads past
/// the buffer.
#[test]
fn hostile_batch_framing_fails_typed_never_panics() {
    use sskel::model::wire::{write_uvarint, WireError};

    let universes = [3usize, 5];
    let p = ProcessId::from_usize;
    let mut b = BatchBuilder::new();
    b.push(0, p(0), p(1), bytes::Bytes::from(b"alpha".to_vec()));
    b.push(1, p(4), p(2), bytes::Bytes::from(b"bet".to_vec()));
    let good = b.encode();

    let drain = |buf: &[u8], max: usize| -> Result<usize, WireError> {
        let mut rd = BatchReader::new(buf, &universes, max);
        let mut n = 0;
        while rd.next_frame()?.is_some() {
            n += 1;
        }
        Ok(n)
    };

    // the well-formed batch decodes fully
    assert_eq!(drain(&good, usize::MAX).unwrap(), 2);

    // every strict prefix is a typed truncation error, never a panic
    for cut in 0..good.len() {
        match drain(&good[..cut], usize::MAX) {
            Err(WireError::UnexpectedEnd) => {}
            other => panic!("cut at {cut}: expected UnexpectedEnd, got {other:?}"),
        }
    }

    // unknown instance id: a group tagged beyond the universe table
    let mut bad: Vec<u8> = Vec::new();
    write_uvarint(&mut bad, 1); // one group
    write_uvarint(&mut bad, 9); // instance 9: not served here
    write_uvarint(&mut bad, 1);
    // one entry: from 0, one receiver, to 1, a 2-byte frame
    for v in [0u64, 1, 1, 2] {
        write_uvarint(&mut bad, v);
    }
    bad.extend_from_slice(b"xy");
    assert!(
        matches!(drain(&bad, usize::MAX), Err(WireError::InvalidValue(_))),
        "unknown instance id must be typed"
    );

    // duplicate instance group (also covers out-of-order, same check)
    let mut dup: Vec<u8> = Vec::new();
    write_uvarint(&mut dup, 2);
    for _ in 0..2 {
        write_uvarint(&mut dup, 0); // instance 0, twice
        write_uvarint(&mut dup, 1);
        for v in [0u64, 1, 1, 1] {
            write_uvarint(&mut dup, v);
        }
        dup.extend_from_slice(b"z");
    }
    assert!(
        matches!(drain(&dup, usize::MAX), Err(WireError::InvalidValue(_))),
        "duplicate instance group must be typed"
    );

    // oversized frame vs. the reader's cap
    assert!(
        matches!(drain(&good, 4), Err(WireError::InvalidValue(_))),
        "a frame past the cap must be typed"
    );

    // random single-byte corruption across the whole batch: typed error
    // or (rarely) a still-valid parse — never a panic, verified by running
    for i in 0..good.len() {
        for flip in [0x01u8, 0x80] {
            let mut mangled = good.clone();
            mangled[i] ^= flip;
            let _ = drain(&mangled, usize::MAX);
        }
    }
}
