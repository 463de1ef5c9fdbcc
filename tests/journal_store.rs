//! The durable run store, end to end over Algorithm 1: append-only
//! journals, kill-anywhere/resume, and adversarial-garbage rejection.
//!
//! The contract under test (see `docs/TESTING.md`):
//!
//! * **pure observation** — journaling a run changes nothing: the trace
//!   is byte-identical to `run_lockstep_codec` over the same schedule
//!   and fault plane, with and without in-flight corruption;
//! * **kill anywhere, resume exactly** — truncate the journal at *any*
//!   byte (record boundaries and torn mid-record writes alike), resume
//!   from the durable prefix, and the completed run is byte-identical
//!   to the uninterrupted one — decisions, message accounting and the
//!   fault ledger included;
//! * **garbage never panics** — bit flips, junk suffixes, stale
//!   versions, foreign engine ids and universe mismatches are all
//!   rejected with typed errors ([`ResumeError`] wrapping `WireError`);
//!   a resume that *succeeds* despite tampering proves the tampering
//!   landed outside the durable prefix, so the trace still matches the
//!   oracle.

use proptest::prelude::*;

use sskel::model::journal::{
    scan, JournalHeader, JournalWriter, ENGINE_LOCKSTEP_JOURNALED, JOURNAL_VERSION,
};
use sskel::model::testutil::fuzz_cases;
use sskel::prelude::*;

fn distinct_inputs(n: usize) -> Vec<Value> {
    (0..n).map(|i| 20 + 3 * i as Value).collect()
}

/// Algorithm 1 with the rebase limit forced down to `n + 2` so snapshot
/// cuts (and therefore resumable states) appear within a short horizon.
fn spawn(n: usize) -> Vec<KSetAgreement> {
    let inputs = distinct_inputs(n);
    let mut algs = KSetAgreement::spawn_all(n, &inputs);
    for a in &mut algs {
        a.set_rebase_limit(n as Round + 2);
    }
    algs
}

fn meta(n: usize, seed: u64) -> RunMeta {
    RunMeta {
        seed,
        rebase_limit: n as u64 + 2,
    }
}

fn assert_identical(a: &RunTrace, b: &RunTrace, ctx: &str) {
    if let Some(d) = diff_run_traces(a, b) {
        panic!("{ctx}: traces diverged — {d}");
    }
}

/// Journaling is pure observation: the trace equals the codec oracle's,
/// with an inert plane and under seeded frame corruption.
#[test]
fn journaled_kset_run_matches_the_codec_oracle() {
    let n = 6;
    let s = FixedSchedule::synchronous(n);
    let until = RunUntil::Rounds(14);

    let (oracle, _) = run_lockstep_codec(&s, spawn(n), until, &NoFaults);
    let mut journal = Vec::new();
    let (t, _) =
        run_lockstep_journaled(&s, spawn(n), until, &NoFaults, &meta(n, 1), &mut journal).unwrap();
    assert_identical(&oracle, &t, "inert plane");
    let scanned = scan(&journal).unwrap();
    assert!(!scanned.truncated);
    assert_eq!(scanned.rounds.len() as Round, oracle.rounds_executed);

    let plane = CorruptionOverlay::new(0x6a11, 0.3).quiet_after(9);
    let (oracle_c, _) = run_lockstep_codec(&s, spawn(n), until, &plane);
    let mut journal_c = Vec::new();
    let (tc, _) =
        run_lockstep_journaled(&s, spawn(n), until, &plane, &meta(n, 2), &mut journal_c).unwrap();
    assert_identical(&oracle_c, &tc, "corrupting plane");
    assert!(!oracle_c.faults.is_empty(), "rate 0.3 never fired");
    assert!(!scan(&journal_c).unwrap().truncated);
}

/// Kill the process at every record boundary *and* at strided mid-record
/// byte offsets, under a fixed horizon and under an all-decided stop;
/// every resume either reports a typed "no durable snapshot" error (cuts
/// inside the header/first-snapshot prefix) or completes the run
/// byte-identically.
#[test]
fn kill_sweep_over_every_boundary_and_torn_write_is_exact() {
    let n = 6;
    let s = FixedSchedule::synchronous(n);
    let plane = CorruptionOverlay::new(0xdead, 0.25).quiet_after(9);
    for until in [
        RunUntil::Rounds(14),
        RunUntil::AllDecided { max_rounds: 14 },
    ] {
        let (oracle, _) = run_lockstep_codec(&s, spawn(n), until, &plane);
        let mut journal = Vec::new();
        run_lockstep_journaled(&s, spawn(n), until, &plane, &meta(n, 3), &mut journal).unwrap();
        let full = scan(&journal).unwrap();
        let first_snapshot_end = full.record_ends[1]; // header record, then cut 0

        let mut cuts: Vec<usize> = full.record_ends.clone();
        cuts.extend((0..journal.len()).step_by(7)); // torn mid-record writes
        for cut in cuts {
            let ctx = format!("{until:?}, kill at byte {cut}");
            // A torn header prefix has no durable bytes at all.
            let Ok(scanned) = scan(&journal[..cut]) else {
                assert!(cut < first_snapshot_end, "{ctx}: scan refused a clean cut");
                continue;
            };
            // The caller contract: position the sink at the durable prefix.
            let mut store = journal[..scanned.durable_len].to_vec();
            let prefix = store.clone();
            let res = resume_from_journal::<_, KSetAgreement, _, _>(
                &s, &prefix, until, &plane, &mut store,
            );
            if scanned.durable_len < first_snapshot_end {
                assert!(
                    matches!(res, Err(ResumeError::Wire(_))),
                    "{ctx}: expected a typed no-snapshot error"
                );
                continue;
            }
            let (t, _) = res.unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
            assert_identical(&oracle, &t, &ctx);
            let rescanned = scan(&store).unwrap();
            assert!(!rescanned.truncated, "{ctx}: continuation left a tear");
            assert_eq!(rescanned.rounds.len() as Round, oracle.rounds_executed);
        }
    }
}

/// Strided single-bit flips over the whole file: scan and resume either
/// reject with a typed error or — when the flip landed beyond the
/// durable prefix actually used — reproduce the oracle exactly. Nothing
/// panics.
#[test]
fn bit_flips_are_typed_rejections_never_panics() {
    let n = 5;
    let s = FixedSchedule::synchronous(n);
    let until = RunUntil::Rounds(12);
    let (oracle, _) = run_lockstep_codec(&s, spawn(n), until, &NoFaults);
    let mut journal = Vec::new();
    run_lockstep_journaled(&s, spawn(n), until, &NoFaults, &meta(n, 4), &mut journal).unwrap();

    let mut typed_rejections = 0usize;
    for pos in (0..journal.len()).step_by(5) {
        let mut bytes = journal.clone();
        bytes[pos] ^= 1 << (pos % 8);
        let Ok(scanned) = scan(&bytes) else {
            typed_rejections += 1;
            continue;
        };
        let mut store = bytes[..scanned.durable_len].to_vec();
        let prefix = store.clone();
        match resume_from_journal::<_, KSetAgreement, _, _>(
            &s, &prefix, until, &NoFaults, &mut store,
        ) {
            Err(ResumeError::Wire(_)) => typed_rejections += 1,
            Err(ResumeError::Io(e)) => panic!("flip at {pos}: io error on a Vec sink: {e}"),
            Ok((t, _)) => assert_identical(&oracle, &t, &format!("flip at byte {pos}")),
        }
    }
    assert!(typed_rejections > 0, "no flip was ever detected");
}

/// Junk appended after a complete journal is a torn tail: the scan stays
/// clean up to `durable_len` and a resume of that prefix replays the
/// whole run without appending anything.
#[test]
fn junk_suffix_is_a_torn_tail_not_an_error() {
    let n = 5;
    let s = FixedSchedule::synchronous(n);
    let until = RunUntil::Rounds(10);
    let mut journal = Vec::new();
    let (t1, _) =
        run_lockstep_journaled(&s, spawn(n), until, &NoFaults, &meta(n, 5), &mut journal).unwrap();
    let clean_len = journal.len();

    for junk in [&[0xffu8; 17][..], &[0x00; 3], &[0xab; 64]] {
        let mut bytes = journal.clone();
        bytes.extend_from_slice(junk);
        match scan(&bytes) {
            Err(_) => {} // junk that parses as a complete-but-invalid record
            Ok(scanned) => {
                assert!(scanned.durable_len <= clean_len);
                let mut store = bytes[..scanned.durable_len].to_vec();
                let before = store.len();
                let prefix = store.clone();
                let (t2, _) = resume_from_journal::<_, KSetAgreement, _, _>(
                    &s, &prefix, until, &NoFaults, &mut store,
                )
                .unwrap();
                assert_identical(&t1, &t2, "junk suffix");
                assert_eq!(store.len(), before, "pure replay appends nothing");
            }
        }
    }
}

/// Provenance mismatches are typed errors: a stale format version fails
/// the scan; a foreign engine id and a universe-size mismatch fail the
/// resume before any state is restored.
#[test]
fn provenance_mismatches_are_typed_errors() {
    let n = 5;
    let s = FixedSchedule::synchronous(n);
    let until = RunUntil::Rounds(8);

    // Stale format version: rejected by the scan itself.
    let mut stale = Vec::new();
    let header = JournalHeader {
        version: JOURNAL_VERSION + 1,
        n,
        seed: 9,
        engine: ENGINE_LOCKSTEP_JOURNALED,
        rebase_limit: n as u64 + 2,
    };
    JournalWriter::create(&mut stale, &header).unwrap();
    assert!(scan(&stale).is_err(), "future version accepted");

    // Foreign engine id: scans fine, refuses to resume.
    let mut foreign = Vec::new();
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        engine: ENGINE_LOCKSTEP_JOURNALED + 1,
        ..header
    };
    JournalWriter::create(&mut foreign, &header).unwrap();
    let prefix = foreign.clone();
    let res =
        resume_from_journal::<_, KSetAgreement, _, _>(&s, &prefix, until, &NoFaults, &mut foreign);
    assert!(
        matches!(res, Err(ResumeError::Wire(_))),
        "foreign engine accepted"
    );

    // Universe mismatch: a clean n = 5 journal against an n = 6 schedule.
    let mut journal = Vec::new();
    run_lockstep_journaled(&s, spawn(n), until, &NoFaults, &meta(n, 6), &mut journal).unwrap();
    let wider = FixedSchedule::synchronous(n + 1);
    let prefix = journal.clone();
    let res = resume_from_journal::<_, KSetAgreement, _, _>(
        &wider,
        &prefix,
        until,
        &NoFaults,
        &mut journal,
    );
    assert!(
        matches!(res, Err(ResumeError::Wire(_))),
        "universe mismatch accepted"
    );
}

#[derive(Clone, Debug)]
struct KillCase {
    n: usize,
    seed: u64,
    cut_permille: u32,
    rate_permille: u32,
}

/// Shrinks through `prop_map` (the source tuple keeps shrinking under
/// the mapped view), minimizing any counterexample toward the smallest
/// universe, seed and cut.
fn kill_case() -> impl Strategy<Value = KillCase> {
    (4usize..8, 0u64..1 << 32, 0u32..1000, 0u32..1000).prop_map(
        |(n, seed, cut_permille, rate_permille)| KillCase {
            n,
            seed,
            cut_permille,
            rate_permille,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(48)))]

    /// Randomized kill/resume: any (universe, corruption seed, corruption
    /// rate, cut point) either refuses with a typed error or resumes to
    /// the exact oracle trace.
    #[test]
    fn random_kills_resume_to_the_oracle(case in kill_case()) {
        let KillCase { n, seed, cut_permille, rate_permille } = case;
        let s = FixedSchedule::synchronous(n);
        let plane = CorruptionOverlay::new(seed, f64::from(rate_permille) / 1000.0).quiet_after(9);
        let until = RunUntil::Rounds(13);
        let (oracle, _) = run_lockstep_codec(&s, spawn(n), until, &plane);
        let mut journal = Vec::new();
        run_lockstep_journaled(&s, spawn(n), until, &plane, &meta(n, seed), &mut journal)
            .map_err(|e| TestCaseError::fail(format!("journaled run: {e}")))?;
        let full = scan(&journal)
            .map_err(|e| TestCaseError::fail(format!("clean journal failed to scan: {e}")))?;
        let first_snapshot_end = full.record_ends[1];

        let cut = journal.len() * cut_permille as usize / 1000;
        let Ok(scanned) = scan(&journal[..cut]) else {
            prop_assert!(cut < first_snapshot_end, "scan refused a clean cut {}", cut);
            return Ok(());
        };
        let mut store = journal[..scanned.durable_len].to_vec();
        let prefix = store.clone();
        let res = resume_from_journal::<_, KSetAgreement, _, _>(&s, &prefix, until, &plane, &mut store);
        if scanned.durable_len < first_snapshot_end {
            prop_assert!(matches!(res, Err(ResumeError::Wire(_))), "no-snapshot cut must refuse");
            return Ok(());
        }
        let (t, _) = res.map_err(|e| TestCaseError::fail(format!("resume at {cut}: {e}")))?;
        if let Some(d) = diff_run_traces(&oracle, &t) {
            return Err(TestCaseError::fail(format!("kill at byte {cut}: {d}")));
        }
        let rescanned = scan(&store)
            .map_err(|e| TestCaseError::fail(format!("continuation journal: {e}")))?;
        prop_assert!(!rescanned.truncated);
        prop_assert_eq!(rescanned.rounds.len() as Round, oracle.rounds_executed);
    }
}

/// FNV-1a over a whole journal: a format pin, not a checksum.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The journal's bytes are pinned: one fixed corrupted Algorithm-1 run
/// whose short rebase limit produces snapshot cuts, written from round 1
/// and continued by a resume from a mid-run record boundary. Every other
/// suite compares traces, so a change in which records are appended, or
/// in their order, would pass them all and fail only here.
#[test]
fn journal_bytes_are_pinned() {
    const LEN: usize = 6456;
    const FNV: u64 = 0xdd14_b0f5_61f0_e9ca;
    let n = 8;
    let s = StableRootAdversary::new(n, 2, 2, 4, 300, 0x5eed);
    let plane = CorruptionOverlay::new(0x1ce, 0.2).quiet_after(10);
    let until = RunUntil::Rounds(24);
    let mut journal = Vec::new();
    run_lockstep_journaled(&s, spawn(n), until, &plane, &meta(n, 7), &mut journal).unwrap();
    let scanned = scan(&journal).unwrap();
    assert!(
        scanned.snapshots.len() > 2,
        "no snapshot cut inside the run"
    );
    assert_eq!(
        (journal.len(), fnv64(&journal)),
        (LEN, FNV),
        "journal format changed"
    );

    // No snapshot is owed at this cut, so the continuation rewrites
    // exactly the records the original run wrote.
    let cut = scanned.record_ends[scanned.record_ends.len() / 2];
    let mut store = journal[..cut].to_vec();
    let prefix = store.clone();
    resume_from_journal::<_, KSetAgreement, _, _>(&s, &prefix, until, &plane, &mut store).unwrap();
    assert_eq!(
        (store.len(), fnv64(&store)),
        (LEN, FNV),
        "continuation from byte {cut} changed the journal"
    );
}
