//! Multiplex conformance tier: M-way multiplexed runs vs. M solo oracles.
//!
//! `run_multiplex_codec` promises that multiplexing is an optimization and
//! never a semantic change: every instance of an M-way run — whatever else
//! is multiplexed alongside, however shards and admission ticks are chosen
//! — produces a trace **byte-identical** to a solo `run_sharded_codec` of
//! the same (schedule, inputs, stop condition, fault plane). This suite
//! pins that contract differentially:
//!
//! * per-family singletons (M = 1) across worker counts, for all eight
//!   adversary families;
//! * homogeneous pairs (M = 2) sharing one schedule *object*, so the
//!   engine's shared-synthesis cache is on the hot path;
//! * a heterogeneous M = 16 mix of families, universe sizes and staggered
//!   admission ticks — instances decide and retire at different ticks,
//!   late admissions reuse arena buffers;
//! * sampled whole workloads via `testutil::mux_workload` (shrinking
//!   proptest; budget scales with `SSKEL_FUZZ_CASES` for the nightly
//!   sweep).
//!
//! Every case derives its seeds from `SSKEL_TEST_SEED` (default fixed), so
//! failures reproduce by exporting the seed from the failure message —
//! same protocol as `tests/conformance.rs`. All comparisons cover the
//! decision vector, round count, `msg_stats`, the fault ledger and the
//! anomaly list.

use proptest::prelude::*;

use sskel::model::engine::multiplex::{run_multiplex_codec, MultiplexPlan, MuxInstance};
use sskel::model::testutil::{fuzz_cases, mix_seed, mux_workload, AdversaryConfig, ALL_FAMILIES};
use sskel::prelude::*;

/// The stop condition every case runs under: all-decided with the
/// Lemma-11 headroom the conformance harness uses.
fn until_for(s: &dyn Schedule) -> RunUntil {
    RunUntil::AllDecided {
        max_rounds: lemma11_bound(s) + 2,
    }
}

fn spawn_for(cfg: &AdversaryConfig, n: usize) -> Vec<KSetAgreement> {
    KSetAgreement::spawn_all_with(n, &cfg.inputs(), DecisionRule::FreshnessGuarded)
}

/// The solo oracle: the same case through `run_sharded_codec` on a
/// seed-derived shard plan.
fn solo_oracle(cfg: &AdversaryConfig, s: &dyn Schedule) -> RunTrace {
    let plan = ShardPlan::new(1 + (cfg.seed % 3) as usize);
    let (trace, _) = run_sharded_codec(s, spawn_for(cfg, s.n()), until_for(s), plan, &NoFaults);
    trace
}

fn assert_identical(mux: &RunTrace, solo: &RunTrace, ctx: &str) -> Result<(), TestCaseError> {
    if let Some(d) = diff_run_traces(mux, solo) {
        return Err(TestCaseError::fail(format!(
            "{ctx}: mux vs solo diverged — {d}"
        )));
    }
    Ok(())
}

/// Runs a whole workload multiplexed on `shards` workers and checks every
/// instance against its solo oracle.
fn conform_workload(
    instances: &[(AdversaryConfig, Round)],
    shards: usize,
) -> Result<(), TestCaseError> {
    let scheds: Vec<Box<dyn Schedule>> = instances.iter().map(|(cfg, _)| cfg.build()).collect();
    let mux_in: Vec<MuxInstance<'_, KSetAgreement>> = instances
        .iter()
        .zip(scheds.iter())
        .map(|((cfg, admit), s)| {
            MuxInstance::new(s.as_ref(), spawn_for(cfg, s.n()), until_for(s.as_ref()))
                .admitted_at(*admit)
        })
        .collect();
    let results = run_multiplex_codec(mux_in, MultiplexPlan::new(shards), &NoFaults);
    prop_assert_eq!(results.len(), instances.len());
    for (((cfg, admit), s), (trace, algs)) in
        instances.iter().zip(scheds.iter()).zip(results.iter())
    {
        let solo = solo_oracle(cfg, s.as_ref());
        assert_identical(
            trace,
            &solo,
            &format!("{cfg} @t{admit}, {shards} workers, M={}", instances.len()),
        )?;
        prop_assert_eq!(algs.len(), s.n());
    }
    Ok(())
}

/// M = 1: a multiplexed singleton is exactly a sharded run, for every
/// adversary family and worker count — including workers that outnumber
/// the universe (empty shard ranges).
#[test]
fn singleton_multiplex_matches_solo_for_every_family() {
    for (fi, family) in ALL_FAMILIES.into_iter().enumerate() {
        let cfg = AdversaryConfig {
            family,
            n: 6,
            seed: mix_seed(0x517 + fi as u64),
        };
        for shards in [1usize, 3, 8] {
            if let Err(e) = conform_workload(&[(cfg.clone(), 1)], shards) {
                panic!("{e}");
            }
        }
    }
}

/// M = 2 homogeneous: both instances reference the *same* schedule object,
/// so every tick hits the shared-synthesis cache; inputs still differ per
/// instance position — decisions must match the solo oracle per instance.
#[test]
fn cosched_pair_shares_synthesis_and_matches_solo() {
    for (fi, family) in ALL_FAMILIES.into_iter().enumerate() {
        let cfg = AdversaryConfig {
            family,
            n: 5,
            seed: mix_seed(0xc05 + fi as u64),
        };
        let s = cfg.build();
        let until = until_for(s.as_ref());
        let instances = vec![
            MuxInstance::new(s.as_ref(), spawn_for(&cfg, s.n()), until),
            MuxInstance::new(s.as_ref(), spawn_for(&cfg, s.n()), until),
        ];
        let results = run_multiplex_codec(instances, MultiplexPlan::new(2), &NoFaults);
        let solo = solo_oracle(&cfg, s.as_ref());
        for (i, (trace, _)) in results.iter().enumerate() {
            if let Err(e) = assert_identical(trace, &solo, &format!("{cfg}: cosched twin {i}")) {
                panic!("{e}");
            }
        }
    }
}

/// M = 16 heterogeneous: every family twice, varied universe sizes and
/// seeds, admissions staggered over the first 8 ticks — instances retire
/// at different ticks and late admissions recycle arena buffers. Checked
/// across worker counts.
#[test]
fn heterogeneous_sixteen_with_staggered_admissions() {
    let instances: Vec<(AdversaryConfig, Round)> = (0..16u64)
        .map(|i| {
            let family = ALL_FAMILIES[(i % 8) as usize];
            let cfg = AdversaryConfig {
                family,
                n: 4 + (i as usize * 3) % 6,
                seed: mix_seed(0x8e7 + i),
            };
            (cfg, (1 + (i * 5) % 8) as Round)
        })
        .collect();
    for shards in [1usize, 2, 4] {
        if let Err(e) = conform_workload(&instances, shards) {
            panic!("{e}");
        }
    }
}

proptest! {
    // Each case multiplexes a whole sampled workload and runs one solo
    // oracle per instance: the default budget stays small, the nightly
    // sweep raises it via SSKEL_FUZZ_CASES.
    #![proptest_config(ProptestConfig::with_cases(fuzz_cases(6)))]

    #[test]
    fn sampled_workloads_match_their_solo_oracles(
        w in mux_workload(8, 2..9)
    ) {
        let shards = 1 + (w.instances.len() % 4);
        conform_workload(&w.instances, shards)
            .map_err(|e| TestCaseError::fail(format!("{w}: {e}")))?;
    }
}
