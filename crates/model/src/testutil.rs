//! Shared utilities for the paper-conformance harness (feature
//! `testutil`).
//!
//! The conformance suite (`tests/conformance.rs` at the repository root)
//! drives every adversary family of [`crate::adversary`] through every
//! simulation engine. This module holds the pieces the suite shares:
//!
//! * [`base_seed`] — the `SSKEL_TEST_SEED` environment override. Every
//!   conformance case derives its adversary seed from this base, so a
//!   failure observed in CI reproduces locally (and vice versa) by
//!   exporting the seed printed in the failure message;
//! * [`AdversaryConfig`] — one sampled conformance case (family × universe
//!   size × seed), buildable into a boxed [`Schedule`];
//! * [`adversary_config`] — a (vendored) proptest [`Strategy`] over
//!   configs, with shrinking toward smaller universes and seed 0;
//! * [`mux_workload`] — a strategy over whole multiplexed-service
//!   workloads (instance mixes with staggered admission ticks) for the
//!   multiplex conformance tier;
//! * the loopback seam shared by every socket-tier suite:
//!   [`loopback_available`] / [`require_loopback`] for the one skip path,
//!   [`loopback_pair`] / [`hostile_packet_stream`] for hand-driven hostile
//!   peers, and [`seeded_socket_plan`] for the conformance column's
//!   seed-derived plans.

use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::time::Duration;

use proptest::{Strategy, TestRng};
use sskel_graph::Round;

use crate::adversary::{
    ChurnAdversary, CrashOverlay, CrashRestartOverlay, HealedPartitionAdversary,
    LowerBoundAdversary, RotatingRootAdversary, StableRootAdversary,
};
use crate::algorithm::Value;
use crate::schedule::Schedule;

/// The base seed all conformance cases derive from: the value of the
/// `SSKEL_TEST_SEED` environment variable when set (decimal or `0x`-hex),
/// a fixed default otherwise — so CI and local runs agree byte-for-byte
/// unless a reproduction seed is being pinned on purpose.
///
/// # Panics
/// Panics (failing the test loudly) if the variable is set but not a
/// valid `u64`.
pub fn base_seed() -> u64 {
    match std::env::var("SSKEL_TEST_SEED") {
        Err(_) => 0x5eed_0bad_c0de_0001,
        // CI pipes the variable through unconditionally; empty means unset.
        Ok(raw) if raw.is_empty() => 0x5eed_0bad_c0de_0001,
        Ok(raw) => {
            let parsed = raw
                .strip_prefix("0x")
                .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
            parsed.unwrap_or_else(|_| panic!("SSKEL_TEST_SEED={raw:?} is not a u64"))
        }
    }
}

/// The per-property proptest case budget: the value of the
/// `SSKEL_FUZZ_CASES` environment variable when set, `default` otherwise.
/// The interactive suites default low (every conformance case spawns OS
/// threads); the nightly fuzz sweep exports a budget in the thousands to
/// grind the same properties over far more seeded configurations.
///
/// # Panics
/// Panics (failing the test loudly) if the variable is set but not a
/// positive `u32`.
pub fn fuzz_cases(default: u32) -> u32 {
    match std::env::var("SSKEL_FUZZ_CASES") {
        Err(_) => default,
        Ok(raw) if raw.is_empty() => default,
        Ok(raw) => match raw.parse() {
            Ok(cases) if cases > 0 => cases,
            _ => panic!("SSKEL_FUZZ_CASES={raw:?} is not a positive u32"),
        },
    }
}

/// Mixes per-case entropy into [`base_seed`]. Conformance failure messages
/// print the *mixed* seed; re-running with `SSKEL_TEST_SEED=<mixed seed>`
/// makes [`seed_override_cases`] hand back exactly that value, so the
/// drill-down test replays the same adversary in every family.
pub fn mix_seed(case_entropy: u64) -> u64 {
    let mut x = base_seed() ^ case_entropy;
    // splitmix64 finalizer
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// When `SSKEL_TEST_SEED` is set, the seeds a reproduction run should
/// drill into: the override **verbatim** — failure messages print the
/// already-mixed adversary seed, so replaying it must not mix it again.
/// Otherwise a small default spread.
pub fn seed_override_cases() -> Vec<u64> {
    if std::env::var("SSKEL_TEST_SEED").is_ok_and(|v| !v.is_empty()) {
        vec![base_seed()]
    } else {
        (0..4u64).map(mix_seed).collect()
    }
}

/// Whether this environment can bind a loopback TCP listener — the
/// precondition of the socket engine. Cached after the first probe.
/// Socket-tier tests call this and **skip gracefully** (with a message on
/// stderr) when it returns `false`, so the suite stays green in sandboxes
/// with no network namespace.
pub fn loopback_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| TcpListener::bind(("127.0.0.1", 0)).is_ok())
}

/// The one self-skip path for socket-tier tests: `true` when loopback is
/// usable, otherwise prints the canonical skip note for `test` on stderr
/// and returns `false` (the caller returns early, keeping the suite green
/// in network-less sandboxes). Both `tests/socket_transport.rs` and the
/// conformance socket column skip through this probe.
pub fn require_loopback(test: &str) -> bool {
    if loopback_available() {
        true
    } else {
        eprintln!("skipping {test}: loopback unavailable in this sandbox");
        false
    }
}

/// A connected loopback TCP pair: `(writer end, reader end)`, nodelay on
/// the writer so hand-crafted hostile byte sequences hit the reader
/// without coalescing delays.
///
/// # Panics
/// Panics if loopback sockets cannot be set up — call only after
/// [`require_loopback`] (or [`loopback_available`]) said they can.
pub fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let writer = TcpStream::connect(addr).expect("connect loopback");
    writer.set_nodelay(true).expect("nodelay");
    let (reader, _) = listener.accept().expect("accept loopback");
    (writer, reader)
}

/// A [`PacketStream`](crate::engine::socket::PacketStream) over `reader`
/// for a universe of `n`, configured the way the hostile-peer suite needs
/// it: generous frame cap, short read timeout so stall/disconnect tests
/// stay fast.
///
/// # Panics
/// Panics if the stream cannot be configured (loopback sockets support
/// every knob used here).
pub fn hostile_packet_stream(reader: TcpStream, n: usize) -> crate::engine::socket::PacketStream {
    crate::engine::socket::PacketStream::new(reader, 0, n, 1 << 20, Duration::from_millis(80))
        .expect("packet stream")
}

/// The conformance suite's seed-derived socket plan: the shard count is
/// read from different bits of `seed` than the sharded column's plan, so
/// the two columns exercise distinct partitions of the same run.
pub fn seeded_socket_plan(seed: u64) -> crate::engine::SocketPlan {
    crate::engine::SocketPlan::new(1 + ((seed >> 8) % 3) as usize)
}

/// The adversary families the conformance suite iterates over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdversaryFamily {
    /// [`StableRootAdversary`].
    StableRoot,
    /// [`RotatingRootAdversary`].
    RotatingRoot,
    /// [`CrashOverlay`] over a synchronous base.
    Crash,
    /// [`HealedPartitionAdversary`].
    HealedPartition,
    /// [`ChurnAdversary`].
    Churn,
    /// [`LowerBoundAdversary`] (needs `n ≥ 4`).
    LowerBound,
    /// crash ∘ partition ∘ stable-tail: [`CrashOverlay`] over
    /// [`HealedPartitionAdversary`].
    CrashOverPartition,
    /// [`CrashRestartOverlay`] over a synchronous base: processes go
    /// silent for a bounded window and come back.
    CrashRestart,
}

/// Every family, in the order the suite reports them.
pub const ALL_FAMILIES: [AdversaryFamily; 8] = [
    AdversaryFamily::StableRoot,
    AdversaryFamily::RotatingRoot,
    AdversaryFamily::Crash,
    AdversaryFamily::HealedPartition,
    AdversaryFamily::Churn,
    AdversaryFamily::LowerBound,
    AdversaryFamily::CrashOverPartition,
    AdversaryFamily::CrashRestart,
];

/// One sampled conformance case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AdversaryConfig {
    /// Which adversary family to instantiate.
    pub family: AdversaryFamily,
    /// Universe size.
    pub n: usize,
    /// The (already [`mix_seed`]-mixed) seed.
    pub seed: u64,
}

impl AdversaryConfig {
    /// Instantiates the family. The `LowerBound` family requires `n ≥ 4`
    /// and is transparently bumped there (the strategy already respects
    /// the floor; direct constructions may not).
    pub fn build(&self) -> Box<dyn Schedule> {
        let n = self.n.max(1);
        match self.family {
            AdversaryFamily::StableRoot => Box::new(StableRootAdversary::sample(n, self.seed)),
            AdversaryFamily::RotatingRoot => Box::new(RotatingRootAdversary::sample(n, self.seed)),
            AdversaryFamily::Crash => {
                let f = (self.seed % (n as u64 + 1)) as usize;
                Box::new(CrashOverlay::seeded(
                    crate::schedule::FixedSchedule::synchronous(n),
                    f,
                    self.seed,
                ))
            }
            AdversaryFamily::HealedPartition => {
                Box::new(HealedPartitionAdversary::sample(n, self.seed))
            }
            AdversaryFamily::Churn => Box::new(ChurnAdversary::sample(n, self.seed)),
            AdversaryFamily::LowerBound => {
                Box::new(LowerBoundAdversary::sample(n.max(4), self.seed))
            }
            AdversaryFamily::CrashOverPartition => {
                let base = HealedPartitionAdversary::sample(n, self.seed);
                let f = (self.seed >> 8) as usize % (n / 2 + 1);
                Box::new(CrashOverlay::seeded(base, f, self.seed))
            }
            AdversaryFamily::CrashRestart => {
                let f = (self.seed >> 16) as usize % (n / 2 + 1);
                Box::new(CrashRestartOverlay::seeded(
                    crate::schedule::FixedSchedule::synchronous(n),
                    f,
                    self.seed,
                ))
            }
        }
    }

    /// Pairwise-distinct inputs for this case (seed-rotated so the minimum
    /// does not always sit at process 0).
    pub fn inputs(&self) -> Vec<Value> {
        let n = self.n.max(if self.family == AdversaryFamily::LowerBound {
            4
        } else {
            1
        });
        let rot = (self.seed % n as u64) as usize;
        (0..n)
            .map(|i| 10 + 7 * (((i + rot) % n) as Value))
            .collect()
    }
}

impl std::fmt::Display for AdversaryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} adversary, n={}, seed={:#x} (reproduce with SSKEL_TEST_SEED)",
            self.family, self.n, self.seed
        )
    }
}

/// A strategy over [`AdversaryConfig`]s of one family, with universe sizes
/// drawn from `n_range`. Shrinks the universe by binary-search halving
/// toward `n_range.start` and the raw seed toward 0 — small
/// counterexamples first.
pub fn adversary_config(family: AdversaryFamily, n_range: Range<usize>) -> AdversaryConfigStrategy {
    assert!(n_range.start >= 1 && n_range.start < n_range.end);
    AdversaryConfigStrategy { family, n_range }
}

/// See [`adversary_config`].
#[derive(Clone, Debug)]
pub struct AdversaryConfigStrategy {
    family: AdversaryFamily,
    n_range: Range<usize>,
}

impl Strategy for AdversaryConfigStrategy {
    type Value = AdversaryConfig;
    type Seed = AdversaryConfig;

    fn generate_seeded(&self, rng: &mut TestRng) -> (AdversaryConfig, AdversaryConfig) {
        let span = (self.n_range.end - self.n_range.start) as u64;
        let n = self.n_range.start + rng.below(span) as usize;
        let cfg = AdversaryConfig {
            family: self.family,
            n,
            seed: mix_seed(rng.next_u64()),
        };
        (cfg.clone(), cfg)
    }

    fn value_of(&self, seed: &AdversaryConfig) -> AdversaryConfig {
        seed.clone()
    }

    fn shrink(&self, value: &AdversaryConfig) -> Vec<AdversaryConfig> {
        let mut out = Vec::new();
        let floor = self.n_range.start;
        if value.n > floor {
            for n in [floor, floor + (value.n - floor) / 2, value.n - 1] {
                if n != value.n && !out.iter().any(|c: &AdversaryConfig| c.n == n) {
                    out.push(AdversaryConfig { n, ..value.clone() });
                }
            }
        }
        if value.seed != mix_seed(0) {
            out.push(AdversaryConfig {
                seed: mix_seed(0),
                ..value.clone()
            });
        }
        out
    }
}

/// One sampled multiplexed-service workload: a mix of adversary cases,
/// each with the global tick at which the service admits it. Mixed
/// families, universe sizes and admission ticks in one run is exactly the
/// regime the multiplex engine's batching/arena paths must stay
/// byte-identical under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MuxWorkload {
    /// The instances: `(case, admission tick)`, admission ticks ≥ 1.
    pub instances: Vec<(AdversaryConfig, Round)>,
}

impl std::fmt::Display for MuxWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload of {}: [", self.instances.len())?;
        for (i, (cfg, admit)) in self.instances.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(
                f,
                "{:?} n={} seed={:#x} @t{}",
                cfg.family, cfg.n, cfg.seed, admit
            )?;
        }
        write!(f, "] (reproduce with SSKEL_TEST_SEED)")
    }
}

/// A strategy over [`MuxWorkload`]s of `1..=max_instances` instances with
/// universes drawn from `n_range` (bumped to the `LowerBound` floor where
/// needed) and admission ticks in `1..=8`. About a quarter of the
/// instances *duplicate* an earlier instance's config — same family, `n`
/// **and** seed — so sampled workloads routinely contain co-scheduled
/// sharers and exercise the engine's shared-synthesis path. Shrinks by
/// dropping instances from the back, then shrinking each config toward
/// small universes / seed 0 and admission ticks toward 1.
pub fn mux_workload(max_instances: usize, n_range: Range<usize>) -> MuxWorkloadStrategy {
    assert!(max_instances >= 1);
    assert!(n_range.start >= 1 && n_range.start < n_range.end);
    MuxWorkloadStrategy {
        max_instances,
        n_range,
    }
}

/// See [`mux_workload`].
#[derive(Clone, Debug)]
pub struct MuxWorkloadStrategy {
    max_instances: usize,
    n_range: Range<usize>,
}

impl Strategy for MuxWorkloadStrategy {
    type Value = MuxWorkload;
    type Seed = MuxWorkload;

    fn generate_seeded(&self, rng: &mut TestRng) -> (MuxWorkload, MuxWorkload) {
        let w = self.generate_inner(rng);
        (w.clone(), w)
    }

    fn value_of(&self, seed: &MuxWorkload) -> MuxWorkload {
        seed.clone()
    }

    fn shrink(&self, value: &MuxWorkload) -> Vec<MuxWorkload> {
        self.shrink_inner(value)
    }
}

impl MuxWorkloadStrategy {
    fn generate_inner(&self, rng: &mut TestRng) -> MuxWorkload {
        let m = 1 + rng.below(self.max_instances as u64) as usize;
        let mut instances: Vec<(AdversaryConfig, Round)> = Vec::with_capacity(m);
        for _ in 0..m {
            let admit = 1 + rng.below(8) as Round;
            // Re-admit an earlier config (schedule-sharing path) about a
            // quarter of the time.
            if !instances.is_empty() && rng.below(4) == 0 {
                let (cfg, _) = &instances[rng.below(instances.len() as u64) as usize];
                let cfg = cfg.clone();
                instances.push((cfg, admit));
                continue;
            }
            let family = ALL_FAMILIES[rng.below(ALL_FAMILIES.len() as u64) as usize];
            let span = (self.n_range.end - self.n_range.start) as u64;
            let mut n = self.n_range.start + rng.below(span) as usize;
            if family == AdversaryFamily::LowerBound {
                n = n.max(4);
            }
            let cfg = AdversaryConfig {
                family,
                n,
                seed: mix_seed(rng.next_u64()),
            };
            instances.push((cfg, admit));
        }
        MuxWorkload { instances }
    }

    fn shrink_inner(&self, value: &MuxWorkload) -> Vec<MuxWorkload> {
        let mut out = Vec::new();
        // 1. fewer instances (smallest counterexamples first)
        if value.instances.len() > 1 {
            out.push(MuxWorkload {
                instances: vec![value.instances[0].clone()],
            });
            out.push(MuxWorkload {
                instances: value.instances[..value.instances.len() - 1].to_vec(),
            });
        }
        // 2. all admissions at tick 1 (removes the staggering dimension)
        if value.instances.iter().any(|(_, a)| *a != 1) {
            out.push(MuxWorkload {
                instances: value
                    .instances
                    .iter()
                    .map(|(c, _)| (c.clone(), 1))
                    .collect(),
            });
        }
        // 3. shrink one config at a time via the per-config strategy
        for (i, (cfg, admit)) in value.instances.iter().enumerate() {
            let floor = if cfg.family == AdversaryFamily::LowerBound {
                self.n_range.start.max(4)
            } else {
                self.n_range.start
            };
            let per = adversary_config(cfg.family, floor..self.n_range.end.max(floor + 1));
            for smaller in per.shrink(cfg) {
                let mut instances = value.instances.clone();
                instances[i] = (smaller, *admit);
                out.push(MuxWorkload { instances });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_build_and_validate() {
        for family in ALL_FAMILIES {
            for n in [2usize, 5, 9] {
                let cfg = AdversaryConfig {
                    family,
                    n,
                    seed: mix_seed(n as u64),
                };
                let s = cfg.build();
                crate::schedule::validate(s.as_ref(), 40).unwrap_or_else(|e| panic!("{cfg}: {e}"));
                assert_eq!(cfg.inputs().len(), s.n());
                // inputs are pairwise distinct (k-agreement counts values)
                let mut v = cfg.inputs();
                v.sort_unstable();
                v.dedup();
                assert_eq!(v.len(), s.n(), "{cfg}");
            }
        }
    }

    #[test]
    fn strategy_shrinks_toward_small_universes() {
        let strat = adversary_config(AdversaryFamily::StableRoot, 2..12);
        let big = AdversaryConfig {
            family: AdversaryFamily::StableRoot,
            n: 11,
            seed: mix_seed(77),
        };
        let cands = strat.shrink(&big);
        assert!(cands.iter().any(|c| c.n == 2));
        assert!(cands.iter().all(|c| c.n < 11 || c.seed == mix_seed(0)));
        assert!(strat
            .shrink(&AdversaryConfig {
                n: 2,
                seed: mix_seed(0),
                ..big
            })
            .is_empty());
    }

    #[test]
    fn mux_workload_generates_in_bounds_and_shrinks_toward_singletons() {
        let strat = mux_workload(6, 2..9);
        let mut rng = TestRng::for_case("mux_workload_bounds", 0);
        let mut saw_duplicate = false;
        for _ in 0..64 {
            let w = strat.generate(&mut rng);
            assert!((1..=6).contains(&w.instances.len()));
            for (cfg, admit) in &w.instances {
                assert!((1..=8).contains(admit));
                let floor = if cfg.family == AdversaryFamily::LowerBound {
                    4
                } else {
                    2
                };
                assert!(cfg.n >= floor && cfg.n < 9, "{cfg}");
            }
            for (i, (cfg, _)) in w.instances.iter().enumerate() {
                if w.instances[..i].iter().any(|(c, _)| c == cfg) {
                    saw_duplicate = true;
                }
            }
        }
        assert!(
            saw_duplicate,
            "the schedule-sharing path must be sampled routinely"
        );

        let big = MuxWorkload {
            instances: vec![
                (
                    AdversaryConfig {
                        family: AdversaryFamily::Churn,
                        n: 8,
                        seed: mix_seed(1),
                    },
                    5,
                ),
                (
                    AdversaryConfig {
                        family: AdversaryFamily::Crash,
                        n: 7,
                        seed: mix_seed(2),
                    },
                    3,
                ),
            ],
        };
        let cands = strat.shrink(&big);
        assert!(cands.iter().any(|w| w.instances.len() == 1));
        assert!(cands
            .iter()
            .any(|w| w.instances.iter().all(|(_, a)| *a == 1)));
        assert!(cands
            .iter()
            .any(|w| w.instances.len() == 2 && w.instances[0].0.n < 8));
    }

    #[test]
    fn mixed_seed_is_deterministic_and_override_cases_match_the_env() {
        assert_eq!(mix_seed(5), mix_seed(5));
        assert_ne!(mix_seed(5), mix_seed(6));
        // This test must pass both with and without SSKEL_TEST_SEED set —
        // the override exists precisely to be used on full test runs.
        if std::env::var("SSKEL_TEST_SEED").is_ok_and(|v| !v.is_empty()) {
            assert_eq!(
                seed_override_cases(),
                vec![base_seed()],
                "override must be replayed verbatim"
            );
        } else {
            assert_eq!(seed_override_cases().len(), 4);
        }
    }
}
