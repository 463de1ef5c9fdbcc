//! The four workloads. Each samples its schedules from the workload seed
//! in set-up, computes the correctness oracle and a single-threaded
//! reference run per schedule there, and then runs one op at a time: one
//! call into an engine's public entry point.

use std::time::{Duration, Instant};

use sskel_bench::ring_with_chords;
use sskel_graph::{ProcessSet, Round};
use sskel_kset::{lemma11_bound, verify, AgreementPool, DecisionRule, KSetAgreement, VerifySpec};
use sskel_model::engine::{resume_from_journal, run_lockstep_journaled};
use sskel_model::{
    diff_run_traces, run_lockstep, run_lockstep_codec, run_multiplex_codec, run_sharded,
    run_socket_codec, scan_journal, ChurnAdversary, CorruptionOverlay, FaultPlane, FixedSchedule,
    HealedPartitionAdversary, MultiplexPlan, MuxInstance, NoFaults, PartitionEpisode,
    RotatingRootAdversary, RunMeta, RunTrace, RunUntil, Schedule, ShardPlan, SocketPlan,
    StableRootAdversary, Value,
};
use sskel_predicates::min_k_on_skeleton;

use crate::adapters::{
    timed, Alg, Traced, TracedPlane, TracedSchedule, TracedSink, JOURNAL_SCAN, POOL_SPAWN,
};

/// Shards (= worker threads) of every engine: as many as the two-vCPU
/// machine the benchmark is sized for has, though the process runs them
/// on one core (see `procfs::pin_to_first_cpu`).
pub const SHARDS: usize = 2;

pub const NAMES: [&str; 4] = [
    "solo_socket",
    "solo_inproc",
    "mux_service",
    "journal_recover",
];

/// What one op hands back for checking.
pub struct Ran {
    /// Wall time of the engine call alone.
    pub elapsed: Duration,
    /// One trace per agreement instance the op ran.
    pub traces: Vec<RunTrace>,
}

pub trait Workload {
    /// Number of distinct ops; ops run in this rotation.
    fn cases(&self) -> usize;
    /// Runs op `case`, through the tracing adapters when `traced`.
    /// `Err` is a typed engine failure.
    fn run(&mut self, case: usize, traced: bool) -> Result<Ran, String>;
    /// Every way op `case`'s output is wrong (empty when correct).
    fn check(&self, case: usize, ran: &Ran) -> Vec<String>;
}

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    use Family::*;
    Some(match name {
        "solo_socket" => Box::new(Solo::new(
            Engine::Socket,
            16,
            &[StableRoot, RotatingRoot, Churn, HealedPartition],
            seed,
        )),
        "solo_inproc" => Box::new(Solo::new(
            Engine::Sharded,
            48,
            &[StableRoot, RotatingRoot, Churn, RingChords],
            seed,
        )),
        "mux_service" => Box::new(Mux::new(seed)),
        "journal_recover" => Box::new(Journal::new(seed)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seed for item `(a, b)` of a workload, derived from the workload seed.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(seed ^ splitmix64(a.wrapping_mul(0x1_0000_0001) ^ b))
}

/// `0..n` in a seeded order.
fn seeded_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut h = seed;
    for i in (1..n).rev() {
        h = splitmix64(h);
        v.swap(i, (h % (i as u64 + 1)) as usize);
    }
    v
}

/// `n` distinct proposals in a seeded order.
fn seeded_inputs(n: usize, seed: u64) -> Vec<Value> {
    seeded_permutation(n, seed)
        .into_iter()
        .map(|i| 10 * (i as Value + 1))
        .collect()
}

/// A seeded partition of the universe into `count` near-equal blocks.
fn seeded_blocks(n: usize, count: usize, seed: u64) -> Vec<ProcessSet> {
    let perm = seeded_permutation(n, seed);
    (0..count)
        .map(|b| ProcessSet::from_indices(n, perm.iter().skip(b).step_by(count).copied()))
        .collect()
}

#[derive(Clone, Copy)]
enum Family {
    StableRoot,
    RotatingRoot,
    Churn,
    HealedPartition,
    RingChords,
    /// The fault-free baseline: every process hears every other, every
    /// round.
    Synchronous,
}

impl Family {
    /// A schedule of this family with the fixed shape of `slot` (its size
    /// parameters: root cliques, stabilization round, rotation length,
    /// churn period, partition episodes); the seed draws everything else
    /// (who the roots are, the noise, the churn coins). Fixing the shapes
    /// keeps an op's work, and so the metrics, nearly independent of the
    /// seed, while every seed still yields different graphs.
    fn build(self, n: usize, slot: usize, seed: u64) -> Box<dyn Schedule> {
        let nr = n as Round;
        let slot = slot % 4;
        match self {
            Family::StableRoot => {
                let (roots, size, r_st, noise) = [
                    (1, 2, nr / 4, 150),
                    (2, 2, nr, 250),
                    (1, 3, nr / 2, 350),
                    (3, 1, 3 * nr / 2, 200),
                ][slot];
                Box::new(StableRootAdversary::new(n, roots, size, r_st, noise, seed))
            }
            Family::RotatingRoot => {
                let (blocks, rotors, rot) = [
                    (1, 1, nr / 2),
                    (2, 3, 2 * nr),
                    (1, 2, nr),
                    (3, 2, 3 * nr / 2),
                ][slot];
                Box::new(RotatingRootAdversary::new(n, blocks, rotors, rot, seed))
            }
            Family::Churn => {
                let (roots, size, period, density) = [
                    (1, 2, 3, 400),
                    (2, 1, 5, 600),
                    (1, 1, 2, 300),
                    (2, 2, 6, 500),
                ][slot];
                Box::new(ChurnAdversary::new(n, roots, size, period, density, seed))
            }
            Family::HealedPartition => {
                // (first round, length, blocks) of each episode
                let shapes: [&[(Round, Round, usize)]; 4] = [
                    &[(1, nr / 2, 2)],
                    &[(1, nr / 4, 2), (nr / 4 + 2, nr / 4, 3)],
                    &[(1, nr / 4, 3)],
                    &[
                        (1, nr / 4, 2),
                        (nr / 4 + 2, nr / 4, 2),
                        (nr / 2 + 3, nr / 4, 2),
                    ],
                ];
                let episodes = shapes[slot]
                    .iter()
                    .enumerate()
                    .map(|(e, &(start, len, blocks))| PartitionEpisode {
                        start,
                        end: start + len - 1,
                        blocks: seeded_blocks(n, blocks, mix(seed, 0xe9, e as u64)),
                    })
                    .collect();
                Box::new(HealedPartitionAdversary::new(n, episodes))
            }
            Family::RingChords => Box::new(FixedSchedule::new(ring_with_chords(n, 8))),
            Family::Synchronous => Box::new(FixedSchedule::synchronous(n)),
        }
    }
}

/// A workload's schedules: every family in each of the first `slots`
/// shapes, then the synchronous baseline. The odd length is deliberate:
/// with an odd number of equally weighted cases, the median op is one
/// case's op rather than the midpoint of the gap between two cases of a
/// multi-modal mix, so `op_ms.p50` does not jump with the seed.
fn rotation(families: &[Family], slots: usize) -> Vec<(Family, usize)> {
    let mut out: Vec<(Family, usize)> = (0..slots)
        .flat_map(|slot| families.iter().map(move |&f| (f, slot)))
        .collect();
    out.push((Family::Synchronous, 0));
    out
}

/// One schedule with its inputs, stop condition and oracle.
struct Case {
    schedule: Box<dyn Schedule>,
    inputs: Vec<Value>,
    until: RunUntil,
    /// k-set agreement at the skeleton's `min_k`, validity, and the
    /// Lemma-11 termination bound.
    spec: VerifySpec,
    /// The single-threaded lockstep run of the same inputs, which the
    /// owning workload computes with its engine's transport.
    reference: RunTrace,
}

impl Case {
    /// Samples a schedule of `family` and its oracle. `min_k` is α(H) of
    /// the common-source graph — exponential, hence computed once here.
    fn sample(family: Family, n: usize, slot: usize, seed: u64) -> Case {
        let schedule = family.build(n, slot, seed);
        let inputs = seeded_inputs(n, splitmix64(seed ^ 0x1a));
        let min_k = min_k_on_skeleton(&schedule.stable_skeleton());
        let spec = VerifySpec::new(min_k, inputs.clone()).with_lemma11_bound(schedule.as_ref());
        let until = RunUntil::AllDecided {
            max_rounds: lemma11_bound(schedule.as_ref()) + 2,
        };
        Case {
            schedule,
            inputs,
            until,
            spec,
            reference: RunTrace::new(0),
        }
    }
}

fn check_trace(trace: &RunTrace, spec: &VerifySpec, reference: &RunTrace) -> Vec<String> {
    let mut v = verify(trace, spec).violations;
    if let Some(d) = diff_run_traces(trace, reference) {
        v.push(format!("differs from the lockstep reference at {d}"));
    }
    v
}

fn spawn<A: Alg>(
    pool: &mut AgreementPool,
    inputs: &[Value],
    traced: bool,
) -> Result<Vec<A>, String> {
    let t = Instant::now();
    let algs = pool
        .spawn_all(inputs.len(), inputs, DecisionRule::FreshnessGuarded)
        .map_err(|e| format!("spawn: {e}"))?;
    if traced {
        POOL_SPAWN.add(0, Some(t));
    }
    Ok(algs.into_iter().map(A::wrap).collect())
}

fn retire<A: Alg>(pool: &mut AgreementPool, algs: Vec<A>) {
    pool.retire(algs.into_iter().map(A::unwrap).collect());
}

// ---------------------------------------------------------------------------
// solo_socket, solo_inproc
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Engine {
    /// `run_socket_codec` over loopback TCP, `NoFaults`.
    Socket,
    /// `run_sharded`, `Arc` hand-off.
    Sharded,
}

/// One agreement at a time, schedules in rotation.
struct Solo {
    engine: Engine,
    cases: Vec<Case>,
    pool: AgreementPool,
}

/// Shape slots per family.
const SOLO_SLOTS: usize = 4;

impl Solo {
    fn new(engine: Engine, n: usize, families: &[Family], seed: u64) -> Solo {
        let mut cases = Vec::new();
        for (i, (family, slot)) in rotation(families, SOLO_SLOTS).into_iter().enumerate() {
            let mut c = Case::sample(family, n, slot, mix(seed, i as u64, 0x50));
            let algs = KSetAgreement::spawn_all_with(n, &c.inputs, DecisionRule::FreshnessGuarded);
            c.reference = match engine {
                Engine::Socket => {
                    run_lockstep_codec(c.schedule.as_ref(), algs, c.until, &NoFaults).0
                }
                Engine::Sharded => run_lockstep(c.schedule.as_ref(), algs, c.until).0,
            };
            cases.push(c);
        }
        Solo {
            engine,
            cases,
            pool: AgreementPool::new(),
        }
    }
}

fn solo_op<A: Alg, P: FaultPlane>(
    engine: Engine,
    pool: &mut AgreementPool,
    schedule: &dyn Schedule,
    c: &Case,
    plane: &P,
    traced: bool,
) -> Result<Ran, String> {
    let algs = spawn::<A>(pool, &c.inputs, traced)?;
    let t = Instant::now();
    let out = match engine {
        Engine::Socket => run_socket_codec(schedule, algs, c.until, SocketPlan::new(SHARDS), plane)
            .map_err(|e| format!("socket: {e}")),
        Engine::Sharded => Ok(run_sharded(schedule, algs, c.until, ShardPlan::new(SHARDS))),
    };
    let elapsed = t.elapsed();
    let (trace, algs) = out?;
    retire(pool, algs);
    Ok(Ran {
        elapsed,
        traces: vec![trace],
    })
}

impl Workload for Solo {
    fn cases(&self) -> usize {
        self.cases.len()
    }

    fn run(&mut self, case: usize, traced: bool) -> Result<Ran, String> {
        let c = &self.cases[case];
        if traced {
            let s = TracedSchedule(c.schedule.as_ref());
            let plane = TracedPlane(NoFaults);
            solo_op::<Traced, _>(self.engine, &mut self.pool, &s, c, &plane, true)
        } else {
            solo_op::<KSetAgreement, _>(
                self.engine,
                &mut self.pool,
                c.schedule.as_ref(),
                c,
                &NoFaults,
                false,
            )
        }
    }

    fn check(&self, case: usize, ran: &Ran) -> Vec<String> {
        let c = &self.cases[case];
        check_trace(&ran.traces[0], &c.spec, &c.reference)
    }
}

// ---------------------------------------------------------------------------
// mux_service
// ---------------------------------------------------------------------------

const MUX_N: usize = 16;
const MUX_INSTANCES: usize = 64;
/// Instances sharing one schedule object.
const MUX_SHARING: usize = 4;
/// Admissions are staggered over this many ticks.
const MUX_STAGGER: Round = 8;

/// One instance of a multiplexed op.
struct Instance {
    /// Index of its schedule in [`Mux::schedules`].
    group: usize,
    inputs: Vec<Value>,
    until: RunUntil,
    spec: VerifySpec,
    reference: RunTrace,
}

/// 64 concurrent instances per op on one multiplexed worker pool.
struct Mux {
    /// Each shared by [`MUX_SHARING`] consecutive instances.
    schedules: Vec<Box<dyn Schedule>>,
    instances: Vec<Instance>,
    pool: AgreementPool,
}

impl Mux {
    fn new(seed: u64) -> Mux {
        use Family::*;
        let families = [StableRoot, RotatingRoot, Churn, HealedPartition];
        let mut schedules = Vec::new();
        let mut instances = Vec::with_capacity(MUX_INSTANCES);
        for g in 0..MUX_INSTANCES / MUX_SHARING {
            let family = families[g % families.len()];
            let group = Case::sample(family, MUX_N, g / families.len(), mix(seed, g as u64, 0x3c));
            for i in 0..MUX_SHARING {
                let inputs = seeded_inputs(MUX_N, mix(seed, g as u64, i as u64));
                let spec = VerifySpec::new(group.spec.k, inputs.clone())
                    .with_lemma11_bound(group.schedule.as_ref());
                let algs =
                    KSetAgreement::spawn_all_with(MUX_N, &inputs, DecisionRule::FreshnessGuarded);
                let reference =
                    run_lockstep_codec(group.schedule.as_ref(), algs, group.until, &NoFaults).0;
                instances.push(Instance {
                    group: g,
                    inputs,
                    until: group.until,
                    spec,
                    reference,
                });
            }
            schedules.push(group.schedule);
        }
        Mux {
            schedules,
            instances,
            pool: AgreementPool::new(),
        }
    }
}

fn mux_op<A: Alg, P: FaultPlane>(
    pool: &mut AgreementPool,
    schedules: &[&dyn Schedule],
    instances: &[Instance],
    plane: &P,
    traced: bool,
) -> Result<Ran, String> {
    let mut admitted = Vec::with_capacity(instances.len());
    for (i, inst) in instances.iter().enumerate() {
        let algs = spawn::<A>(pool, &inst.inputs, traced)?;
        admitted.push(
            MuxInstance::new(schedules[inst.group], algs, inst.until)
                .admitted_at(1 + i as Round % MUX_STAGGER),
        );
    }
    let t = Instant::now();
    let results = run_multiplex_codec(admitted, MultiplexPlan::new(SHARDS), plane);
    let elapsed = t.elapsed();
    let mut traces = Vec::with_capacity(results.len());
    for (trace, algs) in results {
        retire(pool, algs);
        traces.push(trace);
    }
    Ok(Ran { elapsed, traces })
}

impl Workload for Mux {
    fn cases(&self) -> usize {
        1
    }

    fn run(&mut self, _case: usize, traced: bool) -> Result<Ran, String> {
        let schedules: Vec<&dyn Schedule> = self.schedules.iter().map(|s| s.as_ref()).collect();
        if traced {
            let wrapped: Vec<TracedSchedule<'_>> =
                schedules.iter().map(|&s| TracedSchedule(s)).collect();
            let refs: Vec<&dyn Schedule> = wrapped.iter().map(|s| s as &dyn Schedule).collect();
            let plane = TracedPlane(NoFaults);
            mux_op::<Traced, _>(&mut self.pool, &refs, &self.instances, &plane, true)
        } else {
            mux_op::<KSetAgreement, _>(
                &mut self.pool,
                &schedules,
                &self.instances,
                &NoFaults,
                false,
            )
        }
    }

    fn check(&self, _case: usize, ran: &Ran) -> Vec<String> {
        if ran.traces.len() != self.instances.len() {
            return vec![format!(
                "{} traces for {} instances",
                ran.traces.len(),
                self.instances.len()
            )];
        }
        let mut v = Vec::new();
        for (i, (trace, inst)) in ran.traces.iter().zip(&self.instances).enumerate() {
            for e in check_trace(trace, &inst.spec, &inst.reference) {
                v.push(format!("instance {i}: {e}"));
            }
        }
        v
    }
}

// ---------------------------------------------------------------------------
// journal_recover
// ---------------------------------------------------------------------------

const JOURNAL_N: usize = 24;
/// Shape slots per family.
const JOURNAL_SLOTS: usize = 3;
const CORRUPTION_RATE: f64 = 0.1;

/// A journaled run under a corruption plane, written in set-up, and the
/// crash that tore its journal.
struct Journaled {
    case: Case,
    plane: CorruptionOverlay,
    /// The uninterrupted run's complete journal.
    journal: Vec<u8>,
    /// The uninterrupted run's trace.
    uninterrupted: RunTrace,
    /// The seeded byte at which the crash tore the journal.
    cut: usize,
    /// Bytes of whole records before `cut`: where the resumed run appends.
    durable: usize,
}

/// Recovery after a crash: each op resumes a torn journal.
struct Journal {
    runs: Vec<Journaled>,
}

impl Journal {
    fn new(seed: u64) -> Journal {
        use Family::*;
        let n = JOURNAL_N;
        let rebase_limit = n as u64 + 2;
        let families = [StableRoot, RotatingRoot, Churn, HealedPartition];
        let mut runs = Vec::new();
        for (i, (family, slot)) in rotation(&families, JOURNAL_SLOTS).into_iter().enumerate() {
            let s = mix(seed, i as u64, 0x10);
            let schedule = family.build(n, slot, s);
            let plane = CorruptionOverlay::new(splitmix64(s ^ 0xc0), CORRUPTION_RATE)
                .quiet_after(schedule.stabilization_round());
            // The oracle is the schedule the algorithms experience: the
            // base minus every edge the plane destroys.
            let eff = plane.effective(schedule.as_ref());
            let inputs = seeded_inputs(n, splitmix64(s ^ 0x1a));
            let min_k = min_k_on_skeleton(&eff.stable_skeleton());
            let spec = VerifySpec::new(min_k, inputs.clone()).with_lemma11_bound(&eff);
            let until = RunUntil::AllDecided {
                max_rounds: lemma11_bound(&eff) + 2,
            };
            let spawn = || {
                let mut algs =
                    KSetAgreement::spawn_all_with(n, &inputs, DecisionRule::FreshnessGuarded);
                for a in &mut algs {
                    a.set_rebase_limit(rebase_limit as Round);
                }
                algs
            };
            let mut journal = Vec::new();
            let meta = RunMeta {
                seed: s,
                rebase_limit,
            };
            let uninterrupted = run_lockstep_journaled(
                schedule.as_ref(),
                spawn(),
                until,
                &plane,
                &meta,
                &mut journal,
            )
            .map(|(t, _)| t)
            .unwrap_or_else(|e| panic!("journaling into memory cannot fail: {e}"));
            // The cross-engine reference: an uncorrupted Arc run over the
            // effective schedule decides, stops and counts messages exactly
            // like the corrupted codec run. Arc mode has no fault ledger;
            // resume ≡ uninterrupted pins that one.
            let mut reference = run_lockstep(&eff, spawn(), until).0;
            reference.faults = uninterrupted.faults.clone();
            let scan =
                scan_journal(&journal).unwrap_or_else(|e| panic!("a fresh journal must scan: {e}"));
            // Tear anywhere after the first snapshot is durable.
            let lo = scan.record_ends[1];
            let cut = lo + (splitmix64(s ^ 0xcc) % (journal.len() - lo) as u64) as usize;
            let durable = scan_journal(&journal[..cut])
                .unwrap_or_else(|e| panic!("a torn journal must scan: {e}"))
                .durable_len;
            runs.push(Journaled {
                case: Case {
                    schedule,
                    inputs,
                    until,
                    spec,
                    reference,
                },
                plane,
                journal,
                uninterrupted,
                cut,
                durable,
            });
        }
        Journal { runs }
    }
}

fn resume_op<A: Alg, P: FaultPlane>(
    schedule: &dyn Schedule,
    j: &Journaled,
    plane: &P,
    traced: bool,
) -> Result<Ran, String> {
    let torn = &j.journal[..j.cut];
    if traced {
        // The scan resume performs first, timed on its own.
        timed(&JOURNAL_SCAN, || scan_journal(torn)).map_err(|e| format!("scan: {e}"))?;
    }
    let mut sink = Vec::with_capacity(j.journal.len());
    sink.extend_from_slice(&j.journal[..j.durable]);
    let t = Instant::now();
    let out = if traced {
        resume_from_journal::<_, A, _, _>(
            schedule,
            torn,
            j.case.until,
            plane,
            TracedSink(&mut sink),
        )
    } else {
        resume_from_journal::<_, A, _, _>(schedule, torn, j.case.until, plane, &mut sink)
    };
    let elapsed = t.elapsed();
    let (trace, _) = out.map_err(|e| format!("resume: {e}"))?;
    Ok(Ran {
        elapsed,
        traces: vec![trace],
    })
}

impl Workload for Journal {
    fn cases(&self) -> usize {
        self.runs.len()
    }

    fn run(&mut self, case: usize, traced: bool) -> Result<Ran, String> {
        let j = &self.runs[case];
        let base = j.case.schedule.as_ref();
        if traced {
            let plane = TracedPlane(j.plane);
            resume_op::<Traced, _>(&TracedSchedule(base), j, &plane, true)
        } else {
            resume_op::<KSetAgreement, _>(base, j, &j.plane, false)
        }
    }

    fn check(&self, case: usize, ran: &Ran) -> Vec<String> {
        let j = &self.runs[case];
        let trace = &ran.traces[0];
        let mut v = check_trace(trace, &j.case.spec, &j.case.reference);
        if let Some(d) = diff_run_traces(trace, &j.uninterrupted) {
            v.push(format!(
                "resumed run differs from the uninterrupted one at {d}"
            ));
        }
        v
    }
}
