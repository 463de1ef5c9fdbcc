//! Shared workload builders for the benchmark harness and the experiment
//! binaries (`src/bin/*`). Every experiment binary (T1, T2, E3–E8, F1)
//! regenerates its results from these, with fixed seeds for
//! reproducibility.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use sskel_graph::{Digraph, ProcessId, Round};
use sskel_kset::{lemma11_bound, KSetAgreement};
use sskel_model::{run_lockstep, RunTrace, RunUntil, Schedule, Value};
use sskel_predicates::{planted_psrcs_schedule, NoisySchedule};

/// Default seed for all experiments (change to resample everything).
pub const SEED: u64 = 0x5eed_cafe;

/// Distinct inputs `10, 11, …` for `n` processes.
pub fn inputs(n: usize) -> Vec<Value> {
    (0..n as Value).map(|i| i + 10).collect()
}

/// A seeded random `Psrcs(k)` schedule of the standard experiment shape.
pub fn std_schedule(seed: u64, n: usize, k: usize) -> NoisySchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    planted_psrcs_schedule(&mut rng, n, k, 0.1, 250, 5)
}

/// Runs Algorithm 1 (paper rule) to completion under the Lemma-11 bound.
pub fn run_alg1<S: Schedule>(schedule: &S, n: usize) -> RunTrace {
    let algs = KSetAgreement::spawn_all(n, &inputs(n));
    let (trace, _) = run_lockstep(
        schedule,
        algs,
        RunUntil::AllDecided {
            max_rounds: lemma11_bound(schedule) + 2,
        },
    );
    trace
}

/// A ring skeleton (single cycle through all nodes) with self-loops:
/// the worst case for decision latency (paths of length n − 1).
pub fn ring_skeleton(n: usize) -> Digraph {
    let mut g = Digraph::empty(n);
    g.add_self_loops();
    for i in 0..n {
        g.add_edge(ProcessId::from_usize(i), ProcessId::from_usize((i + 1) % n));
    }
    g
}

/// Sparse strongly connected skeleton: ring plus a few chords.
pub fn ring_with_chords(n: usize, chords: usize) -> Digraph {
    let mut g = ring_skeleton(n);
    for c in 0..chords {
        let u = (c * 7) % n;
        let v = (u + n / 2 + c) % n;
        if u != v {
            g.add_edge(ProcessId::from_usize(u), ProcessId::from_usize(v));
        }
    }
    g
}

/// Formats a mean ± max line for round statistics.
pub fn stats_line(values: &[Round]) -> String {
    if values.is_empty() {
        return "n/a".to_owned();
    }
    let sum: u64 = values.iter().map(|&v| u64::from(v)).sum();
    let mean = sum as f64 / values.len() as f64;
    let max = values.iter().max().unwrap();
    format!("mean {mean:.1}, max {max}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sskel_graph::{is_strongly_connected, ProcessSet};

    #[test]
    fn ring_is_strongly_connected() {
        for n in [2usize, 5, 12] {
            let g = ring_skeleton(n);
            assert!(is_strongly_connected(&g, &ProcessSet::full(n)));
            let g = ring_with_chords(n, 3);
            assert!(is_strongly_connected(&g, &ProcessSet::full(n)));
        }
    }

    #[test]
    fn std_schedule_runs_to_completion() {
        let s = std_schedule(SEED, 8, 2);
        let trace = run_alg1(&s, 8);
        assert!(trace.all_decided());
    }

    #[test]
    fn stats_line_formats() {
        assert_eq!(stats_line(&[2, 4]), "mean 3.0, max 4");
        assert_eq!(stats_line(&[]), "n/a");
    }
}
