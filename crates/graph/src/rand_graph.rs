//! Seeded random digraphs, subsets and permutations for tests, the
//! planted schedule families, the experiment binaries and the
//! `perf_report` rows.
//!
//! All generators take an explicit `Rng` so that every experiment binary
//! (`crates/bench/src/bin/exp_*.rs`) is reproducible from a seed.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::digraph::Digraph;
use crate::process::ProcessId;
use crate::pset::ProcessSet;

/// Erdős–Rényi `G(n, p)` digraph: each ordered pair `(u, v)`, `u ≠ v`, gets an
/// edge independently with probability `p`. Self-loops are always added when
/// `self_loops` is set (communication graphs of the paper always contain
/// them).
pub fn gnp<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64, self_loops: bool) -> Digraph {
    let mut g = Digraph::empty(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(p) {
                g.add_edge(ProcessId::from_usize(u), ProcessId::from_usize(v));
            }
        }
    }
    if self_loops {
        g.add_self_loops();
    }
    g
}

/// A uniformly random permutation of `0..n` as a vector of process ids.
pub fn random_permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<ProcessId> {
    let mut ids: Vec<ProcessId> = ProcessId::all(n).collect();
    ids.shuffle(rng);
    ids
}

/// A random subset of the universe where each element is kept with
/// probability `p`.
pub fn random_subset<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> ProcessSet {
    let mut s = ProcessSet::empty(n);
    for q in ProcessId::all(n) {
        if rng.gen_bool(p) {
            s.insert(q);
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let empty = gnp(&mut rng, 8, 0.0, false);
        assert_eq!(empty.edge_count(), 0);
        let full = gnp(&mut rng, 8, 1.0, true);
        assert_eq!(full.edge_count(), 64);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let perm = random_permutation(&mut rng, 12);
        let set = ProcessSet::from_iter_n(12, perm.iter().copied());
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let g1 = gnp(&mut StdRng::seed_from_u64(7), 10, 0.3, true);
        let g2 = gnp(&mut StdRng::seed_from_u64(7), 10, 0.3, true);
        assert_eq!(g1, g2);
        let s1 = random_subset(&mut StdRng::seed_from_u64(8), 12, 0.5);
        let s2 = random_subset(&mut StdRng::seed_from_u64(8), 12, 0.5);
        assert_eq!(s1, s2);
    }
}
