//! Random digraph generators for tests, property tests, and benchmarks.
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

/// Adds a directed Hamiltonian cycle through `members` (in random order) to
/// `g`, making the member set strongly connected. A singleton member set
/// contributes only its self-loop.
pub fn add_random_cycle<R: Rng + ?Sized>(rng: &mut R, g: &mut Digraph, members: &ProcessSet) {
    let mut order: Vec<ProcessId> = members.iter().collect();
    order.shuffle(rng);
    if order.len() == 1 {
        g.add_edge(order[0], order[0]);
        return;
    }
    for w in 0..order.len() {
        g.add_edge(order[w], order[(w + 1) % order.len()]);
    }
}

/// A random strongly connected digraph: a random Hamiltonian cycle plus
/// `extra_p`-dense random chords. Always contains all self-loops.
pub fn random_strongly_connected<R: Rng + ?Sized>(rng: &mut R, n: usize, extra_p: f64) -> Digraph {
    let mut g = gnp(rng, n, extra_p, true);
    add_random_cycle(rng, &mut g, &ProcessSet::full(n));
    g
}

/// A random "planted roots" digraph: the universe is partitioned into
/// `roots` disjoint strongly connected root components plus a pool of
/// downstream nodes; every downstream node is reachable from at least one
/// root, and no edge enters any root component. Self-loops everywhere.
///
/// This is the shape of a stable skeleton with exactly `roots` root
/// components (cf. Theorem 1), used by the predicate experiments.
///
/// # Panics
/// Panics unless `1 ≤ roots ≤ n`.
pub fn planted_roots<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    roots: usize,
    extra_p: f64,
) -> (Digraph, Vec<ProcessSet>) {
    assert!((1..=n).contains(&roots), "need 1 ≤ roots ≤ n");
    let perm = random_permutation(rng, n);

    // Choose sizes: pick `roots` distinct cut points in 1..=n; consecutive
    // cuts delimit non-empty root-component groups, anything after the last
    // cut is the (possibly empty) downstream pool.
    let mut cut_points: Vec<usize> = (1..=n).collect();
    cut_points.shuffle(rng);
    let mut cuts: Vec<usize> = cut_points.into_iter().take(roots).collect();
    cuts.sort_unstable();
    let mut groups: Vec<ProcessSet> = Vec::with_capacity(roots);
    let mut start = 0usize;
    for &c in &cuts {
        groups.push(ProcessSet::from_iter_n(n, perm[start..c].iter().copied()));
        start = c;
    }
    let downstream = ProcessSet::from_iter_n(n, perm[start..].iter().copied());
    debug_assert_eq!(groups.len(), roots);
    debug_assert!(groups.iter().all(|g| !g.is_empty()));

    let mut g = Digraph::empty(n);
    g.add_self_loops();
    for comp in &groups {
        add_random_cycle(rng, &mut g, comp);
        // extra intra-component chords
        for u in comp.iter() {
            for v in comp.iter() {
                if u != v && rng.gen_bool(extra_p) {
                    g.add_edge(u, v);
                }
            }
        }
    }

    // Wire downstream nodes: each hangs off a random already-wired node
    // (root member or earlier downstream node), plus random extra edges that
    // never point *into* a root component.
    let mut wired: Vec<ProcessId> = groups.iter().flat_map(|c| c.iter()).collect();
    for d in downstream.iter() {
        let src = *wired.choose(rng).expect("at least one root member");
        g.add_edge(src, d);
        wired.push(d);
    }
    for u in ProcessId::all(n) {
        for v in downstream.iter() {
            if u != v && rng.gen_bool(extra_p) {
                g.add_edge(u, v);
            }
        }
    }

    (g, groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roots::root_components;
    use crate::scc::is_strongly_connected;
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
    fn random_sc_is_strongly_connected() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [1, 2, 5, 17, 40] {
            let g = random_strongly_connected(&mut rng, n, 0.1);
            assert!(is_strongly_connected(&g, &ProcessSet::full(n)), "n={n}");
            assert!(g.has_all_self_loops());
        }
    }

    #[test]
    fn planted_roots_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        for (n, roots) in [(6, 2), (10, 3), (24, 5), (9, 9), (7, 1)] {
            let (g, groups) = planted_roots(&mut rng, n, roots, 0.15);
            assert_eq!(groups.len(), roots);
            let mut found = root_components(&g, &ProcessSet::full(n));
            found.sort_by_key(|c| c.first().unwrap().index());
            let mut expected = groups.clone();
            expected.sort_by_key(|c| c.first().unwrap().index());
            assert_eq!(found, expected, "n={n} roots={roots}");
            // each planted group really is strongly connected
            for comp in &groups {
                assert!(is_strongly_connected(&g, comp));
            }
        }
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
        let (a, ga) = planted_roots(&mut StdRng::seed_from_u64(8), 12, 3, 0.2);
        let (b, gb) = planted_roots(&mut StdRng::seed_from_u64(8), 12, 3, 0.2);
        assert_eq!(a, b);
        assert_eq!(ga, gb);
    }
}
