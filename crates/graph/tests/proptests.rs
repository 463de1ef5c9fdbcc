//! Property-based tests for the graph substrate.
//!
//! These check algebraic laws of the bitset sets, the digraph operations
//! used for skeleton computation, and — most importantly — that Tarjan's
//! components are maximal and strongly connected on arbitrary digraphs
//! (its cross-check against a test-only Kosaraju lives beside it in
//! `scc.rs`), and that root components match a brute-force definition
//! check.

use proptest::prelude::*;

use sskel_graph::dot;
use sskel_graph::reach;
use sskel_graph::{
    is_strongly_connected, root_components, tarjan, Digraph, LabeledDigraph, ProcessId, ProcessSet,
};

const MAX_N: usize = 24;

/// Strategy: a universe size plus an arbitrary edge list over it.
fn arb_digraph() -> impl Strategy<Value = Digraph> {
    (1..MAX_N).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n), 0..(n * n).min(150))
            .prop_map(move |edges| Digraph::from_edges(n, edges))
    })
}

fn arb_set(n: usize) -> impl Strategy<Value = ProcessSet> {
    proptest::collection::vec(0..n, 0..n).prop_map(move |v| ProcessSet::from_indices(n, v))
}

fn arb_digraph_and_mask() -> impl Strategy<Value = (Digraph, ProcessSet)> {
    (1..MAX_N).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n), 0..(n * n).min(150))
                .prop_map(move |edges| Digraph::from_edges(n, edges)),
            arb_set(n),
        )
    })
}

proptest! {
    // ---------- ProcessSet laws ----------

    #[test]
    fn pset_union_intersection_laws((g, a) in arb_digraph_and_mask()) {
        let n = g.n();
        let b = ProcessSet::full(n);
        // identity laws
        prop_assert_eq!(&(&a | &ProcessSet::empty(n)), &a);
        prop_assert_eq!(&(&a & &b), &a);
        // complement laws
        let c = a.complement();
        prop_assert!(a.is_disjoint(&c));
        prop_assert_eq!(&(&a | &c), &b);
        prop_assert_eq!(a.len() + c.len(), n);
    }

    #[test]
    fn pset_iteration_matches_contains((_, a) in arb_digraph_and_mask()) {
        let collected: Vec<ProcessId> = a.iter().collect();
        prop_assert_eq!(collected.len(), a.len());
        for p in &collected {
            prop_assert!(a.contains(*p));
        }
        // sorted, no duplicates
        for w in collected.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    // ---------- Digraph laws ----------

    #[test]
    fn digraph_intersection_is_glb(g1 in arb_digraph(), g2 in arb_digraph()) {
        // restrict to the same universe by reusing g1's edges modulo n
        let n = g1.n().min(g2.n());
        let a = Digraph::from_edges(n, g1.edges().map(|(u, v)| (u.index() % n, v.index() % n)));
        let b = Digraph::from_edges(n, g2.edges().map(|(u, v)| (u.index() % n, v.index() % n)));
        let i = a.intersect(&b);
        prop_assert!(i.is_subgraph_of(&a));
        prop_assert!(i.is_subgraph_of(&b));
        prop_assert!(a.intersect(&a).is_subgraph_of(&a));
        prop_assert_eq!(&a.intersect(&a), &a); // idempotent
        prop_assert_eq!(&a.intersect(&b), &b.intersect(&a)); // commutative
        // union is an upper bound
        let u = a.union(&b);
        prop_assert!(a.is_subgraph_of(&u));
        prop_assert!(b.is_subgraph_of(&u));
    }

    #[test]
    fn digraph_reverse_involution(g in arb_digraph()) {
        prop_assert_eq!(&g.reverse().reverse(), &g);
        prop_assert_eq!(g.reverse().edge_count(), g.edge_count());
    }

    #[test]
    fn in_out_rows_are_transposes(g in arb_digraph()) {
        for u in ProcessId::all(g.n()) {
            for v in ProcessId::all(g.n()) {
                prop_assert_eq!(g.out_neighbors(u).contains(v), g.in_neighbors(v).contains(u));
            }
        }
    }

    // ---------- SCC cross-validation ----------

    #[test]
    fn scc_components_are_maximal_and_strongly_connected((g, mask) in arb_digraph_and_mask()) {
        let t = tarjan(&g, &mask);
        for c in t.components() {
            prop_assert!(is_strongly_connected(&g, c));
        }
        // maximality: two distinct components are never mutually reachable
        // within the mask
        let comps = t.components();
        for i in 0..comps.len() {
            for j in (i + 1)..comps.len() {
                let a = comps[i].first().unwrap();
                let b = comps[j].first().unwrap();
                let fwd = reach::descendants(&g, a, &mask).contains(b);
                let back = reach::descendants(&g, b, &mask).contains(a);
                prop_assert!(!(fwd && back), "components {i} and {j} are mergeable");
            }
        }
    }

    #[test]
    fn strong_connectivity_agrees_with_tarjan((g, mask) in arb_digraph_and_mask()) {
        let fast = is_strongly_connected(&g, &mask);
        let via_scc = !mask.is_empty() && tarjan(&g, &mask).count() == 1;
        prop_assert_eq!(fast, via_scc);
    }

    // ---------- Root components ----------

    #[test]
    fn root_components_match_definition((g, mask) in arb_digraph_and_mask()) {
        let roots = root_components(&g, &mask);
        let t = tarjan(&g, &mask);
        // brute-force: a component is a root iff no edge from outside enters it
        for comp in t.components() {
            let mut has_incoming = false;
            for p in comp.iter() {
                let mut preds = g.in_neighbors(p).clone();
                preds.intersect_with(&mask);
                preds.difference_with(comp);
                if !preds.is_empty() {
                    has_incoming = true;
                    break;
                }
            }
            let is_root = roots.contains(comp);
            prop_assert_eq!(!has_incoming, is_root);
        }
        // every nonempty graph has ≥ 1 root component (Lemma 11's argument)
        if !mask.is_empty() {
            prop_assert!(!roots.is_empty());
        }
    }

    // ---------- Reachability ----------

    #[test]
    fn descendants_transitive_closure_step((g, mask) in arb_digraph_and_mask()) {
        for src in mask.iter() {
            let d = reach::descendants(&g, src, &mask);
            // closure: successors (within mask) of any reached node are reached
            for u in d.iter() {
                let mut succ = g.out_neighbors(u).clone();
                succ.intersect_with(&mask);
                prop_assert!(succ.is_subset_of(&d));
            }
            // ancestors/descendants duality
            for v in d.iter() {
                prop_assert!(reach::ancestors(&g, v, &mask).contains(src));
            }
        }
    }

    #[test]
    fn distance_bounded_by_n_minus_1((g, mask) in arb_digraph_and_mask()) {
        if let (Some(u), Some(v)) = (mask.first(), mask.iter().last()) {
            if let Some(d) = reach::distance(&g, u, v, &mask) {
                prop_assert!(d < g.n(), "simple path length exceeded n−1");
            }
        }
    }

    // ---------- Labelled digraph ----------

    #[test]
    fn labeled_merge_max_is_commutative_and_idempotent(
        edges1 in proptest::collection::vec((0..8usize, 0..8usize, 1..20u32), 0..40),
        edges2 in proptest::collection::vec((0..8usize, 0..8usize, 1..20u32), 0..40),
    ) {
        let build = |edges: &[(usize, usize, u32)]| {
            let mut g = LabeledDigraph::new(8);
            for &(u, v, l) in edges {
                g.set_edge_max(ProcessId::from_usize(u), ProcessId::from_usize(v), l);
            }
            g
        };
        let a = build(&edges1);
        let b = build(&edges2);
        let mut ab = a.clone();
        ab.merge_max(&b);
        let mut ba = b.clone();
        ba.merge_max(&a);
        prop_assert_eq!(&ab, &ba);
        let mut aa = a.clone();
        aa.merge_max(&a);
        prop_assert_eq!(&aa, &a);
        // merged label is the max of the inputs
        for (u, v, l) in ab.edges() {
            let la = a.label(u, v).unwrap_or(0);
            let lb = b.label(u, v).unwrap_or(0);
            prop_assert_eq!(l, la.max(lb));
        }
    }

    #[test]
    fn labeled_purge_then_all_labels_fresh(
        edges in proptest::collection::vec((0..8usize, 0..8usize, 1..20u32), 0..40),
        cutoff in 0..25u32,
    ) {
        let mut g = LabeledDigraph::new(8);
        for &(u, v, l) in &edges {
            g.set_edge_max(ProcessId::from_usize(u), ProcessId::from_usize(v), l);
        }
        let before = g.edge_count();
        let purged = g.purge_labels_le(cutoff);
        prop_assert_eq!(g.edge_count() + purged, before);
        for (_, _, l) in g.edges() {
            prop_assert!(l > cutoff);
        }
    }

    #[test]
    fn labeled_retain_reaching_keeps_exactly_ancestors(
        edges in proptest::collection::vec((0..8usize, 0..8usize, 1..20u32), 0..40),
        target in 0..8usize,
    ) {
        let mut g = LabeledDigraph::new(8);
        for &(u, v, l) in &edges {
            g.set_edge_max(ProcessId::from_usize(u), ProcessId::from_usize(v), l);
        }
        let t = ProcessId::from_usize(target);
        g.insert_node(t);
        let expected = reach::ancestors(&g, t, g.nodes());
        g.retain_reaching(t);
        prop_assert_eq!(g.nodes(), &expected);
        // unlabeled view agrees edge-for-edge with labels
        let d = g.to_digraph();
        for u in ProcessId::all(8) {
            for v in ProcessId::all(8) {
                prop_assert_eq!(d.has_edge(u, v), g.label(u, v).is_some());
            }
        }
    }

    // ---------- Rendering sanity ----------

    #[test]
    fn dot_output_mentions_every_nonloop_edge(g in arb_digraph()) {
        let s = dot::digraph_to_dot(&g, &dot::DotOptions::default());
        for (u, v) in g.edges() {
            if u != v {
                let edge = format!("{u} -> {v};");
                prop_assert!(s.contains(&edge));
            }
        }
    }
}
