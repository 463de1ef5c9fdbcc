//! Strongly connected components.
//!
//! The paper's central objects — root components of the stable skeleton
//! (Theorem 1), the components `C^r_p` (Lemmas 5, 7, 14), and Algorithm 1's
//! decision test "is `G_p` strongly connected?" (line 28) — are all SCC
//! computations. We provide an iterative Tarjan, cross-checked by property
//! tests against a test-only iterative Kosaraju, plus a cheap two-BFS
//! strong-connectivity test for the per-round decision check.

use crate::adjacency::Adjacency;
use crate::process::ProcessId;
use crate::pset::ProcessSet;
use crate::reach;

const UNVISITED: u32 = u32::MAX;

/// The partition of a node mask into maximal strongly connected components.
#[derive(Clone, Debug)]
pub struct SccDecomposition {
    comp_of: Vec<u32>,
    comps: Vec<ProcessSet>,
}

impl SccDecomposition {
    /// Number of components.
    #[inline]
    pub fn count(&self) -> usize {
        self.comps.len()
    }

    /// The components, in *reverse topological* order of the
    /// condensation: a component appears only after every component it
    /// can reach.
    #[inline]
    pub fn components(&self) -> &[ProcessSet] {
        &self.comps
    }

    /// Index of the component containing `p`, or `None` if `p` was outside
    /// the node mask.
    #[inline]
    pub fn component_index_of(&self, p: ProcessId) -> Option<usize> {
        match self.comp_of[p.index()] {
            UNVISITED => None,
            c => Some(c as usize),
        }
    }

    /// The component containing `p` — the paper's `C^r_p` when the input was
    /// the skeleton `G∩r`.
    #[inline]
    pub fn component_of(&self, p: ProcessId) -> Option<&ProcessSet> {
        self.component_index_of(p).map(|c| &self.comps[c])
    }

    /// `true` iff `p` and `q` are strongly connected (same component).
    #[inline]
    pub fn same_component(&self, p: ProcessId, q: ProcessId) -> bool {
        match (self.comp_of[p.index()], self.comp_of[q.index()]) {
            (UNVISITED, _) | (_, UNVISITED) => false,
            (a, b) => a == b,
        }
    }

    /// Components as a canonical set-of-sets (sorted by smallest member),
    /// for order-insensitive comparisons between algorithms.
    pub fn canonical(&self) -> Vec<ProcessSet> {
        let mut v = self.comps.clone();
        v.sort_by_key(|c| c.first().map(|p| p.index()).unwrap_or(usize::MAX));
        v
    }
}

/// Iterative Tarjan SCC over the subgraph induced by `within`.
///
/// Components are emitted in reverse topological order of the condensation.
pub fn tarjan<G: Adjacency>(g: &G, within: &ProcessSet) -> SccDecomposition {
    let n = g.n();
    assert_eq!(n, within.universe(), "mask universe mismatch");

    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp_of = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comps: Vec<ProcessSet> = Vec::new();
    let mut next_index: u32 = 0;
    // Explicit DFS frames: (node, remaining neighbors to visit).
    let mut frames: Vec<(usize, ProcessSet)> = Vec::new();

    for root in within.iter() {
        let r = root.index();
        if index[r] != UNVISITED {
            continue;
        }
        index[r] = next_index;
        lowlink[r] = next_index;
        next_index += 1;
        stack.push(r as u32);
        on_stack[r] = true;
        let mut succ = g.out_row(root).clone();
        succ.intersect_with(within);
        frames.push((r, succ));

        while let Some(&mut (v, ref mut rem)) = frames.last_mut() {
            if let Some(w_id) = rem.pop_first() {
                let w = w_id.index();
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    let mut succ = g.out_row(w_id).clone();
                    succ.intersect_with(within);
                    frames.push((w, succ));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // v's subtree is done.
                if lowlink[v] == index[v] {
                    let mut comp = ProcessSet::empty(n);
                    let cid = comps.len() as u32;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow") as usize;
                        on_stack[w] = false;
                        comp_of[w] = cid;
                        comp.insert(ProcessId::from_usize(w));
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
                let low_v = lowlink[v];
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(low_v);
                }
            }
        }
    }

    SccDecomposition { comp_of, comps }
}

/// Iterative Kosaraju SCC over the subgraph induced by `within`: the
/// test-only oracle that [`tarjan`] is cross-checked against. Shares no
/// traversal code with it.
#[cfg(test)]
fn kosaraju<G: Adjacency>(g: &G, within: &ProcessSet) -> SccDecomposition {
    let n = g.n();
    assert_eq!(n, within.universe(), "mask universe mismatch");

    // Pass 1: DFS on g, record finish order.
    let mut visited = vec![false; n];
    let mut finish: Vec<u32> = Vec::with_capacity(within.len());
    let mut frames: Vec<(usize, ProcessSet)> = Vec::new();
    for root in within.iter() {
        if visited[root.index()] {
            continue;
        }
        visited[root.index()] = true;
        let mut succ = g.out_row(root).clone();
        succ.intersect_with(within);
        frames.push((root.index(), succ));
        while let Some(&mut (v, ref mut rem)) = frames.last_mut() {
            if let Some(w_id) = rem.pop_first() {
                let w = w_id.index();
                if !visited[w] {
                    visited[w] = true;
                    let mut succ = g.out_row(w_id).clone();
                    succ.intersect_with(within);
                    frames.push((w, succ));
                }
            } else {
                finish.push(v as u32);
                frames.pop();
            }
        }
    }

    // Pass 2: DFS on the reverse graph in reverse finish order.
    let mut comp_of = vec![UNVISITED; n];
    let mut comps: Vec<ProcessSet> = Vec::new();
    let mut todo: Vec<usize> = Vec::new();
    let mut preds = ProcessSet::empty(n);
    for &v in finish.iter().rev() {
        let v = v as usize;
        if comp_of[v] != UNVISITED {
            continue;
        }
        let cid = comps.len() as u32;
        let mut comp = ProcessSet::empty(n);
        todo.push(v);
        comp_of[v] = cid;
        comp.insert(ProcessId::from_usize(v));
        while let Some(u) = todo.pop() {
            preds.clone_from(g.in_row(ProcessId::from_usize(u)));
            preds.intersect_with(within);
            for w_id in preds.iter() {
                let w = w_id.index();
                if comp_of[w] == UNVISITED {
                    comp_of[w] = cid;
                    comp.insert(w_id);
                    todo.push(w);
                }
            }
        }
        comps.push(comp);
    }

    SccDecomposition { comp_of, comps }
}

/// Reusable buffers for [`is_strongly_connected_with`], so the per-round
/// decision test runs without heap allocation.
#[derive(Clone, Debug)]
pub struct SccScratch {
    reached: ProcessSet,
    bfs: reach::BfsScratch,
}

impl SccScratch {
    /// Scratch pre-sized for a universe of `n` processes.
    pub fn new(n: usize) -> Self {
        SccScratch {
            reached: ProcessSet::empty(n),
            bfs: reach::BfsScratch::new(n),
        }
    }
}

/// Strong-connectivity test for the subgraph induced by `within`: every node
/// of `within` reaches every other. This is Algorithm 1's line-28 decision
/// test applied to `G_p`.
///
/// Conventions (matching the paper): the empty mask is *not* strongly
/// connected; a singleton is trivially strongly connected (a process that
/// only ever hears from itself decides on its own value).
///
/// Implemented as two BFS sweeps (forward + backward from an arbitrary
/// node), which is cheaper than a full SCC decomposition.
pub fn is_strongly_connected<G: Adjacency>(g: &G, within: &ProcessSet) -> bool {
    is_strongly_connected_with(g, within, &mut SccScratch::new(g.n()))
}

/// [`is_strongly_connected`] with caller-provided buffers (no allocation
/// when warm).
pub fn is_strongly_connected_with<G: Adjacency>(
    g: &G,
    within: &ProcessSet,
    scratch: &mut SccScratch,
) -> bool {
    let Some(seed) = within.first() else {
        return false;
    };
    if within.len() == 1 {
        return true;
    }
    reach::descendants_into(g, seed, within, &mut scratch.reached, &mut scratch.bfs);
    if scratch.reached != *within {
        return false;
    }
    reach::ancestors_into(g, seed, within, &mut scratch.reached, &mut scratch.bfs);
    scratch.reached == *within
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::Digraph;
    use proptest::prelude::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from_usize(i)
    }

    /// Figure 1b of the paper (self-loops omitted): components
    /// {p1,p2}, {p3,p4,p5}, {p6}.
    fn figure_1b() -> Digraph {
        // p1↔p2; p3→p4→p5→p3; p2→p6, p5→p6 (one concrete choice of the
        // downstream edges; the SCC structure is what matters here).
        Digraph::from_edges(6, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (1, 5), (4, 5)])
    }

    #[test]
    fn tarjan_finds_figure_components() {
        let g = figure_1b();
        let scc = tarjan(&g, &ProcessSet::full(6));
        assert_eq!(scc.count(), 3);
        assert_eq!(
            scc.component_of(p(0)).unwrap(),
            &ProcessSet::from_indices(6, [0, 1])
        );
        assert_eq!(
            scc.component_of(p(2)).unwrap(),
            &ProcessSet::from_indices(6, [2, 3, 4])
        );
        assert_eq!(
            scc.component_of(p(5)).unwrap(),
            &ProcessSet::from_indices(6, [5])
        );
        assert!(scc.same_component(p(0), p(1)));
        assert!(!scc.same_component(p(0), p(2)));
    }

    #[test]
    fn kosaraju_matches_tarjan_on_figure() {
        let g = figure_1b();
        let full = ProcessSet::full(6);
        assert_eq!(
            tarjan(&g, &full).canonical(),
            kosaraju(&g, &full).canonical()
        );
    }

    #[test]
    fn tarjan_emits_reverse_topological_order() {
        // 0 → 1 → 2 (three singleton components): sink first under Tarjan.
        let g = Digraph::from_edges(3, [(0, 1), (1, 2)]);
        let scc = tarjan(&g, &ProcessSet::full(3));
        let order: Vec<usize> = scc
            .components()
            .iter()
            .map(|c| c.first().unwrap().index())
            .collect();
        assert_eq!(order, vec![2, 1, 0]);
    }

    #[test]
    fn mask_restricts_decomposition() {
        let g = figure_1b();
        // Exclude p4 (index 3): the 3-cycle p3→p4→p5→p3 is broken.
        let mask = ProcessSet::from_indices(6, [0, 1, 2, 4, 5]);
        let scc = tarjan(&g, &mask);
        assert_eq!(scc.component_of(p(2)).unwrap().len(), 1);
        assert_eq!(scc.component_of(p(4)).unwrap().len(), 1);
        assert_eq!(scc.component_index_of(p(3)), None);
        assert_eq!(scc.canonical(), kosaraju(&g, &mask).canonical());
    }

    #[test]
    fn strongly_connected_conventions() {
        let g = figure_1b();
        assert!(!is_strongly_connected(&g, &ProcessSet::empty(6)));
        assert!(is_strongly_connected(&g, &ProcessSet::from_indices(6, [5])));
        assert!(is_strongly_connected(
            &g,
            &ProcessSet::from_indices(6, [0, 1])
        ));
        assert!(is_strongly_connected(
            &g,
            &ProcessSet::from_indices(6, [2, 3, 4])
        ));
        assert!(!is_strongly_connected(&g, &ProcessSet::full(6)));
        assert!(!is_strongly_connected(
            &g,
            &ProcessSet::from_indices(6, [0, 1, 5])
        ));
    }

    #[test]
    fn single_cycle_is_one_component() {
        let n = 17;
        let g = Digraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n)));
        let full = ProcessSet::full(n);
        let scc = tarjan(&g, &full);
        assert_eq!(scc.count(), 1);
        assert!(is_strongly_connected(&g, &full));
    }

    #[test]
    fn self_loops_do_not_merge_components() {
        let mut g = Digraph::from_edges(3, [(0, 1)]);
        g.add_self_loops();
        let scc = tarjan(&g, &ProcessSet::full(3));
        assert_eq!(scc.count(), 3);
    }

    /// A universe of 1–23 processes, an arbitrary edge list over it and an
    /// arbitrary node mask.
    fn arb_digraph_and_mask() -> impl Strategy<Value = (Digraph, ProcessSet)> {
        (1..24usize).prop_flat_map(|n| {
            (
                proptest::collection::vec((0..n, 0..n), 0..(n * n).min(150))
                    .prop_map(move |edges| Digraph::from_edges(n, edges)),
                proptest::collection::vec(0..n, 0..n)
                    .prop_map(move |v| ProcessSet::from_indices(n, v)),
            )
        })
    }

    proptest! {
        #[test]
        fn tarjan_equals_kosaraju((g, mask) in arb_digraph_and_mask()) {
            let t = tarjan(&g, &mask);
            let k = kosaraju(&g, &mask);
            prop_assert_eq!(t.canonical(), k.canonical());
            // components partition the mask
            let mut union = ProcessSet::empty(g.n());
            let mut total = 0usize;
            for c in t.components() {
                prop_assert!(!c.is_empty());
                prop_assert!(union.is_disjoint(c));
                union.union_with(c);
                total += c.len();
            }
            prop_assert_eq!(&union, &mask);
            prop_assert_eq!(total, mask.len());
        }
    }
}
