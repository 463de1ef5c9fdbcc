//! Round-labelled digraphs — Algorithm 1's approximation graphs.
//!
//! In contrast to the stable skeleton `G∩r`, the local approximation `G_p`
//! maintained by every process is a **weighted** digraph: edge `(q' --s--> q)`
//! records that `q' ∈ PT(q, s)` held at round `s` (Lemma 6). Labels drive the
//! aging rule of Algorithm 1 line 24 (edges whose label is older than `n − 1`
//! rounds are purged) and are combined by **max** when merging received
//! graphs (lines 19–23), which is what guarantees Lemma 3(c): at most one
//! labelled edge per node pair.
//!
//! The structure also carries an explicit node set `V_p` (the paper's
//! line 18 unions node sets, line 25 prunes nodes), which can temporarily
//! contain nodes without incident edges.

use crate::adjacency::Adjacency;
use crate::digraph::Digraph;
use crate::process::{ProcessId, Round};
use crate::pset::ProcessSet;
use crate::reach;
use crate::scc;
use core::fmt;

/// Absent-edge sentinel in the dense delta matrix (stored deltas are ≥ 1).
const NO_EDGE: u16 = 0;

/// Largest label delta a matrix cell can carry: labels must live in the
/// half-open window `(base, base + MAX_DELTA]`.
const MAX_DELTA: Round = u16::MAX as Round;

/// A digraph with one `Round` label per edge and an explicit node set, over
/// the fixed universe `{p1, …, pn}`.
///
/// Representation: a **delta-compressed** dense `n × n` matrix — a single
/// per-graph base round plus one `u16` delta per cell (`0` = absent,
/// otherwise `label = base + delta`) — plus bitset adjacency rows kept in
/// sync, so the strong-connectivity decision test and the reachability
/// prune run word-parallel. Algorithm 1 line 24 purges every label
/// `≤ r − n`, so all live labels sit in the window `(r − n, r]`: they fit a
/// `u16` delta with room to spare, which halves the bytes the
/// bandwidth-bound dense merge streams (4 label lanes per 64-bit word
/// instead of 2). The base moves rarely, via the amortized
/// [`LabeledDigraph::rebase`]; every label-facing method translates through
/// it, and [`PartialEq`] compares *labels*, so two graphs with different
/// bases but the same logical edges are equal.
///
/// ```
/// use sskel_graph::{LabeledDigraph, ProcessId};
/// let p = ProcessId::new(0);
/// let q = ProcessId::new(1);
/// let mut g = LabeledDigraph::with_node(2, p); // ⟨{p}, ∅⟩, line 15
/// g.set_edge_max(q, p, 3);                     // q --3--> p, line 17
/// assert_eq!(g.label(q, p), Some(3));
/// g.set_edge_max(q, p, 2);                     // older label loses
/// assert_eq!(g.label(q, p), Some(3));
/// ```
pub struct LabeledDigraph {
    n: u32,
    /// Base round of the delta window: every stored label is
    /// `base + delta` with `delta ∈ [1, u16::MAX]`.
    base: Round,
    nodes: ProcessSet,
    /// Row-major `n × n`: `labels[u * n + v]` is the label **delta** of
    /// `(u → v)` relative to `base`; `0` = absent.
    labels: Vec<u16>,
    out: Vec<ProcessSet>,
    inn: Vec<ProcessSet>,
    /// Dirty-row bitset: a **superset** of the rows holding at least one
    /// labelled edge. Maintained incrementally (insertions mark, removals
    /// don't unmark; [`LabeledDigraph::reset_to_node`] clears), it lets the
    /// incremental reset zero only the label rows that were ever written
    /// and lets [`LabeledDigraph::merge_max_batch`] skip rows untouched by
    /// every operand without probing their adjacency words.
    row_dirty: ProcessSet,
}

/// Equality is over the logical graph — node set, edges, labels — and
/// deliberately ignores the dirty-row superset, which depends on mutation
/// history (e.g. a decoded graph records exactly the populated rows while
/// the original may conservatively remember purged ones). The delta base is
/// likewise representation, not meaning: graphs with different bases but
/// identical labels compare equal (delta vectors are only compared directly
/// when the bases coincide).
impl PartialEq for LabeledDigraph {
    fn eq(&self, other: &Self) -> bool {
        if self.n != other.n
            || self.nodes != other.nodes
            || self.out != other.out
            || self.inn != other.inn
        {
            return false;
        }
        if self.base == other.base {
            // Same window: absent cells are 0 in both, so the delta vectors
            // compare label-for-label.
            self.labels == other.labels
        } else {
            // The edge sets already match (`out` rows equal); compare the
            // translated labels edge by edge.
            self.edges().all(|(u, v, l)| other.label(u, v) == Some(l))
        }
    }
}

impl Eq for LabeledDigraph {}

impl Clone for LabeledDigraph {
    fn clone(&self) -> Self {
        LabeledDigraph {
            n: self.n,
            base: self.base,
            nodes: self.nodes.clone(),
            labels: self.labels.clone(),
            out: self.out.clone(),
            inn: self.inn.clone(),
            row_dirty: self.row_dirty.clone(),
        }
    }

    /// Allocation-free when both graphs share a universe size: the label
    /// matrix and every bitset row buffer are reused.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.base = source.base;
        self.nodes.clone_from(&source.nodes);
        self.labels.clone_from(&source.labels);
        self.out.clone_from(&source.out);
        self.inn.clone_from(&source.inn);
        self.row_dirty.clone_from(&source.row_dirty);
    }
}

impl LabeledDigraph {
    /// The graph `⟨∅, ∅⟩` over a universe of size `n`.
    ///
    /// # Panics
    /// Panics if `n` overflows `u32`, or if `n ≥ u16::MAX − 1`: Algorithm 1
    /// keeps labels in the `n + 1`-wide window `(r − n, r]`, which must fit
    /// the `u16` delta matrix with the absent-edge sentinel reserved.
    pub fn new(n: usize) -> Self {
        assert!(
            n + 2 <= u16::MAX as usize,
            "universe size {n} does not leave room for the u16 label-delta window"
        );
        LabeledDigraph {
            n: u32::try_from(n).expect("universe size overflows u32"),
            base: 0,
            nodes: ProcessSet::empty(n),
            labels: vec![NO_EDGE; n * n],
            out: vec![ProcessSet::empty(n); n],
            inn: vec![ProcessSet::empty(n); n],
            row_dirty: ProcessSet::empty(n),
        }
    }

    /// The graph `⟨{p}, ∅⟩` — Algorithm 1's reset state (line 15).
    pub fn with_node(n: usize, p: ProcessId) -> Self {
        let mut g = Self::new(n);
        g.insert_node(p);
        g
    }

    /// In-place reset to `⟨{p}, ∅⟩` (Algorithm 1 line 15) without freeing
    /// the label matrix or the bitset rows. Equivalent to
    /// `*self = LabeledDigraph::with_node(self.universe(), p)` but
    /// allocation-free — this is what makes the estimator's per-round
    /// rebuild cheap.
    ///
    /// The reset is **incremental**: only label rows recorded in the
    /// dirty-row bitset are zeroed, so resetting a sparsely-populated graph
    /// costs `O(dirty rows · n)` instead of `O(n²)`.
    ///
    /// The delta **base is preserved** across the reset (an empty graph is
    /// representable under any base); callers that need a particular window
    /// afterwards follow up with [`LabeledDigraph::rebase`], which is O(1)
    /// on the freshly-reset graph.
    pub fn reset_to_node(&mut self, p: ProcessId) {
        let n = self.n as usize;
        let LabeledDigraph {
            nodes,
            labels,
            out,
            inn,
            row_dirty,
            ..
        } = self;
        // Rows outside `row_dirty` were never written since the last reset:
        // their label row is all-NO_EDGE and their out-row is empty already.
        for u in row_dirty.iter() {
            let base = u.index() * n;
            labels[base..base + n].fill(NO_EDGE);
            out[u.index()].clear();
        }
        row_dirty.clear();
        for row in inn.iter_mut() {
            row.clear();
        }
        nodes.clear();
        nodes.insert(p);
    }

    /// Universe size `n`.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n as usize
    }

    /// The node set `V_p`.
    #[inline]
    pub fn nodes(&self) -> &ProcessSet {
        &self.nodes
    }

    /// Number of nodes in `V_p`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Adds `p` to the node set.
    #[inline]
    pub fn insert_node(&mut self, p: ProcessId) {
        self.nodes.insert(p);
    }

    /// Unions another node set into `V_p` (line 18).
    #[inline]
    pub fn union_nodes(&mut self, other: &ProcessSet) {
        self.nodes.union_with(other);
    }

    /// Membership in `V_p`.
    #[inline]
    pub fn contains_node(&self, p: ProcessId) -> bool {
        self.nodes.contains(p)
    }

    #[inline]
    fn idx(&self, u: ProcessId, v: ProcessId) -> usize {
        u.index() * self.n as usize + v.index()
    }

    /// The base round of the delta window: every stored label is
    /// `base + delta` for a delta in `[1, u16::MAX]`, i.e. all labels lie in
    /// `(base, base + u16::MAX]`.
    #[inline]
    pub fn base(&self) -> Round {
        self.base
    }

    /// The `(min, max)` stored delta over all labelled cells, or `None` for
    /// an edgeless graph. One branchless pass over the dirty label rows:
    /// absent cells carry `0`, which `wrapping_sub(1)` maps to `u16::MAX` so
    /// they never win the min, and which is the identity for the max.
    fn delta_range(&self) -> Option<(u16, u16)> {
        let n = self.n as usize;
        let mut min_m1 = u16::MAX;
        let mut max = 0u16;
        for u in self.row_dirty.iter() {
            let lo = u.index() * n;
            for &d in &self.labels[lo..lo + n] {
                min_m1 = min_m1.min(d.wrapping_sub(1));
                max = max.max(d);
            }
        }
        if max == NO_EDGE {
            None
        } else {
            Some((min_m1 + 1, max))
        }
    }

    /// Moves the delta window to `new_base`, renormalizing the stored deltas
    /// of every dirty row (`delta' = delta + (base − new_base)`, exact in
    /// wrapping `u16` arithmetic because the result is pre-checked to fit).
    /// Labels are unchanged — only the representation shifts. Cost:
    /// `O(dirty rows · n)`, amortized away by calling it only when the
    /// window is nearly exhausted (the estimator rebases every
    /// `≈ u16::MAX − n` rounds).
    ///
    /// # Panics
    /// Panics if a live label would fall outside `(new_base,
    /// new_base + u16::MAX]`.
    pub fn rebase(&mut self, new_base: Round) {
        if new_base == self.base {
            return;
        }
        if let Some((dmin, dmax)) = self.delta_range() {
            let min = self.base + Round::from(dmin);
            let max = self.base + Round::from(dmax);
            assert!(
                min > new_base,
                "rebase to {new_base} would strand label {min} at or below the base"
            );
            assert!(
                max - new_base <= MAX_DELTA,
                "rebase to {new_base} would push label {max} beyond the u16 window"
            );
            let shift = self.base.wrapping_sub(new_base) as u16;
            let n = self.n as usize;
            let LabeledDigraph {
                labels, row_dirty, ..
            } = self;
            for u in row_dirty.iter() {
                let lo = u.index() * n;
                for d in &mut labels[lo..lo + n] {
                    let nz = (*d != NO_EDGE) as u16;
                    *d = d.wrapping_add(shift).wrapping_mul(nz);
                }
            }
        }
        self.base = new_base;
    }

    /// Rebase so that `round` (and every live label) fits the window, for
    /// [`LabeledDigraph::set_edge_max`] calls outside the current one.
    ///
    /// # Panics
    /// Panics if the resulting label spread cannot fit any `u16` window.
    #[cold]
    fn widen_to(&mut self, round: Round) {
        match self.delta_range() {
            None => self.rebase(round - 1),
            Some((dmin, dmax)) => {
                let lo = (self.base + Round::from(dmin)).min(round);
                let hi = (self.base + Round::from(dmax)).max(round);
                assert!(
                    hi - lo < MAX_DELTA,
                    "label spread {lo}..={hi} exceeds the u16 delta window"
                );
                self.rebase(lo - 1);
            }
        }
    }

    /// The label of edge `(u → v)`, or `None` if absent.
    #[inline]
    pub fn label(&self, u: ProcessId, v: ProcessId) -> Option<Round> {
        match self.labels[self.idx(u, v)] {
            NO_EDGE => None,
            d => Some(self.base + Round::from(d)),
        }
    }

    /// Edge test.
    #[inline]
    pub fn has_edge(&self, u: ProcessId, v: ProcessId) -> bool {
        self.labels[self.idx(u, v)] != NO_EDGE
    }

    /// Inserts edge `(u --round--> v)`, keeping the **maximum** label if the
    /// edge already exists (the `rmax` rule of lines 20–23). Endpoints are
    /// added to the node set. Returns the resulting label.
    ///
    /// If `round` lies outside the current delta window the graph rebases
    /// itself first (amortized; the hot paths never trigger this because
    /// the estimator keeps the window ahead of the round counter).
    ///
    /// # Panics
    /// Panics if `round == 0` (rounds are 1-based; 0 is the absent
    /// sentinel), or if `round` and the live labels span more than the
    /// `u16` delta window (Algorithm 1's labels span at most `n + 1`
    /// rounds, so this cannot happen in protocol use).
    pub fn set_edge_max(&mut self, u: ProcessId, v: ProcessId, round: Round) -> Round {
        assert_ne!(round, 0, "edge labels are 1-based rounds");
        if round <= self.base || round - self.base > MAX_DELTA {
            self.widen_to(round);
        }
        self.nodes.insert(u);
        self.nodes.insert(v);
        self.row_dirty.insert(u);
        let delta = (round - self.base) as u16;
        let i = self.idx(u, v);
        if self.labels[i] == NO_EDGE {
            self.out[u.index()].insert(v);
            self.inn[v.index()].insert(u);
        }
        self.labels[i] = self.labels[i].max(delta);
        self.base + Round::from(self.labels[i])
    }

    /// Removes edge `(u → v)` if present (the node set is untouched).
    pub fn remove_edge(&mut self, u: ProcessId, v: ProcessId) -> bool {
        let i = self.idx(u, v);
        if self.labels[i] == NO_EDGE {
            return false;
        }
        self.labels[i] = NO_EDGE;
        self.out[u.index()].remove(v);
        self.inn[v.index()].remove(u);
        true
    }

    /// Ensures every operand's labels are representable in `self`'s delta
    /// window, rebasing `self` once when they are not. On the hot path all
    /// bases coincide (the estimator keeps them on one canonical schedule)
    /// and this is a handful of compares; mismatched operands whose labels
    /// already fit the window cost nothing either — the merge translates
    /// their deltas on the fly.
    ///
    /// # Panics
    /// Panics if the combined label spread exceeds the `u16` window.
    fn align_bases(&mut self, others: &[&Self]) {
        if others.iter().all(|o| o.base == self.base) {
            return;
        }
        let mut lo = Round::MAX;
        let mut hi = 0;
        let mut any = false;
        let mut fits_current = true;
        if let Some((dmin, dmax)) = self.delta_range() {
            any = true;
            lo = self.base + Round::from(dmin);
            hi = self.base + Round::from(dmax);
        }
        for o in others {
            if let Some((dmin, dmax)) = o.delta_range() {
                any = true;
                let omin = o.base + Round::from(dmin);
                let omax = o.base + Round::from(dmax);
                lo = lo.min(omin);
                hi = hi.max(omax);
                if omin <= self.base || omax - self.base > MAX_DELTA {
                    fits_current = false;
                }
            }
        }
        if !any {
            // No labels anywhere: adopt the first operand's base so a pure
            // node-set merge leaves the accumulator on the senders' window.
            self.base = others[0].base;
            return;
        }
        if fits_current {
            return;
        }
        assert!(
            hi - lo < MAX_DELTA,
            "merged label spread {lo}..={hi} exceeds the u16 delta window"
        );
        self.rebase(lo - 1);
    }

    /// Max-combines one 64-column chunk of source deltas into the
    /// destination, translating the source by `shift = src_base − dst_base`
    /// (in wrapping `u16` arithmetic; exact because
    /// [`LabeledDigraph::align_bases`] pre-checked the fit). Absent cells
    /// carry `0` in both operands, where the translated value is forced
    /// back to `0`, so max is the identity there and the loop vectorizes —
    /// four `u16` lanes per 64-bit word.
    #[inline]
    fn max_combine_chunk(dst: &mut [u16], src: &[u16], shift: u16) {
        if shift == 0 {
            for (a, &b) in dst.iter_mut().zip(src) {
                *a = (*a).max(b);
            }
        } else {
            for (a, &b) in dst.iter_mut().zip(src) {
                let nz = (b != NO_EDGE) as u16;
                *a = (*a).max(b.wrapping_add(shift).wrapping_mul(nz));
            }
        }
    }

    /// Merges another labelled graph into this one: node sets are unioned and
    /// every edge of `other` is inserted with max-combine. Applying this to
    /// each received graph `G_q`, `q ∈ PT_p`, implements lines 18–23 of
    /// Algorithm 1.
    ///
    /// A batch of one for [`LabeledDigraph::merge_max_batch`]: per row
    /// `other` ever wrote, only the 64-bit adjacency words it populates
    /// are visited, labels are max-combined in the row slice, and the
    /// `out`/`inn` bitsets are updated word-at-a-time from the edge
    /// additions. No allocation, no per-edge index arithmetic.
    ///
    /// # Panics
    /// Panics if the universes differ, or if the combined label spread of
    /// both graphs exceeds the `u16` delta window (`> u16::MAX − 1`
    /// rounds) — unrepresentable in the delta layout. Algorithm 1's
    /// windows never come close (live labels span ≤ `n + 1` rounds), but
    /// a graph decoded from an untrusted peer carries an arbitrary base:
    /// validate its [`LabeledDigraph::min_label`]/
    /// [`LabeledDigraph::max_label`] against the local window before
    /// merging wire input.
    ///
    /// ```
    /// use sskel_graph::{LabeledDigraph, ProcessId};
    /// let p = |i| ProcessId::new(i);
    /// let mut g = LabeledDigraph::with_node(3, p(0));
    /// g.set_edge_max(p(1), p(0), 2);
    /// let mut h = LabeledDigraph::new(3);
    /// h.set_edge_max(p(1), p(0), 7); // fresher label for the same edge
    /// h.set_edge_max(p(2), p(0), 1);
    /// g.merge_max(&h);
    /// assert_eq!(g.label(p(1), p(0)), Some(7)); // rmax rule, lines 20–23
    /// assert_eq!(g.label(p(2), p(0)), Some(1));
    /// assert_eq!(g.node_count(), 3); // node sets unioned, line 18
    /// ```
    pub fn merge_max(&mut self, other: &Self) {
        self.merge_max_batch(std::slice::from_ref(&other));
    }

    /// Merges a whole batch of labelled graphs into this one in a single
    /// row-major pass: semantically identical to calling
    /// [`LabeledDigraph::merge_max`] once per operand, but each destination
    /// row is visited **once**, with every operand's matching row folded in
    /// while the row is hot in cache. Rows untouched by *all* operands
    /// (their union of dirty-row bitsets) are skipped entirely — this is
    /// what makes Algorithm 1's lines 19–23 sub-cubic in practice when the
    /// received graphs are sparse.
    ///
    /// # Panics
    /// Same conditions as [`LabeledDigraph::merge_max`]: differing
    /// universes, or a combined label spread beyond the `u16` delta
    /// window (validate untrusted decoded graphs before merging).
    ///
    /// ```
    /// use sskel_graph::{LabeledDigraph, ProcessId};
    /// let p = |i| ProcessId::new(i);
    /// let mut acc = LabeledDigraph::with_node(4, p(0));
    /// let mut a = LabeledDigraph::new(4);
    /// a.set_edge_max(p(1), p(0), 3);
    /// let mut b = LabeledDigraph::new(4);
    /// b.set_edge_max(p(1), p(0), 5); // same edge, fresher label
    /// b.set_edge_max(p(2), p(3), 1);
    /// acc.merge_max_batch(&[&a, &b]);
    /// assert_eq!(acc.label(p(1), p(0)), Some(5)); // max over the batch
    /// assert_eq!(acc.label(p(2), p(3)), Some(1));
    /// ```
    pub fn merge_max_batch(&mut self, others: &[&Self]) {
        let n = self.n as usize;
        for o in others {
            assert_eq!(self.n, o.n, "labelled graphs over different universes");
        }
        self.align_bases(others);
        let self_base = self.base;
        for o in others {
            self.nodes.union_with(&o.nodes);
            self.row_dirty.union_with(&o.row_dirty);
        }
        let row_words = self.row_dirty.words().len();
        let LabeledDigraph {
            labels, out, inn, ..
        } = self;
        for rwi in 0..row_words {
            // Union of the operands' dirty rows for this 64-row block: a
            // row no operand ever wrote needs no visit at all.
            let mut rows = 0u64;
            for o in others {
                rows |= o.row_dirty.word(rwi);
            }
            while rows != 0 {
                let bit_idx = rows.trailing_zeros();
                rows &= rows - 1;
                let ui = rwi * 64 + bit_idx as usize;
                let u = ProcessId::from_usize(ui);
                let base = ui * n;
                let dst = &mut labels[base..base + n];
                let out_row = &mut out[ui];
                for o in others {
                    // Operands that never wrote this row contribute nothing
                    // — skip them without probing their adjacency words.
                    if o.row_dirty.word(rwi) & (1 << bit_idx) == 0 {
                        continue;
                    }
                    let shift = o.base.wrapping_sub(self_base) as u16;
                    let orow = &o.out[ui];
                    let src = &o.labels[base..base + n];
                    for (wi, &ow) in orow.words().iter().enumerate() {
                        if ow == 0 {
                            continue;
                        }
                        let lo = wi * 64;
                        let hi = (lo + 64).min(n);
                        Self::max_combine_chunk(&mut dst[lo..hi], &src[lo..hi], shift);
                        // A column is labelled afterwards iff it was
                        // labelled in either operand: the new out-word is
                        // exactly old | ow.
                        let old = out_row.word(wi);
                        let added = ow & !old;
                        if added != 0 {
                            out_row.set_word(wi, old | ow);
                            let mut a = added;
                            while a != 0 {
                                let v = lo + a.trailing_zeros() as usize;
                                a &= a - 1;
                                inn[v].insert(u);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Discards every edge with label `≤ cutoff` (Algorithm 1 line 24 with
    /// `cutoff = r − n`; Observation 1: no surviving edge has `s ≤ r − n`).
    /// Nodes are untouched. Returns the number of purged edges.
    ///
    /// Runs row-wise without cloning any bitset: per populated adjacency
    /// word, stale columns are zeroed in the label row and the word is
    /// rewritten once.
    pub fn purge_labels_le(&mut self, cutoff: Round) -> usize {
        if cutoff <= self.base {
            // Every stored label exceeds the base, so none can be ≤ cutoff.
            return 0;
        }
        // Translate the cutoff into delta space; labels above the window
        // top cannot exist, so clamping to MAX_DELTA purges everything.
        let cutoff = (cutoff - self.base).min(MAX_DELTA) as u16;
        let n = self.n as usize;
        let mut purged = 0;
        let LabeledDigraph {
            nodes,
            labels,
            out,
            inn,
            ..
        } = self;
        for u in nodes.iter() {
            let ui = u.index();
            let base = ui * n;
            let row = &mut labels[base..base + n];
            let out_row = &mut out[ui];
            for wi in 0..out_row.words().len() {
                let w = out_row.word(wi);
                if w == 0 {
                    continue;
                }
                let lo = wi * 64;
                let mut removed = 0u64;
                let mut bits = w;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let col = lo + bit;
                    if row[col] <= cutoff {
                        row[col] = NO_EDGE;
                        removed |= 1 << bit;
                    }
                }
                if removed != 0 {
                    out_row.set_word(wi, w & !removed);
                    let mut r = removed;
                    while r != 0 {
                        let v = lo + r.trailing_zeros() as usize;
                        r &= r - 1;
                        inn[v].remove(u);
                    }
                    purged += removed.count_ones() as usize;
                }
            }
        }
        purged
    }

    /// Keeps only nodes from which `target` is reachable (plus `target`
    /// itself), removing all other nodes and their incident edges —
    /// Algorithm 1 line 25 with `target = p`. Returns the set of dropped
    /// nodes.
    pub fn retain_reaching(&mut self, target: ProcessId) -> ProcessSet {
        let n = self.universe();
        let mut keep = ProcessSet::empty(n);
        let mut dropped = ProcessSet::empty(n);
        let mut bfs = reach::BfsScratch::new(n);
        self.retain_reaching_into(target, &mut keep, &mut dropped, &mut bfs);
        dropped
    }

    /// [`LabeledDigraph::retain_reaching`] with caller-provided buffers —
    /// allocation-free when warm. After the call `keep` holds the surviving
    /// node set and `dropped` the removed one.
    pub fn retain_reaching_into(
        &mut self,
        target: ProcessId,
        keep: &mut ProcessSet,
        dropped: &mut ProcessSet,
        bfs: &mut reach::BfsScratch,
    ) {
        reach::ancestors_into(&*self, target, &self.nodes, keep, bfs);
        dropped.clone_from(&self.nodes);
        dropped.difference_with(keep);
        let n = self.n as usize;
        let LabeledDigraph {
            nodes,
            labels,
            out,
            inn,
            ..
        } = self;
        for gone in dropped.iter() {
            let gi = gone.index();
            // Out-edges of `gone`: zero the label row, fix the inn rows.
            let base = gi * n;
            for (wi, &w) in out[gi].words().iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let v = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    labels[base + v] = NO_EDGE;
                    inn[v].remove(gone);
                }
            }
            out[gi].clear();
            // In-edges of `gone`: zero the label column, fix the out rows.
            for (wi, &w) in inn[gi].words().iter().enumerate() {
                let mut bits = w;
                while bits != 0 {
                    let u = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    labels[u * n + gi] = NO_EDGE;
                    out[u].remove(gone);
                }
            }
            inn[gi].clear();
            nodes.remove(gone);
        }
        // `target` stays even if it was absent before (defensive; Algorithm 1
        // guarantees p ∈ V_p).
        self.nodes.insert(target);
    }

    /// Strong-connectivity of the node set under the current edges —
    /// Algorithm 1's decision test (line 28). Singleton node sets count as
    /// strongly connected; the empty graph does not.
    pub fn is_strongly_connected(&self) -> bool {
        scc::is_strongly_connected(self, &self.nodes)
    }

    /// [`LabeledDigraph::is_strongly_connected`] with caller-provided
    /// buffers — the allocation-free form of the per-round decision test.
    pub fn is_strongly_connected_with(&self, scratch: &mut scc::SccScratch) -> bool {
        scc::is_strongly_connected_with(self, &self.nodes, scratch)
    }

    /// The label-delta row of `u`: `n` deltas relative to
    /// [`LabeledDigraph::base`], indexed by target, `0` = absent. Read-only
    /// view used by the wire codec (which encodes deltas, not absolute
    /// rounds) and the differential tests.
    #[inline]
    pub fn label_row_deltas(&self, u: ProcessId) -> &[u16] {
        let n = self.n as usize;
        &self.labels[u.index() * n..(u.index() + 1) * n]
    }

    /// Iterates over all labelled edges as `(u, v, label)`, lexicographically.
    pub fn edges(&self) -> impl Iterator<Item = (ProcessId, ProcessId, Round)> + '_ {
        self.nodes.iter().flat_map(move |u| {
            self.out[u.index()]
                .iter()
                .map(move |v| (u, v, self.base + Round::from(self.labels[self.idx(u, v)])))
        })
    }

    /// Number of labelled edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|u| self.out[u.index()].len()).sum()
    }

    /// Forgets labels, producing a plain digraph over the same universe (the
    /// paper's "unweighted version of `G_p`" used in subgraph relations like
    /// Lemma 5/7).
    pub fn to_digraph(&self) -> Digraph {
        let mut g = Digraph::empty(self.universe());
        for (u, v, _) in self.edges() {
            g.add_edge(u, v);
        }
        g
    }

    /// The smallest label currently present, if any edge exists.
    pub fn min_label(&self) -> Option<Round> {
        self.delta_range()
            .map(|(lo, _)| self.base + Round::from(lo))
    }

    /// The largest label currently present, if any edge exists.
    pub fn max_label(&self) -> Option<Round> {
        self.delta_range()
            .map(|(_, hi)| self.base + Round::from(hi))
    }
}

impl Adjacency for LabeledDigraph {
    #[inline]
    fn n(&self) -> usize {
        self.universe()
    }
    #[inline]
    fn out_row(&self, u: ProcessId) -> &ProcessSet {
        &self.out[u.index()]
    }
    #[inline]
    fn in_row(&self, v: ProcessId) -> &ProcessSet {
        &self.inn[v.index()]
    }
}

impl fmt::Display for LabeledDigraph {
    /// Renders as `⟨{p1, p2}, [p2 --3--> p1, …]⟩`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, [", self.nodes)?;
        for (i, (u, v, l)) in self.edges().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u} --{l}--> {v}")?;
        }
        write!(f, "]⟩")
    }
}

impl fmt::Debug for LabeledDigraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::from_usize(i)
    }

    #[test]
    fn reset_state_is_single_node() {
        let g = LabeledDigraph::with_node(4, p(2));
        assert_eq!(g.node_count(), 1);
        assert!(g.contains_node(p(2)));
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_strongly_connected()); // singleton convention
    }

    #[test]
    fn max_combine_keeps_freshest_label() {
        let mut g = LabeledDigraph::new(3);
        assert_eq!(g.set_edge_max(p(0), p(1), 2), 2);
        assert_eq!(g.set_edge_max(p(0), p(1), 5), 5);
        assert_eq!(g.set_edge_max(p(0), p(1), 3), 5);
        assert_eq!(g.label(p(0), p(1)), Some(5));
        assert_eq!(g.edge_count(), 1); // Lemma 3(c): one edge per pair
    }

    #[test]
    fn merge_max_unions_nodes_and_maxes_labels() {
        let mut a = LabeledDigraph::with_node(4, p(0));
        a.set_edge_max(p(1), p(0), 1);
        let mut b = LabeledDigraph::with_node(4, p(3));
        b.set_edge_max(p(1), p(0), 4);
        b.set_edge_max(p(2), p(3), 2);
        a.merge_max(&b);
        assert_eq!(a.label(p(1), p(0)), Some(4));
        assert_eq!(a.label(p(2), p(3)), Some(2));
        assert_eq!(a.nodes(), &ProcessSet::from_indices(4, [0, 1, 2, 3]));
    }

    #[test]
    fn purge_drops_stale_edges_only() {
        let mut g = LabeledDigraph::new(3);
        g.set_edge_max(p(0), p(1), 1);
        g.set_edge_max(p(1), p(2), 2);
        g.set_edge_max(p(2), p(0), 3);
        assert_eq!(g.purge_labels_le(2), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.label(p(2), p(0)), Some(3));
        assert!(!g.has_edge(p(0), p(1)));
        // nodes survive a purge
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn retain_reaching_prunes_non_ancestors() {
        // 1 → 0, 2 → 1 reach 0; 3 is only reachable FROM 0 (0 → 3), and 4 is
        // disconnected: 3 and 4 must be pruned from p0's graph.
        let mut g = LabeledDigraph::new(5);
        g.set_edge_max(p(1), p(0), 1);
        g.set_edge_max(p(2), p(1), 1);
        g.set_edge_max(p(0), p(3), 1);
        g.insert_node(p(4));
        let dropped = g.retain_reaching(p(0));
        assert_eq!(dropped, ProcessSet::from_indices(5, [3, 4]));
        assert_eq!(g.nodes(), &ProcessSet::from_indices(5, [0, 1, 2]));
        assert!(!g.has_edge(p(0), p(3)));
        assert!(g.has_edge(p(2), p(1)));
    }

    #[test]
    fn strong_connectivity_test() {
        let mut g = LabeledDigraph::new(3);
        g.set_edge_max(p(0), p(1), 1);
        g.set_edge_max(p(1), p(2), 1);
        assert!(!g.is_strongly_connected());
        g.set_edge_max(p(2), p(0), 1);
        assert!(g.is_strongly_connected());
        assert!(!LabeledDigraph::new(3).is_strongly_connected()); // empty
    }

    #[test]
    fn to_digraph_preserves_edges() {
        let mut g = LabeledDigraph::new(3);
        g.set_edge_max(p(0), p(1), 7);
        g.set_edge_max(p(1), p(0), 9);
        let d = g.to_digraph();
        assert_eq!(d.edge_count(), 2);
        assert!(d.has_edge(p(0), p(1)));
        assert!(d.has_edge(p(1), p(0)));
    }

    #[test]
    fn min_max_labels() {
        let mut g = LabeledDigraph::new(3);
        assert_eq!(g.min_label(), None);
        g.set_edge_max(p(0), p(1), 4);
        g.set_edge_max(p(1), p(2), 9);
        assert_eq!(g.min_label(), Some(4));
        assert_eq!(g.max_label(), Some(9));
    }

    #[test]
    fn display_mentions_labels() {
        let mut g = LabeledDigraph::new(2);
        g.set_edge_max(p(1), p(0), 3);
        assert_eq!(g.to_string(), "⟨{p1, p2}, [p2 --3--> p1]⟩");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_label_rejected() {
        let mut g = LabeledDigraph::new(2);
        g.set_edge_max(p(0), p(1), 0);
    }

    #[test]
    fn batch_merge_equals_sequential_merge() {
        let mut a = LabeledDigraph::with_node(5, p(0));
        a.set_edge_max(p(1), p(0), 2);
        let mut b = LabeledDigraph::new(5);
        b.set_edge_max(p(1), p(0), 4);
        b.set_edge_max(p(2), p(3), 1);
        let mut c = LabeledDigraph::new(5);
        c.set_edge_max(p(4), p(4), 9);
        c.set_edge_max(p(1), p(0), 3);

        let mut seq = a.clone();
        seq.merge_max(&b);
        seq.merge_max(&c);
        let mut batch = a.clone();
        batch.merge_max_batch(&[&b, &c]);
        assert_eq!(batch, seq);
        assert_eq!(batch.label(p(1), p(0)), Some(4));
    }

    #[test]
    fn batch_merge_of_nothing_is_identity() {
        let mut g = LabeledDigraph::with_node(3, p(1));
        g.set_edge_max(p(0), p(1), 2);
        let before = g.clone();
        g.merge_max_batch(&[]);
        assert_eq!(g, before);
    }

    #[test]
    fn incremental_reset_equals_fresh_graph() {
        // Exercise every mutation path (inserts, merge, purge, retain) and
        // check reset_to_node restores exactly the with_node state — the
        // dirty-row superset must cover every row that ever held a label.
        let mut g = LabeledDigraph::with_node(70, p(0));
        for i in 1..70 {
            g.set_edge_max(p(i), p(i - 1), i as Round);
        }
        let mut other = LabeledDigraph::new(70);
        other.set_edge_max(p(69), p(0), 99);
        g.merge_max(&other);
        g.purge_labels_le(30);
        g.retain_reaching(p(0));
        g.reset_to_node(p(3));
        assert_eq!(g, LabeledDigraph::with_node(70, p(3)));
        assert_eq!(g.edge_count(), 0);
        // and the graph is fully usable after the incremental reset
        g.set_edge_max(p(64), p(3), 5);
        assert_eq!(g.label(p(64), p(3)), Some(5));
    }

    #[test]
    fn labels_far_from_zero_are_representable() {
        // The u16 delta window slides: the first insert anchors the base
        // just below the label, later inserts within the window reuse it.
        let mut g = LabeledDigraph::new(4);
        g.set_edge_max(p(0), p(1), 4_000_000_000);
        assert_eq!(g.base(), 3_999_999_999);
        g.set_edge_max(p(1), p(2), 4_000_000_000 + 60_000);
        assert_eq!(g.label(p(0), p(1)), Some(4_000_000_000));
        assert_eq!(g.label(p(1), p(2)), Some(4_000_060_000));
        // An older-but-in-window label widens downwards via rebase.
        g.set_edge_max(p(2), p(3), 3_999_999_500);
        assert_eq!(g.base(), 3_999_999_499);
        assert_eq!(g.label(p(0), p(1)), Some(4_000_000_000));
        assert_eq!(g.label(p(1), p(2)), Some(4_000_060_000));
        assert_eq!(g.min_label(), Some(3_999_999_500));
        assert_eq!(g.max_label(), Some(4_000_060_000));
    }

    #[test]
    #[should_panic(expected = "exceeds the u16 delta window")]
    fn label_spread_beyond_window_rejected() {
        let mut g = LabeledDigraph::new(2);
        g.set_edge_max(p(0), p(1), 1);
        g.set_edge_max(p(1), p(0), 1 + MAX_DELTA + 1);
    }

    #[test]
    fn rebase_preserves_labels_and_equality() {
        let mut g = LabeledDigraph::new(5);
        g.set_edge_max(p(0), p(1), 100);
        g.set_edge_max(p(1), p(2), 140);
        g.set_edge_max(p(4), p(0), 101);
        let reference = g.clone();
        for new_base in [99, 50, 0, 99, 42] {
            g.rebase(new_base);
            assert_eq!(g.base(), new_base);
            assert_eq!(g, reference, "base {new_base}");
            assert_eq!(g.label(p(1), p(2)), Some(140));
            assert_eq!(g.min_label(), Some(100));
        }
    }

    #[test]
    #[should_panic(expected = "strand label")]
    fn rebase_above_live_label_rejected() {
        let mut g = LabeledDigraph::new(2);
        g.set_edge_max(p(0), p(1), 10);
        g.rebase(10);
    }

    #[test]
    fn merge_across_bases_translates_deltas() {
        // Same logical labels, three different windows: merging must agree
        // with the same merge done in a single window.
        let mut a = LabeledDigraph::new(4);
        a.set_edge_max(p(0), p(1), 1000);
        a.rebase(900);
        let mut b = LabeledDigraph::new(4);
        b.set_edge_max(p(0), p(1), 1005); // fresher, different base
        b.set_edge_max(p(2), p(3), 980);
        b.rebase(950);
        let mut c = LabeledDigraph::new(4);
        c.set_edge_max(p(2), p(3), 960);
        // pairwise
        let mut m = a.clone();
        m.merge_max(&b);
        assert_eq!(m.label(p(0), p(1)), Some(1005));
        assert_eq!(m.label(p(2), p(3)), Some(980));
        // batched, mixed bases
        let mut m2 = a.clone();
        m2.merge_max_batch(&[&b, &c]);
        assert_eq!(m2, m);
        assert_eq!(m2.label(p(2), p(3)), Some(980));
    }

    #[test]
    fn merge_rebases_accumulator_when_operand_is_below_window() {
        let mut acc = LabeledDigraph::new(3);
        acc.set_edge_max(p(0), p(1), 70_000); // base 69_999
        let mut old = LabeledDigraph::new(3);
        old.set_edge_max(p(1), p(2), 20_000); // below acc's window
        acc.merge_max(&old);
        assert_eq!(acc.label(p(0), p(1)), Some(70_000));
        assert_eq!(acc.label(p(1), p(2)), Some(20_000));
        assert!(acc.base() < 20_000);
    }

    #[test]
    fn purge_translates_cutoff_through_base() {
        let mut g = LabeledDigraph::new(3);
        g.set_edge_max(p(0), p(1), 100_000);
        g.set_edge_max(p(1), p(2), 100_010);
        assert_eq!(g.purge_labels_le(50), 0); // cutoff below the base
        assert_eq!(g.purge_labels_le(100_000), 1);
        assert_eq!(g.label(p(1), p(2)), Some(100_010));
        assert_eq!(g.purge_labels_le(u32::MAX), 1); // clamped above window
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn reset_preserves_base() {
        let mut g = LabeledDigraph::new(3);
        g.set_edge_max(p(0), p(1), 90_000);
        let base = g.base();
        g.reset_to_node(p(2));
        assert_eq!(g.base(), base);
        assert_eq!(g, LabeledDigraph::with_node(3, p(2))); // base-insensitive
        g.rebase(7); // O(1) on the empty graph
        assert_eq!(g.base(), 7);
    }

    #[test]
    #[should_panic(expected = "u16 label-delta window")]
    fn oversized_universe_rejected() {
        let _ = LabeledDigraph::new(u16::MAX as usize - 1);
    }

    #[test]
    fn equality_ignores_dirty_row_history() {
        // Same logical graph, different mutation history: one graph wrote a
        // row and purged it again, the other never touched it.
        let mut a = LabeledDigraph::new(4);
        a.set_edge_max(p(0), p(1), 5);
        a.set_edge_max(p(2), p(3), 1);
        a.purge_labels_le(1); // row 2 now empty but still marked dirty
        let mut b = LabeledDigraph::new(4);
        b.set_edge_max(p(0), p(1), 5);
        b.insert_node(p(2));
        b.insert_node(p(3));
        assert_eq!(a, b);
    }
}
