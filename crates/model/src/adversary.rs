//! Seedable message adversaries: hostile, lazily-streamed communication
//! schedules.
//!
//! The paper's guarantees are quantified over a *message adversary*: any
//! infinite sequence of per-round directed communication graphs, not just
//! the fixed/tabulated shapes of [`crate::schedule::FixedSchedule`] and
//! [`crate::schedule::TableSchedule`]. This module provides parameterized
//! adversary *families* — each a [`Schedule`] whose `graph(r)` is a pure
//! function of `(seed, r)`, so arbitrarily long hostile runs stream lazily
//! with no stored tables and reproduce exactly from a single `u64` seed:
//!
//! * [`StableRootAdversary`] — vertex-stable root components (parameterized
//!   by root count/size and the stabilization round) drowned in transient
//!   noise before *and* after stabilization;
//! * [`RotatingRootAdversary`] — the worst-case prefix: every round of a
//!   hostile window has a *different* root component (a rotating broadcast
//!   star), delaying stabilization exactly the way the paper's lower-bound
//!   arguments do;
//! * [`CrashOverlay`] — clean crash faults in the Heard-Of convention
//!   (§II), composable over **any** base schedule;
//! * [`HealedPartitionAdversary`] — transient partition episodes that heal
//!   into a fully synchronous stable tail (the perpetual-`PT` semantics
//!   still charge every episode against the skeleton forever);
//! * [`ChurnAdversary`] — bounded-change graph sequences: at most
//!   `⌈candidates / period⌉` edges flip between consecutive rounds;
//! * [`LowerBoundAdversary`] — a seeded generalization of the Theorem-2
//!   run: `Psrcs(k)` holds, yet any correct algorithm is forced into
//!   exactly `k` decision values — and a naive fixed-horizon flooder is
//!   forced *beyond* `k` (the conformance suite demonstrates both).
//!
//! ## Vertex-stable root components, and why recurring noise is safe
//!
//! After its stabilization round, [`StableRootAdversary`] (and
//! [`ChurnAdversary`]) never rains noise onto the *in*-edges of root
//! members — so every post-stabilization round graph has **exactly the
//! skeleton's root cliques as its root components**: the vertex-stable
//! root components the paper's analysis revolves around. Noise anywhere
//! else may recur forever without endangering the Lemma-11 bound, because
//! `PT_p` is a running intersection: the first round a transient sender
//! `q` goes silent evicts `q` from `PT_p` permanently, and Algorithm 1
//! consumes *only* `PT_p ∩ HO(p, r)` — later recurrences of the same edge
//! are delivered but inert (they count in `MsgStats` and nothing else).
//! The conformance suite pins this with an adversary that rotates a
//! broadcast star **forever**: every `PT` collapses to a singleton, each
//! approximation shrinks to `⟨{p}, ∅⟩`, and all processes still decide
//! (their own values) within the bound.
//!
//! All families are validated by [`crate::schedule::validate`] and compose:
//! `CrashOverlay::seeded(HealedPartitionAdversary::sample(..), ..)` is a
//! crash ∘ partition ∘ stable-tail adversary.

use sskel_graph::{Digraph, ProcessId, ProcessSet, Round, FIRST_ROUND};

use crate::schedule::Schedule;

/// SplitMix64 — the deterministic mixer every family derives per-edge /
/// per-round decisions from, so `graph(r)` is a pure function of
/// `(seed, r)`. Shared with the fault plane (`crate::fault`), whose
/// corruption decisions are pure functions of the same shape.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash of an (edge, round) tuple under a seed.
pub(crate) fn edge_round_hash(seed: u64, u: usize, v: usize, r: u32) -> u64 {
    splitmix64(seed ^ splitmix64(u as u64 ^ splitmix64((v as u64) << 20 ^ ((r as u64) << 40))))
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn seeded_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = splitmix64(seed ^ 0x9d5c_a11e);
    for i in (1..n).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A seeded skeleton with `root_count` disjoint root cliques of
/// `root_size` members each; every process outside the cliques (a
/// *follower*) hears one whole clique perpetually. Returns
/// `(skeleton, root blocks, union of all root members)`.
///
/// `min_k` of such a skeleton is exactly `root_count`: two processes
/// attached to the same clique share its members as common perpetual
/// sources, while processes of different cliques share none.
fn rooted_skeleton(
    n: usize,
    root_count: usize,
    root_size: usize,
    seed: u64,
) -> (Digraph, Vec<ProcessSet>, ProcessSet) {
    assert!(root_count >= 1, "need at least one root component");
    assert!(root_size >= 1, "root components cannot be empty");
    assert!(
        root_count * root_size <= n,
        "{root_count} roots of size {root_size} exceed the universe {n}"
    );
    let perm = seeded_permutation(n, seed);
    let mut skeleton = Digraph::empty(n);
    skeleton.add_self_loops();
    let mut roots = Vec::with_capacity(root_count);
    let mut members = ProcessSet::empty(n);
    for b in 0..root_count {
        let block =
            ProcessSet::from_indices(n, perm[b * root_size..(b + 1) * root_size].iter().copied());
        for u in block.iter() {
            for v in block.iter() {
                skeleton.add_edge(u, v);
            }
        }
        members.union_with(&block);
        roots.push(block);
    }
    for &f in &perm[root_count * root_size..] {
        let assigned = &roots[edge_round_hash(seed, f, 0, 0) as usize % root_count];
        for w in assigned.iter() {
            skeleton.add_edge(w, ProcessId::from_usize(f));
        }
    }
    (skeleton, roots, members)
}

/// A vertex-stable root-component adversary: the stable skeleton has
/// `root_count` root cliques of `root_size` processes, every follower
/// hears one clique perpetually, and everything else is transient noise.
///
/// * rounds `1..=rST` (the hostile prefix): noise may appear **anywhere**
///   — including into root members — but each noise edge is forced out at
///   least once before `rST`, so the declared skeleton materializes on
///   schedule;
/// * rounds `> rST`: noise keeps raining on followers forever (the
///   adversary never goes quiet), but spares edges into root members, so
///   the root cliques are the root components of **every**
///   post-stabilization round graph — vertex-stable in the strongest
///   sense (see the module docs).
#[derive(Clone, Debug)]
pub struct StableRootAdversary {
    skeleton: Digraph,
    roots: Vec<ProcessSet>,
    root_members: ProcessSet,
    r_st: Round,
    noise_milli: u32,
    seed: u64,
}

impl StableRootAdversary {
    /// A universe of `n` processes with `root_count` root cliques of
    /// `root_size` members, stabilizing at round `r_st ≥ 1`, with noise
    /// density `noise_milli / 1000` per non-skeleton edge per round.
    ///
    /// # Panics
    /// Panics if the cliques do not fit the universe, `r_st < 1`, or
    /// `noise_milli > 1000`.
    pub fn new(
        n: usize,
        root_count: usize,
        root_size: usize,
        r_st: Round,
        noise_milli: u32,
        seed: u64,
    ) -> Self {
        assert!(r_st >= FIRST_ROUND, "stabilization round must be ≥ 1");
        assert!(noise_milli <= 1000, "noise probability out of [0, 1]");
        let (skeleton, roots, root_members) = rooted_skeleton(n, root_count, root_size, seed);
        StableRootAdversary {
            skeleton,
            roots,
            root_members,
            r_st,
            noise_milli,
            seed,
        }
    }

    /// A representative hostile instance for universe `n`, with every
    /// remaining parameter derived from `seed`.
    pub fn sample(n: usize, seed: u64) -> Self {
        let h = splitmix64(seed);
        let root_count = 1 + (h % 3) as usize % n.max(1);
        let root_count = root_count.min(n);
        let root_size = (1 + (splitmix64(h) % 3) as usize)
            .min(n / root_count.max(1))
            .max(1);
        let r_st = 1 + (splitmix64(h ^ 1) % (2 * n as u64 + 2)) as Round;
        let noise = 100 + (splitmix64(h ^ 2) % 300) as u32;
        StableRootAdversary::new(n, root_count, root_size, r_st, noise, seed)
    }

    /// The root blocks (each a clique of the skeleton).
    pub fn roots(&self) -> &[ProcessSet] {
        &self.roots
    }
}

impl Schedule for StableRootAdversary {
    fn n(&self) -> usize {
        self.skeleton.n()
    }

    fn graph(&self, r: Round) -> Digraph {
        assert!(r >= FIRST_ROUND, "rounds are 1-based");
        let n = self.skeleton.n();
        let mut g = self.skeleton.clone();
        if self.noise_milli == 0 {
            return g;
        }
        for u in 0..n {
            for v in 0..n {
                let (up, vp) = (ProcessId::from_usize(u), ProcessId::from_usize(v));
                if u == v || g.has_edge(up, vp) {
                    continue;
                }
                if r <= self.r_st {
                    // Hostile prefix: anything goes, but the edge is forced
                    // out once so the skeleton materializes by rST.
                    let forced =
                        1 + (edge_round_hash(self.seed, u, v, 0) % u64::from(self.r_st)) as Round;
                    if r == forced {
                        continue;
                    }
                } else if self.root_members.contains(vp) {
                    // Post-stabilization noise spares root members'
                    // in-edges, keeping every round graph's root
                    // components vertex-stable (module docs).
                    continue;
                }
                if edge_round_hash(self.seed, u, v, r) % 1000 < u64::from(self.noise_milli) {
                    g.add_edge(up, vp);
                }
            }
        }
        g
    }

    fn stabilization_round(&self) -> Round {
        self.r_st
    }

    fn stable_skeleton(&self) -> Digraph {
        self.skeleton.clone()
    }
}

/// The worst-case prefix adversary: during rounds `1..=rot_rounds` the
/// round graph is the stable skeleton **plus a broadcast star** from a
/// rotating pivot — so every prefix round has a *different* root
/// component, and the intersection only settles once the rotation stops.
///
/// The stable skeleton itself is a seeded partition of the universe into
/// `blocks` disjoint cliques (`min_k` = `blocks`). The stars are pure
/// transients: each pivot's star is absent in every round another pivot
/// (or the quiet tail) owns, so the skeleton materializes at
/// `rST = rot_rounds + 1` and the tail streams the skeleton verbatim
/// forever.
#[derive(Clone, Debug)]
pub struct RotatingRootAdversary {
    skeleton: Digraph,
    /// `starred[i]` = skeleton ∪ broadcast star from `rotors[i]`,
    /// precomputed once so the per-round synthesis is a plain copy
    /// instead of `n` edge insertions per call (the engines call
    /// [`Schedule::graph_into`] every round for every process).
    starred: Vec<Digraph>,
    rotors: Vec<ProcessId>,
    rot_rounds: Round,
}

impl RotatingRootAdversary {
    /// `n` processes in `blocks` disjoint cliques; `rotor_count` seeded
    /// pivots take turns broadcasting to the whole universe for
    /// `rot_rounds` rounds, then the system runs its skeleton forever.
    ///
    /// # Panics
    /// Panics unless `1 ≤ blocks ≤ n` and `1 ≤ rotor_count ≤ n`.
    pub fn new(n: usize, blocks: usize, rotor_count: usize, rot_rounds: Round, seed: u64) -> Self {
        assert!((1..=n).contains(&blocks), "need 1 ≤ blocks ≤ n");
        assert!((1..=n).contains(&rotor_count), "need 1 ≤ rotor_count ≤ n");
        let perm = seeded_permutation(n, seed);
        let mut skeleton = Digraph::empty(n);
        skeleton.add_self_loops();
        // near-even contiguous chunks of the permutation become cliques
        let base = n / blocks;
        let extra = n % blocks;
        let mut start = 0usize;
        for b in 0..blocks {
            let size = base + usize::from(b < extra);
            let members = &perm[start..start + size];
            for &u in members {
                for &v in members {
                    skeleton.add_edge(ProcessId::from_usize(u), ProcessId::from_usize(v));
                }
            }
            start += size;
        }
        let rotors: Vec<ProcessId> = seeded_permutation(n, splitmix64(seed ^ 0x0107))
            [..rotor_count]
            .iter()
            .map(|&i| ProcessId::from_usize(i))
            .collect();
        let starred = rotors
            .iter()
            .map(|&p| {
                let mut g = skeleton.clone();
                for v in ProcessId::all(n) {
                    g.add_edge(p, v);
                }
                g
            })
            .collect();
        RotatingRootAdversary {
            skeleton,
            starred,
            rotors,
            rot_rounds,
        }
    }

    /// A representative instance for universe `n`, parameters derived from
    /// `seed`.
    pub fn sample(n: usize, seed: u64) -> Self {
        let h = splitmix64(seed ^ 0x2074);
        let blocks = (1 + (h % 3) as usize).min(n);
        let rotors = (1 + (splitmix64(h) % 3) as usize).min(n);
        let rot = (splitmix64(h ^ 1) % (3 * n as u64 + 2)) as Round;
        RotatingRootAdversary::new(n, blocks, rotors, rot, seed)
    }

    /// The pivot broadcasting in round `r`, if the rotation is still
    /// running.
    pub fn pivot(&self, r: Round) -> Option<ProcessId> {
        (r <= self.rot_rounds).then(|| self.rotors[(r - 1) as usize % self.rotors.len()])
    }
}

impl Schedule for RotatingRootAdversary {
    fn n(&self) -> usize {
        self.skeleton.n()
    }

    fn graph(&self, r: Round) -> Digraph {
        assert!(r >= FIRST_ROUND, "rounds are 1-based");
        match self.pivot(r) {
            Some(_) => self.starred[((r - 1) as usize) % self.rotors.len()].clone(),
            None => self.skeleton.clone(),
        }
    }

    fn graph_into(&self, r: Round, out: &mut Digraph) {
        assert!(r >= FIRST_ROUND, "rounds are 1-based");
        let g = match self.pivot(r) {
            Some(_) => &self.starred[((r - 1) as usize) % self.rotors.len()],
            None => &self.skeleton,
        };
        out.clone_from(g);
    }

    fn stabilization_round(&self) -> Round {
        // Every star edge is absent in the first round owned by a
        // different pivot (or in the quiet tail round rot_rounds + 1).
        if self.rot_rounds == 0 {
            FIRST_ROUND
        } else {
            self.rot_rounds + 1
        }
    }

    fn stable_skeleton(&self) -> Digraph {
        self.skeleton.clone()
    }
}

/// Clean crash faults over **any** base schedule, in the paper's Heard-Of
/// convention (§II): a process crashed at round `r_c` is internally
/// correct and keeps *receiving*, but nobody hears from it from round
/// `r_c + 1` on — its outgoing edges (except the self-loop) are erased
/// from every subsequent round graph.
///
/// This is the composition layer: `CrashOverlay::seeded(base, ..)` turns
/// any adversary of this module into its crashy variant, e.g.
/// crash ∘ partition ∘ stable-tail.
#[derive(Clone, Debug)]
pub struct CrashOverlay<S> {
    base: S,
    /// `(process, last round in which its broadcasts are delivered)`.
    crashes: Vec<(ProcessId, Round)>,
}

impl<S: Schedule> CrashOverlay<S> {
    /// Overlays explicit crashes on `base`.
    ///
    /// # Panics
    /// Panics on duplicate crash entries or out-of-range processes.
    pub fn new(base: S, crashes: Vec<(ProcessId, Round)>) -> Self {
        let n = base.n();
        for (i, (p, _)) in crashes.iter().enumerate() {
            assert!(p.index() < n, "crashed process {p} out of universe");
            assert!(
                crashes[i + 1..].iter().all(|(q, _)| q != p),
                "duplicate crash entry for {p}"
            );
        }
        CrashOverlay { base, crashes }
    }

    /// Crashes `f` seeded-chosen distinct processes at seeded rounds no
    /// later than `base.stabilization_round() + n` (so the crashes, like
    /// any finite fault pattern, are folded into the declared
    /// stabilization round).
    ///
    /// # Panics
    /// Panics if `f > n`.
    pub fn seeded(base: S, f: usize, seed: u64) -> Self {
        let n = base.n();
        assert!(f <= n, "cannot crash {f} of {n} processes");
        let horizon = u64::from(base.stabilization_round()) + n as u64;
        let perm = seeded_permutation(n, splitmix64(seed ^ 0xc7a5));
        let crashes = perm[..f]
            .iter()
            .map(|&i| {
                let rc = 1 + (edge_round_hash(seed, i, 1, 1) % horizon) as Round;
                (ProcessId::from_usize(i), rc)
            })
            .collect();
        CrashOverlay::new(base, crashes)
    }

    /// The wrapped base schedule.
    pub fn base(&self) -> &S {
        &self.base
    }

    /// The set of processes that eventually crash.
    pub fn faulty(&self) -> ProcessSet {
        ProcessSet::from_iter_n(self.base.n(), self.crashes.iter().map(|&(p, _)| p))
    }

    /// Number of faulty processes `f`.
    pub fn f(&self) -> usize {
        self.crashes.len()
    }

    fn silence(&self, g: &mut Digraph, r: Round) {
        for &(p, rc) in &self.crashes {
            if r > rc {
                for v in ProcessId::all(g.n()) {
                    if v != p {
                        g.remove_edge(p, v);
                    }
                }
            }
        }
    }
}

impl<S: Schedule> Schedule for CrashOverlay<S> {
    fn n(&self) -> usize {
        self.base.n()
    }

    fn graph(&self, r: Round) -> Digraph {
        let mut g = self.base.graph(r);
        self.silence(&mut g, r);
        g
    }

    fn graph_into(&self, r: Round, out: &mut Digraph) {
        self.base.graph_into(r, out);
        self.silence(out, r);
    }

    fn stabilization_round(&self) -> Round {
        self.crashes
            .iter()
            .map(|&(_, rc)| rc + 1)
            .max()
            .unwrap_or(FIRST_ROUND)
            .max(self.base.stabilization_round())
    }

    fn stable_skeleton(&self) -> Digraph {
        let mut skel = self.base.stable_skeleton();
        for &(p, _) in &self.crashes {
            for v in ProcessId::all(skel.n()) {
                if v != p {
                    skel.remove_edge(p, v);
                }
            }
        }
        skel
    }
}

/// Crash/restart faults layered over any base schedule: each listed
/// process is **down** for a finite window of rounds `[kill, restart)` —
/// it neither sends to nor hears from anyone else (both edge directions
/// are erased; the mandatory self-loop stays) — and runs normally before
/// and after. It is the schedule of the recovery drill in
/// [`crate::engine::run_lockstep_recovering`], which journals the run and,
/// when a window ends, discards the process's state and rebuilds it from
/// the journal: the last snapshot before `kill`, plus the round records
/// since, replayed along this overlay's graphs. The overlay says what the
/// outage looks like on the wire, both to the other processes and to the
/// down process itself.
///
/// Because the skeleton is a running intersection, a non-empty window
/// removes the process's external edges from `G∩∞` forever — a restarted
/// process is "faulty" in the paper's counting even though it is correct
/// again from `restart` on.
#[derive(Clone, Debug)]
pub struct CrashRestartOverlay<S> {
    base: S,
    /// `(process, kill round, restart round)`: down during
    /// `kill..restart`, at most one window per process.
    windows: Vec<(ProcessId, Round, Round)>,
}

impl<S: Schedule> CrashRestartOverlay<S> {
    /// Overlays explicit down windows on `base`.
    ///
    /// # Panics
    /// Panics on duplicate entries, out-of-range processes, windows
    /// starting before [`FIRST_ROUND`], or `restart < kill`.
    pub fn new(base: S, windows: Vec<(ProcessId, Round, Round)>) -> Self {
        let n = base.n();
        for (i, &(p, kill, restart)) in windows.iter().enumerate() {
            assert!(p.index() < n, "restarted process {p} out of universe");
            assert!(
                kill >= FIRST_ROUND,
                "down window of {p} starts before round 1"
            );
            assert!(restart >= kill, "down window of {p} ends before it starts");
            assert!(
                windows[i + 1..].iter().all(|&(q, _, _)| q != p),
                "duplicate down window for {p}"
            );
        }
        CrashRestartOverlay { base, windows }
    }

    /// Kills `f` seeded-chosen distinct processes at seeded rounds no
    /// later than `base.stabilization_round() + n`, each down for a
    /// seeded `1..=n`-round window (so, like every finite fault pattern,
    /// the outages are folded into the declared stabilization round).
    ///
    /// # Panics
    /// Panics if `f > n`.
    pub fn seeded(base: S, f: usize, seed: u64) -> Self {
        let n = base.n();
        assert!(f <= n, "cannot restart {f} of {n} processes");
        let horizon = u64::from(base.stabilization_round()) + n as u64;
        let perm = seeded_permutation(n, splitmix64(seed ^ 0x9e3b));
        let windows = perm[..f]
            .iter()
            .map(|&i| {
                let kill = 1 + (edge_round_hash(seed, i, 2, 1) % horizon) as Round;
                let down = 1 + (edge_round_hash(seed, i, 3, 1) % n as u64) as Round;
                (ProcessId::from_usize(i), kill, kill + down)
            })
            .collect();
        CrashRestartOverlay::new(base, windows)
    }

    /// The wrapped base schedule.
    pub fn base(&self) -> &S {
        &self.base
    }

    /// The down windows, one `(process, kill, restart)` triple each.
    pub fn windows(&self) -> &[(ProcessId, Round, Round)] {
        &self.windows
    }

    /// The set of processes that are down at some point.
    pub fn faulty(&self) -> ProcessSet {
        ProcessSet::from_iter_n(self.base.n(), self.windows.iter().map(|&(p, _, _)| p))
    }

    fn silence(&self, g: &mut Digraph, r: Round) {
        for &(p, kill, restart) in &self.windows {
            if r >= kill && r < restart {
                for v in ProcessId::all(g.n()) {
                    if v != p {
                        g.remove_edge(p, v);
                        g.remove_edge(v, p);
                    }
                }
            }
        }
    }
}

impl<S: Schedule> Schedule for CrashRestartOverlay<S> {
    fn n(&self) -> usize {
        self.base.n()
    }

    fn graph(&self, r: Round) -> Digraph {
        let mut g = self.base.graph(r);
        self.silence(&mut g, r);
        g
    }

    fn graph_into(&self, r: Round, out: &mut Digraph) {
        self.base.graph_into(r, out);
        self.silence(out, r);
    }

    fn stabilization_round(&self) -> Round {
        // By `restart` the window has stopped carving edges out of the
        // running intersection, so the later of the restarts and the
        // base's own stabilization is sound.
        self.windows
            .iter()
            .map(|&(_, _, restart)| restart)
            .max()
            .unwrap_or(FIRST_ROUND)
            .max(self.base.stabilization_round())
    }

    fn stable_skeleton(&self) -> Digraph {
        let mut skel = self.base.stable_skeleton();
        for &(p, kill, restart) in &self.windows {
            if kill < restart {
                for v in ProcessId::all(skel.n()) {
                    if v != p {
                        skel.remove_edge(p, v);
                        skel.remove_edge(v, p);
                    }
                }
            }
        }
        skel
    }
}

/// One transient partition episode: during rounds `start..=end` the
/// universe splits into the given disjoint blocks (cliques); edges inside
/// a block are untouched, edges across blocks are cut.
#[derive(Clone, Debug)]
pub struct PartitionEpisode {
    /// First partitioned round.
    pub start: Round,
    /// Last partitioned round (inclusive; `end ≥ start`).
    pub end: Round,
    /// The blocks, a disjoint cover of the universe.
    pub blocks: Vec<ProcessSet>,
}

/// Transient partitions that heal: outside the episodes the system is
/// fully synchronous, during an episode it splits into cliques. Because
/// `PT(·)` is perpetual, **every** episode is charged against the stable
/// skeleton forever: the skeleton is the common refinement of all episode
/// partitions (so `min_k` = the refined block count), even though the live
/// graph has long healed back to complete.
#[derive(Clone, Debug)]
pub struct HealedPartitionAdversary {
    n: usize,
    episodes: Vec<PartitionEpisode>,
    skeleton: Digraph,
}

impl HealedPartitionAdversary {
    /// A system of `n` processes going through the given episodes
    /// (overlapping episodes constrain a round jointly).
    ///
    /// # Panics
    /// Panics if an episode's blocks do not partition the universe or its
    /// rounds are inverted.
    pub fn new(n: usize, episodes: Vec<PartitionEpisode>) -> Self {
        let mut skeleton = Digraph::complete(n);
        for (ei, ep) in episodes.iter().enumerate() {
            assert!(
                ep.start >= FIRST_ROUND && ep.start <= ep.end,
                "episode {ei}: invalid round range {}..={}",
                ep.start,
                ep.end
            );
            let mut seen = ProcessSet::empty(n);
            for b in &ep.blocks {
                assert_eq!(b.universe(), n, "episode {ei}: block universe mismatch");
                assert!(!b.is_empty(), "episode {ei}: empty partition block");
                assert!(seen.is_disjoint(b), "episode {ei}: overlapping blocks");
                seen.union_with(b);
            }
            assert_eq!(
                seen,
                ProcessSet::full(n),
                "episode {ei}: blocks must cover the universe"
            );
            skeleton.intersect_with(&Self::block_graph(n, &ep.blocks));
        }
        HealedPartitionAdversary {
            n,
            episodes,
            skeleton,
        }
    }

    /// `episode_count` seeded episodes of length `≤ max_len` each, with
    /// seeded block structures (2–4 blocks) and short healed gaps between
    /// them.
    pub fn seeded(n: usize, episode_count: usize, max_len: Round, seed: u64) -> Self {
        assert!(max_len >= 1, "episodes need at least one round");
        let mut episodes = Vec::with_capacity(episode_count);
        let mut next_start = FIRST_ROUND;
        for e in 0..episode_count {
            let h = splitmix64(seed ^ (e as u64) << 8);
            let gap = (h % 3) as Round;
            let len = 1 + (splitmix64(h) % u64::from(max_len)) as Round;
            let start = next_start + gap;
            let blocks = Self::seeded_blocks(n, (2 + (splitmix64(h ^ 1) % 3) as usize).min(n), h);
            episodes.push(PartitionEpisode {
                start,
                end: start + len - 1,
                blocks,
            });
            next_start = start + len;
        }
        HealedPartitionAdversary::new(n, episodes)
    }

    /// A representative instance for universe `n`.
    pub fn sample(n: usize, seed: u64) -> Self {
        let h = splitmix64(seed ^ 0x9ea1);
        HealedPartitionAdversary::seeded(
            n,
            1 + (h % 3) as usize,
            1 + (splitmix64(h) % (n as u64 + 1)) as Round,
            seed,
        )
    }

    fn seeded_blocks(n: usize, count: usize, seed: u64) -> Vec<ProcessSet> {
        let perm = seeded_permutation(n, seed);
        let base = n / count;
        let extra = n % count;
        let mut blocks = Vec::with_capacity(count);
        let mut start = 0usize;
        for b in 0..count {
            let size = base + usize::from(b < extra);
            blocks.push(ProcessSet::from_indices(
                n,
                perm[start..start + size].iter().copied(),
            ));
            start += size;
        }
        blocks
    }

    fn block_graph(n: usize, blocks: &[ProcessSet]) -> Digraph {
        let mut g = Digraph::empty(n);
        g.add_self_loops();
        for b in blocks {
            for u in b.iter() {
                for v in b.iter() {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// The partition episodes.
    pub fn episodes(&self) -> &[PartitionEpisode] {
        &self.episodes
    }
}

impl Schedule for HealedPartitionAdversary {
    fn n(&self) -> usize {
        self.n
    }

    fn graph(&self, r: Round) -> Digraph {
        assert!(r >= FIRST_ROUND, "rounds are 1-based");
        let mut g = Digraph::complete(self.n);
        for ep in &self.episodes {
            if (ep.start..=ep.end).contains(&r) {
                g.intersect_with(&Self::block_graph(self.n, &ep.blocks));
            }
        }
        g
    }

    fn stabilization_round(&self) -> Round {
        self.episodes
            .iter()
            .map(|ep| ep.end + 1)
            .max()
            .unwrap_or(FIRST_ROUND)
    }

    fn stable_skeleton(&self) -> Digraph {
        self.skeleton.clone()
    }
}

/// A bounded-change (churn) adversary: the graph sequence starts at
/// exactly the stable skeleton and then mutates **at most
/// `⌈candidates / period⌉` edges per round** — each candidate noise edge
/// reconsiders its presence only in rounds congruent to its phase
/// (mod `period`), flipping a seeded coin per epoch.
///
/// The skeleton has the same rooted structure as
/// [`StableRootAdversary`]'s (root cliques +
/// perpetually-attached followers); candidate churn edges never point into
/// a root member, keeping every round graph's root components
/// vertex-stable (module docs). Because every candidate starts absent,
/// round 1 *is* the skeleton and `rST = 1` — churn never delays
/// stabilization, it just never stops.
#[derive(Clone, Debug)]
pub struct ChurnAdversary {
    skeleton: Digraph,
    /// Candidate edges, in a fixed enumeration order (phase = index mod
    /// period). Root members' in-edges were already excluded when the
    /// candidate set was enumerated.
    candidates: Vec<(ProcessId, ProcessId)>,
    period: Round,
    seed: u64,
}

impl ChurnAdversary {
    /// `n` processes with `root_count` root cliques of `root_size`; a
    /// `density_milli / 1000` fraction of the remaining edges (excluding
    /// edges into root members) churns with reconsideration period
    /// `period ≥ 2`.
    ///
    /// # Panics
    /// Panics if the cliques do not fit, `period < 2`, or
    /// `density_milli > 1000`.
    pub fn new(
        n: usize,
        root_count: usize,
        root_size: usize,
        period: Round,
        density_milli: u32,
        seed: u64,
    ) -> Self {
        assert!(period >= 2, "churn period must be ≥ 2");
        assert!(density_milli <= 1000, "candidate density out of [0, 1]");
        let (skeleton, _, root_members) = rooted_skeleton(n, root_count, root_size, seed);
        let mut candidates = Vec::new();
        for u in 0..n {
            for v in 0..n {
                let (up, vp) = (ProcessId::from_usize(u), ProcessId::from_usize(v));
                if u == v || skeleton.has_edge(up, vp) || root_members.contains(vp) {
                    continue;
                }
                if edge_round_hash(seed, u, v, 0) % 1000 < u64::from(density_milli) {
                    candidates.push((up, vp));
                }
            }
        }
        ChurnAdversary {
            skeleton,
            candidates,
            period,
            seed,
        }
    }

    /// A representative instance for universe `n`.
    pub fn sample(n: usize, seed: u64) -> Self {
        let h = splitmix64(seed ^ 0xc4a5);
        let root_count = (1 + (h % 2) as usize).min(n);
        let root_size = (1 + (splitmix64(h) % 2) as usize)
            .min(n / root_count)
            .max(1);
        ChurnAdversary::new(
            n,
            root_count,
            root_size,
            2 + (splitmix64(h ^ 1) % 5) as Round,
            300 + (splitmix64(h ^ 2) % 400) as u32,
            seed,
        )
    }

    /// The maximum number of edges that can differ between consecutive
    /// round graphs.
    pub fn change_bound(&self) -> usize {
        self.candidates.len().div_ceil(self.period as usize)
    }

    /// Whether candidate `idx` is present in round `r`: its phase decides
    /// in which rounds it may flip, a per-epoch coin decides the state.
    fn live(&self, idx: usize, r: Round) -> bool {
        // Candidate idx flips only at rounds r ≡ 2 + (idx mod period)
        // (mod period); before its first flip round it is absent.
        let phase = 2 + (idx as Round % self.period);
        if r < phase {
            return false;
        }
        let epoch = (r - phase) / self.period;
        splitmix64(self.seed ^ ((idx as u64) << 24) ^ u64::from(epoch)) & 1 == 1
    }
}

impl Schedule for ChurnAdversary {
    fn n(&self) -> usize {
        self.skeleton.n()
    }

    fn graph(&self, r: Round) -> Digraph {
        assert!(r >= FIRST_ROUND, "rounds are 1-based");
        let mut g = self.skeleton.clone();
        for (idx, &(u, v)) in self.candidates.iter().enumerate() {
            if self.live(idx, r) {
                g.add_edge(u, v);
            }
        }
        g
    }

    fn stabilization_round(&self) -> Round {
        FIRST_ROUND // round 1 is exactly the skeleton; churn only adds transients
    }

    fn stable_skeleton(&self) -> Digraph {
        self.skeleton.clone()
    }
}

/// A seeded generalization of the paper's Theorem-2 lower-bound run: a
/// seeded set `L` of `k − 1` processes hears only itself, a seeded source
/// `s` is heard perpetually by every process outside `L`, and every round
/// graph equals the skeleton. `Psrcs(k)` holds (`min_k = k`), yet the
/// members of `L ∪ {s}` can never learn another value — with pairwise
/// distinct inputs *any* correct algorithm emits exactly `k` values, and a
/// naive fixed-horizon flooder (no skeleton reasoning) emits **more** than
/// `k` whenever two followers propose distinct values below `s`'s (see
/// `tests/conformance.rs`).
#[derive(Clone, Debug)]
pub struct LowerBoundAdversary {
    n: usize,
    k: usize,
    l_set: ProcessSet,
    source: ProcessId,
    skeleton: Digraph,
}

impl LowerBoundAdversary {
    /// The seeded Theorem-2 run for `1 < k < n`.
    ///
    /// # Panics
    /// Panics unless `1 < k < n`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(
            k > 1 && k < n,
            "the lower-bound run requires 1 < k < n (got k={k}, n={n})"
        );
        let perm = seeded_permutation(n, seed);
        let l_set = ProcessSet::from_indices(n, perm[..k - 1].iter().copied());
        let source = ProcessId::from_usize(perm[k - 1]);
        let mut skeleton = Digraph::empty(n);
        skeleton.add_self_loops();
        for &i in &perm[k..] {
            skeleton.add_edge(source, ProcessId::from_usize(i));
        }
        LowerBoundAdversary {
            n,
            k,
            l_set,
            source,
            skeleton,
        }
    }

    /// A representative instance for universe `n ≥ 4` (k derived from the
    /// seed, leaving at least two followers so the naive baseline can be
    /// forced past `k`).
    ///
    /// # Panics
    /// Panics if `n < 4`.
    pub fn sample(n: usize, seed: u64) -> Self {
        assert!(n >= 4, "need n ≥ 4 for a non-degenerate lower-bound run");
        let k = 2 + (splitmix64(seed ^ 0x10e2) % (n as u64 - 3)) as usize;
        LowerBoundAdversary::new(n, k, seed)
    }

    /// The parameter `k` (also the run's `min_k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The isolated set `L`.
    pub fn l_set(&self) -> &ProcessSet {
        &self.l_set
    }

    /// The perpetual source `s`.
    pub fn source(&self) -> ProcessId {
        self.source
    }

    /// `L ∪ {s}`: the `k` processes forced to decide their own value.
    pub fn forced_own_value(&self) -> ProcessSet {
        let mut s = self.l_set.clone();
        s.insert(self.source);
        s
    }

    /// Inputs that force the naive fixed-horizon flooder past `k` distinct
    /// decisions: `s` proposes a large value, the followers propose
    /// pairwise-distinct smaller ones (the flooder has every follower
    /// decide `min(own, v_s)` — at least two distinct values — while `L`
    /// and `s` decide their own, for `≥ k + 2 > k` in total).
    pub fn naive_breaking_inputs(&self) -> Vec<crate::algorithm::Value> {
        (0..self.n)
            .map(|i| {
                let p = ProcessId::from_usize(i);
                if p == self.source {
                    1_000
                } else if self.l_set.contains(p) {
                    2_000 + i as crate::algorithm::Value
                } else {
                    10 + i as crate::algorithm::Value
                }
            })
            .collect()
    }
}

impl Schedule for LowerBoundAdversary {
    fn n(&self) -> usize {
        self.n
    }
    fn graph(&self, _r: Round) -> Digraph {
        self.skeleton.clone()
    }
    fn graph_into(&self, _r: Round, out: &mut Digraph) {
        out.clone_from(&self.skeleton);
    }
    fn stabilization_round(&self) -> Round {
        FIRST_ROUND
    }
    fn stable_skeleton(&self) -> Digraph {
        self.skeleton.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::validate;

    fn p(i: usize) -> ProcessId {
        ProcessId::from_usize(i)
    }

    #[test]
    fn every_family_validates_over_a_long_horizon() {
        for seed in [0u64, 1, 42, 0xdead_beef] {
            for n in [1usize, 2, 3, 5, 8, 13] {
                let horizon = 4 * n as Round + 12;
                validate(&StableRootAdversary::sample(n, seed), horizon)
                    .unwrap_or_else(|e| panic!("stable_root n={n} seed={seed}: {e}"));
                validate(&RotatingRootAdversary::sample(n, seed), horizon)
                    .unwrap_or_else(|e| panic!("rotating_root n={n} seed={seed}: {e}"));
                validate(&HealedPartitionAdversary::sample(n, seed), horizon)
                    .unwrap_or_else(|e| panic!("healed_partition n={n} seed={seed}: {e}"));
                validate(&ChurnAdversary::sample(n, seed), horizon)
                    .unwrap_or_else(|e| panic!("churn n={n} seed={seed}: {e}"));
                if n >= 4 {
                    validate(&LowerBoundAdversary::sample(n, seed), horizon)
                        .unwrap_or_else(|e| panic!("lower_bound n={n} seed={seed}: {e}"));
                }
                let crash = CrashOverlay::seeded(StableRootAdversary::sample(n, seed), n / 3, seed);
                validate(&crash, horizon)
                    .unwrap_or_else(|e| panic!("crash∘stable_root n={n} seed={seed}: {e}"));
            }
        }
    }

    #[test]
    fn schedules_are_pure_functions_of_seed_and_round() {
        let a = StableRootAdversary::sample(7, 99);
        let b = StableRootAdversary::sample(7, 99);
        let c = StableRootAdversary::sample(7, 100);
        let mut any_diff = false;
        for r in 1..=30 {
            assert_eq!(a.graph(r), b.graph(r), "round {r}");
            any_diff |= a.graph(r) != c.graph(r);
        }
        assert!(any_diff, "different seeds should differ somewhere");
    }

    #[test]
    fn stable_root_protects_root_in_edges_after_stabilization() {
        let s = StableRootAdversary::new(9, 2, 2, 5, 800, 3);
        let members = {
            let mut m = ProcessSet::empty(9);
            for b in s.roots() {
                m.union_with(b);
            }
            m
        };
        let skel = s.stable_skeleton();
        for r in (s.stabilization_round() + 1)..=40 {
            let g = s.graph(r);
            for w in members.iter() {
                // in-edges of root members beyond the skeleton never appear
                for u in ProcessId::all(9) {
                    if g.has_edge(u, w) {
                        assert!(skel.has_edge(u, w), "round {r}: noise into root {w}");
                    }
                }
            }
        }
        // …but the hostile prefix may hit anyone (density 0.8 ⇒ it does)
        let noisy_prefix: usize = (1..=s.stabilization_round())
            .map(|r| s.graph(r).edge_count() - skel.edge_count())
            .sum();
        assert!(noisy_prefix > 0, "prefix noise never materialized");
    }

    #[test]
    fn rotating_root_rotates_then_goes_quiet() {
        let s = RotatingRootAdversary::new(8, 2, 3, 7, 11);
        // during rotation, the pivot's star is present
        for r in 1..=7u32 {
            let pivot = s.pivot(r).expect("rotation active");
            let g = s.graph(r);
            for v in ProcessId::all(8) {
                assert!(g.has_edge(pivot, v), "round {r}: star edge missing");
            }
        }
        // two consecutive rounds have different pivots
        assert_ne!(s.pivot(1), s.pivot(2));
        // the tail is exactly the skeleton
        assert_eq!(s.graph(8), s.stable_skeleton());
        assert_eq!(s.graph(100), s.stable_skeleton());
        assert_eq!(s.stabilization_round(), 8);
        assert!(validate(&s, 30).is_ok());
    }

    #[test]
    fn crash_overlay_silences_outgoing_but_keeps_receiving() {
        let base = HealedPartitionAdversary::seeded(6, 1, 2, 5);
        let s = CrashOverlay::new(base, vec![(p(2), 3)]);
        assert!(s.graph(3).has_edge(p(2), p(0)) || !s.base().graph(3).has_edge(p(2), p(0)));
        let g4 = s.graph(4);
        for v in ProcessId::all(6) {
            if v != p(2) {
                assert!(!g4.has_edge(p(2), v), "crashed process still heard");
            }
        }
        assert!(g4.has_edge(p(2), p(2)), "self-loop must survive");
        // the crashed process keeps receiving whatever the base delivers
        assert_eq!(
            g4.has_edge(p(0), p(2)),
            s.base().graph(4).has_edge(p(0), p(2))
        );
        assert_eq!(s.f(), 1);
        assert!(s.faulty().contains(p(2)));
        assert!(validate(&s, 20).is_ok());
    }

    #[test]
    fn composed_crash_partition_stable_tail_validates() {
        for seed in [7u64, 8, 9] {
            let partition = HealedPartitionAdversary::sample(10, seed);
            let composed = CrashOverlay::seeded(partition, 3, seed);
            validate(&composed, 60).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // skeleton: refined blocks minus crashed-out edges
            let skel = composed.stable_skeleton();
            for q in composed.faulty().iter() {
                for v in ProcessId::all(10) {
                    if v != q {
                        assert!(!skel.has_edge(q, v));
                    }
                }
            }
        }
    }

    #[test]
    fn healed_partition_heals_but_skeleton_remembers() {
        let s = HealedPartitionAdversary::new(
            6,
            vec![PartitionEpisode {
                start: 3,
                end: 5,
                blocks: vec![
                    ProcessSet::from_indices(6, 0..3),
                    ProcessSet::from_indices(6, 3..6),
                ],
            }],
        );
        // healed rounds are complete
        assert_eq!(s.graph(1), Digraph::complete(6));
        assert_eq!(s.graph(6), Digraph::complete(6));
        // partitioned rounds cut cross edges
        assert!(!s.graph(4).has_edge(p(0), p(3)));
        assert!(s.graph(4).has_edge(p(0), p(1)));
        // the skeleton remembers the episode forever
        assert!(!s.stable_skeleton().has_edge(p(0), p(3)));
        assert_eq!(s.stabilization_round(), 6);
        assert!(validate(&s, 25).is_ok());
    }

    #[test]
    fn churn_changes_are_bounded_per_round() {
        let s = ChurnAdversary::new(12, 2, 2, 4, 700, 21);
        let bound = s.change_bound();
        assert!(bound > 0, "sample has no churn candidates");
        let mut prev = s.graph(1);
        assert_eq!(prev, s.stable_skeleton(), "round 1 is the skeleton");
        for r in 2..=40 {
            let cur = s.graph(r);
            let mut delta = 0usize;
            for u in ProcessId::all(12) {
                for v in ProcessId::all(12) {
                    if prev.has_edge(u, v) != cur.has_edge(u, v) {
                        delta += 1;
                    }
                }
            }
            assert!(delta <= bound, "round {r}: {delta} changes > bound {bound}");
            prev = cur;
        }
        assert!(validate(&s, 40).is_ok());
    }

    #[test]
    fn lower_bound_structure_matches_theorem2() {
        let s = LowerBoundAdversary::new(8, 3, 123);
        let skel = s.stable_skeleton();
        assert_eq!(s.forced_own_value().len(), 3);
        for l in s.l_set().iter() {
            assert_eq!(skel.in_neighbors(l), &ProcessSet::singleton(8, l));
        }
        assert_eq!(
            skel.in_neighbors(s.source()),
            &ProcessSet::singleton(8, s.source())
        );
        for q in ProcessId::all(8) {
            if !s.forced_own_value().contains(q) {
                assert!(skel.has_edge(s.source(), q));
            }
        }
        assert!(validate(&s, 20).is_ok());
        let inputs = s.naive_breaking_inputs();
        assert_eq!(inputs.len(), 8);
    }
}
