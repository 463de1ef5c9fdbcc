//! Algorithm 1: approximating the stable skeleton graph and solving k-set
//! agreement with `Psrcs(k)`.
//!
//! Faithful implementation of the paper's pseudocode. Per round `r`, each
//! process `p`:
//!
//! * **send (lines 5–8)** — broadcasts `(prop|decide, x_p, G_p)`;
//! * **line 9** — `PT_p ← PT_p ∩ HO(p, r)` (eq. (7));
//! * **lines 10–13** — adopts a received decide value from some
//!   `q ∈ PT_p` and decides (when several arrive simultaneously, the
//!   smallest `(x_q, q)` is adopted; the paper leaves the choice open and
//!   its proofs work for any);
//! * **lines 14–25** — runs the [`SkeletonEstimator`];
//! * **line 27** — `x_p ← min { x_q | q ∈ PT_p }` over the values received
//!   this round (this includes `p`'s own broadcast value, as `p ∈ PT_p`);
//! * **lines 28–30** — if `r ≥ n` and `G_p` is strongly connected, decides
//!   on `x_p`.
//!
//! Note on line 28: the arXiv rendering prints the guard as `r > n`, but it
//! is `r ⩾ n` in context — Lemma 11 has root-component members decide at
//! round `rST + n − 1`, which equals `n` for runs that are stable from
//! round 1, and Lemma 14's "no process can pass the check in Line 28 before
//! round n" is consistent with `⩾`. See `docs/ARCHITECTURE.md`
//! ("Algorithm 1, line by line").

use bytes::{Buf, BufMut, Bytes, BytesMut};
use sskel_graph::{LabeledDigraph, ProcessId, ProcessSet, Round};
use sskel_model::wire::{read_uvarint, uvarint_len, write_uvarint};
use sskel_model::{ProcessCtx, Received, Recoverable, RoundAlgorithm, Value, Wire, WireError};

use crate::approx::SkeletonEstimator;
use crate::msg::{KSetMsg, MsgKind};

/// Which line-28 decision test to apply.
///
/// Reproducing the paper surfaced a soundness gap in its Lemma 15 (see
/// `tests/counterexample.rs` and the E8 binary `exp_counterexample`): the
/// literal rule can decide at round `r ∈ [n, 2n)` based on transient edges
/// observed in the first rounds of the run — which are too old to be
/// perpetual but too young to be purged — and thereby exceed `k` decision
/// values in runs where `Psrcs(k)` holds. [`DecisionRule::FreshnessGuarded`] additionally
/// requires every edge label to be as fresh as its propagation distance
/// allows (`s + dist(v → p) ≥ r`, the exact freshness Lemma 4 guarantees
/// for perpetual edges), which blocks the counterexample while preserving
/// the Lemma-11 termination bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecisionRule {
    /// Line 28 verbatim: `r ≥ n` and `G_p` strongly connected.
    #[default]
    Paper,
    /// Line 28 plus the coherent-freshness condition of
    /// [`SkeletonEstimator::is_coherently_fresh`].
    FreshnessGuarded,
}

/// Why instantiating a whole system of Algorithm 1 processes failed.
///
/// Returned by [`KSetAgreement::try_spawn_all`]; the panicking
/// [`KSetAgreement::spawn_all`] wrappers surface the same conditions as a
/// panic carrying this error's message (instead of the unhelpful
/// `unwrap`-style panic an empty input slice used to produce downstream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpawnError {
    /// `n == 0`: the paper's universe `Π = {p1, …, pn}` is non-empty, and
    /// an empty system has no inputs to agree on.
    EmptyUniverse,
    /// `inputs.len() != n`: every process needs exactly one input `v_p`.
    InputCountMismatch {
        /// The universe size `n`.
        expected: usize,
        /// The number of inputs actually supplied.
        got: usize,
    },
}

impl core::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SpawnError::EmptyUniverse => {
                write!(
                    f,
                    "cannot spawn a k-set agreement system over an empty universe"
                )
            }
            SpawnError::InputCountMismatch { expected, got } => write!(
                f,
                "need exactly one input per process: universe has {expected}, got {got} inputs"
            ),
        }
    }
}

impl std::error::Error for SpawnError {}

/// How a process decided — useful for experiments and tests, not part of
/// the paper's interface.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionPath {
    /// Passed the strong-connectivity test (line 29).
    StronglyConnected,
    /// Adopted a decide message from its timely neighborhood (line 12).
    Relay,
}

/// One process's instance of Algorithm 1.
#[derive(Clone, Debug)]
pub struct KSetAgreement {
    me: ProcessId,
    n: usize,
    /// `PT_p` (line 1; initially `Π`).
    pt: ProcessSet,
    /// Estimated decision value `x_p` (line 2; initially `v_p`).
    x: Value,
    /// `decided_p` (line 4).
    decided: bool,
    decision: Option<Value>,
    path: Option<DecisionPath>,
    rule: DecisionRule,
    est: SkeletonEstimator,
}

impl KSetAgreement {
    /// A fresh instance for the given process context, with the paper's
    /// literal decision rule.
    pub fn new(ctx: ProcessCtx) -> Self {
        Self::with_rule(ctx, DecisionRule::Paper)
    }

    /// A fresh instance using the chosen decision rule.
    pub fn with_rule(ctx: ProcessCtx, rule: DecisionRule) -> Self {
        KSetAgreement {
            me: ctx.id,
            n: ctx.n,
            pt: ProcessSet::full(ctx.n),
            x: ctx.input,
            decided: false,
            decision: None,
            path: None,
            rule,
            est: SkeletonEstimator::new(ctx.n, ctx.id),
        }
    }

    /// Restores a retired instance to the exact state
    /// [`KSetAgreement::with_rule`]`(ctx, rule)` would construct — same
    /// universe, any process/input — without allocating: `PT_p` is
    /// refilled in place and the estimator's graph buffers are recycled
    /// ([`SkeletonEstimator::recycle`]). This is what [`crate::AgreementPool`]
    /// calls when an agreement service reuses a decided instance for a
    /// newly admitted one.
    ///
    /// # Panics
    /// Panics if `ctx.n` differs from this instance's universe size (pool
    /// entries are shape-keyed; a different `n` needs a fresh instance).
    pub fn recycle(&mut self, ctx: ProcessCtx, rule: DecisionRule) {
        assert_eq!(
            ctx.n, self.n,
            "recycle cannot change the universe size; spawn a fresh instance"
        );
        self.me = ctx.id;
        self.pt.clear();
        for p in ProcessId::all(self.n) {
            self.pt.insert(p);
        }
        self.x = ctx.input;
        self.decided = false;
        self.decision = None;
        self.path = None;
        self.rule = rule;
        self.est.recycle(ctx.id);
    }

    /// Instantiates the whole system: one instance per process, with
    /// `inputs[p]` as `v_p`.
    ///
    /// # Panics
    /// Panics on the conditions [`KSetAgreement::try_spawn_all`] reports as
    /// a [`SpawnError`]: an empty universe or an input count other than `n`.
    pub fn spawn_all(n: usize, inputs: &[Value]) -> Vec<Self> {
        Self::spawn_all_with(n, inputs, DecisionRule::Paper)
    }

    /// [`KSetAgreement::spawn_all`] with an explicit decision rule.
    ///
    /// # Panics
    /// Same conditions as [`KSetAgreement::spawn_all`].
    pub fn spawn_all_with(n: usize, inputs: &[Value], rule: DecisionRule) -> Vec<Self> {
        match Self::try_spawn_all_with(n, inputs, rule) {
            Ok(algs) => algs,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`KSetAgreement::spawn_all`]: a typed error instead
    /// of a panic for empty or mis-sized input slices.
    pub fn try_spawn_all(n: usize, inputs: &[Value]) -> Result<Vec<Self>, SpawnError> {
        Self::try_spawn_all_with(n, inputs, DecisionRule::Paper)
    }

    /// Fallible form of [`KSetAgreement::spawn_all_with`].
    pub fn try_spawn_all_with(
        n: usize,
        inputs: &[Value],
        rule: DecisionRule,
    ) -> Result<Vec<Self>, SpawnError> {
        if n == 0 {
            return Err(SpawnError::EmptyUniverse);
        }
        if inputs.len() != n {
            return Err(SpawnError::InputCountMismatch {
                expected: n,
                got: inputs.len(),
            });
        }
        Ok(ProcessId::all(n)
            .map(|id| {
                KSetAgreement::with_rule(
                    ProcessCtx {
                        id,
                        n,
                        input: inputs[id.index()],
                    },
                    rule,
                )
            })
            .collect())
    }

    /// Overrides the estimator's delta-window rebase threshold — a
    /// test/bench knob for exercising the rebase path without simulating
    /// tens of thousands of rounds. Must be set identically on every
    /// process before the run starts; see
    /// [`SkeletonEstimator::set_rebase_limit`].
    ///
    /// # Panics
    /// Same conditions as [`SkeletonEstimator::set_rebase_limit`].
    pub fn set_rebase_limit(&mut self, limit: Round) {
        self.est.set_rebase_limit(limit);
    }

    /// The decision rule in effect.
    pub fn rule(&self) -> DecisionRule {
        self.rule
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.me
    }

    /// The universe size `n` this instance was built for.
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The current timely neighborhood `PT_p`.
    pub fn pt(&self) -> &ProcessSet {
        &self.pt
    }

    /// The current estimate `x_p`.
    pub fn estimate(&self) -> Value {
        self.x
    }

    /// The current approximation graph `G_p`.
    pub fn approx_graph(&self) -> &sskel_graph::LabeledDigraph {
        self.est.graph()
    }

    /// `decided_p` (line 4).
    pub fn has_decided(&self) -> bool {
        self.decided
    }

    /// How this process decided, if it has.
    pub fn decision_path(&self) -> Option<DecisionPath> {
        self.path
    }
}

impl RoundAlgorithm for KSetAgreement {
    type Msg = KSetMsg;

    // Lines 5–8. The graph payload is a shared handle to the estimator's
    // current buffer — broadcasting is O(1), not O(n²).
    fn send(&self, _r: Round) -> KSetMsg {
        KSetMsg::new(
            if self.decided {
                MsgKind::Decide
            } else {
                MsgKind::Prop
            },
            self.x,
            self.est.graph_arc(),
        )
    }

    fn receive(&mut self, r: Round, received: &Received<KSetMsg>) {
        // Line 9: PT_p ← PT_p ∩ HO(p, r).
        self.pt.intersect_with(received.senders());

        // Lines 10–13: adopt a decide message from PT_p.
        if !self.decided {
            let mut adopted: Option<Value> = None;
            for q in self.pt.iter() {
                if let Some(m) = received.get(q) {
                    if m.is_decide() {
                        adopted = Some(adopted.map_or(m.x(), |cur: Value| cur.min(m.x())));
                    }
                }
            }
            if let Some(v) = adopted {
                self.x = v;
                self.decided = true;
                self.decision = Some(v);
                self.path = Some(DecisionPath::Relay);
            }
        }

        // Lines 14–25: approximate the stable skeleton (runs every round,
        // decided or not — decided processes keep serving the approximation).
        self.est.update(
            r,
            &self.pt,
            self.pt
                .iter()
                .filter_map(|q| received.get(q).map(|m| (q, m.graph().as_ref()))),
        );

        // Lines 26–30.
        if !self.decided {
            // Line 27: x_p ← min { x_q | q ∈ PT_p } (from this round's
            // messages; includes p's own value since p ∈ PT_p).
            for q in self.pt.iter() {
                if let Some(m) = received.get(q) {
                    self.x = self.x.min(m.x());
                }
            }
            // Line 28: decide once the approximation is strongly connected
            // (plus the freshness guard when the repaired rule is active).
            let fresh_ok = match self.rule {
                DecisionRule::Paper => true,
                DecisionRule::FreshnessGuarded => self.est.is_coherently_fresh(r),
            };
            if r >= self.n as Round && self.est.is_strongly_connected() && fresh_ok {
                self.decided = true;
                self.decision = Some(self.x);
                self.path = Some(DecisionPath::StronglyConnected);
            }
        }
    }

    fn decision(&self) -> Option<Value> {
        self.decision
    }
}

/// Crash/restart checkpointing for the recovery engine
/// ([`sskel_model::engine::run_lockstep_recovering`]).
///
/// The snapshot reuses the wire codec end to end:
///
/// ```text
/// uvarint n · uvarint me · uvarint x · flags u8 · pt ProcessSet
///           · uvarint rebase_limit · G_p LabeledDigraph
/// ```
///
/// with `flags = decided | path_code << 1 | rule << 3` (path code 0 =
/// undecided, 1 = strongly-connected, 2 = relay). The decision value is
/// not stored separately: once `decided_p` holds, `x_p` never changes
/// (lines 26–30 are skipped), so `decision = x` is an invariant the
/// restore path re-derives.
impl Recoverable for KSetAgreement {
    fn snapshot(&self) -> Bytes {
        let g = self.est.graph();
        let mut buf = BytesMut::with_capacity(
            uvarint_len(self.n as u64)
                + uvarint_len(self.me.index() as u64)
                + sskel_model::WireSized::wire_bytes(&self.x)
                + 1
                + sskel_model::WireSized::wire_bytes(&self.pt)
                + uvarint_len(u64::from(self.est.rebase_limit()))
                + sskel_model::WireSized::wire_bytes(g),
        );
        write_uvarint(&mut buf, self.n as u64);
        write_uvarint(&mut buf, self.me.index() as u64);
        self.x.encode(&mut buf);
        let path_code: u8 = match self.path {
            None => 0,
            Some(DecisionPath::StronglyConnected) => 1,
            Some(DecisionPath::Relay) => 2,
        };
        let rule_bit: u8 = match self.rule {
            DecisionRule::Paper => 0,
            DecisionRule::FreshnessGuarded => 1,
        };
        buf.put_u8(u8::from(self.decided) | (path_code << 1) | (rule_bit << 3));
        self.pt.encode(&mut buf);
        write_uvarint(&mut buf, u64::from(self.est.rebase_limit()));
        g.encode(&mut buf);
        buf.freeze()
    }

    fn restore(bytes: &[u8]) -> Result<Self, WireError> {
        let mut rd = bytes;
        let n = read_uvarint(&mut rd)? as usize;
        if n == 0 {
            return Err(WireError::InvalidValue("snapshot of an empty universe"));
        }
        let me_idx = read_uvarint(&mut rd)? as usize;
        if me_idx >= n {
            return Err(WireError::InvalidValue("snapshot owner out of universe"));
        }
        let me = ProcessId::from_usize(me_idx);
        let x = Value::decode(&mut rd)?;
        if !rd.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let flags = rd.get_u8();
        if flags & !0b1111 != 0 {
            return Err(WireError::InvalidValue("unknown snapshot flag bits"));
        }
        let decided = flags & 1 != 0;
        let path = match (flags >> 1) & 0b11 {
            0 => None,
            1 => Some(DecisionPath::StronglyConnected),
            2 => Some(DecisionPath::Relay),
            _ => return Err(WireError::InvalidValue("unknown decision-path code")),
        };
        if decided == path.is_none() {
            return Err(WireError::InvalidValue(
                "decided flag disagrees with decision path",
            ));
        }
        let rule = if flags & 0b1000 != 0 {
            DecisionRule::FreshnessGuarded
        } else {
            DecisionRule::Paper
        };
        let pt = ProcessSet::decode(&mut rd)?;
        if pt.universe() != n {
            return Err(WireError::InvalidValue("snapshot PT universe mismatch"));
        }
        if !pt.contains(me) {
            return Err(WireError::InvalidValue("snapshot PT excludes its owner"));
        }
        let rebase_limit = read_uvarint(&mut rd)?;
        if rebase_limit <= n as u64 + 1 || rebase_limit > u64::from(u16::MAX) {
            return Err(WireError::InvalidValue(
                "snapshot rebase limit out of range",
            ));
        }
        let graph = LabeledDigraph::decode(&mut rd)?;
        if graph.universe() != n {
            return Err(WireError::InvalidValue("snapshot graph universe mismatch"));
        }
        if !graph.nodes().contains(me) {
            return Err(WireError::InvalidValue("snapshot graph lost its owner"));
        }
        if rd.has_remaining() {
            return Err(WireError::InvalidValue("trailing bytes in snapshot"));
        }
        Ok(KSetAgreement {
            me,
            n,
            pt,
            x,
            decided,
            decision: decided.then_some(x),
            path,
            rule,
            est: SkeletonEstimator::from_parts(n, me, graph, rebase_limit as Round),
        })
    }

    fn snapshot_due(&self, r: Round) -> bool {
        self.est.snapshot_due(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sskel_model::{run_lockstep, FixedSchedule, RunUntil};
    use sskel_predicates::Theorem2Schedule;

    #[test]
    fn synchronous_run_reaches_consensus_at_round_n() {
        for n in [1usize, 2, 4, 7] {
            let inputs: Vec<Value> = (0..n as Value).map(|i| 100 - i).collect();
            let s = FixedSchedule::synchronous(n);
            let algs = KSetAgreement::spawn_all(n, &inputs);
            let (trace, finals) = run_lockstep(
                &s,
                algs,
                RunUntil::AllDecided {
                    max_rounds: 4 * n as Round + 4,
                },
            );
            assert!(trace.all_decided(), "n={n}");
            // consensus on the minimum input
            let min = *inputs.iter().min().unwrap();
            assert_eq!(trace.distinct_decision_values(), vec![min], "n={n}");
            // decision exactly at round n (skeleton is complete from round 1)
            assert_eq!(trace.last_decision_round(), Some(n as Round), "n={n}");
            assert!(finals
                .iter()
                .all(|a| a.decision_path() == Some(DecisionPath::StronglyConnected)));
            assert!(trace.anomalies.is_empty());
        }
    }

    #[test]
    fn theorem2_run_yields_exactly_k_values() {
        for (n, k) in [(5usize, 2usize), (6, 3), (8, 4)] {
            let s = Theorem2Schedule::new(n, k);
            let inputs: Vec<Value> = (0..n as Value).collect(); // pairwise distinct
            let algs = KSetAgreement::spawn_all(n, &inputs);
            let (trace, finals) = run_lockstep(
                &s,
                algs,
                RunUntil::AllDecided {
                    max_rounds: 4 * n as Round + 4,
                },
            );
            assert!(trace.all_decided(), "n={n} k={k}");
            let distinct = trace.distinct_decision_values();
            assert_eq!(distinct.len(), k, "n={n} k={k}: {distinct:?}");
            // L ∪ {s} decide their own values via strong connectivity;
            // everyone else relays s's decision
            for p in s.forced_own_value().iter() {
                assert_eq!(
                    trace.decision_of(p).unwrap().value,
                    inputs[p.index()],
                    "forced process {p}"
                );
            }
            for a in finals {
                let expected = if s.forced_own_value().contains(a.id()) {
                    DecisionPath::StronglyConnected
                } else {
                    DecisionPath::Relay
                };
                assert_eq!(a.decision_path(), Some(expected), "process {}", a.id());
            }
        }
    }

    #[test]
    fn no_decision_before_round_n() {
        let n = 5;
        let s = FixedSchedule::synchronous(n);
        let algs = KSetAgreement::spawn_all(n, &vec![7; n]);
        let (trace, _) = run_lockstep(&s, algs, RunUntil::Rounds(n as Round - 1));
        assert_eq!(
            trace.decided_count(),
            0,
            "Lemma 14: no decision before round n"
        );
    }

    #[test]
    fn estimates_are_monotone_while_undecided() {
        // Observation 2 on the line-27 path.
        let n = 4;
        let s = FixedSchedule::synchronous(n);
        let algs = KSetAgreement::spawn_all(n, &[9, 3, 7, 5]);
        let mut last: Vec<Value> = vec![Value::MAX; n];
        let (_, _) = sskel_model::run_lockstep_observed(
            &s,
            algs,
            RunUntil::Rounds(8),
            |_r, states: &[KSetAgreement]| {
                for (i, a) in states.iter().enumerate() {
                    if a.decision_path() != Some(DecisionPath::Relay) {
                        assert!(a.estimate() <= last[i], "estimate increased");
                    }
                    last[i] = a.estimate();
                }
            },
        );
    }

    #[test]
    fn spawn_rejects_empty_and_mismatched_inputs_with_typed_errors() {
        assert_eq!(
            KSetAgreement::try_spawn_all(0, &[]).unwrap_err(),
            SpawnError::EmptyUniverse
        );
        assert_eq!(
            KSetAgreement::try_spawn_all(3, &[1, 2]).unwrap_err(),
            SpawnError::InputCountMismatch {
                expected: 3,
                got: 2
            }
        );
        assert_eq!(
            SpawnError::EmptyUniverse.to_string(),
            "cannot spawn a k-set agreement system over an empty universe"
        );
        assert!(SpawnError::InputCountMismatch {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("universe has 3, got 2"));
        let ok = KSetAgreement::try_spawn_all(2, &[5, 7]).expect("valid spawn");
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[1].estimate(), 7);
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn spawn_all_panic_is_descriptive_for_empty_systems() {
        let _ = KSetAgreement::spawn_all(0, &[]);
    }

    #[test]
    #[should_panic(expected = "one input per process")]
    fn spawn_all_panic_is_descriptive_for_mismatched_inputs() {
        let _ = KSetAgreement::spawn_all(4, &[1]);
    }

    #[test]
    fn validity_values_come_from_inputs() {
        let n = 6;
        let inputs: Vec<Value> = vec![11, 22, 33, 44, 55, 66];
        let s = Theorem2Schedule::new(n, 3);
        let algs = KSetAgreement::spawn_all(n, &inputs);
        let (trace, _) = run_lockstep(&s, algs, RunUntil::AllDecided { max_rounds: 40 });
        for d in trace.decisions.iter().flatten() {
            assert!(inputs.contains(&d.value), "decided {d:?} not an input");
        }
    }
}
