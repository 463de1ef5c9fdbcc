//! Run traces: what a simulation engine records about a run.

use sskel_graph::{ProcessId, Round};

use crate::algorithm::Value;
use crate::fault::FaultStats;

/// One process's irrevocable decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecisionRecord {
    /// The decided value.
    pub value: Value,
    /// The round at whose end the decision was first observed.
    pub round: Round,
}

/// Aggregate message-traffic statistics of a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MsgStats {
    /// Broadcasts performed (one per process per round).
    pub broadcasts: u64,
    /// Point-to-point deliveries (one per edge of each round's graph).
    pub deliveries: u64,
    /// Total bytes of all broadcast messages (each counted once per
    /// broadcast, regardless of fan-out).
    pub broadcast_bytes: u64,
    /// Total bytes actually delivered (broadcast size × receivers).
    pub delivered_bytes: u64,
}

impl MsgStats {
    /// Accounts one broadcast of a `bytes`-byte payload that reaches
    /// `receivers` processes.
    pub(crate) fn add_broadcast(&mut self, bytes: u64, receivers: u64) {
        self.broadcasts += 1;
        self.broadcast_bytes += bytes;
        self.deliveries += receivers;
        self.delivered_bytes += bytes * receivers;
    }
}

impl core::ops::AddAssign<&MsgStats> for MsgStats {
    /// Field-wise sum — engines use this to fold per-thread (or per-shard)
    /// accounting into the run's totals, so a future `MsgStats` field only
    /// has to be added in one place.
    fn add_assign(&mut self, other: &MsgStats) {
        self.broadcasts += other.broadcasts;
        self.deliveries += other.deliveries;
        self.broadcast_bytes += other.broadcast_bytes;
        self.delivered_bytes += other.delivered_bytes;
    }
}

impl core::ops::SubAssign<&MsgStats> for MsgStats {
    /// Field-wise difference — the concurrent engines use this to roll a
    /// speculative next-round broadcast back out of the accounting when the
    /// stop verdict means that round never executes.
    fn sub_assign(&mut self, other: &MsgStats) {
        self.broadcasts -= other.broadcasts;
        self.deliveries -= other.deliveries;
        self.broadcast_bytes -= other.broadcast_bytes;
        self.delivered_bytes -= other.delivered_bytes;
    }
}

/// Everything an engine records about one run.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Universe size.
    pub n: usize,
    /// Number of rounds executed.
    pub rounds_executed: Round,
    /// Per-process decision (index = process index), `None` = undecided when
    /// the run was cut off.
    pub decisions: Vec<Option<DecisionRecord>>,
    /// Message statistics.
    pub msg_stats: MsgStats,
    /// Contract violations observed while running (irrevocability breaches,
    /// decision retractions). Empty for a well-behaved algorithm.
    pub anomalies: Vec<String>,
    /// Frames dropped or quarantined by the fault plane (always empty in
    /// Arc mode and under [`crate::fault::NoFaults`]); canonically sorted,
    /// identical across engines per seed.
    pub faults: FaultStats,
}

impl RunTrace {
    /// Fresh empty trace.
    pub fn new(n: usize) -> Self {
        RunTrace {
            n,
            rounds_executed: 0,
            decisions: vec![None; n],
            msg_stats: MsgStats::default(),
            anomalies: Vec::new(),
            faults: FaultStats::new(),
        }
    }

    /// `true` iff every process decided.
    pub fn all_decided(&self) -> bool {
        self.decisions.iter().all(Option::is_some)
    }

    /// Number of processes that decided.
    pub fn decided_count(&self) -> usize {
        self.decisions.iter().flatten().count()
    }

    /// The distinct decided values, sorted.
    pub fn distinct_decision_values(&self) -> Vec<Value> {
        let mut vals: Vec<Value> = self.decisions.iter().flatten().map(|d| d.value).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }

    /// The latest decision round, if anyone decided.
    pub fn last_decision_round(&self) -> Option<Round> {
        self.decisions.iter().flatten().map(|d| d.round).max()
    }

    /// The earliest decision round, if anyone decided.
    pub fn first_decision_round(&self) -> Option<Round> {
        self.decisions.iter().flatten().map(|d| d.round).min()
    }

    /// The decision of process `p`.
    pub fn decision_of(&self, p: ProcessId) -> Option<DecisionRecord> {
        self.decisions[p.index()]
    }

    /// Records `p`'s decision or an anomaly if it changed a previous one.
    pub(crate) fn record_decision(&mut self, p: ProcessId, round: Round, value: Value) {
        match self.decisions[p.index()] {
            None => self.decisions[p.index()] = Some(DecisionRecord { value, round }),
            Some(prev) if prev.value != value => self.anomalies.push(format!(
                "process {p} changed its decision from {} (round {}) to {value} (round {round})",
                prev.value, prev.round
            )),
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_bookkeeping() {
        let mut t = RunTrace::new(3);
        assert!(!t.all_decided());
        t.record_decision(ProcessId::new(0), 4, 10);
        t.record_decision(ProcessId::new(1), 5, 10);
        t.record_decision(ProcessId::new(2), 6, 20);
        assert!(t.all_decided());
        assert_eq!(t.decided_count(), 3);
        assert_eq!(t.distinct_decision_values(), vec![10, 20]);
        assert_eq!(t.first_decision_round(), Some(4));
        assert_eq!(t.last_decision_round(), Some(6));
        assert_eq!(
            t.decision_of(ProcessId::new(2)),
            Some(DecisionRecord {
                value: 20,
                round: 6
            })
        );
        assert!(t.anomalies.is_empty());
    }

    #[test]
    fn decision_change_is_an_anomaly() {
        let mut t = RunTrace::new(1);
        t.record_decision(ProcessId::new(0), 1, 5);
        t.record_decision(ProcessId::new(0), 2, 5); // same value: fine
        assert!(t.anomalies.is_empty());
        t.record_decision(ProcessId::new(0), 3, 6); // changed: anomaly
        assert_eq!(t.anomalies.len(), 1);
        // the original decision is preserved
        assert_eq!(t.decision_of(ProcessId::new(0)).unwrap().value, 5);
    }
}
