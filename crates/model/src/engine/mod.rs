//! Simulation engines.
//!
//! Four engines drive [`crate::algorithm::RoundAlgorithm`] instances
//! through the round structure of a [`crate::schedule::Schedule`]:
//!
//! * [`lockstep`] — deterministic, single-threaded, supports per-round
//!   observers (used for Figure 1 and the lemma-invariant tests); its one
//!   round body also drives the durable journal ([`recovery`]);
//! * [`sharded`] — `k` processes per thread ([`ShardPlan`]), one inbox per
//!   shard, direct in-memory delivery inside a shard, and one
//!   [`crate::sync::RoundBarrier`] phase per round; trace-identical to
//!   lockstep. `ShardPlan::new(n)` is the one-thread-per-process
//!   configuration;
//! * [`socket`] — the same shard worker with every inter-shard frame
//!   carried over a real loopback [`std::net::TcpStream`] ([`SocketPlan`]),
//!   stream framing with partial-read resumption, per-connection read
//!   timeouts and typed [`SocketError`]s; trace-identical to
//!   [`run_lockstep_codec`] over the same schedule, seed and fault plane.
//!
//! The sharded and socket engines share one shard round loop and differ
//! only in the link between shards: in-process channels or TCP streams.
//! Every concurrent engine, the multiplex tick loop included, closes its
//! rounds on the same abortable [`crate::sync::RoundBarrier`], so a
//! failing or panicking worker releases its peers instead of hanging them.
//!
//! [`multiplex`] layers *agreement as a service* on top of the sharded
//! partition: `M` concurrent instances on one worker pool
//! ([`MultiplexPlan`]), per-(shard, tick) wire batching with uvarint
//! instance tags, shared schedule synthesis and arena-recycled buffers —
//! every instance's trace byte-identical to its solo
//! [`run_sharded_codec`] run.
//!
//! All deliver round-`r` messages exactly along the edges of `G^r`:
//! process `q` receives `p`'s round-`r` broadcast iff `(p → q) ∈ G^r`.
//! `docs/CONCURRENCY.md` at the repository root compares the engines and
//! their synchronization protocols in detail.
//!
//! Each engine also has a codec twin (`run_*_codec`; the socket engine is
//! codec-only) that routes every payload through the wire codec and a
//! [`crate::fault::FaultPlane`] (Byzantine frame corruption,
//! quarantine-and-survive receivers), and
//! [`recovery::run_lockstep_recovering`] adds crash/restart recovery from
//! snapshots taken at the canonical rebase cut points.

pub mod lockstep;
pub mod multiplex;
pub mod recovery;
pub mod sharded;
pub mod socket;

pub use lockstep::{run_lockstep, run_lockstep_codec, run_lockstep_observed};
pub use multiplex::{run_multiplex_codec, MultiplexPlan, MuxInstance};
pub use recovery::{resume_from_journal, run_lockstep_journaled, run_lockstep_recovering};
pub use sharded::{run_sharded, run_sharded_codec, ShardPlan};
pub use socket::{
    run_socket, run_socket_codec, PacketEvent, PacketStream, SocketError, SocketPlan,
};

use std::sync::Arc;

use sskel_graph::{ProcessId, Round};

use crate::fault::{Delivery, FaultCause, FaultStats};

/// When an engine stops executing rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunUntil {
    /// Execute exactly this many rounds.
    Rounds(Round),
    /// Stop at the end of the first round in which every process has
    /// decided, or after `max_rounds` rounds, whichever comes first.
    AllDecided {
        /// Hard cap on rounds (guards against non-terminating runs).
        max_rounds: Round,
    },
}

impl RunUntil {
    /// `true` if the run should stop after round `r` given the current
    /// all-decided status.
    #[inline]
    pub(crate) fn should_stop(self, r: Round, all_decided: bool) -> bool {
        match self {
            RunUntil::Rounds(max) => r >= max,
            RunUntil::AllDecided { max_rounds } => all_decided || r >= max_rounds,
        }
    }

    /// The round the run stops at when the stop condition depends on
    /// nothing but the round number. Crash/restart recovery requires one:
    /// a down process cannot take part in an all-decided verdict.
    #[inline]
    pub(crate) fn static_horizon(self) -> Option<Round> {
        match self {
            RunUntil::Rounds(max) => Some(max),
            RunUntil::AllDecided { .. } => None,
        }
    }
}

/// Files what the transport made of the round-`r` frame on edge
/// `from → to`: a dropped or quarantined frame goes into the fault
/// ledger, a delivered payload is returned.
pub(crate) fn settle<M>(
    delivery: Delivery<M>,
    r: Round,
    from: ProcessId,
    to: ProcessId,
    faults: &mut FaultStats,
) -> Option<Arc<M>> {
    let cause = match delivery {
        Delivery::Deliver(m) => return Some(m),
        Delivery::Dropped => FaultCause::Dropped,
        Delivery::Quarantined(e) => FaultCause::Quarantined(e),
    };
    faults.record(r, from, to, cause);
    None
}

/// The toy algorithm every engine's unit tests run.
#[cfg(test)]
pub(crate) mod fixture {
    use bytes::{Buf, BufMut, Bytes, BytesMut};
    use sskel_graph::Round;

    use crate::algorithm::{Received, Recoverable, RoundAlgorithm, Value};
    use crate::wire::{read_uvarint, write_uvarint, WireError};

    /// Floods the minimum seen value and decides after `horizon` rounds;
    /// snapshots every third round.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub(crate) struct MinFlood {
        x: Value,
        horizon: Round,
        decision: Option<Value>,
    }

    /// `n` processes with inputs `10·n, 10·(n − 1), …, 10`, deciding at
    /// round `horizon`.
    pub(crate) fn spawn(n: usize, horizon: Round) -> Vec<MinFlood> {
        (0..n)
            .map(|i| MinFlood {
                x: (n - i) as Value * 10,
                horizon,
                decision: None,
            })
            .collect()
    }

    impl RoundAlgorithm for MinFlood {
        type Msg = Value;
        fn send(&self, _r: Round) -> Value {
            self.x
        }
        fn receive(&mut self, r: Round, received: &Received<Value>) {
            for (_, &v) in received.iter() {
                self.x = self.x.min(v);
            }
            if r >= self.horizon {
                self.decision.get_or_insert(self.x);
            }
        }
        fn decision(&self) -> Option<Value> {
            self.decision
        }
    }

    impl Recoverable for MinFlood {
        fn snapshot(&self) -> Bytes {
            let mut buf = BytesMut::new();
            write_uvarint(&mut buf, self.x);
            write_uvarint(&mut buf, u64::from(self.horizon));
            match self.decision {
                None => buf.put_u8(0),
                Some(v) => {
                    buf.put_u8(1);
                    write_uvarint(&mut buf, v);
                }
            }
            buf.freeze()
        }

        fn restore(bytes: &[u8]) -> Result<Self, WireError> {
            let mut rd = bytes;
            let x = read_uvarint(&mut rd)?;
            let horizon = read_uvarint(&mut rd)? as Round;
            if !rd.has_remaining() {
                return Err(WireError::UnexpectedEnd);
            }
            let decision = match rd.get_u8() {
                0 => None,
                1 => Some(read_uvarint(&mut rd)?),
                _ => return Err(WireError::InvalidValue("unknown decision flag")),
            };
            if rd.has_remaining() {
                return Err(WireError::InvalidValue("trailing bytes in snapshot"));
            }
            Ok(MinFlood {
                x,
                horizon,
                decision,
            })
        }

        fn snapshot_due(&self, r: Round) -> bool {
            r.is_multiple_of(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_conditions() {
        assert!(!RunUntil::Rounds(5).should_stop(4, true));
        assert!(RunUntil::Rounds(5).should_stop(5, false));
        assert!(RunUntil::AllDecided { max_rounds: 10 }.should_stop(3, true));
        assert!(!RunUntil::AllDecided { max_rounds: 10 }.should_stop(3, false));
        assert!(RunUntil::AllDecided { max_rounds: 10 }.should_stop(10, false));
    }
}
