//! Simulation engines.
//!
//! Four engines drive [`crate::algorithm::RoundAlgorithm`] instances
//! through the round structure of a [`crate::schedule::Schedule`]:
//!
//! * [`lockstep`] — deterministic, single-threaded, supports per-round
//!   observers (used for Figure 1 and the lemma-invariant tests); its one
//!   round body also drives the durable journal ([`recovery`]);
//! * [`sharded`] — `k` processes per thread ([`ShardPlan`]; `ShardPlan::new(n)`
//!   is the one-thread-per-process configuration), trace-identical to
//!   lockstep;
//! * [`socket`] — the sharded partition with every inter-shard batch
//!   carried over a real loopback [`std::net::TcpStream`] ([`SocketPlan`]),
//!   stream framing with partial-read resumption, per-connection read
//!   timeouts and typed [`SocketError`]s; trace-identical to
//!   [`run_lockstep_codec`] over the same schedule, seed and fault plane;
//! * [`multiplex`] — *agreement as a service*: `M` concurrent instances on
//!   one worker pool ([`MultiplexPlan`]), each trace byte-identical to its
//!   solo run.
//!
//! The three concurrent engines run one shard worker, the multiplex tick
//! loop: a solo run is one instance admitted at tick 1. Per tick, every
//! shard pair exchanges one batch — through an in-process channel or a
//! TCP stream, the only thing the engines differ in — and the tick closes
//! on one abortable [`crate::sync::RoundBarrier`] phase, so a failing or
//! panicking worker releases its peers instead of hanging them.
//!
//! All deliver round-`r` messages exactly along the edges of `G^r`:
//! process `q` receives `p`'s round-`r` broadcast iff `(p → q) ∈ G^r`.
//! `docs/CONCURRENCY.md` at the repository root compares the engines and
//! their synchronization protocols in detail.
//!
//! Each engine also has a codec twin (`run_*_codec`; the socket and
//! multiplex engines are codec-only) that routes every payload through the
//! wire codec and a [`crate::fault::FaultPlane`] (Byzantine frame
//! corruption, quarantine-and-survive receivers), and
//! [`recovery::run_lockstep_recovering`] adds crash/restart recovery: a
//! journaled lockstep run that rebuilds each restarted process from its
//! own journal, through the replay step a journal resume uses.

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
    use std::cell::Cell;

    use bytes::{Buf, BufMut, Bytes, BytesMut};
    use sskel_graph::{Digraph, ProcessId, Round};

    use crate::algorithm::{Received, Recoverable, RoundAlgorithm, Value};
    use crate::schedule::TableSchedule;
    use crate::wire::{read_uvarint, write_uvarint, Wire, WireError, WireSized};

    thread_local! {
        static DECODES: Cell<usize> = const { Cell::new(0) };
    }

    /// How many [`Flood`] messages this thread has decoded so far. The
    /// lockstep engine and the journal replays decode on the calling
    /// thread.
    pub(crate) fn decodes() -> usize {
        DECODES.with(Cell::get)
    }

    /// [`MinFlood`]'s message: a value with the same wire bytes as a bare
    /// [`Value`], whose decodes count in [`decodes`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) struct Flood(pub(crate) Value);

    impl WireSized for Flood {
        fn wire_bytes(&self) -> usize {
            self.0.wire_bytes()
        }
    }

    impl Wire for Flood {
        fn encode<B: BufMut>(&self, buf: &mut B) {
            self.0.encode(buf);
        }
        fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
            DECODES.with(|c| c.set(c.get() + 1));
            Value::decode(buf).map(Flood)
        }
    }

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

    /// A ring (plus self-loops) in rounds 1 and 3, the complete graph in
    /// round 2 and from round 4 on.
    pub(crate) fn ring_then_complete(n: usize) -> TableSchedule {
        let mut ring = Digraph::empty(n);
        ring.add_self_loops();
        for i in 0..n {
            ring.add_edge(ProcessId::from_usize(i), ProcessId::from_usize((i + 1) % n));
        }
        TableSchedule::new(
            vec![ring.clone(), Digraph::complete(n), ring],
            Digraph::complete(n),
        )
    }

    impl RoundAlgorithm for MinFlood {
        type Msg = Flood;
        fn send(&self, _r: Round) -> Flood {
            Flood(self.x)
        }
        fn receive(&mut self, r: Round, received: &Received<Flood>) {
            for (_, &Flood(v)) in received.iter() {
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
