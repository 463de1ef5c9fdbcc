//! Real-socket round engine: sealed frames over loopback TCP.
//!
//! The other engines hand payloads between threads in-process — even
//! codec mode, where every payload crosses an encode/checksum/decode
//! boundary, moves its bytes through an mpsc channel. This engine puts
//! the *operating system* on the byte path: processes are grouped into
//! contiguous shards exactly like [`super::sharded`], but every
//! inter-shard batch travels through a genuine [`TcpStream`] pair on
//! loopback (`127.0.0.1`), with the kernel free to fragment, coalesce
//! and delay it like any other TCP traffic.
//!
//! The architecture, in layers:
//!
//! * **data plane** — a full mesh of directed TCP connections between
//!   shards, established during a handshake phase (bind one listener
//!   per shard, connect `shards · (shards − 1)` streams, each opened by
//!   its sending shard and identified by a one-varint hello). Frames are
//!   [`crate::fault::seal`]ed exactly as in the in-process codec engines;
//!   each round, a shard writes **one packet per peer shard**: an
//!   [`crate::fault::encode_packet`] header naming the round, the sending
//!   and the receiving shard, around the round's
//!   [`crate::fault::BatchBuilder`] batch, which carries each sender's
//!   frame once for all its receivers on that shard. One **reader thread
//!   per connection** parses packets incrementally ([`PacketStream`]),
//!   checks that each names its connection's two shards and the next
//!   round, splits the batch back into per-edge frames with
//!   [`crate::fault::BatchReader`] and forwards it into the receiving
//!   shard's inbox, so TCP backpressure can never deadlock a round
//!   (senders always find a draining peer).
//! * **control plane** — round closing stays in shared memory: the shard
//!   workers are the multiplex tick loop ([`super::multiplex`]) running
//!   the one instance over a socket link, so the leader-verdict protocol
//!   is the same code on the same [`RoundBarrier`]. One shard's socket
//!   failure (or panic) aborts it and wakes every inbox, releasing each
//!   peer with a typed error instead of a hang.
//! * **failure domain** — socket-level trouble is **transport**-fatal
//!   and typed ([`SocketError`]): a mid-frame stall past the read
//!   timeout, a disconnect inside a packet, junk or oversized stream
//!   framing, a batch that does not parse or names the wrong shards, a
//!   round that cannot assemble within its budget. In-frame
//!   corruption injected by the [`FaultPlane`] stays per-edge and
//!   recoverable: it is quarantined into the run's
//!   [`crate::fault::FaultStats`] at [`crate::fault::Transport::unpack`]
//!   time, exactly like the in-process codec engines.
//!
//! Because the fault plane is evaluated at the receiver as a pure
//! function of `(seed, round, from, to)` and all trace accounting is
//! order-insensitive (deliveries keyed by sender, the fault ledger
//! canonically sorted at the join), a socket run is **byte-identical**
//! — trace, `msg_stats`, quarantine ledger — to
//! [`super::run_lockstep_codec`] over the same schedule, seed and
//! horizon. `tests/conformance.rs` pins this across every adversary
//! family and `tests/fault_plane.rs` across corruption rates;
//! `tests/socket_transport.rs` covers the negative paths. The threading
//! model, timeout semantics and framing are documented in
//! `docs/CONCURRENCY.md`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sskel_graph::{ProcessId, Round, FIRST_ROUND};

use crate::algorithm::RoundAlgorithm;
use crate::engine::multiplex::{run_shards, Batch, Link, MuxInstance};
use crate::engine::sharded::{split_ranges, ShardPlan};
use crate::engine::RunUntil;
use crate::fault::{
    max_batch_len, BatchBuilder, BatchReader, CodecTransport, FaultPlane, FramedPacket, NoFaults,
    PacketBuffer,
};
use crate::schedule::Schedule;
use crate::sync::RoundBarrier;
use crate::trace::RunTrace;
use crate::wire::{try_read_uvarint, write_uvarint, Wire, WireError};

/// How [`run_socket`] divides the system across shard threads and what
/// its socket timeouts are.
///
/// The shard semantics are identical to [`ShardPlan`]; the added knobs
/// govern the TCP layer. `handshake_delays` is a **test hook**: it
/// makes shard `s` sleep before opening its outbound connections, which
/// is how the robustness suite simulates a peer that connects late
/// (within the handshake budget the run completes normally; past it, the
/// run fails with a typed handshake error instead of hanging).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SocketPlan {
    /// Number of shard threads; each owns a contiguous range of
    /// processes (clamped to `n` at run time).
    pub shards: usize,
    /// Per-connection read timeout. A reader idling *between* packets
    /// just re-polls; a reader starving **inside** a packet for this
    /// long fails the connection with [`SocketError::Stalled`].
    pub read_timeout: Duration,
    /// Wall-clock budget for one shard to receive one round's batches
    /// from every peer shard. Exceeding it aborts the run with
    /// [`SocketError::Timeout`].
    pub round_timeout: Duration,
    /// Wall-clock budget for the whole connect/accept/hello mesh
    /// establishment.
    pub handshake_timeout: Duration,
    /// Upper bound on every sealed frame's advertised length. A packet —
    /// one round's batch from one shard to another, carrying each sender's
    /// frame once — may hold one such frame per process of the sending
    /// shard, plus routing varints; a stream announcing more is treated as
    /// framing garbage.
    pub max_frame: usize,
    /// Test hook: shard `s` sleeps `handshake_delays[s]` (when present)
    /// before opening its outbound connections.
    pub handshake_delays: Vec<Duration>,
}

impl SocketPlan {
    /// A plan with `shards` shard threads and default timeouts and frame
    /// cap.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        SocketPlan {
            shards,
            read_timeout: Duration::from_secs(1),
            round_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(10),
            max_frame: 1 << 26,
            handshake_delays: Vec::new(),
        }
    }

    /// Replaces the per-connection read timeout.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "read timeout must be positive");
        self.read_timeout = timeout;
        self
    }

    /// Replaces the per-round assembly budget.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn with_round_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "round timeout must be positive");
        self.round_timeout = timeout;
        self
    }

    /// Replaces the mesh-establishment budget.
    ///
    /// # Panics
    /// Panics if `timeout` is zero.
    #[must_use]
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        assert!(!timeout.is_zero(), "handshake timeout must be positive");
        self.handshake_timeout = timeout;
        self
    }

    /// Makes shard `shard` delay its outbound connections by `delay`
    /// (the slow/late-peer test hook).
    #[must_use]
    pub fn with_handshake_delay(mut self, shard: usize, delay: Duration) -> Self {
        if self.handshake_delays.len() <= shard {
            self.handshake_delays.resize(shard + 1, Duration::ZERO);
        }
        self.handshake_delays[shard] = delay;
        self
    }
}

/// Why a socket run failed. Transport-level trouble is fatal for the
/// whole run (one failing shard aborts its peers, which surface
/// [`SocketError::Aborted`]); per-edge frame corruption is *not* an
/// error — it is quarantined into the trace like in every codec engine.
#[derive(Debug)]
pub enum SocketError {
    /// Binding a loopback listener failed (no loopback in this
    /// environment, exhausted ports, …).
    Bind(io::Error),
    /// Connecting to shard `to`'s listener failed.
    Connect {
        /// The shard whose listener refused us.
        to: usize,
        /// The underlying socket error.
        source: io::Error,
    },
    /// The connect/accept/hello mesh did not establish within the
    /// handshake budget, or a hello was malformed.
    Handshake {
        /// What went wrong.
        detail: &'static str,
    },
    /// A mid-run read or write on an established connection failed.
    Io {
        /// The shard at the other end of the connection.
        peer: usize,
        /// The underlying socket error.
        source: io::Error,
    },
    /// The stream carried bytes that can never parse as a packet (junk
    /// preamble, oversized length prefix, out-of-domain header), or a
    /// packet whose batch is garbage or names the wrong shards.
    Frame {
        /// The shard at the other end of the connection.
        peer: usize,
        /// The stream-framing parse error.
        source: WireError,
    },
    /// The peer went silent *inside* a packet for longer than the read
    /// timeout.
    Stalled {
        /// The shard at the other end of the connection.
        peer: usize,
    },
    /// The peer closed the connection *inside* a packet (a clean close
    /// at a packet boundary is a normal end of stream).
    Disconnected {
        /// The shard at the other end of the connection.
        peer: usize,
    },
    /// A shard could not receive a round's batches within the round
    /// budget.
    Timeout {
        /// The shard whose round never completed.
        shard: usize,
        /// The round it was assembling.
        round: Round,
    },
    /// Another shard failed first; this shard was released from a
    /// barrier or channel wait without a verdict.
    Aborted,
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Bind(e) => write!(f, "binding loopback listener failed: {e}"),
            SocketError::Connect { to, source } => {
                write!(f, "connecting to shard {to} failed: {source}")
            }
            SocketError::Handshake { detail } => write!(f, "socket handshake failed: {detail}"),
            SocketError::Io { peer, source } => {
                write!(f, "socket I/O with shard {peer} failed: {source}")
            }
            SocketError::Frame { peer, source } => {
                write!(f, "unparseable stream framing from shard {peer}: {source}")
            }
            SocketError::Stalled { peer } => {
                write!(f, "shard {peer} stalled mid-frame past the read timeout")
            }
            SocketError::Disconnected { peer } => {
                write!(f, "shard {peer} disconnected mid-frame")
            }
            SocketError::Timeout { shard, round } => {
                write!(f, "shard {shard} could not assemble round {round} in time")
            }
            SocketError::Aborted => write!(f, "run aborted by a failure on another shard"),
        }
    }
}

impl std::error::Error for SocketError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SocketError::Bind(e)
            | SocketError::Connect { source: e, .. }
            | SocketError::Io { source: e, .. } => Some(e),
            SocketError::Frame { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// What [`PacketStream::next_event`] observed on the stream.
#[derive(Debug)]
pub enum PacketEvent {
    /// One complete packet arrived.
    Packet(FramedPacket),
    /// The read timed out at a packet *boundary*: nothing is in flight,
    /// the caller decides whether to keep waiting (the engine's readers
    /// use these wakeups to poll the abort flag).
    Idle,
    /// The peer closed the stream cleanly, at a packet boundary.
    Eof,
}

/// A blocking packet reader over one TCP connection: wraps the stream
/// together with an incremental [`PacketBuffer`], turning raw reads —
/// fragmented however the kernel pleases — into whole packets and typed
/// failures.
///
/// The timeout semantics implement the stall taxonomy of the module
/// docs: a read timeout with an *empty* parse buffer is [`PacketEvent::Idle`]
/// (benign — rounds legitimately go quiet), a read timeout with a
/// *partial packet* buffered is [`SocketError::Stalled`] (the peer
/// started a packet and froze: a single `write_all` never does that for
/// longer than a scheduling blip), and EOF mid-packet is
/// [`SocketError::Disconnected`]. This type is public so the negative-path
/// suite drives the exact code the engine's reader threads run.
#[derive(Debug)]
pub struct PacketStream {
    stream: TcpStream,
    buf: PacketBuffer,
    peer: usize,
    chunk: Vec<u8>,
}

impl PacketStream {
    /// Wraps `stream`, reporting `peer` in errors, parsing packets over
    /// a universe of `universe` endpoints with payloads (a frame, or a
    /// batch) capped at `max_frame` bytes, and reading with `read_timeout`.
    pub fn new(
        stream: TcpStream,
        peer: usize,
        universe: usize,
        max_frame: usize,
        read_timeout: Duration,
    ) -> io::Result<Self> {
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(PacketStream {
            stream,
            buf: PacketBuffer::new(universe, max_frame),
            peer,
            chunk: vec![0u8; 16 * 1024],
        })
    }

    /// Blocks (up to the read timeout) for the next stream event.
    pub fn next_event(&mut self) -> Result<PacketEvent, SocketError> {
        loop {
            match self.buf.try_next() {
                Ok(Some(p)) => return Ok(PacketEvent::Packet(p)),
                Ok(None) => {}
                Err(source) => {
                    return Err(SocketError::Frame {
                        peer: self.peer,
                        source,
                    })
                }
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => {
                    return if self.buf.mid_packet() {
                        Err(SocketError::Disconnected { peer: self.peer })
                    } else {
                        Ok(PacketEvent::Eof)
                    };
                }
                // lint: allow(panic) — `read` returns `k <= chunk.len()`
                // by the `Read` contract.
                Ok(k) => self.buf.feed(&self.chunk[..k]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return if self.buf.mid_packet() {
                        Err(SocketError::Stalled { peer: self.peer })
                    } else {
                        Ok(PacketEvent::Idle)
                    };
                }
                Err(source) => {
                    return Err(SocketError::Io {
                        peer: self.peer,
                        source,
                    })
                }
            }
        }
    }
}

/// What a reader thread forwards: one round's batch, or the typed error
/// that killed its connection.
type Inbound = Result<Batch<Bytes>, SocketError>;

/// What one reader thread expects of its connection's packets, and how it
/// turns each back into a batch.
struct BatchParser {
    /// The sending shard, at the other end of the connection.
    peer: usize,
    /// The sending shard's processes: every entry must come from one.
    senders: Range<usize>,
    /// The receiving shard.
    me: usize,
    /// The receiving shard's processes: every entry must address one.
    owned: Range<usize>,
    /// The universe size of the run's one instance.
    n: usize,
    max_frame: usize,
    /// The next packet's round: a connection carries rounds 1, 2, 3, … in order.
    round: Round,
}

impl BatchParser {
    /// Checks `p`'s header against the connection and splits its batch
    /// into entries that share the packet's bytes. Every defect is a typed
    /// error: the connection is then dead.
    fn parse_batch(&mut self, p: FramedPacket) -> Result<Batch<Bytes>, WireError> {
        if (p.round, p.from.index(), p.to.index()) != (self.round, self.peer, self.me) {
            return Err(WireError::InvalidValue("wrong round or shards in packet"));
        }
        self.round = self.round.saturating_add(1);
        let mut batch = Vec::new();
        let mut rd = BatchReader::new(&p.frame, std::slice::from_ref(&self.n), self.max_frame);
        // The sender walks its processes and their receivers in order, so
        // edges strictly increase: none can come twice.
        let mut last = None;
        while let Some(bf) = rd.next_frame()? {
            let (q, v) = (bf.from.index(), bf.to.index());
            if !self.senders.contains(&q) || !self.owned.contains(&v) || last >= Some((q, v)) {
                return Err(WireError::InvalidValue("stray or repeated batch edge"));
            }
            last = Some((q, v));
            // `offset..offset + len` lies inside the batch: the reader
            // just borrowed exactly those bytes from it.
            let frame = p.frame.slice(bf.offset..bf.offset + bf.frame.len());
            batch.push((bf.instance, bf.from, bf.to, frame));
        }
        Ok(batch)
    }
}

/// The socket engine's [`Link`]: each round's batch to a peer goes out as
/// one packet on this shard's outbound TCP stream, inbound ones arrive
/// through its reader threads' inbox under the per-round deadline, and
/// rounds close on the shared [`RoundBarrier`].
struct SocketLink<'a> {
    me: usize,
    inbox: Receiver<Inbound>,
    /// Every shard's inbox, indexed by shard: aborting wakes them all.
    inboxes: &'a [Sender<Inbound>],
    /// Outbound streams indexed by destination shard (`None` for `me`).
    outs: Vec<Option<TcpStream>>,
    aborted: &'a AtomicBool,
    barrier: &'a RoundBarrier<Vec<usize>>,
    round_timeout: Duration,
    /// The round being assembled and the instant its budget runs out.
    deadline: (Round, Instant),
}

impl Link<Bytes> for SocketLink<'_> {
    type Error = SocketError;

    fn send(&mut self, to: usize, r: Round, batch: Batch<Bytes>) -> Result<(), SocketError> {
        let id = ProcessId::from_usize;
        let pkt = BatchBuilder::from_entries(batch).encode_packet(r, id(self.me), id(to));
        let stream = self.outs[to].as_mut().expect("missing outbound stream");
        stream
            .write_all(&pkt)
            .map_err(|source| SocketError::Io { peer: to, source })
    }

    fn recv(&mut self, r: Round) -> Result<Batch<Bytes>, SocketError> {
        // The round budget starts with the round's first wait.
        if self.deadline.0 != r {
            self.deadline = (r, Instant::now() + self.round_timeout);
        }
        let budget = self.deadline.1.saturating_duration_since(Instant::now());
        match self.inbox.recv_timeout(budget) {
            Ok(inbound) => inbound,
            Err(RecvTimeoutError::Timeout) => Err(SocketError::Timeout {
                shard: self.me,
                round: r,
            }),
            // The engine keeps every sender alive until all shards have
            // joined; a disconnect here means the run is being torn down
            // around us.
            Err(RecvTimeoutError::Disconnected) => Err(SocketError::Aborted),
        }
    }

    fn close(&mut self, stops: impl FnOnce() -> Vec<usize>) -> Result<Vec<usize>, SocketError> {
        self.barrier
            .wait_eval(stops)
            .map_err(|_| SocketError::Aborted)
    }

    /// Marks the run aborted (the reader threads poll the flag), fails
    /// the barrier, and posts [`SocketError::Aborted`] to every inbox.
    fn abort(&mut self) {
        // ordering: Release — pairs with the reader threads' Acquire poll
        // of the flag; it publishes nothing else, the barrier's mutex and
        // the inboxes carry the abort to the shards.
        self.aborted.store(true, Ordering::Release);
        self.barrier.abort();
        for inbox in self.inboxes {
            let _ = inbox.send(Err(SocketError::Aborted));
        }
    }

    fn is_echo(e: &SocketError) -> bool {
        matches!(e, SocketError::Aborted)
    }
}

/// Runs `algs` against `schedule` with inter-shard frames carried over
/// loopback TCP and no fault plane. Byte-identical in trace, `msg_stats`
/// and (empty) fault ledger to [`super::run_lockstep_codec`] with
/// [`NoFaults`] — and hence to [`super::run_lockstep`].
///
/// Returns a typed [`SocketError`] when the transport fails (loopback
/// unavailable, handshake timeout, mid-run stall/disconnect); see
/// [`run_socket_codec`] for the failure taxonomy.
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or an engine thread panics.
pub fn run_socket<S, A>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: SocketPlan,
) -> Result<(RunTrace, Vec<A>), SocketError>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
{
    run_socket_codec(schedule, algs, until, plan, &NoFaults)
}

/// [`run_socket`] with a fault plane: every frame — including the
/// intra-shard hand-offs that never touch a socket — passes through
/// `plane` at the receiver, exactly like the in-process codec engines.
/// Frames the plane destroys are quarantined into the trace's
/// [`crate::fault::FaultStats`]; the resulting trace is byte-identical to
/// [`super::run_lockstep_codec`] over the same schedule, seed and
/// horizon (pinned by `tests/fault_plane.rs` and `tests/conformance.rs`).
///
/// # Panics
/// Panics if `algs.len() != schedule.n()` or an engine thread panics.
pub fn run_socket_codec<S, A, P>(
    schedule: &S,
    algs: Vec<A>,
    until: RunUntil,
    plan: SocketPlan,
    plane: &P,
) -> Result<(RunTrace, Vec<A>), SocketError>
where
    S: Schedule + Sync + ?Sized,
    A: RoundAlgorithm,
    A::Msg: Wire,
    P: FaultPlane,
{
    let n = schedule.n();
    assert_eq!(
        algs.len(),
        n,
        "need exactly one algorithm instance per process"
    );
    let shards = ShardPlan::new(plan.shards).workers(n);
    let ranges = split_ranges(n, shards);

    // --- mesh establishment -------------------------------------------
    let mut listeners = Vec::with_capacity(shards);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let l = TcpListener::bind(("127.0.0.1", 0)).map_err(SocketError::Bind)?;
        addrs.push(l.local_addr().map_err(SocketError::Bind)?);
        listeners.push(l);
    }
    let deadline = Instant::now() + plan.handshake_timeout;
    let (outs, ins) = std::thread::scope(|scope| {
        let connector =
            scope.spawn(|| connect_mesh(&addrs, &plan.handshake_delays, plan.round_timeout));
        let ins = accept_mesh(&listeners, shards, deadline, plan.read_timeout);
        (connector.join().expect("connector thread panicked"), ins)
    });
    drop(listeners);
    let (outs, ins) = (outs?, ins?);

    // --- run ----------------------------------------------------------
    let abort = AtomicBool::new(false);
    let barrier = RoundBarrier::new(shards);
    let (txs, inboxes): (Vec<Sender<Inbound>>, Vec<_>) = (0..shards).map(|_| unbounded()).unzip();
    let links = outs
        .into_iter()
        .zip(inboxes)
        .enumerate()
        .map(|(me, (outs, inbox))| SocketLink {
            me,
            inbox,
            inboxes: &txs,
            outs,
            aborted: &abort,
            barrier: &barrier,
            round_timeout: plan.round_timeout,
            deadline: (0, Instant::now()),
        })
        .collect();

    std::thread::scope(|scope| {
        // One reader thread per inbound connection: parse batches off
        // the wire and forward them (or the connection's death) into the
        // owning shard's inbox. Readers drain unconditionally, so a
        // sender's `write_all` can never block on a full kernel buffer
        // for long — the backlog lives in the unbounded inbox, and it is
        // at most one batch per connection (see `docs/CONCURRENCY.md`).
        for ((me, conns), owned) in ins.into_iter().enumerate().zip(&ranges) {
            for (peer, stream) in conns {
                let tx = txs[me].clone();
                let abort = &abort;
                let senders = ranges[peer].clone();
                let cap = max_batch_len(senders.len(), owned.len(), plan.max_frame);
                let ps = PacketStream::new(stream, peer, shards, cap, plan.read_timeout);
                let parser = BatchParser {
                    peer,
                    senders,
                    me,
                    owned: owned.clone(),
                    n,
                    max_frame: plan.max_frame,
                    round: FIRST_ROUND,
                };
                scope.spawn(move || match ps {
                    Ok(mut ps) => reader_loop(&mut ps, parser, &tx, abort),
                    Err(source) => {
                        let _ = tx.send(Err(SocketError::Io { peer, source }));
                    }
                });
            }
        }
        // One failing shard aborts the others; the root cause (the
        // lowest-indexed shard with a non-`Aborted` error) is reported,
        // not the echo. A panicking shard aborts them too, then the panic
        // propagates.
        let solo = vec![MuxInstance::new(&schedule, algs, until)];
        run_shards(solo, links, &CodecTransport::new(plane)).map(|mut out| out.remove(0))
    })
}

/// Opens the `shards · (shards − 1)` outbound connections: shard `s`
/// dials every other shard's listener and introduces itself with a
/// one-varint hello. Returns, per shard, its outbound streams indexed by
/// destination shard (`None` on the diagonal).
fn connect_mesh(
    addrs: &[SocketAddr],
    delays: &[Duration],
    write_timeout: Duration,
) -> Result<Vec<Vec<Option<TcpStream>>>, SocketError> {
    let mut outs = Vec::with_capacity(addrs.len());
    for s in 0..addrs.len() {
        if let Some(d) = delays.get(s) {
            std::thread::sleep(*d);
        }
        let mut hello = Vec::with_capacity(2);
        write_uvarint(&mut hello, s as u64);
        let dial = |addr| -> io::Result<TcpStream> {
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_write_timeout(Some(write_timeout))?;
            stream.write_all(&hello).map(|()| stream)
        };
        let row = addrs.iter().enumerate().map(|(t, &addr)| match t == s {
            true => Ok(None),
            false => dial(addr)
                .map(Some)
                .map_err(|source| SocketError::Connect { to: t, source }),
        });
        outs.push(row.collect::<Result<_, _>>()?);
    }
    Ok(outs)
}

/// Accepts the inbound half of the mesh: each listener collects
/// `shards − 1` connections, reading each dialer's hello to learn which
/// shard is on the other end. Polls non-blockingly against `deadline` so
/// a peer that never connects produces a typed handshake failure, not a
/// hang.
fn accept_mesh(
    listeners: &[TcpListener],
    shards: usize,
    deadline: Instant,
    read_timeout: Duration,
) -> Result<Vec<Vec<(usize, TcpStream)>>, SocketError> {
    let mut ins: Vec<Vec<(usize, TcpStream)>> = (0..shards).map(|_| Vec::new()).collect();
    for (t, (l, accepted)) in listeners.iter().zip(ins.iter_mut()).enumerate() {
        l.set_nonblocking(true).map_err(SocketError::Bind)?;
        while accepted.len() < shards - 1 {
            match l.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_nodelay(true))
                        .and_then(|()| stream.set_read_timeout(Some(read_timeout)))
                        .map_err(|_| SocketError::Handshake {
                            detail: "configuring an accepted connection failed",
                        })?;
                    let peer = read_hello(&mut stream, deadline)?;
                    if peer >= shards || peer == t {
                        return Err(SocketError::Handshake {
                            detail: "hello announced an impossible shard id",
                        });
                    }
                    if accepted.iter().any(|(p, _)| *p == peer) {
                        return Err(SocketError::Handshake {
                            detail: "two connections announced the same shard id",
                        });
                    }
                    accepted.push((peer, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(SocketError::Handshake {
                            detail: "a peer did not connect before the handshake deadline",
                        });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(SocketError::Bind(e)),
            }
        }
    }
    Ok(ins)
}

/// Reads the dialer's one-varint hello off a freshly accepted
/// connection, bounded by the handshake deadline.
fn read_hello(stream: &mut TcpStream, deadline: Instant) -> Result<usize, SocketError> {
    let mut buf: Vec<u8> = Vec::with_capacity(2);
    let mut byte = [0u8; 1];
    loop {
        match try_read_uvarint(&buf) {
            Ok(Some((v, used))) if used == buf.len() => return Ok(v as usize),
            Ok(_) => {}
            Err(_) => {
                return Err(SocketError::Handshake {
                    detail: "malformed hello varint",
                })
            }
        }
        if Instant::now() >= deadline {
            return Err(SocketError::Handshake {
                detail: "hello not received before the handshake deadline",
            });
        }
        match stream.read(&mut byte) {
            Ok(0) => {
                return Err(SocketError::Handshake {
                    detail: "peer closed during hello",
                })
            }
            // lint: allow(panic) — `byte` is a fixed `[u8; 1]`; index 0
            // always exists.
            Ok(_) => buf.push(byte[0]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => {
                return Err(SocketError::Handshake {
                    detail: "reading hello failed",
                })
            }
        }
    }
}

/// One connection's reader thread: forward batches into the shard inbox
/// until the stream ends, the connection dies or carries a bad batch
/// (forward the typed error once, then exit), the inbox's shard is gone,
/// or the run aborts.
fn reader_loop(
    ps: &mut PacketStream,
    mut parser: BatchParser,
    tx: &Sender<Inbound>,
    abort: &AtomicBool,
) {
    loop {
        // ordering: Acquire pairs with the failing shard's Release store
        // in `SocketLink::abort`; the flag is only a stop signal.
        if abort.load(Ordering::Acquire) {
            return;
        }
        let batch = match ps.next_event() {
            Ok(PacketEvent::Packet(p)) => {
                parser.parse_batch(p).map_err(|source| SocketError::Frame {
                    peer: parser.peer,
                    source,
                })
            }
            Ok(PacketEvent::Idle) => continue,
            Ok(PacketEvent::Eof) => return,
            Err(e) => Err(e),
        };
        let failed = batch.is_err();
        // A closed inbox means the owning shard already finished.
        if tx.send(batch).is_err() || failed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::fixture::{ring_then_complete, spawn};
    use crate::engine::lockstep::{run_lockstep, run_lockstep_codec};
    use crate::fault::{encode_packet, seal, CorruptionOverlay};
    use crate::schedule::FixedSchedule;

    fn loopback() -> bool {
        TcpListener::bind(("127.0.0.1", 0)).is_ok()
    }

    #[test]
    fn socket_matches_lockstep_on_synchronous_runs() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        for n in [1usize, 2, 3, 8] {
            for shards in [1usize, 2, 3] {
                let s = FixedSchedule::synchronous(n);
                let until = RunUntil::AllDecided { max_rounds: 20 };
                // `max_frame` one byte above the largest frame: a batch
                // holds many frames, and still fits.
                let mut plan = SocketPlan::new(shards);
                plan.max_frame = seal(&(10 * n as u64)).len() + 1;
                let (t1, _) = run_lockstep(&s, spawn(n, 3), until);
                let (t2, _) = run_socket(&s, spawn(n, 3), until, plan).expect("socket run");
                assert_eq!(t1.decisions, t2.decisions, "n={n} shards={shards}");
                assert_eq!(t1.rounds_executed, t2.rounds_executed);
                assert_eq!(t1.msg_stats, t2.msg_stats);
                assert!(t2.anomalies.is_empty());
            }
        }
    }

    #[test]
    fn socket_matches_lockstep_on_dynamic_graphs_under_fixed_horizon() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        let n = 6;
        let s = ring_then_complete(n);
        for horizon in [1, 3, 8] {
            let until = RunUntil::Rounds(horizon);
            let (t1, _) = run_lockstep(&s, spawn(n, 5), until);
            let (t2, _) =
                run_socket(&s, spawn(n, 5), until, SocketPlan::new(3)).expect("socket run");
            assert_eq!(t1.decisions, t2.decisions, "horizon={horizon}");
            assert_eq!(t1.msg_stats, t2.msg_stats, "horizon={horizon}");
            assert_eq!(t1.rounds_executed, t2.rounds_executed);
        }
    }

    #[test]
    fn socket_codec_ledger_matches_lockstep_codec() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        let n = 6;
        let s = FixedSchedule::synchronous(n);
        let plane = CorruptionOverlay::new(0x50c_8e7, 0.5);
        let until = RunUntil::Rounds(8);
        let (ls, _) = run_lockstep_codec(&s, spawn(n, 4), until, &plane);
        let (sock, _) =
            run_socket_codec(&s, spawn(n, 4), until, SocketPlan::new(3), &plane).expect("socket");
        assert_eq!(ls.decisions, sock.decisions);
        assert_eq!(ls.msg_stats, sock.msg_stats);
        assert_eq!(ls.faults, sock.faults);
    }

    #[test]
    fn handshake_deadline_fails_typed_not_hanging() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        let s = FixedSchedule::synchronous(4);
        let plan = SocketPlan::new(2)
            .with_handshake_timeout(Duration::from_millis(50))
            .with_handshake_delay(1, Duration::from_millis(400));
        let started = Instant::now();
        let err = run_socket(&s, spawn(4, 2), RunUntil::Rounds(4), plan)
            .expect_err("late shard must fail the handshake");
        assert!(matches!(err, SocketError::Handshake { .. }), "got {err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "handshake failure was not bounded"
        );
    }

    /// Runs the reader of shard 0 of a 4-process, 2-shard run on a
    /// loopback connection from shard 1, feeds it `bytes` and a clean
    /// close, and returns everything it forwarded.
    fn read_from_shard_1(bytes: &[u8]) -> Vec<Inbound> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let mut writer = TcpStream::connect(listener.local_addr().expect("addr")).expect("dial");
        let (stream, _) = listener.accept().expect("accept");
        let mut ps = PacketStream::new(stream, 1, 2, 1 << 16, Duration::from_secs(1)).expect("ps");
        writer.write_all(bytes).expect("write");
        drop(writer);
        let parser = BatchParser {
            peer: 1,
            senders: 2..4,
            me: 0,
            owned: 0..2,
            n: 4,
            max_frame: 1 << 16,
            round: FIRST_ROUND,
        };
        let (tx, rx) = unbounded();
        reader_loop(&mut ps, parser, &tx, &AtomicBool::new(false));
        drop(tx);
        rx.into_iter().collect()
    }

    #[test]
    fn reader_rejects_hostile_batches_with_one_typed_error() {
        if !loopback() {
            eprintln!("skipping: loopback unavailable");
            return;
        }
        let id = ProcessId::from_usize;
        let batch = |edges: &[(usize, usize)]| {
            let mut b = BatchBuilder::new();
            for (k, &(from, to)) in edges.iter().enumerate() {
                b.push(0, id(from), id(to), seal(&(k as u64)));
            }
            b.encode()
        };
        let packet = |r, from, to, batch: &[u8]| encode_packet(r, id(from), id(to), batch);
        let good = batch(&[(2, 1)]);
        // The control: a well-framed round-1 packet is forwarded as one
        // batch, and the clean close then ends the reader.
        let first = packet(1, 1, 0, &good);
        let got = read_from_shard_1(&first);
        assert!(
            matches!(got.as_slice(), [Ok(b)] if b.len() == 1),
            "got {got:?}"
        );
        // Each hostile packet follows that good one.
        let hostile = [
            ("truncated batch", packet(2, 1, 0, &good[..good.len() - 2])),
            ("garbage batch", packet(2, 1, 0, &[0x80, 0x00, 0xde])),
            ("sender is not the peer", packet(2, 0, 0, &good)),
            ("receiver is not this shard", packet(2, 1, 1, &good)),
            ("a round again", packet(1, 1, 0, &good)),
            ("a round skipped", packet(3, 1, 0, &good)),
            ("to another shard", packet(2, 1, 0, &batch(&[(2, 3)]))),
            ("from another shard", packet(2, 1, 0, &batch(&[(0, 1)]))),
            ("edge twice", packet(2, 1, 0, &batch(&[(2, 1), (2, 1)]))),
            ("disordered", packet(2, 1, 0, &batch(&[(3, 0), (2, 1)]))),
        ];
        for (what, bytes) in hostile {
            let got = read_from_shard_1(&[first.as_slice(), &bytes].concat());
            let typed = matches!(&got[..], [Ok(_), Err(SocketError::Frame { peer: 1, .. })]);
            assert!(typed, "{what}: got {got:?}");
        }
    }

    #[test]
    fn plan_builders_validate() {
        let plan = SocketPlan::new(3)
            .with_read_timeout(Duration::from_millis(10))
            .with_round_timeout(Duration::from_millis(20))
            .with_handshake_timeout(Duration::from_millis(30))
            .with_handshake_delay(2, Duration::from_millis(5));
        assert_eq!(plan.round_timeout, Duration::from_millis(20));
        assert_eq!(plan.handshake_delays.len(), 3);
        assert_eq!(plan.handshake_delays[2], Duration::from_millis(5));
        assert_eq!(plan.handshake_delays[0], Duration::ZERO);
    }
}
