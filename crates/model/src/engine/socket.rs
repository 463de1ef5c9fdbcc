//! Real-socket round engine: sealed frames over loopback TCP.
//!
//! The other engines hand payloads between threads in-process — even
//! codec mode, where every payload crosses an encode/checksum/decode
//! boundary, moves its bytes through an mpsc channel. This engine puts
//! the *operating system* on the byte path: processes are grouped into
//! contiguous shards exactly like [`super::sharded`], but every
//! inter-shard frame travels through a genuine [`TcpStream`] pair on
//! loopback (`127.0.0.1`), with the kernel free to fragment, coalesce
//! and delay it like any other TCP traffic.
//!
//! The architecture, in layers:
//!
//! * **data plane** — a full mesh of directed TCP connections between
//!   shards, established during a handshake phase (bind one listener
//!   per shard, connect `shards · (shards − 1)` streams, each opened by
//!   its sending shard and identified by a one-varint hello). Frames are
//!   [`crate::fault::seal`]ed exactly as in the in-process codec engines
//!   and carried inside [`crate::fault::encode_packet`] stream framing;
//!   one **reader thread per connection** parses packets incrementally
//!   ([`PacketStream`]) and forwards them into the receiving shard's
//!   inbox, so TCP backpressure can never deadlock a round (senders
//!   always find a draining peer).
//! * **control plane** — round closing stays in shared memory: the shard
//!   workers are the sharded engine's own round loop, run over a socket
//!   link, so the speculative-broadcast + leader-verdict protocol is the
//!   same code on the same [`RoundBarrier`]. One shard's socket failure
//!   (or panic) aborts it and wakes every inbox, releasing each peer with
//!   a typed error instead of a hang.
//! * **failure domain** — socket-level trouble is **transport**-fatal
//!   and typed ([`SocketError`]): a mid-frame stall past the read
//!   timeout, a disconnect inside a packet, junk or oversized stream
//!   framing, a round that cannot assemble within its budget. In-frame
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use bytes::Bytes;
use sskel_graph::Round;

use crate::algorithm::RoundAlgorithm;
use crate::engine::sharded::{run_shards, Link, Packet, ShardPlan};
use crate::engine::RunUntil;
use crate::fault::{
    encode_packet, CodecTransport, FaultPlane, FramedPacket, NoFaults, PacketBuffer,
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
    /// Wall-clock budget for one shard to assemble one round's frames.
    /// Exceeding it aborts the run with [`SocketError::Timeout`].
    pub round_timeout: Duration,
    /// Wall-clock budget for the whole connect/accept/hello mesh
    /// establishment.
    pub handshake_timeout: Duration,
    /// Upper bound on a packet's advertised frame length; a stream
    /// announcing more is treated as framing garbage.
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

    /// The contiguous per-shard process ranges (identical partition to
    /// the sharded engine).
    fn ranges(&self, n: usize) -> Vec<std::ops::Range<usize>> {
        ShardPlan::new(self.shards).ranges(n)
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
    /// preamble, oversized length prefix, out-of-domain header).
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
    /// A shard could not assemble a round's frames within the round
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
    /// a universe of `universe` processes with frames capped at
    /// `max_frame` bytes, and reading with `read_timeout`.
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

/// What a reader thread forwards: a parsed packet, or the typed error
/// that killed its connection.
type Inbound = Result<Packet<Bytes>, SocketError>;

/// The socket engine's [`Link`]: inter-shard packets are written to this
/// shard's outbound TCP streams, inbound ones arrive through its reader
/// threads' inbox under the per-round deadline, and rounds close on the
/// shared [`RoundBarrier`]. Every error it raises itself first aborts the
/// run ([`Link::abort`]), so no peer is left parked.
struct SocketLink<'a> {
    me: usize,
    inbox: Receiver<Inbound>,
    /// Every shard's inbox, indexed by shard: aborting wakes them all.
    inboxes: &'a [Sender<Inbound>],
    /// Outbound streams indexed by destination shard (`None` for `me`).
    outs: Vec<Option<TcpStream>>,
    aborted: &'a AtomicBool,
    barrier: &'a RoundBarrier,
    round_timeout: Duration,
    /// The round being assembled and the instant its budget runs out.
    deadline: (Round, Instant),
}

impl SocketLink<'_> {
    /// Aborts the run and returns `e`.
    fn fail<T>(&mut self, e: SocketError) -> Result<T, SocketError> {
        self.abort();
        Err(e)
    }
}

impl Link<Bytes> for SocketLink<'_> {
    type Error = SocketError;

    fn send(&mut self, to: usize, (r, p, v, frame): Packet<Bytes>) -> Result<(), SocketError> {
        let pkt = encode_packet(r, p, v, &frame);
        let stream = self.outs[to].as_mut().expect("missing outbound stream");
        match stream.write_all(&pkt) {
            Ok(()) => Ok(()),
            Err(source) => self.fail(SocketError::Io { peer: to, source }),
        }
    }

    fn recv(&mut self, r: Round) -> Result<Packet<Bytes>, SocketError> {
        // The round budget starts with the round's first wait.
        if self.deadline.0 != r {
            self.deadline = (r, Instant::now() + self.round_timeout);
        }
        let budget = self.deadline.1.saturating_duration_since(Instant::now());
        match self.inbox.recv_timeout(budget) {
            Ok(Ok(packet)) => Ok(packet),
            Ok(Err(e)) => self.fail(e),
            Err(RecvTimeoutError::Timeout) => self.fail(SocketError::Timeout {
                shard: self.me,
                round: r,
            }),
            // The engine keeps every sender alive until all shards have
            // joined; a disconnect here means the run is being torn down
            // around us.
            Err(RecvTimeoutError::Disconnected) => Err(SocketError::Aborted),
        }
    }

    fn close(&mut self, stop: impl FnOnce() -> bool) -> Result<bool, SocketError> {
        self.barrier
            .wait_eval(stop)
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
    let ranges = plan.ranges(n);
    let shards = ranges.len();

    // --- mesh establishment -------------------------------------------
    let mut listeners = Vec::with_capacity(shards);
    let mut addrs: Vec<SocketAddr> = Vec::with_capacity(shards);
    for _ in 0..shards {
        let l = TcpListener::bind(("127.0.0.1", 0)).map_err(SocketError::Bind)?;
        addrs.push(l.local_addr().map_err(SocketError::Bind)?);
        listeners.push(l);
    }
    let deadline = Instant::now() + plan.handshake_timeout;
    let (outs_res, ins_res) = std::thread::scope(|scope| {
        let addrs = &addrs;
        let delays = &plan.handshake_delays;
        let connector = scope.spawn(move || connect_mesh(addrs, delays, plan.round_timeout));
        let ins = accept_mesh(&listeners, shards, deadline, plan.read_timeout);
        (connector.join().expect("connector thread panicked"), ins)
    });
    drop(listeners);
    let outs = outs_res?;
    let ins = ins_res?;

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
        // One reader thread per inbound connection: parse packets off
        // the wire and forward them (or the connection's death) into the
        // owning shard's inbox. Readers drain unconditionally, so a
        // sender's `write_all` can never block on a full kernel buffer
        // for long — the flow-control argument of the sharded engine
        // carries over with the backlog living in the unbounded inbox.
        for (t, conns) in ins.into_iter().enumerate() {
            for (peer, stream) in conns {
                let tx = txs[t].clone();
                let abort = &abort;
                let ps = PacketStream::new(stream, peer, n, plan.max_frame, plan.read_timeout);
                scope.spawn(move || match ps {
                    Ok(mut ps) => reader_loop(&mut ps, &tx, abort),
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
        run_shards(
            schedule,
            algs,
            until,
            &ranges,
            links,
            &CodecTransport::new(plane),
        )
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
    let shards = addrs.len();
    let mut outs: Vec<Vec<Option<TcpStream>>> = (0..shards)
        .map(|_| (0..shards).map(|_| None).collect())
        .collect();
    for (s, row) in outs.iter_mut().enumerate() {
        if let Some(d) = delays.get(s) {
            std::thread::sleep(*d);
        }
        for (t, slot) in row.iter_mut().enumerate() {
            if t == s {
                continue;
            }
            // lint: allow(panic) — `t` enumerates a row of the
            // `addrs.len()`-square mesh, so `t < addrs.len()`.
            let mut stream = TcpStream::connect(addrs[t])
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            stream
                .set_nodelay(true)
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            stream
                .set_write_timeout(Some(write_timeout))
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            let mut hello = Vec::with_capacity(2);
            write_uvarint(&mut hello, s as u64);
            stream
                .write_all(&hello)
                .map_err(|e| SocketError::Connect { to: t, source: e })?;
            *slot = Some(stream);
        }
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
                Ok((stream, _)) => {
                    let setup = stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.set_nodelay(true))
                        .and_then(|()| stream.set_read_timeout(Some(read_timeout)));
                    if setup.is_err() {
                        return Err(SocketError::Handshake {
                            detail: "configuring an accepted connection failed",
                        });
                    }
                    let mut stream = stream;
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

/// One connection's reader thread: forward packets into the shard inbox
/// until the stream ends, the connection dies (forward the typed error
/// once, then exit), the inbox's shard is gone, or the run aborts.
fn reader_loop(ps: &mut PacketStream, tx: &Sender<Inbound>, abort: &AtomicBool) {
    loop {
        // ordering: Acquire pairs with the failing shard's Release store
        // in `SocketLink::fail`; the flag is only a stop signal.
        if abort.load(Ordering::Acquire) {
            return;
        }
        match ps.next_event() {
            Ok(PacketEvent::Packet(p)) => {
                if tx.send(Ok((p.round, p.from, p.to, p.frame))).is_err() {
                    // The owning shard finished and dropped its inbox:
                    // whatever remains on this stream is a speculative
                    // round that will never execute.
                    return;
                }
            }
            Ok(PacketEvent::Idle) => {}
            Ok(PacketEvent::Eof) => return,
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sskel_graph::{Digraph, ProcessId};

    use crate::engine::fixture::spawn;
    use crate::engine::lockstep::{run_lockstep, run_lockstep_codec};
    use crate::fault::CorruptionOverlay;
    use crate::schedule::{FixedSchedule, TableSchedule};

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
                let (t1, _) = run_lockstep(&s, spawn(n, 3), until);
                let (t2, _) = run_socket(&s, spawn(n, 3), until, SocketPlan::new(shards))
                    .expect("socket run");
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
        let ring = {
            let mut g = Digraph::empty(n);
            g.add_self_loops();
            for i in 0..n {
                g.add_edge(ProcessId::from_usize(i), ProcessId::from_usize((i + 1) % n));
            }
            g
        };
        let s = TableSchedule::new(
            vec![ring.clone(), Digraph::complete(n), ring],
            Digraph::complete(n),
        );
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
