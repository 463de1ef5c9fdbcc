//! Tracing adapters: each wraps one public seam of the library and times
//! the calls that cross it, so the per-layer breakdown is measured from
//! outside the program without touching its code.
//!
//! | adapter | seam | layer |
//! |---|---|---|
//! | [`Traced`] | `RoundAlgorithm` + `Recoverable` | `sskel-kset::alg1` |
//! | [`TracedMsg`] | `Wire` / `WireSized` | `sskel-model::wire` |
//! | [`TracedSchedule`] | `Schedule` | `sskel-model::schedule` / `adversary` |
//! | [`TracedPlane`] | `FaultPlane` | `sskel-model::fault` |
//! | [`TracedSink`] | `io::Write` (journal sink) | `sskel-model::journal` |
//!
//! The adapters only observe: every call is forwarded unchanged, so a
//! traced run's trace is byte-identical to the untraced one (the harness
//! asserts this on every traced op). Untraced ops never construct an
//! adapter, so tracing costs nothing when it is off.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::{Buf, BufMut, Bytes};
use sskel_graph::{Digraph, ProcessId, Round};
use sskel_kset::{KSetAgreement, KSetMsg};
use sskel_model::{
    FaultPlane, Received, Recoverable, RoundAlgorithm, Schedule, Tamper, Value, Wire, WireError,
    WireSized,
};

/// Calls, units (bytes where the layer moves bytes) and busy time of one
/// layer boundary. Shared by every engine thread; the counts are
/// statistics that publish no other data, so `Relaxed` suffices.
pub struct Counter {
    calls: AtomicU64,
    units: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of a [`Counter`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub calls: u64,
    pub units: u64,
    pub ns: u64,
}

impl Tally {
    pub fn busy_ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

impl Counter {
    const fn new() -> Self {
        Counter {
            calls: AtomicU64::new(0),
            units: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    pub fn add(&self, units: u64, since: Option<Instant>) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        if let Some(t) = since {
            self.ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.units.store(0, Ordering::Relaxed);
        self.ns.store(0, Ordering::Relaxed);
    }
}

pub static SCHEDULE: Counter = Counter::new();
pub static SEND: Counter = Counter::new();
pub static RECEIVE: Counter = Counter::new();
pub static RESTORE: Counter = Counter::new();
pub static POOL_SPAWN: Counter = Counter::new();
pub static ENCODE: Counter = Counter::new();
pub static DECODE: Counter = Counter::new();
pub static TAMPER: Counter = Counter::new();
pub static JOURNAL_WRITE: Counter = Counter::new();
pub static JOURNAL_FLUSH: Counter = Counter::new();
pub static JOURNAL_SCAN: Counter = Counter::new();

/// Every timed boundary: their busy times sum to the adapters' share of
/// the process CPU (`engine.self_cpu_ms` is the rest). Counters that only
/// count (tamper, flush) are not listed.
pub const TIMED: [&Counter; 9] = [
    &SCHEDULE,
    &SEND,
    &RECEIVE,
    &RESTORE,
    &POOL_SPAWN,
    &ENCODE,
    &DECODE,
    &JOURNAL_WRITE,
    &JOURNAL_SCAN,
];

pub fn reset_all() {
    for c in TIMED.into_iter().chain([&TAMPER, &JOURNAL_FLUSH]) {
        c.reset();
    }
}

/// Runs `f`, charging one call and its wall time to `c`.
pub fn timed<T>(c: &Counter, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    c.add(0, Some(t));
    out
}

/// [`KSetAgreement`] behind the `RoundAlgorithm` + `Recoverable` seam.
pub struct Traced {
    inner: KSetAgreement,
    /// The deliveries re-keyed to the inner message type; emptied right
    /// after each `receive`, as the engines empty theirs.
    scratch: Received<KSetMsg>,
}

impl Traced {
    pub fn new(inner: KSetAgreement) -> Self {
        let n = inner.universe();
        Traced {
            inner,
            scratch: Received::new(n),
        }
    }

    pub fn into_inner(self) -> KSetAgreement {
        self.inner
    }
}

impl RoundAlgorithm for Traced {
    type Msg = TracedMsg;

    fn send(&self, r: Round) -> TracedMsg {
        let m = timed(&SEND, || self.inner.send(r));
        TracedMsg(Arc::new(m))
    }

    fn receive(&mut self, r: Round, received: &Received<TracedMsg>) {
        for (q, m) in received.iter() {
            self.scratch.insert(q, Arc::clone(&m.0));
        }
        let (inner, scratch) = (&mut self.inner, &self.scratch);
        timed(&RECEIVE, || inner.receive(r, scratch));
        self.scratch.clear();
    }

    fn decision(&self) -> Option<Value> {
        self.inner.decision()
    }
}

impl Recoverable for Traced {
    fn snapshot(&self) -> Bytes {
        self.inner.snapshot()
    }

    fn restore(bytes: &[u8]) -> Result<Self, WireError> {
        timed(&RESTORE, || KSetAgreement::restore(bytes)).map(Traced::new)
    }

    fn snapshot_due(&self, r: Round) -> bool {
        self.inner.snapshot_due(r)
    }
}

/// [`KSetMsg`] behind the `Wire` seam: encodes and decodes to the same
/// bytes, counting calls, bytes and time.
#[derive(Clone, Debug)]
pub struct TracedMsg(Arc<KSetMsg>);

impl WireSized for TracedMsg {
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes()
    }
}

impl Wire for TracedMsg {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        let t = Instant::now();
        self.0.encode(buf);
        ENCODE.add(self.0.wire_bytes() as u64, Some(t));
    }

    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        let before = buf.remaining();
        let t = Instant::now();
        let m = KSetMsg::decode(buf);
        DECODE.add((before - buf.remaining()) as u64, Some(t));
        m.map(|m| TracedMsg(Arc::new(m)))
    }
}

/// A schedule behind the `Schedule` seam. Instances sharing one inner
/// schedule must share one `TracedSchedule` too: the multiplex engine
/// keys shared synthesis on the schedule object's address.
pub struct TracedSchedule<'a>(pub &'a dyn Schedule);

impl Schedule for TracedSchedule<'_> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn graph(&self, r: Round) -> Digraph {
        timed(&SCHEDULE, || self.0.graph(r))
    }

    fn graph_into(&self, r: Round, out: &mut Digraph) {
        timed(&SCHEDULE, || self.0.graph_into(r, out));
    }

    fn stabilization_round(&self) -> Round {
        self.0.stabilization_round()
    }

    fn stable_skeleton(&self) -> Digraph {
        self.0.stable_skeleton()
    }
}

/// A fault plane behind the `FaultPlane` seam, counting its verdicts.
pub struct TracedPlane<P>(pub P);

impl<P: FaultPlane> FaultPlane for TracedPlane<P> {
    fn tamper(&self, r: Round, from: ProcessId, to: ProcessId) -> Option<Tamper> {
        TAMPER.add(0, None);
        self.0.tamper(r, from, to)
    }
}

/// A journal sink behind the `io::Write` seam.
pub struct TracedSink<W>(pub W);

impl<W: Write> Write for TracedSink<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let t = Instant::now();
        let out = self.0.write(buf);
        let wrote = out.as_ref().map_or(0, |&k| k as u64);
        JOURNAL_WRITE.add(wrote, Some(t));
        out
    }

    fn flush(&mut self) -> io::Result<()> {
        JOURNAL_FLUSH.add(0, None);
        self.0.flush()
    }
}

/// The algorithm types an op can run: the plain algorithm (untraced) or
/// its adapter (traced).
pub trait Alg: Recoverable<Msg = Self::M> {
    type M: Wire + Clone + Send + Sync + 'static;
    fn wrap(inner: KSetAgreement) -> Self;
    fn unwrap(self) -> KSetAgreement;
}

impl Alg for KSetAgreement {
    type M = KSetMsg;
    fn wrap(inner: KSetAgreement) -> Self {
        inner
    }
    fn unwrap(self) -> KSetAgreement {
        self
    }
}

impl Alg for Traced {
    type M = TracedMsg;
    fn wrap(inner: KSetAgreement) -> Self {
        Traced::new(inner)
    }
    fn unwrap(self) -> KSetAgreement {
        self.into_inner()
    }
}
