//! The repository benchmark: one seeded, single-threaded closed-loop
//! driver per workload (one op in flight), every op checked for
//! correctness.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload solo_socket --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` runs the same ops alternately without and with the tracing
//! adapters and prints the per-layer metrics, per traced op. The last
//! line of standard output is one JSON object; a human-readable summary
//! goes to standard error. See `perfbench/RATIONALE.md`.

mod adapters;
mod procfs;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use adapters::{Tally, DECODE, ENCODE, JOURNAL_FLUSH, JOURNAL_SCAN, JOURNAL_WRITE, TAMPER};
use workloads::{Ran, Workload, SHARDS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Untimed ops at the end of set-up: enough to fill the agreement pool
/// and the engines' lazily grown buffers.
const WARM_UP_OPS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Op accounting shared by both modes.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    correct: bool,
}

impl Ops {
    /// Runs and checks one op. `Some` only for an op that succeeded and
    /// whose output is correct.
    fn run(&mut self, w: &mut dyn Workload, case: usize, traced: bool) -> Option<Ran> {
        self.attempted += 1;
        match w.run(case, traced) {
            Err(e) => {
                eprintln!("op {case} failed: {e}");
                self.failed += 1;
                None
            }
            Ok(ran) => {
                let violations = w.check(case, &ran);
                if violations.is_empty() {
                    return Some(ran);
                }
                for v in &violations {
                    eprintln!("op {case} incorrect: {v}");
                }
                self.correct = false;
                self.failed += 1;
                None
            }
        }
    }

    /// Untimed ops that fill pools and lazy buffers.
    fn warm_up(&mut self, w: &mut dyn Workload) {
        for case in 0..w.cases().min(WARM_UP_OPS) {
            self.run(w, case, false);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Linear-interpolation quantile of a sorted, non-empty sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Latencies of every successful op, by case.
struct CaseTimes(Vec<Vec<f64>>);

impl CaseTimes {
    fn new(cases: usize) -> Self {
        CaseTimes(vec![Vec::new(); cases])
    }

    fn push(&mut self, case: usize, ran: &Ran) {
        self.0[case].push(ms(ran.elapsed));
    }

    fn ops(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }

    /// Each case's latency on an undisturbed machine: the lower decile of
    /// its repetitions. The cores this runs on are shared, and a co-tenant
    /// can slow them by half for seconds at a time; every case recurs once
    /// per rotation, so its lower decile comes from the undisturbed
    /// stretches as long as they cover a tenth of the run.
    fn typical(&self) -> Vec<f64> {
        self.0
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| {
                let mut v = v.clone();
                v.sort_by(f64::total_cmp);
                quantile(&v, 0.1)
            })
            .collect()
    }
}

/// Closed loop with tracing off: whole rotations of ops until `seconds`
/// have passed.
fn end_to_end(args: &Args, ops: &mut Ops) -> Metrics {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut w = None;
    for _ in 0..SETUP_REPEATS {
        drop(w.take());
        let t = Instant::now();
        let mut built = workloads::build(&args.workload, args.seed).expect("workload name checked");
        ops.warm_up(built.as_mut());
        setups.push(t.elapsed().as_secs_f64());
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");
    let cases = w.cases();

    let mut times = CaseTimes::new(cases);
    // Decided processes per case: deterministic, the same in every
    // repetition.
    let mut decided = vec![0u64; cases];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        for (case, decided) in decided.iter_mut().enumerate() {
            if let Some(ran) = ops.run(w.as_mut(), case, false) {
                times.push(case, &ran);
                *decided = ran.traces.iter().map(|t| t.decided_count() as u64).sum();
            }
        }
    }
    // Percentiles over the rotation's cases, each at its typical latency;
    // rotations have an odd number of cases, so the median is one case.
    let mut typical = times.typical();
    typical.sort_by(f64::total_cmp);
    let (p50, p90) = if typical.is_empty() {
        (0.0, 0.0)
    } else {
        (quantile(&typical, 0.5), quantile(&typical, 0.9))
    };
    let rotation_s = typical.iter().sum::<f64>() / 1e3;
    eprintln!(
        "{}: {} ops timed over {:.1} s in rotations of {cases}, set-ups {:.3?} s, \
         typical op ms {:.1?}",
        args.workload,
        times.ops(),
        start.elapsed().as_secs_f64(),
        setups,
        typical
    );
    vec![
        ("setup_s", median(&setups), "s"),
        ("op_ms.p50", p50, "ms"),
        ("op_ms.p90", p90, "ms"),
        (
            "decisions_per_s",
            decided.iter().sum::<u64>() as f64 / rotation_s.max(1e-9),
            "1/s",
        ),
        ("peak_rss_mib", procfs::peak_rss_mib(), "MiB"),
    ]
}

/// Per-op totals of the traced ops that the traces themselves report.
#[derive(Default)]
struct TraceTotals {
    rounds: u64,
    deliveries: u64,
    delivered_bytes: u64,
    quarantined: u64,
    dropped: u64,
}

/// Alternating untraced and traced rotations until `seconds` have
/// passed; per-layer metrics per traced op. `cores` is the number of
/// CPUs the process may run on, for `engine.idle_ms`.
fn traced(args: &Args, ops: &mut Ops, cores: usize) -> Metrics {
    let mut w = workloads::build(&args.workload, args.seed).expect("workload name checked");
    ops.warm_up(w.as_mut());
    let cases = w.cases();
    adapters::reset_all();

    let mut untraced_fp: Vec<Option<String>> = vec![None; cases];
    let (mut plain, mut traced) = (CaseTimes::new(cases), CaseTimes::new(cases));
    let mut totals = TraceTotals::default();
    let (mut cpu_ms, mut wall_ms, mut lo_packets, mut lo_bytes) = (0.0, 0.0, 0u64, 0u64);
    let mut traced_ops = 0u64;
    let start = Instant::now();
    loop {
        for (case, fp) in untraced_fp.iter_mut().enumerate() {
            if let Some(ran) = ops.run(w.as_mut(), case, false) {
                plain.push(case, &ran);
                *fp = Some(format!("{:?}", ran.traces));
            }
        }
        for (case, fp) in untraced_fp.iter().enumerate() {
            let before = procfs::sample();
            let t = Instant::now();
            let out = w.run(case, true);
            let wall = t.elapsed();
            let after = procfs::sample();
            ops.attempted += 1;
            traced_ops += 1;
            cpu_ms += after.cpu_ms - before.cpu_ms;
            wall_ms += ms(wall);
            lo_packets += after.lo_packets - before.lo_packets;
            lo_bytes += after.lo_bytes - before.lo_bytes;
            let ran = match out {
                Ok(ran) => ran,
                Err(e) => {
                    eprintln!("traced op {case} failed: {e}");
                    ops.failed += 1;
                    continue;
                }
            };
            let mut violations = w.check(case, &ran);
            if fp.as_deref() != Some(format!("{:?}", ran.traces).as_str()) {
                violations.push("traced trace differs from the untraced one".to_owned());
            }
            if !violations.is_empty() {
                for v in &violations {
                    eprintln!("traced op {case} incorrect: {v}");
                }
                ops.correct = false;
                ops.failed += 1;
                continue;
            }
            traced.push(case, &ran);
            for trace in &ran.traces {
                totals.rounds += u64::from(trace.rounds_executed);
                totals.deliveries += trace.msg_stats.deliveries;
                totals.delivered_bytes += trace.msg_stats.delivered_bytes;
                totals.quarantined += trace.faults.quarantined() as u64;
                totals.dropped += trace.faults.dropped() as u64;
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let ops_f = traced_ops as f64;
    let per = |x: f64| x / ops_f;
    let count = |t: Tally| per(t.calls as f64);
    let busy = |t: Tally| per(t.busy_ms());
    let adapter_busy: f64 = adapters::TIMED.iter().map(|c| c.get().busy_ms()).sum();
    let (enc, dec, wr) = (ENCODE.get(), DECODE.get(), JOURNAL_WRITE.get());
    let ratios: Vec<f64> = traced
        .typical()
        .iter()
        .zip(plain.typical())
        .map(|(t, p)| t / p)
        .collect();
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    };
    eprintln!(
        "{}: {} traced and {} untraced ops over {:.1} s",
        args.workload,
        traced.ops(),
        plain.ops(),
        start.elapsed().as_secs_f64()
    );
    vec![
        (
            "schedule.graph_into.calls",
            count(adapters::SCHEDULE.get()),
            "count",
        ),
        (
            "schedule.graph_into.busy_ms",
            busy(adapters::SCHEDULE.get()),
            "ms",
        ),
        ("alg1.send.calls", count(adapters::SEND.get()), "count"),
        ("alg1.send.busy_ms", busy(adapters::SEND.get()), "ms"),
        (
            "alg1.receive.calls",
            count(adapters::RECEIVE.get()),
            "count",
        ),
        ("alg1.receive.busy_ms", busy(adapters::RECEIVE.get()), "ms"),
        (
            "alg1.restore.calls",
            count(adapters::RESTORE.get()),
            "count",
        ),
        ("alg1.restore.busy_ms", busy(adapters::RESTORE.get()), "ms"),
        ("pool.spawn.busy_ms", busy(adapters::POOL_SPAWN.get()), "ms"),
        ("wire.encode.calls", count(enc), "count"),
        ("wire.encode.bytes", per(enc.units as f64), "bytes"),
        ("wire.encode.busy_ms", busy(enc), "ms"),
        ("wire.decode.calls", count(dec), "count"),
        ("wire.decode.bytes", per(dec.units as f64), "bytes"),
        ("wire.decode.busy_ms", busy(dec), "ms"),
        (
            "wire.decodes_per_delivery",
            if totals.deliveries == 0 {
                0.0
            } else {
                dec.calls as f64 / totals.deliveries as f64
            },
            "ratio",
        ),
        ("fault.tamper.calls", count(TAMPER.get()), "count"),
        ("fault.quarantined", per(totals.quarantined as f64), "count"),
        ("fault.dropped", per(totals.dropped as f64), "count"),
        ("engine.self_cpu_ms", per(cpu_ms - adapter_busy), "ms"),
        ("engine.idle_ms", per(wall_ms * cores as f64 - cpu_ms), "ms"),
        ("engine.rounds", per(totals.rounds as f64), "count"),
        ("engine.deliveries", per(totals.deliveries as f64), "count"),
        (
            "engine.delivered_bytes",
            per(totals.delivered_bytes as f64),
            "bytes",
        ),
        ("socket.packets", per(lo_packets as f64), "count"),
        ("socket.bytes_written", per(lo_bytes as f64), "bytes"),
        ("journal.write.calls", count(wr), "count"),
        ("journal.write.bytes", per(wr.units as f64), "bytes"),
        ("journal.write.busy_ms", busy(wr), "ms"),
        ("journal.flush.calls", count(JOURNAL_FLUSH.get()), "count"),
        ("journal.scan.busy_ms", busy(JOURNAL_SCAN.get()), "ms"),
        ("tracing.overhead", overhead, "ratio"),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) if workloads::NAMES.contains(&a.workload.as_str()) => a,
        Ok(a) => {
            eprintln!(
                "unknown workload {}; one of {:?}",
                a.workload,
                workloads::NAMES
            );
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("{e}\nusage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let cores = match procfs::pin_to_first_cpu() {
        Some(cpu) => {
            eprintln!("pinned to CPU {cpu}");
            1
        }
        None => {
            eprintln!("could not pin to one CPU; running unpinned");
            SHARDS
        }
    };
    let mut ops = Ops {
        correct: true,
        ..Ops::default()
    };
    let metrics = if args.trace {
        traced(&args, &mut ops, cores)
    } else {
        end_to_end(&args, &mut ops)
    };

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.correct, ops.attempted, ops.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    eprintln!(
        "failed_frac = {}",
        ops.failed as f64 / ops.attempted.max(1) as f64
    );
    println!("{json}");
    ExitCode::SUCCESS
}
