//! Process-wide counters from `/proc/self/{stat,status,net/dev}`: CPU
//! time of every thread the process ran (live or exited), the peak
//! resident set, and the loopback interface's transmit counters.
//!
//! Socket traffic is read off the loopback interface because
//! `/proc/self/io` does not see it: its `syscr`/`syscw`/`wchar` count
//! `read`/`write` on files, while the standard library sends and
//! receives on a `TcpStream` with `send`/`recv`. The interface counters
//! belong to the network namespace, so they include any other loopback
//! traffic in it while an op runs.

use std::fs;
use std::process::{Command, Stdio};

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// User + system CPU of the whole process, in milliseconds.
    pub cpu_ms: f64,
    /// Packets sent over the loopback interface.
    pub lo_packets: u64,
    /// Bytes sent over the loopback interface, TCP/IP headers included.
    pub lo_bytes: u64,
}

pub fn sample() -> Sample {
    let (lo_bytes, lo_packets) = loopback_tx().unwrap_or((0, 0));
    Sample {
        cpu_ms: cpu_ms().unwrap_or(0.0),
        lo_packets,
        lo_bytes,
    }
}

fn cpu_ms() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / TICKS_PER_SEC)
}

/// `(bytes, packets)` transmitted on `lo`.
fn loopback_tx() -> Option<(u64, u64)> {
    let dev = fs::read_to_string("/proc/self/net/dev").ok()?;
    let line = dev
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("lo:"))?;
    // Eight receive columns precede the transmit bytes and packets.
    let mut tx = line.split_whitespace().skip(8);
    Some((tx.next()?.parse().ok()?, tx.next()?.parse().ok()?))
}

/// `VmHWM`, the peak resident set of the process, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pins the process, and every thread it starts afterwards, to the first
/// CPU it may run on, with `taskset`. Returns that CPU, or `None` when
/// pinning failed (the run then goes on unpinned).
///
/// On the shared two-vCPU host this benchmark is sized for, a run that
/// keeps both vCPUs busy was 1.0× or 1.6–2× slower for minutes at a
/// time, depending on where the host placed them, while single-threaded
/// runs stayed within a few per cent. On one CPU the engines still run
/// two shards or workers, time-sharing the core.
pub fn pin_to_first_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first: usize = allowed.trim().split([',', '-']).next()?.parse().ok()?;
    let pinned = Command::new("taskset")
        .args(["-cp", &first.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .status()
        .ok()?
        .success();
    pinned.then_some(first)
}
