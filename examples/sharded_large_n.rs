//! Algorithm 1 at n = 256 on 4 worker threads — the sharded engine.
//!
//! One-thread-per-process simulation stops scaling long before n = 256 on a
//! small machine: every simulated round costs hundreds of context switches,
//! and channel-per-process delivery thrashes the scheduler. The sharded
//! engine assigns 64 processes to each of 4 threads, delivers intra-shard
//! messages by direct `Arc` hand-off (no channel), and closes each round
//! with one barrier phase per thread — 4 parks per round instead of 256.
//!
//! The run is then checked against the lockstep engine: traces and final
//! estimator states must be identical, because a run of the paper's model
//! is fully determined by inputs plus the graph sequence.
//!
//! ```text
//! cargo run --release --example sharded_large_n
//! ```

use std::time::Instant;

use sskel::prelude::*;

fn main() {
    let n = 256;
    let horizon = 48;
    let schedule = sparse_racks(n);
    let inputs: Vec<Value> = (0..n as Value).map(|i| 10_000 - i).collect();
    // A fixed horizon keeps the demo short: decisions need r ≥ n = 256
    // rounds, but the estimator does its full per-round work from round 1,
    // which is what we want to time.
    let until = RunUntil::Rounds(horizon);
    let plan = ShardPlan::new(4);

    println!(
        "running Algorithm 1: n = {n} processes on {} threads \
         ({} processes per shard)…",
        plan.shards,
        n / plan.shards
    );
    let t0 = Instant::now();
    let (sharded, finals_sharded) =
        run_sharded(&schedule, KSetAgreement::spawn_all(n, &inputs), until, plan);
    let sharded_time = t0.elapsed();
    println!(
        "  sharded : {sharded_time:?}  ({} rounds, {} broadcasts, {} deliveries)",
        sharded.rounds_executed, sharded.msg_stats.broadcasts, sharded.msg_stats.deliveries
    );

    println!("replaying on the single-threaded lockstep engine…");
    let t0 = Instant::now();
    let (lockstep, finals_lockstep) =
        run_lockstep(&schedule, KSetAgreement::spawn_all(n, &inputs), until);
    let lockstep_time = t0.elapsed();
    println!("  lockstep: {lockstep_time:?}");

    assert_eq!(sharded.decisions, lockstep.decisions, "engines diverged!");
    assert_eq!(sharded.msg_stats, lockstep.msg_stats);
    assert_eq!(sharded.rounds_executed, lockstep.rounds_executed);
    for (a, b) in finals_sharded.iter().zip(&finals_lockstep) {
        assert_eq!(a.approx_graph(), b.approx_graph(), "estimator diverged");
        assert_eq!(a.estimate(), b.estimate());
    }
    println!("identical traces and estimator states ✓");

    // What the estimators learned so far: every G_p already spans the
    // whole reachable past of p, well before the r ≥ n decision gate.
    let nodes: Vec<usize> = finals_sharded
        .iter()
        .map(|a| a.approx_graph().node_count())
        .collect();
    println!(
        "  after {horizon} rounds each G_p holds {}–{} of {n} nodes; \
         wire traffic {:.1} MiB",
        nodes.iter().min().unwrap(),
        nodes.iter().max().unwrap(),
        sharded.msg_stats.delivered_bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "  (try the same n with ShardPlan::new(n): 256 OS threads, one \
         context switch per process per round — the coarse plan exists so \
         you don't have to)"
    );
}

/// A sparse strongly connected system: 4 racks of n/4 nodes, each rack a
/// ring, racks chained into a cycle — diameter Θ(n), the hard case for
/// skeleton estimation, with ~1.3 edges per node per round.
fn sparse_racks(n: usize) -> FixedSchedule {
    let mut skel = Digraph::empty(n);
    skel.add_self_loops();
    let racks = 4;
    let per = n / racks;
    for rack in 0..racks {
        let base = rack * per;
        for i in 0..per {
            skel.add_edge(
                ProcessId::from_usize(base + i),
                ProcessId::from_usize(base + (i + 1) % per),
            );
        }
        // each rack's head feeds the next rack
        skel.add_edge(
            ProcessId::from_usize(base),
            ProcessId::from_usize((base + per) % n),
        );
    }
    FixedSchedule::new(skel)
}
