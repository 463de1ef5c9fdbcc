//! A worker that panics fails its run instead of hanging it: every
//! concurrent engine aborts the round barrier, wakes the surviving workers
//! blocked on their inboxes, and re-raises the panic to the caller. Each
//! test runs one engine under a watchdog; a run that has not returned when
//! the watchdog fires fails the test.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use sskel::model::testutil::require_loopback;
use sskel::prelude::*;

const N: usize = 4;
const UNTIL: RunUntil = RunUntil::AllDecided { max_rounds: 10 };
const WATCHDOG: Duration = Duration::from_secs(5);

/// Process 0's transition panics in round 2; nobody ever decides, so every
/// round after the first needs a barrier verdict.
struct PanicsInRound2 {
    id: usize,
}

impl RoundAlgorithm for PanicsInRound2 {
    type Msg = Value;
    fn send(&self, _r: Round) -> Value {
        self.id as Value
    }
    fn receive(&mut self, r: Round, _received: &Received<Value>) {
        if self.id == 0 && r == 2 {
            panic!("process 0 fails in round 2");
        }
    }
    fn decision(&self) -> Option<Value> {
        None
    }
}

fn spawn() -> Vec<PanicsInRound2> {
    (0..N).map(|id| PanicsInRound2 { id }).collect()
}

/// Runs `run` on its own thread and asserts that it re-raised the worker's
/// panic before the watchdog fired.
fn assert_panics_in_time(run: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let watched = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(run)));
    });
    let outcome = rx
        .recv_timeout(WATCHDOG)
        .expect("the run hung after a worker panicked");
    watched.join().expect("the run's panic is caught inside");
    let panic = outcome.expect_err("the worker's panic was swallowed");
    let msg = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str));
    assert_eq!(msg, Some("process 0 fails in round 2"));
}

#[test]
fn sharded_worker_panic_fails_the_run() {
    assert_panics_in_time(|| {
        let s = FixedSchedule::synchronous(N);
        let _ = run_sharded(&s, spawn(), UNTIL, ShardPlan::new(2));
    });
}

#[test]
fn multiplex_worker_panic_fails_the_run() {
    assert_panics_in_time(|| {
        let s = FixedSchedule::synchronous(N);
        let instances = vec![MuxInstance::new(&s as &dyn Schedule, spawn(), UNTIL)];
        let _ = run_multiplex_codec(instances, MultiplexPlan::new(2), &NoFaults);
    });
}

#[test]
fn socket_worker_panic_fails_the_run() {
    if !require_loopback("socket_worker_panic_fails_the_run") {
        return;
    }
    assert_panics_in_time(|| {
        let s = FixedSchedule::synchronous(N);
        let plan = SocketPlan::new(2).with_round_timeout(Duration::from_millis(500));
        let _ = run_socket(&s, spawn(), UNTIL, plan);
    });
}
