//! The barrier every concurrent engine closes its rounds on.
//!
//! The shard worker (the sharded and socket engines) and the multiplex tick
//! loop close each round with exactly one [`RoundBarrier`] phase. Its last
//! arriver evaluates a round-closing verdict for everyone
//! ([`RoundBarrier::wait_eval`]), which folds "leader decides, everyone
//! learns" into a single phase instead of two, and any participant can
//! [`RoundBarrier::abort`] it, so a worker that fails never leaves its peers
//! parked. The protocols built on it are laid out in `docs/CONCURRENCY.md`.

use std::sync::{Condvar, Mutex};

/// The error of a [`RoundBarrier`] wait that a participant's
/// [`RoundBarrier::abort`] cut short.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Aborted;

/// A reusable generation barrier whose last arriver hands every waiter its
/// verdict, and whose waits fail once any participant aborts it.
///
/// All `parties` threads must call [`RoundBarrier::wait_eval`] for any of
/// them to proceed; the barrier then resets itself for the next
/// generation. Waiters park on a `Condvar` (a futex wait on Linux), so a
/// straggler gets the core at once instead of contending with spinning
/// peers — the common case when simulated processes outnumber cores.
///
/// ```
/// use std::sync::Arc;
/// use sskel_model::sync::RoundBarrier;
///
/// let barrier = Arc::new(RoundBarrier::new(4));
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let b = Arc::clone(&barrier);
///         std::thread::spawn(move || {
///             // the last arriver of each round decides for everyone
///             (1..=100u32).filter(|r| b.wait_eval(|| r % 10 == 0) == Ok(true)).count()
///         })
///     })
///     .collect();
/// for h in handles {
///     assert_eq!(h.join().unwrap(), 10); // every thread saw every verdict
/// }
/// ```
pub struct RoundBarrier {
    state: Mutex<State>,
    cv: Condvar,
    parties: usize,
}

struct State {
    /// Threads that have arrived in the current generation.
    arrived: usize,
    /// Advances when the last thread of a generation arrives.
    generation: u64,
    /// The last arriver's verdict for the generation that just closed.
    verdict: bool,
    aborted: bool,
}

impl RoundBarrier {
    /// A barrier for `parties ≥ 1` threads.
    ///
    /// # Panics
    /// Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties >= 1, "barrier needs at least one participant");
        RoundBarrier {
            state: Mutex::new(State {
                arrived: 0,
                generation: 0,
                verdict: false,
                aborted: false,
            }),
            cv: Condvar::new(),
            parties,
        }
    }

    /// Blocks until all parties have arrived for the current generation.
    /// The last arriver evaluates `eval` while every other party is still
    /// blocked, and **all** parties return its verdict. Every write a party
    /// made before arriving is visible to `eval`, and `eval`'s effects are
    /// visible to every party after the wait: the barrier's mutex orders
    /// them.
    ///
    /// # Errors
    /// [`Aborted`] if the barrier was aborted before or during the wait.
    pub fn wait_eval(&self, eval: impl FnOnce() -> bool) -> Result<bool, Aborted> {
        let mut st = self.state.lock().expect("barrier mutex poisoned");
        if st.aborted {
            return Err(Aborted);
        }
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.parties {
            st.arrived = 0;
            st.generation += 1;
            st.verdict = eval();
            let verdict = st.verdict;
            drop(st);
            self.cv.notify_all();
            return Ok(verdict);
        }
        loop {
            st = self.cv.wait(st).expect("barrier mutex poisoned");
            if st.aborted {
                return Err(Aborted);
            }
            if st.generation != gen {
                return Ok(st.verdict);
            }
        }
    }

    /// Permanently fails the barrier: every current and future wait returns
    /// [`Aborted`].
    pub fn abort(&self) {
        self.state.lock().expect("barrier mutex poisoned").aborted = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `body` on `threads` threads sharing one barrier and returns
    /// their results.
    fn on_threads<T: Send + 'static>(
        threads: usize,
        body: impl Fn(&RoundBarrier) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let barrier = Arc::new(RoundBarrier::new(threads));
        let body = Arc::new(body);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (b, body) = (Arc::clone(&barrier), Arc::clone(&body));
                std::thread::spawn(move || body(&b))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Runs `body` on a thread of its own and fails if it has not returned
    /// within `secs` seconds, so a waiter left parked shows as a failure
    /// instead of a hang. A panic in `body` is re-raised here.
    fn within<T: Send + 'static>(secs: u64, body: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        let runner = std::thread::spawn(move || tx.send(body()).ok());
        match rx.recv_timeout(Duration::from_secs(secs)) {
            Ok(out) => out,
            Err(RecvTimeoutError::Timeout) => panic!("a waiter was still parked after {secs} s"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(runner.join().unwrap_err())
            }
        }
    }

    #[test]
    fn single_thread_barrier_is_a_noop() {
        let b = RoundBarrier::new(1);
        for _ in 0..10 {
            assert_eq!(b.wait_eval(|| true), Ok(true));
            assert_eq!(b.wait_eval(|| false), Ok(false));
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = RoundBarrier::new(0);
    }

    #[test]
    fn all_threads_observe_each_round() {
        // Each thread increments a shared counter before arriving; after
        // the release, every thread must observe all of the round's writes.
        const THREADS: usize = 8;
        const ROUNDS: u64 = 200;
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        on_threads(THREADS, move |b| {
            for round in 1..=ROUNDS {
                c.fetch_add(1, Ordering::Relaxed);
                b.wait_eval(|| false).unwrap();
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    THREADS as u64 * round,
                    "torn round"
                );
                // hold everyone until the assertion ran
                b.wait_eval(|| false).unwrap();
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ROUNDS);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const THREADS: usize = 6;
        const ROUNDS: u64 = 100;
        let evals = Arc::new(AtomicU64::new(0));
        let e = Arc::clone(&evals);
        on_threads(THREADS, move |b| {
            for _ in 0..ROUNDS {
                b.wait_eval(|| {
                    e.fetch_add(1, Ordering::Relaxed);
                    true
                })
                .unwrap();
            }
        });
        assert_eq!(evals.load(Ordering::Relaxed), ROUNDS);
    }

    #[test]
    fn wait_eval_publishes_leader_verdict_to_everyone() {
        // The leader checks every contribution published before arrival;
        // every thread must return the same per-round verdict.
        const THREADS: usize = 5;
        const ROUNDS: u64 = 100;
        let contribution = Arc::new(AtomicU64::new(0));
        let all = on_threads(THREADS, move |b| {
            let c = &contribution;
            let mut verdicts = Vec::new();
            for round in 1..=ROUNDS {
                c.fetch_add(1, Ordering::Relaxed);
                verdicts.push(
                    b.wait_eval(|| {
                        assert_eq!(c.load(Ordering::Relaxed), THREADS as u64 * round);
                        round % 3 == 0
                    })
                    .unwrap(),
                );
                // keep rounds apart for the leader's assertion
                b.wait_eval(|| false).unwrap();
            }
            verdicts
        });
        let expected: Vec<bool> = (1..=ROUNDS).map(|r| r % 3 == 0).collect();
        for v in all {
            assert_eq!(v, expected, "every thread sees the leader's verdict");
        }
    }

    // The `parking_` tests pin who parks on the condvar and that every
    // parked waiter is woken, each under a deadline of its own.

    #[test]
    fn parking_single_thread_barrier_is_a_noop() {
        // A sole party is the last arriver of every generation, so it never
        // parks: each wait evaluates once and returns the verdict at once.
        let evals = within(10, || {
            let b = RoundBarrier::new(1);
            let mut evals = 0u32;
            for round in 0..1_000u32 {
                let verdict = b.wait_eval(|| {
                    evals += 1;
                    round % 2 == 0
                });
                assert_eq!(verdict, Ok(round % 2 == 0));
            }
            evals
        });
        assert_eq!(evals, 1_000);
    }

    #[test]
    fn parking_all_threads_observe_each_round() {
        // A rotating straggler sleeps before its write, so the other parties
        // are parked on the condvar when the round is released; each of them
        // must still observe all of the round's writes once woken.
        const THREADS: usize = 4;
        const ROUNDS: u64 = 40;
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        within(60, move || {
            let ids = AtomicUsize::new(0);
            on_threads(THREADS, move |b| {
                let id = ids.fetch_add(1, Ordering::Relaxed) as u64;
                for round in 1..=ROUNDS {
                    if round % THREADS as u64 == id {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    c.fetch_add(1, Ordering::Relaxed);
                    b.wait_eval(|| false).unwrap();
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        THREADS as u64 * round,
                        "torn round after a parked wait"
                    );
                    b.wait_eval(|| false).unwrap();
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), THREADS as u64 * ROUNDS);
    }

    #[test]
    fn parking_exactly_one_leader_per_generation() {
        // More parties than cores, so parties are descheduled mid-wait. Each
        // party records the generations whose verdict it evaluated: together
        // they must cover every generation exactly once.
        const ROUNDS: u64 = 100;
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let threads = (2 * cores + 1).min(33);
        let mut closed: Vec<u64> = within(60, move || {
            on_threads(threads, |b| {
                let mut mine = Vec::new();
                for round in 1..=ROUNDS {
                    let verdict = b.wait_eval(|| {
                        mine.push(round);
                        true
                    });
                    assert_eq!(verdict, Ok(true));
                }
                mine
            })
        })
        .concat();
        closed.sort_unstable();
        assert_eq!(closed, (1..=ROUNDS).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn parking_zero_participants_rejected() {
        // A zero-party barrier could never release: its first waiter would
        // park for good. Using one must panic instead, well inside the
        // deadline.
        let _ = within(10, || RoundBarrier::new(0).wait_eval(|| true));
    }

    #[test]
    fn abortable_barrier_releases_waiters_on_abort() {
        let b = Arc::new(RoundBarrier::new(2));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || b.wait_eval(|| true))
        };
        // Give the waiter a moment to park, then abort instead of arriving.
        std::thread::sleep(Duration::from_millis(20));
        b.abort();
        assert_eq!(waiter.join().expect("waiter panicked"), Err(Aborted));
        // Future waits fail immediately.
        assert_eq!(b.wait_eval(|| true), Err(Aborted));
    }
}
