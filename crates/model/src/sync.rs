//! Synchronization primitives for the shard worker.
//!
//! The concurrent engines implement communication-closed rounds with at
//! most one barrier per round. Three barriers are provided (the trade-offs
//! are laid out in `docs/CONCURRENCY.md`):
//!
//! * [`ParkingBarrier`] — what the engines use: arrivals spin briefly and
//!   then **park** on a `Condvar` (futex-backed on Linux), so stragglers
//!   get the core immediately instead of contending with busy-waiting
//!   peers. On an oversubscribed machine — more simulated processes than
//!   hardware threads, the common case for this engine — parking is the
//!   difference between one scheduler quantum per arrival and a direct
//!   hand-off. The last arriver can additionally evaluate a round-closing
//!   verdict for everyone ([`ParkingBarrier::wait_eval`]), which lets the
//!   engine close a round with a *single* barrier phase instead of two.
//! * [`WindowedBarrier`] — a [`ParkingBarrier`] that fires only every `K`
//!   rounds: participants report each round they finish, but only rounds
//!   that are multiples of the window length synchronize. Used by the
//!   sharded engine under a fixed horizon, where no per-round verdict is
//!   needed and the barrier's only job is to bound how far threads can
//!   drift apart (and with them, the channel backlog).
//! * [`SpinBarrier`] — the pure spin ablation baseline (two atomics, in
//!   the style of *Rust Atomics and Locks*, ch. 4/9). It beats a syscall
//!   per round when every participant has its own core and loses badly
//!   when oversubscribed; the `engines` benchmark quantifies both.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A reusable sense-reversing barrier that spins briefly, then parks.
///
/// All `total` threads must call [`ParkingBarrier::wait`] (or
/// [`ParkingBarrier::wait_eval`]) for any of them to proceed; the barrier
/// then resets itself for the next generation. Waiters spin for a short,
/// contention-aware budget (zero when the participant count exceeds the
/// machine's available parallelism) and then block on a `Condvar`, which
/// parks the thread in the kernel — a futex wait on Linux.
///
/// ```
/// use std::sync::Arc;
/// use sskel_model::sync::ParkingBarrier;
///
/// let barrier = Arc::new(ParkingBarrier::new(4));
/// let mut handles = Vec::new();
/// for _ in 0..4 {
///     let b = Arc::clone(&barrier);
///     handles.push(std::thread::spawn(move || {
///         for _ in 0..100 {
///             b.wait();
///         }
///     }));
/// }
/// for h in handles {
///     h.join().unwrap();
/// }
/// ```
pub struct ParkingBarrier {
    /// Number of threads that have arrived in the current generation.
    arrived: AtomicUsize,
    /// Generation counter; advances when the last thread arrives.
    generation: AtomicUsize,
    /// The leader's verdict for the generation that just closed.
    verdict: AtomicBool,
    total: usize,
    /// Spin iterations before parking; `0` when oversubscribed.
    spin_budget: u32,
    /// Guards the generation flip so a thread that just decided to park
    /// cannot miss the wakeup.
    lock: Mutex<()>,
    cv: Condvar,
}

impl ParkingBarrier {
    /// A barrier for `total ≥ 1` threads.
    ///
    /// # Panics
    /// Panics if `total == 0`.
    pub fn new(total: usize) -> Self {
        assert!(total >= 1, "barrier needs at least one participant");
        let cores = std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1);
        // Oversubscribed: a waiter's spinning only steals the quantum the
        // stragglers need to arrive — park immediately. With a core per
        // participant, a short spin usually wins the race with the flip.
        let spin_budget = if total > cores { 0 } else { 128 };
        ParkingBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            verdict: AtomicBool::new(false),
            total,
            spin_budget,
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Number of participating threads.
    pub fn participants(&self) -> usize {
        self.total
    }

    /// Blocks until all `total` threads have arrived for the current
    /// generation. Returns `true` on exactly one thread per generation
    /// (the leader, i.e. the last arriver).
    pub fn wait(&self) -> bool {
        self.sync_round(|| false).0
    }

    /// Like [`ParkingBarrier::wait`], but the leader evaluates `eval` while
    /// every other thread is still blocked, and **all** threads return its
    /// verdict. This folds a "leader decides, everyone learns" exchange —
    /// two phases with a plain barrier — into one.
    ///
    /// All writes performed by other threads before they arrived are
    /// visible to `eval`, and `eval`'s result is visible to every waiter.
    pub fn wait_eval(&self, eval: impl FnOnce() -> bool) -> bool {
        self.sync_round(eval).1
    }

    /// Returns `(is_leader, verdict)` for this generation.
    fn sync_round(&self, eval: impl FnOnce() -> bool) -> (bool, bool) {
        // ordering: Acquire pairs with the leader's Release flip so a
        // thread re-entering for the next generation reads a fresh `gen`.
        let gen = self.generation.load(Ordering::Acquire);
        // ordering: AcqRel — the release half publishes this thread's
        // pre-barrier writes into the RMW chain; the acquire half lets the
        // last arriver see every earlier arrival's writes.
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last thread: every earlier arrival's RMW on `arrived` is in
            // this RMW's release sequence, so their prior writes are
            // visible to `eval`.
            let verdict = eval();
            // ordering: Relaxed — both stores are published by the
            // Release flip of `generation` below; nobody reads them
            // before observing the new generation.
            self.verdict.store(verdict, Ordering::Relaxed);
            self.arrived.store(0, Ordering::Relaxed);
            {
                // Flip under the lock: a waiter only parks after checking
                // the generation while holding it.
                let _guard = self.lock.lock().expect("barrier mutex poisoned");
                // ordering: Release — publishes `verdict`, the `arrived`
                // reset and `eval`'s side effects to every waiter whose
                // Acquire load sees the new generation.
                self.generation
                    .store(gen.wrapping_add(1), Ordering::Release);
            }
            self.cv.notify_all();
            (true, verdict)
        } else {
            let mut spins = self.spin_budget;
            while spins > 0 {
                // ordering: Acquire pairs with the leader's Release flip;
                // seeing the new generation makes `verdict` (Relaxed
                // below) and all leader writes visible.
                if self.generation.load(Ordering::Acquire) != gen {
                    return (false, self.verdict.load(Ordering::Relaxed));
                }
                spins -= 1;
                std::hint::spin_loop();
            }
            let mut guard = self.lock.lock().expect("barrier mutex poisoned");
            // ordering: Acquire — same pairing as the spin loop; the
            // mutex alone would suffice for the parked path, but keeping
            // the load uniform keeps the protocol one-shaped.
            while self.generation.load(Ordering::Acquire) == gen {
                guard = self.cv.wait(guard).expect("barrier mutex poisoned");
            }
            drop(guard);
            // ordering: Relaxed — ordered by the Acquire generation load
            // above; the leader wrote `verdict` before its Release flip.
            (false, self.verdict.load(Ordering::Relaxed))
        }
    }
}

/// A [`ParkingBarrier`] that synchronizes only every `window` rounds.
///
/// Each participant calls [`WindowedBarrier::round_end`] once per simulated
/// round with its **own** round counter; the call is free except when the
/// round number is a multiple of the window length, where it becomes a full
/// parking-barrier phase. Because every participant executes the same round
/// sequence `1, 2, 3, …`, all of them block on exactly the same rounds.
///
/// The point is the **skew bound**: a thread can only be executing round
/// `r` once every thread has finished round `W·⌊(r − 1)/W⌋` (the last
/// window boundary before `r`), so two threads' current rounds can differ
/// by at most `W − 1`. For engines whose channels are unbounded, that turns
/// an `O(horizon)` worst-case channel backlog into `O(W)` — the full
/// argument is spelled out in `docs/CONCURRENCY.md`.
///
/// With `window == 1` this is exactly a [`ParkingBarrier`] per round; large
/// windows approach free-running.
///
/// ```
/// use std::sync::Arc;
/// use sskel_model::sync::WindowedBarrier;
///
/// let barrier = Arc::new(WindowedBarrier::new(4, 8));
/// let mut handles = Vec::new();
/// for _ in 0..4 {
///     let b = Arc::clone(&barrier);
///     handles.push(std::thread::spawn(move || {
///         let mut syncs = 0;
///         for r in 1..=100u32 {
///             if b.round_end(r) {
///                 syncs += 1;
///             }
///         }
///         assert_eq!(syncs, 12); // rounds 8, 16, …, 96
///     }));
/// }
/// for h in handles {
///     h.join().unwrap();
/// }
/// ```
pub struct WindowedBarrier {
    inner: ParkingBarrier,
    window: u32,
}

impl WindowedBarrier {
    /// A barrier for `total ≥ 1` threads that fires every `window ≥ 1`
    /// rounds.
    ///
    /// # Panics
    /// Panics if `total == 0` or `window == 0`.
    pub fn new(total: usize, window: u32) -> Self {
        assert!(window >= 1, "window length must be at least one round");
        WindowedBarrier {
            inner: ParkingBarrier::new(total),
            window,
        }
    }

    /// Number of participating threads.
    pub fn participants(&self) -> usize {
        self.inner.participants()
    }

    /// The window length `W`: rounds `W, 2W, 3W, …` synchronize.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Reports that this participant finished round `r`. Blocks until all
    /// participants have reported round `r` iff `r` is a multiple of the
    /// window length; otherwise returns immediately.
    ///
    /// Returns `true` iff this call synchronized (every participant gets
    /// the same answer for the same `r`, since they share the round
    /// sequence).
    #[inline]
    pub fn round_end(&self, r: u32) -> bool {
        if r.is_multiple_of(self.window) {
            self.inner.wait();
            true
        } else {
            false
        }
    }
}

/// A reusable sense-reversing spin barrier for a fixed number of threads —
/// kept as the pure-spin ablation baseline for [`ParkingBarrier`] (the
/// `barrier_1000_rounds` benchmark compares spin, parking and
/// `std::sync::Barrier`).
///
/// All `total` threads must call [`SpinBarrier::wait`] for any of them to
/// proceed; the barrier then resets itself for the next use. Waiting spins
/// with `std::hint::spin_loop`, periodically yielding to the scheduler so
/// oversubscribed machines still make progress.
///
/// ```
/// use std::sync::Arc;
/// use sskel_model::sync::SpinBarrier;
///
/// let barrier = Arc::new(SpinBarrier::new(4));
/// let mut handles = Vec::new();
/// for _ in 0..4 {
///     let b = Arc::clone(&barrier);
///     handles.push(std::thread::spawn(move || {
///         for _ in 0..100 {
///             b.wait();
///         }
///     }));
/// }
/// for h in handles {
///     h.join().unwrap();
/// }
/// ```
pub struct SpinBarrier {
    /// Number of threads that have arrived in the current generation.
    arrived: AtomicUsize,
    /// Generation counter; flips when the last thread arrives.
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    /// A barrier for `total ≥ 1` threads.
    pub fn new(total: usize) -> Self {
        assert!(total >= 1, "barrier needs at least one participant");
        SpinBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    /// Number of participating threads.
    pub fn participants(&self) -> usize {
        self.total
    }

    /// Blocks until all `total` threads have called `wait` for the current
    /// generation. Returns `true` on exactly one thread per generation (the
    /// "leader", i.e. the last arriver).
    pub fn wait(&self) -> bool {
        // ordering: Acquire pairs with the leader's Release advance so a
        // re-entering thread starts from the current generation.
        let gen = self.generation.load(Ordering::Acquire);
        // ordering: AcqRel — release publishes this thread's pre-barrier
        // writes; acquire gives the last arriver all earlier arrivals'.
        let arrived = self.arrived.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == self.total {
            // Last thread: reset the counter, then release the others by
            // advancing the generation.
            // ordering: Relaxed reset is published by the Release store
            // of `generation` right below.
            self.arrived.store(0, Ordering::Relaxed);
            // ordering: Release — pairs with the waiters' Acquire loads;
            // advancing the generation publishes the counter reset and
            // every pre-barrier write in the RMW chain.
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            true
        } else {
            let mut spins = 0u32;
            // ordering: Acquire pairs with the leader's Release advance;
            // exiting the loop makes all pre-barrier writes visible.
            while self.generation.load(Ordering::Acquire) == gen {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(1024) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_thread_barrier_is_a_noop() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait()); // sole participant is always the leader
        }
    }

    #[test]
    fn all_threads_observe_each_round() {
        // Each thread increments a shared counter before the barrier; after
        // the barrier, every thread must observe counter == threads * round.
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 1..=ROUNDS as u64 {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    let seen = c.load(Ordering::SeqCst);
                    assert_eq!(seen, THREADS as u64 * round, "torn round observed");
                    b.wait(); // second barrier so nobody races ahead into the
                              // next increment before everyone has asserted
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (THREADS * ROUNDS) as u64);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        const THREADS: usize = 6;
        const ROUNDS: usize = 100;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let l = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    if b.wait() {
                        l.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), ROUNDS as u64);
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_rejected() {
        let _ = SpinBarrier::new(0);
    }

    #[test]
    fn parking_single_thread_barrier_is_a_noop() {
        let b = ParkingBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
            assert!(b.wait_eval(|| true));
            assert!(!b.wait_eval(|| false));
        }
    }

    #[test]
    fn parking_all_threads_observe_each_round() {
        const THREADS: usize = 8;
        const ROUNDS: usize = 200;
        let barrier = Arc::new(ParkingBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for round in 1..=ROUNDS as u64 {
                    c.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    let seen = c.load(Ordering::SeqCst);
                    assert_eq!(seen, THREADS as u64 * round, "torn round observed");
                    b.wait(); // hold everyone until the assertion ran
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), (THREADS * ROUNDS) as u64);
    }

    #[test]
    fn parking_exactly_one_leader_per_generation() {
        const THREADS: usize = 6;
        const ROUNDS: usize = 100;
        let barrier = Arc::new(ParkingBarrier::new(THREADS));
        let leaders = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let l = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    if b.wait() {
                        l.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), ROUNDS as u64);
    }

    #[test]
    fn wait_eval_publishes_leader_verdict_to_everyone() {
        // The leader sums contributions published before arrival; every
        // thread must observe the same per-round verdict.
        const THREADS: usize = 5;
        const ROUNDS: u64 = 100;
        let barrier = Arc::new(ParkingBarrier::new(THREADS));
        let contribution = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&contribution);
            handles.push(std::thread::spawn(move || {
                let mut verdicts = Vec::new();
                for round in 1..=ROUNDS {
                    c.fetch_add(1, Ordering::Relaxed);
                    let v = b.wait_eval(|| {
                        // all contributions of the round are visible here
                        assert_eq!(c.load(Ordering::Relaxed), THREADS as u64 * round);
                        round % 3 == 0
                    });
                    verdicts.push(v);
                    b.wait(); // keep rounds in lockstep for the assertion
                }
                verdicts
            }));
        }
        let all: Vec<Vec<bool>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let expected: Vec<bool> = (1..=ROUNDS).map(|r| r % 3 == 0).collect();
        for v in all {
            assert_eq!(v, expected, "every thread sees the leader's verdict");
        }
    }

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn parking_zero_participants_rejected() {
        let _ = ParkingBarrier::new(0);
    }

    #[test]
    fn windowed_barrier_bounds_skew_to_window() {
        // Each thread publishes its current round; whenever a thread is
        // about to run round r, no other thread may be more than W − 1
        // rounds behind (it must have passed the last window boundary).
        const THREADS: usize = 4;
        const ROUNDS: u32 = 200;
        const WINDOW: u32 = 7;
        let barrier = Arc::new(WindowedBarrier::new(THREADS, WINDOW));
        let rounds: Arc<Vec<AtomicU64>> =
            Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let b = Arc::clone(&barrier);
            let rs = Arc::clone(&rounds);
            handles.push(std::thread::spawn(move || {
                for r in 1..=ROUNDS {
                    rs[t].store(r as u64, Ordering::SeqCst);
                    // Entering round r: every peer must have finished the
                    // last window boundary before r.
                    let floor = (u64::from(r) - 1) / u64::from(WINDOW) * u64::from(WINDOW);
                    for peer in rs.iter() {
                        assert!(
                            peer.load(Ordering::SeqCst) >= floor,
                            "peer fell more than a window behind"
                        );
                    }
                    b.round_end(r);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn windowed_barrier_window_one_is_per_round() {
        const THREADS: usize = 3;
        let barrier = Arc::new(WindowedBarrier::new(THREADS, 1));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..THREADS {
            let b = Arc::clone(&barrier);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for r in 1..=100u32 {
                    c.fetch_add(1, Ordering::SeqCst);
                    assert!(b.round_end(r));
                    // With W = 1 every round closes like a plain barrier, so
                    // after it releases the counter can be at most one full
                    // round ahead of this thread's view.
                    assert!(c.load(Ordering::SeqCst) <= THREADS as u64 * (u64::from(r) + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn windowed_barrier_fires_only_on_boundaries() {
        let b = WindowedBarrier::new(1, 3);
        assert_eq!(b.window(), 3);
        assert_eq!(b.participants(), 1);
        let synced: Vec<u32> = (1..=9u32).filter(|&r| b.round_end(r)).collect();
        assert_eq!(synced, vec![3, 6, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn windowed_zero_window_rejected() {
        let _ = WindowedBarrier::new(2, 0);
    }
}
