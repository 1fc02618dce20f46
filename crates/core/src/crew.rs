//! A fixed crew of helper threads that run one job per round beside the
//! calling thread: the data-parallel half of the training loop.
//!
//! The caller publishes a job (an index), does its own share on its own
//! thread, then waits until every helper has done its share. Helpers live
//! for a whole `std::thread::scope` and wait between rounds, so a round
//! spawns nothing and allocates nothing. What a share is, and where its
//! result goes, is the caller's business: the crew only orders rounds.
//!
//! Waits poll before they block. A round's serial gap (the caller's
//! reduction, optimizer step and refold) is a fraction of a millisecond,
//! and with waits that block at once a 2-vCPU VM ran the rounds nearly
//! serially: the woken helper tended to queue behind its waker on the
//! same core (one 5 s training run kept 1.0 cores busy). So both sides
//! poll first ([`SPIN`]), yielding the core after a short spin in case
//! threads outnumber cores, and block on the condition variables only
//! over long gaps, such as validation between epochs.
//!
//! A helper that panics marks the crew failed, and the caller's wait
//! panics instead of waiting forever; dropping the caller's [`StopGuard`]
//! (on return or while unwinding) releases every helper, so the scope can
//! join them.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a wait polls before it blocks.
const SPIN: Duration = Duration::from_millis(2);
/// Polls of pure spinning before a polling wait starts yielding its core.
const SPIN_BURST: u32 = 256;

/// See the module docs.
///
/// Every flag is stored with `Release` and loaded with `Acquire`: a helper
/// that sees `seq` move sees the `job` stored before it, and the caller
/// that sees `busy` reach zero sees everything each helper wrote before
/// its decrement (the shard results also sit behind their own mutexes).
/// A waiter re-checks its condition under `lock` before `Condvar::wait`,
/// and every change it could wait for is made, or followed by its
/// notification, under `lock`, so no notification is missed.
#[derive(Debug)]
pub(crate) struct Crew {
    helpers: usize,
    /// Rounds published so far; a helper runs each one once.
    seq: AtomicU64,
    /// The current round's job, stored before `seq` moves.
    job: AtomicUsize,
    /// Helpers still running the current round.
    busy: AtomicUsize,
    /// No more rounds: helpers return.
    stop: AtomicBool,
    /// A helper panicked.
    failed: AtomicBool,
    lock: Mutex<()>,
    /// Signals a new round, or the stop.
    start: Condvar,
    /// Signals the last helper finishing a round, or a helper's panic.
    done: Condvar,
}

impl Crew {
    /// A crew of `helpers` threads, which the caller spawns, each running
    /// [`Crew::serve`].
    pub(crate) fn new(helpers: usize) -> Crew {
        Crew {
            helpers,
            seq: AtomicU64::new(0),
            job: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            lock: Mutex::new(()),
            start: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait until `ready()` holds: poll for [`SPIN`], then block on `cv`,
    /// whose notifier changes the state under [`Crew::lock`].
    fn wait_until(&self, cv: &Condvar, ready: impl Fn() -> bool) {
        let since = Instant::now();
        let mut polls = 0u32;
        while !ready() {
            polls += 1;
            if polls < SPIN_BURST {
                std::hint::spin_loop();
                continue;
            }
            if since.elapsed() >= SPIN {
                let mut guard = self.lock();
                while !ready() {
                    guard = cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
                }
                return;
            }
            std::thread::yield_now();
        }
    }

    /// A helper's loop: `work(job)` once per round until the caller's
    /// [`StopGuard`] drops.
    pub(crate) fn serve(&self, mut work: impl FnMut(usize)) {
        let mut seen = 0;
        loop {
            self.wait_until(&self.start, || {
                self.seq.load(Ordering::Acquire) != seen || self.stop.load(Ordering::Acquire)
            });
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            seen = self.seq.load(Ordering::Acquire);
            let failed = FailOnPanic(self);
            work(self.job.load(Ordering::Acquire));
            std::mem::forget(failed);
            if self.busy.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = self.lock();
                self.done.notify_one();
            }
        }
    }

    /// One round: publish `job` to the helpers, run `own` (the caller's
    /// share) on this thread, and return once every helper has finished
    /// its share. With no helpers this is just `own()`.
    ///
    /// # Panics
    /// If a helper panicked.
    pub(crate) fn round(&self, job: usize, own: impl FnOnce()) {
        if self.helpers > 0 {
            self.job.store(job, Ordering::Release);
            self.busy.store(self.helpers, Ordering::Release);
            {
                let _guard = self.lock();
                self.seq.fetch_add(1, Ordering::AcqRel);
            }
            self.start.notify_all();
        }
        own();
        if self.helpers > 0 {
            self.wait_until(&self.done, || {
                self.busy.load(Ordering::Acquire) == 0 || self.failed.load(Ordering::Acquire)
            });
            assert!(
                !self.failed.load(Ordering::Acquire),
                "a training worker thread panicked"
            );
        }
    }

    /// The caller's guard: helpers return once it drops.
    pub(crate) fn stop_guard(&self) -> StopGuard<'_> {
        StopGuard(self)
    }
}

/// Stops a [`Crew`]'s helpers when dropped. See [`Crew::stop_guard`].
pub(crate) struct StopGuard<'a>(&'a Crew);

impl Drop for StopGuard<'_> {
    fn drop(&mut self) {
        {
            let _guard = self.0.lock();
            self.0.stop.store(true, Ordering::Release);
        }
        self.0.start.notify_all();
    }
}

/// Marks the crew failed if a helper's work unwinds through it.
struct FailOnPanic<'a>(&'a Crew);

impl Drop for FailOnPanic<'_> {
    fn drop(&mut self) {
        {
            let _guard = self.0.lock();
            self.0.failed.store(true, Ordering::Release);
        }
        self.0.done.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every helper runs every round exactly once, and the caller sees all
    /// of a round's work done when `round` returns.
    #[test]
    fn every_helper_runs_every_round_once() {
        let crew = Crew::new(3);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for w in 1..4 {
                let (crew, hits) = (&crew, &hits);
                s.spawn(move || {
                    crew.serve(|job| {
                        hits[w].fetch_add(job, Ordering::SeqCst);
                    })
                });
            }
            let _stop = crew.stop_guard();
            for job in 1..=50 {
                crew.round(job, || {
                    hits[0].fetch_add(job, Ordering::SeqCst);
                });
                let want = job * (job + 1) / 2;
                for h in &hits {
                    assert_eq!(h.load(Ordering::SeqCst), want);
                }
            }
        });
    }

    /// A helper's panic reaches the caller instead of hanging its wait.
    #[test]
    fn a_helper_panic_fails_the_round() {
        let crew = Crew::new(1);
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                s.spawn(|| crew.serve(|_| panic!("helper down")));
                let _stop = crew.stop_guard();
                crew.round(0, || {});
            })
        }));
        assert!(joined.is_err());
    }
}
