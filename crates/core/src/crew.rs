//! A fixed crew of helper threads that run one job per round beside the
//! calling thread: every training thread but the caller. A training step
//! is four rounds in a row (the shards, then the update slices' sum and
//! projection, Adam step and refold), so the crew runs the whole step.
//!
//! The caller publishes a job (an index), does its own share on its own
//! thread, then waits until every helper has done its share. Helpers live
//! for a whole `std::thread::scope` and wait between rounds, so a round
//! spawns nothing and allocates nothing. What a share is, and where its
//! result goes, is the caller's business: the crew only orders rounds.
//!
//! Waits poll before they block. Between two rounds of a step the caller
//! does only a few microseconds of bookkeeping, and with waits that block
//! at once a 2-vCPU VM ran the rounds nearly serially: the woken helper
//! tended to queue behind its waker on the same core (one 5 s training run
//! kept 1.0 cores busy). So both sides poll first ([`SPIN`]), yielding the
//! core after a short spin in case threads outnumber cores, and block on
//! the condition variables only over long gaps, such as validation between
//! epochs. A round notifies a condition variable only when a thread is
//! blocked on it, so back-to-back rounds make no system call.
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
/// and counts itself in `lock`'s sleeper count while it waits. Every
/// change it could wait for is made before the notifier takes `lock`, and
/// the notifier reads the sleeper count under it, so no notification is
/// missed, and a round with every thread polling makes no system call.
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
    /// Threads blocked on `start` or `done`.
    lock: Mutex<usize>,
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
            lock: Mutex::new(0),
            start: Condvar::new(),
            done: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, usize> {
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
                let mut sleepers = self.lock();
                while !ready() {
                    *sleepers += 1;
                    sleepers = cv.wait(sleepers).unwrap_or_else(PoisonError::into_inner);
                    *sleepers -= 1;
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
            if self.busy.fetch_sub(1, Ordering::AcqRel) == 1 && *self.lock() > 0 {
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
            let sleepers = {
                let sleepers = self.lock();
                self.seq.fetch_add(1, Ordering::AcqRel);
                *sleepers
            };
            if sleepers > 0 {
                self.start.notify_all();
            }
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
    use std::sync::Mutex;

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

    /// Rounds of a training step: batch `b`'s phase `p` is job `4b + p`.
    const PHASES: usize = 4;
    const BATCHES: usize = 30;

    /// Over a run of multi-round batches, every helper runs every phase of
    /// every batch exactly once, in publication order.
    #[test]
    fn every_helper_runs_every_phase_once_in_order() {
        let crew = Crew::new(2);
        let seen: Vec<Mutex<Vec<usize>>> = (0..3).map(|_| Mutex::default()).collect();
        std::thread::scope(|s| {
            for w in 1..3 {
                let (crew, seen) = (&crew, &seen);
                s.spawn(move || crew.serve(|job| seen[w].lock().unwrap().push(job)));
            }
            let _stop = crew.stop_guard();
            for job in 0..BATCHES * PHASES {
                crew.round(job, || seen[0].lock().unwrap().push(job));
            }
        });
        let want: Vec<usize> = (0..BATCHES * PHASES).collect();
        for (w, jobs) in seen.iter().enumerate() {
            assert_eq!(*jobs.lock().unwrap(), want, "thread {w}");
        }
    }

    /// A helper that panics in any phase of a batch fails that round: the
    /// caller's `round` panics there instead of waiting forever, and no
    /// later round starts.
    #[test]
    fn a_helper_panic_in_any_phase_fails_that_round() {
        for phase in 0..PHASES {
            let fatal = 2 * PHASES + phase;
            let crew = Crew::new(2);
            let finished = AtomicUsize::new(0);
            let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                std::thread::scope(|s| {
                    s.spawn(|| crew.serve(|_| {}));
                    s.spawn(|| {
                        crew.serve(|job| {
                            if job == fatal {
                                panic!("helper down in phase {phase}");
                            }
                        })
                    });
                    let _stop = crew.stop_guard();
                    for job in 0..BATCHES * PHASES {
                        crew.round(job, || {});
                        finished.store(job + 1, Ordering::SeqCst);
                    }
                })
            }));
            assert!(joined.is_err(), "phase {phase}: the panic was lost");
            assert_eq!(
                finished.load(Ordering::SeqCst),
                fatal,
                "phase {phase}: rounds ran past the failed one"
            );
        }
    }

    /// Once `round` returns, no thread is still working on that round's
    /// slices: each slice holds the round's value, and nothing changes it
    /// until the caller publishes the next round.
    #[test]
    fn no_helper_touches_a_slice_after_the_round_returns() {
        const SLICES: usize = 8;
        let crew = Crew::new(2);
        let slices: Vec<AtomicUsize> = (0..SLICES).map(|_| AtomicUsize::new(0)).collect();
        let next = AtomicUsize::new(0);
        let active = AtomicUsize::new(0);
        // Claims slices until none is left, holding each one a while. Only
        // the helpers work, so a caller that stopped waiting would find one
        // still at it.
        let work = |job: usize| loop {
            let s = next.fetch_add(1, Ordering::SeqCst);
            if s >= SLICES {
                break;
            }
            active.fetch_add(1, Ordering::SeqCst);
            for _ in 0..2000 {
                std::hint::spin_loop();
            }
            slices[s].store(job, Ordering::SeqCst);
            active.fetch_sub(1, Ordering::SeqCst);
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (crew, work) = (&crew, &work);
                s.spawn(move || crew.serve(work));
            }
            let _stop = crew.stop_guard();
            for job in 1..=BATCHES * PHASES {
                next.store(0, Ordering::SeqCst);
                crew.round(job, || {});
                assert_eq!(active.load(Ordering::SeqCst), 0, "round {job}");
                for _ in 0..200 {
                    std::hint::spin_loop();
                }
                for (i, slice) in slices.iter().enumerate() {
                    assert_eq!(slice.load(Ordering::SeqCst), job, "round {job}, slice {i}");
                }
            }
        });
    }
}
