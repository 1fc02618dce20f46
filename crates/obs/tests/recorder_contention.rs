//! Flight-recorder contention tests: many producers race concurrent
//! snapshot calls on a deliberately small ring. The invariants under test:
//!
//! - **No torn events.** Each event carries a checksum tying its words
//!   together; a snapshot observing a half-written slot would break it.
//! - **Exact accounting.** Every `record` call either lands (drained
//!   exactly once across all snapshots) or reports the drop; the drop
//!   counter equals the number of failed calls exactly.
//! - **Writers never block on readers.** Producers run to completion while
//!   snapshot threads drain continuously; per-producer event order
//!   survives as a subsequence.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use dace_obs::{Event, FlightRecorder};

const PRODUCERS: u64 = 4;
const PER_PRODUCER: u64 = 50_000;
const CAPACITY: usize = 512;

/// Checksum tying all event words together so tearing is detectable.
fn checksum(thread: u32, seq: u64) -> u64 {
    (thread as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(seq.wrapping_mul(31))
        .wrapping_add(7)
}

#[test]
fn producers_racing_snapshots_lose_nothing_silently() {
    let recorder = FlightRecorder::with_capacity(CAPACITY);
    let accepted = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let drained: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let (recorder, accepted, rejected) = (&recorder, &accepted, &rejected);
            s.spawn(move || {
                for seq in 0..PER_PRODUCER {
                    let sum = checksum(t as u32, seq);
                    let ok = recorder.record(Event {
                        t_us: seq,
                        dur_us: sum,
                        name_id: 0,
                        thread: t as u32,
                        depth: (seq % 7) as u32,
                        trace: sum.rotate_left(17),
                    });
                    if ok {
                        accepted.fetch_add(1, Ordering::Relaxed);
                    } else {
                        rejected.fetch_add(1, Ordering::Relaxed);
                        // The ring is full: yield so a snapshot thread can
                        // drain it even when cores are oversubscribed —
                        // otherwise spinning producers starve the drainers
                        // and the test never exercises concurrent frees.
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Two snapshot threads race each other and the producers.
        for _ in 0..2 {
            let (recorder, drained, done) = (&recorder, &drained, &done);
            s.spawn(move || loop {
                // Hold `drained` across the snapshot so append order is
                // drain order: appending after the recorder's drain lock is
                // released would let the other drainer's later batch land
                // first and break the per-producer order check below.
                let mut sink = drained.lock().unwrap();
                let batch = recorder.snapshot();
                let empty = batch.is_empty();
                sink.extend(batch);
                drop(sink);
                if empty && done.load(Ordering::Acquire) {
                    return;
                }
                std::thread::yield_now();
            });
        }
        // Flip `done` once every record() call has resolved, so the
        // snapshot threads exit only after the last producer write.
        let (accepted, rejected, done) = (&accepted, &rejected, &done);
        s.spawn(move || {
            while accepted.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed)
                < PRODUCERS * PER_PRODUCER
            {
                std::hint::spin_loop();
            }
            done.store(true, Ordering::Release);
        });
    });

    // One final drain for anything left in the ring.
    let mut events = drained.into_inner().unwrap();
    events.extend(recorder.snapshot());

    let accepted = accepted.load(Ordering::Relaxed);
    let rejected = rejected.load(Ordering::Relaxed);
    assert_eq!(accepted + rejected, PRODUCERS * PER_PRODUCER);
    // Exact accounting: every accepted event drained exactly once, every
    // rejected one counted exactly once.
    assert_eq!(events.len() as u64, accepted);
    assert_eq!(recorder.dropped(), rejected);
    assert!(recorder.is_empty());

    // No torn events: the checksum must hold for every drained event.
    for ev in &events {
        assert_eq!(
            ev.dur_us,
            checksum(ev.thread, ev.t_us),
            "torn event: {ev:?}"
        );
        assert_eq!(ev.depth as u64, ev.t_us % 7, "torn event: {ev:?}");
        assert_eq!(ev.trace, ev.dur_us.rotate_left(17), "torn event: {ev:?}");
    }

    // Per-producer order survives as a strictly increasing subsequence.
    let mut last = vec![None::<u64>; PRODUCERS as usize];
    for ev in &events {
        let slot = &mut last[ev.thread as usize];
        if let Some(prev) = *slot {
            assert!(
                prev < ev.t_us,
                "producer {} reordered: {prev} then {}",
                ev.thread,
                ev.t_us
            );
        }
        *slot = Some(ev.t_us);
    }

    // Sanity: with a 512-slot ring and 200k attempts the test must have
    // actually exercised both the overflow and the concurrent-drain paths.
    assert!(rejected > 0, "ring never filled; contention not exercised");
    assert!(accepted > CAPACITY as u64, "snapshots never freed space");
}
