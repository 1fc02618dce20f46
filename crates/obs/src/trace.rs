//! Causal trace ids: lock-free minting plus thread-local propagation.
//!
//! A trace id is minted once per request at admission ([`next_trace_id`]) and
//! carried through every stage that touches the request — queue, batch,
//! worker, fallback, adaptive observe, background retrain — so one request's
//! full story can be reassembled from the flight recorder and the lifecycle
//! journal. Ids are produced by running splitmix64 over an atomic sequence:
//! wait-free, collision-free by construction (the sequence never repeats and
//! splitmix64 is a bijection on `u64`), and well-mixed so ids double as hash
//! keys.
//!
//! Propagation is thread-local: a worker entering a request's context opens a
//! [`TraceScope`] ([`trace_scope`]), every span recorded inside the scope
//! picks up the id via [`current_trace`], and the scope restores the previous
//! id on drop so nested contexts (a retrain thread processing a drift trip,
//! say) unwind correctly. Id `0` is reserved for "no trace".

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::splitmix64;

/// The monotone sequence splitmix64 scrambles. Starts at 1 so the first
/// minted id can never be the reserved 0 (splitmix64(0) != 0, but starting
/// above zero keeps the reasoning local).
static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Mint a fresh process-unique trace id. Wait-free (one `fetch_add`); never
/// returns 0 (the "no trace" sentinel).
#[inline]
pub fn next_trace_id() -> u64 {
    loop {
        let id = splitmix64(TRACE_SEQ.fetch_add(1, Ordering::Relaxed));
        if id != 0 {
            return id;
        }
    }
}

thread_local! {
    static CURRENT_TRACE: Cell<u64> = const { Cell::new(0) };
}

/// The trace id active on this thread (0 when no [`TraceScope`] is open).
#[inline]
pub fn current_trace() -> u64 {
    CURRENT_TRACE.with(|t| t.get())
}

/// Enter a trace context: spans recorded on this thread until the returned
/// guard drops are stamped with `trace`. Scopes nest — the guard restores
/// whatever id was active before it.
#[inline]
pub fn trace_scope(trace: u64) -> TraceScope {
    let prev = CURRENT_TRACE.with(|t| t.replace(trace));
    TraceScope { prev }
}

/// RAII guard for a thread-local trace context (see [`trace_scope`]).
#[derive(Debug)]
pub struct TraceScope {
    prev: u64,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|t| t.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let ids: HashSet<u64> = (0..10_000).map(|_| next_trace_id()).collect();
        assert_eq!(ids.len(), 10_000);
        assert!(!ids.contains(&0));
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| (0..2_500).map(|_| next_trace_id()).collect::<Vec<_>>()))
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate trace id {id:#x}");
            }
        }
        assert_eq!(all.len(), 10_000);
    }

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current_trace(), 0);
        {
            let _outer = trace_scope(7);
            assert_eq!(current_trace(), 7);
            {
                let _inner = trace_scope(9);
                assert_eq!(current_trace(), 9);
            }
            assert_eq!(current_trace(), 7);
        }
        assert_eq!(current_trace(), 0);
    }

    #[test]
    fn scope_is_thread_local() {
        let _s = trace_scope(42);
        let other = std::thread::spawn(current_trace).join().unwrap();
        assert_eq!(other, 0);
        assert_eq!(current_trace(), 42);
    }
}
