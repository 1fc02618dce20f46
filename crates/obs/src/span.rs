//! RAII tracing spans with thread-local nesting, feeding the global
//! [`FlightRecorder`].
//!
//! Tracing is **off by default**: a disabled span costs one relaxed atomic
//! load and nothing else, which is what lets `span!` live on hot paths
//! (per-batch in serve, per-epoch in training, per-node in the executor)
//! without a measurable tax. Enable with [`set_tracing`], drain with
//! [`FlightRecorder::snapshot_records`](crate::FlightRecorder::snapshot_records).
//!
//! Span names are interned once per call site: the [`span!`](crate::span!) macro keeps a
//! `static OnceLock<u32>` next to the literal, so steady-state enter/exit
//! never touches the intern table's lock.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::recorder::{Event, FlightRecorder};
use crate::trace::current_trace;

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turn span recording on or off process-wide. Spans already entered keep
/// the decision made at entry, so flipping mid-span never produces a
/// half-recorded event.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether spans currently record to the flight recorder.
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

fn intern_table() -> &'static Mutex<Vec<&'static str>> {
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Intern `name`, returning its dense id. Idempotent per distinct string;
/// the [`span!`](crate::span!) macro caches the result per call site so this runs once.
pub fn intern_span_name(name: &'static str) -> u32 {
    let mut table = intern_table().lock().expect("span intern table poisoned");
    if let Some(i) = table.iter().position(|&n| n == name) {
        return i as u32;
    }
    table.push(name);
    (table.len() - 1) as u32
}

/// Resolve an interned id back to its span name (`"?"` for unknown ids,
/// which can only come from hand-built [`Event`]s).
pub fn span_name(id: u32) -> &'static str {
    let table = intern_table().lock().expect("span intern table poisoned");
    table.get(id as usize).copied().unwrap_or("?")
}

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    static THREAD_ID: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Dense id of the calling thread, assigned on first use.
fn current_thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    THREAD_ID.with(|id| {
        if id.get() == u32::MAX {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// An RAII span: constructed by [`span!`](crate::span!), records one [`Event`] covering
/// its lifetime into the global flight recorder on drop. When tracing is
/// disabled at entry the guard is inert (no clock read, no event).
#[derive(Debug)]
pub struct SpanGuard {
    /// `None` when tracing was disabled at entry.
    live: Option<LiveSpan>,
}

#[derive(Debug)]
struct LiveSpan {
    name_id: u32,
    depth: u32,
    start: Instant,
    trace: u64,
}

impl SpanGuard {
    /// Enter a span for the call site owning `slot` (its cached intern id).
    /// Prefer the [`span!`](crate::span!) macro, which supplies the slot. The thread's
    /// current trace id (see [`crate::trace_scope`]) is captured at entry.
    #[inline]
    pub fn enter(name: &'static str, slot: &'static OnceLock<u32>) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard { live: None };
        }
        let name_id = *slot.get_or_init(|| intern_span_name(name));
        let depth = DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        SpanGuard {
            live: Some(LiveSpan {
                name_id,
                depth,
                start: Instant::now(),
                trace: current_trace(),
            }),
        }
    }

    /// Record an instant marker (`dur_us == 0`) named by `name`, stamped
    /// with `trace`. Used at causal boundaries (admission, reply) where an
    /// RAII span has nothing to measure but the trace's timeline needs the
    /// point. A no-op (one relaxed load) when tracing is off. Prefer the
    /// [`mark!`](crate::mark) macro, which supplies the slot.
    #[inline]
    pub fn mark(name: &'static str, slot: &'static OnceLock<u32>, trace: u64) {
        if !tracing_enabled() {
            return;
        }
        let name_id = *slot.get_or_init(|| intern_span_name(name));
        let recorder = FlightRecorder::global();
        recorder.record(Event {
            t_us: recorder.offset_us(Instant::now()),
            dur_us: 0,
            name_id,
            thread: current_thread_id(),
            depth: DEPTH.with(|d| d.get()),
            trace,
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let recorder = FlightRecorder::global();
        recorder.record(Event {
            t_us: recorder.offset_us(live.start),
            dur_us: live.start.elapsed().as_micros() as u64,
            name_id: live.name_id,
            thread: current_thread_id(),
            depth: live.depth,
            trace: live.trace,
        });
    }
}

/// Open an RAII tracing span named by a string literal; the span closes
/// (and records its wall time) when the returned guard drops.
///
/// ```
/// let _span = dace_obs::span!("featurize");
/// // ... work measured by the span ...
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __DACE_SPAN_ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter($name, &__DACE_SPAN_ID)
    }};
}

/// Record an instant trace marker (zero-duration event) stamped with a
/// trace id — the causal breadcrumbs connecting a request's admission,
/// hand-offs and reply across threads.
///
/// ```
/// let trace = dace_obs::next_trace_id();
/// dace_obs::mark!("request_admit", trace);
/// ```
#[macro_export]
macro_rules! mark {
    ($name:literal, $trace:expr) => {{
        static __DACE_SPAN_ID: ::std::sync::OnceLock<u32> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::mark($name, &__DACE_SPAN_ID, $trace)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share the global TRACING flag and recorder, so they run
    // under one lock to avoid cross-test interference.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        FlightRecorder::global().snapshot(); // discard stale events
        set_tracing(true);
        let r = f();
        set_tracing(false);
        r
    }

    #[test]
    fn disabled_spans_record_nothing() {
        with_tracing(|| ()); // serialize + clear
        assert!(!tracing_enabled());
        {
            let _s = span!("disabled_span");
        }
        let events = FlightRecorder::global().snapshot_records();
        assert!(events.iter().all(|e| e.name != "disabled_span"));
    }

    #[test]
    fn nested_spans_record_depth_and_order() {
        let events = with_tracing(|| {
            {
                let _outer = span!("outer_span");
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span!("inner_span");
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            }
            FlightRecorder::global().snapshot_records()
        });
        let inner = events.iter().find(|e| e.name == "inner_span").unwrap();
        let outer = events.iter().find(|e| e.name == "outer_span").unwrap();
        // Inner closes first, nests one deeper, and fits inside outer.
        assert_eq!(inner.depth, outer.depth + 1);
        assert!(inner.t_us >= outer.t_us);
        assert!(inner.dur_us <= outer.dur_us);
        assert!(outer.dur_us >= 3_000, "outer = {}us", outer.dur_us);
    }

    #[test]
    fn intern_is_idempotent() {
        let a = intern_span_name("obs_intern_test");
        let b = intern_span_name("obs_intern_test");
        assert_eq!(a, b);
        assert_eq!(span_name(a), "obs_intern_test");
        assert_eq!(span_name(u32::MAX), "?");
    }

    #[test]
    fn spans_capture_the_current_trace() {
        let events = with_tracing(|| {
            {
                let _scope = crate::trace::trace_scope(0xbeef);
                let _s = span!("traced_span");
            }
            {
                let _s = span!("untraced_span");
            }
            crate::mark!("traced_mark", 0x77);
            FlightRecorder::global().snapshot_records()
        });
        let traced = events.iter().find(|e| e.name == "traced_span").unwrap();
        assert_eq!(traced.trace, 0xbeef);
        let untraced = events.iter().find(|e| e.name == "untraced_span").unwrap();
        assert_eq!(untraced.trace, 0);
        let mark = events.iter().find(|e| e.name == "traced_mark").unwrap();
        assert_eq!(mark.trace, 0x77);
        assert_eq!(mark.dur_us, 0);
    }

    #[test]
    fn thread_ids_are_distinct() {
        let main_id = current_thread_id();
        let other = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(main_id, other);
        assert_eq!(main_id, current_thread_id());
    }
}
