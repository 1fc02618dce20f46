//! The flight recorder: a fixed-capacity lock-free MPSC event log.
//!
//! Producers (span guards, any instrumented thread) publish [`Event`]s with
//! a wait-free-on-average protocol built on safe atomics only: a ticket
//! counter (`head`) hands each event a unique slot, the event's five fields
//! are stored into that slot's plain `AtomicU64` words, and a per-slot
//! sequence word is released last — a reader accepts a slot only once its
//! sequence equals `ticket + 1`, so torn events are impossible without any
//! `unsafe`. When the ring is full the event is **dropped and counted**
//! (recording must never stall the hot path it observes). Snapshots drain
//! from `tail` under a consumer-side mutex that writers never touch, so a
//! snapshot can never block producers; an in-flight write at the drain
//! frontier simply ends the snapshot early and is picked up by the next one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use serde::Serialize;

use crate::span::span_name;

/// One recorded event: a completed span (`dur_us > 0` possible) or an
/// instant marker (`dur_us == 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Start time, microseconds since the recorder's epoch.
    pub t_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Interned span-name id (resolve with [`span_name`]).
    pub name_id: u32,
    /// Small dense per-thread id (assigned on each thread's first event).
    pub thread: u32,
    /// Nesting depth inside this thread's span stack (0 = top level).
    pub depth: u32,
    /// Causal trace id active when the span was entered (0 = untraced).
    pub trace: u64,
}

/// One event slot: a sequence gate plus the event's packed words.
#[derive(Debug)]
struct Slot {
    /// `ticket + 1` once the event for `ticket` is fully written; anything
    /// else means empty or in-flight.
    seq: AtomicU64,
    t_us: AtomicU64,
    dur_us: AtomicU64,
    /// `name_id << 32 | thread`.
    ids: AtomicU64,
    depth: AtomicU64,
    trace: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
            dur_us: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            trace: AtomicU64::new(0),
        }
    }
}

/// Default capacity of the process-wide recorder (events).
pub const DEFAULT_RECORDER_CAPACITY: usize = 65_536;

/// The fixed-capacity MPSC event log. See the module docs for the protocol.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    /// Next ticket to hand out (monotone).
    head: AtomicU64,
    /// Next unconsumed ticket (monotone, advanced only under `drain`).
    tail: AtomicU64,
    dropped: AtomicU64,
    /// Serializes consumers; producers never touch it.
    drain: Mutex<()>,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` events (rounded up to 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            drain: Mutex::new(()),
            epoch: Instant::now(),
        }
    }

    /// The process-wide recorder the `span!` macro feeds.
    pub fn global() -> &'static FlightRecorder {
        static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
        GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_RECORDER_CAPACITY))
    }

    /// Microseconds elapsed since this recorder's epoch for `at` (0 if `at`
    /// predates the epoch — only possible for instants captured before the
    /// recorder was created).
    pub fn offset_us(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_micros() as u64)
    }

    /// Publish one event. Returns `false` (and counts the drop) when the
    /// ring is full; never blocks, never waits on readers.
    pub fn record(&self, ev: Event) -> bool {
        let cap = self.slots.len() as u64;
        loop {
            let h = self.head.load(Ordering::Acquire);
            // Saturating: a drainer may move `tail` past this stale `head`
            // between the two loads. That is not a full ring; the CAS below
            // fails on the stale `head` and the loop retries.
            if h.saturating_sub(self.tail.load(Ordering::Acquire)) >= cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            if self
                .head
                .compare_exchange_weak(h, h + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let slot = &self.slots[(h % cap) as usize];
                slot.t_us.store(ev.t_us, Ordering::Relaxed);
                slot.dur_us.store(ev.dur_us, Ordering::Relaxed);
                slot.ids.store(
                    (ev.name_id as u64) << 32 | ev.thread as u64,
                    Ordering::Relaxed,
                );
                slot.depth.store(ev.depth as u64, Ordering::Relaxed);
                slot.trace.store(ev.trace, Ordering::Relaxed);
                // Publish: readers accept the slot only at seq == ticket+1.
                slot.seq.store(h + 1, Ordering::Release);
                return true;
            }
        }
    }

    /// Drain every fully published event, oldest first. Concurrent
    /// snapshots serialize against each other (each event is returned
    /// exactly once across all of them) but never against producers. An
    /// event whose write is still in flight ends the drain; it and its
    /// successors surface in the next snapshot.
    pub fn snapshot(&self) -> Vec<Event> {
        let _consumer = self.drain.lock().expect("flight recorder drain poisoned");
        let cap = self.slots.len() as u64;
        let mut out = Vec::new();
        loop {
            let t = self.tail.load(Ordering::Acquire);
            if t == self.head.load(Ordering::Acquire) {
                break;
            }
            let slot = &self.slots[(t % cap) as usize];
            if slot.seq.load(Ordering::Acquire) != t + 1 {
                break; // claimed but not yet published
            }
            let ids = slot.ids.load(Ordering::Relaxed);
            out.push(Event {
                t_us: slot.t_us.load(Ordering::Relaxed),
                dur_us: slot.dur_us.load(Ordering::Relaxed),
                name_id: (ids >> 32) as u32,
                thread: ids as u32,
                depth: slot.depth.load(Ordering::Relaxed) as u32,
                trace: slot.trace.load(Ordering::Relaxed),
            });
            // Free the slot for the writer `t + capacity` (which only
            // claims once it observes this store).
            self.tail.store(t + 1, Ordering::Release);
        }
        out
    }

    /// [`snapshot`](FlightRecorder::snapshot) with span names resolved.
    pub fn snapshot_records(&self) -> Vec<EventRecord> {
        self.snapshot()
            .into_iter()
            .map(|ev| EventRecord {
                name: span_name(ev.name_id).to_string(),
                t_us: ev.t_us,
                dur_us: ev.dur_us,
                thread: ev.thread,
                depth: ev.depth,
                trace: ev.trace,
            })
            .collect()
    }

    /// Events dropped on overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered (published or in flight).
    pub fn len(&self) -> usize {
        let h = self.head.load(Ordering::Relaxed);
        let t = self.tail.load(Ordering::Relaxed);
        h.saturating_sub(t) as usize
    }

    /// Whether the ring currently holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// A drained event with its span name resolved — the export form.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EventRecord {
    /// Span name.
    pub name: String,
    /// Start time, µs since the recorder epoch.
    pub t_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Dense thread id.
    pub thread: u32,
    /// Span nesting depth.
    pub depth: u32,
    /// Causal trace id (0 = untraced).
    pub trace: u64,
}

/// Render drained events in the Chrome trace-event JSON format (open the
/// output in `chrome://tracing` or Perfetto): one complete (`"ph": "X"`)
/// event per record. Events are grouped causally: every distinct trace id
/// becomes its own process lane (`pid` = dense per-trace index, assigned in
/// first-seen order), so one request's queue→batch→worker→retrain story
/// reads as one row; untraced events stay on `pid` 0. The full trace id is
/// carried in `args.trace` as hex.
pub fn chrome_trace(records: &[EventRecord]) -> String {
    use serde::Value;
    let field = |k: &str, v: Value| (k.to_string(), v);
    let mut trace_pids: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    for r in records {
        if r.trace != 0 {
            let next = trace_pids.len() as u32 + 1;
            trace_pids.entry(r.trace).or_insert(next);
        }
    }
    let events: Vec<Value> = records
        .iter()
        .map(|r| {
            let pid = if r.trace == 0 {
                0
            } else {
                trace_pids[&r.trace]
            };
            let mut args = vec![field("depth", r.depth.serialize())];
            if r.trace != 0 {
                args.push(field("trace", Value::Str(format!("{:016x}", r.trace))));
            }
            Value::Map(vec![
                field("name", r.name.serialize()),
                field("cat", Value::Str("dace".to_string())),
                field("ph", Value::Str("X".to_string())),
                field("ts", r.t_us.serialize()),
                field("dur", r.dur_us.serialize()),
                field("pid", pid.serialize()),
                field("tid", r.thread.serialize()),
                field("args", Value::Map(args)),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Seq(events)).expect("trace events serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    fn ev(i: u64) -> Event {
        Event {
            t_us: i,
            dur_us: i * 2,
            name_id: 0,
            thread: 0,
            depth: 0,
            trace: 0,
        }
    }

    #[test]
    fn records_and_drains_in_order() {
        let r = FlightRecorder::with_capacity(16);
        for i in 0..10 {
            assert!(r.record(ev(i)));
        }
        assert_eq!(r.len(), 10);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.t_us, i as u64);
            assert_eq!(e.dur_us, 2 * i as u64);
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let r = FlightRecorder::with_capacity(4);
        for i in 0..10 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        // The oldest four events are retained (drop-newest policy).
        let snap = r.snapshot();
        assert_eq!(
            snap.iter().map(|e| e.t_us).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        // Space freed: recording works again.
        assert!(r.record(ev(99)));
        assert_eq!(r.snapshot()[0].t_us, 99);
    }

    #[test]
    fn slots_are_reused_across_laps() {
        let r = FlightRecorder::with_capacity(4);
        for lap in 0..5u64 {
            for i in 0..4 {
                assert!(r.record(ev(lap * 4 + i)));
            }
            let snap = r.snapshot();
            assert_eq!(snap.len(), 4);
            assert_eq!(snap[0].t_us, lap * 4);
        }
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let records = vec![EventRecord {
            name: "featurize".to_string(),
            t_us: 5,
            dur_us: 17,
            thread: 1,
            depth: 2,
            trace: 0,
        }];
        let json = chrome_trace(&records);
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let ev = v.as_seq().unwrap()[0].as_map().unwrap();
        let get = |k| serde::map_get(ev, k).unwrap();
        assert_eq!(get("name").as_str(), Some("featurize"));
        assert_eq!(get("ph").as_str(), Some("X"));
        assert_eq!(u64::deserialize(get("dur")).unwrap(), 17);
        let args = get("args").as_map().unwrap();
        assert_eq!(
            u64::deserialize(serde::map_get(args, "depth").unwrap()).unwrap(),
            2
        );
    }

    #[test]
    fn chrome_trace_groups_by_trace_id() {
        let rec = |name: &str, trace: u64| EventRecord {
            name: name.to_string(),
            t_us: 1,
            dur_us: 2,
            thread: 0,
            depth: 0,
            trace,
        };
        let records = vec![
            rec("untraced", 0),
            rec("req_a_admit", 0xabcd),
            rec("req_b_admit", 0x1234),
            rec("req_a_forward", 0xabcd),
        ];
        let json = chrome_trace(&records);
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let events = v.as_seq().unwrap();
        let pid_of = |i: usize| {
            u64::deserialize(serde::map_get(events[i].as_map().unwrap(), "pid").unwrap()).unwrap()
        };
        assert_eq!(pid_of(0), 0, "untraced events stay on pid 0");
        assert_ne!(pid_of(1), 0);
        assert_ne!(pid_of(2), 0);
        assert_ne!(pid_of(1), pid_of(2), "distinct traces get distinct lanes");
        assert_eq!(pid_of(1), pid_of(3), "same trace shares a lane");
        let args = serde::map_get(events[1].as_map().unwrap(), "args")
            .unwrap()
            .as_map()
            .unwrap();
        assert_eq!(
            serde::map_get(args, "trace").unwrap().as_str(),
            Some("000000000000abcd")
        );
    }
}
