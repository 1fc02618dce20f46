//! `dace-obs` — workspace-wide observability for the DACE reproduction.
//!
//! Four pieces, all hand-rolled on `std` + vendored serde (no external
//! runtime deps):
//!
//! - **Tracing spans** ([`span!`], [`SpanGuard`]): RAII guards recording
//!   nested wall-time per thread. Off by default ([`set_tracing`]); a
//!   disabled span costs one relaxed atomic load.
//! - **Flight recorder** ([`FlightRecorder`]): a fixed-capacity lock-free
//!   MPSC event ring the spans feed. Snapshot on demand, exact drop counter
//!   on overflow, Chrome-trace export ([`chrome_trace`]).
//! - **Metrics registry** ([`MetricsRegistry`]): name-keyed counters and
//!   HDR-style log-bucket histograms ([`Histogram`]) shared across crates,
//!   with Prometheus-text and JSON exporters.
//! - **Run sinks** ([`RunSink`], [`JsonlSink`]): per-epoch training
//!   telemetry ([`EpochRecord`]) written as JSONL run manifests.
//!
//! Quickstart (see `examples/trace_inference.rs` at the workspace root):
//!
//! ```
//! dace_obs::set_tracing(true);
//! {
//!     let _span = dace_obs::span!("doc_example");
//!     dace_obs::MetricsRegistry::global()
//!         .histogram("doc_example_us")
//!         .record(42);
//! }
//! let events = dace_obs::FlightRecorder::global().snapshot_records();
//! assert!(events.iter().any(|e| e.name == "doc_example"));
//! dace_obs::set_tracing(false);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod hash;
pub mod hist;
pub mod journal;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod sketch;
pub mod slo;
pub mod span;
pub mod trace;

pub use alloc::{alloc_probe_bytes, set_alloc_probe};
pub use hash::{fnv1a64, splitmix64};
pub use hist::{bucket_index, bucket_upper, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use journal::{
    decode_journal, read_journal, EventJournal, JournalRecord, LifecycleEvent, DEFAULT_JOURNAL_TAIL,
};
pub use metrics::{parse_prometheus_text, Counter, Gauge, MetricsRegistry, RegistrySnapshot};
pub use recorder::{chrome_trace, Event, EventRecord, FlightRecorder, DEFAULT_RECORDER_CAPACITY};
pub use sink::{
    parse_manifest, records_by_phase, EpochRecord, JsonlSink, MemorySink, RunSink, Verbosity,
};
pub use sketch::{escape_label_value, AccuracyLedger, QErrorSketch, QERR_BUCKETS};
pub use slo::{SloAlert, SloConfig, SloSeries, SloStatus, SloTracker};
pub use span::{intern_span_name, set_tracing, span_name, tracing_enabled, SpanGuard};
pub use trace::{current_trace, next_trace_id, trace_scope, TraceScope};
