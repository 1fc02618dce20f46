//! Serve-path metrics, served from the shared [`dace_obs`] registry.
//!
//! The counter/histogram implementations live in `dace-obs` (this module
//! used to own a private copy of the HDR-style histogram; it is the same
//! code, now name-keyed and shared workspace-wide). [`ServeMetrics`] is the
//! serve layer's *wiring*: it registers every serve metric under a stable
//! `serve_*` name in one [`MetricsRegistry`] and holds the resolved `Arc`
//! handles so the hot path never touches the registry lock. The registry
//! itself stays reachable through
//! [`DaceServer::metrics_registry`](crate::DaceServer::metrics_registry)
//! for Prometheus-text / JSON export.

use std::sync::Arc;

use serde::Serialize;

use dace_obs::{Counter, MetricsRegistry};
pub use dace_obs::{Histogram, HistogramSnapshot};

/// All serve-path instrumentation, shared between the scheduler, its worker
/// threads and whoever snapshots. Every field is an `Arc` handle into one
/// [`MetricsRegistry`], registered under the `serve_*` names listed at
/// [`ServeMetrics::register`].
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Requests admitted into the queue.
    pub submitted: Arc<Counter>,
    /// Requests answered with a prediction.
    pub completed: Arc<Counter>,
    /// Requests rejected at admission because the queue was full.
    pub shed: Arc<Counter>,
    /// Requests dropped because their deadline passed before a worker
    /// reached them.
    pub expired: Arc<Counter>,
    /// Requests naming an adapter the registry does not hold.
    pub unknown_adapter: Arc<Counter>,
    /// Requests rejected at admission by plan validation (NaN/Inf
    /// estimates, malformed tree, over the depth limit).
    pub invalid_plan: Arc<Counter>,
    /// Requests answered from the fallback estimator (`degraded: true`).
    pub degraded: Arc<Counter>,
    /// Forward-path panics caught per adapter group (the group is answered
    /// degraded, or failed with `ServeError::Internal` without a fallback).
    pub batch_panics: Arc<Counter>,
    /// Worker threads that died to a panic (injected or real).
    pub worker_panics: Arc<Counter>,
    /// Workers respawned by the supervisor.
    pub worker_restarts: Arc<Counter>,
    /// Supervisor respawn attempts that failed at `thread::spawn`.
    pub spawn_failures: Arc<Counter>,
    /// Times a spawn failure left the worker pool *empty* — the one
    /// condition that actually stops service. Deterministically zero unless
    /// the OS refuses threads; chaos CI asserts it stays zero.
    pub pool_exhausted: Arc<Counter>,
    /// Circuit-breaker trips (closed→open, or a failed probe re-opening).
    pub breaker_opened: Arc<Counter>,
    /// Circuit-breaker recoveries (half-open→closed).
    pub breaker_closed: Arc<Counter>,
    /// Batches drained by workers.
    pub batches: Arc<Counter>,
    /// Requests rejected at admission by a tenant's rate quota or
    /// in-flight cap.
    pub quota_rejected: Arc<Counter>,
    /// Requests rejected at admission for a malformed tenant id.
    pub invalid_tenant: Arc<Counter>,
    /// Requests answered zero-shot by the base model while the tenant's
    /// adapter was cold (loading, quarantined, or just kicked).
    pub cold_start: Arc<Counter>,
    /// Adapters paged in from checkpoints by the background loader.
    pub adapter_loads: Arc<Counter>,
    /// Adapter checkpoint loads that failed (missing, torn, injected).
    pub adapter_load_failures: Arc<Counter>,
    /// Resident adapters evicted to keep the hot set bounded.
    pub adapter_evictions: Arc<Counter>,
    /// Featurization-cache hits (shared with the cache itself).
    pub cache_hits: Arc<Counter>,
    /// Featurization-cache misses (shared with the cache itself).
    pub cache_misses: Arc<Counter>,
    /// Time each request spent queued before a worker drained it (µs).
    pub queue_wait_us: Arc<Histogram>,
    /// Drained batch sizes (requests per batch).
    pub batch_size: Arc<Histogram>,
    /// Per-batch collection time: first request drained to batch dispatched
    /// (µs) — how much of the `max_wait` window batches actually pay.
    pub drain_us: Arc<Histogram>,
    /// Per-group fingerprint + cache probe time (µs), recorded for every
    /// forward group.
    pub cache_lookup_us: Arc<Histogram>,
    /// Per-batch featurization time, cache misses included (µs).
    pub featurize_us: Arc<Histogram>,
    /// Per-batch packed forward-pass time (µs).
    pub forward_us: Arc<Histogram>,
    /// Attention share of the forward pass (µs), recorded for every
    /// forward group.
    pub attention_us: Arc<Histogram>,
    /// MLP share of the forward pass (µs), recorded for every forward
    /// group.
    pub mlp_us: Arc<Histogram>,
    /// Per-batch response-delivery time: client handoff including wakeups
    /// (µs).
    pub respond_us: Arc<Histogram>,
    /// End-to-end request latency, admission to response (µs).
    pub e2e_us: Arc<Histogram>,
}

impl ServeMetrics {
    /// Fresh metrics in a private registry (tests, standalone use). Servers
    /// use [`ServeMetrics::register`] with a registry they expose.
    pub fn new() -> ServeMetrics {
        ServeMetrics::register(&MetricsRegistry::new())
    }

    /// Register every serve metric in `registry` (names: `serve_*_total`
    /// counters, `serve_*_us` / `serve_batch_size` histograms) and return
    /// the resolved handles. Registering twice against the same registry
    /// yields handles to the *same* underlying metrics.
    pub fn register(registry: &MetricsRegistry) -> ServeMetrics {
        for (name, help) in SERVE_METRIC_HELP {
            registry.describe(name, help);
        }
        ServeMetrics {
            submitted: registry.counter("serve_submitted_total"),
            completed: registry.counter("serve_completed_total"),
            shed: registry.counter("serve_shed_total"),
            expired: registry.counter("serve_expired_total"),
            unknown_adapter: registry.counter("serve_unknown_adapter_total"),
            invalid_plan: registry.counter("serve_invalid_plan_total"),
            degraded: registry.counter("serve_degraded_total"),
            batch_panics: registry.counter("serve_batch_panics_total"),
            worker_panics: registry.counter("serve_worker_panics_total"),
            worker_restarts: registry.counter("serve_worker_restarts_total"),
            spawn_failures: registry.counter("serve_spawn_failures_total"),
            pool_exhausted: registry.counter("serve_pool_exhausted_total"),
            breaker_opened: registry.counter("serve_breaker_opened_total"),
            breaker_closed: registry.counter("serve_breaker_closed_total"),
            batches: registry.counter("serve_batches_total"),
            quota_rejected: registry.counter("serve_quota_rejected_total"),
            invalid_tenant: registry.counter("serve_invalid_tenant_total"),
            cold_start: registry.counter("serve_cold_start_total"),
            adapter_loads: registry.counter("serve_adapter_loads_total"),
            adapter_load_failures: registry.counter("serve_adapter_load_failures_total"),
            adapter_evictions: registry.counter("serve_adapter_evictions_total"),
            cache_hits: registry.counter("serve_cache_hits_total"),
            cache_misses: registry.counter("serve_cache_misses_total"),
            queue_wait_us: registry.histogram("serve_queue_wait_us"),
            batch_size: registry.histogram("serve_batch_size"),
            drain_us: registry.histogram("serve_drain_us"),
            cache_lookup_us: registry.histogram("serve_cache_lookup_us"),
            featurize_us: registry.histogram("serve_featurize_us"),
            forward_us: registry.histogram("serve_forward_us"),
            attention_us: registry.histogram("serve_attention_us"),
            mlp_us: registry.histogram("serve_mlp_us"),
            respond_us: registry.histogram("serve_respond_us"),
            e2e_us: registry.histogram("serve_e2e_us"),
        }
    }

    /// Snapshot every counter and histogram (cache counters included — they
    /// are shared with the cache itself).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            shed: self.shed.get(),
            expired: self.expired.get(),
            unknown_adapter: self.unknown_adapter.get(),
            invalid_plan: self.invalid_plan.get(),
            degraded: self.degraded.get(),
            batch_panics: self.batch_panics.get(),
            worker_panics: self.worker_panics.get(),
            worker_restarts: self.worker_restarts.get(),
            spawn_failures: self.spawn_failures.get(),
            pool_exhausted: self.pool_exhausted.get(),
            breaker_opened: self.breaker_opened.get(),
            breaker_closed: self.breaker_closed.get(),
            batches: self.batches.get(),
            quota_rejected: self.quota_rejected.get(),
            invalid_tenant: self.invalid_tenant.get(),
            cold_start: self.cold_start.get(),
            adapter_loads: self.adapter_loads.get(),
            adapter_load_failures: self.adapter_load_failures.get(),
            adapter_evictions: self.adapter_evictions.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            queue_wait_us: self.queue_wait_us.snapshot(),
            batch_size: self.batch_size.snapshot(),
            drain_us: self.drain_us.snapshot(),
            cache_lookup_us: self.cache_lookup_us.snapshot(),
            featurize_us: self.featurize_us.snapshot(),
            forward_us: self.forward_us.snapshot(),
            attention_us: self.attention_us.snapshot(),
            mlp_us: self.mlp_us.snapshot(),
            respond_us: self.respond_us.snapshot(),
            e2e_us: self.e2e_us.snapshot(),
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

/// `# HELP` text for every serve series, registered alongside the metrics
/// so the Prometheus export is self-describing.
const SERVE_METRIC_HELP: &[(&str, &str)] = &[
    ("serve_submitted_total", "Requests admitted into the queue."),
    (
        "serve_completed_total",
        "Requests answered with a prediction.",
    ),
    (
        "serve_shed_total",
        "Requests rejected at admission because the queue was full.",
    ),
    (
        "serve_expired_total",
        "Requests dropped because their deadline passed in queue.",
    ),
    (
        "serve_unknown_adapter_total",
        "Requests naming an adapter the registry does not hold.",
    ),
    (
        "serve_invalid_plan_total",
        "Requests rejected by admission-time plan validation.",
    ),
    (
        "serve_degraded_total",
        "Requests answered from the fallback estimator (degraded).",
    ),
    (
        "serve_batch_panics_total",
        "Forward-path panics caught per adapter group.",
    ),
    (
        "serve_worker_panics_total",
        "Worker threads that died to a panic.",
    ),
    (
        "serve_worker_restarts_total",
        "Workers respawned by the supervisor.",
    ),
    (
        "serve_spawn_failures_total",
        "Supervisor respawn attempts that failed at thread::spawn.",
    ),
    (
        "serve_pool_exhausted_total",
        "Spawn failures that left the worker pool empty.",
    ),
    (
        "serve_breaker_opened_total",
        "Circuit-breaker trips (closed to open, or a failed probe).",
    ),
    (
        "serve_breaker_closed_total",
        "Circuit-breaker recoveries (half-open to closed).",
    ),
    ("serve_batches_total", "Batches drained by workers."),
    (
        "serve_quota_rejected_total",
        "Requests rejected by a tenant's rate quota or in-flight cap.",
    ),
    (
        "serve_invalid_tenant_total",
        "Requests rejected at admission for a malformed tenant id.",
    ),
    (
        "serve_cold_start_total",
        "Zero-shot base-model answers while the tenant adapter was cold.",
    ),
    (
        "serve_adapter_loads_total",
        "Adapters paged in from checkpoints by the background loader.",
    ),
    (
        "serve_adapter_load_failures_total",
        "Adapter checkpoint loads that failed (missing, torn, injected).",
    ),
    (
        "serve_adapter_evictions_total",
        "Resident adapters evicted to keep the hot set bounded.",
    ),
    ("serve_cache_hits_total", "Featurization-cache hits."),
    ("serve_cache_misses_total", "Featurization-cache misses."),
    (
        "serve_queue_wait_us",
        "Time each request spent queued before a worker drained it (us).",
    ),
    (
        "serve_batch_size",
        "Drained batch sizes (requests per batch).",
    ),
    (
        "serve_drain_us",
        "Per-batch collection time: first request drained to dispatch (us).",
    ),
    (
        "serve_cache_lookup_us",
        "Per-group fingerprint and cache-probe time (us).",
    ),
    (
        "serve_featurize_us",
        "Per-batch featurization time, cache misses included (us).",
    ),
    (
        "serve_forward_us",
        "Per-batch packed forward-pass time (us).",
    ),
    (
        "serve_attention_us",
        "Attention share of the forward pass (us).",
    ),
    ("serve_mlp_us", "MLP share of the forward pass (us)."),
    (
        "serve_respond_us",
        "Per-batch response-delivery time including wakeups (us).",
    ),
    (
        "serve_e2e_us",
        "End-to-end request latency, admission to response (us).",
    ),
];

/// Point-in-time view of the whole serve path, printable and serializable
/// (what `perfbench` reports and the serve tests assert on).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests load-shed at admission.
    pub shed: u64,
    /// Requests expired in queue.
    pub expired: u64,
    /// Requests for unknown adapters.
    pub unknown_adapter: u64,
    /// Requests rejected by plan validation at admission.
    pub invalid_plan: u64,
    /// Requests answered from the fallback (`degraded: true`).
    pub degraded: u64,
    /// Forward-path panics caught per group.
    pub batch_panics: u64,
    /// Worker threads lost to panics.
    pub worker_panics: u64,
    /// Workers respawned by the supervisor.
    pub worker_restarts: u64,
    /// Failed respawn attempts.
    pub spawn_failures: u64,
    /// Spawn failures that left the pool empty (service-stopping; chaos CI
    /// asserts zero).
    pub pool_exhausted: u64,
    /// Circuit-breaker trips.
    pub breaker_opened: u64,
    /// Circuit-breaker recoveries.
    pub breaker_closed: u64,
    /// Batches drained.
    pub batches: u64,
    /// Requests rejected by a tenant quota or in-flight cap.
    pub quota_rejected: u64,
    /// Requests rejected for a malformed tenant id.
    pub invalid_tenant: u64,
    /// Zero-shot answers served while the tenant adapter was cold.
    pub cold_start: u64,
    /// Adapters paged in by the background loader.
    pub adapter_loads: u64,
    /// Adapter checkpoint loads that failed.
    pub adapter_load_failures: u64,
    /// Resident adapters evicted over the hot-set bound.
    pub adapter_evictions: u64,
    /// Featurization-cache hits.
    pub cache_hits: u64,
    /// Featurization-cache misses.
    pub cache_misses: u64,
    /// Queue-wait distribution (µs).
    pub queue_wait_us: HistogramSnapshot,
    /// Batch-size distribution.
    pub batch_size: HistogramSnapshot,
    /// Per-batch collection time (µs).
    pub drain_us: HistogramSnapshot,
    /// Per-group cache-probe time (µs).
    pub cache_lookup_us: HistogramSnapshot,
    /// Per-batch featurization time (µs).
    pub featurize_us: HistogramSnapshot,
    /// Per-batch forward time (µs).
    pub forward_us: HistogramSnapshot,
    /// Attention share of forward (µs).
    pub attention_us: HistogramSnapshot,
    /// MLP share of forward (µs).
    pub mlp_us: HistogramSnapshot,
    /// Per-batch response-delivery time (µs).
    pub respond_us: HistogramSnapshot,
    /// End-to-end latency distribution (µs).
    pub e2e_us: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// True when the snapshot reflects no traffic at all.
    pub fn is_empty(&self) -> bool {
        self.submitted == 0 && self.shed == 0
    }

    /// Fraction of *answered* requests that came from the fallback, in
    /// `[0, 1]` (0 with no completions). Degraded answers are included in
    /// `completed` — they are answers, just flagged ones.
    pub fn degraded_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.degraded as f64 / self.completed as f64
        }
    }

    /// Answered fraction of admitted-or-shed traffic, in `[0, 1]` — the
    /// chaos bench's availability number. Degraded answers count; shed,
    /// expired and failed requests do not.
    pub fn availability(&self) -> f64 {
        let offered = self.submitted + self.shed;
        if offered == 0 {
            1.0
        } else {
            self.completed as f64 / offered as f64
        }
    }

    /// Cache hit rate in `[0, 1]` (0 when the cache saw no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests: {} submitted, {} completed, {} shed, {} expired, {} unknown-adapter",
            self.submitted, self.completed, self.shed, self.expired, self.unknown_adapter
        )?;
        writeln!(
            f,
            "batches:  {} drained, size p50/p95/max = {}/{}/{} (mean {:.1})",
            self.batches,
            self.batch_size.p50,
            self.batch_size.p95,
            self.batch_size.max,
            self.batch_size.mean
        )?;
        writeln!(
            f,
            "faults:   {} degraded, {} invalid-plan, {} batch-panics, {} worker-panics, {} restarts ({} spawn-fail, {} pool-exhausted), breaker {}↑/{}↓",
            self.degraded,
            self.invalid_plan,
            self.batch_panics,
            self.worker_panics,
            self.worker_restarts,
            self.spawn_failures,
            self.pool_exhausted,
            self.breaker_opened,
            self.breaker_closed
        )?;
        writeln!(
            f,
            "tenancy:  {} quota-rejected, {} invalid-tenant, {} cold-start, adapters {} loaded / {} failed / {} evicted",
            self.quota_rejected,
            self.invalid_tenant,
            self.cold_start,
            self.adapter_loads,
            self.adapter_load_failures,
            self.adapter_evictions
        )?;
        writeln!(
            f,
            "cache:    {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate()
        )?;
        writeln!(
            f,
            "queue µs: p50 {} p95 {} p99 {} max {}",
            self.queue_wait_us.p50,
            self.queue_wait_us.p95,
            self.queue_wait_us.p99,
            self.queue_wait_us.max
        )?;
        writeln!(
            f,
            "stage µs: drain p50 {} / featurize p50 {} / forward p50 {} (attn {} + mlp {}) / respond p50 {} (per batch)",
            self.drain_us.p50,
            self.featurize_us.p50,
            self.forward_us.p50,
            self.attention_us.p50,
            self.mlp_us.p50,
            self.respond_us.p50
        )?;
        write!(
            f,
            "e2e µs:   p50 {} p95 {} p99 {} max {}",
            self.e2e_us.p50, self.e2e_us.p95, self.e2e_us.p99, self.e2e_us.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_empty() {
        let m = ServeMetrics::new();
        let s = m.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.e2e_us.p99, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let m = ServeMetrics::new();
        m.e2e_us.record(120);
        m.completed.inc();
        let s = m.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"completed\":1"));
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn registering_twice_shares_the_metrics() {
        let registry = MetricsRegistry::new();
        let a = ServeMetrics::register(&registry);
        let b = ServeMetrics::register(&registry);
        a.submitted.inc();
        a.e2e_us.record(10);
        assert_eq!(b.submitted.get(), 1);
        assert_eq!(b.e2e_us.count(), 1);
    }

    #[test]
    fn registry_export_carries_serve_names() {
        let registry = MetricsRegistry::new();
        let m = ServeMetrics::register(&registry);
        m.completed.inc();
        m.e2e_us.record(250);
        let text = registry.prometheus_text();
        assert!(text.contains("serve_completed_total 1"));
        assert!(text.contains("serve_e2e_us_count 1"));
        let parsed = dace_obs::parse_prometheus_text(&text);
        assert_eq!(parsed["serve_completed_total"], 1.0);
        assert!(parsed.contains_key("serve_e2e_us{quantile=\"0.99\"}"));
    }

    #[test]
    fn every_serve_series_carries_registered_help() {
        let registry = MetricsRegistry::new();
        let _m = ServeMetrics::register(&registry);
        let text = registry.prometheus_text();
        for (name, help) in SERVE_METRIC_HELP {
            assert!(
                text.contains(&format!("# HELP {name} {help}")),
                "missing registered HELP for {name}"
            );
            assert!(
                text.contains(&format!("# TYPE {name} ")),
                "missing TYPE for {name}"
            );
        }
        // Hygiene: the round-trip parser consumes every sample line.
        let parsed = dace_obs::parse_prometheus_text(&text);
        let samples = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .count();
        assert_eq!(samples, parsed.len());
    }
}
