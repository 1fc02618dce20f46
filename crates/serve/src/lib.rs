#![warn(missing_docs)]
//! `dace-serve` — online inference serving for the DACE estimator.
//!
//! The paper's pitch is an estimator cheap enough for the optimizer's hot
//! path: sub-millisecond inference, ~1 MB models, per-deployment LoRA
//! fine-tuning. This crate is the layer that turns the batched kernels of
//! `dace-core` into a service that can hold that promise under concurrent
//! traffic:
//!
//! * [`DaceServer`] — a **micro-batching scheduler**: a bounded MPSC queue
//!   drained by worker threads into packed block-diagonal batches under a
//!   `max_batch`/`max_wait` policy, with admission control (load shedding,
//!   per-request deadlines) so overload degrades tail latency gracefully.
//! * [`ModelRegistry`] — the pretrained base model plus named per-database
//!   LoRA adapters behind hand-rolled `arc-swap`-style cells: adapters
//!   fine-tuned offline hot-swap under live traffic with **zero locks on
//!   the read path**, and every response records the version that served it.
//! * [`FeatureCache`] — a sharded LRU over structural plan fingerprints,
//!   because featurization is the serve path's dominant non-matmul cost.
//! * [`ServeMetrics`] / [`MetricsSnapshot`] — serve-path instrumentation
//!   registered in a shared [`dace_obs::MetricsRegistry`] (queue wait, batch
//!   size, cache lookup, featurize, attention/MLP forward split, end-to-end
//!   p50/p95/p99), exportable as Prometheus text or JSON and read by the
//!   `perfbench` benchmark.
//! * **Robustness** — workers are supervised (`catch_unwind` isolation,
//!   respawn with capped backoff, poison-recovering locks); an optional
//!   [`FallbackEstimator`] behind a [`CircuitBreaker`] answers
//!   `degraded: true` from an optimizer-cost heuristic when the model path
//!   is distrusted; and a deterministic seeded [`FaultInjector`]
//!   ([`ServeConfig::faults`]) drives the chaos tests
//!   (`tests/chaos.rs`).
//! * **Online adaptation** — an [`AdaptiveController`] closes the
//!   observe→retrain→swap loop caller-side: completed requests with
//!   measured actuals feed a lock-free ring, a sliding-window
//!   [`DriftDetector`] over q-error quantiles trips a background LoRA
//!   retrain, shadow eval gates promotion (through the crash-safe
//!   checkpoint path), and a probation window rolls back to last-good if
//!   live traffic disagrees — all without touching the serve hot path
//!   (`tests/adaptive.rs` and `tests/lineage.rs` drive the loop end to
//!   end).
//! * **Multi-tenant isolation** — requests carry a tenant id
//!   ([`DaceServer::submit_for`]): each shard drains per-tenant sub-queues
//!   by deficit-round-robin weighted-fair queueing so a flooding tenant
//!   sheds only its own traffic; admission enforces per-tenant token-bucket
//!   quotas and in-flight caps ([`ServeError::QuotaExceeded`]); every
//!   tenant has its own [`CircuitBreaker`]; and the [`AdapterPager`] keeps
//!   a bounded hot set of per-tenant adapters, answering cold tenants
//!   zero-shot from the base model (`degraded: true`, never blocked).
//!
//! ```no_run
//! use dace_serve::{DaceServer, ModelRegistry, ServeConfig};
//! use std::sync::Arc;
//! # fn estimator() -> dace_core::DaceEstimator { unimplemented!() }
//! # fn some_plan() -> dace_plan::PlanTree { unimplemented!() }
//!
//! let registry = Arc::new(ModelRegistry::new(estimator()));
//! let server = DaceServer::new(Arc::clone(&registry), ServeConfig::default());
//! let pred = server.predict(&some_plan()).unwrap();
//! println!("{} ms, served by version {}", pred.ms, pred.version);
//! ```

mod adaptive;
mod cache;
mod fallback;
mod fault;
mod health;
mod introspect;
mod metrics;
mod paging;
mod registry;
mod scheduler;
mod supervisor;
mod tenant;

pub use adaptive::{
    AdaptiveConfig, AdaptiveController, AdaptiveMetrics, DriftConfig, DriftDetector, DriftTrip,
    FeedbackBuffer, FeedbackSample,
};
pub use cache::{FeatureCache, ShardedLruCache};
pub use dace_obs::{
    EventJournal, JournalRecord, LifecycleEvent, MetricsRegistry, SloConfig, SloStatus,
};
pub use fallback::{
    BreakerConfig, BreakerEvent, BreakerGate, BreakerState, CircuitBreaker, CostLinearFallback,
    FallbackEstimator,
};
pub use fault::{silence_injected_panics, FaultConfig, FaultInjector, FaultSite, INJECTED_PANIC};
pub use health::{HealthConfig, HealthPlane, HealthReport};
pub use introspect::{http_get, IntrospectServer};
pub use metrics::{Histogram, HistogramSnapshot, MetricsSnapshot, ServeMetrics};
pub use paging::{AdapterPager, PagerConfig};
pub use registry::{ModelRegistry, ModelVersion, RegistryConfig, RegistryError, ReloadError};
pub use scheduler::{
    DaceServer, Prediction, PredictionHandle, ServeConfig, ServeError, ShardSnapshot,
    StageBreakdown, FALLBACK_VERSION,
};
pub use tenant::{validate_tenant_id, TenantConfig, TenantSnapshot, MAX_TENANT_ID_BYTES};
