//! The sharded micro-batching scheduler and the [`DaceServer`] facade.
//!
//! The server runs `ServeConfig::shards` **core-affine worker shards**.
//! Each shard owns a bounded multi-lane queue
//! ([`ShardQueue`](crate::tenant)) with one lane per tenant drained by
//! deficit-round-robin weighted-fair queueing, a private featurization
//! cache, and at least one dedicated worker; requests are routed to a
//! shard at admission by a structural FNV-1a fingerprint of the plan
//! ([`route_shard`]), salted per tenant, so repeated plans always land
//! where their features are already cached and shards share no lock or
//! cache-line traffic on the hot path. An idle shard **steals bounded
//! batches** from the deepest backlogged peer (`steal_threshold` /
//! `steal_max`), so affinity skew cannot strand throughput; stolen jobs
//! migrate whole — trace ids, deadlines, tenants and response channels
//! intact.
//!
//! **Tenancy.** Requests may carry a tenant id
//! ([`DaceServer::submit_for`]): admission validates the id
//! ([`ServeError::InvalidTenant`]), charges the tenant's token-bucket
//! quota and in-flight cap ([`ServeError::QuotaExceeded`]), and enqueues
//! into the tenant's own lane — a flooding tenant fills and sheds only its
//! own lane while the fair drain keeps serving everyone else. Each tenant
//! has its own [`CircuitBreaker`], so one tenant's panics and deadline
//! misses degrade only that tenant to the fallback, never the global
//! breaker; and with an [`AdapterPager`](crate::AdapterPager) configured
//! ([`DaceServer::with_tenancy`]), tenants whose adapter is not resident
//! are answered zero-shot by the base model (`degraded: true`) while the
//! pager loads their checkpoint in the background — never blocked, never
//! shed.
//!
//! Within a shard, workers drain the queue into [`PackedBatch`]es under a
//! `max_batch` / `max_wait` / `min_fill` policy: a worker blocks for the
//! first request, splices in everything already queued, and dispatches as
//! soon as the batch is full, full *enough* (`min_fill`), or the wait
//! window closes. The window is clamped by every held request's deadline,
//! so batch-wait can never expire a request that arrived alive. Under load
//! the window never opens because the backlog fills the batch instantly.
//! `min_fill` ends the wait early only once the batch already holds that
//! many requests. A closed loop with fewer than `min_fill` clients can
//! never reach it — each client has at most one request outstanding — so
//! every batch waits out the whole window (`max_wait`, less where a
//! deadline clamps it). Admission control keeps tail latency degrading
//! gracefully instead of collapsing: a full shard queue sheds the request
//! immediately with [`ServeError::Overloaded`] (the client can retry
//! against a replica), malformed or hostile plans are rejected up front with
//! [`ServeError::InvalidPlan`], and requests whose deadline passed while
//! queued are dropped with [`ServeError::DeadlineExceeded`] before any work
//! is spent on them.
//!
//! Per batch, each request resolves its model through the lock-free
//! [`ModelRegistry`], features come from the fingerprint-keyed shard-local
//! [`FeatureCache`] (misses featurized through the same
//! [`featurize_trees_sharded`] path training uses), and one block-diagonal
//! f32 forward serves each (tenant, adapter) group.
//!
//! **Failure model.** Workers are supervised (see [`crate::supervisor`]): a
//! panic anywhere in the drain/forward path kills only that worker, which
//! the supervisor respawns; a panic inside one group's forward is caught
//! *in place* and — when the server was built
//! [`DaceServer::with_fallback`] — the group is answered from the
//! [`FallbackEstimator`] with `degraded: true` instead of failing. A
//! [`CircuitBreaker`] watches model-path outcomes (errors and deadline
//! misses) and, once tripped, routes whole groups straight to the fallback
//! until half-open probes prove the model healthy again. Faults themselves
//! can be injected deterministically via [`ServeConfig::faults`] for the
//! chaos tests.
//!
//! [`PackedBatch`]: dace_core::PackedBatch

use std::collections::HashMap;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use dace_core::{featurize_trees_sharded, PlanFeatures, Workspace};
use dace_obs::{mark, next_trace_id, span, trace_scope, LifecycleEvent, MetricsRegistry};
use dace_plan::{validate_plan, PlanTree, PlanValidationError, DEFAULT_MAX_PLAN_DEPTH};
use serde::Serialize;

use crate::cache::FeatureCache;
use crate::fallback::{
    BreakerConfig, BreakerEvent, BreakerGate, BreakerState, CircuitBreaker, FallbackEstimator,
};
use crate::fault::{FaultConfig, FaultInjector, INJECTED_PANIC};
use crate::health::{HealthConfig, HealthPlane};
use crate::introspect::IntrospectServer;
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::paging::{AdapterPager, PagedResolve, PagerConfig};
use crate::registry::{ModelRegistry, ModelVersion};
use crate::supervisor::{lock_recover, WorkerPool};
use crate::tenant::{
    validate_tenant_id, InFlightGuard, PopError, PushError, ShardQueue, TenantConfig,
    TenantSnapshot, TenantState, TenantTable,
};

/// Scheduler policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest batch a worker drains before forwarding. `1` disables
    /// micro-batching.
    pub max_batch: usize,
    /// How long a worker holding a partial batch waits for more requests.
    /// Paid by every batch that runs the queue dry below `min_fill`; a
    /// backlog fills batches instantly.
    pub max_wait: Duration,
    /// Dispatch immediately once a drain holds this many requests instead
    /// of waiting out the rest of the window. A drain holding fewer waits
    /// until the window closes, so a closed loop with fewer than `min_fill`
    /// clients (each with at most one request outstanding) pays the full
    /// `max_wait` on every batch. Lower toward 1 to always dispatch what is
    /// instantaneously queued; raise toward `max_batch` for maximum forward
    /// efficiency under open-loop load.
    pub min_fill: usize,
    /// Bounded queue depth; submissions beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Worker threads draining the queue. `0` is accepted for tests that
    /// exercise admission control without any draining.
    pub workers: usize,
    /// Deadline applied to requests that do not carry their own; `None`
    /// means queued requests never expire.
    pub default_deadline: Option<Duration>,
    /// Featurization-cache capacity in entries (`0` disables the cache).
    pub cache_capacity: usize,
    /// Threads for cache-miss featurization within a batch (`0` = auto).
    /// Batches under 64 misses featurize serially either way, so the
    /// default never pays thread-spawn latency on the serve path.
    pub featurize_threads: usize,
    /// Depth limit enforced by admission-time plan validation (`0`
    /// disables the depth check; structural and numeric validation always
    /// run). Defaults to [`DEFAULT_MAX_PLAN_DEPTH`].
    pub max_plan_depth: usize,
    /// Circuit-breaker tuning; only consulted when the server was built
    /// with a fallback estimator.
    pub breaker: BreakerConfig,
    /// Deterministic fault-injection plan; [`FaultConfig::disabled`] (the
    /// default) compiles to one relaxed atomic load per site.
    pub faults: FaultConfig,
    /// Bind address for the introspection endpoint (`/health`, `/metrics`,
    /// `/events`, `/trace`, `/version`). `None` (the default) disables it;
    /// port 0 binds a free port, readable via
    /// [`DaceServer::introspect_addr`].
    pub introspect_addr: Option<SocketAddr>,
    /// Worker shards. Each shard owns a bounded queue (`queue_depth` slots
    /// each), a private featurization cache, and at least one dedicated
    /// worker; requests are routed to shards by structural plan fingerprint
    /// (FNV-1a), so repeated plans land on the shard whose cache is warm.
    /// `1` (the default) reproduces the single-queue scheduler exactly.
    pub shards: usize,
    /// A shard whose queue holds at least this many requests may be stolen
    /// from by an idle shard. Affinity is a cache hint, not a correctness
    /// property — stolen jobs keep their trace, deadline and response
    /// channel, only the cache warmth differs.
    pub steal_threshold: usize,
    /// Most jobs one steal sweep moves (bounds how much affinity a single
    /// imbalance can destroy).
    pub steal_max: usize,
    /// Pin each shard's workers to a CPU core (`shard index` modulo the
    /// core count), best effort: pinning failures are silently ignored and
    /// non-Linux hosts never attempt it.
    pub pin_cores: bool,
    /// Tenant-isolation policy: default fair-share weight, DRR quantum,
    /// token-bucket quota, in-flight cap, tenant-table bound, and the
    /// top-K metrics cardinality cut. Only consulted for requests that
    /// carry a tenant id ([`DaceServer::submit_for`]); tenant-less traffic
    /// is untouched.
    pub tenants: TenantConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            min_fill: 8,
            queue_depth: 1024,
            workers: 2,
            default_deadline: None,
            cache_capacity: 4096,
            featurize_threads: 1,
            max_plan_depth: DEFAULT_MAX_PLAN_DEPTH,
            breaker: BreakerConfig::default(),
            faults: FaultConfig::disabled(),
            introspect_addr: None,
            shards: 1,
            steal_threshold: 4,
            steal_max: 8,
            pin_cores: false,
            tenants: TenantConfig::default(),
        }
    }
}

/// Why the serve layer refused or failed a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded queue was full at admission — load shed; retry later or
    /// elsewhere.
    Overloaded,
    /// The request's deadline passed before a worker drained it.
    DeadlineExceeded,
    /// The request named an adapter the registry does not hold.
    UnknownAdapter(String),
    /// The plan failed admission-time validation (malformed tree, NaN/Inf
    /// estimates, or deeper than [`ServeConfig::max_plan_depth`]).
    InvalidPlan(PlanValidationError),
    /// The model path panicked on this request's group and no fallback
    /// estimator was configured to absorb it.
    Internal,
    /// The request's tenant is over its token-bucket rate quota or its
    /// in-flight cap ([`TenantConfig`]). Per-tenant by construction: one
    /// tenant exhausting its quota cannot surface this error to another.
    QuotaExceeded,
    /// The request carried a malformed tenant id (empty, over
    /// [`MAX_TENANT_ID_BYTES`](crate::MAX_TENANT_ID_BYTES) bytes, or
    /// outside the printable-ASCII charset). The payload says which check
    /// failed.
    InvalidTenant(String),
    /// The server is shutting down (or already shut down).
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "queue full: request shed"),
            ServeError::DeadlineExceeded => write!(f, "deadline passed in queue"),
            ServeError::UnknownAdapter(n) => write!(f, "unknown adapter {n:?}"),
            ServeError::InvalidPlan(e) => write!(f, "invalid plan: {e}"),
            ServeError::Internal => write!(f, "model path failed and no fallback is configured"),
            ServeError::QuotaExceeded => write!(f, "tenant over quota: request rejected"),
            ServeError::InvalidTenant(reason) => write!(f, "invalid tenant id: {reason}"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Version sentinel stamped on fallback-path answers: a degraded
/// [`Prediction`] did **not** come from any registry snapshot, so it must
/// not carry a real version id. Consumers that aggregate per-model accuracy
/// — the adaptive drift window and shadow evaluation above all — key off
/// this (and the `degraded` flag) to keep heuristic answers out of model
/// observations. `u64::MAX` can never collide with a registry id: versions
/// are a counter starting at 0.
pub const FALLBACK_VERSION: u64 = u64::MAX;

/// A served prediction, stamped with exactly which model answered it.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted latency in milliseconds.
    pub ms: f64,
    /// Adapter that served the request (`None` = base model).
    pub adapter: Option<String>,
    /// Registry version id of the snapshot that served it — the hot-swap
    /// audit trail. Degraded answers carry [`FALLBACK_VERSION`] instead of
    /// the version the request *would have* resolved to, so accuracy
    /// tracking can never attribute a heuristic answer to a model.
    pub version: u64,
    /// Size of the forward batch this request rode in.
    pub batch_size: usize,
    /// Whether featurization came from the cache.
    pub cache_hit: bool,
    /// True when this answer came from the fallback estimator (circuit
    /// breaker open, or the model path panicked on this group) rather than
    /// the model named by `version`. Degraded answers are counted in
    /// `serve_degraded_total`.
    pub degraded: bool,
    /// Per-stage wall-time attribution for this request's batch; `None` on
    /// degraded answers, which skip the staged path.
    pub stages: Option<StageBreakdown>,
    /// Causal trace id minted at admission and carried through the queue,
    /// batch, worker, and (via [`crate::AdaptiveController::observe`]) any
    /// drift→retrain→swap lineage this request triggers. Nonzero on every
    /// served answer; joins against flight-recorder events, journal
    /// records, and retrain `EpochRecord`s.
    pub trace: u64,
}

/// Where a served request's time went, stage by stage (all µs). Queue wait
/// is per-request; the remaining stages are per forward group (every
/// request in the same adapter group shares them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageBreakdown {
    /// Time queued before a worker drained this request.
    pub queue_wait_us: u64,
    /// Fingerprinting plus featurization-cache probes for the group.
    pub cache_lookup_us: u64,
    /// Featurization of the group's cache misses (0 on a full hit).
    pub featurize_us: u64,
    /// Attention share of the group's packed forward pass.
    pub attention_us: u64,
    /// MLP share of the group's packed forward pass.
    pub mlp_us: u64,
}

pub(crate) struct Job {
    tree: PlanTree,
    adapter: Option<String>,
    /// The tenant this request belongs to (`None` = legacy tenant-less
    /// traffic). Carries the cache salt, the per-tenant breaker and the
    /// counters; stolen jobs keep it.
    tenant: Option<Arc<TenantState>>,
    /// RAII slot against the tenant's in-flight cap — released on *every*
    /// exit path (answered, expired, dropped at shutdown) by Drop.
    _in_flight: Option<InFlightGuard>,
    enqueued: Instant,
    deadline: Option<Instant>,
    trace: u64,
    resp: SyncSender<Result<Prediction, ServeError>>,
}

/// In-flight request handle; [`PredictionHandle::wait`] blocks for the
/// response.
#[derive(Debug)]
pub struct PredictionHandle {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl PredictionHandle {
    /// Block until the scheduler answers. If the server is torn down with
    /// the request still queued, this resolves to
    /// [`ServeError::ShuttingDown`] rather than hanging.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

/// Graceful-degradation state: the fallback estimator and the circuit
/// breaker that decides when to use it. Present iff the server was built
/// with [`DaceServer::with_fallback`].
pub(crate) struct DegradeState {
    pub fallback: Box<dyn FallbackEstimator>,
    pub breaker: CircuitBreaker,
}

/// One worker shard: a bounded queue, a private featurization cache (no
/// cross-shard lock traffic on the hot path), and the shard-local counters
/// the scaling bench and the Prometheus export read.
pub(crate) struct ShardState {
    /// The shard's multi-lane DRR queue: one bounded lane per tenant
    /// (plus the `""` lane for tenant-less traffic), `queue_depth` slots
    /// each. Its internal depth mirror is exported as
    /// `serve_shard_queue_depth{shard}` and consulted by thieves.
    pub queue: ShardQueue<Job>,
    /// Collection mutex: exactly one worker of the shard collects a batch
    /// at a time (the historical receiver-mutex semantics, kept as an
    /// explicit lock now that the queue itself is shared). The WorkerKill
    /// fault site panics while holding it, so peers still exercise poison
    /// recovery.
    pub drain_lock: Mutex<()>,
    /// Shard-private featurization cache. Affinity routing makes repeated
    /// plans land here warm; a stolen job simply featurizes into the
    /// thief's cache instead.
    pub cache: FeatureCache,
    /// Requests answered by workers of this shard (stolen work counts for
    /// the thief — it did the forward pass).
    pub completed: AtomicU64,
    /// `steals_from[v]` = jobs this shard stole from shard `v`. Exported as
    /// `serve_steals_total{from="v",to="this"}`.
    pub steals_from: Box<[AtomicU64]>,
}

/// Point-in-time view of one shard, for the scaling bench and tests.
#[derive(Debug, Clone, Serialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Requests currently queued.
    pub queue_depth: u64,
    /// Requests answered by this shard's workers.
    pub completed: u64,
    /// Jobs this shard stole from its peers.
    pub stolen: u64,
    /// Entries in the shard's featurization cache.
    pub cache_len: usize,
}

/// Everything a worker thread needs, bundled so the supervisor can respawn
/// workers from one `Arc` — and so the receivers stay alive with
/// `workers = 0` (admission-control tests).
pub(crate) struct WorkerCtx {
    pub shards: Box<[ShardState]>,
    pub registry: Arc<ModelRegistry>,
    pub metrics: Arc<ServeMetrics>,
    pub config: ServeConfig,
    pub degrade: Option<DegradeState>,
    pub injector: Arc<FaultInjector>,
    /// Live tenants: quotas, weights, breakers, counters. Always present;
    /// empty (and free) when no request ever carried a tenant id.
    pub tenants: TenantTable,
    /// The adapter pager, when built [`DaceServer::with_tenancy`]. `None`
    /// routes tenant requests through the registry like everyone else.
    pub pager: Option<Arc<AdapterPager>>,
    /// The health plane every lifecycle event and SLO observation reports
    /// through. Always present (defaults to in-memory journaling).
    pub health: Arc<HealthPlane>,
    /// Raised before teardown so worker deaths during shutdown are not
    /// respawned (or miscounted as service-affecting).
    pub shutdown: AtomicBool,
}

impl WorkerCtx {
    /// The shard-depth / steal-matrix / per-shard-completed exposition,
    /// appended to `/metrics` through the health plane's text sources.
    /// Label names are quoted per the Prometheus text format; the repo's
    /// round-trip parser keys on the full `name{labels}` string.
    pub(crate) fn shard_prometheus_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("# HELP serve_shard_queue_depth Requests currently queued per shard.\n");
        out.push_str("# TYPE serve_shard_queue_depth gauge\n");
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "serve_shard_queue_depth{{shard=\"{i}\"}} {}",
                s.queue.depth()
            );
        }
        out.push_str("# HELP serve_shard_completed_total Requests answered per shard.\n");
        out.push_str("# TYPE serve_shard_completed_total counter\n");
        for (i, s) in self.shards.iter().enumerate() {
            let _ = writeln!(
                out,
                "serve_shard_completed_total{{shard=\"{i}\"}} {}",
                s.completed.load(Ordering::Relaxed)
            );
        }
        out.push_str(
            "# HELP serve_steals_total Jobs stolen between shards (from victim, to thief).\n",
        );
        out.push_str("# TYPE serve_steals_total counter\n");
        for (to, s) in self.shards.iter().enumerate() {
            for (from, n) in s.steals_from.iter().enumerate() {
                if from == to {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "serve_steals_total{{from=\"{from}\",to=\"{to}\"}} {}",
                    n.load(Ordering::Relaxed)
                );
            }
        }
        out
    }

    /// The bounded-cardinality per-tenant exposition (top-K exact +
    /// `tenant="_other"`), appended to `/metrics` alongside the shard
    /// series. Empty until a request carries a tenant id.
    pub(crate) fn tenant_prometheus_text(&self) -> String {
        self.tenants
            .prometheus_text(self.config.tenants.top_k_series)
    }
}

/// The online estimator service: micro-batching scheduler over a
/// [`ModelRegistry`], with featurization cache, metrics, supervised
/// workers, and (optionally) a circuit-broken fallback estimator.
///
/// Shared state is behind `Arc`s, so `&DaceServer` can be used from any
/// number of client threads; dropping the server joins its workers after
/// they drain the queue.
pub struct DaceServer {
    registry: Arc<ModelRegistry>,
    metrics_registry: Arc<MetricsRegistry>,
    metrics: Arc<ServeMetrics>,
    config: ServeConfig,
    /// Lane key for tenant-less traffic: the one id
    /// [`validate_tenant_id`] rejects, so it can never collide with a real
    /// tenant's lane.
    anon_lane: Arc<str>,
    ctx: Arc<WorkerCtx>,
    pool: Option<WorkerPool>,
    introspect: Option<IntrospectServer>,
}

impl DaceServer {
    /// Start a server over `registry` with `config`, spawning the worker
    /// threads immediately. Without a fallback estimator, model-path
    /// panics are still caught and isolated, but the affected requests
    /// fail with [`ServeError::Internal`] instead of degrading.
    pub fn new(registry: Arc<ModelRegistry>, config: ServeConfig) -> DaceServer {
        DaceServer::build(registry, config, None)
    }

    /// Start a server that degrades to `fallback` (flagged and counted)
    /// whenever the circuit breaker distrusts the model path, instead of
    /// failing requests.
    pub fn with_fallback(
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
        fallback: Box<dyn FallbackEstimator>,
    ) -> DaceServer {
        DaceServer::build(registry, config, Some(fallback))
    }

    /// Start a server with an explicit [`HealthConfig`] — a persistent
    /// lifecycle journal, a diagnostic-bundle directory, and/or tuned SLO
    /// windows. `fallback` is optional, as in
    /// [`new`](DaceServer::new)/[`with_fallback`](DaceServer::with_fallback).
    pub fn with_health(
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
        fallback: Option<Box<dyn FallbackEstimator>>,
        health: HealthConfig,
    ) -> DaceServer {
        DaceServer::build_with_health(registry, config, fallback, health, None)
    }

    /// Start a fully tenant-aware server: everything
    /// [`with_health`](DaceServer::with_health) does, plus an
    /// [`AdapterPager`] when `pager` is given — tenant requests resolve
    /// through the bounded resident set, and cold tenants are answered
    /// zero-shot by the base model (`degraded: true`) while their
    /// checkpoint loads in the background.
    pub fn with_tenancy(
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
        fallback: Option<Box<dyn FallbackEstimator>>,
        health: HealthConfig,
        pager: Option<PagerConfig>,
    ) -> DaceServer {
        DaceServer::build_with_health(registry, config, fallback, health, pager)
    }

    fn build(
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
        fallback: Option<Box<dyn FallbackEstimator>>,
    ) -> DaceServer {
        DaceServer::build_with_health(registry, config, fallback, HealthConfig::default(), None)
    }

    fn build_with_health(
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
        fallback: Option<Box<dyn FallbackEstimator>>,
        health_cfg: HealthConfig,
        pager_cfg: Option<PagerConfig>,
    ) -> DaceServer {
        let shards = config.shards.max(1);
        // Per-server registry (not the process-global one) so two servers —
        // or two sequential bench phases — never blend their counts.
        let metrics_registry = Arc::new(MetricsRegistry::new());
        let metrics = Arc::new(ServeMetrics::register(&metrics_registry));
        let degrade = fallback.map(|fallback| DegradeState {
            fallback,
            breaker: CircuitBreaker::new(config.breaker),
        });
        let health = HealthPlane::new(health_cfg);
        // Flight-recorder drops are owned by the lock-free ring; export
        // them as a gauge sampled at scrape time.
        health.register_drop_gauge(
            &metrics_registry,
            "obs_recorder_dropped",
            "Flight-recorder events dropped because the ring was full.",
            || dace_obs::FlightRecorder::global().dropped(),
        );
        let shard_states: Box<[ShardState]> = (0..shards)
            .map(|_| ShardState {
                // One bounded queue per shard, one lane (of `queue_depth`
                // slots) per tenant inside it: backpressure is per tenant,
                // and a single lane reproduces the old single-FIFO shard
                // exactly.
                queue: ShardQueue::new(config.queue_depth.max(1), config.tenants.quantum),
                drain_lock: Mutex::new(()),
                // Shard caches split the configured capacity so `shards`
                // does not silently multiply the memory budget; hit/miss
                // counters stay shared (the export is per-server).
                cache: FeatureCache::with_counters(
                    config.cache_capacity / shards,
                    Arc::clone(&metrics.cache_hits),
                    Arc::clone(&metrics.cache_misses),
                ),
                completed: AtomicU64::new(0),
                steals_from: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            })
            .collect();
        let injector = Arc::new(FaultInjector::new(config.faults));
        let pager = pager_cfg.map(|cfg| {
            AdapterPager::start(
                cfg,
                Arc::clone(&registry),
                Arc::clone(&injector),
                Arc::clone(&health),
                Arc::clone(&metrics),
            )
        });
        let ctx = Arc::new(WorkerCtx {
            shards: shard_states,
            registry: Arc::clone(&registry),
            metrics: Arc::clone(&metrics),
            config,
            degrade,
            injector,
            tenants: TenantTable::new(config.tenants, config.breaker),
            pager,
            health: Arc::clone(&health),
            shutdown: AtomicBool::new(false),
        });
        // Every shard needs a dedicated drainer or its queue would rely on
        // opportunistic stealing; extra workers round-robin over shards.
        let workers = if config.workers == 0 {
            0
        } else {
            config.workers.max(shards)
        };
        {
            let weak = Arc::downgrade(&ctx);
            health.register_text_source(move || {
                weak.upgrade()
                    .map(|ctx| {
                        let mut text = ctx.shard_prometheus_text();
                        text.push_str(&ctx.tenant_prometheus_text());
                        text
                    })
                    .unwrap_or_default()
            });
        }
        let pool = WorkerPool::start(Arc::clone(&ctx), workers);
        health.emit(
            0,
            LifecycleEvent::ServerStarted {
                workers: workers as u64,
                version: registry.base().version,
            },
        );
        let introspect = config.introspect_addr.and_then(|addr| {
            IntrospectServer::start(
                addr,
                Arc::clone(&health),
                Arc::clone(&metrics_registry),
                Arc::clone(&registry),
                Arc::clone(&ctx),
            )
            .map_err(|e| eprintln!("introspect: bind {addr} failed: {e}"))
            .ok()
        });
        DaceServer {
            registry,
            metrics_registry,
            metrics,
            config,
            anon_lane: Arc::from(""),
            ctx,
            pool: Some(pool),
            introspect,
        }
    }

    /// The registry this server resolves models through (swap adapters
    /// here; traffic picks them up immediately).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The server's fault injector — chaos tests use this to toggle fault
    /// load mid-run ([`FaultInjector::set_enabled`]) and to read roll/fire
    /// counts.
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.ctx.injector
    }

    /// Circuit-breaker state, when a fallback is configured.
    pub fn breaker_state(&self) -> Option<BreakerState> {
        self.ctx.degrade.as_ref().map(|d| d.breaker.state())
    }

    /// The health plane: lifecycle journal, accuracy ledger, SLO tracker.
    pub fn health(&self) -> &Arc<HealthPlane> {
        &self.ctx.health
    }

    /// The bound introspection address, when
    /// [`ServeConfig::introspect_addr`] was set and the bind succeeded.
    /// With port 0 this is the resolved port.
    pub fn introspect_addr(&self) -> Option<SocketAddr> {
        self.introspect.as_ref().map(IntrospectServer::addr)
    }

    /// Submit a request without blocking for its response. Admission
    /// control happens *here*: plan validation rejects hostile input with
    /// [`ServeError::InvalidPlan`], and a full queue returns
    /// [`ServeError::Overloaded`] immediately.
    pub fn submit(
        &self,
        tree: &PlanTree,
        adapter: Option<&str>,
        deadline: Option<Duration>,
    ) -> Result<PredictionHandle, ServeError> {
        self.submit_for(None, tree, adapter, deadline)
    }

    /// Submit a request on behalf of a tenant. On top of everything
    /// [`submit`](DaceServer::submit) enforces, tenant admission validates
    /// the id ([`ServeError::InvalidTenant`]), charges the tenant's
    /// token-bucket quota and in-flight cap
    /// ([`ServeError::QuotaExceeded`]), and enqueues into the tenant's own
    /// weighted-fair lane — so the only traffic a flooding tenant can shed
    /// is its own. The quota token is charged exactly once, here; it is
    /// refunded if the lane sheds the request, and *not* refunded for
    /// answers served degraded (they are answers — the token paid for
    /// one).
    pub fn submit_for(
        &self,
        tenant: Option<&str>,
        tree: &PlanTree,
        adapter: Option<&str>,
        deadline: Option<Duration>,
    ) -> Result<PredictionHandle, ServeError> {
        if self.ctx.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        if let Err(e) = validate_plan(tree, self.config.max_plan_depth) {
            self.metrics.invalid_plan.inc();
            return Err(ServeError::InvalidPlan(e));
        }
        let tenant = match tenant {
            None => None,
            Some(name) => {
                if let Err(reason) = validate_tenant_id(name) {
                    self.metrics.invalid_tenant.inc();
                    return Err(ServeError::InvalidTenant(reason));
                }
                match self.ctx.tenants.get_or_create(name) {
                    Some(t) => Some(t),
                    // Tenant table full: the *new* tenant is shed; nobody
                    // already admitted is affected.
                    None => {
                        self.metrics.shed.inc();
                        return Err(ServeError::Overloaded);
                    }
                }
            }
        };
        let mut in_flight = None;
        if let Some(t) = &tenant {
            if !t.charge_token() {
                t.counters.quota_rejected.fetch_add(1, Ordering::Relaxed);
                self.metrics.quota_rejected.inc();
                return Err(ServeError::QuotaExceeded);
            }
            match t.acquire_in_flight() {
                Some(guard) => in_flight = Some(guard),
                None => {
                    // Rejected after charging: give the token back so the
                    // cap cannot silently drain the bucket.
                    t.refund_token();
                    t.counters.quota_rejected.fetch_add(1, Ordering::Relaxed);
                    self.metrics.quota_rejected.inc();
                    return Err(ServeError::QuotaExceeded);
                }
            }
        }
        let now = Instant::now();
        let (tx, rx) = mpsc::sync_channel(1);
        // Mint the causal trace id here, at admission: everything this
        // request touches downstream (spans, journal records, retrain
        // epochs) carries it.
        let trace = next_trace_id();
        mark!("serve_admit", trace);
        let budget = deadline.or(self.config.default_deadline);
        // Routing is salted per tenant (salt 0 = tenant-less, the legacy
        // route exactly): two tenants submitting the identical plan spread
        // across shards instead of contending for one, and the salt also
        // partitions the featurization cache downstream.
        let salt = tenant.as_ref().map_or(0, |t| t.cache_salt);
        let shard = route_shard(tree, salt, self.ctx.shards.len());
        let (lane, weight) = match &tenant {
            Some(t) => (Arc::clone(&t.name), t.weight()),
            None => (Arc::clone(&self.anon_lane), 1),
        };
        let job = Job {
            tree: tree.clone(),
            adapter: adapter.map(str::to_string),
            tenant: tenant.clone(),
            _in_flight: in_flight,
            enqueued: now,
            deadline: budget.map(|d| now + d),
            trace,
            resp: tx,
        };
        match self.ctx.shards[shard].queue.push(&lane, weight, job) {
            Ok(()) => {
                self.metrics.submitted.inc();
                if let Some(t) = &tenant {
                    t.counters.submitted.fetch_add(1, Ordering::Relaxed);
                }
                Ok(PredictionHandle { rx })
            }
            Err((PushError::Full, job)) => {
                // Affinity is strict at admission: a full lane sheds
                // rather than spilling (work-stealing is the pressure
                // valve on the drain side, backpressure is per tenant per
                // shard). Dropping the job releases the in-flight slot;
                // the admission token is refunded — shed requests were
                // never served.
                drop(job);
                if let Some(t) = &tenant {
                    t.refund_token();
                    t.counters.shed.fetch_add(1, Ordering::Relaxed);
                }
                self.metrics.shed.inc();
                Err(ServeError::Overloaded)
            }
            Err((PushError::Closed, job)) => {
                drop(job);
                if let Some(t) = &tenant {
                    t.refund_token();
                }
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Blocking predict against the base model.
    pub fn predict(&self, tree: &PlanTree) -> Result<Prediction, ServeError> {
        self.predict_with(tree, None, None)
    }

    /// Blocking predict with an explicit adapter and/or deadline.
    pub fn predict_with(
        &self,
        tree: &PlanTree,
        adapter: Option<&str>,
        deadline: Option<Duration>,
    ) -> Result<Prediction, ServeError> {
        self.submit(tree, adapter, deadline)?.wait()
    }

    /// Blocking predict on behalf of a tenant (the tenant's paged adapter
    /// when resident, zero-shot base otherwise).
    pub fn predict_for(&self, tenant: &str, tree: &PlanTree) -> Result<Prediction, ServeError> {
        self.submit_for(Some(tenant), tree, None, None)?.wait()
    }

    /// Set a tenant's fair-queueing weight (creating the tenant if it has
    /// not been seen). Takes effect at the lane's next activation.
    pub fn set_tenant_weight(&self, tenant: &str, weight: u32) -> Result<(), ServeError> {
        self.tenant_entry(tenant)?.set_weight(weight);
        Ok(())
    }

    /// Set a tenant's token-bucket quota (`rps` requests/second, `burst`
    /// capacity; `0` rps = unlimited, `0` burst = same as rps), creating
    /// the tenant if needed.
    pub fn set_tenant_quota(&self, tenant: &str, rps: u32, burst: u32) -> Result<(), ServeError> {
        self.tenant_entry(tenant)?.set_quota(rps, burst);
        Ok(())
    }

    /// Set a tenant's in-flight cap (`0` = unlimited), creating the tenant
    /// if needed.
    pub fn set_tenant_max_in_flight(&self, tenant: &str, max: u32) -> Result<(), ServeError> {
        self.tenant_entry(tenant)?.set_max_in_flight(max);
        Ok(())
    }

    fn tenant_entry(&self, tenant: &str) -> Result<Arc<TenantState>, ServeError> {
        validate_tenant_id(tenant).map_err(ServeError::InvalidTenant)?;
        self.ctx
            .tenants
            .get_or_create(tenant)
            .ok_or(ServeError::Overloaded)
    }

    /// Per-tenant counters, weights and breaker states, sorted by traffic
    /// (what the isolation tests assert on).
    pub fn tenant_snapshot(&self) -> Vec<TenantSnapshot> {
        self.ctx.tenants.snapshot()
    }

    /// A tenant's own circuit-breaker state; `None` if the tenant has
    /// never been seen.
    pub fn tenant_breaker_state(&self, tenant: &str) -> Option<BreakerState> {
        self.ctx.tenants.get(tenant).map(|t| t.breaker.state())
    }

    /// The adapter pager, when the server was built
    /// [`with_tenancy`](DaceServer::with_tenancy) with one.
    pub fn pager(&self) -> Option<&Arc<AdapterPager>> {
        self.ctx.pager.as_ref()
    }

    /// Snapshot all serve metrics, cache counters included (the cache
    /// records through the same registry-backed counters).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Entries currently held by the featurization caches (all shards).
    pub fn cache_len(&self) -> usize {
        self.ctx.shards.iter().map(|s| s.cache.len()).sum()
    }

    /// Per-shard queue depth, completion and steal counters — what the
    /// scaling bench turns into the parity and steal assertions.
    pub fn shard_snapshot(&self) -> Vec<ShardSnapshot> {
        self.ctx
            .shards
            .iter()
            .enumerate()
            .map(|(shard, s)| ShardSnapshot {
                shard,
                queue_depth: s.queue.depth(),
                completed: s.completed.load(Ordering::Relaxed),
                stolen: s
                    .steals_from
                    .iter()
                    .map(|n| n.load(Ordering::Relaxed))
                    .sum(),
                cache_len: s.cache.len(),
            })
            .collect()
    }

    /// The metrics registry every serve counter and histogram lives in —
    /// export it with [`MetricsRegistry::prometheus_text`] or
    /// [`MetricsRegistry::json`].
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics_registry
    }

    /// Stop accepting requests, drain the queue, and join the workers.
    /// Equivalent to dropping the server, but explicit at call sites.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Flag first (stops supervision and new admissions), then close
        // every shard's queue; workers finish the backlog and exit (each
        // shard's dedicated worker drains its own queue, and exiting
        // workers sweep peers for stragglers).
        self.ctx
            .shutdown
            .store(true, std::sync::atomic::Ordering::Release);
        for s in self.ctx.shards.iter() {
            s.queue.close();
        }
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
        if let Some(pager) = &self.ctx.pager {
            pager.stop();
        }
        if let Some(mut introspect) = self.introspect.take() {
            introspect.stop();
        }
    }
}

impl Drop for DaceServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Structural FNV-1a fingerprint for shard routing: node types, child
/// counts and the raw cost/cardinality estimates, in DFS order. Cheaper
/// than the featurizer's fingerprint (no scaler math) and independent of
/// which model version will serve the request — routing must not resolve
/// the registry. Identical plans always hash identically, so repeats land
/// on the shard whose cache already holds their features. `salt` is the
/// tenant's cache salt (0 = tenant-less, which reproduces the historical
/// route bit-for-bit): two tenants submitting the same plan route
/// independently, matching the tenant-partitioned cache keys downstream.
fn route_shard(tree: &PlanTree, salt: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ salt;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(FNV_PRIME);
    };
    for &id in &tree.dfs() {
        let node = tree.node(id);
        mix(node.node_type.one_hot_index() as u64);
        mix(node.children.len() as u64);
        mix(node.est_cost.to_bits());
        mix(node.est_rows.to_bits());
    }
    (h % shards as u64) as usize
}

/// How long an idle shard waits on its own queue before looking for a
/// backlogged peer to steal from.
const STEAL_POLL: Duration = Duration::from_millis(1);

/// Minimum headroom subtracted from a job's deadline when clamping the
/// batch-wait window: dispatch must happen early enough for the forward
/// pass to beat the deadline, not just the drain. The effective margin is
/// `max(this, remaining_slack / 4)` — see `clamp_window` in `drain_batch`.
const DISPATCH_MARGIN: Duration = Duration::from_micros(200);

/// Steal up to `steal_max` jobs from the deepest peer whose queue depth is
/// at least `threshold`. Non-blocking: the victim's queue is popped
/// through the same DRR discipline its own worker uses (`try_pop`), so
/// even stolen service respects tenant fair shares. Stolen `Job`s move
/// whole, so trace ids, deadlines, tenants and response channels
/// all survive the migration; the queue guarantees each job is popped
/// exactly once no matter how many thieves race.
fn steal_batch(ctx: &WorkerCtx, thief: usize, threshold: u64) -> Option<Vec<Job>> {
    let threshold = threshold.max(1);
    let (victim, _) = ctx
        .shards
        .iter()
        .enumerate()
        .filter(|&(i, s)| i != thief && s.queue.depth() >= threshold)
        .max_by_key(|(_, s)| s.queue.depth())?;
    let vs = &ctx.shards[victim];
    let mut jobs = Vec::new();
    while jobs.len() < ctx.config.steal_max.max(1) {
        match vs.queue.try_pop() {
            Some(job) => jobs.push(job),
            None => break,
        }
    }
    if jobs.is_empty() {
        return None;
    }
    ctx.shards[thief].steals_from[victim].fetch_add(jobs.len() as u64, Ordering::Relaxed);
    Some(jobs)
}

/// Drain one batch from this shard's queue (or steal one from a
/// backlogged peer). Holding the shard's drain lock across the wait
/// window is deliberate: only one worker of the shard collects at a time
/// (the others are either forwarding a previous batch or parked on the
/// mutex, which is exactly the wait they would otherwise pay on the
/// queue), and under load pops return instantly so the lock hold is one
/// splice. Thieves never take this lock (the queue itself is
/// thread-safe), so holding it while idle cannot stall a peer.
///
/// Fault sites: a worker kill fires *after* taking the drain lock but
/// *before* popping any job — the dying worker holds no request (nothing
/// is lost) but does poison the shard's mutex, exercising both poison
/// recovery in its peers and the supervisor respawn. A queue stall sleeps
/// while holding the lock, stalling every collector behind it.
///
/// The batching window is clamped by every held job's deadline (minus a
/// slack-proportional margin floored at [`DISPATCH_MARGIN`]): a
/// near-deadline request dispatches the batch
/// early instead of expiring behind a `max_wait` computed from a global
/// clock — no request may miss its deadline purely from batch-wait.
fn drain_batch(ctx: &WorkerCtx, shard: usize) -> Option<Vec<Job>> {
    let my = &ctx.shards[shard];
    let drain = lock_recover(&my.drain_lock);
    if ctx
        .injector
        .should_fire(crate::fault::FaultSite::WorkerKill)
    {
        panic!("{INJECTED_PANIC}: worker kill");
    }
    if let Some(stall) = ctx.injector.queue_stall() {
        std::thread::sleep(stall);
    }
    let first = loop {
        match my.queue.pop_timeout(STEAL_POLL) {
            Ok(job) => break job,
            Err(PopError::Timeout) => {
                // Own queue idle: relieve the deepest backlogged peer.
                if let Some(stolen) = steal_batch(ctx, shard, ctx.config.steal_threshold as u64) {
                    return Some(stolen);
                }
            }
            Err(PopError::Closed) => {
                // Shutdown: the queue is closed and this shard's backlog
                // is fully drained. Sweep the peers once for stragglers
                // (threshold 1) so no queued request is ever abandoned,
                // then exit.
                drop(drain);
                return steal_batch(ctx, shard, 1);
            }
        }
    };
    // The span opens after the blocking recv: it measures batch collection,
    // not idle time waiting for the first request.
    let _span = span!("serve_drain");
    let collect_started = Instant::now();
    let config = ctx.config;
    let max_batch = config.max_batch.max(1);
    let min_fill = config.min_fill.clamp(1, max_batch);
    let mut window_closes = collect_started + config.max_wait;
    let clamp_window = |w: Instant, job: &Job| match job.deadline {
        Some(d) => {
            // Headroom scales with the job's remaining slack (¼ of it,
            // floored at DISPATCH_MARGIN): the fixed floor covers the
            // forward pass, the proportional part absorbs sleep overshoot
            // on a loaded machine — a request 50 ms out can afford to
            // dispatch 12 ms early, one 1 ms out cannot.
            let now = Instant::now();
            let margin = (d.saturating_duration_since(now) / 4).max(DISPATCH_MARGIN);
            w.min(d.checked_sub(margin).unwrap_or(now))
        }
        None => w,
    };
    let mut batch = Vec::with_capacity(max_batch);
    window_closes = clamp_window(window_closes, &first);
    batch.push(first);
    while batch.len() < max_batch {
        // Splice in everything already queued — free batching. Pops come
        // through the DRR discipline, so even within one batch every
        // backlogged tenant gets its fair share of the slots.
        if let Some(job) = my.queue.try_pop() {
            window_closes = clamp_window(window_closes, &job);
            batch.push(job);
            continue;
        }
        // Queue empty: dispatch a full-enough batch immediately; wait out
        // the window only while the batch is genuinely small.
        if batch.len() >= min_fill {
            break;
        }
        if Instant::now() >= window_closes {
            break;
        }
        // Yield before parking: on a loaded (or single-core) machine the
        // producers are runnable right now, and letting them run fills the
        // queue in one scheduler pass instead of one futex wake per job.
        std::thread::yield_now();
        if let Some(job) = my.queue.try_pop() {
            window_closes = clamp_window(window_closes, &job);
            batch.push(job);
            continue;
        }
        // Nothing arrived even after yielding — no producer is ready, so
        // park until one submits or the window closes.
        let now = Instant::now();
        if now >= window_closes {
            break;
        }
        match my.queue.pop_timeout(window_closes - now) {
            Ok(job) => {
                window_closes = clamp_window(window_closes, &job);
                batch.push(job);
            }
            Err(PopError::Timeout) | Err(PopError::Closed) => break,
        }
    }
    ctx.metrics
        .drain_us
        .record(collect_started.elapsed().as_micros() as u64);
    Some(batch)
}

/// Per-worker reusable inference scratch: the model workspace plus the
/// prediction staging vectors. Buffers grow to the high-water batch size
/// and then the drain loop's forward path stops allocating entirely.
#[derive(Default)]
struct WorkerScratch {
    ws: Workspace,
    roots: Vec<f32>,
    ms: Vec<f64>,
}

/// The serving loop for one worker bound to `shard`: drain (or steal) a
/// batch, run it, repeat until the shard's channel disconnects and the
/// final steal sweep comes back empty.
pub(crate) fn worker_loop(ctx: &WorkerCtx, shard: usize) {
    if ctx.config.pin_cores {
        crate::supervisor::pin_current_thread(shard);
    }
    let mut scratch = WorkerScratch::default();
    while let Some(batch) = drain_batch(ctx, shard) {
        process_batch(ctx, shard, batch, &mut scratch);
    }
}

/// Count a breaker transition and journal it through the health plane,
/// stamped with the trace of the request that witnessed it. `BreakerOpened`
/// additionally triggers a diagnostic bundle dump (see
/// [`HealthPlane::emit`]).
fn count_breaker_event(ctx: &WorkerCtx, ev: Option<BreakerEvent>, trace: u64) {
    match ev {
        Some(BreakerEvent::Opened) => {
            ctx.metrics.breaker_opened.inc();
            ctx.health.emit(
                trace,
                LifecycleEvent::BreakerOpened {
                    error_percent: ctx.config.breaker.error_percent as f64,
                },
            );
        }
        Some(BreakerEvent::Closed) => {
            ctx.metrics.breaker_closed.inc();
            ctx.health.emit(trace, LifecycleEvent::BreakerClosed);
        }
        None => {}
    }
}

/// Count and journal a *tenant* breaker transition. Deliberately does not
/// touch the global `serve_breaker_*` counters or the global breaker's
/// journal events: one tenant's trips are that tenant's weather, and the
/// global series stays a clean signal for whole-server incidents.
fn count_tenant_breaker_event(
    ctx: &WorkerCtx,
    tenant: &TenantState,
    ev: Option<BreakerEvent>,
    trace: u64,
) {
    match ev {
        Some(BreakerEvent::Opened) => {
            tenant
                .counters
                .breaker_opened
                .fetch_add(1, Ordering::Relaxed);
            ctx.health.emit(
                trace,
                LifecycleEvent::TenantBreakerOpened {
                    tenant: tenant.name.to_string(),
                    error_percent: ctx.config.breaker.error_percent as f64,
                },
            );
        }
        Some(BreakerEvent::Closed) => {
            tenant
                .counters
                .breaker_closed
                .fetch_add(1, Ordering::Relaxed);
            ctx.health.emit(
                trace,
                LifecycleEvent::TenantBreakerClosed {
                    tenant: tenant.name.to_string(),
                },
            );
        }
        None => {}
    }
}

/// Record a model-path outcome on the breaker that gates this job's
/// traffic: the tenant's own breaker for tenant jobs, the global breaker
/// otherwise. Only meaningful with a fallback configured (no fallback =
/// nothing to degrade to = no breaker).
fn record_breaker_outcome(ctx: &WorkerCtx, tenant: Option<&TenantState>, ok: bool, trace: u64) {
    if ctx.degrade.is_none() {
        return;
    }
    match tenant {
        Some(t) => count_tenant_breaker_event(ctx, t, t.breaker.on_result(ok, false), trace),
        None => {
            if let Some(d) = &ctx.degrade {
                count_breaker_event(ctx, d.breaker.on_result(ok, false), trace);
            }
        }
    }
}

/// Execution-group key: jobs sharing (tenant, adapter) run as one packed
/// forward on one resolved snapshot.
type GroupKey = (Option<Arc<str>>, Option<String>);

fn process_batch(ctx: &WorkerCtx, shard: usize, batch: Vec<Job>, scratch: &mut WorkerScratch) {
    let _span = span!("serve_process_batch");
    let metrics = &ctx.metrics;
    let drained_at = Instant::now();
    metrics.batches.inc();
    metrics.batch_size.record(batch.len() as u64);

    // Admission-side triage, then group survivors by (tenant, adapter) so
    // each group runs one packed forward on one resolved snapshot — and so
    // one tenant's outcomes feed only its own breaker.
    let mut groups: HashMap<GroupKey, Vec<Job>> = HashMap::new();
    let (mut missed, mut met) = (0u64, 0u64);
    let mut missed_trace = 0u64;
    for job in batch {
        metrics
            .queue_wait_us
            .record(drained_at.duration_since(job.enqueued).as_micros() as u64);
        if job.deadline.is_some_and(|d| drained_at >= d) {
            metrics.expired.inc();
            missed += 1;
            if missed_trace == 0 {
                missed_trace = job.trace;
            }
            // A deadline miss is model-path evidence too: enough of them
            // should trip the breaker into serving (fast) degraded answers
            // rather than missing more deadlines. Tenant jobs feed their
            // own breaker — a slow tenant's misses never poison the global
            // evidence window.
            record_breaker_outcome(ctx, job.tenant.as_deref(), false, job.trace);
            ctx.shards[shard].completed.fetch_add(1, Ordering::Relaxed);
            let _ = job.resp.send(Err(ServeError::DeadlineExceeded));
            continue;
        }
        met += 1;
        groups
            .entry((
                job.tenant.as_ref().map(|t| Arc::clone(&t.name)),
                job.adapter.clone(),
            ))
            .or_default()
            .push(job);
    }
    // Feed the deadline SLO at batch granularity; the alert (if any) is
    // stamped with the first expired request's trace.
    ctx.health.record_deadlines(missed, met, missed_trace);

    for ((_, adapter), jobs) in groups {
        let tenant = jobs.first().and_then(|j| j.tenant.clone());
        // Resolve the group's model. Tenant requests without an explicit
        // adapter go through the pager when one is configured: resident →
        // the tenant's paged adapter; cold → answered *now*, zero-shot,
        // by the base model with `degraded: true` — never blocked on the
        // loader, never shed.
        let (version, cold) = match (&tenant, &adapter, &ctx.pager) {
            (Some(t), None, Some(pager)) => match pager.resolve(&t.name) {
                PagedResolve::Resident(v) => (v, false),
                PagedResolve::Cold => (ctx.registry.base(), true),
            },
            _ => match ctx.registry.resolve(adapter.as_deref()) {
                Ok(v) => (v, false),
                Err(_) => {
                    let name = adapter.unwrap_or_default();
                    for job in jobs {
                        metrics.unknown_adapter.inc();
                        ctx.shards[shard].completed.fetch_add(1, Ordering::Relaxed);
                        let _ = job.resp.send(Err(ServeError::UnknownAdapter(name.clone())));
                    }
                    continue;
                }
            },
        };

        // The group's spans carry the first member's trace — a whole-group
        // forward has no single owner, so the representative makes the
        // batch's flight-recorder lane joinable with at least one journal
        // chain.
        let group_trace = jobs.first().map_or(0, |j| j.trace);

        // Route the group: model, breaker probe, or straight to fallback.
        // Tenant groups consult the *tenant's* breaker, so one tenant
        // being tripped degrades only that tenant's traffic; tenant-less
        // groups consult the global breaker as always. Either way a
        // breaker only gates when a fallback exists to degrade to.
        let gating = ctx
            .degrade
            .as_ref()
            .map(|d| tenant.as_ref().map_or(&d.breaker, |t| &t.breaker));
        let (use_model, probe) = match gating {
            Some(breaker) => match breaker.gate() {
                BreakerGate::Model => (true, false),
                BreakerGate::Probe => {
                    // `gate()` flips Open→HalfOpen internally without an
                    // event; the probe grant is the observation point.
                    ctx.health
                        .emit(group_trace, LifecycleEvent::BreakerHalfOpen);
                    (true, true)
                }
                BreakerGate::Fallback => (false, false),
            },
            None => (true, false),
        };
        if !use_model {
            respond_degraded(ctx, shard, &version, jobs);
            continue;
        }

        // The whole model path runs under `catch_unwind`, borrowing the
        // jobs: a panic (injected or real) leaves them intact, so the
        // group degrades to the fallback — or fails typed — instead of
        // killing the worker and poisoning the queue.
        let outcome = {
            let _trace = trace_scope(group_trace);
            catch_unwind(AssertUnwindSafe(|| {
                forward_group(ctx, shard, &version, &jobs, scratch)
            }))
        };
        // Outcomes echo to the same breaker that gated (probe included).
        match outcome {
            Ok(group) => {
                match (&gating, &tenant) {
                    (Some(b), Some(t)) => {
                        count_tenant_breaker_event(ctx, t, b.on_result(true, probe), group_trace)
                    }
                    (Some(b), None) => {
                        count_breaker_event(ctx, b.on_result(true, probe), group_trace)
                    }
                    _ => {}
                }
                respond_predictions(
                    ctx,
                    shard,
                    &version,
                    jobs,
                    group,
                    &scratch.ms,
                    drained_at,
                    cold,
                );
            }
            Err(_) => {
                metrics.batch_panics.inc();
                match (&gating, &tenant) {
                    (Some(b), Some(t)) => {
                        count_tenant_breaker_event(ctx, t, b.on_result(false, probe), group_trace)
                    }
                    (Some(b), None) => {
                        count_breaker_event(ctx, b.on_result(false, probe), group_trace)
                    }
                    _ => {}
                }
                if ctx.degrade.is_some() {
                    respond_degraded(ctx, shard, &version, jobs);
                } else {
                    for job in jobs {
                        ctx.shards[shard].completed.fetch_add(1, Ordering::Relaxed);
                        let _ = job.resp.send(Err(ServeError::Internal));
                    }
                }
            }
        }
    }
}

/// What the model path produced for a group (predictions land in
/// `scratch.ms`, aligned with the group's jobs).
struct GroupOutput {
    hit_mask: Vec<bool>,
    stages: StageBreakdown,
}

/// The model path for one (tenant, adapter) group: featurize through the
/// shard-local cache, then one packed block-diagonal forward. May panic
/// (that is the point — the caller catches it); must not consume the jobs.
fn forward_group(
    ctx: &WorkerCtx,
    shard: usize,
    version: &ModelVersion,
    jobs: &[Job],
    scratch: &mut WorkerScratch,
) -> GroupOutput {
    let metrics = &ctx.metrics;
    let config = ctx.config;
    let est = &version.estimator;
    let cache = &ctx.shards[shard].cache;
    if let Some(delay) = ctx.injector.stage_delay() {
        std::thread::sleep(delay);
    }

    // Featurize through the shard-local cache; misses go through the same
    // sharded path training uses (serial below 64 trees). `featurize_us`
    // keeps its historical meaning (probe + miss featurization); stage
    // timing additionally splits out the probe cost.
    let t_feat = Instant::now();
    // Cache keys are salted with the job's tenant salt (0 for tenant-less
    // traffic, preserving historical keys): two tenants submitting the
    // byte-identical plan can never share — or even observe — each
    // other's cache entries.
    let fingerprints: Vec<u64> = jobs
        .iter()
        .map(|j| {
            est.featurizer.fingerprint(&j.tree) ^ j.tenant.as_ref().map_or(0, |t| t.cache_salt)
        })
        .collect();
    let mut feats: Vec<Option<Arc<PlanFeatures>>> =
        fingerprints.iter().map(|&fp| cache.get(fp)).collect();
    let cache_lookup_us = t_feat.elapsed().as_micros() as u64;
    let hit_mask: Vec<bool> = feats.iter().map(Option::is_some).collect();
    let miss_idx: Vec<usize> = (0..jobs.len()).filter(|&i| feats[i].is_none()).collect();
    if !miss_idx.is_empty() {
        let _span = span!("serve_featurize");
        let miss_trees: Vec<&PlanTree> = miss_idx.iter().map(|&i| &jobs[i].tree).collect();
        let fresh = featurize_trees_sharded(&est.featurizer, &miss_trees, config.featurize_threads);
        for (&i, f) in miss_idx.iter().zip(fresh) {
            let f = Arc::new(f);
            cache.insert(fingerprints[i], Arc::clone(&f));
            feats[i] = Some(f);
        }
    }
    let feats: Vec<Arc<PlanFeatures>> = feats.into_iter().map(Option::unwrap).collect();
    let featurize_us = t_feat.elapsed().as_micros() as u64;
    metrics.featurize_us.record(featurize_us);

    if ctx
        .injector
        .should_fire(crate::fault::FaultSite::BatchPanic)
    {
        panic!("{INJECTED_PANIC}: batch forward panic");
    }

    // One packed block-diagonal forward for the whole group.
    let t_fwd = Instant::now();
    let refs: Vec<&PlanFeatures> = feats.iter().map(Arc::as_ref).collect();
    let stages = {
        let _span = span!("serve_forward");
        // Predictions land in the worker's reusable scratch
        // (`scratch.ms`, aligned with `jobs`): the steady-state forward
        // path allocates nothing.
        let timings = est.predict_features_batch_ms_timed_ws(
            &refs,
            &mut scratch.ws,
            &mut scratch.roots,
            &mut scratch.ms,
        );
        metrics.cache_lookup_us.record(cache_lookup_us);
        metrics.attention_us.record(timings.attention_us);
        metrics.mlp_us.record(timings.mlp_us);
        StageBreakdown {
            queue_wait_us: 0, // stamped per request below
            cache_lookup_us,
            featurize_us: featurize_us - cache_lookup_us,
            attention_us: timings.attention_us,
            mlp_us: timings.mlp_us,
        }
    };
    metrics
        .forward_us
        .record(t_fwd.elapsed().as_micros() as u64);
    GroupOutput { hit_mask, stages }
}

/// Deliver a group's model predictions (`ms` is the scratch-backed slice
/// `forward_group` filled, aligned with `jobs`). `cold` marks zero-shot
/// answers served by the base model because the tenant's adapter was not
/// resident: they are flagged `degraded: true` for the client, but —
/// unlike fallback answers — they *did* come from a real registry
/// snapshot, so they keep the base model's true version stamp rather than
/// [`FALLBACK_VERSION`] (accuracy ledgers attribute them to the model
/// that actually produced the numbers).
#[allow(clippy::too_many_arguments)]
fn respond_predictions(
    ctx: &WorkerCtx,
    shard: usize,
    version: &Arc<ModelVersion>,
    jobs: Vec<Job>,
    group: GroupOutput,
    ms: &[f64],
    drained_at: Instant,
    cold: bool,
) {
    let metrics = &ctx.metrics;
    let group_size = jobs.len();
    let t_resp = Instant::now();
    let _span = span!("serve_respond");
    for ((job, &ms), hit) in jobs.into_iter().zip(ms).zip(group.hit_mask) {
        metrics.completed.inc();
        if cold {
            metrics.cold_start.inc();
        }
        if let Some(t) = &job.tenant {
            t.counters.completed.fetch_add(1, Ordering::Relaxed);
            if cold {
                t.counters.degraded.fetch_add(1, Ordering::Relaxed);
                t.counters.cold_starts.fetch_add(1, Ordering::Relaxed);
            }
        }
        ctx.shards[shard].completed.fetch_add(1, Ordering::Relaxed);
        metrics
            .e2e_us
            .record(job.enqueued.elapsed().as_micros() as u64);
        let stages = Some(StageBreakdown {
            queue_wait_us: drained_at.duration_since(job.enqueued).as_micros() as u64,
            ..group.stages
        });
        mark!("serve_reply", job.trace);
        let _ = job.resp.send(Ok(Prediction {
            ms,
            adapter: version.adapter.clone(),
            version: version.version,
            batch_size: group_size,
            cache_hit: hit,
            degraded: cold,
            stages,
            trace: job.trace,
        }));
    }
    metrics
        .respond_us
        .record(t_resp.elapsed().as_micros() as u64);
}

/// Answer a whole group from the fallback estimator, flagged `degraded`.
/// Used both when the breaker gates the group away from the model and when
/// the model path panicked on it. Only callable with a fallback configured.
///
/// The answer is stamped [`FALLBACK_VERSION`], not the version the group
/// resolved: these numbers did not come from that snapshot, and a drift
/// detector ingesting them as model observations would trip on fallback
/// noise (or worse, mask real model drift).
fn respond_degraded(ctx: &WorkerCtx, shard: usize, version: &Arc<ModelVersion>, jobs: Vec<Job>) {
    let metrics = &ctx.metrics;
    let degrade = ctx
        .degrade
        .as_ref()
        .expect("respond_degraded requires a fallback");
    let group_size = jobs.len();
    let _span = span!("serve_respond");
    for job in jobs {
        let ms = degrade.fallback.predict_ms(&job.tree);
        metrics.degraded.inc();
        metrics.completed.inc();
        if let Some(t) = &job.tenant {
            // The answer still consumes only the token its admission
            // charged — degraded answers never double-bill the quota.
            t.counters.completed.fetch_add(1, Ordering::Relaxed);
            t.counters.degraded.fetch_add(1, Ordering::Relaxed);
        }
        ctx.shards[shard].completed.fetch_add(1, Ordering::Relaxed);
        metrics
            .e2e_us
            .record(job.enqueued.elapsed().as_micros() as u64);
        mark!("serve_reply", job.trace);
        let _ = job.resp.send(Ok(Prediction {
            ms,
            adapter: version.adapter.clone(),
            version: FALLBACK_VERSION,
            batch_size: group_size,
            cache_hit: false,
            degraded: true,
            stages: None,
            trace: job.trace,
        }));
    }
}
