//! Multi-tenant isolation: identities, quotas, per-tenant breakers, and
//! the deficit-round-robin weighted-fair shard queue.
//!
//! The serving story of the paper is one estimator hosting many
//! per-(database, machine) adapters — which in production means many
//! *tenants* sharing one process. PR 9's sharded scheduler protects the
//! server from overload; this module protects tenants from **each other**:
//!
//! * [`validate_tenant_id`] — admission-time identity hygiene. Tenant ids
//!   become queue-lane keys, cache salts and Prometheus label values, so
//!   the accepted charset is printable ASCII minus `"` and `\` (the two
//!   bytes that would need escaping in the text exposition format), at
//!   most [`MAX_TENANT_ID_BYTES`] bytes.
//! * [`TokenBucket`] — per-tenant rate quota. Tokens are charged **once at
//!   admission** and refunded only when the request is shed before
//!   enqueue; answers served degraded (fallback or zero-shot cold start)
//!   consume exactly the one token their admission paid, never a second.
//! * [`TenantState`] — one tenant's whole isolation surface: weight,
//!   bucket, in-flight cap, cache salt, its own `CircuitBreaker` (the
//!   PR 5 packed-atomic ring) and a block of monotone counters.
//! * [`ShardQueue`] — replaces the shard's single FIFO with per-tenant
//!   sub-queues drained by deficit round robin: each backlogged lane is
//!   served up to `quantum × weight` jobs per round, so a flooding tenant
//!   fills (and sheds against) only its *own* lane while everyone else
//!   keeps their share of the drain.
//! * [`TenantTable`] — the registry of live tenants, with a
//!   bounded-cardinality Prometheus exposition: exact series for the
//!   top-K tenants by traffic plus one aggregated `tenant="_other"`
//!   bucket, so a million hostile tenant ids cannot blow up the scrape.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::fallback::{BreakerConfig, BreakerState, CircuitBreaker};

/// Longest accepted tenant id, in bytes.
pub const MAX_TENANT_ID_BYTES: usize = 64;

/// Validate a tenant id at admission: non-empty, at most
/// [`MAX_TENANT_ID_BYTES`] bytes, printable ASCII (`0x20..=0x7e`)
/// excluding `"` and `\`. The charset is deliberately the safe subset of
/// a Prometheus label value: accepted ids can be interpolated into
/// `tenant="..."` verbatim, so a hostile id can never break label text,
/// smuggle a fake series, or corrupt the journal's JSON framing.
pub fn validate_tenant_id(id: &str) -> Result<(), String> {
    if id.is_empty() {
        return Err("tenant id is empty".to_string());
    }
    if id.len() > MAX_TENANT_ID_BYTES {
        return Err(format!(
            "tenant id is {} bytes (max {MAX_TENANT_ID_BYTES})",
            id.len()
        ));
    }
    for b in id.bytes() {
        if !(0x20..=0x7e).contains(&b) || b == b'"' || b == b'\\' {
            return Err(format!(
                "tenant id contains byte {b:#04x} (printable ASCII without quote/backslash only)"
            ));
        }
    }
    Ok(())
}

/// Tenant-isolation policy knobs. All-integer, so `Copy + Eq` inside
/// `ServeConfig`; per-tenant overrides (weight, quota) are applied at
/// runtime through `DaceServer::set_tenant_weight` /
/// `DaceServer::set_tenant_quota`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantConfig {
    /// Fair-queueing weight assigned to a tenant on first sight.
    pub default_weight: u32,
    /// Base deficit-round-robin quantum: a backlogged tenant is served up
    /// to `quantum × weight` requests per scheduling round. Larger values
    /// favor batch locality; `1` is strict per-request round robin.
    pub quantum: u32,
    /// Token-bucket refill rate in requests/second; `0` = unlimited.
    pub quota_rps: u32,
    /// Token-bucket burst capacity; `0` means "same as `quota_rps`".
    pub quota_burst: u32,
    /// Most requests one tenant may have in flight (queued or executing)
    /// at once; `0` = unlimited.
    pub max_in_flight: u32,
    /// Distinct tenants the table will admit; requests for tenants beyond
    /// this are shed (`ServeError::Overloaded`), existing tenants are
    /// unaffected.
    pub max_tenants: usize,
    /// Tenants exported as exact Prometheus series (ranked by submitted
    /// traffic); everyone else aggregates into `tenant="_other"`.
    pub top_k_series: usize,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            default_weight: 1,
            quantum: 8,
            quota_rps: 0,
            quota_burst: 0,
            max_in_flight: 0,
            max_tenants: 4096,
            top_k_series: 5,
        }
    }
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// FNV-1a over the tenant name, finalized splitmix-style. Used as the
/// featurization-cache salt (fingerprints XOR the salt, so two tenants
/// submitting the identical plan can never share a cache entry) and as
/// the shard-routing seed. Never 0 — that value is reserved for
/// tenant-less traffic, which keeps the legacy single-tenant behavior
/// bit-for-bit.
pub(crate) fn tenant_salt(name: &str) -> u64 {
    match dace_obs::splitmix64(dace_obs::fnv1a64(name.as_bytes())) {
        0 => 0x9e37_79b9_7f4a_7c15,
        z => z,
    }
}

/// A continuous-refill token bucket. Rate and capacity live behind the
/// same mutex as the level so quotas can be retuned at runtime without
/// racing a charge.
#[derive(Debug)]
pub(crate) struct TokenBucket {
    inner: Mutex<BucketInner>,
}

#[derive(Debug)]
struct BucketInner {
    /// Refill rate, tokens/second; `0` = unlimited (every charge
    /// succeeds).
    rate: f64,
    /// Capacity the level saturates at.
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(rps: u32, burst: u32) -> TokenBucket {
        let rate = f64::from(rps);
        let burst = if burst > 0 { f64::from(burst) } else { rate };
        TokenBucket {
            inner: Mutex::new(BucketInner {
                rate,
                burst,
                tokens: burst,
                last: Instant::now(),
            }),
        }
    }

    fn refill(inner: &mut BucketInner, now: Instant) {
        let dt = now.duration_since(inner.last).as_secs_f64();
        inner.last = now;
        inner.tokens = (inner.tokens + dt * inner.rate).min(inner.burst);
    }

    /// Take one token; `false` means the quota is exhausted right now.
    fn try_charge(&self) -> bool {
        let mut inner = lock(&self.inner);
        if inner.rate == 0.0 {
            return true;
        }
        Self::refill(&mut inner, Instant::now());
        if inner.tokens >= 1.0 {
            inner.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Return one token (the request it paid for was shed before
    /// enqueue).
    fn refund(&self) {
        let mut inner = lock(&self.inner);
        if inner.rate == 0.0 {
            return;
        }
        let burst = inner.burst;
        inner.tokens = (inner.tokens + 1.0).min(burst);
    }

    fn set_quota(&self, rps: u32, burst: u32) {
        let mut inner = lock(&self.inner);
        let was_unlimited = inner.rate == 0.0;
        Self::refill(&mut inner, Instant::now());
        inner.rate = f64::from(rps);
        inner.burst = if burst > 0 {
            f64::from(burst)
        } else {
            f64::from(rps)
        };
        // A previously unlimited tenant starts with a full bucket: the
        // new quota bounds its rate going forward, it is not a
        // retroactive debt. A tightened finite quota only clamps.
        inner.tokens = if was_unlimited {
            inner.burst
        } else {
            inner.tokens.min(inner.burst)
        };
    }
}

/// Monotone per-tenant counters. The quota-accounting invariant the
/// counter-agreement test pins down: `tokens_charged - tokens_refunded ==
/// submitted` at quiescence — every admitted request paid exactly one
/// token, every rejected one paid zero, and nothing downstream (fallback,
/// zero-shot cold start, deadline miss) charges again.
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub degraded: AtomicU64,
    pub shed: AtomicU64,
    pub quota_rejected: AtomicU64,
    pub cold_starts: AtomicU64,
    pub tokens_charged: AtomicU64,
    pub tokens_refunded: AtomicU64,
    pub breaker_opened: AtomicU64,
    pub breaker_closed: AtomicU64,
}

/// Everything the serve path knows about one tenant. Created lazily on
/// first sight (defaults from [`TenantConfig`]) and shared by `Arc`
/// between the admission path, queued jobs, and the metrics exposition.
#[derive(Debug)]
pub(crate) struct TenantState {
    pub name: Arc<str>,
    /// Fair-queueing weight; read at every push so weight changes apply
    /// on the lane's next activation.
    weight: AtomicU32,
    /// XORed into featurization-cache fingerprints and the shard route:
    /// never 0, so tenant traffic can never collide with the tenant-less
    /// key space.
    pub cache_salt: u64,
    bucket: TokenBucket,
    in_flight: AtomicU32,
    max_in_flight: AtomicU32,
    /// This tenant's own breaker: its panics and deadline misses degrade
    /// only its own traffic to the fallback, and never feed the global
    /// breaker's evidence window.
    pub breaker: CircuitBreaker,
    pub counters: TenantCounters,
}

impl TenantState {
    fn new(name: &str, config: &TenantConfig, breaker: BreakerConfig) -> TenantState {
        TenantState {
            name: Arc::from(name),
            weight: AtomicU32::new(config.default_weight.max(1)),
            cache_salt: tenant_salt(name),
            bucket: TokenBucket::new(config.quota_rps, config.quota_burst),
            in_flight: AtomicU32::new(0),
            max_in_flight: AtomicU32::new(config.max_in_flight),
            breaker: CircuitBreaker::new(breaker),
            counters: TenantCounters::default(),
        }
    }

    pub fn weight(&self) -> u32 {
        self.weight.load(Ordering::Relaxed).max(1)
    }

    pub fn set_weight(&self, weight: u32) {
        self.weight.store(weight.max(1), Ordering::Relaxed);
    }

    pub fn set_quota(&self, rps: u32, burst: u32) {
        self.bucket.set_quota(rps, burst);
    }

    pub fn set_max_in_flight(&self, max: u32) {
        self.max_in_flight.store(max, Ordering::Relaxed);
    }

    /// Charge one quota token; counted so the refund ledger can be
    /// audited.
    pub fn charge_token(&self) -> bool {
        if self.bucket.try_charge() {
            self.counters.tokens_charged.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Refund the admission token of a request shed before enqueue.
    pub fn refund_token(&self) {
        self.bucket.refund();
        self.counters
            .tokens_refunded
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Claim an in-flight slot. The returned guard releases it on drop,
    /// which covers every exit path a job can take — answered, expired,
    /// shed at push, or dropped in a closing queue.
    pub fn acquire_in_flight(self: &Arc<Self>) -> Option<InFlightGuard> {
        let max = self.max_in_flight.load(Ordering::Relaxed);
        let mut cur = self.in_flight.load(Ordering::Relaxed);
        loop {
            if max != 0 && cur >= max {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return Some(InFlightGuard {
                        tenant: Arc::clone(self),
                    })
                }
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn in_flight(&self) -> u32 {
        self.in_flight.load(Ordering::Relaxed)
    }
}

/// RAII in-flight slot: decrements the owner's counter on drop.
#[derive(Debug)]
pub(crate) struct InFlightGuard {
    tenant: Arc<TenantState>,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.tenant.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Point-in-time view of one tenant (what the isolation tests assert on).
#[derive(Debug, Clone, Serialize)]
pub struct TenantSnapshot {
    /// Tenant id.
    pub tenant: String,
    /// Current fair-queueing weight.
    pub weight: u32,
    /// Requests currently queued or executing.
    pub in_flight: u32,
    /// Requests admitted into a shard queue.
    pub submitted: u64,
    /// Requests answered (model, fallback, or zero-shot cold start).
    pub completed: u64,
    /// Answers flagged `degraded: true`.
    pub degraded: u64,
    /// Requests shed because this tenant's own lane was full.
    pub shed: u64,
    /// Requests rejected by the rate quota or the in-flight cap.
    pub quota_rejected: u64,
    /// Answers served zero-shot by the base model while the tenant's
    /// adapter was not resident.
    pub cold_starts: u64,
    /// Quota tokens charged at admission.
    pub tokens_charged: u64,
    /// Quota tokens refunded on shed.
    pub tokens_refunded: u64,
    /// This tenant's breaker trips.
    pub breaker_opened: u64,
    /// This tenant's breaker recoveries.
    pub breaker_closed: u64,
    /// This tenant's breaker state (`closed` / `open` / `half_open`).
    pub breaker_state: &'static str,
}

/// The registry of live tenants: lazy creation with a hard cardinality
/// cap, lock-free per-tenant state behind `Arc`s, and the
/// bounded-cardinality Prometheus exposition.
#[derive(Debug)]
pub(crate) struct TenantTable {
    config: TenantConfig,
    breaker: BreakerConfig,
    tenants: RwLock<HashMap<Arc<str>, Arc<TenantState>>>,
}

impl TenantTable {
    pub fn new(config: TenantConfig, breaker: BreakerConfig) -> TenantTable {
        TenantTable {
            config,
            breaker,
            tenants: RwLock::new(HashMap::new()),
        }
    }

    /// Look up (or lazily create) a tenant. `None` means the table is at
    /// [`TenantConfig::max_tenants`] — the *new* tenant is shed, existing
    /// tenants are untouched.
    pub fn get_or_create(&self, name: &str) -> Option<Arc<TenantState>> {
        if let Some(t) = self
            .tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
        {
            return Some(Arc::clone(t));
        }
        let mut map = self.tenants.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = map.get(name) {
            return Some(Arc::clone(t));
        }
        if map.len() >= self.config.max_tenants.max(1) {
            return None;
        }
        let t = Arc::new(TenantState::new(name, &self.config, self.breaker));
        map.insert(Arc::clone(&t.name), Arc::clone(&t));
        Some(t)
    }

    pub fn get(&self, name: &str) -> Option<Arc<TenantState>> {
        self.tenants
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(Arc::clone)
    }

    pub fn snapshot(&self) -> Vec<TenantSnapshot> {
        let map = self.tenants.read().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<TenantSnapshot> = map
            .values()
            .map(|t| {
                let c = &t.counters;
                TenantSnapshot {
                    tenant: t.name.to_string(),
                    weight: t.weight(),
                    in_flight: t.in_flight(),
                    submitted: c.submitted.load(Ordering::Relaxed),
                    completed: c.completed.load(Ordering::Relaxed),
                    degraded: c.degraded.load(Ordering::Relaxed),
                    shed: c.shed.load(Ordering::Relaxed),
                    quota_rejected: c.quota_rejected.load(Ordering::Relaxed),
                    cold_starts: c.cold_starts.load(Ordering::Relaxed),
                    tokens_charged: c.tokens_charged.load(Ordering::Relaxed),
                    tokens_refunded: c.tokens_refunded.load(Ordering::Relaxed),
                    breaker_opened: c.breaker_opened.load(Ordering::Relaxed),
                    breaker_closed: c.breaker_closed.load(Ordering::Relaxed),
                    breaker_state: match t.breaker.state() {
                        BreakerState::Closed => "closed",
                        BreakerState::Open => "open",
                        BreakerState::HalfOpen => "half_open",
                    },
                }
            })
            .collect();
        out.sort_by(|a, b| b.submitted.cmp(&a.submitted).then(a.tenant.cmp(&b.tenant)));
        out
    }

    /// Bounded-cardinality per-tenant exposition: exact `tenant="..."`
    /// series for the top-K tenants by submitted traffic plus one
    /// aggregated `tenant="_other"` bucket per family. Empty when no
    /// tenant has been seen, so single-tenant deployments pay nothing on
    /// the scrape. Label values are safe to interpolate verbatim —
    /// [`validate_tenant_id`] rejected everything that would need
    /// escaping before the tenant could exist.
    pub fn prometheus_text(&self, top_k: usize) -> String {
        use std::fmt::Write;
        /// One exported family: metric name, HELP text, counter accessor.
        type Family = (&'static str, &'static str, fn(&TenantSnapshot) -> u64);
        let snaps = self.snapshot();
        if snaps.is_empty() {
            return String::new();
        }
        let k = top_k.max(1).min(snaps.len());
        let (exact, rest) = snaps.split_at(k);
        let mut out = String::new();
        let families: [Family; 6] = [
            (
                "serve_tenant_submitted_total",
                "Requests admitted per tenant (top-K exact, rest in _other).",
                |s| s.submitted,
            ),
            (
                "serve_tenant_completed_total",
                "Requests answered per tenant.",
                |s| s.completed,
            ),
            (
                "serve_tenant_degraded_total",
                "Degraded-flagged answers per tenant.",
                |s| s.degraded,
            ),
            (
                "serve_tenant_shed_total",
                "Requests shed at the tenant's own full lane.",
                |s| s.shed,
            ),
            (
                "serve_tenant_quota_rejected_total",
                "Requests rejected by the tenant's quota or in-flight cap.",
                |s| s.quota_rejected,
            ),
            (
                "serve_tenant_cold_start_total",
                "Zero-shot base-model answers while the adapter was not resident.",
                |s| s.cold_starts,
            ),
        ];
        for (name, help, get) in families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for s in exact {
                let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", s.tenant, get(s));
            }
            if !rest.is_empty() {
                let sum: u64 = rest.iter().map(get).sum();
                let _ = writeln!(out, "{name}{{tenant=\"_other\"}} {sum}");
            }
        }
        out
    }
}

/// Why a push was refused. The job comes back with the error so the
/// caller can refund its admission (drop its in-flight guard, return its
/// quota token).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushError {
    /// The tenant's own lane is at capacity — only this tenant sheds.
    Full,
    /// The queue was closed for shutdown.
    Closed,
}

/// Why a pop came back empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PopError {
    /// Nothing arrived within the wait window.
    Timeout,
    /// Closed *and* fully drained — the worker may exit. A closed queue
    /// that still holds jobs keeps handing them out: shutdown drains, it
    /// never drops.
    Closed,
}

/// One tenant's sub-queue inside a shard.
#[derive(Debug)]
struct Lane<T> {
    jobs: VecDeque<T>,
    weight: u32,
}

#[derive(Debug)]
struct QueueInner<T> {
    lanes: Vec<Lane<T>>,
    by_key: HashMap<Arc<str>, usize>,
    /// Backlogged lanes awaiting service, in activation order. A lane
    /// index is here *xor* is `current` *xor* is empty.
    active: VecDeque<usize>,
    /// The lane being served and its remaining deficit. Always
    /// backlogged.
    current: Option<(usize, u64)>,
    closed: bool,
}

/// A shard's bounded multi-lane queue, drained by deficit round robin.
///
/// Every tenant gets its own lane with its own `per_lane_cap` slots (the
/// shard's `queue_depth`), so backpressure is per tenant: a flooder fills
/// only its own lane and sheds only its own traffic, and with a single
/// lane the queue reproduces the old single-FIFO scheduler exactly —
/// same capacity, same FIFO order, same close-then-drain shutdown.
///
/// Scheduling: the current lane is served until its deficit
/// (`quantum × weight`, reset at each activation) is spent or its backlog
/// drains; a lane with residual backlog rotates to the tail of the
/// active ring. Service within a lane is FIFO. Per round, every
/// backlogged lane therefore gets at least `quantum × weight` slots —
/// the starvation-freedom bound the property test pins down.
#[derive(Debug)]
pub(crate) struct ShardQueue<T> {
    inner: Mutex<QueueInner<T>>,
    cv: Condvar,
    /// Lock-free mirror of the total backlog, for thieves picking a
    /// victim and the depth gauge.
    depth: AtomicU64,
    per_lane_cap: usize,
    quantum: u64,
}

impl<T> ShardQueue<T> {
    pub fn new(per_lane_cap: usize, quantum: u32) -> ShardQueue<T> {
        ShardQueue {
            inner: Mutex::new(QueueInner {
                lanes: Vec::new(),
                by_key: HashMap::new(),
                active: VecDeque::new(),
                current: None,
                closed: false,
            }),
            cv: Condvar::new(),
            depth: AtomicU64::new(0),
            per_lane_cap: per_lane_cap.max(1),
            quantum: u64::from(quantum.max(1)),
        }
    }

    /// Total jobs queued across all lanes (relaxed; exact at quiescence).
    pub fn depth(&self) -> u64 {
        self.depth.load(Ordering::Relaxed)
    }

    /// Enqueue into `key`'s lane. On refusal the item comes back so its
    /// admission state can be unwound.
    pub fn push(&self, key: &Arc<str>, weight: u32, item: T) -> Result<(), (PushError, T)> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err((PushError::Closed, item));
        }
        let idx = match inner.by_key.get(key) {
            Some(&i) => i,
            None => {
                let i = inner.lanes.len();
                inner.lanes.push(Lane {
                    jobs: VecDeque::new(),
                    weight,
                });
                inner.by_key.insert(Arc::clone(key), i);
                i
            }
        };
        inner.lanes[idx].weight = weight.max(1);
        if inner.lanes[idx].jobs.len() >= self.per_lane_cap {
            return Err((PushError::Full, item));
        }
        let was_idle = inner.lanes[idx].jobs.is_empty();
        inner.lanes[idx].jobs.push_back(item);
        if was_idle {
            // An empty lane is never `current` (pops clear it), so
            // activation is unconditional.
            inner.active.push_back(idx);
        }
        drop(inner);
        self.depth.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_one();
        Ok(())
    }

    fn pop_locked(inner: &mut QueueInner<T>, quantum: u64) -> Option<T> {
        loop {
            let (idx, deficit) = match inner.current.take() {
                Some(c) => c,
                None => {
                    let idx = inner.active.pop_front()?;
                    let w = u64::from(inner.lanes[idx].weight.max(1));
                    (idx, quantum * w)
                }
            };
            let Some(job) = inner.lanes[idx].jobs.pop_front() else {
                // Defensive: an empty lane should never be scheduled;
                // skip it rather than spin.
                continue;
            };
            let deficit = deficit - 1;
            if inner.lanes[idx].jobs.is_empty() {
                // Drained: credit does not carry across idle periods
                // (lanes restart with a fresh deficit — idleness buys no
                // burst later).
            } else if deficit == 0 {
                inner.active.push_back(idx);
            } else {
                inner.current = Some((idx, deficit));
            }
            return Some(job);
        }
    }

    /// Dequeue without blocking (thieves, batch splicing).
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = lock(&self.inner);
        let job = Self::pop_locked(&mut inner, self.quantum)?;
        drop(inner);
        self.depth.fetch_sub(1, Ordering::Relaxed);
        Some(job)
    }

    /// Dequeue, waiting up to `timeout` for an arrival. A closed queue
    /// keeps draining; [`PopError::Closed`] is returned only once it is
    /// also empty.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<T, PopError> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock(&self.inner);
        loop {
            if let Some(job) = Self::pop_locked(&mut inner, self.quantum) {
                drop(inner);
                self.depth.fetch_sub(1, Ordering::Relaxed);
                return Ok(job);
            }
            if inner.closed {
                return Err(PopError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(PopError::Timeout);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
    }

    /// Stop accepting pushes and wake every parked worker. Queued jobs
    /// stay poppable until drained.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn validate_accepts_sane_ids_and_rejects_hostile_ones() {
        for ok in [
            "a",
            "tenant-7",
            "db_eu.west/replica:2",
            "x".repeat(64).as_str(),
        ] {
            assert!(validate_tenant_id(ok).is_ok(), "{ok:?} should be valid");
        }
        for bad in [
            "",
            "x".repeat(65).as_str(),
            "a\"b",
            "a\\b",
            "tab\there",
            "new\nline",
            "nul\0",
            "émigré",
        ] {
            assert!(
                validate_tenant_id(bad).is_err(),
                "{bad:?} should be invalid"
            );
        }
    }

    #[test]
    fn tenant_salt_is_stable_nonzero_and_distinct() {
        assert_eq!(tenant_salt("alice"), tenant_salt("alice"));
        assert_ne!(tenant_salt("alice"), tenant_salt("bob"));
        assert_ne!(tenant_salt("alice"), 0);
        assert_ne!(tenant_salt(""), 0);
    }

    #[test]
    fn bucket_charges_refunds_and_refills() {
        let b = TokenBucket::new(10, 2);
        assert!(b.try_charge());
        assert!(b.try_charge());
        assert!(!b.try_charge(), "burst of 2 exhausted");
        b.refund();
        assert!(b.try_charge(), "refund restores a token");
        std::thread::sleep(Duration::from_millis(150));
        assert!(b.try_charge(), "10 rps refills within 150 ms");
        // Unlimited bucket never rejects and refunds are no-ops.
        let unlimited = TokenBucket::new(0, 0);
        for _ in 0..1000 {
            assert!(unlimited.try_charge());
        }
    }

    #[test]
    fn single_lane_queue_is_a_bounded_fifo() {
        let q: ShardQueue<u32> = ShardQueue::new(3, 4);
        let k = key("");
        assert!(q.push(&k, 1, 1).is_ok());
        assert!(q.push(&k, 1, 2).is_ok());
        assert!(q.push(&k, 1, 3).is_ok());
        let (e, v) = q.push(&k, 1, 4).unwrap_err();
        assert_eq!((e, v), (PushError::Full, 4));
        assert_eq!(q.depth(), 3);
        assert_eq!(q.try_pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.try_pop(), Some(3));
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_lane_sheds_only_its_own_tenant() {
        let q: ShardQueue<u32> = ShardQueue::new(2, 4);
        let (noisy, quiet) = (key("noisy"), key("quiet"));
        assert!(q.push(&noisy, 1, 0).is_ok());
        assert!(q.push(&noisy, 1, 1).is_ok());
        assert_eq!(q.push(&noisy, 1, 2).unwrap_err().0, PushError::Full);
        // The flooded lane does not consume the quiet tenant's capacity.
        assert!(q.push(&quiet, 1, 10).is_ok());
        assert!(q.push(&quiet, 1, 11).is_ok());
    }

    #[test]
    fn drr_shares_service_by_weight() {
        // Weight 3 vs weight 1, quantum 2: each round serves up to 6 of
        // `heavy` then up to 2 of `light`.
        let q: ShardQueue<(u8, u32)> = ShardQueue::new(64, 2);
        let (heavy, light) = (key("heavy"), key("light"));
        for i in 0..12 {
            q.push(&heavy, 3, (0, i)).unwrap();
            q.push(&light, 1, (1, i)).unwrap();
        }
        let order: Vec<u8> = std::iter::from_fn(|| q.try_pop()).map(|(t, _)| t).collect();
        assert_eq!(order.len(), 24);
        let first_round: Vec<u8> = order[..8].to_vec();
        assert_eq!(first_round, [0, 0, 0, 0, 0, 0, 1, 1]);
        // Overall service is exactly 3:1 until a lane drains.
        let heavy_in_16 = order[..16].iter().filter(|&&t| t == 0).count();
        assert_eq!(heavy_in_16, 12);
    }

    #[test]
    fn closed_queue_drains_then_reports_closed() {
        let q: ShardQueue<u32> = ShardQueue::new(8, 4);
        let k = key("t");
        q.push(&k, 1, 1).unwrap();
        q.push(&k, 1, 2).unwrap();
        q.close();
        assert_eq!(q.push(&k, 1, 3).unwrap_err().0, PushError::Closed);
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Ok(1));
        assert_eq!(q.pop_timeout(Duration::from_millis(1)), Ok(2));
        assert_eq!(
            q.pop_timeout(Duration::from_millis(1)),
            Err(PopError::Closed)
        );
    }

    #[test]
    fn pop_timeout_times_out_on_an_open_empty_queue() {
        let q: ShardQueue<u32> = ShardQueue::new(8, 4);
        let t0 = Instant::now();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            Err(PopError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn close_wakes_a_parked_popper() {
        let q: Arc<ShardQueue<u32>> = Arc::new(ShardQueue::new(8, 4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(PopError::Closed));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite: WFQ starvation-freedom. Under any weight assignment
        /// and adversarial arrival interleaving, every backlogged lane
        /// with weight > 0 is served within one full rotation — the gap
        /// between consecutive serves of a still-backlogged lane never
        /// exceeds Σ quantum × weight over all lanes.
        #[test]
        fn drr_never_starves_a_backlogged_lane(
            weights in proptest::collection::vec(1u32..=8, 2..=6),
            arrivals in proptest::collection::vec(0usize..6, 1..200),
            quantum in 1u32..=4,
        ) {
            let lanes = weights.len();
            let q: ShardQueue<usize> = ShardQueue::new(512, quantum);
            let keys: Vec<Arc<str>> = (0..lanes).map(|i| Arc::from(format!("t{i}"))).collect();
            let mut pushed = vec![0usize; lanes];
            for &a in &arrivals {
                let lane = a % lanes;
                q.push(&keys[lane], weights[lane], lane).unwrap();
                pushed[lane] += 1;
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.try_pop()).collect();
            prop_assert_eq!(order.len(), arrivals.len());
            // Per-lane conservation: everything pushed comes back out.
            let mut popped = vec![0usize; lanes];
            for &l in &order {
                popped[l] += 1;
            }
            prop_assert_eq!(&popped, &pushed);
            // Starvation bound: while a lane still has backlog, it is
            // served at least once per `bound` consecutive pops.
            let bound: usize = weights
                .iter()
                .map(|&w| (quantum as usize) * (w as usize))
                .sum();
            let mut remaining = pushed.clone();
            let mut since_served = vec![0usize; lanes];
            for &l in &order {
                for lane in 0..lanes {
                    if remaining[lane] > 0 && lane != l {
                        since_served[lane] += 1;
                        prop_assert!(
                            since_served[lane] <= bound,
                            "lane {} starved for {} pops (bound {})",
                            lane, since_served[lane], bound
                        );
                    }
                }
                since_served[l] = 0;
                remaining[l] -= 1;
            }
        }

        /// Hostile tenant ids never panic the validator, and everything it
        /// accepts is safe to embed in a Prometheus label verbatim.
        #[test]
        fn validator_is_total_and_accepts_only_label_safe_ids(
            id in proptest::collection::vec(0u8..=255, 0..80)
                .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        ) {
            match validate_tenant_id(&id) {
                Ok(()) => {
                    prop_assert!(!id.is_empty() && id.len() <= MAX_TENANT_ID_BYTES);
                    prop_assert!(id.bytes().all(|b| (0x20..=0x7e).contains(&b)
                        && b != b'"' && b != b'\\'));
                    // A label value embedding the id round-trips: no
                    // quote/backslash/newline means no escaping needed.
                    let label = format!("x{{tenant=\"{id}\"}}");
                    prop_assert!(label.lines().count() == 1);
                }
                Err(reason) => prop_assert!(!reason.is_empty()),
            }
        }
    }
}
