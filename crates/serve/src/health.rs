//! The estimator health plane: one place where the serving stack's
//! lifecycle journal, per-version accuracy ledger, SLO burn-rate tracking
//! and diagnostic bundle dumps meet.
//!
//! Every component that changes the estimator's behaviour — the breaker,
//! the adaptive controller, the worker supervisor — reports through
//! [`HealthPlane::emit`], which appends a [`LifecycleEvent`] to the
//! crash-safe journal and, for the two events that mean "something just
//! went wrong in production" (breaker open, probation rollback),
//! snapshots the flight recorder and journal tail into a bundle directory
//! for post-mortem. Accuracy observations flow through
//! [`HealthPlane::observe_qerr`], feeding both the per-(version, database)
//! q-error sketches and the multi-window SLO burn-rate alerts.
//!
//! The plane is always present on a [`DaceServer`](crate::DaceServer) —
//! with default [`HealthConfig`] it journals in memory and never touches
//! disk, so the hot path cost is a handful of atomics per observation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use serde::Serialize;

use dace_obs::{
    chrome_trace, AccuracyLedger, EventJournal, FlightRecorder, JournalRecord, LifecycleEvent,
    MetricsRegistry, SloConfig, SloStatus, SloTracker,
};

use crate::fallback::BreakerState;
use crate::supervisor::lock_recover;

/// How many journal records a diagnostic bundle captures.
const BUNDLE_TAIL: usize = 512;

/// Cap on bundles dumped per process, so a flapping breaker cannot fill
/// the disk with near-identical snapshots.
const MAX_BUNDLES: u64 = 16;

/// Configuration for the health plane. Unlike
/// [`ServeConfig`](crate::ServeConfig) this is not `Copy` (it owns paths);
/// the default journals in memory with no bundle directory.
#[derive(Debug, Clone, Default)]
pub struct HealthConfig {
    /// Where to persist the lifecycle journal. `None` journals in memory.
    pub journal_path: Option<PathBuf>,
    /// Where breaker-open / rollback diagnostic bundles land. `None`
    /// disables bundle dumps.
    pub bundle_dir: Option<PathBuf>,
    /// SLO targets and burn-rate windows.
    pub slo: SloConfig,
}

/// A point-in-time health verdict, served as JSON by `/health`.
#[derive(Debug, Clone, Serialize)]
pub struct HealthReport {
    /// `"ok"` or `"degraded"`. Degraded when the breaker is open or
    /// half-open, or when any SLO burn-rate alert is latched.
    pub status: String,
    /// Breaker state: `"closed"`, `"open"`, `"half_open"`, or `"none"`
    /// when the server runs without a fallback.
    pub breaker: String,
    /// Q-error SLO burn-rate status.
    pub qerr: SloStatus,
    /// Deadline-miss SLO burn-rate status.
    pub deadline: SloStatus,
    /// Lifecycle events journaled so far.
    pub journal_len: u64,
    /// Diagnostic bundles dumped so far.
    pub bundles_dumped: u64,
}

type DropSource = (&'static str, Box<dyn Fn() -> u64 + Send + Sync>);
type TextSource = Box<dyn Fn() -> String + Send + Sync>;

/// The health plane itself. Cheap to share (`Arc`), safe to call from
/// every worker thread.
pub struct HealthPlane {
    journal: EventJournal,
    ledger: AccuracyLedger,
    slo: SloTracker,
    bundle_dir: Option<PathBuf>,
    bundles: AtomicU64,
    drop_sources: Mutex<Vec<DropSource>>,
    text_sources: Mutex<Vec<TextSource>>,
}

impl std::fmt::Debug for HealthPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthPlane")
            .field("journal_len", &self.journal.len())
            .field("bundles", &self.bundles.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl HealthPlane {
    /// Build a plane from `config`. A journal path that cannot be opened
    /// degrades to an in-memory journal rather than failing the server:
    /// observability must never take the data path down.
    pub fn new(config: HealthConfig) -> Arc<HealthPlane> {
        let journal = match &config.journal_path {
            Some(path) => EventJournal::open(path).unwrap_or_else(|e| {
                eprintln!(
                    "health: journal at {} unavailable ({e}); journaling in memory",
                    path.display()
                );
                EventJournal::in_memory()
            }),
            None => EventJournal::in_memory(),
        };
        Arc::new(HealthPlane {
            journal,
            ledger: AccuracyLedger::new(),
            slo: SloTracker::new(config.slo),
            bundle_dir: config.bundle_dir,
            bundles: AtomicU64::new(0),
            drop_sources: Mutex::new(Vec::new()),
            text_sources: Mutex::new(Vec::new()),
        })
    }

    /// The lifecycle journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The per-(version, database) accuracy ledger.
    pub fn ledger(&self) -> &AccuracyLedger {
        &self.ledger
    }

    /// The SLO burn-rate tracker.
    pub fn slo(&self) -> &SloTracker {
        &self.slo
    }

    /// Append a lifecycle event stamped with `trace`. Breaker-open and
    /// rollback events additionally trigger a diagnostic bundle dump.
    pub fn emit(&self, trace: u64, event: LifecycleEvent) -> JournalRecord {
        let cause = match &event {
            LifecycleEvent::BreakerOpened { .. } => Some("breaker_open"),
            LifecycleEvent::RollbackFired { .. } => Some("rollback"),
            _ => None,
        };
        let record = self.journal.append(trace, event);
        if let Some(cause) = cause {
            self.dump_bundle(cause, trace);
        }
        record
    }

    /// Record one accuracy observation: feed the (version, db) q-error
    /// sketch and push the sample through the q-error SLO, journaling an
    /// [`LifecycleEvent::Alert`] if the burn-rate alert fires.
    pub fn observe_qerr(&self, version: u64, db: u32, q: f64, trace: u64) {
        self.ledger.observe(version, db, q);
        if let Some(alert) = self.slo.push_qerr(q) {
            self.emit(
                trace,
                LifecycleEvent::Alert {
                    slo: alert.slo,
                    fast_burn: alert.fast_burn,
                    slow_burn: alert.slow_burn,
                    threshold: alert.threshold,
                },
            );
        }
    }

    /// Push one batch's deadline outcomes (`missed` expirations,
    /// `met` on-time responses) through the deadline SLO.
    pub fn record_deadlines(&self, missed: u64, met: u64, trace: u64) {
        if missed == 0 && met == 0 {
            return;
        }
        if let Some(alert) = self.slo.push_deadline_batch(missed, met) {
            self.emit(
                trace,
                LifecycleEvent::Alert {
                    slo: alert.slo,
                    fast_burn: alert.fast_burn,
                    slow_burn: alert.slow_burn,
                    threshold: alert.threshold,
                },
            );
        }
    }

    /// Register a drop-counter source exported as a gauge named `name`.
    /// The closure is sampled at export time (drop counters live inside
    /// lock-free structures that cannot push). `registry` receives the
    /// `# HELP` description immediately; the gauge itself is set on each
    /// [`prometheus_text`](HealthPlane::prometheus_text) call.
    ///
    /// Sources must not hold a strong reference back to anything that owns
    /// this plane (capture a `Weak` and upgrade), or the cycle leaks.
    pub fn register_drop_gauge(
        &self,
        registry: &MetricsRegistry,
        name: &'static str,
        help: &str,
        source: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        registry.describe(name, help);
        registry.gauge(name).set(source());
        lock_recover(&self.drop_sources).push((name, Box::new(source)));
    }

    /// Register a closure whose output is appended verbatim to the
    /// Prometheus exposition. Used for families whose label sets live in
    /// structures the registry cannot see (per-shard queue depths, steal
    /// matrices). The closure must emit complete `# HELP`/`# TYPE` headers
    /// for every family it exports, and must not hold a strong reference
    /// back to anything that owns this plane (capture a `Weak`).
    pub fn register_text_source(&self, source: impl Fn() -> String + Send + Sync + 'static) {
        lock_recover(&self.text_sources).push(Box::new(source));
    }

    /// Render the full Prometheus exposition: refresh every registered
    /// drop gauge from its source, then concatenate the registry's series
    /// with every registered text source and the accuracy ledger's
    /// per-(version, db) q-error summaries.
    pub fn prometheus_text(&self, registry: &MetricsRegistry) -> String {
        for (name, source) in lock_recover(&self.drop_sources).iter() {
            registry.gauge(name).set(source());
        }
        let mut out = registry.prometheus_text();
        for source in lock_recover(&self.text_sources).iter() {
            out.push_str(&source());
        }
        out.push_str(&self.ledger.prometheus_text());
        out
    }

    /// The current health verdict. `breaker` is `None` for servers
    /// without a fallback (no breaker to report).
    pub fn health_report(&self, breaker: Option<BreakerState>) -> HealthReport {
        let qerr = self.slo.qerr.status();
        let deadline = self.slo.deadline.status();
        let breaker_degraded = matches!(
            breaker,
            Some(BreakerState::Open) | Some(BreakerState::HalfOpen)
        );
        let status = if breaker_degraded || qerr.alerting || deadline.alerting {
            "degraded"
        } else {
            "ok"
        };
        HealthReport {
            status: status.to_string(),
            breaker: match breaker {
                Some(BreakerState::Closed) => "closed",
                Some(BreakerState::Open) => "open",
                Some(BreakerState::HalfOpen) => "half_open",
                None => "none",
            }
            .to_string(),
            qerr,
            deadline,
            journal_len: self.journal.len(),
            bundles_dumped: self.bundles.load(Ordering::Relaxed),
        }
    }

    /// Bundles dumped so far.
    pub fn bundles_dumped(&self) -> u64 {
        self.bundles.load(Ordering::Relaxed)
    }

    /// Snapshot the journal tail and the flight recorder into
    /// `bundle_dir/bundle-<n>-<cause>/` and journal a
    /// [`LifecycleEvent::BundleDumped`]. No-op without a bundle directory
    /// or past [`MAX_BUNDLES`]. Draining the global flight recorder here
    /// is deliberate: the bundle *is* the trace consumer for the incident
    /// window.
    fn dump_bundle(&self, cause: &str, trace: u64) -> Option<PathBuf> {
        let base = self.bundle_dir.as_ref()?;
        let n = self.bundles.fetch_add(1, Ordering::Relaxed);
        if n >= MAX_BUNDLES {
            return None;
        }
        let dir = base.join(format!("bundle-{n:03}-{cause}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("health: bundle dir {} failed: {e}", dir.display());
            return None;
        }
        let tail = self.journal.tail(BUNDLE_TAIL);
        let mut jsonl = String::new();
        for rec in &tail {
            if let Ok(line) = serde_json::to_string(rec) {
                jsonl.push_str(&line);
                jsonl.push('\n');
            }
        }
        let _ = std::fs::write(dir.join("journal_tail.jsonl"), jsonl);
        let events = FlightRecorder::global().snapshot_records();
        let _ = std::fs::write(dir.join("flight_recorder.json"), chrome_trace(&events));
        self.journal.append(
            trace,
            LifecycleEvent::BundleDumped {
                dir: dir.display().to_string(),
                cause: cause.to_string(),
            },
        );
        Some(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dace-health-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn default_plane_journals_in_memory() {
        let plane = HealthPlane::new(HealthConfig::default());
        plane.emit(7, LifecycleEvent::BreakerClosed);
        assert_eq!(plane.journal().len(), 1);
        assert!(plane.journal().path().is_none());
        let report = plane.health_report(None);
        assert_eq!(report.status, "ok");
        assert_eq!(report.breaker, "none");
    }

    #[test]
    fn breaker_open_flips_report_to_degraded() {
        let plane = HealthPlane::new(HealthConfig::default());
        assert_eq!(plane.health_report(Some(BreakerState::Closed)).status, "ok");
        let r = plane.health_report(Some(BreakerState::Open));
        assert_eq!(r.status, "degraded");
        assert_eq!(r.breaker, "open");
        assert_eq!(
            plane.health_report(Some(BreakerState::HalfOpen)).status,
            "degraded"
        );
    }

    #[test]
    fn qerr_slo_alert_journals_and_degrades() {
        let slo = SloConfig {
            fast_window: 16,
            slow_window: 32,
            ..SloConfig::default()
        };
        let plane = HealthPlane::new(HealthConfig {
            slo,
            ..HealthConfig::default()
        });
        // Every sample badly misses the q-error target: burn saturates.
        for _ in 0..64 {
            plane.observe_qerr(1, 0, 100.0, 42);
        }
        let report = plane.health_report(Some(BreakerState::Closed));
        assert_eq!(report.status, "degraded", "report: {report:?}");
        assert!(report.qerr.alerting);
        let tail = plane.journal().tail(64);
        let alert = tail
            .iter()
            .find(|r| matches!(r.event, LifecycleEvent::Alert { .. }))
            .expect("alert journaled");
        assert_eq!(alert.trace, 42);
        // The ledger saw every observation under (version 1, db 0).
        assert_eq!(plane.ledger().sketch(1, 0).count(), 64);
    }

    #[test]
    fn breaker_open_dumps_a_bundle() {
        let dir = temp_dir("bundle");
        let plane = HealthPlane::new(HealthConfig {
            bundle_dir: Some(dir.clone()),
            ..HealthConfig::default()
        });
        plane.emit(
            9,
            LifecycleEvent::BreakerOpened {
                error_percent: 50.0,
            },
        );
        assert_eq!(plane.bundles_dumped(), 1);
        let bundle = dir.join("bundle-000-breaker_open");
        assert!(bundle.join("journal_tail.jsonl").is_file());
        assert!(bundle.join("flight_recorder.json").is_file());
        // The dump itself is journaled, after the triggering event.
        let tail = plane.journal().tail(4);
        assert!(tail
            .iter()
            .any(|r| matches!(&r.event, LifecycleEvent::BundleDumped { cause, .. } if cause == "breaker_open")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drop_gauges_refresh_at_export() {
        let plane = HealthPlane::new(HealthConfig::default());
        let registry = MetricsRegistry::new();
        let value = Arc::new(AtomicU64::new(3));
        let v = Arc::clone(&value);
        plane.register_drop_gauge(&registry, "test_ring_dropped", "Test drops.", move || {
            v.load(Ordering::Relaxed)
        });
        value.store(11, Ordering::Relaxed);
        let text = plane.prometheus_text(&registry);
        assert!(text.contains("test_ring_dropped 11"));
        assert!(text.contains("# HELP test_ring_dropped Test drops."));
    }
}
