//! Online adaptation: the observe → retrain → swap loop.
//!
//! The paper's deployment story ends at "fine-tune a LoRA adapter offline
//! and install it"; this module closes the loop so a *serving* estimator
//! notices its own drift and repairs itself without an operator:
//!
//! 1. **Observe** — callers feed `(plan, prediction, observed_ms)` back
//!    through [`AdaptiveController::observe`]. Samples land in a bounded
//!    [`FeedbackBuffer`] (a short-held mutex over a queue, drop-newest,
//!    counted drops — the feedback path must never stall the caller) and
//!    their q-errors stream into a [`DriftDetector`].
//! 2. **Detect** — the detector freezes a baseline q-error quantile over a
//!    warmup window, then watches a sliding window of recent q-errors; when
//!    the window quantile exceeds `baseline × ratio` it trips.
//! 3. **Retrain** — a trip spawns one background thread (an `AtomicBool`
//!    latch guarantees at most one in flight) that drains the buffer,
//!    splits it deterministically into train/holdback slices, and LoRA
//!    fine-tunes a **clone** of the serving model (the serving weights are
//!    never mutated in place) on that one thread: the retrain runs beside
//!    the serve workers, so it never takes a second core.
//! 4. **Shadow-eval + swap** — the candidate is scored against the current
//!    model on the held-back slice; it is promoted through the
//!    [`ModelRegistry`] only if its q-error quantile is no worse. Promotion
//!    optionally round-trips a crash-safe checkpoint
//!    (`save_checkpoint` → [`ModelRegistry::swap_base_from_checkpoint`]),
//!    so a corrupt artifact is caught by the loader and last-good keeps
//!    serving.
//! 5. **Probation + rollback** — after a swap the previous version is
//!    retained as *last-good*; if live q-errors over a probation window
//!    regress past what shadow eval promised, the controller swaps
//!    last-good straight back and re-arms.
//!
//! Every decision increments an `adaptive_*` counter in the shared
//! [`MetricsRegistry`] and runs under a flight-recorder span, so a chaos
//! run's report can assert exactly how many retrains / promotions /
//! rollbacks happened. Fault injection reuses the serve-path
//! [`FaultInjector`]: [`FaultSite::RetrainCrash`] panics the retrain thread
//! mid-flight (the latch must recover), [`FaultSite::CandidateSabotage`]
//! corrupts the candidate before shadow eval (rollback must fire), and
//! [`FaultSite::CheckpointCorrupt`] flips bytes in the promotion checkpoint
//! (the reload path must reject it).
//!
//! The whole loop is **caller-side**: `observe` runs after a response is
//! already delivered, so the serve hot path is untouched — faults-off
//! serving throughput is unchanged.
//!
//! [`FaultSite::RetrainCrash`]: crate::FaultSite::RetrainCrash
//! [`FaultSite::CandidateSabotage`]: crate::FaultSite::CandidateSabotage
//! [`FaultSite::CheckpointCorrupt`]: crate::FaultSite::CheckpointCorrupt

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use dace_core::{q_error, quantile, save_checkpoint};
use dace_obs::{current_trace, span, trace_scope, Counter, LifecycleEvent, MetricsRegistry};
use dace_plan::{Dataset, LabeledPlan, MachineId, PlanTree};

use crate::fault::{FaultConfig, FaultInjector, FaultSite, INJECTED_PANIC};
use crate::health::HealthPlane;
use crate::metrics::Histogram;
use crate::registry::{ModelRegistry, ModelVersion};
use crate::scheduler::{Prediction, FALLBACK_VERSION};
use crate::supervisor::lock_recover;

// ---------------------------------------------------------------------------
// Feedback buffer
// ---------------------------------------------------------------------------

/// One observed execution fed back into the adaptive loop.
#[derive(Debug, Clone)]
pub struct FeedbackSample {
    /// Structural fingerprint under the serving featurizer (dedup/debug key).
    pub fingerprint: u64,
    /// What the model answered.
    pub predicted_ms: f64,
    /// What the engine actually measured.
    pub observed_ms: f64,
    /// `q_error(predicted_ms, observed_ms)`, precomputed at observe time.
    pub q_error: f64,
    /// The plan relabeled so its actual-latency labels sum to the
    /// observation — the unit of retraining data.
    pub plan: LabeledPlan,
}

/// Bounded feedback queue: when full the sample is **dropped and counted**
/// (drop-newest; feedback must never stall the caller it observes).
/// Producers and the drainer share one mutex, held only for a
/// `push_back`, a `len` or a swap with an empty queue, so no caller waits
/// behind a retrain or a long drain.
#[derive(Debug)]
pub struct FeedbackBuffer {
    samples: Mutex<VecDeque<FeedbackSample>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl FeedbackBuffer {
    /// A buffer holding up to `capacity` samples (rounded up to 1).
    pub fn with_capacity(capacity: usize) -> FeedbackBuffer {
        FeedbackBuffer {
            samples: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Enqueue one sample. Returns `false` (and counts the drop) when the
    /// buffer is full.
    pub fn push(&self, sample: FeedbackSample) -> bool {
        let mut samples = lock_recover(&self.samples);
        if samples.len() >= self.capacity {
            drop(samples);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        samples.push_back(sample);
        true
    }

    /// Take every buffered sample, oldest first.
    pub fn drain(&self) -> Vec<FeedbackSample> {
        let taken = std::mem::take(&mut *lock_recover(&self.samples));
        taken.into()
    }

    /// Samples currently buffered (racy, advisory; always in
    /// `0..=capacity`).
    pub fn len(&self) -> usize {
        lock_recover(&self.samples).len()
    }

    /// True when nothing is buffered (racy, advisory).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Buffer capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

// ---------------------------------------------------------------------------
// Drift detector
// ---------------------------------------------------------------------------

/// Tuning knobs for the [`DriftDetector`]. Deterministic: the same q-error
/// sequence always produces the same trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Warmup samples used to freeze the baseline quantile.
    pub min_samples: usize,
    /// Sliding-window length; the detector only checks a **full** window.
    pub window: usize,
    /// Which q-error quantile to watch (e.g. `0.9`).
    pub quantile: f64,
    /// Trip when `window_q > baseline_q × ratio`.
    pub ratio: f64,
    /// Amortization: recompute the window quantile every N pushes.
    pub check_every: usize,
    /// Samples ignored after a trip before the detector re-arms (gives the
    /// retrain loop time to act instead of re-tripping on the same drift).
    pub cooldown: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            min_samples: 256,
            window: 256,
            quantile: 0.9,
            ratio: 1.5,
            check_every: 32,
            cooldown: 512,
        }
    }
}

/// What the detector saw when it tripped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftTrip {
    /// The frozen warmup quantile.
    pub baseline_q: f64,
    /// The sliding-window quantile that exceeded it.
    pub window_q: f64,
    /// Total samples pushed when the trip fired.
    pub samples_seen: u64,
}

/// Sliding-window drift detector over q-error quantiles.
///
/// Warmup freezes a baseline quantile; afterwards a full window whose
/// quantile exceeds `baseline × ratio` trips the detector, which then
/// clears its window and holds its fire for `cooldown` samples. Standalone
/// and purely deterministic so property tests can drive it directly.
#[derive(Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    baseline: Option<f64>,
    warmup: Vec<f64>,
    window: VecDeque<f64>,
    scratch: Vec<f64>,
    since_check: usize,
    cooldown_left: usize,
    samples_seen: u64,
}

impl DriftDetector {
    /// A detector with `config` (zero-valued knobs are clamped to 1).
    pub fn new(config: DriftConfig) -> DriftDetector {
        let config = DriftConfig {
            min_samples: config.min_samples.max(1),
            window: config.window.max(1),
            quantile: config.quantile.clamp(0.01, 1.0),
            ratio: config.ratio.max(1.0),
            check_every: config.check_every.max(1),
            cooldown: config.cooldown,
        };
        DriftDetector {
            config,
            baseline: None,
            warmup: Vec::with_capacity(config.min_samples),
            window: VecDeque::with_capacity(config.window),
            scratch: Vec::new(),
            since_check: 0,
            cooldown_left: 0,
            samples_seen: 0,
        }
    }

    /// The frozen baseline quantile, once warmup completed.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Total samples pushed (including warmup and ignored ones).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Feed one q-error; returns a trip when drift is declared. Non-finite
    /// or non-positive inputs are ignored.
    pub fn push(&mut self, q: f64) -> Option<DriftTrip> {
        if !q.is_finite() || q <= 0.0 {
            return None;
        }
        self.samples_seen += 1;
        let Some(baseline) = self.baseline else {
            self.warmup.push(q);
            if self.warmup.len() >= self.config.min_samples {
                self.scratch.clear();
                self.scratch.extend_from_slice(&self.warmup);
                self.baseline = quantile(&mut self.scratch, self.config.quantile);
                self.warmup.clear();
            }
            return None;
        };
        if self.window.len() == self.config.window {
            self.window.pop_front();
        }
        self.window.push_back(q);
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return None;
        }
        self.since_check += 1;
        if self.since_check < self.config.check_every || self.window.len() < self.config.window {
            return None;
        }
        self.since_check = 0;
        self.scratch.clear();
        self.scratch.extend(self.window.iter().copied());
        let window_q = quantile(&mut self.scratch, self.config.quantile)?;
        if window_q > baseline * self.config.ratio {
            self.window.clear();
            self.cooldown_left = self.config.cooldown;
            return Some(DriftTrip {
                baseline_q: baseline,
                window_q,
                samples_seen: self.samples_seen,
            });
        }
        None
    }

    /// Forget everything and re-learn a baseline — called after a model
    /// swap, because the old baseline describes the old model.
    pub fn rebaseline(&mut self) {
        self.baseline = None;
        self.warmup.clear();
        self.window.clear();
        self.since_check = 0;
        self.cooldown_left = 0;
    }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Counters for every adaptive-loop decision, registered in the shared
/// [`MetricsRegistry`] under `adaptive_*` names.
#[derive(Debug, Clone)]
pub struct AdaptiveMetrics {
    /// Model-path samples ingested.
    pub samples: Arc<Counter>,
    /// Samples dropped because the feedback ring was full.
    pub samples_dropped: Arc<Counter>,
    /// Samples rejected because the answer was degraded (fallback path) —
    /// heuristic answers must never count as model observations.
    pub samples_rejected_degraded: Arc<Counter>,
    /// Drift-detector trips.
    pub drift_trips: Arc<Counter>,
    /// Background retrains spawned.
    pub retrains_started: Arc<Counter>,
    /// Retrains whose candidate was promoted.
    pub retrains_succeeded: Arc<Counter>,
    /// Retrains that died (panic, train error, too few samples, bad
    /// checkpoint) — last-good kept serving throughout.
    pub retrains_failed: Arc<Counter>,
    /// Candidates rejected by shadow eval (never promoted).
    pub retrains_rolled_back: Arc<Counter>,
    /// Successful registry swaps to a retrained candidate.
    pub promotions: Arc<Counter>,
    /// Post-promotion probation reverts back to last-good.
    pub rollbacks: Arc<Counter>,
    /// Wall time of each retrain attempt (µs).
    pub retrain_us: Arc<Histogram>,
}

impl AdaptiveMetrics {
    /// Create (or re-attach to) the adaptive counters in `registry`.
    pub fn register(registry: &MetricsRegistry) -> AdaptiveMetrics {
        AdaptiveMetrics {
            samples: registry.counter("adaptive_samples_total"),
            samples_dropped: registry.counter("adaptive_samples_dropped_total"),
            samples_rejected_degraded: registry.counter("adaptive_samples_rejected_degraded_total"),
            drift_trips: registry.counter("adaptive_drift_trips_total"),
            retrains_started: registry.counter("adaptive_retrains_started_total"),
            retrains_succeeded: registry.counter("adaptive_retrains_succeeded_total"),
            retrains_failed: registry.counter("adaptive_retrains_failed_total"),
            retrains_rolled_back: registry.counter("adaptive_retrains_rolled_back_total"),
            promotions: registry.counter("adaptive_promotions_total"),
            rollbacks: registry.counter("adaptive_rollbacks_total"),
            retrain_us: registry.histogram("adaptive_retrain_us"),
        }
    }
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// Tuning knobs for the [`AdaptiveController`].
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Feedback ring capacity.
    pub buffer_capacity: usize,
    /// Drift-detector knobs.
    pub drift: DriftConfig,
    /// LoRA fine-tune epochs per retrain.
    pub retrain_epochs: usize,
    /// LoRA fine-tune learning rate.
    pub retrain_lr: f32,
    /// Fraction of drained samples held back for shadow eval (clamped to
    /// `[0.05, 0.5]`; the split is deterministic by sample index).
    pub holdback_fraction: f64,
    /// Skip the retrain entirely with fewer drained samples than this.
    pub min_retrain_samples: usize,
    /// Retrain on at most the newest this-many drained samples. The drain
    /// hands back everything since the last retrain — including pre-drift
    /// samples whose labels contradict the regime that tripped the detector.
    /// Capping to the newest window keeps the fine-tune set inside the new
    /// regime instead of fitting the geometric middle of both.
    pub retrain_window: usize,
    /// Q-error quantile compared in shadow eval and probation.
    pub shadow_quantile: f64,
    /// Promote only if `candidate_q ≤ current_q × promote_margin`.
    pub promote_margin: f64,
    /// Live samples collected after a promotion before the probation
    /// verdict.
    pub probation_samples: usize,
    /// Roll back if the probation quantile exceeds
    /// `shadow_candidate_q × probation_margin` (live traffic is noisier
    /// than the holdback slice, so this is deliberately generous).
    pub probation_margin: f64,
    /// When set, promotion round-trips a crash-safe checkpoint in this
    /// directory (`save_checkpoint` → load → swap), so the artifact the
    /// registry installs is the artifact that survives a crash.
    pub checkpoint_dir: Option<PathBuf>,
    /// Database id this controller's observations are attributed to in the
    /// accuracy ledger (one controller observes one database's traffic;
    /// multi-database deployments run one per db).
    pub db_id: u16,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            buffer_capacity: 8192,
            drift: DriftConfig::default(),
            retrain_epochs: 20,
            retrain_lr: 2e-3,
            holdback_fraction: 0.25,
            min_retrain_samples: 64,
            retrain_window: 1024,
            shadow_quantile: 0.9,
            promote_margin: 1.0,
            probation_samples: 256,
            probation_margin: 2.0,
            checkpoint_dir: None,
            db_id: 0,
        }
    }
}

/// Post-promotion watch: live q-errors from the promoted version, judged
/// against what shadow eval promised.
#[derive(Debug)]
struct Probation {
    qs: Vec<f64>,
    limit_q: f64,
    /// Only samples answered by this version (or later) count.
    min_version: u64,
}

/// The adaptive loop's hub. Create once per server (wrap in `Arc`), call
/// [`observe`](AdaptiveController::observe) with every completed request
/// whose actual latency is known, and the loop handles the rest in the
/// background.
#[derive(Debug)]
pub struct AdaptiveController {
    registry: Arc<ModelRegistry>,
    config: AdaptiveConfig,
    buffer: FeedbackBuffer,
    detector: Mutex<DriftDetector>,
    probation: Mutex<Option<Probation>>,
    /// The version serving before the last promotion; probation's rollback
    /// target.
    last_good: Mutex<Option<Arc<ModelVersion>>>,
    metrics: AdaptiveMetrics,
    injector: Arc<FaultInjector>,
    /// At most one background retrain in flight.
    inflight: AtomicBool,
    retrain_handle: Mutex<Option<JoinHandle<()>>>,
    /// The health plane, once attached via
    /// [`set_health`](AdaptiveController::set_health): lifecycle journal,
    /// accuracy ledger, SLO alerts. Absent, the loop runs exactly as
    /// before (counters + spans only).
    health: OnceLock<Arc<HealthPlane>>,
    /// Trace id of the request whose q-error tripped the drift detector —
    /// the causal anchor the retrain thread (and everything it journals or
    /// trains) is stamped with.
    last_trip_trace: AtomicU64,
}

impl AdaptiveController {
    /// A controller over `registry`, metering into `metrics`, with no fault
    /// injection.
    pub fn new(
        registry: Arc<ModelRegistry>,
        metrics: &MetricsRegistry,
        config: AdaptiveConfig,
    ) -> Arc<AdaptiveController> {
        Self::with_faults(
            registry,
            metrics,
            config,
            Arc::new(FaultInjector::new(FaultConfig::disabled())),
        )
    }

    /// A controller whose retrain path rolls against `injector` — the chaos
    /// harness's entry point ([`FaultSite::RetrainCrash`],
    /// [`FaultSite::CandidateSabotage`], [`FaultSite::CheckpointCorrupt`]).
    pub fn with_faults(
        registry: Arc<ModelRegistry>,
        metrics: &MetricsRegistry,
        config: AdaptiveConfig,
        injector: Arc<FaultInjector>,
    ) -> Arc<AdaptiveController> {
        Arc::new(AdaptiveController {
            buffer: FeedbackBuffer::with_capacity(config.buffer_capacity),
            detector: Mutex::new(DriftDetector::new(config.drift)),
            probation: Mutex::new(None),
            last_good: Mutex::new(None),
            metrics: AdaptiveMetrics::register(metrics),
            injector,
            inflight: AtomicBool::new(false),
            retrain_handle: Mutex::new(None),
            health: OnceLock::new(),
            last_trip_trace: AtomicU64::new(0),
            registry,
            config,
        })
    }

    /// Attach the server's health plane: lifecycle decisions journal
    /// through it, accuracy observations feed its ledger and SLOs, and the
    /// feedback ring's drop counter is exported as a gauge in `registry`.
    /// Attach once, before traffic; later calls are ignored.
    ///
    /// The drop gauge captures a `Weak` back-reference — the plane outlives
    /// servers and controllers, so a strong cycle here would leak both.
    pub fn set_health(self: &Arc<Self>, plane: Arc<HealthPlane>, registry: &MetricsRegistry) {
        let weak = Arc::downgrade(self);
        plane.register_drop_gauge(
            registry,
            "adaptive_feedback_ring_dropped",
            "Feedback samples dropped because the adaptive ring was full.",
            move || weak.upgrade().map_or(0, |c| c.buffer.dropped()),
        );
        let _ = self.health.set(plane);
    }

    /// Journal a lifecycle event, when a health plane is attached.
    fn emit(&self, trace: u64, event: LifecycleEvent) {
        if let Some(h) = self.health.get() {
            h.emit(trace, event);
        }
    }

    /// The adaptive counters (shared with the registry passed at build).
    pub fn metrics(&self) -> &AdaptiveMetrics {
        &self.metrics
    }

    /// The feedback ring (len/dropped introspection for benches and tests).
    pub fn buffer(&self) -> &FeedbackBuffer {
        &self.buffer
    }

    /// The frozen drift baseline, if warmup completed.
    pub fn drift_baseline(&self) -> Option<f64> {
        lock_recover(&self.detector).baseline()
    }

    /// True while a background retrain is running.
    pub fn retrain_inflight(&self) -> bool {
        self.inflight.load(Ordering::Acquire)
    }

    /// Feed one completed request back into the loop.
    ///
    /// Degraded answers (fallback path, stamped [`FALLBACK_VERSION`]) are
    /// rejected and counted — a heuristic's error says nothing about the
    /// model. Everything here is caller-side and bounded: a tree clone +
    /// relabel for the buffer, one mutex-guarded detector push, and (rarely)
    /// a thread spawn; the serve hot path itself is untouched.
    pub fn observe(self: &Arc<Self>, tree: &PlanTree, pred: &Prediction, observed_ms: f64) {
        if pred.degraded || pred.version == FALLBACK_VERSION {
            self.metrics.samples_rejected_degraded.inc();
            return;
        }
        if !observed_ms.is_finite() || observed_ms <= 0.0 || !pred.ms.is_finite() {
            return;
        }
        let q = q_error(pred.ms, observed_ms);
        self.metrics.samples.inc();
        // Accuracy accounting: the (version, db) sketch plus the q-error
        // SLO, both keyed by the version that actually answered.
        if let Some(h) = self.health.get() {
            h.observe_qerr(pred.version, u32::from(self.config.db_id), q, pred.trace);
        }
        self.probation_observe(q, pred.version);
        let base = self.registry.base();
        let sample = FeedbackSample {
            fingerprint: base.estimator.featurizer.fingerprint(tree),
            predicted_ms: pred.ms,
            observed_ms,
            q_error: q,
            plan: LabeledPlan {
                tree: relabel(tree, observed_ms),
                db_id: self.config.db_id,
                machine: MachineId::M1,
            },
        };
        if !self.buffer.push(sample) {
            self.metrics.samples_dropped.inc();
        }
        let trip = lock_recover(&self.detector).push(q);
        if let Some(t) = trip {
            self.metrics.drift_trips.inc();
            // The tripping request's trace anchors the whole lineage:
            // DriftTripped → RetrainStarted → … → SwapPromoted all carry it,
            // as do the retrain thread's spans and epoch records.
            self.last_trip_trace.store(pred.trace, Ordering::Release);
            self.emit(
                pred.trace,
                LifecycleEvent::DriftTripped {
                    baseline_q: t.baseline_q,
                    window_q: t.window_q,
                    samples: t.samples_seen,
                },
            );
            self.maybe_spawn_retrain();
        }
    }

    /// Block until any in-flight retrain finishes (test/bench hook; the
    /// serving path never calls this).
    pub fn join(&self) {
        let handle = lock_recover(&self.retrain_handle).take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn maybe_spawn_retrain(self: &Arc<Self>) {
        if self.inflight.swap(true, Ordering::AcqRel) {
            return; // one retrain at a time; the next trip re-triggers
        }
        self.metrics.retrains_started.inc();
        let this = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("dace-adaptive-retrain".into())
            .spawn(move || {
                // The retrain thread inherits the tripping request's trace:
                // every span, journal record and training epoch it produces
                // joins that request's causal chain.
                let trip_trace = this.last_trip_trace.load(Ordering::Acquire);
                let _trace = trace_scope(trip_trace);
                let t0 = Instant::now();
                // An injected (or real) mid-retrain panic must not wedge the
                // latch: catch it, count it, release.
                let result = catch_unwind(AssertUnwindSafe(|| this.retrain_once()));
                this.metrics
                    .retrain_us
                    .record(t0.elapsed().as_micros() as u64);
                if result.is_err() {
                    this.metrics.retrains_failed.inc();
                    this.emit(
                        trip_trace,
                        LifecycleEvent::RetrainFailed {
                            reason: "retrain thread panicked".to_string(),
                        },
                    );
                }
                this.inflight.store(false, Ordering::Release);
            })
            .expect("spawn adaptive retrain thread");
        *lock_recover(&self.retrain_handle) = Some(handle);
    }

    /// One full retrain attempt: drain → split → fine-tune → shadow eval →
    /// promote or discard. Runs on the background thread under
    /// `catch_unwind`.
    fn retrain_once(&self) {
        let _span = span!("adaptive_retrain");
        let mut samples = self.buffer.drain();
        self.emit(
            current_trace(),
            LifecycleEvent::RetrainStarted {
                samples: samples.len() as u64,
            },
        );
        if samples.len() < self.config.min_retrain_samples.max(2) {
            self.metrics.retrains_failed.inc();
            self.emit(
                current_trace(),
                LifecycleEvent::RetrainFailed {
                    reason: format!("only {} samples drained", samples.len()),
                },
            );
            return;
        }
        let keep = self.config.retrain_window.max(2);
        if samples.len() > keep {
            samples.drain(..samples.len() - keep);
        }
        // Deterministic split: every stride-th sample is held back for
        // shadow eval, the rest retrain. Index-based so a replayed run
        // splits identically.
        let stride = (1.0 / self.config.holdback_fraction.clamp(0.05, 0.5)).round() as usize;
        let mut train = Dataset::new();
        let mut holdback = Vec::new();
        for (i, s) in samples.into_iter().enumerate() {
            if i % stride == 0 {
                holdback.push(s);
            } else {
                train.plans.push(s.plan);
            }
        }
        if train.is_empty() || holdback.is_empty() {
            self.metrics.retrains_failed.inc();
            self.emit(
                current_trace(),
                LifecycleEvent::RetrainFailed {
                    reason: "train/holdback split left one side empty".to_string(),
                },
            );
            return;
        }
        if self.injector.should_fire(FaultSite::RetrainCrash) {
            panic!("{INJECTED_PANIC}: retrain crash (site RetrainCrash)");
        }
        let base = self.registry.base();
        let mut candidate = base.estimator.clone();
        match fine_tune_on_one_thread(
            &mut candidate,
            &train,
            self.config.retrain_epochs,
            self.config.retrain_lr,
        ) {
            Ok(()) => {}
            Err(e) => {
                self.metrics.retrains_failed.inc();
                self.emit(
                    current_trace(),
                    LifecycleEvent::RetrainFailed {
                        reason: format!("fine-tune failed: {e:?}"),
                    },
                );
                return;
            }
        };
        if self.injector.should_fire(FaultSite::CandidateSabotage) {
            // Deterministic sabotage through the public API: one fine-tune
            // step at an absurd learning rate turns the adapter to garbage.
            // Shadow eval must catch this — the whole point of the site.
            let _ = fine_tune_on_one_thread(&mut candidate, &train, 1, 1e9);
        }
        let (cand_q, curr_q) = {
            let _span = span!("adaptive_shadow_eval");
            (
                shadow_q(&candidate, &holdback, self.config.shadow_quantile),
                shadow_q(&base.estimator, &holdback, self.config.shadow_quantile),
            )
        };
        let limit = curr_q * self.config.promote_margin;
        if cand_q.is_finite() && cand_q <= limit {
            self.promote(candidate, cand_q);
        } else {
            // Candidate rejected: nothing was ever swapped, last-good (the
            // current model) keeps serving.
            let _span = span!("adaptive_rollback");
            self.metrics.retrains_rolled_back.inc();
            self.emit(
                current_trace(),
                LifecycleEvent::RetrainRejected {
                    candidate_q: cand_q,
                    current_q: curr_q,
                },
            );
        }
    }

    /// Swap the candidate in (optionally via a crash-safe checkpoint
    /// round-trip) and open a probation window.
    fn promote(&self, candidate: dace_core::DaceEstimator, cand_q: f64) {
        let _span = span!("adaptive_promote");
        let prev = self.registry.base();
        let from_version = prev.version;
        *lock_recover(&self.last_good) = Some(prev);
        let swapped = if let Some(dir) = &self.config.checkpoint_dir {
            let path = dir.join("adaptive-candidate.ckpt");
            if save_checkpoint(&path, &candidate).is_err() {
                self.metrics.retrains_failed.inc();
                self.emit(
                    current_trace(),
                    LifecycleEvent::RetrainFailed {
                        reason: "promotion checkpoint save failed".to_string(),
                    },
                );
                return;
            }
            if self.injector.should_fire(FaultSite::CheckpointCorrupt) {
                corrupt_file(&path);
            }
            // The loader verifies magic + checksum; a corrupt artifact is
            // rejected here and last-good never stops serving.
            self.registry.swap_base_from_checkpoint(&path).map_err(|e| {
                self.emit(
                    current_trace(),
                    LifecycleEvent::CheckpointRejected {
                        reason: e.to_string(),
                    },
                );
            })
        } else {
            self.registry.swap_base(candidate).map_err(|_| ())
        };
        let new_version = match swapped {
            Ok(v) => v,
            Err(()) => {
                self.metrics.retrains_failed.inc();
                return;
            }
        };
        self.metrics.retrains_succeeded.inc();
        self.metrics.promotions.inc();
        self.emit(
            current_trace(),
            LifecycleEvent::SwapPromoted {
                from: from_version,
                to: new_version,
                trigger: "drift".to_string(),
                shadow_p90: cand_q,
            },
        );
        *lock_recover(&self.probation) = Some(Probation {
            qs: Vec::with_capacity(self.config.probation_samples),
            limit_q: (cand_q * self.config.probation_margin).max(1.0),
            min_version: new_version,
        });
        // The old baseline describes the old model; re-learn.
        lock_recover(&self.detector).rebaseline();
    }

    /// Feed a live q-error into an open probation window; when the window
    /// fills, deliver the verdict: keep the promotion, or swap last-good
    /// straight back.
    fn probation_observe(self: &Arc<Self>, q: f64, version: u64) {
        let verdict = {
            let mut guard = lock_recover(&self.probation);
            let Some(p) = guard.as_mut() else { return };
            if version < p.min_version {
                return; // answered by a pre-promotion snapshot
            }
            p.qs.push(q);
            if p.qs.len() < self.config.probation_samples.max(1) {
                return;
            }
            let p = guard.take().expect("probation present");
            let min_version = p.min_version;
            let mut qs = p.qs;
            let live_q = quantile(&mut qs, self.config.shadow_quantile).unwrap_or(f64::INFINITY);
            (live_q, p.limit_q, min_version)
        };
        let (live_q, limit_q, probed_version) = verdict;
        let trace = self.last_trip_trace.load(Ordering::Acquire);
        let last = lock_recover(&self.last_good).take();
        if live_q.is_finite() && live_q <= limit_q {
            // Promotion confirmed; last-good no longer needed.
            self.emit(
                trace,
                LifecycleEvent::ProbationPassed {
                    version: probed_version,
                    q_p90: live_q,
                },
            );
            return;
        }
        if let Some(lg) = last {
            let _span = span!("adaptive_rollback");
            if self.registry.swap_base(lg.estimator.clone()).is_ok() {
                self.metrics.rollbacks.inc();
                lock_recover(&self.detector).rebaseline();
                self.emit(
                    trace,
                    LifecycleEvent::RollbackFired {
                        from: probed_version,
                        to: lg.version,
                        q_p90: live_q,
                        limit: limit_q,
                    },
                );
            }
        }
    }
}

/// LoRA fine-tune `est` in place with one training thread, whatever its
/// config's `threads` (restored afterwards, so a promoted candidate
/// carries the serving model's setting): a retrain runs beside the serve
/// workers and keeps to the one core its own thread occupies.
fn fine_tune_on_one_thread(
    est: &mut dace_core::DaceEstimator,
    data: &Dataset,
    epochs: usize,
    lr: f32,
) -> Result<(), dace_core::TrainError> {
    let threads = std::mem::replace(&mut est.config.threads, 1);
    let tuned = est.fine_tune_lora(data, epochs, lr);
    est.config.threads = threads;
    tuned
}

/// Q-error quantile of `est` over the held-back samples.
fn shadow_q(est: &dace_core::DaceEstimator, holdback: &[FeedbackSample], p: f64) -> f64 {
    let mut qs: Vec<f64> = holdback
        .iter()
        .map(|s| q_error(est.predict_ms(&s.plan.tree), s.observed_ms))
        .collect();
    quantile(&mut qs, p).unwrap_or(f64::INFINITY)
}

/// Clone `tree` with its actual-latency labels rescaled so the root label
/// equals the observation. Callers only observe end-to-end latency; scaling
/// preserves the tree's internal label structure (and when the tree carries
/// no labels at all, latency is apportioned by estimated cost).
fn relabel(tree: &PlanTree, observed_ms: f64) -> PlanTree {
    let mut t = tree.clone();
    let ids: Vec<_> = t.ids().collect();
    let root_actual = t.actual_ms();
    if root_actual > 0.0 {
        let scale = observed_ms / root_actual;
        for id in ids {
            let n = t.node_mut(id);
            n.actual_ms *= scale;
        }
    } else {
        let root_cost = tree.est_cost().max(1e-9);
        for id in ids {
            let n = t.node_mut(id);
            n.actual_ms = (observed_ms * (n.est_cost / root_cost).clamp(0.0, 1.0)).max(1e-6);
        }
    }
    t
}

/// Flip a byte in the middle of `path` — the CheckpointCorrupt fault's
/// effect on the promotion artifact.
fn corrupt_file(path: &std::path::Path) {
    if let Ok(mut bytes) = std::fs::read(path) {
        if !bytes.is_empty() {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            let _ = std::fs::write(path, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(q: f64) -> f64 {
        q
    }

    fn detector(min: usize, window: usize, check_every: usize) -> DriftDetector {
        DriftDetector::new(DriftConfig {
            min_samples: min,
            window,
            quantile: 0.9,
            ratio: 1.5,
            check_every,
            cooldown: 8,
        })
    }

    #[test]
    fn warmup_freezes_baseline_then_stationary_never_trips() {
        let mut d = detector(16, 16, 1);
        for _ in 0..16 {
            assert!(d.push(sample(1.2)).is_none());
        }
        assert_eq!(d.baseline(), Some(1.2));
        for _ in 0..500 {
            assert!(d.push(sample(1.2)).is_none(), "stationary stream tripped");
        }
    }

    #[test]
    fn shift_trips_once_then_cooldown_holds_fire() {
        let mut d = detector(16, 16, 1);
        for _ in 0..16 {
            d.push(1.0);
        }
        let mut trips = 0;
        for _ in 0..24 {
            if let Some(t) = d.push(4.0) {
                trips += 1;
                assert!(t.window_q >= 4.0 - 1e-9);
                assert_eq!(t.baseline_q, 1.0);
            }
        }
        // One trip at window-full, then cooldown (8) swallows the rest of
        // this short burst.
        assert_eq!(trips, 1);
    }

    #[test]
    fn rebaseline_forgets_everything() {
        let mut d = detector(4, 4, 1);
        for _ in 0..4 {
            d.push(1.0);
        }
        assert!(d.baseline().is_some());
        d.rebaseline();
        assert!(d.baseline().is_none());
        // New warmup at the drifted level: no trip, it's the new normal.
        for _ in 0..4 {
            d.push(5.0);
        }
        assert_eq!(d.baseline(), Some(5.0));
        for _ in 0..100 {
            assert!(d.push(5.0).is_none());
        }
    }

    #[test]
    fn ignores_garbage_inputs() {
        let mut d = detector(4, 4, 1);
        for _ in 0..100 {
            assert!(d.push(f64::NAN).is_none());
            assert!(d.push(f64::INFINITY).is_none());
            assert!(d.push(-1.0).is_none());
            assert!(d.push(0.0).is_none());
        }
        assert!(d.baseline().is_none(), "garbage must not feed warmup");
    }

    fn fb(q: f64) -> FeedbackSample {
        use dace_plan::{NodeType, OpPayload, PlanNode, TreeBuilder};
        let mut b = TreeBuilder::new();
        let leaf = b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other));
        let tree = b.finish(leaf);
        FeedbackSample {
            fingerprint: 0,
            predicted_ms: 1.0,
            observed_ms: q,
            q_error: q,
            plan: LabeledPlan {
                tree,
                db_id: 0,
                machine: MachineId::M1,
            },
        }
    }

    #[test]
    fn buffer_drops_newest_when_full_and_counts() {
        let buf = FeedbackBuffer::with_capacity(4);
        for i in 0..6 {
            buf.push(fb(i as f64 + 1.0));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 2);
        let drained = buf.drain();
        assert_eq!(drained.len(), 4);
        // Oldest first, newest dropped.
        assert_eq!(drained[0].observed_ms, 1.0);
        assert_eq!(drained[3].observed_ms, 4.0);
        assert!(buf.is_empty());
    }

    #[test]
    fn buffer_drain_then_refill_reuses_slots() {
        let buf = FeedbackBuffer::with_capacity(2);
        buf.push(fb(1.0));
        assert_eq!(buf.drain().len(), 1);
        buf.push(fb(2.0));
        buf.push(fb(3.0));
        let drained = buf.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].observed_ms, 2.0);
        assert_eq!(drained[1].observed_ms, 3.0);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let buf = Arc::new(FeedbackBuffer::with_capacity(1024));
        let producers_done = AtomicU64::new(0);
        let drained = AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (buf, producers_done) = (Arc::clone(&buf), &producers_done);
                s.spawn(move || {
                    for i in 0..128 {
                        buf.push(fb((t * 1000 + i) as f64 + 1.0));
                    }
                    producers_done.fetch_add(1, Ordering::Release);
                });
            }
            // A drainer races the producers throughout.
            let (buf, producers_done, drained) = (&buf, &producers_done, &drained);
            s.spawn(move || {
                while producers_done.load(Ordering::Acquire) < 4 {
                    drained.fetch_add(buf.drain().len() as u64, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(buf.dropped(), 0);
        let total = drained.into_inner() + buf.drain().len() as u64;
        assert_eq!(total, 4 * 128);
    }

    #[test]
    fn len_stays_within_capacity_while_pushers_race_a_drainer() {
        let buf = FeedbackBuffer::with_capacity(8);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    buf.push(fb(1.0));
                }
            });
            s.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    buf.drain();
                }
            });
            // Stop the other threads before asserting, so a failure
            // panics instead of leaving the scope waiting on them. Every
            // poll takes the buffer's mutex, so 100k polls already
            // interleave with many pushes and drains.
            let over = (0..100_000)
                .map(|_| buf.len())
                .find(|&len| len > buf.capacity());
            done.store(true, Ordering::Release);
            assert_eq!(over, None, "len() exceeded capacity {}", buf.capacity());
        });
    }

    #[test]
    fn relabel_scales_labels_to_observation() {
        use dace_plan::{NodeType, OpPayload, PlanNode, TreeBuilder};
        let mut b = TreeBuilder::new();
        let mut leaf_node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
        leaf_node.actual_ms = 2.0;
        let leaf = b.leaf(leaf_node);
        let tree = b.finish(leaf);
        let t = relabel(&tree, 10.0);
        assert!((t.actual_ms() - 10.0).abs() < 1e-9);
    }
}
