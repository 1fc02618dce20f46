//! The adaptive loop, end to end: drift-detector properties, the
//! observe → retrain → shadow-eval → swap pipeline, and its chaos modes
//! (mid-retrain crash, sabotaged candidate, corrupt promotion checkpoint,
//! swap under racing clients).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dace_serve::{
    silence_injected_panics, AdaptiveConfig, AdaptiveController, DaceServer, DriftConfig,
    DriftDetector, FaultConfig, FaultInjector, MetricsRegistry, ModelRegistry, Prediction,
    ServeConfig, FALLBACK_VERSION,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Drift-detector properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stationary q-error stream (bounded jitter well inside the trip
    /// ratio) never trips, no matter its level or length.
    #[test]
    fn stationary_stream_never_trips(
        base in 1.0f64..50.0,
        jitter in proptest::collection::vec(0.0f64..0.2, 200),
    ) {
        let mut d = DriftDetector::new(DriftConfig {
            min_samples: 32,
            window: 32,
            quantile: 0.9,
            ratio: 1.5,
            check_every: 1,
            cooldown: 0,
        });
        // Warmup at the base level.
        for _ in 0..32 {
            prop_assert!(d.push(base).is_none());
        }
        // Stationary traffic: at most +20% jitter, ratio is 1.5.
        for j in jitter {
            prop_assert!(d.push(base * (1.0 + j)).is_none());
        }
    }

    /// A sustained shift beyond the trip ratio is *guaranteed* to trip once
    /// the window has turned over, whatever the baseline level.
    #[test]
    fn sustained_shift_always_trips(
        base in 1.0f64..50.0,
        shift in 1.6f64..10.0,
        window in 4usize..64,
    ) {
        let mut d = DriftDetector::new(DriftConfig {
            min_samples: 16,
            window,
            quantile: 0.9,
            ratio: 1.5,
            check_every: 1,
            cooldown: 0,
        });
        for _ in 0..16 {
            d.push(base);
        }
        let mut tripped = None;
        for i in 0..window {
            if let Some(t) = d.push(base * shift) {
                tripped = Some((i, t));
                break;
            }
        }
        let (at, trip) = tripped.expect("sustained shift past ratio must trip");
        // The trip cannot come before the window is all-shifted...
        prop_assert_eq!(at, window - 1);
        // ...and must report the shifted quantile over the frozen baseline.
        prop_assert!((trip.baseline_q - base).abs() < 1e-9);
        prop_assert!(trip.window_q >= base * shift - 1e-9);
    }

    /// Eviction: pre-shift history ages out of the sliding window, so a
    /// shift still trips no matter how long the clean prefix was.
    #[test]
    fn window_evicts_old_samples(
        prefix in 0usize..500,
        shift in 2.0f64..8.0,
    ) {
        let window = 16usize;
        let mut d = DriftDetector::new(DriftConfig {
            min_samples: 8,
            window,
            quantile: 0.9,
            ratio: 1.5,
            check_every: 1,
            cooldown: 0,
        });
        for _ in 0..8 {
            d.push(1.0);
        }
        // Arbitrarily long clean run after warmup.
        for _ in 0..prefix {
            prop_assert!(d.push(1.0).is_none());
        }
        // The shift needs exactly one window turnover to trip.
        let mut tripped = false;
        for _ in 0..window {
            if d.push(shift).is_some() {
                tripped = true;
                break;
            }
        }
        prop_assert!(tripped, "clean history must age out of the window");
    }
}

// ---------------------------------------------------------------------------
// End-to-end loop
// ---------------------------------------------------------------------------

/// Drift/retrain knobs tuned for test speed: tiny warmup and window, one
/// full window of drifted traffic trips, and the retrain is a short LoRA
/// fine-tune.
fn quick_adaptive_config() -> AdaptiveConfig {
    AdaptiveConfig {
        buffer_capacity: 4096,
        drift: DriftConfig {
            min_samples: 8,
            window: 64,
            quantile: 0.9,
            ratio: 1.5,
            check_every: 64,
            cooldown: 256,
        },
        retrain_epochs: 10,
        retrain_lr: 2e-3,
        holdback_fraction: 0.25,
        min_retrain_samples: 24,
        retrain_window: 4096,
        shadow_quantile: 0.9,
        promote_margin: 1.0,
        probation_samples: 32,
        probation_margin: 2.0,
        checkpoint_dir: None,
        db_id: 0,
    }
}

fn model_prediction(registry: &ModelRegistry, tree: &dace_plan::PlanTree) -> Prediction {
    let base = registry.base();
    Prediction {
        ms: base.estimator.predict_ms(tree),
        adapter: None,
        version: base.version,
        batch_size: 1,
        cache_hit: false,
        degraded: false,
        stages: None,
        trace: 0,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dace-adaptive-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Drive the loop into drift: feed `n` observations whose actual latency is
/// `drift_factor ×` the label the model was trained on.
fn feed(
    ctrl: &Arc<AdaptiveController>,
    registry: &ModelRegistry,
    data: &dace_plan::Dataset,
    n: usize,
    drift_factor: f64,
) {
    for i in 0..n {
        let plan = &data.plans[i % data.len()];
        let pred = model_prediction(registry, &plan.tree);
        ctrl.observe(&plan.tree, &pred, plan.latency_ms() * drift_factor);
    }
}

/// Post-swap accuracy on the drifted distribution: q-error p90 of the
/// *current* base model against `drift_factor ×` labels.
fn q90_under_drift(registry: &ModelRegistry, data: &dace_plan::Dataset, drift_factor: f64) -> f64 {
    let base = registry.base();
    let mut qs: Vec<f64> = data
        .plans
        .iter()
        .map(|p| {
            dace_serve::q_error(
                base.estimator.predict_ms(&p.tree),
                p.latency_ms() * drift_factor,
            )
        })
        .collect();
    dace_core::quantile(&mut qs, 0.9).unwrap()
}

#[test]
fn degraded_answers_are_rejected_not_ingested() {
    let (est, train) = common::quick_estimator(11);
    let registry = Arc::new(ModelRegistry::new(est));
    let metrics = MetricsRegistry::new();
    let ctrl = AdaptiveController::new(Arc::clone(&registry), &metrics, quick_adaptive_config());

    let plan = &train.plans[0];
    let mut pred = model_prediction(&registry, &plan.tree);
    pred.degraded = true;
    pred.version = FALLBACK_VERSION;
    for _ in 0..50 {
        ctrl.observe(&plan.tree, &pred, plan.latency_ms());
    }
    // Also reject the sentinel alone (belt and braces — respond_degraded
    // sets both).
    let mut sentinel_only = model_prediction(&registry, &plan.tree);
    sentinel_only.version = FALLBACK_VERSION;
    ctrl.observe(&plan.tree, &sentinel_only, plan.latency_ms());

    let m = ctrl.metrics();
    assert_eq!(m.samples.get(), 0, "degraded answers must not be ingested");
    assert_eq!(m.samples_rejected_degraded.get(), 51);
    assert!(ctrl.buffer().is_empty());
    assert!(ctrl.drift_baseline().is_none());
}

#[test]
fn drift_trips_retrain_promotes_and_accuracy_recovers() {
    let (est, train) = common::quick_estimator(7);
    let registry = Arc::new(ModelRegistry::new(est));
    let metrics = MetricsRegistry::new();
    let dir = temp_dir("promote");
    let mut config = quick_adaptive_config();
    config.checkpoint_dir = Some(dir.clone()); // promotion via crash-safe artifact
    let ctrl = AdaptiveController::with_faults(
        Arc::clone(&registry),
        &metrics,
        config,
        Arc::new(FaultInjector::new(FaultConfig::disabled())),
    );
    let v0 = registry.base().version;

    // Clean traffic: warmup freezes a healthy baseline, no trips.
    feed(&ctrl, &registry, &train, 16, 1.0);
    assert!(ctrl.drift_baseline().is_some());
    assert_eq!(ctrl.metrics().drift_trips.get(), 0);

    let drift = 6.0;
    let pre_q90 = q90_under_drift(&registry, &train, drift);
    assert!(
        pre_q90 > 3.0,
        "6× drift must hurt the stale model: {pre_q90}"
    );

    // Drifted traffic: one full window trips the detector and spawns the
    // background retrain.
    feed(&ctrl, &registry, &train, 64, drift);
    assert!(ctrl.metrics().drift_trips.get() >= 1, "drift must trip");
    ctrl.join();

    let m = ctrl.metrics();
    assert_eq!(m.retrains_started.get(), 1);
    assert_eq!(m.promotions.get(), 1, "candidate must be promoted");
    assert_eq!(m.retrains_succeeded.get(), 1);
    assert_eq!(m.retrains_failed.get(), 0);
    assert!(
        registry.base().version > v0,
        "swap must publish a new version"
    );

    // The retrained model must actually fix the drift.
    let post_q90 = q90_under_drift(&registry, &train, drift);
    assert!(
        post_q90 < pre_q90 * 0.7,
        "post-swap q90 {post_q90} must improve on pre-swap {pre_q90}"
    );

    // Probation: healthy live traffic from the new model confirms the
    // promotion — no rollback.
    feed(&ctrl, &registry, &train, 40, drift);
    assert_eq!(
        ctrl.metrics().rollbacks.get(),
        0,
        "clean run must not roll back"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sabotaged_candidate_is_rejected_and_last_good_serves() {
    silence_injected_panics();
    let (est, train) = common::quick_estimator(13);
    let registry = Arc::new(ModelRegistry::new(est));
    let metrics = MetricsRegistry::new();
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 42,
        sabotage_ppm: 1_000_000, // every candidate is sabotaged
        ..FaultConfig::disabled()
    }));
    let ctrl = AdaptiveController::with_faults(
        Arc::clone(&registry),
        &metrics,
        quick_adaptive_config(),
        injector,
    );
    let v0 = registry.base().version;

    feed(&ctrl, &registry, &train, 16, 1.0);
    feed(&ctrl, &registry, &train, 64, 6.0);
    ctrl.join();

    let m = ctrl.metrics();
    assert!(m.retrains_started.get() >= 1);
    assert_eq!(
        m.promotions.get(),
        0,
        "a sabotaged candidate must never ship"
    );
    assert!(
        m.retrains_rolled_back.get() >= 1,
        "shadow eval must reject the sabotaged candidate"
    );
    assert_eq!(
        registry.base().version,
        v0,
        "last-good must keep serving untouched"
    );
    let p = registry.base().estimator.predict_ms(&train.plans[0].tree);
    assert!(p.is_finite() && p > 0.0);
}

#[test]
fn mid_retrain_crash_releases_latch_and_allows_next_attempt() {
    silence_injected_panics();
    let (est, train) = common::quick_estimator(17);
    let registry = Arc::new(ModelRegistry::new(est));
    let metrics = MetricsRegistry::new();
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 7,
        retrain_crash_ppm: 1_000_000, // every retrain dies mid-flight
        ..FaultConfig::disabled()
    }));
    let mut config = quick_adaptive_config();
    config.drift.cooldown = 64; // re-arm quickly so a second trip can fire
    let ctrl = AdaptiveController::with_faults(Arc::clone(&registry), &metrics, config, injector);
    let v0 = registry.base().version;

    feed(&ctrl, &registry, &train, 16, 1.0);
    feed(&ctrl, &registry, &train, 64, 6.0);
    ctrl.join();
    let m = ctrl.metrics();
    assert_eq!(m.retrains_started.get(), 1);
    assert_eq!(m.retrains_failed.get(), 1, "injected crash must be counted");
    assert_eq!(m.promotions.get(), 0);
    assert!(!ctrl.retrain_inflight(), "crash must release the latch");

    // The loop survives: after cooldown the detector trips again and the
    // (recovered) latch lets a second retrain spawn.
    feed(&ctrl, &registry, &train, 64 + 64, 6.0);
    ctrl.join();
    assert!(
        ctrl.metrics().retrains_started.get() >= 2,
        "latch must allow another retrain after a crash"
    );
    assert_eq!(
        registry.base().version,
        v0,
        "serving model untouched throughout"
    );
}

#[test]
fn corrupt_promotion_checkpoint_keeps_last_good() {
    silence_injected_panics();
    let (est, train) = common::quick_estimator(19);
    let registry = Arc::new(ModelRegistry::new(est));
    let metrics = MetricsRegistry::new();
    let dir = temp_dir("corrupt");
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        seed: 3,
        checkpoint_corrupt_ppm: 1_000_000, // every promotion artifact is torn
        ..FaultConfig::disabled()
    }));
    let mut config = quick_adaptive_config();
    config.checkpoint_dir = Some(dir.clone());
    let ctrl = AdaptiveController::with_faults(Arc::clone(&registry), &metrics, config, injector);
    let v0 = registry.base().version;

    feed(&ctrl, &registry, &train, 16, 1.0);
    feed(&ctrl, &registry, &train, 64, 6.0);
    ctrl.join();

    let m = ctrl.metrics();
    assert!(m.retrains_started.get() >= 1);
    assert_eq!(
        m.promotions.get(),
        0,
        "a torn artifact must not be installed"
    );
    assert!(
        m.retrains_failed.get() >= 1,
        "the reload failure must be counted"
    );
    assert_eq!(registry.base().version, v0, "last-good keeps serving");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn swap_under_racing_clients_never_tears_a_version() {
    let (est, train) = common::quick_estimator(23);
    let registry = Arc::new(ModelRegistry::new(est));
    let metrics = MetricsRegistry::new();
    let server = DaceServer::new(Arc::clone(&registry), ServeConfig::default());
    let ctrl = AdaptiveController::new(Arc::clone(&registry), &metrics, quick_adaptive_config());
    let v0 = registry.base().version;

    // Clients hammer the server while the adaptive loop swaps underneath.
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..4 {
            let server = &server;
            let registry = Arc::clone(&registry);
            let train = &train;
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut i = t;
                while !stop.load(Ordering::Relaxed) {
                    let plan = &train.plans[i % train.len()];
                    let pred = server.predict(&plan.tree).expect("serving must not fail");
                    assert!(
                        pred.ms.is_finite() && pred.ms > 0.0,
                        "prediction must stay finite across swaps"
                    );
                    let published = registry.versions_published();
                    assert!(
                        pred.version < published.max(1) || pred.version == FALLBACK_VERSION,
                        "version {} torn: only {} published",
                        pred.version,
                        published
                    );
                    i += 1;
                }
            });
        }
        // Main thread drives the loop to a promotion under the racing load.
        feed(&ctrl, &registry, &train, 16, 1.0);
        feed(&ctrl, &registry, &train, 64, 6.0);
        ctrl.join();
        // Confirm the promotion through probation, still under load.
        feed(&ctrl, &registry, &train, 40, 6.0);
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(ctrl.metrics().promotions.get(), 1);
    assert!(registry.base().version > v0);
    assert_eq!(ctrl.metrics().rollbacks.get(), 0);
    server.shutdown();
}
