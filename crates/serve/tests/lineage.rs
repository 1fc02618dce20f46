//! Causal lineage end to end: one observe→retrain→swap run against a live
//! server with a durable journal, tight SLO windows, span tracing and the
//! introspection endpoint. The journal must tell the whole story in order,
//! the promotion must carry the trace id of the drift trip that caused it,
//! and that id must be findable in the flight recorder through `/trace`.
//!
//! This is its own test binary because it switches on process-wide span
//! tracing and drains the global flight recorder; sharing a process with
//! other server tests would mix their spans into the drain.

mod common;

use std::sync::Arc;

use dace_serve::{
    http_get, AdaptiveConfig, AdaptiveController, DaceServer, DriftConfig, HealthConfig,
    LifecycleEvent, ModelRegistry, ServeConfig, SloConfig,
};

#[test]
fn drift_to_promotion_lineage_is_journaled_traced_and_served() {
    // Trained long enough that its accuracy on clean traffic is a real
    // baseline for the post-swap recovery bound.
    let train = common::synthetic_dataset(80, 8);
    let registry = Arc::new(ModelRegistry::new(common::trained_estimator(&train, 20)));
    let dir = std::env::temp_dir().join(format!("dace-lineage-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    dace_obs::set_tracing(true);
    let (window, probation) = (64usize, 48usize);
    let acfg = AdaptiveConfig {
        drift: DriftConfig {
            min_samples: window,
            window,
            quantile: 0.9,
            ratio: 1.5,
            check_every: 16,
            // One trip per run: the cooldown outlasts the traffic.
            cooldown: 100 * window,
        },
        retrain_epochs: 40,
        retrain_lr: 2e-3,
        holdback_fraction: 0.25,
        min_retrain_samples: window / 2,
        // Retrain on the newest window only: older samples carry the
        // pre-drift labels the shift contradicts.
        retrain_window: window,
        shadow_quantile: 0.9,
        promote_margin: 1.0,
        probation_samples: probation,
        probation_margin: 3.0,
        checkpoint_dir: Some(dir.join("ckpt")),
        buffer_capacity: 8192,
        db_id: 0,
    };
    std::fs::create_dir_all(dir.join("ckpt")).unwrap();
    let server = DaceServer::with_health(
        Arc::clone(&registry),
        ServeConfig {
            introspect_addr: Some("127.0.0.1:0".parse().unwrap()),
            ..ServeConfig::default()
        },
        None,
        HealthConfig {
            journal_path: Some(dir.join("journal.jsonl")),
            bundle_dir: Some(dir.join("bundles")),
            // Small windows, so the drifted segment (q-error ≈ 6 against
            // the default target of 4) burns through both.
            slo: SloConfig {
                fast_window: 32,
                slow_window: 96,
                ..SloConfig::default()
            },
        },
    );
    let addr = server.introspect_addr().expect("port 0 bind succeeds");
    let ctrl = AdaptiveController::new(Arc::clone(&registry), server.metrics_registry(), acfg);
    ctrl.set_health(Arc::clone(server.health()), server.metrics_registry());

    // Clean traffic, then a sustained 6× shift until the detector trips
    // (bounded, so a broken detector fails below instead of hanging), then
    // probation plus a window of traffic on the promoted model.
    let drift = 6.0;
    let observe = |i: usize, factor: f64| {
        let plan = &train.plans[i % train.plans.len()];
        let pred = server.predict(&plan.tree).expect("healthy request");
        let observed = plan.latency_ms() * factor;
        ctrl.observe(&plan.tree, &pred, observed);
        dace_core::q_error(pred.ms, observed)
    };
    let mut clean: Vec<f64> = (0..window + window / 2).map(|i| observe(i, 1.0)).collect();
    let mut fed = 0;
    while ctrl.metrics().drift_trips.get() == 0 && fed < 20 * window {
        observe(fed, drift);
        fed += 1;
    }
    ctrl.join(); // retrain → shadow eval → checkpointed promotion
    let mut promoted: Vec<f64> = (0..probation + window).map(|i| observe(i, drift)).collect();

    // The promoted model answers the shifted traffic about as well as the
    // stale model answered the traffic it was trained for.
    let clean_q90 = dace_core::quantile(&mut clean, 0.9).unwrap();
    let promoted_q90 = dace_core::quantile(&mut promoted, 0.9).unwrap();
    println!("q-error p90: stale on clean {clean_q90:.3}, promoted on drifted {promoted_q90:.3}");
    assert!(
        promoted_q90 <= clean_q90 * 1.2,
        "post-swap q90 {promoted_q90} did not recover to the pre-drift {clean_q90} × 1.2"
    );

    // All five endpoints answer, with the series and bodies operators
    // read.
    let get = |path: &str| http_get(addr, path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    let (health, _) = get("/health");
    let (metrics, metrics_body) = get("/metrics");
    let (events, events_body) = get("/events?n=4096");
    let (version, version_body) = get("/version");
    let (trace, trace_body) = get("/trace");
    assert_eq!([health, metrics, events, version, trace], [200; 5]);
    for series in [
        "# HELP serve_submitted_total",
        "obs_recorder_dropped",
        "adaptive_feedback_ring_dropped",
        "dace_qerr{",
    ] {
        assert!(metrics_body.contains(series), "/metrics lacks {series}");
    }
    assert!(
        version_body.contains("versions_published"),
        "{version_body}"
    );
    assert!(events_body.starts_with('['), "{events_body}");

    // The journal tells the story in order: boot, trip, promotion,
    // probation, with the promotion stamped by the trip's trace id.
    let records = server.health().journal().records();
    assert!(
        matches!(records[0].event, LifecycleEvent::ServerStarted { .. }),
        "journal head is {:?}",
        records[0].event
    );
    let position = |kind: &str| {
        records
            .iter()
            .position(|r| r.event.kind() == kind)
            .unwrap_or_else(|| panic!("no {kind} in the journal"))
    };
    let (tripped, promoted, passed) = (
        position("DriftTripped"),
        position("SwapPromoted"),
        position("ProbationPassed"),
    );
    assert!(tripped < promoted && promoted < passed);
    let drift_trace = records[tripped].trace;
    assert_ne!(drift_trace, 0, "the drift trip carries no trace id");
    for r in records.iter().filter(|r| r.event.kind() == "SwapPromoted") {
        assert_eq!(r.trace, drift_trace, "promotion lost the trip's trace id");
    }
    assert!(
        trace_body.contains(&format!("{drift_trace:016x}")),
        "/trace does not show the drift lineage {drift_trace:016x}"
    );

    // The drifted segment burned the q-error budget in both windows.
    let alert = records.iter().find_map(|r| match r.event {
        LifecycleEvent::Alert {
            fast_burn,
            slow_burn,
            threshold,
            ..
        } => Some((fast_burn, slow_burn, threshold)),
        _ => None,
    });
    let (fast, slow, threshold) = alert.expect("no burn-rate alert journaled");
    assert!(
        fast > threshold && slow > threshold,
        "alert burns {fast}/{slow} not both over {threshold}"
    );

    // `/trace` drained the flight recorder; fresh traffic refills it. The
    // drain runs only after shutdown, so no worker can still be appending,
    // and it must export as a non-empty Chrome trace.
    for i in 0..16 {
        observe(i, drift);
    }
    server.shutdown();
    dace_obs::set_tracing(false);
    let spans = dace_obs::FlightRecorder::global().snapshot_records();
    let chrome: serde::Value = serde_json::from_str(&dace_obs::chrome_trace(&spans)).unwrap();
    let events = chrome.as_seq().expect("chrome trace is an event array");
    assert!(!events.is_empty(), "flight recorder drained empty");
    for e in events {
        let e = e.as_map().expect("each trace event is an object");
        for key in ["name", "ts", "pid"] {
            assert!(serde::map_get(e, key).is_some(), "trace event lacks {key}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
