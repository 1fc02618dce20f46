//! Scheduler behavior: correctness vs the offline batch path, admission
//! control (load shedding, deadlines), micro-batching, and the
//! featurization cache.

mod common;

use std::sync::Arc;
use std::time::Duration;

use dace_plan::PlanTree;
use dace_serve::{DaceServer, ModelRegistry, ServeConfig, ServeError};

fn probe_trees(n: usize, seed: u64) -> Vec<PlanTree> {
    common::synthetic_dataset(n, seed)
        .plans
        .into_iter()
        .map(|p| p.tree)
        .collect()
}

#[test]
fn served_predictions_match_offline_batch_path() {
    let (est, _) = common::quick_estimator(31);
    let trees = probe_trees(40, 32);
    let refs: Vec<&PlanTree> = trees.iter().collect();
    let offline = est.predict_batch_ms(&refs);

    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), ServeConfig::default());
    // Submit everything up front, then shut down: workers must drain the
    // backlog before exiting, so every handle still resolves.
    let handles: Vec<_> = trees
        .iter()
        .map(|t| server.submit(t, None, None).unwrap())
        .collect();
    let snap_before = server.metrics_snapshot();
    assert_eq!(snap_before.submitted, 40);
    server.shutdown();

    for (h, want) in handles.into_iter().zip(offline) {
        let pred = h.wait().expect("drained request failed");
        assert!(
            (pred.ms.ln() - want.ln()).abs() < 1e-3,
            "served {} vs offline {want}",
            pred.ms
        );
        assert_eq!(pred.version, 0);
        assert_eq!(pred.adapter, None);
        assert!(pred.batch_size >= 1);
    }
}

#[test]
fn full_queue_sheds_and_teardown_resolves_stranded_handles() {
    let (est, _) = common::quick_estimator(41);
    let trees = probe_trees(1, 42);
    // No workers: nothing drains, so the queue's capacity is the whole
    // admission budget.
    let server = DaceServer::new(
        Arc::new(ModelRegistry::new(est)),
        ServeConfig {
            workers: 0,
            queue_depth: 2,
            ..ServeConfig::default()
        },
    );
    let h1 = server.submit(&trees[0], None, None).unwrap();
    let h2 = server.submit(&trees[0], None, None).unwrap();
    let shed = server.submit(&trees[0], None, None);
    assert_eq!(shed.unwrap_err(), ServeError::Overloaded);

    let snap = server.metrics_snapshot();
    assert_eq!(snap.submitted, 2);
    assert_eq!(snap.shed, 1);
    assert!(!snap.is_empty());

    // Tearing the server down with jobs still queued must not hang the
    // clients: stranded handles resolve to ShuttingDown.
    drop(server);
    assert_eq!(h1.wait().unwrap_err(), ServeError::ShuttingDown);
    assert_eq!(h2.wait().unwrap_err(), ServeError::ShuttingDown);
}

#[test]
fn expired_deadlines_are_dropped_before_any_work() {
    let (est, _) = common::quick_estimator(51);
    let trees = probe_trees(1, 52);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), ServeConfig::default());

    // A zero deadline has always passed by the time a worker drains the job.
    let err = server
        .predict_with(&trees[0], None, Some(Duration::ZERO))
        .unwrap_err();
    assert_eq!(err, ServeError::DeadlineExceeded);

    // The config-level default deadline takes the same path.
    let server2 = DaceServer::new(
        server.registry().clone(),
        ServeConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        },
    );
    assert_eq!(
        server2.predict(&trees[0]).unwrap_err(),
        ServeError::DeadlineExceeded
    );
    let snap = server2.metrics_snapshot();
    assert_eq!(snap.expired, 1);
    assert_eq!(snap.completed, 0);
}

#[test]
fn unknown_adapter_is_a_per_request_error() {
    let (est, _) = common::quick_estimator(61);
    let trees = probe_trees(1, 62);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), ServeConfig::default());

    let err = server
        .predict_with(&trees[0], Some("nope"), None)
        .unwrap_err();
    assert_eq!(err, ServeError::UnknownAdapter("nope".to_string()));
    // One bad request must not poison the server for good ones.
    assert!(server.predict(&trees[0]).is_ok());
    assert_eq!(server.metrics_snapshot().unknown_adapter, 1);
}

#[test]
fn backlog_is_micro_batched() {
    let (est, _) = common::quick_estimator(71);
    let trees = probe_trees(16, 72);
    let server = DaceServer::new(
        Arc::new(ModelRegistry::new(est)),
        ServeConfig {
            workers: 1,
            max_batch: 16,
            // A generous window so all 16 pre-queued requests ride one batch
            // even on a slow machine.
            max_wait: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    // submit() is non-blocking, so the whole backlog is queued while the
    // single worker is still inside its first batch window.
    let handles: Vec<_> = trees
        .iter()
        .map(|t| server.submit(t, None, None).unwrap())
        .collect();
    let preds: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let max_batch = preds.iter().map(|p| p.batch_size).max().unwrap();
    assert!(
        max_batch >= 2,
        "16 queued requests never shared a batch (max batch size {max_batch})"
    );
    let snap = server.metrics_snapshot();
    assert_eq!(snap.completed, 16);
    assert!(
        snap.batches < 16,
        "one batch per request — micro-batching never engaged"
    );
    assert!(snap.batch_size.max >= 2);
}

#[test]
fn repeated_plans_hit_the_featurization_cache() {
    let (est, _) = common::quick_estimator(81);
    let trees = probe_trees(2, 82);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), ServeConfig::default());

    let first = server.predict(&trees[0]).unwrap();
    assert!(!first.cache_hit, "fresh plan cannot hit the cache");
    let again = server.predict(&trees[0]).unwrap();
    assert!(again.cache_hit, "repeated plan missed the cache");
    assert!(
        (first.ms - again.ms).abs() < 1e-12,
        "cached features changed the prediction: {} vs {}",
        first.ms,
        again.ms
    );
    let other = server.predict(&trees[1]).unwrap();
    assert!(
        !other.cache_hit,
        "structurally different plan hit the cache"
    );

    let snap = server.metrics_snapshot();
    assert_eq!(snap.cache_hits, 1);
    assert_eq!(snap.cache_misses, 2);
    assert!((snap.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
}

#[test]
fn zero_capacity_cache_disables_caching_but_stays_correct() {
    let (est, _) = common::quick_estimator(91);
    let trees = probe_trees(1, 92);
    let offline = est.predict_ms(&trees[0]);
    let server = DaceServer::new(
        Arc::new(ModelRegistry::new(est)),
        ServeConfig {
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    for _ in 0..3 {
        let pred = server.predict(&trees[0]).unwrap();
        assert!(!pred.cache_hit);
        assert!((pred.ms.ln() - offline.ln()).abs() < 1e-3);
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.cache_hits, 0);
    assert_eq!(snap.cache_misses, 3);
}

#[test]
fn latency_histograms_cover_every_completed_request() {
    let (est, _) = common::quick_estimator(95);
    let trees = probe_trees(8, 96);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), ServeConfig::default());
    for t in &trees {
        server.predict(t).unwrap();
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.completed, 8);
    assert_eq!(snap.e2e_us.count, 8);
    assert_eq!(snap.queue_wait_us.count, 8);
    assert_eq!(snap.batch_size.count, snap.batches);
    assert!(snap.e2e_us.p99 >= snap.e2e_us.p50);
    assert!(snap.e2e_us.max > 0, "end-to-end latency recorded as zero");
    assert!(snap.forward_us.count > 0 && snap.featurize_us.count > 0);
}

#[test]
fn stage_breakdown_accompanies_every_model_answer() {
    let (est, _) = common::quick_estimator(101);
    let trees = probe_trees(6, 102);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), ServeConfig::default());
    for (i, t) in trees.iter().enumerate() {
        let pred = server.predict(t).unwrap();
        let stages = pred.stages.expect("model answers carry their stages");
        // Cache lookup is part of the featurize window, split out; both are
        // bounded by the end-to-end numbers the histograms see.
        assert!(
            stages.cache_lookup_us < 1_000_000,
            "probe took {i}: {stages:?}"
        );
        let total = stages.queue_wait_us
            + stages.cache_lookup_us
            + stages.featurize_us
            + stages.attention_us
            + stages.mlp_us;
        assert!(total < 10_000_000, "implausible stage total: {stages:?}");
    }
    let snap = server.metrics_snapshot();
    assert!(
        snap.cache_lookup_us.count > 0,
        "cache-probe histogram empty"
    );
    assert!(snap.attention_us.count > 0 && snap.mlp_us.count > 0);
    // The forward split is measured inside the forward window.
    assert!(snap.attention_us.max + snap.mlp_us.max <= snap.forward_us.max.max(1) * 2);
}

#[test]
fn live_server_registry_exports_prometheus_and_json() {
    let (est, _) = common::quick_estimator(105);
    let trees = probe_trees(5, 106);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), ServeConfig::default());
    for t in &trees {
        server.predict(t).unwrap();
    }
    let text = server.metrics_registry().prometheus_text();
    let parsed = dace_obs::parse_prometheus_text(&text);
    assert_eq!(parsed["serve_completed_total"], 5.0);
    assert_eq!(parsed["serve_submitted_total"], 5.0);
    assert!(parsed["serve_e2e_us_count"] >= 5.0);
    for q in ["0.5", "0.99"] {
        assert!(parsed.contains_key(&format!("serve_e2e_us{{quantile=\"{q}\"}}")));
    }
    // JSON export carries the same snapshot.
    let json = server.metrics_registry().json();
    let snap: dace_obs::RegistrySnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snap.counters["serve_completed_total"], 5);
    assert_eq!(snap.histograms["serve_e2e_us"].count, 5);
}

/// Concurrent closed-loop clients on the default config: 8 clients × 20
/// blocking requests, a quarter of them through a LoRA adapter. Nothing is
/// shed, and the metrics account for exactly the requests sent.
#[test]
fn concurrent_closed_loop_answers_every_request_without_shedding() {
    let (est, train) = common::quick_estimator(33);
    let registry = common::registry_with_tenant_adapter(est, &train);
    let server = DaceServer::new(Arc::new(registry), ServeConfig::default());
    let (clients, requests) = (8, 20);
    let run = common::closed_loop(&server, &common::trees(&train), clients, requests);
    let expected = (clients * requests) as u64;
    assert_eq!(run.answered, expected, "every client request answered");
    let snap = server.metrics_snapshot();
    assert_eq!(snap.shed, 0, "closed-loop load was shed: {snap}");
    assert!(!snap.is_empty());
    assert_eq!(snap.completed, expected, "snapshot incomplete: {snap}");
    server.shutdown();
}
