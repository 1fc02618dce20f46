//! Sharded-scheduler suite: affinity routing, bounded work-stealing,
//! deadline-clamped batch waits, version stamps across registry swaps, and
//! the per-shard observability surface.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use dace_core::save_checkpoint;
use dace_serve::{silence_injected_panics, DaceServer, FaultConfig, ModelRegistry, ServeConfig};

fn sharded_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        workers: shards,
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        min_fill: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn sharded_server_answers_everything_and_spreads_load() {
    let (est, train) = common::quick_estimator(21);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), sharded_config(4));
    let handles: Vec<_> = train
        .plans
        .iter()
        .map(|p| server.submit(&p.tree, None, None).expect("admitted"))
        .collect();
    let n = handles.len() as u64;
    for h in handles {
        let pred = h.wait().expect("answered");
        assert!(pred.ms.is_finite() && pred.ms > 0.0);
    }
    let snaps = server.shard_snapshot();
    assert_eq!(snaps.len(), 4);
    assert_eq!(snaps.iter().map(|s| s.completed).sum::<u64>(), n);
    assert!(snaps.iter().all(|s| s.queue_depth == 0), "queues drained");
    // 80 distinct plans through an FNV route: several shards must see work.
    let busy = snaps.iter().filter(|s| s.completed > 0).count();
    assert!(
        busy >= 2,
        "affinity routing degenerated to one shard: {snaps:?}"
    );
    server.shutdown();
}

#[test]
fn identical_plans_share_a_shard_and_its_cache() {
    let (est, train) = common::quick_estimator(22);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), sharded_config(4));
    let hot = &train.plans[0].tree;
    for _ in 0..24 {
        server.predict(hot).expect("answered");
    }
    let snaps = server.shard_snapshot();
    // Strict affinity with no pressure: exactly one shard did all the work
    // and holds the single cached featurization.
    let busy: Vec<_> = snaps.iter().filter(|s| s.completed > 0).collect();
    assert_eq!(
        busy.len(),
        1,
        "same plan must route to one shard: {snaps:?}"
    );
    assert_eq!(busy[0].completed, 24);
    assert_eq!(server.cache_len(), 1);
    let snap = server.metrics_snapshot();
    assert!(snap.cache_hits >= 20, "repeats must hit the shard cache");
    server.shutdown();
}

#[test]
fn hot_shard_backlog_is_stolen_without_loss_or_duplication() {
    silence_injected_panics();
    let (est, train) = common::quick_estimator(23);
    let config = ServeConfig {
        steal_threshold: 1,
        steal_max: 4,
        max_batch: 1,
        queue_depth: 4096,
        // Every forward sleeps 1 ms: the hot shard cannot keep up alone,
        // so its backlog is only drained in time with thieves helping.
        faults: FaultConfig {
            seed: 5,
            stage_delay_ppm: 1_000_000,
            stage_delay: Duration::from_millis(1),
            ..FaultConfig::disabled()
        },
        ..sharded_config(4)
    };
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), config);
    let hot = &train.plans[0].tree;
    const N: usize = 160;
    let handles: Vec<_> = (0..N)
        .map(|_| server.submit(hot, None, None).expect("admitted"))
        .collect();
    let mut answered = 0usize;
    for h in handles {
        let pred = h.wait().expect("every stolen or local job is answered");
        assert!(pred.ms.is_finite() && pred.ms > 0.0);
        answered += 1;
    }
    assert_eq!(answered, N, "zero lost");
    let snaps = server.shard_snapshot();
    assert_eq!(
        snaps.iter().map(|s| s.completed).sum::<u64>(),
        N as u64,
        "zero duplicated: completions equal submissions exactly ({snaps:?})"
    );
    let stolen: u64 = snaps.iter().map(|s| s.stolen).sum();
    assert!(
        stolen > 0,
        "idle shards must have stolen from the hot one: {snaps:?}"
    );
    server.shutdown();
}

/// The latent `min_fill` bug this PR fixes: the batch-wait window used a
/// global clock while deadlines are per-entry. A lone near-deadline request
/// on an idle server must dispatch before its deadline, not sit out
/// `max_wait` waiting for a fill that never comes.
#[test]
fn near_deadline_requests_bypass_batch_wait() {
    let (est, train) = common::quick_estimator(24);
    let config = ServeConfig {
        shards: 1,
        workers: 1,
        // A pathological batching policy: wait up to 400 ms for 64 requests.
        max_batch: 64,
        min_fill: 64,
        max_wait: Duration::from_millis(400),
        ..ServeConfig::default()
    };
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), config);
    let deadline = Duration::from_millis(50);
    for plan in train.plans.iter().take(5) {
        let started = Instant::now();
        let pred = server
            .predict_with(&plan.tree, None, Some(deadline))
            .expect("batch-wait alone must never expire a request");
        let elapsed = started.elapsed();
        // The batcher dispatches at deadline minus a slack-proportional
        // margin (~12 ms here); allow scheduling jitter on a loaded
        // machine. The unclamped bug this pins sat out the full 400 ms
        // `max_wait`, so any bound far below that catches the regression.
        assert!(
            elapsed < deadline + Duration::from_millis(25),
            "answered long after the deadline ({elapsed:?}): window not clamped"
        );
        assert!(pred.ms.is_finite() && pred.ms > 0.0);
    }
    assert_eq!(server.metrics_snapshot().expired, 0);
    server.shutdown();
}

/// Every promotion path funnels through `ModelVersion::new`, including the
/// checkpoint-reload path the adaptive loop promotes through. After each
/// swap the next answer carries the new version and is the new model's
/// own prediction, bit for bit (root-row inference is batch-invariant).
#[test]
fn every_swap_serves_the_new_weights() {
    let (est_a, train) = common::quick_estimator(26);
    let (est_b, _) = common::quick_estimator(99);
    let registry = Arc::new(ModelRegistry::new(est_a));
    let server = DaceServer::new(Arc::clone(&registry), sharded_config(2));
    let plan = &train.plans[0].tree;

    let before = server.predict(plan).unwrap();
    assert_eq!(before.version, 0);

    // Direct swap (the manual path).
    let v1 = registry.swap_base(est_b.clone()).unwrap();
    let after = server.predict(plan).unwrap();
    assert_eq!(after.version, v1);
    assert_eq!(
        after.ms.to_bits(),
        est_b.predict_batch_ms(&[plan])[0].to_bits(),
        "served {} after swap, not the new model's answer",
        after.ms
    );

    // Checkpoint-reload swap (the adaptive promotion path).
    let dir = std::env::temp_dir().join(format!("dace-swap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("candidate.dace");
    let (est_c, _) = common::quick_estimator(7);
    save_checkpoint(&ckpt, &est_c).unwrap();
    let v2 = registry.swap_base_from_checkpoint(&ckpt).unwrap();
    let promoted = server.predict(plan).unwrap();
    assert_eq!(promoted.version, v2);
    assert_eq!(
        promoted.ms.to_bits(),
        est_c.predict_batch_ms(&[plan])[0].to_bits(),
        "served {} after checkpoint promotion, not the new model's answer",
        promoted.ms
    );
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}

#[test]
fn shard_metrics_round_trip_with_help() {
    let (est, train) = common::quick_estimator(27);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), sharded_config(2));
    for plan in train.plans.iter().take(8) {
        server.predict(&plan.tree).unwrap();
        server
            .predict_with(&plan.tree, None, Some(Duration::from_millis(10)))
            .unwrap();
    }
    let text = server.health().prometheus_text(server.metrics_registry());
    for family in [
        "serve_shard_queue_depth",
        "serve_shard_completed_total",
        "serve_steals_total",
    ] {
        assert!(
            text.contains(&format!("# HELP {family} ")),
            "missing HELP for {family}"
        );
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "missing TYPE for {family}"
        );
    }
    let parsed = dace_obs::parse_prometheus_text(&text);
    for shard in 0..2 {
        assert!(parsed.contains_key(&format!("serve_shard_queue_depth{{shard=\"{shard}\"}}")));
        assert!(parsed.contains_key(&format!("serve_shard_completed_total{{shard=\"{shard}\"}}")));
    }
    assert!(parsed.contains_key("serve_steals_total{from=\"0\",to=\"1\"}"));
    assert!(parsed.contains_key("serve_steals_total{from=\"1\",to=\"0\"}"));
    let completed: f64 = (0..2)
        .map(|s| parsed[&format!("serve_shard_completed_total{{shard=\"{s}\"}}")])
        .sum();
    assert_eq!(completed, 16.0);
    server.shutdown();
}
