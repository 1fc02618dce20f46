//! Chaos suite: deterministic fault injection against a live server.
//!
//! Every test here runs real worker threads with the seeded
//! [`FaultInjector`] firing panics, kills, stalls, and delays, and asserts
//! the robustness contract: requests are answered (degraded where
//! necessary, typed-failed where no fallback exists), the pool self-heals,
//! and nothing ever crashes the process.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dace_plan::{NodeType, OpPayload, PlanNode, PlanValidationError, TreeBuilder};
use dace_serve::{
    silence_injected_panics, BreakerConfig, BreakerState, CostLinearFallback, DaceServer,
    FaultConfig, FaultSite, ModelRegistry, ServeConfig, ServeError,
};

/// A server wired for chaos: trained model, fitted cost-linear fallback,
/// and the given fault plan.
fn chaos_server(config: ServeConfig) -> (DaceServer, dace_plan::Dataset) {
    silence_injected_panics();
    let (est, train) = common::quick_estimator(7);
    let registry = Arc::new(ModelRegistry::new(est));
    let fallback = Box::new(CostLinearFallback::fit(&train));
    (DaceServer::with_fallback(registry, config, fallback), train)
}

fn base_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        min_fill: 1,
        ..ServeConfig::default()
    }
}

#[test]
fn certain_batch_panics_degrade_every_answer_and_open_the_breaker() {
    let config = ServeConfig {
        faults: FaultConfig {
            seed: 11,
            batch_panic_ppm: 1_000_000, // every forward panics
            ..FaultConfig::disabled()
        },
        ..base_config()
    };
    let (server, train) = chaos_server(config);
    for plan in train.plans.iter().take(40) {
        let pred = server.predict(&plan.tree).expect("degraded, not failed");
        assert!(pred.degraded, "model path is 100% dead: must degrade");
        assert!(pred.ms.is_finite() && pred.ms > 0.0);
        assert!(pred.stages.is_none(), "degraded answers skip staging");
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.completed, 40);
    assert_eq!(snap.degraded, 40, "every answer flagged and counted");
    assert!(snap.batch_panics > 0);
    assert!(
        snap.breaker_opened >= 1,
        "sustained failures must trip the breaker (snapshot: {snap})"
    );
    assert_eq!(server.breaker_state(), Some(BreakerState::Open));
    server.shutdown();
}

#[test]
fn breaker_closes_again_once_faults_stop() {
    let config = ServeConfig {
        breaker: BreakerConfig {
            open_cooldown: Duration::from_millis(2),
            min_samples: 4,
            probe_successes: 2,
            ..BreakerConfig::default()
        },
        faults: FaultConfig {
            seed: 12,
            batch_panic_ppm: 1_000_000,
            ..FaultConfig::disabled()
        },
        ..base_config()
    };
    let (server, train) = chaos_server(config);

    // Phase 1: trip it.
    for plan in train.plans.iter().take(20) {
        let pred = server.predict(&plan.tree).unwrap();
        assert!(pred.degraded);
    }
    assert_eq!(server.breaker_state(), Some(BreakerState::Open));

    // Phase 2: the fault clears; probes must re-close the breaker and
    // traffic must return to real model answers.
    server.fault_injector().set_enabled(false);
    let mut healthy = 0u32;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(1));
        for plan in train.plans.iter().take(4) {
            let pred = server.predict(&plan.tree).unwrap();
            if !pred.degraded {
                healthy += 1;
            }
        }
        if server.breaker_state() == Some(BreakerState::Closed) && healthy > 0 {
            break;
        }
    }
    assert_eq!(
        server.breaker_state(),
        Some(BreakerState::Closed),
        "breaker must recover after the fault clears"
    );
    assert!(healthy > 0, "model answers must resume");
    let snap = server.metrics_snapshot();
    assert!(snap.breaker_opened >= 1 && snap.breaker_closed >= 1);
    server.shutdown();
}

#[test]
fn worker_kills_are_respawned_and_no_request_is_lost() {
    let config = ServeConfig {
        faults: FaultConfig {
            seed: 13,
            worker_kill_ppm: 200_000, // ~20% of drains kill the worker
            ..FaultConfig::disabled()
        },
        ..base_config()
    };
    let (server, train) = chaos_server(config);
    let mut answered = 0u32;
    for round in 0..10 {
        for plan in train.plans.iter().take(20) {
            let pred = server
                .predict_with(&plan.tree, None, None)
                .expect("kills must never lose a request");
            assert!(pred.ms.is_finite());
            answered += 1;
        }
        // Give the supervisor air between bursts.
        if round % 3 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert_eq!(answered, 200);
    let snap = server.metrics_snapshot();
    assert!(
        snap.worker_panics > 0,
        "20% kill rate over 200 requests must have fired (snapshot: {snap})"
    );
    assert!(snap.worker_restarts > 0, "supervisor must respawn workers");
    assert_eq!(snap.pool_exhausted, 0, "the pool must never die");
    assert_eq!(snap.completed, 200);
    server.shutdown();
}

#[test]
fn stalls_and_delays_slow_but_never_break_service() {
    let config = ServeConfig {
        faults: FaultConfig {
            seed: 14,
            stage_delay_ppm: 300_000,
            stage_delay: Duration::from_millis(1),
            queue_stall_ppm: 300_000,
            queue_stall: Duration::from_millis(1),
            ..FaultConfig::disabled()
        },
        ..base_config()
    };
    let (server, train) = chaos_server(config);
    for plan in train.plans.iter().take(60) {
        let pred = server.predict(&plan.tree).unwrap();
        assert!(!pred.degraded, "latency faults are not errors");
        assert!(pred.ms.is_finite());
    }
    let snap = server.metrics_snapshot();
    assert_eq!(snap.completed, 60);
    assert_eq!(snap.degraded, 0);
    server.shutdown();
}

#[test]
fn hostile_plans_are_rejected_at_admission_not_served() {
    let (server, _train) = chaos_server(base_config());

    // NaN cost.
    let mut b = TreeBuilder::new();
    let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
    node.est_cost = f64::NAN;
    let root = b.leaf(node);
    let tree = b.finish(root);
    match server.predict(&tree) {
        Err(ServeError::InvalidPlan(PlanValidationError::NonFiniteCost { .. })) => {}
        other => panic!("NaN cost must be rejected as InvalidPlan, got {other:?}"),
    }

    // Infinite cardinality.
    let mut b = TreeBuilder::new();
    let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
    node.est_rows = f64::INFINITY;
    let root = b.leaf(node);
    let tree = b.finish(root);
    match server.predict(&tree) {
        Err(ServeError::InvalidPlan(PlanValidationError::NonFiniteRows { .. })) => {}
        other => panic!("Inf rows must be rejected as InvalidPlan, got {other:?}"),
    }

    // Absurdly deep chain.
    let mut b = TreeBuilder::new();
    let mut child = b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other));
    for _ in 0..40 {
        child = b.internal(
            PlanNode::new(NodeType::Materialize, OpPayload::Other),
            &[child],
        );
    }
    let tree = b.finish(child);
    let shallow = ServeConfig {
        max_plan_depth: 16,
        ..base_config()
    };
    let (strict_server, _) = chaos_server(shallow);
    match strict_server.predict(&tree) {
        Err(ServeError::InvalidPlan(PlanValidationError::TooDeep { .. })) => {}
        other => panic!("over-deep plan must be rejected, got {other:?}"),
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.invalid_plan, 2);
    assert_eq!(snap.submitted, 0, "rejected plans never enter the queue");
    server.shutdown();
    strict_server.shutdown();
}

#[test]
fn without_a_fallback_panics_fail_typed_not_crashed() {
    silence_injected_panics();
    let (est, train) = common::quick_estimator(9);
    let registry = Arc::new(ModelRegistry::new(est));
    let config = ServeConfig {
        faults: FaultConfig {
            seed: 15,
            batch_panic_ppm: 1_000_000,
            ..FaultConfig::disabled()
        },
        ..base_config()
    };
    let server = DaceServer::new(registry, config);
    for plan in train.plans.iter().take(10) {
        match server.predict(&plan.tree) {
            Err(ServeError::Internal) => {}
            other => panic!("expected typed Internal error, got {other:?}"),
        }
    }
    let snap = server.metrics_snapshot();
    assert!(snap.batch_panics > 0);
    assert_eq!(snap.completed, 0);
    assert_eq!(snap.degraded, 0);
    assert_eq!(server.breaker_state(), None);
    server.shutdown();
}

#[test]
fn combined_fault_storm_stays_available() {
    let config = ServeConfig {
        faults: FaultConfig {
            seed: 16,
            worker_kill_ppm: 50_000,
            batch_panic_ppm: 50_000,
            stage_delay_ppm: 20_000,
            stage_delay: Duration::from_micros(500),
            queue_stall_ppm: 20_000,
            queue_stall: Duration::from_micros(500),
            ..FaultConfig::disabled()
        },
        ..base_config()
    };
    let (server, train) = chaos_server(config);
    let mut completed = 0u64;
    for plan in train.plans.iter().cycle().take(300) {
        if server.predict(&plan.tree).is_ok() {
            completed += 1;
        }
    }
    assert_eq!(completed, 300, "closed-loop chaos traffic is never dropped");
    let snap = server.metrics_snapshot();
    assert!(
        snap.availability() >= 0.99,
        "availability: {}",
        snap.availability()
    );
    assert_eq!(snap.pool_exhausted, 0);
    assert!(snap.degraded <= snap.completed);
    server.shutdown();
}

/// The seeded chaos plan (seed 3405: 1% worker kills, 1% batch panics,
/// 0.5% checkpoint corruption) under 8 closed-loop clients × 20 requests,
/// while a background checkpointer cycles the live base model through
/// save → maybe-corrupt → `swap_base_from_checkpoint`. Every request is
/// answered, degraded answers are flagged exactly as counted, the pool
/// never dies, and a corrupted checkpoint is always rejected.
#[test]
fn seeded_fault_plan_with_checkpoint_reloads_stays_available() {
    silence_injected_panics();
    let (est, train) = common::quick_estimator(7);
    let fallback = Box::new(CostLinearFallback::fit(&train));
    let registry = Arc::new(common::registry_with_tenant_adapter(est, &train));
    let config = ServeConfig {
        default_deadline: None,
        faults: FaultConfig {
            seed: 3405,
            worker_kill_ppm: 10_000,
            batch_panic_ppm: 10_000,
            checkpoint_corrupt_ppm: 5_000,
            ..FaultConfig::disabled()
        },
        ..ServeConfig::default()
    };
    let server = DaceServer::with_fallback(Arc::clone(&registry), config, fallback);
    let injector = server.fault_injector();
    let dir = std::env::temp_dir().join(format!("dace-chaos-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("base.ckpt");

    // One checkpoint cycle; returns whether the reload was accepted. A
    // rejected reload must leave the registry on its last good version,
    // which the concurrent traffic relies on.
    let cycle = |force_corrupt: bool| {
        let base = registry.base();
        dace_core::save_checkpoint(&path, &base.estimator).unwrap();
        if force_corrupt || injector.should_fire(FaultSite::CheckpointCorrupt) {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x04;
            std::fs::write(&path, &bytes).unwrap();
        }
        registry.swap_base_from_checkpoint(&path).is_ok()
    };
    let stop = AtomicBool::new(false);
    let saves = AtomicU64::new(0);
    let (clients, requests) = (8, 20);
    let run = std::thread::scope(|s| {
        s.spawn(|| {
            // Stay well inside the registry's version-slot capacity.
            while !stop.load(Ordering::Acquire) && saves.fetch_add(1, Ordering::Relaxed) < 900 {
                cycle(false);
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let run = common::closed_loop(&server, &common::trees(&train), clients, requests);
        stop.store(true, Ordering::Release);
        run
    });
    assert!(
        !cycle(true),
        "a deliberately corrupted checkpoint was accepted"
    );
    std::fs::remove_dir_all(&dir).ok();

    let snap = server.metrics_snapshot();
    let total = (clients * requests) as u64;
    assert_eq!(run.answered, total, "closed-loop chaos traffic was dropped");
    assert_eq!(snap.completed, total);
    assert!(snap.availability() >= 0.99, "availability: {snap}");
    assert_eq!(snap.pool_exhausted, 0, "the pool must never die");
    assert_eq!(
        run.degraded, snap.degraded,
        "clients saw a different number of degraded answers than were counted"
    );
    server.shutdown();
}
