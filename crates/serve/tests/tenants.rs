//! Multi-tenant isolation suite: identity hygiene at admission, quota and
//! in-flight accounting, weighted-fair lane isolation, per-tenant
//! breakers, adapter paging with zero-shot cold starts, and the
//! bounded-cardinality per-tenant metrics exposition.

mod common;

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use dace_core::save_checkpoint;
use dace_plan::PlanTree;
use dace_serve::{
    validate_tenant_id, BreakerConfig, BreakerState, CostLinearFallback, DaceServer, FaultConfig,
    HealthConfig, LifecycleEvent, ModelRegistry, PagerConfig, ServeConfig, ServeError,
    TenantConfig, FALLBACK_VERSION,
};
use proptest::prelude::*;

fn tenant_config(shards: usize, workers: usize) -> ServeConfig {
    ServeConfig {
        shards,
        workers,
        max_batch: 8,
        max_wait: Duration::from_micros(100),
        min_fill: 1,
        ..ServeConfig::default()
    }
}

fn snapshot_for(server: &DaceServer, tenant: &str) -> dace_serve::TenantSnapshot {
    server
        .tenant_snapshot()
        .into_iter()
        .find(|s| s.tenant == tenant)
        .unwrap_or_else(|| panic!("tenant {tenant} missing from snapshot"))
}

/// Tokens are charged exactly once at admission and refunded only when
/// the request never made it into a lane: at quiescence every tenant
/// satisfies `tokens_charged - tokens_refunded == submitted`, across
/// full-lane sheds, quota rejections, and in-flight-cap rejections.
#[test]
fn quota_accounting_agrees_across_every_rejection_path() {
    let (est, train) = common::quick_estimator(41);
    // No workers: admission control in isolation, nothing ever drains.
    let config = ServeConfig {
        queue_depth: 2,
        ..tenant_config(1, 0)
    };
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), config);
    let plan = &train.plans[0].tree;

    // alpha: unlimited quota, sheds on its own full lane (cap 2).
    let mut handles = Vec::new();
    for _ in 0..2 {
        handles.push(server.submit_for(Some("alpha"), plan, None, None).unwrap());
    }
    assert!(matches!(
        server.submit_for(Some("alpha"), plan, None, None),
        Err(ServeError::Overloaded)
    ));

    // beta: one-token bucket; the second immediate request is over quota.
    server.set_tenant_quota("beta", 1, 1).unwrap();
    handles.push(server.submit_for(Some("beta"), plan, None, None).unwrap());
    assert!(matches!(
        server.submit_for(Some("beta"), plan, None, None),
        Err(ServeError::QuotaExceeded)
    ));

    // gamma: in-flight cap of one; the queued (never-draining) first
    // request holds the slot, so the second is rejected and refunded.
    server.set_tenant_max_in_flight("gamma", 1).unwrap();
    handles.push(server.submit_for(Some("gamma"), plan, None, None).unwrap());
    assert!(matches!(
        server.submit_for(Some("gamma"), plan, None, None),
        Err(ServeError::QuotaExceeded)
    ));

    // Hostile ids never reach the table at all.
    for bad in ["", "ctrl\u{7}char", "q\"uote", "back\\slash"] {
        assert!(matches!(
            server.submit_for(Some(bad), plan, None, None),
            Err(ServeError::InvalidTenant(_))
        ));
    }
    assert!(server.metrics_snapshot().invalid_tenant >= 4);

    let expect = [
        // (tenant, submitted, shed, quota_rejected, charged, refunded)
        ("alpha", 2, 1, 0, 3, 1),
        ("beta", 1, 0, 1, 1, 0),
        ("gamma", 1, 0, 1, 2, 1),
    ];
    for (tenant, submitted, shed, quota_rejected, charged, refunded) in expect {
        let s = snapshot_for(&server, tenant);
        assert_eq!(
            (s.submitted, s.shed, s.quota_rejected),
            (submitted, shed, quota_rejected),
            "{tenant}: {s:?}"
        );
        assert_eq!(
            (s.tokens_charged, s.tokens_refunded),
            (charged, refunded),
            "{tenant}: {s:?}"
        );
        assert_eq!(
            s.tokens_charged - s.tokens_refunded,
            s.submitted,
            "{tenant} violates the one-token-per-admission invariant: {s:?}"
        );
    }
    assert!(server.metrics_snapshot().quota_rejected >= 2);
    drop(handles);
    server.shutdown();
}

/// A drained bucket refills at its configured rate: a tenant rejected at
/// burst exhaustion is admitted again after waiting out the refill.
#[test]
fn quota_refills_over_time() {
    let (est, train) = common::quick_estimator(42);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), tenant_config(1, 1));
    let plan = &train.plans[0].tree;
    server.set_tenant_quota("tick", 50, 1).unwrap();
    server.predict_for("tick", plan).unwrap();
    assert!(matches!(
        server.submit_for(Some("tick"), plan, None, None),
        Err(ServeError::QuotaExceeded)
    ));
    // 50 rps refills one token in 20 ms; give it a generous margin.
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        match server.submit_for(Some("tick"), plan, None, None) {
            Ok(h) => {
                h.wait().unwrap();
                break;
            }
            Err(ServeError::QuotaExceeded) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("bucket never refilled: {e}"),
        }
    }
    server.shutdown();
}

/// A flooding tenant fills and sheds against only its own lane; a
/// well-behaved tenant arriving into the flood is admitted and answered.
#[test]
fn noisy_tenant_sheds_only_its_own_traffic() {
    let (est, train) = common::quick_estimator(43);
    let config = ServeConfig {
        queue_depth: 8,
        max_batch: 1,
        // Every forward sleeps 2 ms, so the flood cannot drain fast
        // enough to hide the lane bound.
        faults: FaultConfig {
            seed: 9,
            stage_delay_ppm: 1_000_000,
            stage_delay: Duration::from_millis(2),
            ..FaultConfig::disabled()
        },
        ..tenant_config(1, 1)
    };
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), config);
    let plan = &train.plans[0].tree;

    let mut noisy_handles = Vec::new();
    let mut noisy_shed = 0u64;
    for _ in 0..60 {
        match server.submit_for(Some("noisy"), plan, None, None) {
            Ok(h) => noisy_handles.push(h),
            Err(ServeError::Overloaded) => noisy_shed += 1,
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(noisy_shed > 0, "flood must overflow the noisy lane");

    // The polite tenant's lane is empty: every request is admitted and
    // answered despite the standing flood.
    let polite: Vec<_> = (0..6)
        .map(|_| {
            server
                .submit_for(Some("polite"), plan, None, None)
                .expect("polite tenant must never be shed by someone else's flood")
        })
        .collect();
    for h in polite {
        let pred = h.wait().expect("polite request answered");
        assert!(pred.ms.is_finite() && pred.ms > 0.0);
    }
    for h in noisy_handles {
        let _ = h.wait();
    }

    let noisy = snapshot_for(&server, "noisy");
    let polite = snapshot_for(&server, "polite");
    assert_eq!(noisy.shed, noisy_shed);
    assert_eq!(polite.shed, 0, "sheds bled across lanes: {polite:?}");
    assert_eq!(polite.completed, 6);

    // Now give the flooder a 200 rps quota (burst 20) and flood it at 10×
    // that rate while the polite tenant keeps asking: the bucket rejects
    // the excess typed, and the polite tenant is still answered every time.
    server.set_tenant_quota("noisy", 200, 20).unwrap();
    let (mut quota_rejected, mut flood, mut polite) = (0u64, Vec::new(), Vec::new());
    for i in 0..200 {
        match server.submit_for(Some("noisy"), plan, None, None) {
            Ok(h) => flood.push(h),
            Err(ServeError::QuotaExceeded) => quota_rejected += 1,
            Err(ServeError::Overloaded) => {}
            Err(e) => panic!("unexpected admission error: {e}"),
        }
        if i % 10 == 0 {
            polite.push(
                server
                    .submit_for(Some("polite"), plan, None, None)
                    .expect("polite tenant admitted during the quota storm"),
            );
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    for h in polite {
        h.wait()
            .expect("polite request answered during the quota storm");
    }
    for h in flood {
        let _ = h.wait();
    }
    assert!(quota_rejected >= 1, "a 10× flood never tripped the quota");
    assert_eq!(
        snapshot_for(&server, "noisy").quota_rejected,
        quota_rejected
    );
    let polite = snapshot_for(&server, "polite");
    assert_eq!((polite.shed, polite.completed), (0, 26), "{polite:?}");
    server.shutdown();
}

/// One tenant's deadline misses open *its* breaker: its traffic degrades
/// to the fallback while the global breaker stays closed and other
/// tenants keep getting model answers.
#[test]
fn tenant_breaker_opens_without_touching_the_global_one() {
    let (est, train) = common::quick_estimator(44);
    let fallback = Box::new(CostLinearFallback::fit(&train));
    let config = ServeConfig {
        breaker: BreakerConfig {
            window: 8,
            min_samples: 4,
            error_percent: 50,
            // Long enough that the opened breaker cannot slip into
            // half-open mid-test.
            open_cooldown: Duration::from_secs(60),
            probe_successes: 3,
        },
        ..tenant_config(1, 1)
    };
    let server = DaceServer::with_tenancy(
        Arc::new(ModelRegistry::new(est)),
        config,
        Some(fallback),
        HealthConfig::default(),
        None,
    );
    let plan = &train.plans[0].tree;

    // Already-expired deadlines: every one is triaged as a miss against
    // the tenant's own breaker.
    let handles: Vec<_> = (0..12)
        .map(|_| {
            server
                .submit_for(Some("flaky"), plan, None, Some(Duration::from_nanos(1)))
                .unwrap()
        })
        .collect();
    for h in handles {
        let _ = h.wait();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.tenant_breaker_state("flaky") != Some(BreakerState::Open) {
        assert!(Instant::now() < deadline, "tenant breaker never opened");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The flaky tenant is now answered by the fallback, degraded-flagged.
    let pred = server.predict_for("flaky", plan).unwrap();
    assert!(pred.degraded, "open tenant breaker must gate to fallback");
    assert_eq!(pred.version, FALLBACK_VERSION);

    // Isolation: the global breaker never saw the flaky tenant's
    // evidence, and a healthy tenant still gets real model answers.
    assert_eq!(server.breaker_state(), Some(BreakerState::Closed));
    let healthy = server.predict_for("steady", plan).unwrap();
    assert!(!healthy.degraded);
    assert_ne!(healthy.version, FALLBACK_VERSION);
    assert_eq!(
        server.tenant_breaker_state("steady"),
        Some(BreakerState::Closed)
    );

    let flaky = snapshot_for(&server, "flaky");
    assert!(flaky.breaker_opened >= 1, "{flaky:?}");
    assert_eq!(flaky.breaker_state, "open");
    // The transition is journaled with the tenant attached.
    let journaled = server.health().journal().records().iter().any(
        |r| matches!(&r.event, LifecycleEvent::TenantBreakerOpened { tenant, .. } if tenant == "flaky"),
    );
    assert!(journaled, "tenant breaker transition must be journaled");
    server.shutdown();
}

/// Two tenants submitting the identical plan never share a featurization
/// cache entry, and tenant-less traffic keeps its own key space.
#[test]
fn identical_plans_never_share_cache_entries_across_tenants() {
    let (est, train) = common::quick_estimator(45);
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), tenant_config(1, 1));
    let plan = &train.plans[0].tree;
    for tenant in ["t1", "t2", "t3"] {
        server.predict_for(tenant, plan).unwrap();
    }
    server.predict(plan).unwrap();
    let snap = server.metrics_snapshot();
    assert_eq!(
        snap.cache_misses, 4,
        "same plan under 3 tenants + tenant-less must be 4 distinct entries"
    );
    assert_eq!(server.cache_len(), 4);

    // Repeats hit only the submitting tenant's own entry.
    for tenant in ["t1", "t2", "t3"] {
        server.predict_for(tenant, plan).unwrap();
    }
    server.predict(plan).unwrap();
    let snap = server.metrics_snapshot();
    assert_eq!((snap.cache_misses, snap.cache_hits), (4, 4));
    assert_eq!(server.cache_len(), 4, "repeats must not mint new entries");
    let registry = server.registry().clone();
    server.shutdown();

    // At scale: 8 tenants each submit the same 4 plans twice. Every
    // (tenant, plan) pair misses on first sight — a single first-pass hit
    // is cross-tenant bleed — and hits its own entry on the second pass.
    let server = DaceServer::new(registry, tenant_config(1, 1));
    let (tenants, plans) = (8, 4);
    let pass = || {
        for t in 0..tenants {
            for plan in train.plans.iter().take(plans) {
                server.predict_for(&format!("b{t:02}"), &plan.tree).unwrap();
            }
        }
        server.metrics_snapshot()
    };
    let pairs = (tenants * plans) as u64;
    let first = pass();
    assert_eq!((first.cache_misses, first.cache_hits), (pairs, 0));
    let second = pass();
    assert_eq!(second.cache_hits - first.cache_hits, pairs);
    assert_eq!(server.cache_len(), pairs as usize);
    server.shutdown();
}

/// Cold tenants are answered immediately, zero-shot and degraded-flagged,
/// while the pager loads their checkpoint in the background; once
/// resident, answers come from the adapter at full fidelity. Missing and
/// torn checkpoints quarantine, never block, and the hot set stays
/// bounded with LRU eviction.
#[test]
fn adapter_paging_cold_start_quarantine_and_lru() {
    let (est, train) = common::quick_estimator(46);
    let dir = std::env::temp_dir().join(format!("dace-tenant-paging-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for tenant in ["t1", "t2", "t3"] {
        save_checkpoint(&dir.join(format!("{tenant}.ckpt")), &est).unwrap();
    }
    std::fs::write(dir.join("torn.ckpt"), b"not a checkpoint").unwrap();

    let pager_cfg = PagerConfig {
        hot_set: 2,
        retry_cooldown: Duration::from_millis(50),
        ..PagerConfig::new(&dir)
    };
    let server = DaceServer::with_tenancy(
        Arc::new(ModelRegistry::new(est)),
        tenant_config(1, 1),
        None,
        HealthConfig::default(),
        Some(pager_cfg),
    );
    let pager = Arc::clone(server.pager().expect("built with a pager"));
    let plan = &train.plans[0].tree;

    // First sight of t1: answered NOW from the base model, not blocked on
    // the checkpoint read. The stamp is the base's real version (these
    // numbers did come from that snapshot), flagged degraded.
    let cold = server.predict_for("t1", plan).unwrap();
    assert!(cold.degraded, "cold-start answer must be degraded-flagged");
    assert_eq!(cold.version, 0, "zero-shot answers carry the base version");

    let wait_resident = |tenant: &str| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pager.is_resident(tenant) {
            assert!(Instant::now() < deadline, "{tenant} never became resident");
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    wait_resident("t1");
    let warm = server.predict_for("t1", plan).unwrap();
    assert!(!warm.degraded, "resident adapter must serve at full tier");
    assert!(warm.version >= 1, "paged-in adapter gets a fresh version");

    // Missing and torn checkpoints: still answered (degraded), then
    // quarantined — and answered again from quarantine.
    for tenant in ["ghost", "torn"] {
        let pred = server.predict_for(tenant, plan).unwrap();
        assert!(pred.degraded, "{tenant} must be served zero-shot");
        let deadline = Instant::now() + Duration::from_secs(5);
        while !pager.is_failed(tenant) {
            assert!(Instant::now() < deadline, "{tenant} load never failed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let again = server.predict_for(tenant, plan).unwrap();
        assert!(again.degraded, "quarantined {tenant} keeps being answered");
    }

    // Page in past the hot set: the LRU victim is evicted, the bound holds.
    for tenant in ["t2", "t3"] {
        server.predict_for(tenant, plan).unwrap();
        wait_resident(tenant);
    }
    assert!(
        pager.resident_len() <= 2,
        "hot set exceeded its bound: {} resident",
        pager.resident_len()
    );

    let snap = server.metrics_snapshot();
    assert!(snap.cold_start >= 3, "{snap:?}");
    assert!(snap.adapter_loads >= 3, "{snap:?}");
    assert!(snap.adapter_load_failures >= 2, "{snap:?}");
    assert!(snap.adapter_evictions >= 1, "{snap:?}");
    let t1 = snapshot_for(&server, "t1");
    assert!(t1.cold_starts >= 1 && t1.degraded >= 1, "{t1:?}");
    assert_eq!(
        t1.tokens_charged - t1.tokens_refunded,
        t1.submitted,
        "cold-start answers must not charge a second token: {t1:?}"
    );
    let records = server.health().journal().records();
    for kind in ["AdapterLoaded", "AdapterLoadFailed", "AdapterEvicted"] {
        assert!(
            records.iter().any(|r| r.event.kind() == kind),
            "missing {kind} in journal"
        );
    }
    let registry = server.registry().clone();
    server.shutdown();

    // Injected corruption (`AdapterLoadCorrupt` at 100%) on a valid
    // checkpoint: the load fails typed, the tenant quarantines, and it
    // keeps getting degraded answers before and after.
    let config = ServeConfig {
        faults: FaultConfig {
            seed: 46,
            adapter_load_corrupt_ppm: 1_000_000,
            ..FaultConfig::disabled()
        },
        ..tenant_config(1, 1)
    };
    let server = DaceServer::with_tenancy(
        registry,
        config,
        None,
        HealthConfig::default(),
        Some(PagerConfig {
            hot_set: 2,
            retry_cooldown: Duration::from_millis(50),
            ..PagerConfig::new(&dir)
        }),
    );
    let pager = Arc::clone(server.pager().expect("built with a pager"));
    assert!(server.predict_for("t1", plan).unwrap().degraded);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !pager.is_failed("t1") {
        assert!(
            Instant::now() < deadline,
            "injected corruption never failed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(server.predict_for("t1", plan).unwrap().degraded);
    assert!(server.metrics_snapshot().adapter_load_failures >= 1);
    let typed = server.health().journal().records().into_iter().any(|r| {
        matches!(&r.event, LifecycleEvent::AdapterLoadFailed { tenant, reason }
            if tenant == "t1" && reason.contains("injected"))
    });
    assert!(
        typed,
        "injected corruption must be journaled as a load failure"
    );
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The per-tenant exposition is bounded: exactly top-K tenants by traffic
/// get their own series, everyone else folds into `tenant="_other"`, and
/// the whole block round-trips through the text parser with HELP/TYPE.
#[test]
fn tenant_metrics_expose_top_k_exact_plus_other_aggregate() {
    let (est, train) = common::quick_estimator(47);
    let config = ServeConfig {
        tenants: TenantConfig {
            top_k_series: 3,
            ..TenantConfig::default()
        },
        ..tenant_config(1, 1)
    };
    let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), config);
    // t0 submits once, t1 twice, ... t7 eight times: the top-3 by traffic
    // are t7, t6, t5 and `_other` aggregates 1+2+3+4+5 = 15.
    for i in 0..8 {
        let tenant = format!("t{i}");
        for _ in 0..=i {
            server.predict_for(&tenant, &train.plans[i].tree).unwrap();
        }
    }
    let text = server.health().prometheus_text(server.metrics_registry());
    for family in [
        "serve_tenant_submitted_total",
        "serve_tenant_completed_total",
        "serve_tenant_shed_total",
        "serve_tenant_quota_rejected_total",
    ] {
        assert!(text.contains(&format!("# HELP {family} ")), "{family}");
        assert!(text.contains(&format!("# TYPE {family} ")), "{family}");
    }
    let parsed = dace_obs::parse_prometheus_text(&text);
    for (tenant, n) in [("t7", 8.0), ("t6", 7.0), ("t5", 6.0), ("_other", 15.0)] {
        let key = format!("serve_tenant_submitted_total{{tenant=\"{tenant}\"}}");
        assert_eq!(parsed.get(&key).copied(), Some(n), "{key}");
    }
    let series: Vec<_> = parsed
        .keys()
        .filter(|k| k.starts_with("serve_tenant_submitted_total{"))
        .collect();
    assert_eq!(
        series.len(),
        4,
        "cardinality must be top-K + _other, got {series:?}"
    );
    // t0..t4 never appear as their own series.
    for i in 0..5 {
        assert!(
            !parsed.contains_key(&format!("serve_tenant_submitted_total{{tenant=\"t{i}\"}}")),
            "t{i} leaked past the top-K bound"
        );
    }
    server.shutdown();
}

static HOSTILE_SERVER: OnceLock<(DaceServer, PlanTree)> = OnceLock::new();

fn hostile_server() -> &'static (DaceServer, PlanTree) {
    HOSTILE_SERVER.get_or_init(|| {
        let (est, train) = common::quick_estimator(48);
        let config = ServeConfig {
            queue_depth: 1 << 16,
            ..tenant_config(1, 0)
        };
        let server = DaceServer::new(Arc::new(ModelRegistry::new(est)), config);
        (server, train.plans[0].tree.clone())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary-byte tenant ids at a live admission path: never a panic,
    /// and exactly the validator's verdict — valid ids are admitted,
    /// invalid ids bounce with the typed error and never reach the
    /// tenant table or its metric labels.
    #[test]
    fn hostile_tenant_ids_never_panic_or_reach_the_table(
        bytes in proptest::collection::vec(0u8..=255u8, 0..100),
    ) {
        let id = String::from_utf8_lossy(&bytes).into_owned();
        let (server, plan) = hostile_server();
        match server.submit_for(Some(&id), plan, None, None) {
            Ok(_) => prop_assert!(
                validate_tenant_id(&id).is_ok(),
                "admitted an id the validator rejects: {id:?}"
            ),
            Err(ServeError::InvalidTenant(_)) => prop_assert!(
                validate_tenant_id(&id).is_err(),
                "rejected a valid id: {id:?}"
            ),
            Err(e) => prop_assert!(false, "unexpected error for {id:?}: {e}"),
        }
        // Whatever made it in is label-safe by construction: the whole
        // exposition still parses and every label value revalidates.
        let text = server.health().prometheus_text(server.metrics_registry());
        for key in dace_obs::parse_prometheus_text(&text).keys() {
            if let Some(rest) = key.strip_prefix("serve_tenant_") {
                if let Some(value) = rest.split("tenant=\"").nth(1) {
                    let label = value.trim_end_matches("\"}");
                    prop_assert!(
                        validate_tenant_id(label).is_ok(),
                        "polluted label value {label:?} in {key}"
                    );
                }
            }
        }
    }
}
