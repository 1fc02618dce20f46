//! Serving-path micro-benchmarks: the per-request costs that bound online
//! throughput. Each piece is benched in isolation so a regression points at
//! the layer that caused it — registry read, cache lookup, fingerprint,
//! featurization, and the end-to-end submit→wait round trip.
//!
//! Run with `cargo bench -p dace-bench --bench serve`. The closed-/open-loop
//! multi-client numbers live in `perfbench` (`BENCHMARK.json`), not here:
//! criterion drives a single thread, which is exactly right for per-request
//! component costs and exactly wrong for contention behavior.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use dace_catalog::{generate_database, suite_specs};
use dace_core::{TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_plan::{MachineId, PlanTree};
use dace_query::ComplexWorkloadGen;
use dace_serve::{DaceServer, ModelRegistry, ServeConfig, ShardedLruCache};

/// Shared fixture: a briefly trained estimator plus a plan pool.
fn fixture() -> (dace_core::DaceEstimator, Vec<PlanTree>) {
    let db = generate_database(&suite_specs()[0], 0.05);
    let gen = ComplexWorkloadGen {
        max_joins: 8,
        ..ComplexWorkloadGen::default()
    };
    let data = collect_dataset(&db, &gen.generate(&db, 96), MachineId::M1);
    let est = Trainer::new(TrainConfig {
        epochs: 1,
        ..Default::default()
    })
    .fit(&data)
    .unwrap();
    let pool = data.plans.into_iter().map(|p| p.tree).collect();
    (est, pool)
}

fn bench_serve(c: &mut Criterion) {
    let (est, pool) = fixture();
    let mut group = c.benchmark_group("serve_path");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(20);

    // Structural fingerprint: computed once per request on the submit path.
    let featurizer = est.featurizer.clone();
    group.bench_function("fingerprint", |b| {
        let mut i = 0;
        b.iter(|| {
            let t = &pool[i % pool.len()];
            i += 1;
            black_box(featurizer.fingerprint(t));
        })
    });

    // Featurization: the cache-miss cost the cache exists to avoid.
    group.bench_function("featurize_encode", |b| {
        let mut i = 0;
        b.iter(|| {
            let t = &pool[i % pool.len()];
            i += 1;
            black_box(featurizer.encode(t));
        })
    });

    // Cache hit: fingerprint → Arc<PlanFeatures> clone out of the LRU.
    let cache: ShardedLruCache<Arc<dace_core::PlanFeatures>> = ShardedLruCache::new(4096);
    let keys: Vec<u64> = pool
        .iter()
        .map(|t| {
            let k = featurizer.fingerprint(t);
            cache.insert(k, Arc::new(featurizer.encode(t)));
            k
        })
        .collect();
    group.bench_function("cache_hit", |b| {
        let mut i = 0;
        b.iter(|| {
            let k = keys[i % keys.len()];
            i += 1;
            black_box(cache.get(k));
        })
    });

    // Registry resolve: the lock-free read every request performs.
    let registry = Arc::new(ModelRegistry::new(est.clone()));
    group.bench_function("registry_resolve", |b| {
        b.iter(|| black_box(registry.resolve(None).unwrap()))
    });

    // End-to-end: submit → scheduler → forward → respond, single in-flight
    // request (max_batch 1 so the drain loop never waits for fill). This is
    // the serve layer's per-request overhead plus one model forward.
    let server = DaceServer::new(
        registry.clone(),
        ServeConfig {
            max_batch: 1,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    group.bench_function("request_roundtrip", |b| {
        let mut i = 0;
        b.iter(|| {
            let t = &pool[i % pool.len()];
            i += 1;
            black_box(server.predict(t).unwrap());
        })
    });
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
