//! Table II as Criterion benchmarks: training and inference throughput of
//! every estimator, plus the DBMS costing path ("PostgreSQL" row).
//!
//! Criterion reports time per iteration; one iteration = one query, so
//! queries/sec = 1 / (reported time). Run with
//! `cargo bench -p dace-bench --bench table2_throughput`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dace_baselines::{CostEstimator, Mscn, QppNet, QueryFormer, TPool, ZeroShot};
use dace_catalog::{generate_database, suite_specs};
use dace_core::{TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_plan::{Dataset, MachineId};
use dace_query::MscnWorkloadGen;

/// Shared corpus: a workload-3-style training slice plus test plans.
fn corpus() -> (dace_catalog::Database, Dataset, Dataset) {
    let db = generate_database(&suite_specs()[0], 0.1);
    let gen = MscnWorkloadGen::default();
    let train_q = gen.gen_train(&db, 256);
    let test_q = gen.gen_train(&db, 64);
    let train = collect_dataset(&db, &train_q, MachineId::M1);
    let test = collect_dataset(&db, &test_q, MachineId::M1);
    (db, train, test)
}

fn bench_inference(c: &mut Criterion) {
    let (db, train, test) = corpus();
    let mut group = c.benchmark_group("inference_per_query");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);

    // PostgreSQL = the optimizer costing path.
    let queries = MscnWorkloadGen::default().gen_train(&db, 64);
    group.bench_function("PostgreSQL(costing)", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(dace_engine::plan_query(&db, q).unwrap());
        })
    });

    // DACE, one plan at a time.
    let dace = Trainer::new(TrainConfig {
        epochs: 2,
        ..Default::default()
    })
    .fit(&train)
    .unwrap();
    group.bench_function("DACE", |b| {
        let mut i = 0;
        b.iter(|| {
            let p = &test.plans[i % test.len()];
            i += 1;
            black_box(dace.predict_ms(&p.tree));
        })
    });

    // DACE batched: the whole test set per iteration, reported per query
    // by scaling measurement (one iter covers test.len() queries).
    let trees: Vec<&dace_plan::PlanTree> = test.plans.iter().map(|p| &p.tree).collect();
    group.bench_function("DACE(batched-set)", |b| {
        b.iter(|| black_box(dace.predict_batch_ms(&trees)))
    });

    // Baselines (trained briefly; inference cost is architecture-bound).
    let mut mscn = Mscn::new(1);
    mscn.epochs = 1;
    let mut qpp = QppNet::new(2);
    qpp.epochs = 1;
    let mut tpool = TPool::new(3);
    tpool.epochs = 1;
    let mut qf = QueryFormer::new(4);
    qf.epochs = 1;
    let mut zs = ZeroShot::new(5);
    zs.epochs = 1;
    let mut models: Vec<Box<dyn CostEstimator>> = vec![
        Box::new(mscn),
        Box::new(qpp),
        Box::new(tpool),
        Box::new(qf),
        Box::new(zs),
    ];
    for m in &mut models {
        m.fit(&train);
    }
    for m in &models {
        group.bench_with_input(BenchmarkId::new("model", m.name()), m, |b, m| {
            let mut i = 0;
            b.iter(|| {
                let p = &test.plans[i % test.len()];
                i += 1;
                black_box(m.predict_ms(&p.tree));
            })
        });
    }
    group.finish();
}

fn bench_training(c: &mut Criterion) {
    let (_, train, _) = corpus();
    let slice = Dataset::from_plans(train.plans[..64.min(train.len())].to_vec());
    let mut group = c.benchmark_group("training_per_64_queries");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);

    // The batched training loop (the production path), one and five
    // epochs: the multi-epoch row shows packing once per fit amortizing.
    group.bench_function("DACE", |b| {
        b.iter(|| {
            black_box(
                Trainer::new(TrainConfig {
                    epochs: 1,
                    ..Default::default()
                })
                .fit(&slice)
                .unwrap(),
            );
        })
    });
    group.bench_function("DACE(5-epoch)", |b| {
        b.iter(|| {
            black_box(
                Trainer::new(TrainConfig {
                    epochs: 5,
                    ..Default::default()
                })
                .fit(&slice)
                .unwrap(),
            );
        })
    });
    group.bench_function("DACE-LoRA(tune)", |b| {
        let mut est = Trainer::new(TrainConfig {
            epochs: 1,
            ..Default::default()
        })
        .fit(&slice)
        .unwrap();
        b.iter(|| est.fine_tune_lora(&slice, 1, 2e-3).unwrap())
    });
    group.bench_function("MSCN", |b| {
        b.iter(|| {
            let mut m = Mscn::new(9);
            m.epochs = 1;
            m.fit(&slice);
            black_box(m.param_count());
        })
    });
    group.bench_function("Zero-Shot", |b| {
        b.iter(|| {
            let mut m = ZeroShot::new(9);
            m.epochs = 1;
            m.fit(&slice);
            black_box(m.param_count());
        })
    });
    group.bench_function("QPPNet", |b| {
        b.iter(|| {
            let mut m = QppNet::new(9);
            m.epochs = 1;
            m.fit(&slice);
            black_box(m.param_count());
        })
    });
    group.bench_function("TPool", |b| {
        b.iter(|| {
            let mut m = TPool::new(9);
            m.epochs = 1;
            m.fit(&slice);
            black_box(m.param_count());
        })
    });
    group.bench_function("QueryFormer", |b| {
        b.iter(|| {
            let mut m = QueryFormer::new(9);
            m.epochs = 1;
            m.fit(&slice);
            black_box(m.param_count());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_inference, bench_training);
criterion_main!(benches);
