//! Plan-search micro-benchmarks: driver overhead over the plain planner,
//! learned-search cost with and without the sub-plan memo, and raw batched
//! scoring throughput through `ScoreSession`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use dace_catalog::{generate_database, suite_specs};
use dace_core::{PlanFeatures, ScoreSession, Tensor2, TrainConfig, Trainer, FEATURE_DIM};
use dace_engine::{collect_dataset, AnalyticScorer, CostModel, LearnedScorer, SearchSession};
use dace_plan::MachineId;
use dace_query::ComplexWorkloadGen;

fn bench_plansearch(c: &mut Criterion) {
    let db = generate_database(&suite_specs()[2], 0.05);
    let cm = CostModel::default();
    let queries = ComplexWorkloadGen::default().generate(&db, 64);
    let data = collect_dataset(
        &db,
        &ComplexWorkloadGen {
            seed: 0xBE7C4,
            ..ComplexWorkloadGen::default()
        }
        .generate(&db, 64),
        MachineId::M1,
    );
    let est = Trainer::new(TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    })
    .fit(&data)
    .expect("bench corpus is non-empty");

    let mut group = c.benchmark_group("plansearch");
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(10);

    // Driver overhead: the search loop with the analytic scorer is the
    // planner's enumeration plus batching bookkeeping, nothing else.
    group.bench_function("analytic_plan", |b| {
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(dace_engine::plan(&db, q, &cm).unwrap());
        })
    });
    group.bench_function("analytic_search", |b| {
        let session = SearchSession::new(&db, &cm);
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(session.plan(q, &mut AnalyticScorer).unwrap());
        })
    });

    // Learned search: every decision level is one batched DACE forward;
    // the memoized variant shares sub-tree scores across queries.
    group.bench_function("learned_search_no_memo", |b| {
        let session = SearchSession::new(&db, &cm);
        let mut scorer = LearnedScorer::new(&est, 0);
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(session.plan(q, &mut scorer).unwrap());
        })
    });
    group.bench_function("learned_search_memo", |b| {
        let session = SearchSession::new(&db, &cm);
        let mut scorer = LearnedScorer::new(&est, 1 << 16);
        let mut i = 0;
        b.iter(|| {
            let q = &queries[i % queries.len()];
            i += 1;
            black_box(session.plan(q, &mut scorer).unwrap());
        })
    });

    // Raw batched scoring: the candidate traffic shape the driver emits
    // (dozens of sub-plans per level), featurized, packed back to back and
    // scored through the session's root-row forward.
    group.bench_function("score_batch_64", |b| {
        let mut session = ScoreSession::new(&est);
        b.iter(|| {
            let feats: Vec<PlanFeatures> = data
                .plans
                .iter()
                .map(|p| est.featurizer.encode(&p.tree))
                .collect();
            let lens: Vec<usize> = feats.iter().map(|f| f.x.rows()).collect();
            let mut rows = Tensor2::zeros(lens.iter().sum(), FEATURE_DIM);
            let mut next = 0;
            for f in &feats {
                rows.set_row_block(next, &f.x);
                next += f.x.rows();
            }
            black_box(session.score_rows_ms(&rows, &lens).len());
        })
    });
    group.finish();
}

criterion_group!(benches, bench_plansearch);
criterion_main!(benches);
