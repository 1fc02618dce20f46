//! Quickstart: train a small DACE on two synthetic databases and predict
//! latencies on a third database it has never seen.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dace_catalog::{generate_database, suite_specs};
use dace_core::q_error;
use dace_core::{TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_plan::{Dataset, MachineId};
use dace_query::ComplexWorkloadGen;

fn main() {
    // 1. Build two training databases and one unseen test database.
    let specs = suite_specs();
    println!("Generating databases…");
    let train_dbs = [
        generate_database(&specs[2], 0.04),
        generate_database(&specs[3], 0.04),
    ];
    let test_db = generate_database(&specs[4], 0.04);

    // 2. Collect labeled plans: plan → execute → time, exactly what
    //    `EXPLAIN ANALYZE` harvesting does in the paper.
    let gen = ComplexWorkloadGen::default();
    let mut train = Dataset::new();
    for db in &train_dbs {
        let queries = gen.generate(db, 300);
        train.extend(collect_dataset(db, &queries, MachineId::M1));
        println!("  collected {} plans from {}", 300, db.spec.name);
    }

    // 3. Train DACE.
    println!("Training DACE on {} plans…", train.len());
    let est = Trainer::new(TrainConfig {
        epochs: 25,
        ..Default::default()
    })
    .fit(&train)
    .unwrap();
    println!(
        "  model size: {:.3} MB ({} parameters)",
        est.model.size_mb(),
        est.model.base_param_count()
    );

    // 4. Zero-shot predictions on the unseen database.
    let test_queries = gen.generate(&test_db, 100);
    let test = collect_dataset(&test_db, &test_queries, MachineId::M1);
    let mut qs: Vec<f64> = test
        .plans
        .iter()
        .map(|p| q_error(est.predict_ms(&p.tree), p.latency_ms()))
        .collect();
    qs.sort_by(f64::total_cmp);
    println!(
        "\nZero-shot on unseen database '{}' ({} queries):",
        test_db.spec.name,
        test.len()
    );
    println!("  median qerror: {:.2}", qs[qs.len() / 2]);
    println!("  p95 qerror:    {:.2}", qs[(qs.len() * 95) / 100]);

    // 5. Peek at one prediction.
    let sample = &test.plans[0];
    println!(
        "\nSample plan — predicted {:.2} ms, actual {:.2} ms:\n{}",
        est.predict_ms(&sample.tree),
        sample.latency_ms(),
        dace_plan::explain_tree(&sample.tree)
    );
}
