//! Knowledge integration (Eq. 9): use a pre-trained DACE as an encoder
//! inside MSCN and watch the cold-start problem disappear — DACE-MSCN is
//! accurate with a fraction of the training queries plain MSCN needs.
//!
//! ```text
//! cargo run --release --example pretrained_encoder
//! ```

use dace_baselines::{CostEstimator, Mscn};
use dace_catalog::{generate_database, suite_specs};
use dace_core::q_error;
use dace_core::{TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_plan::{Dataset, MachineId};
use dace_query::{MscnSet, MscnWorkloadGen};

fn median(model: &dyn CostEstimator, ds: &Dataset) -> f64 {
    let mut qs: Vec<f64> = ds
        .plans
        .iter()
        .map(|p| q_error(model.predict_ms(&p.tree), p.latency_ms()))
        .collect();
    qs.sort_by(f64::total_cmp);
    qs[qs.len() / 2]
}

fn main() {
    let specs = suite_specs();

    // Pre-train DACE on three databases that are NOT the IMDB-like target.
    println!("Pre-training the DACE encoder on 3 foreign databases…");
    let gen = dace_query::ComplexWorkloadGen::default();
    let mut pretrain = Dataset::new();
    for spec in &specs[1..4] {
        let db = generate_database(spec, 0.04);
        let queries = gen.generate(&db, 250);
        pretrain.extend(collect_dataset(&db, &queries, MachineId::M1));
    }
    let dace = Trainer::new(TrainConfig {
        epochs: 25,
        ..Default::default()
    })
    .fit(&pretrain)
    .unwrap();

    // Target: the IMDB-like database with the MSCN benchmark.
    let imdb = generate_database(&specs[0], 0.04);
    let mscn_gen = MscnWorkloadGen::default();
    let train_full = collect_dataset(&imdb, &mscn_gen.gen_train(&imdb, 1_000), MachineId::M1);
    let job_light = collect_dataset(
        &imdb,
        &mscn_gen.gen_test(&imdb, MscnSet::JobLight, 70),
        MachineId::M1,
    );

    println!("\nJOB-light median qerror by number of training queries:\n");
    println!("| #queries | MSCN  | DACE-MSCN |");
    println!("|----------|-------|-----------|");
    for n in [50usize, 200, 1_000] {
        let train = Dataset::from_plans(train_full.plans[..n].to_vec());
        let mut plain = Mscn::new(5);
        plain.epochs = 25;
        plain.fit(&train);
        let mut integrated = Mscn::with_encoder(5, dace.clone());
        integrated.epochs = 25;
        integrated.fit(&train);
        println!(
            "| {n:>8} | {:>5.2} | {:>9.2} |",
            median(&plain, &job_light),
            median(&integrated, &job_light)
        );
    }
    println!(
        "\nThe DACE embedding ({} dims) gives MSCN a warm start: with only 50 queries\n\
         it already encodes how plan shape maps to cost — plain MSCN must learn\n\
         everything from scratch.",
        dace_core::ENCODING_DIM
    );
}
