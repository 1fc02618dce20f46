//! The headline behaviours, end to end at small scale: zero-shot transfer
//! to an unseen database, LoRA adaptation to a new machine, and knowledge
//! integration into a within-database model.

use dace_baselines::{CostEstimator, Mscn};
use dace_catalog::{generate_database, suite_specs};
use dace_core::q_error;
use dace_core::{TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_plan::{Dataset, MachineId};
use dace_query::ComplexWorkloadGen;

fn collect(db_idx: usize, n: usize, machine: MachineId) -> Dataset {
    let db = generate_database(&suite_specs()[db_idx], 0.05);
    let queries = ComplexWorkloadGen::default().generate(&db, n);
    collect_dataset(&db, &queries, machine)
}

fn median_q(est: &dace_core::DaceEstimator, ds: &Dataset) -> f64 {
    let mut qs: Vec<f64> = ds
        .plans
        .iter()
        .map(|p| q_error(est.predict_ms(&p.tree), p.latency_ms()))
        .collect();
    qs.sort_by(f64::total_cmp);
    qs[qs.len() / 2]
}

#[test]
fn dace_transfers_to_an_unseen_database() {
    let mut train = Dataset::new();
    for idx in [2usize, 3, 5, 8] {
        train.extend(collect(idx, 150, MachineId::M1));
    }
    let test = collect(9, 100, MachineId::M1);
    let est = Trainer::new(TrainConfig {
        epochs: 20,
        ..Default::default()
    })
    .fit(&train)
    .unwrap();
    let q = median_q(&est, &test);
    assert!(
        q < 2.0,
        "zero-shot median qerror on unseen database too high: {q}"
    );
}

#[test]
fn lora_adapts_to_the_other_machine() {
    // Pre-train on M1 over several databases, adapt on the same databases'
    // M2 labels (the paper's workload-2 protocol), test on an unseen
    // database's M2 labels.
    let mut train_m1 = Dataset::new();
    let mut adapt_m2 = Dataset::new();
    for idx in [4usize, 7, 11, 13] {
        train_m1.extend(collect(idx, 200, MachineId::M1));
        adapt_m2.extend(collect(idx, 200, MachineId::M2));
    }
    let test_m2 = collect(10, 100, MachineId::M2);

    let mut est = Trainer::new(TrainConfig {
        epochs: 20,
        ..Default::default()
    })
    .fit(&train_m1)
    .unwrap();
    let before = median_q(&est, &test_m2);
    est.fine_tune_lora(&adapt_m2, 10, 2e-3).unwrap();
    let after = median_q(&est, &test_m2);
    assert!(
        after < before * 1.05,
        "LoRA adaptation regressed: {before} -> {after}"
    );
    assert!(after < 2.2, "adapted qerror too high: {after}");
}

#[test]
fn dace_encoder_warm_starts_mscn() {
    // Pre-train DACE away from the target database.
    let mut pretrain = Dataset::new();
    for idx in [1usize, 2, 3] {
        pretrain.extend(collect(idx, 150, MachineId::M1));
    }
    let dace = Trainer::new(TrainConfig {
        epochs: 20,
        ..Default::default()
    })
    .fit(&pretrain)
    .unwrap();

    // Tiny within-database training budget (cold start).
    let target_train = collect(0, 60, MachineId::M1);
    let target_test = collect(0, 400, MachineId::M1);
    let target_test = Dataset::from_plans(target_test.plans[300..].to_vec());

    let eval = |m: &dyn CostEstimator| {
        let mut qs: Vec<f64> = target_test
            .plans
            .iter()
            .map(|p| q_error(m.predict_ms(&p.tree), p.latency_ms()))
            .collect();
        qs.sort_by(f64::total_cmp);
        qs[qs.len() / 2]
    };

    let mut plain = Mscn::new(3);
    plain.epochs = 20;
    plain.fit(&target_train);
    let mut integrated = Mscn::with_encoder(3, dace);
    integrated.epochs = 20;
    integrated.fit(&target_train);

    let q_plain = eval(&plain);
    let q_integrated = eval(&integrated);
    assert!(
        q_integrated < q_plain * 1.2,
        "knowledge integration should not hurt: {q_plain} vs {q_integrated}"
    );
    assert!(
        q_integrated < 3.0,
        "integrated model too inaccurate: {q_integrated}"
    );
}

#[test]
fn model_size_ordering_matches_table2() {
    use dace_baselines::{QppNet, QueryFormer, TPool, ZeroShot};
    let dace_params = dace_core::DaceModel::new(0).base_param_count();
    let models: Vec<(usize, &str)> = vec![
        (Mscn::new(0).param_count(), "MSCN"),
        (QppNet::new(0).param_count(), "QPPNet"),
        (TPool::new(0).param_count(), "TPool"),
        (QueryFormer::new(0).param_count(), "QueryFormer"),
        (ZeroShot::new(0).param_count(), "Zero-Shot"),
    ];
    for (params, name) in &models {
        assert!(
            *params > dace_params * 5,
            "{name} ({params}) should dwarf DACE ({dace_params})"
        );
    }
    // QueryFormer is the largest (Table II).
    let qf = QueryFormer::new(0).param_count();
    assert!(models.iter().all(|(p, _)| *p <= qf));
}
