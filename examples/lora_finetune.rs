//! Across-more (Drift V): pre-train DACE on machine M1, then adapt it to
//! machine M2 with LoRA — training only the low-rank adapters ΔW = B·A
//! (Eq. 8 of the paper) at a fraction of the cost of retraining.
//!
//! ```text
//! cargo run --release --example lora_finetune
//! ```

use std::time::Instant;

use dace_catalog::{generate_database, suite_specs};
use dace_core::q_error;
use dace_core::{TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_plan::{Dataset, MachineId};
use dace_query::ComplexWorkloadGen;

fn median_qerror(est: &dace_core::DaceEstimator, ds: &Dataset) -> f64 {
    let mut qs: Vec<f64> = ds
        .plans
        .iter()
        .map(|p| q_error(est.predict_ms(&p.tree), p.latency_ms()))
        .collect();
    qs.sort_by(f64::total_cmp);
    qs[qs.len() / 2]
}

fn main() {
    let specs = suite_specs();
    let gen = ComplexWorkloadGen::default();

    // Workload 1: labels collected on M1 across four databases.
    // Workload 2: the same query statements executed on M2.
    println!("Collecting workloads on machines M1 and M2…");
    let mut wl1 = Dataset::new();
    let mut wl2 = Dataset::new();
    for spec in specs.iter().take(4) {
        let db = generate_database(spec, 0.04);
        let queries = gen.generate(&db, 250);
        wl1.extend(collect_dataset(&db, &queries, MachineId::M1));
        wl2.extend(collect_dataset(&db, &queries, MachineId::M2));
    }
    let (train1, test1) = wl1.split(0.2);
    let (train2, test2) = wl2.split(0.2);

    // Pre-train on M1.
    println!("Pre-training DACE on workload 1 ({} plans)…", train1.len());
    let t0 = Instant::now();
    let mut est = Trainer::new(TrainConfig {
        epochs: 25,
        ..Default::default()
    })
    .fit(&train1)
    .unwrap();
    let pretrain_secs = t0.elapsed().as_secs_f64();

    println!(
        "  M1 test median qerror: {:.2}",
        median_qerror(&est, &test1)
    );
    let before_m2 = median_qerror(&est, &test2);
    println!("  M2 test median qerror BEFORE adaptation: {before_m2:.2}");

    // LoRA fine-tune on M2 labels: only ΔW trains, W stays frozen.
    println!(
        "\nLoRA fine-tuning on workload 2 ({} plans, {} adapter params of {} total)…",
        train2.len(),
        est.model.lora_param_count(),
        est.model.base_param_count() + est.model.lora_param_count()
    );
    let t1 = Instant::now();
    est.fine_tune_lora(&train2, 12, 2e-3).unwrap();
    let tune_secs = t1.elapsed().as_secs_f64();

    let after_m2 = median_qerror(&est, &test2);
    println!("  M2 test median qerror AFTER adaptation:  {after_m2:.2}");
    println!(
        "\nPre-training took {pretrain_secs:.1}s; LoRA tuning took {tune_secs:.1}s ({:.1}× cheaper per epoch-plan).",
        (pretrain_secs / 25.0) / (tune_secs / 12.0) * (train1.len() as f64 / train2.len() as f64)
    );
    assert!(
        after_m2 <= before_m2,
        "fine-tuning should not hurt M2 accuracy"
    );
}
