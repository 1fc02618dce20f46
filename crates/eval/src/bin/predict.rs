//! Load a pre-trained DACE artifact and predict latencies for fresh queries
//! on any suite database — including sub-plan predictions, which a query
//! optimizer would use to compare alternatives.
//!
//! ```text
//! predict --model FILE [--db DB_ID] [--queries N]
//! ```

use dace_core::q_error;
use dace_core::DaceEstimator;
use dace_engine::{collect_dataset, plan_query};
use dace_eval::EvalConfig;
use dace_plan::MachineId;
use dace_query::{render_sql, ComplexWorkloadGen};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut model_path = None;
    let mut db_id: u16 = 0;
    let mut n_queries = 5usize;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        i += 1;
        match flag.as_str() {
            "--model" => model_path = args.get(i).cloned(),
            "--db" => db_id = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(0),
            "--queries" => n_queries = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(5),
            "--help" | "-h" => {
                eprintln!("usage: predict --model FILE [--db DB_ID] [--queries N]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let model_path = model_path.unwrap_or_else(|| {
        eprintln!("error: --model is required (produce one with the `pretrain` binary)");
        std::process::exit(2);
    });
    let json = std::fs::read_to_string(&model_path).expect("cannot read model artifact");
    let est = DaceEstimator::from_json(&json).expect("invalid model artifact");

    let cfg = EvalConfig::default();
    let db = dace_eval::data::suite_db(&cfg, db_id);
    eprintln!(
        "database {} ('{}'), model {} params",
        db_id,
        db.spec.name,
        est.model.base_param_count()
    );
    let queries = ComplexWorkloadGen {
        seed: 0x9_1E57,
        ..Default::default()
    }
    .generate(&db, n_queries);
    let labeled = collect_dataset(&db, &queries, MachineId::M1);

    let mut total_q = 0.0;
    for (q, plan) in queries.iter().zip(&labeled.plans) {
        println!("== {}", render_sql(q, &db.schema));
        let pred = est.predict_ms(&plan.tree);
        let actual = plan.latency_ms();
        let qe = q_error(pred, actual);
        total_q += qe;
        println!("   predicted {pred:.3} ms | actual {actual:.3} ms | qerror {qe:.2}");
        // Sub-plan predictions, DFS order (what plan comparison would use).
        let subs = est.predict_subplans_ms(&plan.tree);
        let phys = plan_query(&db, q).expect("query must plan");
        println!(
            "   sub-plans: {} nodes, predicted root-to-leaf profile: {:?}",
            phys.len(),
            subs.iter()
                .map(|&s| (s * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    println!(
        "\nmean qerror over {} queries: {:.2}",
        queries.len(),
        total_q / queries.len() as f64
    );
}
