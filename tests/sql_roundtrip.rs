//! SQL text as the source of truth: parse a handwritten query, run it
//! through the whole engine, and check the results agree with the
//! structured-query path.

use dace_catalog::{generate_database, suite_specs};
use dace_engine::{execute, plan_query};
use dace_plan::Dataset;
use dace_query::{parse_sql, render_sql, ComplexWorkloadGen};

#[test]
fn parsed_queries_plan_and_execute_identically() {
    let db = generate_database(&suite_specs()[8], 0.03);
    let queries = ComplexWorkloadGen {
        max_joins: 3,
        max_predicates: 2,
        agg_prob: 0.4,
        seed: 31,
    }
    .generate(&db, 40);
    for q in &queries {
        let sql = render_sql(q, &db.schema);
        let parsed = parse_sql(&sql, &db.schema, q.db_id).expect("round-trip parse");
        let mut direct = plan_query(&db, q).unwrap();
        let mut via_sql = plan_query(&db, &parsed).unwrap();
        execute(&db, &mut direct);
        execute(&db, &mut via_sql);
        // Identical logical queries ⇒ identical plans and identical counts.
        assert_eq!(direct.node_type(), via_sql.node_type(), "sql: {sql}");
        assert_eq!(direct.est_cost(), via_sql.est_cost(), "sql: {sql}");
        assert_eq!(direct.actual_rows, via_sql.actual_rows, "sql: {sql}");
        assert_eq!(direct.len(), via_sql.len(), "sql: {sql}");
    }
}

#[test]
fn dataset_serde_roundtrip() {
    let db = generate_database(&suite_specs()[8], 0.02);
    let queries = ComplexWorkloadGen::default().generate(&db, 10);
    let ds = dace_engine::collect_dataset(&db, &queries, dace_plan::MachineId::M1);
    let json = serde_json::to_string(&ds).unwrap();
    let back: Dataset = serde_json::from_str(&json).unwrap();
    assert_eq!(ds.len(), back.len());
    // Floats can shift by one ULP through the text encoding; a second
    // serialization is the fixed point, so compare at that level.
    let json2 = serde_json::to_string(&back).unwrap();
    let back2: Dataset = serde_json::from_str(&json2).unwrap();
    for ((a, b), c) in back.plans.iter().zip(&back2.plans).zip(&ds.plans) {
        assert_eq!(a, b, "serialization is not a fixed point");
        assert_eq!(a.db_id, c.db_id);
        assert_eq!(a.tree.len(), c.tree.len());
        assert!((a.latency_ms() - c.latency_ms()).abs() < 1e-9);
    }
}
