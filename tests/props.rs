//! Property tests across the whole pipeline: random queries against a fixed
//! database must produce well-formed plans, exact executor semantics and
//! consistent labels.

use dace_catalog::{generate_database, suite_specs, ColumnId, Database, TableId, NULL_CODE};
use dace_core::q_error;
use dace_engine::{execute, label_query, plan_query};
use dace_plan::{CmpOp, MachineId};
use dace_query::{JoinEdge, Predicate, Query};
use proptest::prelude::*;

fn test_db() -> &'static Database {
    use std::sync::OnceLock;
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| generate_database(&suite_specs()[2], 0.05))
}

/// Strategy: a random single-table query with 0–2 predicates.
fn scan_query(db: &Database) -> impl Strategy<Value = Query> {
    let n_tables = db.schema.tables.len() as u32;
    (
        0..n_tables,
        proptest::collection::vec(
            (
                0u32..6,
                0.0f64..1.0,
                prop_oneof![
                    Just(CmpOp::Eq),
                    Just(CmpOp::Lt),
                    Just(CmpOp::Gt),
                    Just(CmpOp::Le),
                    Just(CmpOp::Ge)
                ],
            ),
            0..3,
        ),
    )
        .prop_map(move |(t, raw_preds)| {
            let db = test_db();
            let table = TableId(t);
            let n_cols = db.schema.table(table).columns.len() as u32;
            let predicates = raw_preds
                .into_iter()
                .map(|(c, rank, op)| {
                    let column = ColumnId::new(table, c % n_cols);
                    let v = db.column_stats(column).value_at_rank(rank);
                    Predicate {
                        column,
                        op,
                        values: vec![v],
                    }
                })
                .collect();
            Query {
                db_id: db.db_id(),
                tables: vec![table],
                joins: vec![],
                predicates,
                group_by: None,
                aggregates: vec![],
                limit: None,
            }
        })
}

/// Strategy: a random 2-table FK join query.
fn join_query(db: &Database) -> impl Strategy<Value = Query> {
    let n_fks = db.schema.fks.len();
    (0..n_fks, 0.0f64..1.0).prop_map(move |(fk_idx, rank)| {
        let db = test_db();
        let fk = db.schema.fks[fk_idx];
        let edge = JoinEdge {
            child: fk.child,
            child_column: fk.child_column,
            parent: fk.parent,
        };
        // One range predicate on the parent PK.
        let column = ColumnId::new(fk.parent, 0);
        let v = db.column_stats(column).value_at_rank(rank);
        Query {
            db_id: db.db_id(),
            tables: vec![fk.child, fk.parent],
            joins: vec![edge],
            predicates: vec![Predicate {
                column,
                op: CmpOp::Le,
                values: vec![v],
            }],
            group_by: None,
            aggregates: vec![],
            limit: None,
        }
    })
}

/// Brute-force row count of a single-table query.
fn brute_scan_count(db: &Database, q: &Query) -> usize {
    let t = q.tables[0];
    (0..db.table_data(t).rows())
        .filter(|&r| {
            q.predicates.iter().all(|p| {
                let v = db.column_data(p.column)[r];
                if v == NULL_CODE {
                    return false;
                }
                match p.op {
                    CmpOp::Eq => v == p.values[0],
                    CmpOp::Lt => v < p.values[0],
                    CmpOp::Gt => v > p.values[0],
                    CmpOp::Le => v <= p.values[0],
                    CmpOp::Ge => v >= p.values[0],
                    _ => unreachable!("strategy only emits scalar comparisons"),
                }
            })
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scan_execution_is_exact(q in scan_query(test_db())) {
        let db = test_db();
        let mut plan = plan_query(db, &q).unwrap();
        execute(db, &mut plan);
        prop_assert_eq!(plan.actual_rows as usize, brute_scan_count(db, &q));
    }

    #[test]
    fn join_output_bounded_by_child_side(q in join_query(test_db())) {
        let db = test_db();
        let mut plan = plan_query(db, &q).unwrap();
        execute(db, &mut plan);
        // FK (N:1) join output can never exceed the child table's rows.
        let child_rows = db.table_data(q.joins[0].child).rows() as f64;
        prop_assert!(plan.actual_rows <= child_rows + 0.5);
    }

    #[test]
    fn estimates_positive_and_labels_consistent(q in join_query(test_db())) {
        let db = test_db();
        let labeled = label_query(db, &q, MachineId::M1, 7).unwrap();
        let tree = &labeled.tree;
        prop_assert!(labeled.latency_ms() > 0.0);
        for id in tree.ids() {
            let node = tree.node(id);
            prop_assert!(node.est_rows >= 1.0);
            prop_assert!(node.est_cost > 0.0);
            // Cumulative time: parent ≥ each child (Limit/Gather excluded —
            // this corpus has neither).
            for &c in &node.children {
                prop_assert!(node.actual_ms >= tree.node(c).actual_ms * 0.99);
            }
        }
    }

    #[test]
    fn labeling_is_deterministic(q in join_query(test_db()), seed in 0u64..1000) {
        let db = test_db();
        let a = label_query(db, &q, MachineId::M2, seed).unwrap();
        let b = label_query(db, &q, MachineId::M2, seed).unwrap();
        prop_assert_eq!(a.tree, b.tree);
    }

    #[test]
    fn qerror_properties(est in 1e-6f64..1e6, actual in 1e-6f64..1e6) {
        let q = q_error(est, actual);
        prop_assert!(q >= 1.0);
        let sym = q_error(actual, est);
        prop_assert!((q - sym).abs() < 1e-9 * q);
        // Scale invariance.
        let scaled = q_error(est * 7.0, actual * 7.0);
        prop_assert!((q - scaled).abs() < 1e-6 * q);
    }
}
