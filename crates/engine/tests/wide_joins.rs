//! Wide-query planning: the greedy fallback beyond the DP relation limit,
//! and executor correctness on long FK chains.

use dace_catalog::{generate_database, suite_specs, SchemaShape};
use dace_engine::{execute, plan_query};
use dace_plan::NodeType;
use dace_query::{JoinEdge, Query};

/// Build the widest connected query the schema supports by walking every
/// FK edge once (a spanning tree of the FK graph).
fn spanning_query(db: &dace_catalog::Database) -> Query {
    let mut tables = vec![dace_catalog::TableId(0)];
    let mut joins = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for e in &db.schema.fks {
            let has_child = tables.contains(&e.child);
            let has_parent = tables.contains(&e.parent);
            if has_child != has_parent {
                tables.push(if has_child { e.parent } else { e.child });
                joins.push(JoinEdge {
                    child: e.child,
                    child_column: e.child_column,
                    parent: e.parent,
                });
                changed = true;
            }
        }
    }
    Query {
        db_id: db.db_id(),
        tables,
        joins,
        predicates: vec![],
        group_by: None,
        aggregates: vec![],
        limit: None,
    }
}

#[test]
fn greedy_planner_handles_many_relations() {
    // geneea_like has 17 tables (Mixed shape) — beyond the DP limit of 9.
    let spec = suite_specs()
        .into_iter()
        .find(|s| s.shape == SchemaShape::Mixed && s.n_tables > 12)
        .expect("suite has a wide mixed schema");
    let db = generate_database(&spec, 0.01);
    let q = spanning_query(&db);
    assert!(q.tables.len() > 9, "query too narrow: {}", q.tables.len());
    assert!(q.is_connected());
    let mut plan = plan_query(&db, &q).unwrap();
    // Every table appears as exactly one scan.
    let mut scan_count = 0;
    count_scans(&plan, &mut scan_count);
    assert_eq!(scan_count, q.tables.len());
    // Executes without panicking and produces a finite count.
    execute(&db, &mut plan);
    assert!(plan.actual_rows.is_finite());
}

fn count_scans(p: &dace_engine::PhysPlan, count: &mut usize) {
    // Bitmap pairs nest a scan under a scan; count only leaf access paths
    // (no children that are themselves scan-typed).
    let is_access = matches!(
        p.node_type(),
        NodeType::SeqScan
            | NodeType::IndexScan
            | NodeType::IndexOnlyScan
            | NodeType::BitmapHeapScan
    );
    if is_access {
        *count += 1;
        return; // don't double-count a BitmapIndexScan child
    }
    for c in p.children() {
        count_scans(c, count);
    }
}

#[test]
fn chain_joins_execute_exactly() {
    // A 3-table chain: grandchild → child → parent with no predicates.
    // The FK executor must keep exactly the non-null chain rows.
    let spec = suite_specs()
        .into_iter()
        .find(|s| s.shape == SchemaShape::Chain)
        .unwrap();
    let db = generate_database(&spec, 0.02);
    // Find two chained edges: child→mid and mid→parent.
    let (e1, e2) = {
        let mut found = None;
        for a in &db.schema.fks {
            for b in &db.schema.fks {
                if a.parent == b.child {
                    found = Some((*a, *b));
                }
            }
        }
        found.expect("chain schema has chained edges")
    };
    let q = Query {
        db_id: db.db_id(),
        tables: vec![e1.child, e1.parent, e2.parent],
        joins: vec![
            JoinEdge {
                child: e1.child,
                child_column: e1.child_column,
                parent: e1.parent,
            },
            JoinEdge {
                child: e2.child,
                child_column: e2.child_column,
                parent: e2.parent,
            },
        ],
        predicates: vec![],
        group_by: None,
        aggregates: vec![],
        limit: None,
    };
    let mut plan = plan_query(&db, &q).unwrap();
    execute(&db, &mut plan);

    // Brute force: count rows of e1.child whose FK is non-null and whose
    // referenced mid-row's FK is non-null (PKs are dense, so every non-null
    // FK matches).
    let fk1 = db.column_data(dace_catalog::ColumnId::new(e1.child, e1.child_column));
    let fk2 = db.column_data(dace_catalog::ColumnId::new(e2.child, e2.child_column));
    let expected = fk1
        .iter()
        .filter(|&&v| v != dace_catalog::NULL_CODE && fk2[v as usize] != dace_catalog::NULL_CODE)
        .count();
    assert_eq!(plan.actual_rows as usize, expected);
}
