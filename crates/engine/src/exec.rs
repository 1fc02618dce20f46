//! Columnar plan execution: computes the *actual* cardinality of every plan
//! node by really evaluating predicates and joins over the generated data.
//!
//! Physical operator choice does not change results, so all joins execute as
//! hash joins internally; the physical node types still determine the
//! latency synthesis in [`crate::latency`]. Inner-side nodes of index nested
//! loops report total rows fetched across all loops (PostgreSQL's
//! `rows × nloops`).
//!
//! Sub-plans are shared between plans ([`PhysPlan`] children are `Arc`s):
//! every write goes through [`Arc::make_mut`], so executing a plan unshares
//! the nodes it fills in and leaves every other holder of them untouched.

use std::collections::HashMap;
use std::sync::Arc;

use dace_catalog::{ColumnId, Database, TableId, NULL_CODE};
use dace_obs::span;
use dace_plan::CmpOp;
use dace_query::{JoinEdge, Predicate};

use crate::planner::{ExecOp, PhysPlan};

/// Execute `plan` against `db`, filling `actual_rows` on every node.
/// Children shared with other plans are copied on write first.
pub fn execute(db: &Database, plan: &mut PhysPlan) {
    let _ = run(db, plan);
}

/// An intermediate result: for each member table, the base-table row id of
/// every output row. `rowids[i][r]` is the row of `tables[i]` contributing
/// to output row `r`.
#[derive(Debug, Clone)]
struct Intermediate {
    tables: Vec<TableId>,
    rowids: Vec<Vec<u32>>,
}

impl Intermediate {
    fn rows(&self) -> usize {
        self.rowids.first().map_or(0, |c| c.len())
    }

    fn table_pos(&self, t: TableId) -> Option<usize> {
        self.tables.iter().position(|&x| x == t)
    }
}

fn run(db: &Database, plan: &mut PhysPlan) -> Intermediate {
    let exec = Arc::clone(&plan.exec);
    let result = match &*exec {
        ExecOp::Scan { table, predicates } => {
            // Bitmap pairs nest a Scan under a Scan; execute the index child
            // for its own count, then compute this node's result directly.
            for c in plan.children_mut() {
                let _ = run(db, Arc::make_mut(c));
            }
            let _span = span!("exec_scan");
            scan(db, *table, predicates)
        }
        ExecOp::Join { edge } => {
            debug_assert_eq!(plan.children().len(), 2);
            let nested_loop = plan.node_type() == dace_plan::NodeType::NestedLoop;
            let mut it = plan.children_mut().iter_mut().map(Arc::make_mut);
            let left = it.next().unwrap();
            let right = it.next().unwrap();
            let l = run(db, left);
            let r = run(db, right);
            let _span = span!("exec_join");
            let out = hash_join(db, l, r, *edge);
            // Inner index scans of a nested loop report total fetched rows
            // across all probes.
            if nested_loop && right.node_type() == dace_plan::NodeType::IndexScan {
                right.actual_rows = out.rows() as f64;
            }
            out
        }
        ExecOp::PassThrough => run(db, Arc::make_mut(&mut plan.children_mut()[0])),
        ExecOp::Aggregate { group_by } => {
            let child = run(db, Arc::make_mut(&mut plan.children_mut()[0]));
            let _span = span!("exec_aggregate");
            aggregate(db, child, *group_by)
        }
        ExecOp::Limit { n } => {
            let mut child = run(db, Arc::make_mut(&mut plan.children_mut()[0]));
            let keep = (*n as usize).min(child.rows());
            for col in &mut child.rowids {
                col.truncate(keep);
            }
            child
        }
    };
    plan.actual_rows = result.rows() as f64;
    result
}

/// Evaluate all predicates over a base table.
fn scan(db: &Database, table: TableId, predicates: &[Predicate]) -> Intermediate {
    let n = db.table_data(table).rows();
    let mut selected: Vec<u32> = Vec::with_capacity(n / 4);
    if predicates.is_empty() {
        selected.extend(0..n as u32);
    } else {
        let cols: Vec<&[i64]> = predicates
            .iter()
            .map(|p| db.column_data(p.column))
            .collect();
        'rows: for r in 0..n {
            for (p, col) in predicates.iter().zip(&cols) {
                if !eval_predicate(p, col[r]) {
                    continue 'rows;
                }
            }
            selected.push(r as u32);
        }
    }
    Intermediate {
        tables: vec![table],
        rowids: vec![selected],
    }
}

/// Evaluate one predicate against a value (NULL never matches).
pub(crate) fn eval_predicate(p: &Predicate, v: i64) -> bool {
    if v == NULL_CODE {
        return false;
    }
    match p.op {
        CmpOp::Eq => v == p.values[0],
        CmpOp::Lt => v < p.values[0],
        CmpOp::Gt => v > p.values[0],
        CmpOp::Le => v <= p.values[0],
        CmpOp::Ge => v >= p.values[0],
        CmpOp::Between | CmpOp::LikePrefix => v >= p.values[0] && v <= p.values[1],
        CmpOp::In => p.values.contains(&v),
    }
}

/// Hash join two intermediates along an FK edge. The child side's key is the
/// FK column value; the parent side's key is the parent row id (serial PK).
fn hash_join(db: &Database, l: Intermediate, r: Intermediate, edge: JoinEdge) -> Intermediate {
    let fk_col = ColumnId::new(edge.child, edge.child_column);
    let fk_data = db.column_data(fk_col);

    let (child_side, parent_side) = if l.table_pos(edge.child).is_some() {
        (l, r)
    } else {
        (r, l)
    };
    let child_pos = child_side
        .table_pos(edge.child)
        .expect("child table not in either side");
    let parent_pos = parent_side
        .table_pos(edge.parent)
        .expect("parent table not in the other side");

    let out_tables: Vec<TableId> = child_side
        .tables
        .iter()
        .chain(parent_side.tables.iter())
        .copied()
        .collect();
    let mut out_rowids: Vec<Vec<u32>> = vec![Vec::new(); out_tables.len()];
    let child_width = child_side.tables.len();

    if parent_side.tables.len() == 1 {
        // Fast path: the parent side is the base parent table (filtered);
        // FK value == parent row id, so probing is a bitmap lookup.
        let parent_rows = db.table_data(edge.parent).rows();
        let mut selected = vec![false; parent_rows];
        for &rid in &parent_side.rowids[0] {
            selected[rid as usize] = true;
        }
        for r in 0..child_side.rows() {
            let child_rid = child_side.rowids[child_pos][r];
            let key = fk_data[child_rid as usize];
            if key == NULL_CODE || key < 0 || key as usize >= parent_rows {
                continue;
            }
            if selected[key as usize] {
                for (i, col) in child_side.rowids.iter().enumerate() {
                    out_rowids[i].push(col[r]);
                }
                out_rowids[child_width].push(key as u32);
            }
        }
    } else {
        // General path: hash the parent side on its parent-table row id.
        let mut table: HashMap<u32, Vec<u32>> = HashMap::new();
        for r in 0..parent_side.rows() {
            let key = parent_side.rowids[parent_pos][r];
            table.entry(key).or_default().push(r as u32);
        }
        for r in 0..child_side.rows() {
            let child_rid = child_side.rowids[child_pos][r];
            let key = fk_data[child_rid as usize];
            if key == NULL_CODE || key < 0 {
                continue;
            }
            if let Some(matches) = table.get(&(key as u32)) {
                for &pr in matches {
                    for (i, col) in child_side.rowids.iter().enumerate() {
                        out_rowids[i].push(col[r]);
                    }
                    for (j, col) in parent_side.rowids.iter().enumerate() {
                        out_rowids[child_width + j].push(col[pr as usize]);
                    }
                }
            }
        }
    }
    Intermediate {
        tables: out_tables,
        rowids: out_rowids,
    }
}

/// Grouped or plain aggregation: the result cardinality is the number of
/// distinct group keys (or exactly 1 without GROUP BY). The output
/// intermediate is a placeholder of that many rows.
fn aggregate(db: &Database, input: Intermediate, group_by: Option<ColumnId>) -> Intermediate {
    let groups = match group_by {
        None => 1,
        Some(col) => {
            let pos = input
                .table_pos(col.table())
                .expect("group column's table not in input");
            let data = db.column_data(col);
            let mut distinct: std::collections::HashSet<i64> = std::collections::HashSet::new();
            for &rid in &input.rowids[pos] {
                distinct.insert(data[rid as usize]);
            }
            distinct.len().max(usize::from(input.rows() > 0))
        }
    };
    Intermediate {
        tables: vec![TableId(u32::MAX)],
        rowids: vec![vec![0; groups]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::card::CardEstimator;
    use crate::cost::CostModel;
    use crate::latency::MachineProfile;
    use crate::planner::{
        connecting_edge, join_candidates, masked_edges, plan, scan_candidates, Side,
    };
    use dace_catalog::{generate_database, suite_specs};
    use dace_query::{Aggregate, ComplexWorkloadGen, Query};

    fn db() -> Database {
        generate_database(&suite_specs()[0], 0.02)
    }

    /// Brute-force count of a 2-table FK join with predicates.
    fn brute_force_join(db: &Database, q: &Query) -> usize {
        assert_eq!(q.joins.len(), 1);
        let e = q.joins[0];
        let fk = db.column_data(ColumnId::new(e.child, e.child_column));
        let child_preds = q.predicates_on(e.child);
        let parent_preds = q.predicates_on(e.parent);
        let parent_rows = db.table_data(e.parent).rows();
        let parent_ok: Vec<bool> = (0..parent_rows)
            .map(|r| {
                parent_preds
                    .iter()
                    .all(|p| eval_predicate(p, db.column_data(p.column)[r]))
            })
            .collect();
        let child_rows = db.table_data(e.child).rows();
        (0..child_rows)
            .filter(|&r| {
                child_preds
                    .iter()
                    .all(|p| eval_predicate(p, db.column_data(p.column)[r]))
            })
            .filter(|&r| {
                let v = fk[r];
                v != NULL_CODE && v >= 0 && (v as usize) < parent_rows && parent_ok[v as usize]
            })
            .count()
    }

    #[test]
    fn join_counts_match_brute_force() {
        let db = db();
        let gen = ComplexWorkloadGen {
            max_joins: 1,
            max_predicates: 2,
            agg_prob: 0.0,
            seed: 99,
        };
        let queries: Vec<Query> = gen
            .generate(&db, 60)
            .into_iter()
            .filter(|q| q.joins.len() == 1 && q.limit.is_none())
            .collect();
        assert!(!queries.is_empty());
        for q in &queries {
            let mut p = plan(&db, q, &CostModel::default()).unwrap();
            execute(&db, &mut p);
            let expected = brute_force_join(&db, q);
            assert_eq!(
                p.actual_rows as usize, expected,
                "join result mismatch for {q:?}"
            );
        }
    }

    #[test]
    fn scan_counts_match_filters() {
        let db = db();
        let gen = ComplexWorkloadGen {
            max_joins: 0,
            max_predicates: 3,
            agg_prob: 0.0,
            seed: 7,
        };
        for q in gen.generate(&db, 40) {
            if q.limit.is_some() {
                continue;
            }
            let mut p = plan(&db, &q, &CostModel::default()).unwrap();
            execute(&db, &mut p);
            let t = q.tables[0];
            let expected = (0..db.table_data(t).rows())
                .filter(|&r| {
                    q.predicates
                        .iter()
                        .all(|pr| eval_predicate(pr, db.column_data(pr.column)[r]))
                })
                .count();
            assert_eq!(p.actual_rows as usize, expected);
        }
    }

    #[test]
    fn limit_truncates() {
        let db = db();
        let mut q = Query::scan(0, TableId(0));
        q.limit = Some(5);
        let mut p = plan(&db, &q, &CostModel::default()).unwrap();
        execute(&db, &mut p);
        assert_eq!(p.actual_rows as u64, 5);
    }

    #[test]
    fn plain_aggregate_returns_one_row() {
        let db = db();
        let mut q = Query::scan(0, TableId(0));
        q.aggregates = vec![Aggregate::CountStar];
        let mut p = plan(&db, &q, &CostModel::default()).unwrap();
        execute(&db, &mut p);
        assert_eq!(p.actual_rows as u64, 1);
    }

    #[test]
    fn grouped_aggregate_counts_groups() {
        let db = db();
        let t = TableId(0);
        // Group by a low-cardinality column: find one with small ndv.
        let tdef = db.schema.table(t);
        let col = (1..tdef.columns.len() as u32)
            .map(|c| ColumnId::new(t, c))
            .min_by(|&a, &b| {
                db.column_stats(a)
                    .n_distinct
                    .total_cmp(&db.column_stats(b).n_distinct)
            })
            .unwrap();
        let mut q = Query::scan(0, t);
        q.group_by = Some(col);
        q.aggregates = vec![Aggregate::CountStar];
        let mut p = plan(&db, &q, &CostModel::default()).unwrap();
        execute(&db, &mut p);
        let mut distinct: std::collections::HashSet<i64> =
            db.column_data(col).iter().copied().collect();
        distinct.remove(&NULL_CODE);
        // NULL groups count as one group in SQL; our aggregate counts the
        // NULL code as a distinct value too, which matches.
        let expected = db
            .column_data(col)
            .iter()
            .copied()
            .collect::<std::collections::HashSet<i64>>()
            .len();
        assert_eq!(p.actual_rows as usize, expected);
    }

    #[test]
    fn every_node_gets_actuals() {
        let db = db();
        for q in ComplexWorkloadGen::default().generate(&db, 50) {
            let mut p = plan(&db, &q, &CostModel::default()).unwrap();
            execute(&db, &mut p);
            assert_actuals_filled(&p);
        }
    }

    /// `p` with every node freshly allocated: shares nothing with `p`.
    fn deep_clone(p: &PhysPlan) -> PhysPlan {
        let mut copy = p.clone();
        for c in copy.children_mut() {
            *c = Arc::new(deep_clone(c));
        }
        copy
    }

    /// Addresses of every node of `p`.
    fn node_ptrs(p: &PhysPlan, out: &mut Vec<*const PhysPlan>) {
        out.push(p as *const PhysPlan);
        for c in p.children() {
            node_ptrs(c, out);
        }
    }

    fn assert_actuals_zero(p: &PhysPlan) {
        assert_eq!((p.actual_rows, p.actual_ms), (0.0, 0.0));
        for c in p.children() {
            assert_actuals_zero(c);
        }
    }

    #[test]
    fn executing_a_candidate_leaves_plans_sharing_its_children_untouched() {
        let db = db();
        let cm = CostModel::default();
        let est = CardEstimator::new(&db);
        let q = ComplexWorkloadGen {
            max_joins: 1,
            agg_prob: 0.0,
            ..ComplexWorkloadGen::default()
        }
        .generate(&db, 40)
        .into_iter()
        .find(|q| q.joins.len() == 1 && q.tables.len() == 2)
        .expect("a two-table join");
        // Each table's sequential scan, the first access path generated.
        let scan = |t, mask| {
            let mut cands = Vec::new();
            scan_candidates(&db, &q, t, &cm, &est, &mut cands);
            Side::new(mask, Arc::new(cands.swap_remove(0)))
        };
        let (l, r) = (scan(q.tables[0], 1), scan(q.tables[1], 2));
        let edges = masked_edges(&db, &q);
        let edge = connecting_edge(&edges, 1, 2).expect("joined tables");
        let mut cands = Vec::new();
        join_candidates(&db, &l, &r, edge, &cm, &est, &mut cands);
        // The hash join and the merge join both hold both scans.
        let mut pick = cands[0].clone();
        let other = cands.last().unwrap().clone();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        node_ptrs(&pick, &mut a);
        node_ptrs(&other, &mut b);
        assert!(a.iter().any(|p| b.contains(p)), "candidates share no node");

        let snapshot = deep_clone(&other);
        let mut unshared = deep_clone(&pick);
        let profile = MachineProfile::m1();
        execute(&db, &mut pick);
        profile.apply(&db, &mut pick, 7);
        execute(&db, &mut unshared);
        profile.apply(&db, &mut unshared, 7);

        assert_actuals_zero(&other);
        assert_eq!(other, snapshot);
        assert_actuals_zero(&l.plan);
        assert_actuals_zero(&r.plan);
        assert!(pick.actual_ms > 0.0);
        assert_eq!(pick.actual_ms, unshared.actual_ms);
        assert_eq!(pick, unshared);
    }

    fn assert_actuals_filled(p: &PhysPlan) {
        // actual_rows of zero is legitimate (empty results) but the field
        // must be finite and non-negative everywhere.
        assert!(p.actual_rows >= 0.0 && p.actual_rows.is_finite());
        for c in p.children() {
            assert_actuals_filled(c);
        }
    }
}
