//! End-to-end label collection: query → plan → execute → latency → dataset.

use dace_catalog::Database;
use dace_plan::{Dataset, LabeledPlan, MachineId, PlanTree};
use dace_query::Query;

use crate::cost::CostModel;
use crate::exec::execute;
use crate::latency::MachineProfile;
use crate::planner::{plan, PhysPlan, PlanError};

/// Plan a query without executing it (estimates only).
pub fn plan_query(db: &Database, query: &Query) -> Result<PhysPlan, PlanError> {
    plan(db, query, &CostModel::default())
}

/// Plan, execute and time one query on `machine`, producing a labeled plan.
///
/// `seed` drives the latency noise; the collection loop uses the query index
/// so datasets are fully reproducible.
pub fn label_query(
    db: &Database,
    query: &Query,
    machine: MachineId,
    seed: u64,
) -> Result<LabeledPlan, PlanError> {
    let mut phys = plan_query(db, query)?;
    execute(db, &mut phys);
    MachineProfile::for_machine(machine).apply(db, &mut phys, seed);
    Ok(LabeledPlan {
        tree: phys.to_plan_tree(),
        db_id: db.db_id(),
        machine,
    })
}

/// Collect labeled plans for a whole workload, parallelized across threads.
///
/// This is the `EXPLAIN ANALYZE` harvesting loop of the paper's Sec. IV-A.
pub fn collect_dataset(db: &Database, queries: &[Query], machine: MachineId) -> Dataset {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(queries.len().max(1));
    if threads <= 1 || queries.len() < 32 {
        let plans = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                label_query(db, q, machine, i as u64).expect("generated workload queries must plan")
            })
            .collect();
        return Dataset::from_plans(plans);
    }
    let chunk = queries.len().div_ceil(threads);
    let plans = std::thread::scope(|scope| {
        let handles: Vec<_> = queries
            .chunks(chunk)
            .enumerate()
            .map(|(ci, qs)| {
                scope.spawn(move || {
                    qs.iter()
                        .enumerate()
                        .map(|(i, q)| {
                            label_query(db, q, machine, (ci * chunk + i) as u64)
                                .expect("generated workload queries must plan")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("collection thread panicked"))
            .collect()
    });
    Dataset::from_plans(plans)
}

/// Convenience: EXPLAIN ANALYZE rendering of one labeled query.
pub fn explain_analyze(db: &Database, query: &Query, machine: MachineId) -> (PlanTree, String) {
    let labeled = label_query(db, query, machine, 0).expect("explained query must plan");
    let text = dace_plan::explain_tree(&labeled.tree);
    (labeled.tree, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_catalog::{generate_database, suite_specs};
    use dace_query::ComplexWorkloadGen;

    #[test]
    fn collection_is_parallel_deterministic() {
        let db = generate_database(&suite_specs()[2], 0.02);
        let queries = ComplexWorkloadGen::default().generate(&db, 64);
        let a = collect_dataset(&db, &queries, MachineId::M1);
        let b = collect_dataset(&db, &queries, MachineId::M1);
        assert_eq!(a.len(), queries.len());
        for (x, y) in a.plans.iter().zip(&b.plans) {
            assert_eq!(x.tree, y.tree);
            assert_eq!(x.db_id, db.db_id());
        }
    }

    #[test]
    fn labels_are_populated() {
        let db = generate_database(&suite_specs()[2], 0.02);
        let queries = ComplexWorkloadGen::default().generate(&db, 10);
        let ds = collect_dataset(&db, &queries, MachineId::M2);
        for p in &ds.plans {
            assert!(p.latency_ms() > 0.0);
            assert_eq!(p.machine, MachineId::M2);
            for id in p.tree.ids() {
                let n = p.tree.node(id);
                assert!(n.est_cost > 0.0);
                assert!(n.est_rows >= 1.0);
                assert!(n.actual_ms >= 0.0);
            }
        }
    }

    #[test]
    fn explain_analyze_renders() {
        let db = generate_database(&suite_specs()[2], 0.02);
        let q = ComplexWorkloadGen::default()
            .generate(&db, 1)
            .pop()
            .unwrap();
        let (tree, text) = explain_analyze(&db, &q, MachineId::M1);
        assert!(text.contains("cost="));
        assert!(text.contains("actual time="));
        assert!(text.lines().count() >= tree.len());
    }
}
