//! Input generation shared by the workloads: suite databases, seeded query
//! streams, labeled plans, and q-error.

use dace_catalog::{generate_database, suite_specs, Database};
use dace_engine::collect_dataset;
use dace_plan::{Dataset, MachineId};
use dace_query::{ComplexWorkloadGen, Query};

use crate::stats::mix;

/// Row scale of every generated database. Small enough that data
/// generation and plan execution stay a minor share of set-up.
pub const DB_SCALE: f64 = 0.05;

pub fn databases(ids: &[u16]) -> Vec<Database> {
    let specs = suite_specs();
    ids.iter()
        .map(|&id| generate_database(&specs[usize::from(id)], DB_SCALE))
        .collect()
}

/// `count` complex queries against `db`, drawn from the run seed and a
/// per-stream tag so that distinct streams never repeat each other.
pub fn queries(db: &Database, seed: u64, tag: u64, count: usize, max_joins: usize) -> Vec<Query> {
    ComplexWorkloadGen {
        max_joins,
        seed: mix(seed, tag),
        ..ComplexWorkloadGen::default()
    }
    .generate(db, count)
}

/// Plan, execute and label `count` default-shaped queries on `machine`.
pub fn labeled(db: &Database, seed: u64, tag: u64, count: usize, machine: MachineId) -> Dataset {
    collect_dataset(db, &queries(db, seed, tag, count, 5), machine)
}

/// `max(pred/actual, actual/pred)` with both floored at 1 µs.
pub fn qerror(pred_ms: f64, actual_ms: f64) -> f64 {
    let (p, a) = (pred_ms.max(1e-3), actual_ms.max(1e-3));
    (p / a).max(a / p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let db = &databases(&[2])[0];
        let q = |seed, tag| queries(db, seed, tag, 32, 5);
        assert_eq!(q(7, 1), q(7, 1));
        assert_ne!(q(7, 1), q(8, 1));
        assert_ne!(q(7, 1), q(7, 2));
        let trees = |seed| {
            labeled(db, seed, 1, 16, MachineId::M1)
                .plans
                .into_iter()
                .map(|p| p.tree)
                .collect::<Vec<_>>()
        };
        assert_eq!(trees(7), trees(7));
        assert_ne!(trees(7), trees(8));
    }

    #[test]
    fn qerror_is_symmetric_and_at_least_one() {
        assert_eq!(qerror(2.0, 1.0), 2.0);
        assert_eq!(qerror(1.0, 2.0), 2.0);
        assert_eq!(qerror(3.0, 3.0), 1.0);
        assert_eq!(qerror(0.0, 1e-3), 1.0);
    }
}
