//! Machine-profile latency synthesis — the substitution for executing plans
//! on the paper's physical machines M1 and M2 (see DESIGN.md §1).
//!
//! A [`MachineProfile`] converts the *actual* per-node cardinalities the
//! executor measured into per-node wall-clock milliseconds. Crucially, its
//! per-operator time constants are **not** proportional to the optimizer's
//! abstract cost constants: random I/O is relatively more expensive than the
//! optimizer believes, hashing relatively cheaper, sorts and hashes pay a
//! memory-spill penalty past a profile-specific working-set size, and every
//! node carries startup overhead plus multiplicative log-normal noise. This
//! reproduces the structure of the "error distribution of the query
//! optimizer's estimated cost" (EDQO) that DACE learns: systematic,
//! operator- and machine-dependent, and corrupted by the optimizer's
//! cardinality estimation error.

use std::sync::Arc;

use dace_catalog::Database;
use dace_plan::{MachineId, NodeType, OpPayload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cost::PAGE_BYTES;
use crate::planner::PhysPlan;

/// Per-operator time constants of one machine (nanoseconds per unit).
#[derive(Debug, Clone, PartialEq)]
pub struct MachineProfile {
    /// Which machine this profile models.
    pub id: MachineId,
    /// Sequential page read.
    pub seq_page_ns: f64,
    /// Random page read.
    pub rand_page_ns: f64,
    /// Per-tuple CPU (emit/copy).
    pub tuple_ns: f64,
    /// Per-predicate/operator evaluation.
    pub op_ns: f64,
    /// Per-tuple hash insert/probe.
    pub hash_ns: f64,
    /// Per-comparison sort work.
    pub sort_ns: f64,
    /// Per-tuple aggregation work.
    pub agg_ns: f64,
    /// B-tree index entry access.
    pub index_ns: f64,
    /// Rows a hash/sort can hold before spilling.
    pub mem_rows: f64,
    /// Multiplier applied to hash/sort work past `mem_rows`.
    pub spill_factor: f64,
    /// Rows that fit the cache-friendly working set; larger inputs pay the
    /// logarithmic memory-hierarchy penalty below.
    pub cache_rows: f64,
    /// Per-ln-multiple cache penalty: work on `n` rows is multiplied by
    /// `1 + cache_penalty · ln(n / cache_rows)` once `n > cache_rows`.
    pub cache_penalty: f64,
    /// Fixed per-node startup overhead.
    pub node_startup_ns: f64,
    /// Fixed per-query overhead (parse/plan/executor startup).
    pub query_startup_ns: f64,
    /// Sigma of the multiplicative log-normal noise per node.
    pub noise_sigma: f64,
    /// Probability a node hits a system hiccup (compaction, page-cache miss
    /// storm, scheduler preemption) — the heavy tail of real latencies.
    pub tail_prob: f64,
    /// Scale of the exponential tail multiplier when a hiccup hits.
    pub tail_scale: f64,
    /// Simulated parallel workers under a Gather node.
    pub gather_workers: f64,
}

impl MachineProfile {
    /// Machine M1 (the paper's Xeon E5-2650 v4 box): slower cores, larger
    /// effective memory, balanced I/O.
    pub fn m1() -> Self {
        MachineProfile {
            id: MachineId::M1,
            seq_page_ns: 2_500.0,
            rand_page_ns: 30_000.0,
            tuple_ns: 350.0,
            op_ns: 18.0,
            hash_ns: 28.0,
            sort_ns: 45.0,
            agg_ns: 140.0,
            index_ns: 900.0,
            mem_rows: 8_192.0,
            spill_factor: 3.0,
            cache_rows: 2_000.0,
            cache_penalty: 0.35,
            node_startup_ns: 9_000.0,
            query_startup_ns: 160_000.0,
            noise_sigma: 0.10,
            tail_prob: 0.03,
            tail_scale: 1.5,
            gather_workers: 2.0,
        }
    }

    /// Machine M2 (the paper's Core i5-8500 desktop): faster cores, slower
    /// storage, smaller memory — a *different* EDQO than M1, which is what
    /// makes the across-more scenario non-trivial.
    pub fn m2() -> Self {
        MachineProfile {
            id: MachineId::M2,
            seq_page_ns: 8_000.0,
            rand_page_ns: 18_000.0,
            tuple_ns: 800.0,
            op_ns: 50.0,
            hash_ns: 90.0,
            sort_ns: 100.0,
            agg_ns: 250.0,
            index_ns: 1_500.0,
            mem_rows: 2_048.0,
            spill_factor: 5.0,
            cache_rows: 800.0,
            cache_penalty: 0.5,
            node_startup_ns: 6_000.0,
            query_startup_ns: 110_000.0,
            noise_sigma: 0.12,
            tail_prob: 0.04,
            tail_scale: 1.8,
            gather_workers: 3.0,
        }
    }

    /// Profile for a [`MachineId`].
    pub fn for_machine(id: MachineId) -> Self {
        match id {
            MachineId::M1 => MachineProfile::m1(),
            MachineId::M2 => MachineProfile::m2(),
        }
    }

    /// Fill `actual_ms` (cumulative) on every node of an executed plan.
    /// Children shared with other plans are copied on write first
    /// ([`Arc::make_mut`]).
    ///
    /// `seed` individualizes the noise per plan; label collection derives it
    /// from the query index so datasets are reproducible.
    pub fn apply(&self, db: &Database, plan: &mut PhysPlan, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xAB5E_11E5);
        let total = self.annotate(db, plan, &mut rng);
        // Query-level startup lands on the root.
        plan.actual_ms = total + self.query_startup_ns / 1e6;
    }

    /// Recursively compute cumulative ms; returns the sub-plan total.
    fn annotate(&self, db: &Database, node: &mut PhysPlan, rng: &mut SmallRng) -> f64 {
        let mut children_ms = 0.0;
        for c in node.children_mut() {
            children_ms += self.annotate(db, Arc::make_mut(c), rng);
        }
        let own_ns = self.own_time_ns(db, node);
        let mut noise = (self.noise_sigma * standard_normal(rng)).exp();
        // Occasional system hiccup: exponential-tailed slowdown. This is the
        // irreducible heavy tail every estimator shares (the paper's Max
        // column never reaches 1 even for DACE).
        if rng.gen_bool(self.tail_prob) {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            noise *= 1.0 + self.tail_scale * (-u.ln());
        }
        let mut total_ms = children_ms + (own_ns * noise + self.node_startup_ns) / 1e6;

        match node.node_type() {
            // A Gather ran its subtree across workers.
            NodeType::Gather => {
                total_ms = children_ms / self.gather_workers
                    + (own_ns * noise + self.node_startup_ns) / 1e6;
            }
            // A Limit stopped its child early: it only pays for the
            // fraction of the child's output it consumed.
            NodeType::Limit => {
                let child_rows = node.children()[0].actual_rows.max(1.0);
                let frac = (node.actual_rows / child_rows).clamp(0.0, 1.0).max(0.01);
                total_ms = children_ms * frac + self.node_startup_ns / 1e6;
            }
            _ => {}
        }
        node.actual_ms = total_ms;
        total_ms
    }

    /// Memory-hierarchy factor: work on `n` rows slows down logarithmically
    /// once the working set leaves the cache-friendly regime.
    #[inline]
    fn mem_factor(&self, n: f64) -> f64 {
        if n > self.cache_rows {
            1.0 + self.cache_penalty * (n / self.cache_rows).ln()
        } else {
            1.0
        }
    }

    /// Spill factor: hash tables / sort runs exceeding the in-memory budget.
    #[inline]
    fn spill(&self, n: f64) -> f64 {
        if n > self.mem_rows {
            self.spill_factor
        } else {
            1.0
        }
    }

    /// Exclusive (own) time of one node in nanoseconds.
    ///
    /// The per-unit constants are deliberately *not* proportional to the
    /// optimizer's cost constants (they range from ~7 to ~200 µs per cost
    /// unit across operators), and the cache/spill factors are nonlinear in
    /// the actual row counts — this is the operator-dependent EDQO a single
    /// calibrated linear model cannot fit but a plan-aware model can.
    fn own_time_ns(&self, db: &Database, node: &PhysPlan) -> f64 {
        let out = node.actual_rows;
        let in_rows: f64 = node.children().iter().map(|c| c.actual_rows).sum();
        match node.node_type() {
            NodeType::SeqScan => {
                let (rows, pages, n_preds) = scan_shape(db, node);
                pages * self.seq_page_ns * self.mem_factor(rows)
                    + rows * (self.tuple_ns * 0.25 + n_preds * self.op_ns)
            }
            NodeType::IndexScan => {
                // Covers both predicate-driven index scans (out rows fetched
                // once) and nested-loop inners (executor stored total rows
                // across loops). Random heap fetches dominate.
                out * (self.rand_page_ns * 0.4 + self.index_ns) * self.mem_factor(out)
                    + self.index_ns * 40.0
            }
            NodeType::IndexOnlyScan => out * self.index_ns + self.index_ns * 40.0,
            NodeType::BitmapIndexScan => out * self.index_ns * 0.5,
            NodeType::BitmapHeapScan => {
                let (_, pages, n_preds) = scan_shape(db, node);
                let touched = pages * (1.0 - (-out / pages.max(1.0)).exp());
                touched * (self.seq_page_ns + self.rand_page_ns) * 0.5
                    + out * (self.tuple_ns + n_preds * self.op_ns)
            }
            NodeType::Hash => {
                in_rows * self.hash_ns * self.spill(in_rows) * self.mem_factor(in_rows)
            }
            NodeType::HashJoin => {
                // Probe side is child 0; the Hash child covered the build.
                // Probes stall on the build table once it exceeds cache.
                let probe = node.children()[0].actual_rows;
                let build = node.children()[1].actual_rows.max(1.0);
                probe * self.hash_ns * 2.0 * self.mem_factor(build) + out * self.tuple_ns
            }
            NodeType::NestedLoop => {
                let outer = node.children()[0].actual_rows;
                outer * self.op_ns * 4.0 + out * self.tuple_ns
            }
            NodeType::MergeJoin => in_rows * self.op_ns * 2.0 + out * self.tuple_ns,
            NodeType::Sort => {
                let n = in_rows.max(2.0);
                n * n.log2() * self.sort_ns * self.spill(n) * self.mem_factor(n)
            }
            NodeType::Materialize => in_rows * self.tuple_ns * 0.5,
            NodeType::HashAggregate => {
                in_rows * self.agg_ns * self.spill(in_rows) * self.mem_factor(in_rows)
                    + out * self.tuple_ns
            }
            NodeType::GroupAggregate => in_rows * self.agg_ns * 0.6 + out * self.tuple_ns,
            NodeType::Gather => out * self.tuple_ns * 1.2 + 50_000.0,
            NodeType::Limit => 0.0,
            NodeType::Result => out * self.tuple_ns,
        }
    }
}

/// (base rows, pages, predicate count) of a scan node.
fn scan_shape(db: &Database, node: &PhysPlan) -> (f64, f64, f64) {
    match &*node.payload {
        OpPayload::Scan(info) => {
            let stats = db.table_stats(dace_catalog::TableId(info.table_id));
            let rows = stats.row_count as f64;
            let pages = (rows * node.width as f64 / PAGE_BYTES).ceil().max(1.0);
            (rows, pages, info.predicates.len() as f64)
        }
        _ => (node.actual_rows, 1.0, 0.0),
    }
}

fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::exec::execute;
    use crate::planner::plan;
    use dace_catalog::{generate_database, suite_specs, Database};
    use dace_query::ComplexWorkloadGen;

    fn labeled_plans(machine: MachineId, seed: u64) -> (Database, Vec<PhysPlan>) {
        let db = generate_database(&suite_specs()[0], 0.02);
        let profile = MachineProfile::for_machine(machine);
        let plans = ComplexWorkloadGen::default()
            .generate(&db, 40)
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let mut p = plan(&db, q, &CostModel::default()).unwrap();
                execute(&db, &mut p);
                profile.apply(&db, &mut p, seed + i as u64);
                p
            })
            .collect();
        (db, plans)
    }

    fn check_cumulative(p: &PhysPlan) {
        for c in p.children() {
            if p.node_type() != NodeType::Limit && p.node_type() != NodeType::Gather {
                assert!(
                    p.actual_ms >= c.actual_ms,
                    "{:?} {} < child {:?} {}",
                    p.node_type(),
                    p.actual_ms,
                    c.node_type(),
                    c.actual_ms
                );
            }
            check_cumulative(c);
        }
    }

    #[test]
    fn latencies_are_positive_and_cumulative() {
        let (_, plans) = labeled_plans(MachineId::M1, 0);
        for p in &plans {
            assert!(p.actual_ms > 0.0, "zero latency plan");
            check_cumulative(p);
        }
    }

    #[test]
    fn latency_is_deterministic_in_seed() {
        let (_, a) = labeled_plans(MachineId::M1, 42);
        let (_, b) = labeled_plans(MachineId::M1, 42);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.actual_ms, y.actual_ms);
        }
    }

    #[test]
    fn machines_have_different_edqo() {
        let (_, m1) = labeled_plans(MachineId::M1, 0);
        let (_, m2) = labeled_plans(MachineId::M2, 0);
        // Same plans, different machines: the cost→time ratio distribution
        // must differ (otherwise across-more would be trivial).
        let ratio = |p: &PhysPlan| p.actual_ms / p.est_cost().max(1e-9);
        let mean1: f64 = m1.iter().map(&ratio).sum::<f64>() / m1.len() as f64;
        let mean2: f64 = m2.iter().map(ratio).sum::<f64>() / m2.len() as f64;
        assert!(
            (mean1 / mean2 - 1.0).abs() > 0.05,
            "machines indistinguishable: {mean1} vs {mean2}"
        );
    }

    #[test]
    fn cost_time_correlation_is_positive_but_imperfect() {
        let (_, plans) = labeled_plans(MachineId::M1, 0);
        let xs: Vec<f64> = plans.iter().map(|p| p.est_cost().ln()).collect();
        let ys: Vec<f64> = plans.iter().map(|p| p.actual_ms.ln()).collect();
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
        let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
        let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
        let corr = cov / (vx.sqrt() * vy.sqrt()).max(1e-12);
        assert!(
            corr > 0.4,
            "optimizer cost should correlate with latency (corr={corr})"
        );
        assert!(
            corr < 0.999,
            "cost→latency must not be deterministic (corr={corr})"
        );
    }
}
