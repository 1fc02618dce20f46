//! End-to-end substrate pipeline: database → workload → optimizer →
//! executor → latency labels, with the invariants every downstream model
//! relies on.

use dace_catalog::{generate_database, suite_specs};
use dace_engine::planner::ExecOp;
use dace_engine::{collect_dataset, explain_analyze, plan, CostModel, PhysPlan, DP_AUTO_MAX};
use dace_obs::fnv1a64;
use dace_plan::{MachineId, NodeType};
use dace_query::{render_sql, ComplexWorkloadGen, MscnSet, MscnWorkloadGen};

#[test]
fn labeled_plans_satisfy_model_input_invariants() {
    let db = generate_database(&suite_specs()[5], 0.05);
    let queries = ComplexWorkloadGen::default().generate(&db, 80);
    let ds = collect_dataset(&db, &queries, MachineId::M1);
    assert_eq!(ds.len(), 80);
    for plan in &ds.plans {
        let tree = &plan.tree;
        let n = tree.len();
        // DFS covers every node exactly once.
        let dfs = tree.dfs();
        assert_eq!(dfs.len(), n);
        let mut seen: Vec<bool> = vec![false; n];
        for id in &dfs {
            assert!(!seen[id.index()]);
            seen[id.index()] = true;
        }
        // Mask and heights align with the DFS sequence.
        assert_eq!(tree.ancestor_matrix().len(), n * n);
        let heights = tree.heights();
        assert_eq!(heights.len(), n);
        assert_eq!(heights[0], 0, "root first in DFS");
        // Every node carries estimates and labels.
        for id in tree.ids() {
            let node = tree.node(id);
            assert!(node.est_cost > 0.0 && node.est_cost.is_finite());
            assert!(node.est_rows >= 1.0);
            assert!(node.actual_ms >= 0.0 && node.actual_ms.is_finite());
            assert!(node.actual_rows >= 0.0);
        }
        // Root latency includes every child's latency — except Limit
        // (stops its child early) and Gather (parallelizes the subtree).
        let root = tree.node(tree.root());
        if !matches!(root.node_type, NodeType::Limit | NodeType::Gather) {
            for &c in &root.children {
                assert!(root.actual_ms >= tree.node(c).actual_ms * 0.99);
            }
        }
    }
}

#[test]
fn same_queries_two_machines_differ_systematically() {
    let db = generate_database(&suite_specs()[6], 0.05);
    let queries = ComplexWorkloadGen::default().generate(&db, 60);
    let m1 = collect_dataset(&db, &queries, MachineId::M1);
    let m2 = collect_dataset(&db, &queries, MachineId::M2);
    // Identical plans (same optimizer), different labels.
    let mut ratio_sum = 0.0;
    for (a, b) in m1.plans.iter().zip(&m2.plans) {
        assert_eq!(a.tree.len(), b.tree.len());
        assert_eq!(
            a.tree.node(a.tree.root()).node_type,
            b.tree.node(b.tree.root()).node_type
        );
        assert_eq!(a.tree.est_cost(), b.tree.est_cost());
        ratio_sum += b.latency_ms() / a.latency_ms();
    }
    let mean_ratio = ratio_sum / m1.len() as f64;
    assert!(
        (mean_ratio - 1.0).abs() > 0.02,
        "machines should have different latency scales, mean ratio {mean_ratio}"
    );
}

#[test]
fn sql_rendering_round_trips_workload_shapes() {
    let db = generate_database(&suite_specs()[0], 0.05);
    let gen = MscnWorkloadGen::default();
    for q in gen.gen_test(&db, MscnSet::JobLight, 20) {
        let sql = render_sql(&q, &db.schema);
        assert!(sql.starts_with("SELECT"));
        assert!(sql.contains("COUNT(*)"));
        assert!(sql.ends_with(';'));
        // Every join prints one equality condition.
        let eqs = sql.matches(" = ").count();
        assert!(eqs >= q.joins.len());
    }
}

#[test]
fn explain_analyze_covers_all_operators_in_corpus() {
    let db = generate_database(&suite_specs()[0], 0.05);
    let queries = ComplexWorkloadGen::default().generate(&db, 120);
    let mut seen_types = std::collections::HashSet::new();
    for q in queries.iter().take(120) {
        let (tree, text) = explain_analyze(&db, q, MachineId::M1);
        assert!(text.lines().count() >= tree.len());
        for id in tree.ids() {
            seen_types.insert(tree.node(id).node_type);
        }
    }
    // The corpus exercises a broad operator mix, including scans, a join
    // flavor, aggregation and auxiliaries.
    assert!(seen_types.len() >= 8, "only {seen_types:?}");
    assert!(seen_types.contains(&NodeType::SeqScan));
    assert!(
        seen_types.contains(&NodeType::HashJoin)
            || seen_types.contains(&NodeType::NestedLoop)
            || seen_types.contains(&NodeType::MergeJoin)
    );
}

#[test]
fn estimation_error_exists_but_is_bounded_on_average() {
    // The substrate must produce realistic cardinality misestimation:
    // nonzero (or the learning problem is trivial) but not absurd.
    let db = generate_database(&suite_specs()[7], 0.05);
    let queries = ComplexWorkloadGen::default().generate(&db, 100);
    let ds = collect_dataset(&db, &queries, MachineId::M1);
    let mut log_errors = Vec::new();
    for p in &ds.plans {
        let root = p.tree.node(p.tree.root());
        if root.actual_rows >= 1.0 {
            log_errors.push((root.est_rows / root.actual_rows).ln().abs());
        }
    }
    let mean: f64 = log_errors.iter().sum::<f64>() / log_errors.len() as f64;
    assert!(mean > 0.01, "optimizer estimates suspiciously perfect");
    assert!(
        mean < 5.0,
        "optimizer estimates absurdly bad (mean ln err {mean})"
    );
}

/// The analytic optimizer's picks, pinned: an FNV-1a digest over the plans
/// `plan` picks for 200 generated queries on two suite databases. Each plan
/// adds its node types, scan tables and child counts in preorder, and no
/// estimate, so the digest moves only when a pick does. The queries reach
/// past `DP_AUTO_MAX` relations, so both the DP and the greedy enumeration
/// feed it.
#[test]
fn analytic_picks_match_the_pinned_digest() {
    fn preorder(p: &PhysPlan, out: &mut Vec<u8>) {
        out.push(p.node_type() as u8);
        if let ExecOp::Scan { table, .. } = *p.exec {
            out.extend(table.0.to_le_bytes());
        }
        out.push(p.children().len() as u8);
        for c in p.children() {
            preorder(c, out);
        }
    }
    let cm = CostModel::default();
    let mut bytes = Vec::new();
    let mut widest = 0;
    for id in [0, 1] {
        let db = generate_database(&suite_specs()[id], 0.05);
        let gen = ComplexWorkloadGen {
            max_joins: 11,
            ..ComplexWorkloadGen::default()
        };
        for q in gen.generate(&db, 100) {
            widest = widest.max(q.tables.len());
            preorder(&plan(&db, &q, &cm).unwrap(), &mut bytes);
        }
    }
    assert!(widest > DP_AUTO_MAX, "no query reached the greedy path");
    assert_eq!(fnv1a64(&bytes), 0xa28b_f71d_91f2_44f9);
}

/// The JSON shape of plan trees, pinned: an FNV-1a digest over
/// `serde_json::to_string` of 200 executed plans (estimates, labels and
/// payloads) from two suite databases. The in-memory representation may
/// change (inline children, shared names, an exact-size arena), but the
/// text must not: `"children":[1]`, names as plain strings, fields in
/// declaration order. Saved datasets and the surgical-JSON validation tests
/// rely on it. The constant is what the representation before that change
/// (a child `Vec` and owned strings per node) produced.
#[test]
fn plan_json_matches_the_pinned_digest() {
    let mut text = String::new();
    let mut plans = 0;
    for id in [2, 7] {
        let db = generate_database(&suite_specs()[id], 0.05);
        let queries = ComplexWorkloadGen::default().generate(&db, 100);
        for p in collect_dataset(&db, &queries, MachineId::M1).plans {
            text.push_str(&serde_json::to_string(&p.tree).unwrap());
            text.push('\n');
            plans += 1;
        }
    }
    assert_eq!(plans, 200);
    assert!(text.contains("\"children\":[") && text.contains("\"table_name\":\""));
    assert_eq!(fnv1a64(text.as_bytes()), 0x91d7_66e7_c29b_e3f6);
}
