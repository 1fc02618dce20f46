//! Plan-search guarantees: the driven search must reproduce the analytic
//! planner exactly under the analytic scorer, DP must dominate greedy under
//! the analytic model, typed plan errors must replace panics, and the score
//! memo must be invisible to search results while counting shared sub-trees
//! correctly, and keying and featurizing a candidate from what its
//! `PhysPlan` cached must match fingerprinting and featurizing its
//! `PlanTree` bit for bit.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use dace_catalog::{generate_database, suite_specs, Database, TableId};
use dace_core::{log_feature, DaceEstimator, FeatureConfig, TrainConfig, Trainer};
use dace_engine::{
    collect_dataset, execute, plan, plan_with_strategy, AnalyticScorer, CostModel,
    CrossMachineRouter, HybridScorer, JoinStrategy, LearnedScorer, MachineProfile, PhysPlan,
    PlanError, PlanScorer, SearchSession, MAX_RELATIONS,
};
use dace_plan::{MachineId, NodeType};
use dace_query::{ComplexWorkloadGen, Query};
use dace_serve::ModelRegistry;
use proptest::prelude::*;

fn test_db() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| generate_database(&suite_specs()[2], 0.05))
}

/// A small DACE trained on this database's own workload — enough signal for
/// the learned scorer to produce meaningful (and deterministic) scores.
fn test_estimator() -> &'static DaceEstimator {
    static EST: OnceLock<DaceEstimator> = OnceLock::new();
    EST.get_or_init(|| {
        let db = test_db();
        let queries = ComplexWorkloadGen::default().generate(db, 80);
        let data = collect_dataset(db, &queries, MachineId::M1);
        Trainer::new(TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        })
        .fit(&data)
        .expect("training the test estimator")
    })
}

#[test]
fn analytic_search_is_bit_identical_to_planner() {
    let db = test_db();
    let cm = CostModel::default();
    let session = SearchSession::new(db, &cm);
    let queries = ComplexWorkloadGen::default().generate(db, 120);
    for strategy in [JoinStrategy::Auto, JoinStrategy::Dp, JoinStrategy::Greedy] {
        for q in &queries {
            let direct = plan_with_strategy(db, q, &cm, strategy).unwrap();
            let (searched, report) = session
                .plan_with_strategy(q, &mut AnalyticScorer, strategy)
                .unwrap();
            assert_eq!(
                searched, direct,
                "analytic-scored search diverged from the planner ({strategy:?})"
            );
            assert!(report.candidates_scored >= 1);
            assert!(report.decision_groups >= q.tables.len());
        }
    }
}

#[test]
fn empty_table_list_is_a_typed_error() {
    let db = test_db();
    let q = Query {
        db_id: db.db_id(),
        tables: vec![],
        joins: vec![],
        predicates: vec![],
        group_by: None,
        aggregates: vec![],
        limit: None,
    };
    assert_eq!(
        plan(db, &q, &CostModel::default()).unwrap_err(),
        PlanError::EmptyTableList
    );
    let cm = CostModel::default();
    let err = SearchSession::new(db, &cm)
        .plan(&q, &mut AnalyticScorer)
        .unwrap_err();
    assert_eq!(err, PlanError::EmptyTableList);
    assert_eq!(err.to_string(), "query references no tables");
}

#[test]
fn too_many_relations_is_a_typed_error() {
    let db = test_db();
    let q = Query {
        db_id: db.db_id(),
        tables: vec![TableId(0); MAX_RELATIONS + 1],
        joins: vec![],
        predicates: vec![],
        group_by: None,
        aggregates: vec![],
        limit: None,
    };
    match plan(db, &q, &CostModel::default()) {
        Err(PlanError::TooManyRelations { count, cap }) => {
            assert_eq!(count, MAX_RELATIONS + 1);
            assert_eq!(cap, MAX_RELATIONS);
        }
        other => panic!("expected TooManyRelations, got {other:?}"),
    }
}

#[test]
fn disconnected_join_graph_is_a_typed_error() {
    let db = test_db();
    // Two tables, no join edge between them.
    let q = Query {
        db_id: db.db_id(),
        tables: vec![TableId(0), TableId(1)],
        joins: vec![],
        predicates: vec![],
        group_by: None,
        aggregates: vec![],
        limit: None,
    };
    assert_eq!(
        plan(db, &q, &CostModel::default()).unwrap_err(),
        PlanError::DisconnectedJoinGraph
    );
    assert_eq!(
        plan_with_strategy(db, &q, &CostModel::default(), JoinStrategy::Greedy).unwrap_err(),
        PlanError::DisconnectedJoinGraph
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DP dominance: on queries the DP enumerator handles (≤ 9 relations),
    /// exhaustive enumeration never produces a costlier plan than the
    /// greedy heuristic — the plan-cost guard for the DP path the learned
    /// scorer reuses. (Aggregates/limits are kept: both sit deterministically
    /// on top of the join result, so dominance carries through.)
    #[test]
    fn greedy_never_beats_dp_under_analytic_model(seed in 0u64..400) {
        let db = test_db();
        let cm = CostModel::default();
        let gen = ComplexWorkloadGen { max_joins: 8, seed, ..ComplexWorkloadGen::default() };
        for q in gen.generate(db, 4) {
            if q.tables.len() < 2 {
                continue;
            }
            let dp = plan_with_strategy(db, &q, &cm, JoinStrategy::Dp).unwrap();
            let greedy = plan_with_strategy(db, &q, &cm, JoinStrategy::Greedy).unwrap();
            prop_assert!(
                dp.est_cost() <= greedy.est_cost() * (1.0 + 1e-9),
                "DP plan cost {} exceeds greedy cost {} on {} tables",
                dp.est_cost(), greedy.est_cost(), q.tables.len()
            );
        }
    }
}

/// The analytic scorer, keeping a copy of every candidate it is shown.
struct Capture(Vec<PhysPlan>);

impl PlanScorer for Capture {
    fn name(&self) -> &'static str {
        "capture"
    }

    fn score(&mut self, cands: &[PhysPlan], _groups: &[Range<usize>]) -> Vec<f64> {
        self.0.extend_from_slice(cands);
        cands.iter().map(|c| c.est_cost()).collect()
    }
}

/// The test estimator's weights under another featurizer variant.
fn variant_estimator(config: FeatureConfig) -> DaceEstimator {
    let mut est = test_estimator().clone();
    est.featurizer.config = config;
    est
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The learned scorer keys a candidate by the Merkle hash its
    /// `PhysPlan` cached and encodes it from the cached logs. For every
    /// candidate of every DP level and greedy round, under every featurizer
    /// variant the scorer accepts, that must be exactly the fingerprint and
    /// the feature rows of the `PlanTree` path. Executed picks (actuals
    /// filled in) go through the `PlanTree` path, whose mask and heights
    /// must match the tree's own ancestor matrix and heights.
    #[test]
    fn physplan_featurization_matches_plan_tree(seed in 0u64..1_000_000, variant in 0usize..2) {
        let disable_tree_attention = variant == 1;
        let db = test_db();
        let cm = CostModel::default();
        let est = variant_estimator(FeatureConfig {
            use_actual_cardinality: false,
            disable_tree_attention,
        });
        let featurizer = &est.featurizer;
        let mut scorer = LearnedScorer::new(&est, 0);
        let gen = ComplexWorkloadGen { seed, ..ComplexWorkloadGen::default() };
        let mut capture = Capture(Vec::new());
        let mut picks = Vec::new();
        for (i, q) in gen.generate(db, 3).iter().enumerate() {
            for strategy in [JoinStrategy::Dp, JoinStrategy::Greedy] {
                let Ok((mut pick, _)) =
                    SearchSession::new(db, &cm).plan_with_strategy(q, &mut capture, strategy)
                else {
                    continue;
                };
                execute(db, &mut pick);
                MachineProfile::m1().apply(db, &mut pick, i as u64);
                picks.push(pick);
            }
        }
        prop_assert!(!capture.0.is_empty());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for c in &capture.0 {
            let tree = c.to_plan_tree();
            prop_assert_eq!(scorer.key(c), featurizer.fingerprint(&tree));
            let via_tree = featurizer.encode(&tree);
            prop_assert_eq!(bits(scorer.encode(c).as_slice()), bits(via_tree.x.as_slice()));
        }
        for p in picks.iter().chain(&capture.0) {
            let tree = p.to_plan_tree();
            let feats = featurizer.encode(&tree);
            prop_assert_eq!(&feats.heights, &tree.heights());
            if disable_tree_attention {
                prop_assert!(feats.mask.iter().all(|&m| m));
            } else {
                prop_assert_eq!(&feats.mask, &tree.ancestor_matrix());
            }
        }
    }
}

#[test]
#[should_panic(expected = "use_actual_cardinality")]
fn learned_scorer_rejects_the_dace_a_featurizer() {
    let est = variant_estimator(FeatureConfig {
        use_actual_cardinality: true,
        disable_tree_attention: false,
    });
    let _ = LearnedScorer::new(&est, 16);
}

/// Every node of `plan`, parents before children.
fn all_nodes<'p>(plan: &'p PhysPlan, out: &mut Vec<&'p PhysPlan>) {
    out.push(plan);
    for c in plan.children() {
        all_nodes(c, out);
    }
}

/// A sub-plan as its fingerprint sees it: per node in preorder, the
/// operator, the child count and both logs in their 1/64-nat cells.
type Cells = Vec<(NodeType, usize, i64, i64)>;

fn cells(plan: &PhysPlan, out: &mut Cells) {
    let cell = |x: f64| (log_feature(x) * 64.0).round() as i64;
    out.push((
        plan.node_type(),
        plan.children().len(),
        cell(plan.est_cost()),
        cell(plan.est_rows()),
    ));
    for c in plan.children() {
        cells(c, out);
    }
}

/// Pins the Merkle key's structural properties: swapping a join's inputs
/// changes it, and across every node of every DP candidate the key is
/// exactly the sub-plan's cells — equal sub-plans key equal wherever the
/// enumeration rebuilt them (a `Hash` or `Sort` over the same DP entry
/// under different splits), and distinct ones never share a key.
#[test]
fn merkle_keys_follow_child_order_and_share_equal_subtrees() {
    let db = test_db();
    let cm = CostModel::default();
    let scorer = LearnedScorer::new(test_estimator(), 0);
    let session = SearchSession::new(db, &cm);
    let queries: Vec<Query> = ComplexWorkloadGen {
        max_joins: 4,
        ..ComplexWorkloadGen::default()
    }
    .generate(db, 40)
    .into_iter()
    .filter(|q| q.tables.len() >= 3)
    .take(4)
    .collect();
    assert!(!queries.is_empty());

    // Greedy rounds try every fragment pair in both orders, so their
    // merge-join candidates come in child-swapped pairs.
    let mut swapped = 0;
    for q in &queries {
        let mut capture = Capture(Vec::new());
        session
            .plan_with_strategy(q, &mut capture, JoinStrategy::Greedy)
            .unwrap();
        let merges: Vec<&PhysPlan> = capture
            .0
            .iter()
            .filter(|c| c.node_type() == NodeType::MergeJoin)
            .collect();
        for a in &merges {
            for b in &merges {
                if a.children()[0] == b.children()[1]
                    && a.children()[1] == b.children()[0]
                    && a.children()[0] != a.children()[1]
                {
                    assert_ne!(scorer.key(a), scorer.key(b), "swapped join inputs");
                    swapped += 1;
                }
            }
        }
    }
    assert!(swapped > 0, "greedy enumeration must emit swapped joins");

    let mut rebuilt = 0;
    let mut first: HashMap<Cells, (u64, *const PhysPlan)> = HashMap::new();
    let mut cells_of: HashMap<u64, Cells> = HashMap::new();
    for q in &queries {
        let mut capture = Capture(Vec::new());
        session
            .plan_with_strategy(q, &mut capture, JoinStrategy::Dp)
            .unwrap();
        let mut nodes = Vec::new();
        for c in &capture.0 {
            all_nodes(c, &mut nodes);
        }
        for n in nodes {
            let mut c = Cells::new();
            cells(n, &mut c);
            let key = scorer.key(n);
            let (seen_key, seen_at) = *first.entry(c.clone()).or_insert((key, n));
            assert_eq!(seen_key, key, "equal sub-plans keyed apart");
            if !std::ptr::eq(seen_at, n) {
                rebuilt += 1;
            }
            assert_eq!(
                cells_of.entry(key).or_insert_with(|| c.clone()),
                &c,
                "distinct sub-plans share a key"
            );
        }
    }
    assert!(rebuilt > 0, "DP must rebuild some equal sub-plans");
}

#[test]
fn memo_enabled_search_is_bit_identical_to_memo_disabled() {
    let db = test_db();
    let cm = CostModel::default();
    let est = test_estimator();
    let session = SearchSession::new(db, &cm);
    let queries = ComplexWorkloadGen::default().generate(db, 40);

    let mut with_memo = LearnedScorer::new(est, 1 << 16);
    let mut without_memo = LearnedScorer::new(est, 0);
    for q in &queries {
        let (a, ra) = session.plan(q, &mut with_memo).unwrap();
        let (b, rb) = session.plan(q, &mut without_memo).unwrap();
        assert_eq!(a, b, "memoized search chose a different plan");
        assert_eq!(
            ra, rb,
            "memoized search enumerated a different candidate stream"
        );
    }
    assert!(
        with_memo.memo().hits() > 0,
        "a 40-query workload must share sub-trees"
    );
    assert_eq!(without_memo.memo().hits(), 0);
    // The memo saved exactly the shared scorings: the disabled run pushed
    // every candidate through the model, the enabled run only the distinct
    // fingerprints.
    assert!(with_memo.session().plans_scored() < without_memo.session().plans_scored());
}

#[test]
fn memo_hit_counts_match_shared_subtrees() {
    let db = test_db();
    let cm = CostModel::default();
    let est = test_estimator();
    let session = SearchSession::new(db, &cm);
    let q = ComplexWorkloadGen {
        max_joins: 5,
        ..ComplexWorkloadGen::default()
    }
    .generate(db, 30)
    .into_iter()
    .max_by_key(|q| q.tables.len())
    .unwrap();

    let mut scorer = LearnedScorer::new(est, 1 << 16);
    let (first_plan, first_report) = session.plan(&q, &mut scorer).unwrap();

    // Accounting identity for the first pass: every candidate either hit
    // the memo, missed it, and every miss is either a batch-local duplicate
    // or a fresh fingerprint now stored in the memo.
    let (hits1, misses1, dedup1) = (
        scorer.memo().hits(),
        scorer.memo().misses(),
        scorer.dedup_hits(),
    );
    assert_eq!(
        hits1 + misses1,
        first_report.candidates_scored as u64,
        "every candidate is looked up exactly once"
    );
    assert_eq!(
        scorer.memo().len() as u64,
        misses1 - dedup1,
        "memo stores exactly the distinct fingerprints"
    );
    assert_eq!(
        scorer.session().plans_scored(),
        misses1 - dedup1,
        "the model scores exactly the distinct sub-trees"
    );

    // Second pass over the same query: every sub-tree is shared with the
    // first pass, so every lookup must hit and the model stays cold.
    let scored_before = scorer.session().plans_scored();
    let (second_plan, second_report) = session.plan(&q, &mut scorer).unwrap();
    assert_eq!(second_plan, first_plan);
    assert_eq!(
        scorer.memo().hits() - hits1,
        second_report.candidates_scored as u64,
        "re-planning the same query must be 100% memo hits"
    );
    assert_eq!(scorer.memo().misses(), misses1);
    assert_eq!(scorer.session().plans_scored(), scored_before);
}

#[test]
fn hybrid_scorer_partitions_groups_and_plans_every_query() {
    let db = test_db();
    let cm = CostModel::default();
    let est = test_estimator();
    let session = SearchSession::new(db, &cm);
    let queries = ComplexWorkloadGen::default().generate(db, 30);
    // Median root cost at this scale is ~26 units; 15 splits scan-level
    // decisions (cheap) from join-level ones (expensive).
    let mut hybrid = HybridScorer::new(est, 1 << 14, 15.0);
    for q in &queries {
        let (p, _) = session.plan(q, &mut hybrid).unwrap();
        assert!(p.est_cost() > 0.0);
    }
    assert!(
        hybrid.learned_groups() > 0,
        "the threshold must route some decisions to the model"
    );
    assert!(
        hybrid.analytic_groups() > 0,
        "the threshold must leave some decisions analytic"
    );
}

#[test]
fn router_picks_the_machine_with_the_lower_prediction() {
    let db = test_db();
    let cm = CostModel::default();
    let est = test_estimator();

    // M2-tuned adapter: fine-tune the base on M2-labeled plans.
    let queries = ComplexWorkloadGen {
        seed: 0xBEEF,
        ..ComplexWorkloadGen::default()
    }
    .generate(db, 60);
    let m2_data = collect_dataset(db, &queries, MachineId::M2);
    let m2_est = est.fine_tuned_clone(&m2_data, 2, 1e-3).expect("fine-tune");

    let registry = ModelRegistry::new(est.clone());
    registry
        .install_estimator("m2", m2_est)
        .expect("install m2 adapter");
    let router = CrossMachineRouter::new(&registry, None, Some("m2".to_string()));

    let session = SearchSession::new(db, &cm);
    let mut scorer = LearnedScorer::new(est, 1 << 14);
    let mut m1_picks = 0usize;
    let mut m2_picks = 0usize;
    for q in ComplexWorkloadGen::default().generate(db, 20) {
        let (p, _) = session.plan(&q, &mut scorer).unwrap();
        let d = router.route(&p).expect("routing");
        match d.machine {
            MachineId::M1 => {
                assert!(d.m1_pred_ms <= d.m2_pred_ms);
                m1_picks += 1;
            }
            MachineId::M2 => {
                assert!(d.m2_pred_ms < d.m1_pred_ms);
                m2_picks += 1;
            }
        }
        assert!(d.m1_pred_ms > 0.0 && d.m2_pred_ms > 0.0);
    }
    assert_eq!(m1_picks + m2_picks, 20);
}
