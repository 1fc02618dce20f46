//! Shared plan featurization for the predicate-learning baselines.
//!
//! Unlike DACE, the within-database models encode *data characteristics*:
//! which tables and columns a query touches and what its predicates look
//! like. Identifiers are hashed into fixed-size one-hot buckets — faithful
//! to how MSCN/TPool bind their encodings to one schema, and exactly why
//! these models cannot transfer across databases (bucket collisions carry
//! no cross-schema meaning).

use dace_nn::{RobustScaler, Tensor2};
use dace_plan::{CmpOp, Dataset, OpPayload, PlanTree, PredicateInfo, NODE_TYPE_COUNT};

/// One-hot hash space for table/column identifiers.
pub const HASH_BUCKETS: usize = 32;

/// Per-element width of the table set encoding.
pub const TABLE_FEAT: usize = HASH_BUCKETS;
/// Per-element width of the join set encoding (two hashed columns).
pub const JOIN_FEAT: usize = 2 * HASH_BUCKETS;
/// Per-element width of the predicate set encoding
/// (hashed column + op one-hot + two literal ranks + selectivity).
pub const PRED_FEAT: usize = HASH_BUCKETS + CmpOp::COUNT + 3;

#[inline]
fn bucket(id: u32) -> usize {
    // Fibonacci hashing spreads consecutive ids across buckets.
    ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % HASH_BUCKETS
}

/// Hashed one-hot encodings of the tables a plan scans.
pub fn plan_tables(tree: &PlanTree) -> Vec<Vec<f32>> {
    tree.scan_nodes()
        .iter()
        .filter_map(|&id| tree.node(id).payload.as_scan())
        .map(|scan| {
            let mut v = vec![0.0; TABLE_FEAT];
            v[bucket(scan.table_id)] = 1.0;
            v
        })
        .collect()
}

/// Hashed encodings of the plan's join conditions.
pub fn plan_joins(tree: &PlanTree) -> Vec<Vec<f32>> {
    tree.ids()
        .filter_map(|id| tree.node(id).payload.as_join())
        .map(|join| {
            let mut v = vec![0.0; JOIN_FEAT];
            v[bucket(join.left_column)] = 1.0;
            v[HASH_BUCKETS + bucket(join.right_column)] = 1.0;
            v
        })
        .collect()
}

/// Encodings of the plan's filter predicates.
pub fn plan_predicates(tree: &PlanTree) -> Vec<Vec<f32>> {
    let mut out = Vec::new();
    for id in tree.ids() {
        if let OpPayload::Scan(scan) = &tree.node(id).payload {
            for p in &scan.predicates {
                out.push(encode_predicate(p));
            }
        }
    }
    out
}

fn encode_predicate(p: &PredicateInfo) -> Vec<f32> {
    let mut v = vec![0.0; PRED_FEAT];
    v[bucket(p.column_id)] = 1.0;
    v[HASH_BUCKETS + p.op.index()] = 1.0;
    let base = HASH_BUCKETS + CmpOp::COUNT;
    v[base] = p.literal_rank as f32;
    v[base + 1] = p.literal_rank_hi as f32;
    v[base + 2] = p.est_selectivity as f32;
    v
}

/// Per-node feature width used by the plan-structured baselines
/// (QPPNet / TPool / QueryFormer / Zero-Shot): node-type one-hot plus
/// scaled log cost and log cardinality, the same information DACE sees.
pub const NODE_FEAT: usize = NODE_TYPE_COUNT + 2;

/// Scalers for node cost/cardinality features; fit on training plans.
#[derive(Debug, Clone)]
pub struct NodeScalers {
    /// Scaler over log cost.
    pub cost: RobustScaler,
    /// Scaler over log cardinality.
    pub card: RobustScaler,
}

impl NodeScalers {
    /// Fit over all nodes of all plans.
    pub fn fit(train: &Dataset) -> NodeScalers {
        let mut costs = Vec::new();
        let mut cards = Vec::new();
        for p in &train.plans {
            for id in p.tree.ids() {
                let n = p.tree.node(id);
                costs.push((1.0 + n.est_cost).ln());
                cards.push((1.0 + n.est_rows).ln());
            }
        }
        NodeScalers {
            cost: RobustScaler::fit(&costs),
            card: RobustScaler::fit(&cards),
        }
    }
}

/// Per-node features of a whole plan in DFS order (`n × NODE_FEAT`).
pub fn node_features(tree: &PlanTree, scalers: &NodeScalers) -> Tensor2 {
    let order = tree.dfs();
    let mut x = Tensor2::zeros(order.len(), NODE_FEAT);
    for (i, &id) in order.iter().enumerate() {
        let node = tree.node(id);
        let row = x.row_mut(i);
        row[node.node_type.one_hot_index()] = 1.0;
        row[NODE_TYPE_COUNT] = scalers.cost.transform((1.0 + node.est_cost).ln()) as f32;
        row[NODE_TYPE_COUNT + 1] = scalers.card.transform((1.0 + node.est_rows).ln()) as f32;
    }
    x
}

/// Debug-check the traversal assumption every bottom-up baseline forward
/// pass relies on: [`PlanTree::dfs`] is a *preorder* (parent before
/// children), so iterating it **reversed** visits every child before its
/// parent, and a parent may read its children's caches unconditionally.
///
/// The property holds for any valid tree (`TreeBuilder::finish` validates
/// single-reachability), so this compiles to nothing in release builds; it
/// exists to fail loudly if the traversal or builder contract ever changes
/// instead of surfacing as an opaque `unwrap` on an empty cache slot.
pub fn debug_assert_child_before_parent(tree: &PlanTree) {
    if cfg!(debug_assertions) {
        let order = tree.dfs();
        let mut pos = vec![usize::MAX; tree.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for &id in &order {
            for &c in &tree.node(id).children {
                debug_assert!(
                    pos[c.index()] > pos[id.index()],
                    "DFS preorder must place parent {id:?} before child {c:?}: \
                     bottom-up passes iterate it reversed and read child caches \
                     before the parent's"
                );
            }
        }
    }
}

/// Feature vector of a single node (same layout as [`node_features`] rows).
pub fn single_node_features(
    tree: &PlanTree,
    id: dace_plan::NodeId,
    scalers: &NodeScalers,
) -> Vec<f32> {
    let node = tree.node(id);
    let mut row = vec![0.0; NODE_FEAT];
    row[node.node_type.one_hot_index()] = 1.0;
    row[NODE_TYPE_COUNT] = scalers.cost.transform((1.0 + node.est_cost).ln()) as f32;
    row[NODE_TYPE_COUNT + 1] = scalers.card.transform((1.0 + node.est_rows).ln()) as f32;
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_plan::{JoinInfo, LabeledPlan, MachineId, NodeType, PlanNode, ScanInfo, TreeBuilder};

    fn labeled_join_plan() -> LabeledPlan {
        let mut b = TreeBuilder::new();
        let s1 = b.leaf(PlanNode::new(
            NodeType::SeqScan,
            OpPayload::Scan(ScanInfo {
                table_id: 3,
                table_name: "t3".into(),
                predicates: vec![PredicateInfo {
                    column_id: 7,
                    op: CmpOp::Gt,
                    literal_rank: 0.4,
                    literal_rank_hi: 0.0,
                    est_selectivity: 0.6,
                }],
            }),
        ));
        let s2 = b.leaf(PlanNode::new(
            NodeType::IndexScan,
            OpPayload::Scan(ScanInfo {
                table_id: 9,
                table_name: "t9".into(),
                predicates: vec![],
            }),
        ));
        let j = b.internal(
            PlanNode::new(
                NodeType::HashJoin,
                OpPayload::Join(JoinInfo {
                    left_column: 193,
                    right_column: 576,
                    condition: "a = b".into(),
                }),
            ),
            &[s1, s2],
        );
        LabeledPlan {
            tree: b.finish(j),
            db_id: 0,
            machine: MachineId::M1,
        }
    }

    #[test]
    fn set_featurization_shapes() {
        let plan = labeled_join_plan();
        let tables = plan_tables(&plan.tree);
        let joins = plan_joins(&plan.tree);
        let preds = plan_predicates(&plan.tree);
        assert_eq!(tables.len(), 2);
        assert_eq!(joins.len(), 1);
        assert_eq!(preds.len(), 1);
        assert_eq!(tables[0].len(), TABLE_FEAT);
        assert_eq!(joins[0].len(), JOIN_FEAT);
        assert_eq!(preds[0].len(), PRED_FEAT);
        // One-hot bits set.
        assert_eq!(tables[0].iter().filter(|&&v| v == 1.0).count(), 1);
        assert_eq!(joins[0].iter().filter(|&&v| v == 1.0).count(), 2);
        // Predicate literal and selectivity present.
        let base = HASH_BUCKETS + CmpOp::COUNT;
        assert!((preds[0][base] - 0.4).abs() < 1e-6);
        assert!((preds[0][base + 2] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn node_features_match_dfs_order() {
        let plan = labeled_join_plan();
        let ds = Dataset::from_plans(vec![plan.clone()]);
        let scalers = NodeScalers::fit(&ds);
        let x = node_features(&plan.tree, &scalers);
        assert_eq!(x.rows(), 3);
        assert_eq!(x.cols(), NODE_FEAT);
        // DFS: join, scan1, scan2.
        assert_eq!(x.get(0, NodeType::HashJoin.one_hot_index()), 1.0);
        assert_eq!(x.get(1, NodeType::SeqScan.one_hot_index()), 1.0);
        assert_eq!(x.get(2, NodeType::IndexScan.one_hot_index()), 1.0);
        // Single-node features agree with batch rows.
        let order = plan.tree.dfs();
        let single = single_node_features(&plan.tree, order[1], &scalers);
        assert_eq!(single, x.row(1).to_vec());
    }

    #[test]
    fn hashing_is_stable_and_in_range() {
        for id in 0..1000u32 {
            let b = bucket(id);
            assert!(b < HASH_BUCKETS);
            assert_eq!(b, bucket(id));
        }
    }
}
