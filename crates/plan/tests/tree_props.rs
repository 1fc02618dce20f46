//! Property tests over randomly generated plan trees: the structural
//! artifacts of Sec. IV-B must satisfy their invariants for *any* tree.

use dace_plan::{NodeType, OpPayload, PlanNode, PlanTree, TreeBuilder};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Build a random tree of up to `max_nodes` nodes from a seed (seeded RNG
/// keeps shrinking meaningful — the seed is the case).
fn random_tree(seed: u64, max_nodes: usize) -> PlanTree {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = TreeBuilder::new();
    // Build a random forest bottom-up, then join roots until one remains.
    let n_leaves = rng.gen_range(1..=max_nodes.max(2) / 2);
    let mut roots: Vec<dace_plan::NodeId> = (0..n_leaves)
        .map(|_| {
            let ty = NodeType::ALL[rng.gen_range(0..5)]; // scan types
            b.leaf(PlanNode::new(ty, OpPayload::Other))
        })
        .collect();
    while roots.len() > 1 {
        if roots.len() >= 2 && rng.gen_bool(0.6) {
            // Binary join node.
            let r = roots.swap_remove(rng.gen_range(0..roots.len()));
            let l = roots.swap_remove(rng.gen_range(0..roots.len()));
            let ty = [
                NodeType::HashJoin,
                NodeType::NestedLoop,
                NodeType::MergeJoin,
            ][rng.gen_range(0..3)];
            roots.push(b.internal(PlanNode::new(ty, OpPayload::Other), &[l, r]));
        } else {
            // Unary node on a random root.
            let c = roots.swap_remove(rng.gen_range(0..roots.len()));
            let ty = [
                NodeType::Sort,
                NodeType::Materialize,
                NodeType::HashAggregate,
                NodeType::Limit,
            ][rng.gen_range(0..4)];
            roots.push(b.internal(PlanNode::new(ty, OpPayload::Other), &[c]));
        }
    }
    let root = roots.pop().unwrap();
    // Occasionally add unary nodes on top.
    let mut root = root;
    for _ in 0..rng.gen_range(0..3) {
        root = b.internal(
            PlanNode::new(NodeType::GroupAggregate, OpPayload::Other),
            &[root],
        );
    }
    b.finish(root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dfs_is_a_permutation_with_parents_first(seed in 0u64..10_000) {
        let tree = random_tree(seed, 24);
        let dfs = tree.dfs();
        prop_assert_eq!(dfs.len(), tree.len());
        let mut pos = vec![usize::MAX; tree.len()];
        for (i, id) in dfs.iter().enumerate() {
            pos[id.index()] = i;
        }
        prop_assert!(pos.iter().all(|&p| p != usize::MAX), "not a permutation");
        // Preorder: every parent precedes its children.
        for id in tree.ids() {
            for &c in &tree.node(id).children {
                prop_assert!(pos[id.index()] < pos[c.index()]);
            }
        }
        // The root is first.
        prop_assert_eq!(dfs[0], tree.root());
    }

    #[test]
    fn ancestor_matrix_is_a_partial_order_consistent_with_parents(seed in 0u64..10_000) {
        let tree = random_tree(seed, 20);
        let n = tree.len();
        let order = tree.dfs();
        let m = tree.ancestor_matrix();
        let at = |i: usize, j: usize| m[i * n + j];
        // Axioms (Eq. 2): reflexive, antisymmetric, transitive.
        for i in 0..n {
            prop_assert!(at(i, i));
            for j in 0..n {
                if i != j {
                    prop_assert!(!(at(i, j) && at(j, i)));
                }
                for k in 0..n {
                    if at(i, j) && at(j, k) {
                        prop_assert!(at(i, k));
                    }
                }
            }
        }
        // Consistency with the parent relation: A[parent][child] = 1.
        let mut pos = vec![usize::MAX; n];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for id in tree.ids() {
            for &c in &tree.node(id).children {
                prop_assert!(at(pos[id.index()], pos[c.index()]));
                prop_assert!(!at(pos[c.index()], pos[id.index()]));
            }
        }
        // Row sums equal subtree sizes; the root's row is all ones.
        for j in 0..n {
            prop_assert!(at(0, j), "root must dominate everything");
        }
    }

    #[test]
    fn heights_increase_by_one_along_edges(seed in 0u64..10_000) {
        let tree = random_tree(seed, 24);
        let order = tree.dfs();
        let heights = tree.heights();
        let mut pos = vec![usize::MAX; tree.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        prop_assert_eq!(heights[0], 0);
        for id in tree.ids() {
            for &c in &tree.node(id).children {
                prop_assert_eq!(
                    heights[pos[c.index()]],
                    heights[pos[id.index()]] + 1
                );
            }
        }
    }

    #[test]
    fn subplan_extraction_is_consistent(seed in 0u64..10_000) {
        let tree = random_tree(seed, 16);
        for id in tree.ids() {
            let sub = tree.sub_plan(id);
            prop_assert_eq!(sub.node(sub.root()).node_type, tree.node(id).node_type);
            // Sub-plan size equals the ancestor-matrix row sum of the node.
            let order = tree.dfs();
            let pos = order.iter().position(|&x| x == id).unwrap();
            let n = tree.len();
            let m = tree.ancestor_matrix();
            let row_sum = (0..n).filter(|&j| m[pos * n + j]).count();
            prop_assert_eq!(sub.len(), row_sum);
        }
    }

    #[test]
    fn serde_roundtrip(seed in 0u64..2_000) {
        let tree = random_tree(seed, 16);
        let json = serde_json::to_string(&tree).unwrap();
        let back: PlanTree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(tree, back);
    }
}
