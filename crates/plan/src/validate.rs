//! Input hardening: non-panicking structural and numeric validation of
//! [`PlanTree`] values.
//!
//! [`TreeBuilder`](crate::TreeBuilder) cannot produce a malformed tree, but
//! plans also arrive from outside the builder — deserialized from JSON, or
//! handed to the serving layer by an untrusted client — and every structural
//! accessor (`dfs`, `heights`, `ancestor_matrix`) indexes the arena without
//! bounds recovery. [`validate_plan`] re-checks everything those accessors
//! assume, returning a typed error instead of panicking, and additionally
//! rejects the hostile *values* a learned estimator must never featurize:
//! NaN/Inf estimated cost or cardinality, and trees deeper than a
//! configurable limit (an attention mask is `O(n²)`, so depth bounds are the
//! serving layer's admission defense against quadratic blowup).

use crate::tree::PlanTree;

/// Default depth limit for [`validate_plan`] callers that have no better
/// number: far above any plan a real optimizer emits (PostgreSQL plans are
/// rarely deeper than a few tens of nodes), low enough to bound the `O(n²)`
/// attention mask an adversarial chain would inflate.
pub const DEFAULT_MAX_PLAN_DEPTH: usize = 512;

/// Why a plan failed validation. Every variant names the first offending
/// node (arena index) where one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanValidationError {
    /// The arena holds no nodes at all (only constructible by
    /// deserialization — the builder requires a root).
    EmptyTree,
    /// The root id points outside the arena.
    RootOutOfRange {
        /// The out-of-range root index.
        root: usize,
        /// Number of nodes in the arena.
        len: usize,
    },
    /// A node would get more than [`ChildIds::MAX`](crate::ChildIds::MAX)
    /// children ([`TreeBuilder::try_internal`](crate::TreeBuilder::try_internal);
    /// a deserialized node with too many is a serde error, and a built
    /// tree cannot hold one).
    TooManyChildren {
        /// The node that would hold them.
        node: usize,
        /// Children asked for.
        count: usize,
    },
    /// A node lists a child outside the arena.
    ChildOutOfRange {
        /// The node holding the bad edge.
        node: usize,
        /// The out-of-range child index.
        child: usize,
        /// Number of nodes in the arena.
        len: usize,
    },
    /// A node is reachable from the root through two different paths (the
    /// arena encodes a DAG or a cycle, not a tree).
    NotATree {
        /// The first node found reachable twice.
        node: usize,
    },
    /// Some arena nodes are unreachable from the root.
    UnreachableNodes {
        /// Nodes reached from the root.
        reached: usize,
        /// Nodes in the arena.
        len: usize,
    },
    /// The tree is deeper than the caller's limit.
    TooDeep {
        /// Measured depth (root = 0).
        depth: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A node carries a NaN/Inf (or `< -1`, whose `ln(1 + x)` is undefined)
    /// estimated cost.
    NonFiniteCost {
        /// The offending node.
        node: usize,
    },
    /// A node carries a NaN/Inf (or `< -1`) estimated cardinality.
    NonFiniteRows {
        /// The offending node.
        node: usize,
    },
}

impl std::fmt::Display for PlanValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanValidationError::EmptyTree => write!(f, "plan has no nodes"),
            PlanValidationError::RootOutOfRange { root, len } => {
                write!(f, "root {root} outside arena of {len} nodes")
            }
            PlanValidationError::TooManyChildren { node, count } => {
                write!(
                    f,
                    "node {node} has {count} children; a plan node has at most {}",
                    crate::ChildIds::MAX
                )
            }
            PlanValidationError::ChildOutOfRange { node, child, len } => {
                write!(
                    f,
                    "node {node} lists child {child} outside arena of {len} nodes"
                )
            }
            PlanValidationError::NotATree { node } => {
                write!(f, "node {node} reachable twice — not a tree")
            }
            PlanValidationError::UnreachableNodes { reached, len } => {
                write!(f, "only {reached} of {len} nodes reachable from the root")
            }
            PlanValidationError::TooDeep { depth, limit } => {
                write!(f, "plan depth {depth} exceeds limit {limit}")
            }
            PlanValidationError::NonFiniteCost { node } => {
                write!(f, "node {node} has a non-finite estimated cost")
            }
            PlanValidationError::NonFiniteRows { node } => {
                write!(f, "node {node} has a non-finite estimated cardinality")
            }
        }
    }
}

impl std::error::Error for PlanValidationError {}

/// Check whether `x` survives the featurizer's `ln(1 + x)` transform.
#[inline]
fn featurizable(x: f64) -> bool {
    x.is_finite() && x > -1.0
}

/// Validate a plan before featurization: structure (every structural
/// accessor's preconditions, checked without panicking), depth against
/// `max_depth` (root = depth 0; `0` disables the depth check), and numeric
/// sanity of every node's estimated cost and cardinality.
///
/// Returns the first violation found; a plan that passes is safe to run
/// through `dfs`/`heights`/`ancestor_matrix` and to featurize into finite
/// features.
pub fn validate_plan(tree: &PlanTree, max_depth: usize) -> Result<(), PlanValidationError> {
    let len = tree.len();
    if len == 0 {
        return Err(PlanValidationError::EmptyTree);
    }
    let root = tree.root().index();
    if root >= len {
        return Err(PlanValidationError::RootOutOfRange { root, len });
    }
    // Iterative DFS with explicit bookkeeping: bounds-check every edge
    // before following it, detect re-reachability, and track depth.
    let mut seen = vec![false; len];
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    let mut reached = 0usize;
    while let Some((idx, depth)) = stack.pop() {
        if seen[idx] {
            return Err(PlanValidationError::NotATree { node: idx });
        }
        seen[idx] = true;
        reached += 1;
        if max_depth > 0 && depth > max_depth {
            return Err(PlanValidationError::TooDeep {
                depth,
                limit: max_depth,
            });
        }
        let node = tree.node(crate::NodeId(idx as u32));
        if !featurizable(node.est_cost) {
            return Err(PlanValidationError::NonFiniteCost { node: idx });
        }
        if !featurizable(node.est_rows) {
            return Err(PlanValidationError::NonFiniteRows { node: idx });
        }
        for &c in &node.children {
            let ci = c.index();
            if ci >= len {
                return Err(PlanValidationError::ChildOutOfRange {
                    node: idx,
                    child: ci,
                    len,
                });
            }
            stack.push((ci, depth + 1));
        }
    }
    if reached != len {
        return Err(PlanValidationError::UnreachableNodes { reached, len });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{OpPayload, PlanNode};
    use crate::node_type::NodeType;
    use crate::tree::TreeBuilder;

    fn chain(depth: usize) -> PlanTree {
        let mut b = TreeBuilder::new();
        let mut id = b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other));
        for _ in 0..depth {
            id = b.internal(PlanNode::new(NodeType::Sort, OpPayload::Other), &[id]);
        }
        b.finish(id)
    }

    #[test]
    fn builder_trees_validate() {
        assert_eq!(validate_plan(&chain(10), DEFAULT_MAX_PLAN_DEPTH), Ok(()));
        assert_eq!(
            validate_plan(&PlanTree::singleton(NodeType::SeqScan, OpPayload::Other), 1),
            Ok(())
        );
    }

    #[test]
    fn depth_limit_rejects_deep_chains() {
        let t = chain(20);
        assert_eq!(validate_plan(&t, 0), Ok(()), "0 disables the depth check");
        assert_eq!(validate_plan(&t, 64), Ok(()));
        assert!(matches!(
            validate_plan(&t, 8),
            Err(PlanValidationError::TooDeep { depth: _, limit: 8 })
        ));
    }

    #[test]
    fn non_finite_estimates_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0] {
            let mut t = chain(2);
            let root = t.root();
            t.node_mut(root).est_cost = bad;
            assert!(matches!(
                validate_plan(&t, 0),
                Err(PlanValidationError::NonFiniteCost { .. })
            ));
            let mut t = chain(2);
            let root = t.root();
            t.node_mut(root).est_rows = bad;
            assert!(matches!(
                validate_plan(&t, 0),
                Err(PlanValidationError::NonFiniteRows { .. })
            ));
        }
    }

    /// Deserialize a surgically-edited copy of a serialized chain(2) tree
    /// (nodes: leaf 0, Sort 1 → [0], Sort 2 → [1]; root 2). Edits must keep
    /// the JSON parseable — validation, not serde, is under test.
    fn corrupted(from: &str, to: &str) -> PlanTree {
        let json = serde_json::to_string(&chain(2)).unwrap();
        assert!(json.contains(from), "edit target {from:?} not in {json}");
        serde_json::from_str(&json.replacen(from, to, 1)).unwrap()
    }

    #[test]
    fn structural_corruption_is_rejected_not_panicked() {
        // Structurally-invalid trees can only arrive through deserialization;
        // forge them with serde to exercise exactly that path.

        // Root out of range.
        assert!(matches!(
            validate_plan(&corrupted("\"root\":2", "\"root\":99"), 0),
            Err(PlanValidationError::RootOutOfRange { root: 99, len: 3 })
        ));

        // Child edge out of range (node 2's edge to node 1 rewritten to 7).
        assert!(matches!(
            validate_plan(&corrupted("\"children\":[1]", "\"children\":[7]"), 0),
            Err(PlanValidationError::ChildOutOfRange { child: 7, .. })
        ));

        // Node 1 reachable twice: not a tree.
        assert!(matches!(
            validate_plan(&corrupted("\"children\":[1]", "\"children\":[1,1]"), 0),
            Err(PlanValidationError::NotATree { node: 1 })
        ));

        // Orphaned node: root points at the leaf, stranding both Sorts.
        assert!(matches!(
            validate_plan(&corrupted("\"root\":2", "\"root\":0"), 0),
            Err(PlanValidationError::UnreachableNodes { reached: 1, len: 3 })
        ));
    }

    #[test]
    fn a_third_child_is_an_error_not_a_panic() {
        // By deserialization: the node list is fine JSON, but no node can
        // hold it, so parsing fails instead of truncating or panicking.
        let json = serde_json::to_string(&chain(2)).unwrap();
        let forged = json.replacen("\"children\":[1]", "\"children\":[1,0,1]", 1);
        assert_ne!(json, forged);
        let err = serde_json::from_str::<PlanTree>(&forged).unwrap_err();
        assert!(err.to_string().contains("at most 2 children"), "{err}");

        // By the builder: `try_internal` reports it and adds nothing.
        let mut b = TreeBuilder::new();
        let leaves: Vec<_> = (0..3)
            .map(|_| b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other)))
            .collect();
        assert_eq!(
            b.try_internal(PlanNode::new(NodeType::HashJoin, OpPayload::Other), &leaves),
            Err(PlanValidationError::TooManyChildren { node: 3, count: 3 })
        );
        assert_eq!(
            b.try_internal(
                PlanNode::new(NodeType::Sort, OpPayload::Other),
                &[crate::NodeId(5)]
            ),
            Err(PlanValidationError::ChildOutOfRange {
                node: 3,
                child: 5,
                len: 3
            })
        );
        let join = b
            .try_internal(
                PlanNode::new(NodeType::HashJoin, OpPayload::Other),
                &leaves[..2],
            )
            .unwrap();
        assert_eq!(join, crate::NodeId(3), "a rejected node takes no slot");
    }
}
