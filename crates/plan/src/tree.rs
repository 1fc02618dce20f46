//! Arena-backed plan trees and the structural artifacts of Sec. IV-B:
//! DFS order, ancestor (partial-order) matrix and node heights.

use std::ops::Deref;

use serde::{Deserialize, Serialize, Value};

use crate::node::{OpPayload, PlanNode};
use crate::node_type::NodeType;
use crate::validate::PlanValidationError;

/// Index of a node within its [`PlanTree`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The arena slot as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node's child ids, stored inline: no physical operator has more than
/// [`ChildIds::MAX`] inputs, so a node needs no heap list of its own.
///
/// Derefs to `&[NodeId]` (outer/probe side first for joins) and serializes
/// as that list. Deserializing a longer list is an error.
#[derive(Clone, Copy)]
pub struct ChildIds {
    ids: [NodeId; ChildIds::MAX],
    len: u8,
}

impl ChildIds {
    /// Most children a node can have.
    pub const MAX: usize = 2;

    /// The ids in `ids`, or `None` if there are more than [`ChildIds::MAX`].
    pub fn from_slice(ids: &[NodeId]) -> Option<ChildIds> {
        if ids.len() > ChildIds::MAX {
            return None;
        }
        let mut out = ChildIds::default();
        out.ids[..ids.len()].copy_from_slice(ids);
        out.len = ids.len() as u8;
        Some(out)
    }

    /// The ids, in plan order.
    #[inline]
    pub fn as_slice(&self) -> &[NodeId] {
        &self.ids[..self.len as usize]
    }
}

/// No children.
impl Default for ChildIds {
    fn default() -> ChildIds {
        ChildIds {
            ids: [NodeId(0); ChildIds::MAX],
            len: 0,
        }
    }
}

impl Deref for ChildIds {
    type Target = [NodeId];

    #[inline]
    fn deref(&self) -> &[NodeId] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a ChildIds {
    type Item = &'a NodeId;
    type IntoIter = std::slice::Iter<'a, NodeId>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl From<[NodeId; 1]> for ChildIds {
    fn from(ids: [NodeId; 1]) -> ChildIds {
        ChildIds::from_slice(&ids).expect("one child fits")
    }
}

impl From<[NodeId; 2]> for ChildIds {
    fn from(ids: [NodeId; 2]) -> ChildIds {
        ChildIds::from_slice(&ids).expect("two children fit")
    }
}

impl PartialEq for ChildIds {
    fn eq(&self, other: &ChildIds) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ChildIds {}

impl std::fmt::Debug for ChildIds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl Serialize for ChildIds {
    fn serialize(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl Deserialize for ChildIds {
    fn deserialize(v: &Value) -> Result<ChildIds, serde::Error> {
        let ids = Vec::<NodeId>::deserialize(v)?;
        ChildIds::from_slice(&ids).ok_or_else(|| {
            serde::Error::msg(format!(
                "a plan node has at most {} children, found {}",
                ChildIds::MAX,
                ids.len()
            ))
        })
    }
}

/// A physical query plan tree.
///
/// Nodes live in an arena of exactly the tree's length; `root` is the
/// tree's root node. Trees produced by [`TreeBuilder`] (and by the planner
/// in `dace-engine`) store nodes in DFS preorder, but no method here relies
/// on that: all structural accessors traverse explicitly from `root`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanTree {
    nodes: Box<[PlanNode]>,
    root: NodeId,
}

/// Builder for [`PlanTree`] values; children must be built before their
/// parent (bottom-up), mirroring how a planner assembles plans.
#[derive(Debug, Default)]
pub struct TreeBuilder {
    nodes: Vec<PlanNode>,
}

impl TreeBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        TreeBuilder { nodes: Vec::new() }
    }

    /// Empty builder for a tree of `len` nodes: the arena is allocated once,
    /// at its final size.
    pub fn with_capacity(len: usize) -> Self {
        TreeBuilder {
            nodes: Vec::with_capacity(len),
        }
    }

    /// Add a leaf node; returns its id.
    ///
    /// # Panics
    /// Panics if `node` already lists children.
    pub fn leaf(&mut self, node: PlanNode) -> NodeId {
        assert!(node.children.is_empty(), "leaf must have no children");
        self.push(node)
    }

    /// Add an internal node over existing children; returns its id.
    ///
    /// # Panics
    /// Panics where [`TreeBuilder::try_internal`] returns an error.
    pub fn internal(&mut self, node: PlanNode, children: &[NodeId]) -> NodeId {
        self.try_internal(node, children)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Add an internal node over existing children; returns its id, or
    /// [`PlanValidationError::TooManyChildren`] for more than
    /// [`ChildIds::MAX`] children and [`PlanValidationError::ChildOutOfRange`]
    /// for a child not built yet. On error nothing is added.
    pub fn try_internal(
        &mut self,
        mut node: PlanNode,
        children: &[NodeId],
    ) -> Result<NodeId, PlanValidationError> {
        // The node would take the next slot, so the arena's length is
        // both its id and the bound on its children's ids.
        let id = self.nodes.len();
        node.children =
            ChildIds::from_slice(children).ok_or(PlanValidationError::TooManyChildren {
                node: id,
                count: children.len(),
            })?;
        if let Some(c) = children.iter().find(|c| c.index() >= id) {
            return Err(PlanValidationError::ChildOutOfRange {
                node: id,
                child: c.index(),
                len: id,
            });
        }
        Ok(self.push(node))
    }

    fn push(&mut self, node: PlanNode) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("plan too large"));
        self.nodes.push(node);
        id
    }

    /// Mutable access to an already-built node (e.g. to fill in estimates).
    pub fn node_mut(&mut self, id: NodeId) -> &mut PlanNode {
        &mut self.nodes[id.index()]
    }

    /// Read access to an already-built node.
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.index()]
    }

    /// Finish the tree with `root` as the root node. The arena is trimmed
    /// to its length (free when the builder was sized by
    /// [`TreeBuilder::with_capacity`]).
    ///
    /// # Panics
    /// Panics if any built node other than the root's descendants would be
    /// orphaned — every node must be reachable from `root`, and no node may
    /// have two parents.
    pub fn finish(self, root: NodeId) -> PlanTree {
        let tree = PlanTree {
            nodes: self.nodes.into_boxed_slice(),
            root,
        };
        tree.validate();
        tree
    }
}

impl PlanTree {
    /// Construct a single-node tree (useful in tests).
    pub fn singleton(node_type: NodeType, payload: OpPayload) -> PlanTree {
        let mut b = TreeBuilder::new();
        let id = b.leaf(PlanNode::new(node_type, payload));
        b.finish(id)
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the tree has no nodes (never true for valid trees).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &PlanNode {
        &self.nodes[id.index()]
    }

    /// Mutable node access (used when attaching execution labels).
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut PlanNode {
        &mut self.nodes[id.index()]
    }

    /// All node ids in arena order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// DFS preorder sequence of node ids (parent before children, children
    /// in plan order). This is the node sequence fed to the transformer.
    pub fn dfs(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            order.push(id);
            // Push children in reverse so they pop in plan order.
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Heights of all nodes *in DFS order*: the length of the (unique) path
    /// from the node to the root, so `heights()[0] == 0` for the root.
    ///
    /// The paper defines a node's height as "the length of the shortest path
    /// from the node to its root node" (Sec. IV-B(3)); in a tree that path is
    /// unique, so this is the node's depth.
    pub fn heights(&self) -> Vec<u32> {
        let mut heights = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![(self.root, 0u32)];
        while let Some((id, h)) = stack.pop() {
            heights.push(h);
            for &c in self.node(id).children.iter().rev() {
                stack.push((c, h + 1));
            }
        }
        heights
    }

    /// The ancestor (reflexive–transitive partial-order) matrix `A(p)` of
    /// Eq. 3, flattened row-major over the DFS order: entry `i * n + j` is
    /// `true` iff DFS-node `i` is an ancestor of — or equal to — DFS-node `j`.
    ///
    /// Used directly as the transformer attention mask: query node `i`
    /// attends to key node `j` iff `A[i][j]`, i.e. every node sees exactly
    /// itself and its descendants, "the same logic as the actual execution of
    /// the query plan" (Sec. IV-C).
    pub fn ancestor_matrix(&self) -> Vec<bool> {
        let order = self.dfs();
        let n = order.len();
        // In DFS preorder, the descendants of the node at position i occupy
        // the contiguous range [i, i + subtree_size(i)). Compute subtree
        // sizes over the DFS order with a post-order pass.
        let sizes = self.dfs_subtree_sizes(&order);
        let mut m = vec![false; n * n];
        for i in 0..n {
            for j in i..i + sizes[i] {
                m[i * n + j] = true;
            }
        }
        m
    }

    /// Subtree size of each DFS position (`order` must be `self.dfs()`).
    fn dfs_subtree_sizes(&self, order: &[NodeId]) -> Vec<usize> {
        let n = order.len();
        let mut pos = vec![0usize; self.nodes.len()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        let mut sizes = vec![1usize; n];
        // Children appear after parents in preorder; iterate in reverse so
        // every child's size is final before its parent accumulates it.
        for i in (0..n).rev() {
            let id = order[i];
            for &c in &self.node(id).children {
                sizes[i] += sizes[pos[c.index()]];
            }
        }
        sizes
    }

    /// Parent of each node (`None` for the root), indexed by arena id.
    pub fn parents(&self) -> Vec<Option<NodeId>> {
        let mut parents = vec![None; self.nodes.len()];
        for id in self.ids() {
            for &c in &self.node(id).children {
                parents[c.index()] = Some(id);
            }
        }
        parents
    }

    /// Extract the sub-plan rooted at `id` as an independent tree.
    pub fn sub_plan(&self, id: NodeId) -> PlanTree {
        let mut builder = TreeBuilder::new();
        let root = self.copy_into(&mut builder, id);
        builder.finish(root)
    }

    fn copy_into(&self, builder: &mut TreeBuilder, id: NodeId) -> NodeId {
        let src = self.node(id);
        let mut children = [NodeId(0); ChildIds::MAX];
        for (slot, &c) in children.iter_mut().zip(&src.children) {
            *slot = self.copy_into(builder, c);
        }
        builder.internal(src.clone(), &children[..src.children.len()])
    }

    /// Root-level estimated cost (what `EXPLAIN` prints as total cost).
    #[inline]
    pub fn est_cost(&self) -> f64 {
        self.node(self.root).est_cost
    }

    /// Root-level actual latency in milliseconds.
    #[inline]
    pub fn actual_ms(&self) -> f64 {
        self.node(self.root).actual_ms
    }

    /// Ids of all scan (leaf table-access) nodes.
    pub fn scan_nodes(&self) -> Vec<NodeId> {
        self.ids()
            .filter(|&id| self.node(id).payload.as_scan().is_some())
            .collect()
    }

    /// Verify tree shape: every node reachable from the root exactly once.
    fn validate(&self) {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut count = 0usize;
        while let Some(id) = stack.pop() {
            assert!(
                !seen[id.index()],
                "node {id:?} reachable twice — not a tree"
            );
            seen[id.index()] = true;
            count += 1;
            stack.extend(self.node(id).children.iter().copied());
        }
        assert_eq!(
            count,
            self.nodes.len(),
            "unreachable nodes in plan arena ({} reached of {})",
            count,
            self.nodes.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::OpPayload;

    /// Build the 5-node plan of the paper's Fig. 3:
    /// Aggregate -> Sort -> HashJoin -> {SeqScan a, SeqScan b}.
    pub(crate) fn fig3_tree() -> PlanTree {
        let mut b = TreeBuilder::new();
        let a = b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other));
        let b2 = b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other));
        let j = b.internal(
            PlanNode::new(NodeType::HashJoin, OpPayload::Other),
            &[a, b2],
        );
        let s = b.internal(PlanNode::new(NodeType::Sort, OpPayload::Other), &[j]);
        let g = b.internal(
            PlanNode::new(NodeType::GroupAggregate, OpPayload::Other),
            &[s],
        );
        b.finish(g)
    }

    #[test]
    fn dfs_is_preorder() {
        let t = fig3_tree();
        let order = t.dfs();
        let types: Vec<NodeType> = order.iter().map(|&id| t.node(id).node_type).collect();
        assert_eq!(
            types,
            vec![
                NodeType::GroupAggregate,
                NodeType::Sort,
                NodeType::HashJoin,
                NodeType::SeqScan,
                NodeType::SeqScan,
            ]
        );
    }

    #[test]
    fn heights_match_fig3() {
        let t = fig3_tree();
        assert_eq!(t.heights(), vec![0, 1, 2, 3, 3]);
    }

    #[test]
    fn ancestor_matrix_matches_fig3() {
        let t = fig3_tree();
        let n = t.len();
        let m = t.ancestor_matrix();
        let at = |i: usize, j: usize| m[i * n + j];
        // Root (agg) is an ancestor of everything.
        for j in 0..n {
            assert!(at(0, j));
        }
        // Scans see only themselves.
        assert!(at(3, 3) && !at(3, 4) && !at(3, 2) && !at(3, 0));
        assert!(at(4, 4) && !at(4, 3));
        // Join sees itself and both scans, not sort/agg.
        assert!(at(2, 2) && at(2, 3) && at(2, 4) && !at(2, 1) && !at(2, 0));
    }

    #[test]
    fn ancestor_matrix_is_reflexive_antisymmetric_transitive() {
        let t = fig3_tree();
        let n = t.len();
        let m = t.ancestor_matrix();
        let at = |i: usize, j: usize| m[i * n + j];
        for i in 0..n {
            assert!(at(i, i), "reflexivity");
            for j in 0..n {
                if i != j {
                    assert!(!(at(i, j) && at(j, i)), "antisymmetry");
                }
                for k in 0..n {
                    if at(i, j) && at(j, k) {
                        assert!(at(i, k), "transitivity");
                    }
                }
            }
        }
    }

    #[test]
    fn sub_plan_extraction_preserves_shape() {
        let t = fig3_tree();
        let order = t.dfs();
        let join_id = order[2];
        let sub = t.sub_plan(join_id);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.node(sub.root()).node_type, NodeType::HashJoin);
        assert_eq!(sub.heights(), vec![0, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "unreachable nodes")]
    fn builder_rejects_orphans() {
        let mut b = TreeBuilder::new();
        let _orphan = b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other));
        let root = b.leaf(PlanNode::new(NodeType::SeqScan, OpPayload::Other));
        let _ = b.finish(root);
    }

    #[test]
    fn singleton_tree() {
        let t = PlanTree::singleton(NodeType::SeqScan, OpPayload::Other);
        assert_eq!(t.len(), 1);
        assert_eq!(t.heights(), vec![0]);
        assert_eq!(t.ancestor_matrix(), vec![true]);
    }
}
