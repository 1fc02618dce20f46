#![warn(missing_docs)]
//! Physical query-plan trees and the structural signals DACE consumes.
//!
//! This crate is the shared vocabulary of the workspace: every other crate —
//! the optimizer/executor substrate ([`dace-engine`]), the DACE model
//! ([`dace-core`]) and the baselines — exchanges [`PlanTree`] values.
//!
//! A [`PlanTree`] mirrors what `EXPLAIN ANALYZE` reports in PostgreSQL: a tree
//! of physical operators where each node carries the optimizer's *estimated*
//! cardinality and cost and, once executed, the *actual* cardinality and
//! elapsed time. From a tree the crate derives the three structural artifacts
//! the paper's feature extraction needs (Sec. IV-B):
//!
//! * the DFS (preorder) node sequence,
//! * the reflexive–transitive ancestor matrix `A(p)` used as the
//!   tree-structured attention mask (Eq. 2–3),
//! * per-node heights (shortest path to the root) feeding the loss adjuster
//!   (Eq. 4).
//!
//! [`dace-engine`]: ../dace_engine/index.html
//! [`dace-core`]: ../dace_core/index.html

mod explain;
mod label;
mod node;
mod node_type;
mod tree;
mod validate;

pub use explain::explain_tree;
pub use label::{Dataset, LabeledPlan, MachineId};
pub use node::{CmpOp, JoinInfo, OpPayload, PlanNode, PredicateInfo, ScanInfo};
pub use node_type::{NodeKind, NodeType, NODE_TYPE_COUNT};
pub use tree::{ChildIds, NodeId, PlanTree, TreeBuilder};
pub use validate::{validate_plan, PlanValidationError, DEFAULT_MAX_PLAN_DEPTH};
