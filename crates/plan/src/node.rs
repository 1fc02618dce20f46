//! Plan nodes: operator type, estimates, labels and operator payloads.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::node_type::NodeType;
use crate::tree::ChildIds;

/// Comparison operator of a filter predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `BETWEEN lo AND hi`
    Between,
    /// `IN (v1, .., vk)`
    In,
    /// `LIKE 'prefix%'`
    LikePrefix,
}

impl CmpOp {
    /// Number of distinct operators (one-hot width for baselines that encode
    /// predicates, e.g. MSCN and TPool).
    pub const COUNT: usize = 8;

    /// Dense index for one-hot encodings.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Lt => 1,
            CmpOp::Gt => 2,
            CmpOp::Le => 3,
            CmpOp::Ge => 4,
            CmpOp::Between => 5,
            CmpOp::In => 6,
            CmpOp::LikePrefix => 7,
        }
    }

    /// SQL spelling (BETWEEN/IN/LIKE render their operands elsewhere).
    pub fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Between => "BETWEEN",
            CmpOp::In => "IN",
            CmpOp::LikePrefix => "LIKE",
        }
    }
}

/// A filter predicate as attached to a scan node.
///
/// Literals are stored as *normalized ranks* in `[0, 1]` (their quantile in
/// the column's value domain) so that plan consumers — chiefly the baselines
/// that featurize predicates — never need access to the raw data. This is the
/// same normalization MSCN applies to its predicate encodings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredicateInfo {
    /// Global column id (catalog-assigned, unique within a database).
    pub column_id: u32,
    /// Comparison operator.
    pub op: CmpOp,
    /// Normalized literal (lower bound for `Between`).
    pub literal_rank: f64,
    /// Normalized upper bound for `Between`; unused otherwise.
    pub literal_rank_hi: f64,
    /// Selectivity the optimizer estimated for this predicate alone.
    pub est_selectivity: f64,
}

/// Payload of a scan node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanInfo {
    /// Catalog table id within the database.
    pub table_id: u32,
    /// Table name (for EXPLAIN output and SQL round-trips). Shared: the
    /// planner hands out the catalog's one copy per table, so every scan of
    /// that table in every plan points at the same string.
    pub table_name: Arc<str>,
    /// Predicates pushed down to this scan.
    pub predicates: Vec<PredicateInfo>,
}

/// Payload of a join node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JoinInfo {
    /// Column id on the outer (left / probe) side.
    pub left_column: u32,
    /// Column id on the inner (right / build) side.
    pub right_column: u32,
    /// Rendered join condition, e.g. `t.id = mk.movie_id`. Shared like
    /// [`ScanInfo::table_name`]: one copy per foreign key of the database.
    pub condition: Arc<str>,
}

/// Operator-specific payload. DACE itself ignores everything here (it only
/// consumes node type + estimates — Insight I of the paper), but the
/// predicate-learning baselines and the EXPLAIN printer need it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OpPayload {
    /// Base-table access.
    Scan(ScanInfo),
    /// Binary join.
    Join(JoinInfo),
    /// Anything else (sorts, aggregates, auxiliary nodes).
    Other,
}

impl OpPayload {
    /// Scan payload, if this is a scan.
    pub fn as_scan(&self) -> Option<&ScanInfo> {
        match self {
            OpPayload::Scan(s) => Some(s),
            _ => None,
        }
    }

    /// Join payload, if this is a join.
    pub fn as_join(&self) -> Option<&JoinInfo> {
        match self {
            OpPayload::Join(j) => Some(j),
            _ => None,
        }
    }
}

/// A single node of a physical plan tree.
///
/// `est_*` fields are what the optimizer predicted when the plan was built;
/// `actual_*` fields are filled in after (simulated) execution. Both cost and
/// time are *cumulative*: they cover the whole sub-plan rooted at this node,
/// matching PostgreSQL's `EXPLAIN (ANALYZE)` semantics, and matching what the
/// paper uses as sub-plan labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanNode {
    /// Physical operator type.
    pub node_type: NodeType,
    /// Optimizer-estimated output rows.
    pub est_rows: f64,
    /// Optimizer-estimated total cost of the sub-plan (abstract cost units).
    pub est_cost: f64,
    /// Average output tuple width in bytes.
    pub width: u32,
    /// Actual output rows (0 before execution).
    pub actual_rows: f64,
    /// Actual elapsed time of the sub-plan in milliseconds (0 before execution).
    pub actual_ms: f64,
    /// Operator payload.
    pub payload: OpPayload,
    /// Child node ids, outer (probe) side first for joins; at most two,
    /// stored inline.
    pub children: ChildIds,
}

impl PlanNode {
    /// A node with the given type and payload and zeroed statistics; used by
    /// [`crate::TreeBuilder`].
    pub fn new(node_type: NodeType, payload: OpPayload) -> Self {
        PlanNode {
            node_type,
            est_rows: 0.0,
            est_cost: 0.0,
            width: 8,
            actual_rows: 0.0,
            actual_ms: 0.0,
            payload,
            children: ChildIds::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_op_indices_are_dense() {
        let ops = [
            CmpOp::Eq,
            CmpOp::Lt,
            CmpOp::Gt,
            CmpOp::Le,
            CmpOp::Ge,
            CmpOp::Between,
            CmpOp::In,
            CmpOp::LikePrefix,
        ];
        let mut seen = [false; CmpOp::COUNT];
        for op in ops {
            assert!(!seen[op.index()], "duplicate index for {op:?}");
            seen[op.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// Every tree holds one of these per node, so its size is most of a
    /// tree's footprint: inline children and shared names keep it at 104 B
    /// (it was 120 B with a child `Vec` and owned strings).
    #[test]
    fn plan_nodes_stay_compact() {
        assert!(std::mem::size_of::<PlanNode>() <= 104);
        assert!(std::mem::size_of::<OpPayload>() <= 48);
    }

    #[test]
    fn payload_accessors() {
        let scan = OpPayload::Scan(ScanInfo {
            table_id: 1,
            table_name: "t".into(),
            predicates: vec![],
        });
        assert!(scan.as_scan().is_some());
        assert!(scan.as_join().is_none());
        assert!(OpPayload::Other.as_scan().is_none());
    }
}
