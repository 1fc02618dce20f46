//! `EXPLAIN ANALYZE`-style pretty printer for plan trees.

use std::fmt::Write as _;

use crate::node::OpPayload;
use crate::tree::{NodeId, PlanTree};

/// Render `tree` in a PostgreSQL-flavoured `EXPLAIN ANALYZE` format.
///
/// ```text
/// GroupAggregate  (cost=241.10 rows=12) (actual time=3.821ms rows=12)
///   -> Hash Join  (cost=190.02 rows=1205) (actual time=3.644ms rows=1187)
///        Cond: t.id = mk.movie_id
///        -> Seq Scan on t  (cost=45.00 rows=1000) (actual time=0.911ms rows=1000)
/// ```
pub fn explain_tree(tree: &PlanTree) -> String {
    let mut out = String::new();
    write_node(tree, tree.root(), 0, &mut out);
    out
}

fn write_node(tree: &PlanTree, id: NodeId, depth: usize, out: &mut String) {
    let node = tree.node(id);
    let pad = "  ".repeat(depth);
    let arrow = if depth == 0 { "" } else { "-> " };
    let mut head = format!("{pad}{arrow}{}", node.node_type.display_name());
    if let OpPayload::Scan(scan) = &node.payload {
        let _ = write!(head, " on {}", scan.table_name);
    }
    let _ = writeln!(
        out,
        "{head}  (cost={:.2} rows={:.0}) (actual time={:.3}ms rows={:.0})",
        node.est_cost, node.est_rows, node.actual_ms, node.actual_rows
    );
    match &node.payload {
        OpPayload::Join(join) => {
            let _ = writeln!(out, "{pad}     Cond: {}", join.condition);
        }
        OpPayload::Scan(scan) if !scan.predicates.is_empty() => {
            let preds: Vec<String> = scan
                .predicates
                .iter()
                .map(|p| format!("col{} {} @{:.3}", p.column_id, p.op.sql(), p.literal_rank))
                .collect();
            let _ = writeln!(out, "{pad}     Filter: {}", preds.join(" AND "));
        }
        _ => {}
    }
    for &child in &node.children {
        write_node(tree, child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{PlanNode, PredicateInfo, ScanInfo};
    use crate::node_type::NodeType;
    use crate::tree::TreeBuilder;
    use crate::CmpOp;

    #[test]
    fn explain_renders_all_nodes_and_filters() {
        let mut b = TreeBuilder::new();
        let scan = b.leaf(PlanNode::new(
            NodeType::SeqScan,
            OpPayload::Scan(ScanInfo {
                table_id: 0,
                table_name: "title".into(),
                predicates: vec![PredicateInfo {
                    column_id: 3,
                    op: CmpOp::Gt,
                    literal_rank: 0.75,
                    literal_rank_hi: 0.0,
                    est_selectivity: 0.25,
                }],
            }),
        ));
        let root = b.internal(PlanNode::new(NodeType::Limit, OpPayload::Other), &[scan]);
        let tree = b.finish(root);
        let text = explain_tree(&tree);
        assert!(text.contains("Limit"));
        assert!(text.contains("-> Seq Scan on title"));
        assert!(text.contains("Filter: col3 > @0.750"));
        assert_eq!(text.lines().count(), 3);
    }
}
