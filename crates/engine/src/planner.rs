//! Cost-based physical planning: the physical plan node, the candidate
//! generators (access paths, joins, aggregates) the search driver
//! enumerates, and [`plan`], the analytic optimizer.

use std::cell::OnceCell;
use std::sync::{Arc, LazyLock};

use dace_catalog::{ColumnId, Database, FkEdge, TableId};
use dace_core::{log_feature, node_fingerprint};
use dace_plan::{
    ChildIds, JoinInfo, NodeType, OpPayload, PlanNode, PlanTree, PredicateInfo, ScanInfo,
    TreeBuilder,
};
use dace_query::{JoinEdge, Predicate, Query};

use crate::card::CardEstimator;
use crate::cost::CostModel;
use crate::search::{AnalyticScorer, SearchSession};

/// Join-enumeration cap: masks are `u32` bitsets and the DP table is
/// `2^k` entries, so wider queries must be rejected up front.
pub const MAX_RELATIONS: usize = 20;

/// Relation count up to which [`JoinStrategy::Auto`] uses exhaustive dynamic
/// programming; wider queries fall back to the greedy heuristic.
pub const DP_AUTO_MAX: usize = 9;

/// Typed planning failure — hostile or out-of-contract queries are errors,
/// not panics, mirroring `TrainError::EmptyDataset`: automated callers
/// (serving admission, search drivers, retrain loops) must be able to
/// reject a bad query without killing their thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The query references no tables at all.
    EmptyTableList,
    /// The query joins more relations than the enumerator supports.
    TooManyRelations {
        /// Relations the query references.
        count: usize,
        /// The enumeration cap ([`MAX_RELATIONS`]).
        cap: usize,
    },
    /// The join graph does not connect all referenced tables, so no
    /// cross-product-free plan covers the query.
    DisconnectedJoinGraph,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyTableList => f.write_str("query references no tables"),
            PlanError::TooManyRelations { count, cap } => {
                write!(
                    f,
                    "query joins {count} relations; enumeration capped at {cap}"
                )
            }
            PlanError::DisconnectedJoinGraph => {
                f.write_str("join graph does not connect all referenced tables")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Which join-enumeration algorithm [`SearchSession::plan_with_strategy`]
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Exhaustive DP for up to [`DP_AUTO_MAX`] relations, greedy beyond.
    #[default]
    Auto,
    /// Force dynamic programming (up to [`MAX_RELATIONS`] relations).
    Dp,
    /// Force the greedy smallest-output heuristic at any width.
    Greedy,
}

/// What the executor must do at a physical node.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOp {
    /// Evaluate `predicates` over `table`, yielding selected row ids.
    Scan {
        /// Scanned table.
        table: TableId,
        /// Predicates applied at this node.
        predicates: Vec<Predicate>,
    },
    /// Equi-join of the two children along `edge`.
    Join {
        /// The FK edge joined along.
        edge: JoinEdge,
    },
    /// Pass-through nodes (Hash, Sort, Materialize, Gather).
    PassThrough,
    /// Aggregation, optionally grouped.
    Aggregate {
        /// GROUP BY column.
        group_by: Option<ColumnId>,
    },
    /// LIMIT to `n` rows.
    Limit {
        /// Row limit.
        n: u64,
    },
}

/// A physical plan node with estimates, execution instructions and children.
///
/// This is the planner's and executor's working representation;
/// [`PhysPlan::to_plan_tree`] converts it into the serializable
/// [`dace_plan::PlanTree`] the models consume.
///
/// Plans are persistent trees: children sit behind [`Arc`], so a join
/// candidate shares its input sub-plans with every other candidate built
/// from them instead of copying them, and cloning a plan copies one node.
/// The payload and the execution instruction are shared the same way: a
/// table's access paths share one scan payload, a join edge's candidates
/// share one join payload, and every pass-through node shares one static
/// `Other`/`PassThrough` pair. Children are stored inline (no operator has
/// more than two), so building a candidate node allocates nothing.
/// Writers ([`crate::execute`], [`crate::MachineProfile::apply`]) go through
/// [`Arc::make_mut`], which unshares exactly the nodes they fill in; a
/// sub-plan another plan still holds is never changed.
///
/// The constructor (`PhysPlan::new`, private to the planner) caches what
/// plan search reads per candidate: the node count, `ln(1 + est_cost)` and
/// `ln(1 + est_rows)` (through [`dace_core::log_feature`]), and the node's
/// featurizer-independent Merkle hash ([`dace_core::node_fingerprint`] over
/// its children's cached hashes). The operator, the estimates and the
/// children are therefore read-only; the actuals stay public for the
/// executor and the latency model to fill in.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysPlan {
    node_type: NodeType,
    est_rows: f64,
    est_cost: f64,
    /// Output tuple width in bytes.
    pub width: u32,
    /// Payload for the plan tree, shared with the node's sibling candidates.
    pub payload: Arc<OpPayload>,
    /// Execution instruction, shared like the payload.
    pub exec: Arc<ExecOp>,
    /// Actual output rows, filled by the executor.
    pub actual_rows: f64,
    /// Actual cumulative elapsed ms, filled by the latency model.
    pub actual_ms: f64,
    children: Children,
    /// Nodes in this sub-plan.
    len: usize,
    /// `log_feature(est_cost)`.
    log_cost: f64,
    /// `log_feature(est_rows)`.
    log_rows: f64,
    /// Merkle hash of this sub-plan's operators and quantized logs.
    merkle: u64,
}

/// A node's children, inline: no physical operator has more than two.
#[derive(Clone, PartialEq)]
enum Children {
    Zero([Arc<PhysPlan>; 0]),
    One([Arc<PhysPlan>; 1]),
    Two([Arc<PhysPlan>; 2]),
}

impl Children {
    fn as_slice(&self) -> &[Arc<PhysPlan>] {
        match self {
            Children::Zero(c) => c,
            Children::One(c) => c,
            Children::Two(c) => c,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Arc<PhysPlan>] {
        match self {
            Children::Zero(c) => c,
            Children::One(c) => c,
            Children::Two(c) => c,
        }
    }
}

impl std::fmt::Debug for Children {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// The payload of every node that is neither a table scan nor a join.
static OTHER: LazyLock<Arc<OpPayload>> = LazyLock::new(|| Arc::new(OpPayload::Other));
/// The execution instruction of every Hash, Sort, Materialize and Gather.
static PASS_THROUGH: LazyLock<Arc<ExecOp>> = LazyLock::new(|| Arc::new(ExecOp::PassThrough));

fn other() -> Arc<OpPayload> {
    Arc::clone(&OTHER)
}

fn pass_through() -> Arc<ExecOp> {
    Arc::clone(&PASS_THROUGH)
}

impl PhysPlan {
    /// The one constructor: clamps `est_rows` to at least one row and
    /// caches the node count, the log features and the Merkle hash.
    fn new(
        node_type: NodeType,
        est_rows: f64,
        est_cost: f64,
        width: u32,
        payload: Arc<OpPayload>,
        exec: Arc<ExecOp>,
        children: Children,
    ) -> PhysPlan {
        let est_rows = est_rows.max(1.0);
        let log_cost = log_feature(est_cost);
        let log_rows = log_feature(est_rows);
        let kids = children.as_slice();
        PhysPlan {
            node_type,
            est_rows,
            est_cost,
            width,
            payload,
            exec,
            actual_rows: 0.0,
            actual_ms: 0.0,
            len: 1 + kids.iter().map(|c| c.len).sum::<usize>(),
            log_cost,
            log_rows,
            merkle: node_fingerprint(node_type, log_cost, log_rows, kids.iter().map(|c| c.merkle)),
            children,
        }
    }

    /// Operator type.
    pub fn node_type(&self) -> NodeType {
        self.node_type
    }

    /// Estimated output rows.
    pub fn est_rows(&self) -> f64 {
        self.est_rows
    }

    /// Estimated *cumulative* cost (sub-plan total, abstract units).
    pub fn est_cost(&self) -> f64 {
        self.est_cost
    }

    /// Children (outer/probe side first for joins), shared between plans.
    pub fn children(&self) -> &[Arc<PhysPlan>] {
        self.children.as_slice()
    }

    /// The children, for writers of actuals: each one goes through
    /// [`Arc::make_mut`] before it is written.
    pub(crate) fn children_mut(&mut self) -> &mut [Arc<PhysPlan>] {
        self.children.as_mut_slice()
    }

    /// Number of nodes in this sub-plan.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the plan has no nodes (never; present for API symmetry).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The cached `ln(1 + est_cost)`.
    pub(crate) fn log_cost(&self) -> f64 {
        self.log_cost
    }

    /// The cached `ln(1 + est_rows)`.
    pub(crate) fn log_rows(&self) -> f64 {
        self.log_rows
    }

    /// The cached Merkle hash of this sub-plan under estimated
    /// cardinalities. `featurizer.salt() ^ merkle()` equals
    /// `featurizer.fingerprint(&self.to_plan_tree())` for every featurizer
    /// that reads estimated cardinalities.
    pub(crate) fn merkle(&self) -> u64 {
        self.merkle
    }

    /// Convert into a [`PlanTree`] (estimates and any filled-in actuals).
    /// The tree's arena is allocated once, at [`PhysPlan::len`] nodes, and
    /// its payloads share this plan's names; a scan's predicate list is
    /// the only other allocation.
    pub fn to_plan_tree(&self) -> PlanTree {
        let mut builder = TreeBuilder::with_capacity(self.len);
        let root = self.build_into(&mut builder);
        builder.finish(root)
    }

    fn build_into(&self, builder: &mut TreeBuilder) -> dace_plan::NodeId {
        let mut children = [dace_plan::NodeId(0); ChildIds::MAX];
        for (slot, c) in children.iter_mut().zip(self.children()) {
            *slot = c.build_into(builder);
        }
        let mut node = PlanNode::new(self.node_type, OpPayload::clone(&self.payload));
        node.est_rows = self.est_rows;
        node.est_cost = self.est_cost;
        node.width = self.width;
        node.actual_rows = self.actual_rows;
        node.actual_ms = self.actual_ms;
        builder.internal(node, &children[..self.children().len()])
    }
}

/// Plan `query` against `db` under `cost_model`: the search driver
/// ([`SearchSession`]) with every choice going to the lowest analytic cost
/// ([`AnalyticScorer`]).
///
/// Scans are chosen among sequential / index / bitmap / index-only (plus a
/// parallel Gather alternative for large sequential scans); join orders are
/// enumerated with dynamic programming over connected subsets (System R
/// style, bushy plans allowed) up to [`DP_AUTO_MAX`] relations and greedily
/// beyond, choosing among hash join, nested loop (with inner index lookup
/// or materialization) and sort-merge join; aggregation picks hash vs.
/// sorted grouping by cost.
pub fn plan(db: &Database, query: &Query, cost_model: &CostModel) -> Result<PhysPlan, PlanError> {
    SearchSession::new(db, cost_model)
        .plan(query, &mut AnalyticScorer)
        .map(|(plan, _)| plan)
}

/// Wrap the plan in its LIMIT node, if the query has one. The LIMIT wrap is
/// deterministic (no physical alternatives), so the search driver adds it
/// without scoring.
pub(crate) fn finish_limit(
    query: &Query,
    with_agg: Arc<PhysPlan>,
    cost_model: &CostModel,
) -> PhysPlan {
    match query.limit {
        Some(n) => {
            let child_rows = with_agg.est_rows;
            let child_cost = with_agg.est_cost;
            let out = (n as f64).min(child_rows);
            let cost = cost_model.limit(child_cost, child_rows, n as f64);
            PhysPlan::new(
                NodeType::Limit,
                out,
                cost,
                with_agg.width,
                other(),
                Arc::new(ExecOp::Limit { n }),
                Children::One([with_agg]),
            )
        }
        None => Arc::unwrap_or_clone(with_agg),
    }
}

/// Threshold row count above which a parallel Gather plan is considered.
const GATHER_MIN_ROWS: f64 = 15_000.0;
/// Simulated parallel workers.
const GATHER_WORKERS: f64 = 2.0;

/// Append every viable access path for `table` to `out`, in the order
/// seq → gather → index → index-only → bitmap. The search driver scores the
/// run as one decision group and keeps the first lowest score, so on an
/// analytic-cost tie the earlier path wins.
///
/// The table's scan payload and `Scan` instruction are built once and
/// shared by every path that reads the table.
pub(crate) fn scan_candidates(
    db: &Database,
    query: &Query,
    table: TableId,
    cm: &CostModel,
    est: &CardEstimator<'_>,
    out: &mut Vec<PhysPlan>,
) {
    let stats = db.table_stats(table);
    let rows = stats.row_count as f64;
    let n_cols = db.schema.table(table).columns.len();
    let width = (n_cols * 8) as u32;
    let preds = query.predicates_on(table);
    let sel = est.conjunction_selectivity(&preds);
    let out_rows = (rows * sel).max(1.0);
    let payload = Arc::new(scan_payload(db, table, &preds, est));
    // Index paths need an indexed predicate column; drive the index with the
    // most selective indexed predicate.
    let indexed: Option<(&Predicate, f64)> = preds
        .iter()
        .filter(|p| db.schema.column(p.column).indexed)
        .map(|&p| (p, est.predicate_selectivity(p)))
        .min_by(|a, b| a.1.total_cmp(&b.1));
    let exec = Arc::new(ExecOp::Scan {
        table,
        predicates: preds.iter().map(|&p| p.clone()).collect(),
    });
    let leaf = |node_type, cost| {
        PhysPlan::new(
            node_type,
            out_rows,
            cost,
            width,
            Arc::clone(&payload),
            Arc::clone(&exec),
            Children::Zero([]),
        )
    };

    // Sequential scan (always available).
    let seq_cost = cm.seq_scan(rows, width as f64, preds.len());
    out.push(leaf(NodeType::SeqScan, seq_cost));

    // Parallel alternative for big sequential scans.
    if rows > GATHER_MIN_ROWS {
        let gather_cost = cm.gather(seq_cost, out_rows, GATHER_WORKERS);
        let child = leaf(NodeType::SeqScan, seq_cost / GATHER_WORKERS);
        out.push(PhysPlan::new(
            NodeType::Gather,
            out_rows,
            gather_cost,
            width,
            other(),
            pass_through(),
            Children::One([Arc::new(child)]),
        ));
    }

    if let Some((index_pred, index_sel)) = indexed {
        let fetched = (rows * index_sel).max(1.0);

        // Plain index scan.
        out.push(leaf(NodeType::IndexScan, cm.index_scan(rows, fetched)));

        // Index-only scan when the predicate is on the primary key.
        if index_pred.column.column() == 0 {
            out.push(leaf(
                NodeType::IndexOnlyScan,
                cm.index_only_scan(rows, fetched),
            ));
        }

        // Bitmap scan pair.
        let pages = cm.pages(rows, width as f64);
        let bis_cost = cm.bitmap_index_scan(rows, fetched);
        let bhs_cost = bis_cost + cm.bitmap_heap_scan(pages, rows, fetched);
        let index_child = PhysPlan::new(
            NodeType::BitmapIndexScan,
            fetched,
            bis_cost,
            8,
            other(),
            Arc::new(ExecOp::Scan {
                table,
                predicates: vec![index_pred.clone()],
            }),
            Children::Zero([]),
        );
        out.push(PhysPlan::new(
            NodeType::BitmapHeapScan,
            out_rows,
            bhs_cost,
            width,
            payload,
            exec,
            Children::One([Arc::new(index_child)]),
        ));
    }
}

fn scan_payload(
    db: &Database,
    table: TableId,
    preds: &[&Predicate],
    est: &CardEstimator<'_>,
) -> OpPayload {
    let infos = preds
        .iter()
        .map(|p| {
            let stats = db.column_stats(p.column);
            let (lo, hi) = match p.values.as_slice() {
                [v] => (stats.rank_of(*v), 0.0),
                [lo, hi, ..] => (stats.rank_of(*lo), stats.rank_of(*hi)),
                [] => (0.5, 0.0),
            };
            PredicateInfo {
                column_id: p.column.0,
                op: p.op,
                literal_rank: lo,
                literal_rank_hi: hi,
                est_selectivity: est.predicate_selectivity(p),
            }
        })
        .collect();
    OpPayload::Scan(ScanInfo {
        table_id: table.0,
        table_name: Arc::clone(db.table_name(table)),
        predicates: infos,
    })
}

/// A join input — a DP entry or a greedy fragment: its table mask, its
/// chosen sub-plan, and the pass-through wrappers join candidates put over
/// that sub-plan. A wrapper depends on the sub-plan alone, so each one is
/// built the first time a candidate needs it and then shared by every
/// later candidate over this input.
#[derive(Debug)]
pub(crate) struct Side {
    pub(crate) mask: u32,
    pub(crate) plan: Arc<PhysPlan>,
    hash: OnceCell<Arc<PhysPlan>>,
    sort: OnceCell<Arc<PhysPlan>>,
    materialize: OnceCell<Arc<PhysPlan>>,
}

impl Side {
    pub(crate) fn new(mask: u32, plan: Arc<PhysPlan>) -> Side {
        Side {
            mask,
            plan,
            hash: OnceCell::new(),
            sort: OnceCell::new(),
            materialize: OnceCell::new(),
        }
    }

    /// The `node_type` wrapper cached in `cell`, costing `extra` on top of
    /// the sub-plan.
    fn wrapper<'s>(
        &'s self,
        cell: &'s OnceCell<Arc<PhysPlan>>,
        node_type: NodeType,
        extra: impl FnOnce(&PhysPlan) -> f64,
    ) -> &'s Arc<PhysPlan> {
        cell.get_or_init(|| {
            let p = &self.plan;
            Arc::new(PhysPlan::new(
                node_type,
                p.est_rows,
                p.est_cost + extra(p),
                p.width,
                other(),
                pass_through(),
                Children::One([Arc::clone(p)]),
            ))
        })
    }

    fn hash(&self, cm: &CostModel) -> &Arc<PhysPlan> {
        self.wrapper(&self.hash, NodeType::Hash, |p| {
            cm.hash_build(p.est_rows, p.width as f64)
        })
    }

    fn sort(&self, cm: &CostModel) -> &Arc<PhysPlan> {
        self.wrapper(&self.sort, NodeType::Sort, |p| {
            cm.sort(p.est_rows, p.width as f64)
        })
    }

    fn materialize(&self, cm: &CostModel) -> &Arc<PhysPlan> {
        self.wrapper(&self.materialize, NodeType::Materialize, |p| {
            cm.materialize(p.est_rows, p.width as f64)
        })
    }
}

/// A join edge with the query-table bits of its two endpoints, so join
/// enumeration tests fragment masks instead of walking sub-plans, and the
/// payload and `Join` instruction every candidate along the edge shares.
#[derive(Debug, Clone)]
pub(crate) struct MaskedEdge {
    edge: JoinEdge,
    /// Bit of the FK (child) table.
    child: u32,
    /// Bit of the referenced (parent) table.
    parent: u32,
    payload: Arc<OpPayload>,
    exec: Arc<ExecOp>,
}

/// Every join edge of `query` with its endpoint bits and shared payload, in
/// query order. An edge naming a table the query does not list connects
/// nothing.
pub(crate) fn masked_edges(db: &Database, query: &Query) -> Vec<MaskedEdge> {
    let bit = |t: TableId| query.tables.iter().position(|&x| x == t).map(|i| 1u32 << i);
    query
        .joins
        .iter()
        .filter_map(|&edge| {
            Some(MaskedEdge {
                edge,
                child: bit(edge.child)?,
                parent: bit(edge.parent)?,
                payload: Arc::new(join_payload(db, edge)),
                exec: Arc::new(ExecOp::Join { edge }),
            })
        })
        .collect()
}

/// The join edge connecting table subsets `left` and `right`, if any.
/// Query join graphs are trees (the generators add one new table per edge),
/// so at most one edge connects any two disjoint fragments.
pub(crate) fn connecting_edge(edges: &[MaskedEdge], left: u32, right: u32) -> Option<&MaskedEdge> {
    edges.iter().find(|e| {
        (left & e.child != 0 && right & e.parent != 0)
            || (left & e.parent != 0 && right & e.child != 0)
    })
}

/// Append every physical join of `l` and `r` along `masked` to `out`, in
/// the order hash → NL-index both orientations → NL-materialize →
/// sort-merge. The search driver scores them with the rest of their
/// decision group; on an analytic-cost tie the earlier join wins.
///
/// Candidates share both sub-plans, their pass-through wrappers (built once
/// per [`Side`]) and the edge's payload by `Arc`; only the join nodes on top
/// are new, and they are stored by value in `out`. The one per-pair
/// allocation left is an index nested loop's re-costed inner scan.
pub(crate) fn join_candidates(
    db: &Database,
    l: &Side,
    r: &Side,
    masked: &MaskedEdge,
    cm: &CostModel,
    est: &CardEstimator<'_>,
    out: &mut Vec<PhysPlan>,
) {
    let edge = masked.edge;
    let left_has_child = l.mask & masked.child != 0;
    let (lp, rp) = (&l.plan, &r.plan);
    let out_rows = est.join_rows(&edge, lp.est_rows, rp.est_rows, left_has_child);
    let width = lp.width + rp.width;
    let join = |node_type, cost, outer: &Arc<PhysPlan>, inner: &Arc<PhysPlan>| {
        PhysPlan::new(
            node_type,
            out_rows,
            cost,
            width,
            Arc::clone(&masked.payload),
            Arc::clone(&masked.exec),
            Children::Two([Arc::clone(outer), Arc::clone(inner)]),
        )
    };

    // Hash join: build on the smaller side, probe from the larger.
    let (probe, build) = if lp.est_rows >= rp.est_rows {
        (l, r)
    } else {
        (r, l)
    };
    let (probe_p, build_p) = (&probe.plan, &build.plan);
    let hash_cost = build_p.est_cost
        + probe_p.est_cost
        + cm.hash_build(build_p.est_rows, build_p.width as f64)
        + cm.hash_probe(probe_p.est_rows, out_rows);
    out.push(join(NodeType::HashJoin, hash_cost, probe_p, build.hash(cm)));

    // Nested loop with an index lookup on the inner side: available when the
    // inner fragment is the single parent table (PK lookup per outer row).
    for (outer, inner) in [(l, r), (r, l)] {
        let (outer, inner_p) = (&outer.plan, &inner.plan);
        if inner.mask == masked.parent && is_scan(inner_p) {
            let parent_rows = db.table_stats(edge.parent).row_count as f64;
            let per_probe = out_rows / outer.est_rows.max(1.0);
            let rescan = cm.index_scan(parent_rows, per_probe.max(1.0));
            let nl_cost = outer.est_cost + cm.nested_loop(outer.est_rows, rescan, out_rows);
            // The inner access path, re-costed as a per-probe index scan.
            let inner_idx = Arc::new(PhysPlan::new(
                NodeType::IndexScan,
                per_probe.max(1.0),
                outer.est_rows.max(1.0) * rescan,
                inner_p.width,
                Arc::clone(&inner_p.payload),
                Arc::clone(&inner_p.exec),
                inner_p.children.clone(),
            ));
            out.push(join(NodeType::NestedLoop, nl_cost, outer, &inner_idx));
        }
    }

    // Nested loop over a materialized inner (wins only for tiny inputs).
    {
        let (outer, inner) = if lp.est_rows <= rp.est_rows {
            (l, r)
        } else {
            (r, l)
        };
        let (outer_p, inner_p) = (&outer.plan, &inner.plan);
        let mat = inner.materialize(cm);
        let rescan = cm.materialize_rescan(inner_p.est_rows);
        let nl_cost = outer_p.est_cost
            + mat.est_cost
            + cm.nested_loop((outer_p.est_rows - 1.0).max(0.0), rescan, out_rows);
        out.push(join(NodeType::NestedLoop, nl_cost, outer_p, mat));
    }

    // Sort-merge join.
    {
        let sort_l = cm.sort(lp.est_rows, lp.width as f64);
        let sort_r = cm.sort(rp.est_rows, rp.width as f64);
        let merge_cost = lp.est_cost
            + sort_l
            + rp.est_cost
            + sort_r
            + cm.merge_pass(lp.est_rows, rp.est_rows, out_rows);
        out.push(join(
            NodeType::MergeJoin,
            merge_cost,
            l.sort(cm),
            r.sort(cm),
        ));
    }
}

fn join_payload(db: &Database, edge: JoinEdge) -> OpPayload {
    OpPayload::Join(JoinInfo {
        left_column: edge.child_column_id().0,
        right_column: edge.parent_column_id().0,
        condition: db.join_condition(FkEdge {
            child: edge.child,
            child_column: edge.child_column,
            parent: edge.parent,
        }),
    })
}

/// A leaf access path (possibly wrapped in Gather / bitmap pair).
fn is_scan(p: &PhysPlan) -> bool {
    matches!(
        p.node_type,
        NodeType::SeqScan
            | NodeType::IndexScan
            | NodeType::IndexOnlyScan
            | NodeType::BitmapHeapScan
    )
}

/// Append the aggregation roots over `child` to `out`: hash aggregate
/// first, then sort + group aggregate, so on an analytic-cost tie hash
/// wins. Grouping-free queries have exactly one candidate, a plain
/// single-pass group aggregate.
pub(crate) fn aggregate_candidates(
    query: &Query,
    child: &Arc<PhysPlan>,
    cm: &CostModel,
    est: &CardEstimator<'_>,
    out: &mut Vec<PhysPlan>,
) {
    let in_rows = child.est_rows;
    let groups = match query.group_by {
        Some(col) => est.group_count(col, in_rows),
        None => 1.0,
    };
    let width = (query.aggregates.len() as u32 + 1) * 8;
    let exec = Arc::new(ExecOp::Aggregate {
        group_by: query.group_by,
    });
    let agg = |node_type, rows, cost, input: Arc<PhysPlan>| {
        PhysPlan::new(
            node_type,
            rows,
            cost,
            width,
            other(),
            Arc::clone(&exec),
            Children::One([input]),
        )
    };
    if query.group_by.is_none() {
        let cost = child.est_cost + cm.group_agg(in_rows, 1.0);
        out.push(agg(NodeType::GroupAggregate, 1.0, cost, Arc::clone(child)));
        return;
    }
    let hash_cost = child.est_cost + cm.hash_agg(in_rows, groups);
    let sorted_cost =
        child.est_cost + cm.sort(in_rows, child.width as f64) + cm.group_agg(in_rows, groups);
    let sort = PhysPlan::new(
        NodeType::Sort,
        in_rows,
        child.est_cost + cm.sort(in_rows, child.width as f64),
        child.width,
        other(),
        pass_through(),
        Children::One([Arc::clone(child)]),
    );
    out.push(agg(
        NodeType::HashAggregate,
        groups,
        hash_cost,
        Arc::clone(child),
    ));
    out.push(agg(
        NodeType::GroupAggregate,
        groups,
        sorted_cost,
        Arc::new(sort),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_catalog::{generate_database, suite_specs};
    use dace_query::ComplexWorkloadGen;

    fn db() -> Database {
        generate_database(&suite_specs()[0], 0.02)
    }

    #[test]
    fn single_table_plan_is_a_scan() {
        let db = db();
        let q = Query::scan(0, TableId(0));
        let p = plan(&db, &q, &CostModel::default()).unwrap();
        assert!(is_scan(&p) || p.node_type == NodeType::Gather);
        assert!(p.est_rows >= 1.0);
        assert!(p.est_cost > 0.0);
    }

    #[test]
    fn join_plans_cover_all_tables_and_costs_are_monotone() {
        let db = db();
        let queries = ComplexWorkloadGen::default().generate(&db, 100);
        for q in &queries {
            let p = plan(&db, q, &CostModel::default()).unwrap();
            let covered = scan_tables(&p);
            let mut expect = q.tables.clone();
            expect.sort();
            assert_eq!(covered, expect, "plan must cover all query tables");
            // Cumulative cost is monotone up the tree.
            check_cost_monotone(&p);
        }
    }

    /// Base tables a plan scans, sorted and deduplicated.
    fn scan_tables(p: &PhysPlan) -> Vec<TableId> {
        fn collect(p: &PhysPlan, out: &mut Vec<TableId>) {
            if let ExecOp::Scan { table, .. } = *p.exec {
                out.push(table);
            }
            for c in p.children() {
                collect(c, out);
            }
        }
        let mut tables = Vec::new();
        collect(p, &mut tables);
        tables.sort();
        tables.dedup();
        tables
    }

    fn check_cost_monotone(p: &PhysPlan) {
        for c in p.children() {
            // Limit nodes legitimately cost less than their children;
            // everything else accumulates.
            if p.node_type != NodeType::Limit && p.node_type != NodeType::Gather {
                assert!(
                    p.est_cost >= c.est_cost * 0.999,
                    "{:?} cost {} < child {:?} cost {}",
                    p.node_type,
                    p.est_cost,
                    c.node_type,
                    c.est_cost
                );
            }
            check_cost_monotone(c);
        }
    }

    #[test]
    fn aggregated_queries_get_aggregate_roots() {
        let db = db();
        let queries = ComplexWorkloadGen::default().generate(&db, 150);
        let mut saw_agg = false;
        for q in &queries {
            if q.aggregates.is_empty() {
                continue;
            }
            let p = plan(&db, q, &CostModel::default()).unwrap();
            let root_ty = match q.limit {
                Some(_) => p.children()[0].node_type,
                None => p.node_type,
            };
            assert!(
                matches!(root_ty, NodeType::HashAggregate | NodeType::GroupAggregate),
                "aggregate query got {root_ty:?} root"
            );
            saw_agg = true;
        }
        assert!(saw_agg);
    }

    #[test]
    fn plan_tree_conversion_preserves_structure() {
        let db = db();
        let q = ComplexWorkloadGen::default()
            .generate(&db, 20)
            .pop()
            .unwrap();
        let p = plan(&db, &q, &CostModel::default()).unwrap();
        let tree = p.to_plan_tree();
        assert_eq!(tree.len(), p.len());
        assert_eq!(tree.node(tree.root()).node_type, p.node_type);
        assert!((tree.est_cost() - p.est_cost).abs() < 1e-9);
    }

    #[test]
    fn selective_pk_predicate_prefers_index_path() {
        let db = db();
        let mut q = Query::scan(0, TableId(0));
        q.predicates = vec![dace_query::Predicate {
            column: ColumnId::new(TableId(0), 0),
            op: dace_plan::CmpOp::Eq,
            values: vec![5],
        }];
        let p = plan(&db, &q, &CostModel::default()).unwrap();
        assert!(
            matches!(
                p.node_type,
                NodeType::IndexScan | NodeType::IndexOnlyScan | NodeType::BitmapHeapScan
            ),
            "selective PK lookup chose {:?}",
            p.node_type
        );
    }

    #[test]
    fn plans_use_diverse_operators() {
        let db = db();
        let queries = ComplexWorkloadGen::default().generate(&db, 300);
        let mut seen = std::collections::HashSet::new();
        for q in &queries {
            let p = plan(&db, q, &CostModel::default()).unwrap();
            collect_types(&p, &mut seen);
        }
        // The corpus should exercise a healthy operator variety.
        assert!(
            seen.len() >= 8,
            "only {} operator types in 300 plans: {seen:?}",
            seen.len()
        );
        assert!(seen.contains(&NodeType::HashJoin) || seen.contains(&NodeType::NestedLoop));
    }

    fn collect_types(p: &PhysPlan, out: &mut std::collections::HashSet<NodeType>) {
        out.insert(p.node_type);
        for c in p.children() {
            collect_types(c, out);
        }
    }
}
