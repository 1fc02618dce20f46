//! Plan featurization (the paper's Sec. IV-B encoder).
//!
//! Per node: 16-way one-hot of the operator type, then robust-scaled
//! `ln(1 + est_cost)` and `ln(1 + est_cardinality)` — nothing else. DACE
//! deliberately ignores predicates, tables and literals (Insight I): the
//! model must work on databases it has never seen.

use dace_nn::{RobustScaler, Tensor2};
use dace_obs::splitmix64;
use dace_plan::{Dataset, NodeId, NodeType, PlanNode, PlanTree, NODE_TYPE_COUNT};
use serde::{Deserialize, Serialize};

/// Node encoding width: 16 one-hot + scaled cost + scaled cardinality.
pub const FEATURE_DIM: usize = NODE_TYPE_COUNT + 2;

/// Featurization variants used by the ablations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FeatureConfig {
    /// Use the *actual* cardinality instead of the optimizer estimate —
    /// the DACE-A upper-bound variant of Fig. 12.
    pub use_actual_cardinality: bool,
    /// Disable tree-structured attention (DACE w/o TA, Fig. 10): every
    /// node attends to every node.
    pub disable_tree_attention: bool,
}

/// Subtree size of each preorder position, from the preorder child counts.
/// In DFS preorder the descendants of position `i` are exactly
/// `[i, i + size[i])`.
///
/// # Panics
/// Panics unless `child_counts` is at most one well-formed tree in preorder.
fn subtree_sizes(child_counts: &[usize]) -> Vec<usize> {
    let mut sizes = vec![0; child_counts.len()];
    // Sizes of finished subtrees, the next sibling's on top.
    let mut done: Vec<usize> = Vec::new();
    for (i, &children) in child_counts.iter().enumerate().rev() {
        let mut size = 1;
        for _ in 0..children {
            size += done
                .pop()
                .expect("child count exceeds the nodes that follow");
        }
        sizes[i] = size;
        done.push(size);
    }
    assert!(done.len() <= 1, "node sequence is not a single tree");
    sizes
}

/// Featurized plan, ready for the model.
#[derive(Debug, Clone)]
pub struct PlanFeatures {
    /// Node encodings in DFS order, `n × FEATURE_DIM`.
    pub x: Tensor2,
    /// Attention span of each node in DFS order: node `i` attends to plan
    /// rows `[start, end)`. Under tree attention that is its own sub-plan,
    /// `[i, i + subtree size)`: in DFS preorder, exactly the nodes it is an
    /// ancestor-or-self of. Without it, every node's span is `[0, n)`.
    pub spans: Vec<(usize, usize)>,
    /// Node heights in DFS order (root = 0).
    pub heights: Vec<u32>,
    /// Training target per node: `ln(actual_ms)` of the sub-plan.
    pub targets: Vec<f32>,
}

/// Latency floor before the log transform (sub-microsecond labels are
/// measurement noise).
const MS_FLOOR: f64 = 1e-4;

/// Latency ceiling in log-space for [`Featurizer::to_ms`]: `e^20` ms is
/// ≈ 135 hours, far beyond any real query, so clamping here only affects
/// degenerate (overflowed) model outputs.
const MAX_LOG_MS: f64 = 20.0;

/// Quantization resolution of plan fingerprints: log cost and log
/// cardinality are rounded to this many steps per nat before hashing, so
/// plans whose estimates differ by less than ~1/64 nat (~1.6%) share a
/// fingerprint — far finer than the model can distinguish.
const FINGERPRINT_STEPS_PER_NAT: f64 = 64.0;

/// `ln(1 + x)`, the transform every cost and cardinality feature goes
/// through, with hostile inputs neutralized: NaN, ±∞ and values below `-1`
/// (whose log1p is undefined) encode as `0.0` — the same feature a
/// zero-cost node produces — instead of poisoning the whole batch tensor
/// with NaNs. Finite in-domain values are untouched (bit-identical to the
/// plain transform), so sanitization is a no-op for every plan a real
/// optimizer emits; the serving layer additionally *rejects* such plans up
/// front via `dace_plan::validate_plan`, making this the defense-in-depth
/// layer for callers that skip validation.
///
/// Planners that cache a node's logs (`dace_engine::PhysPlan`) compute them
/// with this function, so features built from the cache are bit-identical
/// to [`Featurizer::encode`]'s.
#[inline]
pub fn log_feature(x: f64) -> f64 {
    if x.is_finite() && x > -1.0 {
        (1.0 + x).ln()
    } else {
        0.0
    }
}

/// One Merkle step of the plan fingerprint: the hash of a node from its
/// operator, its child count, its log cost and log cardinality (each
/// quantized to 1/64 nat) and its children's hashes, in plan order.
///
/// The step is featurizer-independent — it sees the logs, not the scaled
/// features — so a planner can cache it on every node when the node is
/// built and key a new candidate from its children in O(children).
/// [`Featurizer::fingerprint`] is this step folded bottom-up over a
/// [`PlanTree`], salted with the featurizer.
///
/// The node's own fields are packed into one word and finalized with
/// splitmix64; the children are then absorbed one by one through the same
/// finalizer, so child order matters (swapping a join's inputs changes the
/// hash) and equal subtrees hash equal wherever they sit. The packing is
/// exact: [`log_feature`] is bounded to about [-37, 710] nats, so each
/// quantized log fits its 24 bits; only a child count above 2047 saturates,
/// and the absorbed children still tell such nodes apart.
pub fn node_fingerprint(
    node_type: NodeType,
    log_cost: f64,
    log_card: f64,
    children: impl ExactSizeIterator<Item = u64>,
) -> u64 {
    const LOG_BITS: u64 = 0xFF_FFFF;
    let quant =
        |x: f64| -> u64 { ((x * FINGERPRINT_STEPS_PER_NAT).round() as i64) as u64 & LOG_BITS };
    let own = quant(log_cost)
        | quant(log_card) << 24
        | (node_type.one_hot_index() as u64) << 48
        | (children.len().min(2047) as u64) << 53;
    let mut h = splitmix64(own);
    for child in children {
        h = splitmix64(h ^ child);
    }
    h
}

/// A mini-batch of featurized plans packed for a single block-diagonal
/// forward/backward pass. Everything is compact and indexed by batch row:
/// plan `b`'s `lens[b]` rows follow plan `b − 1`'s, in DFS order, with no
/// padding.
#[derive(Debug, Clone)]
pub struct PackedBatch {
    /// Compact node features (`Σ lens[b] × FEATURE_DIM`), the layout the
    /// training forward/backward passes consume — packing it once here is
    /// what lets the epoch loop skip any per-batch gather.
    pub xc: Tensor2,
    /// Node count of each plan.
    pub lens: Vec<usize>,
    /// Per-row attention spans `(start, end)` in batch rows: each plan's
    /// [`PlanFeatures::spans`] shifted by the plan's first row.
    pub spans: Vec<(usize, usize)>,
    /// Per-row training targets (`ln` ms).
    pub targets: Vec<f32>,
    /// Per-row node heights.
    pub heights: Vec<u32>,
}

impl PackedBatch {
    /// Pack a mini-batch. An empty batch is a typed
    /// [`TrainError::EmptyDataset`], not a panic: automated retrain paths
    /// chunk whatever a feedback window drained, and a degenerate window
    /// must not kill the trainer thread.
    ///
    /// # Panics
    /// Panics unless every plan has one span, target and height per node
    /// and node `i` of an `n`-node plan has a span `(start, end)` with
    /// `start ≤ i < end ≤ n`, as [`Featurizer::encode`] always emits.
    ///
    /// [`TrainError::EmptyDataset`]: crate::TrainError::EmptyDataset
    pub fn pack(plans: &[&PlanFeatures]) -> Result<PackedBatch, crate::trainer::TrainError> {
        if plans.is_empty() {
            return Err(crate::trainer::TrainError::EmptyDataset);
        }
        let total: usize = plans.iter().map(|p| p.x.rows()).sum();
        let mut batch = PackedBatch {
            xc: Tensor2::zeros(total, FEATURE_DIM),
            lens: Vec::with_capacity(plans.len()),
            spans: Vec::with_capacity(total),
            targets: Vec::with_capacity(total),
            heights: Vec::with_capacity(total),
        };
        let mut row0 = 0;
        for p in plans {
            let n = p.x.rows();
            assert!(
                p.spans.len() == n && p.targets.len() == n && p.heights.len() == n,
                "a plan needs one span, target and height per node"
            );
            batch.xc.set_row_block(row0, &p.x);
            for (i, &(start, end)) in p.spans.iter().enumerate() {
                assert!(
                    start <= i && i < end && end <= n,
                    "node {i}'s span [{start}, {end}) must hold it within its {n}-node plan"
                );
                batch.spans.push((row0 + start, row0 + end));
            }
            batch.lens.push(n);
            batch.targets.extend_from_slice(&p.targets);
            batch.heights.extend_from_slice(&p.heights);
            row0 += n;
        }
        Ok(batch)
    }
}

/// Fitted featurizer: the robust scalers are part of the pre-trained model
/// and travel with it to unseen databases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Featurizer {
    /// Scaler over `ln(1 + est_cost)`.
    pub cost_scaler: RobustScaler,
    /// Scaler over `ln(1 + est_rows)`.
    pub card_scaler: RobustScaler,
    /// Variant flags.
    pub config: FeatureConfig,
}

impl Featurizer {
    /// Fit scalers over every node of every training plan.
    pub fn fit(train: &Dataset, config: FeatureConfig) -> Featurizer {
        let mut costs = Vec::new();
        let mut cards = Vec::new();
        for plan in &train.plans {
            for id in plan.tree.ids() {
                let node = plan.tree.node(id);
                costs.push(log_feature(node.est_cost));
                let card = if config.use_actual_cardinality {
                    node.actual_rows
                } else {
                    node.est_rows
                };
                cards.push(log_feature(card));
            }
        }
        Featurizer {
            cost_scaler: RobustScaler::fit(&costs),
            card_scaler: RobustScaler::fit(&cards),
            config,
        }
    }

    /// Featurize one plan (targets come from the plan's actual labels; they
    /// are zeros for unlabeled inference plans). Rows follow DFS preorder;
    /// the attention spans and node heights come from the child counts.
    pub fn encode(&self, tree: &PlanTree) -> PlanFeatures {
        let order = tree.dfs();
        let n = order.len();
        let mut x = Tensor2::zeros(n, FEATURE_DIM);
        let mut targets = Vec::with_capacity(n);
        let mut child_counts = Vec::with_capacity(n);
        for (i, &id) in order.iter().enumerate() {
            let node = tree.node(id);
            self.encode_row(
                node.node_type,
                log_feature(node.est_cost),
                log_feature(self.cardinality(node)),
                x.row_mut(i),
            );
            targets.push(node.actual_ms.max(MS_FLOOR).ln() as f32);
            child_counts.push(node.children.len());
        }
        let sizes = subtree_sizes(&child_counts);
        // A node's height is its number of ancestors: the open subtrees
        // (exclusive ends past `i`) when its position comes up.
        let mut heights = Vec::with_capacity(n);
        let mut ends: Vec<usize> = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            while ends.last().is_some_and(|&end| end <= i) {
                ends.pop();
            }
            heights.push(ends.len() as u32);
            ends.push(i + size);
        }
        let spans = sizes
            .iter()
            .enumerate()
            .map(|(i, &size)| {
                if self.config.disable_tree_attention {
                    (0, n)
                } else {
                    (i, i + size)
                }
            })
            .collect();
        PlanFeatures {
            x,
            spans,
            heights,
            targets,
        }
    }

    /// Write one node's encoding into `row` (`FEATURE_DIM` wide, zeroed by
    /// the caller): the operator's one-hot bit and the scaled log cost and
    /// log cardinality, both already passed through [`log_feature`]. Every
    /// encoder — [`Featurizer::encode`] and the plan-search scorer, which
    /// reads the logs a planner cached on its nodes — writes rows here.
    #[inline]
    pub fn encode_row(&self, node_type: NodeType, log_cost: f64, log_card: f64, row: &mut [f32]) {
        row[node_type.one_hot_index()] = 1.0;
        row[NODE_TYPE_COUNT] = self.cost_scaler.transform(log_cost) as f32;
        row[NODE_TYPE_COUNT + 1] = self.card_scaler.transform(log_card) as f32;
    }

    /// The cardinality feature's source: estimated rows, or actual rows for
    /// the DACE-A variant.
    fn cardinality(&self, node: &PlanNode) -> f64 {
        if self.config.use_actual_cardinality {
            node.actual_rows
        } else {
            node.est_rows
        }
    }

    /// This featurizer's identity as a hash: its scaler parameters and
    /// config flags. [`Featurizer::fingerprint`] XORs it onto the plan's
    /// Merkle root, so a base-model swap with refitted scalers can never
    /// serve stale cached features.
    pub fn salt(&self) -> u64 {
        [
            self.cost_scaler.median.to_bits(),
            self.cost_scaler.iqr.to_bits(),
            self.card_scaler.median.to_bits(),
            self.card_scaler.iqr.to_bits(),
            (self.config.use_actual_cardinality as u64) << 1
                | self.config.disable_tree_attention as u64,
        ]
        .into_iter()
        .fold(0, |h, v| splitmix64(h ^ v))
    }

    /// Structural fingerprint of a plan *under this featurizer* — the
    /// serve-path featurization-cache key and the search memo key:
    /// [`Featurizer::salt`] XOR the plan's Merkle root.
    ///
    /// The root is [`node_fingerprint`] folded bottom-up: each node hashes
    /// its operator type, child count, log cost and log cardinality (the
    /// one this featurizer reads) and its children's hashes in plan order.
    /// Operators, child counts and order fix the tree shape, hence the
    /// attention spans. The quantization cells are those of the flat
    /// preorder hash this replaced: both logs are rounded to 1/64 nat
    /// (~1.6%), so plans within a cell share a cache line by design — the
    /// scaled features differ by far less than model noise at that
    /// granularity. Because every node's hash depends only on its own
    /// subtree, a planner that caches it per node (`dace_engine::PhysPlan`)
    /// keys a candidate in O(1) to the same value.
    pub fn fingerprint(&self, tree: &PlanTree) -> u64 {
        let mut hashes = vec![0u64; tree.len()];
        let mut fold = |id: NodeId| {
            let node = tree.node(id);
            hashes[id.index()] = node_fingerprint(
                node.node_type,
                log_feature(node.est_cost),
                log_feature(self.cardinality(node)),
                node.children.iter().map(|c| hashes[c.index()]),
            );
        };
        // Every child must be hashed before its parent. A tree built with
        // `TreeBuilder` stores children first, so arena order does; any
        // other layout is redone in reverse preorder.
        let children_first = tree.ids().all(|id| {
            let ok = tree
                .node(id)
                .children
                .iter()
                .all(|c| c.index() < id.index());
            if ok {
                fold(id);
            }
            ok
        });
        if !children_first {
            tree.dfs().into_iter().rev().for_each(&mut fold);
        }
        self.salt() ^ hashes[tree.root().index()]
    }

    /// Convert a model output (log-ms) back to milliseconds.
    ///
    /// Degenerate logits are sanitized rather than propagated: NaN maps to
    /// the measurement floor, and the log-value is clamped to
    /// `[ln(MS_FLOOR), MAX_LOG_MS]` so the result is always finite and
    /// positive even for ±∞ inputs.
    #[inline]
    pub fn to_ms(log_ms: f32) -> f64 {
        if log_ms.is_nan() {
            return MS_FLOOR;
        }
        (log_ms as f64).clamp(MS_FLOOR.ln(), MAX_LOG_MS).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_plan::{LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};

    fn toy_plan(cost: f64, rows: f64, ms: f64) -> LabeledPlan {
        let mut b = TreeBuilder::new();
        let scan = {
            let mut n = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
            n.est_cost = cost / 2.0;
            n.est_rows = rows;
            n.actual_ms = ms / 2.0;
            n.actual_rows = rows * 1.5;
            b.leaf(n)
        };
        let root = {
            let mut n = PlanNode::new(NodeType::GroupAggregate, OpPayload::Other);
            n.est_cost = cost;
            n.est_rows = 1.0;
            n.actual_ms = ms;
            b.internal(n, &[scan])
        };
        LabeledPlan {
            tree: b.finish(root),
            db_id: 0,
            machine: MachineId::M1,
        }
    }

    fn toy_dataset() -> Dataset {
        Dataset::from_plans(
            (1..50)
                .map(|i| toy_plan(i as f64 * 10.0, i as f64, i as f64))
                .collect(),
        )
    }

    #[test]
    fn encoding_has_one_hot_plus_scaled_scalars() {
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        let feats = f.encode(&ds.plans[10].tree);
        assert_eq!(feats.x.rows(), 2);
        assert_eq!(feats.x.cols(), FEATURE_DIM);
        // Row 0 is the root (GroupAggregate) in DFS order.
        assert_eq!(
            feats.x.get(0, NodeType::GroupAggregate.one_hot_index()),
            1.0
        );
        assert_eq!(feats.x.get(1, NodeType::SeqScan.one_hot_index()), 1.0);
        // Exactly one one-hot bit per row.
        for r in 0..2 {
            let ones = (0..NODE_TYPE_COUNT)
                .filter(|&c| feats.x.get(r, c) == 1.0)
                .count();
            assert_eq!(ones, 1);
        }
        assert_eq!(feats.heights, vec![0, 1]);
        // The root attends to both rows, the leaf only to itself.
        assert_eq!(feats.spans, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn targets_are_log_latency() {
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        let feats = f.encode(&ds.plans[5].tree);
        let root_ms = ds.plans[5].tree.actual_ms();
        assert!((feats.targets[0] as f64 - root_ms.ln()).abs() < 1e-5);
        assert!((Featurizer::to_ms(feats.targets[0]) - root_ms).abs() < 1e-3);
    }

    #[test]
    fn actual_cardinality_variant_changes_encoding() {
        let ds = toy_dataset();
        let est = Featurizer::fit(&ds, FeatureConfig::default());
        let act = Featurizer::fit(
            &ds,
            FeatureConfig {
                use_actual_cardinality: true,
                ..Default::default()
            },
        );
        let fe = est.encode(&ds.plans[10].tree);
        let fa = act.encode(&ds.plans[10].tree);
        // actual_rows = 1.5 × est_rows in the toy plans, so the cardinality
        // feature must differ.
        assert_ne!(
            fe.x.get(1, NODE_TYPE_COUNT + 1),
            fa.x.get(1, NODE_TYPE_COUNT + 1)
        );
    }

    #[test]
    fn no_tree_attention_gives_full_spans() {
        let ds = toy_dataset();
        let f = Featurizer::fit(
            &ds,
            FeatureConfig {
                disable_tree_attention: true,
                ..Default::default()
            },
        );
        let feats = f.encode(&ds.plans[0].tree);
        assert_eq!(feats.spans, vec![(0, 2), (0, 2)]);
    }

    #[test]
    fn to_ms_sanitizes_degenerate_logits() {
        // Overflowed or NaN model outputs must never leak inf/NaN latencies
        // into downstream metrics.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30] {
            let ms = Featurizer::to_ms(bad);
            assert!(ms.is_finite() && ms > 0.0, "to_ms({bad}) = {ms}");
        }
        // ln→exp round-trip of the floor is only approximate in f64.
        assert!((Featurizer::to_ms(f32::NEG_INFINITY) - MS_FLOOR).abs() < 1e-12);
        // In-range values are untouched.
        assert!((Featurizer::to_ms(2.0) - (2.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn packed_batch_is_compact_with_shifted_spans() {
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        let two = f.encode(&ds.plans[3].tree);
        // A one-node plan: the leaf row of a two-node plan, by hand.
        let one = PlanFeatures {
            x: two.x.row_block(1, 1),
            spans: vec![(0, 1)],
            heights: vec![0],
            targets: vec![two.targets[1]],
        };
        let batch = PackedBatch::pack(&[&one, &two, &two]).unwrap();
        assert_eq!(batch.lens, vec![1, 2, 2]);
        // Every per-row field is in batch row order, with no padding.
        assert_eq!(batch.xc.rows(), 5);
        for (row, (p, i)) in [(&one, 0), (&two, 0), (&two, 1), (&two, 0), (&two, 1)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(batch.xc.row(row), p.x.row(i));
            assert_eq!(batch.targets[row], p.targets[i]);
            assert_eq!(batch.heights[row], p.heights[i]);
        }
        // Each plan's spans are shifted to its first batch row.
        assert_eq!(batch.spans, vec![(0, 1), (1, 3), (2, 3), (3, 5), (4, 5)]);
    }

    /// A two-node plan with node `i`'s span replaced by `span`, packed.
    fn pack_with_span(i: usize, span: (usize, usize)) {
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        let mut feats = f.encode(&ds.plans[0].tree);
        feats.spans[i] = span;
        let _ = PackedBatch::pack(&[&feats]);
    }

    #[test]
    #[should_panic(expected = "must hold it within its 2-node plan")]
    fn pack_rejects_a_span_past_the_plan() {
        pack_with_span(1, (1, 3));
    }

    #[test]
    #[should_panic(expected = "must hold it within its 2-node plan")]
    fn pack_rejects_a_span_that_misses_its_node() {
        pack_with_span(0, (1, 2));
    }

    #[test]
    #[should_panic(expected = "must hold it within its 2-node plan")]
    fn pack_rejects_an_empty_span() {
        pack_with_span(1, (1, 1));
    }

    /// A node with distinct estimates, so every node hashes differently.
    fn est_node(node_type: NodeType, cost: f64) -> PlanNode {
        let mut n = PlanNode::new(node_type, OpPayload::Other);
        n.est_cost = cost;
        n.est_rows = cost * 3.0;
        n
    }

    #[test]
    fn fingerprint_ignores_arena_layout_and_follows_child_order() {
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        // HashJoin(Hash(SeqScan 20), SeqScan 10), children stored first.
        let mut b = TreeBuilder::new();
        let s2 = b.leaf(est_node(NodeType::SeqScan, 20.0));
        let hash = b.internal(est_node(NodeType::Hash, 25.0), &[s2]);
        let s1 = b.leaf(est_node(NodeType::SeqScan, 10.0));
        let root = b.internal(est_node(NodeType::HashJoin, 60.0), &[hash, s1]);
        let built = b.finish(root);
        // The same tree with the Hash node stored before its child.
        let mut b = TreeBuilder::new();
        let a = b.leaf(est_node(NodeType::SeqScan, 10.0));
        let c = b.leaf(est_node(NodeType::SeqScan, 20.0));
        let d = b.internal(est_node(NodeType::Hash, 25.0), &[c]);
        let root = b.internal(est_node(NodeType::HashJoin, 60.0), &[d, a]);
        let mut rewired = b.finish(root);
        *rewired.node_mut(c) = est_node(NodeType::Hash, 25.0);
        rewired.node_mut(c).children = [d].into();
        *rewired.node_mut(d) = est_node(NodeType::SeqScan, 20.0);
        rewired.node_mut(root).children = [c, a].into();
        assert_eq!(f.fingerprint(&rewired), f.fingerprint(&built));
        assert_eq!(f.encode(&rewired).x, f.encode(&built).x);
        // Swapping the join's inputs changes the key.
        rewired.node_mut(root).children = [a, c].into();
        assert_ne!(f.fingerprint(&rewired), f.fingerprint(&built));
    }

    #[test]
    fn fingerprint_keeps_estimates_a_parent_repeats_from_its_child() {
        // A pass-through parent often carries its input's estimates; the
        // key must still change with them.
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        let tree = |cost: f64| {
            let mut b = TreeBuilder::new();
            let scan = b.leaf(est_node(NodeType::SeqScan, cost));
            let root = b.internal(est_node(NodeType::Gather, cost), &[scan]);
            b.finish(root)
        };
        assert_ne!(f.fingerprint(&tree(10.0)), f.fingerprint(&tree(500.0)));
    }

    #[test]
    fn hostile_estimates_encode_to_finite_features() {
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0] {
            let mut plan = toy_plan(10.0, 5.0, 1.0);
            let root = plan.tree.root();
            plan.tree.node_mut(root).est_cost = bad;
            plan.tree.node_mut(root).est_rows = bad;
            let feats = f.encode(&plan.tree);
            for r in 0..feats.x.rows() {
                for c in 0..FEATURE_DIM {
                    assert!(feats.x.get(r, c).is_finite(), "x[{r},{c}] with {bad}");
                }
            }
            // The fingerprint must stay well-defined too (cache keys).
            let _ = f.fingerprint(&plan.tree);
        }
        // Finite in-domain estimates are bit-identical to the plain
        // transform: sanitization changes nothing for real plans.
        let plain = f.encode(&ds.plans[10].tree);
        assert_eq!(
            plain.x.get(0, NODE_TYPE_COUNT),
            f.cost_scaler
                .transform((1.0 + ds.plans[10].tree.node(ds.plans[10].tree.root()).est_cost).ln())
                as f32
        );
    }

    #[test]
    fn scalers_are_robust_to_scale() {
        let ds = toy_dataset();
        let f = Featurizer::fit(&ds, FeatureConfig::default());
        let feats = f.encode(&ds.plans[24].tree);
        // Scaled features of a mid-range plan should be O(1).
        assert!(feats.x.get(0, NODE_TYPE_COUNT).abs() < 5.0);
        assert!(feats.x.get(0, NODE_TYPE_COUNT + 1).abs() < 5.0);
    }
}
