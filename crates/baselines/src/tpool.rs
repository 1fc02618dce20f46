//! TPool (Sun & Li's end-to-end learned estimator): a shared node encoder
//! with recursive tree pooling and **multi-task** heads predicting both the
//! execution time and the cardinality of the plan.
//!
//! Simplification vs. the original: the paper's string-predicate embeddings
//! (learned over value tokens) become the hashed predicate encodings of
//! [`crate::plan_feat`] pooled per node — no pre-trained word vectors exist
//! offline, and the hashed features exercise the same code path: per-node
//! predicate information flowing into a tree-pooled representation.

use dace_nn::{Linear, Param, Tensor2};
use dace_plan::{Dataset, OpPayload, PlanTree};

use crate::estimator::{log_ms, CostEstimator};
use crate::plan_feat::{
    debug_assert_child_before_parent, single_node_features, NodeScalers, NODE_FEAT, PRED_FEAT,
};
use crate::train::{fit_minibatches, linear_relu, linear_relu_backward, Schedule};

/// Node representation width.
const HIDDEN: usize = 256;
/// Encoder input: node features + pooled predicate encoding.
const ENC_IN: usize = NODE_FEAT + PRED_FEAT;

struct NodeCache {
    enc_in: Tensor2,
    enc_out: Tensor2,
    comb_in: Tensor2,
    repr: Tensor2,
    /// For each hidden dim, which child's pooled value won the max (or
    /// `usize::MAX` when the zero vector won / no children).
    argmax: Vec<usize>,
}

/// The TPool estimator.
pub struct TPool {
    encoder: Linear,
    combine: Linear,
    cost_head1: Linear,
    cost_head2: Linear,
    card_head: Linear,
    scalers: Option<NodeScalers>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Plans per optimizer step.
    pub batch: usize,
    /// Weight of the auxiliary cardinality task.
    pub card_task_weight: f32,
    seed: u64,
}

impl TPool {
    /// Seeded, untrained TPool.
    pub fn new(seed: u64) -> TPool {
        TPool {
            encoder: Linear::new(ENC_IN, HIDDEN, seed ^ 0x70),
            combine: Linear::new(2 * HIDDEN, HIDDEN, seed ^ 0x71),
            cost_head1: Linear::new(HIDDEN, 64, seed ^ 0x72),
            cost_head2: Linear::new(64, 1, seed ^ 0x73),
            card_head: Linear::new(HIDDEN, 1, seed ^ 0x74),
            scalers: None,
            epochs: 30,
            lr: 1e-3,
            batch: 64,
            card_task_weight: 0.5,
            seed,
        }
    }

    /// Mean-pooled predicate features of one node's scan payload.
    fn node_predicates(tree: &PlanTree, id: dace_plan::NodeId) -> Vec<f32> {
        let mut pooled = vec![0.0f32; PRED_FEAT];
        if let OpPayload::Scan(scan) = &tree.node(id).payload {
            if !scan.predicates.is_empty() {
                let encs: Vec<Vec<f32>> = crate::plan_feat::plan_predicates(&tree.sub_plan(id));
                let k = encs.len().max(1) as f32;
                for e in encs {
                    for (p, v) in pooled.iter_mut().zip(e) {
                        *p += v / k;
                    }
                }
            }
        }
        pooled
    }

    /// Bottom-up forward with per-dimension max pooling over children.
    ///
    /// Walks the DFS preorder **reversed**, so every child's cache exists
    /// by the time its parent pools over it (see
    /// [`debug_assert_child_before_parent`]).
    fn forward_plan(&self, tree: &PlanTree, scalers: &NodeScalers) -> Vec<Option<NodeCache>> {
        debug_assert_child_before_parent(tree);
        let mut caches: Vec<Option<NodeCache>> = (0..tree.len()).map(|_| None).collect();
        let order = tree.dfs();
        for &id in order.iter().rev() {
            let node = tree.node(id);
            let mut enc_in = vec![0.0f32; ENC_IN];
            enc_in[..NODE_FEAT].copy_from_slice(&single_node_features(tree, id, scalers));
            enc_in[NODE_FEAT..].copy_from_slice(&Self::node_predicates(tree, id));
            let enc_in = Tensor2::from_vec(1, ENC_IN, enc_in);
            let enc_out = linear_relu(&self.encoder, &enc_in);

            // Max pool children representations per dimension.
            let mut pooled = vec![0.0f32; HIDDEN];
            let mut argmax = vec![usize::MAX; HIDDEN];
            for &c in &node.children {
                let ch = &caches[c.index()]
                    .as_ref()
                    .expect("DFS invariant: child cached before parent")
                    .repr;
                for j in 0..HIDDEN {
                    let v = ch.get(0, j);
                    if v > pooled[j] {
                        pooled[j] = v;
                        argmax[j] = c.index();
                    }
                }
            }
            let mut comb_in = vec![0.0f32; 2 * HIDDEN];
            comb_in[..HIDDEN].copy_from_slice(enc_out.row(0));
            comb_in[HIDDEN..].copy_from_slice(&pooled);
            let comb_in = Tensor2::from_vec(1, 2 * HIDDEN, comb_in);
            let repr = linear_relu(&self.combine, &comb_in);
            caches[id.index()] = Some(NodeCache {
                enc_in,
                enc_out,
                comb_in,
                repr,
                argmax,
            });
        }
        caches
    }

    /// Heads on the root representation: (hidden, log-ms, log-card).
    fn heads(&self, root_repr: &Tensor2) -> (Tensor2, f32, f32) {
        let h = linear_relu(&self.cost_head1, root_repr);
        let cost = self.cost_head2.forward(&h).get(0, 0);
        let card = self.card_head.forward(root_repr).get(0, 0);
        (h, cost, card)
    }

    fn backward_plan(
        &mut self,
        tree: &PlanTree,
        caches: &[Option<NodeCache>],
        head_h: &Tensor2,
        d_cost: f32,
        d_card: f32,
    ) {
        let root = tree.root().index();
        let root_repr = &caches[root]
            .as_ref()
            .expect("forward_plan caches every node")
            .repr;
        // Cost head.
        let d = Tensor2::from_vec(1, 1, vec![d_cost]);
        let d = self.cost_head2.backward(&d, head_h);
        let mut d_root = linear_relu_backward(&mut self.cost_head1, d, root_repr, head_h);
        // Cardinality head (multi-task).
        let dc = Tensor2::from_vec(1, 1, vec![d_card]);
        d_root.add_assign(&self.card_head.backward(&dc, root_repr));

        // Top-down through max pooling.
        let order = tree.dfs();
        let mut d_repr: Vec<Tensor2> = (0..tree.len()).map(|_| Tensor2::zeros(1, HIDDEN)).collect();
        d_repr[root] = d_root;
        for &id in &order {
            let cache = caches[id.index()]
                .as_ref()
                .expect("forward_plan caches every node");
            // A node's gradient is complete once its parent has run.
            let d = std::mem::take(&mut d_repr[id.index()]);
            let d_comb = linear_relu_backward(&mut self.combine, d, &cache.comb_in, &cache.repr);
            // Encoder segment.
            let d_enc = Tensor2::from_vec(1, HIDDEN, d_comb.row(0)[..HIDDEN].to_vec());
            let _ = linear_relu_backward(&mut self.encoder, d_enc, &cache.enc_in, &cache.enc_out);
            // Max-pool routes each dim's gradient to the winning child.
            for j in 0..HIDDEN {
                let winner = cache.argmax[j];
                if winner != usize::MAX {
                    let g = d_comb.get(0, HIDDEN + j);
                    let cur = d_repr[winner].get(0, j);
                    d_repr[winner].set(0, j, cur + g);
                }
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.encoder.params_mut();
        p.extend(self.combine.params_mut());
        p.extend(self.cost_head1.params_mut());
        p.extend(self.cost_head2.params_mut());
        p.extend(self.card_head.params_mut());
        p
    }
}

impl CostEstimator for TPool {
    fn name(&self) -> &'static str {
        "TPool"
    }

    fn fit(&mut self, train: &Dataset) {
        assert!(!train.is_empty());
        let scalers = NodeScalers::fit(train);
        let cost_targets: Vec<f32> = train.plans.iter().map(|p| log_ms(p.latency_ms())).collect();
        let card_targets: Vec<f32> = train
            .plans
            .iter()
            .map(|p| (1.0 + p.tree.node(p.tree.root()).actual_rows).ln() as f32)
            .collect();
        let schedule = Schedule {
            epochs: self.epochs,
            lr: self.lr,
            batch: self.batch,
            seed: self.seed,
        };
        fit_minibatches(
            self,
            train.len(),
            &schedule,
            TPool::params_mut,
            |m, i, len| {
                let tree = &train.plans[i].tree;
                let caches = m.forward_plan(tree, &scalers);
                let root_repr = &caches[tree.root().index()]
                    .as_ref()
                    .expect("forward_plan caches every node")
                    .repr;
                let (h, cost, card) = m.heads(root_repr);
                let d_cost = 2.0 * (cost - cost_targets[i]) / len as f32;
                let d_card = m.card_task_weight * 2.0 * (card - card_targets[i]) / len as f32;
                m.backward_plan(tree, &caches, &h, d_cost, d_card);
            },
        );
        self.scalers = Some(scalers);
    }

    fn predict_ms(&self, tree: &PlanTree) -> f64 {
        let scalers = self.scalers.as_ref().expect("TPool not fitted");
        let caches = self.forward_plan(tree, scalers);
        let root_repr = &caches[tree.root().index()]
            .as_ref()
            .expect("forward_plan caches every node")
            .repr;
        let (_, cost, _) = self.heads(root_repr);
        (cost as f64).exp()
    }

    fn param_count(&self) -> usize {
        self.encoder.param_count()
            + self.combine.param_count()
            + self.cost_head1.param_count()
            + self.cost_head2.param_count()
            + self.card_head.param_count()
    }
}

impl TPool {
    /// Predicted root cardinality (the multi-task second output).
    pub fn predict_cardinality(&self, tree: &PlanTree) -> f64 {
        let scalers = self.scalers.as_ref().expect("TPool not fitted");
        let caches = self.forward_plan(tree, scalers);
        let root_repr = &caches[tree.root().index()]
            .as_ref()
            .expect("forward_plan caches every node")
            .repr;
        let (_, _, card) = self.heads(root_repr);
        (card as f64).exp() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qppnet::tree_dataset;

    #[test]
    fn learns_latency_and_cardinality_jointly() {
        let train = tree_dataset(400, 21);
        let test = tree_dataset(80, 22);
        let mut model = TPool::new(23);
        model.epochs = 40;
        model.fit(&train);
        let mut qs: Vec<f64> = test
            .plans
            .iter()
            .map(|p| {
                let pred = model.predict_ms(&p.tree).max(1e-9);
                let act = p.latency_ms();
                (pred / act).max(act / pred)
            })
            .collect();
        qs.sort_by(f64::total_cmp);
        let q = qs[qs.len() / 2];
        assert!(q < 1.8, "median qerror {q}");
        // The cardinality head should be in the right ballpark too
        // (root actual_rows is 1.0 in the corpus).
        let card = model.predict_cardinality(&test.plans[0].tree);
        assert!(card.is_finite() && card < 1_000.0, "card {card}");
    }

    #[test]
    fn max_pool_routes_gradients() {
        let train = tree_dataset(5, 24);
        let mut model = TPool::new(25);
        model.epochs = 1;
        model.batch = 1;
        model.fit(&train);
        let fresh = TPool::new(25);
        // Compare the whole matrices, not a fixed prefix: the first rows of
        // `w` correspond to one input dimension each, and whether a given
        // unit's ReLU is alive at init (hence whether those specific weights
        // receive gradient) depends on the seed stream. The invariant being
        // tested is that gradients flow through the max pool into both
        // layers at all, which the full-matrix comparison captures.
        assert_ne!(
            model.combine.w.value.as_slice(),
            fresh.combine.w.value.as_slice()
        );
        assert_ne!(
            model.encoder.w.value.as_slice(),
            fresh.encoder.w.value.as_slice()
        );
    }
}
