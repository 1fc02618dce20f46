//! Zero-Shot (Hilprecht & Binnig): node-type-specific MLPs with bottom-up
//! message passing — the across-database baseline DACE is measured against.
//!
//! Each node's hidden state is `MLP_type([features ‖ mean(children hidden)])`
//! and the root hidden state feeds an output MLP. Only the root latency is
//! supervised (no sub-plan learning — Fig. 4's motivation for DACE).

use dace_nn::{Linear, Param, Tensor2};
use dace_plan::{Dataset, PlanTree, NODE_TYPE_COUNT};

use crate::estimator::{log_ms, CostEstimator};
use crate::plan_feat::{
    debug_assert_child_before_parent, single_node_features, NodeScalers, NODE_FEAT,
};
use crate::train::{fit_minibatches, linear_relu, linear_relu_backward, Schedule};

/// Hidden state width propagated up the tree.
const HIDDEN: usize = 128;
/// Per-type MLP input: node features + mean child hidden.
const INPUT: usize = NODE_FEAT + HIDDEN;

#[derive(Debug, Clone)]
struct TypeNet {
    l1: Linear,
    l2: Linear,
}

impl TypeNet {
    fn new(seed: u64) -> TypeNet {
        TypeNet {
            l1: Linear::new(INPUT, HIDDEN, seed),
            l2: Linear::new(HIDDEN, HIDDEN, seed ^ 0xCC),
        }
    }
}

struct NodeCache {
    x: Tensor2,
    h1: Tensor2,
    h2: Tensor2,
    n_children: usize,
}

/// The Zero-Shot estimator.
pub struct ZeroShot {
    nets: Vec<TypeNet>,
    out1: Linear,
    out2: Linear,
    scalers: Option<NodeScalers>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Plans per optimizer step.
    pub batch: usize,
    seed: u64,
}

impl ZeroShot {
    /// Seeded, untrained Zero-Shot model.
    pub fn new(seed: u64) -> ZeroShot {
        ZeroShot {
            nets: (0..NODE_TYPE_COUNT as u64)
                .map(|i| TypeNet::new(seed ^ (i * 0xA5A5)))
                .collect(),
            out1: Linear::new(HIDDEN, 64, seed ^ 0x0111),
            out2: Linear::new(64, 1, seed ^ 0x0112),
            scalers: None,
            epochs: 30,
            lr: 1e-3,
            batch: 64,
            seed,
        }
    }

    /// Bottom-up message passing; returns per-node caches (arena-indexed).
    fn forward_plan(&self, tree: &PlanTree, scalers: &NodeScalers) -> Vec<Option<NodeCache>> {
        debug_assert_child_before_parent(tree);
        let mut caches: Vec<Option<NodeCache>> = (0..tree.len()).map(|_| None).collect();
        let order = tree.dfs();
        for &id in order.iter().rev() {
            let node = tree.node(id);
            let mut x = vec![0.0f32; INPUT];
            x[..NODE_FEAT].copy_from_slice(&single_node_features(tree, id, scalers));
            let k = node.children.len();
            if k > 0 {
                for &c in &node.children {
                    let ch = &caches[c.index()]
                        .as_ref()
                        .expect("DFS invariant: child cached before parent")
                        .h2;
                    for j in 0..HIDDEN {
                        x[NODE_FEAT + j] += ch.get(0, j) / k as f32;
                    }
                }
            }
            let x = Tensor2::from_vec(1, INPUT, x);
            let net = &self.nets[node.node_type.one_hot_index()];
            let h1 = linear_relu(&net.l1, &x);
            let h2 = linear_relu(&net.l2, &h1);
            caches[id.index()] = Some(NodeCache {
                x,
                h1,
                h2,
                n_children: k,
            });
        }
        caches
    }

    /// Root prediction from caches.
    fn head(&self, root_h: &Tensor2) -> (Tensor2, f32) {
        let o1 = linear_relu(&self.out1, root_h);
        let pred = self.out2.forward(&o1).get(0, 0);
        (o1, pred)
    }

    /// Backward from a root prediction gradient.
    fn backward_plan(
        &mut self,
        tree: &PlanTree,
        caches: &[Option<NodeCache>],
        o1: &Tensor2,
        d_pred: f32,
    ) {
        // Head.
        let d = Tensor2::from_vec(1, 1, vec![d_pred]);
        let d = self.out2.backward(&d, o1);
        let root_h = &caches[tree.root().index()]
            .as_ref()
            .expect("forward_plan caches every node")
            .h2;
        let d_root_h = linear_relu_backward(&mut self.out1, d, root_h, o1);

        // Top-down through the tree.
        let order = tree.dfs();
        let mut d_h2: Vec<Tensor2> = (0..tree.len()).map(|_| Tensor2::zeros(1, HIDDEN)).collect();
        d_h2[tree.root().index()] = d_root_h;
        for &id in &order {
            let node = tree.node(id);
            let cache = caches[id.index()]
                .as_ref()
                .expect("forward_plan caches every node");
            let net = &mut self.nets[node.node_type.one_hot_index()];
            // A node's gradient is complete once its parent has run.
            let d = std::mem::take(&mut d_h2[id.index()]);
            let d = linear_relu_backward(&mut net.l2, d, &cache.h1, &cache.h2);
            let dx = linear_relu_backward(&mut net.l1, d, &cache.x, &cache.h1);
            let k = cache.n_children;
            for &c in &node.children {
                let dst = &mut d_h2[c.index()];
                for j in 0..HIDDEN {
                    let cur = dst.get(0, j);
                    dst.set(0, j, cur + dx.get(0, NODE_FEAT + j) / k as f32);
                }
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p: Vec<&mut Param> = self
            .nets
            .iter_mut()
            .flat_map(|n| {
                let mut v = n.l1.params_mut();
                v.extend(n.l2.params_mut());
                v
            })
            .collect();
        p.extend(self.out1.params_mut());
        p.extend(self.out2.params_mut());
        p
    }
}

impl CostEstimator for ZeroShot {
    fn name(&self) -> &'static str {
        "Zero-Shot"
    }

    fn fit(&mut self, train: &Dataset) {
        assert!(!train.is_empty());
        let scalers = NodeScalers::fit(train);
        let targets: Vec<f32> = train.plans.iter().map(|p| log_ms(p.latency_ms())).collect();
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
            ZeroShot::params_mut,
            |m, i, len| {
                let tree = &train.plans[i].tree;
                let caches = m.forward_plan(tree, &scalers);
                let root_h = &caches[tree.root().index()]
                    .as_ref()
                    .expect("forward_plan caches every node")
                    .h2;
                let (o1, pred) = m.head(root_h);
                m.backward_plan(tree, &caches, &o1, 2.0 * (pred - targets[i]) / len as f32);
            },
        );
        self.scalers = Some(scalers);
    }

    fn predict_ms(&self, tree: &PlanTree) -> f64 {
        let scalers = self.scalers.as_ref().expect("Zero-Shot not fitted");
        let caches = self.forward_plan(tree, scalers);
        let root_h = &caches[tree.root().index()]
            .as_ref()
            .expect("forward_plan caches every node")
            .h2;
        let (_, pred) = self.head(root_h);
        (pred as f64).exp()
    }

    fn param_count(&self) -> usize {
        self.nets
            .iter()
            .map(|n| n.l1.param_count() + n.l2.param_count())
            .sum::<usize>()
            + self.out1.param_count()
            + self.out2.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qppnet::tree_dataset;

    #[test]
    fn learns_composed_tree_latencies() {
        let train = tree_dataset(400, 11);
        let test = tree_dataset(80, 12);
        let mut model = ZeroShot::new(13);
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
        assert!(q < 1.7, "median qerror {q}");
    }

    #[test]
    fn model_size_dwarfs_dace() {
        let model = ZeroShot::new(1);
        // The paper: Zero-Shot is ~33–42× larger than DACE.
        assert!(model.param_count() > 300_000, "{}", model.param_count());
    }

    #[test]
    fn gradients_reach_leaf_types() {
        let train = tree_dataset(5, 3);
        let mut model = ZeroShot::new(2);
        model.epochs = 1;
        model.batch = 1;
        model.fit(&train);
        // SeqScan (leaf type in the corpus) must have been updated.
        let fresh = ZeroShot::new(2);
        let idx = dace_plan::NodeType::SeqScan.one_hot_index();
        assert_ne!(
            model.nets[idx].l1.w.value.as_slice()[..8],
            fresh.nets[idx].l1.w.value.as_slice()[..8]
        );
    }
}
