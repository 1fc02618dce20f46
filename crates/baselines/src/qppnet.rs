//! QPPNet (Marcus & Papaemmanouil): plan-structured neural network with one
//! sub-network per operator type; child outputs feed parent inputs and every
//! sub-plan's latency is supervised **with equal weight** — the information
//! redundancy DACE's loss adjuster fixes (paper Sec. IV-B).

use dace_nn::{Linear, Param, Tensor2};
use dace_plan::{Dataset, PlanTree, NODE_TYPE_COUNT};

use crate::estimator::{log_ms, CostEstimator};
use crate::plan_feat::{
    debug_assert_child_before_parent, single_node_features, NodeScalers, NODE_FEAT,
};
use crate::train::{fit_minibatches, linear_relu, linear_relu_backward, Schedule};

/// Width of the "data vector" a node passes to its parent.
const DATA_VEC: usize = 16;
/// Hidden width of each per-type sub-network.
const HIDDEN: usize = 256;
/// Input: own features + summed child outputs (prediction + data vector).
const INPUT: usize = NODE_FEAT + 1 + DATA_VEC;

/// One operator type's sub-network: input → hidden → (log-latency, data vec).
#[derive(Debug, Clone)]
struct TypeNet {
    l1: Linear,
    l2: Linear,
}

impl TypeNet {
    fn new(seed: u64) -> TypeNet {
        TypeNet {
            l1: Linear::new(INPUT, HIDDEN, seed),
            l2: Linear::new(HIDDEN, 1 + DATA_VEC, seed ^ 0xBB),
        }
    }
}

/// Per-node forward cache for the recursive passes.
struct NodeCache {
    x: Tensor2,
    h: Tensor2,
    out: Tensor2,
}

/// The QPPNet estimator.
pub struct QppNet {
    nets: Vec<TypeNet>,
    scalers: Option<NodeScalers>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Plans per optimizer step.
    pub batch: usize,
    seed: u64,
}

impl QppNet {
    /// Seeded, untrained QPPNet.
    pub fn new(seed: u64) -> QppNet {
        QppNet {
            nets: (0..NODE_TYPE_COUNT as u64)
                .map(|i| TypeNet::new(seed ^ (i * 0x9E37)))
                .collect(),
            scalers: None,
            epochs: 30,
            lr: 1e-3,
            batch: 64,
            seed,
        }
    }

    /// Post-order forward over the whole plan; returns per-node caches
    /// indexed by arena id.
    fn forward_plan(&self, tree: &PlanTree, scalers: &NodeScalers) -> Vec<Option<NodeCache>> {
        debug_assert_child_before_parent(tree);
        let mut caches: Vec<Option<NodeCache>> = (0..tree.len()).map(|_| None).collect();
        // Reverse DFS preorder = children before parents.
        let order = tree.dfs();
        for &id in order.iter().rev() {
            let node = tree.node(id);
            let mut x = vec![0.0f32; INPUT];
            x[..NODE_FEAT].copy_from_slice(&single_node_features(tree, id, scalers));
            for &c in &node.children {
                let child_out = &caches[c.index()]
                    .as_ref()
                    .expect("DFS invariant: child cached before parent")
                    .out;
                for k in 0..1 + DATA_VEC {
                    x[NODE_FEAT + k] += child_out.get(0, k);
                }
            }
            let x = Tensor2::from_vec(1, INPUT, x);
            let net = &self.nets[node.node_type.one_hot_index()];
            let h = linear_relu(&net.l1, &x);
            let out = net.l2.forward(&h);
            caches[id.index()] = Some(NodeCache { x, h, out });
        }
        caches
    }

    /// Pre-order backward: per-node output gradients flow from both the
    /// node's own loss term and its parent's input.
    fn backward_plan(&mut self, tree: &PlanTree, caches: &[Option<NodeCache>], d_pred: &[f32]) {
        let order = tree.dfs();
        let mut d_out: Vec<Tensor2> = (0..tree.len())
            .map(|_| Tensor2::zeros(1, 1 + DATA_VEC))
            .collect();
        // Own loss terms (aligned with DFS order of d_pred).
        for (i, &id) in order.iter().enumerate() {
            d_out[id.index()].set(0, 0, d_pred[i]);
        }
        for &id in &order {
            let node = tree.node(id);
            let cache = caches[id.index()]
                .as_ref()
                .expect("forward_plan caches every node");
            let net = &mut self.nets[node.node_type.one_hot_index()];
            let dh = net.l2.backward(&d_out[id.index()], &cache.h);
            let dx = linear_relu_backward(&mut net.l1, dh, &cache.x, &cache.h);
            // Sum aggregation: each child receives the same slice gradient.
            for &c in &node.children {
                let dst = &mut d_out[c.index()];
                for k in 0..1 + DATA_VEC {
                    let cur = dst.get(0, k);
                    dst.set(0, k, cur + dx.get(0, NODE_FEAT + k));
                }
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.nets
            .iter_mut()
            .flat_map(|n| {
                let mut p = n.l1.params_mut();
                p.extend(n.l2.params_mut());
                p
            })
            .collect()
    }

    fn root_pred(&self, tree: &PlanTree, scalers: &NodeScalers) -> f32 {
        let caches = self.forward_plan(tree, scalers);
        caches[tree.root().index()].as_ref().unwrap().out.get(0, 0)
    }
}

impl CostEstimator for QppNet {
    fn name(&self) -> &'static str {
        "QPPNet"
    }

    fn fit(&mut self, train: &Dataset) {
        assert!(!train.is_empty());
        let scalers = NodeScalers::fit(train);
        // Per-plan DFS-ordered sub-plan targets.
        let targets: Vec<Vec<f32>> = train
            .plans
            .iter()
            .map(|p| {
                p.tree
                    .dfs()
                    .iter()
                    .map(|&id| log_ms(p.tree.node(id).actual_ms))
                    .collect()
            })
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
            QppNet::params_mut,
            |m, i, len| {
                let tree = &train.plans[i].tree;
                let caches = m.forward_plan(tree, &scalers);
                let dfs = tree.dfs();
                // Equal-weight sub-plan loss: mean squared log error over all
                // nodes (QPPNet's defining training signal).
                let n = dfs.len() as f32;
                let d_pred: Vec<f32> = dfs
                    .iter()
                    .enumerate()
                    .map(|(k, &id)| {
                        let pred = caches[id.index()].as_ref().unwrap().out.get(0, 0);
                        2.0 * (pred - targets[i][k]) / (n * len as f32)
                    })
                    .collect();
                m.backward_plan(tree, &caches, &d_pred);
            },
        );
        self.scalers = Some(scalers);
    }

    fn predict_ms(&self, tree: &PlanTree) -> f64 {
        let scalers = self.scalers.as_ref().expect("QPPNet not fitted");
        (self.root_pred(tree, scalers) as f64).exp()
    }

    fn param_count(&self) -> usize {
        self.nets
            .iter()
            .map(|n| n.l1.param_count() + n.l2.param_count())
            .sum()
    }
}

/// Shared test helper: a synthetic corpus where latency composes bottom-up
/// with operator-dependent rates — the structure tree models should learn.
#[cfg(test)]
pub(crate) fn tree_dataset(n: usize, seed: u64) -> Dataset {
    use dace_plan::{LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let plans = (0..n)
        .map(|_| {
            let mut b = TreeBuilder::new();
            let make_scan = |b: &mut TreeBuilder, rng: &mut SmallRng| {
                let cost = rng.gen_range(50.0..5_000.0f64);
                let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                node.est_cost = cost;
                node.est_rows = cost * 10.0;
                node.actual_ms = cost * 0.005;
                node.actual_rows = cost * 9.0;
                b.leaf(node)
            };
            let s1 = make_scan(&mut b, &mut rng);
            let s2 = make_scan(&mut b, &mut rng);
            let use_hash = rng.gen_bool(0.5);
            let (ty, rate) = if use_hash {
                (NodeType::HashJoin, 0.002)
            } else {
                (NodeType::NestedLoop, 0.015)
            };
            let child_ms = b.node(s1).actual_ms + b.node(s2).actual_ms;
            let join_cost = b.node(s1).est_cost + b.node(s2).est_cost;
            let join = {
                let mut node = PlanNode::new(ty, OpPayload::Other);
                node.est_cost = join_cost * 1.5;
                node.est_rows = 5_000.0;
                node.actual_ms = child_ms + join_cost * rate;
                node.actual_rows = 4_000.0;
                b.internal(node, &[s1, s2])
            };
            let root = {
                let mut node = PlanNode::new(NodeType::GroupAggregate, OpPayload::Other);
                node.est_cost = join_cost * 1.6;
                node.est_rows = 1.0;
                node.actual_ms = b.node(join).actual_ms * 1.1;
                node.actual_rows = 1.0;
                b.internal(node, &[join])
            };
            LabeledPlan {
                tree: b.finish(root),
                db_id: 0,
                machine: MachineId::M1,
            }
        })
        .collect();
    Dataset::from_plans(plans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_qerror(model: &dyn CostEstimator, ds: &Dataset) -> f64 {
        let mut qs: Vec<f64> = ds
            .plans
            .iter()
            .map(|p| {
                let pred = model.predict_ms(&p.tree).max(1e-9);
                let act = p.latency_ms();
                (pred / act).max(act / pred)
            })
            .collect();
        qs.sort_by(f64::total_cmp);
        qs[qs.len() / 2]
    }

    #[test]
    fn learns_composed_tree_latencies() {
        let train = tree_dataset(400, 1);
        let test = tree_dataset(80, 2);
        let mut model = QppNet::new(3);
        model.epochs = 40;
        model.fit(&train);
        let q = median_qerror(&model, &test);
        assert!(q < 1.6, "median qerror {q}");
    }

    #[test]
    fn all_subplans_receive_gradient() {
        let train = tree_dataset(10, 4);
        let mut model = QppNet::new(5);
        let scalers = NodeScalers::fit(&train);
        let tree = &train.plans[0].tree;
        let caches = model.forward_plan(tree, &scalers);
        let d = vec![1.0f32; tree.len()];
        model.backward_plan(tree, &caches, &d);
        // Every operator type present in the plan must have gradients.
        for id in tree.ids() {
            let ty = tree.node(id).node_type;
            let net = &model.nets[ty.one_hot_index()];
            assert!(net.l1.w.grad.norm_sq() > 0.0, "{ty:?} got no gradient");
        }
    }

    #[test]
    fn per_type_networks_are_separate() {
        let model = QppNet::new(6);
        assert_eq!(model.nets.len(), NODE_TYPE_COUNT);
        // Seeded differently per type.
        assert_ne!(
            model.nets[0].l1.w.value.as_slice()[0],
            model.nets[1].l1.w.value.as_slice()[0]
        );
    }
}
