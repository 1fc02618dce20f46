//! MSCN (Kipf et al.): multi-set convolutional network over table, join and
//! predicate sets, with optional DACE knowledge integration (Eq. 9).

use dace_core::DaceEstimator;
use dace_nn::{Linear, Param, Tensor2};
use dace_plan::{Dataset, PlanTree};

use crate::estimator::{log_ms, CostEstimator};
use crate::plan_feat::{
    plan_joins, plan_predicates, plan_tables, JOIN_FEAT, PRED_FEAT, TABLE_FEAT,
};
use crate::train::{fit_minibatches, linear_relu, linear_relu_backward, Schedule};

/// Hidden width of the per-set MLPs and the output MLP.
const HIDDEN: usize = 256;

/// A per-set deep-sets encoder: 2-layer MLP per element, mean pool.
#[derive(Debug, Clone)]
struct SetEncoder {
    l1: Linear,
    l2: Linear,
}

/// One set's forward activations: the set (`k × input`) and both hidden
/// layers (post-ReLU).
struct SetActs {
    x: Tensor2,
    h1: Tensor2,
    h2: Tensor2,
}

impl SetEncoder {
    fn new(input: usize, seed: u64) -> SetEncoder {
        SetEncoder {
            l1: Linear::new(input, HIDDEN, seed),
            l2: Linear::new(HIDDEN, HIDDEN, seed ^ 0xA1),
        }
    }

    /// Encode a set (`k × input`) into a pooled `1 × HIDDEN` vector; an
    /// empty set pools to zeros.
    fn forward(&self, x: Tensor2) -> (Tensor2, SetActs) {
        if x.rows() == 0 {
            let acts = SetActs {
                x,
                h1: Tensor2::default(),
                h2: Tensor2::default(),
            };
            return (Tensor2::zeros(1, HIDDEN), acts);
        }
        let h1 = linear_relu(&self.l1, &x);
        let h2 = linear_relu(&self.l2, &h1);
        (mean_pool(&h2), SetActs { x, h1, h2 })
    }

    fn backward(&mut self, acts: &SetActs, d_pooled: &[f32]) {
        let k = acts.x.rows();
        if k == 0 {
            return;
        }
        // Mean pooling distributes the gradient evenly over elements.
        let mut dh = Tensor2::zeros(k, HIDDEN);
        for r in 0..k {
            for (v, &g) in dh.row_mut(r).iter_mut().zip(d_pooled) {
                *v = g / k as f32;
            }
        }
        let d = linear_relu_backward(&mut self.l2, dh, &acts.h1, &acts.h2);
        let _ = linear_relu_backward(&mut self.l1, d, &acts.x, &acts.h1);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.l1.params_mut();
        p.extend(self.l2.params_mut());
        p
    }

    fn param_count(&self) -> usize {
        self.l1.param_count() + self.l2.param_count()
    }
}

fn mean_pool(x: &Tensor2) -> Tensor2 {
    let sums = x.col_sums();
    let k = x.rows().max(1) as f32;
    Tensor2::from_vec(1, x.cols(), sums.into_iter().map(|s| s / k).collect())
}

/// One plan's forward activations: the three sets', the output MLP's input
/// (pooled sets ‖ DACE embedding) and hidden layer, and the predicted
/// log-latency.
struct MscnActs {
    sets: [SetActs; 3],
    x: Tensor2,
    h: Tensor2,
    pred: f32,
}

/// The MSCN estimator. Pass a pre-trained DACE to [`Mscn::with_encoder`] to
/// build DACE-MSCN: the plan's `h₂` embedding is concatenated to the pooled
/// set encodings before the output MLP (the paper's Eq. 9).
pub struct Mscn {
    tables: SetEncoder,
    joins: SetEncoder,
    preds: SetEncoder,
    out1: Linear,
    out2: Linear,
    encoder: Option<DaceEstimator>,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Plans per optimizer step.
    pub batch: usize,
    seed: u64,
}

impl Mscn {
    /// Plain MSCN.
    pub fn new(seed: u64) -> Mscn {
        Mscn::build(seed, None)
    }

    /// DACE-MSCN: knowledge integration with a pre-trained DACE encoder.
    pub fn with_encoder(seed: u64, encoder: DaceEstimator) -> Mscn {
        Mscn::build(seed, Some(encoder))
    }

    fn build(seed: u64, encoder: Option<DaceEstimator>) -> Mscn {
        let enc_dim = if encoder.is_some() {
            dace_core::ENCODING_DIM
        } else {
            0
        };
        Mscn {
            tables: SetEncoder::new(TABLE_FEAT, seed ^ 0x01),
            joins: SetEncoder::new(JOIN_FEAT, seed ^ 0x02),
            preds: SetEncoder::new(PRED_FEAT, seed ^ 0x03),
            out1: Linear::new(3 * HIDDEN + enc_dim, HIDDEN, seed ^ 0x04),
            out2: Linear::new(HIDDEN, 1, seed ^ 0x05),
            encoder,
            epochs: 30,
            lr: 1e-3,
            batch: 64,
            seed,
        }
    }

    /// The forward fit and inference share: the predicted log-latency and
    /// what [`Mscn::backward`] reads.
    fn forward(&self, tree: &PlanTree) -> MscnActs {
        let to_tensor = |rows: Vec<Vec<f32>>, width: usize| {
            let k = rows.len();
            let mut t = Tensor2::zeros(k, width);
            for (i, row) in rows.into_iter().enumerate() {
                t.row_mut(i).copy_from_slice(&row);
            }
            t
        };
        let (pt, t) = self
            .tables
            .forward(to_tensor(plan_tables(tree), TABLE_FEAT));
        let (pj, j) = self.joins.forward(to_tensor(plan_joins(tree), JOIN_FEAT));
        let (pp, p) = self
            .preds
            .forward(to_tensor(plan_predicates(tree), PRED_FEAT));
        let emb = self
            .encoder
            .as_ref()
            .map(|e| e.encode(tree))
            .unwrap_or_default();
        let mut concat = Vec::with_capacity(3 * HIDDEN + emb.len());
        concat.extend_from_slice(pt.row(0));
        concat.extend_from_slice(pj.row(0));
        concat.extend_from_slice(pp.row(0));
        concat.extend_from_slice(&emb);
        let x = Tensor2::from_vec(1, concat.len(), concat);
        let h = linear_relu(&self.out1, &x);
        let pred = self.out2.forward(&h).get(0, 0);
        MscnActs {
            sets: [t, j, p],
            x,
            h,
            pred,
        }
    }

    fn backward(&mut self, acts: &MscnActs, d_pred: f32) {
        let d = Tensor2::from_vec(1, 1, vec![d_pred]);
        let d = self.out2.backward(&d, &acts.h);
        let d = linear_relu_backward(&mut self.out1, d, &acts.x, &acts.h);
        // Split the concat gradient back to the three encoders (the DACE
        // embedding segment is an input, not a parameter — dropped).
        let [t, j, p] = &acts.sets;
        let d = d.row(0);
        self.tables.backward(t, &d[..HIDDEN]);
        self.joins.backward(j, &d[HIDDEN..2 * HIDDEN]);
        self.preds.backward(p, &d[2 * HIDDEN..3 * HIDDEN]);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.tables.params_mut();
        p.extend(self.joins.params_mut());
        p.extend(self.preds.params_mut());
        p.extend(self.out1.params_mut());
        p.extend(self.out2.params_mut());
        p
    }
}

impl CostEstimator for Mscn {
    fn name(&self) -> &'static str {
        if self.encoder.is_some() {
            "DACE-MSCN"
        } else {
            "MSCN"
        }
    }

    fn fit(&mut self, train: &Dataset) {
        assert!(!train.is_empty());
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
            Mscn::params_mut,
            |m, i, len| {
                let acts = m.forward(&train.plans[i].tree);
                m.backward(&acts, 2.0 * (acts.pred - targets[i]) / len as f32);
            },
        );
    }

    fn predict_ms(&self, tree: &PlanTree) -> f64 {
        (self.forward(tree).pred as f64).exp()
    }

    fn param_count(&self) -> usize {
        self.tables.param_count()
            + self.joins.param_count()
            + self.preds.param_count()
            + self.out1.param_count()
            + self.out2.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dace_plan::{
        CmpOp, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, PredicateInfo, ScanInfo,
        TreeBuilder,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Dataset where latency depends on which table is scanned and the
    /// predicate literal — data characteristics MSCN is built to learn.
    fn mscn_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plans = (0..n)
            .map(|_| {
                let table_id = rng.gen_range(0..4u32);
                let rank = rng.gen_range(0.0..1.0f64);
                let ms = (table_id as f64 + 1.0) * 10.0 * (0.1 + rank);
                let mut b = TreeBuilder::new();
                let id = {
                    let mut node = PlanNode::new(
                        NodeType::SeqScan,
                        OpPayload::Scan(ScanInfo {
                            table_id,
                            table_name: format!("t{table_id}").into(),
                            predicates: vec![PredicateInfo {
                                column_id: table_id * 64 + 1,
                                op: CmpOp::Lt,
                                literal_rank: rank,
                                literal_rank_hi: 0.0,
                                est_selectivity: rank,
                            }],
                        }),
                    );
                    node.est_cost = 100.0;
                    node.est_rows = 1000.0;
                    node.actual_ms = ms;
                    b.leaf(node)
                };
                LabeledPlan {
                    tree: b.finish(id),
                    db_id: 0,
                    machine: MachineId::M1,
                }
            })
            .collect();
        Dataset::from_plans(plans)
    }

    #[test]
    fn learns_table_and_predicate_dependence() {
        let train = mscn_dataset(400, 1);
        let test = mscn_dataset(80, 2);
        let mut m = Mscn::new(7);
        m.epochs = 40;
        m.fit(&train);
        let mut qs: Vec<f64> = test
            .plans
            .iter()
            .map(|p| {
                let pred = m.predict_ms(&p.tree).max(1e-9);
                let act = p.latency_ms();
                (pred / act).max(act / pred)
            })
            .collect();
        qs.sort_by(f64::total_cmp);
        let median = qs[qs.len() / 2];
        assert!(median < 1.6, "median qerror {median}");
    }

    #[test]
    fn handles_empty_sets() {
        // A bare scan with no predicates: joins and predicates sets empty.
        let mut b = TreeBuilder::new();
        let id = {
            let mut n = PlanNode::new(
                NodeType::SeqScan,
                OpPayload::Scan(ScanInfo {
                    table_id: 0,
                    table_name: "t".into(),
                    predicates: vec![],
                }),
            );
            n.actual_ms = 1.0;
            b.leaf(n)
        };
        let plan = LabeledPlan {
            tree: b.finish(id),
            db_id: 0,
            machine: MachineId::M1,
        };
        let mut m = Mscn::new(1);
        m.epochs = 2;
        m.fit(&Dataset::from_plans(vec![plan.clone()]));
        assert!(m.predict_ms(&plan.tree).is_finite());
    }

    #[test]
    fn param_count_is_megabyte_scale() {
        let m = Mscn::new(0);
        // MSCN should be orders of magnitude larger than DACE (Table II).
        assert!(m.param_count() > 100_000);
        assert!(m.size_mb() > 0.5 && m.size_mb() < 10.0);
    }
}
