//! Candidate-set scoring: the optimizer-facing batched inference session.
//!
//! Plan search asks a different question than serving: not "how long will
//! this finished plan take" once, but "which of these hundreds of candidate
//! sub-plans is cheapest" thousands of times per query. A [`ScoreSession`]
//! amortizes that traffic — it owns a persistent [`Workspace`] plus the
//! root/output scratch vectors, so every batch after the first runs the
//! root-row forward without allocating, and it accumulates the
//! throughput counters (sub-plans scored, forward wall time) that the
//! plan-search experiments report.

use std::time::Instant;

use crate::featurize::Featurizer;
use crate::model::ForwardTimings;
use crate::trainer::DaceEstimator;
use dace_nn::{Tensor2, Workspace};

/// A reusable batched-scoring session bound to one estimator.
///
/// Scores come back in candidate order as predicted latency in
/// milliseconds; per-plan results are independent of batch composition
/// (the packed forward is row-independent), which is what lets the search
/// memo reuse a score computed in one batch for a duplicate sub-tree seen
/// in another.
#[derive(Debug)]
pub struct ScoreSession<'a> {
    est: &'a DaceEstimator,
    ws: Workspace,
    roots: Vec<f32>,
    out: Vec<f64>,
    plans_scored: u64,
    batches: u64,
    forward_timings: ForwardTimings,
    wall_us: u64,
}

impl<'a> ScoreSession<'a> {
    /// A fresh session over `est`; scratch grows to the largest batch seen
    /// and is reused thereafter.
    pub fn new(est: &'a DaceEstimator) -> ScoreSession<'a> {
        ScoreSession {
            est,
            ws: Workspace::new(),
            roots: Vec::new(),
            out: Vec::new(),
            plans_scored: 0,
            batches: 0,
            forward_timings: ForwardTimings::default(),
            wall_us: 0,
        }
    }

    /// The estimator this session scores with.
    pub fn estimator(&self) -> &'a DaceEstimator {
        self.est
    }

    /// Score candidates encoded back to back in one compact tensor
    /// (`lens[b]` rows per candidate, root first, as
    /// [`Featurizer::encode_row`] writes them) with the root-row forward
    /// ([`DaceModel::predict_roots_compact_timed_ws`]), in chunks of the
    /// estimator's `batch_plans` like every batched entry. Returns predicted
    /// root latencies (ms) in candidate order; the slice is valid until the
    /// next call.
    ///
    /// [`Featurizer::encode_row`]: crate::Featurizer::encode_row
    /// [`DaceModel::predict_roots_compact_timed_ws`]: crate::DaceModel::predict_roots_compact_timed_ws
    pub fn score_rows_ms(&mut self, xc: &Tensor2, lens: &[usize]) -> &[f64] {
        self.out.clear();
        if lens.is_empty() {
            return &self.out;
        }
        let start = Instant::now();
        let mut row0 = 0;
        for group in lens.chunks(self.est.config.batch_plans.max(1)) {
            let timings = self.est.model.predict_roots_compact_timed_ws(
                xc,
                row0,
                group,
                &mut self.ws,
                &mut self.roots,
            );
            self.forward_timings.accumulate(timings);
            self.out
                .extend(self.roots.iter().map(|&r| Featurizer::to_ms(r)));
            row0 += group.iter().sum::<usize>();
        }
        self.wall_us += start.elapsed().as_micros() as u64;
        self.plans_scored += lens.len() as u64;
        self.batches += 1;
        &self.out
    }

    /// Sub-plans scored across the session's lifetime.
    pub fn plans_scored(&self) -> u64 {
        self.plans_scored
    }

    /// Forward batches run.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Accumulated attention/MLP wall-time split across all batches.
    pub fn forward_timings(&self) -> ForwardTimings {
        self.forward_timings
    }

    /// Total wall time spent inside scoring calls (µs).
    pub fn wall_us(&self) -> u64 {
        self.wall_us
    }

    /// Sub-plan scores per second of scoring wall time (0 before the first
    /// batch).
    pub fn scores_per_sec(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.plans_scored as f64 / (self.wall_us as f64 / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::{PackedBatch, PlanFeatures};
    use crate::trainer::{TrainConfig, Trainer};
    use dace_plan::{
        Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, PlanTree, TreeBuilder,
    };
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A minimal learnable corpus (scan → join trees with varying costs).
    fn corpus(n: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plans = (0..n)
            .map(|_| {
                let mut b = TreeBuilder::new();
                let cost = rng.gen_range(10.0..10_000.0f64);
                let rows = cost * rng.gen_range(5.0..15.0);
                let scan = {
                    let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                    node.est_cost = cost;
                    node.est_rows = rows;
                    node.actual_ms = cost * 0.004;
                    node.actual_rows = rows;
                    b.leaf(node)
                };
                let root = {
                    let mut node = PlanNode::new(NodeType::HashJoin, OpPayload::Other);
                    node.est_cost = cost * 2.0;
                    node.est_rows = rows;
                    node.actual_ms = cost * 0.01;
                    node.actual_rows = rows;
                    b.internal(node, vec![scan])
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

    fn tiny_estimator() -> (DaceEstimator, Dataset) {
        let data = corpus(60, 11);
        let est = Trainer::new(TrainConfig {
            epochs: 2,
            ..TrainConfig::default()
        })
        .fit(&data)
        .expect("fit");
        (est, data)
    }

    fn encode_all(est: &DaceEstimator, trees: &[&PlanTree]) -> Vec<PlanFeatures> {
        trees.iter().map(|t| est.featurizer.encode(t)).collect()
    }

    /// `feats` packed back to back: the compact rows and per-plan lengths.
    fn compact(feats: &[&PlanFeatures]) -> (Tensor2, Vec<usize>) {
        let batch = PackedBatch::pack(feats).expect("non-empty batch");
        (batch.xc, batch.lens)
    }

    #[test]
    fn session_scores_match_one_shot_batch_api() {
        let (est, data) = tiny_estimator();
        let trees: Vec<&PlanTree> = data.plans.iter().take(16).map(|p| &p.tree).collect();
        let expect = est.predict_batch_ms(&trees);
        let feats = encode_all(&est, &trees);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let (xc, lens) = compact(&refs);
        let mut sess = ScoreSession::new(&est);
        let got = sess.score_rows_ms(&xc, &lens).to_vec();
        assert_eq!(got.len(), expect.len());
        for (g, e) in got.iter().zip(&expect) {
            assert!(
                (g - e).abs() < 1e-9,
                "session score {g} != batch API score {e}"
            );
        }
        assert_eq!(sess.plans_scored(), 16);
        assert_eq!(sess.batches(), 1);
    }

    #[test]
    fn scores_are_batch_composition_invariant() {
        // The memo's correctness hinges on this: a sub-plan's score must not
        // depend on what else shared its batch.
        let (est, data) = tiny_estimator();
        let trees: Vec<&PlanTree> = data.plans.iter().take(12).map(|p| &p.tree).collect();
        let feats = encode_all(&est, &trees);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let (xc, lens) = compact(&refs);
        let mut sess = ScoreSession::new(&est);
        let all = sess.score_rows_ms(&xc, &lens).to_vec();
        for (i, f) in refs.iter().enumerate() {
            let solo = sess.score_rows_ms(&f.x, &[f.x.rows()])[0];
            assert_eq!(
                solo.to_bits(),
                all[i].to_bits(),
                "plan {i}: solo {solo} != batched {}",
                all[i]
            );
        }
    }

    #[test]
    fn throughput_counters_accumulate() {
        let (est, data) = tiny_estimator();
        let trees: Vec<&PlanTree> = data.plans.iter().take(8).map(|p| &p.tree).collect();
        let feats = encode_all(&est, &trees);
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let (xc, lens) = compact(&refs);
        let mut sess = ScoreSession::new(&est);
        sess.score_rows_ms(&xc, &lens);
        sess.score_rows_ms(&xc, &lens[..4]);
        assert_eq!(sess.plans_scored(), 12);
        assert_eq!(sess.batches(), 2);
        assert!(sess.wall_us() > 0);
        assert!(sess.scores_per_sec() > 0.0);
        // Empty batches are free and uncounted.
        sess.score_rows_ms(&xc, &[]);
        assert_eq!(sess.batches(), 2);
    }
}
