//! Plan scoring strategies: how the search driver ranks candidate sub-plans.
//!
//! The driver hands a scorer one flat batch of candidates plus the decision
//! groups partitioning it (one group = one choice: an access path for one
//! table, the join for one DP subset, the aggregate root). Scores only ever
//! compete **within** a group, which is what lets [`HybridScorer`] mix
//! units — predicted milliseconds for groups it scores with the model,
//! abstract cost for groups it leaves to the analytic model — without ever
//! comparing one against the other.

use std::collections::HashMap;
use std::ops::Range;

use dace_core::{DaceEstimator, FeatureNode, PlanFeatures, ScoreSession};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::planner::PhysPlan;
use crate::search::memo::ScoreMemo;

/// A strategy for ranking candidate sub-plans; lower score wins.
pub trait PlanScorer {
    /// Strategy name for reports and metrics labels.
    fn name(&self) -> &'static str;

    /// Score every candidate. `groups` partitions `cands` into decision
    /// groups; returned scores must be comparable within a group (lower is
    /// better) but carry no meaning across groups.
    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64>;
}

/// The analytic cost model as a scorer: score = `est_cost`. Driving the
/// search with this reproduces [`crate::planner::plan_with_strategy`]
/// bit-for-bit (the equivalence test in `search_props.rs` holds the two
/// implementations together).
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalyticScorer;

impl PlanScorer for AnalyticScorer {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn score(&mut self, cands: &[PhysPlan], _groups: &[Range<usize>]) -> Vec<f64> {
        cands.iter().map(|c| c.est_cost).collect()
    }
}

/// Analytic cost perturbed by multiplicative log-normal noise — the
/// exploration policy for training-data collection.
///
/// A model trained only on analytic-picked plans has never seen a label for
/// the candidates the analytic argmin rejected, so a learned search can
/// wander into sub-plans whose latency the model confidently underestimates
/// (the classic off-policy gap of learned optimizers). Planning the training
/// workload under this scorer yields executable, near-optimal-but-diverse
/// plans — each decision flips away from the analytic choice whenever the
/// noise outweighs the cost gap — and their executed labels teach the model
/// what the rejected region actually costs.
#[derive(Debug, Clone)]
pub struct ExplorationScorer {
    rng: SmallRng,
    sigma: f64,
}

impl ExplorationScorer {
    /// Scorer multiplying every candidate's cost by `exp(sigma · N(0,1))`,
    /// deterministic in `seed`.
    pub fn new(seed: u64, sigma: f64) -> ExplorationScorer {
        ExplorationScorer {
            rng: SmallRng::seed_from_u64(seed ^ 0xE890_17AE),
            sigma,
        }
    }
}

impl PlanScorer for ExplorationScorer {
    fn name(&self) -> &'static str {
        "exploration"
    }

    fn score(&mut self, cands: &[PhysPlan], _groups: &[Range<usize>]) -> Vec<f64> {
        cands
            .iter()
            .map(|c| {
                let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = self.rng.gen();
                let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                c.est_cost * (self.sigma * normal).exp()
            })
            .collect()
    }
}

/// Batched DACE inference as a scorer: score = predicted sub-plan latency in
/// milliseconds. DACE predicts every sub-plan of a tree in parallel during
/// training, so candidate sub-trees are exactly in-distribution.
///
/// Each candidate is walked once in preorder; its node sequence feeds both
/// the fingerprint and, on a miss, the features — no [`PlanTree`] is built.
/// Each batch is deduplicated against the [`ScoreMemo`] (cross-batch
/// sharing) and within itself (batch-local duplicates), so a shared sub-tree
/// is featurized and scored once per memo lifetime.
///
/// [`PlanTree`]: dace_plan::PlanTree
#[derive(Debug)]
pub struct LearnedScorer<'a> {
    session: ScoreSession<'a>,
    memo: ScoreMemo,
    dedup_hits: u64,
    /// Every candidate's preorder nodes of the current batch, back to back.
    nodes: Vec<FeatureNode>,
    /// Each candidate's range in `nodes`.
    spans: Vec<Range<usize>>,
}

impl<'a> LearnedScorer<'a> {
    /// Scorer over `est` with a score memo of `memo_capacity` entries
    /// (0 disables memoization and batch-local dedup, scoring every
    /// candidate fresh).
    pub fn new(est: &'a DaceEstimator, memo_capacity: usize) -> LearnedScorer<'a> {
        LearnedScorer {
            session: ScoreSession::new(est),
            memo: ScoreMemo::new(memo_capacity),
            dedup_hits: 0,
            nodes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The score memo (hit-rate reporting).
    pub fn memo(&self) -> &ScoreMemo {
        &self.memo
    }

    /// The underlying scoring session (throughput reporting).
    pub fn session(&self) -> &ScoreSession<'a> {
        &self.session
    }

    /// Batch-local duplicates resolved without a lookup or a model call
    /// (same fingerprint appearing twice in one batch).
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// Score a set of candidate sub-plans (by reference so [`HybridScorer`]
    /// can route a sub-batch here without cloning plans).
    pub(crate) fn score_refs(&mut self, cands: &[&PhysPlan]) -> Vec<f64> {
        self.nodes.clear();
        self.spans.clear();
        for c in cands {
            let start = self.nodes.len();
            c.feature_nodes_into(&mut self.nodes);
            self.spans.push(start..self.nodes.len());
        }
        let featurizer = &self.session.estimator().featurizer;
        let encode = |i: usize| featurizer.encode_nodes(&self.nodes[self.spans[i].clone()]);
        if !self.memo.enabled() {
            // Memo disabled: one batch over everything, no dedup. This is
            // the baseline the bit-identity test compares against.
            let feats: Vec<PlanFeatures> = (0..cands.len()).map(encode).collect();
            let refs: Vec<&PlanFeatures> = feats.iter().collect();
            return self.session.score_features_ms(&refs).to_vec();
        }
        let fps: Vec<u64> = self
            .spans
            .iter()
            .map(|r| featurizer.fingerprint_nodes(self.nodes[r.clone()].iter().copied()))
            .collect();
        let mut scores = vec![0.0f64; cands.len()];
        let mut miss_idx: Vec<usize> = Vec::new();
        for i in 0..cands.len() {
            match self.memo.get(fps[i]) {
                Some(s) => scores[i] = s,
                None => miss_idx.push(i),
            }
        }
        if miss_idx.is_empty() {
            return scores;
        }
        // Batch-local dedup: score each distinct fingerprint once.
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(miss_idx.len());
        let mut unique: Vec<usize> = Vec::with_capacity(miss_idx.len());
        for &i in &miss_idx {
            if let std::collections::hash_map::Entry::Vacant(slot) = slot_of.entry(fps[i]) {
                slot.insert(unique.len());
                unique.push(i);
            } else {
                self.dedup_hits += 1;
            }
        }
        let feats: Vec<PlanFeatures> = unique.iter().map(|&i| encode(i)).collect();
        let refs: Vec<&PlanFeatures> = feats.iter().collect();
        let fresh = self.session.score_features_ms(&refs).to_vec();
        for (slot, &i) in unique.iter().enumerate() {
            self.memo.insert(fps[i], fresh[slot]);
        }
        for &i in &miss_idx {
            scores[i] = fresh[slot_of[&fps[i]]];
        }
        scores
    }
}

impl PlanScorer for LearnedScorer<'_> {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn score(&mut self, cands: &[PhysPlan], _groups: &[Range<usize>]) -> Vec<f64> {
        let refs: Vec<&PhysPlan> = cands.iter().collect();
        self.score_refs(&refs)
    }
}

/// Learned scoring for expensive decisions, analytic for cheap ones.
///
/// A decision group goes to the model when its *cheapest analytic
/// candidate* is at least `threshold` cost units — where the analytic model
/// already says the decision is expensive enough for operator-dependent
/// latency effects (the EDQO the model learns) to matter. Cheap groups keep
/// the analytic choice and skip featurization entirely. Group-at-a-time
/// partitioning keeps every within-group comparison in one unit.
#[derive(Debug)]
pub struct HybridScorer<'a> {
    learned: LearnedScorer<'a>,
    threshold: f64,
    learned_groups: u64,
    analytic_groups: u64,
}

impl<'a> HybridScorer<'a> {
    /// Hybrid scorer sending groups with min analytic cost ≥ `threshold`
    /// to `est`.
    pub fn new(est: &'a DaceEstimator, memo_capacity: usize, threshold: f64) -> HybridScorer<'a> {
        HybridScorer {
            learned: LearnedScorer::new(est, memo_capacity),
            threshold,
            learned_groups: 0,
            analytic_groups: 0,
        }
    }

    /// The inner learned scorer (memo/session reporting).
    pub fn learned(&self) -> &LearnedScorer<'a> {
        &self.learned
    }

    /// Decision groups scored by the model.
    pub fn learned_groups(&self) -> u64 {
        self.learned_groups
    }

    /// Decision groups left to the analytic model.
    pub fn analytic_groups(&self) -> u64 {
        self.analytic_groups
    }
}

impl PlanScorer for HybridScorer<'_> {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64> {
        let mut scores: Vec<f64> = cands.iter().map(|c| c.est_cost).collect();
        let mut routed: Vec<usize> = Vec::new();
        for g in groups {
            let min_cost = cands[g.clone()]
                .iter()
                .map(|c| c.est_cost)
                .fold(f64::INFINITY, f64::min);
            if min_cost >= self.threshold {
                self.learned_groups += 1;
                routed.extend(g.clone());
            } else {
                self.analytic_groups += 1;
            }
        }
        if !routed.is_empty() {
            let refs: Vec<&PhysPlan> = routed.iter().map(|&i| &cands[i]).collect();
            let learned_scores = self.learned.score_refs(&refs);
            for (k, &i) in routed.iter().enumerate() {
                scores[i] = learned_scores[k];
            }
        }
        scores
    }
}
