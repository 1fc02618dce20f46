//! Plan scoring strategies: how the search driver ranks candidate sub-plans.
//!
//! The driver hands a scorer one flat batch of candidates plus the decision
//! groups partitioning it (one group = one choice: an access path for one
//! table, the join for one DP subset, the aggregate root). Scores only ever
//! compete **within** a group, which is what lets [`HybridScorer`] mix
//! units — predicted milliseconds for groups it scores with the model,
//! abstract cost for groups it leaves to the analytic model — without ever
//! comparing one against the other.

use std::collections::hash_map::Entry;
use std::ops::Range;

use dace_core::{DaceEstimator, Featurizer, ScoreSession, Tensor2, FEATURE_DIM};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::planner::PhysPlan;
use crate::search::memo::{KeyMap, ScoreMemo};

/// A strategy for ranking candidate sub-plans; lower score wins.
pub trait PlanScorer {
    /// Strategy name for reports and metrics labels.
    fn name(&self) -> &'static str;

    /// Score every candidate. `groups` partitions `cands` into decision
    /// groups; returned scores must be comparable within a group (lower is
    /// better) but carry no meaning across groups.
    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64>;

    /// [`PlanScorer::score`] into `scores`, which ends up holding one score
    /// per candidate. The search driver calls this with one buffer per
    /// query; the scorers here write into it without allocating, and the
    /// default forwards to `score`.
    fn score_into(&mut self, cands: &[PhysPlan], groups: &[Range<usize>], scores: &mut Vec<f64>) {
        *scores = self.score(cands, groups);
    }
}

/// `scorer`'s [`PlanScorer::score_into`] into a fresh vector: the
/// `score` of every scorer here.
fn collect_scores(
    scorer: &mut impl PlanScorer,
    cands: &[PhysPlan],
    groups: &[Range<usize>],
) -> Vec<f64> {
    let mut scores = Vec::with_capacity(cands.len());
    scorer.score_into(cands, groups, &mut scores);
    scores
}

/// The analytic cost model as a scorer: score = `est_cost`. Driving the
/// search with this is the analytic optimizer, [`crate::plan`].
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalyticScorer;

impl PlanScorer for AnalyticScorer {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64> {
        collect_scores(self, cands, groups)
    }

    fn score_into(&mut self, cands: &[PhysPlan], _groups: &[Range<usize>], scores: &mut Vec<f64>) {
        scores.clear();
        scores.extend(cands.iter().map(|c| c.est_cost()));
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

    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64> {
        collect_scores(self, cands, groups)
    }

    fn score_into(&mut self, cands: &[PhysPlan], _groups: &[Range<usize>], scores: &mut Vec<f64>) {
        scores.clear();
        scores.extend(cands.iter().map(|c| {
            let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = self.rng.gen();
            let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            c.est_cost() * (self.sigma * normal).exp()
        }));
    }
}

/// Batched DACE inference as a scorer: score = predicted sub-plan latency in
/// milliseconds. DACE predicts every sub-plan of a tree in parallel during
/// training, so candidate sub-trees are exactly in-distribution.
///
/// Nothing is re-walked to key a candidate: its memo key is the featurizer
/// salt XOR the Merkle hash [`PhysPlan`] cached when the node was built —
/// the value [`Featurizer::fingerprint`] computes from the candidate's
/// [`PlanTree`]. Each batch is deduplicated against the [`ScoreMemo`]
/// (cross-batch sharing) and within itself (batch-local duplicates), so a
/// shared sub-tree is featurized and scored once per memo lifetime. Only
/// the misses are encoded: one preorder walk per candidate writes its rows
/// from the cached logs straight into a reused compact buffer, which the
/// root-row forward reads as is — no per-candidate features, spans or
/// [`PlanTree`].
///
/// Candidates are never executed, so a featurizer that reads *actual*
/// cardinalities (DACE-A, `use_actual_cardinality`) has nothing to read;
/// [`LearnedScorer::new`] rejects it.
///
/// [`PlanTree`]: dace_plan::PlanTree
#[derive(Debug)]
pub struct LearnedScorer<'a> {
    session: ScoreSession<'a>,
    memo: ScoreMemo,
    /// The featurizer's salt; a candidate's key is `salt ^ merkle`.
    salt: u64,
    dedup_hits: u64,
    /// Batch-local dedup: key → slot among the batch's fresh candidates.
    /// Cleared per batch; its allocation is kept, like every buffer below.
    slot_of: KeyMap<usize>,
    /// The batch's fresh candidates, one per distinct missed key.
    fresh: Vec<usize>,
    /// Every missed candidate with its slot among `fresh`.
    missed: Vec<(usize, usize)>,
    /// Encoded rows of the candidates being scored, back to back.
    rows: Tensor2,
    /// Each encoded candidate's row count.
    lens: Vec<usize>,
}

impl<'a> LearnedScorer<'a> {
    /// Scorer over `est` with a score memo of `memo_capacity` entries
    /// (0 disables memoization and batch-local dedup, scoring every
    /// candidate fresh).
    ///
    /// # Panics
    /// Panics if `est` uses the DACE-A featurizer (`use_actual_cardinality`):
    /// search candidates carry no actual cardinalities to feed it.
    pub fn new(est: &'a DaceEstimator, memo_capacity: usize) -> LearnedScorer<'a> {
        assert!(
            !est.featurizer.config.use_actual_cardinality,
            "LearnedScorer cannot plan with a DACE-A (use_actual_cardinality) featurizer: \
             search candidates are never executed, so they have no actual cardinalities"
        );
        LearnedScorer {
            session: ScoreSession::new(est),
            memo: ScoreMemo::new(memo_capacity),
            salt: est.featurizer.salt(),
            dedup_hits: 0,
            slot_of: KeyMap::default(),
            fresh: Vec::new(),
            missed: Vec::new(),
            rows: Tensor2::default(),
            lens: Vec::new(),
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

    /// `plan`'s memo key, in O(1): equal to the estimator featurizer's
    /// [`Featurizer::fingerprint`] of `plan.to_plan_tree()`.
    pub fn key(&self, plan: &PhysPlan) -> u64 {
        self.salt ^ plan.merkle()
    }

    /// Encode `plan` into the row buffer exactly as a memo miss is encoded,
    /// and return the rows: equal to the estimator featurizer's
    /// [`Featurizer::encode`] of `plan.to_plan_tree()`, row for row.
    pub fn encode(&mut self, plan: &PhysPlan) -> &Tensor2 {
        let featurizer = &self.session.estimator().featurizer;
        encode_rows(
            featurizer,
            [plan].into_iter(),
            &mut self.rows,
            &mut self.lens,
        );
        &self.rows
    }

    /// Score the candidates `subset` names (indices into `cands`)
    /// and write each score to its candidate's index in `scores`, so
    /// [`HybridScorer`] routes a sub-batch here without collecting it.
    fn score_subset(
        &mut self,
        cands: &[PhysPlan],
        subset: impl Iterator<Item = usize> + Clone,
        scores: &mut [f64],
    ) {
        let featurizer = &self.session.estimator().featurizer;
        if !self.memo.enabled() {
            // Memo disabled: one batch over everything, no dedup. This is
            // the baseline the bit-identity test compares against.
            encode_rows(
                featurizer,
                subset.clone().map(|i| &cands[i]),
                &mut self.rows,
                &mut self.lens,
            );
            let fresh_scores = self.session.score_rows_ms(&self.rows, &self.lens);
            for (i, &score) in subset.zip(fresh_scores) {
                scores[i] = score;
            }
            return;
        }
        // Look every candidate up before any insert, and score each
        // distinct missed key once.
        self.slot_of.clear();
        self.fresh.clear();
        self.missed.clear();
        for i in subset {
            let key = self.salt ^ cands[i].merkle();
            if let Some(s) = self.memo.get(key) {
                scores[i] = s;
                continue;
            }
            let slot = match self.slot_of.entry(key) {
                Entry::Vacant(v) => {
                    v.insert(self.fresh.len());
                    self.fresh.push(i);
                    self.fresh.len() - 1
                }
                Entry::Occupied(o) => {
                    self.dedup_hits += 1;
                    *o.get()
                }
            };
            self.missed.push((i, slot));
        }
        if self.fresh.is_empty() {
            return;
        }
        encode_rows(
            featurizer,
            self.fresh.iter().map(|&i| &cands[i]),
            &mut self.rows,
            &mut self.lens,
        );
        let fresh_scores = self.session.score_rows_ms(&self.rows, &self.lens);
        for (&i, &score) in self.fresh.iter().zip(fresh_scores) {
            self.memo.insert(self.salt ^ cands[i].merkle(), score);
        }
        for &(i, slot) in &self.missed {
            scores[i] = fresh_scores[slot];
        }
    }
}

/// Encode `plans` back to back into `rows` (zeroed, `FEATURE_DIM` wide) and
/// their row counts into `lens`. Each plan is written in DFS preorder from
/// the logs its nodes cached, through [`Featurizer::encode_row`].
fn encode_rows<'p>(
    featurizer: &Featurizer,
    plans: impl Iterator<Item = &'p PhysPlan> + Clone,
    rows: &mut Tensor2,
    lens: &mut Vec<usize>,
) {
    lens.clear();
    lens.extend(plans.clone().map(PhysPlan::len));
    rows.resize_zeroed(lens.iter().sum(), FEATURE_DIM);
    let mut next = 0;
    for plan in plans {
        write_preorder(featurizer, plan, rows, &mut next);
    }
}

fn write_preorder(featurizer: &Featurizer, plan: &PhysPlan, rows: &mut Tensor2, next: &mut usize) {
    featurizer.encode_row(
        plan.node_type(),
        plan.log_cost(),
        plan.log_rows(),
        rows.row_mut(*next),
    );
    *next += 1;
    for child in plan.children() {
        write_preorder(featurizer, child, rows, next);
    }
}

impl PlanScorer for LearnedScorer<'_> {
    fn name(&self) -> &'static str {
        "learned"
    }

    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64> {
        collect_scores(self, cands, groups)
    }

    fn score_into(&mut self, cands: &[PhysPlan], _groups: &[Range<usize>], scores: &mut Vec<f64>) {
        scores.clear();
        scores.resize(cands.len(), 0.0);
        self.score_subset(cands, 0..cands.len(), scores);
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
    /// The batch's candidates in groups routed to the model; cleared per
    /// batch, its allocation kept.
    routed: Vec<usize>,
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
            routed: Vec::new(),
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
        collect_scores(self, cands, groups)
    }

    fn score_into(&mut self, cands: &[PhysPlan], groups: &[Range<usize>], scores: &mut Vec<f64>) {
        scores.clear();
        scores.extend(cands.iter().map(|c| c.est_cost()));
        self.routed.clear();
        for g in groups {
            let min_cost = cands[g.clone()]
                .iter()
                .map(|c| c.est_cost())
                .fold(f64::INFINITY, f64::min);
            if min_cost >= self.threshold {
                self.learned_groups += 1;
                self.routed.extend(g.clone());
            } else {
                self.analytic_groups += 1;
            }
        }
        if !self.routed.is_empty() {
            self.learned
                .score_subset(cands, self.routed.iter().copied(), scores);
        }
    }
}
