//! The plan-search driver: the analytic planner's enumeration with the
//! argmin handed to a [`PlanScorer`].
//!
//! Candidates are collected *per decision level* — every table's access
//! paths at once, every DP level's join candidates at once — and scored in
//! one batch per level. A 9-relation query's DP enumerates hundreds of
//! candidate sub-plans; batching them turns the optimizer into exactly the
//! block-diagonal traffic shape the serving kernels are optimized for,
//! instead of thousands of single-plan forwards.
//!
//! The enumeration order (masks ascending, partitions in submask-descending
//! order, candidate generation order inside each group) is kept identical to
//! [`crate::planner`], so driving the search with [`AnalyticScorer`] is
//! bit-for-bit the analytic planner — the equivalence test that pins the
//! two implementations together.
//!
//! [`AnalyticScorer`]: crate::search::AnalyticScorer

use std::ops::Range;
use std::sync::Arc;

use dace_catalog::Database;
use dace_obs::span;
use dace_query::Query;

use crate::card::CardEstimator;
use crate::cost::CostModel;
use crate::planner::{
    aggregate_candidates, connecting_edge, finish_limit, join_candidates, masked_edges,
    scan_candidates, validate_query, JoinStrategy, PhysPlan, PlanError, DP_AUTO_MAX,
};
use crate::search::scorer::PlanScorer;

/// One scoring group covering the whole candidate batch.
#[allow(clippy::single_range_in_vec_init)]
fn whole_batch(n: usize) -> [Range<usize>; 1] {
    [0..n]
}

/// Counters from one driven search (per-query; sum across a workload for
/// the experiment report).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SearchReport {
    /// Candidate sub-plans submitted to the scorer.
    pub candidates_scored: usize,
    /// Scoring batches issued (one per decision level with candidates).
    pub score_batches: usize,
    /// Decisions made (scan choices + join subsets + aggregate root).
    pub decision_groups: usize,
    /// DP levels (or greedy rounds) enumerated.
    pub join_levels: usize,
}

/// A plan-search context over one database and cost model.
///
/// The cost model still annotates every candidate with `est_cost` —
/// that stays the model's *input feature* (DACE corrects estimated cost
/// into latency); the scorer only replaces the *argmin*.
#[derive(Debug, Clone, Copy)]
pub struct SearchSession<'a> {
    db: &'a Database,
    cm: &'a CostModel,
}

impl<'a> SearchSession<'a> {
    /// A session planning against `db` under `cm`.
    pub fn new(db: &'a Database, cm: &'a CostModel) -> SearchSession<'a> {
        SearchSession { db, cm }
    }

    /// Plan `query` with `scorer` choosing among candidates, using the
    /// default [`JoinStrategy::Auto`] width policy.
    pub fn plan(
        &self,
        query: &Query,
        scorer: &mut dyn PlanScorer,
    ) -> Result<(PhysPlan, SearchReport), PlanError> {
        self.plan_with_strategy(query, scorer, JoinStrategy::Auto)
    }

    /// [`SearchSession::plan`] with an explicit join-enumeration strategy.
    pub fn plan_with_strategy(
        &self,
        query: &Query,
        scorer: &mut dyn PlanScorer,
        strategy: JoinStrategy,
    ) -> Result<(PhysPlan, SearchReport), PlanError> {
        validate_query(query)?;
        // Give this planning session its own causal trace unless the caller
        // already runs under one (e.g. a serve worker planning inside a
        // request's scope) — every search span below inherits it.
        let _trace = (dace_obs::current_trace() == 0)
            .then(|| dace_obs::trace_scope(dace_obs::next_trace_id()));
        let est = CardEstimator::new(self.db);
        let mut report = SearchReport::default();

        // Level 0: every table's access paths, one batch, one group per
        // table.
        let base = {
            let _span = span!("search_scan");
            let mut cands: Vec<PhysPlan> = Vec::new();
            let mut groups: Vec<Range<usize>> = Vec::new();
            for &t in &query.tables {
                let start = cands.len();
                cands.extend(scan_candidates(self.db, query, t, self.cm, &est));
                groups.push(start..cands.len());
            }
            let picked = self.pick(scorer, &cands, &groups, &mut report);
            take_picked(cands, &picked)
        };

        // Join enumeration.
        let k = query.tables.len();
        let use_dp = match strategy {
            JoinStrategy::Auto => k <= DP_AUTO_MAX,
            JoinStrategy::Dp => true,
            JoinStrategy::Greedy => false,
        };
        let joined = if k == 1 {
            Arc::new(
                base.into_iter()
                    .next()
                    .expect("one relation, one base plan"),
            )
        } else if use_dp {
            self.dp_join(query, base, &est, scorer, &mut report)?
        } else {
            self.greedy_join(query, base, &est, scorer, &mut report)?
        };

        // Aggregation.
        let with_agg = if query.aggregates.is_empty() {
            joined
        } else {
            let _span = span!("search_aggregate");
            let cands = aggregate_candidates(query, &joined, self.cm, &est);
            let groups = whole_batch(cands.len());
            let picked = self.pick(scorer, &cands, &groups, &mut report);
            Arc::new(
                take_picked(cands, &picked)
                    .pop()
                    .expect("one aggregate group, one pick"),
            )
        };

        Ok((finish_limit(query, with_agg, self.cm), report))
    }

    /// Score one batch and return the first-wins argmin index per group.
    fn pick(
        &self,
        scorer: &mut dyn PlanScorer,
        cands: &[PhysPlan],
        groups: &[Range<usize>],
        report: &mut SearchReport,
    ) -> Vec<usize> {
        let _span = span!("search_score");
        let scores = scorer.score(cands, groups);
        debug_assert_eq!(scores.len(), cands.len());
        report.candidates_scored += cands.len();
        report.score_batches += 1;
        report.decision_groups += groups.len();
        groups
            .iter()
            .map(|g| {
                let mut best = g.start;
                for i in g.clone() {
                    if scores[i] < scores[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// DPsub join enumeration, level-batched: all candidate joins of all
    /// same-popcount subsets are scored in one batch, then the chosen
    /// sub-plan per subset feeds the next level.
    fn dp_join(
        &self,
        query: &Query,
        base: Vec<PhysPlan>,
        est: &CardEstimator<'_>,
        scorer: &mut dyn PlanScorer,
        report: &mut SearchReport,
    ) -> Result<Arc<PhysPlan>, PlanError> {
        let _span = span!("search_dp_join");
        let k = query.tables.len();
        let edges = masked_edges(query);
        let full: u32 = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
        let mut dp: Vec<Option<Arc<PhysPlan>>> = vec![None; (full as usize) + 1];
        for (i, b) in base.into_iter().enumerate() {
            dp[1 << i] = Some(Arc::new(b));
        }
        for size in 2..=(k as u32) {
            report.join_levels += 1;
            let mut cands: Vec<PhysPlan> = Vec::new();
            let mut groups: Vec<Range<usize>> = Vec::new();
            let mut masks: Vec<u32> = Vec::new();
            for mask in 1..=full {
                if mask.count_ones() != size {
                    continue;
                }
                let start = cands.len();
                // Proper submasks, descending — the analytic planner's
                // enumeration order.
                let mut left = (mask - 1) & mask;
                while left > 0 {
                    let right = mask ^ left;
                    // Join operators already consider both build/probe
                    // assignments; visit each split once.
                    if left < right {
                        left = (left - 1) & mask;
                        continue;
                    }
                    if let (Some(l), Some(r)) = (&dp[left as usize], &dp[right as usize]) {
                        if let Some(edge) = connecting_edge(&edges, left, right) {
                            cands.extend(join_candidates(
                                self.db,
                                (left, l),
                                (right, r),
                                edge,
                                self.cm,
                                est,
                            ));
                        }
                    }
                    left = (left - 1) & mask;
                }
                if cands.len() > start {
                    groups.push(start..cands.len());
                    masks.push(mask);
                }
            }
            if cands.is_empty() {
                continue;
            }
            let picked = self.pick(scorer, &cands, &groups, report);
            for (m, plan) in masks.into_iter().zip(take_picked(cands, &picked)) {
                dp[m as usize] = Some(Arc::new(plan));
            }
        }
        dp[full as usize]
            .take()
            .ok_or(PlanError::DisconnectedJoinGraph)
    }

    /// Greedy join for wide queries: each round batches every joinable
    /// fragment pair's candidates as one decision group and merges the
    /// winner.
    fn greedy_join(
        &self,
        query: &Query,
        base: Vec<PhysPlan>,
        est: &CardEstimator<'_>,
        scorer: &mut dyn PlanScorer,
        report: &mut SearchReport,
    ) -> Result<Arc<PhysPlan>, PlanError> {
        let _span = span!("search_greedy_join");
        let edges = masked_edges(query);
        let mut frags: Vec<(u32, Arc<PhysPlan>)> = base
            .into_iter()
            .enumerate()
            .map(|(i, b)| (1u32 << i, Arc::new(b)))
            .collect();
        while frags.len() > 1 {
            report.join_levels += 1;
            let mut cands: Vec<PhysPlan> = Vec::new();
            let mut pair_of: Vec<(usize, usize)> = Vec::new();
            for i in 0..frags.len() {
                for j in 0..frags.len() {
                    if i == j {
                        continue;
                    }
                    let ((lm, l), (rm, r)) = (&frags[i], &frags[j]);
                    if let Some(edge) = connecting_edge(&edges, *lm, *rm) {
                        let start = cands.len();
                        cands.extend(join_candidates(
                            self.db,
                            (*lm, l),
                            (*rm, r),
                            edge,
                            self.cm,
                            est,
                        ));
                        pair_of.extend(std::iter::repeat_n((i, j), cands.len() - start));
                    }
                }
            }
            if cands.is_empty() {
                return Err(PlanError::DisconnectedJoinGraph);
            }
            let groups = whole_batch(cands.len());
            let picked = self.pick(scorer, &cands, &groups, report);
            let (i, j) = pair_of[picked[0]];
            let joined = take_picked(cands, &picked)
                .pop()
                .expect("one greedy group, one pick");
            let mask = frags[i].0 | frags[j].0;
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            frags.swap_remove(hi);
            frags.swap_remove(lo);
            frags.push((mask, Arc::new(joined)));
        }
        Ok(frags.pop().unwrap().1)
    }
}

/// Move the picked candidates out of `cands`, in `picked` order. `picked`
/// holds one index per decision group, so it is strictly ascending: the
/// losers are dropped, releasing their holds on shared sub-plans.
fn take_picked(cands: Vec<PhysPlan>, picked: &[usize]) -> Vec<PhysPlan> {
    let mut next = picked.iter().peekable();
    let kept: Vec<PhysPlan> = cands
        .into_iter()
        .enumerate()
        .filter_map(|(i, c)| next.next_if_eq(&&i).map(|_| c))
        .collect();
    debug_assert_eq!(kept.len(), picked.len());
    kept
}
