//! The plan-search driver: the one join enumerator, with every argmin
//! handed to a [`PlanScorer`].
//!
//! Candidates are collected *per decision level* — every table's access
//! paths at once, every DP level's join candidates at once — and scored in
//! one batch per level. A 9-relation query's DP enumerates hundreds of
//! candidate sub-plans; batching them turns the optimizer into exactly the
//! block-diagonal traffic shape the serving kernels are optimized for,
//! instead of thousands of single-plan forwards.
//!
//! Each decision group keeps its first lowest score, so a tie goes to the
//! candidate generated first. Under [`AnalyticScorer`] the driver is the
//! analytic optimizer, [`crate::plan`], which plans every labeled dataset;
//! `tests/pipeline.rs` pins its picks by digest.
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
    scan_candidates, JoinStrategy, PhysPlan, PlanError, Side, DP_AUTO_MAX, MAX_RELATIONS,
};
use crate::search::scorer::PlanScorer;

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

/// One decision level's batch: the candidates, the decision groups
/// partitioning them, their scores and the index each group picked. One
/// `Level` serves every level of a query, so its buffers are allocated
/// once per query.
#[derive(Default)]
struct Level {
    cands: Vec<PhysPlan>,
    groups: Vec<Range<usize>>,
    scores: Vec<f64>,
    picked: Vec<usize>,
}

impl Level {
    fn clear(&mut self) {
        self.cands.clear();
        self.groups.clear();
    }

    /// Close the decision group of the candidates pushed since `start`;
    /// an empty group is dropped. Returns whether the group was kept.
    fn close_group(&mut self, start: usize) -> bool {
        let kept = self.cands.len() > start;
        if kept {
            self.groups.push(start..self.cands.len());
        }
        kept
    }

    /// Score the batch and record the first-wins argmin index per group.
    fn pick(&mut self, scorer: &mut dyn PlanScorer, report: &mut SearchReport) {
        let _span = span!("search_score");
        scorer.score_into(&self.cands, &self.groups, &mut self.scores);
        let scores = &self.scores;
        debug_assert_eq!(scores.len(), self.cands.len());
        report.candidates_scored += self.cands.len();
        report.score_batches += 1;
        report.decision_groups += self.groups.len();
        self.picked.clear();
        self.picked.extend(self.groups.iter().map(|g| {
            let mut best = g.start;
            for i in g.clone() {
                if scores[i] < scores[best] {
                    best = i;
                }
            }
            best
        }));
    }

    /// Move the picked candidates out, one per group in group order, and
    /// drop the losers (releasing their holds on shared sub-plans). The
    /// candidate buffer keeps its allocation.
    fn drain_picked(&mut self) -> impl Iterator<Item = PhysPlan> + '_ {
        let mut next = self.picked.iter().peekable();
        self.cands
            .drain(..)
            .enumerate()
            .filter_map(move |(i, c)| next.next_if_eq(&&i).map(|_| c))
    }
}

/// The DP table: the [`Side`] chosen for each table mask, if any. The
/// sides live in an arena and the table maps every mask to an index into
/// it, so an empty entry costs four bytes.
struct DpTable {
    sides: Vec<Side>,
    index: Vec<u32>,
}

/// A mask with no side; past the end of any arena.
const NO_SIDE: u32 = u32::MAX;

impl DpTable {
    /// A table over masks `0..=full` holding the base relations' sides.
    fn new(base: Vec<Side>, full: u32) -> DpTable {
        let mut index = vec![NO_SIDE; full as usize + 1];
        for (i, side) in base.iter().enumerate() {
            index[side.mask as usize] = i as u32;
        }
        DpTable { sides: base, index }
    }

    fn get(&self, mask: u32) -> Option<&Side> {
        self.sides.get(self.index[mask as usize] as usize)
    }

    fn insert(&mut self, mask: u32, plan: PhysPlan) {
        self.index[mask as usize] = self.sides.len() as u32;
        self.sides.push(Side::new(mask, Arc::new(plan)));
    }

    /// The plan chosen for `mask`; the join graph is disconnected if none
    /// was.
    fn into_plan(mut self, mask: u32) -> Result<Arc<PhysPlan>, PlanError> {
        match self.index[mask as usize] {
            NO_SIDE => Err(PlanError::DisconnectedJoinGraph),
            i => Ok(self.sides.swap_remove(i as usize).plan),
        }
    }
}

/// Replace greedy fragments `i` and `j` by their join `joined`.
fn merge_fragments(frags: &mut Vec<Side>, i: usize, j: usize, joined: PhysPlan) {
    let mask = frags[i].mask | frags[j].mask;
    let (hi, lo) = if i > j { (i, j) } else { (j, i) };
    frags.swap_remove(hi);
    frags.swap_remove(lo);
    frags.push(Side::new(mask, Arc::new(joined)));
}

/// Check the planning contract: at least one relation, at most
/// [`MAX_RELATIONS`].
fn validate_query(query: &Query) -> Result<(), PlanError> {
    if query.tables.is_empty() {
        return Err(PlanError::EmptyTableList);
    }
    if query.tables.len() > MAX_RELATIONS {
        return Err(PlanError::TooManyRelations {
            count: query.tables.len(),
            cap: MAX_RELATIONS,
        });
    }
    Ok(())
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
        let mut level = Level::default();

        // Level 0: every table's access paths, one batch, one group per
        // table.
        let mut base: Vec<Side> = {
            let _span = span!("search_scan");
            for &t in &query.tables {
                let start = level.cands.len();
                scan_candidates(self.db, query, t, self.cm, &est, &mut level.cands);
                level.close_group(start);
            }
            level.pick(scorer, &mut report);
            level
                .drain_picked()
                .enumerate()
                .map(|(i, p)| Side::new(1 << i, Arc::new(p)))
                .collect()
        };

        // Join enumeration.
        let k = query.tables.len();
        let use_dp = match strategy {
            JoinStrategy::Auto => k <= DP_AUTO_MAX,
            JoinStrategy::Dp => true,
            JoinStrategy::Greedy => false,
        };
        let joined = if k == 1 {
            base.pop().expect("one relation, one base plan").plan
        } else if use_dp {
            self.dp_join(query, base, &est, scorer, &mut level, &mut report)?
        } else {
            self.greedy_join(query, base, &est, scorer, &mut level, &mut report)?
        };

        // Aggregation.
        let with_agg = if query.aggregates.is_empty() {
            joined
        } else {
            let _span = span!("search_aggregate");
            level.clear();
            aggregate_candidates(query, &joined, self.cm, &est, &mut level.cands);
            level.close_group(0);
            level.pick(scorer, &mut report);
            Arc::new(
                level
                    .drain_picked()
                    .next()
                    .expect("one aggregate group, one pick"),
            )
        };

        Ok((finish_limit(query, with_agg, self.cm), report))
    }

    /// DPsub join enumeration, level-batched: all candidate joins of all
    /// same-popcount subsets are scored in one batch, then the chosen
    /// sub-plan per subset feeds the next level.
    fn dp_join(
        &self,
        query: &Query,
        base: Vec<Side>,
        est: &CardEstimator<'_>,
        scorer: &mut dyn PlanScorer,
        level: &mut Level,
        report: &mut SearchReport,
    ) -> Result<Arc<PhysPlan>, PlanError> {
        let _span = span!("search_dp_join");
        let k = query.tables.len();
        let edges = masked_edges(self.db, query);
        let full: u32 = if k == 32 { u32::MAX } else { (1u32 << k) - 1 };
        let mut dp = DpTable::new(base, full);
        // The mask each decision group of the current level decides.
        let mut masks: Vec<u32> = Vec::new();
        for size in 2..=(k as u32) {
            report.join_levels += 1;
            level.clear();
            masks.clear();
            for mask in 1..=full {
                if mask.count_ones() != size {
                    continue;
                }
                let start = level.cands.len();
                // Proper submasks, descending.
                let mut left = (mask - 1) & mask;
                while left > 0 {
                    let right = mask ^ left;
                    // Join operators already consider both build/probe
                    // assignments; visit each split once.
                    if left < right {
                        left = (left - 1) & mask;
                        continue;
                    }
                    if let (Some(l), Some(r)) = (dp.get(left), dp.get(right)) {
                        if let Some(edge) = connecting_edge(&edges, left, right) {
                            join_candidates(self.db, l, r, edge, self.cm, est, &mut level.cands);
                        }
                    }
                    left = (left - 1) & mask;
                }
                if level.close_group(start) {
                    masks.push(mask);
                }
            }
            if level.cands.is_empty() {
                continue;
            }
            level.pick(scorer, report);
            for (&m, plan) in masks.iter().zip(level.drain_picked()) {
                dp.insert(m, plan);
            }
        }
        dp.into_plan(full)
    }

    /// Greedy join for wide queries: each round batches every joinable
    /// fragment pair's candidates as one decision group and merges the
    /// winner.
    fn greedy_join(
        &self,
        query: &Query,
        mut frags: Vec<Side>,
        est: &CardEstimator<'_>,
        scorer: &mut dyn PlanScorer,
        level: &mut Level,
        report: &mut SearchReport,
    ) -> Result<Arc<PhysPlan>, PlanError> {
        let _span = span!("search_greedy_join");
        let edges = masked_edges(self.db, query);
        // The fragment pair each candidate of the current round joins.
        let mut pair_of: Vec<(usize, usize)> = Vec::new();
        while frags.len() > 1 {
            report.join_levels += 1;
            level.clear();
            pair_of.clear();
            for i in 0..frags.len() {
                for j in 0..frags.len() {
                    if i == j {
                        continue;
                    }
                    let (l, r) = (&frags[i], &frags[j]);
                    if let Some(edge) = connecting_edge(&edges, l.mask, r.mask) {
                        let start = level.cands.len();
                        join_candidates(self.db, l, r, edge, self.cm, est, &mut level.cands);
                        pair_of.extend(std::iter::repeat_n((i, j), level.cands.len() - start));
                    }
                }
            }
            if !level.close_group(0) {
                return Err(PlanError::DisconnectedJoinGraph);
            }
            level.pick(scorer, report);
            let (i, j) = pair_of[level.picked[0]];
            let joined = level
                .drain_picked()
                .next()
                .expect("one greedy group, one pick");
            merge_fragments(&mut frags, i, j, joined);
        }
        Ok(frags.pop().unwrap().plan)
    }
}
