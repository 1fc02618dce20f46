//! `plan_search`: DACE inside the optimizer.
//!
//! `SearchSession::plan` runs DP/greedy join enumeration with a
//! `LearnedScorer` and its sub-plan memo over complex multi-join queries
//! from several databases. Each pass over the query set is one optimizer
//! session with a fresh scorer, so queries share sub-plans through the memo
//! within a pass. Every pick is executed and compared with the analytic
//! pick. The workload bypasses the serve scheduler, cache and tenancy.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dace_catalog::Database;
use dace_core::{DaceEstimator, TrainConfig, Trainer};
use dace_engine::{
    collect_dataset, execute, plan, CostModel, ExplorationScorer, LearnedScorer, MachineProfile,
    PhysPlan, PlanScorer, SearchSession,
};
use dace_plan::{Dataset, LabeledPlan, MachineId};
use dace_query::Query;

use crate::data::{databases, queries};
use crate::stats::{median, mix, percentile_of, Summary};
use crate::trace::{Recorder, ROOT};
use crate::{Outcome, RunArgs};

/// Databases with wide join graphs (12, 15, 17 and 10 tables).
const SEARCH_DBS: [u16; 4] = [0, 4, 12, 18];
/// Relations per query run from one to this many (capped by the database's
/// table count): DP enumeration up to nine, greedy beyond.
const MAX_RELATIONS: usize = 11;
/// Queries per (database, relation count) in one pass. Search cost grows
/// steeply with the relation count, so every seed gets the same size mix
/// and the seed only picks the queries.
const PER_STRATUM: usize = 24;
/// Training queries per database, each labeled twice: analytic pick and
/// exploration pick.
const TRAIN_PER_DB: usize = 48;
/// Sub-plan memo entries per session.
const MEMO_CAPACITY: usize = 1 << 16;
/// Log-normal sigma of the exploration policy that labels rejected
/// candidates for training.
const EXPLORE_SIGMA: f64 = 0.6;

pub struct State {
    dbs: Vec<Database>,
    cm: CostModel,
    base: DaceEstimator,
    /// One pass: (database index, query).
    queries: Vec<(usize, Query)>,
}

pub fn setup(seed: u64) -> State {
    let dbs = databases(&SEARCH_DBS);
    let cm = CostModel::default();
    let mut corpus = Dataset::new();
    let profile = MachineProfile::m1();
    for (d, db) in dbs.iter().enumerate() {
        let qs = queries(db, seed, 600 + d as u64, TRAIN_PER_DB, MAX_RELATIONS - 1);
        corpus.extend(collect_dataset(db, &qs, MachineId::M1));
        let session = SearchSession::new(db, &cm);
        let mut explore = ExplorationScorer::new(mix(seed, 650 + d as u64), EXPLORE_SIGMA);
        let plans = qs
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let (mut p, _) = session
                    .plan(q, &mut explore)
                    .expect("training queries plan");
                execute(db, &mut p);
                profile.apply(db, &mut p, i as u64);
                LabeledPlan {
                    tree: p.to_plan_tree(),
                    db_id: db.db_id(),
                    machine: MachineId::M1,
                }
            })
            .collect();
        corpus.extend(Dataset::from_plans(plans));
    }
    let base = Trainer::new(TrainConfig::default())
        .fit(&corpus)
        .expect("search training corpus is non-empty");
    State {
        queries: stratified(&dbs, seed),
        dbs,
        cm,
        base,
    }
}

/// One pass: per database and relation count, the first [`PER_STRATUM`]
/// generated queries of that size, interleaved across sizes and databases
/// so that any prefix of the pass keeps the mix.
fn stratified(dbs: &[Database], seed: u64) -> Vec<(usize, Query)> {
    let strata: Vec<Vec<Vec<Query>>> = dbs
        .iter()
        .enumerate()
        .map(|(d, db)| {
            let max = MAX_RELATIONS.min(db.schema.tables.len());
            let mut by_size: Vec<Vec<Query>> = vec![Vec::new(); max + 1];
            for round in 0..64 {
                if by_size[1..].iter().all(|s| s.len() == PER_STRATUM) {
                    break;
                }
                for q in queries(db, seed, 700 + 100 * d as u64 + round, 64, max - 1) {
                    let k = q.tables.len();
                    if by_size[k].len() < PER_STRATUM {
                        by_size[k].push(q);
                    }
                }
            }
            by_size
        })
        .collect();
    let mut pass = Vec::new();
    for r in 0..PER_STRATUM {
        for k in 1..=MAX_RELATIONS {
            for (d, by_size) in strata.iter().enumerate() {
                if let Some(q) = by_size.get(k).and_then(|s| s.get(r)) {
                    pass.push((d, q.clone()));
                }
            }
        }
    }
    pass
}

/// The learned scorer behind a benchmark-side wrapper that times every
/// `PlanScorer::score` call, so enumeration time is `plan()` minus scoring.
struct TimedScorer<'a> {
    inner: LearnedScorer<'a>,
    score_us: f64,
    recorder: Option<Recorder>,
    /// Query id and span the next score calls belong to.
    query: (u64, u32),
}

impl PlanScorer for TimedScorer<'_> {
    fn name(&self) -> &'static str {
        "timed-learned"
    }

    fn score(&mut self, cands: &[PhysPlan], groups: &[Range<usize>]) -> Vec<f64> {
        let t0 = Instant::now();
        let scores = self.inner.score(cands, groups);
        let t1 = Instant::now();
        self.score_us += (t1 - t0).as_secs_f64() * 1e6;
        if let Some(r) = self.recorder.as_mut() {
            r.record("engine.score", self.query.0, self.query.1, t0, t1);
        }
        scores
    }
}

/// Counters of the timed passes of one phase.
#[derive(Default)]
struct Passes {
    /// Latency samples of each query of the pass (µs), one per timed pass
    /// that reached it.
    per_query: Vec<Vec<f64>>,
    planned: usize,
    elapsed_s: f64,
    plan_us: f64,
    score_us: f64,
    candidates: usize,
    score_batches: usize,
    memo_hits: u64,
    memo_misses: u64,
    dedup_hits: u64,
    plans_scored: u64,
    forward_batches: u64,
    attention_us: u64,
    mlp_us: u64,
    recorders: Vec<Recorder>,
}

impl Passes {
    fn qps(&self) -> f64 {
        self.planned as f64 / self.elapsed_s
    }

    /// Each query's median over the passes that reached it, reduced by the
    /// tail rule: a distribution over distinct queries.
    fn latency(&self) -> Summary {
        let medians: Vec<f64> = self
            .per_query
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| median(v))
            .collect();
        Summary::of(&medians)
    }

    fn absorb(&mut self, scorer: &TimedScorer<'_>) {
        self.score_us += scorer.score_us;
        let learned = &scorer.inner;
        self.memo_hits += learned.memo().hits();
        self.memo_misses += learned.memo().misses();
        self.dedup_hits += learned.dedup_hits();
        self.plans_scored += learned.session().plans_scored();
        self.forward_batches += learned.session().batches();
        let t = learned.session().forward_timings();
        self.attention_us += t.attention_us;
        self.mlp_us += t.mlp_us;
    }
}

/// Keep a query's first pick; every later pass must reproduce it.
fn record_pick(picks: &mut [Option<PhysPlan>], qi: usize, pick: PhysPlan, out: &mut Outcome) {
    match &picks[qi] {
        None => picks[qi] = Some(pick),
        Some(first) if *first != pick => {
            out.fail(format!("plan_search: query {qi} changed its pick"));
        }
        Some(_) => {}
    }
}

/// Plan queries in passes until `dur` has elapsed. A pass the window cut
/// short is finished untimed while some query still lacks a pick, so every
/// pick comes from one complete, in-order session whatever the window.
fn run_passes(
    s: &State,
    dur: Duration,
    picks: &mut [Option<PhysPlan>],
    epoch: Option<Instant>,
    out: &mut Outcome,
) -> Passes {
    let mut p = Passes {
        per_query: vec![Vec::new(); s.queries.len()],
        ..Passes::default()
    };
    let start = Instant::now();
    let end = start + dur;
    let mut id = 0u64;
    let mut recorder = epoch.map(Recorder::new);
    loop {
        let mut scorer = TimedScorer {
            inner: LearnedScorer::new(&s.base, MEMO_CAPACITY),
            score_us: 0.0,
            recorder: recorder.take(),
            query: (0, ROOT),
        };
        let mut cut = None;
        for (qi, (d, q)) in s.queries.iter().enumerate() {
            let t0 = Instant::now();
            if t0 >= end {
                cut = Some(qi);
                break;
            }
            let span = scorer
                .recorder
                .as_mut()
                .map_or(ROOT, |r| r.open("search.plan", id, ROOT, t0));
            scorer.query = (id, span);
            let result = SearchSession::new(&s.dbs[*d], &s.cm).plan(q, &mut scorer);
            let t1 = Instant::now();
            if let Some(r) = scorer.recorder.as_mut() {
                r.close(span, t1);
            }
            id += 1;
            let us = (t1 - t0).as_secs_f64() * 1e6;
            p.per_query[qi].push(us);
            p.plan_us += us;
            p.planned += 1;
            out.attempted += 1;
            match result {
                Ok((pick, report)) => {
                    p.candidates += report.candidates_scored;
                    p.score_batches += report.score_batches;
                    record_pick(picks, qi, pick, out);
                }
                Err(e) => out.fail(format!("plan_search: query {qi}: {e:?}")),
            }
        }
        p.absorb(&scorer);
        recorder = scorer.recorder.take();
        if let Some(from) = cut {
            p.elapsed_s = start.elapsed().as_secs_f64();
            if picks[from..].iter().any(Option::is_none) {
                for (qi, (d, q)) in s.queries.iter().enumerate().skip(from) {
                    out.attempted += 1;
                    match SearchSession::new(&s.dbs[*d], &s.cm).plan(q, &mut scorer) {
                        Ok((pick, _)) => record_pick(picks, qi, pick, out),
                        Err(e) => out.fail(format!("plan_search: query {qi}: {e:?}")),
                    }
                }
            }
            break;
        }
    }
    p.recorders.extend(recorder);
    p
}

/// Plan from the start of the pass for `dur` with a throwaway scorer, so the
/// timed phases start with the allocator and caches warm.
fn warm_up(s: &State, dur: Duration) {
    let end = Instant::now() + dur;
    let mut scorer = LearnedScorer::new(&s.base, MEMO_CAPACITY);
    for (d, q) in &s.queries {
        if Instant::now() >= end {
            break;
        }
        let _ = SearchSession::new(&s.dbs[*d], &s.cm).plan(q, &mut scorer);
    }
}

/// Execute every learned pick and its analytic counterpart under the same
/// per-query seed; returns per-query (learned ms, analytic ms).
fn execute_picks(s: &State, picks: &[Option<PhysPlan>], out: &mut Outcome) -> Vec<(f64, f64)> {
    let profile = MachineProfile::m1();
    let mut results = Vec::with_capacity(s.queries.len());
    for (qi, ((d, q), pick)) in s.queries.iter().zip(picks).enumerate() {
        let Some(learned) = pick else { continue };
        let db = &s.dbs[*d];
        out.attempted += 1;
        let analytic = match plan(db, q, &s.cm) {
            Ok(p) => p,
            Err(e) => {
                out.fail(format!("plan_search: analytic plan of query {qi}: {e:?}"));
                continue;
            }
        };
        let seed = mix(u64::from(db.db_id()), qi as u64);
        let run = |p: &PhysPlan| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut p = p.clone();
                execute(db, &mut p);
                profile.apply(db, &mut p, seed);
                p.actual_ms
            }))
            .ok()
            .filter(|ms| ms.is_finite() && *ms > 0.0)
        };
        match (run(learned), run(&analytic)) {
            (Some(l), Some(a)) => results.push((l, a)),
            _ => out.fail(format!("plan_search: query {qi} failed to execute")),
        }
    }
    results
}

pub fn run(s: &State, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let mut picks: Vec<Option<PhysPlan>> = vec![None; s.queries.len()];
    let secs = args.seconds;
    warm_up(s, Duration::from_secs_f64(secs * 0.1));
    let untraced_s = if args.trace { secs * 0.25 } else { secs * 0.9 };
    let untraced = run_passes(
        s,
        Duration::from_secs_f64(untraced_s),
        &mut picks,
        None,
        &mut out,
    );
    let traced = args.trace.then(|| {
        let dur = Duration::from_secs_f64(secs * 0.65);
        run_passes(s, dur, &mut picks, Some(Instant::now()), &mut out)
    });
    let exec = execute_picks(s, &picks, &mut out);
    let ratio = exec.iter().map(|e| e.0).sum::<f64>() / exec.iter().map(|e| e.1).sum::<f64>();
    let per_query: Vec<f64> = exec.iter().map(|(l, a)| l / a).collect();
    let tail = percentile_of(&per_query, 90.0);
    let changed = exec.iter().filter(|(l, a)| l != a).count();
    let mut sizes = [0usize; MAX_RELATIONS + 1];
    for (_, q) in &s.queries {
        sizes[q.tables.len()] += 1;
    }
    out.notes.push(format!(
        "plan_search: {} queries per pass over {} databases, per relation count 1..={MAX_RELATIONS}: {:?}; learned/analytic executed latency {ratio:.4}, per-query p90 {tail:.4}, {changed} picks differ",
        s.queries.len(),
        s.dbs.len(),
        &sizes[1..],
    ));

    let Some(t) = traced else {
        let lat = untraced.latency();
        out.notes.push(format!(
            "plan_search: {} timed plans in {:.2} s = {:.1} queries/s; per-query median latency p50 {:.1} us, tail {:.1} us ({}, one per query)",
            untraced.planned,
            untraced.elapsed_s,
            untraced.qps(),
            lat.p50,
            lat.tail,
            lat.describe()
        ));
        out.metric("ops_per_s", untraced.qps());
        out.metric("op_p50_us", lat.p50);
        out.metric("op_tail_us", lat.tail);
        out.metric("quality", ratio);
        out.metric("quality_tail", tail);
        return out;
    };

    let n = t.planned.max(1) as f64;
    out.metric(
        "engine.search.enumerate_us_per_query",
        (t.plan_us - t.score_us) / n,
    );
    out.metric("engine.search.score_us_per_query", t.score_us / n);
    out.metric(
        "engine.search.candidates_per_query",
        t.candidates as f64 / n,
    );
    out.metric(
        "engine.search.batches_per_query",
        t.score_batches as f64 / n,
    );
    let lookups = (t.memo_hits + t.memo_misses).max(1) as f64;
    out.metric("engine.search.memo_hit_ratio", t.memo_hits as f64 / lookups);
    out.metric("engine.search.dedup_hits", t.dedup_hits as f64 / n);
    out.metric(
        "core.scoring.plans_per_batch",
        t.plans_scored as f64 / t.forward_batches.max(1) as f64,
    );
    let forward_us = (t.attention_us + t.mlp_us) as f64;
    out.metric("core.scoring.overhead_us", (t.score_us - forward_us) / n);
    let scored = t.plans_scored.max(1) as f64;
    out.metric(
        "core.model.attention_us_per_plan",
        t.attention_us as f64 / scored,
    );
    out.metric("core.model.mlp_us_per_plan", t.mlp_us as f64 / scored);
    // Compare the queries both phases planned: search cost differs too much
    // between queries for the two phases' throughputs to be comparable.
    let (mut common, mut untraced_us, mut traced_us) = (0, 0.0, 0.0);
    for (u, tr) in untraced.per_query.iter().zip(&t.per_query) {
        if !u.is_empty() && !tr.is_empty() {
            common += 1;
            untraced_us += median(u);
            traced_us += median(tr);
        }
    }
    let overhead = 1.0 - untraced_us / traced_us;
    out.metric("trace.overhead_share", overhead);
    out.notes.push(format!(
        "plan_search tracing overhead over the {common} queries both phases planned: {untraced_us:.0} us untraced vs {traced_us:.0} us traced ({:+.1}%)",
        100.0 * overhead
    ));
    out.write_trace("plan_search", &t.recorders);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_seeded_and_stratified() {
        let dbs = databases(&SEARCH_DBS);
        let pass = stratified(&dbs, 3);
        assert_eq!(pass, stratified(&dbs, 3));
        assert_ne!(pass, stratified(&dbs, 4));
        for d in 0..dbs.len() {
            for k in 1..=MAX_RELATIONS {
                let n = pass
                    .iter()
                    .filter(|(x, q)| *x == d && q.tables.len() == k)
                    .count();
                assert!(n <= PER_STRATUM, "db {d}, {k} relations: {n} queries");
            }
        }
        assert!(
            pass.iter().any(|(_, q)| q.tables.len() > 9),
            "no greedy-sized query"
        );
    }
}
