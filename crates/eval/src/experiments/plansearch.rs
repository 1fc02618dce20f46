//! End-to-end plan-quality lift from putting DACE inside the optimizer.
//!
//! For every database of the suite, a fresh evaluation workload (a seed the
//! training collection never saw) is planned three ways — the analytic cost
//! model's argmin, [`LearnedScorer`] (batched DACE inference at every
//! decision level), and [`HybridScorer`] (model only where the analytic
//! model already says the decision is expensive) — and every distinct pick
//! is *executed* under the M1 machine profile with the same per-query seed,
//! so the comparison is total executed latency, not predicted latency.
//!
//! Alongside plan quality the run reports the plumbing the search subsystem
//! exists for: sub-plan memo hit-rate (shared sub-trees scored once),
//! batched-scoring throughput (sub-plans per second through the model), and
//! cross-machine routing quality (the [`CrossMachineRouter`]'s machine pick
//! vs always-M1 / always-M2 / a latency oracle).

use std::fmt::Write as _;

use dace_catalog::suite_specs;
use dace_core::{TrainConfig, Trainer};
use dace_engine::{
    execute, plan, CostModel, CrossMachineRouter, ExplorationScorer, HybridScorer, LearnedScorer,
    MachineProfile, PhysPlan, SearchSession,
};
use dace_plan::{Dataset, LabeledPlan, MachineId};
use dace_query::ComplexWorkloadGen;
use dace_serve::ModelRegistry;
use serde::Serialize;

use crate::data::{collect_db, suite_db, EvalConfig};

use super::Ctx;

/// Workload-generator seed for the evaluation queries — deliberately not the
/// training collection's default seed, so picked plans are judged on queries
/// the model never saw labeled.
pub const EVAL_SEED: u64 = 0x5EED_CAFE;

/// Knobs for one plan-search measurement.
#[derive(Debug, Clone)]
pub struct PlanSearchOptions {
    /// Suite databases to plan against.
    pub db_ids: Vec<u16>,
    /// Evaluation queries generated per database.
    pub eval_queries_per_db: usize,
    /// Sub-plan score memo capacity (entries).
    pub memo_capacity: usize,
    /// Base-model training epochs.
    pub epochs: usize,
    /// LoRA fine-tuning epochs for the M2-tuned model.
    pub tune_epochs: usize,
    /// Log-normal sigma of the exploration policy labeling the training
    /// workload a second time under perturbed analytic cost (0 disables).
    ///
    /// Without exploration the corpus only contains analytic-picked plans,
    /// and the learned search wanders into candidates whose latency the
    /// model has never seen a label for — the off-policy gap that makes
    /// DACE-picked plans *worse* than analytic picks at scale.
    pub explore_sigma: f64,
}

impl PlanSearchOptions {
    /// The full reproduction: every suite database, a quarter of the
    /// training workload size as fresh evaluation queries.
    pub fn full(cfg: &EvalConfig) -> PlanSearchOptions {
        PlanSearchOptions {
            db_ids: suite_specs().iter().map(|s| s.db_id).collect(),
            eval_queries_per_db: (cfg.queries_per_db / 4).max(8),
            memo_capacity: 1 << 18,
            epochs: cfg.dace_epochs,
            tune_epochs: (cfg.dace_epochs / 3).max(4),
            explore_sigma: 0.6,
        }
    }
}

/// Label the training workload of `db_id` a second time under the
/// exploration policy: plan with log-normally perturbed analytic cost,
/// execute the pick, and synthesize its latency with the same per-query
/// seeds label collection uses.
fn exploration_corpus(cfg: &EvalConfig, db_id: u16, machine: MachineId, sigma: f64) -> Dataset {
    let db = suite_db(cfg, db_id);
    let queries = ComplexWorkloadGen::default().generate(&db, cfg.queries_per_db);
    let cm = CostModel::default();
    let session = SearchSession::new(&db, &cm);
    let mut scorer = ExplorationScorer::new(0xE1_0000 ^ u64::from(db_id), sigma);
    let profile = MachineProfile::for_machine(machine);
    let plans = queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let (mut p, _) = session
                .plan(q, &mut scorer)
                .expect("training workload queries must plan");
            execute(&db, &mut p);
            profile.apply(&db, &mut p, i as u64);
            LabeledPlan {
                tree: p.to_plan_tree(),
                db_id,
                machine,
            }
        })
        .collect();
    Dataset::from_plans(plans)
}

/// Per-database executed-latency totals.
#[derive(Debug, Serialize)]
pub struct DbOutcome {
    /// Suite database id.
    pub db_id: u16,
    /// Evaluation queries planned and executed.
    pub queries: usize,
    /// Total executed latency of analytic-picked plans (ms, M1).
    pub analytic_ms: f64,
    /// Total executed latency of DACE-picked plans (ms, M1).
    pub learned_ms: f64,
    /// Total executed latency of hybrid-picked plans (ms, M1).
    pub hybrid_ms: f64,
    /// Queries where the learned pick differs from the analytic pick.
    pub learned_changed: usize,
    /// Queries where the hybrid pick differs from the analytic pick.
    pub hybrid_changed: usize,
    /// Hybrid routing threshold derived from this database's analytic cost
    /// distribution (cost units).
    pub hybrid_threshold: f64,
}

/// Memo and batched-scoring counters accumulated over the whole run.
#[derive(Debug, Serialize)]
pub struct ScoringStats {
    /// Memo lookups served without a model call.
    pub memo_hits: u64,
    /// Memo lookups that needed a fresh score.
    pub memo_misses: u64,
    /// Fraction of lookups served from the memo.
    pub memo_hit_rate: f64,
    /// Batch-local duplicates resolved without a lookup or model call.
    pub dedup_hits: u64,
    /// Distinct sub-plans pushed through the model.
    pub plans_scored: u64,
    /// Forward batches issued (one per decision level with candidates).
    pub score_batches: u64,
    /// Sub-plan scores per second of scoring wall time.
    pub scores_per_sec: f64,
    /// Wall time inside the scoring path (µs).
    pub scoring_wall_us: u64,
    /// Time inside the tree-masked attention layer (µs).
    pub attention_us: u64,
    /// Time inside the prediction MLP (µs).
    pub mlp_us: u64,
}

/// Cross-machine routing outcome over the learned-picked plans.
#[derive(Debug, Serialize)]
pub struct RoutingStats {
    /// Plans run through the router (one per evaluation query).
    pub routed_queries: usize,
    /// Decisions that kept the default machine (M1).
    pub routed_to_m1: usize,
    /// Decisions that moved the query to M2.
    pub routed_to_m2: usize,
    /// Decisions matching the a-posteriori cheaper machine.
    pub routed_correct: usize,
    /// Total executed latency when each query runs where routed (ms).
    pub routed_ms: f64,
    /// Total executed latency running everything on M1 (ms).
    pub always_m1_ms: f64,
    /// Total executed latency running everything on M2 (ms).
    pub always_m2_ms: f64,
    /// Total executed latency of an oracle picking the cheaper machine (ms).
    pub oracle_ms: f64,
}

/// One full plan-search measurement.
#[derive(Debug, Serialize)]
pub struct PlanSearchReport {
    /// Databases measured.
    pub dbs: usize,
    /// Total evaluation queries across all databases.
    pub queries: usize,
    /// Labeled plans in the M1 training corpus.
    pub train_plans: usize,
    /// Base-model training epochs.
    pub epochs: usize,
    /// Per-database outcomes.
    pub per_db: Vec<DbOutcome>,
    /// Suite-total executed latency of analytic-picked plans (ms).
    pub analytic_total_ms: f64,
    /// Suite-total executed latency of DACE-picked plans (ms).
    pub learned_total_ms: f64,
    /// Suite-total executed latency of hybrid-picked plans (ms).
    pub hybrid_total_ms: f64,
    /// `learned_total_ms / analytic_total_ms` (< 1 means DACE picks win).
    pub learned_ratio: f64,
    /// `hybrid_total_ms / analytic_total_ms`.
    pub hybrid_ratio: f64,
    /// Queries where the learned pick differs from the analytic pick.
    pub learned_changed: usize,
    /// Queries where the hybrid pick differs from the analytic pick.
    pub hybrid_changed: usize,
    /// Decision groups the hybrid scorer sent to the model.
    pub hybrid_learned_groups: u64,
    /// Decision groups the hybrid scorer left analytic.
    pub hybrid_analytic_groups: u64,
    /// Memo and throughput counters (learned scorer).
    pub scoring: ScoringStats,
    /// Cross-machine routing outcome.
    pub routing: RoutingStats,
}

/// Execute a picked plan and synthesize its latency under `profile`.
///
/// `execute` fills actual cardinalities once; the profile converts them to
/// wall-clock ms. The same per-query seed is used for every strategy's pick
/// of the same query, so latency noise never favors one scorer.
fn executed_ms(
    db: &dace_catalog::Database,
    picked: &PhysPlan,
    profiles: &[&MachineProfile],
    seed: u64,
) -> Vec<f64> {
    let mut p = picked.clone();
    execute(db, &mut p);
    profiles
        .iter()
        .map(|profile| {
            profile.apply(db, &mut p, seed);
            p.actual_ms
        })
        .collect()
}

/// Median of a slice (not necessarily sorted).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return 0.0;
    }
    v[v.len() / 2]
}

/// Run the measurement: train on `train_m1`/`train_m2`, then plan, execute
/// and route the evaluation workload of every database in `opts.db_ids`.
pub fn measure(
    cfg: &EvalConfig,
    opts: &PlanSearchOptions,
    train_m1: &Dataset,
    train_m2: &Dataset,
) -> PlanSearchReport {
    let (mut corpus_m1, mut corpus_m2) = (train_m1.clone(), train_m2.clone());
    if opts.explore_sigma > 0.0 {
        for &db_id in &opts.db_ids {
            corpus_m1.extend(exploration_corpus(
                cfg,
                db_id,
                MachineId::M1,
                opts.explore_sigma,
            ));
            corpus_m2.extend(exploration_corpus(
                cfg,
                db_id,
                MachineId::M2,
                opts.explore_sigma,
            ));
        }
    }
    let base = Trainer::new(TrainConfig {
        epochs: opts.epochs,
        ..TrainConfig::default()
    })
    .fit(&corpus_m1)
    .expect("plan-search training corpus is non-empty");
    let m2_est = base
        .fine_tuned_clone(&corpus_m2, opts.tune_epochs, 2e-3)
        .expect("plan-search M2 corpus is non-empty");
    let registry = ModelRegistry::new(base.clone());
    registry
        .install_estimator("m2", m2_est)
        .expect("m2 model installs");
    let router = CrossMachineRouter::new(&registry, None, Some("m2".to_string()));

    let cm = CostModel::default();
    let m1 = MachineProfile::m1();
    let m2 = MachineProfile::m2();
    let mut learned = LearnedScorer::new(&base, opts.memo_capacity);

    let mut per_db = Vec::with_capacity(opts.db_ids.len());
    let mut routing = RoutingStats {
        routed_queries: 0,
        routed_to_m1: 0,
        routed_to_m2: 0,
        routed_correct: 0,
        routed_ms: 0.0,
        always_m1_ms: 0.0,
        always_m2_ms: 0.0,
        oracle_ms: 0.0,
    };
    let mut score_batches = 0u64;
    let (mut hybrid_learned_groups, mut hybrid_analytic_groups) = (0u64, 0u64);

    for &db_id in &opts.db_ids {
        let db = suite_db(cfg, db_id);
        let gen = ComplexWorkloadGen {
            seed: EVAL_SEED ^ u64::from(db_id),
            ..ComplexWorkloadGen::default()
        };
        let queries = gen.generate(&db, opts.eval_queries_per_db);
        let session = SearchSession::new(&db, &cm);

        // Analytic pre-pass: the baseline picks, and the cost distribution
        // the hybrid threshold is derived from (half the median root cost —
        // scan-level decisions stay analytic, join-level ones go learned).
        let analytic_picks: Vec<PhysPlan> = queries
            .iter()
            .map(|q| plan(&db, q, &cm).expect("generated eval queries must plan"))
            .collect();
        let roots: Vec<f64> = analytic_picks.iter().map(|p| p.est_cost()).collect();
        let hybrid_threshold = 0.5 * median(&roots);
        let mut hybrid = HybridScorer::new(&base, opts.memo_capacity, hybrid_threshold);

        let mut outcome = DbOutcome {
            db_id,
            queries: queries.len(),
            analytic_ms: 0.0,
            learned_ms: 0.0,
            hybrid_ms: 0.0,
            learned_changed: 0,
            hybrid_changed: 0,
            hybrid_threshold,
        };
        for (i, q) in queries.iter().enumerate() {
            let seed = (u64::from(db_id) << 32) | i as u64;
            let a = &analytic_picks[i];
            let (l, l_report) = session.plan(q, &mut learned).expect("eval query plans");
            let (h, _) = session.plan(q, &mut hybrid).expect("eval query plans");
            score_batches += l_report.score_batches as u64;

            // Execute each *distinct* pick once; identical plans execute
            // identically under the shared seed.
            let a_ms = executed_ms(&db, a, &[&m1], seed)[0];
            let (l_m1, l_m2) = if l == *a {
                let both = executed_ms(&db, a, &[&m2], seed);
                (a_ms, both[0])
            } else {
                outcome.learned_changed += 1;
                let both = executed_ms(&db, &l, &[&m1, &m2], seed);
                (both[0], both[1])
            };
            let h_ms = if h == l {
                if h != *a {
                    outcome.hybrid_changed += 1;
                }
                l_m1
            } else if h == *a {
                a_ms
            } else {
                outcome.hybrid_changed += 1;
                executed_ms(&db, &h, &[&m1], seed)[0]
            };
            outcome.analytic_ms += a_ms;
            outcome.learned_ms += l_m1;
            outcome.hybrid_ms += h_ms;

            // Route the learned pick across machines and score the decision
            // against the executed ground truth on both.
            let decision = router.route(&l).expect("registry resolves both machines");
            let routed_ms = match decision.machine {
                MachineId::M1 => {
                    routing.routed_to_m1 += 1;
                    l_m1
                }
                MachineId::M2 => {
                    routing.routed_to_m2 += 1;
                    l_m2
                }
            };
            let cheaper = if l_m1 <= l_m2 {
                MachineId::M1
            } else {
                MachineId::M2
            };
            routing.routed_queries += 1;
            routing.routed_correct += usize::from(decision.machine == cheaper);
            routing.routed_ms += routed_ms;
            routing.always_m1_ms += l_m1;
            routing.always_m2_ms += l_m2;
            routing.oracle_ms += l_m1.min(l_m2);
        }
        hybrid_learned_groups += hybrid.learned_groups();
        hybrid_analytic_groups += hybrid.analytic_groups();
        per_db.push(outcome);
    }

    let total = |f: fn(&DbOutcome) -> f64| per_db.iter().map(f).sum::<f64>();
    let analytic_total_ms = total(|o| o.analytic_ms);
    let learned_total_ms = total(|o| o.learned_ms);
    let hybrid_total_ms = total(|o| o.hybrid_ms);
    let timings = learned.session().forward_timings();
    PlanSearchReport {
        dbs: per_db.len(),
        queries: per_db.iter().map(|o| o.queries).sum(),
        train_plans: corpus_m1.len(),
        epochs: opts.epochs,
        analytic_total_ms,
        learned_total_ms,
        hybrid_total_ms,
        learned_ratio: learned_total_ms / analytic_total_ms,
        hybrid_ratio: hybrid_total_ms / analytic_total_ms,
        learned_changed: per_db.iter().map(|o| o.learned_changed).sum(),
        hybrid_changed: per_db.iter().map(|o| o.hybrid_changed).sum(),
        hybrid_learned_groups,
        hybrid_analytic_groups,
        scoring: ScoringStats {
            memo_hits: learned.memo().hits(),
            memo_misses: learned.memo().misses(),
            memo_hit_rate: learned.memo().hit_rate(),
            dedup_hits: learned.dedup_hits(),
            plans_scored: learned.session().plans_scored(),
            score_batches,
            scores_per_sec: learned.session().scores_per_sec(),
            scoring_wall_us: learned.session().wall_us(),
            attention_us: timings.attention_us,
            mlp_us: timings.mlp_us,
        },
        routing,
        per_db,
    }
}

/// Render the report as the `results/plansearch.md` body.
pub fn render(report: &PlanSearchReport) -> String {
    let mut out = String::from(
        "Plan search — end-to-end executed latency of DACE-picked vs \
         analytic-picked plans.\n\n",
    );
    let _ = writeln!(
        out,
        "{} databases × {} eval queries (fresh seed {:#x}), {} training plans, {} epochs.\n",
        report.dbs,
        report.queries / report.dbs.max(1),
        EVAL_SEED,
        report.train_plans,
        report.epochs
    );
    let _ = writeln!(
        out,
        "| {:<5} | {:>7} | {:>12} | {:>12} | {:>12} | {:>9} | {:>9} |",
        "db", "queries", "analytic ms", "DACE ms", "hybrid ms", "Δ learned", "Δ hybrid"
    );
    let _ = writeln!(
        out,
        "|{}|{}|{}|{}|{}|{}|{}|",
        "-".repeat(7),
        "-".repeat(9),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(14),
        "-".repeat(11),
        "-".repeat(11)
    );
    for o in &report.per_db {
        let _ = writeln!(
            out,
            "| {:<5} | {:>7} | {:>12.1} | {:>12.1} | {:>12.1} | {:>9} | {:>9} |",
            o.db_id,
            o.queries,
            o.analytic_ms,
            o.learned_ms,
            o.hybrid_ms,
            o.learned_changed,
            o.hybrid_changed
        );
    }
    let _ = writeln!(
        out,
        "\nTotals: analytic {:.1} ms, DACE {:.1} ms ({:.3}× analytic), hybrid {:.1} ms \
         ({:.3}×); learned pick differs on {}/{} queries.",
        report.analytic_total_ms,
        report.learned_total_ms,
        report.learned_ratio,
        report.hybrid_total_ms,
        report.hybrid_ratio,
        report.learned_changed,
        report.queries
    );
    let s = &report.scoring;
    let _ = writeln!(
        out,
        "\nMemo: {:.1}% hit rate ({} hits / {} misses, {} batch-local dupes); \
         {} distinct sub-plans scored in {} level batches at {:.0} sub-plans/s \
         (attention {} µs, MLP {} µs).",
        100.0 * s.memo_hit_rate,
        s.memo_hits,
        s.memo_misses,
        s.dedup_hits,
        s.plans_scored,
        s.score_batches,
        s.scores_per_sec,
        s.attention_us,
        s.mlp_us
    );
    let _ = writeln!(
        out,
        "\nHybrid: {} decision groups to the model, {} left analytic \
         (per-db threshold = half the median root cost).",
        report.hybrid_learned_groups, report.hybrid_analytic_groups
    );
    let r = &report.routing;
    let _ = writeln!(
        out,
        "\nRouting ({} queries): {} → M1, {} → M2, {:.1}% agree with the executed \
         oracle. Totals: routed {:.1} ms vs always-M1 {:.1} ms, always-M2 {:.1} ms, \
         oracle {:.1} ms.",
        r.routed_queries,
        r.routed_to_m1,
        r.routed_to_m2,
        100.0 * r.routed_correct as f64 / r.routed_queries.max(1) as f64,
        r.routed_ms,
        r.always_m1_ms,
        r.always_m2_ms,
        r.oracle_ms
    );
    out
}

pub(super) fn run(ctx: &Ctx) -> String {
    let opts = PlanSearchOptions::full(&ctx.cfg);
    let report = measure(&ctx.cfg, &opts, ctx.suite_m1(), ctx.suite_m2());
    render(&report)
}

/// Smoke-sized measurement for the CI gate: a handful of databases, the
/// training corpus collected inline.
pub fn smoke(cfg: &EvalConfig, db_ids: &[u16], epochs: usize) -> PlanSearchReport {
    let mut train_m1 = Dataset::new();
    let mut train_m2 = Dataset::new();
    for &db_id in db_ids {
        train_m1.extend(collect_db(cfg, db_id, MachineId::M1));
        train_m2.extend(collect_db(cfg, db_id, MachineId::M2));
    }
    let opts = PlanSearchOptions {
        db_ids: db_ids.to_vec(),
        eval_queries_per_db: (cfg.queries_per_db / 2).max(8),
        memo_capacity: 1 << 16,
        epochs,
        tune_epochs: (epochs / 2).max(2),
        explore_sigma: 0.6,
    };
    measure(cfg, &opts, &train_m1, &train_m2)
}
