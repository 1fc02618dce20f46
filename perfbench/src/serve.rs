//! `serve`: the estimator as an online service for many databases.
//!
//! Every suite database below is a tenant (`submit_for`), each with its own
//! installed LoRA adapter that about a quarter of its requests go through.
//! Requests draw planned, unexecuted plans from a Zipf-skewed pool three
//! times the default 4096-entry featurization cache, so the cache both hits
//! and misses. Two load shapes:
//!
//! * `closed` — `nproc` clients, each blocking on its reply (an optimizer
//!   session waiting on the estimator). Concurrency stays below the default
//!   `min_fill`, so the batch window shows. This is the timed phase of the
//!   untraced run.
//! * `open` — one thread submits on a fixed schedule and one collects the
//!   replies, at a nominal rate and then a ladder of fixed rates, timing
//!   each request from its due time (traced run).
//!
//! The workload bypasses `core::trainer` after set-up and never touches
//! `engine::search`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use dace_core::{
    DaceEstimator, PlanFeatures, QuantWorkspace, QuantizedEstimator, TrainConfig, Trainer,
};
use dace_engine::plan_query;
use dace_plan::{Dataset, MachineId, PlanTree};
use dace_serve::{
    DaceServer, ModelRegistry, Prediction, PredictionHandle, ServeConfig, ServeError,
    StageBreakdown,
};

use crate::data::{databases, labeled, qerror, queries};
use crate::stats::{self, mean, median, mix, percentile_of, Rng, StepOutcome, Summary, Zipf};
use crate::trace::{Recorder, ROOT};
use crate::{alloc, Outcome, RunArgs, MAX_LISTED};

/// Tenant databases (suite ids).
const TENANT_DBS: [u16; 4] = [1, 3, 4, 5];
/// Labeled plans per tenant for base-model training.
const TRAIN_PER_DB: usize = 160;
/// M2-labeled plans per tenant for its LoRA adapter.
const ADAPTER_PER_DB: usize = 48;
/// Planned plans per tenant in the request pool: 4 × 3072 = 3 × the default
/// 4096-entry featurization cache.
const POOL_PER_DB: usize = 3072;
/// Held-out labeled plans per tenant for the served-accuracy figures.
const HOLDOUT_PER_DB: usize = 256;
/// Zipf exponent of plan popularity over the pool.
const ZIPF_S: f64 = 1.0;
/// Share of requests that name their tenant's adapter.
const ADAPTER_SHARE: f64 = 0.25;
/// Open-loop nominal rate (requests/s).
const NOMINAL_RPS: f64 = 2000.0;
/// Open-loop ladder of fixed absolute rates (requests/s).
const LADDER_RPS: [f64; 8] = [
    4000.0, 8000.0, 12000.0, 16000.0, 24000.0, 32000.0, 48000.0, 64000.0,
];
/// Open-loop latency limit on p99 from due time.
const P99_LIMIT_US: f64 = 1000.0;
/// Largest relative difference between a served estimate and the offline
/// `predict_features_batch_ms` reference. The packed forward is
/// row-independent, so served answers equal the reference up to rounding.
const REL_TOLERANCE: f64 = 1e-9;
/// Equal time slices of a closed-loop window; figures are medians across
/// slices, so one stall of the host moves one slice, not the result.
const SEGMENTS: usize = 10;

pub struct State {
    server: DaceServer,
    /// Offline reference copies: the base model and, per tenant, the base
    /// model with that tenant's adapter applied.
    base: DaceEstimator,
    tuned: Vec<DaceEstimator>,
    tenants: Vec<String>,
    adapters: Vec<String>,
    /// Request pool: (planned tree, tenant index).
    pool: Vec<(PlanTree, usize)>,
    /// Popularity rank → pool index.
    by_rank: Vec<u32>,
    zipf: Zipf,
    /// Held-out labeled plans: (tenant index, unexecuted tree, latency ms).
    holdout: Vec<(usize, PlanTree, f64)>,
}

pub fn setup(seed: u64) -> State {
    let cfg = TrainConfig::default();
    let dbs = databases(&TENANT_DBS);
    let mut corpus = Dataset::new();
    for (t, db) in dbs.iter().enumerate() {
        corpus.extend(labeled(
            db,
            seed,
            100 + t as u64,
            TRAIN_PER_DB,
            MachineId::M1,
        ));
    }
    let base = Trainer::new(cfg)
        .fit(&corpus)
        .expect("serve training corpus is non-empty");
    let registry = Arc::new(ModelRegistry::new(base.clone()));
    let tenants: Vec<String> = TENANT_DBS.iter().map(|id| format!("db{id}")).collect();
    let adapters: Vec<String> = TENANT_DBS.iter().map(|id| format!("db{id}-m2")).collect();
    let mut tuned = Vec::new();
    for (t, db) in dbs.iter().enumerate() {
        let data = labeled(db, seed, 200 + t as u64, ADAPTER_PER_DB, MachineId::M2);
        let adapter = base
            .fine_tuned_clone(&data, cfg.epochs, cfg.lr)
            .expect("adapter corpus is non-empty")
            .extract_adapter();
        registry
            .install_adapter(&adapters[t], &adapter)
            .expect("adapter installs");
        tuned.push(base.with_adapter(&adapter).expect("adapter fits the base"));
    }

    // Planned on this thread: trees allocated on helper threads land in
    // their allocator arenas and make peak memory vary from run to run.
    let pool: Vec<(PlanTree, usize)> = dbs
        .iter()
        .enumerate()
        .flat_map(|(t, db)| {
            queries(db, seed, 300 + t as u64, POOL_PER_DB, 5)
                .into_iter()
                .map(move |q| {
                    let p = plan_query(db, &q).expect("generated queries plan");
                    (p.to_plan_tree(), t)
                })
        })
        .collect();
    let mut by_rank: Vec<u32> = (0..pool.len() as u32).collect();
    Rng::new(mix(seed, 500)).shuffle(&mut by_rank);

    let mut holdout = Vec::new();
    for (t, db) in dbs.iter().enumerate() {
        for p in labeled(db, seed, 400 + t as u64, HOLDOUT_PER_DB, MachineId::M1).plans {
            let label = p.latency_ms();
            holdout.push((t, unexecuted(p.tree), label));
        }
    }
    let server = DaceServer::new(registry, ServeConfig::default());
    State {
        server,
        base,
        tuned,
        tenants,
        adapters,
        zipf: Zipf::new(pool.len(), ZIPF_S),
        pool,
        by_rank,
        holdout,
    }
}

/// The tree as the optimizer hands it over before execution.
fn unexecuted(mut tree: PlanTree) -> PlanTree {
    let ids: Vec<_> = tree.ids().collect();
    for id in ids {
        let n = tree.node_mut(id);
        n.actual_ms = 0.0;
        n.actual_rows = 0.0;
    }
    tree
}

impl State {
    fn draw(&self, rng: &mut Rng) -> (u32, bool) {
        let plan = self.by_rank[self.zipf.sample(rng)];
        (plan, rng.next_f64() < ADAPTER_SHARE)
    }

    fn submit(&self, plan: u32, adapter: bool) -> Result<PredictionHandle, ServeError> {
        let (tree, t) = &self.pool[plan as usize];
        let name = adapter.then(|| self.adapters[*t].as_str());
        self.server
            .submit_for(Some(&self.tenants[*t]), tree, name, None)
    }

    /// The offline reference model for a tenant's request.
    fn model(&self, tenant: usize, adapter: bool) -> &DaceEstimator {
        if adapter {
            &self.tuned[tenant]
        } else {
            &self.base
        }
    }
}

/// Distinct served values per (plan, adapter) with how many replies carried
/// each, plus failed replies. Its size is bounded by the pool, not by the
/// number of requests, so it barely moves peak memory.
#[derive(Default)]
struct Served {
    values: HashMap<(u32, bool), Vec<(f64, u64)>>,
    /// Replies that were errors or degraded answers.
    failed: u64,
    /// The first few failures, for the report.
    failures: Vec<String>,
    /// Σ batch size over answered replies, and their count.
    batch_sum: u64,
    answered: u64,
}

impl Served {
    fn record(&mut self, plan: u32, adapter: bool, reply: &Result<Prediction, ServeError>) {
        match reply {
            Ok(p) if !p.degraded => {
                self.add((plan, adapter), p.ms, 1);
                self.batch_sum += p.batch_size as u64;
                self.answered += 1;
            }
            other => {
                self.failed += 1;
                if self.failures.len() < MAX_LISTED {
                    let why = match other {
                        Ok(_) => "degraded answer".to_string(),
                        Err(e) => e.to_string(),
                    };
                    self.failures
                        .push(format!("serve: plan {plan} adapter {adapter}: {why}"));
                }
            }
        }
    }

    fn add(&mut self, key: (u32, bool), ms: f64, n: u64) {
        let seen = self.values.entry(key).or_default();
        match seen.iter_mut().find(|(m, _)| *m == ms) {
            Some((_, k)) => *k += n,
            None => seen.push((ms, n)),
        }
    }

    fn merge(&mut self, other: Served) {
        for (key, vals) in other.values {
            for (ms, n) in vals {
                self.add(key, ms, n);
            }
        }
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(MAX_LISTED);
        self.batch_sum += other.batch_sum;
        self.answered += other.answered;
    }

    fn replies(&self) -> u64 {
        self.answered + self.failed
    }
}

/// Stage detail of one timed closed-loop reply (traced run only).
#[derive(Clone, Copy)]
struct Detail {
    admit_us: f64,
    e2e_us: f64,
    batch: usize,
    hit: bool,
    stages: StageBreakdown,
}

struct Closed {
    /// (start offset from the end of warm-up in s, e2e µs) per timed request.
    lat: Vec<(f64, f64)>,
    measure_s: f64,
    served: Served,
    detail: Vec<Detail>,
    recorders: Vec<Recorder>,
}

impl Closed {
    fn new(measure_s: f64) -> Closed {
        Closed {
            lat: Vec::new(),
            measure_s,
            served: Served::default(),
            detail: Vec::new(),
            recorders: Vec::new(),
        }
    }

    fn rps(&self) -> f64 {
        self.lat.len() as f64 / self.measure_s
    }

    /// Medians across [`SEGMENTS`] time slices of (requests/s, p50, tail),
    /// with the tail rule's label for the middle slice.
    fn segmented(&self) -> (f64, f64, f64, String) {
        let width = self.measure_s / SEGMENTS as f64;
        let mut slices = vec![Vec::new(); SEGMENTS];
        for &(at, us) in &self.lat {
            slices[((at / width) as usize).min(SEGMENTS - 1)].push(us);
        }
        let sums: Vec<Summary> = slices.iter().map(|v| Summary::of(v)).collect();
        let rps: Vec<f64> = slices.iter().map(|v| v.len() as f64 / width).collect();
        (
            median(&rps),
            median(&sums.iter().map(|x| x.p50).collect::<Vec<_>>()),
            median(&sums.iter().map(|x| x.tail).collect::<Vec<_>>()),
            sums[SEGMENTS / 2].describe(),
        )
    }
}

fn clients() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed loop: `clients()` threads, each submitting its next request only
/// after the previous reply. Requests started during `warmup` are answered
/// and checked but excluded from the figures.
fn closed(
    s: &State,
    seed: u64,
    tag: u64,
    warmup: Duration,
    measure: Duration,
    epoch: Option<Instant>,
) -> Closed {
    let warm_end = Instant::now() + warmup;
    let end = warm_end + measure;
    let parts: Vec<Closed> = thread::scope(|sc| {
        let handles: Vec<_> = (0..clients())
            .map(|c| {
                sc.spawn(move || {
                    let mut rng = Rng::new(mix(seed, tag + c as u64));
                    let mut part = Closed::new(0.0);
                    part.lat.reserve(1 << 15);
                    let mut rec = epoch.map(Recorder::new);
                    let mut id = (tag << 32) | ((c as u64) << 24);
                    loop {
                        let (plan, adapter) = s.draw(&mut rng);
                        let t0 = Instant::now();
                        if t0 >= end {
                            break;
                        }
                        let sub = s.submit(plan, adapter);
                        let t1 = Instant::now();
                        let reply = sub.and_then(PredictionHandle::wait);
                        let t2 = Instant::now();
                        if let Some(r) = rec.as_mut() {
                            let root = r.record("serve.request", id, ROOT, t0, t2);
                            r.record("serve.submit_for", id, root, t0, t1);
                            r.record("serve.wait", id, root, t1, t2);
                        }
                        id += 1;
                        part.served.record(plan, adapter, &reply);
                        if t0 < warm_end {
                            continue;
                        }
                        let e2e_us = (t2 - t0).as_secs_f64() * 1e6;
                        part.lat.push(((t0 - warm_end).as_secs_f64(), e2e_us));
                        if let (Some(_), Ok(p)) = (epoch, &reply) {
                            part.detail.push(Detail {
                                admit_us: (t1 - t0).as_secs_f64() * 1e6,
                                e2e_us,
                                batch: p.batch_size,
                                hit: p.cache_hit,
                                stages: p.stages.unwrap_or_default(),
                            });
                        }
                    }
                    part.recorders.extend(rec);
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut all = Closed::new(measure.as_secs_f64());
    for part in parts {
        all.lat.extend(part.lat);
        all.served.merge(part.served);
        all.detail.extend(part.detail);
        all.recorders.extend(part.recorders);
    }
    all
}

struct Open {
    step: StepOutcome,
    /// How late the generator sent each request (µs).
    late_us: Vec<f64>,
    served: Served,
    recorders: Vec<Recorder>,
}

/// Sleep until `due`, yielding through the last 200 µs.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            thread::sleep(left - Duration::from_micros(200));
        } else {
            thread::yield_now();
        }
    }
}

/// Open loop at a fixed `rate` for `dur`: this thread submits on schedule,
/// one collector thread waits for the replies in submission order (a reply
/// that overtakes an earlier one is timed when the earlier one arrives).
fn open(s: &State, rate: f64, dur: Duration, seed: u64, tag: u64, epoch: Option<Instant>) -> Open {
    type Sent = (
        u64,
        Instant,
        Instant,
        Instant,
        u32,
        bool,
        Result<PredictionHandle, ServeError>,
    );
    let n = (rate * dur.as_secs_f64()) as u64;
    let completed = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut rng = Rng::new(mix(seed, tag));
    let mut backlog = Vec::new();
    let (lat, late_us, served, recorder) = thread::scope(|sc| {
        let completed = &completed;
        let collector = sc.spawn(move || {
            let mut lat = Vec::with_capacity(n as usize);
            let mut late = Vec::with_capacity(n as usize);
            let mut served = Served::default();
            let mut rec = epoch.map(Recorder::new);
            for (id, due, sent, admitted, plan, adapter, sub) in rx {
                let reply = sub.and_then(PredictionHandle::wait);
                let done = Instant::now();
                completed.fetch_add(1, Ordering::Relaxed);
                if let Some(r) = rec.as_mut() {
                    let root = r.record("serve.open.request", id, ROOT, due, done);
                    r.record("serve.submit_for", id, root, sent, admitted);
                    r.record("serve.wait", id, root, admitted, done);
                }
                served.record(plan, adapter, &reply);
                lat.push((done - due).as_secs_f64() * 1e6);
                late.push((sent - due).as_secs_f64() * 1e6);
            }
            (lat, late, served, rec)
        });
        let start = Instant::now() + Duration::from_millis(1);
        let sample_every = (n / 64).max(1);
        for i in 0..n {
            let (plan, adapter) = s.draw(&mut rng);
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            wait_until(due);
            let sent = Instant::now();
            let sub = s.submit(plan, adapter);
            let admitted = Instant::now();
            let id = (tag << 32) | i;
            if tx
                .send((id, due, sent, admitted, plan, adapter, sub))
                .is_err()
            {
                break;
            }
            if i % sample_every == 0 {
                let in_flight = (i + 1).saturating_sub(completed.load(Ordering::Relaxed));
                backlog.push(u32::try_from(in_flight).unwrap_or(u32::MAX));
            }
        }
        drop(tx);
        collector.join().expect("open-loop collector panicked")
    });
    Open {
        step: StepOutcome {
            rate,
            latency: Summary::of(&lat),
            failed: served.failed,
            backlog,
        },
        late_us,
        served,
        recorders: recorder.into_iter().collect(),
    }
}

/// Compare every distinct served value with the offline
/// `predict_features_batch_ms` reference. The featurization cache keys on a
/// quantized structural fingerprint salted per tenant, so by design a reply
/// may carry the features of another plan the same tenant sent with the
/// same fingerprint: a value passes when it matches, within
/// [`REL_TOLERANCE`], the reference of some pool or held-out plan in its
/// (tenant, fingerprint) class under the same model. Returns the number of
/// failed replies: errors, degraded answers and mismatches.
fn check(s: &State, served: &Served, problems: &mut Vec<String>) -> u64 {
    // Every tree the server may have cached, pool first so a pool index is
    // a tree index.
    let trees: Vec<(&PlanTree, usize)> = s
        .pool
        .iter()
        .map(|(tree, t)| (tree, *t))
        .chain(s.holdout.iter().map(|(t, tree, _)| (tree, *t)))
        .collect();
    let class_of = |i: usize| {
        let (tree, t) = trees[i];
        (t, s.base.featurizer.fingerprint(tree))
    };
    let mut classes: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for i in 0..trees.len() {
        classes.entry(class_of(i)).or_default().push(i);
    }
    let mut reference: HashMap<(usize, bool), f64> = HashMap::new();
    let mut failed = served.failed;
    problems.extend(served.failures.iter().cloned());
    for (&(plan, adapter), values) in &served.values {
        let plan = plan as usize;
        let class = &classes[&class_of(plan)];
        let est = s.model(trees[plan].1, adapter);
        let missing: Vec<usize> = class
            .iter()
            .copied()
            .filter(|&i| !reference.contains_key(&(i, adapter)))
            .collect();
        if !missing.is_empty() {
            let feats: Vec<PlanFeatures> = missing
                .iter()
                .map(|&i| est.featurizer.encode(trees[i].0))
                .collect();
            let refs: Vec<&PlanFeatures> = feats.iter().collect();
            for (&i, ms) in missing.iter().zip(est.predict_features_batch_ms(&refs)) {
                reference.insert((i, adapter), ms);
            }
        }
        for &(ms, n) in values {
            let matches = class.iter().any(|&i| {
                let want = reference[&(i, adapter)];
                (ms - want).abs() <= REL_TOLERANCE * want.abs()
            });
            if !matches {
                failed += n;
                if problems.len() < MAX_LISTED {
                    problems.push(format!(
                        "serve: plan {plan} adapter {adapter}: served {ms} ms, reference {} ms",
                        reference[&(plan, adapter)]
                    ));
                }
            }
        }
    }
    failed
}

/// Served q-error on the held-out labeled plans (base model, each plan
/// through its tenant, one request at a time so the cache sees them in a
/// fixed order). Returns (q-errors, failed requests).
fn holdout_qerrors(s: &State) -> (Vec<f64>, u64) {
    let mut qerrs = Vec::with_capacity(s.holdout.len());
    let mut failed = 0;
    for (t, tree, label) in &s.holdout {
        let reply = s
            .server
            .submit_for(Some(&s.tenants[*t]), tree, None, None)
            .and_then(PredictionHandle::wait);
        match reply {
            Ok(p) if p.ms.is_finite() && !p.degraded => qerrs.push(qerror(p.ms, *label)),
            _ => failed += 1,
        }
    }
    (qerrs, failed)
}

pub fn run(s: &State, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let secs = args.seconds;
    out.notes.push(format!(
        "serve: {} tenants, pool {} plans ({} distinct fingerprints), Zipf s={ZIPF_S}: top-4096 mass {:.3}",
        s.tenants.len(),
        s.pool.len(),
        distinct_fingerprints(s),
        s.zipf.head_mass(4096)
    ));
    if !args.trace {
        // Held-out plans go first, through the freshly built server, so
        // their answers never depend on what the window left in the cache.
        let (q, holdout_failed) = holdout_qerrors(s);
        out.attempted += s.holdout.len() as u64;
        out.failed += holdout_failed;
        let c = closed(
            s,
            args.seed,
            1000,
            Duration::from_secs_f64(secs * 0.1),
            Duration::from_secs_f64(secs * 0.9),
            None,
        );
        out.attempted += c.served.replies();
        out.failed += check(s, &c.served, &mut out.problems);
        let (rps, p50, tail, label) = c.segmented();
        out.notes.push(format!(
            "serve closed: {} clients, {:.0} req/s overall; medians over {SEGMENTS} slices: {rps:.0} req/s, p50 {p50:.1} us, tail {tail:.1} us ({label} per slice)",
            clients(),
            c.rps(),
        ));
        out.metric("ops_per_s", rps);
        out.metric("op_p50_us", p50);
        out.metric("op_tail_us", tail);
        out.metric("quality", percentile_of(&q, 50.0));
        out.metric("quality_tail", percentile_of(&q, 90.0));
        return out;
    }

    // Traced run. Untraced closed segment first, for the overhead figure.
    let untraced = closed(
        s,
        args.seed,
        1000,
        Duration::from_secs_f64(secs * 0.05),
        Duration::from_secs_f64(secs * 0.2),
        None,
    );
    let epoch = Instant::now();
    let snap0 = s.server.metrics_snapshot();
    let traced = closed(
        s,
        args.seed,
        2000,
        Duration::ZERO,
        Duration::from_secs_f64(secs * 0.25),
        Some(epoch),
    );
    let snap1 = s.server.metrics_snapshot();
    let nominal = open(
        s,
        NOMINAL_RPS,
        Duration::from_secs_f64(secs * 0.15),
        args.seed,
        3000,
        Some(epoch),
    );
    let step_dur = Duration::from_secs_f64(secs * 0.35 / LADDER_RPS.len() as f64);
    let mut ladder = Vec::new();
    for (i, &rate) in LADDER_RPS.iter().enumerate() {
        let o = open(s, rate, step_dur, args.seed, 4000 + i as u64, Some(epoch));
        let pass = stats::step_passes(&o.step, P99_LIMIT_US);
        out.notes.push(format!(
            "serve open ladder {rate:.0}/s: p50 {:.1} us, tail {:.1} us ({}), failed {}, last in-flight {:?} -> {}",
            o.step.latency.p50,
            o.step.latency.tail,
            o.step.latency.describe(),
            o.step.failed,
            o.step.backlog.last(),
            if pass { "pass" } else { "FAIL" }
        ));
        ladder.push(o);
        if !pass {
            break;
        }
    }
    let snap2 = s.server.metrics_snapshot();

    // Batching across the traced phases.
    let phases = [&traced.served, &nominal.served]
        .into_iter()
        .chain(ladder.iter().map(|o| &o.served));
    let (batch_sum, answered) = phases.fold((0, 0), |(b, n), p| (b + p.batch_sum, n + p.answered));
    out.metric(
        "serve.batch.size_mean",
        batch_sum as f64 / answered.max(1) as f64,
    );
    out.metric("serve.batch.count", (snap2.batches - snap0.batches) as f64);

    // Closed-loop stages and reconciliation.
    let d = &traced.detail;
    let admit: Vec<f64> = d.iter().map(|x| x.admit_us).collect();
    let qwait: Vec<f64> = d.iter().map(|x| x.stages.queue_wait_us as f64).collect();
    out.metric("serve.admission.p50_us", median(&admit));
    out.metric("serve.admission.p99_us", percentile_of(&admit, 99.0));
    out.metric("serve.queue.wait_p50_us", median(&qwait));
    out.metric("serve.queue.wait_p99_us", percentile_of(&qwait, 99.0));
    let hits = d.iter().filter(|x| x.hit).count();
    out.metric("serve.cache.hit_ratio", hits as f64 / d.len().max(1) as f64);
    let lookup: Vec<f64> = d.iter().map(|x| x.stages.cache_lookup_us as f64).collect();
    out.metric("serve.cache.lookup_us", mean(&lookup));
    let misses = snap1.cache_misses - snap0.cache_misses;
    let feat_us = (snap1.featurize_us.sum - snap0.featurize_us.sum)
        .saturating_sub(snap1.cache_lookup_us.sum - snap0.cache_lookup_us.sum);
    out.metric(
        "core.featurize.us_per_miss",
        feat_us as f64 / misses.max(1) as f64,
    );
    // Stage times are per forward group; a request's share is 1/batch.
    let per_plan = |f: fn(&StageBreakdown) -> u64| {
        mean(
            &d.iter()
                .map(|x| f(&x.stages) as f64 / x.batch.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    out.metric(
        "core.model.attention_us_per_plan",
        per_plan(|st| st.attention_us),
    );
    out.metric("core.model.mlp_us_per_plan", per_plan(|st| st.mlp_us));
    reconcile(d, &mut out);

    // Open loop.
    out.metric(
        "serve.open.gen_late_p99_us",
        percentile_of(&nominal.late_us, 99.0),
    );
    out.metric("serve.open.p50_us", nominal.step.latency.p50);
    out.metric("serve.open.p99_us", nominal.step.latency.tail);
    let steps: Vec<StepOutcome> = ladder.iter().map(|o| o.step.clone()).collect();
    out.metric(
        "serve.open.max_rps",
        stats::max_passing_rate(&steps, P99_LIMIT_US),
    );
    out.notes.push(format!(
        "serve open nominal {NOMINAL_RPS:.0}/s: p50 {:.1} us, tail {:.1} us ({}), generator late p99 {:.1} us, failed {}",
        nominal.step.latency.p50,
        nominal.step.latency.tail,
        nominal.step.latency.describe(),
        percentile_of(&nominal.late_us, 99.0),
        nominal.step.failed
    ));

    let overhead = 1.0 - traced.rps() / untraced.rps();
    out.metric("trace.overhead_share", overhead);
    out.notes.push(format!(
        "serve tracing overhead: closed {:.0} req/s untraced vs {:.0} traced ({:+.1}%)",
        untraced.rps(),
        traced.rps(),
        -100.0 * overhead
    ));

    calibrate(s, &mut out);

    // Output checks over every reply of every phase.
    let mut served = Served::default();
    let mut recorders = Vec::new();
    for c in [untraced, traced] {
        served.merge(c.served);
        recorders.extend(c.recorders);
    }
    for o in std::iter::once(nominal).chain(ladder) {
        served.merge(o.served);
        recorders.extend(o.recorders);
    }
    out.attempted += served.replies();
    out.failed += check(s, &served, &mut out.problems);
    out.write_trace("serve", &recorders);
    out
}

/// Decompose the closed-loop requests of the median band (45th–55th
/// percentile of end-to-end latency) into admission, queue wait, cache
/// lookup, featurization, attention, MLP and the residual the replies do
/// not account for (wake-ups, batch formation, respond). The stage means
/// plus the residual add up to the band's mean end-to-end latency.
fn reconcile(detail: &[Detail], out: &mut Outcome) {
    let mut band = detail.to_vec();
    band.sort_by(|x, y| x.e2e_us.total_cmp(&y.e2e_us));
    let n = band.len();
    let band = &band[n * 45 / 100..(n * 55 / 100).max(n * 45 / 100 + 1).min(n)];
    if band.is_empty() {
        out.problems
            .push("serve: no closed-loop replies to reconcile".into());
        return;
    }
    let avg = |f: fn(&Detail) -> f64| band.iter().map(f).sum::<f64>() / band.len() as f64;
    let e2e = avg(|x| x.e2e_us);
    let stages = [
        ("admission", avg(|x| x.admit_us)),
        ("queue", avg(|x| x.stages.queue_wait_us as f64)),
        ("cache", avg(|x| x.stages.cache_lookup_us as f64)),
        ("featurize", avg(|x| x.stages.featurize_us as f64)),
        ("attention", avg(|x| x.stages.attention_us as f64)),
        ("mlp", avg(|x| x.stages.mlp_us as f64)),
    ];
    let staged: f64 = stages.iter().map(|s| s.1).sum();
    let residual = e2e - staged;
    let parts: Vec<String> = stages
        .iter()
        .map(|(name, v)| format!("{name} {v:.2}"))
        .collect();
    out.notes.push(format!(
        "serve reconciliation ({} closed-loop requests in the 45-55th e2e percentile band): {} + residual {residual:.2} = {:.2} us; band e2e {e2e:.2} us, e2e p50 {:.2} us",
        band.len(),
        parts.join(" + "),
        staged + residual,
        median(&detail.iter().map(|x| x.e2e_us).collect::<Vec<_>>()),
    ));
    out.metric("serve.e2e_band_us", e2e);
    out.metric("serve.residual_us", residual);
    out.metric("serve.residual_share", residual / e2e);
}

/// Calibration calls straight into `core`, plus the per-request allocation
/// count through the server.
fn calibrate(s: &State, out: &mut Outcome) {
    const PLANS: usize = 256;
    const SINGLE_REPS: usize = 2048;
    const PACKED_REPS: usize = 64;
    let feats: Vec<PlanFeatures> = s.pool[..PLANS]
        .iter()
        .map(|(t, _)| s.base.featurizer.encode(t))
        .collect();
    let refs: Vec<&PlanFeatures> = feats.iter().collect();
    let quant = QuantizedEstimator::from_estimator(&s.base);
    let mut qws = QuantWorkspace::default();
    let (mut roots, mut ms) = (Vec::new(), Vec::new());
    let repeat = |f: &mut dyn FnMut() -> f64| median(&(0..5).map(|_| f()).collect::<Vec<_>>());
    let single = repeat(&mut || {
        let t = Instant::now();
        for i in 0..SINGLE_REPS {
            black_box(
                s.base
                    .predict_features_batch_ms(&refs[i % PLANS..i % PLANS + 1]),
            );
        }
        t.elapsed().as_secs_f64() * 1e6 / SINGLE_REPS as f64
    });
    let packed = repeat(&mut || {
        let t = Instant::now();
        for i in 0..PACKED_REPS {
            let at = (i * 32) % PLANS;
            black_box(s.base.predict_features_batch_ms(&refs[at..at + 32]));
        }
        t.elapsed().as_secs_f64() * 1e6 / (PACKED_REPS * 32) as f64
    });
    let quant_single = repeat(&mut || {
        let t = Instant::now();
        for i in 0..SINGLE_REPS {
            quant.predict_features_batch_ms_timed_ws(
                &refs[i % PLANS..i % PLANS + 1],
                &mut qws,
                &mut roots,
                &mut ms,
            );
            black_box(&ms);
        }
        t.elapsed().as_secs_f64() * 1e6 / SINGLE_REPS as f64
    });
    out.metric("core.model.single_us", single);
    out.metric("core.model.packed32_us_per_plan", packed);
    out.metric("core.quantized.single_us", quant_single);

    // One client, 64 warmed base-model plans of one tenant: every request
    // is a cache hit riding alone in its batch, so the count is per
    // request, not per batch mix.
    let plans: Vec<u32> = (0..s.pool.len() as u32)
        .filter(|&p| s.pool[p as usize].1 == 0)
        .take(64)
        .collect();
    let serve_one = |p: u32| s.submit(p, false).and_then(PredictionHandle::wait).is_ok();
    for _ in 0..2 {
        for &p in &plans {
            serve_one(p);
        }
    }
    const REQS: usize = 1024;
    let before = alloc::bytes();
    let mut ok = 0;
    for i in 0..REQS {
        ok += usize::from(serve_one(plans[i % plans.len()]));
    }
    let bytes = alloc::bytes() - before;
    if ok != REQS {
        out.problems
            .push("serve: allocation probe requests failed".into());
    }
    out.metric("serve.alloc_bytes_per_req", bytes as f64 / REQS as f64);
}

fn distinct_fingerprints(s: &State) -> usize {
    let mut fps: Vec<(usize, u64)> = s
        .pool
        .iter()
        .map(|(t, tenant)| (*tenant, s.base.featurizer.fingerprint(t)))
        .collect();
    fps.sort_unstable();
    fps.dedup();
    fps.len()
}
