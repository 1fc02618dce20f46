//! `train`: pretraining and adaptation.
//!
//! One job is `Trainer::fit` on labeled plans from several databases, then
//! `fine_tune_lora` of a copy on a held-out database, then zero-shot and
//! tuned q-error on that database's held-out plans. Forward, backward and
//! Adam run here, where the other workloads only run inference.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dace_core::{DaceEstimator, TrainConfig, Trainer};
use dace_obs::{EpochRecord, RunSink};
use dace_plan::{Dataset, MachineId, PlanTree};

use crate::data::{databases, labeled, qerror};
use crate::stats::{median, percentile_of, Summary};
use crate::trace::{Recorder, ROOT};
use crate::{Outcome, RunArgs};

/// Pretraining databases (suite ids).
const TRAIN_DBS: [u16; 6] = [1, 2, 3, 5, 6, 7];
/// The held-out database adapted to.
const HELD_OUT_DB: u16 = 4;
/// Labeled plans per pretraining database.
const TRAIN_PER_DB: usize = 40;
/// Held-out plans the adapter is tuned on.
const TUNE_PLANS: usize = 64;
/// Held-out plans the q-errors are measured on.
const TEST_PLANS: usize = 512;
/// Epochs before the trainer's workspace reaches its high-water mark;
/// allocation counts use the epochs after.
const WARM_EPOCHS: usize = 2;

pub struct State {
    corpus: Dataset,
    tune: Dataset,
    test: Dataset,
}

pub fn setup(seed: u64) -> State {
    let dbs = databases(&TRAIN_DBS);
    let mut corpus = Dataset::new();
    for (d, db) in dbs.iter().enumerate() {
        corpus.extend(labeled(
            db,
            seed,
            800 + d as u64,
            TRAIN_PER_DB,
            MachineId::M1,
        ));
    }
    let held_out = &databases(&[HELD_OUT_DB])[0];
    State {
        corpus,
        tune: labeled(held_out, seed, 900, TUNE_PLANS, MachineId::M1),
        test: labeled(held_out, seed, 901, TEST_PLANS, MachineId::M1),
    }
}

/// Epoch records with the instant each arrived, for the traced run.
#[derive(Debug, Default)]
struct EpochLog(Mutex<Vec<(EpochRecord, Instant)>>);

impl RunSink for EpochLog {
    fn epoch(&self, record: &EpochRecord) {
        self.0
            .lock()
            .expect("epoch log lock poisoned")
            .push((record.clone(), Instant::now()));
    }
}

impl EpochLog {
    fn take(&self) -> Vec<(EpochRecord, Instant)> {
        std::mem::take(&mut *self.0.lock().expect("epoch log lock poisoned"))
    }
}

struct Job {
    fit_s: f64,
    tune_s: f64,
    zero_shot: Vec<f64>,
    tuned: Vec<f64>,
    /// Wall time of `fit` minus the epochs it reported (traced run only).
    outside_epochs_ms: Option<f64>,
    /// Epoch records of `fit` and `fine_tune_lora` (traced run only).
    epochs: Vec<EpochRecord>,
}

fn qerrors(est: &DaceEstimator, test: &Dataset) -> Vec<f64> {
    let trees: Vec<&PlanTree> = test.plans.iter().map(|p| &p.tree).collect();
    est.predict_batch_ms(&trees)
        .into_iter()
        .zip(&test.plans)
        .map(|(pred, p)| qerror(pred, p.latency_ms()))
        .collect()
}

fn job(
    s: &State,
    log: Option<&Arc<EpochLog>>,
    rec: Option<&mut Recorder>,
    id: u64,
) -> Result<Job, String> {
    let cfg = TrainConfig::default();
    let trainer = match log {
        Some(log) => Trainer::with_sink(cfg, Arc::clone(log) as Arc<dyn RunSink>),
        None => Trainer::new(cfg),
    };
    let t0 = Instant::now();
    let est = trainer.fit(&s.corpus).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let fit_epochs = log.map(|l| l.take());
    let mut tuned = est.clone();
    let t2 = Instant::now();
    let sink = log.map(|l| l.as_ref() as &dyn RunSink);
    tuned
        .fine_tune_lora_with_sink(&s.tune, cfg.epochs, cfg.lr, sink)
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let lora_epochs = log.map(|l| l.take());
    let zero_shot = qerrors(&est, &s.test);
    let tuned_q = qerrors(&tuned, &s.test);
    let t4 = Instant::now();
    if zero_shot.iter().chain(&tuned_q).any(|q| !q.is_finite()) {
        return Err("non-finite q-error".into());
    }
    let mut outside_epochs_ms = None;
    if let (Some(r), Some(fit_epochs), Some(lora_epochs)) = (rec, &fit_epochs, &lora_epochs) {
        let root = r.record("train.job", id, ROOT, t0, t4);
        let fit = r.record("train.fit", id, root, t0, t1);
        let lora = r.record("train.fine_tune_lora", id, root, t2, t3);
        for (epochs, parent) in [(fit_epochs, fit), (lora_epochs, lora)] {
            for (e, at) in epochs {
                let start = at
                    .checked_sub(Duration::from_secs_f64(e.epoch_ms / 1e3))
                    .unwrap_or(*at);
                r.record("train.epoch", id, parent, start, *at);
            }
        }
        r.record("train.predict_batch_ms", id, root, t3, t4);
        let epochs_ms: f64 = fit_epochs.iter().map(|(e, _)| e.epoch_ms).sum();
        outside_epochs_ms = Some((t1 - t0).as_secs_f64() * 1e3 - epochs_ms);
    }
    let epochs = fit_epochs
        .into_iter()
        .flatten()
        .chain(lora_epochs.into_iter().flatten())
        .map(|(e, _)| e)
        .collect();
    Ok(Job {
        fit_s: (t1 - t0).as_secs_f64(),
        tune_s: (t3 - t2).as_secs_f64(),
        zero_shot,
        tuned: tuned_q,
        outside_epochs_ms,
        epochs,
    })
}

/// Jobs run back to back until their time is up (at least one).
struct Jobs {
    jobs: Vec<Job>,
    recorder: Option<Recorder>,
}

impl Jobs {
    /// Jobs after the first, which warms the allocator and caches (all
    /// jobs when only one ran).
    fn timed(&self) -> &[Job] {
        if self.jobs.len() > 1 {
            &self.jobs[1..]
        } else {
            &self.jobs
        }
    }

    /// Pretraining throughput: plans × epochs per second of `fit`, the
    /// median over timed jobs.
    fn rate(&self, s: &State) -> f64 {
        let work = (s.corpus.len() * TrainConfig::default().epochs) as f64;
        median(
            &self
                .timed()
                .iter()
                .map(|j| work / j.fit_s)
                .collect::<Vec<_>>(),
        )
    }
}

fn run_jobs(s: &State, dur: Duration, traced: bool, out: &mut Outcome) -> Jobs {
    let log = traced.then(|| Arc::new(EpochLog::default()));
    let mut recorder = traced.then(|| Recorder::new(Instant::now()));
    let end = Instant::now() + dur;
    let mut jobs = Vec::new();
    let mut id = 0;
    while jobs.is_empty() || Instant::now() < end {
        out.attempted += 1;
        match job(s, log.as_ref(), recorder.as_mut(), id) {
            Ok(j) => jobs.push(j),
            Err(e) => {
                out.fail(format!("train: job {id}: {e}"));
                if jobs.is_empty() {
                    break;
                }
            }
        }
        id += 1;
    }
    // Training is deterministic: every job must reproduce the first.
    if let Some(first) = jobs.first() {
        for (i, j) in jobs.iter().enumerate().skip(1) {
            if j.zero_shot != first.zero_shot || j.tuned != first.tuned {
                out.fail(format!("train: job {i} differs from job 0"));
            }
        }
    }
    Jobs { jobs, recorder }
}

pub fn run(s: &State, args: &RunArgs) -> Outcome {
    let mut out = Outcome::default();
    let secs = args.seconds;
    let untraced_s = if args.trace { secs * 0.3 } else { secs };
    let untraced = run_jobs(s, Duration::from_secs_f64(untraced_s), false, &mut out);
    let Some(first) = untraced.jobs.first() else {
        return out;
    };
    let (zero, tuned) = (&first.zero_shot, &first.tuned);
    out.notes.push(format!(
        "train: {} pretraining plans, {} tuning plans, {} test plans; zero-shot q-error p50 {:.3} p90 {:.3}, tuned p50 {:.3} p90 {:.3}",
        s.corpus.len(),
        s.tune.len(),
        s.test.len(),
        percentile_of(zero, 50.0),
        percentile_of(zero, 90.0),
        percentile_of(tuned, 50.0),
        percentile_of(tuned, 90.0),
    ));
    if !args.trace {
        let fit_us: Vec<f64> = untraced.timed().iter().map(|j| j.fit_s * 1e6).collect();
        let lat = Summary::of(&fit_us);
        out.notes.push(format!(
            "train: {} jobs, fit {:.0} plans x epochs/s (median over jobs), fit p50 {:.0} us, tail {:.0} us ({})",
            untraced.jobs.len(),
            untraced.rate(s),
            lat.p50,
            lat.tail,
            lat.describe()
        ));
        out.metric("ops_per_s", untraced.rate(s));
        out.metric("op_p50_us", lat.p50);
        out.metric("op_tail_us", lat.tail);
        out.metric("quality", percentile_of(zero, 50.0));
        out.metric("quality_tail", percentile_of(zero, 90.0));
        return out;
    }

    let traced = run_jobs(s, Duration::from_secs_f64(secs * 0.7), true, &mut out);
    let phase = |name: &'static str| {
        traced
            .jobs
            .iter()
            .flat_map(|j| &j.epochs)
            .filter(move |e| e.phase == name)
    };
    let ms = |name: &'static str| phase(name).map(|e| e.epoch_ms).collect::<Vec<_>>();
    out.metric("core.trainer.epoch_ms_p50", median(&ms("pretrain")));
    out.metric("core.trainer.lora_epoch_ms_p50", median(&ms("lora")));
    let outside: Vec<f64> = traced
        .jobs
        .iter()
        .filter_map(|j| j.outside_epochs_ms)
        .collect();
    out.metric("core.trainer.outside_epochs_ms", median(&outside));
    out.metric(
        "core.trainer.epochs_run",
        phase("pretrain").count() as f64 / traced.jobs.len().max(1) as f64,
    );
    let alloc: Vec<f64> = phase("pretrain")
        .filter(|e| e.epoch >= WARM_EPOCHS)
        .filter_map(|e| e.alloc_bytes)
        .map(|b| b as f64)
        .collect();
    out.metric("core.trainer.alloc_bytes_per_epoch", median(&alloc));
    let tune_s: f64 = traced.timed().iter().map(|j| j.tune_s).sum();
    let tune_work = (s.tune.len() * TrainConfig::default().epochs * traced.timed().len()) as f64;
    out.metric("core.trainer.lora_plans_per_s", tune_work / tune_s);
    out.metric("core.trainer.tuned_qerr_p50", percentile_of(tuned, 50.0));
    let overhead = 1.0 - traced.rate(s) / untraced.rate(s);
    out.metric("trace.overhead_share", overhead);
    out.notes.push(format!(
        "train tracing overhead: fit {:.0} plans x epochs/s untraced vs {:.0} traced ({:+.1}%)",
        untraced.rate(s),
        traced.rate(s),
        -100.0 * overhead
    ));
    let recorders: Vec<Recorder> = traced.recorder.into_iter().collect();
    out.write_trace("train", &recorders);
    out
}
