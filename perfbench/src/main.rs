//! The DACE benchmark: seeded workloads against the public APIs of
//! `dace-serve`, `dace-engine::search` and `dace-core`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve|plan_search|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the same
//! workload with benchmark-side spans and prints every per-layer metric
//! (layers a workload does not reach report 0). The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Any failed output check makes the exit code 1.

mod data;
mod search;
mod serve;
mod stats;
mod trace;
mod train;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// A byte-counting wrapper around the system allocator (gross bytes
/// requested; frees are not subtracted).
mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static BYTES: AtomicU64 = AtomicU64::new(0);

    pub struct CountingAlloc;

    // SAFETY: every method forwards to `System` with the caller's arguments
    // unchanged; the counter is a statistic that publishes no other data.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            if new_size > layout.size() {
                BYTES.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
            }
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
    }

    /// Gross bytes allocated so far, process-wide.
    pub fn bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// End-to-end metrics (name, unit): every workload reports all of them, each
/// for its own operation. Mirrors `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("quality", "ratio"),
    ("quality_tail", "ratio"),
];

/// Per-layer metrics (name, unit) of the traced run. Mirrors
/// `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("serve.admission.p50_us", "us"),
    ("serve.admission.p99_us", "us"),
    ("serve.queue.wait_p50_us", "us"),
    ("serve.queue.wait_p99_us", "us"),
    ("serve.batch.size_mean", "plans"),
    ("serve.batch.count", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookup_us", "us"),
    ("core.featurize.us_per_miss", "us"),
    ("core.model.attention_us_per_plan", "us"),
    ("core.model.mlp_us_per_plan", "us"),
    ("serve.e2e_band_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.residual_share", "ratio"),
    ("serve.alloc_bytes_per_req", "bytes"),
    ("serve.open.p50_us", "us"),
    ("serve.open.p99_us", "us"),
    ("serve.open.max_rps", "1/s"),
    ("serve.open.gen_late_p99_us", "us"),
    ("core.model.single_us", "us"),
    ("core.model.packed32_us_per_plan", "us"),
    ("core.quantized.single_us", "us"),
    ("engine.search.enumerate_us_per_query", "us"),
    ("engine.search.score_us_per_query", "us"),
    ("engine.search.candidates_per_query", "count"),
    ("engine.search.batches_per_query", "count"),
    ("engine.search.memo_hit_ratio", "ratio"),
    ("engine.search.dedup_hits", "count"),
    ("core.scoring.plans_per_batch", "plans"),
    ("core.scoring.overhead_us", "us"),
    ("core.trainer.epoch_ms_p50", "ms"),
    ("core.trainer.lora_epoch_ms_p50", "ms"),
    ("core.trainer.outside_epochs_ms", "ms"),
    ("core.trainer.epochs_run", "count"),
    ("core.trainer.alloc_bytes_per_epoch", "bytes"),
    ("core.trainer.lora_plans_per_s", "1/s"),
    ("core.trainer.tuned_qerr_p50", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("setup.count", "count"),
    ("setup.max_s", "s"),
    ("setup.min_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Failed operations listed by name per run (all of them are counted).
pub const MAX_LISTED: usize = 8;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why checks failed: the first few failed operations and every failed
    /// run-level check.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one failed operation, listing the first few.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < MAX_LISTED {
            self.problems.push(why);
        }
    }

    pub fn write_trace(&mut self, workload: &str, recorders: &[trace::Recorder]) {
        match trace::write(workload, recorders) {
            Ok((path, n)) => {
                self.metric("trace.spans", n as f64);
                self.notes
                    .push(format!("{workload}: wrote {n} spans to {}", path.display()));
            }
            Err(e) => self
                .problems
                .push(format!("{workload}: writing spans: {e}")),
        }
    }
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => run.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--workload" => workload = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(run.seconds > 0.0 && run.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

/// Set up `SETUPS` times (dropping each state before the next) and keep the
/// last state; returns it with every set-up time in seconds.
fn set_up<S>(f: impl Fn() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up"), times)
}

fn run_workload(name: &str, args: &RunArgs) -> Option<(Outcome, Vec<f64>)> {
    let seed = args.seed;
    Some(match name {
        "serve" => {
            let (s, t) = set_up(|| serve::setup(seed));
            (serve::run(&s, args), t)
        }
        "plan_search" => {
            let (s, t) = set_up(|| search::setup(seed));
            (search::run(&s, args), t)
        }
        "train" => {
            let (s, t) = set_up(|| train::setup(seed));
            (train::run(&s, args), t)
        }
        _ => return None,
    })
}

/// Peak resident set size (VmHWM) in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <serve|plan_search|train> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // The trainer samples this around each epoch's batch loop when a run
    // sink is attached (the traced `train` run).
    dace_obs::set_alloc_probe(alloc::bytes);
    let Some((mut out, setups)) = run_workload(&workload, &args) else {
        eprintln!("perfbench: unknown workload {workload:?} (serve, plan_search, train)");
        return ExitCode::from(2);
    };
    let setup_s = stats::median(&setups);
    let table: &[(&str, &str)] = if args.trace {
        out.metric("setup.count", setups.len() as f64);
        out.metric("setup.max_s", setups.iter().copied().fold(0.0, f64::max));
        out.metric(
            "setup.min_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        );
        &PER_LAYER
    } else {
        out.metric("setup_s", setup_s);
        match peak_rss_mb() {
            Some(mb) => out.metric("peak_rss_mb", mb),
            None => out
                .problems
                .push("peak RSS unavailable (no /proc/self/status)".into()),
        }
        &END_TO_END
    };
    for note in &out.notes {
        println!("{note}");
    }
    println!("{workload}: set-ups {setups:.3?} s (median {setup_s:.3} s)");
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        // Per-layer metrics of layers this workload never reaches are 0;
        // a missing end-to-end metric is a bug.
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                out.problems.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        let value = if value.is_finite() {
            value
        } else {
            out.problems.push(format!("metric {name} is not finite"));
            0.0
        };
        println!("{workload}: {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for p in &out.problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and the manifest at the repository root must
    /// name the same metrics with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = manifest.matches("\"name\":").count();
        // Three workloads plus every metric.
        assert_eq!(declared, 3 + END_TO_END.len() + PER_LAYER.len());
    }
}
