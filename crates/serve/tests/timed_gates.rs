//! Wall-clock gates: properties that only show up as timing under real
//! concurrent load. Per-tenant latency fairness under weighted-fair
//! queueing, per-shard completion parity under work-stealing, the
//! throughput cost of the introspection endpoint, and 1→4-shard scaling.
//!
//! Each test takes [`WALL_CLOCK`] for its whole run, so the gates never
//! share the machine's cores with each other.

mod common;

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use dace_plan::PlanTree;
use dace_serve::{DaceServer, FaultConfig, HealthConfig, ModelRegistry, ServeConfig};

static WALL_CLOCK: Mutex<()> = Mutex::new(());

/// Seed of every gate's fault plan (the injected forward delays).
const SEED: u64 = 0xC4A05;

fn exclusive() -> MutexGuard<'static, ()> {
    WALL_CLOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One trained registry (base model plus the `"tenant"` adapter) and a
/// 32-plan pool, shared by every gate.
fn fixture() -> &'static (Arc<ModelRegistry>, Vec<PlanTree>) {
    static FIXTURE: OnceLock<(Arc<ModelRegistry>, Vec<PlanTree>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (est, train) = common::quick_estimator(0xC4);
        let registry = common::registry_with_tenant_adapter(est, &train);
        let mut pool = common::trees(&train);
        pool.truncate(32);
        (Arc::new(registry), pool)
    })
}

/// Every forward sleeps `delay`, so service time dwarfs scheduling jitter.
fn delayed_forwards(delay: Duration) -> FaultConfig {
    FaultConfig {
        seed: SEED,
        stage_delay_ppm: 1_000_000,
        stage_delay: delay,
        ..FaultConfig::disabled()
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// max/min of a set of positive counts or latencies (∞ when the minimum is
/// zero).
fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(0.0, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    if min > 0.0 {
        max / min
    } else {
        f64::INFINITY
    }
}

/// 8 clients × 300 requests over 64 equal-weight tenants with Zipf(1)
/// popularity, 1 ms forwards on 2 shards: among tenants with at least 24
/// answers, per-tenant p99 latency stays within 3× of each other.
#[test]
fn equal_weight_tenants_see_p99_within_three_x() {
    let _clock = exclusive();
    let (registry, pool) = fixture();
    let (tenants, clients, per_client, floor) = (64usize, 8usize, 300usize, 24usize);
    let names: Vec<String> = (0..tenants).map(|i| format!("z{i:04}")).collect();
    let cum: Vec<f64> = (0..tenants)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / (r + 1) as f64;
            Some(*acc)
        })
        .collect();
    let server = DaceServer::new(
        Arc::clone(registry),
        ServeConfig {
            shards: 2,
            workers: 2,
            max_batch: 8,
            min_fill: 1,
            max_wait: Duration::from_micros(100),
            faults: delayed_forwards(Duration::from_millis(1)),
            ..ServeConfig::default()
        },
    );
    let mut per_tenant: Vec<Vec<f64>> = vec![Vec::new(); tenants];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (server, names, cum) = (&server, &names, &cum);
                s.spawn(move || {
                    let mut rng = SEED ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64 + 1);
                    let mass = cum[cum.len() - 1];
                    let mut local = Vec::with_capacity(per_client);
                    for _ in 0..per_client {
                        let u = xorshift(&mut rng) as f64 / u64::MAX as f64 * mass;
                        let t = cum.partition_point(|&m| m < u).min(names.len() - 1);
                        let plan = &pool[(xorshift(&mut rng) % pool.len() as u64) as usize];
                        let t0 = Instant::now();
                        if server.predict_for(&names[t], plan).is_ok() {
                            local.push((t, t0.elapsed().as_secs_f64() * 1e6));
                        }
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (t, us) in h.join().expect("fairness client") {
                per_tenant[t].push(us);
            }
        }
    });
    server.shutdown();
    let p99s: Vec<f64> = per_tenant
        .iter_mut()
        .filter(|v| v.len() >= floor)
        .filter_map(|v| dace_core::quantile(v, 0.99))
        .collect();
    assert!(
        p99s.len() >= 2,
        "only {} tenants crossed the {floor}-answer floor",
        p99s.len()
    );
    let p99_spread = spread(&p99s);
    println!(
        "per-tenant p99 spread {p99_spread:.3} over {} tenants",
        p99s.len()
    );
    assert!(
        p99_spread <= 3.0,
        "per-tenant p99 spread {p99_spread:.2}× over the 3× gate: {p99s:?}"
    );
}

/// 240 uniform requests on 4 shards with 200 µs forwards and aggressive
/// stealing: lighter shards steal from heavier ones until per-shard
/// completions level to max/min ≤ 1.25, whatever skew the affinity route
/// left.
#[test]
fn saturated_shards_complete_within_parity() {
    let _clock = exclusive();
    let (registry, pool) = fixture();
    let server = DaceServer::new(
        Arc::clone(registry),
        ServeConfig {
            shards: 4,
            workers: 4,
            steal_threshold: 1,
            steal_max: 2,
            max_batch: 1,
            queue_depth: 8192,
            faults: delayed_forwards(Duration::from_micros(200)),
            ..ServeConfig::default()
        },
    );
    let handles: Vec<_> = (0..240)
        .map(|r| server.submit(&pool[r % pool.len()], None, None).unwrap())
        .collect();
    for h in handles {
        h.wait().expect("parity pass answers everything");
    }
    let snaps = server.shard_snapshot();
    server.shutdown();
    let completed: Vec<f64> = snaps.iter().map(|s| s.completed as f64).collect();
    let parity = spread(&completed);
    println!("per-shard completions {completed:?}, parity {parity:.3}");
    assert!(
        parity <= 1.25,
        "per-shard parity {parity:.3} over the 1.25 gate: {snaps:?}"
    );
}

/// An enabled introspection endpoint with a durable journal costs at most
/// 3% of closed-loop throughput: 2 clients × 1500 requests, one discarded
/// warmup, then the best of five interleaved runs on each side.
#[test]
fn introspection_costs_at_most_three_percent_throughput() {
    let _clock = exclusive();
    let (registry, pool) = fixture();
    let dir = std::env::temp_dir().join(format!("dace-timed-gates-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |introspect: bool| {
        let server = if introspect {
            let server = DaceServer::with_health(
                Arc::clone(registry),
                ServeConfig {
                    introspect_addr: Some("127.0.0.1:0".parse().unwrap()),
                    ..ServeConfig::default()
                },
                None,
                HealthConfig {
                    journal_path: Some(dir.join("journal.jsonl")),
                    ..HealthConfig::default()
                },
            );
            assert!(server.introspect_addr().is_some(), "endpoint did not bind");
            server
        } else {
            DaceServer::new(Arc::clone(registry), ServeConfig::default())
        };
        let run = common::closed_loop(&server, pool, 2, 1_500);
        server.shutdown();
        run.answered as f64 / run.secs
    };
    run(false); // warmup: caches, allocator, pages
    let (mut best_off, mut best_on) = (0.0f64, 0.0f64);
    for _ in 0..5 {
        best_off = best_off.max(run(false));
        best_on = best_on.max(run(true));
    }
    std::fs::remove_dir_all(&dir).ok();
    let ratio = best_on / best_off;
    println!("introspection on/off throughput {best_on:.0}/{best_off:.0} = {ratio:.3}");
    assert!(
        ratio >= 0.97,
        "introspection-enabled throughput {ratio:.3}× of baseline (gate ≥ 0.97)"
    );
}

/// Closed-loop throughput (8 clients × 20 requests) grows at least 3× from
/// 1 to 4 core-pinned shards. Only meaningful with a core per shard, so it
/// checks nothing on smaller machines.
#[test]
fn four_shards_scale_at_least_three_x_given_four_cores() {
    let _clock = exclusive();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        println!("{cores} core(s): 1→4 shard scaling gate not armed");
        return;
    }
    let (registry, pool) = fixture();
    let rate = |n: usize| {
        let server = DaceServer::new(
            Arc::clone(registry),
            ServeConfig {
                shards: n,
                workers: n,
                pin_cores: cores >= n,
                ..ServeConfig::default()
            },
        );
        let run = common::closed_loop(&server, pool, 8, 20);
        server.shutdown();
        run.answered as f64 / run.secs
    };
    let curve: Vec<f64> = [1, 2, 4].into_iter().map(rate).collect();
    let scaling = curve[2] / curve[0];
    println!("closed-loop req/s at 1/2/4 shards: {curve:?} ({scaling:.2}×)");
    assert!(
        scaling >= 3.0,
        "1→4 shard scaling {scaling:.2}× below 3× on {cores} cores"
    );
}
