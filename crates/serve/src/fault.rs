//! Deterministic, seeded fault injection for the serve path.
//!
//! Chaos testing is only useful when a failing run can be replayed: every
//! injection decision here is a pure function of `(seed, site, roll index)`,
//! where the roll index is a per-site atomic counter. Thread interleaving
//! changes *which worker* observes a given fault, but never *how many*
//! faults fire over N rolls — so the chaos tests assert exact-ish fault
//! counts and replay the same fault plan every run.
//!
//! The injector is compiled in unconditionally (no feature flags — the
//! whole point is that the shipped binary is the tested binary) and costs
//! one relaxed atomic load per site when disabled. Probabilities are
//! integer parts-per-million so [`FaultConfig`] stays `Copy + Eq` inside
//! `ServeConfig`.
//!
//! Injected panics carry the [`INJECTED_PANIC`] marker and are silenced
//! from stderr by a process-wide panic-hook wrapper (installed once, only
//! when an injector with live faults is built) so a chaos run's output is
//! its report, not thousands of backtraces. Real panics still print.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

use dace_obs::splitmix64;

/// Marker prefix carried by every injected panic's payload; the quiet
/// panic hook and the supervisor's accounting both key off it.
pub const INJECTED_PANIC: &str = "injected fault";

/// The places the injector can fire, in roll-counter order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic a worker at the top of its drain loop (no request held), after
    /// it acquired the queue lock — poisons the mutex and kills the thread,
    /// exercising poison recovery and the supervisor respawn path.
    WorkerKill = 0,
    /// Panic inside a group's forward path — caught per group; with a
    /// fallback configured the group is answered degraded.
    BatchPanic = 1,
    /// Extra latency injected into a group's processing stage.
    StageDelay = 2,
    /// Extra latency injected while *holding the queue lock* — every worker
    /// stalls behind it.
    QueueStall = 3,
    /// Corrupt checkpoint bytes before a reload (driven by the test
    /// checkpointer, not the scheduler).
    CheckpointCorrupt = 4,
    /// Panic the background retrain thread mid-fine-tune (after it has
    /// drained feedback, before the candidate exists) — the adaptive
    /// controller must recover its in-flight latch and the serving model
    /// must be untouched.
    RetrainCrash = 5,
    /// Corrupt a retrained candidate's weights before shadow evaluation —
    /// shadow eval must catch the regression and roll back to last-good.
    CandidateSabotage = 6,
    /// Corrupt a tenant adapter checkpoint as the background pager loads it
    /// — the load must fail typed, the tenant must keep serving zero-shot
    /// from the base model, and a later retry must succeed once the fault
    /// plan quiets. Rolled once per background load by the adapter pager.
    AdapterLoadCorrupt = 7,
}

const SITE_COUNT: usize = 8;

/// Per-site salts so the same seed yields independent decision streams.
const SITE_SALT: [u64; SITE_COUNT] = [
    0x9a2e_71ff_0cd1_5b07,
    0x517c_c1b7_2722_0a95,
    0xd1b5_4a32_d192_ed03,
    0x2b99_2ddf_a232_49d6,
    0x8163_52a1_88cf_9b61,
    0x6c62_272e_07bb_0142,
    0x3c79_ac49_2ba7_b653,
    0x46d8_35a1_97b0_c2f9,
];

/// Fault plan: probabilities in parts-per-million per roll, plus the
/// injected delay magnitudes. All-integer (+`Duration`) so it stays
/// `Copy + Eq` as a `ServeConfig` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Seed for the decision stream; same seed + same roll counts = same
    /// fault plan.
    pub seed: u64,
    /// Worker-kill probability per drain (ppm).
    pub worker_kill_ppm: u32,
    /// Forward-path panic probability per adapter group (ppm).
    pub batch_panic_ppm: u32,
    /// Stage-delay probability per adapter group (ppm).
    pub stage_delay_ppm: u32,
    /// How long an injected stage delay sleeps.
    pub stage_delay: Duration,
    /// Queue-stall probability per drain (ppm).
    pub queue_stall_ppm: u32,
    /// How long an injected queue stall holds the queue lock.
    pub queue_stall: Duration,
    /// Checkpoint-corruption probability per save/load cycle (ppm); consumed
    /// by the test checkpointer via [`FaultInjector::should_fire`].
    pub checkpoint_corrupt_ppm: u32,
    /// Mid-retrain crash probability per background retrain (ppm); consumed
    /// by the adaptive controller's retrain thread.
    pub retrain_crash_ppm: u32,
    /// Candidate-sabotage probability per retrained candidate (ppm);
    /// corrupts the candidate before shadow eval so rollback must fire.
    pub sabotage_ppm: u32,
    /// Adapter-load corruption probability per background page-in (ppm);
    /// consumed by the adapter pager's loader thread.
    pub adapter_load_corrupt_ppm: u32,
}

impl FaultConfig {
    /// The all-zero plan: every site disabled.
    pub const fn disabled() -> FaultConfig {
        FaultConfig {
            seed: 0,
            worker_kill_ppm: 0,
            batch_panic_ppm: 0,
            stage_delay_ppm: 0,
            stage_delay: Duration::from_micros(0),
            queue_stall_ppm: 0,
            queue_stall: Duration::from_micros(0),
            checkpoint_corrupt_ppm: 0,
            retrain_crash_ppm: 0,
            sabotage_ppm: 0,
            adapter_load_corrupt_ppm: 0,
        }
    }

    /// True when no site can ever fire.
    pub fn is_noop(&self) -> bool {
        self.worker_kill_ppm == 0
            && self.batch_panic_ppm == 0
            && self.stage_delay_ppm == 0
            && self.queue_stall_ppm == 0
            && self.checkpoint_corrupt_ppm == 0
            && self.retrain_crash_ppm == 0
            && self.sabotage_ppm == 0
            && self.adapter_load_corrupt_ppm == 0
    }

    fn ppm(&self, site: FaultSite) -> u32 {
        match site {
            FaultSite::WorkerKill => self.worker_kill_ppm,
            FaultSite::BatchPanic => self.batch_panic_ppm,
            FaultSite::StageDelay => self.stage_delay_ppm,
            FaultSite::QueueStall => self.queue_stall_ppm,
            FaultSite::CheckpointCorrupt => self.checkpoint_corrupt_ppm,
            FaultSite::RetrainCrash => self.retrain_crash_ppm,
            FaultSite::CandidateSabotage => self.sabotage_ppm,
            FaultSite::AdapterLoadCorrupt => self.adapter_load_corrupt_ppm,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// The seeded injector: one roll counter and one fire counter per site.
///
/// `enabled` is a runtime toggle (default: on iff the plan is not a no-op)
/// so recovery tests can stop the fault storm mid-run — via
/// [`DaceServer::fault_injector`](crate::DaceServer::fault_injector) — and
/// watch the circuit breaker close again.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    enabled: AtomicBool,
    rolls: [AtomicU64; SITE_COUNT],
    fires: [AtomicU64; SITE_COUNT],
}

impl FaultInjector {
    /// Build an injector for `config`; enabled iff the plan can fire at all.
    /// Building a live injector installs the quiet panic hook for injected
    /// panics (once per process).
    pub fn new(config: FaultConfig) -> FaultInjector {
        if !config.is_noop() {
            silence_injected_panics();
        }
        FaultInjector {
            config,
            enabled: AtomicBool::new(!config.is_noop()),
            rolls: Default::default(),
            fires: Default::default(),
        }
    }

    /// The fault plan this injector rolls against.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Runtime kill switch: a disabled injector never fires (rolls are not
    /// consumed either, preserving determinism across a disable/enable).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Release);
    }

    /// Whether the injector is currently live.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Roll for `site`: deterministically true for the fraction of rolls the
    /// plan configures. Each call consumes one roll index.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        let ppm = self.config.ppm(site);
        if ppm == 0 {
            return false;
        }
        let k = self.rolls[site as usize].fetch_add(1, Ordering::Relaxed);
        // splitmix64: a cheap, well-mixed hash of the roll identity.
        let h = splitmix64(self.config.seed ^ SITE_SALT[site as usize] ^ splitmix64(k));
        let fire = h % 1_000_000 < u64::from(ppm);
        if fire {
            self.fires[site as usize].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Injected latency for a processing stage, if this roll fires.
    pub fn stage_delay(&self) -> Option<Duration> {
        self.should_fire(FaultSite::StageDelay)
            .then_some(self.config.stage_delay)
    }

    /// Injected latency under the queue lock, if this roll fires.
    pub fn queue_stall(&self) -> Option<Duration> {
        self.should_fire(FaultSite::QueueStall)
            .then_some(self.config.queue_stall)
    }

    /// Rolls consumed at `site` so far.
    pub fn rolls(&self, site: FaultSite) -> u64 {
        self.rolls[site as usize].load(Ordering::Relaxed)
    }

    /// Faults fired at `site` so far.
    pub fn fires(&self, site: FaultSite) -> u64 {
        self.fires[site as usize].load(Ordering::Relaxed)
    }
}

/// Install (once per process) a panic-hook wrapper that suppresses the
/// default backtrace spew for panics whose payload carries
/// [`INJECTED_PANIC`]. All other panics reach the previous hook untouched.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains(INJECTED_PANIC))
                .or_else(|| {
                    info.payload()
                        .downcast_ref::<String>()
                        .map(|s| s.contains(INJECTED_PANIC))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            worker_kill_ppm: 100_000, // 10%
            batch_panic_ppm: 500_000, // 50%
            ..FaultConfig::disabled()
        }
    }

    #[test]
    fn noop_plan_never_fires_and_consumes_no_rolls() {
        let inj = FaultInjector::new(FaultConfig::disabled());
        assert!(!inj.enabled());
        for _ in 0..100 {
            assert!(!inj.should_fire(FaultSite::WorkerKill));
        }
        assert_eq!(inj.rolls(FaultSite::WorkerKill), 0);
    }

    #[test]
    fn same_seed_same_fault_plan() {
        let a = FaultInjector::new(plan(42));
        let b = FaultInjector::new(plan(42));
        let fa: Vec<bool> = (0..2000)
            .map(|_| a.should_fire(FaultSite::WorkerKill))
            .collect();
        let fb: Vec<bool> = (0..2000)
            .map(|_| b.should_fire(FaultSite::WorkerKill))
            .collect();
        assert_eq!(fa, fb);
        assert_eq!(
            a.fires(FaultSite::WorkerKill),
            b.fires(FaultSite::WorkerKill)
        );
        // Different seed: a different plan (overwhelmingly likely at n=2000).
        let c = FaultInjector::new(plan(43));
        let fc: Vec<bool> = (0..2000)
            .map(|_| c.should_fire(FaultSite::WorkerKill))
            .collect();
        assert_ne!(fa, fc);
    }

    #[test]
    fn fire_rate_tracks_configured_ppm() {
        let inj = FaultInjector::new(plan(7));
        for _ in 0..20_000 {
            inj.should_fire(FaultSite::BatchPanic);
        }
        let rate = inj.fires(FaultSite::BatchPanic) as f64 / 20_000.0;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn sites_roll_independent_streams() {
        let inj = FaultInjector::new(plan(7));
        for _ in 0..1000 {
            inj.should_fire(FaultSite::WorkerKill);
        }
        assert_eq!(inj.rolls(FaultSite::BatchPanic), 0);
        assert_eq!(inj.rolls(FaultSite::WorkerKill), 1000);
    }

    #[test]
    fn disable_stops_fires_without_consuming_rolls() {
        let inj = FaultInjector::new(plan(7));
        for _ in 0..100 {
            inj.should_fire(FaultSite::WorkerKill);
        }
        let rolls = inj.rolls(FaultSite::WorkerKill);
        inj.set_enabled(false);
        for _ in 0..100 {
            assert!(!inj.should_fire(FaultSite::WorkerKill));
        }
        assert_eq!(inj.rolls(FaultSite::WorkerKill), rolls);
        // Re-enabling resumes the same decision stream where it left off.
        inj.set_enabled(true);
        let cont: Vec<bool> = (0..100)
            .map(|_| inj.should_fire(FaultSite::WorkerKill))
            .collect();
        let replay = FaultInjector::new(plan(7));
        let full: Vec<bool> = (0..200)
            .map(|_| replay.should_fire(FaultSite::WorkerKill))
            .collect();
        assert_eq!(cont[..], full[100..]);
    }
}
