//! Hot-swappable model registry: the pretrained base model plus named
//! per-database LoRA adapters, swappable under live traffic with **zero
//! locks on the read path**.
//!
//! The swap cell is an `arc-swap`-style atomic pointer hand-rolled on safe
//! primitives: published versions live in an append-only slot table
//! (`OnceLock<Arc<ModelVersion>>` entries) and a `latest` atomic index
//! points at the newest one. Readers do one `Acquire` load plus one `Arc`
//! clone — no locks, no spinning, and no reclamation problem because a slot,
//! once set, is immutable; the `Arc` in it is freed when the cell drops and
//! every in-flight reader releases its clone. Writers append with a
//! `fetch_add` slot claim and publish with `fetch_max` (Release), so `latest`
//! is monotone even under racing writers and can never expose an unset slot.
//!
//! The cost of this safety is a bounded version history per cell
//! ([`RegistryConfig::versions_per_slot`], default 1024 swaps) and ~1 MB of
//! retained memory per published version — models are tiny (Table II:
//! 0.06 MB) so retaining every version until the cell drops is cheaper than
//! any reclamation scheme that would need `unsafe`.
//!
//! **Semantics:** a published version is an immutable snapshot — installing
//! an adapter materializes `base + ΔW` *at install time*. A later
//! [`ModelRegistry::swap_base`] does not rebuild existing adapter versions;
//! re-install an adapter to rebase it. Every response carries the version id
//! that served it, so clients can always tell which snapshot answered.

use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use dace_core::{AdapterError, CheckpointError, DaceEstimator, LoraAdapter};

/// One immutable published model snapshot.
#[derive(Debug)]
pub struct ModelVersion {
    /// The inference-only estimator (optimizer state detached).
    pub estimator: DaceEstimator,
    /// Registry-global monotone version id; recorded on every response
    /// served by this snapshot.
    pub version: u64,
    /// Adapter name, or `None` for the base model.
    pub adapter: Option<String>,
}

impl ModelVersion {
    /// The single construction path for published snapshots: detaches the
    /// estimator for serving (optimizer state dropped).
    pub fn new(est: DaceEstimator, version: u64, adapter: Option<String>) -> ModelVersion {
        ModelVersion {
            estimator: est.serving_clone(),
            version,
            adapter,
        }
    }
}

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No adapter registered under this name.
    UnknownAdapter(String),
    /// The cell's append-only version table is full; raise
    /// `versions_per_slot`.
    VersionCapacityExhausted,
    /// The adapter name table is full; raise `max_adapters`.
    AdapterCapacityExhausted,
    /// The adapter's weights do not fit the current base model.
    Incompatible(AdapterError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownAdapter(n) => write!(f, "unknown adapter {n:?}"),
            RegistryError::VersionCapacityExhausted => {
                write!(f, "version table full (raise versions_per_slot)")
            }
            RegistryError::AdapterCapacityExhausted => {
                write!(f, "adapter table full (raise max_adapters)")
            }
            RegistryError::Incompatible(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Why a checkpoint-driven base reload failed. In either case the registry
/// is untouched: the last good version keeps serving.
#[derive(Debug)]
pub enum ReloadError {
    /// The checkpoint file was missing, torn, corrupt, or unparseable
    /// (typed detail inside — this is the path a crashed writer or bit rot
    /// lands on).
    Checkpoint(CheckpointError),
    /// The checkpoint was valid but the registry refused the swap (version
    /// table full).
    Registry(RegistryError),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            ReloadError::Registry(e) => write!(f, "registry refused reload: {e}"),
        }
    }
}

impl std::error::Error for ReloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReloadError::Checkpoint(e) => Some(e),
            ReloadError::Registry(e) => Some(e),
        }
    }
}

/// Capacity knobs for [`ModelRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Distinct adapter names the registry can hold.
    pub max_adapters: usize,
    /// Hot swaps each cell (base or one adapter) can absorb over the
    /// registry's lifetime.
    pub versions_per_slot: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_adapters: 64,
            versions_per_slot: 1024,
        }
    }
}

/// The lock-free swap cell: append-only slot table + monotone latest index.
#[derive(Debug)]
struct VersionCell {
    slots: Box<[OnceLock<Arc<ModelVersion>>]>,
    latest: AtomicUsize,
    next: AtomicUsize,
}

impl VersionCell {
    /// A cell with `first` already published at slot 0.
    fn new(capacity: usize, first: Arc<ModelVersion>) -> VersionCell {
        let slots: Box<[OnceLock<Arc<ModelVersion>>]> =
            (0..capacity.max(1)).map(|_| OnceLock::new()).collect();
        slots[0].set(first).expect("fresh cell");
        VersionCell {
            slots,
            latest: AtomicUsize::new(0),
            next: AtomicUsize::new(1),
        }
    }

    /// Publish a new version. Safe under racing writers: each claims its own
    /// slot, sets it, then advances `latest` monotonically (Release) so a
    /// reader that observes the index also observes the slot contents.
    fn publish(&self, v: Arc<ModelVersion>) -> Result<(), RegistryError> {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.slots.len() {
            return Err(RegistryError::VersionCapacityExhausted);
        }
        self.slots[idx].set(v).expect("slot claimed exclusively");
        self.latest.fetch_max(idx, Ordering::Release);
        Ok(())
    }

    /// The newest published version: one Acquire load + one Arc clone.
    fn load(&self) -> Arc<ModelVersion> {
        let idx = self.latest.load(Ordering::Acquire);
        self.slots[idx]
            .get()
            .expect("latest always points at a set slot")
            .clone()
    }
}

/// The serving model registry: one base-model cell plus a lock-free
/// append-only table of named adapter cells.
///
/// The read path ([`ModelRegistry::resolve`]) takes no locks anywhere:
/// adapter lookup is a linear scan over `OnceLock` name slots (registries
/// hold tens of adapters, and the scan touches only published entries), and
/// the cell load is an atomic index read. Registration and swapping are
/// control-path operations serialized by a mutex.
#[derive(Debug)]
pub struct ModelRegistry {
    base: VersionCell,
    adapters: Box<[OnceLock<(String, VersionCell)>]>,
    adapter_len: AtomicUsize,
    /// Serializes registration/installation (not resolution).
    install_lock: Mutex<()>,
    version_counter: AtomicU64,
    config: RegistryConfig,
}

impl ModelRegistry {
    /// Registry serving `base` as version 0, with default capacities.
    pub fn new(base: DaceEstimator) -> ModelRegistry {
        ModelRegistry::with_config(base, RegistryConfig::default())
    }

    /// Registry with explicit capacity knobs.
    pub fn with_config(base: DaceEstimator, config: RegistryConfig) -> ModelRegistry {
        let first = Arc::new(ModelVersion::new(base, 0, None));
        ModelRegistry {
            base: VersionCell::new(config.versions_per_slot, first),
            adapters: (0..config.max_adapters).map(|_| OnceLock::new()).collect(),
            adapter_len: AtomicUsize::new(0),
            install_lock: Mutex::new(()),
            version_counter: AtomicU64::new(1),
            config,
        }
    }

    fn next_version(&self) -> u64 {
        self.version_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Reserve a version number for a snapshot published outside the
    /// registry's own install paths (the adapter pager builds
    /// `ModelVersion`s from paged-in checkpoints but shares this counter
    /// so version numbers stay globally unique and monotone).
    pub(crate) fn allocate_version(&self) -> u64 {
        self.next_version()
    }

    /// Lock-free lookup of an adapter's cell.
    fn find(&self, name: &str) -> Option<&VersionCell> {
        let len = self.adapter_len.load(Ordering::Acquire);
        self.adapters[..len].iter().find_map(|slot| {
            let (n, cell) = slot.get()?;
            (n == name).then_some(cell)
        })
    }

    /// Resolve a request's model: the named adapter's newest version, or the
    /// newest base version when `name` is `None`. Zero locks.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<ModelVersion>, RegistryError> {
        match name {
            None => Ok(self.base.load()),
            Some(n) => self
                .find(n)
                .map(VersionCell::load)
                .ok_or_else(|| RegistryError::UnknownAdapter(n.to_string())),
        }
    }

    /// The newest base-model version.
    pub fn base(&self) -> Arc<ModelVersion> {
        self.base.load()
    }

    /// Hot-swap the base model under live traffic. In-flight batches keep
    /// the version they resolved; new resolutions see the new base. Existing
    /// adapter versions are *not* rebased (see module docs).
    pub fn swap_base(&self, est: DaceEstimator) -> Result<u64, RegistryError> {
        // Poison-recovering: the guarded section only appends immutable
        // snapshots, so a panicking installer cannot leave partial state —
        // later installers may proceed.
        let _g = self
            .install_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let version = self.next_version();
        self.base
            .publish(Arc::new(ModelVersion::new(est, version, None)))?;
        Ok(version)
    }

    /// Install `fine_tune_lora` output for a database: materializes
    /// `current base + adapter` and publishes it under `name` (creating the
    /// name on first install, hot-swapping afterwards). Returns the new
    /// version id.
    pub fn install_adapter(&self, name: &str, adapter: &LoraAdapter) -> Result<u64, RegistryError> {
        let est = self
            .base
            .load()
            .estimator
            .with_adapter(adapter)
            .map_err(RegistryError::Incompatible)?;
        self.install_estimator(name, est)
    }

    /// Publish a full estimator under an adapter name (the escape hatch for
    /// adapters fine-tuned elsewhere against a matching base).
    pub fn install_estimator(&self, name: &str, est: DaceEstimator) -> Result<u64, RegistryError> {
        let _g = self
            .install_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let version = self.next_version();
        let snapshot = Arc::new(ModelVersion::new(est, version, Some(name.to_string())));
        if let Some(cell) = self.find(name) {
            cell.publish(snapshot)?;
            return Ok(version);
        }
        // First install under this name: claim the next table slot. The
        // install lock serializes writers; `adapter_len` publishes with
        // Release so lock-free readers observe the filled slot.
        let len = self.adapter_len.load(Ordering::Relaxed);
        if len >= self.adapters.len() {
            return Err(RegistryError::AdapterCapacityExhausted);
        }
        self.adapters[len]
            .set((
                name.to_string(),
                VersionCell::new(self.config.versions_per_slot, snapshot),
            ))
            .unwrap_or_else(|_| unreachable!("slot claimed under install lock"));
        self.adapter_len.store(len + 1, Ordering::Release);
        Ok(version)
    }

    /// Hot-swap the base model from an on-disk checkpoint written by
    /// [`dace_core::save_checkpoint`]. The crash-safety contract lives
    /// here: a torn, truncated, bit-flipped or unparseable file returns a
    /// typed [`ReloadError`] and the registry **keeps serving the last
    /// good version** — a corrupt checkpoint degrades a reload into a
    /// no-op, never into an outage or a silently-wrong model.
    pub fn swap_base_from_checkpoint(&self, path: &Path) -> Result<u64, ReloadError> {
        let est = dace_core::load_checkpoint(path).map_err(ReloadError::Checkpoint)?;
        self.swap_base(est).map_err(ReloadError::Registry)
    }

    /// Registered adapter names, in installation order.
    pub fn adapter_names(&self) -> Vec<String> {
        let len = self.adapter_len.load(Ordering::Acquire);
        self.adapters[..len]
            .iter()
            .filter_map(|s| s.get().map(|(n, _)| n.clone()))
            .collect()
    }

    /// Versions published so far (across base and all adapters).
    pub fn versions_published(&self) -> u64 {
        self.version_counter.load(Ordering::Relaxed)
    }
}
