//! The lifecycle event journal: a crash-safe, typed, append-only record of
//! every decision the serving estimator makes about itself.
//!
//! Counters say *how often* something happened; the journal says *what*
//! happened, *when*, and *why* — which model version was promoted, what
//! drift trip caused it, which worker was respawned, when the breaker
//! opened. Each entry is a [`JournalRecord`] carrying a monotone sequence
//! number, a wall-clock timestamp, the causal trace id of the request or
//! lineage that produced it, and a typed [`LifecycleEvent`].
//!
//! On-disk format: append-only JSONL with per-record framing borrowed from
//! the checkpoint discipline (`persist.rs`) —
//!
//! ```text
//! <len> <fnv 16 lowercase hex> <json>\n
//! ```
//!
//! where `len` is the JSON byte length and the FNV-1a64 checksum covers the
//! JSON bytes. Every append is flushed and fsynced (lifecycle events are
//! rare — a few dozen per run — so durability is cheap here). The reader
//! ([`decode_journal`]) validates each frame and **stops at the first
//! corrupt one**, returning the valid prefix: a torn tail from a crash
//! mid-append loses at most the record being written, never yields a
//! malformed or silently-wrong record, and never panics. [`EventJournal::open`]
//! truncates any torn tail it finds so the file heals on restart.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};

/// The frame checksum: the workspace's one FNV-1a64 ([`crate::fnv1a64`]),
/// the same function `dace_core`'s checkpoints use.
pub use crate::hash::fnv1a64 as journal_fnv1a64;

/// A typed lifecycle event. Struct variants serialize as
/// `{"VariantName": {fields...}}`, unit variants as `"VariantName"` — both
/// shapes are stable and asserted by CI's jq checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LifecycleEvent {
    /// The serving stack came up (journal head marker).
    ServerStarted {
        /// Worker threads in the pool.
        workers: u64,
        /// Base model version published at start.
        version: u64,
    },
    /// The drift detector's windowed q-error crossed its trip ratio.
    DriftTripped {
        /// Baseline q-error quantile the detector re-anchored to.
        baseline_q: f64,
        /// Current sliding-window q-error quantile that tripped.
        window_q: f64,
        /// Feedback samples observed when the trip fired.
        samples: u64,
    },
    /// A background retrain was spawned.
    RetrainStarted {
        /// Feedback samples drained into the retrain set.
        samples: u64,
    },
    /// The retrain could not produce a candidate (crash, empty window, …).
    RetrainFailed {
        /// Human-readable failure cause.
        reason: String,
    },
    /// A candidate trained but lost its shadow eval against the incumbent.
    RetrainRejected {
        /// Candidate's holdback q-error quantile.
        candidate_q: f64,
        /// Incumbent's holdback q-error quantile.
        current_q: f64,
    },
    /// A new model version was published to the registry.
    SwapPromoted {
        /// Version serving before the swap.
        from: u64,
        /// Version serving after the swap.
        to: u64,
        /// What initiated the retrain that won ("drift", "manual", …).
        trigger: String,
        /// Candidate's shadow-eval q-error quantile at promotion.
        shadow_p90: f64,
    },
    /// A promoted version survived its probation window.
    ProbationPassed {
        /// The version that passed.
        version: u64,
        /// Probation-window q-error quantile at the verdict.
        q_p90: f64,
    },
    /// Probation failed: the registry was rolled back to the last good
    /// version.
    RollbackFired {
        /// The version rolled back from.
        from: u64,
        /// The version restored.
        to: u64,
        /// Probation-window q-error quantile that failed.
        q_p90: f64,
        /// The limit it had to stay under.
        limit: f64,
    },
    /// The circuit breaker opened (model path failing; fallback serving).
    BreakerOpened {
        /// Observed failure percentage over the breaker window.
        error_percent: f64,
    },
    /// The breaker let a probe request through after its cooldown.
    BreakerHalfOpen,
    /// The breaker closed (model path healthy again).
    BreakerClosed,
    /// The supervisor replaced a dead worker thread.
    WorkerRespawned {
        /// Pool slot of the respawned worker.
        slot: u64,
        /// Consecutive respawns of this slot without a healthy interval.
        consecutive: u64,
    },
    /// A checkpoint failed validation and was rejected (corrupt or
    /// unparseable); the previous version kept serving.
    CheckpointRejected {
        /// The typed decode/reload error, stringified.
        reason: String,
    },
    /// A multi-window SLO burn-rate alert fired.
    Alert {
        /// Which SLO ("qerr_p90" or "deadline_miss").
        slo: String,
        /// Burn rate over the fast window.
        fast_burn: f64,
        /// Burn rate over the slow window.
        slow_burn: f64,
        /// The burn-rate threshold both windows exceeded.
        threshold: f64,
    },
    /// A diagnostic bundle (flight-recorder + journal tail) was written.
    BundleDumped {
        /// Directory the bundle landed in.
        dir: String,
        /// What triggered the dump ("breaker_open", "rollback", …).
        cause: String,
    },
    /// A tenant's adapter was paged in from its checkpoint and is now
    /// resident.
    AdapterLoaded {
        /// Tenant whose adapter loaded.
        tenant: String,
        /// Registry version id published for the paged-in snapshot.
        version: u64,
    },
    /// A resident tenant adapter was evicted by the hot-set LRU.
    AdapterEvicted {
        /// Tenant whose adapter was evicted.
        tenant: String,
        /// Adapters still resident after the eviction.
        resident: u64,
    },
    /// A tenant adapter checkpoint failed to load (missing, corrupt, or
    /// rejected by validation); the tenant keeps serving zero-shot from the
    /// base model.
    AdapterLoadFailed {
        /// Tenant whose load failed.
        tenant: String,
        /// The typed load error, stringified.
        reason: String,
    },
    /// A tenant's private circuit breaker opened: that tenant degrades to
    /// the fallback path while every other tenant keeps the model path.
    TenantBreakerOpened {
        /// The isolated tenant.
        tenant: String,
        /// Configured failure percentage the tenant's window crossed.
        error_percent: f64,
    },
    /// A tenant's private circuit breaker closed again.
    TenantBreakerClosed {
        /// The recovered tenant.
        tenant: String,
    },
}

impl LifecycleEvent {
    /// The variant name — the journal's grouping/audit key.
    pub fn kind(&self) -> &'static str {
        match self {
            LifecycleEvent::ServerStarted { .. } => "ServerStarted",
            LifecycleEvent::DriftTripped { .. } => "DriftTripped",
            LifecycleEvent::RetrainStarted { .. } => "RetrainStarted",
            LifecycleEvent::RetrainFailed { .. } => "RetrainFailed",
            LifecycleEvent::RetrainRejected { .. } => "RetrainRejected",
            LifecycleEvent::SwapPromoted { .. } => "SwapPromoted",
            LifecycleEvent::ProbationPassed { .. } => "ProbationPassed",
            LifecycleEvent::RollbackFired { .. } => "RollbackFired",
            LifecycleEvent::BreakerOpened { .. } => "BreakerOpened",
            LifecycleEvent::BreakerHalfOpen => "BreakerHalfOpen",
            LifecycleEvent::BreakerClosed => "BreakerClosed",
            LifecycleEvent::WorkerRespawned { .. } => "WorkerRespawned",
            LifecycleEvent::CheckpointRejected { .. } => "CheckpointRejected",
            LifecycleEvent::Alert { .. } => "Alert",
            LifecycleEvent::BundleDumped { .. } => "BundleDumped",
            LifecycleEvent::AdapterLoaded { .. } => "AdapterLoaded",
            LifecycleEvent::AdapterEvicted { .. } => "AdapterEvicted",
            LifecycleEvent::AdapterLoadFailed { .. } => "AdapterLoadFailed",
            LifecycleEvent::TenantBreakerOpened { .. } => "TenantBreakerOpened",
            LifecycleEvent::TenantBreakerClosed { .. } => "TenantBreakerClosed",
        }
    }
}

/// One journal entry: sequence, wall clock, causal trace, typed event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Monotone per-journal sequence number (0-based).
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch at append time.
    pub t_ms: u64,
    /// Causal trace id of the request/lineage that produced the event
    /// (0 when the event has no originating request).
    pub trace: u64,
    /// The event itself.
    pub event: LifecycleEvent,
}

/// How many records the in-memory tail retains for `/events` queries.
pub const DEFAULT_JOURNAL_TAIL: usize = 4096;

struct JournalInner {
    file: Option<File>,
    next_seq: u64,
    tail: VecDeque<JournalRecord>,
}

/// The crash-safe append-only lifecycle journal. Thread-safe: appends from
/// any thread serialize on an internal mutex (events are rare; this is
/// nowhere near a hot path).
pub struct EventJournal {
    inner: Mutex<JournalInner>,
    path: Option<PathBuf>,
    tail_capacity: usize,
}

impl std::fmt::Debug for EventJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventJournal")
            .field("path", &self.path)
            .field("tail_capacity", &self.tail_capacity)
            .finish_non_exhaustive()
    }
}

impl EventJournal {
    /// A journal with no backing file: events live only in the bounded
    /// in-memory tail. Used by tests and by servers run without a journal
    /// directory configured.
    pub fn in_memory() -> EventJournal {
        EventJournal {
            inner: Mutex::new(JournalInner {
                file: None,
                next_seq: 0,
                tail: VecDeque::new(),
            }),
            path: None,
            tail_capacity: DEFAULT_JOURNAL_TAIL,
        }
    }

    /// Open (or create) a journal file for appending. Any valid prefix
    /// already present is loaded into the tail and the sequence continues
    /// from it; a torn tail left by a crash is truncated away so the file
    /// heals.
    pub fn open(path: &Path) -> std::io::Result<EventJournal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid_len) = decode_journal(&bytes);
        if valid_len < bytes.len() {
            // Torn or corrupt tail: truncate to the valid prefix. Re-open
            // without append so set_len + seek behave predictably.
            drop(file);
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(valid_len as u64)?;
            f.sync_data()?;
            file = OpenOptions::new().read(true).append(true).open(path)?;
            file.seek(std::io::SeekFrom::End(0))?;
        }
        let next_seq = records.last().map_or(0, |r| r.seq + 1);
        let mut tail = VecDeque::new();
        for r in records
            .into_iter()
            .rev()
            .take(DEFAULT_JOURNAL_TAIL)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            tail.push_back(r);
        }
        Ok(EventJournal {
            inner: Mutex::new(JournalInner {
                file: Some(file),
                next_seq,
                tail,
            }),
            path: Some(path.to_path_buf()),
            tail_capacity: DEFAULT_JOURNAL_TAIL,
        })
    }

    /// The backing file path, when this journal is durable.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Append one event, stamped with `trace` (0 = no originating request).
    /// Returns the record as written. Durable journals flush + fsync before
    /// returning; I/O errors are swallowed after being counted into the
    /// record's in-memory copy (the journal must never take down serving).
    pub fn append(&self, trace: u64, event: LifecycleEvent) -> JournalRecord {
        let t_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let record = JournalRecord {
            seq: inner.next_seq,
            t_ms,
            trace,
            event,
        };
        inner.next_seq += 1;
        if let Some(file) = inner.file.as_mut() {
            let json = serde_json::to_string(&record).expect("journal record serializes");
            let frame = format!(
                "{} {:016x} {json}\n",
                json.len(),
                journal_fnv1a64(json.as_bytes())
            );
            // Best effort: a full disk must not crash the server, and the
            // framing guarantees a partial write reads back as a torn tail.
            let _ = file
                .write_all(frame.as_bytes())
                .and_then(|()| file.flush())
                .and_then(|()| file.sync_data());
        }
        if inner.tail.len() >= self.tail_capacity {
            inner.tail.pop_front();
        }
        inner.tail.push_back(record.clone());
        record
    }

    /// The last `n` records (in order) from the in-memory tail.
    pub fn tail(&self, n: usize) -> Vec<JournalRecord> {
        let inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let skip = inner.tail.len().saturating_sub(n);
        inner.tail.iter().skip(skip).cloned().collect()
    }

    /// Every record currently retained in the in-memory tail.
    pub fn records(&self) -> Vec<JournalRecord> {
        self.tail(usize::MAX)
    }

    /// Total events appended over this journal's lifetime (including any
    /// loaded from disk at open).
    pub fn len(&self) -> u64 {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .next_seq
    }

    /// Whether no event has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Decode journal bytes: returns every valid record from the front and the
/// byte length of that valid prefix. Stops (without panicking) at the first
/// frame that is torn, truncated, checksum-mismatched, or unparseable — a
/// crash mid-append therefore costs at most the record being written.
pub fn decode_journal(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut out = Vec::new();
    let mut i = 0;
    loop {
        match decode_frame(bytes, i) {
            Some((record, next)) => {
                out.push(record);
                i = next;
            }
            None => return (out, i),
        }
    }
}

/// Read one `<len> <fnv16> <json>\n` frame at `start`; `None` on any
/// deviation from the canonical framing.
fn decode_frame(bytes: &[u8], start: usize) -> Option<(JournalRecord, usize)> {
    let rest = &bytes[start.min(bytes.len())..];
    // <len>: 1..=10 ASCII digits, then a space.
    let sp1 = rest.iter().position(|&b| b == b' ')?;
    if sp1 == 0 || sp1 > 10 || !rest[..sp1].iter().all(u8::is_ascii_digit) {
        return None;
    }
    let len: usize = std::str::from_utf8(&rest[..sp1]).ok()?.parse().ok()?;
    // <fnv>: exactly 16 lowercase hex digits, then a space.
    let hex = rest.get(sp1 + 1..sp1 + 17)?;
    if !hex
        .iter()
        .all(|&b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    let declared = u64::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
    if rest.get(sp1 + 17) != Some(&b' ') {
        return None;
    }
    let json_start = sp1 + 18;
    let json = rest.get(json_start..json_start + len)?;
    if rest.get(json_start + len) != Some(&b'\n') {
        return None;
    }
    if journal_fnv1a64(json) != declared {
        return None;
    }
    let record: JournalRecord = serde_json::from_str(std::str::from_utf8(json).ok()?).ok()?;
    Some((record, start + json_start + len + 1))
}

/// Read a journal file, returning its valid prefix of records (empty for a
/// missing file — a journal never written is not an error).
pub fn read_journal(path: &Path) -> Vec<JournalRecord> {
    match std::fs::read(path) {
        Ok(bytes) => decode_journal(&bytes).0,
        Err(_) => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<LifecycleEvent> {
        vec![
            LifecycleEvent::ServerStarted {
                workers: 4,
                version: 1,
            },
            LifecycleEvent::DriftTripped {
                baseline_q: 1.2,
                window_q: 7.5,
                samples: 640,
            },
            LifecycleEvent::RetrainStarted { samples: 128 },
            LifecycleEvent::SwapPromoted {
                from: 1,
                to: 2,
                trigger: "drift".to_string(),
                shadow_p90: 1.4,
            },
            LifecycleEvent::BreakerOpened {
                error_percent: 62.5,
            },
            LifecycleEvent::BreakerHalfOpen,
            LifecycleEvent::BreakerClosed,
            LifecycleEvent::Alert {
                slo: "qerr_p90".to_string(),
                fast_burn: 11.0,
                slow_burn: 4.2,
                threshold: 2.0,
            },
        ]
    }

    #[test]
    fn in_memory_append_and_tail() {
        let j = EventJournal::in_memory();
        for (i, ev) in sample_events().into_iter().enumerate() {
            let rec = j.append(i as u64 + 100, ev);
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.trace, i as u64 + 100);
        }
        assert_eq!(j.len(), 8);
        let tail = j.tail(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[2].event.kind(), "Alert");
        assert_eq!(tail[0].event.kind(), "BreakerHalfOpen");
    }

    #[test]
    fn durable_roundtrip_and_reopen_continues_sequence() {
        let dir = std::env::temp_dir().join(format!("dace-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let j = EventJournal::open(&path).unwrap();
            for ev in sample_events() {
                j.append(7, ev);
            }
        }
        let records = read_journal(&path);
        assert_eq!(records.len(), 8);
        assert_eq!(records[3].event.kind(), "SwapPromoted");
        assert!(records.iter().all(|r| r.trace == 7));

        // Re-open: sequence continues, tail is pre-loaded.
        let j = EventJournal::open(&path).unwrap();
        assert_eq!(j.len(), 8);
        let rec = j.append(9, LifecycleEvent::BreakerClosed);
        assert_eq!(rec.seq, 8);
        assert_eq!(read_journal(&path).len(), 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_healed() {
        let dir = std::env::temp_dir().join(format!("dace-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let j = EventJournal::open(&path).unwrap();
            for ev in sample_events() {
                j.append(0, ev);
            }
        }
        // Tear the last frame mid-record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(read_journal(&path).len(), 7, "torn frame dropped");

        // Re-opening heals the tail and appends continue cleanly.
        let j = EventJournal::open(&path).unwrap();
        assert_eq!(j.len(), 7);
        j.append(0, LifecycleEvent::BreakerClosed);
        drop(j);
        assert_eq!(read_journal(&path).len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn events_serialize_with_stable_variant_shapes() {
        let swap = serde_json::to_string(&LifecycleEvent::SwapPromoted {
            from: 1,
            to: 2,
            trigger: "drift".to_string(),
            shadow_p90: 1.5,
        })
        .unwrap();
        assert!(swap.contains("\"SwapPromoted\""), "{swap}");
        let unit = serde_json::to_string(&LifecycleEvent::BreakerHalfOpen).unwrap();
        assert_eq!(unit, "\"BreakerHalfOpen\"");
        // Round-trip through Deserialize.
        for ev in sample_events() {
            let json = serde_json::to_string(&ev).unwrap();
            let back: LifecycleEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev);
        }
    }

    #[test]
    fn decode_stops_at_bad_checksum() {
        let j = EventJournal::in_memory();
        drop(j);
        // Build two frames by hand, corrupt the second's payload.
        let mut bytes = Vec::new();
        for (i, ev) in sample_events().into_iter().take(2).enumerate() {
            let rec = JournalRecord {
                seq: i as u64,
                t_ms: 1,
                trace: 0,
                event: ev,
            };
            let json = serde_json::to_string(&rec).unwrap();
            bytes.extend_from_slice(
                format!(
                    "{} {:016x} {json}\n",
                    json.len(),
                    journal_fnv1a64(json.as_bytes())
                )
                .as_bytes(),
            );
        }
        let (clean, n) = decode_journal(&bytes);
        assert_eq!(clean.len(), 2);
        assert_eq!(n, bytes.len());
        // Flip one payload byte in frame 2.
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x40;
        let (records, valid) = decode_journal(&bytes);
        assert_eq!(records.len(), 1);
        assert!(valid < bytes.len());
    }
}
