//! Training-run telemetry: per-epoch records, pluggable sinks, and the
//! JSONL run-manifest writer behind `--manifest`.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// How chatty training is on stderr. Telemetry sinks always receive every
/// record regardless of verbosity; this only gates human-readable output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Verbosity {
    /// No stderr output (the default — training is silent).
    #[default]
    Quiet,
    /// One stderr line per epoch.
    Epochs,
}

/// Everything recorded about one training epoch — one JSONL manifest line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Which run this epoch belongs to (`"pretrain"`, `"lora"`, ...).
    pub phase: String,
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Epochs the run was configured for.
    pub epochs_planned: usize,
    /// Mean weighted training loss over this epoch's batches.
    pub train_loss: f64,
    /// L2 norm of the epoch's final batch gradient.
    pub grad_norm: f64,
    /// Learning rate in effect.
    pub lr: f64,
    /// Wall-clock time for the epoch, milliseconds.
    pub epoch_ms: f64,
    /// Validation loss, when a validation split exists (`null` otherwise).
    #[serde(default)]
    pub val_loss: Option<f64>,
    /// Median validation Q-error.
    #[serde(default)]
    pub val_qerr_p50: Option<f64>,
    /// 90th-percentile validation Q-error.
    #[serde(default)]
    pub val_qerr_p90: Option<f64>,
    /// 99th-percentile validation Q-error.
    #[serde(default)]
    pub val_qerr_p99: Option<f64>,
    /// Early-stop decision after this epoch: `"continue"`, `"improved"`,
    /// `"patience N/M"`, or `"stop"`.
    pub early_stop: String,
    /// Heap bytes allocated during this epoch's batch loop (validation
    /// excluded), when an allocation probe is installed
    /// ([`crate::set_alloc_probe`]); `null` otherwise.
    #[serde(default)]
    pub alloc_bytes: Option<u64>,
    /// Causal trace id of the lineage that spawned this run (the drift trip
    /// for an adaptive retrain; 0 for standalone training). Lets one
    /// request's journal chain be joined against the epochs it triggered.
    #[serde(default)]
    pub trace: u64,
}

impl EpochRecord {
    /// One human-readable progress line (what `Verbosity::Epochs` prints).
    pub fn summary_line(&self) -> String {
        let val = match (self.val_loss, self.val_qerr_p50) {
            (Some(vl), Some(p50)) => format!(" val_loss={vl:.5} val_qerr_p50={p50:.3}"),
            (Some(vl), None) => format!(" val_loss={vl:.5}"),
            _ => String::new(),
        };
        format!(
            "[{}] epoch {}/{} loss={:.5} grad_norm={:.4} lr={:.2e} {:.0}ms{} {}",
            self.phase,
            self.epoch + 1,
            self.epochs_planned,
            self.train_loss,
            self.grad_norm,
            self.lr,
            self.epoch_ms,
            val,
            self.early_stop,
        )
    }
}

/// Where per-epoch telemetry goes. Implementations must tolerate being
/// called from the training loop's thread at epoch granularity (i.e. they
/// may do I/O, but should not block for long).
pub trait RunSink: Debug + Send + Sync {
    /// One epoch finished.
    fn epoch(&self, record: &EpochRecord);
    /// The run ended (flush buffers). Also invoked on `Drop` by the
    /// provided sinks; calling it twice is harmless.
    fn finish(&self) {}
}

/// Appends one JSON object per epoch to a file — the `--manifest` format.
#[derive(Debug)]
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and write manifest lines to it.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        Ok(JsonlSink {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl RunSink for JsonlSink {
    fn epoch(&self, record: &EpochRecord) {
        let line = serde_json::to_string(record).expect("epoch record serializes");
        let mut out = self.out.lock().expect("manifest writer poisoned");
        // Ignore write errors: telemetry must never abort training.
        let _ = writeln!(out, "{line}");
    }

    fn finish(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Collects records in memory — for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<EpochRecord>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// Everything recorded so far.
    pub fn records(&self) -> Vec<EpochRecord> {
        self.records.lock().expect("memory sink poisoned").clone()
    }
}

impl RunSink for MemorySink {
    fn epoch(&self, record: &EpochRecord) {
        self.records
            .lock()
            .expect("memory sink poisoned")
            .push(record.clone());
    }
}

/// Parse a JSONL manifest back into records — the round-trip half of
/// [`JsonlSink`], used by CI and tests. Returns an error on the first
/// malformed line.
pub fn parse_manifest(text: &str) -> Result<Vec<EpochRecord>, serde_json::Error> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

/// Group manifest records by phase, preserving epoch order within each.
pub fn records_by_phase(records: &[EpochRecord]) -> BTreeMap<String, Vec<EpochRecord>> {
    let mut out: BTreeMap<String, Vec<EpochRecord>> = BTreeMap::new();
    for r in records {
        out.entry(r.phase.clone()).or_default().push(r.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: usize) -> EpochRecord {
        EpochRecord {
            phase: "pretrain".to_string(),
            epoch,
            epochs_planned: 3,
            train_loss: 0.5 / (epoch + 1) as f64,
            grad_norm: 1.25,
            lr: 1e-3,
            epoch_ms: 12.0,
            val_loss: Some(0.6),
            val_qerr_p50: Some(1.4),
            val_qerr_p90: Some(3.2),
            val_qerr_p99: Some(9.9),
            early_stop: "improved".to_string(),
            alloc_bytes: None,
            trace: 0xfeed,
        }
    }

    #[test]
    fn jsonl_sink_round_trips_through_parser() {
        let dir = std::env::temp_dir().join("dace_obs_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manifest.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            for e in 0..3 {
                sink.epoch(&record(e));
            }
            sink.finish();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // Every line carries the keys downstream tooling reads by name.
        for line in text.lines() {
            let v: serde::Value = serde_json::from_str(line).unwrap();
            let map = v.as_map().expect("one JSON object per line");
            for key in [
                "phase",
                "epoch",
                "train_loss",
                "grad_norm",
                "lr",
                "epoch_ms",
                "early_stop",
            ] {
                assert!(
                    serde::map_get(map, key).is_some(),
                    "manifest line missing {key}: {line}"
                );
            }
        }
        let back = parse_manifest(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[2], record(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn optional_fields_round_trip_as_null() {
        let mut r = record(0);
        r.val_loss = None;
        r.val_qerr_p50 = None;
        r.val_qerr_p90 = None;
        r.val_qerr_p99 = None;
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"val_loss\":null"));
        let back: EpochRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = MemorySink::new();
        sink.epoch(&record(0));
        sink.epoch(&record(1));
        let recs = sink.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].epoch, 1);
        let by_phase = records_by_phase(&recs);
        assert_eq!(by_phase["pretrain"].len(), 2);
    }

    #[test]
    fn summary_line_mentions_the_essentials() {
        let line = record(1).summary_line();
        assert!(line.contains("[pretrain]"));
        assert!(line.contains("epoch 2/3"));
        assert!(line.contains("val_qerr_p50=1.400"));
        assert!(line.contains("improved"));
    }

    #[test]
    fn verbosity_orders_and_serializes() {
        assert!(Verbosity::Quiet < Verbosity::Epochs);
        assert_eq!(Verbosity::default(), Verbosity::Quiet);
        let v: Verbosity = serde_json::from_str("\"Epochs\"").unwrap();
        assert_eq!(v, Verbosity::Epochs);
    }
}
