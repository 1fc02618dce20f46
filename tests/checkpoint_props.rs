//! Property tests for crash-safe checkpoint persistence.
//!
//! The contract under test: `decode_checkpoint` over *any* corruption of a
//! valid checkpoint — truncation at an arbitrary offset, a single flipped
//! bit anywhere — either returns a typed [`CheckpointError`] or a model
//! whose predictions are bit-identical to the original. It must never
//! panic and never produce a silently-wrong model. A torn write is
//! indistinguishable from a truncation, so this is exactly the guarantee
//! the serving registry's reload path leans on.

use dace_core::{
    decode_checkpoint, encode_checkpoint, fnv1a64, load_checkpoint, save_checkpoint,
    CheckpointError, DaceEstimator, TrainConfig, Trainer, CHECKPOINT_MAGIC,
};
use dace_plan::{Dataset, LabeledPlan, MachineId, NodeType, OpPayload, PlanNode, TreeBuilder};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A tiny learnable dataset (same shape the serve tests train on).
fn tiny_dataset(n: usize) -> Dataset {
    let plans = (0..n)
        .map(|i| {
            let cost = 100.0 + 37.0 * i as f64;
            let mut b = TreeBuilder::new();
            let scan = {
                let mut node = PlanNode::new(NodeType::SeqScan, OpPayload::Other);
                node.est_cost = cost;
                node.est_rows = cost * 8.0;
                node.actual_ms = cost * 0.004;
                node.actual_rows = cost * 8.0;
                b.leaf(node)
            };
            let root = {
                let mut node = PlanNode::new(NodeType::HashJoin, OpPayload::Other);
                node.est_cost = cost * 2.0;
                node.est_rows = cost;
                node.actual_ms = cost * 0.01;
                node.actual_rows = cost;
                b.internal(node, &[scan])
            };
            LabeledPlan {
                tree: b.finish(root),
                db_id: 0,
                machine: MachineId::M1,
            }
        })
        .collect();
    Dataset::from_plans(plans)
}

/// One trained estimator, its canonical checkpoint bytes, and its
/// predictions over the training plans — trained once, shared by every
/// proptest case.
fn fixture() -> &'static (DaceEstimator, Vec<u8>, Vec<f64>, Dataset) {
    static FIX: OnceLock<(DaceEstimator, Vec<u8>, Vec<f64>, Dataset)> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = tiny_dataset(24);
        let est = Trainer::new(TrainConfig {
            epochs: 2,
            ..Default::default()
        })
        .fit(&data)
        .unwrap();
        let bytes = encode_checkpoint(&est);
        let trees: Vec<_> = data.plans.iter().map(|p| &p.tree).collect();
        let preds = est.predict_batch_ms(&trees);
        (est, bytes, preds, data)
    })
}

/// The decode contract for possibly-corrupt bytes: typed error, or a model
/// that predicts bit-identically. Anything else fails the property.
fn assert_err_or_identical(bytes: &[u8]) {
    let (_, _, canonical, data) = fixture();
    match decode_checkpoint(bytes) {
        Err(_) => {} // typed rejection is the expected outcome
        Ok(decoded) => {
            let trees: Vec<_> = data.plans.iter().map(|p| &p.tree).collect();
            let preds = decoded.predict_batch_ms(&trees);
            for (a, b) in canonical.iter().zip(&preds) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "corruption survived decode but changed predictions"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Truncation at any offset — a torn write — must be rejected (or, at
    /// the full length, decode the identical model).
    #[test]
    fn truncation_never_yields_a_wrong_model(frac in 0.0f64..1.0) {
        let (_, bytes, _, _) = fixture();
        let cut = ((bytes.len() as f64) * frac) as usize;
        let prefix = &bytes[..cut.min(bytes.len())];
        if prefix.len() < bytes.len() {
            prop_assert!(
                decode_checkpoint(prefix).is_err(),
                "a {}-byte prefix of a {}-byte checkpoint decoded cleanly",
                prefix.len(),
                bytes.len()
            );
        } else {
            assert_err_or_identical(prefix);
        }
    }

    /// A single flipped bit anywhere in the file must be detected: header
    /// flips fail strict parsing, payload flips fail the FNV checksum.
    #[test]
    fn single_bit_flip_is_always_detected(frac in 0.0f64..1.0, bit in 0u8..8) {
        let (_, bytes, _, _) = fixture();
        let pos = (((bytes.len() - 1) as f64) * frac) as usize;
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1 << bit;
        prop_assert!(
            decode_checkpoint(&corrupt).is_err(),
            "bit {bit} of byte {pos} flipped silently"
        );
    }

    /// Multi-byte stomps (overwrite a random run with a random byte) obey
    /// the same contract.
    #[test]
    fn byte_stomps_error_or_roundtrip(frac in 0.0f64..1.0, len in 1usize..64, fill in 0u8..=255) {
        let (_, bytes, _, _) = fixture();
        let pos = (((bytes.len() - 1) as f64) * frac) as usize;
        let mut corrupt = bytes.clone();
        let end = (pos + len).min(corrupt.len());
        for b in &mut corrupt[pos..end] {
            *b = fill;
        }
        assert_err_or_identical(&corrupt);
    }
}

#[test]
fn atomic_save_load_roundtrip_is_bit_identical() {
    let (est, _, canonical, data) = fixture();
    let dir = std::env::temp_dir().join(format!("dace-ckpt-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.ckpt");
    save_checkpoint(&path, est).expect("atomic save");
    let loaded = load_checkpoint(&path).expect("load of a clean checkpoint");
    let trees: Vec<_> = data.plans.iter().map(|p| &p.tree).collect();
    let preds = loaded.predict_batch_ms(&trees);
    for (a, b) in canonical.iter().zip(&preds) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // No temp litter left behind by the atomic rename.
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().contains("tmp"))
        .collect();
    assert!(stray.is_empty(), "atomic save left temp files: {stray:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn header_is_strict_about_shape() {
    let (_, bytes, _, _) = fixture();
    // Sanity: the canonical encoding decodes and self-describes.
    assert!(bytes.starts_with(CHECKPOINT_MAGIC.as_bytes()));
    decode_checkpoint(bytes).expect("canonical bytes decode");

    // Uppercase hex in the checksum field is rejected even though
    // from_str_radix would accept it — otherwise an 'a'→'A' bit flip
    // inside the checksum field would round-trip undetected.
    let text = String::from_utf8(bytes.clone()).unwrap();
    let (header, payload) = text.split_once('\n').unwrap();
    let upper = format!("{}\n{payload}", header.to_uppercase());
    assert!(matches!(
        decode_checkpoint(upper.as_bytes()),
        Err(CheckpointError::BadHeader(_))
    ));

    // Wrong magic.
    let wrong = text.replacen("DACE-CKPT-V1", "DACE-CKPT-V9", 1);
    assert!(decode_checkpoint(wrong.as_bytes()).is_err());

    // Declared length that disagrees with the payload.
    let fnv = fnv1a64(payload.as_bytes());
    let lied = format!(
        "{CHECKPOINT_MAGIC} len={} fnv={fnv:016x}\n{payload}",
        payload.len() + 1
    );
    assert!(matches!(
        decode_checkpoint(lied.as_bytes()),
        Err(CheckpointError::LengthMismatch { .. })
    ));
}

#[test]
fn load_of_missing_file_is_a_typed_io_error() {
    let path = std::env::temp_dir().join(format!("dace-no-such-ckpt-{}", std::process::id()));
    assert!(matches!(
        load_checkpoint(&path),
        Err(CheckpointError::Io(_))
    ));
}
