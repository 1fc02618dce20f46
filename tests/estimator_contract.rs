//! Contract tests every estimator must satisfy: fit on a small corpus,
//! produce finite positive predictions on in- and out-of-distribution
//! plans, and report sane parameter counts.
//!
//! The baselines' predictions are also pinned: an FNV-1a digest over the
//! `f64` bits of every test and out-of-distribution prediction, per model,
//! including the two knowledge-integration variants (Eq. 9) on a DACE
//! encoder fitted here. A change to a baseline's training or inference
//! arithmetic moves its digest.

use dace_baselines::{CostEstimator, Mscn, PgLinear, QppNet, QueryFormer, TPool, ZeroShot};
use dace_catalog::{generate_database, suite_specs};
use dace_core::{TrainConfig, Trainer};
use dace_engine::collect_dataset;
use dace_obs::fnv1a64;
use dace_plan::{Dataset, MachineId};
use dace_query::ComplexWorkloadGen;

fn corpora() -> (Dataset, Dataset, Dataset) {
    let db = generate_database(&suite_specs()[3], 0.04);
    let queries = ComplexWorkloadGen::default().generate(&db, 120);
    let ds = collect_dataset(&db, &queries, MachineId::M1);
    let (train, test) = ds.split(0.25);
    // Out-of-distribution: a different database entirely.
    let other = generate_database(&suite_specs()[14], 0.04);
    let other_q = ComplexWorkloadGen::default().generate(&other, 30);
    let ood = collect_dataset(&other, &other_q, MachineId::M1);
    (train, test, ood)
}

/// Fit `model`, check the contract, and return the FNV-1a digest of its
/// test and out-of-distribution predictions' bits, in corpus order.
fn check(model: &mut dyn CostEstimator, train: &Dataset, test: &Dataset, ood: &Dataset) -> u64 {
    model.fit(train);
    let mut bits = Vec::new();
    for ds in [test, ood] {
        for p in &ds.plans {
            let pred = model.predict_ms(&p.tree);
            assert!(
                pred.is_finite() && pred > 0.0,
                "{} produced bad prediction {pred}",
                model.name()
            );
            bits.extend_from_slice(&pred.to_bits().to_le_bytes());
        }
    }
    assert!(model.param_count() >= 2, "{}", model.name());
    assert!(model.size_mb() >= 0.0);
    // In-distribution predictions must beat a constant-output strawman:
    // correlation between log-pred and log-actual should be positive.
    let xs: Vec<f64> = test
        .plans
        .iter()
        .map(|p| model.predict_ms(&p.tree).max(1e-9).ln())
        .collect();
    let ys: Vec<f64> = test.plans.iter().map(|p| p.latency_ms().ln()).collect();
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx).powi(2)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my).powi(2)).sum();
    let corr = cov / (vx.sqrt() * vy.sqrt()).max(1e-12);
    assert!(
        corr > 0.2,
        "{}: predictions uncorrelated with latency (corr {corr})",
        model.name()
    );
    fnv1a64(&bits)
}

/// Per-model prediction digests from [`check`] on the AVX-512 kernel tier.
const PINNED: [(&str, u64); 8] = [
    ("PostgreSQL", 0x4a83_2665_3a2a_e701),
    ("MSCN", 0xfe85_69d4_2ee4_6906),
    ("QPPNet", 0xe3a7_541f_3b0d_a778),
    ("TPool", 0xfaaa_bb2d_b1d3_8175),
    ("QueryFormer", 0xdb93_38d0_3e20_5e77),
    ("Zero-Shot", 0x54dc_0e49_25a5_9730),
    ("DACE-MSCN", 0x3c2a_85e3_4cb4_26f7),
    ("DACE-QueryFormer", 0xcf9d_faf7_ba64_e100),
];

/// Whether the matmul kernels run the tier [`PINNED`] was taken on. The
/// AVX2 and scalar tiers round differently, so there the digests are not
/// checked; the contract itself holds on every tier.
fn on_the_pinned_tier() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx512f");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// Assert each `(name, digest)` equals its [`PINNED`] entry.
fn assert_pinned(got: &[(&str, u64)]) {
    for (name, digest) in got {
        eprintln!("{name}: prediction digest {digest:#018x}");
    }
    if !on_the_pinned_tier() {
        eprintln!("no AVX-512: the prediction digests are not checked");
        return;
    }
    for (name, digest) in got {
        let want = PINNED.iter().find(|(n, _)| n == name).expect("pinned").1;
        assert_eq!(
            *digest, want,
            "{name}: predictions moved (digest {digest:#018x})"
        );
    }
}

#[test]
fn all_baselines_satisfy_the_contract() {
    let (train, test, ood) = corpora();
    let epochs = 12;
    let mut pg = PgLinear::new();
    let mut mscn = Mscn::new(1);
    mscn.epochs = epochs;
    let mut qpp = QppNet::new(2);
    qpp.epochs = epochs;
    let mut tpool = TPool::new(3);
    tpool.epochs = epochs;
    let mut qf = QueryFormer::new(4);
    qf.epochs = epochs;
    let mut zs = ZeroShot::new(5);
    zs.epochs = epochs;
    let models: [&mut dyn CostEstimator; 6] =
        [&mut pg, &mut mscn, &mut qpp, &mut tpool, &mut qf, &mut zs];
    let digests: Vec<(&str, u64)> = models
        .into_iter()
        .map(|m| (m.name(), check(m, &train, &test, &ood)))
        .collect();
    assert_pinned(&digests);
}

/// Knowledge integration (Eq. 9): MSCN and QueryFormer with a DACE fitted
/// on the same training corpus as their encoder.
#[test]
fn encoder_baselines_satisfy_the_contract() {
    let (train, test, ood) = corpora();
    let dace = Trainer::new(TrainConfig {
        epochs: 8,
        ..Default::default()
    })
    .fit(&train)
    .unwrap();
    let mut mscn = Mscn::with_encoder(6, dace.clone());
    mscn.epochs = 12;
    let mut qf = QueryFormer::with_encoder(7, dace);
    qf.epochs = 12;
    let models: [&mut dyn CostEstimator; 2] = [&mut mscn, &mut qf];
    let digests: Vec<(&str, u64)> = models
        .into_iter()
        .map(|m| (m.name(), check(m, &train, &test, &ood)))
        .collect();
    assert_pinned(&digests);
}

#[test]
fn dace_satisfies_the_contract_via_the_adapter() {
    let (train, test, ood) = corpora();
    let mut dace = dace_eval::models::Dace::with_config(
        TrainConfig {
            epochs: 15,
            ..Default::default()
        },
        "DACE",
    );
    check(&mut dace, &train, &test, &ood);
}
