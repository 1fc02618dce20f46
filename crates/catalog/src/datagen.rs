//! Seeded columnar data generation for a schema.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::database::{Database, TableData};
use crate::stats::{ColumnStats, TableStats, NULL_CODE};
use crate::suite::DatabaseSpec;
use crate::types::Distribution;

/// Generate the full database for `spec` at the given scale factor.
///
/// `scale` multiplies every table's row count (the data-drift experiment,
/// Fig. 7, regenerates the TPCH-like database at growing scales). Generation
/// is deterministic in `(spec.seed, scale)`.
pub fn generate_database(spec: &DatabaseSpec, scale: f64) -> Database {
    assert!(scale > 0.0, "scale must be positive");
    let schema = spec.build_schema();
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);

    // Scaled row counts, known up front so FK columns can reference any
    // parent regardless of generation order.
    let rows: Vec<u64> = schema
        .tables
        .iter()
        .map(|t| ((t.base_rows as f64 * scale).round() as u64).max(2))
        .collect();

    let mut tables = Vec::with_capacity(schema.tables.len());
    for (ti, tdef) in schema.tables.iter().enumerate() {
        let n = rows[ti] as usize;
        let mut columns: Vec<Vec<i64>> = Vec::with_capacity(tdef.columns.len());
        for cdef in &tdef.columns {
            let mut col = generate_column(&cdef.distribution, n, &rows, &columns, &mut rng);
            if cdef.null_frac > 0.0 {
                for v in col.iter_mut() {
                    if rng.gen_bool(cdef.null_frac) {
                        *v = NULL_CODE;
                    }
                }
            }
            columns.push(col);
        }
        tables.push(TableData { columns });
    }

    let stats = tables
        .iter()
        .enumerate()
        .map(|(ti, t)| TableStats {
            row_count: rows[ti],
            columns: t
                .columns
                .iter()
                .map(|c| ColumnStats::from_column(c))
                .collect(),
        })
        .collect();

    Database::new(spec.clone(), schema, tables, stats)
}

/// Generate one column of `n` values.
fn generate_column(
    dist: &Distribution,
    n: usize,
    table_rows: &[u64],
    built_columns: &[Vec<i64>],
    rng: &mut SmallRng,
) -> Vec<i64> {
    match *dist {
        Distribution::Serial => (0..n as i64).collect(),
        Distribution::Uniform { lo, hi } => {
            let hi = hi.max(lo);
            (0..n).map(|_| rng.gen_range(lo..=hi)).collect()
        }
        Distribution::Normal { mean, std } => (0..n)
            .map(|_| {
                let z = sample_standard_normal(rng);
                ((mean + std * z) * 100.0).round() as i64
            })
            .collect(),
        Distribution::Zipf { n: nv, s } => {
            let sampler = ZipfSampler::new(nv.max(1), s);
            (0..n).map(|_| sampler.sample(rng)).collect()
        }
        Distribution::ForeignKey { parent_table, s } => {
            let parent_rows = table_rows[parent_table as usize].max(1);
            if s <= 0.0 {
                (0..n)
                    .map(|_| rng.gen_range(0..parent_rows) as i64)
                    .collect()
            } else {
                let sampler = ZipfSampler::new(parent_rows, s);
                (0..n).map(|_| sampler.sample(rng)).collect()
            }
        }
        Distribution::Correlated {
            source_column,
            spread,
        } => {
            let src = &built_columns[source_column as usize];
            (0..n)
                .map(|i| {
                    let base = if src[i] == NULL_CODE { 0 } else { src[i] };
                    base + rng.gen_range(-spread..=spread)
                })
                .collect()
        }
    }
}

/// Box–Muller standard normal sample.
fn sample_standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Inverse-CDF Zipf sampler over values `0..n` (value 0 is the hottest —
/// like low-id rows being the popular entities in real datasets).
///
/// For large `n` the CDF table would be big, so the sampler approximates the
/// Zipf CDF with the continuous bounded-Pareto inverse, which is accurate to
/// within a few percent for s in (0, 2] — more than enough for generating
/// skewed synthetic data.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    s: f64,
    /// Exact cumulative weights for small n.
    cdf: Option<Vec<f64>>,
}

impl ZipfSampler {
    /// Sampler over `0..n` with exponent `s`.
    pub fn new(n: u64, s: f64) -> Self {
        let cdf = if n <= 4096 {
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(n as usize);
            for k in 1..=n {
                acc += 1.0 / (k as f64).powf(s);
                cdf.push(acc);
            }
            let total = acc;
            for v in cdf.iter_mut() {
                *v /= total;
            }
            Some(cdf)
        } else {
            None
        };
        ZipfSampler { n, s, cdf }
    }

    /// Draw one value in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> i64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        if let Some(cdf) = &self.cdf {
            let idx = cdf.partition_point(|&c| c < u);
            return idx.min(self.n as usize - 1) as i64;
        }
        // Continuous inverse of the bounded Pareto CDF on [1, n].
        let n = self.n as f64;
        let v = if (self.s - 1.0).abs() < 1e-9 {
            n.powf(u)
        } else {
            let one_s = 1.0 - self.s;
            (u * (n.powf(one_s) - 1.0) + 1.0).powf(1.0 / one_s)
        };
        (v.floor() as i64 - 1).clamp(0, self.n as i64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::suite_specs;

    #[test]
    fn generation_is_deterministic() {
        let spec = &suite_specs()[2];
        let a = generate_database(spec, 0.02);
        let b = generate_database(spec, 0.02);
        assert_eq!(a.tables.len(), b.tables.len());
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_eq!(ta.columns, tb.columns);
        }
    }

    #[test]
    fn scale_changes_row_counts() {
        let spec = &suite_specs()[3];
        let small = generate_database(spec, 0.01);
        let large = generate_database(spec, 0.03);
        assert!(large.tables[0].columns[0].len() > small.tables[0].columns[0].len());
    }

    #[test]
    fn fk_values_reference_valid_parent_rows() {
        let spec = &suite_specs()[1];
        let db = generate_database(spec, 0.02);
        for e in &db.schema.fks {
            let parent_rows = db.stats[e.parent.index()].row_count as i64;
            let col = &db.tables[e.child.index()].columns[e.child_column as usize];
            for &v in col.iter().take(500) {
                if v != NULL_CODE {
                    assert!((0..parent_rows).contains(&v), "dangling FK value {v}");
                }
            }
        }
    }

    #[test]
    fn zipf_sampler_is_skewed_and_in_range() {
        let sampler = ZipfSampler::new(100, 1.2);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            let v = sampler.sample(&mut rng);
            assert!((0..100).contains(&v));
            counts[v as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[60]);
        // Hottest value should dominate clearly under s=1.2.
        assert!(counts[0] as f64 > 0.1 * 20_000.0);
    }

    #[test]
    fn large_n_zipf_uses_continuous_approximation() {
        let sampler = ZipfSampler::new(1_000_000, 1.1);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut below_1000 = 0;
        for _ in 0..5_000 {
            let v = sampler.sample(&mut rng);
            assert!((0..1_000_000).contains(&v));
            if v < 1000 {
                below_1000 += 1;
            }
        }
        // Heavy skew: a large share of mass in the first 0.1% of values.
        assert!(below_1000 > 1_000, "got {below_1000}");
    }

    #[test]
    fn serial_pk_is_dense() {
        let spec = &suite_specs()[0];
        let db = generate_database(spec, 0.01);
        for t in &db.tables {
            let pk = &t.columns[0];
            for (i, &v) in pk.iter().enumerate().take(100) {
                assert_eq!(v, i as i64);
            }
        }
    }
}
