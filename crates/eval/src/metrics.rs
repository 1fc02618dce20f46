//! Q-error metrics (Eq. 1 of the paper).

use dace_core::q_error;
use serde::{Deserialize, Serialize};

/// Summary statistics of a qerror distribution — the columns of Table I.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QErrorStats {
    /// Number of samples.
    pub count: usize,
    /// 50th percentile.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
}

impl QErrorStats {
    /// Stats from (prediction, actual) latency pairs in milliseconds.
    pub fn from_pairs(pairs: &[(f64, f64)]) -> QErrorStats {
        let qs: Vec<f64> = pairs.iter().map(|&(e, a)| q_error(e, a)).collect();
        QErrorStats::from_qerrors(qs)
    }

    /// Stats from raw qerror values.
    pub fn from_qerrors(mut qs: Vec<f64>) -> QErrorStats {
        assert!(!qs.is_empty(), "no samples");
        qs.sort_by(f64::total_cmp);
        let pct = |p: f64| -> f64 {
            let idx = (p * (qs.len() - 1) as f64).round() as usize;
            qs[idx.min(qs.len() - 1)]
        };
        QErrorStats {
            count: qs.len(),
            median: pct(0.50),
            p90: pct(0.90),
            p95: pct(0.95),
            p99: pct(0.99),
            max: *qs.last().unwrap(),
            mean: qs.iter().sum::<f64>() / qs.len() as f64,
        }
    }

    /// One row of a Table-I-style report.
    pub fn table_row(&self, name: &str) -> String {
        format!(
            "| {:<18} | {:>7.2} | {:>7.2} | {:>7.2} | {:>8.2} | {:>8.1} | {:>7.2} |",
            name, self.median, self.p90, self.p95, self.p99, self.max, self.mean
        )
    }

    /// The header matching [`QErrorStats::table_row`].
    pub fn table_header() -> String {
        format!(
            "| {:<18} | {:>7} | {:>7} | {:>7} | {:>8} | {:>8} | {:>7} |\n|{}|{}|{}|{}|{}|{}|{}|",
            "Model",
            "Median",
            "90th",
            "95th",
            "99th",
            "Max",
            "Mean",
            "-".repeat(20),
            "-".repeat(9),
            "-".repeat(9),
            "-".repeat(9),
            "-".repeat(10),
            "-".repeat(10),
            "-".repeat(9),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_percentiles() {
        let qs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = QErrorStats::from_qerrors(qs);
        assert_eq!(s.count, 100);
        assert!((s.median - 50.0).abs() <= 1.0);
        assert!((s.p90 - 90.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample() {
        let s = QErrorStats::from_qerrors(vec![2.5]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.max, 2.5);
    }

    #[test]
    fn row_formatting_contains_values() {
        let s = QErrorStats::from_qerrors(vec![1.0, 2.0, 3.0]);
        let row = s.table_row("DACE");
        assert!(row.contains("DACE"));
        assert!(row.contains("2.00"));
        assert!(QErrorStats::table_header().contains("Median"));
    }
}
