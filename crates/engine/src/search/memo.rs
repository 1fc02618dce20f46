//! The sub-plan score memo: fingerprint → predicted latency.
//!
//! Join enumeration revisits the same sub-trees constantly — a DP level's
//! candidates share children with every later level that builds on them, and
//! consecutive queries over the same schema produce recurring shapes. The
//! memo keys on the structural fingerprint the serve feature cache already
//! uses ([`Featurizer::fingerprint`]): the featurizer's salt (its scaler
//! parameters and config flags) XOR the plan's Merkle root, where each node
//! hashes its operator, child count, log-quantized estimates and its
//! children's hashes. A memoized score can therefore never outlive the
//! model's featurization, and the planner computes a candidate's key in
//! O(1) from the hash its `PhysPlan` node cached at construction. The
//! quantization cells are unchanged from the flat preorder hash the Merkle
//! key replaced: near-identical estimates (within ~1.6%) share a cell — the
//! same by-design approximation the serve cache makes.
//!
//! Storage is the serve crate's [`ShardedLruCache`] — bounded, O(1), with
//! lock-free hit/miss counters that become the experiment's memo hit-rate.
//!
//! [`Featurizer::fingerprint`]: dace_core::Featurizer::fingerprint

use dace_serve::ShardedLruCache;

/// Bounded memo of sub-plan scores keyed by structural fingerprint.
#[derive(Debug)]
pub struct ScoreMemo {
    cache: ShardedLruCache<f64>,
    capacity: usize,
}

impl ScoreMemo {
    /// Memo holding up to `capacity` scores. `capacity = 0` disables
    /// memoization entirely (every candidate is scored fresh) — the
    /// bit-identity tests diff enabled vs disabled runs.
    pub fn new(capacity: usize) -> ScoreMemo {
        ScoreMemo {
            cache: ShardedLruCache::new(capacity),
            capacity,
        }
    }

    /// Whether memoization is active.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Look up a fingerprint's memoized score, counting the hit/miss.
    pub fn get(&self, fingerprint: u64) -> Option<f64> {
        self.cache.get(fingerprint)
    }

    /// Memoize a freshly computed score.
    pub fn insert(&self, fingerprint: u64, score_ms: f64) {
        self.cache.insert(fingerprint, score_ms);
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Lookups that required a fresh model score.
    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Fraction of lookups served from the memo (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            return 0.0;
        }
        self.hits() as f64 / total as f64
    }

    /// Scores currently memoized.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the memo holds no scores.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_round_trips_and_counts() {
        let memo = ScoreMemo::new(64);
        assert!(memo.enabled());
        assert_eq!(memo.get(42), None);
        memo.insert(42, 1.5);
        assert_eq!(memo.get(42), Some(1.5));
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert!((memo.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_disables() {
        let memo = ScoreMemo::new(0);
        assert!(!memo.enabled());
        memo.insert(7, 1.0);
        assert_eq!(memo.get(7), None);
        assert!(memo.is_empty());
    }
}
