//! The sub-plan score memo must behave exactly like the serve crate's
//! sharded LRU it replaced: the same eight shards, per-shard capacities and
//! least-recently-used eviction order, so plan search memoizes the same
//! scores and reports the same hits and misses. Random get/insert sequences
//! over small key spaces replay against both, operation by operation.

use dace_engine::ScoreMemo;
use dace_serve::ShardedLruCache;
use proptest::prelude::*;

/// Capacities at and around the shard count, plus one roomy memo.
const CAPACITIES: [usize; 6] = [0, 1, 7, 8, 9, 64];
/// Distinct keys a sequence draws from: from a few per shard to several
/// times the largest capacity.
const KEY_SPACES: [u64; 4] = [4, 16, 40, 200];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memo_matches_the_sharded_lru_operation_by_operation(
        capacity in 0usize..CAPACITIES.len(),
        space in 0usize..KEY_SPACES.len(),
        mixed in 0u8..2,
        ops in proptest::collection::vec((0u8..2, 0u64..1_000_000), 1..400),
    ) {
        let capacity = CAPACITIES[capacity];
        let space = KEY_SPACES[space];
        let mut memo = ScoreMemo::new(capacity);
        let reference: ShardedLruCache<f64> = ShardedLruCache::new(capacity);
        prop_assert_eq!(memo.enabled(), capacity > 0);
        for (step, &(op, draw)) in ops.iter().enumerate() {
            // Small keys exercise the shard bits alone; the odd multiplier
            // (a bijection) spreads the same keys over all 64 bits.
            let key = match mixed {
                0 => draw % space,
                _ => (draw % space).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            match op {
                0 => prop_assert_eq!(
                    memo.get(key),
                    reference.get(key),
                    "get({}) at step {} (capacity {})", key, step, capacity
                ),
                _ => {
                    let score = step as f64 + 0.5;
                    memo.insert(key, score);
                    reference.insert(key, score);
                }
            }
            prop_assert_eq!(memo.hits(), reference.hits());
            prop_assert_eq!(memo.misses(), reference.misses());
            prop_assert_eq!(memo.len(), reference.len());
            prop_assert!(memo.len() <= capacity);
        }
    }
}
