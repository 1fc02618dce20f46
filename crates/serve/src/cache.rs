//! Featurization cache: a sharded, bounded LRU keyed by the structural plan
//! fingerprint ([`Featurizer::fingerprint`]).
//!
//! Featurization is the serve path's dominant non-matmul cost (tree walk,
//! one-hot + scaler math, ancestor-matrix construction), and production
//! optimizer traffic is highly repetitive — the same plan shapes with
//! near-identical estimates recur constantly. The fingerprint quantizes log
//! cost/cardinality to ~1.6% resolution, so recurring plans hit without
//! storing the tree itself; the fingerprint also hashes the featurizer's
//! scaler parameters, so a base-model swap with refitted scalers can never
//! serve stale features.
//!
//! Sharding by the key's low bits keeps lock hold times to a single LRU
//! list splice; hit/miss counters are lock-free.
//!
//! [`Featurizer::fingerprint`]: dace_core::Featurizer::fingerprint

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dace_core::PlanFeatures;
use dace_obs::Counter;

const NIL: u32 = u32::MAX;

/// One shard: a classic HashMap + intrusive doubly-linked recency list over
/// a slab, O(1) for hit, insert and eviction.
#[derive(Debug)]
struct LruShard<V> {
    map: HashMap<u64, u32>,
    slots: Vec<Slot<V>>,
    head: u32,
    tail: u32,
    capacity: usize,
}

#[derive(Debug)]
struct Slot<V> {
    key: u64,
    value: V,
    prev: u32,
    next: u32,
}

impl<V: Clone> LruShard<V> {
    fn new(capacity: usize) -> LruShard<V> {
        LruShard {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: u64) -> Option<V> {
        let i = *self.map.get(&key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.slots[i as usize].value.clone())
    }

    fn insert(&mut self, key: u64, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i as usize].value = value;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.map.len() >= self.capacity {
            // Evict the least-recently-used entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim as usize].key);
            victim
        } else {
            self.slots.push(Slot {
                key,
                value: value.clone(),
                prev: NIL,
                next: NIL,
            });
            let i = (self.slots.len() - 1) as u32;
            self.map.insert(key, i);
            self.push_front(i);
            return;
        };
        self.slots[i as usize].key = key;
        self.slots[i as usize].value = value;
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// Sharded bounded LRU over `u64` keys with lock-free hit/miss counters.
/// `FeatureCache` (the serve path's instantiation) stores
/// `Arc<PlanFeatures>` so hits share the tensor allocation.
#[derive(Debug)]
pub struct ShardedLruCache<V> {
    shards: Vec<Mutex<LruShard<V>>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

/// Shard count (power of two; key low bits select the shard).
const SHARDS: usize = 8;

impl<V: Clone> ShardedLruCache<V> {
    /// Cache holding up to `capacity` entries, split across shards so the
    /// per-shard caps sum to exactly `capacity` (the first
    /// `capacity % SHARDS` shards take one extra slot; below `SHARDS`
    /// entries some shards get none and drop their inserts).
    /// `capacity = 0` disables the cache: every lookup misses and inserts
    /// are dropped.
    pub fn new(capacity: usize) -> ShardedLruCache<V> {
        ShardedLruCache::with_counters(capacity, Arc::new(Counter::new()), Arc::new(Counter::new()))
    }

    /// Cache whose hit/miss counters are externally owned — the serve path
    /// passes registry-backed counters here so cache statistics surface in
    /// the shared metrics export without a second set of atomics.
    pub fn with_counters(
        capacity: usize,
        hits: Arc<Counter>,
        misses: Arc<Counter>,
    ) -> ShardedLruCache<V> {
        ShardedLruCache {
            shards: (0..SHARDS)
                .map(|i| {
                    let cap = capacity / SHARDS + usize::from(i < capacity % SHARDS);
                    Mutex::new(LruShard::new(cap))
                })
                .collect(),
            hits,
            misses,
        }
    }

    #[inline]
    fn shard(&self, key: u64) -> &Mutex<LruShard<V>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Look up `key`, bumping it to most-recently-used and counting the
    /// hit/miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let got = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key);
        match got {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        got
    }

    /// Insert (or refresh) `key`, evicting the shard's LRU entry at
    /// capacity. No-op on a zero-capacity cache.
    pub fn insert(&self, key: u64, value: V) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if shard.capacity == 0 {
            return;
        }
        shard.insert(key, value);
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The serve path's featurization cache: fingerprint → shared features.
pub type FeatureCache = ShardedLruCache<Arc<PlanFeatures>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_counters_and_basic_lru() {
        let c: ShardedLruCache<u32> = ShardedLruCache::new(64);
        assert_eq!(c.get(1), None);
        c.insert(1, 10);
        assert_eq!(c.get(1), Some(10));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // Keys that map to the same shard: multiples of SHARDS.
        let c: ShardedLruCache<u32> = ShardedLruCache::new(SHARDS * 3); // 3 per shard
        let k = |i: u64| i * SHARDS as u64;
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(3), 3);
        // Touch k1 so k2 is now the LRU.
        assert_eq!(c.get(k(1)), Some(1));
        c.insert(k(4), 4);
        assert_eq!(c.get(k(2)), None, "LRU entry should have been evicted");
        assert_eq!(c.get(k(1)), Some(1));
        assert_eq!(c.get(k(3)), Some(3));
        assert_eq!(c.get(k(4)), Some(4));
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let c: ShardedLruCache<u32> = ShardedLruCache::new(SHARDS * 2); // 2 per shard
        let k = |i: u64| i * SHARDS as u64;
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(1), 11); // refresh: k2 becomes LRU
        c.insert(k(3), 3); // evicts k2
        assert_eq!(c.get(k(1)), Some(11));
        assert_eq!(c.get(k(2)), None);
        assert_eq!(c.get(k(3)), Some(3));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c: ShardedLruCache<u32> = ShardedLruCache::new(0);
        c.insert(1, 1);
        assert_eq!(c.get(1), None);
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        for cap in [SHARDS * 4, 1, 5, 9, 4097] {
            let c: ShardedLruCache<u64> = ShardedLruCache::new(cap);
            for i in 0..10_000u64 {
                c.insert(i, i);
            }
            // Churn over every shard fills each to its cap: exactly `cap`.
            assert_eq!(c.len(), cap, "capacity {cap}");
            // The most recent key of every shard with a slot must still be
            // present.
            for key in 10_000 - SHARDS as u64..10_000 {
                let shard = c.shard(key).lock().unwrap().capacity;
                let want = (shard > 0).then_some(key);
                assert_eq!(c.get(key), want, "capacity {cap}, key {key}");
            }
        }
    }

    #[test]
    fn concurrent_access_stays_bounded_and_sane() {
        let c: ShardedLruCache<u64> = ShardedLruCache::new(128);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        let key = (t * 31 + i) % 400;
                        if let Some(v) = c.get(key) {
                            assert_eq!(v, key, "value must always match its key");
                        } else {
                            c.insert(key, key);
                        }
                    }
                });
            }
        });
        assert!(c.len() <= 128);
        assert_eq!(c.hits() + c.misses(), 8 * 5_000);
    }
}
