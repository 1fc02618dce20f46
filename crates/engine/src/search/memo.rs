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
//! The memo has one owner (its [`LearnedScorer`]), so it needs no lock and
//! no atomics. It keeps the eviction behaviour of the serve crate's
//! [`ShardedLruCache`] exactly — eight shards selected by the key's low
//! bits, the same per-shard capacities and the same least-recently-used
//! order (`tests/memo_props.rs` replays random operation sequences against
//! it) — so it holds the same scores and reports the same hits. The key is
//! already a finalized hash, so the shard maps hash it by a rotation
//! ([`KeyHasher`]) instead of SipHash.
//!
//! [`Featurizer::fingerprint`]: dace_core::Featurizer::fingerprint
//! [`LearnedScorer`]: crate::search::LearnedScorer
//! [`ShardedLruCache`]: dace_serve::ShardedLruCache

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Shard count (power of two; the key's low bits select the shard).
const SHARDS: usize = 8;
const NIL: u32 = u32::MAX;

/// Hasher for keys that already are well-mixed 64-bit hashes. The rotation
/// moves the low bits, which pick a memo shard and so are equal within
/// one, away from both ends of the word: the map's bucket index reads the
/// low bits and its control tag the top seven.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyHasher hashes u64 keys only")
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.rotate_right(32);
    }
}

/// A map keyed by a finalized 64-bit hash.
pub(crate) type KeyMap<V> = HashMap<u64, V, BuildHasherDefault<KeyHasher>>;

/// One shard: a map from key to slot plus an intrusive doubly-linked
/// recency list over the slots, O(1) for hit, insert and eviction.
#[derive(Debug)]
struct Shard {
    map: KeyMap<u32>,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    capacity: usize,
}

#[derive(Debug)]
struct Slot {
    key: u64,
    score: f64,
    prev: u32,
    next: u32,
}

impl Shard {
    /// A shard with room for `capacity` entries allocated up front.
    fn new(capacity: usize) -> Shard {
        Shard {
            map: KeyMap::with_capacity_and_hasher(capacity, Default::default()),
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

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
    }

    fn get(&mut self, key: u64) -> Option<f64> {
        let i = *self.map.get(&key)?;
        self.touch(i);
        Some(self.slots[i as usize].score)
    }

    fn insert(&mut self, key: u64, score: f64) {
        if let Some(&i) = self.map.get(&key) {
            self.slots[i as usize].score = score;
            self.touch(i);
            return;
        }
        let i = if self.map.len() >= self.capacity {
            // Evict the least-recently-used entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim as usize].key);
            self.slots[victim as usize].key = key;
            self.slots[victim as usize].score = score;
            victim
        } else {
            self.slots.push(Slot {
                key,
                score,
                prev: NIL,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.map.insert(key, i);
        self.push_front(i);
    }
}

/// Bounded memo of sub-plan scores keyed by structural fingerprint.
#[derive(Debug)]
pub struct ScoreMemo {
    shards: [Shard; SHARDS],
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ScoreMemo {
    /// Memo holding up to `capacity` scores, split across the shards so
    /// the per-shard capacities sum to exactly `capacity` (the first
    /// `capacity % 8` shards take one extra entry). `capacity = 0` disables
    /// memoization entirely (every candidate is scored fresh) — the
    /// bit-identity tests diff enabled vs disabled runs.
    pub fn new(capacity: usize) -> ScoreMemo {
        ScoreMemo {
            shards: std::array::from_fn(|i| {
                Shard::new(capacity / SHARDS + usize::from(i < capacity % SHARDS))
            }),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether memoization is active.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn shard(&mut self, key: u64) -> &mut Shard {
        &mut self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Look up a fingerprint's memoized score, bumping it to
    /// most-recently-used and counting the hit/miss.
    pub fn get(&mut self, fingerprint: u64) -> Option<f64> {
        let got = self.shard(fingerprint).get(fingerprint);
        match got {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        got
    }

    /// Memoize (or refresh) a score, evicting its shard's least recently
    /// used entry at capacity. A shard with no capacity drops the insert.
    pub fn insert(&mut self, fingerprint: u64, score_ms: f64) {
        let shard = self.shard(fingerprint);
        if shard.capacity > 0 {
            shard.insert(fingerprint, score_ms);
        }
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required a fresh model score.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups served from the memo (0 before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Scores currently memoized.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.len()).sum()
    }

    /// Whether the memo holds no scores.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_round_trips_and_counts() {
        let mut memo = ScoreMemo::new(64);
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
        let mut memo = ScoreMemo::new(0);
        assert!(!memo.enabled());
        memo.insert(7, 1.0);
        assert_eq!(memo.get(7), None);
        assert!(memo.is_empty());
    }
}
