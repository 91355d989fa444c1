//! A bounded, hash-addressed cache of *decoded* trie nodes.
//!
//! Trie walks resolve hash links through this cache before touching the
//! [`crate::store::NodeStore`], skipping both the store lookup and the
//! RLP decode on a hit. Eviction is FIFO — content-addressed nodes never
//! mutate, so recency tracking buys little over insertion order for the
//! top-of-trie nodes that dominate lookups, and FIFO keeps the hot path
//! to one `VecDeque` push.
//!
//! Hit/miss/eviction counts feed both the per-instance
//! [`crate::trie::TrieStats`] (always on, for assertions) and the global
//! `mtpu-telemetry` registry (`statedb.cache.*`, gated on
//! [`mtpu_telemetry::enabled`] per the workspace cost contract).

use crate::node::Node;
use mtpu_primitives::B256;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Default capacity in nodes; at ~100–500 bytes a decoded node this
/// bounds the cache to a few MiB.
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// A bounded FIFO map: the one eviction loop behind both [`NodeCache`]
/// and the committer's memo of `keccak(address)` / `keccak(slot)`
/// secure-key hashing, which would otherwise re-hash the same 20/32
/// bytes on every touch of a hot account or slot.
#[derive(Debug, Clone)]
pub struct BoundedMemo<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> BoundedMemo<K, V> {
    /// A memo holding at most `capacity` entries (0 disables memoizing).
    pub fn new(capacity: usize) -> Self {
        BoundedMemo {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Entries currently memoized.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The memoized value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// Memoizes `value` under `key` unless the key is already present (or
    /// memoizing is disabled), evicting the oldest entries at capacity.
    /// Returns how many entries were evicted.
    pub fn insert(&mut self, key: K, value: V) -> u64 {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0;
        while self.map.len() >= self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&old);
            evicted += 1;
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
        evicted
    }

    /// The memoized value for `key`, computing and inserting it with `f`
    /// on a miss.
    pub fn get_or_insert_with(&mut self, key: &K, f: impl FnOnce() -> V) -> V {
        if let Some(v) = self.map.get(key) {
            return v.clone();
        }
        let v = f();
        self.insert(key.clone(), v.clone());
        v
    }
}

/// Bounded FIFO cache mapping node hash → decoded node: a
/// [`BoundedMemo`] plus the hit/miss/eviction accounting.
#[derive(Debug, Clone)]
pub struct NodeCache {
    nodes: BoundedMemo<B256, Node>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for NodeCache {
    fn default() -> Self {
        NodeCache::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl NodeCache {
    /// A cache holding at most `capacity` nodes (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        NodeCache {
            nodes: BoundedMemo::new(capacity),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Nodes currently cached.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Capacity in nodes.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity
    }

    /// Lifetime `(hits, misses, evictions)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Looks up a decoded node, counting the hit or miss.
    pub fn get(&mut self, hash: &B256) -> Option<Node> {
        match self.nodes.get(hash) {
            Some(n) => {
                self.hits += 1;
                if mtpu_telemetry::enabled() {
                    crate::obs::metrics().cache_hit.inc();
                }
                Some(n.clone())
            }
            None => {
                self.misses += 1;
                if mtpu_telemetry::enabled() {
                    crate::obs::metrics().cache_miss.inc();
                }
                None
            }
        }
    }

    /// Inserts a decoded node, evicting the oldest entry at capacity.
    pub fn put(&mut self, hash: B256, node: Node) {
        let evicted = self.nodes.insert(hash, node);
        self.evictions += evicted;
        if evicted > 0 && mtpu_telemetry::enabled() {
            crate::obs::metrics().cache_evict.add(evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(n: u8) -> Node {
        Node::Leaf {
            path: vec![n & 0x0f],
            value: vec![n],
        }
    }

    fn h(n: u8) -> B256 {
        B256::keccak(&[n])
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = NodeCache::new(4);
        assert!(c.get(&h(1)).is_none());
        c.put(h(1), leaf(1));
        assert_eq!(c.get(&h(1)), Some(leaf(1)));
        let (hits, misses, evictions) = c.counters();
        assert_eq!((hits, misses, evictions), (1, 1, 0));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = NodeCache::new(2);
        c.put(h(1), leaf(1));
        c.put(h(2), leaf(2));
        c.put(h(3), leaf(3)); // evicts h(1)
        assert_eq!(c.len(), 2);
        assert!(c.get(&h(1)).is_none());
        assert!(c.get(&h(3)).is_some());
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = NodeCache::new(0);
        c.put(h(1), leaf(1));
        assert!(c.is_empty());
        assert!(c.get(&h(1)).is_none());
    }

    #[test]
    fn duplicate_put_is_noop() {
        let mut c = NodeCache::new(2);
        c.put(h(1), leaf(1));
        c.put(h(1), leaf(1));
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 2);
    }

    #[test]
    fn memo_computes_once_and_evicts_fifo() {
        use std::cell::Cell;
        let mut m: BoundedMemo<u32, u64> = BoundedMemo::new(2);
        let calls = Cell::new(0u32);
        let probe = |m: &mut BoundedMemo<u32, u64>, k: u32| {
            m.get_or_insert_with(&k, || {
                calls.set(calls.get() + 1);
                u64::from(k) * 10
            })
        };
        assert_eq!(probe(&mut m, 1), 10);
        assert_eq!(probe(&mut m, 1), 10);
        assert_eq!(calls.get(), 1, "second lookup must hit the memo");
        probe(&mut m, 2);
        probe(&mut m, 3); // evicts key 1
        assert_eq!(m.len(), 2);
        assert_eq!(probe(&mut m, 1), 10);
        assert_eq!(calls.get(), 4, "evicted key is recomputed");
    }

    #[test]
    fn zero_capacity_memo_still_computes() {
        let mut m: BoundedMemo<u32, u64> = BoundedMemo::new(0);
        assert_eq!(m.get_or_insert_with(&5, || 50), 50);
        assert!(m.is_empty());
    }
}
