//! A bounded, hash-addressed cache of *decoded* trie nodes.
//!
//! Trie walks resolve hash links through this cache before touching the
//! [`crate::store::NodeStore`], skipping both the store lookup and the
//! RLP decode on a hit. Eviction is FIFO — content-addressed nodes never
//! mutate, so recency tracking buys little over insertion order for the
//! top-of-trie nodes that dominate lookups, and FIFO keeps the hot path
//! to one queue push in the workspace's [`BoundedMemo`].
//!
//! Nodes are never copied in or out. The cache holds each node behind
//! an [`Arc`]: a read walk shares it ([`NodeCache::get`]), a mutation
//! walk takes it out ([`NodeCache::take`]) — the taken node is about to
//! be superseded, so its slot frees at once — and a commit moves each
//! freshly hashed node in ([`NodeCache::put`]). A node whose last link
//! is released leaves the cache with the store ([`NodeCache::remove`]).
//!
//! Hit/miss/eviction counts feed both the per-instance
//! [`crate::trie::TrieStats`] (always on, for assertions) and the global
//! `mtpu-telemetry` registry (`statedb.cache.*`, gated on
//! [`mtpu_telemetry::enabled`] per the workspace cost contract).

use crate::node::Node;
use mtpu_primitives::map::BoundedMemo;
use mtpu_primitives::B256;
use std::sync::Arc;

/// Default capacity in nodes; at under 1 KiB a decoded node (a branch's
/// boxed links are 640 bytes) this bounds the cache to a few MiB.
pub const DEFAULT_CACHE_CAPACITY: usize = 8192;

/// Bounded FIFO cache mapping node hash → decoded node: a
/// [`BoundedMemo`] of shared nodes plus the hit/miss/eviction
/// accounting.
#[derive(Debug, Clone)]
pub struct NodeCache {
    nodes: BoundedMemo<B256, Arc<Node>>,
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
        self.nodes.capacity()
    }

    /// Lifetime `(hits, misses, evictions)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Shares a cached node with a read walk, counting the hit or miss.
    pub fn get(&mut self, hash: &B256) -> Option<Arc<Node>> {
        let node = self.nodes.get(hash).cloned();
        self.count(node.is_some());
        node
    }

    /// Takes a cached node out for mutation, counting the hit or miss.
    /// The node is copied only if a reader still shares it.
    pub fn take(&mut self, hash: &B256) -> Option<Node> {
        let node = self.nodes.remove(hash);
        self.count(node.is_some());
        node.map(Arc::unwrap_or_clone)
    }

    /// Drops a node that left the store. Neither a lookup nor an
    /// eviction, so no counter moves.
    pub fn remove(&mut self, hash: &B256) {
        self.nodes.remove(hash);
    }

    /// Inserts a decoded node, evicting the oldest entry at capacity.
    pub fn put(&mut self, hash: B256, node: Arc<Node>) {
        let evicted = self.nodes.insert(hash, node);
        self.evictions += evicted;
        if evicted > 0 && mtpu_telemetry::enabled() {
            crate::obs::metrics().cache_evict.add(evicted);
        }
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
            if mtpu_telemetry::enabled() {
                crate::obs::metrics().cache_hit.inc();
            }
        } else {
            self.misses += 1;
            if mtpu_telemetry::enabled() {
                crate::obs::metrics().cache_miss.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(n: u32) -> Arc<Node> {
        Arc::new(Node::Leaf {
            path: vec![(n & 0x0f) as u8],
            value: n.to_be_bytes().to_vec(),
        })
    }

    fn h(n: u32) -> B256 {
        B256::keccak(&n.to_be_bytes())
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
    fn take_counts_and_frees_the_slot() {
        let mut c = NodeCache::new(2);
        assert!(c.take(&h(1)).is_none());
        c.put(h(1), leaf(1));
        assert_eq!(c.take(&h(1)), Some((*leaf(1)).clone()));
        assert!(c.is_empty());
        assert_eq!(c.counters(), (1, 1, 0), "a take is a hit, not an eviction");
    }

    #[test]
    fn re_put_key_survives_its_stale_queue_entry() {
        let mut c = NodeCache::new(2);
        c.put(h(1), leaf(1));
        c.put(h(2), leaf(2));
        c.take(&h(1));
        c.put(h(1), leaf(1)); // queue: 1 (stale), 2, 1
        c.put(h(3), leaf(3)); // must evict 2, the oldest live entry
        assert!(c.get(&h(1)).is_some(), "evicted by its own stale entry");
        assert!(c.get(&h(2)).is_none());
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn interleaved_takes_and_re_puts_stay_bounded() {
        let cap = 64;
        let mut c = NodeCache::new(cap);
        for i in 0..10 * cap as u32 {
            c.put(h(i), leaf(i));
            // Take and re-put a recent key, as a mutation walk followed by
            // the commit of an unchanged node would.
            if i % 3 == 0 {
                let back = i - i % 7;
                if let Some(n) = c.take(&h(back)) {
                    c.put(h(back), Arc::new(n));
                }
            }
            // Take a key for good, as a superseded node is.
            if i % 5 == 0 {
                c.take(&h(i / 2));
            }
            assert!(c.len() <= cap, "live entries over capacity");
        }
        let (_, _, evictions) = c.counters();
        assert!(evictions > 0, "overfilling must count evictions");
        // Puts taken straight back are hits and never evict.
        let mut d = NodeCache::new(cap);
        for i in 0..10 * cap as u32 {
            d.put(h(i), leaf(i));
            d.take(&h(i));
        }
        assert_eq!(d.counters(), (10 * cap as u64, 0, 0));
    }
}
