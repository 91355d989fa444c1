//! Hash-addressed storage of encoded trie nodes.
//!
//! The trie is derived state: the durable checkpoint is the flat
//! accounts store's MANIFEST, and a restarted node rebuilds its trie
//! from the flat store in one sorted pass
//! ([`crate::StateCommitter::bulk_load`]). So the crate ships one
//! backend, [`MemStore`], a plain in-process map; the trait stays so
//! tests can substitute stores that record what the trie writes.
//!
//! [`MemStore`] is an *archive*: nodes are never deleted, so any root
//! committed into it stays readable.

use mtpu_primitives::B256;
use std::collections::HashMap;

/// Hash-addressed storage of encoded trie nodes.
pub trait NodeStore {
    /// The raw encoding of the node with this hash, if present.
    fn get(&self, hash: &B256) -> Option<Vec<u8>>;

    /// Stores one encoded node under its hash. Idempotent: storing the
    /// same hash twice is a no-op (content-addressed data never changes).
    fn put(&mut self, hash: B256, raw: Vec<u8>);
}

/// An in-process, non-persistent node store.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    nodes: HashMap<B256, Vec<u8>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl NodeStore for MemStore {
    fn get(&self, hash: &B256) -> Option<Vec<u8>> {
        self.nodes.get(hash).cloned()
    }

    fn put(&mut self, hash: B256, raw: Vec<u8>) {
        self.nodes.entry(hash).or_insert(raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_round_trips() {
        let mut s = MemStore::new();
        let (h, raw) = (B256::keccak(b"hello"), b"hello".to_vec());
        assert!(s.get(&h).is_none());
        s.put(h, raw.clone());
        assert_eq!(s.get(&h), Some(raw.clone()));
        s.put(h, b"other".to_vec());
        assert_eq!(s.get(&h), Some(raw), "first put wins");
    }
}
