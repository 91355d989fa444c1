//! Hash-addressed, reference-counted storage of encoded trie nodes.
//!
//! The trie is derived state: the durable checkpoint is the flat
//! accounts store's MANIFEST, and a restarted node rebuilds its trie
//! from the flat store in one sorted pass
//! ([`crate::StateCommitter::bulk_load`]). So the crate ships one
//! backend, [`MemStore`], a plain in-process map; the trait stays so
//! tests can substitute stores that record what the trie writes.
//!
//! The store is a *working set*, not an archive. Each node carries a
//! count: the number of hash links to it, from other stored nodes (each
//! distinct node counted once), from in-memory nodes awaiting commit,
//! and from root handles (the account-trie root, and each account's
//! storage root). A node leaves the store when its count reaches zero,
//! so the store holds exactly the live trie, and a root becomes
//! unreadable once a later mutation supersedes its nodes.
//!
//! The store is also the trie's one node structure: nothing holds a
//! decoded copy of a committed node. A read or a mutation resolves a
//! hash link by decoding the bytes stored here, and a commit hands over
//! a node's encoding and drops the node. Decoded nodes take about 3.6×
//! the heap of their encodings, so keeping them instead would not fit a
//! wide state's memory bound.

use mtpu_primitives::map::FastMap;
use mtpu_primitives::B256;
use std::collections::hash_map::Entry;

/// Hash-addressed, reference-counted storage of encoded trie nodes.
pub trait NodeStore {
    /// The raw encoding of the node with this hash, if present.
    fn get(&self, hash: &B256) -> Option<&[u8]>;

    /// Adds one link to the node `raw` under `hash`: a new hash is
    /// stored with count 1, an existing one keeps its bytes (content-
    /// addressed data never changes) and gains 1. Returns `true` when the
    /// node was newly stored.
    fn put(&mut self, hash: B256, raw: Vec<u8>) -> bool;

    /// Adds one link to a stored node.
    ///
    /// # Panics
    ///
    /// If no node is stored under `hash`.
    fn retain(&mut self, hash: &B256);

    /// Drops one link to a stored node. When that was the last link the
    /// node is removed and its encoding returned.
    ///
    /// # Panics
    ///
    /// If no node is stored under `hash`.
    fn release(&mut self, hash: &B256) -> Option<Vec<u8>>;
}

/// An in-process, non-persistent node store. An entry is the encoding
/// and its link count, so a slot is as large as a bare `Vec<u8>` one.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    nodes: FastMap<B256, (Box<[u8]>, u32)>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        MemStore::default()
    }

    /// Nodes currently stored.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no node is stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Every stored node's hash and link count, in no particular order.
    pub fn counts(&self) -> impl Iterator<Item = (&B256, u32)> {
        self.nodes.iter().map(|(hash, &(_, count))| (hash, count))
    }
}

impl NodeStore for MemStore {
    fn get(&self, hash: &B256) -> Option<&[u8]> {
        self.nodes.get(hash).map(|(raw, _)| &raw[..])
    }

    fn put(&mut self, hash: B256, raw: Vec<u8>) -> bool {
        match self.nodes.entry(hash) {
            Entry::Occupied(mut e) => {
                e.get_mut().1 += 1;
                false
            }
            Entry::Vacant(e) => {
                e.insert((raw.into_boxed_slice(), 1));
                true
            }
        }
    }

    fn retain(&mut self, hash: &B256) {
        match self.nodes.get_mut(hash) {
            Some((_, count)) => *count += 1,
            None => panic!("retain of missing trie node {hash}"),
        }
    }

    fn release(&mut self, hash: &B256) -> Option<Vec<u8>> {
        let Entry::Occupied(mut e) = self.nodes.entry(*hash) else {
            panic!("release of missing trie node {hash}");
        };
        if e.get().1 > 1 {
            e.get_mut().1 -= 1;
            return None;
        }
        Some(e.remove().0.into_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_counts_links() {
        let mut s = MemStore::new();
        let (h, raw) = (B256::keccak(b"hello"), b"hello".to_vec());
        assert!(s.get(&h).is_none());
        assert!(s.put(h, raw.clone()), "new hash");
        assert_eq!(s.get(&h), Some(&raw[..]));
        assert!(!s.put(h, b"other".to_vec()), "existing hash");
        assert_eq!(s.get(&h), Some(&raw[..]), "first put wins");
        s.retain(&h);
        assert_eq!(s.counts().collect::<Vec<_>>(), vec![(&h, 3)]);
        assert_eq!(s.release(&h), None);
        assert_eq!(s.release(&h), None);
        assert_eq!(s.release(&h), Some(raw), "last link frees the node");
        assert!(s.is_empty() && s.get(&h).is_none());
    }

    #[test]
    #[should_panic(expected = "release of missing trie node")]
    fn releasing_an_absent_node_panics() {
        MemStore::new().release(&B256::keccak(b"absent"));
    }
}
