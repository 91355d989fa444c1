//! The sharded write cache: committed block deltas land here first, fully
//! resolved, and stay readable until a background flush moves them into
//! an append-only storage file.
//!
//! Entries are *self-contained* for account metadata (nonce, balance,
//! code hash are resolved at absorb time against the pre-absorb view) but
//! *incremental* for storage: the `storage` map holds only slots written
//! since the entry last reached a file; older slots fall through to the
//! flat index. `reset_storage` marks entries whose map is the complete
//! storage (the account was created or re-created), so fall-through must
//! yield zero instead.

use mtpu_primitives::map::FastMap;
use mtpu_primitives::{Address, B256, U256};
use std::sync::{Arc, RwLock};

/// Number of cache shards; reads take one read lock on one shard.
pub const SHARDS: usize = 64;

/// One cached account: the newest committed value of every metadata field
/// plus the storage slots dirtied since the last flush.
#[derive(Debug, Clone)]
pub struct CachedAccount {
    /// Height of the block that last wrote this account — the flush
    /// eligibility cursor (heights only ever increase).
    pub height: u64,
    /// The account was deleted; every other field is meaningless.
    pub deleted: bool,
    /// `storage` is the account's complete storage; flat-layer slots from
    /// earlier generations are invisible.
    pub reset_storage: bool,
    /// Resolved nonce.
    pub nonce: u64,
    /// Resolved balance.
    pub balance: U256,
    /// Resolved code hash (`ZERO` for never-coded accounts, matching
    /// `State` EXTCODEHASH semantics).
    pub code_hash: B256,
    /// Code written since the last flush (shared, not yet in any file).
    pub new_code: Option<Arc<Vec<u8>>>,
    /// Slots written since the last flush (zero value = cleared).
    pub storage: FastMap<U256, U256>,
}

impl CachedAccount {
    /// A deletion marker at `height`.
    pub fn tombstone(height: u64) -> Self {
        CachedAccount {
            height,
            deleted: true,
            reset_storage: true,
            nonce: 0,
            balance: U256::ZERO,
            code_hash: B256::ZERO,
            new_code: None,
            storage: FastMap::default(),
        }
    }
}

/// The sharded cache map.
#[derive(Debug)]
pub struct WriteCache {
    shards: Vec<RwLock<FastMap<Address, CachedAccount>>>,
}

impl Default for WriteCache {
    fn default() -> Self {
        WriteCache::new()
    }
}

impl WriteCache {
    /// An empty cache.
    pub fn new() -> Self {
        WriteCache {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(FastMap::default()))
                .collect(),
        }
    }

    fn shard_of(addr: Address) -> usize {
        // Low bytes of the address spread well for both derived fixture
        // addresses and keccak-derived contract addresses.
        let b = addr.as_bytes();
        (usize::from(b[19]) | usize::from(b[18]) << 8) % SHARDS
    }

    /// Runs `f` on the cached entry for `addr`, if present.
    pub fn with_entry<R>(&self, addr: Address, f: impl FnOnce(&CachedAccount) -> R) -> Option<R> {
        let shard = self.shards[Self::shard_of(addr)]
            .read()
            .expect("cache shard poisoned");
        shard.get(&addr).map(f)
    }

    /// Inserts or replaces the entry for `addr`.
    pub fn insert(&self, addr: Address, entry: CachedAccount) {
        self.shards[Self::shard_of(addr)]
            .write()
            .expect("cache shard poisoned")
            .insert(addr, entry);
    }

    /// Mutates the entry for `addr` in place (or inserts the result of
    /// `make` first when absent).
    pub fn upsert(
        &self,
        addr: Address,
        make: impl FnOnce() -> CachedAccount,
        update: impl FnOnce(&mut CachedAccount),
    ) {
        let mut shard = self.shards[Self::shard_of(addr)]
            .write()
            .expect("cache shard poisoned");
        update(shard.entry(addr).or_insert_with(make));
    }

    /// Total cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones every entry with `height <= up_to`, sorted by address — the
    /// flush collection pass. Entries stay readable until
    /// [`WriteCache::evict_flushed`] removes them after the flush has
    /// landed in the index.
    pub fn collect_up_to(&self, up_to: u64) -> Vec<(Address, CachedAccount)> {
        let mut batch = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("cache shard poisoned");
            for (addr, entry) in shard.iter() {
                if entry.height <= up_to {
                    batch.push((*addr, entry.clone()));
                }
            }
        }
        batch.sort_unstable_by_key(|(addr, _)| *addr);
        batch
    }

    /// Removes entries whose height is still `<= up_to` — exactly the set
    /// a completed flush covered, because absorbs use strictly increasing
    /// heights, so any entry touched after collection moved past `up_to`.
    pub fn evict_flushed(&self, up_to: u64) {
        for shard in &self.shards {
            shard
                .write()
                .expect("cache shard poisoned")
                .retain(|_, entry| entry.height > up_to);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(height: u64, balance: u64) -> CachedAccount {
        CachedAccount {
            height,
            deleted: false,
            reset_storage: false,
            nonce: 0,
            balance: U256::from(balance),
            code_hash: B256::ZERO,
            new_code: None,
            storage: FastMap::default(),
        }
    }

    #[test]
    fn collect_and_evict_respect_the_height_cursor() {
        let cache = WriteCache::new();
        cache.insert(Address::from_low_u64(1), entry(1, 10));
        cache.insert(Address::from_low_u64(2), entry(2, 20));
        cache.insert(Address::from_low_u64(3), entry(3, 30));

        let batch = cache.collect_up_to(2);
        let addrs: Vec<Address> = batch.iter().map(|(a, _)| *a).collect();
        assert_eq!(
            addrs,
            vec![Address::from_low_u64(1), Address::from_low_u64(2)]
        );

        cache.evict_flushed(2);
        assert_eq!(cache.len(), 1);
        assert!(cache
            .with_entry(Address::from_low_u64(3), |e| e.balance)
            .is_some());
    }

    #[test]
    fn entries_touched_after_collection_survive_eviction() {
        let cache = WriteCache::new();
        let addr = Address::from_low_u64(9);
        cache.insert(addr, entry(1, 10));
        let _batch = cache.collect_up_to(1);
        // A newer block rewrites the account before the flush lands.
        cache.insert(addr, entry(5, 50));
        cache.evict_flushed(1);
        assert_eq!(
            cache.with_entry(addr, |e| e.balance),
            Some(U256::from(50u64))
        );
    }
}
