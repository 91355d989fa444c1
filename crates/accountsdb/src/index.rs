//! The in-memory index of the flat store: for every account, storage
//! slot and code blob, its *newest* value at the absorbed head. Every
//! execution read is one probe here; the storage files are read only to
//! rebuild the index on open.
//!
//! Generations make selfdestruct/recreate cheap: each account carries a
//! generation counter bumped by tombstones and storage resets, and every
//! slot entry remembers the generation it was written under. A slot is
//! visible only when its generation matches the account's current one —
//! no scan over the (unbounded) slot map is ever needed to invalidate
//! stale storage.

use crate::file::AccountMeta;
use mtpu_primitives::map::FastMap;
use mtpu_primitives::{Address, B256, U256};
use std::sync::Arc;

/// Index entry for one account.
#[derive(Debug, Clone, Copy)]
pub struct AccountEntry {
    /// Storage generation; slot entries with a different generation are
    /// invisible.
    pub gen: u32,
    /// The newest account metadata; `None` after a tombstone (the account
    /// does not exist).
    pub meta: Option<AccountMeta>,
}

/// Slot entry: the newest value and the account generation that wrote it.
#[derive(Debug, Clone, Copy)]
pub struct SlotEntry {
    /// Generation the slot was written under.
    pub gen: u32,
    /// The value (zero = cleared).
    pub value: U256,
}

/// The whole flat index, kept behind one `RwLock` in the store: lookups
/// need a consistent (account generation, slot entry) pair.
#[derive(Debug, Default)]
pub struct FlatIndex {
    accounts: FastMap<Address, AccountEntry>,
    slots: FastMap<(Address, U256), SlotEntry>,
    code: FastMap<B256, Arc<Vec<u8>>>,
}

impl FlatIndex {
    /// The account entry, if the address was ever recorded.
    pub fn account(&self, addr: Address) -> Option<AccountEntry> {
        self.accounts.get(&addr).copied()
    }

    /// `addr`'s visible value for `key`, if any.
    pub fn slot(&self, addr: Address, key: U256) -> Option<U256> {
        let gen = self.accounts.get(&addr).map(|a| a.gen).unwrap_or(0);
        match self.slots.get(&(addr, key)) {
            Some(entry) if entry.gen == gen => Some(entry.value),
            _ => None,
        }
    }

    /// The blob for `hash`, if recorded.
    pub fn code(&self, hash: B256) -> Option<&Arc<Vec<u8>>> {
        self.code.get(&hash)
    }

    /// Records an account upsert. `meta.reset_storage` bumps the
    /// generation, hiding every previously indexed slot of the account.
    pub fn upsert_account(&mut self, addr: Address, meta: AccountMeta) {
        let entry = self
            .accounts
            .entry(addr)
            .or_insert(AccountEntry { gen: 0, meta: None });
        if meta.reset_storage {
            entry.gen += 1;
        }
        entry.meta = Some(meta);
    }

    /// Records an account deletion: the metadata vanishes and the
    /// generation bump hides the account's slots.
    pub fn delete_account(&mut self, addr: Address) {
        let entry = self
            .accounts
            .entry(addr)
            .or_insert(AccountEntry { gen: 0, meta: None });
        entry.gen += 1;
        entry.meta = None;
    }

    /// Records a slot write under the account's current generation.
    pub fn upsert_slot(&mut self, addr: Address, key: U256, value: U256) {
        let gen = self.accounts.get(&addr).map(|a| a.gen).unwrap_or(0);
        self.slots.insert((addr, key), SlotEntry { gen, value });
    }

    /// Records a code blob (first write wins; blobs are content-addressed
    /// and immutable).
    pub fn upsert_code(&mut self, hash: B256, code: Arc<Vec<u8>>) {
        self.code.entry(hash).or_insert(code);
    }

    /// Iterates every indexed account entry.
    pub fn iter_accounts(&self) -> impl Iterator<Item = (Address, AccountEntry)> + '_ {
        self.accounts.iter().map(|(a, e)| (*a, *e))
    }

    /// Iterates every slot entry that is visible under its account's
    /// current generation.
    pub fn iter_live_slots(&self) -> impl Iterator<Item = (Address, U256, U256)> + '_ {
        self.slots.iter().filter_map(|((addr, key), entry)| {
            let gen = self.accounts.get(addr).map(|a| a.gen).unwrap_or(0);
            (entry.gen == gen).then_some((*addr, *key, entry.value))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(nonce: u64, reset_storage: bool) -> AccountMeta {
        AccountMeta {
            reset_storage,
            nonce,
            balance: U256::from(nonce * 10),
            code_hash: B256::ZERO,
        }
    }

    #[test]
    fn generation_bump_hides_stale_slots() {
        let mut ix = FlatIndex::default();
        let addr = Address::from_low_u64(1);
        let key = U256::from(5u64);
        ix.upsert_account(addr, meta(1, true));
        ix.upsert_slot(addr, key, U256::from(100u64));
        assert_eq!(ix.slot(addr, key), Some(U256::from(100u64)));

        // Selfdestruct: meta gone, slot invisible without touching it.
        ix.delete_account(addr);
        assert!(ix.account(addr).unwrap().meta.is_none());
        assert_eq!(ix.slot(addr, key), None);

        // Recreate with reset: still invisible; a new write is visible.
        ix.upsert_account(addr, meta(2, true));
        assert_eq!(ix.account(addr).unwrap().meta, Some(meta(2, true)));
        assert_eq!(ix.slot(addr, key), None);
        ix.upsert_slot(addr, key, U256::from(60u64));
        assert_eq!(ix.slot(addr, key), Some(U256::from(60u64)));
        let live: Vec<_> = ix.iter_live_slots().collect();
        assert_eq!(live, vec![(addr, key, U256::from(60u64))]);
    }

    #[test]
    fn non_reset_upsert_keeps_slots_visible() {
        let mut ix = FlatIndex::default();
        let addr = Address::from_low_u64(2);
        ix.upsert_account(addr, meta(1, true));
        ix.upsert_slot(addr, U256::ONE, U256::from(40u64));
        ix.upsert_account(addr, meta(2, false)); // balance update
        assert_eq!(ix.slot(addr, U256::ONE), Some(U256::from(40u64)));
        assert_eq!(ix.account(addr).unwrap().meta, Some(meta(2, false)));
    }

    #[test]
    fn the_first_code_blob_of_a_hash_wins() {
        let mut ix = FlatIndex::default();
        let hash = B256::keccak(b"c");
        ix.upsert_code(hash, Arc::new(b"c".to_vec()));
        ix.upsert_code(hash, Arc::new(b"other".to_vec()));
        assert_eq!(ix.code(hash).map(|c| c.as_slice()), Some(&b"c"[..]));
        assert!(ix.code(B256::ZERO).is_none());
    }
}
