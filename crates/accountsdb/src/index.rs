//! The in-memory index over the storage-file set: for every account and
//! storage slot, where its *newest* record lives.
//!
//! Generations make selfdestruct/recreate cheap: each account carries a
//! generation counter bumped by tombstones and storage resets, and every
//! slot entry remembers the generation it was written under. A slot is
//! visible only when its generation matches the account's current one —
//! no scan over the (unbounded) slot map is ever needed to invalidate
//! stale storage.

use crate::file::Loc;
use mtpu_primitives::map::FastMap;
use mtpu_primitives::{Address, B256, U256};

/// Index entry for one account.
#[derive(Debug, Clone, Copy)]
pub struct AccountEntry {
    /// Storage generation; slot entries with a different generation are
    /// invisible.
    pub gen: u32,
    /// Location of the newest account metadata payload; `None` after a
    /// tombstone (the account does not exist).
    pub meta: Option<Loc>,
}

/// Location of a code blob payload.
#[derive(Debug, Clone, Copy)]
pub struct CodeLoc {
    /// Payload location.
    pub loc: Loc,
    /// Blob length in bytes.
    pub len: u32,
}

/// Slot entry: where the newest value lives and which account generation
/// wrote it.
#[derive(Debug, Clone, Copy)]
pub struct SlotEntry {
    /// Generation the slot was written under.
    pub gen: u32,
    /// Location of the 32-byte value payload.
    pub loc: Loc,
}

/// The whole flat index, kept behind one `RwLock` in the store: lookups
/// need a consistent (account generation, slot entry) pair.
#[derive(Debug, Default)]
pub struct FlatIndex {
    accounts: FastMap<Address, AccountEntry>,
    slots: FastMap<(Address, U256), SlotEntry>,
    code: FastMap<B256, CodeLoc>,
}

impl FlatIndex {
    /// The account entry, if the address was ever recorded.
    pub fn account(&self, addr: Address) -> Option<AccountEntry> {
        self.accounts.get(&addr).copied()
    }

    /// The location of `addr`'s visible value for `key`, if any.
    pub fn slot(&self, addr: Address, key: U256) -> Option<Loc> {
        let gen = self.accounts.get(&addr).map(|a| a.gen).unwrap_or(0);
        match self.slots.get(&(addr, key)) {
            Some(entry) if entry.gen == gen => Some(entry.loc),
            _ => None,
        }
    }

    /// The location of the blob for `hash`, if recorded.
    pub fn code(&self, hash: B256) -> Option<CodeLoc> {
        self.code.get(&hash).copied()
    }

    /// Records an account upsert. `reset_storage` bumps the generation,
    /// hiding every previously indexed slot of the account.
    pub fn upsert_account(&mut self, addr: Address, loc: Loc, reset_storage: bool) {
        let entry = self
            .accounts
            .entry(addr)
            .or_insert(AccountEntry { gen: 0, meta: None });
        if reset_storage {
            entry.gen += 1;
        }
        entry.meta = Some(loc);
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
    pub fn upsert_slot(&mut self, addr: Address, key: U256, loc: Loc) {
        let gen = self.accounts.get(&addr).map(|a| a.gen).unwrap_or(0);
        self.slots.insert((addr, key), SlotEntry { gen, loc });
    }

    /// Records a code blob (first write wins; blobs are content-addressed
    /// and immutable).
    pub fn upsert_code(&mut self, hash: B256, loc: CodeLoc) {
        self.code.entry(hash).or_insert(loc);
    }

    /// Iterates every indexed account entry.
    pub fn iter_accounts(&self) -> impl Iterator<Item = (Address, AccountEntry)> + '_ {
        self.accounts.iter().map(|(a, e)| (*a, *e))
    }

    /// Iterates every slot entry that is visible under its account's
    /// current generation.
    pub fn iter_live_slots(&self) -> impl Iterator<Item = (Address, U256, Loc)> + '_ {
        self.slots.iter().filter_map(|((addr, key), entry)| {
            let gen = self.accounts.get(addr).map(|a| a.gen).unwrap_or(0);
            (entry.gen == gen).then_some((*addr, *key, entry.loc))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(file: u32, offset: u64) -> Loc {
        Loc { file, offset }
    }

    #[test]
    fn generation_bump_hides_stale_slots() {
        let mut ix = FlatIndex::default();
        let addr = Address::from_low_u64(1);
        let key = U256::from(5u64);
        ix.upsert_account(addr, loc(0, 16), true);
        ix.upsert_slot(addr, key, loc(0, 100));
        assert_eq!(ix.slot(addr, key), Some(loc(0, 100)));

        // Selfdestruct: meta gone, slot invisible without touching it.
        ix.delete_account(addr);
        assert!(ix.account(addr).unwrap().meta.is_none());
        assert_eq!(ix.slot(addr, key), None);

        // Recreate with reset: still invisible; a new write is visible.
        ix.upsert_account(addr, loc(1, 16), true);
        assert_eq!(ix.slot(addr, key), None);
        ix.upsert_slot(addr, key, loc(1, 60));
        assert_eq!(ix.slot(addr, key), Some(loc(1, 60)));
        assert_eq!(ix.iter_live_slots().count(), 1);
    }

    #[test]
    fn non_reset_upsert_keeps_slots_visible() {
        let mut ix = FlatIndex::default();
        let addr = Address::from_low_u64(2);
        ix.upsert_account(addr, loc(0, 16), true);
        ix.upsert_slot(addr, U256::ONE, loc(0, 40));
        ix.upsert_account(addr, loc(1, 16), false); // balance update
        assert_eq!(ix.slot(addr, U256::ONE), Some(loc(0, 40)));
    }
}
