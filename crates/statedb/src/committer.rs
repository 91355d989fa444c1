//! The *secure* state trie: account and storage commitment on top of
//! [`Trie`].
//!
//! Layout follows Ethereum exactly:
//!
//! * the account trie is keyed by `keccak(address)`; each leaf holds
//!   `rlp([nonce, balance, storage_root, code_hash])`;
//! * each account's storage trie is keyed by `keccak(slot_be32)` with
//!   `rlp(value_trimmed)` leaves, and its root is embedded in the
//!   account leaf — so one 32-byte state root authenticates every
//!   account field and every storage slot;
//! * zero-valued slots and empty values are absent, not stored.
//!
//! [`StateCommitter`] keeps the account trie open across blocks and
//! re-opens per-account storage tries from the roots recorded in the
//! account leaves, so a block that touches *k* accounts re-hashes only
//! those accounts' paths.
//!
//! Each account holds one link to its storage root in the node store:
//! the account leaf holds it, and hands it to the open storage trie
//! while the account is dirty. Resetting or deleting an account
//! releases that link, so the store keeps only live storage nodes.

use crate::store::NodeStore;
use crate::trie::{empty_root, NodeDb, Trie, TrieStats};
use mtpu_primitives::map::{BoundedMemo, FastMap};
use mtpu_primitives::rlp::{self, Item};
use mtpu_primitives::{Address, B256, EMPTY_CODE_HASH, U256};

/// Bound on each secure-key memo (addresses and slots memoized
/// separately); at 52–64 bytes an entry this is a few hundred KiB.
const SECURE_KEY_MEMO_CAPACITY: usize = 4096;

/// The four-field account body stored in an account-trie leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccountRecord {
    /// Transaction / creation counter.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Root of this account's storage trie.
    pub storage_root: B256,
    /// `keccak(code)`.
    pub code_hash: B256,
}

impl AccountRecord {
    /// A fresh account: zero nonce and balance, empty storage and code.
    pub fn empty() -> AccountRecord {
        AccountRecord {
            nonce: 0,
            balance: U256::ZERO,
            storage_root: empty_root(),
            code_hash: EMPTY_CODE_HASH,
        }
    }

    /// Canonical `rlp([nonce, balance, storage_root, code_hash])`.
    pub fn encode(&self) -> Vec<u8> {
        rlp::encode_list(&[
            Item::uint(self.nonce),
            Item::u256(self.balance),
            Item::bytes(self.storage_root.as_bytes().to_vec()),
            Item::bytes(self.code_hash.as_bytes().to_vec()),
        ])
    }

    /// Decodes an account body; `None` if the bytes are not a well-formed
    /// four-field record.
    pub fn decode(raw: &[u8]) -> Option<AccountRecord> {
        let item = rlp::decode(raw).ok()?;
        let fields = item.as_list()?;
        if fields.len() != 4 {
            return None;
        }
        let nonce = fields[0].to_u256().ok()?.try_to_u64()?;
        let balance = fields[1].to_u256().ok()?;
        let storage_root = B256::new(fields[2].as_bytes()?.try_into().ok()?);
        let code_hash = B256::new(fields[3].as_bytes()?.try_into().ok()?);
        Some(AccountRecord {
            nonce,
            balance,
            storage_root,
            code_hash,
        })
    }
}

/// One account's worth of changes for [`StateCommitter::update_account`].
#[derive(Debug, Clone)]
pub struct AccountUpdate {
    /// New nonce.
    pub nonce: u64,
    /// New balance.
    pub balance: U256,
    /// New code hash ([`EMPTY_CODE_HASH`] for code-less accounts).
    pub code_hash: B256,
    /// When `true`, the account's previous storage trie is discarded and
    /// rebuilt from `storage` alone (account re-creation after deletion);
    /// when `false`, `storage` is applied as a delta over the existing
    /// trie.
    pub reset_storage: bool,
    /// Slot writes; a zero value removes the slot.
    pub storage: Vec<(U256, U256)>,
}

impl AccountUpdate {
    /// An update carrying just nonce/balance/code, no storage writes.
    pub fn plain(nonce: u64, balance: U256, code_hash: B256) -> AccountUpdate {
        AccountUpdate {
            nonce,
            balance,
            code_hash,
            reset_storage: false,
            storage: Vec::new(),
        }
    }
}

/// Authenticated state commitment over a pluggable node store.
///
/// ```
/// use mtpu_primitives::{Address, EMPTY_CODE_HASH, U256};
/// use mtpu_statedb::{AccountUpdate, MemStore, StateCommitter};
///
/// let mut c = StateCommitter::new(MemStore::new());
/// let mut up = AccountUpdate::plain(1, U256::from_limbs([100, 0, 0, 0]),
///                                   EMPTY_CODE_HASH);
/// up.storage.push((U256::ONE, U256::from_limbs([7, 0, 0, 0])));
/// c.update_account(&Address::from_low_u64(1), &up);
/// let root = c.commit();
/// assert_ne!(root, mtpu_statedb::empty_root());
/// ```
#[derive(Debug)]
pub struct StateCommitter<S: NodeStore> {
    db: NodeDb<S>,
    accounts: Trie,
    /// Accounts with open (uncommitted) storage tries, in first-touch
    /// order — the order a commit hashes them in, so the store's append
    /// order does not follow hash-map iteration order.
    dirty: Vec<(Address, OpenAccount)>,
    /// Address → index into `dirty`.
    dirty_index: FastMap<Address, usize>,
    keys: SecureKeys,
}

/// A buffered account: its pending record fields plus its open storage
/// trie. The record's `storage_root` is stale until the trie commits.
#[derive(Debug)]
struct OpenAccount {
    record: AccountRecord,
    storage: Trie,
}

/// Bounded memos of the secure-trie key hashes (the keccak of every
/// touched address and slot), so hot accounts and slots hash their keys
/// once per eviction window instead of once per touch.
#[derive(Debug)]
struct SecureKeys {
    addrs: BoundedMemo<Address, B256>,
    slots: BoundedMemo<U256, B256>,
}

impl SecureKeys {
    fn new() -> SecureKeys {
        SecureKeys {
            addrs: BoundedMemo::new(SECURE_KEY_MEMO_CAPACITY),
            slots: BoundedMemo::new(SECURE_KEY_MEMO_CAPACITY),
        }
    }

    /// Secure account-trie key: `keccak(address)`.
    fn account(&mut self, addr: &Address) -> B256 {
        self.addrs
            .get_or_insert_with(addr, || B256::keccak(addr.as_bytes()))
    }

    /// Secure storage-trie key: `keccak(slot as 32 big-endian bytes)`.
    fn slot(&mut self, slot: U256) -> B256 {
        self.slots
            .get_or_insert_with(&slot, || B256::keccak(&slot.to_be_bytes()))
    }
}

impl<S: NodeStore> StateCommitter<S> {
    /// An empty committer over `store`. The trie is derived state: a
    /// restart rebuilds it from the flat store with
    /// [`StateCommitter::bulk_load`].
    pub fn new(store: S) -> StateCommitter<S> {
        StateCommitter {
            db: NodeDb::new(store),
            accounts: Trie::empty(),
            dirty: Vec::new(),
            dirty_index: FastMap::default(),
            keys: SecureKeys::new(),
        }
    }

    /// Returns the committer unchanged: every commit runs on the calling
    /// thread. It stays only because `spine/`'s staged loop names it.
    pub fn with_threads(self, _threads: usize) -> StateCommitter<S> {
        self
    }

    /// Reads an account record, if the account exists. For an account
    /// with buffered changes this commits its open storage trie first so
    /// the returned `storage_root` is live.
    pub fn account(&mut self, addr: &Address) -> Option<AccountRecord> {
        if let Some(&i) = self.dirty_index.get(addr) {
            let entry = &mut self.dirty[i].1;
            entry.record.storage_root = entry.storage.commit_into(&mut self.db);
            return Some(entry.record);
        }
        let key = self.keys.account(addr);
        let raw = self.accounts.get(&mut self.db, key.as_bytes())?;
        Some(AccountRecord::decode(&raw).expect("stored account record decodes"))
    }

    /// Reads one storage slot (zero when absent); buffered writes are
    /// visible immediately.
    pub fn storage_value(&mut self, addr: &Address, slot: U256) -> U256 {
        let key = self.keys.slot(slot);
        let raw = if let Some(&i) = self.dirty_index.get(addr) {
            self.dirty[i].1.storage.get(&mut self.db, key.as_bytes())
        } else {
            let Some(record) = self.account(addr) else {
                return U256::ZERO;
            };
            Trie::from_root(record.storage_root).get(&mut self.db, key.as_bytes())
        };
        match raw {
            Some(raw) => rlp::decode(&raw)
                .ok()
                .and_then(|item| item.to_u256().ok())
                .expect("stored slot value decodes"),
            None => U256::ZERO,
        }
    }

    /// Applies one account's changes to its buffered record and open
    /// storage trie. Nothing is hashed here — the storage trie commits at
    /// the next [`StateCommitter::commit`].
    pub fn update_account(&mut self, addr: &Address, up: &AccountUpdate) {
        let i = match self.dirty_index.get(addr) {
            Some(&i) => i,
            None => {
                let key = self.keys.account(addr);
                let record = self
                    .accounts
                    .get(&mut self.db, key.as_bytes())
                    .map(|raw| AccountRecord::decode(&raw).expect("stored account record decodes"))
                    .unwrap_or_else(AccountRecord::empty);
                let storage = Trie::from_root(record.storage_root);
                let i = self.dirty.len();
                self.dirty.push((*addr, OpenAccount { record, storage }));
                self.dirty_index.insert(*addr, i);
                i
            }
        };
        let entry = &mut self.dirty[i].1;
        entry.record.nonce = up.nonce;
        entry.record.balance = up.balance;
        entry.record.code_hash = up.code_hash;
        if up.reset_storage {
            std::mem::take(&mut entry.storage).release(&mut self.db);
        }
        for &(slot, value) in &up.storage {
            let key = self.keys.slot(slot);
            let entry = &mut self.dirty[i].1;
            if value.is_zero() {
                entry.storage.remove(&mut self.db, key.as_bytes());
            } else {
                let raw = rlp::encode(&Item::u256(value));
                entry.storage.insert(&mut self.db, key.as_bytes(), &raw);
            }
        }
    }

    /// Removes an account (selfdestruct), discarding any buffered
    /// changes. Its storage trie is released: nodes no other account
    /// shares leave the store.
    pub fn delete_account(&mut self, addr: &Address) {
        let key = self.keys.account(addr);
        if let Some(i) = self.dirty_index.remove(addr) {
            let (_, entry) = self.dirty.remove(i);
            entry.storage.release(&mut self.db);
            for idx in self.dirty_index.values_mut() {
                if *idx > i {
                    *idx -= 1;
                }
            }
        } else if let Some(raw) = self.accounts.get(&mut self.db, key.as_bytes()) {
            let record = AccountRecord::decode(&raw).expect("stored account record decodes");
            Trie::from_root(record.storage_root).release(&mut self.db);
        }
        self.accounts.remove(&mut self.db, key.as_bytes());
    }

    /// Commits every dirty path and returns the state root.
    ///
    /// Buffered storage tries commit first, in first-touch order, then
    /// their account leaves are inserted in the same order and the
    /// accounts trie commits. The store's append order is therefore a
    /// pure function of the updates; see DESIGN.md §10.
    pub fn commit(&mut self) -> B256 {
        let _span = mtpu_telemetry::span("statedb.commit", "statedb");
        self.flush_dirty();
        self.accounts.commit(&mut self.db)
    }

    /// Builds a whole state into this fresh committer in one sorted pass
    /// and returns the state root.
    ///
    /// Each update carries its account's complete storage
    /// (`reset_storage` is implied); zero values are skipped. Storage
    /// tries are built with [`Trie::build_sorted`] in caller order — pass
    /// accounts in address order for a reproducible append order — then the
    /// account trie over the leaves sorted by `keccak(address)`. Nodes
    /// reach the store and cache in the order an
    /// [`StateCommitter::update_account`] loop plus
    /// [`StateCommitter::commit`] sinks them, so the store's contents and
    /// append order, the cache and [`TrieStats`] end exactly as that
    /// path leaves them.
    ///
    /// # Panics
    ///
    /// If the committer holds accounts or buffered updates, or an
    /// address or a slot appears twice.
    pub fn bulk_load<I>(&mut self, accounts: I) -> B256
    where
        I: IntoIterator<Item = (Address, AccountUpdate)>,
    {
        assert!(
            self.accounts.is_empty() && self.dirty.is_empty(),
            "bulk_load needs a fresh committer"
        );
        let _span = mtpu_telemetry::span("statedb.build", "statedb");
        let hashed_before = self.db.stats().nodes_hashed;
        let mut leaves = Vec::new();
        let mut slots = Vec::new();
        for (addr, up) in accounts {
            slots.clear();
            slots.extend(up.storage.iter().filter(|(_, value)| !value.is_zero()).map(
                |&(slot, value)| {
                    let key = B256::keccak(&slot.to_be_bytes());
                    (key, rlp::encode(&Item::u256(value)))
                },
            ));
            slots.sort_unstable_by_key(|&(key, _)| key);
            let record = AccountRecord {
                nonce: up.nonce,
                balance: up.balance,
                storage_root: Trie::build_sorted(&mut self.db, &mut slots),
                code_hash: up.code_hash,
            };
            leaves.push((B256::keccak(addr.as_bytes()), record.encode()));
        }
        leaves.sort_unstable_by_key(|&(key, _)| key);
        let root = Trie::build_sorted(&mut self.db, &mut leaves);
        self.accounts = Trie::from_root(root);
        self.db.count_commit(hashed_before);
        root
    }

    /// Commits all open storage tries and inserts their account leaves.
    fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        self.dirty_index.clear();
        for (_, entry) in dirty.iter_mut() {
            entry.record.storage_root = entry.storage.commit_into(&mut self.db);
        }
        for (addr, entry) in &dirty {
            let key = self.keys.account(addr);
            self.accounts
                .insert(&mut self.db, key.as_bytes(), &entry.record.encode());
        }
    }

    /// Work-counter snapshot for the underlying node db.
    pub fn stats(&self) -> TrieStats {
        self.db.stats()
    }

    /// Borrows the backing store.
    pub fn store(&self) -> &S {
        self.db.store()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn u(n: u64) -> U256 {
        U256::from_limbs([n, 0, 0, 0])
    }

    #[test]
    fn account_record_round_trips() {
        let rec = AccountRecord {
            nonce: 42,
            balance: u(1_000_000),
            storage_root: B256::keccak(b"storage"),
            code_hash: B256::keccak(b"code"),
        };
        assert_eq!(AccountRecord::decode(&rec.encode()), Some(rec));
        let empty = AccountRecord::empty();
        assert_eq!(AccountRecord::decode(&empty.encode()), Some(empty));
        assert!(AccountRecord::decode(b"junk").is_none());
    }

    #[test]
    fn empty_state_has_empty_root() {
        let mut c = StateCommitter::new(MemStore::new());
        assert_eq!(c.commit(), empty_root());
    }

    #[test]
    fn storage_writes_change_root_and_read_back() {
        let mut c = StateCommitter::new(MemStore::new());
        let addr = Address::from_low_u64(7);
        let mut up = AccountUpdate::plain(1, u(500), EMPTY_CODE_HASH);
        up.storage.push((u(1), u(11)));
        up.storage.push((u(2), u(22)));
        c.update_account(&addr, &up);
        let r1 = c.commit();

        assert_eq!(c.storage_value(&addr, u(1)), u(11));
        assert_eq!(c.storage_value(&addr, u(2)), u(22));
        assert_eq!(c.storage_value(&addr, u(3)), U256::ZERO);
        let rec = c.account(&addr).unwrap();
        assert_eq!(rec.nonce, 1);
        assert_eq!(rec.balance, u(500));
        assert_ne!(rec.storage_root, empty_root());

        // Zeroing both slots restores the empty storage root.
        let mut clear = AccountUpdate::plain(2, u(500), EMPTY_CODE_HASH);
        clear.storage.push((u(1), U256::ZERO));
        clear.storage.push((u(2), U256::ZERO));
        c.update_account(&addr, &clear);
        let r2 = c.commit();
        assert_ne!(r1, r2);
        assert_eq!(c.account(&addr).unwrap().storage_root, empty_root());
    }

    #[test]
    fn delete_account_restores_prior_root() {
        let mut c = StateCommitter::new(MemStore::new());
        let a = Address::from_low_u64(1);
        let b = Address::from_low_u64(2);
        c.update_account(&a, &AccountUpdate::plain(1, u(10), EMPTY_CODE_HASH));
        let only_a = c.commit();
        c.update_account(&b, &AccountUpdate::plain(1, u(20), EMPTY_CODE_HASH));
        let both = c.commit();
        assert_ne!(only_a, both);
        c.delete_account(&b);
        assert_eq!(c.commit(), only_a);
        assert!(c.account(&b).is_none());
    }

    #[test]
    fn reset_storage_discards_old_slots() {
        let mut c = StateCommitter::new(MemStore::new());
        let addr = Address::from_low_u64(9);
        let mut up = AccountUpdate::plain(1, u(1), EMPTY_CODE_HASH);
        up.storage.push((u(5), u(55)));
        c.update_account(&addr, &up);
        c.commit();

        // Re-create the account with different storage; slot 5 must not
        // leak through.
        let mut fresh = AccountUpdate::plain(1, u(1), EMPTY_CODE_HASH);
        fresh.reset_storage = true;
        fresh.storage.push((u(6), u(66)));
        c.update_account(&addr, &fresh);
        c.commit();
        assert_eq!(c.storage_value(&addr, u(5)), U256::ZERO);
        assert_eq!(c.storage_value(&addr, u(6)), u(66));
    }
}
