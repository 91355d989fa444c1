//! The world state: accounts, balances, contract code and storage, with a
//! journal that supports nested checkpoints for `REVERT` and failed calls.
//!
//! This plays the role of the paper's *State* data in main memory
//! (Table 4): address, nonce, balance, code, storage.

use mtpu_primitives::map::FastMap;
use mtpu_primitives::{keccak256, Address, B256, EMPTY_CODE_HASH, U256};

/// A single account: externally owned (empty code) or contract.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Account {
    /// Transaction (or creation) serial number.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Contract bytecode (empty for EOAs).
    pub code: Vec<u8>,
    /// Keccak-256 of `code`.
    pub code_hash: B256,
    /// Contract storage.
    pub storage: FastMap<U256, U256>,
}

impl Account {
    /// An account holding only a balance.
    pub fn with_balance(balance: U256) -> Self {
        Account {
            balance,
            code_hash: EMPTY_CODE_HASH,
            ..Default::default()
        }
    }

    /// `true` if nonce, balance and code are all empty (EIP-161 notion).
    pub fn is_empty(&self) -> bool {
        self.nonce == 0 && self.balance.is_zero() && self.code.is_empty()
    }
}

/// One reversible state mutation recorded in the journal.
#[derive(Debug, Clone)]
enum JournalEntry {
    /// Account was created by this execution.
    AccountCreated(Address),
    /// Balance changed; stores the previous value.
    BalanceChanged(Address, U256),
    /// Nonce changed; stores the previous value.
    NonceChanged(Address, u64),
    /// Storage slot changed; stores the previous value (`None` = absent).
    StorageChanged(Address, U256, Option<U256>),
    /// Code was set; stores the previous code + hash.
    CodeChanged(Address, Vec<u8>, B256),
    /// Account was marked self-destructed.
    Destructed(Address),
}

/// A checkpoint into the journal, returned by [`State::checkpoint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

impl Checkpoint {
    /// Journal position wrapped by this checkpoint (crate-internal: the
    /// overlay keeps its own journal and reuses the same handle type).
    pub(crate) fn position(self) -> usize {
        self.0
    }

    /// Wraps a raw journal position (crate-internal, see [`Self::position`]).
    pub(crate) fn from_position(pos: usize) -> Self {
        Checkpoint(pos)
    }
}

/// The journaled world state.
///
/// All mutations go through methods that record undo entries; a failed call
/// frame rolls back to its [`Checkpoint`] without disturbing outer frames.
///
/// ```
/// use mtpu_evm::state::State;
/// use mtpu_primitives::{Address, U256};
///
/// let mut st = State::new();
/// let a = Address::from_low_u64(1);
/// st.credit(a, U256::from(100u64));
/// let cp = st.checkpoint();
/// st.credit(a, U256::from(1u64));
/// st.revert_to(cp);
/// assert_eq!(st.balance(a), U256::from(100u64));
/// ```
#[derive(Debug, Clone, Default)]
pub struct State {
    accounts: FastMap<Address, Account>,
    journal: Vec<JournalEntry>,
    destructed: Vec<Address>,
}

impl State {
    /// Creates an empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Number of existing accounts.
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// `true` if the account exists.
    pub fn exists(&self, addr: Address) -> bool {
        self.accounts.contains_key(&addr)
    }

    /// Borrows an account if present.
    pub fn account(&self, addr: Address) -> Option<&Account> {
        self.accounts.get(&addr)
    }

    /// Account balance (zero for absent accounts).
    pub fn balance(&self, addr: Address) -> U256 {
        self.accounts
            .get(&addr)
            .map(|a| a.balance)
            .unwrap_or(U256::ZERO)
    }

    /// Account nonce (zero for absent accounts).
    pub fn nonce(&self, addr: Address) -> u64 {
        self.accounts.get(&addr).map(|a| a.nonce).unwrap_or(0)
    }

    /// Contract code (empty for absent accounts and EOAs).
    pub fn code(&self, addr: Address) -> &[u8] {
        self.accounts
            .get(&addr)
            .map(|a| a.code.as_slice())
            .unwrap_or(&[])
    }

    /// Hash of the contract code; zero for absent accounts (EVM
    /// `EXTCODEHASH` semantics for nonexistent accounts).
    pub fn code_hash(&self, addr: Address) -> B256 {
        self.accounts
            .get(&addr)
            .map(|a| a.code_hash)
            .unwrap_or(B256::ZERO)
    }

    /// Storage slot value (zero for absent slots).
    pub fn storage(&self, addr: Address, key: U256) -> U256 {
        self.accounts
            .get(&addr)
            .and_then(|a| a.storage.get(&key).copied())
            .unwrap_or(U256::ZERO)
    }

    fn ensure_account(&mut self, addr: Address) -> &mut Account {
        if !self.accounts.contains_key(&addr) {
            self.journal.push(JournalEntry::AccountCreated(addr));
            self.accounts
                .insert(addr, Account::with_balance(U256::ZERO));
        }
        self.accounts.get_mut(&addr).expect("just inserted")
    }

    /// Installs a pre-state account directly, bypassing the journal. For
    /// genesis/test setup only.
    pub fn insert_account(&mut self, addr: Address, account: Account) {
        self.accounts.insert(addr, account);
    }

    /// Deploys `code` at `addr` bypassing the journal (genesis helper).
    pub fn deploy_code(&mut self, addr: Address, code: Vec<u8>) {
        let mut acc = self.accounts.remove(&addr).unwrap_or_default();
        acc.code_hash = B256::new(keccak256(&code));
        acc.code = code;
        self.accounts.insert(addr, acc);
    }

    /// Adds to a balance (journaled).
    pub fn credit(&mut self, addr: Address, amount: U256) {
        let prev = self.balance(addr);
        self.ensure_account(addr);
        self.journal.push(JournalEntry::BalanceChanged(addr, prev));
        self.accounts.get_mut(&addr).expect("ensured above").balance = prev + amount;
    }

    /// Subtracts from a balance (journaled).
    ///
    /// Returns `false` (and leaves state untouched) on insufficient funds.
    pub fn debit(&mut self, addr: Address, amount: U256) -> bool {
        let prev = self.balance(addr);
        if prev < amount {
            return false;
        }
        self.ensure_account(addr);
        self.journal.push(JournalEntry::BalanceChanged(addr, prev));
        self.accounts.get_mut(&addr).expect("ensured above").balance = prev - amount;
        true
    }

    /// Moves value between accounts (journaled).
    pub fn transfer(&mut self, from: Address, to: Address, amount: U256) -> bool {
        if amount.is_zero() {
            return true;
        }
        if !self.debit(from, amount) {
            return false;
        }
        self.credit(to, amount);
        true
    }

    /// Increments a nonce (journaled).
    pub fn bump_nonce(&mut self, addr: Address) {
        let prev = self.nonce(addr);
        self.ensure_account(addr);
        self.journal.push(JournalEntry::NonceChanged(addr, prev));
        self.accounts.get_mut(&addr).expect("ensured above").nonce = prev + 1;
    }

    /// Writes a storage slot (journaled). Returns the previous value.
    pub fn set_storage(&mut self, addr: Address, key: U256, value: U256) -> U256 {
        let acc = self.ensure_account(addr);
        let prev = acc.storage.get(&key).copied();
        self.journal
            .push(JournalEntry::StorageChanged(addr, key, prev));
        let acc = self.accounts.get_mut(&addr).expect("ensured above");
        if value.is_zero() {
            acc.storage.remove(&key);
        } else {
            acc.storage.insert(key, value);
        }
        prev.unwrap_or(U256::ZERO)
    }

    /// Sets contract code (journaled) — the final step of `CREATE`.
    pub fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        let acc = self.ensure_account(addr);
        let prev_code = std::mem::take(&mut acc.code);
        let prev_hash = acc.code_hash;
        self.journal
            .push(JournalEntry::CodeChanged(addr, prev_code, prev_hash));
        let acc = self.accounts.get_mut(&addr).expect("ensured above");
        acc.code_hash = B256::new(keccak256(&code));
        acc.code = code;
    }

    /// Marks an account self-destructed; it is removed at [`State::finalize_tx`].
    pub fn mark_destructed(&mut self, addr: Address) {
        self.journal.push(JournalEntry::Destructed(addr));
        self.destructed.push(addr);
    }

    /// Opens a checkpoint for a call frame.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.journal.len())
    }

    /// Rolls back every mutation after `cp`, in reverse order.
    pub fn revert_to(&mut self, cp: Checkpoint) {
        while self.journal.len() > cp.0 {
            match self.journal.pop().expect("len > cp") {
                JournalEntry::AccountCreated(addr) => {
                    self.accounts.remove(&addr);
                }
                JournalEntry::BalanceChanged(addr, prev) => {
                    if let Some(a) = self.accounts.get_mut(&addr) {
                        a.balance = prev;
                    }
                }
                JournalEntry::NonceChanged(addr, prev) => {
                    if let Some(a) = self.accounts.get_mut(&addr) {
                        a.nonce = prev;
                    }
                }
                JournalEntry::StorageChanged(addr, key, prev) => {
                    if let Some(a) = self.accounts.get_mut(&addr) {
                        match prev {
                            Some(v) => {
                                a.storage.insert(key, v);
                            }
                            None => {
                                a.storage.remove(&key);
                            }
                        }
                    }
                }
                JournalEntry::CodeChanged(addr, prev_code, prev_hash) => {
                    if let Some(a) = self.accounts.get_mut(&addr) {
                        a.code = prev_code;
                        a.code_hash = prev_hash;
                    }
                }
                JournalEntry::Destructed(addr) => {
                    if let Some(pos) = self.destructed.iter().rposition(|&a| a == addr) {
                        self.destructed.remove(pos);
                    }
                }
            }
        }
    }

    /// Commits the current transaction: clears the journal and removes
    /// self-destructed accounts.
    pub fn finalize_tx(&mut self) {
        for addr in std::mem::take(&mut self.destructed) {
            self.accounts.remove(&addr);
        }
        self.journal.clear();
    }

    /// Iterates over live accounts: every existing account **except**
    /// those marked self-destructed in the current transaction (they are
    /// physically removed at [`State::finalize_tx`], but must already be
    /// invisible to state commitments).
    pub fn iter_live_accounts(&self) -> impl Iterator<Item = (Address, &Account)> {
        self.accounts
            .iter()
            .filter(|(a, _)| !self.destructed.contains(a))
            .map(|(a, acc)| (*a, acc))
    }

    /// Addresses marked self-destructed since the last
    /// [`State::finalize_tx`].
    pub fn destructed(&self) -> &[Address] {
        &self.destructed
    }

    /// A deterministic digest of the whole state, used by tests to assert
    /// that differently-scheduled executions converge (the blockchain
    /// consistency requirement).
    pub fn state_root(&self) -> B256 {
        // Accounts marked destructed are excluded: they are only removed
        // from the table at finalize_tx, but sequential semantics say the
        // commitment of a finalized prefix must not see them.
        let mut entries: Vec<(Address, &Account)> = self.iter_live_accounts().collect();
        entries.sort_by_key(|(a, _)| *a);
        let mut h = mtpu_primitives::keccak::Keccak256::new();
        for (addr, acc) in entries {
            h.update(addr.as_bytes());
            h.update(&acc.nonce.to_be_bytes());
            h.update(&acc.balance.to_be_bytes());
            h.update(acc.code_hash.as_bytes());
            let mut slots: Vec<(&U256, &U256)> = acc.storage.iter().collect();
            slots.sort_by_key(|(k, _)| **k);
            for (k, v) in slots {
                h.update(&k.to_be_bytes());
                h.update(&v.to_be_bytes());
            }
        }
        B256::new(h.finalize())
    }
}

/// The state interface the interpreter and transaction executor run
/// against.
///
/// [`State`] implements it directly (single-threaded, in-place mutation);
/// [`crate::overlay::StateOverlay`] implements it on top of an immutable
/// snapshot for speculative parallel execution, recording read and write
/// sets instead of mutating shared data. All methods mirror the inherent
/// methods of [`State`]; `load_code`/`code_size` return owned/scalar data
/// (rather than `&[u8]`) so overlay implementations can synthesize values
/// without holding borrows.
pub trait StateOps {
    /// `true` if the account exists.
    fn exists(&self, addr: Address) -> bool;
    /// Account balance (zero for absent accounts).
    fn balance(&self, addr: Address) -> U256;
    /// Account nonce (zero for absent accounts).
    fn nonce(&self, addr: Address) -> u64;
    /// Contract code (empty for absent accounts and EOAs).
    fn load_code(&self, addr: Address) -> Vec<u8>;
    /// Contract code together with its hash — what entering a call frame
    /// needs. Implementations over a backend with read latency answer it
    /// with one observation of each.
    fn load_code_and_hash(&self, addr: Address) -> (Vec<u8>, B256) {
        (self.load_code(addr), self.code_hash(addr))
    }
    /// Length of the contract code in bytes.
    fn code_size(&self, addr: Address) -> usize;
    /// Hash of the contract code; zero for absent accounts.
    fn code_hash(&self, addr: Address) -> B256;
    /// Storage slot value (zero for absent slots).
    fn storage(&self, addr: Address, key: U256) -> U256;
    /// Adds to a balance (journaled).
    fn credit(&mut self, addr: Address, amount: U256);
    /// Subtracts from a balance; `false` on insufficient funds.
    fn debit(&mut self, addr: Address, amount: U256) -> bool;
    /// Moves value between accounts (journaled).
    fn transfer(&mut self, from: Address, to: Address, amount: U256) -> bool;
    /// Increments a nonce (journaled).
    fn bump_nonce(&mut self, addr: Address);
    /// Writes a storage slot (journaled). Returns the previous value.
    fn set_storage(&mut self, addr: Address, key: U256, value: U256) -> U256;
    /// Sets contract code (journaled).
    fn set_code(&mut self, addr: Address, code: Vec<u8>);
    /// Marks an account self-destructed (removed at `finalize_tx`).
    fn mark_destructed(&mut self, addr: Address);
    /// Credits a balance *commutatively*: the deposit is recorded without
    /// observing the prior balance, so concurrent transactions that only
    /// `accrue` to the same account (the coinbase fee case) do not
    /// conflict. On plain [`State`] this is just [`State::credit`].
    fn accrue(&mut self, addr: Address, amount: U256);
    /// Opens a checkpoint for a call frame.
    fn checkpoint(&self) -> Checkpoint;
    /// Rolls back every mutation after `cp`, in reverse order.
    fn revert_to(&mut self, cp: Checkpoint);
    /// Commits the current transaction (journal cleared, destructed
    /// accounts removed).
    fn finalize_tx(&mut self);
}

impl StateOps for State {
    fn exists(&self, addr: Address) -> bool {
        State::exists(self, addr)
    }
    fn balance(&self, addr: Address) -> U256 {
        State::balance(self, addr)
    }
    fn nonce(&self, addr: Address) -> u64 {
        State::nonce(self, addr)
    }
    fn load_code(&self, addr: Address) -> Vec<u8> {
        State::code(self, addr).to_vec()
    }
    fn code_size(&self, addr: Address) -> usize {
        State::code(self, addr).len()
    }
    fn code_hash(&self, addr: Address) -> B256 {
        State::code_hash(self, addr)
    }
    fn storage(&self, addr: Address, key: U256) -> U256 {
        State::storage(self, addr, key)
    }
    fn credit(&mut self, addr: Address, amount: U256) {
        State::credit(self, addr, amount)
    }
    fn debit(&mut self, addr: Address, amount: U256) -> bool {
        State::debit(self, addr, amount)
    }
    fn transfer(&mut self, from: Address, to: Address, amount: U256) -> bool {
        State::transfer(self, from, to, amount)
    }
    fn bump_nonce(&mut self, addr: Address) {
        State::bump_nonce(self, addr)
    }
    fn set_storage(&mut self, addr: Address, key: U256, value: U256) -> U256 {
        State::set_storage(self, addr, key, value)
    }
    fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        State::set_code(self, addr, code)
    }
    fn mark_destructed(&mut self, addr: Address) {
        State::mark_destructed(self, addr)
    }
    fn accrue(&mut self, addr: Address, amount: U256) {
        State::credit(self, addr, amount)
    }
    fn checkpoint(&self) -> Checkpoint {
        State::checkpoint(self)
    }
    fn revert_to(&mut self, cp: Checkpoint) {
        State::revert_to(self, cp)
    }
    fn finalize_tx(&mut self) {
        State::finalize_tx(self)
    }
}

impl State {
    /// Mutable access to the account table for delta application by the
    /// parallel-execution overlay machinery. Bypasses the journal.
    pub(crate) fn accounts_mut(&mut self) -> &mut FastMap<Address, Account> {
        &mut self.accounts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    fn u(v: u64) -> U256 {
        U256::from(v)
    }

    #[test]
    fn balances_and_transfer() {
        let mut st = State::new();
        st.credit(a(1), u(100));
        assert!(st.transfer(a(1), a(2), u(40)));
        assert_eq!(st.balance(a(1)), u(60));
        assert_eq!(st.balance(a(2)), u(40));
        assert!(!st.transfer(a(1), a(2), u(1000)));
        assert_eq!(st.balance(a(1)), u(60));
    }

    #[test]
    fn zero_transfer_always_succeeds() {
        let mut st = State::new();
        assert!(st.transfer(a(1), a(2), U256::ZERO));
        assert!(!st.exists(a(1)));
    }

    #[test]
    fn storage_set_get_and_delete() {
        let mut st = State::new();
        assert_eq!(st.set_storage(a(1), u(1), u(7)), U256::ZERO);
        assert_eq!(st.storage(a(1), u(1)), u(7));
        assert_eq!(st.set_storage(a(1), u(1), U256::ZERO), u(7));
        assert_eq!(st.storage(a(1), u(1)), U256::ZERO);
        // Zeroed slots are physically removed.
        assert!(st.account(a(1)).unwrap().storage.is_empty());
    }

    #[test]
    fn revert_restores_everything() {
        let mut st = State::new();
        st.credit(a(1), u(10));
        st.set_storage(a(1), u(0), u(1));
        st.finalize_tx();
        let root = st.state_root();

        let cp = st.checkpoint();
        st.credit(a(2), u(5));
        st.bump_nonce(a(1));
        st.set_storage(a(1), u(0), u(99));
        st.set_storage(a(1), u(3), u(4));
        st.set_code(a(3), vec![0x60]);
        st.mark_destructed(a(1));
        st.revert_to(cp);

        assert_eq!(st.state_root(), root);
        assert!(!st.exists(a(2)));
        assert!(!st.exists(a(3)));
        assert_eq!(st.nonce(a(1)), 0);
        st.finalize_tx();
        assert!(st.exists(a(1)), "revert must cancel destruction");
    }

    #[test]
    fn nested_checkpoints() {
        let mut st = State::new();
        st.credit(a(1), u(1));
        let outer = st.checkpoint();
        st.credit(a(1), u(2));
        let inner = st.checkpoint();
        st.credit(a(1), u(4));
        st.revert_to(inner);
        assert_eq!(st.balance(a(1)), u(3));
        st.revert_to(outer);
        assert_eq!(st.balance(a(1)), u(1));
    }

    #[test]
    fn destructed_removed_on_finalize() {
        let mut st = State::new();
        st.credit(a(1), u(1));
        st.mark_destructed(a(1));
        st.finalize_tx();
        assert!(!st.exists(a(1)));
    }

    #[test]
    fn destructed_accounts_excluded_from_root_before_finalize() {
        // Regression: selfdestructed accounts are only *removed* at
        // finalize_tx, but the digest must treat them as gone as soon as
        // they are marked — a root taken mid-commit must equal the root
        // after finalize.
        let mut st = State::new();
        st.credit(a(1), u(10));
        st.finalize_tx();
        let without = st.state_root();

        st.credit(a(2), u(20));
        st.set_storage(a(2), u(1), u(2));
        st.mark_destructed(a(2));
        let marked = st.state_root();
        assert_eq!(
            marked, without,
            "marked-destructed account leaked into digest"
        );
        assert!(st.exists(a(2)), "account is still physically present");

        st.finalize_tx();
        assert_eq!(st.state_root(), without);
        assert!(!st.exists(a(2)));
    }

    #[test]
    fn state_root_is_order_independent() {
        let mut s1 = State::new();
        s1.credit(a(1), u(1));
        s1.credit(a(2), u(2));
        let mut s2 = State::new();
        s2.credit(a(2), u(2));
        s2.credit(a(1), u(1));
        assert_eq!(s1.state_root(), s2.state_root());
        s2.credit(a(3), u(3));
        assert_ne!(s1.state_root(), s2.state_root());
    }

    #[test]
    fn code_and_hash() {
        let mut st = State::new();
        st.deploy_code(a(5), vec![0x60, 0x00]);
        assert_eq!(st.code(a(5)), &[0x60, 0x00]);
        assert_eq!(st.code_hash(a(5)), B256::keccak(&[0x60, 0x00]));
        assert_eq!(st.code_hash(a(9)), B256::ZERO);
    }
}
