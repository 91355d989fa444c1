//! Thread-shareable execution substrate for optimistic parallel block
//! execution.
//!
//! A [`StateOverlay`] runs one transaction speculatively on top of an
//! immutable base view (a [`State`] snapshot, optionally combined with the
//! deltas of already-committed transactions via [`OverlayedView`]). All
//! writes land in a private [`TxDelta`]; every read that falls through to
//! the base is recorded in a [`ReadSet`]. At commit time the read set is
//! re-validated against the now-current view — if any observed value has
//! changed, the transaction is re-executed; otherwise its delta is merged
//! into the block's [`BlockDelta`]. Because commits happen strictly in
//! block order, the committed view at transaction *i*'s commit point is
//! exactly the sequential prefix state, which makes the whole scheme
//! serializable with a final state bit-identical to sequential execution.
//! An execution that already runs on that prefix state — or whose result
//! is thrown away — uses [`StateOverlay::unrecorded`] and keeps no read
//! set at all.
//!
//! This is the paper's Scheduling/Transaction-Table discipline (§3.4)
//! applied optimistically on host threads, following the Block-STM recipe
//! for validation and the commutative coinbase accrual.

use crate::state::{Account, Checkpoint, State, StateOps};
use mtpu_primitives::{Address, B256, EMPTY_CODE_HASH, U256};
use std::cell::RefCell;
use std::collections::HashMap;

/// Read-only world-state access for overlay bases and validation views.
///
/// Method names carry a `read_` prefix so implementors can also expose
/// [`StateOps`] (whose methods share the natural names) without method
/// resolution ambiguity.
pub trait StateRead {
    /// `true` if the account exists.
    fn read_exists(&self, addr: Address) -> bool;
    /// Account balance (zero for absent accounts).
    fn read_balance(&self, addr: Address) -> U256;
    /// Account nonce (zero for absent accounts).
    fn read_nonce(&self, addr: Address) -> u64;
    /// Contract code (empty for absent accounts and EOAs).
    fn read_code(&self, addr: Address) -> Vec<u8>;
    /// Hash of the contract code; zero for absent accounts.
    fn read_code_hash(&self, addr: Address) -> B256;
    /// Storage slot value (zero for absent slots).
    fn read_storage(&self, addr: Address, key: U256) -> U256;
    /// Reads several storage slots of one account into `out` (cleared
    /// first, then one value per key in order). The default loops
    /// [`StateRead::read_storage`], and no view in this workspace
    /// overrides it; it stays because `spine/`'s timing adapter
    /// implements it and `ReadServer::get_many` calls it.
    fn read_storage_many(&self, addr: Address, keys: &[U256], out: &mut Vec<U256>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.read_storage(addr, k)));
    }
    /// Advisory: the given storage slots of `addr` are likely to be read
    /// soon. A no-op: no backend in this workspace warms a cache from
    /// hints, and none overrides this. It stays because `spine/`'s timing
    /// adapter implements it and `parexec`'s hint forwarding calls it.
    fn hint_prefetch_storage(&self, _addr: Address, _keys: &[U256]) {}
    /// Advisory: the account at `addr` is likely to be read soon. A
    /// no-op, kept for the same reason as
    /// [`StateRead::hint_prefetch_storage`].
    fn hint_prefetch_account(&self, _addr: Address) {}
}

impl<T: StateRead + ?Sized> StateRead for &T {
    fn read_exists(&self, addr: Address) -> bool {
        (**self).read_exists(addr)
    }
    fn read_balance(&self, addr: Address) -> U256 {
        (**self).read_balance(addr)
    }
    fn read_nonce(&self, addr: Address) -> u64 {
        (**self).read_nonce(addr)
    }
    fn read_code(&self, addr: Address) -> Vec<u8> {
        (**self).read_code(addr)
    }
    fn read_code_hash(&self, addr: Address) -> B256 {
        (**self).read_code_hash(addr)
    }
    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        (**self).read_storage(addr, key)
    }
    fn read_storage_many(&self, addr: Address, keys: &[U256], out: &mut Vec<U256>) {
        (**self).read_storage_many(addr, keys, out)
    }
}

impl<T: StateRead + ?Sized> StateRead for std::sync::Arc<T> {
    fn read_exists(&self, addr: Address) -> bool {
        (**self).read_exists(addr)
    }
    fn read_balance(&self, addr: Address) -> U256 {
        (**self).read_balance(addr)
    }
    fn read_nonce(&self, addr: Address) -> u64 {
        (**self).read_nonce(addr)
    }
    fn read_code(&self, addr: Address) -> Vec<u8> {
        (**self).read_code(addr)
    }
    fn read_code_hash(&self, addr: Address) -> B256 {
        (**self).read_code_hash(addr)
    }
    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        (**self).read_storage(addr, key)
    }
    fn read_storage_many(&self, addr: Address, keys: &[U256], out: &mut Vec<U256>) {
        (**self).read_storage_many(addr, keys, out)
    }
}

impl StateRead for State {
    fn read_exists(&self, addr: Address) -> bool {
        self.exists(addr)
    }
    fn read_balance(&self, addr: Address) -> U256 {
        self.balance(addr)
    }
    fn read_nonce(&self, addr: Address) -> u64 {
        self.nonce(addr)
    }
    fn read_code(&self, addr: Address) -> Vec<u8> {
        self.code(addr).to_vec()
    }
    fn read_code_hash(&self, addr: Address) -> B256 {
        self.code_hash(addr)
    }
    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        self.storage(addr, key)
    }
}

/// Every base observation a speculative execution made, keyed by location.
///
/// Only the *first* observation of each location is stored; if a later
/// fall-through read of the same location sees a different value (the
/// committed prefix advanced mid-execution), the set is poisoned and
/// validation fails unconditionally, forcing re-execution.
#[derive(Debug, Clone, Default)]
pub struct ReadSet {
    exists: HashMap<Address, bool>,
    balances: HashMap<Address, U256>,
    nonces: HashMap<Address, u64>,
    code_hashes: HashMap<Address, B256>,
    storage: HashMap<(Address, U256), U256>,
    poisoned: bool,
}

impl ReadSet {
    /// Number of recorded observations.
    pub fn len(&self) -> usize {
        self.exists.len()
            + self.balances.len()
            + self.nonces.len()
            + self.code_hashes.len()
            + self.storage.len()
    }

    /// `true` when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && !self.poisoned
    }
}

/// What a [`StateOverlay`] does with the base observations it makes: keep
/// them for commit-time validation ([`ReadSet`]) or drop them
/// ([`Unrecorded`]). A type parameter of the overlay, so an execution
/// whose read set nobody will validate pays nothing for one.
pub trait ReadLog: Default {
    /// `false` when observations are dropped, which lets the overlay skip
    /// base reads made only to be recorded.
    const RECORDS: bool;
    /// Account existence was observed.
    fn note_exists(&mut self, addr: Address, v: bool);
    /// A balance was observed.
    fn note_balance(&mut self, addr: Address, v: U256);
    /// A nonce was observed.
    fn note_nonce(&mut self, addr: Address, v: u64);
    /// A code hash was observed.
    fn note_code_hash(&mut self, addr: Address, v: B256);
    /// A storage slot was observed.
    fn note_storage(&mut self, addr: Address, key: U256, v: U256);
}

/// The [`ReadLog`] that keeps nothing: for executions against a view
/// that cannot move under them (the sequential prefix, a frozen
/// snapshot), or whose result is thrown away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unrecorded;

impl ReadLog for Unrecorded {
    const RECORDS: bool = false;
    fn note_exists(&mut self, _: Address, _: bool) {}
    fn note_balance(&mut self, _: Address, _: U256) {}
    fn note_nonce(&mut self, _: Address, _: u64) {}
    fn note_code_hash(&mut self, _: Address, _: B256) {}
    fn note_storage(&mut self, _: Address, _: U256, _: U256) {}
}

impl ReadLog for ReadSet {
    const RECORDS: bool = true;

    fn note_exists(&mut self, addr: Address, v: bool) {
        match self.exists.get(&addr) {
            Some(prev) => self.poisoned |= *prev != v,
            None => {
                self.exists.insert(addr, v);
            }
        }
    }

    fn note_balance(&mut self, addr: Address, v: U256) {
        match self.balances.get(&addr) {
            Some(prev) => self.poisoned |= *prev != v,
            None => {
                self.balances.insert(addr, v);
            }
        }
    }

    fn note_nonce(&mut self, addr: Address, v: u64) {
        match self.nonces.get(&addr) {
            Some(prev) => self.poisoned |= *prev != v,
            None => {
                self.nonces.insert(addr, v);
            }
        }
    }

    fn note_code_hash(&mut self, addr: Address, v: B256) {
        match self.code_hashes.get(&addr) {
            Some(prev) => self.poisoned |= *prev != v,
            None => {
                self.code_hashes.insert(addr, v);
            }
        }
    }

    fn note_storage(&mut self, addr: Address, key: U256, v: U256) {
        match self.storage.get(&(addr, key)) {
            Some(prev) => self.poisoned |= *prev != v,
            None => {
                self.storage.insert((addr, key), v);
            }
        }
    }
}

impl ReadSet {
    /// `true` when every recorded observation still matches `view` — the
    /// commit-time validation of optimistic concurrency control.
    pub fn validate<B: StateRead>(&self, view: &B) -> bool {
        self.validate_detailed(view).is_ok()
    }

    /// Like [`ReadSet::validate`], but reports *which kind of key* went
    /// stale — the label parallel executors use to classify conflicts.
    ///
    /// # Errors
    ///
    /// Returns the first mismatching key kind (check order: poisoning,
    /// existence, balance, nonce, code, storage).
    pub fn validate_detailed<B: StateRead>(&self, view: &B) -> Result<(), StaleRead> {
        if self.poisoned {
            return Err(StaleRead::Poisoned);
        }
        if !self.exists.iter().all(|(a, v)| view.read_exists(*a) == *v) {
            return Err(StaleRead::Exists);
        }
        if !self
            .balances
            .iter()
            .all(|(a, v)| view.read_balance(*a) == *v)
        {
            return Err(StaleRead::Balance);
        }
        if !self.nonces.iter().all(|(a, v)| view.read_nonce(*a) == *v) {
            return Err(StaleRead::Nonce);
        }
        if !self
            .code_hashes
            .iter()
            .all(|(a, v)| view.read_code_hash(*a) == *v)
        {
            return Err(StaleRead::Code);
        }
        if !self
            .storage
            .iter()
            .all(|((a, k), v)| view.read_storage(*a, *k) == *v)
        {
            return Err(StaleRead::Storage);
        }
        Ok(())
    }
}

/// Which kind of recorded read went stale during validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleRead {
    /// The read set observed two different values for one location
    /// mid-execution (inconsistent cut).
    Poisoned,
    /// Account existence changed.
    Exists,
    /// An account balance changed.
    Balance,
    /// An account nonce changed.
    Nonce,
    /// An account's code changed.
    Code,
    /// A storage slot changed.
    Storage,
}

impl StaleRead {
    /// Stable label for metrics (`parexec.validation_fail.<label>`).
    pub fn label(self) -> &'static str {
        match self {
            StaleRead::Poisoned => "poisoned",
            StaleRead::Exists => "exists",
            StaleRead::Balance => "balance",
            StaleRead::Nonce => "nonce",
            StaleRead::Code => "code",
            StaleRead::Storage => "storage",
        }
    }
}

/// Per-account write buffer of a speculative transaction.
///
/// `None` fields fall through to the base view unless `shadows_base` is
/// set, in which case the account was (re-)created by this delta and
/// unset fields mean their default (zero / empty). Storage maps a written
/// key to its new value; a zero value is a cleared slot. The `read_*`
/// methods state this rule once for every layered view.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccountDelta {
    /// Base values for this account are invisible (created by this delta).
    pub shadows_base: bool,
    /// Account is deleted (self-destruct committed); implies shadowing.
    pub deleted: bool,
    /// New nonce, if written.
    pub nonce: Option<u64>,
    /// New balance, if written.
    pub balance: Option<U256>,
    /// New code + hash, if written.
    pub code: Option<(Vec<u8>, B256)>,
    /// Written storage slots (zero value = cleared).
    pub storage: HashMap<U256, U256>,
}

/// The read rule every layered view resolves a field through. Each
/// method returns `Some` when this delta decides the field and `None` when
/// the layer below does.
impl AccountDelta {
    /// A deleted account reads `default`; a written field wins; a
    /// (re-)created account reads `default` for unwritten fields; anything
    /// else falls through.
    fn decide<T>(&self, written: Option<T>, default: T) -> Option<T> {
        if self.deleted {
            Some(default)
        } else if written.is_some() {
            written
        } else if self.shadows_base {
            Some(default)
        } else {
            None
        }
    }

    /// Account existence: any delta entry decides it.
    pub fn read_exists(&self) -> Option<bool> {
        self.decide(Some(true), false)
    }

    /// Account balance.
    pub fn read_balance(&self) -> Option<U256> {
        self.decide(self.balance, U256::ZERO)
    }

    /// Account nonce.
    pub fn read_nonce(&self) -> Option<u64> {
        self.decide(self.nonce, 0)
    }

    /// Contract code.
    pub fn read_code(&self) -> Option<&[u8]> {
        self.decide(self.code.as_ref().map(|(c, _)| c.as_slice()), &[])
    }

    /// Code hash: zero for a deleted account, the empty-code hash for a
    /// (re-)created one without code.
    pub fn read_code_hash(&self) -> Option<B256> {
        if self.deleted {
            return Some(B256::ZERO);
        }
        self.decide(self.code.as_ref().map(|(_, h)| *h), EMPTY_CODE_HASH)
    }

    /// Storage slot `key`.
    pub fn read_storage(&self, key: &U256) -> Option<U256> {
        self.decide(self.storage.get(key).copied(), U256::ZERO)
    }

    fn deleted_marker() -> Self {
        AccountDelta {
            shadows_base: true,
            deleted: true,
            ..Default::default()
        }
    }

    /// Materializes unset fields of a shadowing delta to their defaults so
    /// the delta is self-contained (used when merging into a block delta).
    fn materialized(mut self) -> Self {
        debug_assert!(self.shadows_base);
        if !self.deleted {
            self.nonce = Some(self.nonce.unwrap_or(0));
            self.balance = Some(self.balance.unwrap_or(U256::ZERO));
            self.code = Some(self.code.unwrap_or_else(|| (Vec::new(), EMPTY_CODE_HASH)));
        }
        self
    }
}

/// The write set of one committed speculative transaction, plus its
/// commutative accruals (coinbase fees).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxDelta {
    /// Written accounts.
    pub accounts: HashMap<Address, AccountDelta>,
    /// Commutative balance credits applied blindly at commit.
    pub accruals: Vec<(Address, U256)>,
}

impl TxDelta {
    /// Applies this delta directly to a [`State`] (bypassing its journal).
    pub fn apply_to(&self, state: &mut State) {
        for (addr, d) in &self.accounts {
            apply_account_delta(state, *addr, d);
        }
        for (addr, amount) in &self.accruals {
            if self.accounts.get(addr).map(|d| d.deleted).unwrap_or(false) {
                // The same transaction destroyed the account after fees
                // were routed to it; sequential execution drops the credit
                // with the account at finalize.
                continue;
            }
            let acc = state
                .accounts_mut()
                .entry(*addr)
                .or_insert_with(|| Account::with_balance(U256::ZERO));
            acc.balance += *amount;
        }
    }
}

fn apply_account_delta(state: &mut State, addr: Address, d: &AccountDelta) {
    if d.deleted {
        state.accounts_mut().remove(&addr);
        return;
    }
    let accounts = state.accounts_mut();
    if d.shadows_base {
        accounts.insert(addr, Account::with_balance(U256::ZERO));
    }
    let acc = accounts
        .entry(addr)
        .or_insert_with(|| Account::with_balance(U256::ZERO));
    if let Some(n) = d.nonce {
        acc.nonce = n;
    }
    if let Some(b) = d.balance {
        acc.balance = b;
    }
    if let Some((code, hash)) = &d.code {
        acc.code = code.clone();
        acc.code_hash = *hash;
    }
    for (k, v) in &d.storage {
        if v.is_zero() {
            acc.storage.remove(k);
        } else {
            acc.storage.insert(*k, *v);
        }
    }
}

/// Accumulated write sets of the committed transaction prefix of a block.
///
/// Combined with the immutable base snapshot (see [`OverlayedView`]) this
/// is exactly the sequential state after the committed prefix.
#[derive(Debug, Clone, Default)]
pub struct BlockDelta {
    accounts: HashMap<Address, AccountDelta>,
}

impl BlockDelta {
    /// An empty delta (no transactions committed yet).
    pub fn new() -> Self {
        BlockDelta::default()
    }

    /// Iterates over the per-account deltas (for state committers that
    /// replay the block's touched accounts into an authenticated trie).
    pub fn iter(&self) -> impl Iterator<Item = (Address, &AccountDelta)> {
        self.accounts.iter().map(|(a, d)| (*a, d))
    }

    /// The delta entry for `addr`, if the committed prefix touched it.
    /// Snapshot layers resolve reads through a *chain* of frozen block
    /// deltas by asking each entry's `read_*` methods, newest first.
    pub fn account(&self, addr: Address) -> Option<&AccountDelta> {
        self.accounts.get(&addr)
    }

    /// Folds one committed transaction's delta in, resolving accruals
    /// against `base` (the block's immutable snapshot) where needed.
    pub fn merge(&mut self, tx: &TxDelta, base: &impl StateRead) {
        for (addr, d) in &tx.accounts {
            if d.deleted {
                self.accounts.insert(*addr, AccountDelta::deleted_marker());
                continue;
            }
            if d.shadows_base {
                self.accounts.insert(*addr, d.clone().materialized());
                continue;
            }
            let entry = self.accounts.entry(*addr).or_default();
            if entry.deleted {
                // Write to an account a previous transaction deleted:
                // it was re-created from defaults by that write.
                *entry = AccountDelta {
                    shadows_base: true,
                    ..Default::default()
                };
            }
            if let Some(n) = d.nonce {
                entry.nonce = Some(n);
            }
            if let Some(b) = d.balance {
                entry.balance = Some(b);
            }
            if let Some(c) = &d.code {
                entry.code = Some(c.clone());
            }
            for (k, v) in &d.storage {
                entry.storage.insert(*k, *v);
            }
        }
        for (addr, amount) in &tx.accruals {
            if tx.accounts.get(addr).map(|d| d.deleted).unwrap_or(false) {
                continue; // dropped with the account, as in apply_to
            }
            let view = OverlayedView {
                base,
                delta: &*self,
            };
            let current = view.read_balance(*addr);
            let created = !view.read_exists(*addr);
            let entry = self.accounts.entry(*addr).or_default();
            if created {
                *entry = AccountDelta {
                    shadows_base: true,
                    ..Default::default()
                }
                .materialized();
            }
            entry.balance = Some(current + *amount);
        }
    }

    /// Applies the accumulated delta to `state`, producing the final
    /// post-block state.
    pub fn apply_to(&self, state: &mut State) {
        for (addr, d) in &self.accounts {
            apply_account_delta(state, *addr, d);
        }
    }
}

/// An immutable base snapshot combined with the committed [`BlockDelta`]:
/// the view a speculative or validating transaction reads through.
///
/// Generic over the base so the same machinery works on an in-memory
/// [`State`] map (the default) or any other [`StateRead`] backend — e.g.
/// the flat accounts-DB store.
#[derive(Debug, Clone, Copy)]
pub struct OverlayedView<'a, B: StateRead = State> {
    /// The pre-block state snapshot.
    pub base: &'a B,
    /// Deltas of the committed transaction prefix.
    pub delta: &'a BlockDelta,
}

impl<B: StateRead> StateRead for OverlayedView<'_, B> {
    fn read_exists(&self, addr: Address) -> bool {
        self.delta
            .account(addr)
            .and_then(AccountDelta::read_exists)
            .unwrap_or_else(|| self.base.read_exists(addr))
    }

    fn read_balance(&self, addr: Address) -> U256 {
        self.delta
            .account(addr)
            .and_then(AccountDelta::read_balance)
            .unwrap_or_else(|| self.base.read_balance(addr))
    }

    fn read_nonce(&self, addr: Address) -> u64 {
        self.delta
            .account(addr)
            .and_then(AccountDelta::read_nonce)
            .unwrap_or_else(|| self.base.read_nonce(addr))
    }

    fn read_code(&self, addr: Address) -> Vec<u8> {
        self.delta
            .account(addr)
            .and_then(AccountDelta::read_code)
            .map(<[u8]>::to_vec)
            .unwrap_or_else(|| self.base.read_code(addr))
    }

    fn read_code_hash(&self, addr: Address) -> B256 {
        self.delta
            .account(addr)
            .and_then(AccountDelta::read_code_hash)
            .unwrap_or_else(|| self.base.read_code_hash(addr))
    }

    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        self.delta
            .account(addr)
            .and_then(|d| d.read_storage(&key))
            .unwrap_or_else(|| self.base.read_storage(addr, key))
    }
}

/// One reversible overlay mutation; stores the previous *delta* field so
/// `revert_to` restores the overlay (not the base) exactly.
#[derive(Debug, Clone)]
enum OverlayEntry {
    EntryCreated(Address),
    BalanceSet(Address, Option<U256>),
    NonceSet(Address, Option<u64>),
    StorageSet(Address, U256, Option<U256>),
    CodeSet(Address, Option<(Vec<u8>, B256)>),
    Destructed(Address),
    Accrued(Address),
}

/// A journaled [`StateOps`] implementation over an immutable base view —
/// the unit of speculative parallel execution. By default it records a
/// [`ReadSet`]; [`StateOverlay::unrecorded`] builds one that does not.
///
/// ```
/// use mtpu_evm::overlay::StateOverlay;
/// use mtpu_evm::state::{State, StateOps};
/// use mtpu_primitives::{Address, U256};
///
/// let mut base = State::new();
/// base.credit(Address::from_low_u64(1), U256::from(100u64));
/// base.finalize_tx();
///
/// let mut ov = StateOverlay::new(&base);
/// ov.transfer(Address::from_low_u64(1), Address::from_low_u64(2), U256::from(40u64));
/// ov.finalize_tx();
/// let (delta, reads) = ov.into_parts();
/// assert!(reads.validate(&base)); // base unchanged: commit is valid
/// let mut final_state = base.clone();
/// delta.apply_to(&mut final_state);
/// assert_eq!(final_state.balance(Address::from_low_u64(2)), U256::from(40u64));
/// ```
#[derive(Debug)]
pub struct StateOverlay<'a, B: StateRead, R: ReadLog = ReadSet> {
    base: &'a B,
    delta: TxDelta,
    destructed: Vec<Address>,
    journal: Vec<OverlayEntry>,
    reads: RefCell<R>,
}

impl<'a, B: StateRead> StateOverlay<'a, B> {
    /// An empty overlay over `base` that records a [`ReadSet`].
    pub fn new(base: &'a B) -> Self {
        Self::with_log(base)
    }

    /// The recorded read set so far (for inspection in tests).
    pub fn read_set(&self) -> ReadSet {
        self.reads.borrow().clone()
    }
}

impl<'a, B: StateRead> StateOverlay<'a, B, Unrecorded> {
    /// An empty overlay over `base` that keeps no read set — for a base
    /// that cannot change under the execution, or a result nobody
    /// validates (admission, read-only calls).
    pub fn unrecorded(base: &'a B) -> Self {
        Self::with_log(base)
    }
}

impl<'a, B: StateRead, R: ReadLog> StateOverlay<'a, B, R> {
    fn with_log(base: &'a B) -> Self {
        StateOverlay {
            base,
            delta: TxDelta::default(),
            destructed: Vec::new(),
            journal: Vec::new(),
            reads: RefCell::new(R::default()),
        }
    }

    /// Consumes the overlay, returning the accumulated write set and the
    /// read log (a [`ReadSet`], or [`Unrecorded`]). Call
    /// [`StateOps::finalize_tx`] first.
    pub fn into_parts(self) -> (TxDelta, R) {
        (self.delta, self.reads.into_inner())
    }

    fn entry(&self, addr: Address) -> Option<&AccountDelta> {
        self.delta.accounts.get(&addr)
    }

    /// Creates a delta entry for `addr` if none exists, recording the
    /// existence observation the creation decision depends on.
    fn ensure(&mut self, addr: Address) -> &mut AccountDelta {
        if !self.delta.accounts.contains_key(&addr) {
            let existed = self.base.read_exists(addr);
            self.reads.borrow_mut().note_exists(addr, existed);
            self.journal.push(OverlayEntry::EntryCreated(addr));
            self.delta.accounts.insert(
                addr,
                AccountDelta {
                    shadows_base: !existed,
                    ..Default::default()
                },
            );
        }
        self.delta.accounts.get_mut(&addr).expect("just inserted")
    }
}

impl<B: StateRead, R: ReadLog> StateOps for StateOverlay<'_, B, R> {
    fn exists(&self, addr: Address) -> bool {
        self.entry(addr)
            .and_then(AccountDelta::read_exists)
            .unwrap_or_else(|| {
                let v = self.base.read_exists(addr);
                self.reads.borrow_mut().note_exists(addr, v);
                v
            })
    }

    fn balance(&self, addr: Address) -> U256 {
        self.entry(addr)
            .and_then(AccountDelta::read_balance)
            .unwrap_or_else(|| self.fall_through_balance(addr))
    }

    fn nonce(&self, addr: Address) -> u64 {
        self.entry(addr)
            .and_then(AccountDelta::read_nonce)
            .unwrap_or_else(|| self.fall_through_nonce(addr))
    }

    fn load_code(&self, addr: Address) -> Vec<u8> {
        self.entry(addr)
            .and_then(AccountDelta::read_code)
            .map(<[u8]>::to_vec)
            .unwrap_or_else(|| self.fall_through_code(addr))
    }

    fn load_code_and_hash(&self, addr: Address) -> (Vec<u8>, B256) {
        self.entry(addr)
            .and_then(|d| d.read_code().zip(d.read_code_hash()))
            .map(|(c, h)| (c.to_vec(), h))
            .unwrap_or_else(|| self.fall_through_code_and_hash(addr))
    }

    fn code_size(&self, addr: Address) -> usize {
        self.load_code(addr).len()
    }

    fn code_hash(&self, addr: Address) -> B256 {
        self.entry(addr)
            .and_then(AccountDelta::read_code_hash)
            .unwrap_or_else(|| self.fall_through_code_hash(addr))
    }

    fn storage(&self, addr: Address, key: U256) -> U256 {
        self.entry(addr)
            .and_then(|d| d.read_storage(&key))
            .unwrap_or_else(|| self.fall_through_storage(addr, key))
    }

    fn credit(&mut self, addr: Address, amount: U256) {
        let prev = self.balance(addr);
        let entry = self.ensure(addr);
        let prev_delta = entry.balance;
        entry.balance = Some(prev + amount);
        self.journal
            .push(OverlayEntry::BalanceSet(addr, prev_delta));
    }

    fn debit(&mut self, addr: Address, amount: U256) -> bool {
        let prev = self.balance(addr);
        if prev < amount {
            return false;
        }
        let entry = self.ensure(addr);
        let prev_delta = entry.balance;
        entry.balance = Some(prev - amount);
        self.journal
            .push(OverlayEntry::BalanceSet(addr, prev_delta));
        true
    }

    fn transfer(&mut self, from: Address, to: Address, amount: U256) -> bool {
        if amount.is_zero() {
            return true;
        }
        if !self.debit(from, amount) {
            return false;
        }
        self.credit(to, amount);
        true
    }

    fn bump_nonce(&mut self, addr: Address) {
        let prev = self.nonce(addr);
        let entry = self.ensure(addr);
        let prev_delta = entry.nonce;
        entry.nonce = Some(prev + 1);
        self.journal.push(OverlayEntry::NonceSet(addr, prev_delta));
    }

    fn set_storage(&mut self, addr: Address, key: U256, value: U256) -> U256 {
        let prev = self.storage(addr, key);
        let entry = self.ensure(addr);
        let prev_delta = entry.storage.get(&key).copied();
        entry.storage.insert(key, value);
        self.journal
            .push(OverlayEntry::StorageSet(addr, key, prev_delta));
        prev
    }

    fn set_code(&mut self, addr: Address, code: Vec<u8>) {
        let hash = B256::keccak(&code);
        let entry = self.ensure(addr);
        let prev_delta = entry.code.take();
        entry.code = Some((code, hash));
        self.journal.push(OverlayEntry::CodeSet(addr, prev_delta));
    }

    fn mark_destructed(&mut self, addr: Address) {
        self.journal.push(OverlayEntry::Destructed(addr));
        self.destructed.push(addr);
    }

    fn accrue(&mut self, addr: Address, amount: U256) {
        self.journal.push(OverlayEntry::Accrued(addr));
        self.delta.accruals.push((addr, amount));
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint::from_position(self.journal.len())
    }

    fn revert_to(&mut self, cp: Checkpoint) {
        while self.journal.len() > cp.position() {
            match self.journal.pop().expect("len > cp") {
                OverlayEntry::EntryCreated(addr) => {
                    self.delta.accounts.remove(&addr);
                }
                OverlayEntry::BalanceSet(addr, prev) => {
                    if let Some(d) = self.delta.accounts.get_mut(&addr) {
                        d.balance = prev;
                    }
                }
                OverlayEntry::NonceSet(addr, prev) => {
                    if let Some(d) = self.delta.accounts.get_mut(&addr) {
                        d.nonce = prev;
                    }
                }
                OverlayEntry::StorageSet(addr, key, prev) => {
                    if let Some(d) = self.delta.accounts.get_mut(&addr) {
                        match prev {
                            Some(v) => {
                                d.storage.insert(key, v);
                            }
                            None => {
                                d.storage.remove(&key);
                            }
                        }
                    }
                }
                OverlayEntry::CodeSet(addr, prev) => {
                    if let Some(d) = self.delta.accounts.get_mut(&addr) {
                        d.code = prev;
                    }
                }
                OverlayEntry::Destructed(addr) => {
                    if let Some(pos) = self.destructed.iter().rposition(|&a| a == addr) {
                        self.destructed.remove(pos);
                    }
                }
                OverlayEntry::Accrued(addr) => {
                    if let Some(pos) = self.delta.accruals.iter().rposition(|(a, _)| *a == addr) {
                        self.delta.accruals.remove(pos);
                    }
                }
            }
        }
    }

    fn finalize_tx(&mut self) {
        for addr in std::mem::take(&mut self.destructed) {
            self.delta
                .accounts
                .insert(addr, AccountDelta::deleted_marker());
        }
        self.journal.clear();
    }
}

impl<B: StateRead, R: ReadLog> StateOverlay<'_, B, R> {
    fn fall_through_code(&self, addr: Address) -> Vec<u8> {
        // Code reads are validated by hash: recording the (much smaller)
        // hash observation suffices because hash equality implies code
        // equality. Nothing to validate, no hash read.
        if R::RECORDS {
            self.fall_through_code_hash(addr);
        }
        self.base.read_code(addr)
    }

    fn fall_through_code_and_hash(&self, addr: Address) -> (Vec<u8>, B256) {
        let hash = self.fall_through_code_hash(addr);
        (self.base.read_code(addr), hash)
    }

    fn fall_through_storage(&self, addr: Address, key: U256) -> U256 {
        let v = self.base.read_storage(addr, key);
        self.reads.borrow_mut().note_storage(addr, key, v);
        v
    }

    fn fall_through_balance(&self, addr: Address) -> U256 {
        let v = self.base.read_balance(addr);
        self.reads.borrow_mut().note_balance(addr, v);
        v
    }

    fn fall_through_nonce(&self, addr: Address) -> u64 {
        let v = self.base.read_nonce(addr);
        self.reads.borrow_mut().note_nonce(addr, v);
        v
    }

    fn fall_through_code_hash(&self, addr: Address) -> B256 {
        let v = self.base.read_code_hash(addr);
        self.reads.borrow_mut().note_code_hash(addr, v);
        v
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

    fn base_state() -> State {
        let mut st = State::new();
        st.credit(a(1), u(1000));
        st.credit(a(2), u(500));
        st.deploy_code(a(9), vec![0x60, 0x00]);
        st.set_storage(a(9), u(1), u(42));
        st.finalize_tx();
        st
    }

    #[test]
    fn overlay_matches_state_semantics_for_basic_ops() {
        let base = base_state();
        let mut ov = StateOverlay::new(&base);
        let mut seq = base.clone();

        for st in [&mut seq as &mut dyn StateOps, &mut ov as &mut dyn StateOps] {
            st.transfer(a(1), a(2), u(300));
            st.bump_nonce(a(1));
            st.set_storage(a(9), u(1), u(7));
            st.set_storage(a(9), u(2), u(8));
            st.set_code(a(3), vec![0xfe]);
            st.finalize_tx();
        }

        let (delta, _) = ov.into_parts();
        let mut par = base.clone();
        delta.apply_to(&mut par);
        assert_eq!(par.state_root(), seq.state_root());
    }

    #[test]
    fn overlay_records_fall_through_reads_only() {
        let base = base_state();
        let mut ov = StateOverlay::new(&base);
        assert_eq!(ov.balance(a(1)), u(1000)); // base read, recorded
        ov.credit(a(1), u(5));
        assert_eq!(ov.balance(a(1)), u(1005)); // delta hit, not recorded
        let reads = ov.read_set();
        assert!(reads.validate(&base));
        // A changed base invalidates.
        let mut changed = base.clone();
        changed.credit(a(1), u(1));
        changed.finalize_tx();
        assert!(!reads.validate(&changed));
    }

    #[test]
    fn revert_restores_overlay_exactly() {
        let base = base_state();
        let mut ov = StateOverlay::new(&base);
        ov.credit(a(1), u(5));
        let cp = ov.checkpoint();
        ov.transfer(a(1), a(4), u(100));
        ov.set_storage(a(9), u(1), u(99));
        ov.set_code(a(4), vec![0xaa]);
        ov.mark_destructed(a(2));
        ov.revert_to(cp);
        ov.finalize_tx();
        let (delta, _) = ov.into_parts();
        let mut got = base.clone();
        delta.apply_to(&mut got);

        let mut want = base.clone();
        want.credit(a(1), u(5));
        want.finalize_tx();
        assert_eq!(got.state_root(), want.state_root());
    }

    #[test]
    fn destructed_account_reads_as_absent_after_commit() {
        let base = base_state();
        let mut ov = StateOverlay::new(&base);
        ov.mark_destructed(a(9));
        ov.finalize_tx();
        let (delta, _) = ov.into_parts();

        let mut block = BlockDelta::new();
        block.merge(&delta, &base);
        let view = OverlayedView {
            base: &base,
            delta: &block,
        };
        assert!(!view.read_exists(a(9)));
        assert_eq!(view.read_storage(a(9), u(1)), U256::ZERO);
        assert_eq!(view.read_code_hash(a(9)), B256::ZERO);

        let mut st = base.clone();
        block.apply_to(&mut st);
        assert!(!st.exists(a(9)));
    }

    #[test]
    fn accruals_do_not_enter_read_set_and_fold_on_merge() {
        let base = base_state();
        let coinbase = a(0xc0ffee);

        let mut ov1 = StateOverlay::new(&base);
        ov1.accrue(coinbase, u(21));
        ov1.finalize_tx();
        let (d1, r1) = ov1.into_parts();
        assert!(r1.is_empty(), "accrue must not read anything");

        let mut ov2 = StateOverlay::new(&base);
        ov2.accrue(coinbase, u(42));
        ov2.finalize_tx();
        let (d2, r2) = ov2.into_parts();
        assert!(r2.validate(&base));

        let mut block = BlockDelta::new();
        block.merge(&d1, &base);
        block.merge(&d2, &base);
        let view = OverlayedView {
            base: &base,
            delta: &block,
        };
        assert_eq!(view.read_balance(coinbase), u(63));
        assert!(view.read_exists(coinbase));
    }

    #[test]
    fn block_delta_merge_equals_sequential_apply() {
        let base = base_state();

        // tx1: transfer + storage write.
        let mut ov1 = StateOverlay::new(&base);
        ov1.transfer(a(1), a(5), u(10));
        ov1.set_storage(a(9), u(1), u(77));
        ov1.finalize_tx();
        let (d1, _) = ov1.into_parts();

        // tx2 executes on base+d1.
        let mut block = BlockDelta::new();
        block.merge(&d1, &base);
        let view = OverlayedView {
            base: &base,
            delta: &block,
        };
        let mut ov2 = StateOverlay::new(&view);
        assert_eq!(ov2.storage(a(9), u(1)), u(77));
        ov2.set_storage(a(9), u(1), U256::ZERO); // clear the slot
        ov2.transfer(a(5), a(2), u(4));
        ov2.finalize_tx();
        let (d2, reads2) = ov2.into_parts();
        assert!(reads2.validate(&view));
        block.merge(&d2, &base);

        let mut par = base.clone();
        block.apply_to(&mut par);

        let mut seq = base.clone();
        seq.transfer(a(1), a(5), u(10));
        seq.set_storage(a(9), u(1), u(77));
        seq.finalize_tx();
        seq.set_storage(a(9), u(1), U256::ZERO);
        seq.transfer(a(5), a(2), u(4));
        seq.finalize_tx();

        assert_eq!(par.state_root(), seq.state_root());
    }

    #[test]
    fn read_storage_many_matches_scalar_reads_through_view() {
        let base = base_state();
        let mut ov = StateOverlay::new(&base);
        ov.set_storage(a(9), u(2), u(8));
        ov.finalize_tx();
        let (d, _) = ov.into_parts();
        let mut block = BlockDelta::new();
        block.merge(&d, &base);
        let view = OverlayedView {
            base: &base,
            delta: &block,
        };
        let keys = [u(1), u(2), u(3)];
        let mut out = Vec::new();
        view.read_storage_many(a(9), &keys, &mut out);
        let scalar: Vec<U256> = keys.iter().map(|&k| view.read_storage(a(9), k)).collect();
        assert_eq!(out, scalar);
        assert_eq!(out, vec![u(42), u(8), U256::ZERO]);
    }

    #[test]
    fn conflicting_read_detected_by_validation() {
        let base = base_state();

        // Speculative tx reads slot (9,1) = 42 from the snapshot.
        let mut ov = StateOverlay::new(&base);
        let v = ov.storage(a(9), u(1));
        ov.set_storage(a(9), u(2), v + u(1));
        ov.finalize_tx();
        let (_, reads) = ov.into_parts();

        // Meanwhile an earlier transaction committed a write to (9,1).
        let mut w = StateOverlay::new(&base);
        w.set_storage(a(9), u(1), u(1234));
        w.finalize_tx();
        let (wd, _) = w.into_parts();
        let mut block = BlockDelta::new();
        block.merge(&wd, &base);
        let view = OverlayedView {
            base: &base,
            delta: &block,
        };
        assert!(!reads.validate(&view), "stale read must fail validation");
    }
}
