//! [`AccountsDb`]: the flat account store itself.
//!
//! One in-memory structure answers every read: the [`FlatIndex`], which
//! holds the newest value of every account, slot and code blob. Absorb
//! writes each committed block delta into it and notes the touched
//! accounts in the flush queue; a flush writes every queued account last
//! written at or below a height cursor, with its values read from the
//! index, into a fresh append-only storage file (the files are a
//! write-only durability log that only [`AccountsDb::open`] reads back);
//! a snapshot flushes everything and writes an atomic MANIFEST naming the
//! durable file set. Reopening honors only the MANIFEST — files flushed
//! after the last snapshot are invisible. The MANIFEST is the node's one
//! durable checkpoint: the state trie is not stored, it is derived from
//! the reopened store ([`AccountsDb::export_state`]) and checked against
//! the root the snapshot recorded.

use crate::durable::{
    flush_plan, snapshot_plan, storage_path, Fs, FsOp, RealFs, MANIFEST_FILE, STORAGE_DIR,
};
use crate::file::{corrupt, encode_header, replay, AccountMeta, Record};
use crate::index::FlatIndex;
use crate::obs;
use crate::queue::FlushQueue;
use mtpu_evm::overlay::{BlockDelta, StateRead};
use mtpu_evm::state::{Account, State};
use mtpu_primitives::map::{FastMap, FastSet};
use mtpu_primitives::{Address, B256, EMPTY_CODE_HASH, U256};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// Manifest schema line; bump when the on-disk layout changes.
const MANIFEST_SCHEMA: &str = "mtpu-accountsdb/v1";

/// Point-in-time counters and sizes, for benches and reports.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// Always 0: every read is one index probe, and there is no cache to
    /// hit. Kept because the spine's `accountsdb.cache_hit_ratio` row
    /// reads it.
    pub cache_hits: u64,
    /// Always 0, as [`DbStats::cache_hits`].
    pub cache_misses: u64,
    /// Flushes performed.
    pub flushes: u64,
    /// Accounts in the flush queue.
    pub pending_accounts: usize,
    /// Storage files in the set.
    pub files: usize,
    /// Total bytes across the storage files.
    pub file_bytes: u64,
    /// Height of the last absorbed block.
    pub head_height: u64,
    /// Height the storage files cover.
    pub flushed_height: u64,
}

impl DbStats {
    /// Blocks the flush cursor trails the head.
    pub fn flush_lag(&self) -> u64 {
        self.head_height.saturating_sub(self.flushed_height)
    }
}

/// The head state and what the files still lack of it, behind one lock.
#[derive(Debug, Default)]
struct Head {
    /// Every account, slot and code blob at the absorbed head.
    index: FlatIndex,
    /// The accounts absorbed since their last flush.
    queue: FlushQueue,
    /// Height of the last absorbed block: set under the same write
    /// lock as the index, so a reader sees a height and the values
    /// written at it together.
    height: u64,
}

impl Head {
    /// Indexes one live account at `height` through the records a flush
    /// writes, and queues it. `meta.reset_storage` starts a new
    /// incarnation, hiding the slots of the old one.
    fn write(
        &mut self,
        addr: Address,
        height: u64,
        meta: AccountMeta,
        code: Option<&[u8]>,
        storage: &FastMap<U256, U256>,
    ) {
        if let Some(code) = code {
            let code = Arc::new(code.to_vec());
            let hash = meta.code_hash;
            apply_record(&mut self.index, &Record::Code { hash, code });
        }
        apply_record(&mut self.index, &Record::Account { addr, meta });
        for (&key, &value) in storage {
            apply_record(&mut self.index, &Record::Slot { addr, key, value });
        }
        let slots = storage.keys().copied();
        self.queue
            .note(addr, height, meta.reset_storage, slots, code.is_some());
    }

    /// The live metadata of `addr`.
    fn meta(&self, addr: Address) -> Option<AccountMeta> {
        self.index.account(addr)?.meta
    }

    /// Encodes every queued account last written at or below `up_to`
    /// into `buf`, values read from the index: first the code blobs no
    /// file holds yet (deduplicated, by hash), then per account, by
    /// address, its tombstone or its record and owed slots (by key).
    /// Returns the accounts written and the blobs filed.
    fn encode_flush(
        &self,
        up_to: u64,
        filed: &FastSet<B256>,
        buf: &mut Vec<u8>,
    ) -> (usize, Vec<B256>) {
        let batch = self.queue.collect_up_to(up_to);
        if batch.is_empty() {
            return (0, Vec::new());
        }
        let mut blobs: Vec<(B256, Arc<Vec<u8>>)> = batch
            .iter()
            .filter(|(_, p)| p.new_code)
            .filter_map(|(addr, _)| {
                let hash = self.meta(*addr)?.code_hash;
                Some((hash, self.index.code(hash)?.clone()))
            })
            .filter(|(hash, _)| !filed.contains(hash))
            .collect();
        blobs.sort_unstable_by_key(|(hash, _)| *hash);
        blobs.dedup_by_key(|(hash, _)| *hash);
        encode_header(buf, up_to);
        for (hash, code) in &blobs {
            let (hash, code) = (*hash, code.clone());
            Record::Code { hash, code }.encode(buf);
        }
        for (addr, pending) in &batch {
            let addr = *addr;
            let Some(meta) = self.meta(addr) else {
                Record::Tombstone { addr }.encode(buf);
                continue;
            };
            let meta = AccountMeta {
                reset_storage: pending.reset,
                ..meta
            };
            Record::Account { addr, meta }.encode(buf);
            let mut keys: Vec<U256> = pending.slots.iter().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let value = self.index.slot(addr, key).unwrap_or(U256::ZERO);
                Record::Slot { addr, key, value }.encode(buf);
            }
        }
        (
            batch.len(),
            blobs.into_iter().map(|(hash, _)| hash).collect(),
        )
    }
}

/// The flat accounts store. All methods take `&self`; the struct is
/// `Sync` and meant to be shared (`Arc<AccountsDb>`) between the node
/// driver, the background flush service and any number of readers.
#[derive(Debug)]
pub struct AccountsDb {
    dir: PathBuf,
    /// Runs every file write, sync and rename of flush and snapshot.
    fs: Arc<dyn Fs>,
    head: RwLock<Head>,
    /// Byte length of each storage file, in id order.
    file_lens: RwLock<Vec<u64>>,
    /// Hashes of the code blobs some storage file holds. Holding it
    /// serializes flush and snapshot.
    filed_code: Mutex<FastSet<B256>>,
    flushed_height: AtomicU64,
    /// Root recorded by the last snapshot (or found in the manifest).
    snapshot_root: Mutex<Option<B256>>,
    flushes: AtomicU64,
}

impl AccountsDb {
    /// Opens (or creates) a store in `dir`, replaying the manifested
    /// storage files into the in-memory index. Files on disk that the
    /// manifest does not vouch for (a crash between flush and snapshot)
    /// are ignored and later overwritten.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, an unknown manifest schema, or corrupt
    /// manifested file contents.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<AccountsDb> {
        AccountsDb::open_with_fs(dir, Arc::new(RealFs))
    }

    /// [`AccountsDb::open`], with flush and snapshot running their file
    /// operations through `fs` instead of the real file system.
    ///
    /// # Errors
    ///
    /// As [`AccountsDb::open`].
    pub fn open_with_fs(dir: impl AsRef<Path>, fs: Arc<dyn Fs>) -> io::Result<AccountsDb> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(dir.join(STORAGE_DIR))?;
        let db = AccountsDb {
            dir: dir.clone(),
            fs,
            head: RwLock::new(Head::default()),
            file_lens: RwLock::new(Vec::new()),
            filed_code: Mutex::new(FastSet::default()),
            flushed_height: AtomicU64::new(0),
            snapshot_root: Mutex::new(None),
            flushes: AtomicU64::new(0),
        };

        let Some(Manifest { height, root, lens }) = read_manifest(&dir.join(MANIFEST_FILE))? else {
            return Ok(db);
        };
        {
            let mut head = db.head.write().expect("head poisoned");
            head.height = height;
            let mut filed = db.filed_code.lock().expect("flush lock poisoned");
            for (id, &len) in lens.iter().enumerate() {
                let mut bytes = std::fs::read(storage_path(&dir, id as u32))?;
                let actual = bytes.len() as u64;
                if actual < len {
                    return Err(corrupt(format!(
                        "storage file {id} shorter than manifest: {actual} < {len}"
                    )));
                }
                bytes.truncate(len as usize);
                for record in &replay(&bytes)? {
                    if let Record::Code { hash, .. } = record {
                        filed.insert(*hash);
                    }
                    apply_record(&mut head.index, record);
                }
            }
        }
        *db.file_lens.write().expect("file set poisoned") = lens;
        db.flushed_height.store(height, Ordering::SeqCst);
        *db.snapshot_root.lock().expect("snapshot root poisoned") = root;
        Ok(db)
    }

    /// Height of the last absorbed block.
    pub fn head_height(&self) -> u64 {
        self.head().height
    }

    /// Height the storage files cover.
    pub fn flushed_height(&self) -> u64 {
        self.flushed_height.load(Ordering::SeqCst)
    }

    /// Root recorded by the last snapshot (or the manifest on open).
    pub fn snapshot_root(&self) -> Option<B256> {
        *self.snapshot_root.lock().expect("snapshot root poisoned")
    }

    /// Accounts absorbed since their last flush.
    pub fn pending_accounts(&self) -> usize {
        self.head().queue.len()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> DbStats {
        let (files, file_bytes) = {
            let lens = self.file_lens.read().expect("file set poisoned");
            (lens.len(), lens.iter().sum())
        };
        DbStats {
            cache_hits: 0,
            cache_misses: 0,
            flushes: self.flushes.load(Ordering::Relaxed),
            pending_accounts: self.pending_accounts(),
            files,
            file_bytes,
            head_height: self.head_height(),
            flushed_height: self.flushed_height(),
        }
    }

    /// Writes every live account of `state` at `height` — how a fresh
    /// store adopts a genesis. Call [`AccountsDb::snapshot`] (or at least
    /// [`AccountsDb::flush_up_to`]) afterwards to move it into files.
    pub fn bootstrap_from_state(&self, state: &State, height: u64) {
        let mut head = self.head.write().expect("head poisoned");
        for (addr, acc) in state.iter_live_accounts() {
            let meta = AccountMeta {
                reset_storage: true,
                nonce: acc.nonce,
                balance: acc.balance,
                code_hash: acc.code_hash,
            };
            let code = (!acc.code.is_empty()).then_some(acc.code.as_slice());
            head.write(addr, height, meta, code, &acc.storage);
        }
        head.height = height;
        drop(head);
        self.update_gauges();
    }

    /// The whole store at the absorbed head as a [`State`]: every live
    /// account with its code and non-zero slots, read from the index.
    /// The inverse of [`AccountsDb::bootstrap_from_state`], and how a
    /// reopened store derives its trie: `export_state().merkle_root()`
    /// is the root [`AccountsDb::snapshot`] recorded.
    pub fn export_state(&self) -> State {
        let head = self.head();
        let ix = &head.index;
        let mut storage: FastMap<Address, FastMap<U256, U256>> = FastMap::default();
        for (addr, key, value) in ix.iter_live_slots() {
            if !value.is_zero() {
                storage.entry(addr).or_default().insert(key, value);
            }
        }
        let mut state = State::new();
        for (addr, meta) in ix.iter_accounts().filter_map(|(a, e)| Some((a, e.meta?))) {
            state.insert_account(
                addr,
                Account {
                    nonce: meta.nonce,
                    balance: meta.balance,
                    code: code_for_hash(ix, meta.code_hash),
                    code_hash: meta.code_hash,
                    storage: storage.remove(&addr).unwrap_or_default(),
                },
            );
        }
        state
    }

    /// Absorbs one committed block's delta at `height` into the index and
    /// the flush queue. Metadata fields the delta leaves unset are
    /// resolved against the pre-absorb view, so each account record is
    /// self-contained.
    ///
    /// Heights must be absorbed in increasing order (the flush cursor
    /// relies on it); concurrent readers are fine, concurrent absorbs are
    /// not.
    pub fn absorb(&self, delta: &BlockDelta, height: u64) {
        let mut head = self.head.write().expect("head poisoned");
        debug_assert!(height >= head.height, "absorb heights must not go back");
        for (addr, d) in delta.iter() {
            if d.deleted {
                apply_record(&mut head.index, &Record::Tombstone { addr });
                head.queue.note(addr, height, true, [], false);
                continue;
            }
            // The delta's read rule decides each field it can; the rest
            // fall through to the (pre-absorb) view of this same account.
            let old = head.meta(addr);
            let meta = AccountMeta {
                reset_storage: d.shadows_base,
                nonce: d.read_nonce().unwrap_or(old.map_or(0, |m| m.nonce)),
                balance: d
                    .read_balance()
                    .unwrap_or(old.map_or(U256::ZERO, |m| m.balance)),
                code_hash: d
                    .read_code_hash()
                    .unwrap_or(old.map_or(B256::ZERO, |m| m.code_hash)),
            };
            let code = d.code.as_ref().map(|(code, _)| code.as_slice());
            let code = code.filter(|code| !code.is_empty());
            head.write(addr, height, meta, code, &d.storage);
        }
        head.height = height;
        drop(head);
        self.update_gauges();
    }

    /// Writes every queued account last written at or below `up_to` into
    /// a fresh storage file, then drops it from the flush queue. Reads
    /// never wait on it: the index already holds every value.
    ///
    /// Returns the number of accounts written (0 = no file created).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; the queue then still holds every
    /// account the failed flush collected.
    pub fn flush_up_to(&self, up_to: u64) -> io::Result<usize> {
        let mut filed = self.filed_code.lock().expect("flush lock poisoned");
        self.flush_locked(&mut filed, up_to)
            .map(|(accounts, _)| accounts)
    }

    /// [`AccountsDb::flush_up_to`], returning the accounts written and
    /// the height the storage files now cover: `up_to`, capped at the
    /// head height read under the same guard as the flushed values.
    fn flush_locked(&self, filed: &mut FastSet<B256>, up_to: u64) -> io::Result<(usize, u64)> {
        let mut buf = Vec::new();
        let (up_to, accounts, blobs) = {
            let head = self.head();
            let up_to = up_to.min(head.height);
            let (accounts, blobs) = head.encode_flush(up_to, filed, &mut buf);
            (up_to, accounts, blobs)
        };
        if accounts == 0 {
            self.flushed_height.fetch_max(up_to, Ordering::SeqCst);
            return Ok((0, up_to));
        }

        let file_id = self.file_lens.read().expect("file set poisoned").len() as u32;
        let len = buf.len() as u64;
        self.execute(&flush_plan(&self.dir, file_id, buf))?;
        self.file_lens.write().expect("file set poisoned").push(len);
        filed.extend(blobs);
        self.head
            .write()
            .expect("head poisoned")
            .queue
            .evict_flushed(up_to);
        self.flushed_height.fetch_max(up_to, Ordering::SeqCst);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().flush.inc();
        }
        self.update_gauges();
        Ok((accounts, up_to))
    }

    /// Flushes everything and writes the MANIFEST atomically: after this
    /// returns, [`AccountsDb::open`] on the same directory reproduces the
    /// current state exactly. `root` (typically the MPT root at the head
    /// height) rides along for end-to-end verification on restore. The
    /// MANIFEST names the height the final flush covered, so a block
    /// absorbed while the snapshot writes is left to the next one.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; an interrupted snapshot leaves the
    /// previous manifest in place (temp file + rename).
    pub fn snapshot(&self, root: Option<B256>) -> io::Result<()> {
        let mut filed = self.filed_code.lock().expect("flush lock poisoned");
        let (_, height) = self.flush_locked(&mut filed, u64::MAX)?;
        let manifest = {
            let lens = self.file_lens.read().expect("file set poisoned");
            let mut text = format!(
                "{MANIFEST_SCHEMA}\n{height}\n{}\n{}\n",
                root.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
                lens.len()
            );
            for len in lens.iter() {
                text.push_str(&len.to_string());
                text.push('\n');
            }
            text
        };
        self.execute(&snapshot_plan(&self.dir, manifest))?;
        *self.snapshot_root.lock().expect("snapshot root poisoned") = root;
        if mtpu_telemetry::enabled() {
            obs::metrics().snapshot.inc();
        }
        Ok(())
    }

    /// Runs a plan's operations in order, stopping at the first error.
    fn execute(&self, plan: &[FsOp]) -> io::Result<()> {
        plan.iter().try_for_each(|op| self.fs.apply(op))
    }

    fn update_gauges(&self) {
        if mtpu_telemetry::enabled() {
            obs::metrics()
                .flush_lag
                .set(self.head_height().saturating_sub(self.flushed_height()) as f64);
        }
    }

    /// The head state, for reading.
    fn head(&self) -> RwLockReadGuard<'_, Head> {
        self.head.read().expect("head poisoned")
    }

    /// A no-op: execution reads the index on demand, and there is no
    /// prefetch worker to start. It stays only because `spine/`'s staged
    /// loop names it, behind `mtpu_evm::prefetch_enabled()` (always
    /// `false`).
    pub fn enable_prefetch(self: &Arc<Self>) {}
}

/// Execution reads: one index probe each.
impl StateRead for AccountsDb {
    fn read_exists(&self, addr: Address) -> bool {
        self.head().meta(addr).is_some()
    }

    fn read_balance(&self, addr: Address) -> U256 {
        self.head().meta(addr).map_or(U256::ZERO, |m| m.balance)
    }

    fn read_nonce(&self, addr: Address) -> u64 {
        self.head().meta(addr).map_or(0, |m| m.nonce)
    }

    fn read_code(&self, addr: Address) -> Vec<u8> {
        let head = self.head();
        head.meta(addr)
            .map_or_else(Vec::new, |m| code_for_hash(&head.index, m.code_hash))
    }

    fn read_code_hash(&self, addr: Address) -> B256 {
        self.head().meta(addr).map_or(B256::ZERO, |m| m.code_hash)
    }

    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        self.head().index.slot(addr, key).unwrap_or(U256::ZERO)
    }
}

/// Resolves a code hash to its blob (empty for the empty-code hashes
/// and for hashes the store has never seen).
fn code_for_hash(ix: &FlatIndex, hash: B256) -> Vec<u8> {
    if hash == B256::ZERO || hash == EMPTY_CODE_HASH {
        return Vec::new();
    }
    ix.code(hash).map(|c| c.to_vec()).unwrap_or_default()
}

/// Folds one record into the index: the one way a value reaches it, from
/// absorb and from the replay in [`AccountsDb::open`] alike.
fn apply_record(index: &mut FlatIndex, record: &Record) {
    match record {
        Record::Account { addr, meta } => index.upsert_account(*addr, *meta),
        Record::Tombstone { addr } => index.delete_account(*addr),
        Record::Slot { addr, key, value } => index.upsert_slot(*addr, *key, *value),
        Record::Code { hash, code } => index.upsert_code(*hash, code.clone()),
    }
}

/// Parsed MANIFEST contents: snapshot height, optional merkle root, and
/// the vouched-for byte length of each storage file in id order.
struct Manifest {
    height: u64,
    root: Option<B256>,
    lens: Vec<u64>,
}

fn read_manifest(path: &Path) -> io::Result<Option<Manifest>> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut lines = text.lines();
    match lines.next() {
        Some(MANIFEST_SCHEMA) => {}
        other => return Err(corrupt(format!("unknown manifest schema {other:?}"))),
    }
    let height = field(lines.next(), "height")?;
    let root = match lines.next() {
        Some("-") => None,
        Some(hex) => Some(
            hex.parse::<B256>()
                .map_err(|_| corrupt("manifest root is not 32-byte hex"))?,
        ),
        None => return Err(corrupt("manifest missing root line")),
    };
    let count: usize = field(lines.next(), "file count")?;
    let lens = (0..count)
        .map(|_| field(lines.next(), "file length"))
        .collect::<io::Result<_>>()?;
    Ok(Some(Manifest { height, root, lens }))
}

/// One numeric MANIFEST line.
fn field<T: std::str::FromStr>(line: Option<&str>, what: &str) -> io::Result<T> {
    line.and_then(|l| l.parse().ok())
        .ok_or_else(|| corrupt(format!("manifest missing {what}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::overlay::{AccountDelta, TxDelta};
    use std::path::PathBuf;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mtpu-accountsdb-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    /// A delta creating `addr` with the given balance/nonce, optional code
    /// and storage writes.
    fn creation(
        a: Address,
        balance: u64,
        nonce: u64,
        code: Option<&[u8]>,
        slots: &[(u64, u64)],
    ) -> TxDelta {
        let mut d = AccountDelta {
            shadows_base: true,
            balance: Some(U256::from(balance)),
            nonce: Some(nonce),
            ..Default::default()
        };
        if let Some(code) = code {
            d.code = Some((code.to_vec(), B256::keccak(code)));
        }
        for (k, v) in slots {
            d.storage.insert(U256::from(*k), U256::from(*v));
        }
        let mut tx = TxDelta::default();
        tx.accounts.insert(a, d);
        tx
    }

    fn absorb_tx(db: &AccountsDb, tx: &TxDelta, height: u64) {
        let mut bd = BlockDelta::new();
        bd.merge(tx, db);
        db.absorb(&bd, height);
    }

    #[test]
    fn absorb_flush_snapshot_reopen_round_trip() {
        let dir = scratch_dir("roundtrip");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(
            &db,
            &creation(addr(1), 100, 7, Some(b"contract-code"), &[(1, 11), (2, 22)]),
            1,
        );
        absorb_tx(&db, &creation(addr(2), 55, 0, None, &[]), 2);

        let check = |db: &AccountsDb| {
            assert!(db.read_exists(addr(1)));
            assert_eq!(db.read_balance(addr(1)), U256::from(100u64));
            assert_eq!(db.read_nonce(addr(1)), 7);
            assert_eq!(db.read_code(addr(1)), b"contract-code".to_vec());
            assert_eq!(db.read_code_hash(addr(1)), B256::keccak(b"contract-code"));
            assert_eq!(
                db.read_storage(addr(1), U256::from(1u64)),
                U256::from(11u64)
            );
            assert_eq!(
                db.read_storage(addr(1), U256::from(2u64)),
                U256::from(22u64)
            );
            assert_eq!(db.read_storage(addr(1), U256::from(3u64)), U256::ZERO);
            assert_eq!(db.read_balance(addr(2)), U256::from(55u64));
            // Delta-created accounts get the materialized empty-code hash,
            // exactly as `State` does via `apply_account_delta`.
            assert_eq!(db.read_code_hash(addr(2)), B256::keccak(b""));
            assert!(!db.read_exists(addr(9)));
        };
        check(&db); // absorbed reads
        assert_eq!(db.pending_accounts(), 2);

        assert_eq!(db.flush_up_to(2).unwrap(), 2);
        assert_eq!(db.pending_accounts(), 0);
        check(&db); // flushed reads

        let root = B256::keccak(b"fake-root");
        db.snapshot(Some(root)).unwrap();
        drop(db);

        let reopened = AccountsDb::open(&dir).unwrap();
        assert_eq!(reopened.head_height(), 2);
        assert_eq!(reopened.flushed_height(), 2);
        assert_eq!(reopened.snapshot_root(), Some(root));
        check(&reopened); // replayed reads
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incremental_updates_overlay_flushed_data() {
        let dir = scratch_dir("overlay");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(
            &db,
            &creation(addr(1), 100, 0, Some(b"c"), &[(1, 11), (2, 22)]),
            1,
        );
        db.flush_up_to(1).unwrap();

        // A later block rewrites one slot and the balance only; the delta
        // does not shadow the base.
        let mut d = AccountDelta {
            balance: Some(U256::from(90u64)),
            ..Default::default()
        };
        d.storage.insert(U256::from(1u64), U256::from(111u64));
        let mut tx = TxDelta::default();
        tx.accounts.insert(addr(1), d);
        absorb_tx(&db, &tx, 2);

        // The rewritten slot and the untouched one both read from the
        // index. Metadata was resolved at absorb.
        assert_eq!(db.read_balance(addr(1)), U256::from(90u64));
        assert_eq!(db.read_nonce(addr(1)), 0);
        assert_eq!(db.read_code(addr(1)), b"c".to_vec());
        assert_eq!(
            db.read_storage(addr(1), U256::from(1u64)),
            U256::from(111u64)
        );
        assert_eq!(
            db.read_storage(addr(1), U256::from(2u64)),
            U256::from(22u64)
        );

        // After the second flush the merged picture persists.
        db.flush_up_to(2).unwrap();
        assert_eq!(
            db.read_storage(addr(1), U256::from(1u64)),
            U256::from(111u64)
        );
        assert_eq!(
            db.read_storage(addr(1), U256::from(2u64)),
            U256::from(22u64)
        );
        assert_eq!(db.read_balance(addr(1)), U256::from(90u64));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn selfdestruct_and_recreate_across_flushes() {
        let dir = scratch_dir("destruct");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(&db, &creation(addr(1), 100, 1, Some(b"old"), &[(1, 11)]), 1);
        db.flush_up_to(1).unwrap();

        // Delete it; tombstone masks the flushed record both before and
        // after the flush.
        let mut tx = TxDelta::default();
        tx.accounts.insert(
            addr(1),
            AccountDelta {
                shadows_base: true,
                deleted: true,
                ..Default::default()
            },
        );
        absorb_tx(&db, &tx, 2);
        assert!(!db.read_exists(addr(1)));
        assert_eq!(db.read_storage(addr(1), U256::from(1u64)), U256::ZERO);
        db.flush_up_to(2).unwrap();
        assert!(!db.read_exists(addr(1)));
        assert_eq!(db.read_storage(addr(1), U256::from(1u64)), U256::ZERO);
        assert_eq!(db.read_code(addr(1)), Vec::<u8>::new());

        // Recreate: old storage stays invisible (generation bump), new
        // writes show.
        absorb_tx(&db, &creation(addr(1), 5, 0, None, &[(2, 99)]), 3);
        db.flush_up_to(3).unwrap();
        assert!(db.read_exists(addr(1)));
        assert_eq!(db.read_storage(addr(1), U256::from(1u64)), U256::ZERO);
        assert_eq!(
            db.read_storage(addr(1), U256::from(2u64)),
            U256::from(99u64)
        );
        assert_eq!(db.read_code_hash(addr(1)), B256::keccak(b""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unmanifested_flush_is_dropped_on_reopen() {
        let dir = scratch_dir("crash");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(&db, &creation(addr(1), 100, 0, None, &[]), 1);
        db.snapshot(None).unwrap();

        // Flush past the snapshot but "crash" before the next manifest.
        absorb_tx(&db, &creation(addr(2), 200, 0, None, &[]), 2);
        db.flush_up_to(2).unwrap();
        assert!(db.read_exists(addr(2)));
        drop(db);

        let reopened = AccountsDb::open(&dir).unwrap();
        assert_eq!(reopened.head_height(), 1, "resumes at the last snapshot");
        assert!(reopened.read_exists(addr(1)));
        assert!(!reopened.read_exists(addr(2)), "unmanifested file ignored");

        // The orphaned file id is reused and truncated by the next flush.
        absorb_tx(&reopened, &creation(addr(3), 300, 0, None, &[]), 2);
        reopened.snapshot(None).unwrap();
        drop(reopened);
        let again = AccountsDb::open(&dir).unwrap();
        assert!(again.read_exists(addr(1)));
        assert!(!again.read_exists(addr(2)));
        assert!(again.read_exists(addr(3)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_state_reads_back_only_live_accounts_and_slots() {
        let dir = scratch_dir("export");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(
            &db,
            &creation(addr(1), 100, 7, Some(b"code"), &[(1, 11), (2, 22)]),
            1,
        );
        absorb_tx(&db, &creation(addr(2), 55, 0, None, &[(3, 33)]), 1);
        db.flush_up_to(1).unwrap();
        // Block 2 clears slot 2 of addr(1) and deletes addr(2).
        let mut tx = creation(addr(1), 100, 8, None, &[(2, 0)]);
        tx.accounts.get_mut(&addr(1)).unwrap().shadows_base = false;
        tx.accounts.get_mut(&addr(1)).unwrap().balance = None;
        tx.accounts.insert(
            addr(2),
            AccountDelta {
                shadows_base: true,
                deleted: true,
                ..Default::default()
            },
        );
        absorb_tx(&db, &tx, 2);
        db.snapshot(None).unwrap();

        let state = db.export_state();
        assert_eq!(state.account_count(), 1, "deleted account exported");
        let acc = state.account(addr(1)).unwrap();
        assert_eq!((acc.nonce, acc.balance), (8, U256::from(100u64)));
        assert_eq!(acc.code, b"code".to_vec());
        assert_eq!(acc.code_hash, B256::keccak(b"code"));
        let slots: FastMap<U256, U256> = [(U256::from(1u64), U256::from(11u64))]
            .into_iter()
            .collect();
        assert_eq!(acc.storage, slots, "a cleared slot must not export");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs the real file system, but absorbs `block` into the store the
    /// first time it writes a storage file: a block landing while a
    /// snapshot is on disk.
    #[derive(Debug)]
    struct AbsorbOnWrite {
        db: std::sync::OnceLock<std::sync::Weak<AccountsDb>>,
        block: Mutex<Option<(TxDelta, u64)>>,
    }

    impl Fs for AbsorbOnWrite {
        fn apply(&self, op: &FsOp) -> io::Result<()> {
            RealFs.apply(op)?;
            if let FsOp::Write(path, _) = op {
                if path.parent().is_some_and(|p| p.ends_with(STORAGE_DIR)) {
                    let block = self.block.lock().unwrap().take();
                    if let Some((tx, height)) = block {
                        let db = self.db.get().and_then(|db| db.upgrade()).unwrap();
                        absorb_tx(&db, &tx, height);
                    }
                }
            }
            Ok(())
        }
    }

    #[test]
    fn a_block_absorbed_during_a_snapshot_is_not_in_its_manifest() {
        let dir = scratch_dir("snapshot-race");
        let fs = Arc::new(AbsorbOnWrite {
            db: std::sync::OnceLock::new(),
            block: Mutex::new(Some((creation(addr(9), 900, 0, None, &[(1, 1)]), 3))),
        });
        let db = Arc::new(AccountsDb::open_with_fs(&dir, fs.clone()).unwrap());
        fs.db.set(Arc::downgrade(&db)).unwrap();
        absorb_tx(&db, &creation(addr(1), 100, 0, None, &[(1, 11)]), 1);
        absorb_tx(&db, &creation(addr(2), 200, 0, None, &[]), 2);
        let before = db.export_state().merkle_root();

        db.snapshot(None).unwrap();
        assert_eq!(db.head_height(), 3, "the block landed mid-snapshot");
        assert!(db.read_exists(addr(9)));
        drop(db);

        let reopened = AccountsDb::open(&dir).unwrap();
        assert_eq!(
            reopened.head_height(),
            2,
            "MANIFEST names the flushed height"
        );
        assert_eq!(reopened.export_state().merkle_root(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_service_coalesces_and_quiesces() {
        let dir = scratch_dir("service");
        let db = Arc::new(AccountsDb::open(&dir).unwrap());
        let service = crate::service::FlushService::start(db.clone());
        for h in 1..=10u64 {
            absorb_tx(&db, &creation(addr(h), h * 10, 0, None, &[]), h);
            service.request_flush(h.saturating_sub(2));
        }
        service.quiesce();
        assert_eq!(db.pending_accounts(), 0, "quiesce drains the queue");
        assert_eq!(db.flushed_height(), 10);
        for h in 1..=10u64 {
            assert_eq!(db.read_balance(addr(h)), U256::from(h * 10));
        }
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_flushes() {
        let dir = scratch_dir("stats");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(&db, &creation(addr(1), 1, 0, None, &[]), 1);
        assert_eq!(db.stats().pending_accounts, 1);
        db.flush_up_to(1).unwrap();
        let s = db.stats();
        assert_eq!(s.pending_accounts, 0);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.files, 1);
        assert!(s.file_bytes > 0);
        assert_eq!(s.flush_lag(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
