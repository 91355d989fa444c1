//! [`AccountsDb`]: the flat account store itself.
//!
//! Reads go cache → index → positional file read; committed block deltas
//! are absorbed into the write cache fully resolved; a flush moves every
//! entry at or below a height cursor into a fresh append-only storage
//! file and the index; a snapshot flushes everything and writes an atomic
//! MANIFEST naming the durable file set. Reopening honors only the
//! MANIFEST — files flushed after the last snapshot are invisible. The
//! MANIFEST is the node's one durable checkpoint: the state trie is not
//! stored, it is derived from the reopened store
//! ([`AccountsDb::export_state`]) and checked against the root the
//! snapshot recorded.

use crate::cache::{CachedAccount, WriteCache};
use crate::durable::{
    flush_plan, snapshot_plan, storage_path, Fs, FsOp, RealFs, MANIFEST_FILE, STORAGE_DIR,
};
use crate::file::{
    corrupt, decode_account_payload, encode_account, encode_code, encode_header, encode_slot,
    encode_tombstone, replay, AccountMeta, Loc, Record, ACCOUNT_PAYLOAD_LEN,
};
use crate::index::{CodeLoc, FlatIndex};
use crate::obs;
use mtpu_evm::overlay::{BlockDelta, StateRead};
use mtpu_evm::state::{Account, State};
use mtpu_primitives::map::FastMap;
use mtpu_primitives::{Address, B256, EMPTY_CODE_HASH, U256};
use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Manifest schema line; bump when the on-disk layout changes.
const MANIFEST_SCHEMA: &str = "mtpu-accountsdb/v1";

/// One immutable, fully written storage file.
#[derive(Debug)]
struct StoredFile {
    file: Arc<File>,
    len: u64,
}

/// Point-in-time counters and sizes, for benches and reports.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// Reads served by the write cache.
    pub cache_hits: u64,
    /// Reads that fell through to the index + files.
    pub cache_misses: u64,
    /// Flushes performed.
    pub flushes: u64,
    /// Accounts currently in the write cache.
    pub cache_entries: usize,
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
    /// Fraction of reads served by the write cache.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Blocks the flush cursor trails the head.
    pub fn flush_lag(&self) -> u64 {
        self.head_height.saturating_sub(self.flushed_height)
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
    cache: WriteCache,
    index: RwLock<FlatIndex>,
    files: RwLock<Vec<StoredFile>>,
    /// Resolved code blobs (content-addressed; bounded by distinct
    /// contracts, which is small next to accounts).
    code_cache: RwLock<FastMap<B256, Arc<Vec<u8>>>>,
    /// Serializes flush and snapshot.
    flush_lock: Mutex<()>,
    head_height: AtomicU64,
    flushed_height: AtomicU64,
    /// Root recorded by the last snapshot (or found in the manifest).
    snapshot_root: Mutex<Option<B256>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
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
            cache: WriteCache::new(),
            index: RwLock::new(FlatIndex::default()),
            files: RwLock::new(Vec::new()),
            code_cache: RwLock::new(FastMap::default()),
            flush_lock: Mutex::new(()),
            head_height: AtomicU64::new(0),
            flushed_height: AtomicU64::new(0),
            snapshot_root: Mutex::new(None),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        };

        let Some(Manifest { height, root, lens }) = read_manifest(&dir.join(MANIFEST_FILE))? else {
            return Ok(db);
        };
        {
            let mut index = db.index.write().expect("index poisoned");
            let mut files = db.files.write().expect("file set poisoned");
            for (id, len) in lens.iter().copied().enumerate() {
                let path = storage_path(&dir, id as u32);
                let file = File::open(&path)?;
                let actual = file.metadata()?.len();
                if actual < len {
                    return Err(corrupt(format!(
                        "storage file {id} shorter than manifest: {actual} < {len}"
                    )));
                }
                let mut bytes = vec![0u8; len as usize];
                file.read_exact_at(&mut bytes, 0)?;
                for record in replay(&bytes)? {
                    apply_record(&mut index, id as u32, &record);
                }
                files.push(StoredFile {
                    file: Arc::new(file),
                    len,
                });
            }
        }
        db.head_height.store(height, Ordering::SeqCst);
        db.flushed_height.store(height, Ordering::SeqCst);
        *db.snapshot_root.lock().expect("snapshot root poisoned") = root;
        Ok(db)
    }

    /// Height of the last absorbed block.
    pub fn head_height(&self) -> u64 {
        self.head_height.load(Ordering::SeqCst)
    }

    /// Height the storage files cover.
    pub fn flushed_height(&self) -> u64 {
        self.flushed_height.load(Ordering::SeqCst)
    }

    /// Root recorded by the last snapshot (or the manifest on open).
    pub fn snapshot_root(&self) -> Option<B256> {
        *self.snapshot_root.lock().expect("snapshot root poisoned")
    }

    /// Accounts currently held in the write cache.
    pub fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> DbStats {
        let (files, file_bytes) = {
            let files = self.files.read().expect("file set poisoned");
            (files.len(), files.iter().map(|f| f.len).sum())
        };
        DbStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            cache_entries: self.cache.len(),
            files,
            file_bytes,
            head_height: self.head_height(),
            flushed_height: self.flushed_height(),
        }
    }

    /// Seeds the write cache with every live account of `state` at
    /// `height` — how a fresh store adopts a genesis. Call
    /// [`AccountsDb::snapshot`] (or at least [`AccountsDb::flush_up_to`])
    /// afterwards to move it into files.
    pub fn bootstrap_from_state(&self, state: &State, height: u64) {
        for (addr, acc) in state.iter_live_accounts() {
            let new_code = if acc.code.is_empty() {
                None
            } else {
                Some(Arc::new(acc.code.clone()))
            };
            self.cache.insert(
                addr,
                CachedAccount {
                    height,
                    deleted: false,
                    reset_storage: true,
                    nonce: acc.nonce,
                    balance: acc.balance,
                    code_hash: acc.code_hash,
                    new_code,
                    storage: acc.storage.clone(),
                },
            );
        }
        self.head_height.store(height, Ordering::SeqCst);
        self.update_gauges();
    }

    /// The whole store as a [`State`]: every live account with its code
    /// and non-zero slots, read through the index and the storage files.
    /// The inverse of [`AccountsDb::bootstrap_from_state`], and how a
    /// reopened store derives its trie: `export_state().merkle_root()`
    /// is the root [`AccountsDb::snapshot`] recorded.
    ///
    /// # Panics
    ///
    /// If the write cache holds entries. The files then hold the whole
    /// state only right after [`AccountsDb::open`] or
    /// [`AccountsDb::snapshot`], so call it there.
    pub fn export_state(&self) -> State {
        assert_eq!(
            self.cache.len(),
            0,
            "export_state needs an empty write cache (call it after open or snapshot)"
        );
        let (accounts, slots) = {
            let ix = self.index.read().expect("index poisoned");
            let accounts: Vec<Address> = ix
                .iter_accounts()
                .filter_map(|(addr, e)| e.meta.map(|_| addr))
                .collect();
            let slots: Vec<(Address, U256)> = ix
                .iter_live_slots()
                .map(|(addr, key, _)| (addr, key))
                .collect();
            (accounts, slots)
        };
        let mut storage: FastMap<Address, FastMap<U256, U256>> = FastMap::default();
        for (addr, key) in slots {
            let value = self.flat_storage(addr, key);
            if !value.is_zero() {
                storage.entry(addr).or_default().insert(key, value);
            }
        }
        let mut state = State::new();
        for addr in accounts {
            let meta = self.flat_account(addr).expect("live account has metadata");
            state.insert_account(
                addr,
                Account {
                    nonce: meta.nonce,
                    balance: meta.balance,
                    code: self.code_for_hash(meta.code_hash),
                    code_hash: meta.code_hash,
                    storage: storage.remove(&addr).unwrap_or_default(),
                },
            );
        }
        state
    }

    /// Absorbs one committed block's delta at `height`. Metadata fields
    /// the delta leaves unset are resolved against the pre-absorb view,
    /// so cache entries are always self-contained for account metadata.
    ///
    /// Heights must be absorbed in increasing order (the flush cursor
    /// relies on it); concurrent readers are fine, concurrent absorbs are
    /// not.
    pub fn absorb(&self, delta: &BlockDelta, height: u64) {
        debug_assert!(
            height >= self.head_height(),
            "absorb heights must not go back"
        );
        for (addr, d) in delta.iter() {
            if d.deleted {
                self.cache.insert(addr, CachedAccount::tombstone(height));
                continue;
            }
            // The delta's read rule decides each field it can; the rest
            // fall through to the (pre-absorb) view of this same account.
            let nonce = d
                .read_nonce()
                .unwrap_or_else(|| self.meta(addr, |c| c.nonce, |m| m.nonce, 0).0);
            let balance = d
                .read_balance()
                .unwrap_or_else(|| self.meta(addr, |c| c.balance, |m| m.balance, U256::ZERO).0);
            let code_hash = d.read_code_hash().unwrap_or_else(|| {
                self.meta(addr, |c| c.code_hash, |m| m.code_hash, B256::ZERO)
                    .0
            });
            let new_code = d
                .code
                .as_ref()
                .filter(|(code, _)| !code.is_empty())
                .map(|(code, _)| Arc::new(code.clone()));
            self.cache.upsert(
                addr,
                || CachedAccount {
                    height,
                    deleted: false,
                    reset_storage: d.shadows_base,
                    nonce,
                    balance,
                    code_hash,
                    new_code: new_code.clone(),
                    storage: d.storage.clone(),
                },
                |e| {
                    if e.deleted || d.shadows_base {
                        // (Re-)creation: stale dirty slots must not leak
                        // into the new incarnation.
                        *e = CachedAccount {
                            height,
                            deleted: false,
                            reset_storage: true,
                            nonce,
                            balance,
                            code_hash,
                            new_code: new_code.clone(),
                            storage: d.storage.clone(),
                        };
                    } else {
                        e.height = height;
                        e.nonce = nonce;
                        e.balance = balance;
                        e.code_hash = code_hash;
                        if new_code.is_some() {
                            e.new_code = new_code.clone();
                        }
                        for (k, v) in &d.storage {
                            e.storage.insert(*k, *v);
                        }
                    }
                },
            );
        }
        self.head_height.store(height, Ordering::SeqCst);
        self.update_gauges();
    }

    /// Flushes every cache entry last written at or below `up_to` into a
    /// fresh storage file, then folds the file into the index and evicts
    /// the flushed entries. Data stays readable throughout: file first,
    /// index second, eviction last.
    ///
    /// Returns the number of accounts written (0 = no file created).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; the store is still consistent (the
    /// cache keeps everything that did not land in the index).
    pub fn flush_up_to(&self, up_to: u64) -> io::Result<usize> {
        let guard = self.flush_lock.lock().expect("flush lock poisoned");
        self.flush_locked(&guard, up_to)
    }

    fn flush_locked(
        &self,
        _guard: &std::sync::MutexGuard<'_, ()>,
        up_to: u64,
    ) -> io::Result<usize> {
        let up_to = up_to.min(self.head_height());
        let batch = self.cache.collect_up_to(up_to);
        if batch.is_empty() {
            self.flushed_height.fetch_max(up_to, Ordering::SeqCst);
            return Ok(0);
        }

        // Code blobs not yet in the file set, deduplicated and sorted so
        // the file bytes are a pure function of the batch.
        let mut code_to_write: Vec<(B256, Arc<Vec<u8>>)> = {
            let ix = self.index.read().expect("index poisoned");
            batch
                .iter()
                .filter_map(|(_, e)| Some((e.code_hash, e.new_code.clone()?)))
                .filter(|(hash, _)| ix.code(*hash).is_none())
                .collect()
        };
        code_to_write.sort_unstable_by_key(|(h, _)| *h);
        code_to_write.dedup_by_key(|(h, _)| *h);

        let file_id = self.files.read().expect("file set poisoned").len() as u32;
        let mut buf = Vec::new();
        encode_header(&mut buf, up_to);
        let mut records = Vec::new();
        for (hash, code) in &code_to_write {
            records.push(encode_code(&mut buf, *hash, code));
        }
        for (addr, e) in &batch {
            if e.deleted {
                records.push(encode_tombstone(&mut buf, *addr));
                continue;
            }
            let meta = AccountMeta {
                reset_storage: e.reset_storage,
                nonce: e.nonce,
                balance: e.balance,
                code_hash: e.code_hash,
            };
            records.push(encode_account(&mut buf, *addr, meta));
            let mut keys: Vec<U256> = e.storage.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                records.push(encode_slot(&mut buf, *addr, key, e.storage[&key]));
            }
        }

        let len = buf.len() as u64;
        self.execute(&flush_plan(&self.dir, file_id, buf))?;
        let file = Arc::new(File::open(storage_path(&self.dir, file_id))?);
        self.files
            .write()
            .expect("file set poisoned")
            .push(StoredFile { file, len });
        {
            let mut ix = self.index.write().expect("index poisoned");
            for record in &records {
                apply_record(&mut ix, file_id, record);
            }
        }
        self.cache.evict_flushed(up_to);
        self.flushed_height.fetch_max(up_to, Ordering::SeqCst);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().flush.inc();
        }
        self.update_gauges();
        Ok(batch.len())
    }

    /// Flushes everything and writes the MANIFEST atomically: after this
    /// returns, [`AccountsDb::open`] on the same directory reproduces the
    /// current state exactly. `root` (typically the MPT root at the head
    /// height) rides along for end-to-end verification on restore.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; an interrupted snapshot leaves the
    /// previous manifest in place (temp file + rename).
    pub fn snapshot(&self, root: Option<B256>) -> io::Result<()> {
        let guard = self.flush_lock.lock().expect("flush lock poisoned");
        self.flush_locked(&guard, u64::MAX)?;
        let manifest = {
            let files = self.files.read().expect("file set poisoned");
            let mut text = format!(
                "{MANIFEST_SCHEMA}\n{}\n{}\n{}\n",
                self.head_height(),
                root.map(|r| r.to_string()).unwrap_or_else(|| "-".into()),
                files.len()
            );
            for f in files.iter() {
                text.push_str(&f.len.to_string());
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
            let m = obs::metrics();
            m.cache_depth.set(self.cache.len() as f64);
            m.flush_lag
                .set(self.head_height().saturating_sub(self.flushed_height()) as f64);
        }
    }

    fn note_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().cache_hit.inc();
        }
    }

    fn note_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().cache_miss.inc();
        }
    }

    fn read_payload(&self, loc: Loc, buf: &mut [u8]) {
        let started = mtpu_telemetry::enabled().then(std::time::Instant::now);
        let file = {
            let files = self.files.read().expect("file set poisoned");
            files[loc.file as usize].file.clone()
        };
        file.read_exact_at(buf, loc.offset)
            .expect("storage file read");
        if let Some(t) = started {
            obs::metrics().read_ns.record(t.elapsed().as_nanos() as u64);
        }
    }

    /// The flat-layer account metadata, bypassing the cache.
    fn flat_account(&self, addr: Address) -> Option<AccountMeta> {
        let loc = self
            .index
            .read()
            .expect("index poisoned")
            .account(addr)?
            .meta?;
        let mut buf = [0u8; ACCOUNT_PAYLOAD_LEN];
        self.read_payload(loc, &mut buf);
        Some(decode_account_payload(&buf))
    }

    /// The flat-layer slot value, bypassing the cache.
    fn flat_storage(&self, addr: Address, key: U256) -> U256 {
        let Some(loc) = self.index.read().expect("index poisoned").slot(addr, key) else {
            return U256::ZERO;
        };
        let mut buf = [0u8; 32];
        self.read_payload(loc, &mut buf);
        U256::from_be_bytes(buf)
    }

    /// Resolves a code hash to its blob (empty for the empty-code hashes
    /// and for hashes the store has never seen).
    fn code_for_hash(&self, hash: B256) -> Vec<u8> {
        if hash == B256::ZERO || hash == EMPTY_CODE_HASH {
            return Vec::new();
        }
        if let Some(code) = self
            .code_cache
            .read()
            .expect("code cache poisoned")
            .get(&hash)
        {
            return (**code).clone();
        }
        let Some(cl) = self.index.read().expect("index poisoned").code(hash) else {
            return Vec::new();
        };
        let mut buf = vec![0u8; cl.len as usize];
        self.read_payload(cl.loc, &mut buf);
        let code = Arc::new(buf);
        self.code_cache
            .write()
            .expect("code cache poisoned")
            .insert(hash, code.clone());
        (*code).clone()
    }

    /// A no-op: execution reads go write cache → index → file on demand,
    /// and there is no prefetch worker to start. It stays only because
    /// `spine/`'s staged loop names it, behind
    /// `mtpu_evm::prefetch_enabled()` (always `false`).
    pub fn enable_prefetch(self: &Arc<Self>) {}

    /// One metadata field of `addr` through cache → flat layer: `cached`
    /// or `flat` picks it from a live record, `absent` stands for a
    /// deleted or unknown account. The flag is `true` when the write cache
    /// answered.
    fn meta<T>(
        &self,
        addr: Address,
        cached: impl FnOnce(&CachedAccount) -> T,
        flat: impl FnOnce(AccountMeta) -> T,
        absent: T,
    ) -> (T, bool) {
        match self
            .cache
            .with_entry(addr, |c| (!c.deleted).then(|| cached(c)))
        {
            Some(v) => (v.unwrap_or(absent), true),
            None => (self.flat_account(addr).map(flat).unwrap_or(absent), false),
        }
    }

    /// Counts a read's cache hit or miss and returns its value.
    fn tracked<T>(&self, (v, hit): (T, bool)) -> T {
        if hit {
            self.note_hit();
        } else {
            self.note_miss();
        }
        v
    }
}

/// Execution reads: cache → index → file, with hit/miss accounting.
impl StateRead for AccountsDb {
    fn read_exists(&self, addr: Address) -> bool {
        match self.cache.with_entry(addr, |c| !c.deleted) {
            Some(v) => {
                self.note_hit();
                v
            }
            None => {
                self.note_miss();
                self.index
                    .read()
                    .expect("index poisoned")
                    .account(addr)
                    .map(|e| e.meta.is_some())
                    .unwrap_or(false)
            }
        }
    }

    fn read_balance(&self, addr: Address) -> U256 {
        self.tracked(self.meta(addr, |c| c.balance, |m| m.balance, U256::ZERO))
    }

    fn read_nonce(&self, addr: Address) -> u64 {
        self.tracked(self.meta(addr, |c| c.nonce, |m| m.nonce, 0))
    }

    fn read_code(&self, addr: Address) -> Vec<u8> {
        enum Cached {
            Empty,
            Inline(Arc<Vec<u8>>),
            ByHash(B256),
        }
        match self.cache.with_entry(addr, |c| {
            if c.deleted {
                Cached::Empty
            } else if let Some(code) = &c.new_code {
                Cached::Inline(code.clone())
            } else {
                Cached::ByHash(c.code_hash)
            }
        }) {
            Some(Cached::Empty) => {
                self.note_hit();
                Vec::new()
            }
            Some(Cached::Inline(code)) => {
                self.note_hit();
                (*code).clone()
            }
            Some(Cached::ByHash(hash)) => {
                self.note_hit();
                self.code_for_hash(hash)
            }
            None => {
                self.note_miss();
                match self.flat_account(addr) {
                    Some(meta) => self.code_for_hash(meta.code_hash),
                    None => Vec::new(),
                }
            }
        }
    }

    fn read_code_hash(&self, addr: Address) -> B256 {
        self.tracked(self.meta(addr, |c| c.code_hash, |m| m.code_hash, B256::ZERO))
    }

    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        match self.cache.with_entry(addr, |c| {
            if c.deleted {
                Some(U256::ZERO)
            } else if let Some(v) = c.storage.get(&key) {
                Some(*v)
            } else if c.reset_storage {
                Some(U256::ZERO)
            } else {
                None // clean slot of a cached account: flat layer has it
            }
        }) {
            Some(Some(v)) => {
                self.note_hit();
                v
            }
            Some(None) | None => {
                self.note_miss();
                self.flat_storage(addr, key)
            }
        }
    }
}

fn apply_record(index: &mut FlatIndex, file: u32, record: &Record) {
    match record {
        Record::Account {
            addr,
            meta,
            payload,
        } => index.upsert_account(
            *addr,
            Loc {
                file,
                offset: *payload,
            },
            meta.reset_storage,
        ),
        Record::Tombstone { addr } => index.delete_account(*addr),
        Record::Slot {
            addr, key, payload, ..
        } => index.upsert_slot(
            *addr,
            *key,
            Loc {
                file,
                offset: *payload,
            },
        ),
        Record::Code { hash, len, payload } => index.upsert_code(
            *hash,
            CodeLoc {
                loc: Loc {
                    file,
                    offset: *payload,
                },
                len: *len,
            },
        ),
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
        check(&db); // cache reads

        assert_eq!(db.flush_up_to(2).unwrap(), 2);
        assert_eq!(db.cache_entries(), 0);
        check(&db); // flat reads

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

        // Cached entry carries the dirty slot; the clean slot falls
        // through to the flat layer. Metadata was resolved at absorb.
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

    #[test]
    #[should_panic(expected = "empty write cache")]
    fn export_state_refuses_a_dirty_write_cache() {
        let dir = scratch_dir("export-dirty");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(&db, &creation(addr(1), 1, 0, None, &[]), 1);
        let _ = std::fs::remove_dir_all(&dir);
        db.export_state();
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
        assert_eq!(db.cache_entries(), 0, "quiesce drains the cache");
        assert_eq!(db.flushed_height(), 10);
        for h in 1..=10u64 {
            assert_eq!(db.read_balance(addr(h)), U256::from(h * 10));
        }
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_hits_misses_and_flushes() {
        let dir = scratch_dir("stats");
        let db = AccountsDb::open(&dir).unwrap();
        absorb_tx(&db, &creation(addr(1), 1, 0, None, &[]), 1);
        let _ = db.read_balance(addr(1)); // hit
        db.flush_up_to(1).unwrap();
        let _ = db.read_balance(addr(1)); // miss → flat
        let s = db.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.flushes, 1);
        assert_eq!(s.files, 1);
        assert!(s.file_bytes > 0);
        assert_eq!(s.flush_lag(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
