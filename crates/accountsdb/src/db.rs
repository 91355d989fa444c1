//! [`AccountsDb`]: the flat account store itself.
//!
//! Reads go cache → index → positional file read; committed block deltas
//! are absorbed into the write cache fully resolved; a flush moves every
//! entry at or below a height cursor into a fresh append-only storage
//! file and the index; a snapshot flushes everything and writes an atomic
//! MANIFEST naming the durable file set. Reopening honors only the
//! MANIFEST — files flushed after the last snapshot are invisible, which
//! is exactly the crash contract of the statedb `FileStore`.

use crate::cache::{CachedAccount, WriteCache};
use crate::file::{
    decode_account_payload, encode_account, encode_code, encode_header, encode_slot,
    encode_tombstone, replay, AccountMeta, Loc, Record, ACCOUNT_PAYLOAD_LEN,
};
use crate::index::{CodeLoc, FlatIndex};
use crate::obs;
use mtpu_evm::overlay::{BlockDelta, StateRead};
use mtpu_evm::state::State;
use mtpu_primitives::{Address, B256, EMPTY_CODE_HASH, U256};
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Manifest schema line; bump when the on-disk layout changes.
const MANIFEST_SCHEMA: &str = "mtpu-accountsdb/v1";
const MANIFEST_FILE: &str = "MANIFEST";
const STORAGE_DIR: &str = "storage";

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One immutable, fully written storage file.
#[derive(Debug)]
struct StoredFile {
    file: Arc<File>,
    len: u64,
}

/// Upper bound on prefetched slot values held in the warm cache. When an
/// insert would overflow it, the whole cache is dropped — entries are
/// hints, never the only copy of anything.
const WARM_CAP: usize = 4096;

/// How long the prefetch worker waits after the hint that woke it before
/// taking the queue: longer than a block's hints take to arrive, a few
/// percent of the time the block then takes to execute.
const PREFETCH_COALESCE: std::time::Duration = std::time::Duration::from_micros(100);

/// One queued request for the background prefetch worker.
#[derive(Debug)]
enum PrefetchJob {
    /// Resolve these slots of `addr` into the warm cache.
    Storage(Address, Vec<U256>),
    /// Touch the account record so its file page is OS-cache resident.
    Account(Address),
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
    /// Cache entries written out across all flushes.
    pub flushed_entries: u64,
    /// Snapshots written.
    pub snapshots: u64,
    /// Accounts currently in the write cache.
    pub cache_entries: usize,
    /// Accounts in the index (live and tombstoned).
    pub indexed_accounts: usize,
    /// Slot entries in the index (including stale generations).
    pub indexed_slots: usize,
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
    cache: WriteCache,
    index: RwLock<FlatIndex>,
    files: RwLock<Vec<StoredFile>>,
    /// Resolved code blobs (content-addressed; bounded by distinct
    /// contracts, which is small next to accounts).
    code_cache: RwLock<HashMap<B256, Arc<Vec<u8>>>>,
    /// Slot values resolved ahead of demand by the prefetch worker,
    /// consulted by the read path on write-cache misses. Bounded by
    /// [`WARM_CAP`]; cleared on every flush (see `flush_locked`).
    warm: RwLock<HashMap<(Address, U256), U256>>,
    /// Bumped by every flush before the warm cache is cleared; the
    /// prefetch worker re-checks it under the warm write lock before
    /// publishing, so a value read against the pre-flush layout can never
    /// land in the post-flush cache.
    warm_gen: AtomicU64,
    /// Hints the prefetch worker has not taken yet. It takes all of them
    /// at once, so hints arriving in a burst (a block's worth, before its
    /// first transaction executes) are one batch however the two threads
    /// happen to be scheduled.
    prefetch_jobs: Mutex<Vec<PrefetchJob>>,
    /// Wakes the prefetch worker, present once
    /// [`AccountsDb::enable_prefetch`] has run: one token per batch, sent by
    /// the hint that finds `prefetch_jobs` empty.
    prefetch_tx: Mutex<Option<std::sync::mpsc::Sender<()>>>,
    /// `true` once the prefetch worker runs; hints are dropped before.
    prefetch_on: AtomicBool,
    /// Serializes flush and snapshot.
    flush_lock: Mutex<()>,
    head_height: AtomicU64,
    flushed_height: AtomicU64,
    /// Root recorded by the last snapshot (or found in the manifest).
    snapshot_root: Mutex<Option<B256>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    flushes: AtomicU64,
    flushed_entries: AtomicU64,
    snapshots: AtomicU64,
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
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(dir.join(STORAGE_DIR))?;
        let db = AccountsDb {
            dir: dir.clone(),
            cache: WriteCache::new(),
            index: RwLock::new(FlatIndex::new()),
            files: RwLock::new(Vec::new()),
            code_cache: RwLock::new(HashMap::new()),
            warm: RwLock::new(HashMap::new()),
            warm_gen: AtomicU64::new(0),
            prefetch_jobs: Mutex::new(Vec::new()),
            prefetch_tx: Mutex::new(None),
            prefetch_on: AtomicBool::new(false),
            flush_lock: Mutex::new(()),
            head_height: AtomicU64::new(0),
            flushed_height: AtomicU64::new(0),
            snapshot_root: Mutex::new(None),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            flushed_entries: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
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

    /// Directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
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
        let (indexed_accounts, indexed_slots) = {
            let ix = self.index.read().expect("index poisoned");
            (ix.account_count(), ix.slot_count())
        };
        let (files, file_bytes) = {
            let files = self.files.read().expect("file set poisoned");
            (files.len(), files.iter().map(|f| f.len).sum())
        };
        DbStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            flushed_entries: self.flushed_entries.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            cache_entries: self.cache.len(),
            indexed_accounts,
            indexed_slots,
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
            // Mirror OverlayedView resolution: unset fields fall through
            // to the (pre-absorb) view of this same account.
            let nonce = d.nonce.unwrap_or_else(|| {
                if d.shadows_base {
                    0
                } else {
                    self.lookup_nonce(addr)
                }
            });
            let balance = d.balance.unwrap_or_else(|| {
                if d.shadows_base {
                    U256::ZERO
                } else {
                    self.lookup_balance(addr)
                }
            });
            let (code_hash, new_code) = match &d.code {
                Some((code, hash)) => (*hash, (!code.is_empty()).then(|| Arc::new(code.clone()))),
                None if d.shadows_base => (EMPTY_CODE_HASH, None),
                None => (self.lookup_code_hash(addr), None),
            };
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
        let mut code_to_write: Vec<(B256, Arc<Vec<u8>>)> = Vec::new();
        {
            let ix = self.index.read().expect("index poisoned");
            let mut seen: HashSet<B256> = HashSet::new();
            for (_, e) in &batch {
                if let Some(code) = &e.new_code {
                    if ix.code(e.code_hash).is_none() && seen.insert(e.code_hash) {
                        code_to_write.push((e.code_hash, code.clone()));
                    }
                }
            }
        }
        code_to_write.sort_unstable_by_key(|(h, _)| *h);

        enum IndexOp {
            Code(B256, u64, u32),
            Delete(Address),
            Account(Address, u64, bool),
            Slot(Address, U256, u64),
        }

        let file_id = self.files.read().expect("file set poisoned").len() as u32;
        let mut buf = Vec::new();
        encode_header(&mut buf, up_to);
        let mut ops: Vec<IndexOp> = Vec::new();
        for (hash, code) in &code_to_write {
            let off = encode_code(&mut buf, *hash, code);
            ops.push(IndexOp::Code(*hash, off, code.len() as u32));
        }
        for (addr, e) in &batch {
            if e.deleted {
                encode_tombstone(&mut buf, *addr);
                ops.push(IndexOp::Delete(*addr));
                continue;
            }
            let meta = AccountMeta {
                reset_storage: e.reset_storage,
                nonce: e.nonce,
                balance: e.balance,
                code_hash: e.code_hash,
            };
            let off = encode_account(&mut buf, *addr, &meta);
            ops.push(IndexOp::Account(*addr, off, e.reset_storage));
            let mut keys: Vec<U256> = e.storage.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let off = encode_slot(&mut buf, *addr, key, e.storage[&key]);
                ops.push(IndexOp::Slot(*addr, key, off));
            }
        }

        let path = storage_path(&self.dir, file_id);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all_at(&buf, 0)?;
        file.sync_data()?;
        self.files
            .write()
            .expect("file set poisoned")
            .push(StoredFile {
                file: Arc::new(file),
                len: buf.len() as u64,
            });

        {
            let mut ix = self.index.write().expect("index poisoned");
            for op in &ops {
                match op {
                    IndexOp::Code(hash, off, len) => ix.upsert_code(
                        *hash,
                        CodeLoc {
                            loc: Loc {
                                file: file_id,
                                offset: *off,
                            },
                            len: *len,
                        },
                    ),
                    IndexOp::Delete(addr) => ix.delete_account(*addr),
                    IndexOp::Account(addr, off, reset) => ix.upsert_account(
                        *addr,
                        Loc {
                            file: file_id,
                            offset: *off,
                        },
                        *reset,
                    ),
                    IndexOp::Slot(addr, key, off) => ix.upsert_slot(
                        *addr,
                        *key,
                        Loc {
                            file: file_id,
                            offset: *off,
                        },
                    ),
                }
            }
        }
        // Flushed entries are about to leave the write cache; anything the
        // prefetch worker warmed against the old flat layout must go with
        // them, or a stale warm value could mask the freshly indexed one.
        // The generation bump (before the clear) fences out worker inserts
        // whose file read predates this flush.
        self.warm_gen.fetch_add(1, Ordering::Release);
        self.warm.write().expect("warm cache poisoned").clear();
        self.cache.evict_flushed(up_to);
        self.flushed_height.fetch_max(up_to, Ordering::SeqCst);
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.flushed_entries
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
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
        let tmp = self.dir.join("MANIFEST.tmp");
        std::fs::write(&tmp, manifest)?;
        std::fs::rename(&tmp, self.dir.join(MANIFEST_FILE))?;
        *self.snapshot_root.lock().expect("snapshot root poisoned") = root;
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().snapshot.inc();
        }
        Ok(())
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

    /// Spawns the background prefetch worker (idempotent). Hints arriving
    /// via [`StateRead::hint_prefetch_storage`] and
    /// [`StateRead::hint_prefetch_account`] are then served
    /// asynchronously: the worker resolves them against the flat layer
    /// and parks the values in the bounded warm cache that the
    /// synchronous read path consults on write-cache misses. The worker
    /// holds only a `Weak` reference and exits when the store is dropped
    /// (the queue closes with it).
    pub fn enable_prefetch(self: &Arc<Self>) {
        let mut tx = self.prefetch_tx.lock().expect("prefetch queue poisoned");
        if tx.is_some() {
            return;
        }
        let (sender, receiver) = std::sync::mpsc::channel::<()>();
        let weak = Arc::downgrade(self);
        std::thread::Builder::new()
            .name("accountsdb-prefetch".into())
            .spawn(move || {
                while receiver.recv().is_ok() {
                    // The hint that starts a batch is usually the first of
                    // a block's worth: let the burst land and take it
                    // whole, instead of draining it hint by hint and being
                    // woken for each (on the caller's core, at its cost).
                    std::thread::sleep(PREFETCH_COALESCE);
                    let Some(db) = weak.upgrade() else { return };
                    let jobs = std::mem::take(
                        &mut *db.prefetch_jobs.lock().expect("prefetch queue poisoned"),
                    );
                    db.run_prefetch_jobs(jobs);
                }
            })
            .expect("spawn accountsdb prefetch worker");
        *tx = Some(sender);
        self.prefetch_on.store(true, Ordering::Release);
    }

    /// Entries currently held in the warm prefetch cache (introspection
    /// for tests and benches).
    pub fn warm_entries(&self) -> usize {
        self.warm.read().expect("warm cache poisoned").len()
    }

    fn warm_storage(&self, addr: Address, key: U256) -> Option<U256> {
        self.warm
            .read()
            .expect("warm cache poisoned")
            .get(&(addr, key))
            .copied()
    }

    /// One batch of hints: accounts and slots named more than once (the
    /// contract every transaction of the block calls) are resolved once.
    fn run_prefetch_jobs(&self, jobs: Vec<PrefetchJob>) {
        let mut accounts: Vec<Address> = Vec::new();
        let mut slots: HashMap<Address, Vec<U256>> = HashMap::new();
        for job in jobs {
            match job {
                PrefetchJob::Account(addr) => accounts.push(addr),
                PrefetchJob::Storage(addr, keys) => slots.entry(addr).or_default().extend(keys),
            }
        }
        accounts.sort_unstable();
        accounts.dedup();
        for addr in accounts {
            // Touching the record pulls its file page into the OS cache;
            // the metadata itself is cheap to re-decode. An account the
            // write cache holds is never read from a file.
            if self.cache.with_entry(addr, |_| ()).is_none() {
                let _ = self.flat_account(addr);
            }
        }
        for (addr, mut keys) in slots {
            keys.sort_unstable();
            keys.dedup();
            self.prefetch_storage(addr, keys);
        }
    }

    /// Resolves `keys` of `addr` against the flat layer into the warm cache.
    fn prefetch_storage(&self, addr: Address, keys: Vec<U256>) {
        let gen = self.warm_gen.load(Ordering::Acquire);
        // Keys the write cache resolves are served without
        // touching a file — nothing to warm for those.
        let wanted: Vec<U256> = match self.cache.with_entry(addr, |c| {
            keys.iter()
                .copied()
                .filter(|k| !c.deleted && !c.reset_storage && !c.storage.contains_key(k))
                .collect::<Vec<_>>()
        }) {
            Some(w) => w,
            None => keys,
        };
        if wanted.is_empty() {
            return;
        }
        let locs: Vec<(U256, Loc)> = {
            let ix = self.index.read().expect("index poisoned");
            wanted
                .iter()
                .filter_map(|&k| ix.slot(addr, k).map(|l| (k, l)))
                .collect()
        };
        if locs.is_empty() {
            return;
        }
        let mut resolved = Vec::with_capacity(locs.len());
        for (k, loc) in locs {
            let mut buf = [0u8; 32];
            self.read_payload(loc, &mut buf);
            resolved.push((k, U256::from_be_bytes(buf)));
        }
        if mtpu_telemetry::enabled() {
            obs::metrics().prefetch_batch.inc();
        }
        let mut warm = self.warm.write().expect("warm cache poisoned");
        if self.warm_gen.load(Ordering::Acquire) != gen {
            // A flush moved the flat layout under this read; the
            // values may predate it. Drop them — they were hints.
            return;
        }
        if warm.len() + resolved.len() > WARM_CAP {
            warm.clear();
        }
        for (k, v) in resolved {
            warm.insert((addr, k), v);
        }
    }

    /// Queues `job` for the worker; a no-op until
    /// [`AccountsDb::enable_prefetch`] has run. Only the hint that starts a
    /// batch signals the worker — a signal per hint would park and wake it
    /// once per hint whenever it drains faster than the caller produces,
    /// which makes the caller's cost depend on how the two are scheduled.
    fn queue_prefetch(&self, job: PrefetchJob) {
        if !self.prefetch_on.load(Ordering::Acquire) {
            return;
        }
        let starts_batch = {
            let mut jobs = self.prefetch_jobs.lock().expect("prefetch queue poisoned");
            jobs.push(job);
            jobs.len() == 1
        };
        if starts_batch {
            if let Some(tx) = self
                .prefetch_tx
                .lock()
                .expect("prefetch queue poisoned")
                .as_ref()
            {
                let _ = tx.send(());
            }
        }
    }

    // Untracked lookups (no hit/miss accounting) for absorb resolution.

    fn lookup_nonce(&self, addr: Address) -> u64 {
        match self
            .cache
            .with_entry(addr, |c| if c.deleted { 0 } else { c.nonce })
        {
            Some(v) => v,
            None => self.flat_account(addr).map(|m| m.nonce).unwrap_or(0),
        }
    }

    fn lookup_balance(&self, addr: Address) -> U256 {
        match self
            .cache
            .with_entry(addr, |c| if c.deleted { U256::ZERO } else { c.balance })
        {
            Some(v) => v,
            None => self
                .flat_account(addr)
                .map(|m| m.balance)
                .unwrap_or(U256::ZERO),
        }
    }

    fn lookup_code_hash(&self, addr: Address) -> B256 {
        match self
            .cache
            .with_entry(addr, |c| if c.deleted { B256::ZERO } else { c.code_hash })
        {
            Some(v) => v,
            None => self
                .flat_account(addr)
                .map(|m| m.code_hash)
                .unwrap_or(B256::ZERO),
        }
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
        match self
            .cache
            .with_entry(addr, |c| if c.deleted { U256::ZERO } else { c.balance })
        {
            Some(v) => {
                self.note_hit();
                v
            }
            None => {
                self.note_miss();
                self.flat_account(addr)
                    .map(|m| m.balance)
                    .unwrap_or(U256::ZERO)
            }
        }
    }

    fn read_nonce(&self, addr: Address) -> u64 {
        match self
            .cache
            .with_entry(addr, |c| if c.deleted { 0 } else { c.nonce })
        {
            Some(v) => {
                self.note_hit();
                v
            }
            None => {
                self.note_miss();
                self.flat_account(addr).map(|m| m.nonce).unwrap_or(0)
            }
        }
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
        match self
            .cache
            .with_entry(addr, |c| if c.deleted { B256::ZERO } else { c.code_hash })
        {
            Some(v) => {
                self.note_hit();
                v
            }
            None => {
                self.note_miss();
                self.flat_account(addr)
                    .map(|m| m.code_hash)
                    .unwrap_or(B256::ZERO)
            }
        }
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
                match self.warm_storage(addr, key) {
                    Some(v) => v,
                    None => self.flat_storage(addr, key),
                }
            }
        }
    }

    fn hint_prefetch_storage(&self, addr: Address, keys: &[U256]) {
        if !keys.is_empty() {
            self.queue_prefetch(PrefetchJob::Storage(addr, keys.to_vec()));
        }
    }

    fn hint_prefetch_account(&self, addr: Address) {
        self.queue_prefetch(PrefetchJob::Account(addr));
    }
}

fn storage_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(STORAGE_DIR).join(format!("{id:06}.acc"))
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
    let height: u64 = lines
        .next()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| corrupt("manifest missing height"))?;
    let root = match lines.next() {
        Some("-") => None,
        Some(hex) => Some(
            hex.parse::<B256>()
                .map_err(|_| corrupt("manifest root is not 32-byte hex"))?,
        ),
        None => return Err(corrupt("manifest missing root line")),
    };
    let count: usize = lines
        .next()
        .and_then(|l| l.parse().ok())
        .ok_or_else(|| corrupt("manifest missing file count"))?;
    let mut lens = Vec::with_capacity(count);
    for _ in 0..count {
        lens.push(
            lines
                .next()
                .and_then(|l| l.parse().ok())
                .ok_or_else(|| corrupt("manifest missing file length"))?,
        );
    }
    Ok(Some(Manifest { height, root, lens }))
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
    fn prefetch_worker_warms_flat_reads_and_flush_invalidates() {
        let dir = scratch_dir("prefetch");
        let db = Arc::new(AccountsDb::open(&dir).unwrap());
        absorb_tx(&db, &creation(addr(1), 10, 0, None, &[(1, 11), (2, 22)]), 1);
        db.flush_up_to(1).unwrap();

        // No worker yet: a hint must not pile up where nothing drains it.
        db.hint_prefetch_account(addr(1));
        assert!(db.prefetch_jobs.lock().unwrap().is_empty());

        // A block's worth, every transaction naming the same contract.
        db.enable_prefetch();
        for _ in 0..128 {
            db.hint_prefetch_storage(addr(1), &[U256::from(1u64), U256::from(2u64)]);
            db.hint_prefetch_account(addr(1));
        }
        let mut warmed = false;
        for _ in 0..2000 {
            if db.warm_entries() == 2 && db.prefetch_jobs.lock().unwrap().is_empty() {
                warmed = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(warmed, "worker never resolved the hinted slots");
        assert_eq!(
            db.read_storage(addr(1), U256::from(1u64)),
            U256::from(11u64)
        );

        // A later block rewrites slot 1; the flush that lands it must
        // drop the warm copy so the read path sees the new value.
        let mut d = AccountDelta::default();
        d.storage.insert(U256::from(1u64), U256::from(111u64));
        let mut tx = TxDelta::default();
        tx.accounts.insert(addr(1), d);
        absorb_tx(&db, &tx, 2);
        assert_eq!(
            db.read_storage(addr(1), U256::from(1u64)),
            U256::from(111u64),
            "write cache shadows the warm copy before the flush"
        );
        db.flush_up_to(2).unwrap();
        assert_eq!(db.warm_entries(), 0, "flush clears the warm cache");
        assert_eq!(
            db.read_storage(addr(1), U256::from(1u64)),
            U256::from(111u64)
        );
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
        assert_eq!(s.flushed_entries, 1);
        assert_eq!(s.files, 1);
        assert!(s.file_bytes > 0);
        assert_eq!(s.flush_lag(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
