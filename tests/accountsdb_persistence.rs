//! Flat accounts-DB persistence: a chain of block deltas absorbed into
//! `AccountsDb` must survive a restart through the snapshot MANIFEST —
//! reopening resumes at the last snapshot, every account and slot reads
//! back bit-identically, the state trie derived from the reopened store
//! has the root the snapshot recorded, and the chain keeps growing from
//! there.
//!
//! The MANIFEST is the node's only durable checkpoint, so its crash
//! semantics are checked here: work the flush service made durable in
//! storage files but that never reached a MANIFEST update is dropped on
//! reopen ("kill between flush and MANIFEST update"), leaving
//! the store at the last durable snapshot, and replaying the lost blocks
//! reaches the uninterrupted run's root.

use mtpu_repro::accountsdb::AccountsDb;
use mtpu_repro::evm::overlay::{AccountDelta, BlockDelta, TxDelta};
use mtpu_repro::evm::state::{Account, State};
use mtpu_repro::evm::{commit_block_delta, commit_full, StateRead};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::primitives::{Address, B256, U256};
use mtpu_repro::statedb::{MemStore, StateCommitter};
use mtpu_repro::workloads::{BlockConfig, Generator};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mtpu-accountsdb-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn block_config(tx_count: usize) -> BlockConfig {
    BlockConfig {
        tx_count,
        dependent_ratio: 0.3,
        erc20_ratio: None,
        sct_ratio: 0.9,
        chain_bias: 0.6,
        focus: None,
    }
}

/// Executes one generated block on top of `state`, absorbs its delta
/// into the flat store at `height`, and advances `state` to match.
fn advance(
    generator: &mut Generator,
    executor: &ParExecutor,
    db: &AccountsDb,
    state: &mut State,
    height: u64,
    tx_count: usize,
) {
    let block = generator.block(&block_config(tx_count));
    let result = executor.execute_block(state, &block);
    db.absorb(&result.delta, height);
    *state = result.state;
    generator.fx.state = state.clone();
}

/// Every live account and storage slot of `state` must read back
/// bit-identically through the flat store's `StateRead` face.
fn assert_reads_match(db: &AccountsDb, state: &State, what: &str) {
    for (addr, account) in state.iter_live_accounts() {
        assert!(db.read_exists(addr), "{what}: account missing");
        assert_eq!(db.read_nonce(addr), account.nonce, "{what}: nonce");
        assert_eq!(db.read_balance(addr), account.balance, "{what}: balance");
        assert_eq!(db.read_code(addr), account.code, "{what}: code");
        for (&slot, &value) in &account.storage {
            assert_eq!(db.read_storage(addr, slot), value, "{what}: slot");
        }
    }
}

/// The trie root derived from the flat store must be `state`'s. Unlike
/// [`assert_reads_match`], which walks `state`'s accounts only, this also
/// catches an account the store holds and `state` does not.
fn assert_derived_root(db: &AccountsDb, state: &State, what: &str) {
    assert_eq!(
        db.export_state().merkle_root(),
        state.merkle_root(),
        "{what}: derived root"
    );
}

#[test]
fn snapshot_survives_restart_and_continues() {
    let dir = scratch_dir("restart");
    let executor = ParExecutor::new(4);
    let mut generator = Generator::new(0xF11E);
    let mut state = generator.fx.state.clone();

    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&state, 0);

    for h in 1..=3 {
        advance(&mut generator, &executor, &db, &mut state, h, 48);
    }
    let head_root = state.merkle_root();
    db.snapshot(Some(head_root)).expect("snapshot chain head");
    drop(db);

    // Restart: the reopened store resumes at the snapshot...
    let reopened = AccountsDb::open(&dir).expect("reopen accounts db");
    assert_eq!(reopened.head_height(), 3);
    assert_eq!(reopened.snapshot_root(), Some(head_root));
    // ...and every account/slot reads back bit-identically from the
    // index the manifested files rebuilt.
    assert_reads_match(&reopened, &state, "after restart");
    assert_eq!(reopened.pending_accounts(), 0);
    assert_derived_root(&reopened, &state, "after restart");

    // The chain keeps growing from the restored store.
    advance(&mut generator, &executor, &reopened, &mut state, 4, 48);
    assert_reads_match(&reopened, &state, "after restart + block");
    assert_eq!(reopened.head_height(), 4);
    reopened.flush_up_to(4).expect("flush block 4");
    assert_derived_root(&reopened, &state, "after restart + block");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The storage files are a write-only durability log: once a store is
/// open, its index holds every value, so deleting the files changes no
/// read — every account, slot and code blob, and the derived root.
#[test]
fn an_open_store_reads_without_its_storage_files() {
    let dir = scratch_dir("nofiles");
    let executor = ParExecutor::new(2);
    let mut generator = Generator::new(0x0F11E5);
    let mut state = generator.fx.state.clone();

    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&state, 0);
    db.flush_up_to(0).expect("flush genesis");
    for h in 1..=3 {
        advance(&mut generator, &executor, &db, &mut state, h, 48);
        db.flush_up_to(h).expect("flush block");
    }
    let head_root = state.merkle_root();
    db.snapshot(Some(head_root)).expect("snapshot chain head");
    drop(db);

    let reopened = AccountsDb::open(&dir).expect("reopen accounts db");
    let mut deleted = 0;
    for entry in std::fs::read_dir(dir.join("storage")).expect("list storage files") {
        std::fs::remove_file(entry.expect("storage entry").path()).expect("delete storage file");
        deleted += 1;
    }
    assert_eq!(deleted, 4, "genesis and three blocks, one file each");
    assert_reads_match(&reopened, &state, "storage files deleted");
    assert_eq!(reopened.export_state().merkle_root(), head_root);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The satellite's sharp edge: the flush service has written (and
/// fsynced) storage files for a block, but the process dies before the
/// snapshot updates the MANIFEST. Reopen must land on the last durable
/// snapshot — the flushed-but-unmanifested files are invisible — and
/// re-absorbing the lost block reaches the same head.
#[test]
fn flush_without_manifest_is_dropped_on_reopen() {
    let dir = scratch_dir("crash");
    let executor = ParExecutor::new(2);
    let mut generator = Generator::new(0xC4A5);
    let mut state = generator.fx.state.clone();

    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&state, 0);
    advance(&mut generator, &executor, &db, &mut state, 1, 32);
    let durable_state = state.clone();
    let durable_root = state.merkle_root();
    db.snapshot(Some(durable_root)).expect("snapshot block 1");

    // Block 2 is absorbed AND flushed to a storage file — but no
    // snapshot follows, so the MANIFEST still vouches only for block 1.
    advance(&mut generator, &executor, &db, &mut state, 2, 32);
    let lost_block_files = {
        db.flush_up_to(u64::MAX).expect("flush block 2");
        db.stats().files
    };
    assert_eq!(db.head_height(), 2);
    drop(db); // crash between flush and MANIFEST update

    // Reopen: back at the durable snapshot; block 2's flushed records
    // must not leak in through the orphaned file.
    let reopened = AccountsDb::open(&dir).expect("reopen accounts db");
    assert_eq!(
        reopened.head_height(),
        1,
        "unmanifested flush leaked into the restored head"
    );
    assert_eq!(reopened.snapshot_root(), Some(durable_root));
    assert!(
        reopened.stats().files < lost_block_files,
        "orphaned storage file survived reopen"
    );
    assert_reads_match(&reopened, &durable_state, "after crash");
    assert_derived_root(&reopened, &durable_state, "after crash");

    // Replaying the lost block (the node would re-execute it) reaches
    // the same head state, overwriting the orphaned file id. The
    // deterministic generator is replayed from genesis to re-derive the
    // identical block 2; block 1's re-absorb is a no-op by content.
    let mut replay = Generator::new(0xC4A5);
    let mut replay_state = replay.fx.state.clone();
    advance(&mut replay, &executor, &reopened, &mut replay_state, 1, 32);
    assert_eq!(replay_state.merkle_root(), durable_root);
    advance(&mut replay, &executor, &reopened, &mut replay_state, 2, 32);
    assert_eq!(replay_state.merkle_root(), state.merkle_root());
    assert_reads_match(&reopened, &replay_state, "after replay");
    reopened
        .snapshot(Some(replay_state.merkle_root()))
        .expect("snapshot replayed head");
    assert_derived_root(&reopened, &replay_state, "after replay");
    drop(reopened);

    let recovered = AccountsDb::open(&dir).expect("reopen after replay");
    assert_eq!(recovered.head_height(), 2);
    assert_eq!(recovered.snapshot_root(), Some(state.merkle_root()));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshots are atomic: a MANIFEST is either the old one or the new
/// one, never a torn in-between. Taking several snapshots in a row and
/// reopening after each must always land exactly on the latest.
#[test]
fn repeated_snapshots_always_reopen_at_the_latest() {
    let dir = scratch_dir("resnap");
    let executor = ParExecutor::new(2);
    let mut generator = Generator::new(0x5EED);
    let mut state = generator.fx.state.clone();

    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&state, 0);
    let mut roots: Vec<B256> = Vec::new();
    for h in 1..=3 {
        advance(&mut generator, &executor, &db, &mut state, h, 24);
        roots.push(state.merkle_root());
        db.snapshot(Some(roots[h as usize - 1])).expect("snapshot");
    }
    drop(db);

    let reopened = AccountsDb::open(&dir).expect("reopen accounts db");
    assert_eq!(reopened.head_height(), 3);
    assert_eq!(reopened.snapshot_root(), roots.last().copied());
    assert_reads_match(&reopened, &state, "after repeated snapshots");
    assert_derived_root(&reopened, &state, "after repeated snapshots");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Created with storage in block 1 and deleted in block 3 of [`chain`],
/// so a store that loses a tombstone holds one account too many.
const DOOMED: u64 = 0xD00D_0001;

/// A deterministic chain: its genesis, then per block the delta and the
/// oracle post-state. `states[h]` is the state at height `h`.
struct Chain {
    deltas: Vec<BlockDelta>,
    states: Vec<State>,
}

impl Chain {
    fn new(seed: u64, blocks: u64) -> Chain {
        let executor = ParExecutor::new(2);
        let mut generator = Generator::new(seed);
        let mut states = vec![generator.fx.state.clone()];
        let mut deltas = Vec::new();
        for h in 1..=blocks {
            let base = states.last().expect("genesis").clone();
            let block = generator.block(&block_config(24));
            let mut result = executor.execute_block(&base, &block);
            let doomed = Address::from_low_u64(DOOMED);
            let extra = match h {
                1 => Some(AccountDelta {
                    shadows_base: true,
                    balance: Some(U256::from(77u64)),
                    nonce: Some(1),
                    storage: [(U256::ONE, U256::from(5u64))].into_iter().collect(),
                    ..Default::default()
                }),
                3 => Some(AccountDelta {
                    shadows_base: true,
                    deleted: true,
                    ..Default::default()
                }),
                _ => None,
            };
            if let Some(d) = extra {
                let mut tx = TxDelta::default();
                tx.accounts.insert(doomed, d);
                result.delta.merge(&tx, &base);
                tx.apply_to(&mut result.state);
            }
            generator.fx.state = result.state.clone();
            deltas.push(result.delta);
            states.push(result.state);
        }
        Chain { deltas, states }
    }

    fn root(&self, height: u64) -> B256 {
        self.states[height as usize].merkle_root()
    }
}

/// Heights after which the grid's chain takes a snapshot (genesis, at
/// height 0, is always snapshotted).
const SNAPSHOTS: [u64; 2] = [2, 4];

/// Bootstraps `chain`'s genesis into a fresh store in `dir`, snapshots
/// it, then absorbs blocks `1..=k`, flushing after every block and
/// snapshotting after each height in [`SNAPSHOTS`].
fn run_until(dir: &Path, chain: &Chain, k: u64) -> AccountsDb {
    let db = AccountsDb::open(dir).expect("open accounts db");
    db.bootstrap_from_state(&chain.states[0], 0);
    db.snapshot(Some(chain.root(0))).expect("snapshot genesis");
    for h in 1..=k {
        db.absorb(&chain.deltas[h as usize - 1], h);
        db.flush_up_to(h).expect("flush block");
        if SNAPSHOTS.contains(&h) {
            db.snapshot(Some(chain.root(h))).expect("snapshot");
        }
    }
    db
}

/// Kill at every flush point: the store is dropped right after block
/// k's flush, for every k. Each reopen lands on the last snapshot at or
/// before k, the trie derived from it has the snapshot's root, and a
/// trie resumed from that derivation commits the re-absorbed lost blocks
/// to the oracle roots, ending on the uninterrupted run's derived root.
#[test]
fn kill_at_every_flush_resumes_at_the_last_snapshot() {
    const BLOCKS: u64 = 6;
    let chain = Chain::new(0x6D1D, BLOCKS);

    let dir = scratch_dir("grid-full");
    let uninterrupted = run_until(&dir, &chain, BLOCKS);
    let final_root = uninterrupted.export_state().merkle_root();
    assert_eq!(final_root, chain.root(BLOCKS));
    drop(uninterrupted);
    let _ = std::fs::remove_dir_all(&dir);

    for k in 1..=BLOCKS {
        let dir = scratch_dir(&format!("grid-{k}"));
        drop(run_until(&dir, &chain, k)); // killed after block k's flush

        let db = AccountsDb::open(&dir).expect("reopen accounts db");
        let durable = SNAPSHOTS.into_iter().filter(|&s| s <= k).max().unwrap_or(0);
        let what = format!("killed after block {k}");
        assert_eq!(db.head_height(), durable, "{what}: head height");
        assert_eq!(db.snapshot_root(), Some(chain.root(durable)), "{what}");
        let state = &chain.states[durable as usize];
        assert_reads_match(&db, state, &what);

        // Resume: derive the trie from the store, then commit the lost
        // blocks on top.
        let mut committer = StateCommitter::new(MemStore::new());
        let derived = commit_full(&mut committer, &db.export_state());
        assert_eq!(derived, chain.root(durable), "{what}: derived root");
        for h in durable + 1..=BLOCKS {
            let delta = &chain.deltas[h as usize - 1];
            let root = commit_block_delta(&mut committer, &db, delta);
            assert_eq!(root, chain.root(h), "{what}: replayed block {h}");
            db.absorb(delta, h);
            db.flush_up_to(h).expect("flush replayed block");
        }
        assert_eq!(
            db.export_state().merkle_root(),
            final_root,
            "{what}: replay missed the uninterrupted root"
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A MANIFEST written by some other schema is refused with an error.
#[test]
fn open_rejects_an_unknown_manifest_schema() {
    let dir = scratch_dir("badschema");
    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&Generator::new(0xBAD).fx.state, 0);
    db.snapshot(None).expect("snapshot");
    drop(db);

    let manifest = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&manifest).expect("read manifest");
    let rest = text.split_once('\n').expect("schema line").1;
    std::fs::write(&manifest, format!("someone-else/v9\n{rest}")).expect("rewrite manifest");
    assert!(AccountsDb::open(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A storage file shorter than the length its MANIFEST vouches for (a
/// torn or truncated file) is refused with an error.
#[test]
fn open_rejects_a_storage_file_shorter_than_its_manifest() {
    let dir = scratch_dir("shortfile");
    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&Generator::new(0xBAD).fx.state, 0);
    db.snapshot(None).expect("snapshot");
    drop(db);

    let file = dir.join("storage").join("000000.acc");
    let bytes = std::fs::read(&file).expect("read storage file");
    std::fs::write(&file, &bytes[..bytes.len() - 1]).expect("truncate storage file");
    assert!(AccountsDb::open(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

fn account(n: u64) -> Address {
    Address::from_low_u64(n)
}

/// A (re-)creation: shadows the base, with optional code and slots.
fn created(balance: u64, code: Option<&[u8]>, slots: &[(u64, u64)]) -> AccountDelta {
    AccountDelta {
        shadows_base: true,
        balance: Some(U256::from(balance)),
        nonce: Some(1),
        code: code.map(|c| (c.to_vec(), B256::keccak(c))),
        storage: slots
            .iter()
            .map(|&(k, v)| (U256::from(k), U256::from(v)))
            .collect(),
        ..Default::default()
    }
}

/// A write on top of the account's current incarnation.
fn updated(balance: u64, slots: &[(u64, u64)]) -> AccountDelta {
    AccountDelta {
        shadows_base: false,
        ..created(balance, None, slots)
    }
}

fn deleted() -> AccountDelta {
    AccountDelta {
        shadows_base: true,
        deleted: true,
        ..Default::default()
    }
}

/// Deployed by two accounts, in blocks on either side of a flush cutoff.
const SHARED_CODE: &[u8] = b"\x60\x2a\x60\x00\x55 shared blob";

/// Block `h` of the partial-flush chain. With every flush two blocks
/// behind the head:
/// - account 1 (genesis, with code) is written again at 2 and 3;
/// - account 2 is created at 1 and written again at 3 and 4, each time
///   past the cutoff of the flush that follows;
/// - account 3 is deleted at 3 and re-created at 4, one pending entry;
/// - account 4 is deleted at 4 and re-created at 7, and the flush after
///   block 6 files its tombstone in between;
/// - account 5 is re-created at 2 without a delete, so its first slots
///   are hidden by the storage reset alone;
/// - accounts 6 and 7 deploy [`SHARED_CODE`] at 2 and 5;
/// - account 8 is created at 1 and pays at every block.
fn partial_flush_block(h: u64) -> TxDelta {
    let edits = match h {
        1 => vec![
            (2, created(20, None, &[(1, 11)])),
            (3, created(30, None, &[(1, 5), (2, 6)])),
            (5, created(50, None, &[(1, 10), (2, 20)])),
        ],
        2 => vec![
            (1, updated(101, &[(2, 0), (3, 3)])),
            (4, created(40, None, &[(1, 7)])),
            (5, created(51, None, &[(3, 30)])),
            (6, created(60, Some(SHARED_CODE), &[(1, 1)])),
        ],
        3 => vec![
            (1, updated(102, &[(1, 4)])),
            (2, updated(21, &[(2, 22)])),
            (3, deleted()),
        ],
        4 => vec![
            (2, updated(22, &[(1, 0)])),
            (3, created(31, None, &[(9, 9)])),
            (4, deleted()),
        ],
        5 => vec![(7, created(70, Some(SHARED_CODE), &[(2, 2)]))],
        7 => vec![(4, created(41, None, &[(2, 8)]))],
        _ => vec![],
    };
    let mut tx = TxDelta::default();
    for (n, d) in edits {
        tx.accounts.insert(account(n), d);
    }
    let pay = [(h % 3, h)];
    let payer = if h == 1 {
        created(800 + h, None, &pay)
    } else {
        updated(800 + h, &pay)
    };
    tx.accounts.insert(account(8), payer);
    tx
}

/// Every live account of `state`, by address.
fn accounts_of(state: &State) -> Vec<(Address, Account)> {
    let mut accounts: Vec<(Address, Account)> = state
        .iter_live_accounts()
        .map(|(addr, acc)| (addr, acc.clone()))
        .collect();
    accounts.sort_unstable_by_key(|(addr, _)| *addr);
    accounts
}

/// keccak of every storage file in `dir`, in file order.
fn storage_file_hashes(dir: &Path) -> Vec<String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.join("storage"))
        .expect("list storage files")
        .map(|entry| entry.expect("storage entry").path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| B256::keccak(&std::fs::read(p).expect("read storage file")).to_string())
        .collect()
}

/// The node flushes two blocks behind the head, so most flushes leave
/// pending accounts behind. The bytes of every file such flushes write are
/// pinned: which accounts a cutoff collects ("last written at or below
/// it"), their slots, their reset flags and each code blob's one filing.
/// A change that moves a literal changes what a flush writes. A reopen
/// after the snapshot derives the live store's state.
#[test]
fn partial_flushes_write_pinned_bytes() {
    let dir = scratch_dir("partial");
    let mut state = State::new();
    state.insert_account(
        account(1),
        Account {
            nonce: 1,
            balance: U256::from(100u64),
            code: b"genesis code".to_vec(),
            code_hash: B256::keccak(b"genesis code"),
            storage: [(U256::ONE, U256::ONE), (U256::from(2u64), U256::from(2u64))]
                .into_iter()
                .collect(),
        },
    );
    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&state, 0);
    for h in 1..=8 {
        let mut delta = BlockDelta::new();
        delta.merge(&partial_flush_block(h), &db);
        db.absorb(&delta, h);
        delta.apply_to(&mut state);
        db.flush_up_to(h.saturating_sub(2)).expect("lagged flush");
    }
    db.snapshot(Some(state.merkle_root())).expect("snapshot");

    assert_eq!(
        storage_file_hashes(&dir),
        [
            "0xd722ff1183f95949bf90cffa727a557c06d7d83e3865dd8f5b16b85ae30b5cb9",
            "0x1945fed3dd17b6e9dc064f6e53786063fdc3aae5ce20991d20c08ee6869637c3",
            "0xcd00c6739b946b7a768c08dfdb2c87965ad9037a7077e4a85388a992797b1ea3",
            "0x4d1a3f8b0f64c346e3e20af4f068c033a5eb68b8b78a8dca69c465ff39f6b301",
            "0x528ad719344ff06fd74e29e886cf3d40c00eb6b681eb635d3ee4c46abf0835ee",
            "0xf7f4d266f5b6e5971a40d7af25d356ac47aae07a41866be3d93d3140564ac257",
        ]
    );
    assert_reads_match(&db, &state, "partial flushes");
    let live = accounts_of(&db.export_state());
    assert_eq!(live, accounts_of(&state), "live store vs sequential state");
    drop(db);
    let reopened = AccountsDb::open(&dir).expect("reopen accounts db");
    assert_eq!(
        accounts_of(&reopened.export_state()),
        live,
        "reopened store"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A code blob deployed by two accounts, in blocks on either side of a
/// flush cutoff, lands in exactly one storage file, and a reopened store
/// reads it for both accounts.
#[test]
fn a_code_blob_shared_across_a_flush_cutoff_is_filed_once() {
    let dir = scratch_dir("shared-blob");
    let db = AccountsDb::open(&dir).expect("open accounts db");
    for (h, n) in [(1, 1), (2, 2)] {
        let mut tx = TxDelta::default();
        tx.accounts
            .insert(account(n), created(n, Some(SHARED_CODE), &[]));
        let mut delta = BlockDelta::new();
        delta.merge(&tx, &db);
        db.absorb(&delta, h);
    }
    assert_eq!(db.flush_up_to(1).expect("flush block 1"), 1);
    db.snapshot(None).expect("snapshot");
    drop(db);

    let filings: Vec<usize> = std::fs::read_dir(dir.join("storage"))
        .expect("list storage files")
        .map(|entry| {
            let bytes = std::fs::read(entry.expect("storage entry").path()).expect("read file");
            bytes
                .windows(SHARED_CODE.len())
                .filter(|w| *w == SHARED_CODE)
                .count()
        })
        .collect();
    assert_eq!(filings.len(), 2, "one file per flush");
    assert_eq!(filings.iter().sum::<usize>(), 1, "blob filed {filings:?}");

    let reopened = AccountsDb::open(&dir).expect("reopen accounts db");
    for n in [1, 2] {
        assert_eq!(reopened.read_code(account(n)), SHARED_CODE);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The index holds the absorbed head, flushed or not, so `export_state`
/// runs at any head: generator blocks absorbed without a single flush
/// export the sequential state's root.
#[test]
fn export_state_before_any_flush_has_the_sequential_root() {
    let dir = scratch_dir("export-unflushed");
    let executor = ParExecutor::new(2);
    let mut generator = Generator::new(0xE4F0);
    let mut state = generator.fx.state.clone();

    let db = AccountsDb::open(&dir).expect("open accounts db");
    db.bootstrap_from_state(&state, 0);
    for h in 1..=3 {
        advance(&mut generator, &executor, &db, &mut state, h, 48);
        assert_derived_root(&db, &state, "unflushed head");
    }
    assert_eq!(db.stats().files, 0, "nothing was flushed");
    let _ = std::fs::remove_dir_all(&dir);
}
