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
//! reopen ("kill between write-cache flush and MANIFEST update"), leaving
//! the store at the last durable snapshot, and replaying the lost blocks
//! reaches the uninterrupted run's root.

use mtpu_repro::accountsdb::AccountsDb;
use mtpu_repro::evm::overlay::{AccountDelta, BlockDelta, TxDelta};
use mtpu_repro::evm::state::State;
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
    // ...and every account/slot reads back bit-identically — the write
    // cache is gone, so these all come through the index + files.
    assert_reads_match(&reopened, &state, "after restart");
    assert_eq!(reopened.cache_entries(), 0);
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
    drop(db); // crash between write-cache flush and MANIFEST update

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

        // Resume: derive the trie from the store (serial or 4 workers,
        // alternating with k), then commit the lost blocks on top.
        let threads = if k % 2 == 0 { 4 } else { 1 };
        let mut committer = StateCommitter::new(MemStore::new()).with_threads(threads);
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
