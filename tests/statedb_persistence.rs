//! File-backed state-commitment persistence: a chain of blocks committed
//! through `FileStore` must survive a restart — reopening the store
//! resumes at the same root, and the chain can keep growing from there.
//! Work committed but never synced is dropped on reopen (crash
//! semantics), leaving the store at the last durable root.

use mtpu_repro::evm::state::State;
use mtpu_repro::evm::{commit_block_delta, commit_full};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::primitives::B256;
use mtpu_repro::statedb::{FileStore, StateCommitter};
use mtpu_repro::workloads::{BlockConfig, Generator};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtpu-statedb-test-{tag}-{}", std::process::id()));
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

/// Executes one generated block on top of `state`, commits its delta
/// incrementally, and returns the persisted root (asserted equal to the
/// from-scratch commitment of the post-state).
fn advance(
    generator: &mut Generator,
    executor: &ParExecutor,
    committer: &mut StateCommitter<FileStore>,
    state: &mut State,
    tx_count: usize,
) -> B256 {
    let block = generator.block(&block_config(tx_count));
    let result = executor.execute_block(state, &block);
    let root = commit_block_delta(committer, state, &result.delta);
    committer.persist().expect("persist block");
    *state = result.state;
    assert_eq!(root, state.merkle_root(), "incremental commit diverged");
    root
}

#[test]
fn chain_survives_restart_and_continues() {
    let dir = scratch_dir("restart");
    let executor = ParExecutor::new(4);
    let mut generator = Generator::new(0xF11E);
    let mut state = generator.fx.state.clone();

    // Genesis + three blocks, all persisted.
    let mut committer = StateCommitter::new(FileStore::open(&dir).expect("open store"));
    commit_full(&mut committer, &state);
    let genesis_root = committer.persist().expect("persist genesis");
    assert_eq!(genesis_root, state.merkle_root());

    let mut head = genesis_root;
    for _ in 0..3 {
        head = advance(&mut generator, &executor, &mut committer, &mut state, 48);
        generator.fx.state = state.clone();
    }
    assert_ne!(head, genesis_root);
    drop(committer);

    // Restart: the reopened store resumes at the chain head...
    let mut reopened = StateCommitter::new(FileStore::open(&dir).expect("reopen store"));
    assert_eq!(
        reopened.commit(),
        head,
        "reopened store lost the chain head"
    );
    // ...and every account/slot read back through the trie matches the
    // live state.
    for (addr, account) in state.iter_live_accounts() {
        let record = reopened
            .account(&addr)
            .expect("persisted account missing after restart");
        assert_eq!(record.nonce, account.nonce);
        assert_eq!(record.balance, account.balance);
        for (&slot, &value) in &account.storage {
            assert_eq!(reopened.storage_value(&addr, slot), value);
        }
    }

    // The chain keeps growing from the restored root.
    let next = advance(&mut generator, &executor, &mut reopened, &mut state, 48);
    assert_ne!(next, head);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deterministic-merge guarantee, at the byte level: committing the
/// same chain with 1 and 4 worker threads must produce **byte-identical**
/// `nodes.log` files — the parallel path batches per worker but absorbs
/// the batches in canonical order, so the store append order (and the
/// manifest-vouched length) never depends on the thread count. See
/// DESIGN.md §10.
#[test]
fn parallel_commit_store_bytes_match_serial() {
    let executor = ParExecutor::new(4);
    let mut generator = Generator::new(0xBA7C);
    let genesis = generator.fx.state.clone();

    // Execute the chain once; replay the same (base, delta) steps into
    // every store so the inputs are identical.
    let mut steps = Vec::new();
    let mut state = genesis.clone();
    for _ in 0..3 {
        let block = generator.block(&block_config(48));
        let result = executor.execute_block(&state, &block);
        steps.push((state.clone(), result.delta.clone()));
        state = result.state;
        generator.fx.state = state.clone();
    }

    let run = |tag: &str, threads: usize| -> (PathBuf, B256) {
        let dir = scratch_dir(tag);
        let mut committer =
            StateCommitter::new(FileStore::open(&dir).expect("open store")).with_threads(threads);
        commit_full(&mut committer, &genesis);
        committer.persist().expect("persist genesis");
        let mut head = B256::ZERO;
        for (base, delta) in &steps {
            head = commit_block_delta(&mut committer, base, delta);
            committer.persist().expect("persist block");
        }
        (dir, head)
    };

    let (dir1, head1) = run("bytes-serial", 1);
    let (dir4, head4) = run("bytes-par", 4);
    assert_eq!(head1, head4, "parallel commit diverged from serial");
    assert_eq!(head1, state.merkle_root());
    let log1 = std::fs::read(dir1.join("nodes.log")).expect("read serial log");
    let log4 = std::fs::read(dir4.join("nodes.log")).expect("read parallel log");
    assert!(!log1.is_empty());
    assert_eq!(log1, log4, "parallel commit changed the store append order");
    // Thread parity alone would pass a codec that changed both logs
    // alike; the digest pins the on-disk bytes themselves. (Genesis and
    // blocks both commit accounts in address order, so the log is a pure
    // function of the chain.)
    assert_eq!(
        B256::keccak(&log1).to_string(),
        "0x01624543afe0ae7f285527938daddcc557048eb77447dfbb10d02bca950151ad",
        "nodes.log bytes changed"
    );
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

/// Crash-semantics body, shared by the serial and multi-worker variants:
/// a commit whose manifest never synced must vanish on reopen, and the
/// lost block must replay to the same head.
fn crash_drops_unsynced_tail(tag: &str, threads: usize) {
    let dir = scratch_dir(tag);
    let executor = ParExecutor::new(2);
    let mut generator = Generator::new(0xC4A5);
    let mut state = generator.fx.state.clone();

    let mut committer =
        StateCommitter::new(FileStore::open(&dir).expect("open store")).with_threads(threads);
    commit_full(&mut committer, &state);
    let durable = committer.persist().expect("persist genesis");

    // Commit a block but "crash" before syncing the manifest.
    let block = generator.block(&block_config(32));
    let result = executor.execute_block(&state, &block);
    let unsynced = commit_block_delta(&mut committer, &state, &result.delta);
    assert_ne!(unsynced, durable);
    drop(committer);

    // Reopen: the store is back at the last durable root, and the lost
    // block can be re-committed to reach the same head.
    let mut reopened =
        StateCommitter::new(FileStore::open(&dir).expect("reopen store")).with_threads(threads);
    assert_eq!(
        reopened.commit(),
        durable,
        "unsynced tail leaked into manifest"
    );
    let replayed = commit_block_delta(&mut reopened, &state, &result.delta);
    assert_eq!(replayed, unsynced, "replayed commit diverged");
    state = result.state;
    assert_eq!(replayed, state.merkle_root());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsynced_commits_are_dropped_on_reopen() {
    crash_drops_unsynced_tail("crash", 1);
}

/// Same crash semantics when the lost commit was hashed by a 4-worker
/// pool: batched appends past the manifest are equally invisible.
#[test]
fn unsynced_parallel_commits_are_dropped_on_reopen() {
    crash_drops_unsynced_tail("crash-par", 4);
}
