//! Bridges the journaled [`State`] and the [`mtpu_statedb`] Merkle
//! Patricia Trie: full-state commitment ([`State::merkle_root`]) and
//! incremental per-block commitment ([`commit_block_delta`]).
//!
//! The flat [`State::state_root`] digest is order-stable but opaque; the
//! MPT root produced here is the canonical Ethereum commitment — the same
//! 32 bytes any other correct implementation would compute for the same
//! accounts — and supports *incremental* recomputation: committing a
//! [`BlockDelta`] re-hashes only the touched accounts' paths.

use crate::overlay::{BlockDelta, OverlayedView, StateRead};
use crate::state::{Account, State};
use mtpu_primitives::{Address, B256, EMPTY_CODE_HASH};
use mtpu_statedb::AccountUpdate;
pub use mtpu_statedb::{MemStore, NodeStore, StateCommitter};
use std::sync::mpsc;
use std::thread;

/// The [`AccountUpdate`] describing `account`'s full contents (storage
/// replayed from scratch).
fn full_update(account: &Account) -> AccountUpdate {
    AccountUpdate {
        nonce: account.nonce,
        balance: account.balance,
        code_hash: account.code_hash,
        reset_storage: true,
        storage: account.storage.iter().map(|(k, v)| (*k, *v)).collect(),
    }
}

impl State {
    /// The canonical Merkle Patricia Trie root of this state, built from
    /// scratch over an in-memory store by [`commit_full`].
    ///
    /// Accounts marked self-destructed (but not yet removed by
    /// [`State::finalize_tx`]) are excluded, mirroring
    /// [`State::state_root`].
    pub fn merkle_root(&self) -> B256 {
        commit_full(&mut StateCommitter::new(MemStore::new()), self)
    }
}

/// Builds every live account of `state` into the fresh `committer` with
/// [`StateCommitter::bulk_load`] and returns the state root.
///
/// # Panics
///
/// If `committer` already holds accounts or buffered updates: a full
/// build would silently keep accounts absent from `state`.
pub fn commit_full<S: NodeStore>(committer: &mut StateCommitter<S>, state: &State) -> B256 {
    // The state iterates in HashMap order; address order pins the
    // storage tries' build order — and with it the store's append order —
    // to a pure function of the state, as `delta_updates` does for a block.
    let mut accounts: Vec<(Address, &Account)> = state.iter_live_accounts().collect();
    accounts.sort_unstable_by_key(|(addr, _)| *addr);
    committer.bulk_load(
        accounts
            .into_iter()
            .map(|(addr, account)| (addr, full_update(account))),
    )
}

/// One block's commitment work, fully resolved against the pre-block
/// state: per-account updates in address order (`None` = delete). This
/// is everything a commit needs — extracting it up front lets a
/// background thread commit without borrowing `base` or `delta`.
///
/// Generic over the base view: the in-memory [`State`] map and the flat
/// accounts-DB backend extract identical updates for the same delta.
pub fn delta_updates<B: StateRead>(
    base: &B,
    delta: &BlockDelta,
) -> Vec<(Address, Option<AccountUpdate>)> {
    let view = OverlayedView { base, delta };
    let mut updates: Vec<(Address, Option<AccountUpdate>)> = delta
        .iter()
        .map(|(addr, d)| {
            if d.deleted {
                return (addr, None);
            }
            let up = AccountUpdate {
                nonce: view.read_nonce(addr),
                balance: view.read_balance(addr),
                code_hash: effective_code_hash(&view, addr),
                // A shadowing delta (re-)created the account inside this
                // block: its storage map is the complete storage, so the
                // old trie (if any) must be discarded.
                reset_storage: d.shadows_base,
                storage: d.storage.iter().map(|(k, v)| (*k, *v)).collect(),
            };
            (addr, Some(up))
        })
        .collect();
    // BlockDelta iterates in HashMap order; sorting pins the committer's
    // touch order — and with it the store's append order — to a pure
    // function of the block's contents.
    updates.sort_unstable_by_key(|(addr, _)| *addr);
    updates
}

/// Replays pre-extracted [`delta_updates`] into `committer`.
pub fn apply_updates<S: NodeStore>(
    committer: &mut StateCommitter<S>,
    updates: &[(Address, Option<AccountUpdate>)],
) {
    for (addr, up) in updates {
        match up {
            Some(up) => committer.update_account(addr, up),
            None => committer.delete_account(addr),
        }
    }
}

/// Applies one block's accumulated [`BlockDelta`] to a long-lived
/// `committer` whose trie currently commits to `base`, and returns the
/// post-block root. Only the touched accounts' trie paths are re-hashed.
///
/// `base` must be the same pre-block state the delta was built against —
/// unwritten account fields fall back to it via [`OverlayedView`].
pub fn commit_block_delta<S: NodeStore, B: StateRead>(
    committer: &mut StateCommitter<S>,
    base: &B,
    delta: &BlockDelta,
) -> B256 {
    apply_updates(committer, &delta_updates(base, delta));
    committer.commit()
}

fn effective_code_hash<B: StateRead>(view: &OverlayedView<'_, B>, addr: Address) -> B256 {
    let h = view.read_code_hash(addr);
    // State::code_hash reports ZERO for never-coded accounts (EXTCODEHASH
    // semantics); the trie stores keccak("") for code-less accounts.
    if h == B256::ZERO {
        EMPTY_CODE_HASH
    } else {
        h
    }
}

/// Convenience for tests and tools: the merkle root of `base` with
/// `delta` applied, computed incrementally from a fresh full commit of
/// `base`. Equals `applied.merkle_root()` where `applied` is the delta
/// applied to a clone of `base`.
pub fn delta_merkle_root(base: &State, delta: &BlockDelta) -> B256 {
    let mut committer = StateCommitter::new(MemStore::new());
    commit_full(&mut committer, base);
    commit_block_delta(&mut committer, base, delta)
}

/// A claim check for one block's state root: returned immediately by
/// [`AsyncCommitter::submit`] while the commitment runs on the
/// background thread, redeemed with [`CommitHandle::wait`] at the point
/// the root is actually needed (typically after the *next* block has
/// executed — that window is the execute/commit overlap).
#[derive(Debug)]
pub struct CommitHandle {
    root: mpsc::Receiver<B256>,
}

impl CommitHandle {
    /// Blocks until the commit finishes and returns its root.
    ///
    /// # Panics
    ///
    /// If the commit thread died before resolving this block.
    pub fn wait(self) -> B256 {
        self.root.recv().expect("commit thread panicked")
    }
}

struct CommitJob {
    updates: Vec<(Address, Option<AccountUpdate>)>,
    root: mpsc::Sender<B256>,
}

/// A [`StateCommitter`] moved onto a dedicated background thread.
///
/// [`AsyncCommitter::submit`] extracts a block's [`delta_updates`] on
/// the calling thread (they borrow the base state, which the background
/// thread must not), enqueues them, and returns a [`CommitHandle`]
/// immediately — block N's trie hashing overlaps block N+1's execution.
/// Jobs run strictly in submission order, so block-to-block root chaining
/// is preserved.
#[derive(Debug)]
pub struct AsyncCommitter {
    jobs: Option<mpsc::Sender<CommitJob>>,
    worker: Option<thread::JoinHandle<()>>,
}

impl AsyncCommitter {
    /// Moves `committer` onto a freshly spawned commit thread.
    pub fn new<S: NodeStore + Send + 'static>(mut committer: StateCommitter<S>) -> AsyncCommitter {
        let (tx, rx) = mpsc::channel::<CommitJob>();
        let worker = thread::Builder::new()
            .name("statedb-commit".into())
            .spawn(move || {
                mtpu_telemetry::name_thread("statedb-commit");
                while let Ok(job) = rx.recv() {
                    apply_updates(&mut committer, &job.updates);
                    // A handle dropped unredeemed just discards its root.
                    let _ = job.root.send(committer.commit());
                }
            })
            .expect("spawn commit thread");
        AsyncCommitter {
            jobs: Some(tx),
            worker: Some(worker),
        }
    }

    /// Queues one block's commitment. `base` must be the pre-block state
    /// the delta was built against.
    pub fn submit<B: StateRead>(&self, base: &B, delta: &BlockDelta) -> CommitHandle {
        let (root, handle) = mpsc::channel();
        self.jobs
            .as_ref()
            .expect("sender alive until drop")
            .send(CommitJob {
                updates: delta_updates(base, delta),
                root,
            })
            .expect("commit thread alive");
        CommitHandle { root: handle }
    }
}

impl Drop for AsyncCommitter {
    fn drop(&mut self) {
        self.jobs = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::StateOverlay;
    use crate::state::StateOps;
    use mtpu_primitives::U256;
    use mtpu_statedb::empty_root;

    fn a(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    fn u(v: u64) -> U256 {
        U256::from(v)
    }

    #[test]
    fn empty_state_has_canonical_empty_root() {
        assert_eq!(State::new().merkle_root(), empty_root());
    }

    #[test]
    fn merkle_root_tracks_account_and_storage_changes() {
        let mut st = State::new();
        st.credit(a(1), u(100));
        st.finalize_tx();
        let r1 = st.merkle_root();
        assert_ne!(r1, empty_root());

        st.set_storage(a(1), u(5), u(55));
        st.finalize_tx();
        let r2 = st.merkle_root();
        assert_ne!(r2, r1);

        st.set_storage(a(1), u(5), U256::ZERO);
        st.finalize_tx();
        assert_eq!(st.merkle_root(), r1, "clearing the slot restores the root");
    }

    #[test]
    fn merkle_root_excludes_marked_destructed_accounts() {
        let mut st = State::new();
        st.credit(a(1), u(1));
        st.finalize_tx();
        let clean = st.merkle_root();

        st.credit(a(2), u(2));
        st.mark_destructed(a(2));
        assert_eq!(st.merkle_root(), clean);
        st.finalize_tx();
        assert_eq!(st.merkle_root(), clean);
    }

    #[test]
    fn incremental_delta_commit_matches_applied_state() {
        let mut base = State::new();
        base.credit(a(1), u(1000));
        base.deploy_code(a(9), vec![0x60, 0x00]);
        base.set_storage(a(9), u(1), u(42));
        base.finalize_tx();

        let mut ov = StateOverlay::new(&base);
        ov.transfer(a(1), a(2), u(300));
        ov.set_storage(a(9), u(1), u(7));
        ov.set_storage(a(9), u(2), u(8));
        ov.set_code(a(3), vec![0xfe]);
        ov.finalize_tx();
        let (txd, _) = ov.into_parts();
        let mut delta = BlockDelta::new();
        delta.merge(&txd, &base);

        let mut applied = base.clone();
        delta.apply_to(&mut applied);

        assert_eq!(delta_merkle_root(&base, &delta), applied.merkle_root());
    }

    #[test]
    fn incremental_delete_matches_applied_state() {
        let mut base = State::new();
        base.credit(a(1), u(10));
        base.credit(a(2), u(20));
        base.set_storage(a(2), u(1), u(11));
        base.finalize_tx();

        let mut ov = StateOverlay::new(&base);
        ov.mark_destructed(a(2));
        ov.finalize_tx();
        let (txd, _) = ov.into_parts();
        let mut delta = BlockDelta::new();
        delta.merge(&txd, &base);

        let mut applied = base.clone();
        delta.apply_to(&mut applied);

        assert_eq!(delta_merkle_root(&base, &delta), applied.merkle_root());
    }

    #[test]
    fn incremental_recreation_resets_storage() {
        // Account with storage is destroyed and re-created inside one
        // block; the old slots must not survive in the trie.
        let mut base = State::new();
        base.credit(a(1), u(50));
        base.set_storage(a(1), u(1), u(111));
        base.finalize_tx();

        let mut ov1 = StateOverlay::new(&base);
        ov1.mark_destructed(a(1));
        ov1.finalize_tx();
        let (d1, _) = ov1.into_parts();
        let mut delta = BlockDelta::new();
        delta.merge(&d1, &base);

        let view = OverlayedView {
            base: &base,
            delta: &delta,
        };
        let mut ov2 = StateOverlay::new(&view);
        ov2.credit(a(1), u(5));
        ov2.set_storage(a(1), u(2), u(222));
        ov2.finalize_tx();
        let (d2, _) = ov2.into_parts();
        delta.merge(&d2, &base);

        let mut applied = base.clone();
        delta.apply_to(&mut applied);
        assert_eq!(applied.storage(a(1), u(1)), U256::ZERO);

        assert_eq!(delta_merkle_root(&base, &delta), applied.merkle_root());
    }
}
