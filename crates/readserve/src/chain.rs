//! The published snapshot window: contiguous heights, bounded retention,
//! and a transaction-hash index for receipt lookups.
//!
//! Publication is append-only and readers never block writers for long: a
//! lookup takes the window's read lock only to clone one `Arc` out, and
//! the write lock is held only for the push + prune bookkeeping of a
//! publish. Each transaction is hashed once, before the lock: its block
//! keeps the hashes, and pruning it removes exactly those. The window
//! never holds more than its retention budget: a reader that pinned an
//! old height keeps reading it through its own `Arc`, but no longer
//! finds it in the window.

use crate::obs;
use crate::snapshot::BlockSnapshot;
use mtpu_primitives::map::FastMap;
use mtpu_primitives::B256;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::{Arc, RwLock};

#[derive(Debug, Default)]
struct Window {
    /// Retained snapshots in height order (contiguous), each with its
    /// transactions' hashes in block order.
    snaps: VecDeque<(Arc<BlockSnapshot>, Vec<B256>)>,
    /// Transaction hash → (height, index in block) for every retained
    /// block.
    tx_index: FastMap<B256, (u64, usize)>,
    /// Snapshots pruned over the chain's lifetime.
    pruned: u64,
}

/// The lock-guarded, retention-bounded window of published snapshots.
#[derive(Debug)]
pub struct SnapshotChain {
    window: RwLock<Window>,
    retention: usize,
}

impl SnapshotChain {
    /// An empty chain retaining up to `retention` snapshots (at least 1).
    pub fn new(retention: usize) -> Self {
        SnapshotChain {
            window: RwLock::new(Window::default()),
            retention: retention.max(1),
        }
    }

    /// Publishes the next snapshot (heights must arrive in order) and
    /// prunes the tail of the window past the retention budget.
    pub fn publish(&self, snap: Arc<BlockSnapshot>) {
        let hashes: Vec<B256> = snap
            .block()
            .transactions
            .iter()
            .map(|tx| tx.hash())
            .collect();
        let mut w = self.window.write().expect("snapshot window poisoned");
        if let Some((last, _)) = w.snaps.back() {
            assert_eq!(
                last.height() + 1,
                snap.height(),
                "snapshots must publish in height order"
            );
        }
        for (i, hash) in hashes.iter().enumerate() {
            w.tx_index.insert(*hash, (snap.height(), i));
        }
        w.snaps.push_back((snap, hashes));
        let mut pruned_now = 0u64;
        while w.snaps.len() > self.retention {
            let (dropped, hashes) = w.snaps.pop_front().expect("len > retention >= 1");
            for hash in hashes {
                // A hash a newer retained block repeats stays indexed there.
                if let Entry::Occupied(e) = w.tx_index.entry(hash) {
                    if e.get().0 == dropped.height() {
                        e.remove();
                    }
                }
            }
            w.pruned += 1;
            pruned_now += 1;
        }
        if mtpu_telemetry::enabled() {
            let m = obs::metrics();
            m.published.inc();
            m.pruned.add(pruned_now);
            m.retained.set(w.snaps.len() as f64);
        }
    }

    /// The newest retained snapshot.
    pub fn latest(&self) -> Option<Arc<BlockSnapshot>> {
        self.window
            .read()
            .expect("snapshot window poisoned")
            .snaps
            .back()
            .map(|(snap, _)| snap.clone())
    }

    /// The snapshot at `height`, if still retained.
    pub fn at(&self, height: u64) -> Option<Arc<BlockSnapshot>> {
        let w = self.window.read().expect("snapshot window poisoned");
        let lo = w.snaps.front()?.0.height();
        let idx = height.checked_sub(lo)? as usize;
        w.snaps.get(idx).map(|(snap, _)| snap.clone())
    }

    /// The retained height range `(oldest, newest)`, if non-empty.
    pub fn retained(&self) -> Option<(u64, u64)> {
        let w = self.window.read().expect("snapshot window poisoned");
        Some((w.snaps.front()?.0.height(), w.snaps.back()?.0.height()))
    }

    /// Number of snapshots currently retained.
    pub fn len(&self) -> usize {
        self.window
            .read()
            .expect("snapshot window poisoned")
            .snaps
            .len()
    }

    /// `true` when nothing has been published (or everything pruned).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots pruned over the chain's lifetime.
    pub fn pruned(&self) -> u64 {
        self.window.read().expect("snapshot window poisoned").pruned
    }

    /// Locates a transaction by hash among the retained blocks.
    pub fn lookup_tx(&self, hash: B256) -> Option<(u64, usize)> {
        self.window
            .read()
            .expect("snapshot window poisoned")
            .tx_index
            .get(&hash)
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::state::State;
    use mtpu_evm::tx::{Block, BlockHeader, Transaction};
    use mtpu_evm::StateRead;
    use mtpu_primitives::{Address, U256};

    fn snap(height: u64, base: &Arc<State>) -> Arc<BlockSnapshot> {
        snap_with(height, base, Vec::new())
    }

    fn snap_with(
        height: u64,
        base: &Arc<State>,
        transactions: Vec<Transaction>,
    ) -> Arc<BlockSnapshot> {
        Arc::new(BlockSnapshot::new(
            height,
            base.clone(),
            height,
            Vec::new(),
            Arc::new(Block {
                header: BlockHeader {
                    height,
                    ..Default::default()
                },
                transactions,
            }),
            Arc::new(Vec::new()),
        ))
    }

    #[test]
    fn window_slides_past_a_pinned_snapshot() {
        let base = Arc::new(State::new());
        let chain = SnapshotChain::new(2);
        chain.publish(snap(0, &base));
        let pinned = chain.at(0).expect("height 0 retained");
        chain.publish(snap(1, &base));
        chain.publish(snap(2, &base));
        // Over budget: height 0 leaves the window although a reader holds
        // it, and the reader's handle still reads.
        assert_eq!(chain.retained(), Some((1, 2)));
        assert_eq!(chain.pruned(), 1);
        assert!(chain.at(0).is_none());
        assert_eq!(pinned.height(), 0);
        assert_eq!(pinned.read_balance(Address::from_low_u64(1)), U256::ZERO);

        drop(pinned);
        chain.publish(snap(3, &base));
        assert_eq!(chain.retained(), Some((2, 3)));
        assert_eq!(chain.pruned(), 2);
        assert!(chain.at(2).is_some());
    }

    #[test]
    fn a_reader_pinning_genesis_does_not_stretch_the_window() {
        let mut genesis = State::new();
        genesis.credit(Address::from_low_u64(7), U256::from(42u64));
        genesis.finalize_tx();
        let base = Arc::new(genesis);
        let chain = SnapshotChain::new(24);
        chain.publish(snap(0, &base));
        let pinned = chain.at(0).expect("genesis retained");
        for h in 1..=64 {
            chain.publish(snap(h, &base));
        }
        assert_eq!(chain.len(), 24);
        assert_eq!(chain.pruned(), 41);
        assert_eq!(chain.retained(), Some((41, 64)));
        assert_eq!(
            pinned.read_balance(Address::from_low_u64(7)),
            U256::from(42u64)
        );
    }

    /// A transfer distinct per `n`.
    fn transfer(n: u64) -> Transaction {
        Transaction::transfer(
            Address::from_low_u64(1),
            Address::from_low_u64(2),
            U256::from(n),
            n,
        )
    }

    #[test]
    fn lookup_finds_retained_transactions_and_misses_pruned_ones() {
        let base = Arc::new(State::new());
        let chain = SnapshotChain::new(2);
        for h in 0..4 {
            chain.publish(snap_with(
                h,
                &base,
                vec![transfer(2 * h), transfer(2 * h + 1)],
            ));
        }
        assert_eq!(chain.retained(), Some((2, 3)));
        for n in 0..4 {
            assert_eq!(chain.lookup_tx(transfer(n).hash()), None, "pruned tx {n}");
        }
        for n in 4..8 {
            let found = chain.lookup_tx(transfer(n).hash());
            assert_eq!(found, Some((n / 2, n as usize % 2)), "retained tx {n}");
        }

        // A hash repeated by a newer block stays indexed at the newer
        // block when the older one is pruned.
        chain.publish(snap_with(4, &base, vec![transfer(5)]));
        chain.publish(snap_with(5, &base, Vec::new()));
        assert_eq!(chain.retained(), Some((4, 5)));
        assert_eq!(chain.lookup_tx(transfer(5).hash()), Some((4, 0)));
        assert_eq!(chain.lookup_tx(transfer(6).hash()), None);
    }

    #[test]
    fn out_of_order_publication_panics() {
        let base = Arc::new(State::new());
        let chain = SnapshotChain::new(4);
        chain.publish(snap(0, &base));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            chain.publish(snap(5, &base));
        }));
        assert!(result.is_err());
    }
}
