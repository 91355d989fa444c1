//! The published snapshot window: contiguous heights, bounded retention,
//! and a transaction-hash index for receipt lookups.
//!
//! Publication is append-only and readers never block writers for long: a
//! lookup takes the window's read lock only to clone one `Arc` out, and
//! the write lock is held only for the push + prune bookkeeping of a
//! publish. The window never holds more than its retention budget: a
//! reader that pinned an old height keeps reading it through its own
//! `Arc`, but no longer finds it in the window.

use crate::obs;
use crate::snapshot::BlockSnapshot;
use mtpu_primitives::map::FastMap;
use mtpu_primitives::B256;
use std::collections::VecDeque;
use std::sync::{Arc, RwLock};

#[derive(Debug, Default)]
struct Window {
    /// Retained snapshots in height order (contiguous).
    snaps: VecDeque<Arc<BlockSnapshot>>,
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
        let mut w = self.window.write().expect("snapshot window poisoned");
        if let Some(last) = w.snaps.back() {
            assert_eq!(
                last.height() + 1,
                snap.height(),
                "snapshots must publish in height order"
            );
        }
        for (i, tx) in snap.block().transactions.iter().enumerate() {
            w.tx_index.insert(tx.hash(), (snap.height(), i));
        }
        w.snaps.push_back(snap);
        let mut pruned_now = 0u64;
        while w.snaps.len() > self.retention {
            let dropped = w.snaps.pop_front().expect("len > retention >= 1");
            for tx in dropped.block().transactions.iter() {
                w.tx_index.remove(&tx.hash());
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
            .cloned()
    }

    /// The snapshot at `height`, if still retained.
    pub fn at(&self, height: u64) -> Option<Arc<BlockSnapshot>> {
        let w = self.window.read().expect("snapshot window poisoned");
        let lo = w.snaps.front()?.height();
        let idx = height.checked_sub(lo)? as usize;
        w.snaps.get(idx).cloned()
    }

    /// The retained height range `(oldest, newest)`, if non-empty.
    pub fn retained(&self) -> Option<(u64, u64)> {
        let w = self.window.read().expect("snapshot window poisoned");
        Some((w.snaps.front()?.height(), w.snaps.back()?.height()))
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
    use mtpu_evm::tx::{Block, BlockHeader};
    use mtpu_evm::StateRead;
    use mtpu_primitives::{Address, U256};

    fn snap(height: u64, base: &Arc<State>) -> Arc<BlockSnapshot> {
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
                transactions: Vec::new(),
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
