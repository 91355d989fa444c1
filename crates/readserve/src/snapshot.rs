//! An immutable, refcounted view of the world state at one block height.
//!
//! A [`BlockSnapshot`] anchors at a frozen base [`State`] (the state at
//! `base_height`) and stacks the frozen [`BlockDelta`]s of every block
//! from `base_height + 1` up to its own height. Reads resolve through the
//! delta chain newest-first by [`AccountDelta`]'s read rule — the one
//! [`OverlayedView`](mtpu_evm::OverlayedView) and the parallel executor's
//! validation use — so a snapshot read at height *H* is bit-identical to
//! a sequential `State` replayed to *H*.
//!
//! Snapshots are plain immutable data behind `Arc`s: cloning a handle is
//! a refcount bump, reads take no locks, and a snapshot stays alive (and
//! consistent) for as long as any reader holds it, no matter how far the
//! write pipeline has advanced.

use mtpu_evm::state::State;
use mtpu_evm::tx::{Block, BlockHeader, Receipt};
use mtpu_evm::{AccountDelta, BlockDelta, StateRead};
use mtpu_primitives::{Address, B256, U256};
use std::sync::{Arc, OnceLock};

/// The immutable world state as of one committed block, plus the block
/// itself and its receipts.
#[derive(Debug)]
pub struct BlockSnapshot {
    height: u64,
    /// Frozen state at `base_height`.
    base: Arc<State>,
    base_height: u64,
    /// Frozen per-block deltas covering `base_height + 1 ..= height`,
    /// oldest first.
    chain: Vec<Arc<BlockDelta>>,
    /// The committed block (header + transactions).
    block: Arc<Block>,
    /// Receipts in block order.
    receipts: Arc<Vec<Receipt>>,
    /// Merkle root, filled in once the pipelined commit resolves it.
    root: OnceLock<B256>,
}

impl BlockSnapshot {
    /// A snapshot at `height` over `base` (the state at `base_height`)
    /// plus the delta chain covering every block in between.
    ///
    /// # Panics
    ///
    /// Panics when the chain length does not span `base_height..height`.
    pub fn new(
        height: u64,
        base: Arc<State>,
        base_height: u64,
        chain: Vec<Arc<BlockDelta>>,
        block: Arc<Block>,
        receipts: Arc<Vec<Receipt>>,
    ) -> Self {
        assert_eq!(
            base_height + chain.len() as u64,
            height,
            "delta chain must cover base_height+1..=height"
        );
        BlockSnapshot {
            height,
            base,
            base_height,
            chain,
            block,
            receipts,
            root: OnceLock::new(),
        }
    }

    /// The snapshot's block height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Height of the frozen base state the delta chain stacks on.
    pub fn base_height(&self) -> u64 {
        self.base_height
    }

    /// Number of frozen deltas between the base and this height.
    pub fn delta_chain_len(&self) -> usize {
        self.chain.len()
    }

    /// The committed block.
    pub fn block(&self) -> &Arc<Block> {
        &self.block
    }

    /// The header read-only simulations at this height run under.
    pub fn header(&self) -> &BlockHeader {
        &self.block.header
    }

    /// Receipts of the block, in transaction order.
    pub fn receipts(&self) -> &Arc<Vec<Receipt>> {
        &self.receipts
    }

    /// The block's merkle root, once the pipelined commit resolved it
    /// (roots trail publication by one block at steady state).
    pub fn merkle_root(&self) -> Option<B256> {
        self.root.get().copied()
    }

    /// Records the resolved root. Later calls with a different value are
    /// ignored — the first writer wins, matching `OnceLock`.
    pub(crate) fn set_root(&self, root: B256) {
        let _ = self.root.set(root);
    }

    /// The first answer `rule` gives along the delta chain, newest first;
    /// `None` when every delta leaves the location to the base.
    fn resolve<T>(&self, addr: Address, rule: impl Fn(&AccountDelta) -> Option<T>) -> Option<T> {
        self.chain
            .iter()
            .rev()
            .find_map(|delta| delta.account(addr).and_then(&rule))
    }
}

/// Delta-chain read resolution: the newest delta whose
/// [`AccountDelta`] read rule decides the location wins, and an undecided
/// location falls through to older deltas and finally the base.
impl StateRead for BlockSnapshot {
    fn read_exists(&self, addr: Address) -> bool {
        self.resolve(addr, AccountDelta::read_exists)
            .unwrap_or_else(|| self.base.read_exists(addr))
    }

    fn read_balance(&self, addr: Address) -> U256 {
        self.resolve(addr, AccountDelta::read_balance)
            .unwrap_or_else(|| self.base.read_balance(addr))
    }

    fn read_nonce(&self, addr: Address) -> u64 {
        self.resolve(addr, AccountDelta::read_nonce)
            .unwrap_or_else(|| self.base.read_nonce(addr))
    }

    fn read_code(&self, addr: Address) -> Vec<u8> {
        self.resolve(addr, |d| d.read_code().map(<[u8]>::to_vec))
            .unwrap_or_else(|| self.base.read_code(addr))
    }

    fn read_code_hash(&self, addr: Address) -> B256 {
        self.resolve(addr, AccountDelta::read_code_hash)
            .unwrap_or_else(|| self.base.read_code_hash(addr))
    }

    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        self.resolve(addr, |d| d.read_storage(&key))
            .unwrap_or_else(|| self.base.read_storage(addr, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::state::StateOps;
    use mtpu_evm::StateOverlay;

    fn a(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    fn u(v: u64) -> U256 {
        U256::from(v)
    }

    fn b(n: u64) -> B256 {
        let mut bytes = [0u8; 32];
        bytes[24..].copy_from_slice(&n.to_be_bytes());
        B256::new(bytes)
    }

    fn empty_block(height: u64) -> Arc<Block> {
        Arc::new(Block {
            header: BlockHeader {
                height,
                ..Default::default()
            },
            transactions: Vec::new(),
        })
    }

    /// Builds one frozen BlockDelta by running `ops` on an overlay over
    /// the given snapshot view and merging the tx delta.
    fn delta_of(
        view: &impl StateRead,
        ops: impl FnOnce(&mut StateOverlay<'_, &dyn StateRead>),
    ) -> Arc<BlockDelta> {
        let dyn_view: &dyn StateRead = view;
        let mut ov = StateOverlay::new(&dyn_view);
        ops(&mut ov);
        ov.finalize_tx();
        let (tx, _) = ov.into_parts();
        let mut block = BlockDelta::new();
        block.merge(&tx, &dyn_view);
        Arc::new(block)
    }

    fn base_state() -> Arc<State> {
        let mut st = State::new();
        st.credit(a(1), u(1000));
        st.credit(a(2), u(500));
        st.deploy_code(a(9), vec![0x60, 0x00]);
        st.set_storage(a(9), u(1), u(42));
        st.finalize_tx();
        Arc::new(st)
    }

    #[test]
    fn chain_resolution_matches_sequential_replay() {
        let base = base_state();
        let snap0 = BlockSnapshot::new(
            0,
            base.clone(),
            0,
            Vec::new(),
            empty_block(0),
            Arc::new(Vec::new()),
        );

        // Block 1: transfer + storage write.
        let d1 = delta_of(&snap0, |ov| {
            ov.transfer(a(1), a(3), u(100));
            ov.set_storage(a(9), u(1), u(7));
        });
        let snap1 = BlockSnapshot::new(
            1,
            base.clone(),
            0,
            vec![d1.clone()],
            empty_block(1),
            Arc::new(Vec::new()),
        );

        // Block 2: balance-only touch of a(3); slot (9,1) untouched — its
        // read must fall through block 2's delta to block 1's.
        let d2 = delta_of(&snap1, |ov| {
            ov.credit(a(3), u(5));
        });
        let snap2 = BlockSnapshot::new(
            2,
            base.clone(),
            0,
            vec![d1.clone(), d2.clone()],
            empty_block(2),
            Arc::new(Vec::new()),
        );

        // Sequential oracle.
        let mut seq = (*base).clone();
        d1.apply_to(&mut seq);
        assert_eq!(snap1.read_balance(a(1)), seq.balance(a(1)));
        assert_eq!(snap1.read_balance(a(3)), seq.balance(a(3)));
        assert_eq!(snap1.read_storage(a(9), u(1)), seq.storage(a(9), u(1)));
        d2.apply_to(&mut seq);
        assert_eq!(snap2.read_balance(a(3)), seq.balance(a(3)));
        assert_eq!(snap2.read_storage(a(9), u(1)), u(7));
        assert_eq!(snap2.read_balance(a(1)), seq.balance(a(1)));
        // Older snapshots are unaffected by newer blocks (MVCC).
        assert_eq!(snap0.read_storage(a(9), u(1)), u(42));
        assert_eq!(snap0.read_balance(a(3)), U256::ZERO);
    }

    #[test]
    fn batched_storage_reads_match_scalar_resolution() {
        let base = base_state();
        let snap0 = BlockSnapshot::new(
            0,
            base.clone(),
            0,
            Vec::new(),
            empty_block(0),
            Arc::new(Vec::new()),
        );
        let d1 = delta_of(&snap0, |ov| {
            ov.set_storage(a(9), u(1), u(7));
            ov.set_storage(a(9), u(5), u(55));
        });
        let snap1 = BlockSnapshot::new(
            1,
            base.clone(),
            0,
            vec![d1.clone()],
            empty_block(1),
            Arc::new(Vec::new()),
        );
        let d2 = delta_of(&snap1, |ov| {
            ov.set_storage(a(9), u(5), u(66));
        });
        let snap2 = BlockSnapshot::new(
            2,
            base,
            0,
            vec![d1, d2],
            empty_block(2),
            Arc::new(Vec::new()),
        );

        // Mix of newest-delta hit (5), older-delta hit (1), and a key no
        // delta decides (8) that falls through to the base.
        let keys = [u(1), u(5), u(8)];
        let mut batch = Vec::new();
        snap2.read_storage_many(a(9), &keys, &mut batch);
        let scalar: Vec<U256> = keys.iter().map(|&k| snap2.read_storage(a(9), k)).collect();
        assert_eq!(batch, scalar);
        assert_eq!(batch, vec![u(7), u(66), U256::ZERO]);
    }

    #[test]
    fn selfdestruct_and_recreate_across_blocks() {
        let base = base_state();
        let snap0 = BlockSnapshot::new(
            0,
            base.clone(),
            0,
            Vec::new(),
            empty_block(0),
            Arc::new(Vec::new()),
        );

        // Block 1 destroys the contract.
        let d1 = delta_of(&snap0, |ov| {
            ov.mark_destructed(a(9));
        });
        let snap1 = BlockSnapshot::new(
            1,
            base.clone(),
            0,
            vec![d1.clone()],
            empty_block(1),
            Arc::new(Vec::new()),
        );
        assert!(!snap1.read_exists(a(9)));
        assert_eq!(snap1.read_storage(a(9), u(1)), U256::ZERO);
        assert_eq!(snap1.read_code(a(9)), Vec::<u8>::new());
        assert_eq!(snap1.read_code_hash(a(9)), B256::ZERO);

        // Block 2 recreates it with fresh code; old storage must NOT
        // resurrect through the chain.
        let d2 = delta_of(&snap1, |ov| {
            ov.set_code(a(9), vec![0xfe]);
            ov.set_storage(a(9), u(2), u(8));
        });
        let snap2 = BlockSnapshot::new(
            2,
            base.clone(),
            0,
            vec![d1, d2],
            empty_block(2),
            Arc::new(Vec::new()),
        );
        assert!(snap2.read_exists(a(9)));
        assert_eq!(snap2.read_code(a(9)), vec![0xfe]);
        assert_eq!(snap2.read_storage(a(9), u(2)), u(8));
        assert_eq!(
            snap2.read_storage(a(9), u(1)),
            U256::ZERO,
            "pre-destruct storage leaked through the delta chain"
        );
        // The destroyed-at-height-1 view is still intact.
        assert!(!snap1.read_exists(a(9)));
    }

    #[test]
    fn root_is_write_once() {
        let base = base_state();
        let snap = BlockSnapshot::new(0, base, 0, Vec::new(), empty_block(0), Arc::new(Vec::new()));
        assert_eq!(snap.merkle_root(), None);
        snap.set_root(b(1));
        snap.set_root(b(2));
        assert_eq!(snap.merkle_root(), Some(b(1)));
    }
}
