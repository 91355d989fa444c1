//! The read-serving facade: consumes committed blocks from the driver's
//! [`BlockSink`] hook, maintains the snapshot window, and answers point
//! reads, read-only `call` simulations, receipt lookups and block
//! subscriptions at any retained height.
//!
//! Publication is delta-only. Each block arrives from
//! [`NodeDriver::run_flat`](mtpu_mempool::NodeDriver::run_flat) as its
//! frozen [`BlockDelta`], and the chain grows one delta per block on top
//! of the last materialized base. Once it exceeds `MAX_DELTA_CHAIN` (32)
//! the server *folds* — clones the base, applies the chain, and
//! re-anchors — bounding the per-read resolution walk without ever
//! touching the live database.
//! [`CommittedBlock::state`] is ignored: the delta is authoritative.

use crate::chain::SnapshotChain;
use crate::feed::{BlockEvent, Subscriber, SubscriptionFeed};
use crate::obs;
use crate::snapshot::BlockSnapshot;
use mtpu_evm::state::State;
use mtpu_evm::tx::Receipt;
use mtpu_evm::{call_readonly, BlockDelta, ReadCall, ReadCallOutcome, StateRead};
use mtpu_mempool::{BlockSink, CommittedBlock};
use mtpu_primitives::map::FastMap;
use mtpu_primitives::{Address, B256, U256};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Longest delta chain a snapshot may carry before the server folds the
/// chain into a fresh materialized base.
const MAX_DELTA_CHAIN: usize = 32;

/// Tuning knobs for the read layer.
#[derive(Debug, Clone)]
pub struct ReadServeConfig {
    /// Snapshots kept in the window before pruning kicks in.
    pub retention: usize,
    /// Per-subscriber event queue depth before old events are shed.
    pub feed_capacity: usize,
}

impl Default for ReadServeConfig {
    fn default() -> Self {
        ReadServeConfig {
            retention: 64,
            feed_capacity: 64,
        }
    }
}

/// Where the next snapshot anchors: the newest materialized base plus the
/// frozen deltas committed since.
#[derive(Debug)]
struct Builder {
    base: Arc<State>,
    base_height: u64,
    chain: Vec<Arc<BlockDelta>>,
}

/// The MVCC read server. Share it as `Arc<ReadServer>`: the same handle
/// is the driver's [`BlockSink`] and every reader thread's query surface.
#[derive(Debug)]
pub struct ReadServer {
    chain: SnapshotChain,
    feed: Arc<SubscriptionFeed>,
    builder: Mutex<Builder>,
    /// Receipts parked between `on_block` (snapshot readable) and
    /// `on_root` (root resolved, feed event emitted).
    pending_receipts: Mutex<FastMap<u64, Arc<Vec<Receipt>>>>,
}

impl ReadServer {
    /// A server seeded with the chain's genesis state, published as the
    /// height-0 snapshot (its merkle root stays unset — genesis roots are
    /// the driver's to report).
    pub fn new(genesis: State, cfg: ReadServeConfig) -> Arc<Self> {
        let base = Arc::new(genesis);
        let server = Arc::new(ReadServer {
            chain: SnapshotChain::new(cfg.retention),
            feed: SubscriptionFeed::new(cfg.feed_capacity),
            builder: Mutex::new(Builder {
                base: base.clone(),
                base_height: 0,
                chain: Vec::new(),
            }),
            pending_receipts: Mutex::new(FastMap::default()),
        });
        server.chain.publish(Arc::new(BlockSnapshot::new(
            0,
            base,
            0,
            Vec::new(),
            Arc::new(mtpu_evm::tx::Block {
                header: mtpu_evm::tx::BlockHeader {
                    height: 0,
                    ..Default::default()
                },
                transactions: Vec::new(),
            }),
            Arc::new(Vec::new()),
        )));
        server
    }

    /// The newest retained snapshot.
    pub fn latest(&self) -> Option<Arc<BlockSnapshot>> {
        self.chain.latest()
    }

    /// The snapshot at `height` (`None` = latest), if still retained.
    pub fn snapshot(&self, height: Option<u64>) -> Option<Arc<BlockSnapshot>> {
        match height {
            Some(h) => self.chain.at(h),
            None => self.chain.latest(),
        }
    }

    /// The retained height range `(oldest, newest)`.
    pub fn retained(&self) -> Option<(u64, u64)> {
        self.chain.retained()
    }

    /// Snapshots pruned out of the window so far.
    pub fn pruned(&self) -> u64 {
        self.chain.pruned()
    }

    /// Balance of `addr` at `height` (`None` = latest). Returns the
    /// height actually served alongside the value.
    pub fn get_balance(&self, height: Option<u64>, addr: Address) -> Option<(u64, U256)> {
        let started = mtpu_telemetry::enabled().then(Instant::now);
        let snap = self.snapshot(height)?;
        let out = (snap.height(), snap.read_balance(addr));
        if let Some(t) = started {
            obs::metrics()
                .balance_ns
                .record(t.elapsed().as_nanos() as u64);
        }
        Some(out)
    }

    /// Nonce of `addr` at `height` (`None` = latest).
    pub fn get_nonce(&self, height: Option<u64>, addr: Address) -> Option<(u64, u64)> {
        let started = mtpu_telemetry::enabled().then(Instant::now);
        let snap = self.snapshot(height)?;
        let out = (snap.height(), snap.read_nonce(addr));
        if let Some(t) = started {
            obs::metrics()
                .balance_ns
                .record(t.elapsed().as_nanos() as u64);
        }
        Some(out)
    }

    /// Storage slot `key` of `addr` at `height` (`None` = latest).
    pub fn get_storage(
        &self,
        height: Option<u64>,
        addr: Address,
        key: U256,
    ) -> Option<(u64, U256)> {
        let started = mtpu_telemetry::enabled().then(Instant::now);
        let snap = self.snapshot(height)?;
        let out = (snap.height(), snap.read_storage(addr, key));
        if let Some(t) = started {
            obs::metrics()
                .storage_ns
                .record(t.elapsed().as_nanos() as u64);
        }
        Some(out)
    }

    /// Batched point read: storage slots `keys` of `addr` at `height`
    /// (`None` = latest), answered positionally from one snapshot, so
    /// every value comes from the same height.
    pub fn get_many(
        &self,
        height: Option<u64>,
        addr: Address,
        keys: &[U256],
    ) -> Option<(u64, Vec<U256>)> {
        let started = mtpu_telemetry::enabled().then(Instant::now);
        let snap = self.snapshot(height)?;
        let mut values = Vec::new();
        snap.read_storage_many(addr, keys, &mut values);
        if let Some(t) = started {
            obs::metrics()
                .get_many_ns
                .record(t.elapsed().as_nanos() as u64);
        }
        Some((snap.height(), values))
    }

    /// Contract code of `addr` at `height` (`None` = latest).
    pub fn get_code(&self, height: Option<u64>, addr: Address) -> Option<(u64, Vec<u8>)> {
        let started = mtpu_telemetry::enabled().then(Instant::now);
        let snap = self.snapshot(height)?;
        let out = (snap.height(), snap.read_code(addr));
        if let Some(t) = started {
            obs::metrics().code_ns.record(t.elapsed().as_nanos() as u64);
        }
        Some(out)
    }

    /// Runs a read-only EVM `call` simulation against the snapshot at
    /// `height` (`None` = latest). The snapshot is never mutated: the
    /// simulation writes into a throwaway overlay that is dropped with
    /// the outcome.
    pub fn call(&self, height: Option<u64>, call: &ReadCall) -> Option<(u64, ReadCallOutcome)> {
        let started = mtpu_telemetry::enabled().then(Instant::now);
        let snap = self.snapshot(height)?;
        let outcome = call_readonly(&*snap, snap.header(), call);
        if let Some(t) = started {
            obs::metrics().call_ns.record(t.elapsed().as_nanos() as u64);
        }
        Some((snap.height(), outcome))
    }

    /// Locates a transaction's receipt by hash among the retained blocks:
    /// `(height, index-in-block, receipt)`.
    pub fn receipt_by_hash(&self, hash: B256) -> Option<(u64, usize, Receipt)> {
        let started = mtpu_telemetry::enabled().then(Instant::now);
        let (height, index) = self.chain.lookup_tx(hash)?;
        let snap = self.chain.at(height)?;
        let receipt = snap.receipts().get(index)?.clone();
        if let Some(t) = started {
            obs::metrics()
                .receipt_ns
                .record(t.elapsed().as_nanos() as u64);
        }
        Some((height, index, receipt))
    }

    /// Registers a subscriber for per-block `{height, merkle_root,
    /// receipts}` events.
    pub fn subscribe(&self) -> Subscriber {
        self.feed.subscribe()
    }

    /// The subscription hub (e.g. to count subscribers).
    pub fn feed(&self) -> &Arc<SubscriptionFeed> {
        &self.feed
    }
}

impl BlockSink for ReadServer {
    fn on_block(&self, cb: CommittedBlock) {
        let snap = {
            let mut b = self.builder.lock().expect("builder poisoned");
            b.chain.push(cb.delta);
            if b.chain.len() > MAX_DELTA_CHAIN {
                // Fold: materialize the chain into a fresh base so
                // per-read resolution stays O(MAX_DELTA_CHAIN).
                let mut folded = (*b.base).clone();
                for delta in &b.chain {
                    delta.apply_to(&mut folded);
                }
                b.base = Arc::new(folded);
                b.base_height = cb.height;
                b.chain.clear();
            }
            Arc::new(BlockSnapshot::new(
                cb.height,
                b.base.clone(),
                b.base_height,
                b.chain.clone(),
                cb.block,
                cb.receipts.clone(),
            ))
        };
        self.chain.publish(snap);
        self.pending_receipts
            .lock()
            .expect("pending receipts poisoned")
            .insert(cb.height, cb.receipts);
    }

    fn on_root(&self, height: u64, root: B256) {
        if let Some(snap) = self.chain.at(height) {
            snap.set_root(root);
        }
        let receipts = self
            .pending_receipts
            .lock()
            .expect("pending receipts poisoned")
            .remove(&height);
        if let Some(receipts) = receipts {
            self.feed.publish(BlockEvent {
                height,
                merkle_root: root,
                receipts,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::state::StateOps;
    use mtpu_evm::tx::{Block, BlockHeader};
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

    fn genesis() -> State {
        let mut st = State::new();
        st.credit(a(1), u(1_000));
        st.credit(a(2), u(1_000));
        st.finalize_tx();
        st
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

    /// One delta-only committed block that credits `to` with `amount`.
    fn delta_block(server: &ReadServer, height: u64, to: Address, amount: U256) -> CommittedBlock {
        let snap = server.latest().expect("genesis published");
        let view: &dyn StateRead = &*snap;
        let mut ov = StateOverlay::new(&view);
        ov.credit(to, amount);
        ov.finalize_tx();
        let (tx, _) = ov.into_parts();
        let mut delta = BlockDelta::new();
        delta.merge(&tx, &view);
        CommittedBlock {
            height,
            block: empty_block(height),
            receipts: Arc::new(Vec::new()),
            state: None,
            delta: Arc::new(delta),
        }
    }

    #[test]
    fn delta_publication_folds_past_max_chain() {
        let server = ReadServer::new(genesis(), ReadServeConfig::default());
        let blocks = MAX_DELTA_CHAIN as u64 + 8;
        for h in 1..=blocks {
            server.on_block(delta_block(&server, h, a(3), u(10)));
            server.on_root(h, b(h));
        }
        let latest = server.latest().expect("retained");
        assert_eq!(latest.height(), blocks);
        assert_eq!(latest.base_height(), MAX_DELTA_CHAIN as u64 + 1, "one fold");
        assert!(
            latest.delta_chain_len() <= MAX_DELTA_CHAIN,
            "fold must bound the chain, got {}",
            latest.delta_chain_len()
        );
        // One credit of 10 per block on top of nothing.
        assert_eq!(
            server.get_balance(None, a(3)),
            Some((blocks, u(blocks * 10)))
        );
        // Historic heights still resolve their own prefix.
        assert_eq!(server.get_balance(Some(4), a(3)), Some((4, u(40))));
        assert_eq!(server.get_balance(Some(0), a(3)), Some((0, U256::ZERO)));
        assert_eq!(server.latest().unwrap().merkle_root(), Some(b(blocks)));
    }

    #[test]
    fn published_state_is_ignored_for_the_delta() {
        let server = ReadServer::new(genesis(), ReadServeConfig::default());
        // A post-state that contradicts the delta: the delta credits a(3),
        // the state credits a(5) instead.
        let mut divergent = genesis();
        divergent.credit(a(5), u(77));
        divergent.finalize_tx();
        let mut cb = delta_block(&server, 1, a(3), u(10));
        cb.state = Some(Arc::new(divergent));
        server.on_block(cb);
        let snap = server.latest().expect("published");
        assert_eq!(snap.height(), 1);
        assert_eq!(snap.delta_chain_len(), 1);
        assert_eq!(server.get_balance(None, a(3)), Some((1, u(10))));
        assert_eq!(server.get_balance(None, a(5)), Some((1, U256::ZERO)));
    }

    #[test]
    fn get_many_matches_scalar_storage_reads() {
        let server = ReadServer::new(genesis(), ReadServeConfig::default());
        for h in 1..=2u64 {
            server.on_block(delta_block(&server, h, a(3), u(10)));
            server.on_root(h, b(h));
        }
        let keys = [u(0), u(1), u(9)];
        let (height, batch) = server.get_many(None, a(1), &keys).expect("retained");
        assert_eq!(height, 2);
        let scalar: Vec<U256> = keys
            .iter()
            .map(|&k| server.get_storage(None, a(1), k).expect("retained").1)
            .collect();
        assert_eq!(batch, scalar);
        // Historic heights answer too.
        assert!(server.get_many(Some(1), a(1), &keys).is_some());
    }

    #[test]
    fn point_read_latency_histogram_resolves_sub_microsecond_reads() {
        // A point read takes a few hundred ns: recorded in µs, the median
        // sample would be 0.
        let server = ReadServer::new(genesis(), ReadServeConfig::default());
        mtpu_telemetry::set_enabled(true);
        for _ in 0..1_000 {
            assert!(server.get_balance(None, a(1)).is_some());
        }
        mtpu_telemetry::set_enabled(false);
        let snap = obs::metrics().balance_ns.snapshot();
        assert!(snap.count >= 1_000);
        assert!(snap.percentile(50.0) > 0, "{snap:?}");
    }

    #[test]
    fn feed_event_arrives_with_the_resolved_root() {
        let server = ReadServer::new(genesis(), ReadServeConfig::default());
        let sub = server.subscribe();
        server.on_block(delta_block(&server, 1, a(4), u(1)));
        assert!(sub.poll().is_none(), "no event before the root resolves");
        assert_eq!(server.latest().unwrap().merkle_root(), None);
        server.on_root(1, b(9));
        let ev = sub.poll().expect("event after on_root");
        assert_eq!(ev.height, 1);
        assert_eq!(ev.merkle_root, b(9));
        assert_eq!(server.latest().unwrap().merkle_root(), Some(b(9)));
    }
}
