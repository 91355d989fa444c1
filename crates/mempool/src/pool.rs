//! A bounded, sharded transaction pool with per-sender nonce chains.
//!
//! The pool is the node's admission layer (ROADMAP item 1): transactions
//! arrive one at a time, are preflighted against *committed* state
//! (nonce freshness, balance cover, intrinsic gas), speculatively
//! executed once to extract their read/write conflict footprint
//! ([`mtpu::sched::rwset`]), and then filed under their sender in nonce
//! order. Future-nonce transactions are parked until the gap fills;
//! same-nonce resubmissions follow replace-by-fee; and a byte/count
//! budget is enforced by evicting the lowest-fee sender tail.
//!
//! Senders are sharded by address so ingestion can run concurrently with
//! packing: each shard has its own lock, and a sender's whole nonce chain
//! lives in exactly one shard. Entries are immutable once filed and held
//! by [`Arc`], so a packer snapshot shares them instead of copying them.

use crate::obs;
use mtpu::sched::{speculative_rw_set, static_rw_set, RwSet};
use mtpu_evm::overlay::{StateOverlay, StateRead};
use mtpu_evm::tx::{BlockHeader, Transaction};
use mtpu_evm::{admission_preflight, TxError};
use mtpu_primitives::map::FastMap;
use mtpu_primitives::{Address, B256, U256};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Shape and limits of a [`Mempool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Maximum transactions held (count budget).
    pub max_txs: usize,
    /// Maximum summed RLP bytes held (byte budget).
    pub max_bytes: usize,
    /// Shard count (rounded up to a power of two, at least 1).
    pub shards: usize,
    /// Maximum queued transactions per sender (nonce-chain length cap).
    pub max_per_sender: usize,
    /// Minimum percentage gas-price bump a replacement must carry over
    /// the transaction it replaces (replace-by-fee threshold).
    pub rbf_bump_pct: u64,
    /// How many committed blocks a *parked* (nonce-gapped) transaction
    /// may outlive before [`Mempool::observe_committed`] expires it. A
    /// dead sender whose gap never back-fills would otherwise squat its
    /// pool share forever (DESIGN.md §11). Ready transactions never
    /// expire. `0` disables expiry.
    pub parked_ttl: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_txs: 8_192,
            max_bytes: 8 << 20,
            shards: 16,
            max_per_sender: 64,
            rbf_bump_pct: 10,
            parked_ttl: 64,
        }
    }
}

/// How an admitted transaction was filed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admitted {
    /// Executable now: extends the sender's contiguous nonce chain.
    Ready,
    /// Future nonce: parked until the gap back-fills.
    Parked,
    /// Replaced a same-nonce transaction under replace-by-fee.
    Replaced,
}

/// Why a transaction was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// Nonce below the sender's committed account nonce.
    StaleNonce,
    /// Committed balance cannot cover `gas_limit * gas_price + value`.
    Unaffordable,
    /// Gas limit below intrinsic gas.
    IntrinsicGas,
    /// Same-nonce replacement without the required fee bump.
    Underpriced,
    /// Pool at capacity and this transaction's fee is the lowest.
    PoolFull,
    /// Sender already queues `max_per_sender` transactions.
    SenderLimit,
}

impl Rejected {
    /// Short stable label for logs and metrics.
    pub fn label(self) -> &'static str {
        match self {
            Rejected::StaleNonce => "stale_nonce",
            Rejected::Unaffordable => "unaffordable",
            Rejected::IntrinsicGas => "intrinsic_gas",
            Rejected::Underpriced => "underpriced",
            Rejected::PoolFull => "pool_full",
            Rejected::SenderLimit => "sender_limit",
        }
    }
}

/// A pooled transaction: the transaction plus everything admission-time
/// analysis derived once, so the packer and executor never re-derive it.
/// Deliberately not `Clone`: the pool and its snapshots share one copy.
#[derive(Debug)]
pub struct PooledTx {
    /// The transaction.
    pub tx: Transaction,
    /// Conflict keys observed by the admission-time speculative run:
    /// the footprint the packer probes and the DAG is built from.
    pub rw: RwSet,
    /// RLP-encoded size, charged against the byte budget.
    pub bytes: usize,
    /// `true` when the footprint came from the static fallback instead of
    /// a successful speculative execution.
    pub approximate: bool,
    /// Pool epoch (committed-block count) at admission; drives the
    /// parked-transaction TTL.
    pub admitted_epoch: u64,
}

/// Lifetime counters (monotonic; survive purges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Transactions admitted (including replacements).
    pub admitted: u64,
    /// Transactions rejected.
    pub rejected: u64,
    /// Transactions evicted under the byte/count budget.
    pub evicted: u64,
    /// Admissions that were parked on a future nonce.
    pub parked: u64,
    /// Replace-by-fee replacements.
    pub replaced: u64,
    /// Transactions purged as stale after a block committed.
    pub stale_purged: u64,
    /// Parked transactions expired by the TTL (dead-sender cleanup).
    pub expired: u64,
}

/// One sender's nonce-ordered queue.
#[derive(Debug, Default)]
struct SenderQueue {
    /// Queued transactions keyed by nonce.
    txs: BTreeMap<u64, Arc<PooledTx>>,
    /// The sender's committed account nonce as of the last observation —
    /// the nonce the next executable transaction must carry.
    next_nonce: u64,
}

impl SenderQueue {
    /// Number of leading queue entries forming a contiguous nonce run
    /// starting at `next_nonce` (the executable prefix).
    fn ready_len(&self) -> usize {
        self.txs
            .keys()
            .zip(self.next_nonce..)
            .take_while(|&(&nonce, expect)| nonce == expect)
            .count()
    }
}

#[derive(Debug, Default)]
struct Shard {
    senders: FastMap<Address, SenderQueue>,
}

impl Shard {
    /// Unfiles one entry, dropping the sender's queue with its last.
    fn take(&mut self, sender: Address, nonce: u64) -> Option<Arc<PooledTx>> {
        let queue = self.senders.get_mut(&sender)?;
        let taken = queue.txs.remove(&nonce)?;
        if queue.txs.is_empty() {
            self.senders.remove(&sender);
        }
        Some(taken)
    }
}

/// A contiguous, executable run of one sender's pooled transactions,
/// snapshot for the packer. The entries are shared with the pool, not
/// copied; a later replacement or removal in the pool files a different
/// entry and leaves the snapshot as taken.
#[derive(Debug, Clone)]
pub struct ReadyChain {
    /// The sender.
    pub sender: Address,
    /// Transactions in nonce order, starting at the committed nonce.
    pub txs: Vec<Arc<PooledTx>>,
}

/// The bounded, sharded transaction pool.
#[derive(Debug)]
pub struct Mempool {
    cfg: PoolConfig,
    shards: Vec<Mutex<Shard>>,
    shard_mask: usize,
    /// Transactions currently held (all shards).
    count: AtomicUsize,
    /// Summed RLP bytes currently held.
    bytes: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    evicted: AtomicU64,
    parked: AtomicU64,
    replaced: AtomicU64,
    stale_purged: AtomicU64,
    expired: AtomicU64,
    /// Committed-block observations so far — the TTL clock.
    epoch: AtomicU64,
    /// Header the admission-time speculative execution runs under.
    extraction_header: BlockHeader,
}

impl Mempool {
    /// An empty pool with the given limits.
    pub fn new(cfg: PoolConfig) -> Self {
        let shards = cfg.shards.max(1).next_power_of_two();
        Mempool {
            cfg,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_mask: shards - 1,
            count: AtomicUsize::new(0),
            bytes: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            replaced: AtomicU64::new(0),
            stale_purged: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            extraction_header: BlockHeader::default(),
        }
    }

    /// The pool's limits.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Transactions currently pooled.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// `true` when no transactions are pooled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed RLP bytes currently pooled.
    pub fn pooled_bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Lifetime counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            parked: self.parked.load(Ordering::Relaxed),
            replaced: self.replaced.load(Ordering::Relaxed),
            stale_purged: self.stale_purged.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }

    fn shard_index(&self, sender: Address) -> usize {
        // Low address bytes are well-distributed for both fixture users
        // and keccak-derived addresses.
        let b = sender.as_bytes();
        let h = u64::from_le_bytes([b[12], b[13], b[14], b[15], b[16], b[17], b[18], b[19]]);
        (h as usize) & self.shard_mask
    }

    fn shard_of(&self, sender: Address) -> &Mutex<Shard> {
        &self.shards[self.shard_index(sender)]
    }

    /// Books `count` entries totalling `bytes` out of the budgets.
    fn release(&self, count: usize, bytes: usize) {
        self.count.fetch_sub(count, Ordering::Relaxed);
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.update_depth_gauge();
    }

    fn update_depth_gauge(&self) {
        if mtpu_telemetry::enabled() {
            obs::metrics().depth.set(self.len() as f64);
        }
    }

    fn reject(&self, why: Rejected) -> Result<Admitted, Rejected> {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().reject.inc();
        }
        Err(why)
    }

    /// Validates `tx` against `state` (the committed state), extracts its
    /// conflict footprint, and files it. See the module docs for the
    /// admission pipeline.
    ///
    /// # Errors
    ///
    /// Returns a [`Rejected`] reason. A transaction its sender's queue
    /// refuses ([`Rejected::Underpriced`], [`Rejected::SenderLimit`]) is
    /// rejected before anything is evicted for it. A full pool may still
    /// have evicted cheaper tail transactions before finding the incoming
    /// one is itself the cheapest ([`Rejected::PoolFull`]), or before a
    /// concurrent admission by the same sender filled its place.
    pub fn admit<S: StateRead>(&self, tx: Transaction, state: &S) -> Result<Admitted, Rejected> {
        match admission_preflight(state, &tx) {
            Ok(_future) => {}
            Err(TxError::NonceMismatch { .. }) => return self.reject(Rejected::StaleNonce),
            Err(TxError::InsufficientFunds) => return self.reject(Rejected::Unaffordable),
            Err(TxError::IntrinsicGasTooLow) => return self.reject(Rejected::IntrinsicGas),
        };

        let bytes = tx.rlp_encode().len();
        // Budget enforcement happens before taking the sender's shard
        // lock (the victim scan visits every shard). The incoming fee
        // must beat the cheapest tail it displaces.
        if let Err(why) = self.make_room(&tx, bytes) {
            return self.reject(why);
        }

        let pooled = self.extract(tx, state, bytes);
        let sender = pooled.tx.from;
        let nonce = pooled.tx.nonce;
        let mut shard = self.shard_of(sender).lock().expect("shard poisoned");
        let queue = shard.senders.entry(sender).or_insert_with(|| SenderQueue {
            next_nonce: state.read_nonce(sender),
            ..Default::default()
        });

        // Checked again: the same sender may have been admitting
        // concurrently since `make_room` looked.
        if let Err(why) = self.fits(queue, &pooled.tx) {
            drop(shard);
            return self.reject(why);
        }
        if let Some(old) = queue.txs.get(&nonce) {
            let old_bytes = old.bytes;
            queue.txs.insert(nonce, Arc::new(pooled));
            drop(shard);
            self.bytes.fetch_add(bytes, Ordering::Relaxed);
            self.bytes.fetch_sub(old_bytes, Ordering::Relaxed);
            self.admitted.fetch_add(1, Ordering::Relaxed);
            self.replaced.fetch_add(1, Ordering::Relaxed);
            if mtpu_telemetry::enabled() {
                let m = obs::metrics();
                m.admit.inc();
                m.replaced.inc();
            }
            self.update_depth_gauge();
            return Ok(Admitted::Replaced);
        }

        queue.txs.insert(nonce, Arc::new(pooled));
        // Ready iff the transaction landed inside the contiguous
        // executable prefix (a back-fill can make it *and* its parked
        // successors ready at once).
        let ready =
            nonce >= queue.next_nonce && ((nonce - queue.next_nonce) as usize) < queue.ready_len();
        drop(shard);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().admit.inc();
        }
        self.update_depth_gauge();
        if ready {
            Ok(Admitted::Ready)
        } else {
            self.parked.fetch_add(1, Ordering::Relaxed);
            if mtpu_telemetry::enabled() {
                obs::metrics().parked.inc();
            }
            Ok(Admitted::Parked)
        }
    }

    /// Whether the sender's `queue` takes `tx`: a same-nonce replacement
    /// must outbid its predecessor by the replace-by-fee bump (which keeps
    /// gossip-level replacement spam from grinding the pool), and a new
    /// nonce needs a free place under the per-sender limit.
    fn fits(&self, queue: &SenderQueue, tx: &Transaction) -> Result<(), Rejected> {
        match queue.txs.get(&tx.nonce) {
            Some(old) => {
                let bump =
                    old.tx.gas_price * U256::from(self.cfg.rbf_bump_pct) / U256::from(100u64);
                let outbids = tx.gas_price > old.tx.gas_price + bump;
                outbids.then_some(()).ok_or(Rejected::Underpriced)
            }
            None if queue.txs.len() >= self.cfg.max_per_sender => Err(Rejected::SenderLimit),
            None => Ok(()),
        }
    }

    /// Admission-time footprint extraction: one speculative, untraced
    /// execution on an unrecorded overlay over committed state (with the
    /// sender's nonce pinned to the transaction's, so parked chain members
    /// still execute). A failed execution falls back to the static
    /// value-transfer footprint — an under-approximation that only costs
    /// parallelism, never correctness, because parexec's commit lane
    /// validates whatever ran ahead of it.
    fn extract<S: StateRead>(&self, tx: Transaction, state: &S, bytes: usize) -> PooledTx {
        let view = NonceView {
            base: state,
            sender: tx.from,
            nonce: tx.nonce,
        };
        let mut overlay = StateOverlay::unrecorded(&view);
        let (rw, approximate) = match speculative_rw_set(&mut overlay, &self.extraction_header, &tx)
        {
            Ok(rw) => (rw, false),
            Err(_) => (static_rw_set(&tx), true),
        };
        PooledTx {
            tx,
            rw,
            bytes,
            approximate,
            admitted_epoch: self.epoch.load(Ordering::Relaxed),
        }
    }

    /// Evicts lowest-fee sender tails until `incoming` (`incoming_bytes`
    /// of RLP) fits the budgets. Whatever the sender's queue refuses (see
    /// [`Mempool::fits`]) is refused first, so it evicts nothing; the
    /// pool is full ([`Rejected::PoolFull`]) when the incoming fee does
    /// not beat the cheapest tail (the incoming transaction is the right
    /// victim).
    fn make_room(&self, incoming: &Transaction, incoming_bytes: usize) -> Result<(), Rejected> {
        // A same-nonce resubmission displaces its predecessor instead of
        // adding an entry: the count does not grow, only the byte
        // difference needs room, and the predecessor is no victim.
        let replaced_bytes = {
            let shard = self.shard_of(incoming.from).lock().expect("shard poisoned");
            let queue = shard.senders.get(&incoming.from);
            if let Some(q) = queue {
                self.fits(q, incoming)?;
            }
            queue.and_then(|q| Some(q.txs.get(&incoming.nonce)?.bytes))
        };
        let spare = replaced_bytes.map(|_| (incoming.from, incoming.nonce));
        let grows = usize::from(replaced_bytes.is_none());
        loop {
            let over_count = self.len() + grows > self.cfg.max_txs;
            let over_bytes = self.pooled_bytes() + incoming_bytes
                > self.cfg.max_bytes + replaced_bytes.unwrap_or(0);
            if !over_count && !over_bytes {
                return Ok(());
            }
            let Some((victim_fee, sender, nonce)) = self.cheapest_tail(spare) else {
                // Nothing to evict: the pool is empty yet the incoming
                // transaction alone busts the byte budget.
                return Err(Rejected::PoolFull);
            };
            if victim_fee >= incoming.gas_price {
                return Err(Rejected::PoolFull);
            }
            self.remove(sender, nonce);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            if mtpu_telemetry::enabled() {
                obs::metrics().evict.inc();
            }
        }
    }

    /// The globally cheapest sender-tail transaction: each sender's
    /// highest-nonce entry is evictable without stranding a gap; among
    /// those, minimum `(gas_price, sender)` — a deterministic victim.
    /// `spare` exempts one entry.
    fn cheapest_tail(&self, spare: Option<(Address, u64)>) -> Option<(U256, Address, u64)> {
        let mut best: Option<(U256, Address, u64)> = None;
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            for (&sender, queue) in &shard.senders {
                if let Some((&nonce, tail)) = queue.txs.iter().next_back() {
                    if Some((sender, nonce)) == spare {
                        continue;
                    }
                    let key = (tail.tx.gas_price, sender, nonce);
                    if best.as_ref().is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                        best = Some(key);
                    }
                }
            }
        }
        best
    }

    /// Removes one transaction; returns it if present.
    pub fn remove(&self, sender: Address, nonce: u64) -> Option<Arc<PooledTx>> {
        let mut shard = self.shard_of(sender).lock().expect("shard poisoned");
        let removed = shard.take(sender, nonce)?;
        drop(shard);
        self.release(1, removed.bytes);
        Some(removed)
    }

    /// Removes a packed block's transactions in one pass: one lock
    /// acquisition per shard they live in, one budget update for all.
    pub(crate) fn remove_packed(&self, txs: &[Transaction]) {
        let mut keys: Vec<(usize, Address, u64)> = txs
            .iter()
            .map(|tx| (self.shard_index(tx.from), tx.from, tx.nonce))
            .collect();
        keys.sort_unstable_by_key(|&(shard, ..)| shard);
        let (mut count, mut bytes) = (0, 0);
        for run in keys.chunk_by(|a, b| a.0 == b.0) {
            let mut shard = self.shards[run[0].0].lock().expect("shard poisoned");
            for &(_, sender, nonce) in run {
                if let Some(removed) = shard.take(sender, nonce) {
                    count += 1;
                    bytes += removed.bytes;
                }
            }
        }
        self.release(count, bytes);
    }

    /// `true` when some sender has an executable transaction — what
    /// `!ready_chains().is_empty()` says, without building the snapshot.
    pub fn has_ready(&self) -> bool {
        self.shards.iter().any(|shard| {
            let shard = shard.lock().expect("shard poisoned");
            shard.senders.values().any(|queue| queue.ready_len() > 0)
        })
    }

    /// Snapshot of every sender's executable prefix (contiguous nonces
    /// starting at the committed account nonce), sorted by sender — the
    /// packer's deterministic candidate view. Costs one reference-count
    /// bump per ready entry; nothing is deep-copied.
    pub fn ready_chains(&self) -> Vec<ReadyChain> {
        let mut chains = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard poisoned");
            for (&sender, queue) in &shard.senders {
                let n = queue.ready_len();
                if n == 0 {
                    continue;
                }
                chains.push(ReadyChain {
                    sender,
                    txs: queue.txs.values().take(n).cloned().collect(),
                });
            }
        }
        chains.sort_by_key(|c| c.sender);
        chains
    }

    /// Re-synchronizes the pool after a block committed: every sender's
    /// transactions whose nonce fell below the new committed account
    /// nonce are purged (they were either packed or invalidated), the
    /// remaining queue re-anchors so parked successors become ready, and
    /// parked entries that out-lived [`PoolConfig::parked_ttl`] committed
    /// blocks expire — a sender that dies with a nonce gap open cannot
    /// squat its pool share forever.
    pub fn observe_committed<S: StateRead>(&self, state: &S) {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let ttl = self.cfg.parked_ttl;
        let mut purged = 0u64;
        let mut expired = 0u64;
        let mut freed_bytes = 0usize;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard poisoned");
            shard.senders.retain(|&sender, queue| {
                let committed = state.read_nonce(sender);
                // Purge the whole stale range at once — every entry below
                // the committed nonce is dead *now* (packed or invalidated),
                // whether it was ready or parked; none of it waits out the
                // parked TTL below.
                let live = queue.txs.split_off(&committed);
                let stale = std::mem::replace(&mut queue.txs, live);
                for dropped in stale.into_values() {
                    purged += 1;
                    freed_bytes += dropped.bytes;
                }
                queue.next_nonce = committed;
                if ttl > 0 {
                    // Everything past the contiguous ready prefix is
                    // parked behind a nonce gap; age it against the TTL.
                    let aged: Vec<u64> = queue
                        .txs
                        .iter()
                        .skip(queue.ready_len())
                        .filter(|(_, p)| epoch.saturating_sub(p.admitted_epoch) >= ttl)
                        .map(|(&nonce, _)| nonce)
                        .collect();
                    for nonce in aged {
                        let dropped = queue.txs.remove(&nonce).expect("key just seen");
                        expired += 1;
                        freed_bytes += dropped.bytes;
                    }
                }
                !queue.txs.is_empty()
            });
        }
        if purged + expired > 0 {
            self.stale_purged.fetch_add(purged, Ordering::Relaxed);
            self.expired.fetch_add(expired, Ordering::Relaxed);
            if mtpu_telemetry::enabled() {
                let m = obs::metrics();
                m.stale_purged.add(purged);
                m.expired.add(expired);
            }
        }
        self.release((purged + expired) as usize, freed_bytes);
    }
}

/// A read view that pins one sender's nonce — the admission-time
/// speculative execution runs a parked transaction as if its
/// predecessors had already committed.
struct NonceView<'a, S: StateRead> {
    base: &'a S,
    sender: Address,
    nonce: u64,
}

impl<S: StateRead> StateRead for NonceView<'_, S> {
    fn read_exists(&self, addr: Address) -> bool {
        self.base.read_exists(addr)
    }
    fn read_balance(&self, addr: Address) -> U256 {
        self.base.read_balance(addr)
    }
    fn read_nonce(&self, addr: Address) -> u64 {
        if addr == self.sender {
            self.nonce
        } else {
            self.base.read_nonce(addr)
        }
    }
    fn read_code(&self, addr: Address) -> Vec<u8> {
        self.base.read_code(addr)
    }
    fn read_code_hash(&self, addr: Address) -> B256 {
        self.base.read_code_hash(addr)
    }
    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        self.base.read_storage(addr, key)
    }
}
