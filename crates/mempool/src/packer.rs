//! Conflict-aware greedy block packing.
//!
//! The packer is where the scheduler finally gets to *choose* what runs
//! together: instead of maximizing fee revenue alone, it fills the front
//! of the block with transactions whose admission-time footprints are
//! pairwise conflict-free (maximum parallelism for `parexec`), then
//! falls back to pure fee ordering to use any remaining budget. Packing
//! is a pure function of the pool snapshot — same pool contents, same
//! block — which is what makes the pipeline's results reproducible.
//!
//! Two invariants keep packed blocks valid and fast to execute:
//!
//! * **nonce prefixes** — a block contains, per sender, a contiguous
//!   prefix of that sender's ready chain, in nonce order;
//! * **independence first** — phase 1 admits at most one transaction per
//!   sender (same-sender transactions serialize on the nonce anyway) and
//!   only if its footprint does not intersect the packed aggregate.

use crate::obs;
use crate::pool::{Mempool, PooledTx, ReadyChain};
use mtpu::sched::{DepGraph, RwSet};
use mtpu_evm::tx::{Block, BlockHeader, Transaction};
use mtpu_primitives::U256;

/// Budgets and policy of one packing pass.
#[derive(Debug, Clone)]
pub struct PackerConfig {
    /// Maximum transactions per block.
    pub max_txs: usize,
    /// Block gas budget (sum of packed `gas_limit`s).
    pub gas_limit: u64,
    /// Block byte budget (sum of packed RLP sizes).
    pub max_bytes: usize,
}

impl Default for PackerConfig {
    fn default() -> Self {
        PackerConfig {
            max_txs: 256,
            gas_limit: 30_000_000,
            max_bytes: 1 << 20,
        }
    }
}

/// A packed block plus everything the execution stage needs.
#[derive(Debug)]
pub struct PackedBlock {
    /// The block (header plus packed transactions in packed order).
    pub block: Block,
    /// The dependency DAG over the packed transactions, built from the
    /// admission-time read/write sets.
    pub graph: DepGraph,
    /// Per-transaction read/write sets, aligned with the block order.
    pub rw_sets: Vec<RwSet>,
    /// Transactions in the conflict-free front (phase 1).
    pub independent: usize,
    /// Candidates skipped during phase 1 because they conflicted with
    /// the packed aggregate (they remain eligible for the fee fill).
    pub conflict_skips: usize,
}

impl PackedBlock {
    /// Fraction of packed transactions in the conflict-free front.
    pub fn independent_ratio(&self) -> f64 {
        if self.block.transactions.is_empty() {
            return 0.0;
        }
        self.independent as f64 / self.block.transactions.len() as f64
    }
}

/// The conflict-aware greedy block packer.
#[derive(Debug, Clone, Default)]
pub struct BlockPacker {
    cfg: PackerConfig,
}

/// Mutable budget tracker shared by both phases.
struct Budget {
    txs_left: usize,
    gas_left: u64,
    bytes_left: usize,
}

impl Budget {
    fn admits(&self, tx: &PooledTx) -> bool {
        self.txs_left > 0 && tx.tx.gas_limit <= self.gas_left && tx.bytes <= self.bytes_left
    }

    fn charge(&mut self, tx: &PooledTx) {
        self.txs_left -= 1;
        self.gas_left -= tx.tx.gas_limit;
        self.bytes_left -= tx.bytes;
    }
}

impl BlockPacker {
    /// A packer with the given budgets and policy.
    pub fn new(cfg: PackerConfig) -> Self {
        BlockPacker { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> &PackerConfig {
        &self.cfg
    }

    /// Packs one block from `pool`'s current ready set under `header`,
    /// removing the packed transactions from the pool. Returns a block
    /// with no transactions when nothing is ready.
    pub fn pack(&self, pool: &Mempool, header: BlockHeader) -> PackedBlock {
        let chains = pool.ready_chains();
        let packed = self.pack_chains(chains, header);
        pool.remove_packed(&packed.block.transactions);
        if mtpu_telemetry::enabled() {
            let m = obs::metrics();
            m.packer_blocks.inc();
            m.packer_txs.add(packed.block.transactions.len() as u64);
            m.conflict_skips.add(packed.conflict_skips as u64);
        }
        packed
    }

    /// The pure packing function: given a ready-chain snapshot, produce
    /// the block. Deterministic for a given snapshot.
    pub fn pack_chains(&self, mut chains: Vec<ReadyChain>, header: BlockHeader) -> PackedBlock {
        // Fee-priority order over chain heads: highest head fee first,
        // sender address as the deterministic tie-break. `ready_chains`
        // already sorts by sender, so the sort is stable across runs.
        chains.sort_by(|a, b| {
            let fa = head_fee(a);
            let fb = head_fee(b);
            fb.cmp(&fa).then_with(|| a.sender.cmp(&b.sender))
        });

        let mut budget = Budget {
            txs_left: self.cfg.max_txs,
            gas_left: self.cfg.gas_limit,
            bytes_left: self.cfg.max_bytes,
        };
        // Per-chain cursor: how many of the chain's transactions are
        // already packed (always a prefix).
        let mut taken = vec![0usize; chains.len()];
        let mut order: Vec<(usize, usize)> = Vec::new(); // (chain, idx)
        let mut conflict_skips = 0usize;
        let mut independent = 0usize;

        // Phase 1 — conflict-free front: walk heads in fee order, admit
        // each whose footprint is disjoint from everything packed so far.
        let mut aggregate = RwSet::default();
        for (c, chain) in chains.iter().enumerate() {
            let head = &chain.txs[0];
            if !budget.admits(head) {
                continue;
            }
            if aggregate.conflicts_with(&head.rw) {
                conflict_skips += 1;
                continue;
            }
            aggregate.absorb(&head.rw);
            budget.charge(head);
            taken[c] = 1;
            order.push((c, 0));
            independent += 1;
        }

        // Phase 2 — fee fill: walk chains in fee order, extending each
        // chain's packed prefix while it fits. Conflicting transactions
        // are fine here; they simply serialize inside parexec. A chain
        // stops at its first non-fitting transaction (never skips within
        // the chain — the block must hold a contiguous nonce prefix).
        for (c, chain) in chains.iter().enumerate() {
            while taken[c] < chain.txs.len() && budget.admits(&chain.txs[taken[c]]) {
                order.push((c, taken[c]));
                budget.charge(&chain.txs[taken[c]]);
                taken[c] += 1;
            }
        }

        let mut txs: Vec<Transaction> = Vec::with_capacity(order.len());
        let mut rw_sets: Vec<RwSet> = Vec::with_capacity(order.len());
        for &(c, i) in &order {
            txs.push(chains[c].txs[i].tx.clone());
            rw_sets.push(chains[c].txs[i].rw.clone());
        }
        let graph = DepGraph::from_rw_sets(&txs, &rw_sets);
        PackedBlock {
            block: Block {
                header,
                transactions: txs,
            },
            graph,
            rw_sets,
            independent,
            conflict_skips,
        }
    }
}

fn head_fee(chain: &ReadyChain) -> U256 {
    chain.txs[0].tx.gas_price
}
