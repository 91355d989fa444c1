//! The node-level execution pipeline: the paper's three-stage model
//! (Fig. 4) wired end to end.
//!
//! A [`Node`] owns the world state, the MTPU configuration and the
//! Contract Table, and processes blocks the way a validating node would:
//!
//! 1. **verify** — execute the block sequentially on the functional EVM,
//!    recording traces and receipts (the consensus-stage reference);
//! 2. **accelerate** — derive the dependency DAG, build timing jobs
//!    (applying hotspot transforms), and run the spatial-temporal
//!    schedule on the simulated MTPU;
//! 3. **block interval** — update the Contract Table from the new traces
//!    (invocation counts + path learning) for the *next* block.

use crate::config::MtpuConfig;
use crate::hotspot::ContractTable;
use crate::sched::{simulate_sequential, simulate_st, DepGraph, ScheduleResult};
use mtpu_evm::commit::{commit_block_delta, commit_full, MemStore, StateCommitter};
use mtpu_evm::overlay::{BlockDelta, OverlayedView, StateOverlay, StateRead};
use mtpu_evm::state::State;
use mtpu_evm::trace_transaction;
use mtpu_evm::tx::{Block, Receipt};
use mtpu_primitives::B256;

/// Default worker-thread cap for the node's state commitment; beyond a
/// few threads the accounts-trie serial tail dominates.
const DEFAULT_COMMIT_THREADS: usize = 4;

fn default_commit_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(DEFAULT_COMMIT_THREADS)
}

/// Outcome of processing one block.
#[derive(Debug, Clone)]
pub struct BlockReport {
    /// Block height.
    pub height: u64,
    /// Receipts of the (sequential, consensus-grade) execution.
    pub receipts: Vec<Receipt>,
    /// State root after the block.
    pub state_root: B256,
    /// Canonical Merkle Patricia Trie root of the post-block state (the
    /// authenticated commitment a header would carry).
    pub merkle_root: B256,
    /// Merkle root of the pre-block state — the parent linkage: block
    /// *h*'s `parent_merkle_root` equals block *h−1*'s `merkle_root`.
    pub parent_merkle_root: B256,
    /// Realized dependent-transaction ratio.
    pub dependent_ratio: f64,
    /// MTPU schedule of the block.
    pub schedule: ScheduleResult,
    /// Makespan of the scalar single-PU baseline, for speedup reporting.
    pub baseline_cycles: u64,
    /// Fraction of transactions covered by the Contract Table when the
    /// block was executed.
    pub hotspot_coverage: f64,
}

impl BlockReport {
    /// Speedup of the MTPU schedule over the scalar baseline.
    pub fn speedup(&self) -> f64 {
        if self.schedule.makespan == 0 {
            return 0.0;
        }
        self.baseline_cycles as f64 / self.schedule.makespan as f64
    }
}

/// Error returned when a block fails verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockError {
    /// Index of the offending transaction.
    pub tx_index: usize,
    /// Underlying validation failure.
    pub reason: mtpu_evm::TxError,
}

impl core::fmt::Display for BlockError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "transaction {} invalid: {}", self.tx_index, self.reason)
    }
}

impl std::error::Error for BlockError {}

/// A validating node with an attached MTPU.
#[derive(Debug)]
pub struct Node {
    /// Current world state.
    pub state: State,
    /// Accelerator configuration.
    pub config: MtpuConfig,
    /// The hotspot Contract Table, updated every block interval.
    pub contract_table: ContractTable,
    /// Number of hotspot entries retained per relearn pass.
    pub hotspot_capacity: usize,
    height: u64,
    /// The persistent incremental committer: each block re-hashes only
    /// the trie paths of the accounts it touched.
    committer: StateCommitter<MemStore>,
    /// Block *h*'s merkle root, which becomes block *h+1*'s parent linkage.
    root: B256,
}

impl Node {
    /// Creates a node over `genesis` state with the given configuration.
    pub fn new(genesis: State, config: MtpuConfig) -> Self {
        let mut committer =
            StateCommitter::new(MemStore::new()).with_threads(default_commit_threads());
        commit_full(&mut committer, &genesis);
        let root = committer.commit();
        Node {
            state: genesis,
            config,
            contract_table: ContractTable::new(),
            hotspot_capacity: 32,
            height: 0,
            committer,
            root,
        }
    }

    /// Blocks processed so far.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// Merkle Patricia Trie root of the node's current state.
    pub fn merkle_root(&self) -> B256 {
        self.root
    }

    /// Processes one block end to end: verify, accelerate, relearn, then
    /// commit the block's delta incrementally (only the touched accounts'
    /// trie paths re-hash) before returning.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError`] when a transaction fails validation
    /// (invalid nonce, unaffordable gas); the node's state is left at the
    /// pre-block state in that case.
    pub fn process_block(&mut self, block: &Block) -> Result<BlockReport, BlockError> {
        // Stage 1: consensus-grade sequential execution with tracing,
        // accumulated as a BlockDelta over the immutable pre-block state
        // (no full-state clone; an invalid block leaves no trace).
        let mut delta = BlockDelta::new();
        let mut receipts = Vec::with_capacity(block.transactions.len());
        let mut traces = Vec::with_capacity(block.transactions.len());
        for (i, tx) in block.transactions.iter().enumerate() {
            let view = OverlayedView {
                base: &self.state,
                delta: &delta,
            };
            let mut overlay = StateOverlay::new(&view);
            match trace_transaction(&mut overlay, &block.header, tx) {
                Ok((r, t)) => {
                    receipts.push(r);
                    traces.push(t);
                }
                Err(reason) => {
                    return Err(BlockError {
                        tx_index: i,
                        reason,
                    })
                }
            }
            let (txd, _) = overlay.into_parts();
            delta.merge(&txd, &self.state);
        }
        let graph = DepGraph::from_conflicts(&block.transactions, &traces);

        // Stage 2: accelerate on the MTPU using last interval's table.
        let coverage = if traces.is_empty() {
            0.0
        } else {
            traces
                .iter()
                .filter(|t| self.contract_table.is_hotspot(t))
                .count() as f64
                / traces.len() as f64
        };
        let jobs: Vec<_> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if self.config.hotspot_opt && crate::config::is_preknown(&self.config, i) {
                    let (tr, loaded) = self.contract_table.transforms_for(t);
                    crate::pu::TxJob::build_with_override(t, &self.config, &tr, loaded)
                } else {
                    crate::pu::TxJob::build(
                        t,
                        &self.config,
                        &crate::stream::StreamTransforms::none(),
                    )
                }
            })
            .collect();
        let schedule = simulate_st(&jobs, &graph, &self.config);
        debug_assert!(graph.schedule_respects_dag(&schedule.start, &schedule.end));

        let base_cfg = MtpuConfig::baseline();
        let base_jobs: Vec<_> = traces
            .iter()
            .map(|t| {
                crate::pu::TxJob::build(t, &base_cfg, &crate::stream::StreamTransforms::none())
            })
            .collect();
        let baseline = simulate_sequential(&base_jobs, &base_cfg);

        // Stage 3: block interval — relearn hotspots from this block.
        for t in &traces {
            self.contract_table.record_invocation(t);
        }
        let view = OverlayedView {
            base: &self.state,
            delta: &delta,
        };
        for t in &traces {
            if let Some(top) = t.top_frame() {
                let code = view.read_code(top.code_address);
                if !code.is_empty() {
                    self.contract_table.learn(t, &code);
                }
            }
        }
        self.contract_table.retain_top(self.hotspot_capacity);

        // Advance: commit while the delta still refers to the pre-block
        // state, then fold the delta in.
        let merkle_root = commit_block_delta(&mut self.committer, &self.state, &delta);
        let parent_merkle_root = std::mem::replace(&mut self.root, merkle_root);
        delta.apply_to(&mut self.state);
        self.height += 1;
        Ok(BlockReport {
            height: self.height,
            receipts,
            state_root: self.state.state_root(),
            merkle_root,
            parent_merkle_root,
            dependent_ratio: graph.dependent_ratio(),
            schedule,
            baseline_cycles: baseline.makespan,
            hotspot_coverage: coverage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::tx::{BlockHeader, Transaction};
    use mtpu_primitives::{Address, U256};

    fn genesis(users: u64) -> State {
        let mut st = State::new();
        for u in 0..users {
            st.credit(Address::from_low_u64(u + 1), U256::from(10_000_000u64));
        }
        st.finalize_tx();
        st
    }

    fn transfer_block(height: u64, nonce: u64) -> Block {
        let txs = (0..8u64)
            .map(|i| {
                Transaction::transfer(
                    Address::from_low_u64(i + 1),
                    Address::from_low_u64(100 + i),
                    U256::from(10u64),
                    nonce,
                )
            })
            .collect();
        Block {
            header: BlockHeader {
                height,
                ..Default::default()
            },
            transactions: txs,
        }
    }

    #[test]
    fn node_processes_consecutive_blocks() {
        let mut node = Node::new(genesis(8), MtpuConfig::default());
        let r1 = node.process_block(&transfer_block(1, 0)).expect("block 1");
        assert_eq!(r1.height, 1);
        assert!(r1.receipts.iter().all(|r| r.success));
        let r2 = node.process_block(&transfer_block(2, 1)).expect("block 2");
        assert_eq!(node.height(), 2);
        assert_ne!(r1.state_root, r2.state_root);
        assert!(r2.speedup() > 0.5);
    }

    #[test]
    fn merkle_roots_chain_block_to_block() {
        let mut node = Node::new(genesis(8), MtpuConfig::default());
        let genesis_root = node.merkle_root();
        let r1 = node.process_block(&transfer_block(1, 0)).expect("block 1");
        assert_eq!(r1.parent_merkle_root, genesis_root);
        assert_ne!(r1.merkle_root, genesis_root);
        let r2 = node.process_block(&transfer_block(2, 1)).expect("block 2");
        assert_eq!(
            r2.parent_merkle_root, r1.merkle_root,
            "parent linkage broken"
        );
        assert_eq!(node.merkle_root(), r2.merkle_root);
        // The commitment is independently recomputable from the state.
        assert_eq!(node.state.merkle_root(), r2.merkle_root);
    }

    #[test]
    fn invalid_block_leaves_state_untouched() {
        let mut node = Node::new(genesis(8), MtpuConfig::default());
        let root = node.state.state_root();
        // Wrong nonce.
        let err = node.process_block(&transfer_block(1, 5)).unwrap_err();
        assert_eq!(err.tx_index, 0);
        assert_eq!(node.state.state_root(), root);
        assert_eq!(node.height(), 0);
    }

    #[test]
    fn hotspot_coverage_grows_after_first_block() {
        let cfg = MtpuConfig {
            hotspot_opt: true,
            ..MtpuConfig::default()
        };
        let mut node = Node::new(genesis(8), cfg);
        // Plain transfers carry no selector, so coverage stays zero — the
        // table only tracks contract calls.
        let r1 = node.process_block(&transfer_block(1, 0)).unwrap();
        assert_eq!(r1.hotspot_coverage, 0.0);
    }
}
