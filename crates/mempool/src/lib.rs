//! The front half of the node: transaction pool, conflict-aware block
//! packer and the sustained ingestion/execution/commit pipeline.
//!
//! Everything upstream of `parexec` lives here. Transactions are admitted
//! one at a time into a bounded, sharded [`Mempool`] keyed by sender —
//! validated against committed state, speculatively executed once to
//! extract their read/write footprint, parked when their nonce is in the
//! future, replaced under replace-by-fee, and evicted lowest-fee-first
//! under a byte/count budget. The [`BlockPacker`] then packs blocks that
//! are *cheap to execute in parallel*: a conflict-free front chosen by
//! footprint disjointness, topped up in fee order. [`NodeDriver`] closes
//! the loop, keeping ingestion, parallel execution and the pipelined
//! state commitment busy simultaneously across a multi-block session.
//!
//! Determinism contract: packing is a pure function of the pool snapshot,
//! and packed blocks execute to bit-identical receipts and merkle roots
//! on any thread count — the mempool chooses *which* transactions run,
//! never *what they compute*. See DESIGN.md §11.

pub mod obs;

mod driver;
mod packer;
mod pool;

pub use driver::{
    BlockSink, BlockSummary, CommittedBlock, DriverConfig, DriverReport, NodeDriver, TxSource,
};
pub use packer::{BlockPacker, PackedBlock, PackerConfig};
pub use pool::{Admitted, Mempool, PoolConfig, PoolStats, PooledTx, ReadyChain, Rejected};
