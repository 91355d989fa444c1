//! The serving half of the node: an MVCC snapshot read layer over the
//! live write pipeline (ROADMAP item 5).
//!
//! A production node answers orders of magnitude more reads — balance and
//! storage queries, `eth_call` simulation, receipt lookups — than it
//! executes writes, yet the write path owns the only mutable state
//! handle. This crate decouples the two without ever blocking execution:
//! every committed block publishes an immutable, refcounted
//! [`BlockSnapshot`] — a frozen base [`State`](mtpu_evm::State) plus a
//! chain of frozen [`BlockDelta`](mtpu_evm::BlockDelta)s — into a
//! [`SnapshotChain`] holding a bounded retention window. Any number of
//! reader threads resolve point reads and run full read-only EVM `call`
//! simulations against any retained height while
//! [`NodeDriver::run_flat`](mtpu_mempool::NodeDriver::run_flat) keeps
//! executing and committing at full tilt; snapshots are pruned once the window slides
//! past them *and* the last reader drops its handle.
//!
//! [`ReadServer`] is the facade: it implements the driver's
//! [`BlockSink`](mtpu_mempool::BlockSink) publication hook, serves
//! `get_balance` / `get_storage` / `get_code` / `get_nonce` /
//! receipt-by-hash / `call` at any retained height, and broadcasts
//! per-block `{height, merkle_root, receipts}` events to
//! [`SubscriptionFeed`] subscribers with lag and drop accounting.
//!
//! Consistency contract: a read at height *H* is bit-identical to the
//! same read against a sequential [`State`](mtpu_evm::State) replayed to
//! *H* — `tests/readserve.rs` asserts exactly this, and the spine's
//! `node_readers` pass checks every read it sampled against a sequential
//! replay (a divergence marks the run incorrect). See DESIGN.md §13.

pub mod chain;
pub mod feed;
pub mod obs;
pub mod server;
pub mod snapshot;

pub use chain::SnapshotChain;
pub use feed::{BlockEvent, Subscriber, SubscriptionFeed};
pub use server::{ReadServeConfig, ReadServer};
pub use snapshot::BlockSnapshot;
