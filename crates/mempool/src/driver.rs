//! The sustained node pipeline: ingestion → packing → parallel
//! execution → pipelined commitment, all overlapped.
//!
//! One [`NodeDriver::run_flat`] call drives a multi-block session the way
//! a validating node's front half would: an ingestion worker admits
//! transactions into the shared [`Mempool`] against the flat accounts
//! store while the main loop packs a block, executes it on the `parexec`
//! worker pool, hands the state commitment to the background
//! [`AsyncCommitter`] thread, and only joins each block's root one block
//! behind — so at steady state the pool is being refilled, block *h* is
//! executing, and block *h−1* is still hashing, simultaneously.

use crate::packer::BlockPacker;
use crate::pool::{Mempool, PoolStats};
use mtpu_accountsdb::{AccountsDb, FlushService};
use mtpu_evm::commit::{MemStore, StateCommitter};
use mtpu_evm::overlay::StateRead;
use mtpu_evm::state::State;
use mtpu_evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_evm::{commit_full, AsyncCommitter, BlockDelta, CommitHandle};
use mtpu_parexec::{ChainStats, ParExecutor};
use mtpu_primitives::B256;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A stream of transactions entering the node. `None` ends the stream
/// (the driver drains the pool and stops).
pub trait TxSource: Send {
    /// The next transaction, or `None` when the source is exhausted.
    fn next_tx(&mut self) -> Option<Transaction>;
}

impl<F: FnMut() -> Option<Transaction> + Send> TxSource for F {
    fn next_tx(&mut self) -> Option<Transaction> {
        self()
    }
}

/// One committed block, as published to a [`BlockSink`] at absorb time —
/// everything the serving half of the node needs to assemble an immutable
/// snapshot at this height.
#[derive(Debug, Clone)]
pub struct CommittedBlock {
    /// Block height (1-based; genesis is height 0).
    pub height: u64,
    /// The executed block (header + ordered transactions).
    pub block: Arc<Block>,
    /// Receipts in block order, bit-identical to sequential execution.
    pub receipts: Arc<Vec<Receipt>>,
    /// Always `None` from the driver, and sinks must not read it: the
    /// [`delta`](Self::delta) is the authoritative record of the block.
    /// The field only keeps existing `CommittedBlock` literals compiling
    /// and is slated for removal.
    pub state: Option<Arc<State>>,
    /// The block's frozen write set over the pre-block state.
    pub delta: Arc<BlockDelta>,
}

/// Commit-path publication hook: a [`NodeDriver`] with a sink attached
/// calls [`BlockSink::on_block`] the moment each block's state is
/// absorbed (before its merkle root is known — roots resolve one block
/// behind on the pipelined committer) and [`BlockSink::on_root`] when the
/// root arrives. Both are called from the driver's execution thread, so
/// implementations must be fast and non-blocking.
pub trait BlockSink: Send + Sync {
    /// A block was executed and its state absorbed.
    fn on_block(&self, block: CommittedBlock);
    /// The pipelined commitment resolved `height`'s merkle root.
    fn on_root(&self, height: u64, root: B256);
}

/// Knobs of one driver session.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Blocks to produce before stopping (the session may end earlier if
    /// the source runs dry and the pool empties).
    pub blocks: usize,
    /// `parexec` worker threads.
    pub threads: usize,
    /// Worker threads the state committer fans subtrie hashing across.
    pub commit_threads: usize,
    /// Transactions admitted per ingestion slice.
    pub ingest_batch: usize,
    /// Transactions to admit before the first block is packed (keeps the
    /// pool warm from block one).
    pub prefill: usize,
    /// `true` runs ingestion on its own thread, overlapped with
    /// execution and commitment; `false` ingests inline between blocks —
    /// slower, but fully deterministic for a deterministic source.
    pub background_ingest: bool,
    /// How many blocks the background flush trails the head.
    /// Larger values batch more writes per storage file.
    pub flush_lag: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            blocks: 16,
            threads: 4,
            commit_threads: 4,
            ingest_batch: 256,
            prefill: 512,
            background_ingest: true,
            flush_lag: 2,
        }
    }
}

/// What one block of the session did.
#[derive(Debug, Clone)]
pub struct BlockSummary {
    /// Block height (1-based).
    pub height: u64,
    /// Transactions packed.
    pub txs: usize,
    /// Transactions in the conflict-free front.
    pub independent: usize,
    /// Phase-1 candidates skipped for conflicting with the packed set.
    pub conflict_skips: usize,
    /// Realized dependent-transaction ratio of the packed DAG.
    pub dependent_ratio: f64,
    /// Merkle root after the block (resolved from the pipelined commit).
    pub merkle_root: B256,
}

/// Outcome of a driver session. Store statistics are the caller's to
/// read ([`AccountsDb::stats`]).
#[derive(Debug)]
pub struct DriverReport {
    /// Per-block summaries, in height order.
    pub blocks: Vec<BlockSummary>,
    /// Aggregated execution statistics.
    pub chain: ChainStats,
    /// Pool lifetime counters at session end.
    pub pool: PoolStats,
    /// Merkle root of the genesis state.
    pub genesis_root: B256,
    /// Merkle root after the last block.
    pub final_root: B256,
    /// Wall-clock time to build the genesis trie, before the first block;
    /// not part of [`wall`](Self::wall).
    pub genesis_wall: Duration,
    /// Wall-clock time of the block session (ingestion through last
    /// commit resolution), genesis commit excluded.
    pub wall: Duration,
    /// `true` when the source ran dry before `blocks` were produced.
    pub source_exhausted: bool,
}

impl DriverReport {
    /// Committed transactions per wall-clock second, over the whole
    /// overlapped session.
    pub fn tx_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.chain.txs as f64 / secs
    }

    /// Mean conflict-free-front fraction across blocks.
    pub fn independent_ratio(&self) -> f64 {
        let txs: usize = self.blocks.iter().map(|b| b.txs).sum();
        if txs == 0 {
            return 0.0;
        }
        let ind: usize = self.blocks.iter().map(|b| b.independent).sum();
        ind as f64 / txs as f64
    }
}

/// The front half of the node: pool + packer + executor + committer.
pub struct NodeDriver {
    pool: Mempool,
    packer: BlockPacker,
    executor: ParExecutor,
    cfg: DriverConfig,
    sink: Option<Arc<dyn BlockSink>>,
}

impl std::fmt::Debug for NodeDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeDriver")
            .field("pool", &self.pool)
            .field("packer", &self.packer)
            .field("cfg", &self.cfg)
            .field("sink", &self.sink.as_ref().map(|_| "attached"))
            .finish_non_exhaustive()
    }
}

impl NodeDriver {
    /// A driver over the given pool and packer.
    pub fn new(pool: Mempool, packer: BlockPacker, cfg: DriverConfig) -> Self {
        let executor = ParExecutor::new(cfg.threads);
        NodeDriver {
            pool,
            packer,
            executor,
            cfg,
            sink: None,
        }
    }

    /// Attaches a commit-path publication sink (e.g. an MVCC read layer);
    /// every committed block of subsequent sessions is published to it.
    pub fn with_sink(mut self, sink: Arc<dyn BlockSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Shared access to the pool (e.g. to pre-seed it).
    pub fn pool(&self) -> &Mempool {
        &self.pool
    }

    /// Runs a session against the flat accounts store: execution and
    /// admission read `db` (one in-memory index probe per read), each
    /// block's delta is absorbed into it in place, and its flush queue
    /// drains through `flush` in the background,
    /// [`DriverConfig::flush_lag`] blocks behind the head. The MPT is
    /// maintained commitment-only behind the pipelined [`AsyncCommitter`].
    ///
    /// Per block: pack → execute → submit commit → join block *h−1*'s
    /// root → absorb → request flush → observe → publish.
    ///
    /// `genesis` seeds the commitment trie; `db` must already hold the
    /// same state (freshly bootstrapped via
    /// [`AccountsDb::bootstrap_from_state`] or restored from a snapshot
    /// of it). Per-block merkle roots are bit-identical to a sequential
    /// replay of the packed blocks over `genesis`.
    pub fn run_flat<S: TxSource>(
        &self,
        genesis: &State,
        db: &Arc<AccountsDb>,
        flush: &FlushService,
        source: S,
        header_of: impl Fn(u64) -> BlockHeader,
    ) -> DriverReport {
        let db: &AccountsDb = db;

        let genesis_started = Instant::now();
        let mut committer =
            StateCommitter::new(MemStore::new()).with_threads(self.cfg.commit_threads);
        let genesis_root = commit_full(&mut committer, genesis);
        let committer = AsyncCommitter::new(committer);
        let started = Instant::now();
        let genesis_wall = started - genesis_started;

        let stop = AtomicBool::new(false);
        let exhausted = AtomicBool::new(false);
        let offered = AtomicUsize::new(0);
        let batch = self.cfg.ingest_batch.max(1);
        let mut blocks: Vec<BlockSummary> = Vec::with_capacity(self.cfg.blocks);
        let mut chain = ChainStats::default();

        std::thread::scope(|scope| {
            let mut source = source;
            let mut inline_source: Option<&mut S> = None;
            if self.cfg.background_ingest {
                let high_water = self.pool_high_water();
                let (pool, stop, exhausted, offered) = (&self.pool, &stop, &exhausted, &offered);
                scope.spawn(move || {
                    if mtpu_telemetry::enabled() {
                        mtpu_telemetry::name_thread("ingest");
                    }
                    while !stop.load(Ordering::Relaxed) && !exhausted.load(Ordering::Relaxed) {
                        if pool.len() >= high_water {
                            // Backpressure: the packer is behind; admitting
                            // more now would just evict what we admitted.
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        ingest_slice(pool, db, &mut source, batch, exhausted);
                        offered.fetch_add(batch, Ordering::Relaxed);
                    }
                });
                // Prefill so block 1 packs from a warm pool. Ingestion
                // pauses at the high-water mark and a source may be mostly
                // rejects, so wait only for what can arrive: the pool at
                // `min(prefill, high_water)`, or `prefill` transactions
                // offered — what inline mode's prefill does.
                let target = self.cfg.prefill.min(high_water);
                let deadline = Instant::now() + Duration::from_secs(5);
                while self.pool.len() < target
                    && offered.load(Ordering::Relaxed) < self.cfg.prefill
                    && !exhausted.load(Ordering::Relaxed)
                    && Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            } else {
                inline_source = Some(&mut source);
            }
            // Inline mode prefills here, then refills between blocks and
            // when a pack comes up empty; background mode refills
            // concurrently the whole time.
            let mut refill = |n: usize| {
                if let Some(src) = inline_source.as_deref_mut() {
                    ingest_slice(&self.pool, db, src, n, &exhausted);
                }
            };
            refill(self.cfg.prefill);

            let mut pending: Option<CommitHandle> = None;
            while blocks.len() < self.cfg.blocks {
                let height = blocks.len() as u64 + 1;
                let packed = self.packer.pack(&self.pool, header_of(height));
                if packed.block.transactions.is_empty() {
                    refill(batch);
                    if exhausted.load(Ordering::Relaxed) && !self.pool.has_ready() {
                        break; // drained: parked leftovers can never run
                    }
                    if self.cfg.background_ingest || exhausted.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                    continue;
                }

                // The store stays at the pre-block state until absorb, so
                // execution's base reads and the trie updates both see
                // exactly block h-1.
                let result = self.executor.execute_block_delta_with_dag_hints(
                    db,
                    &packed.block,
                    &packed.graph,
                    &[],
                );
                // Pipeline the commitment; resolve the *previous* block's
                // root now that its hashing had a whole block to overlap.
                let handle = committer.submit(db, &result.delta);
                self.resolve_pending(&mut blocks, pending.replace(handle));

                db.absorb(&result.delta, height);
                flush.request_flush(height.saturating_sub(self.cfg.flush_lag));
                self.pool.observe_committed(db);

                chain.absorb(&result.stats);
                blocks.push(BlockSummary {
                    height,
                    txs: packed.block.transactions.len(),
                    independent: packed.independent,
                    conflict_skips: packed.conflict_skips,
                    dependent_ratio: packed.graph.dependent_ratio(),
                    merkle_root: B256::ZERO, // resolved one block behind
                });

                // Publish the committed block to the read layer the moment
                // its state is live; the root follows via `on_root` once
                // the pipelined commit resolves.
                if let Some(sink) = &self.sink {
                    sink.on_block(CommittedBlock {
                        height,
                        block: Arc::new(packed.block),
                        receipts: Arc::new(result.receipts),
                        state: None,
                        delta: Arc::new(result.delta),
                    });
                }
                refill(batch);
            }
            self.resolve_pending(&mut blocks, pending.take());
            stop.store(true, Ordering::Relaxed);
        });

        DriverReport {
            final_root: blocks.last().map_or(genesis_root, |b| b.merkle_root),
            blocks,
            chain,
            pool: self.pool.stats(),
            genesis_root,
            genesis_wall,
            wall: started.elapsed(),
            source_exhausted: exhausted.load(Ordering::Relaxed),
        }
    }

    /// Joins the latest block's pipelined commit (if one is in flight),
    /// records its root and tells the sink (if any) the root is final.
    fn resolve_pending(&self, blocks: &mut [BlockSummary], pending: Option<CommitHandle>) {
        if let (Some(handle), Some(last)) = (pending, blocks.last_mut()) {
            last.merkle_root = handle.wait();
            if let Some(sink) = &self.sink {
                sink.on_root(last.height, last.merkle_root);
            }
        }
    }

    /// Ingestion backpressure threshold: leave one batch of headroom
    /// under the pool's count budget, so a full pool pauses ingestion
    /// instead of grinding through pointless fee evictions.
    fn pool_high_water(&self) -> usize {
        self.pool
            .config()
            .max_txs
            .saturating_sub(self.cfg.ingest_batch)
            .max(1)
    }
}

/// Admits up to `batch` transactions against `state`, the committed
/// store, raising `exhausted` when the source runs dry.
fn ingest_slice<S: TxSource>(
    pool: &Mempool,
    state: &impl StateRead,
    source: &mut S,
    batch: usize,
    exhausted: &AtomicBool,
) {
    let _span = mtpu_telemetry::span("node.ingest", "mempool");
    for _ in 0..batch {
        let Some(tx) = source.next_tx() else {
            return exhausted.store(true, Ordering::Relaxed);
        };
        let _ = pool.admit(tx, state);
    }
}
