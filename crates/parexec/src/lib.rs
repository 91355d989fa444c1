//! Wall-clock parallel block execution engine.
//!
//! This crate turns the paper's spatial-temporal DAG schedule (§3.4) into
//! *real* multi-threaded execution on host cores. The calling thread is
//! the **commit lane**: it walks the block in canonical order and executes
//! each transaction *in place* on a [`StateOverlay`] over the immutable
//! pre-block snapshot plus the committed prefix — unless a **speculator**
//! (one of `threads − 1` spawned threads running transactions whose DAG
//! parents have committed, ahead of the lane) already holds it, in which
//! case the lane validates the speculator's recorded read set once and
//! re-executes in place on conflict.
//!
//! The view an in-place execution reads is exactly the sequential prefix
//! state, and a speculated outcome commits only if it read what that
//! state holds, so the final state and receipts are bit-identical to
//! [`mtpu_evm::execute_block`] — the serializability oracle the
//! integration tests enforce. With one thread there are no speculators
//! and the engine is the sequential loop.
//!
//! ```
//! use mtpu_evm::{Block, BlockHeader, State, StateOps, Transaction};
//! use mtpu_parexec::ParExecutor;
//! use mtpu_primitives::{Address, U256};
//!
//! let mut base = State::new();
//! base.credit(Address::from_low_u64(1), U256::from(1_000_000_000u64));
//! base.finalize_tx();
//! let block = Block {
//!     header: BlockHeader::default(),
//!     transactions: vec![Transaction::transfer(
//!         Address::from_low_u64(1),
//!         Address::from_low_u64(2),
//!         U256::from(7u64),
//!         0,
//!     )],
//! };
//! let result = ParExecutor::new(4).execute_block(&base, &block);
//! assert!(result.receipts[0].success);
//! assert_eq!(result.state.balance(Address::from_low_u64(2)), U256::from(7u64));
//! ```

pub mod obs;
mod slots;

pub use slots::{SlotTable, Wake};

use mtpu::sched::DepGraph;
use mtpu_evm::executor::execute_transaction;
use mtpu_evm::overlay::{
    BlockDelta, OverlayedView, ReadLog, ReadSet, StateOverlay, StateRead, TxDelta,
};
use mtpu_evm::state::State;
use mtpu_evm::trace::NoopTracer;
use mtpu_evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_primitives::map::FastMap;
use mtpu_primitives::{Address, B256, U256};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How many times a speculator re-executes a transaction after a failed
/// pre-validation before parking it for the commit lane's in-place
/// re-execution.
const RETRY_CAP: usize = 3;

/// Per-transaction read hints: the state locations a transaction's
/// declared read set names. [`ParExecutor::execute_block_delta_with_dag_hints`]
/// forwards them to the base through [`StateRead::hint_prefetch_storage`]
/// and [`StateRead::hint_prefetch_account`] before the block executes.
/// No backend in this workspace acts on them: the flat accounts-DB reads
/// its in-memory index on demand, and every other backend keeps
/// the no-op defaults. The type stays only because `spine/` names it; the
/// node driver passes no hints. Hints are advisory either way: a wrong or
/// stale hint never changes a result.
#[derive(Debug, Clone, Default)]
pub struct TxHints {
    /// Storage slots the transaction is expected to read.
    pub storage: Vec<(Address, U256)>,
    /// Accounts whose metadata (balance, nonce, code) it will touch.
    pub accounts: Vec<Address>,
}

/// Forwards one transaction's hints to the backend, with storage keys
/// grouped per address so the backend sees one batch per account.
fn fire_hints<B: StateRead>(base: &B, hints: &TxHints) {
    for &addr in &hints.accounts {
        base.hint_prefetch_account(addr);
    }
    let mut by_addr: FastMap<Address, Vec<U256>> = FastMap::default();
    for &(addr, key) in &hints.storage {
        by_addr.entry(addr).or_default().push(key);
    }
    for (addr, keys) in by_addr {
        base.hint_prefetch_storage(addr, &keys);
    }
}

/// Per-worker execution counters. Worker 0 is the commit lane, the rest
/// are speculators.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Executions (including re-executions) this worker ran.
    pub executed: u64,
    /// Transactions this worker committed (all of them, for the lane).
    pub committed: u64,
    /// Read-set validation failures this worker observed (a speculator's
    /// pre-validation, the lane's validation of a parked outcome).
    pub aborted: u64,
    /// Time spent executing, validating and committing.
    pub busy: Duration,
    /// Time spent waiting: a speculator for ready work, the lane for a
    /// head a speculator holds.
    pub idle: Duration,
}

/// What happened while executing one block in parallel.
#[derive(Debug, Clone)]
pub struct BlockStats {
    /// Worker threads used.
    pub threads: usize,
    /// Transactions in the block.
    pub txs: usize,
    /// Total executions: `txs + conflicts`, since every failed validation
    /// is repaired by exactly one re-execution.
    pub executions: u64,
    /// Read-set validation failures observed (speculators'
    /// pre-validations plus the lane's validations) — always
    /// `spec_retries + fallbacks`.
    pub conflicts: u64,
    /// Bounded speculative re-executions: a speculator re-ran the
    /// transaction because its pre-validation found stale reads, up to
    /// the retry cap.
    pub spec_retries: u64,
    /// In-place re-executions: the lane re-ran a transaction against the
    /// frozen committed prefix because its parked outcome was stale.
    pub fallbacks: u64,
    /// Commits of a delta the lane executed itself — a transaction nobody
    /// held, or a fallback. `in_place + speculated == txs`.
    pub in_place: u64,
    /// Commits of a speculator's delta that passed the lane's validation.
    pub speculated: u64,
    /// Wall-clock time for the whole block.
    pub wall: Duration,
    /// Per-worker breakdown, indexed by worker id.
    pub workers: Vec<WorkerStats>,
}

impl BlockStats {
    /// Committed transactions per wall-clock second.
    pub fn tx_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.txs as f64 / secs
    }

    /// Fraction of `threads * wall` the workers spent busy (1.0 = every
    /// core working for the whole block).
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.threads as f64;
        if denom == 0.0 {
            return 0.0;
        }
        let busy: f64 = self.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
        (busy / denom).min(1.0)
    }
}

/// Aggregate statistics over a sustained multi-block run — what the node
/// driver accumulates while blocks stream through the execute/commit
/// pipeline (`chain_stats_accumulate_across_blocks` below; the spine's node
/// workloads report its `reexec_ratio()`, `conflicts` and `fallbacks`).
#[derive(Debug, Clone, Default)]
pub struct ChainStats {
    /// Blocks absorbed.
    pub blocks: usize,
    /// Transactions committed across all blocks.
    pub txs: usize,
    /// Total executions.
    pub executions: u64,
    /// Read-set validation failures, each repaired by one re-execution.
    pub conflicts: u64,
    /// The lane's in-place re-executions of stale outcomes.
    pub fallbacks: u64,
}

impl ChainStats {
    /// Folds one block's stats into the running totals.
    pub fn absorb(&mut self, s: &BlockStats) {
        self.blocks += 1;
        self.txs += s.txs;
        self.executions += s.executions;
        self.conflicts += s.conflicts;
        self.fallbacks += s.fallbacks;
    }

    /// Fraction of executions that were conflict repairs.
    pub fn reexec_ratio(&self) -> f64 {
        if self.executions == 0 {
            return 0.0;
        }
        self.conflicts as f64 / self.executions as f64
    }
}

/// The outcome of one parallel block execution when the caller only
/// needs the *delta* — receipts plus the merged [`BlockDelta`] — and not
/// a materialized post-block [`State`]. This is the result shape for
/// backends (like the flat accounts-DB) where cloning a full in-memory
/// state map per block would defeat the point.
#[derive(Debug)]
pub struct DeltaResult {
    /// Receipts in canonical block order — identical to the sequential
    /// executor's.
    pub receipts: Vec<Receipt>,
    /// The merged block delta, to be absorbed by the caller's backend.
    pub delta: BlockDelta,
    /// Execution statistics.
    pub stats: BlockStats,
}

/// The outcome of one parallel block execution.
#[derive(Debug)]
pub struct BlockResult {
    /// Receipts in canonical block order — identical to the sequential
    /// executor's, including failed pseudo-receipts for invalid
    /// transactions.
    pub receipts: Vec<Receipt>,
    /// The post-block state: `base.clone()` plus every committed delta.
    pub state: State,
    /// The merged block delta (useful to apply to a different copy of the
    /// base without cloning the whole state).
    pub delta: BlockDelta,
    /// Execution statistics.
    pub stats: BlockStats,
}

impl BlockResult {
    /// The canonical Merkle Patricia Trie root of the post-block state,
    /// computed from scratch.
    pub fn merkle_root(&self) -> B256 {
        self.state.merkle_root()
    }

    /// The post-block trie root computed *incrementally*: `base` is fully
    /// committed once, then this block's [`BlockDelta`] is replayed so
    /// only touched accounts' paths re-hash. Must equal
    /// [`BlockResult::merkle_root`] — the authenticated form of the
    /// serializability oracle.
    pub fn delta_merkle_root(&self, base: &State) -> B256 {
        mtpu_evm::delta_merkle_root(base, &self.delta)
    }
}

/// A multi-threaded block executor: one commit lane, `threads − 1`
/// speculators.
///
/// Construction is cheap; speculators are spawned per block via
/// [`std::thread::scope`], so the executor borrows the base state and
/// block for the duration of the call only. With one thread nothing is
/// spawned and the engine is a sequential loop.
#[derive(Debug, Clone, Copy)]
pub struct ParExecutor {
    threads: usize,
}

impl ParExecutor {
    /// An executor with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ParExecutor {
            threads: threads.max(1),
        }
    }

    /// Executes `block` against `base` using the sender-nonce-order DAG —
    /// the weakest dependency information a node can always derive without
    /// consensus-stage traces — and materializes the post-block [`State`].
    /// Conflicts the DAG misses are caught by read-set validation and
    /// repaired by re-execution.
    pub fn execute_block(&self, base: &State, block: &Block) -> BlockResult {
        let dag = DepGraph::sender_order(&block.transactions);
        let r = self.execute_block_delta_with_dag_hints(base, block, &dag, &[]);
        let mut state = base.clone();
        r.delta.apply_to(&mut state);
        BlockResult {
            receipts: r.receipts,
            state,
            delta: r.delta,
            stats: r.stats,
        }
    }

    /// Executes `block` against an arbitrary [`StateRead`] backend (an
    /// in-memory [`State`], the flat accounts-DB, …) with an explicit
    /// dependency DAG — normally [`DepGraph::from_conflicts`] built from
    /// consensus-stage traces (the paper's §2.2.2) or the packer's
    /// admission-time footprints. The DAG only decides what speculators
    /// may run ahead of the commit lane: a more precise one means fewer
    /// validation failures, not different results. Returns only receipts +
    /// delta: the base is never cloned; the caller absorbs the delta into
    /// its backend.
    ///
    /// Every transaction's `hints[i]` is forwarded to the backend (see
    /// [`TxHints`]) once, in block order, before anything executes; no
    /// backend here acts on them, so callers pass an empty slice.
    ///
    /// # Panics
    ///
    /// Panics when `dag.len() != block.transactions.len()`, or when
    /// `hints` is non-empty and shorter than the block.
    pub fn execute_block_delta_with_dag_hints<B: StateRead + Sync>(
        &self,
        base: &B,
        block: &Block,
        dag: &DepGraph,
        hints: &[TxHints],
    ) -> DeltaResult {
        assert_eq!(
            dag.len(),
            block.transactions.len(),
            "DAG must cover every transaction of the block"
        );
        assert!(
            hints.is_empty() || hints.len() >= block.transactions.len(),
            "hints must be empty or cover every transaction"
        );
        let n = block.transactions.len();
        let started = Instant::now();
        for h in hints.iter().take(n) {
            fire_hints(base, h);
        }

        let shared = Shared {
            base,
            header: &block.header,
            txs: &block.transactions,
            dag,
            committed: (0..n).map(|_| OnceLock::new()).collect(),
            table: Mutex::new(SlotTable::new(dag)),
            lane: Condvar::new(),
            speculators: Condvar::new(),
        };
        // The lane runs transaction 0 itself, so a block keeps at most
        // `n − 1` speculators busy.
        let speculators = (self.threads - 1).min(n.saturating_sub(1));
        let (lane, spec_stats) = std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = (1..=speculators)
                .map(|w| scope.spawn(move || speculate(shared, w)))
                .collect();
            let lane = commit_lane(shared, started);
            let join = |h: std::thread::ScopedJoinHandle<'_, WorkerStats>| {
                h.join().expect("a speculator panicked")
            };
            (lane, handles.into_iter().map(join).collect::<Vec<_>>())
        });

        // Every failed validation is repaired by exactly one re-execution:
        // a speculator's own bounded retry, or the lane's fallback. Every
        // lane execution is committed.
        let (fallbacks, in_place) = (lane.stats.aborted, lane.stats.executed);
        let mut workers = vec![lane.stats];
        workers.extend(spec_stats);
        workers.resize(self.threads, WorkerStats::default());
        let conflicts: u64 = workers.iter().map(|w| w.aborted).sum();
        DeltaResult {
            receipts: lane.receipts,
            delta: lane.prefix,
            stats: BlockStats {
                threads: self.threads,
                txs: n,
                executions: workers.iter().map(|w| w.executed).sum(),
                conflicts,
                spec_retries: conflicts - fallbacks,
                fallbacks,
                in_place,
                speculated: n as u64 - in_place,
                wall: started.elapsed(),
                workers,
            },
        }
    }
}

/// One speculative execution's result, parked until the commit lane
/// reaches it.
struct TxOutcome {
    delta: TxDelta,
    reads: ReadSet,
    receipt: Receipt,
}

/// Everything the lane and the speculators share for one block.
struct Shared<'a, B: StateRead + Sync> {
    base: &'a B,
    header: &'a BlockHeader,
    txs: &'a [Transaction],
    dag: &'a DepGraph,
    /// The committed deltas, published by the lane one by one in block
    /// order. The lane reads its own merged [`BlockDelta`]; a speculator
    /// folds these into a private copy between executions, so nobody
    /// takes a lock to read state.
    committed: Vec<OnceLock<TxDelta>>,
    /// Every hand-off decision; touched only through [`Shared::step`].
    table: Mutex<SlotTable<Box<TxOutcome>>>,
    /// Where the lane sleeps while a speculator holds its head, and where
    /// speculators sleep while nothing is ready.
    lane: Condvar,
    speculators: Condvar,
}

impl<B: StateRead + Sync> Shared<'_, B> {
    /// The only way to touch the table: applies `transition` under the
    /// lock, sleeping on the caller's condvar `own` while it yields `None`
    /// (that time is added to `idle`), then wakes whoever the table says
    /// its transitions unblocked.
    fn step<R>(
        &self,
        own: &Condvar,
        idle: &mut Duration,
        mut transition: impl FnMut(&mut SlotTable<Box<TxOutcome>>) -> Option<R>,
    ) -> R {
        let mut table = self.table.lock().expect("slot table poisoned");
        let mut slept = None;
        let out = loop {
            if let Some(out) = transition(&mut table) {
                break out;
            }
            slept.get_or_insert_with(Instant::now);
            table = own.wait(table).expect("slot table poisoned");
        };
        let wake = table.take_wake();
        drop(table);
        *idle += slept.map_or(Duration::ZERO, |t| t.elapsed());
        if wake.lane {
            self.lane.notify_one();
        }
        if wake.speculators {
            self.speculators.notify_all();
        }
        out
    }
}

/// Runs one transaction on a fresh `overlay`. Invalid transactions yield
/// the same failed pseudo-receipt as the sequential executor; their
/// (empty) delta still merges cleanly and their read set still validates,
/// because the *decision* to reject depends on the reads.
fn run_tx<B: StateRead, R: ReadLog>(
    mut overlay: StateOverlay<'_, B, R>,
    header: &BlockHeader,
    tx: &Transaction,
) -> (TxDelta, R, Receipt) {
    let receipt = match execute_transaction(&mut overlay, header, tx, &mut NoopTracer) {
        Ok(r) => r,
        Err(_) => Receipt {
            success: false,
            gas_used: 0,
            logs: Vec::new(),
            output: Vec::new(),
            created: None,
        },
    };
    let (delta, reads) = overlay.into_parts();
    (delta, reads, receipt)
}

/// What the commit lane hands back.
struct Lane {
    receipts: Vec<Receipt>,
    /// Every transaction's delta, merged: the block's delta.
    prefix: BlockDelta,
    stats: WorkerStats,
}

/// The commit lane, on the calling thread: walks the block in canonical
/// order. A transaction nobody holds executes in place against base +
/// `prefix` — the sequential prefix state, so there is nothing to record
/// or validate. One a speculator holds is waited for, validated once
/// against that same view, and re-executed in place if stale. Either way
/// the delta is merged and published, and the transaction's DAG children
/// are released to the speculators. `started` is when this thread began
/// the block (forwarding hints is the lane's work too).
fn commit_lane<B: StateRead + Sync>(shared: &Shared<'_, B>, started: Instant) -> Lane {
    let n = shared.txs.len();
    let mut lane = Lane {
        receipts: Vec::with_capacity(n),
        prefix: BlockDelta::new(),
        stats: WorkerStats::default(),
    };
    for i in 0..n {
        let view = OverlayedView {
            base: shared.base,
            delta: &lane.prefix,
        };
        let in_place = |span: &'static str| {
            let _span = mtpu_telemetry::span(span, "parexec").arg("tx", i);
            let (delta, _, receipt) = run_tx(
                StateOverlay::unrecorded(&view),
                shared.header,
                &shared.txs[i],
            );
            (delta, receipt)
        };
        let parked = shared.step(&shared.lane, &mut lane.stats.idle, SlotTable::lane_head);
        let (delta, receipt) = match parked {
            None => {
                lane.stats.executed += 1;
                in_place("in_place")
            }
            Some(parked) => match parked.reads.validate_detailed(&view) {
                Ok(()) => (parked.delta, parked.receipt),
                Err(kind) => {
                    lane.stats.aborted += 1;
                    lane.stats.executed += 1;
                    if mtpu_telemetry::enabled() {
                        let m = obs::metrics();
                        m.aborts.inc();
                        m.fallbacks.inc();
                        m.validation_fail(kind).inc();
                    }
                    in_place("fallback")
                }
            },
        };

        {
            let _span = mtpu_telemetry::span("commit", "parexec").arg("tx", i);
            lane.prefix.merge(&delta, shared.base);
            shared.committed[i]
                .set(delta)
                .expect("only the lane publishes, once per transaction");
        }
        lane.receipts.push(receipt);
        shared.step(&shared.lane, &mut lane.stats.idle, |t| {
            t.commit(shared.dag);
            Some(())
        });
    }

    lane.stats.committed = n as u64;
    lane.stats.busy = started.elapsed().saturating_sub(lane.stats.idle);
    if mtpu_telemetry::enabled() {
        let m = obs::metrics();
        m.commits.add(n as u64);
        m.commit_speculated.add(n as u64 - lane.stats.executed);
        m.commit_in_place.add(lane.stats.executed);
        m.busy_ns.add(lane.stats.busy.as_nanos() as u64);
        m.idle_ns.add(lane.stats.idle.as_nanos() as u64);
    }
    lane
}

/// A speculator's private copy of the committed prefix: the deltas the
/// lane has published so far, merged.
struct Replica<'a, B: StateRead + Sync> {
    shared: &'a Shared<'a, B>,
    prefix: BlockDelta,
    /// Transactions folded in: `prefix` is the state after `synced − 1`.
    synced: usize,
}

impl<B: StateRead + Sync> Replica<'_, B> {
    /// Folds in what the lane committed since the last call; `true` when
    /// there was anything.
    fn catch_up(&mut self) -> bool {
        let from = self.synced;
        while let Some(delta) = self
            .shared
            .committed
            .get(self.synced)
            .and_then(OnceLock::get)
        {
            self.prefix.merge(delta, self.shared.base);
            self.synced += 1;
        }
        self.synced > from
    }

    fn view(&self) -> OverlayedView<'_, B> {
        OverlayedView {
            base: self.shared.base,
            delta: &self.prefix,
        }
    }
}

/// A speculator: runs DAG-ready transactions ahead of the lane's cursor on
/// recorded overlays over its [`Replica`] of the committed prefix — a
/// consistent, possibly old cut — and parks each outcome for the lane to
/// validate.
fn speculate<B: StateRead + Sync>(shared: &Shared<'_, B>, worker: usize) -> WorkerStats {
    if mtpu_telemetry::enabled() {
        mtpu_telemetry::name_thread(&format!("worker{worker}"));
    }
    let mut stats = WorkerStats::default();
    let mut replica = Replica {
        shared,
        prefix: BlockDelta::new(),
        synced: 0,
    };
    let claim = |t: &mut SlotTable<Box<TxOutcome>>| {
        let claimed = t.claim();
        if mtpu_telemetry::enabled() && matches!(claimed, Some(Some(_))) {
            obs::metrics().queue_depth.record(t.ready_len() as u64);
        }
        claimed
    };
    while let Some(i) = shared.step(&shared.speculators, &mut stats.idle, claim) {
        let busy_started = Instant::now();
        let span = mtpu_telemetry::span("exec", "parexec").arg("tx", i);
        let run = |replica: &Replica<'_, B>| {
            let (delta, reads, receipt) = run_tx(
                StateOverlay::new(&replica.view()),
                shared.header,
                &shared.txs[i],
            );
            Box::new(TxOutcome {
                delta,
                reads,
                receipt,
            })
        };
        replica.catch_up();
        let mut outcome = run(&replica);
        stats.executed += 1;

        // Bounded speculative repair: if the lane committed more while
        // this ran, pre-validate against the longer prefix and re-execute
        // while it finds stale reads, up to the cap. A transaction that
        // keeps losing this race parks its last outcome anyway — the lane
        // re-executes it in place, so the cap bounds wasted work without
        // risking livelock or divergence.
        for _ in 0..RETRY_CAP {
            if !replica.catch_up() {
                break;
            }
            let Err(kind) = outcome.reads.validate_detailed(&replica.view()) else {
                break;
            };
            stats.aborted += 1;
            stats.executed += 1;
            if mtpu_telemetry::enabled() {
                let m = obs::metrics();
                m.aborts.inc();
                m.spec_retries.inc();
                m.validation_fail(kind).inc();
            }
            outcome = run(&replica);
        }
        drop(span);

        // `park` never waits, so this runs once and the outcome moves in.
        let mut outcome = Some(outcome);
        shared.step(&shared.speculators, &mut stats.idle, |t| {
            outcome.take().map(|o| t.park(i, o))
        });
        stats.busy += busy_started.elapsed();
    }
    if mtpu_telemetry::enabled() {
        let m = obs::metrics();
        m.busy_ns.add(stats.busy.as_nanos() as u64);
        m.idle_ns.add(stats.idle.as_nanos() as u64);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtpu_evm::execute_block as sequential;
    use mtpu_workloads::{BlockConfig, Generator};

    fn funded(addrs: &[Address]) -> State {
        let mut st = State::new();
        for &a in addrs {
            st.credit(a, U256::from(10_000_000_000u64));
        }
        st.finalize_tx();
        st
    }

    fn assert_matches_sequential(base: &State, block: &Block, threads: usize) -> BlockStats {
        let mut seq_state = base.clone();
        let seq_receipts = sequential(&mut seq_state, block);
        let result = ParExecutor::new(threads).execute_block(base, block);
        assert_eq!(result.receipts, seq_receipts);
        assert_eq!(result.state.state_root(), seq_state.state_root());
        result.stats
    }

    #[test]
    fn empty_block() {
        let base = State::new();
        let block = Block {
            header: BlockHeader::default(),
            transactions: Vec::new(),
        };
        let result = ParExecutor::new(4).execute_block(&base, &block);
        assert!(result.receipts.is_empty());
        assert_eq!(result.state.state_root(), base.state_root());
        assert_eq!(result.stats.executions, 0);
    }

    #[test]
    fn independent_transfers_match_sequential() {
        let users: Vec<Address> = (1..=8).map(Address::from_low_u64).collect();
        let base = funded(&users);
        let block = Block {
            header: BlockHeader::default(),
            transactions: (0..4)
                .map(|i| Transaction::transfer(users[i], users[i + 4], U256::from(i as u64 + 1), 0))
                .collect(),
        };
        for threads in [1, 2, 4] {
            let stats = assert_matches_sequential(&base, &block, threads);
            assert_eq!(stats.txs, 4);
            assert!(stats.executions >= 4);
        }
    }

    #[test]
    fn dependent_chain_matches_sequential() {
        // A -> B -> C -> D hot-potato: every tx spends money it received
        // in the previous tx, the worst case for speculation.
        let users: Vec<Address> = (1..=5).map(Address::from_low_u64).collect();
        let base = funded(&[users[0]]);
        let amount = U256::from(1_000_000u64);
        let block = Block {
            header: BlockHeader::default(),
            transactions: (0..4)
                .map(|i| Transaction::transfer(users[i], users[i + 1], amount, 0))
                .collect(),
        };
        for threads in [1, 2, 4] {
            assert_matches_sequential(&base, &block, threads);
        }
    }

    #[test]
    fn invalid_transactions_get_pseudo_receipts() {
        let a = Address::from_low_u64(1);
        let b = Address::from_low_u64(2);
        let base = funded(&[a]);
        let block = Block {
            header: BlockHeader::default(),
            transactions: vec![
                Transaction::transfer(a, b, U256::ONE, 0),
                // Wrong nonce: rejected by the sequential executor too.
                Transaction::transfer(a, b, U256::ONE, 7),
                // Unfunded sender.
                Transaction::transfer(b, a, U256::from(1u64 << 40), 0),
            ],
        };
        let stats = assert_matches_sequential(&base, &block, 4);
        assert_eq!(stats.txs, 3);
    }

    #[test]
    fn generated_blocks_match_sequential_with_both_dags() {
        for (seed, ratio) in [(11u64, 0.0), (12, 0.5), (13, 1.0)] {
            let mut generator = Generator::new(seed);
            let prepared = generator.prepared_block(&BlockConfig {
                tx_count: 32,
                dependent_ratio: ratio,
                erc20_ratio: None,
                sct_ratio: 0.9,
                chain_bias: 0.5,
                focus: None,
            });
            let base = prepared.state_before.clone();
            let mut seq_state = base.clone();
            let seq_receipts = sequential(&mut seq_state, &prepared.block);

            for threads in [1, 4] {
                let exec = ParExecutor::new(threads);
                let with_sender = exec.execute_block(&base, &prepared.block);
                assert_eq!(with_sender.receipts, seq_receipts);
                assert_eq!(with_sender.state.state_root(), seq_state.state_root());

                let with_dag = exec.execute_block_delta_with_dag_hints(
                    &base,
                    &prepared.block,
                    &prepared.graph,
                    &[],
                );
                assert_eq!(with_dag.receipts, seq_receipts);
                let mut state = base.clone();
                with_dag.delta.apply_to(&mut state);
                assert_eq!(state.state_root(), seq_state.state_root());
            }
        }
    }

    #[test]
    fn hinted_execution_matches_unhinted() {
        let mut generator = Generator::new(21);
        let prepared = generator.prepared_block(&BlockConfig {
            tx_count: 24,
            dependent_ratio: 0.4,
            erc20_ratio: None,
            sct_ratio: 0.9,
            chain_bias: 0.5,
            focus: None,
        });
        let base = prepared.state_before.clone();
        let mut seq_state = base.clone();
        let seq_receipts = sequential(&mut seq_state, &prepared.block);

        // Hints derived from senders/recipients plus some deliberately
        // bogus slots: advisory data must never change the outcome.
        let hints: Vec<TxHints> = prepared
            .block
            .transactions
            .iter()
            .map(|tx| TxHints {
                storage: vec![
                    (tx.to.unwrap_or(tx.from), U256::ZERO),
                    (tx.from, U256::from(123456u64)),
                ],
                accounts: vec![tx.from, tx.to.unwrap_or(tx.from)],
            })
            .collect();

        for threads in [1, 4] {
            let exec = ParExecutor::new(threads);
            let r = exec.execute_block_delta_with_dag_hints(
                &base,
                &prepared.block,
                &prepared.graph,
                &hints,
            );
            assert_eq!(r.receipts, seq_receipts);
            let mut st = base.clone();
            r.delta.apply_to(&mut st);
            assert_eq!(st.state_root(), seq_state.state_root());
        }
    }

    #[test]
    fn merkle_roots_match_sequential_and_incremental_paths() {
        let mut generator = Generator::new(77);
        let prepared = generator.prepared_block(&BlockConfig {
            tx_count: 24,
            dependent_ratio: 0.5,
            erc20_ratio: None,
            sct_ratio: 0.9,
            chain_bias: 0.5,
            focus: None,
        });
        let base = prepared.state_before.clone();
        let mut seq_state = base.clone();
        sequential(&mut seq_state, &prepared.block);
        let want = seq_state.merkle_root();

        for threads in [1, 4] {
            let result = ParExecutor::new(threads).execute_block(&base, &prepared.block);
            assert_eq!(result.merkle_root(), want);
            assert_eq!(result.delta_merkle_root(&base), want);
        }
    }

    #[test]
    fn chain_stats_accumulate_across_blocks() {
        let users: Vec<Address> = (1..=8).map(Address::from_low_u64).collect();
        let base = funded(&users);
        let exec = ParExecutor::new(2);
        let mut chain = ChainStats::default();
        let mut state = base.clone();
        for nonce in 0..3u64 {
            let block = Block {
                header: BlockHeader::default(),
                transactions: (0..4)
                    .map(|i| Transaction::transfer(users[i], users[i + 4], U256::from(7u64), nonce))
                    .collect(),
            };
            let result = exec.execute_block(&state, &block);
            chain.absorb(&result.stats);
            state = result.state;
        }
        assert_eq!(chain.blocks, 3);
        assert_eq!(chain.txs, 12);
        assert_eq!(chain.executions, 12 + chain.conflicts);
        assert!(chain.reexec_ratio() < 1.0);
    }

    #[test]
    fn stats_account_for_every_commit() {
        let users: Vec<Address> = (1..=6).map(Address::from_low_u64).collect();
        let base = funded(&users);
        let block = Block {
            header: BlockHeader::default(),
            transactions: (0..3)
                .map(|i| Transaction::transfer(users[i], users[i + 3], U256::from(5u64), 0))
                .collect(),
        };
        let result = ParExecutor::new(2).execute_block(&base, &block);
        let stats = &result.stats;
        let committed: u64 = stats.workers.iter().map(|w| w.committed).sum();
        let executed: u64 = stats.workers.iter().map(|w| w.executed).sum();
        assert_eq!(committed, 3);
        assert_eq!(executed, stats.executions);
        assert_eq!(stats.executions, stats.txs as u64 + stats.conflicts);
        assert_eq!(stats.conflicts, stats.spec_retries + stats.fallbacks);
        assert!(stats.tx_per_sec() > 0.0);
        assert!(stats.utilization() <= 1.0);
    }

    #[test]
    fn high_conflict_block_bounds_retries_and_matches_sequential() {
        // Many distinct senders all paying one recipient: every pair
        // conflicts on the shared balance, but the sender-order DAG sees
        // no dependencies — the worst case for speculation.
        let senders: Vec<Address> = (1..=32).map(Address::from_low_u64).collect();
        let sink = Address::from_low_u64(999);
        let base = funded(&senders);
        let block = Block {
            header: BlockHeader::default(),
            transactions: senders
                .iter()
                .map(|&s| Transaction::transfer(s, sink, U256::from(3u64), 0))
                .collect(),
        };
        let mut seq_state = base.clone();
        let seq_receipts = sequential(&mut seq_state, &block);

        let result = ParExecutor::new(8).execute_block(&base, &block);
        assert_eq!(result.receipts, seq_receipts);
        assert_eq!(result.state.state_root(), seq_state.state_root());
        let stats = &result.stats;
        assert_eq!(stats.conflicts, stats.spec_retries + stats.fallbacks);
        assert_eq!(stats.executions, stats.txs as u64 + stats.conflicts);
        // The cap bounds per-transaction speculative repair work.
        assert!(stats.spec_retries <= RETRY_CAP as u64 * stats.txs as u64);
        let aborted: u64 = stats.workers.iter().map(|w| w.aborted).sum();
        assert_eq!(aborted, stats.conflicts);
    }

    /// What a [`Probe`] saw, in arrival order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Seen {
        /// A value-returning read naming this account.
        Read(Address),
        /// An account hint.
        Hint(Address),
    }

    /// A base that counts value-returning reads per [`StateRead`] method
    /// and logs which account every read and account hint named.
    struct Probe<'a> {
        inner: &'a State,
        seen: Mutex<Vec<Seen>>,
        calls: Mutex<[u64; 7]>,
    }

    impl<'a> Probe<'a> {
        fn new(inner: &'a State) -> Self {
            Probe {
                inner,
                seen: Mutex::new(Vec::new()),
                calls: Mutex::new([0; 7]),
            }
        }

        fn read<T>(&self, method: usize, addr: Address, f: impl FnOnce(&State) -> T) -> T {
            self.calls.lock().unwrap()[method] += 1;
            self.seen.lock().unwrap().push(Seen::Read(addr));
            f(self.inner)
        }

        fn calls(&self) -> [u64; 7] {
            *self.calls.lock().unwrap()
        }
    }

    impl StateRead for Probe<'_> {
        fn read_exists(&self, a: Address) -> bool {
            self.read(0, a, |s| s.read_exists(a))
        }
        fn read_balance(&self, a: Address) -> U256 {
            self.read(1, a, |s| s.read_balance(a))
        }
        fn read_nonce(&self, a: Address) -> u64 {
            self.read(2, a, |s| s.read_nonce(a))
        }
        fn read_code(&self, a: Address) -> Vec<u8> {
            self.read(3, a, |s| s.read_code(a))
        }
        fn read_code_hash(&self, a: Address) -> B256 {
            self.read(4, a, |s| s.read_code_hash(a))
        }
        fn read_storage(&self, a: Address, k: U256) -> U256 {
            self.read(5, a, |s| s.read_storage(a, k))
        }
        fn read_storage_many(&self, a: Address, keys: &[U256], out: &mut Vec<U256>) {
            self.read(6, a, |s| s.read_storage_many(a, keys, out))
        }
        fn hint_prefetch_account(&self, a: Address) {
            self.seen.lock().unwrap().push(Seen::Hint(a));
        }
    }

    fn half_dependent_block() -> mtpu_workloads::PreparedBlock {
        Generator::new(0xA11E).prepared_block(&BlockConfig {
            tx_count: 32,
            dependent_ratio: 0.5,
            erc20_ratio: None,
            sct_ratio: 0.9,
            chain_bias: 0.5,
            focus: None,
        })
    }

    /// 32 distinct senders paying one sink: every pair conflicts.
    fn one_sink_block() -> (State, Block) {
        let senders: Vec<Address> = (1..=32).map(Address::from_low_u64).collect();
        let block = Block {
            header: BlockHeader::default(),
            transactions: senders
                .iter()
                .map(|&s| Transaction::transfer(s, Address::from_low_u64(999), U256::from(3u64), 0))
                .collect(),
        };
        (funded(&senders), block)
    }

    #[test]
    fn one_worker_reads_what_a_sequential_unrecorded_loop_reads() {
        let prepared = half_dependent_block();
        let base = &prepared.state_before;

        // The reference: canonical order, one unrecorded overlay per
        // transaction over base + merged prefix. No validation anywhere.
        let reference = Probe::new(base);
        let mut prefix = BlockDelta::new();
        let mut want_receipts = Vec::new();
        for tx in &prepared.block.transactions {
            let view = OverlayedView {
                base: &reference,
                delta: &prefix,
            };
            let (delta, _, receipt) =
                run_tx(StateOverlay::unrecorded(&view), &prepared.block.header, tx);
            prefix.merge(&delta, &reference);
            want_receipts.push(receipt);
        }

        for dag in [
            &prepared.graph,
            &DepGraph::sender_order(&prepared.block.transactions),
        ] {
            let probe = Probe::new(base);
            let r = ParExecutor::new(1).execute_block_delta_with_dag_hints(
                &probe,
                &prepared.block,
                dag,
                &[],
            );
            assert_eq!(r.receipts, want_receipts);
            assert_eq!(probe.calls(), reference.calls(), "base reads per method");
            let stats = &r.stats;
            assert_eq!(stats.executions, stats.txs as u64);
            assert_eq!((stats.conflicts, stats.fallbacks), (0, 0));
            assert_eq!((stats.in_place, stats.speculated), (32, 0));
        }
    }

    /// A DAG only steers speculation: one that claims no dependencies, one
    /// that claims a total order, and one with arbitrary extra edges must
    /// all give the sequential result.
    #[test]
    fn lying_dags_cost_work_never_correctness() {
        let prepared = half_dependent_block();
        let (sink_base, sink_block) = one_sink_block();
        for (base, block, truth) in [
            (
                &prepared.state_before,
                &prepared.block,
                prepared.graph.clone(),
            ),
            (
                &sink_base,
                &sink_block,
                DepGraph::sender_order(&sink_block.transactions),
            ),
        ] {
            let n = block.transactions.len();
            let mut seq_state = base.clone();
            let seq_receipts = sequential(&mut seq_state, block);

            let mut chain = DepGraph::new(n);
            let mut extra = truth;
            let mut rng = mtpu_primitives::SplitMix64::new(0xD46);
            for i in 1..n {
                chain.add_edge(i - 1, i);
                extra.add_edge(rng.random_index(i), i);
            }
            for (name, dag) in [
                ("edgeless", &DepGraph::new(n)),
                ("chain", &chain),
                ("extra edges", &extra),
            ] {
                for threads in [2, 4, 8] {
                    let r = ParExecutor::new(threads).execute_block_delta_with_dag_hints(
                        base,
                        block,
                        dag,
                        &[],
                    );
                    assert_eq!(r.receipts, seq_receipts, "{name} at {threads} threads");
                    let mut state = base.clone();
                    r.delta.apply_to(&mut state);
                    assert_eq!(state.state_root(), seq_state.state_root(), "{name}");
                    let stats = &r.stats;
                    assert_eq!(stats.in_place + stats.speculated, n as u64);
                    assert_eq!(stats.executions, n as u64 + stats.conflicts);
                    if name == "chain" {
                        // No child is ever ready ahead of the cursor.
                        assert_eq!((stats.speculated, stats.executions), (0, n as u64));
                        assert!(stats.workers[1..].iter().all(|w| w.executed == 0));
                    }
                }
            }
        }
    }

    #[test]
    fn hints_arrive_once_and_before_the_transactions_first_read() {
        let (base, block) = one_sink_block();
        let dag = DepGraph::sender_order(&block.transactions);
        // Each transaction hints its own sender, which it alone reads.
        let hints: Vec<TxHints> = block
            .transactions
            .iter()
            .map(|tx| TxHints {
                storage: Vec::new(),
                accounts: vec![tx.from],
            })
            .collect();
        for threads in [1, 4] {
            let probe = Probe::new(&base);
            ParExecutor::new(threads)
                .execute_block_delta_with_dag_hints(&probe, &block, &dag, &hints);
            let seen = probe.seen.lock().unwrap();
            for tx in &block.transactions {
                let hinted: Vec<usize> = (0..seen.len())
                    .filter(|&at| seen[at] == Seen::Hint(tx.from))
                    .collect();
                let first_read = seen.iter().position(|s| *s == Seen::Read(tx.from));
                assert_eq!(hinted.len(), 1, "{threads} threads: hinted once");
                assert!(hinted[0] < first_read.expect("the sender is read"));
            }
        }
    }
}
