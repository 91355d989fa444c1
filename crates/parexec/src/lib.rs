//! Wall-clock parallel block execution engine.
//!
//! This crate turns the paper's spatial-temporal DAG schedule (§3.4) into
//! *real* multi-threaded execution on host cores: a pool of worker threads
//! claims transactions whose DAG parents have committed, executes each one
//! speculatively on a [`StateOverlay`] over the immutable pre-block
//! snapshot plus the committed prefix, and commits strictly in canonical
//! block order after re-validating the recorded read set — re-executing on
//! conflict (the Block-STM recipe with a consensus-provided DAG instead of
//! blind speculation).
//!
//! Because commits happen in block order, the committed view at
//! transaction *i*'s commit point is exactly the sequential prefix state,
//! so the final state and receipts are bit-identical to
//! [`mtpu_evm::execute_block`] — the serializability oracle the
//! integration tests enforce.
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

use mtpu::sched::DepGraph;
use mtpu_evm::executor::execute_transaction;
use mtpu_evm::overlay::{BlockDelta, OverlayedView, ReadSet, StateOverlay, StateRead, TxDelta};
use mtpu_evm::state::State;
use mtpu_evm::trace::NoopTracer;
use mtpu_evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_primitives::{Address, B256, U256};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// How many times a worker re-executes a transaction speculatively after
/// a failed pre-validation before parking it for the commit gate's
/// canonical-order (blocking) re-execution.
pub const DEFAULT_RETRY_CAP: usize = 3;

/// Admission-time prefetch hints for one transaction: the state locations
/// its declared (or trace-derived) read set names. When the transaction
/// becomes ready — its DAG parents have all committed — the hints are
/// forwarded to the base backend via [`StateRead::hint_prefetch_storage`]
/// and [`StateRead::hint_prefetch_account`], so a backend with real read
/// latency (the flat accounts-DB) can overlap its file reads with the
/// queue wait and the dispatch of other transactions. Hints are purely
/// advisory: a wrong or stale hint costs a wasted read, never a wrong
/// result.
#[derive(Debug, Clone, Default)]
pub struct TxHints {
    /// Storage slots the transaction is expected to read.
    pub storage: Vec<(Address, U256)>,
    /// Accounts whose metadata (balance, nonce, code) it will touch.
    pub accounts: Vec<Address>,
}

impl TxHints {
    /// `true` when there is nothing to forward.
    pub fn is_empty(&self) -> bool {
        self.storage.is_empty() && self.accounts.is_empty()
    }
}

/// Forwards one transaction's hints to the backend, with storage keys
/// grouped per address so the backend sees one batch per account.
fn fire_hints<B: StateRead>(base: &B, hints: &TxHints) {
    for &addr in &hints.accounts {
        base.hint_prefetch_account(addr);
    }
    let mut by_addr: std::collections::HashMap<Address, Vec<U256>> =
        std::collections::HashMap::new();
    for &(addr, key) in &hints.storage {
        by_addr.entry(addr).or_default().push(key);
    }
    for (addr, keys) in by_addr {
        base.hint_prefetch_storage(addr, &keys);
    }
}

/// Per-worker execution counters.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Speculative executions (including re-executions) this worker ran.
    pub executed: u64,
    /// Transactions this worker committed while holding the commit gate.
    pub committed: u64,
    /// Read-set validation failures this worker observed (speculative
    /// pre-validation and gate validation).
    pub aborted: u64,
    /// Time spent executing and committing (excludes idle waits on the
    /// ready queue).
    pub busy: Duration,
    /// Time spent parked on the ready queue waiting for work.
    pub idle: Duration,
}

/// What happened while executing one block in parallel.
#[derive(Debug, Clone)]
pub struct BlockStats {
    /// Worker threads used.
    pub threads: usize,
    /// Transactions in the block.
    pub txs: usize,
    /// Total speculative executions (>= `txs`; the excess is re-execution
    /// work caused by conflicts).
    pub executions: u64,
    /// Executions repeated because read-set validation failed — always
    /// `spec_retries + fallbacks`.
    pub reexecutions: u64,
    /// Read-set validation failures observed (speculative pre-validation
    /// plus the commit gate).
    pub conflicts: u64,
    /// Bounded speculative re-executions: a worker re-ran the transaction
    /// because its pre-validation found stale reads, up to the retry cap.
    pub spec_retries: u64,
    /// Canonical-order blocking re-executions: the gate holder re-ran the
    /// transaction against the frozen committed prefix after the
    /// speculative retries were exhausted or raced.
    pub fallbacks: u64,
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
    /// core executing for the whole block).
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
/// driver and the `block_pipeline` bench accumulate while blocks stream
/// through the execute/commit pipeline.
#[derive(Debug, Clone, Default)]
pub struct ChainStats {
    /// Blocks absorbed.
    pub blocks: usize,
    /// Transactions committed across all blocks.
    pub txs: usize,
    /// Total speculative executions.
    pub executions: u64,
    /// Re-executions caused by conflicts.
    pub reexecutions: u64,
    /// Read-set validation failures.
    pub conflicts: u64,
    /// Bounded speculative re-executions.
    pub spec_retries: u64,
    /// Canonical-order blocking re-executions.
    pub fallbacks: u64,
    /// Summed per-block execution wall time (excludes inter-block work).
    pub exec_wall: Duration,
}

impl ChainStats {
    /// Folds one block's stats into the running totals.
    pub fn absorb(&mut self, s: &BlockStats) {
        self.blocks += 1;
        self.txs += s.txs;
        self.executions += s.executions;
        self.reexecutions += s.reexecutions;
        self.conflicts += s.conflicts;
        self.spec_retries += s.spec_retries;
        self.fallbacks += s.fallbacks;
        self.exec_wall += s.wall;
    }

    /// Committed transactions per second of summed execution wall time.
    pub fn tx_per_exec_sec(&self) -> f64 {
        let secs = self.exec_wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.txs as f64 / secs
    }

    /// Fraction of executions that were conflict repairs.
    pub fn reexec_ratio(&self) -> f64 {
        if self.executions == 0 {
            return 0.0;
        }
        self.reexecutions as f64 / self.executions as f64
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

/// A multi-threaded optimistic block executor.
///
/// Construction is cheap; threads are spawned per block via
/// [`std::thread::scope`], so the executor borrows the base state and
/// block for the duration of the call only.
#[derive(Debug, Clone, Copy)]
pub struct ParExecutor {
    threads: usize,
    retry_cap: usize,
}

impl ParExecutor {
    /// An executor with `threads` workers (clamped to at least 1) and the
    /// default speculative retry cap.
    pub fn new(threads: usize) -> Self {
        ParExecutor {
            threads: threads.max(1),
            retry_cap: DEFAULT_RETRY_CAP,
        }
    }

    /// Sets how many speculative re-executions a worker attempts after a
    /// failed pre-validation before parking the transaction for the commit
    /// gate's canonical-order blocking re-execution. `0` disables
    /// speculative repair entirely (every conflict falls back).
    pub fn with_retry_cap(mut self, cap: usize) -> Self {
        self.retry_cap = cap;
        self
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Speculative re-execution retry cap.
    pub fn retry_cap(&self) -> usize {
        self.retry_cap
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
    /// admission-time footprints. A more precise DAG means fewer validation
    /// failures, not different results. Returns only receipts + delta: the
    /// base is never cloned; the caller absorbs the delta into its backend.
    ///
    /// When transaction `i` becomes ready, `hints[i]` is forwarded to the
    /// backend (see [`TxHints`]) before any worker claims it, overlapping
    /// backend reads with scheduling. Pass an empty slice for no hints.
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
        if n == 0 {
            return DeltaResult {
                receipts: Vec::new(),
                delta: BlockDelta::new(),
                stats: BlockStats {
                    threads: self.threads,
                    txs: 0,
                    executions: 0,
                    reexecutions: 0,
                    conflicts: 0,
                    spec_retries: 0,
                    fallbacks: 0,
                    wall: started.elapsed(),
                    workers: vec![WorkerStats::default(); self.threads],
                },
            };
        }

        let shared = Shared::new(
            base,
            &block.header,
            &block.transactions,
            dag,
            hints,
            self.retry_cap,
        );
        let workers: Vec<WorkerSlot> = (0..self.threads).map(|_| WorkerSlot::default()).collect();

        std::thread::scope(|scope| {
            for (w, slot) in workers.iter().enumerate() {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, slot, w));
            }
        });

        let wall = started.elapsed();
        let delta = shared.committed.into_inner().expect("no worker panicked");
        let cursor = shared.gate.into_inner().expect("no worker panicked");
        debug_assert_eq!(cursor.next, n, "every transaction must commit");
        let receipts: Vec<Receipt> = cursor
            .receipts
            .into_iter()
            .map(|r| r.expect("committed transactions have receipts"))
            .collect();

        DeltaResult {
            receipts,
            delta,
            stats: BlockStats {
                threads: self.threads,
                txs: n,
                executions: shared.executions.load(Ordering::Relaxed),
                reexecutions: shared.reexecutions.load(Ordering::Relaxed),
                conflicts: shared.conflicts.load(Ordering::Relaxed),
                spec_retries: shared.spec_retries.load(Ordering::Relaxed),
                fallbacks: shared.fallbacks.load(Ordering::Relaxed),
                wall,
                workers: workers.iter().map(WorkerSlot::snapshot).collect(),
            },
        }
    }
}

/// Atomic per-worker counters, snapshotted into [`WorkerStats`] at the end.
#[derive(Debug, Default)]
struct WorkerSlot {
    executed: AtomicU64,
    committed: AtomicU64,
    aborted: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

impl WorkerSlot {
    fn snapshot(&self) -> WorkerStats {
        WorkerStats {
            executed: self.executed.load(Ordering::Relaxed),
            committed: self.committed.load(Ordering::Relaxed),
            aborted: self.aborted.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.busy_ns.load(Ordering::Relaxed)),
            idle: Duration::from_nanos(self.idle_ns.load(Ordering::Relaxed)),
        }
    }
}

/// One speculative execution's result, parked until the commit gate
/// reaches it.
struct TxOutcome {
    delta: TxDelta,
    reads: ReadSet,
    receipt: Receipt,
}

/// Commit-order bookkeeping, protected by the gate mutex: the index of the
/// next transaction to commit and the receipts committed so far.
struct CommitCursor {
    next: usize,
    receipts: Vec<Option<Receipt>>,
}

/// Everything the workers share for one block.
struct Shared<'a, B: StateRead + Sync> {
    base: &'a B,
    header: &'a BlockHeader,
    txs: &'a [Transaction],
    dag: &'a DepGraph,
    /// Per-transaction prefetch hints, forwarded to the base when the
    /// transaction becomes ready (empty slice = no hints).
    hints: &'a [TxHints],
    /// Deltas of the committed transaction prefix. Read-locked per access
    /// during speculation; write-locked only by the gate holder to merge.
    committed: RwLock<BlockDelta>,
    /// The commit gate: whoever holds it advances the canonical commit
    /// order (validate → maybe re-execute → merge) as far as outcomes are
    /// available.
    gate: Mutex<CommitCursor>,
    /// Parked speculative outcomes, one slot per transaction.
    outcomes: Vec<Mutex<Option<TxOutcome>>>,
    /// Uncommitted-parent counts; a transaction becomes ready at zero.
    parents_left: Vec<AtomicUsize>,
    ready: Mutex<VecDeque<usize>>,
    wake: Condvar,
    done: AtomicBool,
    retry_cap: usize,
    executions: AtomicU64,
    reexecutions: AtomicU64,
    conflicts: AtomicU64,
    spec_retries: AtomicU64,
    fallbacks: AtomicU64,
}

impl<'a, B: StateRead + Sync> Shared<'a, B> {
    fn new(
        base: &'a B,
        header: &'a BlockHeader,
        txs: &'a [Transaction],
        dag: &'a DepGraph,
        hints: &'a [TxHints],
        retry_cap: usize,
    ) -> Self {
        let n = txs.len();
        let parents_left: Vec<AtomicUsize> = (0..n)
            .map(|i| AtomicUsize::new(dag.parents(i).len()))
            .collect();
        let ready: VecDeque<usize> = (0..n).filter(|&i| dag.parents(i).is_empty()).collect();
        if !hints.is_empty() {
            // The initial ready set is known before any worker starts;
            // hint it now so the backend's reads overlap thread spawn.
            for &i in &ready {
                fire_hints(base, &hints[i]);
            }
        }
        Shared {
            base,
            header,
            txs,
            dag,
            hints,
            committed: RwLock::new(BlockDelta::new()),
            gate: Mutex::new(CommitCursor {
                next: 0,
                receipts: vec![None; n],
            }),
            outcomes: (0..n).map(|_| Mutex::new(None)).collect(),
            parents_left,
            ready: Mutex::new(ready),
            wake: Condvar::new(),
            done: AtomicBool::new(false),
            retry_cap,
            executions: AtomicU64::new(0),
            reexecutions: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
            spec_retries: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Blocks until a transaction is ready or the block is fully
    /// committed. `None` means "no more work, exit".
    fn next_ready(&self) -> Option<usize> {
        let mut queue = self.ready.lock().expect("ready queue poisoned");
        loop {
            if let Some(i) = queue.pop_front() {
                if mtpu_telemetry::enabled() {
                    obs::metrics().queue_depth.record(queue.len() as u64);
                }
                return Some(i);
            }
            if self.done.load(Ordering::SeqCst) {
                return None;
            }
            queue = self.wake.wait(queue).expect("ready queue poisoned");
        }
    }

    /// Enqueues newly-ready transactions and wakes waiters. Holding the
    /// queue lock across the notify closes the race with a worker that
    /// just found the queue empty but has not yet parked.
    fn enqueue(&self, indices: &[usize]) {
        let mut queue = self.ready.lock().expect("ready queue poisoned");
        queue.extend(indices.iter().copied());
        self.wake.notify_all();
    }

    fn finish(&self) {
        self.done.store(true, Ordering::SeqCst);
        let _queue = self.ready.lock().expect("ready queue poisoned");
        self.wake.notify_all();
    }
}

/// The committed-prefix view used during speculation: every read takes a
/// short read-lock on the committed [`BlockDelta`]. The prefix may advance
/// *between* reads — [`ReadSet`] poisoning catches executions that
/// observed an inconsistent cut, and commit-time validation catches the
/// rest.
struct LockingView<'a, B: StateRead> {
    base: &'a B,
    committed: &'a RwLock<BlockDelta>,
}

impl<B: StateRead> LockingView<'_, B> {
    fn with_view<R>(&self, f: impl FnOnce(&OverlayedView<'_, B>) -> R) -> R {
        let guard = self.committed.read().expect("committed delta poisoned");
        f(&OverlayedView {
            base: self.base,
            delta: &guard,
        })
    }
}

impl<B: StateRead> StateRead for LockingView<'_, B> {
    fn read_exists(&self, addr: Address) -> bool {
        self.with_view(|v| v.read_exists(addr))
    }
    fn read_balance(&self, addr: Address) -> U256 {
        self.with_view(|v| v.read_balance(addr))
    }
    fn read_nonce(&self, addr: Address) -> u64 {
        self.with_view(|v| v.read_nonce(addr))
    }
    fn read_code(&self, addr: Address) -> Vec<u8> {
        self.with_view(|v| v.read_code(addr))
    }
    fn read_code_hash(&self, addr: Address) -> B256 {
        self.with_view(|v| v.read_code_hash(addr))
    }
    fn read_storage(&self, addr: Address, key: U256) -> U256 {
        self.with_view(|v| v.read_storage(addr, key))
    }
    fn read_storage_many(&self, addr: Address, keys: &[U256], out: &mut Vec<U256>) {
        // One read-lock for the whole batch — the point of the batched
        // path; per-key locking would also let the prefix advance between
        // keys of one prefetch batch.
        self.with_view(|v| v.read_storage_many(addr, keys, out));
    }
    fn hint_prefetch_storage(&self, addr: Address, keys: &[U256]) {
        self.base.hint_prefetch_storage(addr, keys);
    }
    fn hint_prefetch_account(&self, addr: Address) {
        self.base.hint_prefetch_account(addr);
    }
}

/// Runs one transaction on a fresh overlay over `view`. Invalid
/// transactions yield the same failed pseudo-receipt as the sequential
/// executor; their (empty) delta still merges cleanly and their read set
/// still validates, because the *decision* to reject depends on the reads.
fn run_tx<B: StateRead>(view: &B, header: &BlockHeader, tx: &Transaction) -> TxOutcome {
    let mut overlay = StateOverlay::new(view);
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
    TxOutcome {
        delta,
        reads,
        receipt,
    }
}

fn worker_loop<B: StateRead + Sync>(shared: &Shared<'_, B>, slot: &WorkerSlot, worker: usize) {
    if mtpu_telemetry::enabled() {
        mtpu_telemetry::name_thread(&format!("worker{worker}"));
    }
    loop {
        let idle_started = Instant::now();
        let claimed = shared.next_ready();
        let idle = idle_started.elapsed().as_nanos() as u64;
        slot.idle_ns.fetch_add(idle, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().idle_ns.add(idle);
        }
        let Some(i) = claimed else {
            return;
        };

        let busy_started = Instant::now();
        let span = mtpu_telemetry::span("exec", "parexec").arg("tx", i);
        let view = LockingView {
            base: shared.base,
            committed: &shared.committed,
        };
        let mut outcome = run_tx(&view, shared.header, &shared.txs[i]);
        shared.executions.fetch_add(1, Ordering::Relaxed);
        slot.executed.fetch_add(1, Ordering::Relaxed);

        // Bounded speculative repair: pre-validate against the (moving)
        // committed prefix and re-execute while it finds stale reads, up
        // to the cap. A transaction that keeps losing this race parks its
        // last outcome anyway — the commit gate re-executes it against the
        // frozen prefix (the canonical-order blocking fallback), so the
        // cap bounds wasted work without risking livelock or divergence.
        let mut retries = 0;
        while retries < shared.retry_cap {
            let stale = {
                let committed = shared.committed.read().expect("committed delta poisoned");
                let view = OverlayedView {
                    base: shared.base,
                    delta: &committed,
                };
                outcome.reads.validate_detailed(&view)
            };
            let Err(kind) = stale else {
                break;
            };
            shared.conflicts.fetch_add(1, Ordering::Relaxed);
            slot.aborted.fetch_add(1, Ordering::Relaxed);
            if mtpu_telemetry::enabled() {
                let m = obs::metrics();
                m.aborts.inc();
                m.spec_retries.inc();
                m.validation_fail(kind).inc();
            }
            retries += 1;
            shared.spec_retries.fetch_add(1, Ordering::Relaxed);
            shared.reexecutions.fetch_add(1, Ordering::Relaxed);
            shared.executions.fetch_add(1, Ordering::Relaxed);
            slot.executed.fetch_add(1, Ordering::Relaxed);
            outcome = run_tx(&view, shared.header, &shared.txs[i]);
        }

        *shared.outcomes[i].lock().expect("outcome slot poisoned") = Some(outcome);
        drop(span);
        drain_commits(shared, slot);
        let busy = busy_started.elapsed().as_nanos() as u64;
        slot.busy_ns.fetch_add(busy, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().busy_ns.add(busy);
        }
    }
}

/// Takes the commit gate and commits as many transactions as have parked
/// outcomes, in canonical order. Validation failures re-execute under the
/// gate against the frozen prefix view, which is exactly the sequential
/// prefix state — so the repaired outcome is definitively correct.
fn drain_commits<B: StateRead + Sync>(shared: &Shared<'_, B>, slot: &WorkerSlot) {
    let mut cursor = shared.gate.lock().expect("commit gate poisoned");
    loop {
        let i = cursor.next;
        if i >= shared.txs.len() {
            shared.finish();
            return;
        }
        let Some(mut outcome) = shared.outcomes[i]
            .lock()
            .expect("outcome slot poisoned")
            .take()
        else {
            // Not executed yet; whoever parks it will re-take the gate.
            return;
        };

        let stale = {
            let committed = shared.committed.read().expect("committed delta poisoned");
            let view = OverlayedView {
                base: shared.base,
                delta: &committed,
            };
            outcome.reads.validate_detailed(&view)
        };
        if let Err(kind) = stale {
            shared.conflicts.fetch_add(1, Ordering::Relaxed);
            shared.fallbacks.fetch_add(1, Ordering::Relaxed);
            shared.reexecutions.fetch_add(1, Ordering::Relaxed);
            shared.executions.fetch_add(1, Ordering::Relaxed);
            slot.executed.fetch_add(1, Ordering::Relaxed);
            slot.aborted.fetch_add(1, Ordering::Relaxed);
            if mtpu_telemetry::enabled() {
                let m = obs::metrics();
                m.aborts.inc();
                m.fallbacks.inc();
                m.validation_fail(kind).inc();
            }
            // While we hold the gate no one else can merge, so the
            // committed view is frozen — this re-execution cannot race.
            let span = mtpu_telemetry::span("fallback", "parexec").arg("tx", i);
            let committed = shared.committed.read().expect("committed delta poisoned");
            let view = OverlayedView {
                base: shared.base,
                delta: &committed,
            };
            outcome = run_tx(&view, shared.header, &shared.txs[i]);
            drop(span);
        }

        {
            let span = mtpu_telemetry::span("commit", "parexec").arg("tx", i);
            let mut committed = shared.committed.write().expect("committed delta poisoned");
            committed.merge(&outcome.delta, shared.base);
            drop(span);
        }
        cursor.receipts[i] = Some(outcome.receipt);
        cursor.next = i + 1;
        slot.committed.fetch_add(1, Ordering::Relaxed);
        if mtpu_telemetry::enabled() {
            obs::metrics().commits.inc();
        }

        let mut newly_ready = Vec::new();
        for &child in shared.dag.children(i) {
            if shared.parents_left[child as usize].fetch_sub(1, Ordering::SeqCst) == 1 {
                newly_ready.push(child as usize);
            }
        }
        if !newly_ready.is_empty() {
            if !shared.hints.is_empty() {
                // Hint before enqueueing: the backend starts its reads
                // while the waking worker is still claiming the index.
                for &r in &newly_ready {
                    fire_hints(shared.base, &shared.hints[r]);
                }
            }
            shared.enqueue(&newly_ready);
        }
    }
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
        assert_eq!(chain.executions, 12 + chain.reexecutions);
        assert!(chain.tx_per_exec_sec() > 0.0);
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
        assert_eq!(stats.executions, stats.txs as u64 + stats.reexecutions);
        assert_eq!(stats.reexecutions, stats.spec_retries + stats.fallbacks);
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

        for cap in [0, 1, DEFAULT_RETRY_CAP] {
            let exec = ParExecutor::new(8).with_retry_cap(cap);
            assert_eq!(exec.retry_cap(), cap);
            let result = exec.execute_block(&base, &block);
            assert_eq!(result.receipts, seq_receipts);
            assert_eq!(result.state.state_root(), seq_state.state_root());
            let stats = &result.stats;
            assert_eq!(stats.reexecutions, stats.spec_retries + stats.fallbacks);
            assert_eq!(stats.executions, stats.txs as u64 + stats.reexecutions);
            // The cap bounds per-transaction speculative repair work.
            assert!(stats.spec_retries <= cap as u64 * stats.txs as u64);
            if cap == 0 {
                assert_eq!(stats.spec_retries, 0, "cap 0 disables speculative repair");
            }
            let aborted: u64 = stats.workers.iter().map(|w| w.aborted).sum();
            assert_eq!(aborted, stats.conflicts);
        }
    }
}
