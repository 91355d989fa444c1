//! The serializability oracle, extended to the front half of the node:
//! blocks *produced by the mempool + conflict-aware packer* must execute
//! on `parexec` — any thread count, synchronous or pipelined commit — to
//! receipts and merkle roots bit-identical to the sequential reference,
//! and packing itself must be a deterministic function of the pool state.

use mtpu_repro::accountsdb::{AccountsDb, FlushService};
use mtpu_repro::evm::execute_block as sequential;
use mtpu_repro::evm::state::State;
use mtpu_repro::evm::tx::{BlockHeader, Transaction};
use mtpu_repro::evm::{apply_updates, commit_full, delta_updates, AsyncCommitter};
use mtpu_repro::mempool::{
    BlockPacker, BlockSink, CommittedBlock, DriverConfig, DriverReport, Mempool, NodeDriver,
    PackedBlock, PackerConfig, PoolConfig, TxSource,
};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::primitives::{Address, B256, U256};
use mtpu_repro::statedb::{MemStore, StateCommitter};
use mtpu_repro::workloads::{ZipfConfig, ZipfGen};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const THREADS: [usize; 3] = [1, 4, 8];

fn stream(seed: u64) -> ZipfGen {
    ZipfGen::new(
        seed,
        ZipfConfig {
            senders: 64,
            hot_ratio: 0.3,
            ..ZipfConfig::default()
        },
    )
}

/// A Zipf stream truncated to `left` transactions.
struct Bounded {
    gen: ZipfGen,
    left: usize,
}

impl TxSource for Bounded {
    fn next_tx(&mut self) -> Option<Transaction> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.gen.next_tx())
    }
}

fn header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        ..Default::default()
    }
}

/// Packs a short chain of blocks the way the node would — admit, pack,
/// commit sequentially, observe — and returns the packed blocks plus the
/// sequential oracle (receipts, merkle roots) and the genesis state.
fn packed_chain(
    seed: u64,
    txs: usize,
    blocks: usize,
) -> (
    State,
    Vec<PackedBlock>,
    Vec<Vec<mtpu_repro::evm::Receipt>>,
    Vec<B256>,
) {
    let mut gen = stream(seed);
    let genesis = gen.genesis_state().clone();
    let pool = Mempool::new(PoolConfig::default());
    for _ in 0..txs {
        let _ = pool.admit(gen.next_tx(), &genesis);
    }

    let packer = BlockPacker::new(PackerConfig::default());
    let mut state = genesis.clone();
    let mut packed = Vec::new();
    let mut receipts = Vec::new();
    let mut roots = Vec::new();
    for h in 1..=blocks as u64 {
        let p = packer.pack(&pool, header(h));
        assert!(
            !p.block.transactions.is_empty(),
            "pool drained after {h} blocks"
        );
        receipts.push(sequential(&mut state, &p.block));
        roots.push(state.merkle_root());
        pool.observe_committed(&state);
        packed.push(p);
    }
    (genesis, packed, receipts, roots)
}

/// Packer-produced blocks execute identically in parallel — with the
/// packer's admission-time DAG — across thread counts, with both
/// synchronous root computation and the pipelined background committer.
#[test]
fn packed_blocks_parallel_equals_sequential() {
    let (genesis, packed, oracle_receipts, oracle_roots) = packed_chain(0x21F0, 400, 3);

    for &threads in &THREADS {
        let exec = ParExecutor::new(threads);

        // Synchronous: recompute the full root after every block.
        let mut state = genesis.clone();
        for (i, p) in packed.iter().enumerate() {
            let result = exec.execute_block_delta_with_dag_hints(&state, &p.block, &p.graph, &[]);
            assert_eq!(
                result.receipts, oracle_receipts[i],
                "receipts diverged at block {i} threads {threads}"
            );
            result.delta.apply_to(&mut state);
            assert_eq!(
                state.merkle_root(),
                oracle_roots[i],
                "root diverged at block {i} threads {threads}"
            );
        }

        // Pipelined: all commits submitted to the background thread,
        // handles joined only at the end.
        let mut committer = StateCommitter::new(MemStore::new());
        commit_full(&mut committer, &genesis);
        committer.commit();
        let committer = AsyncCommitter::new(committer);
        let mut state = genesis.clone();
        let mut handles = Vec::new();
        for p in &packed {
            let result = exec.execute_block_delta_with_dag_hints(&state, &p.block, &p.graph, &[]);
            handles.push(committer.submit(&state, &result.delta));
            result.delta.apply_to(&mut state);
        }
        let roots: Vec<B256> = handles.into_iter().map(|h| h.wait()).collect();
        assert_eq!(
            roots, oracle_roots,
            "pipelined roots diverged at threads {threads}"
        );
    }
}

/// Packing is a pure function of the pool snapshot: identically built
/// pools pack identical blocks, transaction for transaction.
#[test]
fn packing_is_deterministic_for_a_given_pool_state() {
    let (_, a, _, _) = packed_chain(0xDE7, 300, 2);
    let (_, b, _, _) = packed_chain(0xDE7, 300, 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.block.transactions, y.block.transactions);
        assert_eq!(x.independent, y.independent);
        assert_eq!(x.conflict_skips, y.conflict_skips);
    }
    // And the conflict-aware phase actually engages on a hot workload.
    assert!(a.iter().any(|p| p.independent > 0));
}

/// A `blocks`-block session with inline ingest: deterministic for a
/// deterministic source.
fn inline_cfg(blocks: usize) -> DriverConfig {
    DriverConfig {
        blocks,
        threads: 4,
        ingest_batch: 64,
        prefill: 256,
        background_ingest: false,
        ..DriverConfig::default()
    }
}

/// The end-to-end driver in deterministic (inline-ingest) mode: same
/// source, same configuration → the same per-block merkle root sequence,
/// with the final root chained from genesis.
#[test]
fn driver_is_deterministic_with_inline_ingest() {
    let run = |tag: &str| {
        let source = Bounded {
            gen: stream(0xFEED),
            left: 600,
        };
        let genesis = source.gen.genesis_state().clone();
        run_session(tag, &genesis, PoolConfig::default(), inline_cfg(4), source).report
    };

    let a = run("deterministic-a");
    let b = run("deterministic-b");
    assert_eq!(a.blocks.len(), 4);
    assert!(a.chain.txs > 0);
    assert_ne!(a.genesis_root, a.final_root);
    assert_eq!(a.final_root, a.blocks.last().unwrap().merkle_root);
    let roots_a: Vec<B256> = a.blocks.iter().map(|s| s.merkle_root).collect();
    let roots_b: Vec<B256> = b.blocks.iter().map(|s| s.merkle_root).collect();
    assert_eq!(roots_a, roots_b, "driver runs diverged");
    // Root linkage: every block moved the chain on from its parent.
    assert_ne!(roots_a[0], a.genesis_root, "block 1 left the genesis root");
    assert!(
        roots_a.windows(2).all(|w| w[0] != w[1]),
        "a block reported its parent's root: {roots_a:?}"
    );
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mtpu-node-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The flat accounts-DB read path replaces the in-memory `State` as the
/// execution base: receipts and merkle roots must be bit-identical to
/// the sequential oracle at every thread count, with flushes racing
/// execution so reads cross the cache/index/file boundary mid-chain.
#[test]
fn flat_backend_receipts_and_roots_match_across_thread_counts() {
    let (genesis, packed, oracle_receipts, oracle_roots) = packed_chain(0x21F0, 400, 3);

    for &threads in &THREADS {
        let exec = ParExecutor::new(threads);
        let dir = scratch_dir(&format!("flat-{threads}"));
        let db = AccountsDb::open(&dir).expect("open accounts db");
        db.bootstrap_from_state(&genesis, 0);

        // The trie stays commitment-only: updates derive from the delta
        // against the flat base, never from a materialized `State`.
        let mut committer = StateCommitter::new(MemStore::new());
        commit_full(&mut committer, &genesis);
        assert_eq!(committer.commit(), genesis.merkle_root());

        for (i, p) in packed.iter().enumerate() {
            let height = i as u64 + 1;
            let result = exec.execute_block_delta_with_dag_hints(&db, &p.block, &p.graph, &[]);
            assert_eq!(
                result.receipts, oracle_receipts[i],
                "flat receipts diverged at block {i} threads {threads}"
            );
            let updates = delta_updates(&db, &result.delta);
            apply_updates(&mut committer, &updates);
            assert_eq!(
                committer.commit(),
                oracle_roots[i],
                "flat root diverged at block {i} threads {threads}"
            );
            db.absorb(&result.delta, height);
            // Flush behind the head, as the node does.
            db.flush_up_to(height.saturating_sub(1)).expect("flush");
        }

        let stats = db.stats();
        assert!(stats.flushes > 0, "flushes never ran at threads {threads}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// End-to-end driver oracle: two deterministic (inline-ingest) sessions
/// over the same stream commit identical roots, those roots equal a
/// sequential replay of the blocks the sink recorded, and a snapshot →
/// restore of the store reopens at the head root.
#[test]
fn flat_driver_replays_sequentially_and_survives_snapshot_restore() {
    let make_source = || Bounded {
        gen: stream(0xF1A7),
        left: 600,
    };
    let genesis = make_source().gen.genesis_state().clone();

    let recorded = run_session(
        "driver-replay",
        &genesis,
        PoolConfig::default(),
        inline_cfg(4),
        make_source(),
    );
    assert_eq!(recorded.blocks.len(), recorded.report.blocks.len());
    let mut state = genesis.clone();
    for (cb, summary) in recorded.blocks.iter().zip(&recorded.report.blocks) {
        sequential(&mut state, &cb.block);
        assert_eq!(
            state.merkle_root(),
            summary.merkle_root,
            "replay diverged at block {}",
            cb.height
        );
    }
    assert_eq!(state.merkle_root(), recorded.report.final_root);

    let dir = scratch_dir("driver");
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(&genesis, 0);
    let flush = FlushService::start(db.clone());
    let driver = NodeDriver::new(
        Mempool::new(PoolConfig::default()),
        BlockPacker::new(PackerConfig::default()),
        inline_cfg(4),
    );
    let report = driver.run_flat(&genesis, &db, &flush, make_source(), header);

    assert_eq!(recorded.report.blocks.len(), report.blocks.len());
    for (a, b) in recorded.report.blocks.iter().zip(&report.blocks) {
        assert_eq!(a.txs, b.txs, "packed size diverged at block {}", a.height);
        assert_eq!(
            a.merkle_root, b.merkle_root,
            "sessions diverged at block {}",
            a.height
        );
    }
    let stats = db.stats();
    assert!(
        stats.flushes > 0 && stats.files > 0,
        "the session never flushed"
    );

    // Snapshot, drop everything, reopen: the restored store carries the
    // chain head and the root it was snapshotted at.
    flush.quiesce();
    db.snapshot(Some(report.final_root)).expect("snapshot");
    let head = db.head_height();
    drop(flush);
    drop(db);
    let restored = AccountsDb::open(&dir).expect("restore accounts db");
    assert_eq!(restored.snapshot_root(), Some(report.final_root));
    assert_eq!(restored.head_height(), head);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records what the driver publishes, and when the first block landed.
#[derive(Default)]
struct Recorder {
    blocks: Mutex<Vec<CommittedBlock>>,
    roots: Mutex<Vec<(u64, B256)>>,
    first_block: Mutex<Option<Instant>>,
}

impl BlockSink for Recorder {
    fn on_block(&self, block: CommittedBlock) {
        self.first_block
            .lock()
            .unwrap()
            .get_or_insert_with(Instant::now);
        self.blocks.lock().unwrap().push(block);
    }
    fn on_root(&self, height: u64, root: B256) {
        self.roots.lock().unwrap().push((height, root));
    }
}

/// One driver session, with everything it published.
struct Session {
    report: DriverReport,
    blocks: Vec<CommittedBlock>,
    roots: Vec<(u64, B256)>,
    /// Session start → first `on_block`.
    first_block_after: Option<Duration>,
    /// Ready transactions left in the pool at session end.
    ready_left: usize,
}

/// The one session helper: the given pool, config and source over a
/// freshly bootstrapped scratch store, removed again afterwards.
fn run_session(
    tag: &str,
    genesis: &State,
    pool: PoolConfig,
    cfg: DriverConfig,
    source: impl TxSource,
) -> Session {
    let sink = Arc::new(Recorder::default());
    let driver = NodeDriver::new(
        Mempool::new(pool),
        BlockPacker::new(PackerConfig::default()),
        cfg,
    )
    .with_sink(sink.clone());
    let dir = scratch_dir(tag);
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(genesis, 0);
    let flush = FlushService::start(db.clone());
    let started = Instant::now();
    let report = driver.run_flat(genesis, &db, &flush, source, header);
    flush.quiesce();
    drop(flush);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    let first_block = *sink.first_block.lock().unwrap();
    let blocks = std::mem::take(&mut *sink.blocks.lock().unwrap());
    let roots = std::mem::take(&mut *sink.roots.lock().unwrap());
    Session {
        report,
        blocks,
        roots,
        first_block_after: first_block.map(|t| t.duration_since(started)),
        ready_left: driver.pool().ready_chains().len(),
    }
}

/// A source that runs dry before `cfg.blocks` ends the session early —
/// with either ingest mode — with the exhaustion reported, fewer blocks
/// than asked for, and nothing ready left behind.
#[test]
fn dry_source_ends_the_session_with_every_ready_tx_committed() {
    for background_ingest in [false, true] {
        let tag = format!("background={background_ingest}");
        let source = Bounded {
            gen: stream(0xD2A1),
            left: 300,
        };
        let genesis = source.gen.genesis_state().clone();
        let cfg = DriverConfig {
            blocks: 64,
            threads: 4,
            ingest_batch: 64,
            prefill: 128,
            background_ingest,
            ..DriverConfig::default()
        };
        let s = run_session(
            &format!("dry-{background_ingest}"),
            &genesis,
            PoolConfig::default(),
            cfg,
            source,
        );

        assert!(s.report.source_exhausted, "{tag}: exhaustion not reported");
        assert!(
            !s.report.blocks.is_empty() && s.report.blocks.len() < 64,
            "{tag}: {} blocks",
            s.report.blocks.len()
        );
        assert_eq!(s.ready_left, 0, "{tag}: ready transactions left behind");
        // Everything the pool ever held was either committed or is
        // still parked behind a nonce gap that can never fill.
        let packed: usize = s.report.blocks.iter().map(|b| b.txs).sum();
        assert_eq!(packed, s.report.chain.txs, "{tag}");
        assert!(packed > 0, "{tag}: nothing committed");
        assert_eq!(s.blocks.len(), s.report.blocks.len(), "{tag}: sink");
        assert_eq!(s.roots.len(), s.report.blocks.len(), "{tag}: roots");
    }
}

/// Background ingest races the block loop, so the packed chain is not
/// reproducible — but whatever chain the session did produce, recorded
/// through the sink, must replay sequentially to the same receipts at
/// every height and to the same roots.
#[test]
fn background_ingest_session_replays_sequentially() {
    let source = Bounded {
        gen: stream(0xB6_1A6E),
        left: 1500,
    };
    let genesis = source.gen.genesis_state().clone();
    let cfg = DriverConfig {
        blocks: 5,
        threads: 4,
        ingest_batch: 64,
        prefill: 256,
        background_ingest: true,
        ..DriverConfig::default()
    };
    let s = run_session("background", &genesis, PoolConfig::default(), cfg, source);
    assert_eq!(s.blocks.len(), s.report.blocks.len(), "sink");
    assert!(s.report.chain.txs > 0, "nothing committed");

    let mut state = genesis.clone();
    for (cb, summary) in s.blocks.iter().zip(&s.report.blocks) {
        assert_eq!(cb.height, summary.height);
        assert!(cb.state.is_none(), "a state published at {}", cb.height);
        let receipts = sequential(&mut state, &cb.block);
        assert_eq!(
            receipts, *cb.receipts,
            "receipts diverged at height {}",
            cb.height
        );
        assert_eq!(
            state.merkle_root(),
            summary.merkle_root,
            "root diverged at height {}",
            cb.height
        );
    }
    assert_eq!(state.merkle_root(), s.report.final_root, "final root");
    let reported: Vec<(u64, B256)> = s
        .report
        .blocks
        .iter()
        .map(|b| (b.height, b.merkle_root))
        .collect();
    assert_eq!(s.roots, reported, "on_root sequence");
}

/// The background-ingest prefill wait must only wait for what can
/// arrive. Two sources that used to sit out the full 5 s deadline: a
/// `prefill` above the ingest thread's backpressure mark, and a live
/// source of (almost) nothing but rejects.
#[test]
fn background_prefill_does_not_wait_for_what_cannot_arrive() {
    let genesis = stream(0x57A11).genesis_state().clone();
    let cfg = |prefill: usize| DriverConfig {
        blocks: 1,
        threads: 2,
        ingest_batch: 64,
        prefill,
        background_ingest: true,
        ..DriverConfig::default()
    };
    let check = |what: &str, s: Session| {
        assert_eq!(s.report.blocks.len(), 1, "{what}");
        let waited = s.first_block_after.expect("a block was published");
        assert!(
            waited < Duration::from_millis(2500),
            "{what}: first block took {waited:?}"
        );
    };

    // Ingestion pauses at max_txs - ingest_batch = 192 < prefill.
    let mut gen = stream(0x57A11);
    let small_pool = PoolConfig {
        max_txs: 256,
        ..PoolConfig::default()
    };
    let s = run_session(
        "prefill-high-water",
        &genesis,
        small_pool,
        cfg(1024),
        move || Some(gen.next_tx()),
    );
    check("prefill above the high-water mark", s);

    // 100 good transactions, then an endless stream from an unfunded
    // sender: the pool never reaches `prefill`, the source never ends.
    let mut gen = stream(0x57A11);
    let mut served = 0u64;
    let rejects = move || {
        served += 1;
        Some(if served <= 100 {
            gen.next_tx()
        } else {
            let broke = Address::from_low_u64(0xDEAD_0000 + served);
            Transaction::transfer(broke, Address::from_low_u64(1), U256::ONE, 0)
        })
    };
    let s = run_session(
        "prefill-rejects",
        &genesis,
        PoolConfig::default(),
        cfg(256),
        rejects,
    );
    check("a source of rejects", s);
}
