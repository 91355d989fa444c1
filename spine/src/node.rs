//! The four node workloads: `NodeDriver::run_flat` over the flat store for
//! the end-to-end pass, and a bench-side staged loop in the same order
//! with a span around each call for the traced pass.

use crate::metrics::Values;
use crate::span::Tracer;
use crate::stats::{median, percentile, segment_median_rate, session_timings, SessionTimings};
use crate::timed_read::TimedRead;
use crate::{cores, Outcome, Scratch};
use mtpu::sched::SlotKey;
use mtpu_accountsdb::{AccountsDb, FlushService};
use mtpu_contracts::{addresses, call_data, Fixture};
use mtpu_evm::commit::{apply_updates, commit_full, delta_updates, MemStore, StateCommitter};
use mtpu_evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_evm::{call_readonly, execute_block, ReadCall, State};
use mtpu_mempool::{
    BlockPacker, BlockSink, CommittedBlock, DriverConfig, Mempool, NodeDriver, PackedBlock,
    PackerConfig, PoolConfig, PoolStats,
};
use mtpu_parexec::{ChainStats, ParExecutor, TxHints};
use mtpu_primitives::{SplitMix64, B256, U256};
use mtpu_readserve::{ReadServeConfig, ReadServer};
use mtpu_workloads::{ZipfConfig, ZipfGen, ZipfSampler};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BLOCK_TXS: usize = 128;
const POOL_TXS: usize = 8192;
const PREFILL: usize = 2048;
const FLUSH_LAG: u64 = 2;
/// A session's blocks are split into this many runs for the throughput
/// median.
const SEGMENTS: usize = 5;
/// The reader issues this many reads back to back, then thinks.
const READ_BURST: u64 = 32;
/// The reader's think time between bursts. A reader that never pauses
/// takes one of two cores for itself and the writer's throughput then
/// depends on thread placement (13 % between identical runs).
const READ_THINK: Duration = Duration::from_micros(100);
/// Reads kept for the replay check.
const SAMPLE_CAP: usize = 2048;
/// One read in this many is kept, so the samples span the session.
const SAMPLE_EVERY: u64 = 16;

/// What distinguishes one node workload from another.
struct Spec {
    /// Blocks per session: enough that p95 has ten samples beyond it.
    blocks: usize,
    zipf: ZipfConfig,
    /// Publish every block to a [`ReadServer`].
    read_server: bool,
    /// Run one closed-loop reader thread against the server.
    reader: bool,
}

fn spec(workload: &str) -> Spec {
    let hot = Spec {
        blocks: 240,
        zipf: ZipfConfig::default(),
        read_server: true,
        reader: false,
    };
    match workload {
        "node_hot" => hot,
        "node_readers" => Spec {
            reader: true,
            ..hot
        },
        "node_wide" => Spec {
            zipf: ZipfConfig {
                senders: 8192,
                universe: 100_000,
                recipients: 100_000,
                hot_ratio: 0.05,
                sct_ratio: 0.5,
                ..ZipfConfig::default()
            },
            // Folding delta chains into a fresh base clones the whole
            // state; at this universe that would measure the clone.
            read_server: false,
            ..hot
        },
        "node_contended" => Spec {
            zipf: ZipfConfig {
                theta: 1.3,
                hot_ratio: 0.8,
                hot_slots: 1,
                sct_ratio: 0.95,
                ..ZipfConfig::default()
            },
            ..hot
        },
        other => unreachable!("not a node workload: {other}"),
    }
}

/// `ParExecutor` threads: two at most, and one core left for the driver,
/// committer, flush and reader threads. Measured on two cores with two
/// executor threads, identical sessions differed by 13–18 % from run to
/// run depending on where the scheduler put the threads; with one, 4–5 %
/// at the same throughput.
fn threads() -> usize {
    (cores() - 1).clamp(1, 2)
}

fn header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        ..Default::default()
    }
}

fn new_pool() -> Mempool {
    Mempool::new(PoolConfig {
        max_txs: POOL_TXS,
        max_per_sender: POOL_TXS,
        ..PoolConfig::default()
    })
}

fn new_packer() -> BlockPacker {
    BlockPacker::new(PackerConfig {
        max_txs: BLOCK_TXS,
        gas_limit: 256_000_000,
        ..PackerConfig::default()
    })
}

/// Everything the program is handed: the seed stops here.
struct Inputs {
    genesis: State,
    txs: Vec<Transaction>,
}

fn generate(seed: u64, spec: &Spec, blocks: usize) -> Inputs {
    let mut gen = ZipfGen::new(seed, spec.zipf.clone());
    // One batch beyond the last block, so the source never runs dry inside
    // the session.
    let txs = (0..PREFILL + (blocks + 1) * BLOCK_TXS)
        .map(|_| gen.next_tx())
        .collect();
    Inputs {
        genesis: gen.fx.state,
        txs,
    }
}

fn open_store(dir: &Path, genesis: &State) -> Arc<AccountsDb> {
    let db = Arc::new(AccountsDb::open(dir).expect("open accounts db"));
    db.bootstrap_from_state(genesis, 0);
    db.flush_up_to(0).expect("flush genesis");
    db
}

type Recorded = (Arc<Block>, Arc<Vec<Receipt>>);

#[derive(Default)]
struct Timeline {
    /// ns since the session began at which `on_block(h)` was entered.
    block_ns: Vec<u64>,
    block_txs: Vec<u64>,
    root_ns: Vec<u64>,
    roots: Vec<B256>,
    blocks: Vec<Recorded>,
    flush_lag_max: u64,
}

/// Timestamps the driver's publications and forwards them to the read
/// server when one is attached.
struct StampSink {
    origin: Instant,
    db: Arc<AccountsDb>,
    server: Option<Arc<ReadServer>>,
    timeline: Mutex<Timeline>,
    started: AtomicBool,
}

impl BlockSink for StampSink {
    fn on_block(&self, cb: CommittedBlock) {
        let now = self.origin.elapsed().as_nanos() as u64;
        {
            let mut t = self.timeline.lock().expect("timeline poisoned");
            t.block_ns.push(now);
            t.block_txs.push(cb.block.transactions.len() as u64);
            t.blocks.push((cb.block.clone(), cb.receipts.clone()));
            t.flush_lag_max = t.flush_lag_max.max(
                self.db
                    .head_height()
                    .saturating_sub(self.db.flushed_height()),
            );
        }
        self.started.store(true, Ordering::Release);
        if let Some(server) = &self.server {
            server.on_block(cb);
        }
    }

    fn on_root(&self, height: u64, root: B256) {
        let now = self.origin.elapsed().as_nanos() as u64;
        {
            let mut t = self.timeline.lock().expect("timeline poisoned");
            t.root_ns.push(now);
            t.roots.push(root);
        }
        if let Some(server) = &self.server {
            server.on_root(height, root);
        }
    }
}

/// One verified read, pinned to the height it was served at.
enum Sample {
    Balance(u64, u64, U256),
    Nonce(u64, u64, u64),
    Storage(u64, Vec<U256>, Vec<U256>),
    /// `(height, user, success, gas_used, output)` of a `balanceOf` call.
    Call(u64, u64, bool, u64, Vec<u8>),
}

impl Sample {
    fn height(&self) -> u64 {
        match *self {
            Sample::Balance(h, ..)
            | Sample::Nonce(h, ..)
            | Sample::Storage(h, ..)
            | Sample::Call(h, ..) => h,
        }
    }
}

fn balance_of(user: u64) -> ReadCall {
    let who = Fixture::user_address(user);
    ReadCall::view(
        who,
        addresses::tether(),
        call_data("balanceOf(address)", &[who.to_u256()]),
    )
}

#[derive(Default)]
struct ReaderOut {
    reads: u64,
    /// Reads the server had no snapshot for.
    missing: u64,
    wall: Duration,
    point_ns: Vec<f64>,
    call_us: Vec<f64>,
    samples: Vec<Sample>,
}

/// The closed-loop reader — one client that waits for each reply and
/// thinks [`READ_THINK`] after every [`READ_BURST`] reads: Zipf-keyed reads
/// at the latest height, 90 % point reads and 10 % `balanceOf` simulations,
/// from the first published block until the writer stops. With `timed`
/// each read is clocked; the end-to-end pass only counts.
fn reader_loop(
    server: &ReadServer,
    ops: &[(u64, u8)],
    go: &AtomicBool,
    stop: &AtomicBool,
    timed: bool,
) -> ReaderOut {
    while !go.load(Ordering::Acquire) && !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut out = ReaderOut::default();
    let started = Instant::now();
    for &(user, kind) in ops.iter().cycle() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let addr = Fixture::user_address(user);
        let keep = out.reads % SAMPLE_EVERY == 0 && out.samples.len() < SAMPLE_CAP;
        let t0 = timed.then(Instant::now);
        let sample = match kind {
            0..=3 => server
                .get_balance(None, addr)
                .map(|(h, v)| Sample::Balance(h, user, v)),
            4..=6 => server
                .get_nonce(None, addr)
                .map(|(h, n)| Sample::Nonce(h, user, n)),
            7..=8 => {
                let keys = vec![U256::ZERO, U256::ONE, U256::from(2u64), U256::from(user)];
                server
                    .get_many(None, addresses::tether(), &keys)
                    .map(|(h, vals)| Sample::Storage(h, keys, vals))
            }
            _ => server
                .call(None, &balance_of(user))
                .map(|(h, o)| Sample::Call(h, user, o.success, o.gas_used, o.output)),
        };
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as f64;
            if kind <= 8 {
                out.point_ns.push(ns);
            } else {
                out.call_us.push(ns / 1e3);
            }
        }
        out.reads += 1;
        if out.reads % READ_BURST == 0 {
            std::thread::sleep(READ_THINK);
        }
        match sample {
            Some(s) if keep => out.samples.push(s),
            Some(_) => {}
            None => out.missing += 1,
        }
    }
    out.wall = started.elapsed();
    out
}

/// The reader's `(user, operation kind)` draws, made before the session.
fn reader_inputs(seed: u64, senders: u64) -> Vec<(u64, u8)> {
    let mut keys = ZipfSampler::new(seed ^ 0x5EAD, senders, 1.0);
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xD1CE);
    (0..1 << 16)
        .map(|_| (keys.sample(), rng.random_range(0..10) as u8))
        .collect()
}

/// What one `run_flat` session produced.
struct Session {
    setup_s: f64,
    timeline: Timeline,
    pool: PoolStats,
    reader: Option<ReaderOut>,
    retained: u64,
}

fn run_session(
    seed: u64,
    spec: &Spec,
    blocks: usize,
    dir: &Path,
    reader: bool,
    timed_reads: bool,
) -> Session {
    let origin = Instant::now();
    let Inputs { genesis, txs } = generate(seed, spec, blocks);
    let reader_in = reader.then(|| reader_inputs(seed, spec.zipf.senders));
    let db = open_store(dir, &genesis);
    let flush = FlushService::start(db.clone());
    let server = spec
        .read_server
        .then(|| ReadServer::new(genesis.clone(), ReadServeConfig::default()));
    let sink = Arc::new(StampSink {
        origin,
        db: db.clone(),
        server: server.clone(),
        timeline: Mutex::default(),
        started: AtomicBool::new(false),
    });
    let driver = NodeDriver::new(
        new_pool(),
        new_packer(),
        DriverConfig {
            blocks,
            threads: threads(),
            commit_threads: 1,
            ingest_batch: BLOCK_TXS,
            prefill: PREFILL,
            // Inline ingest: identical blocks and roots every run.
            background_ingest: false,
            flush_lag: FLUSH_LAG,
        },
    )
    .with_sink(sink.clone());

    let stop = AtomicBool::new(false);
    let mut source = txs.into_iter();
    let (report, reader_out) = std::thread::scope(|s| {
        let reading = reader_in.as_deref().map(|ops| {
            let server = server.as_deref().expect("a reader needs the read server");
            let (go, stop) = (&sink.started, &stop);
            s.spawn(move || reader_loop(server, ops, go, stop, timed_reads))
        });
        let report = driver.run_flat(&genesis, &db, &flush, move || source.next(), header);
        stop.store(true, Ordering::Release);
        (report, reading.map(|h| h.join().expect("reader thread")))
    });
    flush.quiesce();

    let timeline = std::mem::take(&mut *sink.timeline.lock().expect("timeline poisoned"));
    assert_eq!(timeline.block_ns.len(), blocks, "session ended early");
    assert_eq!(timeline.roots.len(), blocks, "a root never resolved");
    Session {
        setup_s: timeline.block_ns[0] as f64 / 1e9,
        timeline,
        pool: report.pool,
        reader: reader_out,
        retained: server
            .and_then(|s| s.retained())
            .map_or(0, |(lo, hi)| hi - lo + 1),
    }
}

impl Session {
    /// The first `on_block` is the first timed event: everything before it
    /// is set-up, the blocks after it are measured.
    fn timings(&self) -> SessionTimings {
        let t = &self.timeline;
        session_timings(t.block_ns[0], &t.block_ns[1..], &t.block_txs[1..], SEGMENTS)
    }

    /// Throughput alone, for the traced pass's shorter sessions.
    fn tx_per_s(&self) -> f64 {
        let t = &self.timeline;
        segment_median_rate(t.block_ns[0], &t.block_ns[1..], &t.block_txs[1..], SEGMENTS)
    }

    /// Admissions refused or evicted, and reads the server could not
    /// serve: `(attempted, failed)`.
    fn operations(&self) -> (u64, u64) {
        let p = &self.pool;
        let reads = self
            .reader
            .as_ref()
            .map_or((0, 0), |r| (r.reads, r.missing));
        (
            p.admitted + p.rejected + reads.0,
            p.rejected + p.evicted + reads.1,
        )
    }
}

/// Replays the session's blocks sequentially on the in-memory state and
/// checks receipts at every height, every sampled read at the height it
/// was served at, and the final root against a from-scratch trie build.
fn verify_against_replay(genesis: State, session: &Session) -> Result<u64, String> {
    let mut by_height: std::collections::HashMap<u64, Vec<&Sample>> = Default::default();
    for s in session.reader.iter().flat_map(|r| &r.samples) {
        by_height.entry(s.height()).or_default().push(s);
    }
    let check = |state: &State, header: &BlockHeader, h: u64| -> Result<u64, String> {
        let Some(batch) = by_height.get(&h) else {
            return Ok(0);
        };
        for s in batch {
            let ok = match s {
                Sample::Balance(_, user, v) => state.balance(Fixture::user_address(*user)) == *v,
                Sample::Nonce(_, user, n) => state.nonce(Fixture::user_address(*user)) == *n,
                Sample::Storage(_, keys, vals) => keys
                    .iter()
                    .zip(vals)
                    .all(|(k, v)| state.storage(addresses::tether(), *k) == *v),
                Sample::Call(_, user, success, gas, output) => {
                    let want = call_readonly(state, header, &balance_of(*user));
                    (want.success, want.gas_used, &want.output) == (*success, *gas, output)
                }
            };
            if !ok {
                return Err(format!(
                    "a sampled read diverged from the replay at height {h}"
                ));
            }
        }
        Ok(batch.len() as u64)
    };

    let mut state = genesis;
    let mut verified = check(&state, &header(0), 0)?;
    for (i, (block, receipts)) in session.timeline.blocks.iter().enumerate() {
        let h = i as u64 + 1;
        if &execute_block(&mut state, block) != receipts.as_ref() {
            return Err(format!(
                "receipts diverged from sequential execution at height {h}"
            ));
        }
        verified += check(&state, &block.header, h)?;
    }
    if state.merkle_root() != *session.timeline.roots.last().expect("at least one block") {
        return Err("final root diverged from a from-scratch trie over the replayed state".into());
    }
    Ok(verified)
}

/// Runs sessions until `seconds` have passed (three at least), checks the
/// first against a sequential replay and the rest against the first.
pub fn end_to_end(workload: &str, seed: u64, seconds: f64, scratch: &Scratch) -> Outcome {
    let spec = spec(workload);
    let started = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    let mut out = Outcome::default();
    while sessions.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let dir = scratch.dir(&format!("e2e-{}", sessions.len()));
        let mut s = run_session(seed, &spec, spec.blocks, &dir, spec.reader, false);
        let _ = std::fs::remove_dir_all(&dir);
        let (attempted, failed) = s.operations();
        out.attempted += attempted;
        out.failed += failed;
        if let Some(first) = sessions.first() {
            out.check(
                first.timeline.roots == s.timeline.roots,
                "two sessions over one seed committed different roots",
            );
            // Only the first session is replayed; holding every session's
            // blocks would make peak memory grow with the session count.
            s.timeline.blocks = Vec::new();
        }
        sessions.push(s);
    }
    let genesis = generate(seed, &spec, spec.blocks).genesis;
    match verify_against_replay(genesis, &sessions[0]) {
        Ok(n) => out.attempted += n,
        Err(e) => out.check(false, &e),
    }

    let setup_s: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let timings: Vec<SessionTimings> = sessions.iter().map(Session::timings).collect();
    out.set_end_to_end(&setup_s, &timings);
    out.note(format!(
        "{} sessions x {} blocks x {BLOCK_TXS} txs, {} executor threads of {} cores, closed loop, inline ingest",
        sessions.len(),
        spec.blocks,
        threads(),
        cores(),
    ));
    if let Some(r) = sessions.iter().filter_map(|s| s.reader.as_ref()).next() {
        out.note(format!(
            "reader: {:.0} reads/s beside the writer (readserve.reads_per_s in the traced pass)",
            r.reads as f64 / r.wall.as_secs_f64()
        ));
    }
    out
}

/// Admission-time read sets as execution prefetch hints, as
/// `NodeDriver::run_flat` derives them.
fn hints_of(packed: &PackedBlock) -> Vec<TxHints> {
    packed
        .rw_sets
        .iter()
        .map(|rw| {
            let mut h = TxHints::default();
            for key in &rw.reads {
                match *key {
                    SlotKey::Storage(addr, slot) => h.storage.push((addr, slot)),
                    SlotKey::Balance(addr) => h.accounts.push(addr),
                }
            }
            h
        })
        .collect()
}

/// What one staged session measured beyond its spans.
struct Staged {
    roots: Vec<B256>,
    txs: u64,
    /// Everything that is not a span: `(metric, value)`, the same metrics
    /// in the same order every session.
    values: Vec<(&'static str, f64)>,
}

/// The staged loop: `run_flat`'s inline order, one call per stage, a span
/// around each, reads through [`TimedRead`], commit and flush inline so
/// their cost is visible instead of overlapped.
fn staged_session(
    seed: u64,
    spec: &Spec,
    blocks: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> Staged {
    let origin = Instant::now();
    let Inputs { genesis, txs } = generate(seed, spec, blocks);
    let t = Instant::now();
    let db = open_store(dir, &genesis);
    let bootstrap_s = t.elapsed().as_secs_f64();
    let prefetch = mtpu_evm::prefetch_enabled();
    if prefetch {
        db.enable_prefetch();
    }
    let t = Instant::now();
    let mut committer = StateCommitter::new(MemStore::new()).with_threads(1);
    commit_full(&mut committer, &genesis);
    committer.commit();
    let genesis_commit_s = t.elapsed().as_secs_f64();
    let trie0 = committer.stats();
    let server = spec
        .read_server
        .then(|| ReadServer::new(genesis.clone(), ReadServeConfig::default()));
    drop(genesis);

    let (pool, packer, exec) = (new_pool(), new_packer(), ParExecutor::new(threads()));
    let timed = TimedRead::new(db.as_ref());
    let mut source = txs.into_iter();
    let mut admit = |n: usize| {
        for tx in source.by_ref().take(n) {
            let _ = pool.admit(tx, db.as_ref());
        }
    };
    admit(PREFILL);
    let first_block_s = origin.elapsed().as_secs_f64();

    let db0 = db.stats();
    let mut chain = ChainStats::default();
    let mut roots = Vec::with_capacity(blocks);
    let (mut independent, mut skips, mut depth, mut dirty, mut utilization) =
        (0u64, 0u64, 0u64, 0u64, 0.0);
    for height in 1..=blocks as u64 {
        tracer.span("block", height, |t| {
            depth += pool.len() as u64;
            let packed = t.span("pack", height, |_| packer.pack(&pool, header(height)));
            assert_eq!(
                packed.block.transactions.len(),
                BLOCK_TXS,
                "pool ran short at {height}"
            );
            independent += packed.independent as u64;
            skips += packed.conflict_skips as u64;
            let hints = if prefetch {
                hints_of(&packed)
            } else {
                Vec::new()
            };
            let result = t.span("execute", height, |_| {
                exec.execute_block_delta_with_dag_hints(
                    &timed,
                    &packed.block,
                    &packed.graph,
                    &hints,
                )
            });
            chain.absorb(&result.stats);
            utilization += result.stats.utilization();
            let root = t.span("commit", height, |_| {
                let updates = delta_updates(db.as_ref(), &result.delta);
                dirty += updates.len() as u64;
                apply_updates(&mut committer, &updates);
                committer.commit()
            });
            roots.push(root);
            t.span("absorb", height, |_| db.absorb(&result.delta, height));
            t.span("observe", height, |_| pool.observe_committed(db.as_ref()));
            t.span("flush", height, |_| {
                db.flush_up_to(height.saturating_sub(FLUSH_LAG))
                    .expect("flush")
            });
            if let Some(server) = &server {
                t.span("publish", height, |_| {
                    server.on_block(CommittedBlock {
                        height,
                        block: Arc::new(packed.block),
                        receipts: Arc::new(result.receipts),
                        state: None,
                        delta: Arc::new(result.delta),
                    });
                    server.on_root(height, root);
                });
            }
            t.span("admit", height, |_| admit(BLOCK_TXS));
        });
    }

    let txs = chain.txs as u64;
    let (db1, trie1, pool_stats) = (db.stats(), committer.stats(), pool.stats());
    let (reads, read_ns) = timed.reads();
    let nb = blocks as f64;
    let trie_probes =
        (trie1.cache_hits - trie0.cache_hits) + (trie1.cache_misses - trie0.cache_misses);
    let db_probes = (db1.cache_hits - db0.cache_hits) + (db1.cache_misses - db0.cache_misses);
    let offered = pool_stats.admitted + pool_stats.rejected;
    let mut values = vec![
        ("driver.first_block_s", first_block_s),
        ("accountsdb.bootstrap_s", bootstrap_s),
        ("statedb.genesis_commit_s", genesis_commit_s),
        ("parexec.utilization", utilization / nb),
        ("parexec.reexec_ratio", chain.reexec_ratio()),
        ("parexec.conflicts_per_block", chain.conflicts as f64 / nb),
        ("parexec.fallbacks", chain.fallbacks as f64),
        ("mempool.independent_ratio", independent as f64 / txs as f64),
        ("mempool.conflict_skips_per_block", skips as f64 / nb),
        (
            "mempool.parked_share",
            pool_stats.parked as f64 / offered as f64,
        ),
        (
            "mempool.rejected_share",
            pool_stats.rejected as f64 / offered as f64,
        ),
        ("mempool.pool_depth_mean", depth as f64 / nb),
        ("statedb.dirty_accounts_per_block", dirty as f64 / nb),
        (
            "statedb.nodes_hashed_per_block",
            (trie1.nodes_hashed - trie0.nodes_hashed) as f64 / nb,
        ),
        (
            "statedb.node_cache_hit_ratio",
            (trie1.cache_hits - trie0.cache_hits) as f64 / trie_probes.max(1) as f64,
        ),
        ("accountsdb.read_ns_per_tx", read_ns as f64 / txs as f64),
        ("accountsdb.reads_per_tx", reads as f64 / txs as f64),
        (
            "accountsdb.cache_hit_ratio",
            (db1.cache_hits - db0.cache_hits) as f64 / db_probes.max(1) as f64,
        ),
        (
            "accountsdb.flushed_bytes_per_tx",
            (db1.file_bytes - db0.file_bytes) as f64 / txs as f64,
        ),
        ("accountsdb.files", db1.files as f64),
    ];

    // Snapshot at the head, then a cold reopen of what the manifest vouches for.
    let head_root = *roots.last().expect("at least one block");
    db.flush_up_to(u64::MAX).expect("flush head");
    let t = Instant::now();
    db.snapshot(Some(head_root)).expect("snapshot");
    values.push(("accountsdb.snapshot_ms", t.elapsed().as_secs_f64() * 1e3));
    drop(db);
    let t = Instant::now();
    let restored = AccountsDb::open(dir).expect("reopen accounts db");
    values.push(("accountsdb.restore_ms", t.elapsed().as_secs_f64() * 1e3));
    assert_eq!(
        restored.head_height(),
        blocks as u64,
        "reopen lost the head"
    );
    assert_eq!(
        restored.snapshot_root(),
        Some(head_root),
        "reopen lost the root"
    );

    Staged { roots, txs, values }
}

/// The traced pass: one `run_flat` reference session for roots, read
/// latencies and root lag, then staged sessions until `seconds` have
/// passed (two at least). Half the end-to-end pass's blocks, same seed,
/// so its inputs are a prefix of that pass's.
pub fn traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    scratch: &Scratch,
    trace_out: Option<&Path>,
) -> Outcome {
    let spec = spec(workload);
    let blocks = spec.blocks / 2;
    let started = Instant::now();
    let mut out = Outcome::default();

    let dir = scratch.dir("ref");
    let reference = run_session(seed, &spec, blocks, &dir, spec.reader, true);
    let _ = std::fs::remove_dir_all(&dir);
    let (attempted, failed) = reference.operations();
    out.attempted += attempted;
    out.failed += failed;
    match verify_against_replay(generate(seed, &spec, blocks).genesis, &reference) {
        Ok(n) => out.attempted += n,
        Err(e) => out.check(false, &e),
    }

    let mut sessions: Vec<(Staged, Tracer)> = Vec::new();
    while sessions.len() < 2 || started.elapsed().as_secs_f64() < seconds {
        let dir = scratch.dir(&format!("staged-{}", sessions.len()));
        let mut tracer = Tracer::default();
        let s = staged_session(seed, &spec, blocks, &dir, &mut tracer);
        let _ = std::fs::remove_dir_all(&dir);
        out.check(
            s.roots == reference.timeline.roots,
            "the staged loop's roots differ from run_flat's over the same inputs",
        );
        sessions.push((s, tracer));
    }

    let over =
        |f: &dyn Fn(&(Staged, Tracer)) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let self_ns: Vec<_> = sessions.iter().map(|(_, t)| t.self_ns_by_name()).collect();
    let stage = |name: &str| {
        median(
            &self_ns
                .iter()
                .map(|by| by.get(name).map_or(0.0, |s| s.0 as f64))
                .collect::<Vec<_>>(),
        )
    };
    let txs = sessions[0].0.txs as f64;
    let nb = blocks as f64;
    let mut v = Values::default();
    v.set("mempool.pack_ns_per_tx", stage("pack") / txs);
    v.set("mempool.admit_ns_per_tx", stage("admit") / txs);
    v.set("mempool.observe_ns_per_block", stage("observe") / nb);
    v.set("parexec.execute_ns_per_tx", stage("execute") / txs);
    v.set("statedb.commit_ns_per_tx", stage("commit") / txs);
    v.set("accountsdb.absorb_ns_per_tx", stage("absorb") / txs);
    v.set("accountsdb.flush_ns_per_block", stage("flush") / nb);
    v.set("readserve.publish_ns_per_block", stage("publish") / nb);
    for i in 0..sessions[0].0.values.len() {
        v.set(sessions[0].0.values[i].0, over(&|(s, _)| s.values[i].1));
    }

    // The whole against its parts: every nanosecond of a block span is some
    // stage's self time or the loop's own, so the parts sum to it exactly;
    // `run_flat` overlaps commit and flush with the next block, so its
    // ns/tx is that sum times a ratio below one.
    let stage_sum = over(&|(_, t)| {
        t.spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }) / txs;
    v.set("driver.stage_sum_ns_per_tx", stage_sum);
    v.set(
        "driver.overlap_ratio",
        1e9 / reference.tx_per_s() / stage_sum,
    );

    let tl = &reference.timeline;
    let lag: Vec<f64> = tl
        .root_ns
        .iter()
        .zip(&tl.block_ns)
        .map(|(r, b)| r.saturating_sub(*b) as f64 / 1e6)
        .collect();
    v.set("statedb.root_lag_ms_p50", median(&lag));
    v.set("accountsdb.flush_lag_max", tl.flush_lag_max as f64);
    v.set("readserve.retained_snapshots", reference.retained as f64);
    if let Some(r) = &reference.reader {
        v.set(
            "readserve.reads_per_s",
            r.reads as f64 / r.wall.as_secs_f64(),
        );
        v.set("readserve.point_read_ns_p50", median(&r.point_ns));
        v.set(
            "readserve.point_read_ns_p99",
            percentile(&r.point_ns, 0.99).unwrap_or(0.0),
        );
        v.set("readserve.call_us_p50", median(&r.call_us));
        v.set(
            "readserve.call_us_p99",
            percentile(&r.call_us, 0.99).unwrap_or(0.0),
        );
        // The same session without the reader is what the writer loses to.
        let dir = scratch.dir("quiet");
        let quiet = run_session(seed, &spec, blocks, &dir, false, false);
        let _ = std::fs::remove_dir_all(&dir);
        out.check(
            quiet.timeline.roots == tl.roots,
            "attaching a reader changed the chain",
        );
        v.set(
            "readserve.write_degradation",
            1.0 - reference.tx_per_s() / quiet.tx_per_s(),
        );
    }

    let shares: Vec<String> = [
        "execute", "admit", "commit", "pack", "absorb", "flush", "observe", "publish", "block",
    ]
    .iter()
    .map(|n| format!("{n} {:.0}%", 100.0 * stage(n) / txs / stage_sum))
    .collect();
    out.note(format!(
        "{} staged sessions x {blocks} blocks; stage shares of the staged sum: {}",
        sessions.len(),
        shares.join(", ")
    ));
    out.values = v;
    if let Some(path) = trace_out {
        let trace = sessions[0].1.chrome_trace().emit();
        out.check(
            std::fs::write(path, trace).is_ok(),
            "could not write the Chrome trace",
        );
    }
    out
}
