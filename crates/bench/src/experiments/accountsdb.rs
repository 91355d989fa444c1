//! The flat accounts-DB backend at scale: execution reads served by the
//! write cache → index → storage files while the MPT stays
//! commitment-only.
//!
//! Two phases:
//!
//! 1. **Parity** (reduced scale): the same deterministic inline-ingest
//!    session on the `State` backend and on the flat backend must pack
//!    and commit bit-identical per-block merkle roots.
//! 2. **Scale**: a Zipfian universe of ≥1M distinct accounts (override
//!    with `MTPU_ACCOUNTSDB_ACCOUNTS`) is bootstrapped into the flat
//!    store, then a sustained pack → execute → absorb → background-flush
//!    session runs entirely against it — reporting sustained tx/s, the
//!    flush lag behind the head, and the snapshot / restore wall-clock.

use crate::harness::render_table;
use mtpu_accountsdb::{AccountsDb, FlushService};
use mtpu_evm::tx::{BlockHeader, Transaction};
use mtpu_mempool::{
    BlockPacker, DriverConfig, Mempool, NodeDriver, PackerConfig, PoolConfig, TxSource,
};
use mtpu_primitives::B256;
use mtpu_workloads::{ZipfConfig, ZipfGen};
use std::sync::Arc;
use std::time::Instant;

/// Distinct accounts in the scale phase (the tentpole criterion).
const DEFAULT_ACCOUNTS: u64 = 1_000_000;
/// Blocks in the sustained scale session.
const SCALE_BLOCKS: usize = 48;
/// Transactions per packed block.
const BLOCK_TXS: usize = 128;
/// Blocks in the parity pre-check (inline ingest, deterministic).
const PARITY_BLOCKS: usize = 6;

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

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtpu-bench-accountsdb-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Parity pre-check: `run` vs `run_flat` over the same seed must agree
/// on every per-block root, and the flat store must survive a snapshot →
/// restore at the final root.
fn parity() -> &'static str {
    let make_driver = || {
        NodeDriver::new(
            Mempool::new(PoolConfig {
                max_txs: 4096,
                max_per_sender: 4096,
                ..PoolConfig::default()
            }),
            BlockPacker::new(PackerConfig {
                max_txs: 96,
                gas_limit: 256_000_000,
                ..PackerConfig::default()
            }),
            DriverConfig {
                blocks: PARITY_BLOCKS,
                background_ingest: false,
                ..DriverConfig::default()
            },
        )
    };
    let make_source = || Bounded {
        gen: ZipfGen::new(
            0xACC7,
            ZipfConfig {
                senders: 256,
                hot_ratio: 0.2,
                ..ZipfConfig::default()
            },
        ),
        left: PARITY_BLOCKS * 96 * 2,
    };
    let genesis = make_source().gen.genesis_state().clone();

    let baseline = make_driver().run(genesis.clone(), make_source(), header);

    let dir = scratch_dir("parity");
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(&genesis, 0);
    let flush = FlushService::start(db.clone());
    let flat = make_driver().run_flat(&genesis, &db, &flush, make_source(), header);

    let roots = |blocks: &[mtpu_mempool::BlockSummary]| -> Vec<B256> {
        blocks.iter().map(|b| b.merkle_root).collect()
    };
    assert_eq!(
        roots(&baseline.blocks),
        roots(&flat.blocks),
        "flat backend diverged from the State backend"
    );

    flush.quiesce();
    db.snapshot(Some(flat.final_root)).expect("snapshot");
    drop(flush);
    drop(db);
    let restored = AccountsDb::open(&dir).expect("restore accounts db");
    assert_eq!(restored.snapshot_root(), Some(flat.final_root));
    let _ = std::fs::remove_dir_all(&dir);
    "OK"
}

/// Sustained flat-backend session over a large account universe.
pub fn flat_store() -> String {
    let det = parity();

    let accounts: u64 = std::env::var("MTPU_ACCOUNTSDB_ACCOUNTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_ACCOUNTS);

    // Genesis: a Zipf universe of `accounts` distinct accounts, senders
    // and recipients spread across all of it so execution reads scatter
    // over the whole store instead of a hot thousand.
    let build_started = Instant::now();
    let mut source = Bounded {
        gen: ZipfGen::new(
            0x1A7E5,
            ZipfConfig {
                senders: 8192.min(accounts / 4).max(64),
                universe: accounts,
                recipients: accounts,
                hot_ratio: 0.1,
                sct_ratio: 0.5,
                ..ZipfConfig::default()
            },
        ),
        left: SCALE_BLOCKS * BLOCK_TXS * 2,
    };
    let genesis = source.gen.genesis_state();
    let build_wall = build_started.elapsed();

    let dir = scratch_dir("scale");
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    let boot_started = Instant::now();
    db.bootstrap_from_state(genesis, 0);
    db.flush_up_to(0).expect("flush genesis");
    let boot_wall = boot_started.elapsed();
    let genesis_stats = db.stats();
    assert!(
        genesis_stats.indexed_accounts as u64 >= accounts,
        "universe fell short: {} < {accounts}",
        genesis_stats.indexed_accounts
    );

    // Sustained session: pack → execute (reads through the flat store) →
    // absorb → background flush trailing the head. The MPT is deliberately
    // absent here — the parity phase holds the commitment contract, this
    // phase measures the read/write path at scale.
    let flush = FlushService::start(db.clone());
    let pool = Mempool::new(PoolConfig {
        max_txs: 8192,
        max_per_sender: 8192,
        ..PoolConfig::default()
    });
    let packer = BlockPacker::new(PackerConfig {
        max_txs: BLOCK_TXS,
        gas_limit: 256_000_000,
        ..PackerConfig::default()
    });
    let exec = mtpu_parexec::ParExecutor::new(4);

    let admit = |pool: &Mempool, src: &mut Bounded, n: usize| {
        for _ in 0..n {
            match src.next_tx() {
                Some(tx) => {
                    let _ = pool.admit(tx, db.as_ref());
                }
                None => return false,
            }
        }
        true
    };

    admit(&pool, &mut source, 2048);
    let mut txs = 0usize;
    let mut max_lag = 0u64;
    let run_started = Instant::now();
    for height in 1..=SCALE_BLOCKS as u64 {
        let packed = packer.pack(&pool, header(height));
        if packed.block.transactions.is_empty() {
            if !admit(&pool, &mut source, BLOCK_TXS * 2) {
                break;
            }
            continue;
        }
        txs += packed.block.transactions.len();
        let result =
            exec.execute_block_delta_with_dag_hints(db.as_ref(), &packed.block, &packed.graph, &[]);
        db.absorb(&result.delta, height);
        pool.observe_committed(db.as_ref());
        flush.request_flush(height.saturating_sub(2));
        max_lag = max_lag.max(db.stats().flush_lag());
        admit(&pool, &mut source, BLOCK_TXS);
    }
    let run_wall = run_started.elapsed();
    let tx_per_sec = txs as f64 / run_wall.as_secs_f64();

    let end_lag = db.stats().flush_lag();
    flush.quiesce();
    let stats = db.stats();

    // Positional-read latency, when the run was telemetry-instrumented.
    let read_lat = if mtpu_telemetry::enabled() {
        let snap = mtpu_telemetry::global()
            .histogram("accountsdb.read_us")
            .snapshot();
        format!(
            "file read latency: p50 {}us / p99 {}us over {} positional reads\n",
            snap.percentile(0.50),
            snap.percentile(0.99),
            snap.count,
        )
    } else {
        String::new()
    };

    // Snapshot, then a cold restore (manifest + index replay of every
    // storage file).
    let snap_started = Instant::now();
    db.snapshot(None).expect("snapshot");
    let snap_wall = snap_started.elapsed();
    let head = db.head_height();
    drop(flush);
    drop(db);
    let restore_started = Instant::now();
    let restored = AccountsDb::open(&dir).expect("restore accounts db");
    let restore_wall = restore_started.elapsed();
    assert_eq!(restored.head_height(), head, "restore lost the head");
    let restored_accounts = restored.stats().indexed_accounts;
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);

    let rows = vec![
        vec![
            "genesis build".to_string(),
            format!("{} accounts", genesis_stats.indexed_accounts),
            format!("{build_wall:.2?}"),
        ],
        vec![
            "bootstrap + flush".to_string(),
            format!("{} entries", genesis_stats.flushed_entries),
            format!("{boot_wall:.2?}"),
        ],
        vec![
            "sustained session".to_string(),
            format!("{txs} txs / {SCALE_BLOCKS} blocks"),
            format!("{run_wall:.2?}"),
        ],
        vec![
            "snapshot".to_string(),
            format!("{} files, {} MiB", stats.files, stats.file_bytes >> 20),
            format!("{snap_wall:.2?}"),
        ],
        vec![
            "restore".to_string(),
            format!("{restored_accounts} accounts"),
            format!("{restore_wall:.2?}"),
        ],
    ];

    render_table(
        &format!(
            "Flat accounts-DB backend ({} distinct accounts, Zipf reads, \
             background flush)",
            genesis_stats.indexed_accounts
        ),
        &["phase", "size", "wall"],
        &rows,
    ) + &format!(
        "\nsustained: {tx_per_sec:.0} tx/s with execution reads through the flat store\n\
         cache hit ratio {:.1}% ({} hits / {} misses), {} flushes\n\
         {read_lat}\
         flush lag: max {max_lag} blocks during the session, {end_lag} at the end \
         (cap {})\nparity: {det} ({PARITY_BLOCKS}-block State vs flat sessions agree \
         root-for-root; snapshot/restore round-trip)\n\
         The MPT never materializes account data on the read path — it stays\n\
         commitment-only while every execution read resolves cache → index → file.\n",
        100.0 * stats.hit_ratio(),
        stats.cache_hits,
        stats.cache_misses,
        stats.flushes,
        2,
    )
}
