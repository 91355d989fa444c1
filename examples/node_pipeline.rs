//! The front half of the node, end to end: a Zipfian transaction stream
//! is ingested into the bounded sharded mempool on its own thread while
//! the driver packs conflict-aware blocks, executes them on the parallel
//! engine against the flat accounts store (reads from its in-memory index,
//! storage files as its durability log, MPT commitment-only) and pipelines their state commitments —
//! ingestion, execution and trie hashing all overlapped, block after
//! block. A snapshot → restore round trip of the store then reopens at
//! the session's head root.
//!
//! ```sh
//! cargo run --release --example node_pipeline [blocks]
//! ```

use mtpu_repro::accountsdb::{AccountsDb, FlushService};
use mtpu_repro::evm::tx::{BlockHeader, Transaction};
use mtpu_repro::mempool::{
    BlockPacker, DriverConfig, Mempool, NodeDriver, PackerConfig, PoolConfig, TxSource,
};
use mtpu_repro::workloads::{ZipfConfig, ZipfGen};
use std::sync::Arc;

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

fn short(root: mtpu_repro::primitives::B256) -> String {
    let s = root.to_string();
    format!("{}..{}", &s[..10], &s[s.len() - 4..])
}

fn main() {
    let blocks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(24);
    const BLOCK_TXS: usize = 96;

    let driver = NodeDriver::new(
        // Per-sender cap lifted: dropping a mid-chain nonce would park the
        // rest of that Zipf-hot sender's stream forever. Backpressure
        // bounds the pool instead.
        Mempool::new(PoolConfig {
            max_txs: 4096,
            max_per_sender: 4096,
            ..PoolConfig::default()
        }),
        BlockPacker::new(PackerConfig {
            max_txs: BLOCK_TXS,
            gas_limit: 256_000_000,
            ..PackerConfig::default()
        }),
        DriverConfig {
            blocks,
            threads: 4,
            ingest_batch: 128,
            prefill: 1024,
            background_ingest: true,
            ..DriverConfig::default()
        },
    );

    let source = Bounded {
        gen: ZipfGen::new(0x21F, ZipfConfig::default()),
        left: blocks * BLOCK_TXS * 2,
    };
    let genesis = source.gen.genesis_state().clone();

    let dir = std::env::temp_dir().join(format!("mtpu-example-accountsdb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(&genesis, 0);
    let flush = FlushService::start(db.clone());

    println!("packing {blocks} blocks from a Zipfian mempool (overlapped pipeline)\n");
    let report = driver.run_flat(&genesis, &db, &flush, source, |height| BlockHeader {
        height,
        ..Default::default()
    });

    println!("block   txs  indep  skips  root");
    for b in &report.blocks {
        println!(
            "{:>5} {:>5} {:>6} {:>6}  {}",
            b.height,
            b.txs,
            b.independent,
            b.conflict_skips,
            short(b.merkle_root)
        );
    }
    println!(
        "\n{} blocks, {} txs in {:.2?} — {:.0} tx/s sustained (genesis trie built in {:.2?}, not counted)",
        report.blocks.len(),
        report.chain.txs,
        report.wall,
        report.tx_per_sec(),
        report.genesis_wall
    );
    println!(
        "independent front {:.0}%, re-execution ratio {:.3}",
        100.0 * report.independent_ratio(),
        report.chain.reexec_ratio()
    );
    let p = &report.pool;
    println!(
        "pool: {} admitted, {} parked, {} replaced, {} evicted, {} purged",
        p.admitted, p.parked, p.replaced, p.evicted, p.stale_purged
    );
    println!(
        "roots: genesis {} -> final {}",
        short(report.genesis_root),
        short(report.final_root)
    );
    assert_eq!(
        report.final_root,
        report.blocks.last().expect("blocks nonempty").merkle_root
    );

    // Drain the background flush before reading final store stats.
    flush.quiesce();
    let stats = db.stats();
    println!(
        "store: {} flushes over {} files ({} KiB)",
        stats.flushes,
        stats.files,
        stats.file_bytes / 1024
    );

    // Snapshot → restore: the reopened store carries the same head root.
    db.snapshot(Some(report.final_root)).expect("snapshot");
    drop(flush);
    drop(db);
    let restored = AccountsDb::open(&dir).expect("restore accounts db");
    assert_eq!(restored.snapshot_root(), Some(report.final_root));
    println!(
        "snapshot/restore round-trip ok at height {} (root {})",
        restored.head_height(),
        short(report.final_root)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
